//! Deterministic seed derivation and the workspace's two generators.
//!
//! Every experiment in the repository is parameterised by a single `u64`
//! seed. Sub-systems (population generator, samplers, per-account jitter)
//! derive independent streams from that master seed with [`derive_seed`], so
//! adding a new consumer never perturbs the streams of existing ones.
//!
//! Two generators draw from those seeds, both fully specified in this
//! file:
//!
//! * [`StdRng`] — ChaCha12 with the stream layout, seed expansion and
//!   sampling algorithms of rand 0.8's `StdRng`, draw for draw. The
//!   population, samplers, learners and service jitter use it, so every
//!   committed table reproduces from the same seeds it was made with.
//! * [`DetStream`] — a splitmix64 stream for fault schedules, crash
//!   points and property-test cases.

use std::collections::HashSet;
use std::ops::Range;

/// Derives a child seed from a master seed and a textual label.
///
/// The derivation is a small, fixed FNV-1a-style mix — stable across
/// platforms and Rust releases (unlike `DefaultHasher`), which keeps every
/// table in `EXPERIMENTS.md` bit-reproducible.
///
/// ```
/// use fakeaudit_stats::rng::derive_seed;
/// let a = derive_seed(42, "population");
/// let b = derive_seed(42, "sampler");
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, "population"));
/// ```
pub fn derive_seed(master: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ master.wrapping_mul(SPLITMIX_GAMMA);
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche so nearby seeds diverge.
    splitmix_finalize(h)
}

/// Creates a [`StdRng`] from a master seed and label via [`derive_seed`].
///
/// ```
/// use fakeaudit_stats::rng::rng_for;
/// let mut r = rng_for(7, "demo");
/// let x: f64 = r.gen();
/// assert!((0.0..1.0).contains(&x));
/// ```
pub fn rng_for(master: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, label))
}

/// Creates a [`StdRng`] for the `i`-th element of a keyed family of streams
/// (e.g. one stream per synthetic account).
pub fn rng_for_indexed(master: u64, label: &str, index: u64) -> StdRng {
    let base = derive_seed(master, label);
    StdRng::seed_from_u64(derive_seed(base, &format!("#{index}")))
}

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step: the output for the state after `state`.
///
/// [`DetStream::next_u64`] is exactly this step; it is also usable as a
/// stateless hash of `state` (e.g. to key crash points on a cell seed).
pub fn splitmix64(state: u64) -> u64 {
    splitmix_finalize(state.wrapping_add(SPLITMIX_GAMMA))
}

/// A self-contained splitmix64 uniform stream.
///
/// A few lines of integer arithmetic, so sequences drawn from it are
/// bit-reproducible across platforms and Rust releases. Use it for
/// streams whose exact draw sequence is pinned by committed golden
/// fixtures (e.g. fault schedules).
///
/// ```
/// use fakeaudit_stats::rng::DetStream;
/// let mut a = DetStream::new(7, "faults");
/// let mut b = DetStream::new(7, "faults");
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!((0.0..1.0).contains(&a.next_f64()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetStream {
    state: u64,
}

impl DetStream {
    /// A stream seeded from a master seed and label via [`derive_seed`].
    pub fn new(master: u64, label: &str) -> DetStream {
        DetStream {
            state: derive_seed(master, label),
        }
    }

    /// A stream starting from the raw splitmix64 `state`, for callers
    /// whose committed outputs pin a state seeded without
    /// [`derive_seed`].
    pub fn from_state(state: u64) -> DetStream {
        DetStream { state }
    }

    /// The next 64 uniform bits (one [`splitmix64`] step).
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        out
    }

    /// The next uniform draw in `[0, 1)`, at 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// The top 53 bits of `bits` as a uniform draw in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Words per ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks generated per refill; reads straddle refills as in rand 0.8.
const BUFFER_BLOCKS: usize = 4;
const BUFFER_WORDS: usize = BLOCK_WORDS * BUFFER_BLOCKS;

/// The seeded generator behind every sampled number in the reproduction.
///
/// ChaCha with 12 rounds, a 64-bit block counter and stream 0, buffered
/// four blocks at a time. Its outputs and every sampling method below
/// (`gen`, `gen_range`, `shuffle`, `choose`, `index_sample`) match rand
/// 0.8's `StdRng` and its algorithms exactly, which the known-answer tests
/// in this module pin.
#[derive(Debug, Clone)]
pub struct StdRng {
    key: [u32; 8],
    /// Counter of the next block to generate.
    counter: u64,
    buffer: [u32; BUFFER_WORDS],
    /// Next unread word of `buffer`; `BUFFER_WORDS` means empty.
    index: usize,
}

impl StdRng {
    /// A generator keyed directly by 32 seed bytes.
    pub fn from_seed(seed: [u8; 32]) -> StdRng {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        StdRng {
            key,
            counter: 0,
            buffer: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }

    /// A generator whose 32 key bytes are expanded from `state` with the
    /// PCG32 output function, four bytes per step.
    pub fn seed_from_u64(mut state: u64) -> StdRng {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        StdRng::from_seed(seed)
    }

    fn refill(&mut self) {
        for (b, block) in self.buffer.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            let counter = self.counter.wrapping_add(b as u64);
            block.copy_from_slice(&chacha_block(&self.key, counter, 0, 12));
        }
        self.counter = self.counter.wrapping_add(BUFFER_BLOCKS as u64);
        self.index = 0;
    }

    /// The next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    /// The next 64 uniform bits: two words, low first. A read that
    /// straddles the buffer end takes the last word of this buffer as
    /// the low half and the first word of the next as the high half.
    pub fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUFFER_WORDS - 1 {
            self.index += 2;
            u64::from(self.buffer[index]) | (u64::from(self.buffer[index + 1]) << 32)
        } else if index >= BUFFER_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buffer[0]) | (u64::from(self.buffer[1]) << 32)
        } else {
            let low = u64::from(self.buffer[BUFFER_WORDS - 1]);
            self.refill();
            self.index = 1;
            low | (u64::from(self.buffer[0]) << 32)
        }
    }

    /// A uniform draw of `T`: `f64` in `[0, 1)` at 53-bit resolution,
    /// integers over their full range.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from the half-open `range`.
    ///
    /// Integers use a widening multiply with rejection, so every value is
    /// exactly equally likely; floats scale a `[1, 2)` mantissa draw and
    /// reject any rounding onto `range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_single(self, range.start, range.end)
    }

    /// Shuffles `slice` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_index(i + 1));
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }

    /// A uniform index below `bound`, drawn as a `u32` when it fits.
    fn gen_index(&mut self, bound: usize) -> usize {
        match u32::try_from(bound) {
            Ok(bound) => self.gen_range(0..bound) as usize,
            Err(_) => self.gen_range(0..bound),
        }
    }

    /// `amount` distinct indices drawn uniformly from `0..length`, in
    /// the order sampled.
    ///
    /// Picks one of three algorithms from `length` and `amount`: Floyd's
    /// for small samples, a partial Fisher–Yates over `0..length` for
    /// dense ones, and rejection against a set of drawn indices for
    /// sparse ones.
    ///
    /// # Panics
    ///
    /// Panics if `amount > length` or `length > u32::MAX`.
    pub fn index_sample(&mut self, length: usize, amount: usize) -> Vec<usize> {
        assert!(
            amount <= length,
            "`amount` of samples must be less than or equal to `length`"
        );
        let length = u32::try_from(length).expect("index_sample: length exceeds u32::MAX");
        let amount = amount as u32;
        // rand's cost model picks the algorithm, and the algorithm fixes
        // which draws are made, so these thresholds are part of the stream.
        let indices = if amount < 163 {
            const C: [[f32; 2]; 2] = [[1.6, 8.0 / 45.0], [10.0, 70.0 / 9.0]];
            let j = usize::from(length >= 500_000);
            let amount_fp = amount as f32;
            let m4 = C[0][j] * amount_fp;
            if amount > 11 && (length as f32) < (C[1][j] + m4) * amount_fp {
                self.sample_inplace(length, amount)
            } else {
                self.sample_floyd(length, amount)
            }
        } else {
            const C: [f32; 2] = [270.0, 330.0 / 9.0];
            let j = usize::from(length >= 500_000);
            if (length as f32) < C[j] * (amount as f32) {
                self.sample_inplace(length, amount)
            } else {
                self.sample_rejection(length, amount)
            }
        };
        indices.into_iter().map(|i| i as usize).collect()
    }

    fn sample_floyd(&mut self, length: u32, amount: u32) -> Vec<u32> {
        // Small samples keep Floyd's fully shuffled variant; larger ones
        // append and shuffle afterwards.
        let floyd_shuffle = amount < 50;
        let mut indices = Vec::with_capacity(amount as usize);
        for j in length - amount..length {
            let t = self.gen_range(0..j + 1);
            if floyd_shuffle {
                if let Some(pos) = indices.iter().position(|&x| x == t) {
                    indices.insert(pos, j);
                    continue;
                }
            } else if indices.contains(&t) {
                indices.push(j);
                continue;
            }
            indices.push(t);
        }
        if !floyd_shuffle {
            for i in (1..amount).rev() {
                indices.swap(i as usize, self.gen_range(0..i + 1) as usize);
            }
        }
        indices
    }

    fn sample_inplace(&mut self, length: u32, amount: u32) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..length).collect();
        for i in 0..amount {
            let j = self.gen_range(i..length);
            indices.swap(i as usize, j as usize);
        }
        indices.truncate(amount as usize);
        indices
    }

    fn sample_rejection(&mut self, length: u32, amount: u32) -> Vec<u32> {
        // A fixed-range sampler: its rejection zone is the exact multiple
        // of `length` below 2^32 (unlike `gen_range`'s shifted zone).
        let zone = u32::MAX - (u32::MAX - length + 1) % length;
        let mut draw = || loop {
            let m = u64::from(self.next_u32()) * u64::from(length);
            if m as u32 <= zone {
                break (m >> 32) as u32;
            }
        };
        let mut seen = HashSet::with_capacity(amount as usize);
        (0..amount)
            .map(|_| {
                let mut pos = draw();
                while !seen.insert(pos) {
                    pos = draw();
                }
                pos
            })
            .collect()
    }
}

/// Types [`StdRng::gen`] draws uniformly.
pub trait Standard {
    /// One draw from `rng`.
    fn draw(rng: &mut StdRng) -> Self;
}

impl Standard for u32 {
    fn draw(rng: &mut StdRng) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn draw(rng: &mut StdRng) -> f64 {
        unit_f64(rng.next_u64())
    }
}

/// Types [`StdRng::gen_range`] samples from a half-open range.
pub trait SampleRange: Sized {
    /// A uniform draw from `low..high`.
    fn sample_single(rng: &mut StdRng, low: Self, high: Self) -> Self;
}

/// Integer ranges: `$unsigned` is the type's unsigned twin, `$large` the
/// word drawn per attempt (at least 32 bits) and `$wide` its double width.
macro_rules! sample_int {
    ($($ty:ty => $unsigned:ty, $large:ty, $wide:ty;)*) => {$(
        impl SampleRange for $ty {
            fn sample_single(rng: &mut StdRng, low: $ty, high: $ty) -> $ty {
                assert!(low < high, "gen_range: low >= high");
                let range = high.wrapping_sub(low) as $unsigned as $large;
                let zone = if <$unsigned>::BITS <= 16 {
                    // Narrow types reject exactly the remainder.
                    <$large>::MAX - (<$large>::MAX - range + 1) % range
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as Standard>::draw(rng);
                    let m = <$wide>::from(v) * <$wide>::from(range);
                    if m as $large <= zone {
                        return low.wrapping_add((m >> <$large>::BITS) as $ty);
                    }
                }
            }
        }
    )*};
}

sample_int! {
    u8 => u8, u32, u64;
    u32 => u32, u32, u64;
    u64 => u64, u64, u128;
    usize => usize, u64, u128;
    i32 => u32, u32, u64;
    i64 => u64, u64, u128;
}

impl SampleRange for f64 {
    fn sample_single(rng: &mut StdRng, low: f64, high: f64) -> f64 {
        assert!(low < high, "gen_range: low >= high");
        let scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            // A uniform mantissa under exponent 0 is uniform in [1, 2).
            let one_to_two = f64::from_bits((rng.next_u64() >> 12) | 0x3ff0_0000_0000_0000);
            let x = (one_to_two - 1.0) * scale + low;
            if x < high {
                return x;
            }
        }
    }
}

/// One ChaCha block: the 4 constant words, 8 key words, a 64-bit block
/// counter (low word first) and a 64-bit stream id, after `rounds`
/// rounds, added to the input words.
fn chacha_block(key: &[u32; 8], counter: u64, stream: u64, rounds: usize) -> [u32; BLOCK_WORDS] {
    let mut input = [0u32; BLOCK_WORDS];
    input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    input[4..12].copy_from_slice(key);
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
    input[14] = stream as u32;
    input[15] = (stream >> 32) as u32;
    chacha_permute(input, rounds)
}

fn chacha_permute(input: [u32; BLOCK_WORDS], rounds: usize) -> [u32; BLOCK_WORDS] {
    fn quarter(x: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    let mut x = input;
    for _ in 0..rounds / 2 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (out, word) in x.iter_mut().zip(input) {
        *out = out.wrapping_add(word);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, "x"), derive_seed(1, "x"));
    }

    #[test]
    fn derive_seed_separates_labels() {
        assert_ne!(derive_seed(1, "x"), derive_seed(1, "y"));
    }

    #[test]
    fn derive_seed_separates_masters() {
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
    }

    #[test]
    fn derive_seed_nearby_masters_diverge() {
        // splitmix finaliser: consecutive masters should not produce
        // consecutive child seeds.
        let a = derive_seed(100, "s");
        let b = derive_seed(101, "s");
        assert!(a.abs_diff(b) > 1 << 20);
    }

    #[test]
    fn rng_for_reproduces_streams() {
        let xs: Vec<u32> = {
            let mut r = rng_for(9, "stream");
            (0..8).map(|_| r.gen()).collect()
        };
        let ys: Vec<u32> = {
            let mut r = rng_for(9, "stream");
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let mut a = rng_for_indexed(3, "acct", 0);
        let mut b = rng_for_indexed(3, "acct", 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn empty_label_is_valid() {
        // Degenerate but allowed: an empty label still yields a usable seed.
        let s = derive_seed(5, "");
        assert_ne!(s, 5);
    }

    #[test]
    fn det_stream_is_reproducible_and_label_separated() {
        let draws = |master, label: &str| {
            let mut s = DetStream::new(master, label);
            (0..16).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3, "a"), draws(3, "a"));
        assert_ne!(draws(3, "a"), draws(3, "b"));
        assert_ne!(draws(3, "a"), draws(4, "a"));
    }

    #[test]
    fn chacha20_block_matches_the_zero_key_vector() {
        // The all-zero key/nonce ChaCha20 keystream (RFC 7539 A.1 #1).
        let block = chacha_block(&[0; 8], 0, 0, 20);
        assert_eq!(
            block[..4],
            [0xade0_b876, 0x903d_f1a0, 0xe56a_5d40, 0x28bd_8653]
        );
    }

    // Known answers for `rng_for(2014, "population")`, the stream the
    // population generator draws first. The whole committed results/
    // set reproduces from this generator, so these pin it.

    fn population() -> StdRng {
        rng_for(2014, "population")
    }

    #[test]
    fn known_answer_next_u64() {
        let mut r = population();
        let xs: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            xs,
            [
                0xb9b2_677c_bddf_6b4c,
                0xfdeb_31c8_a2d3_4bc1,
                0xd040_790f_ec51_02f5
            ]
        );
    }

    #[test]
    fn known_answer_unit_f64() {
        let mut r = population();
        let xs: Vec<f64> = (0..3).map(|_| r.gen()).collect();
        assert_eq!(
            xs,
            [
                0.725_378_482_775_224_9,
                0.991_870_032_771_499,
                0.813_483_778_369_406
            ]
        );
    }

    #[test]
    fn known_answer_int_range() {
        let mut r = population();
        let xs: Vec<i32> = (0..8).map(|_| r.gen_range(0..10)).collect();
        assert_eq!(xs, [7, 7, 6, 9, 8, 4, 4, 4]);
    }

    #[test]
    fn known_answer_float_range() {
        let mut r = population();
        let xs: Vec<f64> = (0..3).map(|_| r.gen_range(0.5..0.95)).collect();
        assert_eq!(
            xs,
            [
                0.826_420_317_248_851_1,
                0.946_341_514_747_174_4,
                0.866_067_700_266_232_7
            ]
        );
    }

    #[test]
    fn known_answer_shuffle() {
        let mut xs: Vec<u32> = (0..10).collect();
        population().shuffle(&mut xs);
        assert_eq!(xs, [1, 3, 4, 0, 9, 2, 8, 5, 6, 7]);
    }

    #[test]
    fn known_answer_index_sample_per_algorithm() {
        // Floyd's (small amount), in-place (dense) and rejection (sparse).
        assert_eq!(population().index_sample(100, 5), [71, 70, 62, 98, 92]);
        assert_eq!(
            population().index_sample(20, 15),
            [14, 13, 10, 2, 11, 3, 19, 8, 16, 12, 15, 6, 1, 0, 5]
        );
        let sparse = population().index_sample(1_000_000, 200);
        assert_eq!(sparse[..5], [741_690, 725_378, 636_036, 991_870, 923_111]);
    }

    #[test]
    fn next_u64_straddles_the_buffer_end() {
        let mut words = population();
        let w: Vec<u64> = (0..66).map(|_| u64::from(words.next_u32())).collect();
        let mut r = population();
        r.next_u32();
        let pairs: Vec<u64> = (0..32).map(|_| r.next_u64()).collect();
        assert_eq!(pairs[0], w[1] | w[2] << 32);
        // The 32nd pair takes word 63 of the first buffer and word 0 of
        // the next.
        assert_eq!(pairs[31], w[63] | w[64] << 32);
        assert_eq!(u64::from(r.next_u32()), w[65]);
    }

    #[test]
    fn float_range_never_returns_high() {
        let mut r = population();
        // Half of all draws round up onto `high` here and are redrawn.
        let (low, high) = (1.0, 1.0 + f64::EPSILON);
        assert!((0..1_000).all(|_| r.gen_range(low..high) == low));
        assert!((0..10_000).all(|_| (0.5..0.95).contains(&r.gen_range(0.5..0.95))));
    }

    #[test]
    fn unit_int_range_returns_its_only_value() {
        let mut r = population();
        assert!((0..100).all(|_| r.gen_range(0..1) == 0));
        assert!((0..100).all(|_| r.gen_range(0u8..1) == 0));
    }

    #[test]
    fn full_index_sample_is_a_permutation() {
        // Floyd's below 12, in-place above.
        for n in [1, 7, 11, 40, 163, 300] {
            let mut idx = population().index_sample(n, n);
            idx.sort_unstable();
            assert_eq!(idx, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn choose_draws_from_the_slice() {
        let mut r = population();
        assert_eq!(r.choose::<u8>(&[]), None);
        let xs = [10, 20, 30];
        assert!((0..100).all(|_| xs.contains(r.choose(&xs).unwrap())));
    }

    #[test]
    fn det_stream_f64_is_uniformish() {
        let mut s = DetStream::new(11, "u");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
