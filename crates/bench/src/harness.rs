//! The micro-benchmark harness behind `cargo bench -p fakeaudit-bench`.
//!
//! Each bench file's `main` hands a [`Harness`] to its bench functions,
//! which open groups and time closures:
//!
//! ```no_run
//! use fakeaudit_bench::harness::Harness;
//! use std::hint::black_box;
//!
//! let mut c = Harness::default();
//! let mut group = c.benchmark_group("demo");
//! group.sample_size(20);
//! group.bench_function("sum_1k", |b| b.iter(|| black_box((0..1_000u64).sum::<u64>())));
//! group.finish();
//! ```
//!
//! A measurement is a warm-up of at least [`WARM_UP`] that also sizes a
//! batch so one sample lasts about [`SAMPLE_TARGET`], then a fixed
//! number of samples (100 unless the group sets `sample_size`). It
//! prints the per-iteration median and p95 over the samples, plus
//! elements per second at the median when the group declares a
//! [`Throughput`].

use fakeaudit_telemetry::metrics::nearest_rank;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum warm-up time per bench.
pub const WARM_UP: Duration = Duration::from_millis(200);

/// Time one sample's batch of iterations aims for.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(2);

/// Samples per bench unless a group overrides it.
pub const DEFAULT_SAMPLES: usize = 100;

/// Entry point handed to every bench function.
#[derive(Debug, Default)]
pub struct Harness {
    _private: (),
}

impl Harness {
    /// Opens a named group of benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            samples: DEFAULT_SAMPLES,
            throughput: None,
        }
    }
}

/// Work done per iteration, for rate reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// A group of benches sharing a sample count and throughput.
#[derive(Debug)]
pub struct Group {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl Group {
    /// Sets the number of timed samples per bench (at least 1).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Declares the work per iteration of the benches that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measures the routine `f` passes to [`Bencher::iter`] and prints
    /// one result line.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: self.samples,
            stats: None,
        };
        f(&mut bencher);
        let id = id.into();
        match bencher.stats {
            Some(stats) => println!("{}/{id}: {}", self.name, stats.render(self.throughput)),
            None => println!("{}/{id}: no routine measured", self.name),
        }
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Times one routine.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    stats: Option<Stats>,
}

impl Bencher {
    /// Warms up and then times `routine`, keeping its output alive
    /// through [`black_box`].
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters == 0 || start.elapsed() < WARM_UP {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = start.elapsed() / warm_iters;
        let batch = if per_iter.is_zero() {
            1_000
        } else {
            (SAMPLE_TARGET.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u32
        };
        let times = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(routine());
                }
                t.elapsed() / batch
            })
            .collect();
        self.stats = Some(Stats::of(times, batch));
    }
}

/// Per-iteration summary of one bench's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Median per-iteration time.
    pub median: Duration,
    /// 95th-percentile per-iteration time (nearest rank).
    pub p95: Duration,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub batch: u32,
}

impl Stats {
    /// Summarises per-iteration sample times.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty.
    pub fn of(mut times: Vec<Duration>, batch: u32) -> Stats {
        assert!(!times.is_empty(), "no samples");
        times.sort_unstable();
        let rank = |q: f64| nearest_rank(&times, q).expect("non-empty");
        Stats {
            median: rank(0.5),
            p95: rank(0.95),
            samples: times.len(),
            batch,
        }
    }

    fn render(&self, throughput: Option<Throughput>) -> String {
        let mut line = format!(
            "median {} p95 {} ({} samples x {} iters)",
            human(self.median),
            human(self.p95),
            self.samples,
            self.batch
        );
        if let Some(Throughput::Elements(n)) = throughput {
            let secs = self.median.as_secs_f64();
            if secs > 0.0 {
                line.push_str(&format!(", {:.3e} elem/s", n as f64 / secs));
            }
        }
        line
    }
}

fn human(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p95_use_nearest_rank() {
        let times: Vec<Duration> = (1..=100).rev().map(Duration::from_micros).collect();
        let s = Stats::of(times, 3);
        assert_eq!(s.median, Duration::from_micros(50));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!((s.samples, s.batch), (100, 3));
        let one = Stats::of(vec![Duration::from_nanos(7)], 1);
        assert_eq!(
            (one.median, one.p95),
            (Duration::from_nanos(7), Duration::from_nanos(7))
        );
    }

    #[test]
    fn iter_warms_up_then_takes_every_sample() {
        let mut b = Bencher {
            samples: 5,
            stats: None,
        };
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        let stats = b.stats.expect("measured");
        assert_eq!(stats.samples, 5);
        assert!(calls > 5 * u64::from(stats.batch));
    }

    #[test]
    fn throughput_is_reported_at_the_median() {
        let s = Stats::of(vec![Duration::from_millis(1)], 1);
        assert!(s
            .render(Some(Throughput::Elements(1_000)))
            .ends_with("1.000e6 elem/s"));
        assert!(!s.render(None).contains("elem/s"));
    }
}
