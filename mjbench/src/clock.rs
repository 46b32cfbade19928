//! Host-speed probe.
//!
//! A shared host's speed swings by tens of percent over seconds and drifts
//! by more over minutes as other tenants come and go, so raw wall-clock
//! times of two runs of the same code can differ by more than any useful
//! regression bound. The benchmark therefore interleaves a fixed probe kernel
//! with the workload, about every [`INTERVAL`], and divides host times by
//! the run's mean probe time over [`NOMINAL_PROBE_NS`]
//! ([`HostClock::slowdown`]). Host times then read as the time the work
//! takes on a host where the probe takes 80 µs, its typical time on the
//! 2-core Xeon VM the benchmark was tuned on; raw times are printed beside
//! them.
//!
//! On that VM, over five runs of one seed, the spread (interquartile range
//! over median) of raw `ops_per_s` was 0.16–0.18 and of the scaled one
//! 0.03–0.04. The probe works on an L1-sized buffer warmed by an untimed
//! pass: a larger or cold buffer mostly measured how much of it the
//! preceding op had evicted. The mean is used, not a fast-state quantile,
//! which moved by up to 30% between runs.
//!
//! The kernel is this crate's own code, so a change to the repository's
//! crates cannot speed it up or slow it down and hide its own effect.

use std::time::{Duration, Instant};

/// Probe spacing while a run is timed.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Probe working set: 32 KiB of words, walked pseudo-randomly.
const WORDS: usize = 1 << 12;

/// Probe length in steps (roughly 70–100 µs).
const STEPS: u32 = 40_000;

/// Probe time that host times are scaled to.
pub const NOMINAL_PROBE_NS: f64 = 80_000.0;

/// Interleaved probe runs and their host times.
pub struct HostClock {
    buf: Vec<u64>,
    probe_ns: Vec<f64>,
    spent: Duration,
    next: Instant,
}

impl Default for HostClock {
    /// A clock whose first probe is due immediately.
    fn default() -> HostClock {
        HostClock {
            buf: (0..WORDS as u64).collect(),
            probe_ns: Vec::new(),
            spent: Duration::ZERO,
            next: Instant::now(),
        }
    }
}

impl HostClock {
    /// Probe if one is due.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.probe();
        }
    }

    /// Run the kernel once to warm the buffer, then once timed.
    pub fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(&mut self.buf)));
        let timed = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(&mut self.buf)));
        let d = timed.elapsed();
        self.probe_ns.push(d.as_nanos() as f64);
        self.spent += t.elapsed();
        self.next = Instant::now() + INTERVAL;
    }

    /// Host time spent probing.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Mean probe time over [`NOMINAL_PROBE_NS`]: how much slower than
    /// nominal the host ran over the probed period. 1 without probes.
    pub fn slowdown(&self) -> f64 {
        if self.probe_ns.is_empty() {
            1.0
        } else {
            crate::stats::mean(&self.probe_ns) / NOMINAL_PROBE_NS
        }
    }
}

/// Fixed mix of independent random loads, stores and float work over the
/// buffer. Four independent streams keep several operations in flight, as
/// the simulator's own loops do; a single dependent chain tracked the
/// simulator's speed swings markedly worse.
fn kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let mut x = [1u64, 2, 3, 4];
    let mut acc = [0.0f64; 4];
    for _ in 0..STEPS / 4 {
        for (j, (x, acc)) in x.iter_mut().zip(&mut acc).enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407 + j as u64);
            let i = (*x >> 20) as usize & mask;
            buf[i] = buf[i].wrapping_add(*x);
            *acc += (buf[i] >> 11) as f64 * 1e-9;
        }
    }
    x.iter().fold(0, |h, v| h ^ v) ^ acc.iter().sum::<f64>().to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_mean_probe_over_nominal() {
        let mut c = HostClock::default();
        assert_eq!(c.slowdown(), 1.0);
        c.probe_ns = vec![80_000.0; 19];
        c.probe_ns.push(240_000.0);
        assert!((c.slowdown() - 1.1).abs() < 1e-12);
        c.probe();
        assert_eq!(c.probe_ns.len(), 21);
        assert!(c.spent() > Duration::ZERO);
    }
}
