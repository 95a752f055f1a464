//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose CPU speed swings by
//! about 40% for seconds to tens of seconds at a time as neighbours load
//! the physical cores. A run that lands in a slow phase would otherwise
//! read as a regression. Every thread that times work therefore re-times a
//! fixed calibration kernel every 50 ms, in line, and scales each measured
//! duration by `KERNEL_REF_NS / kernel_ns`: times are reported at the
//! reference host speed, at which the kernel takes `KERNEL_REF_NS` (its
//! uncontended time on a 2-vCPU Sapphire Rapids KVM guest). The kernel
//! runs between timed operations and is never part of a measurement.

use std::time::{Duration, Instant};

/// Kernel time at the reference host speed.
const KERNEL_REF_NS: f64 = 85_000.0;

const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Probes whose median sets the current scale.
const WINDOW: usize = 5;

#[derive(Debug)]
pub struct Calibrator {
    last_probe: Instant,
    recent: Vec<u64>,
    next: usize,
    scale: f64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            last_probe: Instant::now(),
            recent: Vec::with_capacity(WINDOW),
            next: 0,
            scale: 1.0,
        };
        c.probe();
        c
    }

    /// Re-times the kernel when the last probe is older than 50 ms. Call
    /// it between timed operations.
    pub fn tick(&mut self) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe();
        }
    }

    fn probe(&mut self) {
        let ns = (0..3).map(|_| kernel()).min().expect("three samples");
        if self.recent.len() < WINDOW {
            self.recent.push(ns);
        } else {
            self.recent[self.next] = ns;
        }
        self.next = (self.next + 1) % WINDOW;
        let mut sorted = self.recent.clone();
        sorted.sort_unstable();
        self.scale = KERNEL_REF_NS / sorted[sorted.len() / 2] as f64;
        self.last_probe = Instant::now();
    }

    /// A measured duration at the reference host speed, in ns.
    pub fn ns(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() as f64 * self.scale) as u64
    }
}

/// Fixed work: a few rounds of mixing and sorting 2,048 words, a blend of
/// arithmetic, branches and cache traffic like the checker's own.
fn kernel() -> u64 {
    let start = Instant::now();
    let mut v: Vec<u64> = (0..2048u64).collect();
    for round in 0..3 {
        for i in 0..v.len() {
            let j = (i * 7 + round) % v.len();
            v[i] = v[i].wrapping_mul(6364136223846793005).wrapping_add(v[j]);
        }
        v.sort_unstable();
    }
    std::hint::black_box(&v);
    start.elapsed().as_nanos() as u64
}
