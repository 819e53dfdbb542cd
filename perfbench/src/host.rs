//! The host's speed during a run, so that the end-to-end timings are
//! reported at one reference speed.
//!
//! On a shared virtual machine the same code runs up to about 1.8 times
//! slower for minutes at a time, while other tenants load the machine's
//! caches and memory. Every query slows together, so a run that falls in
//! such a stretch reads 30–80% slower than one that does not, and medians
//! within a run cannot remove that. The benchmark therefore times a fixed
//! reference kernel between the workload's operations: sorting 2 MiB of
//! random keys, whose time moved with the queries' on that host (see
//! README.md). It calls no engine code, so no engine change can move it.
//! The host factor is the kernel's median time over [`REF_KERNEL_MS`];
//! end-to-end times are divided by it and rates multiplied by it (see
//! `Report::at_reference_speed`).

use std::hint::black_box;
use std::time::Instant;

use cstore_common::testutil::Rng;

use crate::report::median;

/// The kernel's median time on the reference host (a 2-vCPU Intel Xeon
/// virtual machine, in its faster state). A factor of 1.0 means the host
/// ran at that speed.
pub const REF_KERNEL_MS: f64 = 6.0;

/// Keys sorted per kernel run: 2 MiB, one core's L2.
const KEYS: usize = 1 << 18;

pub struct HostSpeed {
    unsorted: Vec<u64>,
    scratch: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new(seed: u64) -> HostSpeed {
        let mut rng = Rng::new(seed ^ 0x0057_5EED);
        HostSpeed {
            unsorted: (0..KEYS).map(|_| rng.next_u64()).collect(),
            scratch: Vec::with_capacity(KEYS),
            samples_ms: Vec::new(),
        }
    }

    /// Run the kernel once and keep its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.unsorted);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// How many times slower than the reference host this run's host was:
    /// the kernel's median time over [`REF_KERNEL_MS`].
    pub fn factor(&self) -> f64 {
        median(&self.samples_ms) / REF_KERNEL_MS
    }
}
