//! What every workload shares: the run context, the check ledger, the
//! seeded generator and the metric/outcome types.

use crate::oracle::{Check, Failed};
use crate::stats::Tally;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's context: its inputs and the ledgers it fills.
pub struct Ctx {
    /// Workload name (for messages).
    pub workload: &'static str,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Spans (recorded only in the traced run).
    pub tracer: Tracer,
    /// Correctness checks.
    pub checks: Checks,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics by name (traced run only; unset ones read 0).
    pub layers: Vec<(&'static str, f64)>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

impl Ctx {
    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Deadline of the measured phase, counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric (overrides the 0 default).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// A harness failure (stall, refused connection) naming the phase.
    pub fn stalled(&self, phase: &str, e: impl std::fmt::Display) -> String {
        format!("workload {}, phase {phase}: {e}", self.workload)
    }
}

/// The check ledger: counts checks and keeps the first failure.
#[derive(Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// First failed check, if any.
    pub failed: Option<Failed>,
    /// When set, the next answer passed through [`Checks::answer`] is
    /// made wrong (`--inject-wrong-answer`).
    pub corrupt_next: bool,
}

impl Checks {
    /// Records one check's result.
    pub fn check(&mut self, r: Check) {
        self.run += 1;
        if let Err(f) = r {
            self.failed.get_or_insert(f);
        }
    }

    /// Passes an answer to a check that compares it with a reference,
    /// making it 25 % + 1 unit wrong, once, when a wrong answer was
    /// requested.
    pub fn answer(&mut self, v: f64) -> f64 {
        if self.corrupt_next {
            self.corrupt_next = false;
            1.25 * v + 1.0
        } else {
            v
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    fpsping_serve::rss_peak_mib().unwrap_or(f64::NAN)
}
