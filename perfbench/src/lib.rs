//! `perfbench` — the repository's benchmark: three workloads driven from
//! outside the system through its public API, timed end to end and,
//! in a separate traced run, layer by layer.
//!
//! * [`offload`] — closed loop over the twelve Fig. 4 jobs (six apps ×
//!   {CUDA, OMPi}): device-heavy, dominated by gpusim block execution.
//! * [`hostseq`] — closed loop over the six apps' untranslated sources on
//!   the bytecode VM: VM dispatch only, no device layer.
//! * [`serve_load`] — open loop: seeded Poisson arrivals into a
//!   `serve::Server` with two devices and three tenants.
//!
//! See `NOTES.md` for the metric definitions and the known defect the
//! benchmark reports instead of hiding.

pub mod expected;
pub mod hostseq;
pub mod offload;
pub mod report;
pub mod serve_load;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for compiled kernels and JIT caches.
    pub work: PathBuf,
    /// Repository root (for the committed fig4 baseline).
    pub root: PathBuf,
}

impl Opts {
    /// The measured phase of a traced run is split into an untraced and a
    /// traced half, so the trace overhead is measured within one run.
    pub fn phase(&self) -> Duration {
        let s = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Duration::from_secs_f64(s)
    }
}

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the system's PRNG changes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x853c_49e6_748f_ea9b)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Batches [`median_setup`] times; the set-up time is the median over them.
const SETUP_BATCHES: usize = 9;
/// The least wall time of one batch: a single set-up takes 10–40 ms, too
/// short to time steadily on its own on a shared machine.
const SETUP_BATCH: Duration = Duration::from_millis(300);

/// Set-up seconds, timed steadily: the set-up runs in [`SETUP_BATCHES`]
/// batches, each repeating it until [`SETUP_BATCH`] has passed, and the
/// result is the median over the batches of the mean seconds per set-up.
/// Returns the last repetition's product, the seconds and the number of
/// repetitions.
pub fn median_setup<T>(mut f: impl FnMut() -> T) -> (T, f64, u64) {
    let mut per_batch = Vec::with_capacity(SETUP_BATCHES);
    let mut last = None;
    let mut reps = 0u64;
    for _ in 0..SETUP_BATCHES {
        let mut n = 0u32;
        let mut spent = Duration::ZERO;
        while n == 0 || spent < SETUP_BATCH {
            // Drop the previous product first (untimed) so repetitions
            // start equal.
            drop(last.take());
            let t0 = std::time::Instant::now();
            let out = f();
            spent += t0.elapsed();
            last = Some(out);
            n += 1;
        }
        per_batch.push(spent.as_secs_f64() / f64::from(n));
        reps += u64::from(n);
    }
    (last.expect("at least one set-up repetition"), report::median(&per_batch), reps)
}
