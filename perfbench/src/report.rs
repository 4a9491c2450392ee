//! Metric names, units, statistics and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric contract;
//! `tests/contract.rs` checks that `BENCHMARK.json` lists exactly these.
//! Every run prints every metric of its kind: a layer a workload does not
//! exercise reports 0.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end tail latency, too noisy across seeds on a shared VM for a
    // bound (see NOTES.md); measured in the untraced phase.
    ("job_p99_ms", "ms"),
    // minic frontend and bytecode compiler
    ("minic.parse_ms", "ms"),
    ("minic.sema_ms", "ms"),
    ("minic.bytecode_compile_us", "us"),
    // core translator and the CUDA-dialect compiler
    ("core.translate_ms", "ms"),
    ("core.cudacc_ms", "ms"),
    // nvccsim
    ("nvccsim.compile_ms", "ms"),
    ("nvccsim.kernels", "count"),
    // minic VM (per job)
    ("minic.vm_instructions", "count"),
    ("minic.vm_ns_per_instr", "ns"),
    ("minic.dispatch.mem", "count"),
    ("minic.dispatch.idx", "count"),
    ("minic.dispatch.alu", "count"),
    ("minic.dispatch.ctrl", "count"),
    ("minic.dispatch.call", "count"),
    ("minic.dispatch.misc", "count"),
    // core runner (per job)
    ("core.runner_new_us", "us"),
    ("core.call_ms", "ms"),
    ("core.call_self_ms", "ms"),
    // vmcommon guest memory (per job)
    ("vmcommon.inputs_ms", "ms"),
    // devmod/cudadev data environment (per job unless noted)
    ("cudadev.init_ms", "ms"),
    ("cudadev.load_module.count", "count"),
    ("cudadev.load_module_us", "us"),
    ("cudadev.map.count", "count"),
    ("cudadev.map_us", "us"),
    ("cudadev.map.p50_us", "us"),
    ("cudadev.unmap.count", "count"),
    ("cudadev.unmap_us", "us"),
    ("cudadev.unmap.p50_us", "us"),
    ("cudadev.update.count", "count"),
    ("cudadev.update_us", "us"),
    ("cudadev.update.p50_us", "us"),
    ("cudadev.other_us", "us"),
    // cudadev + gpusim launch (per job)
    ("cudadev.launches", "count"),
    ("cudadev.launch_ms", "ms"),
    ("cudadev.launch.p50_ms", "ms"),
    ("gpusim.blocks_executed", "count"),
    ("gpusim.launch_us_per_block", "us"),
    // Runner::call coverage per OMPi offload app
    ("call.3dconv.devmod_share", "fraction"),
    ("call.3dconv.unattributed_ms", "ms"),
    ("call.bicg.devmod_share", "fraction"),
    ("call.bicg.unattributed_ms", "ms"),
    ("call.atax.devmod_share", "fraction"),
    ("call.atax.unattributed_ms", "ms"),
    ("call.mvt.devmod_share", "fraction"),
    ("call.mvt.unattributed_ms", "ms"),
    ("call.gemm.devmod_share", "fraction"),
    ("call.gemm.unattributed_ms", "ms"),
    ("call.gramschmidt.devmod_share", "fraction"),
    ("call.gramschmidt.unattributed_ms", "ms"),
    // serve
    ("serve.submit.p50_us", "us"),
    ("serve.submit.p99_us", "us"),
    ("serve.service.p50_ms", "ms"),
    ("serve.service.p99_ms", "ms"),
    ("serve.affinity_hit_ratio", "fraction"),
    ("serve.rejected", "count"),
    // simulated clock (per cycle of the 12 offload jobs)
    ("sim.kernel_s", "s"),
    ("sim.memcpy_s", "s"),
    ("sim.launches", "count"),
    ("sim.ompi_over_cuda", "ratio"),
    // known defect, kept out of the failure count
    ("gramschmidt_ompi.checksum_variants", "count"),
    // the benchmark itself
    ("bench.gen_late.p99_ms", "ms"),
    ("bench.gen_late.max_ms", "ms"),
    ("bench.backlog_jobs", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Closed-loop statistics from per-kind job latencies (ms), robust to
/// the bursts of a shared machine: `(jobs_per_s, p50_ms, p99_ms)` where
/// the rate is that of one cycle of median jobs and the percentiles are
/// geometric means over the kinds of each kind's percentile, so every
/// kind weighs the same however long it runs.
pub fn closed_loop_stats(by_kind: &[Vec<f64>]) -> (f64, f64, f64) {
    let meds: Vec<f64> = by_kind.iter().map(|xs| median(xs)).collect();
    let p99s: Vec<f64> = by_kind.iter().map(|xs| percentile(xs, 99.0)).collect();
    (by_kind.len() as f64 * 1e3 / meds.iter().sum::<f64>(), geomean(&meds), geomean(&p99s))
}

/// Record a closed loop's end-to-end rate and latencies (see
/// [`closed_loop_stats`]) and its peak RSS, the median over cycles of
/// each cycle's peak, and note the raw figures beside them; returns the
/// rate. A run's overall peak depends on the order of its jobs (the
/// allocator keeps freed heap for reuse), so it differs from seed to seed;
/// the per-cycle median does not.
pub fn report_closed_loop(
    rep: &mut Report,
    workload: &str,
    by_kind: &[Vec<f64>],
    cycle_rss_mb: &[f64],
    wall_s: f64,
) -> f64 {
    let (jps, p50, p99) = closed_loop_stats(by_kind);
    let all: Vec<f64> = by_kind.concat();
    let jobs = all.len() as u64;
    rep.e2e("jobs_per_s", jps, jobs);
    rep.e2e("job_p50_ms", p50, jobs);
    rep.e2e("peak_rss_mb", median(cycle_rss_mb), cycle_rss_mb.len() as u64);
    rep.layer("job_p99_ms", p99, jobs);
    rep.note(format!(
        "{workload}: closed loop, {jobs} jobs of {} kinds in {wall_s:.3}s = {:.4} jobs/s raw; \
         pooled job latency p50 {:.3} ms, p99 {:.3} ms ({} samples beyond p99)",
        by_kind.len(),
        jobs as f64 / wall_s,
        median(&all),
        percentile(&all, 99.0),
        beyond(&all, 99.0)
    ));
    jps
}

/// The median over consecutive windows of `window` samples of each
/// window's `p` percentile (a trailing partial window is dropped unless
/// it is the only one).
pub fn windowed(xs: &[f64], window: usize, p: f64) -> f64 {
    let per: Vec<f64> = if xs.len() < 2 * window {
        vec![percentile(xs, p)]
    } else {
        xs.chunks_exact(window).map(|w| percentile(w, p)).collect()
    };
    median(&per)
}

/// How many samples lie strictly above the `p` percentile.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let q = percentile(xs, p);
    xs.iter().filter(|&&x| x > q).count()
}

/// Restart the kernel's peak-RSS counter (`VmHWM`) at the current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
/// Where the write is refused the counter keeps the whole run's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    pub attempted: u64,
    /// Typed job errors, admission rejections and failed output checks
    /// (wrong value, non-repeating simulated clock, VM instruction count
    /// off the baseline). A run is correct only when this stays 0.
    pub failed: u64,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the contract tables"))
}

impl Report {
    /// Record an end-to-end metric measured over `samples` samples.
    pub fn e2e(&mut self, name: &str, value: f64, samples: u64) {
        let (name, unit) = unit_of(END_TO_END, name);
        self.e2e.retain(|m| m.name != name);
        self.e2e.push(Metric { name, unit, value, samples });
    }

    /// Record a per-layer metric measured over `samples` samples.
    pub fn layer(&mut self, name: &str, value: f64, samples: u64) {
        let (name, unit) = unit_of(PER_LAYER, name);
        self.layers.retain(|m| m.name != name);
        self.layers.push(Metric { name, unit, value, samples });
    }

    /// A free-form line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A failed job, rejected submission or failed output check; any makes
    /// the run incorrect.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        let what = what.into();
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Human-readable lines (every metric recorded, with unit and sample
    /// count), then the one-line JSON result with exactly the metrics of
    /// the selected kind.
    pub fn render(&self, trace: bool) -> String {
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(
            out,
            "# error_rate = {rate} fraction ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in self.e2e.iter().chain(&self.layers) {
            let _ =
                writeln!(out, "# {} = {} {} (n={})", m.name, fmt_num(m.value), m.unit, m.samples);
        }
        let (table, recorded) =
            if trace { (PER_LAYER, &self.layers) } else { (END_TO_END, &self.e2e) };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = recorded.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

/// Shortest round-trip form of a finite number; non-finite values (which
/// JSON cannot carry) print as 0.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
