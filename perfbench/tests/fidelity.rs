//! The tracing wrapper must not change what it measures: a job run with
//! its device behind `TracedDev` gives the same simulated clock, launch
//! count, output checksum and memory-governor decisions as the same job
//! run through `Runner::new`. gramschmidt/OMPi's checksum is exempt: its
//! float reduction is combined in OS-thread order (see NOTES.md).

use std::path::PathBuf;
use std::sync::Arc;

use ompi_nano::gpusim::ExecMode;
use ompi_nano::ompi_core::{ResolvedConfig, RunnerConfig};
use ompi_nano::unibench;
use perfbench::offload::{self, run_job, Kind};
use perfbench::trace::Recorder;

/// What one run of a job showed: checksum, (offload_s, kernel_s,
/// memcpy_s, launches), and device 0's memory-pressure counters.
type Seen = (u64, (f64, f64, f64, u64), Vec<(String, u64)>);

fn config(k: &Kind, mode: ExecMode, sampling: bool, cap: Option<usize>) -> RunnerConfig {
    let mut cfg = unibench::runner_config((k.app.footprint)(k.n), mode, sampling);
    cfg.jit_cache_dir = work("jit");
    cfg.obs = Some(obs::Obs::disabled());
    if cap.is_some() {
        cfg.device_mem = cap;
    }
    cfg
}

fn work(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fidelity-{tag}"))
}

fn seen(cfg: &RunnerConfig, j: &offload::JobOut) -> Seen {
    let obs = cfg.obs.as_ref().expect("explicit sink");
    let pressure = obs
        .metrics
        .counters_for(0)
        .into_iter()
        .filter(|(name, _)| name.starts_with("pressure."))
        .collect();
    let c = &j.clock;
    (j.checksum, (c.offload_s(), c.kernel_s, c.memcpy_s(), c.launches), pressure)
}

/// Run `k` plain and traced with fresh sinks; returns both observations
/// and the traced run's recorder.
fn pair(
    k: &Kind,
    mode: ExecMode,
    sampling: bool,
    cap: Option<usize>,
) -> (Seen, Seen, Arc<Recorder>) {
    let p = offload::compile(k, &work(k.app.name), None).expect("compile");
    let plain_cfg = config(k, mode, sampling, cap);
    let plain = run_job(k, &p, &plain_cfg, None).expect("plain run");
    let traced_cfg = config(k, mode, sampling, cap);
    let rc = ResolvedConfig::resolve(&traced_cfg).expect("config");
    let rec = Arc::new(Recorder::default());
    let traced = run_job(k, &p, &traced_cfg, Some((&rc, &rec))).expect("traced run");
    (seen(&plain_cfg, &plain), seen(&traced_cfg, &traced), rec)
}

fn assert_same(k: &Kind, plain: &Seen, traced: &Seen) {
    assert_eq!(plain.1, traced.1, "{}: simulated clock and launches", k.label());
    assert_eq!(plain.2, traced.2, "{}: memory-governor decisions", k.label());
    if !k.checksum_varies() {
        assert_eq!(plain.0, traced.0, "{}: output checksum", k.label());
    }
}

#[test]
fn traced_offload_jobs_match_untraced_ones() {
    for k in offload::kinds().iter().filter(|k| k.omp) {
        let (plain, traced, rec) = pair(k, offload::MODE, true, None);
        assert_same(k, &plain, &traced);
        assert!(rec.stat("launch").count > 0, "{}: launches went through the wrapper", k.label());
    }
}

/// With the device arena capped below each app's footprint the governor
/// maps buffers pending and tiles or declines regions. That only works if
/// the wrapper forwards the trait's default methods (`has_pending_maps`,
/// `offload_pressured`, `refresh_args`, `mem_pressure`, ...) instead of
/// inheriting the defaults.
#[test]
fn traced_jobs_under_memory_pressure_match_untraced_ones() {
    let mut pressured = 0;
    for app in unibench::all_apps() {
        let n = app.test_size;
        let cap = ((app.footprint)(n) / 2) as usize;
        let k = Kind { app, n, omp: true };
        let (plain, traced, rec) = pair(&k, ExecMode::Functional, false, Some(cap));
        assert!(!plain.2.is_empty(), "{}: the cap must cause memory pressure", k.label());
        assert_same(&k, &plain, &traced);
        pressured += rec.stat("pressured").count;
    }
    assert!(pressured > 0, "no region reached offload_pressured through the wrapper");
}
