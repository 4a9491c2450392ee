//! `offload`: a closed loop with one client over the twelve Fig. 4 jobs.
//!
//! Each cycle runs six apps × {CUDA, OMPi} in a seed-permuted order at
//! fig4's default `Sampled { max_blocks: 4 }` mode with launch sampling
//! on. A job is a fresh `Runner`, `App::setup`, the guest `run`,
//! `App::outputs` and the output check. Set-up compiles all twelve
//! programs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ompi_nano::cudadev::DevClock;
use ompi_nano::gpusim::ExecMode;
use ompi_nano::ompi_core::{
    CompiledApp, CompiledCudaApp, CudaCc, ResolvedConfig, Runner, RunnerConfig,
};
use ompi_nano::unibench::{self, App};

use crate::report::{closed_loop_stats, peak_rss_mb, report_closed_loop, reset_peak_rss, Report};
use crate::trace::{compile_omp_traced, traced_runner, Recorder};
use crate::{expected, median_setup, Opts, Rng};

/// Problem size per app: large enough that device work dominates a job.
pub const SIZES: [(&str, u32); 6] = [
    ("3dconv", 128),
    ("bicg", 2048),
    ("atax", 2048),
    ("mvt", 2048),
    ("gemm", 1024),
    ("gramschmidt", 256),
];

/// fig4's default grid simulation mode.
pub const MODE: ExecMode = ExecMode::Sampled { max_blocks: 4 };

/// One of the twelve job kinds.
pub struct Kind {
    pub app: App,
    pub n: u32,
    pub omp: bool,
}

impl Kind {
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name, if self.omp { "ompi" } else { "cuda" })
    }

    /// gramschmidt/OMPi combines a float reduction in OS-thread order, so
    /// its output bits vary run to run (see NOTES.md).
    pub fn checksum_varies(&self) -> bool {
        self.omp && self.app.name == "gramschmidt"
    }

    /// fig4's runner configuration for this kind.
    pub fn config(&self, work: &Path, obs: &Arc<obs::Obs>) -> RunnerConfig {
        let mut cfg = unibench::runner_config((self.app.footprint)(self.n), MODE, true);
        cfg.jit_cache_dir = work.join("jit");
        cfg.obs = Some(obs.clone());
        cfg
    }
}

/// The twelve kinds in a fixed order: per app, CUDA then OMPi.
pub fn kinds() -> Vec<Kind> {
    let mut v = Vec::new();
    for (name, n) in SIZES {
        for omp in [false, true] {
            let app = unibench::app_by_name(name).expect("Fig. 4 app");
            v.push(Kind { app, n, omp });
        }
    }
    v
}

pub enum Program {
    Omp(CompiledApp),
    Cuda(CompiledCudaApp),
}

/// Compile one kind into `work`; with a recorder, stage by stage.
pub fn compile(k: &Kind, work: &Path, rec: Option<&Recorder>) -> Result<Program, String> {
    let dir = work.join(format!("{}-{}", k.app.name, if k.omp { "omp" } else { "cuda" }));
    match (k.omp, rec) {
        (true, None) => Ok(Program::Omp(unibench::compile_omp(&k.app, work))),
        (true, Some(rec)) => {
            compile_omp_traced(k.app.omp_src, &dir, "", ompi_nano::BinMode::Cubin, rec)
                .map(Program::Omp)
        }
        (false, None) => Ok(Program::Cuda(unibench::compile_cuda(&k.app, work))),
        (false, Some(rec)) => {
            let name = format!("{}_cuda", k.app.name);
            let cc = CudaCc::new(dir);
            rec.time("cudacc", || cc.compile(k.app.cuda_src, &name))
                .map(Program::Cuda)
                .map_err(|e| e.to_string())
        }
    }
}

/// What one job produced.
pub struct JobOut {
    pub checksum: u64,
    pub clock: DevClock,
}

fn span<T>(rec: Option<&Recorder>, op: &str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(op, f),
        None => f(),
    }
}

/// Run one job. With `traced`, the job's device sits behind the tracing
/// wrapper and its runner, inputs and call are timed. Only OMPi jobs can
/// be traced: no public constructor takes a registry for a CUDA app.
pub fn run_job(
    k: &Kind,
    p: &Program,
    cfg: &RunnerConfig,
    traced: Option<(&ResolvedConfig, &Arc<Recorder>)>,
) -> Result<JobOut, String> {
    let rec = traced.map(|(_, r)| &**r);
    let runner = span(rec, "runner_new", || match (p, traced) {
        (Program::Omp(a), Some((rc, rec))) => traced_runner(a, rc, rec),
        (Program::Omp(a), None) => Runner::new(a, cfg).map_err(|e| e.to_string()),
        (Program::Cuda(a), None) => Runner::new_cuda(a, cfg).map_err(|e| e.to_string()),
        (Program::Cuda(_), Some(_)) => Err("a CUDA job cannot be traced".to_string()),
    })?;
    runner.registry().reset_clocks();
    let m = &runner.machine;
    let args = span(rec, "inputs", || (k.app.setup)(m, k.n)).map_err(|e| e.to_string())?;
    if let Some(r) = rec {
        r.take_device_ns();
    }
    let t0 = Instant::now();
    let ran = runner.call("run", &args);
    if let Some(r) = rec {
        let call_ns = t0.elapsed().as_nanos() as u64;
        r.record("call", call_ns);
        let dev_ns = r.take_device_ns();
        r.record("call_device", dev_ns);
        r.record(&format!("call.{}", k.app.name), call_ns);
        r.record(&format!("call_device.{}", k.app.name), dev_ns);
    }
    ran.map_err(|e| e.to_string())?;
    let out = span(rec, "inputs", || (k.app.outputs)(m, &args, k.n)).map_err(|e| e.to_string())?;
    let clock = runner.registry().aggregate_clock();
    let checksum = unibench::output_checksum(&out);
    Ok(JobOut { checksum, clock })
}

fn same_clock(a: &DevClock, b: &DevClock) -> bool {
    a.offload_s() == b.offload_s()
        && a.kernel_s == b.kernel_s
        && a.memcpy_s() == b.memcpy_s()
        && a.launches == b.launches
}

/// Output checks: recorded checksums and simulated clocks, and bit-exact
/// repetition of each kind's clock within the run. Sampled mode executes
/// only some blocks of each grid, so the outputs are fingerprints of the
/// sampled work, not full results a reference could check.
#[derive(Default)]
pub struct Checker {
    /// Each kind's first clock and checksum this run.
    first: BTreeMap<String, (DevClock, u64)>,
    /// Distinct gramschmidt/OMPi checksums seen this run.
    pub gs_variants: BTreeSet<u64>,
}

impl Checker {
    /// `Err` describes a wrong output.
    pub fn check(&mut self, k: &Kind, j: &JobOut) -> Result<(), String> {
        let label = k.label();
        let (first, _) = self.first.entry(label.clone()).or_insert((j.clock, j.checksum));
        if !same_clock(first, &j.clock) {
            return Err(format!("{label}: simulated clock did not repeat within the run"));
        }
        if k.checksum_varies() {
            self.gs_variants.insert(j.checksum);
        }
        let want = expected::offload(&label).ok_or_else(|| format!("{label}: nothing recorded"))?;
        let got = (j.clock.offload_s(), j.clock.kernel_s, j.clock.memcpy_s(), j.clock.launches);
        if got != (want.offload_s, want.kernel_s, want.memcpy_s, want.launches) {
            return Err(format!("{label}: simulated clock {got:?} differs from the recorded one"));
        }
        if !k.checksum_varies() && Some(j.checksum) != want.checksum {
            return Err(format!(
                "{label}: checksum {:#018x} differs from the recorded one",
                j.checksum
            ));
        }
        Ok(())
    }

    /// Fig. 4's result: geometric mean over the apps of the simulated
    /// offload seconds, OMPi ÷ CUDA.
    pub fn ompi_over_cuda(&self) -> f64 {
        let mut logs = Vec::new();
        for (name, _) in SIZES {
            let c = self.first.get(&format!("{name}/cuda")).map(|f| f.0);
            let o = self.first.get(&format!("{name}/ompi")).map(|f| f.0);
            if let (Some(c), Some(o)) = (c, o) {
                logs.push((o.offload_s() / c.offload_s()).ln());
            }
        }
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// Simulated kernel seconds, memcpy seconds and launches of one cycle.
    pub fn cycle_clock(&self) -> (f64, f64, u64) {
        self.first.values().fold((0.0, 0.0, 0), |(k, m, l), (c, _)| {
            (k + c.kernel_s, m + c.memcpy_s(), l + c.launches)
        })
    }
}

/// One closed-loop phase: whole cycles until `phase` has elapsed.
struct Phase {
    jobs: u64,
    wall_s: f64,
    /// Job latencies by kind.
    lat_ms: Vec<Vec<f64>>,
    /// Peak RSS of each cycle, MiB.
    cycle_rss_mb: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    kinds: &[Kind],
    progs: &[Program],
    cfgs: &[RunnerConfig],
    traced: Option<(&[ResolvedConfig], &Arc<Recorder>)>,
    o: &Opts,
    rng: &mut Rng,
    chk: &mut Checker,
    rep: &mut Report,
) -> Phase {
    let mut ph = Phase {
        jobs: 0,
        wall_s: 0.0,
        lat_ms: vec![Vec::new(); kinds.len()],
        cycle_rss_mb: Vec::new(),
    };
    let start = Instant::now();
    loop {
        reset_peak_rss();
        for i in rng.permutation(kinds.len()) {
            let k = &kinds[i];
            rep.attempted += 1;
            let t0 = Instant::now();
            let traced = traced.filter(|_| k.omp).map(|(rcs, rec)| (&rcs[i], rec));
            match run_job(k, &progs[i], &cfgs[i], traced) {
                Err(e) => rep.fail(format!("{}: {e}", k.label())),
                Ok(j) => {
                    if let Err(e) = chk.check(k, &j) {
                        rep.fail(e);
                    }
                }
            }
            ph.lat_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            ph.jobs += 1;
        }
        ph.cycle_rss_mb.push(peak_rss_mb());
        if start.elapsed() >= o.phase() {
            break;
        }
    }
    ph.wall_s = start.elapsed().as_secs_f64();
    ph
}

pub fn run(o: &Opts, rep: &mut Report) {
    let kinds = kinds();
    let work = o.work.join("offload");
    let obs = obs::Obs::disabled();
    let cfgs: Vec<RunnerConfig> = kinds.iter().map(|k| k.config(&work, &obs)).collect();

    let (progs, setup_s, reps) = median_setup(|| {
        kinds.iter().map(|k| compile(k, &work, None)).collect::<Result<Vec<_>, _>>()
    });
    let progs = progs.unwrap_or_else(|e| panic!("offload set-up: {e}"));
    rep.e2e("setup_s", setup_s, reps);

    let mut rng = Rng::new(o.seed);
    let mut chk = Checker::default();
    let ph = closed_loop(&kinds, &progs, &cfgs, None, o, &mut rng, &mut chk, rep);
    let jps = report_closed_loop(rep, "offload", &ph.lat_ms, &ph.cycle_rss_mb, ph.wall_s);

    if o.trace {
        // Compile once more, stage by stage, for the frontend spans.
        let compile_rec = Recorder::default();
        let traced_progs = kinds
            .iter()
            .map(|k| compile(k, &work.join("traced"), Some(&compile_rec)))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| panic!("offload traced compile: {e}"));
        let rcs: Vec<ResolvedConfig> = cfgs
            .iter()
            .map(|c| ResolvedConfig::resolve(c).unwrap_or_else(|e| panic!("config: {e}")))
            .collect();
        let rec = Arc::new(Recorder::default());
        let insns0 = vm_counters(&obs);
        let tph = closed_loop(
            &kinds,
            &traced_progs,
            &cfgs,
            Some((&rcs, &rec)),
            o,
            &mut rng,
            &mut chk,
            rep,
        );
        let insns = vm_counters(&obs).iter().zip(&insns0).map(|(a, b)| a - b).collect::<Vec<_>>();
        crate::hostseq::report_compile(rep, &compile_rec);
        report_device_layers(rep, &rec);
        crate::hostseq::report_vm(rep, &insns, tph.jobs, None);
        for (name, _) in SIZES {
            let call = rec.stat(&format!("call.{name}"));
            let dev = rec.stat(&format!("call_device.{name}"));
            let share = dev.total_ns as f64 / call.total_ns.max(1) as f64;
            let rest_ms = (call.total_ns - dev.total_ns.min(call.total_ns)) as f64 / 1e6;
            rep.layer(&format!("call.{name}.devmod_share"), share, call.count);
            rep.layer(
                &format!("call.{name}.unattributed_ms"),
                rest_ms / call.count.max(1) as f64,
                call.count,
            );
        }
        let tjps = closed_loop_stats(&tph.lat_ms).0;
        rep.layer("bench.trace_overhead_pct", (jps - tjps) / jps * 100.0, tph.jobs);
    }

    let (kernel_s, memcpy_s, launches) = chk.cycle_clock();
    rep.layer("sim.kernel_s", kernel_s, kinds.len() as u64);
    rep.layer("sim.memcpy_s", memcpy_s, kinds.len() as u64);
    rep.layer("sim.launches", launches as f64, kinds.len() as u64);
    rep.layer("sim.ompi_over_cuda", chk.ompi_over_cuda(), SIZES.len() as u64);
    rep.note(format!("offload: sim_ompi_over_cuda = {} ratio (n=6 apps)", chk.ompi_over_cuda()));
    let variants = chk.gs_variants.len();
    rep.layer("gramschmidt_ompi.checksum_variants", variants as f64, variants as u64);
    rep.note(format!(
        "offload: gramschmidt_ompi.checksum_variants = {variants} (known defect, outside error_rate)"
    ));
}

/// The VM counters `Runner::call` drains into the shared sink (host pid 1
/// for every single-device runner): instructions, then the dispatch
/// categories.
pub fn vm_counters(obs: &obs::Obs) -> Vec<u64> {
    let mut v = vec![obs.metrics.counter(1, "vm.instructions")];
    for cat in ompi_nano::minic::bytecode::OP_CATS {
        v.push(obs.metrics.counter(1, &format!("vm.dispatch.{cat}")));
    }
    v
}

/// Runner, data-environment and launch metrics from a job recorder, per
/// traced job.
pub fn report_device_layers(rep: &mut Report, rec: &Recorder) {
    let jobs = rec.stat("call").count;
    let per_job = |ns: u64, scale: f64| ns as f64 / scale / jobs.max(1) as f64;
    let new = rec.stat("runner_new");
    rep.layer("core.runner_new_us", per_job(new.total_ns, 1e3), new.count);
    let call = rec.stat("call");
    let dev = rec.stat("call_device");
    rep.layer("core.call_ms", per_job(call.total_ns, 1e6), call.count);
    rep.layer(
        "core.call_self_ms",
        per_job(call.total_ns.saturating_sub(dev.total_ns), 1e6),
        call.count,
    );
    let inputs = rec.stat("inputs");
    rep.layer("vmcommon.inputs_ms", per_job(inputs.total_ns, 1e6), inputs.count);
    let init = rec.stat("init");
    rep.layer("cudadev.init_ms", init.total_ns as f64 / 1e6 / init.count.max(1) as f64, init.count);
    let load = rec.stat("load_module");
    rep.layer("cudadev.load_module.count", load.count as f64 / jobs.max(1) as f64, load.count);
    rep.layer("cudadev.load_module_us", per_job(load.total_ns, 1e3), load.count);
    for op in ["map", "unmap", "update"] {
        let s = rec.stat(op);
        rep.layer(&format!("cudadev.{op}.count"), s.count as f64 / jobs.max(1) as f64, s.count);
        rep.layer(&format!("cudadev.{op}_us"), per_job(s.total_ns, 1e3), s.count);
        rep.layer(&format!("cudadev.{op}.p50_us"), s.p50_ns() / 1e3, s.count);
    }
    let other = rec.stat("other");
    let pressured = rec.stat("pressured");
    rep.layer("cudadev.other_us", per_job(other.total_ns + pressured.total_ns, 1e3), other.count);
    let launch = rec.stat("launch");
    rep.layer("cudadev.launches", launch.count as f64 / jobs.max(1) as f64, launch.count);
    rep.layer("cudadev.launch_ms", per_job(launch.total_ns, 1e6), launch.count);
    rep.layer("cudadev.launch.p50_ms", launch.p50_ns() / 1e6, launch.count);
    let blocks = rec.blocks_executed();
    rep.layer("gpusim.blocks_executed", blocks as f64 / jobs.max(1) as f64, blocks);
    rep.layer(
        "gpusim.launch_us_per_block",
        launch.total_ns as f64 / 1e3 / blocks.max(1) as f64,
        blocks,
    );
}
