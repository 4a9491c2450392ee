//! `hostseq`: a closed loop with one client over the six apps'
//! untranslated OpenMP sources, run host-sequentially on the bytecode VM
//! at each app's `bench_size`. No translator and no device: this
//! workload is VM dispatch.
//!
//! Set-up builds one machine per app and warms it with a test-size run,
//! which compiles its bytecode image. Each job is one `run_host_once`.
//! Outputs are checked against `App::reference`, and checksums and VM
//! instruction counts against the host-seq rows of the committed fig4
//! baseline.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ompi_nano::minic;
use ompi_nano::minic::interp::{Interp, Machine, NoHooks};
use ompi_nano::unibench::{self, App};
use ompi_nano::vmcommon::{addr, Value};

use crate::report::{closed_loop_stats, peak_rss_mb, report_closed_loop, reset_peak_rss, Report};
use crate::trace::Recorder;
use crate::{median_setup, Opts, Rng};

/// The committed fig4 baseline the VM counts are held to.
pub const BASELINE: &str = "crates/bench/baseline/BENCH_fig4.json";

/// One host-seq row of the baseline.
#[derive(Clone, Copy, Debug)]
pub struct BaselineRow {
    pub n: u32,
    pub vm_instructions: u64,
    pub checksum: u64,
}

/// The host-seq rows of the fig4 baseline, by app.
pub fn baseline(root: &Path) -> Result<HashMap<String, BaselineRow>, String> {
    let path = root.join(BASELINE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = HashMap::new();
    for r in json.get("series").and_then(|s| s.as_array()).unwrap_or(&[]) {
        if r.get("variant").and_then(|v| v.as_str()) != Some("host-seq") {
            continue;
        }
        let field = |k: &str| r.get(k).ok_or_else(|| format!("{BASELINE}: row without `{k}`"));
        let app = field("app")?.as_str().unwrap_or_default().to_string();
        let hex = field("checksum")?.as_str().unwrap_or_default();
        let checksum = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("{BASELINE}: checksum `{hex}`: {e}"))?;
        rows.insert(
            app,
            BaselineRow {
                n: field("n")?.as_f64().unwrap_or_default() as u32,
                vm_instructions: field("vm_instructions")?.as_f64().unwrap_or_default() as u64,
                checksum,
            },
        );
    }
    Ok(rows)
}

/// A machine for `app`'s untranslated source sized for `n`, as
/// `unibench::host_machine` builds it; with a recorder, the frontend and
/// a side compile of the bytecode image are timed.
fn machine(app: &App, n: u32, rec: Option<&Recorder>) -> Result<Arc<Machine>, String> {
    let Some(rec) = rec else {
        return unibench::host_machine(app, n).map_err(|e| e.to_string());
    };
    let mut prog = rec.time("parse", || minic::parse(app.omp_src)).map_err(|e| e.to_string())?;
    let info = rec.time("sema", || minic::analyze(&mut prog)).map_err(|e| e.to_string())?;
    let mem = ((app.footprint)(n) + (96u64 << 20)) as usize;
    let m = Machine::new(prog, info, mem).map_err(|e| e.to_string())?;
    rec.time("bytecode", || std::hint::black_box(minic::compile::compile(&m)));
    Ok(m)
}

/// `unibench::run_host_once` with the input set-up and read-back timed
/// apart from the guest call.
fn run_traced(app: &App, m: &Arc<Machine>, n: u32, rec: &Recorder) -> Result<Vec<f32>, String> {
    let es = |e: minic::interp::InterpError| e.to_string();
    let args = rec.time("inputs", || (app.setup)(m, n)).map_err(es)?;
    let mut i = Interp::new(m.clone(), Arc::new(NoHooks)).map_err(es)?;
    let ran = rec.time("call", || i.call("run", &args));
    let out = ran.and_then(|_| rec.time("inputs", || (app.outputs)(m, &args, n)));
    for a in &args[1..] {
        if let Value::Ptr(p) = a {
            let _ = m.heap.lock().free(addr::offset(*p));
        }
    }
    out.map_err(es)
}

struct Phase {
    jobs: u64,
    wall_s: f64,
    /// Job latencies by kind.
    lat_ms: Vec<Vec<f64>>,
    /// Peak RSS of each cycle, MiB.
    cycle_rss_mb: Vec<f64>,
    /// Instructions, then the dispatch categories, summed over the jobs.
    vm: Vec<u64>,
}

/// One app of the workload: the app, its reference outputs and its
/// baseline row.
type Case = (App, Vec<f32>, BaselineRow);

fn closed_loop(
    cases: &[Case],
    machines: &[Arc<Machine>],
    o: &Opts,
    rng: &mut Rng,
    rec: Option<&Recorder>,
    rep: &mut Report,
) -> Phase {
    let mut ph = Phase {
        jobs: 0,
        wall_s: 0.0,
        lat_ms: vec![Vec::new(); cases.len()],
        cycle_rss_mb: Vec::new(),
        vm: vec![0; 7],
    };
    let start = Instant::now();
    loop {
        reset_peak_rss();
        for i in rng.permutation(cases.len()) {
            let (app, m) = (&cases[i].0, &machines[i]);
            let n = cases[i].2.n;
            rep.attempted += 1;
            let t0 = Instant::now();
            let out = match rec {
                Some(rec) => run_traced(app, m, n, rec),
                None => unibench::run_host_once(app, m, n).map_err(|e| e.to_string()),
            };
            let c = m.drain_vm_counters();
            let checked = out.map(|out| check(&cases[i], &out, c.instructions));
            ph.lat_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            ph.jobs += 1;
            ph.vm[0] += c.instructions;
            for (s, d) in ph.vm[1..].iter_mut().zip(c.dispatch) {
                *s += d;
            }
            match checked {
                Err(e) | Ok(Err(e)) => rep.fail(format!("{}: {e}", app.name)),
                Ok(Ok(())) => {}
            }
        }
        ph.cycle_rss_mb.push(peak_rss_mb());
        if start.elapsed() >= o.phase() {
            break;
        }
    }
    ph.wall_s = start.elapsed().as_secs_f64();
    ph
}

fn check((app, reference, want): &Case, out: &[f32], instructions: u64) -> Result<(), String> {
    if out.len() != reference.len() {
        return Err(format!("{} outputs, reference has {}", out.len(), reference.len()));
    }
    let err = unibench::max_rel_err(out, reference);
    if err > app.tolerance {
        return Err(format!("max rel err {err:e} against the reference"));
    }
    let sum = unibench::output_checksum(out);
    if sum != want.checksum {
        return Err(format!("checksum {sum:#018x}, baseline has {:#018x}", want.checksum));
    }
    if instructions != want.vm_instructions {
        return Err(format!(
            "{instructions} VM instructions, baseline has {}",
            want.vm_instructions
        ));
    }
    Ok(())
}

/// Set-up: one warmed machine per case.
fn build(cases: &[Case], rec: Option<&Recorder>) -> Result<Vec<Arc<Machine>>, String> {
    let mut machines = Vec::new();
    for (app, _, want) in cases {
        let m = machine(app, want.n, rec)?;
        // Warm-up at the test size: compiles the bytecode image.
        unibench::run_host_once(app, &m, app.test_size).map_err(|e| e.to_string())?;
        m.drain_vm_counters();
        machines.push(m);
    }
    Ok(machines)
}

pub fn run(o: &Opts, rep: &mut Report) {
    let base = baseline(&o.root).unwrap_or_else(|e| panic!("hostseq: {e}"));
    // References come first and stay out of the set-up time.
    let cases: Vec<Case> = unibench::all_apps()
        .into_iter()
        .map(|app| {
            let want = *base.get(app.name).unwrap_or_else(|| panic!("{BASELINE}: no {}", app.name));
            assert_eq!(want.n, app.bench_size, "{BASELINE}: {} host-seq size", app.name);
            let reference = (app.reference)(want.n);
            (app, reference, want)
        })
        .collect();

    let (machines, setup_s, reps) = median_setup(|| build(&cases, None));
    let machines = machines.unwrap_or_else(|e| panic!("hostseq set-up: {e}"));
    rep.e2e("setup_s", setup_s, reps);

    let mut rng = Rng::new(o.seed);
    let ph = closed_loop(&cases, &machines, o, &mut rng, None, rep);
    let jps = report_closed_loop(rep, "hostseq", &ph.lat_ms, &ph.cycle_rss_mb, ph.wall_s);

    if o.trace {
        drop(machines);
        let rec = Recorder::default();
        let machines = build(&cases, Some(&rec)).unwrap_or_else(|e| panic!("hostseq set-up: {e}"));
        let tph = closed_loop(&cases, &machines, o, &mut rng, Some(&rec), rep);
        report_compile(rep, &rec);
        let call = rec.stat("call");
        report_vm(rep, &tph.vm, tph.jobs, Some(call.total_ns));
        let per_job_ms = |ns: u64| ns as f64 / 1e6 / tph.jobs.max(1) as f64;
        rep.layer("core.call_ms", per_job_ms(call.total_ns), call.count);
        // No device here: all of the call is the VM.
        rep.layer("core.call_self_ms", per_job_ms(call.total_ns), call.count);
        let inputs = rec.stat("inputs");
        rep.layer("vmcommon.inputs_ms", per_job_ms(inputs.total_ns), inputs.count);
        let tjps = closed_loop_stats(&tph.lat_ms).0;
        rep.layer("bench.trace_overhead_pct", (jps - tjps) / jps * 100.0, tph.jobs);
    }
}

/// Frontend, translator, nvccsim and bytecode-compile spans of one
/// set-up.
pub fn report_compile(rep: &mut Report, rec: &Recorder) {
    let ms = |op: &str| rec.stat(op).total_ns as f64 / 1e6;
    rep.layer("minic.parse_ms", ms("parse"), rec.stat("parse").count);
    rep.layer("minic.sema_ms", ms("sema"), rec.stat("sema").count);
    rep.layer("core.translate_ms", ms("translate"), rec.stat("translate").count);
    rep.layer("core.cudacc_ms", ms("cudacc"), rec.stat("cudacc").count);
    let nvcc = rec.stat("nvcc");
    rep.layer("nvccsim.compile_ms", ms("nvcc"), nvcc.count);
    rep.layer("nvccsim.kernels", nvcc.count as f64, nvcc.count);
    let bc = rec.stat("bytecode");
    rep.layer(
        "minic.bytecode_compile_us",
        bc.total_ns as f64 / 1e3 / bc.count.max(1) as f64,
        bc.count,
    );
}

/// VM counters per job; with the guest-call wall, nanoseconds per
/// instruction.
pub fn report_vm(rep: &mut Report, vm: &[u64], jobs: u64, call_ns: Option<u64>) {
    let per_job = |x: u64| x as f64 / jobs.max(1) as f64;
    rep.layer("minic.vm_instructions", per_job(vm[0]), jobs);
    for (cat, &n) in minic::bytecode::OP_CATS.iter().zip(&vm[1..]) {
        rep.layer(&format!("minic.dispatch.{cat}"), per_job(n), jobs);
    }
    if let Some(ns) = call_ns {
        rep.layer("minic.vm_ns_per_instr", ns as f64 / vm[0].max(1) as f64, vm[0]);
    }
}
