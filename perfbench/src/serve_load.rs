//! `serve`: an open loop. Seeded Poisson arrivals at [`RATE`] jobs/s feed
//! a `serve::Server` with two devices, default workers and default
//! admission caps. Three tenants with weights 1/2/3 each run the
//! `serve_soak` 256-element target-region program; the seed draws each
//! arrival's tenant and job argument.
//!
//! A job's latency runs from its **due** time: the generator's lateness
//! (due → submit) plus the server's submit → completion latency, so a
//! stall is charged to every job it delays.

use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ompi_nano::devmod::{DeviceModule, DeviceRegistry};
use ompi_nano::ompi_core::{CompiledApp, ResolvedConfig, Runner};
use ompi_nano::serve::{JobId, JobSpec, ProgramId, ServeConfig, ServeError, Server, TenantConfig};
use ompi_nano::{minic, BinMode, Value};

use crate::report::{beyond, median, peak_rss_mb, percentile, windowed, Report};
use crate::trace::{compile_omp_traced, cuda_dev, Recorder, TracedDev};
use crate::{median_setup, Opts, Rng};

/// Offered load, jobs/s: about half the knee where p99 latency blows up
/// (900–1000 jobs/s on a 2-core x86-64 box).
pub const RATE: f64 = 450.0;
const DEVICES: usize = 2;
const TENANTS: usize = 3;
/// Warm-up jobs per tenant in set-up (kernels JIT-compiled and cached).
const WARMUP: usize = 4;
/// Job arguments are drawn from `0..MAX_ARG`; every partial sum stays an
/// integer below 2^24, so the guest's f32 sum is exact.
const MAX_ARG: u64 = 1000;
/// Latency percentiles are taken per window of this many consecutive
/// jobs (at least 10 samples beyond each window's p99), then the median
/// over the windows is reported.
const WINDOW: usize = 1000;

/// The `serve_soak` tenant program with tenant constant `c`.
pub fn tenant_source(c: u32) -> String {
    format!(
        r#"
int job(int k) {{
    int n = 256;
    float x[256];
    for (int i = 0; i < n; i++) x[i] = (float) (i + k);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + {c}.0f;
    float s = 0.0f;
    for (int i = 0; i < n; i++) s = s + x[i];
    return (int) s;
}}
int main() {{ return job(0); }}
"#
    )
}

/// What tenant `c`'s `job(k)` returns, computed in Rust with the same f32
/// operations in the same order.
pub fn expected(c: u32, k: i32) -> Value {
    let mut s = 0.0f32;
    for i in 0..256 {
        let x = (i + k) as f32;
        s += 2.0f32 * x + c as f32;
    }
    Value::I32(s as i32)
}

fn tenant(t: usize) -> String {
    format!("t{t}")
}

fn spec(program: ProgramId, k: i32) -> JobSpec {
    let mut s = JobSpec::new(program);
    s.entry = "job".to_string();
    s.args = vec![Value::I32(k)];
    s
}

/// Set-up: build the server, register the tenants and their programs,
/// start the workers and warm every tenant up.
fn start_server(dir: &Path) -> Result<(Server, Vec<ProgramId>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ServeConfig::new(dir);
    cfg.runner.num_devices = DEVICES;
    cfg.runner.jit_cache_dir = dir.join("jit");
    cfg.runner.obs = Some(obs::Obs::disabled());
    let server = Server::new(&cfg).map_err(|e| e.to_string())?;
    let mut programs = Vec::new();
    for t in 0..TENANTS {
        let weight = t as u32 + 1;
        server.register_tenant(&tenant(t), TenantConfig { weight, ..TenantConfig::default() });
        let src = tenant_source(weight);
        programs.push(server.register_program(&tenant(t), &src).map_err(|e| e.to_string())?);
    }
    server.start();
    let mut ids = Vec::new();
    for i in 0..WARMUP * TENANTS {
        let t = i % TENANTS;
        ids.push(
            server.submit(&tenant(t), spec(programs[t], i as i32)).map_err(|e| e.to_string())?,
        );
    }
    for id in ids {
        server.wait(id).value?;
    }
    Ok((server, programs))
}

/// One arrival of the schedule.
#[derive(Clone, Copy)]
struct Arrival {
    due: Duration,
    tenant: usize,
    arg: i32,
}

/// The seeded Poisson schedule: `n = RATE * phase` arrivals with
/// exponential gaps, scaled so the last one is due at exactly `phase`
/// (a Poisson process conditioned on `n` arrivals). Every seed then
/// offers exactly `RATE`.
fn schedule(rng: &mut Rng, phase: Duration) -> Vec<Arrival> {
    let n = (RATE * phase.as_secs_f64()).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..n).map(|_| -rng.unit().ln()).collect();
    let scale = phase.as_secs_f64() / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g * scale;
            Arrival {
                due: Duration::from_secs_f64(t),
                tenant: rng.below(TENANTS as u64) as usize,
                arg: rng.below(MAX_ARG) as i32,
            }
        })
        .collect()
}

/// What the generator saw for one arrival.
struct Submitted {
    arrival: Arrival,
    id: Result<JobId, ServeError>,
    /// Due → submit.
    late: Duration,
    submitted_at: Instant,
    submit_call: Duration,
}

struct OpenLoop {
    jobs: u64,
    wall_s: f64,
    /// Due → completion per completed job.
    lat_ms: Vec<f64>,
    service_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    rejected: u64,
    backlog: u64,
}

fn open_loop(
    server: &Server,
    programs: &[ProgramId],
    plan: &[Arrival],
    rep: &mut Report,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now();
    let mut ol = OpenLoop {
        jobs: 0,
        wall_s: 0.0,
        lat_ms: Vec::new(),
        service_ms: Vec::new(),
        late_ms: Vec::new(),
        submit_us: Vec::new(),
        rejected: 0,
        backlog: 0,
    };
    let mut last_done = start;
    let backlog = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut accepted = 0u64;
            for &a in plan {
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted_at = Instant::now();
                let id = server.submit(&tenant(a.tenant), spec(programs[a.tenant], a.arg));
                let submit_call = submitted_at.elapsed();
                accepted += u64::from(id.is_ok());
                let late = submitted_at.saturating_duration_since(due);
                let _ = tx.send(Submitted { arrival: a, id, late, submitted_at, submit_call });
            }
            // Jobs still queued or running when the offered load stops.
            let m = &server.obs().metrics;
            let pid = server.serve_pid();
            let done = m.counter(pid, "serve.jobs_completed") + m.counter(pid, "serve.jobs_failed");
            accepted.saturating_sub(done.saturating_sub((WARMUP * TENANTS) as u64))
        });
        for sub in rx {
            rep.attempted += 1;
            ol.late_ms.push(sub.late.as_secs_f64() * 1e3);
            ol.submit_us.push(sub.submit_call.as_secs_f64() * 1e6);
            let id = match sub.id {
                Ok(id) => id,
                Err(e) => {
                    ol.rejected += 1;
                    rep.fail(format!("submit rejected: {e}"));
                    continue;
                }
            };
            let r = server.wait(id);
            let service = Duration::from_micros(r.latency_us);
            last_done = last_done.max(sub.submitted_at + service);
            let want = expected(sub.arrival.tenant as u32 + 1, sub.arrival.arg);
            match r.value {
                Err(e) => rep.fail(format!("job {id:?}: {e}")),
                Ok(v) if v != want => {
                    rep.fail(format!("job {id:?} returned {v:?}, expected {want:?}"))
                }
                Ok(_) => {
                    ol.jobs += 1;
                    ol.lat_ms.push((sub.late + service).as_secs_f64() * 1e3);
                    ol.service_ms.push(service.as_secs_f64() * 1e3);
                }
            }
        }
        generator.join().expect("generator thread panicked")
    });
    ol.backlog = backlog;
    ol.wall_s = last_done.duration_since(start).as_secs_f64();
    ol
}

fn affinity(server: &Server) -> (u64, u64) {
    let m = &server.obs().metrics;
    let c = |k: &str| m.counter(server.serve_pid(), &format!("serve.affinity.{k}"));
    let placed = ["first", "hit", "miss", "reroute", "host"].iter().map(|k| c(k)).sum();
    (c("hit"), placed)
}

pub fn run(o: &Opts, rep: &mut Report) {
    let work = o.work.join("serve");
    // Dropping a server joins its workers, so the next repetition can
    // start over in the same directory.
    let (started, setup_s, reps) = median_setup(|| start_server(&work.join("setup")));
    let (server, programs) = started.unwrap_or_else(|e| panic!("serve set-up: {e}"));
    rep.e2e("setup_s", setup_s, reps);

    let mut rng = Rng::new(o.seed);
    let plan = schedule(&mut rng, o.phase());
    let (hit0, placed0) = affinity(&server);
    let ol = open_loop(&server, &programs, &plan, rep);
    let (hit1, placed1) = affinity(&server);
    let jps = ol.jobs as f64 / ol.wall_s;
    rep.e2e("jobs_per_s", jps, ol.jobs);
    rep.e2e("job_p50_ms", windowed(&ol.lat_ms, WINDOW, 50.0), ol.jobs);
    rep.layer("job_p99_ms", windowed(&ol.lat_ms, WINDOW, 99.0), ol.jobs);
    rep.e2e("peak_rss_mb", peak_rss_mb(), 1);
    rep.note(format!(
        "serve: offered {RATE} jobs/s, {} arrivals over {:.3}s; latency percentiles are \
         medians over windows of {WINDOW} jobs; pooled p50 {:.3} ms, p99 {:.3} ms ({} samples \
         beyond p99)",
        plan.len(),
        ol.wall_s,
        median(&ol.lat_ms),
        percentile(&ol.lat_ms, 99.0),
        beyond(&ol.lat_ms, 99.0)
    ));
    let windows: Vec<String> =
        ol.lat_ms.chunks_exact(WINDOW).map(|w| format!("{:.2}", percentile(w, 99.0))).collect();
    rep.note(format!("serve: p99 ms per window of {WINDOW} jobs: {}", windows.join(" ")));
    rep.note(format!(
        "serve: generator lateness p99 {:.3} ms, max {:.3} ms; {} rejected; {} jobs queued or \
         running when the load stopped",
        percentile(&ol.late_ms, 99.0),
        percentile(&ol.late_ms, 100.0),
        ol.rejected,
        ol.backlog
    ));
    if jps < 0.95 * RATE {
        rep.note(format!(
            "serve: BACKLOG — completed {jps:.1} jobs/s against {RATE} offered: the queue grew \
             and latency includes the backlog"
        ));
    }
    server.shutdown();

    if !o.trace {
        return;
    }
    rep.layer("serve.submit.p50_us", median(&ol.submit_us), ol.submit_us.len() as u64);
    rep.layer("serve.submit.p99_us", percentile(&ol.submit_us, 99.0), ol.submit_us.len() as u64);
    rep.layer("serve.service.p50_ms", median(&ol.service_ms), ol.jobs);
    rep.layer("serve.service.p99_ms", percentile(&ol.service_ms, 99.0), ol.jobs);
    let placed = placed1 - placed0;
    rep.layer("serve.affinity_hit_ratio", (hit1 - hit0) as f64 / placed.max(1) as f64, placed);
    rep.layer("serve.rejected", ol.rejected as f64, ol.rejected);
    rep.layer("bench.gen_late.p99_ms", percentile(&ol.late_ms, 99.0), ol.late_ms.len() as u64);
    rep.layer("bench.gen_late.max_ms", percentile(&ol.late_ms, 100.0), ol.late_ms.len() as u64);
    rep.layer("bench.backlog_jobs", ol.backlog as f64, ol.backlog);
    replay(o, server.resolved(), &work.join("replay"), rep);
}

/// The runner/launch split the server cannot show from outside: tenant
/// 0's job replayed standalone the way a serve worker runs it (a fresh
/// `Runner` per job over a persistent device), first plain and then
/// behind the tracing wrapper, a quarter of the measured phase each.
fn replay(o: &Opts, server_rc: &ResolvedConfig, dir: &Path, rep: &mut Report) {
    // Each replay gets its own sink so the VM counters are the traced
    // replay's alone.
    let with_obs =
        |obs: &Arc<obs::Obs>| ResolvedConfig { obs: Some(obs.clone()), ..server_rc.clone() };
    let (plain_obs, traced_obs) = (obs::Obs::disabled(), obs::Obs::disabled());
    let (plain_rc, rc) = (with_obs(&plain_obs), with_obs(&traced_obs));
    let rec = Arc::new(Recorder::default());
    let app = compile_omp_traced(&tenant_source(1), dir, "p0_", BinMode::Ptx, &rec)
        .unwrap_or_else(|e| panic!("serve replay compile: {e}"));
    crate::hostseq::report_compile(rep, &rec);

    let each = o.phase() / 2;
    let plain: Arc<dyn DeviceModule> = Arc::new(cuda_dev(&app.kernel_dir, &plain_rc));
    let (jobs, wall) = replay_loop(&app, &plain_rc, &plain, None, each, rep);
    let jps = jobs as f64 / wall;

    let rec = Arc::new(Recorder::default());
    let traced: Arc<dyn DeviceModule> =
        Arc::new(TracedDev::new(Arc::new(cuda_dev(&app.kernel_dir, &rc)), rec.clone()));
    let (tjobs, twall) = replay_loop(&app, &rc, &traced, Some(&rec), each, rep);
    crate::offload::report_device_layers(rep, &rec);
    crate::hostseq::report_vm(rep, &crate::offload::vm_counters(&traced_obs), tjobs, None);
    rep.layer("bench.trace_overhead_pct", (jps - tjobs as f64 / twall) / jps * 100.0, tjobs);

    // A fresh machine compiles its bytecode image on its first job; time
    // that compile on its own.
    let runner =
        Runner::with_shared_registry(&app, Arc::new(DeviceRegistry::with_host_pid(vec![], 1)), &rc)
            .unwrap_or_else(|e| panic!("serve replay: {e}"));
    let bc = Recorder::default();
    for _ in 0..50 {
        bc.time("bytecode", || std::hint::black_box(minic::compile::compile(&runner.machine)));
    }
    let s = bc.stat("bytecode");
    rep.layer("minic.bytecode_compile_us", s.total_ns as f64 / 1e3 / s.count as f64, s.count);
}

fn replay_loop(
    app: &CompiledApp,
    rc: &ResolvedConfig,
    dev: &Arc<dyn DeviceModule>,
    rec: Option<&Arc<Recorder>>,
    phase: Duration,
    rep: &mut Report,
) -> (u64, f64) {
    let start = Instant::now();
    let mut jobs = 0u64;
    while jobs == 0 || start.elapsed() < phase {
        let k = (jobs % MAX_ARG) as i32;
        let t = Instant::now();
        let registry = Arc::new(DeviceRegistry::with_host_pid(vec![dev.clone()], 1));
        let runner = Runner::with_shared_registry(app, registry, rc)
            .unwrap_or_else(|e| panic!("serve replay: {e}"));
        if let Some(r) = rec {
            r.record("runner_new", t.elapsed().as_nanos() as u64);
            r.take_device_ns();
        }
        let t = Instant::now();
        let v = runner.call("job", &[Value::I32(k)]);
        if let Some(r) = rec {
            r.record("call", t.elapsed().as_nanos() as u64);
            r.record("call_device", r.take_device_ns());
        }
        rep.attempted += 1;
        match v {
            Ok(v) if v == expected(1, k) => {}
            Ok(v) => rep.fail(format!("replay job({k}) returned {v:?}")),
            Err(e) => rep.fail(format!("replay job({k}): {e}")),
        }
        jobs += 1;
    }
    (jobs, start.elapsed().as_secs_f64())
}
