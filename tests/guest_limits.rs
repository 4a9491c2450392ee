//! End-to-end guest resource governor tests: hostile guests through the
//! full Runner (OMPi translate → device registry → interpreter) must come
//! back as *typed* limit errors — never a panic, never a hang — with the
//! device salvaged for the next job:
//!
//! * `guest_limit.<kind>` counters appear on the host shim's pid,
//! * live device mappings of the aborted job are released,
//! * the recovery breaker stays untouched (a guest limit is the guest's
//!   fault, not the device's).
//!
//! Every test sets its limits through `RunnerConfig`. The `OMPI_GUEST_*`
//! environment variables configure the same limits for uninstrumented
//! binaries; their mapping is covered by `tests/config_precedence.rs`.

use ompi_nano::{Ompicc, Runner, RunnerConfig};

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompinano-limits-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A guest that maps a buffer with `target data`, then spins forever while
/// the mapping is live.
const HOSTILE_LOOP: &str = r#"
int main() {
    int n = 256;
    float x[256];
    for (int i = 0; i < n; i++) x[i] = 1.0f;
    #pragma omp target data map(tofrom: x[0:n])
    {
        while (1);
    }
    return 0;
}
"#;

#[test]
fn hostile_loop_returns_typed_fuel_error_from_runner() {
    let app = Ompicc::new(work("fuel")).compile(HOSTILE_LOOP).unwrap();
    let obs = obs::Obs::enabled();
    let cfg = RunnerConfig { fuel: Some(50_000), obs: Some(obs.clone()), ..Default::default() };
    let runner = Runner::new(&app, &cfg).unwrap();
    let err = runner.run_main().expect_err("an unbounded loop must hit the budget");
    assert_eq!(err.to_string(), "guest limit: guest fuel exhausted (budget 50000 instructions)");
    let host_pid = runner.registry().num_devices() as u64;
    assert_eq!(obs.metrics.counter(host_pid, "guest_limit.fuel"), 1);
    assert!(
        obs.metrics.counter(0, "maps_released") >= 1,
        "the aborted job's live `target data` mapping must be released"
    );
    assert!(!runner.device_broken(), "a guest limit must not latch the breaker");
}

#[test]
fn unbounded_alloc_returns_typed_mem_error_from_runner() {
    let src = r#"
int main() {
    while (1) { void* p = malloc(65536); }
    return 0;
}
"#;
    let app = Ompicc::new(work("mem")).compile(src).unwrap();
    let obs = obs::Obs::enabled();
    let cfg =
        RunnerConfig { guest_mem: Some(1 << 20), obs: Some(obs.clone()), ..Default::default() };
    let runner = Runner::new(&app, &cfg).unwrap();
    let err = runner.run_main().expect_err("a leak loop must hit the ceiling");
    assert_eq!(err.to_string(), "guest limit: guest memory limit exceeded (1048576-byte ceiling)");
    let host_pid = runner.registry().num_devices() as u64;
    assert_eq!(obs.metrics.counter(host_pid, "guest_limit.mem"), 1);
    assert!(!runner.device_broken());
}

#[test]
fn job_deadline_returns_typed_error_from_runner() {
    let src = "int main() { while (1); return 0; }";
    let app = Ompicc::new(work("deadline")).compile(src).unwrap();
    let obs = obs::Obs::enabled();
    let cfg = RunnerConfig {
        job_timeout: Some(std::time::Duration::from_millis(50)),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    let t0 = std::time::Instant::now();
    let err = runner.run_main().expect_err("the deadline must interrupt the loop");
    assert_eq!(err.to_string(), "guest limit: guest job deadline exceeded (50 ms)");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "deadline checks ride the fuel checkpoints; 50 ms must not become seconds"
    );
    let host_pid = runner.registry().num_devices() as u64;
    assert_eq!(obs.metrics.counter(host_pid, "guest_limit.deadline"), 1);
    assert!(!runner.device_broken());
}

/// Limits above real usage are invisible: a governed run is bit-identical
/// to an ungoverned one, on both engines. (The six-app sweep lives in
/// `vm_differential.rs`; gemm here proves the governor doesn't perturb
/// results or the simulated clock.)
#[test]
fn generous_limits_do_not_perturb_results() {
    use minic::interp::Engine;
    use ompi_nano::unibench::{app_by_name, compile_omp, run_once, runner_config};
    use ompi_nano::ExecMode;

    let app = app_by_name("gemm").unwrap();
    let n = app.test_size;
    let compiled = compile_omp(&app, &work("parity"));
    let base_cfg = runner_config((app.footprint)(n), ExecMode::Functional, false);

    let baseline = {
        let runner = Runner::new(&compiled, &base_cfg).unwrap();
        run_once(&app, &runner, n).unwrap()
    };
    for engine in [Engine::Vm, Engine::Walker] {
        let cfg = RunnerConfig {
            fuel: Some(200_000_000),
            guest_mem: Some(1 << 32),
            guest_stack: Some(200),
            job_timeout: Some(std::time::Duration::from_secs(600)),
            ..base_cfg.clone()
        };
        let runner = Runner::new(&compiled, &cfg).unwrap();
        runner.machine.set_engine(engine);
        let out = run_once(&app, &runner, n)
            .unwrap_or_else(|e| panic!("generous limits tripped under {engine:?}: {e}"));
        assert_eq!(out.len(), baseline.len());
        for (i, (a, b)) in out.iter().zip(&baseline).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{engine:?}: output[{i}] differs under generous limits ({a} vs {b})"
            );
        }
    }
}
