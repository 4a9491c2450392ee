//! Observability integration tests: the Chrome-trace export of a
//! two-device run with injected faults (retry spans nested under launches,
//! fallback attributed to the host process), the per-device profile table,
//! and the drop-time trace export of a runner that owns its sink.

use ompi_nano::{Ompicc, ResolvedConfig, Runner, RunnerConfig, Value};

/// Two offloaded loops pinned to devices 0 and 1 (saxpy-shaped bodies).
const TWO_DEV: &str = r#"
int main() {
    int n = 256;
    float a[256]; float b[256];
    for (int i = 0; i < n; i++) { a[i] = 1.0f; b[i] = 2.0f; }
    #pragma omp target teams distribute parallel for device(0) map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = 2.0f * a[i] + 1.0f;
    #pragma omp target teams distribute parallel for device(1) map(tofrom: b[0:n])
    for (int i = 0; i < n; i++)
        b[i] = 2.0f * b[i] + 1.0f;
    for (int i = 0; i < n; i++) {
        if (a[i] != 3.0f) return 1;
        if (b[i] != 5.0f) return 2;
    }
    return 0;
}
"#;

fn compile(tag: &str) -> ompi_nano::CompiledApp {
    let dir = std::env::temp_dir().join(format!("ompinano-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ompicc::new(&dir).compile(TWO_DEV).unwrap()
}

/// Events of the parsed trace array with the given `ph` code.
fn events_with_ph<'a>(arr: &'a [obs::Json], ph: &str) -> Vec<&'a obs::Json> {
    arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph)).collect()
}

fn num(e: &obs::Json, key: &str) -> f64 {
    e.get(key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("event missing `{key}`"))
}

fn name_of(e: &obs::Json) -> &str {
    e.get("name").and_then(|v| v.as_str()).unwrap_or("")
}

/// The golden scenario: device 0 takes one transient launch fault (retried,
/// then succeeds), device 1 faults terminally on launch (its region falls
/// back to the host). The exported Chrome trace must have one process per
/// device (plus the host), the retry span nested inside device 0's launch
/// span, and the fallback span on the host process.
#[test]
fn chrome_trace_of_faulty_two_device_run() {
    let app = compile("golden");
    let cfg = RunnerConfig {
        num_devices: 2,
        fault_spec: Some("dev0:launch@1x1,dev1:launch@1x*".to_string()),
        obs: Some(obs::Obs::enabled()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(!runner.device_broken_at(0), "one transient fault must not latch device 0");
    assert!(runner.device_broken_at(1), "terminal faults must latch device 1");

    let path =
        std::env::temp_dir().join(format!("ompinano-trace-golden-{}.json", std::process::id()));
    runner.write_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let parsed = obs::json::parse(&text).expect("trace must be valid JSON");
    let arr = parsed.as_array().expect("Chrome trace array form");
    assert!(!arr.is_empty());

    // One named process per device, plus the host shim.
    let meta = events_with_ph(arr, "M");
    let named: std::collections::BTreeSet<u64> =
        meta.iter().map(|e| num(e, "pid") as u64).collect();
    assert_eq!(named, [0u64, 1, 2].into_iter().collect(), "pids 0,1 = devices, 2 = host");
    // Metadata is hoisted to the front of the array.
    assert_eq!(name_of(&arr[0]), "process_name");

    // Device 0: the retry X event must nest inside the launch B/E span on
    // the driver track (tid 0).
    let begins = events_with_ph(arr, "B");
    let launch_b = *begins
        .iter()
        .find(|e| num(e, "pid") as u64 == 0 && name_of(e).starts_with("launch "))
        .expect("device 0 must record a launch span");
    let lb_ts = num(launch_b, "ts");
    let launch_e = events_with_ph(arr, "E")
        .into_iter()
        .filter(|e| num(e, "pid") as u64 == 0 && num(e, "tid") as u64 == 0)
        .map(|e| num(e, "ts"))
        .filter(|&ts| ts >= lb_ts)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(launch_e > lb_ts, "launch span must close after it opens");
    let retry = events_with_ph(arr, "X")
        .into_iter()
        .find(|e| num(e, "pid") as u64 == 0 && name_of(e) == "retry")
        .expect("the transient fault on device 0 must record a retry event");
    let r_ts = num(retry, "ts");
    let r_end = r_ts + num(retry, "dur");
    assert!(
        r_ts >= lb_ts && r_end <= launch_e + 1e-6,
        "retry [{r_ts}, {r_end}]µs must nest inside launch [{lb_ts}, {launch_e}]µs"
    );
    // The fault itself is an instant on device 0.
    assert!(events_with_ph(arr, "i")
        .iter()
        .any(|e| num(e, "pid") as u64 == 0 && name_of(e) == "fault"));

    // Device 1's region fell back: a fallback span on the host process.
    let fb = begins
        .iter()
        .find(|e| name_of(e) == "host fallback")
        .expect("the failed region must record a host-fallback span");
    assert_eq!(num(fb, "pid") as u64, 2, "fallback spans belong to the host process");

    // Device 0 still ran its kernel: an X event on its process.
    assert!(events_with_ph(arr, "X")
        .iter()
        .any(|e| num(e, "pid") as u64 == 0 && name_of(e).starts_with("kernel ")));

    // Every B has a matching E per (pid, tid) track.
    for pid in 0u64..3 {
        let b = begins.iter().filter(|e| num(e, "pid") as u64 == pid).count();
        let e = events_with_ph(arr, "E").iter().filter(|e| num(e, "pid") as u64 == pid).count();
        assert_eq!(b, e, "unbalanced spans on pid {pid}");
    }
}

/// The profile table attributes each device's simulated time to phases
/// whose rows sum to that device's aggregate `DevClock` total.
#[test]
fn profile_rows_sum_to_device_clock_totals() {
    let app = compile("profile");
    let cfg = RunnerConfig { num_devices: 2, obs: Some(obs::Obs::enabled()), ..Default::default() };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));

    let rows = runner.registry().profile_rows();
    assert_eq!(rows.len(), 3, "dev0, dev1, host");
    for (idx, row) in rows.iter().enumerate() {
        let clk = runner.dev_clock_of(idx).unwrap();
        assert!(
            (row.total_s() - clk.total_s()).abs() < 1e-12,
            "row `{}` total {} != device {idx} clock total {}",
            row.label,
            row.total_s(),
            clk.total_s()
        );
        // The row's phases are exactly the clock's phase breakdown.
        let phases = row.init_s
            + row.modload_s
            + row.h2d_s
            + row.kernel_s
            + row.d2h_s
            + row.retry_backoff_s
            + row.fallback_s;
        assert!((phases - row.total_s()).abs() < 1e-15);
    }
    // Offload rows sum to the aggregate clock total; devices did real work.
    let agg = runner.dev_clock();
    let offload_sum: f64 = rows[..2].iter().map(|r| r.total_s()).sum();
    assert!((offload_sum - agg.total_s()).abs() < 1e-12);
    assert!(rows[0].total_s() > 0.0 && rows[1].total_s() > 0.0);
    assert_eq!(rows[0].launches, 1);
    assert_eq!(rows[1].launches, 1);

    // The rendered table carries one line per device.
    let table = runner.profile_table();
    for label in ["dev0", "dev1", "host"] {
        assert!(table.contains(label), "profile table missing `{label}`:\n{table}");
    }
}

/// A snapshot with a trace path and no explicit sink (what `OMPI_TRACE`
/// resolves to) makes the runner create a tracing sink of its own and
/// write the trace on drop.
#[test]
fn runner_owned_sink_writes_trace_on_drop() {
    let path =
        std::env::temp_dir().join(format!("ompinano-trace-owned-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let app = compile("owned");
    let cfg = RunnerConfig { num_devices: 2, ..Default::default() };
    let rc = ResolvedConfig {
        obs: None,
        trace_path: Some(path.clone()),
        ..ResolvedConfig::resolve(&cfg).unwrap()
    };
    {
        let runner = Runner::from_resolved(&app, &rc).unwrap();
        assert!(runner.obs().tracer.is_enabled(), "a trace path turns the tracer on");
        assert_eq!(runner.run_main().unwrap(), Value::I32(0));
        // Trace written on drop.
    }

    let text = std::fs::read_to_string(&path).expect("runner drop must write the trace file");
    let _ = std::fs::remove_file(&path);
    let parsed = obs::json::parse(&text).expect("drop-time trace must be valid JSON");
    let arr = parsed.as_array().unwrap();
    assert!(
        arr.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")),
        "trace from a real run must contain complete events"
    );
}
