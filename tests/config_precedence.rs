//! The config-precedence matrix: for every `OMPI_*` runner knob the
//! contract is
//!
//! 1. an explicit `RunnerConfig` field always wins,
//! 2. otherwise a well-formed env var applies,
//! 3. otherwise the built-in default,
//!
//! and a malformed env var that *would have applied* (rule 2) is a typed
//! [`ConfigError`] naming the variable — never a silent fallback. These
//! are regression tests for three real bugs: env vars used to overwrite
//! explicitly-set config fields, `OMPI_ASYNC` treated any non-empty
//! non-`"0"` string as true (`OMPI_ASYNC=off` meant *on*), and
//! `OMPI_DEV_MEM` truncated through `as usize`.

use std::sync::Mutex;
use std::time::Duration;

use ompi_nano::ompi_core::{DEFAULT_DEVICE_MEM, DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS};
use ompi_nano::{ConfigError, Ompicc, ResolvedConfig, Runner, RunnerConfig};

/// Env vars are process globals; every test here serializes on this.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the given env vars set (`None` = explicitly unset),
/// restoring the previous state afterwards.
fn with_env<T>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> T) -> T {
    let _g = ENV_LOCK.lock().unwrap();
    let saved: Vec<(String, Option<String>)> =
        vars.iter().map(|(k, _)| (k.to_string(), std::env::var(k).ok())).collect();
    for (k, v) in vars {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let out = f();
    for (k, v) in saved {
        match v {
            Some(v) => std::env::set_var(&k, v),
            None => std::env::remove_var(&k),
        }
    }
    out
}

const ALL_VARS: &[(&str, Option<&str>)] = &[
    ("OMPI_DEV_MEM", None),
    ("OMPI_ASYNC", None),
    ("OMPI_LAUNCH_TIMEOUT_MS", None),
    ("OMPI_MAX_RESETS", None),
    ("OMPI_JOB_TIMEOUT_MS", None),
    ("OMPI_GUEST_FUEL", None),
    ("OMPI_GUEST_MEM", None),
    ("OMPI_GUEST_STACK", None),
];

#[test]
fn defaults_apply_with_clean_env() {
    with_env(ALL_VARS, || {
        let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.device_mem, DEFAULT_DEVICE_MEM);
        assert!(!rc.async_streams);
        assert_eq!(rc.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
        assert_eq!(rc.max_resets, DEFAULT_MAX_RESETS);
        assert_eq!(rc.job_timeout, None);
        assert_eq!(rc.fuel, None);
        assert_eq!(rc.guest_mem, None);
        assert_eq!(rc.guest_stack, None);
    });
}

#[test]
fn well_formed_env_fills_unset_fields() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("64M")),
            ("OMPI_ASYNC", Some("on")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("123")),
            ("OMPI_MAX_RESETS", Some("7")),
            ("OMPI_JOB_TIMEOUT_MS", Some("4500")),
            ("OMPI_GUEST_FUEL", Some("1000")),
            ("OMPI_GUEST_MEM", Some("1M")),
            ("OMPI_GUEST_STACK", Some("64")),
        ],
        || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert_eq!(rc.device_mem, 64 << 20);
            assert!(rc.async_streams);
            assert_eq!(rc.launch_timeout, Duration::from_millis(123));
            assert_eq!(rc.max_resets, 7);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(4500)));
            assert_eq!(rc.fuel, Some(1000));
            assert_eq!(rc.guest_mem, Some(1 << 20));
            assert_eq!(rc.guest_stack, Some(64));
        },
    );
}

/// The headline bugfix: before the Option-ization, every one of these env
/// vars unconditionally overwrote the explicitly-configured field.
#[test]
fn explicit_config_beats_env_for_every_knob() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("64M")),
            ("OMPI_ASYNC", Some("on")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("123")),
            ("OMPI_MAX_RESETS", Some("7")),
            ("OMPI_JOB_TIMEOUT_MS", Some("4500")),
            ("OMPI_GUEST_FUEL", Some("1000")),
            ("OMPI_GUEST_MEM", Some("1M")),
            ("OMPI_GUEST_STACK", Some("64")),
        ],
        || {
            let cfg = RunnerConfig {
                device_mem: Some(32 << 20),
                async_streams: Some(false),
                launch_timeout: Some(Duration::from_millis(999)),
                max_resets: Some(2),
                job_timeout: Some(Duration::from_millis(8000)),
                fuel: Some(5),
                guest_mem: Some(2 << 20),
                guest_stack: Some(16),
                ..Default::default()
            };
            let rc = ResolvedConfig::resolve(&cfg).unwrap();
            assert_eq!(rc.device_mem, 32 << 20, "explicit device_mem must beat OMPI_DEV_MEM");
            assert!(!rc.async_streams, "explicit async_streams=false must beat OMPI_ASYNC=on");
            assert_eq!(rc.launch_timeout, Duration::from_millis(999));
            assert_eq!(rc.max_resets, 2);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(8000)));
            assert_eq!(rc.fuel, Some(5));
            assert_eq!(rc.guest_mem, Some(2 << 20));
            assert_eq!(rc.guest_stack, Some(16));
        },
    );
}

/// A malformed env var that would apply is a typed error naming the var.
#[test]
fn malformed_env_that_would_apply_is_a_typed_error() {
    let cases: &[(&str, &str)] = &[
        ("OMPI_DEV_MEM", "banana"),
        ("OMPI_ASYNC", "banana"),
        ("OMPI_LAUNCH_TIMEOUT_MS", "fast"),
        ("OMPI_MAX_RESETS", "-1"),
        ("OMPI_JOB_TIMEOUT_MS", "1.5s"),
        ("OMPI_GUEST_FUEL", "lots"),
        ("OMPI_GUEST_MEM", "banana"),
        ("OMPI_GUEST_STACK", "deep"),
    ];
    for (var, value) in cases {
        with_env(&[(var, Some(value))], || {
            let err = ResolvedConfig::resolve(&RunnerConfig::default())
                .expect_err(&format!("{var}={value} must be rejected"));
            assert!(
                err.to_string().contains(var),
                "error for {var} must name the variable, got: {err}"
            );
        });
    }
}

/// ...but the same malformed var is harmless when the explicit config
/// means it would never apply (matching `OMPI_JOB_TIMEOUT_MS` precedent:
/// the env var is not even read).
#[test]
fn malformed_env_is_ignored_under_explicit_config() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("banana")),
            ("OMPI_ASYNC", Some("banana")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("fast")),
            ("OMPI_MAX_RESETS", Some("-1")),
        ],
        || {
            let cfg = RunnerConfig {
                device_mem: Some(8 << 20),
                async_streams: Some(true),
                launch_timeout: Some(Duration::from_millis(50)),
                max_resets: Some(1),
                ..Default::default()
            };
            let rc = ResolvedConfig::resolve(&cfg).unwrap();
            assert_eq!(rc.device_mem, 8 << 20);
            assert!(rc.async_streams);
        },
    );
}

/// The `OMPI_ASYNC=off` bug: the old parser treated any non-empty string
/// other than `"0"` as true. The strict parser accepts both polarity
/// families and rejects everything else.
#[test]
fn async_env_uses_strict_boolean_spellings() {
    for v in ["1", "true", "on", "yes", "TRUE", " On "] {
        with_env(&[("OMPI_ASYNC", Some(v))], || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert!(rc.async_streams, "OMPI_ASYNC={v} must mean true");
        });
    }
    for v in ["0", "false", "off", "no", "FALSE", " Off "] {
        with_env(&[("OMPI_ASYNC", Some(v))], || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert!(!rc.async_streams, "OMPI_ASYNC={v} must mean false");
        });
    }
    with_env(&[("OMPI_ASYNC", Some("2"))], || {
        match ResolvedConfig::resolve(&RunnerConfig::default()) {
            Err(ConfigError::Bool { var: "OMPI_ASYNC", .. }) => {}
            other => panic!("OMPI_ASYNC=2 must be a typed Bool error, got {other:?}"),
        }
    });
}

/// `OMPI_DEV_MEM` used to truncate through `as usize`; sizes that cannot
/// be represented are typed errors now (`parse_size` catches the u64
/// overflow, `ConfigError::Overflow` the usize one on 32-bit targets).
#[test]
fn dev_mem_overflow_is_typed_not_truncated() {
    with_env(&[("OMPI_DEV_MEM", Some("99999999999g"))], || {
        let err = ResolvedConfig::resolve(&RunnerConfig::default())
            .expect_err("an unrepresentable size must not wrap");
        assert!(err.to_string().contains("OMPI_DEV_MEM"), "got: {err}");
    });
}

/// The CUDA baseline manages raw device memory itself: the four runner
/// device knobs never apply there (even malformed values are unread),
/// while the job deadline and guest limits still do.
#[test]
fn cuda_path_ignores_runner_env_but_honours_guest_env() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("banana")),
            ("OMPI_ASYNC", Some("banana")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("fast")),
            ("OMPI_MAX_RESETS", Some("-1")),
            ("OMPI_JOB_TIMEOUT_MS", Some("2500")),
            ("OMPI_GUEST_FUEL", Some("777")),
        ],
        || {
            let rc = ResolvedConfig::resolve_cuda(&RunnerConfig::default()).unwrap();
            assert_eq!(rc.device_mem, DEFAULT_DEVICE_MEM);
            assert!(!rc.async_streams);
            assert_eq!(rc.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
            assert_eq!(rc.max_resets, DEFAULT_MAX_RESETS);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(2500)));
            assert_eq!(rc.fuel, Some(777));
        },
    );
}

const TRIVIAL: &str = r#"
int main() {
    int n = 64;
    float x[64];
    for (int i = 0; i < n; i++) x[i] = 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = x[i] + 1.0f;
    return 0;
}
"#;

/// End to end: `Runner::new` surfaces the typed error (as a trap naming
/// the variable) instead of silently running with a bad config.
#[test]
fn runner_new_reports_malformed_env() {
    with_env(&[("OMPI_ASYNC", Some("banana"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-precedence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile(TRIVIAL).unwrap();
        let err = Runner::new(&app, &RunnerConfig::default())
            .err()
            .expect("malformed OMPI_ASYNC must fail Runner::new");
        assert!(err.to_string().contains("OMPI_ASYNC"), "got: {err}");

        // The same env is harmless once the field is explicit.
        let cfg = RunnerConfig { async_streams: Some(false), ..Default::default() };
        let runner = Runner::new(&app, &cfg).unwrap();
        assert_eq!(runner.run_main().unwrap(), ompi_nano::Value::I32(0));
    });
}

/// The obs variables map onto the snapshot fields a runner-owned sink is
/// built from; an explicit sink leaves them unread.
#[test]
fn obs_env_fills_runner_owned_sink_settings() {
    let trace = std::env::temp_dir().join("ompinano-precedence-trace.json");
    let dump = std::env::temp_dir().join("ompinano-precedence-flight.jsonl");
    let vars = [
        ("OMPI_TRACE", Some(trace.to_str().unwrap())),
        ("OMPI_PROFILE", Some("on")),
        ("OMPI_HOTSPOTS", Some("1")),
        ("OMPI_FLIGHT_DUMP", Some(dump.to_str().unwrap())),
    ];
    with_env(&vars, || {
        let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.trace_path.as_deref(), Some(trace.as_path()));
        assert!(rc.profile);
        assert!(rc.hotspots);
        assert_eq!(rc.flight_dump.as_deref(), Some(dump.as_path()));

        let cfg = RunnerConfig { obs: Some(obs::Obs::disabled()), ..Default::default() };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        assert_eq!(rc.trace_path, None, "an explicit sink owns export");
        assert!(!rc.profile && !rc.hotspots);
        assert_eq!(rc.flight_dump, None);
    });
    // Display flags are forgiving but strict about polarity.
    let off = [
        ("OMPI_TRACE", Some(" ")),
        ("OMPI_PROFILE", Some("off")),
        ("OMPI_HOTSPOTS", Some("banana")),
        ("OMPI_FLIGHT_DUMP", None),
    ];
    with_env(&off, || {
        let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.trace_path, None);
        assert!(!rc.profile && !rc.hotspots);
        assert_eq!(rc.flight_dump, None);
    });
}

/// `OMPI_FAULT_PLAN` applies per device, only to devices the config left
/// unset, and is parsed at resolve time.
#[test]
fn fault_plan_env_fills_only_unset_devices() {
    let rules = |p: Option<std::sync::Arc<ompi_nano::FaultPlan>>| p.map(|p| !p.is_empty());
    with_env(&[("OMPI_FAULT_PLAN", Some("launch@1x1,dev1:h2d@2"))], || {
        let cfg = RunnerConfig { num_devices: 3, ..Default::default() };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        assert_eq!(rules(rc.fault_plan_of(0)), Some(true));
        assert_eq!(rules(rc.fault_plan_of(1)), Some(true));
        assert_eq!(rules(rc.fault_plan_of(2)), None, "no rules for dev2 means no plan");

        // An explicit device-0 plan wins there; device 1 still takes env.
        let explicit = std::sync::Arc::new(ompi_nano::FaultPlan::parse("d2h@3").unwrap());
        let cfg = RunnerConfig { num_devices: 2, fault_plan: Some(explicit.clone()), ..cfg };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        assert!(std::sync::Arc::ptr_eq(&rc.fault_plan.clone().unwrap(), &explicit));
        assert_eq!(rules(rc.fault_plan_of(1)), Some(true));

        // An explicit spec sets every device: the env plan is unread.
        let cfg = RunnerConfig { fault_spec: Some("dev1:launch@2".into()), ..cfg };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        assert_eq!(rules(rc.fault_plan_of(0)), Some(false));
        assert_eq!(rules(rc.fault_plan_of(1)), Some(true));
    });
    with_env(&[("OMPI_FAULT_PLAN", Some("launch@0"))], || {
        let cfg = RunnerConfig { fault_spec: Some("launch@1".into()), ..Default::default() };
        assert!(ResolvedConfig::resolve(&cfg).is_ok(), "malformed env under explicit spec");
        match ResolvedConfig::resolve(&RunnerConfig::default()) {
            Err(ConfigError::FaultPlan { var: "OMPI_FAULT_PLAN", .. }) => {}
            other => panic!("a malformed plan must be a typed FaultPlan error, got {other:?}"),
        }
    });
}

/// The silent host fallback: an explicit `fault_plan` covers device 0
/// only, so a malformed `OMPI_FAULT_PLAN` would apply to device 1 and must
/// fail construction of both the runner and the server — not turn device
/// 1's lazy init into a host run. With one device the env plan applies to
/// nothing and stays unread.
#[test]
fn malformed_fault_plan_env_for_an_unset_device_is_a_typed_error() {
    use ompi_nano::serve::{ServeConfig, ServeError, Server};
    with_env(&[("OMPI_FAULT_PLAN", Some("launch@0"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-silent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile(TRIVIAL).unwrap();
        let plan = std::sync::Arc::new(ompi_nano::FaultPlan::parse("d2h@9").unwrap());
        let cfg = RunnerConfig { num_devices: 2, fault_plan: Some(plan), ..Default::default() };

        let err = Runner::new(&app, &cfg).err().expect("Runner::new must reject the env plan");
        assert!(err.to_string().contains("OMPI_FAULT_PLAN"), "got: {err}");
        let mut scfg = ServeConfig::new(dir.join("serve"));
        scfg.runner = cfg.clone();
        match Server::new(&scfg) {
            Err(ServeError::Config(e @ ConfigError::FaultPlan { .. })) => {
                assert!(e.to_string().contains("OMPI_FAULT_PLAN"), "got: {e}");
            }
            Err(e) => panic!("expected a typed config error, got {e}"),
            Ok(_) => panic!("Server::new must reject the env plan"),
        }

        let one = RunnerConfig { num_devices: 1, ..cfg };
        let runner = Runner::new(&app, &one).expect("env plan applies to no device");
        assert_eq!(runner.run_main().unwrap(), ompi_nano::Value::I32(0));
        scfg.runner = one;
        assert!(Server::new(&scfg).is_ok());
    });
}

/// The snapshot is the only env read: variables set after `Runner::new` /
/// `Server::new` must not reach lazy device init or a job's machine.
#[test]
fn env_set_after_construction_does_not_reach_jobs() {
    use ompi_nano::serve::{JobSpec, ServeConfig, Server};
    use ompi_nano::{DeviceModule, DeviceRegistry};
    let late = [("OMPI_FAULT_PLAN", None), ("OMPI_HOTSPOTS", None)];
    with_env(&late, || {
        let set_late = || {
            std::env::set_var("OMPI_FAULT_PLAN", "init@1x*");
            std::env::set_var("OMPI_HOTSPOTS", "1");
        };
        let dir = std::env::temp_dir().join(format!("ompinano-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile(TRIVIAL).unwrap();

        let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
        set_late();
        assert_eq!(runner.run_main().unwrap(), ompi_nano::Value::I32(0));
        assert!(!runner.device_broken(), "a late OMPI_FAULT_PLAN latched the device");
        assert_eq!(runner.dev_clock().launches, 1, "the region must run on the device");
        assert!(!runner.machine.hotspots_enabled());
        drop(runner);

        std::env::remove_var("OMPI_FAULT_PLAN");
        std::env::remove_var("OMPI_HOTSPOTS");
        let server = Server::new(&ServeConfig::new(dir.join("serve"))).unwrap();
        set_late();
        let program = server.register_program("t", TRIVIAL).unwrap();
        let job = server.submit("t", JobSpec::new(program)).unwrap();
        server.start();
        let r = server.wait(job);
        assert_eq!(r.value, Ok(ompi_nano::Value::I32(0)));
        assert_eq!(r.device, Some(0));
        let dev = server.device(0).unwrap();
        assert!(!dev.is_broken(), "a late OMPI_FAULT_PLAN latched the device");
        assert_eq!(DeviceModule::clock(&**dev).launches, 1, "the job must run on the device");
        let registry = std::sync::Arc::new(DeviceRegistry::new(vec![]));
        let job_runner = Runner::with_shared_registry(&app, registry, server.resolved()).unwrap();
        assert!(!job_runner.machine.hotspots_enabled(), "a late OMPI_HOTSPOTS reached a job");
    });
}

/// `OMPI_GUEST_FUEL` configures the governor end to end for runs that
/// never touch `RunnerConfig` (fig4, external harnesses).
#[test]
fn guest_fuel_env_applies_end_to_end() {
    const HOSTILE_LOOP: &str = "int main() { while (1); return 0; }";
    with_env(&[("OMPI_GUEST_FUEL", Some("30000"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-fuel-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile(HOSTILE_LOOP).unwrap();
        let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
        let err = runner.run_main().expect_err("env-configured budget must apply");
        assert_eq!(
            err.to_string(),
            "guest limit: guest fuel exhausted (budget 30000 instructions)"
        );
    });
}

/// A malformed limit env var is a typed construction error, not a silent
/// unlimited run.
#[test]
fn malformed_guest_limit_env_fails_runner_new() {
    with_env(&[("OMPI_GUEST_FUEL", Some("lots"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-fuel-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile("int main() { return 0; }").unwrap();
        let e = Runner::new(&app, &RunnerConfig::default())
            .err()
            .expect("a bad budget must not be ignored")
            .to_string();
        assert!(e.contains("OMPI_GUEST_FUEL"), "error must name the variable, got: {e}");
    });
}
