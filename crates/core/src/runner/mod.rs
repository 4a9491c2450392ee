//! Execution of compiled applications: wires the host interpreter's hooks
//! to the OMPi runtimes — `hostomp` for `ort_*` calls and the device
//! registry for `__dev_*` offloading — exactly where OMPi's generated C
//! would call its runtime libraries.
//!
//! Every `__dev_*` hook takes a leading device-id argument (the value the
//! translator bound from the construct's `device()` clause); the
//! [`DeviceRegistry`] resolves it to a [`DeviceModule`], so one runner can
//! drive several simulated GPUs with independent clocks, fault plans, and
//! broken-device latches.

use cudadev::{DevClock, RetryPolicy};
use devmod::{DeviceModule, DeviceRegistry};
use gpusim::{ExecMode, FaultPlan};
use minic::interp::{Hooks, IResult, Interp, InterpError, Machine};
use std::sync::Arc;
use vmcommon::Value;

use crate::driver::{CompiledApp, CompiledCudaApp};

mod config;
mod hooks;

pub use config::{
    ConfigError, ResolvedConfig, DEFAULT_DEVICE_MEM, DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS,
};
pub use hooks::OmpiHooks;

/// Runner configuration.
///
/// The four device knobs that also have `OMPI_*` env vars are `Option`s:
/// `None` means "not set here — let the env var, then the default, apply";
/// `Some` always wins over the environment. (Historically the env vars
/// silently *overrode* explicit fields, the exact bug a long-running
/// server cannot live with.) See [`ResolvedConfig::resolve`] for the full
/// precedence contract.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Host guest-memory size.
    pub host_mem: usize,
    /// Device DRAM size (per device). `None` defers to `OMPI_DEV_MEM`,
    /// then [`DEFAULT_DEVICE_MEM`].
    pub device_mem: Option<usize>,
    /// Grid simulation mode.
    pub exec_mode: ExecMode,
    /// JIT cache directory (PTX mode), shared across devices.
    pub jit_cache_dir: std::path::PathBuf,
    /// Estimate repeated launches from earlier ones (see cudadev docs).
    pub launch_sampling: bool,
    /// Number of simulated offload devices in the registry.
    pub num_devices: usize,
    /// Async command streams: transfers and launches are scheduled on
    /// per-region streams whose copy and compute engines overlap on the
    /// simulated clock (results stay bit-identical — execution is eager).
    /// `None` defers to `OMPI_ASYNC` (strict boolean), then `false`.
    pub async_streams: Option<bool>,
    /// Deterministic fault-injection plan for device 0 (tests). Devices
    /// this leaves unset take their share of `OMPI_FAULT_PLAN`, whose
    /// `devN:`-prefixed rules scope to device `N`. For programmatic
    /// multi-device plans use [`RunnerConfig::fault_spec`] instead.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Fault-plan source text with optional `devN:` prefixes, parsed once
    /// per device at resolve time. Sets every device's plan, and takes
    /// precedence over [`RunnerConfig::fault_plan`].
    pub fault_spec: Option<String>,
    /// Retry policy for transient driver faults.
    pub retry: RetryPolicy,
    /// Watchdog deadline for kernels and transfers: a hung operation is
    /// declared timed out after this much simulated waiting and handed to
    /// the recovery manager. `None` defers to `OMPI_LAUNCH_TIMEOUT_MS`,
    /// then [`DEFAULT_LAUNCH_TIMEOUT`].
    pub launch_timeout: Option<std::time::Duration>,
    /// How many consecutive reset-and-replay attempts may fail before a
    /// device latches permanently broken. `None` defers to
    /// `OMPI_MAX_RESETS`, then [`DEFAULT_MAX_RESETS`].
    pub max_resets: Option<u32>,
    /// Guest instruction budget per machine (`OMPI_GUEST_FUEL`): a hostile
    /// `while(1);` returns [`minic::limits::GuestLimitError::FuelExhausted`]
    /// instead of hanging the process. `None` = unlimited.
    pub fuel: Option<u64>,
    /// Guest heap + stack-frame byte ceiling (`OMPI_GUEST_MEM`). `None` =
    /// unlimited (bounded only by the host arena).
    pub guest_mem: Option<u64>,
    /// Guest call-depth limit in frames (`OMPI_GUEST_STACK`). `None`
    /// keeps the historical default of 200.
    pub guest_stack: Option<u32>,
    /// Wall-clock deadline for each guest job (`OMPI_JOB_TIMEOUT_MS`),
    /// armed at every [`Runner::call`] and checked at the engines'
    /// fuel-check boundary. `None` = no deadline.
    pub job_timeout: Option<std::time::Duration>,
    /// Explicit observability sink (tracer + metrics). `None` makes the
    /// runner create its own sink from the `OMPI_TRACE`, `OMPI_PROFILE`,
    /// `OMPI_HOTSPOTS` and `OMPI_FLIGHT_DUMP` environment variables: a set
    /// `OMPI_TRACE` makes the runner write Chrome trace-event JSON there on
    /// drop, and `OMPI_PROFILE=1` prints the per-device profile table to
    /// stderr. An explicit sink leaves all four unread — the caller owns
    /// export.
    pub obs: Option<Arc<obs::Obs>>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            host_mem: 256 << 20,
            device_mem: None,
            exec_mode: ExecMode::Functional,
            jit_cache_dir: std::env::temp_dir().join("ompi-jitcache"),
            launch_sampling: false,
            num_devices: 1,
            async_streams: None,
            fault_plan: None,
            fault_spec: None,
            retry: RetryPolicy::default(),
            launch_timeout: None,
            max_resets: None,
            fuel: None,
            guest_mem: None,
            guest_stack: None,
            job_timeout: None,
            obs: None,
        }
    }
}

/// How a runner's observability was resolved (explicit sink vs a sink the
/// runner creates from the snapshot).
struct ObsSetup {
    obs: Arc<obs::Obs>,
    /// The runner created this sink: it performs the snapshot's drop-time
    /// exports and may fire the last-chance flight post-mortem. An
    /// explicit shared sink must not — a short-lived runner would consume
    /// the one dump out from under longer-lived ones (first-trigger-wins).
    owned: bool,
}

impl ObsSetup {
    fn resolve(cfg: &ResolvedConfig) -> ObsSetup {
        match &cfg.obs {
            Some(o) => ObsSetup { obs: o.clone(), owned: false },
            None => ObsSetup {
                obs: obs::Obs::new(cfg.trace_path.is_some(), cfg.flight_dump.clone()),
                owned: true,
            },
        }
    }
}

/// A config error surfaced through the interpreter's error type (the
/// message names the variable or field).
fn config_trap(e: ConfigError) -> InterpError {
    InterpError::Trap(e.to_string())
}

/// A runnable application instance.
pub struct Runner {
    pub machine: Arc<Machine>,
    pub hooks: Arc<OmpiHooks>,
    hooks_dyn: Arc<dyn Hooks>,
    /// Write the trace here on drop (runner-owned sink, `OMPI_TRACE`).
    trace_path: Option<std::path::PathBuf>,
    /// Print the profile table on drop (runner-owned sink, `OMPI_PROFILE`).
    profile_on_drop: bool,
    /// Print the hotspot table on drop (runner-owned sink, `OMPI_HOTSPOTS`).
    hotspots_on_drop: bool,
    /// Fire the last-chance flight post-mortem on drop (runner-owned sink).
    flight_on_drop: bool,
    /// Wall-clock deadline armed on the machine at every guest call.
    job_timeout: Option<std::time::Duration>,
}

impl Runner {
    /// The one constructor: every application — OpenMP or pure CUDA — runs
    /// against a registry-dispatched hook set; the only variation is
    /// whether kernel launches resolve through a fixed CUDA module.
    fn with_registry(
        host: minic::ast::Program,
        host_info: minic::sema::ProgramInfo,
        registry: Arc<DeviceRegistry>,
        cuda_module: Option<String>,
        cfg: &ResolvedConfig,
        setup: ObsSetup,
    ) -> IResult<Runner> {
        // Everything the machine needs comes from the snapshot — nothing
        // is re-read per job in a long-running server.
        let machine = Machine::new_with_limits(host, host_info, cfg.host_mem, cfg.guest_limits())?;
        machine.set_hotspots(cfg.hotspots);
        let hooks = Arc::new(OmpiHooks::new(registry, cuda_module, setup.obs));
        let hooks_dyn: Arc<dyn Hooks> = hooks.clone();
        Ok(Runner {
            machine,
            hooks,
            hooks_dyn,
            trace_path: cfg.trace_path.clone().filter(|_| setup.owned),
            profile_on_drop: setup.owned && cfg.profile,
            hotspots_on_drop: setup.owned && cfg.hotspots,
            flight_on_drop: setup.owned,
            job_timeout: cfg.job_timeout,
        })
    }

    /// Run against a fleet of this runner's own, built from the snapshot.
    fn with_own_fleet(
        host: minic::ast::Program,
        host_info: minic::sema::ProgramInfo,
        kernel_dir: &std::path::Path,
        cuda_module: Option<String>,
        cfg: &ResolvedConfig,
    ) -> IResult<Runner> {
        let setup = ObsSetup::resolve(cfg);
        let fleet = cfg.build_fleet(kernel_dir, &setup.obs);
        let devices = fleet.into_iter().map(|d| d as Arc<dyn DeviceModule>).collect();
        let registry = Arc::new(DeviceRegistry::new(devices));
        Self::with_registry(host, host_info, registry, cuda_module, cfg, setup)
    }

    /// Instantiate a compiled OpenMP application.
    ///
    /// Env vars apply only to fields the config leaves unset (see
    /// [`ResolvedConfig::resolve`]): with no explicit
    /// [`RunnerConfig::device_mem`], `OMPI_DEV_MEM=64M`-style values cap
    /// the per-device arena, exercising the memory governor's degradation
    /// ladder (OpenMP path only — the CUDA baseline manages raw device
    /// memory itself and would just crash).
    pub fn new(app: &CompiledApp, cfg: &RunnerConfig) -> IResult<Runner> {
        Self::from_resolved(app, &ResolvedConfig::resolve(cfg).map_err(config_trap)?)
    }

    /// Instantiate a compiled OpenMP application from a config snapshot,
    /// with a device fleet of its own. Nothing here reads the environment.
    pub fn from_resolved(app: &CompiledApp, cfg: &ResolvedConfig) -> IResult<Runner> {
        Self::with_own_fleet(app.host.clone(), app.host_info.clone(), &app.kernel_dir, None, cfg)
    }

    /// Instantiate a compiled OpenMP application against a caller-owned
    /// registry and a pre-resolved config snapshot. This is the batch
    /// server's path: the scheduler owns the device fleet and hands each
    /// job the device(s) it placed it on; nothing here reads the
    /// environment.
    pub fn with_shared_registry(
        app: &CompiledApp,
        registry: Arc<DeviceRegistry>,
        cfg: &ResolvedConfig,
    ) -> IResult<Runner> {
        let setup = ObsSetup::resolve(cfg);
        Self::with_registry(app.host.clone(), app.host_info.clone(), registry, None, cfg, setup)
    }

    /// Instantiate a compiled pure-CUDA application.
    pub fn new_cuda(app: &CompiledCudaApp, cfg: &RunnerConfig) -> IResult<Runner> {
        Self::with_own_fleet(
            app.host.clone(),
            app.host_info.clone(),
            &app.kernel_dir,
            Some(app.module_name.clone()),
            &ResolvedConfig::resolve_cuda(cfg).map_err(config_trap)?,
        )
    }

    /// Call a guest function. A guest that exceeds a configured resource
    /// limit (fuel, memory ceiling, stack depth, job deadline) returns the
    /// typed [`InterpError::Limit`] — never a panic or a hang — with device
    /// state salvaged for the next job (see `on_guest_limit`).
    pub fn call(&self, name: &str, args: &[Value]) -> IResult<Value> {
        self.machine.limits().arm_deadline(self.job_timeout);
        let mut i = Interp::new(self.machine.clone(), self.hooks_dyn.clone())?;
        let r = i.call(name, args);
        self.machine.limits().arm_deadline(None);
        self.record_vm_counters();
        if let Err(InterpError::Limit(l)) = &r {
            self.on_guest_limit(l);
        }
        r
    }

    /// Clean-up after a guest hit a resource limit. The *guest* misbehaved
    /// — the device did not — so this must leave the device ready for the
    /// next job and must not touch the recovery breaker:
    /// 1. drain queued async work (the streams' `drain_and_clear` path),
    /// 2. release the aborted job's device mappings (its buffers will
    ///    never be read again),
    /// 3. record `guest_limit.<kind>` + a `limit` trace instant, and give
    ///    the flight recorder its post-mortem trigger.
    fn on_guest_limit(&self, l: &minic::limits::GuestLimitError) {
        let registry = &self.hooks.registry;
        registry.sync_streams();
        for i in 0..registry.num_devices() {
            if let Some(d) = registry.device(i) {
                d.release_mappings();
            }
        }
        let pid = self.hooks.host_pid();
        let obs = self.obs();
        obs.metrics.incr(pid, &format!("guest_limit.{}", l.kind()), 1);
        obs.tracer.instant(
            pid,
            0,
            "limit",
            "limit",
            registry.clock_of(pid as usize).unwrap_or_default().total_s(),
            vec![("kind", l.kind().into()), ("error", l.to_string().into())],
        );
        obs.flight.post_mortem(&format!("guest limit: {l}"));
    }

    /// Drain the machine's VM dispatch counters into the obs metrics
    /// (`vm.instructions`, `vm.dispatch.*` on the host shim's pid).
    fn record_vm_counters(&self) {
        let c = self.machine.drain_vm_counters();
        if c.is_zero() {
            return;
        }
        let pid = self.hooks.host_pid();
        self.obs().metrics.incr(pid, "vm.instructions", c.instructions);
        for (cat, &n) in minic::bytecode::OP_CATS.iter().zip(&c.dispatch) {
            if n != 0 {
                self.obs().metrics.incr(pid, &format!("vm.dispatch.{cat}"), n);
            }
        }
    }

    /// Run `main()`.
    pub fn run_main(&self) -> IResult<Value> {
        self.call("main", &[])
    }

    /// The device registry (per-device clocks, broken-latches, ICVs).
    pub fn registry(&self) -> &Arc<DeviceRegistry> {
        &self.hooks.registry
    }

    /// Number of registered offload devices.
    pub fn num_devices(&self) -> usize {
        self.hooks.registry.num_devices()
    }

    /// The accumulated virtual device time (the paper's reported metric),
    /// summed over all offload devices — identical to the single device's
    /// clock in default configurations.
    pub fn dev_clock(&self) -> DevClock {
        self.hooks.registry.aggregate_clock()
    }

    /// One offload device's virtual clock (`idx == num_devices()` reads
    /// the host shim's clock).
    pub fn dev_clock_of(&self, idx: usize) -> Option<DevClock> {
        self.hooks.registry.clock_of(idx)
    }

    /// Reset the virtual device clocks (before a measured run).
    pub fn reset_dev_clock(&self) {
        self.hooks.registry.reset_clocks();
    }

    /// Whether a terminal device fault has latched device 0 broken
    /// (subsequent target regions there execute on the host).
    pub fn device_broken(&self) -> bool {
        self.device_broken_at(0)
    }

    /// Whether a terminal device fault has latched device `idx` broken.
    pub fn device_broken_at(&self, idx: usize) -> bool {
        self.hooks.registry.device(idx).map(|d| d.is_broken()).unwrap_or(false)
    }

    /// Captured guest stdout.
    pub fn take_output(&self) -> String {
        self.machine.take_output()
    }

    /// Captured device printf output across all devices (empty if no
    /// device ever came up).
    pub fn take_device_output(&self) -> String {
        self.hooks.registry.take_printf_output()
    }

    /// The observability sink this runner records into.
    pub fn obs(&self) -> &Arc<obs::Obs> {
        &self.hooks.obs
    }

    /// The per-device profile table (simulated time by phase), rendered.
    /// The latency columns come from each device's `region_latency_us`
    /// histogram (pid = row index; the host shim's row comes last and
    /// stays zero — fallbacks are charged to the originating device's
    /// region span).
    pub fn profile_table(&self) -> String {
        let mut rows = self.hooks.registry.profile_rows();
        for (pid, row) in rows.iter_mut().enumerate() {
            if let Some(h) = self.hooks.obs.metrics.hist(pid as u64, "region_latency_us") {
                row.lat_p50_us = h.percentile(50.0).unwrap_or(0);
                row.lat_p95_us = h.percentile(95.0).unwrap_or(0);
                row.lat_p99_us = h.percentile(99.0).unwrap_or(0);
            }
        }
        obs::render_profile(&rows)
    }

    /// The guest-source hotspot table: VM dispatch attributed to source
    /// lines through the compiler's pc→line tables. Empty (with a hint)
    /// unless the machine collected attribution (`OMPI_HOTSPOTS=1` in the
    /// snapshot, or [`Machine::set_hotspots`]).
    pub fn hotspot_table(&self) -> String {
        let rows: Vec<obs::HotLine> = self
            .machine
            .line_profile()
            .into_iter()
            .map(|h| obs::HotLine {
                func: h.func,
                line: h.line,
                instructions: h.instructions,
                dispatch: h.dispatch,
            })
            .collect();
        obs::render_hotspots("guest vm", &rows)
    }

    /// Make sure every trace "process" carries a human-readable name
    /// (first-wins: devices that came up already named themselves).
    fn name_trace_processes(&self) {
        let tracer = &self.hooks.obs.tracer;
        for i in 0..self.hooks.registry.num_devices() {
            tracer.set_process_name(i as u64, &format!("dev{i}"));
        }
        tracer.set_process_name(self.hooks.host_pid(), "host (initial device)");
    }

    /// Write the recorded trace as Chrome trace-event JSON.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.name_trace_processes();
        self.hooks.obs.tracer.write_json(path)
    }
}

impl Drop for Runner {
    /// Exports of a runner-owned sink, as the snapshot resolved them:
    /// `OMPI_TRACE` writes the trace JSON, `OMPI_PROFILE` prints the
    /// profile table to stderr, `OMPI_HOTSPOTS` the guest-source hotspot
    /// table. Explicit `RunnerConfig::obs` sinks skip all three (the
    /// caller owns export).
    fn drop(&mut self) {
        if let Some(path) = self.trace_path.take() {
            if let Err(e) = self.write_trace(&path) {
                eprintln!("ompi: failed to write trace to {}: {e}", path.display());
            }
        }
        if self.profile_on_drop {
            eprintln!("{}", self.profile_table());
        }
        if self.hotspots_on_drop {
            eprintln!("{}", self.hotspot_table());
        }
        // Last-chance flight dump (`OMPI_FLIGHT_DUMP` with no fault this
        // run): a no-op without a dump path, and first-trigger-wins if a
        // latch or watchdog already dumped. Runner-owned sinks only — with an
        // explicit shared sink the caller owns the end-of-run trigger.
        if self.flight_on_drop {
            self.hooks.obs.flight.post_mortem("runner drop");
        }
    }
}
