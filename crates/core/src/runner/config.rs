//! Config resolution and the device fleet: the one place the library
//! reads `OMPI_*` variables from the environment.
//!
//! [`RunnerConfig`] keeps the user-facing builder shape — tunable fields
//! are `Option`s so "explicitly set" and "left at default" are different
//! states. [`ResolvedConfig::resolve`] snapshots it against the process
//! environment exactly once, with the documented precedence:
//!
//! 1. an explicit `RunnerConfig` field always wins,
//! 2. otherwise a well-formed env var applies,
//! 3. otherwise the built-in default.
//!
//! A malformed env var that would have applied (rule 2) is a typed
//! [`ConfigError`], never a silent fallback — the same stance
//! `OMPI_GUEST_FUEL` has taken since the guest governor landed. Long-lived
//! processes (the `serve` batch server) resolve once at startup and run
//! every job from the snapshot, so a mid-run `setenv` can never
//! reconfigure tenants behind their backs. The crates below `core` (minic,
//! obs, gpusim, cudadev) take explicit values and never read the
//! environment themselves.
//!
//! [`ResolvedConfig::build_fleet`] turns a snapshot into devices; it is the
//! only fleet builder, shared by the standalone runner and the batch
//! server.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cudadev::{CudaDev, CudaDevConfig, RetryPolicy};
use gpusim::{ExecMode, FaultPlan};
use minic::limits::GuestLimits;

use super::RunnerConfig;

/// Default per-device DRAM size when neither config nor env say otherwise.
pub const DEFAULT_DEVICE_MEM: usize = 512 << 20;
/// Default hang-watchdog deadline (`OMPI_LAUNCH_TIMEOUT_MS`).
pub const DEFAULT_LAUNCH_TIMEOUT: Duration = Duration::from_millis(250);
/// Default reset budget before a device latches broken (`OMPI_MAX_RESETS`).
pub const DEFAULT_MAX_RESETS: u32 = 3;

/// A malformed `OMPI_*` value that was about to apply. Typed so callers
/// (and the batch server's admission path) can report it without string
/// matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Not parseable as the expected integer.
    Int { var: &'static str, value: String },
    /// Not a recognized boolean spelling (see [`obs::parse_bool`]).
    Bool { var: &'static str, value: String },
    /// `parse_size` rejected the value.
    Size { var: &'static str, msg: String },
    /// A parsed byte count that does not fit `usize` on this target —
    /// previously a silent `as usize` wrap on 32-bit.
    Overflow { var: &'static str, bytes: u64 },
    /// `FaultPlan::parse_for_device` rejected the plan text.
    FaultPlan { var: &'static str, msg: String },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Int { var, value } => {
                write!(f, "{var}: `{value}` is not an integer")
            }
            ConfigError::Bool { var, value } => {
                write!(f, "{var}: `{value}` is not a boolean (use 1/true/on/yes or 0/false/off/no)")
            }
            ConfigError::Size { var, msg } | ConfigError::FaultPlan { var, msg } => {
                write!(f, "{var}: {msg}")
            }
            ConfigError::Overflow { var, bytes } => {
                write!(f, "{var}: {bytes} bytes does not fit in usize on this target")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A fully-concrete runner configuration: every knob has its final value
/// and no environment read remains. One snapshot serves any number of
/// jobs; [`super::Runner::with_shared_registry`] takes it directly.
#[derive(Clone, Debug)]
pub struct ResolvedConfig {
    pub host_mem: usize,
    pub device_mem: usize,
    pub exec_mode: ExecMode,
    pub jit_cache_dir: PathBuf,
    pub launch_sampling: bool,
    pub num_devices: usize,
    pub async_streams: bool,
    /// Device 0's fault plan. `None` means no faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Fault plans of devices `1..num_devices`, in device order.
    pub other_fault_plans: Vec<Option<Arc<FaultPlan>>>,
    pub retry: RetryPolicy,
    pub launch_timeout: Duration,
    pub max_resets: u32,
    pub fuel: Option<u64>,
    pub guest_mem: Option<u64>,
    pub guest_stack: Option<u32>,
    pub job_timeout: Option<Duration>,
    pub obs: Option<Arc<obs::Obs>>,
    /// `OMPI_TRACE`: where a runner that owns its sink writes the Chrome
    /// trace on drop (tracing is on iff this is set).
    pub trace_path: Option<PathBuf>,
    /// `OMPI_PROFILE`: print the per-device profile table on drop.
    pub profile: bool,
    /// `OMPI_HOTSPOTS`: collect guest-source attribution on every job's
    /// machine, and print the hotspot table on drop.
    pub hotspots: bool,
    /// `OMPI_FLIGHT_DUMP`: the flight recorder's dump path for a sink the
    /// runner or server creates itself.
    pub flight_dump: Option<PathBuf>,
}

impl ResolvedConfig {
    /// Snapshot for the OpenMP offload path: all of `OMPI_DEV_MEM`,
    /// `OMPI_ASYNC`, `OMPI_LAUNCH_TIMEOUT_MS`, `OMPI_MAX_RESETS`,
    /// `OMPI_JOB_TIMEOUT_MS`, the `OMPI_GUEST_*` limits, `OMPI_FAULT_PLAN`
    /// and the obs variables may apply (each only where the config left
    /// the field unset).
    pub fn resolve(cfg: &RunnerConfig) -> Result<ResolvedConfig, ConfigError> {
        Self::resolve_inner(cfg, true)
    }

    /// Snapshot for the pure-CUDA baseline: the device knobs come from the
    /// config alone (`OMPI_DEV_MEM` would just crash a baseline that
    /// manages raw device memory itself), while the job deadline and guest
    /// limits, the fault plan and the obs variables still honour their env
    /// vars.
    pub fn resolve_cuda(cfg: &RunnerConfig) -> Result<ResolvedConfig, ConfigError> {
        Self::resolve_inner(cfg, false)
    }

    fn resolve_inner(cfg: &RunnerConfig, runner_env: bool) -> Result<ResolvedConfig, ConfigError> {
        let device_mem = match (cfg.device_mem, runner_env) {
            (Some(m), _) => m,
            (None, true) => env_size_usize("OMPI_DEV_MEM")?.unwrap_or(DEFAULT_DEVICE_MEM),
            (None, false) => DEFAULT_DEVICE_MEM,
        };
        let async_streams = match (cfg.async_streams, runner_env) {
            (Some(a), _) => a,
            (None, true) => env_bool("OMPI_ASYNC")?.unwrap_or(false),
            (None, false) => false,
        };
        let launch_timeout = match (cfg.launch_timeout, runner_env) {
            (Some(t), _) => t,
            (None, true) => env_u64("OMPI_LAUNCH_TIMEOUT_MS")?
                .map(Duration::from_millis)
                .unwrap_or(DEFAULT_LAUNCH_TIMEOUT),
            (None, false) => DEFAULT_LAUNCH_TIMEOUT,
        };
        let max_resets = match (cfg.max_resets, runner_env) {
            (Some(n), _) => n,
            (None, true) => env_u32("OMPI_MAX_RESETS")?.unwrap_or(DEFAULT_MAX_RESETS),
            (None, false) => DEFAULT_MAX_RESETS,
        };
        let job_timeout = match cfg.job_timeout {
            Some(t) => Some(t),
            None => env_u64("OMPI_JOB_TIMEOUT_MS")?.map(Duration::from_millis),
        };
        let fuel = match cfg.fuel {
            Some(f) => Some(f),
            None => env_u64("OMPI_GUEST_FUEL")?,
        };
        let guest_mem = match cfg.guest_mem {
            Some(m) => Some(m),
            None => env_size("OMPI_GUEST_MEM")?,
        };
        let guest_stack = match cfg.guest_stack {
            Some(s) => Some(s),
            None => env_u32("OMPI_GUEST_STACK")?,
        };
        let mut fault_plans = resolve_fault_plans(cfg)?.into_iter();
        // An explicit sink means the caller owns export: the obs variables
        // would apply to nothing, so they stay unread. Their flags are
        // forgiving (an unrecognized value is "off"), but go through the
        // one strict vocabulary so `OMPI_PROFILE=off` never means on.
        let obs_env = |var| if cfg.obs.is_none() { env_text(var) } else { None };
        let obs_flag = |var| obs_env(var).and_then(|v| obs::parse_bool(&v)).unwrap_or(false);
        Ok(ResolvedConfig {
            host_mem: cfg.host_mem,
            device_mem,
            exec_mode: cfg.exec_mode,
            jit_cache_dir: cfg.jit_cache_dir.clone(),
            launch_sampling: cfg.launch_sampling,
            num_devices: cfg.num_devices,
            async_streams,
            fault_plan: fault_plans.next().flatten(),
            other_fault_plans: fault_plans.collect(),
            retry: cfg.retry,
            launch_timeout,
            max_resets,
            fuel,
            guest_mem,
            guest_stack,
            job_timeout,
            obs: cfg.obs.clone(),
            trace_path: obs_env("OMPI_TRACE").map(PathBuf::from),
            profile: obs_flag("OMPI_PROFILE"),
            hotspots: obs_flag("OMPI_HOTSPOTS"),
            flight_dump: obs_env("OMPI_FLIGHT_DUMP").map(PathBuf::from),
        })
    }

    /// Device `dev`'s fault plan (`None` = no faults).
    pub fn fault_plan_of(&self, dev: usize) -> Option<Arc<FaultPlan>> {
        match dev {
            0 => self.fault_plan.clone(),
            _ => self.other_fault_plans.get(dev - 1).cloned().flatten(),
        }
    }

    /// The device fleet this snapshot describes: `num_devices` simulated
    /// GPUs loading kernels from `kernel_dir`, each with its own clock,
    /// breaker and fault plan, all recording into `obs`. Standalone
    /// runners wrap it in their own registry; the batch server hands it
    /// to its scheduler.
    pub fn build_fleet(&self, kernel_dir: &Path, obs: &Arc<obs::Obs>) -> Vec<Arc<CudaDev>> {
        (0..self.num_devices)
            .map(|i| {
                Arc::new(CudaDev::new(CudaDevConfig {
                    device_id: i as u32,
                    global_mem: self.device_mem,
                    kernel_dir: kernel_dir.to_path_buf(),
                    jit_cache_dir: self.jit_cache_dir.clone(),
                    exec_mode: self.exec_mode,
                    launch_sampling: self.launch_sampling,
                    async_streams: self.async_streams,
                    fault_plan: self.fault_plan_of(i),
                    retry: self.retry,
                    launch_timeout: self.launch_timeout,
                    max_resets: self.max_resets,
                    obs: obs.clone(),
                    ..CudaDevConfig::default()
                }))
            })
            .collect()
    }

    /// The guest governor state for one job's machine, built from the
    /// snapshot — no environment read.
    pub fn guest_limits(&self) -> GuestLimits {
        let l = GuestLimits::default();
        l.set_fuel(self.fuel);
        l.set_mem_limit(self.guest_mem);
        if let Some(s) = self.guest_stack {
            l.set_stack_limit(s);
        }
        l
    }
}

/// Every device's fault plan, parsed and checked now rather than at lazy
/// device init (where a bad plan would turn into a silent host fallback).
/// An explicit `fault_spec` sets every device and an explicit `fault_plan`
/// sets device 0; `OMPI_FAULT_PLAN` is read only if some device is left
/// unset, and applies only to those devices.
fn resolve_fault_plans(cfg: &RunnerConfig) -> Result<Vec<Option<Arc<FaultPlan>>>, ConfigError> {
    let parse = |var, text: &str, dev: usize| {
        FaultPlan::parse_for_device(text, dev as u32)
            .map(Arc::new)
            .map_err(|e| ConfigError::FaultPlan { var, msg: e.to_string() })
    };
    let mut env = None;
    (0..cfg.num_devices)
        .map(|dev| match (&cfg.fault_spec, &cfg.fault_plan) {
            (Some(spec), _) => parse("RunnerConfig::fault_spec", spec, dev).map(Some),
            (None, Some(p)) if dev == 0 => Ok(Some(p.clone())),
            _ => match env.get_or_insert_with(|| env_text("OMPI_FAULT_PLAN")) {
                Some(text) => {
                    parse("OMPI_FAULT_PLAN", text, dev).map(|p| (!p.is_empty()).then_some(p))
                }
                None => Ok(None),
            },
        })
        .collect()
}

/// The variable's value, if set and not blank.
fn env_text(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|s| !s.trim().is_empty())
}

fn env_u64(var: &'static str) -> Result<Option<u64>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ConfigError::Int { var, value: s.clone() }),
        Err(_) => Ok(None),
    }
}

fn env_u32(var: &'static str) -> Result<Option<u32>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => s
            .trim()
            .parse::<u32>()
            .map(Some)
            .map_err(|_| ConfigError::Int { var, value: s.clone() }),
        Err(_) => Ok(None),
    }
}

fn env_bool(var: &'static str) -> Result<Option<bool>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => match obs::parse_bool(&s) {
            Some(b) => Ok(Some(b)),
            None => Err(ConfigError::Bool { var, value: s }),
        },
        Err(_) => Ok(None),
    }
}

fn env_size(var: &'static str) -> Result<Option<u64>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => vmcommon::fmt::parse_size(&s)
            .map(Some)
            .map_err(|e| ConfigError::Size { var, msg: e.to_string() }),
        Err(_) => Ok(None),
    }
}

fn env_size_usize(var: &'static str) -> Result<Option<usize>, ConfigError> {
    match env_size(var)? {
        Some(bytes) => {
            usize::try_from(bytes).map(Some).map_err(|_| ConfigError::Overflow { var, bytes })
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-dependent resolution is covered by `tests/config_precedence.rs`,
    // which serializes on a process-wide lock; the pure paths are here.

    #[test]
    fn defaults_fill_unset_fields() {
        let rc = ResolvedConfig::resolve_cuda(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.device_mem, DEFAULT_DEVICE_MEM);
        assert!(!rc.async_streams);
        assert_eq!(rc.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
        assert_eq!(rc.max_resets, DEFAULT_MAX_RESETS);
    }

    #[test]
    fn explicit_fields_pass_through() {
        let cfg = RunnerConfig {
            device_mem: Some(1 << 20),
            async_streams: Some(true),
            launch_timeout: Some(Duration::from_millis(7)),
            max_resets: Some(9),
            ..Default::default()
        };
        let rc = ResolvedConfig::resolve_cuda(&cfg).unwrap();
        assert_eq!(rc.device_mem, 1 << 20);
        assert!(rc.async_streams);
        assert_eq!(rc.launch_timeout, Duration::from_millis(7));
        assert_eq!(rc.max_resets, 9);
    }

    #[test]
    fn config_error_messages_name_the_variable() {
        let e = ConfigError::Bool { var: "OMPI_ASYNC", value: "off?".into() };
        assert!(e.to_string().contains("OMPI_ASYNC"));
        let e = ConfigError::Overflow { var: "OMPI_DEV_MEM", bytes: u64::MAX };
        assert!(e.to_string().contains("OMPI_DEV_MEM"));
        assert!(e.to_string().contains("does not fit"));
    }

    #[test]
    fn guest_limits_come_from_the_snapshot() {
        let cfg = RunnerConfig {
            fuel: Some(123),
            guest_mem: Some(456),
            guest_stack: Some(7),
            ..Default::default()
        };
        let rc = ResolvedConfig::resolve_cuda(&cfg).unwrap();
        let l = rc.guest_limits();
        assert_eq!(l.fuel_budget(), Some(123));
        assert_eq!(l.mem_limit(), Some(456));
        assert_eq!(l.stack_limit(), 7);
    }
}
