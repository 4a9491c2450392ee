//! `serve` — offload-as-a-service: a long-running multi-tenant batch
//! server over the simulated device fleet.
//!
//! The paper's runtime is a one-shot process: compile one program, build
//! one [`ompi_core::Runner`] (which constructs its own `DeviceRegistry`),
//! run `main`, exit. This crate inverts that ownership for a server that
//! stays up: a [`Scheduler`](scheduler) owns the device fleet, tenants
//! submit compiled guest programs as jobs, and worker threads execute each
//! job through the existing `Runner` machinery against a per-job view of
//! the fleet.
//!
//! The moving parts:
//!
//! * **Tenants & fairness** — per-tenant FIFO queues with stride
//!   (weighted-fair) scheduling and a high-priority lane. A tenant with
//!   weight 2 gets twice the pick rate of a weight-1 tenant under
//!   contention; no tenant starves.
//! * **Admission control** — typed [`ServeError::Overloaded`] rejections
//!   instead of unbounded queues: per-tenant pending caps, a global queue
//!   cap, and a memory gate driven by the governor's
//!   [`cudadev::MemPressure`] export (a job declaring a `mem_hint` larger
//!   than any healthy device could free up is refused at submit time).
//! * **Device affinity** — a tenant's jobs prefer the device that ran its
//!   previous job, where its kernel modules are still resident in the
//!   module cache and its buffers may still sit in the governor's LRU
//!   transfer cache. Placement outcomes are counted as
//!   `serve.affinity.{hit,miss,reroute}`.
//! * **Observability** — aggregate and per-tenant `job_latency_us`
//!   histograms (p50/p95/p99 via [`obs::Hist::percentile`]), job counters
//!   under the server's own metrics pid, and a flight-recorder post-mortem
//!   on every aborted job.
//!
//! Configuration is snapshotted once at [`Server::new`] through
//! [`ompi_core::ResolvedConfig`]; no job ever reads the environment.

mod config;
mod scheduler;
mod server;

pub use config::{ServeConfig, TenantConfig};
pub use server::Server;

use vmcommon::Value;

/// A submitted job's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// A registered program's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProgramId(pub u64);

/// Scheduling lane for a job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    #[default]
    Normal,
    /// Picked before any `Normal` job, still weighted-fair within the lane.
    High,
}

/// A job submission: which program, which entry point, with what
/// arguments.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub program: ProgramId,
    /// Guest function to call (default `main`).
    pub entry: String,
    pub args: Vec<Value>,
    pub priority: Priority,
    /// Advisory device-memory footprint in bytes; the admission gate
    /// refuses the job if no healthy device could free this much. `0`
    /// opts out of the gate.
    pub mem_hint: u64,
}

impl JobSpec {
    pub fn new(program: ProgramId) -> JobSpec {
        JobSpec {
            program,
            entry: "main".to_string(),
            args: Vec::new(),
            priority: Priority::Normal,
            mem_hint: 0,
        }
    }
}

/// A finished job.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub id: JobId,
    pub tenant: String,
    /// Fleet device the job ran on; `None` means host execution (the
    /// whole fleet was broken).
    pub device: Option<usize>,
    /// The entry point's return value, or the typed runner error text.
    pub value: Result<Value, String>,
    /// Captured guest stdout plus device printf output.
    pub output: String,
    /// Wall-clock submit→completion latency in microseconds.
    pub latency_us: u64,
}

/// Server-level errors. Job-level guest failures are *not* here — they
/// come back in [`JobResult::value`] so one tenant's crash never looks
/// like a server fault.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Admission control refused the job; `reason` is one of
    /// `tenant_queue_full`, `global_queue_full`, `mem_pressure`.
    Overloaded {
        reason: &'static str,
    },
    UnknownTenant(String),
    UnknownProgram(ProgramId),
    /// The program does not belong to the submitting tenant.
    WrongTenant {
        program: ProgramId,
        owner: String,
    },
    Compile(String),
    /// A malformed config value or fault plan, naming the variable or
    /// field it came from.
    Config(ompi_core::ConfigError),
    Io(String),
    /// The server is shutting down; no new jobs.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { reason } => write!(f, "server overloaded: {reason}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServeError::UnknownProgram(p) => write!(f, "unknown program {p:?}"),
            ServeError::WrongTenant { program, owner } => {
                write!(f, "program {program:?} belongs to tenant `{owner}`")
            }
            ServeError::Compile(e) => write!(f, "compile: {e}"),
            ServeError::Config(e) => write!(f, "config: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
