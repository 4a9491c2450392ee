//! The **host part** of the cudadev module (§4.2.1).
//!
//! Responsible for device discovery and *lazy* initialization, memory
//! allocation and transfers via the (simulated) CUDA driver API, the device
//! data environment (`map` clauses with reference counting, `target data`,
//! `enter`/`exit data`, `update`), and the three-phase kernel launch:
//!
//! 1. **loading** — locate the kernel binary on disk; `.cubin` files
//!    deserialize directly, `.sptx` files are JIT-assembled and linked
//!    against the device library, with a content-hash disk cache;
//! 2. **parameter preparation** — translate host addresses of mapped
//!    variables to their device counterparts;
//! 3. **launch** — set grid/block dimensions and enter the simulator
//!    (`cuLaunchKernel`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gpusim::fault::{FaultPlan, FaultSite};
use gpusim::{Device, ExecError, ExecMode, LaunchConfig, LaunchStats};
use vmcommon::sync::Mutex;
use vmcommon::MemArena;

use crate::devlib::{exports, CudaDeviceLib, NUM_LOCKS};
use crate::error::CudadevError;
use crate::jit;

mod governor;
mod recovery;
mod stream;

pub use governor::{MemPressure, PressureOutcome, TileParam};
pub use recovery::BreakerState;
pub use stream::STREAM_TRACK_BASE;

/// Mapping direction of one map clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    To,
    From,
    ToFrom,
    Alloc,
    Release,
    Delete,
}

/// One live mapping in the device data environment.
#[derive(Clone, Debug)]
struct MapEntry {
    dev_ptr: u64,
    len: u64,
    refcount: u32,
    /// Copy back to host when the last reference is removed.
    copy_out: bool,
    /// No device buffer could be allocated even after eviction: the host
    /// copy stays authoritative and the governor either streams slices per
    /// tile at offload time or declines the offload (OOM fallback).
    pending: bool,
    /// The host copy has been rewritten since the device copy was
    /// uploaded (a host fallback ran under an enclosing `target data`):
    /// skip copy-back, and re-upload before the next launch that uses it.
    host_dirty: bool,
    /// The device copy is newer than the host copy (a kernel wrote it and
    /// no copy-back has happened yet). Recovery must salvage such buffers
    /// to the host before resetting the device, or replay would resurrect
    /// pre-kernel data.
    device_dirty: bool,
}

/// Accumulated virtual device time, broken down by offload phase — the
/// attribution the paper's evaluation is built on. [`DevClock::offload_s`]
/// is the quantity the paper reports ("kernel execution time, plus any
/// required memory operations"); [`DevClock::total_s`] additionally counts
/// one-time setup, retry backoff and host-fallback time, and is exactly the
/// sum of the profile table's columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevClock {
    /// One-time device initialization (lazy, on the first offload).
    pub init_s: f64,
    /// Module loading: cubin deserialize, PTX JIT, or JIT-cache reload.
    pub modload_s: f64,
    /// Kernel execution (including launch overhead).
    pub kernel_s: f64,
    /// Host→device transfer time.
    pub h2d_s: f64,
    /// Device→host transfer time.
    pub d2h_s: f64,
    /// Simulated backoff delay between transient-fault retries.
    pub retry_backoff_s: f64,
    /// Host time re-executing regions after this device failed terminally
    /// (only the host shim's clock accumulates this; see DESIGN.md §7).
    pub fallback_s: f64,
    /// Simulated time saved by the async command streams: the share of
    /// copy/kernel busy time hidden behind other engines' work (copy and
    /// compute engines overlapping, or concurrent `nowait` regions).
    /// Subtracted by [`DevClock::total_s`]/[`DevClock::offload_s`] so the
    /// clock reads elapsed simulated time, not summed busy time. Always 0
    /// in synchronous mode.
    pub overlap_s: f64,
    pub launches: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub jit_compiles: u64,
    pub jit_cache_hits: u64,
    /// Corrupt JIT-cache entries detected and recompiled.
    pub jit_invalidations: u64,
    /// Driver operations retried after a transient fault.
    pub retries: u64,
    /// Regions re-executed on the host after a terminal device failure.
    pub fallbacks: u64,
}

impl DevClock {
    /// Total transfer time, both directions.
    pub fn memcpy_s(&self) -> f64 {
        self.h2d_s + self.d2h_s
    }

    /// The paper's reported metric: kernel time plus required memory
    /// operations (elapsed — overlapped async work is counted once).
    pub fn offload_s(&self) -> f64 {
        self.kernel_s + self.memcpy_s() - self.overlap_s
    }

    /// Every tracked time category, minus the share hidden by async
    /// overlap; the per-device profile table's columns add up to exactly
    /// this.
    pub fn total_s(&self) -> f64 {
        self.init_s
            + self.modload_s
            + self.kernel_s
            + self.h2d_s
            + self.d2h_s
            + self.retry_backoff_s
            + self.fallback_s
            - self.overlap_s
    }

    /// Fold another clock into this one (registry-level aggregation over
    /// multiple devices).
    pub fn merge(&mut self, other: &DevClock) {
        self.init_s += other.init_s;
        self.modload_s += other.modload_s;
        self.kernel_s += other.kernel_s;
        self.h2d_s += other.h2d_s;
        self.d2h_s += other.d2h_s;
        self.retry_backoff_s += other.retry_backoff_s;
        self.fallback_s += other.fallback_s;
        self.overlap_s += other.overlap_s;
        self.launches += other.launches;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.jit_compiles += other.jit_compiles;
        self.jit_cache_hits += other.jit_cache_hits;
        self.jit_invalidations += other.jit_invalidations;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
    }

    /// Zero every accumulator *and* counter — the exact inverse of what
    /// [`DevClock::merge`] folds in, so aggregate views stay consistent
    /// across resets.
    pub fn reset(&mut self) {
        *self = DevClock::default();
    }

    /// This clock as one row of the per-device profile table.
    pub fn profile_row(&self, label: &str) -> obs::ProfileRow {
        obs::ProfileRow {
            label: label.to_string(),
            init_s: self.init_s,
            modload_s: self.modload_s,
            h2d_s: self.h2d_s,
            kernel_s: self.kernel_s,
            d2h_s: self.d2h_s,
            retry_backoff_s: self.retry_backoff_s,
            fallback_s: self.fallback_s,
            overlap_s: self.overlap_s,
            launches: self.launches,
            retries: self.retries,
            fallbacks: self.fallbacks,
            // Latency percentiles come from the metrics histograms, which
            // the clock does not see; the runner fills them in.
            ..obs::ProfileRow::default()
        }
    }
}

/// Bounded exponential backoff for transient driver faults.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// How many times a transiently failing operation is retried before
    /// the error is surfaced.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based) is `base_delay_ms << (k-1)`,
    /// capped at `max_delay_ms`.
    pub base_delay_ms: u64,
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_delay_ms: 1, max_delay_ms: 20 }
    }
}

impl RetryPolicy {
    /// Backoff delay before the `attempt`-th retry (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let ms = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_delay_ms);
        Duration::from_millis(ms)
    }
}

/// Configuration of a CudaDev instance.
#[derive(Clone, Debug)]
pub struct CudaDevConfig {
    /// Logical device number in the registry, also the device's trace
    /// process number. It does not select a fault plan: the caller scopes
    /// `devN:` rules when it builds `fault_plan`.
    pub device_id: u32,
    /// Device DRAM size (bytes).
    pub global_mem: usize,
    /// Directory where kernel binaries live.
    pub kernel_dir: PathBuf,
    /// JIT disk-cache directory (PTX mode).
    pub jit_cache_dir: PathBuf,
    /// How much of each grid to simulate.
    pub exec_mode: ExecMode,
    /// Launch-level sampling: after a warm-up, repeated launches of the
    /// same kernel are *estimated* from recent measured launches (scaled by
    /// total thread count) instead of simulated. Used by the Fig. 4 harness
    /// for gramschmidt-style apps that launch thousands of kernels inside a
    /// host loop. Documented substitution — see DESIGN.md.
    pub launch_sampling: bool,
    /// Deterministic fault-injection plan (see `gpusim::fault`). `None`
    /// means no faults; this crate never reads the environment.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Retry policy for transient driver faults.
    pub retry: RetryPolicy,
    /// Staging-buffer bound for host↔device transfers: copies larger than
    /// this are split into chunked transfers (the governor's "stage" rung),
    /// capping peak transient usage on the shared 2 GB arena.
    pub staging_bytes: u64,
    /// Async command streams: transfers and launches inside a target
    /// region are queued on per-region streams and scheduled on a copy
    /// engine and a compute engine that overlap on the simulated clock
    /// (see `host::stream`). Execution stays eager — results are
    /// bit-identical to synchronous mode; only the virtual timeline (and
    /// `DevClock::overlap_s`) changes.
    pub async_streams: bool,
    /// Observability sink: spans and counters for every driver operation.
    /// Disabled by default (a disabled tracer is one atomic load per
    /// event). The trace process number is `device_id`.
    pub obs: Arc<obs::Obs>,
    /// Watchdog deadline for kernels and transfers: a hung operation is
    /// declared timed out after this much *simulated* waiting and handed
    /// to the recovery manager (`OMPI_LAUNCH_TIMEOUT_MS`).
    pub launch_timeout: Duration,
    /// Reset budget of the recovery circuit breaker: how many consecutive
    /// reset-and-replay attempts may fail before the device latches
    /// permanently broken (`OMPI_MAX_RESETS`).
    pub max_resets: u32,
}

impl Default for CudaDevConfig {
    fn default() -> Self {
        let base = std::env::temp_dir().join("ompi-cudadev");
        CudaDevConfig {
            device_id: 0,
            global_mem: 1 << 30,
            kernel_dir: base.join("kernels"),
            jit_cache_dir: base.join("jitcache"),
            exec_mode: ExecMode::Functional,
            launch_sampling: false,
            fault_plan: None,
            retry: RetryPolicy::default(),
            staging_bytes: 16 << 20,
            async_streams: false,
            obs: obs::Obs::disabled(),
            launch_timeout: Duration::from_millis(250),
            max_resets: 3,
        }
    }
}

/// The cudadev host module.
pub struct CudaDev {
    cfg: CudaDevConfig,
    /// Lazily created on first use (the paper's lazy initialization).
    device: Mutex<Option<Arc<Device>>>,
    initialized: AtomicBool,
    lib: Mutex<Option<Arc<CudaDeviceLib>>>,
    modules: Mutex<HashMap<String, Arc<sptx::Module>>>,
    maps: Mutex<HashMap<u64, MapEntry>>,
    /// Unmapped-but-kept device buffers (the governor's LRU transfer
    /// cache), keyed by host address. Evicted under allocation pressure.
    cache: Mutex<HashMap<u64, governor::CacheEntry>>,
    /// Monotone counter stamping cache entries for LRU ordering.
    lru_tick: std::sync::atomic::AtomicU64,
    pub clock: Mutex<DevClock>,
    /// Per-kernel launch history for launch-level sampling:
    /// (launch count, recent cycles-per-thread estimate).
    launch_hist: Mutex<HashMap<String, (u64, f64)>>,
    /// Async command-stream state (engines, streams, pending busy time).
    streams: stream::AsyncState,
    /// Recovery circuit breaker: reset budget and health state (see
    /// `host::recovery`). The `broken` latch below is only set once this
    /// breaker gives up.
    recovery: Mutex<recovery::RecoveryCtl>,
    /// Latched when the recovery breaker exhausts its reset budget (or the
    /// failure is unrecoverable, e.g. a lost copy-back): every subsequent
    /// operation fails fast with [`CudadevError::Broken`] so the runtime
    /// skips the dead device and runs on the host instead.
    broken: AtomicBool,
    /// Lifetime count of memory-governor ladder rungs taken (evictions,
    /// pending maps, tiled launches, OOM fallbacks) — the scalar pressure
    /// signal behind [`CudaDev::mem_pressure`].
    pressure_events: std::sync::atomic::AtomicU64,
}

impl CudaDev {
    pub fn new(cfg: CudaDevConfig) -> CudaDev {
        CudaDev {
            cfg,
            device: Mutex::new(None),
            initialized: AtomicBool::new(false),
            lib: Mutex::new(None),
            modules: Mutex::new(HashMap::new()),
            maps: Mutex::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            lru_tick: std::sync::atomic::AtomicU64::new(0),
            clock: Mutex::new(DevClock::default()),
            launch_hist: Mutex::new(HashMap::new()),
            streams: stream::AsyncState::default(),
            recovery: Mutex::new(recovery::RecoveryCtl::default()),
            broken: AtomicBool::new(false),
            pressure_events: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Whether the device has been fully initialized yet (it only happens
    /// when the first kernel is about to be offloaded — §4.2.1).
    pub fn is_initialized(&self) -> bool {
        self.initialized.load(Ordering::Acquire)
    }

    /// Has a terminal failure latched the device broken?
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Latch the device broken; all further operations fail fast.
    pub fn mark_broken(&self) {
        self.broken.store(true, Ordering::Release);
    }

    /// This device's trace-process number.
    fn pid(&self) -> u64 {
        self.cfg.device_id as u64
    }

    /// Current simulated time on this device's clock — every trace
    /// timestamp derives from here, never from wall time.
    fn now(&self) -> f64 {
        self.clock.lock().total_s()
    }

    /// The device, initializing on first use; fails instead of panicking
    /// when the (possibly fault-injected) driver cannot come up.
    pub fn try_device(&self) -> Result<Arc<Device>, CudadevError> {
        if self.is_broken() {
            return Err(CudadevError::Broken);
        }
        let mut slot = self.device.lock();
        if let Some(d) = slot.as_ref() {
            return Ok(d.clone());
        }
        let obs = &self.cfg.obs;
        let init_span =
            obs.tracer.span(self.pid(), 0, "device init", "init", || self.now(), vec![]);
        let plan = self.cfg.fault_plan.clone();
        if let Some(p) = &plan {
            if let Err(e) = p.check(FaultSite::Init) {
                if e.is_terminal() {
                    // No device exists yet, so recovery has nothing to
                    // reset or replay; the breaker still paces re-probes of
                    // the init until its budget runs out.
                    let p = p.clone();
                    self.recover_terminal::<()>(None, None, "init", &[], e, || {
                        p.check(FaultSite::Init)
                    })
                    .map_err(|e| match e {
                        CudadevError::Data(e) => CudadevError::Init(e),
                        e => e,
                    })?;
                } else {
                    obs.tracer.instant(
                        self.pid(),
                        0,
                        "fault",
                        "fault",
                        self.now(),
                        vec![("site", "init".into()), ("error", e.to_string().into())],
                    );
                    return Err(CudadevError::Init(e));
                }
            }
        }
        let d = Arc::new(Device::new(self.cfg.global_mem));
        d.set_fault_plan(plan);
        if obs.tracer.is_enabled() {
            d.set_trace(Some(gpusim::DevTrace { obs: obs.clone(), pid: self.pid(), base_s: 0.0 }));
        }
        // Reserve the device runtime control block (critical-section lock
        // words).
        let lock_area = match self.retrying("init", || d.mem_alloc(NUM_LOCKS * 4)) {
            Ok(a) => a,
            Err(e) if e.is_terminal() => self
                .recover_terminal(Some(&d), None, "init", &[], e, || {
                    self.retrying("init", || d.mem_alloc(NUM_LOCKS * 4))
                })
                .map_err(|e| match e {
                    CudadevError::Data(e) => CudadevError::Init(e),
                    e => e,
                })?,
            Err(e) => return Err(CudadevError::Init(e)),
        };
        *self.lib.lock() = Some(Arc::new(CudaDeviceLib::new(lock_area)));
        *slot = Some(d.clone());
        self.clock.lock().init_s += gpusim::timing::DEVICE_INIT_S;
        drop(init_span);
        obs.tracer.set_process_name(self.pid(), &format!("dev{} (cudadev)", self.cfg.device_id));
        obs.metrics.incr(self.pid(), "device_inits", 1);
        self.initialized.store(true, Ordering::Release);
        Ok(d)
    }

    /// The device, initializing on first use. Panics on initialization
    /// failure — a convenience for tests and examples; runtime code goes
    /// through [`CudaDev::try_device`].
    pub fn device(&self) -> Arc<Device> {
        self.try_device().expect("device initialization failed")
    }

    fn devlib(&self) -> Result<Arc<CudaDeviceLib>, CudadevError> {
        self.try_device()?;
        self.lib
            .lock()
            .as_ref()
            .cloned()
            .ok_or_else(|| CudadevError::Init(ExecError::Trap("device library missing".into())))
    }

    /// Run a driver operation, retrying transient faults with bounded
    /// exponential backoff. The backoff delay is charged to the device
    /// clock as `retry_backoff_s` (and still slept in wall time); each
    /// retry leaves a nested span plus a per-site counter bump.
    fn retrying<T>(
        &self,
        site: &str,
        mut f: impl FnMut() -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        let obs = &self.cfg.obs;
        let mut attempt = 0u32;
        loop {
            match f() {
                Err(e) if e.is_transient() && attempt < self.cfg.retry.max_retries => {
                    attempt += 1;
                    let delay = self.cfg.retry.delay(attempt);
                    let delay_s = delay.as_secs_f64();
                    let t0 = {
                        let mut clk = self.clock.lock();
                        clk.retries += 1;
                        let t = clk.total_s();
                        clk.retry_backoff_s += delay_s;
                        t
                    };
                    obs.tracer.instant(
                        self.pid(),
                        0,
                        "fault",
                        "fault",
                        t0,
                        vec![("site", site.into()), ("error", e.to_string().into())],
                    );
                    obs.tracer.complete(
                        self.pid(),
                        0,
                        "retry",
                        "retry",
                        t0,
                        delay_s,
                        vec![("site", site.into()), ("attempt", attempt.into())],
                    );
                    obs.metrics.incr(self.pid(), &format!("retries.{site}"), 1);
                    std::thread::sleep(delay);
                }
                Err(e) => {
                    obs.tracer.instant(
                        self.pid(),
                        0,
                        "fault",
                        "fault",
                        self.now(),
                        vec![("site", site.into()), ("error", e.to_string().into())],
                    );
                    obs.metrics.incr(self.pid(), &format!("faults.{site}"), 1);
                    return Err(e);
                }
                ok => return ok,
            }
        }
    }

    /// Post-process a driver result at a site where recovery cannot help
    /// (e.g. a copy-back whose device-side results are already lost):
    /// terminal failures latch the device broken. A hang is first booked
    /// as a watchdog timeout so the stall is visible and charged.
    fn latch(&self, site: &str, e: ExecError) -> ExecError {
        if matches!(e, ExecError::Hang(_)) {
            self.charge_watchdog(site);
        }
        if e.is_terminal() {
            self.latch_broken(&e);
        }
        e
    }

    /// Latch the device broken, leaving a trace instant the first time.
    /// Queued async stream work is drained first: its virtual time is
    /// charged and the stream state cleared, so the host fallback that
    /// follows starts from a quiesced device rather than re-executing next
    /// to still-pending transfers.
    fn latch_broken(&self, e: &ExecError) {
        self.streams.drain_and_clear(&self.clock);
        if !self.is_broken() {
            self.cfg.obs.tracer.instant(
                self.pid(),
                0,
                "device broken",
                "fault",
                self.now(),
                vec![("error", e.to_string().into())],
            );
            self.cfg.obs.metrics.incr(self.pid(), "broken", 1);
            self.set_breaker(BreakerState::Latched);
            // A latched device is exactly what the flight ring exists for:
            // dump the tail (first trigger wins) before fallback rewrites
            // the recent history.
            self.cfg.obs.flight.post_mortem("device latched broken");
        }
        self.mark_broken();
    }

    // ------------------------------------------------- data environment

    /// Enter a mapping for `[host_addr, host_addr+len)`.
    ///
    /// Under memory pressure this never fails with out-of-memory: the
    /// governor first reuses / evicts cached buffers, and if the arena is
    /// still too small it records a *pending* mapping (no device buffer,
    /// host copy authoritative) whose fate — tiled streaming or host
    /// fallback — is decided at offload time. Pending mappings report
    /// device address 0.
    pub fn map(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        len: u64,
        kind: MapKind,
    ) -> Result<u64, CudadevError> {
        let device = self.try_device()?;
        {
            let mut maps = self.maps.lock();
            if let Some(entry) = maps.get_mut(&host_addr) {
                entry.refcount += 1;
                if matches!(kind, MapKind::From | MapKind::ToFrom) {
                    entry.copy_out = true;
                }
                return Ok(entry.dev_ptr);
            }
        }
        // The maps lock is NOT held across the allocation and upload
        // below: a terminal failure there enters the recovery manager,
        // which needs the map table to salvage and replay. Regions execute
        // sequentially on the host thread, so nothing races the gap.
        let obs = &self.cfg.obs;
        let want_in = matches!(kind, MapKind::To | MapKind::ToFrom);
        let mut need_h2d = want_in;

        // Transfer-reuse: a cached buffer of the same shape skips the
        // allocation, and — when its contents provably match the host copy
        // — the upload too.
        let dev_ptr = match self.cache_take(host_addr, len) {
            Some(cached) => {
                obs.metrics.incr(self.pid(), "cache.reuse", 1);
                if want_in && self.cache_contents_match(host_mem, host_addr, len, &cached) {
                    obs.tracer.instant(
                        self.pid(),
                        0,
                        "transfer reuse",
                        "mem",
                        self.now(),
                        vec![("bytes", len.into()), ("dev_ptr", cached.dev_ptr.into())],
                    );
                    obs.metrics.incr(self.pid(), "transfer_reuse", 1);
                    need_h2d = false;
                }
                Some(cached.dev_ptr)
            }
            None => match self.alloc_pressured(&device, len) {
                Ok(p) => p,
                Err(e) => {
                    let Some(ex) = e.exec_error().filter(|x| x.is_terminal()).cloned() else {
                        return Err(e);
                    };
                    Some(self.recover_terminal(
                        Some(&device),
                        Some(host_mem),
                        "alloc",
                        &[],
                        ex,
                        || self.retrying("alloc", || device.mem_alloc(len)),
                    )?)
                }
            },
        };
        let Some(dev_ptr) = dev_ptr else {
            // Out of memory even after eviction: pend the mapping.
            self.maps.lock().insert(
                host_addr,
                MapEntry {
                    dev_ptr: 0,
                    len,
                    refcount: 1,
                    copy_out: matches!(kind, MapKind::From | MapKind::ToFrom),
                    pending: true,
                    host_dirty: false,
                    device_dirty: false,
                },
            );
            obs.tracer.instant(
                self.pid(),
                0,
                "map pending",
                "pressure",
                self.now(),
                vec![("bytes", len.into()), ("host", host_addr.into())],
            );
            obs.metrics.incr(self.pid(), "maps_pending", 1);
            return Ok(0);
        };
        obs.tracer.instant(
            self.pid(),
            0,
            "alloc",
            "mem",
            self.now(),
            vec![("bytes", len.into()), ("dev_ptr", dev_ptr.into())],
        );
        obs.metrics.observe(self.pid(), "alloc_bytes", len);
        if need_h2d {
            let mut buf = vec![0u8; len as usize];
            host_mem
                .read_bytes(vmcommon::addr::offset(host_addr), &mut buf)
                .map_err(|e| CudadevError::Data(ExecError::Mem(e)))?;
            if let Err(e) = self.h2d_copy(&device, dev_ptr, &buf) {
                if e.is_terminal() {
                    // The buffer just allocated is not in the map table
                    // yet; `extra` keeps it alive (at the same address)
                    // across the reset so the probe can re-upload into it.
                    self.recover_terminal(
                        Some(&device),
                        Some(host_mem),
                        "h2d",
                        &[(dev_ptr, len)],
                        e,
                        || self.h2d_copy(&device, dev_ptr, &buf),
                    )?;
                } else {
                    return Err(CudadevError::Data(e));
                }
            }
        }
        self.maps.lock().insert(
            host_addr,
            MapEntry {
                dev_ptr,
                len,
                refcount: 1,
                copy_out: matches!(kind, MapKind::From | MapKind::ToFrom),
                pending: false,
                host_dirty: false,
                device_dirty: false,
            },
        );
        Ok(dev_ptr)
    }

    /// Exit a mapping; copies back and frees when the refcount drops to 0.
    pub fn unmap(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        kind: MapKind,
    ) -> Result<(), CudadevError> {
        let device = self.try_device()?;
        let mut maps = self.maps.lock();
        // Typed error (not a trap, not a panic) for addresses with no live
        // mapping — never mapped, already unmapped, or evicted. The device
        // stays usable; the runtime decides whether that is a program bug.
        let Some(mut entry) = maps.remove(&host_addr) else {
            return Err(CudadevError::NotMapped { host_addr });
        };
        entry.refcount = entry.refcount.saturating_sub(1);
        if kind != MapKind::Delete && entry.refcount > 0 {
            // Other references keep the mapping alive.
            maps.insert(host_addr, entry);
            return Ok(());
        }
        if entry.pending {
            // Never had a device buffer; the host copy is already
            // authoritative (tiled launches streamed results back as they
            // ran, or a fallback recomputed them on the host).
            return Ok(());
        }
        let obs = &self.cfg.obs;
        let want_out = entry.copy_out || matches!(kind, MapKind::From | MapKind::ToFrom);
        let mut synced: Option<Vec<u8>> = None;
        if want_out
            && kind != MapKind::Delete
            && kind != MapKind::Release
            // A dirty device copy is stale (the host recomputed the data in
            // a fallback); copying it back would clobber the good results.
            && !entry.host_dirty
        {
            let mut buf = vec![0u8; entry.len as usize];
            self.d2h_copy(&device, entry.dev_ptr, &mut buf).map_err(|e| self.latch("d2h", e))?;
            host_mem
                .write_bytes(vmcommon::addr::offset(host_addr), &buf)
                .map_err(|e| CudadevError::Data(ExecError::Mem(e)))?;
            synced = Some(buf);
        }
        if kind == MapKind::Delete {
            self.free_dev(&device, entry.dev_ptr)?;
            obs.tracer.instant(
                self.pid(),
                0,
                "free",
                "mem",
                self.now(),
                vec![("bytes", entry.len.into()), ("dev_ptr", entry.dev_ptr.into())],
            );
        } else {
            // Keep the buffer as an LRU cache entry for transfer reuse;
            // the evict rung reclaims it under allocation pressure.
            self.cache_insert(host_addr, &entry, synced);
        }
        Ok(())
    }

    /// `target update to(...)` / `from(...)`: refresh one side.
    pub fn update(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        len: u64,
        to_device: bool,
    ) -> Result<(), CudadevError> {
        let device = self.try_device()?;
        let mut maps = self.maps.lock();
        let entry = maps.get_mut(&host_addr).ok_or(CudadevError::NotMapped { host_addr })?;
        if entry.pending {
            // No device buffer exists; the host copy is authoritative in
            // both directions, so there is nothing to move.
            return Ok(());
        }
        let len = len.min(entry.len);
        if to_device {
            let mut buf = vec![0u8; len as usize];
            host_mem
                .read_bytes(vmcommon::addr::offset(host_addr), &mut buf)
                .map_err(|e| CudadevError::Data(ExecError::Mem(e)))?;
            self.h2d_copy(&device, entry.dev_ptr, &buf).map_err(|e| self.latch("h2d", e))?;
            // The device copy is fresh again — both sides agree.
            entry.host_dirty = false;
            entry.device_dirty = false;
        } else {
            if entry.host_dirty {
                // The host side is newer (a fallback recomputed it);
                // pulling the stale device copy would lose data.
                return Ok(());
            }
            let mut buf = vec![0u8; len as usize];
            self.d2h_copy(&device, entry.dev_ptr, &mut buf).map_err(|e| self.latch("d2h", e))?;
            host_mem
                .write_bytes(vmcommon::addr::offset(host_addr), &buf)
                .map_err(|e| CudadevError::Data(ExecError::Mem(e)))?;
            if len == entry.len {
                // The host now holds everything the kernel wrote.
                entry.device_dirty = false;
            }
        }
        Ok(())
    }

    /// Parameter preparation: the device address for a mapped host address.
    /// Pending mappings have no device buffer and report `None`.
    pub fn dev_addr(&self, host_addr: u64) -> Option<u64> {
        self.maps.lock().get(&host_addr).filter(|e| !e.pending).map(|e| e.dev_ptr)
    }

    /// Is anything mapped? (test/diagnostic helper)
    pub fn live_mappings(&self) -> usize {
        self.maps.lock().len()
    }

    // ------------------------------------------------------ kernel launch

    /// Loading phase: find and load the kernel module `name` (file stem) in
    /// the kernel directory.
    pub fn load_module(&self, name: &str) -> Result<Arc<sptx::Module>, CudadevError> {
        if let Some(m) = self.modules.lock().get(name) {
            // In-memory hit: the module survived from an earlier job on
            // this device — the signal the batch server's affinity
            // placement is chasing.
            self.cfg.obs.metrics.incr(self.pid(), "modload.mem_hit", 1);
            return Ok(m.clone());
        }
        let load_err =
            |reason: String| CudadevError::ModuleLoad { module: name.to_string(), reason };
        let device = self.try_device()?;
        let obs = &self.cfg.obs;
        let _span = obs.tracer.span(
            self.pid(),
            0,
            "module load",
            "modload",
            || self.now(),
            vec![("module", name.into())],
        );
        self.retrying("modload", || device.fault_check(FaultSite::ModuleLoad))
            .map_err(|e| self.latch("modload", e))
            .map_err(|e| load_err(e.to_string()))?;
        let cubin_path = self.cfg.kernel_dir.join(format!("{name}.cubin"));
        let sptx_path = self.cfg.kernel_dir.join(format!("{name}.sptx"));
        let module: Arc<sptx::Module> = if cubin_path.exists() {
            let bytes = std::fs::read(&cubin_path)
                .map_err(|e| load_err(format!("reading {cubin_path:?}: {e}")))?;
            let m = Arc::new(sptx::cubin::decode(&bytes).map_err(|e| load_err(e.to_string()))?);
            self.clock.lock().modload_s += gpusim::timing::MODULE_LOAD_CUBIN_S;
            obs.tracer.instant(self.pid(), 0, "modload: cubin", "modload", self.now(), vec![]);
            obs.metrics.incr(self.pid(), "modload.cubin", 1);
            m
        } else if sptx_path.exists() {
            // JIT path with disk cache.
            let text = std::fs::read_to_string(&sptx_path)
                .map_err(|e| load_err(format!("reading {sptx_path:?}: {e}")))?;
            if device.fault_check(FaultSite::JitCache).is_err() {
                // Injected cache corruption: scribble over the cached
                // artifact so the loader must detect the damage, invalidate
                // the entry and recompile.
                let cached = jit::cache_path(&text, &self.cfg.jit_cache_dir);
                if cached.exists() {
                    let _ = std::fs::write(&cached, b"\xffcorrupted-cache-entry");
                    self.clock.lock().jit_invalidations += 1;
                    obs.tracer.instant(
                        self.pid(),
                        0,
                        "jit cache invalidated",
                        "fault",
                        self.now(),
                        vec![("module", name.into())],
                    );
                    obs.metrics.incr(self.pid(), "jit_invalidations", 1);
                }
            }
            let (m, cache_hit) = jit::jit_load(&text, &self.cfg.jit_cache_dir, &exports())
                .map_err(|reason| CudadevError::Jit { module: name.to_string(), reason })?;
            let mut clk = self.clock.lock();
            let kind = if cache_hit {
                clk.jit_cache_hits += 1;
                clk.modload_s += gpusim::timing::JIT_CACHE_HIT_S;
                "modload: jit cache hit"
            } else {
                clk.jit_compiles += 1;
                clk.modload_s += gpusim::timing::JIT_COMPILE_S;
                "modload: jit compile"
            };
            drop(clk);
            obs.tracer.instant(self.pid(), 0, kind, "modload", self.now(), vec![]);
            obs.metrics.incr(
                self.pid(),
                if cache_hit { "modload.jit_cache_hit" } else { "modload.jit_compile" },
                1,
            );
            m
        } else {
            return Err(load_err(format!(
                "kernel binary not found in {:?} (looked for .cubin and .sptx)",
                self.cfg.kernel_dir
            )));
        };
        sptx::verify_module(&module).map_err(|e| load_err(e.to_string()))?;
        self.modules.lock().insert(name.to_string(), module.clone());
        Ok(module)
    }

    /// Register an in-memory module (used by tests and the quickstart
    /// example; normal operation loads from disk).
    pub fn register_module(&self, module: sptx::Module) {
        self.modules.lock().insert(module.name.clone(), Arc::new(module));
    }

    /// Launch phase (`cuLaunchKernel`): run `kernel` from module `module`
    /// with raw parameter bits. `host_mem` is the host arena backing the
    /// mapped data environment — the recovery manager replays device
    /// buffers from it if the launch dies terminally.
    pub fn launch(
        &self,
        host_mem: &MemArena,
        module: &str,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        params: Vec<u64>,
    ) -> Result<LaunchStats, CudadevError> {
        let device = self.try_device()?;
        let lib = self.devlib()?;
        let obs = &self.cfg.obs;
        let _span = obs.tracer.span(
            self.pid(),
            0,
            &format!("launch {kernel}"),
            "launch",
            || self.now(),
            vec![
                ("module", module.into()),
                ("kernel", kernel.into()),
                ("grid", format!("{}x{}x{}", grid[0], grid[1], grid[2]).into()),
                ("block", format!("{}x{}x{}", block[0], block[1], block[2]).into()),
            ],
        );
        let m = self.load_module(module)?;
        let launch_err =
            |error: ExecError| CudadevError::Launch { kernel: kernel.to_string(), error };
        let total_threads = grid[0] as u64
            * grid[1] as u64
            * grid[2] as u64
            * block[0] as u64
            * block[1] as u64
            * block[2] as u64;

        // Launch-level sampling: estimate repeated launches of the same
        // kernel from the measured cycles-per-thread of earlier ones.
        if self.cfg.launch_sampling {
            let key = format!("{module}:{kernel}");
            let (count, cpt) = {
                let h = self.launch_hist.lock();
                h.get(&key).copied().unwrap_or((0, 0.0))
            };
            let measure = count < 8 || count % 128 == 0;
            if !measure && cpt > 0.0 {
                let cycles = cpt * total_threads as f64;
                let time_s = gpusim::timing::LAUNCH_OVERHEAD_S + cycles / device.props.clock_hz;
                self.launch_hist.lock().insert(key, (count + 1, cpt));
                let stats = LaunchStats {
                    blocks_total: (grid[0] as u64) * (grid[1] as u64) * (grid[2] as u64),
                    blocks_executed: 0,
                    kernel_cycles: cycles as u64,
                    time_s,
                    ..Default::default()
                };
                self.finish_launch(kernel, &stats);
                return Ok(stats);
            }
            let cfg = LaunchConfig { grid, block, params };
            let mut run = || {
                device.set_trace_base(self.launch_base());
                gpusim::launch(&device, &m, kernel, &cfg, lib.as_ref(), self.cfg.exec_mode)
            };
            let stats = match self.retrying("launch", &mut run) {
                Ok(s) => s,
                Err(e) if e.is_terminal() => self
                    .recover_terminal(Some(&device), Some(host_mem), "launch", &[], e, || {
                        self.retrying("launch", &mut run)
                    })
                    .map_err(|err| match err {
                        CudadevError::Data(error) => {
                            CudadevError::Launch { kernel: kernel.to_string(), error }
                        }
                        err => err,
                    })?,
                Err(e) => return Err(launch_err(e)),
            };
            self.mark_device_dirty_params(&cfg.params);
            let this_cpt = stats.kernel_cycles as f64 / total_threads.max(1) as f64;
            let new_cpt = if cpt > 0.0 { 0.7 * cpt + 0.3 * this_cpt } else { this_cpt };
            self.launch_hist.lock().insert(key, (count + 1, new_cpt));
            self.finish_launch(kernel, &stats);
            return Ok(stats);
        }

        let cfg = LaunchConfig { grid, block, params };
        let mut run = || {
            device.set_trace_base(self.launch_base());
            gpusim::launch(&device, &m, kernel, &cfg, lib.as_ref(), self.cfg.exec_mode)
        };
        let stats = match self.retrying("launch", &mut run) {
            Ok(s) => s,
            Err(e) if e.is_terminal() => self
                .recover_terminal(Some(&device), Some(host_mem), "launch", &[], e, || {
                    self.retrying("launch", &mut run)
                })
                .map_err(|err| match err {
                    CudadevError::Data(error) => {
                        CudadevError::Launch { kernel: kernel.to_string(), error }
                    }
                    err => err,
                })?,
            Err(e) => return Err(launch_err(e)),
        };
        self.mark_device_dirty_params(&cfg.params);
        self.finish_launch(kernel, &stats);
        Ok(stats)
    }

    /// After a simulated kernel actually ran, every mapped buffer it was
    /// handed may have been written: mark them device-dirty so recovery
    /// salvages them before any reset.
    fn mark_device_dirty_params(&self, params: &[u64]) {
        let mut maps = self.maps.lock();
        for e in maps.values_mut() {
            if !e.pending && params.contains(&e.dev_ptr) {
                e.device_dirty = true;
            }
        }
    }

    /// Trace base for an eager kernel simulation: the synchronous clock,
    /// or — on an async stream — where the compute engine would schedule
    /// the kernel, so in-kernel block events line up with the stream span.
    fn launch_base(&self) -> f64 {
        match self.async_stream() {
            Some(s) => self.async_kernel_base(s),
            None => self.now(),
        }
    }

    /// Charge a completed launch to the clock and emit its kernel event
    /// plus occupancy metrics. On an async stream the launch is queued on
    /// the stream engine instead and charged at the next flush.
    fn finish_launch(&self, kernel: &str, stats: &LaunchStats) {
        if let Some(s) = self.async_stream() {
            self.async_finish_launch(s, kernel, stats);
            return;
        }
        let (t0, pid) = {
            let mut clk = self.clock.lock();
            clk.kernel_s += stats.time_s;
            clk.launches += 1;
            (clk.total_s() - stats.time_s, self.pid())
        };
        let obs = &self.cfg.obs;
        obs.tracer.complete(
            pid,
            0,
            &format!("kernel {kernel}"),
            "kernel",
            t0,
            stats.time_s,
            vec![
                ("cycles", stats.kernel_cycles.into()),
                ("blocks", stats.blocks_total.into()),
                ("resident_blocks", stats.resident_blocks.into()),
                ("waves", stats.waves.into()),
            ],
        );
        obs.metrics.incr(pid, "launches", 1);
        obs.metrics.observe(pid, "kernel_cycles", stats.kernel_cycles);
        if stats.waves > 1 {
            // Blocks beyond the resident set had to wait for a wave slot —
            // the occupancy-limited share of the grid.
            obs.metrics.incr(
                pid,
                "occupancy_limited_blocks",
                stats.blocks_total.saturating_sub(stats.resident_blocks),
            );
        }
    }

    /// Reset the virtual clock (per-measurement runs). Zeroes every
    /// accumulator and counter, symmetric with [`DevClock::merge`], and
    /// discards the async stream schedule along with it.
    pub fn reset_clock(&self) {
        self.streams.reset();
        self.clock.lock().reset();
    }

    pub fn kernel_dir(&self) -> &PathBuf {
        &self.cfg.kernel_dir
    }

    pub fn exec_mode(&self) -> ExecMode {
        self.cfg.exec_mode
    }

    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.cfg.exec_mode = mode;
    }
}
