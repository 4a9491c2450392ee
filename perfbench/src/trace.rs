//! Per-layer timing from outside the program.
//!
//! Every span here is taken by wrapping a call into a layer's public API:
//! [`TracedDev`] is a forwarding [`DeviceModule`] over a `CudaDev` that
//! times each trait method, and [`compile_omp_traced`] replays
//! `Ompicc::compile` stage by stage so the frontend, the translator and
//! nvccsim each get their own span. Nothing inside the system crates is
//! instrumented, so the untraced workloads run exactly the code users run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ompi_nano::cudadev::{
    self, BreakerState, CudaDev, CudaDevConfig, CudadevError, DevClock, MapKind, MemPressure,
    PressureOutcome, TileParam,
};
use ompi_nano::devmod::{DeviceKind, DeviceModule, DeviceRegistry};
use ompi_nano::gpusim::LaunchStats;
use ompi_nano::ompi_core::{CompiledApp, Pipeline, ResolvedConfig, Runner, Translation};
use ompi_nano::vmcommon::MemArena;
use ompi_nano::{minic, nvccsim, sptx};

/// Count, total and raw samples of one timed operation.
#[derive(Clone, Debug, Default)]
pub struct OpStat {
    pub count: u64,
    pub total_ns: u64,
    pub samples_ns: Vec<u64>,
}

impl OpStat {
    pub fn p50_ns(&self) -> f64 {
        let xs: Vec<f64> = self.samples_ns.iter().map(|&x| x as f64).collect();
        crate::report::percentile(&xs, 50.0)
    }
}

/// Span sink shared by the wrappers of one run.
#[derive(Default)]
pub struct Recorder {
    ops: Mutex<BTreeMap<String, OpStat>>,
    /// Nanoseconds spent inside device-module calls since the last
    /// [`Recorder::take_device_ns`] (the "device" part of `Runner::call`).
    device_ns: AtomicU64,
    blocks_executed: AtomicU64,
}

impl Recorder {
    pub fn record(&self, op: &str, ns: u64) {
        let mut ops = self.ops.lock().expect("recorder lock poisoned");
        let s = ops.entry(op.to_string()).or_default();
        s.count += 1;
        s.total_ns += ns;
        s.samples_ns.push(ns);
    }

    /// Time `f` as one span of `op`.
    pub fn time<T>(&self, op: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(op, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Device-module nanoseconds accumulated since the previous call.
    pub fn take_device_ns(&self) -> u64 {
        self.device_ns.swap(0, Ordering::Relaxed)
    }

    pub fn blocks_executed(&self) -> u64 {
        self.blocks_executed.load(Ordering::Relaxed)
    }

    pub fn stat(&self, op: &str) -> OpStat {
        self.ops.lock().expect("recorder lock poisoned").get(op).cloned().unwrap_or_default()
    }
}

/// A [`DeviceModule`] that forwards every method, default ones included,
/// to a `CudaDev` and times it. A method left to the trait's default would
/// silently change behaviour (e.g. `has_pending_maps` answering `false`
/// under memory pressure); the fidelity tests catch that.
pub struct TracedDev {
    inner: Arc<CudaDev>,
    rec: Arc<Recorder>,
    initialized: AtomicBool,
}

impl TracedDev {
    pub fn new(inner: Arc<CudaDev>, rec: Arc<Recorder>) -> TracedDev {
        TracedDev { inner, rec, initialized: AtomicBool::new(false) }
    }

    fn dev(&self) -> &dyn DeviceModule {
        &*self.inner
    }

    fn span<T>(&self, op: &'static str, f: impl FnOnce(&dyn DeviceModule) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.dev());
        let ns = t0.elapsed().as_nanos() as u64;
        self.rec.device_ns.fetch_add(ns, Ordering::Relaxed);
        self.rec.record(op, ns);
        out
    }
}

impl DeviceModule for TracedDev {
    fn kind(&self) -> DeviceKind {
        self.dev().kind()
    }

    fn is_available(&self) -> bool {
        // The first call performs the lazy device initialization.
        let op = if self.initialized.swap(true, Ordering::Relaxed) { "other" } else { "init" };
        self.span(op, |d| d.is_available())
    }

    fn is_broken(&self) -> bool {
        self.dev().is_broken()
    }

    fn breaker_state(&self) -> BreakerState {
        self.dev().breaker_state()
    }

    fn mark_broken(&self) {
        self.dev().mark_broken()
    }

    fn map(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        len: u64,
        kind: MapKind,
    ) -> Result<u64, CudadevError> {
        self.span("map", |d| d.map(host_mem, host_addr, len, kind))
    }

    fn unmap(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        kind: MapKind,
    ) -> Result<(), CudadevError> {
        self.span("unmap", |d| d.unmap(host_mem, host_addr, kind))
    }

    fn update(
        &self,
        host_mem: &MemArena,
        host_addr: u64,
        len: u64,
        to_device: bool,
    ) -> Result<(), CudadevError> {
        self.span("update", |d| d.update(host_mem, host_addr, len, to_device))
    }

    fn dev_addr(&self, host_addr: u64) -> Option<u64> {
        self.span("other", |d| d.dev_addr(host_addr))
    }

    fn has_pending_maps(&self, host_addrs: &[u64]) -> bool {
        self.span("other", |d| d.has_pending_maps(host_addrs))
    }

    fn mark_all_host_dirty(&self) {
        self.span("other", |d| d.mark_all_host_dirty())
    }

    fn release_mappings(&self) -> usize {
        self.span("other", |d| d.release_mappings())
    }

    fn refresh_args(&self, host_mem: &MemArena, host_addrs: &[u64]) -> Result<(), CudadevError> {
        self.span("other", |d| d.refresh_args(host_mem, host_addrs))
    }

    fn offload_pressured(
        &self,
        host_mem: &MemArena,
        module: &str,
        kernel: &str,
        tileable: bool,
        total: u64,
        grid: [u32; 3],
        block: [u32; 3],
        params: &[TileParam],
    ) -> Result<PressureOutcome, CudadevError> {
        self.span("pressured", |d| {
            d.offload_pressured(host_mem, module, kernel, tileable, total, grid, block, params)
        })
    }

    fn mem_pressure(&self) -> Option<MemPressure> {
        self.dev().mem_pressure()
    }

    fn load_module(&self, name: &str) -> Result<Arc<sptx::Module>, CudadevError> {
        self.span("load_module", |d| d.load_module(name))
    }

    fn launch(
        &self,
        host_mem: &MemArena,
        module: &str,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        params: Vec<u64>,
    ) -> Result<LaunchStats, CudadevError> {
        let r = self.span("launch", |d| d.launch(host_mem, module, kernel, grid, block, params));
        if let Ok(stats) = &r {
            self.rec.blocks_executed.fetch_add(stats.blocks_executed, Ordering::Relaxed);
        }
        r
    }

    fn stream_region_begin(&self) {
        self.span("other", |d| d.stream_region_begin())
    }

    fn stream_mark_nowait(&self) {
        self.span("other", |d| d.stream_mark_nowait())
    }

    fn stream_region_end(&self) {
        self.span("other", |d| d.stream_region_end())
    }

    fn stream_sync(&self) {
        self.span("other", |d| d.stream_sync())
    }

    fn clock(&self) -> DevClock {
        self.dev().clock()
    }

    fn reset_clock(&self) {
        self.dev().reset_clock()
    }

    fn record_memcpy(&self, seconds: f64, h2d_bytes: u64, d2h_bytes: u64) {
        self.dev().record_memcpy(seconds, h2d_bytes, d2h_bytes)
    }

    fn raw_device(&self) -> Option<Arc<ompi_nano::gpusim::Device>> {
        self.dev().raw_device()
    }

    fn take_printf_output(&self) -> String {
        self.dev().take_printf_output()
    }
}

/// A `CudaDev` configured field for field as `Runner::new` and
/// `serve::Server::new` configure device 0.
pub fn cuda_dev(kernel_dir: &Path, rc: &ResolvedConfig) -> CudaDev {
    CudaDev::new(CudaDevConfig {
        device_id: 0,
        global_mem: rc.device_mem,
        kernel_dir: kernel_dir.to_path_buf(),
        jit_cache_dir: rc.jit_cache_dir.clone(),
        exec_mode: rc.exec_mode,
        launch_sampling: rc.launch_sampling,
        async_streams: rc.async_streams,
        fault_plan: rc.fault_plan.clone(),
        retry: rc.retry,
        launch_timeout: rc.launch_timeout,
        max_resets: rc.max_resets,
        obs: rc.obs.clone().unwrap_or_else(obs::Obs::disabled),
        ..CudaDevConfig::default()
    })
}

/// `Runner::new` for an OpenMP app, with device 0 behind a [`TracedDev`],
/// built through the public `Runner::with_shared_registry` path the batch
/// server uses.
pub fn traced_runner(
    app: &CompiledApp,
    rc: &ResolvedConfig,
    rec: &Arc<Recorder>,
) -> Result<Runner, String> {
    let dev = Arc::new(cuda_dev(&app.kernel_dir, rc));
    let traced: Arc<dyn DeviceModule> = Arc::new(TracedDev::new(dev, rec.clone()));
    let registry = Arc::new(DeviceRegistry::new(vec![traced]));
    Runner::with_shared_registry(app, registry, rc).map_err(|e| e.to_string())
}

/// `Ompicc::compile` stage by stage (same calls, same order, same files),
/// with spans `parse`, `sema` (both analyses), `translate` and one `nvcc`
/// span per kernel file.
pub fn compile_omp_traced(
    src: &str,
    work_dir: &Path,
    module_prefix: &str,
    mode: nvccsim::BinMode,
    rec: &Recorder,
) -> Result<CompiledApp, String> {
    let mut prog = rec.time("parse", || minic::parse(src)).map_err(|e| e.to_string())?;
    rec.time("sema", || minic::analyze(&mut prog)).map_err(|e| e.to_string())?;
    let pipeline = Pipeline::new().with_module_prefix(module_prefix.to_string());
    let (Translation { mut host, kernels }, _) =
        rec.time("translate", || pipeline.run(&prog)).map_err(|e| e.to_string())?;
    let host_info = rec.time("sema", || minic::analyze(&mut host)).map_err(|e| e.to_string())?;
    let host_text = minic::pretty::program(&host);

    let src_dir = work_dir.join("src");
    let kdir = work_dir.join("kernels");
    std::fs::create_dir_all(&src_dir).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&kdir).map_err(|e| e.to_string())?;
    let nvcc = nvccsim::Nvcc::new(mode, &kdir, cudadev::exports());
    for k in &kernels {
        let cu = src_dir.join(format!("{}.cu", k.module_name));
        std::fs::write(&cu, &k.c_text).map_err(|e| e.to_string())?;
        rec.time("nvcc", || nvcc.compile_kernel_source(&k.module_name, &k.c_text))
            .map_err(|e| e.to_string())?;
    }
    Ok(CompiledApp { host, host_info, host_text, kernels, kernel_dir: kdir, mode })
}
