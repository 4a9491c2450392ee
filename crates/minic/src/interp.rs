//! Host-side execution of mini-C programs: the [`Machine`] (linked
//! program image + guest memory) and the [`Interp`] execution façade.
//!
//! This stands in for "compile the translated C with gcc and run it on the
//! A57 cores": the OMPi translator rewrites OpenMP constructs into plain C
//! plus runtime calls, and this layer executes that C faithfully,
//! delegating every unknown function to pluggable [`Hooks`] (the OMPi host
//! runtime: `hostomp` + `cudadev`).
//!
//! Two engines implement the same semantics:
//!
//! * [`crate::vm::Vm`] — the production engine: programs are compiled once
//!   per machine to register bytecode ([`crate::compile`] →
//!   [`crate::bytecode`]) and dispatched from a flat instruction array.
//! * [`crate::walker::TreeWalker`] — the original tree-walking
//!   interpreter, retained as the differential-test oracle.
//!
//! [`Interp::new`] picks the engine from the machine (default VM;
//! [`Machine::set_engine`] selects the oracle). Both engines produce bit-identical results — same
//! values, same traps, same output — which the differential tests assert.
//!
//! All program state lives in a guest [`MemArena`], so `&x`, pointer
//! arithmetic and byte-exact `memcpy` to the simulated device all behave
//! like real C. Execution is thread-safe: host `parallel` regions run one
//! `Interp` per OS thread over the shared arena.
//!
//! Untranslated OpenMP programs can also be executed directly: directives
//! are then ignored (a legal single-thread OpenMP execution), which provides
//! the sequential reference behaviour used by differential tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use vmcommon::addr::{self, Space};
use vmcommon::alloc::AllocError;
use vmcommon::sync::Mutex;
use vmcommon::{BlockAllocator, MemArena, MemError, Value};

use crate::ast::*;
use crate::bytecode::CompiledProgram;
use crate::limits::{GuestLimitError, GuestLimits};
use crate::sema::ProgramInfo;

pub use crate::rt::convert;

/// Which frontend stage rejected the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontendStage {
    Parse,
    Sema,
}

/// A parse or semantic-analysis failure, with its source position intact
/// (previously these were flattened into an untyped `Trap` string).
#[derive(Clone, Debug)]
pub struct FrontendError {
    pub stage: FrontendStage,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = match self.stage {
            FrontendStage::Parse => "parse",
            FrontendStage::Sema => "semantic",
        };
        write!(f, "{stage} error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl From<crate::parser::ParseError> for FrontendError {
    fn from(e: crate::parser::ParseError) -> Self {
        FrontendError { stage: FrontendStage::Parse, line: e.pos.line, col: e.pos.col, msg: e.msg }
    }
}

impl From<crate::sema::SemaError> for FrontendError {
    fn from(e: crate::sema::SemaError) -> Self {
        FrontendError { stage: FrontendStage::Sema, line: e.pos.line, col: e.pos.col, msg: e.msg }
    }
}

/// Runtime error raised by guest execution.
#[derive(Clone, Debug)]
pub enum InterpError {
    Mem(MemError),
    Alloc(AllocError),
    /// The program never started: parse or sema rejected it.
    Frontend(FrontendError),
    /// Any other guest misbehaviour (unknown function, bad cast, …).
    Trap(String),
    /// A configured resource limit stopped the program (fuel, memory
    /// ceiling, stack depth, job deadline). Recoverable by construction:
    /// the guest misbehaved, the host and device did not.
    Limit(GuestLimitError),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Mem(e) => write!(f, "memory fault: {e}"),
            InterpError::Alloc(e) => write!(f, "allocation fault: {e}"),
            InterpError::Frontend(e) => write!(f, "{e}"),
            InterpError::Trap(m) => write!(f, "trap: {m}"),
            InterpError::Limit(e) => write!(f, "guest limit: {e}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<MemError> for InterpError {
    fn from(e: MemError) -> Self {
        InterpError::Mem(e)
    }
}

impl From<AllocError> for InterpError {
    fn from(e: AllocError) -> Self {
        InterpError::Alloc(e)
    }
}

impl From<FrontendError> for InterpError {
    fn from(e: FrontendError) -> Self {
        InterpError::Frontend(e)
    }
}

impl From<GuestLimitError> for InterpError {
    fn from(e: GuestLimitError) -> Self {
        InterpError::Limit(e)
    }
}

pub type IResult<T> = Result<T, InterpError>;

/// Hooks connect the interpreter to the OMPi runtime libraries.
pub trait Hooks: Send + Sync {
    /// Handle a call to a function that is neither defined in the program
    /// nor a core builtin. Return `Ok(None)` to decline (the interpreter
    /// then traps with "unknown function").
    fn call(&self, name: &str, args: &[Value], ctx: &HookCtx<'_>) -> IResult<Option<Value>>;

    /// Handle a CUDA `kernel<<<grid, block>>>(args)` launch (host CUDA
    /// dialect). The default declines.
    fn kernel_launch(
        &self,
        name: &str,
        _grid: [u32; 3],
        _block: [u32; 3],
        _args: &[Value],
        _ctx: &HookCtx<'_>,
    ) -> IResult<()> {
        Err(InterpError::Trap(format!("no runtime to launch kernel `{name}`")))
    }
}

/// No-op hooks (pure programs).
pub struct NoHooks;

impl Hooks for NoHooks {
    fn call(&self, _name: &str, _args: &[Value], _ctx: &HookCtx<'_>) -> IResult<Option<Value>> {
        Ok(None)
    }
}

/// Context handed to hooks: enough to re-enter guest code and touch memory.
pub struct HookCtx<'a> {
    pub machine: &'a Arc<Machine>,
    pub hooks: &'a Arc<dyn Hooks>,
}

impl<'a> HookCtx<'a> {
    /// Call a guest function on the current thread (fresh stack).
    pub fn call_guest(&self, name: &str, args: &[Value]) -> IResult<Value> {
        let mut i = Interp::new(self.machine.clone(), self.hooks.clone())?;
        i.call(name, args)
    }

    pub fn mem(&self) -> &MemArena {
        &self.machine.mem
    }
}

/// Where `printf` and friends write.
pub type OutputSink = dyn Fn(&str) + Send + Sync;

/// Which execution engine an [`Interp`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Register bytecode VM (production default).
    Vm,
    /// Tree-walking oracle.
    Walker,
}

/// Totals drained from a machine's VM dispatch counters
/// (see [`Machine::drain_vm_counters`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct VmCounters {
    /// Instructions dispatched.
    pub instructions: u64,
    /// Per-category dispatch counts, indexed like
    /// [`crate::bytecode::OP_CATS`].
    pub dispatch: [u64; 6],
}

impl VmCounters {
    pub fn is_zero(&self) -> bool {
        self.instructions == 0 && self.dispatch.iter().all(|&c| c == 0)
    }
}

/// VM instruction counts attributed to one guest source line (see
/// [`Machine::line_profile`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineHit {
    /// Function (chunk) name.
    pub func: String,
    /// 1-based source line (0 = no line info).
    pub line: u32,
    /// Instructions dispatched on this line.
    pub instructions: u64,
    /// Per-category breakdown, indexed like [`crate::bytecode::OP_CATS`].
    pub dispatch: [u64; 6],
}

/// A linked, executable program image plus its guest memory.
pub struct Machine {
    pub prog: Program,
    pub info: ProgramInfo,
    pub mem: MemArena,
    pub heap: Mutex<BlockAllocator>,
    /// Global-variable addresses, indexed like `ProgramInfo::globals`.
    pub(crate) global_addrs: Vec<u64>,
    /// Interned string literals.
    rodata: HashMap<String, u64>,
    /// Function name → item index (definitions only).
    fn_defs: HashMap<String, usize>,
    /// Output sink for printf (also always captured).
    output: Mutex<Option<Box<OutputSink>>>,
    /// Captured output.
    pub captured: Mutex<String>,
    pub(crate) globals_ready: AtomicBool,
    /// Engine for new [`Interp`]s: 0 = VM, 1 = walker.
    engine: AtomicU8,
    /// Lazily compiled bytecode image (built on first VM execution).
    compiled: OnceLock<CompiledProgram>,
    /// VM observability: instructions dispatched, then per-category counts.
    vm_counters: [AtomicU64; 7],
    /// Attribute VM dispatch to source lines (costs one branch per op
    /// when off, a counter bump when on).
    hotspots: AtomicBool,
    /// Accumulated per-(chunk, line) dispatch counts, folded in by
    /// [`crate::vm::Vm`] once per top-level call.
    line_hits: Mutex<HashMap<(u32, u32), [u64; 6]>>,
    /// Guest resource governor: fuel, memory ceiling, stack depth,
    /// deadline. Shared by both engines and the runtime builtins.
    pub(crate) limits: GuestLimits,
}

/// Per-interp stack size (bytes).
pub(crate) const STACK_SIZE: u64 = 4 << 20;

impl Machine {
    /// Build a machine for an analyzed program with `mem_bytes` of guest
    /// memory. Global variables and string literals are laid out
    /// immediately; initializers run on the first [`Interp`] creation.
    /// The machine runs on the VM with hotspot attribution off and the
    /// default guest limits; see [`Machine::new_with_limits`].
    pub fn new(prog: Program, info: ProgramInfo, mem_bytes: usize) -> IResult<Arc<Machine>> {
        Self::new_with_limits(prog, info, mem_bytes, GuestLimits::default())
    }

    /// Build a machine with explicit guest limits (fuel, memory ceiling,
    /// stack depth). Nothing here reads the environment: the engine and
    /// hotspot attribution are set with [`Machine::set_engine`] and
    /// [`Machine::set_hotspots`].
    pub fn new_with_limits(
        prog: Program,
        info: ProgramInfo,
        mem_bytes: usize,
        limits: GuestLimits,
    ) -> IResult<Arc<Machine>> {
        let mem = MemArena::new(mem_bytes);
        // Reserve the first 256 bytes so offset 0 stays an unmapped "null".
        let mut cursor: u64 = 256;

        // Globals.
        let mut global_addrs = Vec::with_capacity(info.globals.len());
        for g in &info.globals {
            let size = g.ty.size().ok_or_else(|| {
                InterpError::Trap(format!("global `{}` has unsized type {}", g.name, g.ty))
            })?;
            cursor = cursor.next_multiple_of(g.ty.align().max(8));
            global_addrs.push(addr::make(Space::Host, cursor));
            cursor += size;
        }

        // String literals.
        let mut rodata = HashMap::new();
        let mut strings = Vec::new();
        collect_strings(&prog, &mut strings);
        for s in strings {
            if rodata.contains_key(&s) {
                continue;
            }
            cursor = cursor.next_multiple_of(8);
            mem.write_bytes(cursor, s.as_bytes())?;
            mem.store_u8(cursor + s.len() as u64, 0)?;
            rodata.insert(s.clone(), addr::make(Space::Host, cursor));
            cursor += s.len() as u64 + 1;
        }

        let heap = BlockAllocator::new(cursor, mem.size() as u64 - cursor);
        let mut fn_defs = HashMap::new();
        for (i, item) in prog.items.iter().enumerate() {
            if let Item::Func(f) = item {
                fn_defs.insert(f.sig.name.clone(), i);
            }
        }

        Ok(Arc::new(Machine {
            prog,
            info,
            mem,
            heap: Mutex::new(heap),
            global_addrs,
            rodata,
            fn_defs,
            output: Mutex::new(None),
            captured: Mutex::new(String::new()),
            globals_ready: AtomicBool::new(false),
            engine: AtomicU8::new(Engine::Vm as u8),
            compiled: OnceLock::new(),
            vm_counters: Default::default(),
            hotspots: AtomicBool::new(false),
            line_hits: Mutex::new(HashMap::new()),
            limits,
        }))
    }

    /// Convenience: parse + analyze + build with a default 64 MiB arena.
    pub fn from_source(src: &str) -> IResult<Arc<Machine>> {
        Self::from_source_with_mem(src, 64 << 20)
    }

    pub fn from_source_with_mem(src: &str, mem_bytes: usize) -> IResult<Arc<Machine>> {
        let mut prog = crate::parser::parse(src).map_err(FrontendError::from)?;
        let info = crate::sema::analyze(&mut prog).map_err(FrontendError::from)?;
        Machine::new(prog, info, mem_bytes)
    }

    /// Guest address of a global by name.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        let i = self.info.globals.iter().position(|g| g.name == name)?;
        Some(self.global_addrs[i])
    }

    /// Guest address of an interned string literal.
    pub(crate) fn rodata_addr(&self, s: &str) -> Option<u64> {
        self.rodata.get(s).copied()
    }

    /// The function definition item, by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.fn_defs.get(name).and_then(|&i| match &self.prog.items[i] {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Engine used by new [`Interp`]s on this machine.
    pub fn engine(&self) -> Engine {
        if self.engine.load(Ordering::Relaxed) == Engine::Walker as u8 {
            Engine::Walker
        } else {
            Engine::Vm
        }
    }

    /// Override the execution engine (tests, A/B measurement). Affects
    /// [`Interp`]s created after the call.
    pub fn set_engine(&self, engine: Engine) {
        self.engine.store(engine as u8, Ordering::Relaxed);
    }

    /// The bytecode image, compiled on first use.
    pub(crate) fn compiled(&self) -> &CompiledProgram {
        self.compiled.get_or_init(|| crate::compile::compile(self))
    }

    /// Add a VM execution's dispatch counts (flushed once per top-level
    /// guest call, not per instruction).
    pub(crate) fn add_vm_counters(&self, instructions: u64, dispatch: &[u64; 6]) {
        self.vm_counters[0].fetch_add(instructions, Ordering::Relaxed);
        for (slot, &n) in self.vm_counters[1..].iter().zip(dispatch) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Take the accumulated VM dispatch counters (resets them to zero).
    pub fn drain_vm_counters(&self) -> VmCounters {
        let mut c = VmCounters {
            instructions: self.vm_counters[0].swap(0, Ordering::Relaxed),
            ..Default::default()
        };
        for (out, slot) in c.dispatch.iter_mut().zip(&self.vm_counters[1..]) {
            *out = slot.swap(0, Ordering::Relaxed);
        }
        c
    }

    /// Is guest-source hotspot attribution on? (Set by
    /// [`Machine::set_hotspots`].)
    pub fn hotspots_enabled(&self) -> bool {
        self.hotspots.load(Ordering::Relaxed)
    }

    /// Enable/disable hotspot attribution for [`Interp`]s created after
    /// the call.
    pub fn set_hotspots(&self, on: bool) {
        self.hotspots.store(on, Ordering::Relaxed);
    }

    /// Fold one chunk's per-pc hit counts into the per-line accumulator
    /// (flushed once per top-level guest call by the VM).
    pub(crate) fn add_line_hits(&self, chunk: u32, pc_hits: &[u64]) {
        let prog = self.compiled();
        let ch = &prog.chunks[chunk as usize];
        let table = &prog.line_tables[ch.line_table as usize];
        let mut hits = self.line_hits.lock();
        for (pc, &n) in pc_hits.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let line = crate::bytecode::line_for_pc(table, pc as u32);
            let cat = ch.code[pc].cat() as usize;
            hits.entry((chunk, line)).or_insert([0; 6])[cat] += n;
        }
    }

    /// The accumulated hotspot profile: VM dispatch counts per
    /// (function, source line), sorted by function name then line.
    /// Empty unless hotspot attribution was enabled during execution.
    pub fn line_profile(&self) -> Vec<LineHit> {
        let prog = self.compiled();
        let hits = self.line_hits.lock();
        let mut rows: Vec<LineHit> = hits
            .iter()
            .map(|(&(chunk, line), d)| LineHit {
                func: prog.chunks[chunk as usize].name.clone(),
                line,
                instructions: d.iter().sum(),
                dispatch: *d,
            })
            .collect();
        rows.sort_by(|a, b| a.func.cmp(&b.func).then(a.line.cmp(&b.line)));
        rows
    }

    /// The guest resource governor (fuel, memory ceiling, stack depth,
    /// deadline), as given at machine build; adjustable through the
    /// setters on [`GuestLimits`].
    pub fn limits(&self) -> &GuestLimits {
        &self.limits
    }

    /// Install a live output sink for `printf` (output is captured too).
    pub fn set_output(&self, sink: Box<OutputSink>) {
        *self.output.lock() = Some(sink);
    }

    pub(crate) fn emit(&self, s: &str) {
        if let Some(sink) = self.output.lock().as_ref() {
            sink(s);
        }
        self.captured.lock().push_str(s);
    }

    /// Take everything printed so far.
    pub fn take_output(&self) -> String {
        std::mem::take(&mut *self.captured.lock())
    }
}

fn collect_strings(prog: &Program, out: &mut Vec<String>) {
    fn in_expr(e: &Expr, out: &mut Vec<String>) {
        if let ExprKind::StrLit(s) = &e.kind {
            out.push(s.clone());
        }
        visit_child_exprs(e, &mut |c| in_expr(c, out));
    }
    fn in_stmt(s: &Stmt, out: &mut Vec<String>) {
        visit_stmt_exprs(s, &mut |e| in_expr(e, out));
        visit_child_stmts(s, &mut |c| in_stmt(c, out));
    }
    for item in &prog.items {
        if let Item::Func(f) = item {
            for s in &f.body.stmts {
                in_stmt(s, out);
            }
        }
    }
}

/// Visit the direct child expressions of an expression.
pub fn visit_child_exprs(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    match &e.kind {
        ExprKind::Call { args, .. } => args.iter().for_each(&mut *f),
        ExprKind::KernelLaunch { grid, block, args, .. } => {
            f(grid);
            f(block);
            args.iter().for_each(&mut *f);
        }
        ExprKind::Dim3 { x, y, z } => {
            f(x);
            if let Some(y) = y {
                f(y);
            }
            if let Some(z) = z {
                f(z);
            }
        }
        ExprKind::Member { base, .. } => f(base),
        ExprKind::Index { base, index } => {
            f(base);
            f(index);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::IncDec { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::SizeofExpr(expr) => f(expr),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Ternary { cond, then_e, else_e } => {
            f(cond);
            f(then_e);
            f(else_e);
        }
        ExprKind::Comma(a, b) => {
            f(a);
            f(b);
        }
        _ => {}
    }
}

/// Visit the direct expressions of a statement (not recursing into child
/// statements).
pub fn visit_stmt_exprs(s: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match s {
        Stmt::Expr(e) => f(e),
        Stmt::Decl(d) => {
            if let Some(init) = &d.init {
                visit_init(init, f);
            }
        }
        Stmt::If { cond, .. } => f(cond),
        Stmt::For { cond, step, .. } => {
            if let Some(c) = cond {
                f(c);
            }
            if let Some(st) = step {
                f(st);
            }
        }
        Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => f(cond),
        Stmt::Return(Some(e)) => f(e),
        _ => {}
    }
}

fn visit_init(i: &Init, f: &mut dyn FnMut(&Expr)) {
    match i {
        Init::Expr(e) => f(e),
        Init::List(list) => list.iter().for_each(|it| visit_init(it, f)),
    }
}

/// Visit the direct child statements of a statement.
pub fn visit_child_stmts(s: &Stmt, f: &mut dyn FnMut(&Stmt)) {
    match s {
        Stmt::Block(b) => b.stmts.iter().for_each(&mut *f),
        Stmt::If { then_s, else_s, .. } => {
            f(then_s);
            if let Some(e) = else_s {
                f(e);
            }
        }
        Stmt::For { init, body, .. } => {
            if let Some(i) = init {
                f(i);
            }
            f(body);
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => f(body),
        Stmt::Omp(o) => {
            if let Some(b) = &o.body {
                f(b);
            }
        }
        _ => {}
    }
}

/// An execution context: one per OS thread, with its own guest stack.
///
/// A façade over the machine-selected engine; all production callers
/// (`core` runner, `hostomp` teams, `cudadev` replay) go through this.
pub enum Interp {
    Vm(crate::vm::Vm),
    Walker(crate::walker::TreeWalker),
}

impl Interp {
    /// Create an execution context with a fresh guest stack, using the
    /// machine's configured [`Engine`]. Runs global initializers on first
    /// creation per machine.
    pub fn new(machine: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Interp> {
        match machine.engine() {
            Engine::Vm => Ok(Interp::Vm(crate::vm::Vm::new(machine, hooks)?)),
            Engine::Walker => Ok(Interp::Walker(crate::walker::TreeWalker::new(machine, hooks)?)),
        }
    }

    /// Run `main` (or any entry) with no arguments.
    pub fn run_main(&mut self) -> IResult<Value> {
        self.call("main", &[])
    }

    /// Call a guest function by name.
    pub fn call(&mut self, name: &str, args: &[Value]) -> IResult<Value> {
        match self {
            Interp::Vm(v) => v.call(name, args),
            Interp::Walker(w) => w.call(name, args),
        }
    }
}
