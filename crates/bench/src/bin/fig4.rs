//! Regenerate the paper's Fig. 4 (a)–(f): execution time vs problem size
//! for the pure CUDA version and the OMPi/cudadev version of each
//! application.
//!
//! Usage:
//!   fig4 [--app NAME] [--sizes a,b,c] [--full] [--max-blocks N]
//!        [--trace PATH] [--profile] [--hotspots] [--mem SIZE] [--async]
//!        [--fuel N] [--job-timeout-ms N] [--chaos-seed N]
//!        [--engine vm|walker] [--json PATH] [--quick]
//!
//! `--engine` selects the minic execution engine for every machine in the
//! run (each variant's runner, whose machine also runs host fallback and
//! replay, and the host-sequential series): the register
//! bytecode VM (default) or the tree-walking oracle. Checksums and
//! simulated clocks are bit-identical between the two; only wall time
//! differs. `--json PATH` additionally writes a machine-readable
//! perf-trajectory artifact (wall-clock + simulated-clock per app and
//! variant, including a host-sequential series at each app's
//! `bench_size`) for the CI bench-smoke regression gate. `--quick` runs
//! the device series at each app's test size instead of the paper sizes —
//! the configuration the committed baseline and CI use.
//!
//! `--chaos-seed N` runs the OMPi variant under the chaos fault plan
//! `chaos:N` (see `gpusim::FaultPlan::chaos`): a seeded random mix of
//! transient faults, hangs and terminal failures that exercises the
//! watchdog / reset-and-replay / circuit-breaker recovery path while
//! keeping results bit-identical. Combine with `--trace` to inspect the
//! `recovery.reset` and `breaker.probe` events on the timeline. The CUDA
//! baseline is left un-faulted — it has no recovery runtime to degrade
//! through.
//!
//! `--fuel N` and `--job-timeout-ms N` arm the guest resource governor on
//! the OMPi variant (instruction budget / wall-clock deadline per `run()`
//! call — see the "Guest limits" section in the README). A tripped limit
//! surfaces as a typed error from the runner instead of a hang; the CUDA
//! baseline has no guest interpreter to govern and runs unlimited.
//!
//! `--mem 32M` caps the OMPi variant's device arena below the working set,
//! driving the memory governor's evict → stage → tile → fallback ladder
//! (the CUDA baseline keeps its full arena: it manages raw device memory
//! itself and has no governor to degrade through).
//!
//! `--async` runs the OMPi variant with async command streams: transfers
//! and launches schedule on per-region streams whose copy and compute
//! engines overlap on the simulated clock. Results are bit-identical to
//! the synchronous run (compare the `# checksum` lines); the hidden time
//! shows up in the `overlap` comment lines and as per-stream trace tracks.
//! Combine with `--mem` to see the governor's double-buffered tiling
//! pipeline transfers under compute within a single region.
//!
//! By default every app runs over its paper sizes in sampled-simulation
//! mode (see DESIGN.md for the sampling substitution). `--full` forces
//! functional simulation (slow; use small sizes). `--trace PATH` writes a
//! Chrome trace-event JSON of every run (load in Perfetto / chrome://tracing)
//! and `--profile` prints the per-device simulated-time profile table after
//! each measurement.
//!
//! `--hotspots` prints each app's guest-source "hot lines" table: VM
//! instruction/dispatch counters attributed to source lines through the
//! compiler's pc→line tables. The attribution always comes from a
//! dedicated host-sequential pass on the bytecode VM (at the app's test
//! size), regardless of `--engine` — the walker executes the same
//! statements but dispatches no bytecode, so the VM's table is *the*
//! hotspot table for both engines and `--engine vm` / `--engine walker`
//! print identical output.

use std::sync::Arc;

use gpusim::ExecMode;
use minic::interp::Engine;
use unibench::{
    all_apps, app_by_name, build_variant_cfg, host_machine, measure, output_checksum,
    run_host_once, runner_config, Variant,
};

/// One measured point for the `--json` artifact.
struct JsonRow {
    app: &'static str,
    variant: &'static str,
    n: u32,
    wall_s: f64,
    sim_s: f64,
    kernel_s: f64,
    memcpy_s: f64,
    launches: u64,
    checksum: u64,
    vm_instructions: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app_filter: Option<String> = None;
    let mut sizes_override: Option<Vec<u32>> = None;
    let mut full = false;
    let mut max_blocks = 4u32;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut profile = false;
    let mut hotspots = false;
    let mut mem_cap: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut job_timeout_ms: Option<u64> = None;
    let mut async_streams = false;
    let mut chaos_seed: Option<u64> = None;
    let mut engine = "vm".to_string();
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--app" => {
                app_filter = Some(args[i + 1].clone());
                i += 2;
            }
            "--sizes" => {
                sizes_override =
                    Some(args[i + 1].split(',').map(|s| s.trim().parse().expect("size")).collect());
                i += 2;
            }
            "--full" => {
                full = true;
                i += 1;
            }
            "--max-blocks" => {
                max_blocks = args[i + 1].parse().expect("max-blocks");
                i += 2;
            }
            "--trace" => {
                trace_path = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--hotspots" => {
                hotspots = true;
                i += 1;
            }
            "--mem" => {
                mem_cap = Some(vmcommon::fmt::parse_size(&args[i + 1]).unwrap_or_else(|e| {
                    eprintln!("--mem: {e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--fuel" => {
                fuel = Some(args[i + 1].parse().unwrap_or_else(|_| {
                    eprintln!("--fuel: expected an instruction budget, got `{}`", args[i + 1]);
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--job-timeout-ms" => {
                job_timeout_ms = Some(args[i + 1].parse().unwrap_or_else(|_| {
                    eprintln!("--job-timeout-ms: expected milliseconds, got `{}`", args[i + 1]);
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--async" => {
                async_streams = true;
                i += 1;
            }
            "--chaos-seed" => {
                chaos_seed = Some(args[i + 1].parse().expect("chaos-seed"));
                i += 2;
            }
            "--engine" => {
                engine = args[i + 1].clone();
                if engine != "vm" && engine != "walker" {
                    eprintln!("--engine: expected `vm` or `walker`, got `{engine}`");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--json" => {
                json_path = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let engine_kind = if engine == "walker" { Engine::Walker } else { Engine::Vm };

    // This binary is the process edge: it reads `OMPI_FLIGHT_DUMP` itself
    // for the explicit sink every runner shares.
    let flight_dump = std::env::var("OMPI_FLIGHT_DUMP")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .map(std::path::PathBuf::from);
    let obs = obs::Obs::new(trace_path.is_some() || profile, flight_dump);

    let mode = if full { ExecMode::Functional } else { ExecMode::Sampled { max_blocks } };
    let work = std::env::temp_dir().join("ompi-fig4");

    let apps = match &app_filter {
        Some(name) => vec![app_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown app `{name}`; available: 3dconv bicg atax mvt gemm gramschmidt");
            std::process::exit(2);
        })],
        None => all_apps(),
    };

    println!("# Fig. 4 reproduction — simulated Jetson Nano 2GB (sm_53, 128-core Maxwell)");
    println!("# mode: {:?}; engine: {engine}; times are simulated seconds (kernel + memory operations)\n", mode);
    let mut rows: Vec<JsonRow> = Vec::new();
    for app in apps {
        let sizes: Vec<u32> = sizes_override.clone().unwrap_or_else(|| {
            if quick {
                vec![app.test_size]
            } else {
                app.paper_sizes.to_vec()
            }
        });
        println!("## {}", app.name);
        println!("{:>8}  {:>14}  {:>14}  {:>8}", "size", "CUDA [s]", "OMPi [s]", "OMPi/CUDA");
        for &n in &sizes {
            let mut row = Vec::new();
            for variant in [Variant::Cuda, Variant::OmpiCudadev] {
                let mut cfg = runner_config((app.footprint)(n), mode, true);
                cfg.obs = Some(obs.clone());
                if variant == Variant::OmpiCudadev {
                    if let Some(cap) = mem_cap {
                        let base = cfg.device_mem.unwrap_or(usize::MAX);
                        cfg.device_mem = Some((cap as usize).min(base));
                    }
                    cfg.async_streams = Some(async_streams);
                    if let Some(seed) = chaos_seed {
                        cfg.fault_spec = Some(format!("chaos:{seed}"));
                    }
                    cfg.fuel = fuel;
                    cfg.job_timeout = job_timeout_ms.map(std::time::Duration::from_millis);
                }
                let built = build_variant_cfg(&app, variant, &work, &cfg);
                built.runner.machine.set_engine(engine_kind);
                // Runner::call drains the machine's VM counters into obs
                // metrics at the host-shim pid; the delta is this run's.
                let pid = built.runner.registry().num_devices() as u64;
                let insns0 = obs.metrics.counter(pid, "vm.instructions");
                let t0 = std::time::Instant::now();
                let m = measure(&app, &built, n);
                let wall_s = t0.elapsed().as_secs_f64();
                if json_path.is_some() {
                    rows.push(JsonRow {
                        app: app.name,
                        variant: if variant == Variant::Cuda { "cuda" } else { "ompi" },
                        n,
                        wall_s,
                        sim_s: m.time_s,
                        kernel_s: m.kernel_s,
                        memcpy_s: m.memcpy_s,
                        launches: m.launches,
                        checksum: m.checksum,
                        vm_instructions: obs.metrics.counter(pid, "vm.instructions") - insns0,
                    });
                }
                println!(
                    "# checksum {} n={n} {} {:#018x}",
                    app.name,
                    variant.label().replace(' ', "-"),
                    m.checksum
                );
                if async_streams && variant == Variant::OmpiCudadev {
                    println!(
                        "# overlap {} n={n}: {:.6}s hidden of {:.6}s busy",
                        app.name,
                        m.overlap_s,
                        m.time_s + m.overlap_s
                    );
                }
                if profile {
                    println!("# {} {} n={n}", app.name, variant.label());
                    for line in built.runner.profile_table().lines() {
                        println!("# {line}");
                    }
                }
                // The aggregate is the registry-level sum; show the
                // per-device split whenever more than one device is live.
                if m.per_device.len() > 1 {
                    for (i, d) in m.per_device.iter().enumerate() {
                        println!(
                            "#   {} dev{i}: total {:.6}s (kernel {:.6}s, memcpy {:.6}s), {} launches",
                            variant.label(),
                            d.total_s(),
                            d.kernel_s,
                            d.memcpy_s(),
                            d.launches
                        );
                    }
                }
                row.push(m.time_s);
            }
            println!(
                "{:>8}  {:>14.6}  {:>14.6}  {:>8.3}",
                n,
                row[0],
                row[1],
                row[1] / row[0].max(1e-12)
            );
        }
        if json_path.is_some() {
            // Host-sequential series: the guest program executed directly
            // (no translation, no device) — the engine's raw throughput,
            // which the bench-smoke CI gate watches for regressions.
            let n = app.bench_size;
            let m = host_machine(&app, n).unwrap();
            m.set_engine(engine_kind);
            let t0 = std::time::Instant::now();
            let out = run_host_once(&app, &m, n)
                .unwrap_or_else(|e| panic!("{} host-seq failed at n={n}: {e}", app.name));
            let wall_s = t0.elapsed().as_secs_f64();
            let checksum = output_checksum(&out);
            println!(
                "# checksum {} n={n} host-seq {:#018x}  ({wall_s:.3}s wall)",
                app.name, checksum
            );
            rows.push(JsonRow {
                app: app.name,
                variant: "host-seq",
                n,
                wall_s,
                sim_s: 0.0,
                kernel_s: 0.0,
                memcpy_s: 0.0,
                launches: 0,
                checksum,
                vm_instructions: m.drain_vm_counters().instructions,
            });
        }
        if hotspots {
            print!("{}", hotspot_table(&app));
        }
        println!();
    }

    if let Some(path) = &json_path {
        match std::fs::write(path, render_json(&engine, &format!("{mode:?}"), &rows)) {
            Ok(()) => eprintln!("# perf trajectory written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = trace_path {
        match write_trace(&obs, &path) {
            Ok(()) => eprintln!("# trace written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // End-of-run flight dump (`OMPI_FLIGHT_DUMP`, no-op without it). The
    // runners share this explicit sink and therefore skip their own
    // drop-time trigger; a device latch or watchdog timeout mid-run
    // already dumped and wins over this one.
    obs.flight.post_mortem("fig4 exit");
}

/// Hand-rolled JSON for the `BENCH_fig4.json` perf-trajectory artifact —
/// no serde in the tree, and the shape is flat enough not to want it.
fn render_json(engine: &str, mode: &str, rows: &[JsonRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"ompi-nano/fig4/v1\",\n");
    s.push_str(&format!("  \"engine\": \"{engine}\",\n"));
    s.push_str(&format!("  \"mode\": \"{}\",\n", mode.replace('"', "")));
    s.push_str("  \"series\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"wall_s\": {:.6}, \
             \"sim_s\": {:.9}, \"kernel_s\": {:.9}, \"memcpy_s\": {:.9}, \"launches\": {}, \
             \"vm_instructions\": {}, \"checksum\": \"{:#018x}\"}}{}\n",
            r.app,
            r.variant,
            r.n,
            r.wall_s,
            r.sim_s,
            r.kernel_s,
            r.memcpy_s,
            r.launches,
            r.vm_instructions,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The guest-source hotspot table for one app: a dedicated attribution
/// pass on the bytecode VM (host-sequential, at the app's test size). The
/// VM is forced regardless of `--engine`, so the table is identical under
/// `--engine vm` and `--engine walker` by construction.
fn hotspot_table(app: &unibench::App) -> String {
    let n = app.test_size;
    let m = host_machine(app, n).unwrap_or_else(|e| panic!("{} hotspots: {e}", app.name));
    m.set_engine(Engine::Vm);
    m.set_hotspots(true);
    run_host_once(app, &m, n)
        .unwrap_or_else(|e| panic!("{} hotspot pass failed at n={n}: {e}", app.name));
    let rows: Vec<obs::HotLine> = m
        .line_profile()
        .into_iter()
        .map(|h| obs::HotLine {
            func: h.func,
            line: h.line,
            instructions: h.instructions,
            dispatch: h.dispatch,
        })
        .collect();
    obs::render_hotspots(&format!("{} n={n} (vm attribution)", app.name), &rows)
}

/// Export the combined trace of every run. Runners named their own device
/// processes as they initialized (first-wins), so only unnamed processes
/// still need labels — fig4 runners are single-device, making pid 0 the
/// offload device and pid 1 the host shim.
fn write_trace(obs: &Arc<obs::Obs>, path: &std::path::Path) -> std::io::Result<()> {
    obs.tracer.set_process_name(0, "dev0");
    obs.tracer.set_process_name(1, "host (initial device)");
    obs.tracer.write_json(path)
}
