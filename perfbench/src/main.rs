//! `perfbench --workload offload|hostseq|serve --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics, one per line with unit and
//! sample count, then a one-line JSON result: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Exits non-zero when
//! the arguments or the repository checkout are unusable.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::{hostseq, offload, serve_load, Opts};

const USAGE: &str = "usage: perfbench --workload offload|hostseq|serve --seed N --seconds S \
                     --trace 0|1 [--work DIR] [--root DIR]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        work: PathBuf::from("perfbench/work"),
        root: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--workload" => o.workload = v.clone(),
            "--seed" => o.seed = v.parse().map_err(bad)?,
            "--seconds" => o.seconds = v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))?,
            "--trace" => o.trace = v != "0",
            "--work" => o.work = PathBuf::from(v),
            "--root" => o.root = PathBuf::from(v),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if o.seconds <= 0.0 || !o.seconds.is_finite() {
        return Err("--seconds must be positive".to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Opts, &mut Report) = match o.workload.as_str() {
        "offload" => offload::run,
        "hostseq" => hostseq::run,
        "serve" => serve_load::run,
        w => {
            eprintln!("perfbench: unknown workload `{w}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&o.work);
    let mut rep = Report::default();
    rep.note(format!(
        "workload {} seed {} seconds {} trace {} ({} CPUs)",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    run(&o, &mut rep);
    let _ = std::fs::remove_dir_all(&o.work);
    print!("{}", rep.render(o.trace));
    ExitCode::SUCCESS
}
