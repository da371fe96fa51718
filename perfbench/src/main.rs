//! End-to-end pipeline benchmark for `mpc-clustering`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --cli <path to the release mpc-clustering binary>
//!           --data-dir <scratch directory>
//! ```
//!
//! Prints a configuration header, one `name = value unit` line per metric,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `perfbench/run.py` builds the
//! program and this benchmark from source and passes `--cli` and
//! `--data-dir`. See `perfbench/README.md` for what each metric means.

mod check;
mod cpus;
mod report;
mod serving;
mod solve;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use mpc_clustering::core::KCenterEngine;
use mpc_clustering::metric::SpeedTier;
use mpc_clustering::sim::TransportKind;

use check::Checks;
use report::Report;
use solve::Problem;
use workloads::{BatchSpec, RunConfig, STREAM};

/// End-to-end metrics, in result-line order.
const END_TO_END: [&str; 5] = [
    "solve_s",
    "solve_1t_s",
    "setup_s",
    "approx_ratio",
    "peak_rss_mb",
];

/// Per-layer metrics on the traced run's result line, in order. A result
/// line carries the same metrics on every workload, so it holds only the
/// layers every workload reaches: set-up and the pool. The traced run
/// prints every other layer metric (`metric.*`, `memo.*`, `core.*`,
/// `kbmis.*`, `sim.*`, `serving.*`, ...) as a line on the workloads where
/// that layer runs.
const PER_LAYER: [&str; 6] = [
    "cli.parse_s",
    "metric.build_s",
    "pool.cpu_s",
    "pool.cpu_per_wall",
    "pool.cpu_s_1t",
    "pool.cpu_per_wall_1t",
];

enum Workload {
    Batch(BatchSpec),
    Stream,
}

fn workload(name: &str) -> Option<Workload> {
    let batch = |problem, n, dim| BatchSpec {
        problem,
        n,
        dim,
        clusters: 16,
        sigma: 0.02,
        k: 16,
        m: 8,
        epsilon: 0.1,
    };
    match name {
        // n = 10k rather than 20k: at 20k one k-center solve takes 7-10 s,
        // too long to fit the several instances per run that keep a run's
        // median steady across seeds.
        "kcenter-d32" => Some(Workload::Batch(batch(Problem::KCenter, 10_000, 32))),
        "diversity-d4" => Some(Workload::Batch(batch(Problem::Diversity, 20_000, 4))),
        "serving-stream" => Some(Workload::Stream),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        cli: PathBuf::from(value("--cli")?),
        data_dir: PathBuf::from(value("--data-dir")?),
    })
}

fn main() -> ExitCode {
    // The speed tier, engine, transport and thread count are read from
    // KCENTER_* variables once per process; a stray one would silently
    // change what is measured.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("KCENTER_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", stray.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(work) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (kcenter-d32, diversity-d4, serving-stream)",
            args.workload
        );
        return ExitCode::from(2);
    };
    if !args.cli.is_file() {
        eprintln!(
            "perfbench: no mpc-clustering binary at {}",
            args.cli.display()
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dim = match &work {
        Workload::Batch(spec) => spec.dim,
        Workload::Stream => STREAM.dim,
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# config tier={} engine={} transport={} threads={{1,{nproc}}} nproc={nproc}",
        SpeedTier::from_env().name(),
        match &work {
            // The binary calls mpc_kcenter directly; no engine is consulted.
            Workload::Batch(_) => "allpairs (CLI path)",
            Workload::Stream => KCenterEngine::from_env(dim).name(),
        },
        TransportKind::from_env().name(),
    );
    println!("# cpu {} | llc {}", report::cpu_model(), report::llc_size());

    let run = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        cli: &args.cli,
        data_dir: &args.data_dir,
    };
    let (mut checks, mut report) = (Checks::default(), Report::default());
    match &work {
        Workload::Batch(spec) => workloads::run_batch(spec, &run, &mut checks, &mut report),
        Workload::Stream => workloads::run_stream(&STREAM, &run, &mut checks, &mut report),
    }
    report.add("peak_rss_mb", report::peak_rss_mb(), "MiB");
    report.add_noted(
        "fail_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "fraction",
        format!("{} of {} checks failed", checks.failed, checks.attempted),
    );
    for msg in &checks.messages {
        println!("# FAILED {msg}");
    }
    report.print_lines();
    let keep: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        report.json_line(keep, checks.attempted, checks.failed)
    );
    ExitCode::SUCCESS
}
