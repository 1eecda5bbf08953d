//! One benchmark for the cmg workspace: end-to-end and per-layer
//! metrics on three workloads (see `perfbench/README.md`).
//!
//! Usage:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!   --workload <sim_weak_grid|circuit_net|serve_mix> \
//!   --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` the measured window runs untraced and the result
//! line carries the end-to-end metrics. With `--trace 1` the window
//! alternates untraced and traced operations (the difference is the
//! tracing overhead) and is followed by fixed-size extras for the
//! counters; the result line carries the per-layer metrics. Every output is checked;
//! a wrong one makes the run exit non-zero after printing the result.
//!
//! The binary doubles as the net engine's rank worker: spawned as
//! `<exe> <sock_dir> <rank>`, it runs `cmg_net::worker_main`.

mod alloc;
mod circuit;
mod grid;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where spans and sockets go, relative to the checkout root.
const OUT_DIR: &str = ".perfbench";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["sim_weak_grid", "circuit_net", "serve_mix"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `op` back to back until `secs` have passed and at least
/// `min_ops` ran, or until `op` returns `None`. `op(i)` returns the
/// latency it measured, in seconds; the samples come back in order.
pub fn run_window(secs: f64, min_ops: usize, mut op: impl FnMut(u64) -> Option<f64>) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_ops || started.elapsed().as_secs_f64() < secs {
        match op(samples.len() as u64) {
            Some(dt) => samples.push(dt),
            None => break,
        }
    }
    samples
}

/// Whether operation `i` of a window runs traced. A traced run
/// alternates untraced and traced operations, so the tracing overhead
/// is measured under the same host conditions and drift cancels.
pub fn traced_op(args: &Args, i: u64) -> bool {
    args.trace && i % 2 == 1
}

/// Splits a window's samples into (untraced, traced) by [`traced_op`].
pub fn split_traced(args: &Args, samples: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for (i, s) in samples.into_iter().enumerate() {
        if traced_op(args, i as u64) {
            on.push(s);
        } else {
            off.push(s);
        }
    }
    (off, on)
}

/// Prints the end-to-end metrics of a solve workload from its untraced
/// solve times: set-up, the median solve with its tail, throughput.
pub fn report_solves(
    report: &mut Report,
    setup_s: f64,
    setup_note: &str,
    samples: &[f64],
) -> stats::Dist {
    let d = stats::Dist::of(samples).expect("at least two solves");
    println!("end to end (untraced):");
    report.metric("setup_s", "s", setup_s, setup_note);
    report.metric("latency_p50_ms", "ms", d.median * 1e3, "median solve");
    report.metric(
        "ops_per_s",
        "1/s",
        samples.len() as f64 / samples.iter().sum::<f64>(),
        "solves per second of solving",
    );
    report.metric("solve_s", "s", d.median, &d.describe("s"));
    if let Some((p, v)) = d.tail {
        report.metric("solve_tail_s", "s", v, &format!("p{p}, n={}", d.n));
    }
    d
}

/// Runs `setup` `reps` times and returns the median wall time with the
/// last result; set-up is repeated so its median is steady.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("reps > 0"))
}

/// Points the program's temporary files (net socket directories, the
/// serve socket) into the checkout when the path is short enough for
/// Unix socket addresses; otherwise the system temp dir stays in use.
fn use_local_tmp(out: &Path) -> PathBuf {
    let tmp = out.join("tmp");
    if let Ok(dir) = std::fs::create_dir_all(&tmp).and_then(|()| tmp.canonicalize()) {
        // Socket names under it add about 31 bytes; addresses hold 107.
        if dir.as_os_str().len() <= 72 {
            // Single-threaded here: nothing else reads the environment.
            std::env::set_var("TMPDIR", &dir);
            return dir;
        }
    }
    std::env::temp_dir()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && !argv[0].starts_with("--") {
        return worker(&argv[0], &argv[1]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    let tmp = use_local_tmp(&out);
    match std::env::current_exe() {
        // The net engine finds its rank worker through this variable.
        Ok(exe) => std::env::set_var("CMG_NET_WORKER", exe),
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={} tmp={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tmp.display()
    );

    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    match args.workload.as_str() {
        "sim_weak_grid" => grid::run(&args, &mut tracer, &mut report),
        "circuit_net" => circuit::run(&args, &mut tracer, &mut report),
        "serve_mix" => serve::run(&args, &mut tracer, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    report.metric(
        "failed_frac",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        &format!("{} of {} operations", report.failed, report.attempted),
    );
    report.metric(
        "peak_rss_mb",
        "MB",
        sys::peak_rss_mb(),
        "this process (VmHWM); net worker processes are not included",
    );

    if tracer.enabled() {
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => println!(
                "  spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("  spans: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_line(args.trace));
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Rank-worker mode for the net engine.
fn worker(dir: &str, rank: &str) -> ExitCode {
    let Ok(rank) = rank.parse::<u32>() else {
        eprintln!("perfbench worker: rank must be a number");
        return ExitCode::from(2);
    };
    match cmg_net::worker_main(Path::new(dir), rank) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker rank {rank}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn traced_runs_alternate() {
        let mut args = parse_args(&argv("--workload serve_mix --trace 1")).unwrap();
        let (off, on) = split_traced(&args, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!((off, on), (vec![0.0, 2.0, 4.0], vec![1.0, 3.0]));
        args.trace = false;
        assert_eq!(split_traced(&args, vec![0.0, 1.0]).0, vec![0.0, 1.0]);
    }

    #[test]
    fn window_runs_at_least_min_ops() {
        let samples = run_window(0.0, 3, |i| Some(i as f64));
        assert_eq!(samples, vec![0.0, 1.0, 2.0]);
        let stopped = run_window(60.0, 5, |i| (i < 2).then_some(1.0));
        assert_eq!(stopped, vec![1.0, 1.0]);
    }
}
