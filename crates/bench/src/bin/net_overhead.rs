//! Net-transport overhead: the multi-process socket engine vs the
//! in-process `ThreadedEngine` on the fig5 five-point grid.
//!
//! Both engines execute the identical synchronous bundled round
//! protocol, so results are bit-identical and the delta is pure
//! transport cost: process spawning, socket framing, and the round
//! edge. The headline `overhead_ratio` is the **round-protocol latency
//! ratio** — the net engine's slowest-rank round-loop wall (`Start`
//! receipt to final round edge; no spawn, no handshake, no result
//! shipping) over the threaded engine's wall for the same workload —
//! because process spawn is a fixed ~20 ms cost that amortizes over
//! run length, while the per-round cost is what the event-driven
//! transport work optimizes. The spawn-inclusive ratio is kept as
//! `wall_overhead_ratio`; both wall figures are medians over the
//! repetitions.
//!
//! Each row also reports the wire-efficiency counters the coalescing
//! work moves: write syscalls per round and frames packed into
//! multi-frame batches.
//!
//! Extra net runs per rank count feed the observability plane: a
//! telemetry on-vs-off pair on a larger 128x128 fixture (the
//! heartbeat-piggyback counters must cost < 5% of round latency, and
//! the comparison needs rounds long enough to resolve that above
//! scheduler jitter) and one observed run whose merged trace yields
//! the per-round phase breakdown
//! (serialize / wave / compute / delivery) — the
//! per-phase decomposition of the round critical path.
//!
//! Usage: `cargo run --release -p cmg-bench --bin net_overhead
//! [--ranks 2,4,8,16]`

use cmg_core::prelude::*;
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_net::NetConfig;
use cmg_obs::bench::BenchReport;
use cmg_obs::{CollectingRecorder, Json, TraceReport};
use cmg_partition::simple::block_partition;
use cmg_partition::DistGraph;
use std::time::Instant;

/// Median of a sample set; robust to the scheduler's heavy-tailed
/// interference in both directions (a lucky or unlucky single run
/// cannot move it).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One net run, with the matching asserted against the threaded
/// reference.
fn net_once(
    g: &CsrGraph,
    part: &Partition,
    expect: &Matching,
    telemetry: bool,
) -> cmg_net::NetMatchingRun {
    let parts = DistGraph::build_all(g, part);
    let out = cmg_net::run_matching(
        parts,
        &NetConfig {
            telemetry,
            ..Default::default()
        },
    )
    .expect("net matching run");
    assert_eq!(*expect, out.matching, "engines disagree");
    out
}

/// Runs the net engine `reps` times on one workload, asserting the
/// matching against the threaded reference on every repetition.
/// Returns the median total wall time, the median `round_wall_time`
/// (the slowest rank's own round-loop clock: no spawn, no handshake,
/// no result shipping), and the last run's outcome.
fn net_reps(
    g: &CsrGraph,
    part: &Partition,
    expect: &Matching,
    reps: usize,
) -> (f64, f64, cmg_net::NetMatchingRun) {
    let mut walls = Vec::with_capacity(reps);
    let mut round_walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = net_once(g, part, expect, true);
        walls.push(t.elapsed().as_secs_f64());
        round_walls.push(out.round_wall_time);
        last = Some(out);
    }
    (median(walls), median(round_walls), last.expect("reps > 0"))
}

/// What the telemetry A/B measured.
struct AbResult {
    /// Median slowest-rank round-loop wall, telemetry on / off.
    on_wall_s: f64,
    off_wall_s: f64,
    /// on/off cost ratio — total worker round-loop CPU when the
    /// platform exposes it (precise even on an oversubscribed box,
    /// where wall time is a scheduling lottery), else the median
    /// per-pair wall ratio.
    ratio: f64,
    /// Last on-run outcome, for round counts.
    last: cmg_net::NetMatchingRun,
}

/// Telemetry on-vs-off A/B. Runs the two configurations as
/// back-to-back interleaved pairs (machine-load drift over the
/// measurement window hits both sides equally and cancels) and
/// totals each side's `round_cpu_time` — the workers' own
/// ns-resolution round-loop CPU clocks: telemetry cost is CPU work
/// (counter stamps, beacon encoding), and unlike round wall time the
/// CPU total is unaffected by how ranks time-slice a loaded host.
fn telemetry_ab(g: &CsrGraph, part: &Partition, expect: &Matching, reps: usize) -> AbResult {
    let mut on_walls = Vec::with_capacity(reps);
    let mut off_walls = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    let (mut cpu_on, mut cpu_off) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..reps {
        let on = net_once(g, part, expect, true);
        let off = net_once(g, part, expect, false);
        cpu_on += on.round_cpu_time;
        cpu_off += off.round_cpu_time;
        on_walls.push(on.round_wall_time);
        off_walls.push(off.round_wall_time);
        ratios.push(on.round_wall_time / off.round_wall_time);
        last = Some(on);
    }
    let ratio = if cpu_off > 0.0 {
        cpu_on / cpu_off
    } else {
        median(ratios)
    };
    AbResult {
        on_wall_s: median(on_walls),
        off_wall_s: median(off_walls),
        ratio,
        last: last.expect("reps > 0"),
    }
}

/// Parses `--ranks 2,4,8,16` from argv; defaults to the acceptance
/// sweep.
fn rank_counts() -> Vec<u32> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--ranks") {
        if let Some(list) = args.get(i + 1) {
            return list
                .split(',')
                .map(|s| s.trim().parse().expect("--ranks wants integers"))
                .collect();
        }
    }
    vec![2, 4, 8, 16]
}

fn main() {
    println!("Net transport overhead: per-process socket ranks vs in-process threads\n");
    let mut report = BenchReport::new("net_overhead");
    let g = assign_weights(
        &generators::grid2d(32, 32),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        7,
    );
    report.fact(
        "graph",
        Json::Str("fig5 grid 32x32, uniform weights".into()),
    );
    report.fact(
        "overhead_ratio_definition",
        Json::Str(
            "net slowest-rank round-loop wall / threaded wall (spawn excluded; \
             spawn-inclusive ratio in wall_overhead_ratio)"
                .into(),
        ),
    );
    // The telemetry on/off comparison gets its own larger workload:
    // on the 32x32 grid a round is ~150 us, so the scheduler's ~20 us
    // of per-round jitter alone is ~±10% — wider than the < 5% effect
    // being measured. The 128x128 grid runs the identical protocol
    // with rounds long enough that the same absolute jitter is noise.
    let g_big = assign_weights(
        &generators::grid2d(128, 128),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        7,
    );
    report.fact(
        "telemetry_graph",
        Json::Str("grid 128x128, uniform weights".into()),
    );

    println!(
        "{:>3} {:>7} {:>10} {:>10} {:>9} {:>11} {:>11} {:>9} {:>9} {:>10}",
        "p",
        "rounds",
        "thr ms",
        "net ms",
        "rnd x",
        "thr ms/rnd",
        "net ms/rnd",
        "sys/rnd",
        "coalesced",
        "frames/s"
    );
    for p in rank_counts() {
        let part = block_partition(g.num_vertices(), p);

        let t0 = Instant::now();
        let thr = cmg_core::run_matching(&g, &part, &Engine::default_threaded());
        let thr_s = t0.elapsed().as_secs_f64();

        // Total net wall time is dominated by process spawn + mesh
        // connect, which carries ±15% scheduling noise run to run, so
        // the wall columns take the median of REPS runs.
        const REPS: usize = 10;
        let (net_s, net_rounds_s, net) = net_reps(&g, &part, &thr.matching, REPS);
        net.stats.assert_conservation();

        // Telemetry off vs on: the piggybacked heartbeat counters must
        // cost nothing measurable (< 5%). Measured on the larger
        // fixture; the cost ratio comes from worker CPU totals, the
        // ms/round figures from the round-loop clock medians.
        const AB_REPS: usize = 25;
        let part_big = block_partition(g_big.num_vertices(), p);
        let thr_big = cmg_core::run_matching(&g_big, &part_big, &Engine::default_threaded());
        let ab = telemetry_ab(&g_big, &part_big, &thr_big.matching, AB_REPS);

        // Observed run: the merged trace yields the per-round phase
        // breakdown. Recording changes the timing, so its wall time
        // never feeds the latency columns above.
        let (collector, handle) = CollectingRecorder::shared();
        let parts_obs = DistGraph::build_all(&g, &part);
        let net_obs = cmg_net::run_matching(
            parts_obs,
            &NetConfig {
                recorder: handle,
                ..Default::default()
            },
        )
        .expect("net matching run (observed)");
        assert_eq!(thr.matching, net_obs.matching, "p = {p}: engines disagree");
        let breakdown = TraceReport::from_events(&collector.take());
        let split = breakdown.total_split();
        let traced_rounds = breakdown.rounds.len().max(1) as f64;

        let rounds = net.rounds;
        let thr_round_ms = thr_s * 1e3 / rounds as f64;
        let frames_per_s = net.links.total.frames_sent as f64 / net_s;
        let net_round_ms = net_rounds_s * 1e3 / rounds as f64;
        let syscalls_per_round = net.links.total.syscalls as f64 / rounds as f64;
        let overhead_ratio = net_rounds_s / thr_s;
        println!(
            "{:>3} {:>7} {:>10.3} {:>10.3} {:>8.1}x {:>11.3} {:>11.3} {:>9.1} {:>9} {:>10.0}",
            p,
            rounds,
            thr_s * 1e3,
            net_s * 1e3,
            overhead_ratio,
            thr_round_ms,
            net_round_ms,
            syscalls_per_round,
            net.links.total.frames_coalesced,
            frames_per_s,
        );

        // Round latency for the telemetry comparison: big fixture,
        // spawn excluded.
        let on_round_ms = ab.on_wall_s * 1e3 / ab.last.rounds as f64;
        let off_round_ms = ab.off_wall_s * 1e3 / ab.last.rounds as f64;
        println!(
            "    per round: serialize {:.3} wave {:.3} compute {:.3} delivery {:.3} ms; \
             128x128 telemetry on {:.3} off {:.3} ms/rnd (cpu {:+.1}%)",
            split.serialize_s * 1e3 / traced_rounds,
            split.done_wave_s * 1e3 / traced_rounds,
            split.compute_s * 1e3 / traced_rounds,
            split.delivery_s * 1e3 / traced_rounds,
            on_round_ms,
            off_round_ms,
            (ab.ratio - 1.0) * 100.0,
        );
        report.row(Json::obj(vec![
            ("ranks", Json::UInt(p as u64)),
            ("rounds", Json::UInt(rounds)),
            ("threaded_wall_s", Json::Float(thr_s)),
            ("net_wall_s", Json::Float(net_s)),
            ("overhead_ratio", Json::Float(overhead_ratio)),
            ("wall_overhead_ratio", Json::Float(net_s / thr_s)),
            ("threaded_round_latency_ms", Json::Float(thr_round_ms)),
            ("net_round_latency_ms", Json::Float(net_round_ms)),
            ("frames_sent", Json::UInt(net.links.total.frames_sent)),
            (
                "frames_coalesced",
                Json::UInt(net.links.total.frames_coalesced),
            ),
            ("syscalls", Json::UInt(net.links.total.syscalls)),
            ("syscalls_per_round", Json::Float(syscalls_per_round)),
            ("frames_per_s", Json::Float(frames_per_s)),
            ("wire_bytes", Json::UInt(net.links.total.bytes_sent)),
            ("net_round_wall_s", Json::Float(net_rounds_s)),
            ("telemetry_rounds", Json::UInt(ab.last.rounds)),
            ("telemetry_round_ms_on", Json::Float(on_round_ms)),
            ("telemetry_round_ms_off", Json::Float(off_round_ms)),
            ("telemetry_on_off_ratio", Json::Float(ab.ratio)),
            (
                "serialize_ms_per_round",
                Json::Float(split.serialize_s * 1e3 / traced_rounds),
            ),
            (
                "reseq_hold_ms_per_round",
                Json::Float(split.reseq_hold_s * 1e3 / traced_rounds),
            ),
            (
                "done_wave_ms_per_round",
                Json::Float(split.done_wave_s * 1e3 / traced_rounds),
            ),
            (
                "compute_ms_per_round",
                Json::Float(split.compute_s * 1e3 / traced_rounds),
            ),
            (
                "delivery_ms_per_round",
                Json::Float(split.delivery_s * 1e3 / traced_rounds),
            ),
            ("phase_coverage_min", Json::Float(breakdown.min_coverage())),
        ]));
    }
    println!("\nresults bit-identical across engines at every rank count");
    match report.write() {
        Ok(path) => println!("bench report: {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}
