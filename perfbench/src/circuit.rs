//! `circuit_net`: the Figure 5.3/5.4 input class.
//!
//! `circuit_like(250_000, 42)` with uniform weights drawn from the
//! benchmark seed, split into two parts by `multilevel_partition`, then
//! `cmg_core::run_matching` and `run_coloring` on `Engine::Net` (two
//! worker processes).
//!
//! Each traced solve times the façade calls and, right after them, a
//! layered twin of the same solve issued call by call (halo build, then
//! `cmg_net::run_*`). The façade time minus the twin's parts is the
//! reconciliation residual. The traced pass also solves the same graph
//! and partition on `Engine::Threaded` (two rank threads) for the
//! threaded engine's layer metrics: a separate gated workload for it did
//! not fit the benchmark's time budget with run lengths long enough to
//! be steady on a shared two-core host.

use crate::report::Report;
use crate::stats::{median, paired_diff};
use crate::trace::Tracer;
use crate::{alloc, report_solves, run_window, split_traced, timed_setups, traced_op, Args};
use cmg_coloring::ColoringConfig;
use cmg_core::{run_coloring, run_matching, ColoringRun, Engine, MatchingRun};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph, NO_VERTEX};
use cmg_matching::Matching;
use cmg_net::{NetConfig, NetSession, NetTask, WorkerOutcome};
use cmg_obs::{CollectingRecorder, TraceReport};
use cmg_partition::{multilevel_partition, DistGraph, Partition};
use cmg_runtime::EngineConfig;
use std::time::{Duration, Instant};

const N: usize = 250_000;
/// Structure and partition are fixed; the benchmark seed draws the
/// weights, so every seed solves the same graph shape.
const SHAPE_SEED: u64 = 42;
const PARTS: u32 = 2;
const SETUPS: usize = 5;
/// Cold sessions for the launch / ship-collect split, each followed by
/// `WARM` warm submits.
const SESSIONS: usize = 5;
const WARM: usize = 2;
/// Threaded-engine façade solves on the traced pass.
const THREADED: usize = 5;

/// One façade solve: matching then coloring.
fn facade(
    t: &mut Tracer,
    id: u64,
    g: &CsrGraph,
    part: &Partition,
    engine: &Engine,
) -> (MatchingRun, ColoringRun) {
    t.span("solve", id, |t| {
        let m = t.span("matching.solve", id, |_| run_matching(g, part, engine));
        let c = t.span("coloring.solve", id, |_| {
            run_coloring(g, part, ColoringConfig::default(), engine)
        });
        (m, c)
    })
}

fn engine_secs(wall: Option<Duration>) -> f64 {
    wall.map_or(0.0, |d| d.as_secs_f64())
}

/// The layered twin of one façade solve, each layer call in its own
/// span. Returns the matching for checking.
fn twin(t: &mut Tracer, id: u64, g: &CsrGraph, part: &Partition) -> Matching {
    t.span("twin", id, |t| {
        let parts = t.span("partition.halo_build", id, |_| {
            DistGraph::build_all(g, part)
        });
        let matching = t
            .span("net.run", id, |_| {
                cmg_net::run_matching(parts, &NetConfig::default())
            })
            .expect("net matching run")
            .matching;
        let parts = t.span("partition.halo_build", id, |_| {
            DistGraph::build_all(g, part)
        });
        t.span("net.run", id, |_| {
            cmg_net::run_coloring(parts, ColoringConfig::default(), &NetConfig::default())
        })
        .expect("net coloring run");
        matching
    })
}

/// Global mate vector from a net matching task's per-rank outcomes.
fn mates_of(n: usize, outcomes: &[WorkerOutcome]) -> Vec<u32> {
    let mut mate = vec![NO_VERTEX; n];
    for o in outcomes {
        if let WorkerOutcome::Matching(pairs) = o {
            for &(v, m) in pairs {
                mate[v as usize] = m;
            }
        }
    }
    mate
}

pub fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    println!("circuit_net: circuit_like({N}) in {PARTS} parts");
    let seed = args.seed;
    let engine = Engine::default_net();
    let mut generate = Vec::new();
    let mut multilevel = Vec::new();
    let (setup_s, (g, part)) = timed_setups(SETUPS, || {
        let t = Instant::now();
        let g = tracer.span("graph.generate", 0, |_| {
            let g = generators::circuit_like(N, SHAPE_SEED);
            assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed)
        });
        let t1 = Instant::now();
        let part = tracer.span("partition.multilevel", 0, |_| {
            multilevel_partition(&g, PARTS, SHAPE_SEED)
        });
        generate.push((t1 - t).as_secs_f64());
        multilevel.push(t1.elapsed().as_secs_f64());
        (g, part)
    });

    let reference = cmg_matching::seq::local_dominant(&g);
    let check = |report: &mut Report, m: &Matching, c: Option<&ColoringRun>| {
        if m.mates() != reference.mates() {
            report.fail("matching differs from the sequential local-dominant reference");
        }
        if let Err(e) = m.validate(&g) {
            report.fail(&format!("matching invalid: {e}"));
        }
        if !m.is_maximal(&g) {
            report.fail("matching not maximal");
        }
        if let Some(c) = c {
            if let Err(e) = c.coloring.validate(&g) {
                report.fail(&format!("coloring invalid: {e}"));
            }
        }
    };

    let mut off = Tracer::new(false);
    let mut last = None;
    let mut engine_walls = Vec::new();
    let all = run_window(args.seconds, 4, |i| {
        let on = traced_op(args, i);
        let t = if on { &mut *tracer } else { &mut off };
        let started = Instant::now();
        let (m, c) = facade(t, i, &g, &part, &engine);
        let dt = started.elapsed().as_secs_f64();
        check(report, &m.matching, Some(&c));
        report.attempted += 1;
        if on {
            engine_walls.push(engine_secs(m.wall_time) + engine_secs(c.wall_time));
            let tm = twin(t, i, &g, &part);
            check(report, &tm, None);
            report.attempted += 1;
        }
        last = Some((m, c));
        Some(dt)
    });
    let (samples, traced) = split_traced(args, all);

    let d = report_solves(
        report,
        setup_s,
        &format!("median of {SETUPS} generate + multilevel"),
        &samples,
    );
    let (m, c) = last.expect("at least one solve");
    report.metric("colors_used", "count", c.coloring.num_colors() as f64, "");

    if !args.trace {
        return;
    }
    println!("per layer (traced):");
    report.metric(
        "graph.generate_s",
        "s",
        median(&generate),
        "circuit_like + weights",
    );
    report.metric("partition.multilevel_s", "s", median(&multilevel), "");
    let halo: Vec<f64> = tracer.durations("partition.halo_build");
    let halo_per_solve: Vec<f64> = halo.chunks(2).map(|c| c.iter().sum()).collect();
    report.metric(
        "partition.halo_build_s",
        "s",
        median(&halo_per_solve),
        "DistGraph::build_all, twice per solve",
    );
    report.metric(
        "partition.cut_frac",
        "frac",
        part.quality(&g).cut_fraction,
        "counter",
    );
    report.metric(
        "runtime.rounds",
        "count",
        (m.stats.rounds + c.stats.rounds) as f64,
        "counter",
    );
    report.metric(
        "runtime.messages",
        "count",
        (m.stats.total_messages() + c.stats.total_messages()) as f64,
        "counter",
    );
    report.metric(
        "runtime.bytes",
        "B",
        (m.stats.total_bytes() + c.stats.total_bytes()) as f64,
        "counter",
    );
    report.metric("coloring.phases", "count", c.phases as f64, "counter");
    report.metric(
        "matching.solve_s",
        "s",
        median(&tracer.durations("matching.solve")),
        "façade",
    );
    report.metric(
        "coloring.solve_s",
        "s",
        median(&tracer.durations("coloring.solve")),
        "façade",
    );
    let solves = tracer.durations("solve");
    let outside = paired_diff(&solves, &engine_walls);
    report.metric(
        "core.outside_engine_s",
        "s",
        median(&outside),
        "façade time - engine wall, per solve",
    );
    net_layers(tracer, &g, &part, &reference, report);
    threaded_layers(&g, &part, &check, report);

    // Reconciliation: façade solve vs the layered twin's parts.
    let selfs = tracer.self_times();
    let facade_total: f64 = solves.iter().sum();
    let parts = ["partition.halo_build", "net.run"];
    println!(
        "  reconciliation over {} traced solves (façade vs layered twin):",
        traced.len()
    );
    let mut explained = 0.0;
    for name in parts {
        let v = selfs.get(name).copied().unwrap_or(0.0);
        explained += v;
        println!(
            "    {name}: {v} s ({:.2}% of façade)",
            100.0 * v / facade_total
        );
    }
    let residual = facade_total - explained;
    println!("    façade total {facade_total} s, residual {residual} s");
    report.metric(
        "reconcile.residual_frac",
        "frac",
        residual / facade_total,
        "",
    );
    report.metric(
        "obs.trace_overhead_frac",
        "frac",
        median(&traced) / d.median - 1.0,
        "traced median solve / untraced - 1",
    );
}

/// The threaded engine on the same graph and partition: the engine
/// wall of [`THREADED`] façade solves, then one solve under the
/// counting allocator (its rank threads are counted; net worker
/// processes never are).
fn threaded_layers(
    g: &CsrGraph,
    part: &Partition,
    check: &impl Fn(&mut Report, &Matching, Option<&ColoringRun>),
    report: &mut Report,
) {
    let engine = Engine::default_threaded();
    let mut walls = Vec::new();
    for i in 0..THREADED as u64 {
        let (m, c) = facade(&mut Tracer::new(false), i, g, part, &engine);
        check(report, &m.matching, Some(&c));
        report.attempted += 1;
        walls.push(engine_secs(m.wall_time) + engine_secs(c.wall_time));
    }
    report.metric(
        "runtime.threaded_run_s",
        "s",
        median(&walls),
        &format!("engine wall per threaded façade solve, median of {THREADED}"),
    );
    let (counted, allocs) = alloc::count(|| facade(&mut Tracer::new(false), 0, g, part, &engine));
    check(report, &counted.0.matching, Some(&counted.1));
    report.attempted += 1;
    report.metric(
        "runtime.alloc_count",
        "count",
        allocs.count as f64,
        "one threaded façade solve",
    );
    report.metric(
        "runtime.alloc_bytes",
        "B",
        allocs.bytes as f64,
        "one threaded façade solve",
    );
}

/// Net-only layers: launch vs warm submit, the round loop, and the
/// round-phase split of one recorded run.
fn net_layers(
    t: &mut Tracer,
    g: &CsrGraph,
    part: &Partition,
    reference: &Matching,
    report: &mut Report,
) {
    let n = g.num_vertices();
    let (mut launch, mut warm, mut loops, mut cpus) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut links = None;
    for s in 0..SESSIONS as u64 {
        let mut session = NetSession::open(DistGraph::build_all(g, part), NetConfig::default());
        let mut cold = 0.0;
        for k in 0..=WARM {
            let out = t
                .span(
                    if k == 0 {
                        "net.submit_cold"
                    } else {
                        "net.submit_warm"
                    },
                    s,
                    |_| session.submit(NetTask::Matching),
                )
                .expect("net session submit");
            report.attempted += 1;
            if mates_of(n, &out.outcomes) != reference.mates() {
                report.fail("net session matching differs from the reference");
            }
            if k == 0 {
                cold = out.wall_time;
            } else {
                warm.push(out.wall_time);
                loops.push(out.round_wall_time);
                cpus.push(out.round_cpu_time);
                links = Some(out.links.total);
            }
        }
        // Paired within the session, so host drift between sessions cancels.
        launch.push(cold - median(&warm[warm.len() - WARM..]));
        if let Err(e) = session.close() {
            report.fail(&format!("net session close: {e}"));
        }
    }
    let ship = paired_diff(&warm, &loops);
    report.metric(
        "net.launch_s",
        "s",
        median(&launch),
        "cold - warm submit of the same session, matching",
    );
    report.metric(
        "net.round_loop_s",
        "s",
        median(&loops),
        "warm submit round_wall_time",
    );
    report.metric(
        "net.round_cpu_s",
        "s",
        median(&cpus),
        "warm submit round_cpu_time",
    );
    report.metric(
        "net.ship_collect_s",
        "s",
        median(&ship),
        "warm submit - round loop, paired",
    );
    println!(
        "  warm submit {} s = ship/collect {} s + round loop {} s (residual {} s, by construction of the pairing)",
        median(&warm),
        median(&ship),
        median(&loops),
        median(&warm) - median(&ship) - median(&loops)
    );
    let l = links.expect("at least one warm submit");
    report.metric(
        "net.frames",
        "count",
        l.frames_sent as f64,
        "warm matching submit; counter",
    );
    report.metric(
        "net.wire_bytes",
        "B",
        l.bytes_sent as f64,
        "warm matching submit; counter",
    );
    report.metric(
        "net.syscalls",
        "count",
        l.syscalls as f64,
        "warm matching submit",
    );
    report.metric(
        "net.frames_coalesced",
        "count",
        l.frames_coalesced as f64,
        "warm matching submit",
    );

    // Round-phase split from the program's own recorder, one run.
    let (collector, handle) = CollectingRecorder::shared();
    let engine = Engine::Net(EngineConfig {
        recorder: handle,
        ..Default::default()
    });
    let m = run_matching(g, part, &engine);
    report.attempted += 1;
    if m.matching.mates() != reference.mates() {
        report.fail("recorded net matching differs from the reference");
    }
    let breakdown = TraceReport::from_events(&collector.take());
    let rounds = breakdown.rounds.len().max(1) as f64;
    let split = breakdown.total_split();
    let per_round = |s: f64| s * 1e3 / rounds;
    report.metric(
        "net.serialize_ms_per_round",
        "ms",
        per_round(split.serialize_s),
        "recorded run",
    );
    report.metric(
        "net.wire_wait_ms_per_round",
        "ms",
        per_round(split.wire_wait_s),
        "recorded run",
    );
    report.metric(
        "net.done_wave_ms_per_round",
        "ms",
        per_round(split.done_wave_s),
        "recorded run",
    );
    report.metric(
        "net.compute_ms_per_round",
        "ms",
        per_round(split.compute_s),
        "recorded run",
    );
    report.metric(
        "net.delivery_ms_per_round",
        "ms",
        per_round(split.delivery_s),
        "recorded run",
    );
    let wall: f64 = breakdown.rounds.iter().map(|r| r.wall_s).sum();
    let phases = split.serialize_s
        + split.wire_wait_s
        + split.done_wave_s
        + split.compute_s
        + split.delivery_s
        + split.barrier_wait_s
        + split.reseq_hold_s;
    println!(
        "  round split: {} rounds, wall {} ms/round, named phases {} ms/round, residual {} ms/round (not clamped)",
        breakdown.rounds.len(),
        per_round(wall),
        per_round(phases),
        per_round(wall - phases)
    );
}
