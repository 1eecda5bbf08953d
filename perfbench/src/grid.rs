//! `sim_weak_grid`: one Figure 5.1 point on the simulation engine.
//!
//! A 1024 x 1024 five-point grid with uniform weights, built by the
//! implicit `grid2d_dist` over 64 x 64 = 4,096 ranks (16 x 16 vertices
//! each), then matching and coloring on the default sequential
//! `SimEngine` under the Blue Gene/P cost model. Nearly all the time is
//! the sim scheduler, bundling and the distributed kernels; cmg-net,
//! cmg-serve and the multilevel partitioner are bypassed.
//!
//! A solve is timed from the distributed graph to assembled results:
//! program construction, `SimEngine::run`, assembly — the same calls
//! `cmg_core::run_*_parts` makes, issued here one by one so each layer
//! gets its own span.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, report_solves, run_window, split_traced, timed_setups, traced_op, Args};
use cmg_coloring::{assemble_coloring, Coloring, ColoringConfig, DistColoring};
use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_matching::DistMatching;
use cmg_partition::{grid2d_dist, DistGraph};
use cmg_runtime::{EngineConfig, RunStats, SchedStats, SimEngine};
use std::time::Instant;

const GRID: usize = 1024;
const SIDE: u32 = 64;
const SETUPS: usize = 5;

/// What one solve produced, for checking and counters.
struct Solved {
    weight: f64,
    cardinality: usize,
    coloring: Coloring,
    phases: u32,
    stats: [RunStats; 2],
    sched: [SchedStats; 2],
    round_cap: bool,
}

fn solve(t: &mut Tracer, id: u64, pw: Vec<DistGraph>, pu: Vec<DistGraph>) -> Solved {
    t.span("solve", id, |t| {
        let (weight, cardinality, m) = t.span("matching.solve", id, |t| {
            let programs: Vec<DistMatching> = t.span("matching.construct", id, |_| {
                pw.into_iter().map(DistMatching::new).collect()
            });
            let r = t.span("runtime.sim_run", id, |_| {
                SimEngine::new(programs, EngineConfig::default()).run()
            });
            let (w, c) = t.span("matching.assemble", id, |_| {
                let w: f64 = r.programs.iter().map(|p| p.local_matched_weight()).sum();
                let c: usize = r.programs.iter().map(|p| p.local_matched_edges()).sum();
                (w, c)
            });
            (w, c, (r.stats, r.sched, r.hit_round_cap))
        });
        let (coloring, phases, c) = t.span("coloring.solve", id, |t| {
            let programs: Vec<DistColoring> = t.span("coloring.construct", id, |_| {
                pu.into_iter()
                    .map(|dg| DistColoring::new(dg, ColoringConfig::default()))
                    .collect()
            });
            let r = t.span("runtime.sim_run", id, |_| {
                SimEngine::new(programs, EngineConfig::default()).run()
            });
            let (coloring, phases) = t.span("coloring.assemble", id, |_| {
                let phases = r
                    .programs
                    .iter()
                    .map(|p| p.phases_executed)
                    .max()
                    .unwrap_or(0);
                (assemble_coloring(&r.programs, GRID * GRID), phases)
            });
            (coloring, phases, (r.stats, r.sched, r.hit_round_cap))
        });
        Solved {
            weight,
            cardinality,
            coloring,
            phases,
            round_cap: m.2 || c.2,
            stats: [m.0, c.0],
            sched: [m.1, c.1],
        }
    })
}

pub fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    println!(
        "sim_weak_grid: {GRID}x{GRID} grid on {} sim ranks",
        SIDE * SIDE
    );
    let seed = args.seed;
    let (setup_s, (parts_w, parts_u)) = timed_setups(SETUPS, || {
        tracer.span("partition.halo_build", 0, |_| {
            (
                grid2d_dist(GRID, GRID, SIDE, SIDE, Some(seed)),
                grid2d_dist(GRID, GRID, SIDE, SIDE, None),
            )
        })
    });

    // Sequential reference on the explicit global graph (same weights).
    let g = assign_weights(
        &grid2d(GRID, GRID),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        seed,
    );
    let reference = cmg_matching::seq::local_dominant(&g);
    let (ref_card, ref_weight) = (reference.cardinality(), reference.weight(&g));
    drop(reference);

    let mut last: Option<Solved> = None;
    let check = |report: &mut Report, s: &Solved| {
        if s.round_cap {
            report.fail("a sim run hit the round cap");
        }
        if s.cardinality != ref_card {
            report.fail(&format!(
                "cardinality {} != reference {ref_card}",
                s.cardinality
            ));
        }
        if (s.weight - ref_weight).abs() > 1e-9 * ref_weight {
            report.fail(&format!("weight {} != reference {ref_weight}", s.weight));
        }
        if let Err(e) = s.coloring.validate(&g) {
            report.fail(&format!("coloring invalid: {e}"));
        }
    };

    let mut off = Tracer::new(false);
    let all = run_window(args.seconds, 4, |i| {
        let t = if traced_op(args, i) {
            &mut *tracer
        } else {
            &mut off
        };
        let (pw, pu) = (parts_w.clone(), parts_u.clone());
        let started = Instant::now();
        let s = solve(t, i, pw, pu);
        let dt = started.elapsed().as_secs_f64();
        check(report, &s);
        last = Some(s);
        Some(dt)
    });
    report.attempted += all.len() as u64;
    let (samples, traced) = split_traced(args, all);

    let d = report_solves(
        report,
        setup_s,
        &format!("median of {SETUPS} grid2d_dist builds"),
        &samples,
    );
    let s = last.expect("at least one solve");
    report.metric("colors_used", "count", s.coloring.num_colors() as f64, "");
    println!(
        "  matched cardinality {} weight {} (reference {ref_card} / {ref_weight})",
        s.cardinality, s.weight
    );

    if !args.trace {
        return;
    }
    println!("per layer (traced):");
    let sim_runs = tracer.durations("runtime.sim_run");
    let per_solve_sim: Vec<f64> = sim_runs.chunks(2).map(|c| c.iter().sum()).collect();
    let rounds = s.stats[0].rounds + s.stats[1].rounds;
    let sim_run_s = median(&per_solve_sim);
    report.metric(
        "partition.halo_build_s",
        "s",
        setup_s,
        "grid2d_dist, weighted + unweighted",
    );
    report.metric(
        "runtime.sim_run_s",
        "s",
        sim_run_s,
        "SimEngine::run, matching + coloring",
    );
    report.metric(
        "runtime.sim_us_per_round",
        "us",
        sim_run_s * 1e6 / rounds as f64,
        "",
    );
    let p = (SIDE * SIDE) as f64;
    let skipped: u64 = s.sched.iter().map(|x| x.ranks_skipped_total).sum();
    let sched_rounds: u64 = s.sched.iter().map(|x| x.rounds).sum();
    report.metric(
        "runtime.sim_skipped_frac",
        "frac",
        skipped as f64 / (sched_rounds as f64 * p),
        "ranks skipped / (rounds x ranks); counter",
    );
    report.metric("runtime.rounds", "count", rounds as f64, "counter");
    let messages: u64 = s.stats.iter().map(|x| x.total_messages()).sum();
    let bytes: u64 = s.stats.iter().map(|x| x.total_bytes()).sum();
    report.metric("runtime.messages", "count", messages as f64, "counter");
    report.metric("runtime.bytes", "B", bytes as f64, "counter");
    println!(
        "  simulated makespans: matching {} us, coloring {} us",
        s.stats[0].makespan() * 1e6,
        s.stats[1].makespan() * 1e6
    );
    report.metric(
        "runtime.sim_makespan_us",
        "us",
        (s.stats[0].makespan() + s.stats[1].makespan()) * 1e6,
        "matching + coloring; counter",
    );
    report.metric(
        "matching.solve_s",
        "s",
        median(&tracer.durations("matching.solve")),
        "",
    );
    report.metric(
        "coloring.solve_s",
        "s",
        median(&tracer.durations("coloring.solve")),
        "",
    );
    report.metric("coloring.phases", "count", s.phases as f64, "counter");

    // Allocation counters: one more solve, counted, outside the window.
    let (pw, pu) = (parts_w.clone(), parts_u.clone());
    let (counted, allocs) = alloc::count(|| solve(&mut Tracer::new(false), 0, pw, pu));
    check(report, &counted);
    report.attempted += 1;
    report.metric(
        "runtime.alloc_count",
        "count",
        allocs.count as f64,
        "one solve; counter",
    );
    report.metric(
        "runtime.alloc_bytes",
        "B",
        allocs.bytes as f64,
        "one solve; counter",
    );

    // Reconciliation: each solve = construction + engine + assembly
    // (the leaves) + whatever the enclosing spans add (the residual).
    let selfs = tracer.self_times();
    let solve_total: f64 = tracer.durations("solve").iter().sum();
    let leaves = [
        "matching.construct",
        "runtime.sim_run",
        "matching.assemble",
        "coloring.construct",
        "coloring.assemble",
    ];
    println!("  reconciliation over {} traced solves:", traced.len());
    let mut explained = 0.0;
    for name in leaves {
        let v = selfs.get(name).copied().unwrap_or(0.0);
        explained += v;
        println!("    {name}: {v} s ({:.2}%)", 100.0 * v / solve_total);
    }
    let residual = solve_total - explained;
    println!("    solve total {solve_total} s, residual {residual} s");
    report.metric(
        "reconcile.residual_frac",
        "frac",
        residual / solve_total,
        "",
    );
    report.metric(
        "obs.trace_overhead_frac",
        "frac",
        median(&traced) / d.median - 1.0,
        "traced median solve / untraced - 1",
    );
}
