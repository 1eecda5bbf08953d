//! `serve_mix`: a closed-loop client against a resident `cmg_serve::Server`.
//!
//! The server holds a 256 x 256 grid (65,536 vertices, 4 ranks,
//! in-process cold passes). One client sends requests back to back,
//! each after the previous ack — the server takes one session at a
//! time, so the closed-loop rate is its highest sustainable rate. About
//! 80 % of requests are mutation batches of 1-3 ops (grid-edge deletes,
//! short diagonal inserts, reweights; fresh uniform weights, so they
//! stay distinct) and 20 % point reads, half `mate_of`, half `color_of`.
//! Past [`DRIFT`] outstanding changes, every other op reverts the oldest
//! change, so the graph does not drift away from its initial shape
//! while the window runs.
//!
//! Writes are dominated by repair (cmg-graph `MutableGraph`, then the
//! matching/coloring invalidate and repair kernels); reads are almost
//! pure codec and socket. After set-up the workload bypasses cmg-net's
//! engine, the sim scheduler and the partitioner.
//!
//! The traced pass adds an in-process replay of the stream's first
//! [`REPLAY`] batches: each repair kernel timed on its own, and
//! `ServeState::apply` under the counting allocator.

use crate::report::Report;
use crate::stats::{median, paired_diff, percentile, Dist};
use crate::trace::Tracer;
use crate::{alloc, run_window, timed_setups, traced_op, Args};
use cmg_coloring::{invalidate_colors, repair_frontier_colors, Coloring};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph, MutableGraph, MutationBatch, NO_VERTEX};
use cmg_matching::repair::{invalidate, repair_frontier};
use cmg_matching::Matching;
use cmg_serve::{
    RepairAck, RepairMode, ServeClient, ServeConfig, ServeState, Server, ServerConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SIDE: usize = 256;
const SETUPS: usize = 5;
/// Batches replayed in-process on the traced pass (fixed, so the
/// counters repeat exactly).
const REPLAY: usize = 1000;
/// Point reads compared against the final served vectors.
const FINAL_READS: usize = 200;

/// One request of the mix.
enum Request {
    Mutate(MutationBatch),
    MateOf(u32),
    ColorOf(u32),
}

/// Outstanding changed edges at which each new op is balanced by the
/// revert of the oldest change: the served graph stays within this many
/// edges of its initial state, so the load is the same over any window.
const DRIFT: usize = 256;

/// The seeded request stream; the same seed gives the same requests.
struct Stream {
    rng: SmallRng,
    /// The initial graph, for the weights a revert restores.
    g0: MutableGraph,
    /// Edges changed and not yet reverted, oldest first.
    outstanding: VecDeque<(u32, u32)>,
}

impl Stream {
    fn new(seed: u64, g0: &CsrGraph) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed ^ 0x5e12e),
            g0: MutableGraph::from_csr(g0),
            outstanding: VecDeque::new(),
        }
    }

    fn next(&mut self) -> Request {
        let n = (SIDE * SIDE) as u32;
        match self.rng.random_range(0u32..10) {
            0 => Request::MateOf(self.rng.random_range(0..n)),
            1 => Request::ColorOf(self.rng.random_range(0..n)),
            _ => {
                let mut batch = MutationBatch::new();
                for _ in 0..self.rng.random_range(1usize..4) {
                    if self.outstanding.len() >= DRIFT {
                        let (u, v) = self.outstanding.pop_front().expect("non-empty");
                        match self.g0.edge_weight(u, v) {
                            Some(w) => batch.insert(u, v, w),
                            None => batch.delete(u, v),
                        };
                        continue;
                    }
                    let rng = &mut self.rng;
                    let v = (rng.random_range(0..SIDE - 1) * SIDE + rng.random_range(0..SIDE - 1))
                        as u32;
                    // Inserts add short diagonals, deletes hit grid edges,
                    // reweights draw fresh weights (so weights stay distinct).
                    let u = match rng.random_range(0u32..3) {
                        0 => {
                            let u = v + SIDE as u32 + 1;
                            batch.insert(v, u, rng.random::<f64>());
                            u
                        }
                        1 => {
                            let u = if rng.random::<bool>() {
                                v + 1
                            } else {
                                v + SIDE as u32
                            };
                            batch.delete(v, u);
                            u
                        }
                        _ => {
                            batch.reweight(v, v + 1, rng.random::<f64>());
                            v + 1
                        }
                    };
                    self.outstanding.push_back((v, u));
                }
                Request::Mutate(batch)
            }
        }
    }

    /// The next mutation batch, skipping reads.
    fn next_batch(&mut self) -> MutationBatch {
        loop {
            if let Request::Mutate(b) = self.next() {
                return b;
            }
        }
    }
}

fn initial_graph(seed: u64) -> CsrGraph {
    assign_weights(
        &generators::grid2d(SIDE, SIDE),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        seed,
    )
}

/// A bound server on its own thread plus a connected client.
struct Live {
    client: ServeClient,
    server: JoinHandle<Result<cmg_serve::ServeSummary, cmg_net::NetError>>,
}

fn start(g0: &CsrGraph, socket: &Path) -> Live {
    let server = Server::bind(
        g0,
        ServerConfig {
            socket: socket.to_path_buf(),
            serve: ServeConfig::default(),
        },
    )
    .expect("server binds");
    let server = std::thread::spawn(move || server.run());
    let client = ServeClient::connect(socket, Duration::from_secs(10)).expect("client connects");
    Live { client, server }
}

fn stop(live: Live, report: &mut Report) {
    let shut = live.client.shutdown_server();
    let joined = live.server.join().expect("server thread");
    if let Err(e) = shut
        .map_err(|e| e.to_string())
        .and(joined.map(|_| ()).map_err(|e| e.to_string()))
    {
        report.fail(&format!("server shutdown: {e}"));
    }
}

/// Request samples of one mode (untraced or traced).
#[derive(Default)]
struct Samples {
    /// Round trip of every request, seconds.
    all: Vec<f64>,
    /// Mutation round trips, microseconds, paired with `absorb`.
    mutate: Vec<f64>,
    /// Server-side absorb time of each batch (`RepairAck::Done.micros`).
    absorb: Vec<f64>,
    /// Dirty vertices (matching, coloring) per batch.
    dirty: Vec<(u64, u64)>,
    /// Point-read round trips, microseconds.
    query: Vec<f64>,
}

/// What one closed-loop window produced.
#[derive(Default)]
struct Served {
    /// Untraced requests.
    off: Samples,
    /// Traced requests (every other one on a traced run).
    on: Samples,
    /// Acknowledged batches in stream order (replayed into the mirror).
    batches: Vec<MutationBatch>,
    /// Per acknowledged batch, in stream order: dirty matching and
    /// coloring vertices and the server's absorb time in microseconds.
    acks: Vec<(u64, u64, f64)>,
    /// Requests completed.
    requests: usize,
    /// Window wall time, seconds.
    wall: f64,
}

/// Drives the closed loop for `secs`; traced requests get a span each.
fn drive(
    args: &Args,
    tracer: &mut Tracer,
    client: &mut ServeClient,
    stream: &mut Stream,
    report: &mut Report,
) -> Served {
    let mut served = Served::default();
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let mut broken = false;
    let all = run_window(args.seconds, 2, |id| {
        if broken {
            return None;
        }
        let on = traced_op(args, id);
        let t = if on { &mut *tracer } else { &mut off };
        let req = stream.next();
        let t0 = Instant::now();
        let reply = t.span("serve.request", id, |t| match &req {
            Request::Mutate(batch) => {
                let ack = client.mutate(batch).map(Some);
                if let Ok(Some(RepairAck::Done { micros, .. })) = ack {
                    // The server measures its own absorb; its span is
                    // placed at the end of the round trip.
                    let end = t.now();
                    t.record("serve.absorb", id, end - micros as f64 * 1e-6, end);
                }
                ack
            }
            Request::MateOf(v) => client.mate_of(*v).map(|_| None),
            Request::ColorOf(v) => client.color_of(*v).map(|_| None),
        });
        let rtt = t0.elapsed().as_secs_f64();
        let s = if on { &mut served.on } else { &mut served.off };
        s.all.push(rtt);
        match (req, reply) {
            (Request::Mutate(batch), Ok(Some(ack))) => match ack {
                RepairAck::Done {
                    micros,
                    dirty_matching,
                    dirty_coloring,
                    ..
                } => {
                    s.mutate.push(rtt * 1e6);
                    s.absorb.push(micros as f64);
                    s.dirty.push((dirty_matching, dirty_coloring));
                    served.batches.push(batch);
                    served
                        .acks
                        .push((dirty_matching, dirty_coloring, micros as f64));
                }
                RepairAck::Rejected { code } => report.fail(&format!("batch rejected ({code})")),
            },
            (_, Ok(_)) => s.query.push(rtt * 1e6),
            (_, Err(e)) => {
                report.fail(&format!("request failed: {e}"));
                broken = true;
            }
        }
        Some(rtt)
    });
    served.requests = all.len();
    served.wall = started.elapsed().as_secs_f64();
    report.attempted += all.len() as u64;
    served
}

pub fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    println!("serve_mix: {SIDE}x{SIDE} grid, 4 ranks, one closed-loop client");
    let seed = args.seed;
    let dir = std::env::temp_dir();
    let socket = |k: usize| -> PathBuf {
        dir.join(format!("perfbench-serve-{}-{k}.sock", std::process::id()))
    };
    let mut generate = Vec::new();
    let mut k = 0;
    let mut spares = Vec::new();
    let (setup_s, g0) = timed_setups(SETUPS, || {
        let t = Instant::now();
        let g0 = initial_graph(seed);
        generate.push(t.elapsed().as_secs_f64());
        spares.push(start(&g0, &socket(k)));
        k += 1;
        g0
    });
    let mut live = spares.pop().expect("one server per set-up");
    for spare in spares {
        stop(spare, report);
    }

    let mut stream = Stream::new(seed, &g0);
    let served = drive(args, tracer, &mut live.client, &mut stream, report);

    // The mirror replays every acknowledged batch to know the final graph.
    let mut mirror = MutableGraph::from_csr(&g0);
    for b in &served.batches {
        if let Err(e) = mirror.apply(b) {
            report.fail(&format!("mirror rejects an acknowledged batch: {e}"));
        }
    }
    let final_g = mirror.rebuild();
    let served_m = Matching::from_mates(live.client.matching().expect("matching query"));
    let served_c = Coloring::from_colors(live.client.coloring().expect("coloring query"));
    if served_m.mates() != cmg_matching::seq::local_dominant(&final_g).mates() {
        report.fail("served matching differs from a cold run on the final graph");
    }
    if let Err(e) = served_m.validate(&final_g) {
        report.fail(&format!("served matching invalid: {e}"));
    }
    if let Err(e) = served_c.validate(&final_g) {
        report.fail(&format!("served coloring not proper: {e}"));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..FINAL_READS {
        let v = rng.random_range(0..(SIDE * SIDE) as u32);
        let want = served_m.mates()[v as usize];
        let want = (want != NO_VERTEX).then_some(want);
        if live.client.mate_of(v).ok() != Some(want)
            || live.client.color_of(v).ok() != Some(served_c.colors()[v as usize])
        {
            report.fail(&format!(
                "point read of {v} disagrees with the served vectors"
            ));
        }
    }
    stop(live, report);

    println!("end to end (untraced):");
    let w = &served.off;
    let mutate = Dist::of(&w.mutate).expect("mutations in the window");
    let query = Dist::of(&w.query).expect("reads in the window");
    report.metric(
        "setup_s",
        "s",
        setup_s,
        &format!("median of {SETUPS} generate + bind + connect"),
    );
    report.metric(
        "latency_p50_ms",
        "ms",
        mutate.median / 1e3,
        "median mutation round trip",
    );
    report.metric(
        "ops_per_s",
        "1/s",
        w.all.len() as f64 / w.all.iter().sum::<f64>(),
        "requests per second of round trips",
    );
    report.metric(
        "serve_mutate_p50_us",
        "us",
        mutate.median,
        &mutate.describe("us"),
    );
    tail_metric(report, "serve_mutate_p99_us", &w.mutate);
    report.metric(
        "serve_query_p50_us",
        "us",
        query.median,
        &query.describe("us"),
    );
    tail_metric(report, "serve_query_p99_us", &w.query);
    report.metric(
        "serve_ops_per_s",
        "1/s",
        served.requests as f64 / served.wall,
        "closed loop, requests over window wall time",
    );
    report.metric(
        "colors_used",
        "count",
        served_c.num_colors() as f64,
        "final served coloring",
    );

    if !args.trace {
        return;
    }
    println!("per layer (traced):");
    report.metric(
        "graph.generate_s",
        "s",
        median(&generate),
        "grid2d + weights",
    );
    let wt = &served.on;
    let absorb = Dist::of(&wt.absorb).expect("traced mutations");
    report.metric(
        "serve.absorb_p50_us",
        "us",
        absorb.median,
        &absorb.describe("us"),
    );
    tail_metric(report, "serve.absorb_p99_us", &wt.absorb);
    let overhead = paired_diff(&wt.mutate, &wt.absorb);
    report.metric(
        "serve.request_overhead_us",
        "us",
        median(&overhead),
        "per batch: round trip - absorb, paired",
    );
    let per_dirty: Vec<f64> = wt
        .absorb
        .iter()
        .zip(&wt.dirty)
        .filter(|(_, (m, c))| m + c > 0)
        .map(|(a, (m, c))| a / (m + c) as f64)
        .collect();
    report.metric(
        "serve.absorb_us_per_dirty",
        "us",
        median(&per_dirty),
        "absorb / (dirty_m + dirty_c)",
    );
    let mutate_t = Dist::of(&wt.mutate).expect("traced mutations");
    println!(
        "  round trip {} us = overhead {} us + absorb {} us (medians; residual {} us)",
        mutate_t.median,
        median(&overhead),
        absorb.median,
        mutate_t.median - median(&overhead) - absorb.median
    );
    report.metric(
        "obs.trace_overhead_frac",
        "frac",
        mutate_t.median / mutate.median - 1.0,
        "traced median mutation round trip / untraced - 1",
    );
    // The replay runs on its own thread, as the server's state does, so
    // both allocate from a thread arena rather than the main one.
    std::thread::scope(|s| {
        s.spawn(|| replay(tracer, &g0, seed, &served.acks, report))
            .join()
            .expect("replay thread");
    });
}

/// Reports p99 when at least ten samples lie beyond it, else says so
/// and reports the highest percentile that has them.
fn tail_metric(report: &mut Report, name: &str, samples: &[f64]) {
    let d = Dist::of(samples).expect("samples to summarize");
    match percentile(samples, 990) {
        Some(v) => report.metric(name, "us", v, &format!("p99, n={}", d.n)),
        None => report.metric(
            name,
            "us",
            d.tail.map_or(d.median, |(_, v)| v),
            &format!("too few samples for p99: {}", d.describe("us")),
        ),
    }
}

/// Mate and color vectors after a cold recompute, if the batch caused one.
type Recomputed = Option<(Vec<u32>, Vec<u32>)>;

/// In-process replay of the stream's first [`REPLAY`] batches, in two
/// passes so neither evicts the other's state from cache: first
/// `ServeState::apply` under the counting allocator, then the repair
/// kernels one by one (spans) on a mirror.
fn replay(t: &mut Tracer, g0: &CsrGraph, seed: u64, acks: &[(u64, u64, f64)], report: &mut Report) {
    let mut stream = Stream::new(seed, g0);
    let batches: Vec<MutationBatch> = (0..REPLAY).map(|_| stream.next_batch()).collect();
    let cfg = ServeConfig::default();
    let cseed = cfg.coloring.seed;
    let mut state = ServeState::new(g0, cfg).expect("in-process serve state");
    let initial = (
        state.matching().mates().to_vec(),
        state.coloring().colors().to_vec(),
    );

    let (mut alloc_bytes, mut dirty_m, mut dirty_c) = (0u64, 0u64, 0u64);
    let (mut repairs, mut recomputes, mut rejected) = (0u64, 0u64, 0u64);
    let mut state_us = Vec::with_capacity(REPLAY);
    // Per batch: `None` if rejected, else the recomputed vectors when the
    // state recomputed cold instead of repairing.
    let mut outcomes: Vec<Option<Recomputed>> = Vec::with_capacity(REPLAY);
    for (i, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let (rep, allocs) = alloc::count(|| state.apply(batch));
        let apply_us = t0.elapsed().as_secs_f64() * 1e6;
        alloc_bytes += allocs.bytes;
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                rejected += 1;
                report.fail(&format!("replayed batch {i} rejected: {e}"));
                outcomes.push(None);
                continue;
            }
        };
        state_us.push(apply_us);
        dirty_m += rep.dirty_matching as u64;
        dirty_c += rep.dirty_coloring as u64;
        if let Some(&(sm, sc, _)) = acks.get(i) {
            if (sm, sc) != (rep.dirty_matching as u64, rep.dirty_coloring as u64) {
                report.fail(&format!(
                    "batch {i}: server and in-process replay disagree on dirtiness"
                ));
            }
        }
        outcomes.push(Some(match rep.mode {
            RepairMode::Repair => {
                repairs += 1;
                None
            }
            RepairMode::Recompute => {
                recomputes += 1;
                Some((
                    state.matching().mates().to_vec(),
                    state.coloring().colors().to_vec(),
                ))
            }
        }));
    }

    let mut mg = MutableGraph::from_csr(g0);
    let (mut mate, mut colors) = initial;
    for (i, (batch, outcome)) in batches.iter().zip(&outcomes).enumerate() {
        let Some(recomputed) = outcome else { continue };
        let id = i as u64;
        t.span("serve.replay", id, |t| {
            t.span("graph.mutable_apply", id, |_| mg.apply(batch))
                .expect("mirror applies");
            let rm = t.span("matching.invalidate", id, |_| invalidate(&mg, &mate, batch));
            let rc = t.span("coloring.invalidate", id, |_| {
                invalidate_colors(&mg, &colors, batch, cseed)
            });
            match recomputed {
                // Past the dirtiness threshold the state recomputed cold;
                // adopt its result instead of timing a repair.
                Some((m, c)) => (mate, colors) = (m.clone(), c.clone()),
                None => {
                    mate = t.span("matching.repair", id, |_| repair_frontier(&mg, &rm));
                    colors = t.span("coloring.repair", id, |_| {
                        repair_frontier_colors(&mg, &rc, cseed)
                    });
                }
            }
        });
    }
    if mate != state.matching().mates() {
        report.fail("kernel replay and ServeState replay end with different matchings");
    }
    report.attempted += REPLAY as u64;

    let us = |name: &str| median(&t.durations(name)) * 1e6;
    let kernel_us: Vec<f64> = t
        .durations("serve.replay")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let r = REPLAY as f64;
    report.metric(
        "graph.mutable_apply_us",
        "us",
        us("graph.mutable_apply"),
        "MutableGraph::apply, replay",
    );
    report.metric(
        "matching.invalidate_us",
        "us",
        us("matching.invalidate"),
        "replay",
    );
    report.metric(
        "matching.repair_us",
        "us",
        us("matching.repair"),
        "repair_frontier, replay",
    );
    report.metric(
        "coloring.invalidate_us",
        "us",
        us("coloring.invalidate"),
        "replay",
    );
    report.metric(
        "coloring.repair_us",
        "us",
        us("coloring.repair"),
        "repair_frontier_colors, replay",
    );
    report.metric(
        "matching.dirty_per_batch",
        "count",
        dirty_m as f64 / r,
        "replay; counter",
    );
    report.metric(
        "coloring.dirty_per_batch",
        "count",
        dirty_c as f64 / r,
        "replay; counter",
    );
    report.metric(
        "serve.alloc_bytes_per_batch",
        "B",
        alloc_bytes as f64 / r,
        "ServeState::apply, replay; counter",
    );
    report.metric(
        "serve.repairs",
        "count",
        repairs as f64,
        &format!("of {REPLAY} replayed batches; counter"),
    );
    report.metric("serve.recomputes", "count", recomputes as f64, "counter");
    report.metric("serve.rejected", "count", rejected as f64, "counter");

    // absorb ≈ apply + invalidate + repair, paired per batch. The gated
    // residual uses the in-process absorb (`ServeState::apply`, timed
    // moments before the kernels, so host drift cancels); the server's
    // own absorb of the same batches, timed earlier, is printed beside it.
    let residual = paired_diff(&state_us, &kernel_us);
    let absorb_server: Vec<f64> = acks.iter().take(REPLAY).map(|a| a.2).collect();
    let paired = absorb_server.len().min(kernel_us.len());
    println!(
        "  absorb medians: ServeState::apply {} us, kernels {} us, server (first {paired} batches, timed in the window) {} us",
        median(&state_us),
        median(&kernel_us),
        median(&absorb_server)
    );
    println!(
        "  ServeState::apply - (apply + invalidate + repair), paired: median {} us; server absorb - kernels, paired: median {} us",
        median(&residual),
        median(&paired_diff(&absorb_server, &kernel_us[..paired]))
    );
    report.metric(
        "reconcile.residual_frac",
        "frac",
        median(&residual) / median(&state_us),
        "ServeState::apply vs kernels, paired",
    );
}
