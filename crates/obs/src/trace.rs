//! Distributed-trace analysis: live telemetry types shared with the
//! net transport and the post-run critical-path analyzer behind
//! `cmg trace`.
//!
//! Three pieces live here:
//!
//! * [`RankTelemetry`] — the compact cumulative counter block each
//!   worker process piggybacks on its heartbeat beacons (phase
//!   nanoseconds, frames/bytes on the wire, resequencer queue depth).
//! * [`RunHealth`] — the supervisor-side streaming aggregate of the
//!   latest telemetry per rank: which rank is behind, how round time
//!   splits into wait vs compute vs wire across the job.
//! * [`TraceReport`] — the offline analyzer. It ingests a merged,
//!   clock-aligned [`TimedEvent`] stream (every rank's phase spans on
//!   one timeline) and produces a per-round critical-path breakdown:
//!   the straggler rank and how its round decomposed into
//!   serialization, socket wait, resequencer hold, barrier wait,
//!   delivery, and compute.
//!
//! Round attribution needs no explicit round ids on spans: the net
//! worker closes every round with exactly one edge span —
//! [`PhaseName::DoneWave`], or [`PhaseName::BarrierWait`] in traces
//! written by the thread-per-link path that v6 removed — so a span's
//! round is the number of edge spans its rank has already emitted.
//! This keeps the hot-path event unchanged, and older traces (which
//! only ever contain `barrier_wait`) segment exactly as before.

use crate::event::{Event, PhaseName, TimedEvent, ENGINE_RANK};
use crate::json::Json;

/// Cumulative per-rank counters a worker ships on every heartbeat.
///
/// All `_ns` fields are totals since the run's `Start`, so the
/// supervisor can difference consecutive beacons for rates. The block
/// is fixed-size and integer-only on purpose: it rides the ctrl path
/// of the wire protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankTelemetry {
    /// Rank the counters describe.
    pub rank: u32,
    /// Highest round the rank has entered.
    pub round: u64,
    /// Time decoding and delivering inbound bundles.
    pub delivery_ns: u64,
    /// Time in the rank program.
    pub compute_ns: u64,
    /// Time encoding and writing outbound bundles ("serialize").
    pub serialize_ns: u64,
    /// Time blocked at the round edge (the done wave, which subsumes
    /// the wait for the previous round's bundles).
    pub barrier_wait_ns: u64,
    /// Time in-order delivery was stalled by the resequencer.
    pub reseq_hold_ns: u64,
    /// Data-plane frames sent across all links.
    pub frames_sent: u64,
    /// Data-plane bytes sent across all links.
    pub bytes_sent: u64,
    /// Frames currently held out-of-order by resequencers (queue depth).
    pub reseq_pending: u64,
    /// Worst observed bundle lag: send-stamp to local receipt, µs.
    pub max_bundle_lag_micros: u64,
}

impl RankTelemetry {
    /// Total accounted time: waits plus work, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.delivery_ns
            .saturating_add(self.compute_ns)
            .saturating_add(self.serialize_ns)
            .saturating_add(self.barrier_wait_ns)
    }

    /// Time doing work (delivery + compute + serialize), nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.delivery_ns
            .saturating_add(self.compute_ns)
            .saturating_add(self.serialize_ns)
    }

    /// Time waiting on peers (the round edge), nanoseconds.
    pub fn wait_ns(&self) -> u64 {
        self.barrier_wait_ns
    }

    /// JSON object with every counter, stable key order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::UInt(self.rank.into())),
            ("round", Json::UInt(self.round)),
            ("delivery_ns", Json::UInt(self.delivery_ns)),
            ("compute_ns", Json::UInt(self.compute_ns)),
            ("serialize_ns", Json::UInt(self.serialize_ns)),
            ("barrier_wait_ns", Json::UInt(self.barrier_wait_ns)),
            ("reseq_hold_ns", Json::UInt(self.reseq_hold_ns)),
            ("frames_sent", Json::UInt(self.frames_sent)),
            ("bytes_sent", Json::UInt(self.bytes_sent)),
            ("reseq_pending", Json::UInt(self.reseq_pending)),
            (
                "max_bundle_lag_micros",
                Json::UInt(self.max_bundle_lag_micros),
            ),
        ])
    }
}

/// The supervisor's streaming view of a running job: the latest
/// telemetry block per rank plus the derived straggler/wait facts.
///
/// Updated on every heartbeat, readable at any time — "is rank 3
/// behind and why" without waiting for the run to finish.
#[derive(Clone, Debug, Default)]
pub struct RunHealth {
    ranks: Vec<Option<RankTelemetry>>,
    beacons: u64,
    recoveries: u64,
    last_recovery_micros: u64,
}

impl RunHealth {
    /// Empty health view over `n` ranks.
    pub fn new(n: usize) -> Self {
        RunHealth {
            ranks: vec![None; n],
            beacons: 0,
            recoveries: 0,
            last_recovery_micros: 0,
        }
    }

    /// Absorbs one telemetry beacon (keeps the latest per rank).
    pub fn observe(&mut self, t: RankTelemetry) {
        let idx = t.rank as usize;
        if idx < self.ranks.len() {
            self.ranks[idx] = Some(t);
            self.beacons += 1;
        }
    }

    /// Number of beacons absorbed.
    pub fn beacons(&self) -> u64 {
        self.beacons
    }

    /// Records one completed checkpoint recovery: the fleet was
    /// relaunched from its last good snapshot set and restarted
    /// `micros` microseconds after the failure was detected.
    pub fn note_recovery(&mut self, micros: u64) {
        self.recoveries += 1;
        self.last_recovery_micros = micros;
    }

    /// Checkpoint recoveries the run survived.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Detection-to-restart latency of the most recent recovery, in
    /// microseconds (`None` when the run never recovered).
    pub fn last_recovery_micros(&self) -> Option<u64> {
        (self.recoveries > 0).then_some(self.last_recovery_micros)
    }

    /// Latest telemetry for `rank`, if any beacon arrived.
    pub fn rank(&self, rank: u32) -> Option<&RankTelemetry> {
        self.ranks.get(rank as usize).and_then(Option::as_ref)
    }

    /// Lowest round any reporting rank has entered.
    pub fn min_round(&self) -> Option<u64> {
        self.ranks.iter().flatten().map(|t| t.round).min()
    }

    /// Highest round any reporting rank has entered.
    pub fn max_round(&self) -> Option<u64> {
        self.ranks.iter().flatten().map(|t| t.round).max()
    }

    /// The rank the job is waiting on: lowest round, ties broken by
    /// the least time spent waiting on peers (the rank others wait for
    /// is the one that waits least).
    pub fn straggler(&self) -> Option<u32> {
        self.ranks
            .iter()
            .flatten()
            .min_by_key(|t| (t.round, t.wait_ns()))
            .map(|t| t.rank)
    }

    /// Sum of frames currently held out-of-order across all ranks.
    pub fn total_reseq_pending(&self) -> u64 {
        self.ranks.iter().flatten().map(|t| t.reseq_pending).sum()
    }

    /// Fraction of accounted time spent waiting (socket + barrier)
    /// across all reporting ranks; `None` before any beacon.
    pub fn wait_fraction(&self) -> Option<f64> {
        let total: u64 = self.ranks.iter().flatten().map(|t| t.total_ns()).sum();
        if total == 0 {
            return None;
        }
        let wait: u64 = self.ranks.iter().flatten().map(|t| t.wait_ns()).sum();
        Some(wait as f64 / total as f64)
    }

    /// JSON snapshot: per-rank telemetry plus the derived facts.
    pub fn to_json(&self) -> Json {
        let ranks: Vec<Json> = self
            .ranks
            .iter()
            .flatten()
            .map(RankTelemetry::to_json)
            .collect();
        let mut pairs = vec![
            ("beacons", Json::UInt(self.beacons)),
            ("ranks", Json::Arr(ranks)),
        ];
        if let Some(r) = self.min_round() {
            pairs.push(("min_round", Json::UInt(r)));
        }
        if let Some(r) = self.max_round() {
            pairs.push(("max_round", Json::UInt(r)));
        }
        if let Some(s) = self.straggler() {
            pairs.push(("straggler", Json::UInt(s.into())));
        }
        if let Some(w) = self.wait_fraction() {
            pairs.push(("wait_fraction", Json::Float(w)));
        }
        pairs.push(("reseq_pending", Json::UInt(self.total_reseq_pending())));
        pairs.push(("recoveries", Json::UInt(self.recoveries)));
        if let Some(us) = self.last_recovery_micros() {
            pairs.push(("last_recovery_micros", Json::UInt(us)));
        }
        Json::obj(pairs)
    }
}

/// Per-phase seconds within one round for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSplit {
    pub wire_wait_s: f64,
    pub delivery_s: f64,
    pub compute_s: f64,
    pub serialize_s: f64,
    pub barrier_wait_s: f64,
    pub done_wave_s: f64,
    pub reseq_hold_s: f64,
}

impl PhaseSplit {
    fn add(&mut self, name: PhaseName, dur: f64) {
        match name {
            PhaseName::WireWait => self.wire_wait_s += dur,
            PhaseName::Delivery => self.delivery_s += dur,
            PhaseName::Compute => self.compute_s += dur,
            PhaseName::Send => self.serialize_s += dur,
            PhaseName::BarrierWait => self.barrier_wait_s += dur,
            PhaseName::DoneWave => self.done_wave_s += dur,
            PhaseName::ReseqHold => self.reseq_hold_s += dur,
        }
    }

    /// Seconds doing work (delivery + compute + serialize).
    pub fn busy_s(&self) -> f64 {
        self.delivery_s + self.compute_s + self.serialize_s
    }

    /// Total attributed seconds across all phases except the
    /// resequencer hold (which overlaps the blocking wait rather than
    /// adding to it).
    pub fn accounted_s(&self) -> f64 {
        self.wire_wait_s + self.busy_s() + self.barrier_wait_s + self.done_wave_s
    }

    fn merge(&mut self, other: &PhaseSplit) {
        self.wire_wait_s += other.wire_wait_s;
        self.delivery_s += other.delivery_s;
        self.compute_s += other.compute_s;
        self.serialize_s += other.serialize_s;
        self.barrier_wait_s += other.barrier_wait_s;
        self.done_wave_s += other.done_wave_s;
        self.reseq_hold_s += other.reseq_hold_s;
    }

    fn json_pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("serialize_s", Json::Float(self.serialize_s)),
            ("wire_wait_s", Json::Float(self.wire_wait_s)),
            ("reseq_hold_s", Json::Float(self.reseq_hold_s)),
            ("barrier_wait_s", Json::Float(self.barrier_wait_s)),
            ("done_wave_s", Json::Float(self.done_wave_s)),
            ("compute_s", Json::Float(self.compute_s)),
            ("delivery_s", Json::Float(self.delivery_s)),
        ]
    }
}

/// One round of the critical-path report.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundBreakdown {
    /// Round index (0-based).
    pub round: u64,
    /// Wall-clock extent of the round: the widest single rank's
    /// first-span-start to last-span-end. Every rank's extent spans
    /// the same barrier-to-barrier interval, so this measures the
    /// round without absorbing residual cross-rank clock skew.
    pub wall_s: f64,
    /// The rank on the round's critical path: most work (delivery +
    /// compute + serialize) this round.
    pub straggler: u32,
    /// The straggler's phase decomposition — the critical path itself.
    pub split: PhaseSplit,
    /// Fraction of `wall_s` the widest rank attributes to named phases
    /// (≈ 1.0 when instrumentation is complete).
    pub coverage: f64,
}

impl RoundBreakdown {
    /// JSON row for `BENCH_net_breakdown.json` and `cmg trace --json`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("round", Json::UInt(self.round)),
            ("wall_s", Json::Float(self.wall_s)),
            ("straggler", Json::UInt(self.straggler.into())),
            ("coverage", Json::Float(self.coverage)),
        ];
        pairs.extend(self.split.json_pairs());
        Json::obj(pairs)
    }
}

/// Accumulator for one rank's spans within one round.
#[derive(Clone, Debug, Default)]
struct RankRound {
    split: PhaseSplit,
    start: f64,
    end: f64,
    seen: bool,
}

/// The `cmg trace` critical-path report over a merged, clock-aligned
/// event stream.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Ranks that contributed at least one phase span.
    pub ranks: Vec<u32>,
    /// Per-round breakdown, round order.
    pub rounds: Vec<RoundBreakdown>,
}

impl TraceReport {
    /// Builds the report from a merged event stream. Only
    /// [`Event::Phase`] spans matter; everything else (packets,
    /// engine-global round markers, protocol counters) is ignored.
    ///
    /// Spans must be in per-rank emission order (any `(rank, seq)` or
    /// time-sorted stream from the recorder/sinks qualifies): a span's
    /// round is the number of round-edge spans its rank emitted before
    /// it, because the net worker closes every round with exactly one
    /// edge span — `done_wave`, or `barrier_wait` in pre-v6 traces.
    pub fn from_events(events: &[TimedEvent]) -> TraceReport {
        // rank -> (current round, per-round accumulators)
        let mut per_rank: std::collections::BTreeMap<u32, (usize, Vec<RankRound>)> =
            std::collections::BTreeMap::new();
        for te in events {
            if te.rank == ENGINE_RANK {
                continue;
            }
            let (name, start, dur) = match te.event {
                Event::Phase { name, start, dur } => (name, start, dur),
                _ => continue,
            };
            let (round, rounds) = per_rank.entry(te.rank).or_insert_with(|| (0, Vec::new()));
            if rounds.len() <= *round {
                rounds.resize(*round + 1, RankRound::default());
            }
            let slot = &mut rounds[*round];
            slot.split.add(name, dur);
            let end = start + dur;
            if !slot.seen {
                slot.start = start;
                slot.end = end;
                slot.seen = true;
            } else {
                slot.start = slot.start.min(start);
                slot.end = slot.end.max(end);
            }
            if name == PhaseName::BarrierWait || name == PhaseName::DoneWave {
                *round += 1;
            }
        }

        let ranks: Vec<u32> = per_rank.keys().copied().collect();
        let max_rounds = per_rank
            .values()
            .map(|(_, rounds)| rounds.len())
            .max()
            .unwrap_or(0);
        let mut rounds = Vec::with_capacity(max_rounds);
        for r in 0..max_rounds {
            // The round's wall time is the widest single rank's extent,
            // not the cross-rank min-start..max-end window: every
            // rank's extent spans the same barrier-to-barrier physical
            // interval, so the max extent measures the round while the
            // cross-rank window would also absorb any residual
            // per-rank clock-alignment error.
            let mut straggler: Option<(u32, f64)> = None;
            let mut widest: Option<(f64, f64)> = None; // (extent, accounted)
            for (&rank, (_, rr)) in &per_rank {
                let slot = match rr.get(r) {
                    Some(s) if s.seen => s,
                    _ => continue,
                };
                let extent = (slot.end - slot.start).max(0.0);
                if widest.is_none_or(|(w, _)| extent > w) {
                    widest = Some((extent, slot.split.accounted_s()));
                }
                let busy = slot.split.busy_s();
                if straggler.is_none_or(|(_, b)| busy > b) {
                    straggler = Some((rank, busy));
                }
            }
            let (straggler, _) = match straggler {
                Some(s) => s,
                None => continue,
            };
            let (wall, acc) = widest.unwrap_or((0.0, 0.0));
            let coverage = if wall > 0.0 {
                (acc / wall).min(1.0)
            } else {
                1.0
            };
            // The report's split is the straggler's decomposition.
            let split = per_rank
                .get(&straggler)
                .and_then(|(_, rr)| rr.get(r))
                .map(|s| s.split)
                .unwrap_or_default();
            rounds.push(RoundBreakdown {
                round: r as u64,
                wall_s: wall,
                straggler,
                split,
                coverage,
            });
        }
        TraceReport { ranks, rounds }
    }

    /// Total wall seconds across all rounds.
    pub fn total_wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Sum of the per-round straggler splits — the run's critical-path
    /// decomposition.
    pub fn total_split(&self) -> PhaseSplit {
        let mut total = PhaseSplit::default();
        for r in &self.rounds {
            total.merge(&r.split);
        }
        total
    }

    /// Minimum per-round coverage (1.0 when there are no rounds).
    pub fn min_coverage(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.coverage)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// The rank most often on the critical path.
    pub fn overall_straggler(&self) -> Option<u32> {
        let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for r in &self.rounds {
            *counts.entry(r.straggler).or_insert(0) += 1;
        }
        // max_by_key returns the last maximum; iterate in reverse so
        // ties resolve to the lowest rank, deterministically.
        counts
            .into_iter()
            .rev()
            .max_by_key(|&(_, n)| n)
            .map(|(rank, _)| rank)
    }

    /// Machine-readable report (the payload of
    /// `BENCH_net_breakdown.json`).
    pub fn to_json(&self) -> Json {
        let rounds: Vec<Json> = self.rounds.iter().map(RoundBreakdown::to_json).collect();
        let total = self.total_split();
        let mut pairs = vec![
            (
                "ranks",
                Json::Arr(self.ranks.iter().map(|&r| Json::UInt(r.into())).collect()),
            ),
            ("num_rounds", Json::UInt(self.rounds.len() as u64)),
            ("total_wall_s", Json::Float(self.total_wall_s())),
            ("min_coverage", Json::Float(self.min_coverage())),
        ];
        if let Some(s) = self.overall_straggler() {
            pairs.push(("overall_straggler", Json::UInt(s.into())));
        }
        pairs.extend(total.json_pairs());
        pairs.push(("rounds", Json::Arr(rounds)));
        Json::obj(pairs)
    }

    /// Human-readable critical-path report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path report: {} ranks, {} rounds, {:.3} ms wall",
            self.ranks.len(),
            self.rounds.len(),
            self.total_wall_s() * 1e3,
        );
        let _ = writeln!(
            out,
            "{:>5} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>5}",
            "round",
            "wall_ms",
            "straggler",
            "serialize",
            "wire_wait",
            "reseq",
            "barrier",
            "wave",
            "compute",
            "delivery",
            "cov%"
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{:>5} {:>9.3} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9.3} {:>5.1}",
                r.round,
                r.wall_s * 1e3,
                r.straggler,
                r.split.serialize_s * 1e3,
                r.split.wire_wait_s * 1e3,
                r.split.reseq_hold_s * 1e3,
                r.split.barrier_wait_s * 1e3,
                r.split.done_wave_s * 1e3,
                r.split.compute_s * 1e3,
                r.split.delivery_s * 1e3,
                r.coverage * 100.0,
            );
        }
        let total = self.total_split();
        let _ = writeln!(
            out,
            "totals (critical path): serialize {:.3} ms, wire wait {:.3} ms, reseq hold {:.3} ms, \
             barrier wait {:.3} ms, done wave {:.3} ms, compute {:.3} ms, delivery {:.3} ms",
            total.serialize_s * 1e3,
            total.wire_wait_s * 1e3,
            total.reseq_hold_s * 1e3,
            total.barrier_wait_s * 1e3,
            total.done_wave_s * 1e3,
            total.compute_s * 1e3,
            total.delivery_s * 1e3,
        );
        if let Some(s) = self.overall_straggler() {
            let _ = writeln!(
                out,
                "straggler rank: {} (on the critical path in {}/{} rounds); min phase coverage {:.1}%",
                s,
                self.rounds.iter().filter(|r| r.straggler == s).count(),
                self.rounds.len(),
                self.min_coverage() * 100.0,
            );
        }
        out
    }
}

/// Parses a Chrome `trace_event` file produced by
/// [`crate::sink::chrome_trace`] back into a [`TimedEvent`] stream —
/// so `cmg trace` can ingest either the JSONL event stream or the
/// `--trace-out` file. Metadata records are skipped; per-rank sequence
/// numbers are re-assigned in file order.
pub fn events_from_chrome_trace(text: &str) -> Option<Vec<TimedEvent>> {
    let v = Json::parse(text).ok()?;
    let entries = v.get("traceEvents")?.as_arr()?;
    let mut seqs: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in entries {
        let ph = e.get("ph")?.as_str()?;
        if ph == "M" {
            continue;
        }
        let tid = e.get("tid")?.as_u64()? as u32;
        let rank = if tid == 0 { ENGINE_RANK } else { tid - 1 };
        let ts = e.get("ts")?.as_f64()? / 1e6;
        let event = match ph {
            "X" => {
                let name = PhaseName::parse(e.get("name")?.as_str()?)?;
                let dur = e.get("dur")?.as_f64()? / 1e6;
                Some((
                    Event::Phase {
                        name,
                        start: ts,
                        dur,
                    },
                    ts + dur,
                ))
            }
            "i" => {
                let mut pairs = vec![(
                    "kind".to_string(),
                    Json::Str(e.get("name")?.as_str()?.into()),
                )];
                if let Some(Json::Obj(args)) = e.get("args") {
                    pairs.extend(args.iter().cloned());
                }
                Event::from_json(&Json::Obj(pairs)).map(|ev| (ev, ts))
            }
            _ => None,
        };
        let (event, time) = event?;
        let seq = seqs.entry(rank).or_insert(0);
        out.push(TimedEvent {
            rank,
            time,
            seq: *seq,
            event,
        });
        *seq += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: u32, seq: u64, name: PhaseName, start: f64, dur: f64) -> TimedEvent {
        TimedEvent {
            rank,
            time: start + dur,
            seq,
            event: Event::Phase { name, start, dur },
        }
    }

    /// Two ranks, two rounds. Rank 1 computes 3× longer in round 0 and
    /// is the straggler; rank 0 waits for it in the barrier.
    fn two_round_events() -> Vec<TimedEvent> {
        vec![
            // round 0, rank 0: compute 1ms, send 0.5ms, barrier-wait 2.5ms
            span(0, 0, PhaseName::Compute, 0.000, 0.001),
            span(0, 1, PhaseName::Send, 0.001, 0.0005),
            span(0, 2, PhaseName::BarrierWait, 0.0015, 0.0025),
            // round 0, rank 1: compute 3ms, send 0.5ms, barrier-wait 0.5ms
            span(1, 0, PhaseName::Compute, 0.000, 0.003),
            span(1, 1, PhaseName::Send, 0.003, 0.0005),
            span(1, 2, PhaseName::BarrierWait, 0.0035, 0.0005),
            // round 1, rank 0: wire-wait 0.2ms, compute 2ms, barrier 0.3ms
            span(0, 3, PhaseName::WireWait, 0.004, 0.0002),
            span(0, 4, PhaseName::Compute, 0.0042, 0.002),
            span(0, 5, PhaseName::BarrierWait, 0.0062, 0.0003),
            // round 1, rank 1: wire-wait 0.2ms, compute 1ms, barrier 1.3ms
            span(1, 3, PhaseName::WireWait, 0.004, 0.0002),
            span(1, 4, PhaseName::Compute, 0.0042, 0.001),
            span(1, 5, PhaseName::BarrierWait, 0.0052, 0.0013),
        ]
    }

    #[test]
    fn rounds_are_attributed_by_barrier_count() {
        let report = TraceReport::from_events(&two_round_events());
        assert_eq!(report.ranks, vec![0, 1]);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.rounds[0].round, 0);
        assert_eq!(report.rounds[1].round, 1);
    }

    /// Two ranks, two rounds on the event-driven path: no barrier-wait
    /// spans at all — each round closes with a `done_wave` span and the
    /// wave wait subsumes the wire wait.
    fn two_round_wave_events() -> Vec<TimedEvent> {
        vec![
            span(0, 0, PhaseName::Compute, 0.000, 0.001),
            span(0, 1, PhaseName::Send, 0.001, 0.0005),
            span(0, 2, PhaseName::DoneWave, 0.0015, 0.0025),
            span(1, 0, PhaseName::Compute, 0.000, 0.003),
            span(1, 1, PhaseName::Send, 0.003, 0.0005),
            span(1, 2, PhaseName::DoneWave, 0.0035, 0.0005),
            span(0, 3, PhaseName::Compute, 0.004, 0.002),
            span(0, 4, PhaseName::DoneWave, 0.006, 0.0003),
            span(1, 3, PhaseName::Compute, 0.004, 0.001),
            span(1, 4, PhaseName::DoneWave, 0.005, 0.0013),
        ]
    }

    #[test]
    fn rounds_are_attributed_by_done_wave_count_when_the_barrier_is_absent() {
        let report = TraceReport::from_events(&two_round_wave_events());
        assert_eq!(report.ranks, vec![0, 1]);
        assert_eq!(report.rounds.len(), 2);
        for r in &report.rounds {
            assert!(r.split.done_wave_s > 0.0, "round {}", r.round);
            assert_eq!(r.split.barrier_wait_s, 0.0);
            assert!(
                r.coverage > 0.95,
                "round {} coverage {}",
                r.round,
                r.coverage
            );
        }
        assert_eq!(report.rounds[0].straggler, 1);
        let j = report.to_json();
        let rounds = j.get("rounds").and_then(Json::as_arr).unwrap();
        assert!(rounds[0].get("done_wave_s").is_some());
        let text = report.to_text();
        assert!(text.contains("wave"));
    }

    #[test]
    fn straggler_is_the_busiest_rank() {
        let report = TraceReport::from_events(&two_round_events());
        assert_eq!(report.rounds[0].straggler, 1);
        assert_eq!(report.rounds[1].straggler, 0);
        // Each rank wins one round; ties resolve to the lowest rank.
        assert_eq!(report.overall_straggler(), Some(0));
    }

    #[test]
    fn coverage_is_high_when_spans_tile_the_round() {
        let report = TraceReport::from_events(&two_round_events());
        for r in &report.rounds {
            assert!(
                r.coverage > 0.95,
                "round {} coverage {}",
                r.round,
                r.coverage
            );
        }
        assert!(report.min_coverage() > 0.95);
        // Round 0 wall: 0.0 .. 0.004.
        assert!((report.rounds[0].wall_s - 0.004).abs() < 1e-12);
        // Straggler split in round 0 is rank 1's.
        assert!((report.rounds[0].split.compute_s - 0.003).abs() < 1e-12);
    }

    #[test]
    fn non_phase_events_are_ignored() {
        let mut events = two_round_events();
        events.push(TimedEvent {
            rank: ENGINE_RANK,
            time: 0.0,
            seq: 0,
            event: Event::RoundStart { round: 0 },
        });
        events.push(TimedEvent {
            rank: 0,
            time: 0.001,
            seq: 99,
            event: Event::PacketSent {
                dst: 1,
                bytes: 64,
                logical: 3,
            },
        });
        let a = TraceReport::from_events(&two_round_events());
        let b = TraceReport::from_events(&events);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn report_json_names_phases_and_straggler() {
        let report = TraceReport::from_events(&two_round_events());
        let j = report.to_json();
        assert_eq!(j.get("num_rounds").and_then(Json::as_u64), Some(2));
        assert!(j.get("overall_straggler").is_some());
        let rounds = j.get("rounds").and_then(Json::as_arr).unwrap();
        for key in [
            "serialize_s",
            "wire_wait_s",
            "reseq_hold_s",
            "barrier_wait_s",
            "compute_s",
            "delivery_s",
        ] {
            assert!(rounds[0].get(key).is_some(), "missing {key}");
        }
        let text = report.to_text();
        assert!(text.contains("straggler rank:"));
    }

    #[test]
    fn chrome_trace_round_trips_into_the_analyzer() {
        let events = two_round_events();
        let trace = crate::sink::chrome_trace(&events);
        let back = events_from_chrome_trace(&trace).unwrap();
        assert_eq!(back.len(), events.len());
        let a = TraceReport::from_events(&events);
        let b = TraceReport::from_events(&back);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn run_health_tracks_straggler_and_waits() {
        let mut health = RunHealth::new(3);
        assert_eq!(health.straggler(), None);
        assert_eq!(health.wait_fraction(), None);
        health.observe(RankTelemetry {
            rank: 0,
            round: 5,
            barrier_wait_ns: 100,
            compute_ns: 900,
            ..Default::default()
        });
        health.observe(RankTelemetry {
            rank: 1,
            round: 4,
            barrier_wait_ns: 10,
            compute_ns: 990,
            ..Default::default()
        });
        health.observe(RankTelemetry {
            rank: 2,
            round: 5,
            barrier_wait_ns: 400,
            compute_ns: 600,
            ..Default::default()
        });
        // Rank 1 is a round behind: it is the straggler.
        assert_eq!(health.straggler(), Some(1));
        assert_eq!(health.min_round(), Some(4));
        assert_eq!(health.max_round(), Some(5));
        let wait = health.wait_fraction().unwrap();
        assert!((wait - 510.0 / 3000.0).abs() < 1e-12);
        // A newer beacon for rank 1 catching up moves the straggler to
        // the rank with the least wait time among the tied rounds.
        health.observe(RankTelemetry {
            rank: 1,
            round: 5,
            barrier_wait_ns: 10,
            compute_ns: 1990,
            ..Default::default()
        });
        assert_eq!(health.straggler(), Some(1));
        assert_eq!(health.beacons(), 4);
        let j = health.to_json();
        assert_eq!(j.get("straggler").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn telemetry_json_has_all_counters() {
        let t = RankTelemetry {
            rank: 2,
            round: 9,
            delivery_ns: 2,
            compute_ns: 3,
            serialize_ns: 4,
            barrier_wait_ns: 5,
            reseq_hold_ns: 6,
            frames_sent: 7,
            bytes_sent: 8,
            reseq_pending: 9,
            max_bundle_lag_micros: 10,
        };
        assert_eq!(t.total_ns(), 2 + 3 + 4 + 5);
        assert_eq!(t.busy_ns(), 2 + 3 + 4);
        assert_eq!(t.wait_ns(), 5);
        let j = t.to_json();
        assert_eq!(j.get("reseq_pending").and_then(Json::as_u64), Some(9));
        assert_eq!(j.get("round").and_then(Json::as_u64), Some(9));
    }
}
