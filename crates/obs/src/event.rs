//! The typed event model emitted by the engines and rank programs.
//!
//! Events are deliberately small POD values: the hot path constructs
//! one and hands it to the recorder; all string formatting happens in
//! the cold-path sinks. Each variant maps 1:1 onto a JSONL line (see
//! [`Event::to_json`]/[`Event::from_json`], which the property tests
//! round-trip) and onto a Chrome `trace_event` entry.

use crate::json::Json;

/// Pseudo-rank used for engine-global events (round start/end): real
/// ranks are dense from 0, so the max value can never collide.
pub const ENGINE_RANK: u32 = u32::MAX;

/// One observable occurrence inside a run.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A communication round began (engine-global, rank = [`ENGINE_RANK`]).
    RoundStart { round: u32 },
    /// A communication round finished; `active_ranks` were still doing
    /// work in it (engine-global).
    RoundEnd { round: u32, active_ranks: u32 },
    /// A named span of rank-local work (delivery/compute/send under the
    /// simulated engine; measured wall time under the threaded engine).
    /// `start` is the span's begin timestamp; the event's own timestamp
    /// is its end.
    Phase {
        name: PhaseName,
        start: f64,
        dur: f64,
    },
    /// A wire packet left this rank. `bytes` is the encoded payload
    /// size, `logical` the number of application messages bundled in.
    PacketSent { dst: u32, bytes: u64, logical: u32 },
    /// A wire packet arrived at this rank.
    PacketRecv { src: u32, bytes: u64, logical: u32 },
    /// Matching protocol traffic counts for one round on this rank.
    MatchRound {
        round: u32,
        requests: u64,
        succeeded: u64,
        failed: u64,
    },
    /// Coloring progress for one phase/superstep on this rank:
    /// conflicts detected locally and the number of distinct colors the
    /// rank currently uses.
    ColoringRound {
        phase: u32,
        conflicts: u64,
        colors_used: u64,
    },
}

/// The rank-local phases the engines time.
///
/// `Delivery`/`Compute`/`Send` are emitted by every engine; the
/// remaining variants are wait states only the multi-process net
/// transport can observe, so sim/threaded traces never contain them
/// (which keeps the committed sim golden byte-identical).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseName {
    /// Draining the mailbox and decoding inbound packets.
    Delivery,
    /// Running the rank program for the round.
    Compute,
    /// Encoding, bundling, and enqueueing outbound packets.
    Send,
    /// Blocked on the socket waiting for the previous round's bundles
    /// (net engine, pre-v6 traces only).
    WireWait,
    /// Blocked inside the end-of-round allreduce barrier (net engine,
    /// pre-v6 traces only: the removed thread-per-link path).
    BarrierWait,
    /// Blocked in the rank-to-rank round-done wave — the net engine's
    /// round edge, which subsumes both the bundle wait and the
    /// termination barrier (net engine only).
    DoneWave,
    /// Time in-order delivery was stalled by the resequencer holding
    /// out-of-order frames (net engine only; absent when no frame was
    /// ever held).
    ReseqHold,
}

impl PhaseName {
    /// Stable lowercase identifier used in JSONL and trace files.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseName::Delivery => "delivery",
            PhaseName::Compute => "compute",
            PhaseName::Send => "send",
            PhaseName::WireWait => "wire_wait",
            PhaseName::BarrierWait => "barrier_wait",
            PhaseName::DoneWave => "done_wave",
            PhaseName::ReseqHold => "reseq_hold",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "delivery" => Some(PhaseName::Delivery),
            "compute" => Some(PhaseName::Compute),
            "send" => Some(PhaseName::Send),
            "wire_wait" => Some(PhaseName::WireWait),
            "barrier_wait" => Some(PhaseName::BarrierWait),
            "done_wave" => Some(PhaseName::DoneWave),
            "reseq_hold" => Some(PhaseName::ReseqHold),
            _ => None,
        }
    }
}

/// An [`Event`] plus where and when it happened.
///
/// `seq` is a per-rank sequence number assigned at record time; sinks
/// sort by `(rank, seq)`, which makes serialized order — and therefore
/// the trace bytes — independent of thread scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    pub rank: u32,
    /// Virtual seconds (simulated engine) or wall seconds since run
    /// start (threaded engine).
    pub time: f64,
    /// Position within this rank's event stream.
    pub seq: u64,
    pub event: Event,
}

impl Event {
    /// Stable lowercase tag identifying the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::Phase { .. } => "phase",
            Event::PacketSent { .. } => "packet_sent",
            Event::PacketRecv { .. } => "packet_recv",
            Event::MatchRound { .. } => "match_round",
            Event::ColoringRound { .. } => "coloring_round",
        }
    }

    /// The variant's payload as a JSON object (without rank/time/seq —
    /// [`TimedEvent::to_json`] adds those).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("kind", Json::Str(self.kind().into()))];
        match *self {
            Event::RoundStart { round } => pairs.push(("round", Json::UInt(round.into()))),
            Event::RoundEnd {
                round,
                active_ranks,
            } => {
                pairs.push(("round", Json::UInt(round.into())));
                pairs.push(("active_ranks", Json::UInt(active_ranks.into())));
            }
            Event::Phase { name, start, dur } => {
                pairs.push(("name", Json::Str(name.as_str().into())));
                pairs.push(("start", Json::Float(start)));
                pairs.push(("dur", Json::Float(dur)));
            }
            Event::PacketSent {
                dst,
                bytes,
                logical,
            } => {
                pairs.push(("dst", Json::UInt(dst.into())));
                pairs.push(("bytes", Json::UInt(bytes)));
                pairs.push(("logical", Json::UInt(logical.into())));
            }
            Event::PacketRecv {
                src,
                bytes,
                logical,
            } => {
                pairs.push(("src", Json::UInt(src.into())));
                pairs.push(("bytes", Json::UInt(bytes)));
                pairs.push(("logical", Json::UInt(logical.into())));
            }
            Event::MatchRound {
                round,
                requests,
                succeeded,
                failed,
            } => {
                pairs.push(("round", Json::UInt(round.into())));
                pairs.push(("requests", Json::UInt(requests)));
                pairs.push(("succeeded", Json::UInt(succeeded)));
                pairs.push(("failed", Json::UInt(failed)));
            }
            Event::ColoringRound {
                phase,
                conflicts,
                colors_used,
            } => {
                pairs.push(("phase", Json::UInt(phase.into())));
                pairs.push(("conflicts", Json::UInt(conflicts)));
                pairs.push(("colors_used", Json::UInt(colors_used)));
            }
        }
        Json::obj(pairs)
    }

    /// Inverse of [`Event::to_json`].
    pub fn from_json(v: &Json) -> Option<Event> {
        let u32_of = |key: &str| v.get(key).and_then(Json::as_u64).map(|n| n as u32);
        let u64_of = |key: &str| v.get(key).and_then(Json::as_u64);
        match v.get("kind")?.as_str()? {
            "round_start" => Some(Event::RoundStart {
                round: u32_of("round")?,
            }),
            "round_end" => Some(Event::RoundEnd {
                round: u32_of("round")?,
                active_ranks: u32_of("active_ranks")?,
            }),
            "phase" => Some(Event::Phase {
                name: PhaseName::parse(v.get("name")?.as_str()?)?,
                start: v.get("start")?.as_f64()?,
                dur: v.get("dur")?.as_f64()?,
            }),
            "packet_sent" => Some(Event::PacketSent {
                dst: u32_of("dst")?,
                bytes: u64_of("bytes")?,
                logical: u32_of("logical")?,
            }),
            "packet_recv" => Some(Event::PacketRecv {
                src: u32_of("src")?,
                bytes: u64_of("bytes")?,
                logical: u32_of("logical")?,
            }),
            "match_round" => Some(Event::MatchRound {
                round: u32_of("round")?,
                requests: u64_of("requests")?,
                succeeded: u64_of("succeeded")?,
                failed: u64_of("failed")?,
            }),
            "coloring_round" => Some(Event::ColoringRound {
                phase: u32_of("phase")?,
                conflicts: u64_of("conflicts")?,
                colors_used: u64_of("colors_used")?,
            }),
            _ => None,
        }
    }
}

impl TimedEvent {
    /// One JSONL record: rank/time/seq envelope merged with the event
    /// payload.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("rank".to_string(), Json::UInt(self.rank.into())),
            ("time".to_string(), Json::Float(self.time)),
            ("seq".to_string(), Json::UInt(self.seq)),
        ];
        if let Json::Obj(event_pairs) = self.event.to_json() {
            pairs.extend(event_pairs);
        }
        Json::Obj(pairs)
    }

    /// Inverse of [`TimedEvent::to_json`].
    pub fn from_json(v: &Json) -> Option<TimedEvent> {
        Some(TimedEvent {
            rank: v.get("rank")?.as_u64()? as u32,
            time: v.get("time")?.as_f64()?,
            seq: v.get("seq")?.as_u64()?,
            event: Event::from_json(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::RoundStart { round: 0 },
            Event::RoundEnd {
                round: 3,
                active_ranks: 7,
            },
            Event::Phase {
                name: PhaseName::Compute,
                start: 0.5,
                dur: 1.25e-3,
            },
            Event::PacketSent {
                dst: 2,
                bytes: 4096,
                logical: 511,
            },
            Event::PacketRecv {
                src: 0,
                bytes: u64::MAX,
                logical: u32::MAX,
            },
            Event::MatchRound {
                round: 9,
                requests: 10,
                succeeded: 4,
                failed: 6,
            },
            Event::ColoringRound {
                phase: 2,
                conflicts: 13,
                colors_used: 5,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for (i, event) in samples().into_iter().enumerate() {
            let timed = TimedEvent {
                rank: i as u32,
                time: i as f64 * 0.1,
                seq: i as u64,
                event,
            };
            let line = timed.to_json().to_string_compact();
            let back = TimedEvent::from_json(&crate::json::Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, timed);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds: std::collections::BTreeSet<_> = samples().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), samples().len());
    }
}
