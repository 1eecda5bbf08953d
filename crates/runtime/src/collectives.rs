//! Typed collective protocol pieces layered on [`RankCtx`].
//!
//! The paper's two algorithms (and every variant of them in this
//! workspace) share one communication skeleton: a boundary fan-out per
//! superstep, a DONE wave ("wait until all incoming messages are
//! successfully received"), and a k-ary tree allreduce for the global
//! termination test. Before this module each rank program hand-rolled
//! that skeleton; now the pieces live here once, as small composable
//! state machines that *drive* a `RankCtx` but leave message types,
//! charging, and event emission to the algorithm:
//!
//! * [`NeighborExchange`] — per-superstep fan-out under the paper's
//!   three communication schemes (FIAB / FIAC / neighbor-customized),
//!   including the per-destination dedup stamps and FIAC's empty-marker
//!   bookkeeping.
//! * [`DoneWave`] — counts per-phase DONE announcements from a rank
//!   scope.
//! * [`TreeAllreduce`] — a k-ary sum-reduction tree, replacing the
//!   8-ary trees previously copied into both coloring programs.
//! * [`fan_out`] — the trivial "same message to each rank in scope"
//!   primitive.
//!
//! None of these pieces send messages on their own timetable: the
//! algorithm decides *when* (preserving bit-identical traces), the
//! collective decides *whether* and *to whom*.

use crate::message::WireMessage;
use crate::program::{Rank, RankCtx};

/// Sends `msg` to every rank in `scope`, in order. The caller controls
/// the scope list (and thereby the send order), so ports of existing
/// programs stay byte-identical.
pub fn fan_out<M: WireMessage>(ctx: &mut RankCtx<M>, scope: &[Rank], msg: &M) {
    for &r in scope {
        ctx.send(r, msg);
    }
}

/// What completing one level of a [`TreeAllreduce`] asks the caller to
/// do with the combined value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOutcome {
    /// Interior/leaf rank: forward `value` to `parent`.
    ToParent {
        /// This rank's parent in the reduction tree.
        parent: Rank,
        /// Own contribution summed with all children's.
        value: u64,
    },
    /// Root rank: `value` is the global reduction; act on it (typically
    /// broadcast a decision back down the same tree).
    Root {
        /// The global sum.
        value: u64,
    },
}

/// A k-ary tree sum over `u64` contributions — the "total remaining
/// work" reduction both coloring programs use for their termination
/// test — keyed by phase so contributions from different phases never
/// mix even when messages from consecutive phases overlap in flight.
///
/// The tree is the classic implicit heap layout: rank `r`'s children
/// are `k*r + 1 ..= k*r + k` (those `< num_ranks`) and its parent is
/// `(r - 1) / k`. The caller owns the message format: it calls
/// [`TreeAllreduce::absorb_child`] when a child's contribution arrives
/// and [`TreeAllreduce::try_complete`] once its own contribution is
/// ready, then sends the resulting value itself.
#[derive(Clone, Debug)]
pub struct TreeAllreduce {
    rank: Rank,
    num_children: usize,
    parent: Option<Rank>,
    children: Vec<Rank>,
    /// Per-phase partial sums: (phase, children heard from, accumulated
    /// value). Tiny (≤ a couple of in-flight phases), so a flat vec
    /// beats a map.
    acc: Vec<(u32, usize, u64)>,
}

impl TreeAllreduce {
    /// A reduction tree of the given arity over ranks `0..num_ranks`,
    /// rooted at rank 0.
    pub fn new(rank: Rank, num_ranks: Rank, arity: u32) -> Self {
        assert!(arity >= 1, "reduction tree arity must be at least 1");
        let children: Vec<Rank> = (1..=arity)
            .map(|i| arity * rank + i)
            .filter(|&c| c < num_ranks)
            .collect();
        TreeAllreduce {
            rank,
            num_children: children.len(),
            parent: (rank > 0).then(|| (rank - 1) / arity),
            children,
            acc: Vec::new(),
        }
    }

    /// This rank's parent in the tree (`None` at the root).
    #[inline]
    pub fn parent(&self) -> Option<Rank> {
        self.parent
    }

    /// This rank's children in the tree, ascending.
    #[inline]
    pub fn children(&self) -> &[Rank] {
        &self.children
    }

    /// Records a child's contribution for `phase`.
    pub fn absorb_child(&mut self, phase: u32, value: u64) {
        match self.acc.iter_mut().find(|e| e.0 == phase) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += value;
            }
            None => self.acc.push((phase, 1, value)),
        }
    }

    /// Snapshot accessor: the in-flight per-phase partial sums as
    /// `(phase, children heard, accumulated value)` triples. In-flight
    /// reductions are algorithm state — a checkpoint that omits them
    /// restores a rank that waits forever for contributions its peers
    /// already sent.
    pub fn in_flight(&self) -> &[(u32, usize, u64)] {
        &self.acc
    }

    /// Restore accessor: reinstates partial sums captured by
    /// [`TreeAllreduce::in_flight`] into a freshly built tree.
    pub fn restore_in_flight(&mut self, acc: Vec<(u32, usize, u64)>) {
        self.acc = acc;
    }

    /// Once every child of `phase` has been absorbed, adds this rank's
    /// own contribution and says what to do with the result;
    /// `None` while contributions are still outstanding. Completing a
    /// phase clears its slot, so the tree is reusable across phases.
    pub fn try_complete(&mut self, phase: u32, own: u64) -> Option<ReduceOutcome> {
        let pos = self.acc.iter().position(|e| e.0 == phase);
        let got = pos.map_or(0, |i| self.acc[i].1);
        if got < self.num_children {
            return None;
        }
        let value = match pos {
            Some(i) => self.acc.swap_remove(i).2 + own,
            None => own,
        };
        Some(match self.parent {
            Some(parent) => ReduceOutcome::ToParent { parent, value },
            None => {
                debug_assert_eq!(self.rank, 0, "parentless rank must be the root");
                ReduceOutcome::Root { value }
            }
        })
    }
}

/// Counts per-phase DONE announcements — the paper's "wait until all
/// incoming messages are successfully received" wave, generalized to
/// any rank scope.
///
/// The caller records one announcement per sender via
/// [`DoneWave::record`] and polls [`DoneWave::ready`] against the
/// expected scope size. Phases are independent, so a fast neighbor's
/// next-phase DONE arriving early doesn't corrupt the current wave.
#[derive(Clone, Debug, Default)]
pub struct DoneWave {
    /// (phase, announcements heard). Flat vec for the same reason as
    /// [`TreeAllreduce::acc`].
    counts: Vec<(u32, usize)>,
}

impl DoneWave {
    /// An empty wave counter.
    pub fn new() -> Self {
        DoneWave::default()
    }

    /// Records one DONE announcement for `phase`.
    pub fn record(&mut self, phase: u32) {
        match self.counts.iter_mut().find(|e| e.0 == phase) {
            Some(entry) => entry.1 += 1,
            None => self.counts.push((phase, 1)),
        }
    }

    /// Announcements heard so far for `phase`.
    pub fn count(&self, phase: u32) -> usize {
        self.counts.iter().find(|e| e.0 == phase).map_or(0, |e| e.1)
    }

    /// Whether all `expected` announcements for `phase` have arrived.
    /// (With `expected == 0` the wave is trivially ready.)
    pub fn ready(&self, phase: u32, expected: usize) -> bool {
        self.count(phase) >= expected
    }

    /// Drops the counter for a completed `phase`, keeping the vec tiny.
    pub fn clear(&mut self, phase: u32) {
        if let Some(i) = self.counts.iter().position(|e| e.0 == phase) {
            self.counts.swap_remove(i);
        }
    }

    /// Snapshot accessor: the in-flight `(phase, announcements heard)`
    /// counters. Like [`TreeAllreduce::in_flight`], these are algorithm
    /// state: DONE announcements consumed before a checkpoint are never
    /// re-sent, so dropping the counters deadlocks the restored wave.
    pub fn in_flight(&self) -> &[(u32, usize)] {
        &self.counts
    }

    /// Restore accessor: reinstates counters captured by
    /// [`DoneWave::in_flight`].
    pub fn restore_in_flight(&mut self, counts: Vec<(u32, usize)>) {
        self.counts = counts;
    }
}

/// The paper's three communication schemes for publishing boundary
/// information (§ "communication customization").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FanoutScheme {
    /// "First In All Broadcast": every publish goes to every other
    /// rank, no dedup.
    Fiab,
    /// "First In All Customized": publish to every other rank at most
    /// once per superstep; ranks that received no content get an
    /// explicit empty marker at superstep end so they can count
    /// arrivals.
    Fiac,
    /// Neighbor-customized: publish only to ranks owning a ghost copy,
    /// at most once per superstep.
    Neighbor,
}

/// "Send to each of these ranks once": dedups a stream of destination
/// ranks (a vertex's ghost owners, with repeats), keeping the first
/// occurrence of each.
///
/// Its memory is the number of distinct ranks in one stream, not the
/// rank count `p` — a p-length table in every rank would cost O(p²)
/// over a run. Reuse one across streams; [`DestDedup::clear`] keeps
/// the allocation.
#[derive(Clone, Debug, Default)]
pub struct DestDedup {
    /// Ranks offered since the last clear, sorted.
    seen: Vec<Rank>,
}

impl DestDedup {
    /// Forgets every rank offered so far (start of a new stream).
    #[inline]
    pub fn clear(&mut self) {
        self.seen.clear();
    }

    /// `true` the first time `rank` is offered since the last clear.
    #[inline]
    pub fn first(&mut self, rank: Rank) -> bool {
        match self.seen.binary_search(&rank) {
            Ok(_) => false,
            Err(at) => {
                self.seen.insert(at, rank);
                true
            }
        }
    }
}

/// Per-superstep boundary fan-out under a [`FanoutScheme`].
///
/// Owns the two pieces of dedup state the schemes need — a
/// [`DestDedup`] for one publish's ghost owners and, under FIAC only,
/// the `content_sent` markers — and leaves everything else (what to
/// send, when, what it costs) to the algorithm.
#[derive(Clone, Debug)]
pub struct NeighborExchange {
    scheme: FanoutScheme,
    rank: Rank,
    num_ranks: Rank,
    /// The ranks the current publish has already sent to.
    dests: DestDedup,
    /// FIAC only (empty otherwise): which ranks received content this
    /// superstep (so [`NeighborExchange::finish_superstep`] knows who
    /// still needs an empty marker). FIAC sends to all `p` ranks every
    /// superstep anyway, so a p-length table costs it nothing extra.
    content_sent: Vec<bool>,
}

impl NeighborExchange {
    /// A fan-out helper for one rank under the given scheme.
    pub fn new(scheme: FanoutScheme, rank: Rank, num_ranks: Rank) -> Self {
        let fiac = scheme == FanoutScheme::Fiac;
        NeighborExchange {
            scheme,
            rank,
            num_ranks,
            dests: DestDedup::default(),
            content_sent: vec![false; if fiac { num_ranks as usize } else { 0 }],
        }
    }

    /// The scheme this exchange runs under.
    #[inline]
    pub fn scheme(&self) -> FanoutScheme {
        self.scheme
    }

    /// The set of ranks this rank communicates with under the scheme:
    /// the partition's neighbor ranks for [`FanoutScheme::Neighbor`],
    /// everyone else for the FIA* schemes.
    pub fn scope(&self, neighbor_ranks: &[Rank]) -> Vec<Rank> {
        match self.scheme {
            FanoutScheme::Neighbor => neighbor_ranks.to_vec(),
            FanoutScheme::Fiab | FanoutScheme::Fiac => {
                (0..self.num_ranks).filter(|&r| r != self.rank).collect()
            }
        }
    }

    /// Resets per-superstep state (FIAC's content markers). Call once at
    /// the top of every superstep, before any
    /// [`NeighborExchange::publish`].
    pub fn begin_superstep(&mut self) {
        if self.scheme == FanoutScheme::Fiac {
            self.content_sent.iter_mut().for_each(|s| *s = false);
        }
    }

    /// Publishes one boundary datum: under FIAB it goes to every other
    /// rank; under FIAC/Neighbor it goes to each rank in `ghost_owners`
    /// (the owners of this vertex's ghost copies, with repeats) exactly
    /// once — the dedup stamp is per publish call, so successive
    /// publishes to the same owner each get their own message.
    /// `ghost_owners` is an iterator, not a `DistGraph`, so the runtime
    /// stays free of partition-crate types.
    pub fn publish<M: WireMessage>(
        &mut self,
        ctx: &mut RankCtx<M>,
        ghost_owners: impl Iterator<Item = Rank>,
        msg: &M,
    ) {
        match self.scheme {
            FanoutScheme::Fiab => {
                for r in 0..self.num_ranks {
                    if r != self.rank {
                        ctx.send(r, msg);
                    }
                }
            }
            FanoutScheme::Fiac | FanoutScheme::Neighbor => {
                self.dests.clear();
                for owner in ghost_owners {
                    if self.dests.first(owner) {
                        ctx.send(owner, msg);
                        if self.scheme == FanoutScheme::Fiac {
                            self.content_sent[owner as usize] = true;
                        }
                    }
                }
            }
        }
    }

    /// FIAC superstep end: sends `empty_msg` to every rank (other than
    /// self) that received no content this superstep, so receivers can
    /// count one arrival per sender per superstep. No-op under the
    /// other schemes.
    pub fn finish_superstep<M: WireMessage>(&mut self, ctx: &mut RankCtx<M>, empty_msg: &M) {
        if self.scheme != FanoutScheme::Fiac {
            return;
        }
        for r in 0..self.num_ranks {
            if r != self.rank && !self.content_sent[r as usize] {
                ctx.send(r, empty_msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rank: Rank, n: Rank) -> RankCtx<u32> {
        RankCtx::new(rank, n, true, cmg_obs::RecorderHandle::noop())
    }

    fn sent_dests(ctx: &mut RankCtx<u32>) -> Vec<Rank> {
        let (_, packets) = ctx.end_round();
        packets.iter().map(|p| p.dst).collect()
    }

    #[test]
    fn tree_shape_matches_implicit_heap() {
        let t = TreeAllreduce::new(0, 20, 8);
        assert_eq!(t.parent(), None);
        assert_eq!(t.children(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let t = TreeAllreduce::new(2, 20, 8);
        assert_eq!(t.parent(), Some(0));
        assert_eq!(t.children(), &[17, 18, 19]);
        let t = TreeAllreduce::new(9, 20, 8);
        assert_eq!(t.parent(), Some(1));
        assert!(t.children().is_empty());
        // Binary tree, for arity generality.
        let t = TreeAllreduce::new(1, 7, 2);
        assert_eq!(t.parent(), Some(0));
        assert_eq!(t.children(), &[3, 4]);
    }

    #[test]
    fn reduce_combines_children_then_own() {
        let mut t = TreeAllreduce::new(0, 3, 8);
        assert_eq!(t.try_complete(0, 5), None);
        t.absorb_child(0, 10);
        assert_eq!(t.try_complete(0, 5), None);
        t.absorb_child(0, 100);
        assert_eq!(
            t.try_complete(0, 5),
            Some(ReduceOutcome::Root { value: 115 })
        );
        // The slot was cleared: the next phase starts fresh.
        t.absorb_child(1, 1);
        t.absorb_child(1, 2);
        assert_eq!(t.try_complete(1, 0), Some(ReduceOutcome::Root { value: 3 }));
    }

    #[test]
    fn reduce_interleaved_phases_stay_separate() {
        let mut t = TreeAllreduce::new(1, 20, 8);
        // Rank 1's children are 9..=16 (8 of them).
        for v in 0..8u64 {
            t.absorb_child(7, v);
            if v < 4 {
                t.absorb_child(8, 100 + v);
            }
        }
        assert_eq!(
            t.try_complete(7, 1000),
            Some(ReduceOutcome::ToParent {
                parent: 0,
                value: 1028
            })
        );
        assert_eq!(t.try_complete(8, 0), None);
        for v in 4..8u64 {
            t.absorb_child(8, 100 + v);
        }
        assert_eq!(
            t.try_complete(8, 0),
            Some(ReduceOutcome::ToParent {
                parent: 0,
                value: 828
            })
        );
    }

    #[test]
    fn leaf_completes_immediately() {
        let mut t = TreeAllreduce::new(9, 10, 8);
        assert_eq!(
            t.try_complete(0, 42),
            Some(ReduceOutcome::ToParent {
                parent: 1,
                value: 42
            })
        );
    }

    #[test]
    fn done_wave_counts_per_phase() {
        let mut w = DoneWave::new();
        assert!(w.ready(0, 0));
        assert!(!w.ready(0, 2));
        w.record(0);
        w.record(1);
        w.record(0);
        assert_eq!(w.count(0), 2);
        assert_eq!(w.count(1), 1);
        assert!(w.ready(0, 2));
        assert!(!w.ready(1, 2));
        w.clear(0);
        assert_eq!(w.count(0), 0);
        assert_eq!(w.count(1), 1);
    }

    #[test]
    fn fiab_publishes_to_everyone() {
        let mut x = NeighborExchange::new(FanoutScheme::Fiab, 1, 4);
        let mut c = ctx(1, 4);
        x.begin_superstep();
        x.publish(&mut c, [3u32].into_iter(), &7);
        let dests = sent_dests(&mut c);
        assert_eq!(dests, vec![0, 2, 3]);
        let mut c = ctx(1, 4);
        x.finish_superstep(&mut c, &0);
        assert!(sent_dests(&mut c).is_empty());
    }

    #[test]
    fn fiac_dedups_per_publish_and_sends_empties() {
        let mut x = NeighborExchange::new(FanoutScheme::Fiac, 1, 4);
        let mut c = ctx(1, 4);
        x.begin_superstep();
        // Repeated owners within one publish collapse to one send…
        x.publish(&mut c, [3u32, 3].into_iter(), &7);
        // …but a second publish (a different datum) sends again.
        x.publish(&mut c, [3u32].into_iter(), &8);
        x.finish_superstep(&mut c, &0);
        let (_, packets) = c.end_round();
        // Content to 3 (twice, bundled into one packet); empties to 0, 2.
        let dests: Vec<Rank> = packets.iter().map(|p| p.dst).collect();
        assert_eq!(dests, vec![0, 2, 3]);
        let logical: Vec<u32> = packets.iter().map(|p| p.logical).collect();
        assert_eq!(logical, vec![1, 1, 2]);
        // Next superstep resets content markers: 3 gets an empty now.
        let mut c = ctx(1, 4);
        x.begin_superstep();
        x.publish(&mut c, [0u32].into_iter(), &9);
        x.finish_superstep(&mut c, &0);
        assert_eq!(sent_dests(&mut c), vec![0, 2, 3]);
    }

    #[test]
    fn neighbor_scheme_dedups_without_empties() {
        let mut x = NeighborExchange::new(FanoutScheme::Neighbor, 0, 4);
        let mut c = ctx(0, 4);
        x.begin_superstep();
        x.publish(&mut c, [2u32, 1, 2].into_iter(), &7);
        x.finish_superstep(&mut c, &0);
        assert_eq!(sent_dests(&mut c), vec![1, 2]);
    }

    #[test]
    fn dest_dedup_keeps_first_occurrences() {
        let mut d = DestDedup::default();
        let firsts: Vec<Rank> = [5u32, 2, 5, 9, 2, 0, 9]
            .into_iter()
            .filter(|&r| d.first(r))
            .collect();
        assert_eq!(firsts, vec![5, 2, 9, 0]);
        d.clear();
        assert!(d.first(5), "clear starts a new stream");
    }

    #[test]
    fn neighbor_scheme_keeps_no_rank_count_state() {
        // 16,384 ranks: the paper's largest run. Only FIAC holds a
        // p-length table.
        let p = 16_384;
        for scheme in [FanoutScheme::Fiab, FanoutScheme::Neighbor] {
            assert!(NeighborExchange::new(scheme, 3, p).content_sent.is_empty());
        }
        let x = NeighborExchange::new(FanoutScheme::Fiac, 3, p);
        assert_eq!(x.content_sent.len(), p as usize);
    }

    #[test]
    fn scope_by_scheme() {
        let neighbors = vec![0, 2];
        let x = NeighborExchange::new(FanoutScheme::Neighbor, 1, 4);
        assert_eq!(x.scope(&neighbors), vec![0, 2]);
        let x = NeighborExchange::new(FanoutScheme::Fiab, 1, 4);
        assert_eq!(x.scope(&neighbors), vec![0, 2, 3]);
        let x = NeighborExchange::new(FanoutScheme::Fiac, 1, 4);
        assert_eq!(x.scope(&neighbors), vec![0, 2, 3]);
    }

    #[test]
    fn fan_out_sends_in_scope_order() {
        let mut c = ctx(0, 4);
        fan_out(&mut c, &[3, 1, 2], &5);
        assert_eq!(sent_dests(&mut c), vec![1, 2, 3]);
    }
}
