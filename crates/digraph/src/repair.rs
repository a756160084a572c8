//! Incrementally repairable all-pairs next-hop tables.
//!
//! The interval-compressed table ([`crate::compressed`]) is built by
//! one min-first-hop BFS per source — cheap enough to do once, far too
//! expensive to redo every time a live fabric loses or regains a
//! single link. This module keeps the *same rows* (per-source run
//! lists with the same canonical minimum-first-hop choice) but makes
//! them **patchable** with work proportional to the `(source, dst)`
//! pairs whose answers actually change, not to the number of sources
//! whose rows contain a change.
//!
//! The repair is per destination interval (Ramalingam–Reps specialized
//! to unit weights). When arc `a → b` flips, a destination `dst` can
//! only be affected if `b` is (death) or becomes (revival) a
//! *descending* neighbor of `a` — `dist(a, dst) = dist(b, dst) + 1` for
//! a death, `dist(a, dst) > dist(b, dst)` for a revival. That
//! candidate set is read off rows `a` and `b` by one two-pointer sweep,
//! as ranges of destinations. Each range is repaired one interval at a
//! time, by a pass at the interval's first destination `dst`:
//!
//! 1. **Affected set.** On a death, the vertices whose distance grows
//!    are exactly those that (transitively) lose every descending
//!    neighbor — a reverse fixpoint walk seeded at `a`, triggered
//!    along in-arcs one BFS level up. On a revival, the improved set
//!    is grown forward from `a` by relaxation.
//! 2. **Re-settle.** Distances over the affected set are recomputed by
//!    a small Dijkstra seeded from the unaffected boundary (unit
//!    weights; vertices never settled are unreachable).
//! 3. **Hops.** `first(u, dst)` is the minimum alive out-neighbor `w`
//!    with `dist(w, dst) = dist(u, dst) − 1`, so it can only change on
//!    the affected set, its alive in-neighbors, and `a` itself —
//!    recomputed locally from the settled distances.
//!
//! Every stored entry the pass reads lowers the interval's end to the
//! next run start in that row. The pass depends on `dst` only
//! through the entries it reads (each visited vertex `u` also has its
//! own row read, and that row has a run boundary at `u` itself, so
//! `u == dst` can hold for no other destination of the interval), so
//! every destination in `dst..end` would make the same pass and the
//! same edits: each changed entry is buffered once for the whole
//! interval, and the next pass starts at `end`. On de Bruijn fabrics a
//! row's runs follow the digit structure, so intervals are long: on
//! B(2,14) the 32 kills and 32 revivals of a 16-node storm have
//! 584,175 candidate destinations but take 3,342 passes.
//!
//! Changed intervals are buffered per source and spliced into the run
//! rows in one canonical merge pass per touched row. A single-link
//! event on B(2,14) costs tens of milliseconds (a random beam kill
//! ~45 ms on a 2-vCPU VM) where recomputing every containing row
//! costs full BFS runs — the difference between link dynamics riding
//! along with a simulation and dominating it.
//!
//! [`RepairableNextHopTable::snapshot`] re-exports the current rows as
//! an ordinary [`CompressedNextHopTable`]; the differential battery in
//! this module's tests (and the proptest batteries in this crate and
//! `otis-optics`) pins that snapshot byte-identical to a from-scratch
//! build of the survivor digraph across kill/revive sequences.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::compressed::{source_rows, CompressedNextHopTable, NextHopRun};
use crate::{Digraph, INFINITY};

/// What one repair event cost, in units of work the full rebuild would
/// have paid for **every** source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Distinct sources the repair examined for hop or distance
    /// changes (the union of per-destination affected cones and their
    /// one-hop boundaries). A full rebuild examines all `n`.
    pub rows_recomputed: usize,
    /// Examined rows that actually differed and were patched in.
    pub rows_patched: usize,
    /// Runs rewritten across all patched rows. A full rebuild rewrites
    /// [`RepairableNextHopTable::run_count`] runs.
    pub runs_patched: usize,
}

impl RepairStats {
    /// Accumulate another event's cost (the queueing engine sums the
    /// costs of a whole dynamics timeline this way).
    pub fn absorb(&mut self, other: RepairStats) {
        self.rows_recomputed += other.rows_recomputed;
        self.rows_patched += other.rows_patched;
        self.runs_patched += other.runs_patched;
    }
}

/// An all-pairs min-first-hop table over a fabric whose arcs can die
/// and revive one at a time, each transition repaired in place.
pub struct RepairableNextHopTable {
    g: Digraph,
    /// Per-arc liveness (arc order of `g`).
    alive: Vec<bool>,
    /// Current run rows, one per source — always equal to what
    /// [`CompressedNextHopTable::try_build`] of the survivor digraph
    /// would produce.
    rows: Vec<Vec<NextHopRun>>,
    /// Reverse CSR of the **full** fabric: in-arcs as parallel
    /// `(source, arc)` arrays sliced by `rev_offsets`. The repair
    /// filters by current arc liveness at every use site, so dead
    /// in-arcs never trigger or support anything.
    rev_offsets: Vec<usize>,
    rev_sources: Vec<u32>,
    rev_arcs: Vec<usize>,
    repair: RepairScratch,
}

/// One buffered row change: destinations `start..end` all take
/// `(dist, hop)`, as `(start, end, dist, hop)`.
type RowEdit = (u32, u32, u32, u32);

/// Reusable scratch for the per-interval repair. The `n`-sized maps
/// are epoch-marked (`mark[u] == stamp` means "set this round"), so
/// starting a fresh interval costs nothing instead of an `O(n)` clear.
struct RepairScratch {
    /// Bumped once per `(event, destination interval)` processed.
    stamp: u64,
    /// Bumped once per event; scopes `row_mark`.
    event_stamp: u64,
    /// `new_dist[u]` holds `u`'s settled post-event distance iff
    /// `dist_mark[u] == stamp`; otherwise the stored row is current.
    dist_mark: Vec<u64>,
    new_dist: Vec<u32>,
    /// Membership in the death fixpoint's affected set.
    set_mark: Vec<u64>,
    /// Dedup for the hop-recompute boundary.
    hop_mark: Vec<u64>,
    /// Distinct sources examined across the whole event (stats).
    row_mark: Vec<u64>,
    /// Affected (death) / improved (revival) vertices, this round.
    members: Vec<u32>,
    /// Hop-recompute boundary, this round.
    hop_set: Vec<u32>,
    /// Death fixpoint worklist.
    work: VecDeque<u32>,
    /// Unit-weight Dijkstra over the affected set.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// This round's changed entries as `(source, dist, hop)`, held
    /// until the round's last read fixes the interval's end.
    edits: Vec<(u32, u32, u32)>,
    /// Buffered changes per source, intervals ascending.
    changes: Vec<Vec<RowEdit>>,
    /// Sources with buffered changes.
    touched: Vec<u32>,
}

impl RepairScratch {
    fn new(n: usize) -> Self {
        RepairScratch {
            stamp: 0,
            event_stamp: 0,
            dist_mark: vec![0; n],
            new_dist: vec![0; n],
            set_mark: vec![0; n],
            hop_mark: vec![0; n],
            row_mark: vec![0; n],
            members: Vec::new(),
            hop_set: Vec::new(),
            work: VecDeque::new(),
            heap: BinaryHeap::new(),
            edits: Vec::new(),
            changes: vec![Vec::new(); n],
            touched: Vec::new(),
        }
    }
}

/// Borrowed view of the table internals the per-interval repair
/// reads; rows stay immutable until the final splice.
struct RepairCtx<'a> {
    g: &'a Digraph,
    alive: &'a [bool],
    rows: &'a [Vec<NextHopRun>],
    rev_offsets: &'a [usize],
    rev_sources: &'a [u32],
    rev_arcs: &'a [usize],
    /// Exclusive end of the interval the current round stands for:
    /// every stored entry it reads at `dst` holds on all of `dst..end`.
    end: Cell<u32>,
}

impl RepairCtx<'_> {
    /// The stored `(hop, dist)` entry for `(u, dst)`; lowers the
    /// round's `end` to the start of the row's next run.
    #[inline]
    fn entry(&self, u: u32, dst: u32) -> (u32, u32) {
        let row = &self.rows[u as usize];
        let next = row.partition_point(|run| run.start <= dst);
        if let Some(run) = row.get(next) {
            self.end.set(self.end.get().min(run.start));
        }
        let run = &row[next - 1];
        (run.hop, run.dist)
    }

    /// In-arcs of `u` over the full fabric, as `(source, arc)` pairs.
    #[inline]
    fn in_arcs(&self, u: u32) -> impl Iterator<Item = (u32, usize)> + '_ {
        (self.rev_offsets[u as usize]..self.rev_offsets[u as usize + 1])
            .map(|i| (self.rev_sources[i], self.rev_arcs[i]))
    }
}

impl RepairableNextHopTable {
    /// Build over `g` with every arc alive.
    pub fn new(g: &Digraph) -> Self {
        Self::with_dead_arcs(g, &[])
    }

    /// Build over `g` with the arcs in `dead` (arc indices) already
    /// down — the "resume from a static fault set" constructor.
    pub fn with_dead_arcs(g: &Digraph, dead: &[usize]) -> Self {
        let n = g.node_count();
        assert!(
            n <= CompressedNextHopTable::MAX_NODES,
            "{n} nodes exceed the repairable table cap {}",
            CompressedNextHopTable::MAX_NODES
        );
        let mut alive = vec![true; g.arc_count()];
        for &arc in dead {
            alive[arc] = false;
        }
        // Rows of the masked graph, built like the compressed table's
        // (by digit arithmetic when nothing is masked off a shift
        // digraph).
        let rows = source_rows(g, (!dead.is_empty()).then_some(&alive[..]));
        // Reverse CSR by counting sort over arc targets.
        let mut rev_offsets = vec![0usize; n + 1];
        for arc in 0..g.arc_count() {
            rev_offsets[g.arc_target(arc) as usize + 1] += 1;
        }
        for v in 0..n {
            rev_offsets[v + 1] += rev_offsets[v];
        }
        let mut rev_sources = vec![0u32; g.arc_count()];
        let mut rev_arcs = vec![0usize; g.arc_count()];
        let mut cursor = rev_offsets.clone();
        for u in 0..n as u32 {
            for arc in g.arc_range(u) {
                let v = g.arc_target(arc) as usize;
                rev_sources[cursor[v]] = u;
                rev_arcs[cursor[v]] = arc;
                cursor[v] += 1;
            }
        }
        RepairableNextHopTable {
            g: g.clone(),
            alive,
            rows,
            rev_offsets,
            rev_sources,
            rev_arcs,
            repair: RepairScratch::new(n),
        }
    }

    /// The full fabric the table routes over (dead arcs included).
    pub fn digraph(&self) -> &Digraph {
        &self.g
    }

    /// Is the `arc`-th arc currently alive?
    #[inline]
    pub fn arc_alive(&self, arc: usize) -> bool {
        self.alive[arc]
    }

    /// Arcs currently down.
    pub fn dead_arc_count(&self) -> usize {
        self.alive.iter().filter(|&&alive| !alive).count()
    }

    /// Total runs currently stored — what a full rebuild would rewrite.
    pub fn run_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// The run covering `(u, dst)` in the current rows.
    #[inline]
    fn run_of(&self, u: u32, dst: u32) -> &NextHopRun {
        let row = &self.rows[u as usize];
        assert!(
            (dst as usize) < self.rows.len(),
            "destination {dst} outside the table's 0..{}",
            self.rows.len()
        );
        &row[row.partition_point(|run| run.start <= dst) - 1]
    }

    /// Next hop from `u` toward `dst` over the survivor graph: `None`
    /// if `u == dst` or `dst` is unreachable. Same canonical choice as
    /// the static tables (minimum first hop over all shortest paths).
    #[inline]
    pub fn next_hop(&self, u: u32, dst: u32) -> Option<u32> {
        let hop = self.run_of(u, dst).hop;
        (hop != INFINITY).then_some(hop)
    }

    /// Shortest survivor-graph distance `u → dst` ([`INFINITY`] if
    /// unreachable).
    #[inline]
    pub fn distance(&self, u: u32, dst: u32) -> u32 {
        self.run_of(u, dst).dist
    }

    /// The alive out-arcs of `u`, as `(arc, target)` pairs in CSR
    /// order — the candidate set a dynamics-aware router ranks.
    pub fn live_out_arcs(&self, u: u32) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.g
            .arc_range(u)
            .filter(|&arc| self.alive[arc])
            .map(|arc| (arc, self.g.arc_target(arc)))
    }

    /// Kill (`alive = false`) or revive (`alive = true`) one arc and
    /// repair every affected row. Returns what the repair cost; a
    /// no-op transition (already in the requested state) costs
    /// nothing.
    pub fn set_arc_alive(&mut self, arc: usize, alive: bool) -> RepairStats {
        if self.alive[arc] == alive {
            return RepairStats::default();
        }
        self.alive[arc] = alive;
        let mut stats = RepairStats::default();
        let a = self.g.arc_source(arc);
        let b = self.g.arc_target(arc);
        if a == b {
            // A self-loop never descends toward any destination (it
            // would need dist(a) == dist(a) + 1), so no row changes.
            return stats;
        }
        let n = self.rows.len() as u32;
        self.repair.event_stamp += 1;
        {
            let ctx = RepairCtx {
                g: &self.g,
                alive: &self.alive,
                rows: &self.rows,
                rev_offsets: &self.rev_offsets,
                rev_sources: &self.rev_sources,
                rev_arcs: &self.rev_arcs,
                end: Cell::new(n),
            };
            let scratch = &mut self.repair;
            let ranges =
                candidate_destinations(&ctx.rows[a as usize], &ctx.rows[b as usize], n, alive);
            for (lo, hi) in ranges {
                // One round per interval: the round at `dst` lowers
                // `end` to the first destination whose stored entries
                // could differ, then buffers its edits for `dst..end`.
                let mut dst = lo;
                while dst < hi {
                    scratch.stamp += 1;
                    ctx.end.set(hi);
                    if alive {
                        repair_revival(&ctx, scratch, &mut stats, a, b, dst);
                    } else {
                        repair_death(&ctx, scratch, &mut stats, a, dst);
                    }
                    let end = ctx.end.get();
                    debug_assert!(end > dst, "an interval must make progress");
                    for (u, dist, hop) in scratch.edits.drain(..) {
                        let changes = &mut scratch.changes[u as usize];
                        if changes.is_empty() {
                            scratch.touched.push(u);
                        }
                        changes.push((dst, end, dist, hop));
                    }
                    dst = end;
                }
            }
        }
        // Splice the buffered changes into their rows, one canonical
        // merge pass per touched source. Sorting keeps the patch order
        // (and therefore any future instrumentation) deterministic; the
        // rows themselves are order-independent.
        let mut touched = std::mem::take(&mut self.repair.touched);
        touched.sort_unstable();
        for &u in &touched {
            let changes = &mut self.repair.changes[u as usize];
            let fresh = splice_row(&self.rows[u as usize], changes, n);
            changes.clear();
            stats.rows_patched += 1;
            stats.runs_patched += fresh.len();
            self.rows[u as usize] = fresh;
        }
        touched.clear();
        self.repair.touched = touched;
        stats
    }

    /// Kill/revive by endpoints (first arc `from → to` in arc order);
    /// `None` if the fabric has no such arc.
    pub fn set_link_alive(&mut self, from: u32, to: u32, alive: bool) -> Option<RepairStats> {
        let arc = self.g.arc_between(from, to)?;
        Some(self.set_arc_alive(arc, alive))
    }

    /// The current rows as an ordinary [`CompressedNextHopTable`] —
    /// byte-identical (`PartialEq`) to `try_build` of the survivor
    /// digraph, which is how the differential battery pins repair
    /// against rebuild.
    pub fn snapshot(&self) -> CompressedNextHopTable {
        // Rows are canonical by construction (the BFS emits merged,
        // ascending runs), so the publication-rate fast path applies;
        // the battery below pins it equal to the validating build.
        CompressedNextHopTable::from_canonical_rows(
            self.rows.len(),
            self.rows.iter().map(Vec::as_slice),
        )
    }

    /// Materialize the survivor digraph (alive arcs only, same node
    /// ids) — the rebuild side of the differential battery.
    pub fn survivor_digraph(&self) -> Digraph {
        Digraph::from_fn(self.rows.len(), |u| {
            self.g
                .arc_range(u)
                .filter(|&arc| self.alive[arc])
                .map(|arc| self.g.arc_target(arc))
                .collect::<Vec<_>>()
        })
    }
}

/// Destinations the flipped arc `a → b` can possibly affect, as
/// `lo..hi` ranges: `dst` with `dist(a) == dist(b) + 1` for a death
/// (the arc was descending) or `dist(a) > dist(b)` for a revival (the
/// arc becomes descending, or better). Distances are the stored
/// pre-event rows; one two-pointer sweep over the run boundaries of
/// rows `a` and `b`.
fn candidate_destinations(
    row_a: &[NextHopRun],
    row_b: &[NextHopRun],
    n: u32,
    revive: bool,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let mut at = 0u32;
    while at < n {
        while i + 1 < row_a.len() && row_a[i + 1].start <= at {
            i += 1;
        }
        while j + 1 < row_b.len() && row_b[j + 1].start <= at {
            j += 1;
        }
        let next_a = row_a.get(i + 1).map_or(n, |run| run.start);
        let next_b = row_b.get(j + 1).map_or(n, |run| run.start);
        let next = next_a.min(next_b);
        let (da, db) = (row_a[i].dist, row_b[j].dist);
        let hit = db != INFINITY && if revive { da > db } else { da == db + 1 };
        if hit {
            out.push((at, next));
        }
        at = next;
    }
    out
}

/// One round's repair after killing descending arc `a → b`.
fn repair_death(
    ctx: &RepairCtx<'_>,
    s: &mut RepairScratch,
    stats: &mut RepairStats,
    a: u32,
    dst: u32,
) {
    let stamp = s.stamp;
    let mut members = std::mem::take(&mut s.members);
    members.clear();
    s.work.clear();
    debug_assert!(s.heap.is_empty());
    // Phase 1 — the affected fixpoint: a vertex joins when every alive
    // descending out-neighbor has already joined, and joining
    // re-triggers the in-neighbors one BFS level up. Every candidate
    // has finite pre-event distance (it sat on a shortest path through
    // `a → b`), so `dst` itself (distance 0) never qualifies and the
    // `du - 1` below cannot underflow.
    s.work.push_back(a);
    while let Some(u) = s.work.pop_front() {
        if s.set_mark[u as usize] == stamp {
            continue;
        }
        let du = ctx.entry(u, dst).1;
        let supported = ctx.g.arc_range(u).any(|arc| {
            ctx.alive[arc] && {
                let w = ctx.g.arc_target(arc);
                s.set_mark[w as usize] != stamp && ctx.entry(w, dst).1 == du - 1
            }
        });
        if supported {
            continue;
        }
        s.set_mark[u as usize] = stamp;
        members.push(u);
        for (p, parc) in ctx.in_arcs(u) {
            if ctx.alive[parc] && s.set_mark[p as usize] != stamp && ctx.entry(p, dst).1 == du + 1 {
                s.work.push_back(p);
            }
        }
    }
    // Phase 2 — re-settle the affected set by unit-weight Dijkstra
    // seeded from the unaffected boundary (whose distances are final);
    // members never settled are now unreachable.
    for &u in &members {
        let mut best = INFINITY;
        for arc in ctx.g.arc_range(u) {
            if ctx.alive[arc] {
                let w = ctx.g.arc_target(arc);
                if s.set_mark[w as usize] != stamp {
                    best = best.min(ctx.entry(w, dst).1);
                }
            }
        }
        if best != INFINITY {
            s.heap.push(Reverse((best + 1, u)));
        }
    }
    while let Some(Reverse((d, u))) = s.heap.pop() {
        if s.dist_mark[u as usize] == stamp {
            continue;
        }
        s.dist_mark[u as usize] = stamp;
        s.new_dist[u as usize] = d;
        for (p, parc) in ctx.in_arcs(u) {
            if ctx.alive[parc]
                && s.set_mark[p as usize] == stamp
                && s.dist_mark[p as usize] != stamp
            {
                s.heap.push(Reverse((d + 1, p)));
            }
        }
    }
    for &u in &members {
        if s.dist_mark[u as usize] != stamp {
            s.dist_mark[u as usize] = stamp;
            s.new_dist[u as usize] = INFINITY;
        }
    }
    collect_hop_boundary(ctx, s, &members, a);
    s.members = members;
    recompute_hops(ctx, s, stats, dst);
}

/// One round's repair after reviving arc `a → b` (pre-event
/// `dist(a) > dist(b)`, `dist(b)` finite).
fn repair_revival(
    ctx: &RepairCtx<'_>,
    s: &mut RepairScratch,
    stats: &mut RepairStats,
    a: u32,
    b: u32,
    dst: u32,
) {
    let stamp = s.stamp;
    let mut members = std::mem::take(&mut s.members);
    members.clear();
    debug_assert!(s.heap.is_empty());
    let da = ctx.entry(a, dst).1;
    let through = ctx.entry(b, dst).1 + 1;
    if through < da {
        // Distances improve. Every new shortest path enters through
        // `a → b` (`dist(b)` itself cannot drop — that would need a
        // cycle), so the improved set grows backward from `a` by
        // relaxation along alive in-arcs.
        s.heap.push(Reverse((through, a)));
        while let Some(Reverse((d, u))) = s.heap.pop() {
            if s.dist_mark[u as usize] == stamp {
                continue;
            }
            s.dist_mark[u as usize] = stamp;
            s.new_dist[u as usize] = d;
            members.push(u);
            for (p, parc) in ctx.in_arcs(u) {
                if ctx.alive[parc]
                    && s.dist_mark[p as usize] != stamp
                    && d + 1 < ctx.entry(p, dst).1
                {
                    s.heap.push(Reverse((d + 1, p)));
                }
            }
        }
    }
    // `through == da`: no distance moves, but `b` is a new descending
    // neighbor, so `a`'s canonical (minimum) hop can still drop — the
    // boundary below always contains `a`.
    collect_hop_boundary(ctx, s, &members, a);
    s.members = members;
    recompute_hops(ctx, s, stats, dst);
}

/// Collect the vertices whose canonical hop toward the current
/// destination may have changed: the changed set, its alive
/// in-neighbors, and the flipped arc's tail `a` (whose alive out-arc
/// set changed).
fn collect_hop_boundary(ctx: &RepairCtx<'_>, s: &mut RepairScratch, members: &[u32], a: u32) {
    let stamp = s.stamp;
    s.hop_set.clear();
    s.hop_mark[a as usize] = stamp;
    s.hop_set.push(a);
    for &u in members {
        if s.hop_mark[u as usize] != stamp {
            s.hop_mark[u as usize] = stamp;
            s.hop_set.push(u);
        }
        for (p, parc) in ctx.in_arcs(u) {
            if ctx.alive[parc] && s.hop_mark[p as usize] != stamp {
                s.hop_mark[p as usize] = stamp;
                s.hop_set.push(p);
            }
        }
    }
}

/// Recompute `(dist, hop)` over the boundary set against the settled
/// distances and hold every entry that differs from the stored row in
/// `s.edits`. The canonical hop is the minimum alive out-neighbor one
/// step closer to the destination — exactly the static builder's
/// choice.
fn recompute_hops(ctx: &RepairCtx<'_>, s: &mut RepairScratch, stats: &mut RepairStats, dst: u32) {
    let stamp = s.stamp;
    let hop_set = std::mem::take(&mut s.hop_set);
    for &u in &hop_set {
        if u == dst {
            // (dist 0, no hop) never changes. The next destination
            // would recompute `u`, so the interval ends here (the
            // walks above already read row `u` whenever it borders
            // the changed set; this keeps the bound explicit).
            ctx.end.set(ctx.end.get().min(dst + 1));
            continue;
        }
        if s.row_mark[u as usize] != s.event_stamp {
            s.row_mark[u as usize] = s.event_stamp;
            stats.rows_recomputed += 1;
        }
        let (old_hop, old_dist) = ctx.entry(u, dst);
        let du = if s.dist_mark[u as usize] == stamp {
            s.new_dist[u as usize]
        } else {
            old_dist
        };
        let mut hop = INFINITY;
        if du != INFINITY {
            for arc in ctx.g.arc_range(u) {
                if ctx.alive[arc] {
                    let w = ctx.g.arc_target(arc);
                    let dw = if s.dist_mark[w as usize] == stamp {
                        s.new_dist[w as usize]
                    } else {
                        ctx.entry(w, dst).1
                    };
                    if dw != INFINITY && dw + 1 == du && w < hop {
                        hop = w;
                    }
                }
            }
        }
        if (du, hop) != (old_dist, old_hop) {
            s.edits.push((u, du, hop));
        }
    }
    s.hop_set = hop_set;
}

/// Merge a sorted batch of disjoint `(start, end, dist, hop)` edits
/// into a canonical run row, producing the row the static builder
/// would emit for the edited entry function: maximal runs, adjacent
/// runs differing.
fn splice_row(old: &[NextHopRun], changes: &[RowEdit], n: u32) -> Vec<NextHopRun> {
    let mut out: Vec<NextHopRun> = Vec::with_capacity(old.len() + 2 * changes.len());
    let push = |out: &mut Vec<NextHopRun>, start: u32, hop: u32, dist: u32| match out.last() {
        Some(last) if last.hop == hop && last.dist == dist => {}
        _ => out.push(NextHopRun { start, hop, dist }),
    };
    let (mut r, mut c) = (0usize, 0usize);
    let mut at = 0u32;
    while at < n {
        while r + 1 < old.len() && old[r + 1].start <= at {
            r += 1;
        }
        if let Some(&(_, end, dist, hop)) = changes.get(c).filter(|edit| edit.0 == at) {
            push(&mut out, at, hop, dist);
            c += 1;
            at = end;
            continue;
        }
        // A maximal stretch of unchanged entries: up to the next old
        // run boundary or the next edited destination.
        let next_old = old.get(r + 1).map_or(n, |run| run.start);
        let next_change = changes.get(c).map_or(n, |change| change.0);
        push(&mut out, at, old[r].hop, old[r].dist);
        at = next_old.min(next_change);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debruijn(d: u32, dim: u32) -> Digraph {
        let n = d.pow(dim);
        Digraph::from_fn(n as usize, |u| (0..d).map(move |k| (d * u + k) % n))
    }

    fn kautz_like() -> Digraph {
        // Cycle plus multiplicative chords: irregular, loops-free,
        // strongly connected — a good adversarial shape for repair.
        let n = 37u32;
        Digraph::from_fn(n as usize, |u| vec![(u + 1) % n, (u * 5 + 2) % n])
    }

    fn assert_matches_rebuild(table: &RepairableNextHopTable) {
        let rebuilt =
            CompressedNextHopTable::try_build(&table.survivor_digraph()).expect("under the cap");
        assert_eq!(
            table.snapshot(),
            rebuilt,
            "patched table diverged from a from-scratch rebuild"
        );
    }

    #[test]
    fn fresh_table_matches_compressed_build() {
        for g in [debruijn(2, 6), kautz_like()] {
            let table = RepairableNextHopTable::new(&g);
            assert_eq!(table.snapshot(), CompressedNextHopTable::build(&g));
            assert_eq!(
                table.run_count(),
                CompressedNextHopTable::build(&g).run_count()
            );
        }
    }

    #[test]
    fn single_kill_patches_fewer_runs_than_rebuild() {
        let g = debruijn(2, 8);
        let mut table = RepairableNextHopTable::new(&g);
        let total_runs = table.run_count();
        let stats = table.set_arc_alive(11, false);
        assert!(stats.rows_patched > 0, "killing a used arc must patch");
        assert!(
            stats.runs_patched < total_runs,
            "single-link repair ({} runs) must beat the full rebuild ({total_runs} runs)",
            stats.runs_patched
        );
        assert!(stats.rows_recomputed < g.node_count());
        assert_matches_rebuild(&table);
        // Revive restores the original table exactly, and the restored
        // repair is also cheaper than a rebuild.
        let back = table.set_arc_alive(11, true);
        assert!(back.runs_patched < total_runs);
        assert_eq!(table.snapshot(), CompressedNextHopTable::build(&g));
    }

    #[test]
    fn kill_revive_battery_stays_byte_identical() {
        for g in [debruijn(2, 6), debruijn(3, 4), kautz_like()] {
            let mut table = RepairableNextHopTable::new(&g);
            // A deterministic pseudo-random kill/revive walk: flip arcs
            // in a scrambled order, verifying against a full rebuild of
            // the survivor graph after every transition.
            let m = g.arc_count();
            let mut state = 0x9E37_79B9u64;
            for _ in 0..24usize {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let arc = (state >> 33) as usize % m;
                table.set_arc_alive(arc, !table.arc_alive(arc));
                assert_matches_rebuild(&table);
            }
        }
    }

    /// B(2,8) under a scrambled numbering: the same fabric, but not a
    /// shift digraph, so its rows come from per-source BFS.
    fn scrambled_debruijn_2_8() -> Digraph {
        let mapping: Vec<u32> = (0..256u32).map(|u| (u * 77 + 13) % 256).collect();
        let g = crate::ops::relabel(&debruijn(2, 8), &mapping);
        assert!(crate::compressed::ShiftDigraph::detect(&g).is_none());
        g
    }

    /// Flip 40 arcs in a scrambled order, then revive whatever is
    /// still down in arc order; the summed cost of every event.
    fn walk_cost(g: &Digraph) -> (usize, usize, usize) {
        let mut table = RepairableNextHopTable::new(g);
        let m = g.arc_count();
        let mut total = RepairStats::default();
        let mut state = 0x2545_F491u64;
        for _ in 0..40usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let arc = (state >> 33) as usize % m;
            total.absorb(table.set_arc_alive(arc, !table.arc_alive(arc)));
        }
        assert_matches_rebuild(&table);
        for arc in 0..m {
            total.absorb(table.set_arc_alive(arc, true));
        }
        assert_eq!(table.snapshot(), CompressedNextHopTable::build(g));
        (
            total.rows_recomputed,
            total.rows_patched,
            total.runs_patched,
        )
    }

    #[test]
    fn kill_revive_walks_keep_their_repair_cost() {
        // Pinned totals: a change to the repair kernel must leave the
        // per-event cost counters exactly where they were.
        let walks = [
            ("B(2,8)", debruijn(2, 8), (13521, 10539, 513604)),
            ("B(3,4)", debruijn(3, 4), (3961, 2123, 50309)),
            ("chords(37)", kautz_like(), (1288, 1052, 34800)),
            (
                "scrambled B(2,8)",
                scrambled_debruijn_2_8(),
                (11671, 8868, 2158937),
            ),
        ];
        for (name, g, expected) in walks {
            assert_eq!(walk_cost(&g), expected, "{name}");
        }
    }

    #[test]
    fn dead_arcs_unroute_and_revive_reroutes() {
        // A 4-cycle: killing 1→2 makes everything downstream of 1
        // unreachable from 0 and 1.
        let g = Digraph::from_fn(4, |u| [(u + 1) % 4]);
        let mut table = RepairableNextHopTable::new(&g);
        assert_eq!(table.next_hop(0, 3), Some(1));
        let arc = g.arc_between(1, 2).unwrap();
        table.set_arc_alive(arc, false);
        assert_eq!(table.next_hop(0, 3), None);
        assert_eq!(table.distance(0, 3), INFINITY);
        assert_eq!(
            table.next_hop(0, 1),
            Some(1),
            "the live prefix still routes"
        );
        assert_eq!(table.dead_arc_count(), 1);
        assert_eq!(
            table.live_out_arcs(1).count(),
            0,
            "node 1's only out-arc is down"
        );
        table.set_link_alive(1, 2, true).unwrap();
        assert_eq!(table.next_hop(0, 3), Some(1));
        assert_eq!(table.distance(0, 3), 3);
        assert_matches_rebuild(&table);
    }

    #[test]
    fn with_dead_arcs_equals_kill_sequence() {
        let g = debruijn(2, 6);
        let dead = [3usize, 17, 40];
        let preloaded = RepairableNextHopTable::with_dead_arcs(&g, &dead);
        let mut incremental = RepairableNextHopTable::new(&g);
        for &arc in &dead {
            incremental.set_arc_alive(arc, false);
        }
        assert_eq!(preloaded.snapshot(), incremental.snapshot());
    }

    #[test]
    fn noop_transitions_cost_nothing() {
        let g = debruijn(2, 5);
        let mut table = RepairableNextHopTable::new(&g);
        assert_eq!(table.set_arc_alive(5, true), RepairStats::default());
        table.set_arc_alive(5, false);
        assert_eq!(table.set_arc_alive(5, false), RepairStats::default());
        assert!(table.set_link_alive(0, 63, false).is_none(), "no such arc");
    }
}
