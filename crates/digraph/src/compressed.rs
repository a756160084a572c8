//! Interval-compressed all-pairs next-hop tables.
//!
//! The dense [`crate::bfs::NextHopTable`] stores two `n²` arrays and
//! therefore caps at 8192 nodes — far below the fabric sizes the OTIS
//! layouts exist for (`B(2,16)` has 65536). The observation that lifts
//! the cap: for a fixed source `u`, the next hop as a function of the
//! *destination* is constant over long runs of consecutive ids. On
//! de Bruijn-style fabrics this is arithmetic fact — the appended
//! digit depends only on the destination's high digits, so from any
//! source the `d^D` destinations collapse into `O(d · D)` intervals —
//! and on arbitrary digraphs it still holds wherever ids correlate
//! with topology. This module stores exactly that structure:
//!
//! * per source, a sorted list of **runs** `(start_dst, hop, dist)`,
//!   each covering destinations `start_dst ..` until the next run;
//! * all runs in one CSR-style slab (`offsets` per source into three
//!   parallel arrays), so the whole table is four contiguous
//!   allocations;
//! * queries binary-search the source's run list: `O(log r)` for `r`
//!   runs, typically a handful of cache lines.
//!
//! Construction is one forward BFS per source (sharded over threads),
//! tracking for every reached node the **minimum first hop** over all
//! shortest paths — the same canonical choice the dense table makes
//! (its "smallest descending out-neighbor"), so the two tables answer
//! every query identically and callers can switch on size alone.
//! A [`ShiftDigraph`] — de Bruijn `B(d, D)` in rank numbering,
//! recognized from its arcs — skips the BFS entirely: its rows follow
//! from digit arithmetic, so 65536 sources compress in milliseconds
//! (the repairable table in [`crate::repair`] starts from the same
//! rows when no arc is down).

use crate::{Digraph, INFINITY};

/// One maximal destination interval of a source's next-hop function:
/// every destination from `start` up to the next run's start shares
/// this `hop` and `dist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHopRun {
    /// First destination id the run covers.
    pub start: u32,
    /// Next hop toward every destination in the run; [`INFINITY`] when
    /// there is none (`dst == source`, or unreachable).
    pub hop: u32,
    /// Shortest-path distance to every destination in the run
    /// ([`INFINITY`] if unreachable).
    pub dist: u32,
}

/// All-pairs next hops and distances, interval-compressed per source.
///
/// Answers the same queries as the dense [`crate::bfs::NextHopTable`]
/// — and, by construction, with the same canonical hops — in
/// `O(log runs(u))` per lookup and `O(total runs)` memory.
///
/// `PartialEq` compares the stored slabs byte-for-byte, which is how
/// the incremental-repair battery ([`crate::repair`]) pins a patched
/// table against a from-scratch rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedNextHopTable {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` indexes the run arrays for source `u`.
    offsets: Box<[usize]>,
    /// Run start destinations, ascending within each source.
    starts: Box<[u32]>,
    /// Run next hops ([`INFINITY`] = none).
    hops: Box<[u32]>,
    /// Run distances ([`INFINITY`] = unreachable).
    dists: Box<[u32]>,
}

impl CompressedNextHopTable {
    /// Maximum node count accepted (`2^20`). The per-source BFS build
    /// is `O(n · (n + m))`; beyond a million nodes even that is no
    /// longer a sit-and-wait cost, and the arithmetic routers need no
    /// table at all.
    pub const MAX_NODES: usize = 1 << 20;

    /// Build by one min-first-hop BFS per source (sharded over
    /// threads) — or by digit arithmetic when `g` is a
    /// [`ShiftDigraph`] — or report [`crate::bfs::TableCapExceeded`]
    /// beyond [`Self::MAX_NODES`].
    pub fn try_build(g: &Digraph) -> Result<Self, crate::bfs::TableCapExceeded> {
        let n = g.node_count();
        if n > Self::MAX_NODES {
            return Err(crate::bfs::TableCapExceeded {
                nodes: n,
                cap: Self::MAX_NODES,
            });
        }
        Ok(Self::from_rows(n, source_rows(g, None)))
    }

    /// As [`Self::try_build`], panicking (with the cap message) on
    /// oversized fabrics.
    pub fn build(g: &Digraph) -> Self {
        match Self::try_build(g) {
            Ok(table) => table,
            Err(err) => panic!("{err}"),
        }
    }

    /// Assemble a table from externally computed runs, one row per
    /// source in id order. Each row must start at destination 0 and be
    /// strictly ascending; adjacent runs with identical `(hop, dist)`
    /// are merged, so producers need not canonicalize.
    pub fn from_rows(n: usize, rows: impl IntoIterator<Item = Vec<NextHopRun>>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut starts = Vec::new();
        let mut hops = Vec::new();
        let mut dists = Vec::new();
        offsets.push(0usize);
        let mut sources = 0usize;
        for row in rows {
            sources += 1;
            assert!(
                n == 0 || row.first().map(|r| r.start) == Some(0),
                "source {} runs must start at destination 0",
                sources - 1
            );
            let base = starts.len();
            for run in row {
                assert!(
                    (run.start as usize) < n,
                    "run start {} outside 0..{n}",
                    run.start
                );
                if let Some(&last_start) = starts.get(base..).and_then(|s| s.last()) {
                    assert!(
                        run.start > last_start,
                        "runs out of order at source {}: {} after {last_start}",
                        sources - 1,
                        run.start
                    );
                    // Merge runs an analytic producer split needlessly.
                    if *hops.last().expect("nonempty") == run.hop
                        && *dists.last().expect("nonempty") == run.dist
                    {
                        continue;
                    }
                }
                starts.push(run.start);
                hops.push(run.hop);
                dists.push(run.dist);
            }
            offsets.push(starts.len());
        }
        assert_eq!(sources, n, "need exactly one run row per source");
        CompressedNextHopTable {
            n,
            offsets: offsets.into_boxed_slice(),
            starts: starts.into_boxed_slice(),
            hops: hops.into_boxed_slice(),
            dists: dists.into_boxed_slice(),
        }
    }

    /// Assemble a table from rows that are already canonical —
    /// strictly ascending starts beginning at destination 0, adjacent
    /// identical runs merged — skipping [`Self::from_rows`]'s per-run
    /// validation and merge scan. This is the epoch-publication fast
    /// path of the repairable table ([`crate::repair`]), which
    /// re-exports a snapshot after every row-changing link event; its
    /// BFS rows are canonical by construction. Debug builds still
    /// verify canonicity.
    pub fn from_canonical_rows<'a>(n: usize, rows: impl Iterator<Item = &'a [NextHopRun]>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut starts = Vec::new();
        let mut hops = Vec::new();
        let mut dists = Vec::new();
        offsets.push(0usize);
        let mut sources = 0usize;
        for row in rows {
            sources += 1;
            debug_assert!(
                n == 0 || row.first().map(|run| run.start) == Some(0),
                "source {} runs must start at destination 0",
                sources - 1
            );
            debug_assert!(
                row.last().is_none_or(|run| (run.start as usize) < n),
                "source {} has a run start outside 0..{n}",
                sources - 1
            );
            debug_assert!(
                row.windows(2)
                    .all(|w| w[0].start < w[1].start
                        && (w[0].hop != w[1].hop || w[0].dist != w[1].dist)),
                "source {} rows are not canonical (unsorted or unmerged)",
                sources - 1
            );
            starts.extend(row.iter().map(|run| run.start));
            hops.extend(row.iter().map(|run| run.hop));
            dists.extend(row.iter().map(|run| run.dist));
            offsets.push(starts.len());
        }
        assert_eq!(sources, n, "need exactly one run row per source");
        CompressedNextHopTable {
            n,
            offsets: offsets.into_boxed_slice(),
            starts: starts.into_boxed_slice(),
            hops: hops.into_boxed_slice(),
            dists: dists.into_boxed_slice(),
        }
    }

    /// Number of vertices the table covers.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Total stored runs — the table's memory footprint in units of 12
    /// bytes. `runs / n²` is the compression ratio against the dense
    /// table.
    pub fn run_count(&self) -> usize {
        self.starts.len()
    }

    /// Index (into the run slab) of the run covering `(u, dst)`.
    /// Panics on out-of-range endpoints, exactly like the dense
    /// table's slice indexing — the two backings must answer (and
    /// refuse) identically so callers can switch on size alone.
    #[inline]
    fn run_of(&self, u: u32, dst: u32) -> usize {
        assert!(
            (dst as usize) < self.n,
            "destination {dst} outside the table's 0..{}",
            self.n
        );
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        // First run starting strictly after dst; its predecessor covers dst.
        lo + self.starts[lo..hi].partition_point(|&s| s <= dst) - 1
    }

    /// Next hop from `u` toward `dst`: `None` if `u == dst` or `dst`
    /// is unreachable from `u`. Same canonical choice as the dense
    /// table (the smallest out-neighbor on a shortest path).
    #[inline]
    pub fn next_hop(&self, u: u32, dst: u32) -> Option<u32> {
        let hop = self.hops[self.run_of(u, dst)];
        (hop != INFINITY).then_some(hop)
    }

    /// Shortest-path distance `u → dst` ([`INFINITY`] if unreachable).
    #[inline]
    pub fn distance(&self, u: u32, dst: u32) -> u32 {
        self.dists[self.run_of(u, dst)]
    }

    /// As [`Self::next_hop`] over `u64` endpoints with bounds checks:
    /// `None` instead of a panic when either endpoint lies outside
    /// the table. The shape router-facing callers want (the lock-free
    /// snapshot readers in `otis-core` route through this) — a
    /// routing query, not a slab access.
    #[inline]
    pub fn next_hop64(&self, u: u64, dst: u64) -> Option<u64> {
        if u >= self.n as u64 || dst >= self.n as u64 {
            return None;
        }
        self.next_hop(u as u32, dst as u32).map(u64::from)
    }
}

/// A *shift digraph*: `n = d^D` nodes (`d ≥ 2`, `D ≥ 1`), and arc `k`
/// of every node `u` targets `(d·u mod n) + k` — de Bruijn `B(d, D)`
/// in rank numbering, arcs in letter order. Its min-first-hop rows
/// follow from digit arithmetic: from `u`, destination space splits
/// into the `O(d · D)` prefix intervals of `u`'s suffix matches, each
/// further cut where the appended digit flips. The descending
/// out-neighbor of a shift step is unique, so these rows are exactly
/// the ones the per-source BFS computes, only without the BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftDigraph {
    d: u64,
    dim: usize,
    /// `powers[i] = d^i`, `i ∈ 0..=D`.
    powers: Box<[u64]>,
}

impl ShiftDigraph {
    /// The shift structure of `g`, if it has one, read off its arcs in
    /// `O(arcs)`; `None` for every other digraph (relabelings of
    /// `B(d, D)` included).
    pub fn detect(g: &Digraph) -> Option<Self> {
        let n = g.node_count() as u64;
        if n < 2 {
            return None;
        }
        let d = g.out_degree(0) as u64;
        if d < 2 {
            return None;
        }
        let mut powers = vec![1u64];
        while powers[powers.len() - 1] < n {
            powers.push(powers[powers.len() - 1].checked_mul(d)?);
        }
        if powers[powers.len() - 1] != n {
            return None;
        }
        let shifts = (0..n as u32).all(|u| {
            let targets = g.out_neighbors(u);
            let shifted = d * u64::from(u) % n;
            targets.len() as u64 == d
                && (0..)
                    .zip(targets)
                    .all(|(k, &v)| u64::from(v) == shifted + k)
        });
        shifts.then(|| ShiftDigraph {
            d,
            dim: powers.len() - 1,
            powers: powers.into(),
        })
    }

    /// The canonical run row of source `u`: segment destination space
    /// at every suffix-match interval boundary (distance changes
    /// there) and at every multiple of `d^{k-1}` inside a distance-`k`
    /// segment (the appended digit changes there), merging adjacent
    /// runs that agree.
    pub(crate) fn runs(&self, u: u32) -> Vec<NextHopRun> {
        let (d, dim, powers) = (self.d, self.dim, &self.powers);
        let u = u64::from(u);
        // Match intervals: destinations whose length-L prefix equals
        // u's length-L suffix, `lo[L] .. lo[L] + d^{D-L}`, one per L
        // (I_0 is everything, I_D is {u} itself).
        let lo: Vec<u64> = (0..=dim)
            .map(|level| (u % powers[level]) * powers[dim - level])
            .collect();
        let mut cuts: Vec<u64> = (0..=dim)
            .flat_map(|level| [lo[level], lo[level] + powers[dim - level]])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let shifted = (u % powers[dim - 1]) * d;
        let mut runs: Vec<NextHopRun> = Vec::new();
        let mut push = |start: u64, hop: u32, dist: u32| match runs.last() {
            Some(last) if last.hop == hop && last.dist == dist => {}
            _ => runs.push(NextHopRun {
                start: start as u32,
                hop,
                dist,
            }),
        };
        for pair in cuts.windows(2) {
            let (start, end) = (pair[0], pair[1]);
            // No segment straddles an interval boundary, so membership
            // is decided by the start point alone.
            let best_match = (0..=dim)
                .rev()
                .find(|&level| start.wrapping_sub(lo[level]) < powers[dim - level])
                .expect("level 0 matches everything");
            let k = dim - best_match;
            if k == 0 {
                // The segment is [u, u + 1): already home, no hop.
                push(start, INFINITY, 0);
                continue;
            }
            // Within a distance-k segment the hop appends destination
            // digit k-1, constant between multiples of d^{k-1}.
            let step = powers[k - 1];
            let mut block = start / step;
            let mut digit = block % d;
            let mut t = start;
            while t < end {
                push(t, (shifted + digit) as u32, k as u32);
                block += 1;
                digit = if digit + 1 == d { 0 } else { digit + 1 };
                t = block * step;
            }
        }
        runs
    }
}

/// One canonical run row per source of `g`, skipping the arcs `alive`
/// marks dead: digit arithmetic for an unmasked [`ShiftDigraph`], one
/// min-first-hop BFS per source otherwise. Sources are sharded over
/// threads; each BFS worker reuses its scratch across its shard, like
/// the dense build and the eccentricity sweep.
pub(crate) fn source_rows(g: &Digraph, alive: Option<&[bool]>) -> Vec<Vec<NextHopRun>> {
    let n = g.node_count();
    let shift = alive.is_none().then(|| ShiftDigraph::detect(g)).flatten();
    const CHUNK: usize = 8;
    otis_util::par_map(n.div_ceil(CHUNK), 1, |chunk_index| {
        let sources = chunk_index * CHUNK..((chunk_index + 1) * CHUNK).min(n);
        match &shift {
            Some(shift) => sources.map(|u| shift.runs(u as u32)).collect::<Vec<_>>(),
            None => {
                let mut scratch = BfsScratch::new(n);
                sources
                    .map(|u| source_runs(g, u as u32, alive, &mut scratch))
                    .collect()
            }
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Reused per-worker buffers for the per-source BFS.
struct BfsScratch {
    dist: Vec<u32>,
    first: Vec<u32>,
    queue: std::collections::VecDeque<u32>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            dist: vec![INFINITY; n],
            first: vec![INFINITY; n],
            queue: std::collections::VecDeque::new(),
        }
    }
}

/// One source's runs: forward BFS tracking, for every reached node,
/// the minimum first hop over all shortest paths from `u` — which is
/// exactly the dense table's "smallest descending out-neighbor"
/// (any descending neighbor starts some shortest path, and the
/// minimum over shortest-path first hops is the smallest of them).
/// The min survives relaxation because a node's first-hop label is
/// final before the node is popped: all its shortest-path parents sit
/// one BFS layer earlier.
///
/// Arcs whose index maps to `false` in `alive` are skipped — the BFS
/// of the survivor subgraph, computed without materializing it. With
/// `alive = None` (or an all-`true` mask) the traversal visits arcs in
/// the same CSR order, so the produced runs are identical, which is
/// what lets [`crate::repair`] pin its patched rows against a
/// from-scratch build of the masked digraph byte-for-byte.
fn source_runs(
    g: &Digraph,
    u: u32,
    alive: Option<&[bool]>,
    scratch: &mut BfsScratch,
) -> Vec<NextHopRun> {
    let n = g.node_count();
    let BfsScratch { dist, first, queue } = scratch;
    dist.fill(INFINITY);
    first.fill(INFINITY);
    queue.clear();
    dist[u as usize] = 0;
    queue.push_back(u);
    while let Some(p) = queue.pop_front() {
        let dp = dist[p as usize];
        for arc in g.arc_range(p) {
            if alive.is_some_and(|alive| !alive[arc]) {
                continue;
            }
            let w = g.arc_target(arc);
            let via = if p == u { w } else { first[p as usize] };
            if dist[w as usize] == INFINITY {
                dist[w as usize] = dp + 1;
                first[w as usize] = via;
                queue.push_back(w);
            } else if dist[w as usize] == dp + 1 && via < first[w as usize] {
                first[w as usize] = via;
            }
        }
    }
    // A self-loop BFS-discovers u at distance d(u,u) > 0 only through
    // re-relaxation, which the INFINITY check blocks — dist[u] stays 0
    // and first[u] stays INFINITY, the "no hop needed" convention.
    let mut runs = Vec::new();
    for dst in 0..n {
        let (hop, d) = (first[dst], dist[dst]);
        match runs.last() {
            Some(&NextHopRun {
                hop: last_hop,
                dist: last_dist,
                ..
            }) if last_hop == hop && last_dist == d => {}
            _ => runs.push(NextHopRun {
                start: dst as u32,
                hop,
                dist: d,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::NextHopTable;

    fn cycle(n: usize) -> Digraph {
        Digraph::from_fn(n, |u| [(u + 1) % n as u32])
    }

    /// Every `(u, dst)` query must agree with the dense table — hops
    /// included, since both pick the smallest descending neighbor.
    fn assert_matches_dense(g: &Digraph) {
        let dense = NextHopTable::build(g);
        let compressed = CompressedNextHopTable::build(g);
        assert_eq!(compressed.node_count(), g.node_count());
        for u in 0..g.node_count() as u32 {
            for dst in 0..g.node_count() as u32 {
                assert_eq!(
                    compressed.next_hop(u, dst),
                    dense.next_hop(u, dst),
                    "hop {u}->{dst}"
                );
                assert_eq!(
                    compressed.distance(u, dst),
                    dense.distance(u, dst),
                    "dist {u}->{dst}"
                );
            }
        }
    }

    #[test]
    fn matches_dense_on_cycle() {
        assert_matches_dense(&cycle(11));
    }

    /// `B(d, D)` in rank numbering: arc `k` of `u` targets
    /// `(d·u mod n) + k`.
    fn shift(d: u32, dim: u32) -> Digraph {
        let n = d.pow(dim);
        Digraph::from_fn(n as usize, |u| (0..d).map(move |k| (d * u) % n + k))
    }

    /// The per-source BFS rows of `g`, bypassing shift detection.
    fn bfs_rows(g: &Digraph) -> Vec<Vec<NextHopRun>> {
        let mut scratch = BfsScratch::new(g.node_count());
        (0..g.node_count() as u32)
            .map(|u| source_runs(g, u, None, &mut scratch))
            .collect()
    }

    #[test]
    fn shift_rows_are_byte_identical_to_bfs_rows() {
        for (d, dim) in [
            (2u32, 1u32),
            (2, 2),
            (2, 5),
            (2, 8),
            (3, 1),
            (3, 4),
            (4, 3),
            (5, 2),
        ] {
            let g = shift(d, dim);
            let detected = ShiftDigraph::detect(&g).expect("B(d,D) is a shift digraph");
            let bfs = bfs_rows(&g);
            for (u, row) in bfs.iter().enumerate() {
                assert_eq!(&detected.runs(u as u32), row, "B({d},{dim}) source {u}");
            }
            let n = g.node_count();
            let reference = CompressedNextHopTable::from_rows(n, bfs);
            assert_eq!(CompressedNextHopTable::build(&g), reference, "B({d},{dim})");
            assert_eq!(
                crate::repair::RepairableNextHopTable::new(&g).snapshot(),
                reference,
                "B({d},{dim}) repairable"
            );
        }
    }

    #[test]
    fn near_shift_digraphs_take_the_bfs_path() {
        let g = shift(2, 5);
        let n = g.node_count() as u32;
        let arcs = |u: u32| -> Vec<u32> { g.out_neighbors(u).to_vec() };
        // Two arcs swapped between nodes 9 and 10: still 2-regular in
        // and out, but 9 → 20 and 10 → 18 do not shift. (Targets are
        // sorted per node, so the letter order itself cannot differ.)
        let swapped = Digraph::from_fn(n as usize, |u| {
            let mut targets = arcs(u);
            match u {
                9 => targets[0] = arcs(10)[0],
                10 => targets[0] = arcs(9)[0],
                _ => {}
            }
            targets
        });
        // One arc missing.
        let missing = Digraph::from_fn(n as usize, |u| {
            let mut targets = arcs(u);
            if u == 9 {
                targets.pop();
            }
            targets
        });
        // An isomorphic renumbering: B(2,5) relabeled by reversing the
        // five bits of every rank.
        let reverse = |u: u32| u.reverse_bits() >> (32 - 5);
        let reversed = Digraph::from_fn(n as usize, |u| {
            arcs(reverse(u))
                .into_iter()
                .map(reverse)
                .collect::<Vec<_>>()
        });
        for (name, variant) in [
            ("swapped", &swapped),
            ("missing", &missing),
            ("reversed", &reversed),
        ] {
            assert_eq!(ShiftDigraph::detect(variant), None, "{name}");
            let reference = CompressedNextHopTable::from_rows(n as usize, bfs_rows(variant));
            assert_eq!(CompressedNextHopTable::build(variant), reference, "{name}");
            assert_matches_dense(variant);
        }
        // Degenerate sizes and degrees never detect.
        assert_eq!(ShiftDigraph::detect(&Digraph::empty(0)), None);
        assert_eq!(ShiftDigraph::detect(&Digraph::from_fn(1, |_| [0])), None);
        assert_eq!(ShiftDigraph::detect(&cycle(8)), None);
        assert_eq!(
            ShiftDigraph::detect(&Digraph::from_fn(6, |u| [(2 * u) % 6, (2 * u) % 6 + 1])),
            None,
            "6 is not a power of 2"
        );
    }

    #[test]
    fn debruijn_shift_structure_compresses() {
        // B(2,10) by shift arithmetic: from any source the next hop
        // toward dst depends only on dst's high digits, so the 1024
        // destinations collapse into a few dozen intervals per source
        // — the locality the whole representation exists to exploit.
        let n = 1u32 << 10;
        let g = Digraph::from_fn(n as usize, |u| [(2 * u) % n, (2 * u + 1) % n]);
        let table = CompressedNextHopTable::build(&g);
        assert!(
            table.run_count() < (n as usize * n as usize) / 10,
            "expected ≥10× compression on B(2,10), got {} runs for {} pairs",
            table.run_count(),
            n * n
        );
    }

    #[test]
    fn matches_dense_on_irregular_digraphs() {
        // Cycle plus multiplicative chords (the bfs.rs fixture).
        let n = 97u32;
        assert_matches_dense(&Digraph::from_fn(n as usize, |u| {
            vec![(u + 1) % n, (u * 5 + 2) % n]
        }));
        // Disconnected, with loops and a dead-end component.
        assert_matches_dense(&Digraph::from_fn(7, |u| match u {
            0 => vec![1, 0],
            1 => vec![2],
            2 => vec![0],
            3 => vec![4],
            _ => vec![],
        }));
        // Parallel arcs.
        assert_matches_dense(&Digraph::from_fn(4, |u| vec![(u + 1) % 4, (u + 1) % 4]));
    }

    #[test]
    fn unreachable_and_self_queries() {
        let g = Digraph::from_fn(3, |u| if u == 0 { vec![1] } else { vec![] });
        let table = CompressedNextHopTable::build(&g);
        assert_eq!(table.next_hop(0, 1), Some(1));
        assert_eq!(table.next_hop(1, 0), None);
        assert_eq!(table.distance(2, 0), INFINITY);
        assert_eq!(table.next_hop(2, 2), None, "self-route needs no hop");
        assert_eq!(table.distance(2, 2), 0);
    }

    #[test]
    fn from_rows_merges_and_validates() {
        // Two sources over n = 4; source 1's producer split a run that
        // from_rows must merge back.
        let rows = vec![
            vec![
                NextHopRun {
                    start: 0,
                    hop: INFINITY,
                    dist: 0,
                },
                NextHopRun {
                    start: 1,
                    hop: 1,
                    dist: 1,
                },
            ],
            vec![
                NextHopRun {
                    start: 0,
                    hop: 0,
                    dist: 1,
                },
                NextHopRun {
                    start: 1,
                    hop: 0,
                    dist: 1,
                },
            ],
        ];
        let table = CompressedNextHopTable::from_rows(2, rows);
        assert_eq!(table.node_count(), 2);
        assert_eq!(table.next_hop(0, 0), None);
        assert_eq!(table.next_hop(0, 1), Some(1));
        assert_eq!(table.next_hop(1, 0), Some(0));
        assert_eq!(table.next_hop(1, 1), Some(0), "merged run still answers");
        assert_eq!(table.run_count(), 3, "the split run merged");
        assert_eq!(table.distance(1, 1), 1, "source 1 reaches itself via 0");
    }

    #[test]
    fn from_canonical_rows_matches_from_rows() {
        // Canonical BFS rows assembled through the fast path must
        // produce the byte-identical slabs the validating path does —
        // this is what keeps the repairable table's epoch publications
        // equal to its differential snapshot.
        let n = 97u32;
        let g = Digraph::from_fn(n as usize, |u| vec![(u + 1) % n, (u * 5 + 2) % n]);
        let mut scratch = BfsScratch::new(n as usize);
        let rows: Vec<Vec<NextHopRun>> = (0..n)
            .map(|u| source_runs(&g, u, None, &mut scratch))
            .collect();
        let validated = CompressedNextHopTable::from_rows(n as usize, rows.iter().cloned());
        let fast =
            CompressedNextHopTable::from_canonical_rows(n as usize, rows.iter().map(Vec::as_slice));
        assert_eq!(validated, fast);
    }

    #[test]
    fn next_hop64_bounds_check_instead_of_panicking() {
        let table = CompressedNextHopTable::build(&cycle(5));
        assert_eq!(table.next_hop64(0, 3), Some(1));
        assert_eq!(table.next_hop64(2, 2), None, "self-route needs no hop");
        assert_eq!(table.next_hop64(5, 0), None, "source off the table");
        assert_eq!(table.next_hop64(0, u64::MAX), None, "dest off the table");
    }

    #[test]
    #[should_panic(expected = "must start at destination 0")]
    fn from_rows_rejects_gapped_rows() {
        CompressedNextHopTable::from_rows(
            1,
            vec![vec![NextHopRun {
                start: 1,
                hop: 0,
                dist: 1,
            }]],
        );
    }

    #[test]
    fn cap_is_a_descriptive_error() {
        let oversized = Digraph::empty(CompressedNextHopTable::MAX_NODES + 1);
        let err = CompressedNextHopTable::try_build(&oversized).unwrap_err();
        assert_eq!(err.nodes, CompressedNextHopTable::MAX_NODES + 1);
        assert_eq!(err.cap, CompressedNextHopTable::MAX_NODES);
        let message = err.to_string();
        assert!(message.contains("interval-compressed"), "{message}");
        assert!(message.contains("arithmetic"), "{message}");
    }
}
