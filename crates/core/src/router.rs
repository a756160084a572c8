//! The [`Router`] abstraction: one interface over every way this
//! workspace computes next hops, so the packet simulator and the
//! batched traffic engine in `otis-optics` can be driven by any of
//! them interchangeably.
//!
//! Three families of implementation live here:
//!
//! * [`DeBruijnRouter`] / [`KautzRouter`] — the paper's *tableless*
//!   arithmetic routers: `O(D)` per hop, no precomputation beyond a
//!   `D + 1`-entry power table, no per-query allocation (de Bruijn) —
//!   the routing story that makes these fabrics attractive at scale;
//! * [`RoutingTable`] — a precomputed all-pairs next-hop table for an
//!   *arbitrary* digraph, built once with parallel reverse-BFS
//!   ([`otis_digraph::bfs::NextHopTable`]) and then shared read-only
//!   across every packet of a batch;
//! * [`BfsRouter`] — the no-precomputation baseline a practitioner
//!   would write first: one reverse-BFS **per packet**. It exists to
//!   be measured against (see `crates/bench/benches/routing_sim.rs`),
//!   not to be deployed.
//!
//! Two more implementations compose with these:
//!
//! * [`AdaptiveRouter`] — wraps any router and a [`CongestionMap`]
//!   (live queue occupancy, fed by the queueing engine in
//!   `otis_optics::traffic::queueing`) and picks the least-queued of
//!   the candidate next hops, with a deroute penalty so packets only
//!   leave shortest paths when congestion justifies it;
//! * [`crate::DynamicRoutingTable`] built over a fault set's dead
//!   arcs (`otis_optics::faults::FaultSet::dead_arcs`) routes around
//!   dead optical hardware — and exposes candidates over the
//!   *surviving* digraph, so adaptivity composes with dead hardware.

use crate::{DeBruijn, DigraphFamily, Kautz, WitnessMap};
use otis_digraph::bfs::{NextHopTable, TableCapExceeded};
use otis_digraph::compressed::CompressedNextHopTable;
use otis_digraph::{Digraph, INFINITY};
use otis_util::SmallVec;
use otis_words::Word;
use std::sync::Arc;

/// Candidate next hops for one routing query: at most the fabric
/// degree `d` entries, inline for `d ≤ 4` (every configuration the
/// paper tabulates).
pub type Candidates = SmallVec<u64, 4>;

/// Candidates with the distance each leaves to the destination:
/// `(distance, vertex)` pairs, ascending by distance.
pub type RankedCandidates = SmallVec<(u64, u64), 4>;

/// A next-hop chooser over vertices `0..node_count()`.
///
/// The contract: [`Router::next_hop`] returns a vertex one step along
/// some path toward `dst` (not necessarily shortest, though every
/// implementation here is), or `None` when `current == dst` or no
/// progress is possible. Routers are `Sync` so a batch engine can
/// share one across worker threads.
pub trait Router: Sync {
    /// Number of vertices routed over.
    fn node_count(&self) -> u64;

    /// Human-readable description, e.g. `table(B(2,10))`.
    fn name(&self) -> String;

    /// The next vertex on the way from `current` to `dst`; `None` if
    /// already there or unreachable.
    fn next_hop(&self, current: u64, dst: u64) -> Option<u64>;

    /// [`Router::next_hop`] for a packet currently occupying virtual
    /// channel class `vc` — the hook a lossless queueing engine with
    /// [`Dateline`] virtual channels drives. The class never changes
    /// *where* a packet may legally go (that is `next_hop`'s job); it
    /// changes which per-VC queue a congestion-aware router should
    /// score when several candidates are available. The default
    /// ignores the class; [`AdaptiveRouter`] built via
    /// [`AdaptiveRouter::with_dateline`] overrides it.
    fn next_hop_on_vc(&self, current: u64, dst: u64, vc: u8) -> Option<u64> {
        let _ = vc;
        self.next_hop(current, dst)
    }

    /// True iff [`Router::next_hop_on_vc`] is a pure function of
    /// `(current, dst, vc)` for the duration of a simulation — i.e.
    /// repeated queries with the same arguments always return the same
    /// hop. Engines use this to cache a blocked packet's next hop
    /// instead of re-asking every cycle (under saturation, most
    /// queries are exactly such re-asks). Routers that consult live
    /// state ([`AdaptiveRouter`] reading a [`CongestionMap`]) must
    /// return `false`; everything oblivious keeps the default `true`.
    fn hops_are_stateless(&self) -> bool {
        true
    }

    /// Candidate next hops from `current` toward `dst`, best first.
    ///
    /// The contract: every entry is an out-neighbor of `current` from
    /// which `dst` is still reachable, the first entry lies on a
    /// shortest path (it is an acceptable answer for
    /// [`Router::next_hop`]), and entries are ordered by the distance
    /// they leave to `dst` (ties keep the fabric's natural neighbor
    /// order). Empty iff `next_hop` is `None`.
    ///
    /// The default is the oblivious singleton (via
    /// [`Router::ranked_candidates`]); topology-aware routers override
    /// `ranked_candidates` to expose all `≤ d` usable out-neighbors so
    /// an [`AdaptiveRouter`] can spread load across them.
    fn candidates(&self, current: u64, dst: u64) -> Candidates {
        self.ranked_candidates(current, dst)
            .iter()
            .map(|&(_, v)| v)
            .collect()
    }

    /// [`Router::candidates`] with the remaining distance each hop
    /// leaves to `dst`, as `(distance, vertex)` pairs, best first —
    /// so congestion-aware wrappers need not recompute distances the
    /// ranking already paid for. Same contract and ordering as
    /// `candidates`; the two must agree.
    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        match self.next_hop(current, dst) {
            Some(next) => match self.distance(next, dst) {
                Some(dist) => RankedCandidates::of((dist, next)),
                None => RankedCandidates::new(),
            },
            None => RankedCandidates::new(),
        }
    }

    /// The full vertex path `src..=dst` (inclusive of both ends), or
    /// `None` if `dst` is unreachable. The default walks
    /// [`Router::next_hop`] with a loop guard; implementations with a
    /// cheaper bulk form may override.
    fn route(&self, src: u64, dst: u64) -> Option<Vec<u64>> {
        let hop_limit = self.node_count();
        let mut path = vec![src];
        let mut current = src;
        while current != dst {
            if path.len() as u64 > hop_limit {
                return None; // routing loop: not a working router/pair
            }
            current = self.next_hop(current, dst)?;
            path.push(current);
        }
        Some(path)
    }

    /// Hop count `src → dst`, or `None` if unreachable. Default walks
    /// the route; table-backed routers answer in `O(1)`.
    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.route(src, dst).map(|path| path.len() as u64 - 1)
    }

    /// The router's online-repair capability, if it has one: a
    /// dynamics-driving engine calls this once per link death/revival
    /// and, when `Some`, routes the event into
    /// [`crate::dynamic::RouteRepair::apply_link_event_deferred`] so
    /// the router's tables track the survivor fabric mid-run. Oblivious
    /// and arithmetic routers keep the default `None` (their answers
    /// never depend on liveness); wrappers delegate to their inner
    /// router so `adaptive(dynamic-table)` repairs through the wrap.
    fn as_repair(&self) -> Option<&dyn crate::dynamic::RouteRepair> {
        None
    }
}

/// Rank a node's out-neighbors into a [`RankedCandidates`] list: drop
/// self-loops, duplicates and dead ends (`distance` = `None`), then
/// stable-sort ascending by remaining distance so the shortest-path
/// hop comes first and ties keep the fabric's neighbor order.
pub(crate) fn rank_candidates(
    current: u64,
    neighbors: impl Iterator<Item = u64>,
    distance_to_dst: impl Fn(u64) -> Option<u64>,
) -> RankedCandidates {
    let mut ranked = RankedCandidates::new();
    for v in neighbors {
        if v == current || ranked.iter().any(|&(_, seen)| seen == v) {
            continue; // a self-loop never progresses; duplicates add nothing
        }
        if let Some(dist) = distance_to_dst(v) {
            ranked.push((dist, v));
        }
    }
    // Insertion-ordered stable sort on ≤ d entries.
    ranked.as_mut_slice().sort_by_key(|&(dist, _)| dist);
    ranked
}

// ----- arithmetic (tableless) routers ----------------------------------------

/// Tableless `O(D)` shortest-path router on `B(d, D)`.
///
/// Carries the `d^0..=d^D` power table so the per-hop digit arithmetic
/// never recomputes powers (the hot-loop hoisting that
/// `routing::distance` gets by running the powers incrementally).
#[derive(Debug, Clone)]
pub struct DeBruijnRouter {
    b: DeBruijn,
    /// `powers[i] = d^i`, `i ∈ 0..=D`.
    powers: Box<[u64]>,
}

impl DeBruijnRouter {
    pub fn new(b: DeBruijn) -> Self {
        let d = b.d() as u64;
        let dim = b.diameter() as usize;
        let mut powers = Vec::with_capacity(dim + 1);
        let mut power = 1u64;
        for _ in 0..=dim {
            powers.push(power);
            power = power.saturating_mul(d); // top entry d^D = node_count, exact
        }
        powers[dim] = b.node_count();
        DeBruijnRouter {
            b,
            powers: powers.into_boxed_slice(),
        }
    }

    /// The family routed over.
    pub fn family(&self) -> &DeBruijn {
        &self.b
    }

    /// Shortest-path distance from `x` to `y`: the smallest `k` with
    /// `⌊y / d^k⌋ = x mod d^{D-k}` — pure table lookups, no `pow`.
    #[inline]
    pub fn debruijn_distance(&self, x: u64, y: u64) -> u32 {
        let dim = self.b.diameter();
        for k in 0..=dim {
            if y / self.powers[k as usize] == x % self.powers[(dim - k) as usize] {
                return k;
            }
        }
        unreachable!("k = D always matches")
    }
}

impl Router for DeBruijnRouter {
    fn node_count(&self) -> u64 {
        self.b.node_count()
    }

    fn name(&self) -> String {
        format!("arithmetic({})", self.b.name())
    }

    #[inline]
    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        let k = self.debruijn_distance(current, dst);
        if k == 0 {
            return None;
        }
        // Shift in digit y_{k-1} of the destination.
        let d = self.b.d() as u64;
        let dim = self.b.diameter() as usize;
        let digit = (dst / self.powers[k as usize - 1]) % d;
        Some((current % self.powers[dim - 1]) * d + digit)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        if current == dst {
            return RankedCandidates::new();
        }
        let d = self.b.d() as u64;
        let dim = self.b.diameter() as usize;
        let shifted = (current % self.powers[dim - 1]) * d;
        rank_candidates(current, (0..d).map(|digit| shifted + digit), |v| {
            Some(self.debruijn_distance(v, dst) as u64)
        })
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        Some(self.debruijn_distance(src, dst) as u64)
    }
}

/// Tableless `O(D)` shortest-path router on `K(d, D)` word ranks.
///
/// Routes by the same longest-overlap rule as de Bruijn, through the
/// Kautz word codec (so each hop costs one unrank/rank pair — still
/// `O(D)`, with two small allocations).
#[derive(Debug, Clone)]
pub struct KautzRouter {
    k: Kautz,
}

impl KautzRouter {
    pub fn new(k: Kautz) -> Self {
        KautzRouter { k }
    }

    /// The family routed over.
    pub fn family(&self) -> &Kautz {
        &self.k
    }
}

impl Router for KautzRouter {
    fn node_count(&self) -> u64 {
        self.k.node_count()
    }

    fn name(&self) -> String {
        format!("arithmetic({})", self.k.name())
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        let space = self.k.space();
        let x = space.unrank(current);
        let y = space.unrank(dst);
        let steps = crate::routing::kautz_distance(&self.k, &x, &y) as usize;
        if steps == 0 {
            return None;
        }
        // One left shift, appending the destination's digit y_{steps-1}.
        let mut positions: Vec<u8> = x.positions().to_vec();
        positions.rotate_right(1);
        positions[0] = y.digit(steps - 1);
        Some(space.rank(&Word::from_positions(positions)))
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        if current == dst {
            return RankedCandidates::new();
        }
        let neighbors = (0..self.k.degree()).map(|j| self.k.out_neighbor(current, j));
        rank_candidates(current, neighbors, |v| self.distance(v, dst))
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        let space = self.k.space();
        Some(crate::routing::kautz_distance(&self.k, &space.unrank(src), &space.unrank(dst)) as u64)
    }
}

// ----- precomputed table router ----------------------------------------------

/// The storage behind a [`RoutingTable`]: dense `n²` arrays up to
/// [`NextHopTable::MAX_NODES`], interval-compressed runs above (to
/// [`CompressedNextHopTable::MAX_NODES`]). Both answer every query
/// with the same canonical hop (smallest descending out-neighbor), so
/// the choice is purely a size/speed trade: `O(1)` lookups versus
/// `O(log runs)` lookups at a tiny fraction of the memory.
#[derive(Debug, Clone)]
enum TableBacking {
    Dense(NextHopTable),
    Compressed(CompressedNextHopTable),
}

impl TableBacking {
    #[inline]
    fn next_hop(&self, u: u32, dst: u32) -> Option<u32> {
        match self {
            TableBacking::Dense(t) => t.next_hop(u, dst),
            TableBacking::Compressed(t) => t.next_hop(u, dst),
        }
    }

    #[inline]
    fn distance(&self, u: u32, dst: u32) -> u32 {
        match self {
            TableBacking::Dense(t) => t.distance(u, dst),
            TableBacking::Compressed(t) => t.distance(u, dst),
        }
    }
}

/// Precomputed all-pairs next-hop router for an arbitrary digraph.
///
/// Up to [`NextHopTable::MAX_NODES`] nodes the backing is the dense
/// quadratic table (one reverse-BFS per destination, then every query
/// a single array load). Above it — `B(2,16)` and friends — the
/// backing switches to the interval-compressed
/// [`CompressedNextHopTable`] automatically: same canonical answers,
/// `O(total runs)` memory instead of `O(n²)`, `O(log runs)` per
/// query. Works on any materialized fabric — de Bruijn, Kautz,
/// `II`/`RRK` at non-power sizes, faulted networks. A de Bruijn
/// fabric in rank numbering (a
/// [`otis_digraph::compressed::ShiftDigraph`]) gets its compressed
/// runs by digit arithmetic instead of one BFS per source;
/// [`RoutingTable::from_debruijn`] takes that path at every size.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    backing: TableBacking,
    /// The routed digraph's adjacency, kept so
    /// [`Router::candidates`] can enumerate *all* descending
    /// out-neighbors (the table itself stores only one per pair).
    g: Digraph,
    label: String,
}

impl RoutingTable {
    /// Build from a materialized digraph. Panics on fabrics beyond
    /// [`CompressedNextHopTable::MAX_NODES`]; use
    /// [`RoutingTable::try_new`] to handle that gracefully.
    pub fn new(g: &Digraph) -> Self {
        match Self::try_new(g) {
            Ok(table) => table,
            Err(err) => panic!("{err}"),
        }
    }

    /// Build from a materialized digraph — dense up to the dense cap,
    /// interval-compressed above it — or report [`TableCapExceeded`]
    /// (node count, cap, and the arithmetic alternative) past the
    /// compressed cap too.
    pub fn try_new(g: &Digraph) -> Result<Self, TableCapExceeded> {
        Self::try_new_owned(g.clone())
    }

    /// [`RoutingTable::try_new`] taking the digraph by value, so
    /// callers that just materialized one (the family path) pay no
    /// second adjacency copy.
    fn try_new_owned(g: Digraph) -> Result<Self, TableCapExceeded> {
        let backing = if g.node_count() <= NextHopTable::MAX_NODES {
            TableBacking::Dense(NextHopTable::try_build(&g)?)
        } else {
            TableBacking::Compressed(CompressedNextHopTable::try_build(&g)?)
        };
        Ok(RoutingTable {
            backing,
            label: format!("{} nodes", g.node_count()),
            g,
        })
    }

    /// Build from any family (materializes it first). Panics past the
    /// compressed cap; see [`RoutingTable::try_from_family`].
    pub fn from_family<F: DigraphFamily>(family: &F) -> Self {
        match Self::try_from_family(family) {
            Ok(table) => table,
            Err(err) => panic!("{err}"),
        }
    }

    /// Build from any family, or report [`TableCapExceeded`] when the
    /// fabric exceeds even the compressed cap. The cap is checked
    /// against `family.node_count()` *before* materializing the
    /// digraph, so an oversized fabric errors in O(1) instead of
    /// allocating gigabytes of adjacency first.
    pub fn try_from_family<F: DigraphFamily>(family: &F) -> Result<Self, TableCapExceeded> {
        let n = family.node_count();
        if n > CompressedNextHopTable::MAX_NODES as u64 {
            return Err(TableCapExceeded {
                nodes: n as usize,
                cap: CompressedNextHopTable::MAX_NODES,
            });
        }
        let mut table = Self::try_new_owned(family.digraph())?;
        table.label = family.name();
        Ok(table)
    }

    /// Interval-compressed table for a de Bruijn fabric, at every size
    /// (the family path switches to dense below the dense cap). Its
    /// rank-numbered digraph is a
    /// [`otis_digraph::compressed::ShiftDigraph`], so the runs are
    /// derived *arithmetically*: from source `u`, destination space
    /// splits into the `O(d · D)` prefix intervals of `u`'s suffix
    /// matches, each further cut at multiples of `d^{k-1}` where the
    /// appended digit flips. No BFS at all — `B(2,16)`'s 65536 sources
    /// compress in milliseconds, which is what makes table routing on
    /// paper-scale fabrics practical on a laptop. Answers are
    /// identical to the BFS-built tables: the descending out-neighbor
    /// of a de Bruijn routing step is unique, so "the arithmetic hop"
    /// and "the smallest descending neighbor" are the same vertex.
    pub fn try_from_debruijn(b: &DeBruijn) -> Result<Self, TableCapExceeded> {
        let n = b.node_count();
        if n > CompressedNextHopTable::MAX_NODES as u64 {
            return Err(TableCapExceeded {
                nodes: n as usize,
                cap: CompressedNextHopTable::MAX_NODES,
            });
        }
        let g = b.digraph();
        Ok(RoutingTable {
            backing: TableBacking::Compressed(CompressedNextHopTable::try_build(&g)?),
            label: b.name(),
            g,
        })
    }

    /// As [`RoutingTable::try_from_debruijn`], panicking past the
    /// compressed cap.
    pub fn from_debruijn(b: &DeBruijn) -> Self {
        match Self::try_from_debruijn(b) {
            Ok(table) => table,
            Err(err) => panic!("{err}"),
        }
    }

    /// True iff the backing is the interval-compressed representation
    /// (fabrics beyond the dense cap, or [`RoutingTable::from_debruijn`]).
    pub fn is_compressed(&self) -> bool {
        matches!(self.backing, TableBacking::Compressed(_))
    }

    /// Shortest-path distance ([`INFINITY`] if unreachable): `O(1)`
    /// dense, `O(log runs)` compressed.
    #[inline]
    pub fn table_distance(&self, src: u64, dst: u64) -> u32 {
        self.backing.distance(src as u32, dst as u32)
    }

    /// The digraph this table routes over.
    pub fn digraph(&self) -> &Digraph {
        &self.g
    }
}

impl Router for RoutingTable {
    fn node_count(&self) -> u64 {
        self.g.node_count() as u64
    }

    fn name(&self) -> String {
        match self.backing {
            TableBacking::Dense(_) => format!("table({})", self.label),
            TableBacking::Compressed(_) => format!("compressed-table({})", self.label),
        }
    }

    #[inline]
    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.backing
            .next_hop(current as u32, dst as u32)
            .map(u64::from)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        if current == dst {
            return RankedCandidates::new();
        }
        let neighbors = self
            .g
            .out_neighbors(current as u32)
            .iter()
            .map(|&v| v as u64);
        rank_candidates(current, neighbors, |v| {
            let dist = self.backing.distance(v as u32, dst as u32);
            (dist != INFINITY).then_some(dist as u64)
        })
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        let distance = self.table_distance(src, dst);
        (distance != INFINITY).then_some(distance as u64)
    }
}

// ----- isomorphism-relabeled routing ------------------------------------------

/// Routes one fabric through a router for an *isomorphic* fabric, via
/// a witness mapping (outer node → inner node, as produced by
/// `otis_layout::LayoutSpec::debruijn_witness`).
///
/// This is what lets an OTIS `H(p, q, d)` fabric — whose node ids are
/// transceiver-group coordinates — ride the de Bruijn rank-space
/// machinery at full scale: the arithmetic routers and the
/// arithmetic-compressed [`RoutingTable::from_debruijn`] both speak
/// de Bruijn ranks, and the witness is exactly the paper's
/// isomorphism. Both directions of the witness are held as
/// [`WitnessMap`]s: the OTIS witnesses at `d = 2` permute and
/// complement binary digits, so each direction evaluates from a few
/// L1-resident byte tables (three lookups at `2^20` nodes) instead of
/// a random read into an `n`-entry array. A witness that does not
/// factor keeps its array, one lookup per direction.
#[derive(Debug, Clone)]
pub struct RelabeledRouter<R: Router> {
    inner: R,
    /// Outer node → inner node. Published route snapshots share it
    /// without copying its tables per epoch.
    to_inner: WitnessMap,
    /// Inner node → outer node.
    from_inner: WitnessMap,
}

impl<R: Router> RelabeledRouter<R> {
    /// Wrap `inner` behind the bijection `to_inner` (outer node →
    /// inner node). Panics unless `to_inner` is a permutation of
    /// `0..inner.node_count()`.
    pub fn new(inner: R, to_inner: Vec<u32>) -> Self {
        let n = inner.node_count();
        assert_eq!(
            to_inner.len() as u64,
            n,
            "witness covers {} nodes but the router has {n}",
            to_inner.len()
        );
        let mut from_inner = vec![u32::MAX; to_inner.len()];
        for (outer, &inner_id) in to_inner.iter().enumerate() {
            assert!(
                (inner_id as u64) < n,
                "witness maps {outer} off-fabric ({inner_id} ≥ {n})"
            );
            assert!(
                from_inner[inner_id as usize] == u32::MAX,
                "witness is not injective at inner node {inner_id}"
            );
            from_inner[inner_id as usize] = outer as u32;
        }
        RelabeledRouter {
            inner,
            to_inner: WitnessMap::new(&to_inner),
            from_inner: WitnessMap::new(&from_inner),
        }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: Router> Router for RelabeledRouter<R> {
    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn name(&self) -> String {
        format!("relabeled({})", self.inner.name())
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.next_hop_on_vc(current, dst, 0)
    }

    fn next_hop_on_vc(&self, current: u64, dst: u64, vc: u8) -> Option<u64> {
        let (c, d) = (self.to_inner.get(current)?, self.to_inner.get(dst)?);
        self.inner
            .next_hop_on_vc(c, d, vc)
            .and_then(|v| self.from_inner.get(v))
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        let (Some(c), Some(d)) = (self.to_inner.get(current), self.to_inner.get(dst)) else {
            return RankedCandidates::new();
        };
        self.inner
            .ranked_candidates(c, d)
            .iter()
            .filter_map(|&(dist, v)| Some((dist, self.from_inner.get(v)?)))
            .collect()
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        let (c, d) = (self.to_inner.get(src)?, self.to_inner.get(dst)?);
        self.inner.distance(c, d)
    }

    fn hops_are_stateless(&self) -> bool {
        self.inner.hops_are_stateless()
    }

    fn as_repair(&self) -> Option<&dyn crate::dynamic::RouteRepair> {
        // Only a repairable inner makes the relabeled wrap repairable.
        self.inner
            .as_repair()
            .map(|_| self as &dyn crate::dynamic::RouteRepair)
    }
}

/// Repair forwarded through the isomorphism witness: kill/revive
/// events arrive in *outer* (H) numbering and are translated so the
/// repair executes in *inner* (de Bruijn rank) space — where the
/// next-hop table keeps its arithmetic-grade CSR compression. The
/// published snapshot comes back wrapped in the same witness, so
/// engine workers still query in outer numbering.
impl<R: Router> crate::dynamic::RouteRepair for RelabeledRouter<R> {
    fn apply_link_event_deferred(
        &self,
        from: u64,
        to: u64,
        alive: bool,
    ) -> otis_digraph::repair::RepairStats {
        let Some(repair) = self.inner.as_repair() else {
            return otis_digraph::repair::RepairStats::default();
        };
        let (Some(f), Some(t)) = (self.to_inner.get(from), self.to_inner.get(to)) else {
            return otis_digraph::repair::RepairStats::default();
        };
        repair.apply_link_event_deferred(f, t, alive)
    }

    fn publish_deferred(&self) {
        if let Some(repair) = self.inner.as_repair() {
            repair.publish_deferred();
        }
    }

    fn repair_table_runs(&self) -> usize {
        self.inner
            .as_repair()
            .map_or(0, |repair| repair.repair_table_runs())
    }

    fn snapshot_epoch(&self) -> u64 {
        self.inner
            .as_repair()
            .map_or(0, |repair| repair.snapshot_epoch())
    }

    fn published_snapshot(&self) -> Option<crate::dynamic::RouteSnapshot> {
        self.inner
            .as_repair()?
            .published_snapshot()?
            .relabeled(self.to_inner.clone(), self.from_inner.clone())
    }
}

// ----- dateline virtual-channel classes --------------------------------------

/// The dateline virtual-channel discipline shared by the queueing
/// engine (`otis_optics::traffic::queueing`) and [`AdaptiveRouter`]:
/// every directed link carries `classes` virtual channels, a packet is
/// injected on class 0, and each hop that crosses the *dateline* —
/// the wrap arcs of the fabric's cycle decomposition, computed as a
/// feedback arc set ([`otis_digraph::feedback::feedback_arcs`]) —
/// promotes the packet to the next class, saturating at the top.
///
/// Why this breaks deadlocks: by construction every directed cycle of
/// the fabric (the rings of the de Bruijn/Kautz cycle decompositions
/// included) contains at least one wrap arc, so the non-wrap arcs
/// form an acyclic subgraph. A cycle of channel dependencies confined
/// to one class would have to use non-wrap arcs only — impossible
/// below the top class, because a wrap hop leaves the class, and
/// impossible over non-wrap arcs at any class, because they carry a
/// topological order. The one dependency the order does not cover is
/// a *top-class* packet crossing the dateline again; the queueing
/// engine closes that last gap by never letting exactly that move
/// block ([`Dateline::needs_relief`] — the classical "deep dateline
/// buffer" escape valve), making the whole dependency graph acyclic
/// for any router and any `classes ≥ 2`. Routes that wrap `k` times
/// never need relief once `classes > k`; a ring route wraps at most
/// once, so 2 classes cover every pure ring with the valve shut.
#[derive(Debug, Clone)]
pub struct Dateline {
    classes: u8,
    g: std::sync::Arc<Digraph>,
    /// `wrap[arc]` — true iff the `arc`-th arc crosses the dateline.
    /// Computed at construction when there are two or more classes. A
    /// single-class dateline never promotes, so it computes the set
    /// only when asked ([`Dateline::crosses_arc`] and friends).
    wrap: std::sync::OnceLock<std::sync::Arc<[bool]>>,
}

impl Dateline {
    /// The dateline discipline over a fabric, with `classes` virtual
    /// channels per link. `classes = 1` is the degenerate
    /// single-channel fabric (every packet stays on class 0 — and
    /// cyclic fabrics keep their backpressure deadlocks).
    pub fn new(g: std::sync::Arc<Digraph>, classes: usize) -> Self {
        assert!(
            (1..=u8::MAX as usize).contains(&classes),
            "need 1..=255 virtual channel classes, got {classes}"
        );
        let dateline = Dateline {
            classes: classes as u8,
            g,
            wrap: std::sync::OnceLock::new(),
        };
        if classes >= 2 {
            dateline.wrap();
        }
        dateline
    }

    /// The wrap set, a feedback arc set of the fabric, computed on
    /// first use.
    #[inline]
    fn wrap(&self) -> &[bool] {
        self.wrap
            .get_or_init(|| otis_digraph::feedback::feedback_arcs(&self.g).into())
    }

    /// Number of virtual channel classes per link.
    pub fn classes(&self) -> usize {
        self.classes as usize
    }

    /// How many arcs of the fabric cross the dateline.
    pub fn wrap_arc_count(&self) -> usize {
        self.wrap().iter().filter(|&&wrap| wrap).count()
    }

    /// True iff the `arc`-th arc (arc order of the fabric digraph)
    /// crosses the dateline.
    #[inline]
    pub fn crosses_arc(&self, arc: usize) -> bool {
        self.wrap()[arc]
    }

    /// True iff the hop `from → to` crosses the dateline; `false` for
    /// links the fabric does not have (off-fabric endpoints included).
    pub fn crosses(&self, from: u64, to: u64) -> bool {
        let n = self.g.node_count() as u64;
        if from >= n || to >= n {
            return false;
        }
        self.g
            .arc_between(from as u32, to as u32)
            .is_some_and(|arc| self.wrap()[arc])
    }

    /// The class a packet on class `vc` occupies after taking the
    /// `arc`-th arc: promoted past each dateline crossing, saturating
    /// at the top class. Always class 0 with a single class, which
    /// never reads the wrap set.
    #[inline]
    pub fn next_class_arc(&self, vc: u8, arc: usize) -> u8 {
        if self.classes == 1 {
            0
        } else if self.wrap()[arc] {
            (vc + 1).min(self.classes - 1)
        } else {
            vc
        }
    }

    /// As [`Dateline::next_class_arc`] by endpoints.
    pub fn next_class(&self, vc: u8, from: u64, to: u64) -> u8 {
        if self.classes == 1 {
            0
        } else if self.crosses(from, to) {
            (vc + 1).min(self.classes - 1)
        } else {
            vc
        }
    }

    /// True iff a packet on class `vc` taking the `arc`-th arc is the
    /// one dependency the class order cannot rank: a top-class packet
    /// wrapping again. The queueing engine admits exactly this move
    /// past a full FIFO (deep dateline buffers), which is what makes
    /// the channel-dependency graph acyclic outright. Never true with
    /// a single class, where the engine keeps its legacy
    /// detect-and-report behavior.
    #[inline]
    pub fn needs_relief(&self, vc: u8, arc: usize) -> bool {
        self.classes >= 2 && vc == self.classes - 1 && self.wrap()[arc]
    }
}

// ----- contention-aware adaptive routing -------------------------------------

/// A live view of per-link congestion: how many packets are queued on
/// the directed link `from → to` right now.
///
/// The queueing engine (`otis_optics::traffic::queueing`) publishes
/// its buffer occupancy through this trait so an [`AdaptiveRouter`]
/// can steer around hot links without the router layer knowing
/// anything about buffers or wavelengths. Implementations must be
/// `Sync`; the engine mutates occupancy through atomics while routers
/// read it.
pub trait CongestionMap: Sync {
    /// Packets currently queued on the link `from → to`; `0` for
    /// unknown links (an unknown link is an uncongested link).
    fn queued(&self, from: u64, to: u64) -> usize;

    /// Packets currently queued on virtual channel class `vc` of the
    /// link `from → to`. Maps without per-VC resolution report the
    /// whole link (the conservative default); the queueing engine's
    /// occupancy view resolves individual classes so a
    /// dateline-aware [`AdaptiveRouter`] scores only the FIFO the
    /// packet would actually join.
    fn queued_vc(&self, from: u64, to: u64, vc: u8) -> usize {
        let _ = vc;
        self.queued(from, to)
    }
}

impl<C: CongestionMap + ?Sized> CongestionMap for &C {
    fn queued(&self, from: u64, to: u64) -> usize {
        (**self).queued(from, to)
    }

    fn queued_vc(&self, from: u64, to: u64, vc: u8) -> usize {
        (**self).queued_vc(from, to, vc)
    }
}

impl<C: CongestionMap + Send + Sync + ?Sized> CongestionMap for std::sync::Arc<C> {
    fn queued(&self, from: u64, to: u64) -> usize {
        (**self).queued(from, to)
    }

    fn queued_vc(&self, from: u64, to: u64, vc: u8) -> usize {
        (**self).queued_vc(from, to, vc)
    }
}

/// A congestion-free [`CongestionMap`]: under it, [`AdaptiveRouter`]
/// degrades to its inner router's shortest-path choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCongestion;

impl CongestionMap for NoCongestion {
    fn queued(&self, _from: u64, _to: u64) -> usize {
        0
    }
}

/// Contention-aware adaptive router: picks the least-queued of the
/// inner router's `≤ d` candidate next hops ([`Router::candidates`]),
/// weighing queue depth against path stretch.
///
/// The decision rule is UGAL-flavored: candidate `v` scores
/// `queued(current → v) + penalty · (dist(v, dst) − dist_min)`, and
/// the lowest score wins (ties go to the shorter, earlier candidate).
/// With empty queues every choice is a shortest-path hop; a packet
/// deroutes onto a longer path only when the shortest candidate's
/// queue is at least `penalty` packets deeper per extra hop — so
/// adaptivity cannot livelock under light load, and under heavy load
/// the engine's TTL bounds any wandering.
#[derive(Debug, Clone)]
pub struct AdaptiveRouter<R: Router, C: CongestionMap> {
    inner: R,
    congestion: C,
    deroute_penalty: usize,
    /// When set, candidate links are scored by the occupancy of the
    /// *virtual channel class* the packet would join on each
    /// ([`Dateline::next_class`]) instead of the whole link — so a
    /// deep queue of promoted packets on one class does not scare
    /// traffic off a link whose other classes are empty. `Arc`-shared
    /// with the engine that computed the wrap set, so building one
    /// adaptive router per sweep point copies a pointer, not the set.
    dateline: Option<Arc<Dateline>>,
}

impl<R: Router, C: CongestionMap> AdaptiveRouter<R, C> {
    /// Queue-depth advantage (packets per extra hop) required before a
    /// packet leaves a shortest path.
    pub const DEFAULT_DEROUTE_PENALTY: usize = 4;

    /// Adaptive routing over `inner`'s candidates, steered by live
    /// congestion from `congestion`.
    pub fn new(inner: R, congestion: C) -> Self {
        Self::with_penalty(inner, congestion, Self::DEFAULT_DEROUTE_PENALTY)
    }

    /// As [`AdaptiveRouter::new`] with an explicit deroute penalty
    /// (`0` = pure least-queued, large = effectively oblivious).
    ///
    /// Caution at `0`: with no stretch penalty and a congestion map
    /// that never relaxes, `next_hop` can oscillate between two
    /// equally-queued neighbors, so walking it to completion
    /// ([`Router::route`], `OtisSimulator::send_via`) may hit the loop
    /// guard and report no route even though [`Router::distance`]
    /// (congestion-free shortest) is `Some`. The queueing engine is
    /// immune — its hop budget retires wanderers as `dropped_ttl` —
    /// but path-walking callers should keep the penalty positive.
    pub fn with_penalty(inner: R, congestion: C, deroute_penalty: usize) -> Self {
        AdaptiveRouter {
            inner,
            congestion,
            deroute_penalty,
            dateline: None,
        }
    }

    /// Score candidates per virtual channel class under `dateline`
    /// instead of per whole link: each candidate hop is charged only
    /// the occupancy of the VC FIFO the packet would join there (its
    /// current class, promoted if the hop crosses the dateline). Takes
    /// the engine's shared handle (`QueueingEngine::dateline`), so no
    /// wrap set is copied however many routers a sweep builds.
    pub fn with_dateline(mut self, dateline: Arc<Dateline>) -> Self {
        self.dateline = Some(dateline);
        self
    }

    /// The wrapped oblivious router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The congestion charged to the hop `current → v` for a packet on
    /// class `vc`: the target VC FIFO when a dateline is configured,
    /// the whole link otherwise.
    fn hop_congestion(&self, current: u64, v: u64, vc: u8) -> usize {
        match &self.dateline {
            Some(dateline) => {
                self.congestion
                    .queued_vc(current, v, dateline.next_class(vc, current, v))
            }
            None => self.congestion.queued(current, v),
        }
    }
}

impl<R: Router, C: CongestionMap> Router for AdaptiveRouter<R, C> {
    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn name(&self) -> String {
        format!("adaptive({})", self.inner.name())
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.next_hop_on_vc(current, dst, 0)
    }

    fn next_hop_on_vc(&self, current: u64, dst: u64, vc: u8) -> Option<u64> {
        let ranked = self.inner.ranked_candidates(current, dst);
        if ranked.len() == 1 {
            // No choice to make — skip the scoring.
            return ranked.first().map(|&(_, v)| v);
        }
        // Ranked ascending, so the first entry holds the minimum
        // remaining distance.
        let &(dist_min, _) = ranked.first()?;
        ranked
            .iter()
            .min_by_key(|&&(dist, v)| {
                let stretch = (dist - dist_min).min(usize::MAX as u64) as usize;
                self.hop_congestion(current, v, vc)
                    .saturating_add(self.deroute_penalty.saturating_mul(stretch))
            })
            .map(|&(_, v)| v)
    }

    fn candidates(&self, current: u64, dst: u64) -> Candidates {
        self.inner.candidates(current, dst)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        self.inner.ranked_candidates(current, dst)
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        // The congestion-free shortest distance: what the packet would
        // take on an idle fabric (deroutes can stretch actual walks).
        self.inner.distance(src, dst)
    }

    fn hops_are_stateless(&self) -> bool {
        // Decisions read the live congestion map: the same query can
        // answer differently as queues shift, so engines must not
        // cache.
        false
    }

    fn as_repair(&self) -> Option<&dyn crate::dynamic::RouteRepair> {
        // Adaptivity composes with online repair: the wrapped router
        // (a DynamicRoutingTable, say) keeps its tables current while
        // this layer steers by congestion.
        self.inner.as_repair()
    }
}

// ----- per-packet BFS baseline ----------------------------------------------

/// The no-precomputation baseline: one reverse-BFS **per route call**
/// (exactly what `OtisSimulator::send_shortest` historically did per
/// packet). Correct everywhere, catastrophically slower than
/// [`RoutingTable`] on batches — which is the point of benchmarking it.
#[derive(Debug, Clone)]
pub struct BfsRouter {
    g: Digraph,
    rev: Digraph,
}

impl BfsRouter {
    pub fn new(g: &Digraph) -> Self {
        BfsRouter {
            g: g.clone(),
            rev: otis_digraph::ops::reverse(g),
        }
    }

    /// The digraph routed over.
    pub fn digraph(&self) -> &Digraph {
        &self.g
    }
}

impl Router for BfsRouter {
    fn node_count(&self) -> u64 {
        self.g.node_count() as u64
    }

    fn name(&self) -> String {
        format!("per-packet-bfs({} nodes)", self.g.node_count())
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        if current == dst {
            return None;
        }
        let dist_to_dst = otis_digraph::bfs::distances(&self.rev, dst as u32);
        let here = dist_to_dst[current as usize];
        if here == INFINITY {
            return None;
        }
        self.g
            .out_neighbors(current as u32)
            .iter()
            .find(|&&v| dist_to_dst[v as usize] == here - 1)
            .map(|&v| v as u64)
    }

    fn route(&self, src: u64, dst: u64) -> Option<Vec<u64>> {
        // One BFS for the whole packet, then a pure table walk.
        let dist_to_dst = otis_digraph::bfs::distances(&self.rev, dst as u32);
        if dist_to_dst[src as usize] == INFINITY {
            return None;
        }
        let mut path = Vec::with_capacity(dist_to_dst[src as usize] as usize + 1);
        let mut current = src as u32;
        path.push(src);
        while current != dst as u32 {
            let here = dist_to_dst[current as usize];
            current = *self
                .g
                .out_neighbors(current)
                .iter()
                .find(|&&v| dist_to_dst[v as usize] == here - 1)
                .expect("finite distance implies a descending neighbor");
            path.push(current as u64);
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_digraph::bfs;

    fn assert_agrees_with_bfs(router: &dyn Router, g: &Digraph) {
        let n = g.node_count();
        assert_eq!(router.node_count(), n as u64);
        for src in 0..n as u32 {
            let dist = bfs::distances(g, src);
            for dst in 0..n as u32 {
                let expected = dist[dst as usize];
                match router.route(src as u64, dst as u64) {
                    None => assert_eq!(expected, INFINITY, "{src}->{dst} should be routable"),
                    Some(path) => {
                        assert_eq!(path.len() as u32 - 1, expected, "{src}->{dst} length");
                        assert_eq!(path[0], src as u64);
                        assert_eq!(*path.last().unwrap(), dst as u64);
                        for pair in path.windows(2) {
                            assert!(
                                g.has_arc(pair[0] as u32, pair[1] as u32),
                                "invalid hop {} -> {}",
                                pair[0],
                                pair[1]
                            );
                        }
                    }
                }
                assert_eq!(
                    router.distance(src as u64, dst as u64),
                    (expected != INFINITY).then_some(expected as u64)
                );
            }
        }
    }

    #[test]
    fn debruijn_router_exhaustive() {
        for (d, dim) in [(2u32, 4u32), (3, 3), (4, 2)] {
            let b = DeBruijn::new(d, dim);
            let g = b.digraph();
            assert_agrees_with_bfs(&DeBruijnRouter::new(b), &g);
        }
    }

    #[test]
    fn kautz_router_exhaustive() {
        for (d, dim) in [(2u32, 3u32), (3, 2)] {
            let k = Kautz::new(d, dim);
            let g = k.digraph();
            assert_agrees_with_bfs(&KautzRouter::new(k), &g);
        }
    }

    #[test]
    fn table_router_exhaustive_on_families() {
        let b = DeBruijn::new(2, 5);
        assert_agrees_with_bfs(&RoutingTable::from_family(&b), &b.digraph());
        let k = Kautz::new(2, 3);
        assert_agrees_with_bfs(&RoutingTable::from_family(&k), &k.digraph());
    }

    #[test]
    fn bfs_router_exhaustive() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        assert_agrees_with_bfs(&BfsRouter::new(&g), &g);
    }

    #[test]
    fn routers_agree_with_each_other() {
        let b = DeBruijn::new(3, 3);
        let g = b.digraph();
        let arithmetic = DeBruijnRouter::new(b);
        let table = RoutingTable::new(&g);
        let baseline = BfsRouter::new(&g);
        for src in 0..g.node_count() as u64 {
            for dst in 0..g.node_count() as u64 {
                let expected = arithmetic.distance(src, dst);
                assert_eq!(table.distance(src, dst), expected);
                assert_eq!(baseline.distance(src, dst), expected);
            }
        }
    }

    #[test]
    fn table_router_handles_disconnection() {
        let g = Digraph::from_fn(4, |u| if u < 2 { vec![(u + 1) % 2] } else { vec![] });
        let table = RoutingTable::new(&g);
        assert_eq!(table.route(0, 1), Some(vec![0, 1]));
        assert_eq!(table.route(2, 0), None);
        assert_eq!(table.distance(2, 0), None);
        assert_eq!(table.route(3, 3), Some(vec![3]));
        // candidates mirror next_hop: present iff a route exists.
        assert!(table.candidates(2, 0).is_empty());
        assert_eq!(table.candidates(0, 1).as_slice(), &[1]);
    }

    #[test]
    fn table_boundary_dense_below_compressed_above_error_past_both() {
        // Below the dense cap: dense backing, as before.
        let small = RoutingTable::try_new(&Digraph::from_fn(3, |u| [(u + 1) % 3])).unwrap();
        assert!(!small.is_compressed());
        assert!(small.name().starts_with("table("));
        // Just past the dense cap — the size that used to be a hard
        // error — now builds on the compressed backing. (Arc-free so
        // the build stays test-cheap; compressed-table *correctness*
        // on real fabrics is pinned by the tests around this one and
        // in otis-digraph.)
        let past_dense = Digraph::empty(NextHopTable::MAX_NODES + 1);
        let table = RoutingTable::try_new(&past_dense).unwrap();
        assert!(table.is_compressed());
        assert!(table.name().starts_with("compressed-table("));
        assert_eq!(table.next_hop(0, 1), None);
        assert_eq!(table.distance(0, 0), Some(0));
        // Past the compressed cap too: still a fast, descriptive error
        // — and the family path must reject BEFORE materializing (a
        // 2^24-node de Bruijn would cost ~130 MB of adjacency just to
        // fail), so this only passes quickly if the guard precedes
        // digraph().
        let start = std::time::Instant::now();
        let err = RoutingTable::try_from_family(&DeBruijn::new(2, 24)).unwrap_err();
        assert_eq!(err.nodes, 1 << 24);
        assert_eq!(
            err.cap,
            otis_digraph::compressed::CompressedNextHopTable::MAX_NODES
        );
        let message = err.to_string();
        assert!(message.contains("arithmetic"), "{message}");
        assert!(
            start.elapsed().as_millis() < 500,
            "cap check materialized the digraph first"
        );
        // The dense builder's own refusal now points at the compressed
        // alternative.
        let dense_err = NextHopTable::try_build(&past_dense).unwrap_err();
        assert_eq!(dense_err.cap, NextHopTable::MAX_NODES);
        assert!(
            dense_err.to_string().contains("interval-compressed"),
            "{dense_err}"
        );
    }

    #[test]
    fn compressed_cap_sits_exactly_at_the_million_node_fabric() {
        use otis_digraph::compressed::CompressedNextHopTable;
        // The cap is not an arbitrary power of two: it is B(2,20),
        // the paper's million-node decade. At the cap the build
        // succeeds; one node past it the error points at the
        // arithmetic routers.
        assert_eq!(
            DeBruijn::new(2, 20).node_count(),
            CompressedNextHopTable::MAX_NODES as u64
        );
        // At-cap *success* is pinned by the release-only test below
        // (even an arc-free 2^20-source BFS build takes minutes
        // unoptimized — the per-chunk scratch is O(n), so a debug
        // at-cap build here would dominate the whole suite). This
        // test pins the refusals around the boundary.
        let err = CompressedNextHopTable::try_build(&Digraph::empty(
            CompressedNextHopTable::MAX_NODES + 1,
        ))
        .unwrap_err();
        assert_eq!(err.nodes, (1 << 20) + 1);
        assert_eq!(err.cap, CompressedNextHopTable::MAX_NODES);
        assert!(err.to_string().contains("arithmetic"), "{err}");
    }

    #[test]
    #[ignore = "builds the full million-node compressed table; run in release (CI does)"]
    fn compressed_table_builds_at_cap_for_b_2_20() {
        // The real thing: B(2,20)'s 1,048,576 sources through the
        // arithmetic run builder, cross-checked against the
        // arithmetic router it compresses. Debug-mode this takes
        // minutes, so it is ignored by default and run by CI's
        // release pass.
        let b = DeBruijn::new(2, 20);
        let table = RoutingTable::try_from_debruijn(&b).expect("at-cap build must succeed");
        assert!(table.is_compressed());
        let arithmetic = DeBruijnRouter::new(b);
        let n = b.node_count();
        for (src, dst) in [
            (0u64, 1u64),
            (1, 0),
            (123_456, 987_654),
            (n - 1, 0),
            (n / 2, n - 1),
            (0xFEDCB, 0xABCDE),
        ] {
            assert_eq!(
                table.next_hop(src, dst),
                arithmetic.next_hop(src, dst),
                "hop {src}->{dst}"
            );
            assert_eq!(
                table.distance(src, dst),
                arithmetic.distance(src, dst),
                "dist {src}->{dst}"
            );
        }
    }

    #[test]
    fn debruijn_compressed_table_matches_dense_and_arithmetic() {
        // The arithmetic run builder must answer every query exactly
        // like the BFS-built dense table (both pick the unique
        // descending neighbor) — hops, distances, and candidates.
        for (d, dim) in [(2u32, 5u32), (3, 3), (4, 2)] {
            let b = DeBruijn::new(d, dim);
            let dense = RoutingTable::from_family(&b);
            let compressed = RoutingTable::from_debruijn(&b);
            assert!(compressed.is_compressed());
            let arithmetic = DeBruijnRouter::new(b);
            let n = b.node_count();
            for src in 0..n {
                for dst in 0..n {
                    assert_eq!(
                        compressed.next_hop(src, dst),
                        dense.next_hop(src, dst),
                        "B({d},{dim}) hop {src}->{dst}"
                    );
                    assert_eq!(
                        compressed.next_hop(src, dst),
                        arithmetic.next_hop(src, dst),
                        "B({d},{dim}) arithmetic hop {src}->{dst}"
                    );
                    assert_eq!(
                        compressed.distance(src, dst),
                        dense.distance(src, dst),
                        "B({d},{dim}) dist {src}->{dst}"
                    );
                    assert_eq!(
                        compressed.ranked_candidates(src, dst).as_slice(),
                        dense.ranked_candidates(src, dst).as_slice(),
                        "B({d},{dim}) candidates {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn relabeled_router_routes_the_outer_fabric() {
        // Relabel B(2,4) by the bit-reversal permutation of its ranks
        // — a nontrivial automorphism-free relabeling — and check the
        // relabeled router is a correct router for the relabeled
        // digraph.
        let b = DeBruijn::new(2, 4);
        let n = b.node_count() as u32;
        let reverse = |u: u32| (0..4).fold(0u32, |acc, i| acc | (((u >> i) & 1) << (3 - i)));
        let witness: Vec<u32> = (0..n).map(reverse).collect();
        // Outer digraph: relabel the inner one through the inverse.
        let inner_g = b.digraph();
        let outer_g = Digraph::from_fn(n as usize, |outer| {
            inner_g
                .out_neighbors(witness[outer as usize])
                .iter()
                .map(|&v| reverse(v))
                .collect::<Vec<_>>()
        });
        let relabeled = RelabeledRouter::new(DeBruijnRouter::new(b), witness);
        assert!(relabeled.hops_are_stateless());
        assert!(relabeled.name().starts_with("relabeled("));
        assert_agrees_with_bfs(&relabeled, &outer_g);
        assert_candidates_contract(&relabeled, &outer_g);
        // Off-fabric queries answer None instead of panicking.
        assert_eq!(relabeled.next_hop(0, 99), None);
        assert_eq!(relabeled.next_hop(99, 0), None);
    }

    #[test]
    fn relabeled_router_forwards_repair_through_the_witness() {
        // Same bit-reversal fixture, but the inner router is the
        // repairable table — events arrive in outer numbering, repair
        // executes in rank space, and the published snapshot answers
        // back in outer numbering.
        let b = DeBruijn::new(2, 4);
        let n = b.node_count() as u32;
        let reverse = |u: u32| (0..4).fold(0u32, |acc, i| acc | (((u >> i) & 1) << (3 - i)));
        let witness: Vec<u32> = (0..n).map(reverse).collect();
        let inner_g = b.digraph();
        let outer_g = Digraph::from_fn(n as usize, |outer| {
            inner_g
                .out_neighbors(witness[outer as usize])
                .iter()
                .map(|&v| reverse(v))
                .collect::<Vec<_>>()
        });
        let relabeled =
            RelabeledRouter::new(crate::DynamicRoutingTable::new(&inner_g), witness.clone());
        // A static inner offers no repair; the repairable one does.
        assert!(
            RelabeledRouter::new(RoutingTable::new(&inner_g), witness.clone())
                .as_repair()
                .is_none()
        );
        let repair = relabeled.as_repair().expect("repairable inner");
        assert_eq!(repair.repair_table_runs(), {
            let plain = crate::DynamicRoutingTable::new(&inner_g);
            plain.as_repair().unwrap().repair_table_runs()
        });

        // Kill an outer link; the inner table must lose the translated
        // rank-space arc, and outer queries must route around it.
        let (outer_from, outer_to) = (0..n as u64)
            .flat_map(|u| {
                outer_g
                    .out_neighbors(u as u32)
                    .iter()
                    .map(|&v| (u, v as u64))
                    .collect::<Vec<_>>()
            })
            .find(|&(u, v)| u != v && relabeled.next_hop(u, v) == Some(v))
            .expect("some directly-routed outer link");
        let before_epoch = repair.snapshot_epoch();
        let stats = repair.apply_link_event(outer_from, outer_to, false);
        assert!(stats.rows_patched > 0, "a used link must patch rows");
        assert!(repair.snapshot_epoch() > before_epoch);
        assert_ne!(relabeled.next_hop(outer_from, outer_to), Some(outer_to));
        // The relabeled snapshot agrees with the locked path on every
        // outer pair, and bounds off-fabric endpoints.
        let snap = repair.published_snapshot().expect("published");
        assert_eq!(snap.epoch(), repair.snapshot_epoch());
        for src in 0..n as u64 {
            for dst in 0..n as u64 {
                assert_eq!(
                    snap.next_hop(src, dst),
                    relabeled.next_hop(src, dst),
                    "{src}->{dst}"
                );
            }
        }
        assert_eq!(snap.next_hop(n as u64, 0), None);
        // Off-fabric events are a costless no-op, not a panic.
        assert_eq!(
            repair.apply_link_event(999, 0, false),
            otis_digraph::repair::RepairStats::default()
        );
        // Revive restores the original answers.
        repair.apply_link_event(outer_from, outer_to, true);
        assert_eq!(relabeled.next_hop(outer_from, outer_to), Some(outer_to));
    }

    #[test]
    fn relabeled_router_with_a_witness_that_does_not_factor() {
        // A pseudo-random relabeling of B(2,9): 512 nodes, past one
        // byte, so the witness keeps its table. The router and its
        // published snapshot must answer every pair exactly as
        // explicit array lookups around the inner table do, before
        // and after a repair.
        use rand::seq::SliceRandom as _;
        use rand::SeedableRng as _;
        let b = DeBruijn::new(2, 9);
        let n = b.node_count() as u32;
        let mut witness: Vec<u32> = (0..n).collect();
        witness.shuffle(&mut rand::rngs::StdRng::seed_from_u64(0x0715));
        let inverse = crate::iso::invert_witness(&witness);
        assert_eq!(WitnessMap::new(&witness).chunk_count(), 1);
        assert_eq!(WitnessMap::new(&inverse).chunk_count(), 1);
        let inner = crate::DynamicRoutingTable::new(&b.digraph());
        let relabeled = RelabeledRouter::new(
            crate::DynamicRoutingTable::new(&b.digraph()),
            witness.clone(),
        );
        let repair = relabeled.as_repair().expect("repairable inner");
        let check = |stage: &str| {
            let snap = repair.published_snapshot().expect("published");
            for u in 0..n {
                for dst in 0..n {
                    let expected = inner
                        .next_hop(witness[u as usize].into(), witness[dst as usize].into())
                        .map(|v| u64::from(inverse[v as usize]));
                    let (u, dst) = (u64::from(u), u64::from(dst));
                    assert_eq!(relabeled.next_hop(u, dst), expected, "{stage} {u}->{dst}");
                    assert_eq!(
                        snap.next_hop(u, dst),
                        expected,
                        "{stage} snapshot {u}->{dst}"
                    );
                }
            }
            assert_eq!(relabeled.next_hop(u64::from(n), 0), None);
            assert_eq!(snap.next_hop(0, u64::from(n)), None);
        };
        check("fresh");
        // Kill the inner arc 1 → 2 on both sides, in outer numbering
        // through the relabeled router.
        use crate::dynamic::RouteRepair as _;
        assert!(inner.apply_link_event(1, 2, false).rows_patched > 0);
        let stats = repair.apply_link_event(u64::from(inverse[1]), u64::from(inverse[2]), false);
        assert!(stats.rows_patched > 0);
        check("repaired");
    }

    #[test]
    fn kautz_takes_the_bfs_path_and_matches_the_dense_table() {
        use otis_digraph::compressed::ShiftDigraph;
        for (d, dim) in [(2u32, 3u32), (3, 2)] {
            let g = Kautz::new(d, dim).digraph();
            assert_eq!(ShiftDigraph::detect(&g), None, "K({d},{dim})");
            let compressed = CompressedNextHopTable::build(&g);
            let dense = NextHopTable::build(&g);
            for u in 0..g.node_count() as u32 {
                for dst in 0..g.node_count() as u32 {
                    assert_eq!(compressed.next_hop(u, dst), dense.next_hop(u, dst));
                    assert_eq!(compressed.distance(u, dst), dense.distance(u, dst));
                }
            }
        }
    }

    /// The candidates contract, checked for one router against its
    /// digraph: real arcs, reachable, sorted by remaining distance,
    /// first entry a shortest-path hop, empty iff next_hop is None.
    fn assert_candidates_contract(router: &dyn Router, g: &Digraph) {
        for src in 0..g.node_count() as u64 {
            for dst in 0..g.node_count() as u64 {
                let candidates = router.candidates(src, dst);
                assert_eq!(
                    candidates.is_empty(),
                    router.next_hop(src, dst).is_none(),
                    "{src}->{dst}"
                );
                let mut previous = None;
                for &v in &candidates {
                    assert!(g.has_arc(src as u32, v as u32), "{src}->{dst} via {v}");
                    let left = router.distance(v, dst).expect("candidates reach dst");
                    if let Some(prev) = previous {
                        assert!(prev <= left, "{src}->{dst}: candidates out of order");
                    }
                    previous = Some(left);
                }
                if let Some(&first) = candidates.first() {
                    let dist = router.distance(src, dst).unwrap();
                    assert_eq!(
                        router.distance(first, dst).unwrap(),
                        dist - 1,
                        "{src}->{dst}: first candidate must be a shortest-path hop"
                    );
                }
                // ranked_candidates must agree with candidates, and
                // carry the true remaining distances.
                let ranked = router.ranked_candidates(src, dst);
                assert_eq!(ranked.len(), candidates.len(), "{src}->{dst}");
                for (&(dist, v), &c) in ranked.iter().zip(candidates.iter()) {
                    assert_eq!(v, c, "{src}->{dst}: ranked/plain order differs");
                    assert_eq!(router.distance(v, dst), Some(dist), "{src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn candidates_contract_on_every_router() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        assert_candidates_contract(&DeBruijnRouter::new(b), &g);
        assert_candidates_contract(&RoutingTable::new(&g), &g);
        // BfsRouter keeps the default singleton candidates.
        assert_candidates_contract(&BfsRouter::new(&g), &g);

        let k = Kautz::new(2, 3);
        let kg = k.digraph();
        assert_candidates_contract(&KautzRouter::new(k), &kg);
        assert_candidates_contract(&RoutingTable::new(&kg), &kg);
    }

    #[test]
    fn candidates_expose_every_usable_neighbor() {
        // In B(3,3), a node with 3 distinct non-loop out-neighbors
        // must offer all of them (sorted by distance) — the spread an
        // adaptive router needs.
        let b = DeBruijn::new(3, 3);
        let router = DeBruijnRouter::new(b);
        let candidates = router.candidates(1, 22);
        assert_eq!(candidates.len(), 3, "{:?}", candidates.as_slice());
    }

    /// A congestion map for tests: explicit per-link queue depths.
    struct FixedCongestion(Vec<((u64, u64), usize)>);

    impl CongestionMap for FixedCongestion {
        fn queued(&self, from: u64, to: u64) -> usize {
            self.0
                .iter()
                .find(|&&(link, _)| link == (from, to))
                .map_or(0, |&(_, depth)| depth)
        }
    }

    #[test]
    fn adaptive_router_idle_matches_shortest_paths() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        let adaptive = AdaptiveRouter::new(DeBruijnRouter::new(b), NoCongestion);
        // On an idle fabric the adaptive walk is exactly as short as
        // the oblivious one, pair by pair.
        assert_agrees_with_bfs(&adaptive, &g);
    }

    #[test]
    fn adaptive_router_steers_around_a_queued_link() {
        // B(3,3): node 1 has three usable neighbors toward dst 22
        // (= shortest via one of them). Pile queue onto the shortest
        // link and the router must deroute onto an alternative.
        let b = DeBruijn::new(3, 3);
        let router = DeBruijnRouter::new(b);
        let shortest = router.next_hop(1, 22).unwrap();
        let penalty = 4;
        let congested = AdaptiveRouter::with_penalty(
            DeBruijnRouter::new(DeBruijn::new(3, 3)),
            FixedCongestion(vec![((1, shortest), 100)]),
            penalty,
        );
        let chosen = congested.next_hop(1, 22).unwrap();
        assert_ne!(chosen, shortest, "100-deep queue must force a deroute");
        // A queue shallower than the penalty never forces one.
        let patient = AdaptiveRouter::with_penalty(
            DeBruijnRouter::new(DeBruijn::new(3, 3)),
            FixedCongestion(vec![((1, shortest), penalty - 1)]),
            penalty,
        );
        assert_eq!(patient.next_hop(1, 22), Some(shortest));
    }

    #[test]
    fn dateline_promotes_on_wrap_and_saturates() {
        // On the directed ring C_6 the dateline is the single wrap
        // arc 5→0 the DFS finds.
        let ring = std::sync::Arc::new(Digraph::from_fn(6, |u| [(u + 1) % 6]));
        let dateline = Dateline::new(std::sync::Arc::clone(&ring), 3);
        assert_eq!(dateline.classes(), 3);
        assert_eq!(dateline.wrap_arc_count(), 1);
        assert!(dateline.crosses(5, 0));
        assert!(!dateline.crosses(3, 4));
        assert!(!dateline.crosses(0, 5), "absent links never cross");
        assert!(!dateline.crosses(99, 0), "off-fabric sources never cross");
        assert_eq!(dateline.next_class(0, 3, 4), 0);
        assert_eq!(dateline.next_class(0, 5, 0), 1);
        assert_eq!(dateline.next_class(2, 5, 0), 2, "saturates at the top");
        // A ring walk 3→4→5→0→1 wraps exactly once: one promotion.
        let two = Dateline::new(ring, 2);
        let mut vc = 0;
        for (from, to) in [(3u64, 4u64), (4, 5), (5, 0), (0, 1)] {
            vc = two.next_class(vc, from, to);
        }
        assert_eq!(vc, 1);
        // Relief is exactly the top-class wrap: class 1 of 2 crossing
        // arc 5 (the wrap); never any other arc, class, or a
        // single-class fabric.
        assert!(two.needs_relief(1, 5));
        assert!(!two.needs_relief(0, 5));
        assert!(!two.needs_relief(1, 4));
        let one = Dateline::new(
            std::sync::Arc::new(Digraph::from_fn(6, |u| [(u + 1) % 6])),
            1,
        );
        assert!(!one.needs_relief(0, 5));
    }

    #[test]
    fn single_class_dateline_never_promotes_and_computes_its_wrap_set_only_if_asked() {
        // One class never reads the wrap set on the hop path, so
        // construction skips the feedback-arc DFS; asking for the set
        // computes it, and it is the same set two classes compute
        // eagerly.
        let g = std::sync::Arc::new(DeBruijn::new(2, 5).digraph());
        let one = Dateline::new(std::sync::Arc::clone(&g), 1);
        assert!(one.wrap.get().is_none(), "computed eagerly at one class");
        for arc in 0..g.arc_count() {
            assert_eq!(one.next_class_arc(0, arc), 0);
            assert!(!one.needs_relief(0, arc));
        }
        for u in 0..g.node_count() as u32 {
            for &v in g.out_neighbors(u) {
                assert_eq!(one.next_class(0, u64::from(u), u64::from(v)), 0);
            }
        }
        assert!(one.wrap.get().is_none(), "promotion read the wrap set");
        let two = Dateline::new(std::sync::Arc::clone(&g), 2);
        assert!(two.wrap.get().is_some(), "two classes compute it up front");
        assert_eq!(one.wrap_arc_count(), two.wrap_arc_count());
        for arc in 0..g.arc_count() {
            assert_eq!(one.crosses_arc(arc), two.crosses_arc(arc), "arc {arc}");
        }
        for u in 0..g.node_count() as u32 {
            for &v in g.out_neighbors(u) {
                let (u, v) = (u64::from(u), u64::from(v));
                assert_eq!(one.crosses(u, v), two.crosses(u, v), "{u}->{v}");
            }
        }
        assert!(two.wrap_arc_count() > 0, "the wrap set is not empty");
    }

    #[test]
    fn dateline_wrap_set_cuts_every_fabric_cycle() {
        // The structural guarantee the deadlock argument rides on,
        // checked on a de Bruijn fabric: removing the wrap arcs
        // leaves the dependency substrate acyclic.
        let g = DeBruijn::new(2, 5).digraph();
        let dateline = Dateline::new(std::sync::Arc::new(g.clone()), 2);
        let wraps: Vec<bool> = (0..g.arc_count())
            .map(|a| dateline.crosses_arc(a))
            .collect();
        assert!(otis_digraph::feedback::is_feedback_arc_set(&g, &wraps));
        assert!(dateline.wrap_arc_count() > 0, "cyclic fabrics must wrap");
    }

    /// A per-VC congestion map for tests: explicit queue depths per
    /// (link, class); `queued` sums the classes of a link.
    struct FixedVcCongestion(Vec<((u64, u64, u8), usize)>);

    impl CongestionMap for FixedVcCongestion {
        fn queued(&self, from: u64, to: u64) -> usize {
            self.0
                .iter()
                .filter(|&&((f, t, _), _)| (f, t) == (from, to))
                .map(|&(_, depth)| depth)
                .sum()
        }

        fn queued_vc(&self, from: u64, to: u64, vc: u8) -> usize {
            self.0
                .iter()
                .find(|&&(link, _)| link == (from, to, vc))
                .map_or(0, |&(_, depth)| depth)
        }
    }

    #[test]
    fn adaptive_router_with_dateline_scores_the_joined_class_only() {
        // B(3,3), node 1 → 22: the shortest hop's link carries a deep
        // queue — but only on one VC class. Whether the packet
        // deroutes must depend on whether that class is the one it
        // would join there.
        let b = DeBruijn::new(3, 3);
        let fabric = std::sync::Arc::new(b.digraph());
        let shortest = DeBruijnRouter::new(b).next_hop(1, 22).unwrap();
        let dateline = Arc::new(Dateline::new(fabric, 2));
        let joined = dateline.next_class(0, 1, shortest);
        let other = (joined + 1) % 2;
        let on_joined_class = AdaptiveRouter::new(
            DeBruijnRouter::new(DeBruijn::new(3, 3)),
            FixedVcCongestion(vec![((1, shortest, joined), 100)]),
        )
        .with_dateline(Arc::clone(&dateline));
        assert_ne!(
            on_joined_class.next_hop_on_vc(1, 22, 0),
            Some(shortest),
            "a deep queue on the packet's own class forces a deroute"
        );
        let on_other_class = AdaptiveRouter::new(
            DeBruijnRouter::new(DeBruijn::new(3, 3)),
            FixedVcCongestion(vec![((1, shortest, other), 100)]),
        )
        .with_dateline(dateline);
        assert_eq!(
            on_other_class.next_hop_on_vc(1, 22, 0),
            Some(shortest),
            "congestion on a class the packet never joins is irrelevant"
        );
        // Without the dateline, whole-link scoring sees the 100 either
        // way and deroutes both times.
        let whole_link = AdaptiveRouter::new(
            DeBruijnRouter::new(DeBruijn::new(3, 3)),
            FixedVcCongestion(vec![((1, shortest, other), 100)]),
        );
        assert_ne!(whole_link.next_hop_on_vc(1, 22, 0), Some(shortest));
    }

    #[test]
    fn adaptive_router_never_strands_a_packet() {
        // Whatever the congestion says, next_hop is Some iff a route
        // exists — congestion can stretch paths, not invent or destroy
        // reachability.
        let g = Digraph::from_fn(4, |u| if u < 2 { vec![(u + 1) % 2] } else { vec![] });
        let table = RoutingTable::new(&g);
        let adaptive = AdaptiveRouter::new(table, FixedCongestion(vec![((0, 1), 1000)]));
        assert_eq!(adaptive.next_hop(0, 1), Some(1), "only route survives");
        assert_eq!(adaptive.next_hop(2, 0), None);
    }
}
