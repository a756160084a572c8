//! Cycle-based discrete-event queueing simulation: congestion with
//! *dynamics*, at fabric scales the paper actually targets.
//!
//! The static engine ([`super::TrafficEngine`]) tallies how much load
//! oblivious routing piles on each link — the forwarding-index view of
//! the paper. What it cannot show is what an optical fabric actually
//! does when a link is oversubscribed: packets wait in finite buffers,
//! buffers fill, upstream traffic backs up or gets dropped, and
//! throughput saturates. On wavelength-routed fabrics that contention
//! — not path length — bounds achievable throughput (cf. the
//! all-optical BCube and conjugate-network papers in PAPERS.md).
//!
//! The model is the standard synchronous abstraction of that story:
//!
//! * every directed link (one transceiver beam) owns `vcs` virtual
//!   channels, each a FIFO of `buffers` packets, and `wavelengths`
//!   parallel drain channels shared by its VCs;
//! * each cycle, every link drains up to `wavelengths` packets off its
//!   VC FIFO heads, round-robin across classes; a packet arriving at
//!   its destination leaves the network, any other packet asks the
//!   router for its next link;
//! * a full downstream FIFO either blocks the packet in place —
//!   blocking only its own VC class
//!   ([`ContentionPolicy::Backpressure`]) — or discards it
//!   ([`ContentionPolicy::TailDrop`]);
//! * injection offers `offered_per_cycle` new packets per cycle
//!   (fabric-wide) through **independent per-source injection
//!   queues**; a backpressured source stalls only itself;
//! * virtual channel classes follow the **dateline** discipline
//!   ([`otis_core::Dateline`]): packets inject on class 0 and are
//!   promoted one class per *wrap arc* crossed (a feedback arc set of
//!   the fabric, so every cycle of the fabric contains one), making
//!   the channel-dependency graph acyclic; with `vcs ≥ 2` and
//!   `Backpressure` the all-blocked state is unreachable for any
//!   router — the one unorderable move (a top-class packet wrapping
//!   again) never blocks (`dateline_relief`).
//!
//! # The hot path (see [`run`] for the full contract)
//!
//! Packets live in a structure-of-arrays **arena** — one slab holding
//! each workload entry from decode to delivery, free-list recycled
//! `u32` ids, intrusive per-source and per-channel FIFOs — so a cycle
//! touches cache lines, not allocator metadata. The drain phase
//! walks an **active-node worklist** (a dense bitset over nodes with
//! queued inbound traffic) instead of scanning every channel, so idle
//! fabric regions cost one word load per 64 nodes. With
//! `drain_threads > 1` the drain **shards nodes across scoped
//! workers**: every buffer a node's drain writes belongs to that
//! node's own out-arcs, so ownership is disjoint with no CAS loops,
//! and room checks use phase-boundary credits (a slot freed this
//! cycle is claimable next cycle) so the report is byte-identical at
//! any thread count. Stateless routers get per-packet next-hop
//! caching: a blocked head costs a word load per cycle, not a routing
//! query. The pre-arena engine survives as
//! [`reference::ReferenceEngine`], the ablation baseline the
//! `routing_sim` bench measures the rewrite against.
//!
//! Everything is deterministic, and fair by rotation: each node's
//! drain starts from a different inbound link each cycle (and from a
//! different VC class within a link), and the injection phase rotates
//! its starting source the same way. The same seed yields the same
//! report — at any `drain_threads`. The engine publishes per-VC
//! buffer occupancy through [`LinkOccupancy`] (an
//! [`otis_core::CongestionMap`]) at cycle granularity, which is what
//! lets an [`otis_core::AdaptiveRouter`] steer *this* simulation's
//! packets around *this* simulation's queues — per VC class, when
//! built with [`otis_core::AdaptiveRouter::with_dateline`].

mod arena;
pub mod dynamics;
pub mod reference;
mod run;

pub use dynamics::{DynamicsSpec, StrandedPolicy};

use super::report::QueueingReport;
use super::workload::{MulticastGroup, WorkloadSource};
use otis_core::{CongestionMap, Dateline, DigraphFamily, MulticastTree, Router};
use otis_digraph::Digraph;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// What happens upstream when a downstream buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentionPolicy {
    /// The packet waits where it is, blocking its VC FIFO (and, at the
    /// source, stalling that source's injection queue). Lossless; with
    /// `vcs = 1` cyclic fabrics can deadlock under saturation (the run
    /// detects the wedged cycle and reports it), while `vcs ≥ 2`
    /// dateline channels dissolve the ring dependencies instead.
    Backpressure,
    /// The packet is discarded and counted (`dropped_full`). Lossy,
    /// deadlock-free — the usual optical-switch behavior when no
    /// buffer wavelength is free.
    TailDrop,
}

impl std::str::FromStr for ContentionPolicy {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, String> {
        match raw {
            "backpressure" => Ok(ContentionPolicy::Backpressure),
            "taildrop" | "tail-drop" => Ok(ContentionPolicy::TailDrop),
            other => Err(format!(
                "unknown contention policy {other:?} (valid: backpressure|taildrop)"
            )),
        }
    }
}

/// Knobs of the queueing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// FIFO buffer capacity per virtual channel, packets. Must be ≥ 1.
    pub buffers: usize,
    /// Wavelength channels per link: packets drained per link per
    /// cycle, shared by the link's VCs. Must be ≥ 1.
    pub wavelengths: usize,
    /// Virtual channels per directed link (dateline classes). Must be
    /// `1..=255`; `1` reproduces the single-FIFO fabric (and its
    /// backpressure deadlocks), `≥ 2` makes backpressure lossless on
    /// the ring decompositions these fabrics are built from.
    pub vcs: usize,
    /// Full-buffer behavior.
    pub policy: ContentionPolicy,
    /// Hop budget per packet (TTL); `None` = `max(64, 2n)`. Bounds
    /// adaptive deroutes and misrouting routers alike.
    pub hop_limit: Option<u32>,
    /// Hard cap on simulated cycles; packets still buffered then are
    /// reported as `in_flight`.
    pub max_cycles: u64,
    /// Drain-phase worker threads: `0` picks automatically (1 below
    /// 4096 nodes, hardware parallelism capped at 8 above). The
    /// report is byte-identical at every thread count — sharding is
    /// by downstream-node ownership over phase-stable state, so
    /// parallelism changes wall clock, never results.
    pub drain_threads: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            buffers: 16,
            wavelengths: 1,
            vcs: 1,
            policy: ContentionPolicy::TailDrop,
            hop_limit: None,
            max_cycles: 10_000_000,
            drain_threads: 0,
        }
    }
}

/// Live per-VC buffer occupancy, shared between a running
/// [`QueueingEngine`] and any [`otis_core::AdaptiveRouter`] steering
/// packets through it. Updated at phase boundaries (injection commits
/// live; drain moves commit at each cycle's apply step), so adaptive
/// decisions read a consistent, cycle-stable view.
///
/// Cloning is cheap (two `Arc`s); all clones observe the same counts.
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    g: Arc<Digraph>,
    /// One counter per (arc, VC class), arc-major.
    counts: Arc<[AtomicU32]>,
    /// Per-arc fade penalty (see [`QueueingEngine`]'s dynamics): the
    /// congestion view adds it to the arc's occupancy so an adaptive
    /// router steers around degraded and dead beams; the raw
    /// occupancy probes ([`LinkOccupancy::arc_occupancy`]) stay true
    /// buffer counts. All zeros while no dynamics event has fired.
    penalty: Arc<[AtomicU32]>,
    vcs: usize,
}

impl LinkOccupancy {
    // ORDERING: Relaxed loads. The counters are written only at phase
    // boundaries (injection commit, the apply step) while routing
    // decisions read them in the next cycle's decode/inject phase; the
    // engine's Barrier::wait() between those phases is the
    // synchronizes-with edge that makes the writes visible, so the
    // loads themselves need no ordering. A router probing from outside
    // a run sees a quiescent scoreboard.
    /// Virtual channels per link this view resolves.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Occupancy of the `arc`-th link (arc order of the digraph),
    /// summed over its VC classes.
    pub fn arc_occupancy(&self, arc: usize) -> usize {
        (0..self.vcs)
            .map(|vc| self.counts[arc * self.vcs + vc].load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Occupancy of one VC FIFO of the `arc`-th link. Classes this
    /// view does not have (`vc ≥ vcs`) read `0` — a router configured
    /// with more dateline classes than the engine must not read a
    /// neighboring link's counter.
    pub fn channel_occupancy(&self, arc: usize, vc: usize) -> usize {
        if vc >= self.vcs {
            return 0;
        }
        self.counts[arc * self.vcs + vc].load(Ordering::Relaxed) as usize
    }

    /// The arc `from → to`, if present (`None` off-fabric: the
    /// congestion contract reads unknown links as empty).
    fn arc_of(&self, from: u64, to: u64) -> Option<usize> {
        arc_of(&self.g, from, to)
    }
}

/// The arc `from → to` of `g`, if present — `None` for off-fabric
/// endpoints (u64-safe: no truncation before the range check), so
/// probes against router-proposed hops need no pre-validation.
pub(crate) fn arc_of(g: &Digraph, from: u64, to: u64) -> Option<usize> {
    let n = g.node_count() as u64;
    if from >= n || to >= n {
        return None;
    }
    g.arc_between(from as u32, to as u32)
}

impl LinkOccupancy {
    /// The fade penalty charged on top of `arc`'s occupancy in the
    /// congestion view. `0` until a dynamics event degrades the link.
    fn arc_penalty(&self, arc: usize) -> usize {
        // ORDERING: Relaxed — written only on the engine's sequential
        // event-application slot (workers at the barrier); read by
        // adaptive routers in later phases, behind that barrier.
        self.penalty[arc].load(Ordering::Relaxed) as usize
    }
}

impl CongestionMap for LinkOccupancy {
    fn queued(&self, from: u64, to: u64) -> usize {
        self.arc_of(from, to)
            .map_or(0, |arc| self.arc_occupancy(arc) + self.arc_penalty(arc))
    }

    fn queued_vc(&self, from: u64, to: u64, vc: u8) -> usize {
        self.arc_of(from, to).map_or(0, |arc| {
            self.channel_occupancy(arc, vc as usize) + self.arc_penalty(arc)
        })
    }
}

/// A multicast workload's delivery trees, flattened for the cycle
/// loop: groups keep their workload index (what a pending entry
/// carries in its `dst` slot; the root is the entry's source), and
/// every tree arc of every group gets one global `u32` id (the
/// id an in-flight packet copy carries in its arena `dst` slot), with
/// per-arc fabric arc, CSR child lists, delivery counts and subtree
/// *weights* — the number of requested destination leaves below the
/// arc, which is the leaf-unit bookkeeping the conservation law
/// `injected_leaves = delivered + dropped + in_flight` runs on.
///
/// Arcs whose endpoints the fabric does not connect (a router proposed
/// a non-neighbor) or that serve no leaf at all (partial walks toward
/// destinations that turned out unreachable) are pruned here, their
/// leaves folded into the group's unroutable count, so the cycle loop
/// only ever sees spawnable copies.
///
/// [`TreeSet::build`] drives one [`MulticastTree`] through every group
/// ([`MulticastTree::rebuild`]) and emits each kept arc's child row
/// straight from the tree's own CSR: no per-group tree, child-list or
/// fabric-sized table allocation, and each group clears only the
/// previous tree's entries of the node → arc table.
pub(super) struct TreeSet {
    /// Per tree arc: the fabric arc it rides.
    fabric_arc: Vec<u32>,
    /// Per tree arc: requests delivered at its child endpoint.
    deliveries: Vec<u32>,
    /// Per tree arc: requested leaves in its subtree (≥ deliveries).
    weight: Vec<u32>,
    /// CSR child lists: `child_arcs[child_off[t]..child_off[t+1]]`.
    child_off: Vec<u32>,
    child_arcs: Vec<u32>,
    /// CSR root lists per group, same layout.
    root_off: Vec<u32>,
    root_arcs: Vec<u32>,
    /// Per group: the root node.
    root: Vec<u64>,
    /// Per group: requests for the root itself (delivered at source).
    self_requests: Vec<u32>,
    /// Per group: leaves with no usable route (unreachable + pruned).
    unroutable: Vec<u32>,
    /// Per group: every requested leaf (= self + unroutable + the
    /// root arcs' weights).
    leaves: Vec<u32>,
    /// Max per-fabric-arc tree count — the static multicast
    /// forwarding index of this workload under this routing.
    forwarding_index: u64,
}

/// [`TreeSet::build`]'s `global_id` for a pruned tree arc.
const PRUNED: u32 = u32::MAX;

impl TreeSet {
    /// Flatten `groups`' delivery trees over `router` against fabric
    /// `g`.
    pub(super) fn build(g: &Digraph, router: &dyn Router, groups: &[MulticastGroup]) -> Self {
        let mut set = TreeSet {
            fabric_arc: Vec::new(),
            deliveries: Vec::new(),
            weight: Vec::new(),
            child_off: Vec::new(),
            child_arcs: Vec::new(),
            root_off: vec![0],
            root_arcs: Vec::new(),
            root: Vec::with_capacity(groups.len()),
            self_requests: Vec::with_capacity(groups.len()),
            unroutable: Vec::with_capacity(groups.len()),
            leaves: Vec::with_capacity(groups.len()),
            forwarding_index: 0,
        };
        let mut tree_load = vec![0u64; g.arc_count()];
        // One tree and per-arc scratch, reused across groups: invalid
        // flags, kept-subtree weights, fabric arcs, local→global ids.
        let mut tree = MulticastTree::default();
        let mut invalid: Vec<bool> = Vec::new();
        let mut kept_weight: Vec<u64> = Vec::new();
        let mut fabric_of: Vec<u32> = Vec::new();
        let mut global_id: Vec<u32> = Vec::new();
        for group in groups {
            tree.rebuild(router, group.root, &group.dsts);
            let arcs = tree.arc_count();
            invalid.clear();
            invalid.resize(arcs, false);
            fabric_of.clear();
            fabric_of.resize(arcs, u32::MAX);
            global_id.clear();
            global_id.resize(arcs, PRUNED);
            // Pass 1 (forward): an invalid arc — the router proposed a
            // non-fabric hop — prunes its whole subtree at its topmost
            // occurrence, where the subtree's leaves all become
            // unroutable; descendants are marked silently.
            let mut unroutable = tree.unreachable().len() as u64;
            for arc in 0..arcs {
                if let Some(parent) = tree.parent_arc(arc) {
                    if invalid[parent] {
                        invalid[arc] = true;
                        continue;
                    }
                }
                match arc_of(g, tree.endpoints(arc).0, tree.endpoints(arc).1) {
                    Some(fabric) => fabric_of[arc] = fabric as u32,
                    None => {
                        invalid[arc] = true;
                        unroutable += tree.leaf_load(arc);
                    }
                }
            }
            // Pass 2 (reverse): the weight each surviving arc actually
            // carries — its own deliveries plus surviving children
            // only. Leaves lost to pruned subtrees must NOT stay in
            // ancestor weights (they are already in `unroutable`, and
            // double-counting breaks leaf conservation).
            kept_weight.clear();
            kept_weight.resize(arcs, 0);
            for arc in (0..arcs).rev() {
                if invalid[arc] {
                    continue;
                }
                kept_weight[arc] += tree.deliveries_at(arc);
                if let Some(parent) = tree.parent_arc(arc) {
                    kept_weight[parent] += kept_weight[arc];
                }
            }
            // Pass 3 (forward): emit the kept arcs — valid and with a
            // positive surviving weight (a zero-weight arc serves no
            // leaf: partial walks toward unreachable destinations, or
            // chains whose every leaf was pruned away).
            for arc in 0..arcs {
                if invalid[arc] || kept_weight[arc] == 0 {
                    continue;
                }
                global_id[arc] = set.fabric_arc.len() as u32;
                set.fabric_arc.push(fabric_of[arc]);
                tree_load[fabric_of[arc] as usize] += 1;
                set.deliveries.push(tree.deliveries_at(arc) as u32);
                set.weight.push(kept_weight[arc] as u32);
                if tree.parent_arc(arc).is_none() {
                    set.root_arcs.push(global_id[arc]);
                }
            }
            // Child CSR rows, in global-id (= tree) order: each kept
            // arc's kept children, read off the tree's own CSR. A kept
            // arc's parent is kept too (an invalid or weightless
            // parent leaves its children the same), so every kept
            // non-root arc lands in exactly one row.
            for arc in 0..arcs {
                if global_id[arc] != PRUNED {
                    set.child_off.push(set.child_arcs.len() as u32);
                    set.child_arcs.extend(
                        tree.child_arcs(arc)
                            .iter()
                            .map(|&child| global_id[child as usize])
                            .filter(|&id| id != PRUNED),
                    );
                }
            }
            set.root_off.push(set.root_arcs.len() as u32);
            set.root.push(group.root);
            set.self_requests.push(tree.self_requests() as u32);
            set.unroutable.push(unroutable as u32);
            set.leaves.push(tree.total_leaves() as u32);
            // The leaf partition the conservation law runs on: every
            // requested leaf is a self-request, unroutable, or carried
            // by exactly one surviving root arc.
            debug_assert_eq!(
                tree.total_leaves(),
                tree.self_requests() as u64 + unroutable + {
                    let lo = set.root_off[set.root_off.len() - 2] as usize;
                    set.root_arcs[lo..]
                        .iter()
                        .map(|&t| set.weight[t as usize] as u64)
                        .sum::<u64>()
                },
                "pruning lost or double-counted leaves"
            );
        }
        set.child_off.push(set.child_arcs.len() as u32);
        set.forwarding_index = tree_load.iter().copied().max().unwrap_or(0);
        set
    }

    /// Number of groups flattened.
    pub(super) fn group_count(&self) -> usize {
        self.root.len()
    }

    /// Total spawnable tree arcs — the arena capacity bound: each arc
    /// hosts at most one live copy over the whole run.
    pub(super) fn arc_count(&self) -> usize {
        self.fabric_arc.len()
    }

    /// The fabric arc the `t`-th tree arc rides.
    pub(super) fn fabric_arc(&self, t: u32) -> usize {
        self.fabric_arc[t as usize] as usize
    }

    /// Requests delivered at the `t`-th tree arc's head.
    pub(super) fn deliveries(&self, t: u32) -> u32 {
        self.deliveries[t as usize]
    }

    /// Requested leaves below (and at) the `t`-th tree arc.
    pub(super) fn weight(&self, t: u32) -> u32 {
        self.weight[t as usize]
    }

    /// Child tree arcs of the `t`-th tree arc.
    pub(super) fn children(&self, t: u32) -> &[u32] {
        let lo = self.child_off[t as usize] as usize;
        let hi = self.child_off[t as usize + 1] as usize;
        &self.child_arcs[lo..hi]
    }

    /// Tree arcs hanging off group `g`'s root.
    pub(super) fn group_root_arcs(&self, g: usize) -> &[u32] {
        let lo = self.root_off[g] as usize;
        let hi = self.root_off[g + 1] as usize;
        &self.root_arcs[lo..hi]
    }

    /// Group `g`'s root node.
    pub(super) fn group_root(&self, g: usize) -> u64 {
        self.root[g]
    }

    /// Group `g`'s root self-requests.
    pub(super) fn group_self_requests(&self, g: usize) -> u32 {
        self.self_requests[g]
    }

    /// Group `g`'s unroutable leaves.
    pub(super) fn group_unroutable(&self, g: usize) -> u32 {
        self.unroutable[g]
    }

    /// Group `g`'s total requested leaves.
    pub(super) fn group_leaves(&self, g: usize) -> u32 {
        self.leaves[g]
    }

    /// The static multicast forwarding index of the flattened
    /// workload.
    pub(super) fn forwarding_index(&self) -> u64 {
        self.forwarding_index
    }
}

/// Cycle-accurate queueing simulator over one fabric digraph.
///
/// Reusable across runs ([`QueueingEngine::run`] carries no state
/// over), but runs must not overlap: a run keeps its FIFO lengths in
/// the engine's one occupancy scoreboard, so starting a run while
/// another is in progress panics.
pub struct QueueingEngine {
    g: Arc<Digraph>,
    config: QueueConfig,
    /// The link-dynamics timeline runs replay, if any, compiled once
    /// against this fabric (see
    /// [`QueueingEngine::try_set_dynamics_relabeled`]).
    dynamics: Option<dynamics::Timeline>,
    /// What a run does with packets stranded by a link death.
    stranded: StrandedPolicy,
    /// One counter per (arc, VC class), arc-major — the occupancy
    /// scoreboard behind [`LinkOccupancy`]. A run uses these words as
    /// its channel FIFOs' committed lengths, so there is one
    /// occupancy array, not a second copy kept in step.
    counts: Arc<[AtomicU32]>,
    /// Per-arc fade penalty fed into [`LinkOccupancy`]'s congestion
    /// view; maintained by the run loop as dynamics events fire.
    fade_penalty: Arc<[AtomicU32]>,
    /// The dateline wrap set (a feedback arc set of the fabric) and
    /// class discipline, computed once per engine and `Arc`-shared
    /// with every router and sweep point that needs it.
    dateline: Arc<Dateline>,
    /// Reverse CSR over the fabric: `in_arcs[in_offsets[v]..
    /// in_offsets[v + 1]]` are the arc ids targeting `v`, ascending —
    /// the drain phase's per-node work lists.
    in_offsets: Box<[u32]>,
    in_arcs: Box<[u32]>,
    /// Held for the length of a run ([`QueueingEngine::claim_run`]).
    run_slot: Mutex<()>,
}

impl QueueingEngine {
    /// Engine over a materialized fabric digraph.
    pub fn new(g: Digraph, config: QueueConfig) -> Self {
        assert!(
            config.buffers >= 1,
            "need at least one buffer slot per virtual channel"
        );
        assert!(
            config.wavelengths >= 1,
            "need at least one wavelength channel per link"
        );
        assert!(
            (1..=u8::MAX as usize).contains(&config.vcs),
            "need 1..=255 virtual channels per link, got {}",
            config.vcs
        );
        let arcs = g.arc_count();
        // Channel ids (arc · vcs + class) are u32 throughout the run
        // loop, with u32::MAX as the null sentinel — guard the product,
        // not just the arc count.
        assert!(
            arcs.checked_mul(config.vcs)
                .is_some_and(|channels| channels < u32::MAX as usize),
            "fabric has {arcs} arcs × {} VCs; channel ids must fit below u32::MAX",
            config.vcs
        );
        let counts: Vec<AtomicU32> = (0..arcs * config.vcs).map(|_| AtomicU32::new(0)).collect();
        let fade_penalty: Vec<AtomicU32> = (0..arcs).map(|_| AtomicU32::new(0)).collect();
        // Reverse CSR by counting sort over arc targets.
        let n = g.node_count();
        let mut in_offsets = vec![0u32; n + 1];
        for arc in 0..arcs {
            in_offsets[g.arc_target(arc) as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets.clone();
        let mut in_arcs = vec![0u32; arcs];
        for arc in 0..arcs {
            let v = g.arc_target(arc) as usize;
            in_arcs[cursor[v] as usize] = arc as u32;
            cursor[v] += 1;
        }
        let g = Arc::new(g);
        let dateline = Arc::new(Dateline::new(Arc::clone(&g), config.vcs));
        QueueingEngine {
            g,
            config,
            dynamics: None,
            stranded: StrandedPolicy::default(),
            counts: counts.into(),
            fade_penalty: fade_penalty.into(),
            dateline,
            in_offsets: in_offsets.into_boxed_slice(),
            in_arcs: in_arcs.into_boxed_slice(),
            run_slot: Mutex::new(()),
        }
    }

    /// Engine over any family (materializes it first).
    pub fn from_family<F: DigraphFamily>(family: &F, config: QueueConfig) -> Self {
        Self::new(family.digraph(), config)
    }

    /// The fabric's node count.
    pub fn node_count(&self) -> u64 {
        self.g.node_count() as u64
    }

    /// Number of directed links (arcs) simulated.
    pub fn link_count(&self) -> usize {
        self.g.arc_count()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }

    /// Replay `spec`'s link dynamics on every subsequent run: fades,
    /// flaps and storms applied at cycle boundaries, with stranded
    /// packets handled per `stranded`. The spec is compiled against
    /// the fabric immediately — once, not per run — so a bad spec is
    /// an error here, not mid-run. Unicast runs only — a multicast
    /// run with dynamics set is rejected.
    ///
    /// `node_rank` is the de Bruijn isomorphism witness
    /// (`node_rank[fabric_node] = rank`) of a *relabeled* fabric's
    /// [`otis_core::RelabeledRouter`], and lets the spec address links
    /// in rank space via the `rank:` prefix (see [`DynamicsSpec`]'s
    /// grammar); compile errors on such fabrics name offending links
    /// in both numberings. Pass `None` for a fabric routed in its own
    /// numbering.
    ///
    /// # Errors
    ///
    /// On a spec the fabric cannot satisfy: an unknown link, an
    /// out-of-range node, or `rank:` addressing without a witness.
    pub fn try_set_dynamics_relabeled(
        &mut self,
        spec: DynamicsSpec,
        stranded: StrandedPolicy,
        node_rank: Option<&[u32]>,
    ) -> Result<(), String> {
        self.dynamics = Some(spec.try_compile(&self.g, self.config.wavelengths, node_rank)?);
        self.stranded = stranded;
        Ok(())
    }

    pub(super) fn dynamics(&self) -> Option<&dynamics::Timeline> {
        self.dynamics.as_ref()
    }

    pub(super) fn stranded_policy(&self) -> StrandedPolicy {
        self.stranded
    }

    pub(super) fn fade_penalty(&self) -> &[AtomicU32] {
        &self.fade_penalty
    }

    /// The simulated fabric.
    pub(super) fn digraph(&self) -> &Digraph {
        &self.g
    }

    pub(super) fn counts(&self) -> &[AtomicU32] {
        &self.counts
    }

    /// Claim the engine for one run, until the guard drops. Panics if
    /// another run holds it: the two would share FIFO lengths.
    pub(super) fn claim_run(&self) -> MutexGuard<'_, ()> {
        match self.run_slot.try_lock() {
            Ok(guard) => guard,
            // A run that panicked leaves nothing the next one reads:
            // every run zeroes the scoreboard before it starts.
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => panic!(
                "runs on one QueueingEngine must not overlap: a run keeps its FIFO \
                 lengths in the engine's occupancy scoreboard"
            ),
        }
    }

    pub(super) fn dateline_ref(&self) -> &Dateline {
        &self.dateline
    }

    pub(super) fn in_offsets(&self) -> &[u32] {
        &self.in_offsets
    }

    pub(super) fn in_arcs(&self) -> &[u32] {
        &self.in_arcs
    }

    /// The dateline VC discipline this engine runs, `Arc`-shared (no
    /// wrap-set copy however many sweep points or routers take one) —
    /// hand it to [`otis_core::AdaptiveRouter::with_dateline`] so
    /// adaptive scoring charges exactly the FIFO a packet would join.
    pub fn dateline(&self) -> Arc<Dateline> {
        Arc::clone(&self.dateline)
    }

    /// A live view of this engine's buffer occupancy — hand it to an
    /// [`otis_core::AdaptiveRouter`] *before* calling
    /// [`QueueingEngine::run`] and the router adapts to the queues the
    /// run builds up.
    pub fn occupancy(&self) -> LinkOccupancy {
        LinkOccupancy {
            g: Arc::clone(&self.g),
            counts: Arc::clone(&self.counts),
            penalty: Arc::clone(&self.fade_penalty),
            vcs: self.config.vcs,
        }
    }

    /// Inject `source`'s pairs at `offered_per_cycle` packets per
    /// cycle (fabric-wide) through per-source injection queues,
    /// simulate until every injected packet is delivered or dropped
    /// (or the run deadlocks / hits `max_cycles`), and report the
    /// dynamics. Every workload source must be a fabric node (`src <
    /// node_count`); destinations may be arbitrary (an off-fabric
    /// destination is an unroutable drop).
    ///
    /// The decode step reads one [`WorkloadSource::CHUNK`] at a time,
    /// so a ten-million-packet generated run holds one chunk (not
    /// 160 MB of pairs) resident — and reports byte-identically to
    /// the same pairs fed through [`WorkloadSource::from_pairs`].
    ///
    /// `hot_dst` additionally splits delay, delivery and drops by
    /// traffic class — packets destined for `hot_dst` versus
    /// everything else ([`QueueingReport::class_stats`]). Pass the
    /// hotspot pattern's hot node
    /// ([`super::TrafficPattern::hot_node`]) and the tree-saturation
    /// story becomes visible per class: the hot quarter queueing into
    /// the saturated in-tree, the background three quarters suffering
    /// only collateral head-of-line damage.
    pub fn run_streamed_classified(
        &self,
        router: &dyn Router,
        source: &WorkloadSource,
        offered_per_cycle: f64,
        hot_dst: Option<u64>,
    ) -> QueueingReport {
        run::execute(self, router, source, None, offered_per_cycle, hot_dst)
    }

    /// [`QueueingEngine::run_streamed_classified`] over an explicit
    /// pair list, unclassified.
    pub fn run(
        &self,
        router: &dyn Router,
        workload: &[(u64, u64)],
        offered_per_cycle: f64,
    ) -> QueueingReport {
        self.run_streamed_classified(
            router,
            &WorkloadSource::from_pairs(workload),
            offered_per_cycle,
            None,
        )
    }

    /// Inject one-to-many `groups` at `offered_per_cycle` **groups**
    /// per cycle and simulate their delivery trees with in-fabric
    /// replication: a copy reaching a tree branch spawns one child
    /// copy per child arc inside the packet arena, every arc is
    /// crossed once however many leaves it serves, and delivery is
    /// counted per destination leaf. All leaf-unit counters of the
    /// report (`injected`, `delivered`, drops, `in_flight`) obey
    /// `injected_leaves = delivered + dropped + in_flight`.
    /// Groups run through the unicast pipeline — the same decode,
    /// injector and drain — so backpressure, dateline VC classes and
    /// the deterministic sharded phases work unchanged: a branch
    /// blocks until every non-relief child FIFO has room, promotes
    /// each child per its own arc, and reports byte-identically at any
    /// `drain_threads`. Every root must be a fabric node.
    pub fn run_multicast(
        &self,
        router: &dyn Router,
        groups: &[MulticastGroup],
        offered_per_cycle: f64,
    ) -> QueueingReport {
        assert!(
            self.dynamics.is_none(),
            "link dynamics are unicast-only: multicast trees are prebuilt \
             against the static fabric and cannot reroute mid-run"
        );
        // Each group decodes as its `(root, group index)` pair.
        let roots: Vec<(u64, u64)> = groups.iter().zip(0..).map(|(g, i)| (g.root, i)).collect();
        run::execute(
            self,
            router,
            &WorkloadSource::from_pairs(roots),
            Some(groups),
            offered_per_cycle,
            None,
        )
    }

    /// Sweep offered load (packets per **node** per cycle) and measure
    /// delivered throughput at each point — the saturation curve of
    /// the fabric under this router.
    pub fn saturation_sweep(
        &self,
        router: &dyn Router,
        source: &WorkloadSource,
        loads_per_node: &[f64],
    ) -> SaturationSweep {
        let n = self.node_count() as f64;
        let points = loads_per_node
            .iter()
            .map(|&load| {
                let report = self.run_streamed_classified(router, source, load * n, None);
                SaturationPoint {
                    offered_per_node: load,
                    delivered_per_node: report.throughput_per_cycle() / n,
                    drop_rate: report.drop_rate(),
                    wait_p99_cycles: report.wait_p99_cycles,
                    deadlocked: report.deadlocked,
                }
            })
            .collect();
        SaturationSweep { points }
    }
}

/// One point of an offered-load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaturationPoint {
    /// Offered load, packets per node per cycle.
    pub offered_per_node: f64,
    /// Delivered throughput, packets per node per cycle.
    pub delivered_per_node: f64,
    /// Fraction of injected packets dropped at this load.
    pub drop_rate: f64,
    /// 99th-percentile queueing delay at this load, cycles.
    pub wait_p99_cycles: u64,
    /// True iff this point's run wedged under backpressure.
    pub deadlocked: bool,
}

/// An offered-load sweep: the saturation curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationSweep {
    /// One entry per offered load, in sweep order.
    pub points: Vec<SaturationPoint>,
}

impl SaturationSweep {
    /// Saturation-throughput estimate: the highest delivered
    /// throughput any offered load achieved (past saturation the curve
    /// plateaus or degrades, so the max is the knee).
    pub fn saturation_throughput_per_node(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.delivered_per_node)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_core::RoutingTable;

    /// The directed cycle C_n: one arc per node, fully deterministic.
    fn cycle(n: usize) -> Digraph {
        Digraph::from_fn(n, |u| [(u + 1) % n as u32])
    }

    fn config(buffers: usize, wavelengths: usize, policy: ContentionPolicy) -> QueueConfig {
        QueueConfig {
            buffers,
            wavelengths,
            policy,
            ..QueueConfig::default()
        }
    }

    #[test]
    fn single_packet_crosses_without_waiting() {
        let g = cycle(5);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let report = engine.run(&router, &[(0, 3)], 1.0);
        assert_eq!(report.injected, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.in_flight, 0);
        assert!(report.conserves_packets());
        assert_eq!(report.delivered_hops, 3);
        assert_eq!(report.max_hops, 3);
        // Uncontended: zero queueing delay, one cycle per hop.
        assert_eq!(report.wait_max_cycles, 0);
        assert_eq!(report.cycles, 3);
        assert!(!report.deadlocked);
        assert_eq!(report.vcs, 1);
        assert_eq!(report.dateline_promotions, 0);
        assert_eq!(report.source_stall_cycles, 0);
        // The final hop 2→3 is the third arc.
        assert_eq!(report.delivered_per_link, vec![0, 0, 1, 0, 0]);
    }

    #[test]
    fn wavelength_contention_serializes_a_shared_link() {
        // Three packets all need link 0→1 in the same cycle; one
        // wavelength drains one per cycle, so they wait 0, 1, 2 cycles.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(16, 1, ContentionPolicy::Backpressure));
        let report = engine.run(&router, &[(0, 1), (0, 1), (0, 1)], 3.0);
        assert_eq!(report.delivered, 3);
        assert!(report.conserves_packets());
        assert_eq!(report.wait_max_cycles, 2);
        assert_eq!(report.wait_p50_cycles, 1);
        assert_eq!(report.max_peak_occupancy, 3, "all three queued at once");
        // Two wavelengths halve the serialization.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(16, 2, ContentionPolicy::Backpressure));
        let report = engine.run(&router, &[(0, 1), (0, 1), (0, 1)], 3.0);
        assert_eq!(report.delivered, 3);
        assert_eq!(report.wait_max_cycles, 1);
    }

    #[test]
    fn tail_drop_discards_past_full_buffers() {
        // One buffer slot on the injection link: of three simultaneous
        // packets, the first queues, the other two tail-drop.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::TailDrop));
        let report = engine.run(&router, &[(0, 1), (0, 1), (0, 1)], 3.0);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.dropped_full, 2);
        assert!(report.conserves_packets());
        assert_eq!(report.max_peak_occupancy, 1, "buffer never exceeds its cap");
    }

    #[test]
    fn backpressure_stalls_injection_instead_of_dropping() {
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::Backpressure));
        let report = engine.run(&router, &[(0, 1), (0, 1), (0, 1)], 3.0);
        // Lossless: everything eventually delivers, the run just takes
        // longer than the tail-drop run.
        assert_eq!(report.delivered, 3);
        assert_eq!(report.dropped(), 0);
        assert!(report.conserves_packets());
        assert!(!report.deadlocked);
        assert!(
            report.source_stall_cycles > 0,
            "the single-slot buffer must have stalled the source"
        );
    }

    #[test]
    fn backpressure_ring_deadlock_is_detected_and_conserved() {
        // C_3 with single-slot buffers and every packet two hops from
        // home: all three buffers fill, each head needs the next full
        // buffer — a classic cyclic-dependency deadlock.
        let g = cycle(3);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g.clone(), config(1, 1, ContentionPolicy::Backpressure));
        let occupancy = engine.occupancy();
        let report = engine.run(&router, &[(0, 2), (1, 0), (2, 1)], 3.0);
        assert!(report.deadlocked, "{report:?}");
        assert_eq!(report.delivered, 0);
        assert_eq!(report.in_flight, 3);
        assert!(report.conserves_packets());
        // The occupancy view still shows the wedged buffers.
        assert_eq!(occupancy.queued(0, 1), 1);
        assert_eq!(occupancy.queued(1, 2), 1);
        assert_eq!(occupancy.queued(2, 0), 1);
        // A new run on the same engine starts from empty FIFOs, not
        // from the wedged run's lengths.
        let report = engine.run(&router, &[(0, 1)], 1.0);
        assert!(!report.deadlocked, "{report:?}");
        assert_eq!(report.delivered, 1);
        assert_eq!(occupancy.queued(0, 1), 0);
        // The same scenario under tail-drop cannot wedge.
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::TailDrop));
        let report = engine.run(&router, &[(0, 2), (1, 0), (2, 1)], 3.0);
        assert!(!report.deadlocked);
        assert!(report.conserves_packets());
        assert_eq!(report.in_flight, 0);
    }

    #[test]
    fn dateline_vcs_dissolve_the_ring_deadlock() {
        // The exact scenario the previous test proves wedges with one
        // channel: two dateline classes cut the dependency ring. The
        // packet wrapping 2→0 is promoted to class 1, so its wait is
        // on a FIFO no class-0 packet occupies — and the run drains.
        let g = cycle(3);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(
            g,
            QueueConfig {
                vcs: 2,
                ..config(1, 1, ContentionPolicy::Backpressure)
            },
        );
        let report = engine.run(&router, &[(0, 2), (1, 0), (2, 1)], 3.0);
        assert!(!report.deadlocked, "{report:?}");
        assert_eq!(report.delivered, 3);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.in_flight, 0);
        assert!(report.conserves_packets());
        assert_eq!(report.vcs, 2);
        assert!(
            report.dateline_promotions >= 1,
            "the wrap hop must promote, got {report:?}"
        );
        // Both classes saw traffic: the wrap pushed packets upstairs.
        assert_eq!(report.vc_peak_occupancy.len(), 2);
        assert!(report.vc_peak_occupancy[0] >= 1);
        assert!(report.vc_peak_occupancy[1] >= 1);
    }

    #[test]
    fn per_source_queues_isolate_backpressure_stalls() {
        // Source 0 offers six packets into a single-slot buffer — it
        // will stall for cycles. Source 2's lone packet is offered
        // *last* in workload order; under the old shared injection
        // stream it would wait behind all of source 0's stalls, but
        // per-source queues inject it immediately. Classify on its
        // destination to read the two waits separately.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::Backpressure));
        let mut workload = vec![(0u64, 1u64); 6];
        workload.push((2, 3));
        let source = WorkloadSource::from_pairs(workload);
        let report = engine.run_streamed_classified(&router, &source, 7.0, Some(3));
        assert!(report.conserves_packets());
        assert_eq!(report.delivered, 7);
        let stats = report.class_stats.as_ref().expect("classified run");
        assert_eq!(stats.hot.injected, 1);
        assert_eq!(stats.background.injected, 6);
        assert_eq!(
            stats.hot.wait_max_cycles, 0,
            "source 2 must not inherit source 0's stall: {stats:?}"
        );
        assert!(
            stats.background.wait_max_cycles >= 5,
            "source 0 serializes through its single-slot buffer: {stats:?}"
        );
        assert!(report.source_stall_cycles > 0);
    }

    #[test]
    fn classified_run_splits_the_counters_exactly() {
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(4, 1, ContentionPolicy::TailDrop));
        let workload: [(u64, u64); 6] = [(0, 2), (1, 2), (3, 2), (1, 0), (2, 1), (3, 3)];
        let source = WorkloadSource::from_pairs(workload);
        let report = engine.run_streamed_classified(&router, &source, 2.0, Some(2));
        assert!(report.conserves_packets());
        let stats = report.class_stats.as_ref().expect("classified run");
        assert_eq!(stats.hot.injected, 3);
        assert_eq!(stats.background.injected, 3);
        assert_eq!(
            stats.hot.injected + stats.background.injected,
            report.injected
        );
        assert_eq!(
            stats.hot.delivered + stats.background.delivered,
            report.delivered
        );
        assert_eq!(
            stats.hot.dropped + stats.background.dropped,
            report.dropped()
        );
        // The unclassified run reports no breakdown.
        let report = engine.run(&router, &workload, 2.0);
        assert!(report.class_stats.is_none());
    }

    #[test]
    fn unroutable_packets_drop_at_injection() {
        let g = Digraph::from_fn(3, |u| if u == 0 { vec![1] } else { vec![] });
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let report = engine.run(&router, &[(0, 1), (2, 0), (1, 1)], 3.0);
        assert_eq!(report.delivered, 2, "the real route and the self-pair");
        assert_eq!(report.dropped_unroutable, 1);
        assert!(report.conserves_packets());
    }

    #[test]
    fn ttl_bounds_a_looping_packet() {
        // A blind router that always forwards around the 0→1→2→3→0
        // ring of a 5-node fabric while the packet's destination
        // (node 4, on-fabric but never on the walk) is unreachable by
        // it: the hop budget must retire the packet (as dropped_ttl,
        // conserving packets) instead of simulating forever.
        struct Forward;
        impl Router for Forward {
            fn node_count(&self) -> u64 {
                5
            }
            fn name(&self) -> String {
                "forward".into()
            }
            fn next_hop(&self, current: u64, _dst: u64) -> Option<u64> {
                Some((current + 1) % 4)
            }
        }
        let engine = QueueingEngine::new(
            Digraph::from_fn(5, |u| [(u + 1) % 4]),
            QueueConfig {
                hop_limit: Some(6),
                ..QueueConfig::default()
            },
        );
        let report = engine.run(&Forward, &[(1, 4)], 1.0);
        assert_eq!(report.dropped_ttl, 1);
        assert_eq!(report.delivered, 0);
        assert!(report.conserves_packets());
    }

    #[test]
    fn off_fabric_destinations_drop_before_reaching_the_router() {
        // A router that would panic on a nonexistent destination must
        // never see one: the engine retires off-fabric-destination
        // packets as unroutable at injection.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let report = engine.run(&router, &[(0, 4), (0, u64::MAX), (0, 2)], 3.0);
        assert_eq!(report.dropped_unroutable, 2);
        assert_eq!(report.delivered, 1);
        assert!(report.conserves_packets());
    }

    /// A B(2,4) engine with two drain workers: a panic inside the
    /// worker scope would leave the other worker waiting at a barrier.
    fn two_worker_b24() -> (QueueingEngine, otis_core::DeBruijnRouter, u64) {
        let b = otis_core::DeBruijn::new(2, 4);
        let config = QueueConfig {
            drain_threads: 2,
            ..QueueConfig::default()
        };
        let n = b.node_count();
        (
            QueueingEngine::from_family(&b, config),
            otis_core::DeBruijnRouter::new(b),
            n,
        )
    }

    #[test]
    #[should_panic(expected = "is not a fabric node")]
    fn off_fabric_source_panics_before_workers_start() {
        let (engine, router, n) = two_worker_b24();
        engine.run(&router, &[(0, 3), (n + 5, 1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "is not a fabric node")]
    fn off_fabric_group_root_panics_before_workers_start() {
        let (engine, router, n) = two_worker_b24();
        let groups = [
            MulticastGroup {
                root: 0,
                dsts: vec![3, 5],
            },
            MulticastGroup {
                root: n + 5,
                dsts: vec![1],
            },
        ];
        engine.run_multicast(&router, &groups, 1.0);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_runs_on_one_engine_panic() {
        // A router that starts a second run on its own engine from
        // inside the first run's injection: the two runs would share
        // FIFO lengths, so the second must refuse to start.
        struct Reentrant<'a> {
            engine: &'a QueueingEngine,
            inner: RoutingTable,
        }
        impl Router for Reentrant<'_> {
            fn node_count(&self) -> u64 {
                self.inner.node_count()
            }
            fn name(&self) -> String {
                "reentrant".into()
            }
            fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
                self.engine.run(&self.inner, &[(0, 1)], 1.0);
                self.inner.next_hop(current, dst)
            }
        }
        let g = cycle(4);
        let engine = QueueingEngine::new(g.clone(), QueueConfig::default());
        let router = Reentrant {
            engine: &engine,
            inner: RoutingTable::new(&g),
        };
        engine.run(&router, &[(0, 2)], 1.0);
    }

    #[test]
    fn occupancy_resolves_individual_vc_classes() {
        // A 2-VC engine's occupancy view: per-class and per-link
        // reads agree, a fully drained run leaves every class of
        // every link empty, and off-fabric or out-of-range probes
        // read 0 instead of a neighboring counter.
        let g = cycle(3);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(
            g,
            QueueConfig {
                vcs: 2,
                ..config(1, 1, ContentionPolicy::Backpressure)
            },
        );
        let occupancy = engine.occupancy();
        assert_eq!(occupancy.vcs(), 2);
        let report = engine.run(&router, &[(0, 2), (1, 0), (2, 1)], 3.0);
        assert!(!report.deadlocked);
        // Drained run: every class of every link is empty again.
        for arc in 0..3 {
            assert_eq!(occupancy.arc_occupancy(arc), 0);
            assert_eq!(occupancy.channel_occupancy(arc, 0), 0);
            assert_eq!(occupancy.channel_occupancy(arc, 1), 0);
        }
        assert_eq!(occupancy.queued(0, 1), 0);
        assert_eq!(occupancy.queued_vc(0, 1, 0), 0);
        assert_eq!(occupancy.queued_vc(9, 9, 0), 0, "unknown links are empty");
        assert_eq!(
            occupancy.queued_vc(0, 1, 7),
            0,
            "classes beyond the engine's vcs are empty, not a neighbor's counter"
        );
    }

    #[test]
    fn saturation_sweep_finds_the_cycle_service_rate() {
        // On C_8 under uniform-ish traffic with one wavelength, each
        // link serves at most 1 packet/cycle; delivered throughput
        // must plateau once offered load exceeds capacity.
        let g = cycle(8);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(8, 1, ContentionPolicy::TailDrop));
        let workload: Vec<(u64, u64)> = (0..400).map(|i| (i % 8, (i + 3) % 8)).collect();
        let source = WorkloadSource::from_pairs(workload);
        let sweep = engine.saturation_sweep(&router, &source, &[0.05, 0.1, 0.3, 0.6, 1.0]);
        assert_eq!(sweep.points.len(), 5);
        let saturation = sweep.saturation_throughput_per_node();
        assert!(saturation > 0.0);
        // Per-node delivery can never exceed the per-node service
        // capacity of 1/3 (every packet holds its links 3 cycles).
        assert!(saturation <= 1.0 / 3.0 + 1e-9, "saturation {saturation}");
        // Low offered loads deliver what they offer; the top of the
        // sweep cannot (drops or stretched runs).
        let first = &sweep.points[0];
        assert!(first.delivered_per_node >= first.offered_per_node * 0.8);
    }

    #[test]
    fn drain_threads_do_not_change_any_report() {
        // The determinism contract on a contended, multi-VC,
        // backpressured hotspot-ish scenario: byte-identical reports
        // at 1, 2 and 8 drain threads. (The broader randomized pin
        // lives in optics/tests/queueing.rs.)
        let workload: Vec<(u64, u64)> = (0..600)
            .map(|i| ((i * 7) % 16, (i * 13 + 3) % 16))
            .collect();
        let source = WorkloadSource::from_pairs(workload);
        let run_with = |threads: usize| {
            let g = Digraph::from_fn(16, |u| [(2 * u) % 16, (2 * u + 1) % 16]);
            let router = RoutingTable::new(&g);
            let engine = QueueingEngine::new(
                g,
                QueueConfig {
                    vcs: 2,
                    drain_threads: threads,
                    ..config(2, 1, ContentionPolicy::Backpressure)
                },
            );
            let report = engine.run_streamed_classified(&router, &source, 8.0, Some(3));
            serde_json::to_string(&report).expect("report serializes")
        };
        let single = run_with(1);
        assert_eq!(single, run_with(2), "2 threads changed the report");
        assert_eq!(single, run_with(8), "8 threads changed the report");
    }

    #[test]
    fn multicast_broadcast_tree_replicates_and_conserves() {
        use otis_core::{DeBruijn, DeBruijnRouter};
        let b = DeBruijn::new(2, 3);
        let n = b.node_count(); // 8
        let router = DeBruijnRouter::new(b);
        let engine = QueueingEngine::from_family(&b, QueueConfig::default());
        let groups = [MulticastGroup {
            root: 0,
            dsts: (1..n).collect(),
        }];
        let report = engine.run_multicast(&router, &groups, 1.0);
        // Leaf-unit conservation: injected_leaves = delivered +
        // dropped + in_flight.
        assert!(report.conserves_packets(), "{report:?}");
        assert_eq!(report.injected, 7, "leaves, not packets");
        assert_eq!(report.delivered, 7);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.multicast_groups, 1);
        // A broadcast tree on 8 nodes has 7 arcs; the root injects
        // its root-child copies, every other copy is a replication.
        let tree = otis_core::MulticastTree::broadcast(&b, 0);
        let root_copies = tree.root_arcs().len() as u64;
        assert_eq!(report.replicated_copies, 7 - root_copies);
        // One tree: its forwarding index is 1 (each link carries at
        // most one arc of one tree).
        assert_eq!(report.multicast_forwarding_index, 1);
        // Depth of a copy equals its BFS level; uncontended, every
        // leaf waits zero cycles.
        assert_eq!(report.max_hops, tree.max_depth());
        assert_eq!(report.wait_max_cycles, 0);
        assert!(!report.deadlocked);
    }

    #[test]
    fn multicast_self_and_unroutable_leaves_retire_at_injection() {
        let g = Digraph::from_fn(3, |u| if u == 0 { vec![1] } else { vec![] });
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let groups = [MulticastGroup {
            root: 0,
            dsts: vec![0, 1, 2],
        }];
        let report = engine.run_multicast(&router, &groups, 1.0);
        assert!(report.conserves_packets(), "{report:?}");
        assert_eq!(report.injected, 3);
        assert_eq!(report.delivered, 2, "self-request + the real route");
        assert_eq!(report.dropped_unroutable, 1);
        assert_eq!(report.replicated_copies, 0);
    }

    #[test]
    fn multicast_prunes_off_fabric_subtrees_without_double_counting() {
        // A router that routes the chain 0→1→2 correctly but claims a
        // hop 2→3 the fabric does not have: the pruned subtree's leaf
        // must land in `dropped_unroutable` exactly once — NOT also
        // linger in ancestor arc weights, which would strand phantom
        // in-flight leaves and break conservation (and report a
        // spurious deadlock).
        struct LiarRouter;
        impl Router for LiarRouter {
            fn node_count(&self) -> u64 {
                4
            }
            fn name(&self) -> String {
                "liar".into()
            }
            fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
                // Shortest chain hops toward 1, 2, 3 — but the fabric
                // below only materializes 0→1→2.
                (current < dst).then_some(current + 1)
            }
        }
        let g = Digraph::from_fn(4, |u| if u < 2 { vec![u + 1] } else { vec![] });
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let groups = [MulticastGroup {
            root: 0,
            dsts: vec![1, 2, 3],
        }];
        let report = engine.run_multicast(&LiarRouter, &groups, 1.0);
        assert!(report.conserves_packets(), "{report:?}");
        assert_eq!(report.injected, 3);
        assert_eq!(report.delivered, 2, "the on-fabric prefix delivers");
        assert_eq!(report.dropped_unroutable, 1, "the pruned leaf, once");
        assert_eq!(report.in_flight, 0, "no phantom leaves left in flight");
        assert!(!report.deadlocked, "{report:?}");
        // A tree whose EVERY leaf hangs below the bad hop vanishes
        // entirely: all leaves unroutable, nothing injected in-fabric.
        let g = Digraph::from_fn(4, |u| if u < 2 { vec![u + 1] } else { vec![] });
        let engine = QueueingEngine::new(g, QueueConfig::default());
        let groups = [MulticastGroup {
            root: 0,
            dsts: vec![3],
        }];
        let report = engine.run_multicast(&LiarRouter, &groups, 1.0);
        assert!(report.conserves_packets(), "{report:?}");
        assert_eq!(report.dropped_unroutable, 1);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.in_flight, 0);
        assert_eq!(
            report.replicated_copies, 0,
            "zero-weight chain never spawns"
        );
    }

    #[test]
    fn multicast_taildrop_drops_whole_subtrees() {
        // A 4-cycle with single-slot buffers: two simultaneous
        // broadcast groups from the same root contend for the one
        // injection channel; the loser's whole tree weight drops.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::TailDrop));
        let groups = [
            MulticastGroup {
                root: 0,
                dsts: vec![1, 2, 3],
            },
            MulticastGroup {
                root: 0,
                dsts: vec![1, 2, 3],
            },
        ];
        let report = engine.run_multicast(&router, &groups, 2.0);
        assert!(report.conserves_packets(), "{report:?}");
        assert_eq!(report.injected, 6);
        assert_eq!(report.delivered, 3, "one tree survives");
        assert_eq!(report.dropped_full, 3, "the other drops root-first");
        assert_eq!(
            report.multicast_forwarding_index, 2,
            "two trees share each link"
        );
    }

    #[test]
    fn multicast_backpressure_stalls_groups_losslessly() {
        // Same contention under backpressure: nothing drops, the
        // second group just waits for the first to clear.
        let g = cycle(4);
        let router = RoutingTable::new(&g);
        let engine = QueueingEngine::new(g, config(1, 1, ContentionPolicy::Backpressure));
        let groups = [
            MulticastGroup {
                root: 0,
                dsts: vec![1, 2, 3],
            },
            MulticastGroup {
                root: 0,
                dsts: vec![1, 2, 3],
            },
        ];
        let report = engine.run_multicast(&router, &groups, 2.0);
        assert!(report.conserves_packets(), "{report:?}");
        assert!(!report.deadlocked, "{report:?}");
        assert_eq!(report.delivered, 6);
        assert_eq!(report.dropped(), 0);
        assert!(report.source_stall_cycles > 0, "{report:?}");
        assert!(report.wait_max_cycles > 0, "the second tree queued");
    }

    #[test]
    fn an_unrelated_crossing_leaves_the_stall_count_alone() {
        // Forty packets 1 → 6 on B(2,3) through one single-slot
        // buffer: source 1 stalls behind its first hop for most of
        // the run, parked. A beam crossing zero wakes every parked
        // source on the sequential slot at the top of a cycle, and the
        // cycles it settles must be exactly the scans it skipped — so
        // a fade of the self-loop 7 → 7, which no shortest path uses,
        // must not move the count.
        use otis_core::{DeBruijn, DeBruijnRouter};
        let b = DeBruijn::new(2, 3);
        let run = |dynamics: Option<&str>| {
            let mut engine = QueueingEngine::from_family(
                &b,
                QueueConfig {
                    vcs: 2,
                    ..config(1, 1, ContentionPolicy::Backpressure)
                },
            );
            if let Some(spec) = dynamics {
                engine
                    .try_set_dynamics_relabeled(
                        spec.parse().expect("valid spec"),
                        StrandedPolicy::Reinject,
                        None,
                    )
                    .expect("7 → 7 is a fabric link");
            }
            engine.run(&DeBruijnRouter::new(b), &[(1, 6); 40], 40.0)
        };
        let calm = run(None);
        let faded = run(Some("fade@5:7>7:0:3"));
        assert_eq!(faded.link_down_events, 1);
        for report in [&calm, &faded] {
            assert_eq!(report.delivered, 40, "{report:?}");
            assert_eq!(report.cycles, 80, "{report:?}");
        }
        assert!(calm.source_stall_cycles > 0, "{calm:?}");
        assert_eq!(faded.source_stall_cycles, calm.source_stall_cycles);
    }
}
