//! The cycle loop: streamed decode, sharded injection, sharded drain,
//! apply — the engine's hot path, rebuilt for million-node fabrics.
//!
//! # Cycle anatomy
//!
//! 1. **Decode** (sequential): the offer clock admits this cycle's
//!    slice of the workload. Pairs are pulled from the
//!    [`WorkloadSource`] in index order, one resident chunk at a time
//!    (regenerated for a generated source, copied out of an explicit
//!    pair list); each claims its packet record and joins its source's
//!    pending FIFO. A source going nonempty is listed with its owning
//!    inject worker. A multicast run decodes the same way: its feed
//!    holds one `(root, group index)` pair per group, so a pending
//!    entry's `dst` slot names the group, just as an in-flight copy's
//!    `dst` slot names its tree arc.
//! 2. **Inject** (sharded by *source* ownership): each worker walks
//!    its listed sources, admitting every pending head it can. A
//!    source's injection touches only its own out-arc channels (the
//!    first hop originates at the source, and the room check reads
//!    only that channel's committed `len`, which only this source's
//!    pushes change within the phase), so the decisions are
//!    per-source independent and the shard layout is unobservable.
//!    An admitted pair enters its channel as the record decode claimed
//!    for it; multicast copies take ids from per-worker pools refilled
//!    in batches from the shared allocator — ids are never observable
//!    in a report, so their interleaving doesn't matter. The one
//!    cross-shard touch is the downstream node's ready count, which
//!    is why [`activate`] uses `fetch_add`. Adaptive (non-stateless)
//!    routers read the congestion scoreboard at injection, so *their*
//!    scan order is observable: those runs list every source with
//!    worker 0 and the main thread injects them alone, in listing
//!    order — sequential, hence still independent of the thread
//!    count. A multicast group at the head of a root's queue injects
//!    one copy per root-child tree arc through the same loop; trees
//!    are prebuilt, so multicast runs count as stateless and shard
//!    like any oblivious run.
//! 3. **Drain** (sharded by *downstream-node* ownership): every node
//!    with any ready inbound channel drains its in-arcs — up to
//!    `wavelengths` packets per arc, round-robin over VC classes,
//!    both starting offsets rotating per cycle. One arc loop serves
//!    both kinds of run; only the step applied to each head differs
//!    (route a unicast packet one hop, or deliver and replicate a
//!    tree copy), chosen once per node. Moves and replicated copies
//!    are staged alike; pops are batched. Every buffer a node's drain
//!    writes belongs to that node's *own* out-arcs, so ownership is
//!    disjoint by construction — no locks, no CAS loops in the loop.
//!    Replicated copies take their ids from the worker's own pool,
//!    as injected root copies do. Shard boundaries are rounded to
//!    64-node multiples so workers never share a worklist bitset word,
//!    and contiguous node ranges keep the de Bruijn arc structure
//!    (node `v` feeds `dv + c mod n`) cache-local per worker.
//! 4. **Apply** (sequential): batched pop counts commit, parked
//!    channels and sources wake, emptied nodes leave the worklist,
//!    staged arrivals join their FIFOs (per-channel arrival order is
//!    the source node's drain order, so it cannot depend on the
//!    worker layout), stats merge in worker order, and waits fold
//!    into dense histograms (order-free by construction).
//!
//! # Boundary credits — the determinism contract
//!
//! A room check reads `len + staged_len`: the occupancy committed at
//! the last apply plus this cycle's staged arrivals. Pops made *this*
//! cycle are not visible, so a slot freed in cycle `t` is claimable in
//! cycle `t + 1`. The pre-arena engine let later-scanned links see
//! earlier pops, which made outcomes depend on scan order — harmless
//! sequentially, fatal for deterministic parallelism. With boundary
//! credits, a cycle's outcome is a pure function of its start state,
//! so both sharded phases may be split any way at all: the report is
//! byte-identical at 1, 2, or 8 threads (pinned by proptest).
//! Deliveries, drops and relief moves never need room, so progress
//! (and deadlock detection) is unaffected.
//!
//! # Memory model
//!
//! Nothing here is sized by the offered load. The workload streams
//! (one regenerated chunk resident at a time), and each decoded entry
//! is one packet record from decode until it is delivered or dropped:
//! pending at its source, then in flight, in one lazily-chunked slab
//! sized by its live watermark. Waits fold into histograms, and
//! record ids recycle LIFO. A ten-million-packet run on `B(2,20)` is
//! resident-bounded by its congestion peak — the fixed per-channel
//! and per-node arrays — not by the 160 MB the old
//! materialize-then-slab path would take.
//!
//! # The worklist
//!
//! `active` is a dense bitset over nodes with `node_ready[v] > 0`
//! (ready channels into `v`). Injection and apply set bits as they
//! push; a drain that empties a node queues it for a clear at the
//! next apply. An idle region of the fabric costs one word load per
//! 64 nodes per cycle — which is what makes sparse and hotspot
//! workloads cheap on `B(2,20)`'s two million links.
//!
//! # Stateless-router hop caching
//!
//! Under saturation most drain attempts re-ask the router the exact
//! question it answered last cycle (the head hasn't moved). When
//! [`Router::hops_are_stateless`] holds, the computed next arc is
//! cached in the packet and invalidated on movement, so a blocked head
//! costs a word load, not a routing query. A pending entry is the same
//! record, so a stalled source's head caches its first hop the same
//! way, and admission clears it for the next node. Adaptive routers
//! opt out and are re-queried every attempt, reading congestion as of
//! the last phase boundary — stable within a cycle, hence still
//! deterministic.
//!
//! # Parking
//!
//! Under a stateless router a blocked head's blocker is fixed, and
//! under boundary credits its room can only reappear through a
//! committed pop. So a blocked channel — and a source whose head is
//! blocked on its first hop — parks on the blocking channel's waiter
//! list and costs nothing until that pop wakes it. Both kinds share
//! one list per channel: waiter `c < channels` is channel `c`, waiter
//! `channels + s` is source `s`.

use super::arena::{ArenaAllocator, ChannelQueues, PacketArena, NONE};
use super::dynamics::{Crossing, StrandedPolicy, Timeline};
use super::{arc_of, ContentionPolicy, QueueingEngine, TreeSet};
use crate::traffic::report::{ClassBreakdown, ClassStats, QueueingReport, WaitHistogram};
use crate::traffic::workload::{MulticastGroup, WorkloadSource};
use otis_core::{Dateline, RouteRepair, RouteSnapshot, Router};
use otis_digraph::Digraph;
use otis_util::DenseBitset;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};

/// Ids a worker pulls from the shared allocator per refill: one lock
/// acquisition per `ID_BATCH` injections, not per packet.
const ID_BATCH: usize = 128;

/// Fade penalty published for a dead beam: large enough that an
/// adaptive router's congestion-plus-stretch score never prefers it
/// over any live candidate, small enough that saturating arithmetic
/// keeps ordering among multiple dead options.
const DEAD_LINK_PENALTY: u32 = 1 << 20;

/// One link death's time-to-reroute watch: the cycle traffic first
/// committed onto an *alternative* out-link of the node whose beam
/// died. Pre-built from the compiled timeline (one per scheduled
/// death), armed implicitly by `cycle >= at_cycle`.
struct Watch {
    /// The node whose out-link died.
    node: u32,
    /// The dead arc — pushes onto it never resolve the watch.
    arc: u32,
    /// The death's event cycle.
    at_cycle: u64,
    /// First resolving cycle; `u64::MAX` until a packet commits onto
    /// another out-arc of `node` at or after `at_cycle`.
    resolved: AtomicU64,
    /// 1 iff some packet demonstrably wanted the dead beam: queued
    /// FIFO content stranded at the death, or a dead-target requery
    /// that hit this arc afterwards. Splits an unresolved watch into
    /// `reroute_unresolved` (demand existed, no alternative committed)
    /// vs `reroute_no_demand` (nothing ever asked for the link).
    demand: AtomicU32,
}

/// What a pipeline step did with the head of its queue: a source's
/// pending FIFO at injection, a channel's FIFO at drain.
enum Head {
    /// The head left the queue: admitted, delivered, moved,
    /// replicated, dropped or stranded.
    Left,
    /// The head stays, blocked under backpressure on this full
    /// channel.
    Blocked(usize),
}

/// The decode step's state: the workload with its one resident chunk,
/// the offer-clock cursor, and the per-worker staging lists for
/// sources that just went nonempty. Decode consumes indices in
/// ascending order, so it never fills a chunk twice.
struct Decoder<'a> {
    source: &'a WorkloadSource,
    chunk: Vec<(u64, u64)>,
    /// Index of the chunk in `chunk` (`usize::MAX` before the first).
    resident: usize,
    next: usize,
    newly_listed: Vec<Vec<u32>>,
}

impl Decoder<'_> {
    fn pair(&mut self, index: usize) -> (u64, u64) {
        let chunk = index / WorkloadSource::CHUNK;
        if self.resident != chunk {
            self.source.fill_chunk(chunk, &mut self.chunk);
            self.resident = chunk;
        }
        self.chunk[index - chunk * WorkloadSource::CHUNK]
    }
}

/// Everything a worker may touch: immutable context plus shared slabs
/// whose writes are disjoint by ownership (injection state by the
/// *source* node's inject owner, drain state by the *downstream*
/// node's drain owner, both resolved per phase).
struct SharedRun<'a> {
    g: &'a Digraph,
    router: &'a dyn Router,
    dateline: &'a Dateline,
    /// Reverse CSR: `in_arcs[in_offsets[v]..in_offsets[v + 1]]` are
    /// the arc ids targeting `v`, ascending.
    in_offsets: &'a [u32],
    in_arcs: &'a [u32],
    vcs: usize,
    buffers: u32,
    wavelengths: usize,
    policy: ContentionPolicy,
    hop_limit: u32,
    /// Router promised pure hops — enable the per-record hop cache,
    /// park blocked channels and sources, and shard injection.
    /// Multicast runs are always stateless: copies follow prebuilt
    /// trees, never the live router.
    stateless: bool,
    /// The flattened delivery trees of a multicast run: pending
    /// entries name a group, arena copies a tree arc.
    trees: Option<&'a TreeSet>,
    hot_dst: Option<u64>,
    classified: bool,
    /// Every packet record: pending entries and in-flight copies.
    arena: &'a PacketArena,
    /// The record id supply. Decode claims one record per entry on
    /// the sequential slot; workers touch it once per [`ID_BATCH`]
    /// refill of their multicast-copy pools; the other sequential
    /// phases lock it for the phase.
    allocator: &'a Mutex<ArenaAllocator>,
    queues: &'a ChannelQueues<'a>,
    /// Head/tail of each source's pending FIFO, threaded through the
    /// arena's `link`. Written by the decode step (main) and the
    /// source's inject owner — phases that never overlap.
    src_head: &'a [AtomicU32],
    src_tail: &'a [AtomicU32],
    /// 1 iff the source sits on some worker's inject list — the
    /// listing invariant that keeps a source from being scanned twice.
    src_listed: &'a [AtomicU32],
    /// Stateless-router source parking: the cycle each source stalled
    /// and parked (`u64::MAX` = not parked). A parked source is
    /// delisted and waits on its first-hop channel's waiter list
    /// (as waiter `channels + src`) until that channel commits a pop;
    /// the skipped stall cycles are settled in bulk at wake (and at
    /// run end), so the counter reads exactly as if the source had
    /// been re-scanned every cycle.
    source_parked_at: &'a [AtomicU64],
    /// Per-channel occupancy peaks. Each channel has one writer per
    /// phase (its source's inject owner, or the main thread).
    peak: &'a [AtomicU32],
    /// Inject-shard boundaries over sources, `threads + 1` entries;
    /// worker `w` owns sources `[shard_bounds[w], shard_bounds[w+1])`
    /// when the run is stateless. Adaptive routers inject
    /// sequentially (see the module docs), listing with worker 0.
    shard_bounds: &'a [usize],
    /// Inbound channels of `v` that are *ready*: nonempty and not
    /// parked. The worklist counts these, not raw packets — a parked
    /// channel costs nothing until its blocker commits a pop.
    node_ready: &'a [AtomicU32],
    /// The worklist: nodes with `node_ready > 0`.
    active: &'a DenseBitset,
    /// 1 iff the channel's head is blocked on a full downstream FIFO
    /// under a *stateless* router. Under boundary credits room can
    /// only reappear when the blocker commits a pop, so a parked
    /// channel is simply skipped until that pop wakes it — the
    /// event-driven half of the worklist. (Adaptive routers may pick
    /// a different candidate each cycle, so they never park.)
    parked: &'a [AtomicU32],
    /// Intrusive single-linked waiter lists: `waiter_head[c]` is the
    /// first waiter parked on `c`'s room, threaded through
    /// `waiter_link` (`channels + n` words: a channel waiter is its
    /// channel id, a source waiter `channels + src`). Every waiter of
    /// `c` belongs to `c`'s source node — the in-channels that drain
    /// there, and the node itself as a source — so each list is
    /// written only by that node's owner in the phase; the apply step
    /// drains it on each committed pop.
    waiter_head: &'a [AtomicU32],
    waiter_link: &'a [AtomicU32],
    delivered_per_link: &'a [AtomicU64],
    /// Per-arc drain capacity under a dynamics timeline (`None` on a
    /// static fabric: every arc drains `wavelengths`). Written only on
    /// the sequential slot when events fire; the phase barrier
    /// publishes the stores.
    capacity: Option<&'a [AtomicU32]>,
    /// Per-arc fade penalty published to the adaptive congestion view
    /// (the engine owns the slab so [`super::LinkOccupancy`] can read
    /// it); written on the sequential slot alongside `capacity`.
    fade_penalty: &'a [AtomicU32],
    /// Time-to-reroute watches, one per scheduled link death in
    /// timeline order. Empty on static runs.
    watches: &'a [Watch],
    /// What happens to packets a link death catches mid-queue.
    stranded_policy: StrandedPolicy,
    /// The repairing router behind the epoch-snapshot read path, when
    /// legal: stateless hops (adaptive scoring reads congestion, not
    /// the table), unicast work, and a published snapshot to read.
    /// `None` sends every next-hop query through the router itself.
    repair: Option<&'a dyn RouteRepair>,
    cycle: AtomicU64,
    done: AtomicBool,
}

impl SharedRun<'_> {
    /// The inject worker that owns `src`'s listing.
    fn list_owner(&self, src: usize) -> usize {
        if !self.stateless {
            return 0;
        }
        self.shard_bounds.partition_point(|&bound| bound <= src) - 1
    }

    /// How many packets `arc` may drain this cycle.
    fn arc_budget(&self, arc: usize) -> usize {
        match self.capacity {
            // ORDERING: Relaxed — capacity moves only on the
            // sequential slot; phase reads see a cycle-stable value
            // through the barrier.
            Some(caps) => caps[arc].load(Relaxed) as usize,
            None => self.wavelengths,
        }
    }

    /// Whether `arc` has faded to zero capacity (a dead beam).
    fn arc_dead(&self, arc: usize) -> bool {
        // ORDERING: Relaxed — capacity moves only on the sequential
        // slot; phase reads see a cycle-stable value through the
        // barrier.
        matches!(self.capacity, Some(caps) if caps[arc].load(Relaxed) == 0)
    }

    /// One next-hop query on the phase hot path: through the worker's
    /// cached epoch snapshot when the run has one (lock-free,
    /// byte-identical to the router's table — repairs republish only
    /// on the sequential slot), else the router itself.
    #[inline]
    fn route_query(
        &self,
        snap: &Option<RouteSnapshot>,
        current: u64,
        dst: u64,
        vc: u8,
    ) -> Option<u64> {
        match snap {
            Some(snapshot) => snapshot.next_hop(current, dst),
            None => self.router.next_hop_on_vc(current, dst, vc),
        }
    }
}

/// Per-worker buffers, reused across cycles. Handed to the apply step
/// through a mutex that is only ever contended at phase boundaries.
struct WorkerScratch {
    /// Listed sources this worker injects for, in listing order.
    sources: Vec<u32>,
    /// This worker's id pool for multicast copies, refilled from the
    /// shared allocator in [`ID_BATCH`]es. Group injection and
    /// replication both claim from it.
    ids: Vec<u32>,
    /// Staged arrivals `(channel, packet)` — moved packets and
    /// replicated copies — in drain order. A multicast run moves
    /// nothing, it only replicates, so either way a channel's arrivals
    /// land in its source node's drain order, independent of the
    /// worker layout.
    staged: Vec<(u32, u32)>,
    /// Batched pop counts `(channel, count)`.
    pops: Vec<(u32, u32)>,
    /// Retired record ids, for recycling at apply: packets delivered
    /// or dropped in flight, pairs delivered or dropped at their
    /// source, and injected multicast groups.
    freed: Vec<u32>,
    /// Nodes whose pending count hit zero.
    emptied: Vec<u32>,
    waits: Vec<u64>,
    class_waits: [Vec<u64>; 2],
    /// Packets `(channel, packet)` whose router answer pinned them to
    /// a dead beam, in drain order; the apply step resolves them per
    /// the stranded policy.
    stranded: Vec<(u32, u32)>,
    vc_blocked: Vec<bool>,
    vc_pops: Vec<u32>,
    /// The route snapshot this worker's inject and drain queries ride
    /// (see [`SharedRun::route_query`]), re-fetched at the top of each
    /// inject phase when the published epoch moved. `None` when the
    /// run has no snapshot to read ([`SharedRun::repair`]).
    snapshot: Option<RouteSnapshot>,
    /// Epoch of the cached snapshot (0 = nothing fetched yet).
    snapshot_epoch_seen: u64,
    stats: DrainStats,
}

impl WorkerScratch {
    fn new(vcs: usize) -> Self {
        WorkerScratch {
            sources: Vec::new(),
            ids: Vec::new(),
            staged: Vec::new(),
            pops: Vec::new(),
            freed: Vec::new(),
            emptied: Vec::new(),
            waits: Vec::new(),
            class_waits: [Vec::new(), Vec::new()],
            stranded: Vec::new(),
            vc_blocked: vec![false; vcs],
            vc_pops: vec![0; vcs],
            snapshot: None,
            snapshot_epoch_seen: 0,
            stats: DrainStats::default(),
        }
    }
}

/// One cycle's counter deltas from a worker's inject and drain
/// phases, merged (and reset) at apply.
#[derive(Default)]
struct DrainStats {
    activity: usize,
    /// Workload entries consumed at injection (admitted, delivered at
    /// the source, or dropped there): unicast pairs or multicast
    /// groups.
    consumed: usize,
    /// Leaf units those entries carried. For unicast one packet is
    /// one leaf; a multicast group carries every requested leaf.
    injected: usize,
    /// Leaf units that physically entered the network this cycle.
    entered: usize,
    /// Arena copies injected this cycle.
    entered_copies: usize,
    delivered: usize,
    /// Leaf units that left the network (delivered + dropped). For
    /// multicast a dropped copy departs with its whole subtree
    /// weight.
    departed: usize,
    /// Arena copies that left the network.
    departed_copies: usize,
    /// Child copies staged at tree branches this phase.
    spawned_copies: usize,
    dropped_full: usize,
    dropped_unroutable: usize,
    dropped_ttl: usize,
    delivered_hops: u64,
    max_hops: u32,
    promotions: u64,
    relief: u64,
    source_stalls: u64,
    class_injected: [usize; 2],
    class_delivered: [usize; 2],
    class_dropped: [usize; 2],
}

/// Main-thread run accumulators.
struct MainState {
    /// Workload entries consumed at injection: unicast pairs, or the
    /// multicast groups the report counts.
    consumed: usize,
    /// Leaf units buffered in the fabric (unicast: packets).
    in_network: usize,
    /// Live arena copies (multicast replication makes this differ
    /// from `in_network`; unicast keeps them equal).
    in_copies: usize,
    /// Child copies spawned at tree branches.
    replicated: u64,
    injected: usize,
    delivered: usize,
    dropped_full: usize,
    dropped_unroutable: usize,
    dropped_ttl: usize,
    delivered_hops: u64,
    max_hops: u32,
    waits: WaitHistogram,
    class_injected: [usize; 2],
    class_delivered: [usize; 2],
    class_dropped: [usize; 2],
    class_waits: [WaitHistogram; 2],
    dateline_promotions: u64,
    dateline_relief: u64,
    source_stall_cycles: u64,
    /// Sources woken by this apply's pops, to relist with their
    /// inject owners.
    woken: Vec<u32>,
    /// Stranded packets `(packet, node)` awaiting re-placement under
    /// [`StrandedPolicy::Reinject`], FIFO.
    backlog: VecDeque<(u32, u32)>,
    dropped_stranded: usize,
    stranded_reinjected: u64,
    link_down_events: u64,
    link_up_events: u64,
    capacity_events: u64,
    repair_runs_patched: Vec<u64>,
    repair_rows_patched: u64,
    /// The last snapshot epoch the run observed from the repairing
    /// router, seeded before cycle 0. Movement after a repair hook
    /// call means the router republished its snapshot.
    last_snapshot_epoch: u64,
    /// Snapshots the router published during this run (counted by
    /// epoch movement — a no-op event patches nothing and republishes
    /// nothing).
    snapshot_publications: u64,
    /// Total compressed-table runs across those publications: the
    /// itemized cost of rebuilding the immutable CSR view.
    snapshot_runs_published: u64,
    deadlocked: bool,
    cycle: u64,
}

/// How many workers a run uses: an explicit
/// `QueueConfig::drain_threads`, else 1 below 4096 nodes (sharding
/// overhead beats the win on small fabrics) and the hardware
/// parallelism above — capped at 8 through `B(2,17)`, 16 from 2^18
/// nodes up, where the shards are wide enough to feed more cores.
pub(super) fn resolve_threads(drain_threads: usize, n: usize) -> usize {
    let threads = if drain_threads > 0 {
        drain_threads
    } else if n < 4096 {
        1
    } else {
        let cap = if n >= (1 << 18) { 16 } else { 8 };
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(cap)
    };
    threads.clamp(1, n.max(1))
}

/// Contiguous node shards, `threads + 1` boundaries. Interior
/// boundaries round up to 64-node multiples so no two workers share a
/// worklist bitset word (or the cache line under it), and each shard
/// is a contiguous run of the de Bruijn node space — node `v`'s
/// out-arcs target the contiguous window `d·v .. d·v + d (mod n)`, so
/// a contiguous shard's working set is a few contiguous windows.
fn shard_bounds(n: usize, threads: usize) -> Vec<usize> {
    (0..=threads)
        .map(|w| {
            if w == threads {
                n
            } else {
                ((n * w / threads + 63) & !63).min(n)
            }
        })
        .collect()
}

/// Run `source` through the engine. A unicast run feeds `(src, dst)`
/// pairs; a multicast run passes its `groups` and feeds one
/// `(root, group index)` pair per group. The multicast run flips the
/// report's packet counters to **destination leaves**
/// (`injected_leaves = delivered + dropped + in_flight`), while
/// everything structural — buffers, VC classes, backpressure, the
/// deterministic sharded phases — is one pipeline.
pub(super) fn execute(
    engine: &QueueingEngine,
    router: &dyn Router,
    source: &WorkloadSource,
    groups: Option<&[MulticastGroup]>,
    offered_per_cycle: f64,
    hot_dst: Option<u64>,
) -> QueueingReport {
    assert!(
        offered_per_cycle > 0.0,
        "offered load must be positive, got {offered_per_cycle}"
    );
    let g = engine.digraph();
    let n = g.node_count() as u64;
    assert_eq!(
        router.node_count(),
        n,
        "router covers {} nodes but the fabric has {n}",
        router.node_count()
    );
    // Every source must be a fabric node. Checked here, before any
    // tree is built or worker spawned: a panic inside the worker scope
    // would leave the other workers waiting at a barrier forever.
    let what = if groups.is_some() {
        "group root"
    } else {
        "workload source"
    };
    source.assert_sources_within(n, what);
    let _run = engine.claim_run();
    let trees = groups.map(|groups| {
        assert!(hot_dst.is_none(), "multicast runs are unclassified");
        TreeSet::build(g, router, groups)
    });
    let trees = trees.as_ref();
    let config = *engine.config();
    let arcs = g.arc_count();
    let vcs = config.vcs;
    let channels = arcs * vcs;
    let hop_limit = config.hop_limit.unwrap_or_else(|| (2 * n).max(64) as u32);
    let threads = resolve_threads(config.drain_threads, n as usize);

    // ORDERING: the whole run loop is Relaxed by design. Ordering
    // between phases (decode → inject → drain → apply) comes from
    // `Barrier::wait()`, whose synchronizes-with edge sequences every
    // write of one phase before every read of the next; within a
    // phase, each atomic word has a single writer (sharded by source
    // node for inject, by downstream node for drain, the main thread
    // for decode/apply), so no intra-phase read races a write it could
    // order against. The individual sites below carry notes only where
    // the argument is not this standard one.

    // The arena bound: each decoded entry is one record until it
    // retires, and a multicast run adds at most one copy per tree arc
    // (each arc is crossed once).
    let items = source.len();
    // Headroom for ids parked in worker pools, which feed multicast
    // copies: up to `threads · ID_BATCH` claimed ids may sit idle
    // there — those must not trip the overflow assert.
    let capacity = items + trees.map_or(0, TreeSet::arc_count) + threads * ID_BATCH;
    // Waiter ids name a channel or, past the channels, a source; the
    // null link must stay out of that range.
    assert!(
        channels + (n as usize) < NONE as usize,
        "{channels} channels + {n} sources overflow u32 waiter ids"
    );

    let arena = PacketArena::with_capacity(capacity);
    let allocator = Mutex::new(ArenaAllocator::new(capacity));
    // The channels' committed lengths are the engine's occupancy
    // scoreboard, so adaptive routers read exactly what room checks do.
    let queues = ChannelQueues::new(engine.counts());
    let node_ready: Vec<AtomicU32> = (0..n as usize).map(|_| AtomicU32::new(0)).collect();
    let active = DenseBitset::new(n as usize);
    let zeros = |len: usize| -> Vec<AtomicU32> { (0..len).map(|_| AtomicU32::new(0)).collect() };
    let nones = |len: usize| -> Vec<AtomicU32> { (0..len).map(|_| AtomicU32::new(NONE)).collect() };
    let parked = zeros(channels);
    let waiter_head = nones(channels);
    let waiter_link = nones(channels + n as usize);
    let src_head = nones(n as usize);
    let src_tail = nones(n as usize);
    let src_listed = zeros(n as usize);
    let source_parked_at: Vec<AtomicU64> =
        (0..n as usize).map(|_| AtomicU64::new(u64::MAX)).collect();
    let peak = zeros(channels);
    let delivered_per_link: Vec<AtomicU64> = (0..arcs).map(|_| AtomicU64::new(0)).collect();
    let bounds = shard_bounds(n as usize, threads);
    let stateless = trees.is_some() || router.hops_are_stateless();

    // The epoch-snapshot read path: drain/inject next-hop queries ride
    // an immutable snapshot the repairing router publishes (refreshed
    // per worker per cycle, only when the epoch moved) instead of
    // taking the router's read lock on every query. Legal only for
    // stateless hops over unicast work — adaptive routers score
    // congestion, not the raw table, and multicast never queries the
    // router mid-run — and only when the router actually publishes.
    let repair: Option<&dyn RouteRepair> = (stateless && trees.is_none())
        .then(|| router.as_repair())
        .flatten()
        .filter(|repair| repair.published_snapshot().is_some());

    // Link dynamics: the timeline was compiled once when it was set on
    // the engine; seed every arc's capacity at full and open one
    // time-to-reroute watch per scheduled death. A run without
    // dynamics keeps `capacity: None` and zero watches, so none of the
    // per-packet gates below ever fire and the static byte-for-byte
    // behaviour is untouched.
    let timeline: Option<&Timeline> = engine.dynamics();
    let full_cap = u32::try_from(config.wavelengths).unwrap_or(u32::MAX);
    let capacity: Option<Vec<AtomicU32>> =
        timeline.map(|_| (0..arcs).map(|_| AtomicU32::new(full_cap)).collect());
    let watches: Vec<Watch> = timeline.map_or_else(Vec::new, |timeline| {
        timeline
            .transitions
            .iter()
            .filter(|tr| tr.crossing == Crossing::Death)
            .map(|tr| Watch {
                node: g.arc_source(tr.arc as usize),
                arc: tr.arc,
                at_cycle: tr.cycle,
                resolved: AtomicU64::new(u64::MAX),
                demand: AtomicU32::new(0),
            })
            .collect()
    });
    let fade_penalty = engine.fade_penalty();
    for penalty in fade_penalty.iter() {
        penalty.store(0, Relaxed);
    }

    let shared = SharedRun {
        g,
        router,
        dateline: engine.dateline_ref(),
        in_offsets: engine.in_offsets(),
        in_arcs: engine.in_arcs(),
        vcs,
        buffers: config.buffers as u32,
        wavelengths: config.wavelengths,
        policy: config.policy,
        hop_limit,
        stateless,
        trees,
        hot_dst,
        classified: hot_dst.is_some(),
        arena: &arena,
        allocator: &allocator,
        queues: &queues,
        src_head: &src_head,
        src_tail: &src_tail,
        src_listed: &src_listed,
        source_parked_at: &source_parked_at,
        peak: &peak,
        shard_bounds: &bounds,
        node_ready: &node_ready,
        active: &active,
        parked: &parked,
        waiter_head: &waiter_head,
        waiter_link: &waiter_link,
        delivered_per_link: &delivered_per_link,
        capacity: capacity.as_deref(),
        fade_penalty,
        watches: &watches,
        stranded_policy: engine.stranded_policy(),
        repair,
        cycle: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };

    let mut main = MainState {
        consumed: 0,
        in_network: 0,
        in_copies: 0,
        replicated: 0,
        injected: 0,
        delivered: 0,
        dropped_full: 0,
        dropped_unroutable: 0,
        dropped_ttl: 0,
        delivered_hops: 0,
        max_hops: 0,
        waits: WaitHistogram::default(),
        class_injected: [0; 2],
        class_delivered: [0; 2],
        class_dropped: [0; 2],
        class_waits: [WaitHistogram::default(), WaitHistogram::default()],
        dateline_promotions: 0,
        dateline_relief: 0,
        source_stall_cycles: 0,
        woken: Vec::new(),
        backlog: VecDeque::new(),
        dropped_stranded: 0,
        stranded_reinjected: 0,
        link_down_events: 0,
        link_up_events: 0,
        capacity_events: 0,
        repair_runs_patched: Vec::new(),
        repair_rows_patched: 0,
        // Publication accounting reads the router directly (not the
        // gated `repair`), so whether a run reads snapshots never
        // shows in its report.
        last_snapshot_epoch: router.as_repair().map_or(0, |r| r.snapshot_epoch()),
        snapshot_publications: 0,
        snapshot_runs_published: 0,
        deadlocked: false,
        cycle: 0,
    };

    let mut dec = Decoder {
        source,
        chunk: Vec::new(),
        resident: usize::MAX,
        next: 0,
        newly_listed: vec![Vec::new(); threads],
    };

    let scratches: Vec<Mutex<WorkerScratch>> = (0..threads)
        .map(|_| Mutex::new(WorkerScratch::new(vcs)))
        .collect();
    let barrier = Barrier::new(threads);

    std::thread::scope(|scope| {
        for (w, scratch) in scratches.iter().enumerate().skip(1) {
            let shared = &shared;
            let barrier = &barrier;
            let range = bounds[w]..bounds[w + 1];
            scope.spawn(move || loop {
                // ORDERING: the sequential→inject phase barrier —
                // pairs with the main thread's wait after its cycle
                // store; the synchronizes-with edge publishes `cycle`,
                // `done`, and every sequential-slot write (dynamics
                // capacity stores, stranding, backlog placement).
                barrier.wait();
                if shared.done.load(Relaxed) {
                    break;
                }
                let cycle = shared.cycle.load(Relaxed);
                {
                    let mut ws = scratch.lock().expect("inject scratch");
                    inject_list(shared, &mut ws, cycle);
                }
                // ORDERING: the inject→drain phase barrier — publishes
                // every staged push so drain's room reads
                // (`len + staged_len`) are exact boundary credits.
                barrier.wait();
                {
                    let mut ws = scratch.lock().expect("drain scratch");
                    drain_range(shared, range.clone(), cycle, &mut ws);
                }
                // ORDERING: the drain→apply phase barrier — publishes
                // committed pops and stores to the main thread's
                // sequential apply slot.
                barrier.wait();
            });
        }
        let mut event_cursor = 0usize;
        loop {
            let horizon = main.cycle >= config.max_cycles;
            if (main.consumed == items && main.in_network == 0) || horizon || main.deadlocked {
                // ORDERING: the shutdown barrier, an audited
                // relaxed-handoff (see crates/lint/allow/atomics.txt).
                // The store is
                // sequenced before this thread's `barrier.wait()`, and
                // each worker's matching wait is sequenced before its
                // `done.load`; the barrier's synchronizes-with edge
                // therefore publishes the flag — Relaxed suffices, the
                // flag itself guards no other data.
                shared.done.store(true, Relaxed);
                barrier.wait();
                break;
            }
            decode(&shared, &main, &mut dec, &scratches, offered_per_cycle);
            let mut activity = 0;
            // Link dynamics fire on the sequential slot: capacity
            // stores, stranding, repair, and wakes all happen while
            // the workers idle at the barrier, so every gate the
            // phases read is cycle-stable.
            if let Some(timeline) = timeline {
                activity +=
                    apply_dynamics(&shared, &mut main, timeline, &mut event_cursor, &scratches);
            }
            if !main.backlog.is_empty() {
                activity += place_stranded(&shared, &mut main);
            }
            shared.cycle.store(main.cycle, Relaxed);
            // ORDERING: the sequential→inject phase barrier (main
            // side) — releases the workers with the cycle number and
            // the sequential slot's writes published.
            barrier.wait();
            {
                let mut ws = scratches[0].lock().expect("inject scratch");
                inject_list(&shared, &mut ws, main.cycle);
            }
            // ORDERING: the inject→drain phase barrier (main side) —
            // staged pushes visible before any drain room read.
            barrier.wait();
            {
                let mut ws = scratches[0].lock().expect("drain scratch");
                drain_range(&shared, bounds[0]..bounds[1], main.cycle, &mut ws);
            }
            // ORDERING: the drain→apply phase barrier (main side) —
            // every worker's cycle work visible to the apply slot.
            barrier.wait();
            activity += apply(&shared, &mut main, &scratches);
            main.cycle += 1;
            let events_pending = timeline.is_some_and(|t| event_cursor < t.transitions.len());
            if activity == 0 && main.in_network > 0 && !events_pending {
                // Packets are buffered but nothing moved, injected or
                // dropped: every head waits on a full FIFO in a cycle
                // of full FIFOs. With boundary credits the queue state
                // is a pure function of itself, so no future cycle can
                // differ — a backpressure deadlock. (An idle network
                // with activity 0 is just injection pacing — and with
                // timeline events still ahead the state is *not* a
                // pure function of itself: a revival or failure may
                // yet unblock or retire the heads, so keep cycling.)
                main.deadlocked = true;
            }
        }
    });

    // Entry conservation: decoded minus consumed must equal the
    // records still waiting on the source FIFOs.
    let pending = dec.next - main.consumed;
    let queued: usize = src_head
        .iter()
        .map(|head| {
            let mut count = 0;
            let mut id = head.load(Relaxed);
            while id != NONE {
                count += 1;
                id = arena.link(id).load(Relaxed);
            }
            count
        })
        .sum();
    assert_eq!(
        queued, pending,
        "entry leak: {queued} pending records vs {} decoded − {} consumed",
        dec.next, main.consumed,
    );
    // Arena conservation: every slot handed out is either recycled
    // (retired), pooled by a worker, still pending, or still queued
    // in flight. Return the pools, then audit in copy units (a
    // multicast run's leaf-unit total is the report's `in_flight`).
    {
        let mut allocator = shared.allocator.lock().expect("arena allocator");
        for cell in &scratches {
            let mut ws = cell.lock().expect("pool return");
            allocator.release_all(ws.ids.drain(..));
        }
        assert_eq!(
            allocator.live(),
            main.in_copies + pending,
            "arena leak: {} live slots vs {} in-flight copies + {pending} pending entries",
            allocator.live(),
            main.in_copies,
        );
    }

    // Sources still parked at the end: the scan would have re-stalled
    // them in every executed cycle after they parked — settle the
    // counter so it reads identically to the unparked path.
    if main.cycle > 0 {
        for parked_at in source_parked_at.iter() {
            let at = parked_at.load(Relaxed);
            if at != u64::MAX {
                main.source_stall_cycles += (main.cycle - 1) - at;
            }
        }
    }

    finish(
        &mut main,
        &peak,
        &delivered_per_link,
        &watches,
        arcs,
        vcs,
        router,
        offered_per_cycle,
        hot_dst,
        trees,
    )
}

/// The decode step: pull every pair (or multicast `(root, group)`)
/// whose offer cycle has arrived, claim its packet record, append it
/// to its source's pending FIFO, and stage newly nonempty sources for
/// listing with their inject owner (one scratch lock per worker per
/// cycle, while the workers idle at the cycle barrier).
fn decode(
    shared: &SharedRun,
    main: &MainState,
    dec: &mut Decoder,
    scratches: &[Mutex<WorkerScratch>],
    offered_per_cycle: f64,
) {
    // Cycle the `i`-th packet's injection credit accrues: credits
    // issued through cycle `c` total `(c+1)·offered`, so packet `i` is
    // covered once that reaches `i+1`. Without stalls this is exactly
    // the injection cycle.
    let offer_cycle =
        |i: usize| (((i + 1) as f64 / offered_per_cycle).ceil() as u64).saturating_sub(1);
    // ORDERING: Relaxed — decode runs on the main thread while every
    // worker idles at the cycle barrier, so the record fields, the
    // pending-FIFO threading (src_head/src_tail/record links) and the
    // listed flags have no concurrent reader; the barrier the workers
    // pass next is the synchronizes-with edge that hands the writes to
    // the inject phase, and the scratch mutex hands over
    // `newly_listed`.
    let cycle = main.cycle;
    let n = shared.g.node_count() as u64;
    let mut allocator = shared.allocator.lock().expect("arena allocator");
    while dec.next < dec.source.len() && offer_cycle(dec.next) <= cycle {
        let (src, dst) = dec.pair(dec.next);
        debug_assert!(
            src < n,
            "`execute` checks every source before the run starts"
        );
        // A multicast entry's `dst` is its group index. A unicast
        // destination off the fabric is stored as NONE (the slab is
        // u32) and drops as unroutable at injection.
        let dst = if shared.trees.is_some() || dst < n {
            dst as u32
        } else {
            NONE
        };
        let entry = allocator.claim();
        shared.arena.init(entry, dst, offer_cycle(dec.next), 0);
        let s = src as usize;
        let tail = shared.src_tail[s].load(Relaxed);
        if tail == NONE {
            shared.src_head[s].store(entry, Relaxed);
        } else {
            shared.arena.link(tail).store(entry, Relaxed);
        }
        shared.src_tail[s].store(entry, Relaxed);
        if shared.src_listed[s].load(Relaxed) == 0 {
            shared.src_listed[s].store(1, Relaxed);
            dec.newly_listed[shared.list_owner(s)].push(src as u32);
        }
        dec.next += 1;
    }
    for (w, list) in dec.newly_listed.iter_mut().enumerate() {
        if !list.is_empty() {
            scratches[w]
                .lock()
                .expect("decode scratch")
                .sources
                .append(list);
        }
    }
}

/// The injection phase over one worker's listed sources: admit every
/// pending head each source can place, compacting the list as sources
/// drain empty or park. Listing invariant: a source is on exactly one
/// list iff its `src_listed` flag is set; delisting clears the flag,
/// and decode / the apply-step wake relist under it.
fn inject_list(shared: &SharedRun, ws: &mut WorkerScratch, cycle: u64) {
    // ORDERING: Relaxed — each source is listed with exactly one
    // worker (list_owner shards by source node), so its `src_listed`
    // flag and everything `inject_source` touches on its behalf are
    // single-writer during the inject phase.
    //
    // Refresh before the empty-list return: the drain phase that
    // follows routes by the same cached snapshot, whether or not this
    // worker has sources to inject.
    refresh_snapshot(shared, ws);
    if ws.sources.is_empty() {
        return;
    }
    let mut list = std::mem::take(&mut ws.sources);
    if !shared.stateless {
        // Sequential (adaptive-router) injection: stalled sources
        // stay listed and retry every cycle, so rotate the scan start
        // or the first-listed would persistently win the buffer room
        // the later ones starve for. (Sharded injection doesn't need
        // this: its stalled sources park, and admission there is
        // order-free.)
        let rotation = cycle as usize % list.len();
        list.rotate_left(rotation);
    }
    let mut kept = 0;
    for i in 0..list.len() {
        let src = list[i];
        if inject_source(shared, ws, src as usize, cycle) {
            list[kept] = src;
            kept += 1;
        } else {
            shared.src_listed[src as usize].store(0, Relaxed);
        }
    }
    list.truncate(kept);
    ws.sources = list;
}

/// Re-fetch the worker's cached route snapshot when the published
/// epoch moved. Repairs republish only on the sequential slot, so one
/// check per worker per cycle — here, at the top of its inject phase,
/// the first phase after that slot — keeps every phase query on the
/// current table. An event that patched nothing leaves the epoch (and
/// this cache) untouched.
fn refresh_snapshot(shared: &SharedRun, ws: &mut WorkerScratch) {
    let Some(repair) = shared.repair else {
        return;
    };
    let epoch = repair.snapshot_epoch();
    if epoch != ws.snapshot_epoch_seen {
        ws.snapshot = repair.published_snapshot();
        debug_assert!(
            ws.snapshot.is_some(),
            "gating requires a published snapshot"
        );
        ws.snapshot_epoch_seen = epoch;
    }
}

/// Inject one source's eligible pending heads (every decoded entry is
/// already offered). Returns whether the source stays listed: `false`
/// when its queue drained or it parked (both wakes are event-driven),
/// `true` when an adaptive-router stall leaves it retrying next
/// cycle.
fn inject_source(shared: &SharedRun, ws: &mut WorkerScratch, src: usize, cycle: u64) -> bool {
    // ORDERING: Relaxed — everything here is owned by this worker for
    // the phase: the source's pending FIFO and its records are
    // sharded by source node; the queue-length probe reads occupancy
    // that only moves at phase boundaries (drain pops commit in
    // apply); the channels pushed are this source's own out-arcs; and
    // a source parks only on its own out-arc channel, so the waiter
    // list has one writer. The inject/drain barrier publishes all of
    // it.
    if shared.source_parked_at[src].load(Relaxed) != u64::MAX {
        // Still blocked on a full first-hop FIFO; its wake-up is
        // event-driven (the blocker's next committed pop).
        return false;
    }
    // Branch once per source, not once per entry: each arm runs its own
    // copy of the head loop, specialised to its step.
    match shared.trees {
        Some(trees) => inject_heads(shared, ws, src, cycle, |ws, entry| {
            inject_group(shared, trees, ws, entry, cycle)
        }),
        None => inject_heads(shared, ws, src, cycle, |ws, entry| {
            inject_pair(shared, ws, src, entry, cycle)
        }),
    }
}

/// Offer `src`'s pending heads to `step` in order until the queue
/// drains or a head blocks; see [`inject_source`] for the return.
#[inline]
fn inject_heads(
    shared: &SharedRun,
    ws: &mut WorkerScratch,
    src: usize,
    cycle: u64,
    step: impl Fn(&mut WorkerScratch, u32) -> Head,
) -> bool {
    // ORDERING: Relaxed — see `inject_source`.
    loop {
        let entry = shared.src_head[src].load(Relaxed);
        if entry == NONE {
            return false;
        }
        // Read the FIFO link first: an admitted pair joins its channel
        // as this same record, and the push rewrites its link.
        let next = shared.arena.link(entry).load(Relaxed);
        match step(ws, entry) {
            Head::Left => {
                shared.src_head[src].store(next, Relaxed);
                if next == NONE {
                    shared.src_tail[src].store(NONE, Relaxed);
                }
                ws.stats.consumed += 1;
                ws.stats.activity += 1;
            }
            Head::Blocked(chan) => {
                // This source stalls; the others go on. With a
                // stateless router the blocking channel is fixed, so
                // park the source on it until it commits a pop instead
                // of re-scanning it every cycle (the skipped stalls
                // are settled at wake time).
                ws.stats.source_stalls += 1;
                if shared.stateless {
                    shared.source_parked_at[src].store(cycle, Relaxed);
                    park(shared, chan, shared.parked.len() + src);
                    return false;
                }
                return true;
            }
        }
    }
}

/// Push `waiter` — a channel, or `channels + src` for a source — onto
/// `blocker`'s waiter list. The caller owns `blocker`'s source node
/// for the phase, which is what makes the list single-writer.
fn park(shared: &SharedRun, blocker: usize, waiter: usize) {
    // ORDERING: Relaxed — single-writer list words (see above); the
    // apply step reads them behind the drain→apply barrier.
    let first = shared.waiter_head[blocker].load(Relaxed);
    shared.waiter_link[waiter].store(first, Relaxed);
    shared.waiter_head[blocker].store(waiter as u32, Relaxed);
}

/// Offer the unicast pair `entry` at the head of `src`'s queue: deliver
/// a self-pair at the source, drop an unroutable one, admit it onto
/// its first-hop channel when that has room, else drop it (tail-drop)
/// or block on the full channel (backpressure). A pair that leaves
/// without entering the fabric retires its record.
#[inline]
fn inject_pair(
    shared: &SharedRun,
    ws: &mut WorkerScratch,
    src: usize,
    entry: u32,
    cycle: u64,
) -> Head {
    // ORDERING: Relaxed — see `inject_source`.
    let dst = shared.arena.dst(entry).load(Relaxed);
    let off_fabric = dst == NONE;
    let dst = u64::from(dst);
    let offered = shared.arena.offered(entry).load(Relaxed);
    let class = usize::from(shared.hot_dst == Some(dst));
    if src as u64 == dst {
        // Delivered without entering the network (any source-stall
        // time still counts as waiting).
        ws.stats.injected += 1;
        ws.stats.delivered += 1;
        ws.stats.class_injected[class] += 1;
        ws.stats.class_delivered[class] += 1;
        let wait = cycle - offered;
        ws.waits.push(wait);
        if shared.classified {
            ws.class_waits[class].push(wait);
        }
        ws.freed.push(entry);
        return Head::Left;
    }
    // An off-fabric destination (NONE since decode) is unroutable by
    // definition — dropped here, before any router can be asked about
    // a node that does not exist (dense tables index out of bounds,
    // compressed ones would have to invent answers).
    let hop = if off_fabric {
        Hop::NoRoute
    } else {
        route_record(shared, ws, entry, src as u64, dst, 0, cycle)
    };
    let Hop::Arc(arc) = hop else {
        // No route, or a router still answering a dead beam: the
        // packet never entered the fabric, so there is nothing to
        // strand.
        ws.stats.injected += 1;
        ws.stats.dropped_unroutable += 1;
        ws.stats.class_injected[class] += 1;
        ws.stats.class_dropped[class] += 1;
        ws.freed.push(entry);
        return Head::Left;
    };
    // A packet starts at class 0 and, like any other hop, is promoted
    // if its very first arc crosses the dateline — so the class it
    // joins is exactly the one a dateline-aware adaptive scorer
    // charged for this hop.
    let vc0 = shared.dateline.next_class_arc(0, arc);
    let chan = arc * shared.vcs + vc0 as usize;
    if shared.queues.len[chan].load(Relaxed) < shared.buffers {
        if vc0 > 0 {
            ws.stats.promotions += 1;
        }
        // The pending record enters the fabric as itself: set its
        // class, and clear the cached first hop for the next node.
        shared.arena.vc(entry).store(u32::from(vc0), Relaxed);
        shared.arena.cached_next(entry).store(NONE, Relaxed);
        push_packet(shared, chan, entry, cycle);
        ws.stats.injected += 1;
        ws.stats.entered += 1;
        ws.stats.entered_copies += 1;
        ws.stats.class_injected[class] += 1;
        return Head::Left;
    }
    match shared.policy {
        ContentionPolicy::TailDrop => {
            ws.stats.injected += 1;
            ws.stats.dropped_full += 1;
            ws.stats.class_injected[class] += 1;
            ws.stats.class_dropped[class] += 1;
            ws.freed.push(entry);
            Head::Left
        }
        ContentionPolicy::Backpressure => Head::Blocked(chan),
    }
}

/// Offer the multicast group `entry` at the head of its root's queue:
/// one copy per root-child tree arc. Under backpressure the group is
/// all-or-nothing — the first full root child blocks it. Under
/// tail-drop a full child drops with its whole subtree weight and the
/// rest inject. Root self-requests deliver at the source and
/// unroutable leaves drop here, so an injected group accounts for
/// every one of its leaves, and its record retires.
fn inject_group(
    shared: &SharedRun,
    trees: &TreeSet,
    ws: &mut WorkerScratch,
    entry: u32,
    cycle: u64,
) -> Head {
    // ORDERING: Relaxed — see `inject_source`.
    let group = shared.arena.dst(entry).load(Relaxed) as usize;
    let offered = shared.arena.offered(entry).load(Relaxed);
    let roots = trees.group_root_arcs(group);
    let root_chan = |t: u32| {
        let arc = trees.fabric_arc(t);
        let vc0 = shared.dateline.next_class_arc(0, arc);
        (arc * shared.vcs + vc0 as usize, vc0)
    };
    let has_room = |chan: usize| shared.queues.len[chan].load(Relaxed) < shared.buffers;
    if shared.policy == ContentionPolicy::Backpressure {
        // All-or-nothing: probe every root child before committing
        // anything.
        if let Some((chan, _)) = roots
            .iter()
            .map(|&t| root_chan(t))
            .find(|&(c, _)| !has_room(c))
        {
            return Head::Blocked(chan);
        }
    }
    ws.stats.injected += trees.group_leaves(group) as usize;
    // Self-requests are delivered without entering the network.
    let self_requests = trees.group_self_requests(group) as usize;
    ws.stats.delivered += self_requests;
    ws.waits
        .extend(std::iter::repeat_n(cycle - offered, self_requests));
    ws.stats.dropped_unroutable += trees.group_unroutable(group) as usize;
    for &t in roots {
        let (chan, vc0) = root_chan(t);
        if has_room(chan) {
            if vc0 > 0 {
                ws.stats.promotions += 1;
            }
            let id = claim_id(shared, ws);
            shared.arena.init(id, t, offered, vc0);
            push_packet(shared, chan, id, cycle);
            ws.stats.entered += trees.weight(t) as usize;
            ws.stats.entered_copies += 1;
        } else {
            // Only reachable under tail-drop — backpressure probed
            // every child above.
            debug_assert_eq!(shared.policy, ContentionPolicy::TailDrop);
            ws.stats.dropped_full += trees.weight(t) as usize;
        }
    }
    ws.freed.push(entry);
    Head::Left
}

/// A multicast copy's id from the worker's pool, refilled in batches —
/// one allocator lock per [`ID_BATCH`] claims. The pool headroom in
/// the allocator's capacity guarantees a refill never comes back
/// empty while the workload bound holds.
fn claim_id(shared: &SharedRun, ws: &mut WorkerScratch) -> u32 {
    if let Some(id) = ws.ids.pop() {
        return id;
    }
    shared
        .allocator
        .lock()
        .expect("arena allocator")
        .claim_batch(&mut ws.ids, ID_BATCH);
    ws.ids.pop().expect("arena overflow: id supply exhausted")
}

/// Commit a push: thread the FIFO, bump committed occupancy (which is
/// the congestion scoreboard adaptive routers read), track the peak,
/// and — when the channel just became nonempty — activate the
/// downstream node's worklist bit. (A parked channel is never empty,
/// so `len == 0` implies unparked.) Every channel has exactly one
/// pushing owner per phase: its source's inject worker, or the main
/// thread.
fn push_packet(shared: &SharedRun, chan: usize, id: u32, cycle: u64) {
    // ORDERING: Relaxed — the caller owns `chan` for the phase (its
    // source's inject worker, or the main thread in apply), so the
    // length bump and the peak load+store are single-writer plain
    // updates; adaptive routers read the lengths only in phases where
    // injection is sequential, behind a barrier.
    let len = shared.queues.push(chan, id, shared.arena);
    if len > shared.peak[chan].load(Relaxed) {
        shared.peak[chan].store(len, Relaxed);
    }
    if len == 1 {
        activate(shared, chan);
    }
    if !shared.watches.is_empty() {
        note_reroute(shared, chan, cycle);
    }
}

/// Resolve time-to-reroute watches: a packet just committed onto
/// `chan`, so any open watch at the channel's source node whose dead
/// beam is a *different* out-link has found its reroute. Reported as
/// `resolved − at_cycle + 1`, counting the event cycle itself — a
/// same-cycle re-placement took one cycle, not zero.
#[cold]
fn note_reroute(shared: &SharedRun, chan: usize, cycle: u64) {
    let arc = (chan / shared.vcs) as u32;
    let node = shared.g.arc_source(arc as usize);
    for watch in shared.watches {
        // ORDERING: Relaxed load+store, not an RMW — several pushers
        // can race this within one phase, but every competing store
        // writes the same `cycle` (phases are barrier-separated, so
        // all same-phase pushes carry one cycle value), and once the
        // slot leaves `u64::MAX` the guard skips it: the first
        // resolving cycle wins deterministically at any thread count.
        if watch.node == node
            && watch.arc != arc
            && cycle >= watch.at_cycle
            && watch.resolved.load(Relaxed) == u64::MAX
        {
            watch.resolved.store(cycle, Relaxed);
        }
    }
}

/// A packet's chosen hop rode a beam that is dead this cycle: record
/// demand against the most recent open watch on that arc, so an
/// unresolved watch reports as `reroute_unresolved` (demand existed)
/// rather than `reroute_no_demand`. Cold: only dead-target requeries
/// reach it.
#[cold]
fn note_dead_demand(shared: &SharedRun, arc: u32, cycle: u64) {
    let mut hit = None;
    for watch in shared.watches {
        if watch.arc == arc && cycle >= watch.at_cycle {
            hit = Some(watch);
        }
    }
    if let Some(watch) = hit {
        // ORDERING: Relaxed — several workers can race this within a
        // phase, but every store writes 1; idempotent.
        watch.demand.store(1, Relaxed);
    }
}

/// A channel became ready (first packet, or woken from parking):
/// count it toward its node and set the node's worklist bit.
fn activate(shared: &SharedRun, chan: usize) {
    let node = shared.g.arc_target(chan / shared.vcs) as usize;
    // ORDERING: `fetch_add`, not load+store — the sharded injection
    // phase can ready channels into the same downstream node from
    // several workers at once; the RMW's atomicity (Relaxed is all it
    // needs) guarantees exactly one caller sees the 0→1 edge and sets
    // the worklist bit (the bitset insert is itself an atomic
    // fetch_or, so a lost wakeup is impossible).
    if shared.node_ready[node].fetch_add(1, Relaxed) == 0 {
        shared.active.insert(node);
    }
}

/// Drain every active node in `range` — one worker's shard.
fn drain_range(
    shared: &SharedRun,
    range: std::ops::Range<usize>,
    cycle: u64,
    ws: &mut WorkerScratch,
) {
    // ORDERING: Relaxed — `node_ready` counters in this worker's
    // shard are written during drain only by this worker (nodes shard
    // by range); the inject phase's increments were published by the
    // barrier this worker just passed.
    shared.active.for_each_in(range, |node| {
        if shared.node_ready[node].load(Relaxed) > 0 {
            drain_node(shared, node, cycle, ws);
        }
    });
}

/// Drain one node's inbound arcs, rotating the starting arc per cycle
/// so no in-arc persistently wins the node's downstream buffer space.
fn drain_node(shared: &SharedRun, node: usize, cycle: u64, ws: &mut WorkerScratch) {
    // ORDERING: Relaxed — this worker owns `node` (and so every word
    // its inbound arcs' drains touch) for the whole drain phase; see
    // the note in `drain_range`.
    // Branch once per node, not once per packet: each arm runs its own
    // copy of the arc loop, specialised to its head step, so the
    // unicast hot path never pays for the multicast dispatch.
    match shared.trees {
        Some(trees) => drain_in_arcs(shared, node, cycle, ws, |ws, arc, _, head| {
            tree_step(shared, trees, ws, arc, cycle, head)
        }),
        None => drain_in_arcs(shared, node, cycle, ws, |ws, arc, chan, head| {
            unicast_step(shared, ws, arc, chan, node as u64, cycle, head)
        }),
    }
    if shared.node_ready[node].load(Relaxed) == 0 {
        ws.emptied.push(node as u32);
    }
}

/// [`drain_node`]'s arc rotation, with `step(ws, arc, chan, head)`
/// applied to every channel head.
#[inline]
fn drain_in_arcs(
    shared: &SharedRun,
    node: usize,
    cycle: u64,
    ws: &mut WorkerScratch,
    step: impl Fn(&mut WorkerScratch, usize, usize, u32) -> Head,
) {
    // ORDERING: Relaxed — see `drain_node`.
    let lo = shared.in_offsets[node] as usize;
    let hi = shared.in_offsets[node + 1] as usize;
    let degree = hi - lo;
    debug_assert!(degree > 0, "ready channels imply inbound arcs");
    let rotation = cycle as usize % degree;
    for offset in 0..degree {
        let arc = shared.in_arcs[lo + (rotation + offset) % degree] as usize;
        drain_arc(shared, arc, node as u64, cycle, ws, &step);
        if shared.node_ready[node].load(Relaxed) == 0 {
            break;
        }
    }
}

/// Drain one arc: up to `wavelengths` packets off its VC FIFO heads,
/// one per class per round (rotating the starting class) so no class
/// hogs the channels; a blocked head blocks only its own class.
/// `step` decides each head's fate; this loop owns the budget, the
/// pops, parking and the node's ready count.
#[inline]
fn drain_arc(
    shared: &SharedRun,
    arc: usize,
    node: u64,
    cycle: u64,
    ws: &mut WorkerScratch,
    step: &impl Fn(&mut WorkerScratch, usize, usize, u32) -> Head,
) {
    // ORDERING: Relaxed — every atomic this drain touches is owned by
    // this worker during the phase: the arc's FIFO heads and parking
    // words belong to its target node's shard; staged arrivals bump
    // `staged_len` of downstream channels whose *source* node is this
    // node, so this worker is their sole stager;
    // delivered_per_link[arc] is bumped only by the arc target's
    // owner; and room checks read phase-stable committed occupancy
    // (pops batch to apply). Cross-phase visibility is the barrier's.
    let vcs = shared.vcs;
    let vc_start = cycle as usize % vcs;
    // A faded link drains at its surviving wavelength count; a dead
    // one never has queued packets (its FIFOs were stranded at the
    // event), so a zero budget here only caps, never wedges.
    let mut budget = shared.arc_budget(arc);
    let mut parked_here = 0u32;
    ws.vc_blocked[..vcs].fill(false);
    ws.vc_pops[..vcs].fill(0);
    'link: loop {
        let mut progressed = false;
        for offset in 0..vcs {
            if budget == 0 {
                break 'link;
            }
            let vc = (vc_start + offset) % vcs;
            if ws.vc_blocked[vc] {
                continue;
            }
            let chan = arc * vcs + vc;
            if shared.parked[chan].load(Relaxed) != 0 {
                // Still waiting on its blocker's pop — costs this one
                // word load, nothing more.
                ws.vc_blocked[vc] = true;
                continue;
            }
            let head = shared.queues.head[chan].load(Relaxed);
            if head == NONE {
                ws.vc_blocked[vc] = true;
                continue;
            }
            match step(ws, arc, chan, head) {
                Head::Left => {
                    shared.queues.pop_head(chan, head, shared.arena);
                    ws.vc_pops[vc] += 1;
                    ws.stats.activity += 1;
                    budget -= 1;
                    progressed = true;
                }
                // Head-of-line block — this class only. With a
                // stateless router the blocker is fixed, and under
                // boundary credits its room can only reappear through
                // a committed pop — so park the channel on the
                // blocker's waiter list and stop re-checking it every
                // cycle. (Adaptive routers may pick a different
                // candidate next cycle: they stay ready and are
                // re-asked.)
                Head::Blocked(blocker) => {
                    ws.vc_blocked[vc] = true;
                    if shared.stateless {
                        shared.parked[chan].store(1, Relaxed);
                        park(shared, blocker, chan);
                        parked_here += 1;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // Batch this arc's pops (occupancy commits at apply) and settle
    // the node's ready count now — this worker owns it. A channel
    // leaves the ready set by emptying or by parking.
    let mut ready_loss = parked_here;
    for vc in 0..vcs {
        let popped = ws.vc_pops[vc];
        if popped > 0 {
            let chan = arc * vcs + vc;
            ws.pops.push((chan as u32, popped));
            if shared.parked[chan].load(Relaxed) == 0
                && shared.queues.head[chan].load(Relaxed) == NONE
            {
                ready_loss += 1;
            }
        }
    }
    if ready_loss > 0 {
        let ready = shared.node_ready[node as usize].load(Relaxed);
        shared.node_ready[node as usize].store(ready - ready_loss, Relaxed);
    }
}

/// Where a routing decision for a packet record landed.
enum Hop {
    /// A live out-arc of the record's node.
    Arc(usize),
    /// No route, or the router proposed a non-neighbor.
    NoRoute,
    /// Every answer rides a dead beam, even after a requery.
    Dead,
}

/// The next arc for record `id` at `node` toward `dst` on class `vc` —
/// a channel head's next hop, or a pending entry's first hop from its
/// source. A stateless router answers identically every cycle the
/// record stays put, so its answer is cached in the record and asked
/// once. Always inlined: both callers are per-hop hot paths, and the
/// cache hit must stay a word load, not a call.
#[inline(always)]
fn route_record(
    shared: &SharedRun,
    ws: &WorkerScratch,
    id: u32,
    node: u64,
    dst: u64,
    vc: u8,
    cycle: u64,
) -> Hop {
    // ORDERING: Relaxed — the calling worker owns the record for the
    // phase (see `inject_source` and `drain_arc`).
    let cached = if shared.stateless {
        shared.arena.cached_next(id).load(Relaxed)
    } else {
        NONE
    };
    let arc = if cached != NONE {
        Some(cached as usize)
    } else {
        let computed = shared
            .route_query(&ws.snapshot, node, dst, vc)
            .and_then(|next| arc_of(shared.g, node, next));
        if let (true, Some(found)) = (shared.stateless, computed) {
            shared.arena.cached_next(id).store(found as u32, Relaxed);
        }
        computed
    };
    match arc {
        None => Hop::NoRoute,
        Some(found) if shared.arc_dead(found) => {
            note_dead_demand(shared, found as u32, cycle);
            requery_dead(shared, ws, id, node, dst, vc)
        }
        Some(found) => Hop::Arc(found),
    }
}

/// Dead-target requery: record `id`'s cached (or freshly proposed) hop
/// rides a beam that has since faded to zero, so drop the cached hop
/// and re-ask once against the now-repaired routing. Cold: only hops
/// onto dead beams reach it.
#[cold]
fn requery_dead(
    shared: &SharedRun,
    ws: &WorkerScratch,
    id: u32,
    node: u64,
    dst: u64,
    vc: u8,
) -> Hop {
    // ORDERING: Relaxed — see `route_record`.
    shared.arena.cached_next(id).store(NONE, Relaxed);
    let fresh = shared
        .route_query(&ws.snapshot, node, dst, vc)
        .and_then(|next| arc_of(shared.g, node, next))
        .filter(|&fresh| !shared.arc_dead(fresh));
    match fresh {
        Some(fresh) => {
            if shared.stateless {
                shared.arena.cached_next(id).store(fresh as u32, Relaxed);
            }
            Hop::Arc(fresh)
        }
        None => Hop::Dead,
    }
}

/// The unicast drain step: deliver a packet at its destination, retire
/// one past its hop budget, else route it one hop — re-querying once
/// when the chosen beam is dead — and move it when the next channel
/// has room (or dateline relief waives the cap). A full channel drops
/// the packet under tail-drop and blocks it under backpressure.
#[inline]
fn unicast_step(
    shared: &SharedRun,
    ws: &mut WorkerScratch,
    arc: usize,
    chan: usize,
    node: u64,
    cycle: u64,
    head: u32,
) -> Head {
    // ORDERING: Relaxed — see `drain_arc`.
    let dst = shared.arena.dst(head).load(Relaxed);
    let hops_after = shared.arena.hops(head).load(Relaxed) + 1;
    let class = usize::from(shared.hot_dst == Some(dst as u64));
    if dst as u64 == node {
        ws.freed.push(head);
        ws.stats.delivered += 1;
        ws.stats.departed += 1;
        ws.stats.departed_copies += 1;
        ws.stats.class_delivered[class] += 1;
        ws.stats.delivered_hops += hops_after as u64;
        if hops_after > ws.stats.max_hops {
            ws.stats.max_hops = hops_after;
        }
        let delivered_here = shared.delivered_per_link[arc].load(Relaxed);
        shared.delivered_per_link[arc].store(delivered_here + 1, Relaxed);
        // Total time since offer minus one cycle per hop = cycles
        // spent waiting (source stall plus queueing).
        let offered = shared.arena.offered(head).load(Relaxed);
        let wait = cycle + 1 - offered - hops_after as u64;
        ws.waits.push(wait);
        if shared.classified {
            ws.class_waits[class].push(wait);
        }
        return Head::Left;
    }
    if hops_after >= shared.hop_limit {
        ws.freed.push(head);
        ws.stats.dropped_ttl += 1;
        ws.stats.departed += 1;
        ws.stats.departed_copies += 1;
        ws.stats.class_dropped[class] += 1;
        return Head::Left;
    }
    let packet_vc = shared.arena.vc(head).load(Relaxed) as u8;
    let next_arc = match route_record(shared, ws, head, node, dst as u64, packet_vc, cycle) {
        Hop::Arc(arc) => arc,
        // A router that still insists on a dead beam strands the head
        // — it is pulled out of the fabric and resolved per the
        // stranded policy at apply, instead of wedging the class
        // forever behind a link that may never come back.
        Hop::Dead => {
            shared.arena.hops(head).store(hops_after, Relaxed);
            ws.stranded.push((chan as u32, head));
            return Head::Left;
        }
        Hop::NoRoute => {
            ws.freed.push(head);
            ws.stats.dropped_unroutable += 1;
            ws.stats.departed += 1;
            ws.stats.departed_copies += 1;
            ws.stats.class_dropped[class] += 1;
            return Head::Left;
        }
    };
    let next_vc = shared.dateline.next_class_arc(packet_vc, next_arc);
    let next_chan = next_arc * shared.vcs + next_vc as usize;
    // Boundary credits: committed occupancy plus this cycle's staged
    // arrivals; same-cycle pops become room next cycle.
    let staged = shared.queues.staged_len[next_chan].load(Relaxed);
    let has_room = shared.queues.len[next_chan].load(Relaxed) + staged < shared.buffers;
    // The one move the class order cannot rank — a top-class packet
    // wrapping again — is never allowed to block (deep dateline
    // buffers): that waiver is what makes the dependency graph acyclic
    // outright, so `Backpressure` with `vcs ≥ 2` provably cannot reach
    // the all-blocked state the deadlock detector looks for. Tail-drop
    // never blocks, so it neither needs nor gets the valve.
    let relief = !has_room
        && shared.policy == ContentionPolicy::Backpressure
        && shared.dateline.needs_relief(packet_vc, next_arc);
    if has_room || relief {
        if relief {
            ws.stats.relief += 1;
        }
        shared.arena.hops(head).store(hops_after, Relaxed);
        if next_vc > packet_vc {
            ws.stats.promotions += 1;
        }
        shared.arena.vc(head).store(next_vc as u32, Relaxed);
        shared.arena.cached_next(head).store(NONE, Relaxed);
        shared.queues.staged_len[next_chan].store(staged + 1, Relaxed);
        ws.staged.push((next_chan as u32, head));
        return Head::Left;
    }
    match shared.policy {
        ContentionPolicy::TailDrop => {
            ws.freed.push(head);
            ws.stats.dropped_full += 1;
            ws.stats.departed += 1;
            ws.stats.departed_copies += 1;
            ws.stats.class_dropped[class] += 1;
            Head::Left
        }
        ContentionPolicy::Backpressure => Head::Blocked(next_chan),
    }
}

/// The multicast drain step: a drained copy delivers to the requests
/// at its tree arc's head and **replicates** — one staged child copy
/// per child tree arc, each promoted per its own arc's dateline
/// crossing. Under backpressure the branch is all-or-nothing: it
/// blocks on the first full child that relief does not exempt (trees
/// are static, so the blocker is fixed); under tail-drop a full child
/// drops with its entire subtree weight while its siblings proceed.
#[inline]
fn tree_step(
    shared: &SharedRun,
    trees: &TreeSet,
    ws: &mut WorkerScratch,
    arc: usize,
    cycle: u64,
    head: u32,
) -> Head {
    // ORDERING: Relaxed — see `drain_arc`; the replicated copies'
    // ids come from this worker's own pool.
    let t = shared.arena.dst(head).load(Relaxed);
    let hops_after = shared.arena.hops(head).load(Relaxed) + 1;
    debug_assert_eq!(trees.fabric_arc(t), arc, "copy rode the wrong link");
    if hops_after >= shared.hop_limit {
        // Unreachable for honest trees (depth ≤ diameter), but the
        // budget stays authoritative: the whole subtree retires.
        ws.freed.push(head);
        ws.stats.dropped_ttl += trees.weight(t) as usize;
        ws.stats.departed += trees.weight(t) as usize;
        ws.stats.departed_copies += 1;
        return Head::Left;
    }
    let packet_vc = shared.arena.vc(head).load(Relaxed) as u8;
    let children = trees.children(t);
    let child_chan = |child: u32| {
        let child_arc = trees.fabric_arc(child);
        let child_vc = shared.dateline.next_class_arc(packet_vc, child_arc);
        (
            child_arc,
            child_vc,
            child_arc * shared.vcs + child_vc as usize,
        )
    };
    let occupied = |chan: usize| {
        shared.queues.len[chan].load(Relaxed) + shared.queues.staged_len[chan].load(Relaxed)
    };
    if shared.policy == ContentionPolicy::Backpressure {
        // All-or-nothing branch: find the first child whose FIFO is
        // full and not relief-exempt.
        let blocker = children.iter().find_map(|&child| {
            let (child_arc, _, chan) = child_chan(child);
            (occupied(chan) >= shared.buffers
                && !shared.dateline.needs_relief(packet_vc, child_arc))
            .then_some(chan)
        });
        if let Some(blocker) = blocker {
            return Head::Blocked(blocker);
        }
    }
    // Commit: the copy leaves this FIFO, delivers its requests, and
    // replicates into its children.
    let offered = shared.arena.offered(head).load(Relaxed);
    let deliveries = trees.deliveries(t) as usize;
    if deliveries > 0 {
        ws.stats.delivered += deliveries;
        ws.stats.departed += deliveries;
        ws.stats.delivered_hops += deliveries as u64 * hops_after as u64;
        if hops_after > ws.stats.max_hops {
            ws.stats.max_hops = hops_after;
        }
        let delivered_here = shared.delivered_per_link[arc].load(Relaxed);
        shared.delivered_per_link[arc].store(delivered_here + deliveries as u64, Relaxed);
        let wait = cycle + 1 - offered - hops_after as u64;
        ws.waits.extend(std::iter::repeat_n(wait, deliveries));
    }
    for &child in children {
        let (_, child_vc, chan) = child_chan(child);
        if occupied(chan) >= shared.buffers {
            match shared.policy {
                ContentionPolicy::TailDrop => {
                    // The full child's whole subtree drops; its
                    // siblings still replicate.
                    ws.stats.dropped_full += trees.weight(child) as usize;
                    ws.stats.departed += trees.weight(child) as usize;
                    continue;
                }
                // Backpressure screened above: a full child here is
                // the relief move, admitted past the cap (deep
                // dateline buffers).
                ContentionPolicy::Backpressure => ws.stats.relief += 1,
            }
        }
        if child_vc > packet_vc {
            ws.stats.promotions += 1;
        }
        let staged = shared.queues.staged_len[chan].load(Relaxed);
        shared.queues.staged_len[chan].store(staged + 1, Relaxed);
        let id = claim_id(shared, ws);
        shared.arena.init(id, child, offered, child_vc);
        shared.arena.hops(id).store(hops_after, Relaxed);
        ws.staged.push((chan as u32, id));
        ws.stats.spawned_copies += 1;
    }
    ws.freed.push(head);
    ws.stats.departed_copies += 1;
    Head::Left
}

/// Fire every timeline transition due at this cycle: store the new
/// per-arc capacity, publish the fade penalty to the adaptive
/// congestion view, strand the FIFOs of beams that died, feed each
/// zero-crossing to the router's online repair — and, once per batch
/// with any crossing, wake the world. Runs on the sequential slot
/// (workers idle at the cycle barrier), so every gate the phases read
/// is cycle-stable.
fn apply_dynamics(
    shared: &SharedRun,
    main: &mut MainState,
    timeline: &Timeline,
    cursor: &mut usize,
    scratches: &[Mutex<WorkerScratch>],
) -> usize {
    // ORDERING: Relaxed — main thread only, workers parked at the
    // barrier; the barrier publishes the capacity/penalty stores and
    // all the stranding surgery to the next phase.
    let mut activity = 0usize;
    let mut crossed = false;
    while *cursor < timeline.transitions.len() && timeline.transitions[*cursor].cycle <= main.cycle
    {
        let tr = timeline.transitions[*cursor];
        *cursor += 1;
        let arc = tr.arc as usize;
        let caps = shared.capacity.expect("a timeline implies capacities");
        caps[arc].store(tr.capacity, Relaxed);
        main.capacity_events += 1;
        activity += 1;
        // A dead beam reads as unusably congested to adaptive
        // routers; a partial fade as proportionally loaded — the
        // missing wavelengths' share of the arc's total buffer space.
        let penalty = if tr.capacity == 0 {
            DEAD_LINK_PENALTY
        } else {
            let missing = shared.wavelengths.saturating_sub(tr.capacity as usize);
            ((missing * shared.buffers as usize * shared.vcs) / shared.wavelengths) as u32
        };
        shared.fade_penalty[arc].store(penalty, Relaxed);
        match tr.crossing {
            Crossing::Death => {
                main.link_down_events += 1;
                crossed = true;
                // Deaths apply in timeline order, so this death's
                // watch is the latest one opened.
                let watch = &shared.watches[main.link_down_events as usize - 1];
                debug_assert_eq!(watch.arc, tr.arc, "watch order tracks death order");
                if strand_channels(shared, main, arc) {
                    // Queued FIFO content at the event is demand for
                    // the beam by definition.
                    watch.demand.store(1, Relaxed);
                }
                repair_link(shared, main, arc, false);
            }
            Crossing::Revival => {
                main.link_up_events += 1;
                crossed = true;
                repair_link(shared, main, arc, true);
            }
            Crossing::None => {}
        }
    }
    if crossed {
        // One snapshot publication covers the whole batch: a 16-beam
        // storm crossing zero on the same cycle pays one table copy,
        // not sixteen. Workers are still parked, so no query can run
        // between the per-event repairs above and this publication.
        if let Some(repair) = shared.router.as_repair() {
            repair.publish_deferred();
            // A patching batch republishes the epoch snapshot; an
            // all-no-op batch leaves the epoch alone. Counted off the
            // router itself (not the gated snapshot path), so a run
            // that reads through the router reports identically.
            let epoch = repair.snapshot_epoch();
            if epoch != main.last_snapshot_epoch {
                main.last_snapshot_epoch = epoch;
                main.snapshot_publications += 1;
                main.snapshot_runs_published += repair.repair_table_runs() as u64;
            }
        }
        activity += wake_all(shared, main, scratches);
    }
    activity
}

/// Feed a zero-crossing to the router's online repair, if it carries
/// one, and record the per-event patch cost. Publication is deferred
/// to the end of the event batch (`apply_dynamics` above).
fn repair_link(shared: &SharedRun, main: &mut MainState, arc: usize, alive: bool) {
    let Some(repair) = shared.router.as_repair() else {
        return;
    };
    let from = u64::from(shared.g.arc_source(arc));
    let to = u64::from(shared.g.arc_target(arc));
    let stats = repair.apply_link_event_deferred(from, to, alive);
    main.repair_runs_patched.push(stats.runs_patched as u64);
    main.repair_rows_patched += stats.rows_patched as u64;
}

/// A beam died: pull every packet out of its VC FIFOs — into the
/// re-placement backlog or the drop counters, per policy — and settle
/// the ready/parked bookkeeping so the worklist stays exact. (The
/// channels' upstream waiters are handled by the batch's `wake_all`.)
/// Returns whether any packet was actually queued on the beam —
/// demand for the dead link.
fn strand_channels(shared: &SharedRun, main: &mut MainState, arc: usize) -> bool {
    // ORDERING: Relaxed — sequential slot; see `apply_dynamics`.
    let target = shared.g.arc_target(arc) as usize;
    let mut allocator = None;
    let mut stranded_any = false;
    for vc in 0..shared.vcs {
        let chan = arc * shared.vcs + vc;
        let mut head = shared.queues.head[chan].load(Relaxed);
        if head == NONE {
            debug_assert_eq!(shared.queues.len[chan].load(Relaxed), 0);
            continue;
        }
        stranded_any = true;
        // The nonempty channel leaves the ready set: it was counted
        // there unless parked (a parked channel is nonempty but
        // already uncounted — just clear the flag; its stale waiter
        // list entry dies in `wake_all`).
        if shared.parked[chan].load(Relaxed) == 0 {
            let ready = shared.node_ready[target].load(Relaxed);
            shared.node_ready[target].store(ready - 1, Relaxed);
            if ready == 1 {
                shared.active.remove(target);
            }
        } else {
            shared.parked[chan].store(0, Relaxed);
        }
        while head != NONE {
            let next = shared.arena.link(head).load(Relaxed);
            match shared.stranded_policy {
                StrandedPolicy::Reinject => {
                    shared.arena.cached_next(head).store(NONE, Relaxed);
                    main.backlog.push_back((head, shared.g.arc_source(arc)));
                }
                StrandedPolicy::Drop => {
                    let allocator = allocator
                        .get_or_insert_with(|| shared.allocator.lock().expect("arena allocator"));
                    drop_stranded(shared, main, allocator, head);
                }
            }
            head = next;
        }
        shared.queues.head[chan].store(NONE, Relaxed);
        shared.queues.tail[chan].store(NONE, Relaxed);
        shared.queues.len[chan].store(0, Relaxed);
    }
    stranded_any
}

/// Account one stranded packet out of the network under
/// [`StrandedPolicy::Drop`].
fn drop_stranded(
    shared: &SharedRun,
    main: &mut MainState,
    allocator: &mut ArenaAllocator,
    id: u32,
) {
    // ORDERING: Relaxed — dst is written once at injection and the
    // sequential slot reads it with every worker parked at the
    // barrier.
    let dst = u64::from(shared.arena.dst(id).load(Relaxed));
    main.dropped_stranded += 1;
    main.in_network -= 1;
    main.in_copies -= 1;
    main.class_dropped[usize::from(shared.hot_dst == Some(dst))] += 1;
    allocator.release_all(std::iter::once(id));
}

/// A beam crossed zero capacity (died or revived): wake the world.
/// The event-driven waits (parked channels and sources) are keyed to
/// one specific blocker's pop, but a capacity crossing can unblock —
/// or invalidate — *any* parked decision once routing repairs around
/// it. Rare (once per event batch with a crossing), O(channels +
/// waiters), and deterministic: it runs on the sequential slot, and
/// whatever should stay blocked simply re-parks from scratch next
/// phase. Every waiter list is emptied, so no stale entry survives to
/// wake its waiter a second time at a future pop.
fn wake_all(shared: &SharedRun, main: &mut MainState, scratches: &[Mutex<WorkerScratch>]) -> usize {
    // This slot runs before the current cycle's inject phase re-scans
    // the woken sources, so their skipped scans end at the previous
    // cycle. (Nothing parks before cycle 0's inject phase, so the
    // saturation at cycle 0 never settles anything.)
    let skipped_through = main.cycle.saturating_sub(1);
    let woken = (0..shared.waiter_head.len())
        .map(|blocker| wake_waiters(shared, main, blocker, skipped_through))
        .sum();
    relist_woken(shared, main, scratches);
    woken
}

/// Empty `blocker`'s waiter list, waking every waiter on it: a parked
/// channel rejoins the ready set; a parked source counts one stall for
/// each inject scan it skipped (every cycle after its parking cycle,
/// through `skipped_through`) and queues in `main.woken` for
/// relisting. Returns the waiters woken. A channel stranded since it
/// parked (its flag already cleared) has nothing left to wake.
fn wake_waiters(
    shared: &SharedRun,
    main: &mut MainState,
    blocker: usize,
    skipped_through: u64,
) -> usize {
    // ORDERING: Relaxed — sequential slots only (apply and the
    // dynamics slot), with every worker idle at the cycle barrier.
    let channels = shared.parked.len();
    let mut woken = 0;
    let mut waiter = shared.waiter_head[blocker].load(Relaxed);
    shared.waiter_head[blocker].store(NONE, Relaxed);
    while waiter != NONE {
        let slot = waiter as usize;
        waiter = shared.waiter_link[slot].load(Relaxed);
        if slot < channels {
            if shared.parked[slot].load(Relaxed) != 0 {
                shared.parked[slot].store(0, Relaxed);
                activate(shared, slot);
                woken += 1;
            }
        } else {
            let src = slot - channels;
            let parked_at = shared.source_parked_at[src].load(Relaxed);
            main.source_stall_cycles += skipped_through - parked_at;
            shared.source_parked_at[src].store(u64::MAX, Relaxed);
            main.woken.push(src as u32);
            woken += 1;
        }
    }
    woken
}

/// Relist the sources in `main.woken` that still have entries pending
/// with their inject owners.
fn relist_woken(shared: &SharedRun, main: &mut MainState, scratches: &[Mutex<WorkerScratch>]) {
    // ORDERING: Relaxed — sequential slots only; the next barrier
    // publishes the listing to the inject phase.
    for woken in main.woken.drain(..) {
        let src = woken as usize;
        if shared.src_listed[src].load(Relaxed) == 0 && shared.src_head[src].load(Relaxed) != NONE {
            shared.src_listed[src].store(1, Relaxed);
            scratches[shared.list_owner(src)]
                .lock()
                .expect("relist scratch")
                .sources
                .push(woken);
        }
    }
}

/// Re-place the stranded backlog (the `Reinject` policy): each packet
/// is offered to the now-repaired routing at the node the death
/// caught it; the best-ranked live out-beam with room takes it, class
/// promoted per that arc's dateline crossing. A packet whose every
/// route died drops; one that found routes but no room stays
/// backlogged for next cycle. Sequential slot, FIFO over the backlog,
/// same committed-occupancy room rule as injection.
fn place_stranded(shared: &SharedRun, main: &mut MainState) -> usize {
    // ORDERING: Relaxed — sequential slot; see `apply_dynamics`.
    let mut activity = 0usize;
    let mut allocator = None;
    let mut retry = VecDeque::new();
    while let Some((id, node)) = main.backlog.pop_front() {
        let dst = u64::from(shared.arena.dst(id).load(Relaxed));
        debug_assert_ne!(
            dst,
            u64::from(node),
            "a packet at home was delivered, not stranded"
        );
        let candidates = shared.router.ranked_candidates(u64::from(node), dst);
        let vc = shared.arena.vc(id).load(Relaxed) as u8;
        let mut placed = false;
        let mut routable = false;
        for &(_, next) in candidates.as_slice() {
            let Some(arc) = arc_of(shared.g, u64::from(node), next) else {
                continue;
            };
            if shared.arc_dead(arc) {
                continue;
            }
            routable = true;
            let next_vc = shared.dateline.next_class_arc(vc, arc);
            let chan = arc * shared.vcs + next_vc as usize;
            if shared.queues.len[chan].load(Relaxed) < shared.buffers {
                if next_vc > vc {
                    main.dateline_promotions += 1;
                }
                shared.arena.vc(id).store(u32::from(next_vc), Relaxed);
                push_packet(shared, chan, id, main.cycle);
                main.stranded_reinjected += 1;
                placed = true;
                break;
            }
        }
        if placed {
            activity += 1;
        } else if routable {
            retry.push_back((id, node));
        } else {
            // Every route from here is dead: drop now rather than
            // hold the packet hostage to a revival that may never
            // come. (A `fade:DUR` revival simply re-routes the rest.)
            let allocator =
                allocator.get_or_insert_with(|| shared.allocator.lock().expect("arena allocator"));
            drop_stranded(shared, main, allocator, id);
            activity += 1;
        }
    }
    main.backlog = retry;
    activity
}

/// The apply step: commit pops, wake parked channels and sources,
/// retire emptied nodes from the worklist, merge stats, recycle
/// retired records, land staged arrivals, then relist woken sources
/// with their inject owners. Per-channel arrival order
/// is the staging worker's drain order (every channel has exactly one
/// staging node), so the outcome is independent of the worker layout;
/// waits fold into histograms, so merge order is unobservable too.
fn apply(shared: &SharedRun, main: &mut MainState, scratches: &[Mutex<WorkerScratch>]) -> usize {
    // ORDERING: Relaxed — apply runs on the main thread alone (the
    // workers idle at the cycle barrier), so pop commits, waiter-list
    // wakes, staged-arrival pushes, and relists are sequential; the
    // drain phase's writes they consume arrived through the barrier
    // the main thread just passed, and the next cycle's barrier
    // publishes everything done here.
    let mut allocator = shared.allocator.lock().expect("arena allocator");
    let mut activity = 0usize;
    // Entered/departed are netted across ALL worker cells before they
    // touch the in-flight gauges: a packet injected by one worker and
    // delivered by another in the same cycle puts its `entered` and
    // `departed` in different cells, and folding cell-by-cell would
    // underflow `in_network`/`in_copies` when the departing cell
    // merges first.
    let mut entered = 0usize;
    let mut departed = 0usize;
    let mut claimed_copies = 0usize;
    let mut departed_copies = 0usize;
    for cell in scratches {
        let mut ws = cell.lock().expect("apply scratch");
        for &(chan, count) in &ws.pops {
            let chan = chan as usize;
            let len = shared.queues.len[chan].load(Relaxed) - count;
            shared.queues.len[chan].store(len, Relaxed);
            // A committed pop is the one event that can give this
            // channel's upstream blockers room: wake every channel and
            // injection source parked on it. (A waiter that finds the
            // FIFO full again, refilled by this cycle's staged
            // arrivals, simply re-parks on its next attempt.) This
            // cycle's inject phase already scanned the sources.
            wake_waiters(shared, main, chan, main.cycle);
        }
        ws.pops.clear();
        for &node in &ws.emptied {
            // Guarded: a wake processed earlier in this same apply may
            // have re-readied the node.
            if shared.node_ready[node as usize].load(Relaxed) == 0 {
                shared.active.remove(node as usize);
            }
        }
        ws.emptied.clear();
        let stats = std::mem::take(&mut ws.stats);
        activity += stats.activity;
        main.consumed += stats.consumed;
        main.injected += stats.injected;
        main.delivered += stats.delivered;
        entered += stats.entered;
        departed += stats.departed;
        claimed_copies += stats.entered_copies + stats.spawned_copies;
        departed_copies += stats.departed_copies;
        main.replicated += stats.spawned_copies as u64;
        main.dropped_full += stats.dropped_full;
        main.dropped_unroutable += stats.dropped_unroutable;
        main.dropped_ttl += stats.dropped_ttl;
        main.delivered_hops += stats.delivered_hops;
        main.max_hops = main.max_hops.max(stats.max_hops);
        main.dateline_promotions += stats.promotions;
        main.dateline_relief += stats.relief;
        main.source_stall_cycles += stats.source_stalls;
        for class in 0..2 {
            main.class_injected[class] += stats.class_injected[class];
            main.class_delivered[class] += stats.class_delivered[class];
            main.class_dropped[class] += stats.class_dropped[class];
        }
        for &wait in &ws.waits {
            main.waits.record(wait);
        }
        ws.waits.clear();
        for class in 0..2 {
            for &wait in &ws.class_waits[class] {
                main.class_waits[class].record(wait);
            }
            ws.class_waits[class].clear();
        }
        allocator.release_all(ws.freed.drain(..));
    }
    main.in_network += entered;
    main.in_network -= departed;
    main.in_copies += claimed_copies;
    main.in_copies -= departed_copies;
    // Dead-target strands from the drain resolve here. Cross-worker
    // order is normalized by channel id: each channel has exactly one
    // draining worker, so per-channel order is drain order and the
    // stable sort makes the merged sequence a pure function of the
    // cycle state, not the worker layout.
    let mut stranded: Vec<(u32, u32)> = Vec::new();
    for cell in scratches {
        let mut ws = cell.lock().expect("apply scratch");
        stranded.append(&mut ws.stranded);
    }
    if !stranded.is_empty() {
        stranded.sort_by_key(|&(chan, _)| chan);
        for (chan, id) in stranded {
            let node = shared.g.arc_target(chan as usize / shared.vcs);
            match shared.stranded_policy {
                StrandedPolicy::Reinject => {
                    shared.arena.cached_next(id).store(NONE, Relaxed);
                    main.backlog.push_back((id, node));
                }
                StrandedPolicy::Drop => {
                    drop_stranded(shared, main, &mut allocator, id);
                }
            }
        }
    }
    for cell in scratches {
        let mut ws = cell.lock().expect("apply scratch");
        for &(chan, id) in &ws.staged {
            shared.queues.staged_len[chan as usize].store(0, Relaxed);
            push_packet(shared, chan as usize, id, main.cycle);
        }
        ws.staged.clear();
    }
    // Woken sources with entries still pending rejoin their owner's
    // inject list.
    relist_woken(shared, main, scratches);
    activity
}

/// Fold the accumulators into the report.
#[allow(clippy::too_many_arguments)]
fn finish(
    main: &mut MainState,
    peak: &[AtomicU32],
    delivered_per_link: &[AtomicU64],
    watches: &[Watch],
    arcs: usize,
    vcs: usize,
    router: &dyn Router,
    offered_per_cycle: f64,
    hot_dst: Option<u64>,
    trees: Option<&TreeSet>,
) -> QueueingReport {
    // ORDERING: Relaxed — the worker scope has joined; these are
    // post-run folds on this thread, with visibility from the join.
    let class_stats = hot_dst.map(|_| {
        let build = |class: usize| {
            let waits = &main.class_waits[class];
            ClassStats {
                injected: main.class_injected[class],
                delivered: main.class_delivered[class],
                dropped: main.class_dropped[class],
                wait_mean_cycles: waits.mean(),
                wait_p50_cycles: waits.percentile(0.50),
                wait_p99_cycles: waits.percentile(0.99),
                wait_max_cycles: waits.max(),
            }
        };
        ClassBreakdown {
            hot: build(1),
            background: build(0),
        }
    });

    // Collapse per-channel peaks into the two views the report
    // carries: deepest FIFO per link, deepest FIFO per class.
    let peak_of = |chan: usize| peak[chan].load(Relaxed);
    let peak_occupancy: Vec<u32> = (0..arcs)
        .map(|arc| {
            (0..vcs)
                .map(|vc| peak_of(arc * vcs + vc))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let vc_peak_occupancy: Vec<u32> = (0..vcs)
        .map(|vc| {
            (0..arcs)
                .map(|arc| peak_of(arc * vcs + vc))
                .max()
                .unwrap_or(0)
        })
        .collect();

    // Time-to-reroute: settle only the watches whose death actually
    // fired before the run ended. Deaths apply in timeline order, so
    // the applied ones are exactly the first `link_down_events`
    // watches; a scheduled death past the horizon is neither a
    // reroute nor a failure to reroute. An unresolved watch splits on
    // demand: packets wanted the beam and never rerouted
    // (`reroute_unresolved`) vs nothing ever asked for it
    // (`reroute_no_demand`).
    let mut time_to_reroute_cycles = Vec::new();
    let mut reroute_unresolved = 0u64;
    let mut reroute_no_demand = 0u64;
    for watch in &watches[..main.link_down_events as usize] {
        let resolved = watch.resolved.load(Relaxed);
        if resolved != u64::MAX {
            time_to_reroute_cycles.push(resolved - watch.at_cycle + 1);
        } else if watch.demand.load(Relaxed) != 0 {
            reroute_unresolved += 1;
        } else {
            reroute_no_demand += 1;
        }
    }
    let table_runs_total = router
        .as_repair()
        .map_or(0, |repair| repair.repair_table_runs() as u64);

    QueueingReport {
        router: router.name(),
        offered_per_cycle,
        cycles: main.cycle,
        injected: main.injected,
        delivered: main.delivered,
        dropped_full: main.dropped_full,
        dropped_unroutable: main.dropped_unroutable,
        dropped_ttl: main.dropped_ttl,
        in_flight: main.in_network,
        deadlocked: main.deadlocked,
        vcs,
        dateline_promotions: main.dateline_promotions,
        dateline_relief: main.dateline_relief,
        source_stall_cycles: main.source_stall_cycles,
        delivered_hops: main.delivered_hops,
        max_hops: main.max_hops,
        wait_mean_cycles: main.waits.mean(),
        wait_p50_cycles: main.waits.percentile(0.50),
        wait_p99_cycles: main.waits.percentile(0.99),
        wait_max_cycles: main.waits.max(),
        max_peak_occupancy: peak_occupancy.iter().copied().max().unwrap_or(0),
        peak_occupancy,
        vc_peak_occupancy,
        delivered_per_link: delivered_per_link
            .iter()
            .map(|count| count.load(Relaxed))
            .collect(),
        multicast_groups: trees.map_or(0, |_| main.consumed),
        replicated_copies: main.replicated,
        multicast_forwarding_index: trees.map_or(0, TreeSet::forwarding_index),
        class_stats,
        link_down_events: main.link_down_events,
        link_up_events: main.link_up_events,
        capacity_events: main.capacity_events,
        dropped_stranded: main.dropped_stranded,
        stranded_reinjected: main.stranded_reinjected,
        time_to_reroute_cycles,
        reroute_unresolved,
        reroute_no_demand,
        repair_runs_patched: std::mem::take(&mut main.repair_runs_patched),
        repair_rows_patched: main.repair_rows_patched,
        table_runs_total,
        snapshot_publications: main.snapshot_publications,
        snapshot_runs_published: main.snapshot_runs_published,
    }
}
