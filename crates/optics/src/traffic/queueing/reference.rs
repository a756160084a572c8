//! The pre-arena queueing engine, frozen as an ablation baseline.
//!
//! This is the engine as it stood before the packet-arena /
//! active-worklist / parallel-drain rewrite: one `VecDeque<Packet>`
//! per (link, VC) channel, a full `O(arcs × vcs)` scan every cycle,
//! one router query per drain attempt (blocked heads re-ask every
//! cycle), and *live* room credits — a slot freed earlier in the scan
//! is claimable later in the same cycle, which ties outcomes to scan
//! order and is exactly what the rewrite's boundary credits removed
//! to make sharded draining deterministic.
//!
//! It exists to be measured against: the `routing_sim` bench asserts
//! the rewritten [`super::QueueingEngine`] clears ≥ 5× this engine's
//! cycles/second on the hotspot acceptance shape, and the integration
//! tests check the two engines agree wherever the credit-timing
//! difference cannot matter (uncontended and delivery-only
//! scenarios). Do not grow features here — it is a yardstick, not a
//! product.

use super::super::report::{percentile_u64, ClassBreakdown, ClassStats, QueueingReport};
use super::{arc_of, ContentionPolicy, LinkOccupancy, QueueConfig};
use otis_core::{Dateline, DigraphFamily, Router};
use otis_digraph::Digraph;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A packet in flight. `offered_cycle` is when the packet's injection
/// credit accrued, not when a stalled source finally bought it a
/// buffer slot — so queueing delay includes source stalling.
#[derive(Debug, Clone, Copy)]
struct Packet {
    dst: u64,
    offered_cycle: u64,
    hops: u32,
    /// Dateline VC class the packet currently occupies.
    vc: u8,
}

/// The pre-rewrite cycle-accurate queueing simulator. Same model and
/// report type as [`super::QueueingEngine`], legacy hot path and
/// legacy live-credit semantics. See the module docs for why it is
/// kept.
pub struct ReferenceEngine {
    g: Arc<Digraph>,
    config: QueueConfig,
    /// One counter per (arc, VC class), arc-major — the live
    /// occupancy scoreboard behind [`LinkOccupancy`].
    counts: Arc<[AtomicU32]>,
    /// The dateline wrap set, computed once per engine.
    dateline: Arc<Dateline>,
}

impl ReferenceEngine {
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
        let counts: Vec<AtomicU32> = (0..g.arc_count() * config.vcs)
            .map(|_| AtomicU32::new(0))
            .collect();
        let g = Arc::new(g);
        let dateline = Arc::new(Dateline::new(Arc::clone(&g), config.vcs));
        ReferenceEngine {
            g,
            config,
            counts: counts.into(),
            dateline,
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

    /// The dateline discipline, shared like the main engine's.
    pub fn dateline(&self) -> Arc<Dateline> {
        Arc::clone(&self.dateline)
    }

    /// A live view of this engine's buffer occupancy (unlike the main
    /// engine's cycle-stable view, this one moves mid-cycle — the
    /// legacy behavior).
    pub fn occupancy(&self) -> LinkOccupancy {
        LinkOccupancy {
            g: Arc::clone(&self.g),
            counts: Arc::clone(&self.counts),
            // The reference engine has no link dynamics: zero fade
            // penalty on every arc, so the view reads pure occupancy.
            penalty: (0..self.g.arc_count()).map(|_| AtomicU32::new(0)).collect(),
            vcs: self.config.vcs,
        }
    }

    /// The arc `from → to`, if present.
    fn arc_of(&self, from: u64, to: u64) -> Option<usize> {
        arc_of(&self.g, from, to)
    }

    /// As [`super::QueueingEngine::run`], on the legacy hot path.
    pub fn run(
        &self,
        router: &dyn Router,
        workload: &[(u64, u64)],
        offered_per_cycle: f64,
    ) -> QueueingReport {
        self.run_classified(router, workload, offered_per_cycle, None)
    }

    /// As [`super::QueueingEngine::run_streamed_classified`] over an
    /// explicit pair list, on the legacy hot path.
    pub fn run_classified(
        &self,
        router: &dyn Router,
        workload: &[(u64, u64)],
        offered_per_cycle: f64,
        hot_dst: Option<u64>,
    ) -> QueueingReport {
        assert!(
            offered_per_cycle > 0.0,
            "offered load must be positive, got {offered_per_cycle}"
        );
        let n = self.node_count();
        assert_eq!(
            router.node_count(),
            n,
            "router covers {} nodes but the fabric has {n}",
            router.node_count()
        );
        let arcs = self.g.arc_count();
        let vcs = self.config.vcs;
        let channels = arcs * vcs;
        let dateline = &self.dateline;
        let hop_limit = self
            .config
            .hop_limit
            .unwrap_or_else(|| (2 * n).max(64) as u32);
        let buffers = self.config.buffers;
        let wavelengths = self.config.wavelengths;

        let mut queues: Vec<VecDeque<Packet>> = (0..channels).map(|_| VecDeque::new()).collect();
        // ORDERING: Relaxed everywhere this run touches the occupancy
        // scoreboard — the reference engine is single-threaded, so the
        // counters are atomic only because the `LinkOccupancy` type is
        // shared with the parallel engine; there is no concurrent
        // writer to order against, and adaptive routers probe from
        // this same thread.
        for count in self.counts.iter() {
            count.store(0, Ordering::Relaxed);
        }
        let mut peak = vec![0u32; channels];
        // Arrivals staged during the drain phase so a packet moves at
        // most one hop per cycle; `staged_len[chan]` counts them
        // toward the capacity check before they land in the FIFO.
        let mut staged: Vec<(usize, Packet)> = Vec::new();
        let mut staged_len = vec![0u32; channels];
        // Per-(link, class) head-of-line block flags, reused across
        // the drain loop.
        let mut vc_blocked = vec![false; vcs];

        // Per-source injection queues: each source owns its packets in
        // workload order, so a backpressured source stalls only
        // itself.
        let mut sources: Vec<VecDeque<usize>> = vec![VecDeque::new(); n as usize];
        for (index, &(src, _)) in workload.iter().enumerate() {
            assert!(
                src < n,
                "workload source {src} is not a fabric node (fabric has {n})"
            );
            sources[src as usize].push_back(index);
        }
        let source_ids: Vec<usize> = (0..n as usize)
            .filter(|&src| !sources[src].is_empty())
            .collect();

        let mut injected = 0usize;
        let mut pending = workload.len();
        let mut delivered = 0usize;
        let mut dropped_full = 0usize;
        let mut dropped_unroutable = 0usize;
        let mut dropped_ttl = 0usize;
        let mut delivered_hops = 0u64;
        let mut max_hops = 0u32;
        let mut waits: Vec<u64> = Vec::with_capacity(workload.len());
        let mut deadlocked = false;
        let mut dateline_promotions = 0u64;
        let mut dateline_relief = 0u64;
        let mut source_stall_cycles = 0u64;
        let mut delivered_per_link = vec![0u64; arcs];

        // Per-class (background = 0, hot = 1) accounting, populated
        // only when the run is classified.
        let classified = hot_dst.is_some();
        let class_of = |dst: u64| usize::from(hot_dst == Some(dst));
        let mut class_injected = [0usize; 2];
        let mut class_delivered = [0usize; 2];
        let mut class_dropped = [0usize; 2];
        let mut class_waits: [Vec<u64>; 2] = [Vec::new(), Vec::new()];

        let mut in_network = 0usize;
        let mut cycle = 0u64;
        // Cycle the `i`-th packet's injection credit accrues.
        let offer_cycle =
            |i: usize| (((i + 1) as f64 / offered_per_cycle).ceil() as u64).saturating_sub(1);

        let bump = |counts: &Arc<[AtomicU32]>, chan: usize, delta: i32| {
            if delta >= 0 {
                counts[chan].fetch_add(delta as u32, Ordering::Relaxed);
            } else {
                counts[chan].fetch_sub((-delta) as u32, Ordering::Relaxed);
            }
        };

        while (pending > 0 || in_network > 0) && cycle < self.config.max_cycles {
            let mut activity = 0usize;

            // --- injection phase -------------------------------------
            let scan_count = if pending == 0 { 0 } else { source_ids.len() };
            let source_start = if source_ids.is_empty() {
                0
            } else {
                cycle as usize % source_ids.len()
            };
            for scan in 0..scan_count {
                let src = source_ids[(source_start + scan) % source_ids.len()];
                while let Some(&index) = sources[src].front() {
                    if offer_cycle(index) > cycle {
                        break;
                    }
                    let (_, dst) = workload[index];
                    let class = class_of(dst);
                    if src as u64 == dst {
                        sources[src].pop_front();
                        pending -= 1;
                        injected += 1;
                        delivered += 1;
                        class_injected[class] += 1;
                        class_delivered[class] += 1;
                        let wait = cycle - offer_cycle(index);
                        waits.push(wait);
                        if classified {
                            class_waits[class].push(wait);
                        }
                        activity += 1;
                        continue;
                    }
                    let arc = router
                        .next_hop_on_vc(src as u64, dst, 0)
                        .and_then(|next| self.arc_of(src as u64, next));
                    let Some(arc) = arc else {
                        sources[src].pop_front();
                        pending -= 1;
                        injected += 1;
                        dropped_unroutable += 1;
                        class_injected[class] += 1;
                        class_dropped[class] += 1;
                        activity += 1;
                        continue;
                    };
                    let vc0 = dateline.next_class_arc(0, arc);
                    let chan = arc * vcs + vc0 as usize;
                    if queues[chan].len() < buffers {
                        sources[src].pop_front();
                        pending -= 1;
                        if vc0 > 0 {
                            dateline_promotions += 1;
                        }
                        queues[chan].push_back(Packet {
                            dst,
                            offered_cycle: offer_cycle(index),
                            hops: 0,
                            vc: vc0,
                        });
                        bump(&self.counts, chan, 1);
                        peak[chan] = peak[chan].max(queues[chan].len() as u32);
                        in_network += 1;
                        injected += 1;
                        class_injected[class] += 1;
                        activity += 1;
                    } else {
                        match self.config.policy {
                            ContentionPolicy::TailDrop => {
                                sources[src].pop_front();
                                pending -= 1;
                                injected += 1;
                                dropped_full += 1;
                                class_injected[class] += 1;
                                class_dropped[class] += 1;
                                activity += 1;
                            }
                            ContentionPolicy::Backpressure => {
                                source_stall_cycles += 1;
                                break;
                            }
                        }
                    }
                }
            }

            // --- drain phase -----------------------------------------
            // The legacy full scan: every arc, every cycle, rotated.
            let link_start = if arcs == 0 { 0 } else { cycle as usize % arcs };
            let vc_start = cycle as usize % vcs;
            for step in 0..arcs {
                let arc = (link_start + step) % arcs;
                let arrive_at = self.g.arc_target(arc) as u64;
                let mut budget = wavelengths;
                vc_blocked.fill(false);
                'link: loop {
                    let mut progressed = false;
                    for offset in 0..vcs {
                        if budget == 0 {
                            break 'link;
                        }
                        let vc = (vc_start + offset) % vcs;
                        if vc_blocked[vc] {
                            continue;
                        }
                        let chan = arc * vcs + vc;
                        let Some(&head) = queues[chan].front() else {
                            vc_blocked[vc] = true;
                            continue;
                        };
                        let hops_after = head.hops + 1;
                        if head.dst == arrive_at {
                            queues[chan].pop_front();
                            bump(&self.counts, chan, -1);
                            in_network -= 1;
                            delivered += 1;
                            class_delivered[class_of(head.dst)] += 1;
                            delivered_per_link[arc] += 1;
                            delivered_hops += hops_after as u64;
                            max_hops = max_hops.max(hops_after);
                            let wait = cycle + 1 - head.offered_cycle - hops_after as u64;
                            waits.push(wait);
                            if classified {
                                class_waits[class_of(head.dst)].push(wait);
                            }
                            activity += 1;
                            budget -= 1;
                            progressed = true;
                            continue;
                        }
                        if hops_after >= hop_limit {
                            queues[chan].pop_front();
                            bump(&self.counts, chan, -1);
                            in_network -= 1;
                            dropped_ttl += 1;
                            class_dropped[class_of(head.dst)] += 1;
                            activity += 1;
                            budget -= 1;
                            progressed = true;
                            continue;
                        }
                        let next_arc = router
                            .next_hop_on_vc(arrive_at, head.dst, head.vc)
                            .and_then(|next| self.arc_of(arrive_at, next));
                        let Some(next_arc) = next_arc else {
                            queues[chan].pop_front();
                            bump(&self.counts, chan, -1);
                            in_network -= 1;
                            dropped_unroutable += 1;
                            class_dropped[class_of(head.dst)] += 1;
                            activity += 1;
                            budget -= 1;
                            progressed = true;
                            continue;
                        };
                        let next_vc = dateline.next_class_arc(head.vc, next_arc);
                        let next_chan = next_arc * vcs + next_vc as usize;
                        // Live credits: same-cycle pops already freed
                        // room for later-scanned arcs.
                        let has_room =
                            queues[next_chan].len() + (staged_len[next_chan] as usize) < buffers;
                        let relief = !has_room
                            && self.config.policy == ContentionPolicy::Backpressure
                            && dateline.needs_relief(head.vc, next_arc);
                        if relief {
                            dateline_relief += 1;
                        }
                        if has_room || relief {
                            let mut packet = queues[chan].pop_front().expect("head exists");
                            bump(&self.counts, chan, -1);
                            packet.hops = hops_after;
                            if next_vc > packet.vc {
                                dateline_promotions += 1;
                            }
                            packet.vc = next_vc;
                            staged_len[next_chan] += 1;
                            bump(&self.counts, next_chan, 1);
                            staged.push((next_chan, packet));
                            activity += 1;
                            budget -= 1;
                            progressed = true;
                        } else {
                            match self.config.policy {
                                ContentionPolicy::TailDrop => {
                                    queues[chan].pop_front();
                                    bump(&self.counts, chan, -1);
                                    in_network -= 1;
                                    dropped_full += 1;
                                    class_dropped[class_of(head.dst)] += 1;
                                    activity += 1;
                                    budget -= 1;
                                    progressed = true;
                                }
                                // Head-of-line block — this class only.
                                ContentionPolicy::Backpressure => vc_blocked[vc] = true,
                            }
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            }
            for (chan, packet) in staged.drain(..) {
                queues[chan].push_back(packet);
                peak[chan] = peak[chan].max(queues[chan].len() as u32);
            }
            staged_len.fill(0);

            cycle += 1;
            if activity == 0 && in_network > 0 {
                deadlocked = true;
                break;
            }
        }

        let in_flight = in_network;
        waits.sort_unstable();
        let wait_mean = |waits: &[u64]| {
            if waits.is_empty() {
                0.0
            } else {
                waits.iter().sum::<u64>() as f64 / waits.len() as f64
            }
        };
        let wait_mean_cycles = wait_mean(&waits);

        let class_stats = hot_dst.map(|_| {
            let mut build = |class: usize| {
                class_waits[class].sort_unstable();
                let waits = &class_waits[class];
                ClassStats {
                    injected: class_injected[class],
                    delivered: class_delivered[class],
                    dropped: class_dropped[class],
                    wait_mean_cycles: wait_mean(waits),
                    wait_p50_cycles: percentile_u64(waits, 0.50),
                    wait_p99_cycles: percentile_u64(waits, 0.99),
                    wait_max_cycles: waits.last().copied().unwrap_or(0),
                }
            };
            ClassBreakdown {
                hot: build(1),
                background: build(0),
            }
        });

        let peak_occupancy: Vec<u32> = (0..arcs)
            .map(|arc| (0..vcs).map(|vc| peak[arc * vcs + vc]).max().unwrap_or(0))
            .collect();
        let vc_peak_occupancy: Vec<u32> = (0..vcs)
            .map(|vc| (0..arcs).map(|arc| peak[arc * vcs + vc]).max().unwrap_or(0))
            .collect();

        QueueingReport {
            router: router.name(),
            offered_per_cycle,
            cycles: cycle,
            injected,
            delivered,
            dropped_full,
            dropped_unroutable,
            dropped_ttl,
            in_flight,
            deadlocked,
            vcs,
            dateline_promotions,
            dateline_relief,
            source_stall_cycles,
            delivered_hops,
            max_hops,
            wait_mean_cycles,
            wait_p50_cycles: percentile_u64(&waits, 0.50),
            wait_p99_cycles: percentile_u64(&waits, 0.99),
            wait_max_cycles: waits.last().copied().unwrap_or(0),
            max_peak_occupancy: peak_occupancy.iter().copied().max().unwrap_or(0),
            peak_occupancy,
            vc_peak_occupancy,
            delivered_per_link,
            multicast_groups: 0,
            replicated_copies: 0,
            multicast_forwarding_index: 0,
            class_stats,
            link_down_events: 0,
            link_up_events: 0,
            capacity_events: 0,
            dropped_stranded: 0,
            stranded_reinjected: 0,
            time_to_reroute_cycles: Vec::new(),
            reroute_unresolved: 0,
            reroute_no_demand: 0,
            repair_runs_patched: Vec::new(),
            repair_rows_patched: 0,
            table_runs_total: 0,
            snapshot_publications: 0,
            snapshot_runs_published: 0,
        }
    }

    /// As [`super::QueueingEngine::run_multicast`], on the legacy hot
    /// path: the same replication rule — one copy per tree arc,
    /// spawned at branch nodes, delivery counted per destination leaf,
    /// `injected_leaves = delivered + dropped + in_flight` — over the
    /// full `O(arcs × vcs)` scan and live room credits. The
    /// differential battery pins the rewritten engine against this on
    /// uncontended runs, where credit timing cannot matter.
    pub fn run_multicast(
        &self,
        router: &dyn Router,
        groups: &[crate::traffic::MulticastGroup],
        offered_per_cycle: f64,
    ) -> QueueingReport {
        assert!(
            offered_per_cycle > 0.0,
            "offered load must be positive, got {offered_per_cycle}"
        );
        let n = self.node_count();
        assert_eq!(
            router.node_count(),
            n,
            "router covers {} nodes but the fabric has {n}",
            router.node_count()
        );
        let trees = super::TreeSet::build(&self.g, router, groups);
        let arcs = self.g.arc_count();
        let vcs = self.config.vcs;
        let channels = arcs * vcs;
        let dateline = &self.dateline;
        let hop_limit = self
            .config
            .hop_limit
            .unwrap_or_else(|| (2 * n).max(64) as u32);
        let buffers = self.config.buffers;
        let wavelengths = self.config.wavelengths;

        /// One tree copy in flight.
        #[derive(Clone, Copy)]
        struct Copy {
            tree_arc: u32,
            offered_cycle: u64,
            hops: u32,
            vc: u8,
        }

        let mut queues: Vec<VecDeque<Copy>> = (0..channels).map(|_| VecDeque::new()).collect();
        // ORDERING: Relaxed — single-threaded run; see the unicast
        // runner's note. Atomic type shared with `LinkOccupancy`, no
        // concurrent writer exists.
        for count in self.counts.iter() {
            count.store(0, Ordering::Relaxed);
        }
        let mut peak = vec![0u32; channels];
        let mut staged: Vec<(usize, Copy)> = Vec::new();
        let mut staged_len = vec![0u32; channels];
        let mut vc_blocked = vec![false; vcs];

        let mut sources: Vec<VecDeque<usize>> = vec![VecDeque::new(); n as usize];
        for group in 0..trees.group_count() {
            let root = trees.group_root(group);
            assert!(
                root < n,
                "group root {root} is not a fabric node (fabric has {n})"
            );
            sources[root as usize].push_back(group);
        }
        let source_ids: Vec<usize> = (0..n as usize)
            .filter(|&src| !sources[src].is_empty())
            .collect();

        let mut injected = 0usize;
        let mut groups_injected = 0usize;
        let mut replicated = 0u64;
        let mut pending = trees.group_count();
        let mut delivered = 0usize;
        let mut dropped_full = 0usize;
        let mut dropped_unroutable = 0usize;
        let mut dropped_ttl = 0usize;
        let mut delivered_hops = 0u64;
        let mut max_hops = 0u32;
        let mut waits: Vec<u64> = Vec::new();
        let mut deadlocked = false;
        let mut dateline_promotions = 0u64;
        let mut dateline_relief = 0u64;
        let mut source_stall_cycles = 0u64;
        let mut delivered_per_link = vec![0u64; arcs];
        let mut in_network = 0usize; // leaf units
        let mut cycle = 0u64;
        let offer_cycle =
            |i: usize| (((i + 1) as f64 / offered_per_cycle).ceil() as u64).saturating_sub(1);

        let bump = |counts: &Arc<[AtomicU32]>, chan: usize, delta: i32| {
            if delta >= 0 {
                counts[chan].fetch_add(delta as u32, Ordering::Relaxed);
            } else {
                counts[chan].fetch_sub((-delta) as u32, Ordering::Relaxed);
            }
        };

        while (pending > 0 || in_network > 0) && cycle < self.config.max_cycles {
            let mut activity = 0usize;

            // --- injection phase ---------------------------------
            let scan_count = if pending == 0 { 0 } else { source_ids.len() };
            let source_start = if source_ids.is_empty() {
                0
            } else {
                cycle as usize % source_ids.len()
            };
            for scan in 0..scan_count {
                let src = source_ids[(source_start + scan) % source_ids.len()];
                'groups: while let Some(&group) = sources[src].front() {
                    if offer_cycle(group) > cycle {
                        break;
                    }
                    let roots = trees.group_root_arcs(group);
                    if self.config.policy == ContentionPolicy::Backpressure {
                        for &t in roots {
                            let arc = trees.fabric_arc(t);
                            let vc0 = dateline.next_class_arc(0, arc);
                            let chan = arc * vcs + vc0 as usize;
                            if queues[chan].len() >= buffers {
                                source_stall_cycles += 1;
                                break 'groups;
                            }
                        }
                    }
                    sources[src].pop_front();
                    pending -= 1;
                    groups_injected += 1;
                    injected += trees.group_leaves(group) as usize;
                    let self_requests = trees.group_self_requests(group) as usize;
                    if self_requests > 0 {
                        delivered += self_requests;
                        let wait = cycle - offer_cycle(group);
                        for _ in 0..self_requests {
                            waits.push(wait);
                        }
                    }
                    dropped_unroutable += trees.group_unroutable(group) as usize;
                    for &t in roots {
                        let arc = trees.fabric_arc(t);
                        let vc0 = dateline.next_class_arc(0, arc);
                        let chan = arc * vcs + vc0 as usize;
                        if queues[chan].len() < buffers {
                            if vc0 > 0 {
                                dateline_promotions += 1;
                            }
                            queues[chan].push_back(Copy {
                                tree_arc: t,
                                offered_cycle: offer_cycle(group),
                                hops: 0,
                                vc: vc0,
                            });
                            bump(&self.counts, chan, 1);
                            peak[chan] = peak[chan].max(queues[chan].len() as u32);
                            in_network += trees.weight(t) as usize;
                        } else {
                            debug_assert_eq!(self.config.policy, ContentionPolicy::TailDrop);
                            dropped_full += trees.weight(t) as usize;
                        }
                    }
                    activity += 1;
                }
            }

            // --- drain phase -------------------------------------
            let link_start = if arcs == 0 { 0 } else { cycle as usize % arcs };
            let vc_start = cycle as usize % vcs;
            for step in 0..arcs {
                let arc = (link_start + step) % arcs;
                let mut budget = wavelengths;
                vc_blocked.fill(false);
                'link: loop {
                    let mut progressed = false;
                    for offset in 0..vcs {
                        if budget == 0 {
                            break 'link;
                        }
                        let vc = (vc_start + offset) % vcs;
                        if vc_blocked[vc] {
                            continue;
                        }
                        let chan = arc * vcs + vc;
                        let Some(&head) = queues[chan].front() else {
                            vc_blocked[vc] = true;
                            continue;
                        };
                        let t = head.tree_arc;
                        let hops_after = head.hops + 1;
                        if hops_after >= hop_limit {
                            queues[chan].pop_front();
                            bump(&self.counts, chan, -1);
                            dropped_ttl += trees.weight(t) as usize;
                            in_network -= trees.weight(t) as usize;
                            activity += 1;
                            budget -= 1;
                            progressed = true;
                            continue;
                        }
                        let children = trees.children(t);
                        if self.config.policy == ContentionPolicy::Backpressure {
                            let blocked = children.iter().any(|&child| {
                                let child_arc = trees.fabric_arc(child);
                                let child_vc = dateline.next_class_arc(head.vc, child_arc);
                                let child_chan = child_arc * vcs + child_vc as usize;
                                queues[child_chan].len() + staged_len[child_chan] as usize
                                    >= buffers
                                    && !dateline.needs_relief(head.vc, child_arc)
                            });
                            if blocked {
                                vc_blocked[vc] = true;
                                continue;
                            }
                        }
                        queues[chan].pop_front();
                        bump(&self.counts, chan, -1);
                        let deliveries = trees.deliveries(t) as usize;
                        if deliveries > 0 {
                            delivered += deliveries;
                            in_network -= deliveries;
                            delivered_per_link[arc] += deliveries as u64;
                            delivered_hops += deliveries as u64 * hops_after as u64;
                            max_hops = max_hops.max(hops_after);
                            let wait = cycle + 1 - head.offered_cycle - hops_after as u64;
                            for _ in 0..deliveries {
                                waits.push(wait);
                            }
                        }
                        for &child in children {
                            let child_arc = trees.fabric_arc(child);
                            let child_vc = dateline.next_class_arc(head.vc, child_arc);
                            let child_chan = child_arc * vcs + child_vc as usize;
                            let occupied =
                                queues[child_chan].len() + staged_len[child_chan] as usize;
                            if occupied >= buffers {
                                match self.config.policy {
                                    ContentionPolicy::TailDrop => {
                                        dropped_full += trees.weight(child) as usize;
                                        in_network -= trees.weight(child) as usize;
                                        continue;
                                    }
                                    ContentionPolicy::Backpressure => dateline_relief += 1,
                                }
                            }
                            if child_vc > head.vc {
                                dateline_promotions += 1;
                            }
                            staged_len[child_chan] += 1;
                            bump(&self.counts, child_chan, 1);
                            replicated += 1;
                            staged.push((
                                child_chan,
                                Copy {
                                    tree_arc: child,
                                    offered_cycle: head.offered_cycle,
                                    hops: hops_after,
                                    vc: child_vc,
                                },
                            ));
                        }
                        activity += 1;
                        budget -= 1;
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
            }
            for (chan, copy) in staged.drain(..) {
                queues[chan].push_back(copy);
                peak[chan] = peak[chan].max(queues[chan].len() as u32);
            }
            staged_len.fill(0);

            cycle += 1;
            if activity == 0 && in_network > 0 {
                deadlocked = true;
                break;
            }
        }

        waits.sort_unstable();
        let wait_mean_cycles = if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        };
        let peak_occupancy: Vec<u32> = (0..arcs)
            .map(|arc| (0..vcs).map(|vc| peak[arc * vcs + vc]).max().unwrap_or(0))
            .collect();
        let vc_peak_occupancy: Vec<u32> = (0..vcs)
            .map(|vc| (0..arcs).map(|arc| peak[arc * vcs + vc]).max().unwrap_or(0))
            .collect();

        QueueingReport {
            router: router.name(),
            offered_per_cycle,
            cycles: cycle,
            injected,
            delivered,
            dropped_full,
            dropped_unroutable,
            dropped_ttl,
            in_flight: in_network,
            deadlocked,
            vcs,
            dateline_promotions,
            dateline_relief,
            source_stall_cycles,
            delivered_hops,
            max_hops,
            wait_mean_cycles,
            wait_p50_cycles: percentile_u64(&waits, 0.50),
            wait_p99_cycles: percentile_u64(&waits, 0.99),
            wait_max_cycles: waits.last().copied().unwrap_or(0),
            max_peak_occupancy: peak_occupancy.iter().copied().max().unwrap_or(0),
            peak_occupancy,
            vc_peak_occupancy,
            delivered_per_link,
            multicast_groups: groups_injected,
            replicated_copies: replicated,
            multicast_forwarding_index: trees.forwarding_index(),
            class_stats: None,
            link_down_events: 0,
            link_up_events: 0,
            capacity_events: 0,
            dropped_stranded: 0,
            stranded_reinjected: 0,
            time_to_reroute_cycles: Vec::new(),
            reroute_unresolved: 0,
            reroute_no_demand: 0,
            repair_runs_patched: Vec::new(),
            repair_rows_patched: 0,
            table_runs_total: 0,
            snapshot_publications: 0,
            snapshot_runs_published: 0,
        }
    }
}
