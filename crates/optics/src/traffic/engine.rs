//! The batched, parallel *static* engine: routes whole workloads
//! obliviously and tallies per-link load — congestion as a forwarding
//! index, without dynamics. For queueing delay, drops and saturation
//! see [`super::queueing`].

use super::report::{percentile_f64, MulticastReport, TrafficReport};
use super::workload::{MulticastGroup, WorkloadSource};
use crate::simulator::OtisSimulator;
use otis_core::{DigraphFamily, MulticastTree, Router};
use otis_util::par_map;

/// Precomputed physics of one transceiver's beam.
#[derive(Debug, Clone, Copy)]
struct HopCost {
    latency_ps: f64,
    energy_pj: f64,
    closes: bool,
}

/// Per-worker accumulator for [`TrafficEngine::run`] (also reused as
/// the merge target).
struct Partial {
    link_load: Vec<u64>,
    latencies: Vec<f64>,
    delivered: usize,
    dropped: usize,
    /// All link traversals, dropped packets' hops included.
    total_hops: u64,
    /// Hops of delivered packets only.
    delivered_hops: u64,
    max_hops: u32,
    energy: f64,
    budgets_close: bool,
}

impl Partial {
    fn new(links: usize, capacity: usize) -> Self {
        Partial {
            link_load: vec![0u64; links],
            latencies: Vec::with_capacity(capacity),
            delivered: 0,
            dropped: 0,
            total_hops: 0,
            delivered_hops: 0,
            max_hops: 0,
            energy: 0.0,
            budgets_close: true,
        }
    }
}

/// Batched traffic runner over one simulated fabric.
///
/// Construction pays the physics once — one geometric trace and one
/// link budget per transceiver — after which [`TrafficEngine::run`]
/// routes arbitrarily many packets without touching the bench model.
pub struct TrafficEngine<'a> {
    sim: &'a OtisSimulator,
    /// `neighbors[u·d + k]` = `out_neighbor(u, k)`.
    neighbors: Vec<u64>,
    /// Physics per transceiver, same indexing.
    costs: Vec<HopCost>,
    degree: usize,
}

impl<'a> TrafficEngine<'a> {
    pub fn new(sim: &'a OtisSimulator) -> Self {
        let h = sim.h();
        let n = h.node_count();
        let degree = h.degree() as usize;
        let links = n * degree as u64;
        let mut neighbors = Vec::with_capacity(links as usize);
        let mut costs = Vec::with_capacity(links as usize);
        for u in 0..n {
            for k in 0..degree as u32 {
                neighbors.push(h.out_neighbor(u, k));
                let (_, budget) = sim.link_budget(u * degree as u64 + k as u64);
                costs.push(HopCost {
                    latency_ps: budget.latency_ps + sim.hop_overhead_ps,
                    energy_pj: budget.energy_pj,
                    closes: budget.closes(),
                });
            }
        }
        TrafficEngine {
            sim,
            neighbors,
            costs,
            degree,
        }
    }

    /// The fabric's node count.
    pub fn node_count(&self) -> u64 {
        self.sim.h().node_count()
    }

    /// Route a whole workload through `router`, in parallel, and
    /// aggregate per-link load, congestion, latency, energy and
    /// delivery statistics. Workers take the source's
    /// [`WorkloadSource::CHUNK`]-sized chunks, each decoded on its own
    /// (a generated source regenerates it from the per-chunk RNG
    /// split), so only the in-flight chunks are ever resident — a
    /// million-packet workload costs each worker one chunk buffer, not
    /// the 16 MB pair vector. Explicit pairs wrap in
    /// [`WorkloadSource::from_pairs`] and chunk the same way, so a
    /// generated source and its materialized pairs report identically,
    /// energy total included. A workload under one chunk routes on one
    /// worker.
    pub fn run(&self, router: &dyn Router, source: &WorkloadSource) -> TrafficReport {
        let n = self.node_count();
        assert_eq!(
            router.node_count(),
            n,
            "router covers {} nodes but the fabric has {n}",
            router.node_count()
        );
        // Each worker owns a full link-load vector (links is small —
        // n·d — so per-worker copies are cheap) and merges at the end.
        let partials = par_map(source.chunk_count(), 1, |chunk_index| {
            let mut pairs = Vec::new();
            source.fill_chunk(chunk_index, &mut pairs);
            self.route_chunk(router, &pairs)
        });
        self.collect(router, partials, source.len())
    }

    /// Route one chunk of pairs into a fresh accumulator.
    fn route_chunk(&self, router: &dyn Router, pairs: &[(u64, u64)]) -> Partial {
        let links = self.neighbors.len();
        let hop_limit = (self.node_count() as usize).max(64);
        let mut partial = Partial::new(links, pairs.len());
        for &(src, dst) in pairs {
            let mut current = src;
            let mut hops = 0u32;
            let mut latency = 0.0f64;
            let mut reached = true;
            while current != dst {
                if hops as usize >= hop_limit {
                    reached = false; // routing loop
                    break;
                }
                let Some(next) = router.next_hop(current, dst) else {
                    reached = false; // dead end
                    break;
                };
                let base = current as usize * self.degree;
                let Some(k) = (0..self.degree).find(|&k| self.neighbors[base + k] == next) else {
                    reached = false; // router proposed a non-neighbor
                    break;
                };
                let link = base + k;
                partial.link_load[link] += 1;
                let cost = &self.costs[link];
                latency += cost.latency_ps;
                partial.energy += cost.energy_pj;
                partial.budgets_close &= cost.closes;
                hops += 1;
                current = next;
            }
            partial.total_hops += hops as u64;
            if reached {
                partial.delivered += 1;
                partial.delivered_hops += hops as u64;
                partial.max_hops = partial.max_hops.max(hops);
                partial.latencies.push(latency);
            } else {
                partial.dropped += 1;
            }
        }
        partial
    }

    /// Merge worker partials and fold them into the report.
    fn collect(&self, router: &dyn Router, partials: Vec<Partial>, total: usize) -> TrafficReport {
        let links = self.neighbors.len();
        let mut merged = Partial::new(links, total);
        for partial in partials {
            for (slot, value) in merged.link_load.iter_mut().zip(partial.link_load) {
                *slot += value;
            }
            merged.latencies.extend(partial.latencies);
            merged.delivered += partial.delivered;
            merged.dropped += partial.dropped;
            merged.total_hops += partial.total_hops;
            merged.delivered_hops += partial.delivered_hops;
            merged.max_hops = merged.max_hops.max(partial.max_hops);
            merged.energy += partial.energy;
            merged.budgets_close &= partial.budgets_close;
        }
        let Partial {
            link_load,
            mut latencies,
            delivered,
            dropped,
            total_hops,
            delivered_hops,
            max_hops,
            energy: energy_total_pj,
            budgets_close: all_budgets_close,
        } = merged;

        latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let latency_mean_ps = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };

        TrafficReport {
            router: router.name(),
            packets: total,
            delivered,
            dropped,
            total_hops,
            delivered_hops,
            max_hops,
            max_link_load: link_load.iter().copied().max().unwrap_or(0),
            link_load,
            latency_mean_ps,
            latency_p50_ps: percentile_f64(&latencies, 0.50),
            latency_p99_ps: percentile_f64(&latencies, 0.99),
            latency_max_ps: latencies.last().copied().unwrap_or(0.0),
            energy_total_pj,
            all_budgets_close,
        }
    }
}

/// Per-worker accumulator for [`TrafficEngine::run_multicast`].
struct MulticastPartial {
    /// Trees per transceiver — the multicast load vector.
    link_load: Vec<u64>,
    /// Leaves per transceiver — what per-leaf unicast would carry.
    unicast_link_load: Vec<u64>,
    latencies: Vec<f64>,
    delivered_leaves: usize,
    dropped_leaves: usize,
    tree_arcs: u64,
    unicast_hops: u64,
    max_depth: u32,
    energy: f64,
    budgets_close: bool,
}

impl MulticastPartial {
    fn new(links: usize) -> Self {
        MulticastPartial {
            link_load: vec![0u64; links],
            unicast_link_load: vec![0u64; links],
            latencies: Vec::new(),
            delivered_leaves: 0,
            dropped_leaves: 0,
            tree_arcs: 0,
            unicast_hops: 0,
            max_depth: 0,
            energy: 0.0,
            budgets_close: true,
        }
    }
}

impl<'a> TrafficEngine<'a> {
    /// Route a multicast workload as delivery trees
    /// ([`MulticastTree::build`] over `router`'s shortest-path next
    /// hops), charging each tree arc **once** — the optical one-to-many
    /// story: a branch node replicates the signal, it does not re-send
    /// per leaf. Reports the multicast forwarding index (max trees per
    /// link) alongside the unicast index the same workload would have
    /// cost with per-leaf copies. Each chunk of groups rebuilds one
    /// tree in place ([`MulticastTree::rebuild`]).
    pub fn run_multicast(
        &self,
        router: &dyn Router,
        workload: &[MulticastGroup],
    ) -> MulticastReport {
        let n = self.node_count();
        assert_eq!(
            router.node_count(),
            n,
            "router covers {} nodes but the fabric has {n}",
            router.node_count()
        );
        let links = self.neighbors.len();
        const CHUNK: usize = 64;
        let chunks = workload.len().div_ceil(CHUNK);
        let partials = par_map(chunks, 1, |chunk_index| {
            let start = chunk_index * CHUNK;
            let end = ((chunk_index + 1) * CHUNK).min(workload.len());
            let mut partial = MulticastPartial::new(links);
            let mut arc_latency: Vec<f64> = Vec::new();
            let mut skipped: Vec<bool> = Vec::new();
            let mut tree = MulticastTree::default();
            for group in &workload[start..end] {
                tree.rebuild(router, group.root, &group.dsts);
                partial.dropped_leaves += tree.unreachable().len();
                // Self-requests deliver at the source, zero latency.
                partial.delivered_leaves += tree.self_requests();
                for _ in 0..tree.self_requests() {
                    partial.latencies.push(0.0);
                }
                arc_latency.clear();
                arc_latency.resize(tree.arc_count(), 0.0);
                skipped.clear();
                skipped.resize(tree.arc_count(), false);
                // Arcs are parent-before-child, so one forward pass
                // accumulates root-to-node latency.
                for arc in 0..tree.arc_count() {
                    let (from, to) = tree.endpoints(arc);
                    let parent_latency = match tree.parent_arc(arc) {
                        None => 0.0,
                        Some(parent) if skipped[parent] => {
                            skipped[arc] = true;
                            partial.dropped_leaves += tree.deliveries_at(arc) as usize;
                            continue;
                        }
                        Some(parent) => arc_latency[parent],
                    };
                    let base = from as usize * self.degree;
                    let Some(k) = (0..self.degree).find(|&k| self.neighbors[base + k] == to) else {
                        // The router proposed a non-neighbor: the whole
                        // subtree is unreachable through this arc.
                        skipped[arc] = true;
                        partial.dropped_leaves += tree.deliveries_at(arc) as usize;
                        continue;
                    };
                    let link = base + k;
                    let cost = &self.costs[link];
                    // One optical transmission per tree arc.
                    partial.link_load[link] += 1;
                    partial.unicast_link_load[link] += tree.leaf_load(arc);
                    partial.tree_arcs += 1;
                    partial.unicast_hops += tree.leaf_load(arc);
                    partial.energy += cost.energy_pj;
                    partial.budgets_close &= cost.closes;
                    arc_latency[arc] = parent_latency + cost.latency_ps;
                    let deliveries = tree.deliveries_at(arc) as usize;
                    if deliveries > 0 {
                        partial.delivered_leaves += deliveries;
                        partial.max_depth = partial.max_depth.max(tree.arc_depth(arc));
                        for _ in 0..deliveries {
                            partial.latencies.push(arc_latency[arc]);
                        }
                    }
                }
            }
            partial
        });

        let mut merged = MulticastPartial::new(links);
        for partial in partials {
            for (slot, value) in merged.link_load.iter_mut().zip(partial.link_load) {
                *slot += value;
            }
            for (slot, value) in merged
                .unicast_link_load
                .iter_mut()
                .zip(partial.unicast_link_load)
            {
                *slot += value;
            }
            merged.latencies.extend(partial.latencies);
            merged.delivered_leaves += partial.delivered_leaves;
            merged.dropped_leaves += partial.dropped_leaves;
            merged.tree_arcs += partial.tree_arcs;
            merged.unicast_hops += partial.unicast_hops;
            merged.max_depth = merged.max_depth.max(partial.max_depth);
            merged.energy += partial.energy;
            merged.budgets_close &= partial.budgets_close;
        }
        merged
            .latencies
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let latency_mean_ps = if merged.latencies.is_empty() {
            0.0
        } else {
            merged.latencies.iter().sum::<f64>() / merged.latencies.len() as f64
        };
        MulticastReport {
            router: router.name(),
            groups: workload.len(),
            leaves: merged.delivered_leaves + merged.dropped_leaves,
            delivered_leaves: merged.delivered_leaves,
            dropped_leaves: merged.dropped_leaves,
            tree_arcs: merged.tree_arcs,
            unicast_hops: merged.unicast_hops,
            max_depth: merged.max_depth,
            multicast_forwarding_index: merged.link_load.iter().copied().max().unwrap_or(0),
            unicast_forwarding_index: merged.unicast_link_load.iter().copied().max().unwrap_or(0),
            link_load: merged.link_load,
            latency_mean_ps,
            latency_p50_ps: percentile_f64(&merged.latencies, 0.50),
            latency_p99_ps: percentile_f64(&merged.latencies, 0.99),
            latency_max_ps: merged.latencies.last().copied().unwrap_or(0.0),
            energy_total_pj: merged.energy,
            all_budgets_close: merged.budgets_close,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{generate_workload, TrafficPattern};
    use super::*;
    use crate::HDigraph;
    use otis_core::RoutingTable;

    fn engine_fixture() -> (OtisSimulator, Vec<(u64, u64)>) {
        // H(4,8,2) ≅ B(2,4): 16 nodes, degree 2.
        let sim = OtisSimulator::with_defaults(HDigraph::new(4, 8, 2));
        let workload = generate_workload(TrafficPattern::Uniform, 16, 2, 2000, 7);
        (sim, workload)
    }

    #[test]
    fn uniform_traffic_all_delivered_and_conserved() {
        let (sim, workload) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());
        let report = engine.run(&router, &WorkloadSource::from_pairs(&workload[..]));
        assert_eq!(report.delivered, workload.len());
        assert_eq!(report.dropped, 0);
        assert_eq!(report.delivery_rate(), 1.0);
        // Conservation: every hop crosses exactly one link.
        assert_eq!(report.link_load.iter().sum::<u64>(), report.total_hops);
        assert!(report.max_hops <= 4, "diameter of B(2,4) is 4");
        assert!(report.max_link_load >= report.total_hops / report.link_load.len() as u64);
        assert!(report.all_budgets_close);
        assert!(report.latency_p50_ps <= report.latency_p99_ps);
        assert!(report.latency_p99_ps <= report.latency_max_ps);
    }

    #[test]
    fn engine_matches_per_packet_simulator() {
        // The batched engine's per-packet latency/energy must agree
        // with the hop-by-hop simulator on the same routes.
        let (sim, _) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());
        for (src, dst) in [(0u64, 15u64), (3, 9), (12, 1)] {
            let single = sim.send_via(&router, src, dst).unwrap();
            let report = engine.run(&router, &WorkloadSource::from_pairs([(src, dst)]));
            assert_eq!(report.delivered, 1);
            assert_eq!(report.total_hops as usize, single.hop_count());
            assert!((report.latency_max_ps - single.latency_ps).abs() < 1e-9);
            assert!((report.energy_total_pj - single.energy_pj).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_single_packet_workloads_report_sane_statistics() {
        // Percentile and mean math on degenerate workloads: no panics,
        // no NaNs, identities hold.
        let (sim, _) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());

        let empty = engine.run(&router, &WorkloadSource::from_pairs(Vec::new()));
        assert_eq!(empty.packets, 0);
        assert_eq!(empty.delivery_rate(), 1.0);
        assert_eq!(empty.latency_p50_ps, 0.0);
        assert_eq!(empty.latency_p99_ps, 0.0);
        assert_eq!(empty.latency_mean_ps, 0.0);
        assert_eq!(empty.mean_hops(), 0.0);
        assert_eq!(empty.mean_link_load(), 0.0);
        assert_eq!(empty.mean_energy_pj(), 0.0);

        let single = engine.run(&router, &WorkloadSource::from_pairs([(0, 15)]));
        assert_eq!(single.delivered, 1);
        // With one sample every percentile IS that sample.
        assert_eq!(single.latency_p50_ps, single.latency_max_ps);
        assert_eq!(single.latency_p99_ps, single.latency_max_ps);
        assert!((single.latency_mean_ps - single.latency_max_ps).abs() < 1e-9);
        assert!(single.latency_max_ps > 0.0);

        // A single self-pair: delivered with zero hops, zero latency.
        let self_pair = engine.run(&router, &WorkloadSource::from_pairs([(3, 3)]));
        assert_eq!(self_pair.delivered, 1);
        assert_eq!(self_pair.total_hops, 0);
        assert_eq!(self_pair.latency_max_ps, 0.0);
        assert_eq!(self_pair.mean_hops(), 0.0);
    }

    #[test]
    fn hotspot_forwarding_index_dwarfs_uniform() {
        let sim = OtisSimulator::with_defaults(HDigraph::new(8, 16, 2));
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());
        let hotspot = generate_workload(TrafficPattern::Hotspot, 64, 2, 4000, 3);
        let uniform = generate_workload(TrafficPattern::Uniform, 64, 2, 4000, 3);
        let hot_report = engine.run(&router, &WorkloadSource::from_pairs(hotspot));
        let uniform_report = engine.run(&router, &WorkloadSource::from_pairs(uniform));
        assert!(
            hot_report.max_link_load > uniform_report.max_link_load,
            "hotspot congestion {} should exceed uniform {}",
            hot_report.max_link_load,
            uniform_report.max_link_load
        );
    }

    #[test]
    fn dropped_packet_hops_load_links_but_not_delivered_stats() {
        // A router that always forwards to the first transceiver's
        // neighbor: some packets deliver, the rest loop to the hop
        // limit — every traversal they made must show up in link_load
        // and total_hops, but not in delivered_hops/mean_hops.
        let (sim, workload) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        struct FirstHopRouter(HDigraph);
        impl otis_core::Router for FirstHopRouter {
            fn node_count(&self) -> u64 {
                otis_core::DigraphFamily::node_count(&self.0)
            }
            fn name(&self) -> String {
                "first-hop".into()
            }
            fn next_hop(&self, current: u64, _dst: u64) -> Option<u64> {
                Some(otis_core::DigraphFamily::out_neighbor(&self.0, current, 0))
            }
        }
        let report = engine.run(
            &FirstHopRouter(*sim.h()),
            &WorkloadSource::from_pairs(workload),
        );
        assert!(
            report.dropped > 0,
            "blind forwarding must strand some packets"
        );
        assert!(report.delivered > 0, "and deliver some others");
        // Conservation over ALL traversals, including looping packets.
        assert_eq!(report.link_load.iter().sum::<u64>(), report.total_hops);
        assert!(report.total_hops > report.delivered_hops);
        // Delivered-only statistics stay bounded by the walk the
        // delivered packets actually took.
        assert!(report.mean_hops() <= report.max_hops as f64);
    }

    #[test]
    fn broadcast_trees_charge_each_arc_once() {
        // H(4,8,2) ≅ B(2,4): a full broadcast tree spans all 15
        // non-root nodes over exactly 15 arcs, however many leaves
        // each arc serves.
        let (sim, _) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());
        let groups =
            super::super::generate_multicast_workload(TrafficPattern::Broadcast, 16, 2, 32, 7);
        let report = engine.run_multicast(&router, &groups);
        assert_eq!(report.groups, 32);
        assert_eq!(report.leaves, 32 * 15);
        assert_eq!(report.delivered_leaves, report.leaves);
        assert_eq!(report.dropped_leaves, 0);
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.tree_arcs, 32 * 15, "one arc per reached node");
        assert!(report.max_depth <= 4, "diameter of B(2,4)");
        // Replication is the whole point: unicast would pay the mean
        // path length per leaf, the tree pays one arc per node.
        assert!(report.unicast_hops > report.tree_arcs);
        assert!(report.replication_saving() > 1.5);
        assert!(report.multicast_forwarding_index < report.unicast_forwarding_index);
        assert!(report.multicast_forwarding_index >= 1);
        // Load conservation: the link loads sum to the arcs charged.
        assert_eq!(report.link_load.iter().sum::<u64>(), report.tree_arcs);
        assert!(report.latency_p50_ps <= report.latency_p99_ps);
        assert!(report.latency_p99_ps <= report.latency_max_ps);
        assert!(report.all_budgets_close);
    }

    #[test]
    fn singleton_groups_match_the_unicast_engine() {
        // A multicast workload of fanout-1 groups is just unicast: the
        // tree arcs must equal the unicast run's hops and the two
        // forwarding indices must collapse onto the unicast one.
        let (sim, workload) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        let router = RoutingTable::from_family(sim.h());
        let groups: Vec<super::super::MulticastGroup> = workload
            .iter()
            .map(|&(src, dst)| super::super::MulticastGroup {
                root: src,
                dsts: vec![dst],
            })
            .collect();
        let unicast = engine.run(&router, &WorkloadSource::from_pairs(&workload[..]));
        let multicast = engine.run_multicast(&router, &groups);
        assert_eq!(multicast.delivered_leaves, unicast.delivered);
        assert_eq!(multicast.tree_arcs, unicast.total_hops);
        assert_eq!(multicast.unicast_hops, unicast.total_hops);
        assert_eq!(multicast.link_load, unicast.link_load);
        assert_eq!(multicast.multicast_forwarding_index, unicast.max_link_load);
        assert_eq!(multicast.unicast_forwarding_index, unicast.max_link_load);
        assert_eq!(multicast.replication_saving(), 1.0);
        assert!((multicast.energy_total_pj - unicast.energy_total_pj).abs() < 1e-6);
    }

    #[test]
    fn multicast_unreachable_leaves_are_dropped() {
        let (sim, _) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        struct NoRouter(u64);
        impl otis_core::Router for NoRouter {
            fn node_count(&self) -> u64 {
                self.0
            }
            fn name(&self) -> String {
                "none".into()
            }
            fn next_hop(&self, _: u64, _: u64) -> Option<u64> {
                None
            }
        }
        let groups = vec![super::super::MulticastGroup {
            root: 0,
            dsts: vec![0, 3, 5],
        }];
        let report = engine.run_multicast(&NoRouter(16), &groups);
        assert_eq!(report.delivered_leaves, 1, "the self-request");
        assert_eq!(report.dropped_leaves, 2);
        assert_eq!(report.tree_arcs, 0);
    }

    #[test]
    fn dropped_packets_counted_on_unroutable_fabric() {
        let (sim, _) = engine_fixture();
        let engine = TrafficEngine::new(&sim);
        // A router that knows no routes at all.
        struct NoRouter(u64);
        impl otis_core::Router for NoRouter {
            fn node_count(&self) -> u64 {
                self.0
            }
            fn name(&self) -> String {
                "none".into()
            }
            fn next_hop(&self, _: u64, _: u64) -> Option<u64> {
                None
            }
        }
        let report = engine.run(
            &NoRouter(16),
            &WorkloadSource::from_pairs([(0, 5), (1, 1), (2, 9)]),
        );
        assert_eq!(report.delivered, 1, "only the self-pair needs no hops");
        assert_eq!(report.dropped, 2);
        assert!(report.delivery_rate() < 1.0);
    }
}
