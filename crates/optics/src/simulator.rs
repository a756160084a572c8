//! Packet-level simulation of a multi-hop OTIS interconnect.
//!
//! A processing node of `H(p,q,d)` that wants to reach a non-neighbor
//! must route in several hops; each hop is one physical pass through
//! the OTIS bench (transmitter → two lenslets → receiver). The
//! simulator moves packets hop by hop, chooses the transmitter
//! implementing each graph arc, traces its beam through
//! [`crate::geometry`], charges the [`crate::power`] budget, and
//! reports per-packet accounting.
//!
//! This is the "run the network" half of the reproduction: the
//! `network_simulation` example routes real traffic over the paper's
//! `Θ(√n)`-lens de Bruijn layout and the prior-art `O(n)`-lens II
//! layout and compares them on physics, not just lens counts.

use crate::geometry::{Bench, BenchParams};
use crate::power::{optical_budget, OpticalBudget, OpticalLinkParams};
use crate::HDigraph;
use otis_core::{DigraphFamily, Router};
use serde::{Deserialize, Serialize};

/// One hop of a delivered packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopRecord {
    /// Sending node.
    pub from: u64,
    /// Receiving node.
    pub to: u64,
    /// Which of the sender's `d` transmitters carried the hop.
    pub transceiver: u32,
    /// Beam path length through the bench, mm.
    pub path_length_mm: f64,
    /// Link budget of the hop.
    pub budget: OpticalBudget,
}

/// Accounting for one simulated packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketReport {
    /// The hops taken, in order.
    pub hops: Vec<HopRecord>,
    /// End-to-end latency, ps (sum of hop latencies + per-hop
    /// store-and-forward overhead).
    pub latency_ps: f64,
    /// Total energy, pJ.
    pub energy_pj: f64,
}

impl PacketReport {
    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// True iff every hop's link budget closed.
    pub fn delivered(&self) -> bool {
        self.hops.iter().all(|h| h.budget.closes())
    }
}

/// Error routing a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The router proposed a next node that is not an out-neighbor.
    NotANeighbor { from: u64, proposed: u64 },
    /// The router reported no way forward: `dst` is unreachable from
    /// `from` (e.g. the packet hit a dead end in a faulted fabric).
    Unreachable { from: u64, dst: u64 },
    /// The hop limit was exceeded (routing loop).
    HopLimit { limit: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotANeighbor { from, proposed } => {
                write!(
                    f,
                    "router proposed {proposed}, not an out-neighbor of {from}"
                )
            }
            SimError::Unreachable { from, dst } => {
                write!(f, "no route from {from} to {dst}")
            }
            SimError::HopLimit { limit } => write!(f, "hop limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// The simulated interconnect: an `H(p,q,d)` node graph over a
/// geometric bench and a link-power model.
#[derive(Debug, Clone)]
pub struct OtisSimulator {
    h: HDigraph,
    bench: Bench,
    link_params: OpticalLinkParams,
    /// Store-and-forward overhead added per hop (deserialization,
    /// switching, reserialization), ps.
    pub hop_overhead_ps: f64,
}

impl OtisSimulator {
    /// Simulator over `h` with explicit bench and link parameters.
    pub fn new(h: HDigraph, bench_params: BenchParams, link_params: OpticalLinkParams) -> Self {
        let bench = Bench::new(*h.otis(), bench_params);
        OtisSimulator {
            h,
            bench,
            link_params,
            hop_overhead_ps: 200.0,
        }
    }

    /// Simulator with default physical parameters, bench scaled to
    /// the system's transverse extent (see [`Bench::scaled_params`]).
    pub fn with_defaults(h: HDigraph) -> Self {
        let params = Bench::scaled_params(h.otis());
        OtisSimulator::new(h, params, OpticalLinkParams::default())
    }

    /// The node digraph being simulated.
    pub fn h(&self) -> &HDigraph {
        &self.h
    }

    /// The geometric bench.
    pub fn bench(&self) -> &Bench {
        &self.bench
    }

    /// Full physical accounting of the beam realizing the arc carried
    /// by transceiver `t_index` (global transmitter index): beam path
    /// length and link budget. The batched traffic engine calls this
    /// once per transceiver up front instead of once per hop.
    pub fn link_budget(&self, t_index: u64) -> (f64, OpticalBudget) {
        let trace = self.bench.trace(self.h.otis().transmitter(t_index));
        let budget = optical_budget(&self.link_params, trace.path_length);
        (trace.path_length, budget)
    }

    /// Send one packet from `src` along the route chosen by `router`:
    /// given the current node and the destination, `router` names the
    /// next node (an out-neighbor), or `None` when no way forward
    /// exists. Returns the full accounting, or an error if the route
    /// dead-ends or the router misbehaves.
    pub fn send(
        &self,
        src: u64,
        dst: u64,
        mut router: impl FnMut(u64, u64) -> Option<u64>,
    ) -> Result<PacketReport, SimError> {
        let n = self.h.node_count();
        assert!(src < n && dst < n, "nodes out of range");
        let hop_limit = (n as usize).max(64);
        let mut hops = Vec::new();
        let mut current = src;
        while current != dst {
            if hops.len() >= hop_limit {
                return Err(SimError::HopLimit { limit: hop_limit });
            }
            let next = router(current, dst).ok_or(SimError::Unreachable { from: current, dst })?;
            // Which transceiver realizes the arc current → next?
            let transceiver = (0..self.h.degree())
                .find(|&k| self.h.out_neighbor(current, k) == next)
                .ok_or(SimError::NotANeighbor {
                    from: current,
                    proposed: next,
                })?;
            let t_index = current * self.h.degree() as u64 + transceiver as u64;
            let trace = self.bench.trace(self.h.otis().transmitter(t_index));
            debug_assert_eq!(
                self.h
                    .node_of_receiver(self.h.otis().receiver_index(trace.to)),
                next,
                "geometry disagrees with the node graph"
            );
            let budget = optical_budget(&self.link_params, trace.path_length);
            hops.push(HopRecord {
                from: current,
                to: next,
                transceiver,
                path_length_mm: trace.path_length,
                budget,
            });
            current = next;
        }
        let latency_ps: f64 = hops
            .iter()
            .map(|h| h.budget.latency_ps + self.hop_overhead_ps)
            .sum();
        let energy_pj: f64 = hops.iter().map(|h| h.budget.energy_pj).sum();
        Ok(PacketReport {
            hops,
            latency_ps,
            energy_pj,
        })
    }

    /// Send along the route chosen by any [`Router`] — the arithmetic
    /// tableless routers, a precomputed [`otis_core::RoutingTable`],
    /// or a [`otis_core::DynamicRoutingTable`] routing around a
    /// [`crate::faults::FaultSet`].
    pub fn send_via(
        &self,
        router: &dyn Router,
        src: u64,
        dst: u64,
    ) -> Result<PacketReport, SimError> {
        self.send(src, dst, |current, dst| router.next_hop(current, dst))
    }

    /// Send via BFS shortest paths, recomputed per call: the
    /// no-precomputation baseline (one reverse-BFS per packet). For
    /// batches, build an [`otis_core::RoutingTable`] once and use
    /// [`OtisSimulator::send_via`] — or better, the batched
    /// [`crate::traffic`] engine.
    pub fn send_shortest(&self, src: u64, dst: u64) -> Result<PacketReport, SimError> {
        let g = self.h.digraph();
        // Parents on some shortest path toward dst: BFS on the
        // reverse graph from dst gives next-hop-to-dst for every node.
        let rev = otis_digraph::ops::reverse(&g);
        let dist_to_dst = otis_digraph::bfs::distances(&rev, dst as u32);
        self.send(src, dst, move |current, _| {
            let here = dist_to_dst[current as usize];
            if here == otis_digraph::INFINITY {
                return None;
            }
            g.out_neighbors(current as u32)
                .iter()
                .find(|&&v| dist_to_dst[v as usize] == here - 1)
                .map(|&v| v as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator() -> OtisSimulator {
        // H(4,8,2) ≅ B(2,4): 16 nodes, degree 2, diameter 4.
        OtisSimulator::with_defaults(HDigraph::new(4, 8, 2))
    }

    #[test]
    fn single_hop_to_neighbor() {
        let sim = simulator();
        let dst = sim.h().out_neighbor(3, 1);
        let report = sim.send_shortest(3, dst).unwrap();
        assert_eq!(report.hop_count(), 1);
        assert!(report.delivered());
        assert_eq!(report.hops[0].from, 3);
        assert_eq!(report.hops[0].to, dst);
    }

    #[test]
    fn zero_hop_self_delivery() {
        let sim = simulator();
        let report = sim.send_shortest(5, 5).unwrap();
        assert_eq!(report.hop_count(), 0);
        assert_eq!(report.latency_ps, 0.0);
        assert!(report.delivered());
    }

    #[test]
    fn all_pairs_deliver_within_diameter() {
        let sim = simulator();
        let g = sim.h().digraph();
        let n = sim.h().node_count();
        for src in 0..n {
            let dist = otis_digraph::bfs::distances(&g, src as u32);
            for dst in 0..n {
                let report = sim.send_shortest(src, dst).unwrap();
                assert_eq!(
                    report.hop_count() as u32,
                    dist[dst as usize],
                    "shortest routing must match BFS ({src} → {dst})"
                );
                assert!(report.hop_count() <= 4, "diameter of B(2,4) is 4");
                assert!(report.delivered());
            }
        }
    }

    #[test]
    fn latency_and_energy_scale_with_hops() {
        let sim = simulator();
        let one = sim.send_shortest(0, sim.h().out_neighbor(0, 1)).unwrap();
        // Find a pair at distance ≥ 3 for contrast.
        let g = sim.h().digraph();
        let dist = otis_digraph::bfs::distances(&g, 0);
        let far = dist.iter().position(|&d| d >= 3).expect("diameter 4 graph") as u64;
        let many = sim.send_shortest(0, far).unwrap();
        assert!(many.latency_ps > one.latency_ps);
        assert!(many.energy_pj > one.energy_pj);
        assert!(
            (many.energy_pj / many.hop_count() as f64 - one.energy_pj / one.hop_count() as f64)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn bad_router_caught() {
        let sim = simulator();
        // Router that always proposes node 5 (usually not a neighbor).
        let far = 9u64;
        let result = sim.send(far, 0, |_, _| Some(5));
        // Either it's rejected as a non-neighbor, or it happens to be
        // one and the packet loops to the hop limit — both are errors
        // unless 5 is genuinely on a path; assert the specific case:
        let neighbors = sim.h().out_neighbors(far);
        if neighbors.contains(&5) {
            assert!(matches!(result, Err(SimError::HopLimit { .. })));
        } else {
            assert_eq!(
                result,
                Err(SimError::NotANeighbor {
                    from: far,
                    proposed: 5
                })
            );
        }
    }

    #[test]
    fn send_via_table_router_matches_bfs() {
        let sim = simulator();
        let router = otis_core::RoutingTable::from_family(sim.h());
        let g = sim.h().digraph();
        for src in 0..sim.h().node_count() {
            let dist = otis_digraph::bfs::distances(&g, src as u32);
            for dst in 0..sim.h().node_count() {
                let report = sim.send_via(&router, src, dst).unwrap();
                assert_eq!(
                    report.hop_count() as u32,
                    dist[dst as usize],
                    "{src} → {dst}"
                );
                assert!(report.delivered());
            }
        }
    }

    #[test]
    fn dead_end_reports_unreachable() {
        let sim = simulator();
        let result = sim.send(3, 7, |_, _| None);
        assert_eq!(result, Err(SimError::Unreachable { from: 3, dst: 7 }));
    }

    #[test]
    fn geometry_consistency_debug_checked() {
        // send() debug-asserts that the traced beam lands on the node
        // the graph promises; run a bunch of sends to exercise it.
        let sim = simulator();
        for src in 0..sim.h().node_count() {
            for k in 0..sim.h().degree() {
                let dst = sim.h().out_neighbor(src, k);
                sim.send_shortest(src, dst).unwrap();
            }
        }
    }
}
