//! Fault injection and fault-tolerant routing.
//!
//! Free-space optical hardware fails in characteristic units: a VCSEL
//! dies (one arc), a detector dies (one arc), or a whole lens is
//! occluded/misaligned (every arc through it — `q` arcs for a
//! first-array lens, `p` for a second-array lens). This module models
//! those fault classes on an [`HDigraph`], derives the surviving
//! digraph, and measures what the network can still do — the
//! resilience story a downstream adopter of an OTIS fabric needs,
//! and an exercise of the de Bruijn's known fault-tolerance (`d`
//! arc-disjoint-ish alternatives per hop).
//!
//! Routing around a fault set is the repairable table's job:
//! [`FaultSet::dead_arcs`] names the dead beams as arcs of the full
//! fabric, [`otis_core::DynamicRoutingTable::with_dead_arcs`] builds a
//! shortest-surviving-path router over them, and a later single-beam
//! fault is one [`otis_core::DynamicRoutingTable::apply_arc_event`] —
//! an in-place patch that lands on exactly the table a fresh build
//! over the grown fault set would give.

use crate::HDigraph;
use otis_core::DigraphFamily;
use otis_digraph::{Digraph, DigraphBuilder};
use serde::{Deserialize, Serialize};

/// A set of hardware faults on one OTIS bench.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Dead transmitters (global indices).
    pub dead_transmitters: Vec<u64>,
    /// Dead receivers (global indices).
    pub dead_receivers: Vec<u64>,
    /// Occluded first-array lenses (index `i ∈ Z_p`): kills every beam
    /// from transmitter group `i`.
    pub dead_lens1: Vec<u64>,
    /// Occluded second-array lenses (index `a ∈ Z_q`): kills every
    /// beam into receiver group `a`.
    pub dead_lens2: Vec<u64>,
}

impl FaultSet {
    /// No faults.
    pub fn none() -> Self {
        FaultSet::default()
    }

    /// True iff the beam of transmitter `t` (global index) survives
    /// all faults on the given system.
    pub fn beam_alive(&self, h: &HDigraph, t: u64) -> bool {
        let otis = h.otis();
        let tx = otis.transmitter(t);
        if self.dead_transmitters.contains(&t) || self.dead_lens1.contains(&tx.group) {
            return false;
        }
        let r = otis.connect(tx);
        if self.dead_lens2.contains(&r.group) {
            return false;
        }
        !self.dead_receivers.contains(&otis.receiver_index(r))
    }

    /// Number of beams this fault set kills on the given system.
    pub fn killed_beam_count(&self, h: &HDigraph) -> usize {
        (0..h.otis().link_count())
            .filter(|&t| !self.beam_alive(h, t))
            .count()
    }

    /// The dead beams as arc indices of the full fabric
    /// `surviving_digraph(h, &FaultSet::none())`, ascending by beam.
    ///
    /// Beam `t = u·d + k` implements the arc `u → out_neighbor(u, k)`;
    /// the digraph sorts each node's arc targets, so slot order and arc
    /// order differ. Ranking a node's slots by `(target, slot)` keeps
    /// the map a bijection, so parallel beams to one target map to
    /// *distinct* arcs.
    pub fn dead_arcs(&self, h: &HDigraph) -> Vec<usize> {
        let d = u64::from(h.degree());
        (0..h.otis().link_count())
            .filter(|&t| !self.beam_alive(h, t))
            .map(|t| {
                let (u, k) = (t / d, (t % d) as u32);
                let slot = (h.out_neighbor(u, k), k);
                let rank = (0..h.degree())
                    .filter(|&j| (h.out_neighbor(u, j), j) < slot)
                    .count();
                (u * d) as usize + rank
            })
            .collect()
    }
}

/// The digraph that survives a fault set: same nodes, minus every arc
/// whose beam is dead.
pub fn surviving_digraph(h: &HDigraph, faults: &FaultSet) -> Digraph {
    let n = h.node_count();
    let d = h.degree() as u64;
    let mut builder = DigraphBuilder::with_arc_capacity(n as usize, (n * d) as usize);
    for u in 0..n {
        for k in 0..h.degree() {
            let t = u * d + k as u64;
            if faults.beam_alive(h, t) {
                builder.add_arc(u as u32, h.out_neighbor(u, k) as u32);
            }
        }
    }
    builder.build()
}

/// Resilience report for a fault set on a fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Beams killed by the faults (out of `pq`).
    pub beams_lost: usize,
    /// Is the surviving digraph still strongly connected?
    pub strongly_connected: bool,
    /// Diameter of the surviving digraph (`None` if disconnected).
    pub diameter: Option<u32>,
    /// Ordered node pairs that can no longer communicate.
    pub unreachable_pairs: u64,
}

/// Evaluate a fault set end to end.
pub fn assess(h: &HDigraph, faults: &FaultSet) -> ResilienceReport {
    let g = surviving_digraph(h, faults);
    let n = g.node_count();
    let strongly_connected = otis_digraph::connectivity::is_strongly_connected(&g);
    let diameter = otis_digraph::bfs::diameter(&g);
    // Unreachable ordered pairs via the distance distribution.
    let reachable: u64 = otis_digraph::bfs::distance_distribution(&g).iter().sum();
    let unreachable_pairs = (n as u64) * (n as u64) - reachable;
    ResilienceReport {
        beams_lost: faults.killed_beam_count(h),
        strongly_connected,
        diameter,
        unreachable_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_core::{DynamicRoutingTable, RouteRepair, Router};
    use otis_digraph::repair::RepairStats;

    fn fabric() -> HDigraph {
        HDigraph::new(16, 32, 2) // ≅ B(2,8)
    }

    /// The fault-aware router: the repairable table over the full
    /// fabric with `faults`' beams dead.
    fn fault_table(h: &HDigraph, faults: &FaultSet) -> DynamicRoutingTable {
        DynamicRoutingTable::with_dead_arcs(
            &surviving_digraph(h, &FaultSet::none()),
            &faults.dead_arcs(h),
            h.name(),
        )
    }

    /// The full-fabric arc transmitter `t`'s beam implements.
    fn beam_arc(h: &HDigraph, t: u64) -> usize {
        let faults = FaultSet {
            dead_transmitters: vec![t],
            ..FaultSet::none()
        };
        faults.dead_arcs(h)[0]
    }

    #[test]
    fn no_faults_baseline() {
        let h = fabric();
        let report = assess(&h, &FaultSet::none());
        assert_eq!(report.beams_lost, 0);
        assert!(report.strongly_connected);
        assert_eq!(report.diameter, Some(8));
        assert_eq!(report.unreachable_pairs, 0);
    }

    #[test]
    fn one_dead_transmitter_kills_one_beam() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![42],
            ..FaultSet::none()
        };
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, 1);
        // B(2,8) survives one arc loss: still strongly connected, the
        // diameter can only grow.
        assert!(report.strongly_connected);
        assert!(report.diameter.unwrap() >= 8);
        let g = surviving_digraph(&h, &faults);
        assert_eq!(g.arc_count(), 511);
    }

    #[test]
    fn dead_lens_kills_a_whole_group() {
        let h = fabric();
        // First-array lens 3: kills the q = 32 beams of group 3.
        let faults = FaultSet {
            dead_lens1: vec![3],
            ..FaultSet::none()
        };
        assert_eq!(faults.killed_beam_count(&h), 32);
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, 32);
        // 32 of 512 arcs gone: the 16 nodes of group 3 lose ALL their
        // out-arcs (each node has both transmitters in one group), so
        // the digraph cannot remain strongly connected.
        assert!(!report.strongly_connected);
        assert!(report.unreachable_pairs > 0);
    }

    #[test]
    fn second_array_lens_kills_p_beams() {
        let h = fabric();
        let faults = FaultSet {
            dead_lens2: vec![0],
            ..FaultSet::none()
        };
        assert_eq!(faults.killed_beam_count(&h), 16);
    }

    #[test]
    fn dead_receiver_blocks_exactly_its_beam() {
        let h = fabric();
        let otis = *h.otis();
        // Find the transmitter feeding receiver 100.
        let t = otis.transmitter_index(otis.source_of(otis.receiver(100)));
        let faults = FaultSet {
            dead_receivers: vec![100],
            ..FaultSet::none()
        };
        assert!(!faults.beam_alive(&h, t));
        assert_eq!(faults.killed_beam_count(&h), 1);
    }

    #[test]
    fn rerouting_around_a_fault() {
        let h = fabric();
        // Kill node 0's transceiver 0 (the beam implementing one of
        // its two out-arcs) and verify traffic reroutes via the other.
        let faults = FaultSet {
            dead_transmitters: vec![0],
            ..FaultSet::none()
        };
        let g = surviving_digraph(&h, &faults);
        let lost_target = h.out_neighbor(0, 0);
        let dist = otis_digraph::bfs::distances(&g, 0);
        // Still reachable, just (possibly) farther.
        assert!(dist[lost_target as usize] != otis_digraph::INFINITY);
        assert!(dist[lost_target as usize] >= 1);
    }

    #[test]
    fn dead_arcs_map_beams_one_to_one_onto_their_arcs() {
        // Every beam's arc joins the beam's endpoints, and no two beams
        // share an arc — parallel beams included.
        for h in [fabric(), HDigraph::new(2, 4, 2), HDigraph::new(3, 6, 3)] {
            let full = surviving_digraph(&h, &FaultSet::none());
            let d = u64::from(h.degree());
            let mut seen = vec![false; full.arc_count()];
            for t in 0..h.otis().link_count() {
                let arc = beam_arc(&h, t);
                let (u, k) = (t / d, (t % d) as u32);
                assert_eq!(full.arc_source(arc) as u64, u, "{} beam {t}", h.name());
                assert_eq!(
                    full.arc_target(arc) as u64,
                    h.out_neighbor(u, k),
                    "{} beam {t}",
                    h.name()
                );
                assert!(!seen[arc], "{} beam {t} reuses arc {arc}", h.name());
                seen[arc] = true;
            }
        }
        // A lens fault kills its whole group, in beam order.
        let h = fabric();
        let lens = FaultSet {
            dead_lens1: vec![3],
            ..FaultSet::none()
        };
        let arcs = lens.dead_arcs(&h);
        assert_eq!(arcs.len(), lens.killed_beam_count(&h));
        assert!(FaultSet::none().dead_arcs(&h).is_empty());
    }

    #[test]
    fn fault_aware_router_delivers_whenever_a_path_survives() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![0, 17, 301],
            dead_lens2: vec![5],
            ..FaultSet::none()
        };
        let router = fault_table(&h, &faults);
        let survivors = surviving_digraph(&h, &faults);
        for src in (0..h.node_count()).step_by(7) {
            let dist = otis_digraph::bfs::distances(&survivors, src as u32);
            for dst in (0..h.node_count()).step_by(5) {
                let expected = dist[dst as usize];
                match router.route(src, dst) {
                    None => assert_eq!(expected, otis_digraph::INFINITY, "{src}→{dst}"),
                    Some(path) => {
                        assert_eq!(path.len() as u32 - 1, expected, "{src}→{dst}");
                        // Every hop must ride a *surviving* beam.
                        for pair in path.windows(2) {
                            assert!(
                                survivors.has_arc(pair[0] as u32, pair[1] as u32),
                                "hop {} → {} uses a dead beam",
                                pair[0],
                                pair[1]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_aware_router_refresh_tracks_new_faults() {
        let h = fabric();
        let router = fault_table(&h, &FaultSet::none());
        let full_distance = router.distance(1, h.out_neighbor(1, 0));
        assert_eq!(full_distance, Some(1));
        // Kill node 1's first transmitter: that 1-hop route must now
        // detour (or keep length 1 only via the other transceiver).
        let faults = FaultSet {
            dead_transmitters: vec![2],
            ..FaultSet::none()
        };
        let degraded = fault_table(&h, &faults).distance(1, h.out_neighbor(1, 0));
        assert!(degraded.is_some(), "B(2,8) survives one arc loss");
        assert!(degraded.unwrap() >= 1);
    }

    #[test]
    fn incremental_kill_and_revive_match_a_fresh_build() {
        let h = fabric();
        let router = fault_table(&h, &FaultSet::none());
        // Kill scattered transmitters one at a time; after every step
        // the patched table must be byte-identical to a fresh build
        // over the same fault set, at strictly sub-rebuild cost.
        let total_runs = router.snapshot().run_count();
        let mut faults = FaultSet::none();
        for &t in &[7u64, 42, 301] {
            let bill = router.apply_arc_event(beam_arc(&h, t), false);
            assert!(bill.rows_patched > 0, "beam {t} feeds some route");
            assert!(
                bill.runs_patched < total_runs,
                "beam {t} patched everything"
            );
            faults.dead_transmitters.push(t);
            let fresh = fault_table(&h, &faults);
            assert_eq!(router.snapshot(), fresh.snapshot(), "after killing {t}");
        }
        // Revive in a different order; the end state is the pristine
        // fabric, byte-identical to a no-fault build.
        for &t in &[42u64, 301, 7] {
            router.apply_arc_event(beam_arc(&h, t), true);
        }
        let pristine = fault_table(&h, &FaultSet::none());
        assert_eq!(router.snapshot(), pristine.snapshot());
        assert_eq!(router.dead_arc_count(), 0);
        // A beam that is already dead costs nothing to kill again.
        let lens = FaultSet {
            dead_lens1: vec![2],
            ..FaultSet::none()
        };
        let covered = fault_table(&h, &lens);
        assert_eq!(
            covered.apply_arc_event(beam_arc(&h, 70), false),
            RepairStats::default(),
            "lens 2 already occludes beam 70"
        );
    }

    #[test]
    fn kill_revive_kill_same_beam_is_epoch_clean() {
        // The double-transition regression: the same beam dying,
        // reviving, and dying again must land on the fresh-build table
        // at every step, with the published snapshot tracking each
        // transition under a strictly advancing epoch (a stale epoch
        // here is exactly the stale-route wedge the snapshot-path
        // engine would inherit).
        let h = fabric();
        let router = fault_table(&h, &FaultSet::none());
        let t = 42u64;
        let arc = beam_arc(&h, t);
        let dead = FaultSet {
            dead_transmitters: vec![t],
            ..FaultSet::none()
        };
        let epoch = |r: &DynamicRoutingTable| r.snapshot_epoch();
        let mut epochs = vec![epoch(&router)];
        router.apply_arc_event(arc, false);
        epochs.push(epoch(&router));
        assert_eq!(router.snapshot(), fault_table(&h, &dead).snapshot());
        router.apply_arc_event(arc, true);
        epochs.push(epoch(&router));
        assert_eq!(
            router.snapshot(),
            fault_table(&h, &FaultSet::none()).snapshot()
        );
        router.apply_arc_event(arc, false);
        epochs.push(epoch(&router));
        assert_eq!(router.snapshot(), fault_table(&h, &dead).snapshot());
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "every row-changing transition must publish: {epochs:?}"
        );
        // The published read view answers exactly like the locked path
        // after the full kill→revive→kill sequence.
        let snap = router.published_snapshot().expect("published");
        for src in (0..h.node_count()).step_by(13) {
            for dst in (0..h.node_count()).step_by(11) {
                assert_eq!(
                    snap.next_hop(src, dst),
                    router.next_hop(src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn compound_faults_accumulate() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![7, 8],
            dead_receivers: vec![100],
            dead_lens1: vec![5],
            dead_lens2: vec![],
        };
        let killed = faults.killed_beam_count(&h);
        // Lens 5 kills 32; transmitters 7, 8 are outside group 5
        // (group = t / 32, so 7/32 = 0); receiver 100's source may or
        // may not overlap — bound it instead of hardcoding.
        assert!((33..=35).contains(&killed), "killed = {killed}");
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, killed);
    }

    #[test]
    fn degraded_but_connected_fabric_still_routes() {
        // Two scattered transmitter faults leave B(2,8) strongly
        // connected; diameter grows by a bounded amount.
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![3, 200],
            ..FaultSet::none()
        };
        let report = assess(&h, &faults);
        assert!(report.strongly_connected);
        let diameter = report.diameter.unwrap();
        assert!((8..=12).contains(&diameter), "diameter {diameter}");
    }
}
