//! Property tests pinning every `Router` implementation to BFS ground
//! truth, across the paper's whole family zoo (B, K, II, RRK) and on
//! faulted fabrics.
//!
//! The contract under test: for every pair `(src, dst)`, a router's
//! route exists iff BFS says `dst` is reachable, has exactly the BFS
//! distance, and walks real arcs of the digraph it routes over.

use otis_core::{
    BfsRouter, DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, ImaseItoh, Kautz,
    KautzRouter, Router, RoutingTable, Rrk,
};
use otis_digraph::{bfs, Digraph, INFINITY};
use otis_optics::faults::{surviving_digraph, FaultSet};
use otis_optics::HDigraph;
use proptest::prelude::*;

/// The fault-aware router: the repairable table over the full fabric
/// with `faults`' beams dead.
fn fault_table(h: &HDigraph, faults: &FaultSet) -> DynamicRoutingTable {
    DynamicRoutingTable::with_dead_arcs(
        &surviving_digraph(h, &FaultSet::none()),
        &faults.dead_arcs(h),
        h.name(),
    )
}

/// Check one router against BFS on `g` for a sampled pair, returning
/// an error message on disagreement (proptest-friendly).
fn check_pair(router: &dyn Router, g: &Digraph, src: u64, dst: u64) -> Result<(), String> {
    let expected = bfs::distances(g, src as u32)[dst as usize];
    match router.route(src, dst) {
        None => {
            if expected != INFINITY {
                return Err(format!(
                    "{}: no route {src}→{dst} but BFS distance is {expected}",
                    router.name()
                ));
            }
        }
        Some(path) => {
            if expected == INFINITY {
                return Err(format!("{}: routed unreachable {src}→{dst}", router.name()));
            }
            if path.len() as u32 - 1 != expected {
                return Err(format!(
                    "{}: route {src}→{dst} has {} hops, BFS says {expected}",
                    router.name(),
                    path.len() - 1
                ));
            }
            for pair in path.windows(2) {
                if !g.has_arc(pair[0] as u32, pair[1] as u32) {
                    return Err(format!(
                        "{}: hop {} → {} is not an arc",
                        router.name(),
                        pair[0],
                        pair[1]
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arithmetic and table routers agree with BFS on random B(d,D).
    #[test]
    fn debruijn_routers_match_bfs(d in 2u32..5, dim in 1u32..5, seed in any::<u64>()) {
        let b = DeBruijn::new(d, dim);
        let g = b.digraph();
        let n = b.node_count();
        let arithmetic = DeBruijnRouter::new(b);
        let table = RoutingTable::new(&g);
        let src = seed % n;
        let dst = (seed >> 17) % n;
        prop_assert_eq!(check_pair(&arithmetic, &g, src, dst), Ok(()));
        prop_assert_eq!(check_pair(&table, &g, src, dst), Ok(()));
        prop_assert_eq!(arithmetic.distance(src, dst), table.distance(src, dst));
    }

    /// Arithmetic and table routers agree with BFS on random K(d,D).
    #[test]
    fn kautz_routers_match_bfs(d in 2u32..4, dim in 1u32..4, seed in any::<u64>()) {
        let k = Kautz::new(d, dim);
        let g = k.digraph();
        let n = k.node_count();
        let arithmetic = KautzRouter::new(k);
        let table = RoutingTable::new(&g);
        let src = seed % n;
        let dst = (seed >> 17) % n;
        prop_assert_eq!(check_pair(&arithmetic, &g, src, dst), Ok(()));
        prop_assert_eq!(check_pair(&table, &g, src, dst), Ok(()));
        prop_assert_eq!(arithmetic.distance(src, dst), table.distance(src, dst));
    }

    /// The table router handles II/RRK at *generic* sizes (where no
    /// arithmetic router exists), matching BFS exactly.
    #[test]
    fn table_router_matches_bfs_on_ii_and_rrk(n in 2u64..120, d in 2u32..4, seed in any::<u64>()) {
        let src = seed % n;
        let dst = (seed >> 17) % n;
        let ii = ImaseItoh::new(d, n).digraph();
        prop_assert_eq!(check_pair(&RoutingTable::new(&ii), &ii, src, dst), Ok(()));
        let rrk = Rrk::new(d, n).digraph();
        prop_assert_eq!(check_pair(&RoutingTable::new(&rrk), &rrk, src, dst), Ok(()));
    }

    /// The per-packet BFS baseline is itself correct (it had better
    /// be, it is the ground-truth-shaped competitor).
    #[test]
    fn bfs_router_matches_bfs(dim in 2u32..5, seed in any::<u64>()) {
        let b = DeBruijn::new(2, dim);
        let g = b.digraph();
        let n = b.node_count();
        let baseline = BfsRouter::new(&g);
        prop_assert_eq!(check_pair(&baseline, &g, seed % n, (seed >> 17) % n), Ok(()));
    }

    /// Fault-aware routing on a degraded fabric: whenever a path
    /// survives, the router delivers on a shortest surviving route;
    /// when none survives, it reports unreachable.
    #[test]
    fn fault_aware_router_delivers_iff_path_survives(
        dead in proptest::collection::vec(0u64..128, 0..=10),
        lens in 0u64..8,
        seed in any::<u64>(),
    ) {
        // H(8,16,2) ≅ B(2,6): 64 nodes, 128 beams, 8 first-array lenses.
        let h = HDigraph::new(8, 16, 2);
        let faults = FaultSet {
            dead_transmitters: dead,
            dead_lens1: vec![lens],
            ..FaultSet::none()
        };
        let survivors = surviving_digraph(&h, &faults);
        let router = fault_table(&h, &faults);
        let n = h.node_count();
        let src = seed % n;
        let dst = (seed >> 17) % n;
        prop_assert_eq!(check_pair(&router, &survivors, src, dst), Ok(()));
        // And the router never uses a dead beam: already enforced by
        // check_pair walking `survivors`' arcs.
    }
}

/// Exhaustive (non-property) agreement sweep on one instance of every
/// family, so a plain `cargo test` pins the full matrix at least once.
#[test]
fn all_routers_agree_exhaustively_on_small_instances() {
    let b = DeBruijn::new(2, 4);
    let g = b.digraph();
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(DeBruijnRouter::new(b)),
        Box::new(RoutingTable::new(&g)),
        Box::new(BfsRouter::new(&g)),
    ];
    for router in &routers {
        for src in 0..16 {
            for dst in 0..16 {
                check_pair(router.as_ref(), &g, src, dst).unwrap();
            }
        }
    }

    let k = Kautz::new(2, 3);
    let kg = k.digraph();
    let kautz_routers: Vec<Box<dyn Router>> = vec![
        Box::new(KautzRouter::new(k)),
        Box::new(RoutingTable::new(&kg)),
    ];
    for router in &kautz_routers {
        for src in 0..kg.node_count() as u64 {
            for dst in 0..kg.node_count() as u64 {
                check_pair(router.as_ref(), &kg, src, dst).unwrap();
            }
        }
    }
}

/// A lens failure that disconnects whole groups: the fault-aware
/// router must refuse exactly the dead pairs and still deliver the
/// rest.
#[test]
fn fault_aware_router_on_disconnected_fabric() {
    let h = HDigraph::new(16, 32, 2);
    // First-array lens 3 kills all out-arcs of group 3's nodes.
    let faults = FaultSet {
        dead_lens1: vec![3],
        ..FaultSet::none()
    };
    let survivors = surviving_digraph(&h, &faults);
    let router = fault_table(&h, &faults);
    let mut delivered = 0u32;
    let mut refused = 0u32;
    for src in (0..h.node_count()).step_by(3) {
        let dist = bfs::distances(&survivors, src as u32);
        for dst in (0..h.node_count()).step_by(7) {
            check_pair(&router, &survivors, src, dst).unwrap();
            if dist[dst as usize] == INFINITY {
                refused += 1;
            } else {
                delivered += 1;
            }
        }
    }
    assert!(delivered > 0, "most pairs still deliver");
    assert!(refused > 0, "a dead lens strands some pairs");
}
