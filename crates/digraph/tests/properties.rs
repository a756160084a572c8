//! Property-based tests for the digraph substrate.

use otis_digraph::compressed::{CompressedNextHopTable, ShiftDigraph};
use otis_digraph::repair::RepairableNextHopTable;
use otis_digraph::{bfs, connectivity, invariants, iso, ops, Digraph, DigraphBuilder};
use proptest::prelude::*;

/// Strategy: a random digraph with 1..=12 vertices and 0..=30 arcs
/// (loops and parallels allowed).
fn digraph_strategy() -> impl Strategy<Value = Digraph> {
    (1usize..=12).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=30).prop_map(move |arcs| {
            let mut b = DigraphBuilder::new(n);
            for (u, v) in arcs {
                b.add_arc(u, v);
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn reverse_is_involution(g in digraph_strategy()) {
        prop_assert_eq!(ops::reverse(&ops::reverse(&g)), g);
    }

    #[test]
    fn reverse_swaps_degree_pairs(g in digraph_strategy()) {
        let r = ops::reverse(&g);
        let fwd = invariants::degree_pair_multiset(&g);
        let mut bwd: Vec<(u32, u32)> = invariants::degree_pair_multiset(&r)
            .into_iter()
            .map(|(o, i)| (i, o))
            .collect();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn bfs_distances_triangle_inequality_on_arcs(g in digraph_strategy()) {
        // For every arc u->v and source s: dist(s,v) <= dist(s,u) + 1.
        for s in 0..g.node_count() as u32 {
            let dist = bfs::distances(&g, s);
            for (u, v) in g.arcs() {
                if dist[u as usize] != otis_digraph::INFINITY {
                    prop_assert!(dist[v as usize] <= dist[u as usize] + 1);
                }
            }
        }
    }

    #[test]
    fn relabeling_preserves_everything(g in digraph_strategy(), seed in any::<u64>()) {
        use rand::{seq::SliceRandom, SeedableRng};
        let n = g.node_count();
        let mut mapping: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        mapping.shuffle(&mut rng);
        let h = ops::relabel(&g, &mapping);
        prop_assert_eq!(h.node_count(), g.node_count());
        prop_assert_eq!(h.arc_count(), g.arc_count());
        prop_assert_eq!(invariants::certificate(&g), invariants::certificate(&h));
        prop_assert_eq!(
            connectivity::weak_components(&g).size_multiset(),
            connectivity::weak_components(&h).size_multiset()
        );
        prop_assert_eq!(
            connectivity::strong_components(&g).size_multiset(),
            connectivity::strong_components(&h).size_multiset()
        );
        prop_assert_eq!(bfs::diameter(&g), bfs::diameter(&h));
        // relabel maps new->old, so the inverse table is the witness
        // from g to h: witness[old] = new.
        let mut witness = vec![0u32; n];
        for (new, &old) in mapping.iter().enumerate() {
            witness[old as usize] = new as u32;
        }
        prop_assert_eq!(iso::check_witness(&g, &h, &witness), Ok(()));
        // And VF2 must agree.
        prop_assert!(iso::are_isomorphic(&g, &h));
    }

    #[test]
    fn scc_count_between_one_and_n(g in digraph_strategy()) {
        let scc = connectivity::strong_components(&g);
        prop_assert!(scc.count() >= 1);
        prop_assert!(scc.count() <= g.node_count());
        // Weak components never outnumber strong ones.
        prop_assert!(connectivity::weak_components(&g).count() <= scc.count());
    }

    #[test]
    fn line_digraph_laws(g in digraph_strategy()) {
        let l = ops::line_digraph(&g);
        prop_assert_eq!(l.node_count(), g.arc_count());
        let indeg = g.in_degrees();
        let expected: usize = (0..g.node_count() as u32)
            .map(|v| indeg[v as usize] * g.out_degree(v))
            .sum();
        prop_assert_eq!(l.arc_count(), expected);
    }

    #[test]
    fn conjunction_laws(g in digraph_strategy(), h in digraph_strategy()) {
        let c = ops::conjunction(&g, &h);
        prop_assert_eq!(c.node_count(), g.node_count() * h.node_count());
        prop_assert_eq!(c.arc_count(), g.arc_count() * h.arc_count());
    }

    #[test]
    fn parallel_eccentricities_match_sequential(g in digraph_strategy()) {
        prop_assert_eq!(bfs::eccentricities(&g), bfs::eccentricities_seq(&g));
    }

    #[test]
    fn induced_on_all_vertices_is_identity(g in digraph_strategy()) {
        let all: Vec<u32> = (0..g.node_count() as u32).collect();
        prop_assert_eq!(ops::induced_subgraph(&g, &all), g);
    }

    #[test]
    fn serde_round_trip(g in digraph_strategy()) {
        let json = serde_json::to_string(&g).unwrap();
        let back: Digraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conjunction with C_1 (a single loop) is an isomorphic copy.
    #[test]
    fn conjunction_with_loop_vertex_is_identity(g in digraph_strategy()) {
        let one = ops::circuit(1);
        let c = ops::conjunction(&g, &one);
        prop_assert_eq!(c, g.clone());
        let c_left = ops::conjunction(&one, &g);
        prop_assert_eq!(c_left, g);
    }
}

/// Strategy: a random fabric for the repair battery — 5..=200
/// vertices, each with 0..=4 out-arcs to uniform targets, so loops,
/// parallel arcs and sinks (unreachable pairs) all occur and nothing
/// follows a shift numbering.
fn repair_fabric_strategy() -> impl Strategy<Value = Digraph> {
    (5usize..=200).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0..n as u32, 0..=4), n)
            .prop_map(move |out| Digraph::from_fn(n, |u| out[u as usize].clone()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repair matches a from-scratch build of the survivor digraph
    /// after every flip of a random kill/revive walk.
    #[test]
    fn repair_walk_matches_rebuild_on_arbitrary_digraphs(
        g in repair_fabric_strategy(),
        flips in proptest::collection::vec(any::<usize>(), 1..=40),
    ) {
        prop_assume!(g.arc_count() > 0 && ShiftDigraph::detect(&g).is_none());
        let mut table = RepairableNextHopTable::new(&g);
        for (step, flip) in flips.into_iter().enumerate() {
            let arc = flip % g.arc_count();
            table.set_arc_alive(arc, !table.arc_alive(arc));
            let rebuilt = CompressedNextHopTable::try_build(&table.survivor_digraph())
                .expect("under the cap");
            prop_assert_eq!(
                table.snapshot(),
                rebuilt,
                "diverged at flip {} (arc {})",
                step,
                arc
            );
        }
    }
}
