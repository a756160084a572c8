//! Proposition 4.1 and Corollaries 4.2–4.6: de Bruijn layouts on
//! OTIS, and lens minimization.

use otis_core::AlphabetDigraph;
use otis_optics::HDigraph;
use otis_perm::{NotCyclicError, Perm};
use otis_util::digits;
use serde::{Deserialize, Serialize};

/// The index permutation `f_{p',q'}` of Proposition 4.1, on
/// `Z_D` with `D = p' + q' - 1`:
///
/// ```text
/// f(i) = i + p'            if i < q' - 1
///      = p' - 1            if i = q' - 1
///      = i + p' - 1 mod D  otherwise
/// ```
pub fn layout_permutation(p_prime: u32, q_prime: u32) -> Perm {
    assert!(p_prime >= 1 && q_prime >= 1, "need p', q' ≥ 1");
    let dim = p_prime + q_prime - 1;
    let images: Vec<u32> = (0..dim)
        .map(|i| {
            if i < q_prime - 1 {
                i + p_prime
            } else if i == q_prime - 1 {
                p_prime - 1
            } else {
                (i + p_prime - 1) % dim
            }
        })
        .collect();
    Perm::from_images(images).expect("f_{p',q'} is a permutation")
}

/// Proposition 4.1: the alphabet-digraph form of
/// `H(d^{p'}, d^{q'}, d)` — namely `A(f_{p',q'}, C, p'-1)`.
///
/// With the standard d-ary vertex labeling the two are **equal** as
/// labeled digraphs (the proposition's proof constructs exactly this
/// labeling); the test suite asserts equality.
pub fn h_as_alphabet_digraph(d: u32, p_prime: u32, q_prime: u32) -> AlphabetDigraph {
    let dim = p_prime + q_prime - 1;
    AlphabetDigraph::new(
        d,
        dim,
        layout_permutation(p_prime, q_prime),
        Perm::complement(d as usize),
        p_prime - 1,
    )
}

/// A candidate OTIS layout `OTIS(d^{p'}, d^{q'})` hosting a degree-`d`
/// digraph on `d^D` nodes, `D = p' + q' - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayoutSpec {
    d: u32,
    p_prime: u32,
    q_prime: u32,
}

impl LayoutSpec {
    /// Candidate layout; requires `d ≥ 2`, `p', q' ≥ 1`, and both
    /// `d^{p'}` and `d^{q'}` representable.
    pub fn new(d: u32, p_prime: u32, q_prime: u32) -> Self {
        assert!(d >= 2, "alphabet size must be ≥ 2");
        assert!(p_prime >= 1 && q_prime >= 1, "need p', q' ≥ 1");
        // Force early overflow panics with a clear message.
        let _ = digits::pow(d as u64, p_prime);
        let _ = digits::pow(d as u64, q_prime);
        LayoutSpec {
            d,
            p_prime,
            q_prime,
        }
    }

    /// Degree `d`.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Exponent `p'` (`p = d^{p'}`).
    pub fn p_prime(&self) -> u32 {
        self.p_prime
    }

    /// Exponent `q'` (`q = d^{q'}`).
    pub fn q_prime(&self) -> u32 {
        self.q_prime
    }

    /// Number of transmitter-side lenses `p = d^{p'}`.
    pub fn p(&self) -> u64 {
        digits::pow(self.d as u64, self.p_prime)
    }

    /// Number of receiver-side lenses `q = d^{q'}`.
    pub fn q(&self) -> u64 {
        digits::pow(self.d as u64, self.q_prime)
    }

    /// Total lenses `p + q` — the cost Corollary 4.6 minimizes.
    pub fn lens_count(&self) -> u64 {
        self.p() + self.q()
    }

    /// The hosted dimension `D = p' + q' - 1`.
    pub fn diameter(&self) -> u32 {
        self.p_prime + self.q_prime - 1
    }

    /// Number of processing nodes `d^D = pq/d`.
    pub fn node_count(&self) -> u64 {
        digits::pow(self.d as u64, self.diameter())
    }

    /// The layout permutation `f_{p',q'}`.
    pub fn permutation(&self) -> Perm {
        layout_permutation(self.p_prime, self.q_prime)
    }

    /// **Corollary 4.2 / 4.5**: is `H(d^{p'}, d^{q'}, d) ≅ B(d, D)`?
    /// Exactly the cyclicity of `f_{p',q'}`, checked in `O(D)` time.
    pub fn is_debruijn(&self) -> bool {
        self.permutation().is_cyclic()
    }

    /// The OTIS-realized digraph `H(d^{p'}, d^{q'}, d)`.
    pub fn h_digraph(&self) -> HDigraph {
        HDigraph::new(self.p(), self.q(), self.d)
    }

    /// The alphabet-digraph view `A(f_{p',q'}, C, p'-1)`
    /// (Proposition 4.1).
    pub fn alphabet_digraph(&self) -> AlphabetDigraph {
        h_as_alphabet_digraph(self.d, self.p_prime, self.q_prime)
    }

    /// The constructive isomorphism witness
    /// `H(d^{p'}, d^{q'}, d) → B(d, D)` (Proposition 4.1 composed with
    /// Proposition 3.9), or the cycle-type error when `f` is not
    /// cyclic.
    pub fn debruijn_witness(&self) -> Result<Vec<u32>, NotCyclicError> {
        otis_core::iso::prop_3_9_witness(&self.alphabet_digraph())
    }
}

/// **Corollary 4.4**: for even `D`, the balanced split
/// `p' = D/2, q' = D/2 + 1` always yields a de Bruijn layout with
/// `p + q = d^{D/2}(1 + d) = Θ(√n)` lenses.
pub fn balanced_even_layout(d: u32, diameter: u32) -> LayoutSpec {
    assert!(
        diameter >= 2 && diameter.is_multiple_of(2),
        "Corollary 4.4 needs even D ≥ 2"
    );
    let spec = LayoutSpec::new(d, diameter / 2, diameter / 2 + 1);
    debug_assert!(spec.is_debruijn(), "Corollary 4.4 guarantees cyclicity");
    spec
}

/// **Corollary 4.6**: the lens-minimal de Bruijn layout of `B(d, D)`,
/// found by scanning the `D` splits `p' + q' = D + 1` and testing each
/// permutation for cyclicity (`O(D)` each, `O(D²)` total). Always
/// succeeds: the split `(1, D)` is the Imase–Itoh layout and its
/// permutation is the full rotation.
///
/// ```
/// // The paper's flagship: B(2,8) on 48 lenses instead of 258.
/// let best = otis_layout::minimize_lenses(2, 8).unwrap();
/// assert_eq!((best.p(), best.q()), (16, 32));
/// assert_eq!(best.lens_count(), 48);
/// assert!(best.is_debruijn());
/// ```
pub fn minimize_lenses(d: u32, diameter: u32) -> Option<LayoutSpec> {
    let mut best: Option<LayoutSpec> = None;
    for p_prime in 1..=diameter {
        let q_prime = diameter + 1 - p_prime;
        let spec = LayoutSpec::new(d, p_prime, q_prime);
        if !spec.is_debruijn() {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|b| spec.lens_count() < b.lens_count())
        {
            best = Some(spec);
        }
    }
    best
}

/// Lens count of the prior-art Imase–Itoh layout `OTIS(d, n)` [14]:
/// `d + n = O(n)` lenses for `n` nodes — the baseline the paper's
/// `Θ(√n)` result improves on.
pub fn ii_layout_lens_count(d: u32, n: u64) -> u64 {
    d as u64 + n
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_core::{DeBruijn, DigraphFamily};
    use otis_digraph::iso::check_witness;

    #[test]
    fn paper_f_pq_for_h_4_8_2() {
        // H(4,8,2): p'=2, q'=3, D=4; f: 0→2, 1→3, 2→1, 3→0.
        let f = layout_permutation(2, 3);
        assert_eq!(f.images(), &[2, 3, 1, 0]);
        assert!(f.is_cyclic());
    }

    #[test]
    fn proposition_4_1_digraph_equality() {
        // H(d^{p'}, d^{q'}, d) = A(f_{p',q'}, C, p'-1), exactly.
        for (d, pp, qq) in [
            (2u32, 2u32, 3u32),
            (2, 1, 4),
            (2, 3, 3),
            (2, 4, 5),
            (3, 2, 2),
            (3, 1, 3),
            (4, 2, 2),
        ] {
            let spec = LayoutSpec::new(d, pp, qq);
            let h = spec.h_digraph().digraph();
            let a = spec.alphabet_digraph().digraph();
            assert_eq!(
                h,
                a,
                "H({}, {}, {d}) != A(f, C, {})",
                spec.p(),
                spec.q(),
                pp - 1
            );
        }
    }

    #[test]
    fn corollary_4_2_examples_from_section_4_3() {
        // H(2,256,2), H(4,128,2), H(16,32,2) all ≅ B(2,8).
        for (pp, qq) in [(1u32, 8u32), (2, 7), (4, 5)] {
            let spec = LayoutSpec::new(2, pp, qq);
            assert_eq!(spec.diameter(), 8);
            assert!(spec.is_debruijn(), "H(2^{pp}, 2^{qq}, 2) should be B(2,8)");
            let witness = spec.debruijn_witness().expect("cyclic");
            let b = DeBruijn::new(2, 8).digraph();
            assert_eq!(
                check_witness(&spec.h_digraph().digraph(), &b, &witness),
                Ok(())
            );
        }
    }

    #[test]
    fn lens_minimal_binary_witnesses_factor_into_byte_tables() {
        // The OTIS witness permutes and complements binary digits, so
        // both of its directions evaluate from ⌈D/8⌉ byte tables — at
        // B(2,20), 3 KB per direction instead of a 4 MB array.
        for dim in [8u32, 14, 20] {
            let spec = minimize_lenses(2, dim).expect("even D has a layout");
            let witness = spec.debruijn_witness().expect("cyclic");
            let inverse = otis_core::iso::invert_witness(&witness);
            for (direction, table) in [("to ranks", &witness), ("from ranks", &inverse)] {
                let map = otis_core::WitnessMap::new(table);
                assert_eq!(
                    map.chunk_count(),
                    dim.div_ceil(8) as usize,
                    "B(2,{dim}) {direction}"
                );
            }
        }
    }

    #[test]
    fn h_numbered_fabric_takes_the_bfs_path() {
        // H(4,8,2) ≅ B(2,4), but in transceiver numbering its arcs do
        // not shift: the compressed build must fall back to the BFS
        // and still answer like the dense BFS table.
        use otis_digraph::compressed::{CompressedNextHopTable, ShiftDigraph};
        let spec = LayoutSpec::new(2, 2, 3);
        let h = spec.h_digraph().digraph();
        assert_eq!(ShiftDigraph::detect(&h), None);
        assert!(ShiftDigraph::detect(&DeBruijn::new(2, 4).digraph()).is_some());
        let compressed = CompressedNextHopTable::build(&h);
        let dense = otis_digraph::bfs::NextHopTable::build(&h);
        for u in 0..h.node_count() as u32 {
            for dst in 0..h.node_count() as u32 {
                assert_eq!(compressed.next_hop(u, dst), dense.next_hop(u, dst));
                assert_eq!(compressed.distance(u, dst), dense.distance(u, dst));
            }
        }
    }

    #[test]
    fn corollary_4_2_negative_split() {
        // H(8,64,2): p'=3, q'=6, D=8 — check against the criterion and
        // the ground truth simultaneously.
        for (pp, qq) in [(3u32, 6u32), (5, 4)] {
            let spec = LayoutSpec::new(2, pp, qq);
            let predicted = spec.is_debruijn();
            let h = spec.h_digraph().digraph();
            let b = DeBruijn::new(2, spec.diameter()).digraph();
            let actually_iso = !otis_digraph::invariants::definitely_not_isomorphic(&h, &b)
                && otis_digraph::bfs::diameter(&h) == Some(spec.diameter());
            if predicted {
                let witness = spec.debruijn_witness().unwrap();
                assert_eq!(check_witness(&h, &b, &witness), Ok(()));
            } else {
                // Non-cyclic f ⇒ H is disconnected ⇒ certainly not B.
                assert!(
                    !otis_digraph::connectivity::is_strongly_connected(&h),
                    "non-cyclic layout must be disconnected"
                );
                assert!(!actually_iso);
            }
        }
    }

    #[test]
    fn proposition_4_3_odd_diameter_balanced_fails() {
        // p' = q': D = 2p'-1 odd; isomorphic iff D = 1.
        assert!(LayoutSpec::new(2, 1, 1).is_debruijn(), "D = 1 works");
        for p_prime in 2..=8u32 {
            let spec = LayoutSpec::new(2, p_prime, p_prime);
            assert!(
                !spec.is_debruijn(),
                "p' = q' = {p_prime} must fail for D = {}",
                spec.diameter()
            );
        }
    }

    #[test]
    fn corollary_4_4_even_diameters_always_work() {
        for d in [2u32, 3, 5] {
            for half in 1..=5u32 {
                let diameter = 2 * half;
                let spec = balanced_even_layout(d, diameter);
                assert!(spec.is_debruijn(), "d={d}, D={diameter}");
                assert_eq!(spec.lens_count(), spec.p() + spec.q());
                // Θ(√n): p + q = d^{D/2}(1+d) and n = d^D.
                let sqrt_n = digits::pow(d as u64, half);
                assert_eq!(spec.lens_count(), sqrt_n * (1 + d as u64));
            }
        }
    }

    #[test]
    fn corollary_4_4_witness_verifies_for_b28() {
        // The headline object: B(2,8) on OTIS(16,32) with 48 lenses.
        let spec = balanced_even_layout(2, 8);
        assert_eq!((spec.p(), spec.q()), (16, 32));
        assert_eq!(spec.lens_count(), 48);
        let witness = spec.debruijn_witness().unwrap();
        let b = DeBruijn::new(2, 8).digraph();
        assert_eq!(
            check_witness(&spec.h_digraph().digraph(), &b, &witness),
            Ok(())
        );
    }

    #[test]
    fn section_4_4_odd_diameter_cases() {
        // H(2⁵, 2⁷, 2) ≅ B(2,11) but H(d⁶, d⁸, d) ≇ B(d,13).
        assert!(LayoutSpec::new(2, 5, 7).is_debruijn());
        assert!(!LayoutSpec::new(2, 6, 8).is_debruijn());
        // The criterion is about f only, so d is irrelevant:
        assert!(!LayoutSpec::new(3, 6, 8).is_debruijn());
        assert!(LayoutSpec::new(3, 5, 7).is_debruijn());
    }

    #[test]
    fn minimize_lenses_even_is_balanced() {
        for d in [2u32, 3] {
            for diameter in [2u32, 4, 6, 8, 10] {
                let best = minimize_lenses(d, diameter).expect("always a layout");
                let balanced = balanced_even_layout(d, diameter);
                assert_eq!(best, balanced, "d={d}, D={diameter}");
            }
        }
    }

    #[test]
    fn minimize_lenses_odd_cases() {
        // D = 11: best is (5, 7) — closest-to-balanced cyclic split.
        let best = minimize_lenses(2, 11).unwrap();
        assert_eq!((best.p_prime(), best.q_prime()), (5, 7));
        // D = 13: (6, 8) is not cyclic; the optimum is wider.
        let best13 = minimize_lenses(2, 13).unwrap();
        assert!(best13.is_debruijn());
        assert_ne!((best13.p_prime(), best13.q_prime()), (6, 8));
        // Whatever it is, it beats the II layout.
        assert!(best13.lens_count() < ii_layout_lens_count(2, best13.node_count()));
    }

    #[test]
    fn minimized_lenses_beat_ii_layout_asymptotically() {
        for diameter in [4u32, 6, 8, 10, 12] {
            let best = minimize_lenses(2, diameter).unwrap();
            let n = best.node_count();
            let ii = ii_layout_lens_count(2, n);
            assert!(
                best.lens_count() < ii,
                "D={diameter}: {} lenses vs II's {}",
                best.lens_count(),
                ii
            );
            // The gap widens: Θ(√n) vs O(n) is a ≥4× win by D = 10.
            if diameter >= 10 {
                assert!(best.lens_count() * 4 < ii, "D={diameter} gap too small");
            }
        }
    }

    #[test]
    fn minimize_always_succeeds_via_ii_split() {
        // Split (1, D) is always cyclic (full rotation) — so the
        // optimizer can never fail.
        for diameter in 1..=20u32 {
            assert!(layout_permutation(1, diameter).is_cyclic());
            assert!(minimize_lenses(2, diameter).is_some(), "D = {diameter}");
        }
    }

    #[test]
    fn lens_minimization_matches_brute_force() {
        // O(D²) optimizer vs materialized brute force at small sizes.
        for diameter in 1..=10u32 {
            let best = minimize_lenses(2, diameter).unwrap();
            let brute = (1..=diameter)
                .map(|pp| LayoutSpec::new(2, pp, diameter + 1 - pp))
                .filter(LayoutSpec::is_debruijn)
                .min_by_key(LayoutSpec::lens_count)
                .unwrap();
            assert_eq!(best.lens_count(), brute.lens_count(), "D = {diameter}");
        }
    }
}
