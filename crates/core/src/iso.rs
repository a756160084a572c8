//! Explicit isomorphism witnesses for Propositions 3.2, 3.3 and 3.9.
//!
//! Each function returns a **vertex bijection** (as a rank map), never
//! a bare yes/no: the whole value of the paper over a generic
//! isomorphism search is that the maps are constructed in closed form
//! and verified in linear time
//! ([`otis_digraph::iso::check_witness`]) — or `O(D)` time when only
//! the criterion is needed
//! ([`AlphabetDigraph::is_debruijn_isomorphic`]).

use crate::{AlphabetDigraph, BSigma, PositionalSigma};
use otis_perm::{NotCyclicError, Perm};
use otis_words::WordSpace;
use std::sync::Arc;

/// Materialize a rank-level witness into the `Vec<u32>` form accepted
/// by [`otis_digraph::iso::check_witness`]. Panics if `n` exceeds
/// `u32` range.
pub fn materialize(n: u64, witness: impl Fn(u64) -> u64) -> Vec<u32> {
    assert!(n <= u32::MAX as u64, "witness too large to materialize");
    (0..n)
        .map(|u| {
            let image = witness(u);
            assert!(image < n, "witness image {image} out of range");
            image as u32
        })
        .collect()
}

/// [`materialize`] for a *digit map* over `space`: a witness that
/// moves digit positions and maps each letter, so that
/// `f(u) = f(0) + Σ_i (f(x_i·dⁱ) − f(0))` for `u = Σ_i x_i·dⁱ`. Every
/// witness of Propositions 3.2 and 3.9, the positional-σ notice and
/// self-converse is one. The closure is evaluated only at the
/// `1 + D·(d−1)` single-digit ranks; a digit odometer then fills all
/// `d^D` images from those contributions, one add per carry.
fn materialize_digit_map(space: &WordSpace, witness: impl Fn(u64) -> u64) -> Vec<u32> {
    let n = space.size();
    assert!(n <= u32::MAX as u64, "witness too large to materialize");
    let (d, dim) = (space.d() as usize, space.dim() as usize);
    let origin = witness(0);
    // contribution[i·d + x] = f(x·dⁱ) − f(0), wrapping: the sum below
    // only ever lands on real images.
    let mut contribution = vec![0u64; dim * d];
    let mut place = 1u64;
    for i in 0..dim {
        for x in 1..d {
            contribution[i * d + x] = witness(x as u64 * place).wrapping_sub(origin);
        }
        place = place.saturating_mul(d as u64);
    }
    let mut digits = vec![0usize; dim];
    let mut image = origin;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        assert!(image < n, "witness image {image} out of range");
        out.push(image as u32);
        // Advance the odometer: zero every maxed-out low digit, then
        // bump the first that can move.
        for (i, digit) in digits.iter_mut().enumerate() {
            let row = &contribution[i * d..(i + 1) * d];
            image = image.wrapping_sub(row[*digit]);
            if *digit + 1 < d {
                *digit += 1;
                image = image.wrapping_add(row[*digit]);
                break;
            }
            *digit = 0;
        }
    }
    out
}

/// A node bijection stored for evaluation from per-byte tables:
///
/// ```text
/// map(u) = base + Σ_c T_c[(u >> 8c) & 0xff]      (wrapping adds)
/// T_c[v] = table[v << 8c] − table[0],  base = table[0]
/// ```
///
/// A witness that permutes binary digits and complements some of them
/// (every `d = 2` witness of the paper, and its inverse) factors this
/// way, so its `2^k` images cost `⌈k/8⌉` tables of 256 entries: 3 KB
/// at `2^20` nodes, resident in L1 where the table itself would be
/// 4 MB of random reads past the last-level cache. The factoring is
/// checked against the table at every `u` when the map is built; a
/// bijection that does not factor keeps the table itself as one
/// full-width chunk, evaluated by the same loop. Cloning shares the
/// tables.
#[derive(Debug, Clone)]
pub struct WitnessMap {
    len: u64,
    base: u32,
    /// Bits of `u` each chunk table consumes: 8 in the byte form, the
    /// bit length of the largest id in the one-chunk form.
    width: u32,
    /// Entries per chunk table.
    stride: usize,
    /// The chunk tables back to back, low byte first.
    tables: Arc<[u32]>,
}

impl WitnessMap {
    /// The map `u ↦ table[u]` over `0..table.len()`, in byte form when
    /// it factors and as the table itself otherwise.
    pub fn new(table: &[u32]) -> Self {
        let len = table.len();
        let width = usize::BITS - len.saturating_sub(1).leading_zeros();
        let base = table.first().copied().unwrap_or(0);
        let chunks = width.div_ceil(8) as usize;
        let mut tables = vec![0u32; chunks * 256];
        for (c, chunk) in tables.chunks_exact_mut(256).enumerate() {
            // Entries past the last id stay 0; no id reaches them.
            for (v, entry) in chunk.iter_mut().enumerate() {
                if let Some(&image) = table.get(v << (8 * c)) {
                    *entry = image.wrapping_sub(base);
                }
            }
        }
        let bytes = WitnessMap {
            len: len as u64,
            base,
            width: 8,
            stride: 256,
            tables: tables.into(),
        };
        if (0..len).all(|u| bytes.get(u as u64) == Some(u64::from(table[u]))) {
            return bytes;
        }
        WitnessMap {
            len: len as u64,
            base: 0,
            width,
            stride: len,
            tables: table.into(),
        }
    }

    /// The image of `u`, or `None` for `u` past the last id.
    #[inline]
    pub fn get(&self, u: u64) -> Option<u64> {
        if u >= self.len {
            return None;
        }
        let mask = (1u64 << self.width) - 1;
        let mut image = self.base;
        let mut rest = u;
        let mut offset = 0;
        while offset < self.tables.len() {
            image = image.wrapping_add(self.tables[offset + (rest & mask) as usize]);
            rest >>= self.width;
            offset += self.stride;
        }
        Some(u64::from(image))
    }

    /// Number of chunk tables a lookup reads: `⌈k/8⌉` in the byte
    /// form over `2^k` nodes, 1 when the map keeps its whole table.
    pub fn chunk_count(&self) -> usize {
        self.tables.len().checked_div(self.stride).unwrap_or(0)
    }
}

/// Proposition 3.2's map `W` from `B_σ(d,D)` onto `B(d,D)`:
///
/// ```text
/// W(x_{D-1} x_{D-2} … x_1 x_0) = σ⁰(x_{D-1}) σ¹(x_{D-2}) … σ^{D-1}(x_0)
/// ```
///
/// i.e. the letter at position `i` passes through `σ^{D-1-i}`.
/// Returned as a rank map; use [`prop_3_2_witness`] for the
/// materialized form.
pub fn prop_3_2_witness_rank(space: &WordSpace, sigma: &Perm) -> impl Fn(u64) -> u64 {
    assert_eq!(
        sigma.len(),
        space.d() as usize,
        "σ must permute the alphabet"
    );
    let dim = space.dim();
    let d = space.d() as u64;
    // Precompute σ^0 .. σ^{D-1} as image tables.
    let powers: Vec<Perm> = {
        let mut acc = Vec::with_capacity(dim as usize);
        let mut current = Perm::identity(sigma.len());
        for _ in 0..dim {
            acc.push(current.clone());
            current = sigma.compose(&current);
        }
        acc
    };
    move |u| {
        let mut rest = u;
        let mut out = 0u64;
        let mut place = 1u64;
        for i in 0..dim {
            let digit = (rest % d) as u32;
            rest /= d;
            let power = &powers[(dim - 1 - i) as usize];
            out += power.apply(digit) as u64 * place;
            place *= d;
        }
        out
    }
}

/// Materialized Proposition 3.2 witness: maps each vertex of
/// `B_σ(d,D)` to its image in `B(d,D)`.
pub fn prop_3_2_witness(bsigma: &BSigma) -> Vec<u32> {
    let rank_map = prop_3_2_witness_rank(bsigma.space(), bsigma.sigma());
    materialize_digit_map(bsigma.space(), rank_map)
}

/// Witness for the "notice" after Proposition 3.2: the per-position
/// twisted digraph [`PositionalSigma`] is isomorphic to `B(d,D)` via
///
/// ```text
/// W(x_{D-1} … x_0) = τ_0(x_{D-1}) τ_1(x_{D-2}) … τ_{D-1}(x_0),
///     τ_0 = Id,  τ_{k+1} = τ_k ∘ σ_k
/// ```
pub fn positional_sigma_witness(ps: &PositionalSigma) -> Vec<u32> {
    materialize_digit_map(ps.space(), positional_sigma_witness_rank(ps))
}

/// Rank-level [`positional_sigma_witness`].
fn positional_sigma_witness_rank(ps: &PositionalSigma) -> impl Fn(u64) -> u64 {
    let space = *ps.space();
    let d = space.d() as u64;
    let dim = space.dim();
    let mut taus: Vec<Perm> = Vec::with_capacity(dim as usize);
    let mut current = Perm::identity(space.d() as usize);
    for k in 0..dim as usize {
        taus.push(current.clone());
        current = current.compose(&ps.sigmas()[k]);
    }
    move |u| {
        let mut rest = u;
        let mut out = 0u64;
        let mut place = 1u64;
        for i in 0..dim {
            let digit = (rest % d) as u32;
            rest /= d;
            // Position i holds x_i, the (D-1-i)-th letter from the
            // left, so it passes through τ_{D-1-i}.
            out += taus[(dim - 1 - i) as usize].apply(digit) as u64 * place;
            place *= d;
        }
        out
    }
}

/// Proposition 3.3: `II(d, d^D) = B_C(d, D) ≅ B(d, D)`.
///
/// Returns the witness mapping Imase–Itoh vertices (integers in
/// `Z_{d^D}`) to de Bruijn vertices. Since `II(d,d^D)` *equals*
/// `B_C(d,D)` vertexwise (checked by the family tests), this is just
/// Proposition 3.2's `W` with `σ = C`.
pub fn prop_3_3_witness(d: u32, diameter: u32) -> Vec<u32> {
    prop_3_2_witness(&BSigma::complemented(d, diameter))
}

/// Proposition 3.9's witness: `A(f, σ, j) → B(d, D)`, defined when `f`
/// is cyclic.
///
/// Construction, straight from the proof:
/// 1. `g = f.orbit_labeling(j)` — `g(i) = fⁱ(j)`, a permutation iff
///    `f` is cyclic, satisfying `g⁻¹ ∘ f ∘ g = ρ` and `g⁻¹(j) = 0`;
/// 2. `→g⁻¹` is an isomorphism `A(f,σ,j) → A(ρ,σ,0) = B_σ(d,D)`;
/// 3. compose with Proposition 3.2's `W`.
pub fn prop_3_9_witness(a: &AlphabetDigraph) -> Result<Vec<u32>, NotCyclicError> {
    let rank_map = prop_3_9_witness_rank(a)?;
    Ok(materialize_digit_map(a.space(), rank_map))
}

/// Rank-level Proposition 3.9 witness for instances too large to
/// materialize. Returns a closure mapping `A(f,σ,j)` ranks to
/// `B(d,D)` ranks.
pub fn prop_3_9_witness_rank(a: &AlphabetDigraph) -> Result<impl Fn(u64) -> u64, NotCyclicError> {
    let g_inv = a.f().orbit_labeling(a.j())?.inverse();
    let space = *a.space();
    let w = prop_3_2_witness_rank(&space, a.sigma());
    Ok(move |u| w(space.apply_index_perm_rank(&g_inv, u)))
}

/// Bonus structural fact used by the layout theory: `B(d, D)` is
/// **self-converse** — reversing every arc yields an isomorphic
/// digraph, with word reversal as the witness. This is what turns the
/// paper's "if `G` has an `OTIS(p,q)`-layout then `G⁻` has an
/// `OTIS(q,p)`-layout" into extra de Bruijn layouts for free.
///
/// Returns the witness from `reverse(B(d,D))` onto `B(d,D)`.
pub fn self_converse_witness(d: u32, diameter: u32) -> Vec<u32> {
    let space = WordSpace::new(d, diameter);
    let reversal = Perm::complement(diameter as usize); // position i ↦ D-1-i
    materialize_digit_map(&space, move |u| space.apply_index_perm_rank(&reversal, u))
}

/// Compose two materialized witnesses (`g → h` then `h → k`).
pub fn compose_witnesses(first: &[u32], second: &[u32]) -> Vec<u32> {
    assert_eq!(
        first.len(),
        second.len(),
        "composing witnesses of different sizes"
    );
    first.iter().map(|&mid| second[mid as usize]).collect()
}

/// Invert a materialized witness.
pub fn invert_witness(witness: &[u32]) -> Vec<u32> {
    let mut inverse = vec![u32::MAX; witness.len()];
    for (u, &image) in witness.iter().enumerate() {
        assert!(
            inverse[image as usize] == u32::MAX,
            "witness is not a bijection at image {image}"
        );
        inverse[image as usize] = u as u32;
    }
    inverse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeBruijn, DigraphFamily, ImaseItoh};
    use otis_digraph::iso::check_witness;
    use otis_perm::{all_permutations, cyclic_permutations};
    use proptest::prelude::*;
    use rand::Rng as _;

    #[test]
    fn prop_3_2_verified_for_sample_sigmas() {
        for (d, dd) in [(2u32, 4u32), (3, 3), (4, 2)] {
            let b = DeBruijn::new(d, dd).digraph();
            for sigma in all_permutations(d as usize).take(8) {
                let bs = BSigma::new(d, dd, sigma.clone());
                let witness = prop_3_2_witness(&bs);
                assert_eq!(
                    check_witness(&bs.digraph(), &b, &witness),
                    Ok(()),
                    "σ = {sigma} (d={d}, D={dd})"
                );
            }
        }
    }

    #[test]
    fn prop_3_2_exhaustive_small() {
        // All 3! alphabet permutations at d = 3, D = 2.
        let b = DeBruijn::new(3, 2).digraph();
        let mut tried = 0;
        for sigma in all_permutations(3) {
            let bs = BSigma::new(3, 2, sigma);
            let witness = prop_3_2_witness(&bs);
            assert_eq!(check_witness(&bs.digraph(), &b, &witness), Ok(()));
            tried += 1;
        }
        assert_eq!(tried, 6);
    }

    #[test]
    fn prop_3_3_witness_maps_ii_onto_debruijn() {
        for (d, dd) in [(2u32, 3u32), (2, 6), (3, 3), (5, 2)] {
            let n = otis_util::digits::pow(d as u64, dd);
            let ii = ImaseItoh::new(d, n).digraph();
            let b = DeBruijn::new(d, dd).digraph();
            let witness = prop_3_3_witness(d, dd);
            assert_eq!(check_witness(&ii, &b, &witness), Ok(()), "II({d},{n})");
        }
    }

    #[test]
    fn prop_3_9_paper_example_331() {
        // The worked example: f = [3,4,5,2,0,1] on Z_6, σ = Id, j = 2.
        let f = Perm::from_images(vec![3, 4, 5, 2, 0, 1]).unwrap();
        for d in [2u32, 3] {
            let a = AlphabetDigraph::new(d, 6, f.clone(), Perm::identity(d as usize), 2);
            let witness = prop_3_9_witness(&a).expect("f is cyclic");
            let b = DeBruijn::new(d, 6).digraph();
            assert_eq!(check_witness(&a.digraph(), &b, &witness), Ok(()), "d = {d}");
        }
    }

    #[test]
    fn prop_3_9_exhaustive_tiny() {
        // Every cyclic f on Z_3, every σ on Z_2, every free position.
        let b = DeBruijn::new(2, 3).digraph();
        for f in cyclic_permutations(3) {
            for sigma in all_permutations(2) {
                for j in 0..3u32 {
                    let a = AlphabetDigraph::new(2, 3, f.clone(), sigma.clone(), j);
                    let witness = prop_3_9_witness(&a).expect("cyclic");
                    assert_eq!(
                        check_witness(&a.digraph(), &b, &witness),
                        Ok(()),
                        "f = {f}, σ = {sigma}, j = {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn prop_3_9_random_cyclic_instances() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x3_9);
        for _ in 0..20 {
            let dim = 2 + rng.gen_range(0..5u32);
            let d = 2 + rng.gen_range(0..2u32);
            if otis_util::digits::pow(d as u64, dim) > 4096 {
                continue;
            }
            let f = Perm::random_cyclic(dim as usize, &mut rng);
            let sigma = Perm::random(d as usize, &mut rng);
            let j = rng.gen_range(0..dim);
            let a = AlphabetDigraph::new(d, dim, f, sigma, j);
            let witness = prop_3_9_witness(&a).expect("cyclic");
            let b = DeBruijn::new(d, dim).digraph();
            assert_eq!(check_witness(&a.digraph(), &b, &witness), Ok(()));
        }
    }

    #[test]
    fn prop_3_9_rejects_non_cyclic() {
        let f = Perm::complement(3); // cycle type [1,2]
        let a = AlphabetDigraph::new(2, 3, f, Perm::identity(2), 1);
        let err = prop_3_9_witness(&a).unwrap_err();
        assert_eq!(err.cycle_type, vec![1, 2]);
        assert!(prop_3_9_witness_rank(&a).is_err());
    }

    #[test]
    fn positional_sigma_witness_verifies() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x32);
        for (d, dd) in [(2u32, 4u32), (3, 3)] {
            let sigmas: Vec<Perm> = (0..dd)
                .map(|_| Perm::random(d as usize, &mut rng))
                .collect();
            let ps = PositionalSigma::new(d, dd, sigmas);
            let witness = positional_sigma_witness(&ps);
            let b = DeBruijn::new(d, dd).digraph();
            assert_eq!(check_witness(&ps.digraph(), &b, &witness), Ok(()));
        }
    }

    #[test]
    fn debruijn_is_self_converse() {
        for (d, dd) in [(2u32, 3u32), (2, 5), (3, 3)] {
            let b = DeBruijn::new(d, dd).digraph();
            let reversed = otis_digraph::ops::reverse(&b);
            let witness = self_converse_witness(d, dd);
            assert_eq!(
                check_witness(&reversed, &b, &witness),
                Ok(()),
                "B({d},{dd})⁻ ≅ B({d},{dd}) via word reversal"
            );
        }
    }

    #[test]
    fn witness_algebra() {
        let id: Vec<u32> = (0..8).collect();
        let w = prop_3_3_witness(2, 3);
        assert_eq!(compose_witnesses(&w, &invert_witness(&w)), id);
        assert_eq!(compose_witnesses(&invert_witness(&w), &w), id);
    }

    #[test]
    fn digit_map_witnesses_equal_their_closures() {
        // The odometer fill must reproduce direct evaluation of every
        // digit-map witness, rank by rank, across alphabets and
        // lengths (D = 1 and odd d included).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD161);
        for (d, dim) in [(2u32, 1u32), (2, 6), (3, 1), (3, 4), (4, 3), (5, 2)] {
            let space = WordSpace::new(d, dim);
            let n = space.size();
            for sigma in [
                Perm::complement(d as usize),
                Perm::random(d as usize, &mut rng),
            ] {
                let bs = BSigma::new(d, dim, sigma.clone());
                assert_eq!(
                    prop_3_2_witness(&bs),
                    materialize(n, prop_3_2_witness_rank(&space, &sigma)),
                    "Prop 3.2, σ = {sigma}, B({d},{dim})"
                );
                let f = Perm::random_cyclic(dim as usize, &mut rng);
                let j = rng.gen_range(0..dim);
                let a = AlphabetDigraph::new(d, dim, f.clone(), sigma.clone(), j);
                assert_eq!(
                    prop_3_9_witness(&a).unwrap(),
                    materialize(n, prop_3_9_witness_rank(&a).unwrap()),
                    "Prop 3.9, f = {f}, σ = {sigma}, j = {j}, B({d},{dim})"
                );
            }
            let sigmas: Vec<Perm> = (0..dim)
                .map(|_| Perm::random(d as usize, &mut rng))
                .collect();
            let ps = PositionalSigma::new(d, dim, sigmas);
            assert_eq!(
                positional_sigma_witness(&ps),
                materialize(n, positional_sigma_witness_rank(&ps)),
                "positional σ, B({d},{dim})"
            );
            let reversal = Perm::complement(dim as usize);
            assert_eq!(
                self_converse_witness(d, dim),
                materialize(n, |u| space.apply_index_perm_rank(&reversal, u)),
                "self-converse, B({d},{dim})"
            );
        }
    }

    /// Every `u` of the domain maps through `map` exactly as through
    /// `table`, and the first id past it maps to nothing.
    fn assert_map_equals_table(map: &WitnessMap, table: &[u32]) -> Result<(), String> {
        for (u, &image) in table.iter().enumerate() {
            prop_assert_eq!(map.get(u as u64), Some(u64::from(image)), "u = {}", u);
        }
        prop_assert_eq!(map.get(table.len() as u64), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bit_permutations_with_complements_take_the_byte_form(
            (k, positions, mask) in (0u32..=16).prop_flat_map(|k| (
                Just(k),
                Just((0..k).collect::<Vec<u32>>()).prop_shuffle(),
                0u32..(1 << k),
            )),
        ) {
            // Bit i of u lands on bit positions[i], then the mask
            // complements some output bits.
            let table: Vec<u32> = (0..1u32 << k)
                .map(|u| {
                    let moved = (0..k).fold(0, |acc, i| acc | (((u >> i) & 1) << positions[i as usize]));
                    moved ^ mask
                })
                .collect();
            let map = WitnessMap::new(&table);
            prop_assert_eq!(map.chunk_count(), k.div_ceil(8) as usize, "k = {}", k);
            assert_map_equals_table(&map, &table)?;
            let inverse = WitnessMap::new(&invert_witness(&table));
            prop_assert_eq!(inverse.chunk_count(), k.div_ceil(8) as usize, "k = {}", k);
            assert_map_equals_table(&inverse, &invert_witness(&table))?;
        }

        #[test]
        fn arbitrary_permutations_keep_their_table(
            table in (257u32..=2048).prop_flat_map(|n| Just((0..n).collect::<Vec<u32>>()).prop_shuffle()),
        ) {
            let map = WitnessMap::new(&table);
            prop_assert_eq!(map.chunk_count(), 1, "n = {}", table.len());
            assert_map_equals_table(&map, &table)?;
        }
    }

    #[test]
    fn witness_map_edge_sizes() {
        for table in [vec![], vec![0], vec![1, 0], vec![2, 0, 1]] {
            let map = WitnessMap::new(&table);
            assert!(map.chunk_count() <= 1, "{table:?}");
            assert_map_equals_table(&map, &table).unwrap();
        }
    }

    #[test]
    fn rank_and_materialized_witnesses_agree() {
        let f = Perm::from_images(vec![3, 4, 5, 2, 0, 1]).unwrap();
        let a = AlphabetDigraph::new(2, 6, f, Perm::complement(2), 4);
        let materialized = prop_3_9_witness(&a).unwrap();
        let rank = prop_3_9_witness_rank(&a).unwrap();
        for u in 0..a.node_count() {
            assert_eq!(materialized[u as usize] as u64, rank(u));
        }
    }
}
