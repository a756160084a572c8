//! The paper's primary contribution: de Bruijn-like digraph families
//! and the isomorphism theory of Coudert, Ferreira & Pérennes
//! (IPDPS 2000), sections 2–3.
//!
//! # Families (Section 2)
//!
//! | type | paper object | vertex set |
//! |---|---|---|
//! | [`DeBruijn`] | `B(d,D)`, Definition 2.2 | words `Z_d^D` |
//! | [`Rrk`] | `RRK(d,n)`, Definition 2.5 | `Z_n`, `u → du+δ` |
//! | [`Kautz`] | `K(d,D)`, Definition 2.7 | no-repeat words over `Z_{d+1}` |
//! | [`ImaseItoh`] | `II(d,n)`, Definition 2.8 | `Z_n`, `u → -du-δ` |
//! | [`BSigma`] | `B_σ(d,D)`, Definition 3.1 | words, alphabet-twisted shift |
//! | [`PositionalSigma`] | the "notice" after Prop. 3.2 | words, per-position twists |
//! | [`AlphabetDigraph`] | `A(f,σ,j)`, Definition 3.7 | words, arbitrary index permutation |
//!
//! All families implement [`DigraphFamily`]: rank-level adjacency (no
//! allocation per query) plus materialization into an
//! [`otis_digraph::Digraph`].
//!
//! # Isomorphism theory (Section 3)
//!
//! Every claim is implemented as an **explicit witness constructor**
//! whose output can be verified in linear time with
//! [`otis_digraph::iso::check_witness`]:
//!
//! * [`iso::prop_3_2_witness`] — `B_σ(d,D) ≅ B(d,D)` via
//!   `W(x) = σ⁰(x_{D-1})σ¹(x_{D-2})…σ^{D-1}(x_0)`;
//! * [`iso::prop_3_3`] — `II(d,d^D)` **equals** `B_C(d,D)` (and is thus
//!   isomorphic to `B(d,D)`); Corollary 3.4 adds `RRK(d,d^D) = B(d,D)`;
//! * [`iso::prop_3_9_witness`] — `A(f,σ,j) ≅ B(d,D)` iff `f` is
//!   cyclic, via the orbit labeling `g(i) = fⁱ(j)`;
//! * [`components`] — Remark 3.10: for non-cyclic `f` the digraph
//!   splits into conjunctions `C_s ⊗ B(d,r)` of circuits with de
//!   Bruijn digraphs, with the exact component census predicted
//!   combinatorially;
//! * [`line`] — line-digraph laws `L(B(d,D)) = B(d,D+1)`,
//!   `L(RRK(d,n)) = RRK(d,dn)`, `L(II(d,n)) ≅ II(d,dn)`,
//!   `L(K(d,D)) = K(d,D+1)`, and the derived explicit
//!   `K(d,D) ≅ II(d, d^{D-1}(d+1))` witness;
//! * [`enumerate`] — the `d!(D-1)!` alternative definitions of
//!   `B(d,D)` counted at the end of Section 3;
//! * [`routing`] — shortest-path routing and broadcasting on
//!   `B(d,D)`, the applications the paper's introduction motivates.

#![forbid(unsafe_code)]

pub mod components;
pub mod conjunction;
pub mod dynamic;
pub mod enumerate;
pub mod families;
mod family;
pub mod gossip;
pub mod iso;
pub mod line;
pub mod router;
pub mod routing;
pub mod sequences;

pub use dynamic::{DynamicRoutingTable, RouteRepair, RouteSnapshot};
pub use families::{AlphabetDigraph, BSigma, DeBruijn, ImaseItoh, Kautz, PositionalSigma, Rrk};
pub use family::DigraphFamily;
pub use iso::WitnessMap;
pub use router::{
    AdaptiveRouter, BfsRouter, Candidates, CongestionMap, Dateline, DeBruijnRouter, KautzRouter,
    NoCongestion, RankedCandidates, RelabeledRouter, Router, RoutingTable,
};
pub use routing::MulticastTree;
