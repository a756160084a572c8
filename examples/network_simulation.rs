//! Network simulation: run batched traffic over `B(2,8)` hosted on the
//! paper's 48-lens OTIS(16,32) layout, and over the prior-art 258-lens
//! OTIS(2,256) II layout, and compare what the *physics* says —
//! latency, energy, congestion, bench size — on top of the lens-count
//! headline.
//!
//! The same logical workload (generated in de Bruijn rank space, then
//! translated through each layout's isomorphism witness) runs over
//! both fabrics via precomputed table routers and the batched traffic
//! engine, so the hop statistics are *identical by construction* and
//! every remaining difference is hardware.
//!
//! Run with: `cargo run --release --example network_simulation [packets] [pattern]`

use otis::core::{DeBruijn, DigraphFamily, DynamicRoutingTable, Router, RoutingTable};
use otis::layout::LayoutSpec;
use otis::optics::faults::{surviving_digraph, FaultSet};
use otis::optics::simulator::OtisSimulator;
use otis::optics::traffic::{
    generate_workload, TrafficEngine, TrafficPattern, TrafficReport, WorkloadSource,
};

struct Fabric {
    name: String,
    spec: LayoutSpec,
    sim: OtisSimulator,
    /// `witness[h_node]` = de Bruijn rank (iso witness from H to B).
    inverse: Vec<u32>,
}

impl Fabric {
    fn new(name: &str, spec: LayoutSpec) -> Self {
        let sim = OtisSimulator::with_defaults(spec.h_digraph());
        let witness = spec.debruijn_witness().expect("cyclic split");
        let inverse = otis::core::iso::invert_witness(&witness);
        Fabric {
            name: name.into(),
            spec,
            sim,
            inverse,
        }
    }

    /// Translate a workload from de Bruijn rank space into this
    /// fabric's node ids through the isomorphism witness.
    fn translate(&self, workload_b: &[(u64, u64)]) -> Vec<(u64, u64)> {
        workload_b
            .iter()
            .map(|&(src, dst)| {
                (
                    self.inverse[src as usize] as u64,
                    self.inverse[dst as usize] as u64,
                )
            })
            .collect()
    }

    /// Run the B-space workload on this fabric through any router.
    fn run_with(&self, router: &dyn Router, workload_b: &[(u64, u64)]) -> TrafficReport {
        let engine = TrafficEngine::new(&self.sim);
        engine.run(
            router,
            &WorkloadSource::from_pairs(self.translate(workload_b)),
        )
    }

    /// Run the B-space workload through a precomputed table router.
    fn run(&self, workload_b: &[(u64, u64)]) -> TrafficReport {
        self.run_with(&RoutingTable::from_family(self.sim.h()), workload_b)
    }
}

fn print_report(fabric: &Fabric, report: &TrafficReport) {
    println!("{}", fabric.name);
    println!("  router            : {}", report.router);
    println!("  lenses            : {}", fabric.spec.lens_count());
    println!(
        "  bench length      : {:.0} mm",
        fabric.sim.bench().bench_length()
    );
    println!(
        "  packets delivered : {} / {} ({:.1}%)",
        report.delivered,
        report.packets,
        report.delivery_rate() * 100.0
    );
    println!("  mean hops         : {:.2}", report.mean_hops());
    println!(
        "  link congestion   : max {} (forwarding index), mean {:.1}",
        report.max_link_load,
        report.mean_link_load()
    );
    println!(
        "  latency           : mean {:.0} ps, p99 {:.0} ps, worst {:.0} ps",
        report.latency_mean_ps, report.latency_p99_ps, report.latency_max_ps
    );
    println!(
        "  mean energy       : {:.1} pJ/packet",
        report.mean_energy_pj()
    );
}

fn main() {
    let packets: usize = std::env::args()
        .nth(1)
        .map_or(20_000, |raw| raw.parse().expect("packet count"));
    let pattern: TrafficPattern = std::env::args()
        .nth(2)
        .map_or(TrafficPattern::Uniform, |raw| raw.parse().expect("pattern"));

    let b = DeBruijn::new(2, 8);
    let workload_b = generate_workload(pattern, b.node_count(), 2, packets, 0x0715_2000);
    println!(
        "traffic: {packets} {pattern} packets over {} ({} nodes)\n",
        b.name(),
        b.node_count()
    );

    // ---- the paper's layout: OTIS(16,32), 48 lenses ---------------------
    let balanced = Fabric::new(
        "Θ(√n) layout — OTIS(16, 32)",
        otis::layout::balanced_even_layout(2, 8),
    );
    let report = balanced.run(&workload_b);
    print_report(&balanced, &report);
    assert!(report.all_budgets_close, "all links must close");

    // ---- prior art: OTIS(2,256) = II layout, 258 lenses ------------------
    // H(2,256,2) ≅ B(2,8) as well (split p' = 1), so the same logical
    // traffic runs over it; only the hardware differs.
    let ii = Fabric::new(
        "O(n) layout — OTIS(2, 256) [Imase-Itoh]",
        LayoutSpec::new(2, 1, 8),
    );
    let ii_report = ii.run(&workload_b);
    println!();
    print_report(&ii, &ii_report);

    // ---- the comparison the paper argues for ------------------------------
    assert_eq!(
        report.total_hops, ii_report.total_hops,
        "same logical pairs through isomorphic fabrics take identical hops"
    );
    println!("\nsummary:");
    println!(
        "  identical logical traffic: {:.2} mean hops on both (same witness-mapped pairs)",
        report.mean_hops()
    );
    println!(
        "  lens count         : {} vs {}  ({:.1}× fewer)",
        balanced.spec.lens_count(),
        ii.spec.lens_count(),
        ii.spec.lens_count() as f64 / balanced.spec.lens_count() as f64
    );
    println!(
        "  bench length       : {:.0} mm vs {:.0} mm  ({:.1}× shorter)",
        balanced.sim.bench().bench_length(),
        ii.sim.bench().bench_length(),
        ii.sim.bench().bench_length() / balanced.sim.bench().bench_length()
    );
    println!(
        "  mean latency       : {:.0} ps vs {:.0} ps",
        report.latency_mean_ps, ii_report.latency_mean_ps
    );
    println!(
        "  mean energy        : {:.1} pJ vs {:.1} pJ",
        report.mean_energy_pj(),
        ii_report.mean_energy_pj()
    );

    // ---- fault injection through the same engine --------------------------
    // Kill a transmitter and re-run on the degraded balanced fabric:
    // the repairable table, built with the dead beam down, routes on
    // shortest surviving paths and still delivers everything.
    let h = balanced.sim.h();
    let faults = FaultSet {
        dead_transmitters: vec![42],
        ..FaultSet::none()
    };
    let fault_router = DynamicRoutingTable::with_dead_arcs(
        &surviving_digraph(h, &FaultSet::none()),
        &faults.dead_arcs(h),
        h.name(),
    );
    let degraded = balanced.run_with(&fault_router, &workload_b);
    println!(
        "\nwith one dead transmitter ({}): {:.1}% delivered, mean hops {:.2} (was {:.2})",
        Router::name(&fault_router),
        degraded.delivery_rate() * 100.0,
        degraded.mean_hops(),
        report.mean_hops()
    );
    assert_eq!(
        degraded.dropped, 0,
        "B(2,8) reroutes around a single dead beam"
    );
}
