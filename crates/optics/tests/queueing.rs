//! Integration tests of the queueing engine: packet conservation
//! pinned as a property across the paper's whole family zoo (B, K,
//! II, RRK), with and without hardware faults and virtual channels —
//! the adaptive-routing acceptance result on hotspot traffic past
//! saturation — and the deadlock-freedom acceptance result: the
//! saturating backpressure run that wedges with `vcs = 1` completes
//! lossless with `vcs = 2` dateline channels.

use otis_core::{
    AdaptiveRouter, DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, ImaseItoh, Kautz,
    RankedCandidates, RouteRepair, RouteSnapshot, Router, RoutingTable, Rrk,
};
use otis_digraph::Digraph;
use otis_optics::faults::{surviving_digraph, FaultSet};
use otis_optics::traffic::{
    generate_multicast_workload, generate_workload, MulticastGroup, ReferenceEngine, TrafficPattern,
};
use otis_optics::{
    ContentionPolicy, HDigraph, QueueConfig, QueueingEngine, StrandedPolicy, WorkloadSource,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fault-aware router: the repairable table over the full fabric
/// with `faults`' beams dead.
fn fault_table(h: &HDigraph, faults: &FaultSet) -> DynamicRoutingTable {
    DynamicRoutingTable::with_dead_arcs(
        &surviving_digraph(h, &FaultSet::none()),
        &faults.dead_arcs(h),
        h.name(),
    )
}

/// Arm `spec`'s link dynamics on an engine routed in its own
/// numbering.
fn arm(engine: &mut QueueingEngine, spec: &str, stranded: StrandedPolicy) {
    engine
        .try_set_dynamics_relabeled(spec.parse().expect("valid spec"), stranded, None)
        .expect("spec compiles against the fabric");
}

/// Run a workload through the queueing engine and assert the core
/// invariants every configuration must uphold: packet conservation
/// (injected = delivered + dropped + in-flight at horizon, across all
/// VC classes and per-source injection queues), buffer caps respected
/// outside dateline relief, and wait-percentile ordering.
fn check_conservation(
    g: Digraph,
    router: &dyn Router,
    workload: &[(u64, u64)],
    config: QueueConfig,
    offered_per_cycle: f64,
) -> Result<(), String> {
    let engine = QueueingEngine::new(g, config);
    let report = engine.run(router, workload, offered_per_cycle);
    prop_assert!(
        report.conserves_packets(),
        "injected {} != delivered {} + dropped {} + in_flight {} ({})",
        report.injected,
        report.delivered,
        report.dropped(),
        report.in_flight,
        report.router,
    );
    // The horizon was generous and injection finite, so everything
    // offered was injected unless the run wedged or timed out —
    // including the packets parked in per-source queues.
    if !report.deadlocked && report.cycles < config.max_cycles {
        prop_assert_eq!(report.injected, workload.len());
        prop_assert_eq!(report.in_flight, 0);
    }
    // Buffer caps hold everywhere the dateline escape valve did not
    // engage; with relief, only wrap channels' top class may exceed.
    if report.dateline_relief == 0 {
        prop_assert!(report.max_peak_occupancy as usize <= config.buffers);
    }
    for (vc, &peak) in report.vc_peak_occupancy.iter().enumerate() {
        if vc + 1 < config.vcs {
            prop_assert!(
                peak as usize <= config.buffers,
                "class {vc} of {} exceeded its cap: {peak} > {}",
                config.vcs,
                config.buffers
            );
        }
    }
    prop_assert!(report.wait_p50_cycles <= report.wait_p99_cycles);
    prop_assert!(report.wait_p99_cycles <= report.wait_max_cycles);
    if config.vcs == 1 {
        prop_assert_eq!(report.dateline_promotions, 0);
        prop_assert_eq!(report.dateline_relief, 0);
    }
    Ok(())
}

/// A small config space exercised by the property tests.
fn config_from(buffers: usize, wavelengths: usize, vcs: usize, tail_drop: bool) -> QueueConfig {
    QueueConfig {
        buffers,
        wavelengths,
        vcs,
        policy: if tail_drop {
            ContentionPolicy::TailDrop
        } else {
            ContentionPolicy::Backpressure
        },
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation on de Bruijn fabrics, oblivious and adaptive,
    /// across virtual-channel counts.
    #[test]
    fn conservation_on_debruijn(
        dim in 3u32..6,
        buffers in 1usize..8,
        wavelengths in 1usize..3,
        vcs in 1usize..4,
        tail_drop in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 300, seed);
        let config = config_from(buffers, wavelengths, vcs, tail_drop);
        let router = DeBruijnRouter::new(b);
        check_conservation(b.digraph(), &router, &workload, config, 0.4 * n as f64)?;
        // Adaptive on the same fabric, scoring per VC class: the
        // engine must conserve even when the router reacts to the
        // queues mid-flight.
        let engine = QueueingEngine::from_family(&b, config);
        let adaptive = AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy())
            .with_dateline(engine.dateline());
        let report = engine.run(&adaptive, &workload, 0.4 * n as f64);
        prop_assert!(report.conserves_packets(), "{report:?}");
    }

    /// Conservation on Kautz fabrics.
    #[test]
    fn conservation_on_kautz(
        dim in 2u32..5,
        buffers in 1usize..8,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = Kautz::new(2, dim);
        let n = k.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 300, seed);
        let router = RoutingTable::from_family(&k);
        check_conservation(
            k.digraph(),
            &router,
            &workload,
            config_from(buffers, 1, vcs, tail_drop),
            0.3 * n as f64,
        )?;
    }

    /// Conservation on II and RRK fabrics at generic (non-power) sizes.
    #[test]
    fn conservation_on_ii_and_rrk(
        n in 10u64..80,
        buffers in 1usize..8,
        tail_drop in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 200, seed);
        let ii = ImaseItoh::new(2, n);
        check_conservation(
            ii.digraph(),
            &RoutingTable::from_family(&ii),
            &workload,
            config_from(buffers, 1, 2, tail_drop),
            0.3 * n as f64,
        )?;
        let rrk = Rrk::new(2, n);
        check_conservation(
            rrk.digraph(),
            &RoutingTable::from_family(&rrk),
            &workload,
            config_from(buffers, 1, 1, tail_drop),
            0.3 * n as f64,
        )?;
    }

    /// Conservation on a *faulted* fabric: the engine simulates the
    /// surviving digraph, the fault-aware router routes over it, and
    /// adaptivity composes on top — packets must still balance, with
    /// pairs stranded by dead hardware accounted as unroutable drops.
    #[test]
    fn conservation_with_faults(
        dead in proptest::collection::vec(0u64..128, 0..=8),
        buffers in 1usize..8,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // H(8,16,2) ≅ B(2,6): 64 nodes, 128 beams.
        let h = HDigraph::new(8, 16, 2);
        let faults = FaultSet {
            dead_transmitters: dead,
            ..FaultSet::none()
        };
        let survivors = surviving_digraph(&h, &faults);
        let router = fault_table(&h, &faults);
        let n = h.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 300, seed);
        let config = config_from(buffers, 1, vcs, tail_drop);
        check_conservation(survivors.clone(), &router, &workload, config, 0.3 * n as f64)?;
        // Adaptive over the fault-aware router: candidates come from
        // the surviving table, so no packet is ever offered a dead
        // beam; conservation must hold all the same.
        let engine = QueueingEngine::new(survivors, config);
        let adaptive = AdaptiveRouter::new(fault_table(&h, &faults), engine.occupancy())
            .with_dateline(engine.dateline());
        let report = engine.run(&adaptive, &workload, 0.3 * n as f64);
        prop_assert!(report.conserves_packets(), "{report:?}");
    }

    /// The deadlock-freedom property the dateline channels exist for:
    /// backpressure runs with `vcs ≥ 2` never report deadlock — on
    /// de Bruijn, Kautz, and pure-ring fabrics, at saturating offered
    /// load, with tight buffers, oblivious or adaptive. (The same
    /// fabrics at `vcs = 1` wedge routinely; see the acceptance test
    /// below.) Packet conservation must hold across all VC classes
    /// and per-source queues throughout.
    #[test]
    fn backpressure_with_vcs_never_deadlocks(
        dim in 3u32..7,
        buffers in 1usize..5,
        vcs in 2usize..4,
        adaptive in any::<bool>(),
        hotspot in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = if hotspot { TrafficPattern::Hotspot } else { TrafficPattern::Uniform };
        let workload = generate_workload(pattern, n, 2, 500, seed);
        let config = QueueConfig {
            buffers,
            wavelengths: 1,
            vcs,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            drain_threads: 0,
            max_cycles: 1_000_000,
        };
        let engine = QueueingEngine::from_family(&b, config);
        let report = if adaptive {
            let router = AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy())
                .with_dateline(engine.dateline());
            engine.run(&router, &workload, n as f64) // 1 packet/node/cycle: saturating
        } else {
            engine.run(&DeBruijnRouter::new(b), &workload, n as f64)
        };
        prop_assert!(!report.deadlocked, "{report:?}");
        prop_assert!(report.conserves_packets(), "{report:?}");
        // Lossless and finite: everything offered was delivered.
        prop_assert_eq!(report.delivered, workload.len());
        prop_assert_eq!(report.in_flight, 0);
        prop_assert_eq!(report.dropped(), 0);

        // Kautz at a comparable size, same saturation.
        let k = Kautz::new(2, dim.saturating_sub(1).max(2));
        let kn = k.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, kn, 2, 400, seed);
        let engine = QueueingEngine::from_family(&k, config);
        let report = engine.run(&RoutingTable::from_family(&k), &workload, kn as f64);
        prop_assert!(!report.deadlocked, "{report:?}");
        prop_assert!(report.conserves_packets());
        prop_assert_eq!(report.delivered, workload.len());

        // The pure ring C_n — the canonical dateline case: routes
        // wrap at most once, so 2 classes never even need the
        // escape valve.
        let ring_n = 3 + (seed % 13) as usize;
        let ring = Digraph::from_fn(ring_n, |u| [(u + 1) % ring_n as u32]);
        let router = RoutingTable::new(&ring);
        let workload: Vec<(u64, u64)> = (0..200)
            .map(|i| {
                let src = i as u64 % ring_n as u64;
                (src, (src + 1 + (i as u64 % (ring_n as u64 - 1))) % ring_n as u64)
            })
            .collect();
        let engine = QueueingEngine::new(ring, config);
        let report = engine.run(&router, &workload, ring_n as f64);
        prop_assert!(!report.deadlocked, "{report:?}");
        prop_assert!(report.conserves_packets());
        prop_assert_eq!(report.delivered, workload.len());
        prop_assert_eq!(report.dateline_relief, 0, "ring routes wrap once at most");
    }
}

/// The tentpole acceptance result for PR 3: a saturating backpressure
/// run on B(2,8) hotspot traffic that *deadlocks* with a single
/// channel per link completes — lossless, every packet delivered —
/// with two dateline virtual channels. The old engine could only
/// detect the wedge; the VC fabric is deadlock-free by construction.
#[test]
fn vcs_2_complete_the_b28_hotspot_run_that_deadlocks_at_vcs_1() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count(); // 256
    let workload = generate_workload(TrafficPattern::Hotspot, n, 2, 20_000, 0x0715);
    let config = |vcs: usize| QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 200_000,
    };
    let offered = 0.5 * n as f64; // ~10× past the oblivious saturation point

    let engine = QueueingEngine::from_family(&b, config(1));
    let wedged = engine.run(&DeBruijnRouter::new(b), &workload, offered);
    assert!(wedged.deadlocked, "single-channel saturation must wedge");
    assert!(wedged.conserves_packets());
    assert!(wedged.in_flight > 0, "a wedge strands packets");
    assert_eq!(wedged.dateline_promotions, 0);

    let engine = QueueingEngine::from_family(&b, config(2));
    let lossless = engine.run(&DeBruijnRouter::new(b), &workload, offered);
    assert!(!lossless.deadlocked, "{lossless:?}");
    assert!(lossless.conserves_packets());
    assert_eq!(
        lossless.delivered,
        workload.len(),
        "lossless: all delivered"
    );
    assert_eq!(lossless.dropped(), 0);
    assert_eq!(lossless.in_flight, 0);
    assert!(
        lossless.dateline_promotions > 0,
        "saturation must push packets across the dateline"
    );
    // The deadlock-freedom evidence: the wedges the single-channel
    // run fell into became promotions (and, for double-wrapping
    // routes, relief moves) instead.
    assert!(lossless.vc_peak_occupancy[0] as usize <= config(2).buffers);
}

/// The offered-load sweep rides through the old deadlock point: every
/// point of a saturating backpressure sweep on B(2,8) hotspot
/// completes deadlock-free with two virtual channels.
#[test]
fn backpressure_sweep_sustains_loads_past_the_old_deadlock_point() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 8_000, 7);
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 200_000,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let router = DeBruijnRouter::new(b);
    let loads = [0.02, 0.1, 0.5, 1.0];
    let sweep = engine.saturation_sweep(&router, &source, &loads);
    for point in &sweep.points {
        assert!(
            !point.deadlocked,
            "load {} wedged: {point:?}",
            point.offered_per_node
        );
        assert_eq!(point.drop_rate, 0.0, "backpressure is lossless");
    }
    // The same sweep at vcs = 1 wedges at its saturating points —
    // the "old deadlock point" the VC fabric rides past.
    let engine = QueueingEngine::from_family(&b, QueueConfig { vcs: 1, ..config });
    let sweep = engine.saturation_sweep(&router, &source, &loads);
    assert!(
        sweep.points.iter().any(|p| p.deadlocked),
        "the single-channel sweep was expected to wedge somewhere"
    );
}

/// Drain fairness: on a symmetric ring under saturating contention,
/// the rotating drain offset must spread deliveries evenly across
/// links. (With the old fixed arc-index order, links adjacent to the
/// scan boundary persistently won the downstream buffer space and
/// high-index links starved.)
#[test]
fn drain_rotation_keeps_symmetric_ring_links_fair() {
    let n = 16usize;
    let ring = Digraph::from_fn(n, |u| [(u + 1) % n as u32]);
    let router = RoutingTable::new(&ring);
    // Every node sends two-hop packets, interleaved round-robin so
    // every source faces identical offered load; saturate for a
    // fixed window.
    let packets = 12_000usize;
    let workload: Vec<(u64, u64)> = (0..packets)
        .map(|i| {
            let src = (i % n) as u64;
            (src, (src + 2) % n as u64)
        })
        .collect();
    let config = QueueConfig {
        buffers: 2,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 1_500,
    };
    let engine = QueueingEngine::new(ring, config);
    let report = engine.run(&router, &workload, n as f64);
    assert!(report.conserves_packets());
    let per_link = &report.delivered_per_link;
    let min = per_link.iter().min().copied().unwrap();
    let max = per_link.iter().max().copied().unwrap();
    assert!(max > 0, "the window must deliver something");
    assert!(
        min * 10 >= max * 8,
        "symmetric ring links must deliver within 20% of each other, got {per_link:?}"
    );
}

/// Per-class statistics: on saturated hotspot traffic the hot class
/// (packets aimed at the hot node) must show the tree-saturation
/// delay while the background class rides cheaper paths — and the
/// two classes must partition every counter exactly.
#[test]
fn hotspot_classes_split_the_tree_saturation_story() {
    let b = DeBruijn::new(2, 6);
    let n = b.node_count(); // 64
    let pattern = TrafficPattern::Hotspot;
    let source = WorkloadSource::new(pattern, n, 2, 40_000, 11);
    let hot = pattern.hot_node(n).expect("hotspot has a hot node");
    // Offered so that only the hot in-tree saturates: the hot node
    // accepts 2 packets/cycle against 0.25 · 16 = 4/cycle offered,
    // while the background's 12/cycle spread over 128 links stays
    // comfortable. Tail-drop makes the asymmetry stark: the full
    // buffers are the hot in-tree's.
    let config = QueueConfig {
        buffers: 16,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 1_500,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let router = RoutingTable::from_family(&b);
    let report = engine.run_streamed_classified(&router, &source, 0.25 * n as f64, Some(hot));
    assert!(report.conserves_packets());
    // Tail-drop never blocks, so it gets no dateline relief and its
    // buffer caps hold exactly, even with multiple VCs at saturation.
    assert_eq!(report.dateline_relief, 0);
    assert!(report.max_peak_occupancy as usize <= config.buffers);
    let stats = report.class_stats.as_ref().expect("classified run");
    // The split partitions the totals exactly.
    assert_eq!(
        stats.hot.injected + stats.background.injected,
        report.injected
    );
    assert_eq!(
        stats.hot.delivered + stats.background.delivered,
        report.delivered
    );
    assert_eq!(
        stats.hot.dropped + stats.background.dropped,
        report.dropped()
    );
    // A quarter of hotspot traffic aims at the hot node.
    assert!(stats.hot.injected * 3 >= report.injected / 2);
    assert!(stats.hot.injected <= report.injected / 2);
    // The hot in-tree has 2 packets/cycle of delivery capacity
    // against ~4 offered: the drops concentrate on the hot class
    // (measured ~44% delivered vs ~96% background) and the hot
    // median delay dwarfs the background's (~51 vs ~2 cycles).
    assert!(
        stats.hot.delivery_rate() < 0.75 * stats.background.delivery_rate(),
        "drops must concentrate on the saturated class: hot {:.2} vs background {:.2}",
        stats.hot.delivery_rate(),
        stats.background.delivery_rate()
    );
    assert!(
        stats.hot.wait_p50_cycles >= 4 * stats.background.wait_p50_cycles.max(1),
        "tree saturation should dominate the hot class: hot p50 {} vs background p50 {}",
        stats.hot.wait_p50_cycles,
        stats.background.wait_p50_cycles
    );
    assert!(
        stats.hot.wait_mean_cycles > stats.background.wait_mean_cycles,
        "hot mean {} vs background mean {}",
        stats.hot.wait_mean_cycles,
        stats.background.wait_mean_cycles
    );
}

/// The tentpole acceptance result of PR 2, still standing under the
/// VC fabric: on hotspot traffic at an offered load far past the
/// oblivious saturation point, contention-aware adaptive routing
/// delivers strictly more packets per cycle *and* a strictly lower
/// p99 queueing delay than oblivious shortest-path routing.
#[test]
fn adaptive_beats_oblivious_on_saturated_hotspot() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count(); // 256
                            // The throughput win is seed-robust (1.6–2.1× across every seed
                            // tried); the p99 comparison is the statistical part, so this
                            // seed is one where the margin is wide, not hairline.
    let workload = generate_workload(TrafficPattern::Hotspot, n, 2, 100_000, 0x0716);
    let config = QueueConfig {
        buffers: 32,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        // Fixed measurement window: throughput = delivered packets
        // per cycle over the same horizon for both routers.
        max_cycles: 1000,
    };
    let offered = 0.3 * n as f64;

    let engine = QueueingEngine::from_family(&b, config);
    let oblivious = DeBruijnRouter::new(b);
    let oblivious_report = engine.run(&oblivious, &workload, offered);

    let engine = QueueingEngine::from_family(&b, config);
    let adaptive = AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy());
    let adaptive_report = engine.run(&adaptive, &workload, offered);

    assert!(oblivious_report.conserves_packets());
    assert!(adaptive_report.conserves_packets());
    assert!(
        adaptive_report.throughput_per_cycle() > oblivious_report.throughput_per_cycle(),
        "adaptive {:.2} pkt/cycle must beat oblivious {:.2}",
        adaptive_report.throughput_per_cycle(),
        oblivious_report.throughput_per_cycle()
    );
    assert!(
        adaptive_report.wait_p99_cycles < oblivious_report.wait_p99_cycles,
        "adaptive p99 {} cycles must undercut oblivious {}",
        adaptive_report.wait_p99_cycles,
        oblivious_report.wait_p99_cycles
    );
    // The margin is not marginal: tree saturation costs oblivious
    // routing most of its capacity.
    assert!(
        adaptive_report.throughput_per_cycle() > 1.5 * oblivious_report.throughput_per_cycle(),
        "expected a decisive win, got {:.2} vs {:.2}",
        adaptive_report.throughput_per_cycle(),
        oblivious_report.throughput_per_cycle()
    );
}

/// The saturation sweep brackets the knee: throughput climbs with
/// offered load, then plateaus once the hot tree saturates.
#[test]
fn hotspot_sweep_saturates() {
    let b = DeBruijn::new(2, 6);
    let n = b.node_count(); // 64
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 50_000, 9);
    let config = QueueConfig {
        buffers: 16,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 800,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let router = RoutingTable::from_family(&b);
    let sweep = engine.saturation_sweep(&router, &source, &[0.01, 0.05, 0.2, 0.5, 1.0]);
    let saturation = sweep.saturation_throughput_per_node();
    assert!(saturation > 0.0);
    // Low load delivers what it offers...
    let first = &sweep.points[0];
    assert!(first.delivered_per_node >= first.offered_per_node * 0.9);
    assert!(
        first.wait_p99_cycles <= 2,
        "an uncongested fabric sees at most stray collisions, got p99 {}",
        first.wait_p99_cycles
    );
    // ...while the top of the sweep cannot (hot-node in-capacity is 2
    // packets/cycle total), so delivery saturates well below offer.
    let last = sweep.points.last().unwrap();
    assert!(last.delivered_per_node < last.offered_per_node / 2.0);
    assert!(last.drop_rate > 0.0, "past saturation, tail-drop must drop");
    assert!(
        last.wait_p99_cycles > 0,
        "past saturation, packets must queue"
    );
}

/// Adaptive routing over the fault-aware table: on a degraded
/// fabric every adaptive choice must still ride surviving beams only,
/// so no packet is ever dropped as unroutable mid-flight when the
/// surviving digraph is strongly connected.
#[test]
fn adaptive_on_faulted_fabric_uses_only_surviving_beams() {
    let h = HDigraph::new(16, 32, 2); // ≅ B(2,8)
    let faults = FaultSet {
        dead_transmitters: vec![3, 200, 401],
        ..FaultSet::none()
    };
    let survivors = surviving_digraph(&h, &faults);
    assert!(otis_digraph::connectivity::is_strongly_connected(
        &survivors
    ));
    let n = h.node_count();
    let workload = generate_workload(TrafficPattern::Uniform, n, 2, 5_000, 21);
    let config = QueueConfig {
        buffers: 8,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    let engine = QueueingEngine::new(survivors, config);
    let adaptive = AdaptiveRouter::new(fault_table(&h, &faults), engine.occupancy())
        .with_dateline(engine.dateline());
    let report = engine.run(&adaptive, &workload, 0.2 * n as f64);
    assert!(report.conserves_packets());
    assert_eq!(
        report.dropped_unroutable, 0,
        "a strongly connected survivor digraph routes every pair"
    );
    assert!(report.delivered > 0);
}

// --- PR 4: arena + worklist + parallel drain pins ---------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole determinism contract: identical seed and config
    /// yield a byte-identical `QueueingReport` at 1, 2 and 8 drain
    /// threads — oblivious and adaptive, tail-drop and backpressure,
    /// across VC counts. Sharding is by downstream-node ownership over
    /// phase-stable state, so the thread count may only change wall
    /// clock, never a single report byte.
    #[test]
    fn drain_thread_count_never_changes_the_report(
        dim in 3u32..6,
        buffers in 1usize..6,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        adaptive in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = TrafficPattern::Hotspot;
        let source = WorkloadSource::new(pattern, n, 2, 400, seed);
        let hot = pattern.hot_node(n);
        let report_at = |threads: usize| {
            let config = QueueConfig {
                buffers,
                wavelengths: 1,
                vcs,
                policy: if tail_drop {
                    ContentionPolicy::TailDrop
                } else {
                    ContentionPolicy::Backpressure
                },
                hop_limit: None,
                max_cycles: 50_000,
                drain_threads: threads,
            };
            let engine = QueueingEngine::from_family(&b, config);
            let report = if adaptive {
                let router = AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy())
                    .with_dateline(engine.dateline());
                engine.run_streamed_classified(&router, &source, 0.5 * n as f64, hot)
            } else {
                let router = DeBruijnRouter::new(b);
                engine.run_streamed_classified(&router, &source, 0.5 * n as f64, hot)
            };
            serde_json::to_string(&report).expect("report serializes")
        };
        let single = report_at(1);
        prop_assert_eq!(&single, &report_at(2), "2 drain threads diverged");
        prop_assert_eq!(&single, &report_at(8), "8 drain threads diverged");
    }

    /// Arena recycling under churn: single-slot buffers force constant
    /// alloc/free turnover (tail-drop) or long blocking chains
    /// (backpressure + VCs); packets must balance exactly and the
    /// engine's internal arena-vs-in-flight audit must hold (it
    /// asserts at the end of every run).
    #[test]
    fn arena_recycling_conserves_packets_under_churn(
        dim in 3u32..6,
        tail_drop in any::<bool>(),
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 2_000, seed);
        let config = QueueConfig {
            buffers: 1,
            wavelengths: 1,
            vcs: if tail_drop { 1 } else { 2 },
            policy: if tail_drop {
                ContentionPolicy::TailDrop
            } else {
                ContentionPolicy::Backpressure
            },
            hop_limit: None,
            max_cycles: 500_000,
            drain_threads: threads,
        };
        let engine = QueueingEngine::from_family(&b, config);
        let report = engine.run(&DeBruijnRouter::new(b), &workload, n as f64);
        prop_assert!(report.conserves_packets(), "{report:?}");
        prop_assert_eq!(report.injected, workload.len());
        prop_assert_eq!(report.in_flight, 0);
        if !tail_drop {
            prop_assert_eq!(report.delivered, workload.len(), "backpressure is lossless");
        }
    }

    /// The rewritten engine against the frozen pre-arena reference:
    /// with buffers far deeper than any queue the load builds (no
    /// full-buffer event can ever fire), every arbitration-insensitive
    /// quantity must agree exactly — same packets injected, same
    /// packets delivered over the same routes, zero loss both. The
    /// fields that *may* shift are the queueing-delay ones: when two
    /// packets enter one FIFO in the same cycle, the rewrite orders
    /// them by the staging node's drain order where the old engine
    /// used its global scan order — a re-specified (still
    /// deterministic) tie-break, so individual waits can move by a
    /// cycle while the physics stays put; the means must still agree
    /// closely.
    #[test]
    fn rewrite_matches_reference_engine_when_uncontended(
        dim in 3u32..6,
        wavelengths in 1usize..3,
        vcs in 1usize..3,
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 300, seed);
        let config = QueueConfig {
            buffers: 512, // deeper than 300 packets can ever stack
            wavelengths,
            vcs,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            max_cycles: 100_000,
            drain_threads: 1,
        };
        let offered = 0.2 * n as f64;
        let new_engine = QueueingEngine::from_family(&b, config);
        let new = new_engine.run(&DeBruijnRouter::new(b), &workload, offered);
        let reference = ReferenceEngine::from_family(&b, config);
        let old = reference.run(&DeBruijnRouter::new(b), &workload, offered);
        prop_assert_eq!(new.injected, old.injected);
        prop_assert_eq!(new.delivered, old.delivered);
        prop_assert_eq!(new.delivered, workload.len());
        prop_assert_eq!(new.dropped(), 0);
        prop_assert_eq!(old.dropped(), 0);
        // Oblivious routes are pair-determined, so total hops cannot
        // depend on the engine.
        prop_assert_eq!(new.delivered_hops, old.delivered_hops);
        prop_assert_eq!(new.max_hops, old.max_hops);
        prop_assert_eq!(new.dateline_promotions, old.dateline_promotions);
        prop_assert!(!new.deadlocked && !old.deadlocked);
        prop_assert!(
            (new.wait_mean_cycles - old.wait_mean_cycles).abs()
                <= 0.05 + 0.2 * old.wait_mean_cycles,
            "mean wait drifted: {} vs {}",
            new.wait_mean_cycles,
            old.wait_mean_cycles
        );
    }
}

// --- PR 5: multicast trees, replication, and the differential battery -------

/// The leaf-conservation invariants every multicast configuration must
/// uphold: `injected_leaves = delivered + dropped + in_flight`, full
/// injection on completed runs, buffer caps outside dateline relief.
fn check_multicast_conservation(
    report: &otis_optics::QueueingReport,
    total_leaves: usize,
    config: QueueConfig,
) -> Result<(), String> {
    prop_assert!(
        report.conserves_packets(),
        "injected {} != delivered {} + dropped {} + in_flight {} ({})",
        report.injected,
        report.delivered,
        report.dropped(),
        report.in_flight,
        report.router,
    );
    if !report.deadlocked && report.cycles < config.max_cycles {
        prop_assert_eq!(report.injected, total_leaves);
        prop_assert_eq!(report.in_flight, 0);
    }
    if report.dateline_relief == 0 {
        prop_assert!(report.max_peak_occupancy as usize <= config.buffers);
    }
    for (vc, &peak) in report.vc_peak_occupancy.iter().enumerate() {
        if vc + 1 < config.vcs {
            prop_assert!(
                peak as usize <= config.buffers,
                "class {vc} exceeded its cap: {peak} > {}",
                config.buffers
            );
        }
    }
    prop_assert!(report.wait_p50_cycles <= report.wait_p99_cycles);
    prop_assert!(report.wait_p99_cycles <= report.wait_max_cycles);
    if config.vcs == 1 {
        prop_assert_eq!(report.dateline_promotions, 0);
        prop_assert_eq!(report.dateline_relief, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The leaf-conservation law across fabrics × policies × VC counts
    /// × fanouts: `injected_leaves = delivered + dropped + in_flight`,
    /// with replication at branches, self-requests at the source, and
    /// unroutable leaves at injection all balancing exactly.
    #[test]
    fn multicast_leaf_conservation_across_fabrics(
        dim in 3u32..6,
        buffers in 1usize..6,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        fanout in 1u32..12,
        pattern_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let config = config_from(buffers, 1, vcs, tail_drop);
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = match pattern_pick {
            0 => TrafficPattern::Broadcast,
            1 => TrafficPattern::Multicast { fanout },
            _ => TrafficPattern::HotspotMulticast { fanout },
        };
        let groups = generate_multicast_workload(pattern, n, 2, 60, seed);
        let total: usize = groups.iter().map(|g| g.dsts.len()).sum();
        let engine = QueueingEngine::from_family(&b, config);
        let report = engine.run_multicast(&DeBruijnRouter::new(b), &groups, 0.2 * n as f64);
        check_multicast_conservation(&report, total, config)?;
        prop_assert_eq!(report.multicast_groups, groups.len());
        // Lossless backpressure with dateline VCs delivers everything.
        if !tail_drop && vcs >= 2 {
            prop_assert!(!report.deadlocked, "{report:?}");
            prop_assert_eq!(report.delivered, total);
        }

        // Kautz at a comparable size, table-routed (trees built from
        // the generic table router, not de Bruijn arithmetic).
        let k = Kautz::new(2, dim.saturating_sub(1).max(2));
        let kn = k.node_count();
        let groups = generate_multicast_workload(
            TrafficPattern::Multicast { fanout },
            kn,
            2,
            40,
            seed,
        );
        let total: usize = groups.iter().map(|g| g.dsts.len()).sum();
        let engine = QueueingEngine::from_family(&k, config);
        let report = engine.run_multicast(&RoutingTable::from_family(&k), &groups, 0.2 * kn as f64);
        check_multicast_conservation(&report, total, config)?;
    }

    /// The differential battery of this PR: the arena engine against
    /// the frozen [`ReferenceEngine`] under the same replication rule,
    /// on uncontended runs (groups offered far enough apart that no
    /// two trees ever coexist, buffers deeper than any tree) — the
    /// reports must be **byte-identical**, and stay byte-identical at
    /// 1, 2 and 8 drain threads.
    #[test]
    fn multicast_rewrite_matches_reference_when_uncontended(
        dim in 3u32..6,
        fanout in 1u32..10,
        vcs in 1usize..3,
        hotspot_rooted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = if hotspot_rooted {
            TrafficPattern::HotspotMulticast { fanout }
        } else {
            TrafficPattern::Multicast { fanout }
        };
        let groups = generate_multicast_workload(pattern, n, 2, 25, seed);
        // One group every dim + 4 cycles: a tree lives at most `dim`
        // cycles uncontended, so trees never overlap and neither
        // engine ever sees a full buffer or a shared channel.
        let offered = 1.0 / (dim as f64 + 4.0);
        let config = |threads: usize| QueueConfig {
            buffers: 512,
            wavelengths: 1,
            vcs,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            max_cycles: 1_000_000,
            drain_threads: threads,
        };
        let reference = ReferenceEngine::from_family(&b, config(1));
        let expected = reference.run_multicast(&DeBruijnRouter::new(b), &groups, offered);
        prop_assert!(expected.conserves_packets());
        prop_assert_eq!(expected.dropped(), 0);
        let expected = serde_json::to_string(&expected).expect("report serializes");
        for threads in [1usize, 2, 8] {
            let engine = QueueingEngine::from_family(&b, config(threads));
            let report = engine.run_multicast(&DeBruijnRouter::new(b), &groups, offered);
            let json = serde_json::to_string(&report).expect("report serializes");
            prop_assert_eq!(
                &json,
                &expected,
                "arena engine at {} drain threads diverged from the reference",
                threads
            );
        }
    }

    /// Thread-count determinism under *contention*: saturating
    /// multicast backpressure and tail-drop runs report byte-identical
    /// at 1, 2 and 8 drain threads (the uncontended case is covered by
    /// the differential above; this one exercises blocked branches,
    /// parking and relief).
    #[test]
    fn multicast_drain_threads_never_change_the_report(
        dim in 3u32..6,
        buffers in 1usize..4,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        fanout in 2u32..10,
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let groups = generate_multicast_workload(
            TrafficPattern::HotspotMulticast { fanout },
            n,
            2,
            120,
            seed,
        );
        let report_at = |threads: usize| {
            let config = QueueConfig {
                buffers,
                wavelengths: 1,
                vcs,
                policy: if tail_drop {
                    ContentionPolicy::TailDrop
                } else {
                    ContentionPolicy::Backpressure
                },
                hop_limit: None,
                max_cycles: 50_000,
                drain_threads: threads,
            };
            let engine = QueueingEngine::from_family(&b, config);
            let report = engine.run_multicast(&DeBruijnRouter::new(b), &groups, 0.5 * n as f64);
            serde_json::to_string(&report).expect("report serializes")
        };
        let single = report_at(1);
        prop_assert_eq!(&single, &report_at(2), "2 drain threads diverged");
        prop_assert_eq!(&single, &report_at(8), "8 drain threads diverged");
    }

    /// An independent oracle for *contended* multicast: one-leaf groups
    /// are unicast packets, so running pairs through `run` and the same
    /// pairs as singleton groups through `run_multicast` must serialize
    /// to the same report once the three multicast-only fields are
    /// masked — under stalls, drops, parking and dateline relief, at 1
    /// and 2 drain threads, table and arithmetic routers alike.
    #[test]
    fn singleton_groups_reproduce_the_unicast_report(
        dim in 3u32..7,
        hotspot in any::<bool>(),
        buffers_pick in 0usize..3,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        table in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = if hotspot { TrafficPattern::Hotspot } else { TrafficPattern::Uniform };
        let pairs = generate_workload(pattern, n, 2, 400, seed);
        let groups: Vec<MulticastGroup> = pairs
            .iter()
            .map(|&(src, dst)| MulticastGroup { root: src, dsts: vec![dst] })
            .collect();
        let arithmetic = DeBruijnRouter::new(b);
        let tabulated = RoutingTable::from_family(&b);
        let router: &dyn Router = if table { &tabulated } else { &arithmetic };
        let offered = 0.6 * n as f64;
        for threads in [1usize, 2] {
            let config = QueueConfig {
                drain_threads: threads,
                max_cycles: 20_000,
                ..config_from([1, 2, 4][buffers_pick], 1, vcs, tail_drop)
            };
            let engine = QueueingEngine::from_family(&b, config);
            let unicast = engine.run(router, &pairs, offered);
            let mut multicast = engine.run_multicast(router, &groups, offered);
            // One leaf per group: groups injected = packets injected.
            prop_assert_eq!(multicast.multicast_groups, unicast.injected);
            multicast.multicast_groups = 0;
            multicast.replicated_copies = 0;
            multicast.multicast_forwarding_index = 0;
            prop_assert_eq!(
                serde_json::to_string(&multicast).expect("report serializes"),
                serde_json::to_string(&unicast).expect("report serializes"),
                "singleton groups diverged from unicast at {} drain threads",
                threads
            );
        }
    }
}

/// The acceptance result of this PR: a full broadcast from the hotspot
/// root on `B(2,8)` — 255 leaves per tree, every tree the same
/// saturated out-tree — runs **lossless** under backpressure with two
/// dateline virtual channels: the all-or-nothing branch blocking adds
/// multi-channel waits, and the dateline argument still dissolves
/// every dependency cycle.
#[test]
fn broadcast_from_the_hotspot_root_is_lossless_on_b28_with_vcs2() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count(); // 256
    let groups = generate_multicast_workload(
        TrafficPattern::HotspotMulticast { fanout: 255 },
        n,
        2,
        300,
        0x0715,
    );
    assert!(groups.iter().all(|g| g.root == 128 && g.dsts.len() == 255));
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 500_000,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let report = engine.run_multicast(&DeBruijnRouter::new(b), &groups, 1.0);
    assert!(!report.deadlocked, "{report:?}");
    assert!(report.conserves_packets());
    assert_eq!(report.injected, 300 * 255, "every leaf injected");
    assert_eq!(
        report.delivered,
        300 * 255,
        "lossless: every leaf delivered"
    );
    assert_eq!(report.dropped(), 0);
    assert_eq!(report.in_flight, 0);
    assert_eq!(report.multicast_groups, 300);
    // Every tree crosses the fabric's wrap arcs somewhere: the
    // dateline must have been exercised, not avoided.
    assert!(report.dateline_promotions > 0);
    // Every link carries every broadcast tree from one root, so the
    // static multicast forwarding index is the group count... on the
    // 255-node out-tree each link carries at most one arc per tree.
    assert_eq!(report.multicast_forwarding_index, 300);
    // Replication did the heavy lifting: 255 leaves reached per tree
    // from at most 2 root copies.
    assert!(report.replicated_copies > report.multicast_groups as u64 * 200);
}

/// The multicast forwarding index measured by the batched engine is
/// consistent with the queueing engine's static tree count, and the
/// hotspot-rooted pattern concentrates it exactly where the unicast
/// hotspot pattern concentrates load.
#[test]
fn multicast_forwarding_index_agrees_across_engines() {
    let b = DeBruijn::new(2, 6);
    let n = b.node_count();
    let groups =
        generate_multicast_workload(TrafficPattern::Multicast { fanout: 6 }, n, 2, 200, 42);
    let config = QueueConfig {
        buffers: 64,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let queueing = engine.run_multicast(&DeBruijnRouter::new(b), &groups, 0.1 * n as f64);
    // The batched engine on the same workload over the OTIS hosting of
    // the same fabric (H(8,16,2) ≅ B(2,6) via the identity here is not
    // available — route the de Bruijn fabric directly through the
    // simulator's H-digraph of the same shape).
    let sim =
        otis_optics::simulator::OtisSimulator::with_defaults(otis_optics::HDigraph::new(8, 16, 2));
    let batched_engine = otis_optics::TrafficEngine::new(&sim);
    let router = RoutingTable::from_family(sim.h());
    let batched = batched_engine.run_multicast(&router, &groups);
    assert_eq!(batched.delivered_leaves, queueing.delivered);
    // Different routers (H-table vs de Bruijn arithmetic) may tie-break
    // differently, but the indices measure the same congestion within
    // the tie-break wiggle.
    assert!(batched.multicast_forwarding_index >= 1);
    assert!(queueing.multicast_forwarding_index >= 1);
    assert!(batched.unicast_forwarding_index >= batched.multicast_forwarding_index);
}

/// The compressed-table router drives the queueing engine at a fabric
/// size the dense table cannot represent — and behaves exactly like
/// the arithmetic router it was derived from.
#[test]
fn compressed_table_runs_the_queueing_engine_past_the_dense_cap() {
    let b = DeBruijn::new(2, 14); // 16384 nodes, 2× the dense cap
    let n = b.node_count();
    let table = RoutingTable::from_family(&b);
    assert!(table.is_compressed());
    let workload = generate_workload(TrafficPattern::Uniform, n, 2, 20_000, 5);
    let config = QueueConfig {
        buffers: 8,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        max_cycles: 100_000,
        drain_threads: 0,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let table_report = engine.run(&table, &workload, 0.05 * n as f64);
    assert!(table_report.conserves_packets());
    assert_eq!(table_report.injected, workload.len());
    // The arithmetic router must agree on everything but its name:
    // the compressed runs are its routing function, tabulated.
    let arithmetic_report = engine.run(&DeBruijnRouter::new(b), &workload, 0.05 * n as f64);
    let strip = |report: &otis_optics::QueueingReport| {
        let mut report = report.clone();
        report.router = String::new();
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(strip(&table_report), strip(&arithmetic_report));
}

// --- PR 6: streamed workloads — the materialization differential ------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streaming is a memory optimization, not a semantics change:
    /// regenerating the workload chunk by chunk inside the engine must
    /// yield a byte-identical report to feeding the same pairs as an
    /// explicit list — at 1, 2 and 8 drain threads, oblivious and
    /// adaptive, both policies, across VC counts.
    #[test]
    fn streamed_run_is_byte_identical_to_materialized(
        dim in 3u32..6,
        buffers in 1usize..6,
        vcs in 1usize..3,
        tail_drop in any::<bool>(),
        adaptive in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let pattern = TrafficPattern::Hotspot;
        let source = WorkloadSource::new(pattern, n, 2, 500, seed);
        let materialized = WorkloadSource::from_pairs(source.materialize());
        prop_assert_eq!(materialized.len(), source.len());
        let hot = pattern.hot_node(n);
        for threads in [1usize, 2, 8] {
            let config = QueueConfig {
                buffers,
                wavelengths: 1,
                vcs,
                policy: if tail_drop {
                    ContentionPolicy::TailDrop
                } else {
                    ContentionPolicy::Backpressure
                },
                hop_limit: None,
                max_cycles: 50_000,
                drain_threads: threads,
            };
            let offered = 0.5 * n as f64;
            let run = |feed: &WorkloadSource| -> String {
                let engine = QueueingEngine::from_family(&b, config);
                let report = if adaptive {
                    let router = AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy())
                        .with_dateline(engine.dateline());
                    engine.run_streamed_classified(&router, feed, offered, hot)
                } else {
                    let router = DeBruijnRouter::new(b);
                    engine.run_streamed_classified(&router, feed, offered, hot)
                };
                serde_json::to_string(&report).expect("report serializes")
            };
            prop_assert_eq!(
                run(&source),
                run(&materialized),
                "streamed diverged from explicit pairs at {} drain threads",
                threads
            );
        }
    }
}

/// The chunk seam itself: a workload bigger than one 65,536-packet
/// chunk forces the streaming feed to regenerate mid-run (and the
/// static engine to fan chunks across workers), and neither engine may
/// show it in a single report byte.
#[test]
fn streamed_chunk_seam_is_invisible_to_the_report() {
    let b = DeBruijn::new(2, 6);
    let n = b.node_count();
    let source = WorkloadSource::new(TrafficPattern::Uniform, n, 2, 100_000, 0x0715);
    assert!(source.chunk_count() > 1, "must cross a chunk boundary");
    let materialized = source.materialize();
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        max_cycles: 100_000,
        drain_threads: 2,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let router = DeBruijnRouter::new(b);
    let offered = 0.5 * n as f64;
    let streamed = engine.run_streamed_classified(&router, &source, offered, None);
    let explicit = WorkloadSource::from_pairs(&materialized[..]);
    let batched = engine.run_streamed_classified(&router, &explicit, offered, None);
    assert_eq!(
        serde_json::to_string(&streamed).expect("serializes"),
        serde_json::to_string(&batched).expect("serializes"),
        "queueing engine: chunk seam leaked into the report"
    );
    // Same contract for the static (uncontended) engine, which routes
    // chunks in parallel workers. Both feeds split into the same
    // chunks, so even the float energy total sums in the same order.
    let sim =
        otis_optics::simulator::OtisSimulator::with_defaults(otis_optics::HDigraph::new(8, 16, 2));
    let static_engine = otis_optics::TrafficEngine::new(&sim);
    let table = RoutingTable::from_family(sim.h());
    let streamed_static = static_engine.run(&table, &source);
    let batched_static = static_engine.run(&table, &explicit);
    assert_eq!(
        serde_json::to_string(&streamed_static).expect("serializes"),
        serde_json::to_string(&batched_static).expect("serializes"),
        "static engine: chunk seam leaked into the report"
    );
}

// ---------------------------------------------------------------
// Link dynamics: fades, flapping beams, failure storms, and online
// reroute with incremental next-hop repair.
// ---------------------------------------------------------------

/// The tentpole acceptance run: a B(2,10) hotspot workload survives a
/// mid-run failure storm across a transceiver-plane slice plus a
/// single-beam fade on the hot in-tree. Routing repairs online
/// (strictly fewer runs patched than a full rebuild), the report
/// carries a nonzero time-to-reroute, the stranded packets re-place
/// through the surviving sibling beam, and delivery stays ≥ 90% with
/// conservation holding throughout.
#[test]
fn mid_run_storm_on_b210_hotspot_reroutes_and_delivers() {
    let b = DeBruijn::new(2, 10);
    let n = b.node_count();
    let g = b.digraph();
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 6_000, 11);
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    let mut engine = QueueingEngine::new(g.clone(), config);
    // At cycle 40 every out-beam of the four-node slice 300..=303
    // dies for 120 cycles; at cycle 50 the hot in-tree beam 256 → 512
    // fades to zero for 100 cycles (its sibling 256 → 513 survives,
    // so the stranded hot traffic has somewhere to go); plus one
    // flapping beam elsewhere.
    arm(
        &mut engine,
        "storm@40:300-303:120,fade@50:256>512:0:100,flap@60:7>14:10:10:3",
        StrandedPolicy::Reinject,
    );
    let router = DynamicRoutingTable::new(&g);
    let report = engine.run_streamed_classified(&router, &source, 0.4 * n as f64, Some(n / 2));

    assert!(!report.deadlocked, "{report:?}");
    assert!(report.dynamics_consistent(), "{report:?}");
    assert_eq!(report.in_flight, 0);
    // 8 storm deaths + 1 fade death + 3 flap deaths, each revived.
    assert_eq!(report.link_down_events, 12);
    assert_eq!(report.link_up_events, 12);
    // Deaths at nodes with a surviving sibling beam (the fade and the
    // flaps) resolve their reroute watch; a storm node loses *every*
    // out-beam, so its watch can only settle if traffic transits it
    // after revival — those may honestly stay unresolved.
    assert!(!report.time_to_reroute_cycles.is_empty(), "{report:?}");
    assert!(report.time_to_reroute_cycles.iter().all(|&t| t >= 1));
    assert!(report.reroute_unresolved <= 8, "{report:?}");
    // Online repair patched, and each event touched strictly fewer
    // runs than the full table holds.
    assert_eq!(report.repair_runs_patched.len(), 24);
    assert!(report.table_runs_total > 0);
    assert!(report
        .repair_runs_patched
        .iter()
        .all(|&runs| runs < report.table_runs_total));
    // The storm caught traffic mid-flight and the engine re-placed it.
    assert!(report.stranded_reinjected > 0, "{report:?}");
    // ≥ 90% delivered despite the storm window (the only losses are
    // packets stuck at — or sourced from — the dead slice).
    assert!(
        report.delivered * 10 >= report.injected * 9,
        "delivered {} of {}",
        report.delivered,
        report.injected
    );
    // After the run (all events revived), the repaired table answers
    // byte-identically to a from-scratch build of the full fabric.
    assert_eq!(router.dead_arc_count(), 0);
    assert_eq!(
        router.snapshot(),
        otis_digraph::repair::RepairableNextHopTable::new(&g).snapshot(),
        "post-revival repair drifted from the from-scratch table"
    );
}

/// Satellite 6 regression: a head parked behind a beam that then
/// fades to zero must deroute (or drop) instead of wedging. The hot
/// in-tree link 64 → 128 on B(2,8) dies permanently mid-run; the
/// wake-the-world crossing re-evaluates every parked channel and the
/// stranded queue re-places through the surviving in-beam.
#[test]
fn heads_blocked_behind_a_dying_beam_deroute_instead_of_wedging() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 4_000, 3);
    let config = QueueConfig {
        buffers: 2,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    for policy in [StrandedPolicy::Reinject, StrandedPolicy::Drop] {
        let mut engine = QueueingEngine::new(g.clone(), config);
        arm(&mut engine, "fade@30:64>128", policy);
        let router = DynamicRoutingTable::new(&g);
        let report = engine.run_streamed_classified(&router, &source, 0.5 * n as f64, Some(n / 2));
        assert!(!report.deadlocked, "{policy:?}: wedged — {report:?}");
        assert!(report.cycles < config.max_cycles, "{policy:?}: spun out");
        assert!(report.dynamics_consistent(), "{policy:?}: {report:?}");
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.link_down_events, 1);
        let resolved = match policy {
            StrandedPolicy::Reinject => report.stranded_reinjected,
            StrandedPolicy::Drop => report.dropped_stranded as u64,
        };
        assert!(
            resolved > 0,
            "{policy:?}: nothing was queued on the dead beam"
        );
    }
}

/// A timeline whose only event sits far past the horizon must leave
/// the run byte-identical to the static engine — at every thread
/// count. The dynamics scaffolding (capacity gates, watches, penalty
/// slab) may cost cycles, never behavior.
#[test]
fn unfired_timeline_reproduces_the_static_report_at_1_2_8_threads() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let workload = generate_workload(TrafficPattern::Uniform, n, 2, 3_000, 19);
    for threads in [1usize, 2, 8] {
        let config = QueueConfig {
            buffers: 4,
            wavelengths: 2,
            vcs: 2,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            drain_threads: threads,
            max_cycles: 100_000,
        };
        let router = DynamicRoutingTable::new(&g);
        let baseline =
            QueueingEngine::new(g.clone(), config).run(&router, &workload, 0.4 * n as f64);
        let mut engine = QueueingEngine::new(g.clone(), config);
        arm(&mut engine, "fade@900000:0>1:0:5", StrandedPolicy::Reinject);
        let report = engine.run(&router, &workload, 0.4 * n as f64);
        assert_eq!(baseline, report, "threads={threads}");
    }
}

/// Reports under *firing* dynamics are a pure function of the cycle
/// state, not the worker layout: the same storm at 1, 2 and 8 drain
/// threads yields identical reports (stranded resolution is
/// channel-sorted, watches resolve on cycle values, and events fire
/// on the sequential slot).
#[test]
fn dynamics_reports_are_thread_invariant() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 4_000, 23);
    let run = |threads: usize| {
        let config = QueueConfig {
            buffers: 4,
            wavelengths: 1,
            vcs: 2,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            drain_threads: threads,
            max_cycles: 100_000,
        };
        let mut engine = QueueingEngine::new(g.clone(), config);
        arm(
            &mut engine,
            "storm@25:100-101:60,fade@45:64>128:0:90",
            StrandedPolicy::Reinject,
        );
        // Fresh router per run: repair mutates it.
        let router = DynamicRoutingTable::new(&g);
        engine.run_streamed_classified(&router, &source, 0.5 * n as f64, Some(n / 2))
    };
    let single = run(1);
    assert!(single.link_down_events > 0 && single.dynamics_consistent());
    assert_eq!(single, run(2), "2 threads diverged");
    assert_eq!(single, run(8), "8 threads diverged");
}

/// The locked-read oracle: a dynamic table that repairs and counts
/// publications as usual but offers no snapshot, so the engine sends
/// every next-hop query through the table's own locked path.
struct LockedReads(DynamicRoutingTable);

impl Router for LockedReads {
    fn node_count(&self) -> u64 {
        self.0.node_count()
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.0.next_hop(current, dst)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        self.0.ranked_candidates(current, dst)
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.0.distance(src, dst)
    }

    fn as_repair(&self) -> Option<&dyn RouteRepair> {
        Some(self)
    }
}

impl RouteRepair for LockedReads {
    fn apply_link_event_deferred(
        &self,
        from: u64,
        to: u64,
        alive: bool,
    ) -> otis_digraph::repair::RepairStats {
        self.0.apply_link_event_deferred(from, to, alive)
    }

    fn publish_deferred(&self) {
        self.0.publish_deferred();
    }

    fn repair_table_runs(&self) -> usize {
        self.0.repair_table_runs()
    }

    fn snapshot_epoch(&self) -> u64 {
        self.0.snapshot_epoch()
    }

    fn published_snapshot(&self) -> Option<RouteSnapshot> {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary seed-split fade timelines on B(2, dim) with vcs ≥ 2
    /// backpressure: the run never wedges, conserves packets through
    /// every death and revival, and drains to empty under both
    /// stranded policies.
    #[test]
    fn random_fade_timelines_conserve_and_never_wedge(
        dim in 4u32..7,
        seed in any::<u64>(),
        fades in 1usize..5,
        window in 1u64..120,
        duration in 1u64..60,
        reinject in any::<bool>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let g = b.digraph();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 400, seed);
        let config = config_from(4, 1, 2, false);
        let mut engine = QueueingEngine::new(g.clone(), config);
        arm(
            &mut engine,
            &format!("randfades@{seed}:{fades}:{window}:{duration}"),
            if reinject { StrandedPolicy::Reinject } else { StrandedPolicy::Drop },
        );
        let router = DynamicRoutingTable::new(&g);
        let report = engine.run(&router, &workload, 0.3 * n as f64);
        prop_assert!(!report.deadlocked, "{report:?}");
        prop_assert!(report.dynamics_consistent(), "{report:?}");
        prop_assert_eq!(report.in_flight, 0);
    }

    /// The kill/revive battery at engine level: after a run whose
    /// timeline leaves some arcs permanently dead, the router's
    /// incrementally repaired table is byte-identical to a
    /// from-scratch build over the same dead set.
    #[test]
    fn engine_driven_repair_matches_from_scratch_build(
        dim in 4u32..6,
        seed in any::<u64>(),
        fades in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..5), 1..4),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let g = b.digraph();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 200, seed);
        // Permanent fades (no duration) on known de Bruijn links
        // (u → 2u + bit mod n): the dead set survives the run. Fade
        // cycles are pinned early (< 5) so every event fires before
        // the small workload drains and the run ends.
        let mut events = Vec::new();
        let mut dead = Vec::new();
        for &(u, bit, cycle) in &fades {
            let from = u % n;
            let to = (2 * from + bit % 2) % n;
            events.push(format!("fade@{cycle}:{from}>{to}"));
            dead.push(g.arc_between(from as u32, to as u32).expect("a de Bruijn link"));
        }
        dead.sort_unstable();
        dead.dedup();
        let config = config_from(4, 1, 2, false);
        let mut engine = QueueingEngine::new(g.clone(), config);
        arm(&mut engine, &events.join(","), StrandedPolicy::Reinject);
        let router = DynamicRoutingTable::new(&g);
        let report = engine.run(&router, &workload, 0.3 * n as f64);
        prop_assert!(report.dynamics_consistent(), "{report:?}");
        prop_assert_eq!(router.dead_arc_count(), dead.len());
        let scratch = otis_digraph::repair::RepairableNextHopTable::with_dead_arcs(&g, &dead);
        prop_assert_eq!(
            router.snapshot(),
            scratch.snapshot(),
            "incremental repair drifted from the from-scratch survivor build"
        );
    }

    /// The epoch-snapshot read path against its oracle: the same
    /// random kill/revive timeline run through the dynamic table
    /// (lock-free snapshot reads) and through [`LockedReads`] (every
    /// query through the table's own locked path) must produce
    /// byte-identical reports at 1, 2 and 8 drain threads. This is
    /// the differential that lets the engine erase the per-query
    /// RwLock without ever being able to change an answer.
    #[test]
    fn snapshot_reads_match_the_locked_oracle_at_1_2_8_threads(
        seed in any::<u64>(),
        fades in 1usize..5,
        window in 1u64..100,
        duration in 1u64..50,
    ) {
        let b = DeBruijn::new(2, 6);
        let n = b.node_count();
        let g = b.digraph();
        let workload = generate_workload(TrafficPattern::Uniform, n, 2, 500, seed);
        let spec = format!("randfades@{seed}:{fades}:{window}:{duration}");
        let mut baseline = None;
        for threads in [1usize, 2, 8] {
            for snapshot_reads in [true, false] {
                let config = QueueConfig {
                    buffers: 4,
                    wavelengths: 1,
                    vcs: 2,
                    policy: ContentionPolicy::Backpressure,
                    hop_limit: None,
                    drain_threads: threads,
                    max_cycles: 100_000,
                };
                let mut engine = QueueingEngine::new(g.clone(), config);
                arm(&mut engine, &spec, StrandedPolicy::Reinject);
                // Fresh router per run: repair mutates it.
                let table = DynamicRoutingTable::new(&g);
                let locked = LockedReads(DynamicRoutingTable::new(&g));
                let router: &dyn Router = if snapshot_reads { &table } else { &locked };
                let report = engine.run(router, &workload, 0.3 * n as f64);
                prop_assert!(report.dynamics_consistent(), "{report:?}");
                match &baseline {
                    None => baseline = Some(report),
                    Some(first) => prop_assert_eq!(
                        first,
                        &report,
                        "threads={} snapshot_reads={} diverged from the oracle",
                        threads,
                        snapshot_reads
                    ),
                }
            }
        }
    }
}

/// Rank-space dynamics on a relabeled (OTIS H-style) fabric, end to
/// end: the engine's timeline addresses one beam by its de Bruijn
/// rank (`rank:` prefix) and one by its outer fabric id, both repairs
/// execute in rank space through the witness-translated hook, and the
/// router's inner table lands byte-identical to a from-scratch build
/// of the rank-space survivor graph.
#[test]
fn relabeled_fabric_repairs_in_rank_space_and_matches_rebuild() {
    // A genuinely relabeled B(2,8): push every arc through bit
    // reversal, the witness of the relabeling.
    let dim = 8u32;
    let n = 1u64 << dim;
    let rev = |v: u32| v.reverse_bits() >> (32 - dim);
    let outer = Digraph::from_fn(n as usize, |u| {
        let r = rev(u);
        let mut out = [rev((2 * r) % n as u32), rev((2 * r + 1) % n as u32)];
        out.sort_unstable();
        out
    });
    let witness: Vec<u32> = (0..n as u32).map(rev).collect();
    let inner_g = DeBruijn::new(2, dim).digraph();
    let workload = generate_workload(TrafficPattern::Uniform, n, 2, 2_000, 11);
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 1,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    let mut engine = QueueingEngine::new(outer.clone(), config);
    // Rank link 2>4 and outer link 192>96 (= rank link 3>6 through
    // bit reversal), both permanent deaths.
    engine
        .try_set_dynamics_relabeled(
            "fade@1:rank:2>4,fade@2:192>96".parse().expect("valid spec"),
            StrandedPolicy::Reinject,
            Some(&witness),
        )
        .expect("both addressings compile against the witness");
    let router =
        otis_core::RelabeledRouter::new(DynamicRoutingTable::new(&inner_g), witness.clone());
    let report = engine.run(&router, &workload, 0.3 * n as f64);
    assert!(report.dynamics_consistent(), "{report:?}");
    assert_eq!(report.link_down_events, 2, "both deaths fired");
    assert!(
        report.snapshot_publications > 0,
        "rank-space repairs must republish the read snapshot"
    );
    // The differential, in rank space: the inner table repaired
    // through the translated hook equals a from-scratch build over
    // the de Bruijn survivor graph with the same two arcs dead.
    let dead = [
        inner_g.arc_between(2, 4).expect("rank link 2>4"),
        inner_g.arc_between(3, 6).expect("rank link 3>6"),
    ];
    let scratch = otis_digraph::repair::RepairableNextHopTable::with_dead_arcs(&inner_g, &dead);
    assert_eq!(
        router.inner().snapshot(),
        scratch.snapshot(),
        "witness-translated repair drifted from the rank-space rebuild"
    );
}

/// A beam that dies, revives, and dies again — the double transition
/// that would expose any stale parked waiter left behind by the first
/// death's wake. The run must complete without wedging at every
/// thread count, with both deaths accounted and the final table
/// matching a rebuild with the beam dead.
#[test]
fn same_beam_kill_revive_kill_leaves_no_stale_waiters() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let workload = generate_workload(TrafficPattern::Hotspot, n, 2, 4_000, 31);
    let arc = g.arc_between(64, 128).expect("a de Bruijn link");
    let run = |threads: usize| {
        let config = QueueConfig {
            buffers: 4,
            wavelengths: 1,
            vcs: 2,
            policy: ContentionPolicy::Backpressure,
            hop_limit: None,
            drain_threads: threads,
            max_cycles: 100_000,
        };
        let mut engine = QueueingEngine::new(g.clone(), config);
        // Dead at 10, back at 40, dead again at 70 — permanently.
        arm(
            &mut engine,
            "fade@10:64>128:0:40,fade@70:64>128",
            StrandedPolicy::Reinject,
        );
        let router = DynamicRoutingTable::new(&g);
        let report = engine.run(&router, &workload, 0.5 * n as f64);
        assert!(!report.deadlocked, "threads={threads}: {report:?}");
        assert!(
            report.dynamics_consistent(),
            "threads={threads}: {report:?}"
        );
        assert_eq!(
            report.in_flight, 0,
            "threads={threads}: stale waiters wedged the drain"
        );
        assert_eq!(report.link_down_events, 2);
        assert_eq!(report.link_up_events, 1);
        let scratch = otis_digraph::repair::RepairableNextHopTable::with_dead_arcs(&g, &[arc]);
        assert_eq!(
            router.snapshot(),
            scratch.snapshot(),
            "threads={threads}: kill-revive-kill drifted from the rebuild"
        );
        report
    };
    let single = run(1);
    assert_eq!(single, run(2), "2 threads diverged");
    assert_eq!(single, run(8), "8 threads diverged");
}

/// The adaptive router consumes the fade penalty: a half-dead beam
/// reads as congested through [`LinkOccupancy`], and the wrapped
/// dynamic table keeps the whole stack conserving under a timeline.
#[test]
fn adaptive_over_dynamics_conserves_and_sees_fade_penalty() {
    let b = DeBruijn::new(2, 8);
    let n = b.node_count();
    let g = b.digraph();
    let source = WorkloadSource::new(TrafficPattern::Hotspot, n, 2, 3_000, 5);
    let config = QueueConfig {
        buffers: 4,
        wavelengths: 2,
        vcs: 2,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        drain_threads: 0,
        max_cycles: 100_000,
    };
    let mut engine = QueueingEngine::new(g.clone(), config);
    arm(
        &mut engine,
        "fade@20:64>128:1:200,storm@60:40-41:50",
        StrandedPolicy::Reinject,
    );
    let adaptive = AdaptiveRouter::new(DynamicRoutingTable::new(&g), engine.occupancy())
        .with_dateline(engine.dateline());
    let report = engine.run_streamed_classified(&adaptive, &source, 0.4 * n as f64, Some(n / 2));
    assert!(!report.deadlocked, "{report:?}");
    assert!(report.dynamics_consistent(), "{report:?}");
    assert_eq!(report.in_flight, 0);
    // The partial fade is a capacity event but not a death.
    assert_eq!(report.link_down_events, 4);
    assert!(report.capacity_events >= 6);
}

/// An oblivious router that counts its next-hop queries and declares
/// its hops stateless or not. The non-stateless twin turns off every
/// shortcut the engine takes for pure hops: the per-record hop cache,
/// parked channels and sources, and sharded injection.
struct Counting<R: Router> {
    inner: R,
    queries: AtomicUsize,
    stateless: bool,
}

impl<R: Router> Router for Counting<R> {
    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.next_hop(current, dst)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        self.inner.ranked_candidates(current, dst)
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.inner.distance(src, dst)
    }

    fn hops_are_stateless(&self) -> bool {
        self.stateless
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hop caching and parking are pure performance features: on
    /// contended backpressure runs, static or under a link timeline, a
    /// stateless oblivious router and its non-stateless twin must
    /// serialize identical reports, and the cached run must save at
    /// least one query per source stall cycle. Repairing routers stay
    /// out: by design a cached hop that is still alive survives a
    /// repair, so their twins may honestly differ.
    #[test]
    fn hop_caches_and_parking_are_unobservable(
        dim in 3u32..7,
        dense in any::<bool>(),
        hotspot in any::<bool>(),
        vcs in 1usize..3,
        buffers_log in 0u32..3,
        threads in 1usize..3,
        timeline in 0usize..4,
        reinject in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b = DeBruijn::new(2, dim);
        let n = b.node_count();
        let g = b.digraph();
        let pattern = if hotspot { TrafficPattern::Hotspot } else { TrafficPattern::Uniform };
        let source = WorkloadSource::new(pattern, n, 2, 24 * n as usize, seed);
        // The fade takes a beam of the hot node's in-tree.
        let spec = match timeline {
            0 => None,
            1 => Some(format!("fade@5:{}>{}:0:30", n / 4, n / 2)),
            2 => Some("storm@8:1-2:25".to_string()),
            _ => Some(format!("randfades@{seed}:4:60:30")),
        };
        let run = |stateless: bool| {
            let config = QueueConfig {
                buffers: 1 << buffers_log,
                wavelengths: 1,
                vcs,
                policy: ContentionPolicy::Backpressure,
                hop_limit: None,
                drain_threads: threads,
                max_cycles: 20_000,
            };
            let mut engine = QueueingEngine::new(g.clone(), config);
            if let Some(spec) = &spec {
                let stranded = if reinject { StrandedPolicy::Reinject } else { StrandedPolicy::Drop };
                arm(&mut engine, spec, stranded);
            }
            let (offered, hot) = (0.5 * n as f64, pattern.hot_node(n));
            let queries = AtomicUsize::new(0);
            if dense {
                let router = Counting { inner: RoutingTable::new(&g), queries, stateless };
                let report = engine.run_streamed_classified(&router, &source, offered, hot);
                (report, router.queries.into_inner())
            } else {
                let router = Counting { inner: DeBruijnRouter::new(b), queries, stateless };
                let report = engine.run_streamed_classified(&router, &source, offered, hot);
                (report, router.queries.into_inner())
            }
        };
        let (cached, cached_queries) = run(true);
        let (fresh, fresh_queries) = run(false);
        prop_assert_eq!(
            serde_json::to_string(&cached).expect("serializes"),
            serde_json::to_string(&fresh).expect("serializes"),
            "caching or parking changed the physics"
        );
        // Without parking, a stalled source re-asks for its head's
        // first hop every cycle; with it, each of those cycles is
        // settled without a query. Blocked channel heads only widen
        // the gap.
        prop_assert!(
            cached_queries + cached.source_stall_cycles as usize <= fresh_queries,
            "cache saved too little: {} queries + {} stall cycles vs {} queries",
            cached_queries,
            cached.source_stall_cycles,
            fresh_queries
        );
    }
}
