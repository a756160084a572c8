//! `queueing-perf` — the machine-readable queueing benchmark harness.
//!
//! Runs a fixed registry of queueing scenarios in release mode and
//! emits `BENCH_queueing.json` (packets/s, cycles/s, peak RSS per
//! scenario), committed at the repo root so the perf trajectory is
//! tracked across PRs. The acceptance scenario also times the frozen
//! pre-arena [`ReferenceEngine`] and records the speedup of the
//! rewrite.
//!
//! ```text
//! queueing-perf --out BENCH_queueing.json     measure and write
//! queueing-perf --check BENCH_queueing.json   CI gate: fail if any
//!                                             scenario's pkt/s fell
//!                                             more than 30% below the
//!                                             committed figure (after
//!                                             normalizing for machine
//!                                             speed via the frozen
//!                                             reference engine's
//!                                             rate), or its peak RSS
//!                                             grew past 1.5x
//! queueing-perf --scenario NAME               run one scenario and
//!                                             print its JSON row
//!                                             (the subprocess mode
//!                                             the harness uses)
//! ```
//!
//! Each scenario runs in its own subprocess (re-exec with
//! `--scenario`), so `peak_rss_bytes` is that scenario's own
//! high-water mark — VmHWM is monotone per process, and the old
//! in-process harness reported every later scenario at the fattest
//! earlier one's peak. Where spawning fails the harness falls back to
//! in-process measurement (RSS then monotone again, but never absent).
//!
//! Scenario shapes cover the trajectory: the B(2,8) hotspot acceptance
//! shape (dense-table scale), the legacy compressed-table B(2,14) and
//! B(2,16) runs, and the streamed decade family — uniform tail-drop
//! through the tableless arithmetic router at B(2,12) through
//! B(2,20), ten million packets on the million-node fabric as the
//! headline. The decade runs stream their workloads chunk by chunk,
//! so their RSS tracks the live-packet watermark, not the offered
//! packet count.

#![forbid(unsafe_code)]

use otis_core::{
    DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, Router, RoutingTable,
};
use otis_optics::traffic::{
    generate_multicast_workload, generate_workload, ReferenceEngine, TrafficPattern,
};
use otis_optics::{ContentionPolicy, QueueConfig, QueueingEngine, StrandedPolicy, WorkloadSource};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// One scenario's measurement.
#[derive(Debug, Serialize, Deserialize)]
struct ScenarioResult {
    name: String,
    nodes: u64,
    links: usize,
    packets: usize,
    cycles: u64,
    delivered: usize,
    dropped: usize,
    elapsed_s: f64,
    pkt_per_s: f64,
    cycles_per_s: f64,
    /// This scenario's own peak RSS (VmHWM of its subprocess), bytes.
    /// In the in-process fallback it is monotone across scenarios.
    peak_rss_bytes: u64,
    /// Cycles/s of the rewritten engine over the frozen pre-arena
    /// reference on the same scenario, where measured.
    #[serde(default)]
    speedup_vs_reference: Option<f64>,
    /// The reference engine's own cycles/s on this scenario, where
    /// measured. The reference engine never changes, so this figure is
    /// a pure machine-speed probe: `--check` uses the ratio of current
    /// to committed reference rates to normalize the pkt/s floors, so
    /// a slower CI runner does not read as a regression.
    #[serde(default)]
    reference_cycles_per_s: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    scenarios: Vec<ScenarioResult>,
}

/// Every scenario the harness measures, in run order.
const SCENARIOS: &[&str] = &[
    "hotspot_B_2_8_oblivious_backpressure",
    "hotspot_B_2_8_lossless_vcs2_backpressure",
    "hotspot_B_2_8_adaptive_backpressure",
    "queueing_multicast_B_2_8",
    "hotspot_B_2_14_1M_compressed_taildrop",
    "dynamics_fade_B_2_14",
    "dynamics_storm_H_2_12",
    "uniform_B_2_16_compressed_taildrop",
    "decade_uniform_B_2_12_streamed",
    "decade_uniform_B_2_14_streamed",
    "decade_uniform_B_2_16_streamed",
    "decade_uniform_B_2_18_streamed",
    "decade_uniform_B_2_20_streamed_10M",
];

/// Peak resident set (VmHWM) in bytes; 0 where /proc is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Best-of-`iters` timing of one run; returns (report figures, secs).
fn time_run<F: Fn() -> (u64, usize, usize)>(iters: usize, run: F) -> (u64, usize, usize, f64) {
    let mut best = f64::INFINITY;
    let mut out = (0u64, 0usize, 0usize);
    for _ in 0..iters {
        let start = std::time::Instant::now();
        out = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (out.0, out.1, out.2, best)
}

/// A binary-alphabet workload generated up front and fed as an
/// explicit pair list, so the timed runs exclude pair generation.
fn pregenerated(pattern: TrafficPattern, n: u64, packets: usize, seed: u64) -> WorkloadSource {
    WorkloadSource::from_pairs(generate_workload(pattern, n, 2, packets, seed))
}

#[allow(clippy::too_many_arguments)]
fn measure(
    name: &str,
    b: DeBruijn,
    engine: &QueueingEngine,
    router: &dyn Router,
    source: &WorkloadSource,
    config: QueueConfig,
    offered: f64,
    with_reference: bool,
) -> ScenarioResult {
    let (cycles, delivered, dropped, elapsed) = time_run(3, || {
        let report = engine.run_streamed_classified(router, source, offered, None);
        (report.cycles, report.delivered, report.dropped())
    });
    let reference_cycles_per_s = with_reference.then(|| {
        let reference = ReferenceEngine::from_family(&b, config);
        let workload = source.materialize();
        let (ref_cycles, _, _, ref_elapsed) = time_run(3, || {
            let report = reference.run(router, &workload, offered);
            (report.cycles, report.delivered, report.dropped())
        });
        ref_cycles as f64 / ref_elapsed
    });
    let speedup_vs_reference =
        reference_cycles_per_s.map(|reference_rate| (cycles as f64 / elapsed) / reference_rate);
    finish(
        name,
        b.node_count(),
        engine.link_count(),
        source.len(),
        cycles,
        delivered,
        dropped,
        elapsed,
        speedup_vs_reference,
        reference_cycles_per_s,
    )
}

/// One decade of the streamed family: uniform tail-drop through the
/// tableless arithmetic router, the workload regenerated chunk by
/// chunk inside the engine. The big fabrics run best-of-2 (one
/// ten-million-packet pass is minutes of wall clock across the
/// family; the second pass already absorbs warmup).
///
/// Offered load scales as 1/D: a uniform packet on B(2,D) crosses
/// about D−1.6 of the fabric's 2 arcs per node, so mean per-link
/// utilization is load × hops / 2 — a flat load would push the big
/// decades past saturation (0.1 on B(2,20) is 93% mean utilization
/// and drops two packets in three). 1/D holds every decade near 46%
/// of mean saturation, which is what makes the family's pkt/s figures
/// comparable. Shortest-path routing loads de Bruijn arcs unevenly
/// (the hottest arcs carry about twice the mean), so the family still
/// queues hard in places; 16 buffer slots keep tail-drop losses to
/// the low percents rather than letting hot arcs dominate the figure.
fn measure_decade(name: &str, dd: u32, packets: usize) -> ScenarioResult {
    let b = DeBruijn::new(2, dd);
    let n = b.node_count();
    let load = 1.0 / dd as f64;
    let source = WorkloadSource::new(TrafficPattern::Uniform, n, 2, packets, dd as u64);
    let config = QueueConfig {
        buffers: 16,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::TailDrop,
        hop_limit: None,
        max_cycles: 100_000,
        drain_threads: 0,
    };
    let engine = QueueingEngine::from_family(&b, config);
    let router = DeBruijnRouter::new(b);
    let iters = if packets >= 1_000_000 { 2 } else { 3 };
    let (cycles, delivered, dropped, elapsed) = time_run(iters, || {
        let report = engine.run_streamed_classified(&router, &source, load * n as f64, None);
        assert!(report.conserves_packets(), "conservation broke at {name}");
        (report.cycles, report.delivered, report.dropped())
    });
    finish(
        name,
        n,
        engine.link_count(),
        packets,
        cycles,
        delivered,
        dropped,
        elapsed,
        None,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish(
    name: &str,
    nodes: u64,
    links: usize,
    packets: usize,
    cycles: u64,
    delivered: usize,
    dropped: usize,
    elapsed: f64,
    speedup_vs_reference: Option<f64>,
    reference_cycles_per_s: Option<f64>,
) -> ScenarioResult {
    let processed = delivered + dropped;
    let result = ScenarioResult {
        name: name.to_string(),
        nodes,
        links,
        packets,
        cycles,
        delivered,
        dropped,
        elapsed_s: elapsed,
        pkt_per_s: processed as f64 / elapsed,
        cycles_per_s: cycles as f64 / elapsed,
        peak_rss_bytes: peak_rss_bytes(),
        speedup_vs_reference,
        reference_cycles_per_s,
    };
    eprintln!(
        "{name}: {} pkts over {} cycles in {:.3}s — {:.0} pkt/s, {:.0} cycles/s, peak RSS {:.0} MB{}",
        result.packets,
        result.cycles,
        result.elapsed_s,
        result.pkt_per_s,
        result.cycles_per_s,
        result.peak_rss_bytes as f64 / (1 << 20) as f64,
        match result.speedup_vs_reference {
            Some(s) => format!(", {s:.1}x vs reference engine"),
            None => String::new(),
        }
    );
    result
}

/// Run one scenario by registry name.
fn run_scenario(name: &str) -> Option<ScenarioResult> {
    let b8_hotspot_config = QueueConfig {
        buffers: 32,
        wavelengths: 1,
        vcs: 1,
        policy: ContentionPolicy::Backpressure,
        hop_limit: None,
        max_cycles: 1000,
        drain_threads: 0,
    };
    match name {
        // The PR-2 acceptance shape: B(2,8) hotspot at 0.3
        // packets/node/cycle under lossless backpressure, 1000-cycle
        // window.
        "hotspot_B_2_8_oblivious_backpressure" => {
            let b = DeBruijn::new(2, 8);
            let n = b.node_count();
            let source = pregenerated(TrafficPattern::Hotspot, n, 100_000, 0x0715);
            let config = b8_hotspot_config;
            let engine = QueueingEngine::from_family(&b, config);
            Some(measure(
                name,
                b,
                &engine,
                &DeBruijnRouter::new(b),
                &source,
                config,
                0.3 * n as f64,
                false,
            ))
        }
        // The 5× acceptance variant: same hotspot shape run lossless
        // to completion on two dateline VCs, where the saturated
        // steady state exposes the old engine's full-scan cost. Also
        // the machine-speed probe: the frozen reference engine runs
        // here.
        "hotspot_B_2_8_lossless_vcs2_backpressure" => {
            let b = DeBruijn::new(2, 8);
            let n = b.node_count();
            let source = pregenerated(TrafficPattern::Hotspot, n, 100_000, 0x0715);
            let config = QueueConfig {
                vcs: 2,
                max_cycles: 1_000_000,
                ..b8_hotspot_config
            };
            let engine = QueueingEngine::from_family(&b, config);
            Some(measure(
                name,
                b,
                &engine,
                &DeBruijnRouter::new(b),
                &source,
                config,
                0.3 * n as f64,
                true,
            ))
        }
        "hotspot_B_2_8_adaptive_backpressure" => {
            let b = DeBruijn::new(2, 8);
            let n = b.node_count();
            let source = pregenerated(TrafficPattern::Hotspot, n, 100_000, 0x0715);
            let config = b8_hotspot_config;
            let engine = QueueingEngine::from_family(&b, config);
            let adaptive =
                otis_core::AdaptiveRouter::new(DeBruijnRouter::new(b), engine.occupancy());
            Some(measure(
                name,
                b,
                &engine,
                &adaptive,
                &source,
                config,
                0.3 * n as f64,
                false,
            ))
        }
        // The multicast scenario: fanout-8 trees on B(2,8), lossless
        // backpressure over two dateline VCs — in-fabric replication
        // at branch nodes, throughput counted in delivered destination
        // leaves per second.
        "queueing_multicast_B_2_8" => {
            let b = DeBruijn::new(2, 8);
            let n = b.node_count();
            let groups = generate_multicast_workload(
                TrafficPattern::Multicast { fanout: 8 },
                n,
                2,
                20_000,
                0x0715,
            );
            let config = QueueConfig {
                buffers: 16,
                wavelengths: 1,
                vcs: 2,
                policy: ContentionPolicy::Backpressure,
                hop_limit: None,
                max_cycles: 1_000_000,
                drain_threads: 0,
            };
            let engine = QueueingEngine::from_family(&b, config);
            let router = DeBruijnRouter::new(b);
            let (cycles, delivered, dropped, elapsed) = time_run(3, || {
                let report = engine.run_multicast(&router, &groups, 0.2 * n as f64);
                assert!(report.conserves_packets(), "multicast conservation broke");
                (report.cycles, report.delivered, report.dropped())
            });
            let processed = delivered + dropped;
            Some(finish(
                name,
                n,
                engine.link_count(),
                processed,
                cycles,
                delivered,
                dropped,
                elapsed,
                None,
                None,
            ))
        }
        // The million-packet run the dense cap made impossible:
        // B(2,14) hotspot through the interval-compressed table.
        "hotspot_B_2_14_1M_compressed_taildrop" => {
            let b = DeBruijn::new(2, 14);
            let n = b.node_count();
            let source = pregenerated(TrafficPattern::Hotspot, n, 1_000_000, 14);
            let table = RoutingTable::from_family(&b);
            assert!(table.is_compressed());
            let config = QueueConfig {
                buffers: 16,
                wavelengths: 1,
                vcs: 1,
                policy: ContentionPolicy::TailDrop,
                hop_limit: None,
                max_cycles: 3000,
                drain_threads: 0,
            };
            let engine = QueueingEngine::from_family(&b, config);
            Some(measure(
                name,
                b,
                &engine,
                &table,
                &source,
                config,
                0.2 * n as f64,
                false,
            ))
        }
        // Live-link dynamics at the same B(2,14) hotspot shape: a
        // scripted mid-run battery — a fade on the hot in-tree beam,
        // a 16-node failure storm and twelve seed-split random fades
        // — through the repairable next-hop table with online repair
        // and stranded reinjection. Every event revives before the
        // run drains, so each timed iteration replays against the
        // same pristine table; the figure prices what dynamics cost
        // versus the static `hotspot_B_2_14_1M_compressed_taildrop`
        // row above (`--check` gates that ratio at 3x: workers route
        // through epoch snapshots, so the gap is publication cost,
        // not a per-query lock).
        "dynamics_fade_B_2_14" => {
            let b = DeBruijn::new(2, 14);
            let n = b.node_count();
            let g = b.digraph();
            let source = pregenerated(TrafficPattern::Hotspot, n, 1_000_000, 14);
            let config = QueueConfig {
                buffers: 16,
                wavelengths: 1,
                vcs: 1,
                policy: ContentionPolicy::TailDrop,
                hop_limit: None,
                max_cycles: 3000,
                drain_threads: 0,
            };
            let mut engine = QueueingEngine::new(g.clone(), config);
            engine
                .try_set_dynamics_relabeled(
                    "fade@60:4096>8192:0:120,storm@120:0-15:150,randfades@14:12:250:100"
                        .parse()
                        .expect("valid dynamics spec"),
                    StrandedPolicy::Reinject,
                    None,
                )
                .expect("the timeline compiles against B(2,14)");
            let router = DynamicRoutingTable::new(&g);
            let (cycles, delivered, dropped, elapsed) = time_run(2, || {
                let report = engine.run_streamed_classified(&router, &source, 0.2 * n as f64, None);
                assert!(report.dynamics_consistent(), "dynamics conservation broke");
                assert_eq!(
                    report.link_down_events, report.link_up_events,
                    "a link death outlived the run"
                );
                assert!(
                    report.snapshot_publications > 0,
                    "the epoch-snapshot path never published"
                );
                (report.cycles, report.delivered, report.dropped())
            });
            Some(finish(
                name,
                n,
                engine.link_count(),
                source.len(),
                cycles,
                delivered,
                dropped,
                elapsed,
                None,
                None,
            ))
        }
        // Live-link dynamics on the OTIS fabric itself: B(2,12)'s
        // lens-minimal H layout routed in de Bruijn rank space through
        // the paper's isomorphism witness, with a rank-addressed fade
        // and failure storm. Exercises the translated repair hook —
        // CSR compression and incremental patching happen in rank
        // space while the engine addresses H-numbered links — and the
        // epoch-snapshot read path under the relabeling.
        "dynamics_storm_H_2_12" => {
            let b = DeBruijn::new(2, 12);
            let n = b.node_count();
            let spec = otis_layout::minimize_lenses(2, 12).expect("B(2,12) has an OTIS layout");
            let h = spec.h_digraph();
            let witness = spec.debruijn_witness().expect("layout is de Bruijn");
            let source = pregenerated(TrafficPattern::Hotspot, n, 500_000, 12);
            let config = QueueConfig {
                buffers: 16,
                wavelengths: 1,
                vcs: 1,
                policy: ContentionPolicy::TailDrop,
                hop_limit: None,
                max_cycles: 3000,
                drain_threads: 0,
            };
            let mut engine = QueueingEngine::from_family(&h, config);
            engine
                .try_set_dynamics_relabeled(
                    "fade@60:rank:1024>2048:0:120,storm@120:rank:0-15:150"
                        .parse()
                        .expect("valid dynamics spec"),
                    StrandedPolicy::Reinject,
                    Some(&witness),
                )
                .expect("rank events compile through the witness");
            let router =
                otis_core::RelabeledRouter::new(DynamicRoutingTable::new(&b.digraph()), witness);
            let (cycles, delivered, dropped, elapsed) = time_run(2, || {
                let report = engine.run_streamed_classified(&router, &source, 0.2 * n as f64, None);
                assert!(report.dynamics_consistent(), "dynamics conservation broke");
                assert_eq!(
                    report.link_down_events, report.link_up_events,
                    "a link death outlived the run"
                );
                assert!(
                    report.snapshot_publications > 0,
                    "the relabeled repair hook never republished a snapshot"
                );
                (report.cycles, report.delivered, report.dropped())
            });
            Some(finish(
                name,
                n,
                engine.link_count(),
                source.len(),
                cycles,
                delivered,
                dropped,
                elapsed,
                None,
                None,
            ))
        }
        // B(2,16) uniform through the compressed table.
        "uniform_B_2_16_compressed_taildrop" => {
            let b = DeBruijn::new(2, 16);
            let n = b.node_count();
            let source = pregenerated(TrafficPattern::Uniform, n, 200_000, 16);
            let table = RoutingTable::from_family(&b);
            assert!(table.is_compressed());
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
            Some(measure(
                name,
                b,
                &engine,
                &table,
                &source,
                config,
                0.1 * n as f64,
                false,
            ))
        }
        // The streamed decade family. Packet counts scale with the
        // fabric so every decade runs long enough to gate on; the
        // million-node fabric carries the ten-million-packet headline.
        "decade_uniform_B_2_12_streamed" => Some(measure_decade(name, 12, 1_000_000)),
        "decade_uniform_B_2_14_streamed" => Some(measure_decade(name, 14, 1_000_000)),
        "decade_uniform_B_2_16_streamed" => Some(measure_decade(name, 16, 2_000_000)),
        "decade_uniform_B_2_18_streamed" => Some(measure_decade(name, 18, 4_000_000)),
        "decade_uniform_B_2_20_streamed_10M" => Some(measure_decade(name, 20, 10_000_000)),
        _ => None,
    }
}

/// Run every scenario, each in its own subprocess so `peak_rss_bytes`
/// is per-scenario; fall back to in-process if re-exec fails.
fn run_all() -> BenchFile {
    let exe = std::env::current_exe().ok();
    let mut scenarios = Vec::new();
    for &name in SCENARIOS {
        let sub = exe.as_ref().and_then(|exe| {
            let output = std::process::Command::new(exe)
                .args(["--scenario", name])
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()?;
            if !output.status.success() {
                eprintln!("subprocess for {name} failed; falling back to in-process");
                return None;
            }
            serde_json::from_str::<ScenarioResult>(String::from_utf8(output.stdout).ok()?.trim())
                .ok()
        });
        match sub {
            Some(result) => scenarios.push(result),
            None => match run_scenario(name) {
                Some(result) => scenarios.push(result),
                None => unreachable!("registry names a scenario {name} that does not exist"),
            },
        }
    }
    BenchFile { scenarios }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = iter.next().cloned(),
            "--check" => check_path = iter.next().cloned(),
            "--scenario" => scenario = iter.next().cloned(),
            other => {
                eprintln!(
                    "unknown argument {other:?} (want --out FILE, --check FILE and/or --scenario NAME)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // Subprocess mode: one scenario, JSON row on stdout, done.
    if let Some(name) = &scenario {
        let Some(result) = run_scenario(name) else {
            eprintln!("unknown scenario {name:?} (see SCENARIOS in queueing_perf.rs)");
            return ExitCode::FAILURE;
        };
        println!(
            "{}",
            serde_json::to_string(&result).expect("row serializes")
        );
        return ExitCode::SUCCESS;
    }

    if out_path.is_none() && check_path.is_none() {
        out_path = Some("BENCH_queueing.json".to_string());
    }

    let measured = run_all();

    if let Some(path) = &out_path {
        // The vendored serde_json shim has no pretty printer; make the
        // committed file diffable by splitting scenario boundaries.
        let json = serde_json::to_string(&measured)
            .expect("results serialize")
            .replace("},{", "},\n  {")
            .replace("[{", "[\n  {")
            .replace("}]}", "}\n]}");
        if let Err(err) = std::fs::write(path, json + "\n") {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &check_path {
        let committed: BenchFile = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        {
            Ok(file) => file,
            Err(err) => {
                eprintln!("cannot read committed floor {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        // Machine-speed normalization: the frozen reference engine's
        // absolute rate measures the hardware, not the code under
        // test. Scale the committed floors by how this machine
        // compares to the one that produced them.
        let reference_rate =
            |file: &BenchFile| file.scenarios.iter().find_map(|s| s.reference_cycles_per_s);
        let machine_scale = match (reference_rate(&measured), reference_rate(&committed)) {
            (Some(current), Some(then)) if then > 0.0 => current / then,
            _ => 1.0,
        };
        eprintln!("machine scale vs committed figures: {machine_scale:.2}x");
        let mut failed = false;
        for floor in &committed.scenarios {
            let Some(current) = measured.scenarios.iter().find(|s| s.name == floor.name) else {
                eprintln!("FAIL {}: scenario no longer measured", floor.name);
                failed = true;
                continue;
            };
            if floor.elapsed_s < 0.05 {
                // Sub-50ms scenarios flap far more than 30% run to
                // run; they are tracked for the trajectory, not gated.
                eprintln!(
                    "skip {}: {:.3}s committed run is too short to gate on",
                    floor.name, floor.elapsed_s
                );
                continue;
            }
            // The committed figure, scaled to this machine, is the
            // floor; the 30% regression budget absorbs run-to-run
            // noise.
            let minimum = 0.7 * floor.pkt_per_s * machine_scale;
            if current.pkt_per_s < minimum {
                eprintln!(
                    "FAIL {}: {:.0} pkt/s is below 70% of the committed {:.0}",
                    floor.name, current.pkt_per_s, floor.pkt_per_s
                );
                failed = true;
            } else {
                eprintln!(
                    "ok   {}: {:.0} pkt/s (floor {:.0})",
                    floor.name, current.pkt_per_s, minimum
                );
            }
            // Peak-RSS ceiling: memory does not scale with machine
            // speed, so the budget is a plain 1.5x. Only the big
            // fabrics gate — small scenarios sit on fixed process
            // overhead (allocator, binary, thread stacks) that
            // dominates their figure and flaps with the toolchain.
            let committed_rss = floor.peak_rss_bytes;
            if committed_rss >= (64 << 20) && current.peak_rss_bytes > 0 {
                let ceiling = committed_rss + committed_rss / 2;
                if current.peak_rss_bytes > ceiling {
                    eprintln!(
                        "FAIL {}: peak RSS {:.0} MB above the {:.0} MB ceiling (committed {:.0} MB)",
                        floor.name,
                        current.peak_rss_bytes as f64 / (1 << 20) as f64,
                        ceiling as f64 / (1 << 20) as f64,
                        committed_rss as f64 / (1 << 20) as f64,
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "ok   {}: peak RSS {:.0} MB (ceiling {:.0} MB)",
                        floor.name,
                        current.peak_rss_bytes as f64 / (1 << 20) as f64,
                        ceiling as f64 / (1 << 20) as f64,
                    );
                }
            }
        }
        // The dynamics tax gate: with epoch-snapshot reads, the fade
        // scenario must stay within 3x of its static twin (the RwLock
        // read path sat ~23x behind). Measured-vs-measured on this
        // machine, so no normalization is needed.
        let measured_rate = |name: &str| {
            measured
                .scenarios
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.cycles_per_s)
        };
        if let (Some(dynamic), Some(static_twin)) = (
            measured_rate("dynamics_fade_B_2_14"),
            measured_rate("hotspot_B_2_14_1M_compressed_taildrop"),
        ) {
            let slowdown = static_twin / dynamic;
            if slowdown > 3.0 {
                eprintln!(
                    "FAIL dynamics_fade_B_2_14: {slowdown:.2}x slower than its static twin \
                     (budget 3x)"
                );
                failed = true;
            } else {
                eprintln!("ok   dynamics_fade_B_2_14: {slowdown:.2}x its static twin (budget 3x)");
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
