//! Golden report digests: the identity check for changes that must
//! not move a single byte of any report.
//!
//! The committed oracles elsewhere are relative — 1 vs 2 vs 8 threads,
//! snapshot vs locked reads, streamed vs materialized workloads — so a
//! change that moves both sides alike (a new arbitration order, a
//! different stall count) passes all of them. This test pins absolute
//! reports instead: a grid of queueing runs that covers every pair of
//! axis values at least once (fabric, pattern, contention policy, VC
//! and buffer counts, wavelengths, router, link timeline, thread
//! count, workloads with self and off-fabric pairs, offered load),
//! drawn eight times with different tie-breaks, plus a few
//! static-engine runs. Each report is serialized to JSON and hashed
//! with 64-bit FNV-1a (the benchmark harness's report hash), and the
//! digest must equal the one committed in `golden_reports.txt` under
//! the run's key.
//!
//! The test never writes that file. A change that means to move
//! reports edits it in the same commit and says which keys moved and
//! why; the failure message lists every moved, missing and extra key
//! with its committed and computed digests.

use otis_core::{
    AdaptiveRouter, DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, Kautz,
    KautzRouter, RelabeledRouter, Router, RoutingTable,
};
use otis_digraph::Digraph;
use otis_optics::simulator::OtisSimulator;
use otis_optics::traffic::{generate_multicast_workload, MulticastGroup, TrafficPattern};
use otis_optics::{
    ContentionPolicy, HDigraph, QueueConfig, QueueingEngine, StrandedPolicy, TrafficEngine,
    WorkloadSource,
};
use std::collections::{BTreeMap, BTreeSet};

const GOLDEN: &str = include_str!("golden_reports.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// The grid's axes, in key order.
const FABRIC: usize = 0;
const PATTERN: usize = 1;
const POLICY: usize = 2;
const VCS: usize = 3;
const BUFFERS: usize = 4;
const WAVELENGTHS: usize = 5;
const ROUTER: usize = 6;
const TIMELINE: usize = 7;
const THREADS: usize = 8;
const PAIRS: usize = 9;
const LOAD: usize = 10;
const AXES: usize = 11;

/// `(alphabet, diameter, is_kautz)` per fabric value.
const FABRICS: [(u32, u32, bool); 7] = [
    (2, 3, false),
    (2, 4, false),
    (2, 5, false),
    (2, 6, false),
    (2, 7, false),
    (2, 3, true),
    (2, 4, true),
];
const PATTERNS: [&str; 6] = [
    "uniform",
    "hotspot",
    "transpose",
    "multicast",
    "hotcast",
    "broadcast",
];
const TRANSPOSE: usize = 2;
/// Pattern values from here on are one-to-many.
const FIRST_MULTICAST: usize = 3;
const ROUTERS: [&str; 4] = ["arith", "dense", "adaptive", "dynamic"];
const TIMELINES: [&str; 3] = ["static", "reinject", "drop"];

/// Values per axis.
const SIZES: [usize; AXES] = [7, 6, 2, 3, 3, 2, 4, 3, 2, 2, 2];

/// Whether a partial assignment (`None` = free) can run. Every
/// assignment that passes extends to a full one that does, so the
/// pairwise generator below never paints itself into a corner.
fn allowed(row: &[Option<usize>; AXES]) -> bool {
    // Digit transpose needs n = d^D: the de Bruijn fabrics only.
    if let (Some(fabric), Some(TRANSPOSE)) = (row[FABRIC], row[PATTERN]) {
        if FABRICS[fabric].2 {
            return false;
        }
    }
    // Link dynamics are unicast-only.
    if let (Some(pattern), Some(timeline)) = (row[PATTERN], row[TIMELINE]) {
        if pattern >= FIRST_MULTICAST && timeline != 0 {
            return false;
        }
    }
    true
}

/// A greedy pairwise covering array over the axes: each row starts
/// from the first uncovered allowed pair and fills the other axes one
/// by one with the allowed value that covers the most uncovered pairs
/// against the axes already set. `variant` rotates the order values
/// are tried in, so each variant breaks ties differently and draws a
/// different set of rows.
fn pairwise_rows(variant: usize) -> Vec<[usize; AXES]> {
    let mut uncovered = BTreeSet::new();
    for a in 0..AXES {
        for b in a + 1..AXES {
            for va in 0..SIZES[a] {
                for vb in 0..SIZES[b] {
                    let mut row = [None; AXES];
                    row[a] = Some(va);
                    row[b] = Some(vb);
                    if allowed(&row) {
                        uncovered.insert((a, va, b, vb));
                    }
                }
            }
        }
    }
    let pair = |a: usize, va: usize, b: usize, vb: usize| {
        if a < b {
            (a, va, b, vb)
        } else {
            (b, vb, a, va)
        }
    };
    let mut rows = Vec::new();
    while let Some(&(a, va, b, vb)) = uncovered.iter().next() {
        let mut row = [None; AXES];
        row[a] = Some(va);
        row[b] = Some(vb);
        for axis in 0..AXES {
            if row[axis].is_some() {
                continue;
            }
            let mut best: Option<(usize, usize)> = None;
            for k in 0..SIZES[axis] {
                let value = (k + variant) % SIZES[axis];
                row[axis] = Some(value);
                if !allowed(&row) {
                    continue;
                }
                let gain = (0..AXES)
                    .filter(|&other| other != axis)
                    .filter_map(|other| row[other].map(|v| pair(axis, value, other, v)))
                    .filter(|key| uncovered.contains(key))
                    .count();
                if best.is_none_or(|(top, _)| gain > top) {
                    best = Some((gain, value));
                }
            }
            row[axis] = best.map(|(_, value)| value);
        }
        let row = row.map(|value| value.expect("every allowed partial row extends"));
        for a in 0..AXES {
            for b in a + 1..AXES {
                uncovered.remove(&(a, row[a], b, row[b]));
            }
        }
        rows.push(row);
    }
    rows
}

/// The run's key: every axis value and the workload seed.
fn key(row: &[usize; AXES], seed: u64) -> String {
    let (d, diameter, kautz) = FABRICS[row[FABRIC]];
    format!(
        "{}{d}_{diameter}.{}.{}.vc{}.buf{}.wl{}.{}.{}.t{}.{}.{}.s{seed}",
        if kautz { "K" } else { "B" },
        PATTERNS[row[PATTERN]],
        ["taildrop", "backpressure"][row[POLICY]],
        row[VCS] + 1,
        1 << row[BUFFERS],
        row[WAVELENGTHS] + 1,
        ROUTERS[row[ROUTER]],
        TIMELINES[row[TIMELINE]],
        row[THREADS] + 1,
        ["plain", "odd"][row[PAIRS]],
        ["light", "heavy"][row[LOAD]],
    )
}

/// A timeline that exercises every event kind on `g`: a full fade
/// with revival, a partial fade, a two-node storm, a flapping beam
/// and seeded random fades.
fn timeline_spec(g: &Digraph, seed: u64) -> String {
    let arc = |i: usize| {
        let arc = i % g.arc_count();
        (g.arc_source(arc), g.arc_target(arc))
    };
    let n = g.node_count();
    let (s1, t1) = arc(3);
    let (s2, t2) = arc(n);
    let (s3, t3) = arc(2 * n / 3);
    format!(
        "fade@6:{s1}>{t1}:0:40,fade@3:{s2}>{t2}:1:30,storm@12:1-2:25,\
         flap@4:{s3}>{t3}:5:3:4,randfades@{seed}:3:60:20"
    )
}

/// One grid run's serialized report.
fn run_row(row: &[usize; AXES], seed: u64) -> String {
    let (d, diameter, kautz) = FABRICS[row[FABRIC]];
    let g = if kautz {
        Kautz::new(d, diameter).digraph()
    } else {
        DeBruijn::new(d, diameter).digraph()
    };
    let n = g.node_count() as u64;
    let config = QueueConfig {
        buffers: 1 << row[BUFFERS],
        wavelengths: row[WAVELENGTHS] + 1,
        vcs: row[VCS] + 1,
        policy: [ContentionPolicy::TailDrop, ContentionPolicy::Backpressure][row[POLICY]],
        hop_limit: None,
        drain_threads: row[THREADS] + 1,
        max_cycles: 20_000,
    };
    let mut engine = QueueingEngine::new(g.clone(), config);
    if row[TIMELINE] != 0 {
        let stranded = [StrandedPolicy::Reinject, StrandedPolicy::Drop][row[TIMELINE] - 1];
        let spec = timeline_spec(&g, seed);
        engine
            .try_set_dynamics_relabeled(spec.parse().expect("valid spec"), stranded, None)
            .expect("the spec names fabric links");
    }
    let router: Box<dyn Router> = match ROUTERS[row[ROUTER]] {
        "arith" if kautz => Box::new(KautzRouter::new(Kautz::new(d, diameter))),
        "arith" => Box::new(DeBruijnRouter::new(DeBruijn::new(d, diameter))),
        "dense" => Box::new(RoutingTable::new(&g)),
        "adaptive" => Box::new(
            AdaptiveRouter::new(RoutingTable::new(&g), engine.occupancy())
                .with_dateline(engine.dateline()),
        ),
        _ => Box::new(DynamicRoutingTable::new(&g)),
    };
    let load = [0.15, 0.6][row[LOAD]];
    let odd = row[PAIRS] == 1;
    let report = if row[PATTERN] < FIRST_MULTICAST {
        let pattern = [
            TrafficPattern::Uniform,
            TrafficPattern::Hotspot,
            TrafficPattern::Transpose,
        ][row[PATTERN]];
        let generated = WorkloadSource::new(pattern, n, u64::from(d), 12 * n as usize, seed);
        let source = if odd {
            // Every seventh pair is followed by a self pair and an
            // off-fabric destination (alternating near and far).
            let mut pairs = Vec::new();
            for (i, (src, dst)) in generated.materialize().into_iter().enumerate() {
                pairs.push((src, dst));
                if i % 7 == 0 {
                    pairs.push((src, src));
                    pairs.push((src, if i % 2 == 0 { n + 3 } else { u64::MAX }));
                }
            }
            WorkloadSource::from_pairs(pairs)
        } else {
            generated
        };
        engine.run_streamed_classified(&*router, &source, load * n as f64, pattern.hot_node(n))
    } else {
        let (pattern, groups) = match row[PATTERN] {
            3 => (TrafficPattern::Multicast { fanout: 4 }, 2 * n as usize),
            4 => (TrafficPattern::HotspotMulticast { fanout: 6 }, n as usize),
            _ => (TrafficPattern::Broadcast, (n / 2) as usize),
        };
        let mut groups = generate_multicast_workload(pattern, n, u64::from(d), groups, seed);
        if odd {
            // A group asking for its own root, an off-fabric node and
            // a real destination; and one asking for nothing at all.
            groups.insert(
                groups.len() / 2,
                MulticastGroup {
                    root: 1,
                    dsts: vec![1, n + 5, n - 1],
                },
            );
            groups.push(MulticastGroup {
                root: 2,
                dsts: Vec::new(),
            });
        }
        engine.run_multicast(&*router, &groups, load * n as f64 / 4.0)
    };
    serde_json::to_string(&report).expect("report serializes")
}

/// The static engine's runs: `TrafficEngine` reports over two OTIS
/// layouts, through the dense table in the layout's own numbering and
/// the arithmetic router behind the de Bruijn witness.
fn static_runs() -> Vec<(String, String)> {
    let mut runs = Vec::new();
    for (p, q, diameter) in [(4u64, 8u64, 4u32), (8, 16, 6)] {
        let h = HDigraph::new(p, q, 2);
        let b = DeBruijn::new(2, diameter);
        let n = b.node_count();
        let witness = otis_digraph::iso::find_isomorphism(&h.digraph(), &b.digraph())
            .expect("the layout is de Bruijn");
        let dense = RoutingTable::from_family(&h);
        let relabeled = RelabeledRouter::new(DeBruijnRouter::new(b), witness);
        let routers: [(&str, &dyn Router); 2] = [("dense", &dense), ("arith", &relabeled)];
        let sim = OtisSimulator::with_defaults(h);
        let engine = TrafficEngine::new(&sim);
        for (name, router) in routers {
            let fabric = format!("static.H{p}_{q}_2.{name}");
            for pattern in [
                TrafficPattern::Uniform,
                TrafficPattern::Hotspot,
                TrafficPattern::Transpose,
            ] {
                let mut pairs =
                    WorkloadSource::new(pattern, n, 2, 40 * n as usize, 5).materialize();
                if pattern == TrafficPattern::Uniform {
                    pairs.extend([(0, 0), (1, n + 7), (n - 1, u64::MAX)]);
                }
                let report = engine.run(router, &WorkloadSource::from_pairs(pairs));
                runs.push((
                    format!("{fabric}.{pattern}"),
                    serde_json::to_string(&report).expect("report serializes"),
                ));
            }
            for (label, pattern) in [
                ("multicast", TrafficPattern::Multicast { fanout: 5 }),
                ("broadcast", TrafficPattern::Broadcast),
            ] {
                let groups = generate_multicast_workload(pattern, n, 2, n as usize, 9);
                let report = engine.run_multicast(router, &groups);
                runs.push((
                    format!("{fabric}.{label}"),
                    serde_json::to_string(&report).expect("report serializes"),
                ));
            }
        }
    }
    runs
}

#[test]
fn reports_match_the_committed_digests() {
    let mut computed = BTreeMap::new();
    for variant in 0..8 {
        let seed = variant as u64 + 1;
        for row in pairwise_rows(variant) {
            let key = key(&row, seed);
            let report = run_row(&row, seed);
            assert!(
                computed
                    .insert(key.clone(), fnv1a(report.as_bytes()))
                    .is_none(),
                "duplicate grid key {key}"
            );
        }
    }
    for (key, report) in static_runs() {
        assert!(
            computed
                .insert(key.clone(), fnv1a(report.as_bytes()))
                .is_none(),
            "duplicate static key {key}"
        );
    }
    assert!(
        computed.len() <= 400,
        "{} runs: keep the grid small",
        computed.len()
    );

    let mut committed = BTreeMap::new();
    for line in GOLDEN.lines().filter(|line| !line.trim().is_empty()) {
        let (key, digest) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed golden line {line:?}"));
        let digest = u64::from_str_radix(digest.trim(), 16)
            .unwrap_or_else(|e| panic!("bad digest on {line:?}: {e}"));
        assert!(
            committed.insert(key.to_string(), digest).is_none(),
            "golden key {key} listed twice"
        );
    }

    let mut problems = Vec::new();
    for (key, &new) in &computed {
        match committed.get(key) {
            Some(&old) if old == new => {}
            Some(&old) => problems.push(format!("moved   {key} {old:016x} -> {new:016x}")),
            None => problems.push(format!("missing {key} - -> {new:016x}")),
        }
    }
    for (key, &old) in &committed {
        if !computed.contains_key(key) {
            problems.push(format!("extra   {key} {old:016x} -> -"));
        }
    }
    assert!(
        problems.is_empty(),
        "{} of {} report digests differ from golden_reports.txt:\n{}",
        problems.len(),
        computed.len(),
        problems.join("\n")
    );
}
