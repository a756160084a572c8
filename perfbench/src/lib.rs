//! The repository benchmark: one OTIS-fabric workload per process,
//! built and run the way `otis traffic` builds and runs it, timed from
//! the outside through the public library API.
//!
//! An untraced run (`trace = false`) measures the end-to-end metrics:
//! set-up repeated (see [`MIN_SETUPS`]), then one warm-up run and as many
//! timed runs as fit the time window. A traced run (`trace = true`)
//! records spans around every layer call of one set-up and run, times
//! traced against untraced runs, and adds the layer micro-timings of
//! [`micro`]. Every simulated run passes the correctness [`gate`].
//! See `README.md` for the metric tables and the workload rationale.

pub mod gate;
pub mod micro;
pub mod stats;
pub mod trace;
pub mod workload;

use gate::Gate;
use micro::RepairCall;
use otis_core::{
    DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, RelabeledRouter, Router,
};
use otis_optics::QueueingReport;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{resolved, set_up, Fabric, FabricRouter, Load, Params, Scale, WorkloadId};

/// The seed runs use when none is given. (Seed 777001 is held out
/// for confirming later claims; see README.md.)
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run, at the least; more follow while the
/// set-ups so far took under [`SETUP_BUDGET_S`], up to [`MAX_SETUPS`].
/// `setup_s` is their median. The budget spans several seconds so the
/// median of even the millisecond set-ups outlasts a host phase.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 5001;
pub const SETUP_BUDGET_S: f64 = 3.0;
/// Timed runs per run window, at the least.
pub const MIN_REPS: usize = 3;

/// Whether a metric is host time/memory (noisy) or a simulated
/// quantity (repeats exactly for a fixed seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Simulated,
}

/// A metric's name, unit and kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Simulated,
    }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    host("pkt_per_s", "1/s"),
    host("setup_s", "s"),
    host("peak_rss_mb", "MB"),
    sim("delivered_frac", "frac"),
    sim("wait_p99_cycles", "cycles"),
    sim("sim_cycles", "cycles"),
];

/// Metrics of a traced run. A layer that does not run on a workload
/// reports `0`.
pub const PER_LAYER: &[MetricDef] = &[
    host("layout.minimize_lenses_s", "s"),
    host("layout.h_digraph_s", "s"),
    host("layout.witness_s", "s"),
    host("core.router.table_build_s", "s"),
    host("core.router.relabel_build_s", "s"),
    host("core.dynamic.table_build_s", "s"),
    host("optics.queueing.engine_new_s", "s"),
    host("optics.queueing.dynamics_compile_s", "s"),
    host("optics.workload.generate_s", "s"),
    host("core.router.next_hop_ns", "ns"),
    host("core.router.debruijn_next_hop_ns", "ns"),
    host("core.dynamic.snapshot_next_hop_ns", "ns"),
    host("optics.workload.fill_chunk_us", "us"),
    host("core.routing.multicast_tree_us", "us"),
    host("core.dynamic.repair_event_p50_us", "us"),
    host("core.dynamic.repair_event_max_us", "us"),
    host("core.dynamic.publish_ms", "ms"),
    sim("digraph.repair.rows_recomputed", "count"),
    sim("digraph.repair.rows_patched", "count"),
    sim("digraph.repair.runs_patched", "count"),
    sim("core.dynamic.runs_published", "count"),
    sim("core.dynamic.publish_useful_frac", "frac"),
    host("optics.queueing.ns_per_cycle", "ns"),
    host("optics.queueing.ns_per_hop", "ns"),
    host("optics.queueing.engine_self_ns_per_hop", "ns"),
    sim("report.delivered_hops", "count"),
    sim("report.dateline_promotions", "count"),
    sim("report.dateline_relief", "count"),
    sim("report.source_stall_cycles", "cycles"),
    sim("report.max_peak_occupancy", "packets"),
    sim("report.replicated_copies", "count"),
    sim("report.snapshot_publications", "count"),
    sim("report.snapshot_runs_published", "count"),
    sim("report.repair_rows_patched", "count"),
    sim("report.stranded_reinjected", "count"),
    sim("report.ttr_p50_cycles", "cycles"),
    host("layout.self_s", "s"),
    host("core.router.self_s", "s"),
    host("core.dynamic.self_s", "s"),
    host("optics.queueing.self_s", "s"),
    host("optics.workload.self_s", "s"),
    host("bench.self_s", "s"),
    host("bench.untraced_pkt_per_s", "1/s"),
    host("bench.traced_pkt_per_s", "1/s"),
    host("bench.tracing_overhead_frac", "frac"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: WorkloadId,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// One emitted metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    /// Median, tail and sample count, where the value is a timing.
    pub detail: Option<String>,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub options: Options,
    /// Packets (multicast: leaves) simulated across every run.
    pub attempted: u64,
    /// Packets of runs that failed the correctness gate.
    pub failed: u64,
    /// Why runs failed the gate, if any did.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Where the traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.def.name, m.value, m.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report.
    pub fn table(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "workload {} (seed {}, {:?} scale, {} mode, {} drain thread(s) of {} host threads)\n",
            o.workload.name(),
            o.seed,
            o.scale,
            if o.trace { "traced" } else { "untraced" },
            workload::DRAIN_THREADS,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        out += &format!(
            "{:<38} {:>16} {:<7} {:<9} detail\n",
            "metric", "value", "unit", "kind"
        );
        for m in &self.metrics {
            out += &format!(
                "{:<38} {:>16} {:<7} {:<9} {}\n",
                m.def.name,
                stats::fmt_sig(m.value),
                m.def.unit,
                match m.def.kind {
                    Kind::Host => "host",
                    Kind::Simulated => "simulated",
                },
                m.detail.as_deref().unwrap_or("")
            );
        }
        out += &format!(
            "correctness: {} ({} packets attempted, {} failed)\n",
            if self.correct() { "ok" } else { "FAILED" },
            self.attempted,
            self.failed
        );
        for error in &self.errors {
            out += &format!("  gate: {error}\n");
        }
        if let Some(path) = &self.trace_file {
            out += &format!("spans written to {}\n", path.display());
        }
        out
    }
}

/// Values gathered during a run, keyed by metric name.
#[derive(Default)]
struct Values(BTreeMap<String, (f64, Option<String>)>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), (value, None));
    }

    fn set_detailed(&mut self, name: &str, value: f64, detail: String) {
        self.0.insert(name.to_string(), (value, Some(detail)));
    }

    /// A timing: its median, described with tail and count.
    fn timing(&mut self, name: &str, summary: Summary, unit: &str) {
        self.set_detailed(name, summary.median, summary.describe(unit));
    }

    /// Packets per second of `resolved` packets per run, at the run
    /// time of the fastest decile of the runs summarized by `runs`.
    /// The host alternates between fast phases and phases about 1.5x
    /// slower that last seconds; many short runs with the fastest
    /// decile taken read the fast phase, where the median of runs
    /// jumps between phases from process to process (see README.md).
    fn rate(&mut self, name: &str, resolved: usize, runs: Summary) {
        let detail = format!(
            "run time p10 {} s, {}",
            stats::fmt_sig(runs.p10),
            runs.describe("s")
        );
        self.set_detailed(name, resolved as f64 / runs.p10, detail);
    }

    /// Emit exactly `catalog`, in order. Per-layer metrics of layers
    /// that did not run read `0`.
    fn finish(self, catalog: &[MetricDef], errors: &mut Vec<String>) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                catalog.iter().any(|def| def.name == name),
                "metric {name} is not in the catalog"
            );
        }
        catalog
            .iter()
            .map(|&def| {
                let (value, detail) = self.0.get(def.name).cloned().unwrap_or((0.0, None));
                if !value.is_finite() {
                    errors.push(format!("{} is not finite", def.name));
                }
                Metric {
                    def,
                    value: if value.is_finite() { value } else { 0.0 },
                    detail,
                }
            })
            .collect()
    }
}

/// Packets attempted and failed, and why.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one run; a run the gate rejects counts as every packet
    /// failed.
    pub fn judge(&mut self, gate: &mut Gate, report: &QueueingReport) {
        self.attempted += report.injected as u64;
        if let Err(e) = gate.check(report) {
            self.fail(report, e);
        }
    }

    fn fail(&mut self, report: &QueueingReport, why: String) {
        self.failed += report.injected as u64;
        if !self.errors.contains(&why) {
            self.errors.push(why);
        }
    }
}

/// Run one workload per `options`.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let params = Params::of(options.workload, options.scale);
    let scale = match options.scale {
        Scale::Full => "full",
        Scale::Tiny => "tiny",
    };
    let key = format!("{}-{scale}-s{}", options.workload.name(), options.seed);
    let mut gate = Gate::new();
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut trace_file = None;
    let catalog = if options.trace {
        let tracer = traced(options, &params, &mut gate, &mut tally, &mut values)?;
        let path = options.out_dir.join(format!("trace-{key}.json"));
        write_trace(&path, &tracer, options, gate.digest())?;
        trace_file = Some(path);
        PER_LAYER
    } else {
        untraced(options, &params, &mut gate, &mut tally, &mut values)?;
        END_TO_END
    };
    let metrics = values.finish(catalog, &mut tally.errors);
    Ok(Outcome {
        options: options.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        trace_file,
    })
}

/// Simulate through the fabric's router until `seconds` have passed
/// and at least [`MIN_REPS`] runs were made; returns each run's host
/// seconds.
fn timed_reps(
    seconds: f64,
    gate: &mut Gate,
    tally: &mut Tally,
    mut rep: impl FnMut() -> QueueingReport,
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while times.len() < MIN_REPS || Instant::now() < deadline {
        let start = Instant::now();
        let report = rep();
        times.push(start.elapsed().as_secs_f64());
        tally.judge(gate, &report);
    }
    times
}

fn untraced(
    options: &Options,
    params: &Params,
    gate: &mut Gate,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut fabric = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Free the previous set-up first, so peak RSS holds one.
        drop(fabric.take());
        let start = Instant::now();
        let built = set_up(params, options.seed, &mut Tracer::new(false))?;
        setup_s.push(start.elapsed().as_secs_f64());
        fabric = Some(built);
    }
    let fabric = fabric.expect("MIN_SETUPS is positive");
    let router = fabric.router.as_router();
    let warm_up = fabric.run(router);
    tally.judge(gate, &warm_up);
    let times = Summary::of(&timed_reps(options.seconds, gate, tally, || {
        fabric.run(router)
    }));
    values.rate("pkt_per_s", resolved(&warm_up), times);
    values.timing("setup_s", Summary::of(&setup_s), "s");
    values.set("peak_rss_mb", peak_rss_mb()?);
    values.set("delivered_frac", warm_up.delivery_rate());
    values.set("wait_p99_cycles", warm_up.wait_p99_cycles as f64);
    values.set("sim_cycles", warm_up.cycles as f64);
    Ok(())
}

/// One traced run through the fabric's router; on a repairing router,
/// through a [`micro::RepairRecorder`] whose logged repair calls become
/// child spans of the run's span. Returns the report and the calls.
fn run_traced(t: &mut Tracer, fabric: &Fabric) -> (QueueingReport, Vec<RepairCall>) {
    t.span("optics.queueing.run", |t| {
        let router = fabric.router.as_router();
        if !matches!(fabric.router, FabricRouter::Dynamic(_)) {
            return (fabric.run(router), Vec::new());
        }
        let recorder = micro::RepairRecorder::new(router);
        let report = fabric.run(&recorder);
        let mut calls = Vec::new();
        for (call, start, end) in recorder.into_log() {
            let name = match call {
                RepairCall::Event { .. } => "core.dynamic.repair_event",
                RepairCall::Publish => "core.dynamic.publish",
            };
            t.record(name, start, end);
            calls.push(call);
        }
        (report, calls)
    })
}

fn traced(
    options: &Options,
    params: &Params,
    gate: &mut Gate,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(true);
    // The traced pass: one set-up and one run, every layer call in a
    // span.
    let (fabric, report, log) = tracer.span("bench.pass", |t| {
        let fabric = set_up(params, options.seed, t)?;
        let (report, log) = run_traced(t, &fabric);
        Ok::<_, String>((fabric, report, log))
    })?;
    tally.judge(gate, &report);
    let pass = tracer.last("bench.pass").expect("the pass was traced");
    for (metric, span) in [
        ("layout.minimize_lenses_s", "layout.minimize_lenses"),
        ("layout.h_digraph_s", "layout.h_digraph"),
        ("layout.witness_s", "layout.witness"),
        ("core.router.table_build_s", "core.router.table_build"),
        ("core.router.relabel_build_s", "core.router.relabel_build"),
        ("core.dynamic.table_build_s", "core.dynamic.table_build"),
        ("optics.queueing.engine_new_s", "optics.queueing.engine_new"),
        (
            "optics.queueing.dynamics_compile_s",
            "optics.queueing.dynamics_compile",
        ),
        ("optics.workload.generate_s", "optics.workload.generate"),
    ] {
        values.set(metric, tracer.seconds(span));
    }
    for (layer, seconds) in tracer.self_seconds_by_layer(pass) {
        values.set(&format!("{layer}.self_s"), seconds);
    }
    let mut ttr = report.time_to_reroute_cycles.clone();
    ttr.sort_unstable();
    for (name, count) in [
        ("report.delivered_hops", report.delivered_hops),
        ("report.dateline_promotions", report.dateline_promotions),
        ("report.dateline_relief", report.dateline_relief),
        ("report.source_stall_cycles", report.source_stall_cycles),
        (
            "report.max_peak_occupancy",
            u64::from(report.max_peak_occupancy),
        ),
        ("report.replicated_copies", report.replicated_copies),
        ("report.snapshot_publications", report.snapshot_publications),
        (
            "report.snapshot_runs_published",
            report.snapshot_runs_published,
        ),
        ("report.repair_rows_patched", report.repair_rows_patched),
        ("report.stranded_reinjected", report.stranded_reinjected),
        (
            "report.ttr_p50_cycles",
            ttr.get(ttr.len() / 2).copied().unwrap_or(0),
        ),
    ] {
        values.set(name, count as f64);
    }

    // Untraced and traced runs, alternating, over the time window.
    let router = fabric.router.as_router();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    while untraced_s.len() < MIN_REPS || Instant::now() < deadline {
        let start = Instant::now();
        let plain = fabric.run(router);
        untraced_s.push(start.elapsed().as_secs_f64());
        tally.judge(gate, &plain);
        let start = Instant::now();
        let (with_spans, _) = run_traced(&mut tracer, &fabric);
        traced_s.push(start.elapsed().as_secs_f64());
        tally.judge(gate, &with_spans);
    }
    let (untraced_t, traced_t) = (Summary::of(&untraced_s), Summary::of(&traced_s));
    values.rate("bench.untraced_pkt_per_s", resolved(&report), untraced_t);
    values.rate("bench.traced_pkt_per_s", resolved(&report), traced_t);
    values.set(
        "bench.tracing_overhead_frac",
        1.0 - untraced_t.median / traced_t.median,
    );
    values.set(
        "optics.queueing.ns_per_cycle",
        untraced_t.median * 1e9 / report.cycles.max(1) as f64,
    );
    let ns_per_hop = untraced_t.median * 1e9 / report.delivered_hops.max(1) as f64;
    values.set("optics.queueing.ns_per_hop", ns_per_hop);

    tracer.span("bench.micro", |t| {
        micro_timings(t, &fabric, &report, &log, ns_per_hop, tally, values);
    });
    Ok(tracer)
}

/// The layer micro-timings of a traced run.
fn micro_timings(
    t: &mut Tracer,
    fabric: &Fabric,
    report: &QueueingReport,
    log: &[RepairCall],
    ns_per_hop: f64,
    tally: &mut Tally,
    values: &mut Values,
) {
    let router = fabric.router.as_router();
    let (d, dd) = (workload::DEGREE, fabric.params.diameter);
    let samples = t.span("bench.hop_samples", |_| {
        micro::hop_samples(router, &fabric.load)
    });
    let own = t.span("core.router.next_hop", |_| {
        micro::ns_per_query(&samples, |c, dst| router.next_hop(c, dst))
    });
    values.timing("core.router.next_hop_ns", own, "ns");
    if matches!(fabric.router, FabricRouter::Arithmetic(_)) {
        // An estimate: valid where every hop makes one fresh query.
        values.set(
            "optics.queueing.engine_self_ns_per_hop",
            ns_per_hop - own.median,
        );
    }

    // The arithmetic router on the same hops in rank space — on the
    // relabeled arithmetic fabric, its own inner router.
    let ranks: Vec<(u64, u64)> = samples
        .iter()
        .map(|&(c, dst)| {
            (
                u64::from(fabric.witness[c as usize]),
                u64::from(fabric.witness[dst as usize]),
            )
        })
        .collect();
    let standalone;
    let arithmetic = match &fabric.router {
        FabricRouter::Arithmetic(r) => r.inner(),
        _ => {
            standalone = DeBruijnRouter::new(DeBruijn::new(d, dd));
            &standalone
        }
    };
    let inner = t.span("core.router.debruijn_next_hop", |_| {
        micro::ns_per_query(&ranks, |c, dst| arithmetic.next_hop(c, dst))
    });
    values.timing("core.router.debruijn_next_hop_ns", inner, "ns");

    match &fabric.load {
        Load::Unicast(source) => {
            let chunk = t.span("optics.workload.fill_chunk", |_| {
                micro::fill_chunk_us(source)
            });
            values.timing("optics.workload.fill_chunk_us", chunk, "us");
        }
        Load::Groups(groups) => {
            let trees = t.span("core.routing.multicast_tree", |_| {
                micro::multicast_tree_us(router, groups)
            });
            values.timing("core.routing.multicast_tree_us", trees, "us");
        }
    }

    if let FabricRouter::Dynamic(dynamic) = &fabric.router {
        let snapshot = dynamic
            .as_repair()
            .and_then(|repair| repair.published_snapshot())
            .expect("a dynamic table publishes snapshots");
        let snap = t.span("core.dynamic.snapshot_next_hop", |_| {
            micro::ns_per_query(&samples, |c, dst| snapshot.next_hop(c, dst))
        });
        values.timing("core.dynamic.snapshot_next_hop_ns", snap, "ns");

        // Replay the run's own repair calls on a fresh table.
        let fresh = t.span("core.dynamic.table_build", |_| {
            RelabeledRouter::new(
                DynamicRoutingTable::new(&DeBruijn::new(d, dd).digraph()),
                fabric.witness.clone(),
            )
        });
        let replay = t.span("core.dynamic.replay", |_| micro::replay(&fresh, log));
        if replay.runs_patched != report.repair_runs_patched
            || replay.total.rows_patched as u64 != report.repair_rows_patched
            || replay.publications != report.snapshot_publications
            || replay.runs_published != report.snapshot_runs_published
        {
            tally.fail(
                report,
                "repair replay diverged from the run's own repairs".into(),
            );
        }
        let events = Summary::of(&replay.event_us);
        values.timing("core.dynamic.repair_event_p50_us", events, "us");
        values.set(
            "core.dynamic.repair_event_max_us",
            replay.event_us.iter().copied().fold(0.0, f64::max),
        );
        values.timing(
            "core.dynamic.publish_ms",
            Summary::of(&replay.publish_ms),
            "ms",
        );
        values.set(
            "digraph.repair.rows_recomputed",
            replay.total.rows_recomputed as f64,
        );
        values.set(
            "digraph.repair.rows_patched",
            replay.total.rows_patched as f64,
        );
        values.set(
            "digraph.repair.runs_patched",
            replay.total.runs_patched as f64,
        );
        values.set("core.dynamic.runs_published", replay.runs_published as f64);
        values.set(
            "core.dynamic.publish_useful_frac",
            replay.total.runs_patched as f64 / replay.runs_published.max(1) as f64,
        );
    }
}

/// Write the traced run's spans and self times as JSON.
fn write_trace(
    path: &std::path::Path,
    tracer: &Tracer,
    options: &Options,
    digest: Option<u64>,
) -> Result<(), String> {
    let pass = tracer.last("bench.pass").expect("the pass was traced");
    let self_times = |map: BTreeMap<&'static str, f64>| -> String {
        let rows: Vec<String> = map
            .iter()
            .map(|(name, s)| format!("\"{name}\": {s}"))
            .collect();
        format!("{{{}}}", rows.join(", "))
    };
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"report_fnv1a\": \"{}\",\n\
         \"self_s_by_span\": {},\n\"self_s_by_layer\": {},\n\"spans\": {}}}\n",
        options.workload.name(),
        options.seed,
        digest.map_or(String::new(), |d| format!("{d:016x}")),
        self_times(tracer.self_seconds_by_name(pass)),
        self_times(tracer.self_seconds_by_layer(pass)),
        tracer.spans_json()
    );
    std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// This process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
