//! Tiny-size smoke runs of every workload in both modes, the metric
//! catalog against BENCHMARK.json, and the correctness gate's
//! tripwires.

use otis_perfbench::gate::{check_laws, Gate};
use otis_perfbench::trace::Tracer;
use otis_perfbench::workload::{set_up, Params, Scale, WorkloadId};
use otis_perfbench::{run, Options, Tally, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// A fresh output directory per test.
fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(workload: WorkloadId, seed: u64, trace: bool, out_dir: PathBuf) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir,
    }
}

/// The benchmark contract's name rule.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_every_metric_in_both_modes() {
    let dir = out_dir("smoke");
    for workload in WorkloadId::ALL {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, 3, trace, dir.clone())).expect("tiny run");
            let label = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct(), "{label}: {:?}", outcome.errors);
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{label}");
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.def.name).collect();
            let wanted: Vec<&str> = catalog.iter().map(|def| def.name).collect();
            assert_eq!(emitted, wanted, "{label}");
            let line = outcome.json_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for m in &outcome.metrics {
                assert!(valid_name(m.def.name), "{label}: bad name {}", m.def.name);
                assert!(
                    !m.def.unit.is_empty(),
                    "{label}: {} has no unit",
                    m.def.name
                );
                assert!(m.value.is_finite(), "{label}: {} = {}", m.def.name, m.value);
                assert!(!trace || m.value >= 0.0 || m.def.name == "bench.tracing_overhead_frac");
                assert!(
                    trace || m.value > 0.0,
                    "{label}: end-to-end {} is 0",
                    m.def.name
                );
                let entry = format!("\"{}\": {{\"value\": ", m.def.name);
                assert!(
                    line.contains(&entry),
                    "{label}: {} missing from {line}",
                    m.def.name
                );
            }
            if trace {
                let path = outcome.trace_file.expect("traced runs write spans");
                let spans = std::fs::read_to_string(path).expect("trace file");
                assert!(spans.contains("\"name\": \"optics.queueing.run\""));
            }
        }
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let spec = include_str!("../../BENCHMARK.json");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let row = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
        assert!(spec.contains(&row), "BENCHMARK.json lacks {row}");
    }
    for workload in WorkloadId::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    assert_eq!(
        spec.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + WorkloadId::ALL.len(),
        "BENCHMARK.json names something the benchmark does not emit"
    );
}

#[test]
fn gate_trips_on_corrupted_reports() {
    let params = Params::of(WorkloadId::DynamicsHotspot, Scale::Tiny);
    let fabric = set_up(&params, 5, &mut Tracer::new(false)).expect("set-up");
    let report = fabric.run(fabric.router.as_router());
    assert!(report.link_down_events > 0, "the tiny timeline fires");
    let mut gate = Gate::new();
    gate.check(&report).expect("a clean report passes");
    gate.check(&report).expect("and passes again");

    let mut lost = report.clone();
    lost.delivered -= 1;
    assert!(
        check_laws(&lost).is_err(),
        "a lost packet breaks conservation"
    );
    assert!(gate.check(&lost).is_err());

    let mut miscounted = report.clone();
    miscounted.reroute_no_demand += 1;
    assert!(
        check_laws(&miscounted).is_err(),
        "a dynamics counter broke its law"
    );

    let mut drifted = report.clone();
    drifted.wait_p99_cycles += 1;
    assert!(check_laws(&drifted).is_ok(), "drift keeps every law");
    assert!(gate.check(&drifted).is_err(), "but not byte-identity");
    gate.check(&report).expect("the true report still matches");
}

#[test]
fn a_failing_gate_fails_every_packet_of_the_run() {
    let params = Params::of(WorkloadId::Multicast, Scale::Tiny);
    let fabric = set_up(&params, 9, &mut Tracer::new(false)).expect("set-up");
    let report = fabric.run(fabric.router.as_router());
    let mut drifted = report.clone();
    drifted.wait_p99_cycles += 1;
    let mut gate = Gate::new();
    let mut tally = Tally::default();
    tally.judge(&mut gate, &report);
    assert_eq!((tally.attempted, tally.failed), (report.injected as u64, 0));
    tally.judge(&mut gate, &drifted);
    assert_eq!(tally.failed, drifted.injected as u64);
    assert_eq!(tally.attempted, 2 * report.injected as u64);
    assert_eq!(tally.errors.len(), 1);
}
