//! The benchmark's own checks: the timing decorator is outcome-transparent,
//! seeds fully determine the simulated outcome, and the metric names match
//! `BENCHMARK.json`.

use std::process::Command;
use std::time::Duration;

use simbench::run::{run, RunArgs, END_TO_END, PER_LAYER};
use simbench::trace::Tracer;
use simbench::workloads::{Kind, Size, Workload, DIGEST_UNITS};

fn small(kind: Kind, seed: u64) -> RunArgs {
    RunArgs {
        kind,
        seed,
        seconds: Duration::ZERO,
        trace: false,
        workers: kind.workers(2),
        size: Size::Small,
    }
}

#[test]
fn timed_adversary_leaves_every_outcome_unchanged() {
    for kind in Kind::ALL {
        let w = Workload::setup(kind, 7, Size::Small, kind.workers(2));
        let mut tracer = Tracer::default();
        for i in 0..2 {
            let plain = w.unit(i);
            tracer.begin_unit(i);
            let traced = w.traced_unit(i, &mut tracer);
            tracer.end_unit();
            assert!(
                plain.failure.is_none(),
                "{}: {:?}",
                kind.name(),
                plain.failure
            );
            assert_eq!(plain.counts, traced.counts, "{}", kind.name());
            assert!(plain.full == traced.full, "{} unit {i}", kind.name());
        }
        assert!(tracer.adversary.deliveries_calls > 0, "{}", kind.name());
        assert_eq!(tracer.build_ns.len(), 2);
        assert_eq!(tracer.steps as usize, tracer.step_ns.len());
    }
}

#[test]
fn thread_plans_never_exceed_the_cores() {
    for cores in 1..=64 {
        assert_eq!(Kind::FloodEpoch.workers(cores), cores.min(2));
        assert_eq!(Kind::HarmonicTrials.workers(cores), 1);
        assert_eq!(Kind::QuorumStream.workers(cores), 1);
    }
}

#[test]
fn flood_epoch_matches_the_sequential_executor() {
    let w = Workload::setup(Kind::FloodEpoch, 3, Size::Small, 2);
    let reference = w.reference(0).expect("flood_epoch has a reference");
    assert!(reference == w.unit(0).full);
}

#[test]
fn seeds_determine_graph_and_digest() {
    for kind in Kind::ALL {
        let a = run(&small(kind, 11));
        let b = run(&small(kind, 11));
        let c = run(&small(kind, 12));
        assert!(a.correct() && b.correct() && c.correct(), "{}", kind.name());
        assert_eq!(a.digest, b.digest, "{}: same seed", kind.name());
        assert_ne!(a.digest, c.digest, "{}: other seed", kind.name());
        let edges = |seed| Workload::setup(kind, seed, Size::Small, 1).reliable_edges();
        if kind == Kind::HarmonicTrials {
            // The Theorem 19 gadget is fixed; the seed drives the trials.
            assert_eq!(edges(11), edges(12));
        } else {
            assert_ne!(edges(11), edges(12), "{}: other seed", kind.name());
        }
    }
}

#[test]
fn later_passes_rerun_and_check_the_units() {
    let report = run(&RunArgs {
        seconds: Duration::from_secs(1),
        ..small(Kind::HarmonicTrials, 9)
    });
    assert!(report.correct(), "{:?}", report.notes);
    let units: u64 = report
        .notes
        .iter()
        .find_map(|n| {
            n.strip_prefix("samples: units=")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .expect("a samples note");
    assert!(units >= DIGEST_UNITS);
    assert!(report.attempted > units, "{} executions", report.attempted);
    assert!(report.attempted <= units * u64::from(Kind::HarmonicTrials.passes()));
    for kind in [Kind::FloodEpoch, Kind::QuorumStream] {
        assert_eq!(kind.passes(), 1);
        assert_eq!(run(&small(kind, 9)).attempted, DIGEST_UNITS);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for kind in Kind::ALL {
        let report = run(&RunArgs {
            trace: true,
            ..small(kind, 5)
        });
        assert!(report.correct(), "{}: {:?}", kind.name(), report.notes);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let coverage = report.metric("trace.span_coverage").expect("coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{}: {coverage}",
            kind.name()
        );
        assert!(report.metric("sim.rounds").expect("rounds") > 0.0);
    }
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads: Vec<&str> = spec
        .lines()
        .filter(|l| l.contains("\"why\":"))
        .filter_map(|l| l.split("\"name\": \"").nth(1)?.split('"').next())
        .collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
    for name in workloads {
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
    }
}

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn digest_line(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("digest:"))
        .expect("a digest line")
        .to_string()
}

#[test]
fn two_invocations_with_one_seed_print_one_digest() {
    let args = |seed| {
        [
            "--workload",
            "harmonic_trials",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
    };
    let (a, b, c) = (cli(&args("4")), cli(&args("4")), cli(&args("5")));
    for out in [&a, &b, &c] {
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true,"), "{last}");
    }
    assert_eq!(digest_line(&a), digest_line(&b));
    assert_ne!(digest_line(&a), digest_line(&c));
}

#[test]
fn malformed_command_lines_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "flood_epoch", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "flood_epoch",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "flood_epoch",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "flood_epoch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
