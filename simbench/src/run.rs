//! One benchmark run: set-up, the timed unit loop, the checks, and the
//! metrics of the result line.
//!
//! The untraced run reports the end-to-end metrics, over as many passes
//! as the workload makes ([`Kind::passes`]). The traced run is a
//! separate run: it alternates each unit index between an untraced and a
//! traced execution (which goes first alternates too), checks that the two
//! outcomes are identical, and reports the per-layer metrics; none of its
//! numbers feed the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::measure::{median, peak_rss_bytes, percentile, ratio, rss_bytes, Digest};
use crate::trace::Tracer;
use crate::workloads::{Kind, SimCounts, Size, UnitOutcome, Workload, DIGEST_UNITS};

/// How often the unit loop replaces its workload instance with a fresh
/// set-up. Set-up samples then span the whole run, like the unit samples,
/// instead of one burst before it.
const SETUP_INTERVAL: Duration = Duration::from_secs(2);

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
    /// How long the unit loop runs.
    pub seconds: Duration,
    /// `true` for the traced run.
    pub trace: bool,
    /// Worker threads of the sharded engine.
    pub workers: usize,
    /// Instance size.
    pub size: Size,
}

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units whose outcome check failed.
    pub failed: u64,
    /// Metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Digest of the first [`DIGEST_UNITS`] units' simulated counts.
    pub digest: u64,
    /// Simulated counts summed over the first [`DIGEST_UNITS`] units.
    pub counts: SimCounts,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// `true` when every unit passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
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
}

/// A finite float as JSON (non-finite values, which no metric should
/// produce, print as `0`).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// The end-to-end metrics, printed by the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("unit_s_p50", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by the traced run. A workload that never
/// calls a layer reports `0` for that layer's metrics (for example the
/// `stream.*` set on `flood_epoch`).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("net.build_s", "s"),
    ("net.bytes_per_node", "B"),
    ("engine.build_ms", "ms"),
    ("engine.exec_bytes_per_node", "B"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.self_share", "ratio"),
    ("adversary.deliveries_calls_per_round", "1/round"),
    ("adversary.deliveries_ns_per_call", "ns"),
    ("adversary.delivered_per_call", "count"),
    ("adversary.cr4_calls_per_round", "1/round"),
    ("adversary.cr4_ns_per_call", "ns"),
    ("adversary.share_of_step", "ratio"),
    ("runner.build_us", "us"),
    ("stream.build_ms", "ms"),
    ("stream.step_us_p50", "us"),
    ("stream.step_us_p99", "us"),
    ("stream.swap_step_us_p50", "us"),
    ("sim.rounds", "count"),
    ("sim.sends", "count"),
    ("sim.physical_collisions", "count"),
    ("sim.informs_per_send", "ratio"),
    ("mac.acked", "count"),
    ("mac.mean_ack_latency", "rounds"),
    ("quorum.delivered", "count"),
    ("quorum.safety_violations", "count"),
    ("quorum.mean_accept_round", "round"),
    ("trace.overhead", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// Fills `names` in order from `value_of`.
fn metrics(names: &[(&'static str, &'static str)], value_of: impl Fn(&str) -> f64) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value_of(name),
            unit,
        })
        .collect()
}

/// The run's set-ups and their host times. The same seed always sets up
/// the same instance, so replacing the instance leaves every unit's
/// outcome unchanged.
#[derive(Debug)]
struct Setups {
    seconds: Vec<f64>,
    last: Instant,
}

impl Setups {
    /// Sets up the first instance.
    fn first(args: &RunArgs) -> (Setups, Workload) {
        let mut setups = Setups {
            seconds: Vec::new(),
            last: Instant::now(),
        };
        let workload = setups.build(args);
        (setups, workload)
    }

    fn build(&mut self, args: &RunArgs) -> Workload {
        let t = Instant::now();
        let workload = Workload::setup(args.kind, args.seed, args.size, args.workers);
        self.seconds.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        workload
    }

    /// Returns `workload`, or a fresh set-up in its place once
    /// [`SETUP_INTERVAL`] has passed since the last one. The old instance
    /// is dropped first, so two never coexist and peak RSS is unaffected.
    fn refresh(&mut self, args: &RunArgs, workload: Workload) -> Workload {
        if self.last.elapsed() < SETUP_INTERVAL {
            return workload;
        }
        drop(workload);
        self.build(args)
    }
}

/// Tracks failures, the digest prefix, and per-unit notes.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    digest: Digest,
    counts: SimCounts,
    notes: Vec<String>,
}

impl Checks {
    /// Accounts unit `index`; `extra` is a failure found by a comparison
    /// outside the unit itself.
    fn unit(&mut self, index: u64, outcome: &UnitOutcome, extra: Option<String>) {
        self.attempted += 1;
        if index < DIGEST_UNITS {
            outcome.counts.fold_into(&mut self.digest);
            self.counts.add(&outcome.counts);
        }
        self.check(index, outcome.failure.clone().or(extra));
    }

    /// Accounts a later pass over unit `index`, whose first pass produced
    /// `first`: the simulated counts must be the same.
    fn repeat(&mut self, index: u64, outcome: &UnitOutcome, first: &SimCounts) {
        self.attempted += 1;
        let differs = (outcome.counts != *first)
            .then(|| "simulated counts differ from the unit's first pass".to_string());
        self.check(index, outcome.failure.clone().or(differs));
    }

    fn check(&mut self, index: u64, failure: Option<String>) {
        if let Some(why) = failure {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(format!("unit {index} failed: {why}"));
            }
        }
    }
}

/// Compares unit 0 with the workload's independent reference. The
/// reference runs here, after unit 0 and outside its timing, so that the
/// first unit of a run starts in a heap no other executor has used
/// (`engine.exec_bytes_per_node` is measured on it).
fn reference_check(workload: &Workload, index: u64, outcome: &UnitOutcome) -> Option<String> {
    if index != 0 {
        return None;
    }
    match workload.reference(0) {
        Some(r) if r != outcome.full => {
            Some("differs from the sequential executor's outcome".into())
        }
        _ => None,
    }
}

/// Runs unit `index` untraced; returns its outcome and host seconds.
fn timed_unit(workload: &Workload, index: u64) -> (UnitOutcome, f64) {
    let t = Instant::now();
    let outcome = workload.unit(index);
    (outcome, t.elapsed().as_secs_f64())
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &RunArgs) -> Report {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> Report {
    let (mut setups, mut workload) = Setups::first(args);
    let mut checks = Checks::default();
    let passes = args.kind.passes();
    let mut first = Vec::new();
    let mut unit_s = Vec::new();
    let started = Instant::now();
    let mut index = 0;
    while index < DIGEST_UNITS || started.elapsed() < args.seconds / passes {
        workload = setups.refresh(args, workload);
        let (outcome, secs) = timed_unit(&workload, index);
        unit_s.push(secs);
        let extra = reference_check(&workload, index, &outcome);
        checks.unit(index, &outcome, extra);
        first.push(outcome.counts);
        index += 1;
    }
    // Later passes stop when the run's time is up, so a slow stretch
    // cannot lengthen the run; units a pass did not reach keep their best.
    'passes: for _ in 1..passes {
        for (index, counts) in (0..).zip(&first) {
            if started.elapsed() >= args.seconds {
                break 'passes;
            }
            workload = setups.refresh(args, workload);
            let (outcome, secs) = timed_unit(&workload, index);
            let best = &mut unit_s[index as usize];
            *best = best.min(secs);
            checks.repeat(index, &outcome, counts);
        }
    }
    let rounds_per_s: Vec<f64> = first
        .iter()
        .zip(&unit_s)
        .map(|(counts, secs)| counts.rounds as f64 / secs)
        .collect();
    let peak_mb = peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let mut notes = vec![
        format!("instance: {}", workload.describe()),
        format!(
            "samples: units={} passes={passes} executions={} setups={}",
            unit_s.len(),
            checks.attempted,
            setups.seconds.len()
        ),
    ];
    notes.append(&mut checks.notes);
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: metrics(&END_TO_END, |name| match name {
            "setup_s" => median(&setups.seconds),
            "unit_s_p50" => median(&unit_s),
            "rounds_per_s" => median(&rounds_per_s),
            "peak_rss_mb" => peak_mb,
            _ => unreachable!("every end-to-end metric is computed"),
        }),
        digest: checks.digest.value(),
        counts: checks.counts,
        notes,
    }
}

fn run_traced(args: &RunArgs) -> Report {
    // The first set-up runs in a fresh process, so its RSS growth is the
    // graph's (and schedule's) footprint.
    let rss_before = rss_bytes();
    let (mut setups, mut workload) = Setups::first(args);
    let n = workload.n();
    let net_bytes = rss_bytes().saturating_sub(rss_before) as f64 / n as f64;

    let mut tracer = Tracer::default();
    let mut checks = Checks::default();
    let mut untraced_s = Vec::new();
    let started = Instant::now();
    let mut index = 0;
    while index < DIGEST_UNITS || started.elapsed() < args.seconds {
        workload = setups.refresh(args, workload);
        let plain_first = index % 2 == 1;
        let early = plain_first.then(|| timed_unit(&workload, index));
        tracer.begin_unit(index);
        let traced = workload.traced_unit(index, &mut tracer);
        tracer.end_unit();
        let (plain, secs) = early.unwrap_or_else(|| timed_unit(&workload, index));
        untraced_s.push(secs);
        let extra = if plain.full != traced.full {
            Some("traced outcome differs from the untraced one".into())
        } else {
            reference_check(&workload, index, &traced)
        };
        checks.unit(index, &traced, extra);
        index += 1;
    }
    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("trace-out")
        .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    let mut notes = vec![
        format!("instance: {}", workload.describe()),
        format!(
            "samples: units={} steps={} swap_steps={}",
            checks.attempted,
            tracer.steps,
            tracer.swap_step_ns.len()
        ),
        format!(
            "span coverage: median {:.4}, min {:.4}",
            median(&tracer.coverage),
            tracer
                .coverage
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        ),
    ];
    match tracer.write_jsonl(&trace_path) {
        Ok(()) => notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            trace_path.display()
        )),
        Err(e) => notes.push(format!("spans: not written ({e})")),
    }
    notes.append(&mut checks.notes);

    let c = checks.counts;
    let step_share = |ns: u64| ratio(ns as f64, tracer.step_ns_total as f64);
    let adv = tracer.adversary;
    let exec_bytes = tracer
        .first_unit_bytes
        .map_or(0.0, |(bytes, n)| bytes as f64 / n as f64);
    let build_ns = median(&tracer.build_ns);
    let step_p50_us = median(&tracer.step_ns) / 1e3;
    let step_p99_us = percentile(&tracer.step_ns, 99.0) / 1e3;
    let is_stream = args.kind == Kind::QuorumStream;
    let engine = |v: f64| if is_stream { 0.0 } else { v };
    let stream = |v: f64| if is_stream { v } else { 0.0 };
    let value_of = |name: &str| match name {
        "net.build_s" => median(&setups.seconds),
        "net.bytes_per_node" => net_bytes,
        "engine.build_ms" => match args.kind {
            Kind::FloodEpoch => build_ns / 1e6,
            _ => 0.0,
        },
        "engine.exec_bytes_per_node" => exec_bytes,
        "engine.step_us_p50" => engine(step_p50_us),
        "engine.step_us_p99" => engine(step_p99_us),
        "engine.self_share" => engine(1.0 - step_share(adv.ns())),
        "adversary.deliveries_calls_per_round" => {
            ratio(adv.deliveries_calls as f64, tracer.steps as f64)
        }
        "adversary.deliveries_ns_per_call" => {
            ratio(adv.deliveries_ns as f64, adv.deliveries_calls as f64)
        }
        "adversary.delivered_per_call" => ratio(adv.delivered as f64, adv.deliveries_calls as f64),
        "adversary.cr4_calls_per_round" => ratio(adv.cr4_calls as f64, tracer.steps as f64),
        "adversary.cr4_ns_per_call" => ratio(adv.cr4_ns as f64, adv.cr4_calls as f64),
        "adversary.share_of_step" => step_share(adv.ns()),
        "runner.build_us" => match args.kind {
            Kind::HarmonicTrials => build_ns / 1e3,
            _ => 0.0,
        },
        "stream.build_ms" => stream(build_ns / 1e6),
        "stream.step_us_p50" => stream(step_p50_us),
        "stream.step_us_p99" => stream(step_p99_us),
        "stream.swap_step_us_p50" => stream(median(&tracer.swap_step_ns) / 1e3),
        "sim.rounds" => c.rounds as f64,
        "sim.sends" => c.sends as f64,
        "sim.physical_collisions" => c.physical_collisions as f64,
        "sim.informs_per_send" => engine(ratio(c.informs as f64, c.sends as f64)),
        "mac.acked" => c.acked as f64,
        "mac.mean_ack_latency" => ratio(c.ack_latency_sum, c.acked as f64),
        "quorum.delivered" => c.delivered as f64,
        "quorum.safety_violations" => c.safety_violations as f64,
        "quorum.mean_accept_round" => ratio(c.accept_round_sum as f64, c.delivered as f64),
        "trace.overhead" => ratio(median(&tracer.unit_ns) / 1e9, median(&untraced_s)),
        "trace.span_coverage" => median(&tracer.coverage),
        _ => unreachable!("every per-layer metric is computed"),
    };
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: metrics(&PER_LAYER, value_of),
        digest: checks.digest.value(),
        counts: c,
        notes,
    }
}
