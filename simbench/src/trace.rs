//! Spans and per-layer aggregates of the traced run.
//!
//! Spans are `unit` → `build` / `step`, recorded from outside around the
//! calls into the library; all spans of a unit carry its index. Unit and
//! build spans are kept for every unit. Step spans — 12.5k per unit on
//! `harmonic_trials` — are kept in full for the first traced unit only;
//! every later step contributes its duration and adversary counters to the
//! aggregates, so memory stays bounded by the step count, not by spans.
//! Nothing is written until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::adversary::AdversaryTally;
use crate::measure::rss_bytes;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the unit the span belongs to.
    pub unit: u64,
    /// `unit`, `build` or `step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulated round a step executed (`0` for other spans).
    pub round: u64,
    /// `true` for a step that opened a churn epoch.
    pub epoch_swap: bool,
    /// Adversary activity inside a step (zero for other spans).
    pub adversary: AdversaryTally,
}

/// In-memory recorder of the traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    unit: u64,
    unit_start: Instant,
    first_unit: Option<u64>,
    covered_ns: u64,
    rss_at_build: Option<u64>,
    /// Per traced step: host nanoseconds.
    pub step_ns: Vec<f64>,
    /// Per traced step that opened a churn epoch: host nanoseconds.
    pub swap_step_ns: Vec<f64>,
    /// Per traced unit: build nanoseconds.
    pub build_ns: Vec<f64>,
    /// Per traced unit: host nanoseconds.
    pub unit_ns: Vec<f64>,
    /// Per traced unit: share of unit time inside build and step spans.
    pub coverage: Vec<f64>,
    /// Steps traced.
    pub steps: u64,
    /// Host nanoseconds over all traced steps.
    pub step_ns_total: u64,
    /// Adversary activity over all traced steps.
    pub adversary: AdversaryTally,
    /// RSS growth from the first unit's build to its end (executor or
    /// session alive), with the unit's node count.
    pub first_unit_bytes: Option<(u64, usize)>,
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Default for Tracer {
    fn default() -> Self {
        let now = Instant::now();
        Tracer {
            origin: now,
            spans: Vec::new(),
            unit: 0,
            unit_start: now,
            first_unit: None,
            covered_ns: 0,
            rss_at_build: None,
            step_ns: Vec::new(),
            swap_step_ns: Vec::new(),
            build_ns: Vec::new(),
            unit_ns: Vec::new(),
            coverage: Vec::new(),
            steps: 0,
            step_ns_total: 0,
            adversary: AdversaryTally::default(),
            first_unit_bytes: None,
        }
    }
}

impl Tracer {
    fn is_first_unit(&self) -> bool {
        self.first_unit == Some(self.unit)
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the `unit` span of unit `index`.
    pub fn begin_unit(&mut self, index: u64) {
        self.unit = index;
        self.first_unit.get_or_insert(index);
        self.covered_ns = 0;
        self.unit_start = Instant::now();
    }

    /// Closes the current `unit` span.
    pub fn end_unit(&mut self) {
        let dur = ns_since(self.unit_start);
        self.unit_ns.push(dur as f64);
        self.coverage
            .push(self.covered_ns as f64 / dur.max(1) as f64);
        self.push(
            self.unit_start,
            "unit",
            dur,
            0,
            false,
            AdversaryTally::default(),
        );
    }

    /// Opens the `build` span; on the first unit, also samples RSS.
    pub fn begin_build(&mut self) -> Instant {
        if self.is_first_unit() {
            self.rss_at_build = Some(rss_bytes());
        }
        Instant::now()
    }

    /// Closes the `build` span opened at `start`.
    pub fn end_build(&mut self, start: Instant) {
        let dur = ns_since(start);
        self.build_ns.push(dur as f64);
        self.covered_ns += dur;
        self.push(start, "build", dur, 0, false, AdversaryTally::default());
    }

    /// Records a `step` span that began at `start` and executed `round`,
    /// with the adversary activity inside it.
    pub fn step(&mut self, start: Instant, round: u64, epoch_swap: bool, adv: AdversaryTally) {
        let dur = ns_since(start);
        self.step_ns.push(dur as f64);
        if epoch_swap {
            self.swap_step_ns.push(dur as f64);
        }
        self.steps += 1;
        self.step_ns_total += dur;
        self.covered_ns += dur;
        self.adversary.add(adv);
        if self.is_first_unit() {
            self.push(start, "step", dur, round, epoch_swap, adv);
        }
    }

    /// Marks the end of the unit's run while its executor (or session) is
    /// still alive: on the first unit, records the RSS growth since its
    /// build began, for `n` nodes.
    pub fn live(&mut self, n: usize) {
        if let (true, Some(before)) = (self.is_first_unit(), self.rss_at_build) {
            self.first_unit_bytes = Some((rss_bytes().saturating_sub(before), n));
        }
    }

    fn push(
        &mut self,
        start: Instant,
        name: &'static str,
        dur_ns: u64,
        round: u64,
        epoch_swap: bool,
        adversary: AdversaryTally,
    ) {
        self.spans.push(Span {
            unit: self.unit,
            name,
            start_ns: self.offset(start),
            dur_ns,
            round,
            epoch_swap,
            adversary,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == "unit" { "null" } else { "\"unit\"" };
            writeln!(
                out,
                "{{\"unit\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\
                 \"round\":{},\"epoch_swap\":{},\"adv_calls\":{},\"adv_ns\":{},\"adv_targets\":{},\
                 \"cr4_calls\":{},\"cr4_ns\":{}}}",
                s.unit,
                s.name,
                s.start_ns,
                s.dur_ns,
                s.round,
                s.epoch_swap,
                s.adversary.deliveries_calls,
                s.adversary.deliveries_ns,
                s.adversary.delivered,
                s.adversary.cr4_calls,
                s.adversary.cr4_ns,
            )?;
        }
        out.flush()
    }
}
