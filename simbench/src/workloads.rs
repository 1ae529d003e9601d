//! The three workloads, built from the library crates' public API only.
//!
//! Every input derives from the benchmark's seed: the graph (or schedule)
//! from `derive_seed(seed, GRAPH_STREAM..)`, unit `i`'s adversary and
//! algorithm randomness from `derive_seed(seed, i)`. A unit's outcome
//! therefore depends only on (seed, unit index), never on how many units
//! the host had time for.

use std::rc::Rc;
use std::time::Instant;

use dualgraph_broadcast::algorithms::{period_for, BroadcastAlgorithm, Harmonic};
use dualgraph_broadcast::analysis::harmonic_number;
use dualgraph_broadcast::runner::{run_broadcast, RunConfig};
use dualgraph_broadcast::stream::{
    Arrivals, DynamicsConfig, SourcePlacement, StreamAlgorithm, StreamConfig, StreamOutcome,
    StreamSession,
};
use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    local_byzantine_bound, Adversary, BroadcastOutcome, BurstyDelivery, CollisionSeeker,
    DeliveryVerdict, Executor, ExecutorConfig, FaultPlan, Flooder, MacLayer, NodeRole, PayloadId,
    PayloadSet, QuorumPolicy, RandomDelivery, ReliabilityBackend, ShardedExecutor, WithRandomCr4,
};

use crate::adversary::{AdversaryCounters, TimedAdversary};
use crate::measure::Digest;
use crate::trace::Tracer;

/// Units whose simulated counts form the run's digest and the exact
/// `sim.*` / `mac.*` / `quorum.*` per-layer counts. Every run completes at
/// least this many units, so the digest is the same for a seed on any
/// host.
pub const DIGEST_UNITS: u64 = 3;

/// Seed stream of the graph (and schedule), disjoint from unit indices.
const GRAPH_STREAM: u64 = u64::MAX;

/// Round cap of one flooding epoch (an epoch takes 21–24 rounds).
const FLOOD_ROUND_CAP: u64 = 10_000;

/// Rounds in one stream unit: one pass over the 8 × 64-round churn cycle,
/// so every unit opens the same 8 epochs. Streams settle in 90–170 rounds
/// at this size; a fixed window keeps the unit's work independent of when
/// the seed's stream settles.
const STREAM_WINDOW: u64 = 512;

/// Rounds in one stream unit of the small test instance.
const STREAM_WINDOW_SMALL: u64 = 256;

/// The most Byzantine reliable in-neighbors the equivocator placement
/// gives any node in any epoch.
const STREAM_LOCAL_BOUND: u32 = 2;

/// Payloads in the quorum stream (`2k ≤ MAX_PAYLOADS`: the upper half of
/// the id space carries the quorum ready markers).
pub const STREAM_K: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One large flooding epoch on the sharded engine.
    FloodEpoch,
    /// Theorem 18/19 Harmonic trials against the adaptive adversary.
    HarmonicTrials,
    /// A fixed window of a quorum-certified 32-payload stream under churn
    /// and equivocation.
    QuorumStream,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::FloodEpoch, Kind::HarmonicTrials, Kind::QuorumStream];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FloodEpoch => "flood_epoch",
            Kind::HarmonicTrials => "harmonic_trials",
            Kind::QuorumStream => "quorum_stream",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Worker threads the workload runs on given `cores` usable cores:
    /// the flooding epoch shards over `min(2, cores)` workers, the other
    /// two run single-threaded. The plan never asks for more threads than
    /// there are cores.
    pub fn workers(self, cores: usize) -> usize {
        match self {
            Kind::FloodEpoch => cores.clamp(1, 2),
            Kind::HarmonicTrials | Kind::QuorumStream => 1,
        }
    }

    /// How many passes the untraced run makes over its units. Pass 0 runs
    /// new units for its share of the run; every later pass runs the same
    /// units again, and a unit's host time is its fastest pass.
    ///
    /// `harmonic_trials` makes ten. Its trials are cache-resident, and on
    /// a shared host each one runs in one of two speed regimes about 1.5×
    /// apart that switch every few seconds, so the median of single
    /// executions jumps with the share of the run spent in each. Passes
    /// spread each trial's executions over the run. The other workloads'
    /// units are memory-bound and steadier, and fewer distinct units would
    /// widen their spread, so they make one pass.
    pub fn passes(self) -> u32 {
        match self {
            Kind::HarmonicTrials => 10,
            Kind::FloodEpoch | Kind::QuorumStream => 1,
        }
    }
}

/// Instance size: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small instances of the same construction, for tests.
    Small,
}

/// Simulated counts of one unit: exact, seed-determined, host-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Rounds executed.
    pub rounds: u64,
    /// Transmissions.
    pub sends: u64,
    /// Node-rounds at which two or more messages physically arrived.
    pub physical_collisions: u64,
    /// Nodes newly informed of the broadcast payload (single-message
    /// workloads).
    pub informs: u64,
    /// MAC acknowledgments (stream workload).
    pub acked: u64,
    /// Sum of MAC bcast → ack latencies, in rounds.
    pub ack_latency_sum: f64,
    /// Payloads with a `Delivered` verdict (stream workload).
    pub delivered: u64,
    /// Correct nodes that certified a forged payload id.
    pub safety_violations: u64,
    /// Sum of the settle rounds of `Delivered` verdicts.
    pub accept_round_sum: u64,
}

impl SimCounts {
    /// Folds the counts into `digest`.
    pub fn fold_into(&self, digest: &mut Digest) {
        for word in [
            self.rounds,
            self.sends,
            self.physical_collisions,
            self.informs,
            self.acked,
            self.ack_latency_sum.to_bits(),
            self.delivered,
            self.safety_violations,
            self.accept_round_sum,
        ] {
            digest.push(word);
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounts) {
        self.rounds += other.rounds;
        self.sends += other.sends;
        self.physical_collisions += other.physical_collisions;
        self.informs += other.informs;
        self.acked += other.acked;
        self.ack_latency_sum += other.ack_latency_sum;
        self.delivered += other.delivered;
        self.safety_violations += other.safety_violations;
        self.accept_round_sum += other.accept_round_sum;
    }
}

/// The complete simulated outcome of a unit, for exact comparisons.
#[derive(Debug, Clone)]
pub enum FullOutcome {
    /// A single-message broadcast execution.
    Broadcast(BroadcastOutcome),
    /// A stream run (compared through its complete `Debug` rendering,
    /// since the report types carry no `PartialEq`).
    Stream(Box<StreamOutcome>),
}

impl PartialEq for FullOutcome {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FullOutcome::Broadcast(a), FullOutcome::Broadcast(b)) => a == b,
            (FullOutcome::Stream(a), FullOutcome::Stream(b)) => {
                format!("{a:?}") == format!("{b:?}")
            }
            _ => false,
        }
    }
}

/// What one unit produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Simulated rounds the unit executed.
    pub rounds: u64,
    /// Exact simulated counts.
    pub counts: SimCounts,
    /// Why the unit's outcome check failed (`None` = passed).
    pub failure: Option<String>,
    /// The complete outcome.
    pub full: FullOutcome,
}

/// A set-up workload: the per-seed inputs every unit runs on.
#[derive(Debug)]
pub enum Workload {
    /// See [`Kind::FloodEpoch`].
    Flood(FloodEpoch),
    /// See [`Kind::HarmonicTrials`].
    Harmonic(HarmonicTrials),
    /// See [`Kind::QuorumStream`].
    Quorum(QuorumStream),
}

impl Workload {
    /// One-time set-up: generates the graph (or schedule) from `seed`,
    /// freezing its CSRs, plus any per-run parameters.
    pub fn setup(kind: Kind, seed: u64, size: Size, workers: usize) -> Workload {
        match kind {
            Kind::FloodEpoch => Workload::Flood(FloodEpoch::setup(seed, size, workers)),
            Kind::HarmonicTrials => Workload::Harmonic(HarmonicTrials::setup(seed, size)),
            Kind::QuorumStream => Workload::Quorum(QuorumStream::setup(seed, size)),
        }
    }

    /// Node count.
    pub fn n(&self) -> usize {
        match self {
            Workload::Flood(w) => w.net.len(),
            Workload::Harmonic(w) => w.net.len(),
            Workload::Quorum(w) => w.schedule.node_count(),
        }
    }

    /// The generated reliable edge list (for the seed-discipline test).
    pub fn reliable_edges(&self) -> Vec<(NodeId, NodeId)> {
        let net = match self {
            Workload::Flood(w) => &w.net,
            Workload::Harmonic(w) => &w.net,
            Workload::Quorum(w) => w.schedule.epoch(0).network(),
        };
        net.reliable().edges().collect()
    }

    /// One-line description of the instance.
    pub fn describe(&self) -> String {
        match self {
            Workload::Flood(w) => format!(
                "n={} m_reliable={} workers={} shards={}",
                w.net.len(),
                w.net.reliable_csr().edge_count(),
                w.workers,
                dualgraph_net::ShardPlan::new(w.net.len(), w.workers).shards()
            ),
            Workload::Harmonic(w) => format!("n={} budget={}", w.net.len(), w.budget),
            Workload::Quorum(w) => format!(
                "n={} epochs={} equivocators={} f={} k={STREAM_K} window={}",
                w.schedule.node_count(),
                w.schedule.len(),
                w.equivocators,
                w.f,
                w.window
            ),
        }
    }

    /// Runs unit `index` untraced: construction, run, outcome check.
    pub fn unit(&self, index: u64) -> UnitOutcome {
        match self {
            Workload::Flood(w) => w.unit(index),
            Workload::Harmonic(w) => w.unit(index),
            Workload::Quorum(w) => w.unit(index),
        }
    }

    /// Runs unit `index` traced: the same construction and the same
    /// public step functions the untraced unit reaches through its
    /// library call, with the adversary wrapped in [`TimedAdversary`] and
    /// every build and step timed into `tracer`.
    pub fn traced_unit(&self, index: u64, tracer: &mut Tracer) -> UnitOutcome {
        match self {
            Workload::Flood(w) => w.traced_unit(index, tracer),
            Workload::Harmonic(w) => w.traced_unit(index, tracer),
            Workload::Quorum(w) => w.traced_unit(index, tracer),
        }
    }

    /// An independent reference outcome for unit `index`, if the workload
    /// has one: the flooding epoch re-run on the sequential `Executor`.
    pub fn reference(&self, index: u64) -> Option<FullOutcome> {
        match self {
            Workload::Flood(w) => Some(w.sequential(index).full),
            Workload::Harmonic(_) | Workload::Quorum(_) => None,
        }
    }
}

fn timed(inner: Box<dyn Adversary>, counters: &Rc<AdversaryCounters>) -> Box<dyn Adversary> {
    Box::new(TimedAdversary::new(inner, Rc::clone(counters)))
}

/// Checks a single-message broadcast and extracts its counts.
fn broadcast_unit(outcome: BroadcastOutcome, budget: u64) -> UnitOutcome {
    let failure = if !outcome.completed {
        Some(format!(
            "broadcast incomplete after {} rounds",
            outcome.rounds_executed
        ))
    } else if outcome.rounds_executed > budget {
        Some(format!(
            "broadcast used {} rounds, budget {budget}",
            outcome.rounds_executed
        ))
    } else {
        None
    };
    let informs = outcome
        .first_receive
        .iter()
        .filter(|r| matches!(r, Some(t) if *t > 0))
        .count() as u64;
    UnitOutcome {
        rounds: outcome.rounds_executed,
        counts: SimCounts {
            rounds: outcome.rounds_executed,
            sends: outcome.sends,
            physical_collisions: outcome.physical_collisions,
            informs,
            ..SimCounts::default()
        },
        failure,
        full: FullOutcome::Broadcast(outcome),
    }
}

/// `flood_epoch`: a `Flooder` epoch on a 2^17-node `scale_dual` graph
/// against `RandomDelivery(0.5)`, CR4 with asynchronous start, on the
/// sharded engine.
#[derive(Debug)]
pub struct FloodEpoch {
    net: DualGraph,
    workers: usize,
    seed: u64,
}

impl FloodEpoch {
    fn setup(seed: u64, size: Size, workers: usize) -> Self {
        let n = match size {
            Size::Full => 1 << 17,
            Size::Small => 1 << 10,
        };
        let net = generators::scale_dual(
            generators::ScaleDualParams {
                n,
                chords_per_node: 2,
                extras_per_node: 2,
            },
            derive_seed(seed, GRAPH_STREAM),
        );
        FloodEpoch { net, workers, seed }
    }

    fn adversary(&self, index: u64) -> Box<dyn Adversary> {
        Box::new(RandomDelivery::new(0.5, derive_seed(self.seed, index)))
    }

    fn executor(&self, adversary: Box<dyn Adversary>) -> Executor<'_> {
        Executor::from_slots(
            &self.net,
            Flooder::slots(self.net.len()),
            adversary,
            ExecutorConfig::default(),
        )
        .expect("flooders match the network's node count")
    }

    fn unit(&self, index: u64) -> UnitOutcome {
        let mut engine = ShardedExecutor::new(self.executor(self.adversary(index)), self.workers);
        broadcast_unit(engine.run_until_complete(FLOOD_ROUND_CAP), FLOOD_ROUND_CAP)
    }

    fn sequential(&self, index: u64) -> UnitOutcome {
        let mut engine = self.executor(self.adversary(index));
        broadcast_unit(engine.run_until_complete(FLOOD_ROUND_CAP), FLOOD_ROUND_CAP)
    }

    fn traced_unit(&self, index: u64, tracer: &mut Tracer) -> UnitOutcome {
        let counters = Rc::new(AdversaryCounters::default());
        let build = tracer.begin_build();
        let exec = self.executor(timed(self.adversary(index), &counters));
        let mut engine = ShardedExecutor::new(exec, self.workers);
        tracer.end_build(build);
        while !engine.is_complete() && engine.round() < FLOOD_ROUND_CAP {
            let start = Instant::now();
            engine.step();
            tracer.step(start, engine.round(), false, counters.take());
        }
        tracer.live(self.net.len());
        broadcast_unit(engine.outcome(), FLOOD_ROUND_CAP)
    }
}

/// `harmonic_trials`: the Theorem 19 cell — Harmonic Broadcast on
/// `layered_pairs(129)` against `CollisionSeeker`, CR4 with asynchronous
/// start, budget `2nT·H(n)`, one trial per unit.
#[derive(Debug)]
pub struct HarmonicTrials {
    net: DualGraph,
    budget: u64,
    seed: u64,
}

impl HarmonicTrials {
    fn setup(seed: u64, size: Size) -> Self {
        let n = match size {
            Size::Full => 129,
            Size::Small => 33,
        };
        let net = generators::layered_pairs(n);
        let period = period_for(n, 1.0 / n as f64);
        let budget = (2.0 * n as f64 * period as f64 * harmonic_number(n)).ceil() as u64;
        HarmonicTrials { net, budget, seed }
    }

    fn trial_seed(&self, index: u64) -> u64 {
        derive_seed(self.seed, index)
    }

    fn unit(&self, index: u64) -> UnitOutcome {
        let outcome = run_broadcast(
            &self.net,
            &Harmonic::new(),
            Box::new(CollisionSeeker::new()),
            RunConfig::default()
                .with_seed(self.trial_seed(index))
                .with_max_rounds(self.budget),
        )
        .expect("harmonic slots match the network's node count");
        broadcast_unit(outcome, self.budget)
    }

    /// The body of `run_broadcast` with the default `RunConfig` (CR4,
    /// asynchronous start, one shard), stepped one round at a time.
    fn traced_unit(&self, index: u64, tracer: &mut Tracer) -> UnitOutcome {
        let counters = Rc::new(AdversaryCounters::default());
        let build = tracer.begin_build();
        let slots = Harmonic::new().slots(self.net.len(), self.trial_seed(index));
        let mut exec = Executor::from_slots(
            &self.net,
            slots,
            timed(Box::new(CollisionSeeker::new()), &counters),
            ExecutorConfig::default(),
        )
        .expect("harmonic slots match the network's node count");
        tracer.end_build(build);
        while !exec.is_complete() && exec.round() < self.budget {
            let start = Instant::now();
            exec.step();
            tracer.step(start, exec.round(), false, counters.take());
        }
        tracer.live(self.net.len());
        broadcast_unit(exec.outcome(), self.budget)
    }
}

/// The equivocator cast: every 10th node from node 5, except a candidate
/// that would give some node more than [`STREAM_LOCAL_BOUND`] Byzantine
/// reliable in-neighbors in some epoch. The placement is then locally
/// bounded by construction, the sender-diverse regime in which quorum
/// agreement (every correct node accepting) is expected. Without the cap
/// the measured bound reaches 6 or 7 at this reliable degree, quorums
/// need 7 or 8 distinct senders, and on some seeds payloads stayed
/// pending through a 30 000-round horizon.
fn bounded_cast(schedule: &TopologySchedule, n: usize) -> Vec<u32> {
    let epochs = schedule.epochs();
    let mut byzantine_in = vec![0u32; epochs.len() * n];
    let mut cast = Vec::new();
    for candidate in (5..n as u32).step_by(10) {
        let out = |e: usize| {
            epochs[e]
                .network()
                .reliable()
                .out_neighbors(NodeId(candidate))
        };
        let fits = (0..epochs.len()).all(|e| {
            out(e)
                .iter()
                .all(|v| byzantine_in[e * n + v.index()] < STREAM_LOCAL_BOUND)
        });
        if fits {
            for e in 0..epochs.len() {
                for v in out(e) {
                    byzantine_in[e * n + v.index()] += 1;
                }
            }
            cast.push(candidate);
        }
    }
    cast
}

/// `quorum_stream`: a 32-payload batch stream with `PipelinedFlooding`
/// and the quorum backend, on a churned `er_dual(1025)` with the
/// equivocators of `bounded_cast`, against
/// `WithRandomCr4(BurstyDelivery(0.15, 0.4))`. A unit is a fixed window of
/// rounds of a fresh session, which must settle every payload within it.
#[derive(Debug)]
pub struct QuorumStream {
    schedule: TopologySchedule,
    faults: FaultPlan,
    equivocators: usize,
    f: u32,
    window: u64,
    seed: u64,
}

impl QuorumStream {
    fn setup(seed: u64, size: Size) -> Self {
        let (n, window) = match size {
            Size::Full => (1025, STREAM_WINDOW),
            Size::Small => (257, STREAM_WINDOW_SMALL),
        };
        let base = generators::er_dual(
            generators::ErDualParams {
                n,
                reliable_p: 12.0 / n as f64,
                unreliable_p: 24.0 / n as f64,
            },
            derive_seed(seed, GRAPH_STREAM),
        );
        let schedule = generators::churn_schedule(
            &base,
            generators::ChurnParams {
                epochs: 8,
                span: 64,
                rewire_fraction: 0.1,
            },
            derive_seed(seed, GRAPH_STREAM - 1),
        );
        // Each equivocator shows even-parity neighbors a live data id and
        // odd-parity neighbors that payload's ready marker, cycling the
        // attacked payload across the cast. Node 0, the source, is
        // trusted.
        let mut faults = FaultPlan::none();
        let mut roles = vec![NodeRole::Correct; n];
        let cast = bounded_cast(&schedule, n);
        for (c, &i) in cast.iter().enumerate() {
            let p = (c % STREAM_K) as u64;
            let even = PayloadSet::only(PayloadId(p));
            let odd = PayloadSet::only(PayloadId(STREAM_K as u64 + p));
            faults = faults.equivocate(NodeId(i), 1, even, odd);
            roles[i as usize] = NodeRole::Equivocator { even, odd };
        }
        // The quorum thresholds use the measured local bound: the most
        // equivocating reliable in-neighbors of any correct node, over
        // every epoch of the schedule.
        let f = schedule
            .epochs()
            .iter()
            .map(|e| local_byzantine_bound(e.network(), &roles))
            .max()
            .unwrap_or(0);
        QuorumStream {
            schedule,
            faults,
            equivocators: cast.len(),
            f,
            window,
            seed,
        }
    }

    fn adversary(&self, index: u64) -> Box<dyn Adversary> {
        let s = derive_seed(self.seed, index);
        Box::new(WithRandomCr4::new(
            BurstyDelivery::new(0.15, 0.4, s),
            derive_seed(s, 1),
        ))
    }

    fn session(&self, index: u64, adversary: Box<dyn Adversary>) -> StreamSession<'_> {
        let config = StreamConfig {
            k: STREAM_K,
            arrivals: Arrivals::Batch,
            sources: SourcePlacement::Single,
            max_rounds: self.window,
            seed: derive_seed(self.seed, index),
            dynamics: Some(DynamicsConfig {
                faults: self.faults.clone(),
                cycle: true,
            }),
            reliability: Some(ReliabilityBackend::Quorum(QuorumPolicy::for_bound(self.f))),
            ..StreamConfig::default()
        };
        StreamSession::scheduled(
            &self.schedule,
            StreamAlgorithm::PipelinedFlooding,
            adversary,
            &config,
        )
        .expect("stream slots match the schedule's node count")
    }

    /// Steps a fresh session through the window, settled or not; the
    /// final `run` call, with the window as its round cap, only assembles
    /// the outcome.
    fn unit(&self, index: u64) -> UnitOutcome {
        let mut session = self.session(index, self.adversary(index));
        for _ in 0..self.window {
            session.step();
        }
        let (outcome, mac) = session.run();
        Self::finish(outcome, &mac)
    }

    fn traced_unit(&self, index: u64, tracer: &mut Tracer) -> UnitOutcome {
        let counters = Rc::new(AdversaryCounters::default());
        let build = tracer.begin_build();
        let mut session = self.session(index, timed(self.adversary(index), &counters));
        tracer.end_build(build);
        for t in 1..=self.window {
            let swap = t > 1
                && self.schedule.epoch_index_cycling(t) != self.schedule.epoch_index_cycling(t - 1);
            let start = Instant::now();
            session.step();
            tracer.step(start, t, swap, counters.take());
        }
        tracer.live(self.schedule.node_count());
        let (outcome, mac) = session.run();
        Self::finish(outcome, &mac)
    }

    fn finish(outcome: StreamOutcome, mac: &MacLayer<'_>) -> UnitOutcome {
        let engine = mac.executor().outcome();
        let mut counts = SimCounts {
            rounds: outcome.rounds_executed,
            sends: engine.sends,
            physical_collisions: engine.physical_collisions,
            acked: outcome.mac.acked as u64,
            ack_latency_sum: outcome.mac.mean_ack_latency * outcome.mac.acked as f64,
            ..SimCounts::default()
        };
        let failure = match &outcome.reliability {
            None => Some("the quorum run carries no reliability report".to_string()),
            Some(report) => {
                counts.safety_violations = report.safety_violations;
                for e in &report.entries {
                    if let DeliveryVerdict::Delivered { round, .. } = e.verdict {
                        counts.delivered += 1;
                        counts.accept_round_sum += round;
                    }
                }
                if report.safety_violations != 0 {
                    Some(format!("{} safety violations", report.safety_violations))
                } else if counts.delivered != STREAM_K as u64 {
                    Some(format!(
                        "{}/{STREAM_K} delivered within the window",
                        counts.delivered
                    ))
                } else {
                    None
                }
            }
        };
        UnitOutcome {
            rounds: outcome.rounds_executed,
            counts,
            failure,
            full: FullOutcome::Stream(Box::new(outcome)),
        }
    }
}
