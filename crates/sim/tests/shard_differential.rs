//! Shard differential suite: the round pipeline checked across shard
//! counts.
//!
//! Every round runs through one pipeline, `Executor::step_traced`, over
//! the executor's shard plan ([`ShardedExecutor::new`] sets it). The shard
//! count picks where a receiver's reaching set comes from: one shard
//! *scatters* it from the senders' rows, several shards *gather* it from
//! the transposed CSRs, with the informed/known bookkeeping split into
//! word-aligned bitset windows. So the correctness contract is
//! *bit-identity* across worker counts, not statistical agreement. This
//! suite pins that contract across every axis that could plausibly break
//! it:
//!
//! 1. **engine agreement** — worker counts 1, 2, and 7, the plain
//!    executor, and the naive [`ReferenceExecutor`] oracle agree on every
//!    round summary, known-payload record, and outcome, across random
//!    topologies × the adversary menu × CR1–CR4 × both start rules.
//!    Worker count 1 is the plain executor's own one-shard plan: the
//!    scatter source. The menu covers both gather extras sources:
//!    oblivious adversaries (and the wrappers that forward their
//!    [`EdgeOracle`][dualgraph_sim::EdgeOracle]) are evaluated inside the
//!    shards, the stateful and adaptive ones on the coordinator. A
//!    directed topology makes the `G′ ∖ G` in-rows a stored transpose
//!    rather than the out-CSR itself.
//! 2. **fault and Byzantine plans** — crash/recovery, jammers,
//!    equivocators, and forgers ride churn schedules while the engines
//!    run side by side: every resolve path must preserve the
//!    faulty-radio gate (no collision counted, no CR4 draw) and the
//!    per-receiver Byzantine content path.
//! 3. **trace streams** — `step_traced` emits the identical event
//!    sequence (`RoundStart`, `Transmit` ascending, then
//!    `Reception`/`Collision` ascending) from the coordinator, even
//!    though the sharded sweeps themselves never see a sink.
//! 4. **sparse senders** — the flooding populations above turn dense
//!    within a few rounds; a uniform-probability population transmitting
//!    with probability 1/16 keeps most receivers hearing zero or one
//!    sender, the regime where scatter and gather do the most different
//!    work.
//!
//! Populations are chosen above one shard chunk (64 nodes) so the worker
//! counts genuinely shard; `plan().shards()` is asserted to keep the
//! suite honest if the alignment policy ever changes.

use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::automata::UniformProcess;
use dualgraph_sim::rng::{derive_seed, splitmix64};
use dualgraph_sim::{
    Adversary, BurstyDelivery, CollisionRule, CollisionSeeker, DynamicExecutor, DynamicsCursor,
    Executor, ExecutorConfig, FaultPlan, Flooder, FullDelivery, PayloadId, PayloadSet, ProcessId,
    ProcessSlot, RandomDelivery, ReferenceExecutor, ReliableOnly, RoundSummary, ShardedExecutor,
    StartRule, TraceEvent, TraceLevel, TraceSink, WithAssignment, WithRandomCr4,
};

/// Worker counts under test: the one-shard (scatter) plan, an even split,
/// and an uneven count that leaves the last shard short.
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// The adversary menu; every engine under comparison gets its own
/// identically-seeded instance. `random-per-edge` and `bursty` (stateful
/// streams) and `collision-seeker` (adaptive) are the coordinator-path
/// controls; the rest resolve through the shard-side oracle.
#[allow(clippy::type_complexity)]
fn adversary_menu(seed: u64, n: usize) -> Vec<(&'static str, Box<dyn Fn() -> Box<dyn Adversary>>)> {
    vec![
        ("reliable-only", Box::new(|| Box::new(ReliableOnly::new()))),
        ("full-delivery", Box::new(|| Box::new(FullDelivery::new()))),
        (
            "random(0.5)",
            Box::new(move || Box::new(RandomDelivery::new(0.5, seed))),
        ),
        (
            "random-cr4(random(0.5))",
            Box::new(move || {
                Box::new(WithRandomCr4::new(
                    RandomDelivery::new(0.5, seed),
                    derive_seed(seed, 1),
                ))
            }),
        ),
        (
            "assigned(random(0.5))",
            Box::new(move || {
                Box::new(WithAssignment::new(
                    RandomDelivery::new(0.5, seed),
                    // Processes placed in reverse node order.
                    (0..n as u32).rev().map(ProcessId).collect(),
                ))
            }),
        ),
        (
            "random-per-edge(0.5)",
            Box::new(move || Box::new(RandomDelivery::per_edge(0.5, seed))),
        ),
        (
            "bursty",
            Box::new(move || Box::new(BurstyDelivery::new(0.3, 0.3, seed))),
        ),
        (
            "collision-seeker",
            Box::new(|| Box::new(CollisionSeeker::new())),
        ),
    ]
}

/// Big enough that workers 2 and 7 both produce multiple 64-aligned
/// shards, sparse enough that the round loop exercises the list path
/// (not just the dense fast path).
fn random_net(seed: u64, n: usize) -> DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 0.03,
            unreliable_p: 0.08,
        },
        seed,
    )
}

/// A directed topology: [`random_net`]'s reliable graph plus up to three
/// one-way gray edges per node, so `G′ ∖ G` is asymmetric and its
/// transpose is stored separately.
fn directed_net(seed: u64, n: usize) -> DualGraph {
    let g = random_net(seed, n).reliable().clone();
    let mut total = g.clone();
    let mut h = seed;
    for u in 0..n {
        for _ in 0..3 {
            h = splitmix64(h);
            let (u, v) = (
                NodeId::from_index(u),
                NodeId::from_index((h % n as u64) as usize),
            );
            if u != v && !g.has_edge(u, v) {
                total.add_edge(u, v);
            }
        }
    }
    let net = DualGraph::new(g, total, NodeId(0)).unwrap();
    assert!(
        !std::ptr::eq(net.unreliable_only_in_csr(), net.unreliable_only_csr()),
        "the directed topology must store its own transpose"
    );
    net
}

fn configs() -> Vec<ExecutorConfig> {
    let mut out = Vec::new();
    for rule in CollisionRule::ALL {
        for start in [StartRule::Synchronous, StartRule::Asynchronous] {
            out.push(ExecutorConfig {
                rule,
                start,
                trace: TraceLevel::Off,
                payload: PayloadId(0),
            });
        }
    }
    out
}

fn churn3(net: &DualGraph, seed: u64) -> TopologySchedule {
    generators::churn_schedule(
        net,
        generators::ChurnParams {
            epochs: 3,
            span: 4,
            rewire_fraction: 0.5,
        },
        seed,
    )
}

/// Crash/recovery, a jammer, an equivocator (who recovers — the
/// Byzantine gate must drop back), and a forger, spread over the node
/// space so different shards own different roles.
fn fault_plan(n: usize, seed: u64) -> FaultPlan {
    let pick = |k: u64| NodeId(1 + ((seed / (k * 3 + 1) + k * 17) % (n as u64 - 1)) as u32);
    FaultPlan::none()
        .crash(pick(0), 2)
        .recover(pick(0), 9)
        .jam(pick(1), 3)
        .equivocate(
            pick(2),
            2,
            PayloadSet::only(PayloadId(4)),
            PayloadSet::only(PayloadId(5)),
        )
        .recover(pick(2), 11)
        .forge(pick(3), 4, PayloadSet::only(PayloadId(9)))
}

/// Drives a [`ShardedExecutor`] through schedule + fault plan with the
/// same [`DynamicsCursor`] the sequential [`DynamicExecutor`] uses
/// (role flips and epoch swaps reach the inner engine through `Deref`).
struct ShardedDynamic<'a> {
    exec: ShardedExecutor<'a>,
    cursor: DynamicsCursor<'a>,
}

impl<'a> ShardedDynamic<'a> {
    fn new(
        schedule: &'a TopologySchedule,
        slots: Vec<dualgraph_sim::ProcessSlot>,
        adversary: Box<dyn Adversary>,
        config: ExecutorConfig,
        workers: usize,
        plan: FaultPlan,
    ) -> Self {
        let exec =
            Executor::from_slots(schedule.epoch(0).network(), slots, adversary, config).unwrap();
        let mut exec = ShardedExecutor::new(exec, workers);
        let mut cursor = DynamicsCursor::new(Some(schedule), plan, false);
        let (swap, fired) = cursor.advance(0);
        assert!(swap.is_none(), "round 0 is always epoch 0");
        for i in fired {
            let e = cursor.events()[i];
            exec.set_role(e.node, e.role);
        }
        ShardedDynamic { exec, cursor }
    }

    fn step(&mut self) -> RoundSummary {
        let t = self.exec.round() + 1;
        let (swap, fired) = self.cursor.advance(t);
        if let Some(net) = swap {
            self.exec.set_network(net);
        }
        for i in fired {
            let e = self.cursor.events()[i];
            self.exec.set_role(e.node, e.role);
        }
        self.exec.step()
    }
}

/// Property 1: sharded (workers 1, 2, 7), sequential, and reference
/// engines agree round for round across topologies (undirected and
/// directed) × the menu × CR1–CR4 × both start rules — fault-free, so
/// this isolates the core sweep refactor.
#[test]
fn sharded_sequential_and_reference_agree() {
    let nets = [
        ("er", 19u64, random_net(19, 150)),
        ("er", 43, random_net(43, 200)),
        ("directed", 71, directed_net(71, 150)),
    ];
    for (kind, net_seed, net) in &nets {
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(137, *net_seed), n) {
                let label = format!("{kind} n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut sequential =
                    Executor::from_slots(net, Flooder::slots(n), make_adv(), config).unwrap();
                let mut reference =
                    ReferenceExecutor::new(net, Flooder::boxed(n), make_adv(), config).unwrap();
                let mut sharded: Vec<ShardedExecutor<'_>> = WORKER_COUNTS
                    .iter()
                    .map(|&w| {
                        let exec = Executor::from_slots(net, Flooder::slots(n), make_adv(), config)
                            .unwrap();
                        ShardedExecutor::new(exec, w)
                    })
                    .collect();
                assert_eq!(sharded[0].plan().shards(), 1, "workers=1 must not shard");
                assert!(sharded[1].plan().shards() > 1, "workers=2 must shard");
                assert!(
                    sharded[2].plan().shards() > sharded[1].plan().shards(),
                    "workers=7 must shard finer than workers=2"
                );
                for round in 0..25 {
                    let ss = sequential.step();
                    let sr = reference.step();
                    assert_eq!(ss, sr, "{label}: sequential vs reference, round {round}");
                    for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter_mut()) {
                        let sh = shard.step();
                        assert_eq!(ss, sh, "{label}: sequential vs workers={w}, round {round}");
                    }
                }
                for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter()) {
                    assert_eq!(
                        sequential.known_payloads(),
                        shard.known_payloads(),
                        "{label}: known records, workers={w}"
                    );
                    assert_eq!(
                        sequential.outcome(),
                        shard.outcome(),
                        "{label}: outcome, workers={w}"
                    );
                }
                assert_eq!(
                    sequential.known_payloads(),
                    reference.known_payloads(),
                    "{label}: known records vs reference"
                );
            }
        }
    }
}

/// Property 2: fault and Byzantine plans riding churn schedules — the
/// sharded resolve preserves the faulty-radio gate and the per-receiver
/// Byzantine content path, across worker counts and epoch swaps.
#[test]
fn sharded_engines_agree_under_faults_and_churn() {
    for net_seed in [29u64, 89] {
        let n = 150;
        let net = random_net(net_seed, n);
        let schedule = churn3(&net, derive_seed(9, net_seed));
        let plan = fault_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(141, net_seed), n) {
                let label = format!("faulty {name} {:?} {:?}", config.rule, config.start);
                let mut sequential = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut sharded: Vec<ShardedDynamic<'_>> = WORKER_COUNTS
                    .iter()
                    .map(|&w| {
                        ShardedDynamic::new(
                            &schedule,
                            Flooder::slots(n),
                            make_adv(),
                            config,
                            w,
                            plan.clone(),
                        )
                    })
                    .collect();
                for round in 0..30 {
                    let ss = sequential.step();
                    for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter_mut()) {
                        let sh = shard.step();
                        assert_eq!(ss, sh, "{label}: workers={w}, round {round}");
                    }
                }
                for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter()) {
                    assert_eq!(
                        sequential.executor().known_payloads(),
                        shard.exec.known_payloads(),
                        "{label}: known records, workers={w}"
                    );
                    assert_eq!(
                        sequential.executor().roles(),
                        shard.exec.roles(),
                        "{label}: final role masks, workers={w}"
                    );
                }
            }
        }
    }
}

/// A sink that records every event, for stream-equality checks.
#[derive(Default)]
struct VecSink(Vec<TraceEvent>);

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        self.0.push(event);
    }
}

/// Property 3: the coordinator-side trace emission reproduces the
/// sequential event stream exactly — same events, same order — for
/// every worker count, with the round ledger (`TraceLevel::Full`)
/// agreeing as well.
#[test]
fn sharded_trace_streams_are_identical() {
    let n = 150;
    let net = random_net(61, n);
    for rule in CollisionRule::ALL {
        let config = ExecutorConfig {
            rule,
            start: StartRule::Synchronous,
            trace: TraceLevel::Full,
            payload: PayloadId(0),
        };
        let make_adv = || Box::new(RandomDelivery::new(0.4, 17)) as Box<dyn Adversary>;
        let mut sequential =
            Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
        let mut seq_sink = VecSink::default();
        for _ in 0..20 {
            sequential.step_traced(&mut seq_sink);
        }
        for workers in WORKER_COUNTS {
            let exec = Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
            let mut sharded = ShardedExecutor::new(exec, workers);
            let mut sink = VecSink::default();
            for _ in 0..20 {
                sharded.step_traced(&mut sink);
            }
            assert_eq!(
                seq_sink.0.len(),
                sink.0.len(),
                "{rule:?} workers={workers}: event counts"
            );
            for (i, (a, b)) in seq_sink.0.iter().zip(&sink.0).enumerate() {
                assert_eq!(a, b, "{rule:?} workers={workers}: event {i}");
            }
            assert_eq!(
                sequential.trace().records(),
                sharded.trace().records(),
                "{rule:?} workers={workers}: round ledger"
            );
        }
    }
}

/// Switching the shard plan mid-run — and with it the reaching-set
/// source, scatter on one shard, gather on two — stays bit-identical to a
/// plain run: the sender-index map and scratch must survive rounds the
/// other plan executed.
#[test]
fn interleaved_sequential_and_sharded_steps_agree() {
    let n = 150;
    let net = random_net(83, n);
    let config = ExecutorConfig {
        rule: CollisionRule::Cr4,
        start: StartRule::Synchronous,
        trace: TraceLevel::Off,
        payload: PayloadId(0),
    };
    let make_adv = || Box::new(RandomDelivery::new(0.4, 23)) as Box<dyn Adversary>;
    let mut sequential = Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
    let mut mixed = Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
    for round in 0..24 {
        let ss = sequential.step();
        // Alternate: even rounds on two shards, odd rounds on one.
        let sm = if round % 2 == 0 {
            let mut sharded = ShardedExecutor::new(mixed, 2);
            assert_eq!(sharded.plan().shards(), 2);
            let summary = sharded.step();
            mixed = sharded.into_inner();
            summary
        } else {
            mixed.step()
        };
        assert_eq!(ss, sm, "round {round}");
    }
    assert_eq!(sequential.known_payloads(), mixed.known_payloads());
    assert_eq!(sequential.outcome(), mixed.outcome());
}

/// A uniform-probability population: every informed node transmits with
/// probability `p` per round.
fn uniform_slots(n: usize, p: f64, seed: u64) -> Vec<ProcessSlot> {
    (0..n)
        .map(|i| {
            ProcessSlot::Uniform(UniformProcess::new(
                ProcessId::from_index(i),
                p,
                derive_seed(seed, i as u64),
            ))
        })
        .collect()
}

/// Property 4: sparse senders. Worker counts 1, 2, and 7 agree with the
/// reference oracle round for round on a population transmitting with
/// probability 1/16, across topologies × the menu × CR1–CR4 × both start
/// rules. Most receivers hear zero or one sender each round, so the
/// scatter arena and the gather walk disagree on which nodes they touch
/// but must agree on every reception.
#[test]
fn sparse_senders_agree_with_reference() {
    const P: f64 = 1.0 / 16.0;
    const ROUNDS: usize = 60;
    let nets = [
        ("er", 23u64, random_net(23, 200)),
        ("directed", 47, directed_net(47, 150)),
    ];
    for (kind, net_seed, net) in &nets {
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(151, *net_seed), n) {
                let label = format!(
                    "sparse {kind} n={n} {name} {:?} {:?}",
                    config.rule, config.start
                );
                let slots = || uniform_slots(n, P, derive_seed(7, *net_seed));
                let boxed = slots().into_iter().map(ProcessSlot::into_boxed).collect();
                let mut reference = ReferenceExecutor::new(net, boxed, make_adv(), config).unwrap();
                let mut sharded: Vec<ShardedExecutor<'_>> = WORKER_COUNTS
                    .iter()
                    .map(|&w| {
                        let exec = Executor::from_slots(net, slots(), make_adv(), config).unwrap();
                        ShardedExecutor::new(exec, w)
                    })
                    .collect();
                assert_eq!(sharded[0].plan().shards(), 1, "workers=1 must not shard");
                assert!(sharded[1].plan().shards() > 1, "workers=2 must shard");
                let mut senders = 0;
                for round in 0..ROUNDS {
                    let sr = reference.step();
                    senders += sr.senders;
                    for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter_mut()) {
                        let sh = shard.step();
                        assert_eq!(sr, sh, "{label}: reference vs workers={w}, round {round}");
                    }
                }
                assert!(senders > 0, "{label}: the population must transmit");
                assert!(
                    senders * 8 < n * ROUNDS,
                    "{label}: {senders} sends in {ROUNDS} rounds is not sparse"
                );
                for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter()) {
                    assert_eq!(
                        reference.known_payloads(),
                        shard.known_payloads(),
                        "{label}: known records, workers={w}"
                    );
                    assert_eq!(
                        reference.outcome(),
                        shard.outcome(),
                        "{label}: outcome, workers={w}"
                    );
                }
            }
        }
    }
}
