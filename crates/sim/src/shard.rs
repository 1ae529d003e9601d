//! The sharded round engine: intra-round parallelism over node chunks.
//!
//! [`ShardedExecutor`] wraps an [`Executor`] and runs each round's
//! transmit, collision-resolution, and receive sweeps **shard-parallel**
//! over a word-aligned partition of the node space
//! ([`ShardPlan`][dualgraph_net::ShardPlan]), merging at the round
//! barrier. The contract — enforced by `tests/shard_differential.rs` — is
//! that outcomes are **bit-identical to the sequential engine regardless
//! of worker count**, including traces. The determinism argument:
//!
//! * **No shard-level randomness.** Every random draw is either owned by a
//!   process (node-local, untouched by partitioning) or by the adversary.
//!   An oblivious adversary exposes an [`EdgeOracle`]
//!   ([`Adversary::edge_oracle`]): its deliveries and CR4 coins are pure
//!   functions of (seed, round, edge or node), so each shard evaluates
//!   them for its own receivers — walking their `G′ ∖ G` in-rows — in any
//!   order, and gets exactly what the sequential engine gets by asking the
//!   adversary sender by sender. Every other adversary call
//!   ([`Adversary::unreliable_deliveries`] per sender,
//!   [`Adversary::resolve_cr4`] per collided node) happens on the
//!   coordinator, in ascending node order, exactly as in the sequential
//!   engine. Shard count never enters any random decision.
//! * **Merges in shard order are merges in node order.** Shards are
//!   contiguous ascending ranges, so concatenating per-shard sender
//!   buffers / newly-informed lists in shard order reproduces the
//!   sequential ascending-node order for *any* chunk size.
//! * **One loop body.** Each shard runs the same `transmit_chunk` /
//!   `receive_chunk` body the sequential sweeps run (see `slot.rs`), and
//!   the receiver-side resolve below recomputes the sequential engine's
//!   per-node reaching set — ascending sender order, self/`G`-row/extras —
//!   from the transpose CSRs, so per-node results agree element-wise.
//! * **Disjoint writes.** Shard boundaries are multiples of 64, so the
//!   `informed` bitset splits into whole disjoint `u64` words; all other
//!   per-node state splits by `chunks_mut`. The only cross-shard
//!   aggregates are additive (`physical_collisions`), which is
//!   order-independent.
//!
//! With one shard (or `workers <= 1`) the wrapper delegates to
//! [`Executor::step_traced`] — the pre-refactor sequential path —
//! unchanged.
//!
//! [`Adversary::unreliable_deliveries`]: crate::Adversary::unreliable_deliveries
//! [`Adversary::resolve_cr4`]: crate::Adversary::resolve_cr4
//! [`Adversary::edge_oracle`]: crate::Adversary::edge_oracle
//! [`EdgeOracle`]: crate::EdgeOracle

use dualgraph_net::{Csr, NodeId, ShardPlan};

use crate::adversary::{RoundContext, RoundOracle};
use crate::collision::{self, CollisionRule, Cr4Resolution, Reception};
use crate::dynamics::{FaultView, NodeRole};
use crate::engine::{BroadcastOutcome, Executor, RoundSummary};
use crate::message::Message;
use crate::payload::PayloadSet;
use crate::slot::ShardAbsorb;
use crate::trace::{NullSink, RoundRecord, TraceEvent, TraceSink};

/// Sentinel for "this node did not transmit" in the per-node sender-index
/// map.
const NONE: u32 = u32::MAX;

/// An [`Executor`] whose round sweeps run shard-parallel (see the module
/// docs for the architecture and the determinism argument).
///
/// # Examples
///
/// ```
/// use dualgraph_net::generators;
/// use dualgraph_sim::{
///     Executor, ExecutorConfig, Flooder, ReliableOnly, ShardedExecutor,
/// };
///
/// let net = generators::line(200, 1);
/// let exec = Executor::from_slots(
///     &net,
///     Flooder::slots(200),
///     Box::new(ReliableOnly::new()),
///     ExecutorConfig::default(),
/// )?;
/// let mut sharded = ShardedExecutor::new(exec, 2);
/// let outcome = sharded.run_until_complete(400);
/// assert!(outcome.completed);
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct ShardedExecutor<'a> {
    exec: Executor<'a>,
    plan: ShardPlan,
    /// Per node: this round's index into `senders_buf`, or [`NONE`]. The
    /// receiver-side resolve's O(1) "did `u` transmit?" lookup.
    own_idx: Vec<u32>,
    /// Nodes whose `own_idx` entry is live — the O(senders) reset list.
    own_set: Vec<u32>,
    /// Per-shard transmit output; concatenated in shard order into the
    /// executor's `senders_buf`.
    send_bufs: Vec<Vec<(NodeId, Message)>>,
    /// Per-shard newly-informed lists; concatenated in shard order.
    newly_bufs: Vec<Vec<NodeId>>,
    /// Per-shard deferred CR4 choices: `(node, start, end)` into the
    /// shard's `cr4_idx` arena. Resolved on the coordinator, shard by
    /// shard — which is ascending node order, so the adversary's RNG
    /// stream matches the sequential engine's.
    cr4_jobs: Vec<Vec<(u32, u32, u32)>>,
    /// Per-shard arenas of merged reaching sets for deferred CR4 choices
    /// (ascending sender-index order, the historical order
    /// [`Adversary::resolve_cr4`][crate::Adversary::resolve_cr4] sees).
    cr4_idx: Vec<Vec<u32>>,
    /// Per-shard scratch for one receiver's oracle-resolved adversary
    /// extras (sender indices, ascending). Sized to the largest
    /// unreliable in-degree, so the resolve loop writes every in-row slot
    /// without growing it.
    extra_bufs: Vec<Vec<u32>>,
    /// Per-shard physical-collision counts; summed at the barrier.
    collision_counts: Vec<u64>,
}

impl<'a> ShardedExecutor<'a> {
    /// Wraps `exec`, planning at most `workers` shards over its node
    /// space. `workers <= 1` (or a population too small to split) yields a
    /// single shard, and every step delegates to the sequential
    /// [`Executor::step_traced`].
    pub fn new(exec: Executor<'a>, workers: usize) -> Self {
        let n = exec.network().len();
        let plan = ShardPlan::new(n, workers);
        let shards = plan.shards();
        ShardedExecutor {
            plan,
            own_idx: vec![NONE; n],
            own_set: Vec::new(),
            send_bufs: vec![Vec::new(); shards],
            newly_bufs: vec![Vec::new(); shards],
            cr4_jobs: vec![Vec::new(); shards],
            cr4_idx: vec![Vec::new(); shards],
            extra_bufs: vec![vec![NONE; exec.network().max_unreliable_in_degree()]; shards],
            collision_counts: vec![0; shards],
            exec,
        }
    }

    /// The shard partition in force.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Unwraps back into the sequential executor, mid-run state intact.
    pub fn into_inner(self) -> Executor<'a> {
        self.exec
    }

    /// Executes one round shard-parallel. Bit-identical to
    /// [`Executor::step`] on the same state.
    pub fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// Runs until broadcast completes or `max_rounds` have executed
    /// (counting rounds already executed), whichever first.
    pub fn run_until_complete(&mut self, max_rounds: u64) -> BroadcastOutcome {
        while !self.exec.is_complete() && self.exec.round() < max_rounds {
            self.step();
        }
        self.exec.outcome()
    }

    /// Runs exactly `rounds` additional rounds (does not stop early).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// [`ShardedExecutor::step`] with observability hooks: the same event
    /// stream as [`Executor::step_traced`] (`RoundStart`, then `Transmit`
    /// per sender ascending, then `Reception`/`Collision` per node
    /// ascending), emitted on the coordinator from the merged buffers —
    /// worker threads never see a sink, so the sharded sweeps are
    /// identical machine code whether tracing is on or off.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        if self.plan.shards() == 1 {
            // The pre-refactor sequential path, verbatim.
            return self.exec.step_traced(sink);
        }
        let t = self.exec.round + 1;
        let n = self.exec.network.len();
        let chunk = self.plan.chunk();
        let shards = self.plan.shards();
        if S::ENABLED {
            sink.emit(TraceEvent::RoundStart { round: t });
        }

        // Reset the previous round's own-message and sender-index slots
        // (O(previous senders), not O(n)).
        for i in 0..self.exec.senders_buf.len() {
            let u = self.exec.senders_buf[i].0;
            self.exec.own_buf[u.index()] = None;
        }
        for &u in &self.own_set {
            self.own_idx[u as usize] = NONE;
        }
        self.own_set.clear();

        // Phase 1 (sharded): send decisions per node chunk; concatenating
        // per-shard buffers in shard order is the sequential sweep's
        // ascending node order.
        {
            let Executor {
                procs,
                active_from,
                roles,
                standing_tx,
                faulty_count,
                known,
                ..
            } = &mut self.exec;
            let faults = (*faulty_count > 0).then_some(FaultView {
                roles,
                standing_tx,
                known,
            });
            procs.transmit_all_sharded(t, active_from, faults, chunk, &mut self.send_bufs);
        }
        self.exec.senders_buf.clear();
        for buf in &self.send_bufs[..shards] {
            self.exec.senders_buf.extend_from_slice(buf);
        }
        self.exec.sends += self.exec.senders_buf.len() as u64;
        for (i, &(u, msg)) in self.exec.senders_buf.iter().enumerate() {
            self.exec.own_buf[u.index()] = Some(msg);
            self.own_idx[u.index()] = i as u32;
            self.own_set.push(u.index() as u32);
        }

        // An oblivious adversary's choices are a pure function of (seed,
        // round, edge or node), so they are evaluated receiver-side inside
        // the shards (phase 3) and phases 2a/2b are skipped. Queried every
        // round: the adversary is behind `DerefMut`.
        let oracle = self.exec.adversary.edge_oracle().map(|o| o.round(t));
        if oracle.is_some() {
            // Grow-only, and only when an epoch swap raised the largest
            // unreliable in-degree: the resolve loop never grows it.
            let need = self.exec.network.max_unreliable_in_degree();
            for buf in &mut self.extra_bufs {
                if buf.len() < need {
                    buf.resize(need, NONE);
                }
            }
        } else {
            self.sample_extras(t);
        }

        // Phase 3 (sharded): receiver-side collision resolution. Each
        // shard walks its receivers' in-neighborhoods (the transpose CSRs)
        // instead of scattering from sender rows — same per-node reaching
        // set, no cross-shard writes. Under an oracle the shard also
        // evaluates the adversary's deliveries and CR4 coins; otherwise CR4
        // choices are recorded as jobs and resolved on the coordinator
        // below (adversary RNG order).
        self.exec.receptions_buf.clear();
        self.exec.receptions_buf.resize(n, Reception::Silence);
        {
            let Executor {
                network,
                senders_buf,
                arena,
                arena_off,
                own_buf,
                receptions_buf,
                config,
                roles,
                faulty_count,
                byzantine_count,
                ..
            } = &mut self.exec;
            let rule = config.rule;
            let round = RoundView {
                // Dense-round fast path, mirroring the sequential engine's
                // skipped write pass: when every node transmitted under
                // CR2-CR4, only whether the reaching set has two or more
                // members matters — O(1) per receiver with a reliable
                // in-neighbor.
                dense: senders_buf.len() == n && rule != CollisionRule::Cr1,
                byzantine: *byzantine_count > 0,
                faulty: *faulty_count > 0,
                rule,
                senders: senders_buf,
                own_buf,
                own_idx: &self.own_idx,
                in_csr: network.reliable_in_csr(),
                roles,
                extras: match oracle {
                    Some(oracle) => Extras::Oracle {
                        in_csr: network.unreliable_only_in_csr(),
                        oracle,
                    },
                    None => Extras::Bucketed {
                        flat: arena,
                        off: arena_off,
                    },
                },
            };
            let round = &round;
            std::thread::scope(|scope| {
                let mut parts = receptions_buf
                    .chunks_mut(chunk)
                    .zip(self.cr4_jobs.iter_mut())
                    .zip(self.cr4_idx.iter_mut())
                    .zip(self.extra_bufs.iter_mut())
                    .zip(self.collision_counts.iter_mut())
                    .enumerate();
                let first = parts.next();
                for (s, ((((rec, jobs), idxs), ex), col)) in parts {
                    scope.spawn(move || {
                        resolve_chunk(round, rec, s * chunk, jobs, idxs, ex, col);
                    });
                }
                if let Some((_, ((((rec, jobs), idxs), ex), col))) = first {
                    resolve_chunk(round, rec, 0, jobs, idxs, ex, col);
                }
            });
        }
        for &c in &self.collision_counts[..shards] {
            self.exec.physical_collisions += c;
        }

        // Phase 3b (coordinator): deferred CR4 choices, shard by shard —
        // ascending node order, the exact adversary call sequence of the
        // sequential engine. Empty when the oracle resolved CR4 in the
        // shards.
        {
            let Executor {
                network,
                adversary,
                assignment,
                informed,
                senders_buf,
                receptions_buf,
                cr4_scratch,
                roles,
                byzantine_count,
                ..
            } = &mut self.exec;
            let byzantine = *byzantine_count > 0;
            let ctx = RoundContext {
                round: t,
                network,
                assignment,
                senders: senders_buf,
                informed,
            };
            for s in 0..shards {
                for &(v, start, end) in &self.cr4_jobs[s] {
                    let node = NodeId::from_index(v as usize);
                    cr4_scratch.clear();
                    for &idx in &self.cr4_idx[s][start as usize..end as usize] {
                        let (u, m) = senders_buf[idx as usize];
                        cr4_scratch.push(if byzantine {
                            roles[u.index()].content_for(m, node)
                        } else {
                            m
                        });
                    }
                    receptions_buf[v as usize] =
                        match adversary.resolve_cr4(&ctx, node, cr4_scratch) {
                            collision::Cr4Resolution::Silence => Reception::Silence,
                            collision::Cr4Resolution::Deliver(i) => {
                                assert!(i < cr4_scratch.len(), "CR4 delivery index out of bounds");
                                Reception::Message(cr4_scratch[i])
                            }
                        };
                }
            }
        }

        // Phase 4 (sharded): deliveries/activations fused with the
        // informed/known bookkeeping, per shard. Word-aligned boundaries
        // split the informed bitset into disjoint whole words.
        {
            let Executor {
                procs,
                active_from,
                receptions_buf,
                roles,
                faulty_count,
                known,
                first_receive,
                informed,
                real,
                ..
            } = &mut self.exec;
            let mask = (*faulty_count > 0).then_some(roles.as_slice());
            let real = *real;
            // One shards-length Vec of borrowed absorb windows per round,
            // bounded by the worker count (not n); the windows themselves
            // are reused buffers.
            let mut absorbs: Vec<AbsorbPart<'_>> = known
                .chunks_mut(chunk)
                .zip(first_receive.chunks_mut(chunk))
                .zip(informed.words_mut().chunks_mut(chunk / 64))
                .zip(self.newly_bufs.iter_mut())
                .map(|(((known, first_receive), informed_words), newly)| {
                    newly.clear();
                    AbsorbPart {
                        known,
                        first_receive,
                        informed_words,
                        newly,
                        real,
                        round: t,
                    }
                })
                .collect(); // analyzer: allow(hot-alloc, reason = "shards-length Vec of borrowed windows, bounded by worker count not n")
            procs.receive_all_sharded(t, active_from, mask, receptions_buf, chunk, &mut absorbs);
        }
        // analyzer: allow(hot-alloc, reason = "newly_informed is returned by value in RoundSummary, mirroring the sequential engine's waiver: len 0 except on the bounded rounds where nodes first become informed")
        let mut newly_informed = Vec::new();
        for buf in &self.newly_bufs[..shards] {
            newly_informed.extend_from_slice(buf);
        }

        self.exec.round = t;
        if S::ENABLED {
            for &(node, msg) in &self.exec.senders_buf {
                sink.emit(TraceEvent::Transmit {
                    round: t,
                    node,
                    face_parity: msg.payloads.len() % 2 == 1,
                });
            }
            for (node, r) in self.exec.receptions_buf.iter().enumerate() {
                match r {
                    Reception::Message(m) => sink.emit(TraceEvent::Reception {
                        round: t,
                        node: NodeId::from_index(node),
                        sender: m.sender,
                        payloads: m.payloads,
                    }),
                    Reception::Collision => sink.emit(TraceEvent::Collision {
                        round: t,
                        node: NodeId::from_index(node),
                    }),
                    Reception::Silence => {}
                }
            }
        }
        {
            let Executor {
                trace,
                senders_buf,
                receptions_buf,
                ..
            } = &mut self.exec;
            trace.record(|| RoundRecord {
                round: t,
                senders: senders_buf.clone(),
                receptions: receptions_buf.clone(),
            });
        }

        RoundSummary {
            round: t,
            senders: self.exec.senders_buf.len(),
            newly_informed,
            complete: self.exec.is_complete(),
        }
    }
}

impl ShardedExecutor<'_> {
    /// Phases 2a/2b on the coordinator, for adversaries without an
    /// [`EdgeOracle`][crate::EdgeOracle]: one
    /// [`Adversary::unreliable_deliveries`][crate::Adversary::unreliable_deliveries]
    /// call per sender in node order — the call order every seeded
    /// adversary's RNG stream depends on, identical to the sequential
    /// engine — then the extras bucketed by receiver into the executor's
    /// `arena` / `arena_off` (idle in sharded rounds).
    fn sample_extras(&mut self, t: u64) {
        let n = self.exec.network.len();
        let Executor {
            network,
            adversary,
            assignment,
            informed,
            senders_buf,
            extra_flat,
            extra_ranges,
            arena,
            arena_off,
            cursor,
            ..
        } = &mut self.exec;
        extra_flat.clear();
        extra_ranges.clear();
        let ctx = RoundContext {
            round: t,
            network,
            assignment,
            senders: senders_buf,
            informed,
        };
        for &(u, _) in senders_buf.iter() {
            let start = extra_flat.len() as u32;
            adversary.unreliable_deliveries(&ctx, u, extra_flat);
            let end = extra_flat.len() as u32;
            debug_assert!(end >= start, "adversary shrank the delivery buffer");
            for &v in &extra_flat[start as usize..end as usize] {
                debug_assert!(
                    network.unreliable_only_csr().contains(u, v),
                    "adversary delivered ({u}, {v}) outside G' \\ G"
                );
            }
            extra_ranges.push((start, end));
        }

        // A stable counting sort whose write pass visits senders in
        // ascending index order, so each receiver's bucket is in ascending
        // sender-index order, matching the sequential arena's per-node
        // fill order.
        cursor.fill(0);
        for &v in extra_flat.iter() {
            cursor[v.index()] += 1;
        }
        let mut acc = 0u32;
        arena_off[0] = 0;
        for v in 0..n {
            acc += cursor[v];
            arena_off[v + 1] = acc;
        }
        cursor.copy_from_slice(&arena_off[..n]);
        if arena.len() < acc as usize {
            arena.resize(acc as usize, 0);
        }
        for (i, &(s, e)) in extra_ranges.iter().enumerate() {
            for &v in &extra_flat[s as usize..e as usize] {
                arena[cursor[v.index()] as usize] = i as u32;
                cursor[v.index()] += 1;
            }
        }
    }
}

impl<'a> std::ops::Deref for ShardedExecutor<'a> {
    type Target = Executor<'a>;

    fn deref(&self) -> &Executor<'a> {
        &self.exec
    }
}

impl<'a> std::ops::DerefMut for ShardedExecutor<'a> {
    fn deref_mut(&mut self) -> &mut Executor<'a> {
        &mut self.exec
    }
}

impl std::fmt::Debug for ShardedExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sharded({:?}, shards={}, chunk={})",
            self.exec,
            self.plan.shards(),
            self.plan.chunk()
        )
    }
}

/// Where a shard finds each receiver's adversary extras: the senders
/// whose transmissions the adversary delivers over `G′ ∖ G`.
#[derive(Clone, Copy)]
enum Extras<'r> {
    /// Sampled on the coordinator and bucketed by receiver: receiver `v`'s
    /// extras are `flat[off[v]..off[v + 1]]`, ascending sender indices.
    Bucketed { flat: &'r [u32], off: &'r [u32] },
    /// Evaluated in the shard: receiver `v`'s extras are the transmitting
    /// members of its `G′ ∖ G` in-row that the oracle delivers.
    Oracle {
        in_csr: &'r Csr,
        oracle: RoundOracle,
    },
}

impl<'r> Extras<'r> {
    /// Whether any adversary extra reaches receiver `v` this round.
    #[inline]
    fn any(&self, v: usize, own_idx: &[u32]) -> bool {
        match *self {
            Extras::Bucketed { off, .. } => off[v + 1] > off[v],
            Extras::Oracle { in_csr, oracle } => {
                let node = NodeId::from_index(v);
                in_csr
                    .row(node)
                    .iter()
                    .any(|&u| own_idx[u.index()] != NONE && oracle.delivers(u, node))
            }
        }
    }

    /// Receiver `v`'s extras as ascending sender indices. The oracle path
    /// fills `buf`, which must hold `v`'s whole `G′ ∖ G` in-row.
    #[inline]
    fn of<'b>(&self, v: usize, own_idx: &[u32], buf: &'b mut [u32]) -> &'b [u32]
    where
        'r: 'b,
    {
        match *self {
            Extras::Bucketed { flat, off } => &flat[off[v] as usize..off[v + 1] as usize],
            Extras::Oracle { in_csr, oracle } => {
                // Branch-free append: always write the slot, advance the
                // cursor by the hit bit. A data-dependent `if` here
                // mispredicts on half the edges at p = 1/2. The in-row is
                // ascending, so the extras are in ascending sender index.
                let node = NodeId::from_index(v);
                let mut k = 0usize;
                for &u in in_csr.row(node) {
                    let idx = own_idx[u.index()];
                    buf[k] = idx;
                    k += usize::from((idx != NONE) & oracle.delivers(u, node));
                }
                &buf[..k]
            }
        }
    }
}

/// One round's read-only inputs to [`resolve_chunk`], shared by every
/// shard.
struct RoundView<'r> {
    senders: &'r [(NodeId, Message)],
    own_buf: &'r [Option<Message>],
    /// Per node: its index into `senders`, or [`NONE`].
    own_idx: &'r [u32],
    /// The reliable in-neighborhoods (`G` transposed).
    in_csr: &'r Csr,
    roles: &'r [NodeRole],
    extras: Extras<'r>,
    faulty: bool,
    byzantine: bool,
    dense: bool,
    rule: CollisionRule,
}

/// One shard's collision-resolution pass over receivers
/// `base..base + receptions.len()`: recomputes each receiver's reaching
/// set from the transpose CSR (in-row senders), the sender-index map
/// (self), and the adversary extras — the same set, in the same ascending
/// sender-index order, the sequential engine's arena holds. Mirrors
/// `Executor::step_traced` phase 3 case for case; the differential suite
/// pins the two together.
fn resolve_chunk(
    r: &RoundView<'_>,
    receptions: &mut [Reception],
    base: usize,
    jobs: &mut Vec<(u32, u32, u32)>,
    idxs: &mut Vec<u32>,
    ex_buf: &mut [u32],
    collisions: &mut u64,
) {
    jobs.clear();
    idxs.clear();
    *collisions = 0;
    let own_idx = r.own_idx;
    // Per-receiver transmission content (see the sequential engine's
    // `msg_for`): while no Byzantine senders exist, every sender is a
    // shared channel and the role derivation is skipped.
    let msg_for = |idx: u32, receiver: usize| {
        let (u, m) = r.senders[idx as usize];
        if r.byzantine {
            r.roles[u.index()].content_for(m, NodeId::from_index(receiver))
        } else {
            m
        }
    };
    for (i, slot) in receptions.iter_mut().enumerate() {
        let v = base + i;
        let node = NodeId::from_index(v);
        // Faulty radios resolve to silence: no collision is counted and
        // no CR4 choice is drawn at such a node.
        if r.faulty && !r.roles[v].is_correct() {
            *slot = Reception::Silence;
            continue;
        }
        let row = r.in_csr.row(node);
        if r.dense {
            // Every node transmitted, so its own message reaches it: a
            // collision iff any other transmission does too.
            if !row.is_empty() || r.extras.any(v, own_idx) {
                *collisions += 1;
            }
            // analyzer: allow(panic, reason = "invariant: dense ⇒ every node transmitted, so own_buf is set")
            *slot = Reception::Message(r.own_buf[v].expect("dense round: every node transmitted"));
            continue;
        }
        let own = own_idx[v];
        // Count the in-row senders; remember the first for the len == 1
        // case (the only case that reads a lone non-self message).
        let mut in_count = 0usize;
        let mut first_in = NONE;
        for &u in row {
            let idx = own_idx[u.index()];
            if idx != NONE {
                if in_count == 0 {
                    first_in = idx;
                }
                in_count += 1;
            }
        }
        if own != NONE {
            // Senders: own message always reaches them; CR1 senders
            // detect collisions, CR2-CR4 senders hear themselves. Only
            // whether anything else reaches them matters, so the extras
            // are consulted only without an in-row sender.
            let other = in_count > 0 || r.extras.any(v, own_idx);
            if other {
                *collisions += 1;
            }
            *slot = match r.rule {
                CollisionRule::Cr1 => {
                    if other {
                        Reception::Collision
                    } else {
                        Reception::Message(msg_for(own, v))
                    }
                }
                // analyzer: allow(panic, reason = "invariant: own_idx set ⇒ own_buf set for the same node")
                _ => Reception::Message(r.own_buf[v].expect("sender's own message is recorded")),
            };
            continue;
        }
        let ex = r.extras.of(v, own_idx, ex_buf);
        let len = in_count + ex.len();
        *slot = match len {
            0 => Reception::Silence,
            1 => {
                let idx = if in_count == 1 { first_in } else { ex[0] };
                Reception::Message(msg_for(idx, v))
            }
            _ => {
                *collisions += 1;
                match r.rule {
                    CollisionRule::Cr1 | CollisionRule::Cr2 => Reception::Collision,
                    CollisionRule::Cr3 => Reception::Silence,
                    CollisionRule::Cr4 => {
                        let picked = match r.extras {
                            Extras::Oracle { oracle, .. } => oracle.resolve_cr4(node, len),
                            Extras::Bucketed { .. } => None,
                        };
                        match picked {
                            Some(Cr4Resolution::Silence) => Reception::Silence,
                            Some(Cr4Resolution::Deliver(i)) => {
                                match reaching(row, own_idx, ex).nth(i) {
                                    Some(idx) => Reception::Message(msg_for(idx, v)),
                                    None => unreachable!("the oracle picks i < len"),
                                }
                            }
                            None => {
                                // Defer the adversary's choice to the
                                // coordinator: record the reaching set in
                                // the order `resolve_cr4` has always seen.
                                let start = idxs.len() as u32;
                                idxs.extend(reaching(row, own_idx, ex));
                                jobs.push((v as u32, start, idxs.len() as u32));
                                // Placeholder; phase 3b overwrites it.
                                Reception::Silence
                            }
                        }
                    }
                }
            }
        };
    }
}

/// A non-sending receiver's reaching set in ascending sender-index order:
/// the transmitting members of its reliable in-row merged with its
/// adversary extras `ex` (both ascending, and disjoint since
/// `ex ⊆ G′ ∖ G`).
fn reaching<'r>(
    row: &'r [NodeId],
    own_idx: &'r [u32],
    ex: &'r [u32],
) -> impl Iterator<Item = u32> + 'r {
    let mut senders = row
        .iter()
        .map(|&u| own_idx[u.index()])
        .filter(|&idx| idx != NONE)
        .peekable();
    let mut extras = ex.iter().copied().peekable();
    std::iter::from_fn(move || match (senders.peek(), extras.peek()) {
        (Some(&a), Some(&b)) if b < a => extras.next(),
        (Some(_), _) => senders.next(),
        (None, _) => extras.next(),
    })
}

/// One shard's phase-4 bookkeeping window: disjoint mutable slices of the
/// executor's known/first-receive records and the shard's whole words of
/// the informed bitset (boundaries are 64-aligned). Runs on the shard's
/// worker thread, fused behind its receive sweep.
struct AbsorbPart<'s> {
    known: &'s mut [PayloadSet],
    first_receive: &'s mut [Option<u64>],
    informed_words: &'s mut [u64],
    newly: &'s mut Vec<NodeId>,
    real: PayloadSet,
    round: u64,
}

impl ShardAbsorb for AbsorbPart<'_> {
    fn absorb(&mut self, base: usize, len: usize, receptions: &[Reception]) {
        for i in 0..len {
            let Some(m) = receptions[base + i].message() else {
                continue;
            };
            // Word-level union: the dense-flooding known-set pass is pure
            // OR traffic over the payload words.
            self.known[i].or_words(m.payloads.words());
            // Only environment-introduced payloads inform (spam-proof
            // coverage, see `Executor::real`).
            if m.payloads.intersects(self.real) {
                let word = &mut self.informed_words[i / 64];
                let bit = 1u64 << (i % 64);
                if *word & bit == 0 {
                    *word |= bit;
                    self.first_receive[i] = Some(self.round);
                    self.newly.push(NodeId::from_index(base + i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomDelivery, ReliableOnly};
    use crate::engine::{ExecutorConfig, StartRule};
    use crate::process::{ChatterProcess, Flooder};
    use dualgraph_net::generators;

    fn chatter_exec(net: &dualgraph_net::DualGraph, rule: CollisionRule) -> Executor<'_> {
        Executor::from_slots(
            net,
            ChatterProcess::slots(net.len(), 7, 5),
            Box::new(RandomDelivery::new(0.5, 99)),
            ExecutorConfig {
                rule,
                start: StartRule::Synchronous,
                ..ExecutorConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn sharded_matches_sequential_round_by_round() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 150,
                reliable_p: 0.05,
                unreliable_p: 0.15,
            },
            13,
        );
        for rule in CollisionRule::ALL {
            let mut seq = chatter_exec(&net, rule);
            let mut shd = ShardedExecutor::new(chatter_exec(&net, rule), 2);
            assert!(shd.plan().shards() > 1, "test must actually shard");
            for _ in 0..40 {
                let a = seq.step();
                let b = shd.step();
                assert_eq!(a, b, "rule {rule}");
            }
            assert_eq!(seq.outcome(), shd.outcome(), "rule {rule}");
        }
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 200,
                reliable_p: 0.04,
                unreliable_p: 0.2,
            },
            21,
        );
        let run = |workers: usize| {
            let mut ex = ShardedExecutor::new(chatter_exec(&net, CollisionRule::Cr4), workers);
            ex.run_rounds(60);
            ex.into_inner().outcome()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
        assert_eq!(one, run(7));
    }

    #[test]
    fn single_shard_delegates_to_the_sequential_path() {
        let net = generators::line(40, 1);
        let exec = Executor::from_slots(
            &net,
            Flooder::slots(40),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut sharded = ShardedExecutor::new(exec, 1);
        assert_eq!(sharded.plan().shards(), 1);
        let outcome = sharded.run_until_complete(100);
        assert!(outcome.completed);
        assert_eq!(outcome.completion_round, Some(39));
    }
}
