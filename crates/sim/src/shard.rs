//! Shard-parallel rounds: the [`ShardedExecutor`] wrapper and the
//! per-shard kernels of [`Executor::step_traced`].
//!
//! Every round runs through one pipeline, [`Executor::step_traced`], over
//! the executor's [`ShardPlan`]: a word-aligned partition of the node
//! space. The plan has one shard unless the executor is wrapped by
//! [`ShardedExecutor::new`] (or a runner asks for more than one shard
//! worker). With several shards the transmit, collision-resolution and
//! receive-and-absorb sweeps run on scoped worker threads, one node chunk
//! each, and merge at the round barrier; a one-shard plan runs the same
//! kernels inline on the caller's thread, with no scope and no per-round
//! allocation.
//!
//! Where a receiver's **reaching set** comes from follows from the shard
//! count alone:
//!
//! * **One shard: scatter.** The coordinator walks every sender's `G`
//!   out-row and adversary extras and buckets them by receiver into the
//!   executor's arena. That writes into any receiver's slots, so it cannot
//!   run shard-parallel, but it costs O(deliveries): the cheap source for
//!   sparse-sender rounds (Harmonic broadcast at n = 129 has ~5 senders a
//!   round, and a gather would walk all 129 in-rows to find them).
//! * **Several shards: gather.** Each shard walks its own receivers'
//!   in-rows of the transposed CSRs, plus the adversary extras — bucketed
//!   on the coordinator, or, for an oblivious adversary, evaluated in the
//!   shard by its [`EdgeOracle`]. O(in-degree) per receiver, but with no
//!   cross-shard writes.
//!
//! Both sources yield the same set in the same ascending sender-index
//! order, so one [`resolve_chunk`] body reads either; it is monomorphized
//! per source, so the one-shard loop carries no gather code. The
//! contract —
//! enforced by `tests/shard_differential.rs` — is that outcomes are
//! **bit-identical regardless of worker count**, traces included. The
//! determinism argument:
//!
//! * **No shard-level randomness.** Every random draw is either owned by a
//!   process (node-local, untouched by partitioning) or by the adversary.
//!   An oblivious adversary's [`EdgeOracle`] ([`Adversary::edge_oracle`])
//!   makes its deliveries and CR4 coins pure functions of (seed, round,
//!   edge or node), so a shard evaluates them for its own receivers in any
//!   order and gets exactly what asking the adversary sender by sender
//!   gets. Every other adversary call ([`Adversary::unreliable_deliveries`]
//!   per sender, [`Adversary::resolve_cr4`] per collided node) happens on
//!   the coordinator, in ascending node order, whatever the shard count.
//! * **Merges in shard order are merges in node order.** Shards are
//!   contiguous ascending ranges, so concatenating per-shard sender
//!   buffers / newly-informed lists / deferred CR4 choices in shard order
//!   reproduces the one-shard ascending-node order for *any* chunk size.
//! * **One loop body.** Each shard runs the same `transmit_chunk`,
//!   [`resolve_chunk`] and `receive_chunk` + [`AbsorbPart`] bodies the
//!   one-shard round runs over the whole node range.
//! * **Disjoint writes.** Shard boundaries are multiples of 64, so the
//!   `informed` bitset splits into whole disjoint `u64` words; all other
//!   per-node state splits by `chunks_mut`. The only cross-shard
//!   aggregates are additive (`physical_collisions`), which is
//!   order-independent.
//!
//! [`Adversary::unreliable_deliveries`]: crate::Adversary::unreliable_deliveries
//! [`Adversary::resolve_cr4`]: crate::Adversary::resolve_cr4
//! [`Adversary::edge_oracle`]: crate::Adversary::edge_oracle
//! [`EdgeOracle`]: crate::EdgeOracle

use dualgraph_net::{Csr, NodeId, ShardPlan};

use crate::adversary::RoundOracle;
use crate::collision::{CollisionRule, Cr4Resolution, Reception};
use crate::dynamics::NodeRole;
use crate::engine::Executor;
use crate::message::Message;
use crate::payload::PayloadSet;
use crate::slot::ShardAbsorb;

/// Sentinel for "this node did not transmit" in the per-node sender-index
/// map.
pub(crate) const NONE: u32 = u32::MAX;

/// An [`Executor`] whose rounds run shard-parallel: a constructor that
/// sets the executor's shard plan, and `Deref`s to the executor for
/// everything else (see the module docs for the pipeline and the
/// determinism argument).
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
/// assert_eq!(sharded.plan().shards(), 2);
/// let outcome = sharded.run_until_complete(400);
/// assert!(outcome.completed);
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct ShardedExecutor<'a> {
    exec: Executor<'a>,
}

impl<'a> ShardedExecutor<'a> {
    /// Wraps `exec`, planning at most `workers` shards over its node
    /// space. `workers <= 1` (or a population too small to split) yields a
    /// single shard, which runs inline on the caller's thread.
    pub fn new(mut exec: Executor<'a>, workers: usize) -> Self {
        exec.set_workers(workers);
        ShardedExecutor { exec }
    }

    /// The shard partition in force.
    pub fn plan(&self) -> ShardPlan {
        self.exec.plan
    }

    /// Unwraps back into a one-shard executor, mid-run state intact.
    pub fn into_inner(mut self) -> Executor<'a> {
        self.exec.set_workers(1);
        self.exec
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
            self.exec.plan.shards(),
            self.exec.plan.chunk()
        )
    }
}

/// Runs `body(chunk, base, part)` over the node chunks of `plan`, chunk
/// `s` (nodes `base = s * plan.chunk()` onward) paired with the `s`-th
/// item of `parts`: chunk 0 on the caller's thread, the others on scoped
/// worker threads. A one-shard plan runs inline with no
/// [`std::thread::scope`] at all — a scope allocates, and the one-shard
/// round is allocation-free.
///
/// # Panics
///
/// Panics if `plan` does not cover `items.len()` nodes or `parts` runs out
/// before the chunks do.
pub(crate) fn for_each_chunk<P: Send, T: Send>(
    items: &mut [P],
    plan: ShardPlan,
    parts: impl IntoIterator<Item = T>,
    body: impl Fn(&mut [P], usize, T) + Sync,
) {
    assert_eq!(plan.len(), items.len(), "shard plan / node count mismatch");
    let chunk = plan.chunk();
    let mut parts = parts.into_iter();
    if items.len() <= chunk {
        match parts.next() {
            Some(part) => body(items, 0, part),
            None => assert!(items.is_empty(), "one part per shard"),
        }
        return;
    }
    let chunks = items.len().div_ceil(chunk);
    let body = &body;
    std::thread::scope(|scope| {
        let mut work = items.chunks_mut(chunk).zip(parts).enumerate();
        let head = work.next();
        let mut spawned = 1;
        for (s, (items, part)) in work {
            spawned += 1;
            scope.spawn(move || body(items, s * chunk, part));
        }
        assert_eq!(spawned, chunks, "one part per shard");
        if let Some((_, (items, part))) = head {
            body(items, 0, part);
        }
    });
}

/// One shard's round scratch, reused across rounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardScratch {
    /// The shard's transmissions (shard 0 appends straight to the
    /// executor's sender buffer instead).
    pub(crate) sends: Vec<(NodeId, Message)>,
    /// The shard's receivers first informed this round (shard 0 pushes
    /// straight to the round's `newly_informed` instead).
    pub(crate) newly: Vec<NodeId>,
    /// Deferred CR4 choices: `(node, start, end)` into `cr4_idx`. Resolved
    /// on the coordinator shard by shard — ascending node order, the
    /// adversary's RNG order.
    pub(crate) cr4_jobs: Vec<(u32, u32, u32)>,
    /// The deferred choices' reaching sets, in ascending sender-index
    /// order (the order
    /// [`Adversary::resolve_cr4`][crate::Adversary::resolve_cr4] has
    /// always seen).
    pub(crate) cr4_idx: Vec<u32>,
    /// One receiver's oracle-evaluated extras (sender indices, ascending).
    /// Sized to the largest unreliable in-degree, so the resolve loop
    /// writes every in-row slot without growing it.
    pub(crate) extras: Vec<u32>,
    /// Physical collisions counted by the shard; summed at the barrier.
    pub(crate) collisions: u64,
}

/// Where a shard finds each receiver's reachers beyond its reliable
/// in-row. [`resolve_chunk`] is instantiated once per source, so the
/// choice costs nothing per receiver.
pub(crate) trait Extras: Sync {
    /// Whether any of them reaches receiver `v` this round.
    fn any(&self, v: usize, own_idx: &[u32]) -> bool;

    /// Receiver `v`'s, as ascending sender indices; may fill `buf`.
    fn of<'b>(&'b self, v: usize, own_idx: &[u32], buf: &'b mut [u32]) -> &'b [u32];

    /// The adversary's CR4 choice at a receiver `len` senders reach, when
    /// the shard can make it; `None` defers it to the coordinator.
    fn resolve_cr4(&self, node: NodeId, len: usize) -> Option<Cr4Resolution>;
}

/// Bucketed by receiver on the coordinator: receiver `v`'s are
/// `flat[off[v]..off[v + 1]]`, ascending sender indices — the adversary
/// extras, plus the `G` out-rows under scatter.
pub(crate) struct Bucketed<'r> {
    pub(crate) flat: &'r [u32],
    pub(crate) off: &'r [u32],
}

impl Extras for Bucketed<'_> {
    #[inline]
    fn any(&self, v: usize, _own_idx: &[u32]) -> bool {
        self.off[v + 1] > self.off[v]
    }

    #[inline]
    fn of<'b>(&'b self, v: usize, _own_idx: &[u32], _buf: &'b mut [u32]) -> &'b [u32] {
        &self.flat[self.off[v] as usize..self.off[v + 1] as usize]
    }

    #[inline]
    fn resolve_cr4(&self, _node: NodeId, _len: usize) -> Option<Cr4Resolution> {
        None
    }
}

/// Evaluated in the shard: receiver `v`'s are the transmitting members of
/// its `G′ ∖ G` in-row that an oblivious adversary's oracle delivers.
pub(crate) struct OracleExtras<'r> {
    pub(crate) in_csr: &'r Csr,
    pub(crate) oracle: RoundOracle,
}

impl Extras for OracleExtras<'_> {
    #[inline]
    fn any(&self, v: usize, own_idx: &[u32]) -> bool {
        let node = NodeId::from_index(v);
        self.in_csr
            .row(node)
            .iter()
            .any(|&u| own_idx[u.index()] != NONE && self.oracle.delivers(u, node))
    }

    /// `buf` must hold `v`'s whole `G′ ∖ G` in-row.
    #[inline]
    fn of<'b>(&'b self, v: usize, own_idx: &[u32], buf: &'b mut [u32]) -> &'b [u32] {
        // Branch-free append: always write the slot, advance the cursor
        // by the hit bit. A data-dependent `if` here mispredicts on half
        // the edges at p = 1/2. The in-row is ascending, so the extras are
        // in ascending sender index.
        let node = NodeId::from_index(v);
        let mut k = 0usize;
        for &u in self.in_csr.row(node) {
            let idx = own_idx[u.index()];
            buf[k] = idx;
            k += usize::from((idx != NONE) & self.oracle.delivers(u, node));
        }
        &buf[..k]
    }

    #[inline]
    fn resolve_cr4(&self, node: NodeId, len: usize) -> Option<Cr4Resolution> {
        self.oracle.resolve_cr4(node, len)
    }
}

/// One round's read-only inputs to [`resolve_chunk`], shared by every
/// shard.
pub(crate) struct RoundView<'r> {
    pub(crate) senders: &'r [(NodeId, Message)],
    /// Per node: its index into `senders`, or [`NONE`].
    pub(crate) own_idx: &'r [u32],
    /// The reliable in-rows (`G` transposed) a gather reads each
    /// receiver's `G`-reachers from. A scatter never reads them: its
    /// [`Bucketed`] extras already hold those reachers.
    pub(crate) reliable_in: &'r Csr,
    pub(crate) roles: &'r [NodeRole],
    pub(crate) faulty: bool,
    pub(crate) byzantine: bool,
    /// Every node transmitted this round.
    pub(crate) dense: bool,
    pub(crate) rule: CollisionRule,
}

impl RoundView<'_> {
    /// Sender `idx`'s transmission content as `receiver` gets it.
    /// `senders` holds one *representative* message per sender (which is
    /// also what the trace records); a Byzantine sender's actual content
    /// for a given receiver is derived from its role on delivery. While no
    /// Byzantine senders exist — the common case — every sender is a
    /// shared channel and the derivation is skipped.
    #[inline]
    pub(crate) fn content(&self, idx: u32, receiver: NodeId) -> Message {
        let (u, m) = self.senders[idx as usize];
        if self.byzantine {
            self.roles[u.index()].content_for(m, receiver)
        } else {
            m
        }
    }
}

/// Phase 3: collision resolution, one [`resolve_chunk`] per node chunk
/// of `plan`, with `extras` as every receiver's source beyond its
/// reliable in-row. `GATHER` says whether that in-row is read: `false`
/// for the one-shard scatter, whose [`Bucketed`] extras hold the `G`
/// out-rows too. It is a compile-time parameter, so the scatter loop
/// carries no in-row code.
pub(crate) fn resolve_shards<E: Extras, const GATHER: bool>(
    r: &RoundView<'_>,
    extras: &E,
    receptions: &mut [Reception],
    plan: ShardPlan,
    shards: &mut [ShardScratch],
) {
    for_each_chunk(
        receptions,
        plan,
        shards.iter_mut(),
        |receptions, base, scratch| {
            resolve_chunk::<E, GATHER>(r, extras, receptions, base, scratch);
        },
    );
}

/// One shard's collision-resolution pass over receivers
/// `base..base + receptions.len()`. Each receiver's reaching set is the
/// transmitting members of its reliable in-row (when `GATHER`) merged
/// with its `extras` — ascending sender indices either way. Senders need only
/// whether anything else reaches them; non-senders resolve by the set's
/// size, and a CR4 collision either takes the oracle's coin here or is
/// deferred to the coordinator as a job in `scratch`.
fn resolve_chunk<E: Extras, const GATHER: bool>(
    r: &RoundView<'_>,
    extras: &E,
    receptions: &mut [Reception],
    base: usize,
    scratch: &mut ShardScratch,
) {
    let ShardScratch {
        cr4_jobs: jobs,
        cr4_idx: idxs,
        extras: ex_buf,
        collisions,
        ..
    } = scratch;
    jobs.clear();
    idxs.clear();
    *collisions = 0;
    let own_idx = r.own_idx;
    for (i, slot) in receptions.iter_mut().enumerate() {
        let v = base + i;
        let node = NodeId::from_index(v);
        // Faulty radios resolve to silence: a crashed node has no
        // functioning receiver and a jammer/spammer never listens — no
        // collision is counted and no CR4 choice is drawn at such a node.
        if r.faulty && !r.roles[v].is_correct() {
            *slot = Reception::Silence;
            continue;
        }
        let row = if GATHER { r.reliable_in.row(node) } else { &[] };
        let own = own_idx[v];
        if own != NONE {
            // Senders: own message always reaches them; CR1 senders
            // detect collisions, CR2-CR4 senders hear themselves. Only
            // whether anything else reaches them matters. In a dense round
            // every in-row member transmitted.
            let in_any = if r.dense {
                !row.is_empty()
            } else {
                row.iter().any(|&u| own_idx[u.index()] != NONE)
            };
            let other = in_any || extras.any(v, own_idx);
            if other {
                *collisions += 1;
            }
            *slot = match r.rule {
                CollisionRule::Cr1 if other => Reception::Collision,
                CollisionRule::Cr1 => Reception::Message(r.content(own, node)),
                _ => Reception::Message(r.senders[own as usize].1),
            };
            continue;
        }
        // Count the in-row senders; remember the first for the len == 1
        // case (the only case that reads a lone message).
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
        let ex = extras.of(v, own_idx, ex_buf);
        let len = in_count + ex.len();
        *slot = match len {
            0 => Reception::Silence,
            1 => {
                let idx = if in_count == 1 { first_in } else { ex[0] };
                Reception::Message(r.content(idx, node))
            }
            _ => {
                *collisions += 1;
                match r.rule {
                    CollisionRule::Cr1 | CollisionRule::Cr2 => Reception::Collision,
                    CollisionRule::Cr3 => Reception::Silence,
                    CollisionRule::Cr4 => {
                        match extras.resolve_cr4(node, len) {
                            Some(Cr4Resolution::Silence) => Reception::Silence,
                            Some(Cr4Resolution::Deliver(i)) => {
                                match reaching(row, own_idx, ex).nth(i) {
                                    Some(idx) => Reception::Message(r.content(idx, node)),
                                    None => unreachable!("the oracle picks i < len"),
                                }
                            }
                            None => {
                                // Defer the adversary's choice to the
                                // coordinator: record the reaching set in
                                // the order `resolve_cr4` has always seen.
                                // Without in-row senders (always, under
                                // scatter) that is `ex` itself.
                                let start = idxs.len() as u32;
                                if in_count == 0 {
                                    idxs.extend_from_slice(ex);
                                } else {
                                    idxs.extend(reaching(row, own_idx, ex));
                                }
                                jobs.push((v as u32, start, idxs.len() as u32));
                                // Placeholder; the coordinator overwrites it.
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
/// bucketed or oracle extras `ex` (both ascending, and disjoint since a
/// sender reaches a receiver over at most one edge).
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
/// thread, fused behind its receive sweep.
pub(crate) struct AbsorbPart<'s> {
    pub(crate) known: &'s mut [PayloadSet],
    pub(crate) first_receive: &'s mut [Option<u64>],
    pub(crate) informed_words: &'s mut [u64],
    pub(crate) newly: &'s mut Vec<NodeId>,
    pub(crate) real: PayloadSet,
    pub(crate) round: u64,
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
    fn for_each_chunk_pairs_chunks_with_parts_in_order() {
        let mut items = vec![0usize; 200];
        let plan = ShardPlan::new(200, 3);
        assert_eq!(plan.shards(), 2);
        let mut seen = [0usize; 2];
        for_each_chunk(&mut items, plan, seen.iter_mut(), |chunk, base, seen| {
            chunk.fill(base);
            *seen = chunk.len();
        });
        assert_eq!(seen, [128, 72]);
        assert!(items[..128].iter().all(|&b| b == 0));
        assert!(items[128..].iter().all(|&b| b == 128));
    }

    #[test]
    #[should_panic(expected = "one part per shard")]
    fn for_each_chunk_needs_a_part_per_shard() {
        let mut items = vec![0u8; 200];
        for_each_chunk(&mut items, ShardPlan::new(200, 2), [()], |_, _, ()| {});
    }

    #[test]
    fn one_shard_plan_is_the_plain_executor() {
        // `workers <= 1` plans one shard: the plain executor's own plan,
        // whose round scatters and runs inline. Unwrapping a sharded
        // executor mid-run returns it to one shard, state intact.
        let net = generators::line(200, 1);
        let build = || {
            Executor::from_slots(
                &net,
                Flooder::slots(200),
                Box::new(ReliableOnly::new()),
                ExecutorConfig::default(),
            )
            .unwrap()
        };
        let mut plain = build();
        let mut one = ShardedExecutor::new(build(), 1);
        let mut two = ShardedExecutor::new(build(), 2);
        assert_eq!(one.plan(), plain.plan);
        assert_eq!(one.plan().shards(), 1);
        assert_eq!(two.plan().shards(), 2);
        for _ in 0..100 {
            let expected = plain.step();
            assert_eq!(one.step(), expected);
            assert_eq!(two.step(), expected);
        }
        let mut unwrapped = two.into_inner();
        assert_eq!(unwrapped.plan, plain.plan);
        let outcome = plain.run_until_complete(400);
        assert_eq!(outcome.completion_round, Some(199));
        assert_eq!(unwrapped.run_until_complete(400), outcome);
        assert_eq!(one.run_until_complete(400), outcome);
    }
}
