//! The adversary interface and built-in adversaries.
//!
//! The model (§2.1) gives the adversary three choices:
//!
//! 1. the `proc` mapping of processes to graph nodes, fixed up front;
//! 2. each round, for every sender, which of its unreliable-only
//!    (`G′ ∖ G`) out-neighbors its message reaches;
//! 3. under CR4, how each collision resolves (silence or one message).
//!
//! An *adversary class* then fixes what information those choices may
//! depend on. Implementations here receive a [`RoundContext`] — the full
//! observable history summary (who sends what, who is informed) — which is
//! as much as any of the paper's constructions needs.

use dualgraph_net::{DualGraph, FixedBitSet, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Cr4Resolution;
use crate::message::{Message, ProcessId};
use crate::rng::{self, Bernoulli};

/// A bijection between graph nodes and processes (the `proc` mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    node_to_proc: Vec<ProcessId>,
    proc_to_node: Vec<NodeId>,
}

/// Error building an [`Assignment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildAssignmentError {
    /// The mapping is not a permutation of `0..n`.
    NotAPermutation,
}

impl std::fmt::Display for BuildAssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assignment is not a permutation of process ids 0..n")
    }
}

impl std::error::Error for BuildAssignmentError {}

impl Assignment {
    /// The identity mapping: process `i` at node `i`.
    pub fn identity(n: usize) -> Self {
        Assignment {
            node_to_proc: (0..n).map(ProcessId::from_index).collect(),
            proc_to_node: (0..n).map(NodeId::from_index).collect(),
        }
    }

    /// Builds an assignment from `node_to_proc[node] = process`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildAssignmentError::NotAPermutation`] unless the vector
    /// is a permutation of process ids `0..n`.
    pub fn from_node_to_proc(node_to_proc: Vec<ProcessId>) -> Result<Self, BuildAssignmentError> {
        let n = node_to_proc.len();
        let mut proc_to_node = vec![None; n];
        for (node, p) in node_to_proc.iter().enumerate() {
            if p.index() >= n || proc_to_node[p.index()].is_some() {
                return Err(BuildAssignmentError::NotAPermutation);
            }
            proc_to_node[p.index()] = Some(NodeId::from_index(node));
        }
        Ok(Assignment {
            node_to_proc,
            proc_to_node: proc_to_node.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// Number of nodes/processes.
    pub fn len(&self) -> usize {
        self.node_to_proc.len()
    }

    /// `true` for the empty assignment.
    pub fn is_empty(&self) -> bool {
        self.node_to_proc.is_empty()
    }

    /// The process placed at `node`.
    pub fn process_at(&self, node: NodeId) -> ProcessId {
        self.node_to_proc[node.index()]
    }

    /// The node hosting `process`.
    pub fn node_of(&self, process: ProcessId) -> NodeId {
        self.proc_to_node[process.index()]
    }
}

/// Per-round information exposed to the adversary: everything observable in
/// the execution so far that the paper's constructions use.
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// The global round being executed (1-based).
    pub round: u64,
    /// The network.
    pub network: &'a DualGraph,
    /// The `proc` mapping in force.
    pub assignment: &'a Assignment,
    /// This round's transmissions, as `(node, message)` pairs in node order.
    pub senders: &'a [(NodeId, Message)],
    /// Which nodes held the broadcast payload *before* this round.
    pub informed: &'a FixedBitSet,
}

impl RoundContext<'_> {
    /// `true` when exactly one node transmits this round.
    pub fn lone_sender(&self) -> Option<(NodeId, Message)> {
        match self.senders {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// The adversary: resolves all three sources of nondeterminism.
///
/// Implementations must be deterministic given their construction
/// parameters (seed included) so executions replay exactly.
pub trait Adversary {
    /// Chooses the `proc` mapping. Default: identity.
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        let _ = network;
        Assignment::identity(n_processes)
    }

    /// For the transmission by `sender`, chooses which of its
    /// unreliable-only out-neighbors the message reaches, **appending**
    /// the chosen targets to `out`.
    ///
    /// Implementations must only push — never read, truncate, or clear
    /// `out`: the executor hands the same flat buffer to every sender of a
    /// round (earlier senders' targets are already in it) and splits it by
    /// recorded ranges afterwards. The appended targets must form a subset
    /// of `ctx.network.unreliable_only_out(sender)`; the executor validates
    /// this in debug builds (a `debug_assert!` over the frozen `G′ ∖ G`
    /// CSR row).
    ///
    /// The scratch-buffer signature keeps the executor's round loop
    /// allocation-free. (This is a breaking change from the original
    /// `-> Vec<NodeId>` signature; see `docs/PERFORMANCE.md`.)
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    );

    /// Resolves a CR4 collision at non-sending `node`; `reaching` holds the
    /// ≥ 2 messages that physically reached it. Default: silence.
    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        let _ = (ctx, node, reaching);
        Cr4Resolution::Silence
    }

    /// The adversary's counter-based delivery oracle, if it is
    /// **oblivious**: its choices a pure function of (seed, round, edge
    /// or node), independent of the execution. Default: `None`, and the
    /// engines consult the two methods above on the coordinator.
    ///
    /// Returning `Some(oracle)` is a promise the sharded engine relies on
    /// to evaluate deliveries receiver-side, inside its shards, without
    /// calling [`Adversary::unreliable_deliveries`] at all:
    ///
    /// * `unreliable_deliveries(ctx, u, out)` appends exactly the `v` of
    ///   `ctx.network.unreliable_only_out(u)`, in row order, for which
    ///   `oracle.round(ctx.round).delivers(u, v)` holds;
    /// * whenever `oracle.round(ctx.round).resolve_cr4(node, reaching.len())`
    ///   is `Some(r)` (any [`Cr4Oracle`] but `Adversary`), `resolve_cr4`
    ///   returns `r`;
    /// * neither call changes state that a later call depends on, so
    ///   skipping them changes nothing.
    ///
    /// The differential suites check all three against the one-shard
    /// round (which asks the adversary sender by sender) and the reference
    /// executor.
    fn edge_oracle(&self) -> Option<EdgeOracle> {
        None
    }

    /// Clones the adversary in its current state (for execution replay).
    fn clone_box(&self) -> Box<dyn Adversary>;
}

/// How an oracle-driven round resolves CR4 collisions (see
/// [`EdgeOracle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cr4Oracle {
    /// Every CR4 collision resolves to silence (the trait's default
    /// `resolve_cr4`).
    Silence,
    /// A counter-based fair coin: silence with probability 1/2, else a
    /// uniformly random reaching message — a pure function of (seed,
    /// round, node).
    Coin,
    /// The adversary's own [`Adversary::resolve_cr4`], called on the
    /// coordinator in ascending node order (a stateful CR4 stream, e.g.
    /// [`WithRandomCr4`]'s).
    Adversary,
}

/// An oblivious adversary's choices as pure functions of (seed, round,
/// edge or node): a counter-based per-edge delivery test and a
/// [`Cr4Oracle`]. Returned by [`Adversary::edge_oracle`].
///
/// Decisions key on the directed pair `(u, v)` of node ids — not on CSR
/// positions — so they follow the edge across the epoch swaps of a
/// [`TopologySchedule`][dualgraph_net::TopologySchedule].
///
/// # Examples
///
/// ```
/// use dualgraph_net::NodeId;
/// use dualgraph_sim::{Adversary, EdgeOracle, RandomDelivery};
///
/// let oracle = RandomDelivery::new(0.5, 7).edge_oracle().unwrap();
/// let round = oracle.round(3);
/// assert_eq!(round.delivers(NodeId(0), NodeId(5)), round.delivers(NodeId(0), NodeId(5)));
/// assert!(!EdgeOracle::NEVER.round(3).delivers(NodeId(0), NodeId(5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOracle {
    seed: u64,
    delivery: Bernoulli,
    cr4: Cr4Oracle,
}

impl EdgeOracle {
    /// Delivers nothing; CR4 collisions resolve to silence
    /// ([`ReliableOnly`]).
    pub const NEVER: EdgeOracle = EdgeOracle {
        seed: 0,
        delivery: Bernoulli::NEVER,
        cr4: Cr4Oracle::Silence,
    };

    /// Delivers every edge; CR4 collisions resolve to silence
    /// ([`FullDelivery`]).
    pub const ALWAYS: EdgeOracle = EdgeOracle {
        seed: 0,
        delivery: Bernoulli::ALWAYS,
        cr4: Cr4Oracle::Silence,
    };

    /// Each edge delivers independently with probability `p` each round;
    /// CR4 collisions flip the counter-based fair coin. All keyed by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        EdgeOracle {
            seed,
            delivery: Bernoulli::new(p),
            cr4: Cr4Oracle::Coin,
        }
    }

    /// The same deliveries with CR4 collisions resolved by `cr4`.
    pub fn with_cr4(self, cr4: Cr4Oracle) -> Self {
        EdgeOracle { cr4, ..self }
    }

    /// The oracle for global round `round`, its keys precomputed.
    #[inline]
    pub fn round(&self, round: u64) -> RoundOracle {
        let key = rng::round_key(self.seed, round);
        RoundOracle {
            edge_key: key,
            cr4_key: rng::splitmix64(key),
            delivery: self.delivery,
            cr4: self.cr4,
        }
    }
}

/// One round of an [`EdgeOracle`]: cheap to copy into every shard.
#[derive(Debug, Clone, Copy)]
pub struct RoundOracle {
    edge_key: u64,
    cr4_key: u64,
    delivery: Bernoulli,
    cr4: Cr4Oracle,
}

impl RoundOracle {
    /// Whether `u`'s transmission reaches its unreliable-only
    /// out-neighbor `v` this round.
    #[inline]
    pub fn delivers(&self, u: NodeId, v: NodeId) -> bool {
        rng::edge_delivers(self.edge_key, u.0, v.0, self.delivery)
    }

    /// Appends the targets of `sender`'s unreliable-only row that deliver
    /// this round, in row order: the sender-side evaluation
    /// [`Adversary::unreliable_deliveries`] implementations delegate to.
    #[inline]
    pub fn deliveries(&self, network: &DualGraph, sender: NodeId, out: &mut Vec<NodeId>) {
        let row = network.unreliable_only_out(sender);
        if self.delivery.is_always() {
            out.extend_from_slice(row);
        } else if !self.delivery.is_never() {
            // Branch-free append (a filtering `if` mispredicts on half the
            // edges at p = 1/2): write every slot, advance by the hit bit.
            let start = out.len();
            out.resize(start + row.len(), sender);
            let mut k = start;
            for &v in row {
                out[k] = v;
                k += usize::from(self.delivers(sender, v));
            }
            out.truncate(k);
        }
    }

    /// The CR4 resolution at `node` over `len ≥ 2` reaching messages, or
    /// `None` when the adversary's own `resolve_cr4` decides
    /// ([`Cr4Oracle::Adversary`]).
    #[inline]
    pub fn resolve_cr4(&self, node: NodeId, len: usize) -> Option<Cr4Resolution> {
        match self.cr4 {
            Cr4Oracle::Silence => Some(Cr4Resolution::Silence),
            Cr4Oracle::Coin => Some(match rng::cr4_pick(self.cr4_key, node.0, len) {
                None => Cr4Resolution::Silence,
                Some(i) => Cr4Resolution::Deliver(i),
            }),
            Cr4Oracle::Adversary => None,
        }
    }
}

impl Clone for Box<dyn Adversary> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Adversary")
    }
}

/// Delivers on reliable edges only: the *benign* adversary. On classical
/// networks (`G = G′`) this is exactly the static radio model.
#[derive(Debug, Clone, Default)]
pub struct ReliableOnly;

impl ReliableOnly {
    /// Creates the benign adversary.
    pub fn new() -> Self {
        ReliableOnly
    }
}

impl Adversary for ReliableOnly {
    fn unreliable_deliveries(
        &mut self,
        _ctx: &RoundContext<'_>,
        _sender: NodeId,
        _out: &mut Vec<NodeId>,
    ) {
    }

    fn edge_oracle(&self) -> Option<EdgeOracle> {
        Some(EdgeOracle::NEVER)
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Delivers on **every** `G′` edge, every round: the classical static model
/// on `G′`. Maximizes connectivity but also maximizes collisions.
#[derive(Debug, Clone, Default)]
pub struct FullDelivery;

impl FullDelivery {
    /// Creates the full-delivery adversary.
    pub fn new() -> Self {
        FullDelivery
    }
}

impl Adversary for FullDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        out.extend_from_slice(ctx.network.unreliable_only_out(sender));
    }

    fn edge_oracle(&self) -> Option<EdgeOracle> {
        Some(EdgeOracle::ALWAYS)
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Draws one geometric "gap" — the number of Bernoulli(`p`) failures
/// before the next success — via [`crate::rng::geometric_gap_from_bits`]
/// (the shared inversion formula). One RNG draw per *success* instead of
/// one per trial: the bursty link chains below skip straight to the next
/// link flip with it. The degenerate `p`s are guarded *before* drawing,
/// so they consume no stream.
#[inline]
fn geometric_gap(rng: &mut SmallRng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    crate::rng::geometric_gap_from_bits(rng.next_u64(), p)
}

/// Each unreliable edge delivers independently with probability `p` each
/// round; CR4 collisions resolve to silence with probability 1/2, else to a
/// uniformly random reaching message.
///
/// This is the i.i.d. link-flap model of gray zones; deterministic in the
/// seed.
///
/// Backends (identical delivery *distribution*, different seeded
/// streams):
///
/// * [`RandomDelivery::new`] — **counter-based**: every decision is a pure
///   function of (seed, round, edge) or (seed, round, node) (see
///   [`EdgeOracle::bernoulli`]). The adversary is
///   [oblivious][Adversary::edge_oracle], so the sharded engine evaluates
///   its deliveries receiver-side inside the shards;
/// * [`RandomDelivery::per_edge`] — the frozen PR 1/PR 2 sampler (one
///   stateful draw per edge against a precomputed integer threshold;
///   `p = 1` delivers everything without consuming draws), kept for
///   historical seed reproducibility. Its stream depends on call order, so
///   it takes the coordinator path.
#[derive(Debug, Clone)]
pub struct RandomDelivery {
    backend: DeliveryBackend,
}

/// How [`RandomDelivery`] makes its per-edge Bernoulli decisions.
#[derive(Debug, Clone)]
enum DeliveryBackend {
    /// Counter-based: see [`EdgeOracle`].
    Oracle(EdgeOracle),
    /// One raw `u64` draw per edge from a stateful stream, tested against
    /// `delivery`; CR4 coins come from the same stream.
    PerEdge { delivery: Bernoulli, rng: SmallRng },
}

impl RandomDelivery {
    /// Creates the adversary with per-edge delivery probability `p`, using
    /// the counter-based oracle.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        RandomDelivery {
            backend: DeliveryBackend::Oracle(EdgeOracle::bernoulli(p, seed)),
        }
    }

    /// Creates the adversary with the frozen PR 1/PR 2 per-edge draw
    /// semantics (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn per_edge(p: f64, seed: u64) -> Self {
        RandomDelivery {
            backend: DeliveryBackend::PerEdge {
                delivery: Bernoulli::new(p),
                rng: SmallRng::seed_from_u64(seed),
            },
        }
    }
}

impl Adversary for RandomDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        match &mut self.backend {
            DeliveryBackend::Oracle(oracle) => {
                oracle.round(ctx.round).deliveries(ctx.network, sender, out);
            }
            DeliveryBackend::PerEdge { delivery, rng } => {
                let row = ctx.network.unreliable_only_out(sender);
                if delivery.is_always() {
                    out.extend_from_slice(row);
                    return;
                }
                for &v in row {
                    if delivery.accepts(rng.next_u64()) {
                        out.push(v);
                    }
                }
            }
        }
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        match &mut self.backend {
            DeliveryBackend::Oracle(oracle) => oracle
                .round(ctx.round)
                .resolve_cr4(node, reaching.len())
                .unwrap_or(Cr4Resolution::Silence),
            DeliveryBackend::PerEdge { rng, .. } => {
                if rng.gen_bool(0.5) {
                    Cr4Resolution::Silence
                } else {
                    Cr4Resolution::Deliver(rng.gen_range(0..reaching.len()))
                }
            }
        }
    }

    fn edge_oracle(&self) -> Option<EdgeOracle> {
        match self.backend {
            DeliveryBackend::Oracle(oracle) => Some(oracle),
            DeliveryBackend::PerEdge { .. } => None,
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// One Gilbert–Elliott link chain in the flat (CSR-indexed) bursty
/// backend: its current state plus the pre-drawn round of its next flip.
#[derive(Debug, Clone, Copy)]
struct EdgeChain {
    good: bool,
    /// Global round at which the next state flip lands (`0` = chain not
    /// yet primed; flips are drawn lazily, in first-visit order, to keep
    /// the RNG stream deterministic).
    next_flip: u64,
}

/// How [`BurstyDelivery`] stores and advances its per-edge Markov chains.
#[derive(Debug, Clone)]
enum BurstyBackend {
    /// Flat per-edge chains indexed by **stable edge identity**
    /// ([`DualGraph::unreliable_edge_id`]): for a standalone network the
    /// identity is the `G′ ∖ G` CSR's global edge numbering
    /// ([`Csr::row_range`][dualgraph_net::Csr::row_range]); for a
    /// [`TopologySchedule`][dualgraph_net::TopologySchedule] epoch it is
    /// the schedule-wide identity of the directed pair `(u, v)`, so chain
    /// state follows the *edge* across churn/fading/mobility rewires
    /// instead of silently migrating to whatever edge landed on the same
    /// CSR position. Chains advance by **geometric skip sampling over
    /// rounds**: instead of one Bernoulli draw per (edge, round), each
    /// chain pre-draws the round of its next flip (`1 + Geom(p)`), so a
    /// queried edge catches up over an arbitrary round gap with zero draws
    /// until a flip actually lands. One adversary instance is bound to one
    /// edge-identity universe (one network, or one schedule).
    Csr {
        /// Lazily sized to the network's edge-identity universe on first
        /// use.
        chains: Vec<EdgeChain>,
    },
    /// The PR 1/PR 2 backend, frozen for baseline comparisons: an edge-map
    /// keyed by `(u, v)` whose catch-up loop consumes one `gen_bool` per
    /// (edge, elapsed round). The map is a `Vec` sorted by edge key, so
    /// its behavior is independent of hasher state.
    PerRound {
        /// Lazily-tracked per-edge state: `(state_good, last_round)`,
        /// sorted by the `(u, v)` key.
        edges: Vec<((NodeId, NodeId), (bool, u64))>,
    },
}

/// Gilbert–Elliott bursty links: each unreliable directed edge is a two-state
/// Markov chain (good/bad); it delivers while good. Models doors opening and
/// interference bursts ("something as simple as opening a door can change
/// the connection topology", §1).
///
/// Backends (identical chain *distribution*, different seeded streams):
/// [`BurstyDelivery::new`] uses flat CSR-indexed chains with geometric
/// skip sampling (one draw per link *flip*); [`BurstyDelivery::per_round`]
/// keeps the frozen PR 1/PR 2 hash-map backend (one draw per edge per
/// elapsed round) for baseline comparisons.
#[derive(Debug, Clone)]
pub struct BurstyDelivery {
    /// P(good → bad) per round.
    p_fail: f64,
    /// P(bad → good) per round.
    p_recover: f64,
    rng: SmallRng,
    backend: BurstyBackend,
}

impl BurstyDelivery {
    /// Creates the bursty adversary with the batched (flat CSR + geometric
    /// skip) backend. All edges start good.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(p_fail: f64, p_recover: f64, seed: u64) -> Self {
        BurstyDelivery {
            backend: BurstyBackend::Csr { chains: Vec::new() },
            ..Self::per_round(p_fail, p_recover, seed)
        }
    }

    /// Creates the bursty adversary with the frozen PR 1/PR 2 per-round
    /// backend (see the type docs). All edges start good.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn per_round(p_fail: f64, p_recover: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_fail) && (0.0..=1.0).contains(&p_recover),
            "probabilities must lie in [0,1]"
        );
        BurstyDelivery {
            p_fail,
            p_recover,
            rng: SmallRng::seed_from_u64(seed),
            backend: BurstyBackend::PerRound { edges: Vec::new() },
        }
    }

    fn edge_good_per_round(&mut self, edge: (NodeId, NodeId), round: u64) -> bool {
        let BurstyBackend::PerRound { edges } = &mut self.backend else {
            unreachable!("per-round helper on per-round backend only");
        };
        let slot = edges.binary_search_by_key(&edge, |e| e.0);
        let (mut good, mut last) = match slot {
            Ok(i) => edges[i].1, // bound: binary_search hit
            Err(_) => (true, 0),
        };
        while last < round {
            let flip = if good { self.p_fail } else { self.p_recover };
            if self.rng.gen_bool(flip) {
                good = !good;
            }
            last += 1;
        }
        match slot {
            Ok(i) => edges[i].1 = (good, last), // bound: binary_search hit
            Err(i) => edges.insert(i, (edge, (good, last))),
        }
        good
    }
}

impl Adversary for BurstyDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let round = ctx.round;
        match &mut self.backend {
            BurstyBackend::PerRound { .. } => {
                for &v in ctx.network.unreliable_only_out(sender) {
                    if self.edge_good_per_round((sender, v), round) {
                        out.push(v);
                    }
                }
            }
            BurstyBackend::Csr { chains } => {
                let csr = ctx.network.unreliable_only_csr();
                let universe = ctx.network.unreliable_edge_universe();
                if chains.len() != universe {
                    assert!(
                        chains.is_empty(),
                        "a BurstyDelivery instance is bound to one network \
                         (or one schedule's edge-identity universe)"
                    );
                    chains.resize(
                        universe,
                        EdgeChain {
                            good: true,
                            next_flip: 0,
                        },
                    );
                }
                let ids = ctx.network.unreliable_edge_ids();
                let range = csr.row_range(sender);
                let row = csr.row(sender);
                for (flat, &v) in range.zip(row) {
                    let e = match ids {
                        Some(map) => map[flat] as usize,
                        None => flat,
                    };
                    let chain = &mut chains[e];
                    if chain.next_flip == 0 {
                        // Prime: first flip opportunity is round 1.
                        chain.next_flip =
                            1u64.saturating_add(geometric_gap(&mut self.rng, self.p_fail));
                    }
                    while chain.next_flip <= round {
                        chain.good = !chain.good;
                        let p = if chain.good {
                            self.p_fail
                        } else {
                            self.p_recover
                        };
                        chain.next_flip = chain
                            .next_flip
                            .saturating_add(1)
                            .saturating_add(geometric_gap(&mut self.rng, p));
                    }
                    if chain.good {
                        out.push(v);
                    }
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// A progress-blocking heuristic adversary: delivers an unreliable edge
/// `(u, v)` only when it *jams* — i.e. when `v` is still uninformed and
/// some other sender already reaches `v` through a reliable edge, so the
/// extra delivery turns a successful reception into a collision.
///
/// A lone sender's reliable edges always deliver (the adversary cannot
/// touch them), so algorithms that guarantee isolated senders (Strong
/// Select, Harmonic Broadcast) still make progress; algorithms that rely
/// on lucky simultaneous transmissions stall. This is the generic
/// worst-case-flavored adversary used by the upper-bound experiments.
#[derive(Debug, Clone, Default)]
pub struct CollisionSeeker {
    /// Round the `counts` buffer was computed for (`None` = never).
    cached_round: Option<u64>,
    /// Reliable-reach counts per node, reused round to round (zeroed in
    /// place, never reallocated in steady state).
    counts: Vec<u32>,
}

impl CollisionSeeker {
    /// Creates the jamming adversary.
    pub fn new() -> Self {
        CollisionSeeker::default()
    }

    fn reach_counts(&mut self, ctx: &RoundContext<'_>) -> &[u32] {
        let round = ctx.round;
        if self.cached_round != Some(round) {
            self.counts.clear();
            self.counts.resize(ctx.network.len(), 0);
            for &(u, _) in ctx.senders {
                for v in ctx.network.reliable_csr().row(u) {
                    self.counts[v.index()] += 1;
                }
            }
            self.cached_round = Some(round);
        }
        &self.counts
    }
}

impl Adversary for CollisionSeeker {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let counts = self.reach_counts(ctx);
        out.extend(
            ctx.network
                .unreliable_only_out(sender)
                .iter()
                .copied()
                .filter(|v| !ctx.informed.contains(v.index()) && counts[v.index()] >= 1),
        );
    }

    // CR4 collisions resolve to silence (the default): maximally unhelpful.

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Wraps an adversary, overriding only its `proc` assignment.
///
/// Lower-bound experiments search over assignments (e.g. which process id
/// sits on the Theorem 2 bridge) while keeping delivery behavior fixed.
#[derive(Debug, Clone)]
pub struct WithAssignment<A> {
    inner: A,
    node_to_proc: Vec<ProcessId>,
}

impl<A: Adversary> WithAssignment<A> {
    /// Overrides `inner`'s assignment with `node_to_proc`.
    pub fn new(inner: A, node_to_proc: Vec<ProcessId>) -> Self {
        WithAssignment {
            inner,
            node_to_proc,
        }
    }
}

impl<A: Adversary + Clone + 'static> Adversary for WithAssignment<A> {
    fn assign(&mut self, _network: &DualGraph, n_processes: usize) -> Assignment {
        assert_eq!(
            self.node_to_proc.len(),
            n_processes,
            "assignment length must match process count"
        );
        Assignment::from_node_to_proc(self.node_to_proc.clone())
            .expect("WithAssignment requires a permutation") // analyzer: allow(panic, reason = "invariant: WithAssignment constructors validate the permutation up front")
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.inner.unreliable_deliveries(ctx, sender, out);
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        self.inner.resolve_cr4(ctx, node, reaching)
    }

    fn edge_oracle(&self) -> Option<EdgeOracle> {
        self.inner.edge_oracle()
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Wraps a delivery adversary, overriding only its CR4 collision
/// resolution with the fair coin [`RandomDelivery`] uses: silence with
/// probability 1/2, else a uniformly random reaching message.
///
/// Built-ins whose `resolve_cr4` is the maximally-unhelpful default
/// ([`BurstyDelivery`], [`CollisionSeeker`]) deadlock flooding-style
/// workloads under CR4 — a node whose informed neighbors all transmit
/// never receives. Wrapping them keeps the link model (bursty chains,
/// jamming heuristics) while letting collision-heavy regimes make
/// progress, which the reliability bench's churn + fault workloads need.
#[derive(Debug, Clone)]
pub struct WithRandomCr4<A> {
    inner: A,
    rng: SmallRng,
}

impl<A: Adversary> WithRandomCr4<A> {
    /// Wraps `inner`, resolving CR4 collisions with a coin seeded by
    /// `seed` (independent of the inner adversary's stream).
    pub fn new(inner: A, seed: u64) -> Self {
        WithRandomCr4 {
            inner,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<A: Adversary + Clone + 'static> Adversary for WithRandomCr4<A> {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        self.inner.assign(network, n_processes)
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.inner.unreliable_deliveries(ctx, sender, out);
    }

    fn resolve_cr4(
        &mut self,
        _ctx: &RoundContext<'_>,
        _node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        if self.rng.gen_bool(0.5) {
            Cr4Resolution::Silence
        } else {
            Cr4Resolution::Deliver(self.rng.gen_range(0..reaching.len()))
        }
    }

    /// Forwards the inner delivery oracle; CR4 choices stay with this
    /// wrapper's stateful coin on the coordinator.
    fn edge_oracle(&self) -> Option<EdgeOracle> {
        self.inner
            .edge_oracle()
            .map(|o| o.with_cr4(Cr4Oracle::Adversary))
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::generators;

    fn ctx_fixture<'a>(
        net: &'a DualGraph,
        assignment: &'a Assignment,
        senders: &'a [(NodeId, Message)],
        informed: &'a FixedBitSet,
    ) -> RoundContext<'a> {
        RoundContext {
            round: 1,
            network: net,
            assignment,
            senders,
            informed,
        }
    }

    /// Collects an adversary's deliveries into a fresh vec (test shorthand
    /// for the scratch-buffer API).
    fn deliveries<A: Adversary>(
        adv: &mut A,
        ctx: &RoundContext<'_>,
        sender: NodeId,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        adv.unreliable_deliveries(ctx, sender, &mut out);
        out
    }

    #[test]
    fn assignment_identity_roundtrip() {
        let a = Assignment::identity(4);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.process_at(NodeId(2)), ProcessId(2));
        assert_eq!(a.node_of(ProcessId(3)), NodeId(3));
    }

    #[test]
    fn assignment_permutation() {
        let a =
            Assignment::from_node_to_proc(vec![ProcessId(2), ProcessId(0), ProcessId(1)]).unwrap();
        assert_eq!(a.process_at(NodeId(0)), ProcessId(2));
        assert_eq!(a.node_of(ProcessId(2)), NodeId(0));
        assert_eq!(a.node_of(ProcessId(1)), NodeId(2));
    }

    #[test]
    fn assignment_rejects_non_permutation() {
        assert!(Assignment::from_node_to_proc(vec![ProcessId(0), ProcessId(0)]).is_err());
        assert!(Assignment::from_node_to_proc(vec![ProcessId(5), ProcessId(0)]).is_err());
        let err = Assignment::from_node_to_proc(vec![ProcessId(1), ProcessId(1)]).unwrap_err();
        assert!(err.to_string().contains("permutation"));
    }

    #[test]
    fn reliable_only_never_delivers_unreliable() {
        let net = generators::line(4, 3).clone();
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        assert!(deliveries(&mut ReliableOnly::new(), &ctx, NodeId(0)).is_empty());
    }

    #[test]
    fn full_delivery_delivers_all() {
        let net = generators::line(4, 3);
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let d = deliveries(&mut FullDelivery::new(), &ctx, NodeId(0));
        assert_eq!(d, net.unreliable_only_out(NodeId(0)).to_vec());
        assert!(!d.is_empty());
    }

    #[test]
    fn random_delivery_extremes() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        assert!(deliveries(&mut RandomDelivery::new(0.0, 1), &ctx, NodeId(0)).is_empty());
        assert_eq!(
            deliveries(&mut RandomDelivery::new(1.0, 1), &ctx, NodeId(0)).len(),
            net.unreliable_only_out(NodeId(0)).len()
        );
    }

    #[test]
    fn random_delivery_deterministic_in_seed() {
        let net = generators::line(10, 9);
        let assignment = Assignment::identity(10);
        let informed = FixedBitSet::new(10);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut a = RandomDelivery::new(0.5, 99);
        let mut b = RandomDelivery::new(0.5, 99);
        for _ in 0..10 {
            assert_eq!(
                deliveries(&mut a, &ctx, NodeId(0)),
                deliveries(&mut b, &ctx, NodeId(0))
            );
        }
    }

    /// Empirical delivery rate of a delivery adversary over `rounds`
    /// queries of node 0's unreliable row.
    fn empirical_rate<A: Adversary>(adv: &mut A, net: &DualGraph, rounds: u64) -> f64 {
        let assignment = Assignment::identity(net.len());
        let informed = FixedBitSet::new(net.len());
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let row_len = net.unreliable_only_out(NodeId(0)).len() as f64;
        let mut delivered = 0usize;
        for round in 1..=rounds {
            let ctx = RoundContext {
                round,
                network: net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            delivered += deliveries(adv, &ctx, NodeId(0)).len();
        }
        delivered as f64 / (rounds as f64 * row_len)
    }

    #[test]
    fn random_delivery_rate_tracks_p() {
        // Same empirical per-edge delivery rate for the counter-based
        // oracle and the frozen per-edge sampler, across the p range.
        let net = generators::line(40, 39);
        for p in [0.03, 0.2, 0.5, 0.9] {
            let rounds = 4_000;
            let oracle = empirical_rate(&mut RandomDelivery::new(p, 11), &net, rounds);
            let per_edge = empirical_rate(&mut RandomDelivery::per_edge(p, 12), &net, rounds);
            // ~156k Bernoulli trials per series: 3 sigma is well under 0.01.
            assert!((oracle - p).abs() < 0.01, "oracle p={p}: rate {oracle}");
            assert!(
                (per_edge - p).abs() < 0.01,
                "per-edge p={p}: rate {per_edge}"
            );
        }
    }

    #[test]
    fn sender_and_receiver_side_oracle_agree_on_every_edge() {
        // A one-shard round asks the adversary sender by sender; a
        // sharded round evaluates the oracle over receivers' in-rows.
        // Both must select the same directed edges, round after round —
        // on a directed network, where the in-rows are a stored transpose.
        let net = one_way_gray(60, 4);
        assert!(!std::ptr::eq(
            net.unreliable_only_in_csr(),
            net.unreliable_only_csr()
        ));
        let assignment = Assignment::identity(net.len());
        let informed = FixedBitSet::new(net.len());
        let mut adv = RandomDelivery::new(0.5, 17);
        let oracle = adv.edge_oracle().unwrap();
        let mut delivered = 0usize;
        for round in 1..=50 {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &[],
                informed: &informed,
            };
            let mut sender_side = Vec::new();
            for u in net.nodes() {
                for v in deliveries(&mut adv, &ctx, u) {
                    sender_side.push((u, v));
                }
            }
            let at = oracle.round(round);
            let mut receiver_side = Vec::new();
            for v in net.nodes() {
                for &u in net.unreliable_only_in_csr().row(v) {
                    if at.delivers(u, v) {
                        receiver_side.push((u, v));
                    }
                }
            }
            receiver_side.sort_unstable();
            assert_eq!(sender_side, receiver_side, "round {round}");
            delivered += sender_side.len();
        }
        assert!(delivered > 0);
    }

    #[test]
    fn oracle_extremes_are_exact() {
        let net = generators::line(12, 11);
        let assignment = Assignment::identity(12);
        let informed = FixedBitSet::new(12);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let row = net.unreliable_only_out(NodeId(0)).to_vec();
        for round in 1..=50 {
            let ctx = RoundContext {
                round,
                ..ctx_fixture(&net, &assignment, &senders, &informed)
            };
            assert!(deliveries(&mut RandomDelivery::new(0.0, round), &ctx, NodeId(0)).is_empty());
            assert_eq!(
                deliveries(&mut RandomDelivery::new(1.0, round), &ctx, NodeId(0)),
                row
            );
        }
        assert_eq!(ReliableOnly::new().edge_oracle(), Some(EdgeOracle::NEVER));
        assert_eq!(FullDelivery::new().edge_oracle(), Some(EdgeOracle::ALWAYS));
        assert!(!EdgeOracle::NEVER.round(3).delivers(NodeId(0), NodeId(1)));
        assert!(EdgeOracle::ALWAYS.round(3).delivers(NodeId(0), NodeId(1)));
        // Stateful and adaptive adversaries keep the coordinator path.
        assert!(RandomDelivery::per_edge(0.5, 1).edge_oracle().is_none());
        assert!(BurstyDelivery::new(0.3, 0.3, 1).edge_oracle().is_none());
        assert!(CollisionSeeker::new().edge_oracle().is_none());
    }

    #[test]
    fn oracle_cr4_matches_resolve_cr4_and_survives_wrappers() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let reaching = [Message::signal(ProcessId(0)); 3];
        let mut adv = RandomDelivery::new(0.5, 8);
        let oracle = adv.edge_oracle().unwrap();
        for round in 1..=200 {
            let ctx = RoundContext {
                round,
                ..ctx_fixture(&net, &assignment, &[], &informed)
            };
            let node = NodeId((round % 6) as u32);
            let r = adv.resolve_cr4(&ctx, node, &reaching);
            // The adversary's answer is the oracle's, on any call order
            // (the coin's distribution is tested in `rng.rs`).
            assert_eq!(Some(r), oracle.round(round).resolve_cr4(node, 3));
        }
        // WithRandomCr4 keeps the deliveries but not the coin.
        let wrapped = WithRandomCr4::new(RandomDelivery::new(0.5, 8), 1)
            .edge_oracle()
            .unwrap();
        assert_eq!(wrapped.round(4).resolve_cr4(NodeId(0), 3), None);
        assert_eq!(wrapped.with_cr4(Cr4Oracle::Coin), oracle);
        let assigned =
            WithAssignment::new(RandomDelivery::new(0.5, 8), (0..6).map(ProcessId).collect());
        assert_eq!(assigned.edge_oracle(), Some(oracle));
    }

    #[test]
    fn oracle_decisions_follow_edge_identity_across_epochs() {
        // The surviving gray edge (0,3) moves from CSR position 1 to 0 of
        // node 0's row across the swap; its decisions key on the (u, v)
        // pair, so they match a run that never swapped.
        let a = path4(&[(0, 2), (0, 3)]);
        let b = path4(&[(0, 3), (1, 3)]);
        let schedule = dualgraph_net::TopologySchedule::new(vec![
            dualgraph_net::Epoch::new(a.clone(), 6),
            dualgraph_net::Epoch::new(b.clone(), 6),
        ])
        .unwrap();
        let swapped = bursty_rounds(
            &mut RandomDelivery::new(0.5, 21),
            schedule.epoch(0).network(),
            schedule.epoch(1).network(),
            7,
            40,
        );
        let only_a = bursty_rounds(&mut RandomDelivery::new(0.5, 21), &a, &a, 1, 40);
        let has = |d: &[u32], v: u32| d.contains(&v);
        for (round, (s, o)) in swapped.iter().zip(&only_a).enumerate() {
            assert_eq!(has(s, 3), has(o, 3), "edge (0,3), round {}", round + 1);
            if round < 6 {
                assert_eq!(s, o);
            } else {
                assert!(!has(s, 2));
            }
        }
        assert!(only_a.iter().any(|d| has(d, 3)) && only_a.iter().any(|d| !has(d, 3)));
    }

    #[test]
    fn per_edge_sampler_stream_is_frozen() {
        // Golden test: the per-edge sampler's seeded delivery pattern is
        // the PR 1/PR 2 stream and must never change (frozen-baseline
        // comparisons depend on it).
        let net = generators::line(10, 9);
        let assignment = Assignment::identity(10);
        let informed = FixedBitSet::new(10);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = RandomDelivery::per_edge(0.5, 99);
        let pattern: Vec<Vec<u32>> = (0..3)
            .map(|_| {
                deliveries(&mut adv, &ctx, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        assert_eq!(
            pattern,
            vec![vec![2, 4, 5], vec![4, 5, 6, 7, 8], vec![4, 5]]
        );
    }

    #[test]
    fn bursty_backends_share_the_stationary_distribution() {
        // Gilbert-Elliott stationary P(good) = p_recover / (p_fail +
        // p_recover). Both backends must converge to it.
        let net = generators::line(6, 5);
        let (p_fail, p_recover) = (0.2, 0.4);
        let expect = p_recover / (p_fail + p_recover);
        let rounds = 30_000;
        let flat = empirical_rate(
            &mut BurstyDelivery::new(p_fail, p_recover, 21),
            &net,
            rounds,
        );
        let legacy = empirical_rate(
            &mut BurstyDelivery::per_round(p_fail, p_recover, 22),
            &net,
            rounds,
        );
        assert!((flat - expect).abs() < 0.02, "flat backend rate {flat}");
        assert!(
            (legacy - expect).abs() < 0.02,
            "legacy backend rate {legacy}"
        );
    }

    #[test]
    fn bursty_flat_backend_skips_round_gaps() {
        // Chains advance over arbitrary round gaps: query at round 1, then
        // jump to round 10_000 — the chain must catch up without hanging
        // and still flap.
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let full = net.unreliable_only_out(NodeId(0)).len();
        let mut adv = BurstyDelivery::new(0.3, 0.3, 9);
        let mut seen_partial = false;
        for round in [1u64, 10_000, 10_001, 50_000, 50_001] {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            if deliveries(&mut adv, &ctx, NodeId(0)).len() < full {
                seen_partial = true;
            }
        }
        assert!(seen_partial, "chains never left the good state");
    }

    #[test]
    fn bursty_extreme_probabilities() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let full = net.unreliable_only_out(NodeId(0)).len();
        // p_fail = 0: links never leave the good state.
        let mut stable = BurstyDelivery::new(0.0, 0.5, 3);
        // p_fail = 1, p_recover = 1: links alternate every round.
        let mut flappy = BurstyDelivery::new(1.0, 1.0, 3);
        for round in 1..=20u64 {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            assert_eq!(deliveries(&mut stable, &ctx, NodeId(0)).len(), full);
            let flaps = deliveries(&mut flappy, &ctx, NodeId(0)).len();
            // good before round 1, flips every round: bad on odd rounds.
            assert_eq!(
                flaps,
                if round % 2 == 1 { 0 } else { full },
                "round {round}"
            );
        }
    }

    /// A directed dual graph: an undirected path as `G` plus up to three
    /// one-way gray edges per node, so `G′ ∖ G` is not symmetric.
    fn one_way_gray(n: usize, seed: u64) -> DualGraph {
        let mut g = dualgraph_net::Digraph::new(n);
        for i in 1..n {
            g.add_undirected_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
        }
        let mut total = g.clone();
        let mut h = seed;
        for u in 0..n {
            for _ in 0..3 {
                h = crate::rng::splitmix64(h);
                let v = (h % n as u64) as usize;
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                if u != v && !g.has_edge(u, v) {
                    total.add_edge(u, v);
                }
            }
        }
        DualGraph::new(g, total, NodeId(0)).unwrap()
    }

    /// A 4-node path dual graph with the given extra (gray) undirected
    /// pairs.
    fn path4(extra: &[(u32, u32)]) -> DualGraph {
        let mut g = dualgraph_net::Digraph::new(4);
        for i in 0..3u32 {
            g.add_undirected_edge(NodeId(i), NodeId(i + 1));
        }
        let mut total = g.clone();
        for &(u, v) in extra {
            total.add_undirected_edge(NodeId(u), NodeId(v));
        }
        DualGraph::new(g, total, NodeId(0)).unwrap()
    }

    /// Queries node 0's deliveries over `rounds`, switching the context
    /// network at `switch_round` (exclusive before, inclusive from).
    fn bursty_rounds<A: Adversary>(
        adv: &mut A,
        before: &DualGraph,
        after: &DualGraph,
        switch_round: u64,
        rounds: u64,
    ) -> Vec<Vec<u32>> {
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        (1..=rounds)
            .map(|round| {
                let net = if round < switch_round { before } else { after };
                let ctx = RoundContext {
                    round,
                    network: net,
                    assignment: &assignment,
                    senders: &senders,
                    informed: &informed,
                };
                deliveries(adv, &ctx, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bursty_chains_follow_edge_identity_across_epochs() {
        // Epoch A's gray pairs are {(0,2), (0,3)}; epoch B rewires (0,2)
        // away and adds (1,3). The directed edge (0,3) survives the churn
        // but moves from CSR position 1 of node 0's row to position 0:
        // under the old positional keying it silently inherited (0,2)'s
        // chain; under identity keying (the schedule-attached id map) it
        // keeps its own.
        let a = path4(&[(0, 2), (0, 3)]);
        let b = path4(&[(0, 3), (1, 3)]);
        let schedule = dualgraph_net::TopologySchedule::new(vec![
            dualgraph_net::Epoch::new(a.clone(), 6),
            dualgraph_net::Epoch::new(b.clone(), 6),
        ])
        .unwrap();
        let seed = 1234;
        let mut keyed = BurstyDelivery::new(0.5, 0.5, seed);
        let by_identity = bursty_rounds(
            &mut keyed,
            schedule.epoch(0).network(),
            schedule.epoch(1).network(),
            7,
            12,
        );
        // The raw epoch-B graph has no id map: flat CSR keying, i.e. the
        // pre-fix behavior where (0,3) silently adopts (0,2)'s chain.
        let mut positional = BurstyDelivery::new(0.5, 0.5, seed);
        let by_position = bursty_rounds(&mut positional, &a, &b, 7, 12);
        // Identical while the topology is epoch A (same chains, same ids).
        assert_eq!(by_identity[..6], by_position[..6]);
        // The keying difference is observable after the rewire (golden,
        // pinned so the identity contract cannot silently regress).
        assert_ne!(by_identity[6..], by_position[6..]);
        assert_eq!(
            by_identity,
            vec![
                vec![],
                vec![],
                vec![2],
                vec![],
                vec![],
                vec![2],
                vec![],
                vec![],
                vec![3],
                vec![],
                vec![3],
                vec![3],
            ],
        );
    }

    #[test]
    fn with_random_cr4_delegates_deliveries_and_flips_coins() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        // Deliveries delegate to the inner adversary untouched.
        let mut wrapped = WithRandomCr4::new(FullDelivery::new(), 3);
        assert_eq!(
            deliveries(&mut wrapped, &ctx, NodeId(0)),
            net.unreliable_only_out(NodeId(0)).to_vec()
        );
        // CR4 resolutions follow the seeded coin: over many collisions
        // both outcomes occur, deterministically in the seed.
        let reaching = [Message::signal(ProcessId(0)), Message::signal(ProcessId(1))];
        let run = |seed: u64| -> Vec<Cr4Resolution> {
            let mut adv = WithRandomCr4::new(BurstyDelivery::new(0.3, 0.3, 1), seed);
            (0..20)
                .map(|_| adv.resolve_cr4(&ctx, NodeId(5), &reaching))
                .collect()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert!(a.contains(&Cr4Resolution::Silence));
        assert!(a.iter().any(|r| matches!(r, Cr4Resolution::Deliver(_))));
    }

    #[test]
    fn cr4_default_is_silence() {
        let net = generators::line(3, 2);
        let assignment = Assignment::identity(3);
        let informed = FixedBitSet::new(3);
        let senders = [];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let reaching = [Message::signal(ProcessId(0)), Message::signal(ProcessId(1))];
        assert_eq!(
            ReliableOnly::new().resolve_cr4(&ctx, NodeId(2), &reaching),
            Cr4Resolution::Silence
        );
    }

    #[test]
    fn bursty_links_flap_and_replay() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let mut seen_partial = false;
        // High fail rate: over many rounds some deliveries must drop.
        let mut adv = BurstyDelivery::new(0.4, 0.4, 3);
        let full = net.unreliable_only_out(NodeId(0)).len();
        for round in 1..50 {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            if deliveries(&mut adv, &ctx, NodeId(0)).len() < full {
                seen_partial = true;
            }
        }
        assert!(seen_partial, "bursty adversary never dropped a delivery");
    }

    #[test]
    fn collision_seeker_jams_only_contested_uninformed_nodes() {
        // Line 0-1-2-3-4 with chords up to distance 4 in G'.
        let net = generators::line(5, 4);
        let assignment = Assignment::identity(5);
        let mut informed = FixedBitSet::new(5);
        informed.insert(0);
        informed.insert(1);
        let mut adv = CollisionSeeker::new();

        // Senders 0 and 1: node 2 is reached reliably by 1; node 2 is also
        // an unreliable target of 0 -> jam it. Node 3 is an unreliable
        // target of both but reached reliably by nobody -> leave silent.
        let senders = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let d0 = deliveries(&mut adv, &ctx, NodeId(0));
        assert!(d0.contains(&NodeId(2)), "jam the contested node 2: {d0:?}");
        assert!(!d0.contains(&NodeId(3)), "never help node 3: {d0:?}");
        assert!(!d0.contains(&NodeId(4)));

        // Lone sender: nothing to jam.
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = CollisionSeeker::new();
        assert!(deliveries(&mut adv, &ctx, NodeId(0)).is_empty());
    }

    #[test]
    fn collision_seeker_ignores_informed_targets() {
        let net = generators::line(4, 3);
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::full(4);
        let senders = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = CollisionSeeker::new();
        assert!(deliveries(&mut adv, &ctx, NodeId(0)).is_empty());
        assert!(deliveries(&mut adv, &ctx, NodeId(1)).is_empty());
    }

    #[test]
    fn with_assignment_overrides() {
        let net = generators::line(3, 2);
        let mut adv = WithAssignment::new(
            ReliableOnly::new(),
            vec![ProcessId(2), ProcessId(1), ProcessId(0)],
        );
        let a = adv.assign(&net, 3);
        assert_eq!(a.process_at(NodeId(0)), ProcessId(2));
    }

    #[test]
    fn lone_sender_helper() {
        let net = generators::line(3, 2);
        let assignment = Assignment::identity(3);
        let informed = FixedBitSet::new(3);
        let one = [(NodeId(1), Message::signal(ProcessId(1)))];
        let ctx = ctx_fixture(&net, &assignment, &one, &informed);
        assert_eq!(ctx.lone_sender().map(|s| s.0), Some(NodeId(1)));
        let two = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &two, &informed);
        assert!(ctx.lone_sender().is_none());
    }
}
