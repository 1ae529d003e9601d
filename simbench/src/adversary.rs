//! The timing [`Adversary`] decorator of the traced run.
//!
//! [`TimedAdversary`] forwards every trait method to the wrapped adversary
//! unchanged — same arguments, same order, same outputs — so a run with it
//! is the same execution as a run without it. Around the two per-round
//! hooks it adds host-time and count accounting into a shared
//! [`AdversaryCounters`], which the benchmark drains once per step: the
//! adversary layer is traced as per-step counters, not one span per call.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use dualgraph_net::{DualGraph, NodeId};
use dualgraph_sim::{Adversary, Assignment, Cr4Resolution, Message, RoundContext};

/// Adversary activity accumulated since the last [`AdversaryCounters::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryTally {
    /// `unreliable_deliveries` calls (one per transmitting node).
    pub deliveries_calls: u64,
    /// Host nanoseconds inside `unreliable_deliveries`.
    pub deliveries_ns: u64,
    /// Unreliable-only targets the adversary delivered to.
    pub delivered: u64,
    /// `resolve_cr4` calls (one per CR4 collision at a non-sender).
    pub cr4_calls: u64,
    /// Host nanoseconds inside `resolve_cr4`.
    pub cr4_ns: u64,
}

impl AdversaryTally {
    /// Host nanoseconds inside the adversary.
    pub fn ns(&self) -> u64 {
        self.deliveries_ns + self.cr4_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: AdversaryTally) {
        self.deliveries_calls += other.deliveries_calls;
        self.deliveries_ns += other.deliveries_ns;
        self.delivered += other.delivered;
        self.cr4_calls += other.cr4_calls;
        self.cr4_ns += other.cr4_ns;
    }
}

/// Counters shared between a [`TimedAdversary`] (and its clones) and the
/// benchmark that reads them. Single-threaded by construction: the
/// engines call the adversary from the coordinating thread only.
#[derive(Debug, Default)]
pub struct AdversaryCounters {
    tally: Cell<AdversaryTally>,
}

impl AdversaryCounters {
    /// Returns the activity since the previous call and resets it.
    pub fn take(&self) -> AdversaryTally {
        self.tally.take()
    }

    fn record(&self, update: impl FnOnce(&mut AdversaryTally)) {
        let mut t = self.tally.get();
        update(&mut t);
        self.tally.set(t);
    }
}

/// Outcome-transparent timing decorator around any adversary.
#[derive(Debug)]
pub struct TimedAdversary {
    inner: Box<dyn Adversary>,
    counters: Rc<AdversaryCounters>,
}

impl TimedAdversary {
    /// Wraps `inner`, accounting into `counters`.
    pub fn new(inner: Box<dyn Adversary>, counters: Rc<AdversaryCounters>) -> Self {
        TimedAdversary { inner, counters }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Adversary for TimedAdversary {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        self.inner.assign(network, n_processes)
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.unreliable_deliveries(ctx, sender, out);
        let ns = elapsed_ns(start);
        let delivered = (out.len() - before) as u64;
        self.counters.record(|t| {
            t.deliveries_calls += 1;
            t.deliveries_ns += ns;
            t.delivered += delivered;
        });
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        let start = Instant::now();
        let resolution = self.inner.resolve_cr4(ctx, node, reaching);
        let ns = elapsed_ns(start);
        self.counters.record(|t| {
            t.cr4_calls += 1;
            t.cr4_ns += ns;
        });
        resolution
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(TimedAdversary {
            inner: self.inner.clone_box(),
            counters: Rc::clone(&self.counters),
        })
    }
}
