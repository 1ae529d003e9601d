//! The steady-state allocation contract of the round pipeline: once an
//! executor's scratch buffers have grown to their working size, a
//! one-shard [`Executor::step`] allocates nothing.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The binary
//! holds a single test, so no other test thread allocates while a window
//! is counted. The workload is a chatter population run to completion:
//! after that `RoundSummary::newly_informed` — the one documented
//! per-round allocation — stays empty, so any allocation counted is a
//! regression (a per-round `thread::scope`, a collected `Vec`, a scratch
//! buffer rebuilt instead of reused).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dualgraph_net::generators;
use dualgraph_sim::{
    ChatterProcess, CollisionRule, Executor, ExecutorConfig, RandomDelivery, StartRule,
};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rounds run after completion before counting starts: long enough for
/// every scratch buffer to reach the largest size the seeded run needs.
const WARM_UP: u64 = 1_000;
/// Rounds counted per configuration.
const COUNTED: u64 = 300;

#[test]
fn one_shard_rounds_allocate_nothing_in_steady_state() {
    let net = generators::er_dual(
        generators::ErDualParams {
            n: 200,
            reliable_p: 0.02,
            unreliable_p: 0.05,
        },
        17,
    );
    for rule in CollisionRule::ALL {
        for start in [StartRule::Synchronous, StartRule::Asynchronous] {
            let mut exec = Executor::from_slots(
                &net,
                ChatterProcess::slots(net.len(), 7, 3),
                Box::new(RandomDelivery::new(0.5, 23)),
                ExecutorConfig {
                    rule,
                    start,
                    ..ExecutorConfig::default()
                },
            )
            .unwrap();
            let outcome = exec.run_until_complete(100_000);
            assert!(outcome.completed, "{rule}, {start}: chatter must complete");
            exec.run_rounds(WARM_UP);

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let mut senders = 0;
            for _ in 0..COUNTED {
                let summary = exec.step();
                assert!(summary.newly_informed.is_empty());
                senders += summary.senders;
            }
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert!(senders > 0, "{rule}, {start}: the window must transmit");
            assert_eq!(
                allocations, 0,
                "{rule}, {start}: {allocations} allocations in {COUNTED} steady-state rounds"
            );
        }
    }
}
