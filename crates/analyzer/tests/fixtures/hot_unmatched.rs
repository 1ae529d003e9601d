//! Fixture for the workspace-wide `hot-unmatched` check. Of the hot names
//! `Executor::step_traced`, `resolve_chunk` and
//! `ShardedExecutor::sample_extras`, the first two name functions here;
//! the third names nothing — a free `sample_extras` does not match a
//! qualified entry. The waiver below cannot reach a finding filed against
//! the config file.

struct Executor;

impl Executor {
    // analyzer: allow(hot-unmatched, reason = "fixture: a source waiver cannot cover a config entry")
    fn step_traced(&mut self) {}
}

fn resolve_chunk() {}

fn sample_extras() {}
