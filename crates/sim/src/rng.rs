//! Deterministic seed derivation.
//!
//! A single master seed drives an entire experiment; every (process,
//! execution, adversary) combination derives its own independent stream via
//! SplitMix64, so adding one more process never perturbs the randomness of
//! the others — crucial for reproducible sweeps. The oblivious
//! adversaries' decisions go one step further: each is a pure hash of
//! (seed, round, edge or node), with no stream at all (see `round_key`).

/// One SplitMix64 step: maps a state to a well-mixed 64-bit output.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (the `splitmix64` finalizer).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the sub-seed for logical `stream` under `master`.
///
/// Distinct `(master, stream)` pairs give (with overwhelming probability)
/// distinct, independent-looking seeds.
///
/// # Examples
///
/// ```
/// use dualgraph_sim::rng::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(master) ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Derives a per-(stream, substream) seed, e.g. (process, retry).
#[inline]
pub fn derive_seed2(master: u64, stream: u64, substream: u64) -> u64 {
    derive_seed(derive_seed(master, stream), substream)
}

/// The key of round `round`'s counter-based draws under `seed`.
///
/// Counter-based generation (Salmon et al., "Parallel Random Numbers: As
/// Easy as 1, 2, 3", SC'11) replaces a stateful stream by a pure function
/// of a key and a counter: a decision of round `t` hashes its counter —
/// an edge `(u, v)` or a node — against `round_key(seed, t)`. No draw
/// depends on how many draws came before it, so any thread may evaluate
/// any decision, in any order, and get the same answer.
#[inline]
pub(crate) fn round_key(seed: u64, round: u64) -> u64 {
    derive_seed(seed, round)
}

/// The counter-based hash of the directed pair `(u, v)` under a round
/// key: the pair is packed into one 64-bit counter and finalized by
/// [`splitmix64`].
#[inline]
fn edge_hash(key: u64, u: u32, v: u32) -> u64 {
    splitmix64(key ^ ((u64::from(u) << 32) | u64::from(v)))
}

/// A Bernoulli(`p`) acceptance test on one raw 64-bit hash or draw:
/// accepts when `x < ⌊p·2^64⌋`. `p = 0` never accepts; `p = 1` always
/// accepts, including `x = u64::MAX`, which the strict comparison alone
/// would lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bernoulli {
    threshold: u64,
    always: bool,
}

impl Bernoulli {
    /// The test that never accepts (`p = 0`).
    pub(crate) const NEVER: Bernoulli = Bernoulli {
        threshold: 0,
        always: false,
    };

    /// The test that always accepts (`p = 1`).
    pub(crate) const ALWAYS: Bernoulli = Bernoulli {
        threshold: u64::MAX,
        always: true,
    };

    /// The test with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub(crate) fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0,1]");
        Bernoulli {
            // Saturating cast: p just below 1 may round up to 2^64.
            threshold: (p * (u64::MAX as f64 + 1.0)) as u64,
            always: p >= 1.0,
        }
    }

    /// `true` when `x` falls in the acceptance region. Branch-free.
    #[inline]
    pub(crate) fn accepts(self, x: u64) -> bool {
        (x < self.threshold) | self.always
    }

    /// `true` for `p = 1`.
    #[inline]
    pub(crate) fn is_always(self) -> bool {
        self.always
    }

    /// `true` for `p = 0`.
    #[inline]
    pub(crate) fn is_never(self) -> bool {
        self.threshold == 0 && !self.always
    }
}

/// Whether edge `(u, v)` delivers in the round keyed `key` (see
/// [`round_key`]) under the per-edge test `p`: the oblivious adversaries'
/// counter-based delivery oracle. A pure function of its arguments.
#[inline]
pub(crate) fn edge_delivers(key: u64, u: u32, v: u32, p: Bernoulli) -> bool {
    p.accepts(edge_hash(key, u, v))
}

/// The counter-based fair CR4 coin at `node` under a round key, over a
/// reaching set of `len ≥ 1` messages: `None` (silence) with probability
/// 1/2, else `Some(i)` with `i` uniform in `0..len` (the top hash bit
/// flips the coin; the low 32 bits pick the index by multiply-shift).
#[inline]
pub(crate) fn cr4_pick(key: u64, node: u32, len: usize) -> Option<usize> {
    let h = splitmix64(key ^ u64::from(node));
    if h >> 63 == 1 {
        None
    } else {
        Some((((h & 0xFFFF_FFFF) * len as u64) >> 32) as usize)
    }
}

/// Maps one raw 64-bit draw to a Geometric(`p`) **gap** — the number of
/// Bernoulli(`p`) failures before the next success — by inversion:
/// `⌊ln(U) / ln(1−p)⌋` with `U` uniform in `(0, 1]` (53 mantissa bits,
/// nudged off zero so `ln` stays finite).
///
/// This is the one copy of the numerically delicate formula behind every
/// geometric skip sampler in the workspace (the bursty link chains,
/// Poisson stream arrivals).
/// `p <= 0` yields `u64::MAX` (never succeeds), `p >= 1` yields `0`
/// (succeeds immediately).
#[inline]
pub fn geometric_gap_from_bits(bits: u64, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    let u = ((bits >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    let gap = u.ln() / (1.0 - p).ln();
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_eq!(derive_seed2(1, 2, 3), derive_seed2(1, 2, 3));
    }

    #[test]
    fn distinct_streams_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn distinct_masters_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|m| derive_seed(m, 0)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn zero_is_not_fixed_point() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn edge_oracle_rate_tracks_p() {
        // 200 rounds × 1000 edges = 200k trials per p: 3 sigma < 0.004.
        for p in [0.03, 0.2, 0.5, 0.9] {
            let test = Bernoulli::new(p);
            let mut hits = 0u32;
            for round in 1..=200 {
                let key = round_key(11, round);
                for u in 0..40 {
                    for v in 0..25 {
                        hits += u32::from(edge_delivers(key, u, v, test));
                    }
                }
            }
            let rate = f64::from(hits) / 200_000.0;
            assert!((rate - p).abs() < 0.005, "p={p}: rate {rate}");
        }
    }

    #[test]
    fn bernoulli_extremes_are_exact() {
        for x in [0, 1, 1 << 63, u64::MAX - 1, u64::MAX] {
            assert!(!Bernoulli::new(0.0).accepts(x));
            assert!(!Bernoulli::NEVER.accepts(x));
            assert!(Bernoulli::new(1.0).accepts(x), "p = 1 must accept {x}");
            assert!(Bernoulli::ALWAYS.accepts(x));
        }
        assert_eq!(Bernoulli::new(0.0), Bernoulli::NEVER);
        assert_eq!(Bernoulli::new(1.0), Bernoulli::ALWAYS);
        assert!(Bernoulli::NEVER.is_never() && !Bernoulli::NEVER.is_always());
        assert!(Bernoulli::ALWAYS.is_always() && !Bernoulli::ALWAYS.is_never());
        // The largest p below 1 is a plain threshold test: 2^64 - 2^11.
        let near = Bernoulli::new(1.0 - f64::EPSILON / 2.0);
        assert!(!near.is_always());
        assert!(near.accepts(u64::MAX - 2048) && !near.accepts(u64::MAX - 2047));
    }

    #[test]
    #[should_panic(expected = "probability must lie in [0,1]")]
    fn bernoulli_rejects_out_of_range() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn edge_hash_separates_direction_and_rounds() {
        let key = round_key(3, 9);
        assert_ne!(edge_hash(key, 1, 2), edge_hash(key, 2, 1));
        assert_ne!(edge_hash(key, 1, 2), edge_hash(round_key(3, 10), 1, 2));
        assert_ne!(edge_hash(key, 1, 2), edge_hash(round_key(4, 9), 1, 2));
    }

    #[test]
    fn cr4_pick_is_in_range_and_silent_about_half_the_time() {
        let mut silent = 0u32;
        let mut counts = [0u32; 3];
        for round in 1..=100 {
            let key = round_key(5, round);
            for node in 0..100 {
                match cr4_pick(key, node, 3) {
                    None => silent += 1,
                    Some(i) => counts[i] += 1, // panics if i >= 3
                }
                assert_eq!(cr4_pick(key, node, 3), cr4_pick(key, node, 3));
                assert!(cr4_pick(key, node, 1).is_none_or(|i| i == 0));
            }
        }
        // 10k coins: 3 sigma is 150.
        assert!((silent as i64 - 5_000).abs() < 200, "silent {silent}");
        for c in counts {
            assert!((c as i64 - 1_667).abs() < 150, "index counts {counts:?}");
        }
    }
}
