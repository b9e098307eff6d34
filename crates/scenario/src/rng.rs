//! The seeded random stream shared by the scenario evaluator and the
//! fleet's population sampler.
//!
//! Same SplitMix64 core as `circuit::fault`'s generator, which keeps a
//! private copy because `circuit` sits below this crate. Every draw comes
//! from a stream advanced in a fixed program order, so `(script, seed)` —
//! or a fleet's `(spec, seed)` — always yields the same result, bit for
//! bit, with no wall clock and no global state.

/// Advances `state` and returns the next 64-bit output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` with 53-bit resolution.
pub fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// Picks an index with probability proportional to `weights` (all
/// non-negative; a zero-sum weight vector picks the last index).
pub fn pick_weighted(state: &mut u64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut draw = uniform(state, 0.0, total.max(f64::MIN_POSITIVE));
    for (i, &w) in weights.iter().enumerate() {
        draw -= w;
        if draw < 0.0 {
            return i;
        }
    }
    weights.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut state = 7u64;
        for _ in 0..1000 {
            let v = uniform(&mut state, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut state = 9u64;
        for _ in 0..200 {
            assert_eq!(pick_weighted(&mut state, &[0.0, 1.0, 0.0]), 1);
        }
    }
}
