//! Seed streams: the workspace's one SplitMix64. NAS training seeds, fleet
//! node seeds, population and fault-plan draws and scenario instances all
//! come from here, so a run replays bit for bit from `(spec, seed, index)`.

/// The SplitMix64 increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of stream `(cycle, index)` from a base seed. `cycle`
/// is a registered tag (NAS search cycle, `FLEET_SEED_CYCLE`, …), so
/// consumers sharing a base seed never share a stream.
pub fn derive_seed(base_seed: u64, cycle: usize, index: usize) -> u64 {
    mix64(mix64(base_seed ^ mix64(cycle as u64)) ^ mix64((index as u64) ^ 0xA5A5_A5A5_A5A5_A5A5))
}

/// Advances `state` and returns the next 64-bit output of its stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
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

    /// Tags registered by the fleet and scenario crates, restated here
    /// because `sim` sits below both.
    const FLEET_SEED_CYCLE: usize = 0xF1EE7;
    const SCENARIO_STREAM_TAG: usize = 0x5CE2_AA10;

    /// Outputs of the pre-consolidation implementations (the NAS engine's
    /// `derive_seed`, the scenario crate's stream helpers). Every golden
    /// report in the workspace rests on these values.
    #[test]
    fn golden_derive_seed() {
        let table: [(u64, usize, usize, u64); 9] = [
            (0, 0, 0, 0x8f74_30bc_2b76_f9de),
            (0xE7A5, 3, 5, 0xc52d_25ec_946d_af0c),
            (7, FLEET_SEED_CYCLE, 0, 0x3b39_9ea5_0665_519f),
            (7, FLEET_SEED_CYCLE, 3, 0x4a3e_c5be_973a_e066),
            (42, FLEET_SEED_CYCLE, 1, 0x335c_56a9_1e6f_3431),
            (0xF1EE7, FLEET_SEED_CYCLE, 255, 0x3028_df91_024a_f111),
            (7, SCENARIO_STREAM_TAG, 0, 0x5033_7758_a9ef_61bf),
            (7, SCENARIO_STREAM_TAG, 12, 0x0b81_ba35_c414_8b8e),
            (u64::MAX, usize::MAX, usize::MAX, 0x88d4_0a11_c714_f6f8),
        ];
        for (base, cycle, index, want) in table {
            assert_eq!(
                derive_seed(base, cycle, index),
                want,
                "derive_seed({base:#x}, {cycle:#x}, {index})"
            );
        }
    }

    #[test]
    fn golden_splitmix64_stream() {
        let mut state = 0u64;
        let got: Vec<u64> = (0..4).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
        assert_eq!(state, 0x78dd_e6e5_fd29_f054);
        let mut state = 42u64;
        let got: Vec<u64> = (0..4).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
            ]
        );
    }

    #[test]
    fn golden_uniform_and_pick_weighted() {
        let mut state = 7u64;
        let got: Vec<u64> = (0..4)
            .map(|_| uniform(&mut state, -2.0, 3.0).to_bits())
            .collect();
        assert_eq!(
            got,
            [
                0xbfaa_092d_1484_0bc0,
                0xbffe_a82c_fc83_ad22,
                0x4004_07ca_141d_2bae,
                0x3fed_44d3_2640_86d8,
            ]
        );
        let mut state = 9u64;
        let picks: Vec<usize> = (0..16)
            .map(|_| pick_weighted(&mut state, &[1.0, 2.0, 0.0, 4.0]))
            .collect();
        assert_eq!(picks, [3, 3, 1, 3, 1, 0, 3, 3, 1, 3, 3, 1, 3, 1, 3, 3]);
        assert_eq!(state, 0xe377_9b97_f4a7_c159);
        let mut state = 9u64;
        assert_eq!(pick_weighted(&mut state, &[0.0, 0.0, 0.0]), 2);
        assert_eq!(pick_weighted(&mut state, &[]), 0);
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
