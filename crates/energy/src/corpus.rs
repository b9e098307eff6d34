//! Measurement corpora: the "300 random measurements" the paper fits its
//! energy models on (§IV-A), generated against the simulated device.

use rand::Rng;
use solarml_dsp::{AudioFrontendParams, GestureSensingParams, Resolution};
use solarml_nn::{ArchSampler, ModelSpec};

use crate::device::{AudioSensingGround, GestureSensingGround, InferenceGround};

/// A fitted-model corpus: feature vectors, measured targets (in µJ), and the
/// noise-free ground truth for error evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Feature vectors (what the estimator sees).
    pub features: Vec<Vec<f64>>,
    /// Noisy measured energies in microjoules (fitting targets).
    pub measured_uj: Vec<f64>,
    /// Noise-free true energies in microjoules (evaluation reference).
    pub true_uj: Vec<f64>,
}

impl Corpus {
    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Splits into `(train, test)` at `n` (generation order).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n < len`.
    pub fn split_at(&self, n: usize) -> (Corpus, Corpus) {
        assert!(
            n > 0 && n < self.len(),
            "split must leave both halves non-empty"
        );
        let take = |range: std::ops::Range<usize>| Corpus {
            features: self.features[range.clone()].to_vec(),
            measured_uj: self.measured_uj[range.clone()].to_vec(),
            true_uj: self.true_uj[range].to_vec(),
        };
        (take(0..n), take(n..self.len()))
    }
}

/// Generates `n` random-model inference measurements. Returns the corpus
/// (features = layer-wise MACs in [`solarml_nn::LayerClass::ALL`] order)
/// and the sampled specs (so alternative feature encodings, e.g. total
/// MACs, can be derived).
pub fn inference_corpus(
    n: usize,
    ground: &InferenceGround,
    sampler: &ArchSampler,
    rng: &mut impl Rng,
) -> (Corpus, Vec<ModelSpec>) {
    inference_corpus_banded(n, ground, sampler, None, rng)
}

/// Like [`inference_corpus`], but rejection-samples architectures into a
/// total-MAC band.
///
/// The paper's measurement corpus consists of comparable-scale tinyML
/// models whose *layer mixes* differ; banding reproduces that property
/// (without it, model size dominates the variance and even the
/// total-MACs baseline looks deceptively good).
///
/// # Panics
///
/// Panics if fewer than one in ~500 samples lands in the band (misconfigured
/// band for the sampler's space).
pub fn inference_corpus_banded(
    n: usize,
    ground: &InferenceGround,
    sampler: &ArchSampler,
    mac_band: Option<(u64, u64)>,
    rng: &mut impl Rng,
) -> (Corpus, Vec<ModelSpec>) {
    let mut corpus = Corpus {
        features: Vec::with_capacity(n),
        measured_uj: Vec::with_capacity(n),
        true_uj: Vec::with_capacity(n),
    };
    let mut specs = Vec::with_capacity(n);
    let mut rejections = 0usize;
    while specs.len() < n {
        let spec = sampler.sample(rng);
        if let Some((lo, hi)) = mac_band {
            let total = spec.mac_summary().total();
            if total < lo || total > hi {
                rejections += 1;
                assert!(
                    rejections < 500 * n,
                    "MAC band {mac_band:?} rejects nearly all samples"
                );
                continue;
            }
        }
        corpus
            .features
            .push(spec.mac_summary().as_features().to_vec());
        corpus
            .measured_uj
            .push(ground.measure(&spec, rng).as_micro_joules());
        corpus
            .true_uj
            .push(ground.true_energy(&spec).as_micro_joules());
        specs.push(spec);
    }
    (corpus, specs)
}

/// Feature encoding for the gesture sensing model: the raw Table II
/// parameters `(n, r, b, q)` plus the `n·r` sample-stream interaction the
/// ADC cost is linear in.
pub fn gesture_features(params: &GestureSensingParams) -> Vec<f64> {
    let n = params.channels() as f64;
    let r = params.rate().as_hertz();
    let b = match params.resolution() {
        Resolution::Int => 0.0,
        Resolution::Float => 1.0,
    };
    let q = params.quant_bits() as f64;
    vec![n, r, b, q, n * r, n * r * q]
}

/// Generates `n` random gesture-sensing measurements.
pub fn gesture_sensing_corpus(
    n: usize,
    ground: &GestureSensingGround,
    rng: &mut impl Rng,
) -> (Corpus, Vec<GestureSensingParams>) {
    let mut corpus = Corpus {
        features: Vec::with_capacity(n),
        measured_uj: Vec::with_capacity(n),
        true_uj: Vec::with_capacity(n),
    };
    let mut configs = Vec::with_capacity(n);
    for _ in 0..n {
        let params = random_gesture_params(rng);
        corpus.features.push(gesture_features(&params));
        corpus
            .measured_uj
            .push(ground.measure(&params, rng).as_micro_joules());
        corpus
            .true_uj
            .push(ground.true_energy(&params).as_micro_joules());
        configs.push(params);
    }
    (corpus, configs)
}

/// Samples a uniformly random valid gesture parameterization (Table II).
pub fn random_gesture_params(rng: &mut impl Rng) -> GestureSensingParams {
    let channels = rng.gen_range(1..=9u8);
    let rate = rng.gen_range(10..=200u16);
    let (resolution, quant) = if rng.gen_bool(0.5) {
        (Resolution::Int, rng.gen_range(1..=8u8))
    } else {
        (Resolution::Float, rng.gen_range(9..=32u8))
    };
    #[allow(
        clippy::expect_used,
        reason = "RNG ranges are the constructor's exact validity domain (Table II)"
    )]
    GestureSensingParams::new(channels, rate, resolution, quant).expect("ranges are valid")
}

/// Feature encoding for the audio sensing model: raw `(s, d, f)` plus the
/// frame count and per-frame DCT load the MFCC cost is linear in.
pub fn audio_features(params: &AudioFrontendParams, clip_ms: u32) -> Vec<f64> {
    let s = params.stripe_ms() as f64;
    let d = params.duration_ms() as f64;
    let f = params.features() as f64;
    let frames = params.frames_for_clip(clip_ms) as f64;
    vec![s, d, f, frames, frames * f * f]
}

/// Generates `n` random audio-sensing measurements.
pub fn audio_sensing_corpus(
    n: usize,
    ground: &AudioSensingGround,
    rng: &mut impl Rng,
) -> (Corpus, Vec<AudioFrontendParams>) {
    let mut corpus = Corpus {
        features: Vec::with_capacity(n),
        measured_uj: Vec::with_capacity(n),
        true_uj: Vec::with_capacity(n),
    };
    let mut configs = Vec::with_capacity(n);
    for _ in 0..n {
        let params = random_audio_params(rng);
        corpus
            .features
            .push(audio_features(&params, ground.clip_ms));
        corpus
            .measured_uj
            .push(ground.measure(&params, rng).as_micro_joules());
        corpus
            .true_uj
            .push(ground.true_energy(&params).as_micro_joules());
        configs.push(params);
    }
    (corpus, configs)
}

/// Samples a uniformly random valid audio parameterization (Table II).
pub fn random_audio_params(rng: &mut impl Rng) -> AudioFrontendParams {
    let s = rng.gen_range(10..=30u8);
    let d = rng.gen_range(18..=30u8);
    let f = rng.gen_range(10..=40u8);
    #[allow(
        clippy::expect_used,
        reason = "RNG ranges are the constructor's exact validity domain (Table II)"
    )]
    AudioFrontendParams::new(s, d, f).expect("ranges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use solarml_nn::ArchSampler;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn inference_corpus_has_consistent_lengths() {
        let sampler = ArchSampler::for_task([20, 9, 1], 10);
        let (corpus, specs) =
            inference_corpus(30, &InferenceGround::default(), &sampler, &mut rng());
        assert_eq!(corpus.len(), 30);
        assert_eq!(specs.len(), 30);
        assert!(corpus.features.iter().all(|f| f.len() == 6));
        assert!(corpus.measured_uj.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn measured_close_to_truth() {
        let sampler = ArchSampler::for_task([20, 9, 1], 10);
        let ground = InferenceGround::default();
        let (corpus, _) = inference_corpus(50, &ground, &sampler, &mut rng());
        for (m, t) in corpus.measured_uj.iter().zip(&corpus.true_uj) {
            assert!(((m - t) / t).abs() <= ground.measurement_noise + 1e-9);
        }
    }

    #[test]
    fn gesture_corpus_features_match_encoding() {
        let (corpus, configs) =
            gesture_sensing_corpus(20, &GestureSensingGround::default(), &mut rng());
        for (f, p) in corpus.features.iter().zip(&configs) {
            assert_eq!(f, &gesture_features(p));
        }
    }

    #[test]
    fn audio_corpus_within_table_ranges() {
        let (_, configs) = audio_sensing_corpus(50, &AudioSensingGround::default(), &mut rng());
        for p in configs {
            assert!(AudioFrontendParams::STRIPE_RANGE.contains(&p.stripe_ms()));
            assert!(AudioFrontendParams::DURATION_RANGE.contains(&p.duration_ms()));
            assert!(AudioFrontendParams::FEATURE_RANGE.contains(&p.features()));
        }
    }

    #[test]
    fn split_partitions() {
        let (corpus, _) = gesture_sensing_corpus(20, &GestureSensingGround::default(), &mut rng());
        let (a, b) = corpus.split_at(15);
        assert_eq!(a.len(), 15);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn bad_split_panics() {
        let (corpus, _) = gesture_sensing_corpus(5, &GestureSensingGround::default(), &mut rng());
        let _ = corpus.split_at(5);
    }
}
