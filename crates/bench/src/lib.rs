//! Shared helpers for the figure/table regenerators.
//!
//! Every `benches/<id>.rs` target regenerates one table or figure of the
//! paper as text output (rows/series), so `cargo bench --workspace` rebuilds
//! the full evaluation. Set `SOLARML_FULL=1` to run the search-based
//! experiments (Fig. 10, end-to-end) at the paper's full scale instead of
//! the quick defaults.

use solarml::dsp::{AudioFrontendParams, GestureSensingParams, Resolution};
use solarml::nn::{LayerSpec, ModelSpec, Padding};
use solarml::platform::TaskProfile;

/// Whether full-scale (paper-setting) runs were requested.
pub fn full_scale() -> bool {
    std::env::var("SOLARML_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints a figure/table header.
pub fn header(id: &str, caption: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// The reference µNAS-scale gesture task used by Figs. 1/2/6.
#[allow(
    clippy::expect_used,
    reason = "literal reference configs are valid by inspection"
)]
pub fn reference_gesture_task() -> TaskProfile {
    let params = GestureSensingParams::new(9, 100, Resolution::Int, 8)
        .expect("reference gesture params are valid");
    let spec = ModelSpec::new(
        [200, 9, 1],
        vec![
            LayerSpec::conv(8, 3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::max_pool(2),
            LayerSpec::conv(8, 3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::max_pool(2),
            LayerSpec::flatten(),
            LayerSpec::dense(10),
        ],
    )
    .expect("reference gesture model is valid");
    TaskProfile::Gesture { params, spec }
}

/// The reference µNAS-scale KWS task used by Figs. 1/2/6.
#[allow(
    clippy::expect_used,
    reason = "literal reference configs are valid by inspection"
)]
pub fn reference_kws_task() -> TaskProfile {
    let params = AudioFrontendParams::standard();
    let spec = ModelSpec::new(
        [49, 13, 1],
        vec![
            LayerSpec::conv(12, 3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::max_pool(2),
            LayerSpec::conv(16, 3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::flatten(),
            LayerSpec::dense(10),
        ],
    )
    .expect("reference KWS model is valid");
    TaskProfile::Kws { params, spec }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tasks_build() {
        let _ = reference_gesture_task();
        let _ = reference_kws_task();
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
    }
}
