//! Naive reference convolutions.
//!
//! These are the original straight-line triple-nested loops the optimized
//! kernels in [`crate::layers`] replaced: per-element bounds checks and flat
//! index arithmetic, no hoisting, no slice stripes. They exist as the
//! independent oracle — golden tests assert the optimized kernels agree
//! with them, and the `hotpaths` bench measures the speedup against them.
//! Keep them dumb; their only virtue is obviousness.

use crate::arch::Padding;
use crate::tensor::Tensor;

/// Output spatial dims and padding offsets, identical to the layers' own
/// `out_dims`.
fn out_dims(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: Padding,
) -> (usize, usize, isize, isize) {
    match padding {
        Padding::Valid => ((h - kh) / stride + 1, (w - kw) / stride + 1, 0, 0),
        Padding::Same => {
            let oh = h.div_ceil(stride);
            let ow = w.div_ceil(stride);
            let pad_h = (((oh - 1) * stride + kh).saturating_sub(h)) / 2;
            let pad_w = (((ow - 1) * stride + kw).saturating_sub(w)) / 2;
            (oh, ow, pad_h as isize, pad_w as isize)
        }
    }
}

/// Naive full convolution forward over a `[h, w, cin]` input with
/// `[kh][kw][cin][cout]` weights.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the layer kernel's argument list so the oracle can be diffed call for call"
)]
pub fn conv2d_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    kh: usize,
    kw: usize,
    cin: usize,
    cout: usize,
    stride: usize,
    padding: Padding,
) -> Tensor {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let (oh, ow, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut out = Tensor::zeros([oh, ow, cout]);
    for oy in 0..oh {
        for ox in 0..ow {
            for co in 0..cout {
                let mut acc = bias[co];
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        for ci in 0..cin {
                            acc += input.at3(iy as usize, ix as usize, ci)
                                * weights[((i * kw + j) * cin + ci) * cout + co];
                        }
                    }
                }
                *out.at3_mut(oy, ox, co) = acc;
            }
        }
    }
    out
}

/// Naive full convolution backward. Returns
/// `(grad_in, grad_weights, grad_bias)`.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the layer kernel's argument list so the oracle can be diffed call for call"
)]
pub fn conv2d_backward(
    input: &Tensor,
    grad_out: &Tensor,
    weights: &[f32],
    kh: usize,
    kw: usize,
    cin: usize,
    cout: usize,
    stride: usize,
    padding: Padding,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let [oh, ow, _]: [usize; 3] = grad_out.shape().try_into().expect("rank 3");
    let (_, _, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut grad_in = Tensor::zeros([h, w, cin]);
    let mut grad_weights = vec![0.0f32; kh * kw * cin * cout];
    let mut grad_bias = vec![0.0f32; cout];
    for oy in 0..oh {
        for ox in 0..ow {
            for co in 0..cout {
                let g = grad_out.at3(oy, ox, co);
                if g.to_bits() == 0 {
                    continue;
                }
                grad_bias[co] += g;
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let (iy, ix) = (iy as usize, ix as usize);
                        for ci in 0..cin {
                            let widx = ((i * kw + j) * cin + ci) * cout + co;
                            grad_weights[widx] += g * input.at3(iy, ix, ci);
                            *grad_in.at3_mut(iy, ix, ci) += g * weights[widx];
                        }
                    }
                }
            }
        }
    }
    (grad_in, grad_weights, grad_bias)
}

/// Naive depthwise convolution forward over a `[h, w, c]` input with
/// `[kh][kw][c]` weights.
pub fn dwconv2d_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    kh: usize,
    kw: usize,
    channels: usize,
    stride: usize,
    padding: Padding,
) -> Tensor {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let (oh, ow, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut out = Tensor::zeros([oh, ow, channels]);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..channels {
                let mut acc = bias[c];
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        acc += input.at3(iy as usize, ix as usize, c)
                            * weights[(i * kw + j) * channels + c];
                    }
                }
                *out.at3_mut(oy, ox, c) = acc;
            }
        }
    }
    out
}

/// Naive depthwise convolution backward. Returns
/// `(grad_in, grad_weights, grad_bias)`.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the layer kernel's argument list so the oracle can be diffed call for call"
)]
pub fn dwconv2d_backward(
    input: &Tensor,
    grad_out: &Tensor,
    weights: &[f32],
    kh: usize,
    kw: usize,
    channels: usize,
    stride: usize,
    padding: Padding,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let [h, w, _]: [usize; 3] = input.shape().try_into().expect("rank 3");
    let [oh, ow, _]: [usize; 3] = grad_out.shape().try_into().expect("rank 3");
    let (_, _, ph, pw) = out_dims(h, w, kh, kw, stride, padding);
    let mut grad_in = Tensor::zeros([h, w, channels]);
    let mut grad_weights = vec![0.0f32; kh * kw * channels];
    let mut grad_bias = vec![0.0f32; channels];
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..channels {
                let g = grad_out.at3(oy, ox, c);
                if g.to_bits() == 0 {
                    continue;
                }
                grad_bias[c] += g;
                for i in 0..kh {
                    for j in 0..kw {
                        let iy = (oy * stride + i) as isize - ph;
                        let ix = (ox * stride + j) as isize - pw;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let (iy, ix) = (iy as usize, ix as usize);
                        let widx = (i * kw + j) * channels + c;
                        grad_weights[widx] += g * input.at3(iy, ix, c);
                        *grad_in.at3_mut(iy, ix, c) += g * weights[widx];
                    }
                }
            }
        }
    }
    (grad_in, grad_weights, grad_bias)
}
