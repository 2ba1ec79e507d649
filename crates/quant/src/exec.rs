//! The bit-exact int8 CPU reference executor.
//!
//! This is simultaneously (a) the software inference engine timed for the
//! CPU rows of Table I and (b) the semantic reference the accelerator model
//! must reproduce bit-for-bit in the fault-free case. All post-accumulation
//! arithmetic is funnelled through [`sdp_postprocess`], which the
//! accelerator's SDP model (every engine path, the exact oracle included)
//! and the systolic simulator call too — agreement is by construction.
//!
//! Because every executor shares it, no engine-equivalence test can catch
//! an error in `sdp_postprocess` itself. It is branch-free `i64`
//! ([`Requant::apply_acc`]) for speed, and it is proven equal to the
//! `i128` [`Requant::apply`] definition by this crate's and `nvfi-hwnum`'s
//! property tests.

use nvfi_hwnum::{sat, Requant};
use nvfi_tensor::{conv, pool, ConvGeom, Tensor};

use crate::model::{QOpKind, QuantModel};
use crate::swfi::GraphFault;

/// Post-processing of one accumulator value, exactly as the SDP does it:
/// per-channel requantization, optional rescaled residual add, optional
/// ReLU, saturation to i8.
///
/// Branch-free in the data: both requantizations go through
/// [`Requant::apply_acc`] (exact `i64`, no i128), their sum is bounded by
/// `2^62 + 2^38` so it cannot overflow, and ReLU plus saturation is one
/// clamp to `[relu ? 0 : -128, 127]`. Inlined into a pixel loop with a
/// loop-invariant `requant`, `residual` shape and `relu`, it vectorizes.
#[inline]
#[must_use]
pub fn sdp_postprocess(
    acc: i32,
    requant: Requant,
    residual: Option<(i8, Requant)>,
    relu: bool,
) -> i8 {
    let mut v = requant.apply_acc(acc);
    if let Some((res, rq)) = residual {
        v += rq.apply_acc(i32::from(res));
    }
    let lo = if relu { 0 } else { i64::from(i8::MIN) };
    sat::to_i8(v.clamp(lo, i64::from(i8::MAX)))
}

/// Integer global average pooling: per-channel wrapping sum then
/// round-half-away-from-zero divide — the PDP's exact arithmetic.
#[must_use]
pub fn pdp_global_avg(input: &Tensor<i8>) -> Tensor<i8> {
    let s = input.shape();
    let sums = pool::global_sum_i8(input);
    let area = (s.h * s.w) as u32;
    Tensor::from_fn(nvfi_tensor::Shape4::new(s.n, s.c, 1, 1), |n, c, _, _| {
        sat::to_i8(i64::from(pool::rounded_div(sums[n * s.c + c], area)))
    })
}

/// Runs the quantized model on an i8 input batch, returning the i32 logits
/// row per image. `threads` shards the convolution GEMMs.
///
/// # Panics
///
/// Panics if the input shape (per image) does not match the model.
#[must_use]
pub fn forward(model: &QuantModel, input: &Tensor<i8>, threads: usize) -> Vec<Vec<i32>> {
    forward_with_graph_faults(model, input, threads, &[])
}

/// [`forward`] with graph-level software faults applied (see
/// [`crate::swfi`]). An empty `faults` slice is the clean reference path.
///
/// # Panics
///
/// Panics if the input shape does not match the model or a fault references
/// a non-existent op/channel.
#[must_use]
pub fn forward_with_graph_faults(
    model: &QuantModel,
    input: &Tensor<i8>,
    threads: usize,
    faults: &[GraphFault],
) -> Vec<Vec<i32>> {
    let bs = input.shape();
    assert_eq!(
        bs.with_n(1),
        model.input_shape.with_n(1),
        "input shape mismatch"
    );
    let batch = bs.n;
    let mut values: Vec<Option<Tensor<i8>>> = vec![None; model.ops.len() + 1];
    values[0] = Some(input.clone());
    let mut logits: Vec<Vec<i32>> = Vec::new();
    for (i, op) in model.ops.iter().enumerate() {
        let x = values[op.input]
            .as_ref()
            .expect("value not computed")
            .clone();
        let out: Tensor<i8> = match &op.kind {
            QOpKind::Conv(c) => {
                let ws = c.weight.shape();
                let geom = ConvGeom::new(x.shape().with_n(1), ws.n, ws.h, ws.w, c.stride, c.pad);
                let disconnect = faults
                    .iter()
                    .any(|f| matches!(f, GraphFault::DisconnectResidual { op } if *op == i));
                let acc = conv::conv2d_i8(&x, &c.weight, &geom, threads);
                let res_t = match (&c.fuse_add, disconnect) {
                    (Some(a), false) => Some(values[*a].as_ref().expect("fused value")),
                    _ => None,
                };
                let os = geom.out_shape().with_n(batch);
                let mut y = Tensor::zeros(os);
                for n in 0..batch {
                    for k in 0..os.c {
                        let rq = c.requant_for(k);
                        for h in 0..os.h {
                            for w in 0..os.w {
                                let a = acc.at(n, k, h, w).wrapping_add(c.bias[k]);
                                let residual = res_t.map(|r| {
                                    (r.at(n, k, h, w), c.add_requant.expect("add requant"))
                                });
                                y.set(n, k, h, w, sdp_postprocess(a, rq, residual, c.relu));
                            }
                        }
                    }
                }
                apply_stuck_zero(&mut y, faults, i);
                y
            }
            QOpKind::MaxPool { k, stride } => {
                let mut y = pool::maxpool2d(&x, *k, *stride);
                apply_stuck_zero(&mut y, faults, i);
                y
            }
            QOpKind::GlobalAvgPool => {
                let mut y = pdp_global_avg(&x);
                apply_stuck_zero(&mut y, faults, i);
                y
            }
            QOpKind::Linear(l) => {
                let xs = x.shape();
                assert_eq!((xs.h, xs.w), (1, 1), "linear expects pooled input");
                for n in 0..batch {
                    let xi = x.image(n);
                    let row: Vec<i32> = (0..l.weight.rows())
                        .map(|o| {
                            let mut a = l.bias[o];
                            for (&w, &xv) in l.weight.row(o).iter().zip(xi) {
                                a = a.wrapping_add(w as i32 * xv as i32);
                            }
                            a
                        })
                        .collect();
                    logits.push(row);
                }
                // Linear is terminal; store a placeholder value.
                Tensor::zeros(nvfi_tensor::Shape4::new(batch, l.weight.rows(), 1, 1))
            }
        };
        values[i + 1] = Some(out);
    }
    assert_eq!(logits.len(), batch, "model has no linear head");
    logits
}

fn apply_stuck_zero(y: &mut Tensor<i8>, faults: &[GraphFault], op_idx: usize) {
    for f in faults {
        if let GraphFault::StuckZeroChannel { op, channel } = f {
            if *op == op_idx {
                let s = y.shape();
                assert!(*channel < s.c, "stuck-at-0 channel {channel} out of range");
                for n in 0..s.n {
                    for h in 0..s.h {
                        for w in 0..s.w {
                            y.set(n, *channel, h, w, 0);
                        }
                    }
                }
            }
        }
    }
}

/// Argmax class prediction for each image of an f32 batch.
#[must_use]
pub fn classify(model: &QuantModel, batch: &Tensor<f32>, threads: usize) -> Vec<u8> {
    let qin = model.quantize_input(batch);
    forward(model, &qin, threads)
        .iter()
        .map(|row| argmax(row))
        .collect()
}

/// Top-1 accuracy on `(images, labels)`.
///
/// # Panics
///
/// Panics if `labels.len() != images.shape().n`.
#[must_use]
pub fn accuracy(model: &QuantModel, images: &Tensor<f32>, labels: &[u8], threads: usize) -> f64 {
    assert_eq!(images.shape().n, labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let preds = classify(model, images, threads);
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    correct as f64 / labels.len() as f64
}

/// Index of the maximum logit (first wins ties) — the classifier decision.
#[must_use]
pub fn argmax(logits: &[i32]) -> u8 {
    let mut best = (i32::MIN, 0u8);
    for (c, &v) in logits.iter().enumerate() {
        if v > best.0 {
            best = (v, c as u8);
        }
    }
    best.1
}

impl QuantModel {
    /// Convenience wrapper for [`classify`].
    #[must_use]
    pub fn classify(&self, batch: &Tensor<f32>, threads: usize) -> Vec<u8> {
        classify(self, batch, threads)
    }

    /// Convenience wrapper for [`accuracy`].
    #[must_use]
    pub fn accuracy(&self, images: &Tensor<f32>, labels: &[u8], threads: usize) -> f64 {
        accuracy(self, images, labels, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quantize, QuantConfig};
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};
    use nvfi_nn::fold::fold_resnet;
    use nvfi_nn::resnet::ResNet;

    fn setup() -> (QuantModel, nvfi_dataset::TrainTest) {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 24,
            test: 16,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(4, &[1, 1], 10, 3);
        let deploy = fold_resnet(&net, 32);
        let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
        (q, data)
    }

    #[test]
    fn sdp_postprocess_semantics() {
        let r = Requant::from_scale(0.5).unwrap();
        assert_eq!(sdp_postprocess(10, r, None, false), 5);
        assert_eq!(sdp_postprocess(-10, r, None, true), 0);
        assert_eq!(sdp_postprocess(1000, r, None, false), 127);
        let add_rq = Requant::from_scale(1.0).unwrap();
        assert_eq!(sdp_postprocess(10, r, Some((3, add_rq)), false), 8);
        assert_eq!(sdp_postprocess(10, r, Some((-100, add_rq)), true), 0);
    }

    #[test]
    fn threads_do_not_change_results() {
        let (q, data) = setup();
        let a = classify(&q, &data.test.images, 1);
        let b = classify(&q, &data.test.images, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_model_close_to_float_reference() {
        // Train nothing; just check the int8 network agrees with the float
        // deploy graph on most predictions (random weights, so logits are
        // small — agreement should still be high).
        let data = SynthCifar::new(SynthCifarConfig {
            train: 32,
            test: 32,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(8, &[1, 1], 10, 9);
        let deploy = fold_resnet(&net, 32);
        let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
        let fpred = deploy.classify(&data.test.images);
        let qpred = classify(&q, &data.test.images, 1);
        let agree = fpred.iter().zip(&qpred).filter(|(a, b)| a == b).count();
        assert!(
            agree * 100 >= fpred.len() * 70,
            "only {agree}/{} float/int8 prediction agreement",
            fpred.len()
        );
    }

    #[test]
    fn stuck_zero_channel_changes_output() {
        let (q, data) = setup();
        let qin = q.quantize_input(&data.test.images.slice_image(0));
        let clean = forward(&q, &qin, 1);
        let faulted = forward_with_graph_faults(
            &q,
            &qin,
            1,
            &[GraphFault::StuckZeroChannel { op: 0, channel: 0 }],
        );
        assert_ne!(
            clean, faulted,
            "zeroing a stem channel should change logits"
        );
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[3, 7, 7, 1]), 1);
        assert_eq!(argmax(&[-5, -9]), 0);
    }

    #[test]
    fn pdp_global_avg_rounds_exactly() {
        let t = Tensor::from_vec(nvfi_tensor::Shape4::new(1, 1, 2, 2), vec![1i8, 2, 3, 4]);
        // (1+2+3+4)/4 = 2.5 -> 3 (round half away from zero)
        assert_eq!(pdp_global_avg(&t).as_slice(), &[3]);
        let t2 = Tensor::from_vec(nvfi_tensor::Shape4::new(1, 1, 2, 2), vec![-1i8, -2, -3, -4]);
        assert_eq!(pdp_global_avg(&t2).as_slice(), &[-3]);
    }
}
