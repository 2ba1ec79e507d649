//! Batch input quantization — the f32 → i8 pass campaigns hoist to
//! once-per-campaign.
//!
//! Quantization is elementwise (`clamp(round(x / scale))`, see
//! [`sat::quantize_f32_to_i8`]), so quantizing a concatenation equals
//! concatenating the quantizations: the once-per-campaign pass is provably
//! shard-order-invariant (property-tested in `tests/proptests.rs`).
//!
//! Every pass through [`quantize_slice_into`] (and the helpers built on it:
//! [`quantize_slice`], [`crate::QuantModel::quantize_input`], the f32
//! calls of `nvfi`'s `EmulationPlatform` and its `DevicePool`) bumps a process-wide
//! counter, readable via [`quantization_passes`]. The counter is a test
//! probe: `tests/quantize_once.rs` in the workspace root asserts that one
//! campaign performs exactly **one** eval-set quantization, i.e. that no
//! per-work-item or per-shard re-quantization crept back into the hot path.

use std::sync::OnceLock;

use nvfi_hwnum::sat;
use nvfi_obs::metrics::{self, Counter};

/// Process-wide count of batch-quantization passes (not elements), backed
/// by the `nvfi_obs` metrics registry under `quantization_passes`.
fn passes() -> &'static Counter {
    static PASSES: OnceLock<Counter> = OnceLock::new();
    PASSES.get_or_init(|| metrics::counter("quantization_passes"))
}

/// Number of batch-quantization passes performed by this process so far.
///
/// Monotonic; meaningful as a *delta* around the code under test. Shared by
/// every thread, so tests asserting exact deltas must not run concurrently
/// with other quantizing tests (give them their own test binary).
#[must_use]
pub fn quantization_passes() -> u64 {
    passes().get()
}

/// Quantizes a dense f32 slice to i8 into `dst` (cleared and refilled), and
/// counts one pass.
pub fn quantize_slice_into(src: &[f32], scale: f32, dst: &mut Vec<i8>) {
    dst.clear();
    dst.extend(src.iter().map(|&v| sat::quantize_f32_to_i8(v, scale)));
    passes().inc();
}

/// Allocating convenience wrapper around [`quantize_slice_into`].
#[must_use]
pub fn quantize_slice(src: &[f32], scale: f32) -> Vec<i8> {
    let mut out = Vec::with_capacity(src.len());
    quantize_slice_into(src, scale, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_matches_elementwise_and_counts_passes() {
        let src = [-2.0f32, -0.05, 0.0, 0.05, 1.0, 100.0];
        let before = quantization_passes();
        let q = quantize_slice(&src, 0.1);
        assert_eq!(quantization_passes() - before, 1);
        let want: Vec<i8> = src
            .iter()
            .map(|&v| sat::quantize_f32_to_i8(v, 0.1))
            .collect();
        assert_eq!(q, want);
    }

    #[test]
    fn into_reuses_capacity() {
        let mut buf = Vec::with_capacity(16);
        quantize_slice_into(&[1.0f32; 8], 0.5, &mut buf);
        assert_eq!(buf, vec![2i8; 8]);
        let cap = buf.capacity();
        quantize_slice_into(&[0.5f32; 4], 0.5, &mut buf);
        assert_eq!(buf, vec![1i8; 4]);
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }
}
