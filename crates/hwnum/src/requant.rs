//! Fixed-point re-quantization as performed by the SDP post-processing unit.

use core::fmt;

use crate::sat;

/// A fixed-point scale factor `multiplier / 2^shift` applied to i32/i64
/// accumulator values, mirroring NVDLA's SDP scaling stage (and TFLite-style
/// integer-only inference).
///
/// The quantizer converts a real-valued scale `s = s_in * s_w / s_out` into a
/// normalized 31-bit multiplier and a right shift; [`Requant::apply`] then
/// computes `round(x * multiplier / 2^shift)` with round-half-away-from-zero,
/// entirely in integer arithmetic — identical on the CPU reference executor
/// and the accelerator model, so outputs are bit-exact across both.
/// [`Requant::apply_acc`] is the same function for 32-bit accumulators,
/// branch-free in `i64`; the SDP uses it.
///
/// # Examples
///
/// ```
/// use nvfi_hwnum::Requant;
///
/// let r = Requant::from_scale(0.25).unwrap();
/// assert_eq!(r.apply(100), 25);
/// assert_eq!(r.apply(-100), -25);
/// let identity = Requant::from_scale(1.0).unwrap();
/// assert_eq!(identity.apply(123456), 123456);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Requant {
    multiplier: i32,
    shift: u8,
}

/// Error returned when a real-valued scale cannot be encoded as a fixed-point
/// multiplier (non-finite, zero, negative, or out of dynamic range).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct EncodeScaleError {
    scale_bits: u64,
}

impl fmt::Display for EncodeScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scale {} cannot be encoded as a fixed-point requantizer",
            f64::from_bits(self.scale_bits)
        )
    }
}

impl std::error::Error for EncodeScaleError {}

impl Requant {
    /// Maximum supported right shift.
    pub const MAX_SHIFT: u8 = 62;

    /// The identity requantizer (`x -> x`).
    pub const IDENTITY: Requant = Requant {
        multiplier: 1,
        shift: 0,
    };

    /// Creates a requantizer from raw fixed-point parts.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 0` or `shift > Self::MAX_SHIFT`; both are
    /// programming errors (register fields in the real device are unsigned
    /// and bounded).
    #[must_use]
    pub fn from_parts(multiplier: i32, shift: u8) -> Self {
        assert!(multiplier >= 0, "requant multiplier must be non-negative");
        assert!(shift <= Self::MAX_SHIFT, "requant shift out of range");
        Requant { multiplier, shift }
    }

    /// Encodes a positive real scale as `multiplier / 2^shift` with the
    /// multiplier normalized into `[2^30, 2^31)` whenever possible, matching
    /// the precision the SDP scaling registers provide.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeScaleError`] if `scale` is not finite, not strictly
    /// positive, or so large/small that it falls outside the representable
    /// fixed-point range.
    pub fn from_scale(scale: f64) -> Result<Self, EncodeScaleError> {
        let err = EncodeScaleError {
            scale_bits: scale.to_bits(),
        };
        if !scale.is_finite() || scale <= 0.0 {
            return Err(err);
        }
        // Normalize scale = m * 2^e with m in [0.5, 1).
        let mut shift = 0i32;
        let mut s = scale;
        while s >= 1.0 {
            s /= 2.0;
            shift -= 1;
        }
        while s < 0.5 {
            s *= 2.0;
            shift += 1;
        }
        // multiplier = round(s * 2^31) in [2^30, 2^31].
        let mut m = (s * f64::from(1u32 << 31)).round() as i64;
        let mut total_shift = shift + 31;
        if m == (1i64 << 31) {
            m >>= 1;
            total_shift -= 1;
        }
        if total_shift < 0 {
            // Scale too large to renormalize; fold the excess into the
            // multiplier if it still fits in i32.
            m <<= -total_shift;
            total_shift = 0;
            if m > i32::MAX as i64 {
                return Err(err);
            }
        }
        if total_shift > Self::MAX_SHIFT as i32 {
            // Scale is so small that even the largest shift underflows;
            // saturate to "always zero" representation.
            return Ok(Requant {
                multiplier: 0,
                shift: 0,
            });
        }
        Ok(Requant {
            multiplier: m as i32,
            shift: total_shift as u8,
        })
    }

    /// The fixed-point multiplier.
    #[must_use]
    pub const fn multiplier(self) -> i32 {
        self.multiplier
    }

    /// The right shift (power-of-two divisor).
    #[must_use]
    pub const fn shift(self) -> u8 {
        self.shift
    }

    /// The effective real-valued scale this requantizer applies.
    #[must_use]
    pub fn effective_scale(self) -> f64 {
        self.multiplier as f64 / (1u64 << self.shift) as f64
    }

    /// Applies the requantizer: `round(x * multiplier / 2^shift)` with
    /// round-half-away-from-zero, computed in 128-bit intermediate precision
    /// so it never overflows for any `i64` input.
    #[inline]
    #[must_use]
    pub fn apply(self, x: i64) -> i64 {
        let prod = x as i128 * self.multiplier as i128;
        if self.shift == 0 {
            return sat::clamp_i128_to_i64(prod);
        }
        let half = 1i128 << (self.shift - 1);
        // Round half away from zero on the magnitude so that exact multiples
        // are unchanged for either sign (arithmetic shift floors, which would
        // bias negative results downward).
        let mag = (prod.abs() + half) >> self.shift;
        let rounded = if prod < 0 { -mag } else { mag };
        sat::clamp_i128_to_i64(rounded)
    }

    /// [`Requant::apply`] for a 32-bit accumulator, in plain `i64` with no
    /// branches, so a loop over it auto-vectorizes. Bit-identical to
    /// `self.apply(i64::from(x))` for every `x`.
    ///
    /// The construction invariants `0 <= multiplier < 2^31` and
    /// `shift <= 62` bound every intermediate: `|x * multiplier| <= 2^31 *
    /// (2^31 - 1) < 2^62` and `half = 2^(shift-1) <= 2^61`, so
    /// `|prod| + half < 2^62 + 2^61 < 2^63` never overflows, and the result
    /// (at most `|prod|`) always fits the `i64` that [`Requant::apply`]
    /// would otherwise clamp to. Shift 0 needs no special case: `half` is
    /// 0 there and the shift is the identity.
    ///
    /// ```
    /// use nvfi_hwnum::Requant;
    ///
    /// let r = Requant::from_scale(0.25).unwrap();
    /// assert_eq!(r.apply_acc(-2), -1); // -0.5 rounds away from zero
    /// for x in [i32::MIN, -7, 0, 5, i32::MAX] {
    ///     assert_eq!(r.apply_acc(x), r.apply(i64::from(x)));
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn apply_acc(self, x: i32) -> i64 {
        let prod = i64::from(x) * i64::from(self.multiplier);
        let half = (1i64 << self.shift) >> 1;
        let mag = (prod.abs() + half) >> self.shift;
        // Restore the sign without a branch: `sign` is 0 or -1 (all ones),
        // and `(mag ^ -1) - (-1) == -mag`.
        let sign = prod >> 63;
        (mag ^ sign) - sign
    }

    /// Applies the requantizer and saturates the result to `i8`, the output
    /// activation format of the SDP.
    #[inline]
    #[must_use]
    pub fn apply_i8(self, x: i64) -> i8 {
        sat::to_i8(self.apply(x))
    }

    /// Applies the requantizer and saturates the result to `i32`.
    #[inline]
    #[must_use]
    pub fn apply_i32(self, x: i64) -> i32 {
        sat::to_i32(self.apply(x))
    }
}

impl Default for Requant {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl fmt::Display for Requant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/2^{}", self.multiplier, self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        let r = Requant::from_scale(1.0).unwrap();
        for x in [-1000i64, -1, 0, 1, 7, 123456789] {
            assert_eq!(r.apply(x), x);
        }
    }

    #[test]
    fn power_of_two_scales() {
        let r = Requant::from_scale(0.5).unwrap();
        assert_eq!(r.apply(10), 5);
        assert_eq!(r.apply(5), 3); // 2.5 rounds away from zero
        assert_eq!(r.apply(-5), -3);
        let r = Requant::from_scale(2.0).unwrap();
        assert_eq!(r.apply(10), 20);
    }

    #[test]
    fn rounding_half_away_from_zero() {
        let r = Requant::from_scale(0.25).unwrap();
        assert_eq!(r.apply(2), 1); // 0.5 -> 1
        assert_eq!(r.apply(-2), -1); // -0.5 -> -1
        assert_eq!(r.apply(1), 0); // 0.25 -> 0
    }

    #[test]
    fn matches_float_reference_within_one_ulp() {
        for &scale in &[0.001953, 0.0173, 0.33, 0.9999, 1.5, 3.25, 117.0] {
            let r = Requant::from_scale(scale).unwrap();
            for &x in &[-100000i64, -777, -1, 0, 1, 999, 54321] {
                let want = (x as f64 * scale).round();
                let got = r.apply(x) as f64;
                assert!(
                    (want - got).abs() <= 1.0,
                    "scale={scale} x={x} want={want} got={got}"
                );
            }
        }
    }

    #[test]
    fn saturating_i8_output() {
        let r = Requant::from_scale(1.0).unwrap();
        assert_eq!(r.apply_i8(1000), 127);
        assert_eq!(r.apply_i8(-1000), -128);
        assert_eq!(r.apply_i8(-12), -12);
    }

    #[test]
    fn rejects_bad_scales() {
        assert!(Requant::from_scale(0.0).is_err());
        assert!(Requant::from_scale(-1.0).is_err());
        assert!(Requant::from_scale(f64::NAN).is_err());
        assert!(Requant::from_scale(f64::INFINITY).is_err());
        let msg = Requant::from_scale(-2.5).unwrap_err().to_string();
        assert!(msg.contains("-2.5"), "{msg}");
    }

    #[test]
    fn tiny_scale_saturates_to_zero() {
        let r = Requant::from_scale(1e-30).unwrap();
        assert_eq!(r.apply(i64::MAX / 2), 0);
    }

    #[test]
    fn no_overflow_at_extremes() {
        let r = Requant::from_scale(1.0).unwrap();
        assert_eq!(r.apply(i64::MAX), i64::MAX);
        assert_eq!(r.apply(i64::MIN), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_parts_rejects_negative() {
        let _ = Requant::from_parts(-1, 0);
    }
}
