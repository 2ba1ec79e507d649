//! Property-based tests for the hardware arithmetic primitives.

use nvfi_hwnum::{sat, Requant, I18};
use proptest::prelude::*;

proptest! {
    /// Construction wraps exactly like truncating to 18 bits and
    /// sign-extending.
    #[test]
    fn i18_new_wraps_mod_2_18(v in any::<i32>()) {
        let lane = I18::new(v);
        let m = v.rem_euclid(1 << 18);
        let want = if m >= 1 << 17 { m - (1 << 18) } else { m };
        prop_assert_eq!(lane.value(), want);
    }

    /// bits() / from_bits() round-trip.
    #[test]
    fn i18_bits_roundtrip(bits in 0u32..(1 << 18)) {
        prop_assert_eq!(I18::from_bits(bits).bits(), bits);
    }

    /// value() / new() round-trip inside the representable range.
    #[test]
    fn i18_value_roundtrip(v in -(1i32 << 17)..(1 << 17)) {
        prop_assert_eq!(I18::new(v).value(), v);
    }

    /// i8 products always fit without wrapping.
    #[test]
    fn i18_products_never_wrap(a in any::<i8>(), w in any::<i8>()) {
        prop_assert_eq!(I18::from_product(a, w).value(), a as i32 * w as i32);
    }

    /// The override mux is idempotent and a full override forces the value.
    #[test]
    fn i18_override_idempotent(
        v in any::<i32>(),
        fsel in 0u32..(1 << 18),
        fdata in 0u32..(1 << 18),
    ) {
        let p = I18::new(v);
        let once = p.overridden(fsel, fdata);
        let twice = once.overridden(fsel, fdata);
        prop_assert_eq!(once, twice);
        let full = p.overridden(I18::MASK, fdata);
        prop_assert_eq!(full.bits(), fdata);
    }

    /// Overriding never touches deselected wires.
    #[test]
    fn i18_override_preserves_unselected(
        v in any::<i32>(),
        fsel in 0u32..(1 << 18),
        fdata in 0u32..(1 << 18),
    ) {
        let p = I18::new(v);
        let out = p.overridden(fsel, fdata);
        prop_assert_eq!(out.bits() & !fsel & I18::MASK, p.bits() & !fsel & I18::MASK);
    }

    /// Lane addition is commutative and wraps consistently with i32 math.
    #[test]
    fn i18_add_commutative(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (I18::new(a), I18::new(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y).value(), I18::new(a.wrapping_add(b)).value());
    }

    /// Requantization tracks the real-valued product within one unit.
    #[test]
    fn requant_tracks_float(
        scale in 1e-6f64..100.0,
        x in -1_000_000i64..1_000_000,
    ) {
        let r = Requant::from_scale(scale).unwrap();
        let want = x as f64 * scale;
        let got = r.apply(x) as f64;
        prop_assert!((want - got).abs() <= want.abs() * 1e-6 + 1.0,
            "scale={} x={} want={} got={}", scale, x, want, got);
    }

    /// apply_i8 equals apply followed by saturation.
    #[test]
    fn requant_i8_consistent(scale in 1e-4f64..4.0, x in any::<i32>()) {
        let r = Requant::from_scale(scale).unwrap();
        prop_assert_eq!(r.apply_i8(x as i64), sat::to_i8(r.apply(x as i64)));
    }

    /// Requantization is odd: f(-x) == -f(x) (round-half-away-from-zero is
    /// symmetric).
    #[test]
    fn requant_is_odd(scale in 1e-4f64..4.0, x in -1_000_000i64..1_000_000) {
        let r = Requant::from_scale(scale).unwrap();
        prop_assert_eq!(r.apply(-x), -r.apply(x));
    }

    /// The branch-free i64 requantizer equals the i128 one for any valid
    /// multiplier, shift and 32-bit accumulator.
    #[test]
    fn apply_acc_matches_apply(
        m in 0i32..i32::MAX,
        shift in 0u8..(Requant::MAX_SHIFT + 1),
        x in any::<i32>(),
    ) {
        let r = Requant::from_parts(m, shift);
        prop_assert_eq!(r.apply_acc(x), r.apply(i64::from(x)), "r={} x={}", r, x);
    }

    /// Saturation is monotone.
    #[test]
    fn sat_monotone(a in any::<i64>(), b in any::<i64>()) {
        if a <= b {
            prop_assert!(sat::to_i8(a) <= sat::to_i8(b));
            prop_assert!(sat::to_i32(a) <= sat::to_i32(b));
        }
    }
}

/// `apply_acc` equals `apply` on a grid of every shift, the extreme and some
/// random multipliers, and the accumulator extremes plus the rounding tie
/// points `±(k·2^shift ± half)` and their neighbours.
#[test]
fn apply_acc_matches_apply_on_tie_grid() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut random_multiplier = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        i32::try_from(state >> 33).expect("31-bit value fits i32")
    };
    for shift in 0..=Requant::MAX_SHIFT {
        let mut multipliers = vec![0, 1, 1 << 30, i32::MAX];
        multipliers.extend((0..4).map(|_| random_multiplier()));
        // i128 so the tie points of large shifts can be formed; those
        // outside the i32 range are dropped below.
        let pow = 1i128 << shift;
        let half = pow >> 1;
        let mut xs = vec![i128::from(i32::MIN), i128::from(i32::MAX), 0, 1, -1];
        for k in 0..4 {
            for base in [k * pow + half, k * pow - half] {
                for d in [-1, 0, 1] {
                    xs.extend([base + d, -(base + d)]);
                }
            }
        }
        for &m in &multipliers {
            let r = Requant::from_parts(m, shift);
            for x in xs.iter().filter_map(|&x| i32::try_from(x).ok()) {
                assert_eq!(r.apply_acc(x), r.apply(i64::from(x)), "r={r} x={x}");
            }
        }
    }
}
