//! The fault-injection block: 64 per-multiplier 18-bit override muxes.

use nvfi_compiler::plan::RegWrite;
use nvfi_compiler::regmap::{self, MultId};
use nvfi_hwnum::I18;
use std::ops::Range;

/// High-level fault kinds expressible with the injector registers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// All 18 wires forced to 0 — a stuck-at-0 multiplier output.
    StuckAtZero,
    /// All 18 wires forced to the two's-complement encoding of `value`
    /// (the paper injects 0, +1 and -1).
    Constant(i32),
    /// Arbitrary per-wire overrides: `out[i] = fsel[i] ? fdata[i] : p[i]`.
    /// Expresses single-bit stuck-at faults and other bit-granular models.
    StuckBits {
        /// Which of the 18 wires are overridden.
        fsel: u32,
        /// The values driven on overridden wires.
        fdata: u32,
    },
    /// Bit-flip fault: the wires in `mask` are inverted (XOR) after the
    /// override mux. This is an extension beyond the paper's stuck-at /
    /// constant models — its Sec. II notes "other fault models can easily
    /// be incorporated". Flips are data-dependent; `ExecMode::Auto` applies
    /// them per selected lane with lane-delta, bit-identically to
    /// `ExecMode::Exact`.
    FlipBits {
        /// Which of the 18 wires are inverted.
        mask: u32,
    },
}

impl FaultKind {
    /// The `(fsel, fdata, xor)` register values for this fault kind.
    #[must_use]
    pub fn registers(self) -> (u32, u32, u32) {
        match self {
            FaultKind::StuckAtZero => (I18::MASK, 0, 0),
            FaultKind::Constant(v) => (I18::MASK, I18::new(v).bits(), 0),
            FaultKind::StuckBits { fsel, fdata } => (fsel & I18::MASK, fdata & I18::MASK, 0),
            FaultKind::FlipBits { mask } => (0, 0, mask & I18::MASK),
        }
    }

    /// Rejects fault kinds that are provable no-ops: after 18-bit register
    /// masking the injector mux overrides no wires and flips no bits, so a
    /// campaign over this kind would emulate at full cost and measure
    /// nothing (a "0% SDC" result that is an artifact of the fault program,
    /// not the workload). `StuckBits { fsel: 0, .. }` and
    /// `FlipBits { mask: 0 }` are the canonical offenders.
    ///
    /// # Errors
    ///
    /// Returns a description of why the kind cannot perturb any product.
    pub fn validate(self) -> Result<(), String> {
        let (fsel, _, xor) = self.registers();
        if (fsel | xor) & I18::MASK == 0 {
            return Err(format!(
                "fault kind {self:?} is a provable no-op: after 18-bit masking \
                 it overrides no wires (fsel = 0) and flips no bits (xor = 0), \
                 so no multiplier product can ever be perturbed"
            ));
        }
        Ok(())
    }
}

/// A complete fault programming: which multipliers, and what to force.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Target multipliers.
    pub targets: Vec<MultId>,
    /// The fault model.
    pub kind: FaultKind,
}

impl FaultConfig {
    /// Creates a fault configuration.
    #[must_use]
    pub fn new(targets: Vec<MultId>, kind: FaultKind) -> Self {
        FaultConfig { targets, kind }
    }

    /// The CSB writes that program this configuration (enable included).
    #[must_use]
    pub fn reg_writes(&self) -> Vec<RegWrite> {
        let mut sel = 0u64;
        for t in &self.targets {
            sel |= 1 << t.lane();
        }
        let (fsel, fdata, xor) = self.kind.registers();
        vec![
            RegWrite {
                addr: regmap::REG_FI_SEL_A,
                value: sel as u32,
            },
            RegWrite {
                addr: regmap::REG_FI_SEL_B,
                value: (sel >> 32) as u32,
            },
            RegWrite {
                addr: regmap::REG_FI_FSEL,
                value: fsel,
            },
            RegWrite {
                addr: regmap::REG_FI_FDATA,
                value: fdata,
            },
            RegWrite {
                addr: regmap::REG_FI_XOR,
                value: xor,
            },
            RegWrite {
                addr: regmap::REG_FI_CTRL,
                value: 1,
            },
        ]
    }
}

/// The injector bank state, as live registers.
#[derive(Clone, Debug, Default)]
pub struct FaultInjectorBank {
    /// Enable bit (bit 0 of the CTRL register).
    pub enabled: bool,
    /// 64-bit multiplier select (`sel_b:sel_a`).
    pub sel: u64,
    /// 18-bit wire select.
    pub fsel: u32,
    /// 18-bit override data.
    pub fdata: u32,
    /// 18-bit XOR (bit-flip) mask applied after the mux.
    pub xor: u32,
    /// Optional transient ("pulse") window in cycles: the injector is only
    /// active while the engine's cycle counter lies in this range. `None`
    /// means a permanent fault. Honoured by `ExecMode::Auto` (lane-delta on
    /// the ops the window reaches) and `ExecMode::Exact` alike.
    pub window: Option<Range<u64>>,
}

impl FaultInjectorBank {
    /// Creates a disabled bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any lane is actively selected.
    #[must_use]
    pub fn any_active(&self) -> bool {
        self.enabled && self.sel != 0 && (self.fsel | self.xor) & I18::MASK != 0
    }

    /// Lanes currently selected, in lane order. Walks the set bits of `sel`
    /// without allocating, so the engine can call it per op.
    pub fn selected_lanes(&self) -> impl Iterator<Item = MultId> {
        let mut sel = self.sel;
        std::iter::from_fn(move || {
            if sel == 0 {
                return None;
            }
            let lane = sel.trailing_zeros() as usize;
            sel &= sel - 1;
            Some(MultId::from_lane(lane))
        })
    }

    /// Applies the injector of `lane` to a product, honouring the enable and
    /// (if set) the transient window against `cycle`.
    #[inline]
    #[must_use]
    pub fn apply(&self, lane: usize, product: I18, cycle: u64) -> I18 {
        if !self.enabled || self.sel & (1 << lane) == 0 {
            return product;
        }
        if let Some(w) = &self.window {
            if !w.contains(&cycle) {
                return product;
            }
        }
        let muxed = product.overridden(self.fsel, self.fdata);
        if self.xor & I18::MASK != 0 {
            I18::from_bits(muxed.bits() ^ (self.xor & I18::MASK))
        } else {
            muxed
        }
    }

    /// Applies a register write (CSB decode). Returns `false` if the
    /// address does not belong to the FI block.
    pub fn write(&mut self, addr: u32, value: u32) -> bool {
        match addr {
            regmap::REG_FI_CTRL => self.enabled = value & 1 != 0,
            regmap::REG_FI_SEL_A => {
                self.sel = (self.sel & !0xFFFF_FFFF) | u64::from(value);
            }
            regmap::REG_FI_SEL_B => {
                self.sel = (self.sel & 0xFFFF_FFFF) | (u64::from(value) << 32);
            }
            regmap::REG_FI_FSEL => self.fsel = value & I18::MASK,
            regmap::REG_FI_FDATA => self.fdata = value & I18::MASK,
            regmap::REG_FI_XOR => self.xor = value & I18::MASK,
            _ => return false,
        }
        true
    }

    /// Reads an FI register. Returns `None` if the address does not belong
    /// to the FI block.
    #[must_use]
    pub fn read(&self, addr: u32) -> Option<u32> {
        Some(match addr {
            regmap::REG_FI_CTRL => u32::from(self.enabled),
            regmap::REG_FI_SEL_A => self.sel as u32,
            regmap::REG_FI_SEL_B => (self.sel >> 32) as u32,
            regmap::REG_FI_FSEL => self.fsel,
            regmap::REG_FI_FDATA => self.fdata,
            regmap::REG_FI_XOR => self.xor,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_registers() {
        assert_eq!(FaultKind::StuckAtZero.registers(), (0x3FFFF, 0, 0));
        assert_eq!(FaultKind::Constant(-1).registers(), (0x3FFFF, 0x3FFFF, 0));
        assert_eq!(FaultKind::Constant(1).registers(), (0x3FFFF, 1, 0));
        assert_eq!(
            FaultKind::FlipBits { mask: 0b101 }.registers(),
            (0, 0, 0b101)
        );
    }

    #[test]
    fn no_op_fault_kinds_fail_validation() {
        assert!(FaultKind::StuckBits { fsel: 0, fdata: 5 }
            .validate()
            .is_err());
        assert!(FaultKind::FlipBits { mask: 0 }.validate().is_err());
        // An out-of-mask selection is a no-op after 18-bit masking too.
        let high = FaultKind::StuckBits {
            fsel: 0xFFFC_0000,
            fdata: 0x3FFFF,
        };
        assert!(high.validate().is_err());
        // Everything that can touch a wire passes.
        assert!(FaultKind::StuckAtZero.validate().is_ok());
        assert!(FaultKind::Constant(0).validate().is_ok());
        assert!(FaultKind::StuckBits { fsel: 1, fdata: 0 }
            .validate()
            .is_ok());
        assert!(FaultKind::FlipBits { mask: 1 }.validate().is_ok());
    }

    #[test]
    fn flip_bits_inverts_selected_wires() {
        let mut bank = FaultInjectorBank::new();
        bank.enabled = true;
        bank.sel = 1;
        bank.xor = 0b11;
        let p = I18::new(0b1010);
        assert_eq!(bank.apply(0, p, 0).value(), 0b1001);
        // Applying twice restores the product (XOR involution).
        let once = bank.apply(0, p, 0);
        assert_eq!(bank.apply(0, once, 0), p);
        // Sign-bit flip turns a small positive into a large negative.
        bank.xor = 1 << 17;
        assert_eq!(bank.apply(0, I18::new(5), 0).value(), 5 - (1 << 17));
    }

    #[test]
    fn flip_bits_compose_with_override_mux() {
        let mut bank = FaultInjectorBank::new();
        bank.enabled = true;
        bank.sel = 1;
        bank.fsel = I18::MASK;
        bank.fdata = 0; // stuck at zero...
        bank.xor = 0b1; // ...then LSB flipped
        assert_eq!(bank.apply(0, I18::new(12345), 0).value(), 1);
    }

    #[test]
    fn config_programs_select_bits() {
        let cfg = FaultConfig::new(
            vec![MultId::new(0, 0), MultId::new(7, 7), MultId::new(4, 1)],
            FaultKind::StuckAtZero,
        );
        let mut bank = FaultInjectorBank::new();
        for w in cfg.reg_writes() {
            assert!(bank.write(w.addr, w.value), "unhandled write {w:?}");
        }
        assert!(bank.enabled);
        assert_eq!(bank.sel, (1 << 0) | (1 << 63) | (1 << 33));
        let lanes: Vec<MultId> = bank.selected_lanes().collect();
        assert_eq!(
            lanes,
            [MultId::new(0, 0), MultId::new(4, 1), MultId::new(7, 7)]
        );
    }

    #[test]
    fn apply_respects_selection_and_enable() {
        let mut bank = FaultInjectorBank::new();
        let p = I18::new(1234);
        bank.sel = 0b10;
        bank.fsel = I18::MASK;
        bank.fdata = 0;
        assert_eq!(bank.apply(1, p, 0), p, "disabled bank passes through");
        bank.enabled = true;
        assert_eq!(bank.apply(1, p, 0), I18::ZERO);
        assert_eq!(bank.apply(0, p, 0), p, "unselected lane untouched");
    }

    #[test]
    fn window_gates_injection() {
        let mut bank = FaultInjectorBank::new();
        bank.enabled = true;
        bank.sel = 1;
        bank.fsel = I18::MASK;
        bank.fdata = 7;
        bank.window = Some(10..20);
        let p = I18::new(-5);
        assert_eq!(bank.apply(0, p, 9), p);
        assert_eq!(bank.apply(0, p, 10).value(), 7);
        assert_eq!(bank.apply(0, p, 19).value(), 7);
        assert_eq!(bank.apply(0, p, 20), p);
    }

    #[test]
    fn register_readback() {
        let mut bank = FaultInjectorBank::new();
        bank.write(regmap::REG_FI_SEL_A, 0xAAAA_5555);
        bank.write(regmap::REG_FI_SEL_B, 0x1234_5678);
        bank.write(regmap::REG_FI_FDATA, 0xFFFF_FFFF);
        assert_eq!(bank.read(regmap::REG_FI_SEL_A), Some(0xAAAA_5555));
        assert_eq!(bank.read(regmap::REG_FI_SEL_B), Some(0x1234_5678));
        assert_eq!(
            bank.read(regmap::REG_FI_FDATA),
            Some(0x3FFFF),
            "fdata masked to 18 bits"
        );
        assert_eq!(bank.read(0x9999), None);
    }
}
