//! Accelerator error type.

use std::fmt;

/// Errors surfaced by the accelerator model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccelError {
    /// A DMA/engine access fell outside the DRAM.
    DramOutOfBounds {
        /// Access start address.
        addr: u64,
        /// Access length in bytes.
        len: u64,
        /// DRAM capacity.
        capacity: u64,
    },
    /// No plan has been loaded.
    NoPlan,
    /// The loaded plan is malformed.
    BadPlan(String),
    /// A register access hit an unmapped address.
    BadRegister {
        /// Offending CSB address.
        addr: u32,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::DramOutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "dram access out of bounds: {len} bytes at {addr:#x} (capacity {capacity:#x})"
            ),
            AccelError::NoPlan => write!(f, "no execution plan loaded"),
            AccelError::BadPlan(why) => write!(f, "malformed execution plan: {why}"),
            AccelError::BadRegister { addr } => write!(f, "unmapped register {addr:#06x}"),
        }
    }
}

impl std::error::Error for AccelError {}
