//! The emulated NVDLA-style int8 CNN inference accelerator with
//! per-multiplier fault injection — the hardware half of the DATE 2025
//! platform, reproduced as a bit- and mapping-faithful simulator.
//!
//! # Microarchitecture
//!
//! The modelled datapath follows the paper's Fig. 1:
//!
//! * **CMAC**: 8 MAC units x 8 signed 8-bit multipliers. In one atomic op
//!   (one cycle) the array consumes one 8-channel activation word and an
//!   8x8 weight block, producing 8 partial sums. MAC unit `m` serves output
//!   channel `k` with `k % 8 == m`; multiplier `j` serves input channel `c`
//!   with `c % 8 == j`. The same physical multiplier is reused by every
//!   layer — the essential coupling that graph-level fault injection cannot
//!   express.
//! * **Fault injectors**: every multiplier output is an 18-bit lane with a
//!   per-wire override mux (`out[i] = fsel[i] ? fdata[i] : product[i]`),
//!   selected per multiplier by the 64-bit `sel_a:sel_b` register pair and
//!   programmed over the CSB/AXI4-Lite window ([`csb`]).
//! * **CACC/SDP/PDP**: i32 accumulation, then bias / fixed-point
//!   requantization / optional residual add / ReLU (shared, bit-exact code
//!   with the CPU reference in `nvfi-quant`), and pooling.
//! * **DRAM**: a byte-addressable memory holding packed feature surfaces
//!   and weights ([`dram`]; see the memory model below).
//!
//! # Execution modes and lane-delta fault execution
//!
//! * [`ExecMode::Auto`] (default) runs every op as the clean im2col + GEMM
//!   and, when a selected injector lane observes the op, adds one
//!   **lane-delta** correction `f(p) − p` per injected product: `f` is the
//!   injector mux plus XOR, and only the selected lanes' products inside
//!   the window are visited. Wrapping i32 accumulation is associative, so
//!   this is bit-identical to pushing every product through the muxes —
//!   for every fault kind, bit-granular ([`FaultKind::StuckBits`],
//!   [`FaultKind::FlipBits`]) included, and every transient window
//!   ([`Accelerator::set_fault_window`]). Each plan op owns a fixed
//!   per-inference MAC-cycle span (`ExecutionPlan::mac_cycle_spans`,
//!   cached on the device at plan-load time), and cycles are numbered
//!   lexicographically inside it, so a window is one contiguous cycle range
//!   per op: ops it misses run the clean GEMM alone, and a pulse costs
//!   O(window × lanes). A permanent fault costs 1/64 of an op's MACs per
//!   selected lane, on the mini-batched path too.
//! * [`ExecMode::Exact`] pushes every single product through the injector
//!   muxes in the CMAC's atomic-op schedule — the ground-truth oracle the
//!   other modes are tested against.
//! * [`ExecMode::Fast`] is `Auto` restricted to permanent full-lane
//!   overrides (the paper's 0 / +1 / -1 experiments); anything else
//!   returns [`AccelError::FastPathUnsupported`] — a transient window
//!   already at [`Accelerator::set_fault_window`] time.
//!
//! Lane-delta equals the oracle for every fault kind × lane set × window
//! placement × idle-lane policy; `tests/equivalence.rs` proves it
//! exhaustively on small geometries and `tests/proptests.rs` by property.
//!
//! The fault-free prefix of a windowed inference is also *restorable*:
//! [`Accelerator::run_prefix_i8_view`] runs ops `0..b` and leaves DRAM in
//! the boundary state, and [`Accelerator::run_suffix_i8_view`] re-seeds the
//! boundary's live-in surfaces (`ExecutionPlan::live_in_surfaces`) plus the
//! prefix cycle count and runs ops `b..` — bit-identical to the full run.
//! Fault-injection campaigns build a campaign-lifetime golden-prefix
//! activation cache on top of this pair (`nvfi::GoldenActivationCache`),
//! capturing each image's prefix once (probed by [`golden_prefix_passes`])
//! and restoring it for every windowed work item ([`golden_restores`]).
//!
//! # Weight-arena lifecycle
//!
//! [`Accelerator::load_plan`] / [`Accelerator::commit_cmd_fifo`] build a
//! **weight arena**: every conv/linear layer's packed weight region is
//! unpacked from the blocked DRAM layout once and cached as the dense
//! `K x (C*R*S)` GEMM operand. The cache is keyed by the backing DRAM
//! range, and the only two host-visible ways of mutating DRAM —
//! [`Accelerator::dma_write`] and [`Accelerator::flip_dram_bit`] — mark
//! every overlapping entry dirty; the next op that needs the entry
//! re-unpacks it from DRAM. Weight-memory SEU experiments therefore observe
//! exactly what a cold device would, which `tests/arena.rs` property-tests.
//!
//! # Scratch reuse invariants
//!
//! All per-op intermediates (DMA staging, unpacked activations, im2col
//! columns, i32 accumulators, SDP output, packed surfaces) live in a
//! per-device scratch arena whose buffers are resized per op but never
//! shrink, so steady-state inference allocates nothing on the heap. Two
//! invariants keep that safe: (1) every buffer is fully overwritten (or
//! explicitly zeroed) before use — nothing reads stale bytes from a
//! previous op or inference; (2) scratch never aliases DRAM — op inputs are
//! staged out of DRAM before any output is written back. The batched path
//! ([`Accelerator::run_batch_i8`]) additionally keeps **all** surfaces —
//! input, intermediates — in a per-address scratch map instead of DRAM;
//! results are bit-identical to the per-image path, but DRAM is only
//! touched for weight-arena refills and one final logits write per
//! mini-batch (the last image's, for parity with per-image runs), so
//! `dma_read` of surface addresses reflects per-image traffic only when
//! `batch == 1`.
//!
//! # DRAM memory model
//!
//! The device DRAM is a bounded address space `[0, dram_capacity)`: every
//! access is checked against the capacity and fails with
//! [`AccelError::DramOutOfBounds`] outside it. Its backing memory, however,
//! only extends to the highest byte ever written, and every byte above that
//! reads as zero, exactly like zero-initialised memory.
//! [`Accelerator::load_plan`] reserves the plan's `dram_size` once, so
//! steady-state inference never reallocates, and the resident backing
//! ([`Accelerator::dram_resident_bytes`]) stays within the plan's footprint
//! whatever the modelled capacity. Cloning a programmed device therefore
//! costs O(plan footprint), not O(`dram_capacity`).
//!
//! # Examples
//!
//! ```
//! use nvfi_accel::{Accelerator, AccelConfig, FaultConfig, FaultKind};
//! use nvfi_compiler::regmap::MultId;
//!
//! # fn demo(plan: &nvfi_compiler::ExecutionPlan, image: &nvfi_tensor::Tensor<f32>)
//! #     -> Result<(), nvfi_accel::AccelError> {
//! let mut accel = Accelerator::new(AccelConfig::default());
//! accel.load_plan(plan)?;
//! // Stuck-at-0 on the last multiplier of MAC unit 1:
//! accel.inject(&FaultConfig::new(vec![MultId::new(0, 7)], FaultKind::StuckAtZero));
//! let result = accel.run_inference(image)?;
//! println!("class {} in {:.3} ms", result.class, result.perf.latency_ms());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csb;
pub mod dram;
mod engine;
mod error;
pub mod fi;
pub mod perf;

pub use engine::{
    golden_prefix_passes, golden_restores, Accelerator, ExecMode, IdleLanePolicy, InferenceResult,
};
pub use error::AccelError;
pub use fi::{FaultConfig, FaultKind};
pub use perf::{AccelConfig, PerfReport, CLOCK_HZ_DEFAULT};
