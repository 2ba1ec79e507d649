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
//! The device consumes pre-quantized i8 images borrowed as dense CHW
//! slices; quantizing f32 inputs is the host's job (`nvfi_quant::batch`).
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
//!   selected lane, over every image of a mini-batch at once.
//! * [`ExecMode::Exact`] pushes every single product through the injector
//!   muxes in the CMAC's atomic-op schedule — the ground-truth oracle the
//!   other modes are tested against. It runs image by image: a mini-batch
//!   under it runs as one-image launches. Under [`ExecMode::Auto`] a
//!   mini-batch is one launch, inside a transient window too.
//!
//! Lane-delta equals the oracle for every fault kind × lane set × window
//! placement × idle-lane policy; `tests/equivalence.rs` proves it
//! exhaustively on small geometries and `tests/proptests.rs` by property.
//!
//! The fault-free prefix of a windowed inference is also *restorable*:
//! [`Accelerator::run_prefix_i8_view`] runs ops `0..b` on a mini-batch and
//! records, per image, the boundary's live-in surfaces
//! (`ExecutionPlan::live_in_surfaces`) packed as DRAM holds them, and
//! [`Accelerator::run_suffix_i8_view`] restores a mini-batch of such
//! records plus the prefix cycle count and runs ops `b..` — bit-identical
//! to the full run. Fault-injection campaigns build a campaign-lifetime
//! golden-prefix activation cache on top of this pair
//! (`nvfi::GoldenActivationCache`), capturing each image's prefix once
//! (probed per image by [`golden_prefix_passes`]) and restoring it for
//! every windowed work item ([`golden_restores`]).
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
//! # One executor and its scratch reuse invariants
//!
//! Every launch runs the same executor: one image
//! ([`Accelerator::run_inference_i8_view`]) or a mini-batch
//! ([`Accelerator::run_batch_i8_view`], which
//! [`Accelerator::classify_batch_i8`] drives per [`AccelConfig::batch`]
//! images, and the golden prefix and suffix). Activation surfaces are batch-innermost, `[C][H][W][B]` (plain
//! CHW in a one-image launch), so a conv or linear op is one im2col + GEMM
//! with columns in `(oy, ox, b)` order, then lane-delta or, under
//! [`ExecMode::Exact`], the oracle, and the SDP and pooling each run once
//! over all images. Results do not depend on how images are grouped into
//! launches.
//!
//! All per-op intermediates (DMA staging, im2col columns, i32
//! accumulators, SDP output, packed surfaces) live in a per-device scratch
//! arena whose buffers are resized per op but never shrink, so steady-state
//! inference allocates nothing on the heap; a cloned device starts with an
//! empty one. Three invariants keep that safe:
//!
//! 1. every buffer is fully overwritten (or explicitly zeroed) before use,
//!    so nothing reads stale bytes from a previous op or launch;
//! 2. there is **one surface map**: every activation surface of a launch,
//!    input included, is held densely under its DRAM address, and ops read
//!    their inputs from it. Each launch starts with every entry stale, and
//!    a write marks stale every entry whose DRAM footprint it overlaps, so
//!    a launch never reads a surface left by an earlier one;
//! 3. a **one-image launch writes through**: every surface it produces is
//!    also packed into DRAM, and a surface it has not produced (the golden
//!    suffix's restored live-ins) is read from DRAM. `dma_read` of any
//!    surface address sees exactly the per-inference state, and a golden
//!    capture, packed out of the surface map, records the same bytes. A
//!    mini-batch launch keeps its surfaces off DRAM, writes only its last
//!    image's logits there (for parity with a one-image run), unpacks a
//!    golden suffix's live-ins straight from its records, and rejects a
//!    plan whose ops read any other surface the launch has not written
//!    with [`AccelError::BadPlan`].

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
//! whatever the modelled capacity. Plan load writes the weight regions;
//! one-image launches write the input, every activation surface and the
//! logits; a mini-batch launch writes only the logits. Cloning a programmed device therefore
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
//! // The host quantizes; the device runs i8.
//! let qimage = nvfi_quant::batch::quantize_slice(image.as_slice(), plan.input_scale);
//! let result = accel.run_inference_i8_view(&qimage)?;
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
