//! The execution engine: runs compiled plans on the modelled datapath.
//!
//! # Campaign-lifetime reuse
//!
//! A fault-injection campaign runs the *same* plan for every image of every
//! fault configuration, so all per-plan work is hoisted out of the
//! per-inference path:
//!
//! * the **weight arena** ([`WeightArena`]) unpacks every conv/linear
//!   layer's weights from the blocked DRAM surface format once, at
//!   [`Accelerator::load_plan`] time, and keeps them laid out as the dense
//!   `K x (C*R*S)` GEMM operand. Host-visible DRAM mutation
//!   ([`Accelerator::dma_write`], [`Accelerator::flip_dram_bit`]) that
//!   overlaps a cached weight region marks the entry dirty, and the next use
//!   re-unpacks from DRAM — so weight-memory SEU experiments observe exactly
//!   the same data a cold device would;
//! * the **scratch arena** ([`Scratch`]) owns every intermediate buffer of
//!   the op executor (DMA staging, im2col columns, i32 accumulators, SDP
//!   output, packed surfaces) and the **surface map**, which holds every
//!   activation surface of a launch densely, by DRAM address. Buffers are
//!   resized per op but their capacity only grows, so steady-state
//!   inference performs zero heap allocation.
//!
//! # One executor
//!
//! Every launch — one image ([`Accelerator::run_inference_i8_view`]) or a
//! mini-batch ([`Accelerator::run_batch_i8_view`], and the golden prefix
//! and suffix of [`Accelerator::run_prefix_i8_view`] and
//! [`Accelerator::run_suffix_i8_view`], windowed or not) — runs one
//! executor per op kind over the launch's `b_n` images, held
//! **batch-innermost** in the surface map: `[C][H][W][B]`, plain CHW at
//! `B = 1` (what DRAM packs and the exact oracle reads). A conv or linear
//! op is one im2col + GEMM with columns in `(oy, ox, b)` order, so its
//! `K x (OH·OW·B)` output is already the next surface, and the SDP,
//! residual add and pooling are flat loops over it. Per-column
//! independence of the GEMM makes a mini-batch bit-identical to its images
//! run alone. Each launch starts with every surface-map entry stale. The
//! image count selects the DRAM contract:
//!
//! * a **one-image launch** writes every surface it produces to DRAM,
//!   packed, and reads a surface it has not produced (the golden suffix's
//!   restored live-ins) from DRAM, so `dma_read` sees exactly the
//!   per-inference traffic;
//! * a **mini-batch launch** keeps its surfaces off DRAM and writes only
//!   the last image's logits. It transposes its CHW input images into the
//!   batch-innermost input surface once; a golden suffix instead unpacks
//!   each image's restored live-in record straight into the surface map
//!   when an op first reads it. An op reading any other surface the launch
//!   has not written fails with [`AccelError::BadPlan`].
//!
//! Only [`ExecMode::Exact`] splits a mini-batch into one-image launches.
//!
//! # Lane-delta fault execution
//!
//! An injector touches only the products of its selected lanes, and the
//! mux is the identity everywhere else. So the exact accumulator of a
//! faulted op is the clean one plus one delta per injected product:
//!
//! ```text
//! acc_exact[k, col] = acc_clean[k, col] + Σ (f(p) − p)
//! ```
//!
//! where `f` is the injector's `fsel`/`fdata` mux followed by its XOR, and
//! the sum runs over the selected lanes' products inside the window.
//! Wrapping i32 addition is associative, so adding the deltas after the
//! GEMM is bit-identical to the per-product engine. Every faulted op
//! therefore runs the clean im2col + GEMM and then `lane_delta_into`,
//! which reads the products straight out of the im2col columns (padding
//! taps are already zero there). It has two arms:
//!
//! * **permanent** (the window covers the whole op): for lane `(m, j)`,
//!   every kernel row `k ≡ m (mod 8)` with `k < K` and every reduction row
//!   `(c, r, s)` with `c ≡ j (mod 8)` and `c < C`, add `f(w·x) − w·x` over
//!   every column, the columns of every image of the launch, so column
//!   order does not matter to it. The inner loop is branch-free over
//!   contiguous columns, so it vectorizes; a lane costs 1/64 of the op's
//!   MACs. Zero-fed idle channels (`c ≥ C`)
//!   multiply zeros, so each adds the constant `(cb_n − real_blocks)·R·S·f(0)`
//!   per output element; gated ones add nothing;
//! * **windowed**: MAC cycles are numbered lexicographically in
//!   `(kg, oy, ox, cb, r, s)` from the op's schedule-table span start, so a
//!   window is one contiguous cycle range per op and only the selected
//!   lanes' products inside it are visited — O(window × lanes), each
//!   product once per image of the launch (image `b`'s pixel `px` is column
//!   `px · B + b`). The base comes from the span table, not the running
//!   counter, so one-image, mini-batch and golden-suffix launches agree.
//!
//! The per-product `conv_exact_into` survives only as the
//! [`ExecMode::Exact`] arm of the accumulation, which runs one-image
//! launches. The `engine_path_*` counters of one-image launches say which
//! arm ran per op: `engine_path_fast` when no selected lane observes the
//! op, `engine_path_fast_corrected` when lane-delta ran, and
//! `engine_path_exact` for the oracle. Mini-batch launches, windowed ones
//! included, leave them untouched.
//!
//! # Phase timing
//!
//! While `nvfi_obs` tracing is on, every conv and linear op records the
//! nanoseconds of each phase it runs into the histograms
//! `engine_phase_{im2col,gemm,lane_delta,sdp,surface,exact}_ns`: im2col,
//! the GEMM, lane-delta, the SDP (the linear head's bias add), surface
//! staging and commit (DRAM unpack/pack in one-image launches), and the
//! per-product oracle under [`ExecMode::Exact`]. Off, an op pays one
//! trace-gate load and no clock read.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use nvfi_obs::metrics::{self, Counter, Histogram};
use nvfi_obs::trace;

use nvfi_compiler::plan::{ConvOp, ExecutionPlan, LinearOp, PlanOp, PoolKind, PoolOp, RegWrite};
use nvfi_compiler::surface;
use nvfi_hwnum::{sat, I18};
use nvfi_quant::exec::sdp_postprocess;
use nvfi_tensor::{gemm, im2col, pool, ConvGeom, Shape4, Tensor};

use crate::csb::CsbSpace;
use crate::dram::Dram;
use crate::error::AccelError;
use crate::fi::{FaultConfig, FaultInjectorBank};
use crate::perf::{self, AccelConfig, PerfReport};

/// How convolutions are evaluated functionally.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Every product goes through its injector mux, one by one. Slow — the
    /// ground-truth oracle the other modes are tested against.
    Exact,
    /// Clean GEMM plus lane-delta corrections for every fault kind and
    /// window (see the module docs), the paper's 0 / +1 / -1 experiments
    /// included. Ops no selected lane can observe — under a window, the
    /// fault-free prefix and the post-pulse suffix — run the clean GEMM
    /// alone. Bit-identical to [`ExecMode::Exact`].
    #[default]
    Auto,
}

/// How one plan op is evaluated — the per-op refinement of [`ExecMode`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum OpPath {
    /// Clean register-tiled im2col + GEMM; no selected lane observes any
    /// cycle of this op.
    Fast,
    /// Clean im2col + GEMM plus [`lane_delta_into`] over the op's faulted
    /// cycles.
    LaneDelta,
    /// The per-product oracle ([`ExecMode::Exact`] only).
    Exact,
}

/// Process-wide count of golden-prefix captures, in images (a
/// [`Accelerator::run_prefix_i8_view`] call of `b` images adds `b`),
/// backed by the `nvfi_obs` metrics registry under `golden_prefix_passes`.
/// A test probe in the spirit of `nvfi_quant::batch::quantization_passes`:
/// a campaign must capture the golden prefix of each image exactly once,
/// however many windowed work items later restore it.
fn golden_prefix_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_prefix_passes"))
}

/// Process-wide count of golden restores, in images (a
/// [`Accelerator::run_suffix_i8_view`] call of `b` records adds `b`) — the
/// cheap half of the golden-prefix protocol. Registry name:
/// `golden_restores`.
fn golden_restore_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_restores"))
}

/// Per-op path-decision counters: how often the engine took each
/// [`OpPath`] — `engine_path_fast` (no selected lane observes the op),
/// `engine_path_fast_corrected` (lane-delta ran) and `engine_path_exact`
/// (the [`ExecMode::Exact`] oracle). They count the ops of one-image
/// launches only; a mini-batch launch leaves them untouched.
fn path_counter(path: OpPath) -> &'static Counter {
    static FAST: OnceLock<Counter> = OnceLock::new();
    static CORRECTED: OnceLock<Counter> = OnceLock::new();
    static EXACT: OnceLock<Counter> = OnceLock::new();
    match path {
        OpPath::Fast => FAST.get_or_init(|| metrics::counter("engine_path_fast")),
        OpPath::LaneDelta => {
            CORRECTED.get_or_init(|| metrics::counter("engine_path_fast_corrected"))
        }
        OpPath::Exact => EXACT.get_or_init(|| metrics::counter("engine_path_exact")),
    }
}

/// A phase of a conv or linear op, timed by [`PhaseTimer`].
#[derive(Copy, Clone)]
enum Phase {
    Im2col,
    Gemm,
    LaneDelta,
    Sdp,
    Surface,
    Exact,
}

/// The `engine_phase_*_ns` histograms, indexed by [`Phase`].
fn phase_histogram(phase: Phase) -> &'static Histogram {
    static H: OnceLock<[Histogram; 6]> = OnceLock::new();
    let all = H.get_or_init(|| {
        ["im2col", "gemm", "lane_delta", "sdp", "surface", "exact"]
            .map(|p| metrics::histogram(&format!("engine_phase_{p}_ns")))
    });
    &all[phase as usize]
}

/// Lap timer over one op's phases. Armed only when tracing is on at the
/// start of the op; disarmed, [`PhaseTimer::lap`] reads no clock.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start() -> Self {
        PhaseTimer(trace::is_enabled().then(Instant::now))
    }

    /// Records the time since the previous lap as `phase`.
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            let ns = u64::try_from(now.duration_since(*last).as_nanos()).unwrap_or(u64::MAX);
            phase_histogram(phase).observe(ns);
            *last = now;
        }
    }
}

/// Reads the process-wide golden-prefix capture counter (test probe).
#[must_use]
pub fn golden_prefix_passes() -> u64 {
    golden_prefix_counter().get()
}

/// Reads the process-wide golden-restore counter (test probe).
#[must_use]
pub fn golden_restores() -> u64 {
    golden_restore_counter().get()
}

/// What happens on multiplier lanes whose channel index exceeds the layer's
/// channel count (partial channel blocks).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum IdleLanePolicy {
    /// Idle lanes multiply zeros — their (overridable!) products still enter
    /// the adder tree, as in CMAC's zero-padded atomic ops. Default.
    #[default]
    ZeroFed,
    /// Idle lanes are clock-gated: no product, faults have no effect there.
    Gated,
}

/// Result of one inference.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Raw i32 logits read back from DRAM.
    pub logits: Vec<i32>,
    /// Argmax class.
    pub class: u8,
    /// Cycle/latency model output for this inference.
    pub perf: PerfReport,
}

/// One cached weight region: the DRAM backing range plus the unpacked
/// `(K, C, R, S)` tensor (whose dense buffer is also the row-major
/// `K x (C*R*S)` GEMM operand).
#[derive(Clone, Debug)]
struct WeightEntry {
    addr: u64,
    bytes: u64,
    shape: Shape4,
    weights: Tensor<i8>,
    /// DRAM under this entry changed since the last unpack.
    dirty: bool,
}

/// Plan-lifetime cache of unpacked weights, indexed by plan-op position.
#[derive(Clone, Debug, Default)]
struct WeightArena {
    entries: Vec<WeightEntry>,
    /// `by_op[i]` is the entry index of plan op `i`, if it has weights.
    by_op: Vec<Option<usize>>,
}

impl WeightArena {
    fn clear(&mut self) {
        self.entries.clear();
        self.by_op.clear();
    }

    /// Marks every entry overlapping `[addr, addr + len)` dirty.
    fn invalidate_overlap(&mut self, addr: u64, len: u64) {
        for e in &mut self.entries {
            if overlaps(e.addr, e.bytes, addr, len) {
                e.dirty = true;
            }
        }
    }
}

/// One entry of the surface map: a surface of the current launch (or a
/// stale one of an earlier launch, kept for its capacity).
#[derive(Clone, Debug, Default)]
struct Surface {
    /// The launch's images, `[C][H][W][B]` (CHW in a one-image launch).
    data: Vec<i8>,
    /// Shape of one image.
    shape: Shape4,
    /// Written, or staged from DRAM or a golden restore, during the
    /// current launch.
    live: bool,
}

/// The golden records of a suffix launch: one record per image of the
/// launch, each the live-in `(addr, bytes)` `surfaces` packed back to back,
/// as DRAM holds them. A one-record launch writes its record to DRAM; a
/// mini-batch stages its live-ins from the records. Empty in every other
/// launch.
#[derive(Copy, Clone, Default)]
struct Restore<'a> {
    surfaces: &'a [(u64, u64)],
    records: &'a [i8],
}

/// Reusable intermediate buffers of the op executor. Every field is
/// resized per use; capacities persist, so the steady state allocates
/// nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// DMA staging for surface reads and arena refills.
    dma: Vec<i8>,
    /// im2col column matrix of the current op, columns in `(oy, ox, b)`.
    cols: Vec<i8>,
    /// i32 accumulators of the current op.
    acc: Vec<i32>,
    /// Dense output of the current op, copied into the surface map.
    out: Vec<i8>,
    /// Packed output surface of a one-image launch's DRAM write-through.
    packed: Vec<i8>,
    /// Logits of the launch's linear head, image-major.
    logits: Vec<i32>,
    /// The surface map: every dense surface of the launch, by address.
    surfaces: HashMap<u64, Surface>,
    /// `(addr, len)` of every DRAM range the current launch's ops wrote.
    written: Vec<(u64, u64)>,
}

/// A clone starts empty: nothing in the scratch arena outlives a launch,
/// so copying it would only copy capacity.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// The emulated accelerator device.
#[derive(Clone, Debug)]
pub struct Accelerator {
    config: AccelConfig,
    csb: CsbSpace,
    dram: Dram,
    plan: Option<Arc<ExecutionPlan>>,
    /// Functional MAC-array cycle counter (atomic ops retired); used to gate
    /// transient fault windows in exact mode.
    cycle: u64,
    arena: WeightArena,
    scratch: Scratch,
    /// Cycle-model report of the loaded plan (fault-independent, so it is
    /// computed once per plan and cloned per inference).
    perf_template: Option<PerfReport>,
    /// Per-op MAC-cycle spans of the loaded plan
    /// ([`ExecutionPlan::mac_cycle_spans`], computed once per plan) — the
    /// schedule table op-scoped exact execution consults per op.
    spans: Vec<Range<u64>>,
}

impl Accelerator {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Accelerator {
            config,
            csb: CsbSpace::new(),
            dram: Dram::new(config.dram_capacity),
            plan: None,
            cycle: 0,
            arena: WeightArena::default(),
            scratch: Scratch::default(),
            perf_template: None,
            spans: Vec::new(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// CSB register write (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_write(&mut self, addr: u32, value: u32) -> Result<(), AccelError> {
        self.csb.write(addr, value)
    }

    /// CSB register read (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_read(&self, addr: u32) -> Result<u32, AccelError> {
        self.csb.read(addr)
    }

    /// Host DMA into DRAM. Invalidates any weight-arena entry whose backing
    /// region overlaps the written range.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_write(&mut self, addr: u64, bytes: &[i8]) -> Result<(), AccelError> {
        self.dram.write_i8(addr, bytes)?;
        self.arena.invalidate_overlap(addr, bytes.len() as u64);
        Ok(())
    }

    /// Bytes of DRAM backing memory this device holds: one past the highest
    /// byte ever written (see the crate docs' DRAM memory model). Cloning the
    /// device copies exactly this much DRAM.
    #[must_use]
    pub fn dram_resident_bytes(&self) -> u64 {
        self.dram.resident_bytes()
    }

    /// Host DMA out of DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_read(&self, addr: u64, len: u64) -> Result<Vec<i8>, AccelError> {
        self.dram.read_i8(addr, len)
    }

    /// Flips one bit of DRAM — a memory single-event upset (SEU). Pointing
    /// this at a weight region emulates weight-memory faults, complementing
    /// the datapath injectors (part of the paper's "study the impact of
    /// introducing various FT mechanisms" future-work agenda). A flip that
    /// lands in a cached weight region invalidates the arena entry, so the
    /// next inference re-reads the faulted bytes exactly as a cold device
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if `addr` is outside DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_dram_bit(&mut self, addr: u64, bit: u8) -> Result<(), AccelError> {
        assert!(bit < 8, "bit index {bit} out of a byte");
        let byte = self.dram.read_i8(addr, 1)?[0];
        self.dram.write_i8(addr, &[byte ^ (1 << bit)])?;
        self.arena.invalidate_overlap(addr, 1);
        Ok(())
    }

    /// Exports the loaded plan's weight regions as a DRAM image: one
    /// `(addr, bytes)` record per conv/linear weight region, read from the
    /// device's **current** DRAM contents — so a weight-memory SEU injected
    /// with [`Accelerator::flip_dram_bit`] travels with the image. This is
    /// what a distributed campaign ships to remote workers once per session
    /// (the `nvfi-dist` coordinator), the software analogue of DMA-ing the
    /// programmed bitstream's weight memory to another board.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] if no plan is loaded; propagates DRAM
    /// errors.
    pub fn export_weight_image(&mut self) -> Result<Vec<(u64, Vec<i8>)>, AccelError> {
        if self.plan.is_none() {
            return Err(AccelError::NoPlan);
        }
        let regions: Vec<(u64, u64)> = self
            .arena
            .entries
            .iter()
            .map(|e| (e.addr, e.bytes))
            .collect();
        let mut out = Vec::with_capacity(regions.len());
        for (addr, bytes) in regions {
            out.push((addr, self.dram.read_i8(addr, bytes)?));
        }
        Ok(out)
    }

    /// Imports a weight image exported by [`Accelerator::export_weight_image`]
    /// (or carried by [`ExecutionPlan::weight_image`]): DMA-writes every
    /// region, invalidating overlapping weight-arena entries so the next
    /// inference unpacks the imported bytes exactly as a cold device would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if a region does not fit.
    pub fn import_weight_image(&mut self, regions: &[(u64, Vec<i8>)]) -> Result<(), AccelError> {
        for (addr, bytes) in regions {
            self.dma_write(*addr, bytes)?;
        }
        Ok(())
    }

    /// Loads a compiled plan: validates it against the DRAM capacity,
    /// preloads the packed weight regions and builds the weight arena.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the plan does not fit.
    pub fn load_plan(&mut self, plan: &ExecutionPlan) -> Result<(), AccelError> {
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan(format!(
                "plan needs {} bytes, device has {}",
                plan.dram_size, self.config.dram_capacity
            )));
        }
        for (addr, bytes) in &plan.weight_image {
            self.dram.write_i8(*addr, bytes)?;
        }
        self.install_plan(Arc::new(plan.clone()))
    }

    /// Loads a plan that was streamed into the command FIFO as register
    /// writes (see [`nvfi_compiler::plan::encode_reg_stream`]). Weights must
    /// be DMA'd separately, exactly as a real driver would; the arena
    /// entries built here start dirty-on-write, so weight DMA arriving after
    /// the commit is picked up on first use.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the FIFO contents do not decode.
    pub fn commit_cmd_fifo(&mut self) -> Result<(), AccelError> {
        let plan = nvfi_compiler::plan::decode_words(&self.csb.cmd_fifo)
            .map_err(|e| AccelError::BadPlan(e.to_string()))?;
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan("plan exceeds dram".into()));
        }
        self.install_plan(Arc::new(plan))
    }

    /// Shared tail of the two plan loaders: resets the run state and builds
    /// the weight arena from the plan's current DRAM contents.
    fn install_plan(&mut self, plan: Arc<ExecutionPlan>) -> Result<(), AccelError> {
        // A window programmed before the plan (or valid for a previous
        // plan) must be re-validated against this plan's schedule, or a
        // stale past-the-end window would silently disarm every injection.
        if let Some(w) = &self.csb.fi.window {
            Self::validate_window(w, plan.total_mac_cycles())?;
        }
        self.cycle = 0;
        // Every surface the plan touches lies below `dram_size`, so one
        // reservation keeps steady-state inference free of DRAM reallocation.
        self.dram.reserve(plan.dram_size);
        self.perf_template = Some(perf::plan_report(&plan, self.config.clock_hz));
        self.spans = plan.mac_cycle_spans();
        self.arena.clear();
        self.arena.by_op = vec![None; plan.ops.len()];
        for (i, op) in plan.ops.iter().enumerate() {
            let (addr, shape) = match op {
                PlanOp::Conv(c) => (c.weight_addr, c.geom.weight_shape()),
                PlanOp::Linear(l) => (l.weight_addr, Shape4::new(l.out_f, l.in_f, 1, 1)),
                PlanOp::Pool(_) => continue,
            };
            let bytes = surface::weight_bytes(shape.n, shape.c, shape.h, shape.w) as u64;
            self.arena.by_op[i] = Some(self.arena.entries.len());
            self.arena.entries.push(WeightEntry {
                addr,
                bytes,
                shape,
                weights: Tensor::zeros(shape),
                dirty: true,
            });
        }
        self.plan = Some(plan);
        // Eager unpack so campaign steady state starts warm.
        for i in 0..self.arena.by_op.len() {
            self.refresh_weights(i)?;
        }
        Ok(())
    }

    /// Re-unpacks the weights of plan op `op_idx` from DRAM if the cached
    /// copy is stale (or was never filled).
    fn refresh_weights(&mut self, op_idx: usize) -> Result<(), AccelError> {
        let Some(Some(ei)) = self.arena.by_op.get(op_idx).copied() else {
            return Ok(());
        };
        if !self.arena.entries[ei].dirty {
            return Ok(());
        }
        let (addr, bytes, shape) = {
            let e = &self.arena.entries[ei];
            (e.addr, e.bytes, e.shape)
        };
        self.dram.read_i8_into(addr, bytes, &mut self.scratch.dma)?;
        let e = &mut self.arena.entries[ei];
        surface::unpack_weights_into(&self.scratch.dma, shape, e.weights.as_mut_slice());
        e.dirty = false;
        Ok(())
    }

    /// Applies the register writes of `stream` (FI programming, command
    /// FIFO, ...) in order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing write.
    pub fn apply_reg_stream(&mut self, stream: &[RegWrite]) -> Result<(), AccelError> {
        for w in stream {
            self.csb_write(w.addr, w.value)?;
        }
        Ok(())
    }

    /// Programs a fault configuration through the CSB registers.
    pub fn inject(&mut self, fault: &FaultConfig) {
        self.inject_writes(&fault.reg_writes());
    }

    /// Programs a fault from an already-encoded register stream.
    ///
    /// [`FaultConfig::reg_writes`] allocates the stream; when the same fault
    /// is re-injected across every member of a device pool, encoding it once
    /// and replaying the writes per device keeps re-injection allocation-free.
    pub fn inject_writes(&mut self, writes: &[RegWrite]) {
        for w in writes {
            self.csb
                .write(w.addr, w.value)
                .expect("FI registers are mapped");
        }
    }

    /// Disables all fault injection.
    pub fn clear_faults(&mut self) {
        self.csb.fi = FaultInjectorBank::new();
    }

    /// Restricts injection to a cycle window (a transient / "pulse" fault).
    /// Under [`ExecMode::Auto`] only the ops whose MAC-cycle span intersects
    /// the window pay anything: lane-delta visits the selected lanes'
    /// products inside the window, and every other op runs the clean GEMM.
    /// [`ExecMode::Exact`] runs every product through the oracle. Windowed
    /// mini-batches run as one launch, like permanent ones, and so do
    /// golden-prefix captures and restores.
    ///
    /// Cycle numbering restarts at every launched inference (see
    /// [`Accelerator::mac_cycles_retired`]), so the window describes a pulse
    /// relative to inference start: every image of a campaign experiences
    /// the same transient, regardless of which device of a pool — or which
    /// position in a mini-batch — it lands on.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if a plan is loaded and the window
    /// cannot overlap any retired MAC cycle (`1..=total`): such a "pulse"
    /// would silently run a fault-free campaign.
    pub fn set_fault_window(&mut self, window: Option<Range<u64>>) -> Result<(), AccelError> {
        if let Some(w) = &window {
            self.validate_fault_window(w)?;
        }
        self.csb.fi.window = window;
        Ok(())
    }

    /// Read-only validation of a prospective transient window: everything
    /// [`Accelerator::set_fault_window`] checks (plan-schedule overlap when
    /// a plan is loaded) without mutating the device — for callers that
    /// want to surface window errors up front.
    ///
    /// # Errors
    ///
    /// Same contract as [`Accelerator::set_fault_window`].
    pub fn validate_fault_window(&self, window: &Range<u64>) -> Result<(), AccelError> {
        if let Some(plan) = &self.plan {
            Self::validate_window(window, plan.total_mac_cycles())?;
        }
        Ok(())
    }

    /// Rejects a transient window that cannot overlap any retired MAC cycle
    /// (`1..=total`) of a plan. Shared by [`Accelerator::set_fault_window`]
    /// and the plan loaders (a window programmed before — or across — plan
    /// loads is re-validated at install time).
    fn validate_window(w: &Range<u64>, total: u64) -> Result<(), AccelError> {
        if w.start >= w.end || w.end <= 1 || w.start > total {
            return Err(AccelError::BadPlan(format!(
                "transient fault window {}..{} cannot overlap any MAC \
                 cycle of this plan (the per-inference counter retires \
                 cycles 1..={total}); the campaign would be a \
                 fault-free no-op",
                w.start, w.end
            )));
        }
        Ok(())
    }

    /// The per-inference MAC-cycle span `[start, end)` of every plan op, in
    /// retired-counter numbering (see [`ExecutionPlan::mac_cycle_spans`]).
    /// Empty without a loaded plan.
    #[must_use]
    pub fn mac_cycle_spans(&self) -> &[Range<u64>] {
        &self.spans
    }

    /// Total MAC cycles one inference of the loaded plan retires.
    #[must_use]
    pub fn total_mac_cycles(&self) -> Option<u64> {
        self.plan.as_ref().map(|p| p.total_mac_cycles())
    }

    /// Index of the first plan op whose MAC-cycle span intersects `window`
    /// — the earliest op that can observe a transient fault in that window.
    /// `None` without a plan or when the window misses every op.
    #[must_use]
    pub fn first_op_in_window(&self, window: &Range<u64>) -> Option<usize> {
        self.spans.iter().position(|s| span_intersects(s, window))
    }

    /// MAC cycles retired by ops `0..boundary` — the value the cycle counter
    /// holds, per image, when op `boundary` starts, which a golden restore
    /// ([`Accelerator::run_suffix_i8_view`]) re-seeds.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > ops.len()` of the loaded plan (or none is).
    #[must_use]
    pub fn prefix_mac_cycles(&self, boundary: usize) -> u64 {
        if boundary == self.spans.len() {
            return self.spans.last().map_or(0, |s| s.end - 1);
        }
        self.spans[boundary].start - 1
    }

    /// The functional MAC-array cycle counter: atomic ops retired by the
    /// most recent launch — one image's [`Accelerator::run_inference_i8_view`],
    /// or one mini-batch of [`Accelerator::run_batch_i8_view`],
    /// [`Accelerator::run_prefix_i8_view`] or
    /// [`Accelerator::run_suffix_i8_view`], which retires the cycles of all
    /// its images. The counter restarts at each launch (a golden suffix of
    /// `b` images re-seeds it with `b` times its prefix's count), so
    /// transient fault windows are per-inference-deterministic.
    #[must_use]
    pub fn mac_cycles_retired(&self) -> u64 {
        self.cycle
    }

    /// Runs one pre-quantized i8 image borrowed as a dense CHW slice — the
    /// zero-copy entry point device pools drive with sub-views of a
    /// campaign-lifetime quantized evaluation set.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image.len()` is not exactly one plan
    /// input image, or any engine error.
    pub fn run_inference_i8_view(&mut self, image: &[i8]) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        self.launch(&plan, Some(image), Restore::default(), 1, 0..plan.ops.len())?;
        self.read_result(&plan)
    }

    /// Runs only the plan's prefix `ops[0..boundary]` on pre-quantized i8
    /// images borrowed as dense, back-to-back CHW slices, and appends one
    /// **record** per image to `records`: the boundary's live-in `surfaces`
    /// (see `ExecutionPlan::live_in_surfaces`), packed back to back exactly
    /// as DRAM holds them after a one-image prefix run. This is the
    /// **capture** half of the golden-prefix protocol: a campaign runs it
    /// fault-free once per image and replays the records into
    /// [`Accelerator::run_suffix_i8_view`] for every windowed work item.
    ///
    /// The images run as one launch (one-image launches under
    /// [`ExecMode::Exact`]), and the records are packed out of its surface
    /// map, so they do not depend on how images are grouped. A one-image
    /// launch also leaves DRAM in the state a full run has at the boundary.
    /// Counted, per image, by the process-wide [`golden_prefix_passes`]
    /// probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `images.len()` is not a whole, non-zero
    /// number of plan input images, `boundary` is outside the plan or a
    /// live-in surface is not a surface the prefix left live at its size,
    /// or any engine error.
    pub fn run_prefix_i8_view(
        &mut self,
        images: &[i8],
        boundary: usize,
        surfaces: &[(u64, u64)],
        records: &mut Vec<i8>,
    ) -> Result<(), AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        check_boundary(&plan, boundary)?;
        let b_n = whole_images(&plan, images)?.max(1);
        if b_n > 1 && self.per_image_only() {
            for image in images.chunks_exact(images.len() / b_n) {
                self.run_prefix_i8_view(image, boundary, surfaces, records)?;
            }
            return Ok(());
        }
        self.launch(&plan, Some(images), Restore::default(), b_n, 0..boundary)?;
        self.capture(surfaces, b_n, records)?;
        golden_prefix_counter().add(b_n as u64);
        Ok(())
    }

    /// Runs the plan's suffix `ops[boundary..]` from restored golden
    /// prefixes: `surfaces` names the boundary's live-in `(addr, bytes)`
    /// regions and `records` holds one record per image, each those
    /// surfaces' bytes back to back, exactly as
    /// [`Accelerator::run_prefix_i8_view`] captured them. The records run
    /// as one launch whose cycle counter is re-seeded with the prefix's
    /// retired count per image, so transient fault windows observe the same
    /// absolute cycle numbers as a full run. A one-record launch writes the
    /// record to DRAM and stages its live-ins from there; a mini-batch
    /// unpacks every record straight into its batch-innermost surface map.
    /// Under [`ExecMode::Exact`] each record runs as a one-image launch.
    /// Results are bit-identical to [`Accelerator::run_inference_i8_view`]
    /// of each image (tested in `tests/equivalence.rs`). Counted, per
    /// record, by the process-wide [`golden_restores`] probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `boundary` is outside the plan or
    /// `records` is not a whole, non-zero number of records of `surfaces`,
    /// or any engine error.
    pub fn run_suffix_i8_view(
        &mut self,
        boundary: usize,
        surfaces: &[(u64, u64)],
        records: &[i8],
    ) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        check_boundary(&plan, boundary)?;
        let stride: usize = surfaces.iter().map(|&(_, b)| b as usize).sum();
        if stride == 0 || records.is_empty() || !records.len().is_multiple_of(stride) {
            return Err(AccelError::BadPlan(format!(
                "golden restore of {} bytes is not a whole number of {stride}-byte \
                 live-in records",
                records.len()
            )));
        }
        let b_n = records.len() / stride;
        if b_n > 1 && self.per_image_only() {
            let mut out = Vec::with_capacity(b_n);
            for record in records.chunks_exact(stride) {
                out.extend(self.run_suffix_i8_view(boundary, surfaces, record)?);
            }
            return Ok(out);
        }
        let restore = Restore { surfaces, records };
        self.launch(&plan, None, restore, b_n, boundary..plan.ops.len())?;
        golden_restore_counter().add(b_n as u64);
        self.results(&plan, b_n)
    }

    /// The results of a launch that ran to the logits: a one-image launch
    /// reads its logits back from DRAM, a mini-batch splits the image-major
    /// `scratch.logits`.
    fn results(
        &mut self,
        plan: &ExecutionPlan,
        b_n: usize,
    ) -> Result<Vec<InferenceResult>, AccelError> {
        if b_n == 1 {
            return Ok(vec![self.read_result(plan)?]);
        }
        let logits = &self.scratch.logits;
        if logits.is_empty() {
            return Err(AccelError::BadPlan("plan has no linear head".into()));
        }
        Ok(logits
            .chunks_exact(logits.len() / b_n)
            .map(|l| InferenceResult {
                logits: l.to_vec(),
                class: nvfi_quant::exec::argmax(l),
                perf: self.perf_report(),
            })
            .collect())
    }

    /// Reads the logits back and assembles an [`InferenceResult`].
    fn read_result(&mut self, plan: &ExecutionPlan) -> Result<InferenceResult, AccelError> {
        let logits = self.dram.read_i32(plan.output_addr, plan.num_classes)?;
        let class = nvfi_quant::exec::argmax(&logits);
        Ok(InferenceResult {
            logits,
            class,
            perf: self.perf_report(),
        })
    }

    fn perf_report(&self) -> PerfReport {
        self.perf_template.clone().expect("plan loaded")
    }

    /// Runs a mini-batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices — device pools point this at sub-views of a
    /// campaign-lifetime quantized evaluation set, so the per-call cost is
    /// zero copies and zero quantization.
    ///
    /// The whole mini-batch is one launch: the images are transposed once
    /// into a batch-innermost `[C][H][W][B]` surface, and each layer runs
    /// once, as one im2col + GEMM with columns in `(oy, ox, b)` order, on
    /// surfaces kept batch-innermost and off DRAM (a one-image launch keeps
    /// CHW, which DRAM packs and the oracle reads). The result is
    /// bit-identical to [`Accelerator::run_inference_i8_view`] per image (GEMM
    /// output columns are independent, and lane-delta corrects every column
    /// of the mini-batch at once, inside a transient window too). Under
    /// [`ExecMode::Exact`] the batch runs as one-image launches.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `images.len()` is not a whole number of
    /// plan input images or an op reads a surface the launch has not
    /// written, or any engine error.
    pub fn run_batch_i8_view(&mut self, images: &[i8]) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        let b_n = whole_images(&plan, images)?;
        if b_n == 0 {
            return Ok(Vec::new());
        }
        if b_n > 1 && self.per_image_only() {
            return images
                .chunks_exact(images.len() / b_n)
                .map(|img| self.run_inference_i8_view(img))
                .collect();
        }
        self.launch(
            &plan,
            Some(images),
            Restore::default(),
            b_n,
            0..plan.ops.len(),
        )?;
        self.results(&plan, b_n)
    }

    /// Classifies a batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices, running the fast path over mini-batches of
    /// [`AccelConfig::batch`] images. Each mini-batch is a borrowed sub-view
    /// — no per-call copy and no quantization, which is what lets a
    /// fault-injection campaign quantize its evaluation set exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if `images.len()` is not a whole
    /// number of plan input images; propagates the first engine error.
    pub fn classify_batch_i8(&mut self, images: &[i8]) -> Result<Vec<u8>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let n = whole_images(plan, images)?;
        let image_len = plan.input_shape.with_n(1).image_len();
        let batch = self.config.batch.max(1);
        let mut out = Vec::with_capacity(n);
        for mini in images.chunks(batch * image_len) {
            out.extend(self.run_batch_i8_view(mini)?.iter().map(|r| r.class));
        }
        Ok(out)
    }

    // -- internal op execution ---------------------------------------------

    /// Whether a mini-batch must run as one-image launches: only under
    /// [`ExecMode::Exact`], whose per-product oracle runs one image at a
    /// time. Transient windows and golden restores run batched.
    fn per_image_only(&self) -> bool {
        self.config.mode == ExecMode::Exact
    }

    /// The execution path of plan op `op_idx` under the current fault
    /// programming: [`OpPath::Exact`] under [`ExecMode::Exact`], otherwise
    /// [`OpPath::Fast`] when no selected lane observes any cycle of the op
    /// (no active fault, or a window missing its span) and
    /// [`OpPath::LaneDelta`] when one does. Counted by [`path_counter`] in
    /// one-image launches.
    fn op_path(&self, op_idx: usize, b_n: usize) -> OpPath {
        let path = if self.config.mode == ExecMode::Exact {
            OpPath::Exact
        } else if self.csb.fi.any_active() && !self.faulted_cycles(op_idx).is_empty() {
            OpPath::LaneDelta
        } else {
            OpPath::Fast
        };
        if b_n == 1 {
            path_counter(path).inc();
        }
        path
    }

    /// The op-local MAC cycles of plan op `op_idx` (`0` is its first cycle)
    /// during which the injectors are armed: all of them for a permanent
    /// fault, the window's overlap with the op's schedule-table span
    /// otherwise. Computed from the span table rather than the running
    /// counter, so mini-batch and golden-suffix launches see the same range.
    fn faulted_cycles(&self, op_idx: usize) -> Range<u64> {
        let span = &self.spans[op_idx];
        match &self.csb.fi.window {
            None => 0..span.end - span.start,
            Some(w) => {
                let (lo, hi) = (w.start.max(span.start), w.end.min(span.end));
                if lo < hi {
                    lo - span.start..hi - span.start
                } else {
                    0..0
                }
            }
        }
    }

    /// Atomic-op (MAC-array cycle) count of plan op `op_idx`, read from the
    /// cached schedule table — the *same* numbers the exact engine retires
    /// one by one, so fast-path bulk bumps and exact per-product counting
    /// can never drift apart.
    fn op_mac_cycles(&self, op_idx: usize) -> u64 {
        let s = &self.spans[op_idx];
        s.end - s.start
    }

    /// One launch: `b_n` images through plan ops `ops`, the cycle counter
    /// starting at `b_n` times the MAC cycles of ops `0..ops.start`.
    /// `images` seeds the plan input surface. A golden suffix passes `None`
    /// and its `restore` records instead: a one-image launch writes its
    /// record to DRAM and stages the live-ins from there, a mini-batch
    /// stages them from the records (see [`Accelerator::stage_surface`]).
    /// Every surface-map entry of an earlier launch goes stale first, so a
    /// launch reads only surfaces it wrote or restored itself or, with one
    /// image, DRAM.
    fn launch(
        &mut self,
        plan: &ExecutionPlan,
        images: Option<&[i8]>,
        restore: Restore<'_>,
        b_n: usize,
        ops: Range<usize>,
    ) -> Result<(), AccelError> {
        self.cycle = b_n as u64 * self.prefix_mac_cycles(ops.start);
        self.scratch.logits.clear();
        self.scratch.written.clear();
        for s in self.scratch.surfaces.values_mut() {
            s.live = false;
        }
        if let Some(images) = images {
            let shape = plan.input_shape.with_n(1);
            if images.len() != b_n * shape.image_len() {
                return Err(AccelError::BadPlan(format!(
                    "input of {} pixels does not match {b_n} plan input image(s) {} \
                     ({} pixels each)",
                    images.len(),
                    plan.input_shape,
                    shape.image_len()
                )));
            }
            let out = &mut self.scratch.out;
            out.resize(images.len(), 0);
            for (b, image) in images.chunks_exact(shape.image_len()).enumerate() {
                put_lane(image, b, b_n, out);
            }
            self.commit_surface(plan.input_addr, shape, b_n)?;
        }
        if b_n == 1 {
            let mut off = 0usize;
            for &(addr, bytes) in restore.surfaces {
                let bytes = bytes as usize;
                self.dram
                    .write_i8(addr, &restore.records[off..off + bytes])?;
                // Activation surfaces never alias weight regions by allocator
                // construction, but keep the DRAM-mutation contract anyway.
                self.arena.invalidate_overlap(addr, bytes as u64);
                off += bytes;
            }
        }
        for i in ops {
            match &plan.ops[i] {
                PlanOp::Conv(c) => self.exec_conv(i, c, b_n, restore)?,
                PlanOp::Pool(p) => self.exec_pool(p, b_n, restore)?,
                PlanOp::Linear(l) => self.exec_linear(i, l, b_n, restore)?,
            }
        }
        Ok(())
    }

    /// Appends one record per image of the last launch to `records`: the
    /// live-in `surfaces` packed back to back, each out of its live
    /// surface-map entry — exactly the bytes a one-image launch leaves in
    /// DRAM.
    fn capture(
        &mut self,
        surfaces: &[(u64, u64)],
        b_n: usize,
        records: &mut Vec<i8>,
    ) -> Result<(), AccelError> {
        let Scratch {
            surfaces: map, dma, ..
        } = &mut self.scratch;
        for b in 0..b_n {
            for &(addr, bytes) in surfaces {
                let s = map
                    .get(&addr)
                    .filter(|s| s.live && surface_len(s.shape) == bytes)
                    .ok_or_else(|| {
                        AccelError::BadPlan(format!(
                            "live-in surface at {addr:#x} ({bytes} bytes) is not a \
                             surface the prefix left live"
                        ))
                    })?;
                dma.clear();
                dma.extend(s.data.iter().skip(b).step_by(b_n));
                let at = records.len();
                records.resize(at + bytes as usize, 0);
                surface::pack_surface_into(dma, s.shape, &mut records[at..]);
            }
        }
        Ok(())
    }

    /// Makes the surface at `addr` live in the surface map as `b_n`
    /// batch-innermost images of `shape`. A one-image launch reads a surface
    /// it has not written (the golden suffix's live-ins) from DRAM. A
    /// mini-batch launch keeps its surfaces off DRAM: it unpacks a surface
    /// of its `restore` set that no op of the launch wrote from each
    /// image's record, and any other missing surface is a plan error.
    fn stage_surface(
        &mut self,
        addr: u64,
        shape: Shape4,
        b_n: usize,
        restore: Restore<'_>,
    ) -> Result<(), AccelError> {
        let Scratch {
            dma,
            surfaces,
            written,
            ..
        } = &mut self.scratch;
        if surfaces
            .get(&addr)
            .is_some_and(|s| s.live && s.shape == shape)
        {
            return Ok(());
        }
        let bytes = surface_len(shape);
        let s = if b_n == 1 {
            self.dram.read_i8_into(addr, bytes, dma)?;
            let s = surfaces.entry(addr).or_default();
            s.data.resize(shape.image_len(), 0);
            surface::unpack_surface_into(dma, shape, &mut s.data);
            s
        } else {
            let at = restore
                .offset(addr, bytes)
                .filter(|_| {
                    !written
                        .iter()
                        .any(|&(a, len)| overlaps(a, len, addr, bytes))
                })
                .ok_or_else(|| {
                    AccelError::BadPlan(format!(
                        "an op reads the surface at {addr:#x} as {shape}, which this \
                         {b_n}-image launch has neither written nor restored"
                    ))
                })?;
            let s = surfaces.entry(addr).or_default();
            s.data.resize(b_n * shape.image_len(), 0);
            dma.resize(shape.image_len(), 0);
            let stride = restore.records.len() / b_n;
            for (b, record) in restore.records.chunks_exact(stride).enumerate() {
                surface::unpack_surface_into(&record[at..at + bytes as usize], shape, dma);
                put_lane(dma, b, b_n, &mut s.data);
            }
            s
        };
        s.shape = shape;
        s.live = true;
        Ok(())
    }

    /// Publishes `scratch.out`, `b_n` batch-innermost images of `shape`, as
    /// the surface at `addr`. A one-image launch also writes it to DRAM,
    /// packed: the DRAM contract of per-image runs.
    fn commit_surface(&mut self, addr: u64, shape: Shape4, b_n: usize) -> Result<(), AccelError> {
        let bytes = surface_len(shape);
        let scratch = &mut self.scratch;
        if b_n == 1 {
            scratch.packed.resize(bytes as usize, 0);
            surface::pack_surface_into(&scratch.out, shape, &mut scratch.packed);
            self.dram.write_i8(addr, &scratch.packed)?;
        }
        self.overwritten(addr, bytes);
        // Copied, not swapped: each address keeps a buffer of its own size.
        let s = self.scratch.surfaces.entry(addr).or_default();
        s.data.clear();
        s.data.extend_from_slice(&self.scratch.out);
        s.shape = shape;
        s.live = true;
        Ok(())
    }

    /// Records that the launch wrote `[addr, addr + len)` and marks stale
    /// every surface-map entry whose packed DRAM footprint overlaps it.
    /// Compiled plans never overlap surfaces, but a plan committed through
    /// the command FIFO is not verified; this keeps a one-image launch
    /// reading exactly what DRAM holds, and a mini-batch from restoring a
    /// live-in its own ops overwrote.
    fn overwritten(&mut self, addr: u64, len: u64) {
        self.scratch.written.push((addr, len));
        for (&a, s) in &mut self.scratch.surfaces {
            if overlaps(a, surface_len(s.shape), addr, len) {
                s.live = false;
            }
        }
    }

    /// The accumulation of a conv or linear op, lowered to one GEMM over the
    /// launch's im2col columns, then lane-delta when a selected lane observes
    /// the op — or, under [`ExecMode::Exact`], the per-product oracle
    /// instead — into `scratch.acc`, `[K][OH][OW][B]`. A 1x1 stride-1
    /// unpadded op (the linear head among them) multiplies its input surface
    /// directly, which equals its column matrix.
    fn accumulate(
        &mut self,
        op_idx: usize,
        g: &ConvGeom,
        input_addr: u64,
        b_n: usize,
        restore: Restore<'_>,
        timer: &mut PhaseTimer,
    ) -> Result<(), AccelError> {
        let path = self.op_path(op_idx, b_n);
        let op_cycles = self.op_mac_cycles(op_idx);
        let faulted = self.faulted_cycles(op_idx);
        self.refresh_weights(op_idx)?;
        self.stage_surface(input_addr, g.input.with_n(1), b_n, restore)?;
        timer.lap(Phase::Surface);
        let fi = &self.csb.fi;
        let gated = self.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &self.arena.entries[self.arena.by_op[op_idx].expect("MAC op has weights")].weights;
        let Scratch {
            surfaces,
            cols,
            acc,
            ..
        } = &mut self.scratch;
        let input = &surfaces[&input_addr].data;
        let (crs, wide_n) = (g.input.c * g.r * g.s, g.oh * g.ow * b_n);
        // Zeroing the accumulators is billed to the phase that accumulates
        // into them: `exact` or `gemm`.
        if path == OpPath::Exact {
            assert_eq!(b_n, 1, "the exact oracle runs one-image launches");
            acc.clear();
            acc.resize(g.k * wide_n, 0);
            conv_exact_into(fi, gated, &mut self.cycle, input, weights, g, acc);
            timer.lap(Phase::Exact);
            return Ok(());
        }
        let cols: &[i8] = if (g.r, g.s, g.stride, g.pad) == (1, 1, 1, 0) {
            input
        } else {
            cols.resize(crs * wide_n, 0);
            im2col::im2col_batched_into(input, g, b_n, cols);
            cols
        };
        timer.lap(Phase::Im2col);
        acc.clear();
        acc.resize(g.k * wide_n, 0);
        gemm::gemm_i8_i32_into(weights.as_slice(), cols, acc, g.k, crs, wide_n);
        timer.lap(Phase::Gemm);
        self.cycle += op_cycles * b_n as u64;
        if path == OpPath::LaneDelta {
            lane_delta_into(fi, gated, faulted, weights.as_slice(), cols, g, acc, b_n);
            timer.lap(Phase::LaneDelta);
        }
        Ok(())
    }

    /// Convolution: the accumulation, then the SDP into the op's output
    /// surface.
    fn exec_conv(
        &mut self,
        op_idx: usize,
        op: &ConvOp,
        b_n: usize,
        restore: Restore<'_>,
    ) -> Result<(), AccelError> {
        let mut timer = PhaseTimer::start();
        let g = op.geom;
        self.accumulate(op_idx, &g, op.input_addr, b_n, restore, &mut timer)?;
        let out_shape = Shape4::new(1, g.k, g.oh, g.ow);
        // Staged after the accumulation, which is done with the input: in a
        // one-image launch the residual may replace it in the surface map.
        if let Some(addr) = op.fuse_add_addr {
            self.stage_surface(addr, out_shape, b_n, restore)?;
            timer.lap(Phase::Surface);
        }
        let Scratch {
            surfaces, acc, out, ..
        } = &mut self.scratch;
        let residual = op.fuse_add_addr.map(|addr| surfaces[&addr].data.as_slice());
        out.resize(acc.len(), 0);
        sdp_into(op, acc, residual, out);
        timer.lap(Phase::Sdp);
        self.commit_surface(op.output_addr, out_shape, b_n)?;
        timer.lap(Phase::Surface);
        Ok(())
    }

    fn exec_pool(
        &mut self,
        op: &PoolOp,
        b_n: usize,
        restore: Restore<'_>,
    ) -> Result<(), AccelError> {
        let (s, o) = (op.in_shape.with_n(1), op.out_shape());
        self.stage_surface(op.input_addr, s, b_n, restore)?;
        let Scratch { surfaces, out, .. } = &mut self.scratch;
        out.resize(b_n * o.image_len(), 0);
        pool_into(op, &surfaces[&op.input_addr].data, b_n, out);
        self.commit_surface(op.output_addr, o, b_n)
    }

    /// The linear head: the accumulation plus bias into `scratch.logits`,
    /// image-major (the accumulators are `[out_f][B]`). DRAM receives the
    /// launch's last image's logits, as after a run of that image alone.
    fn exec_linear(
        &mut self,
        op_idx: usize,
        op: &LinearOp,
        b_n: usize,
        restore: Restore<'_>,
    ) -> Result<(), AccelError> {
        let mut timer = PhaseTimer::start();
        // The head runs on the same MAC array as a 1x1 convolution over a
        // 1x1 spatial extent — faults apply here too — and its `[C][1][1][B]`
        // input surface is already the `in_f x B` GEMM operand.
        let g = ConvGeom::new(Shape4::new(1, op.in_f, 1, 1), op.out_f, 1, 1, 1, 0);
        self.accumulate(op_idx, &g, op.input_addr, b_n, restore, &mut timer)?;
        let Scratch { acc, logits, .. } = &mut self.scratch;
        logits.clear();
        logits.extend((0..acc.len()).map(|i| {
            let (b, o) = (i / op.out_f, i % op.out_f);
            acc[o * b_n + b].wrapping_add(op.bias[o])
        }));
        timer.lap(Phase::Sdp);
        self.dram
            .write_i32(op.output_addr, &logits[(b_n - 1) * op.out_f..])?;
        self.overwritten(op.output_addr, 4 * op.out_f as u64);
        timer.lap(Phase::Surface);
        Ok(())
    }
}

impl Restore<'_> {
    /// Offset, within each record, of the restored surface at `addr`, when
    /// the restore set holds one of at least `bytes` bytes there.
    fn offset(&self, addr: u64, bytes: u64) -> Option<usize> {
        let mut at = 0;
        for &(a, len) in self.surfaces {
            if a == addr && len >= bytes {
                return Some(at);
            }
            at += len as usize;
        }
        None
    }
}

/// The number of plan input images in `images`.
fn whole_images(plan: &ExecutionPlan, images: &[i8]) -> Result<usize, AccelError> {
    let image_len = plan.input_shape.with_n(1).image_len();
    if !images.len().is_multiple_of(image_len) {
        return Err(AccelError::BadPlan(format!(
            "batch of {} pixels is not a whole number of plan input images \
             ({} pixels each)",
            images.len(),
            image_len
        )));
    }
    Ok(images.len() / image_len)
}

/// Rejects a golden prefix/suffix boundary outside the plan.
fn check_boundary(plan: &ExecutionPlan, boundary: usize) -> Result<(), AccelError> {
    if boundary > plan.ops.len() {
        return Err(AccelError::BadPlan(format!(
            "golden boundary {boundary} outside the {}-op plan",
            plan.ops.len()
        )));
    }
    Ok(())
}

/// Packed DRAM bytes of one image's surface of `shape`.
fn surface_len(shape: Shape4) -> u64 {
    surface::surface_bytes(shape.c, shape.h, shape.w) as u64
}

/// Whether the byte ranges `[a, a + a_len)` and `[b, b + b_len)` overlap.
fn overlaps(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    a < b.saturating_add(b_len) && b < a.saturating_add(a_len)
}

/// Writes the CHW `image` into lane `b` of a batch-innermost surface of
/// `b_n` images.
fn put_lane(image: &[i8], b: usize, b_n: usize, surface: &mut [i8]) {
    for (i, &v) in image.iter().enumerate() {
        surface[i * b_n + b] = v;
    }
}

/// Whether two half-open cycle ranges overlap (an empty range — e.g. a
/// pool op's span — never does, even when it sits strictly inside the
/// other range).
fn span_intersects(a: &Range<u64>, b: &Range<u64>) -> bool {
    !a.is_empty() && !b.is_empty() && a.start < b.end && b.start < a.end
}

/// Ground-truth convolution: every product through its injector mux.
/// Schedule (defines the cycle numbering for transient windows):
/// kernel-group -> output row -> output col -> channel-block -> tap.
/// `acc` is the dense `K x OH x OW` accumulator (pre-zeroed).
fn conv_exact_into(
    fi: &FaultInjectorBank,
    gated: bool,
    cycle: &mut u64,
    input: &[i8],
    weights: &Tensor<i8>,
    g: &ConvGeom,
    acc: &mut [i32],
) {
    let (kg_n, cb_n) = (g.k.div_ceil(8), g.input.c.div_ceil(8));
    let (h, w) = (g.input.h, g.input.w);
    for kg in 0..kg_n {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                for cb in 0..cb_n {
                    for r in 0..g.r {
                        for s in 0..g.s {
                            *cycle += 1;
                            let iy = (oy * g.stride + r) as isize - g.pad as isize;
                            let ix = (ox * g.stride + s) as isize - g.pad as isize;
                            let in_bounds =
                                iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                            for m in 0..8usize {
                                let k = kg * 8 + m;
                                if k >= g.k {
                                    continue; // kernel-tail MAC output discarded
                                }
                                let mut psum = 0i32;
                                for j in 0..8usize {
                                    let c = cb * 8 + j;
                                    let idle = c >= g.input.c;
                                    if idle && gated {
                                        continue;
                                    }
                                    let a = if idle || !in_bounds {
                                        0i8
                                    } else {
                                        input[(c * h + iy as usize) * w + ix as usize]
                                    };
                                    let wv = if idle { 0i8 } else { weights.at(k, c, r, s) };
                                    let p = fi.apply(m * 8 + j, I18::from_product(a, wv), *cycle);
                                    psum = psum.wrapping_add(p.value());
                                }
                                let slot = &mut acc[(k * g.oh + oy) * g.ow + ox];
                                *slot = slot.wrapping_add(psum);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The injector's `fsel`/`fdata` mux and XOR as a branch-free map on one
/// product: what [`FaultInjectorBank::apply`] makes of a selected lane's
/// product inside the window, in plain i32 arithmetic so the lane-delta
/// loops vectorize.
#[derive(Copy, Clone, Debug)]
struct LaneMux {
    /// Wires passed through (`!fsel`).
    keep: u32,
    /// Wires forced to one (`fdata & fsel`).
    set: u32,
    /// Wires inverted after the mux.
    xor: u32,
}

impl LaneMux {
    fn of(fi: &FaultInjectorBank) -> Self {
        let fsel = fi.fsel & I18::MASK;
        LaneMux {
            keep: !fsel & I18::MASK,
            set: fi.fdata & fsel,
            xor: fi.xor & I18::MASK,
        }
    }

    /// `f(p) − p`: the change the injector makes to product `p`.
    #[inline(always)]
    fn delta(self, p: i32) -> i32 {
        let bits = ((p as u32 & self.keep) | self.set) ^ self.xor;
        // Sign-extend the 18-bit lane (bit 17) into the i32.
        (((bits << 14) as i32) >> 14) - p
    }
}

/// Lane-delta (see the module docs): adds `f(p) − p` over the selected
/// lanes' products inside the op-local cycle range `faulted` to the clean
/// accumulators of one op.
///
/// `cols` is the op's `C*R*S x n` im2col matrix and `acc` its `K x n`
/// accumulator, with `n = OH * OW * images` and columns in `(oy, ox, b)`
/// order: image `b`'s pixel `px` is column `px * images + b`. `weights` is
/// the dense `K x C*R*S` weight matrix.
#[allow(clippy::too_many_arguments)]
fn lane_delta_into(
    fi: &FaultInjectorBank,
    gated: bool,
    faulted: Range<u64>,
    weights: &[i8],
    cols: &[i8],
    g: &ConvGeom,
    acc: &mut [i32],
    images: usize,
) {
    let (c_in, rs, pix) = (g.input.c, g.r * g.s, g.oh * g.ow);
    let (crs, n, cb_n) = (c_in * rs, images * pix, c_in.div_ceil(8));
    let op_cycles = (g.k.div_ceil(8) * pix * cb_n * rs) as u64;
    let mux = LaneMux::of(fi);
    // Zero-fed idle channels multiply zeros; gated ones make no product.
    let f0 = if gated { 0 } else { mux.delta(0) };
    if faulted == (0..op_cycles) {
        for lane in fi.selected_lanes() {
            let (m, j) = (usize::from(lane.mac), usize::from(lane.mult));
            let real_blocks = if j < c_in { (c_in - j).div_ceil(8) } else { 0 };
            let idle = f0.wrapping_mul(((cb_n - real_blocks) * rs) as i32);
            for k in (m..g.k).step_by(8) {
                let arow = &mut acc[k * n..(k + 1) * n];
                if idle != 0 {
                    for a in arow.iter_mut() {
                        *a = a.wrapping_add(idle);
                    }
                }
                for c in (j..c_in).step_by(8) {
                    for row in c * rs..(c + 1) * rs {
                        let w = i32::from(weights[k * crs + row]);
                        for (a, &x) in arow.iter_mut().zip(&cols[row * n..(row + 1) * n]) {
                            *a = a.wrapping_add(mux.delta(w * i32::from(x)));
                        }
                    }
                }
            }
        }
        return;
    }
    // Windowed: walk the range's cycles `(kg, pixel, cb, tap)` in order.
    let first = faulted.start as usize;
    let (mut tap, mut cb) = (first % rs, first / rs % cb_n);
    let (mut px, mut kg) = (first / rs / cb_n % pix, first / rs / cb_n / pix);
    for _ in faulted {
        for lane in fi.selected_lanes() {
            let k = kg * 8 + usize::from(lane.mac);
            let c = cb * 8 + usize::from(lane.mult);
            if k >= g.k || (c >= c_in && gated) {
                continue;
            }
            let row = c * rs + tap;
            for b in 0..images {
                let col = px * images + b;
                let d = if c < c_in {
                    mux.delta(i32::from(weights[k * crs + row]) * i32::from(cols[row * n + col]))
                } else {
                    f0
                };
                acc[k * n + col] = acc[k * n + col].wrapping_add(d);
            }
        }
        tap += 1;
        if tap == rs {
            tap = 0;
            cb += 1;
            if cb == cb_n {
                cb = 0;
                px += 1;
                if px == pix {
                    px = 0;
                    kg += 1;
                }
            }
        }
    }
}

/// SDP post-processing of a launch's `K x n` accumulators, `[K][OH][OW][B]`:
/// bias, per-channel requantization, optional rescaled residual add, ReLU,
/// saturation. The output and the residual share the accumulators' layout,
/// so each channel is one flat row. The bias, both requantizers and the
/// ReLU flag are hoisted out of the row loop, which is then branch-free and
/// vectorizes.
fn sdp_into(op: &ConvOp, acc: &[i32], residual: Option<&[i8]>, out: &mut [i8]) {
    let n = acc.len() / op.geom.k;
    let relu = op.relu;
    for k in 0..op.geom.k {
        let (rq, bias) = (op.requant_for(k), op.bias[k]);
        let arow = &acc[k * n..(k + 1) * n];
        let orow = &mut out[k * n..(k + 1) * n];
        match residual {
            Some(res) => {
                let add_rq = op.add_requant.expect("add requant");
                let rrow = &res[k * n..(k + 1) * n];
                for ((o, &a), &rv) in orow.iter_mut().zip(arow).zip(rrow) {
                    *o = sdp_postprocess(a.wrapping_add(bias), rq, Some((rv, add_rq)), relu);
                }
            }
            None => {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = sdp_postprocess(a.wrapping_add(bias), rq, None, relu);
                }
            }
        }
    }
}

/// PDP pooling of a launch's `b` batch-innermost images, `[C][H][W][B]`,
/// into `[C][OH][OW][B]`, bit-exact per image with [`pool::maxpool2d`] /
/// [`nvfi_quant::exec::pdp_global_avg`]. A max-pool output pixel is the
/// lane-wise maximum of its window's `B`-lane input pixels; the global
/// average reduces each `(c, b)` over its plane.
fn pool_into(op: &PoolOp, input: &[i8], b: usize, out: &mut [i8]) {
    let s = op.in_shape;
    let plane = s.h * s.w * b;
    match op.kind {
        PoolKind::Max => {
            let (k, stride) = (op.k, op.stride);
            assert!(
                k > 0 && stride > 0,
                "pooling window and stride must be positive"
            );
            assert!(
                s.h >= k
                    && s.w >= k
                    && (s.h - k).is_multiple_of(stride)
                    && (s.w - k).is_multiple_of(stride),
                "pool {k}/{stride} does not tile {s}"
            );
            let (oh, ow) = ((s.h - k) / stride + 1, (s.w - k) / stride + 1);
            let lanes = |y: usize, x: usize| (y * s.w + x) * b..(y * s.w + x + 1) * b;
            for (c, oplane) in out.chunks_exact_mut(oh * ow * b).enumerate() {
                let iplane = &input[c * plane..(c + 1) * plane];
                for (p, best) in oplane.chunks_exact_mut(b).enumerate() {
                    let (y0, x0) = (p / ow * stride, p % ow * stride);
                    best.copy_from_slice(&iplane[lanes(y0, x0)]);
                    for y in y0..y0 + k {
                        for x in x0..x0 + k {
                            for (o, &v) in best.iter_mut().zip(&iplane[lanes(y, x)]) {
                                *o = (*o).max(v);
                            }
                        }
                    }
                }
            }
        }
        PoolKind::GlobalAvg => {
            let area = (s.h * s.w) as u32;
            for (i, o) in out.iter_mut().enumerate() {
                let (c, lane) = (i / b, i % b);
                let sum = input[c * plane..(c + 1) * plane]
                    .iter()
                    .skip(lane)
                    .step_by(b)
                    .fold(0i32, |sum, &v| sum.wrapping_add(i32::from(v)));
                *o = sat::to_i8(i64::from(pool::rounded_div(sum, area)));
            }
        }
    }
}
