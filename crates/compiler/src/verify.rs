//! Static verification of [`ExecutionPlan`]s and fault reachability.
//!
//! The campaign fabric trusts a lot of derived structure: MAC-cycle spans
//! decide which products a transient window reaches, live-in surface
//! sets decide what a golden-prefix restore re-seeds, the command-stream
//! codec decides what a remote worker executes. A silent inconsistency in
//! any of them produces *wrong campaign results that still look plausible*
//! — so this module re-derives each invariant independently and reports
//! every violation as a named [`VerifyDiag`].
//!
//! # Invariant catalogue
//!
//! | Invariant | Pass | What it proves |
//! |---|---|---|
//! | [`Invariant::ShapeChain`] | [`verify_shapes`] | every surface an op reads was produced (or is the plan input) at exactly the shape the reader expects; the plan output is a linear head with `num_classes` logits |
//! | [`Invariant::SurfaceOverlap`] | [`verify_surfaces`] | activation surfaces, weight regions and the logits region are pairwise disjoint (the `alloc.rs` bump-allocation discipline) |
//! | [`Invariant::SurfaceAlignment`] | [`verify_surfaces`] | every region starts on an [`alloc::ALIGN`](crate::alloc::ALIGN) boundary |
//! | [`Invariant::SurfaceBounds`] | [`verify_surfaces`] | every region (including `weight_image` entries) lies inside `dram_size` |
//! | [`Invariant::RequantRange`] | [`verify_requant`] | bias/requant vector lengths match the op geometry, multipliers are non-negative, shifts are within [`Requant::MAX_SHIFT`], the input scale is finite and positive |
//! | [`Invariant::SpanSchedule`] | [`verify_spans`] | the per-op MAC-cycle spans are disjoint, contiguous, sized `op_mac_cycles(op)`, and tile `1..=total_mac_cycles()` exactly |
//! | [`Invariant::LiveIn`] | [`verify_live_in`] | a claimed live-in surface set at a boundary equals an independent recomputation from each op's actual DRAM reads |
//! | [`Invariant::EncodeClosure`] | [`verify_codec`] | `encode_words` → `decode_words` is the identity (modulo the preloaded `weight_image`), and re-encoding reproduces the same words |
//!
//! [`verify_plan`] runs every pass over the plan's own derived structures;
//! [`verify_spans`] and [`verify_live_in`] also accept *claimed* inputs so
//! callers holding cached schedule tables can audit them (and so mutation
//! tests can seed a single broken invariant).
//!
//! # Fault reachability
//!
//! On top of the structural passes, [`fault_reachability`] classifies a
//! fault program (selected lanes, injector registers, idle-lane policy,
//! optional transient window) as [`Reachability::Reachable`] or provably
//! masked, using only static plan structure: the engine's lane mapping
//! (MAC unit `m` serves output channels `k ≡ m (mod 8)`, multiplier `j`
//! serves input channels `c ≡ j (mod 8)`), kernel-tail discard, idle-lane
//! gating/zero-feeding, and the per-op MAC-cycle schedule. `ProvablyMasked`
//! is sound (the exact engine provably produces clean outputs), `Reachable`
//! is conservative (the fault *may* still be masked dynamically) — which is
//! exactly what lets campaigns skip masked work items bit-identically. This
//! analysis is the first rung of the ROADMAP's differential (fault-cone)
//! execution item.

use std::fmt;
use std::ops::Range;

use nvfi_hwnum::{Requant, I18};

use crate::alloc::ALIGN;
use crate::plan::{decode_words, encode_words, ExecutionPlan, PlanOp};
use crate::surface;

/// How campaign entry points treat verifier diagnostics at plan load.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Skip verification *and* dead-fault pruning entirely (the escape
    /// hatch, and the reference point pruning is tested bit-identical to).
    Off,
    /// Verify and prune; diagnostics are printed as warnings (default).
    #[default]
    Warn,
    /// Verify and prune; any diagnostic is an error (`-D` semantics).
    Strict,
}

/// The named plan invariants the verifier checks.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Shape chaining between producers and consumers.
    ShapeChain,
    /// DRAM regions must be pairwise disjoint.
    SurfaceOverlap,
    /// DRAM regions must be `ALIGN`-aligned.
    SurfaceAlignment,
    /// DRAM regions must lie inside `dram_size`.
    SurfaceBounds,
    /// Bias/requant lengths and ranges, input-scale sanity.
    RequantRange,
    /// MAC-cycle spans: disjoint, contiguous, covering `1..=total`.
    SpanSchedule,
    /// Live-in surface sets match the ops' actual DRAM reads.
    LiveIn,
    /// `encode_words`/`decode_words` closure.
    EncodeClosure,
}

impl Invariant {
    /// Stable diagnostic name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::ShapeChain => "shape-chain",
            Invariant::SurfaceOverlap => "surface-overlap",
            Invariant::SurfaceAlignment => "surface-alignment",
            Invariant::SurfaceBounds => "surface-bounds",
            Invariant::RequantRange => "requant-range",
            Invariant::SpanSchedule => "span-schedule",
            Invariant::LiveIn => "live-in",
            Invariant::EncodeClosure => "encode-closure",
        }
    }
}

/// One verifier finding: the violated invariant, the op (or boundary) it
/// anchors to, and a human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyDiag {
    /// Which invariant is violated.
    pub invariant: Invariant,
    /// Op index (or boundary index for [`Invariant::LiveIn`]); `None` for
    /// plan-level findings.
    pub op: Option<usize>,
    /// What exactly is wrong.
    pub detail: String,
}

impl fmt::Display for VerifyDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(i) => write!(f, "[{}] op {i}: {}", self.invariant.name(), self.detail),
            None => write!(f, "[{}] plan: {}", self.invariant.name(), self.detail),
        }
    }
}

fn diag(invariant: Invariant, op: Option<usize>, detail: impl Into<String>) -> VerifyDiag {
    VerifyDiag {
        invariant,
        op,
        detail: detail.into(),
    }
}

/// Runs every structural pass over the plan (spans and live-in sets are
/// taken from the plan's own derivations; see [`verify_spans`] /
/// [`verify_live_in`] to audit externally cached copies). An empty result
/// means the plan holds every invariant in the module catalogue.
#[must_use]
pub fn verify_plan(plan: &ExecutionPlan) -> Vec<VerifyDiag> {
    let mut diags = Vec::new();
    diags.extend(verify_shapes(plan));
    diags.extend(verify_surfaces(plan));
    diags.extend(verify_requant(plan));
    diags.extend(verify_spans(plan, &plan.mac_cycle_spans()));
    for b in 0..=plan.ops.len() {
        diags.extend(verify_live_in(plan, b, &plan.live_in_surfaces(b)));
    }
    diags.extend(verify_codec(plan));
    diags
}

/// What one op reads and writes, as `(addr, (c, h, w) shape)` pairs. The
/// linear head's output is i32 logits, not a packed surface, so it is
/// modelled separately.
fn op_reads(op: &PlanOp) -> Vec<(u64, (usize, usize, usize))> {
    match op {
        PlanOp::Conv(c) => {
            let g = &c.geom;
            let mut r = vec![(c.input_addr, (g.input.c, g.input.h, g.input.w))];
            if let Some(addr) = c.fuse_add_addr {
                r.push((addr, (g.k, g.oh, g.ow)));
            }
            r
        }
        PlanOp::Pool(p) => vec![(p.input_addr, (p.in_shape.c, p.in_shape.h, p.in_shape.w))],
        PlanOp::Linear(l) => vec![(l.input_addr, (l.in_f, 1, 1))],
    }
}

/// Shape chaining: every read resolves to the plan input or an earlier
/// producer of exactly the expected shape; the plan output is a linear head
/// producing `num_classes` logits.
#[must_use]
pub fn verify_shapes(plan: &ExecutionPlan) -> Vec<VerifyDiag> {
    // A produced surface shape, or `None` for the i32 logits region.
    type Produced = Option<(usize, usize, usize)>;
    let mut diags = Vec::new();
    let mut produced: Vec<(u64, Produced)> = vec![(
        plan.input_addr,
        Some((plan.input_shape.c, plan.input_shape.h, plan.input_shape.w)),
    )];
    let mut logits: Option<(u64, usize)> = None;
    for (i, op) in plan.ops.iter().enumerate() {
        for (addr, want) in op_reads(op) {
            match produced.iter().rev().find(|(a, _)| *a == addr) {
                Some((_, Some(have))) if *have == want => {}
                Some((_, Some(have))) => diags.push(diag(
                    Invariant::ShapeChain,
                    Some(i),
                    format!(
                        "reads {addr:#x} as ({}, {}, {}) but the surface there is \
                         ({}, {}, {})",
                        want.0, want.1, want.2, have.0, have.1, have.2
                    ),
                )),
                Some((_, None)) => diags.push(diag(
                    Invariant::ShapeChain,
                    Some(i),
                    format!("reads the i32 logits region at {addr:#x} as a feature surface"),
                )),
                None => diags.push(diag(
                    Invariant::ShapeChain,
                    Some(i),
                    format!(
                        "reads {addr:#x}, which no earlier op writes and which is \
                         not the plan input"
                    ),
                )),
            }
        }
        match op {
            PlanOp::Conv(c) => {
                let g = &c.geom;
                produced.push((c.output_addr, Some((g.k, g.oh, g.ow))));
            }
            PlanOp::Pool(p) => {
                let o = p.out_shape();
                produced.push((p.output_addr, Some((o.c, o.h, o.w))));
            }
            PlanOp::Linear(l) => {
                produced.push((l.output_addr, None));
                logits = Some((l.output_addr, l.out_f));
            }
        }
    }
    match logits {
        Some((addr, out_f)) if addr == plan.output_addr && out_f == plan.num_classes => {}
        Some((addr, out_f)) => diags.push(diag(
            Invariant::ShapeChain,
            None,
            format!(
                "plan output is {} classes at {:#x} but the last linear head \
                 writes {out_f} logits at {addr:#x}",
                plan.num_classes, plan.output_addr
            ),
        )),
        None => diags.push(diag(
            Invariant::ShapeChain,
            None,
            "plan has no linear head producing the output logits",
        )),
    }
    diags
}

/// One DRAM region of the plan, for the layout pass.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RegionRef {
    addr: u64,
    bytes: u64,
    /// Regions of the same class, address and size are one logical region
    /// (a surface read by several ops); anything else sharing bytes is an
    /// overlap.
    class: &'static str,
    label: String,
}

fn plan_regions(plan: &ExecutionPlan) -> Vec<RegionRef> {
    let mut regions = vec![RegionRef {
        addr: plan.input_addr,
        bytes: surface::surface_bytes(plan.input_shape.c, plan.input_shape.h, plan.input_shape.w)
            as u64,
        class: "surface",
        label: "input surface".to_string(),
    }];
    let surf = |addr: u64, (c, h, w): (usize, usize, usize), label: String| RegionRef {
        addr,
        bytes: surface::surface_bytes(c, h, w) as u64,
        class: "surface",
        label,
    };
    for (i, op) in plan.ops.iter().enumerate() {
        match op {
            PlanOp::Conv(c) => {
                let g = &c.geom;
                regions.push(surf(
                    c.output_addr,
                    (g.k, g.oh, g.ow),
                    format!("op{i} conv output"),
                ));
                regions.push(RegionRef {
                    addr: c.weight_addr,
                    bytes: surface::weight_bytes(g.k, g.input.c, g.r, g.s) as u64,
                    class: "weights",
                    label: format!("op{i} conv weights"),
                });
            }
            PlanOp::Pool(p) => {
                let o = p.out_shape();
                regions.push(surf(
                    p.output_addr,
                    (o.c, o.h, o.w),
                    format!("op{i} pool output"),
                ));
            }
            PlanOp::Linear(l) => {
                regions.push(RegionRef {
                    addr: l.output_addr,
                    bytes: (l.out_f * 4) as u64,
                    class: "logits",
                    label: format!("op{i} logits"),
                });
                regions.push(RegionRef {
                    addr: l.weight_addr,
                    bytes: surface::weight_bytes(l.out_f, l.in_f, 1, 1) as u64,
                    class: "weights",
                    label: format!("op{i} linear weights"),
                });
            }
        }
    }
    // Same logical region referenced by several ops: keep one copy.
    let mut dedup: Vec<RegionRef> = Vec::new();
    for r in regions {
        if !dedup
            .iter()
            .any(|d| d.addr == r.addr && d.bytes == r.bytes && d.class == r.class)
        {
            dedup.push(r);
        }
    }
    dedup
}

/// Surface-allocation liveness/overlap against the `alloc.rs` discipline:
/// every region aligned, in bounds, and pairwise disjoint. `weight_image`
/// entries are additionally checked against `dram_size`.
#[must_use]
pub fn verify_surfaces(plan: &ExecutionPlan) -> Vec<VerifyDiag> {
    let mut diags = Vec::new();
    let regions = plan_regions(plan);
    for r in &regions {
        if r.addr % ALIGN != 0 {
            diags.push(diag(
                Invariant::SurfaceAlignment,
                None,
                format!("{} at {:#x} is not {ALIGN}-byte aligned", r.label, r.addr),
            ));
        }
        if r.addr.saturating_add(r.bytes) > plan.dram_size {
            diags.push(diag(
                Invariant::SurfaceBounds,
                None,
                format!(
                    "{} at {:#x}+{} exceeds the plan's dram_size {}",
                    r.label, r.addr, r.bytes, plan.dram_size
                ),
            ));
        }
    }
    for i in 0..regions.len() {
        for j in i + 1..regions.len() {
            let (a, b) = (&regions[i], &regions[j]);
            let disjoint = a.addr + a.bytes <= b.addr || b.addr + b.bytes <= a.addr;
            if !(disjoint || a.bytes == 0 || b.bytes == 0) {
                diags.push(diag(
                    Invariant::SurfaceOverlap,
                    None,
                    format!(
                        "{} ({:#x}+{}) overlaps {} ({:#x}+{})",
                        a.label, a.addr, a.bytes, b.label, b.addr, b.bytes
                    ),
                ));
            }
        }
    }
    for (i, (addr, bytes)) in plan.weight_image.iter().enumerate() {
        if addr.saturating_add(bytes.len() as u64) > plan.dram_size {
            diags.push(diag(
                Invariant::SurfaceBounds,
                None,
                format!(
                    "weight_image[{i}] at {addr:#x}+{} exceeds dram_size {}",
                    bytes.len(),
                    plan.dram_size
                ),
            ));
        }
    }
    diags
}

fn requant_ok(rq: Requant) -> bool {
    rq.multiplier() >= 0 && rq.shift() <= Requant::MAX_SHIFT
}

/// Requant-range sanity: vector lengths vs. op geometry, multiplier and
/// shift ranges (the same bounds `decode_words` enforces), residual
/// add/requant pairing, and input-scale sanity.
#[must_use]
pub fn verify_requant(plan: &ExecutionPlan) -> Vec<VerifyDiag> {
    let mut diags = Vec::new();
    if !(plan.input_scale.is_finite() && plan.input_scale > 0.0) {
        diags.push(diag(
            Invariant::RequantRange,
            None,
            format!(
                "input scale {} is not finite and positive",
                plan.input_scale
            ),
        ));
    }
    for (i, op) in plan.ops.iter().enumerate() {
        match op {
            PlanOp::Conv(c) => {
                let k = c.geom.k;
                if c.bias.len() != k {
                    diags.push(diag(
                        Invariant::RequantRange,
                        Some(i),
                        format!("bias length {} != {k} output channels", c.bias.len()),
                    ));
                }
                if c.requant.len() != 1 && c.requant.len() != k {
                    diags.push(diag(
                        Invariant::RequantRange,
                        Some(i),
                        format!(
                            "requant length {} is neither 1 nor {k} output channels",
                            c.requant.len()
                        ),
                    ));
                }
                for (n, rq) in c.requant.iter().enumerate() {
                    if !requant_ok(*rq) {
                        diags.push(diag(
                            Invariant::RequantRange,
                            Some(i),
                            format!(
                                "requant[{n}] multiplier {} shift {} out of range",
                                rq.multiplier(),
                                rq.shift()
                            ),
                        ));
                    }
                }
                if c.fuse_add_addr.is_some() != c.add_requant.is_some() {
                    diags.push(diag(
                        Invariant::RequantRange,
                        Some(i),
                        "fused residual address and add-requant must come together",
                    ));
                }
                if let Some(rq) = c.add_requant {
                    if !requant_ok(rq) {
                        diags.push(diag(
                            Invariant::RequantRange,
                            Some(i),
                            format!(
                                "add-requant multiplier {} shift {} out of range",
                                rq.multiplier(),
                                rq.shift()
                            ),
                        ));
                    }
                }
            }
            PlanOp::Linear(l) => {
                if l.bias.len() != l.out_f {
                    diags.push(diag(
                        Invariant::RequantRange,
                        Some(i),
                        format!(
                            "bias length {} != {} output features",
                            l.bias.len(),
                            l.out_f
                        ),
                    ));
                }
            }
            PlanOp::Pool(_) => {}
        }
    }
    diags
}

/// Audits a (possibly externally cached) MAC-cycle span table against the
/// plan: one span per op, sized `op_mac_cycles(op)` (empty for pool ops),
/// contiguous from cycle 1, together tiling `1..=total_mac_cycles()`. The
/// table behind op-scoped exact execution — a wrong span silently runs the
/// wrong engine over the wrong ops.
#[must_use]
pub fn verify_spans(plan: &ExecutionPlan, spans: &[Range<u64>]) -> Vec<VerifyDiag> {
    let mut diags = Vec::new();
    if spans.len() != plan.ops.len() {
        diags.push(diag(
            Invariant::SpanSchedule,
            None,
            format!("{} spans for {} ops", spans.len(), plan.ops.len()),
        ));
        return diags;
    }
    for (i, (op, span)) in plan.ops.iter().zip(spans).enumerate() {
        let want = ExecutionPlan::op_mac_cycles(op);
        let len = span.end.saturating_sub(span.start);
        if span.end < span.start || len != want {
            diags.push(diag(
                Invariant::SpanSchedule,
                Some(i),
                format!(
                    "span {}..{} covers {len} cycles but the op retires {want}",
                    span.start, span.end
                ),
            ));
        }
    }
    if let Some(first) = spans.first() {
        if first.start != 1 {
            diags.push(diag(
                Invariant::SpanSchedule,
                Some(0),
                format!(
                    "first span starts at {} but the retired counter starts at 1",
                    first.start
                ),
            ));
        }
    }
    for (i, w) in spans.windows(2).enumerate() {
        if w[0].end != w[1].start {
            diags.push(diag(
                Invariant::SpanSchedule,
                Some(i + 1),
                format!(
                    "span starts at {} but the previous op's span ends at {} \
                     (gap or overlap in the schedule)",
                    w[1].start, w[0].end
                ),
            ));
        }
    }
    let total = plan.total_mac_cycles();
    if let Some(last) = spans.last() {
        if last.end != total + 1 {
            diags.push(diag(
                Invariant::SpanSchedule,
                None,
                format!(
                    "last span ends at {} but the inference retires cycles 1..={total}",
                    last.end
                ),
            ));
        }
    }
    diags
}

/// Independently recomputes the live-in surface set at boundary `b` (every
/// `(addr, bytes)` read by some op `j >= b` before any op in `b..j` writes
/// it, largest size per address) and compares it with `claimed` as a set.
/// The recomputation deliberately uses a different traversal than
/// [`ExecutionPlan::live_in_surfaces`], so the two cross-check each other.
///
/// # Panics
///
/// Panics if `b > plan.ops.len()`.
#[must_use]
pub fn verify_live_in(plan: &ExecutionPlan, b: usize, claimed: &[(u64, u64)]) -> Vec<VerifyDiag> {
    assert!(b <= plan.ops.len(), "boundary {b} outside the plan");
    let writes_of = |op: &PlanOp| match op {
        PlanOp::Conv(c) => c.output_addr,
        PlanOp::Pool(p) => p.output_addr,
        PlanOp::Linear(l) => l.output_addr,
    };
    let mut expect: Vec<(u64, u64)> = Vec::new();
    for j in b..plan.ops.len() {
        for (addr, (c, h, w)) in op_reads(&plan.ops[j]) {
            let written_between = plan.ops[b..j].iter().any(|op| writes_of(op) == addr);
            if written_between {
                continue;
            }
            let bytes = surface::surface_bytes(c, h, w) as u64;
            match expect.iter_mut().find(|(a, _)| *a == addr) {
                Some((_, sz)) => *sz = (*sz).max(bytes),
                None => expect.push((addr, bytes)),
            }
        }
    }
    let mut want = expect.clone();
    let mut have = claimed.to_vec();
    want.sort_unstable();
    have.sort_unstable();
    if want == have {
        return Vec::new();
    }
    vec![diag(
        Invariant::LiveIn,
        Some(b),
        format!(
            "claimed live-in set {have:x?} but the ops of {b}.. actually read \
             {want:x?} before writing"
        ),
    )]
}

/// `encode_words`/`decode_words` closure: the descriptor stream decodes
/// back to the plan (modulo the preloaded `weight_image`, which by design
/// does not travel in the stream) and re-encodes to identical words.
#[must_use]
pub fn verify_codec(plan: &ExecutionPlan) -> Vec<VerifyDiag> {
    let words = encode_words(plan);
    let back = match decode_words(&words) {
        Ok(p) => p,
        Err(e) => {
            return vec![diag(
                Invariant::EncodeClosure,
                None,
                format!("encoded plan does not decode: {e}"),
            )]
        }
    };
    let mut stripped = plan.clone();
    stripped.weight_image.clear();
    let mut diags = Vec::new();
    if back != stripped {
        diags.push(diag(
            Invariant::EncodeClosure,
            None,
            "decode(encode(plan)) differs from the plan (weight image aside)",
        ));
    }
    if encode_words(&back) != words {
        diags.push(diag(
            Invariant::EncodeClosure,
            None,
            "re-encoding the decoded plan yields different words",
        ));
    }
    diags
}

// ---------------------------------------------------------------------------
// Fault reachability
// ---------------------------------------------------------------------------

/// Why a fault program provably cannot perturb any output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MaskReason {
    /// After 18-bit masking the injector overrides no wires and flips no
    /// bits (`(fsel | xor) & I18::MASK == 0`): the mux is the identity.
    NoOpMask,
    /// No multiplier lane is selected.
    NoTargetLanes,
    /// The transient window intersects no MAC op's cycle span.
    WindowOutsideSchedule,
    /// Every selected lane is discarded (kernel tail) or idle-and-unperturbed
    /// in every op the fault could reach.
    TargetLanesIdle,
}

impl fmt::Display for MaskReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MaskReason::NoOpMask => "injector mask is a no-op",
            MaskReason::NoTargetLanes => "no lanes selected",
            MaskReason::WindowOutsideSchedule => "window misses every MAC op",
            MaskReason::TargetLanesIdle => "selected lanes idle in every reachable op",
        };
        f.write_str(s)
    }
}

/// Static classification of one fault program against one plan.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Reachability {
    /// The fault can influence at least one product that reaches an output
    /// accumulator (it may still be masked dynamically).
    Reachable,
    /// The fault provably cannot change any inference output.
    ProvablyMasked(MaskReason),
}

impl Reachability {
    /// `true` for [`Reachability::ProvablyMasked`].
    #[must_use]
    pub fn is_provably_masked(self) -> bool {
        matches!(self, Reachability::ProvablyMasked(_))
    }
}

/// Classifies a fault program statically. `lanes` are flat multiplier lane
/// ids (`mac * 8 + mult`, `0..64`); `fsel`/`fdata`/`xor` are the injector
/// registers (see `FaultKind::registers` in `nvfi-accel`); `gated` is the
/// idle-lane policy; `window` an optional transient window in retired
/// MAC-cycle numbering.
///
/// The lane model mirrors the exact engine: MAC unit `m` computes output
/// channels `k ≡ m (mod 8)` and is *discarded* for kernel-tail lanes
/// (`m >= min(8, k_out)` never reaches an accumulator); multiplier `j`
/// consumes input channels `c ≡ j (mod 8)` and runs idle on channel-tail
/// lanes, where a gated lane is skipped entirely while a zero-fed lane
/// still pushes its (overridable) zero product through the mux — perturbed
/// iff `((fdata & fsel) ^ xor) != 0`.
#[must_use]
pub fn fault_reachability(
    plan: &ExecutionPlan,
    lanes: &[usize],
    fsel: u32,
    fdata: u32,
    xor: u32,
    gated: bool,
    window: Option<&Range<u64>>,
) -> Reachability {
    let (fsel, fdata, xor) = (fsel & I18::MASK, fdata & I18::MASK, xor & I18::MASK);
    if (fsel | xor) == 0 {
        return Reachability::ProvablyMasked(MaskReason::NoOpMask);
    }
    if lanes.is_empty() {
        return Reachability::ProvablyMasked(MaskReason::NoTargetLanes);
    }
    // MAC ops the fault can reach at all: every one without a window, the
    // span-intersecting ones with.
    let spans = plan.mac_cycle_spans();
    let reachable_geoms: Vec<(usize, usize)> = plan
        .ops
        .iter()
        .zip(&spans)
        .filter_map(|(op, span)| {
            let geom = match op {
                PlanOp::Conv(c) => (c.geom.k, c.geom.input.c),
                PlanOp::Linear(l) => (l.out_f, l.in_f),
                PlanOp::Pool(_) => return None,
            };
            match window {
                Some(w) => {
                    // Mirrors the engine's span_intersects: empty ranges
                    // never intersect.
                    let hit = span.start < span.end
                        && w.start < w.end
                        && span.start < w.end
                        && w.start < span.end;
                    hit.then_some(geom)
                }
                None => Some(geom),
            }
        })
        .collect();
    if reachable_geoms.is_empty() {
        return Reachability::ProvablyMasked(MaskReason::WindowOutsideSchedule);
    }
    // A zero product comes out of the mux perturbed iff the override/flip
    // registers produce a nonzero word from zero input.
    let zero_perturbed = (fdata & fsel) ^ xor != 0;
    for &lane in lanes {
        let (m, j) = (lane / 8, lane % 8);
        for &(k_out, c_in) in &reachable_geoms {
            if m >= k_out.min(8) {
                continue; // kernel-tail MAC: output discarded in every group
            }
            let j_live = j < c_in.min(8);
            // Lane j idles in the last channel block iff the block is
            // partial and j falls past the tail.
            let j_idle_somewhere = c_in % 8 != 0 && j >= c_in % 8;
            if j_live || (j_idle_somewhere && !gated && zero_perturbed) {
                return Reachability::Reachable;
            }
        }
    }
    Reachability::ProvablyMasked(MaskReason::TargetLanesIdle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOp, LinearOp, PoolKind, PoolOp};
    use nvfi_tensor::{ConvGeom, Shape4};

    /// A small, fully consistent handcrafted plan: conv (3->5 ch, 8x8) ->
    /// global-avg pool -> linear head, with geometry-exact region sizes and
    /// 32-byte-aligned addresses.
    fn clean_plan() -> ExecutionPlan {
        let geom = ConvGeom::new(Shape4::new(1, 3, 8, 8), 5, 3, 3, 1, 1);
        // Region layout (all sizes at ALIGN granularity):
        //   input surface   0x000 + 512
        //   conv output     0x200 + 512   (surface_bytes(5, 8, 8))
        //   pool output     0x400 + 8     (surface_bytes(5, 1, 1))
        //   conv weights    0x420 + 576   (weight_bytes(5, 3, 3, 3))
        //   linear weights  0x6c0 + 128   (weight_bytes(10, 5, 1, 1))
        //   logits          0x740 + 40
        ExecutionPlan {
            input_shape: Shape4::new(1, 3, 8, 8),
            input_scale: 0.0123,
            input_addr: 0x000,
            output_addr: 0x740,
            num_classes: 10,
            ops: vec![
                PlanOp::Conv(ConvOp {
                    geom,
                    input_addr: 0x000,
                    output_addr: 0x200,
                    weight_addr: 0x420,
                    bias: vec![1, -2, 3, -4, 5],
                    requant: vec![Requant::from_scale(0.5).unwrap(); 5],
                    add_requant: None,
                    fuse_add_addr: None,
                    relu: true,
                }),
                PlanOp::Pool(PoolOp {
                    kind: PoolKind::GlobalAvg,
                    k: 0,
                    stride: 0,
                    in_shape: Shape4::new(1, 5, 8, 8),
                    input_addr: 0x200,
                    output_addr: 0x400,
                }),
                PlanOp::Linear(LinearOp {
                    in_f: 5,
                    out_f: 10,
                    input_addr: 0x400,
                    output_addr: 0x740,
                    weight_addr: 0x6c0,
                    bias: vec![0; 10],
                }),
            ],
            dram_size: 0x768,
            weight_image: Vec::new(),
            macs_per_inference: 12345,
        }
    }

    fn invariants(diags: &[VerifyDiag]) -> Vec<Invariant> {
        diags.iter().map(|d| d.invariant).collect()
    }

    #[test]
    fn clean_plan_verifies_clean() {
        let diags = verify_plan(&clean_plan());
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn overlapping_surface_is_named() {
        let mut plan = clean_plan();
        // Slide the pool output into the conv output surface (staying
        // aligned and keeping its reader consistent).
        if let PlanOp::Pool(p) = &mut plan.ops[1] {
            p.output_addr = 0x220;
        }
        if let PlanOp::Linear(l) = &mut plan.ops[2] {
            l.input_addr = 0x220;
        }
        let diags = verify_plan(&plan);
        assert!(
            invariants(&diags).contains(&Invariant::SurfaceOverlap),
            "expected surface-overlap, got {diags:?}"
        );
        assert!(
            diags
                .iter()
                .all(|d| d.invariant == Invariant::SurfaceOverlap),
            "overlap mutation must trip only surface-overlap: {diags:?}"
        );
    }

    #[test]
    fn shape_chain_break_is_named() {
        let mut plan = clean_plan();
        // The pool claims a different spatial extent than the conv
        // produces (channels unchanged, so only this one edge breaks).
        if let PlanOp::Pool(p) = &mut plan.ops[1] {
            p.in_shape = Shape4::new(1, 5, 7, 8);
        }
        let diags = verify_shapes(&plan);
        assert_eq!(invariants(&diags), vec![Invariant::ShapeChain]);
        assert!(diags[0].op == Some(1), "anchored to the reading op");
        assert!(diags[0].detail.contains("(5, 7, 8)"));
    }

    #[test]
    fn unwritten_read_is_a_shape_chain_break() {
        let mut plan = clean_plan();
        if let PlanOp::Linear(l) = &mut plan.ops[2] {
            l.input_addr = 0x9000; // nobody writes this
        }
        let diags = verify_shapes(&plan);
        assert_eq!(invariants(&diags), vec![Invariant::ShapeChain]);
        assert!(diags[0].detail.contains("no earlier op writes"));
    }

    #[test]
    fn span_gap_is_named() {
        let plan = clean_plan();
        let mut spans = plan.mac_cycle_spans();
        // Shift one op's span forward: a gap opens before it.
        spans[2] = spans[2].start + 3..spans[2].end + 3;
        let diags = verify_spans(&plan, &spans);
        assert!(
            !diags.is_empty() && diags.iter().all(|d| d.invariant == Invariant::SpanSchedule),
            "span mutation must trip only span-schedule: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.detail.contains("gap or overlap")),
            "the gap itself must be named: {diags:?}"
        );
    }

    #[test]
    fn stale_live_in_set_is_named() {
        let plan = clean_plan();
        // Drop an entry from the true boundary-1 live-in set.
        let mut stale = plan.live_in_surfaces(1);
        assert!(!stale.is_empty());
        stale.pop();
        let diags = verify_live_in(&plan, 1, &stale);
        assert_eq!(invariants(&diags), vec![Invariant::LiveIn]);
        assert_eq!(diags[0].op, Some(1));
        // A size lie is also caught.
        let mut wrong_size = plan.live_in_surfaces(1);
        wrong_size[0].1 += 8;
        assert_eq!(
            invariants(&verify_live_in(&plan, 1, &wrong_size)),
            vec![Invariant::LiveIn]
        );
        // The plan's own derivation passes at every boundary.
        for b in 0..=plan.ops.len() {
            assert!(verify_live_in(&plan, b, &plan.live_in_surfaces(b)).is_empty());
        }
    }

    #[test]
    fn requant_and_bias_violations_are_named() {
        let mut plan = clean_plan();
        if let PlanOp::Conv(c) = &mut plan.ops[0] {
            c.requant = vec![Requant::from_scale(0.5).unwrap(); 2]; // neither 1 nor k
            c.bias.pop();
        }
        let diags = verify_requant(&plan);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.invariant == Invariant::RequantRange));
        let mut bad_scale = clean_plan();
        bad_scale.input_scale = -1.0;
        assert!(invariants(&verify_requant(&bad_scale)).contains(&Invariant::RequantRange));
        // A negative scale also breaks the decode closure (decode_words
        // rejects it), which the codec pass reports independently.
        assert!(invariants(&verify_codec(&bad_scale)).contains(&Invariant::EncodeClosure));
    }

    #[test]
    fn misaligned_and_out_of_bounds_regions_are_named() {
        let mut plan = clean_plan();
        if let PlanOp::Conv(c) = &mut plan.ops[0] {
            c.weight_addr = 0x421; // off the 32-byte grid
        }
        assert!(invariants(&verify_surfaces(&plan)).contains(&Invariant::SurfaceAlignment));
        let mut small = clean_plan();
        small.dram_size = 0x100;
        assert!(invariants(&verify_surfaces(&small)).contains(&Invariant::SurfaceBounds));
    }

    #[test]
    fn reachability_no_op_and_empty_lanes() {
        let plan = clean_plan();
        assert_eq!(
            fault_reachability(&plan, &[0], 0, 0x3FFFF, 0, false, None),
            Reachability::ProvablyMasked(MaskReason::NoOpMask),
            "fsel 0 with xor 0 overrides nothing, whatever fdata says"
        );
        assert_eq!(
            fault_reachability(&plan, &[], I18::MASK, 0, 0, false, None),
            Reachability::ProvablyMasked(MaskReason::NoTargetLanes)
        );
    }

    #[test]
    fn reachability_window_outside_schedule() {
        let plan = clean_plan();
        let total = plan.total_mac_cycles();
        assert_eq!(
            fault_reachability(
                &plan,
                &[0],
                I18::MASK,
                0,
                0,
                false,
                Some(&(total + 10..total + 20))
            ),
            Reachability::ProvablyMasked(MaskReason::WindowOutsideSchedule)
        );
        assert_eq!(
            fault_reachability(&plan, &[0], I18::MASK, 0, 0, false, Some(&(1..2))),
            Reachability::Reachable
        );
    }

    #[test]
    fn reachability_idle_lane_semantics() {
        let plan = clean_plan(); // conv c_in=3, k=5; linear in_f=5, out_f=10
                                 // Lane (m=0, j=6): j >= 3 idle in the conv, j >= 5 idle in the
                                 // linear head — idle everywhere. Stuck-at-zero feeds zero into an
                                 // already-zero product: provably masked under the zero-fed policy.
        let lane_j6 = [6usize];
        assert_eq!(
            fault_reachability(&plan, &lane_j6, I18::MASK, 0, 0, false, None),
            Reachability::ProvablyMasked(MaskReason::TargetLanesIdle)
        );
        // A nonzero override on the same idle lane perturbs the zero-fed
        // adder tree: reachable.
        assert_eq!(
            fault_reachability(&plan, &lane_j6, I18::MASK, 1, 0, false, None),
            Reachability::Reachable
        );
        // Under gated idle lanes even the nonzero override cannot land.
        assert_eq!(
            fault_reachability(&plan, &lane_j6, I18::MASK, 1, 0, true, None),
            Reachability::ProvablyMasked(MaskReason::TargetLanesIdle)
        );
        // Kernel-tail MACs are discarded outright: with out_f=10 every MAC
        // unit serves the head, but a plan with k_out < 8 masks high MACs.
        let lane_m7 = [7 * 8usize]; // m=7, j=0
        assert_eq!(
            fault_reachability(&plan, &lane_m7, I18::MASK, 1, 0, false, None),
            Reachability::Reachable,
            "the 10-class head keeps every MAC unit live"
        );
        // Live lane: always conservatively reachable.
        assert_eq!(
            fault_reachability(&plan, &[0], I18::MASK, 0, 0, true, None),
            Reachability::Reachable
        );
    }

    #[test]
    fn reachability_is_monotone_in_lanes() {
        let plan = clean_plan();
        // Adding lanes can only move ProvablyMasked -> Reachable.
        for base in 0..64usize {
            let solo = fault_reachability(&plan, &[base], I18::MASK, 0, 0, false, None);
            let with_live = fault_reachability(&plan, &[base, 0], I18::MASK, 0, 0, false, None);
            assert_eq!(with_live, Reachability::Reachable);
            if solo == Reachability::Reachable {
                assert_eq!(with_live, Reachability::Reachable);
            }
        }
    }
}
