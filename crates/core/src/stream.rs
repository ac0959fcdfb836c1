//! The streaming pipeline planner — the Fig. 4 line buffer in software,
//! cascaded.
//!
//! [`crate::ToneMapper`] materialises a full-size intermediate image after
//! every stage of its plan — one DDR round trip per stage, exactly the
//! memory traffic the paper's restructured accelerator eliminates with its
//! BRAM line buffer. [`StreamingToneMapper`] is the software analogue of
//! that restructuring, generalised to any [`PipelinePlan`]: it *compiles*
//! the plan and decides, stage class by stage class, how much of it can run
//! in fused raster order:
//!
//! * **point ops** (normalize, invert, mask, adjust, gamma, log curve,
//!   Reinhard) fuse freely into whichever fused region consumes them, and
//!   run *op-major* over each row: every op sweeps the whole row in its
//!   own loop before the next op starts;
//! * **each stencil op** (a separable Gaussian blur) becomes its own
//!   rolling ring of `2·radius + 1` horizontally-blurred rows — one line
//!   buffer per stencil, cascaded back-to-back so stage *k*'s ring is fed
//!   on demand by stage *k − 1*'s rows (staggered row latency = sum of the
//!   upstream radii), the way HWTool and the Halide-to-hardware flows
//!   compose line-buffered stages;
//! * **reductions over an intermediate** (histogram equalization) are
//!   *materialization barriers*: the histogram/CDF must see the whole
//!   intermediate before the first output pixel, so the plan splits at the
//!   barrier into fused segments ([`PipelinePlan::segmentation`]) — one
//!   cascade per segment — instead of abandoning fusion;
//! * only a **mask whose lifetime straddles a barrier** still forces the
//!   two-pass fallback: the consumer's segment would need a ring the
//!   barrier has already drained ([`FusionBlocker::MaskAcrossBarrier`]).
//!
//! The compiled decision — [`StreamingDecision::FullyFused`], `Segmented`
//! with its barriers, or `Fallback` with its reasons — is inspectable
//! through [`StreamingToneMapper::decision`].
//!
//! Whatever the verdict, the arithmetic is *bit-identical* to the two-pass
//! planner: every sample goes through the same operations in the same
//! order ([`crate::normalize::normalize_sample`],
//! [`crate::blur::quantize_kernel`]'s taps applied in ascending tap order,
//! [`crate::masking::masked_sample`], [`crate::adjust::adjusted_sample`],
//! and the shared point-curve helpers in [`crate::plan`]), only the
//! schedule changes. That makes the streaming engines drop-in replacements
//! whose outputs equal the classic engines' exactly — the property the
//! paper relies on when it swaps the software blur for the line-buffered
//! accelerator.
//!
//! Like [`crate::ToneMapper::map_luminance_hw_blur`], the pipeline uses the
//! paper's hardware/software split: the point-wise stages compute in `f32`
//! (the processing system) while each stencil computes in the sample type
//! `S` (the programmable logic), with quantisation at the accelerator
//! boundary. `S = f32` therefore reproduces the pure software reference and
//! `S = apfixed::Fix16` the paper's final fixed-point accelerator.
//!
//! Rows are an embarrassingly parallel unit: [`StreamingToneMapper`] can
//! slice the output rows across scoped threads
//! ([`StreamingToneMapper::with_threads`]), each slice re-deriving the few
//! cascade rows it shares with its neighbour. Outputs stay bit-identical at
//! any thread count because every output row's computation is
//! self-contained.
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use tonemap_core::{StreamingToneMapper, ToneMapParams, ToneMapper};
//!
//! let hdr = SceneKind::WindowInDarkRoom.generate(48, 48, 3);
//! let classic = ToneMapper::new(ToneMapParams::paper_default());
//! let streaming = StreamingToneMapper::<f32>::new(ToneMapParams::paper_default());
//! // Same pixels, one pass, no full-size intermediates.
//! assert_eq!(streaming.map_luminance(&hdr), classic.map_luminance_f32(&hdr));
//! assert!(streaming.decision().is_fused());
//! ```

use crate::adjust::adjusted_sample;
use crate::blur::{gaussian_kernel, quantize_kernel};
use crate::color;
use crate::masking::mask_row;
use crate::normalize::{normalization_scale, normalize_sample};
use crate::params::{MaskingParams, ParamError, ToneMapParams};
use crate::plan::{
    execute_plan_hw_blur, gamma_row, histogram_equalize, log_curve_sample, reinhard_sample,
    run_color_plan, ChannelLayout, ColorStage, PipelineOp, PipelineOpKind, PipelinePlan,
};
use crate::sample::Sample;
use hdr_image::rgb::{luminance_plane, reapply_color};
use hdr_image::{LuminanceImage, RgbImage};
use std::fmt;

/// Why a plan could not stream at all (not even segmented).
///
/// Since plan segmentation landed, reductions and extra stencils no longer
/// block streaming — barriers split the plan, stencils cascade. The one
/// remaining blocker is a mask register whose lifetime crosses a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionBlocker {
    /// A blurred mask produced before a materialization barrier is consumed
    /// after it. The consumer's fused segment would need the producer's row
    /// ring, but the barrier has already drained the cascade, so the plan
    /// falls back to two-pass execution.
    MaskAcrossBarrier {
        /// Index of the [`PipelineOp::BlurMask`] stage that produced the mask.
        producer: usize,
        /// Index of the barrier stage the mask's lifetime straddles.
        barrier: usize,
    },
}

impl FusionBlocker {
    /// The plan stage this blocker anchors to, used to order the reasons
    /// list. Every variant reports a real stage index — the old
    /// `usize::MAX` sentinel for index-less variants is gone.
    pub fn stage_index(&self) -> usize {
        match *self {
            FusionBlocker::MaskAcrossBarrier { barrier, .. } => barrier,
        }
    }
}

impl fmt::Display for FusionBlocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionBlocker::MaskAcrossBarrier { producer, barrier } => write!(
                f,
                "the mask blurred at stage {producer} is consumed after the materialization \
                 barrier at stage {barrier}, so its row ring cannot survive the barrier"
            ),
        }
    }
}

/// One materialization barrier of a segmented streaming plan: a reduction
/// stage that must see the whole intermediate image before the first output
/// pixel of the next fused segment can stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBarrier {
    /// Index of the barrier stage in the plan.
    pub index: usize,
    /// The reduction op that forms the barrier.
    pub op: PipelineOpKind,
}

impl fmt::Display for StreamBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage {} ({})", self.index, self.op)
    }
}

/// The streaming planner's verdict on a compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingDecision {
    /// The whole plan runs as one fused raster-order pass — every stencil a
    /// line-buffer region in one cascade, no full-size intermediates.
    FullyFused,
    /// The plan streams as `barriers.len() + 1` fused cascades, each
    /// materializing one intermediate at the listed reduction barriers.
    Segmented {
        /// Every materialization barrier, in stage order.
        barriers: Vec<StreamBarrier>,
    },
    /// The plan executes through the two-pass (materialized) executor, for
    /// the listed reasons.
    Fallback {
        /// Every blocker the planner found, in stage order.
        reasons: Vec<FusionBlocker>,
    },
}

impl StreamingDecision {
    /// `true` when the plan streams as one fused pass.
    pub fn is_fused(&self) -> bool {
        matches!(self, StreamingDecision::FullyFused)
    }

    /// `true` when the plan executes through the streaming cascade at all
    /// — fully fused or segmented — rather than the two-pass fallback.
    pub fn is_streamed(&self) -> bool {
        !matches!(self, StreamingDecision::Fallback { .. })
    }

    /// The fusion blockers (empty unless the plan fell back).
    pub fn reasons(&self) -> &[FusionBlocker] {
        match self {
            StreamingDecision::Fallback { reasons } => reasons,
            _ => &[],
        }
    }

    /// The materialization barriers (empty unless the plan is segmented).
    pub fn barriers(&self) -> &[StreamBarrier] {
        match self {
            StreamingDecision::Segmented { barriers } => barriers,
            _ => &[],
        }
    }
}

impl fmt::Display for StreamingDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamingDecision::FullyFused => f.write_str("fused into one raster-order pass"),
            StreamingDecision::Segmented { barriers } => {
                write!(
                    f,
                    "segmented into {} fused passes at {} materialization barrier{}: ",
                    barriers.len() + 1,
                    barriers.len(),
                    if barriers.len() == 1 { "" } else { "s" },
                )?;
                for (i, barrier) in barriers.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{barrier}")?;
                }
                Ok(())
            }
            StreamingDecision::Fallback { reasons } => {
                f.write_str("materialized two-pass fallback: ")?;
                for (i, reason) in reasons.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{reason}")?;
                }
                Ok(())
            }
        }
    }
}

/// A point op compiled for the op-major `f32` row passes of the fused
/// cascade. Each arm applies exactly the arithmetic of the two-pass stage
/// functions, so fused and materialized execution stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompiledPointOp {
    Invert,
    Mask(MaskingParams),
    Adjust { contrast: f32, offset: f32 },
    Gamma(f32),
    LogCurve(f32),
    Reinhard { key: f32, white: f32 },
    PqOetf(f32),
    PqEotf(f32),
    HlgOetf,
    HlgEotf,
    Hable(f32),
    Aces(f32),
    Drago(f32),
}

impl CompiledPointOp {
    fn from_op(op: &PipelineOp) -> Self {
        match *op {
            PipelineOp::Invert => CompiledPointOp::Invert,
            PipelineOp::Mask(masking) => CompiledPointOp::Mask(masking),
            PipelineOp::Adjust(adjust) => CompiledPointOp::Adjust {
                contrast: adjust.contrast,
                offset: 0.5 + adjust.brightness,
            },
            PipelineOp::Gamma { gamma } => CompiledPointOp::Gamma(gamma),
            PipelineOp::LogCurve { scale } => CompiledPointOp::LogCurve(scale),
            PipelineOp::Reinhard { key, white } => CompiledPointOp::Reinhard { key, white },
            PipelineOp::PqOetf { peak_nits } => CompiledPointOp::PqOetf(peak_nits),
            PipelineOp::PqEotf { peak_nits } => CompiledPointOp::PqEotf(peak_nits),
            PipelineOp::HlgOetf => CompiledPointOp::HlgOetf,
            PipelineOp::HlgEotf => CompiledPointOp::HlgEotf,
            PipelineOp::Hable { exposure } => CompiledPointOp::Hable(exposure),
            PipelineOp::Aces { exposure } => CompiledPointOp::Aces(exposure),
            PipelineOp::Drago { bias } => CompiledPointOp::Drago(bias),
            PipelineOp::Normalize
            | PipelineOp::BlurMask { .. }
            | PipelineOp::HistogramEq { .. } => {
                unreachable!("handled by the fused-program compiler")
            }
            PipelineOp::RgbToHsv
            | PipelineOp::HsvToRgb
            | PipelineOp::ExtractLuminance
            | PipelineOp::ReapplyRatio => {
                unreachable!("colour-register ops are handled by the colour program")
            }
        }
    }

    /// Applies this op to every sample of `row` in place, with `mask` the
    /// row's blurred mask stream (`None` before the first stencil). The op
    /// is matched once per row, so each arm is a plain loop over the slice
    /// that the compiler can unroll and, where the arithmetic allows,
    /// vectorise. Every element goes through the same per-sample function
    /// as the two-pass stage — for `Mask` and `Gamma` through its row form,
    /// which runs the same lane arithmetic a [`crate::fmath::LANES`] block
    /// at a time — so the result is bit-identical.
    fn apply_row(&self, row: &mut [f32], mask: Option<&[f32]>) {
        match *self {
            CompiledPointOp::Invert => map_row(row, |v| 1.0 - v),
            CompiledPointOp::Mask(masking) => {
                let mask = mask.expect("plan validation pairs mask with blur");
                mask_row(row, mask, &masking);
            }
            CompiledPointOp::Adjust { contrast, offset } => {
                map_row(row, |v| adjusted_sample(v, 0.5f32, contrast, offset))
            }
            CompiledPointOp::Gamma(gamma) => gamma_row(row, gamma),
            CompiledPointOp::LogCurve(scale) => map_row(row, |v| log_curve_sample(v, scale)),
            CompiledPointOp::Reinhard { key, white } => {
                map_row(row, |v| reinhard_sample(v, key, white))
            }
            CompiledPointOp::PqOetf(peak) => map_row(row, |v| color::pq_oetf(v, peak)),
            CompiledPointOp::PqEotf(peak) => map_row(row, |v| color::pq_eotf(v, peak)),
            CompiledPointOp::HlgOetf => map_row(row, color::hlg_oetf),
            CompiledPointOp::HlgEotf => map_row(row, color::hlg_eotf),
            CompiledPointOp::Hable(exposure) => map_row(row, |v| color::hable_sample(v, exposure)),
            CompiledPointOp::Aces(exposure) => map_row(row, |v| color::aces_sample(v, exposure)),
            CompiledPointOp::Drago(bias) => map_row(row, |v| color::drago_sample(v, bias)),
        }
    }
}

/// Replaces every sample of `row` with `f(sample)`.
fn map_row(row: &mut [f32], f: impl Fn(f32) -> f32) {
    for v in row {
        *v = f(*v);
    }
}

/// Runs a point-op chain over one row, op-major: each op sweeps the whole
/// row before the next one starts.
fn apply_chain(chain: &[CompiledPointOp], row: &mut [f32], mask: Option<&[f32]>) {
    for op in chain {
        op.apply_row(row, mask);
    }
}

/// One fused line-buffer region of a cascade: the point ops feeding this
/// region's value stream (consuming the *previous* region's mask, if any),
/// then the stencil — the quantised kernel plus the Moroney input inversion
/// at the accelerator boundary.
#[derive(Debug, Clone, PartialEq)]
struct Region<S: Sample> {
    /// Point ops applied to the upstream value stream before this stencil.
    chain: Vec<CompiledPointOp>,
    kernel: Vec<S>,
    invert_input: bool,
}

/// One fused segment of a compiled plan: a cascade of line-buffer regions
/// followed by the point-op epilog (which consumes the last region's mask).
#[derive(Debug, Clone, PartialEq)]
struct FusedSegment<S: Sample> {
    regions: Vec<Region<S>>,
    epilog: Vec<CompiledPointOp>,
}

impl<S: Sample> FusedSegment<S> {
    fn is_identity(&self) -> bool {
        self.regions.is_empty() && self.epilog.is_empty()
    }
}

/// One step of a compiled streaming plan: a fused raster-order cascade, or
/// the materialization barrier between two of them. Segments always
/// alternate starting (and ending) with a fused segment, possibly empty.
#[derive(Debug, Clone, PartialEq)]
enum SegmentProgram<S: Sample> {
    Fused(FusedSegment<S>),
    Barrier {
        index: usize,
        op: PipelineOpKind,
        bins: usize,
    },
}

/// A plan compiled for streaming execution.
#[derive(Debug, Clone, PartialEq)]
struct StreamProgram<S: Sample> {
    /// Whether the plan starts with normalization (resolved by the scale
    /// pre-scan over the raw input).
    normalize: bool,
    segments: Vec<SegmentProgram<S>>,
}

/// A colour-managed (`Rgb`-input) plan compiled for streaming: each
/// embedded scalar sub-plan gets its own compiled streaming program, keyed
/// by the index of its first op in the outer plan. The colour point stages
/// (conversions, transfer curves, HSV tone curves) are pure per-pixel work
/// executed straight from the plan's colour walk.
#[derive(Debug, Clone, PartialEq)]
struct ColorProgram<S: Sample> {
    /// `(start, sub-plan, compiled sub-program)` per embedded scalar run.
    subs: Vec<(usize, PipelinePlan, Program<S>)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Program<S: Sample> {
    Stream(StreamProgram<S>),
    Fallback(Vec<FusionBlocker>),
    Color(ColorProgram<S>),
}

fn compile_program<S: Sample>(plan: &PipelinePlan) -> Program<S> {
    if plan.input_layout() == ChannelLayout::Rgb {
        let subs = plan
            .color_stages()
            .into_iter()
            .filter_map(|stage| match stage {
                ColorStage::Scalar { plan, start } => {
                    let program = compile_scalar_program::<S>(&plan);
                    Some((start, plan, program))
                }
                _ => None,
            })
            .collect();
        return Program::Color(ColorProgram { subs });
    }
    compile_scalar_program(plan)
}

fn compile_scalar_program<S: Sample>(plan: &PipelinePlan) -> Program<S> {
    // The one shape that cannot stream: a mask produced before a barrier
    // and consumed after it. Plan validation allows it (reductions do not
    // touch the mask register), but the consumer's segment would need a row
    // ring the barrier has already drained.
    let mut reasons: Vec<FusionBlocker> = Vec::new();
    let mut pending_mask: Option<usize> = None;
    for (index, op) in plan.ops().iter().enumerate() {
        match op {
            PipelineOp::BlurMask { .. } => pending_mask = Some(index),
            PipelineOp::Mask(_) => pending_mask = None,
            PipelineOp::HistogramEq { .. } => {
                if let Some(producer) = pending_mask {
                    reasons.push(FusionBlocker::MaskAcrossBarrier {
                        producer,
                        barrier: index,
                    });
                }
            }
            _ => {}
        }
    }
    if !reasons.is_empty() {
        reasons.sort_by_key(|r| {
            let FusionBlocker::MaskAcrossBarrier { producer, .. } = *r;
            (r.stage_index(), producer)
        });
        return Program::Fallback(reasons);
    }

    let normalize = plan.starts_with_normalize();
    let mut segments = Vec::new();
    let mut regions: Vec<Region<S>> = Vec::new();
    let mut chain: Vec<CompiledPointOp> = Vec::new();
    for (index, op) in plan.ops().iter().enumerate() {
        if index == 0 && normalize {
            continue;
        }
        match op {
            PipelineOp::BlurMask { blur, invert_input } => regions.push(Region {
                chain: std::mem::take(&mut chain),
                kernel: quantize_kernel::<S>(&gaussian_kernel(blur)),
                invert_input: *invert_input,
            }),
            PipelineOp::HistogramEq { bins } => {
                segments.push(SegmentProgram::Fused(FusedSegment {
                    regions: std::mem::take(&mut regions),
                    epilog: std::mem::take(&mut chain),
                }));
                segments.push(SegmentProgram::Barrier {
                    index,
                    op: PipelineOpKind::HistogramEq,
                    bins: *bins,
                });
            }
            _ => chain.push(CompiledPointOp::from_op(op)),
        }
    }
    segments.push(SegmentProgram::Fused(FusedSegment {
        regions,
        epilog: chain,
    }));
    Program::Stream(StreamProgram {
        normalize,
        segments,
    })
}

/// How a fused segment reads its input samples: the first segment ingests
/// the raw HDR input (sanitizing and optionally normalizing, exactly like
/// the two-pass executor's first step), later segments read the previous
/// barrier's materialized `f32` register verbatim.
#[derive(Debug, Clone, Copy)]
enum Ingest {
    Source(Option<f32>),
    Passthrough,
}

impl Ingest {
    /// Ingests one input row into `dst`.
    fn row(self, raw: &[f32], dst: &mut [f32]) {
        match self {
            Ingest::Source(scale) => {
                for (d, &r) in dst.iter_mut().zip(raw) {
                    *d = normalize_sample(r, scale);
                }
            }
            Ingest::Passthrough => dst.copy_from_slice(raw),
        }
    }
}

/// The streaming tone mapper: a [`PipelinePlan`] compiled into fused
/// raster-order cascades of rolling row rings — one line buffer per stencil
/// stage — with full-size intermediates only at materialization barriers.
///
/// Unlike [`crate::ToneMapper`], every blur kernel is quantised into `S`
/// **once at construction** and reused for every image this mapper
/// processes — the classic path re-derives and re-quantises it on every
/// call.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingToneMapper<S: Sample> {
    params: ToneMapParams,
    plan: PipelinePlan,
    program: Program<S>,
    threads: usize,
}

impl<S: Sample> StreamingToneMapper<S> {
    /// Creates a streaming mapper compiling the paper's Fig. 1 chain from
    /// the given parameters, single-threaded by default.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; use
    /// [`StreamingToneMapper::try_new`] to handle invalid parameters
    /// gracefully.
    pub fn new(params: ToneMapParams) -> Self {
        StreamingToneMapper::try_new(params)
            .unwrap_or_else(|e| panic!("invalid tone-mapping parameters: {e}"))
    }

    /// Creates a streaming mapper compiling the paper's Fig. 1 chain,
    /// returning a typed [`ParamError`] if the parameters are invalid. The
    /// blur kernel is quantised into `S` here, once.
    pub fn try_new(params: ToneMapParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(StreamingToneMapper::compiled(
            PipelinePlan::from_params(&params),
            params,
        ))
    }

    /// Compiles an arbitrary validated [`PipelinePlan`] for streaming
    /// execution. Multi-stencil plans fuse into one cascade; reductions
    /// split the plan into fused segments; the rare plan that cannot stream
    /// at all (a mask straddling a barrier) still executes — through the
    /// two-pass fallback — and [`StreamingToneMapper::decision`] reports
    /// why.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParamError`] if `params` fail validation (the plan
    /// itself was validated when it was built).
    pub fn compile(plan: PipelinePlan, params: ToneMapParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(StreamingToneMapper::compiled(plan, params))
    }

    fn compiled(plan: PipelinePlan, params: ToneMapParams) -> Self {
        let program = compile_program::<S>(&plan);
        StreamingToneMapper {
            params,
            plan,
            program,
            threads: 1,
        }
    }

    /// Sets how many row slices to process concurrently (clamped to at
    /// least 1). Outputs are bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The parameters this mapper was built with.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// The pipeline plan this mapper compiled.
    pub const fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// The planner's verdict for the compiled plan — one fused pass, a
    /// barrier-segmented stream, or the two-pass fallback with the reasons
    /// why.
    pub fn decision(&self) -> StreamingDecision {
        match &self.program {
            Program::Fallback(reasons) => StreamingDecision::Fallback {
                reasons: reasons.clone(),
            },
            Program::Stream(program) => {
                let barriers = stream_barriers(program, 0);
                if barriers.is_empty() {
                    StreamingDecision::FullyFused
                } else {
                    StreamingDecision::Segmented { barriers }
                }
            }
            // A colour program aggregates its scalar sub-programs' verdicts,
            // with barrier/blocker indices offset back into the outer plan.
            // The colour point stages themselves always stream (pure
            // per-pixel work), so they never add barriers or blockers.
            Program::Color(color) => {
                let mut reasons: Vec<FusionBlocker> = Vec::new();
                let mut barriers: Vec<StreamBarrier> = Vec::new();
                for (start, _, program) in &color.subs {
                    match program {
                        Program::Fallback(sub) => reasons.extend(sub.iter().map(|r| {
                            let FusionBlocker::MaskAcrossBarrier { producer, barrier } = *r;
                            FusionBlocker::MaskAcrossBarrier {
                                producer: producer + start,
                                barrier: barrier + start,
                            }
                        })),
                        Program::Stream(sub) => barriers.extend(stream_barriers(sub, *start)),
                        Program::Color(_) => unreachable!("colour programs never nest"),
                    }
                }
                if !reasons.is_empty() {
                    StreamingDecision::Fallback { reasons }
                } else if barriers.is_empty() {
                    StreamingDecision::FullyFused
                } else {
                    StreamingDecision::Segmented { barriers }
                }
            }
        }
    }

    /// The configured row-slice thread count.
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// The first cascade region's blur kernel quantised into the working
    /// sample type at construction (empty for plans without a fused stencil
    /// stage).
    pub fn kernel(&self) -> &[S] {
        first_kernel(&self.program)
    }

    /// Tone-maps an HDR luminance image through the compiled plan,
    /// returning the display-referred result — the same pixels
    /// [`crate::ToneMapper::map_luminance_hw_blur`] produces for the same
    /// plan (and, for `S = f32`, the same pixels as the all-float
    /// reference).
    /// # Panics
    ///
    /// Panics if the compiled plan takes a colour register as input
    /// ([`ChannelLayout::Rgb`]): a colour-managed plan has no scalar entry
    /// point — stream it through [`StreamingToneMapper::map_rgb`].
    pub fn map_luminance(&self, hdr: &LuminanceImage) -> LuminanceImage {
        match &self.program {
            Program::Fallback(_) => execute_plan_hw_blur::<S>(&self.plan, hdr),
            Program::Stream(program) => run_stream_program(program, hdr, self.threads),
            Program::Color(_) => panic!(
                "map_luminance requires a scalar-input plan; this plan takes a `{}` register — \
                 stream it through map_rgb",
                self.plan.input_layout()
            ),
        }
    }

    /// Tone-maps an HDR RGB image through the compiled plan.
    ///
    /// For a **scalar-input plan** this is the classic wrapper path — the
    /// luminance plane streams through [`StreamingToneMapper::map_luminance`]
    /// and the colour is re-applied by clamped ratio — and produces exactly
    /// the pixels [`crate::ToneMapper::map_rgb`] produces for the same plan.
    ///
    /// For a **colour-managed plan** ([`ChannelLayout::Rgb`] input) the
    /// colour point stages (conversions, transfer curves, HSV tone curves,
    /// chroma split/merge) run through the shared register walk of
    /// [`run_color_plan`] while every embedded scalar sub-plan streams
    /// through its compiled line-buffer cascade, row-sliced across the
    /// configured threads. Either way the result is bit-identical to the
    /// two-pass planner's.
    ///
    /// # Errors
    ///
    /// Propagates [`hdr_image::ImageError`] from the chroma re-apply step
    /// (dimension mismatches cannot occur for plans built by this type, so
    /// in practice this is infallible).
    pub fn map_rgb(&self, hdr: &RgbImage) -> Result<RgbImage, hdr_image::ImageError> {
        match &self.program {
            Program::Color(color) => run_color_plan(&self.plan, hdr, |start, sub_plan, lum| {
                Ok(match color.subs.iter().find(|(s, _, _)| *s == start) {
                    Some((_, plan, program)) => match program {
                        Program::Stream(sub) => run_stream_program(sub, lum, self.threads),
                        Program::Fallback(_) => execute_plan_hw_blur::<S>(plan, lum),
                        Program::Color(_) => unreachable!("colour programs never nest"),
                    },
                    // Compilation visits every scalar stage, so an unknown
                    // offset can only come from a plan edited after compile;
                    // run it through the two-pass executor to stay correct.
                    None => execute_plan_hw_blur::<S>(sub_plan, lum),
                })
            }),
            _ => {
                let luma = luminance_plane(hdr);
                let mapped = self.map_luminance(&luma);
                reapply_color(hdr, &mapped)
            }
        }
    }
}

/// The barriers of one compiled scalar stream, with stage indices offset
/// back into the outer plan (offset 0 for a stand-alone scalar plan).
fn stream_barriers<S: Sample>(program: &StreamProgram<S>, offset: usize) -> Vec<StreamBarrier> {
    program
        .segments
        .iter()
        .filter_map(|segment| match segment {
            SegmentProgram::Barrier { index, op, .. } => Some(StreamBarrier {
                index: index + offset,
                op: *op,
            }),
            SegmentProgram::Fused(_) => None,
        })
        .collect()
}

/// The first fused region's quantised kernel anywhere in the program — for
/// colour programs, the first scalar sub-program that has one.
fn first_kernel<S: Sample>(program: &Program<S>) -> &[S] {
    match program {
        Program::Stream(program) => program
            .segments
            .iter()
            .find_map(|segment| match segment {
                SegmentProgram::Fused(seg) => seg.regions.first().map(|r| r.kernel.as_slice()),
                SegmentProgram::Barrier { .. } => None,
            })
            .unwrap_or(&[]),
        Program::Fallback(_) => &[],
        Program::Color(color) => color
            .subs
            .iter()
            .map(|(_, _, sub)| first_kernel(sub))
            .find(|kernel| !kernel.is_empty())
            .unwrap_or(&[]),
    }
}

/// Runs one compiled scalar stream over a luminance image: fused segments
/// execute as line-buffer cascades (or pure point passes), barriers
/// materialize and reduce exactly as the two-pass executor would.
fn run_stream_program<S: Sample>(
    program: &StreamProgram<S>,
    hdr: &LuminanceImage,
    threads: usize,
) -> LuminanceImage {
    let scale = if program.normalize {
        normalization_scale(hdr)
    } else {
        None
    };
    let mut ingest = Ingest::Source(scale);
    let mut current: Option<LuminanceImage> = None;
    for segment in &program.segments {
        match segment {
            SegmentProgram::Fused(seg) => {
                // A no-op segment on an already-materialized register
                // (e.g. a trailing reduction) has nothing to compute.
                // The *first* segment always runs: its ingestion is the
                // sanitize/normalize step of the two-pass executor.
                if seg.is_identity() && matches!(ingest, Ingest::Passthrough) {
                    continue;
                }
                let input = current.as_ref().unwrap_or(hdr);
                current = Some(run_fused_segment(seg, input, ingest, threads));
                ingest = Ingest::Passthrough;
            }
            SegmentProgram::Barrier { bins, .. } => {
                let input = current
                    .as_ref()
                    .expect("a fused segment precedes every barrier");
                // The exact reduction the two-pass executor applies to
                // its f32 register, so segmented streaming stays
                // bit-identical.
                current = Some(histogram_equalize::<f32>(input, *bins));
            }
        }
    }
    current.expect("compiled plans always run at least one fused segment")
}

/// Runs one fused segment over its input image — a pure point pass when the
/// segment has no stencil, otherwise the line-buffer cascade — slicing the
/// output rows across the configured threads.
fn run_fused_segment<S: Sample>(
    segment: &FusedSegment<S>,
    input: &LuminanceImage,
    ingest: Ingest,
    threads: usize,
) -> LuminanceImage {
    let (width, height) = input.dimensions();
    let mut out = vec![0.0f32; width * height];
    let threads = threads.min(height.max(1));
    if segment.regions.is_empty() {
        // Pure point chain: every pixel is independent, nothing to ring.
        let point_rows = |first_row: usize, chunk: &mut [f32]| {
            let pixels = &input.pixels()[first_row * width..first_row * width + chunk.len()];
            for (dst, raw) in chunk
                .chunks_exact_mut(width)
                .zip(pixels.chunks_exact(width))
            {
                ingest.row(raw, dst);
                apply_chain(&segment.epilog, dst, None);
            }
        };
        if threads <= 1 {
            point_rows(0, &mut out);
        } else {
            let rows_per_slice = height.div_ceil(threads);
            std::thread::scope(|scope| {
                for (slice, chunk) in out.chunks_mut(rows_per_slice * width).enumerate() {
                    let point_rows = &point_rows;
                    scope.spawn(move || point_rows(slice * rows_per_slice, chunk));
                }
            });
        }
    } else if threads <= 1 {
        run_rows(segment, input, ingest, 0, &mut out);
    } else {
        let rows_per_slice = height.div_ceil(threads);
        std::thread::scope(|scope| {
            for (slice, chunk) in out.chunks_mut(rows_per_slice * width).enumerate() {
                let first_row = slice * rows_per_slice;
                scope.spawn(move || run_rows(segment, input, ingest, first_row, chunk));
            }
        });
    }
    LuminanceImage::from_vec(width, height, out).expect("output dimensions equal input dimensions")
}

/// The per-slice working state of one cascade region: the Fig. 4 line
/// buffer (`hrows`, horizontally blurred in `S`) plus the region's own
/// chain-output rows (`vrows`, the `f32` value stream the next region — or
/// the epilog — reads). Both rings hold `min(2·radius + 1, height)` rows
/// and are indexed by source row modulo ring length. The vertical pass
/// accumulates in registers ([`stencil_rows`]) and stores straight into the
/// mask row, so no accumulator row is kept. Nothing here scales with the
/// image height.
struct RegionState<S: Sample> {
    hrows: Vec<Vec<S>>,
    vrows: Vec<Vec<f32>>,
    /// Edge-padded scratch row for the horizontal blur.
    padded: Vec<S>,
    /// The ring slot each vertical tap reads for the current output row.
    tap_slots: Vec<usize>,
    /// Scratch row receiving the upstream region's mask stream (empty for
    /// the first region, which reads the segment input).
    up_mask: Vec<f32>,
    /// The next source row this region will produce — rows are produced
    /// lazily, in order, the moment a consumer's vertical window first
    /// reaches them.
    next_row: Option<usize>,
}

impl<S: Sample> RegionState<S> {
    fn new(region: &Region<S>, width: usize, height: usize, has_upstream: bool) -> Self {
        let taps = region.kernel.len();
        let radius = taps / 2;
        let len = taps.min(height).max(1);
        let up_mask = if has_upstream {
            vec![0.0f32; width]
        } else {
            Vec::new()
        };
        RegionState {
            hrows: vec![vec![S::zero(); width]; len],
            vrows: vec![vec![0.0f32; width]; len],
            padded: vec![S::zero(); width + 2 * radius],
            tap_slots: vec![0; taps],
            up_mask,
            next_row: None,
        }
    }
}

/// Processes the output rows `first_row ..` covered by `out` (a
/// whole-row-aligned slice of the output buffer) in raster order through
/// the segment's cascade. Each slice owns fresh region states, so slices
/// are fully independent and bit-identical at any thread count.
fn run_rows<S: Sample>(
    segment: &FusedSegment<S>,
    input: &LuminanceImage,
    ingest: Ingest,
    first_row: usize,
    out: &mut [f32],
) {
    let (width, height) = input.dimensions();
    let mut states: Vec<RegionState<S>> = segment
        .regions
        .iter()
        .enumerate()
        .map(|(i, region)| RegionState::new(region, width, height, i > 0))
        .collect();
    let mut mask_row = vec![0.0f32; width];
    for (row_index, out_row) in out.chunks_exact_mut(width).enumerate() {
        let y = first_row + row_index;
        emit_row(
            &segment.regions,
            &mut states,
            input,
            ingest,
            y,
            out_row,
            &mut mask_row,
        );
        // Point-wise tail: the epilog chain runs in place over the last
        // region's value stream, against its blurred mask.
        apply_chain(&segment.epilog, out_row, Some(&mask_row));
    }
}

/// Produces output row `y` of the *last* region in `regions`: its chain
/// value stream into `v_out` and its blurred mask into `mask_out`.
///
/// This is the cascade step. The region pulls the source rows its vertical
/// window needs from the upstream regions (recursively — `regions` and
/// `states` are parallel slices split from the back), runs its point chain
/// over them, horizontally blurs them into its ring, then applies the
/// vertical taps to the ring rows with [`stencil_rows`], whose register
/// tiles store straight into `mask_out`. Rows are requested in strictly
/// increasing order, so each region's lazy `next_row` cursor advances
/// monotonically and every ring slot is consumed before it is overwritten
/// (ring length ≥ radius + 1 rows beyond the newest consumer row).
fn emit_row<S: Sample>(
    regions: &[Region<S>],
    states: &mut [RegionState<S>],
    input: &LuminanceImage,
    ingest: Ingest,
    y: usize,
    v_out: &mut [f32],
    mask_out: &mut [f32],
) {
    let (region, upstream_regions) = regions
        .split_last()
        .expect("emit_row requires at least one region");
    let (state, upstream_states) = states
        .split_last_mut()
        .expect("region states parallel the regions");
    let (width, height) = input.dimensions();
    let kernel = &region.kernel;
    let radius = kernel.len() / 2;
    let len = state.hrows.len();

    let newest_needed = (y + radius).min(height - 1);
    let mut next = state.next_row.unwrap_or_else(|| y.saturating_sub(radius));
    while next <= newest_needed {
        let slot = next % len;
        let vrow = &mut state.vrows[slot];
        if upstream_regions.is_empty() {
            // First region: the value stream is the ingested segment input
            // through this region's point chain (mask-free by plan
            // validation — no mask exists before the first stencil).
            ingest.row(&input.pixels()[next * width..(next + 1) * width], vrow);
            apply_chain(&region.chain, vrow, None);
        } else {
            // Later region: pull the upstream row on demand straight into
            // the ring slot, then run this region's chain over it in place
            // against the upstream mask stream.
            emit_row(
                upstream_regions,
                upstream_states,
                input,
                ingest,
                next,
                vrow,
                &mut state.up_mask,
            );
            apply_chain(&region.chain, vrow, Some(&state.up_mask));
        }
        fill_blurred_row(
            &mut state.hrows[slot],
            &mut state.padded,
            &state.vrows[slot],
            kernel,
            region.invert_input,
        );
        next += 1;
    }
    state.next_row = Some(next);

    // Vertical pass over the ring: tap k reads source row y + k − radius,
    // clamped to the image, from its ring slot.
    for (k, slot) in state.tap_slots.iter_mut().enumerate() {
        *slot = (y + k).saturating_sub(radius).min(height - 1) % len;
    }
    let (hrows, tap_slots) = (&state.hrows, &state.tap_slots);
    stencil_rows(kernel, |k| &hrows[tap_slots[k]], mask_out, S::to_f32);
    v_out.copy_from_slice(&state.vrows[y % len]);
}

/// Horizontally blurs one chain-output row into `dst` — the producer side
/// of a region's line buffer.
///
/// The row is quantised at the accelerator boundary (with the Moroney
/// inversion applied first, in `f32`, when the region asks for it), then
/// edge-padded by `radius` replicated samples so the horizontal window
/// never needs a clamp: tap `k` of output `x` reads `padded[x + k]`, so
/// [`stencil_rows`] sees the `2·radius + 1` shifted windows of the padded
/// row as its tap rows, and the sums match
/// [`crate::blur::blur_horizontal`] bit-for-bit.
fn fill_blurred_row<S: Sample>(
    dst: &mut [S],
    padded: &mut [S],
    source: &[f32],
    kernel: &[S],
    invert_input: bool,
) {
    let radius = kernel.len() / 2;
    let width = source.len();
    for (slot, &value) in padded[radius..radius + width].iter_mut().zip(source) {
        let mask_input = if invert_input { 1.0 - value } else { value };
        *slot = S::from_f32(mask_input);
    }
    let first = padded[radius];
    let last = padded[radius + width - 1];
    padded[..radius].fill(first);
    padded[radius + width..].fill(last);

    let padded = &*padded;
    stencil_rows(kernel, |k| &padded[k..k + width], dst, |acc| acc);
}

/// Columns per register tile of [`stencil_rows`]. 64 `f32` partial sums
/// are eight 256-bit registers, which stay live across the whole tap loop;
/// 64 measured fastest for both passes.
const TILE: usize = 64;

/// The stencil kernel of both passes:
/// `out[x] = store(Σₖ kernel[k] · tap(k)[x])`, where `tap(k)` is the row
/// tap `k` reads, indexed by output column.
///
/// Per output sample the taps are applied by `mul_add` in ascending order
/// from zero, as in [`crate::blur::blur_horizontal`] and
/// [`crate::blur::blur_vertical`], so the sums are bit-identical to theirs.
/// Only the loop nest differs: the row is cut into tiles of [`TILE`]
/// columns, each tile's partial sums stay in a local array (registers, for
/// `f32`) while every tap sweeps it, and the tile is stored once. A
/// tap-major loop over the whole row would load and store every partial
/// sum once per tap instead. The ragged last tile runs the same per-lane
/// code over fewer lanes.
fn stencil_rows<'a, S: Sample, T>(
    kernel: &[S],
    tap: impl Fn(usize) -> &'a [S],
    out: &mut [T],
    store: impl Fn(S) -> T,
) {
    for (tile, out_tile) in out.chunks_mut(TILE).enumerate() {
        let x0 = tile * TILE;
        let mut acc = [S::zero(); TILE];
        // A full tile passes the whole array, so the inlined lane loop has
        // a constant trip count and the sums stay in registers.
        if out_tile.len() == TILE {
            accumulate_tile(&mut acc, x0, kernel, &tap);
        } else {
            accumulate_tile(&mut acc[..out_tile.len()], x0, kernel, &tap);
        }
        for (o, &a) in out_tile.iter_mut().zip(&acc) {
            *o = store(a);
        }
    }
}

/// Applies every tap, in ascending order, to the partial sums of the
/// columns `x0 .. x0 + lanes.len()`.
#[inline(always)]
fn accumulate_tile<'a, S: Sample>(
    lanes: &mut [S],
    x0: usize,
    kernel: &[S],
    tap: &impl Fn(usize) -> &'a [S],
) {
    for (k, &weight) in kernel.iter().enumerate() {
        let samples = &tap(k)[x0..x0 + lanes.len()];
        for (a, &sample) in lanes.iter_mut().zip(samples) {
            *a = weight.mul_add(sample, *a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AdjustParams, BlurParams};
    use crate::pipeline::ToneMapper;
    use crate::plan::PlanTuning;
    use apfixed::Fix16;
    use hdr_image::synth::SceneKind;

    fn params() -> ToneMapParams {
        let mut p = ToneMapParams::paper_default();
        // A narrower kernel keeps the unit tests quick; the paper-default
        // radius is covered by the integration and property tests.
        p.blur.sigma = 2.0;
        p.blur.radius = 5;
        p
    }

    /// A two-stencil, mask-per-stencil plan with distinct radii, so the
    /// cascade tests exercise staggered row latency.
    fn two_stencil_plan() -> PipelinePlan {
        let base = BlurParams {
            sigma: 1.5,
            radius: 3,
        };
        let detail = BlurParams {
            sigma: 1.0,
            radius: 2,
        };
        let masking = MaskingParams::paper_default();
        PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: base,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::BlurMask {
                blur: detail,
                invert_input: false,
            },
            PipelineOp::Mask(MaskingParams {
                strength: 1.2,
                invert_mask: false,
            }),
            PipelineOp::Adjust(AdjustParams::paper_default()),
        ])
        .unwrap()
    }

    #[test]
    fn f32_streaming_is_bit_identical_to_the_two_pass_reference() {
        for (w, h) in [(48, 48), (33, 17), (64, 9)] {
            let hdr = SceneKind::WindowInDarkRoom.generate(w, h, 7);
            let classic = ToneMapper::new(params()).map_luminance_f32(&hdr);
            let streaming = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
            assert_eq!(streaming, classic, "diverged at {w}x{h}");
        }
    }

    #[test]
    fn fix16_streaming_is_bit_identical_to_the_hw_blur_reference() {
        let hdr = SceneKind::SunAndShadow.generate(40, 31, 5);
        let classic = ToneMapper::new(params()).map_luminance_hw_blur::<Fix16>(&hdr);
        let streaming = StreamingToneMapper::<Fix16>::new(params()).map_luminance(&hdr);
        assert_eq!(streaming, classic);
    }

    #[test]
    fn outputs_are_bit_identical_at_any_thread_count() {
        let hdr = SceneKind::MemorialComposite.generate(37, 29, 9);
        let single = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
        for threads in [2, 3, 5, 8, 64] {
            let sliced = StreamingToneMapper::<f32>::new(params())
                .with_threads(threads)
                .map_luminance(&hdr);
            assert_eq!(sliced, single, "diverged at {threads} threads");
        }
    }

    #[test]
    fn degenerate_geometries_match_the_reference() {
        // 1×N, N×1 and images smaller than the kernel radius exercise the
        // fully clamped window paths.
        let p = params();
        for (w, h) in [(1, 24), (24, 1), (1, 1), (3, 2), (4, 12), (2, 2)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 3);
            let classic = ToneMapper::new(p).map_luminance_f32(&hdr);
            let streaming = StreamingToneMapper::<f32>::new(p).map_luminance(&hdr);
            assert_eq!(streaming, classic, "diverged at {w}x{h}");
            let classic_fx = ToneMapper::new(p).map_luminance_hw_blur::<Fix16>(&hdr);
            let streaming_fx = StreamingToneMapper::<Fix16>::new(p).map_luminance(&hdr);
            assert_eq!(streaming_fx, classic_fx, "Fix16 diverged at {w}x{h}");
        }
    }

    /// Streams `plan` at widths on both sides of every tile boundary of the
    /// stencil kernel, at heights below and above its tap count, on 1–3
    /// threads, and compares every output bit with the two-pass planner.
    fn assert_tile_boundaries_match<S: Sample>(plan: &PipelinePlan, params: ToneMapParams) {
        let streaming = StreamingToneMapper::<S>::compile(plan.clone(), params).unwrap();
        let two_pass = ToneMapper::compile(plan.clone(), params).unwrap();
        let taps = streaming.kernel().len();
        let widths = [
            1,
            TILE - 1,
            TILE,
            TILE + 1,
            2 * TILE - 1,
            2 * TILE,
            2 * TILE + 1,
            200,
        ];
        for width in widths {
            for height in [taps / 2, taps + 4] {
                let hdr = SceneKind::SunAndShadow.generate(width, height, 11);
                let expected = two_pass.map_luminance_hw_blur::<S>(&hdr);
                for threads in 1..=3 {
                    let streamed = streaming.clone().with_threads(threads);
                    assert_eq!(
                        bits(&streamed.map_luminance(&hdr)),
                        bits(&expected),
                        "{taps}-tap plan diverged at {width}x{height}, {threads} thread(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn stencil_tiles_are_bit_identical_to_two_pass_at_every_boundary() {
        let paper = ToneMapParams::paper_default();
        let mut three_tap = paper;
        three_tap.blur.radius = 1;
        let basedetail = PipelinePlan::preset("basedetail", &paper, &PlanTuning::default())
            .unwrap()
            .unwrap();
        for (plan, params) in [
            (PipelinePlan::from_params(&paper), paper),
            (PipelinePlan::from_params(&three_tap), three_tap),
            (basedetail, paper),
        ] {
            assert_tile_boundaries_match::<f32>(&plan, params);
            assert_tile_boundaries_match::<Fix16>(&plan, params);
        }
    }

    #[test]
    fn nan_pixels_are_sanitized_like_the_reference() {
        let mut hdr = SceneKind::WindowInDarkRoom.generate(24, 24, 4);
        hdr.set(3, 3, f32::NAN);
        hdr.set(10, 20, f32::INFINITY);
        let classic = ToneMapper::new(params()).map_luminance_f32(&hdr);
        let streaming = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
        assert!(streaming.pixels().iter().all(|v| v.is_finite()));
        assert_eq!(streaming, classic);
    }

    #[test]
    fn kernel_is_quantised_once_at_construction() {
        let mapper = StreamingToneMapper::<Fix16>::new(params());
        assert_eq!(
            mapper.kernel(),
            quantize_kernel::<Fix16>(&gaussian_kernel(&params().blur)).as_slice()
        );
        assert_eq!(mapper.kernel().len(), params().blur.taps());
    }

    #[test]
    fn try_new_rejects_invalid_parameters() {
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = 0;
        assert_eq!(
            StreamingToneMapper::<f32>::try_new(p),
            Err(ParamError::ZeroBlurRadius)
        );
    }

    #[test]
    fn thread_count_is_clamped_to_at_least_one() {
        let mapper = StreamingToneMapper::<f32>::new(params()).with_threads(0);
        assert_eq!(mapper.threads(), 1);
    }

    #[test]
    fn paper_plan_fuses_and_reports_so() {
        let mapper = StreamingToneMapper::<f32>::new(params());
        assert!(mapper.decision().is_fused());
        assert!(mapper.decision().is_streamed());
        assert!(mapper.decision().reasons().is_empty());
        assert!(mapper.decision().barriers().is_empty());
        assert!(mapper.decision().to_string().contains("fused"));
    }

    #[test]
    fn point_only_plans_fuse_and_match_the_two_pass_planner() {
        let hdr = SceneKind::SunAndShadow.generate(31, 22, 8);
        for preset in ["reinhard", "gamma", "log"] {
            let plan = PipelinePlan::preset(
                preset,
                &ToneMapParams::paper_default(),
                &PlanTuning::default(),
            )
            .unwrap()
            .unwrap();
            let streaming =
                StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                    .unwrap();
            assert!(streaming.decision().is_fused(), "{preset} must fuse");
            assert!(streaming.kernel().is_empty(), "{preset} has no stencil");
            let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            assert_eq!(streaming.map_luminance(&hdr), expected, "{preset} diverged");
            // Point-only plans slice rows across threads too, identically.
            for threads in [3, 8, 64] {
                let sliced = streaming.clone().with_threads(threads);
                assert_eq!(
                    sliced.map_luminance(&hdr),
                    expected,
                    "{preset} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn two_stencil_plans_fuse_into_one_cascade_bit_identical_to_two_pass() {
        let plan = two_stencil_plan();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        assert_eq!(streaming.decision(), StreamingDecision::FullyFused);
        assert!(streaming.decision().is_fused());
        // kernel() reports the *first* region's (radius-3) kernel.
        assert_eq!(streaming.kernel().len(), 7);
        let two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default()).unwrap();
        for (w, h) in [(20, 14), (1, 9), (9, 1), (2, 2), (33, 5)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 2);
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            for threads in [1, 2, 8] {
                assert_eq!(
                    streaming.clone().with_threads(threads).map_luminance(&hdr),
                    expected,
                    "diverged at {w}x{h}, {threads} threads"
                );
            }
        }
        // The fixed-point cascade matches the fixed-point two-pass too.
        let hdr = SceneKind::SunAndShadow.generate(27, 19, 13);
        let streaming_fx =
            StreamingToneMapper::<Fix16>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let two_pass_fx = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming_fx.map_luminance(&hdr),
            two_pass_fx.map_luminance_hw_blur::<Fix16>(&hdr)
        );
    }

    #[test]
    fn basedetail_preset_fuses_fully_and_matches_two_pass() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let streaming = StreamingToneMapper::<Fix16>::compile(plan.clone(), params).unwrap();
        assert!(streaming.decision().is_fused());
        assert_eq!(streaming.kernel().len(), params.blur.taps());
        let hdr = SceneKind::MemorialComposite.generate(32, 24, 17);
        let two_pass = ToneMapper::compile(plan, params).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<Fix16>(&hdr)
        );
    }

    #[test]
    fn histogram_reduction_segments_the_plan_instead_of_blocking_it() {
        let hdr = SceneKind::WindowInDarkRoom.generate(29, 18, 6);
        let plan = PipelinePlan::preset(
            "histeq",
            &ToneMapParams::paper_default(),
            &PlanTuning::default(),
        )
        .unwrap()
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert!(!decision.is_fused());
        assert!(decision.is_streamed());
        assert!(decision.reasons().is_empty());
        assert_eq!(
            decision.barriers(),
            [StreamBarrier {
                index: 1,
                op: PipelineOpKind::HistogramEq,
            }]
        );
        assert!(decision.to_string().contains("barrier"));
        // Segmented streaming executes the plan identically to the
        // two-pass planner.
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<f32>(&hdr)
        );
    }

    #[test]
    fn mid_plan_barriers_split_the_cascade_and_stay_bit_identical() {
        // Stencils on *both* sides of the barrier: segment 0 is the paper
        // chain, segment 1 re-blurs and re-masks the equalized register.
        let blur = BlurParams {
            sigma: 1.5,
            radius: 3,
        };
        let masking = MaskingParams::paper_default();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::BlurMask {
                blur,
                invert_input: false,
            },
            PipelineOp::Mask(masking),
            PipelineOp::Adjust(AdjustParams::paper_default()),
        ])
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert!(decision.is_streamed());
        assert_eq!(
            decision.barriers(),
            [StreamBarrier {
                index: 3,
                op: PipelineOpKind::HistogramEq,
            }]
        );
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        for (w, h) in [(26, 21), (1, 12), (12, 1), (3, 3)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 5);
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            for threads in [1, 2, 8] {
                assert_eq!(
                    streaming.clone().with_threads(threads).map_luminance(&hdr),
                    expected,
                    "diverged at {w}x{h}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn masks_straddling_a_barrier_fall_back_with_a_reason() {
        // The mask blurred at stage 1 is consumed at stage 3, *after* the
        // barrier at stage 2 — the one remaining non-streamable shape.
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 1.5,
                    radius: 3,
                },
                invert_input: true,
            },
            PipelineOp::HistogramEq { bins: 32 },
            PipelineOp::Mask(MaskingParams::paper_default()),
        ])
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert!(!decision.is_fused());
        assert!(!decision.is_streamed());
        assert_eq!(
            decision.reasons(),
            [FusionBlocker::MaskAcrossBarrier {
                producer: 1,
                barrier: 2,
            }]
        );
        assert_eq!(decision.reasons()[0].stage_index(), 2);
        assert!(decision.to_string().contains("materialized"));
        // The fallback still executes the plan, identically to the
        // two-pass planner.
        let hdr = SceneKind::WindowInDarkRoom.generate(22, 17, 6);
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<f32>(&hdr)
        );
    }

    #[test]
    fn fused_custom_plans_with_prolog_ops_match_the_two_pass_planner() {
        // A gamma curve *before* the blur exercises the first region's
        // point chain (fused into the producer side of its line buffer).
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::Gamma { gamma: 0.8 },
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 2.0,
                    radius: 4,
                },
                invert_input: true,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
            PipelineOp::Adjust(AdjustParams::paper_default()),
        ])
        .unwrap();
        let hdr = SceneKind::MemorialComposite.generate(26, 33, 11);
        for threads in [1, 4] {
            let streaming =
                StreamingToneMapper::<Fix16>::compile(plan.clone(), ToneMapParams::paper_default())
                    .unwrap()
                    .with_threads(threads);
            assert!(streaming.decision().is_fused());
            let two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap()
                .map_luminance_hw_blur::<Fix16>(&hdr);
            assert_eq!(streaming.map_luminance(&hdr), two_pass);
        }
    }

    #[test]
    fn colour_plans_stream_bit_identical_to_two_pass_at_any_thread_count() {
        let p = params();
        let tuning = PlanTuning::default();
        let hdr = SceneKind::SunAndShadow.generate_rgb(41, 27, 9);
        for name in [
            "hsv-reinhard",
            "filmic",
            "aces",
            "drago",
            "pq-out",
            "hlg-out",
        ] {
            let plan = PipelinePlan::preset(name, &p, &tuning).unwrap().unwrap();
            let reference = ToneMapper::compile(plan.clone(), p)
                .unwrap()
                .map_rgb_hw_blur::<Fix16>(&hdr)
                .unwrap();
            for threads in [1, 2, 8] {
                let streaming = StreamingToneMapper::<Fix16>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .map_rgb(&hdr)
                    .unwrap();
                assert_eq!(streaming, reference, "{name} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn composed_wrapper_plans_stream_bit_identical_to_two_pass() {
        // The explicit extract → plan → reapply composition streams its
        // embedded scalar sub-plan through the compiled cascade.
        let p = params();
        let plan = PipelinePlan::from_params(&p).compose_for_rgb();
        let hdr = SceneKind::MemorialComposite.generate_rgb(33, 29, 4);
        let reference = ToneMapper::compile(plan.clone(), p)
            .unwrap()
            .map_rgb_hw_blur::<Fix16>(&hdr)
            .unwrap();
        for threads in [1, 2, 8] {
            let mapper = StreamingToneMapper::<Fix16>::compile(plan.clone(), p).unwrap();
            assert!(mapper.decision().is_fused());
            assert!(!mapper.kernel().is_empty());
            let streaming = mapper.with_threads(threads).map_rgb(&hdr).unwrap();
            assert_eq!(streaming, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn scalar_plans_take_the_classic_wrapper_path_through_map_rgb() {
        let p = params();
        let hdr = SceneKind::GradientRamp.generate_rgb(24, 18, 6);
        let streaming = StreamingToneMapper::<f32>::new(p).map_rgb(&hdr).unwrap();
        let classic = ToneMapper::new(p).map_rgb_hw_blur::<f32>(&hdr).unwrap();
        assert_eq!(streaming, classic);
    }

    #[test]
    fn colour_barrier_indices_offset_into_the_outer_plan() {
        // histeq composed for rgb: [extract, normalize, histogram-eq,
        // reapply] — the barrier sits at local index 1 of the sub-plan,
        // global index 2 of the outer plan.
        let p = params();
        let plan = PipelinePlan::preset("histeq", &p, &PlanTuning::default())
            .unwrap()
            .unwrap()
            .compose_for_rgb();
        let mapper = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
        match mapper.decision() {
            StreamingDecision::Segmented { barriers } => {
                assert_eq!(barriers.len(), 1);
                assert_eq!(barriers[0].index, 2);
            }
            other => panic!("expected a segmented colour stream, got {other:?}"),
        }
    }

    #[test]
    fn pure_point_colour_plans_fuse_with_no_kernel() {
        let p = params();
        let plan = PipelinePlan::preset("hsv-reinhard", &p, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let mapper = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
        assert!(mapper.decision().is_fused());
        assert!(mapper.kernel().is_empty());
    }

    /// The name of a compiled point op's variant. The match has no
    /// wildcard, so a new variant does not compile until it is named here;
    /// the test below then needs a plan op for it and a higher count.
    fn variant_name(op: CompiledPointOp) -> &'static str {
        match op {
            CompiledPointOp::Invert => "invert",
            CompiledPointOp::Mask(_) => "mask",
            CompiledPointOp::Adjust { .. } => "adjust",
            CompiledPointOp::Gamma(_) => "gamma",
            CompiledPointOp::LogCurve(_) => "log-curve",
            CompiledPointOp::Reinhard { .. } => "reinhard",
            CompiledPointOp::PqOetf(_) => "pq-oetf",
            CompiledPointOp::PqEotf(_) => "pq-eotf",
            CompiledPointOp::HlgOetf => "hlg-oetf",
            CompiledPointOp::HlgEotf => "hlg-eotf",
            CompiledPointOp::Hable(_) => "hable",
            CompiledPointOp::Aces(_) => "aces",
            CompiledPointOp::Drago(_) => "drago",
        }
    }

    /// A frame with NaN, ±∞, negative and large samples at every residue,
    /// so each poison lands in every column of narrow frames and across
    /// the rows of wide ones.
    fn poisoned_frame(width: usize) -> LuminanceImage {
        LuminanceImage::from_fn(width, 11, |x, y| match (x * 7 + y * 3) % 11 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.5 - x as f32 * 0.37,
            4 => 250.0 + y as f32,
            _ => ((x * 13 + y * 29) % 97) as f32 * 0.0173,
        })
    }

    fn bits(image: &LuminanceImage) -> Vec<u32> {
        image.pixels().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_point_op_runs_op_major_bit_identical_to_two_pass() {
        let masking = MaskingParams::paper_default();
        let mask = PipelineOp::Mask(masking);
        let blur = PipelineOp::BlurMask {
            blur: BlurParams {
                sigma: 1.5,
                radius: 3,
            },
            invert_input: true,
        };
        // Strong enough that the exponent 2^(±strength·(1 − 2·mask))
        // underflows to 0 (inverted convention) or overflows to +∞ (direct
        // convention) across the normalized frames, so the special-case
        // lanes of the kernel run on both planners.
        let saturating = |invert_mask| {
            PipelineOp::Mask(MaskingParams {
                strength: 200.0,
                invert_mask,
            })
        };
        let ops = [
            PipelineOp::Invert,
            mask,
            saturating(true),
            saturating(false),
            PipelineOp::Adjust(AdjustParams::paper_default()),
            PipelineOp::Gamma { gamma: 0.8 },
            PipelineOp::LogCurve { scale: 40.0 },
            PipelineOp::Reinhard {
                key: 0.6,
                white: 1.5,
            },
            PipelineOp::PqOetf { peak_nits: 1000.0 },
            PipelineOp::PqEotf { peak_nits: 1000.0 },
            PipelineOp::HlgOetf,
            PipelineOp::HlgEotf,
            PipelineOp::Hable { exposure: 4.0 },
            PipelineOp::Aces { exposure: 1.5 },
            PipelineOp::Drago { bias: 0.85 },
        ];
        let covered: std::collections::BTreeSet<&str> = ops
            .iter()
            .map(|op| variant_name(CompiledPointOp::from_op(op)))
            .collect();
        assert_eq!(covered.len(), 13, "one plan op per compiled variant");

        // Widths on either side of the kernel's lane block, and a partial
        // last block.
        let lanes = crate::fmath::LANES;
        let frames: Vec<LuminanceImage> = [1, 7, 15, 16, 17, lanes - 1, lanes, lanes + 1, 1023]
            .map(poisoned_frame)
            .into();
        let p = ToneMapParams::paper_default();
        for op in ops {
            // Where the op runs: alone in a point-only pass (a mask needs a
            // stencil, so it has none), in the first region's chain, in a
            // later region's chain against the upstream mask, and in the
            // epilog against the last region's mask.
            let shapes = if matches!(op, PipelineOp::Mask(_)) {
                vec![
                    ("region chain", vec![blur, op, blur, mask]),
                    ("epilog", vec![blur, op]),
                ]
            } else {
                vec![
                    ("point-only", vec![op]),
                    ("prolog", vec![op, blur, mask]),
                    ("region chain", vec![blur, op, mask, blur, mask]),
                    ("epilog", vec![blur, op, mask]),
                ]
            };
            for (shape, body) in shapes {
                // With a leading normalize the poisons are sanitized and
                // clamped; without one, negatives and large values reach
                // the op itself.
                for normalize in [true, false] {
                    let mut stages = if normalize {
                        vec![PipelineOp::Normalize]
                    } else {
                        Vec::new()
                    };
                    stages.extend(body.iter().copied());
                    let plan = PipelinePlan::new(stages).unwrap();
                    let two_pass = ToneMapper::compile(plan.clone(), p).unwrap();
                    let streaming = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
                    assert!(streaming.decision().is_fused());
                    for frame in &frames {
                        let expected = bits(&two_pass.map_luminance_hw_blur::<f32>(frame));
                        for threads in [1, 3] {
                            let got = streaming.clone().with_threads(threads).map_luminance(frame);
                            assert!(
                                bits(&got) == expected,
                                "{} as {shape} (normalize {normalize}) diverged at width {}, \
                                 {threads} threads",
                                variant_name(CompiledPointOp::from_op(&op)),
                                frame.width(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scalar-input plan")]
    fn map_luminance_panics_on_colour_plans() {
        let p = params();
        let plan = PipelinePlan::preset("hsv-reinhard", &p, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let hdr = SceneKind::GradientRamp.generate(8, 8, 1);
        let _ = StreamingToneMapper::<f32>::compile(plan, p)
            .unwrap()
            .map_luminance(&hdr);
    }
}
