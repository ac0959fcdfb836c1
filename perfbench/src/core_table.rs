//! The `core` ablation table: single-thread nanoseconds per pixel at
//! 1024×768 for the executors and stage functions of `tonemap-core`,
//! against the two in-process references — the two-pass planner and a
//! memory floor (a plain `map` over the frame).

use crate::report::Metrics;
use crate::stats::{median, relative_iqr};
use apfixed::Fix16;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tonemap_core::blur::{blur_horizontal, blur_vertical, gaussian_kernel, quantize_kernel};
use tonemap_core::normalize::normalize;
use tonemap_core::{
    BlurParams, PipelinePlan, PlanTuning, StreamingToneMapper, ToneMapParams, ToneMapper,
};

/// Frame size of the table.
pub const SIZE: (usize, usize) = (1024, 768);
/// Each row repeats until it has this many samples and this much time.
const MIN_REPS: usize = 3;
const MIN_TIME: Duration = Duration::from_millis(400);

/// One measured row: median ns/px and the relative IQR of its samples.
struct Row {
    name: &'static str,
    ns_px: f64,
    spread: Option<f64>,
}

fn measure(name: &'static str, pixels: usize, mut f: impl FnMut()) -> Row {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || start.elapsed() < MIN_TIME {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e9 / pixels as f64);
    }
    Row {
        name,
        ns_px: median(&samples),
        spread: relative_iqr(&samples),
    }
}

fn streaming(preset: &str, params: ToneMapParams) -> StreamingToneMapper<f32> {
    let plan = PipelinePlan::preset(preset, &params, &PlanTuning::default())
        .expect("preset tuning is the default")
        .expect("the preset exists");
    StreamingToneMapper::compile(plan, params).expect("paper parameters are valid")
}

/// Measures the table on a seeded scene, prints it to stderr and returns
/// its rows as per-layer metrics.
pub fn run(seed: u64) -> Metrics {
    let (w, h) = SIZE;
    let pixels = w * h;
    let image: LuminanceImage = SceneKind::WindowInDarkRoom.generate(w, h, seed);
    let paper = ToneMapParams::paper_default();
    let mut three_tap = paper;
    three_tap.blur = BlurParams {
        sigma: paper.blur.sigma,
        radius: 1,
    };
    let kernel = quantize_kernel::<f32>(&gaussian_kernel(&paper.blur));
    let normalized = normalize(&image);

    let two_pass = ToneMapper::new(paper);
    let stream = StreamingToneMapper::<f32>::new(paper);
    let stream_3tap = StreamingToneMapper::<f32>::new(three_tap);
    let point_chain = streaming("gamma", paper);
    let reinhard = streaming("reinhard", paper);
    let fix16 = StreamingToneMapper::<Fix16>::new(paper);

    let rows = [
        measure("floor", pixels, || {
            black_box(black_box(&image).map(|&v| v * 0.5));
        }),
        measure("two_pass", pixels, || {
            black_box(two_pass.map_luminance_f32(black_box(&image)));
        }),
        measure("stream", pixels, || {
            black_box(stream.map_luminance(black_box(&image)));
        }),
        measure("stream_3tap", pixels, || {
            black_box(stream_3tap.map_luminance(black_box(&image)));
        }),
        measure("point_chain", pixels, || {
            black_box(point_chain.map_luminance(black_box(&image)));
        }),
        measure("reinhard", pixels, || {
            black_box(reinhard.map_luminance(black_box(&image)));
        }),
        measure("normalize", pixels, || {
            black_box(normalize(black_box(&image)));
        }),
        measure("h_pass", pixels, || {
            black_box(blur_horizontal(black_box(&normalized), &kernel));
        }),
        measure("v_pass", pixels, || {
            black_box(blur_vertical(black_box(&normalized), &kernel));
        }),
        measure("fix16_stream", pixels, || {
            black_box(fix16.map_luminance(black_box(&image)));
        }),
    ];

    let ns = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_px)
            .expect("row exists")
    };
    let (floor, two) = (ns("floor"), ns("two_pass"));
    eprintln!("core ablation, 1 thread, {w}x{h} (ns/px; x floor; share of two-pass; IQR/median)");
    for row in &rows {
        eprintln!(
            "  {:<14} {:>9.2} {:>9.1}x {:>7.3} {:>7}",
            row.name,
            row.ns_px,
            row.ns_px / floor,
            row.ns_px / two,
            row.spread.map_or("-".into(), |s| format!("{s:.3}")),
        );
    }
    let ranking = [
        "floor",
        "reinhard",
        "point_chain",
        "stream_3tap",
        "stream",
        "two_pass",
    ];
    let ranked = ranking.windows(2).all(|p| ns(p[0]) < ns(p[1]));
    eprintln!("  ranking {} holds: {ranked}", ranking.join(" < "));

    let profile = PipelinePlan::paper_default().profile(w, h, 1).total();
    let ops = profile.adds + profile.muls + profile.divs + profile.pows + profile.compares;
    let bytes = (profile.loads + profile.stores) * std::mem::size_of::<f32>() as u64;

    let mut metrics = Metrics::default();
    for row in &rows {
        metrics.push(format!("core.{}_ns_px", row.name), row.ns_px, "ns/px");
    }
    metrics.push("core.stream_over_floor", ns("stream") / floor, "ratio");
    metrics.push("core.two_pass_over_stream", two / ns("stream"), "ratio");
    metrics.push(
        "core.ops_per_px",
        ops as f64 / pixels as f64,
        "computed-ops",
    );
    metrics.push(
        "core.bytes_per_px",
        bytes as f64 / pixels as f64,
        "computed-B",
    );
    metrics
}
