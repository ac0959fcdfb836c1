//! Streaming-engine gate: parity and the line-buffer speedup.
//!
//! The paper's Table I exists because restructuring the blur around a BRAM
//! line buffer (Fig. 4) turns random DDR traffic into a single stream; the
//! `sw-f32-stream` / `hw-fix16-stream` engines apply the same restructuring
//! in software. This gate checks both halves of that claim:
//!
//! * **Parity** — on every synthetic scene (plus degenerate 1×N / N×1
//!   geometries) the streaming engines must match their two-pass
//!   counterparts within 1e-6 for `f32` and within the established Fig. 5
//!   fixed-point tolerance for `Fix16`. (They are in fact bit-identical;
//!   the tolerances are the contract, bit-equality the observed margin.)
//! * **Speed** — at 1024×768 with the paper-default 41-tap kernel, one
//!   *single-threaded* streaming pass must be at least 2× faster than the
//!   two-pass `sw-f32` reference. The run fails (non-zero exit) otherwise.
//!
//! * **Stencil attribution** (reported, not gated) — the same single-thread
//!   pass with a 3-tap blur. The difference between the 41-tap and the
//!   3-tap ns/pixel is the stencil premium: what the cascade's 38 extra
//!   taps per pass cost.
//!
//! The measured seconds, speedup ratios and ns/pixel figures are persisted
//! to `BENCH_streaming.json` in the working directory.
//!
//! ```text
//! cargo run -p bench --release --bin streaming    # CI=true trims iterations
//! ```

use bench::{json, write_bench_json};
use hdr_image::metrics::psnr;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::time::Instant;
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_core::{StreamingToneMapper, ToneMapParams, ToneMapper};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
const REQUIRED_SPEEDUP: f64 = 2.0;

fn max_abs_diff(a: &LuminanceImage, b: &LuminanceImage) -> f32 {
    a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

fn parity_checks() {
    let registry = BackendRegistry::standard();
    let scenes: Vec<(&str, LuminanceImage)> = vec![
        (
            "window-in-dark-room",
            SceneKind::WindowInDarkRoom.generate(160, 120, 1),
        ),
        (
            "sun-and-shadow",
            SceneKind::SunAndShadow.generate(96, 144, 2),
        ),
        (
            "gradient-ramp",
            SceneKind::GradientRamp.generate(128, 96, 3),
        ),
        (
            "memorial-composite",
            SceneKind::MemorialComposite.generate(112, 112, 4),
        ),
        ("row-image-1xN", SceneKind::GradientRamp.generate(1, 96, 5)),
        (
            "column-image-Nx1",
            SceneKind::GradientRamp.generate(96, 1, 6),
        ),
        ("sub-radius", SceneKind::SunAndShadow.generate(7, 5, 7)),
    ];
    println!("parity of the streaming engines against their two-pass counterparts:");
    for (name, scene) in &scenes {
        let run = |spec: &str| {
            registry
                .execute(&TonemapRequest::luminance(scene).on_backend(spec))
                .expect("standard spec executes")
                .luminance()
                .expect("display-referred payload")
                .clone()
        };
        let f32_diff = max_abs_diff(&run("sw-f32-stream"), &run("sw-f32"));
        assert!(
            f32_diff <= 1e-6,
            "sw-f32-stream diverged from sw-f32 by {f32_diff} on {name}"
        );
        let fix_stream = run("hw-fix16-stream");
        let fix_classic = run("hw-fix16");
        let fix_diff = max_abs_diff(&fix_stream, &fix_classic);
        let fix_psnr = psnr(&fix_classic, &fix_stream, 1.0);
        // The Fig. 5 contract for the fixed-point engine is >= 30 dB against
        // the reference; streaming vs two-pass must be far tighter than that
        // (observed: bit-identical).
        assert!(
            fix_psnr.is_infinite() || fix_psnr > 60.0,
            "hw-fix16-stream diverged from hw-fix16 by {fix_diff} ({fix_psnr:.1} dB) on {name}"
        );
        println!("  {name:<20} f32 max |Δ| = {f32_diff:.1e}   fix16 max |Δ| = {fix_diff:.1e}");
    }
    println!();
}

/// Best-of-N wall time of one closure, in seconds.
fn time_best<F: FnMut()>(iterations: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    parity_checks();

    let ci = std::env::var("CI").is_ok();
    let iterations = if ci { 2 } else { 3 };
    let params = ToneMapParams::paper_default();
    let hdr = SceneKind::WindowInDarkRoom.generate(WIDTH, HEIGHT, 2018);
    println!(
        "speed gate at {WIDTH}x{HEIGHT}, {} taps, best of {iterations} runs:",
        params.blur.taps()
    );

    let two_pass = ToneMapper::new(params);
    let mut sink = 0.0f32;
    let reference_seconds = time_best(iterations, || {
        sink += two_pass.map_luminance_f32(&hdr).pixels()[0];
    });

    let streaming = StreamingToneMapper::<f32>::new(params);
    let streaming_seconds = time_best(iterations, || {
        sink += streaming.map_luminance(&hdr).pixels()[0];
    });

    let mut three_tap_params = params;
    three_tap_params.blur.radius = 1;
    let three_tap = StreamingToneMapper::<f32>::new(three_tap_params);
    let three_tap_seconds = time_best(iterations, || {
        sink += three_tap.map_luminance(&hdr).pixels()[0];
    });

    let threads = tonemap_backend::default_stream_threads();
    let threaded = StreamingToneMapper::<f32>::new(params).with_threads(threads);
    let threaded_seconds = time_best(iterations, || {
        sink += threaded.map_luminance(&hdr).pixels()[0];
    });
    assert!(sink.is_finite(), "outputs must be finite");

    let speedup = reference_seconds / streaming_seconds;
    println!(
        "  {:<30} {reference_seconds:>8.3} s",
        "sw-f32 two-pass reference"
    );
    println!(
        "  {:<30} {streaming_seconds:>8.3} s  ({speedup:.2}x)",
        "streaming, 1 thread"
    );
    println!(
        "  {:<30} {threaded_seconds:>8.3} s  ({:.2}x)",
        format!("streaming, {threads} thread(s)"),
        reference_seconds / threaded_seconds
    );
    println!(
        "  {:<30} {three_tap_seconds:>8.3} s  (stencil premium {:.2} ns/px)",
        "streaming, 1 thread, 3 taps",
        (streaming_seconds - three_tap_seconds) * 1e9 / (WIDTH * HEIGHT) as f64
    );
    println!();
    println!(
        "single-thread streaming speedup over sw-f32: {speedup:.2}x (required >= {REQUIRED_SPEEDUP:.1}x)"
    );

    let pixels = (WIDTH * HEIGHT) as f64;
    let ns_per_pixel = |seconds: f64| json::num(seconds * 1e9 / pixels);
    write_bench_json(
        "streaming",
        &json::obj([
            ("gate", json::string("streaming")),
            ("width", json::num(WIDTH as f64)),
            ("height", json::num(HEIGHT as f64)),
            ("taps", json::num(params.blur.taps() as f64)),
            ("iterations", json::num(iterations as f64)),
            ("two_pass_seconds", json::num(reference_seconds)),
            ("streaming_seconds", json::num(streaming_seconds)),
            ("threaded_seconds", json::num(threaded_seconds)),
            ("threads", json::num(threads as f64)),
            ("single_thread_speedup", json::num(speedup)),
            (
                "threaded_speedup",
                json::num(reference_seconds / threaded_seconds),
            ),
            (
                "ns_per_pixel",
                json::obj([
                    ("two_pass", ns_per_pixel(reference_seconds)),
                    ("streaming", ns_per_pixel(streaming_seconds)),
                    ("threaded", ns_per_pixel(threaded_seconds)),
                    ("streaming_3tap", ns_per_pixel(three_tap_seconds)),
                    (
                        "stencil_premium",
                        ns_per_pixel(streaming_seconds - three_tap_seconds),
                    ),
                ]),
            ),
            ("required_speedup", json::num(REQUIRED_SPEEDUP)),
        ]),
    );

    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "streaming speedup {speedup:.2}x fell below the required {REQUIRED_SPEEDUP:.1}x"
    );
}
