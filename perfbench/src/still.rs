//! `still`: a closed loop with one caller and no service. Each call
//! decodes a 1024×768 PFM held in memory and tone-maps it on
//! `sw-f32-stream` (the paper's 41-tap plan) into 8-bit output.
//!
//! The `core` point chain and stencil do almost all the work here; the
//! `service`, `scheduler` and `video` layers do none. Every output must be
//! bit-identical to the two-pass `sw-f32` engine on the same input.

use crate::report::{note, spec_key, Metrics, Run, Setups};
use crate::rng::seeded;
use crate::stats::{mean, median, percentile};
use crate::trace::{durations_ms, self_time_by_name, Tracer};
use crate::Config;
use hdr_image::io::{read_pfm, write_pfm};
use hdr_image::synth::SceneKind;
use rand::Rng;
use std::time::{Duration, Instant};
use tonemap_backend::{BackendRegistry, OutputKind, TonemapRequest, TonemapResponse};

/// Frame size of every input.
pub const SIZE: (usize, usize) = (1024, 768);
/// The engine under test.
pub const SPEC: &str = "sw-f32-stream";
/// The two-pass reference the streaming output must match bit for bit.
const ORACLE_SPEC: &str = "sw-f32";

/// Decodes and tone-maps one input.
fn call(registry: &BackendRegistry, pfm: &[u8]) -> Result<TonemapResponse, String> {
    let image = read_pfm(pfm).map_err(|e| e.to_string())?;
    let request = TonemapRequest::luminance(&image)
        .on_backend(SPEC)
        .with_output(OutputKind::Ldr8);
    registry.execute(&request).map_err(|e| e.to_string())
}

/// The same call with a span around each layer it enters: `decode`, then
/// the registry's two steps (`backend.resolve`, `backend.execute`) that
/// `BackendRegistry::execute` performs in one.
fn traced_call(
    registry: &BackendRegistry,
    pfm: &[u8],
    tracer: &mut Tracer,
) -> Result<TonemapResponse, String> {
    let id = tracer.reserve();
    let t0 = Instant::now();
    let image = read_pfm(pfm).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    tracer.record("decode", Some(id), t0, t1);
    let resolved = registry.resolve_spec(SPEC).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    tracer.record("backend.resolve", Some(id), t1, t2);
    let request = TonemapRequest::luminance(&image)
        .on_backend(SPEC)
        .with_output(OutputKind::Ldr8);
    let response = resolved.execute(&request).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    tracer.record("backend.execute", Some(id), t2, t3);
    tracer.record_as(id, "still.call", None, t0, t3);
    Ok(response)
}

/// The 8-bit pixels of a response, when it carries 8-bit luminance.
fn ldr_pixels(response: &TonemapResponse) -> Option<&[u8]> {
    response.ldr_luminance().map(|image| image.pixels())
}

/// The seeded inputs: one scene of every [`SceneKind`], PFM-encoded.
pub fn inputs(seed: u64) -> Vec<Vec<u8>> {
    let (width, height) = SIZE;
    let mut rng = seeded(seed, 1);
    SceneKind::ALL
        .iter()
        .map(|kind| {
            let image = kind.generate(width, height, rng.next_u64());
            let mut bytes = Vec::new();
            write_pfm(&image, &mut bytes).expect("PFM encoding into memory cannot fail");
            bytes
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let inputs = inputs(cfg.seed);
    let oracle_registry = BackendRegistry::standard();
    let oracle: Vec<Vec<u8>> = inputs
        .iter()
        .map(|pfm| {
            let image = read_pfm(&pfm[..]).expect("the oracle decodes its own encoding");
            let response = oracle_registry
                .execute(
                    &TonemapRequest::luminance(&image)
                        .on_backend(ORACLE_SPEC)
                        .with_output(OutputKind::Ldr8),
                )
                .expect("the two-pass reference accepts every input");
            ldr_pixels(&response)
                .expect("8-bit output was requested")
                .to_vec()
        })
        .collect();
    drop(oracle_registry);

    let mut out = Run::default();
    // Set-up: build the registry and take the first response. The first
    // set-up builds the registry under test; the others are spread through
    // the window with its clock stopped.
    let mut setups = Setups::default();
    let set_up = |setups: &mut Setups, problems: &mut Vec<String>| {
        let (fresh, first) = setups.time(BackendRegistry::standard, |r| call(r, &inputs[0]));
        if first.as_ref().ok().and_then(ldr_pixels) != Some(&oracle[0][..]) {
            note(
                problems,
                "still: the set-up call's output differs from its oracle",
            );
        }
        fresh
    };
    let registry = set_up(&mut setups, &mut out.problems);

    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin, 0);
    let window = Duration::from_secs_f64(cfg.seconds);
    let setup_every = window / cfg.setup_reps as u32;
    // Time spent in calls: the window's clock, stopped during set-ups.
    let mut busy = Duration::ZERO;
    let mut next_setup = setup_every;
    // Only calls whose output matches the oracle count towards the
    // figures, so a call that fails fast cannot improve them.
    let mut latencies = Vec::new();
    let mut mismatches = 0u64;
    while busy < window {
        if cfg.setup_reps > 1 && busy >= next_setup {
            drop(set_up(&mut setups, &mut out.problems));
            next_setup += setup_every;
        }
        let k = (out.attempted % inputs.len() as u64) as usize;
        out.attempted += 1;
        let start = Instant::now();
        let result = if cfg.traced {
            traced_call(&registry, &inputs[k], &mut tracer)
        } else {
            call(&registry, &inputs[k])
        };
        let elapsed = start.elapsed();
        busy += elapsed;
        let ms = elapsed.as_secs_f64() * 1e3;
        match result {
            Ok(response) if ldr_pixels(&response) == Some(&oracle[k][..]) => latencies.push(ms),
            Ok(_) => mismatches += 1,
            Err(error) => {
                out.failed += 1;
                note(&mut out.problems, format!("still: call failed: {error}"));
            }
        }
    }
    out.window_s = busy.as_secs_f64();
    out.failed += mismatches;
    if mismatches > 0 {
        note(
            &mut out.problems,
            format!("still: {mismatches} outputs differ from two-pass sw-f32"),
        );
    }

    let (width, height) = SIZE;
    let megapixels = (width * height) as f64 / 1e6;
    let e2e = &mut out.end_to_end;
    e2e.push(
        "mpx_per_s",
        latencies.len() as f64 * megapixels / out.window_s,
        "Mpx/s",
    );
    e2e.push("latency_mean_ms", mean(&latencies), "ms");
    e2e.push("setup_s", median(&setups.total_s), "s");
    // The reference host runs a busy thread at one of two speeds about
    // 1.4× apart, switching every second or so. The p50 jumps between
    // the two as their shares cross one half, and the p90 follows the
    // host's scheduling hiccups, so both are reported, not gated.
    out.per_layer
        .push("still.latency_p50_ms", percentile(&latencies, 50.0), "ms");
    out.per_layer
        .push("still.latency_p90_ms", percentile(&latencies, 90.0), "ms");

    out.spans = tracer.into_spans();
    if cfg.traced {
        let by_name = self_time_by_name(&out.spans);
        let self_ns = |name: &str| by_name.get(name).map_or(0, |&(_, ns)| ns) as f64;
        let calls_ns: f64 = out
            .spans
            .iter()
            .filter(|s| s.name == "still.call")
            .map(|s| s.duration_ns() as f64)
            .sum();
        let layers: &mut Metrics = &mut out.per_layer;
        layers.push(
            "decode.ms_p50",
            median(&durations_ms(&out.spans, "decode")),
            "ms",
        );
        layers.push("decode.share", self_ns("decode") / calls_ns, "fraction");
        layers.push(
            "backend.execute_ms_p50",
            median(&durations_ms(&out.spans, "backend.execute")),
            "ms",
        );
        layers.push(
            format!("backend.cold_call_ms.{}", spec_key(SPEC, SIZE)),
            median(&setups.cold_ms),
            "ms",
        );
    }
    out
}
