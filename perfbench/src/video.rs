//! `video`: an open loop of four streams — more than the two workers —
//! each delivering 640×360 frames at a fixed frame rate through
//! `open_stream` + `submit_frame` with a leaky temporal spec.
//!
//! Work here is ordered per stream (shard pin, turn gate, a staged copy of
//! every frame, the session mutex) instead of being made of independent
//! jobs, a path `serve` never takes. Each stream plays seeded clips of
//! [`CLIP_FRAMES`] frames back to back, opening a fresh stream per clip,
//! and every delivered frame must equal a locally driven `VideoSession`
//! on the same clip, in order, with cuts exactly at the generated frames.

use crate::report::{frame_hash, note, setups_at_pause, spec_key, Run, Setups};
use crate::rng::{below, seeded};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::Config;
use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tonemap_service::{
    FrameHandle, FrameSequenceRequest, ServiceConfig, TonemapService, VideoStreamHandle,
};
use tonemap_video::VideoSession;

/// Frame size.
pub const SIZE: (usize, usize) = (640, 360);
/// Concurrent streams.
pub const STREAMS: usize = 4;
/// Frames per second of every stream.
pub const FPS: f64 = 10.0;
/// Frames per clip; each clip is a fresh stream.
pub const CLIP_FRAMES: usize = 24;
/// The temporal spec every stream opens with.
pub const SPEC: &str = "sw-f32-stream?temporal=leaky&tau=4";
/// Worker threads of the service under test.
const WORKERS: usize = 2;

/// When frame `round` of stream `stream` is captured, from the start of
/// the window. Streams are spread evenly across the frame period, as
/// free-running cameras are; capturing in phase would hand each worker two
/// frames per period and make every latency percentile straddle the gap
/// between the first and the second.
pub fn frame_due(round: usize, stream: usize) -> Duration {
    Duration::from_secs_f64((round as f64 + stream as f64 / STREAMS as f64) / FPS)
}

/// One stream's clip and what the oracle says about it.
struct Clip {
    frames: Vec<LuminanceImage>,
    /// The generated scene cut, if the clip has one.
    cut: Option<usize>,
    /// Output hash of each frame from a locally driven session.
    hashes: Vec<u64>,
    /// Local `VideoSession::process` time of each frame, in ms.
    process_ms: Vec<f64>,
}

/// Scene of each stream. Fixed, like the sequence kinds, so seeds change
/// the generated content and the cut position but not the per-frame cost
/// mix.
const SCENES: [SceneKind; STREAMS] = [
    SceneKind::WindowInDarkRoom,
    SceneKind::SunAndShadow,
    SceneKind::MemorialComposite,
    SceneKind::GradientRamp,
];

/// The seeded (sequence, scene, scene seed) of each stream's clip. Stream
/// `s` plays kind `s % 3`, so every kind plays.
pub fn clip_plan(seed: u64) -> Vec<(SequenceKind, SceneKind, u64)> {
    let mut rng = seeded(seed, 5);
    SCENES
        .iter()
        .enumerate()
        .map(|(s, &scene)| {
            let kind = match s % 3 {
                0 => SequenceKind::ExposureRamp { decades: 1.0 },
                1 => SequenceKind::Pan {
                    pixels_per_frame: 4,
                },
                _ => SequenceKind::RampWithCut {
                    decades: 1.0,
                    cut_at: 6 + below(&mut rng, CLIP_FRAMES - 12),
                },
            };
            (kind, scene, rng.next_u64())
        })
        .collect()
}

/// Generates the clips and runs the local-session oracle over each.
fn clips(seed: u64) -> Vec<Clip> {
    let (w, h) = SIZE;
    clip_plan(seed)
        .into_iter()
        .map(|(kind, scene, scene_seed)| {
            let sequence = FrameSequence::new(kind, scene, w, h, CLIP_FRAMES, scene_seed);
            let frames: Vec<LuminanceImage> = sequence.frames().collect();
            let mut session =
                VideoSession::from_spec(SPEC).expect("the workload's temporal spec is valid");
            let mut hashes = Vec::new();
            let mut process_ms = Vec::new();
            for frame in &frames {
                let t = Instant::now();
                let (output, _) = session.process(frame);
                process_ms.push(t.elapsed().as_secs_f64() * 1e3);
                hashes.push(frame_hash(output.pixels()));
            }
            Clip {
                frames,
                cut: sequence.cut_frame(),
                hashes,
                process_ms,
            }
        })
        .collect()
}

/// A submitted frame on its way to the collector.
struct Sent {
    handle: FrameHandle,
    stream: usize,
    round: usize,
    due: Instant,
    span: u64,
}

/// What the collector saw for one frame.
struct Seen {
    stream: usize,
    round: usize,
    latency_ms: f64,
    observed: Instant,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let clips = clips(cfg.seed);
    let mut out = Run::default();
    let (w, h) = SIZE;
    let config = ServiceConfig::with_workers(WORKERS).queue_capacity(256);

    // Set-up: a fresh service, one stream, its first frame delivered. The
    // first set-up builds the service under test; the others run in pauses
    // of the loop at clip boundaries, once every frame in flight is
    // delivered, and the pauses are taken out of the window.
    let mut setups = Setups::default();
    let set_up = |setups: &mut Setups, problems: &mut Vec<String>| {
        let (fresh, first) = setups.time(
            || TonemapService::standard(config),
            |service| {
                service
                    .open_stream(FrameSequenceRequest::on_backend(SPEC))
                    .and_then(|mut stream| stream.submit_frame(&clips[0].frames[0]))
                    .and_then(FrameHandle::wait)
            },
        );
        match first {
            Ok(o) if frame_hash(o.output.pixels()) == clips[0].hashes[0] => {}
            Ok(_) => note(problems, "video: set-up frame differs"),
            Err(e) => note(problems, format!("video: set-up frame failed: {e}")),
        }
        fresh
    };
    let service = set_up(&mut setups, &mut out.problems);

    let rounds = (cfg.seconds * FPS).floor().max(1.0) as usize;
    let frames_before = service.stats().frames_completed;
    let origin = Instant::now();
    let mut generator = Tracer::new(cfg.traced, origin, 0);
    let mut lateness = Vec::with_capacity(rounds * STREAMS);
    let mut submitted = 0u64;
    let pauses = (rounds - 1) / CLIP_FRAMES;
    let mut paused = Duration::ZERO;
    let settled = AtomicU64::new(0);
    let (seen, collector_spans, collector_failed, collector_problems) = std::thread::scope(
        |scope| {
            let (tx, rx) = mpsc::channel::<Sent>();
            let clips = &clips;
            let settled = &settled;
            let traced = cfg.traced;
            let collector = scope.spawn(move || {
                let mut tracer = Tracer::new(traced, origin, 1);
                let mut seen = Vec::new();
                let mut failed = 0u64;
                let mut problems = Vec::new();
                let mut last_seq: Vec<Option<u64>> = vec![None; STREAMS];
                for sent in rx {
                    let result = sent.handle.wait();
                    let observed = Instant::now();
                    tracer.record_as(sent.span, "video.frame", None, sent.due, observed);
                    let clip = &clips[sent.stream];
                    let k = sent.round % CLIP_FRAMES;
                    match result {
                        Ok(outcome) => {
                            // Dequeue stamps restart with every clip's stream.
                            let in_order = outcome.metrics.index == k
                                && (k == 0
                                    || last_seq[sent.stream].is_none_or(|s| outcome.dequeue_seq > s));
                            last_seq[sent.stream] = Some(outcome.dequeue_seq);
                            let cut_ok = outcome.metrics.scene_cut == (clip.cut == Some(k));
                            let same = frame_hash(outcome.output.pixels()) == clip.hashes[k];
                            if in_order && cut_ok && same {
                                seen.push(Seen {
                                    stream: sent.stream,
                                    round: sent.round,
                                    latency_ms: observed.saturating_duration_since(sent.due).as_secs_f64()
                                        * 1e3,
                                    observed,
                                });
                            } else {
                                failed += 1;
                                note(&mut problems, format!(
                                    "video: stream {} frame {k}: in order {in_order}, cut as generated {cut_ok}, equals local session {same}",
                                    sent.stream
                                ));
                            }
                        }
                        Err(e) => {
                            failed += 1;
                            note(&mut problems, format!("video: frame failed: {e}"));
                        }
                    }
                    settled.fetch_add(1, Ordering::Release);
                }
                (seen, tracer.into_spans(), failed, problems)
            });

            let mut streams: Vec<Option<VideoStreamHandle<'_>>> =
                (0..STREAMS).map(|_| None).collect();
            for round in 0..rounds {
                let k = round % CLIP_FRAMES;
                let reps = if k == 0 && round > 0 {
                    setups_at_pause(cfg.setup_reps - 1, pauses, round / CLIP_FRAMES)
                } else {
                    0
                };
                if reps > 0 {
                    let t = Instant::now();
                    streams.iter_mut().for_each(|slot| drop(slot.take()));
                    while settled.load(Ordering::Acquire) < submitted {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    for _ in 0..reps {
                        drop(set_up(&mut setups, &mut out.problems));
                    }
                    paused += t.elapsed();
                }
                for (s, slot) in streams.iter_mut().enumerate() {
                    let due = origin + paused + frame_due(round, s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if k == 0 {
                        drop(slot.take());
                        let t = Instant::now();
                        match service.open_stream(FrameSequenceRequest::on_backend(SPEC)) {
                            Ok(stream) => *slot = Some(stream),
                            Err(e) => {
                                note(&mut out.problems, format!("video: open_stream failed: {e}"))
                            }
                        }
                        generator.record("video.open_stream", None, t, Instant::now());
                    }
                    let span = generator.reserve();
                    let t_submit = Instant::now();
                    lateness.push(t_submit.saturating_duration_since(due).as_secs_f64() * 1e3);
                    let Some(stream) = slot.as_mut() else {
                        out.failed += 1;
                        continue;
                    };
                    let result = stream.submit_frame(&clips[s].frames[k]);
                    generator.record("service.submit_frame", Some(span), t_submit, Instant::now());
                    match result {
                        Ok(handle) => {
                            submitted += 1;
                            tx.send(Sent {
                                handle,
                                stream: s,
                                round,
                                due,
                                span,
                            })
                            .expect("the collector outlives the generator");
                        }
                        Err(e) => {
                            out.failed += 1;
                            note(
                                &mut out.problems,
                                format!("video: submit_frame failed: {e}"),
                            );
                        }
                    }
                }
            }
            drop(streams);
            drop(tx);
            collector
                .join()
                .expect("the collector thread does not panic")
        },
    );
    out.failed += collector_failed;
    out.problems.extend(collector_problems);
    out.attempted = (rounds * STREAMS) as u64;
    let last = seen.iter().map(|s| s.observed).max().unwrap_or(origin);
    out.window_s = (last - origin).saturating_sub(paused).as_secs_f64();

    let frames_done = service.stats().frames_completed - frames_before;
    if frames_done != submitted {
        note(
            &mut out.problems,
            format!("video: {submitted} frames submitted but {frames_done} completed"),
        );
    }
    out.lateness_p90_ms = Some(percentile(&lateness, 90.0));

    let latencies: Vec<f64> = seen.iter().map(|s| s.latency_ms).collect();
    let megapixels = (w * h) as f64 / 1e6;
    let e2e = &mut out.end_to_end;
    e2e.push(
        "mpx_per_s",
        seen.len() as f64 * megapixels / out.window_s,
        "Mpx/s",
    );
    e2e.push("latency_mean_ms", mean(&latencies), "ms");
    e2e.push("setup_s", median(&setups.total_s), "s");
    // Reported, not gated: see `still.latency_p50_ms`.
    out.per_layer
        .push("video.latency_p50_ms", percentile(&latencies, 50.0), "ms");
    out.per_layer
        .push("video.latency_p90_ms", percentile(&latencies, 90.0), "ms");

    let mut spans = generator.into_spans();
    spans.extend(collector_spans);
    out.spans = spans;
    if cfg.traced {
        let process: Vec<f64> = clips.iter().flat_map(|c| c.process_ms.clone()).collect();
        let order_wait: Vec<f64> = seen
            .iter()
            .map(|s| s.latency_ms - clips[s.stream].process_ms[s.round % CLIP_FRAMES])
            .collect();
        let layers = &mut out.per_layer;
        layers.push("video.process_ms_p50", median(&process), "ms");
        layers.push("video.order_wait_ms_p50", median(&order_wait), "ms");
        layers.push(
            format!("backend.cold_call_ms.{}", spec_key(SPEC, SIZE)),
            median(&setups.cold_ms),
            "ms",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_plan_is_deterministic_and_plays_every_kind() {
        let plan = clip_plan(9);
        assert_eq!(plan, clip_plan(9));
        let kinds = |plan: &[(SequenceKind, SceneKind, u64)]| {
            let mut k: Vec<u8> = plan
                .iter()
                .map(|(kind, _, _)| match kind {
                    SequenceKind::ExposureRamp { .. } => 0,
                    SequenceKind::Pan { .. } => 1,
                    SequenceKind::RampWithCut { .. } => 2,
                    SequenceKind::Static => 3,
                })
                .collect();
            k.sort_unstable();
            k.dedup();
            k
        };
        for seed in 0..8 {
            assert_eq!(kinds(&clip_plan(seed)), vec![0, 1, 2]);
        }
        assert!((0..8).any(|seed| clip_plan(seed) != plan));
    }
}
