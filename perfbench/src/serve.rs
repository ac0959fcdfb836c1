//! `serve`: an open loop of seeded Poisson arrivals into a 2-worker
//! `TonemapService` through `try_submit`.
//!
//! Two classes share the pool. Interactive jobs are small raw frames
//! (160×120, well inside a core's L2) cycling three cheap specs; batch
//! jobs are frames at two sizes larger than L2 cycling the fixed-point
//! engines and a scheduler-resolved two-stencil plan. On small jobs the
//! per-job layers — admission, shard queue and steal, the registry's
//! resolved-spec memo, `FramePool` staging and recycling — take a large
//! share of the time. Every response must equal a direct
//! `BackendRegistry::execute` of the same (input, spec) pair.

use crate::report::{frame_hash, note, spec_key, Metrics, Run};
use crate::rng::{poisson_arrivals, seeded};
use crate::stats::{mean, median, percentile};
use crate::trace::{durations_ms, Tracer};
use crate::Config;
use hdr_image::synth::SceneKind;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tonemap_backend::{BackendRegistry, TonemapRequest, TonemapResponse};
use tonemap_core::PipelinePlan;
use tonemap_scheduler::Scheduler;
use tonemap_service::{
    JobHandle, JobOutcomeResult, JobRequest, Priority, ServiceConfig, TonemapService,
};

/// Worker threads of the service under test.
pub const WORKERS: usize = 2;
/// Queue bound: deep enough that a burst arriving while both workers run
/// batch jobs queues instead of being refused.
const QUEUE_CAPACITY: usize = 4096;
/// Interactive frame size.
pub const INTERACTIVE_SIZE: (usize, usize) = (160, 120);
/// Interactive specs, cycled in arrival order.
pub const INTERACTIVE_SPECS: [&str; 3] = [
    "sw-f32-stream",
    "sw-f32-stream?pipeline=reinhard",
    "sw-f32?schedule=auto",
];
/// Batch frame sizes: two shapes of one pixel count (2.4 MB of `f32`,
/// larger than a 2 MiB L2), so a spec costs the same at either size and
/// the batch median does not fall between two size modes.
pub const BATCH_SIZES: [(usize, usize); 2] = [(1024, 576), (768, 768)];
/// Batch specs, cycled in arrival order.
pub const BATCH_SPECS: [&str; 3] = [
    "hw-fix16-stream",
    "hw-fix16",
    "sw-f32?pipeline=basedetail&schedule=auto",
];
/// Interactive arrivals per second.
pub const INTERACTIVE_RATE: f64 = 200.0;
/// Batch arrivals per second.
pub const BATCH_RATE: f64 = 0.5;
/// How long before an arrival is due the generator stops sleeping and
/// spins, so a late wake-up does not delay the submission.
const SPIN_AHEAD: Duration = Duration::from_micros(700);
/// Longest the generator sleeps between two sweeps of the outstanding
/// handles, which bounds how late a batch completion is observed.
const MAX_SLEEP: Duration = Duration::from_millis(2);
/// Distinct interactive frames.
const INTERACTIVE_INPUTS: usize = 6;

/// One arrival of the seeded schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds from the start of the window.
    pub due_s: f64,
    /// Priority class.
    pub class: Priority,
    /// Index into the class's spec list.
    pub spec: usize,
    /// Index into the class's inputs.
    pub input: usize,
}

impl Arrival {
    fn spec_str(&self) -> &'static str {
        match self.class {
            Priority::Interactive => INTERACTIVE_SPECS[self.spec],
            Priority::Batch => BATCH_SPECS[self.spec],
        }
    }
}

/// The seeded arrival schedule of a `seconds`-long window: each class's
/// Poisson arrivals, merged in time order. Within a class, specs cycle
/// and inputs advance every full spec cycle, so every (input, spec) pair
/// recurs.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = seeded(seed, 2);
    let interactive = poisson_arrivals(&mut rng, INTERACTIVE_RATE, seconds);
    let batch = poisson_arrivals(&mut rng, BATCH_RATE, seconds);
    let tag = |class: Priority, inputs: usize| {
        move |(n, &due_s): (usize, &f64)| Arrival {
            due_s,
            class,
            spec: n % 3,
            input: (n / 3) % inputs,
        }
    };
    let mut all: Vec<Arrival> = interactive
        .iter()
        .enumerate()
        .map(tag(Priority::Interactive, INTERACTIVE_INPUTS))
        .chain(
            batch
                .iter()
                .enumerate()
                .map(tag(Priority::Batch, BATCH_SIZES.len())),
        )
        .collect();
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    all
}

/// A raw frame shared by every job that submits it.
struct Input {
    size: (usize, usize),
    pixels: Arc<Vec<f32>>,
}

/// The seeded inputs of both classes.
struct Inputs {
    interactive: Vec<Input>,
    batch: Vec<Input>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = seeded(seed, 3);
        let mut frame = |kind: SceneKind, (w, h): (usize, usize)| Input {
            size: (w, h),
            pixels: Arc::new(kind.generate(w, h, rng.next_u64()).into_vec()),
        };
        let interactive = (0..INTERACTIVE_INPUTS)
            .map(|i| frame(SceneKind::ALL[i % SceneKind::ALL.len()], INTERACTIVE_SIZE))
            .collect();
        let batch = BATCH_SIZES
            .iter()
            .enumerate()
            .map(|(j, &size)| frame(SceneKind::ALL[(j + 2) % SceneKind::ALL.len()], size))
            .collect();
        Inputs { interactive, batch }
    }

    fn get(&self, class: Priority, input: usize) -> &Input {
        match class {
            Priority::Interactive => &self.interactive[input],
            Priority::Batch => &self.batch[input],
        }
    }

    fn job(&self, a: &Arrival) -> JobRequest {
        let input = self.get(a.class, a.input);
        let (w, h) = input.size;
        JobRequest::raw_luminance(w, h, Arc::clone(&input.pixels))
            .on_backend(a.spec_str())
            .with_priority(a.class)
            .with_telemetry()
    }

    /// Every (class, input, spec) combination the schedule can produce.
    fn pairs(&self) -> Vec<Arrival> {
        let mut pairs = Vec::new();
        for (class, inputs) in [
            (Priority::Interactive, self.interactive.len()),
            (Priority::Batch, self.batch.len()),
        ] {
            for input in 0..inputs {
                for spec in 0..3 {
                    pairs.push(Arrival {
                        due_s: 0.0,
                        class,
                        spec,
                        input,
                    });
                }
            }
        }
        pairs
    }
}

type PairKey = (Priority, usize, usize);

fn key(a: &Arrival) -> PairKey {
    (a.class, a.input, a.spec)
}

fn output_hash(response: &TonemapResponse) -> Option<u64> {
    response.luminance().map(|image| frame_hash(image.pixels()))
}

/// Oracle: each pair executed directly on a fresh registry.
fn oracle(inputs: &Inputs) -> BTreeMap<PairKey, u64> {
    let registry = BackendRegistry::standard();
    inputs
        .pairs()
        .iter()
        .map(|a| {
            let input = inputs.get(a.class, a.input);
            let (w, h) = input.size;
            let response = registry
                .execute(
                    &TonemapRequest::raw_luminance(w, h, &input.pixels).on_backend(a.spec_str()),
                )
                .expect("the direct reference accepts every workload pair");
            let hash = output_hash(&response).expect("luminance jobs answer with luminance");
            (key(a), hash)
        })
        .collect()
}

fn new_service() -> TonemapService {
    TonemapService::standard(ServiceConfig::with_workers(WORKERS).queue_capacity(QUEUE_CAPACITY))
}

/// Cold-call pairs: every spec at every size of its class.
fn cold_pairs() -> Vec<Arrival> {
    let mut pairs = Vec::new();
    for spec in 0..3 {
        pairs.push(Arrival {
            due_s: 0.0,
            class: Priority::Interactive,
            spec,
            input: 0,
        });
        for input in 0..BATCH_SIZES.len() {
            pairs.push(Arrival {
                due_s: 0.0,
                class: Priority::Batch,
                spec,
                input,
            });
        }
    }
    pairs
}

/// What the poll loop knows about one submitted job.
struct Pending {
    handle: Option<JobHandle>,
    arrival: Arrival,
    span: u64,
}

/// What the generator has observed of completed jobs, and what it checks
/// them against.
struct Tally<'a> {
    origin: Instant,
    oracle: &'a BTreeMap<PairKey, u64>,
    inputs: &'a Inputs,
    service: &'a TonemapService,
    /// Per class: (latency from due time, engine wall time), in ms.
    done: BTreeMap<Priority, Vec<(f64, f64)>>,
    delivered_px: usize,
    last_observed: Option<Instant>,
    mismatches: u64,
    /// Upper bound, per job, on how long it sat complete before the
    /// generator saw it, in ms.
    observe_lag_ms: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

impl Tally<'_> {
    /// Records one completion, checks it against the oracle and recycles
    /// the response's frame.
    fn complete(
        &mut self,
        p: &Pending,
        result: JobOutcomeResult,
        lag_bound_ms: f64,
        tracer: &mut Tracer,
    ) {
        let observed = Instant::now();
        let a = p.arrival;
        let due = self.origin + Duration::from_secs_f64(a.due_s);
        tracer.record_as(p.span, "serve.job", None, due, observed);
        self.observe_lag_ms.push(lag_bound_ms);
        match result {
            Ok(response) => {
                // Only responses that match the oracle count towards the
                // figures, so a job that fails fast cannot improve them.
                if output_hash(&response) == Some(self.oracle[&key(&a)]) {
                    let ms = observed.saturating_duration_since(due).as_secs_f64() * 1e3;
                    let exec_ms = response
                        .telemetry()
                        .map_or(f64::NAN, |t| t.wall.as_secs_f64() * 1e3);
                    self.done.entry(a.class).or_default().push((ms, exec_ms));
                    let (w, h) = self.inputs.get(a.class, a.input).size;
                    self.delivered_px += w * h;
                    self.last_observed = Some(observed);
                } else {
                    self.mismatches += 1;
                }
                self.service.recycle(response);
            }
            Err(e) => {
                self.failed += 1;
                note(&mut self.problems, format!("serve: job failed: {e}"));
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let inputs = Inputs::new(cfg.seed);
    let oracle = oracle(&inputs);
    let schedule = schedule(cfg.seed, cfg.seconds);
    let mut out = Run::default();

    // Set-up: a fresh service, then the first response of every
    // (spec, size) pair, one at a time so each cold call is timed alone.
    let mut setups = Vec::new();
    let mut cold: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut service = None;
    for _ in 0..cfg.setup_reps {
        drop(service.take());
        let t0 = Instant::now();
        let fresh = new_service();
        for a in cold_pairs() {
            let t1 = Instant::now();
            let result = fresh.try_submit(inputs.job(&a)).and_then(JobHandle::wait);
            let ms = t1.elapsed().as_secs_f64() * 1e3;
            let size = inputs.get(a.class, a.input).size;
            cold.entry(spec_key(a.spec_str(), size))
                .or_default()
                .push(ms);
            match result {
                Ok(response) => {
                    if output_hash(&response) != Some(oracle[&key(&a)]) {
                        note(
                            &mut out.problems,
                            format!("serve: set-up output of {} differs", a.spec_str()),
                        );
                    }
                    fresh.recycle(response);
                }
                Err(e) => note(&mut out.problems, format!("serve: set-up job failed: {e}")),
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        service = Some(fresh);
    }
    let service = service.expect("at least one set-up repetition");

    let before = service.stats();
    let pool_before = service.frame_pool_stats();
    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin, 0);
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut accepted = 0u64;
    let mut lateness = Vec::with_capacity(schedule.len());
    let mut tally = Tally {
        origin,
        oracle: &oracle,
        inputs: &inputs,
        service: &service,
        done: BTreeMap::new(),
        delivered_px: 0,
        last_observed: None,
        mismatches: 0,
        observe_lag_ms: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let mut last_pass = origin;
    loop {
        let now_s = origin.elapsed().as_secs_f64();
        while next < schedule.len() && schedule[next].due_s <= now_s {
            let a = schedule[next];
            next += 1;
            let span = tracer.reserve();
            if cfg.traced {
                let t = Instant::now();
                let resolved = service.registry().resolve_spec(a.spec_str());
                tracer.record("backend.resolve", Some(span), t, Instant::now());
                if let Err(e) = resolved {
                    note(&mut out.problems, format!("serve: resolve failed: {e}"));
                }
            }
            let t_submit = Instant::now();
            lateness.push(((t_submit - origin).as_secs_f64() - a.due_s).max(0.0) * 1e3);
            let submitted = service.try_submit(inputs.job(&a));
            tracer.record("service.submit", Some(span), t_submit, Instant::now());
            match submitted {
                Ok(handle) => {
                    accepted += 1;
                    pending.push(Pending {
                        handle: Some(handle),
                        arrival: a,
                        span,
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    note(
                        &mut out.problems,
                        format!("serve: refused at the door: {e}"),
                    );
                }
            }
        }

        // Sweep every outstanding handle without blocking. A job found
        // done here finished at most one sweep ago.
        let pass = Instant::now();
        let since_last_pass_ms = (pass - last_pass).as_secs_f64() * 1e3;
        last_pass = pass;
        let mut i = 0;
        while i < pending.len() {
            let handle = pending[i]
                .handle
                .take()
                .expect("pending jobs hold their handle");
            match handle.wait_timeout(Duration::ZERO) {
                Err(handle) => {
                    pending[i].handle = Some(handle);
                    i += 1;
                }
                Ok(result) => {
                    let p = pending.swap_remove(i);
                    tally.complete(&p, result, since_last_pass_ms, &mut tracer);
                }
            }
        }
        if next >= schedule.len() && pending.is_empty() {
            break;
        }

        // While an interactive job is outstanding or an arrival is close,
        // spin instead of sleeping: on a small virtual machine a sleeping
        // thread can take milliseconds to be woken, which would land in
        // the latencies of millisecond jobs. Yielding on every turn hands
        // the core to a worker whenever one is runnable. Otherwise sleep,
        // so the generator does not take cores from batch jobs.
        let interactive_out = pending
            .iter()
            .any(|p| p.arrival.class == Priority::Interactive);
        if !interactive_out {
            let until_due = schedule.get(next).map_or(MAX_SLEEP, |a| {
                Duration::from_secs_f64((a.due_s - origin.elapsed().as_secs_f64()).max(0.0))
            });
            if let Some(nap) = until_due.checked_sub(SPIN_AHEAD) {
                std::thread::sleep(nap.min(MAX_SLEEP));
            }
        }
        std::thread::yield_now();
    }
    let Tally {
        done,
        delivered_px,
        last_observed,
        mismatches,
        observe_lag_ms,
        failed,
        problems,
        ..
    } = tally;
    out.failed += failed;
    out.problems.extend(problems);
    out.window_s = last_observed.map_or(0.0, |t| (t - origin).as_secs_f64());
    out.attempted = schedule.len() as u64;
    out.failed += mismatches;
    if mismatches > 0 {
        note(
            &mut out.problems,
            format!("serve: {mismatches} responses differ from a direct registry execute"),
        );
    }

    let after = service.stats();
    let pool_after = service.frame_pool_stats();
    let settled = after.completed + after.failed + after.expired + after.lost;
    if after.submitted != settled || after.submitted - before.submitted != accepted {
        note(&mut out.problems, format!(
            "serve: counters do not reconcile: submitted {} (+{} in the window, {accepted} accepted), \
             completed {} + failed {} + expired {} + lost {}",
            after.submitted,
            after.submitted - before.submitted,
            after.completed,
            after.failed,
            after.expired,
            after.lost
        ));
    }
    out.lateness_p90_ms = Some(percentile(&lateness, 90.0));

    // Percentile `p` of one component of a class's (latency, exec) pairs.
    let class_ms = |class, p, pick: fn(&(f64, f64)) -> f64| {
        let values: Vec<f64> = done
            .get(&class)
            .map_or(Vec::new(), |v| v.iter().map(pick).collect());
        percentile(&values, p)
    };
    let latency = |pair: &(f64, f64)| pair.0;
    let e2e = &mut out.end_to_end;
    e2e.push(
        "mpx_per_s",
        delivered_px as f64 / 1e6 / out.window_s,
        "Mpx/s",
    );
    let interactive: Vec<f64> = done
        .get(&Priority::Interactive)
        .map_or(Vec::new(), |v| v.iter().map(latency).collect());
    e2e.push("latency_mean_ms", mean(&interactive), "ms");
    e2e.push(
        "batch_p50_ms",
        class_ms(Priority::Batch, 50.0, latency),
        "ms",
    );
    e2e.push("setup_s", median(&setups), "s");
    // Reported, not gated: see `still.latency_p50_ms`.
    out.per_layer.push(
        "serve.latency_p50_ms",
        class_ms(Priority::Interactive, 50.0, latency),
        "ms",
    );
    out.per_layer.push(
        "serve.latency_p90_ms",
        class_ms(Priority::Interactive, 90.0, latency),
        "ms",
    );
    out.per_layer.push(
        "serve.batch_p50_ms",
        class_ms(Priority::Batch, 50.0, latency),
        "ms",
    );

    out.spans = tracer.into_spans();
    if cfg.traced {
        let layers: &mut Metrics = &mut out.per_layer;
        let resolve_us: Vec<f64> = durations_ms(&out.spans, "backend.resolve")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.push("backend.resolve_us_p50", median(&resolve_us), "us");
        for (name, ms) in &cold {
            layers.push(format!("backend.cold_call_ms.{name}"), median(ms), "ms");
        }
        let (resolve_ms, considered) = scheduler_probe();
        layers.push("scheduler.cold_resolve_ms", resolve_ms, "ms");
        layers.push("scheduler.considered", considered, "count");
        for class in [Priority::Interactive, Priority::Batch] {
            // Queue wait: client latency minus the engine's own wall time.
            layers.push(
                format!("service.queue_wait_ms_p50.{}", class.label()),
                class_ms(class, 50.0, |(l, e)| l - e),
                "ms",
            );
            layers.push(
                format!("service.exec_ms_p50.{}", class.label()),
                class_ms(class, 50.0, |&(_, e)| e),
                "ms",
            );
        }
        let busy = after.busy_seconds - before.busy_seconds;
        layers.push(
            "service.utilisation",
            busy / (WORKERS as f64 * out.window_s),
            "fraction",
        );
        let done = (after.completed - before.completed).max(1);
        layers.push(
            "service.steal_frac",
            (after.steals - before.steals) as f64 / done as f64,
            "fraction",
        );
        let acquired = (pool_after.acquired - pool_before.acquired).max(1);
        layers.push(
            "service.staging_reuse_frac",
            (pool_after.reused - pool_before.reused) as f64 / acquired as f64,
            "fraction",
        );
        layers.push(
            "gen.observe_lag_ms_p90",
            percentile(&observe_lag_ms, 90.0),
            "ms",
        );
    }
    out
}

/// The `schedule=auto` pricing a cold call pays: for every
/// scheduler-resolved (spec, size) pair of the workload, the time to
/// enumerate and price the plan's schedule space at that size, summed,
/// and the number of points priced, summed.
fn scheduler_probe() -> (f64, f64) {
    let registry = BackendRegistry::standard();
    let engine = registry
        .get("sw-f32")
        .expect("the standard registry has sw-f32");
    let class = engine
        .schedule_class()
        .expect("sw-f32 advertises a schedule class");
    let params = engine.params();
    let auto_pairs = [
        (INTERACTIVE_SPECS[2], INTERACTIVE_SIZE),
        (BATCH_SPECS[2], BATCH_SIZES[0]),
        (BATCH_SPECS[2], BATCH_SIZES[1]),
    ];
    let mut resolve_ms = 0.0;
    let mut considered = 0;
    for (spec, (w, h)) in auto_pairs {
        let resolved = registry
            .resolve_spec(spec)
            .expect("the workload's specs resolve");
        let plan = resolved
            .pipeline_plan()
            .cloned()
            .unwrap_or_else(|| PipelinePlan::from_params(&params));
        let t = Instant::now();
        let report = Scheduler::new(params, class)
            .expect("the registry's parameters are valid")
            .schedule(&plan, w, h);
        resolve_ms += t.elapsed().as_secs_f64() * 1e3;
        considered += report.ranked.len();
    }
    (resolve_ms, considered as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_covers_every_pair() {
        let a = schedule(5, 4.0);
        assert_eq!(a, schedule(5, 4.0));
        assert_ne!(a, schedule(6, 4.0));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let interactive = a
            .iter()
            .filter(|x| x.class == Priority::Interactive)
            .count();
        let batch = a.len() - interactive;
        assert_eq!(interactive, (INTERACTIVE_RATE * 4.0).round() as usize);
        assert_eq!(batch, (BATCH_RATE * 4.0).round() as usize);
        let pairs: std::collections::BTreeSet<PairKey> = a
            .iter()
            .filter(|x| x.class == Priority::Interactive)
            .map(key)
            .collect();
        assert_eq!(pairs.len(), 3 * INTERACTIVE_INPUTS);
    }
}
