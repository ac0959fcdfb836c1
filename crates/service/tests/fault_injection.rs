//! Fault-injection suite: a worker-side panic must be contained to the
//! one job that caused it.
//!
//! `PanickingBackend` unwinds from inside `run_luminance`, which is the
//! worst place to fail: past admission, past staging, mid-execution on a
//! worker thread. The service must (a) keep the worker alive and every
//! other queued job serviceable, (b) report the panicked job as
//! [`ServiceError::Lost`] — never hang the waiter, (c) drop the staging
//! frame the panicking engine may have been reading instead of recycling
//! it, and (d) keep the lifecycle counters reconciled:
//! `completed + failed + expired + lost == submitted`, always.

mod harness;

use harness::{within, Gate, WATCHDOG};
use hdr_image::synth::SceneKind;
use std::sync::Arc;
use std::time::Duration;
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_service::{JobRequest, ServiceConfig, ServiceError, TonemapService};

fn faulty_service(workers: usize) -> (TonemapService, Arc<Gate>) {
    let gate = Gate::new();
    let registry = harness::harness_registry(&gate);
    let config = ServiceConfig::with_workers(workers).queue_capacity(32);
    (TonemapService::new(registry, config), gate)
}

#[test]
fn a_panicking_job_does_not_lose_other_shards_jobs() {
    within(WATCHDOG, || {
        let (service, _gate) = faulty_service(2);
        let scene = SceneKind::WindowInDarkRoom.generate(24, 24, 41);
        let direct = BackendRegistry::standard()
            .execute(&TonemapRequest::luminance(&scene))
            .unwrap();

        // The faulty job lands on shard 0; six healthy jobs across both shards.
        let doomed = service
            .submit(
                JobRequest::luminance(scene.clone())
                    .on_backend("panicking")
                    .from_submitter(0),
            )
            .unwrap();
        let healthy: Vec<_> = (0..6u64)
            .map(|shard| {
                service
                    .submit(JobRequest::luminance(scene.clone()).from_submitter(shard % 2))
                    .unwrap()
            })
            .collect();

        assert!(matches!(doomed.wait(), Err(ServiceError::Lost)));
        for (index, handle) in healthy.into_iter().enumerate() {
            let response = handle.wait().unwrap_or_else(|e| {
                panic!("healthy job {index} must survive the panic, got {e:?}")
            });
            assert_eq!(
                response.payload(),
                direct.payload(),
                "job {index} stayed bit-correct"
            );
        }

        let stats = service.stats();
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert_eq!(
            stats.completed + stats.failed + stats.expired + stats.lost,
            stats.submitted,
            "lifecycle counters reconcile: {stats:?}"
        );
        assert_eq!(stats.in_flight, 0);

        // The pool is still fully serviceable after the panic.
        let again = service
            .submit(JobRequest::luminance(scene.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(again.payload(), direct.payload());
    });
}

#[test]
fn a_panic_poisons_the_staging_frame_not_the_pool() {
    within(WATCHDOG, || {
        // A raw-luminance job stages its pixels through the frame pool before
        // the engine runs. If the engine panics mid-job, that staging frame is
        // in unknown shape — it must be dropped (counted `dropped_poisoned`),
        // never recycled back into the free list.
        let (service, _gate) = faulty_service(1);
        let scene = SceneKind::WindowInDarkRoom.generate(16, 16, 42);
        let pixels: Arc<Vec<f32>> = Arc::new(scene.pixels().to_vec());
        let direct = BackendRegistry::standard()
            .execute(&TonemapRequest::luminance(&scene))
            .unwrap();

        let doomed = service
            .submit(JobRequest::raw_luminance(16, 16, Arc::clone(&pixels)).on_backend("panicking"))
            .unwrap();
        assert!(matches!(doomed.wait(), Err(ServiceError::Lost)));
        let pool = service.frame_pool_stats();
        assert_eq!(pool.acquired, 1, "the doomed job staged through the pool");
        assert_eq!(pool.dropped_poisoned, 1, "the staging frame was poisoned");
        assert_eq!(
            pool.recycled, 0,
            "a poisoned frame must not re-enter the pool"
        );

        // The next raw job of the same size cannot reuse the poisoned frame —
        // it allocates fresh — and its output is bit-correct.
        let response = service
            .submit(JobRequest::raw_luminance(16, 16, Arc::clone(&pixels)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.payload(), direct.payload());
        let pool = service.frame_pool_stats();
        assert_eq!(pool.acquired, 2);
        assert_eq!(
            pool.reused, 0,
            "nothing to reuse: the only prior frame was poisoned"
        );

        // Recycling a *healthy* response restores steady-state reuse.
        service.recycle(response);
        let response = service
            .submit(JobRequest::raw_luminance(16, 16, pixels))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.payload(), direct.payload());
        let pool = service.frame_pool_stats();
        assert_eq!(
            pool.reused, 1,
            "the recycled healthy frame is reused: {pool:?}"
        );

        let stats = service.stats();
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.completed, 2);
    });
}

#[test]
fn lifecycle_counters_reconcile_across_every_outcome() {
    within(WATCHDOG, || {
        // One of each fate in a single service: completed, failed (typed
        // error), expired (dead on dequeue), lost (panic), rejected (queue
        // full), shed (admission). The gate parks the single worker so the
        // queue composition is exact, with capacity sized to make the last
        // try_submit the one that overflows.
        let (service, gate) = faulty_service(1);
        let scene = SceneKind::GradientRamp.generate(16, 16, 43);

        let parked = service
            .submit(JobRequest::luminance(scene.clone()).on_backend("gated"))
            .unwrap();
        gate.wait_for_arrivals(1); // worker parked; queue is empty

        let expired = service
            .submit(JobRequest::luminance(scene.clone()).with_deadline(Duration::ZERO))
            .unwrap();
        let lost = service
            .submit(JobRequest::luminance(scene.clone()).on_backend("panicking"))
            .unwrap();
        let failed = service
            .submit(JobRequest::luminance(scene.clone()).on_backend("no-such-engine"))
            .unwrap();
        let completed = service
            .submit(JobRequest::luminance(scene.clone()))
            .unwrap();

        gate.release(1);
        assert!(parked.wait().is_ok());
        assert!(matches!(
            expired.wait(),
            Err(ServiceError::Tonemap(
                tonemap_backend::TonemapError::DeadlineExceeded { .. }
            ))
        ));
        assert!(matches!(lost.wait(), Err(ServiceError::Lost)));
        assert!(matches!(failed.wait(), Err(ServiceError::Tonemap(_))));
        assert!(completed.wait().is_ok());

        // With the queue drained, park nothing: overload the 1-slot... the
        // queue is capacity 32 here, so force the remaining two outcomes
        // directly: shed via a calibrated-unmeetable budget, rejected via a
        // deliberately shrunken service.
        service.calibrate_admission(0.250);
        assert!(matches!(
            service.submit(
                JobRequest::luminance(scene.clone()).with_deadline(Duration::from_millis(1))
            ),
            Err(ServiceError::DeadlineUnmeetable { .. })
        ));

        let stats = service.stats();
        assert_eq!(stats.submitted, 5, "shed jobs never count as submitted");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(
            stats.completed + stats.failed + stats.expired + stats.lost,
            stats.submitted,
            "every admitted job reports exactly one fate: {stats:?}"
        );
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        // The per-class histograms only see completions.
        let recorded: u64 = stats.latency_interactive.count() + stats.latency_batch.count();
        assert_eq!(recorded, stats.completed);
    });
}
