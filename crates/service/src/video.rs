//! Video streams as a service workload: per-stream FIFO frame pipelines
//! over the sharded pool.
//!
//! A [`FrameSequenceRequest`] opens a [`VideoStreamHandle`]: a
//! [`tonemap_video::VideoSession`] owned by the service, fed one frame at
//! a time through the same sharded worker pool that serves single-frame
//! jobs. Three properties distinguish frames from jobs:
//!
//! * **Per-stream FIFO order.** Temporal adaptation is stateful, so frame
//!   `k+1` must observe the integrator state frame `k` left behind. Every
//!   frame of a stream is pinned to the shard `stream_id % shards` (the
//!   same affinity mechanism as [`crate::JobRequest::from_submitter`]), so
//!   frames *dequeue* in submission order. A hand-off inside the frame
//!   task then makes *processing* order unconditional: when a steal
//!   hands frame `k+1` to a second worker while frame `k` still runs, the
//!   second task parks the frame and returns, and the task running frame
//!   `k` processes `k+1` next. No worker ever waits on another frame.
//!   Distinct streams pin to distinct shards and parallelise freely.
//! * **A bounded stream.** A parked frame has left the pool's queue, so
//!   the queue's capacity cannot bound it. The submitter bounds it
//!   instead: [`VideoStreamHandle::submit_frame`] blocks while the stream
//!   already has `queue_capacity` frames submitted but not processed, so
//!   one stream never holds more staged frames than the queue could.
//! * **Separate accounting.** Completed frames count in
//!   [`crate::ServiceStats::frames_completed`], never in the job
//!   counters — frames/sec and jobs/sec stay separately meaningful.
//!
//! Frame staging rides the service's [`crate::FramePool`]: each submitted
//! frame is copied into a recycled buffer which returns to the pool after
//! processing, so a steady-state stream performs no per-frame staging
//! allocations.

use crate::error::ServiceError;
use crate::pool::{PoolError, Priority, Task, TaskFate, TaskOptions};
use crate::service::TonemapService;
use hdr_image::LuminanceImage;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use tonemap_video::{FrameMetrics, StreamSummary, VideoSession};

/// A request to open a temporal tone-mapping stream on the service.
///
/// The spec string carries the full video surface — engine, pipeline,
/// schedule, and the temporal keys (`temporal=leaky&tau=…&cutthresh=…`)
/// that single-frame jobs reject.
#[derive(Debug, Clone)]
#[must_use = "a frame-sequence request does nothing until a stream is opened"]
pub struct FrameSequenceRequest {
    spec: String,
    priority: Priority,
}

impl FrameSequenceRequest {
    /// A stream running the engine and pipeline named by `spec`, e.g.
    /// `"sw-f32?pipeline=reinhard&temporal=leaky&tau=4"`.
    pub fn on_backend(spec: impl Into<String>) -> Self {
        FrameSequenceRequest {
            spec: spec.into(),
            priority: Priority::default(),
        }
    }

    /// Assigns the priority class every frame of the stream submits at.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The backend spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The stream's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// State shared between a stream's handle and its in-flight frame tasks.
struct StreamShared {
    /// The temporal session; locked by exactly one frame task at a time.
    session: Mutex<VideoSession>,
    /// Which frame runs next, and the frames that arrived before their
    /// turn (see [`StreamOrder`]).
    order: Mutex<StreamOrder>,
    /// Signalled whenever `order.next` moves, for the stream's submitter
    /// blocked on its outstanding-frame bound.
    advanced: Condvar,
}

/// The hand-off between a stream's frame tasks. Shard FIFO already
/// dequeues frames in submission order, but a steal can hand frame `k+1`
/// to a second worker while frame `k` still runs. That task parks its
/// frame in `early` and returns at once; the task holding frame `k`
/// processes its successors before it returns. No task ever waits on
/// another.
struct StreamOrder {
    /// Index of the next frame to process; [`FAILED`] once a frame task
    /// panicked.
    next: u64,
    early: BTreeMap<u64, StagedFrame>,
}

/// `StreamOrder::next` of a stream whose session can no longer advance:
/// every pending and later frame reports [`ServiceError::Lost`].
const FAILED: u64 = u64::MAX;

/// A dequeued frame and everything needed to answer for it.
struct StagedFrame {
    pixels: LuminanceImage,
    responder: Sender<Result<VideoFrameOutcome, ServiceError>>,
    dequeue_seq: u64,
    stolen: bool,
}

/// Marks the stream failed when a frame task unwinds: parked frames drop
/// their responders now, later frames on arrival, so no waiter hangs.
struct FailOnUnwind<'a>(&'a StreamShared);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut order = self.0.order.lock().unwrap_or_else(PoisonError::into_inner);
            order.next = FAILED;
            order.early.clear();
            self.0.advanced.notify_one();
        }
    }
}

/// One processed frame of a video stream, as delivered through a
/// [`FrameHandle`].
#[derive(Debug)]
pub struct VideoFrameOutcome {
    /// The tone-mapped display-referred frame.
    pub output: LuminanceImage,
    /// The session's inline stability metrics for this frame.
    pub metrics: FrameMetrics,
    /// The pool's globally monotonic dequeue stamp for this frame's task.
    /// Within one stream (one shard), ascending stamps prove FIFO
    /// dequeue order.
    pub dequeue_seq: u64,
    /// `true` when a worker other than the stream's shard owner popped
    /// the frame.
    pub stolen: bool,
}

/// A handle to one submitted frame: a future-by-channel, like
/// [`crate::JobHandle`] but carrying the frame's metrics and dequeue
/// stamp alongside the image.
#[derive(Debug)]
#[must_use = "dropping a frame handle discards the frame's result"]
pub struct FrameHandle {
    stream: u64,
    index: u64,
    receiver: Receiver<Result<VideoFrameOutcome, ServiceError>>,
}

impl FrameHandle {
    /// The stream this frame belongs to.
    pub fn stream_id(&self) -> u64 {
        self.stream
    }

    /// The frame's zero-based index within its stream.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Blocks until the frame completes.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Lost`] when the executing worker died (task panic)
    /// before reporting, or an earlier frame of the stream did.
    pub fn wait(self) -> Result<VideoFrameOutcome, ServiceError> {
        self.receiver.recv().unwrap_or(Err(ServiceError::Lost))
    }
}

/// An open temporal tone-mapping stream on a [`TonemapService`].
///
/// Frames submitted through the handle execute on the service's worker
/// pool in strict submission order (the stream's shard affinity plus a
/// hand-off between its frame tasks), while frames of *other* streams
/// overlap freely on other workers. Dropping the handle closes the
/// stream; frames already submitted still complete. If a frame task
/// panics, the stream fails: that frame and every later one report
/// [`ServiceError::Lost`].
pub struct VideoStreamHandle<'a> {
    service: &'a TonemapService,
    stream_id: u64,
    priority: Priority,
    shared: Arc<StreamShared>,
    submitted: u64,
}

impl std::fmt::Debug for VideoStreamHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VideoStreamHandle")
            .field("stream_id", &self.stream_id)
            .field("priority", &self.priority)
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl TonemapService {
    /// Opens a video stream: builds the temporal session the request's
    /// spec describes and pins the stream to a queue shard
    /// (`stream_id % shards`) so its frames keep FIFO order while
    /// distinct streams parallelise.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Video`] when the spec does not build a
    /// [`VideoSession`] (unknown engine, invalid spec or parameters, or a
    /// colour-input pipeline).
    pub fn open_stream(
        &self,
        request: FrameSequenceRequest,
    ) -> Result<VideoStreamHandle<'_>, ServiceError> {
        let session = VideoSession::from_spec(request.spec())?;
        let stream_id = self.next_stream.fetch_add(1, Ordering::SeqCst);
        self.stats.record_stream_opened();
        Ok(VideoStreamHandle {
            service: self,
            stream_id,
            priority: request.priority(),
            shared: Arc::new(StreamShared {
                session: Mutex::new(session),
                order: Mutex::new(StreamOrder {
                    next: 0,
                    early: BTreeMap::new(),
                }),
                advanced: Condvar::new(),
            }),
            submitted: 0,
        })
    }
}

impl VideoStreamHandle<'_> {
    /// The service-assigned stream id (also the stream's shard pin,
    /// modulo the shard count).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Frames submitted so far.
    pub fn frames_submitted(&self) -> u64 {
        self.submitted
    }

    /// Submits one frame, blocking while the queue is at capacity
    /// (backpressure on the submitter, as [`TonemapService::submit`]) and
    /// while the stream already has [`TonemapService::queue_capacity`]
    /// frames submitted but not yet processed.
    ///
    /// The pixels are staged through the service's [`crate::FramePool`]
    /// immediately — the caller keeps ownership of `frame` and may reuse
    /// or drop it freely.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShutDown`] after [`TonemapService::shutdown`].
    pub fn submit_frame(&mut self, frame: &LuminanceImage) -> Result<FrameHandle, ServiceError> {
        let index = self.submitted;
        let capacity = self.service.pool.queue_capacity() as u64;
        let order = self.shared.order.lock().expect("stream order poisoned");
        let outstanding =
            |order: &mut StreamOrder| order.next != FAILED && index - order.next >= capacity;
        drop(
            self.shared
                .advanced
                .wait_while(order, outstanding)
                .expect("stream order poisoned"),
        );

        let (width, height) = frame.dimensions();
        let mut staged = self.service.frames.acquire(frame.pixels().len());
        staged.copy_from_slice(frame.pixels());
        let staged = LuminanceImage::from_vec(width, height, staged)
            .expect("staged frame matches the source dimensions");

        let shared = Arc::clone(&self.shared);
        let frames = self.service.frames.clone();
        let stats = Arc::clone(&self.service.stats);
        let (responder, receiver) = mpsc::channel::<Result<VideoFrameOutcome, ServiceError>>();
        let task: Task = Box::new(move |fate| {
            let TaskFate::Execute {
                stolen,
                dequeue_seq,
            } = fate
            else {
                unreachable!("video frames carry no deadline");
            };
            let mut frame = StagedFrame {
                pixels: staged,
                responder,
                dequeue_seq,
                stolen,
            };
            {
                let mut order = shared.order.lock().expect("stream order poisoned");
                if order.next == FAILED {
                    return;
                }
                if order.next != index {
                    order.early.insert(index, frame);
                    return;
                }
            }
            let _fail = FailOnUnwind(&shared);
            loop {
                let poison = frames.poison_guard(frame.pixels.pixels().len());
                let (output, metrics) = shared
                    .session
                    .lock()
                    .expect("video session poisoned")
                    .process(&frame.pixels);
                // A panic inside `process` unwinds past this point with the
                // guard armed: the staged frame is dropped as poisoned, the
                // stream fails, and every pending waiter sees `Lost`.
                poison.disarm();
                frames.recycle(frame.pixels.into_vec());
                stats.record_frame_completed();
                let _ = frame.responder.send(Ok(VideoFrameOutcome {
                    output,
                    metrics,
                    dequeue_seq: frame.dequeue_seq,
                    stolen: frame.stolen,
                }));
                let mut order = shared.order.lock().expect("stream order poisoned");
                order.next += 1;
                shared.advanced.notify_one();
                let next = order.next;
                match order.early.remove(&next) {
                    Some(successor) => frame = successor,
                    None => return,
                }
            }
        });
        let options = TaskOptions {
            priority: self.priority,
            deadline: None,
            shard: Some(self.stream_id as usize),
        };
        match self.service.pool.execute(task, options) {
            Ok(()) => {
                self.submitted += 1;
                Ok(FrameHandle {
                    stream: self.stream_id,
                    index,
                    receiver,
                })
            }
            Err(PoolError::ShutDown) => Err(ServiceError::ShutDown),
            Err(PoolError::QueueFull) => Err(ServiceError::QueueFull),
        }
    }

    /// Returns a delivered output frame to the service's pool, so later
    /// staging acquisitions of the same size allocate nothing.
    pub fn recycle(&self, output: LuminanceImage) {
        self.service.frames.recycle(output.into_vec());
    }

    /// The stream's aggregate stability metrics so far. Blocks briefly if
    /// a frame is mid-processing.
    pub fn summary(&self) -> StreamSummary {
        self.shared
            .session
            .lock()
            .expect("video session poisoned")
            .summary()
    }

    /// Frame indices where the scene-cut detector fired so far.
    pub fn cuts(&self) -> Vec<usize> {
        self.shared
            .session
            .lock()
            .expect("video session poisoned")
            .cuts()
            .to_vec()
    }
}

impl Drop for VideoStreamHandle<'_> {
    fn drop(&mut self) {
        self.service.stats.record_stream_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use hdr_image::sequence::{FrameSequence, SequenceKind};
    use hdr_image::synth::SceneKind;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// [`FrameHandle::wait`] with a bound: a frame that never answers
    /// fails the test instead of hanging it.
    fn wait_within(
        handle: FrameHandle,
        limit: Duration,
    ) -> Result<VideoFrameOutcome, ServiceError> {
        match handle.receiver.recv_timeout(limit) {
            Ok(result) => result,
            Err(RecvTimeoutError::Disconnected) => Err(ServiceError::Lost),
            Err(RecvTimeoutError::Timeout) => panic!(
                "frame {} of stream {} did not answer within {limit:?}",
                handle.index, handle.stream
            ),
        }
    }

    /// The acceptance-critical interleaving, scripted deterministically:
    /// stream A's first frame is provably *mid-execution* on one worker
    /// (dequeued, blocked on the session lock the test holds) while
    /// stream B's frames run to completion on the other worker — two
    /// streams overlapping on two workers — and every stream's frames
    /// execute in submission order, witnessed by per-stream ascending
    /// `dequeue_seq` stamps and sequential session frame indices.
    #[test]
    fn streams_overlap_across_workers_while_each_keeps_fifo_order() {
        let service =
            TonemapService::standard(ServiceConfig::with_workers(2).shards(2).queue_capacity(64));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 9);

        let mut stream_a = service
            .open_stream(FrameSequenceRequest::on_backend(
                "sw-f32?temporal=leaky&tau=2",
            ))
            .unwrap();
        let mut stream_b = service
            .open_stream(FrameSequenceRequest::on_backend(
                "sw-f32?temporal=leaky&tau=2",
            ))
            .unwrap();
        assert_eq!(stream_a.stream_id(), 0, "stream ids pin shards 0 and 1");
        assert_eq!(stream_b.stream_id(), 1);
        assert_eq!(service.stats().streams_active, 2);

        // Hold stream A's session: its first frame will dequeue, take its
        // turn, and block inside `process`'s session lock.
        let shared_a = Arc::clone(&stream_a.shared);
        let hold = shared_a.session.lock().unwrap();
        let first_a = stream_a.submit_frame(&scene).unwrap();
        // Wait until that frame is really on a worker (dequeued). It
        // cannot complete while we hold the session.
        while service.pool.dequeues() < 1 {
            std::thread::yield_now();
        }

        // With worker 1 provably stuck mid-frame of stream A, stream B's
        // frames complete — necessarily on the other worker: overlap.
        let outcomes_b: Vec<_> = (0..4)
            .map(|_| stream_b.submit_frame(&scene).unwrap())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().unwrap())
            .collect();
        assert_eq!(service.stats().frames_completed, 4);

        // Release stream A and finish it.
        drop(hold);
        let mut outcomes_a = vec![first_a.wait().unwrap()];
        for _ in 1..4 {
            let handle = stream_a.submit_frame(&scene).unwrap();
            outcomes_a.push(handle.wait().unwrap());
        }

        for outcomes in [&outcomes_a, &outcomes_b] {
            for (expected, outcome) in outcomes.iter().enumerate() {
                // The session processed the frames in submission order…
                assert_eq!(outcome.metrics.index, expected);
            }
            // …and the pool dequeued them in submission order.
            for pair in outcomes.windows(2) {
                assert!(
                    pair[0].dequeue_seq < pair[1].dequeue_seq,
                    "per-stream dequeue stamps must ascend: {} then {}",
                    pair[0].dequeue_seq,
                    pair[1].dequeue_seq
                );
            }
        }

        drop(stream_a);
        drop(stream_b);
        assert_eq!(service.stats().streams_active, 0);
        assert_eq!(service.stats().frames_completed, 8);
        // Frames never leak into the job counters.
        assert_eq!(service.stats().submitted, 0);
        assert_eq!(service.stats().completed, 0);
    }

    /// A frame dequeued before its turn parks and frees its worker. Stream
    /// A's first frame is stuck mid-process on one worker and its second
    /// frame is already dequeued by the other; stream B must still run.
    #[test]
    fn an_early_successor_frame_does_not_park_a_worker() {
        let service =
            TonemapService::standard(ServiceConfig::with_workers(2).shards(2).queue_capacity(64));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 9);
        let request = || FrameSequenceRequest::on_backend("sw-f32?temporal=leaky&tau=2");
        let mut stream_a = service.open_stream(request()).unwrap();
        let mut stream_b = service.open_stream(request()).unwrap();

        let shared_a = Arc::clone(&stream_a.shared);
        let hold = shared_a.session.lock().unwrap();
        let a0 = stream_a.submit_frame(&scene).unwrap();
        let a1 = stream_a.submit_frame(&scene).unwrap();
        // Both A frames are on workers: one blocked on the session, the
        // other early.
        while service.pool.dequeues() < 2 {
            std::thread::yield_now();
        }
        let b0 = stream_b.submit_frame(&scene).unwrap();
        let b0 = wait_within(b0, Duration::from_secs(10));
        drop(hold);

        assert_eq!(b0.expect("stream B's frame completes").metrics.index, 0);
        assert_eq!(a0.wait().unwrap().metrics.index, 0);
        assert_eq!(a1.wait().unwrap().metrics.index, 1);
        assert_eq!(service.stats().frames_completed, 3);
    }

    /// Parked frames have left the pool's queue, so the submitter bounds
    /// them: with stream A's head frame stuck mid-process, idle workers
    /// steal and park A's later frames, and the queue never fills — yet
    /// the submitter still blocks once `queue_capacity` frames of A are
    /// outstanding.
    #[test]
    fn a_stream_blocks_its_submitter_at_queue_capacity_outstanding_frames() {
        const CAPACITY: usize = 2;
        const FRAMES: usize = 8;
        let service = TonemapService::standard(
            ServiceConfig::with_workers(2)
                .shards(2)
                .queue_capacity(CAPACITY),
        );
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 9);
        let mut stream_a = service
            .open_stream(FrameSequenceRequest::on_backend(
                "sw-f32?temporal=leaky&tau=2",
            ))
            .unwrap();
        let shared_a = Arc::clone(&stream_a.shared);
        let hold = shared_a.session.lock().unwrap();

        std::thread::scope(|scope| {
            let (submitted, accepted) = mpsc::channel();
            let producer = scope.spawn(|| {
                let submitted = submitted;
                (0..FRAMES)
                    .map(|index| {
                        let handle = stream_a.submit_frame(&scene).unwrap();
                        submitted.send(index).unwrap();
                        handle
                    })
                    .collect::<Vec<_>>()
            });

            for expected in 0..CAPACITY {
                let index = accepted.recv_timeout(Duration::from_secs(10)).unwrap();
                assert_eq!(index, expected);
            }
            // Give workers time to steal and park; the producer must stay
            // blocked on frame CAPACITY however long the head frame runs.
            assert_eq!(
                accepted.recv_timeout(Duration::from_millis(300)),
                Err(RecvTimeoutError::Timeout),
                "the producer submitted past the stream's bound"
            );
            assert!(shared_a.order.lock().unwrap().early.len() < CAPACITY);

            drop(hold);
            let handles = producer.join().unwrap();
            for (expected, handle) in handles.into_iter().enumerate() {
                let outcome = wait_within(handle, Duration::from_secs(10)).unwrap();
                assert_eq!(outcome.metrics.index, expected);
            }
        });
        assert_eq!(service.stats().frames_completed, FRAMES as u64);
    }

    /// A frame task that panics fails its stream: that frame and every
    /// later one report `Lost` at once, while another stream keeps
    /// delivering bit-identical frames.
    #[test]
    fn a_failed_stream_fails_fast_while_other_streams_run() {
        let spec = "sw-f32?temporal=leaky&tau=2";
        let service =
            TonemapService::standard(ServiceConfig::with_workers(2).shards(2).queue_capacity(64));
        let sequence = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 1.0 },
            SceneKind::WindowInDarkRoom,
            24,
            20,
            3,
            17,
        );
        let mut stream_a = service
            .open_stream(FrameSequenceRequest::on_backend(spec))
            .unwrap();
        let mut stream_b = service
            .open_stream(FrameSequenceRequest::on_backend(spec))
            .unwrap();

        // Poison stream A's session: the first frame to lock it panics.
        let shared_a = Arc::clone(&stream_a.shared);
        std::thread::spawn(move || {
            let _held = shared_a.session.lock().unwrap();
            panic!("poisoning stream A's session");
        })
        .join()
        .expect_err("the poisoning thread panics");
        assert!(stream_a.shared.session.is_poisoned());

        let mut handles_a = Vec::new();
        let mut handles_b = Vec::new();
        for index in 0..3 {
            handles_a.push(stream_a.submit_frame(&sequence.frame(index)).unwrap());
            handles_b.push(stream_b.submit_frame(&sequence.frame(index)).unwrap());
        }

        for handle in handles_a {
            let outcome = wait_within(handle, Duration::from_secs(10));
            assert!(
                matches!(outcome, Err(ServiceError::Lost)),
                "a failed stream's frame must report Lost, got {outcome:?}"
            );
        }
        let mut reference = VideoSession::from_spec(spec).unwrap();
        for (index, handle) in handles_b.into_iter().enumerate() {
            let outcome = wait_within(handle, Duration::from_secs(10)).unwrap();
            let (expected, expected_metrics) = reference.process(&sequence.frame(index));
            assert_eq!(outcome.output.pixels(), expected.pixels());
            assert_eq!(outcome.metrics, expected_metrics);
        }
        assert_eq!(service.stats().frames_completed, 3, "only B's frames count");
    }
}
