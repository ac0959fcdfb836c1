//! Property tests for the sharded work-stealing pool.
//!
//! Over randomly drawn submission scenarios — shard pins, priority
//! classes, task counts — three scheduling invariants must hold at any
//! worker count:
//!
//! 1. **Work conservation**: every submitted task runs exactly once; the
//!    pool never drops or duplicates work, and shutdown drains the queue.
//! 2. **Priority never inverts within a shard**: when a shard's whole
//!    backlog is present before any pop (the test gates every worker to
//!    guarantee this), no batch task from that shard dequeues before any
//!    interactive task from the same shard.
//! 3. **Per-(shard, class) FIFO**: within one shard and one priority
//!    class, dequeue order is submission order — front-steals preserve
//!    FIFO exactly like local pops.
//!
//! A fourth test pins the full drain *order* against a closed-form oracle:
//! a single gated worker over N shards drains shard 0's interactive deque,
//! then its batch deque, then shard 1's, and so on — the scan order the
//! pool documents. All ordering evidence comes from the `dequeue_seq`
//! stamps the pool assigns under its lock, so no assertion depends on
//! wall-clock timing and there is not a single sleep in this file.
//!
//! A fifth test hammers shutdown: thousands of short-lived pools, each
//! shut down while its workers race to drain, must all join. Every test
//! body runs under the harness watchdog, so a lost wake-up fails the test
//! instead of hanging it.

mod harness;

use harness::{within, Gate, WATCHDOG};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tonemap_service::pool::{Priority, TaskFate, TaskOptions, WorkerPool};

/// Shutdown racing the drain: three workers over two shards, eight no-op
/// tasks pinned across both shards and both classes, then `shutdown`. A
/// worker that finds the shards dry while another still drains them must
/// not sleep through the end of the drain, or `shutdown` never joins it.
#[test]
fn shutdown_joins_every_worker_while_they_race_to_drain() {
    within(WATCHDOG, || {
        for _ in 0..2000 {
            let pool = WorkerPool::with_shards(3, 2, 64);
            for task in 0..8 {
                let priority = if task % 4 < 2 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                pool.execute(
                    Box::new(|_| {}),
                    TaskOptions {
                        priority,
                        shard: Some(task % 2),
                        ..TaskOptions::default()
                    },
                )
                .expect("the pool accepts tasks before shutdown");
            }
            pool.shutdown();
            assert_eq!(pool.dequeues(), 8);
        }
    });
}

/// One submission in a generated scenario.
#[derive(Debug, Clone, Copy)]
struct Submission {
    shard_pin: usize,
    priority: Priority,
}

/// What the task observed when it ran.
#[derive(Debug, Clone, Copy)]
struct Observation {
    tag: usize,
    shard: usize,
    priority: Priority,
    dequeue_seq: u64,
}

fn priority_strategy() -> impl Strategy<Value = Priority> {
    prop_oneof![Just(Priority::Interactive), Just(Priority::Batch)]
}

fn scenario_strategy() -> impl Strategy<Value = (usize, Vec<Submission>)> {
    // Pins are drawn over a fixed range and wrapped modulo the drawn shard
    // count (exactly as the pool itself wraps them), so the two axes can
    // be generated independently.
    let submissions = prop::collection::vec(
        (0usize..8, priority_strategy()).prop_map(|(shard_pin, priority)| Submission {
            shard_pin,
            priority,
        }),
        1..24,
    );
    (1usize..=4, submissions)
}

/// Submits every scenario task (pinned, tagged) and returns the shared
/// observation log. `shards` is needed to resolve the effective shard of a
/// pinned submission (pins wrap modulo the shard count).
fn submit_all(
    pool: &WorkerPool,
    shards: usize,
    submissions: &[Submission],
    log: &Arc<Mutex<Vec<Observation>>>,
) {
    for (tag, submission) in submissions.iter().enumerate() {
        let log = Arc::clone(log);
        let shard = submission.shard_pin % shards;
        let priority = submission.priority;
        pool.execute(
            Box::new(move |fate| {
                let dequeue_seq = match fate {
                    TaskFate::Execute { dequeue_seq, .. } => dequeue_seq,
                    TaskFate::Expired { .. } => unreachable!("no task carries a deadline"),
                };
                log.lock().unwrap().push(Observation {
                    tag,
                    shard,
                    priority,
                    dequeue_seq,
                });
            }),
            TaskOptions {
                priority,
                shard: Some(submission.shard_pin),
                ..TaskOptions::default()
            },
        )
        .expect("the pool accepts tasks before shutdown");
    }
}

/// Parks every worker inside a gate task (one pinned per worker's home
/// shard) and waits until all of them have arrived, so the whole scenario
/// backlog can be staged before a single pop happens.
fn park_all_workers(pool: &WorkerPool, workers: usize) -> Arc<Gate> {
    let gate = Gate::new();
    for worker in 0..workers {
        let gate = Arc::clone(&gate);
        pool.execute(
            Box::new(move |_| gate.arrive_and_wait()),
            TaskOptions {
                shard: Some(worker),
                ..TaskOptions::default()
            },
        )
        .expect("gate tasks fit in the queue");
    }
    gate.wait_for_arrivals(workers as u64);
    gate
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 1: every task runs exactly once, at any worker count,
    /// with submissions racing live workers.
    #[test]
    fn every_task_runs_exactly_once(
        (shards, submissions) in scenario_strategy(),
        workers in 1usize..=4,
    ) {
        within(WATCHDOG, move || {
            let pool = WorkerPool::with_shards(workers, shards, 64);
            let log = Arc::new(Mutex::new(Vec::new()));
            submit_all(&pool, shards, &submissions, &log);
            pool.shutdown();

            let log = log.lock().unwrap();
            prop_assert_eq!(log.len(), submissions.len());
            let mut seen: Vec<usize> = log.iter().map(|o| o.tag).collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..submissions.len()).collect();
            prop_assert_eq!(seen, expected, "each tag exactly once");
            prop_assert_eq!(pool.expired(), 0);
            prop_assert_eq!(
                pool.dequeues(),
                submissions.len() as u64,
                "dequeue stamps count exactly the submitted tasks"
            );
        });
    }

    /// Invariants 2 and 3: with the whole backlog staged before any pop
    /// (all workers parked at a gate), batch never overtakes interactive
    /// within a shard, and each (shard, class) stream dequeues FIFO —
    /// regardless of which worker popped or stole each task.
    #[test]
    fn priority_and_fifo_hold_per_shard(
        (shards, submissions) in scenario_strategy(),
        workers in 1usize..=3,
    ) {
        within(WATCHDOG, move || {
            let pool = WorkerPool::with_shards(workers, shards, 64);
            let gate = park_all_workers(&pool, workers);
            let log = Arc::new(Mutex::new(Vec::new()));
            submit_all(&pool, shards, &submissions, &log);
            gate.release(workers as u64);
            pool.shutdown();

            let log = log.lock().unwrap();
            prop_assert_eq!(log.len(), submissions.len());

            let mut per_shard: BTreeMap<usize, Vec<Observation>> = BTreeMap::new();
            for observation in log.iter() {
                per_shard.entry(observation.shard).or_default().push(*observation);
            }
            for (shard, mut observations) in per_shard {
                observations.sort_by_key(|o| o.dequeue_seq);
                // Priority: within the shard, every interactive dequeue
                // precedes every batch dequeue (the whole backlog was present
                // before the first pop).
                let first_batch = observations
                    .iter()
                    .position(|o| o.priority == Priority::Batch)
                    .unwrap_or(observations.len());
                for (index, observation) in observations.iter().enumerate() {
                    if observation.priority == Priority::Interactive {
                        prop_assert!(
                            index < first_batch,
                            "shard {shard}: interactive tag {} (seq {}) dequeued after a batch task",
                            observation.tag,
                            observation.dequeue_seq
                        );
                    }
                }
                // FIFO: within one class, dequeue order == submission order
                // (tags were assigned in submission order).
                for class in [Priority::Interactive, Priority::Batch] {
                    let tags: Vec<usize> = observations
                        .iter()
                        .filter(|o| o.priority == class)
                        .map(|o| o.tag)
                        .collect();
                    prop_assert!(
                        tags.windows(2).all(|w| w[0] < w[1]),
                        "shard {shard} {class}: dequeue order {tags:?} is not submission order"
                    );
                }
            }
        });
    }

    /// The closed-form oracle: one gated worker over N shards drains
    /// "shard 0 interactive FIFO, shard 0 batch FIFO, shard 1 …" exactly.
    #[test]
    fn a_single_gated_worker_drains_in_scan_order(
        (shards, submissions) in scenario_strategy(),
    ) {
        within(WATCHDOG, move || {
            let pool = WorkerPool::with_shards(1, shards, 64);
            let gate = park_all_workers(&pool, 1);
            let log = Arc::new(Mutex::new(Vec::new()));
            submit_all(&pool, shards, &submissions, &log);
            gate.release(1);
            pool.shutdown();

            let observed: Vec<usize> = {
                let mut log = log.lock().unwrap().clone();
                log.sort_by_key(|o| o.dequeue_seq);
                log.iter().map(|o| o.tag).collect()
            };
            let mut oracle = Vec::new();
            for shard in 0..shards {
                for class in [Priority::Interactive, Priority::Batch] {
                    for (tag, submission) in submissions.iter().enumerate() {
                        if submission.shard_pin % shards == shard && submission.priority == class {
                            oracle.push(tag);
                        }
                    }
                }
            }
            prop_assert_eq!(observed, oracle);
        });
    }
}
