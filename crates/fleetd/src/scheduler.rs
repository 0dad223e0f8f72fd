//! Job scheduling over the fleet executor: a bounded queue, a worker pool,
//! and spool-backed checkpointing.
//!
//! Each accepted [`JobSpec`] is split into its [`fleet::ShardSpec`] ranges
//! and the shards are claimed FIFO by a pool of worker threads, each running
//! the ordinary fleet executor
//! ([`FleetSimulation::run_shard_with_options`]) and checkpointing the
//! finished [`fleet::ShardReport`] artifact into the job's spool
//! directory. The worker that completes a job's last shard merges the
//! artifacts — through the same provenance-gated
//! [`MergeAccumulator`] path as `fleet-merge` — and persists the final
//! report body, byte-identical to `fleet --json`.
//!
//! Because every unit of progress is an ordinary spool artifact, recovery is
//! just a rescan: a restarted scheduler re-admits checkpointed shards through
//! the provenance gate and re-runs only the missing ranges. A job whose every
//! shard was checkpointed is merged during the rescan itself, so workers only
//! ever claim shards. Job ids are never reused: the next id is one past every
//! `job-<id>` directory in the spool, including ones whose spec no longer
//! parses.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::sync::atomic::{AtomicU64, Ordering};

use fleet::{FleetError, FleetSimulation, MergeAccumulator, ProgressSink};
use telemetry::Stability;

use crate::job::{JobSpec, JobState, JobStatus};
use crate::latch::ShutdownLatch;
use crate::spool::{render_report_body, Spool};

/// Why [`Scheduler::submit`] rejected a job.
#[derive(Debug)]
pub enum SubmitError {
    /// The daemon is draining for shutdown and accepts no new jobs.
    Draining,
    /// The bounded queue is full: `limit` jobs are already queued or running.
    QueueFull {
        /// The configured queue depth.
        limit: usize,
    },
    /// The spec failed validation (message names the offending field).
    Invalid(String),
    /// Persisting the job's spec into the spool failed; no job slot was
    /// consumed.
    Spool(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Draining => write!(f, "the daemon is shutting down"),
            Self::QueueFull { limit } => {
                write!(f, "the job queue is full ({limit} jobs queued or running)")
            }
            Self::Invalid(msg) => write!(f, "invalid job spec: {msg}"),
            Self::Spool(msg) => write!(f, "spooling the job failed: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Outcome of asking for a job's final report.
#[derive(Debug)]
pub enum ReportOutcome {
    /// No job with that id exists.
    NoSuchJob,
    /// The job exists but has not finished yet.
    NotFinished(JobState),
    /// The job failed; the message explains why.
    Failed(String),
    /// The job is done but its spooled report body could not be read.
    Unreadable(String),
    /// The final report body — the exact bytes `fleet --json` would print.
    Ready(Vec<u8>),
}

/// Live per-job progress, bumped by [`JobProgress`] sinks from worker
/// threads as each device finishes: a device's windows are counted when it
/// completes, not while it runs. Monotonic over a process lifetime;
/// `devices_done` is primed on resume from checkpointed shard ranges (every
/// device of a job with a report), `windows_done` only counts devices
/// finished live.
#[derive(Debug, Default)]
struct JobCounters {
    devices_done: AtomicU64,
    windows_done: AtomicU64,
}

impl JobCounters {
    /// Counters that start at the given progress.
    fn at(devices_done: u64, windows_done: u64) -> Arc<Self> {
        Arc::new(Self {
            devices_done: AtomicU64::new(devices_done),
            windows_done: AtomicU64::new(windows_done),
        })
    }
}

/// [`ProgressSink`] adapter wiring executor callbacks into a job's live
/// counters and the scheduler's abort flag.
struct JobProgress<'a> {
    counters: &'a JobCounters,
    latch: &'a ShutdownLatch,
}

impl ProgressSink for JobProgress<'_> {
    fn device_completed(&self, _device_id: u64, windows: usize) {
        self.counters
            .windows_done
            // relaxed: monotone live-progress counter; status reads are
            // advisory and never gate control flow.
            .fetch_add(windows as u64, Ordering::Relaxed);
        // relaxed: monotone live-progress counter, as above.
        self.counters.devices_done.fetch_add(1, Ordering::Relaxed);
    }

    fn should_cancel(&self) -> bool {
        // One-way abort latch polled between devices; a stale `false` only
        // delays cancellation by one polling interval (model-checked in
        // fleetd/tests/interleave_harness.rs).
        self.latch.abort_requested()
    }
}

/// Everything the scheduler knows about one job.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Shard indices not yet claimed by a worker.
    pending: VecDeque<u32>,
    /// Shards checkpointed into the spool (live or recovered). Each index
    /// counts once, so exactly one worker sees this reach `spec.shards`.
    shards_done: u32,
    error: Option<String>,
    counters: Arc<JobCounters>,
    /// The job's simulation, built once (profiling is the expensive step)
    /// and shared by every worker running its shards. Holds the build error
    /// so concurrent claimants see one consistent outcome. Replaced by an
    /// empty cell once the job is done or failed, so a long-running daemon
    /// does not keep one simulation per finished job.
    sim: Arc<OnceLock<Result<FleetSimulation, String>>>,
}

impl JobRecord {
    /// A queued job with every shard pending and nothing run yet.
    fn new(spec: JobSpec) -> Self {
        Self {
            pending: (0..spec.shards).collect(),
            spec,
            state: JobState::Queued,
            shards_done: 0,
            error: None,
            counters: Arc::new(JobCounters::default()),
            sim: Arc::new(OnceLock::new()),
        }
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            state: self.state.name().to_string(),
            spec: self.spec.clone(),
            shards_done: self.shards_done,
            shards_total: self.spec.shards,
            // relaxed: advisory live-progress snapshot for `GET /jobs`;
            // terminal states are published by the scheduler mutex instead.
            devices_done: self.counters.devices_done.load(Ordering::Relaxed),
            // relaxed: advisory live-progress snapshot, as above.
            windows_done: self.counters.windows_done.load(Ordering::Relaxed),
            error: self.error.clone(),
        }
    }

    /// Ends the job — the one place a terminal state is set: records the
    /// outcome, counts it on `chris_fleetd_jobs_total` and releases the
    /// simulation, so a long-running daemon keeps none per finished job.
    ///
    /// A failed job's progress stops where it failed: shards still in
    /// flight count into counters nobody reads, so the status stays the one
    /// [`JobRecord::settle`] persists.
    fn finish(&mut self, outcome: Result<(), String>) {
        self.pending.clear();
        self.sim = Arc::default();
        let event = match outcome {
            Ok(()) => {
                self.state = JobState::Done;
                "completed"
            }
            Err(error) => {
                self.state = JobState::Failed;
                self.error = Some(error);
                // relaxed: a snapshot under the scheduler lock; later
                // device completions are deliberately not seen.
                let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
                self.counters = JobCounters::at(
                    load(&self.counters.devices_done),
                    load(&self.counters.windows_done),
                );
                "failed"
            }
        };
        counter("chris_fleetd_jobs_total", event);
    }

    /// Finishes job `id` with `outcome` and persists a failure next to its
    /// spec, so a restarted daemon serves the failed status instead of
    /// running the job again. Drains and aborts never get here: their
    /// shards stay pending.
    fn settle(&mut self, spool: &Spool, id: u64, outcome: Result<(), String>) {
        let failed = outcome.is_err();
        self.finish(outcome);
        if failed {
            // Best effort: if the write fails, a restart re-runs the job,
            // which is all a daemon without the file could do.
            let _ = spool.write_failure(id, &self.status(id));
        }
    }

    /// Restores a job that failed before a restart, from its persisted
    /// final status.
    fn restore_failure(&mut self, failed: JobStatus) {
        self.shards_done = failed.shards_done;
        self.counters = JobCounters::at(failed.devices_done, failed.windows_done);
        self.finish(Err(failed.error.unwrap_or_default()));
    }
}

struct SchedState {
    jobs: BTreeMap<u64, JobRecord>,
    /// Job ids with claimable work, FIFO. A job id appears at most once.
    queue: VecDeque<u64>,
    next_id: u64,
}

/// The job scheduler: bounded queue, worker pool, spool-backed checkpoints.
pub struct Scheduler {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    spool: Spool,
    queue_depth: usize,
    /// Drain/abort latch: on shutdown, workers stop claiming new shards and
    /// in-flight shards finish and checkpoint; in abort mode they are
    /// additionally cancelled at the next device boundary via
    /// [`ProgressSink::should_cancel`], and their ranges re-run after
    /// restart. Single-cell, so an abort request is never observable
    /// without the drain (see [`ShutdownLatch`]).
    latch: ShutdownLatch,
}

impl Scheduler {
    /// Creates a scheduler over `spool`, recovering every job already
    /// persisted there: jobs with a `report.json` come back as done with
    /// every device counted (the body stays on disk), jobs with a
    /// `failed.json` come back failed with the status they had, and others
    /// re-admit their provenance-valid shard artifacts and re-queue only the
    /// missing ranges. A job with every shard
    /// checkpointed is merged here and comes back done (or failed). Each job
    /// recovered as done or failed counts once on `chris_fleetd_jobs_total`.
    /// New ids start past every `job-<id>` directory, parseable or not.
    ///
    /// # Errors
    ///
    /// Propagates the spool-scan error.
    pub fn new(spool: Spool, queue_depth: usize) -> io::Result<Self> {
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1;
        for (id, spec) in spool.scan()? {
            next_id = next_id.max(id.saturating_add(1));
            let Some(spec) = spec else { continue };
            let mut record = JobRecord::new(spec);
            if spool.has_report(id) {
                record.shards_done = record.spec.shards;
                record.counters = JobCounters::at(record.spec.devices, 0);
                record.finish(Ok(()));
            } else if let Some(failed) = spool.read_failure(id) {
                record.restore_failure(failed);
            } else {
                // Only shards without a valid checkpoint stay pending.
                record.pending.retain(|&index| {
                    let Some(meta) = spool.shard_meta_if_valid(id, &record.spec, index) else {
                        return true;
                    };
                    record.shards_done += 1;
                    record
                        .counters
                        .devices_done
                        // relaxed: single-threaded recovery scan, before
                        // any worker exists.
                        .fetch_add(meta.end - meta.start, Ordering::Relaxed);
                    false
                });
                if record.pending.is_empty() {
                    let merged = merge_job(&spool, id, &record.spec);
                    record.settle(&spool, id, merged);
                } else {
                    queue.push_back(id);
                }
            }
            jobs.insert(id, record);
        }
        Ok(Self {
            state: Mutex::new(SchedState {
                jobs,
                queue,
                next_id,
            }),
            work_ready: Condvar::new(),
            spool,
            queue_depth,
            latch: ShutdownLatch::new(),
        })
    }

    /// The spool this scheduler checkpoints into.
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// Spawns `workers` worker threads claiming and running shards until
    /// shutdown. Join the returned handles to drain.
    pub fn spawn_workers(self: &Arc<Self>, workers: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..workers.max(1))
            .map(|i| {
                let scheduler = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("fleetd-worker-{i}"))
                    .spawn(move || scheduler.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect()
    }

    /// Accepts a job: validates the spec, persists it into the spool (the
    /// crash-safe point of record), then enqueues its shards. Returns the
    /// job's initial status.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] during shutdown, [`SubmitError::QueueFull`]
    /// when `queue_depth` jobs are already active, [`SubmitError::Invalid`]
    /// for a bad spec, [`SubmitError::Spool`] when persisting fails (in
    /// which case no job slot is consumed).
    pub fn submit(&self, spec: JobSpec) -> Result<JobStatus, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        // One-way drain latch; a submission racing shutdown may land either
        // side of the drain, both outcomes are correct (the threaded
        // regression test fleetd/tests/shutdown_race.rs pins that neither
        // side leaks a queue slot or spools a partial artifact).
        if self.latch.is_shutting_down() {
            return Err(SubmitError::Draining);
        }
        let mut state = self.state.lock().expect("scheduler lock");
        let active = state
            .jobs
            .values()
            .filter(|r| matches!(r.state, JobState::Queued | JobState::Running))
            .count();
        if active >= self.queue_depth {
            return Err(SubmitError::QueueFull {
                limit: self.queue_depth,
            });
        }
        let id = state.next_id;
        // Spool first: only a persisted job may occupy a slot, so a failed
        // write leaks nothing and a crash right after the write is
        // recoverable.
        self.spool
            .persist_spec(id, &spec)
            .map_err(|e| SubmitError::Spool(e.to_string()))?;
        state.next_id += 1;
        let record = JobRecord::new(spec);
        let status = record.status(id);
        state.jobs.insert(id, record);
        state.queue.push_back(id);
        drop(state);
        self.work_ready.notify_all();
        counter("chris_fleetd_jobs_total", "submitted");
        Ok(status)
    }

    /// The live status of job `id`, if it exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock().expect("scheduler lock");
        state.jobs.get(&id).map(|record| record.status(id))
    }

    /// Statuses of all known jobs, ascending by id.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("scheduler lock");
        state
            .jobs
            .iter()
            .map(|(&id, record)| record.status(id))
            .collect()
    }

    /// The final report body of job `id`. A done job keeps no body in
    /// memory: it is read from the spool, outside the scheduler lock.
    pub fn report(&self, id: u64) -> ReportOutcome {
        let state = self.state.lock().expect("scheduler lock");
        let Some(record) = state.jobs.get(&id) else {
            return ReportOutcome::NoSuchJob;
        };
        match (record.state, &record.error) {
            (JobState::Done, _) => drop(state),
            (_, Some(error)) => return ReportOutcome::Failed(error.clone()),
            (state, None) => return ReportOutcome::NotFinished(state),
        }
        match self.spool.read_report(id) {
            Ok(body) => ReportOutcome::Ready(body),
            Err(error) => ReportOutcome::Unreadable(error),
        }
    }

    /// Starts shutdown. With `abort` false this is a clean drain: workers
    /// finish (and checkpoint) their in-flight shards, then exit. With
    /// `abort` true, in-flight shards are additionally cancelled at the next
    /// device boundary — their ranges simply re-run on restart, exercising
    /// the same recovery path as a crash.
    pub fn begin_shutdown(&self, abort: bool) {
        // One-way latch; the lock/notify below provides the edge workers
        // actually synchronize on. Setting both flags through one RMW means
        // no worker can ever observe abort without the drain
        // (model-checked in fleetd/tests/interleave_harness.rs).
        self.latch.begin(abort);
        // Take the lock so a worker between its shutdown check and its wait
        // cannot miss the wakeup.
        let _state = self.state.lock().expect("scheduler lock");
        self.work_ready.notify_all();
    }

    /// Whether shutdown has begun (new submissions are rejected).
    pub fn is_shutting_down(&self) -> bool {
        self.latch.is_shutting_down()
    }

    fn worker_loop(&self) {
        while let Some((job, index)) = self.next_shard() {
            self.run_shard(job, index);
        }
    }

    /// Blocks for the next claimable `(job, shard)`; `None` means shutdown.
    fn next_shard(&self) -> Option<(u64, u32)> {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            // Checked under the scheduler mutex, which (with the lock taken
            // in `begin_shutdown`) already orders the latch against the
            // condvar wait.
            if self.latch.is_shutting_down() {
                return None;
            }
            if let Some(claim) = Self::claim(&mut state) {
                return Some(claim);
            }
            state = self.work_ready.wait(state).expect("scheduler lock");
        }
    }

    /// Claims the front-most pending shard, maintaining the invariant that a
    /// job id sits in the queue iff it has pending shards.
    fn claim(state: &mut SchedState) -> Option<(u64, u32)> {
        while let Some(&job) = state.queue.front() {
            let Some(record) = state.jobs.get_mut(&job) else {
                state.queue.pop_front();
                continue;
            };
            let Some(index) = record.pending.pop_front() else {
                state.queue.pop_front();
                continue;
            };
            record.state = JobState::Running;
            if record.pending.is_empty() {
                state.queue.pop_front();
            }
            return Some((job, index));
        }
        None
    }

    /// Builds (or reuses) the job's simulation — one profiling run per job,
    /// shared across its shard workers.
    fn simulation<'a>(
        sim: &'a OnceLock<Result<FleetSimulation, String>>,
        spec: &JobSpec,
    ) -> Result<&'a FleetSimulation, &'a str> {
        sim.get_or_init(|| {
            FleetSimulation::new(spec.seed, spec.resolved_mix()).map_err(|e| e.to_string())
        })
        .as_ref()
        .map_err(String::as_str)
    }

    fn run_shard(&self, job: u64, index: u32) {
        let (spec, counters, sim_cell) = {
            let state = self.state.lock().expect("scheduler lock");
            let record = &state.jobs[&job];
            (
                record.spec.clone(),
                Arc::clone(&record.counters),
                Arc::clone(&record.sim),
            )
        };
        let run = || -> Result<(), ShardFail> {
            let sim =
                Self::simulation(&sim_cell, &spec).map_err(|e| ShardFail::Other(e.to_string()))?;
            let shard_spec = spec
                .shard_spec()
                .map_err(|e| ShardFail::Other(e.to_string()))?;
            let progress = JobProgress {
                counters: &counters,
                latch: &self.latch,
            };
            let shard = sim
                .run_shard_with_options(
                    &shard_spec,
                    index,
                    &spec.executor_options(),
                    Some(&progress),
                )
                .map_err(|e| match e {
                    FleetError::Cancelled => ShardFail::Cancelled,
                    other => ShardFail::Other(other.to_string()),
                })?;
            self.spool
                .write_shard(job, &shard)
                .map_err(ShardFail::Other)
        };
        // A panicking shard fails its job instead of killing the worker
        // with the job left `running` and its queue slot taken.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
            Err(ShardFail::Other(format!(
                "shard {index} panicked: {}",
                panic_message(payload.as_ref())
            )))
        });
        let mut state = self.state.lock().expect("scheduler lock");
        let record = state.jobs.get_mut(&job).expect("claimed jobs persist");
        match outcome {
            // A failed job's status stays as it failed.
            Ok(()) if record.error.is_some() => counter("chris_fleetd_shards_total", "completed"),
            Ok(()) => {
                record.shards_done += 1;
                counter("chris_fleetd_shards_total", "completed");
                // Each shard index counts once and a failed shard never
                // counts, so exactly one worker gets here with the job whole.
                if record.shards_done == record.spec.shards {
                    let spec = record.spec.clone();
                    drop(state);
                    // The merge reads the spool and runs outside the lock.
                    let merged = merge_job(&self.spool, job, &spec);
                    let mut state = self.state.lock().expect("scheduler lock");
                    let record = state.jobs.get_mut(&job).expect("claimed jobs persist");
                    record.settle(&self.spool, job, merged);
                }
            }
            Err(ShardFail::Cancelled) => {
                // Re-queue the shard: its range is simply still missing and
                // will re-run after restart, like any crash.
                counter("chris_fleetd_shards_total", "cancelled");
                record.pending.push_front(index);
                if !state.queue.contains(&job) {
                    state.queue.push_back(job);
                }
            }
            // The first failure ends the job; later ones find it ended.
            Err(ShardFail::Other(error)) if record.error.is_none() => {
                record.settle(&self.spool, job, Err(error));
            }
            Err(ShardFail::Other(_)) => {}
        }
    }
}

/// Merges job `job`'s checkpointed shard artifacts — in index order,
/// through the provenance gate — renders the CLI-identical report body and
/// persists it.
fn merge_job(spool: &Spool, job: u64, spec: &JobSpec) -> Result<(), String> {
    let mut accumulator = MergeAccumulator::new();
    for index in 0..spec.shards {
        let shard = spool.read_shard(job, spec, index)?;
        accumulator
            .push(&shard)
            .map_err(|e| format!("merging shard {index}: {e}"))?;
    }
    let sketch = accumulator.sketch_info();
    let report = accumulator
        .finalize()
        .map_err(|e| format!("finalizing the merge: {e}"))?;
    spool.write_report(job, &render_report_body(&report, sketch))
}

/// Bumps an observational daemon counter on the process-global registry —
/// the same registry `GET /metrics` serves live.
fn counter(name: &str, event: &str) {
    if let Ok(c) = telemetry::global().counter(
        name,
        &[("event", event)],
        "fleetd scheduler lifecycle events",
        Stability::Observational,
    ) {
        c.inc();
    }
}

/// The text of a panic payload: the `&str` or `String` that `panic!` and
/// `expect` carry, or a placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// How a claimed shard run ended, short of success: cancelled cooperatively
/// (the range stays pending, like a crash) or failed outright.
enum ShardFail {
    Cancelled,
    Other(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spool(tag: &str) -> Spool {
        let root = std::env::temp_dir().join(format!("fleetd-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Spool::new(root).unwrap()
    }

    fn wait_done(scheduler: &Scheduler, id: u64) -> JobStatus {
        for _ in 0..6000 {
            let status = scheduler.status(id).expect("job exists");
            if status.state == "done" || status.state == "failed" {
                return status;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("job {id} did not finish in time");
    }

    #[test]
    fn queue_bounds_and_submit_errors() {
        let spool = temp_spool("bounds");
        let root = spool.root().to_path_buf();
        let scheduler = Scheduler::new(spool, 1).unwrap();
        // No workers running, so the first job occupies the only slot.
        let first = scheduler.submit(JobSpec::new(2)).unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(first.state, "queued");
        assert_eq!(first.shards_total, 2);
        assert!(matches!(
            scheduler.submit(JobSpec::new(2)),
            Err(SubmitError::QueueFull { limit: 1 })
        ));
        let mut invalid = JobSpec::new(2);
        invalid.mix = "nope".into();
        assert!(matches!(
            scheduler.submit(invalid),
            Err(SubmitError::Invalid(_))
        ));
        scheduler.begin_shutdown(false);
        assert!(matches!(
            scheduler.submit(JobSpec::new(2)),
            Err(SubmitError::Draining)
        ));
        assert!(matches!(scheduler.report(1), ReportOutcome::NotFinished(_)));
        assert!(matches!(scheduler.report(99), ReportOutcome::NoSuchJob));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn runs_a_job_and_recovers_it_from_the_spool() {
        let spool = temp_spool("run");
        let root = spool.root().to_path_buf();
        let scheduler = Arc::new(Scheduler::new(spool, 4).unwrap());
        let workers = scheduler.spawn_workers(2);
        let mut spec = JobSpec::new(3);
        spec.seed = 9;
        spec.shards = 2;
        let id = scheduler.submit(spec).unwrap().id;
        let status = wait_done(&scheduler, id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        assert_eq!(status.shards_done, 2);
        assert_eq!(status.devices_done, 3);
        let ReportOutcome::Ready(body) = scheduler.report(id) else {
            panic!("report not ready");
        };
        assert!(body.ends_with(b"}\n"));
        let served: fleet::FleetReport =
            serde_json::from_str(std::str::from_utf8(&body).unwrap().trim_end()).unwrap();
        assert_eq!(status.windows_done, served.total_windows as u64);
        scheduler.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }

        // A fresh scheduler over the same spool recovers the finished job
        // with the identical report body and hands out fresh ids after it.
        let recovered = Scheduler::new(Spool::new(&root).unwrap(), 4).unwrap();
        let status = recovered.status(id).expect("recovered job");
        assert_eq!(status.state, "done");
        assert_eq!(status.shards_done, 2);
        assert_eq!(status.devices_done, 3, "a done job finished every device");
        assert_eq!(status.windows_done, 0, "windows count only live devices");
        let ReportOutcome::Ready(recovered_body) = recovered.report(id) else {
            panic!("recovered report not ready");
        };
        assert_eq!(recovered_body, body);
        assert_eq!(recovered.submit(JobSpec::new(1)).unwrap().id, id + 1);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn a_finished_job_releases_its_simulation() {
        let spool = temp_spool("release");
        let root = spool.root().to_path_buf();
        let scheduler = Arc::new(Scheduler::new(spool, 4).unwrap());
        let workers = scheduler.spawn_workers(2);
        let mut spec = JobSpec::new(3);
        spec.shards = 2;
        let id = scheduler.submit(spec).unwrap().id;
        assert_eq!(wait_done(&scheduler, id).state, "done");
        let state = scheduler.state.lock().unwrap();
        assert!(state.jobs[&id].sim.get().is_none());
        drop(state);
        // Nor does it keep its report body: deleting the spooled file turns
        // the report into a typed error instead of a stale in-memory copy.
        assert!(matches!(scheduler.report(id), ReportOutcome::Ready(_)));
        std::fs::remove_file(scheduler.spool().job_dir(id).join("report.json")).unwrap();
        let ReportOutcome::Unreadable(error) = scheduler.report(id) else {
            panic!("a deleted report must be unreadable");
        };
        assert!(error.contains("report.json"), "error: {error}");
        scheduler.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn resumes_a_partially_checkpointed_job_reusing_valid_shards() {
        let spool = temp_spool("resume");
        let root = spool.root().to_path_buf();
        let mut spec = JobSpec::new(4);
        spec.seed = 5;
        spec.shards = 2;
        // Pre-seed the spool as a killed daemon would have left it: spec
        // persisted, shard 0 checkpointed, shard 1 missing.
        let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).unwrap();
        let shard_spec = spec.shard_spec().unwrap();
        let shard0 = sim
            .run_shard_with_options(&shard_spec, 0, &spec.executor_options(), None)
            .unwrap();
        spool.persist_spec(7, &spec).unwrap();
        spool.write_shard(7, &shard0).unwrap();
        let shard0_bytes = std::fs::read(spool.job_dir(7).join("shard-00000.json")).unwrap();

        let scheduler = Arc::new(Scheduler::new(spool, 4).unwrap());
        let primed = scheduler.status(7).expect("recovered job");
        assert_eq!(primed.shards_done, 1);
        assert_eq!(primed.devices_done, 2, "primed from the checkpointed range");
        let workers = scheduler.spawn_workers(1);
        let status = wait_done(&scheduler, 7);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        scheduler.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }
        // The checkpointed artifact was reused, not re-run.
        assert_eq!(
            std::fs::read(scheduler.spool().job_dir(7).join("shard-00000.json")).unwrap(),
            shard0_bytes
        );
        // And the merged report matches a single-process run exactly.
        let outcome = sim
            .run_with_options(4, &spec.executor_options(), None)
            .unwrap();
        let expected = render_report_body(&outcome.report, outcome.sketch);
        let ReportOutcome::Ready(body) = scheduler.report(7) else {
            panic!("report not ready");
        };
        assert_eq!(body, expected);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn recovery_merges_a_fully_checkpointed_job_without_rerunning_it() {
        let spool = temp_spool("merge");
        let root = spool.root().to_path_buf();
        let mut spec = JobSpec::new(6);
        spec.seed = 3;
        spec.shards = 3;
        // A daemon killed between the last checkpoint and the merge: every
        // shard is spooled, the report is not.
        let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).unwrap();
        let shard_spec = spec.shard_spec().unwrap();
        spool.persist_spec(4, &spec).unwrap();
        let mut shard_bytes = Vec::new();
        for index in 0..spec.shards {
            let shard = sim
                .run_shard_with_options(&shard_spec, index, &spec.executor_options(), None)
                .unwrap();
            spool.write_shard(4, &shard).unwrap();
            let path = spool.job_dir(4).join(format!("shard-{index:05}.json"));
            shard_bytes.push((path.clone(), std::fs::read(path).unwrap()));
        }
        assert!(!spool.has_report(4));

        let scheduler = Arc::new(Scheduler::new(spool, 4).unwrap());
        let workers = scheduler.spawn_workers(1);
        let status = wait_done(&scheduler, 4);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        assert_eq!(status.shards_done, 3);
        assert_eq!(status.devices_done, 6);
        scheduler.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }
        // Nothing was re-run: every checkpoint is byte-unchanged.
        for (path, bytes) in shard_bytes {
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{}", path.display());
        }
        let outcome = sim
            .run_with_options(6, &spec.executor_options(), None)
            .unwrap();
        let ReportOutcome::Ready(body) = scheduler.report(4) else {
            panic!("report not ready");
        };
        assert_eq!(body, render_report_body(&outcome.report, outcome.sketch));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn a_failed_job_stays_failed_across_a_restart() {
        let spool = temp_spool("failed");
        let root = spool.root().to_path_buf();
        let scheduler = Arc::new(Scheduler::new(spool, 4).unwrap());
        let mut spec = JobSpec::new(4);
        spec.shards = 2;
        let id = scheduler.submit(spec).unwrap().id;
        // A directory where shard 0's artifact goes makes its checkpoint
        // fail after its devices ran.
        let job_dir = scheduler.spool().job_dir(id);
        std::fs::create_dir(job_dir.join("shard-00000.json")).unwrap();
        let workers = scheduler.spawn_workers(1);
        let failed = wait_done(&scheduler, id);
        assert_eq!(failed.state, "failed");
        assert!(failed.devices_done > 0, "{failed:?}");
        let ReportOutcome::Failed(error) = scheduler.report(id) else {
            panic!("the report of a failed job is its error");
        };
        assert!(error.contains("shard-00000.json"), "{error}");
        scheduler.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }
        let served = serde_json::to_string(&failed).unwrap();

        // A restart serves the same status and error, and runs nothing of
        // the job: the next job is the only one the worker claims.
        let restarted = Arc::new(Scheduler::new(Spool::new(&root).unwrap(), 4).unwrap());
        let recovered = restarted.status(id).expect("recovered job");
        assert_eq!(serde_json::to_string(&recovered).unwrap(), served);
        assert!(matches!(restarted.report(id), ReportOutcome::Failed(e) if e == error));
        let workers = restarted.spawn_workers(1);
        let next = restarted.submit(JobSpec::new(1)).unwrap().id;
        assert_eq!(wait_done(&restarted, next).state, "done");
        assert_eq!(restarted.status(id), Some(recovered));
        restarted.begin_shutdown(false);
        for handle in workers {
            handle.join().unwrap();
        }
        assert!(job_dir.join("shard-00000.json").is_dir());
        assert!(!job_dir.join("shard-00001.json").exists());
        assert!(!job_dir.join("report.json").exists());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn job_ids_are_never_reused_even_for_unparseable_jobs() {
        let spool = temp_spool("ids");
        let root = spool.root().to_path_buf();
        spool.persist_spec(1, &JobSpec::new(2)).unwrap();
        // A job directory whose spec no longer validates, left with a
        // stale report body.
        std::fs::create_dir_all(spool.job_dir(5)).unwrap();
        std::fs::write(spool.job_dir(5).join("spec.json"), r#"{"devices": 0}"#).unwrap();
        spool.write_report(5, b"stale\n").unwrap();

        // No workers run, so every job stays queued.
        let scheduler = Scheduler::new(spool, 8).unwrap();
        assert!(scheduler.status(5).is_none());
        let ids: Vec<u64> = (0..4)
            .map(|_| scheduler.submit(JobSpec::new(2)).unwrap().id)
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);

        // A restart neither revives job 5 from the stale report nor hands
        // its id out.
        let restarted = Scheduler::new(Spool::new(&root).unwrap(), 8).unwrap();
        assert!(restarted.status(5).is_none());
        assert!(matches!(restarted.report(5), ReportOutcome::NoSuchJob));
        assert_eq!(restarted.submit(JobSpec::new(2)).unwrap().id, 10);
        std::fs::remove_dir_all(root).unwrap();
    }
}
