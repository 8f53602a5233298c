//! The hand-rolled cooperative reactor behind [`AsyncExecutor`].
//!
//! One wave at a time: the wave's slot tasks are lifted into
//! [`TaskFuture`]s held in per-slot mutexes on the caller's stack, a
//! seeded shuffle of their indices primes the ready queue, and a bounded
//! pool of scoped worker threads multiplexes them — pop an index, poll
//! that future, park on a condvar when the queue runs dry. Wakers
//! (`std::task::Wake` over an `Arc` of the reactor's shared state)
//! re-enqueue their index and unpark one worker; when the last task
//! resolves, every parked worker is released and the scope joins.
//!
//! The queue seed makes the *initial* service order a pure function of
//! `(seed, label)`; with one worker the whole execution order is. With
//! more workers the interleaving is OS-scheduled, which is why wave
//! outcomes are collected in input order: schedules and digests agree
//! at every worker count.

use crate::future::TaskFuture;
use crate::metrics::ExecMetrics;
use crate::task::{CancelToken, SlotOutcome, SlotTask, TaskCtx};
use crate::WaveSpec;
use rand::seq::SliceRandom;
use rcmp_model::rng::rng_for;
use rcmp_obs::{MetricsRegistry, PhaseKind, PhaseProfiler, SpanKind, Tracer};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// Locks ignoring poisoning: task panics are contained inside
/// [`TaskFuture::poll`], so a poisoned reactor lock can only come from a
/// bug in the reactor itself — and even then the queue state is a plain
/// index list that stays coherent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reactor state shared between workers and wakers.
///
/// Wakers require `'static` state (`std::task::Waker` erases
/// lifetimes), so everything reachable from one — the ready queue of
/// task *indices*, the park condvar and the counters — lives in this
/// `Arc`. The futures themselves stay on the wave's stack frame,
/// accessed only by the scoped workers.
struct Shared {
    queue: Mutex<VecDeque<usize>>,
    ready: Condvar,
    remaining: AtomicUsize,
    polls: AtomicU64,
    parked: AtomicUsize,
    /// Nanoseconds workers spent inside `Future::poll` this wave.
    poll_ns: AtomicU64,
    /// Nanoseconds workers spent parked on the ready condvar this wave.
    park_ns: AtomicU64,
    /// Number of park episodes this wave (each condvar wait counts one).
    parks: AtomicU64,
    /// Completion latch for session mode: the wave submitter waits here,
    /// never on `ready` — `enqueue`'s `notify_one` could otherwise wake
    /// the submitter instead of a parked worker and stall the wave.
    done: Mutex<bool>,
    done_cv: Condvar,
    metrics: Option<ExecMetrics>,
}

impl Shared {
    fn new(tasks: usize, metrics: Option<ExecMetrics>) -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(tasks)),
            ready: Condvar::new(),
            remaining: AtomicUsize::new(tasks),
            polls: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            poll_ns: AtomicU64::new(0),
            park_ns: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            metrics,
        }
    }

    fn note_depth(&self, depth: usize) {
        if let Some(m) = &self.metrics {
            m.ready_depth.set(depth as i64);
        }
    }

    /// Re-enqueues a task index and unparks one worker (the wake path).
    fn enqueue(&self, index: usize) {
        let mut q = lock(&self.queue);
        q.push_back(index);
        self.note_depth(q.len());
        // Notify while holding the lock: a worker between its empty
        // check and its park holds the lock, so the wake cannot slip
        // into that window and be lost.
        self.ready.notify_one();
    }

    /// Pops the next ready index, parking until one arrives or every
    /// task has resolved (`None` = shut down).
    fn next_ready(&self) -> Option<usize> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(i) = q.pop_front() {
                self.note_depth(q.len());
                return Some(i);
            }
            if self.remaining.load(Ordering::Acquire) == 0 {
                return None;
            }
            self.parked.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.parked_workers
                    .set(self.parked.load(Ordering::Relaxed) as i64);
            }
            let parked_at = Instant::now();
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            self.park_ns
                .fetch_add(parked_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.parks.fetch_add(1, Ordering::Relaxed);
            self.parked.fetch_sub(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.parked_workers
                    .set(self.parked.load(Ordering::Relaxed) as i64);
            }
        }
    }

    /// Marks one task resolved; the last one releases every parked
    /// worker so the pool can drain, and trips the completion latch for
    /// a session-mode submitter.
    fn task_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            {
                let _queue = lock(&self.queue);
                self.ready.notify_all();
            }
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every task of the wave has resolved.
    fn wait_done(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Waker for one slot: re-enqueues its index.
struct SlotWaker {
    shared: Arc<Shared>,
    index: usize,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.shared.enqueue(self.index);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.enqueue(self.index);
    }
}

/// One slot's reactor-side state: the future while it is pending, the
/// outcome once it resolved.
struct Slot<'env, T> {
    fut: Option<TaskFuture<'env, T>>,
    outcome: Option<SlotOutcome<T>>,
}

fn worker_loop<T: Send>(shared: &Arc<Shared>, slots: &[Mutex<Slot<'_, T>>]) {
    while let Some(index) = shared.next_ready() {
        let mut slot = lock(&slots[index]);
        // A duplicate wake can race a poll already in flight: by the
        // time this worker gets the slot lock the future is either back
        // (poll it again) or resolved (nothing to do).
        let Some(mut fut) = slot.fut.take() else {
            continue;
        };
        let waker = Waker::from(Arc::new(SlotWaker {
            shared: Arc::clone(shared),
            index,
        }));
        let mut cx = Context::from_waker(&waker);
        shared.polls.fetch_add(1, Ordering::Relaxed);
        let poll_started = Instant::now();
        let polled = Pin::new(&mut fut).poll(&mut cx);
        shared
            .poll_ns
            .fetch_add(poll_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match polled {
            Poll::Pending => {
                slot.fut = Some(fut);
            }
            Poll::Ready(out) => {
                slot.outcome = Some(out);
                drop(slot);
                shared.task_done();
            }
        }
    }
}

/// One wave's worth of servable work, type-erased so session workers
/// spawned once per job can serve waves of differing outcome types.
trait WaveWork: Send + Sync {
    /// Serves the wave until every task has resolved (a worker-loop
    /// body; called concurrently from every session worker).
    fn serve(&self);
}

/// A published wave: the reactor state plus the slot futures, kept
/// alive by `Arc` because laggard session workers may still hold it
/// briefly after the submitter has collected the outcomes.
struct WaveState<'env, T: Send> {
    shared: Arc<Shared>,
    slots: Vec<Mutex<Slot<'env, T>>>,
}

impl<T: Send> WaveWork for WaveState<'_, T> {
    fn serve(&self) {
        worker_loop(&self.shared, &self.slots);
    }
}

/// What the session's worker pool should be doing right now.
enum SessionState<'env> {
    /// No wave published yet.
    Idle,
    /// Wave number `.0` is available for service.
    Work(u64, Arc<dyn WaveWork + 'env>),
    /// The session is over: workers exit.
    Shutdown,
}

/// Coordination point between the session's long-lived workers and the
/// thread submitting waves.
struct SessionShared<'env> {
    state: Mutex<SessionState<'env>>,
    publish: Condvar,
}

/// Body of one session worker: wait for the next unserved generation,
/// serve it to completion, repeat until shutdown. Generations are
/// strictly increasing and waves are serialized by the submitter, so a
/// worker that dawdles past a whole wave simply picks up the newest one
/// (each wave has enough workers only because *some* worker serves it;
/// correctness never depends on all of them showing up).
fn session_worker(shared: &SessionShared<'_>) {
    let mut served = 0u64;
    loop {
        let work = {
            let mut st = lock(&shared.state);
            loop {
                match &*st {
                    SessionState::Shutdown => return,
                    SessionState::Work(generation, work) if *generation > served => {
                        served = *generation;
                        break Arc::clone(work);
                    }
                    _ => {
                        st = shared
                            .publish
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        work.serve();
    }
}

/// A job-scoped reactor session: the worker pool is spawned once by
/// [`AsyncExecutor::with_session`] and serves every wave submitted
/// through [`AsyncSession::run_wave`], instead of being rebuilt per
/// wave. `'s` is the session scope, `'env` the environment the slot
/// tasks may borrow from.
pub struct AsyncSession<'s, 'env> {
    exec: &'env AsyncExecutor,
    shared: &'s SessionShared<'env>,
    workers: usize,
    generation: AtomicU64,
}

impl<'env> AsyncSession<'_, 'env> {
    /// Executes one wave on the session's shared worker pool. Same
    /// contract as [`AsyncExecutor::run_wave`]: outcomes in input order,
    /// panics contained, returns only once every task has resolved.
    pub fn run_wave<T: Send + 'env>(
        &self,
        spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let exec = self.exec;
        let started = exec.tracer.as_ref().map(|t| t.now_us());
        if let Some(m) = &exec.metrics {
            m.waves.inc();
        }
        let cancel = CancelToken::new();
        let shared = Arc::new(Shared::new(n, exec.metrics.clone()));
        {
            // Seeded-deterministic initial service order, exactly as in
            // the standalone wave path.
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng_for(spec.seed, spec.label));
            let mut q = lock(&shared.queue);
            q.extend(order);
            shared.note_depth(q.len());
        }
        let slots: Vec<Mutex<Slot<'env, T>>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                Mutex::new(Slot {
                    fut: Some(TaskFuture::new(
                        t.into_fn(),
                        TaskCtx::new(cancel.clone(), i),
                    )),
                    outcome: None,
                })
            })
            .collect();
        let wave: Arc<WaveState<'env, T>> = Arc::new(WaveState {
            shared: Arc::clone(&shared),
            slots,
        });
        {
            let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
            let mut st = lock(&self.shared.state);
            *st = SessionState::Work(generation, Arc::clone(&wave) as Arc<dyn WaveWork + 'env>);
            // Notify under the lock so the publish cannot slip into a
            // worker's check-then-wait window.
            self.shared.publish.notify_all();
        }
        shared.wait_done();
        // Workers may still hold the `Arc<WaveState>` briefly, so take
        // each outcome out of its slot instead of unwrapping the Arc.
        let outcomes: Vec<SlotOutcome<T>> = wave
            .slots
            .iter()
            .map(|m| lock(m).outcome.take().unwrap_or(SlotOutcome::Cancelled))
            .collect();
        exec.flush_reactor_time(&shared);
        let polls = shared.polls.load(Ordering::Relaxed);
        let cancelled = outcomes.iter().filter(|o| o.is_cancelled()).count();
        if let Some(m) = &exec.metrics {
            m.polls.add(polls);
            m.polls_per_task_milli.set((polls * 1000 / n as u64) as i64);
            m.tasks_cancelled.add(cancelled as u64);
            m.tasks_abandoned
                .add(outcomes.iter().filter(|o| o.is_abandoned()).count() as u64);
            m.tasks_completed.add(
                outcomes
                    .iter()
                    .filter(|o| matches!(o, SlotOutcome::Completed(_)))
                    .count() as u64,
            );
        }
        if let (Some(tracer), Some(start)) = (&exec.tracer, started) {
            let end = tracer.now_us();
            tracer.record(
                SpanKind::ExecutorWave {
                    backend: "async".into(),
                    tasks: n as u32,
                    workers: self.workers as u32,
                    polls,
                    cancelled: cancelled as u32,
                },
                spec.parent,
                None,
                None,
                start,
                end,
            );
        }
        outcomes
    }

    /// The session's OS worker-thread count (fixed for its lifetime).
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// The cooperative reactor backend: `workers` OS threads multiplex the
/// whole wave, so thousands of simulated slots run in one process with
/// a bounded thread count.
pub struct AsyncExecutor {
    workers: usize,
    tracer: Option<Arc<Tracer>>,
    metrics: Option<ExecMetrics>,
    profiler: Option<Arc<PhaseProfiler>>,
}

impl AsyncExecutor {
    /// Builds the reactor `cfg` sizes (uninstrumented).
    pub fn from_config(cfg: &rcmp_model::ExecutorConfig) -> Self {
        Self::new(cfg.workers)
    }

    /// Creates a reactor with `workers` OS threads; `0` auto-sizes to
    /// the machine's available parallelism.
    pub fn new(workers: u32) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(4)
        } else {
            workers as usize
        };
        Self {
            workers,
            tracer: None,
            metrics: None,
            profiler: None,
        }
    }

    /// Attaches observability: `ExecutorWave` spans on `tracer` and
    /// `exec.*` metrics registered in `registry`.
    pub fn with_obs(mut self, tracer: Arc<Tracer>, registry: &MetricsRegistry) -> Self {
        self.tracer = Some(tracer);
        self.metrics = Some(ExecMetrics::register(registry));
        self
    }

    /// Attaches a phase profiler: reactor poll and park time flow into
    /// [`PhaseKind::ReactorPoll`] / [`PhaseKind::ReactorPark`] at the
    /// end of each wave.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Flushes one wave's accumulated poll/park time into the exec
    /// metrics and the phase profiler (one flush per wave — the hot
    /// loop only touches the wave-local atomics in [`Shared`]).
    fn flush_reactor_time(&self, shared: &Shared) {
        let poll_ns = shared.poll_ns.load(Ordering::Relaxed);
        let park_ns = shared.park_ns.load(Ordering::Relaxed);
        let polls = shared.polls.load(Ordering::Relaxed);
        let parks = shared.parks.load(Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.poll_ns.add(poll_ns);
            m.park_ns.add(park_ns);
        }
        if let Some(p) = &self.profiler {
            p.add_many_ns(PhaseKind::ReactorPoll, poll_ns, polls);
            p.add_many_ns(PhaseKind::ReactorPark, park_ns, parks);
        }
    }

    /// The resolved OS worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a job-scoped [`AsyncSession`]: the worker pool is
    /// spawned once here and serves every wave submitted through the
    /// session, so a multi-wave job pays the thread spawn cost once
    /// instead of per wave (observable as `exec.worker_starts` staying
    /// flat while `exec.waves` climbs).
    ///
    /// A panic inside `f` still shuts the pool down cleanly before
    /// being propagated.
    pub fn with_session<'env, R>(&'env self, f: impl FnOnce(&AsyncSession<'_, 'env>) -> R) -> R {
        let workers = self.workers.max(1);
        if let Some(m) = &self.metrics {
            m.workers.set(workers as i64);
        }
        let shared = SessionShared {
            state: Mutex::new(SessionState::Idle),
            publish: Condvar::new(),
        };
        let result = std::thread::scope(|s| {
            for _ in 0..workers {
                let shared = &shared;
                let metrics = self.metrics.clone();
                s.spawn(move || {
                    if let Some(m) = &metrics {
                        m.worker_starts.inc();
                    }
                    session_worker(shared);
                });
            }
            let session = AsyncSession {
                exec: self,
                shared: &shared,
                workers,
                generation: AtomicU64::new(0),
            };
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&session)));
            {
                let mut st = lock(&shared.state);
                *st = SessionState::Shutdown;
                shared.publish.notify_all();
            }
            out
        });
        match result {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Executes one wave on a pool spawned for it alone — the wave
    /// contract: run every task body at most once, honour the wave's
    /// cancel token, contain task panics as [`SlotOutcome::Abandoned`],
    /// and return one [`SlotOutcome`] per task *in input order*, only
    /// once every task has resolved (the engine processes a wave's
    /// outcomes as a unit before consulting the failure injector again).
    pub fn run_wave<'env, T: Send + 'env>(
        &self,
        spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n).max(1);
        let started = self.tracer.as_ref().map(|t| t.now_us());
        if let Some(m) = &self.metrics {
            m.waves.inc();
            m.workers.set(workers as i64);
        }
        let cancel = CancelToken::new();
        let shared = Arc::new(Shared::new(n, self.metrics.clone()));
        {
            // Seeded-deterministic initial service order.
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng_for(spec.seed, spec.label));
            let mut q = lock(&shared.queue);
            q.extend(order);
            shared.note_depth(q.len());
        }
        let slots: Vec<Mutex<Slot<'env, T>>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                Mutex::new(Slot {
                    fut: Some(TaskFuture::new(
                        t.into_fn(),
                        TaskCtx::new(cancel.clone(), i),
                    )),
                    outcome: None,
                })
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let shared = &shared;
                let slots = &slots;
                s.spawn(move || {
                    if let Some(m) = &shared.metrics {
                        m.worker_starts.inc();
                    }
                    worker_loop(shared, slots);
                });
            }
        });
        self.flush_reactor_time(&shared);
        let polls = shared.polls.load(Ordering::Relaxed);
        let outcomes: Vec<SlotOutcome<T>> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .outcome
                    .unwrap_or(SlotOutcome::Cancelled)
            })
            .collect();
        let cancelled = outcomes.iter().filter(|o| o.is_cancelled()).count();
        if let Some(m) = &self.metrics {
            m.polls.add(polls);
            m.polls_per_task_milli.set((polls * 1000 / n as u64) as i64);
            m.tasks_cancelled.add(cancelled as u64);
            m.tasks_abandoned
                .add(outcomes.iter().filter(|o| o.is_abandoned()).count() as u64);
            m.tasks_completed.add(
                outcomes
                    .iter()
                    .filter(|o| matches!(o, SlotOutcome::Completed(_)))
                    .count() as u64,
            );
        }
        if let (Some(tracer), Some(start)) = (&self.tracer, started) {
            let end = tracer.now_us();
            tracer.record(
                SpanKind::ExecutorWave {
                    backend: "async".into(),
                    tasks: n as u32,
                    workers: workers as u32,
                    polls,
                    cancelled: cancelled as u32,
                },
                spec.parent,
                None,
                None,
                start,
                end,
            );
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn wave(n: usize) -> Vec<SlotTask<'static, usize>> {
        (0..n)
            .map(|i| {
                SlotTask::new(move |ctx: &TaskCtx| {
                    assert_eq!(ctx.index(), i);
                    i * 2
                })
            })
            .collect()
    }

    #[test]
    fn outcomes_are_input_ordered() {
        let exec = AsyncExecutor::new(3);
        let out = exec.run_wave(&WaveSpec::new("t", 7), wave(100));
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o.completed(), Some(i * 2));
        }
    }

    #[test]
    fn polls_are_exactly_two_per_task() {
        let reg = MetricsRegistry::new();
        let exec = AsyncExecutor::new(2).with_obs(Arc::new(Tracer::new()), &reg);
        let out = exec.run_wave(&WaveSpec::new("t", 1), wave(50));
        assert_eq!(out.len(), 50);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.polls"), Some(100));
        assert_eq!(snap.counter("exec.tasks_completed"), Some(50));
        assert_eq!(
            snap.get("exec.polls_per_task_milli"),
            Some(&rcmp_obs::SnapshotValue::Gauge(2000))
        );
    }

    #[test]
    fn single_worker_order_is_seeded() {
        // With one worker the completion order is the seeded shuffle;
        // same seed => same order, different seed => (almost surely)
        // different order.
        let record = |seed: u64| {
            let order = Mutex::new(Vec::new());
            let tasks: Vec<SlotTask<'_, ()>> = (0..32)
                .map(|i| {
                    let order = &order;
                    SlotTask::new(move |_: &TaskCtx| lock(order).push(i))
                })
                .collect();
            AsyncExecutor::new(1).run_wave(&WaveSpec::new("order", seed), tasks);
            order.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        let a = record(5);
        let b = record(5);
        let c = record(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_drains_wave_early() {
        // Single worker: the first task cancels the wave, so every task
        // served after it is skipped.
        let ran = AtomicUsize::new(0);
        let tasks: Vec<SlotTask<'_, ()>> = (0..64)
            .map(|_| {
                let ran = &ran;
                SlotTask::new(move |ctx: &TaskCtx| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    ctx.cancel_wave();
                })
            })
            .collect();
        let out = AsyncExecutor::new(1).run_wave(&WaveSpec::new("c", 3), tasks);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(out.iter().filter(|o| o.is_cancelled()).count(), 63);
    }

    #[test]
    fn panic_abandons_only_that_task() {
        let tasks: Vec<SlotTask<'_, u32>> = (0..8)
            .map(|i| {
                SlotTask::new(move |_: &TaskCtx| {
                    assert!(i != 3, "scripted task panic");
                    i
                })
            })
            .collect();
        let out = AsyncExecutor::new(2).run_wave(&WaveSpec::new("p", 9), tasks);
        assert!(out[3].is_abandoned());
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, SlotOutcome::Completed(_)))
                .count(),
            7
        );
    }

    #[test]
    fn emits_executor_wave_span() {
        let reg = MetricsRegistry::new();
        let tracer = Arc::new(Tracer::new());
        let exec = AsyncExecutor::new(2).with_obs(tracer.clone(), &reg);
        exec.run_wave(&WaveSpec::new("s", 11), wave(10));
        let trace = tracer.snapshot();
        let span = trace.of_kind("ExecutorWave").next().expect("span emitted");
        match &span.kind {
            SpanKind::ExecutorWave {
                backend,
                tasks,
                workers,
                polls,
                cancelled,
            } => {
                assert_eq!(backend, "async");
                assert_eq!(*tasks, 10);
                assert_eq!(*workers, 2);
                assert_eq!(*polls, 20);
                assert_eq!(*cancelled, 0);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn reactor_time_flows_into_metrics_and_profiler() {
        let reg = MetricsRegistry::new();
        let profiler = Arc::new(PhaseProfiler::new(rcmp_obs::Clock::monotonic()));
        let exec = AsyncExecutor::new(2)
            .with_obs(Arc::new(Tracer::new()), &reg)
            .with_profiler(Arc::clone(&profiler));
        let tasks: Vec<SlotTask<'_, ()>> = (0..16)
            .map(|_| {
                SlotTask::new(move |_: &TaskCtx| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
            })
            .collect();
        exec.run_wave(&WaveSpec::new("timed", 1), tasks);
        // 16 × 1 ms of task body runs inside `poll`, so well over a
        // millisecond of poll time must have been attributed.
        assert!(reg.snapshot().counter("exec.poll_ns").unwrap() > 1_000_000);
        assert!(profiler.total_ns(PhaseKind::ReactorPoll) > 1_000_000);
        let polled = profiler.snapshot().entries[PhaseKind::ReactorPoll.index()].count;
        assert_eq!(polled, 32, "two polls per task");
    }

    #[test]
    fn empty_wave_is_a_noop() {
        let out: Vec<SlotOutcome<()>> =
            AsyncExecutor::new(4).run_wave(&WaveSpec::new("e", 0), Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn session_reuses_workers_across_waves() {
        let reg = MetricsRegistry::new();
        let exec = AsyncExecutor::new(2).with_obs(Arc::new(Tracer::new()), &reg);
        let sums: Vec<usize> = exec.with_session(|session| {
            assert_eq!(session.workers(), 2);
            (0..3u64)
                .map(|w| {
                    let out = session.run_wave(&WaveSpec::new("sess", w), wave(8));
                    out.into_iter().map(|o| o.completed().expect("done")).sum()
                })
                .collect()
        });
        assert_eq!(sums, vec![56, 56, 56]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.waves"), Some(3));
        assert_eq!(
            snap.counter("exec.worker_starts"),
            Some(2),
            "the pool must be spawned once per session, not per wave"
        );
        assert_eq!(
            snap.get("exec.workers"),
            Some(&rcmp_obs::SnapshotValue::Gauge(2))
        );
        assert_eq!(snap.counter("exec.tasks_completed"), Some(24));
        assert_eq!(snap.counter("exec.polls"), Some(48));
    }

    #[test]
    fn session_waves_borrow_caller_state() {
        let counter = AtomicUsize::new(0);
        AsyncExecutor::new(3).with_session(|session| {
            for w in 0..4u64 {
                let tasks: Vec<SlotTask<'_, ()>> = (0..16)
                    .map(|_| {
                        let counter = &counter;
                        SlotTask::new(move |_: &TaskCtx| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                session.run_wave(&WaveSpec::new("borrow", w), tasks);
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn session_outcomes_match_standalone_waves() {
        let standalone = AsyncExecutor::new(4).run_wave(&WaveSpec::new("cmp", 21), wave(64));
        let exec = AsyncExecutor::new(4);
        let sessioned = exec.with_session(|s| s.run_wave(&WaveSpec::new("cmp", 21), wave(64)));
        let a: Vec<Option<usize>> = standalone.into_iter().map(SlotOutcome::completed).collect();
        let b: Vec<Option<usize>> = sessioned.into_iter().map(SlotOutcome::completed).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn session_closure_panic_shuts_pool_down_and_propagates() {
        let exec = AsyncExecutor::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.with_session(|_s| panic!("scripted session panic"))
        }));
        assert!(r.is_err(), "the closure panic must propagate");
    }

    #[test]
    fn session_empty_wave_is_a_noop() {
        let exec = AsyncExecutor::new(2);
        let out: Vec<SlotOutcome<()>> =
            exec.with_session(|s| s.run_wave(&WaveSpec::new("e", 0), Vec::new()));
        assert!(out.is_empty());
    }
}
