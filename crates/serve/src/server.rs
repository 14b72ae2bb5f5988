//! The serving loop: admission → slot-aware micro-batching → shared
//! rounds → fan-out.
//!
//! ## Shape
//!
//! [`serve`] owns the whole lifecycle. It spins up `workers` serving
//! loops on an [`rtse_pool::ComputePool`] scope (the workspace's one
//! sanctioned home for OS threads), hands the caller a [`ServerHandle`],
//! and drains cleanly when the caller's closure returns — every pending
//! request resolves; none is silently dropped.
//!
//! ## Batching semantics
//!
//! A request whose slot already has a round younger than its
//! `max_staleness` (default: the TTL) is answered inside
//! [`ServerHandle::submit`], on the submitting thread: it takes no queue
//! slot, no worker hand-off and no batch window, and counts as a batch of
//! one cache hit. A slot whose round is being recomputed reads as not
//! fresh (the read never waits on the build), and a paused server answers
//! nothing inline.
//!
//! Every other request is queued and grouped by slot. A worker that picks
//! up a request also takes every queued request for the same slot. If the
//! slot is already fresh for the batch's strictest member, the batch is
//! answered from the cache at once; otherwise the worker holds it open for
//! [`crate::ServeConfig::batch_window`] to catch stragglers, so misses
//! coalesce. The batch is answered by **one** OCS→crowd→GSP round over the
//! union of the batch's roads: GSP's output covers the whole network, so
//! the shared round answers every waiter exactly as a fresh
//! [`CrowdRtse::answer_query`] for the merged query would — bit-identical
//! (property-tested in `tests/serve_equivalence.rs`). Resolving a queued
//! request unparks the thread that submitted it, so a polling client (the
//! edge shard) can sleep in `std::thread::park_timeout` and wake on its
//! answer.
//!
//! ## Admission control
//!
//! The request queue is bounded ([`crate::ServeError::QueueFull`]; a
//! request the cache answers inline never occupies it),
//! deadlines shed late requests with a typed error before *and* after the
//! round (never a stale estimate), and [`ServerHandle::pressure`] exposes
//! queue occupancy as the backpressure signal.

use crate::cache::{AnswerCache, CacheOutcome, CachedRound, RoundData};
use crate::coherence::Coherence;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::{MetricsSnapshot, ServeMetrics, ServeSnapshot};
use crate::request::{ServeRequest, ServedAnswer, Ticket};
use crowd_rtse_core::{CrowdRtse, PrevRound, SpeedQuery};
use rtse_crowd::WorkerPool;
use rtse_data::{SlotOfDay, SLOTS_PER_DAY};
use rtse_graph::RoadId;
use rtse_obs::Stage;
use rtse_pool::ComputePool;
use rtse_sync::mpsc::{channel, Sender};
use rtse_sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The physical world one serving deployment probes: the live crowd, the
/// per-road answer costs, and the ground truth the simulated workers
/// measure (in a real deployment that last one is reality itself).
pub struct ServeWorld<'w> {
    /// The crowd whose coverage defines the candidate set `R^w`.
    pub workers: &'w WorkerPool,
    /// Per-road answer requirements (length = number of roads).
    pub costs: &'w [u32],
    /// Ground-truth snapshots the campaign's workers observe.
    pub truth: &'w dyn TruthSource,
}

/// Ground-truth provider for the serving loop. Implementations must be
/// cheap (called once per computed round) and thread-safe.
pub trait TruthSource: Sync {
    /// Speeds (one per road) the crowd would measure at `slot`.
    fn snapshot(&self, slot: SlotOfDay) -> &[f64];
}

impl TruthSource for rtse_data::SynthDataset {
    fn snapshot(&self, slot: SlotOfDay) -> &[f64] {
        self.ground_truth_snapshot(slot)
    }
}

type Reply = Result<ServedAnswer, ServeError>;

/// One admitted request waiting in the queue.
struct Pending {
    /// Canonical (sorted, deduplicated) roads.
    roads: Vec<RoadId>,
    slot: SlotOfDay,
    deadline: Option<Instant>,
    max_staleness: Option<Duration>,
    submitted_at: Instant,
    reply: Sender<Reply>,
    /// The thread that queued the request, unparked when it resolves.
    /// `None` for a request answered inline on its submitting thread.
    submitter: Option<Thread>,
}

impl Pending {
    /// Resolves the request's ticket and wakes the thread that queued it.
    fn resolve(&self, reply: Reply) {
        let _ = self.reply.send(reply);
        if let Some(thread) = &self.submitter {
            thread.unpark();
        }
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Gate for staging deterministic bursts (see [`ServerHandle::pause`]).
    paused: bool,
    /// New submissions are admitted only while true.
    accepting: bool,
    /// Workers exit once this is set and the queue is drained.
    shutdown: bool,
}

struct Shared<'a> {
    state: Mutex<QueueState>,
    arrivals: Condvar,
    cache: AnswerCache,
    metrics: ServeMetrics,
    /// Keeps the linked (rounds, generations) updates torn-read-free; see
    /// [`crate::coherence`] and [`ServerHandle::coherent_snapshot`].
    coherence: Coherence,
    engine: &'a CrowdRtse<'a>,
    world: &'a ServeWorld<'a>,
    config: &'a ServeConfig,
}

fn lock<'m>(mutex: &'m Mutex<QueueState>) -> MutexGuard<'m, QueueState> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What [`serve`] returns: the caller closure's value plus the final
/// (quiescent, exact) metrics.
#[derive(Debug)]
pub struct ServeOutcome<R> {
    /// The closure's return value.
    pub value: R,
    /// Counters after the queue fully drained.
    pub metrics: MetricsSnapshot,
}

/// Runs a serving deployment for the duration of `run`.
///
/// Checks the entry contract first — the config's invariants and the
/// world's dimensions — and returns a typed error instead of panicking on
/// a bad setup. Then spawns the serving loops on a pool scope, calls
/// `run` with the [`ServerHandle`] clients submit through, and on return
/// stops admission, drains every pending request (each resolves to an
/// answer or a typed error), joins the loops, and reports final metrics.
pub fn serve<R>(
    engine: &CrowdRtse<'_>,
    world: &ServeWorld<'_>,
    config: &ServeConfig,
    run: impl FnOnce(&ServerHandle<'_>) -> R,
) -> Result<ServeOutcome<R>, ServeError> {
    if let Err(v) = rtse_check::Validate::validate(config) {
        return Err(ServeError::InvalidConfig(v));
    }
    let num_roads = engine.graph().num_roads();
    if world.costs.len() != num_roads {
        return Err(ServeError::WorldMismatch {
            what: "costs",
            expected: num_roads,
            got: world.costs.len(),
        });
    }
    if let Some(max) = world.workers.covered_roads().iter().map(|r| r.index()).max() {
        if max >= num_roads {
            return Err(ServeError::WorldMismatch {
                what: "worker pool coverage",
                expected: num_roads,
                got: max + 1,
            });
        }
    }

    // Prewarm the per-slot correlation caches before any request is
    // admitted: a cold Γ build inside the first batch's compute would
    // stack on the batch window and surface as a `serve.queue_wait` tail
    // for every request queued behind it. `prewarm` builds
    // every row of the slot's table; rows are get-or-init, so duplicate
    // slots coalesce and already-warm slots return immediately.
    for &slot in &config.prewarm_slots {
        let _ = engine.offline().prewarm(engine.graph(), slot);
    }

    let shared = Shared {
        state: Mutex::new(QueueState {
            queue: VecDeque::new(),
            paused: false,
            accepting: true,
            shutdown: false,
        }),
        arrivals: Condvar::new(),
        cache: AnswerCache::new(),
        metrics: ServeMetrics::with_obs(config.obs.clone()),
        coherence: Coherence::new(),
        engine,
        world,
        config,
    };

    let workers = match config.workers {
        0 => rtse_pool::env_threads(),
        n => n,
    };
    // One spare thread keeps the pool multi-threaded even for a single
    // serving loop: at width 1 `ComputePool::scoped` runs jobs inline on
    // submission, which would run the loop on the caller's thread and
    // deadlock before `run` ever executed.
    let pool = ComputePool::new(workers + 1);
    let value = pool.scoped(|scope| {
        for _ in 0..workers {
            let shared = &shared;
            scope.submit(Box::new(move || worker_loop(shared)));
        }
        // Signals shutdown when `run` returns — or unwinds — so the loops
        // always exit and the pool scope always joins.
        let _guard = ShutdownGuard { shared: &shared };
        run(&ServerHandle { shared: &shared })
    });
    Ok(ServeOutcome { value, metrics: shared.metrics.snapshot() })
}

struct ShutdownGuard<'a, 'b> {
    shared: &'a Shared<'b>,
}

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.accepting = false;
        st.shutdown = true;
        st.paused = false;
        drop(st);
        self.shared.arrivals.notify_all();
    }
}

/// Client-side handle: submit queries, observe backpressure and metrics.
/// Shareable across client threads (`&ServerHandle` is `Send + Sync`).
pub struct ServerHandle<'a> {
    shared: &'a Shared<'a>,
}

impl ServerHandle<'_> {
    /// Admits a request, returning a [`Ticket`] that resolves when the
    /// serving workers answer it.
    ///
    /// When the request's slot already has a round younger than its
    /// `max_staleness` (default: the TTL) and the server is not paused,
    /// the request is answered here, on the calling thread, and the
    /// returned ticket has already resolved. Otherwise it is queued, and
    /// the calling thread is unparked when a worker resolves the ticket.
    ///
    /// Typed rejections at admission: an empty road list
    /// ([`ServeError::EmptyQuery`]), an out-of-range road or slot, a full
    /// queue ([`ServeError::QueueFull`] — the backpressure path; only a
    /// request that must queue can hit it), or a draining server
    /// ([`ServeError::ShuttingDown`]).
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, ServeError> {
        let now = Instant::now();
        let config = self.shared.config;
        let query = SpeedQuery::try_new(request.roads, request.slot)?;
        let num_roads = self.shared.engine.graph().num_roads();
        if let Some(&road) = query.roads.iter().find(|r| r.index() >= num_roads) {
            return Err(ServeError::RoadOutOfRange { road, num_roads });
        }
        if query.slot.index() >= SLOTS_PER_DAY {
            return Err(ServeError::SlotOutOfRange { slot: query.slot });
        }
        // Budget bounds are admission checks, not clamps: a hostile
        // deadline must not park a request past the promised freshness,
        // and a loose max_staleness must not let a cached round older
        // than the TTL answer it (the batch freshness bound is the
        // minimum over members — a lone request is its own batch).
        let deadline =
            admit_budget(request.deadline, config.default_deadline, config.deadline_bound())
                .map_err(|(requested, bound)| ServeError::DeadlineOutOfBounds { requested, bound })?
                .and_then(|budget| now.checked_add(budget));
        let max_staleness = admit_budget(request.max_staleness, None, config.staleness_bound())
            .map_err(|(requested, bound)| ServeError::StalenessOutOfBounds { requested, bound })?;
        let (tx, rx) = channel();
        let mut pending = Pending {
            roads: query.roads,
            slot: query.slot,
            deadline,
            max_staleness,
            submitted_at: now,
            reply: tx,
            submitter: None,
        };
        let fresh = self.shared.cache.fresh_round(pending.slot, max_age_of(self.shared, &pending));
        let mut st = lock(&self.shared.state);
        if !st.accepting {
            return Err(ServeError::ShuttingDown);
        }
        match fresh {
            Some(round) if !st.paused => {
                drop(st);
                self.shared.metrics.note_submitted();
                answer_hit(self.shared, pending, round);
            }
            _ => {
                if st.queue.len() >= config.queue_depth {
                    drop(st);
                    self.shared.metrics.note_rejected();
                    return Err(ServeError::QueueFull { depth: config.queue_depth });
                }
                pending.submitter = Some(std::thread::current());
                st.queue.push_back(pending);
                drop(st);
                self.shared.metrics.note_submitted();
                self.shared.arrivals.notify_all();
            }
        }
        Ok(Ticket { rx })
    }

    /// Submits and blocks for the answer — the one-call client path.
    pub fn query(&self, request: ServeRequest) -> Result<ServedAnswer, ServeError> {
        self.submit(request)?.wait()
    }

    /// Queue occupancy in `[0, 1]` — the backpressure signal. Clients
    /// seeing values near 1 should back off before hitting
    /// [`ServeError::QueueFull`].
    pub fn pressure(&self) -> f64 {
        let queued = lock(&self.shared.state).queue.len();
        queued as f64 / self.shared.config.queue_depth.max(1) as f64
    }

    /// Requests currently queued (admitted, not yet picked up).
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Live counters (quiescently consistent; exact after drain).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Current cache generation of a slot (0 = never computed).
    pub fn cache_generation(&self, slot: SlotOfDay) -> u64 {
        self.shared.cache.generation(slot)
    }

    /// One coherent view of the counters *and* the per-slot cache
    /// generations.
    ///
    /// [`Self::metrics`] and [`Self::cache_generation`] are two separate
    /// reads; a round can complete between them, so differencing their
    /// results (e.g. `rounds − Σ generations` as an "in-flight" gauge)
    /// tears. This read runs inside the same coherence section the round
    /// publication writes under, so the returned snapshot always satisfies
    /// `metrics.rounds == total_generations()` — exactly, at any moment
    /// under load, not just after a drain.
    pub fn coherent_snapshot(&self) -> ServeSnapshot {
        self.shared.coherence.read(|| ServeSnapshot {
            metrics: self.shared.metrics.snapshot(),
            generations: self.shared.cache.generations(),
        })
    }

    /// Holds the serving workers: admitted requests queue up but none is
    /// picked up until [`Self::resume`]. Cache hits are held too: a paused
    /// server answers nothing inline, so a request for a fresh slot queues
    /// like any other. Load generators and tests use this to stage a burst
    /// and measure pure coalescing deterministically.
    pub fn pause(&self) {
        lock(&self.shared.state).paused = true;
    }

    /// Releases a [`Self::pause`] gate.
    pub fn resume(&self) {
        lock(&self.shared.state).paused = false;
        self.shared.arrivals.notify_all();
    }
}

/// Admission bound on a client budget (a deadline or a staleness bound):
/// a budget within `bound` is admitted and no budget defers to the
/// server's `default`; a larger one is `Err((requested, bound))` for the
/// caller's typed rejection. The bound applies to client budgets only:
/// the operator configured the default.
fn admit_budget(
    budget: Option<Duration>,
    default: Option<Duration>,
    bound: Duration,
) -> Result<Option<Duration>, (Duration, Duration)> {
    match budget {
        Some(requested) if requested > bound => Err((requested, bound)),
        Some(requested) => Ok(Some(requested)),
        None => Ok(default),
    }
}

/// One serving loop: repeatedly assemble a same-slot batch and answer it.
/// Only a batch that will compute waits out the window: one whose slot is
/// already fresh for its strictest member is answered from the cache at
/// once.
fn worker_loop(shared: &Shared<'_>) {
    while let Some(mut batch) = next_batch(shared) {
        let max_age = strictest_max_age(shared, &batch);
        let fresh = batch.first().and_then(|p| shared.cache.fresh_round(p.slot, max_age));
        if fresh.is_none() {
            extend_batch_over_window(shared, &mut batch);
        }
        serve_batch(shared, batch);
    }
}

/// How fresh a round must be to answer `pending`: its `max_staleness`,
/// defaulting to the TTL.
fn max_age_of(shared: &Shared<'_>, pending: &Pending) -> Duration {
    pending.max_staleness.unwrap_or(shared.config.ttl)
}

/// The freshness bound a group of requests shares: the strictest member's.
fn strictest_max_age(shared: &Shared<'_>, requests: &[Pending]) -> Duration {
    requests.iter().map(|p| max_age_of(shared, p)).min().unwrap_or(shared.config.ttl)
}

/// Blocks until a request is available and returns it together with every
/// queued request for the same slot; `None` once shutdown has drained the
/// queue.
fn next_batch(shared: &Shared<'_>) -> Option<Vec<Pending>> {
    let mut st = lock(&shared.state);
    loop {
        if !st.paused || st.shutdown {
            if let Some(first) = st.queue.pop_front() {
                let slot = first.slot;
                let mut batch = vec![first];
                drain_slot(&mut st.queue, slot, &mut batch);
                return Some(batch);
            }
            if st.shutdown {
                return None;
            }
        }
        st = shared.arrivals.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Moves every queued request for `slot` into `batch` (queue order kept).
fn drain_slot(queue: &mut VecDeque<Pending>, slot: SlotOfDay, batch: &mut Vec<Pending>) {
    let mut i = 0;
    while i < queue.len() {
        if queue[i].slot == slot {
            if let Some(p) = queue.remove(i) {
                batch.push(p);
            }
        } else {
            i += 1;
        }
    }
}

/// Holds the batch open for the configured window, absorbing same-slot
/// stragglers as they arrive. Returns early on shutdown.
fn extend_batch_over_window(shared: &Shared<'_>, batch: &mut Vec<Pending>) {
    let window = shared.config.batch_window;
    if window.is_zero() {
        return;
    }
    let Some(slot) = batch.first().map(|p| p.slot) else { return };
    let Some(until) = Instant::now().checked_add(window) else { return };
    let mut st = lock(&shared.state);
    loop {
        drain_slot(&mut st.queue, slot, batch);
        if st.shutdown {
            return;
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        let (guard, _timed_out) =
            shared.arrivals.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// Answers one same-slot batch from the cache or a single shared round,
/// shedding expired requests with typed errors on both sides of the
/// compute.
fn serve_batch(shared: &Shared<'_>, batch: Vec<Pending>) {
    let now = Instant::now();
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for pending in batch {
        if shed_if_expired(shared, &pending, now) {
            continue;
        }
        // Queue wait measured at pickup: admission to the start of the
        // batch that will answer (or shed) the request.
        shared.config.obs.record_duration(
            Stage::ServeQueueWait,
            now.saturating_duration_since(pending.submitted_at),
        );
        live.push(pending);
    }
    let Some(slot) = live.first().map(|p| p.slot) else { return };

    // The strictest waiter decides how fresh the round must be.
    let max_age = strictest_max_age(shared, &live);

    // Canonical batch query: the union of every waiter's roads. One round
    // over the union answers everyone (GSP output covers the network).
    let mut union: Vec<RoadId> = live.iter().flat_map(|p| p.roads.iter().copied()).collect();
    union.sort_unstable();
    union.dedup();

    // The rounds counter is published inside the same coherence write
    // section as the slot's generation store, keeping
    // `Σ generations == rounds` observable at every instant (see
    // `ServerHandle::coherent_snapshot`).
    let outcome = shared.cache.round_for_published(
        slot,
        max_age,
        &shared.coherence,
        |_generation, stale| compute_round(shared, union, slot, stale),
        || shared.metrics.note_round(),
    );
    match outcome {
        Ok(cached) => {
            let batch_size = live.len();
            shared.metrics.note_batch(batch_size);
            for pending in live {
                respond(shared, pending, &cached, batch_size);
            }
        }
        Err(e) => {
            for pending in live {
                pending.resolve(Err(e.clone()));
            }
        }
    }
}

/// Answers a request inline from a fresh cached round, on the thread that
/// submitted it: a batch of one cache hit whose queue wait is the time from
/// submission to answer.
fn answer_hit(shared: &Shared<'_>, pending: Pending, round: Arc<CachedRound>) {
    shared.config.obs.record_duration(Stage::ServeQueueWait, pending.submitted_at.elapsed());
    shared.metrics.note_batch(1);
    respond(shared, pending, &CacheOutcome { round, hit: true }, 1);
}

/// Sheds `pending` with the typed deadline error if it is past due at
/// `now`. Returns whether it was shed.
fn shed_if_expired(shared: &Shared<'_>, pending: &Pending, now: Instant) -> bool {
    let Some(deadline) = pending.deadline else { return false };
    if now <= deadline {
        return false;
    }
    shared.metrics.note_shed();
    let missed_by = now.saturating_duration_since(deadline);
    pending.resolve(Err(ServeError::DeadlineExceeded { missed_by }));
    true
}

/// Runs the shared OCS→crowd→GSP round for a slot over the merged roads.
///
/// `stale` is the slot's expired previous round, lent by the cache for
/// the duration of the recompute: under a delta policy the engine seeds
/// its propagation from it (`gsp.delta_*` stages), and the first round of
/// a slot — including right after a rollover, since cache cells are
/// per-slot — arrives with `None` and propagates cold.
fn compute_round(
    shared: &Shared<'_>,
    union: Vec<RoadId>,
    slot: SlotOfDay,
    stale: Option<&CachedRound>,
) -> Result<RoundData, ServeError> {
    let truth = shared.world.truth.snapshot(slot);
    let num_roads = shared.engine.graph().num_roads();
    if truth.len() != num_roads {
        return Err(ServeError::WorldMismatch {
            what: "truth snapshot",
            expected: num_roads,
            got: truth.len(),
        });
    }
    let prev =
        stale.map(|round| PrevRound { values: &round.values, observations: &round.observations });
    let query = SpeedQuery::new(union, slot);
    let _span = shared.config.obs.span(Stage::ServeRound);
    let answer = shared.engine.answer_query_warm(
        &query,
        shared.world.workers,
        shared.world.costs,
        truth,
        &shared.config.online,
        prev,
    );
    Ok(RoundData { values: answer.all_values, observations: answer.observations })
}

/// Fans one waiter's answer out of the shared round, re-checking its
/// deadline so a request that expired *during* the round still gets the
/// typed rejection and never a late estimate.
fn respond(shared: &Shared<'_>, mut pending: Pending, cached: &CacheOutcome, batch_size: usize) {
    let now = Instant::now();
    if shed_if_expired(shared, &pending, now) {
        return;
    }
    // Sized fill, not `collect`: the answer length is known up front and
    // this runs once per waiter per round (`cargo xtask flow` hot-alloc
    // discipline; see DESIGN.md §10).
    let mut estimates: Vec<f64> = Vec::with_capacity(pending.roads.len());
    estimates.extend(pending.roads.iter().map(|r| cached.round.values[r.index()]));
    let answer = ServedAnswer {
        roads: std::mem::take(&mut pending.roads),
        estimates,
        slot: pending.slot,
        generation: cached.round.generation,
        age: now.saturating_duration_since(cached.round.computed_at),
        batch_size,
        cache_hit: cached.hit,
        wait: now.saturating_duration_since(pending.submitted_at),
    };
    #[cfg(feature = "validate")]
    {
        if let Err(v) = rtse_check::Validate::validate(&answer) {
            rtse_check::fail(&v);
        }
    }
    shared.metrics.note_answered(cached.hit);
    pending.resolve(Ok(answer));
}
