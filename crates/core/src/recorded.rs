//! Execute once, price everywhere.
//!
//! Nothing a simulated group *executes* depends on its device: the
//! workload is generated from `(benchmark, size, seed)`, its kernels run
//! on the host, and the serial verify reads the result back. The device
//! only prices what was asked of it — allocation sizes, transfer bytes and
//! one [`KernelProfile`] per launch. A [`RecordedRun`] is that request
//! list, taken once from a live run by a recording
//! [`Context`]; a [`Source`] is what a measurement group iterates, and it
//! is either the live workload (tapped, when this group is the one that
//! records) or a recorded run priced on the group's own queue.
//!
//! Recorded runs live in the process-wide [`RunLog`], keyed by everything
//! that selects executed code ([`RunKey`]). The first requester of a key
//! leads: it runs live and publishes. Requesters that arrive meanwhile
//! wait for that one recording instead of repeating it; if the leader
//! fails they take over, one at a time. Failed runs are never stored.
//!
//! **Pricing is bit-exact.** `Event::duration()` is `(start + cost) −
//! start` on the absolute queue clock, so a priced group must issue the
//! same clock advances in the same order as a live one: set-up transfers,
//! first-iteration launches, verify reads, then the sample loop, with one
//! noise draw per launch. [`Source`] keeps the phases in that order and
//! `CommandQueue::enqueue_recorded` shares the live path's pricing code.

use crate::benchmark::{Benchmark, IterationOutput, Workload};
use crate::sizes::ProblemSize;
use eod_clrt::prelude::*;
use eod_devsim::profile::KernelProfile;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The device-independent part of one measurement group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedRun {
    /// `Workload::setup`: allocations, then host→device transfers.
    pub setup: Vec<Command>,
    /// The first iteration (executed for real unless model-only).
    pub first: Vec<Command>,
    /// `Workload::verify`: the reads of the serial check; empty if the
    /// run was not verified.
    pub verify: Vec<Command>,
    /// One steady-state iteration in replay mode; every later iteration
    /// enqueues the same list.
    pub replay: Vec<Command>,
    /// `Workload::footprint_bytes`.
    pub footprint_bytes: u64,
    /// Wall time `Workload::setup` took on the host when it was recorded.
    pub host_setup: Duration,
    /// Whether the first iteration passed the serial verify.
    pub verified: bool,
}

impl RecordedRun {
    /// The first iteration's kernel profiles, in launch order.
    pub fn profiles(&self) -> impl Iterator<Item = &KernelProfile> {
        self.first.iter().filter_map(|c| match c {
            Command::Kernel { profile, .. } => Some(profile),
            _ => None,
        })
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + [&self.setup, &self.first, &self.verify, &self.replay]
                .into_iter()
                .flatten()
                .map(Command::heap_bytes)
                .sum::<usize>()
    }
}

/// What a [`RecordedRun`] is a function of: the workload's identity plus
/// every switch that selects the code a live run executes. The two
/// process-wide switches belong here because their equivalence tests run
/// one group under both settings — were they left out, the second run
/// would be a hit and the test would compare a recording with itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    benchmark: String,
    size: ProblemSize,
    seed: u64,
    /// A verified run, or a model-only one (first iteration unchecked).
    verified: bool,
    /// The one device property the dwarfs read (`local_1d`).
    max_work_group_size: usize,
    backend: BackendKind,
    kernel_path: KernelPath,
}

impl RunKey {
    /// The key of `benchmark × size × seed` as `device` would run it now.
    pub fn new(
        benchmark: &str,
        size: ProblemSize,
        seed: u64,
        verified: bool,
        device: &Device,
    ) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            size,
            seed,
            verified,
            max_work_group_size: device.max_work_group_size(),
            backend: default_backend(),
            kernel_path: default_kernel_path(),
        }
    }

    /// The key whose run also answers this one: a verified run carries
    /// everything a model-only request reads.
    fn verified_twin(&self) -> Option<Self> {
        (!self.verified).then(|| Self {
            verified: true,
            ..self.clone()
        })
    }
}

/// Budget of [`RunLog::global`]: recorded commands held, in bytes. A
/// figure set needs well under 1 MiB (nw large, the longest list, is
/// ≈ 200 KiB); a stream of never-repeated seeds fills it and then evicts.
pub const RUN_LOG_BUDGET_BYTES: usize = 32 << 20;

struct Slot {
    key: Arc<RunKey>,
    run: Arc<RecordedRun>,
    bytes: usize,
    /// Tick of the last use; the matching `recency` entry is the live one.
    used: u64,
}

#[derive(Default)]
struct State {
    runs: HashMap<Arc<RunKey>, Slot>,
    /// Keys a leader is recording right now.
    recording: HashSet<RunKey>,
    /// `(tick, key)` per use, oldest first. A key used again leaves its
    /// earlier entries behind as stale; eviction skips them, and they are
    /// swept once they outnumber the live ones.
    recency: VecDeque<(u64, Arc<RunKey>)>,
    tick: u64,
    bytes: usize,
}

impl State {
    fn touch(&mut self, key: &RunKey) -> Option<Arc<RecordedRun>> {
        let slot = self.runs.get_mut(key)?;
        self.tick += 1;
        slot.used = self.tick;
        let run = Arc::clone(&slot.run);
        self.recency.push_back((self.tick, Arc::clone(&slot.key)));
        if self.recency.len() > 2 * self.runs.len() + 64 {
            let runs = &self.runs;
            self.recency
                .retain(|(tick, key)| runs.get(key).is_some_and(|s| s.used == *tick));
        }
        Some(run)
    }

    /// Store `run`, which holds `bytes`, evicting least recently used
    /// entries past `budget`; a run that alone exceeds it is not kept.
    fn insert(&mut self, key: RunKey, run: Arc<RecordedRun>, bytes: usize, budget: usize) {
        if bytes > budget {
            return;
        }
        let key = Arc::new(key);
        self.tick += 1;
        let slot = Slot {
            key: Arc::clone(&key),
            run,
            bytes,
            used: self.tick,
        };
        if let Some(old) = self.runs.insert(Arc::clone(&key), slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.recency.push_back((self.tick, key));
        while self.bytes > budget {
            let (tick, oldest) = self.recency.pop_front().expect("bytes held imply a use");
            if self.runs.get(&oldest).is_some_and(|s| s.used == tick) {
                self.bytes -= self.runs.remove(&oldest).expect("just found").bytes;
            }
        }
    }
}

/// Occupancy and traffic of a [`RunLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLogStats {
    /// Recorded runs held.
    pub entries: u64,
    /// Bytes of recorded commands held.
    pub bytes: u64,
    /// Requests answered by a stored run (after a wait, if it was being
    /// recorded when they arrived).
    pub hits: u64,
    /// Requests that found nothing and led a recording.
    pub misses: u64,
}

/// The bounded, content-addressed store of recorded runs: least recently
/// used out first, constant-time insert, one recording per key at a time.
pub struct RunLog {
    state: Mutex<State>,
    /// Signalled when a recording is published or abandoned.
    settled: Condvar,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What [`RunLog::acquire`] hands a requester.
pub enum Acquired<'a> {
    /// Someone recorded this run; price it.
    Hit(Arc<RecordedRun>),
    /// Nobody has: run live, then [`Lead::publish`].
    Lead(Lead<'a>),
}

/// The duty to record one key. Dropping it — published or not — releases
/// the waiters; unpublished (the run failed) it leaves no entry and one of
/// them leads next.
pub struct Lead<'a> {
    log: &'a RunLog,
    key: RunKey,
}

impl Lead<'_> {
    /// Store `run`, unless it falls short of what the key promises: a
    /// verified key needs a verified run, and every run its steady-state
    /// iteration.
    pub fn publish(self, mut run: RecordedRun) -> Option<Arc<RecordedRun>> {
        if run.verified != self.key.verified || run.replay.is_empty() {
            return None;
        }
        for list in [
            &mut run.setup,
            &mut run.first,
            &mut run.verify,
            &mut run.replay,
        ] {
            list.shrink_to_fit();
        }
        let bytes =
            run.heap_bytes() + self.key.benchmark.capacity() + std::mem::size_of::<RunKey>();
        let run = Arc::new(run);
        self.log
            .lock()
            .insert(self.key.clone(), Arc::clone(&run), bytes, self.log.budget);
        Some(run)
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock still holds a valid set.
        let mut state = self.log.state.lock().unwrap_or_else(|e| e.into_inner());
        state.recording.remove(&self.key);
        drop(state);
        self.log.settled.notify_all();
    }
}

impl RunLog {
    /// An empty log holding at most `budget` bytes of recorded commands.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            state: Mutex::default(),
            settled: Condvar::new(),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide log every simulated group goes through.
    pub fn global() -> &'static RunLog {
        static GLOBAL: OnceLock<RunLog> = OnceLock::new();
        GLOBAL.get_or_init(|| RunLog::with_budget(RUN_LOG_BUDGET_BYTES))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("run log lock poisoned")
    }

    /// The run for `key`, or the duty to record it. While another
    /// requester is recording a run that would answer `key`, wait for it —
    /// until `deadline`, past which the answer is `None`.
    pub fn acquire(&self, key: RunKey, deadline: Option<Instant>) -> Option<Acquired<'_>> {
        let twin = key.verified_twin();
        let mut state = self.lock();
        loop {
            let hit = twin
                .as_ref()
                .and_then(|t| state.touch(t))
                .or_else(|| state.touch(&key));
            if let Some(run) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Acquired::Hit(run));
            }
            let pending = state.recording.contains(&key)
                || twin.as_ref().is_some_and(|t| state.recording.contains(t));
            if !pending {
                state.recording.insert(key.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Some(Acquired::Lead(Lead { log: self, key }));
            }
            state = match deadline {
                None => self.settled.wait(state).expect("run log lock poisoned"),
                Some(at) => {
                    let left = at.checked_duration_since(Instant::now())?;
                    let (state, _) = self
                        .settled
                        .wait_timeout(state, left)
                        .expect("run log lock poisoned");
                    state
                }
            };
        }
    }

    /// Occupancy and traffic so far.
    pub fn stats(&self) -> RunLogStats {
        let state = self.lock();
        RunLogStats {
            entries: state.runs.len() as u64,
            bytes: state.bytes as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// What a measurement group iterates through its phases — set-up, first
/// iteration, verify, then the sample loop: the live workload, or a
/// recorded run priced on the group's queue. Call the phases in that
/// order; on a simulated device every iteration after the first must be
/// enqueued in replay mode (`CommandQueue::set_replay`), which is what
/// makes the second one the steady state the run records.
pub struct Source {
    backing: Backing,
    /// `run_iteration` calls so far.
    iterations: usize,
    origin: &'static str,
}

enum Backing {
    Live {
        workload: Box<dyn Workload>,
        /// Filled phase by phase from the context's tape.
        run: RecordedRun,
        lead: Option<Lead<'static>>,
    },
    Log(Arc<RecordedRun>),
}

impl Source {
    /// The source for `benchmark × size × seed` on `device`: the native
    /// device always runs live and records nothing; a simulated one prices
    /// the recorded run if the [`RunLog::global`] has it (waiting for a
    /// recording in flight), and otherwise runs live and records. `None`
    /// when `deadline` passed during that wait.
    pub fn acquire(
        benchmark: &dyn Benchmark,
        size: ProblemSize,
        seed: u64,
        verified: bool,
        device: &Device,
        deadline: Option<Instant>,
    ) -> Option<Self> {
        let lead = if device.is_native() {
            None
        } else {
            let key = RunKey::new(benchmark.name(), size, seed, verified, device);
            match RunLog::global().acquire(key, deadline)? {
                Acquired::Hit(run) => {
                    return Some(Self {
                        backing: Backing::Log(run),
                        iterations: 0,
                        origin: "hit",
                    })
                }
                Acquired::Lead(lead) => Some(lead),
            }
        };
        let workload = benchmark.workload(size, seed);
        Some(Self {
            origin: if lead.is_some() { "recorded" } else { "live" },
            backing: Backing::Live {
                run: RecordedRun {
                    footprint_bytes: workload.footprint_bytes(),
                    ..RecordedRun::default()
                },
                workload,
                lead,
            },
            iterations: 0,
        })
    }

    /// `"hit"` (priced from the log), `"recorded"` (ran live and led the
    /// recording) or `"live"` (native: never logged).
    pub fn origin(&self) -> &'static str {
        self.origin
    }

    /// The context this source's group must run in: a recording one when
    /// the group leads a recording.
    pub fn context(&self, device: Device) -> Context {
        match &self.backing {
            Backing::Live { lead: Some(_), .. } => Context::recording(device),
            _ => Context::new(device),
        }
    }

    fn run(&self) -> &RecordedRun {
        match &self.backing {
            Backing::Live { run, .. } => run,
            Backing::Log(run) => run,
        }
    }

    /// `Workload::footprint_bytes` of the live or the recorded workload.
    pub fn footprint_bytes(&self) -> u64 {
        self.run().footprint_bytes
    }

    /// Host wall time of set-up, once [`Source::setup`] has returned: as
    /// just measured when live, as measured by the recording when priced.
    pub fn host_setup(&self) -> Duration {
        self.run().host_setup
    }

    /// `Workload::setup` on the queue's context: its transfer events.
    pub fn setup(&mut self, queue: &CommandQueue) -> Result<Vec<Event>> {
        match &mut self.backing {
            Backing::Live {
                workload,
                run,
                lead,
            } => {
                let started = Instant::now();
                let events = workload.setup(queue.context(), queue)?;
                run.host_setup = started.elapsed();
                run.setup = tap(lead, queue, Some(&events[..]));
                Ok(events)
            }
            Backing::Log(run) => price(&run.setup, queue),
        }
    }

    /// `Workload::run_iteration`.
    pub fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        let nth = self.iterations;
        self.iterations += 1;
        let (out, published) = match &mut self.backing {
            Backing::Live {
                workload,
                run,
                lead,
            } => {
                let out = workload.run_iteration(queue)?;
                let published = match nth {
                    0 => {
                        run.first = tap(lead, queue, Some(&out.events[..]));
                        None
                    }
                    1 => {
                        run.replay = tap(lead, queue, Some(&out.events[..]));
                        queue.context().finish_recording();
                        lead.take()
                            .and_then(|lead| lead.publish(std::mem::take(run)))
                    }
                    _ => None,
                };
                (out, published)
            }
            Backing::Log(run) => {
                let list = if nth == 0 { &run.first } else { &run.replay };
                (IterationOutput::new(price(list, queue)?), None)
            }
        };
        // The recording is complete and stored: drop the workload and its
        // buffers and read the rest of the loop from the log, as every
        // other group with this key will.
        if let Some(run) = published {
            self.backing = Backing::Log(run);
        }
        Ok(out)
    }

    /// `Workload::verify`: on a recorded run, its reads priced and the
    /// recording's verdict.
    pub fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        match &mut self.backing {
            Backing::Live {
                workload,
                run,
                lead,
            } => {
                workload.verify(queue)?;
                run.verify = tap(lead, queue, None);
                run.verified = true;
                Ok(())
            }
            Backing::Log(run) => {
                price(&run.verify, queue).map_err(|e| e.to_string())?;
                if run.verified {
                    Ok(())
                } else {
                    Err("the recorded run was not verified".into())
                }
            }
        }
    }
}

/// Take the phase that just ran off the context's tape. A phase whose
/// returned events are not exactly the queue commands it enqueued cannot
/// be reproduced from the tape (the runner sums the *returned* events), so
/// such a run gives up its lead and stays unrecorded.
fn tap(
    lead: &mut Option<Lead<'static>>,
    queue: &CommandQueue,
    events: Option<&[Event]>,
) -> Vec<Command> {
    let commands = queue.context().take_recorded();
    if lead.is_some() && events.is_some_and(|events| !mirrors(&commands, events)) {
        *lead = None;
        queue.context().finish_recording();
    }
    commands
}

fn mirrors(commands: &[Command], events: &[Event]) -> bool {
    let mut enqueued = commands.iter().filter_map(|c| match c {
        Command::Write { .. } => Some((CommandKind::WriteBuffer, "write")),
        Command::Read { .. } => Some((CommandKind::ReadBuffer, "read")),
        Command::Kernel { name, .. } => Some((CommandKind::Kernel, name.as_str())),
        Command::Alloc { .. } | Command::Free { .. } => None,
    });
    events
        .iter()
        .all(|e| enqueued.next() == Some((e.kind, e.name.as_str())))
        && enqueued.next().is_none()
}

fn price(commands: &[Command], queue: &CommandQueue) -> Result<Vec<Event>> {
    let mut events = Vec::with_capacity(commands.len());
    for command in commands {
        events.extend(queue.enqueue_recorded(command)?);
    }
    Ok(events)
}

/// The simulated device a model-only recording is made on. Any catalog
/// device would do — a recorded run is device-independent — but pinning
/// one keeps the path deterministic and its documentation honest.
pub const REFERENCE_DEVICE: &str = "i7-6700K";

/// The recorded run of `benchmark × size × seed` for readers that want
/// its profiles and sizes, not a measurement: from the log if any group
/// has recorded it (a verified run serves), else recorded now on the
/// [`REFERENCE_DEVICE`] — set up for real, then two iterations in replay
/// mode, so no kernel body runs.
pub fn model_only_run(
    benchmark: &dyn Benchmark,
    size: ProblemSize,
    seed: u64,
) -> std::result::Result<Arc<RecordedRun>, String> {
    let device = Platform::simulated()
        .device_by_name(REFERENCE_DEVICE)
        .expect("reference device is in the catalog");
    let mut source =
        Source::acquire(benchmark, size, seed, false, &device, None).expect("no deadline to pass");
    if let Backing::Log(run) = &source.backing {
        return Ok(Arc::clone(run));
    }
    let ctx = source.context(device);
    let queue = CommandQueue::new(&ctx).with_profiling();
    source.setup(&queue).map_err(|e| e.to_string())?;
    queue.set_replay(true);
    for _ in 0..2 {
        source.run_iteration(&queue).map_err(|e| e.to_string())?;
    }
    match source.backing {
        Backing::Log(run) => Ok(run),
        Backing::Live { .. } => Err(format!(
            "{} {} cannot be recorded: an iteration enqueued nothing, or returned other events than it enqueued",
            benchmark.name(),
            size.label()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn key(seed: u64, verified: bool) -> RunKey {
        RunKey::new("crc", ProblemSize::Tiny, seed, verified, &Device::native())
    }

    /// A run of `launches` launches per iteration, verified or not.
    fn run(launches: usize, verified: bool) -> RecordedRun {
        let launch = Command::Kernel {
            name: "k".into(),
            profile: KernelProfile::new("k"),
        };
        RecordedRun {
            setup: vec![Command::Alloc { bytes: 64 }, Command::Write { bytes: 64 }],
            first: vec![launch.clone(); launches],
            verify: if verified {
                vec![Command::Read { bytes: 64 }]
            } else {
                Vec::new()
            },
            replay: vec![launch; launches],
            footprint_bytes: 64,
            host_setup: Duration::from_micros(5),
            verified,
        }
    }

    fn lead(log: &RunLog, key: RunKey) -> Lead<'_> {
        match log.acquire(key, None) {
            Some(Acquired::Lead(lead)) => lead,
            _ => panic!("expected to lead"),
        }
    }

    fn hit(log: &RunLog, key: RunKey) -> Arc<RecordedRun> {
        match log.acquire(key, None) {
            Some(Acquired::Hit(run)) => run,
            _ => panic!("expected a hit"),
        }
    }

    #[test]
    fn ten_thousand_distinct_seeds_stay_under_the_budget() {
        let budget = 256 << 10;
        let log = RunLog::with_budget(budget);
        let one = run(4, true).heap_bytes();
        for seed in 0..10_000u64 {
            lead(&log, key(seed, true)).publish(run(4, true)).unwrap();
            let stats = log.stats();
            assert!(stats.bytes <= budget as u64, "seed {seed}: {stats:?}");
            assert!(stats.entries >= 1);
            // Seed 0 is asked for now and then; least recently *used* goes
            // first, so it outlives thousands of younger entries.
            if seed % 100 == 0 {
                assert_eq!(*hit(&log, key(0, true)), run(4, true), "seed {seed}");
            }
        }
        let stats = log.stats();
        assert!(stats.entries as usize >= budget / (2 * one), "{stats:?}");
        assert_eq!((stats.misses, stats.hits), (10_000, 100));
        hit(&log, key(9_999, true));
        assert!(
            matches!(log.acquire(key(5_000, true), None), Some(Acquired::Lead(_))),
            "evicted"
        );
        // The use queue is swept, not left to grow with every hit.
        for _ in 0..100_000 {
            hit(&log, key(9_999, true));
        }
        let state = log.lock();
        assert!(state.recency.len() <= 2 * state.runs.len() + 65);
    }

    #[test]
    fn a_run_larger_than_the_budget_is_not_kept() {
        let log = RunLog::with_budget(4 << 10);
        lead(&log, key(0, true)).publish(run(2, true)).unwrap();
        let held = (log.stats().entries, log.stats().bytes);
        let big = lead(&log, key(1, true)).publish(run(64, true));
        assert!(big.is_some(), "the leader still gets its run");
        let now = (log.stats().entries, log.stats().bytes);
        assert_eq!(now, held, "and what was stored stays");
        hit(&log, key(0, true));
    }

    #[test]
    fn a_verified_run_answers_model_only_requests_but_not_the_reverse() {
        let log = RunLog::with_budget(1 << 20);
        lead(&log, key(1, false)).publish(run(2, false)).unwrap();
        assert!(!hit(&log, key(1, false)).verified);
        lead(&log, key(1, true)).publish(run(2, true)).unwrap();
        assert!(hit(&log, key(1, true)).verified);
        assert!(hit(&log, key(1, false)).verified, "the verified run serves");
        // Another seed, backend or kernel path is another run.
        assert!(matches!(
            log.acquire(key(2, false), None),
            Some(Acquired::Lead(_))
        ));
    }

    #[test]
    fn a_run_short_of_its_key_is_not_stored() {
        let log = RunLog::with_budget(1 << 20);
        assert!(lead(&log, key(1, true)).publish(run(2, false)).is_none());
        let mut never_iterated = run(2, true);
        never_iterated.replay.clear();
        assert!(lead(&log, key(1, true)).publish(never_iterated).is_none());
        assert_eq!(log.stats().entries, 0);
    }

    #[test]
    fn waiters_share_one_recording_and_take_over_a_failed_one() {
        let log = RunLog::with_budget(1 << 20);
        let waiters = 4;
        let first = lead(&log, key(7, true));
        let arrived = Barrier::new(waiters + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..waiters)
                .map(|_| {
                    scope.spawn(|| {
                        arrived.wait();
                        match log.acquire(key(7, true), None).unwrap() {
                            // The first leader failed: exactly one waiter
                            // takes over, records and publishes.
                            Acquired::Lead(lead) => {
                                lead.publish(run(3, true)).unwrap();
                                true
                            }
                            Acquired::Hit(run) => {
                                assert_eq!(*run, super::tests::run(3, true));
                                false
                            }
                        }
                    })
                })
                .collect();
            arrived.wait();
            // A waiter whose budget runs out stops waiting, empty-handed.
            let soon = Instant::now() + Duration::from_millis(20);
            assert!(log.acquire(key(7, true), Some(soon)).is_none());
            // So does a model-only request the pending verified run would serve.
            let soon = Instant::now() + Duration::from_millis(1);
            assert!(log.acquire(key(7, false), Some(soon)).is_none());
            drop(first);
            let led = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&led| led)
                .count();
            assert_eq!(led, 1);
        });
        let stats = log.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.misses, 2,
            "the failed lead and the one that took over"
        );
        assert_eq!(stats.hits, waiters as u64 - 1);
    }
}
