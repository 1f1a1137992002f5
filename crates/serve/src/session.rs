//! The serving layer: many client sessions, one engine.
//!
//! [`ServeKv`] is the concurrent front-end over a [`picl_store::Engine`].
//! Mutations take one of N key-shard locks — the shard owning the key's
//! home line, reusing the engine's image sharding — so disjoint-key
//! writers proceed in parallel. A shard-confined writer only ever claims
//! free lines inside its own shard ([`slots::put_within`]); the rare
//! mutation that needs foreign lines (a spanning value overflowing its
//! shard, or an insert whose probe terminates elsewhere) escalates:
//! release, take *every* shard lock in index order, retry unconfined.
//! Lookups take *no* lock at all: they run the optimistic slot assembly
//! from [`picl_store::slots`] against the engine's sharded image, retry
//! on detected contention, and serialize against the key's shard lock
//! only if a writer keeps racing them.
//!
//! Epoch cadence is tracked by a global atomic mutation clock. The writer
//! whose mutation trips the cadence becomes the *group-commit leader*: it
//! acquires all shard locks (ordered, so it cannot deadlock against an
//! escalated writer) and holds them only across the engine's publish in
//! [`picl_store::Engine::commit_epoch_async`] — seal the boundary block,
//! hand dirty lines to the persister, flip the epoch — and the per-session
//! counter snapshot. The engine then calls the leader back, the leader
//! *releases the shards*, and only after that does the engine write and
//! fence the boundary block; the leader then waits out the in-order
//! window (only when it is actually full). Followers run on into the next
//! executing epoch while the leader absorbs the block's I/O and the rare
//! persist stall; the engine's background persister does its media I/O
//! outside every lock throughout.
//!
//! Per-session completed-op counters feed the kill -9 oracle: the commit
//! hook reports, for each committed epoch, a safe lower bound of how far
//! each session's stream had executed. The bound survives sharding
//! because a mutation bumps its counters *inside* its shard critical
//! section and the leader snapshots while holding every shard lock — any
//! count the snapshot observes belongs to a mutation whose critical
//! section ended before the leader took the locks, hence before the
//! epoch boundary, hence inside the committed epoch. A parent that kills
//! the process judges the recovered store per session against those
//! bounds (see `picl-crashlab`'s serve mode).
//!
//! [`FsyncKv`] is the comparison baseline: the same slot table over a
//! plain file, with an `fdatasync` after every mutation and no undo log,
//! no epochs, and no crash-consistency story.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use picl_obs::Counter;
use picl_store::engine::{Engine, EngineConfig, EngineStats, OpenReport, StoreError};
use picl_store::kv::KvPairs;
use picl_store::persist::PersistOps;
use picl_store::slots::{self, Deletion, Lines, Lookup, Placement};
use picl_telemetry::Telemetry;
use picl_types::stats::Histogram;
use picl_types::LINE_BYTES;

use crate::obs::{ServeObs, Stamp};

const LINE: usize = LINE_BYTES as usize;

/// Optimistic lookup attempts before falling back to the shard lock.
const LOOKUP_RETRIES: usize = 64;

/// Preload puts per epoch commit. The serving cadence (often single-digit)
/// would pay one drain-and-fence commit stall every few keys; first-write-
/// per-line deduplication caps any epoch's undo traffic at `lines` entries,
/// which the validated log geometry always accommodates, so preload can
/// batch hundreds of puts into each epoch safely. The batch is kept
/// moderate on purpose: each preload epoch's dirty lines are what the
/// persister must retire before the in-order window reopens, so oversized
/// batches (thousands of multi-slot records) turn every preload commit
/// into a long window stall and dominate the commit-stall tail.
/// [`Backend::end_preload`] commits the tail so none of this batch debt
/// leaks into the timed phase.
pub const PRELOAD_BATCH: u64 = 256;

/// Called once per epoch commit, in eid order, with `(epoch id,
/// per-session completed-op counts)` — the counts snapshotted under every
/// shard lock at the boundary — after the boundary block's fence and any
/// in-order-window wait, with no shard lock held.
pub type CommitHook = Box<dyn Fn(u64, &[u64]) + Send + Sync>;

/// A KV backend the load harness can drive from many session threads.
pub trait Backend: Sync {
    /// Inserts or overwrites, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn put(&self, session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Looks up, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn get(&self, session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;
    /// Deletes if present, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn delete(&self, session: usize, key: &[u8]) -> Result<bool, StoreError>;
    /// Untimed bulk insert for the load phase (may relax per-op
    /// durability; [`FsyncKv`] skips its per-mutation fence here).
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Marks the preload/timed-phase boundary: settle whatever durability
    /// debt the relaxed [`Backend::preload`] path deferred, so the first
    /// timed-phase epoch (or fence) carries only timed-phase work.
    /// [`ServeKv`] commits the batched-epoch tail; [`FsyncKv`] issues the
    /// one fence it skipped per preload mutation.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn end_preload(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// What a shard-confined mutation attempt decided.
enum Attempt<R> {
    /// Completed inside the shard.
    Done(R),
    /// Needs lines outside the shard; retry under every shard lock.
    Escalate,
}

/// The concurrent serving front-end over one PiCL engine.
pub struct ServeKv {
    engine: Engine,
    mutations_per_epoch: u64,
    /// Key-shard mutation locks, one per engine image shard. A mutation
    /// holds the shard of its key's home line; cross-shard claims
    /// escalate to all locks in index order.
    shards: Vec<Mutex<()>>,
    /// Global mutation clock; the writer that trips the epoch cadence
    /// leads the group commit.
    mutations: AtomicU64,
    /// Preload-phase mutation clock ([`PRELOAD_BATCH`] cadence).
    preload_mutations: AtomicU64,
    /// Preload clock value already flushed by [`Backend::end_preload`]
    /// (makes the boundary flush idempotent).
    preload_flushed: AtomicU64,
    session_ops: Vec<AtomicU64>,
    commit_hook: Option<CommitHook>,
    /// Highest epoch acknowledged through the commit hook. Leaders ack
    /// strictly in eid order, and only after their in-order-window wait:
    /// an acknowledged epoch is therefore always within `window` of the
    /// durable frontier, which is the RPO bound the crash oracle holds a
    /// streamed `commit <eid>` line to.
    acked: Mutex<u64>,
    acked_cv: Condvar,
    /// Serving-layer instruments, registered beside the engine's at open.
    /// Boxed: every op reads these handles, so they stay off the cache
    /// lines of the mutation clock every writer bumps.
    obs: Box<ServeObs>,
}

impl std::fmt::Debug for ServeKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeKv")
            .field("sessions", &self.session_ops.len())
            .field("shards", &self.shards.len())
            .field("mutations_per_epoch", &self.mutations_per_epoch)
            .finish_non_exhaustive()
    }
}

impl ServeKv {
    /// Opens a store for serving. Epochs close every
    /// `mutations_per_epoch` *mutations* (lookups are lock-free and do
    /// not advance the epoch clock, unlike the embedded
    /// [`picl_store::Kv`]'s every-op count).
    ///
    /// # Errors
    ///
    /// Propagates engine open/recovery failures; rejects a zero epoch
    /// cadence or zero sessions.
    pub fn open(
        medium: Arc<dyn PersistOps>,
        cfg: EngineConfig,
        telemetry: Telemetry,
        mutations_per_epoch: u64,
        sessions: usize,
    ) -> Result<(ServeKv, OpenReport), StoreError> {
        if mutations_per_epoch == 0 {
            return Err(StoreError::Config(
                "mutations_per_epoch must be >= 1".into(),
            ));
        }
        if sessions == 0 {
            return Err(StoreError::Config("need at least one session".into()));
        }
        let (engine, report) = Engine::open(medium, cfg, telemetry)?;
        let shard_count = engine.image_shard_count();
        let (_, committed, _) = engine.frontiers();
        let obs = Box::new(ServeObs::register(engine.registry(), shard_count));
        Ok((
            ServeKv {
                engine,
                mutations_per_epoch,
                shards: (0..shard_count).map(|_| Mutex::new(())).collect(),
                mutations: AtomicU64::new(0),
                preload_mutations: AtomicU64::new(0),
                preload_flushed: AtomicU64::new(0),
                session_ops: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
                commit_hook: None,
                acked: Mutex::new(committed),
                acked_cv: Condvar::new(),
                obs,
            },
            report,
        ))
    }

    /// Installs the per-commit hook (before the store is shared).
    pub fn set_commit_hook(&mut self, hook: CommitHook) {
        self.commit_hook = Some(hook);
    }

    /// Shares the store's instruments (engine and serving layer, counting
    /// since open) into `registry` and switches on the per-op timers, on
    /// the default 1-in-[`crate::obs::DEFAULT_SAMPLE_EVERY`] sample.
    /// Call before the store is shared.
    pub fn enable_obs(&mut self, registry: &picl_obs::MetricsRegistry) {
        self.enable_obs_sampled(registry, crate::obs::DEFAULT_SAMPLE_EVERY);
    }

    /// [`ServeKv::enable_obs`] with an explicit timing-sample rate
    /// (a power of two; 1 times every op — deterministic, for tests).
    pub fn enable_obs_sampled(&mut self, registry: &picl_obs::MetricsRegistry, every: u64) {
        self.obs.start_timers(every);
        registry.adopt(self.engine.registry());
    }

    /// The underlying engine (frontiers, stats, and the registry holding
    /// every instrument of this store).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// How many key-shard mutation locks this store runs with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Mutations executed per shard (striped counters, lock-free reads).
    pub fn shard_mutation_counts(&self) -> Vec<u64> {
        self.obs.shard_ops.iter().map(Counter::value).collect()
    }

    /// Mutations that escalated to all shard locks.
    pub fn escalation_count(&self) -> u64 {
        self.obs.escalations.value()
    }

    /// Completed operations per session (monotone, lock-free reads).
    pub fn session_counts(&self) -> Vec<u64> {
        self.session_ops
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    /// Wall-clock nanoseconds each epoch commit cost its leader (the
    /// boundary publish, the boundary block's write and fence, and the
    /// in-order-window stall when the window was full). The tail of this
    /// histogram is the epoch-persist stall a writer can observe;
    /// followers never wait on it.
    pub fn commit_stalls(&self) -> Histogram {
        self.obs.commit_leader_ns.snapshot()
    }

    fn bump(&self, session: usize) {
        self.session_ops[session].fetch_add(1, Ordering::Release);
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        self.engine
            .image_shard_of_line(slots::home_line(self.engine.geometry().lines, key))
    }

    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, ()> {
        self.shards[shard].lock().expect("serve shard poisoned")
    }

    /// Every shard lock, acquired in index order — the one global order
    /// shared with escalated writers, so leaders and escalations cannot
    /// deadlock.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ()>> {
        self.shards
            .iter()
            .map(|m| m.lock().expect("serve shard poisoned"))
            .collect()
    }

    /// Group-commit leader path: closes the executing epoch. All shard
    /// locks are held across the engine's publish and the counter
    /// snapshot (the oracle's lower-bound rule) and nothing more: the
    /// engine calls back once the boundary is published, the callback
    /// snapshots the counts and drops every shard guard, and only then
    /// does the engine write and fence the boundary block. Followers run
    /// on into the next executing epoch while the leader absorbs the
    /// block's I/O and, when the window is actually full, the in-order
    /// window wait.
    ///
    /// The commit hook fires only *after* the block's fence and the
    /// window wait, and strictly in eid order across pipelined leaders:
    /// an acknowledged epoch is always within `window` of the durable
    /// frontier (the counts it carries are still the boundary snapshot).
    /// Acknowledging at the boundary instead would let a crash during the
    /// wait lose more epochs than the RPO bound admits to an observer of
    /// the hook. A leader whose epoch was published takes its ack turn
    /// even when the block's write or the wait failed — without firing
    /// the hook — since a pipelined leader behind it waits for that turn.
    ///
    /// The stall histogram records the commit's own cost — the timer
    /// starts once the shard locks are held, so it covers the publish,
    /// the boundary block's write and any in-order-window wait, not the
    /// queueing behind in-flight mutations and not the ack sequencing
    /// behind earlier leaders.
    fn lead_commit(&self) -> Result<u64, StoreError> {
        let obs = &self.obs;
        let all = self.lock_all();
        let t0 = Instant::now();
        let mut issued = None;
        let written = self.engine.commit_epoch_async(|ticket| {
            let counts = self.commit_hook.is_some().then(|| self.session_counts());
            obs.commit_publish_ns.record(t0.elapsed().as_nanos() as u64);
            drop(all);
            issued = Some((ticket, counts));
        });
        let Some((ticket, counts)) = issued else {
            // Failed before the publish: no eid was taken.
            return written.map(|ticket| ticket.eid);
        };
        let waited = written.and_then(|ticket| {
            if !ticket.window_full {
                return Ok(());
            }
            let w0 = Instant::now();
            let waited = self.engine.wait_window(ticket);
            obs.commit_window_ns.record(w0.elapsed().as_nanos() as u64);
            waited
        });
        let ns = t0.elapsed().as_nanos() as u64;
        {
            // Take the ack turn even on a dead engine — skipping it would
            // wedge every later leader behind a hole in the eid sequence.
            let a0 = Instant::now();
            let mut acked = self.acked.lock().expect("ack sequencer poisoned");
            while *acked + 1 != ticket.eid {
                acked = self.acked_cv.wait(acked).expect("ack sequencer poisoned");
            }
            obs.commit_ack_wait_ns
                .record(a0.elapsed().as_nanos() as u64);
            if waited.is_ok() {
                if let (Some(hook), Some(counts)) = (&self.commit_hook, &counts) {
                    hook(ticket.eid, counts);
                }
            }
            *acked = ticket.eid;
            self.acked_cv.notify_all();
        }
        waited?;
        obs.commit_leader_ns.record(ns);
        Ok(ticket.eid)
    }

    /// Commits the executing epoch now (end-of-run flush, or a manual
    /// boundary).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn commit(&self) -> Result<u64, StoreError> {
        self.lead_commit()
    }

    /// Runs one mutation under its key-shard lock (escalating to all
    /// locks when the op needs foreign lines), counts it on `clock`, and
    /// leads a group commit when the count trips `cadence`. Returns the
    /// op's result and whether it escalated.
    fn mutate_counted<R>(
        &self,
        session: usize,
        key: &[u8],
        clock: &AtomicU64,
        cadence: u64,
        op: impl Fn(&Engine, Option<(u32, u32)>) -> Result<Attempt<R>, StoreError>,
    ) -> Result<(R, bool), StoreError> {
        let shard = self.shard_of(key);
        let obs = &self.obs;
        // Scaled by the sample rate, so the counter's total stays an
        // unbiased hold-time estimate.
        let note_hold = |held: Option<Stamp<'_>>| {
            if let Some(h) = held {
                obs.shard_lock_hold_ns[shard].add(h.elapsed_ns() * obs.sample_every());
            }
        };
        let (out, count, escalated) = {
            // One sampling decision covers the wait and hold timers, so
            // a sampled mutation is timed end to end: the stamp times
            // the lock wait, then restarts to time the hold.
            let mut timer = obs.sample_timer();
            let guard = self.lock_shard(shard);
            if let Some(t) = &mut timer {
                obs.shard_lock_wait_ns.record(t.lap());
            }
            match op(&self.engine, Some(self.engine.image_shard_span(shard)))? {
                Attempt::Done(out) => {
                    // Count while still holding the lock: a completed
                    // op's mutation is always included in any commit
                    // whose leader-held snapshot observes the count —
                    // exactly the lower-bound property the crash oracle
                    // needs.
                    obs.shard_ops[shard].inc();
                    self.bump(session);
                    let count = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    note_hold(timer);
                    drop(guard);
                    (out, count, false)
                }
                Attempt::Escalate => {
                    // Release first: an escalated writer acquires the
                    // locks in index order from a clean slate, the same
                    // order the leader uses.
                    drop(guard);
                    let all = self.lock_all();
                    if let Some(t) = &mut timer {
                        t.lap();
                    }
                    obs.escalations.inc();
                    let out = match op(&self.engine, None)? {
                        Attempt::Done(out) => out,
                        Attempt::Escalate => {
                            unreachable!("unconfined mutations never escalate")
                        }
                    };
                    obs.shard_ops[shard].inc();
                    self.bump(session);
                    let count = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    note_hold(timer);
                    drop(all);
                    (out, count, true)
                }
            }
        };
        // Lead outside every shard lock: the leader re-acquires them all.
        if count.is_multiple_of(cadence) {
            self.lead_commit()?;
        }
        Ok((out, escalated))
    }

    fn mutate<R>(
        &self,
        session: usize,
        key: &[u8],
        op: impl Fn(&Engine, Option<(u32, u32)>) -> Result<Attempt<R>, StoreError>,
    ) -> Result<(R, bool), StoreError> {
        self.mutate_counted(session, key, &self.mutations, self.mutations_per_epoch, op)
    }

    /// All live pairs, sorted (takes every shard lock; not for hot
    /// paths).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn scan(&self) -> Result<KvPairs, StoreError> {
        let _all = self.lock_all();
        slots::scan(&self.engine)
    }

    /// Closes the store (persists the committed backlog; the executing
    /// epoch's work stays volatile, as a crash would leave it).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn close(self) -> Result<EngineStats, StoreError> {
        self.engine.close()
    }
}

/// Optimistic lookup with bounded retries, then one serialized retry
/// *under* the guard `fallback` returns (any guard that excludes the
/// key's writer). With the writer excluded the record cannot be
/// mid-mutation, so the serialized attempt is authoritative: a healthy
/// record is returned, and only a *still*-torn record is reported as
/// `Corrupt`. The flag in the result says whether the lookup had to
/// fall back to the serialized retry (the contended outcome).
fn lookup_with_fallback<L: Lines, G>(
    store: &L,
    key: &[u8],
    fallback: impl FnOnce() -> G,
) -> Result<(Option<Vec<u8>>, bool), StoreError> {
    for _ in 0..LOOKUP_RETRIES {
        match slots::lookup(store, key)? {
            Lookup::Found { value, .. } => return Ok((Some(value), false)),
            Lookup::Missing { .. } => return Ok((None, false)),
            Lookup::Contended => std::hint::spin_loop(),
        }
    }
    // A writer kept racing this record; serialize against it once and
    // re-run the lookup while the guard is held.
    let _guard = fallback();
    match slots::lookup(store, key)? {
        Lookup::Found { value, .. } => Ok((Some(value), true)),
        Lookup::Missing { .. } => Ok((None, true)),
        Lookup::Contended => Err(StoreError::Corrupt(
            "record stayed torn with the writer excluded".into(),
        )),
    }
}

impl Backend for ServeKv {
    fn put(&self, session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let t0 = self.obs.sample_timer();
        let ((), escalated) = self.mutate(session, key, |engine, range| {
            Ok(match slots::put_within(engine, key, value, range)? {
                Placement::Done(_) => Attempt::Done(()),
                Placement::Escalate => Attempt::Escalate,
            })
        })?;
        if let Some(t0) = t0 {
            let h = if escalated {
                &self.obs.put_escalated
            } else {
                &self.obs.put_ok
            };
            h.record(t0.elapsed_ns());
        }
        Ok(())
    }

    fn get(&self, session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let t0 = self.obs.sample_timer();
        // The key's shard lock excludes every writer that could mutate
        // this record (escalated writers hold all shards), so it is a
        // sufficient fallback guard.
        let (out, fell_back) =
            lookup_with_fallback(&self.engine, key, || self.lock_shard(self.shard_of(key)))?;
        self.bump(session);
        if let Some(t0) = t0 {
            let h = if fell_back {
                &self.obs.get_contended
            } else if out.is_some() {
                &self.obs.get_hit
            } else {
                &self.obs.get_miss
            };
            h.record(t0.elapsed_ns());
        }
        Ok(out)
    }

    fn delete(&self, session: usize, key: &[u8]) -> Result<bool, StoreError> {
        let t0 = self.obs.sample_timer();
        let (deleted, _) = self.mutate(session, key, |engine, _| {
            // Deletes only tombstone lines the record already owns, which
            // is safe from any shard's critical section.
            Ok(Attempt::Done(matches!(
                slots::delete(engine, key)?,
                Deletion::Deleted { .. }
            )))
        })?;
        if let Some(t0) = t0 {
            let h = if deleted {
                &self.obs.delete_deleted
            } else {
                &self.obs.delete_missing
            };
            h.record(t0.elapsed_ns());
        }
        Ok(deleted)
    }

    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        // Same sharded put path, attributed to session 0, but on the
        // batched [`PRELOAD_BATCH`] epoch cadence: commits still happen
        // (the undo log needs them to recycle), just thousands of keys
        // apart instead of every few mutations.
        self.mutate_counted(
            0,
            key,
            &self.preload_mutations,
            PRELOAD_BATCH,
            |engine, range| {
                Ok(match slots::put_within(engine, key, value, range)? {
                    Placement::Done(_) => Attempt::Done(()),
                    Placement::Escalate => Attempt::Escalate,
                })
            },
        )
        .map(|(out, _)| out)
    }

    fn end_preload(&self) -> Result<(), StoreError> {
        // Commit the preload tail (anything since the last PRELOAD_BATCH
        // boundary) so the first timed-phase epoch carries only
        // timed-phase undo entries. Idempotent: an already-flushed clock
        // value (or a batch-aligned one) owes nothing.
        let count = self.preload_mutations.load(Ordering::Acquire);
        if !count.is_multiple_of(PRELOAD_BATCH)
            && self.preload_flushed.swap(count, Ordering::AcqRel) != count
        {
            self.lead_commit()?;
        }
        Ok(())
    }
}

/// The fdatasync-only baseline: the same slot table over a flat file,
/// one fence per mutation, no undo log, no epochs, no recovery. What a
/// legacy store does when you bolt durability on without PiCL.
pub struct FsyncKv {
    medium: Arc<dyn PersistOps>,
    lines: u32,
    image: RwLock<Vec<u8>>,
    /// Serializes mutations (and their fences).
    table: Mutex<()>,
}

impl std::fmt::Debug for FsyncKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsyncKv")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl FsyncKv {
    /// Opens the baseline over `medium`, formatting `lines` empty slots
    /// (the baseline has no recovery story to preserve).
    ///
    /// # Errors
    ///
    /// Rejects a medium smaller than the table.
    pub fn open(medium: Arc<dyn PersistOps>, lines: u32) -> Result<FsyncKv, StoreError> {
        if lines == 0 {
            return Err(StoreError::Config("need at least one line".into()));
        }
        let needed = u64::from(lines) * LINE as u64;
        if medium.len() < needed {
            return Err(StoreError::Config(format!(
                "medium of {} bytes is too small for {lines} lines ({needed})",
                medium.len()
            )));
        }
        Ok(FsyncKv {
            medium,
            lines,
            image: RwLock::new(vec![0u8; lines as usize * LINE]),
            table: Mutex::new(()),
        })
    }

    fn fence(&self) -> Result<(), StoreError> {
        self.medium
            .fence()
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// All live pairs, sorted.
    ///
    /// # Errors
    ///
    /// Propagates medium failures.
    pub fn scan(&self) -> Result<KvPairs, StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::scan(self)
    }
}

impl Lines for FsyncKv {
    fn line_count(&self) -> u32 {
        self.lines
    }

    fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
        let image = self.image.read().expect("fsync image poisoned");
        let at = line as usize * LINE;
        let mut out = [0u8; LINE];
        out.copy_from_slice(&image[at..at + LINE]);
        Ok(out)
    }

    fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
        {
            let mut image = self.image.write().expect("fsync image poisoned");
            let at = line as usize * LINE;
            image[at..at + LINE].copy_from_slice(data);
        }
        self.medium
            .persist(u64::from(line) * LINE as u64, data)
            .map_err(|e| StoreError::Io(e.to_string()))
    }
}

impl Backend for FsyncKv {
    fn put(&self, _session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::put(self, key, value)?;
        self.fence()
    }

    fn get(&self, _session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        lookup_with_fallback(self, key, || {
            self.table.lock().expect("fsync table poisoned")
        })
        .map(|(out, _)| out)
    }

    fn delete(&self, _session: usize, key: &[u8]) -> Result<bool, StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        let deleted = matches!(slots::delete(self, key)?, Deletion::Deleted { .. });
        self.fence()?;
        Ok(deleted)
    }

    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::put(self, key, value).map(|_| ())
    }

    fn end_preload(&self) -> Result<(), StoreError> {
        // One fence settles every preload put this backend skipped the
        // per-mutation fence for.
        self.fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_store::layout::Geometry;
    use picl_store::persist::CountingMedium;

    fn open_serve(sessions: usize, mutations_per_epoch: u64) -> (ServeKv, Arc<CountingMedium>) {
        let cfg = EngineConfig {
            lines: 256,
            log_blocks: 64,
            ..EngineConfig::default()
        };
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(CountingMedium::new(g.total_len()));
        let (kv, _) = ServeKv::open(
            Arc::clone(&medium) as _,
            cfg,
            Telemetry::off(),
            mutations_per_epoch,
            sessions,
        )
        .unwrap();
        (kv, medium)
    }

    #[derive(Default)]
    struct GateState {
        closed: bool,
        /// Log-region persists that have reached the gate so far.
        log_persists: usize,
        /// Fail the next fence of the thread whose log persist passes
        /// the gate next.
        fail_log_fence: bool,
        doomed: Option<std::thread::ThreadId>,
    }

    /// A counting medium whose log-region persists block while the gate
    /// is closed, so a test holds a commit leader inside its boundary
    /// block write for as long as it needs.
    struct LogGate {
        inner: CountingMedium,
        log_start: u64,
        state: Mutex<GateState>,
        changed: Condvar,
    }

    impl LogGate {
        fn gate(&self) -> MutexGuard<'_, GateState> {
            self.state.lock().unwrap()
        }

        /// Closes the gate until the returned guard drops (also on a
        /// failed assertion, so a gated leader never outlives its test).
        fn close(&self) -> GateClosed<'_> {
            self.gate().closed = true;
            GateClosed(self)
        }

        fn await_log_persists(&self, n: usize) {
            let mut gate = self.gate();
            while gate.log_persists < n {
                gate = self.changed.wait(gate).unwrap();
            }
        }
    }

    struct GateClosed<'a>(&'a LogGate);

    impl Drop for GateClosed<'_> {
        fn drop(&mut self) {
            self.0.gate().closed = false;
            self.0.changed.notify_all();
        }
    }

    impl PersistOps for LogGate {
        fn persist(&self, offset: u64, data: &[u8]) -> std::io::Result<()> {
            if offset >= self.log_start {
                let mut gate = self.gate();
                gate.log_persists += 1;
                self.changed.notify_all();
                while gate.closed {
                    gate = self.changed.wait(gate).unwrap();
                }
                if std::mem::take(&mut gate.fail_log_fence) {
                    gate.doomed = Some(std::thread::current().id());
                }
            }
            self.inner.persist(offset, data)
        }

        fn fence(&self) -> std::io::Result<()> {
            if self.gate().doomed == Some(std::thread::current().id()) {
                return Err(std::io::Error::other("injected fence failure"));
            }
            self.inner.fence()
        }

        fn read(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read(offset, buf)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn stats(&self) -> picl_store::persist::PersistStats {
            self.inner.stats()
        }
    }

    /// A two-session store over a [`LogGate`] whose commit hook logs the
    /// acknowledged eids.
    fn open_gated(mutations_per_epoch: u64) -> (ServeKv, Arc<LogGate>, Arc<Mutex<Vec<u64>>>) {
        let cfg = EngineConfig {
            lines: 256,
            log_blocks: 64,
            ..EngineConfig::default()
        };
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(LogGate {
            inner: CountingMedium::new(g.total_len()),
            log_start: g.log_slot_off(0),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        });
        let (mut kv, _) = ServeKv::open(
            Arc::clone(&medium) as _,
            cfg,
            Telemetry::off(),
            mutations_per_epoch,
            2,
        )
        .unwrap();
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&acks);
        kv.set_commit_hook(Box::new(move |eid, _| sink.lock().unwrap().push(eid)));
        (kv, medium, acks)
    }

    /// Polls until `done` holds, for at most five seconds.
    fn within_5s(done: impl Fn() -> bool) -> bool {
        let t0 = Instant::now();
        while !done() {
            if t0.elapsed() > std::time::Duration::from_secs(5) {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn followers_run_while_the_leader_writes_the_boundary_block() {
        let (kv, medium, acks) = open_gated(2);
        let leader_key = b"leader".as_slice();
        let other_key = (0..)
            .map(|i| format!("other{i}").into_bytes())
            .find(|k| kv.shard_of(k) != kv.shard_of(leader_key))
            .unwrap();
        kv.put(1, &other_key, b"before").unwrap();
        std::thread::scope(|s| {
            let closed = medium.close();
            // The second mutation trips the cadence: this put leads
            // epoch 1's commit and blocks inside its boundary write.
            let leader = s.spawn(|| kv.put(0, leader_key, b"v"));
            medium.await_log_persists(1);
            let follower = s.spawn(|| {
                kv.put(1, &other_key, b"after")?;
                kv.get(1, &other_key)
            });
            assert!(
                within_5s(|| follower.is_finished()),
                "a follower waited on the leader's boundary write"
            );
            assert_eq!(follower.join().unwrap().unwrap(), Some(b"after".to_vec()));
            assert!(!leader.is_finished(), "the boundary write is still gated");
            assert!(
                acks.lock().unwrap().is_empty(),
                "epoch 1 acknowledged before its boundary block was fenced"
            );
            drop(closed);
            leader.join().unwrap().unwrap();
        });
        assert_eq!(*acks.lock().unwrap(), [1]);
        kv.put(0, leader_key, b"w").unwrap();
        assert_eq!(*acks.lock().unwrap(), [1, 2], "one ack per eid, in order");
        kv.close().unwrap();
    }

    #[test]
    fn a_failed_boundary_fence_fails_the_leader_and_every_later_one() {
        let (kv, medium, acks) = open_gated(1000);
        kv.put(0, b"k", b"v").unwrap();
        std::thread::scope(|s| {
            let closed = medium.close();
            medium.gate().fail_log_fence = true;
            let first = s.spawn(|| kv.commit());
            medium.await_log_persists(1);
            // A pipelined leader publishes epoch 2 (an empty buffer needs
            // no drain) while epoch 1's boundary block is gated, then
            // queues for its ack turn behind epoch 1.
            let second = s.spawn(|| kv.commit());
            assert!(
                within_5s(|| kv.engine().frontiers().1 == 2),
                "the second leader never published"
            );
            drop(closed);
            let err = first.join().unwrap().unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "{err:?}");
            assert!(
                within_5s(|| second.is_finished()),
                "the second leader hangs on the ack sequencer"
            );
            assert!(second.join().unwrap().is_err());
        });
        assert!(acks.lock().unwrap().is_empty(), "a failed epoch was acked");
        assert!(kv.commit().is_err(), "a dead engine takes no new commit");
        assert!(kv.close().is_err());
    }

    #[test]
    fn sessions_share_one_table() {
        let (kv, _) = open_serve(2, 4);
        kv.put(0, b"from-zero", b"a").unwrap();
        kv.put(1, b"from-one", b"b").unwrap();
        assert_eq!(kv.get(1, b"from-zero").unwrap(), Some(b"a".to_vec()));
        assert_eq!(kv.get(0, b"from-one").unwrap(), Some(b"b".to_vec()));
        assert!(kv.delete(0, b"from-one").unwrap());
        assert_eq!(kv.get(1, b"from-one").unwrap(), None);
        assert_eq!(kv.session_counts(), vec![3, 3]);
        assert_eq!(kv.shard_mutation_counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn concurrent_sessions_settle_consistently() {
        // N writer sessions hammer disjoint keys while a reader session
        // spins lock-free lookups; the final scan must match the sum of
        // what the writers wrote.
        let (kv, _) = open_serve(4, 8);
        let per_session = 50u64;
        std::thread::scope(|s| {
            for sid in 0..3usize {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..per_session {
                        let key = format!("s{sid}-k{:02}", i % 10);
                        let val = format!("v{sid}-{i:03}-{}", "x".repeat((i as usize * 7) % 150));
                        kv.put(sid, key.as_bytes(), val.as_bytes()).unwrap();
                        if i % 7 == 0 {
                            kv.delete(sid, key.as_bytes()).unwrap();
                        }
                    }
                });
            }
            let kv = &kv;
            s.spawn(move || {
                for i in 0..200u64 {
                    let key = format!("s{}-k{:02}", i % 3, i % 10);
                    // Any consistent answer is fine; torn reads are not.
                    let _ = kv.get(3, key.as_bytes()).unwrap();
                }
            });
        });
        kv.commit().unwrap();
        let pairs = kv.scan().unwrap();
        for (k, v) in &pairs {
            let k = String::from_utf8_lossy(k);
            let v = String::from_utf8_lossy(v);
            assert!(v.starts_with(&format!("v{}", &k[1..2])), "{k} -> {v}");
        }
        let counts = kv.session_counts();
        assert!(counts[..3].iter().all(|&c| c >= per_session));
        assert_eq!(counts[3], 200);
        kv.close().unwrap();
    }

    #[test]
    fn commit_hook_reports_monotone_lower_bounds() {
        let (mut kv, _) = open_serve(2, 2);
        type CommitLog = Vec<(u64, Vec<u64>)>;
        let seen: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        kv.set_commit_hook(Box::new(move |eid, counts| {
            sink.lock().unwrap().push((eid, counts.to_vec()));
        }));
        for i in 0..8u32 {
            kv.put((i % 2) as usize, format!("k{i}").as_bytes(), b"v")
                .unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "8 mutations at cadence 2");
        let mut last_eid = 0;
        let mut last_total = 0;
        for (eid, counts) in seen.iter() {
            assert!(*eid > last_eid);
            let total: u64 = counts.iter().sum();
            assert!(total >= last_total, "counts are monotone");
            last_eid = *eid;
            last_total = total;
        }
    }

    #[test]
    fn spanning_values_escalate_across_shards_correctly() {
        // 64 lines over 16 shards = 4 lines per shard; a 255-byte value
        // needs 5 slots, so every spanning put must escalate and still
        // land correctly.
        let cfg = EngineConfig {
            lines: 64,
            log_blocks: 32,
            ..EngineConfig::default()
        };
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(CountingMedium::new(g.total_len()));
        let (kv, _) = ServeKv::open(medium, cfg, Telemetry::off(), 8, 1).unwrap();
        assert_eq!(kv.shard_count(), 16);
        let big = vec![0xAB_u8; 255];
        for i in 0..4u32 {
            kv.put(0, format!("span{i}").as_bytes(), &big).unwrap();
        }
        assert!(
            kv.escalation_count() >= 4,
            "4-line shards cannot hold a 5-slot record without escalating"
        );
        for i in 0..4u32 {
            assert_eq!(
                kv.get(0, format!("span{i}").as_bytes()).unwrap(),
                Some(big.clone())
            );
        }
        assert_eq!(kv.scan().unwrap().len(), 4);
        kv.close().unwrap();
    }

    /// A `Lines` whose reads of one record stay torn (version-skewed)
    /// until the fallback guard is taken — deterministic reproduction of
    /// a writer that outruns every optimistic retry.
    struct TornUntilExcluded {
        slots: Vec<[u8; LINE]>,
        cont_line: u32,
        calm: std::sync::atomic::AtomicBool,
    }

    impl TornUntilExcluded {
        fn calm_guard(&self) {
            self.calm.store(true, Ordering::Release);
        }
    }

    impl Lines for TornUntilExcluded {
        fn line_count(&self) -> u32 {
            self.slots.len() as u32
        }

        fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
            let mut out = self.slots[line as usize];
            if line == self.cont_line && !self.calm.load(Ordering::Acquire) {
                // Skew the continuation's version so assembly always
                // detects a (fake) racing writer.
                out[3] = out[3].wrapping_add(1);
            }
            Ok(out)
        }

        fn write_slot(&self, _line: u32, _data: &[u8; LINE]) -> Result<(), StoreError> {
            unreachable!("lookup never writes")
        }
    }

    #[test]
    fn contended_get_returns_value_once_writer_excluded() {
        // Build a real spanning record on a scratch table, then serve
        // reads through the torn wrapper.
        let scratch = {
            use std::cell::RefCell;
            struct Mem(RefCell<Vec<[u8; LINE]>>);
            impl Lines for Mem {
                fn line_count(&self) -> u32 {
                    self.0.borrow().len() as u32
                }
                fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
                    Ok(self.0.borrow()[line as usize])
                }
                fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
                    self.0.borrow_mut()[line as usize] = *data;
                    Ok(())
                }
            }
            let mem = Mem(RefCell::new(vec![[0u8; LINE]; 16]));
            slots::put(&mem, b"torn", &[7u8; 40]).unwrap();
            mem.0.into_inner()
        };
        let cont_line = scratch
            .iter()
            .position(|s| s[0] == slots::SLOT_CONT)
            .expect("a 40-byte value spans into one continuation") as u32;
        let store = TornUntilExcluded {
            slots: scratch,
            cont_line,
            calm: std::sync::atomic::AtomicBool::new(false),
        };
        // Every optimistic round sees the version skew; the fallback
        // guard "excludes the writer" (calms the skew), and the
        // serialized retry must then return the value — the pre-fix
        // helper returned Corrupt here without ever retrying.
        let (got, fell_back) =
            lookup_with_fallback(&store, b"torn", || store.calm_guard()).unwrap();
        assert_eq!(got, Some(vec![7u8; 40]));
        assert!(fell_back, "the optimistic rounds were all contended");
    }

    #[test]
    fn preload_tail_commits_at_the_phase_boundary() {
        let (kv, _) = open_serve(1, 4);
        for i in 0..10u32 {
            kv.preload(format!("pre{i}").as_bytes(), b"warm").unwrap();
        }
        let (_, committed_before, _) = kv.engine().frontiers();
        assert_eq!(committed_before, 0, "10 preloads sit below PRELOAD_BATCH");
        kv.end_preload().unwrap();
        let (_, committed, _) = kv.engine().frontiers();
        assert_eq!(committed, 1, "end_preload commits the tail");
        // Aligned preloads leave no tail: end_preload is then a no-op.
        kv.end_preload().unwrap();
        let (_, committed, _) = kv.engine().frontiers();
        assert_eq!(committed, 1);
        kv.close().unwrap();
    }

    #[test]
    fn obs_records_op_outcomes_and_shard_traffic() {
        let (mut kv, _) = open_serve(2, 4);
        let reg = picl_obs::MetricsRegistry::new();
        // Sample every op so the per-outcome counts below are exact.
        kv.enable_obs_sampled(&reg, 1);
        kv.put(0, b"seen", b"v").unwrap();
        kv.put(0, b"seen", b"v2").unwrap();
        assert_eq!(kv.get(1, b"seen").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(kv.get(1, b"gone").unwrap(), None);
        assert!(kv.delete(0, b"seen").unwrap());
        assert!(!kv.delete(0, b"seen").unwrap());
        kv.commit().unwrap();
        let snap = reg.snapshot();
        let sojourn = |op: &str, outcome: &str| {
            snap.histogram(
                "picl_serve_op_sojourn_ns",
                &[("op", op), ("outcome", outcome)],
            )
            .map_or(0, Histogram::count)
        };
        assert_eq!(sojourn("put", "ok") + sojourn("put", "escalated"), 2);
        assert_eq!(sojourn("get", "hit") + sojourn("get", "contended"), 1);
        assert_eq!(sojourn("get", "miss"), 1);
        assert_eq!(sojourn("delete", "deleted"), 1);
        assert_eq!(sojourn("delete", "missing"), 1);
        // The 4 mutations all landed on some shard, and the engine-side
        // instruments came along for the ride.
        assert_eq!(snap.counter_total("picl_serve_shard_ops_total"), 4);
        assert!(snap.gauge("picl_store_open_epochs", &[]).is_some());
        assert!(
            snap.histogram("picl_serve_commit_publish_ns", &[])
                .is_some_and(|h| h.count() >= 1),
            "the explicit commit led at least one group commit"
        );
    }

    #[test]
    fn counters_run_from_open_and_carry_across_enable_obs() {
        let (mut kv, _) = open_serve(2, 4);
        let sojourns = |snap: &picl_obs::Snapshot| {
            snap.merged_histogram("picl_serve_op_sojourn_ns", &[])
                .count()
        };
        // No registry attached: the counters are exact already, and the
        // per-op timers have not recorded anything.
        for i in 0..5u32 {
            kv.put(0, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert!(kv.delete(1, b"k0").unwrap());
        assert_eq!(kv.shard_mutation_counts().iter().sum::<u64>(), 6);
        assert_eq!(kv.commit_stalls().count(), 1, "the 4th mutation led");
        let home = kv.engine().registry().snapshot();
        assert_eq!(home.counter_total("picl_serve_shard_ops_total"), 6);
        assert_eq!(home.counter("picl_store_commits_total", &[]), Some(1));
        assert_eq!(home.gauge("picl_serve_timing_sample_every", &[]), Some(0));
        assert_eq!(sojourns(&home), 0);

        let reg = picl_obs::MetricsRegistry::new();
        kv.enable_obs_sampled(&reg, 1);
        for i in 0..3u32 {
            kv.put(1, format!("m{i}").as_bytes(), b"v").unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("picl_serve_shard_ops_total"), 6 + 3);
        assert_eq!(kv.shard_mutation_counts().iter().sum::<u64>(), 9);
        assert_eq!(snap.gauge("picl_serve_timing_sample_every", &[]), Some(1));
        assert_eq!(sojourns(&snap), 3);
        let undo = snap.counter("picl_store_undo_entries_total", &[]);
        assert_eq!(undo, Some(kv.engine().stats().undo_entries));
        kv.close().unwrap();
    }

    #[test]
    fn fsync_baseline_round_trips() {
        let medium = Arc::new(CountingMedium::new(64 * LINE as u64));
        let kv = FsyncKv::open(medium, 64).unwrap();
        kv.preload(b"warm", b"start").unwrap();
        kv.end_preload().unwrap();
        kv.put(0, b"a", &[7u8; 200]).unwrap();
        assert_eq!(kv.get(0, b"a").unwrap(), Some(vec![7u8; 200]));
        assert_eq!(kv.get(0, b"warm").unwrap(), Some(b"start".to_vec()));
        assert!(kv.delete(0, b"a").unwrap());
        assert_eq!(kv.get(0, b"a").unwrap(), None);
        assert_eq!(kv.scan().unwrap().len(), 1);
    }
}
