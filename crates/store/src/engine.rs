//! The PiCL protocol as running software: epoch-tagged lines, a 2 KB
//! coalescing undo buffer, a circular multi-undo log, and a background
//! persister closing epochs on the §IV-A in-order window.
//!
//! # Protocol
//!
//! The *volatile image* (a heap buffer) plays the cache hierarchy: every
//! write lands there immediately. The first write to a line in each epoch
//! appends a `(ValidFrom, ValidTill)` undo entry carrying the line's
//! pre-image to the coalescing buffer; a full buffer (or an epoch
//! boundary) is *sealed* under the protocol mutex and written as one bulk
//! 4 KB log block outside it (see "Undo drains" below). The background
//! persister is the ACS: it walks the dirty lines of the oldest committed
//! epoch, forces a drain when a line still has a volatile undo entry (the
//! bloom-probe-before-eviction rule), and writes lines *in place* —
//! always ordered behind their undo entries. Once every line of epoch `E`
//! is in place it fences, advances the superblock's persist frontier, and
//! wakes writers stalled on the in-order window (`committed - persisted
//! <= window`), which is what bounds the RPO to `window` epochs.
//!
//! # Undo drains
//!
//! A drain never holds the protocol mutex across media I/O. The thread
//! whose append fills the buffer (a writer), the committer at an epoch
//! boundary, or the persister on a bloom hit *seals* the buffer under the
//! mutex: it swaps in the spare buffer and line set, reserves the block's
//! log sequence (and so its slot), and marks the block's lines in flight.
//! It then releases the mutex, encodes the block, `persist`s and `fence`s
//! it, and relocks to publish completion: the counters, the `UndoDrain`
//! event (which carries the seal tick, so an auditor retires only the
//! entries appended up to the seal) and the `drained` condvar. At most one
//! block is in flight, so blocks reach the log in sequence order; a writer
//! whose append would fill the next buffer while one is in flight waits —
//! the paper's bounded 2 KB buffer. A failed write or fence kills the
//! engine. The persister treats in-flight lines like buffered ones: it
//! waits for the block's fence before it writes such a line back.
//!
//! # Recovery
//!
//! Open reads the superblock, loads the data region, scans the log for
//! valid blocks of the current generation, and applies every entry
//! covering the persist frontier `P` (`ValidFrom <= P < ValidTill`) — the
//! multi-undo rollback. The restored lines are persisted, then one
//! superblock write bumps the *generation*, atomically discarding the
//! rolled-back timeline's log (its epoch numbers are about to be reused).
//! Execution resumes at epoch `P + 1`.
//!
//! # Concurrency
//!
//! The engine serves multiple front-end sessions at once. Protocol state
//! (frontiers, tags, the undo buffer, the log window) lives under one
//! *protocol mutex* with a logical tick clock — every telemetry emission
//! happens under it, so the exported event stream is totally ordered and
//! passes `picl audit` even with real threads racing. The volatile image
//! itself is split out into sharded `RwLock`s: reads take only their
//! shard's read lock (no protocol mutex at all), writes hold the protocol
//! mutex across the undo append and the image update (the two must be
//! atomic against a commit) but release it before writing a sealed undo
//! block. A commit publishes the boundary under the mutex and writes the
//! boundary block after releasing it — and after the caller's
//! `published` callback, which is where the serving layer drops its shard
//! locks, so no front-end lock is held across that I/O either.
//!
//! The persister holds the mutex only for protocol state. Each cycle
//! snapshots the queued lines' image bytes with *no* lock held, then takes
//! the mutex once to bloom-probe the batch line by line (forcing or
//! awaiting drains) and emit the write-backs, then writes the snapshots in
//! place with no lock held while the front end keeps executing. The order
//! keeps undo-before-writeback intact: every image write lands under the
//! mutex after its undo append, so a probe taken after the snapshot finds
//! every undo entry the snapshot can depend on and makes it durable before
//! the write-back. Any image write landing after the snapshot logs a
//! pre-image that chains from the snapshot value, so rollback to the
//! advancing frontier is correct whether or not those later entries
//! survive. Lock order is protocol mutex, then shard.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use picl_obs::MetricsRegistry;
use picl_telemetry::{EventKind, Telemetry};
use picl_types::hash::FastSet;
use picl_types::{Cycle, EpochId, LineAddr, LINE_BYTES};

use crate::layout::{
    decode_log_block, encode_log_block, Geometry, LogBlock, Superblock, UndoEntry, DATA_OFFSET,
    ENTRIES_PER_BLOCK, ENTRY_BYTES, LOG_BLOCK_BYTES, SB_BYTES, UNDO_BUFFER_ENTRIES,
};
use crate::obs::StoreObs;
use crate::persist::PersistOps;

const LINE: usize = LINE_BYTES as usize;

/// Anything that can go wrong talking to a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The backing medium failed (for [`crate::persist::CountingMedium`],
    /// usually the injected power failure).
    Io(String),
    /// The file is not a valid store (bad magic/checksum/geometry).
    Corrupt(String),
    /// A configuration was rejected before any I/O.
    Config(String),
    /// A KV operation could not find room or fit its payload.
    Invalid(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "medium error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Config(m) => write!(f, "invalid configuration: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }
}

/// Engine tuning knobs (geometry lives in the superblock once created).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Data-region capacity in 64-byte lines (used only when creating).
    pub lines: u32,
    /// Log capacity in 4 KB blocks (used only when creating).
    pub log_blocks: u32,
    /// §IV-A in-order window: max committed-but-unpersisted epochs. The
    /// RPO bound. Must be >= 1.
    pub window: u64,
    /// Testing knob: make the persister sleep this long halfway through
    /// each epoch's in-place writes, holding the crash window open for
    /// the kill -9 harness. `0` disables.
    pub persist_stall_ms: u64,
    /// Sabotage knob: silently discard undo entries instead of draining
    /// them. Crashes then lose data — proves the torture oracle is not
    /// vacuous (the `broken-noundo` of the storage engine).
    pub sabotage_skip_drain: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lines: 1024,
            log_blocks: 160,
            window: 1,
            persist_stall_ms: 0,
            sabotage_skip_drain: false,
        }
    }
}

impl EngineConfig {
    /// Validates the knobs and derived geometry.
    ///
    /// # Errors
    ///
    /// Rejects degenerate geometry and a log too small to always make
    /// forward progress (the live window must fit `window + 2` epochs of
    /// worst-case undo traffic).
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.lines == 0 {
            return Err(StoreError::Config("need at least one line".into()));
        }
        if self.window == 0 {
            return Err(StoreError::Config("window must be >= 1".into()));
        }
        let blocks_per_epoch = u64::from(self.lines).div_ceil(UNDO_BUFFER_ENTRIES as u64) + 1;
        let needed = (self.window + 2) * blocks_per_epoch + 2;
        if u64::from(self.log_blocks) < needed {
            return Err(StoreError::Config(format!(
                "log of {} blocks can wedge: {} lines at window {} need >= {} blocks",
                self.log_blocks, self.lines, self.window, needed
            )));
        }
        Ok(())
    }
}

/// Protocol counters, monotone over the engine's life: a read-only view
/// over the engine's [`StoreObs`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Undo entries appended (first-write-per-line-per-epoch).
    pub undo_entries: u64,
    /// Buffer drains (bulk log-block writes).
    pub drains: u64,
    /// Drains forced by the persister hitting a volatile line.
    pub forced_drains: u64,
    /// Log blocks written.
    pub log_blocks_written: u64,
    /// Epoch commits.
    pub commits: u64,
    /// Epoch persists (frontier advances).
    pub persists: u64,
    /// In-place line write-backs by the persister.
    pub line_writebacks: u64,
    /// Persister probes that found a volatile undo entry.
    pub bloom_hits: u64,
    /// Wake-ups committers spent stalled on the in-order window: one per
    /// pass through [`Engine::wait_window`]'s wait loop, not a duration.
    pub window_stalls: u64,
}

/// What `open` did: fresh format or a recovery, with its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Whether an existing store was opened (vs freshly formatted).
    pub recovered: bool,
    /// The epoch execution resumed after (`0` for a fresh store).
    pub recovered_to: u64,
    /// Undo entries applied during rollback.
    pub entries_applied: u64,
    /// Distinct lines rolled back.
    pub lines_restored: u64,
    /// Wall-clock recovery latency in nanoseconds (log scan + rollback +
    /// generation bump).
    pub recovery_ns: u64,
}

struct EpochWork {
    eid: u64,
    lines: Vec<u32>,
}

/// Phase-one receipt from [`Engine::commit_epoch_async`]: the epoch is
/// committed and its dirty lines are queued for the persister.
#[derive(Debug, Clone, Copy)]
pub struct CommitTicket {
    /// The epoch that just committed.
    pub eid: u64,
    /// Whether `committed - persisted` exceeded the in-order window at
    /// the boundary; if so the committer owes an [`Engine::wait_window`]
    /// before the RPO bound covers further commits.
    pub window_full: bool,
}

/// How many `RwLock` shards the volatile image splits into. Sixteen is
/// plenty to keep reader collisions rare at the session counts a single
/// store serves, while keeping the persister's snapshot loop cheap.
const IMAGE_SHARDS: usize = 16;

/// The volatile image, sharded so concurrent readers never touch the
/// protocol mutex. Each shard owns a contiguous line range.
struct ImageShards {
    lines_per_shard: usize,
    shards: Vec<RwLock<Vec<u8>>>,
}

impl ImageShards {
    fn new(lines: u32, image: Vec<u8>) -> ImageShards {
        let lines = lines as usize;
        debug_assert_eq!(image.len(), lines * LINE);
        let shard_count = IMAGE_SHARDS.min(lines.max(1));
        let lines_per_shard = lines.div_ceil(shard_count);
        // One exact-size copy per shard: splitting the tail off again and
        // again would copy the image once per shard and leave every shard
        // holding the capacity of the whole tail it was cut from.
        let mut shards: Vec<RwLock<Vec<u8>>> = image
            .chunks(lines_per_shard * LINE)
            .map(|chunk| RwLock::new(chunk.to_vec()))
            .collect();
        shards.resize_with(shard_count, || RwLock::new(Vec::new()));
        ImageShards {
            lines_per_shard,
            shards,
        }
    }

    fn locate(&self, line: u32) -> (usize, usize) {
        let line = line as usize;
        (
            line / self.lines_per_shard,
            (line % self.lines_per_shard) * LINE,
        )
    }

    fn read(&self, line: u32) -> [u8; LINE] {
        let (shard, at) = self.locate(line);
        let data = self.shards[shard].read().expect("image shard poisoned");
        let mut out = [0u8; LINE];
        out.copy_from_slice(&data[at..at + LINE]);
        out
    }

    fn write(&self, line: u32, data: &[u8; LINE]) {
        let (shard, at) = self.locate(line);
        let mut shard = self.shards[shard].write().expect("image shard poisoned");
        shard[at..at + LINE].copy_from_slice(data);
    }
}

/// The protocol state. Cache-line aligned: it is written under the
/// mutex on every logged write, and must not share a line with the
/// fields lock-free readers touch (image shards, the dead flag, the
/// instrument handles).
#[repr(align(64))]
struct Inner {
    sys_eid: u64,
    committed: u64,
    persisted: u64,
    generation: u64,
    /// Lower bound for `ValidFrom` of lines with no tag (the persist
    /// frontier at open; their current value is at least that old).
    floor: u64,
    /// Per-line epoch tag: last epoch whose first write logged an undo
    /// entry for the line (`0` = untagged).
    tags: Vec<u64>,
    /// The coalescing buffer and the lines it holds (the bloom filter).
    buffer: Vec<UndoEntry>,
    buffer_lines: FastSet<u32>,
    /// Lines of the sealed block being written outside the mutex, if one
    /// is in flight (at most one is).
    in_flight: Option<FastSet<u32>>,
    /// The cleared buffer and line set of the last completed drain,
    /// swapped in at the next seal so no drain allocates under the mutex.
    spare: (Vec<UndoEntry>, FastSet<u32>),
    dirty_cur: FastSet<u32>,
    queue: VecDeque<EpochWork>,
    log_head_seq: u64,
    log_start_seq: u64,
    /// `(seq, max_valid_till)` of live log blocks, oldest first, for GC.
    live_blocks: VecDeque<(u64, u64)>,
    tick: u64,
    dead: Option<String>,
    shutdown: bool,
}

impl Inner {
    /// Protocol state executing the epoch after persisted epoch `point`,
    /// with an empty log and no tagged lines.
    fn resume(point: u64, generation: u64, lines: u32, tick: u64) -> Inner {
        Inner {
            sys_eid: point + 1,
            committed: point,
            persisted: point,
            generation,
            floor: point,
            tags: vec![0; lines as usize],
            buffer: Vec::with_capacity(UNDO_BUFFER_ENTRIES),
            buffer_lines: FastSet::default(),
            in_flight: None,
            spare: (Vec::with_capacity(UNDO_BUFFER_ENTRIES), FastSet::default()),
            dirty_cur: FastSet::default(),
            queue: VecDeque::new(),
            log_head_seq: 0,
            log_start_seq: 0,
            live_blocks: VecDeque::new(),
            tick,
            dead: None,
            shutdown: false,
        }
    }
}

/// What sealed an undo block: the index of its
/// `picl_store_undo_drain_ns{path}` histogram in [`StoreObs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainPath {
    /// A writer's append filled the buffer.
    Inline = 0,
    /// The persister's bloom probe hit a buffered line.
    Forced = 1,
    /// An epoch commit.
    Boundary = 2,
}

/// An undo block sealed under the protocol mutex, on its way to the log
/// with no lock held.
struct SealedBlock {
    seq: u64,
    generation: u64,
    entries: Vec<UndoEntry>,
    path: DrainPath,
    /// The tick of the last event before the seal: every entry in the
    /// block was appended at or before it, every later one after it.
    sealed: u64,
    started: Instant,
}

struct Shared {
    medium: Arc<dyn PersistOps>,
    geometry: Geometry,
    cfg: EngineConfig,
    telemetry: Telemetry,
    state: Mutex<Inner>,
    /// The volatile image, sharded for lock-free-of-the-mutex reads.
    image: ImageShards,
    /// Mirrors `Inner::dead` so the read path can check for death
    /// without taking the protocol mutex.
    dead_flag: AtomicBool,
    /// Wakes the persister (new committed epoch, or shutdown).
    work: Condvar,
    /// Wakes writers (persist frontier advanced, log space freed, death).
    done: Condvar,
    /// Wakes threads waiting out an in-flight undo drain (and death).
    drained: Condvar,
    /// The protocol counters and pipeline instruments.
    obs: StoreObs,
    /// Holds the persister between its snapshot and its probe pass.
    #[cfg(test)]
    snapshot_pause: tests::Pause,
}

impl Shared {
    fn emit(&self, st: &mut Inner, kind: EventKind) {
        st.tick += 1;
        self.telemetry.record(Cycle(st.tick), None, kind);
    }

    fn die(&self, st: &mut Inner, msg: String) -> StoreError {
        if st.dead.is_none() {
            st.dead = Some(msg.clone());
        }
        self.dead_flag.store(true, Ordering::Release);
        self.work.notify_all();
        self.done.notify_all();
        self.drained.notify_all();
        StoreError::Io(msg)
    }

    fn check_alive(&self, st: &Inner) -> Result<(), StoreError> {
        match &st.dead {
            Some(m) => Err(StoreError::Io(m.clone())),
            None => Ok(()),
        }
    }

    /// Pushes the epoch-pipeline gauges from the protocol state. Called
    /// at open and at the boundaries that move them (commit, drain,
    /// persist cycle).
    fn publish_gauges(&self, st: &Inner) {
        self.obs.open_epochs.set(st.sys_eid - st.persisted);
        self.obs.window_occupancy.set(st.committed - st.persisted);
        self.obs.undo_buffer_fill.set(st.buffer.len() as u64);
        self.obs
            .log_blocks_live
            .set(st.log_head_seq - st.log_start_seq);
    }

    /// Drops dead log blocks off the front of the live window.
    fn gc(&self, st: &mut Inner) {
        while let Some(&(seq, max_till)) = st.live_blocks.front() {
            if max_till <= st.persisted {
                st.live_blocks.pop_front();
                debug_assert_eq!(seq, st.log_start_seq);
                st.log_start_seq = seq + 1;
            } else {
                break;
            }
        }
    }

    /// Blocks until no undo drain is in flight — the single-in-flight
    /// rule, and the bounded buffer's backpressure — timing the wait.
    fn await_drain<'a>(
        &'a self,
        mut st: MutexGuard<'a, Inner>,
    ) -> Result<MutexGuard<'a, Inner>, StoreError> {
        if st.in_flight.is_some() {
            let t0 = Instant::now();
            while st.in_flight.is_some() && st.dead.is_none() {
                st = self.drained.wait(st).expect("store engine poisoned");
            }
            self.obs
                .drain_wait_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        self.check_alive(&st)?;
        Ok(st)
    }

    /// Seals the coalescing buffer: swaps in the spare buffer and line
    /// set, reserves the block's log sequence (and so its slot), and
    /// marks its lines in flight. Returns `None` for an empty buffer, and
    /// under the sabotage knob, which discards the entries instead. The
    /// caller must have waited out any in-flight drain and, for writers,
    /// reserved log space (writers gate on `log_blocks - 1`, leaving the
    /// last slot for the persister's forced drains).
    fn seal(&self, st: &mut Inner, path: DrainPath) -> Option<SealedBlock> {
        if st.buffer.is_empty() {
            return None;
        }
        debug_assert!(st.in_flight.is_none(), "one drain in flight at a time");
        let started = Instant::now();
        let forced = path == DrainPath::Forced;
        if self.cfg.sabotage_skip_drain {
            // Sabotage: pretend the drain happened. The entries are gone;
            // a crash now cannot roll their lines back.
            let entries = st.buffer.len() as u64;
            st.buffer.clear();
            st.buffer_lines.clear();
            let sealed = Cycle(st.tick);
            self.emit(
                st,
                EventKind::UndoDrain {
                    entries,
                    bytes: entries * ENTRY_BYTES as u64,
                    forced,
                    sealed,
                },
            );
            self.obs.drains.inc();
            self.obs.undo_drain_ns[path as usize].record(started.elapsed().as_nanos() as u64);
            return None;
        }
        debug_assert!(st.buffer.len() <= ENTRIES_PER_BLOCK);
        let seq = st.log_head_seq;
        debug_assert!(
            seq - st.log_start_seq < u64::from(self.geometry.log_blocks),
            "log overrun: [{}, {seq}] in {} blocks",
            st.log_start_seq,
            self.geometry.log_blocks
        );
        let (spare_entries, spare_lines) = std::mem::take(&mut st.spare);
        let entries = std::mem::replace(&mut st.buffer, spare_entries);
        st.in_flight = Some(std::mem::replace(&mut st.buffer_lines, spare_lines));
        let max_till = entries.iter().map(|e| e.valid_till).max().unwrap_or(0);
        st.log_head_seq = seq + 1;
        st.live_blocks.push_back((seq, max_till));
        Some(SealedBlock {
            seq,
            generation: st.generation,
            entries,
            path,
            sealed: st.tick,
            started,
        })
    }

    /// Writes a sealed block with no lock held — encode, `persist`,
    /// `fence` — then relocks to publish it: the counters, the `UndoDrain`
    /// event carrying the seal tick, the recycled buffers, and the
    /// `drained` wake-up. A failed write kills the engine.
    fn write_sealed(&self, block: SealedBlock) -> Result<MutexGuard<'_, Inner>, StoreError> {
        let SealedBlock {
            seq,
            generation,
            mut entries,
            path,
            sealed,
            started,
        } = block;
        let bytes = encode_log_block(generation, seq, &entries);
        let io = self
            .medium
            .persist(self.geometry.log_slot_off(seq), &bytes)
            .and_then(|()| self.medium.fence());
        let mut st = self.state.lock().expect("store engine poisoned");
        if let Err(e) = io {
            return Err(self.die(&mut st, e.to_string()));
        }
        let count = entries.len() as u64;
        entries.clear();
        let mut lines = st.in_flight.take().expect("a sealed block is in flight");
        lines.clear();
        st.spare = (entries, lines);
        let forced = path == DrainPath::Forced;
        self.obs.drains.inc();
        if forced {
            self.obs.forced_drains.inc();
        }
        self.obs.log_blocks_written.inc();
        self.obs.fences.inc();
        self.obs.undo_drain_ns[path as usize].record(started.elapsed().as_nanos() as u64);
        self.emit(
            &mut st,
            EventKind::UndoDrain {
                entries: count,
                bytes: LOG_BLOCK_BYTES,
                forced,
                sealed: Cycle(sealed),
            },
        );
        self.publish_gauges(&st);
        self.drained.notify_all();
        Ok(st)
    }

    /// Drains the coalescing buffer now: waits out any in-flight drain,
    /// seals, and writes the block off-lock. Returns the relocked guard.
    fn drain_buffer<'a>(
        &'a self,
        st: MutexGuard<'a, Inner>,
        path: DrainPath,
    ) -> Result<MutexGuard<'a, Inner>, StoreError> {
        let mut st = self.await_drain(st)?;
        match self.seal(&mut st, path) {
            Some(block) => {
                drop(st);
                self.write_sealed(block)
            }
            None => Ok(st),
        }
    }

    /// The persister's bloom probe of a snapshotted `line`. A line
    /// whose newest undo entry is still volatile — buffered, or in the
    /// in-flight block — must not be written in place before that entry
    /// is fenced (undo-before-eviction): wait out the in-flight drain,
    /// and force a drain of the buffer, as the hardware does on a bloom
    /// hit.
    fn probe_line<'a>(
        &'a self,
        mut st: MutexGuard<'a, Inner>,
        line: u32,
    ) -> Result<MutexGuard<'a, Inner>, StoreError> {
        let volatile = |st: &Inner| {
            st.buffer_lines.contains(&line)
                || st.in_flight.as_ref().is_some_and(|f| f.contains(&line))
        };
        if !volatile(&st) {
            return Ok(st);
        }
        self.emit(
            &mut st,
            EventKind::BloomCheck {
                addr: LineAddr::new(u64::from(line)),
                hit: true,
            },
        );
        self.obs.bloom_hits.inc();
        while volatile(&st) {
            st = if st.buffer_lines.contains(&line) {
                self.drain_buffer(st, DrainPath::Forced)?
            } else {
                self.await_drain(st)?
            };
        }
        Ok(st)
    }

    fn superblock(&self, st: &Inner) -> Superblock {
        Superblock {
            geometry: self.geometry,
            persisted_eid: st.persisted,
            generation: st.generation,
            log_start_seq: st.log_start_seq,
            log_head_seq: st.log_head_seq,
        }
    }

    /// Persists a run of consecutive committed epochs in three phases.
    /// Phase 1 snapshots every queued line's image bytes with no lock
    /// held, then takes the protocol mutex once for the batch and, line by
    /// line, bloom-probes the undo buffer and the in-flight block
    /// ([`Shared::probe_line`]: force or await the drain) and emits the
    /// line's write-back. Phase 2, with no locks held: write every
    /// snapshot in place and fence, while the front end keeps executing —
    /// this is where the stall knob and the real media latency live.
    /// Phase 3, relocked: advance the superblock's persist frontier and
    /// wake stalled writers.
    ///
    /// Taking the whole queued backlog per cycle is the group-persist
    /// half of the serving layer's pipelined group commit: the line
    /// fence and the superblock fence amortize over every backlogged
    /// epoch, so when commits outrun the medium the frontier catches up
    /// in one cycle instead of paying two fences per epoch — which is
    /// what bounds a commit leader's in-order-window wait.
    ///
    /// Persisting the *snapshots* (not the live lines) is what keeps
    /// this safe off-lock, and the order snapshot-then-probe is what
    /// makes the snapshots safe to take without the mutex: every image
    /// write lands under the mutex after its undo append, so a probe
    /// taken after the snapshot sees (and makes durable) every undo entry
    /// the snapshot can depend on. Any image write that lands after the
    /// snapshot logs a pre-image chaining from the snapshot value, so
    /// recovery to any epoch in the run rolls the line to its
    /// end-of-epoch value whether or not those later entries survive the
    /// crash.
    fn persist_epochs(&self, works: Vec<EpochWork>) -> Result<(), StoreError> {
        let cycle_started = Instant::now();
        let batch: Vec<(u32, [u8; LINE])> = works
            .iter()
            .flat_map(|work| &work.lines)
            .map(|&line| (line, self.image.read(line)))
            .collect();
        #[cfg(test)]
        self.snapshot_pause.hit();
        // `(lines, scan start tick)` per epoch, for the per-epoch events.
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(works.len());
        let probe_hold_ns = {
            let mut st = self.state.lock().expect("store engine poisoned");
            let held = Instant::now();
            self.check_alive(&st)?;
            for (i, work) in works.iter().enumerate() {
                debug_assert_eq!(
                    work.eid,
                    st.persisted + 1 + i as u64,
                    "epochs persist in order"
                );
                let started = st.tick + 1;
                for &line in &work.lines {
                    st = self.probe_line(st, line)?;
                    self.emit(
                        &mut st,
                        EventKind::AcsLineWriteback {
                            addr: LineAddr::new(u64::from(line)),
                        },
                    );
                }
                self.obs.line_writebacks.add(work.lines.len() as u64);
                spans.push((work.lines.len() as u64, started));
            }
            held.elapsed().as_nanos() as u64
        };
        let stall_at = batch.len() / 2;
        let mut io: Result<(), std::io::Error> = Ok(());
        for (i, (line, data)) in batch.iter().enumerate() {
            if let Err(e) = self.medium.persist(self.geometry.data_off(*line), data) {
                io = Err(e);
                break;
            }
            if self.cfg.persist_stall_ms > 0 && i + 1 == stall_at {
                // Hold the mid-persist crash window open (data partially
                // in place, frontier not yet advanced) for the kill
                // harness. The front end is NOT blocked: no locks held.
                std::thread::sleep(std::time::Duration::from_millis(self.cfg.persist_stall_ms));
            }
        }
        if io.is_ok() {
            io = self.medium.fence();
        }
        let mut st = self.state.lock().expect("store engine poisoned");
        let held = Instant::now();
        if let Err(e) = io {
            return Err(self.die(&mut st, e.to_string()));
        }
        self.check_alive(&st)?;
        let prev = st.persisted;
        let last = works.last().map_or(prev, |w| w.eid);
        st.persisted = last;
        let sb = self.superblock(&st).encode();
        let sb_result = self
            .medium
            .persist(0, &sb)
            .and_then(|()| self.medium.fence());
        if let Err(e) = sb_result {
            st.persisted = prev;
            return Err(self.die(&mut st, e.to_string()));
        }
        for (work, (lines, started)) in works.iter().zip(&spans) {
            self.obs.persists.inc();
            self.emit(
                &mut st,
                EventKind::AcsScan {
                    target: EpochId(work.eid),
                    lines: *lines,
                    started: Cycle(*started),
                },
            );
            self.emit(
                &mut st,
                EventKind::EpochPersist {
                    eid: EpochId(work.eid),
                },
            );
        }
        self.gc(&mut st);
        // The line-batch fence plus the superblock fence (forced drains
        // along the way count their own).
        self.obs.fences.add(2);
        self.publish_gauges(&st);
        self.done.notify_all();
        let [probe, publish] = &self.obs.persister_lock_hold_ns;
        probe.record(probe_hold_ns);
        publish.record(held.elapsed().as_nanos() as u64);
        self.obs
            .cycle_ns
            .record(cycle_started.elapsed().as_nanos() as u64);
        self.obs.backlog_epochs.record(works.len() as u64);
        Ok(())
    }

    fn persister_loop(self: &Arc<Self>) {
        loop {
            let works: Vec<EpochWork> = {
                let mut st = self.state.lock().expect("store engine poisoned");
                loop {
                    if st.dead.is_some() {
                        return;
                    }
                    if !st.queue.is_empty() {
                        break st.queue.drain(..).collect();
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work.wait(st).expect("store engine poisoned");
                }
            };
            if self.persist_epochs(works).is_err() {
                return;
            }
        }
    }
}

/// The running engine: line-granularity reads/writes, epoch commits, and
/// a background persister. One per open store file.
pub struct Engine {
    shared: Arc<Shared>,
    /// Owns every engine instrument (and whatever layers above register
    /// beside them).
    registry: MetricsRegistry,
    persister: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("geometry", &self.shared.geometry)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens (formatting if blank, recovering if not) the store on
    /// `medium`, then starts the persister.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, medium errors, or a corrupt
    /// superblock.
    pub fn open(
        medium: Arc<dyn PersistOps>,
        cfg: EngineConfig,
        telemetry: Telemetry,
    ) -> Result<(Engine, OpenReport), StoreError> {
        cfg.validate()?;
        let mut head = [0u8; SB_BYTES as usize];
        medium.read(0, &mut head)?;
        let blank = head.iter().all(|&b| b == 0);
        let started = std::time::Instant::now();
        let (geometry, mut inner, image, report) = if blank {
            let geometry = Geometry {
                lines: cfg.lines,
                log_blocks: cfg.log_blocks,
            };
            if medium.len() < geometry.total_len() {
                return Err(StoreError::Config(format!(
                    "medium of {} bytes is too small for geometry needing {}",
                    medium.len(),
                    geometry.total_len()
                )));
            }
            let inner = Inner::resume(0, 1, geometry.lines, 0);
            let sb = Superblock {
                geometry,
                persisted_eid: 0,
                generation: 1,
                log_start_seq: 0,
                log_head_seq: 0,
            };
            medium.persist(0, &sb.encode())?;
            medium.fence()?;
            let report = OpenReport {
                recovered: false,
                recovered_to: 0,
                entries_applied: 0,
                lines_restored: 0,
                recovery_ns: 0,
            };
            let image = vec![0u8; geometry.lines as usize * LINE];
            (geometry, inner, image, report)
        } else {
            let sb = Superblock::decode(&head).map_err(StoreError::Corrupt)?;
            let geometry = sb.geometry;
            if medium.len() < geometry.total_len() {
                return Err(StoreError::Corrupt(format!(
                    "medium of {} bytes truncates geometry needing {}",
                    medium.len(),
                    geometry.total_len()
                )));
            }
            let mut image = vec![0u8; geometry.lines as usize * LINE];
            medium.read(DATA_OFFSET, &mut image)?;
            let blocks = scan_log(medium.as_ref(), &sb)?;
            let point = sb.persisted_eid;
            let telemetry_tick = |n: &mut u64| -> Cycle {
                *n += 1;
                Cycle(*n)
            };
            let mut tick = 0u64;
            telemetry.record(telemetry_tick(&mut tick), None, EventKind::RecoveryStart);
            let mut restored: FastSet<u32> = FastSet::default();
            let mut applied = 0u64;
            for block in blocks.iter().rev() {
                if block.max_valid_till <= point {
                    continue;
                }
                for entry in block.entries.iter().rev() {
                    if entry.covers(point) {
                        let at = entry.line as usize * LINE;
                        image[at..at + LINE].copy_from_slice(&entry.data);
                        restored.insert(entry.line);
                        applied += 1;
                    }
                }
            }
            // Persist the rollback, then bump the generation: one
            // superblock write atomically discards the dead timeline's
            // log. A crash anywhere in here redoes the same idempotent
            // rollback from the old generation's log.
            let mut lines_restored: Vec<u32> = restored.iter().copied().collect();
            lines_restored.sort_unstable();
            for &line in &lines_restored {
                let at = line as usize * LINE;
                let mut data = [0u8; LINE];
                data.copy_from_slice(&image[at..at + LINE]);
                medium.persist(geometry.data_off(line), &data)?;
            }
            medium.fence()?;
            let new_sb = Superblock {
                geometry,
                persisted_eid: point,
                generation: sb.generation + 1,
                log_start_seq: 0,
                log_head_seq: 0,
            };
            medium.persist(0, &new_sb.encode())?;
            medium.fence()?;
            telemetry.record(
                telemetry_tick(&mut tick),
                None,
                EventKind::RecoveryDone {
                    recovered_to: EpochId(point),
                    entries: applied,
                },
            );
            let inner = Inner::resume(point, new_sb.generation, geometry.lines, tick);
            let report = OpenReport {
                recovered: true,
                recovered_to: point,
                entries_applied: applied,
                lines_restored: lines_restored.len() as u64,
                recovery_ns: started.elapsed().as_nanos() as u64,
            };
            (geometry, inner, image, report)
        };
        let begin = EventKind::EpochBegin {
            eid: EpochId(inner.sys_eid),
        };
        inner.tick += 1;
        telemetry.record(Cycle(inner.tick), None, begin);
        let registry = MetricsRegistry::new();
        let shared = Arc::new(Shared {
            medium,
            geometry,
            cfg,
            telemetry,
            state: Mutex::new(inner),
            image: ImageShards::new(geometry.lines, image),
            dead_flag: AtomicBool::new(false),
            work: Condvar::new(),
            done: Condvar::new(),
            drained: Condvar::new(),
            obs: StoreObs::register(&registry),
            #[cfg(test)]
            snapshot_pause: tests::Pause::default(),
        });
        shared.publish_gauges(&shared.state.lock().expect("store engine poisoned"));
        let worker = Arc::clone(&shared);
        let persister = std::thread::Builder::new()
            .name("picl-store-persister".into())
            .spawn(move || worker.persister_loop())
            .map_err(|e| StoreError::Io(format!("cannot spawn persister: {e}")))?;
        Ok((
            Engine {
                shared,
                registry,
                persister: Some(persister),
            },
            report,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.state.lock().expect("store engine poisoned")
    }

    /// Store geometry.
    pub fn geometry(&self) -> Geometry {
        self.shared.geometry
    }

    /// Reads one line from the volatile image. Takes only the line's
    /// image-shard read lock — never the protocol mutex — so concurrent
    /// sessions read in parallel with writers and the persister.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn read_line(&self, line: u32) -> Result<[u8; LINE], StoreError> {
        if self.shared.dead_flag.load(Ordering::Acquire) {
            let st = self.lock();
            self.shared.check_alive(&st)?;
        }
        Ok(self.shared.image.read(line))
    }

    /// Writes one line: logs the pre-image on the epoch's first touch,
    /// then updates the volatile image. An append that fills the undo
    /// buffer seals it and writes the block after releasing the protocol
    /// mutex; one that would fill it while another block is in flight
    /// waits for that drain first.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn write_line(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
        let mut st = self.lock();
        let sealed = loop {
            self.shared.check_alive(&st)?;
            if st.tags[line as usize] == st.sys_eid {
                break None;
            }
            // Gate on log space first, keeping one slot in reserve for
            // the persister's forced drains.
            self.shared.gc(&mut st);
            let live = st.log_head_seq - st.log_start_seq;
            if live >= u64::from(self.shared.geometry.log_blocks) - 1 {
                st = self.shared.done.wait(st).expect("store engine poisoned");
                continue;
            }
            if st.buffer.len() + 1 >= UNDO_BUFFER_ENTRIES && st.in_flight.is_some() {
                st = self.shared.await_drain(st)?;
                continue;
            }
            let valid_from = st.tags[line as usize].max(st.floor);
            let valid_till = st.sys_eid;
            let pre = self.shared.image.read(line);
            st.buffer.push(UndoEntry {
                line,
                valid_from,
                valid_till,
                data: pre,
            });
            st.buffer_lines.insert(line);
            st.tags[line as usize] = valid_till;
            st.dirty_cur.insert(line);
            self.shared.obs.undo_entries.inc();
            self.shared.emit(
                &mut st,
                EventKind::UndoEntryAppended {
                    addr: LineAddr::new(u64::from(line)),
                    valid_from: EpochId(valid_from),
                    valid_till: EpochId(valid_till),
                },
            );
            self.shared.obs.undo_buffer_fill.set(st.buffer.len() as u64);
            if st.buffer.len() >= UNDO_BUFFER_ENTRIES {
                break self.shared.seal(&mut st, DrainPath::Inline);
            }
            break None;
        };
        // Still under the protocol mutex: the undo append and the image
        // update must be atomic against a commit boundary, or a crash
        // could recover a torn prefix.
        self.shared.image.write(line, data);
        drop(st);
        if let Some(block) = sealed {
            drop(self.shared.write_sealed(block)?);
        }
        Ok(())
    }

    /// Commits the executing epoch: drains the buffer, hands the epoch's
    /// dirty lines to the persister, begins the next epoch, and stalls on
    /// the in-order window. Returns the committed epoch id.
    ///
    /// This is [`Engine::commit_epoch_async`] followed by
    /// [`Engine::wait_window`] when the ticket says the window was full —
    /// callers that can overlap the stall with other work (the serving
    /// layer's group commit) use the two phases directly.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn commit_epoch(&self) -> Result<u64, StoreError> {
        let ticket = self.commit_epoch_async(|_| ())?;
        if ticket.window_full {
            self.wait_window(ticket)?;
        }
        Ok(ticket.eid)
    }

    /// Phase one of a commit. The *publish*, under the protocol mutex:
    /// waits out any drain in flight, seals the undo buffer as the
    /// boundary block, publishes the epoch boundary, hands the epoch's
    /// dirty lines to the persister, and begins the next executing epoch.
    /// Then, with the mutex released, it calls `published` with the
    /// ticket, and only after that writes and fences the boundary block
    /// and wakes the persister. It never waits for the persister.
    ///
    /// `published` is where a caller ends whatever exclusion it held
    /// across the publish (the serving layer's shard locks), so the
    /// block's media I/O runs outside it. The block is written whatever
    /// `published` does — a panic in it is re-raised only after the
    /// write — so no path leaves a sealed block in flight for good.
    ///
    /// The ticket says whether the §IV-A in-order window was full at the
    /// boundary — if so, a caller honoring the RPO bound must
    /// [`Engine::wait_window`] before treating the commit as
    /// flow-controlled, but it may do useful work (or let other writers
    /// run) first.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died — before the publish (then
    /// `published` never runs), or on the boundary write after it (then
    /// `published` has run, and the epoch is committed but not
    /// acknowledgeable).
    pub fn commit_epoch_async(
        &self,
        published: impl FnOnce(CommitTicket),
    ) -> Result<CommitTicket, StoreError> {
        let mut st = self.lock();
        self.shared.check_alive(&st)?;
        if !st.buffer.is_empty() {
            st = self.shared.await_drain(st)?;
        }
        let sealed = self.shared.seal(&mut st, DrainPath::Boundary);
        let eid = st.sys_eid;
        st.committed = eid;
        self.shared.obs.commits.inc();
        self.shared
            .emit(&mut st, EventKind::EpochCommit { eid: EpochId(eid) });
        let mut lines: Vec<u32> = st.dirty_cur.drain().collect();
        lines.sort_unstable();
        st.queue.push_back(EpochWork { eid, lines });
        st.sys_eid = eid + 1;
        self.shared.emit(
            &mut st,
            EventKind::EpochBegin {
                eid: EpochId(eid + 1),
            },
        );
        let ticket = CommitTicket {
            eid,
            window_full: st.committed - st.persisted > self.shared.cfg.window,
        };
        self.shared.publish_gauges(&st);
        drop(st);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| published(ticket)));
        let written = match sealed {
            Some(block) => self.shared.write_sealed(block).map(drop),
            None => Ok(()),
        };
        // Woken before the boundary block is durable, the persister's
        // probe would only stall on the block's lines.
        self.shared.work.notify_one();
        if let Err(panic) = ran {
            std::panic::resume_unwind(panic);
        }
        written.map(|()| ticket)
    }

    /// Phase two of a commit: blocks until the in-order window has room
    /// again (`committed - persisted <= window`), i.e. until the persister
    /// has caught up enough that the RPO bound holds for further commits.
    /// Returns immediately if the persister already caught up since the
    /// ticket was issued.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn wait_window(&self, ticket: CommitTicket) -> Result<(), StoreError> {
        let mut st = self.lock();
        let mut waited: Option<std::time::Instant> = None;
        while st.committed - st.persisted > self.shared.cfg.window && st.dead.is_none() {
            waited.get_or_insert_with(std::time::Instant::now);
            self.shared.obs.window_stalls.inc();
            self.shared.emit(
                &mut st,
                EventKind::Marker {
                    name: "inorder_window_stall",
                    value: ticket.eid,
                },
            );
            st = self.shared.done.wait(st).expect("store engine poisoned");
        }
        if let Some(t0) = waited {
            self.shared
                .obs
                .window_wait_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        self.shared.check_alive(&st)
    }

    /// How many shards the volatile image splits into. The serving layer
    /// reuses this granularity for its key-shard mutation locks.
    pub fn image_shard_count(&self) -> usize {
        self.shared.image.shards.len()
    }

    /// Which image shard owns `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn image_shard_of_line(&self, line: u32) -> usize {
        assert!(line < self.shared.geometry.lines, "line out of range");
        self.shared.image.locate(line).0
    }

    /// The `[start, end)` line range owned by `shard` (empty for the
    /// trailing shards of a table smaller than the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= image_shard_count()`.
    pub fn image_shard_span(&self, shard: usize) -> (u32, u32) {
        assert!(shard < self.shared.image.shards.len(), "shard out of range");
        let lines = self.shared.geometry.lines as usize;
        let per = self.shared.image.lines_per_shard;
        let start = (shard * per).min(lines);
        let end = ((shard + 1) * per).min(lines);
        (start as u32, end as u32)
    }

    /// The registry holding the engine's instruments from open on:
    /// protocol counters, persister cycle timing, window-wait histogram,
    /// and the epoch-pipeline gauges (open epochs, window occupancy,
    /// undo-buffer fill, live log blocks).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// `(executing, committed, persisted)` epoch frontiers.
    pub fn frontiers(&self) -> (u64, u64, u64) {
        let st = self.lock();
        (st.sys_eid, st.committed, st.persisted)
    }

    /// Protocol counters so far (read from the instruments; never takes
    /// the protocol mutex).
    pub fn stats(&self) -> EngineStats {
        self.shared.obs.stats()
    }

    /// Blocks until every committed epoch has persisted (or the medium
    /// dies).
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn drain_persister(&self) -> Result<(), StoreError> {
        let mut st = self.lock();
        while st.persisted < st.committed && st.dead.is_none() {
            st = self.shared.done.wait(st).expect("store engine poisoned");
        }
        self.shared.check_alive(&st)
    }

    /// Stops the persister after it finishes the committed backlog, and
    /// returns the final counters. Work in the executing (uncommitted)
    /// epoch is deliberately left volatile — exactly what a crash would
    /// lose.
    ///
    /// # Errors
    ///
    /// Fails (after still shutting down) if the medium died.
    pub fn close(mut self) -> Result<EngineStats, StoreError> {
        let result = {
            let mut st = self.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
            self.shared
                .check_alive(&st)
                .map(|()| self.shared.obs.stats())
        };
        if let Some(handle) = self.persister.take() {
            let _ = handle.join();
        }
        // Death may have happened while the backlog drained.
        let st = self.lock();
        self.shared.check_alive(&st)?;
        result
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(handle) = self.persister.take() {
            {
                let mut st = self.lock();
                st.shutdown = true;
                self.shared.work.notify_all();
            }
            let _ = handle.join();
        }
    }
}

/// Collects every valid log block of the superblock's generation whose
/// sequence number is still inside the live window, sorted by sequence.
fn scan_log(medium: &dyn PersistOps, sb: &Superblock) -> Result<Vec<LogBlock>, StoreError> {
    let mut blocks = Vec::new();
    let mut buf = vec![0u8; LOG_BLOCK_BYTES as usize];
    for slot in 0..sb.geometry.log_blocks {
        let off = sb.geometry.log_slot_off(u64::from(slot));
        medium.read(off, &mut buf)?;
        if let Some(block) = decode_log_block(&buf, sb.generation) {
            if block.seq >= sb.log_start_seq {
                blocks.push(block);
            }
        }
    }
    blocks.sort_by_key(|b| b.seq);
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::CountingMedium;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            lines: 64,
            log_blocks: 16,
            ..EngineConfig::default()
        }
    }

    fn medium_for(cfg: &EngineConfig) -> Arc<CountingMedium> {
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        Arc::new(CountingMedium::new(g.total_len()))
    }

    fn line_of(b: u8) -> [u8; LINE] {
        [b; LINE]
    }

    /// A completed medium operation, in completion order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum MediumOp {
        Persist(u64),
        Fence,
    }

    #[derive(Default)]
    struct Gate {
        closed: bool,
        /// Log-region persists that have reached the gate so far.
        log_persists: usize,
        /// Fail the next fence of the thread whose log persist passes
        /// the gate next.
        fail_log_fence: bool,
        doomed: Option<std::thread::ThreadId>,
        ops: Vec<MediumOp>,
    }

    /// A counting medium whose log-region persists block while the gate
    /// is closed, so a test holds an off-lock drain in flight for as
    /// long as it needs. Logs every completed operation in order.
    struct GatedMedium {
        inner: CountingMedium,
        log_start: u64,
        gate: Mutex<Gate>,
        changed: Condvar,
    }

    impl GatedMedium {
        fn new(cfg: &EngineConfig) -> Arc<GatedMedium> {
            let g = Geometry {
                lines: cfg.lines,
                log_blocks: cfg.log_blocks,
            };
            Arc::new(GatedMedium {
                inner: CountingMedium::new(g.total_len()),
                log_start: g.log_slot_off(0),
                gate: Mutex::new(Gate::default()),
                changed: Condvar::new(),
            })
        }

        fn gate(&self) -> MutexGuard<'_, Gate> {
            self.gate.lock().unwrap()
        }

        /// Closes the gate until the returned guard drops (also on a
        /// failed assertion, so a gated writer never outlives its test).
        fn close(&self) -> Closed<'_> {
            self.gate().closed = true;
            Closed(self)
        }

        /// Blocks until `n` log persists have reached the gate.
        fn await_log_persists(&self, n: usize) {
            let mut gate = self.gate();
            while gate.log_persists < n {
                gate = self.changed.wait(gate).unwrap();
            }
        }

        fn ops(&self) -> Vec<MediumOp> {
            self.gate().ops.clone()
        }
    }

    struct Closed<'a>(&'a GatedMedium);

    impl Drop for Closed<'_> {
        fn drop(&mut self) {
            self.0.gate().closed = false;
            self.0.changed.notify_all();
        }
    }

    impl PersistOps for GatedMedium {
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
            self.inner.persist(offset, data)?;
            self.gate().ops.push(MediumOp::Persist(offset));
            Ok(())
        }

        fn fence(&self) -> std::io::Result<()> {
            if self.gate().doomed == Some(std::thread::current().id()) {
                return Err(std::io::Error::other("injected fence failure"));
            }
            self.inner.fence()?;
            self.gate().ops.push(MediumOp::Fence);
            Ok(())
        }

        fn read(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read(offset, buf)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn stats(&self) -> crate::persist::PersistStats {
            self.inner.stats()
        }
    }

    #[derive(Default)]
    struct PauseState {
        armed: bool,
        paused: bool,
    }

    /// The persister's pause point between its snapshot and its probe
    /// pass: while armed, [`Pause::hit`] blocks the persister.
    #[derive(Default)]
    pub(super) struct Pause {
        state: Mutex<PauseState>,
        changed: Condvar,
    }

    impl Pause {
        pub(super) fn hit(&self) {
            let mut st = self.state.lock().unwrap();
            if st.armed {
                st.paused = true;
                self.changed.notify_all();
                while st.armed {
                    st = self.changed.wait(st).unwrap();
                }
            }
        }

        /// Arms the pause until the returned guard drops (also on a
        /// failed assertion, so a paused persister never outlives its
        /// test).
        fn arm(&self) -> Armed<'_> {
            self.state.lock().unwrap().armed = true;
            Armed(self)
        }

        fn await_paused(&self) {
            let mut st = self.state.lock().unwrap();
            while !st.paused {
                st = self.changed.wait(st).unwrap();
            }
        }
    }

    struct Armed<'a>(&'a Pause);

    impl Drop for Armed<'_> {
        fn drop(&mut self) {
            self.0.state.lock().unwrap().armed = false;
            self.0.changed.notify_all();
        }
    }

    fn gated_engine(telemetry: Telemetry) -> (Engine, Arc<GatedMedium>) {
        let cfg = small_cfg();
        let medium = GatedMedium::new(&cfg);
        let (engine, _) = Engine::open(Arc::clone(&medium) as _, cfg, telemetry).unwrap();
        (engine, medium)
    }

    const FILL: u32 = UNDO_BUFFER_ENTRIES as u32;

    /// Writes lines `0..FILL` in epoch 1; the last append seals them
    /// into a block the closed gate holds in flight. Returns the writer's
    /// result.
    fn fill_epoch_one(engine: &Engine) -> Result<(), StoreError> {
        (0..FILL).try_for_each(|line| engine.write_line(line, &line_of(7)))
    }

    /// Commits epoch 1 while its undo block is in flight, waits for the
    /// persister to reach line 0, and checks that it probed the line
    /// instead of snapshotting it.
    fn commit_while_in_flight(engine: &Engine, medium: &GatedMedium, telemetry: &Telemetry) {
        medium.await_log_persists(1);
        engine.commit_epoch_async(|_| ()).unwrap();
        let line_0 = LineAddr::new(0);
        let reached = loop {
            let snap = telemetry.snapshot();
            let first = snap.events.iter().find(|e| {
                matches!(e.kind, EventKind::BloomCheck { addr, .. }
                    | EventKind::AcsLineWriteback { addr } if addr == line_0)
            });
            if let Some(e) = first {
                break e.kind;
            }
            std::thread::yield_now();
        };
        assert_eq!(
            reached,
            EventKind::BloomCheck {
                addr: line_0,
                hit: true
            },
            "the persister snapshotted line 0 while its undo block was in flight"
        );
    }

    #[test]
    fn writers_and_readers_run_while_a_drain_is_in_flight() {
        let (engine, medium) = gated_engine(Telemetry::off());
        std::thread::scope(|s| {
            let closed = medium.close();
            let filler = s.spawn(|| fill_epoch_one(&engine));
            medium.await_log_persists(1);
            engine.write_line(FILL + 10, &line_of(2)).unwrap();
            assert_eq!(engine.read_line(FILL + 10).unwrap(), line_of(2));
            assert_eq!(engine.read_line(FILL - 1).unwrap(), line_of(7));
            assert!(!filler.is_finished(), "the drain is still gated");
            assert_eq!(engine.stats().drains, 0);
            drop(closed);
            filler.join().unwrap().unwrap();
        });
        assert_eq!(engine.stats().drains, 1);
        engine.close().unwrap();
    }

    #[test]
    fn persister_waits_for_the_fence_of_an_in_flight_line() {
        let telemetry = Telemetry::new(0, 1 << 12);
        let (engine, medium) = gated_engine(telemetry.clone());
        let data_0 = MediumOp::Persist(engine.geometry().data_off(0));
        std::thread::scope(|s| {
            let closed = medium.close();
            let writer = s.spawn(|| fill_epoch_one(&engine));
            commit_while_in_flight(&engine, &medium, &telemetry);
            assert!(
                !medium.ops().contains(&data_0),
                "line written before its undo fence"
            );
            drop(closed);
            writer.join().unwrap().unwrap();
        });
        engine.drain_persister().unwrap();
        let ops = medium.ops();
        let log = ops
            .iter()
            .position(|&o| o == MediumOp::Persist(engine.geometry().log_slot_off(0)))
            .unwrap();
        let data = ops.iter().position(|&o| o == data_0).unwrap();
        assert!(
            ops[log..data].contains(&MediumOp::Fence),
            "line 0 written in place before its undo block's fence: {ops:?}"
        );
        assert_eq!(engine.frontiers().2, 1);
        engine.close().unwrap();
    }

    /// Epoch 1 writes line 0 and commits; while the persister is paused
    /// between its snapshot of line 0 and its probe pass, epoch 2
    /// rewrites the line. The medium dies at op `kill_at`, if given; the
    /// engine is then abandoned with epoch 2 volatile — the crash.
    /// Returns the medium.
    fn rewrite_while_the_persister_is_paused(kill_at: Option<u64>) -> Arc<GatedMedium> {
        let (engine, medium) = gated_engine(Telemetry::off());
        if let Some(op) = kill_at {
            medium.inner.kill_at_op(op);
        }
        let paused = engine.shared.snapshot_pause.arm();
        engine.write_line(0, &line_of(0xA)).unwrap();
        engine.commit_epoch().unwrap();
        engine.shared.snapshot_pause.await_paused();
        engine.write_line(0, &line_of(0xB)).unwrap();
        drop(paused);
        // Fails once the medium is dead; the crash is the point.
        let _ = engine.drain_persister();
        medium
    }

    #[test]
    fn persister_probes_after_its_snapshot() {
        let medium = rewrite_while_the_persister_is_paused(None);
        let cfg = small_cfg();
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let ops = medium.ops();
        let data_0 = ops
            .iter()
            .position(|&o| o == MediumOp::Persist(g.data_off(0)))
            .expect("line 0 was written back");
        // Slot 0 holds epoch 1's boundary block, slot 1 the rewrite's.
        let rewrite = ops
            .iter()
            .position(|&o| o == MediumOp::Persist(g.log_slot_off(1)));
        assert!(
            rewrite.is_some_and(|at| at < data_0 && ops[at..data_0].contains(&MediumOp::Fence)),
            "line 0 written back before the rewrite's undo block was fenced: {ops:?}"
        );
        // A death right after the write-back, or at any later op of the
        // cycle, or none at all: recovery lands on an end-of-epoch value.
        for kill_at in data_0 as u64 + 1..=ops.len() as u64 {
            let medium = rewrite_while_the_persister_is_paused(Some(kill_at));
            let survivor = Arc::new(CountingMedium::from_image(medium.inner.surviving_image()));
            let (engine, report) = Engine::open(survivor, cfg.clone(), Telemetry::off()).unwrap();
            let end_of_epoch = [line_of(0), line_of(0xA)][report.recovered_to as usize];
            assert_eq!(
                engine.read_line(0).unwrap(),
                end_of_epoch,
                "death at op {kill_at} recovered to epoch {} with epoch 2's bytes",
                report.recovered_to
            );
        }
    }

    #[test]
    fn a_panic_in_published_still_writes_the_boundary_block() {
        let cfg = small_cfg();
        let (engine, _) = Engine::open(medium_for(&cfg), cfg, Telemetry::off()).unwrap();
        engine.write_line(0, &line_of(1)).unwrap();
        let commit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.commit_epoch_async(|_| panic!("the caller's callback failed"))
        }));
        assert!(commit.is_err(), "the panic reaches the caller");
        assert_eq!(engine.stats().drains, 1, "the sealed block was written");
        // Nothing is left in flight: the next commit seals and writes.
        engine.write_line(1, &line_of(2)).unwrap();
        assert_eq!(engine.commit_epoch().unwrap(), 2);
        engine.drain_persister().unwrap();
        assert_eq!(engine.close().unwrap().drains, 2);
    }

    #[test]
    fn persister_lock_holds_are_recorded_once_per_cycle() {
        let cfg = small_cfg();
        let (engine, _) = Engine::open(medium_for(&cfg), cfg, Telemetry::off()).unwrap();
        for e in 0..6u32 {
            engine.write_line(e, &line_of(1)).unwrap();
            engine.write_line(e + 8, &line_of(2)).unwrap();
            engine.commit_epoch().unwrap();
        }
        engine.drain_persister().unwrap();
        let snap = engine.registry().snapshot();
        let count =
            |name: &str, labels: &[(&str, &str)]| snap.histogram(name, labels).unwrap().count();
        let cycles = count("picl_store_persister_cycle_ns", &[]);
        assert!(cycles >= 1);
        for phase in ["probe", "publish"] {
            assert_eq!(
                count("picl_store_persister_lock_hold_ns", &[("phase", phase)]),
                cycles,
                "phase {phase}"
            );
        }
        assert_eq!(engine.close().unwrap().line_writebacks, 12);
    }

    #[test]
    fn a_second_fill_waits_for_the_drain_in_flight() {
        let (engine, medium) = gated_engine(Telemetry::off());
        let appended = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            let closed = medium.close();
            let first = s.spawn(|| fill_epoch_one(&engine));
            medium.await_log_persists(1);
            let second = s.spawn(|| {
                for line in FILL..2 * FILL {
                    engine.write_line(line, &line_of(2)).unwrap();
                    appended.fetch_add(1, Ordering::SeqCst);
                }
            });
            // Every append but the one that would fill the buffer goes
            // through; that one must wait out the gated drain.
            while appended.load(Ordering::SeqCst) < FILL - 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(appended.load(Ordering::SeqCst), FILL - 1);
            assert_eq!(medium.gate().log_persists, 1, "a second drain started");
            assert!(!second.is_finished());
            drop(closed);
            first.join().unwrap().unwrap();
            second.join().unwrap();
        });
        let stats = engine.stats();
        assert_eq!((stats.drains, stats.log_blocks_written), (2, 2));
        let waits = engine
            .registry()
            .snapshot()
            .histogram("picl_store_drain_wait_ns", &[])
            .unwrap()
            .count();
        assert!(waits >= 1, "the second fill never waited");
        let ops = medium.ops();
        let g = engine.geometry();
        let first_block = ops
            .iter()
            .position(|&o| o == MediumOp::Persist(g.log_slot_off(0)))
            .unwrap();
        let second_block = ops
            .iter()
            .position(|&o| o == MediumOp::Persist(g.log_slot_off(1)))
            .unwrap();
        assert!(
            ops[first_block..second_block].contains(&MediumOp::Fence),
            "blocks reach the log one fence apart: {ops:?}"
        );
        engine.close().unwrap();
    }

    #[test]
    fn failed_fence_on_an_off_lock_drain_kills_the_engine() {
        let telemetry = Telemetry::new(0, 1 << 12);
        let (engine, medium) = gated_engine(telemetry.clone());
        std::thread::scope(|s| {
            let closed = medium.close();
            medium.gate().fail_log_fence = true;
            let writer = s.spawn(|| fill_epoch_one(&engine));
            commit_while_in_flight(&engine, &medium, &telemetry);
            drop(closed);
            let err = writer.join().unwrap().unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "{err:?}");
        });
        let io = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Io(_)));
        assert!(io(engine.write_line(FILL, &line_of(1))));
        assert!(io(engine.read_line(0).map(drop)));
        assert!(io(engine.commit_epoch().map(drop)));
        assert!(io(engine.drain_persister()));
        assert_eq!(
            engine.frontiers().2,
            0,
            "epoch 1 persisted without its undo block"
        );
        assert!(matches!(engine.close(), Err(StoreError::Io(_))));
    }

    #[test]
    fn drain_histograms_count_every_drain() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        for line in 0..FILL + 1 {
            engine.write_line(line, &line_of(1)).unwrap();
        }
        engine.commit_epoch().unwrap();
        engine.write_line(0, &line_of(2)).unwrap();
        drop(
            engine
                .shared
                .drain_buffer(engine.lock(), DrainPath::Forced)
                .unwrap(),
        );
        engine.drain_persister().unwrap();
        let snap = engine.registry().snapshot();
        let per_path: Vec<u64> = ["inline", "forced", "boundary"]
            .iter()
            .map(|path| {
                snap.histogram("picl_store_undo_drain_ns", &[("path", path)])
                    .unwrap()
                    .count()
            })
            .collect();
        assert!(per_path.iter().all(|&n| n >= 1), "{per_path:?}");
        assert_eq!(
            per_path.iter().sum::<u64>(),
            snap.counter("picl_store_drains_total", &[]).unwrap()
        );
        engine.close().unwrap();
    }

    #[test]
    fn config_validation_rejects_wedgeable_logs() {
        assert!(EngineConfig::default().validate().is_ok());
        let tiny = EngineConfig {
            lines: 4096,
            log_blocks: 8,
            ..EngineConfig::default()
        };
        assert!(matches!(tiny.validate(), Err(StoreError::Config(_))));
        let no_window = EngineConfig {
            window: 0,
            ..EngineConfig::default()
        };
        assert!(no_window.validate().is_err());
    }

    #[test]
    fn fresh_store_reads_zeros_and_commits() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, report) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        assert!(!report.recovered);
        assert_eq!(engine.read_line(7).unwrap(), [0u8; LINE]);
        engine.write_line(7, &line_of(0xAB)).unwrap();
        assert_eq!(engine.read_line(7).unwrap(), line_of(0xAB));
        let eid = engine.commit_epoch().unwrap();
        assert_eq!(eid, 1);
        engine.drain_persister().unwrap();
        let (sys, committed, persisted) = engine.frontiers();
        assert_eq!((sys, committed, persisted), (2, 1, 1));
        let stats = engine.close().unwrap();
        assert_eq!(stats.undo_entries, 1);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.persists, 1);
        assert_eq!(stats.line_writebacks, 1);
    }

    #[test]
    fn clean_reopen_recovers_everything_committed() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            for e in 0..3u8 {
                engine.write_line(u32::from(e), &line_of(e + 1)).unwrap();
                engine.commit_epoch().unwrap();
            }
            engine.close().unwrap();
        }
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (engine, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.recovered_to, 3);
        for e in 0..3u8 {
            assert_eq!(engine.read_line(u32::from(e)).unwrap(), line_of(e + 1));
        }
        let (sys, _, persisted) = engine.frontiers();
        assert_eq!(sys, 4);
        assert_eq!(persisted, 3);
    }

    #[test]
    fn uncommitted_epoch_rolls_back_on_recovery() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            engine.write_line(0, &line_of(1)).unwrap();
            engine.commit_epoch().unwrap();
            engine.drain_persister().unwrap();
            // Epoch 2 dirties line 0 again but never commits; the forced
            // persister writeback of epoch 1 already put epoch-2 bytes in
            // place, so recovery must roll them back via the undo log.
            engine.write_line(0, &line_of(9)).unwrap();
            // Force the entry durable so the crash has something to undo.
            drop(
                engine
                    .shared
                    .drain_buffer(engine.lock(), DrainPath::Forced)
                    .unwrap(),
            );
            // Simulate the torn state: persist line 0's volatile (epoch 2)
            // bytes in place, as a later ACS pass would.
            engine
                .shared
                .medium
                .persist(engine.geometry().data_off(0), &line_of(9))
                .unwrap();
            engine.shared.medium.fence().unwrap();
            // Abandon without close: the kill.
        }
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (engine, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.recovered_to, 1);
        assert!(report.entries_applied >= 1);
        assert_eq!(engine.read_line(0).unwrap(), line_of(1), "epoch 2 undone");
    }

    #[test]
    fn window_bounds_commit_minus_persist() {
        let cfg = EngineConfig {
            window: 2,
            log_blocks: 32,
            ..small_cfg()
        };
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        for e in 0..20u32 {
            engine.write_line(e % 8, &line_of(e as u8)).unwrap();
            engine.commit_epoch().unwrap();
            let (_, committed, persisted) = engine.frontiers();
            assert!(
                committed - persisted <= 2,
                "window violated: committed {committed}, persisted {persisted}"
            );
        }
        engine.close().unwrap();
    }

    #[test]
    fn async_commit_defers_the_window_wait() {
        let cfg = EngineConfig {
            window: 2,
            log_blocks: 32,
            persist_stall_ms: 20,
            ..small_cfg()
        };
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        // With the persister stalled 20 ms per epoch (the stall needs a
        // batch of at least two lines), phase-one commits must return
        // immediately and report when the window fills; only wait_window
        // blocks.
        let mut full_seen = false;
        for e in 0..6u32 {
            engine.write_line(e % 8, &line_of(e as u8)).unwrap();
            engine.write_line((e + 1) % 8, &line_of(e as u8)).unwrap();
            let t0 = std::time::Instant::now();
            let ticket = engine.commit_epoch_async(|_| ()).unwrap();
            assert_eq!(ticket.eid, u64::from(e) + 1);
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(15),
                "phase one stalled on the persister"
            );
            if ticket.window_full {
                full_seen = true;
                engine.wait_window(ticket).unwrap();
                let (_, committed, persisted) = engine.frontiers();
                assert!(committed - persisted <= 2, "wait_window under-waited");
            }
        }
        assert!(full_seen, "a 20 ms persist stall never filled window 2");
        // A ticket whose window already drained returns immediately.
        engine.drain_persister().unwrap();
        let ticket = engine.commit_epoch_async(|_| ()).unwrap();
        engine.wait_window(ticket).unwrap();
        engine.close().unwrap();
    }

    #[test]
    fn image_shard_spans_tile_the_table() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg.clone(), Telemetry::off()).unwrap();
        let mut next = 0u32;
        for shard in 0..engine.image_shard_count() {
            let (start, end) = engine.image_shard_span(shard);
            assert_eq!(start, next, "spans must tile contiguously");
            assert!(end >= start);
            for line in start..end {
                assert_eq!(engine.image_shard_of_line(line), shard);
            }
            next = end;
        }
        assert_eq!(next, cfg.lines, "spans must cover every line");
        engine.close().unwrap();
    }

    #[test]
    fn medium_death_surfaces_as_errors_everywhere() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(Arc::clone(&medium) as _, cfg, Telemetry::off()).unwrap();
        engine.write_line(0, &line_of(1)).unwrap();
        engine.commit_epoch().unwrap();
        engine.drain_persister().unwrap();
        let ops_so_far = medium.stats().persists + medium.stats().fences;
        medium.kill_at_op(ops_so_far); // the very next medium op dies
        engine.write_line(1, &line_of(2)).unwrap();
        let err = engine.commit_epoch();
        // The commit itself (drain) or the persister hits the dead medium;
        // either way the engine is now wedged and says so.
        let wedged = err.is_err() || engine.drain_persister().is_err();
        assert!(wedged, "death not observed");
        assert!(matches!(engine.close(), Err(StoreError::Io(_))));
    }

    #[test]
    fn corrupt_superblock_is_rejected() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        medium.persist(0, &[0xFFu8; 64]).unwrap();
        medium.fence().unwrap();
        let err = Engine::open(medium, cfg, Telemetry::off()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn telemetry_stream_is_ordered_and_complete() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let telemetry = Telemetry::new(0, 1 << 14);
        let (engine, _) = Engine::open(medium, cfg, telemetry.clone()).unwrap();
        for e in 0..4u32 {
            engine.write_line(e, &line_of(1)).unwrap();
            engine.write_line(e, &line_of(2)).unwrap(); // second write: no new entry
            engine.commit_epoch().unwrap();
        }
        engine.drain_persister().unwrap();
        engine.close().unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.dropped, 0);
        let mut last = 0;
        for ev in &snap.events {
            assert!(ev.at.raw() > last, "ticks strictly increase");
            last = ev.at.raw();
        }
        let count = |pred: &dyn Fn(&EventKind) -> bool| {
            snap.events.iter().filter(|e| pred(&e.kind)).count()
        };
        assert_eq!(count(&|k| matches!(k, EventKind::EpochCommit { .. })), 4);
        assert_eq!(count(&|k| matches!(k, EventKind::EpochPersist { .. })), 4);
        assert_eq!(
            count(&|k| matches!(k, EventKind::UndoEntryAppended { .. })),
            4,
            "one entry per (line, epoch) despite double writes"
        );
    }
}
