//! The benchmark's emulated-NVM medium: DRAM bytes plus Makalu-style
//! spin latencies, with every call attributed by caller and region.
//!
//! Latency model: each `persist` spins [`PERSIST_NS`] and each `fence`
//! spins [`FENCE_NS`], the PCM figures Makalu's `emulate_latency_ns`
//! charges per `clflush` and per `mfence` (the same figures `picl store
//! run --medium latency` uses). The bytes themselves land in memory, so
//! the medium's speed depends on the CPU, not on host `fdatasync`.
//!
//! Flush policy: the engine's own. The medium adds no batching and no
//! flushes; every undo drain and every persister cycle fences, and each
//! of those fences costs [`FENCE_NS`] here.
//!
//! No lock is shared between callers. Bytes live in one array of atomic
//! words, allocated and zeroed up front (as a real device exists before
//! the store opens: no first-touch page faults inside timed calls), and
//! the counters are split into one cache-line-aligned lane per caller
//! class, so client threads and the persister never contend on the
//! medium itself.
//!
//! Attribution (only while [`EmuNvm::set_traced`] is on): the time spent
//! inside each call, including its spin, is charged to
//! - the caller: [`Caller::Client`] for threads the benchmark marked
//!   with [`mark_client_thread`], [`Caller::Background`] for every other
//!   thread (the engine's persister);
//! - the region its offset falls in, from the store's [`Geometry`]:
//!   superblock, data lines or undo log. A fence has no offset, so it is
//!   charged to the region of its thread's last persist.

use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use picl_store::layout::{Geometry, DATA_OFFSET};
use picl_store::{PersistOps, PersistStats};

/// Nanoseconds charged per `persist` (Makalu's PCM `clflush`).
pub const PERSIST_NS: u64 = 340;
/// Nanoseconds charged per `fence` (Makalu's PCM `mfence`).
pub const FENCE_NS: u64 = 500;

/// Who issued a medium call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// A thread the benchmark marked as a client session.
    Client = 0,
    /// Any other thread: the engine's background persister.
    Background = 1,
}

/// Which part of the store layout a call touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The superblock (offsets below the data region).
    Super = 0,
    /// In-place data lines.
    Data = 1,
    /// The circular undo log.
    Log = 2,
}

thread_local! {
    static CLIENT: Cell<bool> = const { Cell::new(false) };
    static LAST_REGION: Cell<Region> = const { Cell::new(Region::Super) };
}

/// Marks the calling thread as a client session for attribution.
pub fn mark_client_thread() {
    CLIENT.with(|c| c.set(true));
}

fn caller() -> Caller {
    if CLIENT.with(Cell::get) {
        Caller::Client
    } else {
        Caller::Background
    }
}

/// One caller class's counters, on a cache line of its own.
#[derive(Default)]
#[repr(align(128))]
struct Lane {
    persists: AtomicU64,
    fences: AtomicU64,
    bytes: AtomicU64,
    busy_ns: [AtomicU64; 3],
    calls: [AtomicU64; 3],
}

/// A point-in-time copy of the attribution counters, indexed
/// `[caller][region]` where a region applies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// `persist` calls per caller.
    pub persists: [u64; 2],
    /// `fence` calls per caller.
    pub fences: [u64; 2],
    /// Bytes persisted per caller.
    pub bytes: [u64; 2],
    /// Nanoseconds inside medium calls (traced only).
    pub busy_ns: [[u64; 3]; 2],
    /// Medium calls (traced only).
    pub calls: [[u64; 3]; 2],
}

impl Usage {
    /// The counts accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        let mut out = Usage::default();
        for c in 0..2 {
            out.persists[c] = self.persists[c] - earlier.persists[c];
            out.fences[c] = self.fences[c] - earlier.fences[c];
            out.bytes[c] = self.bytes[c] - earlier.bytes[c];
            for r in 0..3 {
                out.busy_ns[c][r] = self.busy_ns[c][r] - earlier.busy_ns[c][r];
                out.calls[c][r] = self.calls[c][r] - earlier.calls[c][r];
            }
        }
        out
    }

    /// Busy nanoseconds of one caller, over all regions.
    pub fn caller_busy_ns(&self, caller: Caller) -> u64 {
        self.busy_ns[caller as usize].iter().sum()
    }

    /// Busy nanoseconds in one region, over both callers.
    pub fn region_busy_ns(&self, region: Region) -> u64 {
        self.busy_ns.iter().map(|r| r[region as usize]).sum()
    }

    /// Calls in one region from one caller.
    #[cfg(test)]
    pub fn calls_in(&self, caller: Caller, region: Region) -> u64 {
        self.calls[caller as usize][region as usize]
    }
}

/// In-memory NVM with spin latencies and caller/region attribution.
pub struct EmuNvm {
    words: Box<[AtomicU64]>,
    len: u64,
    data_end: u64,
    persist_ns: u64,
    fence_ns: u64,
    traced: AtomicBool,
    lanes: [Lane; 2],
}

impl std::fmt::Debug for EmuNvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmuNvm")
            .field("len", &self.len)
            .field("persist_ns", &self.persist_ns)
            .field("fence_ns", &self.fence_ns)
            .finish_non_exhaustive()
    }
}

fn spin(ns: u64) {
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

fn out_of_range(offset: u64, len: usize, cap: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("access of {len} bytes at {offset} beyond medium of {cap} bytes"),
    )
}

impl EmuNvm {
    /// A zeroed medium sized for `geometry`, charging the Makalu
    /// latencies.
    pub fn new(geometry: Geometry) -> EmuNvm {
        EmuNvm::with_latency(geometry, PERSIST_NS, FENCE_NS)
    }

    /// A zeroed medium sized for `geometry` with explicit latencies.
    pub fn with_latency(geometry: Geometry, persist_ns: u64, fence_ns: u64) -> EmuNvm {
        let len = geometry.total_len();
        let words: Box<[AtomicU64]> = (0..len.div_ceil(8)).map(|_| AtomicU64::new(0)).collect();
        // The allocator may hand back untouched zero pages; touch one
        // word per 4 KiB page so no timed call pays a first-touch fault.
        for word in words.iter().step_by(512) {
            word.store(0, Ordering::Relaxed);
        }
        EmuNvm {
            words,
            len,
            data_end: DATA_OFFSET + u64::from(geometry.lines) * picl_types::LINE_BYTES,
            persist_ns,
            fence_ns,
            traced: AtomicBool::new(false),
            lanes: [Lane::default(), Lane::default()],
        }
    }

    /// Turns per-call timing and attribution on or off.
    pub fn set_traced(&self, on: bool) {
        self.traced.store(on, Ordering::Relaxed);
    }

    /// The region an offset falls in.
    pub fn region_of(&self, offset: u64) -> Region {
        if offset < DATA_OFFSET {
            Region::Super
        } else if offset < self.data_end {
            Region::Data
        } else {
            Region::Log
        }
    }

    /// A copy of the attribution counters.
    pub fn usage(&self) -> Usage {
        let mut out = Usage::default();
        for (c, lane) in self.lanes.iter().enumerate() {
            out.persists[c] = lane.persists.load(Ordering::Relaxed);
            out.fences[c] = lane.fences.load(Ordering::Relaxed);
            out.bytes[c] = lane.bytes.load(Ordering::Relaxed);
            for r in 0..3 {
                out.busy_ns[c][r] = lane.busy_ns[r].load(Ordering::Relaxed);
                out.calls[c][r] = lane.calls[r].load(Ordering::Relaxed);
            }
        }
        out
    }

    // Word accesses are `Relaxed`: the medium publishes nothing itself.
    // The engine orders its own writes and reads (its protocol mutex, the
    // persister's hand-offs, and the join at close before a reopen).
    fn write(&self, offset: u64, data: &[u8]) {
        let mut at = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let word = (at / 8) as usize;
            let shift = (at % 8) as usize;
            let take = (8 - shift).min(rest.len());
            let cell = &self.words[word];
            if take == 8 {
                let bytes: [u8; 8] = rest[..8].try_into().expect("eight bytes");
                cell.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            } else {
                let patch = &rest[..take];
                let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                    let mut bytes = old.to_le_bytes();
                    bytes[shift..shift + take].copy_from_slice(patch);
                    Some(u64::from_le_bytes(bytes))
                });
            }
            at += take as u64;
            rest = &rest[take..];
        }
    }

    fn charge(&self, lane: &Lane, region: Region, started: Option<Instant>) {
        if let Some(t0) = started {
            lane.busy_ns[region as usize]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            lane.calls[region as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl PersistOps for EmuNvm {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let started = self.traced.load(Ordering::Relaxed).then(Instant::now);
        offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| out_of_range(offset, data.len(), self.len))?;
        self.write(offset, data);
        spin(self.persist_ns);
        let region = self.region_of(offset);
        LAST_REGION.with(|r| r.set(region));
        let lane = &self.lanes[caller() as usize];
        lane.persists.fetch_add(1, Ordering::Relaxed);
        lane.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.charge(lane, region, started);
        Ok(())
    }

    fn fence(&self) -> io::Result<()> {
        let started = self.traced.load(Ordering::Relaxed).then(Instant::now);
        spin(self.fence_ns);
        let lane = &self.lanes[caller() as usize];
        lane.fences.fetch_add(1, Ordering::Relaxed);
        self.charge(lane, LAST_REGION.with(Cell::get), started);
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        offset
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| out_of_range(offset, buf.len(), self.len))?;
        let mut at = offset;
        let mut rest = buf;
        while !rest.is_empty() {
            let word = (at / 8) as usize;
            let shift = (at % 8) as usize;
            let take = (8 - shift).min(rest.len());
            let value = self.words[word].load(Ordering::Relaxed);
            rest[..take].copy_from_slice(&value.to_le_bytes()[shift..shift + take]);
            at += take as u64;
            rest = &mut rest[take..];
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn stats(&self) -> PersistStats {
        let usage = self.usage();
        PersistStats {
            persists: usage.persists.iter().sum(),
            fences: usage.fences.iter().sum(),
            bytes_persisted: usage.bytes.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use picl_store::{Engine, EngineConfig, UNDO_BUFFER_ENTRIES};
    use picl_telemetry::Telemetry;

    use super::*;

    #[test]
    fn bytes_round_trip_at_any_alignment() {
        let m = EmuNvm::with_latency(
            Geometry {
                lines: 4,
                log_blocks: 1,
            },
            0,
            0,
        );
        m.persist(4099, b"unaligned bytes").unwrap();
        m.persist(4096 + 64, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 17];
        m.read(4098, &mut buf).unwrap();
        assert_eq!(&buf, b"\0unaligned bytes\0");
        let mut line = [0u8; 64];
        m.read(4096 + 64, &mut line).unwrap();
        assert_eq!(line, [7u8; 64]);
        assert!(m.persist(m.len() - 1, &[0, 0]).is_err());
        assert_eq!(m.stats().bytes_persisted, 15 + 64);
    }

    #[test]
    fn inline_drain_is_client_log_and_persister_cycle_is_background_data_super() {
        let cfg = EngineConfig {
            lines: 64,
            log_blocks: 64,
            ..EngineConfig::default()
        };
        let geometry = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(EmuNvm::with_latency(geometry, 0, 0));
        medium.set_traced(true);
        let (engine, _) = Engine::open(
            Arc::clone(&medium) as Arc<dyn PersistOps>,
            cfg,
            Telemetry::off(),
        )
        .unwrap();
        let opened = medium.usage();
        let lines = UNDO_BUFFER_ENTRIES as u32;

        // A client thread fills the undo buffer: its last write drains
        // the buffer inline, one log-block persist plus one fence.
        std::thread::scope(|s| {
            s.spawn(|| {
                mark_client_thread();
                for line in 0..lines {
                    engine.write_line(line, &[1u8; 64]).unwrap();
                }
            });
        });
        let drained = medium.usage().since(&opened);
        assert_eq!(drained.calls_in(Caller::Client, Region::Log), 2);
        assert_eq!(drained.persists, [1, 0]);
        assert_eq!(drained.fences, [1, 0]);
        assert_eq!(drained.calls_in(Caller::Client, Region::Data), 0);
        assert_eq!(drained.caller_busy_ns(Caller::Background), 0);

        // The commit queues the epoch; the persister writes every dirty
        // line in place, fences, then persists and fences the superblock.
        let before = medium.usage();
        engine.commit_epoch().unwrap();
        engine.drain_persister().unwrap();
        let cycle = medium.usage().since(&before);
        assert_eq!(
            cycle.calls_in(Caller::Background, Region::Data),
            u64::from(lines) + 1
        );
        assert_eq!(cycle.calls_in(Caller::Background, Region::Super), 2);
        assert_eq!(cycle.calls_in(Caller::Background, Region::Log), 0);
        assert_eq!(
            cycle.persists[Caller::Background as usize],
            u64::from(lines) + 1
        );
        assert_eq!(cycle.fences[Caller::Background as usize], 2);
        engine.close().unwrap();
    }
}
