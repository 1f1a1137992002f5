//! The typed event vocabulary.
//!
//! Every instrumented point in the simulator records one [`EventKind`]
//! stamped with a cycle timestamp and an optional originating core. Kinds
//! are closed (an enum, not strings) so recording is allocation-free and
//! exporters can route each kind to a stable track.

use picl_types::{CoreId, Cycle, EpochId, LineAddr};

/// What happened. Spans that have a duration (ACS scans, NVM requests,
/// stop-the-world stalls) carry both endpoints in one event so the ring
/// never holds half a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A new epoch started executing (the first event of every trace, and
    /// one per epoch boundary thereafter).
    EpochBegin {
        /// The epoch now executing.
        eid: EpochId,
    },
    /// The executing epoch committed at a boundary.
    EpochCommit {
        /// The epoch that committed.
        eid: EpochId,
    },
    /// An epoch became durable (recoverable after power loss).
    EpochPersist {
        /// The epoch that persisted.
        eid: EpochId,
    },
    /// Execution stalled for a synchronous flush at an epoch boundary.
    BoundaryStall {
        /// Cycle at which execution resumed.
        until: Cycle,
    },
    /// A volatile undo entry was created for a line (on-chip buffer push
    /// for PiCL, per-store log read for FRM). The auditor pairs this with
    /// a later [`EventKind::UndoDrain`] to prove undo-before-eviction.
    UndoEntryAppended {
        /// Line the pre-image covers.
        addr: LineAddr,
        /// First epoch the pre-image is valid for (exclusive lower bound).
        valid_from: EpochId,
        /// Epoch whose crash the pre-image undoes (inclusive upper bound).
        valid_till: EpochId,
    },
    /// The on-chip undo buffer drained to the durable log.
    UndoDrain {
        /// Entries flushed.
        entries: u64,
        /// Bytes of the bulk sequential write.
        bytes: u64,
        /// Whether a bloom-filter hit on an eviction forced the drain.
        forced: bool,
        /// When the buffer was sealed: the drain covers exactly the
        /// entries appended at or before this cycle. Drains that complete
        /// as they seal (the simulator's) pass their own cycle.
        sealed: Cycle,
    },
    /// A dirty eviction probed the undo buffer's bloom filter.
    BloomCheck {
        /// Line being evicted.
        addr: LineAddr,
        /// Whether the probe reported a (possible) conflict.
        hit: bool,
    },
    /// One asynchronous cache-scan pass completed.
    AcsScan {
        /// The epoch the pass persisted.
        target: EpochId,
        /// Dirty lines written back by the pass.
        lines: u64,
        /// Cycle the pass started.
        started: Cycle,
    },
    /// The ACS wrote one line in place.
    AcsLineWriteback {
        /// The line written.
        addr: LineAddr,
    },
    /// A dirty line left the LLC toward memory.
    DirtyWriteback {
        /// The line evicted.
        addr: LineAddr,
    },
    /// One NVM request, enqueue-to-completion.
    NvmAccess {
        /// Access-class label (`"demand-read"`, `"undo-log-bulk"`, …).
        class: &'static str,
        /// Whether this was a write.
        write: bool,
        /// Bytes transferred.
        bytes: u64,
        /// Cycle the request completed (dequeue); the event timestamp is
        /// the enqueue cycle.
        done: Cycle,
    },
    /// A power failure was injected.
    CrashInjected,
    /// Crash recovery started replaying durable state.
    RecoveryStart,
    /// Crash recovery finished.
    RecoveryDone {
        /// The checkpoint memory was restored to.
        recovered_to: EpochId,
        /// Log/table entries applied.
        entries: u64,
    },
    /// Escape hatch for one-off numeric markers.
    Marker {
        /// Label (static so recording stays allocation-free).
        name: &'static str,
        /// Attached value.
        value: u64,
    },
}

/// Display tracks events are grouped onto (Chrome-trace `tid`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Epoch lifecycle: begin/commit/persist.
    Epochs,
    /// Undo-buffer activity: drains and bloom probes.
    UndoBuffer,
    /// Asynchronous cache scan.
    Acs,
    /// NVM request stream.
    Nvm,
    /// Cache-hierarchy write-backs.
    Cache,
    /// Stop-the-world stalls.
    Stalls,
    /// Crash/recovery phases.
    Crash,
}

impl Track {
    /// Stable numeric id for exporters.
    pub fn tid(self) -> u64 {
        match self {
            Track::Epochs => 1,
            Track::UndoBuffer => 2,
            Track::Acs => 3,
            Track::Nvm => 4,
            Track::Cache => 5,
            Track::Stalls => 6,
            Track::Crash => 7,
        }
    }

    /// Human-readable track label.
    pub fn label(self) -> &'static str {
        match self {
            Track::Epochs => "epochs",
            Track::UndoBuffer => "undo-buffer",
            Track::Acs => "acs",
            Track::Nvm => "nvm",
            Track::Cache => "cache",
            Track::Stalls => "stalls",
            Track::Crash => "crash",
        }
    }

    /// Every track, in tid order.
    pub fn all() -> [Track; 7] {
        [
            Track::Epochs,
            Track::UndoBuffer,
            Track::Acs,
            Track::Nvm,
            Track::Cache,
            Track::Stalls,
            Track::Crash,
        ]
    }
}

impl EventKind {
    /// Bit identifying [`EventKind::EpochBegin`] in an interest mask.
    pub const EPOCH_BEGIN_BIT: u32 = 1 << 0;
    /// Bit identifying [`EventKind::EpochCommit`] in an interest mask.
    pub const EPOCH_COMMIT_BIT: u32 = 1 << 1;
    /// Bit identifying [`EventKind::EpochPersist`] in an interest mask.
    pub const EPOCH_PERSIST_BIT: u32 = 1 << 2;
    /// Bit identifying [`EventKind::BoundaryStall`] in an interest mask.
    pub const BOUNDARY_STALL_BIT: u32 = 1 << 3;
    /// Bit identifying [`EventKind::UndoEntryAppended`] in an interest mask.
    pub const UNDO_ENTRY_APPENDED_BIT: u32 = 1 << 4;
    /// Bit identifying [`EventKind::UndoDrain`] in an interest mask.
    pub const UNDO_DRAIN_BIT: u32 = 1 << 5;
    /// Bit identifying [`EventKind::BloomCheck`] in an interest mask.
    pub const BLOOM_CHECK_BIT: u32 = 1 << 6;
    /// Bit identifying [`EventKind::AcsScan`] in an interest mask.
    pub const ACS_SCAN_BIT: u32 = 1 << 7;
    /// Bit identifying [`EventKind::AcsLineWriteback`] in an interest mask.
    pub const ACS_LINE_WRITEBACK_BIT: u32 = 1 << 8;
    /// Bit identifying [`EventKind::DirtyWriteback`] in an interest mask.
    pub const DIRTY_WRITEBACK_BIT: u32 = 1 << 9;
    /// Bit identifying [`EventKind::NvmAccess`] in an interest mask.
    pub const NVM_ACCESS_BIT: u32 = 1 << 10;
    /// Bit identifying [`EventKind::CrashInjected`] in an interest mask.
    pub const CRASH_INJECTED_BIT: u32 = 1 << 11;
    /// Bit identifying [`EventKind::RecoveryStart`] in an interest mask.
    pub const RECOVERY_START_BIT: u32 = 1 << 12;
    /// Bit identifying [`EventKind::RecoveryDone`] in an interest mask.
    pub const RECOVERY_DONE_BIT: u32 = 1 << 13;
    /// Bit identifying [`EventKind::Marker`] in an interest mask.
    pub const MARKER_BIT: u32 = 1 << 14;

    /// This kind's bit in a sink interest mask (one distinct bit per
    /// variant, so a mask can name any subset of the vocabulary).
    #[inline]
    pub fn mask_bit(&self) -> u32 {
        match self {
            EventKind::EpochBegin { .. } => Self::EPOCH_BEGIN_BIT,
            EventKind::EpochCommit { .. } => Self::EPOCH_COMMIT_BIT,
            EventKind::EpochPersist { .. } => Self::EPOCH_PERSIST_BIT,
            EventKind::BoundaryStall { .. } => Self::BOUNDARY_STALL_BIT,
            EventKind::UndoEntryAppended { .. } => Self::UNDO_ENTRY_APPENDED_BIT,
            EventKind::UndoDrain { .. } => Self::UNDO_DRAIN_BIT,
            EventKind::BloomCheck { .. } => Self::BLOOM_CHECK_BIT,
            EventKind::AcsScan { .. } => Self::ACS_SCAN_BIT,
            EventKind::AcsLineWriteback { .. } => Self::ACS_LINE_WRITEBACK_BIT,
            EventKind::DirtyWriteback { .. } => Self::DIRTY_WRITEBACK_BIT,
            EventKind::NvmAccess { .. } => Self::NVM_ACCESS_BIT,
            EventKind::CrashInjected => Self::CRASH_INJECTED_BIT,
            EventKind::RecoveryStart => Self::RECOVERY_START_BIT,
            EventKind::RecoveryDone { .. } => Self::RECOVERY_DONE_BIT,
            EventKind::Marker { .. } => Self::MARKER_BIT,
        }
    }

    /// Stable snake_case name used by the JSONL exporter.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::EpochBegin { .. } => "epoch_begin",
            EventKind::EpochCommit { .. } => "epoch_commit",
            EventKind::EpochPersist { .. } => "epoch_persist",
            EventKind::BoundaryStall { .. } => "boundary_stall",
            EventKind::UndoEntryAppended { .. } => "undo_entry_appended",
            EventKind::UndoDrain { .. } => "undo_drain",
            EventKind::BloomCheck { .. } => "bloom_check",
            EventKind::AcsScan { .. } => "acs_scan",
            EventKind::AcsLineWriteback { .. } => "acs_line_writeback",
            EventKind::DirtyWriteback { .. } => "dirty_writeback",
            EventKind::NvmAccess { .. } => "nvm_access",
            EventKind::CrashInjected => "crash_injected",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryDone { .. } => "recovery_done",
            EventKind::Marker { .. } => "marker",
        }
    }

    /// The display track this kind belongs to.
    pub fn track(&self) -> Track {
        match self {
            EventKind::EpochBegin { .. }
            | EventKind::EpochCommit { .. }
            | EventKind::EpochPersist { .. } => Track::Epochs,
            EventKind::UndoEntryAppended { .. }
            | EventKind::UndoDrain { .. }
            | EventKind::BloomCheck { .. } => Track::UndoBuffer,
            EventKind::AcsScan { .. } | EventKind::AcsLineWriteback { .. } => Track::Acs,
            EventKind::NvmAccess { .. } => Track::Nvm,
            EventKind::DirtyWriteback { .. } => Track::Cache,
            EventKind::BoundaryStall { .. } => Track::Stalls,
            EventKind::CrashInjected
            | EventKind::RecoveryStart
            | EventKind::RecoveryDone { .. } => Track::Crash,
            EventKind::Marker { .. } => Track::Stalls,
        }
    }
}

/// One recorded event: timestamp, origin, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event occurred (for spans: the start).
    pub at: Cycle,
    /// Originating core, if the event is core-attributable.
    pub core: Option<CoreId>,
    /// The payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_tracks_are_stable() {
        let e = EventKind::EpochCommit { eid: EpochId(3) };
        assert_eq!(e.name(), "epoch_commit");
        assert_eq!(e.track(), Track::Epochs);
        assert_eq!(Track::Epochs.tid(), 1);
        assert_eq!(Track::Nvm.label(), "nvm");
    }

    #[test]
    fn tids_are_unique() {
        let mut tids: Vec<u64> = Track::all().iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), Track::all().len());
    }
}
