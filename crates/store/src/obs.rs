//! Engine-side observability: the protocol counters, persister and
//! epoch-pipeline instruments, registered into the
//! [`picl_obs::MetricsRegistry`] every [`crate::Engine`] owns.
//!
//! The instruments exist from [`crate::Engine::open`] on and are always
//! recorded: each counter is one relaxed `fetch_add` on a thread-striped
//! cell, bumped at the program points that used to bump a stats block
//! under the protocol mutex. [`crate::engine::EngineStats`] is a
//! read-only view over the counters ([`StoreObs::stats`]), and
//! [`crate::Engine::registry`] is where scrapers, flight recorders and
//! the serving layer find the same series.

use picl_obs::{Counter, Gauge, Histo, MetricsRegistry};

use crate::engine::EngineStats;

/// Handles for every engine instrument. One per engine. The counters
/// are the [`EngineStats`] fields (see there for their meaning); the
/// series names are in [`StoreObs::register`].
pub struct StoreObs {
    pub undo_entries: Counter,
    pub drains: Counter,
    pub forced_drains: Counter,
    pub log_blocks_written: Counter,
    pub commits: Counter,
    pub persists: Counter,
    pub line_writebacks: Counter,
    pub bloom_hits: Counter,
    pub window_stalls: Counter,
    /// Media fences issued (drains + persist cycles).
    pub fences: Counter,
    /// Wall time of one persister cycle (snapshot + in-place writes +
    /// fences + superblock).
    pub cycle_ns: Histo,
    /// How long one persister cycle held the protocol mutex, by phase:
    /// `[probe, publish]` — the batch's probe pass (from taking the mutex
    /// to releasing it; a forced drain inside it releases the mutex while
    /// its block is written) and the frontier advance (superblock write
    /// included). One sample per phase per completed cycle.
    pub persister_lock_hold_ns: [Histo; 2],
    /// Committed epochs retired per persister cycle (the backlog the
    /// batched fence amortizes over).
    pub backlog_epochs: Histo,
    /// Time a committer spent blocked on the §IV-A in-order window.
    pub window_wait_ns: Histo,
    /// Wall time of one undo drain, seal to fence done, by what sealed
    /// the block: `[inline, forced, boundary]` (a writer's full buffer,
    /// the persister's bloom hit, an epoch commit). One sample per drain.
    pub undo_drain_ns: [Histo; 3],
    /// Time a writer, a committer or the persister spent blocked on an
    /// in-flight undo drain.
    pub drain_wait_ns: Histo,
    /// Epochs not yet persisted, including the executing one
    /// (`sys_eid - persisted`).
    pub open_epochs: Gauge,
    /// Committed-but-unpersisted epochs (`committed - persisted`, the
    /// quantity the window bounds).
    pub window_occupancy: Gauge,
    /// Undo entries sitting in the volatile coalescing buffer.
    pub undo_buffer_fill: Gauge,
    /// Live (un-GCed) log blocks.
    pub log_blocks_live: Gauge,
}

impl StoreObs {
    /// Registers the engine instrument set.
    pub fn register(reg: &MetricsRegistry) -> StoreObs {
        let counter = |name: &str, help: &str| reg.counter(name, &[], help);
        let histogram = |name: &str, help: &str| reg.histogram(name, &[], help);
        let gauge = |name: &str, help: &str| reg.gauge(name, &[], help);
        StoreObs {
            undo_entries: counter(
                "picl_store_undo_entries_total",
                "Undo entries appended (first write per line per epoch).",
            ),
            drains: counter(
                "picl_store_drains_total",
                "Undo-buffer drains (bulk log-block writes).",
            ),
            forced_drains: counter(
                "picl_store_forced_drains_total",
                "Undo-buffer drains forced by a persister bloom hit.",
            ),
            log_blocks_written: counter(
                "picl_store_log_blocks_written_total",
                "Undo log blocks written.",
            ),
            commits: counter("picl_store_commits_total", "Epoch commits."),
            persists: counter(
                "picl_store_persists_total",
                "Epoch persists (persist-frontier advances).",
            ),
            line_writebacks: counter(
                "picl_store_persister_lines_total",
                "In-place line write-backs by the persister.",
            ),
            bloom_hits: counter(
                "picl_store_bloom_hits_total",
                "Persister probes that found a volatile undo entry.",
            ),
            window_stalls: counter(
                "picl_store_window_stalls_total",
                "Wake-ups committers spent stalled on the in-order window.",
            ),
            fences: counter(
                "picl_store_fences_total",
                "Media fences issued by drains and persist cycles.",
            ),
            cycle_ns: histogram(
                "picl_store_persister_cycle_ns",
                "Wall time of one persister cycle (snapshot, in-place writes, fences, superblock).",
            ),
            persister_lock_hold_ns: ["probe", "publish"].map(|phase| {
                reg.histogram(
                    "picl_store_persister_lock_hold_ns",
                    &[("phase", phase)],
                    "Protocol-mutex hold of one persister cycle, by phase (probe pass, frontier publish).",
                )
            }),
            backlog_epochs: histogram(
                "picl_store_persister_backlog_epochs",
                "Committed epochs retired per persister cycle.",
            ),
            window_wait_ns: histogram(
                "picl_store_window_wait_ns",
                "Time committers spent blocked on the in-order window.",
            ),
            undo_drain_ns: ["inline", "forced", "boundary"].map(|path| {
                reg.histogram(
                    "picl_store_undo_drain_ns",
                    &[("path", path)],
                    "Undo drain wall time, seal to fence done, by what sealed the block.",
                )
            }),
            drain_wait_ns: histogram(
                "picl_store_drain_wait_ns",
                "Time writers, committers and the persister spent blocked on an in-flight undo drain.",
            ),
            open_epochs: gauge(
                "picl_store_open_epochs",
                "Epochs not yet persisted, including the executing one.",
            ),
            window_occupancy: gauge(
                "picl_store_window_occupancy",
                "Committed-but-unpersisted epochs (bounded by the in-order window).",
            ),
            undo_buffer_fill: gauge(
                "picl_store_undo_buffer_fill",
                "Undo entries in the volatile coalescing buffer.",
            ),
            log_blocks_live: gauge(
                "picl_store_log_blocks_live",
                "Live (un-garbage-collected) undo log blocks.",
            ),
        }
    }

    /// The protocol counters as an [`EngineStats`] value.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            undo_entries: self.undo_entries.value(),
            drains: self.drains.value(),
            forced_drains: self.forced_drains.value(),
            log_blocks_written: self.log_blocks_written.value(),
            commits: self.commits.value(),
            persists: self.persists.value(),
            line_writebacks: self.line_writebacks.value(),
            bloom_hits: self.bloom_hits.value(),
            window_stalls: self.window_stalls.value(),
        }
    }
}
