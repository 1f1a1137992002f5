//! Serving-layer observability: per-shard mutation and escalation
//! counters, the group-commit stall and phase timings, and the opt-in
//! per-op timers, registered into the engine's
//! [`picl_obs::MetricsRegistry`] when [`crate::ServeKv`] opens.
//!
//! Counters and commit timings are always on: a counter bump is one
//! relaxed `fetch_add` on a thread-striped cell, and the commit timings
//! cost a few clock readings per epoch, not per op.
//! [`crate::ServeKv::shard_mutation_counts`],
//! [`crate::ServeKv::escalation_count`] and
//! [`crate::ServeKv::commit_stalls`] read these instruments.
//!
//! Only the per-op *timers* (sojourn, shard-lock wait and hold) are
//! opt-in, switched on by [`crate::ServeKv::enable_obs`]. They run on a
//! 1-in-N sample ([`DEFAULT_SAMPLE_EVERY`]): timing an op costs several
//! cycle-counter readings plus histogram records, and on a saturated box
//! paying that on every op is a measurable throughput tax, while a
//! uniform sample estimates the same distributions. The lock-hold
//! counter scales each sampled reading by N so its total stays an
//! unbiased estimate. The sample rate is published as
//! `picl_serve_timing_sample_every` (0 while the timers are off) so
//! consumers can scale sampled histogram *counts* back to op counts.

use std::cell::Cell;

use picl_obs::{Counter, Gauge, Histo, MetricsRegistry, OpClock};

/// Default timing-sample rate: one op in 8 is timed.
pub const DEFAULT_SAMPLE_EVERY: u64 = 8;

thread_local! {
    /// Per-thread decision counter for the timing sample. Thread-local
    /// keeps the hot-path cost of an *unsampled* op to one cell bump and
    /// a mask test — no shared cache line.
    static TIMING_TICK: Cell<u64> = const { Cell::new(0) };
}

/// The switched-on per-op timers' clock and sample rate.
struct Timing {
    /// Cheap timestamps: an op takes up to five readings, so they must
    /// not be `Instant::now` calls.
    clock: OpClock,
    /// `sample_every - 1`; a power-of-two rate makes the per-op
    /// decision a mask test.
    sample_mask: u64,
}

/// A running per-op timer (see [`ServeObs::sample_timer`]).
pub struct Stamp<'a> {
    clock: &'a OpClock,
    at: u64,
}

impl Stamp<'_> {
    /// Nanoseconds since the stamp was taken (or last lapped).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.elapsed_ns(self.at)
    }

    /// [`Stamp::elapsed_ns`], restarting the stamp from now.
    pub fn lap(&mut self) -> u64 {
        let now = self.clock.now();
        let ns = self.clock.ns_between(self.at, now);
        self.at = now;
        ns
    }
}

/// Handles for every serving-layer instrument. One per [`crate::ServeKv`].
pub struct ServeObs {
    /// The per-op timers; `None` until switched on.
    timing: Option<Timing>,
    /// `picl_serve_timing_sample_every`.
    sample_every: Gauge,
    /// `picl_serve_op_sojourn_ns{op="get",outcome="hit"}`.
    pub get_hit: Histo,
    /// `picl_serve_op_sojourn_ns{op="get",outcome="miss"}`.
    pub get_miss: Histo,
    /// Lookups that exhausted the optimistic retries and serialized
    /// against the shard lock,
    /// `picl_serve_op_sojourn_ns{op="get",outcome="contended"}`.
    pub get_contended: Histo,
    /// `picl_serve_op_sojourn_ns{op="put",outcome="ok"}`.
    pub put_ok: Histo,
    /// Puts that needed every shard lock,
    /// `picl_serve_op_sojourn_ns{op="put",outcome="escalated"}`.
    pub put_escalated: Histo,
    /// `picl_serve_op_sojourn_ns{op="delete",outcome="deleted"}`.
    pub delete_deleted: Histo,
    /// `picl_serve_op_sojourn_ns{op="delete",outcome="missing"}`.
    pub delete_missing: Histo,
    /// Mutations executed per key shard (summed, every mutation),
    /// `picl_serve_shard_ops_total{shard="i"}`.
    pub shard_ops: Vec<Counter>,
    /// Nanoseconds each shard's mutation lock was held,
    /// `picl_serve_shard_lock_hold_ns_total{shard="i"}`.
    pub shard_lock_hold_ns: Vec<Counter>,
    /// Time a mutator waited to acquire its key's shard lock (the
    /// follower-side queueing behind writers and commit leaders),
    /// `picl_serve_shard_lock_wait_ns`.
    pub shard_lock_wait_ns: Histo,
    /// Mutations that escalated to all shard locks,
    /// `picl_serve_escalations_total`.
    pub escalations: Counter,
    /// Each epoch commit's cost to its leader (the publish, the boundary
    /// block's write and fence, and any in-order-window wait),
    /// `picl_serve_commit_leader_ns`.
    pub commit_leader_ns: Histo,
    /// Leader's hold of every shard lock: the engine's boundary publish
    /// and the session-count snapshot. It ends before the boundary
    /// block's write, which `picl_store_undo_drain_ns{path="boundary"}`
    /// times. `picl_serve_commit_publish_ns`.
    pub commit_publish_ns: Histo,
    /// Leader's in-order-window stall (recorded only when the window
    /// was full), `picl_serve_commit_window_ns`.
    pub commit_window_ns: Histo,
    /// Leader's wait for its eid-ordered ack turn behind earlier
    /// pipelined leaders, `picl_serve_commit_ack_wait_ns`.
    pub commit_ack_wait_ns: Histo,
}

impl ServeObs {
    /// Registers the serving instrument set for a store with `shards`
    /// key-shard locks, with the per-op timers off.
    pub fn register(reg: &MetricsRegistry, shards: usize) -> ServeObs {
        let sojourn = |op: &str, outcome: &str| {
            reg.histogram(
                "picl_serve_op_sojourn_ns",
                &[("op", op), ("outcome", outcome)],
                "Per-operation service time by op and outcome.",
            )
        };
        let per_shard = |name: &str, help: &str| {
            (0..shards)
                .map(|i| {
                    let shard = i.to_string();
                    reg.counter(name, &[("shard", shard.as_str())], help)
                })
                .collect()
        };
        let histogram = |name: &str, help: &str| reg.histogram(name, &[], help);
        ServeObs {
            timing: None,
            sample_every: reg.gauge(
                "picl_serve_timing_sample_every",
                &[],
                "One op in this many carries the sojourn and lock timers (0: timers off).",
            ),
            get_hit: sojourn("get", "hit"),
            get_miss: sojourn("get", "miss"),
            get_contended: sojourn("get", "contended"),
            put_ok: sojourn("put", "ok"),
            put_escalated: sojourn("put", "escalated"),
            delete_deleted: sojourn("delete", "deleted"),
            delete_missing: sojourn("delete", "missing"),
            shard_ops: per_shard(
                "picl_serve_shard_ops_total",
                "Mutations executed per key shard.",
            ),
            shard_lock_hold_ns: per_shard(
                "picl_serve_shard_lock_hold_ns_total",
                "Nanoseconds each shard's mutation lock was held.",
            ),
            shard_lock_wait_ns: histogram(
                "picl_serve_shard_lock_wait_ns",
                "Time mutators waited to acquire their key's shard lock.",
            ),
            escalations: reg.counter(
                "picl_serve_escalations_total",
                &[],
                "Mutations that escalated to all shard locks.",
            ),
            commit_leader_ns: histogram(
                "picl_serve_commit_leader_ns",
                "Each epoch commit's cost to its leader (publish, boundary block write, any window wait).",
            ),
            commit_publish_ns: histogram(
                "picl_serve_commit_publish_ns",
                "Group-commit leader's hold of all shard locks (boundary publish and count snapshot).",
            ),
            commit_window_ns: histogram(
                "picl_serve_commit_window_ns",
                "Group-commit leader's in-order-window stall (full window only).",
            ),
            commit_ack_wait_ns: histogram(
                "picl_serve_commit_ack_wait_ns",
                "Group-commit leader's wait for its eid-ordered ack turn.",
            ),
        }
    }

    /// Switches the per-op timers on, timing one op in `sample_every`
    /// (a power of two; 1 times every op).
    ///
    /// # Panics
    ///
    /// Panics when `sample_every` is not a power of two.
    pub fn start_timers(&mut self, sample_every: u64) {
        assert!(
            sample_every.is_power_of_two(),
            "sample_every must be a power of two, got {sample_every}"
        );
        self.sample_every.set(sample_every);
        self.timing = Some(Timing {
            clock: OpClock::calibrate(),
            sample_mask: sample_every - 1,
        });
    }

    /// Decides whether this op carries the timers, and starts them if
    /// so. With the timers off this is one branch; unsampled ops pay one
    /// thread-local bump and a mask test.
    #[inline]
    pub fn sample_timer(&self) -> Option<Stamp<'_>> {
        let timing = self.timing.as_ref()?;
        let tick = TIMING_TICK.with(|t| {
            let v = t.get();
            t.set(v.wrapping_add(1));
            v
        });
        (tick & timing.sample_mask == 0).then(|| Stamp {
            clock: &timing.clock,
            at: timing.clock.now(),
        })
    }

    /// The timing-sample rate (0 while the timers are off): sampled
    /// histogram counts times this estimate op counts, and sampled
    /// duration totals are already scaled by it.
    #[inline]
    #[must_use]
    pub fn sample_every(&self) -> u64 {
        self.timing.as_ref().map_or(0, |t| t.sample_mask + 1)
    }
}
