//! The serving workloads: closed-loop YCSB mixes against
//! `picl_serve::ServeKv` on the emulated-NVM medium.
//!
//! Every session's operation stream is generated from the benchmark seed
//! before anything is timed; a session thread only looks up its next
//! (op, key) pair, formats the value it writes, and calls the store.
//! Each session waits for its reply before issuing the next op (closed
//! loop). Values carry a writer/op tag, so any value read back — during
//! the run or after the end-of-run reopen — can be traced to the exact
//! put that wrote it, or to the preload.

use std::io::Write as _;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use picl_obs::MetricsRegistry;
use picl_serve::load::key_for_id;
use picl_serve::{Backend, LoadSpec, ServeKv};
use picl_store::kv::KvPairs;
use picl_store::layout::{Geometry, UNDO_BUFFER_ENTRIES};
use picl_store::slots::{CONT_VALUE_BYTES, HEAD_VALUE_BYTES};
use picl_store::{EngineConfig, EngineStats, PersistOps, StoreError};
use picl_telemetry::Telemetry;
use picl_types::hash::fnv1a_64;
use picl_types::rng::{Rng, Zipf};
use picl_types::stats::Histogram;

use crate::medium::{mark_client_thread, Caller, EmuNvm, Region, Usage};
use crate::report::{ratio, LatencyHist};

/// A read/update mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of ops that are gets; the rest are puts.
    pub read_fraction: f64,
}

/// YCSB-A: 50% reads, 50% updates.
pub const YCSB_A: Mix = Mix { read_fraction: 0.5 };
/// YCSB-B: 95% reads, 5% updates.
pub const YCSB_B: Mix = Mix {
    read_fraction: 0.95,
};

/// The store and data a serving workload runs on.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct keys, all preloaded.
    pub keys: u64,
    /// Zipfian skew of key popularity.
    pub theta: f64,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Concurrent client sessions (threads).
    pub sessions: usize,
    /// Puts per epoch (group-commit cadence).
    pub ops_per_epoch: u64,
    /// In-order persist window, in epochs.
    pub window: u64,
    /// Ops generated per session; a session that reaches the end of its
    /// stream starts over from the beginning.
    pub stream_len: usize,
}

/// The benchmark's store: 100k keys of 100 B (3 slots each), zipf 0.9,
/// 2 sessions, 64 puts per epoch, window 4.
pub const BENCH: Shape = Shape {
    keys: 100_000,
    theta: 0.9,
    value_bytes: 100,
    sessions: 2,
    ops_per_epoch: 64,
    window: 4,
    stream_len: 1 << 20,
};

/// The writer tag preload values carry (`picl_serve::preload`'s).
const PRELOAD_WRITER: u64 = 99;
const READ_BIT: u32 = 1 << 31;

impl Shape {
    /// Slots one record spans.
    fn slots_per_record(&self) -> u64 {
        1 + self
            .value_bytes
            .saturating_sub(HEAD_VALUE_BYTES)
            .div_ceil(CONT_VALUE_BYTES) as u64
    }

    /// Engine geometry, auto-sized the way `picl ycsb` sizes it: every
    /// key at its spanning footprint, at most half full, and a log of
    /// `window + 2` worst-case epochs plus one epoch of headroom.
    pub fn engine_config(&self) -> EngineConfig {
        let lines = u32::try_from((self.keys * self.slots_per_record() * 2).max(1024))
            .expect("key space fits 32-bit line indices");
        let per_epoch = u64::from(lines).div_ceil(UNDO_BUFFER_ENTRIES as u64) + 1;
        let needed = (self.window + 2) * per_epoch + 2;
        EngineConfig {
            lines,
            log_blocks: u32::try_from(needed + per_epoch).expect("log fits 32-bit blocks"),
            window: self.window,
            ..EngineConfig::default()
        }
    }

    /// The on-media geometry of [`Shape::engine_config`].
    pub fn geometry(&self) -> Geometry {
        let cfg = self.engine_config();
        Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        }
    }

    fn load_spec(&self) -> LoadSpec {
        LoadSpec {
            sessions: self.sessions,
            keys: self.keys,
            theta: self.theta,
            value_bytes: self.value_bytes,
            ..LoadSpec::default()
        }
    }

    fn open(&self, medium: &Arc<EmuNvm>) -> Result<ServeKv, StoreError> {
        let medium: Arc<dyn PersistOps> = Arc::clone(medium) as Arc<dyn PersistOps>;
        let (kv, _) = ServeKv::open(
            medium,
            self.engine_config(),
            Telemetry::off(),
            self.ops_per_epoch,
            self.sessions,
        )?;
        Ok(kv)
    }

    /// Opens a fresh store on `medium` and preloads every key: the
    /// set-up a user pays before serving.
    fn setup(&self, medium: &Arc<EmuNvm>) -> Result<ServeKv, StoreError> {
        let kv = self.open(medium)?;
        picl_serve::preload(&kv, &self.load_spec())?;
        Ok(kv)
    }
}

/// Every session's op stream plus the key table, generated from a seed.
#[derive(Debug)]
pub struct Streams {
    shape: Shape,
    /// Per session: key id in the low bits, [`READ_BIT`] for a get.
    ops: Vec<Vec<u32>>,
    keys: Vec<Vec<u8>>,
}

impl Streams {
    /// Draws each session's ops: zipfian key ranks (scattered over the
    /// key space by hashing, so the hot set does not cluster in adjacent
    /// probe chains) and a get-or-put coin per op.
    pub fn generate(shape: Shape, mix: Mix, seed: u64) -> Streams {
        assert!(
            shape.keys < u64::from(READ_BIT),
            "key ids fit below the read bit"
        );
        assert!(
            (shape.sessions as u64) < PRELOAD_WRITER,
            "session tags stay below the preload tag"
        );
        let zipf = Zipf::new(shape.keys, shape.theta);
        let mut seeder = Rng::new(seed ^ 0x005E_ED0F_B5E4_C40B);
        let ops = (0..shape.sessions)
            .map(|_| {
                let mut rng = Rng::new(seeder.next_u64());
                (0..shape.stream_len)
                    .map(|_| {
                        let rank = zipf.sample(&mut rng);
                        let id = (fnv1a_64(&rank.to_le_bytes()) % shape.keys) as u32;
                        if rng.chance(mix.read_fraction) {
                            id | READ_BIT
                        } else {
                            id
                        }
                    })
                    .collect()
            })
            .collect();
        Streams {
            shape,
            ops,
            keys: (0..shape.keys).map(key_for_id).collect(),
        }
    }

    /// Op `n` of `session`: `(is_get, key id)`.
    fn op(&self, session: usize, n: u64) -> (bool, u64) {
        let op = self.ops[session][(n % self.shape.stream_len as u64) as usize];
        (op & READ_BIT != 0, u64::from(op & !READ_BIT))
    }

    /// The value writer `writer` stores with its op `n`, in the format
    /// `picl_serve::preload` uses for its own (writer 99, op = key id).
    pub fn value_into(&self, buf: &mut Vec<u8>, writer: u64, n: u64) {
        buf.clear();
        write!(buf, "u{writer:02}-{n:08}-").expect("writes to a Vec cannot fail");
        buf.resize(self.shape.value_bytes, b'.');
        buf.truncate(self.shape.value_bytes);
    }

    /// Whether `value` is one the benchmark could have left under key
    /// `id`: the key's preload value, or the value of a put some session
    /// issued to this very key. With `issued` (ops issued per session),
    /// the put must also be one that was actually issued.
    pub fn value_ok(&self, id: u64, value: &[u8], issued: Option<&[u64]>) -> bool {
        let Some((writer, n)) = parse_tag(value) else {
            return false;
        };
        let mut expect = Vec::with_capacity(self.shape.value_bytes);
        self.value_into(&mut expect, writer, n);
        if expect != value {
            return false;
        }
        if writer == PRELOAD_WRITER {
            return n == id;
        }
        let Ok(session) = usize::try_from(writer) else {
            return false;
        };
        if session >= self.shape.sessions || issued.is_some_and(|done| n >= done[session]) {
            return false;
        }
        self.op(session, n) == (false, id)
    }

    /// Counts what is wrong with a recovered store's contents: unknown
    /// or duplicated keys, values no put could have left there, and
    /// missing keys.
    pub fn check(&self, pairs: &KvPairs, issued: &[u64]) -> u64 {
        let mut seen = vec![false; self.keys.len()];
        let mut bad = 0u64;
        for (key, value) in pairs {
            match parse_key(key)
                .filter(|&id| id < self.shape.keys && self.keys[id as usize] == *key)
            {
                Some(id) if !seen[id as usize] => {
                    seen[id as usize] = true;
                    if !self.value_ok(id, value, Some(issued)) {
                        bad += 1;
                    }
                }
                _ => bad += 1,
            }
        }
        bad + seen.iter().filter(|&&s| !s).count() as u64
    }
}

fn parse_key(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"k")?)
        .ok()?
        .parse()
        .ok()
}

/// `(writer, op)` from a value's `u{writer}-{op}-` prefix.
fn parse_tag(value: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(value.strip_prefix(b"u")?).ok()?;
    let mut parts = text.splitn(3, '-');
    let writer = parts.next()?.parse().ok()?;
    let n = parts.next()?.parse().ok()?;
    Some((writer, n))
}

/// Client-side samples of one time slice.
#[derive(Debug, Default)]
pub struct Slice {
    /// Ops started in the slice.
    pub ops: u64,
    /// Get latencies.
    pub get: LatencyHist,
    /// Put latencies.
    pub put: LatencyHist,
}

#[derive(Debug, Default)]
struct SessionRun {
    slices: Vec<Slice>,
    next: u64,
    attempted: u64,
    failed: u64,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every session for `duration`, split into `slices` equal time
/// slices by op start. `next[s]` is session `s`'s next op index and is
/// advanced past the ops issued.
fn drive(
    kv: &ServeKv,
    streams: &Streams,
    next: &mut [u64],
    duration: Duration,
    slices: usize,
) -> Vec<SessionRun> {
    let barrier = Barrier::new(next.len());
    let total_ns = duration.as_nanos() as u64;
    let slice_ns = (total_ns / slices as u64).max(1);
    let runs: Vec<SessionRun> = std::thread::scope(|s| {
        let handles: Vec<_> = next
            .iter()
            .enumerate()
            .map(|(session, &first)| {
                let barrier = &barrier;
                s.spawn(move || {
                    mark_client_thread();
                    let mut run = SessionRun {
                        slices: (0..slices).map(|_| Slice::default()).collect(),
                        next: first,
                        ..SessionRun::default()
                    };
                    let mut value = Vec::with_capacity(streams.shape.value_bytes);
                    barrier.wait();
                    let start = Instant::now();
                    let mut now = start;
                    loop {
                        let since = now.duration_since(start).as_nanos() as u64;
                        if since >= total_ns {
                            break;
                        }
                        let slice = &mut run.slices[((since / slice_ns) as usize).min(slices - 1)];
                        let n = run.next;
                        let (is_get, id) = streams.op(session, n);
                        let key = &streams.keys[id as usize];
                        let ok = if is_get {
                            let t0 = Instant::now();
                            let got = kv.get(session, key);
                            now = Instant::now();
                            slice.get.record(ns_between(t0, now));
                            matches!(&got, Ok(Some(v)) if streams.value_ok(id, v, None))
                        } else {
                            streams.value_into(&mut value, session as u64, n);
                            let t0 = Instant::now();
                            let put = kv.put(session, key, &value);
                            now = Instant::now();
                            slice.put.record(ns_between(t0, now));
                            put.is_ok()
                        };
                        slice.ops += 1;
                        run.attempted += 1;
                        run.failed += u64::from(!ok);
                        run.next = n + 1;
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    for (slot, run) in next.iter_mut().zip(&runs) {
        *slot = run.next;
    }
    runs
}

/// Measures one set-up (store open + preload) on a fresh medium, in
/// seconds. The medium is allocated before the clock starts: it stands
/// for a device that exists before the store does.
///
/// # Errors
///
/// Propagates store failures.
pub fn time_setup(shape: Shape) -> Result<f64, StoreError> {
    let medium = Arc::new(EmuNvm::new(shape.geometry()));
    let t0 = Instant::now();
    let kv = shape.setup(&medium)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(kv);
    Ok(secs)
}

/// What one serving run measured.
#[derive(Debug)]
pub struct ServeRun {
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Length of each time slice, seconds.
    pub slice_s: f64,
    /// The timed phase's slices, sessions merged.
    pub slices: Vec<Slice>,
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that errored or returned a wrong value.
    pub failed: u64,
    /// Problems the end-of-run reopen found (missing keys, bad values,
    /// or a failed close/reopen counted as one per key).
    pub check_failures: u64,
    /// Per-layer figures of the timed phase, when traced.
    pub layers: Vec<(&'static str, f64)>,
}

impl ServeRun {
    /// Ops per second over the whole timed phase.
    pub fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.slices.iter().map(|s| s.ops).sum();
        ratio(ops as f64, self.slice_s * self.slices.len() as f64)
    }
}

/// Counters read before and after the timed phase of a traced run.
struct Marks {
    engine: EngineStats,
    usage: Usage,
    shards: Vec<u64>,
    escalations: u64,
    stalls: Histogram,
}

impl Marks {
    fn take(kv: &ServeKv, medium: &EmuNvm) -> Marks {
        Marks {
            engine: kv.engine().stats(),
            usage: medium.usage(),
            shards: kv.shard_mutation_counts(),
            escalations: kv.escalation_count(),
            stalls: kv.commit_stalls(),
        }
    }
}

/// `after - before` for a histogram that only grew in between.
fn histogram_since(after: &Histogram, before: &Histogram) -> Histogram {
    let earlier: Vec<(u64, u64)> = before.nonzero_buckets().collect();
    let buckets = after.nonzero_buckets().map(|(bound, n)| {
        let was = earlier.iter().find(|b| b.0 == bound).map_or(0, |b| b.1);
        (bound, n - was)
    });
    Histogram::from_saved(
        buckets,
        after.count() - before.count(),
        after.sum() - before.sum(),
        after.max().unwrap_or(0),
    )
    .expect("a grown histogram minus its earlier self is a histogram")
}

/// Runs one serving workload end to end: set-up, `warmup` of untimed
/// load, `seconds` of timed load in `slices` slices (traced if asked),
/// then close, reopen from the medium's bytes (the recovery path), and
/// check every key.
///
/// # Errors
///
/// Fails only if the store cannot be set up; errors after that are
/// counted, not returned.
pub fn run(
    streams: &Streams,
    seconds: f64,
    warmup: Duration,
    slices: usize,
    traced: bool,
) -> Result<ServeRun, StoreError> {
    let shape = streams.shape;
    let medium = Arc::new(EmuNvm::new(shape.geometry()));
    let t0 = Instant::now();
    let mut kv = shape.setup(&medium)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut next = vec![0u64; shape.sessions];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for run in drive(&kv, streams, &mut next, warmup, 1) {
        attempted += run.attempted;
        failed += run.failed;
    }

    let registry = MetricsRegistry::new();
    if traced {
        kv.enable_obs_sampled(&registry, 1);
        medium.set_traced(true);
    }
    let before = Marks::take(&kv, &medium);
    let phase = Duration::from_secs_f64(seconds);
    let runs = drive(&kv, streams, &mut next, phase, slices);
    let after = Marks::take(&kv, &medium);
    medium.set_traced(false);

    let mut merged: Vec<Slice> = (0..slices).map(|_| Slice::default()).collect();
    for run in runs {
        attempted += run.attempted;
        failed += run.failed;
        for (into, from) in merged.iter_mut().zip(run.slices) {
            into.ops += from.ops;
            into.get.merge(&from.get);
            into.put.merge(&from.put);
        }
    }
    let layers = if traced {
        let puts: u64 = merged.iter().map(|s| s.put.count()).sum();
        layer_metrics(&shape, &before, &after, &registry, puts, seconds)
    } else {
        Vec::new()
    };

    let check_failures = match kv.close().and_then(|_| {
        let reopened = shape.open(&medium)?;
        let pairs = reopened.scan()?;
        reopened.close()?;
        Ok(pairs)
    }) {
        Ok(pairs) => streams.check(&pairs, &next),
        Err(_) => shape.keys,
    };
    Ok(ServeRun {
        setup_s,
        slice_s: seconds / slices as f64,
        slices: merged,
        attempted,
        failed,
        check_failures,
        layers,
    })
}

/// The per-layer figures of one traced phase (see the benchmark notes
/// for which end-to-end metric each should move).
fn layer_metrics(
    shape: &Shape,
    before: &Marks,
    after: &Marks,
    registry: &MetricsRegistry,
    puts: u64,
    seconds: f64,
) -> Vec<(&'static str, f64)> {
    let snap = registry.snapshot();
    let p99_us = |name: &str| {
        snap.histogram(name, &[])
            .map_or(0.0, |h| h.percentile_defined(99.0) / 1e3)
    };
    let get_count = |outcome: &str| {
        snap.histogram(
            "picl_serve_op_sojourn_ns",
            &[("op", "get"), ("outcome", outcome)],
        )
        .map_or(0, Histogram::count)
    };
    let shard_ops: Vec<f64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let shard_mean = shard_ops.iter().sum::<f64>() / shard_ops.len().max(1) as f64;
    let shard_max = shard_ops.iter().copied().fold(0.0, f64::max);
    let e = EngineStats {
        undo_entries: after.engine.undo_entries - before.engine.undo_entries,
        drains: after.engine.drains - before.engine.drains,
        forced_drains: after.engine.forced_drains - before.engine.forced_drains,
        line_writebacks: after.engine.line_writebacks - before.engine.line_writebacks,
        window_stalls: after.engine.window_stalls - before.engine.window_stalls,
        ..EngineStats::default()
    };
    let usage = after.usage.since(&before.usage);
    let puts_f = puts as f64;
    let user_bytes = puts_f * (shape.value_bytes + key_for_id(0).len()) as f64;
    let client_thread_ns = shape.sessions as f64 * seconds * 1e9;
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        (
            "serve.escalation_frac",
            ratio((after.escalations - before.escalations) as f64, puts_f),
        ),
        ("serve.shard_skew", ratio(shard_max, shard_mean)),
        (
            "serve.commit_stall_p99_us",
            histogram_since(&after.stalls, &before.stalls).percentile_defined(99.0) / 1e3,
        ),
        (
            "serve.shard_lock_wait_p99_us",
            p99_us("picl_serve_shard_lock_wait_ns"),
        ),
        (
            "serve.commit_publish_p99_us",
            p99_us("picl_serve_commit_publish_ns"),
        ),
        (
            "serve.commit_window_p99_us",
            p99_us("picl_serve_commit_window_ns"),
        ),
        (
            "serve.commit_ack_wait_p99_us",
            p99_us("picl_serve_commit_ack_wait_ns"),
        ),
        (
            "serve.get_contended_frac",
            ratio(
                get_count("contended") as f64,
                (get_count("hit") + get_count("miss") + get_count("contended")) as f64,
            ),
        ),
        (
            "engine.undo_entries_per_put",
            ratio(e.undo_entries as f64, puts_f),
        ),
        (
            "engine.line_writebacks_per_put",
            ratio(e.line_writebacks as f64, puts_f),
        ),
        (
            "engine.drains_per_kput",
            ratio(e.drains as f64 * 1e3, puts_f),
        ),
        (
            "engine.forced_drain_frac",
            ratio(e.forced_drains as f64, e.drains as f64),
        ),
        ("engine.window_stalls", e.window_stalls as f64),
        (
            "engine.window_wait_p99_us",
            p99_us("picl_store_window_wait_ns"),
        ),
        (
            "engine.persister_cycle_p99_ms",
            p99_us("picl_store_persister_cycle_ns") / 1e3,
        ),
        (
            "engine.persister_backlog_p99",
            snap.histogram("picl_store_persister_backlog_epochs", &[])
                .map_or(0.0, |h| h.percentile_defined(99.0)),
        ),
        (
            "medium.persists_per_put",
            ratio(usage.persists.iter().sum::<u64>() as f64, puts_f),
        ),
        (
            "medium.fences_per_put",
            ratio(usage.fences.iter().sum::<u64>() as f64, puts_f),
        ),
        (
            "medium.bytes_per_user_byte",
            ratio(usage.bytes.iter().sum::<u64>() as f64, user_bytes),
        ),
        (
            "medium.client_busy_ms",
            ms(usage.caller_busy_ns(Caller::Client)),
        ),
        (
            "medium.client_share",
            ratio(
                usage.caller_busy_ns(Caller::Client) as f64,
                client_thread_ns,
            ),
        ),
        (
            "medium.background_busy_ms",
            ms(usage.caller_busy_ns(Caller::Background)),
        ),
        ("medium.log_busy_ms", ms(usage.region_busy_ns(Region::Log))),
        (
            "medium.data_busy_ms",
            ms(usage.region_busy_ns(Region::Data)),
        ),
        (
            "medium.super_busy_ms",
            ms(usage.region_busy_ns(Region::Super)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        keys: 300,
        theta: 0.9,
        value_bytes: 100,
        sessions: 2,
        ops_per_epoch: 8,
        window: 1,
        stream_len: 4096,
    };

    #[test]
    fn a_short_run_passes_its_own_check() {
        let streams = Streams::generate(TINY, YCSB_A, 7);
        let run = run(&streams, 0.3, Duration::from_millis(50), 3, true).unwrap();
        assert!(run.attempted > 100, "the sessions made progress");
        assert_eq!(run.failed, 0);
        assert_eq!(run.check_failures, 0);
        assert!(run.ops_per_s() > 0.0);
        assert_eq!(run.layers.len(), 25);
        let undo = run
            .layers
            .iter()
            .find(|l| l.0 == "engine.undo_entries_per_put");
        assert!(undo.is_some_and(|l| l.1 > 0.0), "puts log pre-images");
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Streams::generate(TINY, YCSB_B, 3);
        assert_eq!(a.ops, Streams::generate(TINY, YCSB_B, 3).ops);
        assert_ne!(a.ops, Streams::generate(TINY, YCSB_B, 4).ops);
        let reads = a.ops[0].iter().filter(|&&op| op & READ_BIT != 0).count();
        assert!((reads as f64 / TINY.stream_len as f64 - 0.95).abs() < 0.02);
    }

    #[test]
    fn checker_rejects_tampered_contents() {
        let streams = Streams::generate(TINY, YCSB_A, 11);
        let medium = Arc::new(EmuNvm::with_latency(TINY.geometry(), 0, 0));
        let kv = TINY.setup(&medium).unwrap();
        let mut value = Vec::new();
        let mut last_put = None;
        let issued = 200u64;
        for n in 0..issued {
            let (is_get, id) = streams.op(0, n);
            if !is_get {
                streams.value_into(&mut value, 0, n);
                kv.put(0, &streams.keys[id as usize], &value).unwrap();
                last_put = Some((id, n));
            }
        }
        kv.commit().unwrap();
        kv.close().unwrap();
        let reopened = TINY.open(&medium).unwrap();
        let pairs = reopened.scan().unwrap();
        reopened.close().unwrap();
        let done = [issued, 0];
        assert_eq!(streams.check(&pairs, &done), 0, "untampered contents pass");

        let (put_id, put_n) = last_put.expect("mix A issues puts");
        let at = pairs
            .iter()
            .position(|(k, _)| *k == streams.keys[put_id as usize])
            .unwrap();
        let other = (at + 1) % pairs.len();
        let tampered = |edit: &dyn Fn(&mut KvPairs)| {
            let mut copy = pairs.clone();
            edit(&mut copy);
            streams.check(&copy, &done)
        };
        // A flipped padding byte.
        assert_eq!(tampered(&|p| p[at].1[50] = b'x'), 1);
        // Another key's put moved under this key.
        assert_eq!(tampered(&|p| p[other].1 = p[at].1.clone()), 1);
        // A put that was never issued.
        assert_eq!(
            tampered(&|p| streams.value_into(&mut p[at].1, 0, issued + 5)),
            1
        );
        // A session that does not exist.
        assert_eq!(tampered(&|p| streams.value_into(&mut p[at].1, 7, put_n)), 1);
        // A key preloaded with someone else's preload value.
        assert_eq!(
            tampered(&|p| streams.value_into(&mut p[other].1, PRELOAD_WRITER, put_id)),
            1
        );
        // A lost key, and a duplicated one.
        assert_eq!(tampered(&|p| drop(p.remove(at))), 1);
        assert_eq!(tampered(&|p| p.push(p[at].clone())), 1);
        // A stranger key.
        assert_eq!(
            tampered(&|p| p.push((b"k9999999999".to_vec(), value.clone()))),
            1
        );
    }
}
