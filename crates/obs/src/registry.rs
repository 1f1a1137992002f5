//! The metrics registry: named, labeled, lock-free instruments.
//!
//! Instruments are registered once (at serving-stack construction time)
//! and handed out as cheap cloneable handles; the hot path touches only
//! the handle's atomics, never the registry. Reads
//! ([`MetricsRegistry::snapshot`]) merge the per-thread stripes into
//! plain values without stopping writers.

use picl_types::stats::Histogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of per-thread stripes per instrument. A power of two; threads
/// are assigned stripes round-robin, so contention on one stripe only
/// appears past `STRIPES` concurrent recorders — and even then it is a
/// relaxed `fetch_add`, not a lock.
const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
}

fn stripe() -> usize {
    STRIPE.with(|&s| s)
}

/// A cache-line-padded atomic, so stripes of one counter never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter. `inc`/`add` are one relaxed
/// `fetch_add` on the calling thread's stripe.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<Vec<PaddedU64>>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cells: Arc::new((0..STRIPES).map(|_| PaddedU64::default()).collect()),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time total across stripes (saturating).
    pub fn value(&self) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| {
            acc.saturating_add(c.0.load(Ordering::Relaxed))
        })
    }
}

/// An instantaneous value (queue depth, open epochs, buffer fill).
/// `set` is one relaxed store; last writer wins, which is the right
/// semantics for a quantity owned by one writer at a time.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Stores the current value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistoStripe {
    buckets: [AtomicU64; Histogram::BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistoStripe {
    fn new() -> Self {
        HistoStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram sharing [`Histogram`]'s exact bucket
/// layout, striped per thread. Recording is three relaxed atomic ops
/// (bucket `fetch_add`, sum `fetch_add`, max `fetch_max`); snapshotting
/// merges the stripes into a plain [`Histogram`].
#[derive(Clone)]
pub struct Histo {
    stripes: Arc<Vec<HistoStripe>>,
}

impl Histo {
    fn new() -> Self {
        Histo {
            stripes: Arc::new((0..STRIPES).map(|_| HistoStripe::new()).collect()),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let s = &self.stripes[stripe()];
        s.buckets[Histogram::index_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges the stripes into a [`Histogram`]. Writers keep going while
    /// this reads; the result is internally consistent by construction —
    /// its `count` is defined as the sum of the bucket counts it read.
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = [0u64; Histogram::BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for s in self.stripes.iter() {
            for (b, a) in buckets.iter_mut().zip(s.buckets.iter()) {
                *b += a.load(Ordering::Relaxed);
            }
            sum = sum.saturating_add(s.sum.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        let count: u64 = buckets.iter().sum();
        let pairs = buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Histogram::bound_of(i), n));
        Histogram::from_saved(pairs, count, sum, max)
            .expect("stripe merge produces valid saved state")
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histo(_) => "histogram",
        }
    }
}

#[derive(Clone)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    instrument: Instrument,
}

/// A set of named instruments. Cloning shares the underlying registry;
/// registration takes a short lock, recording never does.
///
/// Names and label names must match `[a-zA-Z_][a-zA-Z0-9_]*`
/// (registration panics otherwise — instrument names are programmer
/// input, not data). Registering the same `(name, labels)` twice returns
/// a handle to the same instrument; re-registering a name with a
/// different instrument kind panics.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Adds `entry` unless its `(name, labels)` series exists, returning
/// the instrument the series now holds.
fn insert(entries: &mut Vec<Entry>, entry: Entry) -> Instrument {
    for e in entries.iter() {
        if e.name == entry.name {
            assert!(
                e.instrument.kind() == entry.instrument.kind(),
                "metric {} registered as both {} and {}",
                e.name,
                e.instrument.kind(),
                entry.instrument.kind()
            );
            if e.labels == entry.labels {
                return e.instrument.clone();
            }
        }
    }
    let instrument = entry.instrument.clone();
    entries.push(entry);
    instrument
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?} on {name}");
        }
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let entry = Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            instrument: make(),
        };
        insert(&mut self.entries(), entry)
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Shares every series of `other` into this registry, so a value
    /// recorded through either registry's handles shows in both. Follows
    /// the registration rule: a `(name, labels)` series already present
    /// here is kept as it is, and a name held here as a different
    /// instrument kind panics.
    pub fn adopt(&self, other: &MetricsRegistry) {
        // Copy first, then insert: never hold both locks, so two
        // registries adopting each other cannot deadlock (and adopting
        // oneself is a no-op).
        let theirs = other.entries().clone();
        let mut entries = self.entries();
        for entry in theirs {
            insert(&mut entries, entry);
        }
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(name, labels, help, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histo {
        match self.register(name, labels, help, || Instrument::Histo(Histo::new())) {
            Instrument::Histo(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// A point-in-time snapshot of every instrument, sorted by
    /// `(name, labels)` so renderings are stable. Safe to call from any
    /// thread at any rate; writers are never blocked.
    pub fn snapshot(&self) -> Snapshot {
        let mut out: Vec<SnapEntry> = self
            .entries()
            .iter()
            .map(|e| SnapEntry {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => SnapValue::Counter(c.value()),
                    Instrument::Gauge(g) => SnapValue::Gauge(g.value()),
                    Instrument::Histo(h) => SnapValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries: out }
    }
}

/// One instrument's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter total.
    Counter(u64),
    /// Last gauge value.
    Gauge(u64),
    /// Merged histogram state (boxed: a histogram is ~70 buckets wide,
    /// and most snapshot entries are bare counters).
    Histogram(Box<Histogram>),
}

/// One `(name, labels)` series in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapEntry {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text (may be empty).
    pub help: String,
    /// The captured value.
    pub value: SnapValue,
}

impl SnapEntry {
    /// The series key as it appears in exposition and flight-recorder
    /// output: `name` or `name{k="v",...}` with label values escaped.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", crate::expose::escape_label_value(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A point-in-time capture of a [`MetricsRegistry`], sorted by
/// `(name, labels)`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All series.
    pub entries: Vec<SnapEntry>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapEntry> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == want)
    }

    /// The counter value of an exact `(name, labels)` series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SnapValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Sum of a counter across all its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match e.value {
                SnapValue::Counter(v) => Some(v),
                _ => None,
            })
            .fold(0u64, |acc, v| acc.saturating_add(v))
    }

    /// The gauge value of an exact `(name, labels)` series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SnapValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The histogram of an exact `(name, labels)` series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match &self.find(name, labels)?.value {
            SnapValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// What was recorded between `earlier` and this snapshot of the same
    /// registry: counters and histograms keep only the difference, gauges
    /// keep this snapshot's value, and a series `earlier` lacks counts
    /// from zero.
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let before = earlier
                    .entries
                    .iter()
                    .find(|b| b.name == e.name && b.labels == e.labels);
                let value = match (&e.value, before.map(|b| &b.value)) {
                    (SnapValue::Counter(now), Some(SnapValue::Counter(was))) => {
                        SnapValue::Counter(now.saturating_sub(*was))
                    }
                    (SnapValue::Histogram(now), Some(SnapValue::Histogram(was))) => {
                        SnapValue::Histogram(Box::new(histogram_since(now, was)))
                    }
                    (value, _) => value.clone(),
                };
                SnapEntry { value, ..e.clone() }
            })
            .collect();
        Snapshot { entries }
    }

    /// Every series of `name` whose labels include all of `labels`,
    /// merged into one histogram.
    pub fn merged_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut out = Histogram::new();
        let matches = |e: &&SnapEntry| {
            e.name == name
                && labels
                    .iter()
                    .all(|&(k, v)| e.labels.iter().any(|(ek, ev)| ek == k && ev == v))
        };
        for e in self.entries.iter().filter(matches) {
            if let SnapValue::Histogram(h) = &e.value {
                out.merge(h);
            }
        }
        out
    }
}

/// `now - was` for a histogram that only grew in between. The exact
/// maximum of the difference is not known; the top bucket's upper bound,
/// capped by `now`'s maximum, stands in for it.
fn histogram_since(now: &Histogram, was: &Histogram) -> Histogram {
    let earlier: Vec<(u64, u64)> = was.nonzero_buckets().collect();
    let buckets: Vec<(u64, u64)> = now
        .nonzero_buckets()
        .map(|(bound, n)| {
            let had = earlier.iter().find(|b| b.0 == bound).map_or(0, |b| b.1);
            (bound, n.saturating_sub(had))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let count = buckets.iter().map(|&(_, n)| n).sum();
    let max = buckets
        .last()
        .map_or(0, |&(bound, _)| bound.min(now.max().unwrap_or(0)));
    Histogram::from_saved(buckets, count, now.sum().saturating_sub(was.sum()), max)
        .expect("bucket-wise difference is a valid histogram")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", &[], "ops");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 40_000);
        assert_eq!(reg.snapshot().counter("ops_total", &[]), Some(40_000));
    }

    #[test]
    fn histo_snapshot_matches_plain_histogram() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], "latency");
        let mut plain = Histogram::new();
        // (The striped sum is a wrapping fetch_add, so Histogram's
        // saturating sum only matches below u64::MAX — centuries of
        // nanoseconds, which is the domain these record.)
        for v in [0u64, 1, 5, 64, 100, 1_000_000, 1 << 40] {
            h.record(v);
            plain.record(v);
        }
        assert_eq!(h.snapshot(), plain);

        let extreme = MetricsRegistry::new().histogram("x_ns", &[], "");
        extreme.record(u64::MAX);
        assert_eq!(extreme.snapshot().max(), Some(u64::MAX));
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("shard", "0")], "");
        let b = reg.counter("x_total", &[("shard", "0")], "");
        let other = reg.counter("x_total", &[("shard", "1")], "");
        a.inc();
        b.inc();
        other.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x_total", &[("shard", "0")]), Some(2));
        assert_eq!(snap.counter("x_total", &[("shard", "1")]), Some(1));
        assert_eq!(snap.counter_total("x_total"), 3);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflicts_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x_total", &[], "");
        let _ = reg.gauge("x_total", &[], "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let _ = MetricsRegistry::new().counter("bad-name", &[], "");
    }

    #[test]
    fn merged_histogram_folds_label_sets() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("op_ns", &[("op", "get")], "");
        let b = reg.histogram("op_ns", &[("op", "put")], "");
        a.record(10);
        b.record(1000);
        let merged = reg.snapshot().merged_histogram("op_ns", &[]);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max(), Some(1000));
        let gets = reg.snapshot().merged_histogram("op_ns", &[("op", "get")]);
        assert_eq!(gets.max(), Some(10));
    }

    #[test]
    fn adopted_series_are_shared_and_adopting_again_changes_nothing() {
        let home = MetricsRegistry::new();
        let ops = home.counter("ops_total", &[("shard", "0")], "ops");
        let scrape = MetricsRegistry::new();
        scrape.gauge("mine", &[], "").set(7);
        scrape.adopt(&home);
        ops.add(3);
        assert_eq!(
            scrape.snapshot().counter("ops_total", &[("shard", "0")]),
            Some(3)
        );
        // A handle registered on the adopting side is the same series.
        scrape.counter("ops_total", &[("shard", "0")], "").inc();
        assert_eq!(
            home.snapshot().counter("ops_total", &[("shard", "0")]),
            Some(4)
        );
        assert!(home.snapshot().gauge("mine", &[]).is_none());
        scrape.adopt(&home);
        scrape.adopt(&scrape);
        let snap = scrape.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.counter("ops_total", &[("shard", "0")]), Some(4));
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn adopting_a_kind_clash_panics() {
        let home = MetricsRegistry::new();
        let _ = home.counter("x_total", &[], "");
        let scrape = MetricsRegistry::new();
        let _ = scrape.gauge("x_total", &[("shard", "1")], "");
        scrape.adopt(&home);
    }

    #[test]
    fn since_keeps_only_the_interval() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", &[], "");
        let g = reg.gauge("depth", &[], "");
        let h = reg.histogram("lat_ns", &[], "");
        c.add(5);
        g.set(9);
        h.record(10);
        h.record(3000);
        let before = reg.snapshot();
        c.add(2);
        g.set(4);
        h.record(20);
        reg.counter("late_total", &[], "").inc();
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.counter("ops_total", &[]), Some(2));
        assert_eq!(delta.counter("late_total", &[]), Some(1));
        assert_eq!(delta.gauge("depth", &[]), Some(4));
        let lat = delta.histogram("lat_ns", &[]).unwrap();
        assert_eq!((lat.count(), lat.sum()), (1, 20));
        assert_eq!(lat.max(), Some(31), "capped at the top bucket's bound");
        let none = reg.snapshot().since(&reg.snapshot());
        assert_eq!(none.histogram("lat_ns", &[]).map(Histogram::count), Some(0));
    }

    #[test]
    fn gauge_is_last_writer_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[], "");
        g.set(7);
        g.set(3);
        assert_eq!(reg.snapshot().gauge("depth", &[]), Some(3));
    }
}
