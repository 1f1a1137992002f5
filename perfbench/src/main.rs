//! `picl-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! picl-perfbench --workload <ycsb-a|ycsb-b|sim-w0x8> --seed <n> --seconds <s> --trace <0|1>
//! picl-perfbench --pin-digests
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` they are the
//! per-layer set. Every workload reports every metric of its set; a
//! layer a workload never enters reads 0. `NOTES.md` beside this crate
//! says why each workload exists and which end-to-end metric each layer
//! metric should move.

mod medium;
mod report;
mod serving;
mod sim;

use std::time::{Duration, Instant};

use picl_obs::OpClock;

use crate::report::{interpolated, median, peak_rss_mb, quantile, ratio, Metrics};
use crate::serving::{Mix, Streams, BENCH, YCSB_A, YCSB_B};

/// Untimed closed-loop load before a serving workload's timed phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Target length of one time slice of a serving run.
const SLICE_SECONDS: f64 = 1.0;
/// The quantile of its per-slice rates a serving run reports as its
/// throughput. With two clients and the persister on two CPUs, a
/// preempted holder of the protocol mutex stalls both clients, so
/// interference from the shared host cuts whole slices' throughput to a
/// fraction for seconds at a time; it never speeds a slice up. The best
/// tenth of the slices therefore tracks the program, while the median
/// slice tracks how much of the run the host took. Latencies stay
/// medians over slices: the load is closed-loop, so a stall adds only
/// the few ops issued during it to a slice's latency samples.
const BEST_SLICES: f64 = 0.9;
/// Set-ups a serving run times (the last one serves the timed phase).
const SERVING_SETUPS: usize = 5;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in output order, with their units.
const PER_LAYER: [(&str, &str); 36] = [
    ("serve.escalation_frac", "ratio"),
    ("serve.shard_skew", "ratio"),
    ("serve.commit_stall_p99_us", "us"),
    ("serve.shard_lock_wait_p99_us", "us"),
    ("serve.commit_publish_p99_us", "us"),
    ("serve.commit_window_p99_us", "us"),
    ("serve.commit_ack_wait_p99_us", "us"),
    ("serve.get_contended_frac", "ratio"),
    ("engine.undo_entries_per_put", "count"),
    ("engine.line_writebacks_per_put", "count"),
    ("engine.drains_per_kput", "count"),
    ("engine.forced_drain_frac", "ratio"),
    ("engine.window_stalls", "count"),
    ("engine.window_wait_p99_us", "us"),
    ("engine.persister_cycle_p99_ms", "ms"),
    ("engine.persister_backlog_p99", "count"),
    ("medium.persists_per_put", "count"),
    ("medium.fences_per_put", "count"),
    ("medium.bytes_per_user_byte", "ratio"),
    ("medium.client_busy_ms", "ms"),
    ("medium.client_share", "ratio"),
    ("medium.background_busy_ms", "ms"),
    ("medium.log_busy_ms", "ms"),
    ("medium.data_busy_ms", "ms"),
    ("medium.super_busy_ms", "ms"),
    ("sim.step_ns_per_instr", "ns"),
    ("sim.boundary_us_per_epoch", "us"),
    ("sim.boundary_share", "ratio"),
    ("trace.decode_ns_per_event", "ns"),
    ("trace.decode_share", "ratio"),
    ("sim.total_cycles", "count"),
    ("sim.commits", "count"),
    ("sim.nvm_writes", "count"),
    ("sim.stall_cycles", "count"),
    ("trace_overhead_frac", "ratio"),
    ("host.cpus", "count"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A finished run: the verdict and the metrics of the requested set.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Measured values by name; names of the set missing here read 0.
    values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--pin-digests") {
        pin_digests();
        return;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ycsb-a" => serving_workload(YCSB_A, &args),
        "ycsb-b" => serving_workload(YCSB_B, &args),
        "sim-w0x8" => Ok(sim_workload(&args)),
        other => Err(format!(
            "unknown workload {other} (ycsb-a, ycsb-b, sim-w0x8)"
        )),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in set {
        let value = outcome
            .values
            .iter()
            .find(|v| v.0 == name)
            .map_or(0.0, |v| v.1);
        metrics.put(name, value, unit);
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    println!(
        "{}",
        metrics.to_json(outcome.correct, outcome.attempted, outcome.failed)
    );
}

fn slices_for(seconds: f64) -> usize {
    ((seconds / SLICE_SECONDS).round() as usize).max(1)
}

fn host_cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, usize::from) as f64
}

/// Each slice's latency quantile `p`, in µs.
fn per_slice_us(slices: &[serving::Slice], put: bool, p: f64) -> Vec<f64> {
    slices
        .iter()
        .filter_map(|s| if put { &s.put } else { &s.get }.quantile(p))
        .map(|ns| ns / 1e3)
        .collect()
}

fn serving_workload(mix: Mix, args: &Args) -> Result<Outcome, String> {
    let streams = Streams::generate(BENCH, mix, args.seed);
    let err = |e: picl_store::StoreError| e.to_string();
    if args.trace {
        let half = args.seconds / 2.0;
        let plain = serving::run(&streams, half, WARMUP, slices_for(half), false).map_err(err)?;
        let traced = serving::run(&streams, half, WARMUP, slices_for(half), true).map_err(err)?;
        let mut values = traced.layers.clone();
        values.push((
            "trace_overhead_frac",
            1.0 - ratio(traced.ops_per_s(), plain.ops_per_s()),
        ));
        values.push(("host.cpus", host_cpus()));
        let failed = plain.failed + plain.check_failures + traced.failed + traced.check_failures;
        return Ok(Outcome {
            correct: failed == 0,
            attempted: plain.attempted + traced.attempted,
            failed,
            values,
            notes: vec![format!(
                "untraced {:.0} ops/s, traced {:.0} ops/s",
                plain.ops_per_s(),
                traced.ops_per_s()
            )],
        });
    }
    let mut setups = Vec::with_capacity(SERVING_SETUPS);
    for _ in 1..SERVING_SETUPS {
        setups.push(serving::time_setup(BENCH).map_err(err)?);
    }
    let run = serving::run(
        &streams,
        args.seconds,
        WARMUP,
        slices_for(args.seconds),
        false,
    )
    .map_err(err)?;
    setups.push(run.setup_s);
    let per_slice_ops: Vec<f64> = run
        .slices
        .iter()
        .map(|s| s.ops as f64 / run.slice_s)
        .collect();
    let gets: Vec<u64> = run.slices.iter().map(|s| s.get.count()).collect();
    let puts: Vec<u64> = run.slices.iter().map(|s| s.put.count()).collect();
    let get_p50 = per_slice_us(&run.slices, false, 0.50);
    let put_p50 = per_slice_us(&run.slices, true, 0.50);
    let put_p99 = per_slice_us(&run.slices, true, 0.99);
    let values = vec![
        ("ops_per_s", interpolated(&per_slice_ops, BEST_SLICES)),
        ("get_p50_us", median(&get_p50)),
        ("put_p50_us", median(&put_p50)),
        ("put_p99_us", median(&put_p99)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let failed = run.failed + run.check_failures;
    Ok(Outcome {
        correct: failed == 0,
        attempted: run.attempted,
        failed,
        values,
        notes: vec![
            format!(
                "{} slices of {:.2} s; samples per slice: gets {gets:?}, puts {puts:?}",
                run.slices.len(),
                run.slice_s
            ),
            format!(
                "ops/s per slice {per_slice_ops:.0?} (median {:.0}); set-ups {setups:.3?} s",
                median(&per_slice_ops)
            ),
            format!(
                "get p99 per slice {:.2?} us; put p99 per slice {:.1?} us",
                run.slices
                    .iter()
                    .map(|s| s.get.quantile(0.99).unwrap_or(0.0) / 1e3)
                    .collect::<Vec<_>>(),
                run.slices
                    .iter()
                    .map(|s| s.put.quantile(0.99).unwrap_or(0.0) / 1e3)
                    .collect::<Vec<_>>()
            ),
            format!(
                "{} ops attempted, {} failed, {} end-of-run check failures",
                run.attempted, run.failed, run.check_failures
            ),
        ],
    })
}

fn sim_workload(args: &Args) -> Outcome {
    let clock = OpClock::calibrate();
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let inputs = sim::PINNED.len();
    // Repetition `i` simulates input `i` of a rotation through every
    // pinned simulator seed, so every run measures the same inputs.
    let input = |i: usize| sim::rotation(args.seed, i);
    // One untimed repetition first, so allocator and page-cache warm-up
    // stays out of every timed figure.
    let mut reps = vec![sim::run_rep(input(0).0, false, &clock)];
    let warm = reps.len();
    // Untraced, whole rotations alternate between plain and step-timed;
    // traced, rotations run plain for the first half of the time and
    // step-timed after. A run ends on a whole cycle, so each input weighs
    // the same in every figure.
    let cycle = if args.trace { inputs } else { 2 * inputs };
    let mut measured = 0usize;
    let mut time_steps = false;
    while measured < cycle || started.elapsed() < deadline || !measured.is_multiple_of(cycle) {
        if measured.is_multiple_of(inputs) {
            time_steps = if args.trace {
                measured > 0 && started.elapsed() >= deadline / 2
            } else {
                (measured / inputs) % 2 == 1
            };
        }
        reps.push(sim::run_rep(input(reps.len()).0, time_steps, &clock));
        measured += 1;
    }
    let mismatched = reps
        .iter()
        .enumerate()
        .filter(|(i, r)| !sim::matches_reference(&r.report, input(*i).1))
        .count() as u64;
    let timed: Vec<&sim::Rep> = reps[warm..].iter().filter(|r| r.steps.is_some()).collect();
    let plain: Vec<&sim::Rep> = reps[warm..].iter().filter(|r| r.steps.is_none()).collect();
    let plain_rate = median(&plain.iter().map(|r| r.instr_per_s()).collect::<Vec<_>>());
    let timed_rate = median(&timed.iter().map(|r| r.instr_per_s()).collect::<Vec<_>>());
    let report = &reps[0].report;
    let rates: Vec<f64> = reps.iter().map(|r| r.instr_per_s() / 1e6).collect();
    let mut notes = vec![format!(
        "simulator seeds {:?} in rotation; {} repetitions ({} plain, {} step-timed, 1 warm-up); \
         {} digest mismatches",
        (0..inputs).map(|i| input(i).0).collect::<Vec<_>>(),
        reps.len(),
        plain.len(),
        timed.len(),
        mismatched
    )];
    notes.push(format!("M instr/s per repetition {rates:.2?}"));
    let values = if args.trace {
        let (events, decode_s) = sim::decode_pass(input(0).0);
        let steps = || timed.iter().filter_map(|r| r.steps.as_ref());
        let step_ns: f64 = steps().map(|s| s.total_ns).sum();
        let boundary_ns: f64 = steps().map(|s| s.boundary_total_ns).sum();
        let boundaries: usize = steps().map(|s| s.boundary_ns.len()).sum();
        let instructions: u64 = timed.iter().map(|r| r.report.instructions).sum();
        let step_s_per_rep = ratio(step_ns / 1e9, timed.len() as f64);
        vec![
            ("sim.step_ns_per_instr", ratio(step_ns, instructions as f64)),
            (
                "sim.boundary_us_per_epoch",
                ratio(boundary_ns / 1e3, boundaries as f64),
            ),
            ("sim.boundary_share", ratio(boundary_ns, step_ns)),
            (
                "trace.decode_ns_per_event",
                ratio(decode_s * 1e9, events as f64),
            ),
            ("trace.decode_share", ratio(decode_s, step_s_per_rep)),
            ("sim.total_cycles", report.total_cycles.raw() as f64),
            ("sim.commits", report.commits as f64),
            ("sim.nvm_writes", sim::nvm_writes(report) as f64),
            ("sim.stall_cycles", report.stall_cycles as f64),
            ("trace_overhead_frac", 1.0 - ratio(timed_rate, plain_rate)),
            ("host.cpus", host_cpus()),
        ]
    } else {
        let steps = || timed.iter().filter_map(|r| r.steps.as_ref());
        let get_p50: Vec<f64> = steps().map(|s| s.ordinary_p50_ns / 1e3).collect();
        let mut boundary_ns: Vec<u32> = steps()
            .flat_map(|s| s.boundary_ns.iter().copied())
            .collect();
        notes.push(format!(
            "{} boundary-step samples pooled; ~{} ordinary-step samples per timed repetition",
            boundary_ns.len(),
            steps().next().map_or(0, |s| s.ordinary)
        ));
        let us = |ns: Option<u32>| f64::from(ns.unwrap_or(0)) / 1e3;
        vec![
            ("ops_per_s", plain_rate),
            ("get_p50_us", median(&get_p50)),
            ("put_p50_us", us(quantile(&mut boundary_ns, 0.50))),
            ("put_p99_us", us(quantile(&mut boundary_ns, 0.99))),
            (
                "setup_s",
                median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };
    Outcome {
        correct: mismatched == 0,
        attempted: reps.len() as u64,
        failed: mismatched,
        values,
        notes,
    }
}

/// Recomputes the pinned simulator digests: for each pinned seed, runs
/// the cell on the fast path (snapshots on and off) and on the reference
/// path, requires all three reports to be identical, and prints the
/// digest. The reference run keeps snapshots off because full reference
/// snapshots of this cell need about 10 GB; snapshots never feed the
/// report, which the fast-path on/off comparison confirms.
fn pin_digests() {
    for (seed, pinned) in sim::PINNED {
        let fast = sim::simulation(seed).run().expect("valid configuration");
        let no_snap = sim::simulation(seed)
            .keep_snapshots(false)
            .run()
            .expect("valid configuration");
        let t0 = Instant::now();
        let reference = sim::simulation(seed)
            .keep_snapshots(false)
            .reference_mode(true)
            .run()
            .expect("valid configuration");
        let verdict = if fast == no_snap && fast == reference {
            "identical"
        } else {
            "DIVERGED"
        };
        println!(
            "seed {seed}: digest {:#018x} (pinned {pinned:#018x}); fast/reference {verdict}; \
             reference path {:.1} s",
            sim::digest(&fast),
            t0.elapsed().as_secs_f64()
        );
    }
}
