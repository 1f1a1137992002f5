//! Exporters: JSONL event stream, CSV time series, Chrome `trace_event`
//! JSON (loads in `chrome://tracing` and Perfetto).
//!
//! All three are hand-assembled (the workspace carries no JSON dependency);
//! [`crate::json::validate_json`] exists so tests and the CLI can prove the
//! output parses.

use std::io::{self, Write};

use crate::event::{Event, EventKind, Track};
use crate::json::escape;
use crate::recorder::TelemetrySnapshot;

/// Converts cycles to Chrome-trace microseconds.
fn us(cycles: u64, cycles_per_us: f64) -> f64 {
    cycles as f64 / cycles_per_us
}

fn core_json(ev: &Event) -> String {
    match ev.core {
        Some(c) => c.index().to_string(),
        None => "null".into(),
    }
}

/// The JSONL payload fields (everything after `cycle`/`core`/`event`) for
/// one line, or `None` for kinds the stream synthesizes differently.
fn jsonl_lines(ev: &Event) -> Vec<(u64, String)> {
    let head = |cycle: u64, name: &str, rest: &str| {
        let sep = if rest.is_empty() { "" } else { "," };
        (
            cycle,
            format!(
                "{{\"cycle\":{cycle},\"core\":{},\"event\":\"{name}\"{sep}{rest}}}",
                core_json(ev)
            ),
        )
    };
    let at = ev.at.raw();
    match ev.kind {
        EventKind::EpochBegin { eid } => {
            vec![head(at, "epoch_begin", &format!("\"eid\":{}", eid.raw()))]
        }
        EventKind::EpochCommit { eid } => {
            vec![head(at, "epoch_commit", &format!("\"eid\":{}", eid.raw()))]
        }
        EventKind::EpochPersist { eid } => {
            vec![head(at, "epoch_persist", &format!("\"eid\":{}", eid.raw()))]
        }
        EventKind::BoundaryStall { until } => vec![
            head(
                at,
                "boundary_stall_begin",
                &format!("\"until\":{}", until.raw()),
            ),
            head(
                until.raw(),
                "boundary_stall_end",
                &format!("\"since\":{at}"),
            ),
        ],
        EventKind::UndoEntryAppended {
            addr,
            valid_from,
            valid_till,
        } => vec![head(
            at,
            "undo_entry_appended",
            &format!(
                "\"line\":{},\"valid_from\":{},\"valid_till\":{}",
                addr.raw(),
                valid_from.raw(),
                valid_till.raw()
            ),
        )],
        EventKind::UndoDrain {
            entries,
            bytes,
            forced,
            sealed,
        } => vec![head(
            at,
            "undo_drain",
            &format!(
                "\"entries\":{entries},\"bytes\":{bytes},\"forced\":{forced},\"sealed\":{}",
                sealed.raw()
            ),
        )],
        EventKind::BloomCheck { addr, hit } => vec![head(
            at,
            "bloom_check",
            &format!("\"line\":{},\"hit\":{hit}", addr.raw()),
        )],
        EventKind::AcsScan {
            target,
            lines,
            started,
        } => vec![
            head(
                started.raw(),
                "acs_scan_start",
                &format!("\"target\":{}", target.raw()),
            ),
            head(
                at,
                "acs_scan_end",
                &format!("\"target\":{},\"lines\":{lines}", target.raw()),
            ),
        ],
        EventKind::AcsLineWriteback { addr } => vec![head(
            at,
            "acs_line_writeback",
            &format!("\"line\":{}", addr.raw()),
        )],
        EventKind::DirtyWriteback { addr } => vec![head(
            at,
            "dirty_writeback",
            &format!("\"line\":{}", addr.raw()),
        )],
        EventKind::NvmAccess {
            class,
            write,
            bytes,
            done,
        } => vec![
            head(
                at,
                "nvm_enqueue",
                &format!(
                    "\"class\":\"{}\",\"write\":{write},\"bytes\":{bytes}",
                    escape(class)
                ),
            ),
            head(
                done.raw(),
                "nvm_complete",
                &format!("\"class\":\"{}\",\"queued_at\":{at}", escape(class)),
            ),
        ],
        EventKind::CrashInjected => vec![head(at, "crash_injected", "")],
        EventKind::RecoveryStart => vec![head(at, "recovery_start", "")],
        EventKind::RecoveryDone {
            recovered_to,
            entries,
        } => vec![head(
            at,
            "recovery_done",
            &format!(
                "\"recovered_to\":{},\"entries\":{entries}",
                recovered_to.raw()
            ),
        )],
        EventKind::Marker { name, value } => vec![head(
            at,
            "marker",
            &format!("\"name\":\"{}\",\"value\":{value}", escape(name)),
        )],
    }
}

/// Writes the snapshot as newline-delimited JSON: one object per line,
/// sorted by cycle. Span events (NVM requests, ACS passes, stalls) become
/// a start line and an end line so the stream reads chronologically.
pub fn write_jsonl<W: Write>(w: &mut W, snap: &TelemetrySnapshot) -> io::Result<()> {
    let mut lines: Vec<(u64, String)> = Vec::with_capacity(snap.events.len());
    for ev in &snap.events {
        lines.extend(jsonl_lines(ev));
    }
    lines.sort_by_key(|&(cycle, _)| cycle);
    for (_, line) in &lines {
        writeln!(w, "{line}")?;
    }
    // Trailing accounting record: how many events the rings overwrote. The
    // auditor refuses to certify a stream whose drops are nonzero.
    if !snap.events.is_empty() || snap.dropped > 0 {
        let at = lines.last().map(|&(cycle, _)| cycle).unwrap_or(0);
        let by_lane: Vec<String> = snap.dropped_by_lane.iter().map(u64::to_string).collect();
        writeln!(
            w,
            "{{\"cycle\":{at},\"core\":null,\"event\":\"dropped_events\",\
             \"dropped\":{},\"by_lane\":[{}]}}",
            snap.dropped,
            by_lane.join(",")
        )?;
    }
    Ok(())
}

/// Writes the sampled time series as CSV with a `series,cycle,value`
/// header.
pub fn write_series_csv<W: Write>(w: &mut W, snap: &TelemetrySnapshot) -> io::Result<()> {
    writeln!(w, "series,cycle,value")?;
    for series in &snap.series {
        for &(at, value) in &series.points {
            writeln!(w, "{},{},{}", series.name, at.raw(), value)?;
        }
    }
    if !snap.events.is_empty() || snap.dropped > 0 {
        let at = snap.events.last().map(|e| e.at.raw()).unwrap_or(0);
        writeln!(w, "dropped_events,{at},{}", snap.dropped)?;
    }
    Ok(())
}

/// One pending Chrome-trace entry: sort key + rendered JSON object.
struct TraceEntry {
    ts: f64,
    json: String,
}

fn push_entry(out: &mut Vec<TraceEntry>, ts: f64, json: String) {
    out.push(TraceEntry { ts, json });
}

fn instant(out: &mut Vec<TraceEntry>, ts: f64, track: Track, name: &str, args: &str) {
    push_entry(
        out,
        ts,
        format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
            escape(name),
            track.tid()
        ),
    );
}

fn complete(out: &mut Vec<TraceEntry>, ts: f64, dur: f64, track: Track, name: &str, args: &str) {
    push_entry(
        out,
        ts,
        format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
            escape(name),
            track.tid()
        ),
    );
}

/// Writes the snapshot in Chrome `trace_event` JSON format.
///
/// `cycles_per_us` converts simulation cycles to trace microseconds — pass
/// the core clock in MHz (a 2000 MHz core runs 2000 cycles per µs). Tracks
/// become named threads; epochs render as nested `B`/`E` spans, ACS passes,
/// NVM requests, and boundary stalls as complete (`X`) events, commits and
/// write-backs as instants, and sampled series as counter (`C`) plots.
/// Output events are sorted by timestamp.
pub fn write_chrome_trace<W: Write>(
    w: &mut W,
    snap: &TelemetrySnapshot,
    cycles_per_us: f64,
) -> io::Result<()> {
    assert!(
        cycles_per_us > 0.0,
        "cycles_per_us must be positive (pass the clock in MHz)"
    );
    let mut out: Vec<TraceEntry> = Vec::with_capacity(snap.events.len() + 16);

    let mut open_epoch: Option<(f64, u64)> = None;
    let mut recovery_open_at: Option<f64> = None;
    let mut last_ts = 0.0f64;

    for ev in &snap.events {
        let ts = us(ev.at.raw(), cycles_per_us);
        last_ts = last_ts.max(ts);
        let core_args = match ev.core {
            Some(c) => format!("\"core\":{}", c.index()),
            None => String::new(),
        };
        let with_core = |extra: &str| -> String {
            match (extra.is_empty(), core_args.is_empty()) {
                (true, _) => core_args.clone(),
                (false, true) => extra.to_string(),
                (false, false) => format!("{extra},{core_args}"),
            }
        };
        match ev.kind {
            EventKind::EpochBegin { eid } => {
                if let Some((_, open_eid)) = open_epoch.take() {
                    push_entry(
                        &mut out,
                        ts,
                        format!(
                            "{{\"name\":\"epoch {open_eid}\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{}}}",
                            Track::Epochs.tid()
                        ),
                    );
                }
                open_epoch = Some((ts, eid.raw()));
                push_entry(
                    &mut out,
                    ts,
                    format!(
                        "{{\"name\":\"epoch {}\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{},\"args\":{{\"eid\":{}}}}}",
                        eid.raw(),
                        Track::Epochs.tid(),
                        eid.raw()
                    ),
                );
            }
            EventKind::EpochCommit { eid } => instant(
                &mut out,
                ts,
                Track::Epochs,
                &format!("commit {}", eid.raw()),
                &with_core(&format!("\"eid\":{}", eid.raw())),
            ),
            EventKind::EpochPersist { eid } => instant(
                &mut out,
                ts,
                Track::Epochs,
                &format!("persist {}", eid.raw()),
                &with_core(&format!("\"eid\":{}", eid.raw())),
            ),
            EventKind::BoundaryStall { until } => {
                let end = us(until.raw(), cycles_per_us);
                last_ts = last_ts.max(end);
                complete(
                    &mut out,
                    ts,
                    (end - ts).max(0.0),
                    Track::Stalls,
                    "boundary stall",
                    &with_core(""),
                );
            }
            EventKind::UndoEntryAppended {
                addr,
                valid_from,
                valid_till,
            } => instant(
                &mut out,
                ts,
                Track::UndoBuffer,
                "undo append",
                &with_core(&format!(
                    "\"line\":{},\"valid_from\":{},\"valid_till\":{}",
                    addr.raw(),
                    valid_from.raw(),
                    valid_till.raw()
                )),
            ),
            EventKind::UndoDrain {
                entries,
                bytes,
                forced,
                ..
            } => instant(
                &mut out,
                ts,
                Track::UndoBuffer,
                if forced {
                    "undo drain (forced)"
                } else {
                    "undo drain"
                },
                &with_core(&format!(
                    "\"entries\":{entries},\"bytes\":{bytes},\"forced\":{forced}"
                )),
            ),
            EventKind::BloomCheck { addr, hit } => instant(
                &mut out,
                ts,
                Track::UndoBuffer,
                if hit { "bloom hit" } else { "bloom miss" },
                &with_core(&format!("\"line\":{},\"hit\":{hit}", addr.raw())),
            ),
            EventKind::AcsScan {
                target,
                lines,
                started,
            } => {
                let start = us(started.raw(), cycles_per_us);
                complete(
                    &mut out,
                    start,
                    (ts - start).max(0.0),
                    Track::Acs,
                    &format!("acs scan e{}", target.raw()),
                    &with_core(&format!("\"target\":{},\"lines\":{lines}", target.raw())),
                );
            }
            EventKind::AcsLineWriteback { addr } => instant(
                &mut out,
                ts,
                Track::Acs,
                "acs writeback",
                &with_core(&format!("\"line\":{}", addr.raw())),
            ),
            EventKind::DirtyWriteback { addr } => instant(
                &mut out,
                ts,
                Track::Cache,
                "dirty writeback",
                &with_core(&format!("\"line\":{}", addr.raw())),
            ),
            EventKind::NvmAccess {
                class,
                write,
                bytes,
                done,
            } => {
                let end = us(done.raw(), cycles_per_us);
                last_ts = last_ts.max(end);
                complete(
                    &mut out,
                    ts,
                    (end - ts).max(0.0),
                    Track::Nvm,
                    class,
                    &with_core(&format!("\"write\":{write},\"bytes\":{bytes}")),
                );
            }
            EventKind::CrashInjected => {
                instant(&mut out, ts, Track::Crash, "crash injected", &with_core(""))
            }
            EventKind::RecoveryStart => {
                recovery_open_at = Some(ts);
                push_entry(
                    &mut out,
                    ts,
                    format!(
                        "{{\"name\":\"recovery\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{}}}",
                        Track::Crash.tid()
                    ),
                );
            }
            EventKind::RecoveryDone {
                recovered_to,
                entries,
            } => {
                if recovery_open_at.take().is_none() {
                    // No matched B: render as an instant instead of an
                    // unbalanced E that viewers reject.
                    instant(
                        &mut out,
                        ts,
                        Track::Crash,
                        "recovery done",
                        &with_core(&format!(
                            "\"recovered_to\":{},\"entries\":{entries}",
                            recovered_to.raw()
                        )),
                    );
                } else {
                    push_entry(
                        &mut out,
                        ts,
                        format!(
                            "{{\"name\":\"recovery\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{},\"args\":{{\"recovered_to\":{},\"entries\":{entries}}}}}",
                            Track::Crash.tid(),
                            recovered_to.raw()
                        ),
                    );
                }
            }
            EventKind::Marker { name, value } => instant(
                &mut out,
                ts,
                Track::Stalls,
                name,
                &with_core(&format!("\"value\":{value}")),
            ),
        }
    }

    // Close dangling spans at the last observed timestamp.
    if let Some((_, eid)) = open_epoch {
        push_entry(
            &mut out,
            last_ts,
            format!(
                "{{\"name\":\"epoch {eid}\",\"ph\":\"E\",\"ts\":{last_ts:.3},\"pid\":0,\"tid\":{}}}",
                Track::Epochs.tid()
            ),
        );
    }
    if recovery_open_at.is_some() {
        push_entry(
            &mut out,
            last_ts,
            format!(
                "{{\"name\":\"recovery\",\"ph\":\"E\",\"ts\":{last_ts:.3},\"pid\":0,\"tid\":{}}}",
                Track::Crash.tid()
            ),
        );
    }

    // Sampled series as counter plots.
    for series in &snap.series {
        for &(at, value) in &series.points {
            let ts = us(at.raw(), cycles_per_us);
            push_entry(
                &mut out,
                ts,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":0,\"args\":{{\"value\":{value}}}}}",
                    escape(series.name)
                ),
            );
        }
    }

    // Viewers want timestamps non-decreasing; the stable sort keeps
    // B-before-E ordering for same-timestamp pairs.
    out.sort_by(|a, b| a.ts.total_cmp(&b.ts));

    writeln!(w, "{{")?;
    writeln!(w, "  \"displayTimeUnit\": \"ms\",")?;
    writeln!(w, "  \"traceEvents\": [")?;
    let mut first = true;
    // Thread-name metadata first so viewers label tracks before any event.
    for track in Track::all() {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            track.tid(),
            track.label()
        )?;
    }
    // Ring-overwrite accounting rides along as timestamp-free metadata.
    if !snap.events.is_empty() || snap.dropped > 0 {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "    {{\"name\":\"dropped_events\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"dropped\":{}}}}}",
            snap.dropped
        )?;
    }
    for entry in &out {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(w, "    {}", entry.json)?;
    }
    writeln!(w)?;
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    Ok(())
}

/// [`write_jsonl`] into a `String`.
pub fn jsonl_to_string(snap: &TelemetrySnapshot) -> String {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, snap).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// [`write_series_csv`] into a `String`.
pub fn series_csv_to_string(snap: &TelemetrySnapshot) -> String {
    let mut buf = Vec::new();
    write_series_csv(&mut buf, snap).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_to_string(snap: &TelemetrySnapshot, cycles_per_us: f64) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, snap, cycles_per_us).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_json, validate_jsonl};
    use crate::recorder::Telemetry;
    use picl_types::{CoreId, Cycle, EpochId, LineAddr};

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new(2, 256);
        t.record(Cycle(0), None, EventKind::EpochBegin { eid: EpochId(1) });
        t.record(
            Cycle(10),
            Some(CoreId(0)),
            EventKind::NvmAccess {
                class: "demand-read",
                write: false,
                bytes: 64,
                done: Cycle(150),
            },
        );
        t.record(
            Cycle(40),
            Some(CoreId(1)),
            EventKind::BloomCheck {
                addr: LineAddr::new(7),
                hit: true,
            },
        );
        t.record(
            Cycle(50),
            Some(CoreId(1)),
            EventKind::UndoDrain {
                entries: 3,
                bytes: 192,
                forced: true,
                sealed: Cycle(45),
            },
        );
        t.record(Cycle(100), None, EventKind::EpochCommit { eid: EpochId(1) });
        t.record(Cycle(100), None, EventKind::EpochBegin { eid: EpochId(2) });
        t.record(
            Cycle(180),
            None,
            EventKind::AcsScan {
                target: EpochId(1),
                lines: 2,
                started: Cycle(120),
            },
        );
        t.record(
            Cycle(130),
            None,
            EventKind::AcsLineWriteback {
                addr: LineAddr::new(3),
            },
        );
        t.record(
            Cycle(185),
            None,
            EventKind::EpochPersist { eid: EpochId(1) },
        );
        t.record(
            Cycle(200),
            None,
            EventKind::BoundaryStall { until: Cycle(260) },
        );
        t.sample("undo_fill", Cycle(0), 0.0);
        t.sample("undo_fill", Cycle(100), 3.0);
        t.snapshot()
    }

    #[test]
    fn jsonl_is_valid_and_chronological() {
        let snap = sample_snapshot();
        let text = jsonl_to_string(&snap);
        let n = validate_jsonl(&text).expect("every line parses");
        // Spans (NVM access, ACS scan, stall) each produce two lines, plus
        // the trailing dropped_events accounting record.
        assert_eq!(n, snap.events.len() + 4);
        assert!(
            text.lines().last().unwrap().contains("\"dropped\":0"),
            "stream ends with the drop accounting record"
        );
        let mut last = 0u64;
        for line in text.lines() {
            let cycle: u64 = line
                .split("\"cycle\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(cycle >= last, "stream is chronological: {line}");
            last = cycle;
        }
    }

    #[test]
    fn csv_has_header_and_all_points() {
        let snap = sample_snapshot();
        let text = series_csv_to_string(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "series,cycle,value");
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1], "undo_fill,0,0");
        assert_eq!(lines[2], "undo_fill,100,3");
        assert_eq!(lines[3], "dropped_events,200,0");
    }

    #[test]
    fn nonzero_drops_are_exported_by_every_format() {
        let t = Telemetry::new(0, 2);
        for i in 0..5 {
            t.record(Cycle(i), None, EventKind::CrashInjected);
        }
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 3);
        let jsonl = jsonl_to_string(&snap);
        assert!(jsonl.contains("\"event\":\"dropped_events\",\"dropped\":3"));
        assert!(jsonl.contains("\"by_lane\":[3]"));
        let csv = series_csv_to_string(&snap);
        assert!(csv.lines().any(|l| l == "dropped_events,4,3"), "{csv}");
        let chrome = chrome_trace_to_string(&snap, 2000.0);
        validate_json(&chrome).unwrap();
        assert!(chrome.contains("\"name\":\"dropped_events\""));
        assert!(chrome.contains("{\"dropped\":3}"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_monotonic_timestamps() {
        let snap = sample_snapshot();
        let text = chrome_trace_to_string(&snap, 2000.0);
        validate_json(&text).expect("trace parses as JSON");
        // Every ts in emission order must be non-decreasing.
        let mut last = f64::MIN;
        let mut seen = 0;
        for piece in text.split("\"ts\":").skip(1) {
            let ts: f64 = piece
                .split([',', '}'])
                .next()
                .unwrap()
                .parse()
                .expect("ts parses");
            assert!(ts >= last, "timestamps monotonic: {ts} after {last}");
            last = ts;
            seen += 1;
        }
        assert!(seen > 5, "trace has events");
        // Distinct tracks are labelled.
        for track in Track::all() {
            assert!(text.contains(&format!("\"name\":\"{}\"", track.label())));
        }
        // The dangling epoch 2 B-span is closed.
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 2);
        // Counter samples appear.
        assert!(text.contains("\"ph\":\"C\""));
    }

    #[test]
    fn empty_snapshot_still_exports_cleanly() {
        let snap = Telemetry::off().snapshot();
        assert_eq!(jsonl_to_string(&snap), "");
        validate_json(&chrome_trace_to_string(&snap, 2000.0)).unwrap();
        assert_eq!(series_csv_to_string(&snap), "series,cycle,value\n");
    }
}
