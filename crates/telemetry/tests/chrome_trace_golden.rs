//! Golden-file test: the Chrome-trace exporter output for a fixed snapshot
//! is byte-for-byte stable.
//!
//! If the exporter format changes intentionally, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p picl-telemetry --test chrome_trace_golden
//! ```

use picl_telemetry::export::chrome_trace_to_string;
use picl_telemetry::json::validate_json;
use picl_telemetry::{EventKind, Telemetry};
use picl_types::{CoreId, Cycle, EpochId, LineAddr};

fn fixed_snapshot() -> picl_telemetry::TelemetrySnapshot {
    let t = Telemetry::new(2, 1024);
    t.record(Cycle(0), None, EventKind::EpochBegin { eid: EpochId(1) });
    t.record(
        Cycle(25),
        Some(CoreId(0)),
        EventKind::NvmAccess {
            class: "demand-read",
            write: false,
            bytes: 64,
            done: Cycle(145),
        },
    );
    t.record(
        Cycle(60),
        Some(CoreId(1)),
        EventKind::BloomCheck {
            addr: LineAddr::new(42),
            hit: false,
        },
    );
    t.record(
        Cycle(80),
        Some(CoreId(1)),
        EventKind::UndoDrain {
            entries: 8,
            bytes: 512,
            forced: false,
            sealed: Cycle(80),
        },
    );
    t.record(Cycle(200), None, EventKind::EpochCommit { eid: EpochId(1) });
    t.record(Cycle(200), None, EventKind::EpochBegin { eid: EpochId(2) });
    t.record(
        Cycle(210),
        None,
        EventKind::BoundaryStall { until: Cycle(250) },
    );
    t.record(
        Cycle(330),
        None,
        EventKind::AcsScan {
            target: EpochId(1),
            lines: 3,
            started: Cycle(260),
        },
    );
    t.record(
        Cycle(270),
        None,
        EventKind::AcsLineWriteback {
            addr: LineAddr::new(7),
        },
    );
    t.record(
        Cycle(300),
        Some(CoreId(0)),
        EventKind::DirtyWriteback {
            addr: LineAddr::new(9),
        },
    );
    t.record(
        Cycle(335),
        None,
        EventKind::EpochPersist { eid: EpochId(1) },
    );
    t.record(Cycle(400), None, EventKind::CrashInjected);
    t.record(Cycle(401), None, EventKind::RecoveryStart);
    t.record(
        Cycle(480),
        None,
        EventKind::RecoveryDone {
            recovered_to: EpochId(1),
            entries: 11,
        },
    );
    t.sample("undo_fill", Cycle(0), 0.0);
    t.sample("undo_fill", Cycle(80), 8.0);
    t.sample("nvm_queue_depth", Cycle(25), 1.0);
    t.snapshot()
}

#[test]
fn chrome_trace_matches_golden_file() {
    let trace = chrome_trace_to_string(&fixed_snapshot(), 2000.0);
    validate_json(&trace).expect("trace is valid JSON");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &trace).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        trace, golden,
        "Chrome-trace output drifted from tests/golden/chrome_trace.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_trace_event_timestamps_are_monotonic() {
    let trace = chrome_trace_to_string(&fixed_snapshot(), 2000.0);
    let mut last = f64::MIN;
    for piece in trace.split("\"ts\":").skip(1) {
        let ts: f64 = piece.split([',', '}']).next().unwrap().parse().unwrap();
        assert!(ts >= last, "ts {ts} goes backwards after {last}");
        last = ts;
    }
}
