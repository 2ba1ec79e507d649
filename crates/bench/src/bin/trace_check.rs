//! CI trace-validation gate: checks that a chrome-trace JSON file exported
//! by `NVFI_TRACE=path.json` is well-formed and contains the span taxonomy
//! a distributed campaign must produce.
//!
//! ```text
//! trace_check <trace.json>
//! ```
//!
//! Validates, failing (exit 1) on the first violation:
//!
//! * the file parses as a JSON array of event objects;
//! * every event has a string `name`, a `ph` of `"X"` (with a `dur`) or
//!   `"i"`, and numeric `pid`/`tid`/`ts`;
//! * every span of the dispatch pipeline is present — `server.dispatch`,
//!   `shard.queue_wait`, `shard.ship`, `shard.execute`, `shard.merge` from
//!   the coordinator, `worker.execute` from the shipped span summaries;
//! * `worker.execute` spans appear on at least two distinct lanes (`tid`s)
//!   — proof that both workers of the drill actually ran shards;
//! * at least one `audit.*` event was recorded (every executed baseline
//!   shard is audited, and the drill's one-shot server executes its
//!   baseline).

use std::collections::BTreeSet;
use std::process::ExitCode;

use serde_json::Value;

/// Spans the coordinator and the shipped worker summaries must produce in
/// any distributed campaign.
const REQUIRED_SPANS: &[&str] = &[
    "server.dispatch",
    "shard.queue_wait",
    "shard.ship",
    "shard.execute",
    "shard.merge",
    "worker.execute",
];

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::FAILURE;
    };
    match run(&path) {
        Ok(summary) => {
            println!("trace_check: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let root = serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))?;
    let Value::Array(events) = root else {
        return Err("top level is not a JSON array".into());
    };
    if events.is_empty() {
        return Err("trace is empty".into());
    }

    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut worker_lanes: BTreeSet<u64> = BTreeSet::new();
    let mut audit_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing string `ph`"))?;
        for field in ["pid", "tid", "ts"] {
            ev.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i} ({name}): missing numeric `{field}`"))?;
        }
        match ph {
            "X" => {
                ev.get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): span without `dur`"))?;
            }
            "i" => {}
            other => return Err(format!("event {i} ({name}): unexpected ph {other:?}")),
        }
        if name == "worker.execute" {
            let lane = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0);
            worker_lanes.insert(lane as u64);
        }
        if name.starts_with("audit.") {
            audit_events += 1;
        }
        names.insert(name.to_string());
    }

    for required in REQUIRED_SPANS {
        if !names.contains(*required) {
            return Err(format!(
                "required span `{required}` missing (saw: {names:?})"
            ));
        }
    }
    if worker_lanes.len() < 2 {
        return Err(format!(
            "worker.execute spans on {} lane(s); a 2-worker drill must show >=2",
            worker_lanes.len()
        ));
    }
    if audit_events == 0 {
        return Err("no audit.* events (every executed baseline shard is audited)".into());
    }
    Ok(format!(
        "{} events, {} span names, {} worker lanes, {} audit events",
        events.len(),
        names.len(),
        worker_lanes.len(),
        audit_events
    ))
}
