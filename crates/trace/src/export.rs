//! Byte-stable exporters: Chrome `trace_event` JSON for humans with a
//! `chrome://tracing` / Perfetto viewer, and a compact stable report
//! for CI byte-diffing.
//!
//! Both are hand-serialized with fixed key order and deterministic
//! float formatting — equal recorder contents render to identical
//! bytes on every platform, thread count, and allocator. The Chrome
//! document includes volatile annotations (restore markers); the
//! stable report deliberately excludes them so a restored-and-replayed
//! run reports byte-identically to an uninterrupted one.

use crate::event::{Event, EventRecord};
use crate::recorder::Recorder;
use dual_obs::json_f64;
use std::fmt::Write as _;

/// Minimal JSON string escaping for the controlled label vocabulary
/// (tenant and rule names may still contain anything).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `{"k":v,...}` args payload for one event, fixed field order.
fn args_json(event: &Event) -> String {
    match event {
        Event::BatchBegin { reason, points } => {
            format!("{{\"reason\":\"{}\",\"points\":{points}}}", reason.name())
        }
        Event::BatchEnd {
            batch,
            time_ns,
            energy_pj,
        } => format!(
            "{{\"batch\":{batch},\"time_ns\":{},\"energy_pj\":{}}}",
            json_f64(*time_ns),
            json_f64(*energy_pj)
        ),
        Event::StageEnter { stage } => format!("{{\"stage\":\"{}\"}}", stage.name()),
        Event::StageExit {
            stage,
            time_ns,
            energy_pj,
        } => format!(
            "{{\"stage\":\"{}\",\"time_ns\":{},\"energy_pj\":{}}}",
            stage.name(),
            json_f64(*time_ns),
            json_f64(*energy_pj)
        ),
        Event::FaultSense { injected, healed } => {
            format!("{{\"injected\":{injected},\"healed\":{healed}}}")
        }
        Event::QuarantineTrip { shard } => format!("{{\"shard\":{shard}}}"),
        Event::QuarantineRelease { shards } => format!("{{\"shards\":{shards}}}"),
        Event::SnapCapture { tick } => format!("{{\"tick\":{tick}}}"),
        Event::SnapRestore { tick } => format!("{{\"tick\":{tick}}}"),
        Event::TenantAdmit { tenant } => format!("{{\"tenant\":\"{}\"}}", esc(tenant)),
        Event::TenantDefer { tenant } => format!("{{\"tenant\":\"{}\"}}", esc(tenant)),
        Event::TenantReject { tenant, shed } => {
            format!("{{\"tenant\":\"{}\",\"shed\":{shed}}}", esc(tenant))
        }
        Event::Alert {
            rule,
            value,
            raised,
        } => format!(
            "{{\"rule\":\"{}\",\"value\":{},\"raised\":{raised}}}",
            esc(rule),
            json_f64(*value)
        ),
    }
}

/// Chrome viewer display name: span pairs share a name so `B`/`E`
/// match up; instants use the dotted kind.
fn chrome_name(event: &Event) -> String {
    match event {
        Event::BatchBegin { .. } | Event::BatchEnd { .. } => "batch".to_owned(),
        Event::StageEnter { stage } | Event::StageExit { stage, .. } => stage.name().to_owned(),
        other => other.kind().to_owned(),
    }
}

/// Top-level category: the first dotted component of the kind.
fn chrome_cat(event: &Event) -> &'static str {
    let kind = event.kind();
    kind.split('.').next().unwrap_or(kind)
}

fn chrome_record(out: &mut String, pid: usize, rec: &EventRecord) {
    let ph = if rec.event.opens_span() {
        "B"
    } else if rec.event.closes_span() {
        "E"
    } else {
        "i"
    };
    let scope = if ph == "i" { ",\"s\":\"t\"" } else { "" };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\"{scope},\"ts\":{},\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"seq\":{},\"span\":{},\"parent\":{},\"detail\":{}}}}}",
        esc(&chrome_name(&rec.event)),
        chrome_cat(&rec.event),
        rec.tick,
        rec.seq,
        rec.span,
        rec.parent,
        args_json(&rec.event)
    );
}

/// Render one or more named recorder streams as a Chrome
/// `trace_event` document (`{"displayTimeUnit":…,"traceEvents":[…]}`).
/// Each stream becomes one process (pid = position in `streams`),
/// named via a `process_name` metadata record; logical ticks map to
/// microseconds. Volatile notes render as instant events with
/// `"volatile":true`.
#[must_use]
pub fn chrome_trace(streams: &[(&str, &Recorder)]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    for (pid, (name, _)) in streams.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\
             \"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        );
    }
    for (pid, (_, rec)) in streams.iter().enumerate() {
        for record in rec.events() {
            sep(&mut out);
            chrome_record(&mut out, pid, record);
        }
        for (tick, event) in rec.notes() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{tick},\
                 \"pid\":{pid},\"tid\":0,\"args\":{{\"volatile\":true,\"detail\":{}}}}}",
                esc(&chrome_name(event)),
                chrome_cat(event),
                args_json(event)
            );
        }
    }
    out.push_str("\n]}");
    out
}

/// Render one stream's retained events as a stable JSON array, one
/// record per line, `indent` spaces deep. Volatile notes are excluded.
#[must_use]
pub fn events_json(rec: &Recorder, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut out = String::new();
    out.push('[');
    let mut first = true;
    for record in rec.events() {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{pad}  {{\"seq\":{},\"tick\":{},\"span\":{},\"parent\":{},\"kind\":\"{}\",\
             \"args\":{}}}",
            record.seq,
            record.tick,
            record.span,
            record.parent,
            record.event.kind(),
            args_json(&record.event)
        );
    }
    if !first {
        let _ = write!(out, "\n{pad}");
    }
    out.push(']');
    out
}

/// Compact stable report for a set of named recorder streams: per-
/// stream ring accounting plus the full retained event list. This is
/// the shape `recovery_harness` and `tenant_sweep` digest into their
/// byte-diffed reports.
#[must_use]
pub fn report_json(streams: &[(&str, &Recorder)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"streams\": [");
    let mut first = true;
    for (name, rec) in streams {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"name\": \"{}\",\n      \"capacity\": {},\n      \
             \"emitted\": {},\n      \"retained\": {},\n      \"evicted\": {},\n      \
             \"open_depth\": {},\n      \"alerts_raised\": {},\n      \"events\": {}\n    }}",
            esc(name),
            rec.capacity(),
            rec.emitted(),
            rec.retained(),
            rec.evicted(),
            rec.open_depth(),
            rec.alerts_raised(),
            events_json(rec, 6)
        );
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Cut;
    use dual_obs::Stage;

    fn small() -> Recorder {
        let mut r = Recorder::new(8);
        let batch = r.begin(
            2,
            Event::BatchBegin {
                reason: Cut::Size,
                points: 4,
            },
        );
        let stage = r.begin(
            2,
            Event::StageEnter {
                stage: Stage::Encoding,
            },
        );
        r.end(
            2,
            stage,
            Event::StageExit {
                stage: Stage::Encoding,
                time_ns: 1.5,
                energy_pj: 2.0,
            },
        );
        r.end(
            3,
            batch,
            Event::BatchEnd {
                batch: 1,
                time_ns: 1.5,
                energy_pj: 2.0,
            },
        );
        r.note(4, Event::SnapRestore { tick: 3 });
        r
    }

    #[test]
    fn report_bytes_are_pinned() {
        let r = small();
        let got = report_json(&[("engine", &r)]);
        let want = "{\n  \"streams\": [\n    {\n      \"name\": \"engine\",\n      \
                    \"capacity\": 8,\n      \"emitted\": 4,\n      \"retained\": 4,\n      \
                    \"evicted\": 0,\n      \"open_depth\": 0,\n      \"alerts_raised\": 0,\n      \
                    \"events\": [\n        \
                    {\"seq\":0,\"tick\":2,\"span\":1,\"parent\":0,\"kind\":\"batch.begin\",\
                    \"args\":{\"reason\":\"size\",\"points\":4}},\n        \
                    {\"seq\":1,\"tick\":2,\"span\":2,\"parent\":1,\"kind\":\"stage.enter\",\
                    \"args\":{\"stage\":\"encoding\"}},\n        \
                    {\"seq\":2,\"tick\":2,\"span\":2,\"parent\":1,\"kind\":\"stage.exit\",\
                    \"args\":{\"stage\":\"encoding\",\"time_ns\":1.5,\"energy_pj\":2.0}},\n        \
                    {\"seq\":3,\"tick\":3,\"span\":1,\"parent\":0,\"kind\":\"batch.end\",\
                    \"args\":{\"batch\":1,\"time_ns\":1.5,\"energy_pj\":2.0}}\n      ]\n    }\n  \
                    ]\n}";
        assert_eq!(got, want);
    }

    #[test]
    fn report_excludes_volatile_notes_chrome_includes_them() {
        let r = small();
        let report = report_json(&[("engine", &r)]);
        assert!(!report.contains("snap.restore"));
        let chrome = chrome_trace(&[("engine", &r)]);
        assert!(chrome.contains("snap.restore"));
        assert!(chrome.contains("\"volatile\":true"));
    }

    #[test]
    fn chrome_spans_pair_and_processes_are_named() {
        let r = small();
        let doc = chrome_trace(&[("engine", &r), ("other", &Recorder::new(2))]);
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(doc.matches("\"process_name\"").count(), 2);
        assert!(doc.contains("\"args\":{\"name\":\"other\"}"));
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.ends_with("\n]}"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = Recorder::new(4);
        r.emit(
            1,
            Event::TenantAdmit {
                tenant: "a\"b\\c\nd".to_owned(),
            },
        );
        let doc = report_json(&[("s", &r)]);
        assert!(doc.contains("a\\\"b\\\\c\\nd"));
    }
}
