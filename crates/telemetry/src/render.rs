//! Stable text and JSON renderings of a [`TelemetrySnapshot`], plus a
//! dependency-free JSON well-formedness checker for smoke tests.

use crate::registry::TelemetrySnapshot;

/// Format version stamped into the JSON rendering, bumped on any shape
/// change so downstream parsers can detect drift.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

impl TelemetrySnapshot {
    /// Deterministic human-readable rendering: one metric per line,
    /// name-sorted within each kind, histograms with count/mean/p50/
    /// p95/p99/max. Empty snapshots render a single marker line.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "telemetry: no metrics recorded\n".to_string();
        }
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!("counter   {:<40} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("gauge     {:<40} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram {:<40} count={} mean={:.0} p50={} p95={} p99={} max={}\n",
                h.name,
                h.count,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.max
            ));
        }
        out
    }

    /// Deterministic JSON rendering:
    ///
    /// ```json
    /// {
    ///   "telemetry_version": 1,
    ///   "counters": [{"name": "fstore.cache.hit", "value": 42}],
    ///   "gauges": [{"name": "anchor.announce_queue.depth", "value": 3}],
    ///   "histograms": [{"name": "fstore.fsync.ns", "count": 10,
    ///                   "sum": 12345, "max": 2048,
    ///                   "p50": 1023, "p95": 2047, "p99": 2048}]
    /// }
    /// ```
    ///
    /// Metric names never need escaping (dotted lowercase identifiers)
    /// and all values are unsigned integers, so the output is plain
    /// `format!` concatenation — no serializer required.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"telemetry_version\": {SNAPSHOT_FORMAT_VERSION},\n"
        ));
        out.push_str("  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                c.name, c.value
            ));
        }
        out.push_str(if self.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                g.name, g.value
            ));
        }
        out.push_str(if self.gauges.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.name, h.count, h.sum, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Checks that `input` is one well-formed JSON value (object, array,
/// string, number, boolean or null) with nothing but whitespace after
/// it. A recursive-descent validator, not a parser: smoke tests use it
/// to assert snapshots and bench reports parse without pulling in a
/// JSON library.
pub fn json_is_well_formed(input: &str) -> bool {
    let bytes = input.as_bytes();
    let mut pos = 0;
    if !skip_value(bytes, &mut pos, 0) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

/// Nesting ceiling for the validator: telemetry/bench JSON is ~3 deep;
/// anything past this is garbage, not data.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn skip_value(bytes: &[u8], pos: &mut usize, depth: usize) -> bool {
    if depth > MAX_DEPTH {
        return false;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => skip_container(bytes, pos, depth, b'}', true),
        Some(b'[') => skip_container(bytes, pos, depth, b']', false),
        Some(b'"') => skip_string(bytes, pos),
        Some(b't') => skip_literal(bytes, pos, b"true"),
        Some(b'f') => skip_literal(bytes, pos, b"false"),
        Some(b'n') => skip_literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => skip_number(bytes, pos),
        _ => false,
    }
}

/// Objects (`keyed`) and arrays share one loop: `open` is consumed by
/// the caller's peek, entries are comma-separated values, objects
/// additionally require a `"key":` prefix on each entry.
fn skip_container(bytes: &[u8], pos: &mut usize, depth: usize, close: u8, keyed: bool) -> bool {
    *pos += 1; // the opening brace/bracket
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return true;
    }
    loop {
        if keyed {
            skip_ws(bytes, pos);
            if !skip_string(bytes, pos) {
                return false;
            }
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return false;
            }
            *pos += 1;
        }
        if !skip_value(bytes, pos, depth + 1) {
            return false;
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn skip_string(bytes: &[u8], pos: &mut usize) -> bool {
    if bytes.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => *pos += 2, // skip the escaped byte; \uXXXX hex is lexed as plain chars
            _ => *pos += 1,
        }
    }
    false
}

fn skip_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn skip_number(bytes: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_start {
        return false;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = Registry::new();
        reg.counter("fstore.cache.hit").add(42);
        reg.counter("fstore.cache.miss").add(7);
        reg.gauge("anchor.announce_queue.depth").set(3);
        let h = reg.histogram("fstore.fsync.ns");
        for v in [800u64, 1000, 1500, 2000, 90_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn text_rendering_is_stable_and_complete() {
        let text = sample_snapshot().render_text();
        assert!(text.contains("counter   fstore.cache.hit"));
        assert!(text.contains("42"));
        assert!(text.contains("gauge     anchor.announce_queue.depth"));
        assert!(text.contains("histogram fstore.fsync.ns"));
        assert!(text.contains("count=5"));
        assert!(text.contains("max=90000"));
        assert_eq!(text, sample_snapshot().render_text());
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample_snapshot().render_json();
        assert!(json_is_well_formed(&json), "bad JSON:\n{json}");
        assert!(json.contains("\"telemetry_version\": 1"));
        assert!(json.contains("\"name\": \"fstore.cache.hit\", \"value\": 42"));
        assert!(json.contains("\"name\": \"fstore.fsync.ns\", \"count\": 5"));
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let snap = TelemetrySnapshot::default();
        assert_eq!(snap.render_text(), "telemetry: no metrics recorded\n");
        assert!(json_is_well_formed(&snap.render_json()));
    }

    #[test]
    fn well_formedness_checker_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e3",
            r#"{"a": [1, 2, {"b": "c\"d"}], "e": null}"#,
            "  {\"x\": 1}  ",
        ] {
            assert!(json_is_well_formed(good), "rejected good JSON: {good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": }",
            "tru",
            "1 2",
            "{\"a\": 1} extra",
            "\"unterminated",
            "- 1",
            "1.",
        ] {
            assert!(!json_is_well_formed(bad), "accepted bad JSON: {bad}");
        }
    }
}
