//! The busy clock and the span recorder.
//!
//! Every call into the system goes through [`Meter::call`], which adds
//! its wall time to the busy clock — so work the generator does between
//! calls (signing, cloning, checking) is never billed to the node. On a
//! traced run the same calls are also kept as spans in memory (name,
//! start, end, parent, op id) and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// One id per block cycle, lookup slot or recovery round.
    pub op: u64,
}

pub struct Meter {
    epoch: Instant,
    busy_ns: u64,
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
}

impl Meter {
    pub fn new(traced: bool) -> Meter {
        Meter {
            epoch: Instant::now(),
            busy_ns: 0,
            spans: traced.then(Vec::new),
            open: Vec::new(),
        }
    }

    /// Busy time so far: the sum of wall time inside [`Meter::call`].
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Opens a parent span grouping the calls of one operation. Costs
    /// nothing on an untraced run.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if let Some(spans) = &mut self.spans {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.open.push(spans.len() as u32);
            spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.iter().rev().nth(1).copied(),
                op,
            });
        }
    }

    /// Closes the innermost parent span.
    pub fn exit(&mut self) {
        if let Some(spans) = &mut self.spans {
            let idx = self.open.pop().expect("exit without enter");
            spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs one call into the system on the busy clock; returns its
    /// result and its wall time in ns.
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.busy_ns += ns;
        if let Some(spans) = &mut self.spans {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.open.last().copied(),
                op,
            });
        }
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Renders a trace file: the spans plus the program's own registry
/// snapshot (already JSON) taken at the end of the traced run.
pub fn render_trace(workload: &str, seed: u64, spans: &[Span], registry_json: &str) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "[\"{}\",{},{},{},{}]",
            s.name, s.start_ns, s.end_ns, parent, s.op
        );
    }
    let _ = write!(out, "],\"registry\":{}}}", registry_json.trim());
    out
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover. Returns `(name, count, self_ns)` sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, c) in spans.iter().zip(&covered) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns).saturating_sub(*c);
    }
    by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_trace_is_well_formed_json() {
        let mut m = Meter::new(true);
        m.enter("cycle", 7);
        m.call("net.send", 7, || ());
        m.call("net.run_until", 7, || ());
        m.exit();
        let spans = m.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let json = render_trace("ingest", 1, spans, "{\"telemetry_version\":1}");
        assert!(seldel_telemetry::json_is_well_formed(&json), "{json}");
        let selfs = self_times(spans);
        assert_eq!(
            selfs.iter().map(|s| s.0).collect::<Vec<_>>(),
            ["cycle", "net.run_until", "net.send"]
        );
    }

    #[test]
    fn untraced_meter_keeps_only_the_clock() {
        let mut m = Meter::new(false);
        m.enter("cycle", 1);
        let (v, ns) = m.call("x", 1, || 5);
        m.exit();
        assert_eq!(v, 5);
        assert_eq!(m.busy_ns(), ns);
        assert!(m.spans().is_empty());
    }
}
