//! In-memory spans recorded by the benchmark around its calls into each
//! layer, per-layer self time, and a std-only JSON Lines writer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch;
/// `id` is shared by the spans of one timestep, request or cell.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

/// Span recorder. When off, every method is a no-op, so untraced runs pay
/// only for the branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span starting now, nested under the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return None;
        }
        let start = self.nanos(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span { name, start, end: start, parent: self.stack.last().copied(), id });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open {
            self.spans[idx].end = self.nanos(Instant::now());
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        }
    }

    /// Record a finished leaf span over `[start, end]`, reusing the
    /// instants the caller already took for its own timing.
    pub fn leaf(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let (start, end) = (self.nanos(start), self.nanos(end));
            self.spans.push(Span { name, start, end, parent: self.stack.last().copied(), id });
        }
    }

    /// Move another tracer's spans (same epoch) under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Open) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it covered by the union of its children (children of a
    /// parallel parent may overlap each other). Spans that start before
    /// `from` are skipped, which restricts the sum to one measured phase.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let covered = union_len(&mut children[i]);
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        w.flush()
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.spans = vec![
            Span { name: "root", start: 0, end: 100, parent: None, id: 0 },
            Span { name: "a", start: 10, end: 40, parent: Some(0), id: 0 },
            Span { name: "b", start: 30, end: 50, parent: Some(0), id: 1 },
            Span { name: "a", start: 60, end: 70, parent: Some(0), id: 2 },
        ];
        let st = t.self_times(0);
        // Union of children: [10,50] + [60,70] = 50 ns.
        assert!((st["root"] - 50e-9).abs() < 1e-15);
        assert!((st["a"] - 40e-9).abs() < 1e-15);
        assert!((st["b"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.open("x", 1);
        t.leaf("y", 2, Instant::now(), Instant::now());
        t.close(o);
        assert!(t.spans().is_empty());
    }
}
