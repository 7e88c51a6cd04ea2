//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing here reaches into program code: a span's start and
//! end are taken on the benchmark's side of a public entry point.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// No parent / no group.
pub const NONE: u64 = u64::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, or [`NONE`].
    pub parent: u64,
    /// Uplink group id the span belongs to, or [`NONE`].
    pub group: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer { origin, spans: Mutex::new(Vec::with_capacity(capacity)) }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (usable as a parent).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        group: u64,
    ) -> u64 {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, group };
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(span);
        spans.len() as u64 - 1
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer poisoned"))
    }
}

/// Covered length of a set of intervals after clipping them to
/// `[lo, hi)` — overlapping children count once.
pub fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    for iv in &mut intervals {
        iv.0 = iv.0.clamp(lo, hi);
        iv.1 = iv.1.clamp(lo, hi);
    }
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = usize::try_from(s.parent).ok().and_then(|p| children.get_mut(p)) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - union_len(kids, s.start_ns, s.end_ns))
        .collect()
}

/// The spans as one JSON document (`name, start_ns, end_ns, parent,
/// group, self_ns`; `-1` for none).
pub fn to_json(spans: &[Span]) -> String {
    let id = |v: u64| if v == NONE { "-1".to_string() } else { v.to_string() };
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\":[");
    for (k, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{},\"self_ns\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            id(s.parent),
            id(s.group),
            self_ns
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span { name, start_ns, end_ns, parent, group: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("w2v", 0, 100, NONE),
            span("front", 10, 40, 0),
            span("front", 30, 50, 0), // overlaps the first child
            span("sink", 90, 130, 0), // runs past the parent's end
            span("fb", 15, 25, 1),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 10);
    }

    #[test]
    fn union_handles_nesting_gaps_and_empties() {
        assert_eq!(union_len(vec![], 0, 10), 0);
        assert_eq!(union_len(vec![(0, 10), (2, 3)], 0, 10), 10);
        assert_eq!(union_len(vec![(0, 2), (5, 7), (6, 9)], 0, 10), 6);
        assert_eq!(union_len(vec![(20, 30)], 0, 10), 0);
    }

    #[test]
    fn recorded_spans_round_trip_to_json() {
        let origin = Instant::now();
        let tracer = Tracer::new(origin, 4);
        let root = tracer.record("w2v", origin, origin, NONE, 3);
        tracer.record("net.send", origin, origin, root, 3);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        let json = to_json(&spans);
        assert!(json.starts_with("{\"spans\":[{\"name\":\"w2v\""));
        assert!(json.contains("\"parent\":-1"));
    }
}
