//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start, an end, the span that caused it and the id of
//! the request or adaptation round it belongs to. Spans stay in memory and
//! are written out as JSON lines when the run ends. With tracing off,
//! [`Tracer::span`] hands back a guard that records nothing, so the same
//! phase code serves the end-to-end run and the traced run.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request or adaptation-round id shared by the spans of one unit of
    /// work.
    pub unit: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops. `parent` is the id of
    /// the causing span (0 for none).
    pub fn span(&self, name: &'static str, parent: u64, unit: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent,
                name,
                unit,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: Some(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            unit,
            start_ns: self.now_ns(),
        }
    }

    /// Records many finished spans at once (a client thread's batch of
    /// request spans, timed with its own clock reads against [`Tracer::origin`]).
    pub fn extend(&self, name: &'static str, unit_base: u64, intervals: &[(u64, u64)]) {
        if !self.enabled || intervals.is_empty() {
            return;
        }
        let first = self
            .next_id
            .fetch_add(intervals.len() as u64, Ordering::Relaxed);
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.extend(intervals.iter().enumerate().map(|(i, &(s, e))| Span {
            id: first + i as u64,
            parent: 0,
            name,
            start_ns: s,
            end_ns: e,
            unit: unit_base + i as u64,
        }));
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// How many spans are recorded so far: a mark for [`Tracer::since`].
    pub fn mark(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The spans recorded after `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)[mark..].to_vec()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"unit\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.unit
            );
        }
        out
    }
}

pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    id: u64,
    parent: u64,
    name: &'static str,
    unit: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// Id to hand to child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: t.now_ns(),
                unit: self.unit,
            };
            t.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are not counted twice, and a
/// child reaching outside its parent is clipped).
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id && c.id != span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns().saturating_sub(covered)
}

/// Total duration in milliseconds of every span called `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Total self time in milliseconds of every span called `name`.
pub fn total_self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_time_ns(s, spans))
        .sum::<u64>() as f64
        / 1e6
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns: start,
            end_ns: end,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),  // overlaps span 2: union is 10..50
            sp(4, 1, 90, 120), // clipped to 90..100
            sp(5, 2, 12, 18),  // grandchild: not subtracted from span 1
            sp(6, 9, 0, 100),  // someone else's child
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_time_ns(&all[1], &all), 20 - 6);
        assert_eq!(self_time_ns(&all[2], &all), 30);
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_the_root() {
        let all = vec![
            sp(1, 0, 0, 1000),
            sp(2, 1, 100, 400),
            sp(3, 2, 150, 250),
            sp(4, 1, 500, 900),
        ];
        let sum: u64 = all.iter().map(|s| self_time_ns(s, &all)).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("a", 0, 1);
            assert_eq!(g.id(), 0);
        }
        t.extend("b", 0, &[(1, 2)]);
        assert!(t.snapshot().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_and_writes_json_lines() {
        let t = Tracer::new(true);
        {
            let root = t.span("round", 0, 7);
            let _kid = t.span("probe", root.id(), 7);
        }
        t.extend("req", 100, &[(5, 9), (6, 11)]);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "round").unwrap();
        let kid = spans.iter().find(|s| s.name == "probe").unwrap();
        assert_eq!(kid.parent, root.id);
        assert!(root.end_ns >= kid.end_ns && root.start_ns <= kid.start_ns);
        assert_eq!(count(&spans, "req"), 2);
        assert_eq!(total_ms(&spans, "req"), 9e-6);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        assert!(text.contains("\"name\":\"req\",\"start_ns\":6,\"end_ns\":11,\"unit\":101"));
    }
}
