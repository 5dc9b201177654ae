//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call into a layer (a `RouteServer` method,
//! the adjacency rebuild closure, a `CheckpointStore` operation, a σ
//! round seen through the telemetry sink) in a span.  Spans nest by call
//! order on the driving thread; the recorder keeps them in memory and the
//! benchmark writes them out when the run ends.  Recording is off unless
//! [`start`] was called, so the untraced run pays one thread-local flag
//! test per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.flush`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder started.
    pub start: u64,
    /// End, nanoseconds since the recorder started.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The event offset or flush number the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (dropping anything recorded before).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back the spans, in start order.
pub fn stop() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Span id meaning "the enclosing span's id".
pub const INHERIT: u64 = u64::MAX;

/// Is this thread recording?
pub fn on() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Open a span; `None` when not recording.
pub fn enter(name: &'static str, id: u64) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.t0.elapsed().as_nanos() as u64;
        let k = rec.spans.len();
        let parent = rec.open.last().copied();
        let id = match (id, parent) {
            (INHERIT, Some(p)) => rec.spans[p].id,
            (INHERIT, None) => 0,
            (id, _) => id,
        };
        rec.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            id,
        });
        rec.open.push(k);
        Some(k)
    })
}

/// Close the span `enter` returned.  Spans close in reverse order of
/// opening.
pub fn exit(k: Option<usize>) {
    let Some(k) = k else { return };
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = rec.t0.elapsed().as_nanos() as u64;
            rec.spans[k].end = now;
            let top = rec.open.pop();
            debug_assert_eq!(top, Some(k), "spans must close innermost first");
        }
    });
}

/// Run `f` inside a span.
pub fn timed<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let k = enter(name, id);
    let out = f();
    exit(k);
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// The durations of each name's spans, nanoseconds, in start order.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.dur());
    }
    out
}

/// Time covered by top-level spans (those without a parent), nanoseconds.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

/// Write spans as JSON lines: `{"k":…,"name":…,"start_ns":…,"end_ns":…,
/// "parent":…,"id":…,"self_ns":…}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (k, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"k\":{k},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"self_ns\":{own}}}",
            s.name, s.start, s.end, s.id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("flush", 0, 100, None),
            span("rebuild", 10, 30, Some(0)),
            span("round", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("p", 50, 100, None), span("a", 40, 70, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("flush", 0, 100, None),
            span("rebuild", 0, 50, Some(0)),
            span("inner", 0, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 40]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_off_by_default() {
        assert_eq!(enter("off", 0), None);
        start();
        timed("outer", 7, || timed("inner", 7, || ()));
        timed("next", 8, || timed("child", INHERIT, || ()));
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "next", "child"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[3].parent, spans[3].id), (Some(2), 8));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(top_level_ns(&spans), spans[0].dur() + spans[2].dur());
        assert_eq!(self_times(&spans)[0], spans[0].dur() - spans[1].dur());
        assert_eq!(durations(&spans)["outer"], vec![spans[0].dur()]);
    }
}
