//! Host-clock measurement for the traced pass: a calibrated timer, batch
//! timing for cheap calls, and a span recorder for the wrapped pipeline.

use crate::json::Json;
use crate::spec::MIN_TIMED_CALLS;
use std::time::Instant;

/// Calls per `Instant` pair in batch timing.
pub const BATCH: u64 = 1024;

/// One raw span in every this many root spans is kept (with its children).
const SAMPLE_EVERY: u64 = 1024;

/// Cost of one `Instant::now()` call, measured at start-up and subtracted
/// from every span and batch (printed as `span_overhead_ns`).
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    pub overhead_ns: f64,
}

impl Timer {
    pub fn calibrate() -> Timer {
        // Back-to-back reads: the gap between two consecutive `now()` calls
        // is one call. Minimum over rounds rejects preemption.
        let mut best = f64::INFINITY;
        for _ in 0..16 {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..4096 {
                last = std::hint::black_box(Instant::now());
            }
            best = best.min(last.duration_since(t0).as_nanos() as f64 / 4096.0);
        }
        Timer { overhead_ns: best }
    }
}

/// A host cost per call with the number of calls behind it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub total_ns: f64,
    pub calls: u64,
}

impl Timed {
    /// ns per call, refused (`None`) under [`MIN_TIMED_CALLS`] calls.
    pub fn ns(&self) -> Option<f64> {
        (self.calls >= MIN_TIMED_CALLS).then(|| (self.total_ns / self.calls as f64).max(0.0))
    }

    /// The faster per call of two measurements of the same thing.
    pub fn faster(self, other: Timed) -> Timed {
        match (self.ns(), other.ns()) {
            (Some(x), Some(y)) if y < x => other,
            (None, Some(_)) => other,
            _ => self,
        }
    }
}

/// Measure `reps` times and keep the fastest: the replays and the wrapped
/// node are deterministic, so the minimum is the run least disturbed.
pub fn best_of(reps: usize, mut measure: impl FnMut() -> Timed) -> Timed {
    (1..reps).fold(measure(), |best, _| best.faster(measure()))
}

/// Time `batches` batches of [`BATCH`] calls to `f`, one `Instant` pair per
/// batch, net of the timer's own cost. `f` gets the running call index.
pub fn batched(timer: &Timer, batches: u64, mut f: impl FnMut(u64)) -> Timed {
    let mut total_ns = 0.0;
    let mut i = 0u64;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f(i);
            i += 1;
        }
        total_ns += t0.elapsed().as_nanos() as f64 - timer.overhead_ns;
    }
    Timed {
        total_ns,
        calls: batches * BATCH,
    }
}

/// One recorded call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span among the kept raw spans.
    pub parent: Option<usize>,
    /// Command id the call served, when it served exactly one.
    pub io: Option<u64>,
}

/// What the spans of one name measured, raw: the recorder's own cost is
/// taken out when the aggregate is read ([`Recorder::self_time`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    pub calls: u64,
    /// Σ span interval.
    pub total_ns: f64,
    /// Σ interval of the spans' direct children, and how many there were.
    pub children_ns: f64,
    pub children: u64,
}

/// The recorder's own cost per span.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanCosts {
    /// What an empty span measures: the clock reads themselves.
    pub empty_ns: f64,
    /// What a child span costs its parent beyond the child's own measured
    /// interval: the bookkeeping outside the child's clock reads.
    pub footprint_ns: f64,
}

struct Open {
    name: usize,
    start: Instant,
    children_ns: f64,
    children: u64,
    /// Index among kept raw spans, when this span is sampled.
    kept: Option<usize>,
}

/// Raw span aggregates for every call plus a 1-in-1024 sample of raw spans,
/// all in memory until the benchmark ends. Spans are named by index into
/// the name table given at construction.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    names: &'static [&'static str],
    aggregates: Vec<Aggregate>,
    raw: Vec<Span>,
    roots: u64,
}

impl Recorder {
    pub fn new(names: &'static [&'static str]) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            names,
            aggregates: vec![Aggregate::default(); names.len()],
            raw: Vec::new(),
            roots: 0,
        }
    }

    /// Open a span; the clock is read last so bookkeeping stays outside it.
    #[inline]
    pub fn enter(&mut self, name: usize, io: Option<u64>) {
        let kept = match self.stack.last() {
            Some(parent) => parent.kept.is_some(),
            None => {
                self.roots += 1;
                self.roots % SAMPLE_EVERY == 1
            }
        };
        let kept = kept.then(|| {
            self.raw.push(Span {
                name: self.names[name],
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|p| p.kept),
                io,
            });
            self.raw.len() - 1
        });
        self.stack.push(Open {
            name,
            start: Instant::now(),
            children_ns: 0.0,
            children: 0,
            kept,
        });
    }

    /// Close the innermost span; the clock is read first.
    #[inline]
    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        let interval = end.duration_since(open.start).as_nanos() as f64;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += interval;
            parent.children += 1;
        }
        let agg = &mut self.aggregates[open.name];
        agg.calls += 1;
        agg.total_ns += interval;
        agg.children_ns += open.children_ns;
        agg.children += open.children;
        if let Some(i) = open.kept {
            let s = &mut self.raw[i];
            s.start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    pub fn aggregate(&self, name: usize) -> Aggregate {
        self.aggregates[name]
    }

    /// Spans recorded, all names together.
    pub fn spans(&self) -> u64 {
        self.aggregates.iter().map(|a| a.calls).sum()
    }

    /// Self time per call of `name`: its spans' intervals minus the part
    /// their children cover, net of what the recorder itself cost.
    pub fn self_time(&self, name: usize, costs: SpanCosts) -> Timed {
        let a = self.aggregate(name);
        Timed {
            total_ns: a.total_ns
                - a.children_ns
                - costs.empty_ns * a.calls as f64
                - costs.footprint_ns * a.children as f64,
            calls: a.calls,
        }
    }

    pub fn to_json(&self) -> Json {
        let id = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::obj(vec![
            (
                "raw_aggregates",
                Json::Arr(
                    self.names
                        .iter()
                        .zip(&self.aggregates)
                        .map(|(name, a)| {
                            Json::obj(vec![
                                ("name", Json::str(*name)),
                                ("calls", Json::Num(a.calls as f64)),
                                ("total_ns", Json::Num(a.total_ns.round())),
                                ("children_ns", Json::Num(a.children_ns.round())),
                                ("children", Json::Num(a.children as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sample_every_root_spans", Json::Num(SAMPLE_EVERY as f64)),
            (
                "spans",
                Json::Arr(
                    self.raw
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", id(s.parent.map(|p| p as u64))),
                                ("io", id(s.io)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_the_recorder() {
        let mut r = Recorder::new(&["parent", "child"]);
        r.enter(0, None);
        r.enter(1, Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        let (p, c) = (r.aggregate(0), r.aggregate(1));
        assert_eq!((p.calls, c.calls, p.children, r.spans()), (1, 1, 1, 2));
        assert!(c.total_ns >= 2e6);
        assert!(p.total_ns >= c.total_ns && p.children_ns == c.total_ns);
        let free = SpanCosts::default();
        let parent = r.self_time(0, free).total_ns;
        assert!(parent < 1e6, "parent self {parent} includes the child");
        // The recorder's cost comes off: once per span, once per child.
        let costs = SpanCosts {
            empty_ns: 10.0,
            footprint_ns: 5.0,
        };
        assert_eq!(r.self_time(0, costs).total_ns, parent - 15.0);
        assert_eq!(
            r.self_time(1, costs).total_ns,
            r.self_time(1, free).total_ns - 10.0
        );
        // The first root span is sampled, with its child linked to it.
        assert_eq!(r.raw.len(), 2);
        assert_eq!((r.raw[1].parent, r.raw[1].io), (Some(0), Some(7)));
    }

    #[test]
    fn too_few_calls_are_refused() {
        let few = Timed {
            total_ns: 1e6,
            calls: MIN_TIMED_CALLS - 1,
        };
        assert!(few.ns().is_none());
        let enough = Timed {
            total_ns: 1e6,
            calls: MIN_TIMED_CALLS,
        };
        assert!(enough.ns().is_some());
    }
}
