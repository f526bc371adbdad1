//! In-memory span tracer wrapped around the benchmark's calls into the
//! workspace crates.
//!
//! Every span is keyed by the per-layer metric it feeds (for example
//! `backend.compile_s.o1`); the key's first segment names the crate.
//! Spans are kept in memory and summarised when the round ends.  A
//! disabled tracer reads no clock: the closure is simply called, so the
//! untraced rounds that give the end-to-end metrics carry no probes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    key: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

/// A span recorder for one round (or one set-up batch).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
}

/// What one traced round spent, per span key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Self time per key: each span's duration minus its children's.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Whole duration per key, children included.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Time covered by top-level spans.
    pub covered_s: f64,
    /// False when a span's children outlast it, top-level spans
    /// overlap, or a span is still open — the self times would then
    /// not add up to the covered time.
    pub well_formed: bool,
}

impl Summary {
    /// Every time multiplied by `k`: with `k = 1/n`, the mean of one of
    /// `n` passes recorded on the same tracer.
    pub fn scaled(mut self, k: f64) -> Summary {
        for v in self.self_s.values_mut().chain(self.total_s.values_mut()) {
            *v *= k;
        }
        self.covered_s *= k;
        self
    }
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `key`.
    pub fn span<R>(&self, key: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            let start = self.now();
            inner.spans.push(Span {
                key,
                start,
                end: start,
                parent,
            });
            inner.open.push(id);
            id
        };
        let r = f();
        let end = self.now();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        inner.spans[id].end = end;
        inner.last_closed = Some(id);
        r
    }

    /// Books `nanos` of the most recently closed span as a child named
    /// `key`.  This splits a call that spans several layers by the
    /// timings the call itself returns (for example the campaign wall
    /// time inside `evaluate_workload`).
    pub fn split_last(&self, key: &'static str, nanos: u64) {
        if !self.on {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let Some(parent) = inner.last_closed else {
            return;
        };
        let start = inner.spans[parent].start;
        inner.spans.push(Span {
            key,
            start,
            end: start.saturating_add(nanos),
            parent: Some(parent),
        });
    }

    /// Summarises the recorded spans.
    pub fn summary(&self) -> Summary {
        let inner = self.inner.borrow();
        let mut s = Summary {
            well_formed: inner.open.is_empty(),
            ..Summary::default()
        };
        let mut child_ns = vec![0i128; inner.spans.len()];
        for sp in &inner.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += i128::from(sp.end - sp.start);
            }
        }
        let mut last_top_end = 0u64;
        let mut covered_ns = 0i128;
        for (i, sp) in inner.spans.iter().enumerate() {
            let dur = i128::from(sp.end - sp.start);
            let own = dur - child_ns[i];
            if own < 0 {
                s.well_formed = false;
            }
            *s.self_s.entry(sp.key).or_default() += own as f64 / 1e9;
            *s.total_s.entry(sp.key).or_default() += dur as f64 / 1e9;
            if sp.parent.is_none() {
                // Top-level spans are recorded in start order.
                if sp.start < last_top_end {
                    s.well_formed = false;
                }
                last_top_end = sp.end;
                covered_ns += dur;
            }
        }
        s.covered_s = covered_ns as f64 / 1e9;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_times_add_up_to_the_covered_time() {
        let tr = Tracer::new(true);
        tr.span("core.a", || {
            spin(200);
            tr.span("backend.b", || spin(300));
            tr.span("cpu.c", || spin(100));
        });
        tr.span("cpu.c", || spin(50));
        tr.split_last("faultsim.d", 10_000);
        let s = tr.summary();
        assert!(s.well_formed);
        let sum: f64 = s.self_s.values().sum();
        assert!((sum - s.covered_s).abs() < 1e-9, "{sum} vs {}", s.covered_s);
        assert!(s.total_s["core.a"] >= s.self_s["core.a"] + s.self_s["backend.b"]);
    }

    #[test]
    fn an_oversized_split_is_flagged() {
        let tr = Tracer::new(true);
        tr.span("core.a", || spin(10));
        tr.split_last("faultsim.d", 1_000_000_000);
        assert!(!tr.summary().well_formed);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("core.a", || 7), 7);
        tr.split_last("faultsim.d", 5);
        let s = tr.summary();
        assert!(s.self_s.is_empty() && s.covered_s == 0.0 && s.well_formed);
    }
}
