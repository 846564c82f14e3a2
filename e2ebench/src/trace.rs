//! In-memory spans recorded by the benchmark around its own calls into
//! the layers' public functions. Nothing inside the program is
//! instrumented: a span is a wall-clock interval on the calling thread,
//! named `<layer>.<call>`, plus the counters the call already returns.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Counters a span carries: (name, value) pairs taken from the call's
/// own return value (`GlobalStats`, cache tallies, campaign reports, …).
pub type Counters = Vec<(&'static str, f64)>;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `global.solve_many`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall time of the call, children included.
    pub duration: Duration,
    /// Counters returned by the call.
    pub counters: Counters,
}

impl Span {
    /// The layer part of the name (before the first `.`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// The named counter, if the span carries it.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(key, _)| *key == name)
            .map(|&(_, v)| v)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`true`) or only runs the closures (`false`).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_counted(name, f, |_| Vec::new())
    }

    /// Runs `f` inside a span named `name`; `counters` reads the counters
    /// the span carries off the call's result.
    pub fn span_counted<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        counters: impl FnOnce(&R) -> Counters,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                duration: Duration::ZERO,
                counters: Vec::new(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].duration = duration;
        spans[index].counters = counters(&out);
        out
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self-time of every span: its duration minus its direct children's,
/// clamped at zero (timer granularity can make children sum past their
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut times: Vec<Duration> = spans.iter().map(|s| s.duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            times[parent] = times[parent].saturating_sub(span.duration);
        }
    }
    times
}

/// Summed self-time (ms) of each layer, in order of first appearance.
pub fn self_ms_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (span, time) in spans.iter().zip(self_times(spans)) {
        let ms = time.as_secs_f64() * 1e3;
        match layers.iter_mut().find(|(layer, _)| *layer == span.layer()) {
            Some((_, total)) => *total += ms,
            None => layers.push((span.layer(), ms)),
        }
    }
    layers
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration.as_secs_f64() * 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, ms: u64) -> Span {
        Span {
            name,
            parent,
            duration: Duration::from_millis(ms),
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("bench.unit", None, 100),
            span("campaign.parse", Some(0), 10),
            span("campaign.run", Some(0), 60),
            span("global.solve", Some(2), 45),
        ];
        let times = self_times(&spans);
        assert_eq!(times[0], Duration::from_millis(30));
        assert_eq!(times[1], Duration::from_millis(10));
        assert_eq!(times[2], Duration::from_millis(15));
        assert_eq!(times[3], Duration::from_millis(45));
        let total: Duration = times.iter().sum();
        assert_eq!(total, spans[0].duration);
        let by_layer = self_ms_by_layer(&spans);
        let expected = [("bench", 30.0), ("campaign", 25.0), ("global", 45.0)];
        assert_eq!(by_layer.len(), expected.len());
        for ((layer, ms), (want_layer, want_ms)) in by_layer.iter().zip(expected) {
            assert_eq!(*layer, want_layer);
            assert!((ms - want_ms).abs() < 1e-9, "{layer}: {ms} ms");
        }
    }

    #[test]
    fn self_time_is_never_negative() {
        let spans = [
            span("bench.unit", None, 5),
            span("global.solve", Some(0), 4),
            span("reconstruct.sample", Some(0), 3),
        ];
        assert_eq!(self_times(&spans)[0], Duration::ZERO);
    }

    #[test]
    fn tracer_records_nesting_and_counters() {
        let tracer = Tracer::new(true);
        let out = tracer.span("bench.unit", || {
            tracer.span_counted("global.solve", || 41 + 1, |&v| vec![("value", v as f64)])
        });
        assert_eq!(out, 42);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "global");
        assert_eq!(spans[1].counter("value"), Some(42.0));
        assert!(spans[0].duration >= spans[1].duration);

        let off = Tracer::new(false);
        assert_eq!(off.span("bench.unit", || 7), 7);
        assert!(off.take().is_empty());
    }
}
