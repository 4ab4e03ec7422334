//! Tracing for the per-layer run: in-memory spans recorded around the
//! benchmark's calls into each layer, the deltas of the counters
//! `fpsping_obs` keeps, and a helper that times a public call from
//! outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.call`, or a benchmark phase).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder. When off, [`Tracer::span`] runs its closure and
/// records nothing, so the end-to-end run pays no tracing cost.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested under the innermost open span.
    /// Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Times `calls` invocations of `f` per span, `spans` times, and
    /// returns the median time of one call in nanoseconds. Each result
    /// goes through `black_box`, so the optimizer cannot drop the work.
    pub fn time_calls<R>(
        &mut self,
        name: &'static str,
        spans: usize,
        calls: usize,
        mut f: impl FnMut(usize) -> R,
    ) -> f64 {
        let mut per_call = Vec::with_capacity(spans);
        for s in 0..spans {
            let start = Instant::now();
            self.span(name, |_| {
                for c in 0..calls {
                    black_box(f(s * calls + c));
                }
            });
            per_call.push(start.elapsed().as_nanos() as f64 / calls.max(1) as f64);
        }
        crate::stats::median(&per_call).unwrap_or(0.0)
    }

    /// Writes every span as JSON (`name`, `start_ns`, `end_ns`,
    /// `parent`) plus the run's header fields.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        header: &[(&str, String)],
    ) -> std::io::Result<()> {
        let mut s = String::from("{");
        for (k, v) in header {
            let _ = write!(s, "\"{k}\": {v}, ");
        }
        s.push_str("\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// A copy of every `fpsping_obs` counter and histogram sum (same-named
/// ones summed).
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Reads the registry now; a histogram contributes its sum as
    /// `<name>.sum`.
    pub fn now() -> Self {
        let snap = fpsping_obs::snapshot();
        let mut m = BTreeMap::new();
        for (name, v) in snap.counters {
            *m.entry(name).or_insert(0) += v;
        }
        for h in snap.histograms {
            *m.entry(format!("{}.sum", h.name)).or_insert(0) += h.sum;
        }
        Self(m)
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get_u64(k))))
                .collect(),
        )
    }

    /// Adds another delta into this one.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    fn get_u64(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// A counter's value as `f64` (0 when never registered).
    pub fn get(&self, name: &str) -> f64 {
        self.get_u64(name) as f64
    }

    /// Sum of several counters.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let off = {
            let mut t = Tracer::new(false);
            t.span("x", |_| 7)
        };
        assert_eq!(off, 7);
    }

    #[test]
    fn counter_deltas_follow_the_registry() {
        static PROBE: fpsping_obs::Counter = fpsping_obs::Counter::new("perfbench.test.probe");
        PROBE.add(1);
        let before = Counters::now();
        PROBE.add(41);
        let d = Counters::now().since(&before);
        assert_eq!(d.get("perfbench.test.probe"), 41.0);
        assert_eq!(d.get("no.such.counter"), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    /// The timing helper must keep the work it times: 100× the work per
    /// call must take clearly longer per call.
    #[test]
    fn measured_time_grows_with_iteration_count() {
        fn spin(iters: u64) -> u64 {
            let mut acc = 0u64;
            for i in 0..iters {
                acc = black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            acc
        }
        let mut t = Tracer::new(false);
        let small = t.time_calls("small", 5, 10, |_| spin(1_000));
        let large = t.time_calls("large", 5, 10, |_| spin(100_000));
        assert!(
            large > 10.0 * small,
            "100x the work: {large} ns vs {small} ns"
        );
    }
}
