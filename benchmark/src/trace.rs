//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer.
//!
//! A span is `{name, start, end, parent, round}`; the tracer keeps them in
//! a vector and writes them out once, when the benchmark ends. A layer's
//! *self time* is its spans' duration minus the part their child spans
//! cover. With the tracer off, [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`insitu.store.put`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Round the span belongs to (the request identifier of this harness).
    pub round: usize,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Sets the round later spans are tagged with.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a child of the current span whose duration was measured
    /// elsewhere (a self-timed callback, or a share derived from a shadow
    /// call); it is placed at the current instant, ending `dur` later.
    pub fn add(&mut self, name: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: self.stack.last().copied(),
            round: self.round,
        });
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per round, the summed duration in seconds of the spans named
    /// `name` (rounds without one are absent).
    pub fn per_round(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.round).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        }
        out
    }

    /// Per span name, total self time in seconds: duration minus the
    /// duration of direct children (clamped at zero — an [`Tracer::add`]ed
    /// child can outlast a parent it was only attributed to).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Σ direct-child durations / duration, over all spans named `name` —
    /// how much of that phase's wall the layers below it account for.
    pub fn coverage(&self, name: &str) -> f64 {
        let (mut wall, mut covered) = (0u64, 0u64);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            wall += s.dur_ns();
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::dur_ns)
                .sum::<u64>();
        }
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Writes the spans and the self-time roll-up as JSON.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
        writeln!(f, " \"self_time_s\": {{")?;
        let selfs = self.self_times();
        for (i, (name, s)) in selfs.iter().enumerate() {
            let comma = if i + 1 < selfs.len() { "," } else { "" };
            writeln!(f, "  \"{name}\": {s:.9}{comma}")?;
        }
        writeln!(f, " }},\n \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"round\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        writeln!(f, " ]\n}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on();
        t.set_round(3);
        t.span("phase", |t| {
            busy(300);
            t.span("layer.a", |_| busy(500));
            t.span("layer.b", |t| {
                busy(200);
                t.add("layer.c", Duration::from_micros(100));
            });
        });
        let s = t.self_times();
        assert!(s["layer.a"] >= 500e-6);
        assert!(s["phase"] >= 300e-6 && s["phase"] < s["layer.a"] + 300e-6);
        assert!((s["layer.c"] - 100e-6).abs() < 1e-9);
        assert!(s["layer.b"] >= 100e-6);
        let cov = t.coverage("phase");
        assert!(cov > 0.5 && cov < 1.0, "{cov}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(
            t.per_round("layer.a").keys().copied().collect::<Vec<_>>(),
            [3]
        );
    }

    #[test]
    fn an_off_tracer_records_nothing_and_still_runs_the_work() {
        let mut t = Tracer::off();
        let v = t.span("x", |t| t.span("y", |_| 7));
        t.add("z", Duration::from_secs(1));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_is_json_with_every_span() {
        let mut t = Tracer::on();
        t.span("a", |t| t.span("b", |_| ()));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("w.trace.json");
        t.write_json(&path, "w", 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = ibis_insitu::json::parse(&text).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }
}
