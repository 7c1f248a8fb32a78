//! In-memory span recording for the traced run. The benchmark wraps a
//! span round each call it makes into the program; nothing inside the
//! program is instrumented. Spans nest through an explicit stack, a
//! layer's *self time* is its spans' durations minus the part their child
//! spans cover, and everything is written out as JSON lines when the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The workspace crate a span's call belongs to. `Bench` is the
/// benchmark's own code: its self time is the unattributed share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Jpeg,
    Core,
    Storage,
    Loader,
    Autotune,
    Metrics,
    Nn,
    Datasets,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Jpeg => "jpeg",
            Layer::Core => "core",
            Layer::Storage => "storage",
            Layer::Loader => "loader",
            Layer::Autotune => "autotune",
            Layer::Metrics => "metrics",
            Layer::Nn => "nn",
            Layer::Datasets => "datasets",
        }
    }
}

/// `record` value of spans that belong to no record.
pub const NO_RECORD: u32 = u32::MAX;

/// One timed call. `id` is 1-based; `parent` 0 means a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub round: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub record: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; 0 when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span recorder. A disabled tracer takes no timestamps and stores
/// nothing, so the same benchmark loop runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(false)
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: Layer, name: &'static str, record: u32) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            round: self.round,
            layer,
            name,
            record,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        if span.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize - 1].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        record: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(layer, name, record);
        let r = f();
        self.end(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Total duration and call count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.nanos(), n + 1))
    }

    /// Durations of the spans called `name`, in seconds, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 * 1e-9)
            .collect()
    }

    /// Self time per layer over the descendants of every span called
    /// `root_name` (the root spans themselves included).
    pub fn layer_self_under(&self, root_name: &str) -> Vec<(Layer, u64)> {
        let own = self.self_nanos();
        let mut inside = vec![false; self.spans.len()];
        let mut totals: Vec<(Layer, u64)> = Vec::new();
        // Spans are stored in start order, so a parent precedes its children.
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == root_name || (s.parent != 0 && inside[s.parent as usize - 1]);
            if inside[i] {
                match totals.iter_mut().find(|(l, _)| *l == s.layer) {
                    Some((_, ns)) => *ns += own[i],
                    None => totals.push((s.layer, own[i])),
                }
            }
        }
        totals
    }

    /// Cost of one empty span in nanoseconds, measured on a scratch tracer.
    pub fn timer_cost_ns() -> f64 {
        const N: u32 = 20_000;
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..N {
            let s = t.begin(Layer::Bench, "bench.empty", NO_RECORD);
            t.end(s);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(t.spans.len());
        ns / f64::from(N)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let record = if s.record == NO_RECORD {
                "null".to_string()
            } else {
                s.record.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"round\":{},\"layer\":\"{}\",\"name\":\"{}\",\"record\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.round,
                s.layer.name(),
                s.name,
                record,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_sum_to_root() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Bench, "bench.pass", NO_RECORD);
        let a = t.begin(Layer::Core, "core.parse", 0);
        let b = t.begin(Layer::Jpeg, "jpeg.decode", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(a);
        t.end(root);
        let own = t.self_nanos();
        assert_eq!(own[1], t.spans()[1].nanos() - t.spans()[2].nanos());
        let by_layer = t.layer_self_under("bench.pass");
        let sum: u64 = by_layer.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            sum,
            t.spans()[0].nanos(),
            "layer self times partition the root span"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.begin(Layer::Core, "core.parse", 0);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
