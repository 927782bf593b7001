//! In-memory spans for the traced run, written out when it ends.
//!
//! A span records a name, the layer it times, start, end and parent.
//! Work too fine-grained for one span per call (simulation callbacks,
//! millions per run) is recorded as one aggregate span per enclosing
//! span: it covers the parent's interval and carries the summed busy
//! time and the call count. A span's self time is its busy time minus
//! its children's.

use std::io::Write;
use std::time::Instant;

/// The program's layers that spans time, named after its crates
/// (fleet-wire's codec is timed directly, outside any span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Ecosystem,
    Fleet,
    Engine,
    Devices,
    Simnet,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Ecosystem,
        Layer::Fleet,
        Layer::Engine,
        Layer::Devices,
        Layer::Simnet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ecosystem => "ecosystem",
            Layer::Fleet => "fleet",
            Layer::Engine => "engine",
            Layer::Devices => "devices",
            Layer::Simnet => "simnet",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time actually spent in the span's calls: `end - start` for a
    /// plain span, the summed call time for an aggregate.
    pub busy_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, layer: Layer) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - s.start_ns;
        s.busy_ns
    }

    /// Time `f` as a span; returns its result.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, layer);
        let r = f();
        self.exit(id);
        r
    }

    /// Record `calls` calls totalling `busy_ns` inside the closed span
    /// `parent` as one aggregate child.
    pub fn aggregate(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: Layer,
        busy_ns: u64,
        calls: u64,
    ) {
        if calls == 0 {
            return;
        }
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name,
            layer,
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
    }

    /// Self time of every span: busy time minus the children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.busy_ns as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.busy_ns as i128;
            }
        }
        own.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// Summed self time per layer over the subtrees of the spans `root`
    /// selects.
    pub fn layer_self_ns(&self, root: impl Fn(&Span) -> bool) -> Vec<(Layer, u64)> {
        let own = self.self_ns();
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = root(s) || s.parent.is_some_and(|p| inside[p]);
        }
        Layer::ALL
            .iter()
            .map(|&l| {
                let ns = self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| inside[*i] && s.layer == l)
                    .map(|(i, _)| own[i])
                    .sum();
                (l, ns)
            })
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"calls\": {}}}",
                s.name,
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
