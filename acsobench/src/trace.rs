//! In-memory spans for the traced run.
//!
//! The traced run wraps the benchmark's own calls into each layer's public
//! functions in spans (name, start, end, parent), keeps them in memory, and
//! writes them out when the run ends. Per-layer metrics are the median span
//! duration per name; counts and ratios are recorded as plain values next to
//! the spans that produced them.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit. Span
/// metrics are the median span duration in that unit; value metrics (`ratio`,
/// `count`) are the mean of the recorded values.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ics-sim.env_new_us", "us"),
    ("ics-sim.step_us", "us"),
    ("dbn.learn_s", "s"),
    ("dbn.validate_s", "s"),
    ("dbn.filter_update_us", "us"),
    ("acso-core.encode_us", "us"),
    ("acso-core.select_action_us", "us"),
    ("acso-core.update_ms", "ms"),
    ("rl.store_us", "us"),
    ("rl.sample_us", "us"),
    ("neural.bootstrap_forward_ms", "ms"),
    ("neural.train_forward_ms", "ms"),
    ("neural.backward_ms", "ms"),
    ("neural.adam_step_ms", "ms"),
    ("neural.q_forward_us", "us"),
    ("acso-core.decide_us.acso", "us"),
    ("acso-core.decide_us.dbn_expert", "us"),
    ("acso-core.decide_us.playbook", "us"),
    ("acso-core.decide_us.semi_random", "us"),
    ("acso-core.rollout_step_us", "us"),
    ("acso-core.lockstep_ms", "ms"),
    ("acso-core.fill_ratio", "ratio"),
    ("neural.q_forward_lanes_us", "us"),
    ("acso-serve.batch_requests", "count"),
    ("acso-serve.queue_wait_ms", "ms"),
    ("acso-serve.handle_ms", "ms"),
    ("acso-serve.json_parse_us", "us"),
    ("acso-serve.json_render_us", "us"),
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<u32>,
}

/// Span and value recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` record
    /// this one as their parent.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].dur_ns = start.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (for example on a worker thread,
    /// or across a channel hand-over), with no parent.
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            parent: None,
        });
    }

    /// Records one observation of a count or ratio metric.
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    /// Whether any span or value exists for `name`.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.spans.iter().any(|s| s.name == name)
    }

    /// Moves the spans and values of `other` (a probe run) into this tracer
    /// for every metric this tracer has not observed itself. Moved spans
    /// become roots.
    pub fn absorb_missing(&mut self, other: Tracer) {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.has(name))
            .collect();
        for span in other.spans {
            if missing.contains(&span.name) {
                self.spans.push(Span {
                    parent: None,
                    ..span
                });
            }
        }
        for (name, vals) in other.values {
            if missing.contains(&name) {
                self.values.entry(name).or_default().extend(vals);
            }
        }
    }

    /// The per-layer metrics in [`PER_LAYER`] order: `(name, value, unit)`.
    /// A metric with no observation reads `NaN`, which fails the run.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(vals) = self.values.get(name) {
                    vals.iter().sum::<f64>() / vals.len() as f64
                } else {
                    let durs: Vec<f64> = self
                        .spans
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.dur_ns as f64)
                        .collect();
                    let scale = match unit {
                        "us" => 1e-3,
                        "ms" => 1e-6,
                        _ => 1e-9,
                    };
                    stats::median(&durs) * scale
                };
                (name, value, unit)
            })
            .collect()
    }

    /// Span counts per name (reported on stderr so a reader can see how many
    /// samples stand behind each median).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.name).or_insert(0) += 1;
        }
        for (name, vals) in &self.values {
            *counts.entry(*name).or_insert(0) += vals.len();
        }
        counts
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.start_ns,
                s.start_ns + s.dur_ns
            )?;
        }
        for (name, vals) in &self.values {
            for v in vals {
                writeln!(out, "{{\"value\":\"{name}\",\"v\":{v}}}")?;
            }
        }
        out.flush()
    }
}
