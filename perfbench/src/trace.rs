//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory, and written out as JSON when the run ends. A span has a
//! name, a start and an end (seconds since the recorder was created), the
//! span that caused it, and the id of the operation it belongs to (a shard
//! pass, a sweep pass, a submission). Worker threads record into the same
//! recorder, so a parent can have children running in parallel.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer boundary the span covers, e.g. `sim.simulate`.
    pub name: String,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created (NaN while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl SpanRecord {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory, thread-safe span store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().expect("a span recorder thread panicked")
    }

    /// Opens a span that closes when the returned guard drops.
    pub fn open(&self, name: &str, parent: Option<SpanId>, op: u64) -> Span<'_> {
        let start = self.secs(Instant::now());
        let mut spans = self.lock();
        spans.push(SpanRecord {
            name: name.to_string(),
            start,
            end: f64::NAN,
            parent,
            op,
        });
        Span {
            rec: self,
            id: spans.len() - 1,
        }
    }

    /// Records a span whose bounds were taken elsewhere (e.g. protocol
    /// timestamps).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let record = SpanRecord {
            name: name.to_string(),
            start: self.secs(start),
            end: self.secs(end),
            parent,
            op,
        };
        let mut spans = self.lock();
        spans.push(record);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    /// Every span as a JSON array of `{name, start, end, parent, op, self}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let own = self_times(&spans);
        let items: Vec<serde::Value> = spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                let mut t = serde::Value::table();
                t.insert("name", &s.name)
                    .insert("start", &s.start)
                    .insert("end", &s.end)
                    .insert("parent", &s.parent.map(|p| p as u64))
                    .insert("op", &s.op)
                    .insert("self", &own);
                t
            })
            .collect();
        serde_json::to_string(&serde::Value::Array(items)).expect("spans always serialize")
    }
}

/// Guard of an open span; records the end time when dropped.
pub struct Span<'a> {
    rec: &'a Recorder,
    id: SpanId,
}

impl Span<'_> {
    /// This span's id, for use as a parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.rec.secs(Instant::now());
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[self.id].end = end;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
}

/// Totals per span name.
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<String, LayerTotals> {
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += s.duration();
    }
    out
}

/// Summed duration of the spans without a parent.
pub fn top_level_s(spans: &[SpanRecord]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRecord::duration)
        .sum()
}
