//! Span buffer of the traced pass. Spans are recorded around the calls
//! this package makes into each layer, kept in memory, and written as a
//! Chrome trace-event file after timing ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. `parent` is the id of the span that caused it
/// (0 for a root); every tree build and every request has its own id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_us: f64,
    pub dur_us: f64,
    /// Work done inside the span (updates, rows, records, bytes).
    pub work: u64,
}

/// Per-phase cap on request spans, so the trace file stays small while
/// latency statistics still cover every request.
pub const REQUEST_SPAN_CAP: usize = 4_000;

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve an id before the span ends, so children can name it.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        work: u64,
    ) {
        let span = Span {
            name,
            id,
            parent,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            work,
        };
        self.spans.lock().expect("span buffer lock poisoned").push(span);
    }

    /// Time `f` as a root-level phase span and return its id with the result.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let id = self.alloc_id();
        let t0 = Instant::now();
        let r = f(id);
        self.record(name, id, 0, t0, Instant::now(), 0);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock poisoned").len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, one track per layer (the part of the name before the
    /// last dot), ids in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut tracks: Vec<&str> = Vec::new();
        let mut out = String::with_capacity(spans.len() * 140 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let track = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            let tid = match tracks.iter().position(|t| *t == track) {
                Some(p) => p,
                None => {
                    tracks.push(track);
                    tracks.len() - 1
                }
            };
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"work\":{}}}}}{sep}",
                s.name, track, s.start_us, s.dur_us, tid + 1, s.id, s.parent, s.work
            );
        }
        out.push_str("]}\n");
        out
    }
}
