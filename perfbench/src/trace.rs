//! The traced run's plumbing: server span collection, span self times,
//! and `Stats` scrapes.
//!
//! Spans are the stage spans `ledgerd` already records; the benchmark
//! fetches them through the public `GetTrace` request on a connection
//! of its own, keeps them in memory, and writes them out at the end.

use ledgerdb_server::{RemoteLedger, SpanRecord};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One traced client operation joined with the server's span tree of
/// its last request.
#[derive(Clone, Debug)]
pub struct OpTrace {
    pub kind: &'static str,
    /// Client-observed latency of the whole operation.
    pub client_ns: u64,
    pub spans: Vec<SpanRecord>,
}

impl OpTrace {
    /// The server's root span for this op: the newest span without a
    /// parent. (Trace ids are minted per process, so an older tree, such
    /// as the server's own recovery trace, can share the id.)
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == 0)
            .max_by_key(|s| s.start_ns)
    }

    /// Stage spans inside the root's interval.
    fn stages(&self) -> Vec<&SpanRecord> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.parent != 0 && s.start_ns >= root.start_ns && s.end_ns <= root.end_ns)
            .collect()
    }

    /// Self time of every stage span: its duration minus the union of
    /// the stage spans nested in its interval. Stages nest by time (the
    /// server parents them all to the root), so nesting is read from
    /// the intervals, not the parent links.
    pub fn stage_self_ns(&self) -> Vec<(&str, u64)> {
        let stages = self.stages();
        stages
            .iter()
            .map(|s| {
                let inner = stages
                    .iter()
                    .filter(|c| {
                        c.span != s.span && c.start_ns >= s.start_ns && c.end_ns <= s.end_ns
                    })
                    .filter(|c| (c.start_ns, c.end_ns) != (s.start_ns, s.end_ns) || c.span > s.span)
                    .map(|c| (c.start_ns, c.end_ns));
                (
                    s.name.as_str(),
                    (s.end_ns - s.start_ns).saturating_sub(union_ns(inner)),
                )
            })
            .collect()
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0;
    for (a, b) in v {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// A traced op waiting for its spans: kind, client latency, trace id.
type Pending = (&'static str, u64, u64);

/// What a collector hands back: the joined traces, how many ops' spans
/// had already aged out of the server's flight recorder, and the
/// highest pool queue depth sampled.
pub type Collected = (Vec<OpTrace>, u64, f64);

/// Fetches span trees for traced ops on its own connection while the
/// load runs, and samples the server's queue-depth gauges.
pub struct Collector {
    tx: Option<Sender<Pending>>,
    handle: Option<JoinHandle<Result<Collected, String>>>,
}

impl Collector {
    pub fn start(addr: SocketAddr) -> Result<Collector, String> {
        let mut remote = RemoteLedger::connect(addr).map_err(|e| format!("collector: {e}"))?;
        let (tx, rx): (Sender<Pending>, Receiver<Pending>) = channel();
        let handle = std::thread::spawn(move || {
            let mut traces = Vec::new();
            let mut missing = 0u64;
            let mut depth_max = 0f64;
            for (i, (kind, client_ns, id)) in rx.iter().enumerate() {
                let spans = remote.get_trace(id).map_err(|e| format!("GetTrace: {e}"))?;
                if spans.iter().all(|s| s.parent != 0) {
                    missing += 1;
                } else {
                    traces.push(OpTrace {
                        kind,
                        client_ns,
                        spans,
                    });
                }
                if i % 64 == 0 {
                    let text = remote.stats().map_err(|e| format!("Stats: {e}"))?;
                    depth_max = depth_max.max(stat(&text, "ledger_pool_queue_depth"));
                }
            }
            Ok((traces, missing, depth_max))
        });
        Ok(Collector {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    pub fn sender(&self) -> Sender<Pending> {
        self.tx.clone().expect("collector is running")
    }

    /// Stop after every queued op is fetched.
    pub fn finish(mut self) -> Result<Collected, String> {
        drop(self.tx.take());
        self.handle
            .take()
            .expect("finish runs once")
            .join()
            .map_err(|_| "collector panicked".to_string())?
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One metric value from a `Stats` exposition (0 when absent).
pub fn stat(text: &str, name: &str) -> f64 {
    ledgerdb_telemetry::parse_value(text, name).unwrap_or(0.0)
}

/// Per-metric differences between two `Stats` scrapes, summed over
/// every window the benchmark measured.
#[derive(Default, Debug)]
pub struct StatsDelta(BTreeMap<String, f64>);

impl StatsDelta {
    pub fn add_window(&mut self, before: &str, after: &str) {
        for line in after.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if name.contains("quantile=") || name.contains("le=") {
                    continue;
                }
                let v: f64 = value.trim().parse().unwrap_or(0.0);
                *self.0.entry(name.to_string()).or_default() += v - stat(before, name);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of a histogram over the windows (`_sum` / `_count`).
    pub fn hist_mean(&self, base: &str) -> f64 {
        let count = self.get(&format!("{base}_count"));
        if count > 0.0 {
            self.get(&format!("{base}_sum")) / count
        } else {
            0.0
        }
    }
}

/// Write every traced op as one JSON line.
pub fn write_spans(path: &std::path::Path, traces: &[OpTrace]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        write!(
            out,
            "{{\"op\":\"{}\",\"client_ns\":{},\"spans\":[",
            t.kind, t.client_ns
        )?;
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
    }
    out.flush()
}
