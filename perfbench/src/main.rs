//! `perfbench` — one run of one workload against a `ledgerd` subprocess.
//!
//! ```text
//! perfbench --workload ingest|audit_read|mixed --seed N --seconds S \
//!           --trace 0|1 --mixed-rate R --ledgerd PATH --work DIR [--rev REV]
//! ```
//!
//! Every run: set up `ledgerd` several times (median = `setup_s`), run
//! the workload's load, SIGKILL and respawn `ledgerd` several times
//! (median = `restart_s`), replay the whole block feed with fresh
//! distrusting clients (`audit_jps`), then re-prove every acked append
//! from a fresh client and check its payload. `ingest` and `mixed` do
//! all of it in rounds spread over the run and report medians over
//! them. Any failure fails the run. The last stdout line is the result object; the line before it
//! is the full stamped record. See `perfbench/README.md`.

use ledgerdb_accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb_clue::cm_tree::ClueProof;
use ledgerdb_core::{LedgerClient, StateProof, TxRequest};
use ledgerdb_crypto::digest::{hash_pair, Digest};
use ledgerdb_crypto::sha256::sha256;
use ledgerdb_crypto::wire::Wire;
use ledgerdb_server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use ledgerdb_server::{RemoteError, RemoteLedger, Request, Response};
use perfbench::check;
use perfbench::daemon::{dir_bytes, ledgerd_flags, Daemon};
use perfbench::gen::{self, ReadKind, Rng, Zipf, BATCH_PROOFS, PAYLOAD_BYTES};
use perfbench::stats::{median, Summary};
use perfbench::trace::{stat, write_spans, Collector, OpTrace, StatsDelta};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Client connections driving load: at most the core count.
const CONNECTIONS: usize = 2;
/// `audit_read` history: one fam epoch (2^15 at ledgerd's δ=15) plus
/// 1 024, so proofs take the anchored cross-epoch path.
const AUDIT_HISTORY: usize = (1 << 15) + 1024;
/// Single-`Append` tail `audit_read` writes after its batched history.
const AUDIT_TAIL: usize = 4096;
/// History `mixed` starts from.
const MIXED_HISTORY: usize = 2048;
/// Requests per `AppendBatch` frame during population.
const POPULATE_BATCH: usize = 256;
/// Single `Append`s per `ingest` round, split over the connections.
/// Every round sends the same requests into a fresh, empty `ledgerd`.
const INGEST_ROUND: usize = 2048;
/// Fewest rounds per timed phase, however long each takes.
const MIN_ROUNDS: usize = 3;
/// Fresh-client replays of the whole feed per `ingest` or `mixed` round.
const ROUND_AUDITS: usize = 6;
/// Longest one `ingest` round may run before it is cut short.
const ROUND_CAP_SECS: f64 = 60.0;
/// Target length of one `mixed` round's load, seconds.
const MIXED_ROUND_S: f64 = 3.0;
/// Journals in the WAL tail every restart replays after loading the
/// newest checkpoint.
const RESTART_TAIL: usize = 256;
/// Sealed blocks that always reach a checkpoint (`ledgerd` writes one
/// every 64 seals).
const MAX_SEALS_TO_CHECKPOINT: usize = 80;
/// Fresh-client replays of the whole feed per `audit_read` run.
const AUDITS: usize = 40;
/// Shortest read window of a traced `ingest` run's extra check pass:
/// after every ack is checked, it re-reads Zipf-chosen journals until
/// this many seconds have passed.
const CHECK_READ_SECS: f64 = 4.0;
/// Zipf-chosen clue proofs the check pass adds to its journal checks.
const CHECK_CLUE_READS: usize = 16;
/// Ops per chunk of the chunked p99 (see `Phase::chunked_p99`).
const P99_CHUNK: usize = 1000;
/// Proofs captured per kind for the leaf-layer timings.
const CAPTURE_MAX: usize = 256;
/// Mean distance back from the newest ack of a `mixed` read.
const RECENT_MEAN: f64 = 16.0;
/// Times a `mixed` read may sync and re-request a proof the server
/// built against a block the client had not yet verified.
const MAX_RESYNCS: u32 = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Ingest,
    AuditRead,
    Mixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "audit_read" => Some(Workload::AuditRead),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::AuditRead => "audit_read",
            Workload::Mixed => "mixed",
        }
    }

    /// Set-ups before the load; `ingest` and `mixed` add one per round.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Ingest => 3,
            Workload::AuditRead => 3,
            Workload::Mixed => 1,
        }
    }

    /// SIGKILL/respawn cycles per run; per round on `ingest` and `mixed`.
    fn restarts(self) -> usize {
        match self {
            Workload::Ingest => 3,
            Workload::Mixed => 4,
            Workload::AuditRead => 9,
        }
    }

    fn history(self) -> usize {
        match self {
            Workload::Ingest => 0,
            Workload::AuditRead => AUDIT_HISTORY,
            Workload::Mixed => MIXED_HISTORY,
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ledgerd: PathBuf,
    work: PathBuf,
    /// `mixed` writer rate, appends/s.
    mixed_rate: f64,
    rev: String,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut m = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        m.insert(flag, value);
    }
    let get = |k: &str| m.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse().map_err(|_| format!("{k} must be a number"))
    };
    let workload = get("--workload")?;
    Ok(Opts {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?,
        seconds: num("--seconds")?,
        trace: get("--trace")? == "1",
        ledgerd: get("--ledgerd")?.into(),
        work: get("--work")?.into(),
        mixed_rate: if m.contains_key("--mixed-rate") {
            num("--mixed-rate")?
        } else {
            0.0
        },
        rev: m.get("--rev").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

/// What was sent, by jsn, and the tx hash each append was acked with.
#[derive(Default)]
struct History {
    sent: Vec<TxRequest>,
    by_jsn: Vec<usize>,
    acked_tx: Vec<Option<Digest>>,
}

impl History {
    fn len(&self) -> u64 {
        self.by_jsn.len() as u64
    }

    fn request(&self, jsn: u64) -> &TxRequest {
        &self.sent[self.by_jsn[jsn as usize]]
    }

    /// Record an ack of `sent[index]` at `jsn`.
    fn ack(&mut self, jsn: u64, tx: Digest, index: usize) -> Result<(), String> {
        let j = jsn as usize;
        if j >= self.by_jsn.len() {
            self.by_jsn.resize(j + 1, usize::MAX);
            self.acked_tx.resize(j + 1, None);
        }
        if self.acked_tx[j].is_some() {
            return Err(format!("jsn {jsn} acked twice"));
        }
        self.by_jsn[j] = index;
        self.acked_tx[j] = Some(tx);
        Ok(())
    }

    /// Every jsn below the newest ack was acked (no holes).
    fn check_dense(&self) -> Result<(), String> {
        match self.acked_tx.iter().position(Option::is_none) {
            Some(j) => Err(format!("jsn {j} was never acked")),
            None => Ok(()),
        }
    }
}

/// Inputs captured from the workload's own traffic for leaf timings.
/// Each proof is kept with the trusted root it was verified against.
#[derive(Default)]
struct Capture {
    fam: Vec<(Digest, TrustedAnchor, Digest, FamProof)>,
    clue: Vec<(Digest, ClueProof)>,
    state: Vec<(Digest, StateProof)>,
}

impl Capture {
    fn merge(&mut self, other: Capture) {
        self.fam.extend(other.fam);
        self.fam.truncate(CAPTURE_MAX);
        self.clue.extend(other.clue);
        self.clue.truncate(CAPTURE_MAX);
        self.state.extend(other.state);
        self.state.truncate(CAPTURE_MAX);
    }
}

/// (jsn, acked tx hash, index into `History::sent`) per acked append.
type Acks = Vec<(u64, Digest, usize)>;

/// One client thread's results.
#[derive(Default)]
struct Lane {
    /// Per-op latency, ms.
    lat_ms: Vec<f64>,
    /// When each op in `lat_ms` completed.
    done: Vec<Instant>,
    /// Open loop: send time minus due time; closed loop: time from the
    /// previous op's completion to this op's send. ms.
    gap_ms: Vec<f64>,
    /// (jsn, acked tx hash, index into `History::sent`).
    acks: Acks,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    capture: Capture,
    resyncs: u64,
}

impl Lane {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Merged results of a load phase.
#[derive(Default)]
struct Phase {
    lat_ms: Vec<f64>,
    done: Vec<Instant>,
    gap_ms: Vec<f64>,
    resyncs: u64,
    elapsed_s: f64,
}

impl Phase {
    fn tps(&self) -> f64 {
        self.lat_ms.len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Concatenate phases run one after another.
    fn concat(phases: Vec<Phase>) -> Phase {
        let mut all = Phase::default();
        for p in phases {
            all.lat_ms.extend(p.lat_ms);
            all.done.extend(p.done);
            all.gap_ms.extend(p.gap_ms);
            all.resyncs += p.resyncs;
            all.elapsed_s += p.elapsed_s;
        }
        all
    }

    /// Tail latency robust to a rare stall: the samples, in completion
    /// order, are cut into consecutive chunks of at least
    /// [`P99_CHUNK`] ops (at most ten chunks), and the median of the
    /// chunks' p99s is reported. Each chunk p99 has at least ten samples
    /// beyond it. The whole-run p99 stays in the record.
    fn chunked_p99(&self) -> f64 {
        let mut by_time: Vec<(Instant, f64)> = self
            .done
            .iter()
            .copied()
            .zip(self.lat_ms.iter().copied())
            .collect();
        by_time.sort_by_key(|(t, _)| *t);
        let chunks = (by_time.len() / P99_CHUNK).clamp(1, 10);
        let size = by_time.len().div_ceil(chunks).max(1);
        let p99s: Vec<f64> = by_time
            .chunks(size)
            .map(|c| Summary::of(&c.iter().map(|(_, l)| *l).collect::<Vec<_>>()).p99)
            .collect();
        if p99s.is_empty() {
            0.0
        } else {
            median(&p99s)
        }
    }
}

struct Bench {
    opts: Opts,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    hist: History,
    capture: Capture,
    e2e: BTreeMap<&'static str, (f64, &'static str)>,
    layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// Extra record fields (already JSON-encoded values).
    record: BTreeMap<String, String>,
    peak_rss_kib: u64,
    /// Journals/s of every whole-feed replay (see [`audit`]).
    audit_rates: Vec<f64>,
    /// Client ECDSA verifications per block during a replay.
    ecdsa_per_block: f64,
    /// Wall time per step of the run, for the record.
    laps: Vec<(&'static str, f64)>,
    lap_start: Instant,
}

impl Bench {
    fn lap(&mut self, step: &'static str) {
        let now = Instant::now();
        self.laps.push((step, (now - self.lap_start).as_secs_f64()));
        self.lap_start = now;
    }

    fn absorb(&mut self, lanes: Vec<Lane>, phase: &mut Phase) -> Result<(), String> {
        for lane in lanes {
            self.attempted += lane.attempted;
            self.failed += lane.failed;
            self.errors.extend(lane.errors);
            phase.lat_ms.extend(lane.lat_ms);
            phase.done.extend(lane.done);
            phase.gap_ms.extend(lane.gap_ms);
            phase.resyncs += lane.resyncs;
            for (jsn, tx, idx) in lane.acks {
                self.hist.ack(jsn, tx, idx)?;
            }
            self.capture.merge(lane.capture);
        }
        Ok(())
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn data_dir(&self) -> PathBuf {
        self.opts.work.join("data")
    }

    fn note_rss(&mut self, daemon: &Daemon) {
        self.peak_rss_kib = self.peak_rss_kib.max(daemon.peak_rss_kib().unwrap_or(0));
    }

    /// Start `ledgerd` on an empty `dir`, populate it with `populate`
    /// through `AppendBatch`, and sync a client. Returns the daemon, the
    /// acks and the seconds it took.
    fn set_up_once(
        &self,
        dir: &Path,
        log: &str,
        populate: &[TxRequest],
    ) -> Result<(Daemon, Acks, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        let d = Daemon::spawn(&self.opts.ledgerd, dir, &self.opts.work.join(log))
            .map_err(|e| format!("spawn ledgerd: {e}"))?;
        let acks = populate_batches(&d, populate)?;
        d.connect()?
            .sync()
            .map_err(|e| format!("initial sync: {e}"))?;
        Ok((d, acks, started.elapsed().as_secs_f64()))
    }

    /// Set up `reps` times on fresh directories. The last daemon stays
    /// up. Returns it and the set-up seconds of every rep.
    fn setup(&mut self, populate: &[TxRequest], reps: usize) -> Result<(Daemon, Vec<f64>), String> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let (d, acks, secs) = self.set_up_once(&self.data_dir(), "ledgerd.log", populate)?;
            times.push(secs);
            last = Some((d, acks));
        }
        let (daemon, acks) = last.expect("reps >= 1");
        self.attempted += populate.len() as u64;
        self.hist.sent.extend_from_slice(populate);
        for (jsn, tx, idx) in acks {
            self.hist.ack(jsn, tx, idx)?;
        }
        Ok((daemon, times))
    }

    /// One more timed set-up, on a side directory beside the running
    /// ledger, torn down at once. Spread over a run, these sample
    /// `setup_s` across it rather than only at its start.
    fn side_setup(&mut self, populate: &[TxRequest]) -> Result<f64, String> {
        let dir = self.side_dir();
        let (d, _, secs) = self.set_up_once(&dir, "side.log", populate)?;
        self.attempted += populate.len() as u64;
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(secs)
    }

    fn side_dir(&self) -> PathBuf {
        self.opts.work.join("side")
    }
}

/// Append `populate` through `AppendBatch` frames of [`POPULATE_BATCH`]
/// on [`CONNECTIONS`] connections (frame `i` on connection
/// `i % CONNECTIONS`). Returns (jsn, tx hash, index) per request.
fn populate_batches(daemon: &Daemon, populate: &[TxRequest]) -> Result<Acks, String> {
    let chunks: Vec<(usize, &[TxRequest])> = populate.chunks(POPULATE_BATCH).enumerate().collect();
    let lanes: Vec<Result<Acks, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<(usize, &[TxRequest])> = chunks
                    .iter()
                    .copied()
                    .skip(c)
                    .step_by(CONNECTIONS)
                    .collect();
                s.spawn(move || {
                    let mut remote = daemon.connect()?;
                    let mut acks = Vec::new();
                    for (k, chunk) in mine {
                        let results = remote
                            .append_batch(chunk.to_vec())
                            .map_err(|e| format!("populate batch: {e}"))?;
                        for (i, r) in results.into_iter().enumerate() {
                            let (jsn, tx) =
                                r.map_err(|e| format!("populate append rejected: {e}"))?;
                            acks.push((jsn, tx, k * POPULATE_BATCH + i));
                        }
                    }
                    Ok(acks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate lane panicked"))
            .collect()
    });
    let mut acks = Vec::with_capacity(populate.len());
    for lane in lanes {
        acks.extend(lane?);
    }
    Ok(acks)
}

/// Closed-loop single appends over one connection until `deadline` or
/// the requests run out. `base` is the index of `reqs[0]` in `History::sent`.
fn append_lane(
    addr: SocketAddr,
    reqs: &[TxRequest],
    base: usize,
    deadline: Instant,
    tracer: Option<Sender<(&'static str, u64, u64)>>,
) -> Lane {
    let mut lane = Lane::default();
    let mut remote = match RemoteLedger::connect(addr) {
        Ok(r) => r,
        Err(e) => {
            lane.attempted += 1;
            lane.fail(format!("connect: {e}"));
            return lane;
        }
    };
    remote.set_tracing(tracer.is_some());
    let mut prev_end = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let req = req.clone();
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        lane.attempted += 1;
        lane.gap_ms.push(ms(t0 - prev_end));
        match remote.append(req) {
            Ok((jsn, tx)) => {
                let lat = t0.elapsed();
                lane.lat_ms.push(ms(lat));
                lane.done.push(Instant::now());
                lane.acks.push((jsn, tx, base + i));
                if let Some(t) = &tracer {
                    let _ = t.send(("append", lat.as_nanos() as u64, remote.last_trace_id()));
                }
            }
            Err(e) => lane.fail(format!("append: {e}")),
        }
        prev_end = Instant::now();
    }
    lane
}

/// Open-loop single appends on a fixed schedule: op `i` is due at
/// `start + i / rate`, and its latency counts from when it was due.
#[allow(clippy::too_many_arguments)]
fn writer_lane(
    addr: SocketAddr,
    reqs: &[TxRequest],
    base: usize,
    first_jsn: u64,
    rate: f64,
    start: Instant,
    deadline: Instant,
    newest: &AtomicU64,
    tracer: Option<Sender<(&'static str, u64, u64)>>,
) -> Lane {
    let mut lane = Lane::default();
    let mut remote = match RemoteLedger::connect(addr) {
        Ok(r) => r,
        Err(e) => {
            lane.attempted += 1;
            lane.fail(format!("connect: {e}"));
            return lane;
        }
    };
    remote.set_tracing(tracer.is_some());
    for (i, req) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= deadline {
            break;
        }
        let req = req.clone();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lane.attempted += 1;
        lane.gap_ms.push(ms(sent - due));
        match remote.append(req) {
            Ok((jsn, tx)) => {
                lane.lat_ms.push(ms(due.elapsed()));
                lane.done.push(Instant::now());
                if jsn != first_jsn + i as u64 {
                    lane.fail(format!("writer append {i} acked at jsn {jsn}"));
                }
                lane.acks.push((jsn, tx, base + i));
                newest.store(jsn, Ordering::Release);
                if let Some(t) = &tracer {
                    let _ = t.send((
                        "append",
                        sent.elapsed().as_nanos() as u64,
                        remote.last_trace_id(),
                    ));
                }
            }
            Err(e) => lane.fail(format!("append: {e}")),
        }
    }
    lane
}

/// Where a reader's journals come from.
enum Targets<'a> {
    /// Zipf over the whole history (rank → jsn by `gen::rank_to_jsn`).
    History(&'a Zipf),
    /// Near the newest ack, published by a concurrent writer.
    Recent(&'a AtomicU64),
}

struct Reader<'a> {
    remote: RemoteLedger,
    rng: Rng,
    hist: &'a History,
    targets: Targets<'a>,
    clues: &'a Zipf,
    capture: Capture,
    /// Proof requests repeated after a sync (see [`Reader::fresh`]).
    resyncs: u64,
}

impl<'a> Reader<'a> {
    fn connect(
        addr: SocketAddr,
        seed: u64,
        stream: u64,
        hist: &'a History,
        targets: Targets<'a>,
        clues: &'a Zipf,
    ) -> Result<Reader<'a>, String> {
        let mut remote = RemoteLedger::connect(addr).map_err(|e| format!("connect: {e}"))?;
        remote.sync().map_err(|e| format!("sync: {e}"))?;
        Ok(Reader {
            remote,
            rng: Rng::new(seed, stream),
            hist,
            targets,
            clues,
            capture: Capture::default(),
            resyncs: 0,
        })
    }

    /// A journal to read, synced past if needed: every read is verified
    /// against the client's own replica, never the server's word.
    fn pick(&mut self) -> Result<u64, String> {
        match self.targets {
            Targets::History(zipf) => Ok(gen::rank_to_jsn(
                zipf.sample(&mut self.rng),
                self.hist.len(),
            )),
            Targets::Recent(newest) => {
                let back = (-(1.0 - self.rng.next_f64()).ln() * RECENT_MEAN) as u64;
                let jsn = newest.load(Ordering::Acquire).saturating_sub(back);
                if jsn >= self.remote.client().verified_journals() {
                    self.remote.sync().map_err(|e| format!("sync: {e}"))?;
                }
                Ok(jsn.min(self.remote.client().verified_journals().saturating_sub(1)))
            }
        }
    }

    /// Run a proof request. While a writer runs, the server may seal a
    /// block between the client's sync and the request, and prove
    /// against a root the client has not verified yet; the client then
    /// rejects the proof, syncs, and asks again (at most
    /// [`MAX_RESYNCS`] times). Without a writer a rejection is final.
    fn fresh<T>(
        &mut self,
        mut request: impl FnMut(&mut RemoteLedger) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        let mut resyncs = 0;
        loop {
            match request(&mut self.remote) {
                Err(RemoteError::Verify(_))
                    if matches!(self.targets, Targets::Recent(_)) && resyncs < MAX_RESYNCS =>
                {
                    resyncs += 1;
                    self.resyncs += 1;
                    self.remote.sync()?;
                }
                other => return other,
            }
        }
    }

    /// A proven tx hash must be the one the append was acked with.
    fn cross_check(&self, jsn: u64, tx: &Digest) -> Result<(), String> {
        match self.hist.acked_tx.get(jsn as usize).copied().flatten() {
            Some(acked) if acked != *tx => {
                Err(format!("jsn {jsn}: proven tx hash differs from its ack"))
            }
            _ => Ok(()),
        }
    }

    fn prove(&mut self, jsn: u64) -> Result<Digest, String> {
        let (tx, proof) = self
            .fresh(|r| r.prove(jsn))
            .map_err(|e| format!("prove {jsn}: {e}"))?;
        self.cross_check(jsn, &tx)?;
        if self.capture.fam.len() < CAPTURE_MAX {
            let client = self.remote.client();
            self.capture
                .fam
                .push((client.journal_root(), client.anchor(), tx, proof));
        }
        Ok(tx)
    }

    /// Prove `jsn`, fetch its journal and payload, and check both
    /// against the proven hash and the payload that was sent.
    fn get_tx(&mut self, jsn: u64) -> Result<(), String> {
        let tx = self.prove(jsn)?;
        let (journal, payload) = self
            .remote
            .get_tx(jsn)
            .map_err(|e| format!("get_tx {jsn}: {e}"))?;
        let sent = sha256(&self.hist.request(jsn).payload);
        check::journal_matches(&journal, payload.as_deref(), &tx, &sent)
    }

    fn prove_clue(&mut self, clue: &str) -> Result<(), String> {
        let proof = self
            .remote
            .prove_clue(clue)
            .map_err(|e| format!("prove_clue {clue}: {e}"))?;
        if self.capture.clue.len() < CAPTURE_MAX {
            self.capture
                .clue
                .push((self.remote.client().clue_root(), proof));
        }
        Ok(())
    }

    fn prove_state(&mut self, clue: &str) -> Result<(), String> {
        let (proof, _) = self
            .remote
            .prove_state(clue)
            .map_err(|e| format!("prove_state {clue}: {e}"))?;
        if self.capture.state.len() < CAPTURE_MAX {
            self.capture
                .state
                .push((self.remote.client().state_root(), proof));
        }
        Ok(())
    }

    fn op(&mut self, kind: ReadKind) -> Result<(), String> {
        match kind {
            ReadKind::Prove => {
                let jsn = self.pick()?;
                self.prove(jsn).map(|_| ())
            }
            ReadKind::ProveBatch => {
                let jsns = (0..BATCH_PROOFS)
                    .map(|_| self.pick())
                    .collect::<Result<Vec<_>, _>>()?;
                let items = self
                    .fresh(|r| r.prove_batch(jsns.clone()))
                    .map_err(|e| format!("prove_batch: {e}"))?;
                for (jsn, item) in jsns.into_iter().zip(items) {
                    let (tx, _) = item.map_err(|e| format!("prove_batch item {jsn}: {e}"))?;
                    self.cross_check(jsn, &tx)?;
                }
                Ok(())
            }
            ReadKind::ProveClue => {
                let jsn = self.pick()?;
                let clue = self.hist.request(jsn).clues[0].clone();
                self.prove_clue(&clue)
            }
            ReadKind::ProveState => {
                let clue = gen::clue_name(self.clues.sample(&mut self.rng));
                self.prove_state(&clue)
            }
            ReadKind::GetTx => {
                let jsn = self.pick()?;
                self.get_tx(jsn)
            }
        }
    }

    /// Closed-loop read mix until `deadline`.
    fn run(mut self, deadline: Instant, tracer: Option<Sender<(&'static str, u64, u64)>>) -> Lane {
        let mut lane = Lane::default();
        self.remote.set_tracing(tracer.is_some());
        let mut prev_end = Instant::now();
        loop {
            let mix: &[(ReadKind, u32)] = match self.targets {
                Targets::History(_) => &gen::READ_MIX,
                Targets::Recent(_) => &gen::RECENT_READ_MIX,
            };
            let kind = gen::read_kind(&mut self.rng, mix);
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            lane.attempted += 1;
            lane.gap_ms.push(ms(t0 - prev_end));
            match self.op(kind) {
                Ok(()) => {
                    let lat = t0.elapsed();
                    lane.lat_ms.push(ms(lat));
                    lane.done.push(Instant::now());
                    if let Some(t) = &tracer {
                        let _ =
                            t.send(("read", lat.as_nanos() as u64, self.remote.last_trace_id()));
                    }
                }
                Err(e) => lane.fail(e),
            }
            prev_end = Instant::now();
        }
        lane.capture = self.capture;
        lane.resyncs = self.resyncs;
        lane
    }
}

/// Run one verified read, counting and timing it.
fn timed(lane: &mut Lane, f: impl FnOnce() -> Result<(), String>) {
    lane.attempted += 1;
    let t0 = Instant::now();
    match f() {
        Ok(()) => {
            lane.lat_ms.push(ms(t0.elapsed()));
            lane.done.push(Instant::now());
        }
        Err(e) => lane.fail(e),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed-loop appends on [`CONNECTIONS`] connections for `seconds`.
/// Each connection sends its own slice of `reqs`.
fn run_appends(
    bench: &mut Bench,
    addr: SocketAddr,
    reqs: &[TxRequest],
    seconds: f64,
    tracer: Option<&Collector>,
) -> Result<Phase, String> {
    let base = bench.hist.sent.len();
    bench.hist.sent.extend_from_slice(reqs);
    let per = reqs.len().div_ceil(CONNECTIONS);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .chunks(per)
            .enumerate()
            .map(|(c, part)| {
                let tracer = tracer.map(Collector::sender);
                s.spawn(move || append_lane(addr, part, base + c * per, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("append lane panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    bench.absorb(lanes, &mut phase)?;
    Ok(phase)
}

/// Closed-loop read mix on [`CONNECTIONS`] connections for `seconds`.
fn run_reads(
    bench: &mut Bench,
    addr: SocketAddr,
    stream: u64,
    seconds: f64,
    tracer: Option<&Collector>,
) -> Result<Phase, String> {
    let jsn_zipf = Zipf::new(bench.hist.len() as usize, gen::ZIPF_S);
    let clue_zipf = Zipf::new(gen::CLUE_NAMES, gen::ZIPF_S);
    let seed = bench.opts.seed;
    let hist = &bench.hist;
    let readers = (0..CONNECTIONS)
        .map(|c| {
            Reader::connect(
                addr,
                seed,
                stream + c as u64,
                hist,
                Targets::History(&jsn_zipf),
                &clue_zipf,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .map(|r| {
                let tracer = tracer.map(Collector::sender);
                s.spawn(move || r.run(deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read lane panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    bench.absorb(lanes, &mut phase)?;
    Ok(phase)
}

/// `mixed`: one open-loop writer at the configured rate plus one
/// closed-loop reader of the newest journals, for `seconds`. Returns
/// (writes, reads).
fn run_mixed(
    bench: &mut Bench,
    addr: SocketAddr,
    reqs: &[TxRequest],
    stream: u64,
    seconds: f64,
    tracer: Option<&Collector>,
) -> Result<(Phase, Phase), String> {
    let base = bench.hist.sent.len();
    let first_jsn = bench.hist.len();
    bench.hist.sent.extend_from_slice(reqs);
    // The writer is the only appender, so request i lands at jsn
    // first_jsn + i (checked on every ack): readers may resolve any jsn
    // up to the newest ack while the writer runs.
    bench.hist.by_jsn.extend(base..base + reqs.len());
    let newest = AtomicU64::new(first_jsn.saturating_sub(1));
    let clue_zipf = Zipf::new(gen::CLUE_NAMES, gen::ZIPF_S);
    let rate = bench.opts.mixed_rate;
    let seed = bench.opts.seed;
    let hist = &bench.hist;
    let reader = Reader::connect(
        addr,
        seed,
        stream,
        hist,
        Targets::Recent(&newest),
        &clue_zipf,
    )?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (w, r) = std::thread::scope(|s| {
        let wt = tracer.map(Collector::sender);
        let rt = tracer.map(Collector::sender);
        let newest = &newest;
        let w = s.spawn(move || {
            writer_lane(
                addr, reqs, base, first_jsn, rate, started, deadline, newest, wt,
            )
        });
        let r = s.spawn(move || reader.run(deadline, rt));
        (
            w.join().expect("writer panicked"),
            r.join().expect("reader panicked"),
        )
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    // Drop the speculative jsn slots; `absorb` records the real acks.
    bench.hist.by_jsn.truncate(first_jsn as usize);
    let mut writes = Phase {
        elapsed_s,
        ..Phase::default()
    };
    let mut reads = Phase {
        elapsed_s,
        ..Phase::default()
    };
    bench.absorb(vec![w], &mut writes)?;
    bench.absorb(vec![r], &mut reads)?;
    Ok((writes, reads))
}

/// Bring the ledger to the same recovery state in every run. Seal
/// blocks with `AppendCommitted` (each receipt verified against the
/// client's own synced chain) until `ledgerd` writes a checkpoint,
/// then append a fixed WAL tail of [`RESTART_TAIL`] journals and seal
/// it. Every restart then loads a checkpoint and replays the same
/// tail, and every ack sits in a sealed block, so all are provable.
fn settle_for_restart(bench: &mut Bench, addr: SocketAddr) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seals =
        gen::requests(bench.opts.seed, 3, MAX_SEALS_TO_CHECKPOINT + 1, threads).into_iter();
    let tail = gen::requests(bench.opts.seed, 4, RESTART_TAIL, threads);
    let mut remote = RemoteLedger::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let commit =
        |bench: &mut Bench, remote: &mut RemoteLedger, req: TxRequest| -> Result<(), String> {
            bench.attempted += 1;
            let receipt = remote
                .append_committed_verified(req.clone())
                .map_err(|e| format!("sealing append: {e}"))?;
            bench.hist.sent.push(req);
            bench
                .hist
                .ack(receipt.jsn, receipt.tx_hash, bench.hist.sent.len() - 1)
        };
    let checkpoints = |remote: &mut RemoteLedger| -> Result<f64, String> {
        Ok(stat(
            &remote.stats().map_err(|e| format!("Stats: {e}"))?,
            "ledger_checkpoints_total",
        ))
    };
    let start = checkpoints(&mut remote)?;
    let mut reached = false;
    for req in seals.by_ref().take(MAX_SEALS_TO_CHECKPOINT) {
        commit(bench, &mut remote, req)?;
        if checkpoints(&mut remote)? > start {
            reached = true;
            break;
        }
    }
    if !reached {
        return Err(format!(
            "no checkpoint after {MAX_SEALS_TO_CHECKPOINT} sealed blocks"
        ));
    }
    let base = bench.hist.sent.len();
    bench.attempted += tail.len() as u64;
    let results = remote
        .append_batch(tail.clone())
        .map_err(|e| format!("tail batch: {e}"))?;
    bench.hist.sent.extend(tail);
    for (i, r) in results.into_iter().enumerate() {
        let (jsn, tx) = r.map_err(|e| format!("tail append rejected: {e}"))?;
        bench.hist.ack(jsn, tx, base + i)?;
    }
    let last = seals
        .next()
        .expect("one request is kept for the final seal");
    commit(bench, &mut remote, last)
}

/// SIGKILL + respawn `n` times, timing each from the kill to the first
/// handshake. The `audits` fresh-client replays of the whole feed are
/// spread evenly over the respawned processes (see [`audit`]), so no
/// single process's thread placement on the two cores sets the run's
/// `audit_jps`. Returns the last daemon and the restart times.
fn restarts(
    bench: &mut Bench,
    mut daemon: Daemon,
    n: usize,
    audits: usize,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    for _ in 0..n {
        bench.note_rss(&daemon);
        let (next, _client, secs) = daemon.restart()?;
        times.push(secs);
        daemon = next;
        audit(bench, daemon.addr(), audits.div_ceil(n))?;
    }
    Ok((daemon, times))
}

/// `n` fresh distrusting clients each replay the whole block feed.
/// Records journals verified per second and the client's ECDSA
/// verifications per block.
fn audit(bench: &mut Bench, addr: SocketAddr, n: usize) -> Result<(), String> {
    for _ in 0..n {
        let mut remote = RemoteLedger::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let ecdsa0 = ledgerdb_crypto::counters::ecdsa_verifies();
        let started = Instant::now();
        let report = remote.sync().map_err(|e| format!("audit sync: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        let ecdsa = ledgerdb_crypto::counters::ecdsa_verifies() - ecdsa0;
        bench.check(
            "audit covers every ack",
            if report.journals_replayed >= bench.hist.len() {
                Ok(())
            } else {
                Err(format!(
                    "replayed {} of {} acked journals",
                    report.journals_replayed,
                    bench.hist.len()
                ))
            },
        );
        bench
            .audit_rates
            .push(report.journals_replayed as f64 / secs);
        bench.ecdsa_per_block = ecdsa as f64 / report.blocks_accepted.max(1) as f64;
    }
    Ok(())
}

/// The block-feed replay split into transport (request, frame, decode)
/// and client verification, per block, in µs.
fn audit_split(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut call = |req: Request| -> Result<Response, String> {
        write_frame(&mut stream, &req.to_wire()).map_err(|e| format!("write: {e}"))?;
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).map_err(|e| format!("read: {e}"))?;
        Response::from_wire(&body).map_err(|e| format!("decode: {e}"))
    };
    let info = match call(Request::Hello)? {
        Response::Hello(info) => info,
        _ => return Err("expected Hello".into()),
    };
    let mut blocks = Vec::new();
    let started = Instant::now();
    loop {
        let from = blocks.len() as u64;
        match call(Request::GetBlockFeed {
            from_height: from,
            max_blocks: 256,
        })? {
            Response::BlockFeed(b) if b.is_empty() => break,
            Response::BlockFeed(b) => blocks.extend(b),
            _ => return Err("expected BlockFeed".into()),
        }
    }
    let rpc = started.elapsed().as_secs_f64();
    let mut client = LedgerClient::new(info.lsp_pk, info.fam_delta);
    let started = Instant::now();
    client.sync(&blocks).map_err(|e| format!("replay: {e}"))?;
    let verify = started.elapsed().as_secs_f64();
    let n = blocks.len().max(1) as f64;
    Ok((rpc * 1e6 / n, verify * 1e6 / n))
}

/// Per-round figures of `ingest` and `mixed` (see [`run_rounds`] and
/// [`run_mixed_rounds`]).
#[derive(Default)]
struct Rounds {
    tps: Vec<f64>,
    p50_ms: Vec<f64>,
    /// `ingest`: `ledgerd`'s peak RSS at the end of each round's
    /// appends, KiB.
    rss_kib: Vec<f64>,
    /// Every restart of every round, seconds.
    restart_s: Vec<f64>,
    read_tps: Vec<f64>,
    read_p50_ms: Vec<f64>,
    /// The set-up of each round's fresh ledger (`ingest`) or one more
    /// set-up per round (`mixed`, see [`Bench::side_setup`]).
    setup_s: Vec<f64>,
}

/// `ingest`: rounds, each into a fresh, empty `ledgerd`, until the
/// rounds have run for `seconds` (at least [`MIN_ROUNDS`]). A round:
///
/// 1. the same [`INGEST_ROUND`] closed-loop appends (see [`run_appends`]);
/// 2. settle the ledger (see [`settle_for_restart`]);
/// 3. SIGKILL/respawn cycles, each followed by fresh-client replays of
///    the whole feed (see [`restarts`]);
/// 4. a fresh client re-proves every ack and reads it back, timed as
///    the round's reads (see [`check_pass`]).
///
/// Every round starts from the same state and does the same work, so
/// how fast one ran does not change what the next one measures, and
/// every metric is sampled across the whole run rather than in one
/// stretch of it: the shared host's speed changes from second to
/// second. Starts on `daemon` if its ledger is empty. Returns the last
/// round's daemon, with its acks in `History`, and all rounds' appends
/// and reads as one phase each.
fn run_rounds(
    bench: &mut Bench,
    mut daemon: Daemon,
    reqs: &[TxRequest],
    seconds: f64,
    mut traced: Option<&mut Traced>,
    rounds: &mut Rounds,
) -> Result<(Daemon, Phase, Phase), String> {
    let mut phases = Vec::new();
    let mut read_phases = Vec::new();
    let started = Instant::now();
    while phases.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        if bench.hist.len() > 0 {
            bench.hist = History::default();
            drop(daemon);
            let secs;
            (daemon, _, secs) = bench.set_up_once(&bench.data_dir(), "ledgerd.log", &[])?;
            rounds.setup_s.push(secs);
        }
        let addr = daemon.addr();
        let phase = match traced.as_deref_mut() {
            Some(t) => {
                let phase = with_tracing(bench, addr, t, true, |b, c| {
                    run_appends(b, addr, reqs, ROUND_CAP_SECS, c)
                })?;
                t.append_process = load_record(bench, addr)?;
                phase
            }
            None => {
                let phase = run_appends(bench, addr, reqs, ROUND_CAP_SECS, None)?;
                load_record(bench, addr)?;
                phase
            }
        };
        rounds.tps.push(phase.tps());
        rounds.p50_ms.push(p50(&phase.lat_ms));
        rounds
            .rss_kib
            .push(daemon.peak_rss_kib().unwrap_or(0) as f64);
        phases.push(phase);
        settle_for_restart(bench, addr)?;
        let times;
        (daemon, times) = restarts(bench, daemon, Workload::Ingest.restarts(), ROUND_AUDITS)?;
        rounds.restart_s.extend(times);
        let reads = check_pass(bench, daemon.addr(), 0.0)?;
        rounds.read_tps.push(reads.tps());
        rounds.read_p50_ms.push(p50(&reads.lat_ms));
        read_phases.push(reads);
    }
    Ok((daemon, Phase::concat(phases), Phase::concat(read_phases)))
}

/// `mixed`: rounds of load on one ledger (see [`run_mixed`]), about
/// [`MIXED_ROUND_S`] seconds each, that add up to `seconds`. The rounds'
/// requests are consecutive slices of `reqs`, and the writer's fixed
/// rate makes every run append the same journals at the same points.
/// After each round's load: settle the ledger, SIGKILL/respawn it a few
/// times with fresh-client replays of the whole feed (see [`restarts`]),
/// and set up once more on a side directory. So every metric is sampled
/// across the whole run. Returns the daemon, and all rounds' writes and
/// reads as one phase each.
#[allow(clippy::too_many_arguments)]
fn run_mixed_rounds(
    bench: &mut Bench,
    mut daemon: Daemon,
    reqs: &[TxRequest],
    populate: &[TxRequest],
    seconds: f64,
    stream: u64,
    mut traced: Option<&mut Traced>,
    rounds: &mut Rounds,
) -> Result<(Daemon, Phase, Phase), String> {
    let n = ((seconds / MIXED_ROUND_S).round() as usize).max(MIN_ROUNDS);
    let round_s = seconds / n as f64;
    let per = reqs.len() / n;
    if (per as f64) < (bench.opts.mixed_rate * round_s).ceil() {
        return Err(format!(
            "{} requests are too few for {n} rounds of {round_s} s",
            reqs.len()
        ));
    }
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for (r, part) in reqs.chunks_exact(per).enumerate() {
        let addr = daemon.addr();
        let stream = stream + r as u64;
        let (w, rd) = match traced.as_deref_mut() {
            Some(t) => {
                let out = read_window(
                    bench,
                    addr,
                    t,
                    |b, t| {
                        with_tracing(b, addr, t, true, |b, c| {
                            run_mixed(b, addr, part, stream, round_s, c)
                        })
                    },
                    |(_, r): &(Phase, Phase)| r.lat_ms.len(),
                )?;
                t.append_process = load_record(bench, addr)?;
                out
            }
            None => {
                let out = run_mixed(bench, addr, part, stream, round_s, None)?;
                load_record(bench, addr)?;
                out
            }
        };
        rounds.tps.push(w.tps());
        rounds.p50_ms.push(p50(&w.lat_ms));
        rounds.read_tps.push(rd.tps());
        rounds.read_p50_ms.push(p50(&rd.lat_ms));
        writes.push(w);
        reads.push(rd);
        settle_for_restart(bench, addr)?;
        bench.note_rss(&daemon);
        let times;
        (daemon, times) = restarts(bench, daemon, Workload::Mixed.restarts(), ROUND_AUDITS)?;
        rounds.restart_s.extend(times);
        rounds.setup_s.push(bench.side_setup(populate)?);
    }
    Ok((daemon, Phase::concat(writes), Phase::concat(reads)))
}

/// A fresh client re-proves every acked append and checks its payload,
/// plus a few Zipf-chosen clue and state proofs, then re-reads
/// Zipf-chosen journals until `min_secs` have passed. One connection,
/// so the client and `ledgerd`'s connection thread each have a core.
/// Also feeds the verifier a tampered proof.
fn check_pass(bench: &mut Bench, addr: SocketAddr, min_secs: f64) -> Result<Phase, String> {
    bench.hist.check_dense()?;
    let n = bench.hist.len();
    let jsn_zipf = Zipf::new(n.max(1) as usize, gen::ZIPF_S);
    let clue_zipf = Zipf::new(gen::CLUE_NAMES, gen::ZIPF_S);
    let mut r = Reader::connect(
        addr,
        bench.opts.seed,
        900,
        &bench.hist,
        Targets::History(&jsn_zipf),
        &clue_zipf,
    )?;
    let mut lane = Lane::default();
    let started = Instant::now();
    for _ in 0..CHECK_CLUE_READS {
        timed(&mut lane, || {
            let jsn = r.pick()?;
            let clue = r.hist.request(jsn).clues[0].clone();
            r.prove_clue(&clue)?;
            r.prove_state(&clue)
        });
    }
    for jsn in 0..n {
        timed(&mut lane, || r.get_tx(jsn));
    }
    while started.elapsed().as_secs_f64() < min_secs {
        timed(&mut lane, || {
            let jsn = r.pick()?;
            r.get_tx(jsn)
        });
    }
    lane.attempted += 1;
    let tamper = match r.capture.fam.first() {
        Some((_, _, tx, proof)) => check::tampered_proof_rejected(
            |h, p| r.remote.client().verify_existence(h, p).is_ok(),
            tx,
            proof,
        ),
        None => Err("no proof captured".into()),
    };
    if let Err(e) = tamper {
        lane.fail(format!("tampered-proof check: {e}"));
    }
    lane.capture = std::mem::take(&mut r.capture);
    drop(r);
    let mut phase = Phase {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    bench.absorb(vec![lane], &mut phase)?;
    Ok(phase)
}

/// Per-layer inputs gathered by a traced run.
#[derive(Default)]
struct Traced {
    /// Span trees of traced single appends.
    appends: Vec<OpTrace>,
    /// Span trees of traced reads.
    reads: Vec<OpTrace>,
    /// Ops whose spans aged out of the server's recorder before fetch.
    missing: u64,
    pool_depth_max: f64,
    /// `Stats` deltas over the traced append windows.
    append_delta: StatsDelta,
    /// `Stats` deltas over the workload's read window.
    read_delta: StatsDelta,
    reads_in_window: u64,
    sha256_in_window: u64,
    sync_rpc_us: f64,
    sync_verify_us: f64,
    /// `Stats` of the daemon that served the appends, before its kill.
    append_process: String,
    /// `Stats` of the last respawned daemon (its recovery).
    recovered_process: String,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    gen_lag_p99_ms: f64,
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    RemoteLedger::connect(addr)
        .and_then(|mut r| r.stats())
        .map_err(|e| format!("Stats: {e}"))
}

/// Run `load` with every op traced and its span tree collected, and
/// add the `Stats` delta over it to `delta`.
fn with_tracing<T>(
    bench: &mut Bench,
    addr: SocketAddr,
    traced: &mut Traced,
    append_window: bool,
    load: impl FnOnce(&mut Bench, Option<&Collector>) -> Result<T, String>,
) -> Result<T, String> {
    let before = scrape(addr)?;
    let collector = Collector::start(addr)?;
    let out = load(bench, Some(&collector))?;
    let (ops, missing, depth) = collector.finish()?;
    let after = scrape(addr)?;
    if append_window {
        traced.append_delta.add_window(&before, &after);
    }
    traced.missing += missing;
    traced.pool_depth_max = traced.pool_depth_max.max(depth);
    for op in ops {
        match op.kind {
            "append" => traced.appends.push(op),
            _ => traced.reads.push(op),
        }
    }
    Ok(out)
}

/// Run `phase` as (part of) the workload's read window: add the `Stats`
/// delta over it, its verified reads (`reads` counts them in its
/// result) and the client's SHA-256 finalizations to `traced`.
fn read_window<T>(
    bench: &mut Bench,
    addr: SocketAddr,
    traced: &mut Traced,
    phase: impl FnOnce(&mut Bench, &mut Traced) -> Result<T, String>,
    reads: impl Fn(&T) -> usize,
) -> Result<T, String> {
    let before = scrape(addr)?;
    let sha0 = ledgerdb_crypto::counters::sha256_finalizes();
    let out = phase(bench, traced)?;
    let sha = ledgerdb_crypto::counters::sha256_finalizes() - sha0;
    traced.read_delta.add_window(&before, &scrape(addr)?);
    traced.reads_in_window += reads(&out) as u64;
    traced.sha256_in_window += sha;
    Ok(out)
}

/// `Stats` of the process that served the load, with its batching and
/// checkpoint figures added to the record.
fn load_record(b: &mut Bench, addr: SocketAddr) -> Result<String, String> {
    let load_stats = scrape(addr)?;
    b.record.insert(
        "load_server".into(),
        format!(
            "{{\"batch_size_mean\":{},\"checkpoints\":{},\"checkpoint_write_ms_mean\":{}}}",
            stat(&load_stats, "batch_size_sum") / stat(&load_stats, "batch_windows_total").max(1.0),
            stat(&load_stats, "ledger_checkpoints_total"),
            stat(&load_stats, "ledger_checkpoint_write_seconds_sum") * 1e3
                / stat(&load_stats, "ledger_checkpoint_write_seconds_count").max(1.0),
        ),
    );
    Ok(load_stats)
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        Summary::of(v).p50
    }
}

fn run(b: &mut Bench) -> Result<(), String> {
    let w = b.opts.workload;
    let secs = b.opts.seconds;
    let seed = b.opts.seed;
    let tracing = b.opts.trace;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Inputs, signed before anything is timed.
    let populate = gen::requests(seed, 1, w.history(), threads);
    let main_count = match w {
        Workload::Ingest => INGEST_ROUND,
        Workload::AuditRead => AUDIT_TAIL,
        // A request more per round than the rate needs (see `run_mixed_rounds`).
        Workload::Mixed => (b.opts.mixed_rate * secs).ceil() as usize + 64,
    };
    if w == Workload::Mixed && b.opts.mixed_rate <= 0.0 {
        return Err("mixed needs --mixed-rate".into());
    }
    let main_reqs = gen::requests(seed, 2, main_count, threads);
    // A traced run measures its first half untraced (the overhead
    // baseline) and its second half traced. (Every `ingest` round sends
    // all of `main_reqs`.)
    let (untraced_reqs, traced_reqs) =
        main_reqs.split_at(if tracing { main_count / 2 } else { main_count });
    let untraced_secs = if tracing { secs / 2.0 } else { secs };
    let mut t = Traced::default();
    let mut rounds = Rounds::default();
    b.lap("sign");

    let (daemon, mut setup_times) = b.setup(&populate, w.setup_reps())?;
    b.lap("setup");
    let addr = daemon.addr();
    let appends;
    let reads;
    let mut daemon = daemon;
    let restart_times;
    match w {
        Workload::Ingest => {
            (daemon, appends, reads) =
                run_rounds(b, daemon, &main_reqs, untraced_secs, None, &mut rounds)?;
            b.lap("rounds");
            restart_times = rounds.restart_s.clone();
            if tracing {
                t.untraced_p50_ms = median(&rounds.p50_ms);
                let mut traced_rounds = Rounds::default();
                (daemon, _, _) = run_rounds(
                    b,
                    daemon,
                    &main_reqs,
                    secs / 2.0,
                    Some(&mut t),
                    &mut traced_rounds,
                )?;
                t.traced_p50_ms = median(&traced_rounds.p50_ms);
                b.lap("traced_rounds");
                // Every round ended with a check of all its acks. One
                // more check pass, re-reading, is the read window behind
                // the read-side `Stats`.
                let addr = daemon.addr();
                read_window(
                    b,
                    addr,
                    &mut t,
                    |b, _| check_pass(b, addr, CHECK_READ_SECS),
                    |p| p.lat_ms.len(),
                )?;
            }
        }
        Workload::Mixed => {
            (daemon, appends, reads) = run_mixed_rounds(
                b,
                daemon,
                untraced_reqs,
                &populate,
                untraced_secs,
                100,
                None,
                &mut rounds,
            )?;
            b.lap("rounds");
            if tracing {
                t.untraced_p50_ms = median(&rounds.read_p50_ms);
                let mut traced_rounds = Rounds::default();
                (daemon, _, _) = run_mixed_rounds(
                    b,
                    daemon,
                    traced_reqs,
                    &populate,
                    secs / 2.0,
                    200,
                    Some(&mut t),
                    &mut traced_rounds,
                )?;
                t.traced_p50_ms = median(&traced_rounds.read_p50_ms);
                b.lap("traced_rounds");
            }
            restart_times = rounds.restart_s.clone();
            // The last round ended with restarts: every append acked
            // under load must have survived them.
            check_pass(b, daemon.addr(), 0.0)?;
        }
        Workload::AuditRead => {
            // The tail is a fixed count, not a duration.
            appends = run_appends(b, addr, untraced_reqs, 120.0, None)?;
            if tracing {
                with_tracing(b, addr, &mut t, true, |b, c| {
                    run_appends(b, addr, traced_reqs, 120.0, c)
                })?;
                t.append_process = scrape(addr)?;
            }
            settle_for_restart(b, addr)?;
            b.note_rss(&daemon);
            b.lap("load");
            (daemon, restart_times) = restarts(b, daemon, w.restarts(), AUDITS)?;
            let addr = daemon.addr();
            b.lap("restarts_audit");
            reads = run_reads(b, addr, 100, untraced_secs, None)?;
            if tracing {
                let traced = read_window(
                    b,
                    addr,
                    &mut t,
                    |b, t| {
                        with_tracing(b, addr, t, false, |b, c| {
                            run_reads(b, addr, 200, secs / 2.0, c)
                        })
                    },
                    |p| p.lat_ms.len(),
                )?;
                t.untraced_p50_ms = p50(&reads.lat_ms);
                t.traced_p50_ms = p50(&traced.lat_ms);
            }
            check_pass(b, addr, 0.0)?;
        }
    }
    setup_times.extend(&rounds.setup_s);
    b.record
        .insert("setup_s_samples".into(), json_list(&setup_times));
    t.gen_lag_p99_ms = match w {
        Workload::Ingest | Workload::Mixed => Summary::of(&appends.gap_ms).p99,
        Workload::AuditRead => Summary::of(&reads.gap_ms).p99,
    };
    b.lap("check_pass");
    b.note_rss(&daemon);
    let addr = daemon.addr();
    if tracing {
        t.recovered_process = scrape(addr)?;
        (t.sync_rpc_us, t.sync_verify_us) = audit_split(addr)?;
    }
    drop(daemon);
    let stored = dir_bytes(&b.data_dir()) as f64;
    let payload = (b.hist.len() as usize * PAYLOAD_BYTES) as f64;

    let app = Summary::of(&appends.lat_ms);
    let rd = Summary::of(&reads.lat_ms);
    // Tail latencies are recorded, not gated: on the shared 2-vCPU box
    // their run-to-run spread (0.37-0.6 of the median) exceeds any bound
    // the benchmark may set. See README.
    b.record.insert(
        "append_p99_chunked_ms".into(),
        appends.chunked_p99().to_string(),
    );
    b.record.insert(
        "read_p99_chunked_ms".into(),
        reads.chunked_p99().to_string(),
    );
    b.record.insert("appends".into(), app.to_json());
    b.record.insert("reads".into(), rd.to_json());
    b.record
        .insert("restart_s_samples".into(), json_list(&restart_times));
    b.record
        .insert("audit_jps_samples".into(), json_list(&b.audit_rates));
    b.record.insert("journals".into(), b.hist.len().to_string());
    b.record
        .insert("read_resyncs".into(), reads.resyncs.to_string());
    b.record.insert(
        "peak_rss_mib".into(),
        (b.peak_rss_kib as f64 / 1024.0).to_string(),
    );
    // `ingest` and `mixed` report the median round (`audit_read` has no
    // rounds). Server RSS: on `ingest`, the median over its rounds'
    // ledgers; elsewhere the peak over the run's one growing ledger.
    let (append_tps, append_p50_ms, read_tps, read_p50_ms) = if rounds.tps.is_empty() {
        (appends.tps(), app.p50, reads.tps(), rd.p50)
    } else {
        for (k, v) in [
            ("round_tps", &rounds.tps),
            ("round_p50_ms", &rounds.p50_ms),
            ("round_rss_kib", &rounds.rss_kib),
            ("round_read_tps", &rounds.read_tps),
            ("round_read_p50_ms", &rounds.read_p50_ms),
        ] {
            b.record.insert(k.into(), json_list(v));
        }
        (
            median(&rounds.tps),
            median(&rounds.p50_ms),
            median(&rounds.read_tps),
            median(&rounds.read_p50_ms),
        )
    };
    let rss_kib = if rounds.rss_kib.is_empty() {
        b.peak_rss_kib as f64
    } else {
        median(&rounds.rss_kib)
    };
    let e = &mut b.e2e;
    e.insert("setup_s", (median(&setup_times), "s"));
    e.insert("append_tps", (append_tps, "1/s"));
    e.insert("append_p50_ms", (append_p50_ms, "ms"));
    e.insert("read_tps", (read_tps, "1/s"));
    e.insert("read_p50_ms", (read_p50_ms, "ms"));
    e.insert("audit_jps", (median(&b.audit_rates), "1/s"));
    e.insert("restart_s", (median(&restart_times), "s"));
    e.insert("server_rss_mib", (rss_kib / 1024.0, "MiB"));
    e.insert(
        "stored_bytes_per_payload_byte",
        (stored / payload.max(1.0), "ratio"),
    );
    if tracing {
        layers(b, &t);
        b.lap("layers");
        let spans = b
            .opts
            .work
            .join(format!("spans-{}-{}.jsonl", w.name(), seed));
        let all: Vec<OpTrace> = t.appends.iter().chain(&t.reads).cloned().collect();
        write_spans(&spans, &all).map_err(|e| format!("write spans: {e}"))?;
        b.record
            .insert("spans_file".into(), format!("\"{}\"", spans.display()));
        b.record
            .insert("traces_joined".into(), all.len().to_string());
        b.record
            .insert("traces_missing".into(), t.missing.to_string());
    }
    let laps: Vec<String> = b.laps.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    b.record
        .insert("step_s".into(), format!("{{{}}}", laps.join(",")));
    Ok(())
}

fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Mean per-op time of `f` over `items`, in ns: the median of five
/// rounds, each at least `min_ops` calls.
fn time_per_op<T>(items: &[T], min_ops: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut n = 0;
            while n < min_ops {
                for item in items {
                    f(black_box(item));
                }
                n += items.len();
            }
            started.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&rounds)
}

/// Per-op mean of the summed durations of spans named `name`.
fn per_op_span_ms(ops: &[OpTrace], name: &str) -> f64 {
    let total: u64 = ops
        .iter()
        .flat_map(|o| o.spans.iter().filter(|s| s.name == name))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    total as f64 / 1e6 / ops.len().max(1) as f64
}

/// Durations (ms) of distinct spans named `name` (a window-shared span
/// appears in every member's tree once).
fn distinct_span_ms(ops: &[OpTrace], name: &str) -> Vec<f64> {
    let mut seen = std::collections::BTreeSet::new();
    ops.iter()
        .flat_map(|o| o.spans.iter().filter(|s| s.name == name))
        .filter(|s| seen.insert((s.span, s.start_ns)))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// The per-layer table of a traced run.
fn layers(b: &mut Bench, t: &Traced) {
    let key = gen::signing_key();
    let reqs: Vec<(TxRequest, Digest)> = b
        .hist
        .sent
        .iter()
        .take(64)
        .map(|r| (r.clone(), r.hash()))
        .collect();
    let txs: Vec<Digest> = b
        .hist
        .acked_tx
        .iter()
        .flatten()
        .take(4096)
        .copied()
        .collect();
    let pairs: Vec<(Digest, Digest)> = txs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let cap = &b.capture;
    let mut responses: Vec<Vec<u8>> = Vec::new();
    for (_, _, tx, proof) in &cap.fam {
        responses.push(
            Response::Proof {
                tx_hash: *tx,
                proof: proof.clone(),
            }
            .to_wire(),
        );
    }
    for (_, p) in &cap.clue {
        responses.push(Response::ClueProof(p.clone()).to_wire());
    }
    for (_, p) in &cap.state {
        responses.push(Response::StateProof(p.clone()).to_wire());
    }
    let mean_of = |v: Vec<f64>| perfbench::stats::mean(&v);

    let ad = &t.append_delta;
    let rd = &t.read_delta;
    let appends_total = ad.get("ledger_appends_total").max(1.0);
    let root_ms: Vec<f64> = t
        .appends
        .iter()
        .filter_map(|o| o.root().map(|r| (r.end_ns - r.start_ns) as f64 / 1e6))
        .collect();
    let client_ms: Vec<f64> = t
        .appends
        .iter()
        .filter(|o| o.root().is_some())
        .map(|o| o.client_ns as f64 / 1e6)
        .collect();
    let wire_ms = mean_of(client_ms.iter().zip(&root_ms).map(|(c, r)| c - r).collect());
    // Client latency = wire + Σ stage self times + gap, so the gap is
    // the server time no stage span covers (negative when parallel
    // stages overlap). Reported as found, never clamped.
    let stage_self_ms = mean_of(
        t.appends
            .iter()
            .filter(|o| o.root().is_some())
            .map(|o| {
                o.stage_self_ns()
                    .iter()
                    .map(|(_, ns)| *ns as f64)
                    .sum::<f64>()
                    / 1e6
            })
            .collect(),
    );
    let client_mean = mean_of(client_ms.clone());
    let gap_pct = (client_mean - stage_self_ms - wire_ms) / client_mean.max(1e-12) * 100.0;
    let hits = rd.get("ledger_snapshot_hit_total");
    let fallbacks = rd.get("ledger_snapshot_fallback_total");
    let ap = &t.append_process;
    let rp = &t.recovered_process;
    let hist_mean = |text: &str, base: &str| {
        stat(text, &format!("{base}_sum")) / stat(text, &format!("{base}_count")).max(1.0)
    };

    let rows: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "crypto.ecdsa_verify_us",
            time_per_op(&reqs, 100, |(r, h)| {
                black_box(r.client_pk.verify(h, &r.signature));
            }) / 1e3,
            "us",
        ),
        (
            "crypto.ecdsa_sign_us",
            time_per_op(&reqs, 100, |(_, h)| {
                black_box(key.sign(h));
            }) / 1e3,
            "us",
        ),
        (
            "crypto.sha256_node_ns",
            time_per_op(&pairs, 20_000, |(l, r)| {
                black_box(hash_pair(l, r));
            }),
            "ns",
        ),
        (
            "crypto.ecdsa_verifies_per_block",
            b.ecdsa_per_block,
            "count",
        ),
        (
            "crypto.sha256_per_verified_read",
            t.sha256_in_window as f64 / t.reads_in_window.max(1) as f64,
            "count",
        ),
        ("server.append_ms_p50", p50(&root_ms), "ms"),
        ("server.wire_ms", wire_ms, "ms"),
        (
            "server.batch_size_mean",
            ad.get("batch_size_sum") / ad.get("batch_windows_total").max(1.0),
            "count",
        ),
        (
            "server.batch_queue_wait_ms",
            per_op_span_ms(&t.appends, "batch_queue_wait"),
            "ms",
        ),
        (
            "server.bytes_out_per_read",
            rd.get("server_bytes_out_total") / t.reads_in_window.max(1) as f64,
            "B",
        ),
        (
            "server.codec_decode_us",
            time_per_op(&responses, 2000, |bytes| {
                black_box(Response::from_wire(bytes).is_ok());
            }) / 1e3,
            "us",
        ),
        (
            "core.locked_insert_ms",
            per_op_span_ms(&t.appends, "locked_insert"),
            "ms",
        ),
        (
            "core.seal_ms",
            mean_of(distinct_span_ms(&t.appends, "seal")),
            "ms",
        ),
        (
            "core.seal_fam_ms",
            mean_of(distinct_span_ms(&t.appends, "seal_fam")),
            "ms",
        ),
        (
            "core.seal_clue_ms",
            mean_of(distinct_span_ms(&t.appends, "seal_clue")),
            "ms",
        ),
        (
            "core.seal_state_ms",
            mean_of(distinct_span_ms(&t.appends, "seal_state")),
            "ms",
        ),
        (
            "core.prove_ms",
            rd.hist_mean("ledger_proof_seconds") * 1e3,
            "ms",
        ),
        (
            "core.snapshot_hit_ratio",
            hits / (hits + fallbacks).max(1.0),
            "ratio",
        ),
        (
            "core.recovery_s",
            stat(rp, "ledger_recovery_seconds_sum"),
            "s",
        ),
        (
            "core.recovery_journals_replayed",
            stat(rp, "ledger_recovery_journals_replayed_total"),
            "count",
        ),
        (
            "core.checkpoint_load_ms",
            stat(rp, "ledger_checkpoint_load_seconds_sum") * 1e3,
            "ms",
        ),
        (
            "core.client_sync_us_per_block",
            t.sync_rpc_us + t.sync_verify_us,
            "us",
        ),
        ("core.client_sync_rpc_us_per_block", t.sync_rpc_us, "us"),
        (
            "core.client_sync_verify_us_per_block",
            t.sync_verify_us,
            "us",
        ),
        (
            "accumulator.fam_verify_us",
            time_per_op(&cap.fam, 2000, |(root, anchor, tx, proof)| {
                black_box(FamTree::verify(root, anchor, tx, proof).is_ok());
            }) / 1e3,
            "us",
        ),
        (
            "accumulator.fam_proof_digests",
            mean_of(cap.fam.iter().map(|(_, _, _, p)| p.len() as f64).collect()),
            "count",
        ),
        (
            "clue.verify_us",
            time_per_op(&cap.clue, 200, |(root, proof)| {
                black_box(ledgerdb_clue::cm_tree::CmTree::verify_client(root, proof).is_ok());
            }) / 1e3,
            "us",
        ),
        (
            "clue.proof_bytes",
            mean_of(
                cap.clue
                    .iter()
                    .map(|(_, p)| p.to_wire().len() as f64)
                    .collect(),
            ),
            "B",
        ),
        (
            "mpt.verify_us",
            time_per_op(&cap.state, 2000, |(root, proof)| {
                black_box(ledgerdb_core::verify_state_proof(root, proof).is_ok());
            }) / 1e3,
            "us",
        ),
        (
            "mpt.witness_bytes",
            mean_of(
                cap.state
                    .iter()
                    .map(|(_, p)| p.to_wire().len() as f64)
                    .collect(),
            ),
            "B",
        ),
        (
            "storage.fsyncs_per_append",
            ad.get("storage_fsync_total") / appends_total,
            "count",
        ),
        (
            "storage.fsync_ms_p50",
            p50(&distinct_span_ms(&t.appends, "fsync")),
            "ms",
        ),
        (
            "storage.write_bytes_per_payload_byte",
            ad.get("storage_write_bytes_total") / (appends_total * PAYLOAD_BYTES as f64),
            "ratio",
        ),
        (
            "storage.checkpoint_write_ms",
            hist_mean(ap, "ledger_checkpoint_write_seconds") * 1e3,
            "ms",
        ),
        (
            "pool.tasks_per_append",
            ad.get("ledger_pool_tasks_total") / appends_total,
            "count",
        ),
        ("pool.queue_depth_max", t.pool_depth_max, "count"),
        (
            "telemetry.trace_overhead_pct",
            (t.traced_p50_ms / t.untraced_p50_ms.max(1e-12) - 1.0) * 100.0,
            "%",
        ),
        ("bench.gen_lag_p99_ms", t.gen_lag_p99_ms, "ms"),
        ("bench.reconcile_gap_pct", gap_pct, "%"),
    ];
    for (name, value, unit) in rows {
        b.layers.insert(name, (value, unit));
    }
    let mut stage_self: BTreeMap<&str, f64> = BTreeMap::new();
    for op in t.appends.iter().filter(|o| o.root().is_some()) {
        for (name, ns) in op.stage_self_ns() {
            *stage_self.entry(name).or_default() += ns as f64 / 1e6 / client_ms.len() as f64;
        }
    }
    let stages: Vec<String> = stage_self
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    b.record.insert(
        "append_stage_self_ms".into(),
        format!("{{{}}}", stages.join(",")),
    );
    b.record.insert("reconcile".into(), format!(
        "{{\"client_ms\":{client_mean},\"wire_ms\":{wire_ms},\"stage_self_ms\":{stage_self_ms},\"traced_appends\":{}}}",
        client_ms.len()
    ));
}

fn metrics_json(m: &BTreeMap<&'static str, (f64, &'static str)>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// CPU features that matter to the crypto layer.
fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sha_ni", std::arch::is_x86_feature_detected!("sha")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("bmi2", std::arch::is_x86_feature_detected!("bmi2")),
            ("adx", std::arch::is_x86_feature_detected!("adx")),
            ("aes", std::arch::is_x86_feature_detected!("aes")),
        ] {
            if on {
                flags.push(name);
            }
        }
    }
    flags
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work.display());
        std::process::exit(2);
    }
    let mut b = Bench {
        opts,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        hist: History::default(),
        capture: Capture::default(),
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        record: BTreeMap::new(),
        peak_rss_kib: 0,
        audit_rates: Vec::new(),
        ecdsa_per_block: 0.0,
        laps: Vec::new(),
        lap_start: Instant::now(),
    };
    if let Err(e) = run(&mut b) {
        b.attempted += 1;
        b.failed += 1;
        b.errors.push(e);
    }
    let _ = std::fs::remove_dir_all(b.data_dir());
    let _ = std::fs::remove_dir_all(b.side_dir());
    for e in &b.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = b.failed == 0;
    let o = &b.opts;
    let flags = ledgerd_flags(Path::new("DIR"));
    let mut record = vec![
        ("workload".to_string(), json_str(o.workload.name())),
        ("seed".into(), o.seed.to_string()),
        ("seconds".into(), o.seconds.to_string()),
        ("trace".into(), o.trace.to_string()),
        ("rev".into(), json_str(&o.rev)),
        ("nproc".into(), std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpu_flags".into(), format!("[{}]", cpu_flags().iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","))),
        ("ledgerd_flags".into(), format!("[{}]", flags.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","))),
        ("params".into(), format!(
            "{{\"connections\":{CONNECTIONS},\"payload_bytes\":{PAYLOAD_BYTES},\"clue_names\":{},\"zipf_s\":{},\
             \"audit_history\":{AUDIT_HISTORY},\"audit_tail\":{AUDIT_TAIL},\
             \"ingest_round\":{INGEST_ROUND},\"min_rounds\":{MIN_ROUNDS},\"round_audits\":{ROUND_AUDITS},\"mixed_round_s\":{MIXED_ROUND_S},\
             \"mixed_history\":{MIXED_HISTORY},\"mixed_rate\":{},\"setup_reps\":{},\"restarts\":{},\"restart_tail\":{RESTART_TAIL},\"audits\":{AUDITS},\
             \"check_read_s\":{CHECK_READ_SECS},\"p99_chunk\":{P99_CHUNK}}}",
            gen::CLUE_NAMES, gen::ZIPF_S, o.mixed_rate, o.workload.setup_reps(), o.workload.restarts()
        )),
        ("error_ratio".into(), (b.failed as f64 / b.attempted.max(1) as f64).to_string()),
        ("errors".into(), format!("[{}]", b.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(","))),
        ("end_to_end".into(), metrics_json(&b.e2e)),
        ("per_layer".into(), metrics_json(&b.layers)),
    ];
    record.extend(b.record.iter().map(|(k, v)| (k.clone(), v.clone())));
    let record: Vec<String> = record.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"record\":{{{}}}}}", record.join(","));
    if b.opts.trace {
        for (name, (value, unit)) in &b.layers {
            eprintln!("perfbench: {name:<40} {value:>14.4} {unit}");
        }
    }
    let metrics = if b.opts.trace { &b.layers } else { &b.e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        b.attempted.max(1),
        b.failed,
        metrics_json(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
