//! `serve_light`: `Score` traffic over TCP to an in-process server
//! holding many cheap tenants (half ZScore, half IForest), in two phases.
//! Scoring costs microseconds, so the wire codec, event loop, admission
//! queue, batching, monitor and sidecar writes do most of the work.
//!
//! * Nominal: open-loop Poisson arrivals at a fixed rate, each request
//!   timed from when it was due.
//! * Capacity: a pipelined closed loop keeping `MAX_BATCH` requests
//!   outstanding per tenant, so every shard can fill a batch.
//!
//! The server runs one shard per core, and the load runs one connection
//! per shard, each driven by one thread that both sends and reads, so
//! replies held in one connection's order never wait on another shard.
//! Set-up and warm-up use a separate connection, closed before the
//! phases start. Every verdict served is afterwards checked against a
//! local mirror monitor fed the same accepted rows in the same order.
//!
//! The open loop runs well below capacity on purpose: on a 2-core host,
//! open-loop latency at half of capacity moved 2x between identical
//! runs, because queueing magnifies every shift in service speed.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use imdiff_data::synthetic::{generate, Benchmark, LabeledDataset, SizeProfile};
use imdiff_data::{Detector, Mts};
use imdiff_nn::obs::{self, Snapshot};
use imdiff_nn::pool;
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiff_serve::mux::sys::{poll_fds, AsRawFd, PollFd, POLLIN, POLLOUT};
use imdiff_serve::wire::{read_response, scan_frame, write_frame, HEADER_LEN};
use imdiff_serve::{
    ErrorCode, Request, Response, ServeClient, ServeConfig, Server, TenantSpec, WireVerdict,
};
use imdiffusion::{BatchItem, ImDiffusionConfig, PointVerdict, StreamingMonitor};

use crate::layers::{self, ratio, TimedScorer};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::schedule::{poisson_schedule, Chunk, Perturb, TenantStream};
use crate::stats::{
    block_median_rate, latency_from_due_ms, latency_note, lateness_ms, mean, median, percentile,
    residual_us, sliced_tail, tail_percentile, tail_slices,
};
use crate::{Args, SETUP_REPS};

/// Tenant `i` is served by `FAMILIES[i % FAMILIES.len()]`.
const FAMILIES: [DetectorKind; 2] = [DetectorKind::ZScore, DetectorKind::IForest];
const TENANTS: usize = 16;
const WINDOW: usize = 32;
/// Rows per request, equal to the monitor's evaluation hop, so every
/// request completes one evaluation.
const HOP: usize = 4;
/// Nominal-phase arrival rate, requests per second. Fixed: never
/// recomputed from a run.
const NOMINAL_RPS: f64 = 1000.0;
/// Fixed per-request latency limit for `slo_met_frac`: about twice the
/// p99 of a quiet 2-core host (8-13 ms, against a p50 near 5 ms), so a
/// tail that doubles shows as misses while a noisy neighbour (p99 up to
/// 30 ms) costs at most a few percent.
const LATENCY_LIMIT_MS: f64 = 25.0;
const MAX_BATCH: usize = 8;
/// Rows between each tenant's IMSM sidecar writes.
const SNAPSHOT_EVERY: u64 = 1024;
/// Interval of operator `Health` polls on the first load connection.
const HEALTH_EVERY: Duration = Duration::from_millis(100);
const PERTURB: Perturb = Perturb {
    nan_request_frac: 0.1,
    gap_request_frac: 0.05,
    max_gap: 2,
};

const TRAIN_ROWS: usize = 600;
const SOURCE_ROWS: usize = 4000;

fn config() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: WINDOW,
        ddim_steps: Some(4),
        train_steps: 16,
        ..ImDiffusionConfig::quick()
    }
}

fn family(tenant: usize) -> DetectorKind {
    FAMILIES[tenant % FAMILIES.len()]
}

fn tenant_id(tenant: usize) -> String {
    format!("t{tenant:02}")
}

/// Tenant `i`'s request stream; the load generator and the mirror both
/// build it from here, so they see the same rows.
fn tenant_stream(seed: u64, i: usize) -> TenantStream {
    TenantStream::new(seed, i, i * SOURCE_ROWS / TENANTS, HOP, PERTURB)
}

/// What became of one request. Served verdicts are kept as a digest, so
/// the harness's own memory stays small next to the server's.
#[derive(Debug, Clone)]
enum Reply {
    Verdicts(Served),
    Refused,
    Failed(String),
}

/// A digest of the verdicts one request earned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Served {
    count: usize,
    degraded: bool,
    digest: u64,
}

impl Served {
    fn of(verdicts: impl Iterator<Item = (u64, f64, u32, bool, bool)>) -> Served {
        let mut s = Served {
            count: 0,
            degraded: false,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        for (index, score, votes, anomalous, degraded) in verdicts {
            s.count += 1;
            s.degraded |= degraded;
            for word in [
                index,
                score.to_bits(),
                votes as u64,
                anomalous as u64,
                degraded as u64,
            ] {
                for b in word.to_le_bytes() {
                    s.digest ^= b as u64;
                    s.digest = s.digest.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        s
    }

    fn of_wire(v: &[WireVerdict]) -> Served {
        Served::of(
            v.iter()
                .map(|v| (v.index, v.score, v.votes, v.anomalous, v.degraded)),
        )
    }

    fn of_local(v: &[PointVerdict]) -> Served {
        Served::of(
            v.iter()
                .map(|v| (v.index, v.score, v.votes, v.anomalous, v.degraded)),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Untraced,
    Nominal,
    Capacity,
}

/// One score request as sent and answered. Its rows are not kept: the
/// mirror regenerates them from the tenant's seeded stream.
struct Record {
    tenant: usize,
    rows: usize,
    phase: Phase,
    due: Instant,
    sent: Instant,
    done: Instant,
    outcome: Reply,
}

struct Deployment {
    server: Server,
    checkpoints: Vec<PathBuf>,
    streams: Vec<TenantStream>,
    records: Vec<Record>,
    times: SetupTimes,
}

/// Wall time of one set-up and of its phases.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    fit_s: f64,
    checkpoint_ms: f64,
    server_start_ms: f64,
    warm_ms: f64,
}

fn connect(addr: std::net::SocketAddr) -> ServeClient {
    let mut c = ServeClient::connect(addr).expect("connect to the server");
    c.set_timeout(Some(Duration::from_secs(30)))
        .expect("socket timeout");
    c
}

/// Fit one detector per family, write every tenant's checkpoint, start
/// the server, and warm every tenant's monitor window.
fn deploy(data: &LabeledDataset, seed: u64, dir: &Path) -> Deployment {
    let cfg = config();
    let channels = data.train.dim();
    let t0 = Instant::now();
    let mut fitted: Vec<(DetectorKind, AnyDetector)> = Vec::new();
    for kind in FAMILIES {
        let mut det = AnyDetector::new(kind, cfg.clone(), seed);
        det.fit(&data.train).expect("fit");
        fitted.push((kind, det));
    }
    let fit_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    std::fs::create_dir_all(dir).expect("work directory");
    let checkpoints: Vec<PathBuf> = (0..TENANTS)
        .map(|i| {
            let path = dir.join(format!("{}.imde", tenant_id(i)));
            let det = &fitted
                .iter()
                .find(|(k, _)| *k == family(i))
                .expect("fitted")
                .1;
            det.save(&path).expect("save checkpoint");
            path
        })
        .collect();
    let checkpoint_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| TenantSpec {
            id: tenant_id(i),
            checkpoint: checkpoints[i].clone(),
            cfg: cfg.clone(),
            seed,
            channels,
            hop: HOP,
            holdout: None,
            drift_policy: None,
            family: family(i),
            escalation: None,
        })
        .collect();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: shards(),
            max_batch: MAX_BATCH,
            // Far above the most requests ever outstanding, and queue
            // budgets far above any healthy wait: a refusal or a shed
            // verdict means the run itself went wrong.
            max_queue: 4096,
            shed_after: Duration::from_secs(30),
            deadline: Duration::from_secs(60),
            reload_poll: None,
            snapshot_every: Some(SNAPSHOT_EVERY),
            ..ServeConfig::default()
        },
        tenants,
    )
    .expect("server starts");
    let server_start_ms = t2.elapsed().as_secs_f64() * 1e3;

    // Warm-up: clean chunks until each tenant's window is full and its
    // first evaluation has answered. These rows are part of the stream.
    let t3 = Instant::now();
    let mut control = connect(server.addr());
    let mut streams: Vec<TenantStream> = (0..TENANTS).map(|i| tenant_stream(seed, i)).collect();
    let mut records = Vec::new();
    for (i, stream) in streams.iter_mut().enumerate() {
        loop {
            let chunk = stream.next_chunk(&data.test, true);
            let sent = Instant::now();
            let rows = chunk.rows.len();
            let r = control.score(&tenant_id(i), 0, chunk.rows);
            let done = Instant::now();
            let (outcome, answered) = match r {
                Ok(s) => (
                    Reply::Verdicts(Served::of_wire(&s.verdicts)),
                    !s.verdicts.is_empty(),
                ),
                Err(e) => panic!("warm-up request failed: {e}"),
            };
            records.push(Record {
                tenant: i,
                rows,
                phase: Phase::Warm,
                due: sent,
                sent,
                done,
                outcome,
            });
            if answered {
                break;
            }
        }
    }
    let warm_ms = t3.elapsed().as_secs_f64() * 1e3;
    drop(control);
    Deployment {
        server,
        checkpoints,
        streams,
        records,
        times: SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            fit_s,
            checkpoint_ms,
            server_start_ms,
            warm_ms,
        },
    }
}

/// How a phase schedules its requests.
#[derive(Clone)]
enum Plan {
    /// Open loop: `(offset_s, tenant)` from the phase start.
    Open(Vec<(f64, usize)>),
    /// Closed loop: `depth` requests outstanding per tenant until the
    /// phase has run this long.
    Closed { depth: usize, seconds: f64 },
}

/// Client-side measurements of one phase.
#[derive(Default)]
struct PhaseStats {
    start: Option<Instant>,
    end: Option<Instant>,
    encode_ns: u64,
    encoded: u64,
    decode_ns: u64,
    decoded: u64,
    frame_bytes: u64,
    health_polls: u64,
    health_errors: u64,
    /// A sample of request frames, for timing the server-side decode.
    frames: Vec<Vec<u8>>,
}

impl PhaseStats {
    fn absorb(&mut self, o: PhaseStats) {
        self.encode_ns += o.encode_ns;
        self.encoded += o.encoded;
        self.decode_ns += o.decode_ns;
        self.decoded += o.decoded;
        self.frame_bytes += o.frame_bytes;
        self.health_polls += o.health_polls;
        self.health_errors += o.health_errors;
        self.frames.extend(o.frames);
    }
}

/// What a connection expects its next reply to answer.
enum Pending {
    Score(usize),
    Health,
}

/// The start of every phase is excluded from its metrics: the first
/// batches of a new shape and the switch between open and closed loop
/// run measurably slower than the steady state the phase measures.
const PHASE_WARM: Duration = Duration::from_secs(1);
/// Blocks a closed-loop phase's completions are cut into; the phase's
/// rate is the median block rate.
const RATE_BLOCKS: usize = 12;

/// Longest a load thread blocks waiting for a reply before it looks at
/// its schedule again.
const MAX_WAIT: Duration = Duration::from_millis(50);
/// A phase gives up on replies that have not come after this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One load connection, driven by one thread that both sends (on
/// schedule, or as replies free slots) and reads. Replies on a
/// connection come back in request order.
struct LoadConn<'a> {
    stream: &'a TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: std::collections::VecDeque<Pending>,
    records: Vec<Record>,
    stats: PhaseStats,
    timed: bool,
    phase: Phase,
}

impl LoadConn<'_> {
    fn send_score(&mut self, tenant: usize, chunk: Chunk, due: Instant) {
        let rows = chunk.rows.len();
        let req = Request::Score {
            tenant: tenant_id(tenant),
            seq: 0,
            start_row: u64::MAX,
            gap_before: chunk.gap_before,
            rows: chunk.rows,
        };
        let t = Instant::now();
        let bytes = req.to_bytes();
        if self.timed {
            self.stats.encode_ns += t.elapsed().as_nanos() as u64;
            self.stats.encoded += 1;
            self.stats.frame_bytes += bytes.len() as u64;
            if self.stats.frames.len() < 256 {
                self.stats.frames.push(bytes.clone());
            }
        }
        self.wbuf.extend_from_slice(&bytes);
        let flushed = self.flush();
        let sent = Instant::now();
        self.pending.push_back(Pending::Score(self.records.len()));
        self.records.push(Record {
            tenant,
            rows,
            phase: self.phase,
            due,
            sent,
            done: sent,
            outcome: match flushed {
                Ok(()) => Reply::Failed("no reply".into()),
                Err(e) => Reply::Failed(e),
            },
        });
    }

    /// Blocks until a reply arrives or `until`, whichever is first. Waits
    /// under a millisecond sleep instead: `poll` counts in milliseconds,
    /// and the open loop must send on time.
    fn wait(&self, until: Instant) {
        let left = until.saturating_duration_since(Instant::now());
        if left >= Duration::from_millis(1) {
            let events = if self.wbuf.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), events)];
            // An error here resurfaces on the next read or write.
            let _ = poll_fds(&mut fds, left.as_millis() as i32);
        } else {
            std::thread::sleep(left);
        }
    }

    fn send_health(&mut self) {
        self.wbuf.extend_from_slice(&Request::Health.to_bytes());
        self.pending.push_back(Pending::Health);
        let _ = self.flush();
    }

    /// Writes as much of the write buffer as the socket takes now.
    fn flush(&mut self) -> Result<(), String> {
        while !self.wbuf.is_empty() {
            match (&*self.stream).write(&self.wbuf) {
                Ok(0) => return Err("connection closed".into()),
                Ok(n) => drop(self.wbuf.drain(..n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }

    /// Reads what has arrived and resolves every complete reply. Returns
    /// the tenants whose score requests were answered.
    fn read(&mut self) -> Result<Vec<usize>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match (&*self.stream).read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        let mut answered = Vec::new();
        let mut pos = 0;
        loop {
            let t = Instant::now();
            let Some((kind, total)) = scan_frame(&self.rbuf[pos..]).map_err(|e| e.to_string())?
            else {
                break;
            };
            let resp = Response::decode(kind, &self.rbuf[pos + HEADER_LEN..pos + total]);
            pos += total;
            if self.timed {
                self.stats.decode_ns += t.elapsed().as_nanos() as u64;
                self.stats.decoded += 1;
            }
            let done = Instant::now();
            match self.pending.pop_front() {
                Some(Pending::Health) => {
                    self.stats.health_polls += 1;
                    if !matches!(resp, Ok(Response::Health { .. })) {
                        self.stats.health_errors += 1;
                    }
                }
                Some(Pending::Score(i)) => {
                    let r = &mut self.records[i];
                    r.done = done;
                    r.outcome = match resp {
                        Ok(Response::Verdicts { verdicts, .. }) => {
                            Reply::Verdicts(Served::of_wire(&verdicts))
                        }
                        Ok(Response::Error {
                            code: ErrorCode::Overloaded | ErrorCode::Timeout,
                            ..
                        }) => Reply::Refused,
                        Ok(other) => Reply::Failed(format!("unexpected reply {other:?}")),
                        Err(e) => Reply::Failed(e.to_string()),
                    };
                    answered.push(r.tenant);
                }
                None => return Err("reply without a request".into()),
            }
        }
        self.rbuf.drain(..pos);
        Ok(answered)
    }
}

/// Drives one connection through a phase: `tenants` are the streams this
/// connection carries, and an open-loop `plan` holds only their arrivals.
/// Returns when the phase's sending ended.
fn drive(
    conn: &mut LoadConn<'_>,
    plan: &Plan,
    tenants: &mut [(usize, &mut TenantStream)],
    source: &Mts,
    start: Instant,
    health: bool,
) -> Instant {
    let stream_of = |tenants: &mut [(usize, &mut TenantStream)], t: usize| -> usize {
        tenants
            .iter()
            .position(|(id, _)| *id == t)
            .expect("tenant on this connection")
    };
    let mut next_health = health.then_some(start + HEALTH_EVERY);
    let mut next = 0;
    let mut prepared: Option<Chunk> = None;
    let end = match plan {
        Plan::Open(_) => None,
        Plan::Closed { depth, seconds } => {
            for _ in 0..*depth {
                for (t, stream) in tenants.iter_mut() {
                    let chunk = stream.next_chunk(source, false);
                    conn.send_score(*t, chunk, Instant::now());
                }
            }
            Some(start + Duration::from_secs_f64(*seconds))
        }
    };
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        let mut wake = now + MAX_WAIT;
        if let Plan::Open(schedule) = plan {
            while let Some(&(offset, t)) = schedule.get(next) {
                let s = stream_of(tenants, t);
                // The chunk is built ahead of its due time, so only the
                // encode and the write happen once it is due.
                let chunk = prepared.get_or_insert_with(|| tenants[s].1.next_chunk(source, false));
                let due = start + Duration::from_secs_f64(offset);
                if Instant::now() < due {
                    wake = wake.min(due);
                    break;
                }
                let chunk = std::mem::replace(
                    chunk,
                    Chunk {
                        gap_before: 0,
                        rows: Vec::new(),
                    },
                );
                prepared = None;
                conn.send_score(t, chunk, due);
                next += 1;
            }
        }
        if let Some(at) = next_health {
            if now >= at {
                conn.send_health();
                next_health = Some(at + HEALTH_EVERY);
            }
            wake = wake.min(at);
        }
        if let Some(end) = end.filter(|&e| e > now) {
            wake = wake.min(end);
        }
        let _ = conn.flush();
        match conn.read() {
            Ok(answered) => {
                if !answered.is_empty() {
                    last_progress = Instant::now();
                }
                if let Some(end) = end {
                    for t in answered {
                        if Instant::now() < end {
                            let s = stream_of(tenants, t);
                            let chunk = tenants[s].1.next_chunk(source, false);
                            conn.send_score(t, chunk, Instant::now());
                        }
                    }
                }
            }
            Err(e) => {
                fail_pending(conn, &e);
                break;
            }
        }
        let sending_done = match (plan, end) {
            (Plan::Open(schedule), _) => next >= schedule.len(),
            (_, Some(end)) => Instant::now() >= end,
            _ => true,
        };
        if sending_done && conn.pending.is_empty() {
            break;
        }
        if last_progress.elapsed() > REPLY_TIMEOUT && !conn.pending.is_empty() {
            fail_pending(conn, "no reply within the timeout");
            break;
        }
        conn.wait(wake);
    }
    end.unwrap_or_else(Instant::now)
}

fn fail_pending(conn: &mut LoadConn<'_>, why: &str) {
    while let Some(p) = conn.pending.pop_front() {
        if let Pending::Score(i) = p {
            conn.records[i].outcome = Reply::Failed(why.to_string());
        }
    }
}

/// Runs one phase over the load connections (connection `c` carries the
/// tenants `t` with `t % conns.len() == c`, the same split the server
/// uses for its shards) and appends its records.
fn run_phase(
    conns: &[TcpStream],
    plan: Plan,
    phase: Phase,
    streams: &mut [TenantStream],
    source: &Mts,
    records: &mut Vec<Record>,
    timed: bool,
) -> PhaseStats {
    let n = conns.len();
    let mut per_conn: Vec<Vec<(usize, &mut TenantStream)>> = (0..n).map(|_| Vec::new()).collect();
    for (t, s) in streams.iter_mut().enumerate() {
        per_conn[t % n].push((t, s));
    }
    let start = Instant::now();
    let results: Vec<(Vec<Record>, PhaseStats, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(c, (mut tenants, stream))| {
                let plan = match &plan {
                    Plan::Open(s) => {
                        Plan::Open(s.iter().copied().filter(|&(_, t)| t % n == c).collect())
                    }
                    closed => closed.clone(),
                };
                scope.spawn(move || {
                    let mut conn = LoadConn {
                        stream,
                        rbuf: Vec::with_capacity(64 * 1024),
                        wbuf: Vec::new(),
                        pending: Default::default(),
                        records: Vec::new(),
                        stats: PhaseStats::default(),
                        timed,
                        phase,
                    };
                    let end = drive(&mut conn, &plan, &mut tenants, source, start, c == 0);
                    (conn.records, conn.stats, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut stats = PhaseStats {
        start: Some(start),
        ..PhaseStats::default()
    };
    let mut end = start;
    for (recs, s, e) in results {
        records.extend(recs);
        stats.absorb(s);
        end = end.max(e);
    }
    stats.end = Some(end);
    stats
}

/// The mirror's verdict on the served stream, plus what it measured.
#[derive(Default)]
struct MirrorReport {
    mismatches: Vec<String>,
    /// `(score, ground truth)` of every verdict, for quality.
    scored: Vec<(f64, bool)>,
    b1_ns: u64,
    b1_items: u64,
    bmax_ns: u64,
    bmax_items: u64,
    scorer_ns: u64,
    scored_windows: u64,
    sidecar_ms: Vec<f64>,
}

/// Replays every accepted request of the given tenants, in order, through
/// a local monitor loaded from the same checkpoint — rows regenerated from
/// each tenant's seeded stream — and compares the verdicts of each
/// request bit for bit with what the server answered. In `timed` mode,
/// groups of `max_batch` requests alternate between one-at-a-time and
/// batched pushes.
#[allow(clippy::too_many_arguments)]
fn mirror_tenants(
    cfg: &ImDiffusionConfig,
    seed: u64,
    data: &LabeledDataset,
    tenants: &[usize],
    checkpoints: &[PathBuf],
    records: &[Record],
    timed: bool,
    sidecar_dir: &Path,
) -> MirrorReport {
    let mut rep = MirrorReport::default();
    let channels = data.train.dim();
    for &t in tenants {
        let det = AnyDetector::load(cfg, seed, channels, &checkpoints[t]).expect("mirror loads");
        let mut mon =
            StreamingMonitor::new(TimedScorer::new(det), channels, HOP).expect("mirror monitor");
        let mut stream = tenant_stream(seed, t);
        // Every request of the tenant drew a chunk, refused ones too, so
        // regenerate in send order and keep what the server ingested.
        let mut accepted: Vec<(&Record, Chunk)> = Vec::new();
        for r in records.iter().filter(|r| r.tenant == t) {
            let chunk = stream.next_chunk(&data.test, r.phase == Phase::Warm);
            match &r.outcome {
                Reply::Refused => {}
                Reply::Failed(e) => {
                    rep.mismatches.push(format!(
                        "tenant {t}: request failed ({e}); stream state unknown"
                    ));
                    break;
                }
                Reply::Verdicts(_) => accepted.push((r, chunk)),
            }
        }
        let stream = tenant_stream(seed, t);
        for (group_no, group) in accepted.chunks(MAX_BATCH).enumerate() {
            let items: Vec<BatchItem> = group
                .iter()
                .map(|(_, c)| BatchItem {
                    gap_before: c.gap_before as usize,
                    rows: c.rows.clone(),
                    shed: false,
                })
                .collect();
            let singles = timed && group_no % 2 == 0;
            let before = mon.detector().ns.get();
            let t0 = Instant::now();
            let replies: Vec<_> = if singles {
                items
                    .iter()
                    .flat_map(|it| mon.push_batch(std::slice::from_ref(it)))
                    .collect()
            } else {
                mon.push_batch(&items)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            rep.scorer_ns += mon.detector().ns.get() - before;
            let (total_ns, total_items) = if singles {
                (&mut rep.b1_ns, &mut rep.b1_items)
            } else {
                (&mut rep.bmax_ns, &mut rep.bmax_items)
            };
            *total_ns += ns;
            *total_items += items.len() as u64;
            for ((r, _), local) in group.iter().zip(replies) {
                let Reply::Verdicts(served) = &r.outcome else {
                    unreachable!("only answered requests are replayed");
                };
                let mine = Served::of_local(&local.verdicts);
                if local.error.is_some() || *served != mine {
                    rep.mismatches.push(format!(
                        "tenant {t}: served verdicts {served:?} differ from mirror {mine:?}"
                    ));
                }
                if timed {
                    rep.scored.extend(local.verdicts.iter().map(|v| {
                        (
                            v.score,
                            data.labels[stream.source_index(v.index, data.test.len())],
                        )
                    }));
                }
            }
        }
        rep.scored_windows += mon.detector().windows.get();
        if timed {
            for i in 0..3 {
                let path = sidecar_dir.join(format!("mirror-{t}-{i}.imde"));
                let t0 = Instant::now();
                mon.checkpoint_stream(&path).expect("sidecar write");
                rep.sidecar_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    rep
}

/// Verdict replies and rows per second of a closed-loop phase, over the
/// replies that landed after the phase's warm-up and before its end (see
/// [`block_median_rate`]).
fn closed_loop_rates(records: &[Record], phase: Phase, stats: &PhaseStats) -> (f64, f64) {
    let (start, end) = (stats.start.expect("started"), stats.end.expect("ended"));
    let from = start + PHASE_WARM;
    let done: Vec<&Record> = records
        .iter()
        .filter(|r| r.phase == phase && r.done > from && r.done <= end)
        .filter(|r| matches!(&r.outcome, Reply::Verdicts(v) if !v.degraded))
        .collect();
    let times: Vec<f64> = done.iter().map(|r| (r.done - from).as_secs_f64()).collect();
    let rate = block_median_rate(&times, RATE_BLOCKS);
    let rows_per_request = ratio(
        done.iter().map(|r| r.rows).sum::<usize>() as f64,
        done.len() as f64,
    );
    (rate, rate * rows_per_request)
}

/// The server's observability snapshot, fetched through the public
/// `ObsSnapshot` op on an idle load connection.
fn obs_snapshot(conn: &TcpStream) -> Snapshot {
    conn.set_nonblocking(false).expect("blocking");
    write_frame(
        &mut &*conn,
        Request::ObsSnapshot.kind(),
        &Request::ObsSnapshot.encode_payload(),
    )
    .expect("send ObsSnapshot");
    let resp = read_response(&mut &*conn).expect("ObsSnapshot reply");
    conn.set_nonblocking(true).expect("nonblocking");
    match resp {
        Some(Response::ObsJson { json }) => {
            Snapshot::from_json(&json).expect("obs snapshot parses")
        }
        other => panic!("ObsSnapshot answered with {other:?}"),
    }
}

/// Shards the server runs: one per core, at most one per tenant.
fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(TENANTS)
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let data = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: TRAIN_ROWS,
            test_len: SOURCE_ROWS,
        },
        args.seed,
    );
    let cfg = config();
    let channels = data.train.dim();

    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut deployed = None;
    for rep in 0..SETUP_REPS {
        let d = deploy(&data, args.seed, &work.join(format!("setup{rep}")));
        times.push(d.times);
        if rep + 1 == SETUP_REPS {
            deployed = Some(d);
        } else {
            d.server.drain();
        }
    }
    let mut d = deployed.expect("at least one set-up");
    let cfg = &cfg;
    let data = &data;
    let setup = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    // One load connection per shard; set-up's connection is closed, so
    // the run never holds more connections than the pool has threads.
    let conns: Vec<TcpStream> = (0..shards())
        .map(|_| {
            let c = TcpStream::connect(d.server.addr()).expect("load connection");
            c.set_nodelay(true).expect("nodelay");
            c.set_nonblocking(true).expect("nonblocking");
            c
        })
        .collect();

    let nominal_s = args.seconds * 0.5;
    let capacity_s = args.seconds * 0.5;
    let mut records = std::mem::take(&mut d.records);

    let untraced = args.trace.then(|| {
        run_phase(
            &conns,
            Plan::Closed {
                depth: MAX_BATCH,
                seconds: args.seconds * 0.25,
            },
            Phase::Untraced,
            &mut d.streams,
            &data.test,
            &mut records,
            false,
        )
    });

    obs::set_enabled(args.trace);
    let s0 = args.trace.then(|| obs_snapshot(&conns[0]));
    let schedule = poisson_schedule(args.seed, NOMINAL_RPS, nominal_s, TENANTS);
    let nominal = run_phase(
        &conns,
        Plan::Open(schedule),
        Phase::Nominal,
        &mut d.streams,
        &data.test,
        &mut records,
        args.trace,
    );
    // Peak memory through set-up and the open loop, whose request count
    // the schedule fixes: the closed loop would add one harness record
    // per completed request, tying memory to throughput.
    let peak_rss = peak_rss_mb();
    let s1 = args.trace.then(|| obs_snapshot(&conns[0]));
    let capacity = run_phase(
        &conns,
        Plan::Closed {
            depth: MAX_BATCH,
            seconds: capacity_s,
        },
        Phase::Capacity,
        &mut d.streams,
        &data.test,
        &mut records,
        args.trace,
    );
    let s2 = args.trace.then(|| obs_snapshot(&conns[0]));
    obs::set_enabled(false);
    drop(conns);
    d.server.drain();

    // Correctness: replay everything through local mirrors.
    let mirror = {
        let threads = if args.trace { 1 } else { pool::max_threads() };
        let groups: Vec<Vec<usize>> = (0..threads)
            .map(|g| (0..TENANTS).filter(|t| t % threads == g).collect())
            .collect();
        let sidecars = work.join("mirror");
        std::fs::create_dir_all(&sidecars).expect("mirror directory");
        let reports: Vec<MirrorReport> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .map(|g| {
                    let (records, checkpoints, sidecars) = (&records, &d.checkpoints, &sidecars);
                    s.spawn(move || {
                        let run = || {
                            mirror_tenants(
                                cfg,
                                args.seed,
                                data,
                                g,
                                checkpoints,
                                records,
                                args.trace,
                                sidecars,
                            )
                        };
                        if threads > 1 {
                            pool::with_threads(1, run)
                        } else {
                            run()
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mirror thread"))
                .collect()
        });
        let mut all = MirrorReport::default();
        for r in reports {
            all.mismatches.extend(r.mismatches);
            all.scored.extend(r.scored);
            all.b1_ns += r.b1_ns;
            all.b1_items += r.b1_items;
            all.bmax_ns += r.bmax_ns;
            all.bmax_items += r.bmax_items;
            all.scorer_ns += r.scorer_ns;
            all.scored_windows += r.scored_windows;
            all.sidecar_ms.extend(r.sidecar_ms);
        }
        all
    };
    for m in mirror.mismatches.iter().take(5) {
        out.mismatch(m.clone());
    }
    if mirror.mismatches.len() > 5 {
        out.mismatch(format!("... {} mismatches in all", mirror.mismatches.len()));
    }

    // Nominal phase: latency from due time, lateness, the SLO.
    let in_phase = |p: Phase| records.iter().filter(move |r| r.phase == p);
    let ok = |r: &Record| matches!(&r.outcome, Reply::Verdicts(v) if !v.degraded);
    let steady = nominal.start.expect("started") + PHASE_WARM;
    let timed: Vec<&Record> = in_phase(Phase::Nominal)
        .filter(|r| r.due >= steady)
        .collect();
    let latencies: Vec<f64> = timed
        .iter()
        .filter(|r| ok(r))
        .map(|r| latency_from_due_ms(r.due, r.done))
        .collect();
    let sent_nominal = timed.len();
    let met = timed
        .iter()
        .filter(|r| ok(r) && latency_from_due_ms(r.due, r.done) <= LATENCY_LIMIT_MS)
        .count();
    let window_s = nominal_s - PHASE_WARM.as_secs_f64();
    let expected = NOMINAL_RPS * window_s;
    let slices = tail_slices(expected);
    let tail_p = tail_percentile(expected / slices as f64);
    let tail_samples: Vec<(f64, f64)> = timed
        .iter()
        .filter(|r| ok(r))
        .map(|r| {
            (
                (r.due - steady).as_secs_f64(),
                latency_from_due_ms(r.due, r.done),
            )
        })
        .collect();

    let (capacity_rps, rows_per_s) = closed_loop_rates(&records, Phase::Capacity, &capacity);

    let measured: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.phase, Phase::Nominal | Phase::Capacity))
        .collect();
    let refused = measured
        .iter()
        .filter(|r| matches!(r.outcome, Reply::Refused))
        .count();
    let errors = measured
        .iter()
        .filter(|r| matches!(r.outcome, Reply::Failed(_)))
        .count();
    let degraded = measured
        .iter()
        .filter(|r| matches!(&r.outcome, Reply::Verdicts(v) if v.degraded))
        .count();
    let failed = refused + errors + degraded;
    out.attempted = measured.len() as u64;
    out.failed = failed as u64;
    if nominal.health_errors + capacity.health_errors > 0 {
        out.mismatch("a Health poll was not answered with a health report".into());
    }
    out.note(format!(
        "serve_light: {TENANTS} tenants ({}), {HOP} rows/request; nominal {NOMINAL_RPS} req/s \
         open loop for {nominal_s} s ({sent_nominal} sent after a {PHASE_WARM:?} warm-up; tail: \
         median over {slices} time slices of p{tail_p}, fixed for {expected} expected); \
         capacity {MAX_BATCH} outstanding per tenant for {capacity_s} s; {} health polls",
        FAMILIES.map(|k| k.name()).join("/"),
        nominal.health_polls + capacity.health_polls,
    ));
    out.note(latency_note(&latencies, LATENCY_LIMIT_MS));
    if !args.trace {
        out.set("setup_s", setup(|t| t.total_s));
        out.set("peak_rss_mb", peak_rss);
        out.set("detect_rows_per_s", rows_per_s);
        out.set("capacity_rps", capacity_rps);
        out.set("score_p50_ms", median(&latencies));
        out.set("slo_met_frac", ratio(met as f64, sent_nominal as f64));
        out.set(
            "ok_frac",
            ratio((measured.len() - failed) as f64, measured.len() as f64),
        );
        return out;
    }

    // ---- Traced run: per-layer metrics ----
    out.set(
        "score_tail_ms",
        sliced_tail(&tail_samples, window_s, slices, tail_p),
    );
    let (s0, s1, s2) = (
        s0.expect("traced"),
        s1.expect("traced"),
        s2.expect("traced"),
    );
    let untraced = untraced.expect("traced runs measure untraced first");
    let (untraced_rps, _) = closed_loop_rates(&records, Phase::Untraced, &untraced);
    out.set("trace.overhead_frac", ratio(untraced_rps, capacity_rps));

    let late: Vec<f64> = in_phase(Phase::Nominal)
        .map(|r| lateness_ms(r.due, r.sent))
        .collect();
    out.set("loadgen.late_p99_ms", percentile(&late, 99.0));
    out.set("loadgen.sent", measured.len() as f64);
    out.set("loadgen.ok", (measured.len() - failed) as f64);
    out.set("loadgen.refused", refused as f64);
    out.set("loadgen.degraded", degraded as f64);
    out.set("loadgen.errors", errors as f64);

    let enc = ratio(
        (nominal.encode_ns + capacity.encode_ns) as f64 / 1e3,
        (nominal.encoded + capacity.encoded) as f64,
    );
    let resp_dec = ratio(
        (nominal.decode_ns + capacity.decode_ns) as f64 / 1e3,
        (nominal.decoded + capacity.decoded) as f64,
    );
    let frames: Vec<&Vec<u8>> = nominal.frames.iter().chain(&capacity.frames).collect();
    let req_dec = layers::time_us(3, 50.0, || {
        for f in &frames {
            std::hint::black_box(Request::from_bytes(f).expect("own frame decodes"));
        }
    }) / frames.len().max(1) as f64;
    out.set("wire.req_encode_us", enc);
    out.set("wire.req_decode_us", req_dec);
    out.set("wire.resp_decode_us", resp_dec);
    out.set(
        "wire.req_bytes",
        ratio(
            (nominal.frame_bytes + capacity.frame_bytes) as f64,
            (nominal.encoded + capacity.encoded) as f64,
        ),
    );

    let batches = layers::counter_delta(&s1, &s2, "serve.batches") as f64;
    let items = layers::counter_delta(&s1, &s2, "serve.batch_items") as f64;
    out.set("server.batch_items_mean", ratio(items, batches));
    out.set(
        "server.batch_fill",
        ratio(items, batches) / MAX_BATCH as f64,
    );
    let (waits, wait_sum) = layers::hist_delta(&s0, &s1, "serve.queue_wait_s");
    out.set(
        "server.queue_wait_ms_mean",
        ratio(wait_sum * 1e3, waits as f64),
    );
    for (metric, counter) in [
        ("server.shed", "serve.shed"),
        ("server.timeouts", "serve.timeouts"),
        ("server.overloaded", "serve.overloaded"),
    ] {
        out.set(metric, layers::counter_delta(&s0, &s2, counter) as f64);
    }

    let b1 = ratio(mirror.b1_ns as f64 / 1e3, mirror.b1_items as f64);
    let items_all = (mirror.b1_items + mirror.bmax_items) as f64;
    out.set("monitor.us_per_item.b1", b1);
    out.set(
        "monitor.us_per_item.bmax",
        ratio(mirror.bmax_ns as f64 / 1e3, mirror.bmax_items as f64),
    );
    out.set(
        "monitor.self_us_per_item",
        ratio(
            (mirror.b1_ns + mirror.bmax_ns).saturating_sub(mirror.scorer_ns) as f64 / 1e3,
            items_all,
        ),
    );
    out.set(
        "monitor.evals_per_item",
        ratio(mirror.scored_windows as f64, items_all),
    );
    out.set("persist.sidecar_write_ms", median(&mirror.sidecar_ms));

    // Client latency from the actual send, nominal phase (mostly batches
    // of one), minus wire codec and one-item monitor push (which holds
    // the scorer).
    let client_us = mean(
        &in_phase(Phase::Nominal)
            .filter(|r| ok(r))
            .map(|r| (r.done - r.sent).as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    out.set(
        "server.residual_us",
        residual_us(client_us, &[enc, req_dec, resp_dec, b1]),
    );

    out.set("setup.fit_s", setup(|t| t.fit_s));
    out.set("setup.checkpoint_ms", setup(|t| t.checkpoint_ms));
    out.set("setup.server_start_ms", setup(|t| t.server_start_ms));
    out.set("setup.warm_ms", setup(|t| t.warm_ms));

    // Registry and scorer costs of every family this workload serves.
    let window = data.test.slice_time(0, WINDOW);
    for kind in FAMILIES {
        let t = (0..TENANTS)
            .find(|&t| family(t) == kind)
            .expect("tenant of family");
        out.set(
            layers::family_metric("registry.load_ms", kind),
            layers::registry_load_ms(cfg, args.seed, channels, &d.checkpoints[t]),
        );
        let det = AnyDetector::load(cfg, args.seed, channels, &d.checkpoints[t]).expect("loads");
        out.set(
            layers::family_metric("scorer.us_per_window", kind),
            layers::scorer_us_per_window(&det, &window),
        );
    }
    layers::pool_region(&mut out);
    layers::inference_counts(&mut out, &s0, &s2);

    // Pool speed-up: one full batch of windows at one thread and at the
    // pool's width, through the first tenant's scorer.
    let windows: Vec<Mts> = (0..MAX_BATCH)
        .map(|i| data.test.slice_time(i * WINDOW, WINDOW))
        .collect();
    let batch: Vec<(&Mts, Option<&[bool]>)> = windows.iter().map(|w| (w, None)).collect();
    let det0 = AnyDetector::load(cfg, args.seed, channels, &d.checkpoints[0]).expect("loads");
    use imdiffusion::WindowScorer;
    let wide = layers::time_us(3, 200.0, || drop(det0.score_windows(&batch)));
    let narrow = pool::with_threads(1, || {
        layers::time_us(3, 200.0, || drop(det0.score_windows(&batch)))
    });
    out.set("pool.speedup", ratio(narrow, wide));

    // Quality of the served verdicts against the source labels.
    let (scores, truth): (Vec<f64>, Vec<bool>) = mirror.scored.iter().copied().unzip();
    layers::quality(&mut out, &scores, &truth);

    out.zero_bypassed(&[
        "registry.load_ms",
        "scorer.us_per_window",
        "infer.",
        "model.",
        "kernel.",
    ]);
    out
}
