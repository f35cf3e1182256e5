//! The multi-tenant scoring server.
//!
//! # Architecture
//!
//! ```text
//!             event loop (one thread)       shard workers (own the monitors)
//!  client ──► ┌─────────────────────┐      ┌───────────────────────────────┐
//!  client ──► │ poll: accept, read, │ ──►  │ shard 0: tenants {a, c, ...}  │
//!  client ──► │ frame, dispatch,    │      │ shard 1: tenants {b, d, ...}  │
//!      ...    │ flush slot-ordered  │ ◄──  └───────────────────────────────┘
//!  client ──► │ replies, backpress. │  completions  ▲ swap commands
//!             └─────────────────────┘        checkpoint watcher
//! ```
//!
//! The data plane is a single readiness-multiplexed event loop (see
//! [`crate::mux`]): non-blocking accept/read/write driven by `poll(2)`,
//! per-connection frame state machines with zero-copy payload decode,
//! and bounded write buffering with watermark backpressure. Thread count
//! is `1 (loop) + shards + watcher` regardless of connection count —
//! the old design burned two OS threads per connection.
//!
//! [`imdiffusion::StreamingMonitor`] holds `Rc`-based tensors and is not
//! `Send`, so every monitor is **created and mutated on exactly one shard
//! thread**. Everything that crosses threads is plain data: score jobs
//! (rows + a single-use [`ReplyTx`]), [`AnySpec`] envelope snapshots
//! for hot reloads, and atomically-updated health/generation counters.
//! Shards answer by posting `(connection, slot, response)` completions
//! that wake the loop; the loop flushes each connection's replies in
//! strict request order however completions interleave.
//!
//! # Batching and fidelity
//!
//! A shard coalesces up to `max_batch` queued requests **for one tenant**
//! into a single [`StreamingMonitor::push_batch`] call, waiting at most
//! `max_wait` for the batch to fill. `push_batch` is bit-identical to the
//! equivalent sequence of sequential pushes (enforced by the core test
//! suite), so batching changes throughput, never verdicts.
//!
//! # Admission control
//!
//! * queue full → immediate [`ErrorCode::Overloaded`]; rows not ingested.
//! * queued longer than `deadline` → [`ErrorCode::Timeout`]; rows not
//!   ingested. In both cases a pipelining client that moves on without
//!   resending must declare the dropped rows via `gap_before`.
//! * queued longer than `shed_after` (but within the deadline) → the
//!   request is *load-shed*: rows are ingested and verdicts returned, but
//!   any evaluation runs on the z-score fallback (flagged `degraded`)
//!   instead of paying for ensemble inference.
//!
//! # Hot reload
//!
//! The watcher polls each tenant's checkpoint file; when its (mtime, len)
//! stamp changes, the new weights are loaded and validated *off* the shard
//! thread, converted to an [`AnySpec`], and handed to the owning shard,
//! which swaps them in **between batches** and bumps the tenant's
//! generation. In-flight batches finish on the old weights; every response
//! reports the single generation that produced all of its verdicts. A
//! corrupt or mismatched checkpoint is counted and skipped — serving
//! continues on the previous generation.
//!
//! # Detector families and escalation
//!
//! Shards hold [`AnyDetector`]s, not ImDiffusion specifically: a tenant's
//! checkpoint is an IMDE registry envelope (legacy raw IMDF images load
//! as ImDiffusion), its [`TenantSpec::family`] names the expected family,
//! and health/reload answers report the family actually serving. A tenant
//! may also carry an [`EscalationSpec`] — an ordered cost ladder of rung
//! checkpoints (canonically z-score → IForest → ImDiffusion). When the
//! canonical checkpoint is missing at activation, the ladder is evaluated
//! on its labeled holdout and the cheapest rung within `f1_tolerance` of
//! the best is pinned (and persisted as the canonical envelope, so
//! failover restores the same pin; a canonical envelope that exists but
//! does not decode is counted as a corrupt pin and re-chosen the same
//! way). After that the router is edge-triggered on each batch's move of
//! the monitor's debounced drift latch: a trip swaps in the ladder apex
//! (a regime change earns the expensive model), a clear re-runs the
//! holdout evaluation so the tenant can settle back onto a cheaper rung.
//! Every repin persists the envelope and bumps the generation, exactly
//! like a hot reload.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use imdiff_data::{DetectorError, Mts};
use imdiff_metrics::point::confusion;
use imdiff_nn::obs;
use imdiff_registry::{evaluate_ladder, AnyDetector, AnySpec, DetectorKind};
use imdiffusion::{
    BatchItem, EnsembleOutput, HealthState, ImDiffusionConfig, MonitorHealth,
    StreamingMonitor, WindowScorer,
};

use crate::mux::{self, sys, Completions, Conn, FillOutcome, ReplyTx};
use crate::wire::{
    ErrorCode, PromotionVerdict, Request, Response, TenantHealth, WireHealthState,
    WireVerdict,
};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// One stream to serve: where its fitted checkpoint lives and how to
/// rebuild the detector around it (envelopes and legacy IMDF images
/// store weights only; the architecture comes from `cfg`/`seed`, as for
/// [`AnyDetector::load`]).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stream id used on the wire.
    pub id: String,
    /// Path of the detector checkpoint — an IMDE registry envelope or a
    /// legacy raw IMDF image (also the hot-reload watch target).
    pub checkpoint: PathBuf,
    /// Detector configuration matching the checkpoint.
    pub cfg: ImDiffusionConfig,
    /// Detector seed matching the checkpoint.
    pub seed: u64,
    /// Channel count of the stream.
    pub channels: usize,
    /// Evaluation hop of the monitor (rows between evaluations).
    pub hop: usize,
    /// Validation gate for hot reloads: a candidate checkpoint must beat
    /// (or tie) the incumbent on this held-out replay slice before it is
    /// handed to the shard. `None` promotes every loadable candidate
    /// unconditionally (the pre-gate behavior).
    pub holdout: Option<HoldoutSpec>,
    /// Drift policy `(threshold, debounce)` armed on the monitor at load
    /// time. Arms only when the checkpoint carries a training-time drift
    /// reference; legacy weight files (and `None`) serve unarmed with
    /// bit-identical behavior.
    pub drift_policy: Option<(f64, u32)>,
    /// Detector family this tenant is configured to serve. The canonical
    /// checkpoint must carry this family — or, with an escalation ladder,
    /// any rung family — or loads and reloads are refused as corrupt.
    pub family: DetectorKind,
    /// Cost-aware escalation ladder; `None` pins the tenant to `family`
    /// forever (the pre-registry behavior).
    pub escalation: Option<EscalationSpec>,
}

impl TenantSpec {
    /// May a checkpoint of `kind` serve this tenant?
    fn allows_family(&self, kind: DetectorKind) -> bool {
        kind == self.family
            || self
                .escalation
                .as_ref()
                .is_some_and(|e| e.rungs.iter().any(|r| r.kind == kind))
    }
}

/// A cost-aware escalation ladder: ordered rungs (cheapest first,
/// canonically z-score → IForest → ImDiffusion) plus the labeled holdout
/// slice the evaluator replays to pick a pin. Rung kinds must be
/// distinct and every rung checkpoint must share one serving window —
/// repins are in-place detector swaps on a live monitor.
///
/// The decision rule lives in [`imdiff_registry::choose_rung`]: the
/// first rung whose best point-F1 on the holdout is within
/// `f1_tolerance` of the ladder's best wins. Measured cost is recorded
/// as evidence but never decides, so a mirror replaying the same ladder
/// reproduces every pin bit-exactly.
#[derive(Debug, Clone)]
pub struct EscalationSpec {
    /// The ladder, cheapest first. The last rung is the apex a drift trip
    /// escalates to.
    pub rungs: Vec<RungSpec>,
    /// How much holdout F1 a cheaper rung may give up and still win.
    pub f1_tolerance: f64,
    /// Labeled holdout rows replayed through every rung, each
    /// `channels` wide.
    pub holdout_rows: Vec<Vec<f32>>,
    /// Ground-truth anomaly flags aligned with `holdout_rows`.
    pub holdout_labels: Vec<bool>,
}

/// One rung of an escalation ladder.
#[derive(Debug, Clone)]
pub struct RungSpec {
    /// The rung's family (checked against its checkpoint's envelope tag).
    pub kind: DetectorKind,
    /// Path of the rung's fitted IMDE envelope.
    pub checkpoint: PathBuf,
}

/// A held-out replay slice for validation-gated promotion.
///
/// The gate cuts `rows` into consecutive non-overlapping windows of the
/// tenant's configured window length (a trailing partial window is
/// ignored), scores each with both the candidate and the incumbent via
/// the read-only batched inference path, and promotes only when the
/// candidate is at least as good:
///
/// * with `labels`, point F1 decides and **ties promote** — fresh weights
///   also re-baseline the drift reference, so an equally-accurate
///   candidate is strictly preferable;
/// * without labels there is no ground truth to rank by, so the gate is a
///   guard-rail instead: the candidate passes while its mean absolute
///   score deviation from the incumbent stays within `score_tolerance`
///   (a grossly divergent candidate is rejected).
#[derive(Debug, Clone)]
pub struct HoldoutSpec {
    /// Replay rows in stream order, each `channels` wide.
    pub rows: Vec<Vec<f32>>,
    /// Ground-truth point-anomaly labels aligned with `rows`.
    pub labels: Option<Vec<bool>>,
    /// Label-free bound on the candidate/incumbent mean absolute score
    /// deviation (ignored when `labels` is present).
    pub score_tolerance: f64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Shard worker threads; tenants are partitioned round-robin.
    pub shards: usize,
    /// Most queued requests coalesced into one `push_batch` call.
    pub max_batch: usize,
    /// Longest a shard waits for a batch to fill before flushing.
    pub max_wait: Duration,
    /// Global queued-request cap; beyond it requests are refused with
    /// [`ErrorCode::Overloaded`].
    pub max_queue: usize,
    /// Queue-latency budget; requests that waited longer are load-shed to
    /// the degraded scoring path.
    pub shed_after: Duration,
    /// Queue deadline; requests that waited longer are refused with
    /// [`ErrorCode::Timeout`] without being ingested.
    pub deadline: Duration,
    /// Checkpoint poll interval for hot reload; `None` disables the
    /// watcher (wire `Reload` requests still work).
    pub reload_poll: Option<Duration>,
    /// Closes a connection whose peer has been silent this long (no
    /// complete frame, no bytes in flight). `None` keeps silent
    /// connections forever — fine for trusted loopback tests, wrong for
    /// anything reachable by a stalled or half-open peer.
    pub idle_timeout: Option<Duration>,
    /// Per-frame progress deadline: a peer that *starts* a frame must
    /// complete it this fast or the connection is closed. Catches the
    /// slowloris case `idle_timeout` cannot see — a peer dripping one
    /// byte at a time is never "silent" but still holds a frame open
    /// indefinitely. `None` disables the check.
    pub frame_deadline: Option<Duration>,
    /// Rows between automatic IMSM sidecar snapshots per tenant; `None`
    /// disables cadenced snapshots (explicit `Snapshot` requests still
    /// work). Snapshots bound how much stream progress a failover can
    /// lose.
    pub snapshot_every: Option<u64>,
    /// Per-tenant reply-cache capacity for sequence-id deduplication: a
    /// replayed request whose reply was already evicted is answered with
    /// a typed [`ErrorCode::Interrupted`] (resync, do not re-submit
    /// fresh) instead of being re-ingested.
    pub replay_cache: usize,
    /// Post-promotion regression sentinel: verdicts observed after a hot
    /// swap before the promotion is confirmed or rolled back. The
    /// decision fires on exactly this many post-swap verdicts regardless
    /// of batch boundaries, so it is deterministic at any thread count.
    /// `0` disables the sentinel (swaps are final).
    pub regression_watch: usize,
    /// Rollback triggers when the post-swap anomaly rate exceeds
    /// `regression_factor ×` the pre-swap baseline rate.
    pub regression_factor: f64,
    /// Anomaly-rate floor for the sentinel: the post-swap rate must also
    /// exceed this absolute rate to trigger, so a near-zero baseline does
    /// not turn a single anomalous verdict into a rollback.
    pub regression_min_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(4),
            max_queue: 64,
            shed_after: Duration::from_millis(250),
            deadline: Duration::from_secs(2),
            reload_poll: Some(Duration::from_millis(200)),
            idle_timeout: None,
            frame_deadline: Some(Duration::from_secs(30)),
            snapshot_every: None,
            replay_cache: 32,
            regression_watch: 64,
            regression_factor: 4.0,
            regression_min_rate: 0.25,
        }
    }
}

/// Server lifecycle failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(String),
    /// A tenant's checkpoint could not be loaded at startup.
    Tenant {
        /// Which tenant failed.
        id: String,
        /// Why.
        source: DetectorError,
    },
    /// The tenant roster was invalid (duplicate ids, empty).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "server I/O error: {msg}"),
            ServeError::Tenant { id, source } => {
                write!(f, "tenant {id:?} failed to load: {source}")
            }
            ServeError::Config(msg) => write!(f, "invalid server config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// (mtime, len) stamp of a checkpoint file, used to detect rewrites.
type FileStamp = (Option<SystemTime>, u64);

fn stamp(path: &std::path::Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok(), meta.len()))
}

/// Locks `m`, taking over a poisoned lock rather than propagating the
/// poison, so one panicked thread cannot wedge every other one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The monitor type shards own: a streaming monitor over *any* registry
/// family.
type ServeMonitor = StreamingMonitor<AnyDetector>;

/// Cross-thread view of one tenant. The monitor itself lives on the
/// owning shard thread; this is everything other threads may read.
struct TenantShared {
    spec: TenantSpec,
    shard: usize,
    /// Whether this replica currently serves the tenant. Every replica
    /// registers the full roster, but only its placed subset is active;
    /// failover activates more via `Adopt`. Never cleared — placement
    /// only grows on a replica.
    active: AtomicBool,
    /// Bumps on every successful hot swap. Generation 1 is the initial
    /// checkpoint.
    generation: AtomicU64,
    /// Score requests currently queued for this tenant.
    queue_depth: AtomicU32,
    /// Health snapshot refreshed by the shard after every batch.
    health: Mutex<MonitorHealth>,
    /// Last checkpoint stamp examined by reload (watcher or manual), so
    /// one rewrite triggers exactly one reload attempt.
    reload_stamp: Mutex<Option<FileStamp>>,
    /// Latest promotion/rollback decision, answered on `Reload` requests.
    promo: Mutex<(PromotionVerdict, String)>,
    /// Spec of the detector currently serving (what the validation gate
    /// compares candidates against). Captured at load/adoption and
    /// refreshed on every swap.
    incumbent: Mutex<Option<Box<AnySpec>>>,
    /// Family actually serving right now. Starts as the configured
    /// [`TenantSpec::family`], then tracks every load, swap and
    /// escalation repin; reported on health and reload answers.
    family: Mutex<DetectorKind>,
}

impl TenantShared {
    /// A registered tenant at generation 1, before its monitor loads.
    fn new(spec: TenantSpec, shard: usize, active: bool) -> Self {
        TenantShared {
            reload_stamp: Mutex::new(stamp(&spec.checkpoint)),
            family: Mutex::new(spec.family),
            spec,
            shard,
            active: AtomicBool::new(active),
            generation: AtomicU64::new(1),
            queue_depth: AtomicU32::new(0),
            health: Mutex::new(MonitorHealth {
                state: HealthState::Warming,
                rows_seen: 0,
                rows_rejected: 0,
                cells_imputed: 0,
                gaps_bridged: 0,
                rows_bridged: 0,
                rewarms: 0,
                degraded_evals: 0,
                recoveries: 0,
                drifted: false,
                drift_trips: 0,
            }),
            promo: Mutex::new((PromotionVerdict::NoAttempt, String::new())),
            incumbent: Mutex::new(None),
        }
    }
}

/// The family currently serving `t`, as a wire string.
fn family_name(t: &TenantShared) -> String {
    lock(&t.family).name().to_string()
}

/// A queued scoring request.
struct ScoreJob {
    tenant: usize,
    /// Idempotency sequence id (0 = unsequenced, no dedup).
    seq: u64,
    /// Stream-position guard (`u64::MAX` = unchecked).
    start_row: u64,
    item: BatchItem,
    enqueued: Instant,
    reply: ReplyTx,
}

/// Out-of-band command applied by a shard between batches.
enum ShardCmd {
    /// Swap in reloaded weights for a tenant this shard owns. Boxed:
    /// specs embed full weight tensors and would dominate the enum size.
    /// `reply` (wire `Reload` requests only) is answered **after** the
    /// swap lands, so the reported generation is the one now serving.
    Swap {
        tenant: usize,
        spec: Box<AnySpec>,
        reply: Option<ReplyTx>,
    },
    /// Activate a tenant (failover adoption): restore from the IMSM
    /// sidecar when present, fresh-load otherwise. Monitors hold
    /// non-`Send` tensors, so creation must happen on the shard thread.
    Adopt {
        tenant: usize,
        reply: ReplyTx,
    },
    /// Write the tenant's IMSM sidecar now (deterministic recovery
    /// point).
    Snapshot {
        tenant: usize,
        reply: ReplyTx,
    },
}

/// Ids tracked individually above [`SeqState::floor`] before the floor is
/// forced up. Bounds memory; must comfortably exceed any client's
/// pipelining depth so a *refused* id (a gap among the applied ones) is
/// still readmittable when its prompt retry arrives.
const SEQ_TRACK_WINDOW: usize = 1024;

/// Per-tenant sequence-id bookkeeping for idempotent replay. Lives on the
/// owning shard — the serialization point for the tenant's stream — so
/// dedup decisions and ingestion are atomic with respect to each other.
/// State is per replica session: after failover the adopter starts fresh
/// and the authoritative stream position is the health report's
/// `rows_seen`.
///
/// Applied ids are tracked **exactly** (contiguous floor + out-of-order
/// set), not as a running max: a refusal (deadline expiry, position
/// guard) deliberately does not spend its id, and with a max a refused
/// id below a later-applied one would be misread as "already applied"
/// on retry instead of being admitted as new work.
#[derive(Default)]
struct SeqState {
    /// Every id `<= floor` is treated as spent. Advanced by contiguous
    /// application, or forced up when `applied` outgrows
    /// [`SEQ_TRACK_WINDOW`] (an abandoned gap that old stops being
    /// readmittable — it answers as a stale replay instead, which is
    /// safe: stale replays never ingest).
    floor: u64,
    /// Applied ids above `floor` (gaps below a refused id keep ids
    /// non-contiguous).
    applied: std::collections::BTreeSet<u64>,
    /// Recent (seq, reply) pairs for answering replays bit-identically.
    cache: VecDeque<(u64, Response)>,
}

impl SeqState {
    /// Were `seq`'s rows ingested in this replica session?
    fn is_applied(&self, seq: u64) -> bool {
        seq <= self.floor || self.applied.contains(&seq)
    }

    /// The reply to `seq`, if it is still in the replay cache.
    fn cached(&self, seq: u64) -> Option<Response> {
        self.cache
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, resp)| resp.clone())
    }

    /// Records an ingested id, advancing the contiguous floor and
    /// bounding the out-of-order set.
    fn note_applied(&mut self, seq: u64) {
        self.applied.insert(seq);
        while self.applied.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        while self.applied.len() > SEQ_TRACK_WINDOW {
            let oldest = *self.applied.iter().next().expect("non-empty");
            self.applied.remove(&oldest);
            self.floor = self.floor.max(oldest);
        }
    }
}

/// Verdicts remembered for the regression baseline (pre-swap anomaly
/// rate). Bounds memory; large enough that one noisy batch cannot skew
/// the rate.
const REGRESSION_BASELINE_WINDOW: usize = 256;

/// Shard-local post-promotion regression sentinel for one tenant. Fed
/// the tenant's verdict stream in order, so its decisions depend only on
/// that stream and the config — deterministic at any thread count or
/// batch coalescing.
#[derive(Default)]
struct PromoState {
    /// Rolling recent verdicts (`true` = anomalous) while no watch is
    /// active; their anomaly rate is the baseline a promotion must not
    /// regress from.
    recent: VecDeque<bool>,
    /// Active post-swap watch, armed by a successful promotion.
    watch: Option<RegressionWatch>,
}

struct RegressionWatch {
    /// Pre-swap anomaly rate.
    baseline: f64,
    /// Post-swap verdicts observed so far.
    seen: usize,
    /// How many of them were anomalous.
    anomalous: usize,
    /// The pre-promotion incumbent a trip restores. It goes with the
    /// watch: on the decision, on a repin and on adoption.
    target: Box<AnySpec>,
}

impl PromoState {
    fn baseline_rate(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent.iter().filter(|&&b| b).count() as f64 / self.recent.len() as f64
        }
    }
}

/// Everything a shard keeps for one tenant it serves. Exists only for
/// active tenants; [`activate`] builds it fresh, so adoption starts with
/// clean dedup and sentinel state. (Which escalation rung is pinned is
/// not kept here: the monitor's detector family is the truth.)
struct Slot {
    monitor: ServeMonitor,
    seq: SeqState,
    promo: PromoState,
}

#[derive(Default)]
struct ShardQueue {
    jobs: VecDeque<ScoreJob>,
    cmds: Vec<ShardCmd>,
}

#[derive(Default)]
struct Shard {
    q: Mutex<ShardQueue>,
    cv: Condvar,
}

struct ServerInner {
    cfg: ServeConfig,
    tenants: Vec<Arc<TenantShared>>,
    shards: Vec<Shard>,
    /// Global queued-job count for admission control.
    queued: AtomicUsize,
    draining: AtomicBool,
    /// Abrupt-death flag ([`Server::kill`]): shards exit *dropping*
    /// queued work instead of flushing it — a crash, not a drain.
    killed: AtomicBool,
    /// Partition flag ([`Server::isolate`]): the process keeps running
    /// but every connection is severed and new ones are refused.
    isolated: AtomicBool,
    /// Clones of accepted connection streams, so kill/isolate can sever
    /// them from outside the event loop.
    conn_streams: Mutex<Vec<TcpStream>>,
    /// Shard → event loop completion queue (also the loop's waker for
    /// drain/kill signalling).
    completions: Arc<Completions>,
}

impl ServerInner {
    fn tenant_index(&self, id: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.spec.id == id)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let _g = lock(&shard.q);
            shard.cv.notify_all();
        }
        self.completions.wake();
    }

    fn health_report(&self) -> Response {
        let mut tenants: Vec<TenantHealth> = self
            .tenants
            .iter()
            .filter(|t| t.active.load(Ordering::SeqCst))
            .map(|t| {
                let h = *lock(&t.health);
                TenantHealth {
                    id: t.spec.id.clone(),
                    state: match h.state {
                        HealthState::Healthy => WireHealthState::Healthy,
                        HealthState::Degraded => WireHealthState::Degraded,
                        HealthState::Warming => WireHealthState::Warming,
                    },
                    generation: t.generation.load(Ordering::SeqCst),
                    rows_seen: h.rows_seen,
                    rows_rejected: h.rows_rejected,
                    degraded_evals: h.degraded_evals,
                    rewarms: h.rewarms,
                    recoveries: h.recoveries,
                    queue_depth: t.queue_depth.load(Ordering::SeqCst),
                    drifted: h.drifted,
                    drift_trips: h.drift_trips,
                    family: family_name(t),
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        Response::Health { tenants }
    }

    /// Loads `tenant`'s checkpoint, runs the validation gate when the
    /// tenant has one, and hands a passing candidate to its shard.
    /// Validation (CRC, shapes, holdout scoring) happens here, off the
    /// shard thread: a bad or losing candidate never interrupts serving.
    ///
    /// When `reply` is present (wire `Reload` requests) every outcome is
    /// answered through it — an unplaced tenant or a rejected candidate
    /// inline, a promoted one by the shard *after* the swap lands.
    fn reload_tenant(
        &self,
        tenant: usize,
        new_stamp: Option<FileStamp>,
        reply: Option<ReplyTx>,
    ) {
        let t = &self.tenants[tenant];
        if !t.active.load(Ordering::SeqCst) {
            if let Some(tx) = reply {
                tx.send(Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!(
                        "tenant {} is not placed on this replica",
                        t.spec.id
                    ),
                });
            }
            return;
        }
        {
            let mut guard = lock(&t.reload_stamp);
            *guard = new_stamp.or_else(|| stamp(&t.spec.checkpoint));
        }
        let spec = match AnyDetector::load(
            &t.spec.cfg,
            t.spec.seed,
            t.spec.channels,
            &t.spec.checkpoint,
        )
        .map_err(|e| format!("cannot reload {}: {e}", t.spec.id))
        .and_then(|det| {
            // A rewrite may legitimately change the family (an escalation
            // repin, a mirrored pin from another replica) — but only to a
            // family this tenant is configured for.
            if !t.spec.allows_family(det.kind()) {
                return Err(format!(
                    "checkpoint family {} is not allowed for tenant {} (expected {} \
                     or an escalation rung)",
                    det.kind(),
                    t.spec.id,
                    t.spec.family
                ));
            }
            det.to_spec()
                .map_err(|e| format!("reloaded detector for {}: {e}", t.spec.id))
        }) {
            Ok(spec) => spec,
            Err(msg) => {
                // A corrupt rewrite (CRC mismatch, truncation, geometry
                // drift) is refused here and never reaches the shard —
                // the incumbent keeps serving without a gap.
                obs::counter("serve.reload_errors", 1);
                obs::counter("serve.promotion.rejected_corrupt", 1);
                settle(t, PromotionVerdict::RejectedCorrupt, msg, reply);
                return;
            }
        };
        if let Some(holdout) = &t.spec.holdout {
            let incumbent = lock(&t.incumbent).clone();
            if let Some(inc) = incumbent {
                obs::counter("serve.promotion.evaluated", 1);
                if let Err(msg) = gate_candidate(&spec, &inc, holdout, &t.spec) {
                    obs::counter("serve.promotion.rejected_gate", 1);
                    settle(t, PromotionVerdict::RejectedGate, msg, reply);
                    return;
                }
            }
        }
        let shard = &self.shards[t.shard];
        {
            let mut q = lock(&shard.q);
            // One pending swap per tenant is enough; newest wins. A
            // superseded reload's requester still gets an answer.
            let mut superseded: Vec<ReplyTx> = Vec::new();
            q.cmds.retain_mut(|cmd| match cmd {
                ShardCmd::Swap {
                    tenant: i, reply, ..
                } if *i == tenant => {
                    superseded.extend(reply.take());
                    false
                }
                _ => true,
            });
            for tx in superseded {
                let verdict = lock(&t.promo).0;
                tx.send(Response::ReloadStatus {
                    generation: t.generation.load(Ordering::SeqCst),
                    verdict,
                    detail: "superseded by a newer reload of the same tenant".into(),
                    family: family_name(t),
                });
            }
            q.cmds.push(ShardCmd::Swap {
                tenant,
                spec: Box::new(spec),
                reply,
            });
        }
        shard.cv.notify_all();
    }
}

/// Records `t`'s latest promotion verdict, then answers the `Reload`
/// request that asked for it, if any, at the generation now serving.
fn settle(t: &TenantShared, verdict: PromotionVerdict, detail: String, reply: Option<ReplyTx>) {
    *lock(&t.promo) = (verdict, detail.clone());
    if let Some(tx) = reply {
        tx.send(Response::ReloadStatus {
            generation: t.generation.load(Ordering::SeqCst),
            verdict,
            detail,
            family: family_name(t),
        });
    }
}

/// The validation gate: scores the tenant's held-out replay slice with
/// both the candidate and the incumbent (read-only batched inference —
/// serving is never paused) and decides the promotion. `Ok(detail)`
/// promotes, `Err(detail)` keeps the incumbent. Fail-closed: a holdout
/// too short for one window, mis-shaped rows, or a scoring failure all
/// reject — loudly, via the reload verdict — rather than promoting an
/// unvalidated candidate.
fn gate_candidate(
    candidate: &AnySpec,
    incumbent: &AnySpec,
    holdout: &HoldoutSpec,
    spec: &TenantSpec,
) -> Result<String, String> {
    let _span = obs::span("serve.promotion.gate");
    let cand = candidate
        .build()
        .map_err(|e| format!("candidate failed to rebuild: {e}"))?;
    let inc = incumbent
        .build()
        .map_err(|e| format!("incumbent failed to rebuild: {e}"))?;
    // Holdout windows must fit both scorers: families may serve windows
    // wider than the configured one, so the *built* detectors decide.
    let (w, k) = (cand.window(), spec.channels);
    if inc.window() != w {
        return Err(format!(
            "candidate serving window {w} != incumbent window {}; cannot compare \
             on one holdout slicing",
            inc.window()
        ));
    }
    if holdout.rows.iter().any(|r| r.len() != k) {
        return Err(format!("holdout rows must all be {k} channels wide"));
    }
    let n_win = holdout.rows.len() / w;
    if n_win == 0 {
        return Err(format!(
            "holdout has {} rows, shorter than one {w}-row window; refusing to \
             promote unvalidated",
            holdout.rows.len()
        ));
    }
    let windows: Vec<Mts> = (0..n_win)
        .map(|i| {
            let mut data = Vec::with_capacity(w * k);
            for row in &holdout.rows[i * w..(i + 1) * w] {
                data.extend_from_slice(row);
            }
            Mts::new(data, w, k)
        })
        .collect();
    let refs: Vec<(&Mts, Option<&[bool]>)> = windows.iter().map(|m| (m, None)).collect();
    let cand_out = cand
        .score_windows(&refs)
        .map_err(|e| format!("candidate failed holdout scoring: {e}"))?;
    let inc_out = inc
        .score_windows(&refs)
        .map_err(|e| format!("incumbent failed holdout scoring: {e}"))?;
    match &holdout.labels {
        Some(labels) => {
            if labels.len() < n_win * w {
                return Err(format!(
                    "holdout labels cover {} of {} scored rows",
                    labels.len(),
                    n_win * w
                ));
            }
            let truth = &labels[..n_win * w];
            let cand_f1 = point_f1(&verdict_flags(&cand_out), truth);
            let inc_f1 = point_f1(&verdict_flags(&inc_out), truth);
            // Ties promote: equal accuracy plus a fresh drift baseline
            // beats equal accuracy alone.
            if cand_f1 + 1e-12 >= inc_f1 {
                Ok(format!(
                    "candidate F1 {cand_f1:.4} vs incumbent {inc_f1:.4} over {n_win} \
                     holdout windows"
                ))
            } else {
                Err(format!(
                    "candidate F1 {cand_f1:.4} lost to incumbent {inc_f1:.4} over \
                     {n_win} holdout windows"
                ))
            }
        }
        None => {
            let mut dev = 0.0f64;
            let mut n = 0usize;
            for (c, i) in cand_out.iter().zip(&inc_out) {
                for (a, b) in c.scores.iter().zip(&i.scores) {
                    dev += (a - b).abs();
                    n += 1;
                }
            }
            let mean = if n == 0 { 0.0 } else { dev / n as f64 };
            if mean.is_finite() && mean <= holdout.score_tolerance {
                Ok(format!(
                    "candidate score deviation {mean:.4} within tolerance {:.4} over \
                     {n_win} holdout windows",
                    holdout.score_tolerance
                ))
            } else {
                Err(format!(
                    "candidate score deviation {mean:.4} exceeds tolerance {:.4} over \
                     {n_win} holdout windows",
                    holdout.score_tolerance
                ))
            }
        }
    }
}

/// Concatenated per-point voted labels of a holdout scoring pass.
fn verdict_flags(outs: &[EnsembleOutput]) -> Vec<bool> {
    outs.iter().flat_map(|o| o.labels.iter().copied()).collect()
}

/// Point F1 as `2tp / (2tp + fp + fn)`, with the convention that perfect
/// agreement on "no anomalies anywhere" scores 1.0 (both models may
/// legitimately flag nothing). Counts over the common prefix.
fn point_f1(pred: &[bool], truth: &[bool]) -> f64 {
    let n = pred.len().min(truth.len());
    let (tp, fp, fn_) = confusion(&pred[..n], &truth[..n]);
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        1.0
    } else {
        2.0 * tp as f64 / denom as f64
    }
}

// ---------------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------------

/// Builds every rung of an escalation ladder from its envelope
/// checkpoint, verifying the configured family and that all rungs share
/// one serving window (repins are in-place swaps on a live monitor).
fn build_rungs(
    esc: &EscalationSpec,
    spec: &TenantSpec,
) -> Result<Vec<AnyDetector>, DetectorError> {
    if esc.rungs.is_empty() {
        return Err(DetectorError::InvalidTrainingData(format!(
            "tenant {} has an empty escalation ladder",
            spec.id
        )));
    }
    let mut dets = Vec::with_capacity(esc.rungs.len());
    for rung in &esc.rungs {
        let det = AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &rung.checkpoint)?;
        if det.kind() != rung.kind {
            return Err(DetectorError::CorruptCheckpoint(format!(
                "rung checkpoint {} carries family {}, ladder declares {}",
                rung.checkpoint.display(),
                det.kind(),
                rung.kind
            )));
        }
        if dets
            .iter()
            .any(|d: &AnyDetector| d.kind() == det.kind() || d.window() != det.window())
        {
            return Err(DetectorError::InvalidTrainingData(format!(
                "escalation rungs for {} must have distinct families and one shared \
                 serving window",
                spec.id
            )));
        }
        dets.push(det);
    }
    Ok(dets)
}

/// Packs escalation holdout rows into a series.
fn holdout_mts(rows: &[Vec<f32>], channels: usize) -> Result<Mts, DetectorError> {
    if rows.is_empty() || rows.iter().any(|r| r.len() != channels) {
        return Err(DetectorError::InvalidTrainingData(format!(
            "escalation holdout must be non-empty rows of {channels} channels"
        )));
    }
    let mut flat = Vec::with_capacity(rows.len() * channels);
    for row in rows {
        flat.extend_from_slice(row);
    }
    Ok(Mts::new(flat, rows.len(), channels))
}

/// Evaluates the full ladder on its labeled holdout and returns the
/// chosen rung's detector. Deterministic: ladder order + F1 only.
fn evaluate_and_choose(
    esc: &EscalationSpec,
    spec: &TenantSpec,
) -> Result<AnyDetector, DetectorError> {
    let _span = obs::span("serve.escalation.evaluate");
    let rungs = build_rungs(esc, spec)?;
    let holdout = holdout_mts(&esc.holdout_rows, spec.channels)?;
    let refs: Vec<&AnyDetector> = rungs.iter().collect();
    let decision = evaluate_ladder(&refs, &holdout, &esc.holdout_labels, esc.f1_tolerance)?;
    obs::counter("serve.escalation.evaluations", 1);
    let chosen = decision.chosen;
    Ok(rungs
        .into_iter()
        .nth(chosen)
        .expect("chosen index is in ladder range"))
}

/// Loads the tenant's detector from its canonical checkpoint. When the
/// checkpoint exists, its envelope family **is** the pinned rung — this
/// is what lets a failover or restart resume the exact pin the dead
/// replica persisted. When it is missing (or unreadable) and an
/// escalation ladder is configured, the ladder is evaluated instead and
/// the winner is persisted as the new canonical envelope before serving.
/// A canonical envelope that reads but does not decode is a corrupt pin:
/// availability wins and the ladder re-chooses all the same, but the loss
/// is counted (`serve.escalation.corrupt_pins`) rather than passed off as
/// a first activation.
fn load_or_escalate(spec: &TenantSpec) -> Result<AnyDetector, DetectorError> {
    match AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &spec.checkpoint) {
        Ok(det) => {
            if !spec.allows_family(det.kind()) {
                return Err(DetectorError::CorruptCheckpoint(format!(
                    "checkpoint family {} is not allowed for tenant {} (expected {} \
                     or an escalation rung)",
                    det.kind(),
                    spec.id,
                    spec.family
                )));
            }
            Ok(det)
        }
        Err(e) => {
            let Some(esc) = &spec.escalation else {
                return Err(e);
            };
            if !matches!(e, DetectorError::Io(_)) {
                obs::counter("serve.escalation.corrupt_pins", 1);
            }
            let winner = evaluate_and_choose(esc, spec)?;
            obs::counter("serve.escalation.initial_pins", 1);
            winner.save(&spec.checkpoint)?;
            Ok(winner)
        }
    }
}

/// Builds the serving monitor for one tenant: restore from the IMSM
/// sidecar when one exists (failover adoption, replica restart) so the
/// verdict stream resumes without re-warming; fall back to a fresh
/// (warming) load when the sidecar is absent. A *damaged* sidecar is a
/// typed, counted event — [`DetectorError::CorruptCheckpoint`] — that
/// degrades to a fresh load rather than refusing the tenant: losing warm
/// state is recoverable, losing the tenant is not. Weight-file failures
/// still propagate.
fn load_monitor(
    spec: &TenantSpec,
    snapshot_every: Option<u64>,
) -> Result<ServeMonitor, DetectorError> {
    let t0 = Instant::now();
    let det = load_or_escalate(spec)?;
    let mut monitor = match StreamingMonitor::restore_with(det, &spec.checkpoint) {
        Ok(m) => {
            obs::counter("serve.failover.sidecar_restores", 1);
            obs::histogram(
                "serve.failover.sidecar_restore_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            m
        }
        Err(e) => {
            if !matches!(e, DetectorError::Io(_)) {
                // Sidecar present but unusable (CRC mismatch, bad tag,
                // geometry drift): surface the typed corruption, then
                // re-warm from weights alone. `restore_with` consumed the
                // detector, so reload it — the canonical checkpoint is
                // guaranteed present now (load_or_escalate persisted any
                // fresh pin).
                obs::counter("serve.failover.sidecar_corrupt", 1);
            }
            let det = load_or_escalate(spec)?;
            StreamingMonitor::new(det, spec.channels, spec.hop)?
        }
    };
    monitor.set_snapshot_cadence(snapshot_every);
    if let Some((threshold, debounce)) = spec.drift_policy {
        // Arms only when the checkpoint carries a training-time drift
        // reference; legacy weight files keep serving unarmed (and
        // bit-identically to the pre-drift code).
        let _ = monitor.set_drift_policy(threshold, debounce);
    }
    Ok(monitor)
}

/// Builds a fresh [`Slot`] for a tenant, at startup and on failover
/// adoption alike, and publishes what other threads read: health, the
/// incumbent spec, the serving family and the checkpoint stamp (an
/// escalation pin may have just rewritten the canonical checkpoint; the
/// refreshed stamp keeps the watcher from reloading what the shard just
/// loaded).
fn activate(shared: &TenantShared, snapshot_every: Option<u64>) -> Result<Slot, DetectorError> {
    let monitor = load_monitor(&shared.spec, snapshot_every)?;
    *lock(&shared.health) = monitor.health();
    *lock(&shared.incumbent) = monitor.detector().to_spec().ok().map(Box::new);
    *lock(&shared.family) = monitor.detector().kind();
    *lock(&shared.reload_stamp) = stamp(&shared.spec.checkpoint);
    Ok(Slot {
        monitor,
        seq: SeqState::default(),
        promo: PromoState::default(),
    })
}

/// Loads the monitors this shard owns, then serves its queue until the
/// server drains. `ready` reports startup success or the first load error.
fn shard_main(
    inner: Arc<ServerInner>,
    shard_idx: usize,
    ready: mpsc::Sender<Result<(), ServeError>>,
) {
    let mut slots: Vec<Option<Slot>> = Vec::with_capacity(inner.tenants.len());
    for t in &inner.tenants {
        if t.shard != shard_idx || !t.active.load(Ordering::SeqCst) {
            slots.push(None);
            continue;
        }
        match activate(t, inner.cfg.snapshot_every) {
            Ok(slot) => slots.push(Some(slot)),
            Err(source) => {
                let _ = ready.send(Err(ServeError::Tenant {
                    id: t.spec.id.clone(),
                    source,
                }));
                return;
            }
        }
    }
    let _ = ready.send(Ok(()));
    drop(ready);

    let shard = &inner.shards[shard_idx];
    loop {
        match next_work(&inner, shard) {
            Work::Exit => return,
            // Reloads apply strictly between batches: a batch never
            // observes two generations.
            Work::Cmds(cmds) => {
                for cmd in cmds {
                    apply_cmd(&inner, &mut slots, cmd);
                }
            }
            Work::Batch { tenant, jobs } => {
                let slot = slots[tenant].as_mut().expect("shard owns this tenant");
                run_batch(&inner, slot, tenant, jobs);
            }
        }
    }
}

/// The shard of each tenant, in list order: each family's tenants are
/// dealt round-robin over the shards, starting at the shard of the
/// family's first tenant. Plain `i % shards` is the special case of one
/// family, or of families listed in runs; a list that alternates
/// families in step with the shard count no longer puts every tenant of
/// one family on one shard. Family stands in for cost (a ZScore window
/// scores in about 2 µs, an IForest one in 150–200 µs): an all-ZScore
/// shard idles beside a saturated all-IForest one, and its throughput
/// then hangs on how promptly the event loop and the clients get a core
/// rather than on its own work.
fn place_tenants(families: impl IntoIterator<Item = DetectorKind>, shards: usize) -> Vec<usize> {
    let mut next: HashMap<DetectorKind, usize> = HashMap::new();
    families
        .into_iter()
        .enumerate()
        .map(|(i, family)| {
            let k = next.entry(family).or_insert(i);
            *k += 1;
            (*k - 1) % shards.max(1)
        })
        .collect()
}

/// What a shard found on its queue.
enum Work {
    /// Draining and nothing left to do.
    Exit,
    /// Pending swap commands (always delivered before the next batch).
    Cmds(Vec<ShardCmd>),
    /// A coalesced batch of score jobs for one tenant, oldest first.
    Batch {
        tenant: usize,
        jobs: Vec<ScoreJob>,
    },
}

/// Blocks until the shard has commands, a flushable batch, or is fully
/// drained. A batch flushes when `max_batch` jobs for **some** tenant
/// are queued, the oldest job of some tenant has waited `max_wait`, or
/// the server is draining.
///
/// Every queued tenant is considered, not just the head of the FIFO:
/// the old head-only heuristic head-of-line blocked a full batch for
/// tenant B behind tenant A's still-filling batching window, which is
/// how the micro-batching throughput curve went non-monotonic. Per
/// tenant, jobs still flush strictly in arrival order, so verdict
/// streams are unchanged — only cross-tenant scheduling differs.
fn next_work(inner: &ServerInner, shard: &Shard) -> Work {
    let mut q = lock(&shard.q);
    loop {
        if inner.killed.load(Ordering::SeqCst) {
            // Abrupt death: queued jobs are *dropped*, not flushed. Their
            // reply senders fall out of scope, which the transport layer
            // surfaces as a typed connection loss upstream.
            return Work::Exit;
        }
        if !q.cmds.is_empty() {
            return Work::Cmds(std::mem::take(&mut q.cmds));
        }
        let draining = inner.draining.load(Ordering::SeqCst);
        if q.jobs.is_empty() {
            if draining {
                return Work::Exit;
            }
            let (guard, _) = shard
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
            continue;
        }
        // Per-tenant (count, head arrival). BTreeMap keyed by tenant
        // index + strict comparisons make tie-breaks deterministic.
        let mut per_tenant: BTreeMap<usize, (usize, Instant)> = BTreeMap::new();
        for job in &q.jobs {
            per_tenant
                .entry(job.tenant)
                .and_modify(|e| e.0 += 1)
                .or_insert((1, job.enqueued));
        }
        let mut full: Option<(usize, Instant)> = None;
        let mut oldest: Option<(usize, Instant)> = None;
        for (&tenant, &(count, head)) in &per_tenant {
            if count >= inner.cfg.max_batch
                && full.is_none_or(|(_, h)| head < h)
            {
                full = Some((tenant, head));
            }
            if oldest.is_none_or(|(_, h)| head < h) {
                oldest = Some((tenant, head));
            }
        }
        // A full batch is ready now; otherwise the tenant whose head has
        // waited longest decides whether to flush or sleep the residue
        // of its batching window.
        let (tenant, head) = full.or(oldest).expect("jobs is non-empty");
        let age = head.elapsed();
        if full.is_none() && !draining && age < inner.cfg.max_wait {
            let (guard, _) = shard
                .cv
                .wait_timeout(q, inner.cfg.max_wait - age)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
            continue;
        }
        let pending = per_tenant[&tenant].0;
        let mut jobs = Vec::with_capacity(pending.min(inner.cfg.max_batch));
        let mut kept = VecDeque::with_capacity(q.jobs.len());
        for job in q.jobs.drain(..) {
            if job.tenant == tenant && jobs.len() < inner.cfg.max_batch {
                jobs.push(job);
            } else {
                kept.push_back(job);
            }
        }
        q.jobs = kept;
        return Work::Batch { tenant, jobs };
    }
}

/// Applies dequeue-time admission control and sequence-id deduplication,
/// runs one coalesced `push_batch`, and answers every job.
fn run_batch(inner: &ServerInner, slot: &mut Slot, tenant: usize, jobs: Vec<ScoreJob>) {
    inner.queued.fetch_sub(jobs.len(), Ordering::SeqCst);
    let shared = &inner.tenants[tenant];
    shared
        .queue_depth
        .fetch_sub(jobs.len() as u32, Ordering::SeqCst);

    // Expired jobs are refused un-ingested; over-budget jobs are shed to
    // the degraded path but still ingested and answered. Sequenced jobs
    // whose id was already applied are answered from the reply cache
    // without re-ingesting (idempotent replay); a duplicate of a request
    // *in this very batch* is deferred and answered from the cache once
    // the original's reply lands there.
    let mut senders = Vec::with_capacity(jobs.len());
    let mut admitted_seqs = Vec::with_capacity(jobs.len());
    let mut admitted_starts = Vec::with_capacity(jobs.len());
    let mut items = Vec::with_capacity(jobs.len());
    let mut deferred_dups: Vec<(u64, ReplyTx)> = Vec::new();
    for job in jobs {
        if job.seq != 0 && slot.seq.is_applied(job.seq) {
            obs::counter("serve.failover.replay_hits", 1);
            // `Interrupted`, not `Unavailable`: the rows WERE ingested,
            // so the client must not re-submit them under a fresh id —
            // only resync. (A same-id retry just gets this answer again,
            // bounded by the client's budget.)
            let cached = slot.seq.cached(job.seq);
            job.reply.send(cached.unwrap_or_else(|| Response::Error {
                code: ErrorCode::Interrupted,
                message: format!(
                    "sequence id {} was already applied but its reply left the \
                     cache; resync from the health report's rows_seen",
                    job.seq
                ),
            }));
            continue;
        }
        if job.seq != 0 && admitted_seqs.contains(&job.seq) {
            obs::counter("serve.failover.replay_hits", 1);
            deferred_dups.push((job.seq, job.reply));
            continue;
        }
        let waited = job.enqueued.elapsed();
        obs::histogram("serve.queue_wait_s", waited.as_secs_f64());
        if waited > inner.cfg.deadline {
            obs::counter("serve.timeouts", 1);
            // Not ingested and not applied: a retry with the same
            // sequence id is admitted as new work.
            job.reply.send(Response::Error {
                code: ErrorCode::Timeout,
                message: DetectorError::Timeout {
                    waited_ms: waited.as_millis() as u64,
                }
                .to_string(),
            });
            continue;
        }
        let mut item = job.item;
        if waited > inner.cfg.shed_after {
            obs::counter("serve.shed", 1);
            item.shed = true;
        }
        items.push(item);
        admitted_seqs.push(job.seq);
        admitted_starts.push(job.start_row);
        senders.push(job.reply);
    }

    // Stream-position guard: a guarded chunk must start exactly where
    // the monitor is once its predecessors in this batch have landed.
    // After a failover the restored monitor sits at the snapshot
    // position while the client may be ahead — without this check its
    // rows would be silently ingested at the wrong offset, corrupting
    // the stream instead of failing it. Refused jobs do not spend their
    // sequence id, so the client's resync-and-resend is admitted fresh.
    if admitted_starts.iter().any(|&s| s != u64::MAX) {
        let mut expected = slot.monitor.seen();
        // `None` = keep; `Some(at)` = refuse, stream was at `at`.
        let mut refuse: Vec<Option<u64>> = vec![None; items.len()];
        for (i, item) in items.iter().enumerate() {
            if admitted_starts[i] != u64::MAX && admitted_starts[i] != expected {
                refuse[i] = Some(expected);
                obs::counter("serve.failover.position_refusals", 1);
                continue;
            }
            // Bridged gap rows advance the stream position too; a gap
            // large enough to re-warm resets the buffer but still
            // advances `seen`, so this prediction holds either way.
            expected += item.gap_before as u64 + item.rows.len() as u64;
        }
        if refuse.iter().any(Option::is_some) {
            let mut kept_items = Vec::with_capacity(items.len());
            let mut kept_seqs = Vec::with_capacity(items.len());
            let mut kept_senders = Vec::with_capacity(items.len());
            for (i, (item, (seq, sender))) in items
                .into_iter()
                .zip(admitted_seqs.into_iter().zip(senders))
                .enumerate()
            {
                match refuse[i] {
                    None => {
                        kept_items.push(item);
                        kept_seqs.push(seq);
                        kept_senders.push(sender);
                    }
                    Some(at) => {
                        sender.send(Response::Error {
                            code: ErrorCode::Unavailable,
                            message: format!(
                                "stream position mismatch for {}: request claims \
                                 row {}, stream is at {at}; resync from the \
                                 health report's rows_seen and re-send",
                                shared.spec.id, admitted_starts[i]
                            ),
                        });
                    }
                }
            }
            items = kept_items;
            admitted_seqs = kept_seqs;
            senders = kept_senders;
        }
    }
    if senders.is_empty() {
        answer_deferred(&slot.seq, deferred_dups);
        return;
    }

    let generation = shared.generation.load(Ordering::SeqCst);
    let drift_before = slot.monitor.drift_status().drifted;
    let replies = {
        let _span = obs::span("serve.batch");
        slot.monitor.push_batch(&items)
    };
    obs::counter("serve.batches", 1);
    obs::counter("serve.batch_items", items.len() as u64);
    obs::histogram("serve.batch_size", items.len() as f64);
    *lock(&shared.health) = slot.monitor.health();

    // The tenant's verdict stream, in order, for the regression sentinel.
    let batch_flags: Vec<bool> = replies
        .iter()
        .filter(|r| r.error.is_none())
        .flat_map(|r| r.verdicts.iter().map(|v| v.anomalous))
        .collect();

    for ((sender, reply), seq) in senders.into_iter().zip(replies).zip(admitted_seqs) {
        let resp = match reply.error {
            Some(e) => Response::Error {
                code: match e {
                    DetectorError::DimensionMismatch { .. }
                    | DetectorError::NonFiniteInput { .. }
                    | DetectorError::InvalidTrainingData(_) => ErrorCode::BadRequest,
                    _ => ErrorCode::Internal,
                },
                message: e.to_string(),
            },
            None => Response::Verdicts {
                generation,
                verdicts: reply
                    .verdicts
                    .iter()
                    .map(|v| WireVerdict {
                        index: v.index,
                        score: v.score,
                        votes: v.votes,
                        anomalous: v.anomalous,
                        degraded: v.degraded,
                    })
                    .collect(),
            },
        };
        if seq != 0 {
            // The rows are ingested either way (push_batch answered), so
            // the id is spent: record it and cache the reply verbatim.
            let st = &mut slot.seq;
            st.note_applied(seq);
            st.cache.push_back((seq, resp.clone()));
            while st.cache.len() > inner.cfg.replay_cache {
                st.cache.pop_front();
            }
        }
        sender.send(resp);
    }
    answer_deferred(&slot.seq, deferred_dups);

    // The regression sentinel and the escalation router run after the
    // batch answered, so any swap they make lands between batches.
    after_batch(&inner.cfg, slot, shared, drift_before, &batch_flags);

    // Cadenced sidecar snapshot: bounded failover loss. Runs after the
    // batch so the sidecar always captures a between-batches state.
    if slot.monitor.snapshot_due() && write_sidecar(&mut slot.monitor, shared).is_err() {
        obs::counter("serve.failover.sidecar_write_errors", 1);
    }
}

/// Writes the tenant's IMSM sidecar (cadenced or on request) and marks
/// the monitor snapshotted.
fn write_sidecar(monitor: &mut ServeMonitor, shared: &TenantShared) -> Result<(), DetectorError> {
    let t0 = Instant::now();
    monitor.checkpoint_stream(&shared.spec.checkpoint)?;
    monitor.mark_snapshotted();
    obs::counter("serve.failover.sidecar_writes", 1);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    obs::histogram("serve.failover.sidecar_write_ms", ms);
    Ok(())
}

/// Answers same-batch duplicates from the reply cache once (if) their
/// original's reply landed there. An original refused by admission or
/// the position guard never reaches the cache, so its duplicates get a
/// typed error instead — `Interrupted`, because from here the refused
/// and the applied-then-evicted cases are indistinguishable, and a
/// same-sequence-id retry is the one response that is correct for both
/// (admitted fresh if refused, answered by dedup if applied).
fn answer_deferred(st: &SeqState, deferred: Vec<(u64, ReplyTx)>) {
    for (seq, sender) in deferred {
        sender.send(st.cached(seq).unwrap_or_else(|| Response::Error {
            code: ErrorCode::Interrupted,
            message: format!(
                "duplicate of in-flight sequence id {seq} could not be answered \
                 from the reply cache"
            ),
        }));
    }
}

/// The post-batch control step: the regression sentinel, then the
/// escalation router on the batch's drift edge (`drift_before` is the
/// latch as `push_batch` found it). Every swap lands between batches, so
/// that reading is exactly where the previous batch or swap left the
/// latch. A rollback ends the step: its swap re-armed the latch against
/// the restored detector, so the edge it leaves is the swap's doing, not
/// the stream's.
fn after_batch(
    cfg: &ServeConfig,
    slot: &mut Slot,
    shared: &TenantShared,
    drift_before: bool,
    flags: &[bool],
) {
    if !observe_promotion(cfg, slot, shared, flags) {
        route_escalation(slot, shared, drift_before);
    }
}

/// Feeds the tenant's post-batch verdict stream to its regression
/// sentinel. While a watch is active, the decision fires on **exactly**
/// `regression_watch` post-swap verdicts — mid-batch if need be — so the
/// outcome is independent of batch coalescing and thread count. A tripped
/// watch installs its archived target again (the rollback is itself an
/// atomic between-batches swap: no serving gap) and records a
/// `RolledBack` verdict for the next `Reload` round-trip. Returns whether
/// it rolled back.
fn observe_promotion(
    cfg: &ServeConfig,
    slot: &mut Slot,
    shared: &TenantShared,
    flags: &[bool],
) -> bool {
    let promo = &mut slot.promo;
    let mut rolled_back = false;
    for &flag in flags {
        let Some(w) = &mut promo.watch else {
            promo.recent.push_back(flag);
            while promo.recent.len() > REGRESSION_BASELINE_WINDOW {
                promo.recent.pop_front();
            }
            continue;
        };
        w.seen += 1;
        w.anomalous += usize::from(flag);
        if w.seen < cfg.regression_watch {
            continue;
        }
        let RegressionWatch {
            baseline,
            seen,
            anomalous,
            target,
        } = promo.watch.take().expect("watch is armed");
        let rate = anomalous as f64 / seen as f64;
        let tripwire = (cfg.regression_factor * baseline).max(cfg.regression_min_rate);
        if rate <= tripwire {
            // Promotion confirmed: the archived target goes with the
            // watch and the post-swap verdicts seed the next baseline.
            obs::counter("serve.promotion.confirmed", 1);
            continue;
        }
        match target
            .build()
            .and_then(|det| install(&mut slot.monitor, shared, det, Some(target)))
        {
            Ok((generation, _)) => {
                obs::counter("serve.promotion.rollbacks", 1);
                let detail = format!(
                    "post-promotion regression: anomaly rate {rate:.3} over {seen} \
                     verdicts vs pre-swap baseline {baseline:.3}; archived incumbent \
                     restored as generation {generation}"
                );
                settle(shared, PromotionVerdict::RolledBack, detail, None);
                promo.recent.clear();
                rolled_back = true;
            }
            Err(_) => obs::counter("serve.reload_errors", 1),
        }
    }
    rolled_back
}

/// The escalation router: runs after every batch that did not roll back,
/// edge-triggered on how the batch moved the monitor's debounced drift
/// latch (`drift_before` before `push_batch`, the latch now after it). A
/// **trip** (the live distribution left the pinned rung's training
/// envelope) swaps in the ladder apex — a regime change is exactly when
/// the expensive model earns its cost. A **clear** re-runs the holdout
/// evaluation so a tenant whose regime settled can de-escalate back to
/// the cheapest adequate rung. Both repins persist the new rung's
/// envelope as the canonical checkpoint (failover restores the pin) and
/// bump the generation like any swap.
fn route_escalation(slot: &mut Slot, shared: &TenantShared, drift_before: bool) {
    let Some(ladder) = &shared.spec.escalation else {
        return;
    };
    let drifted = slot.monitor.drift_status().drifted;
    if drifted == drift_before {
        return;
    }
    let serving = slot.monitor.detector().kind();
    if drifted {
        let apex = ladder.rungs.last().expect("ladder validated non-empty");
        if serving == apex.kind {
            return;
        }
        obs::counter("serve.escalation.drift_escalations", 1);
        match AnyDetector::load(
            &shared.spec.cfg,
            shared.spec.seed,
            shared.spec.channels,
            &apex.checkpoint,
        ) {
            Ok(det) => repin(slot, shared, det),
            Err(_) => obs::counter("serve.escalation.errors", 1),
        }
    } else {
        match evaluate_and_choose(ladder, &shared.spec) {
            Ok(det) if det.kind() != serving => {
                obs::counter("serve.escalation.deescalations", 1);
                repin(slot, shared, det);
            }
            Ok(_) => {}
            Err(_) => obs::counter("serve.escalation.errors", 1),
        }
    }
}

/// Installs `det` as the tenant's pinned rung, persists it as the
/// canonical envelope (+ watcher stamp refresh so the rewrite is not
/// reloaded), and resets the regression sentinel — a family change
/// invalidates both the baseline and any armed watch with its archived
/// target.
fn repin(slot: &mut Slot, shared: &TenantShared, det: AnyDetector) {
    let spec = det.to_spec().ok().map(Box::new);
    match install(&mut slot.monitor, shared, det, spec) {
        Ok(_) => {
            obs::counter("serve.escalation.repins", 1);
            match slot.monitor.detector().save(&shared.spec.checkpoint) {
                Ok(()) => {
                    *lock(&shared.reload_stamp) = stamp(&shared.spec.checkpoint);
                }
                // Serving continues on the new rung either way; only the
                // failover pin is stale until the next successful write.
                Err(_) => obs::counter("serve.escalation.persist_errors", 1),
            }
            slot.promo = PromoState::default();
        }
        Err(_) => obs::counter("serve.escalation.errors", 1),
    }
}

/// The one path that changes a live tenant's detector (promotion,
/// rollback, escalation repin): swaps `det` in between batches, bumps
/// the generation, and publishes the serving family, `incumbent` (what
/// the validation gate compares candidates against) and fresh health —
/// the swap re-arms or clears the drift latch. Returns the new
/// generation and the incumbent it replaced.
fn install(
    monitor: &mut ServeMonitor,
    shared: &TenantShared,
    det: AnyDetector,
    incumbent: Option<Box<AnySpec>>,
) -> Result<(u64, Option<Box<AnySpec>>), DetectorError> {
    monitor.swap_detector(det)?;
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
    *lock(&shared.family) = monitor.detector().kind();
    let replaced = std::mem::replace(&mut *lock(&shared.incumbent), incumbent);
    *lock(&shared.health) = monitor.health();
    Ok((generation, replaced))
}

fn apply_cmd(inner: &ServerInner, slots: &mut [Option<Slot>], cmd: ShardCmd) {
    match cmd {
        ShardCmd::Swap {
            tenant,
            spec,
            reply,
        } => {
            let shared = &inner.tenants[tenant];
            let Some(slot) = slots[tenant].as_mut() else {
                // The tenant was never activated here (or a reload raced
                // adoption): count and skip, never panic the shard.
                obs::counter("serve.reload_errors", 1);
                if let Some(tx) = reply {
                    tx.send(Response::Error {
                        code: ErrorCode::Unavailable,
                        message: format!(
                            "tenant {} has no live monitor on this shard",
                            shared.spec.id
                        ),
                    });
                }
                return;
            };
            match spec
                .build()
                .and_then(|det| install(&mut slot.monitor, shared, det, Some(spec)))
            {
                Ok((generation, replaced)) => {
                    obs::counter("serve.reloads", 1);
                    obs::counter("serve.promotion.promoted", 1);
                    // The candidate is the new incumbent; arm the
                    // regression watch over the old one's baseline, with
                    // the old one as its rollback target.
                    if let Some(target) = replaced.filter(|_| inner.cfg.regression_watch > 0) {
                        let promo = &mut slot.promo;
                        promo.watch = Some(RegressionWatch {
                            baseline: promo.baseline_rate(),
                            seen: 0,
                            anomalous: 0,
                            target,
                        });
                        promo.recent.clear();
                    }
                    let detail =
                        format!("promoted candidate is serving as generation {generation}");
                    settle(shared, PromotionVerdict::Promoted, detail, reply);
                }
                Err(e) => {
                    obs::counter("serve.reload_errors", 1);
                    obs::counter("serve.promotion.rejected_corrupt", 1);
                    let msg = format!("swap refused for {}: {e}", shared.spec.id);
                    settle(shared, PromotionVerdict::RejectedCorrupt, msg, reply);
                }
            }
        }
        ShardCmd::Adopt { tenant, reply } => {
            let shared = &inner.tenants[tenant];
            if slots[tenant].is_some() {
                reply.send(Response::Ok); // idempotent
                return;
            }
            // A fresh slot: any promotion history belongs to the dead
            // replica and is discarded with it.
            match activate(shared, inner.cfg.snapshot_every) {
                Ok(slot) => {
                    slots[tenant] = Some(slot);
                    shared.active.store(true, Ordering::SeqCst);
                    obs::counter("serve.failover.adoptions", 1);
                    reply.send(Response::Ok);
                }
                Err(e) => {
                    reply.send(Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("adoption of {} failed: {e}", shared.spec.id),
                    });
                }
            }
        }
        ShardCmd::Snapshot { tenant, reply } => {
            let shared = &inner.tenants[tenant];
            let Some(Slot { monitor, .. }) = slots[tenant].as_mut() else {
                reply.send(Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!(
                        "tenant {} is not active on this replica",
                        shared.spec.id
                    ),
                });
                return;
            };
            reply.send(match write_sidecar(monitor, shared) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("snapshot of {} failed: {e}", shared.spec.id),
                },
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling (readiness event loop)
// ---------------------------------------------------------------------------

/// Poll tick: the upper bound on how stale the idle / frame-progress
/// deadline checks can run. Wake-ups for completions, readable sockets
/// and accepts interrupt the sleep immediately.
const POLL_TICK_MS: i32 = 25;

/// The server's data plane: one thread multiplexing the listener and
/// every client connection over `poll(2)`.
///
/// Per iteration: drain shard completions into per-connection
/// slot-ordered reply queues, accept, read + frame + dispatch, flush,
/// then enforce the idle and per-frame-progress deadlines. A connection
/// whose write buffer is over the high-water mark stops being polled
/// for reads (backpressure); one that dies or misbehaves is closed with
/// its `conn_streams` clone cleaned up, exactly like the old
/// per-connection threads did.
///
/// Exit: `kill` severs everything immediately; `drain` stops accepting,
/// flushes every outstanding reply, then closes connections and
/// returns.
fn event_loop_main(inner: Arc<ServerInner>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    let completions = Arc::clone(&inner.completions);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    // Reused each iteration: poll set + the conn id each slot refers to.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut fd_ids: Vec<u64> = Vec::new();

    loop {
        if inner.killed.load(Ordering::SeqCst) {
            for (_, c) in conns.drain() {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
            }
            return;
        }
        let draining = inner.draining.load(Ordering::SeqCst);
        if draining {
            for c in conns.values_mut() {
                c.closing = true;
            }
        }

        fds.clear();
        fd_ids.clear();
        fds.push(sys::PollFd::new(completions.poll_fd(), sys::POLLIN));
        let accepting = !draining;
        if accepting {
            fds.push(sys::PollFd::new(mux::raw_fd(&listener), sys::POLLIN));
        }
        let base = fds.len();
        for c in conns.values() {
            let mut ev = 0i16;
            if c.wants_read() {
                ev |= sys::POLLIN;
            }
            if c.wants_write() {
                ev |= sys::POLLOUT;
            }
            fds.push(sys::PollFd::new(mux::raw_fd(&c.stream), ev));
            fd_ids.push(c.id);
        }
        if sys::poll_fds(&mut fds, POLL_TICK_MS).is_err() {
            // EBADF and friends only happen mid-shutdown races; the flag
            // checks at the top of the loop decide what to do.
            continue;
        }

        // Completions first: frees write buffers before new reads.
        for comp in completions.drain() {
            if let Some(c) = conns.get_mut(&comp.conn) {
                c.push_response(comp.slot, comp.resp);
            }
        }

        if accepting && fds[base - 1].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if inner.isolated.load(Ordering::SeqCst) {
                            // Partitioned: accept then drop, so peers see
                            // an immediate EOF rather than a served reply.
                            drop(stream);
                            continue;
                        }
                        obs::counter("serve.connections", 1);
                        if let Ok(clone) = stream.try_clone() {
                            lock(&inner.conn_streams).push(clone);
                        }
                        if let Ok(conn) = Conn::new(stream, next_id) {
                            conns.insert(next_id, conn);
                            next_id += 1;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        for (i, fd) in fds[base..].iter().enumerate() {
            if !fd.readable() {
                continue;
            }
            let Some(c) = conns.get_mut(&fd_ids[i]) else {
                continue;
            };
            if let FillOutcome::Eof = c.fill() {
                // Half-close: stop reading but still flush every pending
                // reply before dropping the connection.
            }
            process_frames(&inner, &completions, c);
        }

        // Inline dispatches (ping, health, refusals) post completions
        // synchronously; fold them in before flushing.
        for comp in completions.drain() {
            if let Some(c) = conns.get_mut(&comp.conn) {
                c.push_response(comp.slot, comp.resp);
            }
        }

        for c in conns.values_mut() {
            if c.wants_write() && c.flush().is_err() {
                c.dead = true;
            }
        }

        // Deadline ticks: idle (no frame activity at all) and per-frame
        // progress (slowloris: a started frame must finish in time).
        for c in conns.values_mut() {
            if c.dead || c.closing || c.eof {
                continue;
            }
            match c.frame_started {
                None => {
                    if let Some(budget) = inner.cfg.idle_timeout {
                        if c.last_frame.elapsed() >= budget {
                            obs::counter("serve.idle_closed", 1);
                            c.closing = true;
                        }
                    }
                }
                Some(started) => {
                    if let Some(budget) = inner.cfg.frame_deadline {
                        if started.elapsed() >= budget {
                            obs::counter("serve.frame_stalled_closed", 1);
                            c.eof = true;
                            c.closing = true;
                        }
                    }
                }
            }
        }

        let done: Vec<u64> = conns
            .values()
            .filter(|c| c.dead || ((c.eof || c.closing) && c.fully_flushed()))
            .map(|c| c.id)
            .collect();
        for id in done {
            if let Some(c) = conns.remove(&id) {
                close_conn(&inner, c);
            }
        }

        if draining && conns.is_empty() {
            return;
        }
    }
}

/// Scans every complete frame out of `c`'s read buffer, decoding
/// payloads zero-copy (borrowed straight from the buffer) and
/// dispatching each request under the connection's next reply slot. A
/// framing or decode error answers `BadRequest` on the slot and marks
/// the connection closing — the stream is unreliable past that point.
fn process_frames(inner: &Arc<ServerInner>, completions: &Arc<Completions>, c: &mut Conn) {
    loop {
        if c.closing {
            return;
        }
        match c.scan() {
            Ok(None) => return,
            Ok(Some(frame)) => {
                let decoded = Request::decode(
                    frame.kind,
                    c.rbuf_slice(frame.payload_start, frame.payload_end),
                );
                match decoded {
                    Ok(req) => {
                        c.consume(frame.total);
                        obs::counter("serve.requests", 1);
                        let slot = c.assign_slot();
                        dispatch(inner, req, ReplyTx::slot(completions, c.id, slot));
                    }
                    Err(err) => {
                        c.push_inline(Response::Error {
                            code: ErrorCode::BadRequest,
                            message: err.to_string(),
                        });
                        c.eof = true;
                        c.closing = true;
                        return;
                    }
                }
            }
            Err(err) => {
                c.push_inline(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                });
                c.eof = true;
                c.closing = true;
                return;
            }
        }
    }
}

/// Drops one connection: shutdown acts on the socket across every clone
/// (the peer sees EOF even though `conn_streams` holds a duplicate),
/// then the clone is retired.
fn close_conn(inner: &ServerInner, c: Conn) {
    let _ = c.stream.shutdown(std::net::Shutdown::Both);
    let peer = c.peer;
    lock(&inner.conn_streams).retain(|s| match s.peer_addr() {
        Ok(a) => Some(a) != peer,
        Err(_) => false, // already dead — drop it too
    });
}

/// Routes one request. Cheap requests answer through `reply` inline
/// (which posts a completion); the score path moves `reply` into a
/// queued job and the shard answers later. Heavy control work (reload
/// validation) runs on a short-lived thread so the event loop never
/// stalls behind it.
fn dispatch(inner: &Arc<ServerInner>, req: Request, reply: ReplyTx) {
    match req {
        Request::Ping => reply.send(Response::Ok),
        Request::Health => reply.send(inner.health_report()),
        Request::ObsSnapshot => reply.send(Response::ObsJson {
            json: obs::snapshot_json(),
        }),
        Request::Drain => {
            inner.begin_drain();
            reply.send(Response::Ok)
        }
        Request::Reload { tenant } => match inner.tenant_index(&tenant) {
            None => reply.send(Response::Error {
                code: ErrorCode::UnknownTenant,
                message: format!("no tenant {tenant:?}"),
            }),
            Some(idx) => {
                // Checkpoint load + holdout gating are far too heavy for
                // the event loop; validate off-thread. The answer is a
                // ReloadStatus sent by the gate (on rejection) or by the
                // shard after the swap lands (on promotion).
                let inner = Arc::clone(inner);
                std::thread::spawn(move || inner.reload_tenant(idx, None, Some(reply)));
            }
        },
        Request::Adopt { tenant } => match inner.tenant_index(&tenant) {
            None => reply.send(Response::Error {
                code: ErrorCode::UnknownTenant,
                message: format!("no tenant {tenant:?}"),
            }),
            Some(idx) => {
                let shared = &inner.tenants[idx];
                if shared.active.load(Ordering::SeqCst) {
                    return reply.send(Response::Ok); // idempotent
                }
                // Monitor creation must happen on the owning shard
                // thread; the shard answers through `reply` when done.
                let shard = &inner.shards[shared.shard];
                {
                    let mut q = lock(&shard.q);
                    q.cmds.push(ShardCmd::Adopt { tenant: idx, reply });
                }
                shard.cv.notify_all();
            }
        },
        Request::Snapshot { tenant } => match inner.tenant_index(&tenant) {
            None => reply.send(Response::Error {
                code: ErrorCode::UnknownTenant,
                message: format!("no tenant {tenant:?}"),
            }),
            Some(idx) => {
                let shared = &inner.tenants[idx];
                if !shared.active.load(Ordering::SeqCst) {
                    return reply.send(Response::Error {
                        code: ErrorCode::Unavailable,
                        message: format!(
                            "tenant {tenant:?} is not placed on this replica"
                        ),
                    });
                }
                let shard = &inner.shards[shared.shard];
                {
                    let mut q = lock(&shard.q);
                    q.cmds.push(ShardCmd::Snapshot { tenant: idx, reply });
                }
                shard.cv.notify_all();
            }
        },
        Request::Score {
            tenant,
            seq,
            start_row,
            gap_before,
            rows,
        } => {
            obs::counter("serve.score_requests", 1);
            let Some(idx) = inner.tenant_index(&tenant) else {
                return reply.send(Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant {tenant:?}"),
                });
            };
            let shared = &inner.tenants[idx];
            if !shared.active.load(Ordering::SeqCst) {
                return reply.send(Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!("tenant {tenant:?} is not placed on this replica"),
                });
            }
            let channels = shared.spec.channels;
            if let Some(bad) = rows.iter().find(|r| r.len() != channels) {
                return reply.send(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "row has {} channels, tenant {tenant:?} expects {channels}",
                        bad.len()
                    ),
                });
            }
            // Admission control, cheapest checks first.
            if inner.draining.load(Ordering::SeqCst) {
                return reply.send(Response::Error {
                    code: ErrorCode::Draining,
                    message: "server is draining; no new scoring work".into(),
                });
            }
            let queued = inner.queued.fetch_add(1, Ordering::SeqCst);
            if queued >= inner.cfg.max_queue {
                inner.queued.fetch_sub(1, Ordering::SeqCst);
                obs::counter("serve.overloaded", 1);
                return reply.send(Response::Error {
                    code: ErrorCode::Overloaded,
                    message: DetectorError::Overloaded {
                        queued,
                        limit: inner.cfg.max_queue,
                    }
                    .to_string(),
                });
            }
            let job = ScoreJob {
                tenant: idx,
                seq,
                start_row,
                item: BatchItem {
                    gap_before: gap_before as usize,
                    rows,
                    shed: false,
                },
                enqueued: Instant::now(),
                reply,
            };
            shared.queue_depth.fetch_add(1, Ordering::SeqCst);
            let shard = &inner.shards[shared.shard];
            {
                let mut q = lock(&shard.q);
                q.jobs.push_back(job);
            }
            shard.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Watcher
// ---------------------------------------------------------------------------

fn watcher_main(inner: Arc<ServerInner>, poll: Duration) {
    let mut last_scan = Instant::now();
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20).min(poll));
        if last_scan.elapsed() < poll {
            continue;
        }
        last_scan = Instant::now();
        for idx in 0..inner.tenants.len() {
            let t = &inner.tenants[idx];
            if !t.active.load(Ordering::SeqCst) {
                continue;
            }
            let now = stamp(&t.spec.checkpoint);
            let changed = {
                let guard = lock(&t.reload_stamp);
                now.is_some() && *guard != now
            };
            if changed {
                // Errors are counted inside reload_tenant; the stamp is
                // recorded either way so one bad rewrite is not retried
                // in a loop.
                inner.reload_tenant(idx, now, None);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

/// A running server. Dropping the handle without calling
/// [`Server::drain`] leaves detached threads running until process exit;
/// call `drain` for an orderly stop.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    /// The readiness event loop: listener + every client connection on
    /// one thread. Total server threads = 1 loop + shards + watcher,
    /// independent of connection count.
    loop_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, loads every tenant and starts serving. Returns once all
    /// shards report their monitors loaded; any load failure aborts
    /// startup with the underlying error.
    pub fn start(cfg: ServeConfig, tenants: Vec<TenantSpec>) -> Result<Server, ServeError> {
        let all = vec![true; tenants.len()];
        Server::start_placed(cfg, tenants, &all)
    }

    /// Starts a **replica**: the full tenant roster is registered (so
    /// failover can adopt any of it later) but only the tenants marked in
    /// `active` are loaded and served. Requests for registered-but-
    /// inactive tenants are refused with a typed
    /// [`ErrorCode::Unavailable`]. Tenants whose IMSM sidecar exists next
    /// to the checkpoint resume mid-stream instead of re-warming.
    pub fn start_placed(
        cfg: ServeConfig,
        tenants: Vec<TenantSpec>,
        active: &[bool],
    ) -> Result<Server, ServeError> {
        if tenants.is_empty() {
            return Err(ServeError::Config("no tenants to serve".into()));
        }
        if active.len() != tenants.len() {
            return Err(ServeError::Config(format!(
                "active mask has {} entries for {} tenants",
                active.len(),
                tenants.len()
            )));
        }
        {
            let mut ids: Vec<&str> = tenants.iter().map(|t| t.id.as_str()).collect();
            ids.sort_unstable();
            if ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(ServeError::Config("duplicate tenant ids".into()));
            }
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;

        let n_shards = cfg.shards.max(1).min(tenants.len());
        let placement = place_tenants(tenants.iter().map(|t| t.family), n_shards);
        let shared: Vec<Arc<TenantShared>> = tenants
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(TenantShared::new(spec, placement[i], active[i])))
            .collect();
        let completions =
            Completions::new().map_err(|e| ServeError::Io(e.to_string()))?;
        let inner = Arc::new(ServerInner {
            cfg,
            tenants: shared,
            shards: (0..n_shards).map(|_| Shard::default()).collect(),
            queued: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            isolated: AtomicBool::new(false),
            conn_streams: Mutex::new(Vec::new()),
            completions,
        });

        // Shards load their monitors on their own threads (tensors are
        // not Send); wait for all of them before accepting traffic.
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut shard_threads = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let inner = Arc::clone(&inner);
            let tx = ready_tx.clone();
            shard_threads.push(std::thread::spawn(move || shard_main(inner, s, tx)));
        }
        drop(ready_tx);
        let mut startup_err = None;
        for _ in 0..n_shards {
            match ready_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    startup_err.get_or_insert(e);
                }
                Err(_) => {
                    startup_err.get_or_insert(ServeError::Io(
                        "a shard died during startup".into(),
                    ));
                }
            }
        }
        if let Some(e) = startup_err {
            inner.begin_drain();
            for t in shard_threads {
                let _ = t.join();
            }
            return Err(e);
        }

        let loop_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || event_loop_main(inner, listener))
        };
        let watcher = inner.cfg.reload_poll.map(|poll| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watcher_main(inner, poll))
        });

        Ok(Server {
            inner,
            addr,
            loop_thread: Some(loop_thread),
            shard_threads,
            watcher,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current model generation of `tenant`, if registered.
    pub fn generation(&self, tenant: &str) -> Option<u64> {
        self.inner
            .tenant_index(tenant)
            .map(|i| self.inner.tenants[i].generation.load(Ordering::SeqCst))
    }

    /// Graceful shutdown: stop accepting, refuse new scoring work, flush
    /// every queued request, join all threads. Queued requests still get
    /// real replies — drain never silently drops work.
    pub fn drain(mut self) {
        // begin_drain wakes the event loop through the completions
        // waker; the loop marks every connection closing, flushes all
        // outstanding replies (shards drain their queues before
        // exiting, and every ReplyTx is send-or-drop), then returns.
        self.inner.begin_drain();
        if let Some(l) = self.loop_thread.take() {
            let _ = l.join();
        }
        for t in std::mem::take(&mut self.shard_threads) {
            let _ = t.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }

    /// Abrupt crash, for failover drills: queued work is **dropped** (the
    /// opposite of [`Server::drain`]), every open connection is severed
    /// mid-flight and the listener stops. Peers see EOF or a connection
    /// reset, never a reply. Shards, the acceptor and the watcher are
    /// joined so the process owns no background work afterwards;
    /// connection threads are left to die on their broken sockets, which
    /// is what a real crash looks like to the remote end.
    pub fn kill(mut self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.cv.notify_all();
        }
        let streams = std::mem::take(&mut *lock(&self.inner.conn_streams));
        for s in streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Wake the event loop; it checks the kill flag first thing and
        // severs whatever connections remain.
        self.inner.completions.wake();
        if let Some(l) = self.loop_thread.take() {
            let _ = l.join();
        }
        for t in std::mem::take(&mut self.shard_threads) {
            let _ = t.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }

    /// Network partition, for failover drills: the replica keeps running
    /// (shards, watcher, cadenced snapshots) but every open connection is
    /// severed and new connections are accepted then immediately dropped.
    /// From the router's side this is indistinguishable from a crash —
    /// heartbeats connect and see EOF — which is exactly the ambiguity a
    /// supervisor must fence before re-placing tenants.
    pub fn isolate(&self) {
        self.inner.isolated.store(true, Ordering::SeqCst);
        let streams = std::mem::take(&mut *lock(&self.inner.conn_streams));
        for s in streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, LabeledDataset as Dataset, SizeProfile};
    use imdiff_data::Detector;
    use DetectorKind::{IForest, ZScore};

    #[test]
    fn tenants_of_each_family_spread_over_the_shards() {
        use DetectorKind::{IForest, ImDiffusion, ZScore};
        // Families alternating in step with two shards: each shard gets
        // half of each family (`i % 2` would give shard 0 every ZScore).
        let alternating = [ZScore, IForest].repeat(4);
        let placed = place_tenants(alternating.iter().copied(), 2);
        assert_eq!(placed, [0, 1, 1, 0, 0, 1, 1, 0]);
        for family in [ZScore, IForest] {
            let on_zero = (0..8)
                .filter(|&i| alternating[i] == family && placed[i] == 0)
                .count();
            assert_eq!(on_zero, 2, "{family:?}");
        }
        // One family, or families in runs: plain round-robin.
        let one = place_tenants([ImDiffusion; 5], 3);
        assert_eq!(one, [0, 1, 2, 0, 1]);
        let runs = place_tenants([ZScore, ZScore, ZScore, IForest, IForest, IForest], 2);
        assert_eq!(runs, [0, 1, 0, 1, 0, 1]);
        // More shards than tenants of a family, and a single shard.
        assert_eq!(place_tenants([ZScore, IForest, ZScore], 4), [0, 1, 1]);
        assert_eq!(place_tenants([ZScore, IForest, ZScore], 1), [0, 0, 0]);
    }

    /// A small seeded series and a config with a 16-row serving window.
    fn fixture() -> (Dataset, ImDiffusionConfig) {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 160,
                test_len: 96,
            },
            3,
        );
        let cfg = ImDiffusionConfig {
            window: 16,
            ..ImDiffusionConfig::quick()
        };
        (ds, cfg)
    }

    fn fitted(kind: DetectorKind, ds: &Dataset, cfg: &ImDiffusionConfig) -> AnyDetector {
        let mut det = AnyDetector::new(kind, cfg.clone(), 5);
        det.fit(&ds.train).unwrap();
        det
    }

    /// A tenant whose ladder holds `rungs`, each fitted and saved under
    /// `dir`, with a 48-row labeled holdout.
    fn laddered_tenant(
        dir: &std::path::Path,
        family: DetectorKind,
        rungs: &[DetectorKind],
        ds: &Dataset,
        cfg: &ImDiffusionConfig,
    ) -> TenantSpec {
        std::fs::create_dir_all(dir).unwrap();
        let rungs = rungs
            .iter()
            .map(|&kind| {
                let checkpoint = dir.join(format!("{kind}.imde"));
                fitted(kind, ds, cfg).save(&checkpoint).unwrap();
                RungSpec { kind, checkpoint }
            })
            .collect();
        TenantSpec {
            id: "t".into(),
            checkpoint: dir.join("canonical.imde"),
            cfg: cfg.clone(),
            seed: 5,
            channels: ds.train.dim(),
            hop: 4,
            holdout: None,
            drift_policy: Some((2.0, 1)),
            family,
            escalation: Some(EscalationSpec {
                rungs,
                f1_tolerance: 0.0,
                holdout_rows: (0..48).map(|l| ds.test.row(l).to_vec()).collect(),
                holdout_labels: ds.labels[..48].to_vec(),
            }),
        }
    }

    /// A drift-armed monitor around `det` with no verdicts yet.
    fn armed_slot(det: AnyDetector, k: usize) -> Slot {
        let mut monitor = StreamingMonitor::new(det, k, 4).unwrap();
        assert!(monitor.set_drift_policy(2.0, 1));
        Slot {
            monitor,
            seq: SeqState::default(),
            promo: PromoState::default(),
        }
    }

    /// Rows far outside the training range: trips the drift latch.
    fn push_drifting_rows(slot: &mut Slot, ds: &Dataset) -> Vec<bool> {
        let mut flags = Vec::new();
        for l in 0..64 {
            let row: Vec<f32> = ds.test.row(l).iter().map(|v| v + 50.0).collect();
            flags.extend(slot.monitor.push(&row).unwrap().iter().map(|v| v.anomalous));
        }
        flags
    }

    #[test]
    fn rollback_of_a_drifted_tenant_does_not_deescalate() {
        let (ds, cfg) = fixture();
        let k = ds.train.dim();
        // The tenant served ZScore, promoted IForest, and its ladder's
        // only rung is IForest: any ladder re-run would repin IForest.
        let dir = std::env::temp_dir().join(format!("imdf-rollback-{}", std::process::id()));
        let shared = TenantShared::new(
            laddered_tenant(&dir, ZScore, &[IForest], &ds, &cfg),
            0,
            true,
        );

        // The promoted IForest drifts: rows far outside its training range.
        let mut slot = armed_slot(fitted(IForest, &ds, &cfg), k);
        push_drifting_rows(&mut slot, &ds);
        let drift_before = slot.monitor.drift_status().drifted;
        assert!(drift_before);

        // Its regression watch trips on the next verdict.
        let serve = ServeConfig::default();
        slot.promo.watch = Some(RegressionWatch {
            baseline: 0.0,
            seen: serve.regression_watch - 1,
            anomalous: serve.regression_watch - 1,
            target: Box::new(fitted(ZScore, &ds, &cfg).to_spec().unwrap()),
        });
        obs::set_enabled(true);
        let evaluations = || obs::snapshot().counter("serve.escalation.evaluations");
        let before = evaluations();
        after_batch(&serve, &mut slot, &shared, drift_before, &[true]);
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(slot.monitor.detector().kind(), ZScore);
        assert_eq!(*shared.family.lock().unwrap(), ZScore);
        assert_eq!(shared.promo.lock().unwrap().0, PromotionVerdict::RolledBack);
        assert_eq!(evaluations(), before, "the rollback re-ran the ladder");
    }

    #[test]
    fn drift_trip_during_a_regression_watch_repins_and_disarms_it() {
        let (ds, cfg) = fixture();
        let k = ds.train.dim();
        // ZScore was just promoted over an archived ZScore incumbent; the
        // ladder's apex is IForest.
        let dir = std::env::temp_dir().join(format!("imdf-watch-trip-{}", std::process::id()));
        let shared = TenantShared::new(
            laddered_tenant(&dir, ZScore, &[ZScore, IForest], &ds, &cfg),
            0,
            true,
        );
        let mut slot = armed_slot(fitted(ZScore, &ds, &cfg), k);
        let serve = ServeConfig {
            regression_watch: 128,
            ..ServeConfig::default()
        };
        slot.promo.watch = Some(RegressionWatch {
            baseline: 0.0,
            seen: 0,
            anomalous: 0,
            target: Box::new(fitted(ZScore, &ds, &cfg).to_spec().unwrap()),
        });

        // One batch trips the drift latch while the watch is still open.
        let drift_before = slot.monitor.drift_status().drifted;
        assert!(!drift_before);
        let flags = push_drifting_rows(&mut slot, &ds);
        assert!(slot.monitor.drift_status().drifted);
        assert!(flags.len() < serve.regression_watch, "watch still open");
        after_batch(&serve, &mut slot, &shared, drift_before, &flags);

        // The apex repin disarmed the watch and dropped its target.
        assert_eq!(slot.monitor.detector().kind(), IForest);
        assert!(slot.promo.watch.is_none());
        let generation = || shared.generation.load(Ordering::SeqCst);
        assert_eq!(generation(), 2);

        // A full watch's worth of anomalous verdicts rolls nothing back.
        let drift_before = slot.monitor.drift_status().drifted;
        let anomalous_run = vec![true; 2 * serve.regression_watch];
        after_batch(&serve, &mut slot, &shared, drift_before, &anomalous_run);
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(slot.monitor.detector().kind(), IForest);
        assert_eq!(*shared.family.lock().unwrap(), IForest);
        assert_eq!(shared.promo.lock().unwrap().0, PromotionVerdict::NoAttempt);
        assert_eq!(generation(), 2, "one repin, no rollback");
    }

    #[test]
    fn a_corrupt_canonical_pin_is_counted_and_rechosen() {
        let (ds, cfg) = fixture();
        let dir = std::env::temp_dir().join(format!("imdf-corrupt-pin-{}", std::process::id()));
        let spec = laddered_tenant(&dir, ZScore, &[ZScore], &ds, &cfg);
        obs::set_enabled(true);
        let corrupt_pins = || {
            obs::snapshot()
                .counter("serve.escalation.corrupt_pins")
                .unwrap_or(0)
        };

        // A missing pin is a first activation, not a corruption.
        let before = corrupt_pins();
        assert_eq!(load_or_escalate(&spec).unwrap().kind(), ZScore);
        assert_eq!(corrupt_pins(), before);

        // A truncated pin still re-chooses, is counted once, and the
        // re-chosen pin is persisted whole; a deleted one is not counted.
        let bytes = std::fs::read(&spec.checkpoint).unwrap();
        std::fs::write(&spec.checkpoint, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load_or_escalate(&spec).unwrap().kind(), ZScore);
        assert_eq!(corrupt_pins(), before + 1);
        assert_eq!(std::fs::read(&spec.checkpoint).unwrap(), bytes);
        std::fs::remove_file(&spec.checkpoint).unwrap();
        assert_eq!(load_or_escalate(&spec).unwrap().kind(), ZScore);
        assert_eq!(corrupt_pins(), before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
