//! The micro-batching embedding server.
//!
//! One accept loop, one connection thread per client, one scheduler
//! thread. Connection threads decode requests (parse → canonical hash →
//! feature/schedule preparation), answer cache hits immediately, and
//! enqueue misses. The scheduler collects jobs for up to
//! [`ServeConfig::batch_window`] (or until [`ServeConfig::max_batch`]
//! jobs are waiting), dedups them by canonical hash, runs **one** call of
//! the tape-free GNN pass over the unique circuits, and fans the
//! resulting bytes back to every waiter.
//!
//! Determinism: the pass (`CircuitGnn::infer`) computes the tape
//! forward's values bit for bit and shares nothing numeric between the
//! circuits of a batch, so the bytes a client receives do not depend on
//! who else happened to share its batch. That is what makes the embedding
//! cache sound — a cached reply is bit-identical to a recomputed one — and
//! it is pinned by `tests/serve_integration.rs`.
//!
//! # Self-healing
//!
//! The server is built to keep answering — correctly — while the world
//! misbehaves around it:
//!
//! - **Generations.** The embedder lives behind an `Arc` in a
//!   [`Generation`] that a validated hot-reload (see `reload.rs`)
//!   atomically swaps. Every request pins the generation it was prepared
//!   on and completes there; the cache is generation-stamped so bytes
//!   from a batch that straddled a swap can never be served afterwards.
//! - **Supervision.** The scheduler, accept, and watcher threads run
//!   under [`spawn_supervised`]: a panic is caught and the thread body
//!   restarted, up to [`ServeConfig::respawn_budget`] times per thread
//!   (counted in [`ServeStats::respawns`] and `serve.respawn`). A
//!   scheduler that exhausts its budget stays down, but its queue
//!   disconnects — waiting clients get a typed `Internal` error instead
//!   of a wedge, and STATS/HEALTH keep answering.
//! - **Health.** The `HEALTH` op reports uptime, the serving generation,
//!   reload/respawn counters, and the live queue depth, so an operator
//!   (or the chaos harness) can tell a healthy server from a limping one
//!   without scraping logs.
//! - **Net faults.** Every reply routes through [`write_reply`], which
//!   consults the `net` fault site (`MOSS_FAULTS=net:…`) and — when
//!   armed — sabotages the transport (mid-frame disconnect, partial
//!   write then hard close, or a read stall) *without ever emitting a
//!   frame that could decode as a wrong answer*. A partially written
//!   frame is always a strict prefix whose length header promises more
//!   bytes than arrive, so clients see a transport error, never bad
//!   embedding bytes.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use moss::NetlistEmbedder;
use moss_gnn::CircuitGraph;
use moss_netlist::{canonical_hash, parse_verilog, Netlist};

use crate::cache::LruCache;
use crate::protocol::{
    encode_frame, error_payload, read_frame, reload_payload, write_frame, ErrorCode,
    FrameReadError, OP_EMBED, OP_EMBEDDING, OP_ERROR, OP_HEALTH, OP_HEALTH_REPLY, OP_RELOAD,
    OP_RELOAD_REPLY, OP_STATS, OP_STATS_REPLY,
};

/// Tuning knobs, each overridable from the environment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long the scheduler waits for more jobs after the first one
    /// arrives (`MOSS_SERVE_BATCH_MS`, default 2 ms).
    pub batch_window: Duration,
    /// Jobs per batched forward (`MOSS_SERVE_MAX_BATCH`, default 16).
    pub max_batch: usize,
    /// Embedding-cache entries before LRU eviction kicks in
    /// (`MOSS_SERVE_CACHE_CAP`, default 4096; 0 disables caching).
    pub cache_cap: usize,
    /// Bounded scheduler queue; a full queue rejects with `Overload`
    /// (`MOSS_SERVE_QUEUE_CAP`, default 256).
    pub queue_cap: usize,
    /// Per-connection read timeout so a stalled client cannot pin a
    /// thread forever (`MOSS_SERVE_READ_TIMEOUT_MS`, default 10 s).
    pub read_timeout: Duration,
    /// Checkpoint path an empty-payload `RELOAD` (and the watcher, when
    /// enabled) reloads from (`MOSS_SERVE_CKPT`, default none).
    pub ckpt_path: Option<PathBuf>,
    /// How often the watcher polls [`ServeConfig::ckpt_path`] for an
    /// mtime change and hot-reloads it (`MOSS_SERVE_WATCH_MS`, default
    /// off; 0 disables).
    pub watch_interval: Option<Duration>,
    /// Maximum times each supervised thread (scheduler, accept, watcher)
    /// is respawned after a panic before it is left down
    /// (`MOSS_SERVE_RESPAWN_BUDGET`, default 8).
    pub respawn_budget: u64,
    /// Test hook: when set, an `EMBED` whose payload equals
    /// [`PANIC_MARKER`] poisons its batch so the scheduler panics —
    /// exercising supervision without a debug backdoor in production
    /// (never settable from the environment).
    #[doc(hidden)]
    pub panic_marker: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            cache_cap: 4096,
            queue_cap: 256,
            read_timeout: Duration::from_secs(10),
            ckpt_path: None,
            watch_interval: None,
            respawn_budget: 8,
            panic_marker: false,
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl ServeConfig {
    /// Defaults overridden by `MOSS_SERVE_*` environment variables.
    pub fn from_env() -> ServeConfig {
        let mut c = ServeConfig::default();
        if let Some(ms) = env_u64("MOSS_SERVE_BATCH_MS") {
            c.batch_window = Duration::from_millis(ms);
        }
        if let Some(n) = env_u64("MOSS_SERVE_MAX_BATCH") {
            c.max_batch = (n as usize).max(1);
        }
        if let Some(n) = env_u64("MOSS_SERVE_CACHE_CAP") {
            c.cache_cap = n as usize;
        }
        if let Some(n) = env_u64("MOSS_SERVE_QUEUE_CAP") {
            c.queue_cap = (n as usize).max(1);
        }
        if let Some(ms) = env_u64("MOSS_SERVE_READ_TIMEOUT_MS") {
            c.read_timeout = Duration::from_millis(ms.max(1));
        }
        if let Ok(p) = std::env::var("MOSS_SERVE_CKPT") {
            if !p.trim().is_empty() {
                c.ckpt_path = Some(PathBuf::from(p));
            }
        }
        if let Some(ms) = env_u64("MOSS_SERVE_WATCH_MS") {
            c.watch_interval = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(n) = env_u64("MOSS_SERVE_RESPAWN_BUDGET") {
            c.respawn_budget = n;
        }
        c
    }
}

/// Payload that triggers a deliberate scheduler panic when
/// [`ServeConfig::panic_marker`] is set (test hook for supervision).
#[doc(hidden)]
pub const PANIC_MARKER: &[u8] = b"__moss_serve_panic__";

/// Monotonic serving counters, readable over [`OP_STATS`].
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Embed requests accepted off the wire.
    pub requests: AtomicU64,
    /// Requests answered by a forward pass.
    pub embedded: AtomicU64,
    /// Requests answered from the embedding cache.
    pub cache_hits: AtomicU64,
    /// Cache entries evicted to make room (LRU).
    pub evicted: AtomicU64,
    /// Requests answered with an error frame.
    pub errors: AtomicU64,
    /// Requests rejected because the queue was full.
    pub rejected: AtomicU64,
    /// Batched forward passes run.
    pub batches: AtomicU64,
    /// Jobs across all batched forward passes.
    pub batched_requests: AtomicU64,
    /// Largest batch observed.
    pub max_batch_occupancy: AtomicU64,
    /// Checkpoint hot-reloads that validated and swapped in.
    pub reloads: AtomicU64,
    /// Checkpoint hot-reloads rejected by validation (the previous
    /// generation kept serving).
    pub reload_failures: AtomicU64,
    /// Supervised threads respawned after a panic.
    pub respawns: AtomicU64,
}

impl ServeStats {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\": {}, \"embedded\": {}, \"cache_hits\": {}, ",
                "\"evicted\": {}, \"errors\": {}, \"rejected\": {}, \"batches\": {}, ",
                "\"batched_requests\": {}, \"max_batch_occupancy\": {}, ",
                "\"reloads\": {}, \"reload_failures\": {}, \"respawns\": {}}}"
            ),
            self.requests.load(Ordering::Relaxed),
            self.embedded.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.evicted.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.batched_requests.load(Ordering::Relaxed),
            self.max_batch_occupancy.load(Ordering::Relaxed),
            self.reloads.load(Ordering::Relaxed),
            self.reload_failures.load(Ordering::Relaxed),
            self.respawns.load(Ordering::Relaxed),
        )
    }
}

type ReplyBytes = Result<Arc<Vec<u8>>, (ErrorCode, String)>;

/// One queued miss: the prepared circuit, the channel its embedding
/// bytes go back on, and the generation it was prepared on (it completes
/// there even if a reload lands mid-flight).
struct Job {
    hash: u64,
    circuit: CircuitGraph,
    resp: mpsc::Sender<ReplyBytes>,
    generation: Arc<Generation>,
    /// Test hook: a poisoned job panics the scheduler (supervision test).
    poison: bool,
}

/// One serving checkpoint: the embedder plus its monotonic generation
/// number. Swapped wholesale by a validated hot-reload.
#[derive(Debug)]
pub(crate) struct Generation {
    pub embedder: NetlistEmbedder,
    pub generation: u64,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub config: ServeConfig,
    /// The serving generation. Requests `Arc::clone` it out under the
    /// read lock; a reload swaps it under the write lock.
    pub current: RwLock<Arc<Generation>>,
    /// Serializes reloads so two concurrent `RELOAD`s cannot interleave
    /// validate/swap.
    pub reload_lock: Mutex<()>,
    /// canonical hash → wire-ready `OP_EMBEDDING` payload, LRU-evicted at
    /// `config.cache_cap`, generation-stamped.
    pub cache: Mutex<LruCache>,
    pub stats: ServeStats,
    pub shutdown: AtomicBool,
    started: Instant,
    queue_depth: AtomicU64,
    conn_seq: AtomicU64,
    sock_opt_logged: AtomicBool,
}

impl Shared {
    /// The serving generation, pinned. Poison-tolerant: a panicking
    /// writer cannot take the read path down with it.
    pub(crate) fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The embedding cache, poison-tolerant.
    pub(crate) fn lock_cache(&self) -> MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn health_json(&self) -> String {
        format!(
            concat!(
                "{{\"uptime_ms\": {}, \"generation\": {}, \"reloads\": {}, ",
                "\"reload_failures\": {}, \"respawns\": {}, \"respawn_budget\": {}, ",
                "\"queue_depth\": {}}}"
            ),
            self.started.elapsed().as_millis(),
            self.generation().generation,
            self.stats.reloads.load(Ordering::Relaxed),
            self.stats.reload_failures.load(Ordering::Relaxed),
            self.stats.respawns.load(Ordering::Relaxed),
            self.config.respawn_budget,
            self.queue_depth.load(Ordering::Relaxed),
        )
    }
}

/// A running server: owns the listener address and the accept,
/// scheduler, and (optional) checkpoint-watcher threads. Dropping it
/// shuts the server down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    sched: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `listen` (use port 0 for an ephemeral port) and starts
    /// serving `embedder` under `config`.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(
        listen: &str,
        embedder: NetlistEmbedder,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config: config.clone(),
            current: RwLock::new(Arc::new(Generation {
                embedder,
                generation: 1,
            })),
            reload_lock: Mutex::new(()),
            cache: Mutex::new(LruCache::new(config.cache_cap, 1)),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            queue_depth: AtomicU64::new(0),
            conn_seq: AtomicU64::new(1),
            sock_opt_logged: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_cap);

        // The supervisor closure *owns* the receiver: if the scheduler
        // exhausts its respawn budget and stays down, the closure (and
        // `rx` with it) drops, the channel disconnects, and waiting
        // connection threads get a typed `Internal` error instead of
        // blocking forever.
        let sched = {
            let shared = Arc::clone(&shared);
            let body_shared = Arc::clone(&shared);
            spawn_supervised("moss-serve-sched", shared, move || {
                scheduler_loop(&body_shared, &rx)
            })
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let body_shared = Arc::clone(&shared);
            let tx = tx.clone();
            spawn_supervised("moss-serve-accept", shared, move || {
                accept_loop(&listener, &body_shared, &tx)
            })
        };
        let watcher = match (&config.ckpt_path, config.watch_interval) {
            (Some(path), Some(interval)) => {
                let shared = Arc::clone(&shared);
                let body_shared = Arc::clone(&shared);
                let path = path.clone();
                Some(spawn_supervised("moss-serve-watch", shared, move || {
                    watch_loop(&body_shared, &path, interval)
                }))
            }
            _ => None,
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            sched: Some(sched),
            watcher,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the serving counters.
    pub fn stats_json(&self) -> String {
        self.shared.stats.json()
    }

    /// A health snapshot (uptime, generation, reload/respawn counters,
    /// queue depth) — the same JSON the `HEALTH` op returns.
    pub fn health_json(&self) -> String {
        self.shared.health_json()
    }

    /// The serving checkpoint generation (1 at startup, bumped by each
    /// successful hot-reload).
    pub fn generation(&self) -> u64 {
        self.shared.generation().generation
    }

    /// Validates the checkpoint at `path` and hot-swaps it in as the
    /// next generation (see `reload.rs` for the validation ladder).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason; the previous generation is still
    /// serving.
    pub fn reload<P: AsRef<Path>>(&self, path: P) -> Result<u64, String> {
        crate::reload::reload(&self.shared, path.as_ref()).map_err(|(_, msg)| msg)
    }

    /// Stops accepting, drains the scheduler, and joins all threads.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs `body` in a named thread, restarting it after a panic up to
/// [`ServeConfig::respawn_budget`] times. A clean return (shutdown)
/// ends the thread; exceeding the budget leaves it down for good, with
/// everything the closure owns (e.g. the scheduler's queue receiver)
/// dropped so waiters fail typed instead of wedging.
fn spawn_supervised(
    name: &'static str,
    shared: Arc<Shared>,
    mut body: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut respawns = 0u64;
            loop {
                if catch_unwind(AssertUnwindSafe(&mut body)).is_ok() {
                    return;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                respawns += 1;
                let budget = shared.config.respawn_budget;
                if respawns > budget {
                    eprintln!(
                        "moss-serve: thread {name} exceeded its respawn budget \
                         ({budget}); leaving it down"
                    );
                    return;
                }
                shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                moss_obs::counter("serve.respawn", 1);
                eprintln!("moss-serve: thread {name} panicked; respawning ({respawns}/{budget})");
            }
        })
        .expect("spawn supervised thread")
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, tx: &SyncSender<Job>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _sp = moss_obs::span("serve.accept");
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let tx = tx.clone();
        let _ = std::thread::Builder::new()
            .name("moss-serve-conn".into())
            .spawn(move || connection_loop(stream, conn_id, &shared, &tx));
    }
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).ok().and_then(|m| m.modified().ok())
}

/// Polls `path` every `interval` and hot-reloads it when its mtime
/// changes. The mtime seen at startup counts as already loaded; a
/// rejected candidate is not retried until the file changes again.
fn watch_loop(shared: &Arc<Shared>, path: &Path, interval: Duration) {
    let mut seen = mtime(path);
    loop {
        // Sleep in short slices so shutdown is observed promptly even
        // under a long watch interval.
        let mut left = interval;
        while !left.is_zero() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = left.min(Duration::from_millis(100));
            std::thread::sleep(step);
            left -= step;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = mtime(path);
        if now != seen {
            seen = now;
            // Failure already counted and logged by `reload`; the old
            // generation keeps serving and we wait for the next change.
            let _ = crate::reload::reload(shared, path);
        }
    }
}

/// Decodes one `OP_EMBED` payload into a parsed netlist plus its
/// canonical (cache-key) hash. Feature preparation is deferred to
/// [`handle_embed`] so a cache hit never pays for it.
fn decode_request(payload: &[u8]) -> Result<(u64, Netlist), (ErrorCode, String)> {
    let _sp = moss_obs::span("serve.decode");
    let text = std::str::from_utf8(payload)
        .map_err(|_| (ErrorCode::BadFrame, "payload is not UTF-8".to_string()))?;
    let netlist = parse_verilog(text).map_err(|e| match e {
        // The frontend's typed errors carry a source position; forward it
        // so clients can point at the offending line of their netlist.
        moss_netlist::NetlistError::Verilog(p) => (ErrorCode::Parse, format!("parse error: {p}")),
        // Anything else parsed fine but failed graph analysis (e.g. a
        // combinational cycle caught by validation).
        other => (ErrorCode::Graph, format!("netlist error: {other}")),
    })?;
    let hash = canonical_hash(&netlist);
    Ok((hash, netlist))
}

/// Writes one reply frame, first consulting the `net` fault site: an
/// armed fault sabotages the transport (disconnect, partial write, or
/// stall) in a way that can only ever look like a transport error to the
/// client — never like a complete frame with wrong bytes.
fn write_reply(stream: &mut TcpStream, op: u8, payload: &[u8], net_key: u64) -> io::Result<()> {
    if moss_faults::fire(moss_faults::Site::Net, net_key) {
        moss_obs::counter("serve.net_fault", 1);
        match net_key % 3 {
            0 => {
                // Mid-exchange disconnect: the reply never leaves.
                let _ = stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected net fault: disconnect before reply",
                ));
            }
            1 => {
                // Partial write then hard close. The prefix is strictly
                // shorter than the frame its length header promises, so
                // the client's read fails — it cannot decode a reply.
                let frame = encode_frame(op, payload)?;
                let half = frame.len().div_ceil(2);
                let _ = stream.write_all(&frame[..half]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected net fault: partial write",
                ));
            }
            _ => {
                // Read stall: delay, then deliver intact (exercises
                // client read deadlines without corrupting anything).
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    write_frame(stream, op, payload)
}

fn send_error(
    stream: &mut TcpStream,
    shared: &Shared,
    code: ErrorCode,
    msg: &str,
    net_key: u64,
) -> io::Result<()> {
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    write_reply(stream, OP_ERROR, &error_payload(code, msg), net_key)
}

/// Resolves a `RELOAD` payload to a checkpoint path (explicit UTF-8
/// path, or the configured watch path for an empty payload) and runs
/// the validated reload.
fn reload_target(shared: &Arc<Shared>, payload: &[u8]) -> Result<u64, (ErrorCode, String)> {
    let path: PathBuf = if payload.is_empty() {
        match &shared.config.ckpt_path {
            Some(p) => p.clone(),
            None => {
                return Err((
                    ErrorCode::Reload,
                    "no reload path configured (set MOSS_SERVE_CKPT or send an explicit path)"
                        .to_string(),
                ))
            }
        }
    } else {
        match std::str::from_utf8(payload) {
            Ok(s) => PathBuf::from(s),
            Err(_) => return Err((ErrorCode::BadFrame, "reload path is not UTF-8".to_string())),
        }
    };
    crate::reload::reload(shared, &path)
}

fn connection_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>, tx: &SyncSender<Job>) {
    if let Err(e) = stream.set_read_timeout(Some(shared.config.read_timeout)) {
        // A platform where this fails leaves stalled clients able to pin
        // connection threads — make that visible, once on stderr and on
        // every occurrence in the obs counters.
        moss_obs::counter("serve.sock_opt_failed", 1);
        if !shared.sock_opt_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "moss-serve: set_read_timeout failed: {e} \
                 (stalled clients may pin connection threads)"
            );
        }
    }
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            // Clean close, timeout, or mid-frame disconnect: drop the
            // connection. Nothing to reply to.
            Ok(None) | Err(FrameReadError::Io(_)) => return,
            Err(FrameReadError::Oversized(n)) => {
                // The stream is desynchronized; report and drop.
                let _ = send_error(
                    &mut writer,
                    shared,
                    ErrorCode::BadFrame,
                    &format!(
                        "length prefix {n} exceeds {} byte cap",
                        crate::protocol::MAX_FRAME
                    ),
                    (conn_id << 20) | (seq & 0xFFFFF),
                );
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
        };
        // Per-reply fault key: connection id in the high bits, request
        // sequence in the low, so a schedule hits *some* replies on
        // *some* connections deterministically.
        let net_key = (conn_id << 20) | (seq & 0xFFFFF);
        seq += 1;
        let io_result = match frame.op {
            OP_STATS => write_reply(
                &mut writer,
                OP_STATS_REPLY,
                shared.stats.json().as_bytes(),
                net_key,
            ),
            OP_HEALTH => write_reply(
                &mut writer,
                OP_HEALTH_REPLY,
                shared.health_json().as_bytes(),
                net_key,
            ),
            OP_RELOAD => match reload_target(shared, &frame.payload) {
                Ok(generation) => write_reply(
                    &mut writer,
                    OP_RELOAD_REPLY,
                    &reload_payload(generation),
                    net_key,
                ),
                Err((code, msg)) => send_error(&mut writer, shared, code, &msg, net_key),
            },
            OP_EMBED => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                handle_embed(&mut writer, shared, tx, &frame.payload, net_key)
            }
            other => send_error(
                &mut writer,
                shared,
                ErrorCode::BadFrame,
                &format!("unknown opcode 0x{other:02x}"),
                net_key,
            ),
        };
        if io_result.is_err() {
            // The transport is gone (or an injected net fault tore it
            // down); there is nobody left to talk to.
            return;
        }
    }
}

fn handle_embed(
    writer: &mut TcpStream,
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    payload: &[u8],
    net_key: u64,
) -> io::Result<()> {
    // Pin the serving generation *before* any per-request work: the
    // request is prepared, embedded, and cached against this embedder
    // even if a reload swaps generations while it is in flight.
    let generation = shared.generation();

    let (hash, circuit, poison) = if shared.config.panic_marker && payload == PANIC_MARKER {
        // Supervision test hook: a well-formed job whose only purpose is
        // to panic the scheduler.
        let netlist = match parse_verilog(crate::reload::GOLDEN_NETLIST) {
            Ok(n) => n,
            Err(_) => {
                return send_error(writer, shared, ErrorCode::Internal, "golden parse", net_key)
            }
        };
        match generation.embedder.prepare(&netlist) {
            Ok(c) => (canonical_hash(&netlist), c, true),
            Err(_) => {
                return send_error(writer, shared, ErrorCode::Internal, "golden prep", net_key)
            }
        }
    } else {
        let (hash, netlist) = match decode_request(payload) {
            Ok(v) => v,
            Err((code, msg)) => return send_error(writer, shared, code, &msg, net_key),
        };
        // Cache hit: reply without preparing features or touching the
        // scheduler at all.
        let cached = shared.lock_cache().get(hash);
        if let Some(bytes) = cached {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            moss_obs::counter("serve.cache.hit", 1);
            let _sp = moss_obs::span("serve.respond");
            return write_reply(writer, OP_EMBEDDING, &bytes, net_key);
        }
        moss_obs::counter("serve.cache.miss", 1);
        match generation.embedder.prepare(&netlist) {
            Ok(c) => (hash, c, false),
            Err(e) => {
                return send_error(
                    writer,
                    shared,
                    ErrorCode::Graph,
                    &format!("graph error: {e}"),
                    net_key,
                )
            }
        }
    };

    let (resp_tx, resp_rx) = mpsc::channel::<ReplyBytes>();
    let job = Job {
        hash,
        circuit,
        resp: resp_tx,
        generation,
        poison,
    };
    let enqueued = Instant::now();
    // Count the job in the queue depth before it is visible to the
    // scheduler so HEALTH never under-reports.
    shared.queue_depth.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = tx.try_send(job) {
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let code = match e {
            TrySendError::Full(_) => {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                moss_obs::counter("serve.rejected", 1);
                ErrorCode::Overload
            }
            TrySendError::Disconnected(_) => ErrorCode::Internal,
        };
        return send_error(writer, shared, code, "scheduler queue unavailable", net_key);
    }
    let reply = {
        let _sp = moss_obs::span("serve.queue_wait");
        resp_rx.recv()
    };
    moss_obs::counter(
        "serve.queue_wait_ns",
        enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    match reply {
        Ok(Ok(bytes)) => {
            shared.stats.embedded.fetch_add(1, Ordering::Relaxed);
            let _sp = moss_obs::span("serve.respond");
            write_reply(writer, OP_EMBEDDING, &bytes, net_key)
        }
        Ok(Err((code, msg))) => send_error(writer, shared, code, &msg, net_key),
        Err(_) => send_error(
            writer,
            shared,
            ErrorCode::Internal,
            "scheduler dropped the request",
            net_key,
        ),
    }
}

fn scheduler_loop(shared: &Arc<Shared>, rx: &Receiver<Job>) {
    loop {
        // Poll for the batch opener so shutdown is observed even when
        // the server is idle.
        let first = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => {
                shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                job
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + shared.config.batch_window;
        while batch.len() < shared.config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => {
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    batch.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        run_batch(shared, batch);
    }
}

/// Runs the batched forwards for a batch of jobs: fault-gates each job,
/// groups survivors by the generation they were prepared on (a batch
/// straddling a hot-reload completes each group on its own embedder),
/// dedups within each group by canonical hash, embeds the unique
/// circuits together, caches (generation-stamped), and fans the bytes
/// back.
fn run_batch(shared: &Shared, batch: Vec<Job>) {
    if batch.iter().any(|j| j.poison) {
        // Deliberate, test-only: exercises the supervisor. Waiters get a
        // typed Internal error when their response senders drop during
        // unwinding.
        panic!("injected scheduler panic (ServeConfig::panic_marker test hook)");
    }
    let n = batch.len() as u64;
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .batched_requests
        .fetch_add(n, Ordering::Relaxed);
    shared
        .stats
        .max_batch_occupancy
        .fetch_max(n, Ordering::Relaxed);
    moss_obs::gauge_max("serve.batch.occupancy", n);

    // Fault gate + generation grouping. A poisoned request errors alone;
    // the rest of the batch proceeds (pinned by tests/serve_faults.rs).
    let mut groups: HashMap<u64, (Arc<Generation>, Vec<Job>)> = HashMap::new();
    for job in batch {
        if moss_faults::fire(moss_faults::Site::Serve, job.hash) {
            let _ = job.resp.send(Err((
                ErrorCode::Fault,
                "injected fault at site 'serve'".to_string(),
            )));
            continue;
        }
        groups
            .entry(job.generation.generation)
            .or_insert_with(|| (Arc::clone(&job.generation), Vec::new()))
            .1
            .push(job);
    }

    for (generation_no, (generation, jobs)) in groups {
        let mut unique: Vec<(u64, CircuitGraph)> = Vec::new();
        let mut members: HashMap<u64, Vec<mpsc::Sender<ReplyBytes>>> = HashMap::new();
        for job in jobs {
            if !members.contains_key(&job.hash) {
                unique.push((job.hash, job.circuit));
            }
            members.entry(job.hash).or_default().push(job.resp);
        }
        if unique.is_empty() {
            continue;
        }

        let refs: Vec<&CircuitGraph> = unique.iter().map(|(_, c)| c).collect();
        let embedded = {
            let _sp = moss_obs::span_items("serve.forward", refs.len() as u64);
            catch_unwind(AssertUnwindSafe(|| generation.embedder.embed_graphs(&refs)))
        };
        match embedded {
            Ok(embeddings) => {
                let mut cache = shared.lock_cache();
                let before = cache.evictions();
                for ((hash, _), emb) in unique.iter().zip(embeddings) {
                    let bytes = Arc::new(crate::protocol::embedding_payload(&emb));
                    // The cache refuses the insert if a reload landed
                    // after this group's generation — stale bytes can
                    // never be served from cache.
                    cache.insert(*hash, Arc::clone(&bytes), generation_no);
                    for resp in members.remove(hash).unwrap_or_default() {
                        let _ = resp.send(Ok(Arc::clone(&bytes)));
                    }
                }
                let evicted = cache.evictions() - before;
                moss_obs::gauge_max("serve.cache.size", cache.len() as u64);
                drop(cache);
                if evicted > 0 {
                    shared.stats.evicted.fetch_add(evicted, Ordering::Relaxed);
                    moss_obs::counter("serve.cache.evict", evicted);
                }
            }
            Err(_) => {
                for resps in members.into_values() {
                    for resp in resps {
                        let _ = resp.send(Err((
                            ErrorCode::Internal,
                            "batch forward panicked".to_string(),
                        )));
                    }
                }
            }
        }
    }
}
