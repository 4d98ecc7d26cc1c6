//! The embedding server.
//!
//! One accept loop and one thread per connection. A connection thread
//! serves its requests one at a time, start to finish: decode (parse →
//! canonical hash), answer a cache hit at once, and on a miss prepare the
//! circuit, run the tape-free GNN pass, cache the bytes and reply. There
//! is no queue, so concurrent forwards are bounded by open connections.
//!
//! Determinism: the pass (`CircuitGnn::infer`) computes the tape
//! forward's values bit for bit, so a served reply, a cached one and a
//! direct in-process forward are the same bytes. That is what makes the
//! embedding cache sound, and it is pinned by `tests/serve_integration.rs`.
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
//!   from a miss that straddled a swap can never be served afterwards.
//! - **Panic isolation.** The forward runs under `catch_unwind`: a panic
//!   fails that one request with a typed `Internal` error, and its
//!   connection keeps serving.
//! - **Supervision.** The accept and watcher threads run under
//!   [`spawn_supervised`]: a panic is caught and the thread body
//!   restarted, up to [`ServeConfig::respawn_budget`] times per thread
//!   (counted in [`ServeStats::respawns`] and `serve.respawn`).
//! - **Health.** The `HEALTH` op reports uptime, the serving generation
//!   and the reload/respawn counters, so an operator (or the chaos
//!   harness) can tell a healthy server from a limping one without
//!   scraping logs.
//! - **Net faults.** Every reply routes through [`write_reply`], which
//!   consults the `net` fault site (`MOSS_FAULTS=net:…`) and — when
//!   armed — sabotages the transport (mid-frame disconnect, partial
//!   write then hard close, or a read stall) *without ever emitting a
//!   frame that could decode as a wrong answer*. A partially written
//!   frame is always a strict prefix whose length header promises more
//!   bytes than arrive, so clients see a transport error, never bad
//!   embedding bytes.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use moss::NetlistEmbedder;
use moss_gnn::CircuitGraph;
use moss_netlist::{canonical_hash, parse_verilog, Netlist};

use crate::cache::LruCache;
use crate::protocol::{
    embedding_payload, encode_frame, error_payload, read_frame, reload_payload, write_frame,
    ErrorCode, FrameReadError, OP_EMBED, OP_EMBEDDING, OP_ERROR, OP_HEALTH, OP_HEALTH_REPLY,
    OP_RELOAD, OP_RELOAD_REPLY, OP_STATS, OP_STATS_REPLY,
};

/// Tuning knobs, each overridable from the environment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Embedding-cache entries before LRU eviction kicks in
    /// (`MOSS_SERVE_CACHE_CAP`, default 4096; 0 disables caching).
    pub cache_cap: usize,
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
    /// Maximum times each supervised thread (accept, watcher) is
    /// respawned after a panic before it is left down
    /// (`MOSS_SERVE_RESPAWN_BUDGET`, default 8).
    pub respawn_budget: u64,
    /// Test hook: when set, an `EMBED` whose payload equals
    /// [`PANIC_MARKER`] panics inside its forward — exercising panic
    /// isolation without a debug backdoor in production (never settable
    /// from the environment).
    #[doc(hidden)]
    pub panic_marker: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_cap: 4096,
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
        if let Some(n) = env_u64("MOSS_SERVE_CACHE_CAP") {
            c.cache_cap = n as usize;
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

/// Payload that triggers a deliberate forward panic when
/// [`ServeConfig::panic_marker`] is set (test hook for panic isolation).
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
                "\"evicted\": {}, \"errors\": {}, ",
                "\"reloads\": {}, \"reload_failures\": {}, \"respawns\": {}}}"
            ),
            self.requests.load(Ordering::Relaxed),
            self.embedded.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.evicted.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.reloads.load(Ordering::Relaxed),
            self.reload_failures.load(Ordering::Relaxed),
            self.respawns.load(Ordering::Relaxed),
        )
    }
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
    conn_seq: AtomicU64,
    sock_opt_logged: AtomicBool,
}

impl Shared {
    fn new(embedder: NetlistEmbedder, config: ServeConfig) -> Shared {
        let cache = Mutex::new(LruCache::new(config.cache_cap, 1));
        Shared {
            config,
            current: RwLock::new(Arc::new(Generation {
                embedder,
                generation: 1,
            })),
            reload_lock: Mutex::new(()),
            cache,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            conn_seq: AtomicU64::new(1),
            sock_opt_logged: AtomicBool::new(false),
        }
    }

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
                "\"reload_failures\": {}, \"respawns\": {}, \"respawn_budget\": {}}}"
            ),
            self.started.elapsed().as_millis(),
            self.generation().generation,
            self.stats.reloads.load(Ordering::Relaxed),
            self.stats.reload_failures.load(Ordering::Relaxed),
            self.stats.respawns.load(Ordering::Relaxed),
            self.config.respawn_budget,
        )
    }
}

/// A running server: owns the listener address and the accept and
/// (optional) checkpoint-watcher threads. Dropping it shuts the server
/// down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
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
        let shared = Arc::new(Shared::new(embedder, config));
        let accept = {
            let shared = Arc::clone(&shared);
            let body_shared = Arc::clone(&shared);
            spawn_supervised("moss-serve-accept", shared, move || {
                accept_loop(&listener, &body_shared)
            })
        };
        let config = &shared.config;
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

    /// A health snapshot (uptime, generation, reload/respawn counters) —
    /// the same JSON the `HEALTH` op returns.
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

    /// Stops accepting and joins the accept and watcher threads.
    /// Connection threads are not joined: each exits when its client
    /// closes, its read times out, or it sees the shutdown flag before its
    /// next request. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
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
/// ends the thread; exceeding the budget leaves it down for good.
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

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
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
        let _ = std::thread::Builder::new()
            .name("moss-serve-conn".into())
            .spawn(move || connection_loop(stream, conn_id, &shared));
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
    let parsed = {
        let _sp = moss_obs::span("serve.parse");
        parse_verilog(text)
    };
    let netlist = parsed.map_err(|e| match e {
        // The frontend's typed errors carry a source position; forward it
        // so clients can point at the offending line of their netlist.
        moss_netlist::NetlistError::Verilog(p) => (ErrorCode::Parse, format!("parse error: {p}")),
        // Anything else parsed fine but failed graph analysis (e.g. a
        // combinational cycle caught by validation).
        other => (ErrorCode::Graph, format!("netlist error: {other}")),
    })?;
    let hash = {
        let _sp = moss_obs::span("serve.hash");
        canonical_hash(&netlist)
    };
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

fn connection_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
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
                handle_embed(&mut writer, shared, &frame.payload, net_key)
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
    shared: &Shared,
    payload: &[u8],
    net_key: u64,
) -> io::Result<()> {
    // Pin the serving generation *before* any per-request work: the
    // request is prepared, embedded, and cached against this embedder
    // even if a reload swaps generations while it is in flight.
    let generation = shared.generation();

    let (hash, circuit, poison) = if shared.config.panic_marker && payload == PANIC_MARKER {
        // Panic-isolation test hook: a well-formed miss whose only purpose
        // is to panic inside the forward.
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
        // Cache hit: reply without preparing features.
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

    match embed_miss(shared, &generation, hash, &circuit, poison) {
        Ok(bytes) => {
            shared.stats.embedded.fetch_add(1, Ordering::Relaxed);
            let _sp = moss_obs::span("serve.respond");
            write_reply(writer, OP_EMBEDDING, &bytes, net_key)
        }
        Err((code, msg)) => send_error(writer, shared, code, &msg, net_key),
    }
}

/// Finishes one cache miss on the generation it pinned: the `serve` fault
/// gate, the forward under `catch_unwind` (a panic fails this request
/// alone), and a generation-stamped cache insert — refused if a reload
/// landed after `generation`, so stale bytes are never cached.
fn embed_miss(
    shared: &Shared,
    generation: &Generation,
    hash: u64,
    circuit: &CircuitGraph,
    poison: bool,
) -> Result<Arc<Vec<u8>>, (ErrorCode, String)> {
    if moss_faults::fire(moss_faults::Site::Serve, hash) {
        return Err((
            ErrorCode::Fault,
            "injected fault at site 'serve'".to_string(),
        ));
    }
    let embedded = {
        let _sp = moss_obs::span_items("serve.forward", 1);
        catch_unwind(AssertUnwindSafe(|| {
            if poison {
                panic!("injected forward panic (ServeConfig::panic_marker test hook)");
            }
            generation.embedder.embed_graph(circuit)
        }))
    };
    let embedding = embedded.map_err(|_| (ErrorCode::Internal, "forward panicked".to_string()))?;
    let bytes = Arc::new(embedding_payload(&embedding));
    let evicted = {
        let mut cache = shared.lock_cache();
        let before = cache.evictions();
        cache.insert(hash, Arc::clone(&bytes), generation.generation);
        moss_obs::gauge_max("serve.cache.size", cache.len() as u64);
        cache.evictions() - before
    };
    if evicted > 0 {
        shared.stats.evicted.fetch_add(evicted, Ordering::Relaxed);
        moss_obs::counter("serve.cache.evict", evicted);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static NEXT_CKPT: AtomicU32 = AtomicU32::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = NEXT_CKPT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "moss-server-unit-{}-{n}-{tag}.mossckp",
            std::process::id()
        ))
    }

    /// The demo checkpoint (A) and a valid one whose every parameter is
    /// shifted by +0.05 (B), so the two embed every circuit differently.
    fn checkpoints() -> (PathBuf, PathBuf) {
        let a = temp_path("a");
        crate::write_demo_checkpoint(&a).expect("write checkpoint A");
        let (config, mut store) = moss::load_checkpoint_file(&a).expect("load A");
        let shifted: Vec<_> = store
            .iter()
            .map(|(id, _, t)| {
                let data = t.data().iter().map(|v| v + 0.05).collect();
                (id, moss_tensor::Tensor::from_vec(data, t.rows(), t.cols()))
            })
            .collect();
        for (id, t) in shifted {
            store.set(id, t);
        }
        let b = temp_path("b");
        moss::save_checkpoint_file(&b, &config, &store).expect("write checkpoint B");
        (a, b)
    }

    fn shared_with(embedder: NetlistEmbedder, respawn_budget: u64) -> Arc<Shared> {
        let config = ServeConfig {
            respawn_budget,
            ..ServeConfig::default()
        };
        Arc::new(Shared::new(embedder, config))
    }

    #[test]
    fn a_miss_completes_on_its_pinned_generation_across_a_reload() {
        let (a, b) = checkpoints();
        let embedder_a = NetlistEmbedder::from_checkpoint_file(&a).expect("load A");
        let text = crate::reload::GOLDEN_NETLIST;
        let (hash, netlist) = decode_request(text.as_bytes()).expect("golden decodes");
        let exp_a = embedding_payload(&embedder_a.embed(&netlist).expect("direct A"));
        let shared = shared_with(embedder_a, 0);

        // The request pins generation 1 (A) and prepares on it ...
        let pinned = shared.generation();
        let circuit = pinned.embedder.prepare(&netlist).expect("prepare");
        // ... a reload to B lands before its forward runs ...
        assert_eq!(crate::reload::reload(&shared, &b), Ok(2));
        // ... and the miss still completes on A, bit for bit.
        let bytes = embed_miss(&shared, &pinned, hash, &circuit, false).expect("miss");
        assert_eq!(*bytes, exp_a);
        // The cache now serves B: A's late bytes must not have landed.
        assert!(shared.lock_cache().get(hash).is_none());

        let exp_b = NetlistEmbedder::from_checkpoint_file(&b)
            .expect("load B")
            .embed(&netlist)
            .expect("direct B");
        assert_ne!(exp_a, embedding_payload(&exp_b), "A and B must disagree");
    }

    /// The `serve.respawn` counter in the moss-obs report (0 if absent).
    fn respawn_counter() -> u64 {
        let report = moss_obs::report_json();
        report
            .split("\"name\": \"serve.respawn\", \"value\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .map_or(0, |v| v.parse().expect("counter value"))
    }

    #[test]
    fn supervised_bodies_respawn_within_the_budget_then_stay_down() {
        moss_obs::set_enabled(true);
        let (a, _) = checkpoints();
        let embedder = || NetlistEmbedder::from_checkpoint_file(&a).expect("load checkpoint");
        const BUDGET: u64 = 3;
        // A body that panics `panics` times, then returns cleanly (unless
        // the supervisor gives up first). `panics == 0` is a clean return
        // with no respawn.
        for panics in 0..=BUDGET + 1 {
            let shared = shared_with(embedder(), BUDGET);
            let runs = Arc::new(AtomicU64::new(0));
            let before = respawn_counter();
            let body_runs = Arc::clone(&runs);
            let handle = spawn_supervised("moss-serve-test", Arc::clone(&shared), move || {
                if body_runs.fetch_add(1, Ordering::SeqCst) < panics {
                    panic!("injected supervised-body panic");
                }
            });
            handle.join().expect("the supervisor itself never panics");
            let respawned = panics.min(BUDGET);
            assert_eq!(
                runs.load(Ordering::SeqCst),
                respawned + 1,
                "{panics} panics"
            );
            assert_eq!(
                shared.stats.respawns.load(Ordering::Relaxed),
                respawned,
                "{panics} panics"
            );
            assert_eq!(respawn_counter() - before, respawned, "{panics} panics");
        }
    }
}
