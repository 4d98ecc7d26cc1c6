//! `serve-miss` and `serve-hit`: a closed loop of [`CLIENTS`] clients,
//! each sending its next EMBED only after the previous reply, against an
//! in-process `moss-serve` on an ephemeral localhost port.
//!
//! The netlists are the circuits of the paper's Table I, as
//! `moss_datagen::benchmark_suite()` defines them and `moss-synth` maps
//! them (188 to 4993 cells). Each client walks the suite in its own
//! order, shuffled from the seed once per pass, so every circuit is sent
//! equally often. The hit workload fills the cache during set-up and then
//! resends the suite, so every request is answered by parse + hash + cache
//! lookup. The miss workload renames the circuit's first output port per
//! request: the circuit is the suite's, the canonical hash is new, so
//! every request pays the full prepare + batched forward. Both check every
//! reply bytewise against a direct in-process forward of the circuit, and
//! the server's cache-hit count against the workload's promise.

use std::borrow::Cow;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use moss::NetlistEmbedder;
use moss_netlist::{canonical_hash, parse_verilog, write_verilog};
use moss_serve::protocol::embedding_payload;
use moss_serve::{Client, ServeConfig, Server};
use moss_synth::{synthesize, SynthOptions};

use crate::{mix, repeat_setup, Args, Outcome, Report};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 4;
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 9;

/// One suite circuit as structural Verilog, with its first output port
/// spelled as the writer spells it: a plain identifier, or an escaped one
/// with its closing space.
struct Circuit {
    text: String,
    port: String,
}

/// Synthesizes the Table I suite and writes each netlist out.
fn suite() -> Result<Vec<Circuit>, String> {
    moss_datagen::benchmark_suite()
        .iter()
        .map(|m| {
            let synth = synthesize(m, &SynthOptions::default())
                .map_err(|e| format!("synthesize {}: {e}", m.name()))?;
            let text = write_verilog(&synth.netlist);
            let at = text.find("output ").map(|at| at + "output ".len());
            let port = at
                .and_then(|at| Some(&text[at..at + text[at..].find([',', ')'])?]))
                .ok_or_else(|| format!("{}: no output port", m.name()))?
                .to_owned();
            Ok(Circuit { text, port })
        })
        .collect()
}

/// The circuit with its first output port renamed to `<port>_<tag>`: a
/// distinct canonical hash for the same circuit, whose embedding is
/// therefore the circuit's.
fn renamed(c: &Circuit, tag: &str) -> String {
    let (text, port) = (c.text.as_str(), c.port.as_str());
    let stem = port.trim_end();
    let fresh = format!("{stem}_{tag}{}", &port[stem.len()..]);
    let ident = |b: Option<&u8>| b.is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 4 * tag.len());
    let mut last = 0;
    for (at, _) in text.match_indices(port) {
        let before = at.checked_sub(1).and_then(|i| bytes.get(i));
        if !ident(before) && !ident(bytes.get(at + port.len())) {
            out.push_str(&text[last..at]);
            out.push_str(&fresh);
            last = at + port.len();
        }
    }
    out.push_str(&text[last..]);
    out
}

/// The request stream of one client: the suite in an order shuffled from
/// the seed on every pass, renamed per request on the miss workload.
struct Requests<'a> {
    pool: &'a [Circuit],
    hit: bool,
    client: usize,
    state: u64,
    order: Vec<usize>,
    seq: u64,
}

impl<'a> Requests<'a> {
    fn new(pool: &'a [Circuit], hit: bool, seed: u64, client: usize) -> Requests<'a> {
        Requests {
            pool,
            hit,
            client,
            state: mix(seed, 1000 + client as u64),
            order: (0..pool.len()).collect(),
            seq: 0,
        }
    }

    /// The next request: its suite index and its text.
    fn next(&mut self) -> (usize, Cow<'a, str>) {
        let k = (self.seq % self.pool.len() as u64) as usize;
        if k == 0 {
            for j in (1..self.order.len()).rev() {
                self.state = mix(self.state, 1);
                self.order.swap(j, (self.state % (j as u64 + 1)) as usize);
            }
        }
        self.seq += 1;
        let i = self.order[k];
        let text = if self.hit {
            Cow::Borrowed(self.pool[i].text.as_str())
        } else {
            Cow::Owned(renamed(
                &self.pool[i],
                &format!("c{}r{}", self.client, self.seq),
            ))
        };
        (i, text)
    }
}

struct ClientResult {
    /// Completion instant and latency of every reply.
    ops: Vec<(Instant, u64)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    started: Instant,
}

fn connect(addr: &str) -> std::io::Result<Client> {
    let client = Client::connect_timeout(addr, Duration::from_secs(5))?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(client)
}

/// What every client of one run shares.
struct Window {
    addr: String,
    pool: Vec<Circuit>,
    expected: Vec<Vec<u8>>,
    hit: bool,
    seed: u64,
    seconds: u64,
    /// Opens the window for all clients at once.
    gate: Barrier,
}

/// One closed-loop client: connect, wait for the window, then request
/// until the deadline. A client that cannot connect still passes the
/// gate so the others are never left waiting.
fn client_loop(id: usize, w: &Window) -> Result<ClientResult, String> {
    let addr = w.addr.as_str();
    let connected = connect(addr).map_err(|e| format!("client {id}: connect: {e}"));
    w.gate.wait();
    let mut client = connected?;
    let mut requests = Requests::new(&w.pool, w.hit, w.seed, id);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(w.seconds);
    let mut r = ClientResult {
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        started,
    };
    while Instant::now() < deadline {
        let (i, text) = requests.next();
        r.attempted += 1;
        let t = Instant::now();
        let reply = client.embed_raw(&text);
        let done = Instant::now();
        match reply {
            Ok(bytes) => {
                r.ops.push((done, (done - t).as_nanos() as u64));
                if bytes != w.expected[i] {
                    r.wrong += 1;
                }
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("perfbench: client {id}: {e}");
                match connect(addr) {
                    Ok(c) => client = c,
                    Err(e) => {
                        eprintln!("perfbench: client {id}: reconnect: {e}");
                        break;
                    }
                }
            }
        }
    }
    Ok(r)
}

fn cache_hits(server: &Server) -> u64 {
    crate::field(&server.stats_json(), "cache_hits").unwrap_or(0.0) as u64
}

/// Loads the checkpoint, starts a server and warms it with one pass over
/// the suite (which, on the hit workload, fills the cache). Every warm-up
/// reply is checked.
fn start_server(
    ckpt: &Path,
    pool: &[Circuit],
    expected: &[Vec<u8>],
    hit: bool,
    seed: u64,
) -> Result<Server, String> {
    let embedder =
        NetlistEmbedder::from_checkpoint_file(ckpt).map_err(|e| format!("load checkpoint: {e}"))?;
    let server = Server::start("127.0.0.1:0", embedder, ServeConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let mut client = connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    // Warm-up requests are tagged as a client of their own, so their
    // names never recur in the window.
    let mut requests = Requests::new(pool, hit, seed, CLIENTS);
    for _ in 0..pool.len() {
        let (i, text) = requests.next();
        let bytes = client
            .embed_raw(&text)
            .map_err(|e| format!("warm-up: {e}"))?;
        if bytes != expected[i] {
            return Err("warm-up reply differs from the oracle".into());
        }
    }
    Ok(server)
}

pub fn run(args: &Args, work: &Path, hit: bool) -> Result<Outcome, String> {
    // Inputs: the checkpoint, the suite, and the oracle's bytes.
    let ckpt = work.join("serve.mossckp");
    moss_serve::write_demo_checkpoint(&ckpt).map_err(|e| format!("write checkpoint: {e}"))?;
    let pool = suite()?;
    let oracle = NetlistEmbedder::from_checkpoint_file(&ckpt)
        .map_err(|e| format!("load checkpoint: {e}"))?;
    let mut expected = Vec::with_capacity(pool.len());
    for c in &pool {
        let nl = parse_verilog(&c.text).map_err(|e| format!("suite netlist: {e}"))?;
        let twin = parse_verilog(&renamed(c, "probe")).map_err(|e| format!("rename: {e}"))?;
        if canonical_hash(&twin) == canonical_hash(&nl) {
            return Err("renaming a port did not change the cache key".into());
        }
        let emb = oracle
            .embed(&nl)
            .map_err(|e| format!("oracle embed: {e}"))?;
        expected.push(embedding_payload(&emb));
    }
    drop(oracle);

    let (server, setup_s) = repeat_setup(SETUP_REPS, |_| {
        start_server(&ckpt, &pool, &expected, hit, args.seed)
    })?;

    let window = Arc::new(Window {
        addr: server.addr().to_string(),
        pool,
        expected,
        hit,
        seed: args.seed,
        seconds: args.seconds,
        gate: Barrier::new(CLIENTS + 1),
    });
    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let window = Arc::clone(&window);
            thread::spawn(move || client_loop(id, &window))
        })
        .collect();
    if args.trace {
        moss_obs::reset();
    }
    let hits_before = cache_hits(&server);
    window.gate.wait();
    // Join every client before looking at any result.
    let joined: Vec<_> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("client thread panicked".into()))
        })
        .collect();
    let results = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
    let report = args.trace.then(Report::take);
    let hits = cache_hits(&server) - hits_before;
    drop(server);

    let start = results.iter().map(|r| r.started).min().expect("clients");
    let wrong: u64 = results.iter().map(|r| r.wrong).sum();
    let replies: u64 = results.iter().map(|r| r.ops.len() as u64).sum();
    // A hit request answered by a forward measured the miss path; a miss
    // request answered from the cache was answered for a netlist the
    // server never embedded. Either is wrong even if the bytes match.
    let want_hits = if hit { replies } else { 0 };
    if wrong > 0 || hits != want_hits {
        eprintln!(
            "perfbench: {wrong} wrong replies, {hits} cache hits of {replies} replies \
             (want {want_hits})"
        );
    }
    Ok(Outcome {
        attempted: results.iter().map(|r| r.attempted).sum(),
        failed: results.iter().map(|r| r.failed).sum(),
        ops: results
            .into_iter()
            .flat_map(|r| r.ops)
            .map(|(done, ns)| (done - start, ns))
            .collect(),
        correct: wrong == 0 && hits == want_hits,
        setup_s,
        report,
    })
}
