//! Chaos soak harness for `moss-serve`: load + concurrent hot-reloads
//! under whatever `MOSS_FAULTS` schedule the environment arms, with the
//! invariants that actually matter checked on every single reply.
//!
//! ```text
//! chaos [--clients 4] [--requests 40] [--reloads 6]
//!       [--error-budget 0.5] [--quick]
//! ```
//!
//! The harness builds two valid checkpoints (A, and B = A with every
//! parameter shifted by +0.05) plus one corrupted one, computes the
//! exact expected embedding bytes for a small corpus under A and B
//! in-process, then starts a server on A and hammers it with resilient
//! clients while a reloader thread swaps A↔B — salting in the corrupt
//! checkpoint, which must always be rejected. Faults are disarmed
//! (`moss_faults` test override) during setup and drain so the
//! verdicts are about the soak, not the scaffolding.
//!
//! Violations (any one fails the run):
//! - **wrong bytes**: a successful `EMBEDDING` reply that is not
//!   bit-identical to the direct in-process forward for checkpoint A
//!   *or* B — under any fault schedule, a wrong answer is never OK;
//! - **bad checkpoint accepted**: the corrupted checkpoint swaps in;
//! - **generation regression**: a successful reload reports a
//!   generation that did not strictly increase;
//! - **dirty drain**: with faults disarmed, the final reload back to A
//!   fails, any corpus circuit stops matching A exactly, or `HEALTH`
//!   reports a respawned thread (an organic panic happened);
//! - **error budget**: exhausted retries and unexpected typed errors
//!   exceed `--error-budget` as a fraction of attempts (deterministic
//!   injected `Fault` replies are excluded — they fail typed, by
//!   design).

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use moss::NetlistEmbedder;
use moss_serve::protocol::embedding_payload;
use moss_serve::{Client, ReloadOutcome, Reply, RetryPolicy, RetryingClient, ServeConfig, Server};

struct Options {
    clients: usize,
    requests: usize,
    reloads: usize,
    error_budget: f64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos [--clients N] [--requests N] [--reloads N]\n\
         \x20            [--error-budget F] [--quick]"
    );
    ExitCode::from(2)
}

fn parse_options() -> Option<Options> {
    let mut opt = Options {
        clients: 4,
        requests: 40,
        reloads: 6,
        error_budget: 0.5,
    };
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => opt.clients = args.next()?.parse().ok()?,
            "--requests" => opt.requests = args.next()?.parse().ok()?,
            "--reloads" => opt.reloads = args.next()?.parse().ok()?,
            "--error-budget" => opt.error_budget = args.next()?.parse().ok()?,
            "--quick" => quick = true,
            _ => return None,
        }
    }
    if quick {
        opt.clients = 3;
        opt.requests = 15;
        opt.reloads = 3;
    }
    if opt.clients == 0 || opt.requests == 0 || !(0.0..=1.0).contains(&opt.error_budget) {
        return None;
    }
    Some(opt)
}

/// Extracts an integer field from the flat JSON the server emits.
fn field_u64(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        connect_timeout: Duration::from_secs(2),
        request_timeout: Some(Duration::from_secs(2)),
        jitter_seed: seed,
    }
}

/// One reload attempt with bounded transport retries; protocol-level
/// outcomes (Swapped/Rejected) are returned as-is.
fn reload_with_retry(addr: &str, path: &str) -> std::io::Result<ReloadOutcome> {
    let policy = chaos_policy(0xC4A0);
    let mut last = None;
    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            std::thread::sleep(policy.backoff(attempt - 1, u64::from(attempt)));
        }
        let outcome = Client::connect_timeout(addr, policy.connect_timeout).and_then(|mut c| {
            c.set_read_timeout(policy.request_timeout)?;
            c.reload(Some(path))
        });
        match outcome {
            Ok(o) => return Ok(o),
            Err(e) if policy.retryable(&e) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no attempts")))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("chaos: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let Some(opt) = parse_options() else {
        return usage();
    };
    let _obs = moss_obs::session();

    // ---- Setup: faults disarmed so scaffolding cannot trip them. ----
    let quiet = moss_faults::override_for_tests(Some(""));

    let dir = std::env::temp_dir().join(format!("moss-chaos-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let ckpt_a = dir.join("gen-a.mossckp");
    let ckpt_b = dir.join("gen-b.mossckp");
    let ckpt_bad = dir.join("corrupt.mossckp");
    if let Err(e) = moss_serve::write_demo_checkpoint(&ckpt_a) {
        return fail(&format!("cannot write checkpoint A: {e}"));
    }
    // Checkpoint B: every parameter shifted by +0.05, so embeddings
    // genuinely differ from A (a uniform *scale* could cancel under
    // normalization; a shift cannot).
    {
        let (config, mut store) = match moss::load_checkpoint_file(&ckpt_a) {
            Ok(v) => v,
            Err(e) => return fail(&format!("cannot load checkpoint A: {e}")),
        };
        let updates: Vec<_> = store
            .iter()
            .map(|(id, _, t)| {
                let data: Vec<f32> = t.data().iter().map(|v| v + 0.05).collect();
                (id, moss_tensor::Tensor::from_vec(data, t.rows(), t.cols()))
            })
            .collect();
        for (id, t) in updates {
            store.set(id, t);
        }
        if let Err(e) = moss::save_checkpoint_file(&ckpt_b, &config, &store) {
            return fail(&format!("cannot write checkpoint B: {e}"));
        }
    }
    // Corrupted checkpoint: checkpoint A with one flipped body byte (the
    // CRC32 footer must catch it).
    {
        let mut bytes = match std::fs::read(&ckpt_a) {
            Ok(b) => b,
            Err(e) => return fail(&format!("cannot read checkpoint A: {e}")),
        };
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        if let Err(e) = std::fs::write(&ckpt_bad, &bytes) {
            return fail(&format!("cannot write corrupt checkpoint: {e}"));
        }
    }

    // Ground truth: direct in-process forwards under both checkpoints.
    let emb_a = match NetlistEmbedder::from_checkpoint_file(&ckpt_a) {
        Ok(e) => e,
        Err(e) => return fail(&format!("cannot load A: {e}")),
    };
    let emb_b = match NetlistEmbedder::from_checkpoint_file(&ckpt_b) {
        Ok(e) => e,
        Err(e) => return fail(&format!("cannot load B: {e}")),
    };
    let corpus: Vec<String> = (0..5)
        .map(|i| moss_netlist::write_verilog(&moss_datagen::random_netlist(100 + i as u64, 30)))
        .collect();
    let mut exp_a: Vec<Vec<u8>> = Vec::new();
    let mut exp_b: Vec<Vec<u8>> = Vec::new();
    for (i, text) in corpus.iter().enumerate() {
        let nl = match moss_netlist::parse_verilog(text) {
            Ok(n) => n,
            Err(e) => return fail(&format!("corpus circuit {i} does not parse: {e}")),
        };
        let a = match emb_a.embed(&nl) {
            Ok(v) => embedding_payload(&v),
            Err(e) => return fail(&format!("direct forward (A) failed on circuit {i}: {e}")),
        };
        let b = match emb_b.embed(&nl) {
            Ok(v) => embedding_payload(&v),
            Err(e) => return fail(&format!("direct forward (B) failed on circuit {i}: {e}")),
        };
        if a == b {
            return fail(&format!(
                "checkpoints A and B agree on circuit {i}; the soak could not detect a stale swap"
            ));
        }
        exp_a.push(a);
        exp_b.push(b);
    }

    let serving = match NetlistEmbedder::from_checkpoint_file(&ckpt_a) {
        Ok(e) => e,
        Err(e) => return fail(&format!("cannot load serving embedder: {e}")),
    };
    let mut config = ServeConfig::from_env();
    config.ckpt_path = Some(ckpt_a.clone());
    let mut server = match Server::start("127.0.0.1:0", serving, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot start server: {e}")),
    };
    let addr = server.addr().to_string();

    // ---- Soak: arm whatever MOSS_FAULTS the environment carries. ----
    drop(quiet);

    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let success = Arc::new(AtomicU64::new(0));
    let injected = Arc::new(AtomicU64::new(0));
    let shed_exhausted = Arc::new(AtomicU64::new(0));
    let transport_exhausted = Arc::new(AtomicU64::new(0));
    let other_errors = Arc::new(AtomicU64::new(0));

    let corpus = Arc::new(corpus);
    let exp_a = Arc::new(exp_a);
    let exp_b = Arc::new(exp_b);

    let mut workers = Vec::new();
    for c in 0..opt.clients {
        let addr = addr.clone();
        let corpus = Arc::clone(&corpus);
        let exp_a = Arc::clone(&exp_a);
        let exp_b = Arc::clone(&exp_b);
        let violations = Arc::clone(&violations);
        let success = Arc::clone(&success);
        let injected = Arc::clone(&injected);
        let shed_exhausted = Arc::clone(&shed_exhausted);
        let transport_exhausted = Arc::clone(&transport_exhausted);
        let other_errors = Arc::clone(&other_errors);
        let requests = opt.requests;
        workers.push(std::thread::spawn(move || {
            let mut client = RetryingClient::new(&addr, chaos_policy(c as u64));
            for r in 0..requests {
                let i = (c + r) % corpus.len();
                match client.embed(&corpus[i]) {
                    Ok(Reply::Embedding(v)) => {
                        // The one unforgivable failure: a *successful*
                        // reply whose bytes match neither generation's
                        // direct forward.
                        let bytes = embedding_payload(&v);
                        if bytes != exp_a[i] && bytes != exp_b[i] {
                            violations.lock().unwrap().push(format!(
                                "wrong bytes: client {c} circuit {i} matches neither A nor B"
                            ));
                        } else {
                            success.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(Reply::Error { code: 4, .. }) => {
                        // Deterministic serve-site injection: fails
                        // typed, by design; excluded from the budget.
                        injected.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Reply::Error { code: 5, .. }) => {
                        shed_exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Reply::Error { code, message }) => {
                        eprintln!("chaos: client {c} unexpected error {code}: {message}");
                        other_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        transport_exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    // Reloader: alternate B/A swaps, salting in the corrupt checkpoint,
    // which must never be accepted. Successful swap generations must
    // strictly increase.
    let reloader = {
        let addr = addr.clone();
        let violations = Arc::clone(&violations);
        let (a, b, bad) = (
            ckpt_a.display().to_string(),
            ckpt_b.display().to_string(),
            ckpt_bad.display().to_string(),
        );
        let reloads = opt.reloads;
        std::thread::spawn(move || {
            let mut last_swapped = 1u64;
            for round in 0..reloads {
                std::thread::sleep(Duration::from_millis(30));
                let (path, must_reject) = if round % 3 == 2 {
                    (bad.as_str(), true)
                } else if round % 2 == 0 {
                    (b.as_str(), false)
                } else {
                    (a.as_str(), false)
                };
                match reload_with_retry(&addr, path) {
                    Ok(ReloadOutcome::Swapped(g)) => {
                        if must_reject {
                            violations
                                .lock()
                                .unwrap()
                                .push(format!("corrupt checkpoint accepted as generation {g}"));
                        } else if g <= last_swapped {
                            violations
                                .lock()
                                .unwrap()
                                .push(format!("generation regressed: {g} after {last_swapped}"));
                        } else {
                            last_swapped = g;
                        }
                    }
                    // A rejection of a *valid* checkpoint is legal under
                    // io-site faults (typed, rolled back); of the
                    // corrupt one it is the required outcome.
                    Ok(ReloadOutcome::Rejected { .. }) => {}
                    // Transport sabotage mid-reload: inconclusive. The
                    // drain phase settles the final state.
                    Err(_) => {}
                }
            }
        })
    };

    for w in workers {
        if w.join().is_err() {
            violations
                .lock()
                .unwrap()
                .push("worker thread panicked".to_string());
        }
    }
    if reloader.join().is_err() {
        violations
            .lock()
            .unwrap()
            .push("reloader thread panicked".to_string());
    }

    // ---- Drain: faults off; the server must settle cleanly on A. ----
    let _quiet = moss_faults::override_for_tests(Some(""));
    let drain = (|| -> std::io::Result<Vec<String>> {
        let mut problems = Vec::new();
        let mut client = Client::connect_timeout(&addr, Duration::from_secs(2))?;
        client.set_read_timeout(Some(Duration::from_secs(5)))?;
        let final_generation = match client.reload(Some(&ckpt_a.display().to_string()))? {
            ReloadOutcome::Swapped(g) => g,
            ReloadOutcome::Rejected { code, message } => {
                problems.push(format!(
                    "drain reload of a valid checkpoint rejected ({code}): {message}"
                ));
                0
            }
        };
        for (i, text) in corpus.iter().enumerate() {
            match client.embed(text)? {
                Reply::Embedding(v) => {
                    if embedding_payload(&v) != exp_a[i] {
                        problems.push(format!(
                            "drain: circuit {i} is not bit-identical to checkpoint A"
                        ));
                    }
                }
                Reply::Error { code, message } => {
                    problems.push(format!("drain: circuit {i} errored ({code}): {message}"));
                }
            }
        }
        let health = client.health()?;
        if final_generation > 0 && field_u64(&health, "generation") != Some(final_generation) {
            problems.push(format!(
                "drain: HEALTH generation disagrees with the last swap: {health}"
            ));
        }
        match field_u64(&health, "respawns") {
            Some(0) => {}
            got => problems.push(format!(
                "drain: HEALTH respawns = {got:?} — a supervised thread panicked organically"
            )),
        }
        Ok(problems)
    })();
    match drain {
        Ok(problems) => violations.lock().unwrap().extend(problems),
        Err(e) => violations
            .lock()
            .unwrap()
            .push(format!("drain transport failure: {e}")),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Verdict. ----
    let success = success.load(Ordering::Relaxed);
    let injected = injected.load(Ordering::Relaxed);
    let sheds = shed_exhausted.load(Ordering::Relaxed);
    let transport = transport_exhausted.load(Ordering::Relaxed);
    let other = other_errors.load(Ordering::Relaxed);
    let attempts = (opt.clients * opt.requests) as u64;
    let budgeted = sheds + transport + other;
    let rate = budgeted as f64 / attempts.max(1) as f64;
    eprintln!(
        "chaos: {attempts} requests → {success} verified, {injected} injected faults (typed), \
         {sheds} shed-exhausted, {transport} transport-exhausted, {other} unexpected errors \
         (budgeted rate {rate:.3} ≤ {:.3})",
        opt.error_budget
    );

    let violations = violations.lock().unwrap();
    for v in violations.iter() {
        eprintln!("chaos: VIOLATION: {v}");
    }
    if !violations.is_empty() {
        return fail(&format!("{} invariant violation(s)", violations.len()));
    }
    if success == 0 {
        return fail("no request ever succeeded — the soak proved nothing");
    }
    if rate > opt.error_budget {
        return fail(&format!(
            "error rate {rate:.3} exceeds budget {:.3}",
            opt.error_budget
        ));
    }
    eprintln!("chaos: PASS");
    ExitCode::SUCCESS
}
