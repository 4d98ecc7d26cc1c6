//! Load generator for `moss-serve`: N concurrent clients hammering the
//! server with a rotating set of distinct netlists, recording latency
//! percentiles and throughput as a `BENCH_serve.json` artifact that
//! `cargo xtask bench-check` gates on.
//!
//! ```text
//! loadgen [--clients 4] [--requests 50] [--distinct 6] [--quick]
//!         [--addr HOST:PORT] [--out BENCH_serve.json]
//! ```
//!
//! Without `--addr` an in-process server with deterministic demo weights
//! is started on an ephemeral port, so the binary doubles as a
//! self-contained smoke test: it exits nonzero if any request draws a
//! protocol error or the run records zero throughput.
//!
//! Clients run through [`RetryingClient`]: connects are bounded, reads
//! have deadlines, and transport failures are retried with jittered
//! backoff instead of failing the bench; the reconnect count is logged.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moss_serve::{Reply, RetryPolicy, RetryingClient, ServeConfig, Server};

struct Options {
    clients: usize,
    requests: usize,
    distinct: usize,
    addr: Option<String>,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--clients N] [--requests N] [--distinct N] [--quick]\n\
         \x20              [--addr HOST:PORT] [--out FILE]"
    );
    ExitCode::from(2)
}

fn parse_options() -> Option<Options> {
    let mut opt = Options {
        clients: 4,
        requests: 50,
        distinct: 6,
        addr: None,
        out: std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string()),
    };
    let mut quick = std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => opt.clients = args.next()?.parse().ok()?,
            "--requests" => opt.requests = args.next()?.parse().ok()?,
            "--distinct" => opt.distinct = args.next()?.parse().ok()?,
            "--addr" => opt.addr = Some(args.next()?),
            "--out" => opt.out = args.next()?,
            "--quick" => quick = true,
            _ => return None,
        }
    }
    if quick {
        // Small enough for a CI smoke, large enough that p99 is not a
        // single cold-start outlier.
        opt.clients = 4;
        opt.requests = 25;
        opt.distinct = 4;
    }
    if opt.clients == 0 || opt.requests == 0 || opt.distinct == 0 {
        return None;
    }
    Some(opt)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn json_result(name: &str, iters: u64, mean_ns: f64, extra: &str) -> String {
    format!(
        "\n    {{\"name\": {name:?}, \"iters\": {iters}, \"mean_ns\": {mean_ns:.1}, \
         \"min_batch_ns\": {mean_ns:.1}{extra}}}"
    )
}

/// The bench retry posture: fast backoff (this is a latency bench, not a
/// fleet), bounded connects, and a read deadline so a stalled server
/// fails the run instead of hanging it.
fn bench_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        connect_timeout: Duration::from_secs(2),
        request_timeout: Some(Duration::from_secs(5)),
        jitter_seed: seed,
    }
}

fn main() -> ExitCode {
    let Some(opt) = parse_options() else {
        return usage();
    };
    // MOSS_OBS=1 surfaces the in-process server's serve.* spans and
    // cache counters at exit.
    let _obs = moss_obs::session();

    // Either connect to a live server or spin one up in-process on demo
    // weights and an ephemeral port.
    let mut local = None;
    let addr = match &opt.addr {
        Some(a) => a.clone(),
        None => {
            let dir = std::env::temp_dir().join(format!("moss-loadgen-{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("loadgen: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let ckpt = dir.join("demo.mossckp");
            if let Err(e) = moss_serve::write_demo_checkpoint(&ckpt) {
                eprintln!("loadgen: cannot write demo checkpoint: {e}");
                return ExitCode::FAILURE;
            }
            let embedder = match moss::NetlistEmbedder::from_checkpoint_file(&ckpt) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("loadgen: cannot load demo checkpoint: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let server = match Server::start("127.0.0.1:0", embedder, ServeConfig::from_env()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("loadgen: cannot start in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let a = server.addr().to_string();
            local = Some(server);
            a
        }
    };

    // Distinct workloads, one per slot, reused round-robin across
    // requests so the cache path gets exercised too.
    let corpus: Vec<String> = (0..opt.distinct)
        .map(|i| moss_netlist::write_verilog(&moss_datagen::random_netlist(7 + i as u64, 40)))
        .collect();
    let corpus = Arc::new(corpus);

    let errors = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..opt.clients {
        let addr = addr.clone();
        let corpus = Arc::clone(&corpus);
        let errors = Arc::clone(&errors);
        let retries = Arc::clone(&retries);
        let requests = opt.requests;
        handles.push(std::thread::spawn(move || -> Vec<u64> {
            let mut client = RetryingClient::new(&addr, bench_policy(c as u64));
            // One untimed warmup request so cold-start work (first
            // forward pass, cache fill) doesn't dominate the
            // percentiles of a short run.
            if let Err(e) = client.embed(&corpus[c % corpus.len()]) {
                eprintln!("loadgen: client {c} warmup failed: {e}");
                errors.fetch_add(1, Ordering::Relaxed);
            }
            let mut lat = Vec::with_capacity(requests);
            for r in 0..requests {
                let text = &corpus[(c + r) % corpus.len()];
                let t = Instant::now();
                match client.embed(text) {
                    Ok(Reply::Embedding(_)) => {
                        lat.push(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    }
                    Ok(Reply::Error { code, message }) => {
                        // Any typed error fails the bench.
                        eprintln!("loadgen: client {c} got error {code}: {message}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("loadgen: client {c} transport error: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            retries.fetch_add(client.retries(), Ordering::Relaxed);
            lat
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().unwrap_or_default());
    }
    let wall = start.elapsed();

    let errors = errors.load(Ordering::Relaxed);
    let retries = retries.load(Ordering::Relaxed);
    if latencies.is_empty() {
        eprintln!("loadgen: no successful requests");
        return ExitCode::FAILURE;
    }
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let mean_ns = latencies.iter().sum::<u64>() as f64 / total as f64;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let qps = total as f64 / wall.as_secs_f64();

    if let Some(server) = &local {
        eprintln!("loadgen: server stats {}", server.stats_json());
    }
    eprintln!(
        "loadgen: {total} requests, {} clients, mean {:.1} us, p50 {:.1} us, p99 {:.1} us, \
         {qps:.1} QPS, {errors} errors, {retries} reconnects",
        opt.clients,
        mean_ns / 1000.0,
        p50 as f64 / 1000.0,
        p99 as f64 / 1000.0,
    );

    // Same shape as moss-benchkit's reports so xtask's parser and the
    // bench-check gate work unchanged.
    let mut json = String::from("{\n  \"bench\": \"serve\",\n  \"results\": [");
    json.push_str(&json_result("serve/request_mean", total, mean_ns, ""));
    json.push(',');
    json.push_str(&json_result("serve/request_p50", total, p50 as f64, ""));
    json.push(',');
    json.push_str(&json_result("serve/request_p99", total, p99 as f64, ""));
    json.push(',');
    json.push_str(&json_result(
        "serve/ns_per_request",
        total,
        1e9 / qps,
        &format!(", \"qps\": {qps:.1}"),
    ));
    json.push_str("\n  ]\n}\n");
    if let Err(e) = std::fs::write(&opt.out, json) {
        eprintln!("loadgen: cannot write {}: {e}", opt.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", opt.out);

    drop(local);
    if errors > 0 {
        eprintln!("loadgen: {errors} protocol errors — failing");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
