//! Hot-reload integration tests over real sockets: validated swap,
//! rollback on every class of bad checkpoint, cache invalidation,
//! in-flight requests completing on one generation's exact bytes, and the
//! mtime watcher. (That a miss completes on the generation it pinned,
//! even when a reload lands before its forward, is unit-tested in
//! `server.rs`.)

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use moss::{MossConfig, MossVariant, NetlistEmbedder};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::{parse_verilog, write_verilog};
use moss_serve::protocol::embedding_payload;
use moss_serve::{write_demo_checkpoint, Client, ReloadOutcome, Reply, ServeConfig, Server};
use moss_tensor::{ParamStore, Tensor};

static NEXT_CKPT: AtomicU32 = AtomicU32::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = NEXT_CKPT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "moss-reload-test-{}-{n}-{tag}.mossckp",
        std::process::id()
    ))
}

/// A fresh demo checkpoint under a collision-free temp path.
fn demo_checkpoint() -> PathBuf {
    let path = temp_path("a");
    write_demo_checkpoint(&path).expect("write demo checkpoint");
    path
}

/// A second *valid* checkpoint whose parameters (and therefore
/// embeddings) differ from `base`: every element shifted by +0.05.
fn shifted_checkpoint(base: &Path) -> PathBuf {
    let (config, mut store) = moss::load_checkpoint_file(base).expect("load base checkpoint");
    let updates: Vec<_> = store
        .iter()
        .map(|(id, _, t)| {
            let data: Vec<f32> = t.data().iter().map(|v| v + 0.05).collect();
            (id, Tensor::from_vec(data, t.rows(), t.cols()))
        })
        .collect();
    for (id, t) in updates {
        store.set(id, t);
    }
    let path = temp_path("b");
    moss::save_checkpoint_file(&path, &config, &store).expect("write shifted checkpoint");
    path
}

fn embedder_from(path: &Path) -> NetlistEmbedder {
    NetlistEmbedder::from_checkpoint_file(path).expect("load checkpoint")
}

fn circuits(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| write_verilog(&moss_datagen::random_netlist(300 + i as u64, 25)))
        .collect()
}

/// The exact wire bytes a direct in-process forward produces.
fn expected_payload(ckpt: &Path, text: &str) -> Vec<u8> {
    let nl = parse_verilog(text).expect("corpus circuit parses");
    embedding_payload(&embedder_from(ckpt).embed(&nl).expect("direct forward"))
}

fn field_u64(json: &str, field: &str) -> u64 {
    json.split(&format!("\"{field}\": "))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("field {field} missing from: {json}"))
}

#[test]
fn reload_swaps_generations_and_invalidates_cache() {
    let a = demo_checkpoint();
    let b = shifted_checkpoint(&a);
    let text = &circuits(1)[0];
    let exp_a = expected_payload(&a, text);
    let exp_b = expected_payload(&b, text);
    assert_ne!(exp_a, exp_b, "the two checkpoints must disagree");

    let config = ServeConfig {
        ckpt_path: Some(a.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", embedder_from(&a), config).expect("start server");
    assert_eq!(server.generation(), 1);

    let mut client = Client::connect_timeout(server.addr(), Duration::from_secs(2))
        .expect("connect with timeout");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read deadline");

    // Serve (and cache) under generation 1.
    assert_eq!(client.embed_raw(text).expect("embed A"), exp_a);
    assert_eq!(client.embed_raw(text).expect("embed A cached"), exp_a);

    // Swap to B over the wire; the cached generation-1 bytes must not
    // survive the reload.
    match client
        .reload(Some(&b.display().to_string()))
        .expect("reload")
    {
        ReloadOutcome::Swapped(g) => assert_eq!(g, 2),
        other => panic!("valid checkpoint rejected: {other:?}"),
    }
    assert_eq!(server.generation(), 2);
    let health = client.health().expect("health");
    assert_eq!(field_u64(&health, "generation"), 2);
    assert_eq!(field_u64(&health, "reloads"), 1);
    assert_eq!(
        client.embed_raw(text).expect("embed B"),
        exp_b,
        "post-reload bytes must come from the new generation, not the cache"
    );

    // An empty payload reloads the configured watch path (checkpoint A).
    match client.reload(None).expect("empty reload") {
        ReloadOutcome::Swapped(g) => assert_eq!(g, 3),
        other => panic!("configured-path reload rejected: {other:?}"),
    }
    assert_eq!(client.embed_raw(text).expect("embed A again"), exp_a);
}

#[test]
fn empty_reload_without_configured_path_is_rejected() {
    let a = demo_checkpoint();
    let server =
        Server::start("127.0.0.1:0", embedder_from(&a), ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.reload(None).expect("roundtrip") {
        ReloadOutcome::Rejected { code, message } => {
            assert_eq!(code, 7, "ErrorCode::Reload");
            assert!(message.contains("no reload path configured"), "{message}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(server.generation(), 1);
}

#[test]
fn bad_checkpoints_are_rejected_and_old_generation_keeps_serving() {
    let a = demo_checkpoint();
    let text = &circuits(1)[0];
    let exp_a = expected_payload(&a, text);
    let bytes = std::fs::read(&a).expect("read checkpoint A");

    // Corrupt CRC: flip a bit late in the body (inside tensor data,
    // before the footer).
    let corrupt = temp_path("corrupt");
    {
        let mut c = bytes.clone();
        let at = c.len() - 16;
        c[at] ^= 0x01;
        std::fs::write(&corrupt, &c).expect("write corrupt");
    }
    // Truncated mid-record.
    let truncated = temp_path("truncated");
    std::fs::write(&truncated, &bytes[..bytes.len() - 10]).expect("write truncated");
    // Valid container, non-finite weights.
    let nan = temp_path("nan");
    {
        let (config, mut store) = moss::load_checkpoint_file(&a).expect("load A");
        let (id, rows, cols) = store
            .iter()
            .map(|(id, _, t)| (id, t.rows(), t.cols()))
            .next()
            .expect("at least one parameter");
        store.set(
            id,
            Tensor::from_vec(vec![f32::NAN; rows * cols], rows, cols),
        );
        moss::save_checkpoint_file(&nan, &config, &store).expect("write nan checkpoint");
    }
    // Valid, finite, but the wrong alignment width.
    let misshaped = temp_path("misshaped");
    {
        let mut config = MossConfig::small(16, MossVariant::Full);
        config.d_align = 8;
        let mut store = ParamStore::new();
        let _encoder = TextEncoder::new(
            EncoderConfig {
                d_model: 16,
                ..EncoderConfig::tiny()
            },
            &mut store,
            1,
        );
        let _model = moss::MossModel::new(config, &mut store, 2);
        moss::save_checkpoint_file(&misshaped, &config, &store).expect("write misshaped");
    }

    let server =
        Server::start("127.0.0.1:0", embedder_from(&a), ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.embed_raw(text).expect("embed before"), exp_a);

    for (label, path) in [
        ("corrupt-CRC", &corrupt),
        ("truncated", &truncated),
        ("NaN-weight", &nan),
        ("shape-mismatched", &misshaped),
        ("nonexistent", &temp_path("missing")),
    ] {
        match client
            .reload(Some(&path.display().to_string()))
            .unwrap_or_else(|e| panic!("{label}: transport failure: {e}"))
        {
            ReloadOutcome::Rejected { code, message } => {
                assert_eq!(code, 7, "{label}: must use ErrorCode::Reload");
                assert!(
                    message.contains("previous generation still serving"),
                    "{label}: rollback must be explicit: {message}"
                );
            }
            ReloadOutcome::Swapped(g) => panic!("{label}: accepted as generation {g}"),
        }
        assert_eq!(server.generation(), 1, "{label}: generation must not move");
        assert_eq!(
            client.embed_raw(text).expect("embed after rejection"),
            exp_a,
            "{label}: the old embedder must keep serving, bit-identically"
        );
    }
    let health = client.health().expect("health");
    assert_eq!(field_u64(&health, "reload_failures"), 5);
    assert_eq!(field_u64(&health, "reloads"), 0);
}

#[test]
fn in_flight_requests_complete_across_a_reload() {
    let a = demo_checkpoint();
    let b = shifted_checkpoint(&a);
    let texts = circuits(4);
    let exp: Vec<(Vec<u8>, Vec<u8>)> = texts
        .iter()
        .map(|t| (expected_payload(&a, t), expected_payload(&b, t)))
        .collect();

    let server =
        Server::start("127.0.0.1:0", embedder_from(&a), ServeConfig::default()).expect("start");
    let addr = server.addr();

    let workers: Vec<_> = texts
        .iter()
        .cloned()
        .map(|text| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect worker");
                client.embed_raw(&text).expect("in-flight embed")
            })
        })
        .collect();
    // Swap generations while the workers' requests race it.
    let generation = server.reload(&b).expect("reload during in-flight requests");
    assert_eq!(generation, 2);

    for (w, (exp_a, exp_b)) in workers.into_iter().zip(&exp) {
        let got = w.join().expect("worker");
        assert!(
            got == *exp_a || got == *exp_b,
            "an in-flight reply must be bit-identical to one generation's direct forward"
        );
    }
    // Steady state after the swap: generation 2 exactly.
    let mut client = Client::connect(addr).expect("connect");
    for (text, (_, exp_b)) in texts.iter().zip(&exp) {
        assert_eq!(client.embed_raw(text).expect("post-reload embed"), *exp_b);
    }
}

#[test]
fn watcher_auto_reloads_on_mtime_change() {
    let a = demo_checkpoint();
    let b = shifted_checkpoint(&a);
    let text = &circuits(1)[0];
    let exp_a = expected_payload(&a, text);
    let exp_b = expected_payload(&b, text);

    // The watched file starts as a copy of A (already serving).
    let watched = temp_path("watched");
    std::fs::copy(&a, &watched).expect("seed watch path");

    let config = ServeConfig {
        ckpt_path: Some(watched.clone()),
        watch_interval: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", embedder_from(&a), config).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.embed_raw(text).expect("embed A"), exp_a);

    // Publish checkpoint B over the watch path; the watcher must pick
    // it up from the mtime change alone.
    std::fs::copy(&b, &watched).expect("publish B");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.generation() < 2 {
        assert!(
            Instant::now() < deadline,
            "watcher never reloaded the changed checkpoint"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client.embed_raw(text).expect("embed B"), exp_b);

    // Stats and health agree on what happened.
    match client.embed(text).expect("typed embed") {
        Reply::Embedding(v) => assert_eq!(embedding_payload(&v), exp_b),
        Reply::Error { code, message } => panic!("unexpected error {code}: {message}"),
    }
    let health = client.health().expect("health");
    assert_eq!(field_u64(&health, "generation"), 2);
    assert_eq!(field_u64(&health, "reloads"), 1);
}
