//! End-to-end serving tests over real sockets: the micro-batching
//! scheduler, the embedding cache, and concurrent clients must all
//! return bytes **bit-identical** to a direct in-process forward pass.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use moss::NetlistEmbedder;
use moss_netlist::{parse_verilog, write_verilog};
use moss_serve::protocol::embedding_payload;
use moss_serve::{write_demo_checkpoint, Client, Reply, ServeConfig, Server};

static NEXT_CKPT: AtomicU32 = AtomicU32::new(0);

/// A fresh demo checkpoint under a collision-free temp path.
fn demo_checkpoint() -> PathBuf {
    let n = NEXT_CKPT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "moss-serve-test-{}-{n}.mossckp",
        std::process::id()
    ));
    write_demo_checkpoint(&path).expect("write demo checkpoint");
    path
}

fn embedder_from(path: &PathBuf) -> NetlistEmbedder {
    NetlistEmbedder::from_checkpoint_file(path).expect("load demo checkpoint")
}

/// Pulls one numeric field out of a stats JSON snapshot.
fn stat_u64(stats: &str, field: &str) -> u64 {
    stats
        .split(&format!("\"{field}\": "))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("field {field} missing from stats: {stats}"))
}

/// Distinct structural-Verilog workloads.
fn circuits(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| write_verilog(&moss_datagen::random_netlist(100 + i as u64, 30)))
        .collect()
}

/// A config that forces every concurrent request into one batch.
fn batching_config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::from_millis(100),
        max_batch: 8,
        ..ServeConfig::default()
    }
}

/// A config that forbids batching entirely.
fn unbatched_config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::from_millis(0),
        max_batch: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn batched_replies_are_bit_identical_to_unbatched_and_direct() {
    let ckpt = demo_checkpoint();
    let texts = circuits(4);

    // Batched: concurrent clients against a wide-window server.
    let batched = {
        let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), batching_config())
            .expect("start batching server");
        let addr = server.addr();
        let handles: Vec<_> = texts
            .iter()
            .cloned()
            .map(|text| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.embed_raw(&text).expect("embed")
                })
            })
            .collect();
        let replies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = server.stats_json();
        // The wide window must actually have fused something; otherwise
        // this test degenerates into comparing the single path to itself.
        assert!(
            stat_u64(&stats, "max_batch_occupancy") >= 2,
            "expected a fused batch, got {stats}"
        );
        replies
    };

    // Unbatched: the same requests, one per forward pass.
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), unbatched_config())
        .expect("start unbatched server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let direct = embedder_from(&ckpt);
    for (text, batched_bytes) in texts.iter().zip(&batched) {
        let single_bytes = client.embed_raw(text).expect("embed");
        assert_eq!(
            &single_bytes, batched_bytes,
            "batched and unbatched replies differ"
        );
        // And both must equal a direct in-process forward pass on the
        // same checkpoint (wire bytes are exactly embedding_payload).
        let netlist = parse_verilog(text).expect("reparse");
        let emb = direct.embed(&netlist).expect("direct embed");
        assert_eq!(
            batched_bytes,
            &embedding_payload(&emb),
            "served bytes differ from the direct forward pass"
        );
    }
}

#[test]
fn cache_hits_return_identical_bytes() {
    let ckpt = demo_checkpoint();
    let text = &circuits(1)[0];
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), unbatched_config())
        .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let first = client.embed_raw(text).expect("first embed");
    let second = client.embed_raw(text).expect("second embed");
    assert_eq!(first, second, "cache hit changed the reply bytes");

    // A semantically identical netlist with its declarations reordered
    // must hit the same cache entry (canonical hashing).
    let reordered = {
        let src = text.clone();
        let mut head = Vec::new();
        let mut cells = Vec::new();
        let mut tail = Vec::new();
        for line in src.lines() {
            let t = line.trim_start();
            if t.starts_with("assign") || t == "endmodule" {
                tail.push(line.to_string());
            } else if t.starts_with("module") || t.starts_with("wire") {
                head.push(line.to_string());
            } else {
                cells.push(line.to_string());
            }
        }
        cells.reverse();
        let mut out = head;
        out.extend(cells);
        out.extend(tail);
        out.join("\n")
    };
    let third = client.embed_raw(&reordered).expect("reordered embed");
    assert_eq!(first, third, "reordered netlist missed the cache");

    let stats = client.stats().expect("stats");
    let hits = stat_u64(&stats, "cache_hits");
    assert!(hits >= 2, "expected >= 2 cache hits, stats: {stats}");
}

#[test]
fn concurrent_clients_get_their_own_embeddings() {
    let ckpt = demo_checkpoint();
    let texts = circuits(4);
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), batching_config())
        .expect("start server");
    let addr = server.addr();

    // Every client interleaves requests for its own circuit; replies
    // must never be cross-wired to another client's circuit.
    let direct = embedder_from(&ckpt);
    let expected: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| embedding_payload(&direct.embed(&parse_verilog(t).unwrap()).unwrap()))
        .collect();

    let handles: Vec<_> = texts
        .iter()
        .cloned()
        .zip(expected.iter().cloned())
        .map(|(text, want)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    let got = client.embed_raw(&text).expect("embed");
                    assert_eq!(got, want, "cross-wired reply in round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn parse_and_graph_errors_come_back_typed() {
    let ckpt = demo_checkpoint();
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), unbatched_config())
        .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    match client.embed("this is not verilog").expect("reply") {
        Reply::Error { code, message } => {
            assert_eq!(code, 2, "expected Parse error");
            assert!(
                message.contains("line 1"),
                "parse error must carry its source position: {message}"
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    // A structurally broken netlist reports the offending line, so a
    // client staring at a 10k-line benchmark knows where to look.
    let broken = "module m (input a, output y);\n  wire w;\n  FOO_X1 u (.A(a), .Y(y));\nendmodule";
    match client.embed(broken).expect("reply") {
        Reply::Error { code, message } => {
            assert_eq!(code, 2, "expected Parse error");
            assert!(
                message.contains("line 3") && message.contains("FOO_X1"),
                "expected a positioned unknown-cell error, got: {message}"
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    // The connection survives an error and still serves good requests.
    let text = &circuits(1)[0];
    match client.embed(text).expect("reply") {
        Reply::Embedding(e) => assert!(!e.is_empty()),
        other => panic!("expected an embedding after an error, got {other:?}"),
    }
}

#[test]
fn empty_module_is_rejected_alone_and_its_batchmate_is_served() {
    let ckpt = demo_checkpoint();
    let config = ServeConfig {
        batch_window: Duration::from_millis(300),
        max_batch: 8,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), config).expect("start server");
    let addr = server.addr();
    let text = circuits(1).remove(0);

    // The valid request opens a 300 ms batch window; the empty module
    // arrives while it is still open.
    let valid = {
        let text = text.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.embed_raw(&text)
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(addr).expect("connect");
    match client.embed("module m (); endmodule").expect("reply") {
        Reply::Error { code, message } => {
            assert_eq!(code, 3, "expected a Graph error, got: {message}");
            assert!(message.contains("no nodes"), "{message}");
        }
        other => panic!("expected a Graph error for the empty module, got {other:?}"),
    }

    let bytes = valid.join().unwrap().expect("the batchmate is served");
    let netlist = parse_verilog(&text).expect("reparse");
    let emb = embedder_from(&ckpt).embed(&netlist).expect("direct embed");
    assert_eq!(bytes, embedding_payload(&emb), "batchmate got wrong bytes");
}

/// The committed b01-class benchmark netlist, exactly as a user would
/// bring it: comments, non-ANSI port declarations, DFF control pins.
const B01_NET: &str = include_str!("../../netlist/tests/fixtures/b01_net.v");

#[test]
fn benchmark_fixture_embeds_bit_identically_across_servers() {
    let ckpt = demo_checkpoint();

    // Two fully independent server processes-worth of state (separate
    // embedder instances, separate caches) over the same checkpoint.
    let run = || {
        let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), unbatched_config())
            .expect("start server");
        let mut client = Client::connect(server.addr()).expect("connect");
        client.embed_raw(B01_NET).expect("embed fixture")
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "fixture embedding differs between independent servers"
    );

    // And both match a direct in-process forward pass on the parsed
    // fixture — serving adds no numeric drift.
    let direct = embedder_from(&ckpt);
    let netlist = parse_verilog(B01_NET).expect("parse fixture");
    let emb = direct.embed(&netlist).expect("direct embed");
    assert_eq!(first, embedding_payload(&emb));
}

#[test]
fn parsed_and_programmatic_circuits_embed_identically() {
    // A circuit arriving as Verilog text must produce the same bytes as
    // its programmatically-built twin fed straight to the embedder: text
    // ingestion is not a second, subtly different pipeline.
    let ckpt = demo_checkpoint();
    let server = Server::start("127.0.0.1:0", embedder_from(&ckpt), unbatched_config())
        .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let direct = embedder_from(&ckpt);
    for seed in 0..3u64 {
        let nl = moss_datagen::random_netlist(700 + seed, 35);
        let served = client.embed_raw(&write_verilog(&nl)).expect("embed");
        let want = embedding_payload(&direct.embed(&nl).expect("direct embed"));
        assert_eq!(served, want, "seed {seed}: text path diverged");
    }
}
