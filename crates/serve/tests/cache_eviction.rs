//! A full embedding cache must keep serving *new* circuits correctly:
//! LRU eviction replaced the old stop-inserting-at-cap behavior, so a
//! server whose circuit population outgrows `cache_cap` keeps absorbing
//! fresh work, every reply stays bit-identical to a direct forward pass,
//! and re-requesting a resident circuit still hits.

use std::path::PathBuf;

use moss::NetlistEmbedder;
use moss_netlist::parse_verilog;
use moss_serve::protocol::embedding_payload;
use moss_serve::{write_demo_checkpoint, Client, Reply, ServeConfig, Server};

fn demo_checkpoint() -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("moss-serve-evict-{}.mossckp", std::process::id()));
    write_demo_checkpoint(&path).expect("write demo checkpoint");
    path
}

fn stat_u64(stats: &str, field: &str) -> u64 {
    stats
        .split(&format!("\"{field}\": "))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("field {field} missing from stats: {stats}"))
}

fn circuits(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| moss_netlist::write_verilog(&moss_datagen::random_netlist(500 + i as u64, 25)))
        .collect()
}

#[test]
fn full_cache_still_serves_new_circuits_bit_identically() {
    let ckpt = demo_checkpoint();
    let embedder = NetlistEmbedder::from_checkpoint_file(&ckpt).expect("load checkpoint");
    // Direct-forward ground truth for every workload.
    let texts = circuits(6);
    let expected: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| {
            let nl = parse_verilog(t).expect("parse");
            embedding_payload(&embedder.embed(&nl).expect("direct forward"))
        })
        .collect();

    // A deliberately tiny cache: 6 distinct circuits through 2 slots.
    let server = Server::start(
        "127.0.0.1:0",
        NetlistEmbedder::from_checkpoint_file(&ckpt).expect("load checkpoint"),
        ServeConfig {
            cache_cap: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut embed_ok =
        |text: &str, want: &[u8], ctx: &str| match client.embed(text).expect("transport") {
            Reply::Embedding(e) => {
                assert_eq!(
                    embedding_payload(&e),
                    want,
                    "{ctx}: reply must be bit-identical to a direct forward"
                );
            }
            Reply::Error { code, message } => panic!("{ctx}: server error {code}: {message}"),
        };

    // First sweep: every circuit is new; the cache churns through all 6.
    for (t, want) in texts.iter().zip(&expected) {
        embed_ok(t, want, "first sweep");
    }
    // Second sweep: most were evicted, all must still be served right.
    for (t, want) in texts.iter().zip(&expected) {
        embed_ok(t, want, "second sweep");
    }
    // The last circuit of the second sweep is resident now: a repeat
    // must be a cache hit, proving eviction didn't disable caching.
    let stats_before = match client.embed(texts.last().unwrap()).expect("transport") {
        Reply::Embedding(e) => {
            assert_eq!(&embedding_payload(&e), expected.last().unwrap());
            server.stats_json()
        }
        Reply::Error { code, message } => panic!("resident repeat: {code}: {message}"),
    };

    let evicted = stat_u64(&stats_before, "evicted");
    let hits = stat_u64(&stats_before, "cache_hits");
    assert!(
        evicted >= 4,
        "6 distinct circuits through 2 slots must evict; stats: {stats_before}"
    );
    assert!(
        hits >= 1,
        "a resident circuit must still hit; stats: {stats_before}"
    );

    drop(server);
    let _ = std::fs::remove_file(ckpt);
}
