//! Fault injection at the `serve` site: a poisoned request must come
//! back as a typed `Fault` error while the rest of its batch succeeds.
//!
//! This test lives in its own binary because the fault override it arms
//! is process-global: any other test in the same process would see it.

use std::time::Duration;

use moss_netlist::{canonical_hash, parse_verilog, write_verilog};
use moss_serve::{write_demo_checkpoint, Client, Reply, ServeConfig, Server};

#[test]
fn poisoned_request_fails_alone_while_its_batchmates_succeed() {
    // Half of all serve-site keys fault under this spec; decisions are
    // pure per (site, key), so we can predict per-circuit outcomes.
    let _faults = moss_faults::override_for_tests(Some("serve:0.5:77"));

    // Find one circuit that faults and one that does not, using the
    // exact hash the server will compute (parse of the wire text).
    let mut poisoned = None;
    let mut clean = None;
    for seed in 0..64u64 {
        let text = write_verilog(&moss_datagen::random_netlist(500 + seed, 25));
        let hash = canonical_hash(&parse_verilog(&text).expect("reparse"));
        if moss_faults::fire(moss_faults::Site::Serve, hash) {
            poisoned.get_or_insert(text);
        } else {
            clean.get_or_insert(text);
        }
        if poisoned.is_some() && clean.is_some() {
            break;
        }
    }
    let poisoned = poisoned.expect("no poisoned circuit in 64 candidates");
    let clean = clean.expect("no clean circuit in 64 candidates");

    let ckpt =
        std::env::temp_dir().join(format!("moss-serve-faults-{}.mossckp", std::process::id()));
    write_demo_checkpoint(&ckpt).expect("write demo checkpoint");
    let embedder =
        moss::NetlistEmbedder::from_checkpoint_file(&ckpt).expect("load demo checkpoint");
    // A wide window so both requests share one batch.
    let config = ServeConfig {
        batch_window: Duration::from_millis(100),
        max_batch: 8,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", embedder, config).expect("start server");
    let addr = server.addr();

    let h_poisoned = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.embed(&poisoned).expect("reply")
    });
    let h_clean = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.embed(&clean).expect("reply")
    });

    match h_poisoned.join().unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, 4, "expected the Fault error code, got: {message}");
            assert!(
                message.contains("injected fault"),
                "unexpected message: {message}"
            );
        }
        Reply::Embedding(_) => panic!("poisoned request embedded successfully"),
    }
    match h_clean.join().unwrap() {
        Reply::Embedding(e) => assert!(!e.is_empty()),
        Reply::Error { code, message } => {
            panic!("clean batchmate failed too: code {code}, {message}")
        }
    }
}
