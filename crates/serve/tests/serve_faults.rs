//! Fault injection at the `serve` site: a poisoned request must come
//! back as a typed `Fault` error while a request in flight beside it (its
//! "batchmate", in the test's name) succeeds with its exact bytes.
//!
//! This test lives in its own binary because the fault override it arms
//! is process-global: any other test in the same process would see it.

use std::net::TcpStream;

use moss_netlist::{canonical_hash, parse_verilog, write_verilog};
use moss_serve::protocol::{
    decode_error, embedding_payload, read_frame, write_frame, OP_EMBED, OP_EMBEDDING, OP_ERROR,
};
use moss_serve::{write_demo_checkpoint, ServeConfig, Server};

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
    let want = embedding_payload(
        &embedder
            .embed(&parse_verilog(&clean).expect("reparse"))
            .expect("direct embed"),
    );
    let server =
        Server::start("127.0.0.1:0", embedder, ServeConfig::default()).expect("start server");

    // Both requests are sent, each on its own connection, before either
    // reply is read.
    let mut conns: Vec<TcpStream> = [&poisoned, &clean]
        .into_iter()
        .map(|text| {
            let mut conn = TcpStream::connect(server.addr()).expect("connect");
            write_frame(&mut conn, OP_EMBED, text.as_bytes()).expect("send");
            conn
        })
        .collect();
    let mut reply = |i: usize| {
        read_frame(&mut conns[i])
            .expect("read")
            .expect("a reply frame")
    };

    let poisoned_reply = reply(0);
    assert_eq!(poisoned_reply.op, OP_ERROR, "poisoned request embedded");
    let (code, message) = decode_error(&poisoned_reply.payload).expect("error payload");
    assert_eq!(code, 4, "expected the Fault error code, got: {message}");
    assert!(
        message.contains("injected fault"),
        "unexpected message: {message}"
    );
    let clean_reply = reply(1);
    assert_eq!(
        (clean_reply.op, clean_reply.payload),
        (OP_EMBEDDING, want),
        "the concurrent clean request must get its exact bytes"
    );
}
