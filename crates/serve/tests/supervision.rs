//! Panic isolation: a forward that panics must fail its own request with
//! a typed `Internal` error and nothing else — a request in flight beside
//! it gets its exact bytes, the panicking request's connection keeps
//! serving, and no supervised thread is respawned. (The supervisor of the
//! accept and watcher threads is unit-tested in `server.rs`.)

use std::net::TcpStream;
use std::path::PathBuf;

use moss::NetlistEmbedder;
use moss_netlist::{parse_verilog, write_verilog};
use moss_serve::protocol::{
    decode_error, embedding_payload, read_frame, write_frame, ErrorCode, OP_EMBED, OP_EMBEDDING,
    OP_ERROR,
};
use moss_serve::{write_demo_checkpoint, Client, ServeConfig, Server, PANIC_MARKER};

fn demo_checkpoint() -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "moss-supervision-test-{}.mossckp",
        std::process::id()
    ));
    write_demo_checkpoint(&path).expect("write demo checkpoint");
    path
}

fn field_u64(json: &str, field: &str) -> u64 {
    json.split(&format!("\"{field}\": "))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("field {field} missing from: {json}"))
}

/// Reads one reply: the embedding bytes or the typed error.
fn reply(conn: &mut TcpStream) -> Result<Vec<u8>, (u16, String)> {
    let frame = read_frame(conn)
        .expect("read reply")
        .expect("a reply frame");
    match frame.op {
        OP_EMBEDDING => Ok(frame.payload),
        OP_ERROR => Err(decode_error(&frame.payload).expect("error payload")),
        op => panic!("unexpected reply opcode 0x{op:02x}"),
    }
}

#[test]
fn a_panicking_forward_fails_alone_and_its_connection_keeps_serving() {
    let ckpt = demo_checkpoint();
    let embedder = || NetlistEmbedder::from_checkpoint_file(&ckpt).expect("load checkpoint");
    let config = ServeConfig {
        // No cache: every valid request must run a forward.
        cache_cap: 0,
        panic_marker: true,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", embedder(), config).expect("start server");
    let text = write_verilog(&moss_datagen::random_netlist(42, 25));
    let want = embedding_payload(
        &embedder()
            .embed(&parse_verilog(&text).expect("reparse"))
            .expect("direct embed"),
    );

    // The marker and a valid request, each on its own connection, both
    // sent before either reply is read.
    let mut marked = TcpStream::connect(server.addr()).expect("connect");
    let mut valid = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut marked, OP_EMBED, PANIC_MARKER).expect("send marker");
    write_frame(&mut valid, OP_EMBED, text.as_bytes()).expect("send valid request");

    match reply(&mut marked) {
        Err((code, message)) => {
            assert_eq!(code, ErrorCode::Internal.as_u16(), "{message}");
            assert!(message.contains("panicked"), "{message}");
        }
        Ok(_) => panic!("the marker must never embed"),
    }
    assert_eq!(
        reply(&mut valid),
        Ok(want.clone()),
        "the concurrent request must get its exact bytes"
    );

    // The panicking request's connection keeps serving, bit for bit.
    write_frame(&mut marked, OP_EMBED, text.as_bytes()).expect("send next request");
    assert_eq!(reply(&mut marked), Ok(want));

    // Nothing supervised went down.
    let health = Client::connect(server.addr())
        .expect("connect")
        .health()
        .expect("health");
    assert_eq!(field_u64(&health, "respawns"), 0, "{health}");
    let _ = std::fs::remove_file(ckpt);
}
