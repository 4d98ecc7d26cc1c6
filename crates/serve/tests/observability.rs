//! A running server's run-report splits each request's `serve.decode`
//! into the Verilog parse and the canonical hash, so the cost of a cache
//! hit can be read off the report. Enabling moss-obs is process-wide,
//! hence a test binary of its own.

use moss::NetlistEmbedder;
use moss_netlist::write_verilog;
use moss_serve::{write_demo_checkpoint, Client, ServeConfig, Server};

#[test]
fn decode_reports_parse_and_hash_spans() {
    moss_obs::set_enabled(true);
    let ckpt = std::env::temp_dir().join(format!(
        "moss-serve-obs-test-{}.mossckp",
        std::process::id()
    ));
    write_demo_checkpoint(&ckpt).expect("write demo checkpoint");
    let embedder = NetlistEmbedder::from_checkpoint_file(&ckpt).expect("load demo checkpoint");
    let mut server =
        Server::start("127.0.0.1:0", embedder, ServeConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let text = write_verilog(&moss_datagen::random_netlist(7, 30));
    client.embed_raw(&text).expect("embed");
    server.shutdown();
    let _ = std::fs::remove_file(&ckpt);

    let report = moss_obs::report_json();
    for span in ["serve.decode/serve.parse", "serve.decode/serve.hash"] {
        assert!(
            report.contains(&format!("\"name\": \"{span}\"")),
            "missing span {span} in the run-report: {report}"
        );
    }
}
