//! # moss-serve
//!
//! A micro-batching TCP embedding server over MOSS checkpoints.
//!
//! A [`Server`] loads a MOSSCKP2 checkpoint once (as a
//! [`moss::NetlistEmbedder`]), listens on a plain `std::net` socket, and
//! answers length-prefixed requests carrying structural Verilog with
//! alignment-space embeddings. Concurrent requests are micro-batched:
//! the scheduler collects jobs for a short window, runs one tape-free GNN
//! pass over the whole batch, and fans the results back — with the
//! guarantee (pinned by the integration tests) that batched, cached,
//! and direct-forward embeddings are **bit-identical**.
//!
//! The server is **self-healing**: checkpoints hot-reload through a
//! validated `RELOAD` op (or an `MOSS_SERVE_CKPT` mtime watcher) with
//! atomic generation swap and rollback-on-rejection, panicked core
//! threads are respawned under a bounded budget, and a `HEALTH` op
//! exposes uptime/generation/respawn/queue-depth. On the client side,
//! [`RetryingClient`] + [`RetryPolicy`] add bounded connects, read
//! deadlines, and jittered-backoff retries for connect failures, EOF,
//! and `Overload` sheds — never for `Parse`/`Graph` rejections. The
//! whole stack is soak-tested by `cargo xtask chaos-check` under
//! randomized `MOSS_FAULTS` schedules (including the `net` site's
//! partial writes, disconnects, and stalls).
//!
//! ```no_run
//! use moss_serve::{Client, Reply, ServeConfig, Server};
//!
//! let embedder = moss::NetlistEmbedder::from_checkpoint_file("model.mossckp")?;
//! let server = Server::start("127.0.0.1:0", embedder, ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! if let Reply::Embedding(e) = client.embed("module t (input a, output y);
//!                                              wire n_u1;
//!                                              INV_X1 u1 (.A(a), .Y(n_u1));
//!                                              assign y = n_u1;
//!                                            endmodule")? {
//!     println!("dim = {}", e.len());
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod client;
pub mod protocol;
mod reload;
mod server;

pub use client::{Client, ReloadOutcome, Reply, RetryPolicy, RetryingClient};
pub use server::{ServeConfig, ServeStats, Server, PANIC_MARKER};

use std::io;
use std::path::Path;

use moss::{MossConfig, MossVariant};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_tensor::ParamStore;

/// Writes a small deterministically-initialized MOSSCKP2 checkpoint —
/// enough model to serve real embeddings without a training run. Used by
/// `--demo`, the integration tests, and the load generator.
///
/// # Errors
///
/// Propagates checkpoint I/O errors.
pub fn write_demo_checkpoint<P: AsRef<Path>>(path: P) -> io::Result<()> {
    let config = MossConfig::small(16, MossVariant::Full);
    let mut store = ParamStore::new();
    // Materialize the encoder parameters so the checkpoint carries the
    // exact cell-kind embedding tables the embedder will rebuild from.
    let _encoder = TextEncoder::new(
        EncoderConfig {
            d_model: 16,
            ..EncoderConfig::tiny()
        },
        &mut store,
        1,
    );
    let _model = moss::MossModel::new(config, &mut store, 2);
    moss::save_checkpoint_file(path, &config, &store)
}
