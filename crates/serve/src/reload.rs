//! Validated checkpoint hot-reload.
//!
//! A long-running server must be able to pick up a freshly trained
//! checkpoint without dropping connections — and must *never* swap in a
//! bad one. The reload path therefore validates the candidate completely
//! before the running generation is touched:
//!
//! 1. **decode + CRC** — `moss::load_checkpoint_file_validated` rejects
//!    bad magic, truncation, CRC-footer mismatches, and non-finite
//!    weights (a diverged training run with an intact footer);
//! 2. **shape match** — every parameter must have the shape the
//!    checkpoint's own header config gives it (`NetlistEmbedder::new`
//!    rejects a mismatch as `InvalidData` before binding anything), and the
//!    new embedder's alignment dimension must equal the serving
//!    generation's, so clients never see the embedding width change
//!    mid-stream;
//! 3. **golden forward** — one fixed netlist is embedded end-to-end and
//!    the output checked finite and correctly sized, proving the weights
//!    actually drive the model (a checkpoint missing parameters binds
//!    fresh random ones; the dim/finite checks catch outright garbage).
//!
//! Only after all three pass is the new [`Generation`] swapped in (an
//! `Arc` swap under a short write lock) and the embedding cache
//! invalidated — atomically, so a cache hit can never serve bytes from a
//! generation other than the one resident at lookup time. On *any*
//! validation failure the old embedder keeps serving, untouched.
//!
//! In-flight requests hold an `Arc` to the generation they were prepared
//! on and complete there; the swap affects new requests only.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use moss::NetlistEmbedder;
use moss_netlist::parse_verilog;

use crate::protocol::ErrorCode;
use crate::server::{Generation, Shared};

/// The golden validation input: tiny but exercises the full forward path
/// (combinational gates, a DFF, a reconvergent output).
pub(crate) const GOLDEN_NETLIST: &str = "module moss_reload_golden (input a, input b, output y);
  wire n1; wire n2; wire n3;
  NAND2_X1 u1 (.A(a), .B(b), .Y(n1));
  DFF_X1 r0 (.D(n1), .Q(n2));
  XOR2_X1 u2 (.A(n2), .B(a), .Y(n3));
  assign y = n3;
endmodule";

/// Loads `path` and proves it serveable: CRC + finite weights, alignment
/// width equal to `expect_dim` (when given), and one finite golden
/// forward. Returns the ready embedder — nothing global is touched.
pub(crate) fn validate_checkpoint(
    path: &Path,
    expect_dim: Option<usize>,
) -> Result<NetlistEmbedder, String> {
    let _sp = moss_obs::span("serve.reload.validate");
    let (config, store) = moss::load_checkpoint_file_validated(path).map_err(|e| e.to_string())?;
    let embedder = NetlistEmbedder::new(config, store).map_err(|e| e.to_string())?;
    if let Some(dim) = expect_dim {
        if embedder.embedding_dim() != dim {
            return Err(format!(
                "embedding dimension mismatch: serving {dim}, checkpoint yields {}",
                embedder.embedding_dim()
            ));
        }
    }
    let golden = parse_verilog(GOLDEN_NETLIST).expect("golden netlist parses");
    let emb = embedder
        .embed(&golden)
        .map_err(|e| format!("golden forward failed: {e}"))?;
    if emb.len() != embedder.embedding_dim() {
        return Err(format!(
            "golden forward returned {} values, expected {}",
            emb.len(),
            embedder.embedding_dim()
        ));
    }
    if let Some(bad) = emb.iter().find(|v| !v.is_finite()) {
        return Err(format!("golden forward produced a non-finite value {bad}"));
    }
    Ok(embedder)
}

/// Validates `path` and, on success, swaps it in as the next generation
/// (cache invalidated atomically with the swap). On failure the previous
/// generation keeps serving and the error says so.
///
/// Reloads are serialized by `shared.reload_lock`; validation (the
/// expensive part) runs outside the generation write lock, so requests
/// keep flowing while a candidate is checked.
pub(crate) fn reload(shared: &Shared, path: &Path) -> Result<u64, (ErrorCode, String)> {
    let _sp = moss_obs::span("serve.reload");
    let _serial = shared.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    let expect_dim = shared.generation().embedder.embedding_dim();
    match validate_checkpoint(path, Some(expect_dim)) {
        Ok(embedder) => {
            let generation = {
                let mut current = shared.current.write().unwrap_or_else(|e| e.into_inner());
                let generation = current.generation + 1;
                // Invalidate while holding the generation write lock:
                // lookups (which take the read lock first) can never see
                // a new generation paired with old cache contents or
                // vice versa.
                shared.lock_cache().invalidate(generation);
                *current = Arc::new(Generation {
                    embedder,
                    generation,
                });
                generation
            };
            shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
            moss_obs::counter("serve.reload", 1);
            eprintln!(
                "moss-serve: reloaded {} as generation {generation}",
                path.display()
            );
            Ok(generation)
        }
        Err(msg) => {
            shared.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
            moss_obs::counter("serve.reload_failed", 1);
            eprintln!(
                "moss-serve: reload of {} rejected: {msg} (previous generation still serving)",
                path.display()
            );
            Err((
                ErrorCode::Reload,
                format!("{msg} (previous generation still serving)"),
            ))
        }
    }
}
