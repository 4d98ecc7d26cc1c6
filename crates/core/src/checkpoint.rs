//! Model checkpointing: persist a trained MOSS pipeline (configuration +
//! every parameter, encoder included) and restore it bit-exactly.
//!
//! The parameter payload reuses `moss-tensor`'s binary format; a small
//! fixed-layout header carries the [`MossConfig`] so a restored model is
//! reconstructed with the same architecture and variant.
//!
//! ## Format (`MOSSCKP2`)
//!
//! ```text
//! magic "MOSSCKP2"
//! config header (7×u64 + f32)
//! parameter payload (MOSSPAR1)
//! trainer flag u8 (0 = none, 1 = trainer state follows)
//! [trainer state: schedule, PRNG stream, loss-balancer EMA,
//!  epoch progress, loss histories, optimizer moments by name]
//! crc32 (IEEE) of every preceding byte, little-endian u32
//! ```
//!
//! The CRC footer turns silent corruption (torn writes survived by the
//! filesystem, bit rot) into a clean `InvalidData` error; the version bump
//! rejects v1 (`MOSSCKP1`) blobs, which had no integrity check. Every
//! truncation is likewise reported as `InvalidData`, never a panic.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use moss_store::crc32_update;
use moss_tensor::{load_params, save_params, ParamStore};

use crate::model::{MossConfig, MossVariant};
use crate::trainer::Trainer;

const MAGIC: &[u8; 8] = b"MOSSCKP2";
const V1_MAGIC: &[u8; 8] = b"MOSSCKP1";

// ---- CRC32 footer ----------------------------------------------------------

/// A writer that maintains a running CRC32 of everything written.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that maintains a running CRC32 of everything read.
struct CrcReader<R: Read> {
    inner: R,
    crc: u32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A truncated file surfaces as `UnexpectedEof` from `read_exact`; callers
/// are promised `InvalidData` for every corrupt checkpoint, so fold it in.
fn eof_as_invalid(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        invalid("truncated checkpoint")
    } else {
        e
    }
}

// ---- save ----------------------------------------------------------------

/// Writes a checkpoint of `config` + `store` to `writer`.
///
/// # Errors
///
/// Propagates writer I/O errors.
///
/// # Examples
///
/// ```
/// use moss::{save_checkpoint, load_checkpoint, MossConfig, MossModel, MossVariant};
/// use moss_tensor::ParamStore;
///
/// let mut store = ParamStore::new();
/// let config = MossConfig::small(16, MossVariant::Full);
/// let _model = MossModel::new(config, &mut store, 7);
///
/// let mut buf = Vec::new();
/// save_checkpoint(&mut buf, &config, &store)?;
/// let (restored_config, restored_store) = load_checkpoint(buf.as_slice())?;
/// assert_eq!(restored_config, config);
/// assert_eq!(restored_store.len(), store.len());
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn save_checkpoint<W: Write>(
    writer: W,
    config: &MossConfig,
    store: &ParamStore,
) -> io::Result<()> {
    save_checkpoint_impl(writer, config, store, None)
}

/// Writes a checkpoint that additionally carries a mid-run [`Trainer`]
/// state, so training can resume bit-identically after a crash.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn save_training_checkpoint<W: Write>(
    writer: W,
    config: &MossConfig,
    store: &ParamStore,
    trainer: &Trainer,
) -> io::Result<()> {
    save_checkpoint_impl(writer, config, store, Some(trainer))
}

fn save_checkpoint_impl<W: Write>(
    writer: W,
    config: &MossConfig,
    store: &ParamStore,
    trainer: Option<&Trainer>,
) -> io::Result<()> {
    let mut w = CrcWriter {
        inner: writer,
        crc: 0,
    };
    w.write_all(MAGIC)?;
    for v in [
        config.d_llm as u64,
        config.d_hidden as u64,
        config.iterations as u64,
        config.aggregators as u64,
        config.d_align as u64,
        variant_tag(config.variant),
        config.two_phase as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    w.write_all(&config.cluster_eps.to_le_bytes())?;
    save_params(&mut w, store)?;
    match trainer {
        Some(t) => {
            w.write_all(&[1u8])?;
            t.write_state(&mut w, store)?;
        }
        None => w.write_all(&[0u8])?,
    }
    w.inner.write_all(&w.crc.to_le_bytes())
}

// ---- load ----------------------------------------------------------------

/// Reads a checkpoint written by [`save_checkpoint`] (a trailing trainer
/// section, if present, is validated and discarded).
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic (including v1 `MOSSCKP1` blobs),
/// unknown variant tag, truncation, CRC mismatch, or corrupted payload.
pub fn load_checkpoint<R: Read>(reader: R) -> io::Result<(MossConfig, ParamStore)> {
    let (config, store, _) = load_checkpoint_impl(reader)?;
    Ok((config, store))
}

/// Reads a training checkpoint written by [`save_training_checkpoint`],
/// restoring the mid-run trainer alongside the model.
///
/// # Errors
///
/// As [`load_checkpoint`]; additionally `InvalidData` if the checkpoint
/// holds no trainer state.
pub fn load_training_checkpoint<R: Read>(
    reader: R,
) -> io::Result<(MossConfig, ParamStore, Trainer)> {
    let (config, store, trainer) = load_checkpoint_impl(reader)?;
    let trainer = trainer.ok_or_else(|| invalid("checkpoint holds no trainer state"))?;
    Ok((config, store, trainer))
}

fn load_checkpoint_impl<R: Read>(
    reader: R,
) -> io::Result<(MossConfig, ParamStore, Option<Trainer>)> {
    let mut r = CrcReader {
        inner: reader,
        crc: 0,
    };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(eof_as_invalid)?;
    if &magic == V1_MAGIC {
        return Err(invalid(
            "unsupported checkpoint version MOSSCKP1 (re-save with this release)",
        ));
    }
    if &magic != MAGIC {
        return Err(invalid("not a moss checkpoint"));
    }
    let mut fields = [0u64; 7];
    for f in &mut fields {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).map_err(eof_as_invalid)?;
        *f = u64::from_le_bytes(b);
    }
    let mut eps = [0u8; 4];
    r.read_exact(&mut eps).map_err(eof_as_invalid)?;
    let config = MossConfig {
        d_llm: fields[0] as usize,
        d_hidden: fields[1] as usize,
        iterations: fields[2] as usize,
        aggregators: fields[3] as usize,
        d_align: fields[4] as usize,
        variant: variant_from_tag(fields[5])?,
        two_phase: fields[6] != 0,
        cluster_eps: f32::from_le_bytes(eps),
    };
    let store = load_params(&mut r).map_err(eof_as_invalid)?;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag).map_err(eof_as_invalid)?;
    let trainer = match flag[0] {
        0 => None,
        1 => Some(Trainer::read_state(&mut r, &store).map_err(eof_as_invalid)?),
        _ => return Err(invalid("corrupt trainer flag")),
    };
    let computed = r.crc;
    let mut footer = [0u8; 4];
    r.inner.read_exact(&mut footer).map_err(eof_as_invalid)?;
    if u32::from_le_bytes(footer) != computed {
        return Err(invalid("checkpoint crc mismatch"));
    }
    Ok((config, store, trainer))
}

// ---- file variants -------------------------------------------------------

/// Writes a checkpoint to `path` crash-safely: the bytes go to a sibling
/// temporary file (`<path>.tmp`), are flushed and synced, and the
/// temporary is atomically renamed over `path`. An interrupted save can
/// therefore never leave a truncated blob where a valid checkpoint used to
/// be — readers see either the old file or the new one.
///
/// # Errors
///
/// Propagates filesystem errors; on failure the temporary file is removed
/// (best effort) and any pre-existing checkpoint at `path` is untouched.
/// The `io` fault site (`MOSS_FAULTS=io:<rate>`) injects failures here.
pub fn save_checkpoint_file<P: AsRef<Path>>(
    path: P,
    config: &MossConfig,
    store: &ParamStore,
) -> io::Result<()> {
    save_file_impl(path.as_ref(), config, store, None)
}

/// [`save_checkpoint_file`] carrying a mid-run [`Trainer`] (the autosave
/// path).
///
/// # Errors
///
/// As [`save_checkpoint_file`].
pub fn save_training_checkpoint_file<P: AsRef<Path>>(
    path: P,
    config: &MossConfig,
    store: &ParamStore,
    trainer: &Trainer,
) -> io::Result<()> {
    save_file_impl(path.as_ref(), config, store, Some(trainer))
}

fn save_file_impl(
    path: &Path,
    config: &MossConfig,
    store: &ParamStore,
    trainer: Option<&Trainer>,
) -> io::Result<()> {
    if io_fault(path) {
        return Err(io::Error::other("injected fault at site 'io'"));
    }
    let tmp = tmp_path(path);
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let mut writer = io::BufWriter::new(file);
        save_checkpoint_impl(&mut writer, config, store, trainer)?;
        writer.flush()?;
        // Push the payload to disk before the rename publishes it.
        writer.get_ref().sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads a checkpoint written by [`save_checkpoint_file`] (or any
/// [`save_checkpoint`] output on disk).
///
/// # Errors
///
/// Propagates open errors; truncated or corrupt files are rejected with
/// `InvalidData`. The `io` fault site injects failures here.
pub fn load_checkpoint_file<P: AsRef<Path>>(path: P) -> io::Result<(MossConfig, ParamStore)> {
    let path = path.as_ref();
    if io_fault(path) {
        return Err(io::Error::other("injected fault at site 'io'"));
    }
    let file = fs::File::open(path)?;
    load_checkpoint(io::BufReader::new(file))
}

/// Rejects a parameter store carrying any non-finite scalar. A checkpoint
/// whose CRC verifies can still hold NaN/Inf weights — a training run that
/// diverged before saving, or a tool that wrote garbage with a correct
/// footer — and serving such a model produces confidently wrong
/// embeddings rather than a crash. Callers that are about to *serve* a
/// checkpoint should gate on this.
///
/// # Errors
///
/// `InvalidData` naming the first offending parameter.
pub fn validate_params_finite(store: &ParamStore) -> io::Result<()> {
    for (_, name, tensor) in store.iter() {
        if let Some(bad) = tensor.data().iter().find(|v| !v.is_finite()) {
            return Err(invalid(&format!(
                "parameter '{name}' holds a non-finite value {bad}"
            )));
        }
    }
    Ok(())
}

/// [`load_checkpoint_file`] plus weight validation: the CRC footer and
/// structural decode run as usual, then every parameter is checked finite
/// via [`validate_params_finite`]. This is the loader the serving layer's
/// hot-reload path uses — a checkpoint that passes here is safe to swap
/// into a live server.
///
/// # Errors
///
/// As [`load_checkpoint_file`], plus `InvalidData` for non-finite weights.
pub fn load_checkpoint_file_validated<P: AsRef<Path>>(
    path: P,
) -> io::Result<(MossConfig, ParamStore)> {
    let (config, store) = load_checkpoint_file(path)?;
    validate_params_finite(&store)?;
    Ok((config, store))
}

/// Reads a training checkpoint written by [`save_training_checkpoint_file`].
///
/// # Errors
///
/// As [`load_checkpoint_file`]; additionally `InvalidData` if the file
/// holds no trainer state.
pub fn load_training_checkpoint_file<P: AsRef<Path>>(
    path: P,
) -> io::Result<(MossConfig, ParamStore, Trainer)> {
    let path = path.as_ref();
    if io_fault(path) {
        return Err(io::Error::other("injected fault at site 'io'"));
    }
    let file = fs::File::open(path)?;
    load_training_checkpoint(io::BufReader::new(file))
}

fn io_fault(path: &Path) -> bool {
    moss_faults::fire(
        moss_faults::Site::Io,
        moss_faults::key(&path.to_string_lossy()),
    )
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

fn variant_tag(v: MossVariant) -> u64 {
    match v {
        MossVariant::WithoutFeatureEnhancement => 0,
        MossVariant::WithoutAdaptiveAggregator => 1,
        MossVariant::WithoutAlignment => 2,
        MossVariant::Full => 3,
    }
}

fn variant_from_tag(tag: u64) -> io::Result<MossVariant> {
    Ok(match tag {
        0 => MossVariant::WithoutFeatureEnhancement,
        1 => MossVariant::WithoutAdaptiveAggregator,
        2 => MossVariant::WithoutAlignment,
        3 => MossVariant::Full,
        _ => {
            return Err(invalid("unknown variant tag"));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MossModel, TaskModel};
    use crate::sample::{CircuitSample, SampleOptions};
    use crate::trainer::TrainConfig;
    use moss_llm::{EncoderConfig, TextEncoder};
    use moss_netlist::CellLibrary;

    #[test]
    fn round_trip_preserves_config_and_params() {
        let mut store = ParamStore::new();
        let config = MossConfig {
            iterations: 3,
            two_phase: false,
            ..MossConfig::small(16, MossVariant::WithoutAlignment)
        };
        let _enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        let _model = MossModel::new(config, &mut store, 2);

        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &config, &store).unwrap();
        let (rc, rs) = load_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(rc, config);
        assert_eq!(rs.scalar_count(), store.scalar_count());
    }

    #[test]
    fn restored_model_predicts_identically() {
        let m = moss_rtl::parse(
            "module t(input clk, input d, output q);
               reg r0; always @(posedge clk) r0 <= d ^ r0; assign q = r0;
             endmodule",
        )
        .unwrap();
        let lib = CellLibrary::default();
        let sample = CircuitSample::build(
            &m,
            &lib,
            &SampleOptions {
                sim_cycles: 64,
                ..SampleOptions::default()
            },
        )
        .unwrap();
        let mut store = ParamStore::new();
        let config = MossConfig::small(16, MossVariant::Full);
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        let model = MossModel::new(config, &mut store, 2);
        let prep = model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap();
        let before = model.predict(&store, &prep);

        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &config, &store).unwrap();
        let (rc, mut rs) = load_checkpoint(buf.as_slice()).unwrap();
        // Rebuilding against a restored store binds to the existing
        // parameters by name (get_or_add), so the trained values survive
        // and the seed is irrelevant.
        let restored = MossModel::new(rc, &mut rs, 0xdead);
        let after = restored.predict(&rs, &prep);
        assert_eq!(before.toggle, after.toggle);
        assert_eq!(before.arrival_ns, after.arrival_ns);
        assert_eq!(before.power_nw, after.power_nw);
    }

    fn temp_ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("moss_ckpt_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let path = temp_ckpt_path("roundtrip");
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _model = MossModel::new(config, &mut store, 3);
        save_checkpoint_file(&path, &config, &store).unwrap();
        // No temporary left behind after a successful save.
        assert!(!tmp_path(&path).exists());
        let (rc, rs) = load_checkpoint_file(&path).unwrap();
        assert_eq!(rc, config);
        assert_eq!(rs.scalar_count(), store.scalar_count());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_save_leaves_original_checkpoint_intact() {
        let path = temp_ckpt_path("interrupted");
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _model = MossModel::new(config, &mut store, 5);
        save_checkpoint_file(&path, &config, &store).unwrap();

        // Simulate a crash mid-save: a truncated payload sitting in the
        // temporary file, never renamed. The published checkpoint must
        // still load, and the truncated blob must be rejected on its own.
        let mut full = Vec::new();
        save_checkpoint(&mut full, &config, &store).unwrap();
        full.truncate(full.len() / 3);
        std::fs::write(tmp_path(&path), &full).unwrap();

        let (rc, rs) = load_checkpoint_file(&path).unwrap();
        assert_eq!(rc, config);
        assert_eq!(rs.scalar_count(), store.scalar_count());
        assert!(load_checkpoint_file(tmp_path(&path)).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn failed_save_cleans_up_and_preserves_existing_file() {
        let path = temp_ckpt_path("failed");
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _model = MossModel::new(config, &mut store, 7);
        save_checkpoint_file(&path, &config, &store).unwrap();

        // Saving to a path whose parent directory does not exist fails…
        let bad = std::env::temp_dir()
            .join("moss_ckpt_no_such_dir")
            .join("x.bin");
        assert!(save_checkpoint_file(&bad, &config, &store).is_err());
        // …and the original checkpoint is untouched.
        assert!(load_checkpoint_file(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    fn small_checkpoint() -> (MossConfig, ParamStore, Vec<u8>) {
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _ = MossModel::new(config, &mut store, 1);
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &config, &store).unwrap();
        (config, store, buf)
    }

    fn expect_invalid(result: io::Result<(MossConfig, ParamStore)>, what: &str) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(_) => panic!("{what}: corrupt checkpoint loaded"),
        }
    }

    #[test]
    fn corrupt_checkpoints_are_invalid_data_not_panics() {
        let (_, _, buf) = small_checkpoint();

        // Zero-length file.
        expect_invalid(load_checkpoint(&b""[..]), "zero-length");
        // Bad magic.
        expect_invalid(load_checkpoint(&b"BADMAGIC"[..]), "bad magic");
        // Old format version.
        let mut v1 = buf.clone();
        v1[..8].copy_from_slice(b"MOSSCKP1");
        expect_invalid(load_checkpoint(v1.as_slice()), "v1 magic");
        // Truncations at every interesting boundary.
        for cut in [4, 8, 40, buf.len() / 2, buf.len() - 5, buf.len() - 1] {
            let mut t = buf.clone();
            t.truncate(cut);
            expect_invalid(load_checkpoint(t.as_slice()), "truncated");
        }
        // A flipped byte in the CRC footer.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        expect_invalid(load_checkpoint(flipped.as_slice()), "flipped crc");
        // A flipped byte in the payload (caught by the CRC).
        let mut payload = buf.clone();
        let mid = payload.len() / 2;
        payload[mid] ^= 0x01;
        expect_invalid(load_checkpoint(payload.as_slice()), "flipped payload");
        // The pristine buffer still loads.
        assert!(load_checkpoint(buf.as_slice()).is_ok());
    }

    #[test]
    fn validated_load_rejects_nan_weights_but_accepts_clean_ones() {
        let path = temp_ckpt_path("nanweights");
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _ = MossModel::new(config, &mut store, 1);

        // A pristine checkpoint passes the validated loader.
        save_checkpoint_file(&path, &config, &store).unwrap();
        assert!(load_checkpoint_file_validated(&path).is_ok());

        // Poison one scalar of one parameter; the CRC footer is recomputed
        // at save time, so only the finite-weight gate can catch this.
        let (id, name, rows, cols, mut data) = {
            let (id, name, tensor) = store.iter().next().expect("at least one parameter");
            let (rows, cols) = tensor.shape();
            (id, name.to_string(), rows, cols, tensor.data().to_vec())
        };
        let mid = data.len() / 2;
        data[mid] = f32::NAN;
        store.set(id, moss_tensor::Tensor::from_vec(data, rows, cols));
        save_checkpoint_file(&path, &config, &store).unwrap();

        // The plain loader still accepts it (CRC is intact)…
        assert!(load_checkpoint_file(&path).is_ok());
        // …but the validated loader names the offending parameter.
        let e = load_checkpoint_file_validated(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string().contains(&name),
            "error must name the parameter: {e}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validated_load_rejects_corrupt_and_truncated_files() {
        let path = temp_ckpt_path("validated_corrupt");
        let (_, _, buf) = small_checkpoint();

        // Truncated file.
        std::fs::write(&path, &buf[..buf.len() / 2]).unwrap();
        let e = load_checkpoint_file_validated(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);

        // Flipped payload byte (CRC mismatch).
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let e = load_checkpoint_file_validated(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);

        // The pristine bytes pass.
        std::fs::write(&path, &buf).unwrap();
        assert!(load_checkpoint_file_validated(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn training_checkpoint_round_trips_trainer_state() {
        let mut store = ParamStore::new();
        let config = MossConfig::small(8, MossVariant::Full);
        let _ = MossModel::new(config, &mut store, 1);
        let trainer = Trainer::new(TrainConfig {
            pretrain_epochs: 7,
            seed: 0xfeed,
            ..TrainConfig::default()
        });

        let mut buf = Vec::new();
        save_training_checkpoint(&mut buf, &config, &store, &trainer).unwrap();
        let (rc, rs, rt) = load_training_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(rc, config);
        assert_eq!(rs.scalar_count(), store.scalar_count());
        assert_eq!(rt.config(), trainer.config());
        assert_eq!(rt.pretrain_epochs_done(), 0);

        // A model-only checkpoint refuses to yield a trainer…
        let mut plain = Vec::new();
        save_checkpoint(&mut plain, &config, &store).unwrap();
        let e = load_training_checkpoint(plain.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // …while a training checkpoint still loads as a plain one.
        assert!(load_checkpoint(buf.as_slice()).is_ok());
    }
}
