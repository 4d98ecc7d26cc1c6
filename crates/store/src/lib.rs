//! # moss-store
//!
//! A sharded, content-addressed on-disk label store. MOSS pretrains on
//! tens of thousands of circuits whose ground-truth labels (toggle rates,
//! arrival times, power) cost minutes of simulation and analysis per
//! corpus — and are pure functions of the circuit plus the labeling
//! settings. This crate persists each label record under a key derived
//! from `moss_netlist::canonical_hash` so re-runs pay only parse + hash on
//! hits, and a killed labeling run resumes from whatever it already wrote.
//!
//! ## Layout
//!
//! ```text
//! <root>/shard00/<key:016x>.lbl
//! <root>/shard01/…
//! …          (SHARD_COUNT = 64 shards, shard = key % 64)
//! ```
//!
//! One record per file keeps writes independent: records are written to a
//! per-writer-unique sibling scratch file and atomically renamed into
//! place, so a `SIGKILL` at any instant leaves either no record or a
//! complete one — never a torn file that poisons later runs — and
//! concurrent publishes of the same key cannot interleave on one scratch
//! path.
//!
//! ## Record format (`MOSSLBL1`)
//!
//! ```text
//! magic "MOSSLBL1"
//! schema version u32
//! n_nodes u32, n_dffs u32
//! toggle f32×n, probability f32×n, dynamic_nw f32×n
//! arrival (rank u32, ns f32)×n_dffs
//! total_power_nw f64, leakage_nw f64
//! crc32 (IEEE) of every preceding byte, little-endian u32
//! ```
//!
//! All integers and floats are little-endian. The CRC footer turns silent
//! corruption (bit rot, short writes) into a detected miss: [`LabelStore::load`]
//! evicts the damaged file and returns `None`, and the caller recomputes
//! and rewrites — corrupt records are never served. The `store` fault site
//! (`MOSS_FAULTS=store:<rate>`) rehearses exactly this by corrupting
//! records as they are written.
//!
//! ## Invalidation
//!
//! [`store_key`] folds the circuit's canonical hash together with the
//! label-schema version, a hash of the DFF reset (initial) values the
//! simulation is seeded from, and every labeling setting (simulation
//! cycles, stimulus seed, clock frequency). Changing any of them changes the key,
//! so stale records are simply never looked up again; they can be garbage
//! collected by deleting the store directory.
//!
//! Per-store hit/miss/corrupt/byte counters are kept on [`LabelStore`] and
//! mirrored into `moss-obs` (`store.hit`, `store.miss`, `store.corrupt`,
//! `store.evict`, `store.write`, `store.bytes_read`, `store.bytes_written`).
//! [`LabelStore::load`] and [`LabelStore::store`] each time themselves in a
//! `moss-obs` span, `store.load` and `store.write`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the label record schema. Part of [`store_key`], so bumping
/// it invalidates every existing record without touching the files.
pub const SCHEMA_VERSION: u32 = 1;

/// Number of shard directories (`shard00` … `shard3f`).
pub const SHARD_COUNT: u64 = 64;

const MAGIC: &[u8; 8] = b"MOSSLBL1";

/// Decode refuses per-node vectors longer than this: a corrupt length
/// field must not allocate gigabytes before the CRC check runs.
const MAX_LEN: u32 = 1 << 24;

// ---- CRC32 (IEEE 802.3, reflected — the MOSSCKP2 footer polynomial) -----

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Extends `crc`, the CRC32 (IEEE 802.3, reflected) of some bytes, over
/// `bytes`: `crc32_update(0, b)` is the CRC32 of `b` alone, and
/// `crc32_update(crc32_update(0, a), b)` that of `a` followed by `b`. The
/// label records' and the MOSSCKP2 checkpoints' footers use it.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- keys ----------------------------------------------------------------

/// Derives the store key for one labeling job: the circuit's canonical
/// hash folded (FNV-1a) with the schema version and every setting the
/// labels depend on. Two jobs share a key exactly when their labels are
/// guaranteed bit-identical.
///
/// `reset_hash` covers the DFF reset (initial) values the simulation is
/// seeded from — they are *not* part of the netlist, so canonically
/// identical netlists with different register init values must still get
/// distinct keys (`moss_core::canonical_reset_hash` derives it in
/// canonical rank order so it is as declaration-order-invariant as
/// `circuit_hash`).
pub fn store_key(
    circuit_hash: u64,
    reset_hash: u64,
    sim_cycles: u64,
    stimulus_seed: u64,
    clock_mhz: f64,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(SCHEMA_VERSION));
    eat(circuit_hash);
    eat(reset_hash);
    eat(sim_cycles);
    eat(stimulus_seed);
    eat(clock_mhz.to_bits());
    h
}

// ---- the record ----------------------------------------------------------

/// One circuit's persisted ground-truth labels, in canonical (name-sorted)
/// node order so the record is as declaration-order-invariant as the key:
/// per-node vectors are indexed by the node's rank among all node names
/// sorted lexicographically, and arrival entries carry that rank.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabelRecord {
    /// Per-node toggle rate, canonical order.
    pub toggle: Vec<f32>,
    /// Per-node signal probability, canonical order.
    pub probability: Vec<f32>,
    /// Per-node dynamic power in nanowatts, canonical order.
    pub dynamic_nw: Vec<f32>,
    /// Per-DFF `(canonical rank, arrival ns)`, sorted by rank.
    pub arrival_ns: Vec<(u32, f32)>,
    /// Total circuit power (dynamic + leakage), nanowatts.
    pub total_power_nw: f64,
    /// Total leakage, nanowatts.
    pub leakage_nw: f64,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl LabelRecord {
    /// Serializes the record, CRC32 footer included.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.toggle.len();
        debug_assert_eq!(n, self.probability.len());
        debug_assert_eq!(n, self.dynamic_nw.len());
        let mut out = Vec::with_capacity(8 + 12 + n * 12 + self.arrival_ns.len() * 8 + 20);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(self.arrival_ns.len() as u32).to_le_bytes());
        for v in self
            .toggle
            .iter()
            .chain(&self.probability)
            .chain(&self.dynamic_nw)
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &(rank, ns) in &self.arrival_ns {
            out.extend_from_slice(&rank.to_le_bytes());
            out.extend_from_slice(&ns.to_le_bytes());
        }
        out.extend_from_slice(&self.total_power_nw.to_le_bytes());
        out.extend_from_slice(&self.leakage_nw.to_le_bytes());
        let crc = crc32_update(0, &out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a record written by [`LabelRecord::encode`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on bad magic, schema mismatch, truncation, oversized
    /// length fields, trailing garbage, or a CRC mismatch — never a panic.
    pub fn decode(bytes: &[u8]) -> io::Result<LabelRecord> {
        if bytes.len() < 4 {
            return Err(invalid("truncated label record"));
        }
        let (payload, footer) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
        if crc32_update(0, payload) != want {
            return Err(invalid("label record crc mismatch"));
        }
        let mut r = Cursor {
            buf: payload,
            pos: 0,
        };
        if r.take(8)? != MAGIC {
            return Err(invalid("not a moss label record"));
        }
        if r.u32()? != SCHEMA_VERSION {
            return Err(invalid("label record schema version mismatch"));
        }
        let n = r.u32()?;
        let n_dffs = r.u32()?;
        if n > MAX_LEN || n_dffs > MAX_LEN {
            return Err(invalid("label record length field out of range"));
        }
        let mut f32s =
            |count: u32| -> io::Result<Vec<f32>> { (0..count).map(|_| r.f32()).collect() };
        let toggle = f32s(n)?;
        let probability = f32s(n)?;
        let dynamic_nw = f32s(n)?;
        let arrival_ns = (0..n_dffs)
            .map(|_| Ok((r.u32()?, r.f32()?)))
            .collect::<io::Result<Vec<_>>>()?;
        let total_power_nw = r.f64()?;
        let leakage_nw = r.f64()?;
        if r.pos != payload.len() {
            return Err(invalid("label record has trailing bytes"));
        }
        Ok(LabelRecord {
            toggle,
            probability,
            dynamic_nw,
            arrival_ns,
            total_power_nw,
            leakage_nw,
        })
    }

    /// FNV-1a digest of the encoded record — a stable per-circuit label
    /// fingerprint used by the bit-identity gates (cold run == warm run ==
    /// resumed run).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.encode() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Bounds-checked little-endian reads over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid("truncated label record"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

// ---- the store -----------------------------------------------------------

/// Per-store monotonic counters (mirrored into `moss-obs`).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Records served from disk.
    pub hits: AtomicU64,
    /// Lookups that found no (valid) record.
    pub misses: AtomicU64,
    /// Records rejected by the CRC/format check and evicted.
    pub corrupt: AtomicU64,
    /// Records written.
    pub writes: AtomicU64,
    /// Bytes read from valid records.
    pub bytes_read: AtomicU64,
    /// Bytes written (tmp + rename publishes).
    pub bytes_written: AtomicU64,
}

impl StoreStats {
    fn bump(counter: &AtomicU64, obs: &'static str, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
        moss_obs::counter(obs, delta);
    }
}

/// A sharded label store rooted at one directory. Concurrent use from the
/// labeling fan-out is safe: lookups and publishes touch disjoint files
/// per key, and publishes are atomic renames.
#[derive(Debug)]
pub struct LabelStore {
    root: PathBuf,
    stats: StoreStats,
}

impl LabelStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open<P: AsRef<Path>>(root: P) -> io::Result<LabelStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(LabelStore {
            root,
            stats: StoreStats::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Where `key`'s record lives (whether or not it exists yet).
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.root
            .join(format!("shard{:02x}", key % SHARD_COUNT))
            .join(format!("{key:016x}.lbl"))
    }

    /// Loads the record stored under `key`. Returns `None` on a miss *or*
    /// on a corrupt record — a failed CRC/format check evicts the damaged
    /// file (counted under `store.corrupt` / `store.evict`) so the caller
    /// recomputes and rewrites; poisoned labels are never served.
    pub fn load(&self, key: u64) -> Option<LabelRecord> {
        let _obs = moss_obs::span("store.load");
        let path = self.path_of(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                StoreStats::bump(&self.stats.misses, "store.miss", 1);
                return None;
            }
        };
        match LabelRecord::decode(&bytes) {
            Ok(rec) => {
                StoreStats::bump(&self.stats.hits, "store.hit", 1);
                StoreStats::bump(
                    &self.stats.bytes_read,
                    "store.bytes_read",
                    bytes.len() as u64,
                );
                Some(rec)
            }
            Err(_) => {
                StoreStats::bump(&self.stats.corrupt, "store.corrupt", 1);
                moss_obs::counter("store.evict", 1);
                let _ = fs::remove_file(&path);
                StoreStats::bump(&self.stats.misses, "store.miss", 1);
                None
            }
        }
    }

    /// Publishes `record` under `key` crash-safely: bytes go to a sibling
    /// temporary file, then an atomic rename — a kill at any instant leaves
    /// either the old state or a complete record. The temporary name is
    /// unique per writer (pid + counter), so concurrent publishes of the
    /// same key never interleave on one scratch file; each rename lands a
    /// complete record. A kill can strand a scratch file, but unique names
    /// mean it is never written again — inert garbage, not a hazard.
    ///
    /// The `store` fault site (`MOSS_FAULTS=store:<rate>`) corrupts the
    /// bytes on their way out (truncation or a bit flip, by key parity),
    /// rehearsing bit rot and short writes that the filesystem survived;
    /// the next [`LabelStore::load`] must detect and evict them.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure the temporary file is
    /// removed (best effort) and any existing record is untouched.
    pub fn store(&self, key: u64, record: &LabelRecord) -> io::Result<()> {
        let _obs = moss_obs::span("store.write");
        let mut bytes = record.encode();
        if moss_faults::fire(moss_faults::Site::Store, key) {
            // Corrupt deterministically by key parity: even keys get a
            // short write, odd keys a flipped payload bit.
            if key.is_multiple_of(2) {
                bytes.truncate(bytes.len() / 2);
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
        }
        let path = self.path_of(key);
        if let Some(shard) = path.parent() {
            fs::create_dir_all(shard)?;
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, &path));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
            return result;
        }
        StoreStats::bump(&self.stats.writes, "store.write", 1);
        StoreStats::bump(
            &self.stats.bytes_written,
            "store.bytes_written",
            bytes.len() as u64,
        );
        Ok(())
    }

    /// Number of records on disk (walks the shard directories; tooling
    /// and tests only — not a hot-path call).
    pub fn record_count(&self) -> usize {
        let mut n = 0;
        if let Ok(shards) = fs::read_dir(&self.root) {
            for shard in shards.flatten() {
                if let Ok(files) = fs::read_dir(shard.path()) {
                    n += files
                        .flatten()
                        .filter(|f| f.path().extension().is_some_and(|e| e == "lbl"))
                        .count();
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> LabelRecord {
        LabelRecord {
            toggle: vec![0.5, 0.25, 0.0, 1.0],
            probability: vec![0.5, 0.75, 0.125, 0.5],
            dynamic_nw: vec![12.5, 0.0, 3.25, 8.0],
            arrival_ns: vec![(1, 0.35), (3, 0.8)],
            total_power_nw: 123.456,
            leakage_nw: 23.456,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value_and_chains() {
        assert_eq!(crc32_update(0, b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32_update(crc32_update(0, b"1234"), b"56789"),
            0xcbf4_3926
        );
    }

    fn temp_store(tag: &str) -> LabelStore {
        let dir = std::env::temp_dir().join(format!("moss_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        LabelStore::open(&dir).unwrap()
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let rec = sample_record();
        let decoded = LabelRecord::decode(&rec.encode()).unwrap();
        assert_eq!(rec, decoded);
        assert_eq!(rec.digest(), decoded.digest());
        // Empty records round-trip too.
        let empty = LabelRecord::default();
        assert_eq!(empty, LabelRecord::decode(&empty.encode()).unwrap());
    }

    #[test]
    fn every_truncation_and_bit_flip_is_detected() {
        let bytes = sample_record().encode();
        for cut in [
            0,
            3,
            8,
            11,
            19,
            bytes.len() / 2,
            bytes.len() - 5,
            bytes.len() - 1,
        ] {
            let mut t = bytes.clone();
            t.truncate(cut);
            assert!(
                LabelRecord::decode(&t).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut f = bytes.clone();
            f[pos] ^= 0x01;
            assert!(
                LabelRecord::decode(&f).is_err(),
                "bit flip at {pos} accepted"
            );
        }
        // Trailing garbage after a valid record is rejected (the CRC no
        // longer matches the full payload).
        let mut extra = bytes.clone();
        extra.extend_from_slice(&[0u8; 8]);
        assert!(LabelRecord::decode(&extra).is_err());
        assert!(
            LabelRecord::decode(&bytes).is_ok(),
            "pristine record rejected"
        );
    }

    #[test]
    fn oversized_length_fields_do_not_allocate() {
        // A forged header claiming 2^31 nodes with a valid CRC must be
        // rejected by the length cap, not attempted.
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        forged.extend_from_slice(&(1u32 << 31).to_le_bytes());
        forged.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32_update(0, &forged);
        forged.extend_from_slice(&crc.to_le_bytes());
        assert!(LabelRecord::decode(&forged).is_err());
    }

    #[test]
    fn store_key_separates_every_setting() {
        let base = store_key(1, 3, 2048, 7, 500.0);
        assert_eq!(base, store_key(1, 3, 2048, 7, 500.0));
        assert_ne!(base, store_key(2, 3, 2048, 7, 500.0), "circuit hash");
        assert_ne!(base, store_key(1, 4, 2048, 7, 500.0), "reset hash");
        assert_ne!(base, store_key(1, 3, 4096, 7, 500.0), "sim cycles");
        assert_ne!(base, store_key(1, 3, 2048, 8, 500.0), "stimulus seed");
        assert_ne!(base, store_key(1, 3, 2048, 7, 250.0), "clock");
    }

    #[test]
    fn file_round_trip_hits_and_counts() {
        let store = temp_store("roundtrip");
        let rec = sample_record();
        assert!(store.load(9).is_none(), "empty store must miss");
        store.store(9, &rec).unwrap();
        let shard = store.path_of(9).parent().unwrap().to_path_buf();
        assert_eq!(
            fs::read_dir(&shard).unwrap().count(),
            1,
            "scratch file left behind next to the record"
        );
        assert_eq!(store.load(9), Some(rec));
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(store.record_count(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_same_key_publishes_are_clean() {
        // Eight writers hammering one key must each land a complete
        // record: unique scratch names mean no interleaved writes, no
        // failed renames, and nothing left behind but the record itself.
        let store = temp_store("concurrent");
        let rec = sample_record();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        store.store(42, &rec).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.load(42), Some(rec));
        assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 0);
        let shard = store.path_of(42).parent().unwrap().to_path_buf();
        assert_eq!(fs::read_dir(&shard).unwrap().count(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn keys_spread_across_shards() {
        let store = temp_store("shards");
        for key in 0..(SHARD_COUNT * 2) {
            store.store(key, &LabelRecord::default()).unwrap();
        }
        let shards = fs::read_dir(store.root()).unwrap().count();
        assert_eq!(shards as u64, SHARD_COUNT);
        assert_eq!(store.record_count() as u64, SHARD_COUNT * 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_record_is_evicted_and_recomputable() {
        let store = temp_store("corrupt");
        let rec = sample_record();
        store.store(5, &rec).unwrap();

        // Bit-flip the record on disk: load must reject, evict, and miss.
        let path = store.path_of(5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(5), None, "corrupt record served");
        assert!(!path.exists(), "corrupt record not evicted");
        assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 1);

        // Truncation is likewise detected.
        store.store(5, &rec).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert_eq!(store.load(5), None);
        assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 2);

        // The rewrite path restores service.
        store.store(5, &rec).unwrap();
        assert_eq!(store.load(5), Some(rec));
        let _ = fs::remove_dir_all(store.root());
    }
}
