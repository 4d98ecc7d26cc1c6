//! # moss-store
//!
//! A content-addressed, append-only on-disk label store. MOSS pretrains on
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
//! <root>/00000000-4711.lbs      segment files, <seq:08>-<pid>.lbs
//! <root>/00000001-4790.lbs
//! …
//! ```
//!
//! Records live in append-only *segments*. Each writing [`LabelStore`]
//! instance appends to one segment of its own, created (`create_new`,
//! append mode) at its first [`LabelStore::store`]: an instance that only
//! reads creates no file. A segment's name is one above the highest
//! sequence number present, then the writer's pid, so names sort in
//! creation order. A segment is a run of frames:
//!
//! ```text
//! key u64, record length u32, crc32 (IEEE) of those 12 bytes u32
//! the MOSSLBL1 record, `length` bytes (its own CRC footer included)
//! ```
//!
//! The 16-byte header is all a scan reads. A frame is appended with one
//! `write_all` under the instance's writer lock, so threads sharing an
//! instance never interleave their frames.
//!
//! ## Index
//!
//! Lookups go through an in-memory index (key → segment, offset, length),
//! built once per instance at its first [`LabelStore::load`],
//! [`LabelStore::store`] or [`LabelStore::record_count`]: the segments are
//! read in name order, headers only, and the last intact header per key
//! wins. A segment's scan stops at the first header whose CRC fails or
//! whose frame runs past the end of the file. A lookup the index misses
//! touches no file; a hit opens the segment, reads the record and checks
//! its CRC. No read handle is kept, so open files do not grow with the
//! number of segments. The index build runs in a `moss-obs` span,
//! `store.scan`, whose items are the frames read.
//!
//! ## Crash safety
//!
//! A kill mid-append leaves a torn frame at the tail of its segment. Its
//! writer is gone, so nothing is appended after it, and scans stop there:
//! every earlier frame stays readable and the torn one is never served. A
//! write error abandons the segment the same way, and the instance's next
//! publish opens a new one. Nothing is `fsync`ed: a record survives a
//! process kill, and the CRCs catch what a power loss tears.
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
//! corruption (bit rot, short writes) into a detected miss:
//! [`LabelStore::load`] *evicts* the damaged record — drops it from the
//! instance's index — and returns `None`, and the caller recomputes and
//! rewrites; corrupt records are never served. The damaged frame stays on
//! disk, and the rewrite appends a newer frame for the key that later
//! scans prefer. Two frames for one key are normal after such a recompute.
//! Were segment names ever to sort out of creation order, an older corrupt
//! frame could win a scan; `load` would then evict it and the recompute
//! append again, so the store heals. The `store` fault site
//! (`MOSS_FAULTS=store:<rate>`) rehearses this by corrupting records inside
//! intact frames as they are written.
//!
//! ## Visibility across processes
//!
//! An instance sees every record that was on disk when it built its index
//! (its first lookup), plus its own publishes. It does not see records
//! another process appends after that: a lookup of such a key misses, and
//! the recompute appends the same bytes again. No index is shared and no
//! file is locked.
//!
//! ## Invalidation
//!
//! [`store_key`] folds the circuit's canonical hash together with the
//! label-schema version, a hash of the DFF reset (initial) values the
//! simulation is seeded from, and every labeling setting (simulation
//! cycles, stimulus seed, clock frequency). Changing any of them changes the key,
//! so stale records are simply never looked up again; they can be garbage
//! collected by deleting the store directory. Superseded frames are not
//! compacted.
//!
//! A directory written by the earlier one-file-per-record layout
//! (`shardNN/<key>.lbl`) is not read: its records are recomputed once and
//! appended to a segment, and its shard directories are left on disk.
//!
//! Per-store hit/miss/corrupt/byte counters are kept on [`LabelStore`] and
//! mirrored into `moss-obs` (`store.hit`, `store.miss`, `store.corrupt`,
//! `store.evict`, `store.write`, `store.bytes_read`, `store.bytes_written`).
//! [`LabelStore::load`] and [`LabelStore::store`] each time themselves in a
//! `moss-obs` span, `store.load` and `store.write`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Version of the label record schema. Part of [`store_key`], so bumping
/// it invalidates every existing record without touching the files.
pub const SCHEMA_VERSION: u32 = 1;

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
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized record, CRC32 footer included, to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let n = self.toggle.len();
        debug_assert_eq!(n, self.probability.len());
        debug_assert_eq!(n, self.dynamic_nw.len());
        let start = out.len();
        out.reserve(8 + 12 + n * 12 + self.arrival_ns.len() * 8 + 20);
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
        let crc = crc32_update(0, &out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
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

// ---- segments ------------------------------------------------------------

/// Extension of a segment file.
const SEGMENT_EXT: &str = "lbs";

/// Bytes of a frame header: key u64, record length u32, CRC32 of those 12.
const HEADER_LEN: usize = 16;

/// The header of a frame holding a `len`-byte record under `key`.
fn frame_header(key: u64, len: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&key.to_le_bytes());
    header[8..12].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_update(0, &header[..12]);
    header[12..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// `(key, record length)` from a frame header, or `None` if its CRC fails.
fn parse_header(header: &[u8; HEADER_LEN]) -> Option<(u64, u32)> {
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    (crc32_update(0, &header[..12]) == word(12)).then(|| {
        (
            u64::from_le_bytes(header[..8].try_into().expect("8 bytes")),
            word(8),
        )
    })
}

/// The segment files under `root` with their sequence numbers, in creation
/// order: by sequence number, then by name.
fn segments(root: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension()? != SEGMENT_EXT {
                return None;
            }
            let seq = path
                .file_stem()?
                .to_str()?
                .split_once('-')?
                .0
                .parse()
                .ok()?;
            Some((seq, path))
        })
        .collect();
    found.sort();
    found
}

/// Where a record lies: segment number (into [`Index::segments`]), byte
/// offset of the record and its length.
#[derive(Clone, Copy, PartialEq)]
struct Loc {
    seg: u32,
    offset: u64,
    len: u32,
}

/// One instance's view of the store.
#[derive(Default)]
struct Index {
    /// Segment paths, oldest first; [`Loc::seg`] indexes this list.
    segments: Vec<Arc<Path>>,
    /// The newest intact frame per key.
    keys: HashMap<u64, Loc>,
}

impl Index {
    /// Indexes the frames of segment `path`, stopping at the first header
    /// whose CRC fails or whose frame runs past the end of the file, and
    /// returns how many frames it read. Records are not checked here;
    /// [`LabelStore::load`] checks each one it reads.
    fn scan(&mut self, path: PathBuf) -> u64 {
        let seg = self.segments.len() as u32;
        let file = File::open(&path);
        self.segments.push(path.into());
        let Ok(file) = file else {
            return 0;
        };
        let Ok(end) = file.metadata().map(|m| m.len()) else {
            return 0;
        };
        let mut reader = BufReader::with_capacity(1 << 16, file);
        let mut header = [0u8; HEADER_LEN];
        let (mut at, mut frames) = (0u64, 0u64);
        while reader.read_exact(&mut header).is_ok() {
            let Some((key, len)) = parse_header(&header) else {
                break;
            };
            let offset = at + HEADER_LEN as u64;
            at = offset + u64::from(len);
            if at > end || reader.seek_relative(i64::from(len)).is_err() {
                break;
            }
            self.keys.insert(key, Loc { seg, offset, len });
            frames += 1;
        }
        frames
    }
}

/// Reads the record at `loc` of segment `path`.
fn read_record(path: &Path, loc: Loc) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut bytes = vec![0u8; loc.len as usize];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// The segment an instance appends to.
struct Writer {
    file: File,
    /// Its number in [`Index::segments`].
    seg: u32,
    /// Bytes appended so far: where the next frame starts.
    end: u64,
}

// ---- the store -----------------------------------------------------------

/// Per-store monotonic counters (mirrored into `moss-obs`).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Records served from disk.
    pub hits: AtomicU64,
    /// Lookups that found no (valid) record.
    pub misses: AtomicU64,
    /// Records rejected by the CRC/format check and evicted from the index.
    pub corrupt: AtomicU64,
    /// Records written.
    pub writes: AtomicU64,
    /// Bytes read from valid records.
    pub bytes_read: AtomicU64,
    /// Bytes appended to segments: each record plus the 16 bytes of its
    /// frame header.
    pub bytes_written: AtomicU64,
}

impl StoreStats {
    fn bump(counter: &AtomicU64, obs: &'static str, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
        moss_obs::counter(obs, delta);
    }
}

/// An append-only label store rooted at one directory (see the crate
/// docs for the layout). Threads of one process share an instance
/// safely: a publish appends one frame under the writer lock, and lookups
/// read the index under its own lock. Lock order: writer, then index.
pub struct LabelStore {
    root: PathBuf,
    stats: StoreStats,
    /// Built at the first lookup, publish or count.
    index: OnceLock<RwLock<Index>>,
    /// This instance's segment, opened at its first publish.
    writer: Mutex<Option<Writer>>,
}

impl fmt::Debug for LabelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelStore")
            .field("root", &self.root)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl LabelStore {
    /// Opens the store rooted at `root`, creating the directory if it is
    /// missing. On an existing root this is one `metadata` call: it scans
    /// nothing and creates no file.
    ///
    /// # Errors
    ///
    /// Fails if `root` exists but is not a directory, or propagates the
    /// `metadata` or `create_dir_all` failure.
    pub fn open<P: AsRef<Path>>(root: P) -> io::Result<LabelStore> {
        let root = root.as_ref().to_path_buf();
        match fs::metadata(&root) {
            Ok(meta) if meta.is_dir() => {}
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::NotADirectory,
                    format!("label store root {} is not a directory", root.display()),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => fs::create_dir_all(&root)?,
            Err(e) => return Err(e),
        }
        Ok(LabelStore {
            root,
            stats: StoreStats::default(),
            index: OnceLock::new(),
            writer: Mutex::new(None),
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

    /// The index, scanned from the segments on disk at the first call.
    fn index(&self) -> &RwLock<Index> {
        self.index.get_or_init(|| {
            let mut span = moss_obs::span("store.scan");
            let mut index = Index::default();
            for (_, path) in segments(&self.root) {
                span.add_items(index.scan(path));
            }
            RwLock::new(index)
        })
    }

    /// Loads the record stored under `key`. Returns `None` on a miss *or*
    /// on a corrupt record — a failed CRC/format check evicts the record
    /// from this instance's index (counted under `store.corrupt` /
    /// `store.evict`) so the caller recomputes and rewrites; poisoned
    /// labels are never served. A key the index misses touches no file.
    pub fn load(&self, key: u64) -> Option<LabelRecord> {
        let index = self.index();
        let _obs = moss_obs::span("store.load");
        let found = {
            let index = index.read().unwrap_or_else(|e| e.into_inner());
            index
                .keys
                .get(&key)
                .map(|&loc| (loc, Arc::clone(&index.segments[loc.seg as usize])))
        };
        let Some((loc, path)) = found else {
            StoreStats::bump(&self.stats.misses, "store.miss", 1);
            return None;
        };
        match read_record(&path, loc).and_then(|bytes| LabelRecord::decode(&bytes)) {
            Ok(rec) => {
                StoreStats::bump(&self.stats.hits, "store.hit", 1);
                StoreStats::bump(
                    &self.stats.bytes_read,
                    "store.bytes_read",
                    u64::from(loc.len),
                );
                Some(rec)
            }
            Err(_) => {
                StoreStats::bump(&self.stats.corrupt, "store.corrupt", 1);
                moss_obs::counter("store.evict", 1);
                let mut index = index.write().unwrap_or_else(|e| e.into_inner());
                // Unless a thread has published a newer frame meanwhile.
                if index.keys.get(&key) == Some(&loc) {
                    index.keys.remove(&key);
                }
                StoreStats::bump(&self.stats.misses, "store.miss", 1);
                None
            }
        }
    }

    /// Publishes `record` under `key` by appending one frame to this
    /// instance's segment, opening the segment at the first publish. The
    /// frame is a single `write_all` under the writer lock, so concurrent
    /// publishes never interleave, and a kill mid-write leaves at most a
    /// torn tail that scans stop at.
    ///
    /// The `store` fault site (`MOSS_FAULTS=store:<rate>`) corrupts the
    /// record inside an intact frame (a short record for even keys, a
    /// flipped bit for odd keys), rehearsing bit rot and short writes that
    /// the filesystem survived: scans walk past the frame, and the next
    /// [`LabelStore::load`] must detect and evict it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. A failed append abandons the segment
    /// (whatever part of the frame landed is its tail), and the next
    /// publish opens a new one.
    pub fn store(&self, key: u64, record: &LabelRecord) -> io::Result<()> {
        let index = self.index();
        let _obs = moss_obs::span("store.write");
        let mut frame = vec![0u8; HEADER_LEN];
        record.encode_into(&mut frame);
        if moss_faults::fire(moss_faults::Site::Store, key) {
            // Corrupt deterministically by key parity: even keys get a
            // short record, odd keys a flipped payload bit.
            let len = frame.len() - HEADER_LEN;
            if key.is_multiple_of(2) {
                frame.truncate(HEADER_LEN + len / 2);
            } else {
                frame[HEADER_LEN + len / 2] ^= 0x10;
            }
        }
        let len = u32::try_from(frame.len() - HEADER_LEN)
            .map_err(|_| invalid("label record longer than 4 GiB"))?;
        frame[..HEADER_LEN].copy_from_slice(&frame_header(key, len));

        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.is_none() {
            *writer = Some(self.open_segment(index)?);
        }
        let w = writer.as_mut().expect("segment opened above");
        if let Err(e) = w.file.write_all(&frame) {
            *writer = None;
            return Err(e);
        }
        let loc = Loc {
            seg: w.seg,
            offset: w.end + HEADER_LEN as u64,
            len,
        };
        w.end += frame.len() as u64;
        index
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .keys
            .insert(key, loc);
        drop(writer);
        StoreStats::bump(&self.stats.writes, "store.write", 1);
        StoreStats::bump(
            &self.stats.bytes_written,
            "store.bytes_written",
            frame.len() as u64,
        );
        Ok(())
    }

    /// Creates this instance's segment, numbered one above the highest
    /// sequence number on disk, and adds it to the index. Called with the
    /// writer lock held.
    fn open_segment(&self, index: &RwLock<Index>) -> io::Result<Writer> {
        let mut seq = segments(&self.root).last().map_or(0, |&(seq, _)| seq + 1);
        loop {
            let path = self
                .root
                .join(format!("{seq:08}-{}.{SEGMENT_EXT}", std::process::id()));
            match OpenOptions::new().append(true).create_new(true).open(&path) {
                Ok(file) => {
                    let mut index = index.write().unwrap_or_else(|e| e.into_inner());
                    index.segments.push(path.into());
                    return Ok(Writer {
                        file,
                        seg: index.segments.len() as u32 - 1,
                        end: 0,
                    });
                }
                // Another instance of this process took the number.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Number of distinct keys this instance's index holds: the records on
    /// disk at its first use, plus its own publishes, less what it evicted
    /// (tooling and tests only — not a hot-path call).
    pub fn record_count(&self) -> usize {
        self.index()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys
            .len()
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

    /// A fresh path under the temp directory; nothing exists there.
    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moss_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> LabelStore {
        LabelStore::open(temp_root(tag)).unwrap()
    }

    fn root_entries(root: &Path) -> usize {
        fs::read_dir(root).unwrap().count()
    }

    /// The root's one entry, which must be a segment file.
    fn only_segment(root: &Path) -> PathBuf {
        assert_eq!(root_entries(root), 1, "root holds more than one segment");
        let found = segments(root);
        assert_eq!(found.len(), 1, "root holds a file that is not a segment");
        found[0].1.clone()
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
        assert_eq!(root_entries(store.root()), 0, "a lookup created a file");
        store.store(9, &rec).unwrap();
        assert_eq!(
            only_segment(store.root()).metadata().unwrap().len(),
            (HEADER_LEN + rec.encode().len()) as u64,
            "one frame in one segment, nothing else in the root"
        );
        assert_eq!(store.load(9), Some(rec));
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(store.record_count(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_same_key_publishes_are_clean() {
        // Eight writers hammering one key through one instance must each
        // land a complete frame: one segment, 400 intact frames in a row,
        // nothing interleaved and nothing else in the root.
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
        assert_eq!(store.load(42), Some(rec.clone()));
        assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 0);
        let bytes = fs::read(only_segment(store.root())).unwrap();
        let mut at = 0;
        let mut frames = 0;
        while at < bytes.len() {
            let header = bytes[at..at + HEADER_LEN].try_into().unwrap();
            let (key, len) = parse_header(&header).expect("intact header");
            let end = at + HEADER_LEN + len as usize;
            assert_eq!(key, 42);
            assert_eq!(
                LabelRecord::decode(&bytes[at + HEADER_LEN..end]).unwrap(),
                rec
            );
            at = end;
            frames += 1;
        }
        assert_eq!(frames, 400);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn many_keys_append_to_one_segment() {
        let store = temp_store("keys");
        for key in 0..128 {
            store.store(key, &LabelRecord::default()).unwrap();
        }
        only_segment(store.root());
        assert_eq!(store.record_count(), 128);
        let fresh = LabelStore::open(store.root()).unwrap();
        assert_eq!(fresh.record_count(), 128);
        assert!((0..128).all(|key| fresh.load(key).is_some()));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_record_is_evicted_and_recomputable() {
        let root = temp_root("corrupt");
        let rec = sample_record();
        LabelStore::open(&root).unwrap().store(5, &rec).unwrap();

        // Bit-flip the record inside its intact frame: the scan indexes
        // it, and load must reject it, evict it, and miss.
        let seg = only_segment(&root);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x20;
        fs::write(&seg, &bytes).unwrap();
        let store = LabelStore::open(&root).unwrap();
        assert_eq!(store.load(5), None, "corrupt record served");
        assert_eq!(store.load(5), None);
        assert_eq!(
            store.stats().corrupt.load(Ordering::Relaxed),
            1,
            "corrupt record not evicted"
        );

        // A short record in an intact frame is likewise detected.
        let short = &rec.encode()[..bytes.len() / 3];
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        file.write_all(&frame_header(6, short.len() as u32))
            .unwrap();
        file.write_all(short).unwrap();
        let store = LabelStore::open(&root).unwrap();
        assert_eq!(store.load(6), None);
        assert_eq!(store.load(5), None);
        assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 2);

        // The rewrite path restores service.
        store.store(5, &rec).unwrap();
        assert_eq!(store.load(5), Some(rec));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segment_cut_mid_frame_keeps_every_earlier_record() {
        let rec = sample_record();
        let frame = (HEADER_LEN + rec.encode().len()) as u64;
        // A kill inside the last frame's header, then inside its record.
        for (tag, cut) in [("cut_header", 4 * frame + 9), ("cut_record", 5 * frame - 7)] {
            let root = temp_root(tag);
            let writer = LabelStore::open(&root).unwrap();
            for key in 0..5 {
                writer.store(key, &rec).unwrap();
            }
            drop(writer);
            let seg = only_segment(&root);
            OpenOptions::new()
                .write(true)
                .open(&seg)
                .unwrap()
                .set_len(cut)
                .unwrap();

            let store = LabelStore::open(&root).unwrap();
            for key in 0..4 {
                assert_eq!(store.load(key).as_ref(), Some(&rec), "{tag}: key {key}");
            }
            assert_eq!(store.load(4), None, "{tag}: torn frame served");
            assert_eq!(store.stats().corrupt.load(Ordering::Relaxed), 0, "{tag}");
            store.store(4, &rec).unwrap();
            drop(store);

            let reopened = LabelStore::open(&root).unwrap();
            assert!((0..5).all(|key| reopened.load(key).as_ref() == Some(&rec)));
            assert_eq!(reopened.record_count(), 5);
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn flipped_header_bit_stops_the_scan() {
        let store = temp_store("header");
        let rec = sample_record();
        for key in 0..6 {
            store.store(key, &rec).unwrap();
        }
        let seg = only_segment(store.root());
        let mut bytes = fs::read(&seg).unwrap();
        let frame = HEADER_LEN + rec.encode().len();
        bytes[3 * frame + 2] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();

        let fresh = LabelStore::open(store.root()).unwrap();
        for key in 0..3 {
            assert_eq!(fresh.load(key).as_ref(), Some(&rec), "key {key}");
        }
        for key in 3..6 {
            assert_eq!(fresh.load(key), None, "key {key} read past a bad header");
        }
        assert_eq!(fresh.stats().corrupt.load(Ordering::Relaxed), 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn instances_see_records_on_disk_at_their_first_lookup() {
        let a = temp_store("visibility");
        let early = LabelStore::open(a.root()).unwrap();
        assert_eq!(early.load(1), None);
        let late = LabelStore::open(a.root()).unwrap();
        a.store(1, &sample_record()).unwrap();
        // Opened before the write, first used after it: a hit.
        assert_eq!(late.load(1), Some(sample_record()));
        assert_eq!(
            LabelStore::open(a.root()).unwrap().load(1),
            Some(sample_record())
        );
        // Its index was built before the write: a miss, never a wrong record.
        assert_eq!(early.load(1), None);
        let _ = fs::remove_dir_all(a.root());
    }

    #[test]
    fn superseded_corrupt_frame_is_not_read_again() {
        let root = temp_root("superseded");
        let rec = sample_record();
        LabelStore::open(&root).unwrap().store(7, &rec).unwrap();
        let seg = only_segment(&root);
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let recompute = LabelStore::open(&root).unwrap();
        assert_eq!(recompute.load(7), None);
        assert_eq!(recompute.stats().corrupt.load(Ordering::Relaxed), 1);
        recompute.store(7, &rec).unwrap();
        drop(recompute);

        let fresh = LabelStore::open(&root).unwrap();
        assert_eq!(fresh.load(7), Some(rec));
        assert_eq!(fresh.stats().corrupt.load(Ordering::Relaxed), 0);
        assert_eq!(segments(&root).len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_rejects_a_regular_file() {
        let path = temp_root("file");
        fs::write(&path, b"not a store").unwrap();
        assert!(LabelStore::open(&path).is_err());
        let _ = fs::remove_file(&path);
    }
}
