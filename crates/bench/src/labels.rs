//! Streaming, store-backed corpus labeling: generate one deterministic
//! seed-range shard at a time ([`moss_datagen::CorpusPlan`]), label it on
//! the thread pool with first-touch results published to the
//! [`LabelStore`], fold the labels into an order-dependent digest, and
//! drop the shard. Peak memory is bounded by the shard size, not the
//! corpus size — the monolithic pipeline in [`crate::pipeline`]
//! materializes every module and sample at once, which is fine for
//! tens of circuits and fatal for 10k.
//!
//! The digest is the resumability oracle: a cold run, a warm (fully
//! cached) run, and a killed-and-resumed run of the same plan must all
//! print the same digest, bytewise label equality included, because the
//! digest folds each circuit's canonical [`LabelRecord`] digest in corpus
//! order.
//!
//! [`LabelRecord`]: moss_store::LabelRecord

use moss::{labels_to_record, LabeledCircuit, SampleOptions};
use moss_datagen::{CorpusPlan, CorpusShard};
use moss_netlist::CellLibrary;
use moss_store::LabelStore;

use crate::run::{PipelineError, RunManifest};

/// Settings a label run depends on. All three feed the per-circuit store
/// key, so changing any of them invalidates the cache for the whole
/// corpus.
#[derive(Debug, Clone, Copy)]
pub struct LabelConfig {
    /// Random-stimulus cycles per circuit.
    pub sim_cycles: u64,
    /// Clock for power labels, MHz.
    pub clock_mhz: f64,
    /// Root seed; circuit `i` simulates with `seed ^ (i << 8)` (the same
    /// derivation the experiment pipeline uses).
    pub seed: u64,
}

impl Default for LabelConfig {
    fn default() -> LabelConfig {
        LabelConfig {
            sim_cycles: 4096,
            clock_mhz: 500.0,
            seed: 0x5e4d,
        }
    }
}

impl LabelConfig {
    /// Sample options for corpus index `i` — stable per corpus index, so
    /// any shard partitioning of the same corpus labels identically.
    pub fn options_for(&self, index: usize) -> SampleOptions {
        SampleOptions {
            sim_cycles: self.sim_cycles,
            seed: self.seed ^ ((index as u64) << 8),
            clock_mhz: self.clock_mhz,
            ..SampleOptions::default()
        }
    }
}

/// Outcome of a [`label_corpus`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabelRunStats {
    /// Circuits that produced labels this run (cache hits included).
    pub labeled: usize,
    /// Of those, how many were served from the store.
    pub cache_hits: usize,
    /// Circuits skipped into the manifest.
    pub skipped: usize,
    /// Shards processed.
    pub shards: usize,
    /// Order-dependent FNV-1a fold of every `(corpus index, record
    /// digest)` pair — equal digests mean bytewise-equal labels.
    pub digest: u64,
}

fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed value for the digest fold (plain FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Labels one shard on the thread pool, returning
/// `(corpus index, record digest, cache_hit)` per surviving circuit in
/// corpus order. Failing circuits are skipped into `manifest`.
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn label_shard(
    shard: &CorpusShard,
    lib: &CellLibrary,
    config: &LabelConfig,
    store: Option<&LabelStore>,
    manifest: &mut RunManifest,
) -> Result<Vec<(usize, u64, bool)>, PipelineError> {
    let modules = shard.modules();
    let _obs = moss_obs::span_items("label_shard", modules.len() as u64);
    let results = moss_tensor::par_map(&modules, |i, m| {
        let index = shard.start + i;
        (
            m.name().to_owned(),
            LabeledCircuit::build(m, lib, &config.options_for(index), store).map(|lc| {
                (
                    index,
                    labels_to_record(&lc.netlist, &lc.labels).digest(),
                    lc.cache_hit,
                )
            }),
        )
    });
    let mut out = Vec::with_capacity(results.len());
    for (name, r) in results {
        match r {
            Ok(v) => {
                manifest.record_success();
                out.push(v);
            }
            Err(e) => manifest.record_skip(name, "label", e.into()),
        }
    }
    manifest.check_budget()?;
    Ok(out)
}

/// Labels an entire corpus plan shard-by-shard with bounded memory.
/// `limit`, when set, stops the run after attempting that many circuits —
/// mid-shard if necessary — and is how `labelgen --abort-after` simulates
/// a kill (per-record publishes are atomic, so stopping between circuits
/// is equivalent to `SIGKILL` between record writes).
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn label_corpus(
    plan: &CorpusPlan,
    lib: &CellLibrary,
    config: &LabelConfig,
    store: Option<&LabelStore>,
    manifest: &mut RunManifest,
    limit: Option<usize>,
) -> Result<LabelRunStats, PipelineError> {
    let mut stats = LabelRunStats {
        digest: DIGEST_SEED,
        ..LabelRunStats::default()
    };
    let mut attempted = 0usize;
    for mut shard in plan.shards() {
        if let Some(limit) = limit {
            let allowance = limit.saturating_sub(attempted);
            if allowance == 0 {
                break;
            }
            shard.count = shard.count.min(allowance);
        }
        attempted += shard.count;
        let labeled = label_shard(&shard, lib, config, store, manifest)?;
        stats.shards += 1;
        for (index, digest, hit) in labeled {
            stats.labeled += 1;
            if hit {
                stats.cache_hits += 1;
            }
            stats.digest = fold(stats.digest, index as u64);
            stats.digest = fold(stats.digest, digest);
        }
        moss_obs::counter("label.circuits", shard.count as u64);
    }
    stats.skipped = manifest.skips().len();
    Ok(stats)
}
