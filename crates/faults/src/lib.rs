//! # moss-faults
//!
//! Deterministic fault injection for the MOSS pipeline. Production EDA
//! corpora contain malformed RTL, diverging simulations, and flaky storage;
//! this crate lets the rest of the workspace *rehearse* those failures on
//! demand so the per-circuit degradation paths (skip, record, resume) stay
//! tested instead of theoretical.
//!
//! ## Configuration
//!
//! Faults are off unless `MOSS_FAULTS` is set to a comma-separated list of
//! `site:rate[:seed]` entries:
//!
//! ```text
//! MOSS_FAULTS=synth:0.1,sim:0.05:42 cargo run --bin table1 -- --quick
//! ```
//!
//! Sites:
//!
//! | site      | what fails                                            |
//! |-----------|-------------------------------------------------------|
//! | `synth`   | RTL → netlist synthesis of a circuit                  |
//! | `sim`     | compiled-simulator construction (label generation)    |
//! | `sta`     | static timing / power labeling                        |
//! | `io`      | checkpoint file save/load                             |
//! | `nan`     | a training step's losses become NaN                   |
//! | `serve`   | a serving request's batch-forward stage (moss-serve)  |
//! | `store`   | a label-store record write is corrupted (moss-store)  |
//! | `net`     | a serve connection's reply path (partial write, drop, stall) |
//! | `oom-cap` | circuits above `rate` cells are rejected (a cell cap) |
//!
//! `rate` is a probability in `[0, 1]` (for `oom-cap` it is a cell count).
//! The optional third field reseeds that site's decisions.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(site seed, site, key)` — no
//! shared stream, no call-order dependence — so outcomes are identical
//! across thread counts and interleavings (`moss_tensor::par_map` fans the
//! pipeline out) and a faulted run can be replayed exactly. Keys are stable
//! facts about the work item, e.g. [`key`] of the circuit name.
//!
//! Every injected fault bumps a `moss-obs` counter
//! (`faults.injected.<site>`), so a `MOSS_OBS=1` run shows exactly what was
//! injected where.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};

use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};

/// Default decision seed when an entry carries no explicit `:seed`.
pub const DEFAULT_SEED: u64 = 0xfa17;

/// An injectable failure site in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// RTL → netlist synthesis.
    Synth,
    /// Compiled-simulator construction (label generation).
    Sim,
    /// Static timing / power labeling.
    Sta,
    /// Checkpoint file I/O.
    Io,
    /// Training-step losses forced to NaN.
    Nan,
    /// A serving request's decode/forward stage (moss-serve).
    Serve,
    /// A label-store record write (moss-store) — the written record is
    /// corrupted (truncated or bit-flipped), rehearsing bit rot and short
    /// writes the filesystem survived.
    Store,
    /// A serve connection's reply path (moss-serve) — the frame is
    /// partially written, the socket is dropped mid-frame, or the reply
    /// stalls, rehearsing the network misbehaving under a live client.
    Net,
}

impl Site {
    /// All probabilistic sites (the `oom-cap` threshold site is separate).
    pub const ALL: [Site; 8] = [
        Site::Synth,
        Site::Sim,
        Site::Sta,
        Site::Io,
        Site::Nan,
        Site::Serve,
        Site::Store,
        Site::Net,
    ];

    /// The site's spelling in `MOSS_FAULTS` and in error messages.
    pub fn name(self) -> &'static str {
        match self {
            Site::Synth => "synth",
            Site::Sim => "sim",
            Site::Sta => "sta",
            Site::Io => "io",
            Site::Nan => "nan",
            Site::Serve => "serve",
            Site::Store => "store",
            Site::Net => "net",
        }
    }

    /// Position in [`Site::ALL`], which lists the sites in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }

    fn counter(self) -> &'static str {
        match self {
            Site::Synth => "faults.injected.synth",
            Site::Sim => "faults.injected.sim",
            Site::Sta => "faults.injected.sta",
            Site::Io => "faults.injected.io",
            Site::Nan => "faults.injected.nan",
            Site::Serve => "faults.injected.serve",
            Site::Store => "faults.injected.store",
            Site::Net => "faults.injected.net",
        }
    }
}

/// A parsed `MOSS_FAULTS` specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    rates: [f64; 8],
    seeds: [u64; 8],
    oom_cap: Option<u64>,
}

impl FaultConfig {
    /// Parses a `site:rate[:seed]` comma list.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry: unknown site,
    /// unparsable number, or a probability outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut config = FaultConfig {
            seeds: [DEFAULT_SEED; 8],
            ..FaultConfig::default()
        };
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.split(':');
            let site = parts.next().unwrap_or_default().trim();
            let value = parts
                .next()
                .ok_or_else(|| format!("fault entry '{entry}' is missing a rate"))?
                .trim();
            let seed = match parts.next() {
                Some(s) => Some(
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("fault entry '{entry}' has a bad seed"))?,
                ),
                None => None,
            };
            if parts.next().is_some() {
                return Err(format!("fault entry '{entry}' has too many fields"));
            }
            if site == "oom-cap" {
                let cap = value
                    .parse::<u64>()
                    .map_err(|_| format!("fault entry '{entry}' has a bad cell cap"))?;
                config.oom_cap = Some(cap);
                continue;
            }
            let Some(&s) = Site::ALL.iter().find(|s| s.name() == site) else {
                return Err(format!("unknown fault site '{site}'"));
            };
            let rate = value
                .parse::<f64>()
                .map_err(|_| format!("fault entry '{entry}' has a bad rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fault rate for '{site}' must be in [0, 1], got {rate}"
                ));
            }
            config.rates[s.index()] = rate;
            if let Some(seed) = seed {
                config.seeds[s.index()] = seed;
            }
        }
        Ok(config)
    }

    /// True if no site can ever fire.
    pub fn is_inert(&self) -> bool {
        self.armed_mask() == 0
    }

    /// Bit `i` for each site of [`Site::index`] `i` with a non-zero rate,
    /// plus [`OOM_BIT`] when a cell cap is set.
    fn armed_mask(&self) -> u32 {
        let sites = Site::ALL
            .iter()
            .filter(|s| self.rates[s.index()] > 0.0)
            .fold(0, |mask, s| mask | (1 << s.index()));
        if self.oom_cap.is_some() {
            sites | OOM_BIT
        } else {
            sites
        }
    }
}

/// [`FaultConfig::armed_mask`] bit of the `oom-cap` site.
const OOM_BIT: u32 = 1 << 8;

/// Set in [`ARMED`] until the configuration has been loaded.
const UNLOADED: u32 = 1 << 31;

/// The armed-site mask of the active configuration, so a decision for a
/// zero-rate site costs one relaxed load. `Relaxed` suffices because the
/// mask publishes nothing else: a set bit sends the caller to the
/// lock-protected configuration, and it is stored under that lock's write
/// guard, so a reader who sees it reads the configuration it belongs to.
/// Any thread that synchronizes with the installing one afterwards (spawn,
/// channel, pool hand-off) sees the new mask.
static ARMED: AtomicU32 = AtomicU32::new(UNLOADED);

fn env_config() -> &'static FaultConfig {
    static CONFIG: OnceLock<FaultConfig> = OnceLock::new();
    CONFIG.get_or_init(|| match std::env::var("MOSS_FAULTS") {
        Ok(spec) => match FaultConfig::parse(&spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("moss-faults: ignoring MOSS_FAULTS: {e}");
                FaultConfig::default()
            }
        },
        Err(_) => FaultConfig::default(),
    })
}

/// The active configuration: `MOSS_FAULTS`, or a test override while a
/// [`FaultOverride`] lives.
fn active_config() -> &'static RwLock<FaultConfig> {
    static ACTIVE: OnceLock<RwLock<FaultConfig>> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let config = env_config().clone();
        ARMED.store(config.armed_mask(), Ordering::Relaxed);
        RwLock::new(config)
    })
}

fn read_active() -> std::sync::RwLockReadGuard<'static, FaultConfig> {
    active_config().read().unwrap_or_else(|e| e.into_inner())
}

fn install(config: FaultConfig) {
    let mut active = active_config().write().unwrap_or_else(|e| e.into_inner());
    ARMED.store(config.armed_mask(), Ordering::Relaxed);
    *active = config;
}

/// The armed-site mask, loading `MOSS_FAULTS` on first use.
fn armed() -> u32 {
    let mask = ARMED.load(Ordering::Relaxed);
    if mask & UNLOADED == 0 {
        return mask;
    }
    active_config();
    ARMED.load(Ordering::Relaxed)
}

/// A test override of the fault configuration, in force while the guard
/// lives. See [`override_for_tests`].
#[must_use = "the override ends when the guard is dropped"]
#[derive(Debug)]
pub struct FaultOverride {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for FaultOverride {
    fn drop(&mut self) {
        install(env_config().clone());
    }
}

/// Replaces the ambient configuration for the whole process until the
/// returned guard drops — test support, where mutating the environment of
/// a threaded test binary would race. `None` keeps the `MOSS_FAULTS`
/// environment configuration but still takes the guard.
///
/// The guard holds one process-wide lock, so tests that take it run one at
/// a time instead of overwriting each other's specs, and dropping it —
/// also while unwinding from a failed assertion — restores the
/// `MOSS_FAULTS` configuration. Drop a guard before taking the next one on
/// the same thread. Code that never takes the guard still sees whatever
/// override is in force, which is why fault-arming tests live in test
/// binaries of their own.
///
/// # Panics
///
/// Panics on an unparsable spec (tests should be loud about typos).
pub fn override_for_tests(spec: Option<&str>) -> FaultOverride {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    let config = match spec {
        Some(s) => FaultConfig::parse(s).expect("valid fault spec"),
        None => env_config().clone(),
    };
    let exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    install(config);
    FaultOverride {
        _exclusive: exclusive,
    }
}

/// Stable 64-bit key for a work item named by a string (FNV-1a).
pub fn key(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Decides whether the fault at `site` fires for the work item `key`.
///
/// Stateless and deterministic: the same `(configuration, site, key)`
/// always returns the same answer, regardless of thread interleaving or
/// how many other decisions were made before. Returns `false` (for free —
/// one relaxed read) when the site's rate is zero.
///
/// An injected fault bumps the `faults.injected.<site>` obs counter.
pub fn fire(site: Site, key: u64) -> bool {
    if armed() & (1 << site.index()) == 0 {
        return false;
    }
    let (rate, seed) = {
        let config = read_active();
        (config.rates[site.index()], config.seeds[site.index()])
    };
    if rate <= 0.0 {
        return false;
    }
    // Per-site salt keeps sites with equal seeds decorrelated; splitmix in
    // seed_from_u64 then diffuses the combined word.
    let salt = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(site.index() as u64 + 1);
    let mut rng = StdRng::seed_from_u64(seed ^ salt ^ key);
    let hit = rng.gen_bool(rate);
    if hit {
        moss_obs::counter(site.counter(), 1);
    }
    hit
}

/// The configured `oom-cap` cell budget, if any.
pub fn oom_cap() -> Option<u64> {
    if armed() & OOM_BIT == 0 {
        return None;
    }
    read_active().oom_cap
}

/// Decides whether the `oom-cap` site rejects a circuit of `cells` cells.
/// Fires (and bumps `faults.injected.oom-cap`) when a cap is configured
/// and exceeded.
pub fn fire_oom(cells: u64) -> bool {
    match oom_cap() {
        Some(cap) if cells > cap => {
            moss_obs::counter("faults.injected.oom-cap", 1);
            true
        }
        _ => false,
    }
}

/// True when any fault site can fire under the ambient configuration.
pub fn active() -> bool {
    armed() != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_inert() {
        assert!(FaultConfig::default().is_inert());
        assert!(FaultConfig::parse("").unwrap().is_inert());
    }

    #[test]
    fn parses_sites_rates_and_seeds() {
        let c = FaultConfig::parse("synth:0.25,sim:0.5:99,oom-cap:2000").unwrap();
        assert_eq!(c.rates[Site::Synth.index()], 0.25);
        assert_eq!(c.seeds[Site::Synth.index()], DEFAULT_SEED);
        assert_eq!(c.rates[Site::Sim.index()], 0.5);
        assert_eq!(c.seeds[Site::Sim.index()], 99);
        assert_eq!(c.oom_cap, Some(2000));
        assert!(!c.is_inert());
    }

    #[test]
    fn serve_site_parses_and_fires() {
        let c = FaultConfig::parse("serve:1.0:5").unwrap();
        assert_eq!(c.rates[Site::Serve.index()], 1.0);
        assert_eq!(c.seeds[Site::Serve.index()], 5);
        let _faults = override_for_tests(Some("serve:1.0"));
        assert!(fire(Site::Serve, key("any-circuit")));
    }

    #[test]
    fn store_site_parses_and_fires() {
        let c = FaultConfig::parse("store:1.0:9").unwrap();
        assert_eq!(c.rates[Site::Store.index()], 1.0);
        assert_eq!(c.seeds[Site::Store.index()], 9);
        let _faults = override_for_tests(Some("store:1.0"));
        assert!(fire(Site::Store, 0x1234));
    }

    #[test]
    fn net_site_parses_and_fires() {
        let c = FaultConfig::parse("net:1.0:11").unwrap();
        assert_eq!(c.rates[Site::Net.index()], 1.0);
        assert_eq!(c.seeds[Site::Net.index()], 11);
        let _faults = override_for_tests(Some("net:1.0"));
        assert!(fire(Site::Net, key("some-connection")));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultConfig::parse("bogus:0.1").is_err());
        assert!(FaultConfig::parse("synth").is_err());
        assert!(FaultConfig::parse("synth:2.0").is_err());
        assert!(FaultConfig::parse("synth:-0.1").is_err());
        assert!(FaultConfig::parse("synth:0.1:x").is_err());
        assert!(FaultConfig::parse("synth:0.1:1:2").is_err());
        assert!(FaultConfig::parse("oom-cap:0.5").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_key_dependent() {
        let _faults = override_for_tests(Some("synth:0.5:7"));
        let first: Vec<bool> = (0..64).map(|k| fire(Site::Synth, k)).collect();
        // Replaying in reverse order gives the same per-key answers:
        // decisions are stateless.
        let again: Vec<bool> = (0..64).rev().map(|k| fire(Site::Synth, k)).collect();
        let again: Vec<bool> = again.into_iter().rev().collect();
        assert_eq!(first, again);
        // Roughly half fire at rate 0.5 — and not all the same way.
        let hits = first.iter().filter(|&&h| h).count();
        assert!((16..=48).contains(&hits), "{hits}/64 fired");
    }

    #[test]
    fn sites_are_decorrelated_under_equal_seeds() {
        let _faults = override_for_tests(Some("synth:0.5:7,sim:0.5:7"));
        let a: Vec<bool> = (0..256).map(|k| fire(Site::Synth, k)).collect();
        let b: Vec<bool> = (0..256).map(|k| fire(Site::Sim, k)).collect();
        assert_ne!(a, b, "same seed must not mirror decisions across sites");
    }

    #[test]
    fn zero_rate_never_fires_and_one_always_fires() {
        let _faults = override_for_tests(Some("nan:0.0,io:1.0"));
        assert!((0..128).all(|k| !fire(Site::Nan, k)));
        assert!((0..128).all(|k| fire(Site::Io, k)));
    }

    #[test]
    fn oom_cap_is_a_threshold() {
        let faults = override_for_tests(Some("oom-cap:100"));
        assert!(!fire_oom(100));
        assert!(fire_oom(101));
        drop(faults);
        let _env = override_for_tests(None);
        assert!(!fire_oom(u64::MAX));
    }

    #[test]
    fn concurrent_overrides_never_see_each_others_specs() {
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    let armed = t % 2 == 0;
                    let spec = if armed { "nan:1.0" } else { "nan:0.0" };
                    start.wait();
                    for k in 0..200 {
                        let _faults = override_for_tests(Some(spec));
                        assert_eq!(fire(Site::Nan, k), armed, "thread {t} saw a foreign spec");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("override thread");
        }
    }

    #[test]
    fn dropping_the_guard_restores_the_environment_even_on_panic() {
        let env = override_for_tests(None);
        let env_fires = fire(Site::Io, 1);
        drop(env);
        let unwound = std::panic::catch_unwind(|| {
            let _faults = override_for_tests(Some("io:1.0"));
            assert!(fire(Site::Io, 1));
            panic!("a failing test body");
        });
        assert!(unwound.is_err());
        // The poisoned lock is reusable and the spec is gone.
        let _env = override_for_tests(None);
        assert_eq!(fire(Site::Io, 1), env_fires);
    }

    #[test]
    fn key_is_stable_and_discriminates() {
        assert_eq!(key("adder"), key("adder"));
        assert_ne!(key("adder"), key("adder2"));
        assert_ne!(key(""), key(" "));
    }
}
