//! The data pipeline: one RTL design → synthesized netlist + ground-truth
//! labels + the texts both modalities consume (paper §V-A).

use moss_netlist::{canonical_hash, CellLibrary, Netlist, NodeId, NodeKind};
use moss_rtl::{describe_registers, module_summary, Module, RegisterDescription};
use moss_sim::{CompiledSim, ToggleAccum};
use moss_store::{store_key, LabelRecord, LabelStore};
use moss_synth::{synthesize, DffBinding, SynthError, SynthOptions};
use moss_timing::TimingReport;

/// Ground-truth labels for one circuit, collected the way the paper does
/// (VCS-style random simulation + PrimePower/DC-style analysis).
#[derive(Debug, Clone)]
pub struct Labels {
    /// Per-node toggle rate in `[0, 1]` (TRP supervision).
    pub toggle: Vec<f32>,
    /// Per-node signal probability (P(node = 1); DeepSeq-style
    /// probability supervision, Fig. 7b).
    pub probability: Vec<f32>,
    /// Per-DFF data arrival time in nanoseconds, ordered by DFF node id.
    pub arrival_ns: Vec<(usize, f32)>,
    /// Per-node dynamic power in nanowatts.
    pub dynamic_nw: Vec<f32>,
    /// Total circuit power (dynamic + leakage), nanowatts.
    pub total_power_nw: f64,
    /// Total leakage, nanowatts (known from the library).
    pub leakage_nw: f64,
}

/// One fully prepared training/evaluation sample.
#[derive(Debug, Clone)]
pub struct CircuitSample {
    /// The design name.
    pub name: String,
    /// The RTL module.
    pub module: Module,
    /// Printed RTL source (the LLM's global view).
    pub rtl_text: String,
    /// Functional summary text (global embedding input).
    pub summary: String,
    /// Register description prompts (DFF feature enhancement).
    pub register_descs: Vec<RegisterDescription>,
    /// The synthesized standard-cell netlist.
    pub netlist: Netlist,
    /// Register-bit → DFF bindings (RrNdM ground truth).
    pub bindings: Vec<DffBinding>,
    /// Ground-truth labels.
    pub labels: Labels,
}

/// Sample-building options.
#[derive(Debug, Clone, Copy)]
pub struct SampleOptions {
    /// Synthesis options (vary for distinct netlists per RTL).
    pub synth: SynthOptions,
    /// Random-stimulus cycles for toggle/probability ground truth
    /// (the paper uses 60 000; tests use fewer).
    pub sim_cycles: u64,
    /// Stimulus seed.
    pub seed: u64,
    /// Clock frequency for power, MHz.
    pub clock_mhz: f64,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            synth: SynthOptions::default(),
            sim_cycles: 2_048,
            seed: 0x5eed,
            clock_mhz: 500.0,
        }
    }
}

/// Runs the label pipeline (simulation + timing + power) on an already
/// synthesized netlist. This is the expensive first-touch work the label
/// store amortizes away.
fn compute_labels(
    netlist: &Netlist,
    bindings: &[DffBinding],
    lib: &CellLibrary,
    options: &SampleOptions,
) -> Result<Labels, SynthError> {
    // Simulation ground truth: toggle rates + signal probabilities,
    // on the compiled truth-table engine (bit-identical to the GateSim
    // reference — see `labels_match_gatesim_reference` below and the
    // moss-sim differential suite).
    let sim_obs = moss_obs::span_items("sim_labels", options.sim_cycles);
    moss_obs::counter("sim.lane_cycles", options.sim_cycles);
    let mut sim = CompiledSim::new(netlist)?;
    for b in bindings {
        sim.set_state(b.dff, b.reset);
    }
    sim.settle();
    let n = netlist.node_count();
    let mut acc = ToggleAccum::new(&sim);
    let mut rng_state = options.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let inputs = netlist.primary_inputs();
    for _ in 0..options.sim_cycles {
        for &pi in &inputs {
            // xorshift64* keeps this crate free of a rand dependency in
            // the hot loop and deterministic across platforms.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            sim.set_input(pi, rng_state & 1 == 1);
        }
        // Toggle counting is fused into the clock step: no per-cycle
        // pass over a values snapshot.
        sim.step_count(&mut acc);
    }
    let cycles = options.sim_cycles.max(1) as f64;
    let toggle: Vec<f32> = acc
        .toggles()
        .iter()
        .map(|&t| (t as f64 / cycles) as f32)
        .collect();
    let probability: Vec<f32> = acc
        .ones()
        .iter()
        .map(|&o| (o as f64 / cycles) as f32)
        .collect();
    drop(sim_obs);

    // Timing ground truth.
    let timing = TimingReport::analyze(netlist, lib)?;
    let arrival_ns: Vec<(usize, f32)> = timing
        .dff_arrivals()
        .iter()
        .map(|&(d, ps)| (d.index(), (ps / 1000.0) as f32))
        .collect();

    // Power ground truth.
    let mut dynamic_nw = vec![0.0f32; n];
    let mut leakage = 0.0f64;
    for id in netlist.node_ids() {
        if let NodeKind::Cell(kind) = netlist.kind(id) {
            let t = lib.timing(kind);
            dynamic_nw[id.index()] =
                toggle[id.index()] * t.switch_energy_fj as f32 * options.clock_mhz as f32;
            leakage += t.leakage_nw;
        }
    }
    let total_power_nw = dynamic_nw.iter().map(|&d| d as f64).sum::<f64>() + leakage;

    Ok(Labels {
        toggle,
        probability,
        arrival_ns,
        dynamic_nw,
        total_power_nw,
        leakage_nw: leakage,
    })
}

/// Canonical rank table: `rank[id.index()]` is the position of node `id`'s
/// name in the lexicographic sort of all node names. Node names are unique
/// within a netlist, so this is a permutation of the nodes by name alone.
/// It is not the order `canonical_form` writes (that sorts whole lines in
/// three groups, so cells by cell kind first), but like it, it depends on
/// names and not on declaration order, which makes rank-indexed label
/// records exactly as declaration-order-invariant as the store key.
fn canonical_ranks(netlist: &Netlist) -> Vec<u32> {
    let mut order: Vec<NodeId> = netlist.node_ids().collect();
    order.sort_by(|&a, &b| netlist.node(a).name().cmp(netlist.node(b).name()));
    let mut rank = vec![0u32; netlist.node_count()];
    for (r, id) in order.into_iter().enumerate() {
        rank[id.index()] = r as u32;
    }
    rank
}

/// FNV-1a digest of the DFF reset (initial) values `compute_labels` seeds
/// the simulation from, folded in canonical rank order. Reset values live
/// on [`DffBinding`]s, not in the netlist, so `canonical_hash` alone
/// cannot separate two canonically identical netlists whose registers
/// initialize differently — their labels diverge from cycle 0. This hash
/// is the extra [`store_key`] ingredient that keeps the "same key ⇒
/// bit-identical labels" invariant true, and rank ordering keeps it as
/// declaration-order-invariant as the netlist hash.
pub fn canonical_reset_hash(netlist: &Netlist, bindings: &[DffBinding]) -> u64 {
    let rank = canonical_ranks(netlist);
    let mut resets: Vec<(u32, bool)> = bindings
        .iter()
        .map(|b| (rank[b.dff.index()], b.reset))
        .collect();
    resets.sort_unstable_by_key(|&(r, _)| r);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (r, reset) in resets {
        for b in r.to_le_bytes() {
            eat(b);
        }
        eat(u8::from(reset));
    }
    h
}

/// Converts in-memory labels (node-id order) to a store record (canonical
/// name-sorted order) for `netlist`.
pub fn labels_to_record(netlist: &Netlist, labels: &Labels) -> LabelRecord {
    let rank = canonical_ranks(netlist);
    let n = netlist.node_count();
    let mut toggle = vec![0.0f32; n];
    let mut probability = vec![0.0f32; n];
    let mut dynamic_nw = vec![0.0f32; n];
    for (id, &r) in rank.iter().enumerate().take(n) {
        let r = r as usize;
        toggle[r] = labels.toggle[id];
        probability[r] = labels.probability[id];
        dynamic_nw[r] = labels.dynamic_nw[id];
    }
    let mut arrival_ns: Vec<(u32, f32)> = labels
        .arrival_ns
        .iter()
        .map(|&(id, ns)| (rank[id], ns))
        .collect();
    arrival_ns.sort_unstable_by_key(|&(r, _)| r);
    LabelRecord {
        toggle,
        probability,
        dynamic_nw,
        arrival_ns,
        total_power_nw: labels.total_power_nw,
        leakage_nw: labels.leakage_nw,
    }
}

/// Converts a store record back to node-id-ordered labels for `netlist`.
///
/// Returns `None` when the record does not fit this netlist (wrong node or
/// DFF count, an arrival rank out of range, duplicated, or out of order —
/// [`LabelRecord::arrival_ns`] is sorted by rank — or an arrival rank that
/// is not a DFF here) — the caller treats that as a miss and recomputes. This
/// guards against the astronomically unlikely key collision and against
/// records from a store whose schema drifted without a version bump.
pub fn labels_from_record(netlist: &Netlist, record: &LabelRecord) -> Option<Labels> {
    let n = netlist.node_count();
    if record.toggle.len() != n
        || record.probability.len() != n
        || record.dynamic_nw.len() != n
        || record.arrival_ns.len() != netlist.dff_count()
    {
        return None;
    }
    // Strictly increasing ranks is part of the record contract; anything
    // else (a duplicated rank in particular) would alias one DFF's arrival
    // onto another and drop a DFF from the sorted-unique-by-id STA list.
    if !record.arrival_ns.windows(2).all(|w| w[0].0 < w[1].0) {
        return None;
    }
    let rank = canonical_ranks(netlist);
    let mut id_of_rank = vec![0usize; n];
    for (id, &r) in rank.iter().enumerate() {
        id_of_rank[r as usize] = id;
    }
    let mut toggle = vec![0.0f32; n];
    let mut probability = vec![0.0f32; n];
    let mut dynamic_nw = vec![0.0f32; n];
    for id in 0..n {
        let r = rank[id] as usize;
        toggle[id] = record.toggle[r];
        probability[id] = record.probability[r];
        dynamic_nw[id] = record.dynamic_nw[r];
    }
    let mut arrival_ns = Vec::with_capacity(record.arrival_ns.len());
    for &(r, ns) in &record.arrival_ns {
        let id = *id_of_rank.get(r as usize)?;
        if !netlist.kind(NodeId::new(id)).is_dff() {
            return None;
        }
        arrival_ns.push((id, ns));
    }
    // `Labels::arrival_ns` is ordered by DFF node id (the STA contract).
    arrival_ns.sort_unstable_by_key(|&(id, _)| id);
    Some(Labels {
        toggle,
        probability,
        dynamic_nw,
        arrival_ns,
        total_power_nw: record.total_power_nw,
        leakage_nw: record.leakage_nw,
    })
}

/// The store-aware labeling core shared by the synthesis pipeline
/// ([`LabeledCircuit::build`]) and text ingestion
/// ([`LabeledCircuit::from_verilog`]): compute the store key, serve a
/// valid cached record, otherwise run simulation + STA + power and
/// publish the result.
///
/// Returns `(labels, cache_hit, key)`.
pub(crate) fn label_netlist(
    netlist: &Netlist,
    bindings: &[DffBinding],
    lib: &CellLibrary,
    options: &SampleOptions,
    store: Option<&LabelStore>,
) -> Result<(Labels, bool, Option<u64>), SynthError> {
    let key = store.map(|_| {
        store_key(
            canonical_hash(netlist),
            canonical_reset_hash(netlist, bindings),
            options.sim_cycles,
            options.seed,
            options.clock_mhz,
        )
    });
    if let (Some(st), Some(k)) = (store, key) {
        if let Some(labels) = st.load(k).and_then(|r| labels_from_record(netlist, &r)) {
            return Ok((labels, true, key));
        }
    }
    let labels = compute_labels(netlist, bindings, lib, options)?;
    if let (Some(st), Some(k)) = (store, key) {
        // Best effort: a failed publish only costs the next run a
        // recompute, never this one its labels.
        if st.store(k, &labels_to_record(netlist, &labels)).is_err() {
            moss_obs::counter("store.write_err", 1);
        }
    }
    Ok((labels, false, key))
}

/// A synthesized circuit plus ground-truth labels, with cache provenance.
/// This is the streaming-pipeline unit: unlike [`CircuitSample`] it skips
/// the text modality (RTL print, summaries, register prompts), so labeling
/// 10k circuits holds only netlists + label vectors in memory.
#[derive(Debug, Clone)]
pub struct LabeledCircuit {
    /// The synthesized standard-cell netlist.
    pub netlist: Netlist,
    /// Register-bit → DFF bindings.
    pub bindings: Vec<DffBinding>,
    /// Ground-truth labels (from the store on a hit, recomputed otherwise).
    pub labels: Labels,
    /// `true` when the labels were served from the store.
    pub cache_hit: bool,
    /// The store key, when built against a store.
    pub key: Option<u64>,
}

impl LabeledCircuit {
    /// Synthesizes `module` and obtains its labels, consulting `store`
    /// first when one is given: a valid record under
    /// `store_key(canonical_hash, reset hash, sim settings)` skips
    /// simulation, STA and power entirely; a miss (or a corrupt/ill-fitting
    /// record) recomputes and publishes the record for the next run.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthError`] if the module fails synthesis or the
    /// netlist fails analysis. Store *write* failures are swallowed (the
    /// run degrades to cold); store *read* corruption is handled inside
    /// [`LabelStore::load`] by evicting the bad record.
    pub fn build(
        module: &Module,
        lib: &CellLibrary,
        options: &SampleOptions,
        store: Option<&LabelStore>,
    ) -> Result<LabeledCircuit, SynthError> {
        let synth = synthesize(module, &options.synth)?;
        let netlist = synth.netlist;
        let bindings = synth.dffs;
        // Rehearsed resource-exhaustion: a configured `oom-cap` rejects
        // circuits whose synthesized size exceeds the cell budget, the way
        // a memory-capped worker would.
        if moss_faults::fire_oom(netlist.cell_count() as u64) {
            return Err(SynthError::FaultInjected { site: "oom-cap" });
        }

        let (labels, cache_hit, key) = label_netlist(&netlist, &bindings, lib, options, store)?;
        Ok(LabeledCircuit {
            netlist,
            bindings,
            labels,
            cache_hit,
            key,
        })
    }
}

impl CircuitSample {
    /// Runs the full ground-truth pipeline on `module`.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthError`] if the module fails synthesis or the
    /// resulting netlist fails analysis (which would indicate a synthesis
    /// bug).
    pub fn build(
        module: &Module,
        lib: &CellLibrary,
        options: &SampleOptions,
    ) -> Result<CircuitSample, SynthError> {
        Self::build_with_store(module, lib, options, None)
    }

    /// Like [`CircuitSample::build`], but serves labels from (and publishes
    /// first-touch labels to) `store` when one is given.
    ///
    /// # Errors
    ///
    /// Same as [`CircuitSample::build`].
    pub fn build_with_store(
        module: &Module,
        lib: &CellLibrary,
        options: &SampleOptions,
        store: Option<&LabelStore>,
    ) -> Result<CircuitSample, SynthError> {
        let _obs = moss_obs::span("build_sample");
        let lc = LabeledCircuit::build(module, lib, options, store)?;
        Ok(CircuitSample {
            name: module.name().to_owned(),
            rtl_text: moss_rtl::print_module(module),
            summary: module_summary(module),
            register_descs: describe_registers(module),
            module: module.clone(),
            netlist: lc.netlist,
            bindings: lc.bindings,
            labels: lc.labels,
        })
    }

    /// Cell count of the synthesized netlist.
    pub fn cell_count(&self) -> usize {
        self.netlist.cell_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_module() -> Module {
        moss_rtl::parse(
            "module cnt(input clk, input en, output [3:0] q);
               reg [3:0] s = 0;
               always @(posedge clk) s <= en ? (s + 4'd1) : s;
               assign q = s;
             endmodule",
        )
        .unwrap()
    }

    #[test]
    fn pipeline_produces_consistent_labels() {
        let m = counter_module();
        let lib = CellLibrary::default();
        let s = CircuitSample::build(&m, &lib, &SampleOptions::default()).unwrap();
        let n = s.netlist.node_count();
        assert_eq!(s.labels.toggle.len(), n);
        assert_eq!(s.labels.probability.len(), n);
        assert_eq!(s.labels.arrival_ns.len(), s.netlist.dff_count());
        assert!(s.labels.total_power_nw > s.labels.leakage_nw);
        assert!(s.labels.toggle.iter().all(|&t| (0.0..=1.0).contains(&t)));
        assert!(s
            .labels
            .probability
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
        assert!(s.labels.arrival_ns.iter().all(|&(_, a)| a > 0.0));
        assert_eq!(s.register_descs.len(), 1);
        assert!(s.rtl_text.contains("module cnt"));
    }

    #[test]
    fn deterministic_given_options() {
        let m = counter_module();
        let lib = CellLibrary::default();
        let a = CircuitSample::build(&m, &lib, &SampleOptions::default()).unwrap();
        let b = CircuitSample::build(&m, &lib, &SampleOptions::default()).unwrap();
        assert_eq!(a.labels.toggle, b.labels.toggle);
        assert_eq!(a.labels.total_power_nw, b.labels.total_power_nw);
    }

    #[test]
    fn labels_match_gatesim_reference() {
        // Re-derives toggle/probability labels with the event-driven
        // GateSim oracle (the pre-compiled-engine label path) and pins the
        // shipped CompiledSim labels to it bit-for-bit.
        let m = counter_module();
        let lib = CellLibrary::default();
        let options = SampleOptions::default();
        let sample = CircuitSample::build(&m, &lib, &options).unwrap();

        let synth = synthesize(&m, &options.synth).unwrap();
        let mut sim = moss_sim::GateSim::new(&synth.netlist).unwrap();
        for b in &synth.dffs {
            sim.set_state(b.dff, b.reset);
        }
        sim.full_settle();
        let n = synth.netlist.node_count();
        let mut toggles = vec![0u64; n];
        let mut ones = vec![0u64; n];
        let mut prev: Vec<bool> = sim.values().to_vec();
        let mut rng_state = options.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let inputs = synth.netlist.primary_inputs();
        for _ in 0..options.sim_cycles {
            for &pi in &inputs {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                sim.set_input(pi, rng_state & 1 == 1);
            }
            sim.step();
            let cur = sim.values();
            for i in 0..n {
                if cur[i] != prev[i] {
                    toggles[i] += 1;
                }
                if cur[i] {
                    ones[i] += 1;
                }
            }
            prev.copy_from_slice(cur);
        }
        let cycles = options.sim_cycles.max(1) as f64;
        let toggle: Vec<f32> = toggles
            .iter()
            .map(|&t| (t as f64 / cycles) as f32)
            .collect();
        let probability: Vec<f32> = ones.iter().map(|&o| (o as f64 / cycles) as f32).collect();
        assert_eq!(sample.labels.toggle, toggle);
        assert_eq!(sample.labels.probability, probability);
    }

    fn temp_store(tag: &str) -> LabelStore {
        let dir =
            std::env::temp_dir().join(format!("moss_core_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LabelStore::open(&dir).unwrap()
    }

    #[test]
    fn warm_store_serves_bit_identical_labels() {
        let m = counter_module();
        let lib = CellLibrary::default();
        let options = SampleOptions::default();
        let store = temp_store("warm");

        let cold = LabeledCircuit::build(&m, &lib, &options, Some(&store)).unwrap();
        assert!(!cold.cache_hit);
        let warm = LabeledCircuit::build(&m, &lib, &options, Some(&store)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.key, warm.key);

        // Bitwise equality, f64 totals included.
        assert_eq!(cold.labels.toggle, warm.labels.toggle);
        assert_eq!(cold.labels.probability, warm.labels.probability);
        assert_eq!(cold.labels.dynamic_nw, warm.labels.dynamic_nw);
        assert_eq!(cold.labels.arrival_ns, warm.labels.arrival_ns);
        assert_eq!(
            cold.labels.total_power_nw.to_bits(),
            warm.labels.total_power_nw.to_bits()
        );
        assert_eq!(
            cold.labels.leakage_nw.to_bits(),
            warm.labels.leakage_nw.to_bits()
        );

        // And identical to the store-free path.
        let plain = CircuitSample::build(&m, &lib, &options).unwrap();
        assert_eq!(plain.labels.toggle, warm.labels.toggle);
        assert_eq!(plain.labels.arrival_ns, warm.labels.arrival_ns);

        use std::sync::atomic::Ordering;
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn changed_register_init_misses_the_cache() {
        // Register reset values live on DffBindings, not in the netlist,
        // so `cnt` with `s = 0` and with `s = 5` synthesize to canonically
        // identical netlists — yet their labels diverge from cycle 0. The
        // reset hash folded into the store key must keep them apart: the
        // second build must recompute, never be served the first's labels.
        let m0 = counter_module();
        let m5 = moss_rtl::parse(
            "module cnt(input clk, input en, output [3:0] q);
               reg [3:0] s = 5;
               always @(posedge clk) s <= en ? (s + 4'd1) : s;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let lib = CellLibrary::default();
        let options = SampleOptions::default();
        let store = temp_store("reset");

        let a = LabeledCircuit::build(&m0, &lib, &options, Some(&store)).unwrap();
        let b = LabeledCircuit::build(&m5, &lib, &options, Some(&store)).unwrap();

        // The premise of the hazard: the netlists really are canonically
        // identical, so without the reset hash the keys would collide.
        assert_eq!(canonical_hash(&a.netlist), canonical_hash(&b.netlist));
        assert_ne!(
            canonical_reset_hash(&a.netlist, &a.bindings),
            canonical_reset_hash(&b.netlist, &b.bindings)
        );
        assert_ne!(a.key, b.key, "distinct resets must get distinct keys");
        assert!(!a.cache_hit);
        assert!(!b.cache_hit, "served labels for a different reset state");

        // Each key serves its own labels on the rerun.
        let a2 = LabeledCircuit::build(&m0, &lib, &options, Some(&store)).unwrap();
        let b2 = LabeledCircuit::build(&m5, &lib, &options, Some(&store)).unwrap();
        assert!(a2.cache_hit && b2.cache_hit);
        assert_eq!(a.labels.probability, a2.labels.probability);
        assert_eq!(b.labels.probability, b2.labels.probability);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Deterministic per-name label value, so the permutation tests know
    /// the ground truth for every node regardless of its id.
    fn name_value(name: &str) -> f32 {
        let h = name
            .bytes()
            .fold(0u32, |h, b| h.wrapping_mul(31).wrapping_add(b.into()));
        (h % 1000) as f32 / 1000.0
    }

    #[test]
    fn record_order_survives_declaration_reorder() {
        // A record written for one declaration order of a netlist must be
        // readable — per-node values matched by *name* — by a permuted
        // declaration of the same netlist, because the two share a store
        // key (`canonical_hash` is declaration-order-invariant). Reorder
        // the way the canon suite does: re-emit as Verilog, reverse the
        // instance lines, parse back.
        let m = counter_module();
        let options = SampleOptions::default();
        let synth = synthesize(&m, &options.synth).unwrap();
        let src = moss_netlist::write_verilog(&synth.netlist);
        let a = moss_netlist::parse_verilog(&src).unwrap();

        let mut header = Vec::new();
        let mut instances = Vec::new();
        let mut tail = Vec::new();
        for line in src.lines() {
            let t = line.trim_start();
            if t.starts_with("module") || t.starts_with("wire") {
                header.push(line);
            } else if t.starts_with("assign") || t.starts_with("endmodule") {
                tail.push(line);
            } else if !t.is_empty() {
                instances.push(line);
            }
        }
        instances.reverse();
        let shuffled: Vec<&str> = header.into_iter().chain(instances).chain(tail).collect();
        let b = moss_netlist::parse_verilog(&shuffled.join("\n")).unwrap();
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
        assert_ne!(
            a.node_ids()
                .map(|i| a.node(i).name().to_owned())
                .collect::<Vec<_>>(),
            b.node_ids()
                .map(|i| b.node(i).name().to_owned())
                .collect::<Vec<_>>(),
            "sanity: the reorder must actually permute node ids"
        );

        // Labels on `a`, every value derived from the node's name.
        let dffs_a: Vec<usize> = a
            .node_ids()
            .filter(|&i| a.kind(i).is_dff())
            .map(|i| i.index())
            .collect();
        let labels_a = Labels {
            toggle: a.node_ids().map(|i| name_value(a.node(i).name())).collect(),
            probability: a
                .node_ids()
                .map(|i| name_value(a.node(i).name()) * 0.5)
                .collect(),
            dynamic_nw: a
                .node_ids()
                .map(|i| name_value(a.node(i).name()) * 7.0)
                .collect(),
            arrival_ns: dffs_a
                .iter()
                .map(|&id| (id, 1.0 + name_value(a.node(NodeId::new(id)).name())))
                .collect(),
            total_power_nw: 123.456,
            leakage_nw: 7.89,
        };

        let record = labels_to_record(&a, &labels_a);
        let labels_b = labels_from_record(&b, &record).unwrap();

        // Every value must land on the same-named node in `b`.
        for id_b in b.node_ids() {
            let name = b.node(id_b).name();
            assert_eq!(
                labels_b.toggle[id_b.index()].to_bits(),
                name_value(name).to_bits(),
                "toggle mismatch at {name}"
            );
            assert_eq!(
                labels_b.probability[id_b.index()].to_bits(),
                (name_value(name) * 0.5).to_bits()
            );
            assert_eq!(
                labels_b.dynamic_nw[id_b.index()].to_bits(),
                (name_value(name) * 7.0).to_bits()
            );
        }
        assert_eq!(labels_b.arrival_ns.len(), b.dff_count());
        // `arrival_ns` must come back ordered by node id (the STA
        // contract) with per-DFF values following the names.
        assert!(labels_b.arrival_ns.windows(2).all(|w| w[0].0 < w[1].0));
        for &(id, ns) in &labels_b.arrival_ns {
            let name = b.node(NodeId::new(id)).name();
            assert_eq!(ns.to_bits(), (1.0 + name_value(name)).to_bits());
        }
        assert_eq!(labels_b.total_power_nw, 123.456);
        assert_eq!(labels_b.leakage_nw, 7.89);

        // Round-tripping back through a's order is the identity.
        let back = labels_from_record(&a, &labels_to_record(&b, &labels_b)).unwrap();
        assert_eq!(back.toggle, labels_a.toggle);
        assert_eq!(back.arrival_ns, labels_a.arrival_ns);
    }

    #[test]
    fn ill_fitting_record_is_rejected_not_served() {
        let m = counter_module();
        let lib = CellLibrary::default();
        let options = SampleOptions::default();
        let sample = CircuitSample::build(&m, &lib, &options).unwrap();
        let pristine = labels_to_record(&sample.netlist, &sample.labels);
        assert!(labels_from_record(&sample.netlist, &pristine).is_some());
        assert!(pristine.arrival_ns.len() >= 2, "test wants ≥ 2 DFFs");

        // Wrong node count → None.
        let mut record = pristine.clone();
        record.toggle.push(0.0);
        assert!(labels_from_record(&sample.netlist, &record).is_none());

        // Arrival rank out of range → None, not a panic. (Mutating the
        // *last* entry keeps the rank sequence strictly increasing, so
        // this exercises the bounds check, not the ordering check.)
        let mut record = pristine.clone();
        record.arrival_ns.last_mut().unwrap().0 = u32::MAX;
        assert!(labels_from_record(&sample.netlist, &record).is_none());

        // A duplicated rank would alias one DFF's arrival onto another
        // and drop a DFF from the STA list → None.
        let mut record = pristine.clone();
        record.arrival_ns[1] = record.arrival_ns[0];
        assert!(labels_from_record(&sample.netlist, &record).is_none());

        // Out-of-order (but unique) ranks violate the record contract
        // that arrivals are sorted by rank → None.
        let mut record = pristine.clone();
        record.arrival_ns.swap(0, 1);
        assert!(labels_from_record(&sample.netlist, &record).is_none());

        // Arrival rank pointing at a non-DFF node → None. Re-sorting
        // after the swap keeps ranks strictly increasing (they stay
        // unique: no non-DFF rank equals a DFF rank), so the DFF-kind
        // check is what rejects.
        let rank = canonical_ranks(&sample.netlist);
        let non_dff_rank = sample
            .netlist
            .node_ids()
            .find(|&id| !sample.netlist.kind(id).is_dff())
            .map(|id| rank[id.index()])
            .unwrap();
        let mut record = pristine.clone();
        record.arrival_ns[0].0 = non_dff_rank;
        record.arrival_ns.sort_unstable_by_key(|&(r, _)| r);
        assert!(labels_from_record(&sample.netlist, &record).is_none());
    }

    #[test]
    fn enabled_counter_toggles_lsb_half_the_time() {
        let m = counter_module();
        let lib = CellLibrary::default();
        let s = CircuitSample::build(&m, &lib, &SampleOptions::default()).unwrap();
        // LSB of the counter toggles on ~every enabled cycle (~50% of
        // cycles with a random enable).
        let lsb = s
            .bindings
            .iter()
            .find(|b| b.bit == 0)
            .map(|b| b.dff.index())
            .unwrap();
        let rate = s.labels.toggle[lsb];
        assert!((rate - 0.5).abs() < 0.1, "lsb toggle rate {rate}");
    }
}
