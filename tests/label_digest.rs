//! Label oracle: one FNV-1a digest over the simulation ground truth the
//! data pipeline produces for a fixed corpus.
//!
//! The constant was recorded from a known-good simulator, so any change
//! to a toggle rate, a signal probability, the power derived from them,
//! the stimulus draw order, or the state the simulator is left in moves
//! the digest. Folded in order:
//!
//! - `labels_to_record(..).digest()` of `corpus_module` designs labeled at
//!   0, 1, 63, 64, 65, 128, 129 and 4096 random-stimulus cycles, which
//!   covers both sides of every 64-cycle boundary plus a long run;
//! - the same for the synthesized Table I suite at 65 and 2048 cycles;
//! - `simulate_random_compiled` toggle and ones counts plus the settled
//!   `values()` after the run, on `random_netlist`s at the same cycle
//!   counts, from power-on state and from random DFF resets.

use moss::{labels_to_record, LabeledCircuit, SampleOptions};
use moss_netlist::{CellLibrary, Netlist};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_sim::{simulate_random_compiled, CompiledSim};

/// Digest of the corpus below.
const PINNED_DIGEST: u64 = 0x0018_1bb3_dfba_180b;

/// Cycle counts on both sides of the 64-cycle boundaries, plus a long run.
const CYCLES: [u64; 8] = [0, 1, 63, 64, 65, 128, 129, 4096];

struct Digest(u64);

impl Digest {
    fn num(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Labels `module` at `cycles` and folds its canonical record digest,
    /// or the error text when the design does not label.
    fn label(&mut self, module: &moss_rtl::Module, lib: &CellLibrary, cycles: u64, seed: u64) {
        let options = SampleOptions {
            sim_cycles: cycles,
            seed,
            ..SampleOptions::default()
        };
        match LabeledCircuit::build(module, lib, &options, None) {
            Ok(lc) => self.num(labels_to_record(&lc.netlist, &lc.labels).digest()),
            Err(e) => {
                for b in e.to_string().bytes() {
                    self.num(u64::from(b));
                }
            }
        }
    }

    /// Runs `simulate_random_compiled` on `netlist` and folds the report
    /// and every node's value after the run.
    fn simulate(
        &mut self,
        netlist: &Netlist,
        resets: &[(moss_netlist::NodeId, bool)],
        cycles: u64,
    ) {
        let mut sim = CompiledSim::new(netlist).expect("valid netlist");
        for &(dff, v) in resets {
            sim.set_state(dff, v);
        }
        sim.settle();
        let report = simulate_random_compiled(&mut sim, cycles, cycles ^ 0x5eed);
        self.num(report.cycles);
        for (&t, &o) in report.toggles.iter().zip(&report.ones) {
            self.num(t);
            self.num(o);
        }
        for v in sim.values() {
            self.num(u64::from(v));
        }
    }
}

#[test]
fn labels_match_the_pinned_digest() {
    let lib = CellLibrary::default();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);

    let root = 0x1abe_1d16u64;
    for i in 0..6usize {
        let module = moss_datagen::corpus_module(root, i);
        for cycles in CYCLES {
            digest.label(&module, &lib, cycles, root ^ ((i as u64) << 8));
        }
    }

    for module in moss_datagen::benchmark_suite() {
        for cycles in [65, 2048] {
            digest.label(&module, &lib, cycles, 0x5eed);
        }
    }

    let mut rng = StdRng::seed_from_u64(0x7e57);
    for seed in 0..6u64 {
        let netlist = moss_datagen::random_netlist(seed, 40 + 50 * seed as usize);
        let resets: Vec<_> = netlist
            .dffs()
            .into_iter()
            .map(|d| (d, rng.gen_bool(0.5)))
            .collect();
        for cycles in CYCLES {
            digest.simulate(&netlist, &[], cycles);
            digest.simulate(&netlist, &resets, cycles);
        }
    }

    assert_eq!(
        digest.0, PINNED_DIGEST,
        "labels changed on the oracle corpus: got 0x{:016x}",
        digest.0
    );
}
