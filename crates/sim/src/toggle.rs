//! Random-stimulus simulation and toggle-rate ground truth.
//!
//! Replaces the paper's VCS flow: "Toggle Rate is derived from VCS
//! simulations over 60,000 cycles with random inputs" (§V-A). The toggle
//! rate of a node is the fraction of clock cycles on which its sampled value
//! changes.

use moss_netlist::{Netlist, NetlistError, NodeId};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};

use crate::compiled::{CompiledSim, ToggleAccum};
use crate::sim::GateSim;

/// Per-node toggle statistics from a random-stimulus run.
#[derive(Debug, Clone, PartialEq)]
pub struct ToggleReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-node toggle counts, indexed by node id.
    pub toggles: Vec<u64>,
    /// Per-node count of cycles sampled at logic 1 (for signal
    /// probability).
    pub ones: Vec<u64>,
}

impl ToggleReport {
    /// Toggle rate of one node: toggles per cycle in `[0, 1]`.
    pub fn rate(&self, id: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[id.index()] as f64 / self.cycles as f64
        }
    }
}

/// Simulates `cycles` clock cycles with uniform-random primary inputs and
/// counts per-node toggles.
///
/// Input values are redrawn every cycle; initial DFF state is whatever `sim`
/// currently holds (apply resets with [`GateSim::set_state`] first).
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist};
/// use moss_sim::{GateSim, simulate_random};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_cell(CellKind::Inv, "u1", &[a])?;
/// nl.add_output("y", g);
/// let mut sim = GateSim::new(&nl)?;
/// let report = simulate_random(&mut sim, 1000, 42);
/// // A free-running random input toggles roughly half the time.
/// assert!((report.rate(a) - 0.5).abs() < 0.1);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn simulate_random(sim: &mut GateSim, cycles: u64, seed: u64) -> ToggleReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = sim.netlist().primary_inputs();
    let n = sim.netlist().node_count();
    let mut toggles = vec![0u64; n];
    let mut ones = vec![0u64; n];
    let mut prev: Vec<bool> = sim.values().to_vec();
    for _ in 0..cycles {
        for &pi in &inputs {
            sim.set_input(pi, rng.gen_bool(0.5));
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
    ToggleReport {
        cycles,
        toggles,
        ones,
    }
}

/// Like [`simulate_random`], but on the compiled engine with fused toggle
/// counting — bit-identical results (same PRNG stream, same sampled
/// semantics), several times the throughput.
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist};
/// use moss_sim::{simulate_random, simulate_random_compiled, CompiledSim, GateSim};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_cell(CellKind::Xor2, "u1", &[a, a])?;
/// nl.add_output("y", g);
/// let slow = simulate_random(&mut GateSim::new(&nl)?, 500, 9);
/// let fast = simulate_random_compiled(&mut CompiledSim::new(&nl)?, 500, 9);
/// assert_eq!(slow, fast);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn simulate_random_compiled(sim: &mut CompiledSim, cycles: u64, seed: u64) -> ToggleReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = sim.netlist().primary_inputs();
    let mut acc = ToggleAccum::new(sim);
    for _ in 0..cycles {
        for &pi in &inputs {
            sim.set_input(pi, rng.gen_bool(0.5));
        }
        sim.step_count(&mut acc);
    }
    ToggleReport {
        cycles: acc.cycles(),
        toggles: acc.toggles().to_vec(),
        ones: acc.ones().to_vec(),
    }
}

/// Convenience: build a simulator, apply DFF reset states, and run a random
/// toggle-rate collection in one call.
///
/// Runs on [`CompiledSim`]; the result is bit-identical to driving
/// [`GateSim`] with [`simulate_random`] (the differential tests pin this).
///
/// `resets` pairs DFF node ids with their initial values.
///
/// # Errors
///
/// Propagates netlist validation errors from [`CompiledSim::new`].
pub fn toggle_rates(
    netlist: &Netlist,
    resets: &[(NodeId, bool)],
    cycles: u64,
    seed: u64,
) -> Result<ToggleReport, NetlistError> {
    let mut sim = CompiledSim::new(netlist)?;
    for &(dff, v) in resets {
        sim.set_state(dff, v);
    }
    sim.settle();
    Ok(simulate_random_compiled(&mut sim, cycles, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moss_netlist::CellKind;

    #[test]
    fn toggle_flop_toggles_every_cycle() {
        // q' = !q toggles once per cycle regardless of inputs.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u", &[ff]).unwrap();
        nl.replace_fanin(ff, 0, inv).unwrap();
        nl.add_output("y", ff);
        let report = toggle_rates(&nl, &[], 100, 1).unwrap();
        assert_eq!(report.rate(ff), 1.0);
        assert_eq!(report.rate(inv), 1.0);
    }

    #[test]
    fn constant_nodes_never_toggle() {
        let mut nl = Netlist::new("t");
        let _a = nl.add_input("a");
        let t1 = nl.add_cell(CellKind::Tie1, "t1", &[]).unwrap();
        nl.add_output("y", t1);
        let report = toggle_rates(&nl, &[], 200, 7).unwrap();
        assert_eq!(report.rate(t1), 0.0);
    }

    #[test]
    fn xor_of_independent_inputs_toggles_about_half() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell(CellKind::Xor2, "u", &[a, b]).unwrap();
        nl.add_output("y", g);
        let report = toggle_rates(&nl, &[], 4000, 3).unwrap();
        assert!(
            (report.rate(g) - 0.5).abs() < 0.05,
            "rate {}",
            report.rate(g)
        );
    }

    #[test]
    fn and_gate_toggles_less_than_inputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell(CellKind::And2, "u", &[a, b]).unwrap();
        nl.add_output("y", g);
        let report = toggle_rates(&nl, &[], 4000, 9).unwrap();
        // AND output is 1 only 1/4 of the time: toggle probability 2*1/4*3/4.
        assert!((report.rate(g) - 0.375).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        nl.add_output("y", ff);
        let r1 = toggle_rates(&nl, &[], 500, 11).unwrap();
        let r2 = toggle_rates(&nl, &[], 500, 11).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn compiled_matches_gatesim_on_toggle_flop() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u", &[ff]).unwrap();
        nl.replace_fanin(ff, 0, inv).unwrap();
        nl.add_output("y", ff);
        let reference = simulate_random(&mut GateSim::new(&nl).unwrap(), 300, 21);
        let compiled = simulate_random_compiled(&mut CompiledSim::new(&nl).unwrap(), 300, 21);
        assert_eq!(reference, compiled);
    }

    #[test]
    fn reset_state_affects_first_cycle() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        let y = nl.add_output("y", ff);
        let mut sim = GateSim::new(&nl).unwrap();
        sim.set_state(ff, true);
        sim.settle();
        assert!(sim.value(y));
    }
}
