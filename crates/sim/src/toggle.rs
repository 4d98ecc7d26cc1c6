//! Random-stimulus simulation and toggle-rate ground truth.
//!
//! Replaces the paper's VCS flow: "Toggle Rate is derived from VCS
//! simulations over 60,000 cycles with random inputs" (§V-A). The toggle
//! rate of a node is the fraction of clock cycles on which its sampled value
//! changes.

use moss_netlist::{Netlist, NetlistError, NodeId, NodeKind};
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

    /// All rates, indexed by node id.
    pub fn rates(&self) -> Vec<f64> {
        (0..self.toggles.len())
            .map(|i| self.rate(NodeId::new(i)))
            .collect()
    }

    /// Signal probability of one node: fraction of cycles sampled at 1.
    pub fn probability(&self, id: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ones[id.index()] as f64 / self.cycles as f64
        }
    }

    /// Mean toggle rate across standard cells (excludes ports).
    pub fn mean_cell_rate(&self, netlist: &Netlist) -> f64 {
        let cells: Vec<NodeId> = netlist
            .node_ids()
            .filter(|&id| matches!(netlist.kind(id), NodeKind::Cell(_)))
            .collect();
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().map(|&c| self.rate(c)).sum::<f64>() / cells.len() as f64
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

/// Per-node toggle statistics from a 64-lane batched random-stimulus run.
///
/// Every lane is an independent stimulus stream; counts aggregate over all
/// lanes, so `cycles` simulated cycles yield `cycles * 64` lane-cycles of
/// samples. The per-lane cell-toggle totals expose cross-lane variance for
/// confidence estimation at a fraction of the single-lane cost.
#[derive(Debug, Clone, PartialEq)]
pub struct WideToggleReport {
    /// Cycles simulated per lane.
    pub cycles: u64,
    /// Number of parallel lanes (one per bit of the packed words).
    pub lanes: u32,
    /// Per-node toggle counts summed across all lanes.
    pub toggles: Vec<u64>,
    /// Per-node counts of lane-cycles sampled at logic 1.
    pub ones: Vec<u64>,
    /// Per-lane toggle totals summed over all standard cells.
    pub lane_cell_toggles: Vec<u64>,
}

impl WideToggleReport {
    /// Total lane-cycles sampled (`cycles * lanes`).
    pub fn lane_cycles(&self) -> u64 {
        self.cycles * u64::from(self.lanes)
    }

    /// Toggle rate of one node, averaged over all lanes.
    pub fn rate(&self, id: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[id.index()] as f64 / self.lane_cycles() as f64
        }
    }

    /// Signal probability of one node, averaged over all lanes.
    pub fn probability(&self, id: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ones[id.index()] as f64 / self.lane_cycles() as f64
        }
    }

    /// Mean toggle rate across standard cells (excludes ports).
    pub fn mean_cell_rate(&self, netlist: &Netlist) -> f64 {
        let cells = netlist.cell_count();
        if cells == 0 || self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = netlist
            .node_ids()
            .filter(|&id| matches!(netlist.kind(id), NodeKind::Cell(_)))
            .map(|id| self.toggles[id.index()])
            .sum();
        total as f64 / (self.lane_cycles() as f64 * cells as f64)
    }

    /// Each lane's mean cell toggle rate — 64 independent estimates of the
    /// circuit's activity.
    pub fn lane_mean_cell_rates(&self, netlist: &Netlist) -> Vec<f64> {
        let cells = netlist.cell_count();
        if cells == 0 || self.cycles == 0 {
            return vec![0.0; self.lanes as usize];
        }
        let denom = self.cycles as f64 * cells as f64;
        self.lane_cell_toggles
            .iter()
            .map(|&t| t as f64 / denom)
            .collect()
    }

    /// Mean cell activity and its standard error across lanes, for
    /// confidence intervals on how many cycles a toggle estimate needs.
    pub fn mean_cell_rate_confidence(&self, netlist: &Netlist) -> (f64, f64) {
        let rates = self.lane_mean_cell_rates(netlist);
        let n = rates.len() as f64;
        let mean = rates.iter().sum::<f64>() / n;
        let var = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1.0).max(1.0);
        (mean, (var / n).sqrt())
    }
}

/// Runs `cycles` clock cycles of 64 independent uniform-random stimulus
/// streams simultaneously and aggregates per-node toggle counts.
///
/// One full-word bitwise op evaluates each gate for all 64 lanes, so the
/// aggregate lane-cycle throughput is over an order of magnitude beyond the
/// single-lane path. Lane streams draw from the same seeded PRNG but are
/// distinct from the single-lane [`simulate_random`] stream.
pub fn simulate_random_wide(sim: &mut CompiledSim, cycles: u64, seed: u64) -> WideToggleReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = sim.netlist().primary_inputs();
    let mut acc = ToggleAccum::new(sim);
    for _ in 0..cycles {
        for &pi in &inputs {
            sim.set_input_word(pi, rng.next_u64());
        }
        sim.step_count_wide(&mut acc);
    }
    let lane_cell_toggles = acc.lane_cell_toggles().to_vec();
    WideToggleReport {
        cycles: acc.cycles(),
        lanes: 64,
        toggles: acc.toggles().to_vec(),
        ones: acc.ones().to_vec(),
        lane_cell_toggles,
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

/// [`toggle_rates`], batched: 64 independent stimulus streams in one run.
///
/// # Errors
///
/// Propagates netlist validation errors from [`CompiledSim::new`].
pub fn toggle_rates_wide(
    netlist: &Netlist,
    resets: &[(NodeId, bool)],
    cycles: u64,
    seed: u64,
) -> Result<WideToggleReport, NetlistError> {
    let mut sim = CompiledSim::new(netlist)?;
    for &(dff, v) in resets {
        sim.set_state(dff, v);
    }
    sim.settle_wide();
    Ok(simulate_random_wide(&mut sim, cycles, seed))
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
    fn wide_toggle_flop_toggles_in_every_lane() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u", &[ff]).unwrap();
        nl.replace_fanin(ff, 0, inv).unwrap();
        nl.add_output("y", ff);
        let report = toggle_rates_wide(&nl, &[], 100, 5).unwrap();
        assert_eq!(report.lane_cycles(), 6_400);
        assert_eq!(report.rate(ff), 1.0);
        assert_eq!(report.rate(inv), 1.0);
        // Both cells toggle once per cycle in every lane.
        for (lane, &t) in report.lane_cell_toggles.iter().enumerate() {
            assert_eq!(t, 2 * report.cycles, "lane {lane}");
        }
    }

    #[test]
    fn wide_report_agrees_with_single_lane_statistics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell(CellKind::Xor2, "u", &[a, b]).unwrap();
        nl.add_output("y", g);
        let wide = toggle_rates_wide(&nl, &[], 500, 3).unwrap();
        // 32k lane-cycles of XOR of independent inputs: rate ~0.5, with a
        // much tighter estimate than 500 single-lane cycles would give.
        assert!((wide.rate(g) - 0.5).abs() < 0.02, "rate {}", wide.rate(g));
        let (mean, stderr) = wide.mean_cell_rate_confidence(&nl);
        assert!((mean - wide.mean_cell_rate(&nl)).abs() < 1e-12);
        assert!(stderr > 0.0 && stderr < 0.05, "stderr {stderr}");
    }

    #[test]
    fn wide_report_deterministic_given_seed() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "q", &[a]).unwrap();
        nl.add_output("y", ff);
        let r1 = toggle_rates_wide(&nl, &[], 200, 11).unwrap();
        let r2 = toggle_rates_wide(&nl, &[], 200, 11).unwrap();
        assert_eq!(r1, r2);
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
