//! Arrival-time propagation and clock-period estimation.

use moss_netlist::{CellLibrary, Levelization, Netlist, NetlistError, NodeId, NodeKind};

/// Result of static timing analysis on one netlist.
#[derive(Debug, Clone)]
pub struct TimingReport {
    arrival_ps: Vec<f64>,
    dff_arrivals: Vec<(NodeId, f64)>,
    setup_ps: f64,
}

impl TimingReport {
    /// Runs STA over `netlist` with the delay model in `lib`.
    ///
    /// Arrival time semantics:
    /// - primary inputs arrive at t = 0;
    /// - a DFF's Q output becomes valid at its clock-to-Q delay;
    /// - each combinational gate adds `intrinsic + slope × load` where load
    ///   is the summed input capacitance of all pins it drives;
    /// - the *data arrival* recorded for a DFF is the arrival at its D pin.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is invalid or combinationally cyclic.
    pub fn analyze(netlist: &Netlist, lib: &CellLibrary) -> Result<TimingReport, NetlistError> {
        let _obs = moss_obs::span_items("timing", netlist.node_count() as u64);
        if moss_faults::fire(moss_faults::Site::Sta, moss_faults::key(netlist.name())) {
            return Err(NetlistError::FaultInjected { site: "sta" });
        }
        let levels = Levelization::of(netlist)?;
        let n = netlist.node_count();

        // Output load of each node: sum of driven input-pin capacitances.
        let mut load_ff = vec![0.0f64; n];
        for id in netlist.node_ids() {
            let cap: f64 = netlist
                .fanouts(id)
                .iter()
                .map(|&f| match netlist.kind(f) {
                    NodeKind::Cell(k) => lib.timing(k).input_cap_ff,
                    // Primary outputs present a nominal pad load.
                    NodeKind::PrimaryOutput => 2.0,
                    NodeKind::PrimaryInput => 0.0,
                })
                .sum();
            load_ff[id.index()] = cap;
        }

        let mut arrival_ps = vec![0.0f64; n];
        // Sources: PIs at 0, DFF Qs at clk-to-Q (+ load-dependent drive).
        for id in netlist.node_ids() {
            if netlist.kind(id).is_dff() {
                let t = lib.timing(moss_netlist::CellKind::Dff);
                arrival_ps[id.index()] =
                    t.intrinsic_delay_ps + t.delay_per_ff * load_ff[id.index()];
            }
        }
        for &id in levels.topo_combinational() {
            let kind = match netlist.kind(id) {
                NodeKind::Cell(k) => k,
                _ => unreachable!("topo order contains cells only"),
            };
            let input_arrival = netlist
                .fanins(id)
                .iter()
                .map(|&f| arrival_ps[f.index()])
                .fold(0.0f64, f64::max);
            arrival_ps[id.index()] = input_arrival + lib.delay_ps(kind, load_ff[id.index()]);
        }
        for id in netlist.primary_outputs() {
            arrival_ps[id.index()] = arrival_ps[netlist.fanins(id)[0].index()];
        }

        let dff_arrivals = netlist
            .dffs()
            .into_iter()
            .map(|d| (d, arrival_ps[netlist.fanins(d)[0].index()]))
            .collect();

        Ok(TimingReport {
            arrival_ps,
            dff_arrivals,
            setup_ps: lib.dff_setup_ps(),
        })
    }

    /// Arrival time at a node's output, in picoseconds.
    pub fn arrival_ps(&self, id: NodeId) -> f64 {
        self.arrival_ps[id.index()]
    }

    /// Data arrival time at each DFF's D pin — the paper's per-DFF arrival
    /// time label. Ordered by DFF node id.
    pub fn dff_arrivals(&self) -> &[(NodeId, f64)] {
        &self.dff_arrivals
    }

    /// Minimum clock period that satisfies setup at every DFF.
    pub fn min_clock_period_ps(&self) -> f64 {
        self.dff_arrivals
            .iter()
            .map(|&(_, at)| at + self.setup_ps)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moss_netlist::{CellKind, CellLibrary};

    fn lib() -> CellLibrary {
        CellLibrary::default()
    }

    #[test]
    fn chain_accumulates_delay() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let g1 = nl.add_cell(CellKind::Inv, "u1", &[a]).unwrap();
        let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1]).unwrap();
        let g3 = nl.add_cell(CellKind::Inv, "u3", &[g2]).unwrap();
        nl.add_output("y", g3);
        let r = TimingReport::analyze(&nl, &lib()).unwrap();
        assert!(r.arrival_ps(g1) < r.arrival_ps(g2));
        assert!(r.arrival_ps(g2) < r.arrival_ps(g3));
        // Hand-check g1: load = 1 INV pin = 1.0 fF; delay = 8 + 2.2*1.0.
        assert!((r.arrival_ps(g1) - 10.2).abs() < 1e-9);
    }

    #[test]
    fn max_over_parallel_paths() {
        // Two paths to an AND: direct (fast) and via 2 inverters (slow).
        let mut nl = Netlist::new("recon");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell(CellKind::Inv, "u1", &[a]).unwrap();
        let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1]).unwrap();
        let g3 = nl.add_cell(CellKind::And2, "u3", &[g2, b]).unwrap();
        nl.add_output("y", g3);
        let r = TimingReport::analyze(&nl, &lib()).unwrap();
        assert!(r.arrival_ps(g3) > r.arrival_ps(g2), "slow path dominates");
    }

    #[test]
    fn dff_arrival_is_d_pin_arrival() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let g = nl.add_cell(CellKind::Xor2, "u1", &[a, a]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g]).unwrap();
        nl.add_output("q", ff);
        let r = TimingReport::analyze(&nl, &lib()).unwrap();
        let (d, at) = r.dff_arrivals()[0];
        assert_eq!(d, ff);
        assert!((at - r.arrival_ps(g)).abs() < 1e-12);
        assert!(r.min_clock_period_ps() >= at + 30.0 - 1e-9);
    }

    #[test]
    fn dff_q_launches_after_clk_to_q() {
        let mut nl = Netlist::new("launch");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
        let g = nl.add_cell(CellKind::Inv, "u1", &[ff]).unwrap();
        nl.add_output("y", g);
        let r = TimingReport::analyze(&nl, &lib()).unwrap();
        assert!(r.arrival_ps(ff) >= 55.0, "clk-to-q floor");
        assert!(r.arrival_ps(g) > r.arrival_ps(ff));
    }

    #[test]
    fn higher_fanout_means_more_delay() {
        // Same gate, two netlists differing only in fanout.
        let build = |fanout: usize| {
            let mut nl = Netlist::new("f");
            let a = nl.add_input("a");
            let g = nl.add_cell(CellKind::Inv, "u1", &[a]).unwrap();
            for i in 0..fanout {
                let s = nl.add_cell(CellKind::Buf, format!("b{i}"), &[g]).unwrap();
                nl.add_output(format!("y{i}"), s);
            }
            let r = TimingReport::analyze(&nl, &lib()).unwrap();
            r.arrival_ps(g)
        };
        assert!(build(8) > build(1));
    }
}
