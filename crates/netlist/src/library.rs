//! Timing/power characterization of the standard-cell library.
//!
//! A lightweight NLDM-style model: each cell has an intrinsic delay, a
//! load-dependent delay slope, an input pin capacitance, an output drive
//! resistance proxy, switching energy and leakage power. Values are loosely
//! modeled on a 45 nm educational library (NangateOpenCell-like magnitudes)
//! — the absolute numbers only need to be internally consistent, since the
//! experiments compare prediction accuracy against ground truth produced by
//! this same library.

use crate::cell::CellKind;

/// Per-cell electrical characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Intrinsic (no-load) propagation delay, in picoseconds.
    pub intrinsic_delay_ps: f64,
    /// Additional delay per unit load capacitance, ps per fF.
    pub delay_per_ff: f64,
    /// Capacitance presented by each input pin, in femtofarads.
    pub input_cap_ff: f64,
    /// Dynamic switching energy per output transition, in femtojoules.
    pub switch_energy_fj: f64,
    /// Static leakage power, in nanowatts.
    pub leakage_nw: f64,
    /// Cell area in square micrometers.
    pub area_um2: f64,
}

/// The characterized standard-cell library.
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, CellLibrary};
///
/// let lib = CellLibrary::nangate45_like();
/// let t = lib.timing(CellKind::Nand2);
/// assert!(t.intrinsic_delay_ps > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    timings: [CellTiming; CellKind::ALL.len()],
    name: String,
}

impl CellLibrary {
    /// Builds the default library with 45 nm-like magnitudes.
    pub fn nangate45_like() -> CellLibrary {
        fn t(
            intrinsic_delay_ps: f64,
            delay_per_ff: f64,
            input_cap_ff: f64,
            switch_energy_fj: f64,
            leakage_nw: f64,
            area_um2: f64,
        ) -> CellTiming {
            CellTiming {
                intrinsic_delay_ps,
                delay_per_ff,
                input_cap_ff,
                switch_energy_fj,
                leakage_nw,
                area_um2,
            }
        }
        let mut timings = [t(10.0, 3.0, 1.0, 1.0, 10.0, 1.0); CellKind::ALL.len()];
        let entries: [(CellKind, CellTiming); 18] = [
            (CellKind::Inv, t(8.0, 2.2, 1.0, 0.6, 9.0, 0.53)),
            (CellKind::Buf, t(16.0, 1.8, 1.1, 1.0, 14.0, 0.80)),
            (CellKind::Nand2, t(12.0, 2.8, 1.2, 1.1, 15.0, 0.80)),
            (CellKind::Nand3, t(16.0, 3.4, 1.3, 1.5, 21.0, 1.06)),
            (CellKind::Nor2, t(14.0, 3.2, 1.2, 1.2, 17.0, 0.80)),
            (CellKind::Nor3, t(20.0, 4.0, 1.3, 1.6, 24.0, 1.06)),
            (CellKind::And2, t(20.0, 2.4, 1.2, 1.4, 19.0, 1.06)),
            (CellKind::And3, t(24.0, 2.6, 1.3, 1.8, 26.0, 1.33)),
            (CellKind::Or2, t(22.0, 2.4, 1.2, 1.4, 19.0, 1.06)),
            (CellKind::Or3, t(27.0, 2.6, 1.3, 1.8, 26.0, 1.33)),
            (CellKind::Xor2, t(30.0, 3.6, 1.8, 2.6, 31.0, 1.60)),
            (CellKind::Xnor2, t(31.0, 3.6, 1.8, 2.6, 31.0, 1.60)),
            (CellKind::Aoi21, t(18.0, 3.8, 1.3, 1.6, 22.0, 1.06)),
            (CellKind::Oai21, t(18.0, 3.8, 1.3, 1.6, 22.0, 1.06)),
            (CellKind::Mux2, t(26.0, 3.0, 1.5, 2.2, 28.0, 1.60)),
            (CellKind::Tie0, t(0.1, 0.1, 0.1, 0.01, 2.0, 0.27)),
            (CellKind::Tie1, t(0.1, 0.1, 0.1, 0.01, 2.0, 0.27)),
            (CellKind::Dff, t(55.0, 2.5, 1.6, 5.5, 95.0, 4.52)),
        ];
        for (kind, timing) in entries {
            timings[kind.index()] = timing;
        }
        CellLibrary {
            timings,
            name: "nangate45_like".to_owned(),
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Characterization data for `kind`.
    pub fn timing(&self, kind: CellKind) -> CellTiming {
        self.timings[kind.index()]
    }

    /// Gate delay under a given output load, in picoseconds.
    ///
    /// `delay = intrinsic + slope * load`.
    pub fn delay_ps(&self, kind: CellKind, load_ff: f64) -> f64 {
        let t = self.timing(kind);
        t.intrinsic_delay_ps + t.delay_per_ff * load_ff
    }

    /// Setup time required at a DFF's D pin, in picoseconds.
    pub fn dff_setup_ps(&self) -> f64 {
        30.0
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::nangate45_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_characterized_positively() {
        let lib = CellLibrary::nangate45_like();
        for kind in CellKind::ALL {
            let t = lib.timing(kind);
            assert!(t.intrinsic_delay_ps > 0.0, "{kind}");
            assert!(t.delay_per_ff > 0.0, "{kind}");
            assert!(t.input_cap_ff > 0.0, "{kind}");
            assert!(t.switch_energy_fj > 0.0, "{kind}");
            assert!(t.leakage_nw > 0.0, "{kind}");
            assert!(t.area_um2 > 0.0, "{kind}");
        }
    }

    #[test]
    fn delay_grows_with_load() {
        let lib = CellLibrary::default();
        let light = lib.delay_ps(CellKind::Nand2, 1.0);
        let heavy = lib.delay_ps(CellKind::Nand2, 10.0);
        assert!(heavy > light);
    }

    #[test]
    fn dff_is_slowest_and_leakiest() {
        let lib = CellLibrary::default();
        let dff = lib.timing(CellKind::Dff);
        for kind in CellKind::ALL {
            if kind != CellKind::Dff {
                assert!(dff.leakage_nw > lib.timing(kind).leakage_nw);
            }
        }
    }
}
