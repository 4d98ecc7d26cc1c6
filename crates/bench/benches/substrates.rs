//! Benches for the EDA substrates: synthesis, simulation and static timing
//! analysis throughput (moss-benchkit harness).
//!
//! Run with `cargo bench -p moss-bench --bench substrates`.

use std::time::Duration;

use moss_benchkit::Suite;
use moss_netlist::CellLibrary;
use moss_sim::GateSim;
use moss_synth::{synthesize, SynthOptions};
use moss_timing::TimingReport;

fn bench_synthesis(suite: &mut Suite) {
    for m in [
        moss_datagen::max_selector(5, 8),
        moss_datagen::signed_mac(10, 12),
    ] {
        suite.bench(&format!("synthesis/{}", m.name()), || {
            std::hint::black_box(synthesize(&m, &SynthOptions::default()).expect("synthesizes"));
        });
    }
}

fn bench_simulation(suite: &mut Suite) {
    for m in [
        moss_datagen::prbs_generator(6, 16),
        moss_datagen::wb_data_mux(32, 38),
    ] {
        let synth = synthesize(&m, &SynthOptions::default()).expect("synthesizes");
        let name = format!(
            "simulation_1k_cycles/{}_{}c",
            m.name(),
            synth.netlist.cell_count()
        );
        suite.bench(&name, || {
            let mut sim = GateSim::new(&synth.netlist).expect("valid");
            std::hint::black_box(moss_sim::simulate_random(&mut sim, 1_000, 7));
        });
    }
}

fn bench_sta(suite: &mut Suite) {
    let lib = CellLibrary::default();
    for m in [
        moss_datagen::signed_mac(10, 12),
        moss_datagen::mult_16x32_to_48(),
    ] {
        let synth = synthesize(&m, &SynthOptions::default()).expect("synthesizes");
        let name = format!(
            "static_timing_analysis/{}_{}c",
            m.name(),
            synth.netlist.cell_count()
        );
        suite.bench(&name, || {
            std::hint::black_box(TimingReport::analyze(&synth.netlist, &lib).expect("analyzes"));
        });
    }
}

fn main() {
    let mut suite = Suite::new("substrates")
        .with_budget(Duration::from_millis(100), Duration::from_millis(500));
    bench_synthesis(&mut suite);
    bench_simulation(&mut suite);
    bench_sta(&mut suite);
}
