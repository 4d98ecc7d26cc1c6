//! Regenerates **Fig. 1(a)**: prediction error rate of a DeepSeq2-style GNN
//! versus circuit size, for toggle rate and arrival time.
//!
//! The paper's motivating experiment: existing methods' error grows sharply
//! with circuit size ("in a circuit with 2,000 gates, the prediction error
//! rate exceeds 40%"). We train the baseline on small circuits and sweep
//! evaluation circuits from ~100 to ~5000 cells; the full MOSS model is
//! swept alongside for contrast (its curve should stay flat — Table I's
//! message).
//!
//! Usage: `cargo run -p moss-bench --bin fig1a --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::MossVariant;
use moss_bench::pipeline::{build_samples, build_world, score, train_baseline, train_variant};
use moss_bench::run::{PipelineError, RunManifest};
use moss_datagen::{pipeline_reg, signed_mac};
use moss_rtl::Module;

fn main() -> ExitCode {
    moss_bench::run::run_experiment("fig1a", real_main)
}

fn real_main(manifest: &mut RunManifest) -> Result<(), PipelineError> {
    let config = moss_bench::config_from_args();
    eprintln!("# building world…");
    let world = build_world(config);

    // Training set: small circuits only (≤ ~700 cells), as a proxy for the
    // "smaller circuits" regime existing methods handle well.
    let train_modules: Vec<Module> = vec![
        pipeline_reg(3, 8),
        pipeline_reg(6, 8),
        pipeline_reg(8, 10),
        signed_mac(4, 6),
        signed_mac(6, 8),
    ];
    eprintln!("# building training ground truth…");
    let train_samples = build_samples(&world, &train_modules, manifest)?;
    eprintln!("# training DeepSeq2-style baseline on small circuits…");
    let baseline = train_baseline(&world, &train_samples, manifest)?;
    eprintln!("# training full MOSS on the same circuits…");
    let moss_run = train_variant(&world, MossVariant::Full, &train_samples, manifest)?;

    // Evaluation sweep: pipeline/mac families scaled up to ~5000 cells.
    let sweep: Vec<Module> = vec![
        pipeline_reg(2, 8),
        pipeline_reg(5, 10),
        pipeline_reg(10, 10),
        signed_mac(8, 10),
        signed_mac(10, 12),
        pipeline_reg(24, 16),
        signed_mac(14, 16),
        signed_mac(16, 24),
        signed_mac(20, 32),
    ];
    eprintln!("# building sweep ground truth…");
    let sweep_samples = build_samples(&world, &sweep, manifest)?;

    println!("\nFig. 1(a) — error rate vs circuit size (reproduced; error % = 100 − accuracy)");
    println!(
        "{:>8} {:>18} {:>18} {:>14} {:>14}",
        "#cells", "ds2_toggle_err%", "ds2_arrival_err%", "moss_tog_err%", "moss_at_err%"
    );
    let mut rows = Vec::new();
    for sample in &sweep_samples {
        // Both models must prepare the sweep point; a failure in either
        // skips the whole row (half a row would misread as a flat curve).
        let prep_b = baseline.model.prepare(
            sample,
            &world.encoder,
            &baseline.store,
            &world.lib,
            config.clock_mhz,
        );
        let prep_m = moss_run.model.prepare(
            sample,
            &world.encoder,
            &moss_run.store,
            &world.lib,
            config.clock_mhz,
        );
        let (prep_b, prep_m) = match (prep_b, prep_m) {
            (Ok(b), Ok(m)) => (b, m),
            (Err(e), _) | (_, Err(e)) => {
                manifest.record_skip(sample.name.clone(), "prepare", e.into());
                continue;
            }
        };
        manifest.record_success();
        let s_b = score(&baseline.model.predict(&baseline.store, &prep_b), &prep_b);
        let s_m = score(&moss_run.model.predict(&moss_run.store, &prep_m), &prep_m);
        rows.push((
            sample.cell_count(),
            100.0 - s_b.trp,
            100.0 - s_b.atp,
            100.0 - s_m.trp,
            100.0 - s_m.atp,
        ));
    }
    manifest.check_budget()?;
    rows.sort_by_key(|r| r.0);
    for (cells, dt, da, mt, ma) in rows {
        println!("{cells:>8} {dt:>18.1} {da:>18.1} {mt:>14.1} {ma:>14.1}");
    }
    println!("\npaper shape: baseline error grows with size (>40% at 2,000 gates); MOSS stays low");
    Ok(())
}
