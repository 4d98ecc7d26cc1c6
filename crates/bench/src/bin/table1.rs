//! Regenerates **Table I**: ATP/TRP/PP accuracy of DeepSeq2, MOSS w/o FAA,
//! MOSS w/o AA, MOSS w/o A and full MOSS on the eight benchmark circuits.
//!
//! Usage: `cargo run -p moss-bench --bin table1 --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::MossVariant;
use moss_bench::pipeline::{
    averages, build_samples_variant, build_world, evaluate_on, prepare_for, train_baseline,
    train_variant, CircuitScores,
};
use moss_bench::run::{PipelineError, RunManifest};

fn main() -> ExitCode {
    moss_bench::run::run_experiment("table1", real_main)
}

fn real_main(manifest: &mut RunManifest) -> Result<(), PipelineError> {
    let config = moss_bench::config_from_args();
    eprintln!(
        "# building world (encoder fine-tune, {} corpus designs)…",
        config.corpus_size
    );
    let world = build_world(config);
    // Generalization protocol, mirroring the paper: train on a corpus of
    // *other* designs (smaller/larger cousins from the same structural
    // families plus random designs), then evaluate on the eight canonical
    // benchmark circuits, which the models never saw.
    eprintln!("# building ground truth (training corpus + held-out benchmarks)…");
    let mut train_modules = vec![
        moss_datagen::max_selector(4, 6),
        moss_datagen::max_selector(7, 10),
        moss_datagen::pipeline_reg(6, 8),
        moss_datagen::pipeline_reg(14, 12),
        moss_datagen::prbs_generator(3, 12),
        moss_datagen::prbs_generator(8, 20),
        moss_datagen::shift_reg(12, 10),
        moss_datagen::shift_reg(30, 16),
        moss_datagen::error_logger(12, 10),
        moss_datagen::error_logger(30, 20),
        moss_datagen::signed_mac(7, 9),
        moss_datagen::signed_mac(12, 14),
        moss_datagen::wb_data_mux(16, 24),
        moss_datagen::wb_data_mux(40, 30),
        moss_datagen::signed_mac(14, 18),
    ];
    for s in 0..5u64 {
        train_modules.push(moss_datagen::random_module(
            0x7a41 + s,
            moss_datagen::SizeClass::Medium,
        ));
    }
    let modules = moss_datagen::benchmark_suite();
    let train_samples = build_samples_variant(&world, &train_modules, 0, manifest)?;
    let eval_samples = build_samples_variant(&world, &modules, 0, manifest)?;
    let cells: Vec<usize> = eval_samples.iter().map(|s| s.cell_count()).collect();

    eprintln!("# training DeepSeq2 baseline…");
    let baseline = train_baseline(&world, &train_samples, manifest)?;
    let preps = prepare_for(
        &world,
        &baseline.model,
        &baseline.store,
        &eval_samples,
        manifest,
    )?;
    let mut columns = vec![(
        "DeepSeq2",
        evaluate_on(&baseline.model, &baseline.store, &preps),
    )];
    for variant in MossVariant::ALL {
        if variant == MossVariant::WithoutAlignment {
            continue; // scored from the full run below
        }
        eprintln!("# training {}…", variant.label());
        let run = train_variant(&world, variant, &train_samples, manifest)?;
        let preps = prepare_for(
            &world,
            &run.model,
            &run.feature_store,
            &eval_samples,
            manifest,
        )?;
        if variant == MossVariant::Full {
            // "MOSS w/o A" pretrains exactly like MOSS, and alignment
            // leaves the trunk frozen: it is MOSS's pre-alignment snapshot,
            // and the two columns are equal by construction.
            eprintln!("# scoring MOSS w/o A: MOSS's pre-alignment snapshot…");
            columns.push((
                MossVariant::WithoutAlignment.label(),
                evaluate_on(&run.model, &run.feature_store, &preps),
            ));
        }
        columns.push((variant.label(), evaluate_on(&run.model, &run.store, &preps)));
    }

    // Render the table. Scores are looked up by circuit name: a circuit
    // skipped at the prepare stage for one column still renders for the
    // others, with dashes in the gap.
    println!("\nTable I — Performance Comparison of MOSS Framework Variants (reproduced)");
    print!("{:<18} {:>6}", "Circuit", "#Cells");
    for (name, _) in &columns {
        print!(" | {name:^20}");
    }
    println!();
    print!("{:<18} {:>6}", "", "");
    for _ in &columns {
        print!(" | {:>6} {:>6} {:>6}", "ATP", "TRP", "PP");
    }
    println!();
    for (i, sample) in eval_samples.iter().enumerate() {
        print!("{:<18} {:>6}", sample.name, cells[i]);
        for (_, scores) in &columns {
            match scores
                .iter()
                .find(|s: &&CircuitScores| s.name == sample.name)
            {
                Some(s) => print!(" | {:>6.1} {:>6.1} {:>6.1}", s.atp, s.trp, s.pp),
                None => print!(" | {:>6} {:>6} {:>6}", "-", "-", "-"),
            }
        }
        println!();
    }
    print!("{:<18} {:>6}", "Average", "-");
    for (_, scores) in &columns {
        match averages(scores) {
            Some((atp, trp, pp)) => print!(" | {atp:>6.1} {trp:>6.1} {pp:>6.1}"),
            None => print!(" | {:>6} {:>6} {:>6}", "-", "-", "-"),
        }
    }
    println!();
    println!("\npaper averages: DeepSeq2 79.1/76.4/88.4 | w/o FAA 45.6/57.1/75.1 | w/o AA 80.3/81.0/90.7 | w/o A 94.9/87.0/95.1 | MOSS 95.2/87.5/96.3");
    Ok(())
}
