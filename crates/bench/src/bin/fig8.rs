//! Regenerates **Fig. 8**: global alignment loss curves — (a) total
//! (stabilizing near a constant), (b) RNC, (c) RNM (reaching ≈ 0) — over the
//! multimodal alignment epochs.
//!
//! Usage: `cargo run -p moss-bench --bin fig8 --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::MossVariant;
use moss_bench::pipeline::{build_samples, build_world, train_variant};
use moss_bench::run::{PipelineError, RunManifest};

fn main() -> ExitCode {
    moss_bench::run::run_experiment("fig8", real_main)
}

fn real_main(manifest: &mut RunManifest) -> Result<(), PipelineError> {
    let config = moss_bench::config_from_args();
    eprintln!("# building world…");
    let world = build_world(config);
    eprintln!("# building ground truth…");
    let samples = build_samples(&world, &moss_datagen::benchmark_suite(), manifest)?;
    eprintln!(
        "# training full MOSS (pretrain {} + align {} epochs)…",
        config.train.pretrain_epochs, config.train.align_epochs
    );
    let run = train_variant(&world, MossVariant::Full, &samples, manifest)?;

    println!("\nFig. 8 — global losses in the multimodal alignment section (reproduced)");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "epoch", "total", "rnc", "rnm", "rrndm"
    );
    for (e, h) in run.align.iter().enumerate() {
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            e + 1,
            h.total,
            h.rnc,
            h.rnm,
            h.rrndm
        );
    }
    match (run.align.first(), run.align.last()) {
        (Some(first), Some(last)) => println!(
            "\nrnc {:.4} → {:.4}; rnm {:.4} → {:.4}; paper shape: total stabilizes, RNM → ~0.002",
            first.rnc, last.rnc, first.rnm, last.rnm
        ),
        _ => eprintln!("moss: fig8: no alignment epochs ran (all circuits skipped?)"),
    }
    Ok(())
}
