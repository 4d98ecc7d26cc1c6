//! Regenerates **Fig. 7**: pre-training loss curves — (a) total,
//! (b) probability, (c) toggle, (d) arrival time — all decreasing steadily.
//!
//! Usage: `cargo run -p moss-bench --bin fig7 --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::MossVariant;
use moss_bench::pipeline::{build_samples, build_world, train_variant};
use moss_bench::run::{PipelineError, RunManifest};

fn main() -> ExitCode {
    moss_bench::run::run_experiment("fig7", real_main)
}

fn real_main(manifest: &mut RunManifest) -> Result<(), PipelineError> {
    let config = moss_bench::config_from_args();
    eprintln!("# building world…");
    let world = build_world(config);
    eprintln!("# building ground truth…");
    let samples = build_samples(&world, &moss_datagen::benchmark_suite(), manifest)?;
    eprintln!(
        "# pre-training full MOSS ({} epochs)…",
        config.train.pretrain_epochs
    );
    let run = train_variant(&world, MossVariant::Full, &samples, manifest)?;

    println!("\nFig. 7 — losses in the pre-training section (reproduced)");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "epoch", "total", "probability", "toggle", "arrival", "power"
    );
    for (e, h) in run.pretrain.iter().enumerate() {
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            e + 1,
            h.total,
            h.probability,
            h.toggle,
            h.arrival,
            h.power
        );
    }
    match (run.pretrain.first(), run.pretrain.last()) {
        (Some(first), Some(last)) => println!(
            "\ntotal {:.4} → {:.4} ({}); paper shape: all components decrease steadily",
            first.total,
            last.total,
            if last.total < first.total {
                "decreasing ✓"
            } else {
                "NOT decreasing ✗"
            },
        ),
        _ => eprintln!("moss: fig7: no pre-training epochs ran (all circuits skipped?)"),
    }
    Ok(())
}
