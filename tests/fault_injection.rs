//! Rehearsed-failure integration tests: with fault sites armed, the
//! pipeline degrades per circuit (skip + manifest record) instead of
//! panicking, and the failure budget turns excessive degradation into a
//! clean abort.
//!
//! The fault override is process-global, so every scenario runs inside one
//! `#[test]` of its own binary, one override guard at a time.

use moss_bench::pipeline::{build_samples, build_world, ExperimentConfig};
use moss_bench::run::{PipelineError, RunManifest};
use moss_faults::{fire, key, override_for_tests, Site};
use moss_rtl::Module;

fn modules() -> Vec<Module> {
    vec![
        moss_datagen::max_selector(3, 6),
        moss_datagen::prbs_generator(2, 8),
        moss_datagen::shift_reg(6, 6),
        moss_datagen::pipeline_reg(3, 6),
        moss_datagen::error_logger(4, 4),
        moss_datagen::signed_mac(4, 6),
    ]
}

#[test]
fn faulted_pipeline_degrades_per_circuit_and_respects_the_budget() {
    let world = build_world(ExperimentConfig::tiny());
    let modules = modules();

    // Everything fails: the budget (default 25%) must abort the run with
    // a structured error, never a panic, and the manifest must hold every
    // skip flagged as injected.
    let faults = override_for_tests(Some("synth:1.0"));
    let mut m = RunManifest::new("fault_injection");
    let err = build_samples(&world, &modules, &mut m).unwrap_err();
    let PipelineError::BudgetExceeded {
        failed, attempted, ..
    } = err;
    assert_eq!(failed, modules.len());
    assert_eq!(attempted, modules.len());
    assert_eq!(m.skips().len(), modules.len());
    assert!(m.skips().iter().all(|s| s.error.is_fault_injected()));
    assert!(m.skips().iter().all(|s| s.stage == "build"));
    drop(faults);

    // A partial rate skips exactly the circuits the fault oracle says it
    // will — `fire` is deterministic per (config, site, name) — and the
    // survivors keep flowing.
    let spec = "synth:0.3:11";
    let faults = override_for_tests(Some(spec));
    let fired: Vec<String> = modules
        .iter()
        .map(|md| md.name().to_owned())
        .filter(|n| fire(Site::Synth, key(n)))
        .collect();
    assert!(
        !fired.is_empty() && fired.len() * 4 <= modules.len(),
        "fault spec {spec} fires {}/{} — retune the seed so the scenario \
         skips some circuits yet stays inside the 25% budget",
        fired.len(),
        modules.len()
    );
    let mut m = RunManifest::new("fault_injection");
    let samples = build_samples(&world, &modules, &mut m).unwrap();
    assert_eq!(samples.len(), modules.len() - fired.len());
    let skipped: Vec<&str> = m.skips().iter().map(|s| s.circuit.as_str()).collect();
    assert_eq!(
        skipped,
        fired.iter().map(String::as_str).collect::<Vec<_>>()
    );
    assert!(m.skips().iter().all(|s| s.error.is_fault_injected()));
    assert!(samples.iter().all(|s| !fired.contains(&s.name)));
    // Survivors carry real (finite) labels.
    assert!(samples.iter().all(|s| s.labels.total_power_nw.is_finite()));
    let json = m.to_json();
    assert!(json.contains("\"fault_injected\": true"));
    drop(faults);

    // The sim site fails circuits during ground-truth simulation; the skip
    // surfaces through the same per-circuit path.
    let faults = override_for_tests(Some("sim:1.0"));
    let mut m = RunManifest::new("fault_injection");
    let err = build_samples(&world, &modules[..2], &mut m).unwrap_err();
    assert!(err.to_string().contains("failure budget exceeded"), "{err}");
    assert!(m
        .skips()
        .iter()
        .all(|s| s.error.to_string().contains("sim")));

    drop(faults);

    // Disarmed, the same inputs sail through with an empty manifest.
    let mut m = RunManifest::new("fault_injection");
    let samples = build_samples(&world, &modules, &mut m).unwrap();
    assert_eq!(samples.len(), modules.len());
    assert!(m.skips().is_empty());
}
