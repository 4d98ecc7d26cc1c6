//! Per-circuit degradation for the experiment pipeline: a circuit that
//! fails any stage (synthesis, label generation, preparation, I/O) is
//! skipped and recorded instead of panicking the whole run, a failure
//! budget aborts runs that degrade too far, and every skip lands in a JSON
//! run manifest for post-mortem.
//!
//! Environment:
//!
//! - `MOSS_MAX_FAILED_FRAC` — failure budget as a fraction of attempted
//!   circuits (default `0.25`). Exceeding it aborts the run with
//!   [`PipelineError::BudgetExceeded`].
//! - `MOSS_RUN_MANIFEST` — path to write the JSON manifest to on
//!   [`RunManifest::finish`] (no file is written when unset; the stderr
//!   summary still prints when circuits were skipped).

use std::fmt;
use std::io;
use std::process::ExitCode;

use moss_netlist::NetlistError;
use moss_synth::SynthError;

/// Default failure budget: abort once more than a quarter of attempted
/// circuits have failed.
pub const DEFAULT_MAX_FAILED_FRAC: f64 = 0.25;

/// Why one circuit was dropped from the run.
#[derive(Debug)]
pub enum StageError {
    /// Synthesis or ground-truth labeling failed (covers the `synth`,
    /// `sim`, `sta`, and `oom-cap` fault sites plus organic errors).
    Synth(SynthError),
    /// Netlist-level preparation failed.
    Netlist(NetlistError),
    /// Checkpoint or manifest I/O failed.
    Io(io::Error),
}

impl StageError {
    /// Whether this failure was a rehearsed (injected) fault rather than
    /// an organic bug.
    pub fn is_fault_injected(&self) -> bool {
        match self {
            StageError::Synth(e) => e.is_fault_injected(),
            StageError::Netlist(e) => e.is_fault_injected(),
            StageError::Io(e) => e.to_string().contains("injected fault"),
        }
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Synth(e) => write!(f, "{e}"),
            StageError::Netlist(e) => write!(f, "{e}"),
            StageError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<SynthError> for StageError {
    fn from(e: SynthError) -> StageError {
        StageError::Synth(e)
    }
}

impl From<NetlistError> for StageError {
    fn from(e: NetlistError) -> StageError {
        StageError::Netlist(e)
    }
}

impl From<io::Error> for StageError {
    fn from(e: io::Error) -> StageError {
        StageError::Io(e)
    }
}

/// One skipped circuit: who, where, why.
#[derive(Debug)]
pub struct SkipRecord {
    /// Circuit (module) name.
    pub circuit: String,
    /// Pipeline stage that failed (`"build"`, `"prepare"`, …).
    pub stage: &'static str,
    /// The error that caused the skip.
    pub error: StageError,
}

/// The run aborted instead of degrading further.
#[derive(Debug)]
pub enum PipelineError {
    /// More than `budget` of the attempted circuits failed.
    BudgetExceeded {
        /// Circuits that failed a stage.
        failed: usize,
        /// Circuits attempted so far.
        attempted: usize,
        /// `failed / attempted`.
        frac: f64,
        /// The configured budget (`MOSS_MAX_FAILED_FRAC`).
        budget: f64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::BudgetExceeded {
                failed,
                attempted,
                frac,
                budget,
            } => write!(
                f,
                "failure budget exceeded: {failed}/{attempted} circuits failed \
                 ({:.0}% > {:.0}% budget; set MOSS_MAX_FAILED_FRAC to adjust)",
                frac * 100.0,
                budget * 100.0
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Tracks per-circuit outcomes across a run and renders the JSON manifest.
#[derive(Debug)]
pub struct RunManifest {
    label: String,
    attempted: usize,
    succeeded: usize,
    skips: Vec<SkipRecord>,
    max_failed_frac: f64,
}

impl RunManifest {
    /// A manifest for the run labeled `label` (the binary name, usually),
    /// with the failure budget from `MOSS_MAX_FAILED_FRAC` (default
    /// [`DEFAULT_MAX_FAILED_FRAC`]; malformed values fall back to it with
    /// a warning).
    pub fn new(label: impl Into<String>) -> RunManifest {
        let max_failed_frac = match std::env::var("MOSS_MAX_FAILED_FRAC") {
            Ok(v) => match v.trim().parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => f,
                _ => {
                    eprintln!(
                        "moss: ignoring malformed MOSS_MAX_FAILED_FRAC '{v}' \
                         (want a fraction in [0, 1])"
                    );
                    DEFAULT_MAX_FAILED_FRAC
                }
            },
            Err(_) => DEFAULT_MAX_FAILED_FRAC,
        };
        RunManifest {
            label: label.into(),
            attempted: 0,
            succeeded: 0,
            skips: Vec::new(),
            max_failed_frac,
        }
    }

    /// Records one circuit that made it through a stage.
    pub fn record_success(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    /// Records one skipped circuit.
    pub fn record_skip(
        &mut self,
        circuit: impl Into<String>,
        stage: &'static str,
        error: StageError,
    ) {
        moss_obs::counter("pipeline.skipped_circuits", 1);
        self.attempted += 1;
        self.skips.push(SkipRecord {
            circuit: circuit.into(),
            stage,
            error,
        });
    }

    /// Circuits skipped so far.
    pub fn skips(&self) -> &[SkipRecord] {
        &self.skips
    }

    /// Circuits attempted so far (successes + skips).
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Errors if the failed fraction exceeds the budget. Call after each
    /// pipeline stage; a budget hit is the *run's* failure, not one
    /// circuit's.
    pub fn check_budget(&self) -> Result<(), PipelineError> {
        if self.attempted == 0 {
            return Ok(());
        }
        let failed = self.skips.len();
        let frac = failed as f64 / self.attempted as f64;
        if frac > self.max_failed_frac {
            return Err(PipelineError::BudgetExceeded {
                failed,
                attempted: self.attempted,
                frac,
                budget: self.max_failed_frac,
            });
        }
        Ok(())
    }

    /// The manifest as JSON (hand-rolled; the workspace carries no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", escape_json(&self.label)));
        out.push_str(&format!("  \"attempted\": {},\n", self.attempted));
        out.push_str(&format!("  \"succeeded\": {},\n", self.succeeded));
        out.push_str(&format!(
            "  \"max_failed_frac\": {},\n",
            self.max_failed_frac
        ));
        out.push_str("  \"skipped\": [");
        for (i, s) in self.skips.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"circuit\": \"{}\", \"stage\": \"{}\", \"error\": \"{}\", \"fault_injected\": {}}}",
                escape_json(&s.circuit),
                escape_json(s.stage),
                escape_json(&s.error.to_string()),
                s.error.is_fault_injected()
            ));
        }
        if !self.skips.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the manifest to `MOSS_RUN_MANIFEST` (when set) and prints a
    /// one-line stderr summary when circuits were skipped. Call once at the
    /// end of the run, whether it completed or aborted.
    pub fn finish(&self) {
        if let Ok(path) = std::env::var("MOSS_RUN_MANIFEST") {
            if !path.is_empty() {
                if let Err(e) = std::fs::write(&path, self.to_json()) {
                    eprintln!("moss: failed to write run manifest {path}: {e}");
                }
            }
        }
        if !self.skips.is_empty() {
            eprintln!(
                "moss: {}: skipped {}/{} circuits ({} fault-injected):",
                self.label,
                self.skips.len(),
                self.attempted,
                self.skips
                    .iter()
                    .filter(|s| s.error.is_fault_injected())
                    .count()
            );
            for s in &self.skips {
                eprintln!("moss:   {} [{}]: {}", s.circuit, s.stage, s.error);
            }
        }
    }
}

/// The whole `main` of an experiment binary: opens the observability
/// session, runs `body` against a fresh [`RunManifest`] labelled `name`,
/// finishes the manifest, and turns an abort into
/// `moss: <name> aborted: <error>` on stderr plus a failing exit code. The
/// run report is emitted last, after the abort message.
pub fn run_experiment(
    name: &str,
    body: impl FnOnce(&mut RunManifest) -> Result<(), PipelineError>,
) -> ExitCode {
    let _obs = moss_obs::session();
    let mut manifest = RunManifest::new(name);
    let result = body(&mut manifest);
    manifest.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("moss: {name} aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injected() -> StageError {
        StageError::Synth(SynthError::FaultInjected { site: "synth" })
    }

    #[test]
    fn budget_allows_quarter_by_default() {
        let mut m = RunManifest::new("t");
        for _ in 0..3 {
            m.record_success();
        }
        m.record_skip("c1", "build", injected());
        // 1/4 == 0.25: not *above* the budget.
        assert!(m.check_budget().is_ok());
        m.record_skip("c2", "build", injected());
        let err = m.check_budget().unwrap_err();
        assert!(err.to_string().contains("2/5"), "{err}");
    }

    #[test]
    fn manifest_json_lists_skips_with_fault_flag() {
        let mut m = RunManifest::new("tab\"le1");
        m.record_success();
        m.record_skip("b01", "build", injected());
        m.record_skip(
            "b02",
            "prepare",
            StageError::Netlist(NetlistError::Verilog(moss_netlist::ParseError::new(
                1,
                1,
                moss_netlist::ParseErrorKind::UnknownCell { cell: "x".into() },
            ))),
        );
        let json = m.to_json();
        assert!(json.contains("\"label\": \"tab\\\"le1\""));
        assert!(json.contains("\"attempted\": 3"));
        assert!(json.contains("\"succeeded\": 1"));
        assert!(json.contains("\"circuit\": \"b01\""));
        assert!(json.contains("\"fault_injected\": true"));
        assert!(json.contains("\"fault_injected\": false"));
    }

    #[test]
    fn empty_manifest_is_valid_json_with_empty_list() {
        let m = RunManifest::new("t");
        let json = m.to_json();
        assert!(json.contains("\"skipped\": []"));
        assert!(m.check_budget().is_ok(), "empty run has no failures");
    }
}
