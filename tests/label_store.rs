//! End-to-end tests for the label store through the `labelgen`
//! binary: a cold run, a warm (fully cached) run, and a killed-and-resumed
//! run must all print the same corpus digest — bytewise-identical labels —
//! across thread counts, and a store full of corrupt records must be
//! detected, recomputed, and rewritten rather than served.
//!
//! Everything runs through subprocesses (`CARGO_BIN_EXE_labelgen`): the
//! thread pool sizes itself from `MOSS_THREADS` once per process,
//! and an `--abort-after` exit is a process death by design.

use std::path::PathBuf;
use std::process::Command;

struct Run {
    stdout: String,
    stderr: String,
    code: i32,
}

impl Run {
    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with("labels digest:"))
            .unwrap_or_else(|| {
                panic!(
                    "no digest line in stdout:\n{}\n{}",
                    self.stdout, self.stderr
                )
            })
    }

    fn stat(&self, needle: &str) -> bool {
        self.stderr.contains(needle)
    }
}

/// Runs labelgen with a scrubbed environment plus `envs`.
fn labelgen(args: &[&str], envs: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_labelgen"));
    cmd.args(args);
    for k in [
        "MOSS_LABEL_STORE",
        "MOSS_FAULTS",
        "MOSS_THREADS",
        "MOSS_OBS",
    ] {
        cmd.env_remove(k);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn labelgen");
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code().unwrap_or(-1),
    }
}

fn temp_store(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("moss_labelstore_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = dir.to_string_lossy().into_owned();
    (dir, s)
}

const QUICK: &[&str] = &[
    "--circuits",
    "10",
    "--shard-size",
    "4",
    "--cycles",
    "96",
    "--seed",
    "41",
];

#[test]
fn killed_and_resumed_run_is_bit_identical() {
    let (dir, store) = temp_store("resume");
    let (base_dir, base_store) = temp_store("resume_base");

    // Uninterrupted reference run on a fresh store.
    let reference = labelgen(&[QUICK, &["--store", &base_store]].concat(), &[]);
    assert_eq!(reference.code, 0, "{}", reference.stderr);

    // Kill mid-shard (7 of 10 circuits: shard 1 is cut short), then rerun.
    let killed = labelgen(
        &[QUICK, &["--store", &store, "--abort-after", "7"]].concat(),
        &[],
    );
    assert_eq!(killed.code, 3, "abort must exit 3: {}", killed.stderr);
    assert!(killed.stat("7 labeled"), "{}", killed.stderr);

    let resumed = labelgen(&[QUICK, &["--store", &store]].concat(), &[]);
    assert_eq!(resumed.code, 0, "{}", resumed.stderr);
    assert_eq!(
        resumed.digest(),
        reference.digest(),
        "resumed labels must match an uninterrupted run bytewise"
    );
    assert!(
        resumed.stat("(7 from cache)"),
        "resume must reuse the killed run's records: {}",
        resumed.stderr
    );

    // A further rerun is fully cached and still identical.
    let warm = labelgen(&[QUICK, &["--store", &store]].concat(), &[]);
    assert_eq!(warm.code, 0, "{}", warm.stderr);
    assert_eq!(warm.digest(), reference.digest());
    assert!(warm.stat("(10 from cache)"), "{}", warm.stderr);

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(base_dir);
}

#[test]
fn labels_identical_across_thread_counts_cold_and_warm() {
    let (dir1, store1) = temp_store("t1");
    let (dir4, store4) = temp_store("t4");

    let cold1 = labelgen(
        &[QUICK, &["--store", &store1]].concat(),
        &[("MOSS_THREADS", "1")],
    );
    let cold4 = labelgen(
        &[QUICK, &["--store", &store4]].concat(),
        &[("MOSS_THREADS", "4")],
    );
    assert_eq!(cold1.code, 0, "{}", cold1.stderr);
    assert_eq!(cold4.code, 0, "{}", cold4.stderr);
    assert_eq!(
        cold1.digest(),
        cold4.digest(),
        "cold labels must not depend on MOSS_THREADS"
    );

    // Cross-pollinated warm runs: records written by 1 thread served to 4
    // and vice versa.
    let warm4 = labelgen(
        &[QUICK, &["--store", &store1]].concat(),
        &[("MOSS_THREADS", "4")],
    );
    let warm1 = labelgen(
        &[QUICK, &["--store", &store4]].concat(),
        &[("MOSS_THREADS", "1")],
    );
    assert_eq!(warm4.code, 0, "{}", warm4.stderr);
    assert_eq!(warm1.code, 0, "{}", warm1.stderr);
    assert_eq!(warm4.digest(), cold1.digest());
    assert_eq!(warm1.digest(), cold1.digest());
    assert!(warm4.stat("(10 from cache)"), "{}", warm4.stderr);
    assert!(warm1.stat("(10 from cache)"), "{}", warm1.stderr);

    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
}

#[test]
fn corrupt_records_are_recomputed_never_served() {
    let (dir, store) = temp_store("faults");

    // Cold run with every store write corrupted (truncations + bit flips
    // via the `store` fault site). The run itself must still succeed —
    // labels were computed before the records were poisoned.
    let poisoned = labelgen(
        &[QUICK, &["--store", &store]].concat(),
        &[("MOSS_FAULTS", "store:1.0")],
    );
    assert_eq!(poisoned.code, 0, "{}", poisoned.stderr);

    // Next run: every record fails its CRC, is evicted, recomputed, and
    // rewritten cleanly — same digest, zero served-from-cache.
    let recovered = labelgen(&[QUICK, &["--store", &store]].concat(), &[]);
    assert_eq!(recovered.code, 0, "{}", recovered.stderr);
    assert_eq!(recovered.digest(), poisoned.digest());
    assert!(recovered.stat("(0 from cache)"), "{}", recovered.stderr);
    assert!(recovered.stat("10 corrupt"), "{}", recovered.stderr);

    // Third run proves the rewrite took: full cache hits, same labels.
    let warm = labelgen(&[QUICK, &["--store", &store]].concat(), &[]);
    assert_eq!(warm.code, 0, "{}", warm.stderr);
    assert_eq!(warm.digest(), poisoned.digest());
    assert!(warm.stat("(10 from cache)"), "{}", warm.stderr);
    assert!(warm.stat("0 corrupt"), "{}", warm.stderr);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_mode_self_checks_and_writes_artifact() {
    let out = std::env::temp_dir().join(format!("BENCH_labels_it_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = labelgen(&["--bench", "--quick", "--out", out.to_str().unwrap()], &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let json = std::fs::read_to_string(&out).expect("bench artifact written");
    assert!(json.contains("\"labels/cold_per_circuit\""), "{json}");
    assert!(json.contains("\"labels/warm_per_circuit\""), "{json}");
    assert!(json.contains("\"circuits_per_sec\""), "{json}");
    let _ = std::fs::remove_file(&out);
}

#[test]
fn no_store_flag_still_labels() {
    let run = labelgen(&[QUICK, &["--no-store"]].concat(), &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    assert!(run.stat("(0 from cache)"), "{}", run.stderr);

    // And matches the store-backed digest: the store must be transparent.
    let (dir, store) = temp_store("transparent");
    let stored = labelgen(&[QUICK, &["--store", &store]].concat(), &[]);
    assert_eq!(stored.code, 0, "{}", stored.stderr);
    assert_eq!(run.digest(), stored.digest());
    let _ = std::fs::remove_dir_all(dir);
}
