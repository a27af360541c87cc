//! The figure and table binaries and `perfgrid` reject bad command lines
//! with exit code 2 and a message, before running anything — an unknown
//! paper id must not become an empty run that exits 0.

use std::path::Path;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    run_in(bin, args, Path::new("."))
}

fn run_in(bin: &str, args: &[&str], dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn fig3(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_fig3"), args)
}

#[test]
fn unknown_paper_ids_exit_with_code_2() {
    let (code, stderr) = fig3(&["--papers", "nobody2020"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown paper id 'nobody2020'"), "{stderr}");
}

#[test]
fn unparseable_numbers_exit_with_code_2() {
    let (code, stderr) = fig3(&["--papers", "saw2018", "--seeds", "three"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad --seeds 'three'"), "{stderr}");
}

#[test]
fn unknown_flags_exit_with_code_2() {
    // Misspelled flags must not fall back to the defaults they meant to
    // override, and removed flags must not be dropped silently.
    let (code, stderr) = fig3(&["--papers", "saw2018", "--seed", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag '--seed'"), "{stderr}");
    for bin in [env!("CARGO_BIN_EXE_fig3"), env!("CARGO_BIN_EXE_fig4")] {
        let (code, stderr) = run(bin, &["--papers", "saw2018", "--ml-backend", "cpu"]);
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("unknown flag '--ml-backend'"), "{stderr}");
    }
}

#[test]
fn artifact_binaries_reject_unknown_flags() {
    // A misspelled `--paper-scale` must not quietly run at 1/10 scale, and
    // a bad command line must stop before any work: nothing on stdout.
    for (bin, args, message) in [
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--paper-scal"][..],
            "unknown flag '--paper-scal'",
        ),
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--out-dir", "--paper-scale"],
            "--out-dir requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--paperscale"],
            "unknown flag '--paperscale'",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--bogus"],
            "unknown flag '--bogus'",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before exiting");
    }
}

#[test]
fn perfgrid_rejects_unknown_flags_and_missing_values() {
    // Run in an empty directory: a rejected command line must write no
    // record there.
    let dir = std::env::temp_dir().join(format!("synrd-perfgrid-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let perfgrid = env!("CARGO_BIN_EXE_perfgrid");

    let (code, stderr) = run_in(perfgrid, &["--quik"], &dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag '--quik'"), "{stderr}");

    let (code, stderr) = run_in(perfgrid, &["--quick", "--out"], &dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--out requires a value"), "{stderr}");

    let (code, stderr) = run_in(perfgrid, &["--ml-out", "--quick"], &dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("got the flag '--quick'"), "{stderr}");

    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
