//! The grid binaries reject bad command lines with exit code 2 and a
//! message, before running anything — an unknown paper id must not become
//! an empty run that exits 0.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
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
