//! The grid binaries reject bad command lines with exit code 2 and a
//! message, before running anything — an unknown paper id must not become
//! an empty run that exits 0.

use std::process::Command;

fn fig3(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(args)
        .output()
        .expect("fig3 runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
