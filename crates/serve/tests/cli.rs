//! `synrd serve` rejects a bad command line with exit code 2 before it
//! binds. `--scale` sets every dataset digest, so a value that fell back to
//! its default would make every request miss the store the grid run
//! filled. `synrd bench-serve` does the same before it runs, so a
//! misspelled `--quick` cannot turn into a full run.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `synrd serve ARGS` on an ephemeral port and return its exit code
/// and stderr. A server that starts instead of exiting is killed after
/// 30 s and fails the test.
fn serve(args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("synrd-serve-cli-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_synrd"))
        .arg("serve")
        .arg("--out-dir")
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("synrd runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait on synrd").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("synrd serve {args:?} started serving instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("synrd output");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparseable_values_exit_with_code_2() {
    for (flag, value) in [("--scale", "0.02x"), ("--workers", "many")] {
        let (code, stderr) = serve(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("bad {flag} '{value}'")),
            "{stderr}"
        );
    }
    let (code, stderr) = serve(&["--scale"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--scale requires a value"), "{stderr}");
}

#[test]
fn scales_that_are_not_finite_and_positive_exit_with_code_2() {
    // Each would floor or cap the row counts and resolve other digests.
    for scale in ["0", "-3", "NaN", "inf"] {
        let (code, stderr) = serve(&["--scale", scale]);
        assert_eq!(code, Some(2), "--scale {scale}: {stderr}");
        assert!(
            stderr.contains(&format!("bad --scale '{scale}'")),
            "{stderr}"
        );
    }
}

#[test]
fn unknown_flags_exit_with_code_2() {
    for flag in [
        "--sedes",
        "--ml-backend",
        "--fit-threads",
        "--seeds",
        "--bootstraps",
    ] {
        let (code, stderr) = serve(&[flag, "cpu"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
    }
}

#[test]
fn bench_serve_rejects_unknown_flags_and_missing_values() {
    // Run in an empty directory: a rejected command line must neither run
    // the benchmark nor write its record there.
    let dir = std::env::temp_dir().join(format!("synrd-bench-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (args, message) in [
        (&["--quik"][..], "unknown flag '--quik'"),
        (&["--quick", "--out"], "--out requires a value"),
        (&["--out", "--quick"], "--out requires a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_synrd"))
            .arg("bench-serve")
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("synrd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
