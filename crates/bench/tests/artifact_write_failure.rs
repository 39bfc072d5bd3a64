//! A binary that cannot write its artifact reports the path and the OS
//! error on stderr and exits with code 1; it does not panic.

use std::process::Command;

#[test]
fn netstats_reports_an_unwritable_out_path_without_panicking() {
    let dir = std::env::temp_dir().join(format!("tcni-missing-dir-{}", std::process::id()));
    let path = dir.join("trace.json");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let out = Command::new(env!("CARGO_BIN_EXE_netstats"))
        .args([
            "--width", "2", "--height", "1", "--msgs", "1", "--quiet", "--out",
        ])
        .arg(&path)
        .output()
        .expect("run netstats");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(path.to_str().unwrap()),
        "stderr must name the path: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
