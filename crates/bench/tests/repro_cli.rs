//! The `repro` binary's exit status and message for a scenario file it
//! must refuse.

use std::process::Command;

/// A `system` cross-check where one miner holds no share exits 1 with the
/// validation message, instead of panicking inside the hash-level run.
#[test]
fn zero_share_system_scenario_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-zero-share");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (label, shares) in [("a", "[0.0, 1.0]"), ("b", "[1.0, 0.0]")] {
        let file = dir.join(format!("zero_{label}.scn"));
        std::fs::write(
            &file,
            format!(
                "scenario \"zero share\" {{\n\
                 \x20 protocol = pow(w = 0.01)\n\
                 \x20 shares = {shares}\n\
                 \x20 checkpoints = linear(100, 5)\n\
                 \x20 system = pow(horizon = 50, salt = 7)\n\
                 }}\n"
            ),
        )
        .expect("write scenario");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("scenario")
            .arg(&file)
            .args(["--quick", "--no-disk-cache", "--out"])
            .arg(dir.join("out"))
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "shares {shares}: {stderr}");
        assert!(
            stderr.contains(
                "system cross-checks need both miners to hold a positive fraction of the total share"
            ),
            "shares {shares}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
