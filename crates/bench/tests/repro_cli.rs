//! The `repro` binary's exit status and message for a scenario file it
//! must refuse.

use std::path::Path;
use std::process::{Command, Output};

/// Writes `body` to `dir/file` and runs `repro scenario` on it.
fn run_scenario(dir: &Path, file: &str, body: &str) -> Output {
    let file = dir.join(file);
    std::fs::write(&file, body).expect("write scenario");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("scenario")
        .arg(&file)
        .args(["--quick", "--no-disk-cache", "--out"])
        .arg(dir.join("out"))
        .output()
        .expect("run repro")
}

/// A `system` cross-check where one miner holds no share exits 1 with the
/// validation message, instead of panicking inside the hash-level run.
#[test]
fn zero_share_system_scenario_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-zero-share");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (label, shares) in [("a", "[0.0, 1.0]"), ("b", "[1.0, 0.0]")] {
        let out = run_scenario(
            &dir,
            &format!("zero_{label}.scn"),
            &format!(
                "scenario \"zero share\" {{\n\
                 \x20 protocol = pow(w = 0.01)\n\
                 \x20 shares = {shares}\n\
                 \x20 checkpoints = linear(100, 5)\n\
                 \x20 system = pow(horizon = 50, salt = 7)\n\
                 }}\n"
            ),
        );
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

/// Finite shares whose sum overflows exit 1 with the validation message,
/// instead of running a game whose normalized stakes are all zero.
#[test]
fn overflowing_share_total_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-share-overflow");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = run_scenario(
        &dir,
        "overflow.scn",
        "scenario \"overflow\" {\n\
         \x20 protocol = ml-pos(w = 0.01)\n\
         \x20 shares = [1e308, 1e308]\n\
         \x20 checkpoints = linear(100, 5)\n\
         }\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("shares must sum to a finite total"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cross-check whose block rewards would overflow the `u64` ledger exits
/// 1 with the message before any simulation runs, instead of panicking
/// mid-run on a ledger credit.
#[test]
fn overflowing_system_issuance_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-supply-overflow");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for w in ["1e13", "1e12"] {
        let out = run_scenario(
            &dir,
            &format!("supply_{w}.scn"),
            &format!(
                "scenario \"rich\" {{\n\
                 \x20 protocol = pow(w = {w})\n\
                 \x20 shares = [0.2, 0.8]\n\
                 \x20 checkpoints = linear(100, 5)\n\
                 \x20 system = pow(horizon = 50, salt = 1)\n\
                 }}\n"
            ),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "w = {w}: {stderr}");
        assert!(
            stderr.contains("would issue more than u64::MAX atoms"),
            "w = {w}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cross-check longer than the horizon cap exits 1 with the message
/// before any simulation runs, instead of holding the process for as long
/// as the horizon asks.
#[test]
fn oversized_system_horizon_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-long-horizon");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = run_scenario(
        &dir,
        "long.scn",
        "scenario \"long\" {\n\
         \x20 protocol = sl-pos(w = 0.01)\n\
         \x20 shares = [0.2, 0.8]\n\
         \x20 checkpoints = linear(100, 5)\n\
         \x20 system = sl-pos(horizon = 1000000000, salt = 1)\n\
         }\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("system horizon 1000000000 exceeds the cap of 100000 blocks"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An adversary over a split-reward protocol exits 1 with the registry's
/// message, where it used to panic on the first step of the first game.
#[test]
fn split_reward_adversary_inner_exits_1_with_the_message() {
    let dir = std::env::temp_dir().join("fairness-bench-repro-split-inner");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = run_scenario(
        &dir,
        "split.scn",
        "scenario \"split\" {\n\
         \x20 protocol = adversary(inner = c-pos(w = 0.01, v = 0.1, shards = 1), strategy = honest)\n\
         \x20 shares = [0.3, 0.7]\n\
         \x20 checkpoints = linear(100, 5)\n\
         }\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("`adversary` parameter `inner`: `c-pos` splits step rewards"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
