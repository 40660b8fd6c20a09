//! The `experiments` binary fails closed: every argument outside its
//! declared flag table exits nonzero, so a typo in a CI gate cannot pass by
//! selecting nothing.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn unknown_flags_exit_nonzero_with_the_usage() {
    // `--lanes`, `--packed-native`, `--timing`, `--substrate`, `--store`,
    // `--check`, `--forest`, `--threads` and `--layout` name retired
    // experiments and modifiers.
    for bad in [
        &["--lanes"][..],
        &["--packed-native"],
        &["--bogus"],
        &["--quick", "--bogus"],
        &["--quick", "--timing"],
        &["--quick", "--substrate"],
        &["--quick", "--store", "--check"],
        &["--quick", "--forest"],
        &["--threads", "1"],
        &["--quick", "--layout"],
    ] {
        let out = experiments(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{bad:?} prints no usage: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{bad:?} printed tables before failing"
        );
    }
}

#[test]
fn declared_flags_run_and_exit_zero() {
    let out = experiments(&["--quick", "--lower-bounds"]);
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# treelab experiments (quick = true)"));
    assert!(
        stdout.lines().any(|l| l.starts_with('|')),
        "no table printed"
    );
}
