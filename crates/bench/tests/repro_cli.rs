//! `repro run` has one tail for exact and digest runs: what `repro run
//! figN` prints is byte for byte what `--out` writes to `figN.*`, in
//! both modes, and a telemetry address that cannot be bound is a typed
//! runtime error (exit 1) before any work starts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockdown_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `repro` on the tiny seed-7 campus with `args` appended.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.01", "--threads", "2", "--seed", "7"])
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn printed_figures_are_the_written_files_in_both_modes() {
    for (mode, flags) in [("exact", &[][..]), ("digest", &["--shards", "auto"][..])] {
        // One CSV and one JSON figure per mode.
        for file in ["fig3.csv", "fig6.json"] {
            let dir = fresh_dir(&format!("print_{mode}_{file}"));
            let fig = file.split('.').next().expect("figure name");
            let out = dir.to_str().expect("utf-8 temp dir");
            let output = repro(&[flags, &["--out", out, "run", fig]].concat());
            assert!(
                output.status.success(),
                "{mode} run {fig} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let written = std::fs::read(dir.join(file)).expect("figure file written");
            assert!(!written.is_empty(), "{mode} {file} is empty");
            assert!(
                output.stdout == written,
                "{mode}: `run {fig}` printed {} bytes, {file} holds {}",
                output.stdout.len(),
                written.len()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn serve_on_an_occupied_port_is_a_typed_runtime_error() {
    // Hold the port so the telemetry bind collides with it.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = taken.local_addr().expect("local addr").to_string();
    let output = repro(&["--serve", &addr, "run", "stats"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("repro: binding telemetry server on {addr} failed")),
        "{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "no study output after a bind failure"
    );
}
