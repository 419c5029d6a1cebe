//! `repro run` has one tail for exact and digest runs: what `repro run
//! figN` prints is byte for byte what `--out` writes to `figN.*`, in
//! both modes, and a telemetry address that cannot be bound is a typed
//! runtime error (exit 1) before any work starts. `--progress` draws the
//! `repro watch` frame on stderr and leaves stdout alone. `repro
//! compare` holds a digest run's figure files to the digest contract
//! column by column.

use lockdown_obs::json::{self, Value};
use std::path::{Path, PathBuf};
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

#[test]
fn progress_draws_the_watch_frame_on_stderr_and_leaves_stdout_alone() {
    let watched = repro(&["--progress", "run", "stats"]);
    let plain = repro(&["run", "stats"]);
    for output in [&watched, &plain] {
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert!(
        watched.stdout == plain.stdout,
        "--progress changed stdout:\n{}",
        String::from_utf8_lossy(&watched.stdout)
    );
    // The last frame is drawn when the study returns: its summary line,
    // then one idle row per worker that took a day.
    let stderr = String::from_utf8_lossy(&watched.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let last = lines
        .iter()
        .rposition(|l| l.starts_with("[running]") || l.starts_with("[done]"))
        .unwrap_or_else(|| panic!("no progress frame on stderr:\n{stderr}"));
    assert!(lines[last].starts_with("[done] 121/121 days"), "{stderr}");
    let rows: Vec<&&str> = lines[last + 1..]
        .iter()
        .take_while(|l| l.starts_with("  worker "))
        .collect();
    assert!((1..=2).contains(&rows.len()), "{stderr}");
    assert!(rows.iter().all(|r| r.contains(": idle ")), "{stderr}");
    let days_done: u64 = rows
        .iter()
        .map(|r| {
            let n = r.rsplit('·').next().expect("days done column");
            n.trim()
                .trim_end_matches(" days done")
                .parse::<u64>()
                .expect("days done")
        })
        .sum();
    assert_eq!(days_done, 121, "{stderr}");
}

/// `repro compare A B --json`: its exit code and the verdict per file.
fn compare(a: &Path, b: &Path) -> (Option<i32>, Vec<(String, bool)>) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["compare", "--json"])
        .args([a, b])
        .output()
        .expect("run repro compare");
    let report = json::parse(&String::from_utf8_lossy(&output.stdout)).expect("JSON report");
    let files = report
        .get("figures")
        .and_then(Value::as_array)
        .expect("figures");
    let verdicts = files
        .iter()
        .map(|f| {
            let file = f.get("file").and_then(Value::as_str).expect("file");
            let within = f.get("within").and_then(Value::as_bool).expect("within");
            (file.to_string(), within)
        })
        .collect();
    (output.status.code(), verdicts)
}

#[test]
fn compare_holds_fig2_means_exact_against_a_digest_run() {
    let exact = fresh_dir("compare_exact");
    let digest = fresh_dir("compare_digest");
    let doctored = fresh_dir("compare_doctored");
    for (dir, flags) in [
        (&exact, &[][..]),
        (
            &digest,
            &["--shards", "auto", "--mem-budget", "12582912"][..],
        ),
    ] {
        let out = dir.to_str().expect("utf-8 temp dir");
        let output = repro(&[flags, &["--out", out, "run", "stats"]].concat());
        assert!(output.status.success(), "{output:?}");
    }

    // The honest pair: medians drift inside 2×, means match exactly.
    let (code, verdicts) = compare(&digest, &exact);
    assert_eq!(code, Some(0), "{verdicts:?}");
    assert_eq!(verdicts.len(), 8);
    assert!(verdicts.iter().all(|&(_, within)| within), "{verdicts:?}");

    // Every nonzero mean of the digest's fig2.csv moved by 1.6×: inside
    // the medians' 2×, but the means are exact.
    std::fs::create_dir_all(&doctored).expect("mkdir");
    for entry in std::fs::read_dir(&digest).expect("digest dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, doctored.join(path.file_name().expect("name"))).expect("copy");
    }
    let fig2 = std::fs::read_to_string(digest.join("fig2.csv")).expect("fig2.csv");
    let mut lines = fig2.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let mut moved = 0;
    let mut text = format!("{}\n", header.join(","));
    for line in lines {
        let cells: Vec<String> = line
            .split(',')
            .zip(&header)
            .map(|(cell, column)| match cell.parse::<f64>() {
                Ok(v) if column.starts_with("mean_") && v != 0.0 => {
                    moved += 1;
                    format!("{:.0}", v * 1.6)
                }
                _ => cell.to_string(),
            })
            .collect();
        text.push_str(&cells.join(","));
        text.push('\n');
    }
    assert!(moved > 0, "no nonzero mean in {fig2}");
    std::fs::write(doctored.join("fig2.csv"), text).expect("write fig2.csv");
    let (code, verdicts) = compare(&doctored, &exact);
    assert_eq!(code, Some(1), "{verdicts:?}");
    for (file, within) in verdicts {
        assert_eq!(within, file != "fig2.csv", "{file}");
    }

    // An empty fig2.csv on both sides holds no value to compare: it is
    // flagged, not within.
    for dir in [&doctored, &exact] {
        std::fs::write(dir.join("fig2.csv"), "").expect("truncate fig2.csv");
    }
    let (code, verdicts) = compare(&doctored, &exact);
    assert_eq!(code, Some(1), "{verdicts:?}");
    for (file, within) in verdicts {
        assert_eq!(within, file != "fig2.csv", "{file}");
    }

    for dir in [exact, digest, doctored] {
        std::fs::remove_dir_all(dir).ok();
    }
}
