//! Binary-level tests of the stream runtime: `stream-analyze` on a
//! file, `stream-analyze --listen` and `stream-serve` fed by `replay`,
//! and the usage-error exits. Deadlines are generous so the suite also
//! passes on one loaded core.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serde::{Number, Value};

const ANALYZE: &str = env!("CARGO_BIN_EXE_stream-analyze");
const SERVE: &str = env!("CARGO_BIN_EXE_stream-serve");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");
const GENLOG: &str = env!("CARGO_BIN_EXE_genlog");

/// Ingest shed buckets that must stay empty on a clean replay.
const SHEDS: [&str; 6] = [
    "late_dropped",
    "stall_late_dropped",
    "duplicate_dropped",
    "skipped_malformed",
    "oversized_lines",
    "torn_lines",
];

fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stream_cli");
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The CI fixture: one csee week at scale 0.02, seed 7, and its line
/// count. Generated once per test binary.
fn fixture() -> &'static (PathBuf, u64) {
    static FIXTURE: OnceLock<(PathBuf, u64)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = work_dir().join("fixture.log");
        let out = Command::new(GENLOG)
            .args([
                "--profile",
                "csee",
                "--scale",
                "0.02",
                "--seed",
                "7",
                "--quiet",
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("run genlog");
        assert!(out.status.success(), "genlog failed: {out:?}");
        let lines = std::fs::read_to_string(&path)
            .expect("read fixture")
            .lines()
            .count();
        (path, lines as u64)
    })
}

fn read_report(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("read run report");
    serde_json::from_str(&text).expect("run report parses")
}

fn get<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("missing key {key} in {path:?}"))
    })
}

/// CI's summary comparator: same shape, counts exact, floats within
/// 1e-9 relative.
fn assert_close(a: &Value, b: &Value, path: &str) {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            let keys = |o: &[(String, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(x), keys(y), "{path}: keys differ");
            for ((k, u), (_, v)) in x.iter().zip(y) {
                assert_close(u, v, &format!("{path}.{k}"));
            }
        }
        (Value::Array(x), Value::Array(y)) => {
            assert_eq!(x.len(), y.len(), "{path}: lengths differ");
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                assert_close(u, v, &format!("{path}[{i}]"));
            }
        }
        (Value::Num(Number::F(x)), Value::Num(Number::F(y))) => assert!(
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            "{path}: {x} != {y}"
        ),
        _ => assert_eq!(a, b, "{path}"),
    }
}

/// Wait for `child` to exit, killing it after `limit`.
fn wait(mut child: Child, limit: Duration, what: &str) -> Output {
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{what} did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect child output")
}

/// Start a wire daemon (`bin` plus `args`), push the fixture at it over
/// three chunked connections, and return its run report.
fn wire_run(bin: &str, args: &[&str], name: &str) -> Value {
    let (fixture, _) = fixture();
    let dir = work_dir();
    let addr_file = dir.join(format!("{name}.addr"));
    let report = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&addr_file);
    let mut daemon = Command::new(bin)
        .args(args)
        .arg("--addr-file")
        .arg(&addr_file)
        .args(["--quiet", "--json", "--exit-after-sources", "3"])
        .args(["--stall-grace-ms", "30000", "--report"])
        .arg(&report)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start wire daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ if Instant::now() > deadline => panic!("{name}: no address file after 30 s"),
            _ if daemon.try_wait().expect("poll daemon").is_some() => {
                panic!(
                    "{name}: daemon exited early: {:?}",
                    daemon.wait_with_output()
                )
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let sent = Command::new(REPLAY)
        .arg(fixture)
        .args([
            "--addr",
            addr.trim(),
            "--connections",
            "3",
            "--chunk",
            "997",
            "--quiet",
        ])
        .output()
        .expect("run replay");
    if !sent.status.success() {
        let _ = daemon.kill();
        panic!("{name}: replay failed: {sent:?}");
    }
    let out = wait(daemon, Duration::from_secs(120), name);
    assert!(out.status.success(), "{name}: daemon failed: {out:?}");
    read_report(&report)
}

fn file_report(name: &str, extra: &[&str]) -> Value {
    let (fixture, _) = fixture();
    let report = work_dir().join(format!("{name}.json"));
    let out = Command::new(ANALYZE)
        .arg(fixture)
        .args(["--quiet", "--report"])
        .arg(&report)
        .args(extra)
        .output()
        .expect("run stream-analyze");
    assert!(
        out.status.success(),
        "{name}: stream-analyze failed: {out:?}"
    );
    read_report(&report)
}

#[test]
fn wire_replay_through_either_spelling_equals_the_file_drain() {
    let (_, lines) = fixture();
    let file = file_report("file", &["--json"]);
    let listen = wire_run(ANALYZE, &["--listen", "127.0.0.1:0"], "listen");
    let serve = wire_run(SERVE, &[], "serve");
    let file_summary = get(&file, &["config", "summary"]);
    for (name, wire) in [("stream-analyze", &listen), ("stream-serve", &serve)] {
        assert_eq!(get(wire, &["tool"]).as_str(), Some(name));
        assert_close(file_summary, get(wire, &["config", "summary"]), name);
        let ingest = get(wire, &["config", "ingest"]);
        assert_eq!(get(ingest, &["sources_seen"]).as_u64(), Some(3), "{name}");
        assert_eq!(get(ingest, &["admitted"]).as_u64(), Some(*lines), "{name}");
        for shed in SHEDS {
            assert_eq!(get(ingest, &[shed]).as_u64(), Some(0), "{name}: {shed}");
        }
        // The wire default is lenient; a file is strict.
        assert_eq!(get(wire, &["config", "lenient"]).as_bool(), Some(true));
        assert_eq!(get(wire, &["config", "partial"]).as_bool(), Some(false));
    }
    assert_eq!(get(&file, &["config", "lenient"]).as_bool(), Some(false));
    assert!(file.get("config").and_then(|c| c.get("ingest")).is_none());
}

#[test]
fn final_report_is_not_partial_but_snapshots_are() {
    let last = file_report("final", &["--json", "--snapshot-every", "1000"]);
    assert_eq!(get(&last, &["config", "partial"]).as_bool(), Some(false));
    // Without --json the report file is the last mid-stream snapshot.
    let snapshot = file_report("snapshot", &["--snapshot-every", "1000"]);
    assert_eq!(get(&snapshot, &["config", "partial"]).as_bool(), Some(true));
    let records = get(&snapshot, &["config", "records"]).as_u64().unwrap();
    assert!(records > 0 && records.is_multiple_of(1000), "{records}");
}

#[test]
fn usage_errors_exit_2_without_a_panic() {
    let (fixture, _) = fixture();
    let fixture = fixture.to_str().expect("utf-8 path");
    let cases: [(&str, &[&str]); 9] = [
        (ANALYZE, &[fixture, "--window", "abc"]),
        (ANALYZE, &[fixture, "--window"]),
        (SERVE, &["--queue-capacity", "x"]),
        (ANALYZE, &[fixture, "--alert-on", "loud"]),
        (ANALYZE, &[fixture, "--queue-capacity", "10"]),
        (ANALYZE, &[fixture, "--listen", "127.0.0.1:0"]),
        (SERVE, &[fixture]),
        (ANALYZE, &["--listen", "127.0.0.1:0", "--verify-batch"]),
        (ANALYZE, &[fixture, "--no-such-flag"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
