//! Traced pass of the perfbench workloads.
//!
//! The shipped binaries give the end-to-end numbers; this program gives
//! the per-layer ones. It drives the same library code in process and
//! wraps a timer around every call into a layer's public functions, so
//! each layer's busy time and work count can be read off directly.
//!
//! ```text
//! perfbench-trace file FIXTURE
//! perfbench-trace wire FIXTURE REPLAY_BIN CHECKPOINT
//! perfbench-trace batch SCALE SEED
//! perfbench-trace load-checkpoint PATH
//! ```
//!
//! Every mode prints one JSON object on stdout: `metrics` (layer name →
//! number), `problems` (output checks that failed; empty when the pass
//! reproduced the engine's own results) and, for `batch`, `gauges` (the
//! fidelity estimates `repro` publishes, for comparison with its report).

mod batch;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Accumulated layer metrics plus the output checks that failed.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Metrics {
    /// Add `v` to the named metric (missing metrics start at 0).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Run `f`, adding its wall time in seconds to the named metric.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// `trace.coverage`: the top-level layer times over the traced wall.
    pub fn set_coverage(&mut self, top_level: &[&str]) {
        let covered: f64 = top_level.iter().map(|name| self.get(name)).sum();
        let wall = self.get("trace.wall_s");
        self.set(
            "trace.coverage",
            if wall > 0.0 { covered / wall } else { 0.0 },
        );
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_object<'a>(entries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = entries
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_result(m: &Metrics, gauges: &BTreeMap<String, f64>) {
    let problems: Vec<String> = m.problems.iter().map(|p| json_string(p)).collect();
    println!(
        "{{\"metrics\": {}, \"gauges\": {}, \"problems\": [{}]}}",
        json_object(m.values.iter().map(|(k, v)| (*k, *v))),
        json_object(gauges.iter().map(|(k, v)| (k.as_str(), *v))),
        problems.join(", ")
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-trace file FIXTURE | wire FIXTURE REPLAY_BIN CHECKPOINT | \
         batch SCALE SEED | load-checkpoint PATH"
    );
    std::process::exit(2);
}

fn run(args: &[String]) -> Result<()> {
    let mut m = Metrics::default();
    let mut gauges = BTreeMap::new();
    match args {
        [mode, fixture] if mode == "file" => stream::file(Path::new(fixture), &mut m)?,
        [mode, fixture, replay, checkpoint] if mode == "wire" => stream::wire(
            Path::new(fixture),
            Path::new(replay),
            Path::new(checkpoint),
            &mut m,
        )?,
        [mode, scale, seed] if mode == "batch" => {
            batch::batch(scale.parse()?, seed.parse()?, &mut m, &mut gauges)?
        }
        [mode, path] if mode == "load-checkpoint" => {
            let ck = webpuzzle_stream::Checkpoint::load(Path::new(path))?;
            m.set("records", ck.engine.records as f64);
            m.set("checkpoints_written", ck.checkpoints_written as f64);
        }
        _ => usage(),
    }
    print_result(&m, &gauges);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_output_escapes_and_rejects_non_finite() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(
            json_object([("x", 1.0), ("y", 2.5)].into_iter()),
            "{\"x\": 1, \"y\": 2.5}"
        );
    }

    #[test]
    fn coverage_is_top_level_time_over_wall() {
        let mut m = Metrics::default();
        m.add("a", 1.0);
        m.add("a", 0.5);
        m.set("b", 1.5);
        m.set("trace.wall_s", 4.0);
        m.set_coverage(&["a", "b", "missing"]);
        assert_eq!(m.get("trace.coverage"), 0.75);
        m.check(true, || unreachable!());
        m.check(false, || "bad".to_string());
        assert_eq!(m.problems, ["bad"]);
    }
}
