//! Result files: provenance, the baseline diff (`--compare`) and the
//! same-build repeatability gate (`--check`).

use crate::metrics::{Better, END_TO_END};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// `BENCHMARK.json`, the one place the regression bounds are written down.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Regression bound of every end-to-end metric.
pub fn bounds() -> BTreeMap<String, f64> {
    let manifest: Value = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    manifest["end_to_end"]
        .as_array()
        .expect("end_to_end is an array")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["bound"].as_f64().expect("metric bound"),
            )
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Days since 1970-01-01 to a civil date (Howard Hinnant's algorithm).
fn civil(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (
        doy - (153 * mp + 2) / 5 + 1,
        if mp < 10 { mp + 3 } else { mp - 9 },
    );
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

pub fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (y, m, d) = civil(secs.div_euclid(86_400));
    let s = secs.rem_euclid(86_400);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        s / 3600,
        s % 3600 / 60,
        s % 60
    )
}

/// Where the numbers came from. The commit is the checked-out `HEAD` *and*
/// whether the tree differed from it; `code_version` is what the measured
/// binaries report about themselves (the daemon's is checked against it on
/// every ping).
pub fn provenance(seed: u64, scale: &str) -> Value {
    let git = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let mut p = BTreeMap::new();
    let mut put = |k: &str, v: Value| p.insert(k.to_string(), v);
    put("git_head", git.map_or(Value::Null, Value::String));
    put("git_dirty", dirty.map_or(Value::Null, Value::Bool));
    put("code_version", Value::from(suite::code_version()));
    put(
        "rustc",
        command_line("rustc", &["-V"]).map_or(Value::Null, Value::String),
    );
    put(
        "nproc",
        Value::from(std::thread::available_parallelism().map_or(0, usize::from)),
    );
    put(
        "threads",
        Value::from("registry_run: RAYON_NUM_THREADS=2; sweeps, daemon, analyze: RAYON_NUM_THREADS=1 with --ranks 2 / --workers 2 / 2 clients; analyze par2: RAYON_NUM_THREADS=2"),
    );
    put("seed", Value::Int(seed as i64));
    put("scale", Value::from(scale));
    put("utc", Value::from(utc_now()));
    Value::Object(p)
}

/// `workload -> metric -> value` of the end-to-end sections under a result
/// file's `workloads`.
fn end_to_end(workloads: &Value) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    if let Some(workloads) = workloads.as_object() {
        for (workload, w) in workloads {
            let Some(metrics) = w["end_to_end"].as_object() else {
                continue;
            };
            let row: BTreeMap<String, f64> = metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
                .collect();
            out.insert(workload.clone(), row);
        }
    }
    out
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(name: &str, a: f64, b: f64) -> f64 {
    let better = END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map_or(Better::Lower, |d| d.better);
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One row per workload x end-to-end metric: both values, B over A, and
/// whether B is worse than A by more than the metric's bound. Returns the
/// table and the number of rows over their bound. `a` and `b` are the
/// `workloads` objects of two result files.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    let bounds = bounds();
    let (a, b) = (end_to_end(a), end_to_end(b));
    let mut text = format!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>9} {:>7}\n",
        "workload", "metric", "A", "B", "B/A", "worse by", "bound"
    );
    let mut over = 0;
    for (workload, row) in &a {
        for (metric, &va) in row {
            let Some(&vb) = b.get(workload).and_then(|r| r.get(metric)) else {
                let _ = writeln!(
                    text,
                    "{workload:<18} {metric:<12} {va:>14.4} {:>14}",
                    "missing"
                );
                over += 1;
                continue;
            };
            let worse = worsening(metric, va, vb);
            let bound = bounds.get(metric).copied().unwrap_or(f64::NAN);
            let flag = if worse > bound {
                over += 1;
                "  OVER BOUND"
            } else {
                ""
            };
            let _ = writeln!(
                text,
                "{workload:<18} {metric:<12} {va:>14.4} {vb:>14.4} {:>9.4} {:>+8.2}% {:>6.0}%{flag}",
                vb / va,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    (text, over)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn civil_dates() {
        assert_eq!(civil(0), (1970, 1, 1));
        assert_eq!(civil(19_782), (2024, 2, 29));
        assert_eq!(civil(20_726), (2026, 9, 30));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        let b = bounds();
        for d in &END_TO_END {
            let bound = b
                .get(d.name)
                .unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(
            b.values().all(|v| *v <= b["setup_s"]),
            "setup_s carries the largest bound"
        );
    }

    fn file(full_ms: f64) -> Value {
        let full = json!({"value": full_ms, "unit": "ms", "samples": 9});
        let rss = json!({"value": 14.0, "unit": "MB", "samples": 1});
        let metrics = json!({"full_ms": full, "peak_rss_mb": rss});
        let workload = json!({"end_to_end": metrics});
        json!({"registry_run": workload})
    }

    #[test]
    fn compare_flags_only_rows_worse_than_their_bound() {
        let (text, over) = compare(
            &file(100.0),
            &file(100.0 * (1.0 + bounds()["full_ms"] + 0.01)),
        );
        assert_eq!(over, 1, "{text}");
        assert!(text.contains("OVER BOUND"));
        let (_, over) = compare(&file(100.0), &file(101.0));
        assert_eq!(over, 0);
        let (_, over) = compare(&file(100.0), &file(50.0));
        assert_eq!(over, 0, "an improvement is never over the bound");
        let (_, over) = compare(&file(100.0), &json!({}));
        assert_eq!(over, 2, "a metric that vanished counts as a regression");
    }
}
