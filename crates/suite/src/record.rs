//! Campaign-result records: what a cached finished run *is*.
//!
//! The paper's method is one run per (variant, tuning), composed later in
//! Thicket, so finished runs are worth keeping: the `--sweep` cell cache
//! (`cells/<cell>.json`) and the `rajaperfd` store (`objects/<hh>/<hash>.json`)
//! both hold them. This module is the one place that decides what such a
//! record is keyed by ([`campaign_key`]), what a run looks like as data
//! ([`RunRecord`]), how a record is written ([`write_record`]), when a read
//! may be trusted ([`read_verified`]) and what happens to a file that may
//! not ([`quarantine`]). The two caches keep only their own addressing.
//!
//! The integrity rule: writes are atomic ([`caliper::write_atomic`]); a
//! record embeds its full key and answers only a byte-for-byte equal one
//! (anything else — another build, another retry budget, a hash collision —
//! is a miss); a file that exists but is not JSON was torn by a kill or an
//! injected `io.write` fault, is moved to `quarantine/` and its run repeats.
//! Corruption is never trusted and never fatal.

use crate::{RunParams, SuiteReport, TimingEntry};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Everything that determines a run's results, as canonical JSON (the
/// vendored `serde_json` keeps objects as sorted maps, so equal keys print
/// equal bytes). A sweep cell's key is this value for the cell's own
/// parameters; the daemon's `run_key` is this value plus `"kind"`.
///
/// In the key because it changes the answer: the build
/// ([`crate::code_version`] — kernels, scheduler or timing path may all have
/// changed), the variant and tuning, the resolved (kernel, size, reps) list,
/// the fault spec (a run under injection answers a different question), the
/// sanitizer pass (it adds to the profile), and the execution policy — the
/// watchdog deadline and the retry budget decide which kernels `FAILED`.
/// Out of it because it does not: rank count, isolation mode and restart
/// budget (which rank ran a cell is not a cell fact — a `--ranks 4` resume
/// reuses what `--ranks 1` computed) and the retry backoff (it changes how
/// long a retry waits, not whether it happens).
pub fn campaign_key(params: &RunParams) -> Value {
    let kernels: Vec<Value> = params
        .selected_kernels()
        .iter()
        .map(|k| k.info())
        .filter(|info| info.variants.contains(&params.variant))
        .map(|info| {
            json!({
                "kernel": info.name,
                "size": params.problem_size(&info),
                "reps": params.reps(&info),
            })
        })
        .collect();
    json!({
        "code_version": crate::code_version(),
        "variant": params.variant.name(),
        "gpu_block_size": params.tuning.gpu_block_size,
        "kernels": kernels,
        "faults": params.faults,
        "sanitize": params.sanitize,
        "timeout_ms": params.timeout.map(|d| d.as_millis() as u64),
        "retries": params.max_retries,
    })
}

/// One executed kernel of a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryRecord {
    /// Full kernel name.
    pub kernel: String,
    /// Problem size used.
    pub size: usize,
    /// Repetitions executed.
    pub reps: usize,
    /// Wall time per repetition, seconds.
    pub time_per_rep_s: f64,
    /// The kernel's checksum.
    pub checksum: f64,
}

/// One kernel's fate in a finished run, passed or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeSummary {
    /// Full kernel name.
    pub kernel: String,
    /// [`crate::KernelOutcome::label`]: `PASSED`, `FAILED`, `TIMEOUT`, ...
    pub outcome: String,
    /// [`crate::KernelOutcome::detail`]; empty for a clean pass.
    pub detail: String,
}

/// A finished run as data. Its derived JSON is the daemon's `report`
/// (beside the inline profile); a sweep cell's record keeps the `entries`
/// (beside the cell's outcome fields and its profile's path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Name of the variant the run executed.
    pub variant: String,
    /// True when every executed kernel passed.
    pub all_passed: bool,
    /// The kernels that produced a timing, in execution order.
    pub entries: Vec<EntryRecord>,
    /// Every attempted kernel's outcome, in execution order.
    pub outcomes: Vec<OutcomeSummary>,
}

impl EntryRecord {
    /// Record one timing of a finished run.
    pub fn of(entry: &TimingEntry) -> EntryRecord {
        EntryRecord {
            kernel: entry.kernel.clone(),
            size: entry.problem_size,
            reps: entry.reps,
            time_per_rep_s: entry.result.time_per_rep(),
            checksum: entry.result.checksum,
        }
    }
}

impl RunRecord {
    /// Summarize a finished run.
    pub fn of(report: &SuiteReport) -> RunRecord {
        RunRecord {
            variant: report.variant.name().to_string(),
            all_passed: report.all_passed(),
            entries: report.entries.iter().map(EntryRecord::of).collect(),
            outcomes: report
                .outcomes
                .iter()
                .map(|o| OutcomeSummary {
                    kernel: o.kernel.clone(),
                    outcome: o.outcome.label(),
                    detail: o.outcome.detail(),
                })
                .collect(),
        }
    }
}

/// What reading a record file produced.
#[derive(Debug, PartialEq)]
pub enum Verified<T = Value> {
    /// The file is intact and — for [`read_verified`] — answers the key.
    Hit(T),
    /// Nothing usable: no readable file, or a record of another key.
    Miss,
    /// The file exists but its bytes are not JSON. The caller must
    /// [`quarantine`] it and repeat the run it stood for.
    Corrupt,
}

/// The single definition of "intact": the file's bytes, through `read`.
fn read_with<T>(
    path: &Path,
    read: impl FnOnce(&str) -> Result<T, serde_json::Error>,
) -> Verified<T> {
    let Ok(bytes) = std::fs::read(path) else {
        return Verified::Miss;
    };
    match std::str::from_utf8(&bytes).map(read) {
        Ok(Ok(v)) => Verified::Hit(v),
        _ => Verified::Corrupt,
    }
}

/// Read a file that must hold one JSON document (a record, or a profile a
/// record vouches for).
pub fn read_json(path: &Path) -> Verified {
    read_with(path, serde_json::from_str::<Value>)
}

/// [`read_json`] for a file whose content the caller does not need (a
/// profile a record vouches for): the same `Hit` / `Miss` / `Corrupt`
/// decision, from checking the text without building a tree of it.
pub fn check_json(path: &Path) -> Verified<()> {
    read_with(path, serde::text::validate)
}

/// Read the record at `path` and verify it was written under exactly `key`.
/// The path only has to *find* the record (a cell name, a 128-bit hash);
/// equality of the embedded key is what makes serving it sound.
pub fn read_verified(path: &Path, key: &Value) -> Verified {
    match read_json(path) {
        Verified::Hit(record) if record.get("key") != Some(key) => Verified::Miss,
        read => read,
    }
}

/// Atomically write `body` at `path` as the record of `key`: the key is
/// embedded as the `"key"` field [`read_verified`] checks. A `body` that is
/// not a JSON object is wrapped as `{"body": ..}`.
pub fn write_record(path: &Path, key: &Value, body: Value) -> io::Result<()> {
    let mut fields = match body {
        Value::Object(fields) => fields,
        other => [("body".to_string(), other)].into(),
    };
    fields.insert("key".to_string(), key.clone());
    caliper::write_atomic(path, Value::Object(fields).to_string().as_bytes())
}

/// Move a corrupt file into `root/quarantine/` — out of its cache's address
/// space, so it is never consulted again — uniquifying the name if an
/// earlier quarantine already holds one. Returns the quarantined path.
pub fn quarantine(root: &Path, file: &Path) -> io::Result<PathBuf> {
    let qdir = root.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    let name = file
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "corrupt".to_string());
    let mut dest = qdir.join(&name);
    let mut i = 1;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{i}"));
        i += 1;
    }
    std::fs::rename(file, &dest)?;
    Ok(dest)
}
