//! Campaign-result records: what a cached finished run *is*.
//!
//! The paper's method is one run per (variant, tuning), composed later in
//! Thicket, so finished runs are worth keeping: the `--sweep` cell cache
//! (`cells/<cell>.json`) and the `rajaperfd` store (`objects/<hh>/<hash>.json`)
//! both hold them. This module is the one place that decides what such a
//! record is keyed by ([`CampaignKey`]), what a run looks like as data
//! ([`RunRecord`]), how a record is written ([`write_record`],
//! [`write_report`]), when a read may be trusted ([`read_verified`],
//! [`read_report`], [`ProfileDigest::check`]) and what happens to a file
//! that may not ([`quarantine`]). The two caches keep only their own
//! addressing.
//!
//! The integrity rule: writes are atomic ([`caliper::write_atomic`]); a
//! record embeds its full key as compact JSON text and answers only a
//! byte-for-byte equal one — the reader compares the `key` member's exact
//! text and builds no tree of it, so anything else (another build, another
//! retry budget, a hash collision, the same key re-printed) is a miss; a
//! record that exists but is not JSON was torn by a kill or an injected
//! `io.write` fault. What a record vouches for — a sweep cell's profile, a
//! file of its own; a store object's report, text inside the record — is
//! named by its exact length and [`caliper::digest`], taken from the bytes
//! its writer wrote, and checked against them without being parsed, by one
//! comparison both caches share: any other bytes — torn, flipped, still
//! valid JSON, or another cell's profile — fail it. A torn record, and a
//! vouched-for text that fails its check together with the record that
//! vouched for it, are moved to `quarantine/` and the run repeats.
//! Corruption is never trusted and never fatal.

use crate::{RunParams, SuiteReport, TimingEntry};
use serde::text::Reader;
use serde::{Deserialize, Printed, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Everything that determines a run's results: the one definition of a
/// run's key. A sweep cell's key is this for the cell's own parameters; the
/// daemon's run key is this plus `"kind"`. Its compact text ([`Self::text`])
/// is what a record embeds and what a read compares, byte for byte, so it is
/// printed once per cell or request (derived members print sorted by name,
/// as a `Value` object would).
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignKey {
    /// [`crate::code_version`] of the build.
    pub code_version: &'static str,
    /// Name of the variant.
    pub variant: &'static str,
    /// GPU block-size tuning.
    pub gpu_block_size: usize,
    /// The selected kernels that support the variant, in run order.
    pub kernels: Vec<KeyedKernel>,
    /// The fault spec, if any.
    pub faults: Option<String>,
    /// Whether the sanitizer pass runs.
    pub sanitize: bool,
    /// The watchdog deadline, milliseconds.
    pub timeout_ms: Option<u64>,
    /// The retry budget.
    pub retries: u32,
}

/// One kernel of a [`CampaignKey`], as the run resolves it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KeyedKernel {
    /// Full kernel name.
    pub kernel: &'static str,
    /// Problem size.
    pub size: usize,
    /// Repetitions.
    pub reps: usize,
}

impl CampaignKey {
    /// The key of a run of `params`.
    pub fn of(params: &RunParams) -> CampaignKey {
        Self::of_selected(params, &params.selected_kernels())
    }

    /// [`CampaignKey::of`] with the selection already resolved: `selected`
    /// is `params.selected_kernels()`, which a sweep resolves once for all
    /// its cells.
    pub(crate) fn of_selected(
        params: &RunParams,
        selected: &[&'static dyn kernels::KernelBase],
    ) -> CampaignKey {
        let kernels = selected
            .iter()
            .map(|k| k.info())
            .filter(|info| info.variants.contains(&params.variant))
            .map(|info| KeyedKernel {
                kernel: info.name,
                size: params.problem_size(&info),
                reps: params.reps(&info),
            })
            .collect();
        CampaignKey {
            code_version: crate::code_version(),
            variant: params.variant.name(),
            gpu_block_size: params.tuning.gpu_block_size,
            kernels,
            faults: params.faults.clone(),
            sanitize: params.sanitize,
            timeout_ms: params.timeout.map(|d| d.as_millis() as u64),
            retries: params.max_retries,
        }
    }

    /// The key's compact JSON text: `campaign_key(params).to_string()`
    /// without the tree.
    pub fn text(&self) -> String {
        serde::text::write(self, false)
    }
}

/// [`CampaignKey`] of `params` as a tree.
pub fn campaign_key(params: &RunParams) -> Value {
    serde::to_value(CampaignKey::of(params)).expect("a key serializes")
}

/// One executed kernel of a finished run.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OutcomeSummary {
    /// Full kernel name.
    pub kernel: String,
    /// [`crate::KernelOutcome::label`]: `PASSED`, `FAILED`, `TIMEOUT`, ...
    pub outcome: String,
    /// [`crate::KernelOutcome::detail`]; empty for a clean pass.
    pub detail: String,
}

/// A finished run as data. Its derived JSON is the daemon's `report`
/// (beside the inline profile).
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    /// The file exists but its bytes are not JSON — or, for
    /// [`ProfileDigest::check`] and [`read_report`], not the vouched-for
    /// bytes. The caller must [`quarantine`] it and repeat the run it stood
    /// for.
    Corrupt,
}

/// A record's definition of "intact": the file's bytes, through `read`.
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

/// Read a file that must hold one JSON document (a record).
pub fn read_json(path: &Path) -> Verified {
    read_with(path, serde_json::from_str::<Value>)
}

/// What a record vouches for in a file it names (a sweep cell's profile):
/// the exact length and [`caliper::digest`] — as 32 hex digits — of the
/// bytes written there. Its derived JSON is the record's `profile_bytes`
/// and `profile_digest` members.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileDigest {
    /// Length of the vouched-for bytes.
    pub profile_bytes: u64,
    /// Their [`caliper::digest`], as 32 lower-case hex digits.
    pub profile_digest: String,
}

impl ProfileDigest {
    /// Vouch for `len` bytes whose [`caliper::digest`] is `digest`.
    pub fn new(len: u64, digest: u128) -> ProfileDigest {
        ProfileDigest {
            profile_bytes: len,
            profile_digest: format!("{digest:032x}"),
        }
    }

    /// Whether the file at `path` holds exactly the vouched-for bytes: `Hit`
    /// when it does, `Miss` when there is no readable file, `Corrupt` for
    /// any other bytes. Nothing is parsed: however deep or malformed the
    /// text, the check is one read and one digest.
    pub fn check(&self, path: &Path) -> Verified<()> {
        let Ok(bytes) = std::fs::read(path) else {
            return Verified::Miss;
        };
        if vouches(&bytes, self.profile_bytes, self.profile_digest.as_bytes()) {
            Verified::Hit(())
        } else {
            Verified::Corrupt
        }
    }
}

/// Read the record at `path` and verify it was written under exactly `key`,
/// a key's compact JSON text: the record's `key` member must be these very
/// bytes (the last of a repeated member winning). The path only has to
/// *find* the record (a cell name, a 128-bit hash); equality of the embedded
/// key is what makes serving it sound. A hit is the record's other members,
/// as a tree; no tree of the key is built. JSON that is not a record of
/// `key` (another key, no key, not an object) is a miss.
pub fn read_verified(path: &Path, key: &str) -> Verified {
    let read = read_with(path, |text| {
        let (mut keyed, mut members) = (false, BTreeMap::new());
        let mut r = Reader::new(text);
        let walked = r
            .object(|r, name| match &*name {
                "key" => r.raw().map(|raw| keyed = raw == key),
                name => {
                    members.insert(name.to_string(), r.value()?);
                    Ok(())
                }
            })
            .and_then(|()| r.end());
        match walked {
            Ok(()) => Ok(keyed.then_some(Value::Object(members))),
            Err(_) => serde::text::validate(text).map(|()| None),
        }
    });
    match read {
        Verified::Hit(Some(v)) => Verified::Hit(v),
        Verified::Hit(None) | Verified::Miss => Verified::Miss,
        Verified::Corrupt => Verified::Corrupt,
    }
}

/// Atomically write `body` at `path` as the record of `key`, a key's compact
/// JSON text: the key is copied in as the `"key"` member [`read_verified`]
/// checks, in place of any `key` member the body has. A `body` that is not
/// a JSON object is wrapped as `{"body": ..}`. The record is printed as it
/// is written; no tree of it is built.
pub fn write_record(path: &Path, key: &str, body: &dyn Serialize) -> io::Result<()> {
    let record = serde::Extended {
        body,
        extra: &[("key", &Printed(key))],
    };
    caliper::write_atomic(path, serde::text::write(&record, false).as_bytes())
}

/// Atomically write the daemon store's record of `report`, a report's
/// compact JSON text, under `key`, a key's compact JSON text:
/// `{"key":<key>,"report":<report>,"report_bytes":N,"report_digest":"<hex>"}`
/// — the members in the order a printed object has them, the report's
/// length and [`caliper::digest`] taken from the very bytes written, as a
/// sweep cell vouches for its profile. [`read_report`] reads it back.
pub fn write_report(path: &Path, key: &str, report: &str) -> io::Result<()> {
    let vouched = ProfileDigest::new(report.len() as u64, caliper::digest(report.as_bytes()));
    let record = format!(
        r#"{{"key":{key},"report":{report},"report_bytes":{},"report_digest":"{}"}}"#,
        vouched.profile_bytes, vouched.profile_digest
    );
    caliper::write_atomic(path, record.as_bytes())
}

/// Read the record [`write_report`] wrote at `path` under `key` and answer
/// its report's exact text. A hit is one read, a byte comparison of the
/// `{"key":<key>,"report":` head, the fixed tail parsed from the end, and
/// the report between them checked against the tail's length and digest:
/// no grammar walk. A record laid out so whose report fails the check is
/// `Corrupt` — torn, flipped, however valid its JSON still is. Bytes laid
/// out otherwise decide as [`read_verified`] does for text with no record
/// of `key`: JSON (another key, the key re-printed, a record that carries
/// no digest) is a `Miss`, anything else `Corrupt`.
pub fn read_report(path: &Path, key: &str) -> Verified<String> {
    let Ok(bytes) = std::fs::read(path) else {
        return Verified::Miss;
    };
    let Some((report, len, digest)) = report_layout(&bytes, key) else {
        return match std::str::from_utf8(&bytes).map(serde::text::validate) {
            Ok(Ok(())) => Verified::Miss,
            _ => Verified::Corrupt,
        };
    };
    match std::str::from_utf8(report) {
        Ok(text) if len.is_some_and(|len| vouches(report, len, digest)) => {
            Verified::Hit(text.to_string())
        }
        _ => Verified::Corrupt,
    }
}

/// The parts of `bytes` laid out as [`write_report`] lays down a record of
/// `key`: the report's bytes, the tail's `report_bytes` (`None` past a
/// `u64`) and its `report_digest` text. `None` for any other layout.
fn report_layout<'b>(bytes: &'b [u8], key: &str) -> Option<(&'b [u8], Option<u64>, &'b [u8])> {
    let body = bytes.strip_prefix(br#"{"key":"#)?;
    let body = body.strip_prefix(key.as_bytes())?.strip_prefix(br#","report":"#)?;
    let body = body.strip_suffix(br#""}"#)?;
    let (body, digest) = body.split_at(body.len().checked_sub(32)?);
    let body = body.strip_suffix(br#","report_digest":""#)?;
    let digits = body.iter().rev().take_while(|b| b.is_ascii_digit()).count();
    let (body, len) = body.split_at(body.len() - digits);
    let report = body.strip_suffix(br#","report_bytes":"#)?;
    let len = std::str::from_utf8(len).ok()?.parse().ok();
    Some((report, len, digest))
}

/// The one length-plus-digest comparison both caches make: whether `bytes`
/// are `len` bytes whose [`caliper::digest`], as 32 lower-case hex digits,
/// is `digest`.
fn vouches(bytes: &[u8], len: u64, digest: &[u8]) -> bool {
    bytes.len() as u64 == len && format!("{:032x}", caliper::digest(bytes)).as_bytes() == digest
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
