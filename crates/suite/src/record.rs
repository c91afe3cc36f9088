//! Campaign-result records: what a cached finished run *is*.
//!
//! The paper's method is one run per (variant, tuning), composed later in
//! Thicket, so finished runs are worth keeping: the `--sweep` cell cache
//! (`cells/<cell>.json`) and the `rajaperfd` store (`objects/<hh>/<hash>.json`)
//! both hold them. This module is the one place that decides what such a
//! record is keyed by ([`CampaignKey`]), what a run looks like as data
//! ([`RunRecord`]), how a record is written ([`write_record`]), when a read
//! may be trusted ([`read_verified`], [`ProfileDigest::check`]) and what
//! happens to a file that may not ([`quarantine`]). A record whose one
//! member travels on as JSON text — the daemon's stored report, spliced into
//! its reply — is written and read under the same rules without a tree
//! ([`write_record_text`], [`read_verified_text`]). The two caches keep only
//! their own addressing.
//!
//! The integrity rule: writes are atomic ([`caliper::write_atomic`]); a
//! record embeds its full key as compact JSON text and answers only a
//! byte-for-byte equal one — the reader compares the `key` member's exact
//! text and builds no tree of it, so anything else (another build, another
//! retry budget, a hash collision, the same key re-printed) is a miss; a
//! record that exists but is not JSON was torn by a kill or an injected
//! `io.write` fault. A file a record vouches for (a sweep cell's
//! profile) is named in it by its exact length and [`caliper::digest`], taken
//! from the bytes its writer handed to `write_atomic`, and checked against
//! them without being parsed: any other bytes at its path — torn, flipped,
//! or another cell's profile — fail the check. A torn record, and a vouched
//! file that fails its check together with the record that vouched for it,
//! are moved to `quarantine/` and the run repeats. Corruption is never
//! trusted and never fatal.

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
        let kernels = params
            .selected_kernels()
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
    /// [`ProfileDigest::check`], not the vouched-for bytes. The caller must
    /// [`quarantine`] it and repeat the run it stood for.
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
        if ProfileDigest::new(bytes.len() as u64, caliper::digest(&bytes)) == *self {
            Verified::Hit(())
        } else {
            Verified::Corrupt
        }
    }
}

/// Read the record at `path` and verify it was written under exactly `key`,
/// a key's compact JSON text: the record's `key` member must be these very
/// bytes. The path only has to *find* the record (a cell name, a 128-bit
/// hash); equality of the embedded key is what makes serving it sound. A hit
/// is the record's other members, as a tree; no tree of the key is built.
pub fn read_verified(path: &Path, key: &str) -> Verified {
    read_keyed(path, |text| {
        let mut members = BTreeMap::new();
        let keyed = walk_record(text, key, |r, name| {
            members.insert(name.to_string(), r.value()?);
            Ok(())
        })?;
        Ok(keyed.then_some(Value::Object(members)))
    })
}

/// [`read_verified`] for a caller that passes one member on as text: the
/// same `Hit` / `Miss` / `Corrupt` decision, but a hit is the exact text of
/// the record's `member` (`null` when it has none), sliced from the file
/// rather than built into a tree and printed back. `member` is not `"key"`.
pub fn read_verified_text(path: &Path, key: &str, member: &str) -> Verified<String> {
    read_keyed(path, |text| {
        let mut kept = None;
        let keyed = walk_record(text, key, |r, name| {
            if name == member {
                kept = Some(r.raw()?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
        Ok(keyed.then(|| kept.unwrap_or("null").to_string()))
    })
}

/// [`read_with`] of a reader that answers `None` for a record of another key.
fn read_keyed<T>(
    path: &Path,
    read: impl FnOnce(&str) -> Result<Option<T>, serde_json::Error>,
) -> Verified<T> {
    match read_with(path, read) {
        Verified::Hit(Some(v)) => Verified::Hit(v),
        Verified::Hit(None) | Verified::Miss => Verified::Miss,
        Verified::Corrupt => Verified::Corrupt,
    }
}

/// The one walk of a record's text, validating it whole: every member but
/// `key` goes to `member`, and the `key` member's exact text is compared
/// with `key` (the last of a repeated member winning). `Ok(true)` for a
/// record of `key`, `Ok(false)` for JSON that is not one (another key, no
/// key, not an object), `Err` for text that is not JSON.
fn walk_record<'t>(
    text: &'t str,
    key: &str,
    mut member: impl FnMut(&mut Reader<'t>, &str) -> Result<(), serde_json::Error>,
) -> Result<bool, serde_json::Error> {
    let mut keyed = false;
    let mut r = Reader::new(text);
    let walked = r
        .object(|r, name| match &*name {
            "key" => r.raw().map(|raw| keyed = raw == key),
            name => member(r, name),
        })
        .and_then(|()| r.end());
    match walked {
        Ok(()) => Ok(keyed),
        // JSON that is not an object embeds no key: a miss, not corrupt.
        Err(_) => serde::text::validate(text).map(|()| false),
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

/// [`write_record`] of the body `{member: <text>}` whose one member is
/// already printed (compact): the same bytes, with `text` copied in rather
/// than parsed and printed again. `member` is not `"key"`.
pub fn write_record_text(path: &Path, key: &str, member: &str, text: &str) -> io::Result<()> {
    debug_assert_ne!(member, "key", "a record's `key` member is its key");
    let body = serde::Extended {
        body: &Value::Object(BTreeMap::new()),
        extra: &[(member, &Printed(text))],
    };
    write_record(path, key, &body)
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
