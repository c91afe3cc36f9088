//! Thicket-style exploratory data analysis for multi-run performance data.
//!
//! [Thicket](https://github.com/llnl/thicket) is LLNL's Python toolkit for
//! composing and analyzing performance profiles from many runs. Its data
//! model has three components (paper §II-D): a *performance dataframe* of
//! metrics indexed by (call-tree node, profile); a *metadata table* of
//! per-run build/execution context; and a *statsframe* of aggregated
//! statistics per node. This crate reproduces that model over the profiles
//! our `caliper` crate writes:
//!
//! * [`Thicket::from_profiles`] — the `from_caliperreader` equivalent:
//!   ingest many profiles, merging their call trees.
//! * [`Thicket::concat`] — `concat_thickets`: compose thickets from
//!   different runs/configurations into one.
//! * [`Thicket::filter_metadata`] / [`Thicket::groupby`] — select or
//!   partition profiles by metadata (e.g. by `variant` and `tuning`, as the
//!   paper's analysis does).
//! * [`Thicket::stats`] — aggregate a metric across profiles per node
//!   (mean/median/std/min/max) into the statsframe.
//! * [`Thicket::tree`] — text rendering of the call tree annotated with a
//!   metric, Thicket/Hatchet's `tree()`.
//!
//! The performance dataframe is stored **columnar** (see [`columnar`]'s
//! module docs): a single sorted node-major row index shared by dense
//! per-column value vectors with validity bitmaps. Aggregations are
//! contiguous per-node slice scans parallelized over the vendored `rayon`
//! pool with deterministic chunk-ordered combines, selections are
//! profile-mask gathers, and ingest appends to a pending chunk that is
//! compacted geometrically — so corpora of 10⁵–10⁶ profiles (the `rajaperfd`
//! store scale) stay interactive. [`Thicket::write_tkt`] /
//! [`Thicket::read_tkt`] persist the composed dataframe in a chunked binary
//! format so a corpus is parsed from Caliper JSON once, not per query.
//!
//! # One ingest route
//!
//! A `.cali.json` profile is `{globals, records: [{path, metrics}]}`, and
//! every profile reaches the frame the same way: staged in an
//! [`IngestSession`]'s reused buffers — column names interned, each record's
//! path segments and `(column, value)` cells pushed flat — then committed in
//! one append. What fills the staging is one walk over `serde::text::Reader`
//! (`Staging::read`, the crate's one spelling of the text shape), which
//! builds no JSON tree and no [`ProfileData`], only each global's own value:
//!
//! * [`IngestSession::ingest_json`] — a profile's text (and
//!   [`Thicket::from_files`], which reads each file into one reused buffer:
//!   all of `rajaperf-analyze DIR`);
//! * [`IngestSession::ingest_json_at`] — a profile embedded in a larger
//!   document at a member path (the daemon's store objects, at
//!   `report.profile`);
//! * [`ProfileData::from_caliper_json`] — the same walk drained into a
//!   `ProfileData`, which [`IngestSession::ingest`] stages as it stands.
//!
//! **All or nothing.** A document is read to its end before the thicket is
//! touched: a malformed profile (torn, not JSON, not a profile) is an `Err`
//! that leaves profiles, nodes, rows and columns exactly as they were, and
//! the next profile gets the id it would have had — which is what lets
//! `from_files` skip and report a bad file and keep composing. Text that is
//! not JSON is reported as that (`… at byte N`) before JSON that is not a
//! profile. A metric whose value is `null` (the writer's spelling of a
//! non-finite number) is a cell the run did not observe; a key repeated
//! within one object is last-wins, but every occurrence is checked where it
//! stands — so `{"t": "fast", "t": 1}` is refused. No writer here repeats a
//! key. `tests/text_ingest.rs` checks the walk against an independent reader
//! that goes through a JSON tree.

use serde::text::Reader;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

mod columnar;
mod features;
mod tkt;

use columnar::Frame;
use rayon::IntoParallelIterator;

pub use features::{kernel_family_features, FeatureMatrix};

/// Version tag of the analysis engine, for cache keys that must not serve
/// results computed by a different engine (e.g. `rajaperfd`'s analyze
/// cache). Bump on any change that can alter analysis output.
pub const ENGINE_VERSION: &str = "columnar-1";

/// Group label under which [`Thicket::groupby`] collects profiles whose
/// metadata lacks the grouping key (they are partitioned, not dropped).
pub const MISSING_GROUP: &str = "(missing)";

/// A node of the unified call graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Full call path from the root.
    pub path: Vec<String>,
}

impl Node {
    /// The node's own (leaf) name.
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// The Thicket: call graph + performance dataframe + metadata + statsframe.
#[derive(Debug, Clone, Default)]
pub struct Thicket {
    /// Unified call-graph nodes; `node id` = index.
    pub nodes: Vec<Node>,
    /// Profile ids, in ingestion order (always ascending: ids are allocated
    /// `max + 1` and filters keep subsequences).
    pub profiles: Vec<usize>,
    /// The columnar performance dataframe (metric columns over the sorted
    /// `(node, profile)` row index).
    frame: Frame,
    /// Per-profile metadata (from profile globals): profile → key → value.
    /// Each record is behind an `Arc` so selections (`groupby`, filters,
    /// clones) share it instead of deep-copying — at corpus scale the
    /// metadata copy, not the frame gather, dominated selection cost.
    pub metadata: BTreeMap<usize, Arc<BTreeMap<String, serde_json::Value>>>,
    /// Aggregated statistics per node: column → node → value. Filled by
    /// [`Thicket::stats`].
    pub statsframe: BTreeMap<String, BTreeMap<usize, f64>>,
}

/// Statistics produced by [`Thicket::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// Arithmetic mean.
    Mean,
    /// Median (average of middle two for even counts).
    Median,
    /// Population standard deviation.
    Std,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Linear-interpolated percentile, `0.0..=1.0` (Thicket exposes
    /// quartiles through its `calc_*_columns` helpers).
    Percentile(f64),
}

impl Stat {
    fn name(&self) -> String {
        match self {
            Stat::Mean => "mean".to_string(),
            Stat::Median => "median".to_string(),
            Stat::Std => "std".to_string(),
            Stat::Min => "min".to_string(),
            Stat::Max => "max".to_string(),
            Stat::Percentile(q) => format!("p{:02.0}", q * 100.0),
        }
    }

    fn apply(&self, values: &mut Vec<f64>) -> f64 {
        if values.is_empty() {
            return f64::NAN;
        }
        match self {
            Stat::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Stat::Median => Stat::Percentile(0.5).apply(values),
            Stat::Std => {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64)
                    .sqrt()
            }
            Stat::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
            Stat::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            Stat::Percentile(q) => {
                values.sort_by(f64::total_cmp);
                let q = q.clamp(0.0, 1.0);
                let pos = q * (values.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                if lo == hi {
                    values[lo]
                } else {
                    let frac = pos - lo as f64;
                    values[lo] * (1.0 - frac) + values[hi] * frac
                }
            }
        }
    }
}

/// Minimal profile shape consumed by [`Thicket::from_profiles`]; matches
/// `caliper::Profile` structurally (kept independent so `thicket` does not
/// depend on `caliper`, mirroring Thicket reading `.cali` files on disk).
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// Run metadata.
    pub globals: BTreeMap<String, serde_json::Value>,
    /// (call path, metric columns) records.
    pub records: Vec<(Vec<String>, BTreeMap<String, f64>)>,
}

/// What the walk says of a document that is JSON but not a profile.
const PROFILE_SHAPE: &str = "a profile is {globals, records: [{path, metrics}]}";

/// One profile, held flat: what the `.cali.json` text walk
/// ([`Staging::read`]) or a [`ProfileData`] ([`Staging::load`]) fills, and
/// what [`Thicket::ingest_staged`] commits (or
/// [`ProfileData::from_caliper_json`] drains). A session keeps one and reuses
/// its buffers and its column-name interner from profile to profile.
#[derive(Default)]
struct Staging {
    /// Column-name interner: a column's id is its index in `names`. Ids are
    /// private to this staging — the frame keys columns by name.
    ids: HashMap<String, usize>,
    names: Vec<String>,
    /// Per column id: the `metrics` object (by `stamp`) that last observed
    /// it and where in `cells` — how a repeated key finds the cell it
    /// overwrites, so a record holds each column at most once, last-wins.
    seen: Vec<(u64, usize)>,
    /// Counts `metrics` objects read; 0 is "never".
    stamp: u64,
    globals: BTreeMap<String, serde_json::Value>,
    /// Path segments and `(column id, value)` cells of all records, flat.
    segments: Vec<String>,
    cells: Vec<(usize, f64)>,
    /// Per record, in text order: where its segments and its cells end.
    records: Vec<(usize, usize)>,
}

impl Staging {
    /// Read the document `text` to its end, staging the profile found at
    /// member path `at` (`[]`: the document is the profile) in place of
    /// whatever was staged. `Ok(false)`: a member on the path is absent or
    /// `null`, so there is no profile to stage. On `Err` the staged content
    /// is unspecified (the next read replaces it).
    ///
    /// Text that is not JSON is reported as that (`… at byte N`, wherever the
    /// fault is) before JSON that is not a profile: the walk stops at the
    /// first thing it cannot use, so a failure re-reads the text for a
    /// grammar error further on.
    fn read(&mut self, text: &str, at: &[&str]) -> Result<bool, serde_json::Error> {
        let mut r = Reader::new(text);
        self.find(&mut r, at)
            .and_then(|found| r.end().map(|()| found))
            .map_err(|unusable| serde::text::validate(text).err().unwrap_or(unusable))
    }

    /// Follow `at` down from the value `r` is at; every other member is
    /// skipped, and a repeated member is last-wins.
    fn find(&mut self, r: &mut Reader<'_>, at: &[&str]) -> Result<bool, serde_json::Error> {
        let Some((name, rest)) = at.split_first() else {
            return self.profile(r).map(|()| true);
        };
        let mut found = false;
        r.object(|r, key| {
            if key != *name {
                return r.skip();
            }
            found = !r.null()? && self.find(r, rest)?;
            Ok(())
        })?;
        Ok(found)
    }

    /// Read one profile — the text shape `{globals, records: [{path,
    /// metrics}]}`, spelled here once. Unknown fields are skipped; a
    /// repeated key replaces its earlier occurrence.
    fn profile(&mut self, r: &mut Reader<'_>) -> Result<(), serde_json::Error> {
        let (mut globals, mut records) = (false, false);
        r.object(|r, key| match &*key {
            "globals" => {
                globals = true;
                self.globals.clear();
                r.object(|r, name| {
                    self.globals.insert(name.into_owned(), r.value()?);
                    Ok(())
                })
            }
            "records" => {
                records = true;
                self.clear_records();
                r.array(|r| self.record(r))
            }
            _ => r.skip(),
        })?;
        if globals && records {
            Ok(())
        } else {
            Err(serde_json::Error::msg(PROFILE_SHAPE))
        }
    }

    /// Stage a profile already held as data, as [`Staging::read`] stages
    /// its text.
    fn load(&mut self, p: &ProfileData) {
        self.globals = p.globals.clone();
        self.clear_records();
        for (path, metrics) in &p.records {
            self.segments.extend_from_slice(path);
            self.stamp += 1;
            for (name, &value) in metrics {
                self.observe(name.into(), value);
            }
            self.records.push((self.segments.len(), self.cells.len()));
        }
    }

    fn clear_records(&mut self) {
        self.segments.clear();
        self.cells.clear();
        self.records.clear();
    }

    fn record(&mut self, r: &mut Reader<'_>) -> Result<(), serde_json::Error> {
        let (first_segment, first_cell) = (self.segments.len(), self.cells.len());
        let (mut path, mut metrics) = (false, false);
        r.object(|r, key| match &*key {
            "path" => {
                path = true;
                self.segments.truncate(first_segment);
                r.array(|r| {
                    self.segments.push(r.string()?.into_owned());
                    Ok(())
                })
            }
            "metrics" => {
                metrics = true;
                self.cells.truncate(first_cell);
                self.stamp += 1;
                r.object(|r, name| {
                    // `null` is a cell the run did not observe (the writer's
                    // spelling of a non-finite value), not a bad profile.
                    if r.null()? {
                        self.unobserve(&name);
                    } else {
                        let value = r.f64()?;
                        self.observe(name, value);
                    }
                    Ok(())
                })
            }
            _ => r.skip(),
        })?;
        if !(path && metrics) {
            return Err(serde_json::Error::msg(PROFILE_SHAPE));
        }
        self.records.push((self.segments.len(), self.cells.len()));
        Ok(())
    }

    /// Stage `name = value` in the record being read.
    fn observe(&mut self, name: std::borrow::Cow<'_, str>, value: f64) {
        let id = match self.ids.get(&*name) {
            Some(&id) => id,
            None => {
                let id = self.names.len();
                self.names.push(name.to_string());
                self.seen.push((0, 0));
                self.ids.insert(name.into_owned(), id);
                id
            }
        };
        let (stamp, at) = self.seen[id];
        if stamp == self.stamp {
            self.cells[at].1 = value;
        } else {
            self.seen[id] = (self.stamp, self.cells.len());
            self.cells.push((id, value));
        }
    }

    /// Drop `name`'s cell from the record being read, if it has one.
    fn unobserve(&mut self, name: &str) {
        let Some(&id) = self.ids.get(name) else {
            return;
        };
        let (stamp, at) = self.seen[id];
        if stamp == self.stamp {
            self.seen[id].0 = 0;
            self.cells.swap_remove(at);
            if let Some(&(moved, _)) = self.cells.get(at) {
                self.seen[moved].1 = at;
            }
        }
    }

    /// Each staged record as `(path segments, cells)`, in text order.
    fn rows(&self) -> impl Iterator<Item = (&[String], &[(usize, f64)])> {
        let starts = std::iter::once(&(0, 0)).chain(&self.records);
        starts
            .zip(&self.records)
            .map(|(&(s0, c0), &(s1, c1))| (&self.segments[s0..s1], &self.cells[c0..c1]))
    }
}

impl ProfileData {
    /// Parse a caliper-JSON profile, straight from the text (no tree).
    pub fn from_caliper_json(text: &str) -> Result<ProfileData, serde_json::Error> {
        let mut staged = Staging::default();
        staged.read(text, &[])?;
        let named = |&(id, value): &(usize, f64)| (staged.names[id].clone(), value);
        let records = staged
            .rows()
            .map(|(path, cells)| (path.to_vec(), cells.iter().map(named).collect()))
            .collect();
        Ok(ProfileData {
            globals: std::mem::take(&mut staged.globals),
            records,
        })
    }

    /// Read a caliper-JSON profile file.
    ///
    /// A truncated, torn, or non-JSON file returns a descriptive
    /// `InvalidData` error naming the file and the byte offset where
    /// parsing failed (the reader embeds `at byte N` in its messages) —
    /// never a panic. Campaign ingestion ([`Thicket::from_files`]) relies
    /// on this to skip corrupt cells instead of dying on them.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<ProfileData> {
        let mut text = String::new();
        read_profile_text(path, &mut text)?;
        Self::from_caliper_json(&text).map_err(|e| malformed(path, e))
    }
}

/// Replace `text` with the contents of the profile file at `path`; the error
/// names the file.
fn read_profile_text(path: &std::path::Path, text: &mut String) -> std::io::Result<()> {
    use std::io::Read;
    text.clear();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(text))
        .map(drop)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// The error for a profile file that was read but is not a profile.
fn malformed(path: &std::path::Path, e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{}: malformed profile: {e}", path.display()),
    )
}

/// What [`Thicket::from_files`] skipped: one `(path, reason)` pair per
/// unreadable or malformed profile, so campaign tooling can report — and
/// re-run — exactly the cells that were lost.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Files ingested successfully.
    pub ingested: usize,
    /// Files skipped, with the error that disqualified each.
    pub skipped: Vec<(std::path::PathBuf, String)>,
}

impl IngestStats {
    /// Number of files skipped (the warning count).
    pub fn warnings(&self) -> usize {
        self.skipped.len()
    }
}

/// One row of [`Thicket::statsframe`]: a call-tree node and its metric
/// aggregated across profiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatRow {
    /// The node's call path, `/`-joined.
    pub node: String,
    /// Arithmetic mean across profiles.
    pub mean: f64,
    /// Minimum across profiles.
    pub min: f64,
    /// Maximum across profiles.
    pub max: f64,
}

/// Every `*.cali.json` profile directly under `dir`, sorted by path, so a
/// corpus composes in the same order whatever the directory iteration order.
pub fn profile_paths(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let entries = std::fs::read_dir(dir)?.flatten().map(|e| e.path());
    let mut paths: Vec<_> = entries
        .filter(|p| p.to_string_lossy().ends_with(".cali.json"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Transient path → node-id index used by the bulk ingestion paths. Built
/// once per bulk operation (O(nodes)) so node lookups are hashed instead of
/// linear — concatenating sweep-sized thickets was O(nodes²·columns) with
/// the old per-record scan. Not stored on [`Thicket`]: selections and
/// `.tkt` reopen would have to rebuild or carry it.
type PathIndex = HashMap<Vec<String>, usize>;

/// Narrow a node/profile id into the frame's `u32` row space.
pub(crate) fn id32(id: usize) -> u32 {
    u32::try_from(id).expect("thicket node/profile ids exceed the u32 row space")
}

/// A streaming ingestion session: wraps a [`Thicket`] with the transient
/// path index so per-profile ingest is O(records), not O(nodes) re-indexing
/// per call. This is the corpus entry point — `rajaperfd` analyze requests
/// and [`Thicket::from_files`] feed profiles through one of these as they
/// arrive, and [`IngestSession::finish`] compacts the result.
pub struct IngestSession {
    thicket: Thicket,
    index: PathIndex,
    /// Where each profile is staged before it commits, reused.
    staged: Staging,
    text: String,
}

impl IngestSession {
    /// Start from an empty thicket.
    pub fn new() -> IngestSession {
        IngestSession::from_thicket(Thicket::default())
    }

    /// Resume ingestion into an existing thicket (e.g. one reopened from a
    /// `.tkt` file).
    pub fn from_thicket(thicket: Thicket) -> IngestSession {
        let index = thicket.build_path_index();
        IngestSession {
            thicket,
            index,
            staged: Staging::default(),
            text: String::new(),
        }
    }

    /// Ingest one profile.
    pub fn ingest(&mut self, p: &ProfileData) {
        self.staged.load(p);
        self.thicket
            .ingest_staged(&mut self.index, &mut self.staged);
    }

    /// Ingest one profile from its caliper-JSON text, without building a
    /// [`ProfileData`]: the same nodes, rows and cells as
    /// `ingest(&ProfileData::from_caliper_json(text)?)`, bit for bit.
    /// All-or-nothing — the text is read to its end into the session's
    /// staging first, so an `Err` leaves the thicket exactly as it was and
    /// the next profile gets the id this one would have had.
    pub fn ingest_json(&mut self, text: &str) -> Result<(), serde_json::Error> {
        self.ingest_json_at(text, &[]).map(drop)
    }

    /// [`IngestSession::ingest_json`] of the profile embedded in the
    /// document `text` at member path `at` (e.g. `["report", "profile"]`).
    /// The whole document is read, all or nothing, before anything commits;
    /// `Ok(false)` — nothing ingested — when a member on the path is absent
    /// or `null`.
    pub fn ingest_json_at(&mut self, text: &str, at: &[&str]) -> Result<bool, serde_json::Error> {
        let found = self.staged.read(text, at)?;
        if found {
            self.thicket
                .ingest_staged(&mut self.index, &mut self.staged);
        }
        Ok(found)
    }

    /// [`IngestSession::ingest_json`] of the profile file at `path`, read
    /// into a buffer the session reuses; errors as
    /// [`ProfileData::read_file`]'s.
    fn ingest_file(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = std::mem::take(&mut self.text);
        let read = read_profile_text(path, &mut text)
            .and_then(|()| self.ingest_json(&text).map_err(|e| malformed(path, e)));
        self.text = text;
        read
    }

    /// Profiles ingested so far (including any the session started with).
    pub fn len(&self) -> usize {
        self.thicket.profiles.len()
    }

    /// True when no profiles have been ingested.
    pub fn is_empty(&self) -> bool {
        self.thicket.profiles.is_empty()
    }

    /// The thicket under construction (reads see all ingested data; bulk
    /// scans are cheaper after [`IngestSession::finish`]).
    pub fn thicket(&self) -> &Thicket {
        &self.thicket
    }

    /// Compact and return the thicket.
    pub fn finish(mut self) -> Thicket {
        let nnodes = self.thicket.nodes.len();
        self.thicket.frame.compact(nnodes);
        self.thicket
    }
}

impl Default for IngestSession {
    fn default() -> Self {
        Self::new()
    }
}

impl Thicket {
    /// Ingest profiles, unioning their call trees. Each profile gets the
    /// next free profile id.
    pub fn from_profiles(profiles: &[ProfileData]) -> Thicket {
        let mut s = IngestSession::new();
        for p in profiles {
            s.ingest(p);
        }
        s.finish()
    }

    /// Ingest profile files, skipping (not dying on) any that are
    /// unreadable or malformed — the fault-tolerant entry point for
    /// campaign-scale analysis, where a sweep directory may contain
    /// quarantined or torn cells. Returns the thicket built from the intact
    /// files plus an [`IngestStats`] listing every skipped file and why.
    pub fn from_files<P: AsRef<std::path::Path>>(paths: &[P]) -> (Thicket, IngestStats) {
        let mut s = IngestSession::new();
        let mut stats = IngestStats::default();
        for p in paths {
            let p = p.as_ref();
            match s.ingest_file(p) {
                Ok(()) => stats.ingested += 1,
                Err(e) => stats.skipped.push((p.to_path_buf(), e.to_string())),
            }
        }
        (s.finish(), stats)
    }

    /// Commit the profile held in `staged` as the next profile: the one way a
    /// profile's cells enter the frame. Appends land in the frame's pending
    /// chunk; compaction is amortized (geometric trigger), so N profiles
    /// stream in O(N) total merge work.
    fn ingest_staged(&mut self, index: &mut PathIndex, staged: &mut Staging) {
        let pid = self.next_profile_id();
        self.profiles.push(pid);
        let globals = std::mem::take(&mut staged.globals);
        self.metadata.insert(pid, Arc::new(globals));
        let rows: Vec<(u32, &[(usize, f64)])> = staged
            .rows()
            .map(|(path, cells)| (id32(self.node_id_or_insert(index, path)), cells))
            .collect();
        self.frame.append_cells(id32(pid), &rows, &staged.names);
        if self.frame.should_compact() {
            self.frame.compact(self.nodes.len());
        }
    }

    /// Smallest unused profile id. `last + 1`, not `len`: ids stay unique
    /// even after [`Thicket::filter_metadata`] leaves the set non-contiguous.
    /// Every constructor appends ids in ascending order and every filter
    /// keeps a subsequence, so the last element is the max — asserted in
    /// debug builds because streaming ingest calls this once per profile
    /// and an O(n) max-scan here made ingest quadratic.
    fn next_profile_id(&self) -> usize {
        debug_assert!(self.profiles.windows(2).all(|w| w[0] < w[1]));
        self.profiles.last().map_or(0, |m| m + 1)
    }

    /// Index the current node set by path.
    fn build_path_index(&self) -> PathIndex {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.path.clone(), i))
            .collect()
    }

    fn node_id_or_insert(&mut self, index: &mut PathIndex, path: &[String]) -> usize {
        if let Some(&i) = index.get(path) {
            return i;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            path: path.to_vec(),
        });
        index.insert(path.to_vec(), id);
        id
    }

    /// A fully-compacted view of the frame: borrowed when nothing is
    /// pending, else a compacted clone. Bulk scans use this so they only
    /// ever walk the sorted base.
    pub(crate) fn frame_view(&self) -> std::borrow::Cow<'_, Frame> {
        self.frame.compacted(self.nodes.len())
    }

    /// Construct from parts (the `.tkt` reader).
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        profiles: Vec<usize>,
        frame: Frame,
        metadata: BTreeMap<usize, Arc<BTreeMap<String, serde_json::Value>>>,
        statsframe: BTreeMap<String, BTreeMap<usize, f64>>,
    ) -> Thicket {
        Thicket {
            nodes,
            profiles,
            frame,
            metadata,
            statsframe,
        }
    }

    /// Node id by leaf name (first match).
    pub fn node_by_name(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name() == name)
    }

    /// Metric value at (node, profile).
    pub fn value(&self, column: &str, node: usize, profile: usize) -> Option<f64> {
        let (n, p) = (u32::try_from(node).ok()?, u32::try_from(profile).ok()?);
        self.frame.value(column, n, p)
    }

    /// All values of `column` at `node` across profiles (profile order).
    pub fn node_values(&self, column: &str, node: usize) -> Vec<(usize, f64)> {
        let Ok(n) = u32::try_from(node) else {
            return Vec::new();
        };
        self.frame
            .node_values(column, n)
            .into_iter()
            .map(|(p, v)| (p as usize, v))
            .collect()
    }

    /// Compose thickets into one (Thicket's `concat_thickets`): profiles are
    /// renumbered; call trees are unioned. Linear in the total data volume:
    /// node ids map through a per-thicket vector and each input frame is
    /// bulk-appended column-by-column, then everything is merge-sorted once.
    pub fn concat(thickets: &[Thicket]) -> Thicket {
        let mut out = Thicket::default();
        let mut index = PathIndex::new();
        for t in thickets {
            // This thicket's node id → out's node id (node id = index).
            let node_map: Vec<u32> = t
                .nodes
                .iter()
                .map(|n| id32(out.node_id_or_insert(&mut index, &n.path)))
                .collect();
            let mut prof_map: std::collections::HashMap<u32, u32> =
                std::collections::HashMap::with_capacity(t.profiles.len());
            for (next_pid, &pid) in (out.next_profile_id()..).zip(t.profiles.iter()) {
                out.profiles.push(next_pid);
                if let Some(md) = t.metadata.get(&pid) {
                    out.metadata.insert(next_pid, md.clone());
                }
                prof_map.insert(id32(pid), id32(next_pid));
            }
            let fv = t.frame_view();
            out.frame.append_frame(&fv, &node_map, &prof_map);
        }
        out.frame.compact(out.nodes.len());
        out
    }

    /// Keep only profiles whose metadata satisfies `pred` (Thicket's
    /// `filter_metadata`). Node set is preserved; orphaned values dropped.
    /// Profiles without a metadata record are dropped (use
    /// [`Thicket::groupby`] to partition those under [`MISSING_GROUP`]).
    pub fn filter_metadata(
        &self,
        pred: impl Fn(&BTreeMap<String, serde_json::Value>) -> bool,
    ) -> Thicket {
        let keep: Vec<usize> = self
            .profiles
            .iter()
            .copied()
            .filter(|p| self.metadata.get(p).map(|md| pred(md)).unwrap_or(false))
            .collect();
        self.select_profiles(&keep)
    }

    /// Sub-thicket of the given profile ids (ascending). The frame gather
    /// is a chunk-parallel selection of the rows whose profile is kept;
    /// nothing is sized by an id, which may be anything up to 2³² − 1.
    fn select_profiles(&self, keep: &[usize]) -> Thicket {
        // An id past `u32` has no rows to keep.
        let ids: Vec<u32> = keep.iter().filter_map(|&p| u32::try_from(p).ok()).collect();
        let frame = self.frame_view().select_profiles(&ids, self.nodes.len());
        let mut metadata = BTreeMap::new();
        for &p in keep {
            if let Some(md) = self.metadata.get(&p) {
                metadata.insert(p, md.clone());
            }
        }
        Thicket {
            nodes: self.nodes.clone(),
            profiles: keep.to_vec(),
            frame,
            metadata,
            statsframe: BTreeMap::new(),
        }
    }

    /// Partition profiles by the string value of a metadata key (Thicket's
    /// `groupby`). Profiles whose metadata lacks the key are grouped under
    /// [`MISSING_GROUP`] — every profile lands in exactly one group. Groups
    /// are returned in sorted key order.
    pub fn groupby(&self, key: &str) -> Vec<(String, Thicket)> {
        let mut parts: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for &p in &self.profiles {
            let label = self
                .metadata
                .get(&p)
                .and_then(|md| md.get(key))
                .map(json_to_string)
                .unwrap_or_else(|| MISSING_GROUP.to_string());
            parts.entry(label).or_default().push(p);
        }
        parts
            .into_iter()
            .map(|(label, pids)| {
                let group = self.select_profiles(&pids);
                (label, group)
            })
            .collect()
    }

    /// Aggregate `column` across profiles for every node, storing the result
    /// in the statsframe as `"<column>_<stat>"` and returning the column
    /// name. NaN is stored for nodes with no observations. Nodes are
    /// aggregated in parallel over the rayon pool; each node's values are
    /// reduced sequentially in profile order and results are collected in
    /// node order, so the statsframe is bitwise-identical for any
    /// `RAYON_NUM_THREADS`.
    pub fn stats(&mut self, column: &str, stat: Stat) -> String {
        self.frame.compact(self.nodes.len());
        let out_name = format!("{column}_{}", stat.name());
        let nnodes = self.nodes.len();
        let frame = &self.frame;
        let vals: Vec<f64> = (0..nnodes)
            .into_par_iter()
            .map(|nid| {
                let mut vs = frame.node_column_values(column, id32(nid));
                stat.apply(&mut vs)
            })
            .collect();
        self.statsframe
            .insert(out_name.clone(), vals.into_iter().enumerate().collect());
        out_name
    }

    /// The statsframe of `column` as rows: mean, min and max per node, in
    /// node order, skipping nodes that never observed the column. What
    /// `rajaperf-analyze` prints and `rajaperfd` sends.
    pub fn statsframe(&mut self, column: &str) -> Vec<StatRow> {
        let [mean, min, max] = [Stat::Mean, Stat::Min, Stat::Max].map(|s| self.stats(column, s));
        let rows = self.nodes.iter().enumerate().filter_map(|(nid, node)| {
            let stat = |name: &str| self.stat_value(name, nid).unwrap_or(f64::NAN);
            (!stat(&mean).is_nan()).then(|| StatRow {
                node: node.path.join("/"),
                mean: stat(&mean),
                min: stat(&min),
                max: stat(&max),
            })
        });
        rows.collect()
    }

    /// A statsframe value.
    pub fn stat_value(&self, stat_column: &str, node: usize) -> Option<f64> {
        self.statsframe.get(stat_column)?.get(&node).copied()
    }

    /// Render the call tree annotated with a metric column's mean across
    /// profiles (Hatchet/Thicket `tree()`).
    pub fn tree(&self, column: &str) -> String {
        let f = self.frame_view();
        // Order nodes by path for a stable depth-first-looking listing.
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| self.nodes[a].path.cmp(&self.nodes[b].path));
        let mut out = String::new();
        for nid in order {
            let node = &self.nodes[nid];
            let vals = f.node_values(column, id32(nid));
            let mean = if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().map(|(_, v)| v).sum::<f64>() / vals.len() as f64
            };
            let indent = "  ".repeat(node.path.len().saturating_sub(1));
            out.push_str(&format!("{mean:12.6} {indent}{}\n", node.name()));
        }
        out
    }

    /// Names of every metric column.
    pub fn column_names(&self) -> Vec<&str> {
        self.frame.column_names()
    }

    /// `Ok` when `column` is a metric column; otherwise the message a
    /// front-end shows for a misspelt `--metric`, naming the columns there
    /// are — an unknown column is otherwise an empty statsframe, not an error.
    pub fn require_column(&self, column: &str) -> Result<(), String> {
        let known = self.column_names();
        if known.contains(&column) {
            return Ok(());
        }
        Err(format!(
            "unknown metric column '{column}'; available: {}",
            known.join(", ")
        ))
    }

    /// Serialize the performance dataframe as CSV: one row per
    /// (node, profile) with every metric column. Fields containing `,`,
    /// `"`, or newlines are RFC-4180 quoted (quotes doubled); numeric
    /// fields never need quoting.
    pub fn to_csv(&self) -> String {
        let f = self.frame_view();
        let cols: Vec<&String> = f.columns().keys().collect();
        let mut out = String::from("node,profile");
        for c in &cols {
            out.push(',');
            out.push_str(&csv_escape(c));
        }
        out.push('\n');
        for (pos, &(nid, pid)) in f.rows().iter().enumerate() {
            out.push_str(&csv_escape(&self.nodes[nid as usize].path.join("/")));
            out.push(',');
            out.push_str(&pid.to_string());
            for c in &cols {
                out.push(',');
                if let Some(v) = f.columns()[*c].get(pos) {
                    out.push_str(&format!("{v:e}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Number of (node, profile) rows carrying at least one metric.
    pub fn row_count(&self) -> usize {
        self.frame_view().rows().len()
    }
}

fn json_to_string(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// RFC-4180 field quoting: wrap in double quotes when the field contains a
/// comma, quote, or line break, doubling any embedded quotes.
fn csv_escape(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        let mut s = String::with_capacity(field.len() + 2);
        s.push('"');
        for ch in field.chars() {
            if ch == '"' {
                s.push('"');
            }
            s.push(ch);
        }
        s.push('"');
        std::borrow::Cow::Owned(s)
    } else {
        std::borrow::Cow::Borrowed(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(variant: &str, kernel_time: f64) -> ProfileData {
        let mut globals = BTreeMap::new();
        globals.insert("variant".to_string(), serde_json::json!(variant));
        let mut metrics = BTreeMap::new();
        metrics.insert("avg#time.duration".to_string(), kernel_time);
        metrics.insert("Bytes/Rep".to_string(), 100.0);
        ProfileData {
            globals,
            records: vec![
                (vec!["RAJAPerf".into()], BTreeMap::new()),
                (vec!["RAJAPerf".into(), "TRIAD".into()], metrics),
            ],
        }
    }

    #[test]
    fn ingest_builds_nodes_and_columns() {
        let t = Thicket::from_profiles(&[profile("RAJA_Seq", 1.0), profile("Base_Seq", 2.0)]);
        assert_eq!(t.profiles.len(), 2);
        assert_eq!(t.nodes.len(), 2, "shared call tree is unioned");
        let nid = t.node_by_name("TRIAD").unwrap();
        assert_eq!(t.value("avg#time.duration", nid, 0), Some(1.0));
        assert_eq!(t.value("avg#time.duration", nid, 1), Some(2.0));
    }

    #[test]
    fn concat_renumbers_profiles() {
        let a = Thicket::from_profiles(&[profile("A", 1.0)]);
        let b = Thicket::from_profiles(&[profile("B", 2.0)]);
        let c = Thicket::concat(&[a, b]);
        assert_eq!(c.profiles, vec![0, 1]);
        let nid = c.node_by_name("TRIAD").unwrap();
        assert_eq!(c.value("avg#time.duration", nid, 0), Some(1.0));
        assert_eq!(c.value("avg#time.duration", nid, 1), Some(2.0));
        assert_eq!(
            c.metadata[&1]["variant"],
            serde_json::json!("B"),
            "metadata follows renumbered profile"
        );
    }

    #[test]
    fn filter_metadata_selects_profiles() {
        let t = Thicket::from_profiles(&[
            profile("RAJA_Seq", 1.0),
            profile("Base_Seq", 2.0),
            profile("RAJA_Seq", 3.0),
        ]);
        let f = t.filter_metadata(|md| md["variant"] == serde_json::json!("RAJA_Seq"));
        assert_eq!(f.profiles.len(), 2);
        let nid = f.node_by_name("TRIAD").unwrap();
        assert_eq!(f.value("avg#time.duration", nid, 1), None, "dropped");
        assert_eq!(f.value("avg#time.duration", nid, 2), Some(3.0));
    }

    #[test]
    fn groupby_partitions_by_variant() {
        let t = Thicket::from_profiles(&[
            profile("RAJA_Seq", 1.0),
            profile("Base_Seq", 2.0),
            profile("RAJA_Seq", 3.0),
        ]);
        let groups = t.groupby("variant");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "Base_Seq");
        assert_eq!(groups[0].1.profiles.len(), 1);
        assert_eq!(groups[1].0, "RAJA_Seq");
        assert_eq!(groups[1].1.profiles.len(), 2);
    }

    /// Regression: profiles whose metadata lacks the groupby key used to be
    /// silently dropped from every group; they now land in the
    /// `"(missing)"` sentinel group, so groupby is a partition.
    #[test]
    fn groupby_missing_key_lands_in_sentinel_group() {
        let mut no_variant = profile("ignored", 5.0);
        no_variant.globals.clear();
        let t = Thicket::from_profiles(&[
            profile("RAJA_Seq", 1.0),
            no_variant,
            profile("Base_Seq", 2.0),
        ]);
        let groups = t.groupby("variant");
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, MISSING_GROUP, "'(' sorts before letters");
        assert_eq!(groups[0].1.profiles, vec![1]);
        let nid = groups[0].1.node_by_name("TRIAD").unwrap();
        assert_eq!(
            groups[0].1.value("avg#time.duration", nid, 1),
            Some(5.0),
            "sentinel group keeps its data"
        );
        let total: usize = groups.iter().map(|(_, g)| g.profiles.len()).sum();
        assert_eq!(total, t.profiles.len(), "groupby partitions every profile");
    }

    #[test]
    fn stats_aggregate_across_profiles() {
        let mut t = Thicket::from_profiles(&[
            profile("a", 1.0),
            profile("b", 2.0),
            profile("c", 6.0),
        ]);
        let nid = t.node_by_name("TRIAD").unwrap();
        let mean_col = t.stats("avg#time.duration", Stat::Mean);
        assert_eq!(t.stat_value(&mean_col, nid), Some(3.0));
        let med_col = t.stats("avg#time.duration", Stat::Median);
        assert_eq!(t.stat_value(&med_col, nid), Some(2.0));
        let min_col = t.stats("avg#time.duration", Stat::Min);
        assert_eq!(t.stat_value(&min_col, nid), Some(1.0));
        let max_col = t.stats("avg#time.duration", Stat::Max);
        assert_eq!(t.stat_value(&max_col, nid), Some(6.0));
        let std_col = t.stats("avg#time.duration", Stat::Std);
        let expected_std = ((4.0 + 1.0 + 9.0) / 3.0f64).sqrt();
        assert!((t.stat_value(&std_col, nid).unwrap() - expected_std).abs() < 1e-12);
    }

    #[test]
    fn stats_on_missing_data_is_nan() {
        let mut t = Thicket::from_profiles(&[profile("a", 1.0)]);
        let root = t.node_by_name("RAJAPerf").unwrap();
        let col = t.stats("avg#time.duration", Stat::Mean);
        assert!(t.stat_value(&col, root).unwrap().is_nan());
    }

    #[test]
    fn caliper_json_parses() {
        let text = r#"{
            "globals": {"variant": "RAJA_Seq"},
            "records": [
                {"path": ["RAJAPerf", "ADD"], "metrics": {"count": 3.0}}
            ]
        }"#;
        let p = ProfileData::from_caliper_json(text).unwrap();
        assert_eq!(p.globals["variant"], serde_json::json!("RAJA_Seq"));
        assert_eq!(p.records.len(), 1);
        let t = Thicket::from_profiles(&[p]);
        let nid = t.node_by_name("ADD").unwrap();
        assert_eq!(t.value("count", nid, 0), Some(3.0));
    }

    /// Regression: `caliper` writes a non-finite metric as `null`, and one
    /// such cell used to make the whole profile `malformed` — every other
    /// kernel of the run lost with it. It is a cell the run did not observe.
    #[test]
    fn a_null_metric_is_an_unobserved_cell_on_every_route() {
        let text = r#"{
            "globals": {"variant": "RAJA_SimGpu"},
            "records": [
                {"path": ["RAJAPerf", "ADD"], "metrics": {"Checksum": null, "count": 3.0}},
                {"path": ["RAJAPerf", "MUL"], "metrics": {"Checksum": 7.5, "count": 1}}
            ]
        }"#;
        let mut session = IngestSession::new();
        session.ingest_json(text).unwrap();
        let embedded = format!(r#"{{"report": {{"profile": {text}}}}}"#);
        let mut at_path = IngestSession::new();
        assert_eq!(
            at_path
                .ingest_json_at(&embedded, &["report", "profile"])
                .ok(),
            Some(true)
        );
        let routes = [
            Thicket::from_profiles(&[ProfileData::from_caliper_json(text).unwrap()]),
            session.finish(),
            at_path.finish(),
        ];
        for t in routes {
            let (add, mul) = (t.node_by_name("ADD").unwrap(), t.node_by_name("MUL").unwrap());
            assert_eq!(t.value("Checksum", add, 0), None);
            assert_eq!(t.value("count", add, 0), Some(3.0));
            assert_eq!(t.value("Checksum", mul, 0), Some(7.5));
            assert_eq!(t.row_count(), 2);
        }
        // Anything else that is not a number is still malformed.
        let bad = text.replace("null", "\"NaN\"");
        assert!(ProfileData::from_caliper_json(&bad).is_err());
    }

    /// A profile embedded in a larger document (the daemon's store objects):
    /// a member on the path that is absent or `null` is no profile, not an
    /// error; anything else follows the rules of a profile's own text.
    #[test]
    fn a_profile_at_a_member_path_is_read_from_the_whole_document() {
        let at = ["report", "profile"];
        let profile = r#"{"globals": {"v": 1}, "records": [{"path": ["a"], "metrics": {"t": 2}}]}"#;
        let mut s = IngestSession::new();
        for absent in [
            r#"{"key": 1}"#.to_string(),
            r#"{"report": null}"#.to_string(),
            r#"{"report": {"entries": []}}"#.to_string(),
            format!(r#"{{"report": {{"profile": {profile}}}, "report": {{"profile": null}}}}"#),
        ] {
            assert_eq!(s.ingest_json_at(&absent, &at).ok(), Some(false), "{absent}");
        }
        assert!(s.is_empty());
        let whole =
            format!(r#"{{"key": {{"x": [1]}}, "report": {{"ok": true, "profile": {profile}}}}}"#);
        assert_eq!(s.ingest_json_at(&whole, &at).ok(), Some(true));
        // Read to the end before anything commits: a grammar error after the
        // profile outranks it, and leaves the session as it was.
        let torn = &whole[..whole.len() - 1];
        let err = s.ingest_json_at(torn, &at).unwrap_err().to_string();
        assert!(err.ends_with(&format!(" at byte {}", torn.len())), "{err}");
        let trailing = format!("{whole} x");
        let err = s.ingest_json_at(&trailing, &at).unwrap_err().to_string();
        assert!(err.starts_with("trailing characters"), "{err}");
        let not_a_profile = whole.replace(r#""records""#, r#""recs""#);
        let err = s
            .ingest_json_at(&not_a_profile, &at)
            .unwrap_err()
            .to_string();
        assert_eq!(err, PROFILE_SHAPE);
        assert_eq!(s.len(), 1);
        let t = s.finish();
        assert_eq!(t.value("t", t.node_by_name("a").unwrap(), 0), Some(2.0));
    }

    #[test]
    fn tree_renders_hierarchy() {
        let t = Thicket::from_profiles(&[profile("v", 1.5)]);
        let text = t.tree("avg#time.duration");
        assert!(text.contains("RAJAPerf"));
        assert!(text.contains("TRIAD"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn percentile_stat_interpolates() {
        let mut t = Thicket::from_profiles(&[
            profile("a", 1.0),
            profile("b", 2.0),
            profile("c", 3.0),
            profile("d", 4.0),
        ]);
        let nid = t.node_by_name("TRIAD").unwrap();
        let p25 = t.stats("avg#time.duration", Stat::Percentile(0.25));
        assert!((t.stat_value(&p25, nid).unwrap() - 1.75).abs() < 1e-12);
        let p100 = t.stats("avg#time.duration", Stat::Percentile(1.0));
        assert_eq!(t.stat_value(&p100, nid), Some(4.0));
    }

    #[test]
    fn csv_export_has_rows_and_columns() {
        let t = Thicket::from_profiles(&[profile("a", 1.0), profile("b", 2.0)]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("node,profile"));
        assert!(header.contains("avg#time.duration"));
        // Only the TRIAD node carries metrics: 2 data rows.
        assert_eq!(lines.count(), 2);
        assert!(!t.column_names().is_empty());
    }

    /// A minimal RFC-4180 line parser for the round-trip assertions: splits
    /// one record into fields, honoring quoted fields with doubled quotes.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(ch) = chars.next() {
            if quoted {
                if ch == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                } else {
                    cur.push(ch);
                }
            } else {
                match ch {
                    '"' => quoted = true,
                    ',' => fields.push(std::mem::take(&mut cur)),
                    _ => cur.push(ch),
                }
            }
        }
        fields.push(cur);
        fields
    }

    /// Regression: node paths and column names containing CSV metacharacters
    /// used to be emitted raw, corrupting the table shape. They are now
    /// RFC-4180 quoted and survive a parse round-trip.
    #[test]
    fn csv_quotes_special_fields_round_trip() {
        let mut metrics = BTreeMap::new();
        metrics.insert("weird,col\"name".to_string(), 2.5);
        let p = ProfileData {
            globals: BTreeMap::new(),
            records: vec![(
                vec!["RAJA,Perf".into(), "TRIAD \"fused\"".into()],
                metrics,
            )],
        };
        let t = Thicket::from_profiles(&[p]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = parse_csv_line(lines.next().unwrap());
        assert_eq!(header, vec!["node", "profile", "weird,col\"name"]);
        let row = parse_csv_line(lines.next().unwrap());
        assert_eq!(row[0], "RAJA,Perf/TRIAD \"fused\"");
        assert_eq!(row[1], "0");
        assert_eq!(row[2].parse::<f64>().unwrap(), 2.5);
        // Every record still has the header's field count.
        for line in csv.lines().skip(1) {
            assert_eq!(parse_csv_line(line).len(), header.len());
        }
    }

    #[test]
    fn corrupt_profile_json_is_an_error_not_a_panic() {
        assert!(ProfileData::from_caliper_json("{not json").is_err());
        assert!(ProfileData::from_caliper_json(r#"{"globals": {}}"#).is_err());
        let missing = std::path::Path::new("/nonexistent/profile.cali.json");
        assert!(ProfileData::read_file(missing).is_err());
    }

    #[test]
    fn row_count_counts_touched_rows() {
        let t = Thicket::from_profiles(&[profile("a", 1.0), profile("b", 2.0)]);
        // Root has no metrics; TRIAD × 2 profiles = 2 rows.
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn profile_ids_stay_unique_after_filtering() {
        let mut t = Thicket::from_profiles(&[
            profile("keep", 1.0),
            profile("drop", 2.0),
            profile("keep", 3.0),
        ]);
        // Filter leaves ids {0, 2}; the next ingest must not reuse id 2.
        t = t.filter_metadata(|md| md["variant"] == serde_json::json!("keep"));
        assert_eq!(t.profiles, vec![0, 2]);
        let mut s = IngestSession::from_thicket(t);
        s.ingest(&profile("new", 4.0));
        assert_eq!(
            s.finish().profiles,
            vec![0, 2, 3],
            "max+1 allocation, not len"
        );
    }

    /// Streaming ingest through an [`IngestSession`] must land in the same
    /// observable state as bulk [`Thicket::from_profiles`].
    #[test]
    fn ingest_session_matches_bulk_ingest() {
        let ps: Vec<ProfileData> = (0..7)
            .map(|i| profile(["a", "b"][i % 2], i as f64))
            .collect();
        let bulk = Thicket::from_profiles(&ps);
        let mut s = IngestSession::new();
        for p in &ps {
            s.ingest(p);
        }
        assert_eq!(s.len(), 7);
        // Reads through the session see pending data already.
        let nid = s.thicket().node_by_name("TRIAD").unwrap();
        assert_eq!(s.thicket().value("avg#time.duration", nid, 6), Some(6.0));
        let streamed = s.finish();
        assert_eq!(streamed.to_csv(), bulk.to_csv());
        assert_eq!(streamed.profiles, bulk.profiles);
    }

    /// Perf regression: concat used to re-scan the node list per record
    /// (O(nodes²·columns)); with the path index, composing the 12-cell
    /// sweep's worth of full-registry thickets is effectively instant.
    #[test]
    fn concat_of_sweep_sized_thickets_is_fast() {
        // 12 sweep cells × one profile over a 600-node call tree with 8
        // metric columns each — the shape `rajaperf --sweep` produces.
        let cells: Vec<Thicket> = (0..12)
            .map(|cell| {
                let mut globals = BTreeMap::new();
                globals.insert("variant".to_string(), serde_json::json!(format!("v{cell}")));
                let records = (0..600)
                    .map(|k| {
                        let mut metrics = BTreeMap::new();
                        for m in 0..8 {
                            metrics.insert(format!("metric{m}"), (cell * 600 + k) as f64 + m as f64);
                        }
                        (
                            vec!["RAJAPerf".to_string(), format!("group{}", k % 20), format!("kernel{k}")],
                            metrics,
                        )
                    })
                    .collect();
                Thicket::from_profiles(&[ProfileData { globals, records }])
            })
            .collect();
        // Deliberately real wall-clock: this asserts an actual performance
        // bound on concat, which a virtual clock would trivialize.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let combined = Thicket::concat(&cells);
        let elapsed = start.elapsed();
        assert_eq!(combined.profiles.len(), 12);
        assert_eq!(combined.nodes.len(), 600, "node set is unioned, not duplicated");
        let nid = combined.node_by_name("kernel17").unwrap();
        assert_eq!(combined.value("metric0", nid, 0), Some(17.0));
        assert_eq!(combined.value("metric0", nid, 11), Some((11 * 600 + 17) as f64));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "sweep-sized concat took {elapsed:?}; the path index should make it well under a second"
        );
    }
}
