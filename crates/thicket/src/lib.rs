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
//! profile-mask gathers, and [`Thicket::ingest`] appends to a pending chunk
//! that is compacted geometrically — so corpora of 10⁵–10⁶ profiles (the
//! `rajaperfd` store scale) stay interactive. [`Thicket::write_tkt`] /
//! [`Thicket::read_tkt`] persist the composed dataframe in a chunked binary
//! format so a corpus is parsed from Caliper JSON once, not per query.
//!
//! # Two ingest routes
//!
//! A `.cali.json` profile is `{globals, records: [{path, metrics}]}`, and it
//! reaches the frame one of two ways:
//!
//! * **From text** — [`IngestSession::ingest_json`] (and
//!   [`IngestSession::ingest_file`], [`Thicket::from_files`], which is all of
//!   `rajaperf-analyze DIR`). One walk over `serde::text::Reader`
//!   (`Staging::read`, the crate's one spelling of the text shape) interns
//!   column names and stages each record's path and `(column, value)` cells
//!   in buffers the session reuses; no JSON tree and no [`ProfileData`] is
//!   built — only each global's own value. [`ProfileData::from_caliper_json`]
//!   is the same walk drained into a `ProfileData`.
//! * **From a tree** — [`ProfileData::from_caliper_value`] +
//!   [`IngestSession::ingest`], for callers that already hold a
//!   `serde_json::Value` (the daemon's store objects). Its `impl Deserialize`
//!   is the reference the text walk is tested against
//!   (`tests/text_ingest.rs`): same profiles, same `.tkt` bytes.
//!
//! **All or nothing.** `ingest_json` reads a profile's text to its end before
//! it touches the thicket: a malformed profile (torn, not JSON, not a
//! profile) is an `Err` that leaves profiles, nodes, rows and columns exactly
//! as they were, and the next profile gets the id it would have had — which
//! is what lets `from_files` skip and report a bad file and keep composing.
//! A metric whose value is `null` (the writer's spelling of a non-finite
//! number) is a cell the run did not observe, on both routes; a key repeated
//! within one object is last-wins, on both routes. The one difference: the
//! walk checks every occurrence of a repeated key where it stands, while a
//! tree only ever holds the last — so `{"t": "fast", "t": 1}` is refused
//! from text and read from a tree. No writer here repeats a key.

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

/// Row identity in the performance dataframe: (node, profile).
pub type RowKey = (usize, usize);

/// The Thicket: call graph + performance dataframe + metadata + statsframe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// What every reader says of a document that is JSON but not a profile.
const PROFILE_SHAPE: &str = "a profile is {globals, records: [{path, metrics}]}";

/// The caliper-JSON shape of a profile as a tree: the route for callers that
/// already hold a [`serde_json::Value`] (the daemon's store objects), and the
/// reference the text walk ([`Staging::read`]) is tested against.
impl Deserialize for ProfileData {
    fn deserialize(profile: &serde_json::Value) -> Result<ProfileData, serde_json::Error> {
        use serde_json::{Error, Value};
        let shape = || Error::msg(PROFILE_SHAPE);
        let fields = profile.as_object().ok_or_else(shape)?;
        let Some(Value::Array(records)) = fields.get("records") else {
            return Err(shape());
        };
        let record = |r: &Value| {
            let r = r.as_object().ok_or_else(shape)?;
            // A `null` metric is a cell the run did not observe (the writer's
            // spelling of a non-finite value), not a malformed profile.
            let metrics: BTreeMap<String, Option<f64>> = serde::de_field(r, "metrics")?;
            let observed = metrics.into_iter().filter_map(|(k, v)| Some((k, v?)));
            Ok((serde::de_field(r, "path")?, observed.collect()))
        };
        Ok(ProfileData {
            globals: serde::de_field(fields, "globals")?,
            records: records.iter().map(record).collect::<Result<_, Error>>()?,
        })
    }
}

/// One profile's text, read and held flat: what the `.cali.json` text walk
/// ([`Staging::read`]) fills and what its two consumers drain —
/// [`ProfileData::from_caliper_json`] into a `ProfileData`,
/// [`IngestSession::ingest_json`] into the frame. A session keeps one and
/// reuses its buffers and its column-name interner from profile to profile.
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
    /// Read one profile — the text shape `{globals, records: [{path,
    /// metrics}]}`, spelled here once — replacing whatever was staged.
    /// Unknown fields are skipped; a repeated key replaces its earlier
    /// occurrence, as the tree's map insert does. On `Err` the staged
    /// content is unspecified (the next `read` clears it).
    ///
    /// Text that is not JSON is reported as that (`… at byte N`, wherever the
    /// fault is) before JSON that is not a profile, as on the tree route: the
    /// walk stops at the first thing it cannot use, so a failure re-reads
    /// the text for a grammar error further on.
    fn read(&mut self, text: &str) -> Result<(), serde_json::Error> {
        self.walk(text)
            .map_err(|unusable| serde::text::validate(text).err().unwrap_or(unusable))
    }

    fn walk(&mut self, text: &str) -> Result<(), serde_json::Error> {
        self.globals.clear();
        self.clear_records();
        let (mut globals, mut records) = (false, false);
        let mut r = Reader::new(text);
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
        r.end()?;
        if globals && records {
            Ok(())
        } else {
            Err(serde_json::Error::msg(PROFILE_SHAPE))
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
                    // `null` is a cell the run did not observe: see the
                    // `Deserialize` impl, which this must agree with.
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
        staged.read(text)?;
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

    /// [`ProfileData::from_caliper_json`] for a profile that is already a
    /// JSON tree (e.g. inline in a larger document).
    pub fn from_caliper_value(
        profile: &serde_json::Value,
    ) -> Result<ProfileData, serde_json::Error> {
        ProfileData::deserialize(profile)
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
/// the old per-record scan. Not stored on [`Thicket`]: the struct is plain
/// serializable data, and an index field would leak into its JSON form.
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
    /// Scratch of the text route, reused from profile to profile.
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
        self.thicket.ingest_indexed(&mut self.index, p);
    }

    /// Ingest one profile from its caliper-JSON text, without building a
    /// [`ProfileData`]: the same nodes, rows and cells as
    /// `ingest(&ProfileData::from_caliper_json(text)?)`, bit for bit.
    /// All-or-nothing — the text is read to its end into the session's
    /// scratch first, so an `Err` leaves the thicket exactly as it was and
    /// the next profile gets the id this one would have had.
    pub fn ingest_json(&mut self, text: &str) -> Result<(), serde_json::Error> {
        self.staged.read(text)?;
        self.thicket.ingest_staged(&mut self.index, &mut self.staged);
        Ok(())
    }

    /// [`IngestSession::ingest_json`] of the profile file at `path`, read
    /// into a buffer the session reuses; errors as
    /// [`ProfileData::read_file`]'s.
    pub fn ingest_file(&mut self, path: &std::path::Path) -> std::io::Result<()> {
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

    /// Add one profile to this thicket. Appends land in the frame's pending
    /// chunk; compaction is amortized (geometric trigger), so calling this
    /// in a loop streams N profiles in O(N) total merge work. For long
    /// sessions prefer [`IngestSession`], which also amortizes the path
    /// index.
    pub fn ingest(&mut self, p: &ProfileData) {
        let mut index = self.build_path_index();
        self.ingest_indexed(&mut index, p);
    }

    fn ingest_indexed(&mut self, index: &mut PathIndex, p: &ProfileData) {
        let pid = self.next_profile_id();
        self.profiles.push(pid);
        self.metadata.insert(pid, Arc::new(p.globals.clone()));
        let pid = id32(pid);
        for (path, metrics) in &p.records {
            let nid = id32(self.node_id_or_insert(index, path));
            self.frame.append(nid, pid, metrics);
        }
        if self.frame.should_compact() {
            self.frame.compact(self.nodes.len());
        }
    }

    /// [`Thicket::ingest_indexed`] for a profile held in `staged`.
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

    /// Node id of a call path, if present.
    pub fn node_id(&self, path: &[&str]) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.path.len() == path.len() && n.path.iter().zip(path).all(|(a, b)| a == b)
        })
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
    /// is a chunk-parallel profile-mask selection.
    fn select_profiles(&self, keep: &[usize]) -> Thicket {
        let mask_len = self.profiles.iter().copied().max().map_or(0, |m| m + 1);
        let mut mask = vec![false; mask_len];
        for &p in keep {
            mask[p] = true;
        }
        let fv = self.frame_view();
        let frame = fv.select_profiles(&mask, self.nodes.len());
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

    /// Nodes whose leaf name contains `pattern` (a simple Hatchet-style
    /// query on the call graph).
    pub fn query_nodes(&self, pattern: &str) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].name().contains(pattern))
            .collect()
    }

    /// Keep only the sub-thicket of nodes matching `pattern` (the query
    /// counterpart of [`Thicket::filter_metadata`]).
    pub fn filter_nodes(&self, pattern: &str) -> Thicket {
        let keep = self.query_nodes(pattern);
        let mut remap: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut nodes = Vec::with_capacity(keep.len());
        for &nid in &keep {
            remap[nid] = Some(id32(nodes.len()));
            nodes.push(self.nodes[nid].clone());
        }
        let fv = self.frame_view();
        let frame = fv.select_nodes(&remap, nodes.len());
        Thicket {
            nodes,
            profiles: self.profiles.clone(),
            frame,
            metadata: self.metadata.clone(),
            statsframe: BTreeMap::new(),
        }
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

    /// Render a text heatmap of `column` over nodes × profiles (Thicket's
    /// `display_heatmap`): each cell is a shade from '.' (minimum) to '#'
    /// (maximum), normalized per node so cross-profile differences stand
    /// out. Nodes without data are skipped.
    pub fn heatmap(&self, column: &str) -> String {
        const SHADES: &[u8] = b".:-=+*%#";
        let f = self.frame_view();
        let mut out = format!(
            "heatmap of {column} (columns = profiles {:?})\n",
            self.profiles
        );
        for nid in 0..self.nodes.len() {
            let vals = f.node_values(column, id32(nid));
            if vals.is_empty() {
                continue;
            }
            let lo = vals.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
            let hi = vals
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut cells = String::new();
            let mut cur = 0usize;
            for &p in &self.profiles {
                while cur < vals.len() && (vals[cur].0 as usize) < p {
                    cur += 1;
                }
                if cur < vals.len() && vals[cur].0 as usize == p {
                    let v = vals[cur].1;
                    let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
                    let idx = (frac * (SHADES.len() - 1) as f64).round() as usize;
                    cells.push(SHADES[idx.min(SHADES.len() - 1)] as char);
                } else {
                    cells.push(' ');
                }
            }
            out.push_str(&format!("{cells}  {}\n", self.nodes[nid].path.join("/")));
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
    fn node_lookup_by_path() {
        let t = Thicket::from_profiles(&[profile("v", 1.0)]);
        assert!(t.node_id(&["RAJAPerf", "TRIAD"]).is_some());
        assert!(t.node_id(&["TRIAD"]).is_none(), "path must match fully");
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
        let tree: serde_json::Value = serde_json::from_str(text).unwrap();
        let mut session = IngestSession::new();
        session.ingest_json(text).unwrap();
        let routes = [
            Thicket::from_profiles(&[ProfileData::from_caliper_json(text).unwrap()]),
            Thicket::from_profiles(&[ProfileData::from_caliper_value(&tree).unwrap()]),
            session.finish(),
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
        let tree: serde_json::Value = serde_json::from_str(&bad).unwrap();
        assert!(ProfileData::from_caliper_value(&tree).is_err());
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
    fn query_and_filter_nodes() {
        let t = Thicket::from_profiles(&[profile("v", 1.0)]);
        assert_eq!(t.query_nodes("TRIAD").len(), 1);
        assert_eq!(t.query_nodes("RAJA").len(), 1, "matches the root node");
        let f = t.filter_nodes("TRIAD");
        assert_eq!(f.nodes.len(), 1);
        assert_eq!(f.value("avg#time.duration", 0, 0), Some(1.0));
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
    fn heatmap_shades_extremes() {
        let t = Thicket::from_profiles(&[profile("a", 1.0), profile("b", 9.0)]);
        let hm = t.heatmap("avg#time.duration");
        // The TRIAD row has a min cell '.' and a max cell '#'.
        let row = hm.lines().find(|l| l.contains("TRIAD")).unwrap();
        assert!(row.starts_with(".#"), "{row}");
        // Root node has no data for the column: skipped entirely.
        assert!(!hm.contains("RAJAPerf\n") || hm.lines().count() >= 2);
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
        t.ingest(&profile("new", 4.0));
        assert_eq!(t.profiles, vec![0, 2, 3], "max+1 allocation, not len");
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
        assert_eq!(streamed.heatmap("avg#time.duration"), bulk.heatmap("avg#time.duration"));
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
