//! The `--sweep` batched orchestrator: run the full cross-product of
//! variants × block-size tunings of a selection in one invocation.
//!
//! The paper's methodology is *one run per (variant, tuning), composed later
//! in Thicket* (§II-D); a sweep automates the "many runs" half. Each cell of
//! the cross-product is an ordinary [`crate::run_suite`] invocation with its own
//! correctly-named Caliper profile (`<variant>.block_<size>.cali.json` under
//! the sweep directory), so no two cells ever share an output file. A
//! `manifest.json` at the top of the sweep directory indexes every cell.
//!
//! Cells are cached: each run writes a `cells/<cell>.json` result record
//! ([`crate::record`]) keyed by the cell's own run parameters. Re-running a
//! sweep after an interruption (or with an unchanged configuration) reuses
//! any cell whose record verifies and whose profile file is still intact,
//! and re-executes the rest.
//!
//! # Ranked campaigns (`--ranks N`)
//!
//! With `--ranks N > 1` one supervisor (`sweep/supervisor.rs`) hands the
//! pending cells (after the cache scan) from one queue to N ranks,
//! mirroring the paper's multi-rank MPI campaigns. `--rank-isolation`
//! picks what carries a rank (`sweep/carrier.rs`) — a thread in this
//! process (default) or a spawned child `rajaperf` process — and nothing
//! else: both speak the same protocol (`sweep/protocol.rs`) to the same
//! worker loop (`sweep/worker.rs`), and a rank that dies (thread panic,
//! child signal or exit) hands its cell back to the queue and is respawned
//! within `--rank-restarts`, then retired, in either mode. The manifest is assembled in grid order
//! from the gathered results, so it is byte-identical to the `--ranks 1`
//! run no matter which rank executed which cell, across kills, restarts,
//! and isolation-mode changes on resume: the cache key and manifest never
//! record rank count or mode.
//!
//! # Crash safety
//!
//! The sweep is built to survive a `kill -9` at any instant and resume:
//!
//! * Every file the sweep writes — profiles (via [`crate::run_suite`]'s Caliper
//!   outputs), cell cache records, and the manifest — goes through
//!   [`caliper::write_atomic`] (temp + fsync + rename), so a mid-write kill
//!   leaves either the old file or the new one, never a torn prefix.
//! * Cached cells are *integrity-checked* on load by [`crate::record`]'s
//!   rule: the record must be JSON whose `key` is the cell's key text, byte
//!   for byte, and the profile must be the very bytes the record's length
//!   and digest name (no profile is parsed). A torn record, or a profile
//!   that is torn, flipped or another cell's, is moved to `quarantine/` (the
//!   profile with the record that vouched for it) and the cell re-runs. A
//!   record with no digest vouches for nothing: the cell re-runs, nothing
//!   is quarantined.
//! * The manifest records only deterministic cell facts (no `cached` flags,
//!   no wall times, no executing-rank ids), so a killed-and-resumed sweep —
//!   at any rank count — produces a manifest byte-identical to an
//!   uninterrupted one. A manifest that already holds those bytes is not
//!   written again (no fsync, rename or directory sync on a warm run).

use crate::params::RankIsolation;
use crate::record::{self, CampaignKey, ProfileDigest, Verified};
use crate::{run_suite_with, RunParams};
use kernels::VariantId;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

pub(crate) mod carrier;
pub(crate) mod protocol;
pub(crate) mod supervisor;
pub(crate) mod worker;

pub use supervisor::RankCasualty;

/// One (variant, tuning) cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Variant this cell ran.
    pub variant: VariantId,
    /// GPU block-size tuning this cell ran.
    pub gpu_block_size: usize,
    /// The cell's Caliper profile file.
    pub profile: PathBuf,
    /// True when the cell was reused from a previous sweep run.
    pub cached: bool,
    /// The rank that executed this cell in a `--ranks N` campaign; `None`
    /// for cached cells and single-process sweeps. Diagnostic only — never
    /// part of the manifest.
    pub executed_by: Option<usize>,
    /// Kernels that executed and passed in this cell.
    pub kernels_run: usize,
    /// Kernels that failed or timed out in this cell (fault tolerance:
    /// failures are cell facts, not sweep aborts).
    pub kernels_failed: usize,
    /// Per-kernel `(name, outcome label)` of the failures, in run order.
    pub failed_kernels: Vec<(String, String)>,
    /// Summed kernel wall time of the cell, seconds.
    pub total_time_s: f64,
}

/// The result of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Sweep output directory.
    pub dir: PathBuf,
    /// Path of the written manifest.
    pub manifest: PathBuf,
    /// Every cell of the cross-product, in (variant, block-size) order.
    pub cells: Vec<SweepCell>,
    /// Corrupt cache/profile files found while loading cached cells, after
    /// being moved into the sweep's `quarantine/` directory. Their cells
    /// were re-run.
    pub quarantined: Vec<PathBuf>,
    /// Per-rank communication counters of the campaign's gather traffic,
    /// indexed by rank; empty when no rank was started (`--ranks 1`, or
    /// every cell cached). Counted from the rank's side (sent = rank →
    /// supervisor), in encoded protocol frames, cumulative across the
    /// rank's restarts, under either isolation mode.
    pub rank_stats: Vec<simcomm::CommStats>,
    /// Times each rank was respawned after dying, indexed by rank; empty
    /// when no rank was started.
    pub rank_restarts: Vec<u32>,
    /// Ranks that exhausted their restart budget and were retired; their
    /// cells were redistributed to the surviving ranks. Empty unless the
    /// campaign degraded.
    pub casualties: Vec<RankCasualty>,
    /// Supervisor annotations (respawns, retirements) plus, for process
    /// ranks, the child's stderr — each line prefixed `[rank N]`, in
    /// arrival order, bounded per rank. Thread ranks write to this
    /// process's own stderr, so only the annotations appear for them.
    pub child_output: Vec<String>,
}

impl SweepSummary {
    /// Total kernel failures across all cells.
    pub fn kernels_failed(&self) -> usize {
        self.cells.iter().map(|c| c.kernels_failed).sum()
    }

    /// Render the per-cell summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Sweep: {} cells ({} cached{})\n{:<12} {:>10} {:>8} {:>8} {:>12}  profile\n",
            self.cells.len(),
            self.cells.iter().filter(|c| c.cached).count(),
            match self.quarantined.len() {
                0 => String::new(),
                n => format!(", {n} corrupt file(s) quarantined"),
            },
            "Variant",
            "BlockSize",
            "Kernels",
            "Failed",
            "Time (s)"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<12} {:>10} {:>8} {:>8} {:>12.3}  {}{}{}\n",
                c.variant.name(),
                c.gpu_block_size,
                c.kernels_run,
                c.kernels_failed,
                c.total_time_s,
                c.profile.display(),
                if c.cached { "  (cached)" } else { "" },
                match c.executed_by {
                    Some(r) => format!("  (rank {r})"),
                    None => String::new(),
                }
            ));
        }
        for c in &self.cells {
            for (kernel, label) in &c.failed_kernels {
                out.push_str(&format!(
                    "  {} block_{}: {kernel} {label}\n",
                    c.variant.name(),
                    c.gpu_block_size
                ));
            }
        }
        if !self.rank_stats.is_empty() {
            out.push_str(&format!("Ranks: {}\n", self.rank_stats.len()));
            for (rank, s) in self.rank_stats.iter().enumerate() {
                out.push_str(&format!(
                    "  rank {rank}: sent {} msg / {} B, received {} msg / {} B{}\n",
                    s.messages_sent,
                    s.bytes_sent,
                    s.messages_received,
                    s.bytes_received,
                    match self.rank_restarts.get(rank) {
                        Some(&r) if r > 0 => format!(", restarts {r}"),
                        _ => String::new(),
                    }
                ));
            }
        }
        if !self.casualties.is_empty() {
            out.push_str("Casualties (cells redistributed to surviving ranks):\n");
            for c in &self.casualties {
                out.push_str(&format!(
                    "  rank {}: retired after {} restart(s); last failure: {}\n",
                    c.rank, c.restarts, c.last_failure
                ));
            }
        }
        if !self.child_output.is_empty() {
            out.push_str("Rank output:\n");
            for line in &self.child_output {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

/// A finished sweep as data: where the campaign's files are, what its ranks
/// did, and one row per cell. Its derived JSON is the daemon's sweep `report`.
#[derive(Serialize)]
pub struct SweepReport {
    dir: String,
    manifest: String,
    quarantined: usize,
    ranks: usize,
    isolation: String,
    restart_budget: u32,
    rank_restarts: Vec<u32>,
    casualties: Vec<RankCasualty>,
    rank_stats: Vec<RankTraffic>,
    cells: Vec<CellRow>,
}

/// One rank's gather traffic ([`simcomm::CommStats`], tagged with the rank).
#[derive(Serialize)]
struct RankTraffic {
    rank: usize,
    messages_sent: u64,
    bytes_sent: u64,
    messages_received: u64,
    bytes_received: u64,
}

/// The deterministic, printable facts of a [`SweepCell`].
#[derive(Serialize)]
struct CellRow {
    variant: String,
    gpu_block_size: usize,
    cached: bool,
    kernels_run: usize,
    kernels_failed: usize,
    profile: String,
}

impl SweepReport {
    /// Summarize `summary`, the result of running `params`.
    pub fn of(params: &RunParams, summary: &SweepSummary) -> SweepReport {
        let traffic = summary.rank_stats.iter().enumerate();
        SweepReport {
            dir: summary.dir.display().to_string(),
            manifest: summary.manifest.display().to_string(),
            quarantined: summary.quarantined.len(),
            ranks: params.ranks,
            isolation: params.rank_isolation.name().to_string(),
            restart_budget: params.rank_restarts,
            rank_restarts: summary.rank_restarts.clone(),
            casualties: summary.casualties.clone(),
            rank_stats: traffic
                .map(|(rank, s)| RankTraffic {
                    rank,
                    messages_sent: s.messages_sent,
                    bytes_sent: s.bytes_sent,
                    messages_received: s.messages_received,
                    bytes_received: s.bytes_received,
                })
                .collect(),
            cells: summary
                .cells
                .iter()
                .map(|c| CellRow {
                    variant: c.variant.name().to_string(),
                    gpu_block_size: c.gpu_block_size,
                    cached: c.cached,
                    kernels_run: c.kernels_run,
                    kernels_failed: c.kernels_failed,
                    profile: c.profile.display().to_string(),
                })
                .collect(),
        }
    }
}

/// One cell's own run: the campaign's parameters at this variant and
/// tuning, as a plain single run. What the cell executes and — through
/// [`CampaignKey`] — what its record is keyed by.
fn cell_params(base: &RunParams, variant: VariantId, block_size: usize) -> RunParams {
    let mut p = base.clone();
    p.variant = variant;
    p.tuning.gpu_block_size = block_size;
    p.sweep = false;
    p.ranks = 1;
    p
}

/// Everything needed to execute (or reuse) one cell, precomputed in grid
/// order so any rank can execute any cell identically.
#[derive(Debug, Clone)]
pub(crate) struct CellSpec {
    /// Position in the (variant × block-size) grid; manifest order.
    pub(crate) index: usize,
    pub(crate) variant: VariantId,
    pub(crate) block_size: usize,
    /// The cell's Caliper profile path.
    pub(crate) profile: PathBuf,
    /// The cell's cache-record path.
    pub(crate) cache: PathBuf,
    /// The cell's cache key: the [`CampaignKey`] text of [`cell_params`],
    /// printed once when the grid is planned.
    pub(crate) key: String,
}

/// One kernel that did not pass in a cell, as the manifest, the cell cache
/// and the gather protocol all spell it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FailedKernel {
    pub(crate) kernel: String,
    /// The outcome label (`FAILED`, `TIMEOUT`, ...).
    pub(crate) status: String,
}

/// The deterministic facts a cell execution produces (the manifest's cell
/// fields plus the wall time, which stays out of the manifest). Its derived
/// JSON is the shape of the cell cache record's outcome fields and of the
/// protocol's `outcome` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CellOutcome {
    pub(crate) kernels_run: usize,
    pub(crate) kernels_failed: usize,
    /// Failures in run order.
    pub(crate) failed_kernels: Vec<FailedKernel>,
    pub(crate) total_time_s: f64,
}

/// `manifest.json`: the grid's tunings and each cell's deterministic facts,
/// in grid order.
#[derive(Serialize)]
struct Manifest {
    suite: &'static str,
    block_sizes: Vec<usize>,
    cells: Vec<ManifestCell>,
}

/// One cell of the manifest: no cached flag, wall time or executing rank.
#[derive(Serialize)]
struct ManifestCell {
    variant: &'static str,
    gpu_block_size: usize,
    profile: String,
    kernels_run: usize,
    kernels_failed: usize,
    failed_kernels: Vec<FailedKernel>,
}

/// What loading a cell's cache produced.
pub(crate) enum CellLoad {
    /// The record matches and the profile is the one it vouches for: reuse.
    Hit(CellOutcome),
    /// No usable cache (absent, stale key, no digest, or no profile): run
    /// the cell normally.
    Miss,
    /// A record that does not parse, or a profile that is not the bytes
    /// its record vouches for — torn by a kill, corrupted on disk, or
    /// copied from elsewhere. They must be quarantined and the cell re-run.
    Corrupt(Vec<PathBuf>),
}

/// Load a cell's cache record, integrity-checking both the record and the
/// profile it vouches for.
pub(crate) fn load_cached_cell(spec: &CellSpec) -> CellLoad {
    let (outcome, digest) = match record::read_verified(&spec.cache, &spec.key) {
        Verified::Hit(v) => match (CellOutcome::deserialize(&v), ProfileDigest::deserialize(&v)) {
            (Ok(outcome), Ok(digest)) => (outcome, digest),
            _ => return CellLoad::Miss,
        },
        Verified::Miss => return CellLoad::Miss,
        Verified::Corrupt => return CellLoad::Corrupt(vec![spec.cache.clone()]),
    };
    // The record vouches for the profile's bytes; verify the file holds
    // exactly them before trusting either.
    match digest.check(&spec.profile) {
        Verified::Hit(()) => CellLoad::Hit(outcome),
        Verified::Miss => CellLoad::Miss,
        // Torn or foreign profile: quarantine it *and* the record that
        // vouched for it, so neither is ever consulted again.
        Verified::Corrupt => CellLoad::Corrupt(vec![spec.profile.clone(), spec.cache.clone()]),
    }
}

/// Execute one cell: an ordinary [`crate::run_suite`] with the cell's variant and
/// tuning, its profile as the Caliper output, and — in a ranked campaign —
/// the executing rank's identity as `rank_ctx` so the profile carries
/// `mpi.rank` metadata. Writes the cell's atomic cache record — unless the
/// profile's flush failed, in which case there is nothing to vouch for and
/// the cell re-runs next time.
///
/// The record's `key` is identical no matter which rank (or how many ranks)
/// executed the cell; its digest is of the profile that rank wrote.
pub(crate) fn execute_cell(
    base: &RunParams,
    spec: &CellSpec,
    rank_ctx: Option<(usize, usize)>,
) -> io::Result<CellOutcome> {
    let mut p = cell_params(base, spec.variant, spec.block_size);
    p.rank_context = rank_ctx;
    let profile = caliper::OutputSpec::SpotProfile {
        output: spec.profile.display().to_string(),
    };
    let report = run_suite_with(&p, vec![profile], None);
    let failed_kernels: Vec<FailedKernel> = report
        .outcomes
        .iter()
        .filter(|o| !o.outcome.is_pass())
        .map(|o| FailedKernel {
            kernel: o.kernel.clone(),
            status: o.outcome.label(),
        })
        .collect();
    let outcome = CellOutcome {
        kernels_run: report.entries.len(),
        kernels_failed: failed_kernels.len(),
        failed_kernels,
        total_time_s: report
            .entries
            .iter()
            .map(|e| e.result.time.as_secs_f64())
            .sum(),
    };
    // The record is the outcome's own JSON plus what vouches for the
    // profile: its path, and the length and digest of the bytes the flush
    // handed to the writer. The warm scan reads every record, so it
    // carries no more than that.
    let Some(written) = report.outputs.iter().find(|w| w.path == spec.profile) else {
        return Ok(outcome);
    };
    let digest = ProfileDigest::new(written.len, written.digest);
    let profile = spec.profile.display().to_string();
    let body = serde::Extended {
        body: &outcome,
        extra: &[
            ("profile", &profile),
            ("profile_bytes", &digest.profile_bytes),
            ("profile_digest", &digest.profile_digest),
        ],
    };
    record::write_record(&spec.cache, &spec.key, &body)?;
    Ok(outcome)
}

/// The planned grid of a sweep: output directory, tunings, and every
/// cell's spec in manifest order. Derived deterministically from the
/// parameters alone, so a child-rank worker process re-plans the identical
/// grid from the argv its supervisor hands it (a thread rank shares the
/// supervisor's own plan) and the two sides can talk about cells by grid
/// index.
pub(crate) struct SweepPlan {
    pub(crate) dir: PathBuf,
    pub(crate) block_sizes: Vec<usize>,
    pub(crate) specs: Vec<CellSpec>,
}

/// Plan the (variant × block-size) grid and create the sweep's output
/// directories (idempotent).
pub(crate) fn plan_sweep(base: &RunParams) -> io::Result<SweepPlan> {
    let dir = base
        .sweep_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/sweep"));
    let profiles_dir = dir.join("profiles");
    let cells_dir = dir.join("cells");
    std::fs::create_dir_all(&profiles_dir)?;
    std::fs::create_dir_all(&cells_dir)?;
    let block_sizes: Vec<usize> = if base.sweep_block_sizes.is_empty() {
        vec![base.tuning.gpu_block_size]
    } else {
        base.sweep_block_sizes.clone()
    };
    // A cell's key is `CampaignKey::of(&cell_params(..))`. Its kernel list
    // depends on the variant, never on the block size, so the selection is
    // resolved once and each variant's key is built once.
    let selected = base.selected_kernels();
    let mut specs = Vec::new();
    for &variant in &VariantId::all() {
        let own = cell_params(base, variant, base.tuning.gpu_block_size);
        let mut key = CampaignKey::of_selected(&own, &selected);
        for &bs in &block_sizes {
            let cell_name = format!("{}.block_{bs}", variant.name());
            key.gpu_block_size = bs;
            specs.push(CellSpec {
                index: specs.len(),
                variant,
                block_size: bs,
                profile: profiles_dir.join(format!("{cell_name}.cali.json")),
                cache: cells_dir.join(format!("{cell_name}.json")),
                key: key.text(),
            });
        }
    }
    Ok(SweepPlan {
        dir,
        block_sizes,
        specs,
    })
}

/// Enter the rank-worker child loop (the hidden `--rank-worker R/N` mode the
/// process carrier spawns; `sweep/worker.rs`). Returns the process exit
/// status for `main`.
pub fn run_rank_worker(base: &RunParams) -> crate::SuiteExit {
    worker::run(base)
}

/// Run the full (variant × block-size) cross-product of `base`'s selection.
///
/// `base.sweep_block_sizes` supplies the tunings (falling back to the single
/// `base.tuning.gpu_block_size`); `base.sweep_dir` the output directory
/// (default `target/sweep`); `base.ranks` the campaign width (pending cells
/// are handed out to that many ranks when > 1, carried as
/// `base.rank_isolation` says). Every cell — even one whose selection has
/// no kernel supporting the variant — emits a distinct profile, so
/// downstream Thicket-style composition sees the complete grid.
pub fn run_sweep(base: &RunParams) -> io::Result<SweepSummary> {
    // Plan the grid in manifest order, then scan the cache: hits become
    // finished cells immediately, torn files are quarantined, and the rest
    // form the pending work-list (grid indices) that the inline loop and
    // the supervisor's ranks consume identically.
    let plan = Arc::new(plan_sweep(base)?);
    // A killed writer's temp files carry its pid and would otherwise stay
    // for ever. Supervisor side only: child ranks plan the same grid while
    // their siblings are mid-write.
    for dir in [plan.dir.clone(), plan.dir.join("profiles"), plan.dir.join("cells")] {
        caliper::remove_orphaned_temps(&dir);
    }

    let mut quarantined = Vec::new();
    // Per grid cell: (outcome, cached, executing rank).
    let mut finished: Vec<Option<(CellOutcome, bool, Option<usize>)>> =
        vec![None; plan.specs.len()];
    let mut pending: Vec<usize> = Vec::new();
    for spec in &plan.specs {
        match load_cached_cell(spec) {
            CellLoad::Hit(outcome) => finished[spec.index] = Some((outcome, true, None)),
            CellLoad::Corrupt(files) => {
                for f in files {
                    quarantined.push(record::quarantine(&plan.dir, &f)?);
                }
                pending.push(spec.index);
            }
            CellLoad::Miss => pending.push(spec.index),
        }
    }

    let mut campaign = supervisor::Campaign::default();
    let ranked = base.ranks > 1 || base.rank_isolation == RankIsolation::Process;
    if ranked && !pending.is_empty() {
        // The one place the isolation mode is consulted: it picks what
        // carries a rank. The supervisor behind it is the same.
        let nranks = base.ranks.max(1);
        let carrier: Box<dyn carrier::Carrier> = match base.rank_isolation {
            RankIsolation::Process => Box::new(carrier::ProcessCarrier::new(base, nranks)?),
            RankIsolation::Threads => Box::new(carrier::ThreadCarrier::new(base, &plan, nranks)),
        };
        campaign = supervisor::run_campaign(&*carrier, &pending, nranks, base.rank_restarts)?;
        for (i, rank, outcome) in std::mem::take(&mut campaign.executed) {
            finished[i] = Some((outcome, false, Some(rank)));
        }
    } else {
        // `--ranks 1`: no supervisor, no rank context — the byte-identity
        // reference every ranked campaign is compared against.
        for &i in &pending {
            let outcome = execute_cell(base, &plan.specs[i], None)?;
            finished[i] = Some((outcome, false, None));
        }
    }

    // The manifest indexes deterministic cell facts only — no cached flags,
    // no wall times, no executing ranks — so resuming an interrupted sweep
    // (at any rank count) reproduces the uninterrupted manifest byte for
    // byte.
    let mut manifest_cells = Vec::new();
    let mut cells = Vec::new();
    for (spec, cell) in plan.specs.iter().zip(finished) {
        let (outcome, cached, executed_by) =
            cell.expect("every grid cell resolved to cached or executed");
        manifest_cells.push(ManifestCell {
            variant: spec.variant.name(),
            gpu_block_size: spec.block_size,
            profile: spec.profile.display().to_string(),
            kernels_run: outcome.kernels_run,
            kernels_failed: outcome.kernels_failed,
            failed_kernels: outcome.failed_kernels.clone(),
        });
        let failed = outcome.failed_kernels.into_iter();
        cells.push(SweepCell {
            variant: spec.variant,
            gpu_block_size: spec.block_size,
            profile: spec.profile.clone(),
            cached,
            executed_by,
            kernels_run: outcome.kernels_run,
            kernels_failed: outcome.kernels_failed,
            failed_kernels: failed.map(|f| (f.kernel, f.status)).collect(),
            total_time_s: outcome.total_time_s,
        });
    }
    let manifest = plan.dir.join("manifest.json");
    let manifest_text = serde::text::write(
        &Manifest {
            suite: "RAJAPerf-rs",
            block_sizes: plan.block_sizes.clone(),
            cells: manifest_cells,
        },
        true,
    );
    if std::fs::read(&manifest).ok().as_deref() != Some(manifest_text.as_bytes()) {
        caliper::write_atomic(&manifest, manifest_text.as_bytes())?;
    }

    Ok(SweepSummary {
        dir: plan.dir.clone(),
        manifest,
        cells,
        quarantined,
        rank_stats: campaign.stats,
        rank_restarts: campaign.restarts,
        casualties: campaign.casualties,
        child_output: campaign.output,
    })
}
