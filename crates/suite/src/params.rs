//! Run parameters and command-line parsing (the suite's "wide variety of
//! command line options", §II-A).

use kernels::{Feature, Group, KernelBase, KernelInfo, Tuning, VariantId};

/// Which kernels to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every kernel in the registry.
    All,
    /// Kernels named explicitly (full `Group_KERNEL` names).
    Kernels(Vec<String>),
    /// Whole groups by name (`Stream`, `Basic`, ...).
    Groups(Vec<String>),
    /// Kernels exercising a RAJA feature (`sort`, `scan`, `reduction`,
    /// `atomic`, `view`, `workgroup`, `mpi`).
    Features(Vec<String>),
    /// Union of several selections — what `--groups Stream --kernels
    /// Basic_DAXPY` means. A kernel matched by more than one member still
    /// runs once: selection is a single filter pass over the registry, so
    /// membership, not match count, decides inclusion.
    Union(Vec<Selection>),
}

impl Selection {
    /// Whether this selection includes `info`. Registry order is preserved
    /// by the caller's filter pass; overlap across `Union` members cannot
    /// duplicate a kernel.
    fn matches(&self, info: &KernelInfo) -> bool {
        match self {
            Selection::All => true,
            Selection::Kernels(names) => names.iter().any(|n| n == info.name),
            Selection::Groups(groups) => groups
                .iter()
                .any(|g| g.eq_ignore_ascii_case(info.group.name())),
            Selection::Features(feats) => feats.iter().any(|f| {
                info.features
                    .iter()
                    .any(|kf| feature_matches(kf, &f.to_ascii_lowercase()))
            }),
            Selection::Union(parts) => parts.iter().any(|p| p.matches(info)),
        }
    }

    /// Explicitly-named kernels (recursing through `Union`) — the only way
    /// `Fixture_*` positive controls join a selection.
    fn explicit_kernel_names(&self) -> Vec<&str> {
        match self {
            Selection::Kernels(names) => names.iter().map(String::as_str).collect(),
            Selection::Union(parts) => {
                let mut out: Vec<&str> = Vec::new();
                for p in parts {
                    for n in p.explicit_kernel_names() {
                        if !out.contains(&n) {
                            out.push(n);
                        }
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }
}

/// What carries a ranked sweep's ranks (`--rank-isolation`). The
/// supervisor, protocol and failure policy (requeue → restart within
/// `--rank-restarts` → retire) are the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankIsolation {
    /// Ranks are worker threads in this process (the default). Free to
    /// start and a panicking rank is restarted, but a hard fault (abort,
    /// OOM kill) in any rank kills the whole campaign.
    #[default]
    Threads,
    /// Each rank is a spawned child `rajaperf` process: a signal-killed or
    /// aborted rank is a restarted rank too, and silent ranks are detected
    /// by heartbeat and killed.
    Process,
}

impl RankIsolation {
    /// Parse a `--rank-isolation` mode name.
    pub fn parse(s: &str) -> Option<RankIsolation> {
        match s {
            "threads" | "thread" => Some(RankIsolation::Threads),
            "process" => Some(RankIsolation::Process),
            _ => None,
        }
    }

    /// The mode's canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RankIsolation::Threads => "threads",
            RankIsolation::Process => "process",
        }
    }
}

/// Parameters of one suite run (one variant, one tuning — one profile).
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Kernel selection.
    pub selection: Selection,
    /// Kernels to exclude by name.
    pub exclude: Vec<String>,
    /// Variant to run.
    pub variant: VariantId,
    /// GPU tuning.
    pub tuning: Tuning,
    /// Multiplier on each kernel's default problem size.
    pub size_factor: f64,
    /// Overrides the per-kernel default size entirely.
    pub explicit_size: Option<usize>,
    /// Multiplier on each kernel's default repetition count.
    pub reps_factor: f64,
    /// Overrides the per-kernel default reps entirely.
    pub explicit_reps: Option<usize>,
    /// Caliper ConfigManager spec (e.g. `spot(output=run.cali.json)`).
    pub caliper_spec: Option<String>,
    /// Run the simulated-device sanitizer (`simsan`) over the selection
    /// after the timing pass and append its findings to the report.
    pub sanitize: bool,
    /// Run the batched sweep orchestrator: the full cross-product of all
    /// variants × the block-size tunings in one invocation, one profile per
    /// cell (see [`crate::sweep`]).
    pub sweep: bool,
    /// Block-size tunings for `--sweep`; empty means "just the single
    /// `--gpu-block-size` tuning".
    pub sweep_block_sizes: Vec<usize>,
    /// Output directory for sweep profiles, cell caches, and the manifest.
    pub sweep_dir: Option<std::path::PathBuf>,
    /// Number of simulated ranks to shard the sweep's cell grid across
    /// (`--ranks`, default 1), with cell-granularity work stealing under
    /// one supervisor; the manifest is byte-identical to a `--ranks 1` run.
    pub ranks: usize,
    /// What carries a rank (`--rank-isolation`, default `threads`): a
    /// worker thread in-process, or a child `rajaperf` process.
    pub rank_isolation: RankIsolation,
    /// Restart budget per rank of a ranked campaign (`--rank-restarts`,
    /// default 2): how many times the supervisor restarts a dead rank
    /// before retiring it as a casualty and redistributing its cells to
    /// the survivors.
    pub rank_restarts: u32,
    /// Internal: this invocation *is* a child rank worker — `(rank,
    /// nranks)` from the hidden `--rank-worker R/N` flag the supervisor
    /// appends when spawning children. The binary enters the worker loop
    /// ([`crate::run_rank_worker`]) instead of running a sweep.
    pub rank_worker: Option<(usize, usize)>,
    /// Rank identity of the *current* `run_suite` call inside a ranked
    /// sweep: `(rank, nranks)`. Set internally by the sweep orchestrator —
    /// not a CLI flag — so Caliper profiles carry `mpi.rank` metadata.
    pub rank_context: Option<(usize, usize)>,
    /// Record an event trace of the run and write it as Chrome Trace Event
    /// JSON to this path (loadable in `chrome://tracing` / Perfetto).
    pub trace: Option<std::path::PathBuf>,
    /// Also write the event trace as flamegraph folded stacks to this path.
    pub trace_folded: Option<std::path::PathBuf>,
    /// Deterministic fault-injection spec (`--faults` / `SIMFAULT`), e.g.
    /// `gpusim.launch=err:0.05,seed=42`. Installed (counters reset) at the
    /// start of every [`crate::run_suite`] call, so each sweep cell replays
    /// the same fault sequence whether or not the sweep was interrupted.
    pub faults: Option<String>,
    /// Run with the lock-order deadlock analyzer recording every shim mutex
    /// acquisition (`--lock-order`): potential-deadlock cycles across the
    /// pool/trace/fault-scope locks are reported after the run with both
    /// acquisition stacks and Caliper region attribution. Diagnostic mode —
    /// a backtrace is captured per acquisition, so timings are not
    /// measurement-grade.
    pub lock_order: bool,
    /// Watchdog deadline per kernel-variant execution attempt (`--timeout`).
    pub timeout: Option<std::time::Duration>,
    /// Retries allowed per kernel for *transient* failures (`--retries`).
    pub max_retries: u32,
    /// Base linear backoff between retries (`--retry-backoff-ms`).
    pub retry_backoff: std::time::Duration,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            selection: Selection::All,
            exclude: Vec::new(),
            variant: VariantId::BaseSeq,
            tuning: Tuning::default(),
            size_factor: 1.0,
            explicit_size: None,
            reps_factor: 1.0,
            explicit_reps: None,
            caliper_spec: None,
            sanitize: false,
            sweep: false,
            sweep_block_sizes: Vec::new(),
            sweep_dir: None,
            ranks: 1,
            rank_isolation: RankIsolation::Threads,
            rank_restarts: 2,
            rank_worker: None,
            rank_context: None,
            trace: None,
            trace_folded: None,
            faults: None,
            lock_order: false,
            timeout: None,
            max_retries: 0,
            retry_backoff: std::time::Duration::from_millis(50),
        }
    }
}

/// The faulty positive-control fixtures, boxed once so selection can hand
/// out `&'static` references like the registry does.
fn faulty_fixtures() -> &'static [Box<dyn KernelBase>] {
    static FIXTURES: std::sync::OnceLock<Vec<Box<dyn KernelBase>>> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(kernels::faulty::all)
}

/// Upper bound on `--ranks`: each rank is an OS thread or process holding
/// a full suite execution context, so this caps runaway requests (the
/// paper's largest campaign is 112 ranks).
pub const MAX_RANKS: usize = 256;

/// Upper bound on `--rank-restarts`: each restart respawns a full rank
/// after backoff, so an unbounded budget could retry a
/// deterministically-crashing rank for hours.
pub const MAX_RANK_RESTARTS: u32 = 16;

/// Feature names accepted by `--features`, matching [`feature_matches`].
const FEATURE_NAMES: &[&str] = &[
    "sort",
    "scan",
    "reduction",
    "atomic",
    "view",
    "forall",
    "kernel",
    "workgroup",
    "mpi",
];

/// Strict at the CLI: a typoed kernel, group, or feature name must not
/// silently select nothing (the same policy `--faults` applies to
/// failpoint names).
fn validate_selection(sel: &Selection) -> Result<(), String> {
    match sel {
        Selection::All => Ok(()),
        Selection::Kernels(names) => {
            for n in names {
                let known = kernels::find(n).is_some()
                    || faulty_fixtures().iter().any(|k| k.info().name == n.as_str());
                if !known {
                    return Err(format!("unknown kernel '{n}' (try --list)"));
                }
            }
            Ok(())
        }
        Selection::Groups(groups) => {
            for g in groups {
                if !Group::all().iter().any(|kg| kg.name().eq_ignore_ascii_case(g)) {
                    let known: Vec<&str> = Group::all().iter().map(|kg| kg.name()).collect();
                    return Err(format!("unknown group '{g}'; known: {}", known.join(", ")));
                }
            }
            Ok(())
        }
        Selection::Features(feats) => {
            for f in feats {
                if !FEATURE_NAMES.contains(&f.to_ascii_lowercase().as_str()) {
                    return Err(format!(
                        "unknown feature '{f}'; known: {}",
                        FEATURE_NAMES.join(" ")
                    ));
                }
            }
            Ok(())
        }
        Selection::Union(parts) => parts.iter().try_for_each(validate_selection),
    }
}

fn feature_matches(f: &Feature, name: &str) -> bool {
    matches!(
        (f, name),
        (Feature::Sort, "sort")
            | (Feature::Scan, "scan")
            | (Feature::Reduction, "reduction")
            | (Feature::Atomic, "atomic")
            | (Feature::View, "view")
            | (Feature::Forall, "forall")
            | (Feature::Kernel, "kernel")
            | (Feature::Workgroup, "workgroup")
            | (Feature::Mpi, "mpi")
    )
}

impl RunParams {
    /// Kernels matched by the selection, in registry (Table I) order.
    /// Borrows from the static registry: selection is a filter pass, not a
    /// rebuild of 76 boxed kernels.
    ///
    /// `Fixture_*` kernels (the sanitizer and fault-tolerance positive
    /// controls, deliberately outside the registry) join the selection only
    /// when named explicitly via `Selection::Kernels` — never through
    /// `All`, groups, or features — so `--kernels Fixture_PANIC,Basic_DAXPY`
    /// can exercise the isolation layer without the fixtures ever running
    /// by accident.
    pub fn selected_kernels(&self) -> Vec<&'static dyn KernelBase> {
        let mut selected: Vec<&'static dyn KernelBase> = kernels::registry()
            .iter()
            .map(|k| k.as_ref())
            .filter(|k| {
                let info = k.info();
                self.selection.matches(&info) && !self.exclude.iter().any(|n| n == info.name)
            })
            .collect();
        let explicit = self.selection.explicit_kernel_names();
        if !explicit.is_empty() {
            selected.extend(
                faulty_fixtures()
                    .iter()
                    .map(|k| k.as_ref())
                    .filter(|k| {
                        let name = k.info().name;
                        explicit.contains(&name)
                            && !self.exclude.iter().any(|n| n == name)
                    }),
            );
        }
        selected
    }

    /// Problem size for a kernel under these parameters.
    pub fn problem_size(&self, info: &KernelInfo) -> usize {
        match self.explicit_size {
            Some(n) => n,
            None => ((info.default_size as f64) * self.size_factor).max(1.0) as usize,
        }
    }

    /// Repetition count for a kernel under these parameters.
    pub fn reps(&self, info: &KernelInfo) -> usize {
        match self.explicit_reps {
            Some(r) => r.max(1),
            None => ((info.default_reps as f64) * self.reps_factor).max(1.0) as usize,
        }
    }

    /// Parse RAJAPerf-style command-line arguments.
    ///
    /// Supported options:
    /// `--kernels k1,k2` · `--groups g1,g2` · `--features f1,f2` ·
    /// `--exclude-kernels k1,k2` · `--variant NAME` · `--gpu-block-size N` ·
    /// `--size N` · `--size-factor X` · `--reps N` · `--reps-factor X` ·
    /// `--caliper SPEC`.
    pub fn parse(args: &[String]) -> Result<RunParams, String> {
        let mut p = RunParams::default();
        // Selection flags accumulate across the whole command line:
        // `--groups Stream --kernels Basic_DAXPY` is a union (the old
        // behavior silently kept only the last flag), and names dedupe
        // order-preservingly so `--kernels a,a` or an overlap between
        // repeated flags cannot select a name twice.
        let mut kernel_names: Vec<String> = Vec::new();
        let mut group_names: Vec<String> = Vec::new();
        let mut feature_names: Vec<String> = Vec::new();
        fn push_unique(acc: &mut Vec<String>, csv: &str, fold_case: bool) -> bool {
            let mut saw_name = false;
            for part in csv.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                saw_name = true;
                let dup = acc.iter().any(|p| {
                    if fold_case {
                        p.eq_ignore_ascii_case(part)
                    } else {
                        p == part
                    }
                });
                if !dup {
                    acc.push(part.to_string());
                }
            }
            saw_name
        }
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--kernels" => {
                    if !push_unique(&mut kernel_names, &value("--kernels")?, false) {
                        return Err("--kernels requires at least one kernel name".to_string());
                    }
                }
                "--groups" => {
                    if !push_unique(&mut group_names, &value("--groups")?, true) {
                        return Err("--groups requires at least one group name".to_string());
                    }
                }
                "--features" => {
                    if !push_unique(&mut feature_names, &value("--features")?, true) {
                        return Err("--features requires at least one feature name".to_string());
                    }
                }
                "--exclude-kernels" => {
                    p.exclude = value("--exclude-kernels")?
                        .split(',')
                        .map(str::to_string)
                        .collect()
                }
                "--variant" | "--variants" => {
                    let v = value("--variant")?;
                    p.variant = VariantId::parse(&v)
                        .ok_or_else(|| format!("unknown variant '{v}'"))?;
                }
                "--gpu-block-size" => {
                    p.tuning.gpu_block_size = value("--gpu-block-size")?
                        .parse()
                        .map_err(|e| format!("bad block size: {e}"))?;
                }
                "--size" => {
                    p.explicit_size =
                        Some(value("--size")?.parse().map_err(|e| format!("bad size: {e}"))?)
                }
                "--size-factor" => {
                    p.size_factor = value("--size-factor")?
                        .parse()
                        .map_err(|e| format!("bad size factor: {e}"))?
                }
                "--reps" => {
                    p.explicit_reps =
                        Some(value("--reps")?.parse().map_err(|e| format!("bad reps: {e}"))?)
                }
                "--reps-factor" => {
                    p.reps_factor = value("--reps-factor")?
                        .parse()
                        .map_err(|e| format!("bad reps factor: {e}"))?
                }
                "--caliper" => p.caliper_spec = Some(value("--caliper")?),
                "--sanitize" => p.sanitize = true,
                "--sweep" => p.sweep = true,
                "--sweep-block-sizes" => {
                    p.sweep_block_sizes = value("--sweep-block-sizes")?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|e| format!("bad sweep block size '{s}': {e}"))
                        })
                        .collect::<Result<_, _>>()?
                }
                "--sweep-dir" => {
                    p.sweep_dir = Some(std::path::PathBuf::from(value("--sweep-dir")?))
                }
                "--ranks" => {
                    let v = value("--ranks")?;
                    p.ranks = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad rank count '{v}': {e}"))?;
                }
                arg if arg == "--rank-isolation" || arg.starts_with("--rank-isolation=") => {
                    let v = match arg.strip_prefix("--rank-isolation=") {
                        Some(v) => v.to_string(),
                        None => value("--rank-isolation")?,
                    };
                    p.rank_isolation = RankIsolation::parse(&v).ok_or_else(|| {
                        format!("unknown rank isolation mode '{v}'; known: threads, process")
                    })?;
                }
                arg if arg == "--rank-restarts" || arg.starts_with("--rank-restarts=") => {
                    let v = match arg.strip_prefix("--rank-restarts=") {
                        Some(v) => v.to_string(),
                        None => value("--rank-restarts")?,
                    };
                    p.rank_restarts = v
                        .parse::<u32>()
                        .map_err(|e| format!("bad restart budget '{v}': {e}"))?;
                }
                // Internal: appended by the process carrier when
                // spawning child ranks; not in the usage text.
                "--rank-worker" => {
                    let v = value("--rank-worker")?;
                    let parsed = v.split_once('/').and_then(|(r, n)| {
                        Some((r.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
                    });
                    p.rank_worker = Some(
                        parsed.ok_or_else(|| format!("bad --rank-worker '{v}' (want R/N)"))?,
                    );
                }
                "--trace" => p.trace = Some(std::path::PathBuf::from(value("--trace")?)),
                "--trace-folded" => {
                    p.trace_folded = Some(std::path::PathBuf::from(value("--trace-folded")?))
                }
                "--faults" => p.faults = Some(value("--faults")?),
                "--lock-order" => p.lock_order = true,
                "--timeout" => {
                    let secs: f64 = value("--timeout")?
                        .parse()
                        .map_err(|e| format!("bad timeout: {e}"))?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err("--timeout must be a positive number of seconds".to_string());
                    }
                    p.timeout = Some(std::time::Duration::from_secs_f64(secs));
                }
                "--retries" => {
                    p.max_retries = value("--retries")?
                        .parse()
                        .map_err(|e| format!("bad retries: {e}"))?
                }
                "--retry-backoff-ms" => {
                    let ms: u64 = value("--retry-backoff-ms")?
                        .parse()
                        .map_err(|e| format!("bad retry backoff: {e}"))?;
                    p.retry_backoff = std::time::Duration::from_millis(ms);
                }
                other => return Err(format!("unknown option '{other}' (try --help)")),
            }
        }
        let mut parts: Vec<Selection> = Vec::new();
        if !kernel_names.is_empty() {
            parts.push(Selection::Kernels(kernel_names));
        }
        if !group_names.is_empty() {
            parts.push(Selection::Groups(group_names));
        }
        if !feature_names.is_empty() {
            parts.push(Selection::Features(feature_names));
        }
        p.selection = match parts.len() {
            0 => Selection::All,
            1 => parts.remove(0),
            _ => Selection::Union(parts),
        };
        p.validate()?;
        Ok(p)
    }

    /// Reject parameter combinations that would panic deeper in the stack
    /// or produce meaningless output (a zero block size trips the launch
    /// config assert; a zero size runs and prints an all-zero row).
    fn validate(&self) -> Result<(), String> {
        validate_selection(&self.selection)?;
        if self.tuning.gpu_block_size == 0 {
            return Err("--gpu-block-size must be >= 1".to_string());
        }
        if self.explicit_size == Some(0) {
            return Err("--size must be >= 1".to_string());
        }
        if self.explicit_reps == Some(0) {
            return Err("--reps must be >= 1".to_string());
        }
        if !(self.size_factor > 0.0 && self.size_factor.is_finite()) {
            return Err("--size-factor must be a positive number".to_string());
        }
        if !(self.reps_factor > 0.0 && self.reps_factor.is_finite()) {
            return Err("--reps-factor must be a positive number".to_string());
        }
        if self.sweep_block_sizes.contains(&0) {
            return Err("--sweep-block-sizes entries must be >= 1".to_string());
        }
        if !self.sweep_block_sizes.is_empty() && !self.sweep {
            return Err("--sweep-block-sizes requires --sweep".to_string());
        }
        if self.sweep && self.caliper_spec.is_some() {
            return Err(
                "--sweep manages its own Caliper outputs; do not combine with --caliper"
                    .to_string(),
            );
        }
        if self.sweep && (self.trace.is_some() || self.trace_folded.is_some()) {
            return Err(
                "--trace records a single run's timeline; do not combine with --sweep"
                    .to_string(),
            );
        }
        if self.trace_folded.is_some() && self.trace.is_none() {
            return Err("--trace-folded requires --trace".to_string());
        }
        if self.sweep && self.lock_order {
            return Err(
                "--lock-order analyzes a single run; do not combine with --sweep".to_string(),
            );
        }
        if self.ranks == 0 {
            return Err("--ranks must be >= 1".to_string());
        }
        if self.ranks > MAX_RANKS {
            return Err(format!("--ranks must be <= {MAX_RANKS}"));
        }
        if self.ranks > 1 && !self.sweep {
            return Err("--ranks shards a sweep's cell grid; it requires --sweep".to_string());
        }
        if self.rank_isolation == RankIsolation::Process && !self.sweep {
            return Err(
                "--rank-isolation configures a sweep campaign's ranks; it requires --sweep"
                    .to_string(),
            );
        }
        if self.rank_restarts > MAX_RANK_RESTARTS {
            return Err(format!("--rank-restarts must be <= {MAX_RANK_RESTARTS}"));
        }
        if let Some((r, n)) = self.rank_worker {
            // Internal flag, but validated like any other: a worker outside
            // a sweep (or claiming a rank beyond the campaign width) is a
            // malformed spawn, and the supervisor maps the child's usage
            // exit back to a parent usage error.
            if !self.sweep {
                return Err("--rank-worker is internal to --sweep campaigns".to_string());
            }
            if n == 0 || n > MAX_RANKS || r >= n {
                return Err(format!("--rank-worker {r}/{n} is out of range"));
            }
        }
        if let Some(spec) = &self.faults {
            // Strict at the CLI: a typoed failpoint name must not silently
            // inject nothing.
            let cfg = simfault::FaultConfig::parse(spec)
                .map_err(|e| format!("--faults: {e}"))?;
            let unknown = cfg.unknown_points();
            if !unknown.is_empty() {
                let known: Vec<&str> =
                    simfault::KNOWN_POINTS.iter().map(|(p, _)| *p).collect();
                return Err(format!(
                    "--faults names unknown failpoint(s) {unknown:?}; known: {}",
                    known.join(", ")
                ));
            }
            if self.sanitize {
                return Err(
                    "--sanitize expects hazard-free execution; do not combine with --faults"
                        .to_string(),
                );
            }
        }
        Ok(())
    }

    /// Re-serialize these parameters as the CLI argv that parses back to
    /// them — how the process carrier hands a child rank exactly
    /// the campaign configuration it is itself running.
    ///
    /// Supervisor-only fields are deliberately absent: `rank_isolation` and
    /// `rank_restarts` (a child must never recurse into supervising its own
    /// children) and the internal `rank_worker`/`rank_context` (the
    /// supervisor appends `--rank-worker R/N` itself).
    pub fn to_argv(&self) -> Vec<String> {
        fn selection_argv(sel: &Selection, out: &mut Vec<String>) {
            match sel {
                Selection::All => {}
                Selection::Kernels(names) => {
                    out.push("--kernels".into());
                    out.push(names.join(","));
                }
                Selection::Groups(names) => {
                    out.push("--groups".into());
                    out.push(names.join(","));
                }
                Selection::Features(names) => {
                    out.push("--features".into());
                    out.push(names.join(","));
                }
                Selection::Union(parts) => {
                    for p in parts {
                        selection_argv(p, out);
                    }
                }
            }
        }
        let defaults = RunParams::default();
        let mut out = Vec::new();
        selection_argv(&self.selection, &mut out);
        if !self.exclude.is_empty() {
            out.push("--exclude-kernels".into());
            out.push(self.exclude.join(","));
        }
        out.push("--variant".into());
        out.push(self.variant.name().into());
        out.push("--gpu-block-size".into());
        out.push(self.tuning.gpu_block_size.to_string());
        if let Some(n) = self.explicit_size {
            out.push("--size".into());
            out.push(n.to_string());
        }
        if self.size_factor != defaults.size_factor {
            out.push("--size-factor".into());
            out.push(self.size_factor.to_string());
        }
        if let Some(r) = self.explicit_reps {
            out.push("--reps".into());
            out.push(r.to_string());
        }
        if self.reps_factor != defaults.reps_factor {
            out.push("--reps-factor".into());
            out.push(self.reps_factor.to_string());
        }
        if let Some(spec) = &self.caliper_spec {
            out.push("--caliper".into());
            out.push(spec.clone());
        }
        if self.sanitize {
            out.push("--sanitize".into());
        }
        if self.sweep {
            out.push("--sweep".into());
        }
        if !self.sweep_block_sizes.is_empty() {
            out.push("--sweep-block-sizes".into());
            out.push(
                self.sweep_block_sizes
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        if let Some(dir) = &self.sweep_dir {
            out.push("--sweep-dir".into());
            out.push(dir.display().to_string());
        }
        if self.ranks != defaults.ranks {
            out.push("--ranks".into());
            out.push(self.ranks.to_string());
        }
        if let Some(t) = &self.trace {
            out.push("--trace".into());
            out.push(t.display().to_string());
        }
        if let Some(t) = &self.trace_folded {
            out.push("--trace-folded".into());
            out.push(t.display().to_string());
        }
        if let Some(spec) = &self.faults {
            out.push("--faults".into());
            out.push(spec.clone());
        }
        if self.lock_order {
            out.push("--lock-order".into());
        }
        if let Some(d) = self.timeout {
            out.push("--timeout".into());
            // `{}` on f64 prints the shortest representation that parses
            // back to the same value, so the child's watchdog deadline is
            // bit-identical to the parent's.
            out.push(d.as_secs_f64().to_string());
        }
        if self.max_retries != defaults.max_retries {
            out.push("--retries".into());
            out.push(self.max_retries.to_string());
        }
        if self.retry_backoff != defaults.retry_backoff {
            out.push("--retry-backoff-ms".into());
            out.push(self.retry_backoff.as_millis().to_string());
        }
        out
    }

    /// Usage text for the CLI.
    pub fn usage() -> &'static str {
        "rajaperf [options]\n\
         \n\
         Kernel selection:\n\
           --kernels NAME[,NAME...]     run specific kernels (Group_KERNEL names)\n\
           --groups NAME[,NAME...]      run whole groups (Stream, Basic, Lcals, ...)\n\
           --features F[,F...]          run kernels using a RAJA feature\n\
                                        (sort scan reduction atomic view workgroup mpi)\n\
           --exclude-kernels NAME[,..]  exclude kernels by name\n\
           (selection flags combine as a union and dedupe repeated names;\n\
           unknown kernel/group/feature names are usage errors)\n\
         \n\
         Execution:\n\
           --variant NAME               Base_Seq | RAJA_Seq | Base_Par | RAJA_Par |\n\
                                        Base_SimGpu | RAJA_SimGpu   (default Base_Seq)\n\
           --gpu-block-size N           device block-size tuning, N >= 1 (default 256)\n\
           --size N                     problem size for every kernel (N >= 1)\n\
           --size-factor X              scale each kernel's default size\n\
           --reps N / --reps-factor X   repetition control (N >= 1)\n\
         \n\
         Sweep:\n\
           --sweep                      run the full cross-product of all variants\n\
                                        x block-size tunings in one invocation: one\n\
                                        profile per (variant, tuning) cell, a sweep\n\
                                        manifest JSON, and per-cell caching so an\n\
                                        interrupted sweep reuses finished cells\n\
           --sweep-block-sizes N[,N..]  block-size tunings to sweep (default: just\n\
                                        --gpu-block-size)\n\
           --sweep-dir DIR              sweep output directory\n\
                                        (default target/sweep)\n\
           --ranks N                    shard the sweep's cell grid across N\n\
                                        supervised ranks with cell work\n\
                                        stealing; the manifest is\n\
                                        byte-identical to --ranks 1 (default 1)\n\
           --rank-isolation MODE        what carries a rank. threads (default):\n\
                                        a worker thread in this process;\n\
                                        process: a child rajaperf process, so\n\
                                        a rank survives kill -9/abort and wedged\n\
                                        ranks are killed on a missed heartbeat\n\
           --rank-restarts N            times a rank that dies (panic, signal,\n\
                                        exit) is restarted with backoff before\n\
                                        it is retired as a casualty and its\n\
                                        cells go to surviving ranks (default 2,\n\
                                        max 16; either isolation mode)\n\
         \n\
         Output:\n\
           --caliper SPEC               e.g. 'runtime-report,output=stdout' or\n\
                                        'spot(output=run.cali.json)' or\n\
                                        'trace(output=run.trace.json)'\n\
           --trace FILE                 record an event trace (per-kernel regions,\n\
                                        per-worker lanes, device launch/block\n\
                                        events) and write Chrome Trace Event JSON\n\
                                        loadable in chrome://tracing or Perfetto;\n\
                                        zero overhead when not passed\n\
           --trace-folded FILE          also write the trace as flamegraph folded\n\
                                        stacks (requires --trace)\n\
           --checksums                  run every variant and print the\n\
                                        cross-variant checksum report\n\
           --sanitize                   run the simulated-device sanitizer\n\
                                        (simsan) over the selection and print\n\
                                        its hazard report\n\
           --list                       list kernels and exit\n\
         \n\
         Fault tolerance:\n\
           --faults SPEC                arm deterministic fault injection, e.g.\n\
                                        'gpusim.launch=err:0.05,seed=42' or\n\
                                        'suite.kernel@Stream_TRIAD=panic:1.0'\n\
                                        (points: gpusim.launch gpusim.ecc\n\
                                        suite.kernel io.write fixture.flaky;\n\
                                        modes: panic err stall[(ms)] flip\n\
                                        truncate; rate defaults to 1.0; zero\n\
                                        overhead when not armed)\n\
           --timeout SECS               watchdog deadline per kernel execution;\n\
                                        a kernel exceeding it is recorded as\n\
                                        TIMEOUT and the run continues\n\
           --retries N                  retries for transient (injected) kernel\n\
                                        failures (default 0)\n\
           --retry-backoff-ms MS        base linear backoff between retries\n\
                                        (default 50)\n\
         \n\
         Diagnostics:\n\
           --lock-order                 record the lock-acquisition order graph\n\
                                        across the pool, trace, and fault-scope\n\
                                        locks and report potential-deadlock\n\
                                        cycles (both acquisition stacks, kernel\n\
                                        region attribution) after the run;\n\
                                        captures a backtrace per acquisition, so\n\
                                        do not combine with timing measurements\n\
         \n\
         Exit codes:\n\
           0 success | 1 internal error | 2 usage | 3 checksum failure |\n\
           4 sanitizer findings | 5 kernel failures (partial failure: the\n\
           rest of the selection completed and reported) | 6 unavailable\n\
           (daemon queue full or shutting down)\n\
         \n\
         Environment:\n\
           RAYON_NUM_THREADS            thread-pool width for Par variants and\n\
                                        simulated-GPU block scheduling (positive\n\
                                        integer; default: available parallelism;\n\
                                        1 = fully sequential, bitwise-deterministic)\n\
           SIMFAULT                     fault spec used when --faults is absent\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_selection_options() {
        let p = RunParams::parse(&args("--kernels Stream_TRIAD,Basic_DAXPY")).unwrap();
        assert_eq!(p.selected_kernels().len(), 2);
        let p = RunParams::parse(&args("--groups Stream")).unwrap();
        assert_eq!(p.selected_kernels().len(), 5);
        let p = RunParams::parse(&args("--features sort")).unwrap();
        assert_eq!(p.selected_kernels().len(), 2, "SORT and SORTPAIRS");
    }

    #[test]
    fn parse_execution_options() {
        let p = RunParams::parse(&args(
            "--variant RAJA_SimGpu --gpu-block-size 128 --size 5000 --reps 3",
        ))
        .unwrap();
        assert_eq!(p.variant, VariantId::RajaSimGpu);
        assert_eq!(p.tuning.gpu_block_size, 128);
        let info = kernels::find("Stream_ADD").unwrap().info();
        assert_eq!(p.problem_size(&info), 5000);
        assert_eq!(p.reps(&info), 3);
    }

    #[test]
    fn size_and_reps_factors_scale_defaults() {
        let p = RunParams::parse(&args("--size-factor 0.5 --reps-factor 2")).unwrap();
        let info = kernels::find("Stream_ADD").unwrap().info();
        assert_eq!(p.problem_size(&info), info.default_size / 2);
        assert_eq!(p.reps(&info), info.default_reps * 2);
    }

    #[test]
    fn exclusion_removes_kernels() {
        let p = RunParams::parse(&args("--groups Stream --exclude-kernels Stream_DOT")).unwrap();
        assert_eq!(p.selected_kernels().len(), 4);
    }

    #[test]
    fn sanitize_flag_parses() {
        assert!(!RunParams::default().sanitize);
        let p = RunParams::parse(&args("--sanitize --groups Stream")).unwrap();
        assert!(p.sanitize);
        assert_eq!(p.selected_kernels().len(), 5);
    }

    #[test]
    fn bad_options_are_reported() {
        assert!(RunParams::parse(&args("--variant Nope")).is_err());
        assert!(RunParams::parse(&args("--bogus")).is_err());
        assert!(RunParams::parse(&args("--size")).is_err());
    }

    #[test]
    fn zero_and_degenerate_values_are_rejected() {
        // Regression: `--gpu-block-size 0` used to panic in
        // `LaunchConfig::linear` instead of failing parse.
        let err = RunParams::parse(&args("--gpu-block-size 0")).unwrap_err();
        assert!(err.contains("--gpu-block-size"), "{err}");
        // Regression: `--size 0` used to run and print a meaningless row.
        assert!(RunParams::parse(&args("--size 0")).is_err());
        assert!(RunParams::parse(&args("--reps 0")).is_err());
        assert!(RunParams::parse(&args("--size-factor 0")).is_err());
        assert!(RunParams::parse(&args("--size-factor -1.5")).is_err());
        assert!(RunParams::parse(&args("--reps-factor 0")).is_err());
        // The boundary values stay accepted.
        assert!(RunParams::parse(&args("--gpu-block-size 1 --size 1 --reps 1")).is_ok());
    }

    #[test]
    fn sweep_flags_parse_and_validate() {
        let p = RunParams::parse(&args(
            "--sweep --groups Stream --sweep-block-sizes 128,256 --sweep-dir target/sw",
        ))
        .unwrap();
        assert!(p.sweep);
        assert_eq!(p.sweep_block_sizes, vec![128, 256]);
        assert_eq!(p.sweep_dir.as_deref(), Some(std::path::Path::new("target/sw")));
        assert!(RunParams::parse(&args("--sweep --sweep-block-sizes 0")).is_err());
        assert!(RunParams::parse(&args("--sweep-block-sizes 128")).is_err());
        assert!(
            RunParams::parse(&args("--sweep --caliper runtime-report")).is_err(),
            "sweep owns its Caliper outputs"
        );
    }

    #[test]
    fn ranks_flag_parses_and_validates() {
        assert_eq!(RunParams::default().ranks, 1);
        let p = RunParams::parse(&args("--sweep --ranks 4")).unwrap();
        assert_eq!(p.ranks, 4);
        assert!(p.rank_context.is_none(), "rank_context is not a CLI flag");
        assert!(
            RunParams::parse(&args("--ranks 4")).is_err(),
            "--ranks shards a sweep, so it requires --sweep"
        );
        assert!(RunParams::parse(&args("--sweep --ranks 0")).is_err());
        assert!(RunParams::parse(&args("--sweep --ranks 9999")).is_err());
        assert!(RunParams::parse(&args("--sweep --ranks nope")).is_err());
        // --ranks 1 without --sweep is the implicit default; allowed.
        assert!(RunParams::parse(&args("--ranks 1")).is_ok());
    }

    #[test]
    fn rank_isolation_flag_parses_and_validates() {
        assert_eq!(RunParams::default().rank_isolation, RankIsolation::Threads);
        // Both `--rank-isolation process` and `--rank-isolation=process`.
        let p = RunParams::parse(&args("--sweep --ranks 4 --rank-isolation process")).unwrap();
        assert_eq!(p.rank_isolation, RankIsolation::Process);
        let p = RunParams::parse(&args("--sweep --ranks 4 --rank-isolation=process")).unwrap();
        assert_eq!(p.rank_isolation, RankIsolation::Process);
        let p = RunParams::parse(&args("--sweep --rank-isolation=threads")).unwrap();
        assert_eq!(p.rank_isolation, RankIsolation::Threads);
        // Process isolation of a single rank is still isolation; allowed.
        assert!(RunParams::parse(&args("--sweep --rank-isolation process")).is_ok());

        let err = RunParams::parse(&args("--sweep --rank-isolation=container")).unwrap_err();
        assert!(err.contains("unknown rank isolation mode"), "{err}");
        assert!(err.contains("process"), "lists the modes: {err}");
        let err = RunParams::parse(&args("--rank-isolation=process")).unwrap_err();
        assert!(err.contains("--sweep"), "non-sweep use is a usage error: {err}");
    }

    #[test]
    fn rank_restarts_flag_parses_and_validates() {
        assert_eq!(RunParams::default().rank_restarts, 2);
        let p = RunParams::parse(&args(
            "--sweep --ranks 2 --rank-isolation=process --rank-restarts 5",
        ))
        .unwrap();
        assert_eq!(p.rank_restarts, 5);
        let p = RunParams::parse(&args(
            "--sweep --rank-isolation=process --rank-restarts=0",
        ))
        .unwrap();
        assert_eq!(p.rank_restarts, 0, "a zero budget means no respawns");
        // One failure policy: the budget applies to thread ranks too.
        let p = RunParams::parse(&args("--sweep --ranks 2 --rank-restarts 3")).unwrap();
        assert_eq!(p.rank_restarts, 3);
        let err = RunParams::parse(&args(
            "--sweep --rank-isolation=process --rank-restarts 999",
        ))
        .unwrap_err();
        assert!(err.contains("<="), "budget is capped: {err}");
        assert!(RunParams::parse(&args(
            "--sweep --rank-isolation=process --rank-restarts nope"
        ))
        .is_err());
    }

    #[test]
    fn rank_worker_flag_is_internal_but_validated() {
        let p = RunParams::parse(&args("--sweep --ranks 4 --rank-worker 2/4")).unwrap();
        assert_eq!(p.rank_worker, Some((2, 4)));
        assert!(
            RunParams::parse(&args("--rank-worker 0/2")).is_err(),
            "worker mode outside a sweep is a malformed spawn"
        );
        assert!(RunParams::parse(&args("--sweep --rank-worker 4/4")).is_err());
        assert!(RunParams::parse(&args("--sweep --rank-worker 0/0")).is_err());
        assert!(RunParams::parse(&args("--sweep --rank-worker nope")).is_err());
        assert!(
            !RunParams::usage().contains("--rank-worker"),
            "internal flags stay out of the usage text"
        );
    }

    #[test]
    fn to_argv_roundtrips_through_parse() {
        // The supervisor respawns children from to_argv(); if any field is
        // dropped or mis-serialized, a child computes different cells than
        // its parent planned. Round-trip a spread of configurations and
        // require a fixed point: parse(to_argv(p)) serializes identically.
        let cases = [
            "",
            "--kernels Stream_TRIAD,Basic_DAXPY --size 1000 --reps 2",
            "--groups Stream --kernels Basic_DAXPY --exclude-kernels Stream_DOT",
            "--features sort --variant RAJA_Par --gpu-block-size 128",
            "--sweep --sweep-block-sizes 128,256 --sweep-dir target/sw --ranks 4",
            "--sweep --ranks 2 --faults suite.kernel=panic:0.5,seed=7 \
             --timeout 2.5 --retries 3 --retry-backoff-ms 10",
            "--size-factor 0.5 --reps-factor 2 --sanitize",
        ];
        for case in cases {
            let p = RunParams::parse(&args(case)).unwrap();
            let argv = p.to_argv();
            let reparsed = RunParams::parse(&argv).unwrap_or_else(|e| {
                panic!("to_argv of '{case}' must reparse, got {e}: {argv:?}")
            });
            assert_eq!(reparsed.to_argv(), argv, "fixed point for '{case}'");
            assert_eq!(reparsed.selection, p.selection, "{case}");
            assert_eq!(reparsed.faults, p.faults, "{case}");
            assert_eq!(reparsed.timeout, p.timeout, "{case}");
        }
        // Supervisor-only fields must never leak into a child's argv.
        let p = RunParams::parse(&args(
            "--sweep --ranks 2 --rank-isolation=process --rank-restarts 1",
        ))
        .unwrap();
        let argv = p.to_argv();
        assert!(
            !argv.iter().any(|a| a.contains("rank-isolation") || a.contains("rank-restarts")),
            "{argv:?}"
        );
    }

    #[test]
    fn trace_flags_parse_and_validate() {
        let p = RunParams::parse(&args(
            "--kernels Stream_TRIAD --trace out.trace.json --trace-folded out.folded",
        ))
        .unwrap();
        assert_eq!(p.trace.as_deref(), Some(std::path::Path::new("out.trace.json")));
        assert_eq!(p.trace_folded.as_deref(), Some(std::path::Path::new("out.folded")));
        assert!(
            RunParams::parse(&args("--trace-folded out.folded")).is_err(),
            "--trace-folded alone has no trace to fold"
        );
        assert!(
            RunParams::parse(&args("--sweep --trace out.trace.json")).is_err(),
            "a sweep is many runs; a trace is one run's timeline"
        );
    }

    #[test]
    fn lock_order_flag_parses_and_rejects_sweep() {
        assert!(!RunParams::default().lock_order);
        let p = RunParams::parse(&args("--lock-order")).unwrap();
        assert!(p.lock_order);
        assert!(
            RunParams::parse(&args("--sweep --lock-order")).is_err(),
            "a sweep is many runs; lock-order analysis reports one run"
        );
    }

    #[test]
    fn all_selection_covers_registry() {
        let p = RunParams::default();
        assert_eq!(p.selected_kernels().len(), 76);
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let p = RunParams::parse(&args(
            "--faults gpusim.launch=err:0.05,seed=42 --timeout 2.5 --retries 3 --retry-backoff-ms 10",
        ))
        .unwrap();
        assert_eq!(p.faults.as_deref(), Some("gpusim.launch=err:0.05,seed=42"));
        assert_eq!(p.timeout, Some(std::time::Duration::from_secs_f64(2.5)));
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.retry_backoff, std::time::Duration::from_millis(10));

        // Strictness: a typoed failpoint or malformed spec fails parse.
        let err = RunParams::parse(&args("--faults gpusim.lanuch=err")).unwrap_err();
        assert!(err.contains("unknown failpoint"), "{err}");
        assert!(err.contains("gpusim.launch"), "lists the registry: {err}");
        assert!(RunParams::parse(&args("--faults gpusim.launch=warp")).is_err());
        assert!(RunParams::parse(&args("--timeout 0")).is_err());
        assert!(RunParams::parse(&args("--timeout -1")).is_err());
        // Sanitizer expects hazard-free execution; injection contradicts it.
        assert!(RunParams::parse(&args("--sanitize --faults gpusim.launch=err")).is_err());
    }

    #[test]
    fn duplicate_and_overlapping_selections_dedupe() {
        // Regression: `--kernels X,X` kept the duplicate name, and a later
        // selection flag silently replaced an earlier one.
        let p = RunParams::parse(&args("--kernels Stream_TRIAD,Stream_TRIAD")).unwrap();
        assert_eq!(p.selection, Selection::Kernels(vec!["Stream_TRIAD".to_string()]));
        assert_eq!(p.selected_kernels().len(), 1);
        // Repeated flags merge (order-preserving) instead of replacing.
        let p = RunParams::parse(&args(
            "--kernels Stream_TRIAD --kernels Stream_TRIAD,Basic_DAXPY",
        ))
        .unwrap();
        assert_eq!(
            p.selection,
            Selection::Kernels(vec!["Stream_TRIAD".to_string(), "Basic_DAXPY".to_string()])
        );
        // Overlapping --groups + --kernels union; the overlap (Stream_TRIAD
        // is in group Stream) still runs once.
        let p = RunParams::parse(&args("--groups Stream --kernels Stream_TRIAD,Basic_DAXPY"))
            .unwrap();
        let names: Vec<&str> = p.selected_kernels().iter().map(|k| k.info().name).collect();
        assert_eq!(
            names.iter().filter(|n| **n == "Stream_TRIAD").count(),
            1,
            "overlap must not double-run: {names:?}"
        );
        assert_eq!(names.len(), 6, "5 Stream kernels + Basic_DAXPY: {names:?}");
        // Group dedupe folds case, matching group matching.
        let p = RunParams::parse(&args("--groups stream,Stream")).unwrap();
        assert_eq!(p.selected_kernels().len(), 5);
    }

    #[test]
    fn unknown_selection_names_are_rejected() {
        let err = RunParams::parse(&args("--kernels Stream_TRAID")).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
        let err = RunParams::parse(&args("--groups Steam")).unwrap_err();
        assert!(err.contains("unknown group"), "{err}");
        assert!(err.contains("Stream"), "lists the groups: {err}");
        let err = RunParams::parse(&args("--features sorting")).unwrap_err();
        assert!(err.contains("unknown feature"), "{err}");
        // Fixtures stay addressable by their explicit names.
        assert!(RunParams::parse(&args("--kernels Fixture_PANIC")).is_ok());
    }

    #[test]
    fn union_selection_keeps_fixtures_explicit_only() {
        let p = RunParams::parse(&args("--groups Stream --kernels Fixture_PANIC")).unwrap();
        let names: Vec<&str> = p.selected_kernels().iter().map(|k| k.info().name).collect();
        assert!(names.contains(&"Fixture_PANIC"), "{names:?}");
        assert_eq!(names.len(), 6, "5 Stream kernels + the named fixture");
    }

    #[test]
    fn fixtures_selectable_only_by_explicit_name() {
        let by_name = RunParams::parse(&args("--kernels Fixture_PANIC,Basic_DAXPY")).unwrap();
        let names: Vec<&str> = by_name
            .selected_kernels()
            .iter()
            .map(|k| k.info().name)
            .collect();
        assert_eq!(names, vec!["Basic_DAXPY", "Fixture_PANIC"]);
        // Fixtures share the Basic group but must not join group selections.
        let by_group = RunParams::parse(&args("--groups Basic")).unwrap();
        assert!(by_group
            .selected_kernels()
            .iter()
            .all(|k| !k.info().name.starts_with("Fixture_")));
        // --exclude-kernels applies to fixtures too.
        let excluded =
            RunParams::parse(&args("--kernels Fixture_PANIC --exclude-kernels Fixture_PANIC"))
                .unwrap();
        assert!(excluded.selected_kernels().is_empty());
    }
}
