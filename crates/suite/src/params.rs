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

    /// Position of a name-list selection in the canonical `Union` order
    /// (kernels, groups, features) that `parse` builds.
    fn rank(&self) -> usize {
        match self {
            Selection::Kernels(_) => 0,
            Selection::Groups(_) => 1,
            Selection::Features(_) => 2,
            Selection::All | Selection::Union(_) => 3,
        }
    }

    /// Every name listed under the kind of `rank` (recursing through
    /// `Union`), deduplicated in order. Rank 0 — explicitly-named kernels —
    /// is the only way `Fixture_*` positive controls join a selection.
    fn names(&self, rank: usize) -> Vec<&str> {
        match self {
            Selection::Union(parts) => {
                let mut out: Vec<&str> = Vec::new();
                for n in parts.iter().flat_map(|p| p.names(rank)) {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
                out
            }
            Selection::Kernels(names) | Selection::Groups(names) | Selection::Features(names)
                if self.rank() == rank =>
            {
                names.iter().map(String::as_str).collect()
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
    /// aborted rank is a restarted rank too. A child that sends no frame for
    /// the heartbeat deadline (stopped or frozen) is killed; a hung kernel
    /// keeps its rank's heartbeat thread beating, so only `--timeout`
    /// bounds it.
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Number of simulated ranks the sweep's cells are handed to, one cell
    /// to each idle rank from one supervisor's queue (`--ranks`, default 1);
    /// the manifest is byte-identical to a `--ranks 1` run.
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

/// Upper bound on a kernel's problem size, whether `--size` names it or
/// `--size-factor` resolves to it: kernels allocate several `f64` arrays of
/// that length before their first loop, so an unbounded size is an
/// allocation failure (or the OOM killer) taking the process — daemon
/// included — down. 8× Table III's 32 M node size; 2 GiB per `f64` array.
pub const MAX_PROBLEM_SIZE: usize = 1 << 28;

/// Upper bound on `--gpu-block-size` and each `--sweep-block-sizes` value:
/// CUDA's threads-per-block limit, and the `max_threads_per_block` of both
/// modelled GPUs (`gpusim::occupancy::SmLimits`). A launch walks every
/// thread of its blocks, padding included, so an unbounded block size is a
/// one-block launch that runs for hours and wedges the process — a daemon
/// worker included.
pub const MAX_BLOCK_SIZE: usize = 1024;

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
/// failpoint names). `rank` is the name's [`Selection::rank`].
fn check_name(rank: usize, name: &str) -> Result<(), String> {
    let groups = Group::all().map(|g| g.name());
    let (noun, known, hint) = match rank {
        0 => {
            let fixture = faulty_fixtures().iter().any(|k| k.info().name == name);
            let known = fixture || kernels::find(name).is_some();
            ("kernel", known, "try --list".to_string())
        }
        1 => {
            let known = groups.iter().any(|g| g.eq_ignore_ascii_case(name));
            ("group", known, format!("known: {}", groups.join(", ")))
        }
        _ => {
            let known = FEATURE_NAMES.contains(&name.to_ascii_lowercase().as_str());
            (
                "feature",
                known,
                format!("known: {}", FEATURE_NAMES.join(" ")),
            )
        }
    };
    if known {
        Ok(())
    } else {
        Err(format!("unknown {noun} '{name}' ({hint})"))
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
        let explicit = self.selection.names(0);
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

    /// Parse RAJAPerf-style command-line arguments: every non-mode row of
    /// [`FLAGS`], as `--flag value` or `--flag=value`.
    pub fn parse(args: &[String]) -> Result<RunParams, String> {
        let mut p = RunParams::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let flag = FLAGS
                .iter()
                .find(|f| f.mode.is_none() && f.names.contains(&name))
                .ok_or_else(|| format!("unknown option '{arg}' (try --help)"))?;
            let value = match (inline, flag.metavar.is_empty()) {
                (None, true) => "",
                (Some(_), true) => return Err(format!("{name} takes no value")),
                (Some(value), false) => value,
                (None, false) => it
                    .next()
                    .ok_or_else(|| format!("{name} requires a value"))?,
            };
            (flag.set)(&mut p, value).map_err(|e| format!("{name}: {e}"))?;
        }
        p.validate()?;
        Ok(p)
    }

    /// Reject flag combinations that contradict each other (each flag's own
    /// range is its row's `set`'s business).
    fn validate(&self) -> Result<(), String> {
        let tracing = self.trace.is_some() || self.trace_folded.is_some();
        let process_ranks = self.rank_isolation == RankIsolation::Process;
        let rules = [
            (
                !self.sweep_block_sizes.is_empty() && !self.sweep,
                "--sweep-block-sizes requires --sweep",
            ),
            (
                self.sweep && self.caliper_spec.is_some(),
                "--sweep manages its own Caliper outputs; do not combine with --caliper",
            ),
            (
                self.sweep && tracing,
                "--trace records a single run's timeline; do not combine with --sweep",
            ),
            (
                self.trace_folded.is_some() && self.trace.is_none(),
                "--trace-folded requires --trace",
            ),
            (
                self.sweep && self.lock_order,
                "--lock-order analyzes a single run; do not combine with --sweep",
            ),
            (
                self.ranks > 1 && !self.sweep,
                "--ranks shards a sweep's cell grid; it requires --sweep",
            ),
            (
                process_ranks && !self.sweep,
                "--rank-isolation configures a sweep campaign's ranks; it requires --sweep",
            ),
            // Internal flag, but validated like any other: a worker outside
            // a sweep is a malformed spawn, and the supervisor maps the
            // child's usage exit back to a parent usage error.
            (
                self.rank_worker.is_some() && !self.sweep,
                "--rank-worker is internal to --sweep campaigns",
            ),
            (
                self.faults.is_some() && self.sanitize,
                "--sanitize expects hazard-free execution; do not combine with --faults",
            ),
        ];
        if let Some((_, why)) = rules.iter().find(|(broken, _)| *broken) {
            return Err(why.to_string());
        }
        // `--size` is range-checked by its row; a factor resolves per kernel.
        if self.explicit_size.is_none() {
            for kernel in self.selected_kernels() {
                let info = kernel.info();
                let n = self.problem_size(&info);
                if n > MAX_PROBLEM_SIZE {
                    return Err(format!(
                        "--size-factor {} puts {} at {n} elements; the limit is {MAX_PROBLEM_SIZE}",
                        self.size_factor, info.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Re-serialize these parameters as the CLI argv that parses back to
    /// them — how the process carrier hands a child rank exactly the
    /// campaign configuration it is itself running: every [`FLAGS`] row
    /// forwarded to children that has something to say. `rank_context` is
    /// not a flag and never appears.
    pub fn to_argv(&self) -> Vec<String> {
        let mut out = Vec::new();
        for flag in FLAGS.iter().filter(|f| f.child) {
            if let Some(value) = (flag.get)(self) {
                out.push(flag.names[0].to_string());
                if !flag.metavar.is_empty() {
                    out.push(value);
                }
            }
        }
        out
    }

    /// Usage text for the CLI: the documented [`FLAGS`] rows by section,
    /// then the exit codes and the environment.
    pub fn usage() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let mut out = "rajaperf [options]\n".to_string();
            let mut section = "";
            for flag in FLAGS.iter().filter(|f| !f.help.is_empty()) {
                if flag.section != section {
                    section = flag.section;
                    out += &format!("\n{section}:\n");
                }
                // Lay the help sentence out beside the flag, wrapped by word
                // (the empty last word flushes the last line).
                let mut head = format!("{} {}", flag.names[0], flag.metavar);
                let mut line = String::new();
                for word in flag.help.split_whitespace().chain([""]) {
                    let full = !line.is_empty() && line.len() + word.len() > HELP_WIDTH;
                    if word.is_empty() || full {
                        out += &format!("  {head:<29}{}\n", line.trim_end());
                        head.clear();
                        line.clear();
                    }
                    line += word;
                    line.push(' ');
                }
            }
            out += USAGE_TAIL;
            for flag in FLAGS {
                if let Some(var) = flag.env {
                    let name = flag.names[0];
                    out += &format!("  {var:<29}{name} value used when the flag is absent\n");
                }
            }
            out
        })
    }
}

/// Width of the usage text's help column.
const HELP_WIDTH: usize = 46;

const USAGE_TAIL: &str = "\n\
    Exit codes:\n\
    \x20 0 success | 1 internal error | 2 usage | 3 checksum failure |\n\
    \x20 4 sanitizer findings | 5 kernel failures (partial failure: the\n\
    \x20 rest of the selection completed and reported) | 6 unavailable\n\
    \x20 (daemon queue full or shutting down)\n\
    \n\
    Environment:\n\
    \x20 RAYON_NUM_THREADS            thread-pool width for Par variants and\n\
    \x20                              simulated-GPU block scheduling (positive\n\
    \x20                              integer; default: available parallelism;\n\
    \x20                              1 = fully sequential, bitwise-deterministic)\n";

/// Which `rajaperf` mode a flag selects instead of setting a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--help`: print [`RunParams::usage`] and exit.
    Help,
    /// `--list`: list the kernel registry and exit.
    List,
    /// `--checksums`: run every variant and print the checksum report.
    Checksums,
}

/// One flag `rajaperf` accepts: how it is spelled, documented, parsed and
/// printed back, and what a ranked campaign's children, the daemon and the
/// cache key make of it. [`FLAGS`] holds every row; `parse`, `to_argv`,
/// `usage`, the binary's mode scan and `rajaperfd`'s refusals are loops over
/// it, so a new flag is one new row.
#[derive(Clone, Copy)]
pub struct Flag {
    /// Accepted spellings; the first is canonical (usage and `to_argv`).
    pub names: &'static [&'static str],
    /// Value placeholder in the usage text; empty for a switch.
    pub metavar: &'static str,
    /// Usage section. Rows of a section are contiguous in [`FLAGS`].
    pub section: &'static str,
    /// Usage text, wrapped by `usage`; empty hides the row.
    pub help: &'static str,
    /// Parse the value (`""` for a switch) into the parameters. Errors do
    /// not name the flag: `parse` prefixes the spelling the user typed.
    pub set: fn(&mut RunParams, &str) -> Result<(), String>,
    /// Print the value back so that `set` reproduces it; `None` when the
    /// flag has nothing to say (unset, or at its default).
    pub get: fn(&RunParams) -> Option<String>,
    /// The mode this flag selects; such a row is no campaign parameter, so
    /// `parse` does not know it and the binary strips it first.
    pub mode: Option<Mode>,
    /// Forwarded to a child rank by `to_argv`. Supervisor-only rows are
    /// not: a child must never recurse into supervising its own children.
    pub child: bool,
    /// Why `rajaperfd` refuses a request that sets this flag; `None` when
    /// the daemon serves it.
    pub refused: Option<&'static str>,
    /// Whether setting the flag changes `record::campaign_key` — true
    /// exactly when it can change a run's results.
    pub keyed: bool,
    /// Environment variable `rajaperf` reads the value from when the flag
    /// is absent from the command line.
    pub env: Option<&'static str>,
}

impl Flag {
    const fn new(
        names: &'static [&'static str],
        metavar: &'static str,
        section: &'static str,
    ) -> Flag {
        Flag {
            names,
            metavar,
            section,
            help: "",
            set: |_, _| Ok(()),
            get: |_| None,
            mode: None,
            child: true,
            refused: None,
            keyed: false,
            env: None,
        }
    }
    const fn help(mut self, help: &'static str) -> Flag {
        self.help = help;
        self
    }
    const fn set(mut self, set: fn(&mut RunParams, &str) -> Result<(), String>) -> Flag {
        self.set = set;
        self
    }
    const fn get(mut self, get: fn(&RunParams) -> Option<String>) -> Flag {
        self.get = get;
        self
    }
    const fn mode(mut self, mode: Mode) -> Flag {
        self.mode = Some(mode);
        self
    }
    const fn supervisor_only(mut self) -> Flag {
        self.child = false;
        self
    }
    const fn refused(mut self, why: &'static str) -> Flag {
        self.refused = Some(why);
        self
    }
    const fn keyed(mut self) -> Flag {
        self.keyed = true;
        self
    }
    const fn env(mut self, var: &'static str) -> Flag {
        self.env = Some(var);
        self
    }

    /// Whether `args` spell this flag (`--flag` or `--flag=value`).
    pub fn given(&self, args: &[String]) -> bool {
        args.iter().any(|a| {
            let name = a.split_once('=').map_or(a.as_str(), |(name, _)| name);
            self.names.contains(&name)
        })
    }
}

const SELECTION: &str = "Kernel selection";
const EXECUTION: &str = "Execution";
const SWEEP: &str = "Sweep";
const OUTPUT: &str = "Output";
const FAULTS: &str = "Fault tolerance";
const DIAGNOSTICS: &str = "Diagnostics";

const NOT_SERVED_TRACE: &str = "--trace is not served by the daemon: a store hit replays a stored \
     result and records no timeline; run it via the one-shot CLI";

/// The command line: every flag `rajaperf` accepts, in usage order.
pub static FLAGS: &[Flag] = &[
    Flag::new(&["--kernels"], "NAME[,NAME...]", SELECTION)
        .help("run specific kernels (Group_KERNEL names)")
        .set(|p, v| select(p, Selection::Kernels(Vec::new()), v))
        .get(|p| listed(p.selection.names(0)))
        .keyed(),
    Flag::new(&["--groups"], "NAME[,NAME...]", SELECTION)
        .help("run whole groups (Stream, Basic, Lcals, ...)")
        .set(|p, v| select(p, Selection::Groups(Vec::new()), v))
        .get(|p| listed(p.selection.names(1)))
        .keyed(),
    Flag::new(&["--features"], "F[,F...]", SELECTION)
        .help("run kernels using a RAJA feature (sort scan reduction atomic view workgroup mpi)")
        .set(|p, v| select(p, Selection::Features(Vec::new()), v))
        .get(|p| listed(p.selection.names(2)))
        .keyed(),
    Flag::new(&["--exclude-kernels"], "NAME[,..]", SELECTION)
        .help(
            "exclude kernels by name (selection flags combine as a union and dedupe repeated \
             names; unknown kernel/group/feature names are usage errors)",
        )
        .set(|p, v| put(&mut p.exclude, v.split(',').map(str::to_string).collect()))
        .get(|p| listed(p.exclude.clone()))
        .keyed(),
    Flag::new(&["--variant", "--variants"], "NAME", EXECUTION)
        .help(
            "Base_Seq | RAJA_Seq | Base_Par | RAJA_Par | Base_SimGpu | RAJA_SimGpu (default \
             Base_Seq)",
        )
        .set(|p, v| match VariantId::parse(v) {
            Some(variant) => put(&mut p.variant, variant),
            None => Err(format!("unknown variant '{v}'")),
        })
        .get(|p| Some(p.variant.name().to_string()))
        .keyed(),
    Flag::new(&["--gpu-block-size"], "N", EXECUTION)
        .help("device block-size tuning, 1 <= N <= 1024 (default 256)")
        .set(|p, v| block_size(v).map(|n| p.tuning.gpu_block_size = n))
        .get(|p| Some(p.tuning.gpu_block_size.to_string()))
        .keyed(),
    Flag::new(&["--size"], "N", EXECUTION)
        .help("problem size for every kernel (1 <= N <= 268435456, which also caps --size-factor)")
        .set(|p, v| at_most(at_least_one(v)?, MAX_PROBLEM_SIZE).map(|n| p.explicit_size = Some(n)))
        .get(|p| p.explicit_size.map(|n| n.to_string()))
        .keyed(),
    Flag::new(&["--size-factor"], "X", EXECUTION)
        .help("scale each kernel's default size")
        .set(|p, v| positive(v).map(|x| p.size_factor = x))
        .get(|p| unless_default(p.size_factor, RunParams::default().size_factor))
        .keyed(),
    Flag::new(&["--reps"], "N", EXECUTION)
        .help("repetition count for every kernel (N >= 1)")
        .set(|p, v| at_least_one(v).map(|n| p.explicit_reps = Some(n)))
        .get(|p| p.explicit_reps.map(|n| n.to_string()))
        .keyed(),
    Flag::new(&["--reps-factor"], "X", EXECUTION)
        .help("scale each kernel's default repetition count")
        .set(|p, v| positive(v).map(|x| p.reps_factor = x))
        .get(|p| unless_default(p.reps_factor, RunParams::default().reps_factor))
        .keyed(),
    Flag::new(&["--sweep"], "", SWEEP)
        .help(
            "run the full cross-product of all variants x block-size tunings in one invocation: \
             one profile per (variant, tuning) cell, a sweep manifest JSON, and per-cell caching \
             so an interrupted sweep reuses finished cells",
        )
        .set(|p, _| put(&mut p.sweep, true))
        .get(|p| p.sweep.then(String::new)),
    Flag::new(&["--sweep-block-sizes"], "N[,N..]", SWEEP)
        .help("block-size tunings to sweep, each 1 <= N <= 1024 (default: just --gpu-block-size)")
        .set(|p, v| {
            // First occurrences only, as `--kernels A,A`: a repeated size
            // would be two cells sharing one profile and one cell record.
            let mut sizes = Vec::new();
            for size in v.split(',') {
                let size = block_size(size.trim())?;
                if !sizes.contains(&size) {
                    sizes.push(size);
                }
            }
            put(&mut p.sweep_block_sizes, sizes)
        })
        .get(|p| listed(p.sweep_block_sizes.iter().map(usize::to_string).collect())),
    Flag::new(&["--sweep-dir"], "DIR", SWEEP)
        .help("sweep output directory (default target/sweep)")
        .set(|p, v| put(&mut p.sweep_dir, Some(v.into())))
        .get(|p| shown(&p.sweep_dir)),
    Flag::new(&["--ranks"], "N", SWEEP)
        .help(
            "hand the sweep's cells, one at a time, to N supervised ranks; the manifest is \
             byte-identical to --ranks 1 (default 1)",
        )
        .set(|p, v| at_most(at_least_one(v)?, MAX_RANKS).map(|n| p.ranks = n))
        .get(|p| unless_default(p.ranks, RunParams::default().ranks)),
    Flag::new(&["--rank-isolation"], "MODE", SWEEP)
        .help(
            "what carries a rank. threads (default): a worker thread in this process; process: a \
             child rajaperf process, so a rank survives kill -9/abort and a child that stops \
             sending frames (stopped, frozen) is killed; a hung kernel is bounded only by \
             --timeout",
        )
        .set(|p, v| match RankIsolation::parse(v) {
            Some(mode) => put(&mut p.rank_isolation, mode),
            None => Err(format!(
                "unknown rank isolation mode '{v}'; known: threads, process"
            )),
        })
        .get(|p| unless_default(p.rank_isolation.name(), RankIsolation::default().name()))
        .supervisor_only(),
    Flag::new(&["--rank-restarts"], "N", SWEEP)
        .help(
            "times a rank that dies (panic, signal, exit) is restarted with backoff before it is \
             retired as a casualty and its cells go to surviving ranks (default 2, max 16; either \
             isolation mode)",
        )
        .set(|p, v| at_most(num(v)?, MAX_RANK_RESTARTS).map(|n| p.rank_restarts = n))
        .get(|p| unless_default(p.rank_restarts, RunParams::default().rank_restarts))
        .supervisor_only(),
    // Internal, so no help: the process carrier sets it on each child rank.
    Flag::new(&["--rank-worker"], "R/N", SWEEP)
        .set(|p, v| {
            let parsed = v
                .split_once('/')
                .and_then(|(r, n)| Some((r.parse().ok()?, n.parse().ok()?)));
            match parsed {
                Some((r, n)) if r < n && n <= MAX_RANKS => put(&mut p.rank_worker, Some((r, n))),
                Some(_) => Err(format!("{v} is out of range")),
                None => Err(format!("bad value '{v}' (want R/N)")),
            }
        })
        .get(|p| p.rank_worker.map(|(r, n)| format!("{r}/{n}")))
        .refused(
            "--rank-worker is the internal child mode of a process campaign; \
             the daemon only supervises, never serves as a worker",
        ),
    Flag::new(&["--caliper"], "SPEC", OUTPUT)
        .help(
            "e.g. 'runtime-report,output=stdout' or 'spot(output=run.cali.json)' or \
             'trace(output=run.trace.json)'",
        )
        .set(|p, v| {
            let mut services = caliper::ConfigManager::new();
            match services.add(v).error() {
                Some(e) => Err(e.to_string()),
                None => put(&mut p.caliper_spec, Some(v.to_string())),
            }
        })
        .get(|p| p.caliper_spec.clone())
        .refused("--caliper is not served by the daemon; the result event carries the profile"),
    Flag::new(&["--trace"], "FILE", OUTPUT)
        .help(
            "record an event trace (per-kernel regions, per-worker lanes, device launch/block \
             events) and write Chrome Trace Event JSON loadable in chrome://tracing or Perfetto; \
             zero overhead when not passed",
        )
        .set(|p, v| put(&mut p.trace, Some(v.into())))
        .get(|p| shown(&p.trace))
        .refused(NOT_SERVED_TRACE),
    Flag::new(&["--trace-folded"], "FILE", OUTPUT)
        .help("also write the trace as flamegraph folded stacks (requires --trace)")
        .set(|p, v| put(&mut p.trace_folded, Some(v.into())))
        .get(|p| shown(&p.trace_folded))
        .refused(NOT_SERVED_TRACE),
    Flag::new(&["--checksums"], "", OUTPUT)
        .help("run every variant and print the cross-variant checksum report")
        .mode(Mode::Checksums),
    Flag::new(&["--sanitize"], "", OUTPUT)
        .help(
            "run the simulated-device sanitizer (simsan) over the selection and print its hazard \
             report",
        )
        .set(|p, _| put(&mut p.sanitize, true))
        .get(|p| p.sanitize.then(String::new))
        .keyed(),
    Flag::new(&["--list"], "", OUTPUT)
        .help("list kernels and exit")
        .mode(Mode::List),
    Flag::new(&["--help", "-h"], "", OUTPUT)
        .help("print this text and exit")
        .mode(Mode::Help),
    Flag::new(&["--faults"], "SPEC", FAULTS)
        .help(
            "arm deterministic fault injection, e.g. 'gpusim.launch=err:0.05,seed=42' or \
             'suite.kernel@Stream_TRIAD=panic:1.0' (points: gpusim.launch gpusim.ecc suite.kernel \
             io.write fixture.flaky; modes: panic err stall[(ms)] flip truncate; rate defaults to \
             1.0; zero overhead when not armed)",
        )
        .set(|p, v| {
            // Strict at the CLI: a typoed failpoint name must not silently
            // inject nothing.
            let config = simfault::FaultConfig::parse(v)?;
            let unknown = config.unknown_points();
            if unknown.is_empty() {
                return put(&mut p.faults, Some(v.to_string()));
            }
            let known: Vec<&str> = simfault::KNOWN_POINTS.iter().map(|(p, _)| *p).collect();
            Err(format!(
                "unknown failpoint(s) {unknown:?}; known: {}",
                known.join(", ")
            ))
        })
        .get(|p| p.faults.clone())
        .keyed()
        .env("SIMFAULT"),
    Flag::new(&["--timeout"], "SECS", FAULTS)
        .help(
            "watchdog deadline per kernel execution; a kernel exceeding it is recorded as TIMEOUT \
             and the run continues",
        )
        .set(|p, v| {
            let deadline = std::time::Duration::try_from_secs_f64(positive(v)?);
            deadline
                .map(|d| p.timeout = Some(d))
                .map_err(|e| e.to_string())
        })
        // `{}` on f64 prints the shortest representation that parses back
        // to the same value, so a child's deadline is bit-identical.
        .get(|p| p.timeout.map(|d| d.as_secs_f64().to_string()))
        .keyed(),
    Flag::new(&["--retries"], "N", FAULTS)
        .help("retries for transient (injected) kernel failures (default 0)")
        .set(|p, v| num(v).map(|n| p.max_retries = n))
        .get(|p| unless_default(p.max_retries, RunParams::default().max_retries))
        .keyed(),
    Flag::new(&["--retry-backoff-ms"], "MS", FAULTS)
        .help("base linear backoff between retries (default 50)")
        .set(|p, v| num(v).map(|ms| p.retry_backoff = std::time::Duration::from_millis(ms)))
        .get(|p| {
            let default = RunParams::default().retry_backoff.as_millis();
            unless_default(p.retry_backoff.as_millis(), default)
        }),
    Flag::new(&["--lock-order"], "", DIAGNOSTICS)
        .help(
            "record the lock-acquisition order graph across the pool, trace, and fault-scope \
             locks and report potential-deadlock cycles (both acquisition stacks, kernel region \
             attribution) after the run; captures a backtrace per acquisition, so do not combine \
             with timing measurements",
        )
        .set(|p, _| put(&mut p.lock_order, true))
        .get(|p| p.lock_order.then(String::new))
        .refused("--lock-order is a process-global diagnostic; run it via the one-shot CLI"),
];

/// Store a parsed value: the tail of most `set`s.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

fn num<T: std::str::FromStr<Err: std::fmt::Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("bad value '{v}': {e}"))
}

/// A count that must not be zero: a zero block size trips the launch
/// config assert, a zero size runs and prints an all-zero row.
fn at_least_one(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err("must be >= 1".to_string()),
        n => Ok(n),
    }
}

fn block_size(v: &str) -> Result<usize, String> {
    at_most(at_least_one(v)?, MAX_BLOCK_SIZE)
}

fn at_most<T: PartialOrd + std::fmt::Display>(n: T, max: T) -> Result<T, String> {
    if n <= max {
        Ok(n)
    } else {
        Err(format!("must be <= {max}"))
    }
}

fn positive(v: &str) -> Result<f64, String> {
    match num(v)? {
        x if x > 0.0 && f64::is_finite(x) => Ok(x),
        _ => Err("must be a positive number".to_string()),
    }
}

fn listed<S: std::borrow::Borrow<str>>(items: Vec<S>) -> Option<String> {
    (!items.is_empty()).then(|| items.join(","))
}

fn shown(path: &Option<std::path::PathBuf>) -> Option<String> {
    path.as_ref().map(|p| p.display().to_string())
}

fn unless_default<T: PartialEq + ToString>(value: T, default: T) -> Option<String> {
    (value != default).then(|| value.to_string())
}

/// Merge one selection flag's comma-separated names into `p.selection`.
/// Selection flags accumulate across the whole command line: `--groups
/// Stream --kernels Basic_DAXPY` is a union (kernels, groups, features, in
/// that order whatever the flag order), and names dedupe order-preservingly
/// so `--kernels a,a` or an overlap between repeated flags cannot select a
/// name twice. `fresh` is the empty list of the flag's kind.
fn select(p: &mut RunParams, fresh: Selection, csv: &str) -> Result<(), String> {
    let rank = fresh.rank();
    let mut parts = match std::mem::replace(&mut p.selection, Selection::All) {
        Selection::All => Vec::new(),
        Selection::Union(parts) => parts,
        one => vec![one],
    };
    let at = parts
        .iter()
        .position(|s| s.rank() >= rank)
        .unwrap_or(parts.len());
    if parts.get(at).map(Selection::rank) != Some(rank) {
        parts.insert(at, fresh);
    }
    let (Selection::Kernels(acc) | Selection::Groups(acc) | Selection::Features(acc)) =
        &mut parts[at]
    else {
        unreachable!("rank {rank} is a name list");
    };
    let mut saw_name = false;
    for name in csv.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        saw_name = true;
        check_name(rank, name)?;
        // Group and feature matching folds case, so their dedupe does too.
        if !acc
            .iter()
            .any(|n| n == name || rank > 0 && n.eq_ignore_ascii_case(name))
        {
            acc.push(name.to_string());
        }
    }
    p.selection = match parts.len() {
        1 => parts.remove(0),
        _ => Selection::Union(parts),
    };
    if saw_name {
        Ok(())
    } else {
        Err("requires at least one name".to_string())
    }
}

/// Split the flags that select a `rajaperf` mode from the campaign
/// parameters [`RunParams::parse`] takes.
pub fn split_modes(args: Vec<String>) -> (Vec<Mode>, Vec<String>) {
    let mode_of = |arg: &String| {
        let row = FLAGS.iter().find(|f| f.names.contains(&arg.as_str()));
        row.and_then(|f| f.mode)
    };
    let modes = args.iter().filter_map(mode_of).collect();
    (
        modes,
        args.into_iter().filter(|a| mode_of(a).is_none()).collect(),
    )
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
        // Regression: an unbounded size was an allocation failure that
        // took the process (the daemon included) down.
        let over = MAX_PROBLEM_SIZE + 1;
        assert!(RunParams::parse(&args(&format!("--size {over}"))).is_err());
        assert!(RunParams::parse(&args(&format!("--size {}", usize::MAX))).is_err());
        let err = RunParams::parse(&args("--kernels Stream_TRIAD --size-factor 300")).unwrap_err();
        assert!(err.contains("Stream_TRIAD at 300000000"), "{err}");
        // Regression: a block size past CUDA's 1024 was a one-block launch
        // walking every padding thread, running for hours.
        for over in [MAX_BLOCK_SIZE + 1, usize::MAX] {
            let err = RunParams::parse(&args(&format!("--gpu-block-size {over}"))).unwrap_err();
            assert!(err.contains("--gpu-block-size"), "{err}");
            let sweep = format!("--sweep --sweep-block-sizes 128,{over}");
            assert!(RunParams::parse(&args(&sweep)).is_err(), "{sweep}");
        }
        // The boundary values stay accepted.
        assert!(RunParams::parse(&args("--gpu-block-size 1 --size 1 --reps 1")).is_ok());
        let top = format!("--gpu-block-size {MAX_BLOCK_SIZE}");
        assert!(RunParams::parse(&args(&top)).is_ok());
        let sweep = format!("--sweep --sweep-block-sizes 1,{MAX_BLOCK_SIZE}");
        assert!(RunParams::parse(&args(&sweep)).is_ok());
        let block_cap = format!("N <= {MAX_BLOCK_SIZE}");
        assert!(RunParams::usage().contains(&block_cap), "--help states the block cap");
        assert!(RunParams::parse(&args(&format!("--size {MAX_PROBLEM_SIZE}"))).is_ok());
        let cap = MAX_PROBLEM_SIZE.to_string();
        assert!(RunParams::usage().contains(&cap), "--help states the cap");
        assert!(RunParams::parse(&args("--kernels Stream_TRIAD --size-factor 268")).is_ok());
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
        let p = RunParams::parse(&args("--sweep --sweep-block-sizes 64,128,64")).unwrap();
        assert_eq!(p.sweep_block_sizes, vec![64, 128], "first occurrences");
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

    /// Command lines that between them set every parameter row of [`FLAGS`]
    /// to a non-default value; the table tests below fail on a row that no
    /// line covers, so a new flag needs a line here.
    const CASES: &[&str] = &[
        "",
        "--kernels Stream_TRIAD,Basic_DAXPY --size 1000 --reps 2",
        "--groups Stream --kernels Basic_DAXPY --exclude-kernels Stream_DOT",
        "--features sort --variant RAJA_Par --gpu-block-size 128",
        "--sweep --sweep-block-sizes 128,256 --sweep-dir target/sw --ranks 4",
        "--sweep --ranks 2 --faults suite.kernel=panic:0.5,seed=7 \
         --timeout 2.5 --retries 3 --retry-backoff-ms 10",
        "--size-factor 0.5 --reps-factor 2 --sanitize",
        "--sweep --ranks 2 --rank-isolation process --rank-restarts 1",
        "--sweep --ranks 2 --rank-worker 1/2",
        "--caliper spot(output=run.cali.json),runtime-report --lock-order",
        "--trace run.trace.json --trace-folded run.folded",
    ];

    /// The parameter rows `line` sets away from their default.
    fn rows_set_by(line: &str) -> Vec<&'static Flag> {
        let (p, d) = (RunParams::parse(&args(line)).unwrap(), RunParams::default());
        let set = |f: &&Flag| f.mode.is_none() && (f.get)(&p) != (f.get)(&d);
        FLAGS.iter().filter(set).collect()
    }

    #[test]
    fn to_argv_roundtrips_through_parse() {
        // The supervisor respawns children from to_argv(); if any field is
        // dropped or mis-serialized, a child computes different cells than
        // its parent planned. Every child-forwarded row must come back from
        // a non-default value; supervisor-only rows must never leak into a
        // child's argv.
        let mut covered = Vec::new();
        for case in CASES {
            let p = RunParams::parse(&args(case)).unwrap();
            let argv = p.to_argv();
            let reparsed = RunParams::parse(&argv).unwrap_or_else(|e| {
                panic!("to_argv of '{case}' must reparse, got {e}: {argv:?}")
            });
            let forwarded = RunParams {
                rank_isolation: RankIsolation::default(),
                rank_restarts: RunParams::default().rank_restarts,
                ..p
            };
            assert_eq!(reparsed, forwarded, "{case}");
            for flag in rows_set_by(case) {
                let named = flag.names.iter().any(|n| argv.iter().any(|a| a == n));
                assert_eq!(named, flag.child, "{} in {argv:?}", flag.names[0]);
                covered.push(flag.names[0]);
            }
        }
        for flag in FLAGS.iter().filter(|f| f.mode.is_none()) {
            assert!(covered.contains(&flag.names[0]), "no case sets {}", flag.names[0]);
        }
    }

    #[test]
    fn every_valued_row_takes_flag_equals_value_and_no_switch_does() {
        for case in CASES {
            // `--flag value` -> `--flag=value`, for every pair of the line.
            let mut joined: Vec<String> = Vec::new();
            for word in args(case) {
                match joined.last_mut() {
                    Some(last) if last.starts_with("--") && !word.starts_with("--") => {
                        *last = format!("{last}={word}");
                    }
                    _ => joined.push(word),
                }
            }
            let spaced = RunParams::parse(&args(case)).unwrap();
            assert_eq!(RunParams::parse(&joined), Ok(spaced), "{joined:?}");
        }
        for flag in FLAGS.iter().filter(|f| f.mode.is_none() && f.metavar.is_empty()) {
            let err = RunParams::parse(&[format!("{}=1", flag.names[0])]).unwrap_err();
            assert!(err.contains("takes no value"), "{err}");
        }
    }

    #[test]
    fn every_documented_row_is_in_the_usage_text_once_and_in_the_readme() {
        let readme = include_str!("../../../README.md");
        for flag in FLAGS {
            let name = flag.names[0];
            let heads = RunParams::usage()
                .lines()
                .filter(|l| l.trim_start().split(' ').next() == Some(name))
                .count();
            assert_eq!(heads, usize::from(!flag.help.is_empty()), "{name} in --help");
            if !flag.help.is_empty() {
                assert!(readme.contains(name), "{name} is not in README.md");
            }
        }
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
