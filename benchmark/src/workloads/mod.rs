//! The five workloads and the loop that measures one of them.
//!
//! A workload is set up (timed, several times over), then its *pass* — a
//! fixed script of the operations a user performs — repeats until the
//! measuring time is spent. Each pass interleaves all of the workload's
//! operations, so every metric samples the whole window and a slow minute on
//! a shared host shifts all of them together rather than one of them alone.

pub mod analyze;
pub mod daemon;
pub mod registry;
pub mod sweep;

use crate::metrics::{self, Metrics, END_TO_END};
use crate::proc::Exit;
use crate::stats::median;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` runs every
/// gate on the least input that still exercises it.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// `--size-factor` of `registry_run`'s full-size runs.
    pub registry_size_factor: &'static str,
    /// `--size-factor` of `sweep_campaign`'s cells.
    pub campaign_size_factor: &'static str,
    /// Block sizes of `sweep_small_cells` (cells = 6 variants x this many).
    pub small_cell_blocks: usize,
    /// Keys the daemon's solo client misses and then hits, per pass.
    pub daemon_keys: usize,
    /// Profiles in the analysis corpus.
    pub corpus_profiles: usize,
    /// Times the set-up is repeated for `setup_s`.
    pub setups: usize,
    /// Passes measured even when the time is already spent.
    pub min_passes: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    registry_size_factor: "0.01",
    campaign_size_factor: "0.002",
    small_cell_blocks: 4,
    daemon_keys: 16,
    corpus_profiles: 150,
    setups: 5,
    min_passes: 3,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    registry_size_factor: "0.01",
    campaign_size_factor: "0.002",
    small_cell_blocks: 2,
    daemon_keys: 8,
    corpus_profiles: 100,
    setups: 1,
    min_passes: 1,
};

/// Where things are and what to generate.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Directory of the release binaries under test (absolute).
    pub bin_dir: PathBuf,
    /// This run's scratch directory, relative to the working directory so
    /// the daemon's unix-socket path stays under the 108-byte limit.
    pub work: PathBuf,
    pub seed: u64,
    pub scale: Scale,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A command for one of the programs under test, with the pool width it
    /// is sized for (ranks x pool <= the host's two cores).
    pub fn command(&self, bin: &str, pool_threads: usize) -> Command {
        let mut c = Command::new(self.bin(bin));
        c.env("RAYON_NUM_THREADS", pool_threads.to_string())
            .env_remove("SIMFAULT")
            .env_remove("RAJAPERF_WORKER_BIN");
        c
    }
}

/// `rajaperf` arguments as the suite parses them, for the in-process paths.
pub fn run_params<S: AsRef<str>>(args: &[S]) -> io::Result<suite::RunParams> {
    let args: Vec<String> = args.iter().map(|a| a.as_ref().to_string()).collect();
    suite::RunParams::parse(&args).map_err(io::Error::other)
}

/// Empty `dir`, creating it if need be.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

/// The host-health reference: a fixed loop of arithmetic over a 2 MB array,
/// about 2 ms of one core. It belongs to the benchmark and calls nothing in
/// the repository, so no change under test can move it.
///
/// This VM shares its host. Most of the time its speed wanders by 10-20 %,
/// which the medians absorb; now and then, for half a minute, everything
/// runs two to four times slower. A window (one set-up or one pass) whose
/// reference runs, taken just before and just after it, show such an episode
/// is *disturbed*: it is measured again, and what it measured is left out.
/// The values reported are never scaled by the reference.
pub struct Reference {
    buf: Vec<f64>,
}

/// What the reference loop takes on this host when nothing slows it.
pub const REFERENCE_NOMINAL_MS: f64 = 2.2;

/// A window is disturbed when its reference median is this many times the
/// nominal. Undisturbed windows read 0.9 to 1.75 on this host.
pub const DISTURBED_SLOWDOWN: f64 = 2.0;

/// How strongly the programs under test follow the reference when the host
/// wanders: over ten-run sets of every workload, dividing the timings by
/// `slowdown^a` left the smallest spreads at a = 0.5 (a = 0, as measured,
/// left up to 22 %; a = 1 over-corrects, the reference loop being more
/// sensitive than the programs, whose wall is also fsync and process spawn).
/// The README has the table. Reported timings are adjusted by this; the
/// values as measured are printed beside them.
pub const HOST_ELASTICITY: f64 = 0.5;

/// Reference runs at each end of a window.
const PACES_AT_EDGE: usize = 3;

/// Re-measuring disturbed windows may stretch a run to this many times its
/// `--seconds` (and its set-ups to this many times their count), no further.
const STRETCH: f64 = 2.5;

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            buf: vec![1.0; 1 << 18],
        }
    }
}

impl Reference {
    /// Run the loop once; its wall in ms.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for round in 0..8usize {
            for (i, x) in self.buf.iter_mut().enumerate() {
                *x = *x * 1.000_001 + (i ^ round) as f64 * 1e-9;
                acc += *x;
            }
        }
        std::hint::black_box(acc);
        // Keep the values from growing without bound over a long run.
        self.buf.fill(1.0);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// What a workload's passes produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: child runs, requests and output checks. Those
    /// of disturbed windows count too: correctness does not depend on speed.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Timing samples of the window (set-up or pass) under way, in ms.
    window: Vec<(&'static str, f64)>,
    /// Reference-loop samples of the window under way, in ms.
    paces: Vec<f64>,
    reference: Reference,
    /// Samples per end-to-end timing metric from undisturbed windows, in ms.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Slowdown (reference median / nominal) of every window, kept or not.
    pub slowdowns: Vec<f64>,
    /// Slowdown of the windows whose samples were kept.
    pub kept_slowdowns: Vec<f64>,
    /// Windows left out as disturbed.
    pub disturbed: usize,
    /// Largest `ru_maxrss` among the children of the pass under way, KiB.
    pub peak_rss_kb: i64,
    /// `peak_rss_kb` of every undisturbed pass.
    pub pass_rss_kb: Vec<f64>,
    /// Values worth printing beside the metrics (digests, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Count a finished child: it must have exited 0. Returns its wall in ms.
    pub fn child(&mut self, what: &str, exit: &Exit) -> f64 {
        self.check(exit.code == 0, || {
            format!("{what}: exit code {}", exit.code)
        });
        self.peak_rss_kb = self.peak_rss_kb.max(exit.maxrss_kb);
        exit.wall_s * 1e3
    }

    pub fn sample(&mut self, metric: &'static str, ms: f64) {
        self.window.push((metric, ms));
    }

    fn pace(&mut self) {
        for _ in 0..PACES_AT_EDGE {
            let ms = self.reference.run();
            self.paces.push(ms);
        }
    }

    fn open_window(&mut self) {
        self.window.clear();
        self.paces.clear();
        self.peak_rss_kb = 0;
        self.pace();
    }

    /// Close the window. Its samples are kept if the host was undisturbed,
    /// or if `keep_anyway` (nothing better can be had any more).
    fn close_window(&mut self, keep_anyway: bool) -> bool {
        self.pace();
        self.file_window(keep_anyway)
    }

    fn file_window(&mut self, keep_anyway: bool) -> bool {
        let slowdown = median(&self.paces) / REFERENCE_NOMINAL_MS;
        self.slowdowns.push(slowdown);
        let keep = keep_anyway || slowdown < DISTURBED_SLOWDOWN;
        if keep {
            self.kept_slowdowns.push(slowdown);
            for (metric, ms) in self.window.drain(..) {
                self.samples.entry(metric).or_default().push(ms);
            }
        } else {
            self.disturbed += 1;
        }
        keep
    }
}

/// One of the five workloads, driven from outside through the binaries.
pub trait Workload {
    /// Build-free set-up: scratch directories, generated inputs, started
    /// servers. Called `scale.setups` times, each on an emptied `dir`.
    fn setup(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()>;

    /// One pass of the workload's script.
    fn pass(&mut self, ctx: &Ctx, dir: &Path, index: usize, out: &mut Outcome) -> io::Result<()>;

    /// Undo what `setup` started (stop servers) and run end-of-run checks.
    /// Also called between repeated set-ups.
    fn teardown(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()>;
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "registry_run" => Box::new(registry::RegistryRun),
        "sweep_campaign" => Box::new(sweep::Sweep::campaign()),
        "sweep_small_cells" => Box::new(sweep::Sweep::small_cells()),
        "daemon_serve" => Box::new(daemon::DaemonServe::default()),
        "analyze_corpus" => Box::new(analyze::AnalyzeCorpus),
        _ => return None,
    })
}

/// A measured workload: its end-to-end metrics and operation counts.
pub struct Measured {
    pub metrics: Metrics,
    pub outcome: Outcome,
    pub passes: usize,
    pub measured_s: f64,
}

/// Set `workload` up, run passes for `seconds`, tear it down.
pub fn measure(name: &str, ctx: &Ctx, seconds: f64) -> io::Result<Measured> {
    let mut workload =
        by_name(name).ok_or_else(|| io::Error::other(format!("unknown workload '{name}'")))?;
    let dir = ctx.work.join(name);
    let mut out = Outcome::default();

    let (mut kept, mut tried) = (0, 0);
    while kept < ctx.scale.setups {
        if tried > 0 {
            workload.teardown(ctx, &dir, &mut Outcome::default())?;
        }
        fresh_dir(&dir)?;
        tried += 1;
        let last_try = tried as f64 >= STRETCH * ctx.scale.setups as f64;
        out.open_window();
        let t = Instant::now();
        workload.setup(ctx, &dir, &mut out)?;
        out.sample("setup_ms", t.elapsed().as_secs_f64() * 1e3);
        if out.close_window(last_try && kept == 0) {
            kept += 1;
        } else if last_try {
            break;
        }
    }

    // `seconds` of undisturbed passes, within STRETCH x `seconds` overall.
    let started = Instant::now();
    let hard_stop = started + Duration::from_secs_f64(STRETCH * seconds);
    let (mut passes, mut clean_s) = (0, 0.0);
    while passes < ctx.scale.min_passes || clean_s < seconds {
        let out_of_time = Instant::now() >= hard_stop;
        if out_of_time && passes > 0 {
            break;
        }
        out.open_window();
        let t = Instant::now();
        workload.pass(ctx, &dir, passes + out.disturbed, &mut out)?;
        let pass_s = t.elapsed().as_secs_f64();
        if out.close_window(out_of_time) {
            out.pass_rss_kb.push(out.peak_rss_kb as f64);
            passes += 1;
            clean_s += pass_s;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    out.peak_rss_kb = 0;
    workload.teardown(ctx, &dir, &mut out)?;

    // Timings are the medians of the kept samples, brought to the host's
    // nominal speed by the run's own slowdown (see HOST_ELASTICITY).
    let host = median(&out.kept_slowdowns);
    let adjust = host.powf(HOST_ELASTICITY);
    let mut m = Metrics::new();
    let mut as_measured = Vec::new();
    for (metric, sampled, per_unit) in [
        ("setup_s", "setup_ms", 1e3),
        ("full_ms", "full_ms", 1.0),
        ("floor_ms", "floor_ms", 1.0),
        ("par2_ms", "par2_ms", 1.0),
    ] {
        let samples = out.samples.get(sampled).map(Vec::as_slice).unwrap_or(&[]);
        let measured = median(samples) / per_unit;
        metrics::put(
            &mut m,
            &END_TO_END,
            metric,
            measured / adjust,
            samples.len(),
        );
        as_measured.push(format!("{metric} {measured:.6}"));
    }
    // A long-lived server is reaped once, in teardown; children of passes
    // are summarised by the median pass so one odd child cannot set it.
    let rss_kb = median(&out.pass_rss_kb).max(out.peak_rss_kb as f64);
    metrics::put(
        &mut m,
        &END_TO_END,
        "peak_rss_mb",
        rss_kb / 1024.0,
        out.pass_rss_kb.len(),
    );
    out.notes.push(format!(
        "as measured: {}; reported = measured / {adjust:.4} (host slowdown {host:.4} ^ {HOST_ELASTICITY})",
        as_measured.join(" ")
    ));
    out.notes.push(format!(
        "host slowdown (reference loop / {REFERENCE_NOMINAL_MS} ms) median {:.3} max {:.3} over {} windows; {} left out as disturbed (>= {DISTURBED_SLOWDOWN})",
        median(&out.slowdowns),
        out.slowdowns.iter().copied().fold(f64::NAN, f64::max),
        out.slowdowns.len(),
        out.disturbed,
    ));
    Ok(Measured {
        metrics: m,
        outcome: out,
        passes,
        measured_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(reference_ms: f64, keep_anyway: bool) -> (bool, Outcome) {
        let mut out = Outcome::default();
        out.sample("full_ms", 100.0);
        out.paces = vec![reference_ms; 2 * PACES_AT_EDGE];
        let kept = out.file_window(keep_anyway);
        (kept, out)
    }

    #[test]
    fn a_disturbed_window_is_left_out_and_never_rescaled() {
        let (kept, out) = window(REFERENCE_NOMINAL_MS * 1.5, false);
        assert!(kept);
        assert_eq!(out.samples["full_ms"], vec![100.0], "kept as measured");
        assert_eq!((out.disturbed, out.kept_slowdowns.len()), (0, 1));

        let (kept, out) = window(REFERENCE_NOMINAL_MS * 3.0, false);
        assert!(!kept);
        assert!(out.samples.is_empty() && out.kept_slowdowns.is_empty());
        assert_eq!((out.disturbed, out.slowdowns.len()), (1, 1));

        let (kept, out) = window(REFERENCE_NOMINAL_MS * 3.0, true);
        assert!(kept, "with nothing better to be had, the window stands");
        assert_eq!(out.samples["full_ms"], vec![100.0]);
    }

    #[test]
    fn the_reference_loop_takes_a_measurable_time() {
        let mut r = Reference::default();
        let ms = r.run();
        assert!(ms > 0.1 && ms < 1000.0, "{ms} ms");
    }
}
