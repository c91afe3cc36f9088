//! The `rajaperf` command-line driver.
//!
//! Mirrors the upstream RAJAPerf executable: select kernels, a variant, a
//! tuning, and problem sizing on the command line; run the suite; print the
//! timing report; optionally emit Caliper profiles.
//!
//! ```text
//! rajaperf --groups Stream --variant RAJA_Par --caliper runtime-report,output=stdout
//! rajaperf --kernels Stream_TRIAD --size 8000000 --caliper 'spot(output=triad.cali.json)'
//! rajaperf --list
//! ```
//!
//! Exit codes follow [`SuiteExit`]: 0 success, 1 internal error, 2 usage
//! error, 3 checksum failures, 4 sanitizer findings, 5 kernel failures. A
//! closed stdout ends the report, never the run ([`suite::report::print_out`]).

use suite::params::{split_modes, Mode, FLAGS};
use suite::{out, outln, run_suite, RunParams, SuiteExit};

fn main() {
    let (modes, mut args) = split_modes(std::env::args().skip(1).collect());
    if modes.contains(&Mode::Help) {
        out!("{}", RunParams::usage());
        return;
    }
    if modes.contains(&Mode::List) {
        print_kernel_list();
        return;
    }
    // A flag's environment variable is its ambient form; the explicit flag
    // wins. Routing the value through the normal argument path gets it the
    // same validation (for `SIMFAULT`: spec grammar, known failpoints, the
    // `--sanitize` conflict).
    for flag in FLAGS {
        let ambient = flag.env.and_then(|var| std::env::var(var).ok());
        if let Some(value) = ambient.filter(|v| !v.trim().is_empty() && !flag.given(&args)) {
            args.extend([flag.names[0].to_string(), value]);
        }
    }
    let params = match RunParams::parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprint!("{}", RunParams::usage());
            SuiteExit::Usage.exit();
        }
    };
    if params.rank_worker.is_some() {
        // Child-rank worker of a process-isolated campaign: speak the
        // gather protocol on stdio and never print a human report.
        suite::run_rank_worker(&params).exit();
    }
    if params.sweep {
        // Batched orchestrator: the full variants x block-size cross-product,
        // one profile per cell plus a manifest, with per-cell caching.
        match suite::run_sweep(&params) {
            Ok(summary) => {
                out!("{}", summary.render());
                outln!("wrote {}", summary.manifest.display());
                if summary.kernels_failed() > 0 {
                    SuiteExit::KernelFailures.exit();
                }
            }
            Err(e) => {
                eprintln!("error: sweep failed: {e}");
                // A process campaign whose child rejected the supervisor's
                // command line is a usage disagreement, not an internal
                // fault; the supervisor tags it InvalidInput.
                if e.kind() == std::io::ErrorKind::InvalidInput {
                    SuiteExit::Usage.exit();
                }
                SuiteExit::Internal.exit();
            }
        }
        return;
    }
    if modes.contains(&Mode::Checksums) {
        // Validate every supported variant of the selection against the
        // Base_Seq reference (upstream's checksum report).
        let variants = kernels::VariantId::all();
        let reports = suite::run_variants(&params, &variants);
        let cr = suite::checksum_report(&reports);
        out!("{}", cr.render());
        if reports.iter().any(|r| !r.all_passed()) {
            // Kernel failures poke holes in the checksum grid; report them
            // as the stronger condition.
            for r in &reports {
                if !r.all_passed() {
                    outln!();
                    out!("{}", r.render_outcomes());
                }
            }
            SuiteExit::KernelFailures.exit();
        }
        if cr.all_pass() {
            outln!("ALL CHECKSUMS PASS");
        } else {
            outln!("CHECKSUM FAILURES DETECTED");
            SuiteExit::ChecksumFailure.exit();
        }
        return;
    }
    let report = run_suite(&params);
    out!("{}", report.render_timing());
    if params.faults.is_some() || !report.all_passed() {
        outln!();
        out!("{}", report.render_outcomes());
    }
    if let Some(section) = &report.sanitize {
        outln!();
        out!("{}", section.render());
    }
    if let Some(lock_order) = &report.lock_order {
        outln!();
        out!("{lock_order}");
    }
    for written in &report.outputs {
        outln!("wrote {}", written.path.display());
    }
    if !report.all_passed() {
        SuiteExit::KernelFailures.exit();
    }
    if report.sanitize.as_ref().is_some_and(|s| !s.all_clean()) {
        SuiteExit::SanitizerFindings.exit();
    }
}

fn print_kernel_list() {
    outln!(
        "{:<28} {:<10} {:>12} {:>6}  {:<8} variants",
        "Kernel", "Group", "DefaultSize", "Reps", "Complex."
    );
    for k in kernels::registry() {
        let info = k.info();
        let variants: Vec<&str> = info.variants.iter().map(|v| v.name()).collect();
        outln!(
            "{:<28} {:<10} {:>12} {:>6}  {:<8} {}",
            info.name,
            info.group.name(),
            info.default_size,
            info.default_reps,
            info.complexity.label(),
            variants.join(",")
        );
    }
}
