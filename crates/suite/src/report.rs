//! Suite run reports: timing tables, CSV, cross-variant checksum
//! validation — the "various text-based files" RAJAPerf generates (§II-A) —
//! and the `--sanitize` hazard section.

use crate::exec::{KernelOutcome, OutcomeRecord};
use kernels::sanitize::SanitizeOutcome;
use kernels::{RunResult, VariantId};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once standard output refused a write: the rest is not attempted.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Print report text to standard output, as the binaries' [`out!`] and
/// [`outln!`] do. A reader that went away (`| head -1`, `| true`) ends the
/// output, not the run: the rest is dropped and the process exits with its
/// own [`crate::SuiteExit`], where `print!` would panic (exit 101).
pub fn print_out(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            let _ = writeln!(std::io::stderr(), "warning: stdout: {e}; output dropped");
        }
    }
}

/// `print!` through [`print_out`]: a closed stdout ends the output.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::report::print_out(format_args!($($arg)*)) };
}

/// `println!` through [`print_out`]: a closed stdout ends the output.
#[macro_export]
macro_rules! outln {
    () => { $crate::report::print_out(format_args!("\n")) };
    ($($arg:tt)*) => {
        $crate::report::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One kernel execution within a suite run.
#[derive(Debug, Clone)]
pub struct TimingEntry {
    /// Full kernel name.
    pub kernel: String,
    /// Group name.
    pub group: String,
    /// Variant executed.
    pub variant: VariantId,
    /// Problem size used.
    pub problem_size: usize,
    /// Repetitions executed.
    pub reps: usize,
    /// Execution result.
    pub result: RunResult,
}

impl TimingEntry {
    /// Achieved memory bandwidth, B/s.
    pub fn bandwidth(&self) -> f64 {
        let t = self.result.time_per_rep();
        if t > 0.0 {
            (self.result.metrics.bytes_read + self.result.metrics.bytes_written) / t
        } else {
            0.0
        }
    }

    /// Achieved FLOP rate, FLOP/s.
    pub fn flop_rate(&self) -> f64 {
        let t = self.result.time_per_rep();
        if t > 0.0 {
            self.result.metrics.flops / t
        } else {
            0.0
        }
    }
}

/// The result of one suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Variant this run executed.
    pub variant: VariantId,
    /// Per-kernel results in execution order.
    pub entries: Vec<TimingEntry>,
    /// The Caliper profile of the run.
    pub profile: caliper::Profile,
    /// Files written by the configured Caliper outputs, each with the
    /// length and digest of the bytes written.
    pub outputs: Vec<caliper::Written>,
    /// Sanitizer results when the run was invoked with `--sanitize`.
    pub sanitize: Option<SanitizeSection>,
    /// Lock-order analysis when the run was invoked with `--lock-order`:
    /// the rendered cycle report (both acquisition stacks, region
    /// attribution) when cycles were found, or a one-line all-clear.
    pub lock_order: Option<String>,
    /// Per-kernel execution outcomes, one per selected kernel that supports
    /// the variant — including the failed/timed-out ones that have no
    /// [`TimingEntry`].
    pub outcomes: Vec<OutcomeRecord>,
}

/// The `--sanitize` section of a suite report: one outcome per sanitized
/// kernel variant, plus the sweep's aggregate cost.
#[derive(Debug, Clone, Default)]
pub struct SanitizeSection {
    /// Per-kernel-variant sanitizer outcomes in execution order.
    pub outcomes: Vec<SanitizeOutcome>,
}

impl SanitizeSection {
    /// True when no sanitized kernel produced a finding.
    pub fn all_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_clean())
    }

    /// Total hazard occurrences across the sweep.
    pub fn total_occurrences(&self) -> u64 {
        self.outcomes.iter().map(|o| o.occurrences).sum()
    }

    /// Summed sanitized wall time across the sweep.
    pub fn total_time(&self) -> std::time::Duration {
        self.outcomes.iter().map(|o| o.sanitized_time).sum()
    }

    /// Summed unsanitized baseline wall time across the sweep.
    pub fn total_baseline(&self) -> std::time::Duration {
        self.outcomes.iter().map(|o| o.baseline_time).sum()
    }

    /// Render the hazard report section.
    pub fn render(&self) -> String {
        let mut out = String::from("Sanitizer (simsan) report\n");
        out.push_str(&format!(
            "{:<28} {:<12} {:>8} {:>12} {:>10}\n",
            "Kernel", "Variant", "Sites", "Occurrences", "Overhead"
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<28} {:<12} {:>8} {:>12} {:>9.1}x\n",
                o.kernel,
                o.variant.name(),
                o.findings.len(),
                o.occurrences,
                o.overhead_ratio(),
            ));
        }
        for o in &self.outcomes {
            for f in &o.findings {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out.push_str(&format!(
            "{} kernel variant(s) sanitized, {} hazard occurrence(s): {}\n",
            self.outcomes.len(),
            self.total_occurrences(),
            if self.all_clean() { "CLEAN" } else { "HAZARDS DETECTED" }
        ));
        out
    }
}

impl SuiteReport {
    /// Render the RunTimes-style text table.
    pub fn render_timing(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Variant: {}\n", self.variant.name()));
        out.push_str(&format!(
            "{:<28} {:>12} {:>6} {:>14} {:>14} {:>14}\n",
            "Kernel", "Size", "Reps", "Time/rep (s)", "GB/s", "GFLOP/s"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<28} {:>12} {:>6} {:>14.6e} {:>14.3} {:>14.3}\n",
                e.kernel,
                e.problem_size,
                e.reps,
                e.result.time_per_rep(),
                e.bandwidth() / 1e9,
                e.flop_rate() / 1e9,
            ));
        }
        out
    }

    /// Serialize the run as CSV (`kernel,group,variant,size,reps,time_s,
    /// bytes,flops,checksum`).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("kernel,group,variant,size,reps,time_per_rep_s,bytes_per_rep,flops_per_rep,checksum\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{},{},{},{},{},{:e},{:e},{:e},{:e}\n",
                e.kernel,
                e.group,
                e.variant.name(),
                e.problem_size,
                e.reps,
                e.result.time_per_rep(),
                e.result.metrics.bytes_read + e.result.metrics.bytes_written,
                e.result.metrics.flops,
                e.result.checksum,
            ));
        }
        out
    }

    /// Look up a kernel's entry.
    pub fn entry(&self, kernel: &str) -> Option<&TimingEntry> {
        self.entries.iter().find(|e| e.kernel == kernel)
    }

    /// Look up a kernel's execution outcome.
    pub fn outcome(&self, kernel: &str) -> Option<&KernelOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.kernel == kernel)
            .map(|o| &o.outcome)
    }

    /// True when every executed kernel passed (retried passes count).
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.outcome.is_pass())
    }

    /// Kernels that failed or timed out.
    pub fn failed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.outcome.is_pass()).count()
    }

    /// Total retries absorbed across the run.
    pub fn retries_total(&self) -> u32 {
        self.outcomes
            .iter()
            .map(|o| match o.outcome {
                KernelOutcome::Passed { retries } | KernelOutcome::Failed { retries, .. } => {
                    retries
                }
                _ => 0,
            })
            .sum()
    }

    /// Render the per-kernel outcome section (status + detail per kernel,
    /// then a pass/fail summary line). The interesting report when faults
    /// are armed — and after any partial failure.
    pub fn render_outcomes(&self) -> String {
        let mut out = String::from("Kernel outcomes\n");
        for o in &self.outcomes {
            let detail = o.outcome.detail();
            out.push_str(&format!(
                "{:<28} {:<12} {:<12}{}{}\n",
                o.kernel,
                o.variant.name(),
                o.outcome.label(),
                if detail.is_empty() { "" } else { "  " },
                detail,
            ));
        }
        let failed = self.failed_count();
        out.push_str(&format!(
            "{} kernel(s): {} passed, {} failed{}\n",
            self.outcomes.len(),
            self.outcomes.len() - failed,
            failed,
            match self.retries_total() {
                0 => String::new(),
                r => format!(", {r} transient failure(s) retried"),
            }
        ));
        out
    }
}

/// Outcome of comparing one variant's checksum against its kernel's
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// Checksum agrees with the reference.
    Pass,
    /// Checksum diverges from the reference.
    Fail,
    /// This entry *is* the fallback reference: the kernel does not run
    /// under the primary reference variant, so this variant (the first that
    /// ran the kernel) anchors the comparison and has nothing to be
    /// compared against. Rendered as `n/a`, and not a failure.
    Reference,
}

/// Cross-variant checksum validation table.
#[derive(Debug, Clone)]
pub struct ChecksumReport {
    /// kernel → per-variant (variant, checksum, status vs. reference).
    pub rows: BTreeMap<String, Vec<(VariantId, f64, CheckStatus)>>,
}

impl ChecksumReport {
    /// True when no variant of any kernel diverged from its reference
    /// (fallback-reference entries count as agreement, not failure).
    pub fn all_pass(&self) -> bool {
        self.rows
            .values()
            .all(|row| row.iter().all(|(_, _, st)| *st != CheckStatus::Fail))
    }

    /// Render the checksum table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Checksum report (reference = first variant that ran the kernel)\n");
        for (kernel, row) in &self.rows {
            out.push_str(&format!("{kernel}\n"));
            for (v, cs, st) in row {
                out.push_str(&format!(
                    "    {:<12} {:>24.12e}  {}\n",
                    v.name(),
                    cs,
                    match st {
                        CheckStatus::Pass => "PASS",
                        CheckStatus::Fail => "FAIL",
                        CheckStatus::Reference => "n/a (reference)",
                    }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::AnalyticMetrics;
    use std::time::Duration;

    fn entry(kernel: &str, time_s: f64) -> TimingEntry {
        TimingEntry {
            kernel: kernel.to_string(),
            group: "Stream".to_string(),
            variant: VariantId::BaseSeq,
            problem_size: 1000,
            reps: 2,
            result: RunResult {
                checksum: 1.0,
                time: Duration::from_secs_f64(time_s),
                reps: 2,
                metrics: AnalyticMetrics {
                    bytes_read: 16_000.0,
                    bytes_written: 8_000.0,
                    flops: 2_000.0,
                },
            },
        }
    }

    #[test]
    fn bandwidth_and_flop_rate() {
        let e = entry("Stream_TRIAD", 2.0); // 1 s/rep
        assert!((e.bandwidth() - 24_000.0).abs() < 1e-9);
        assert!((e.flop_rate() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_one_row_per_entry() {
        let report = SuiteReport {
            variant: VariantId::BaseSeq,
            entries: vec![entry("A", 1.0), entry("B", 1.0)],
            profile: caliper::Profile::default(),
            outputs: vec![],
            sanitize: None,
            lock_order: None,
            outcomes: vec![],
        };
        assert_eq!(report.to_csv().lines().count(), 3);
        assert!(report.entry("A").is_some());
        assert!(report.entry("C").is_none());
    }

    #[test]
    fn outcome_section_lists_failures_and_retries() {
        let report = SuiteReport {
            variant: VariantId::BaseSeq,
            entries: vec![entry("A", 1.0)],
            profile: caliper::Profile::default(),
            outputs: vec![],
            sanitize: None,
            lock_order: None,
            outcomes: vec![
                OutcomeRecord {
                    kernel: "A".into(),
                    variant: VariantId::BaseSeq,
                    outcome: KernelOutcome::Passed { retries: 2 },
                },
                OutcomeRecord {
                    kernel: "B".into(),
                    variant: VariantId::BaseSeq,
                    outcome: KernelOutcome::Failed {
                        message: "boom".into(),
                        retries: 0,
                    },
                },
                OutcomeRecord {
                    kernel: "C".into(),
                    variant: VariantId::BaseSeq,
                    outcome: KernelOutcome::TimedOut {
                        limit: std::time::Duration::from_secs(1),
                    },
                },
            ],
        };
        assert!(!report.all_passed());
        assert_eq!(report.failed_count(), 2);
        assert_eq!(report.retries_total(), 2);
        assert!(matches!(
            report.outcome("C"),
            Some(KernelOutcome::TimedOut { .. })
        ));
        let text = report.render_outcomes();
        assert!(text.contains("RETRIED(2)"));
        assert!(text.contains("boom"));
        assert!(text.contains("TIMEOUT"));
        assert!(text.contains("1 passed, 2 failed"));
        assert!(text.contains("2 transient failure(s) retried"));
    }

    #[test]
    fn checksum_report_detects_failures() {
        let mut rows = BTreeMap::new();
        rows.insert(
            "K".to_string(),
            vec![
                (VariantId::BaseSeq, 1.0, CheckStatus::Pass),
                (VariantId::RajaSeq, 2.0, CheckStatus::Fail),
            ],
        );
        let cr = ChecksumReport { rows };
        assert!(!cr.all_pass());
        assert!(cr.render().contains("FAIL"));
    }

    #[test]
    fn fallback_reference_entries_are_not_failures() {
        let mut rows = BTreeMap::new();
        rows.insert(
            "DeviceOnly".to_string(),
            vec![
                (VariantId::BaseSimGpu, 3.0, CheckStatus::Reference),
                (VariantId::RajaSimGpu, 3.0, CheckStatus::Pass),
            ],
        );
        let cr = ChecksumReport { rows };
        assert!(cr.all_pass(), "a fallback reference must not fail the report");
        assert!(cr.render().contains("n/a"));
    }
}
