//! The RAJAPerf-rs driver: run parameters, the suite executor, reports,
//! and the Caliper/Adiak integration (paper §II-D).
//!
//! A single run executes a selection of kernels under one variant and one
//! tuning (as upstream: "a single RAJAPerf run generates a Caliper profile
//! containing one variant and one tuning"), annotates each kernel as a
//! Caliper region with its analytic metrics attached, registers the run
//! metadata through Adiak, and writes text/CSV reports plus the
//! `.cali`-style JSON profile that `thicket` consumes.
//!
//! The [`simulate`] module produces the *hardware-metric* profiles for the
//! four Table II machines — TMA tuples on the CPU systems, instruction
//! roofline points on the GPU systems, and predicted execution times — the
//! data behind Figs. 3–10.

use kernels::VariantId;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub mod exec;
pub mod params;
pub mod record;
pub mod report;
pub mod simulate;
pub mod sweep;

pub use exec::{FaultPolicy, KernelOutcome, OutcomeRecord, SuiteExit};
pub use params::{RunParams, Selection};
pub use sweep::{run_rank_worker, run_sweep, RankCasualty, SweepCell, SweepReport, SweepSummary};
pub use report::{CheckStatus, ChecksumReport, SanitizeSection, SuiteReport, TimingEntry};

/// Identity of the code that produced a measurement: the crate version plus
/// the build-script fingerprint (the git commit when the build had one).
/// Folded into every content-addressed cache key — sweep cells and daemon
/// store entries — so a profile measured by an older binary is never
/// silently served after a rebuild.
pub fn code_version() -> &'static str {
    concat!(
        env!("CARGO_PKG_VERSION"),
        "+",
        env!("RAJAPERF_BUILD_FINGERPRINT")
    )
}

/// One per-kernel progress notification from [`run_suite_observed`]:
/// emitted after each kernel-variant execution completes (passed, failed,
/// or timed out), with its position in the selection. The daemon streams
/// these to clients as `progress` events.
#[derive(Debug, Clone)]
pub struct KernelProgress {
    /// Full kernel name.
    pub kernel: String,
    /// 1-based position within the kernels this run executes.
    pub index: usize,
    /// Number of selected kernels that support the run's variant.
    pub total: usize,
    /// Outcome label (`PASSED`, `RETRIED(n)`, `FAILED`, `TIMEOUT`).
    pub outcome: String,
    /// Wall time of this kernel's execution attempt(s), seconds.
    pub time_s: f64,
}

/// Fault observer installed while `--faults` is armed: each fired fault
/// lands in the event trace as an instant marker (`simfault.<point>.<mode>`),
/// so a traced faulty run shows *where* in the timeline injections hit.
fn fault_trace_observer(point: &str, mode: &str) {
    if caliper::trace::enabled() {
        caliper::trace::instant_event(&format!("simfault.{point}.{mode}"));
    }
}

/// Execute the suite described by `params`, producing a report and (if
/// configured) Caliper output files.
pub fn run_suite(params: &RunParams) -> SuiteReport {
    run_suite_with(params, Vec::new(), None)
}

/// [`run_suite`] with an optional per-kernel progress observer, called after
/// each kernel-variant execution with its [`KernelProgress`]. The daemon
/// uses this to stream progress events to clients while a request runs.
pub fn run_suite_observed(
    params: &RunParams,
    progress: Option<&dyn Fn(&KernelProgress)>,
) -> SuiteReport {
    run_suite_with(params, Vec::new(), progress)
}

/// [`run_suite_observed`] plus Caliper `outputs` the caller computed (a
/// sweep cell's profile): they reach Caliper typed, beside whatever the
/// user's `--caliper` text and `--trace` ask for.
pub(crate) fn run_suite_with(
    params: &RunParams,
    outputs: Vec<caliper::OutputSpec>,
    progress: Option<&dyn Fn(&KernelProgress)>,
) -> SuiteReport {
    // Every output of the run in one manager: the user's spec text, the
    // caller's typed outputs, and `--trace` as the `trace` service it is
    // sugar for — a path is never formatted into text to be parsed back.
    let mut cm = caliper::ConfigManager::new();
    if let Some(spec) = &params.caliper_spec {
        cm.add(spec);
    }
    for output in outputs {
        cm.push(output);
    }
    if let Some(path) = &params.trace {
        cm.push(caliper::OutputSpec::Trace {
            output: path.display().to_string(),
            folded: params.trace_folded.as_ref().map(|f| f.display().to_string()),
        });
    }
    // The run's own event trace, when an output exports one: the session
    // records its regions and metrics into it from the first region on.
    let trace = cm
        .requests_event_trace()
        .then(caliper::trace::Trace::new);
    let session = match &trace {
        Some(trace) => caliper::Session::traced(trace),
        None => caliper::Session::new(),
    };
    adiak::init();
    // Per-run values go on the run's own session, never into the
    // process-global Adiak registry: every later profile in the process
    // (another daemon request, the simulated machines) merges that registry.
    session.set_global("variant", params.variant.name());
    session.set_global("tuning", format!("block_{}", params.tuning.gpu_block_size));
    session.set_global("size_factor", params.size_factor);
    session.set_global("suite", "RAJAPerf-rs");
    // Rank identity inside a `--ranks N` campaign, using real Caliper's MPI
    // attribute names so Thicket-side tooling can group profiles by rank.
    if let Some((rank, nranks)) = params.rank_context {
        session.set_rank(rank, nranks);
    }

    // The run thread records device and fault events into the trace for
    // the timing loop; the threads the loop starts (watchdog, exchange
    // ranks, pool workers running its device blocks) enter it from here.
    let entered = trace.as_ref().map(caliper::trace::Trace::enter);

    // Lock-order diagnostics: wire simsched's attribution hooks to Caliper
    // (region context on every recorded edge, `simsched.*` instants on the
    // event-trace timeline) and start recording before the first kernel so
    // the graph covers the pool's warm-up acquisitions too.
    if params.lock_order {
        simsched::set_context_provider(Some(caliper::current_region_path));
        simsched::set_instant_sink(Some(caliper::trace::instant_event));
        simsched::lockorder::reset();
        simsched::lockorder::enable();
    }

    // Fault injection: arm the spec afresh on this thread at the start of
    // every run, so draw counters start at zero — each run_suite call (each
    // sweep cell included) replays the identical deterministic fault
    // sequence, interrupted or not, whatever runs beside it. The guard lives
    // to the end of the function, so `io.write` injections can tear the
    // profile writes of the output flush.
    let faults = params.faults.as_ref().map(|spec| {
        let config = simfault::FaultConfig::parse(spec)
            .unwrap_or_else(|e| panic!("invalid fault spec (validate params first): {e}"));
        simfault::arm(config, Some(fault_trace_observer))
    });
    let faults_armed = faults.is_some();
    let policy = exec::FaultPolicy {
        timeout: params.timeout,
        max_retries: params.max_retries,
        retry_backoff: params.retry_backoff,
    };

    let mut entries = Vec::new();
    let mut outcomes = Vec::new();
    let executable: Vec<&'static dyn kernels::KernelBase> = params
        .selected_kernels()
        .into_iter()
        .filter(|k| k.info().variants.contains(&params.variant))
        .collect();
    let total = executable.len();
    let suite_comm_before = simcomm::thread_stats();
    let _suite_region = session.region("RAJAPerf");
    for (idx, kernel) in executable.into_iter().enumerate() {
        let info = kernel.info();
        let n = params.problem_size(&info);
        let reps = params.reps(&info);
        let _group = session.region(info.group.name());
        let region = session.region(info.name);
        // Scope label for `point@kernel` fault filters. It lives in the
        // armed state, which a watchdog-spawned attempt enters.
        let scope = faults_armed.then(|| simfault::scoped(info.name));
        let comm_before = simcomm::thread_stats();
        let (outcome, result) =
            exec::execute_guarded(kernel, params.variant, n, reps, &params.tuning, &policy);
        drop(scope);
        // Communication attributable to this kernel (the HALO family): the
        // watchdog relays a spawned attempt's counters back to this thread,
        // so the delta covers both execution paths. Attempts abandoned by a
        // timeout report nothing — their counters are lost with the thread.
        let comm_delta = simcomm::thread_stats().since(comm_before);
        if !comm_delta.is_zero() {
            session.set_metric("comm.messages_sent", comm_delta.messages_sent as f64);
            session.set_metric("comm.bytes_sent", comm_delta.bytes_sent as f64);
            session.set_metric(
                "comm.messages_received",
                comm_delta.messages_received as f64,
            );
            session.set_metric("comm.bytes_received", comm_delta.bytes_received as f64);
        }
        if let Some(observer) = progress {
            observer(&KernelProgress {
                kernel: info.name.to_string(),
                index: idx + 1,
                total,
                outcome: outcome.label(),
                time_s: result
                    .as_ref()
                    .map(|r| r.time.as_secs_f64())
                    .unwrap_or(0.0),
            });
        }
        session.set_metric("ProblemSize", n as f64);
        session.set_metric("Reps", reps as f64);
        if let exec::KernelOutcome::Passed { retries: r @ 1.. } = outcome {
            session.set_metric("fault.retries", r as f64);
        }
        match result {
            Some(result) => {
                session.set_metric(
                    "Bytes/Rep",
                    result.metrics.bytes_read + result.metrics.bytes_written,
                );
                session.set_metric("BytesRead/Rep", result.metrics.bytes_read);
                session.set_metric("BytesWritten/Rep", result.metrics.bytes_written);
                session.set_metric("Flops/Rep", result.metrics.flops);
                session.set_metric("Checksum", result.checksum);
                session.set_metric("Time/Rep", result.time_per_rep());
                entries.push(TimingEntry {
                    kernel: info.name.to_string(),
                    group: info.group.name().to_string(),
                    variant: params.variant,
                    problem_size: n,
                    reps,
                    result,
                });
            }
            None => {
                // The failure is data too: the profile records that the
                // kernel ran and failed, so thicket-side analysis can
                // distinguish "failed" from "not selected".
                session.set_metric("fault.failed", 1.0);
                eprintln!(
                    "warning: {} {}: {} — continuing with the rest of the selection",
                    info.name,
                    outcome.label(),
                    outcome.detail()
                );
            }
        }
        region.end();
        outcomes.push(exec::OutcomeRecord {
            kernel: info.name.to_string(),
            variant: params.variant,
            outcome,
        });
    }
    drop(_suite_region);

    // Adiak-style fault metadata, recorded only when there is something to
    // say (a fault config, a failure, or a retry) so ordinary clean runs
    // keep their exact historical profile shape.
    let failed = outcomes.iter().filter(|o| !o.outcome.is_pass()).count();
    let retries_total: u32 = outcomes
        .iter()
        .map(|o| match o.outcome {
            exec::KernelOutcome::Passed { retries }
            | exec::KernelOutcome::Failed { retries, .. } => retries,
            _ => 0,
        })
        .sum();
    if faults_armed || failed > 0 || retries_total > 0 {
        if let Some(spec) = &params.faults {
            session.set_global("fault.spec", spec.as_str());
        }
        session.set_global("fault.kernels_failed", failed as i64);
        session.set_global("fault.retries_total", retries_total as i64);
        session.set_global("fault.injected_total", simfault::fired_total() as i64);
    }

    // Suite-level communication totals (zero and absent for runs that never
    // touched simcomm, preserving the historical profile shape).
    let suite_comm = simcomm::thread_stats().since(suite_comm_before);
    if !suite_comm.is_zero() {
        session.set_global("comm.messages_sent", suite_comm.messages_sent as i64);
        session.set_global("comm.bytes_sent", suite_comm.bytes_sent as i64);
        session.set_global("comm.messages_received", suite_comm.messages_received as i64);
        session.set_global("comm.bytes_received", suite_comm.bytes_received as i64);
    }

    // Leave the trace before the sanitizer pass: the trace is the timing
    // run's timeline, nothing else's.
    drop(entered);

    // Optional sanitizer pass over the same selection. It runs after the
    // timing loop (never interleaved with it) so the measured kernel times
    // above are untouched, and its cost lands in the profile as metadata
    // through `annotate_overhead` rather than in any kernel region.
    let sanitize = params.sanitize.then(|| {
        let section = run_sanitize(params);
        session.set_global("sanitizer", "simsan");
        session.set_global(
            "sanitizer_findings",
            section.total_occurrences() as i64,
        );
        session.annotate_overhead("sanitizer", section.total_baseline(), section.total_time());
        section
    });

    // Lock-order findings: stop recording, render the cycle report, and put
    // the cycle count in the profile globals (before the flush below, so
    // written profiles carry it and Thicket-side analysis can filter runs
    // with findings). Hooks are unhooked so a later non-diagnostic run in
    // this process pays nothing.
    let lock_order = params.lock_order.then(|| {
        simsched::lockorder::disable();
        let cycles = simsched::lockorder::cycle_count();
        session.set_global("lockorder.cycles", cycles as i64);
        let text = simsched::lockorder::report().unwrap_or_else(|| {
            "simsched lock-order analysis: no potential deadlock cycles detected\n".to_string()
        });
        simsched::set_context_provider(None);
        simsched::set_instant_sink(None);
        text
    });

    // `parse` rejects a bad `--caliper` spec; one set programmatically is
    // reported here, as Caliper does, rather than panicking.
    if let Some(err) = cm.error() {
        eprintln!("warning: {err}");
    }
    // Built once: the profile the outputs are written from is the one the
    // report carries.
    let profile = session.profile();
    let outputs = cm.flush(&profile, trace.as_ref()).unwrap_or_else(|e| {
        eprintln!("warning: caliper flush failed: {e}");
        Vec::new()
    });

    SuiteReport {
        variant: params.variant,
        entries,
        profile,
        outputs,
        sanitize,
        lock_order,
        outcomes,
    }
}

/// Run the simulated-device sanitizer (`simsan`) over the kernels selected
/// by `params`, covering every simulated-device variant each kernel
/// implements. The sweep uses `--size` when given and otherwise
/// [`kernels::sanitize::DEFAULT_SANITIZE_SIZE`] — shadow tracking costs a
/// map operation per access, and the hazard classes it detects are
/// intra-block, so a reduced size loses no coverage.
pub fn run_sanitize(params: &RunParams) -> SanitizeSection {
    let selected = params.selected_kernels();
    let outcomes = kernels::sanitize::sanitize_all(selected, params.explicit_size, &params.tuning);
    SanitizeSection { outcomes }
}

/// `output` with `tag` before the extension chain of every file it names —
/// whatever the extension is: `run.json` with tag `Base_Seq` becomes
/// `run.Base_Seq.json`, `out.cali.json` becomes `out.Base_Seq.cali.json`,
/// and an extensionless `run` becomes `run.Base_Seq`. The `stdout`/`stderr`
/// pseudo-paths are left untouched.
fn with_tag(output: &caliper::OutputSpec, tag: &str) -> caliper::OutputSpec {
    use caliper::OutputSpec::{RuntimeReport, SpotProfile, Trace};
    let mut tagged = output.clone();
    let (RuntimeReport { output } | SpotProfile { output } | Trace { output, .. }) = &mut tagged;
    *output = tag_path(output, tag);
    if let Trace { folded, .. } = &mut tagged {
        *folded = folded.as_deref().map(|f| tag_path(f, tag));
    }
    tagged
}

/// Insert `tag` before the extension chain of `path`'s final component.
fn tag_path(path: &str, tag: &str) -> String {
    if path.is_empty() || path == "stdout" || path == "stderr" {
        return path.to_string();
    }
    let file_start = path.rfind('/').map_or(0, |i| i + 1);
    let file = &path[file_start..];
    // Split at the *first* dot of the file name so multi-part extensions
    // (`.cali.json`) survive intact; a leading dot (hidden file) is a name
    // character, not an extension separator.
    let split = match file.char_indices().skip(1).find(|&(_, c)| c == '.') {
        Some((i, _)) => file_start + i,
        None => path.len(),
    };
    format!("{}.{}{}", &path[..split], tag, &path[split..])
}

/// Run several variants (for cross-variant checksum validation and
/// RAJA-overhead comparison), one profile per variant as upstream: the
/// user's Caliper spec is parsed once and each variant runs with its typed
/// outputs, the variant name in every file name ([`with_tag`]), so variants
/// never clobber each other's profiles.
pub fn run_variants(base: &RunParams, variants: &[VariantId]) -> Vec<SuiteReport> {
    let mut spec = caliper::ConfigManager::new();
    let mut p = base.clone();
    if let Some(text) = p.caliper_spec.take() {
        spec.add(&text);
    }
    if let Some(err) = spec.error() {
        eprintln!("warning: {err}");
    }
    variants
        .iter()
        .map(|&v| {
            p.variant = v;
            let outputs = spec.outputs().iter().map(|o| with_tag(o, v.name()));
            run_suite_with(&p, outputs.collect(), None)
        })
        .collect()
}

/// Compare checksums across the reports of [`run_variants`]. Each kernel's
/// reference is the first report (in run order) that actually ran it; a
/// kernel absent from the primary reference variant is anchored to the
/// first variant that supports it (rendered `n/a (reference)`), not marked
/// as a failure.
pub fn checksum_report(reports: &[SuiteReport]) -> ChecksumReport {
    let mut rows = BTreeMap::new();
    // kernel → (index of the report providing its reference, checksum).
    let mut reference: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for (ri, rep) in reports.iter().enumerate() {
        for e in &rep.entries {
            reference
                .entry(e.kernel.as_str())
                .or_insert((ri, e.result.checksum));
        }
    }
    for (ri, rep) in reports.iter().enumerate() {
        for e in &rep.entries {
            let (ref_idx, rf) = reference[e.kernel.as_str()];
            let status = if ri == ref_idx && ref_idx != 0 {
                report::CheckStatus::Reference
            } else if kernels::common::close(e.result.checksum, rf, 1e-8) {
                report::CheckStatus::Pass
            } else {
                report::CheckStatus::Fail
            };
            let row: &mut Vec<(VariantId, f64, report::CheckStatus)> =
                rows.entry(e.kernel.clone()).or_default();
            row.push((e.variant, e.result.checksum, status));
        }
    }
    ChecksumReport { rows }
}

/// Run one kernel across a sweep of GPU block-size tunings under a device
/// variant (the paper's §II-C "find optimal configurations ... by tuning
/// various execution parameters, such as GPU thread-block sizes").
/// Returns `(block_size, seconds-per-rep)` pairs in sweep order, or an
/// error naming the unknown kernel — a user-supplied name must surface as
/// a usage error, not a panic.
pub fn run_tuning_sweep(
    kernel_name: &str,
    variant: VariantId,
    n: usize,
    reps: usize,
    block_sizes: &[usize],
) -> Result<Vec<(usize, f64)>, String> {
    let kernel =
        kernels::find(kernel_name).ok_or_else(|| format!("unknown kernel '{kernel_name}'"))?;
    Ok(block_sizes
        .iter()
        .map(|&bs| {
            let tuning = kernels::Tuning {
                gpu_block_size: bs,
            };
            let r = kernel.execute(variant, n, reps, &tuning);
            (bs, r.time_per_rep())
        })
        .collect())
}

/// Where experiment binaries write their outputs.
pub fn experiment_dir() -> PathBuf {
    let dir = std::env::var("RAJAPERF_EXPERIMENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> RunParams {
        RunParams {
            selection: Selection::Kernels(vec![
                "Stream_TRIAD".into(),
                "Basic_DAXPY".into(),
                "Algorithm_SCAN".into(),
            ]),
            explicit_size: Some(2000),
            explicit_reps: Some(2),
            ..RunParams::default()
        }
    }

    #[test]
    fn run_suite_produces_entries_and_profile() {
        let report = run_suite(&small_params());
        assert_eq!(report.entries.len(), 3);
        // Profile has one record per kernel region (plus group/suite nodes).
        let triad = report
            .profile
            .find("Stream_TRIAD")
            .expect("TRIAD region recorded");
        assert!(triad.metric("Flops/Rep").unwrap() > 0.0);
        assert_eq!(triad.metric("Reps"), Some(2.0));
        assert_eq!(report.profile.global_str("variant"), Some("Base_Seq"));
    }

    #[test]
    fn variants_share_checksums() {
        let p = small_params();
        let reports = run_variants(
            &p,
            &[VariantId::BaseSeq, VariantId::RajaSeq, VariantId::RajaPar],
        );
        let cr = checksum_report(&reports);
        assert_eq!(cr.rows.len(), 3);
        assert!(cr.all_pass(), "{}", cr.render());
    }

    #[test]
    fn timing_report_renders() {
        let report = run_suite(&small_params());
        let text = report.render_timing();
        assert!(text.contains("Stream_TRIAD"));
        assert!(text.contains("Base_Seq"));
        let csv = report.to_csv();
        assert!(csv.lines().count() >= 4, "header + 3 kernels");
    }

    #[test]
    fn tuning_sweep_covers_all_block_sizes() {
        let sweep = run_tuning_sweep(
            "Stream_TRIAD",
            VariantId::RajaSimGpu,
            4096,
            1,
            &[64, 256, 1024],
        )
        .unwrap();
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].0, 64);
        assert!(sweep.iter().all(|&(_, t)| t > 0.0));
    }

    #[test]
    fn tuning_sweep_reports_unknown_kernel_instead_of_panicking() {
        // Regression: an unknown (user-supplied) kernel name used to panic.
        let err =
            run_tuning_sweep("Stream_TRIADD", VariantId::RajaSimGpu, 64, 1, &[64]).unwrap_err();
        assert!(err.contains("Stream_TRIADD"), "{err}");
    }

    #[test]
    fn code_version_carries_version_and_fingerprint() {
        let v = code_version();
        assert!(v.starts_with(env!("CARGO_PKG_VERSION")), "{v}");
        assert!(v.contains('+'), "version+fingerprint format: {v}");
        assert!(!v.ends_with('+'), "fingerprint must be non-empty: {v}");
    }

    #[test]
    // Plain std Mutex is fine here: test-local accumulation, not a checked
    // concurrency protocol.
    #[allow(clippy::disallowed_types)]
    fn progress_observer_sees_every_executed_kernel() {
        use std::sync::Mutex as StdMutex;
        static SEEN: StdMutex<Vec<(String, usize, usize, String)>> = StdMutex::new(Vec::new());
        SEEN.lock().unwrap().clear();
        let observer = |p: &KernelProgress| {
            SEEN.lock()
                .unwrap()
                .push((p.kernel.clone(), p.index, p.total, p.outcome.clone()));
        };
        let report = run_suite_observed(&small_params(), Some(&observer));
        let seen = SEEN.lock().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(report.entries.len(), 3);
        assert!(seen.iter().all(|(_, _, total, _)| *total == 3));
        assert_eq!(
            seen.iter().map(|(_, i, _, _)| *i).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(seen.iter().all(|(_, _, _, o)| o == "PASSED"));
    }

    #[test]
    fn sanitize_pass_reports_clean_and_annotates_profile() {
        let p = RunParams {
            sanitize: true,
            ..small_params()
        };
        let report = run_suite(&p);
        let section = report.sanitize.as_ref().expect("sanitize section present");
        // All three kernels support both simulated-device variants.
        assert_eq!(section.outcomes.len(), 6);
        assert!(section.all_clean(), "{}", section.render());
        assert_eq!(report.profile.global_str("sanitizer"), Some("simsan"));
        assert!(
            report.profile.globals.contains_key("sanitizer_overhead_pct"),
            "overhead metadata recorded"
        );
        let rendered = section.render();
        assert!(rendered.contains("Stream_TRIAD"));
        assert!(rendered.contains("CLEAN"));
    }

    #[test]
    fn sanitize_off_by_default() {
        let report = run_suite(&small_params());
        assert!(report.sanitize.is_none());
    }

    #[test]
    fn with_tag_inserts_variant_before_any_extension() {
        // Regression: the old `.cali.json`-only string replace silently
        // no-opped for every other spec, so all variants clobbered one file.
        // The spec is parsed once by Caliper; the tag goes on the typed path.
        let tagged = |spec: &str, tag: &str| -> String {
            let mut cm = caliper::ConfigManager::new();
            match with_tag(&cm.add(spec).outputs()[0], tag) {
                caliper::OutputSpec::RuntimeReport { output }
                | caliper::OutputSpec::SpotProfile { output }
                | caliper::OutputSpec::Trace { output, .. } => output,
            }
        };
        for (spec, tag, path) in [
            ("spot(output=run.json)", "Base_Seq", "run.Base_Seq.json"),
            ("spot(output=run.cali.json)", "V", "run.V.cali.json"),
            ("runtime-report,output=a.txt,profile", "V", "a.V.txt"),
            ("spot(output=dir.d/run)", "V", "dir.d/run.V"),
            ("spot(output=.hidden)", "V", ".hidden.V"),
            ("runtime-report,output=stdout", "V", "stdout"),
            ("runtime-report", "V", "stderr"),
            ("trace(output=t.json)", "V", "t.V.json"),
        ] {
            assert_eq!(tagged(spec, tag), path, "{spec}");
        }
        // A trace's folded file is a file of the run too.
        let mut cm = caliper::ConfigManager::new();
        cm.add("trace(output=t.json,folded=t.folded)");
        assert_eq!(
            with_tag(&cm.outputs()[0], "V"),
            caliper::OutputSpec::Trace {
                output: "t.V.json".into(),
                folded: Some("t.V.folded".into())
            }
        );
    }

    #[test]
    fn run_variants_writes_one_profile_per_variant() {
        let dir = std::env::temp_dir().join(format!("rajaperf_profiles_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = RunParams {
            selection: Selection::Kernels(vec!["Stream_MUL".into()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            // The clobbering reproducer: a spec whose output is *not*
            // `.cali.json`-suffixed.
            caliper_spec: Some(format!("spot(output={}/run.json)", dir.display())),
            ..RunParams::default()
        };
        let reports = run_variants(&p, &VariantId::all());
        let outputs = reports.iter().flat_map(|r| &r.outputs);
        let mut files: Vec<_> = outputs.map(|w| w.path.clone()).collect();
        assert_eq!(files.len(), 6, "one output per variant");
        files.sort();
        files.dedup();
        assert_eq!(files.len(), 6, "variant profiles must not collide");
        assert!(files.iter().all(|f| f.exists()));
        assert!(files
            .iter()
            .any(|f| f.file_name().is_some_and(|n| n == "run.Base_Seq.json")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_report_falls_back_when_reference_lacks_kernel() {
        // Regression: a kernel absent from the first report used to be a
        // hard FAIL; it must instead anchor to the first variant that ran
        // it and render as n/a.
        let a = run_suite(&RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            ..RunParams::default()
        });
        let b = run_suite(&RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into(), "Stream_ADD".into()]),
            variant: VariantId::RajaSeq,
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            ..RunParams::default()
        });
        let cr = checksum_report(&[a, b]);
        assert!(cr.all_pass(), "{}", cr.render());
        let add_row = &cr.rows["Stream_ADD"];
        assert_eq!(add_row.len(), 1);
        assert_eq!(add_row[0].2, CheckStatus::Reference);
        assert!(cr.render().contains("n/a"));
        // The kernel both reports ran still compares normally.
        assert!(cr.rows["Stream_TRIAD"]
            .iter()
            .all(|(_, _, st)| *st == CheckStatus::Pass));
    }

    #[test]
    fn sweep_emits_one_profile_per_cell_and_caches() {
        let dir = std::env::temp_dir().join(format!("rajaperf_sweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let p = RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            sweep: true,
            sweep_block_sizes: vec![128, 256],
            sweep_dir: Some(dir.clone()),
            ..RunParams::default()
        };
        let s1 = run_sweep(&p).unwrap();
        assert_eq!(s1.cells.len(), 12, "6 variants x 2 block sizes");
        let mut profiles: Vec<_> = s1.cells.iter().map(|c| c.profile.clone()).collect();
        profiles.sort();
        profiles.dedup();
        assert_eq!(profiles.len(), 12, "one distinct profile per cell");
        assert!(s1.cells.iter().all(|c| !c.cached && c.profile.exists()));
        assert!(s1.manifest.exists());
        assert!(s1.render().contains("block_128") || s1.render().contains("128"));

        // An unchanged re-run reuses every finished cell.
        let s2 = run_sweep(&p).unwrap();
        assert!(s2.cells.iter().all(|c| c.cached), "{}", s2.render());

        // Changing anything in the cell key re-executes.
        let p3 = RunParams {
            explicit_size: Some(2000),
            ..p.clone()
        };
        let s3 = run_sweep(&p3).unwrap();
        assert!(s3.cells.iter().all(|c| !c.cached));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sweep_cell_is_keyed_as_the_single_run_it_executes() {
        // Key parity: a cell's cache key is the key text of the cell's own
        // run — the value `rajaperfd` tags with `"kind"` for the same run —
        // whatever the campaign around it looks like.
        let dir = std::env::temp_dir().join(format!("rajaperf_sweep_key_{}", std::process::id()));
        let p = RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
            explicit_size: Some(1000),
            sweep: true,
            sweep_block_sizes: vec![128, 256],
            sweep_dir: Some(dir.clone()),
            ranks: 4,
            max_retries: 3,
            ..RunParams::default()
        };
        let plan = sweep::plan_sweep(&p).unwrap();
        assert_eq!(plan.specs.len(), 12);
        for spec in &plan.specs {
            let own = RunParams {
                selection: p.selection.clone(),
                explicit_size: p.explicit_size,
                variant: spec.variant,
                tuning: kernels::Tuning {
                    gpu_block_size: spec.block_size,
                },
                max_retries: p.max_retries,
                ..RunParams::default()
            };
            assert_eq!(spec.key, record::campaign_key(&own).to_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_cells_from_another_build_are_not_reused() {
        // Regression: the cell key omitted the code version, so cells cached
        // by an older binary were silently reused after a rebuild. Simulate
        // the older binary by doctoring the recorded key's code_version —
        // exactly what a fingerprint change looks like on disk.
        let dir = std::env::temp_dir().join(format!("rajaperf_sweep_fp_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let p = RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            sweep: true,
            sweep_dir: Some(dir.clone()),
            ..RunParams::default()
        };
        let s1 = run_sweep(&p).unwrap();
        assert!(s1.cells.iter().all(|c| !c.cached));

        let cells_dir = dir.join("cells");
        for entry in std::fs::read_dir(&cells_dir).unwrap() {
            let path = entry.unwrap().path();
            let mut v: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let serde_json::Value::Object(obj) = &mut v else {
                panic!("cell record is an object");
            };
            let Some(serde_json::Value::Object(key)) = obj.get_mut("key") else {
                panic!("cell record has an object key");
            };
            let recorded = key.get("code_version").unwrap().as_str().unwrap();
            assert_eq!(recorded, code_version(), "cells record the live build");
            key.insert(
                "code_version".to_string(),
                serde_json::Value::String("0.0.0+older-build".into()),
            );
            std::fs::write(&path, serde_json::to_string_pretty(&v).unwrap()).unwrap();
        }

        // Every cell now claims another build produced it: all must re-run.
        let s2 = run_sweep(&p).unwrap();
        assert!(
            s2.cells.iter().all(|c| !c.cached),
            "stale-build cells must miss, not hit: {}",
            s2.render()
        );
        // And once re-recorded by this build, they hit again.
        let s3 = run_sweep(&p).unwrap();
        assert!(s3.cells.iter().all(|c| c.cached), "{}", s3.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_selection_runs_whole_group() {
        let p = RunParams {
            selection: Selection::Groups(vec!["Stream".into()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            ..RunParams::default()
        };
        let report = run_suite(&p);
        assert_eq!(report.entries.len(), 5, "five Stream kernels");
    }
}
