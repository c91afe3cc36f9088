//! End-to-end integration: the full paper pipeline across crates —
//! run kernels → Caliper profiles → Thicket composition → clustering →
//! the headline conclusions.

use rajaperf::prelude::*;
use suite::simulate::{self, ClusterAnalysis};

#[test]
fn suite_run_to_thicket_pipeline() {
    let dir = std::env::temp_dir().join("rajaperf_e2e_pipeline");
    let _ = std::fs::remove_dir_all(&dir);

    // Run a slice of the suite under three variants, one profile each.
    let base = RunParams {
        selection: Selection::Kernels(vec![
            "Stream_TRIAD".into(),
            "Basic_DAXPY".into(),
            "Lcals_HYDRO_1D".into(),
            "Apps_PRESSURE".into(),
        ]),
        explicit_size: Some(5_000),
        explicit_reps: Some(2),
        caliper_spec: Some(format!("spot(output={}/run.cali.json)", dir.display())),
        ..RunParams::default()
    };
    let variants = [VariantId::BaseSeq, VariantId::RajaSeq, VariantId::RajaPar];
    let reports = suite::run_variants(&base, &variants);
    assert_eq!(reports.len(), 3);
    assert!(suite::checksum_report(&reports).all_pass());

    // Every run produced a profile file; Thicket composes them.
    let paths: Vec<_> = reports.iter().flat_map(|r| r.outputs.clone()).collect();
    assert_eq!(paths.len(), 3);
    let profiles: Vec<thicket::ProfileData> = paths
        .iter()
        .map(|p| thicket::ProfileData::read_file(p).unwrap())
        .collect();
    let tk = thicket::Thicket::from_profiles(&profiles);
    assert_eq!(tk.profiles.len(), 3);

    // Group by variant metadata — one group per variant, as in the paper's
    // composition workflow.
    let groups = tk.groupby("variant");
    assert_eq!(groups.len(), 3);
    for (name, sub) in &groups {
        assert_eq!(sub.profiles.len(), 1, "variant {name}");
        let nid = sub.node_by_name("Stream_TRIAD").expect("TRIAD node");
        let vals = sub.node_values("Time/Rep", nid);
        assert_eq!(vals.len(), 1);
        assert!(vals[0].1 > 0.0);
    }

    // Statsframe aggregation across the three runs.
    let mut tk = tk;
    let col = tk.stats("Time/Rep", thicket::Stat::Mean);
    let nid = tk.node_by_name("Stream_TRIAD").unwrap();
    assert!(tk.stat_value(&col, nid).unwrap() > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clustering_reproduces_the_papers_structure() {
    let ca = ClusterAnalysis::run(4);
    assert_eq!(ca.num_clusters(), 4, "the paper identifies four clusters");

    // One cluster is strongly memory bound (paper: 0.8812), one moderately
    // (0.5279), one retiring/frontend (0.7169 retiring), one core bound
    // (0.5358 core).
    let means = ca.cluster_tma_means();
    let max_mem = means.iter().map(|m| m[4]).fold(f64::MIN, f64::max);
    assert!(max_mem > 0.8, "most memory-bound cluster mean {max_mem}");
    let max_core = means.iter().map(|m| m[3]).fold(f64::MIN, f64::max);
    assert!(max_core > 0.35, "core-bound cluster mean {max_core}");
    let max_ret = means.iter().map(|m| m[2]).fold(f64::MIN, f64::max);
    assert!(max_ret > 0.7, "retiring cluster mean {max_ret}");

    // Speedup ordering between the memory clusters follows memory
    // boundness on every bandwidth-upgraded machine.
    let mem_order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..4).collect();
        idx.sort_by(|&a, &b| means[b][4].total_cmp(&means[a][4]));
        idx
    };
    for machine in [MachineId::SprHbm, MachineId::EpycMi250x] {
        let sp = ca.cluster_speedup_means(machine);
        assert!(
            sp[mem_order[0]] > sp[mem_order[3]],
            "{machine:?}: most memory bound ({}) must beat least memory bound ({})",
            sp[mem_order[0]],
            sp[mem_order[3]]
        );
    }
}

#[test]
fn simulated_profiles_feed_thicket_per_machine() {
    let dir = std::env::temp_dir().join("rajaperf_e2e_sim");
    let _ = std::fs::remove_dir_all(&dir);
    let paths = simulate::write_simulated_profiles(&dir).unwrap();
    assert_eq!(paths.len(), 4, "one profile per machine");
    let profiles: Vec<thicket::ProfileData> = paths
        .iter()
        .map(|p| thicket::ProfileData::read_file(p).unwrap())
        .collect();
    let tk = thicket::Thicket::from_profiles(&profiles);
    let by_machine = tk.groupby("machine");
    assert_eq!(by_machine.len(), 4);
    // The CPU machines carry TMA columns, the GPU machines roofline ones.
    for (name, sub) in by_machine {
        let nid = sub.node_by_name("Stream_TRIAD").unwrap();
        let pid = sub.profiles[0];
        match name.as_str() {
            "SPR-DDR" | "SPR-HBM" => {
                assert!(sub.value("tma.memory_bound", nid, pid).unwrap() > 0.5);
                assert!(sub.value("roofline.L1.gips", nid, pid).is_none());
            }
            _ => {
                assert!(sub.value("roofline.HBM.gips", nid, pid).unwrap() > 0.0);
                assert!(sub.value("tma.memory_bound", nid, pid).is_none());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headline_result_memory_bound_kernels_gain_most_from_hbm() {
    // The paper's abstract: "the most memory bound kernels show the most
    // performance gains on architectures with high-bandwidth memory".
    // Verify at kernel granularity: rank-correlate memory-boundness with
    // HBM speedup across the comparison kernels.
    let sims = simulate::simulate_comparison();
    let mut pairs: Vec<(f64, f64)> = sims
        .iter()
        .map(|s| (s.memory_bound_ddr(), s.speedup[&MachineId::SprHbm]))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let third = pairs.len() / 3;
    let low_mean: f64 = pairs[..third].iter().map(|p| p.1).sum::<f64>() / third as f64;
    let high_mean: f64 =
        pairs[pairs.len() - third..].iter().map(|p| p.1).sum::<f64>() / third as f64;
    assert!(
        high_mean > 1.4 * low_mean,
        "top-third memory-bound kernels gain {high_mean:.2}x vs bottom third {low_mean:.2}x"
    );
}

#[test]
fn raja_variants_match_base_variants_across_the_whole_suite() {
    // Cross-crate correctness sweep: every kernel, RAJA_Seq vs Base_Seq at
    // a reduced size.
    let tuning = Tuning::default();
    for kernel in kernels::registry() {
        let info = kernel.info();
        let n = (info.default_size / 50).max(1500);
        let base = kernel.execute(VariantId::BaseSeq, n, 1, &tuning);
        let raja = kernel.execute(VariantId::RajaSeq, n, 1, &tuning);
        assert!(
            kernels::common::close(base.checksum, raja.checksum, 1e-8),
            "{}: base {} vs raja {}",
            info.name,
            base.checksum,
            raja.checksum
        );
    }
}

/// The campaign engine runs under tier-1: a `ranks: 2` sweep (thread
/// carrier — no worker binary needed) gathers into the `ranks: 1` manifest.
#[test]
fn ranked_sweep_gathers_into_the_single_rank_manifest() {
    let root = std::env::temp_dir().join(format!("rajaperf_e2e_ranked_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let sweep = |tag: &str, ranks: usize| {
        let summary = suite::run_sweep(&RunParams {
            selection: Selection::Kernels(vec!["Basic_DAXPY".into()]),
            explicit_size: Some(1_000),
            explicit_reps: Some(1),
            sweep: true,
            sweep_dir: Some(root.join(tag).join("sweep")),
            ranks,
            ..RunParams::default()
        })
        .expect("sweep succeeds");
        // Profile paths embed the sweep dir; compare modulo the per-run tag.
        let manifest = std::fs::read_to_string(&summary.manifest).unwrap();
        (summary, manifest.replace(&format!("/{tag}/"), "/"))
    };
    let (single, reference) = sweep("r1", 1);
    let (ranked, gathered) = sweep("r2", 2);
    assert!(single.rank_stats.is_empty());
    assert_eq!(ranked.rank_stats.len(), 2);
    assert!(ranked.cells.iter().all(|c| matches!(c.executed_by, Some(r) if r < 2)));
    assert_eq!(gathered, reference, "ranks: 2 must gather into the ranks: 1 manifest");
    let _ = std::fs::remove_dir_all(&root);
}

// A path the command line names stays a path to the end: one made of the
// characters Caliper's spec grammar splits at is never re-parsed as spec
// text. Each of the three tests below failed before outputs were typed.

/// One small run's command line plus `extra`, parsed.
fn daxpy(extra: &[&str]) -> Result<RunParams, String> {
    let run = ["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "1"];
    let argv: Vec<String> = run.iter().chain(extra).map(|s| s.to_string()).collect();
    RunParams::parse(&argv)
}

/// A fresh scratch directory, and a sorted listing of one.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
fn names_in(dir: &std::path::Path) -> Vec<std::ffi::OsString> {
    let mut names: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    names.sort();
    names
}

#[test]
fn a_sweep_into_a_directory_named_like_spec_text_keeps_its_profiles() {
    // Six profiles where the manifest says they are, nothing beside the
    // sweep directory, and all six reused by a second run.
    let root = scratch("sweep_path");
    let dir = root.join("sw,eep (1)=x");
    let sweep = daxpy(&["--sweep", "--sweep-dir", dir.to_str().unwrap()]).unwrap();
    let cold = suite::run_sweep(&sweep).expect("cold sweep");
    assert_eq!(names_in(&dir.join("profiles")).len(), 6);
    assert_eq!(names_in(&root), ["sw,eep (1)=x"]);
    assert!(cold.cells.iter().all(|c| !c.cached));
    let manifest = std::fs::read_to_string(&cold.manifest).unwrap();
    let manifest: serde_json::Value = serde_json::from_str(&manifest).unwrap();
    for cell in manifest["cells"].as_array().unwrap() {
        let profile = cell["profile"].as_str().unwrap();
        assert!(std::path::Path::new(profile).is_file(), "{profile}");
    }
    let warm = suite::run_sweep(&sweep).expect("warm sweep");
    assert!(warm.render().contains("(6 cached"), "{}", warm.render());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn trace_files_named_like_spec_text_are_the_two_files_written() {
    let out = scratch("trace_path");
    let (trace, folded) = (out.join("tr,ace.json"), out.join("f(1).txt"));
    let names = [trace.to_str().unwrap(), folded.to_str().unwrap()];
    let traced = daxpy(&["--trace", names[0], "--trace-folded", names[1]]).unwrap();
    let report = suite::run_suite(&traced);
    assert_eq!(report.outputs, [trace, folded]);
    assert_eq!(names_in(&out), ["f(1).txt", "tr,ace.json"]);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_caliper_spec_naming_no_service_is_refused_at_the_door() {
    // A usage error (exit 2 from the binary) before any kernel runs, not one
    // warning after the whole suite and no profile.
    let err = daxpy(&["--caliper", "sp0t(output=x.json)"]).unwrap_err();
    assert!(err.contains("--caliper") && err.contains("sp0t"), "{err}");
}

// One profile per run, handled once: the profile a run reports is the one it
// wrote, and the writer (`caliper`) and the analysis-side reader (`thicket`,
// which does not link `caliper`) agree on the `.cali.json` field names.

#[test]
fn a_run_writes_the_profile_it_reports() {
    let out = scratch("built_once");
    let path = out.join("run.cali.json");
    let spec = format!("spot(output={})", path.display());
    let report = suite::run_suite(&daxpy(&["--caliper", &spec]).unwrap());
    assert_eq!(report.outputs, std::slice::from_ref(&path));
    // Built once: equal as data and as bytes — not a second build made a
    // moment later, whose globals could already differ.
    assert_eq!(caliper::Profile::read_file(&path).unwrap(), report.profile);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), report.profile.to_json());
    let _ = std::fs::remove_dir_all(&out);
}

/// A non-finite metric (a flipped bit in a checksum) has no JSON number: the
/// writer spells it `null`, and both of `thicket`'s readers take that as a
/// cell the run did not observe — the profile and its other cells are kept.
#[test]
fn a_non_finite_metric_is_an_unobserved_cell_not_a_lost_profile() {
    let session = caliper::Session::new();
    {
        let _suite = session.region("RAJAPerf");
        let _kernel = session.region("Stream_TRIAD");
        session.set_metric("x", f64::NAN);
        session.set_metric("Bytes/Rep", 3.0e6);
    }
    let text = session.profile().to_json();
    assert!(text.contains("\"x\": null"), "{text}");

    let tree = serde_json::from_str(&text).unwrap();
    let mut by_text = thicket::IngestSession::new();
    by_text.ingest_json(&text).unwrap();
    for t in [
        thicket::Thicket::from_profiles(&[thicket::ProfileData::from_caliper_json(&text).unwrap()]),
        thicket::Thicket::from_profiles(&[thicket::ProfileData::from_caliper_value(&tree).unwrap()]),
        by_text.finish(),
    ] {
        assert_eq!(t.profiles, [0]);
        let kernel = t.node_by_name("Stream_TRIAD").unwrap();
        assert_eq!(t.value("x", kernel, 0), None);
        assert_eq!(t.value("Bytes/Rep", kernel, 0), Some(3.0e6));
        assert!(!t.column_names().contains(&"x"), "no cell, so no column");
    }
}

#[test]
fn thicket_reads_what_caliper_writes() {
    let out = scratch("writer_reader");
    let path = out.join("tie.cali.json");
    let mut profile = suite::run_suite(&daxpy(&["--variant", "RAJA_SimGpu"]).unwrap()).profile;
    profile.globals.insert("note".into(), serde_json::json!("é \"quoted\"\n"));
    profile.write_file(&path).unwrap();
    let written = caliper::Profile::read_file(&path).unwrap();
    assert_eq!(written, profile);
    // Fails if either side renames `globals`, `records`, `path` or `metrics`.
    let read = thicket::ProfileData::read_file(&path).unwrap();
    assert_eq!(read.globals, written.globals);
    let records: Vec<_> = written.records.into_iter().map(|r| (r.path, r.metrics)).collect();
    assert!(records.len() >= 3, "suite, group and kernel regions");
    assert_eq!(read.records, records);
    let _ = std::fs::remove_dir_all(&out);
}
