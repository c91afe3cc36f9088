//! The simulated-hardware analysis pipeline behind the paper's evaluation.
//!
//! Everything here operates at the paper's scale: a constant node-level
//! problem size of 32,000,000 (Table III) decomposed over each machine's
//! rank count, with the per-kernel [`perfmodel::ExecSignature`]s driving
//! the TMA, roofline, and execution-time models. The outputs are the exact
//! data series of Figs. 3–10 and the cluster analysis of §IV.

use kernels::{Group, KernelBase};
use perfmodel::{
    predict_time, roofline_point, tma_breakdown, CacheLevel, Complexity, ExecSignature, Machine,
    MachineId, RooflinePoint, TmaBreakdown,
};
use std::collections::BTreeMap;

/// The paper's per-node problem size (Table III).
pub const NODE_PROBLEM_SIZE: usize = 32_000_000;

/// One kernel's simulated measurements across all four machines.
#[derive(Debug, Clone)]
pub struct KernelSim {
    /// Full kernel name.
    pub name: String,
    /// Group name.
    pub group: String,
    /// Signature at the node problem size.
    pub signature: ExecSignature,
    /// TMA breakdowns on the CPU machines (SPR-DDR, SPR-HBM).
    pub tma: BTreeMap<MachineId, TmaBreakdown>,
    /// Predicted per-rep execution time on each machine, seconds.
    pub time: BTreeMap<MachineId, f64>,
    /// Speedup over SPR-DDR on each machine.
    pub speedup: BTreeMap<MachineId, f64>,
    /// Achieved node bandwidth, B/s, per machine.
    pub bandwidth: BTreeMap<MachineId, f64>,
    /// Achieved node FLOP rate, FLOP/s, per machine.
    pub flops: BTreeMap<MachineId, f64>,
}

impl KernelSim {
    /// The SPR-DDR Memory Bound TMA metric (Fig. 9, leftmost panel).
    pub fn memory_bound_ddr(&self) -> f64 {
        self.tma[&MachineId::SprDdr].memory_bound
    }
}

/// Simulate one kernel across the four machines at the node problem size.
pub fn simulate_kernel(kernel: &dyn KernelBase) -> KernelSim {
    let info = kernel.info();
    let sig = kernel.signature(NODE_PROBLEM_SIZE);
    let mut tma = BTreeMap::new();
    let mut time = BTreeMap::new();
    let mut speedup = BTreeMap::new();
    let mut bandwidth = BTreeMap::new();
    let mut flops = BTreeMap::new();
    let baseline = Machine::get(MachineId::SprDdr);
    let t0 = predict_time(&baseline, &sig).total_s;
    for id in MachineId::all() {
        let m = Machine::get(id);
        let t = predict_time(&m, &sig);
        time.insert(id, t.total_s);
        speedup.insert(id, if t.total_s > 0.0 { t0 / t.total_s } else { 0.0 });
        bandwidth.insert(id, perfmodel::predict::achieved_bandwidth(&m, &sig, &t));
        flops.insert(id, perfmodel::predict::achieved_flops(&m, &sig, &t));
        if m.kind == perfmodel::MachineKind::Cpu {
            tma.insert(id, tma_breakdown(&m, &sig));
        }
    }
    KernelSim {
        name: info.name.to_string(),
        group: info.group.name().to_string(),
        signature: sig,
        tma,
        time,
        speedup,
        bandwidth,
        flops,
    }
}

/// Simulate the whole suite.
pub fn simulate_all() -> Vec<KernelSim> {
    kernels::registry()
        .iter()
        .map(|k| simulate_kernel(k.as_ref()))
        .collect()
}

/// Whether a kernel enters the cross-architecture comparison of §IV.
///
/// The paper excludes 12 of 75 kernels whose decomposition makes the work
/// incomparable across rank counts: the Comm kernels and every kernel with
/// complexity other than O(N).
fn in_comparison(kernel: &dyn KernelBase) -> bool {
    let info = kernel.info();
    info.group != Group::Comm && info.complexity == Complexity::N
}

/// Simulate only the comparison kernels (the clustering population).
pub fn simulate_comparison() -> Vec<KernelSim> {
    kernels::registry()
        .iter()
        .filter(|k| in_comparison(k.as_ref()))
        .map(|k| simulate_kernel(k.as_ref()))
        .collect()
}

/// The five-component TMA tuple used for clustering (§IV): SPR-DDR
/// `[frontend, bad_speculation, retiring, core, memory]`.
pub fn cluster_tuple(sim: &KernelSim) -> Vec<f64> {
    sim.tma[&MachineId::SprDdr].tuple().to_vec()
}

/// The §IV clustering: Ward linkage over the SPR-DDR TMA tuples, cut to
/// yield (at most) `target_clusters` flat clusters.
pub struct ClusterAnalysis {
    /// Simulated kernels in clustering order.
    pub sims: Vec<KernelSim>,
    /// The linkage tree.
    pub linkage: hierclust::LinkageResult,
    /// The distance threshold used for the flat cut.
    pub threshold: f64,
    /// Flat cluster label per kernel.
    pub labels: Vec<usize>,
}

impl ClusterAnalysis {
    /// Run the paper's clustering (4 clusters, as Fig. 6/7).
    pub fn run(target_clusters: usize) -> ClusterAnalysis {
        let sims = simulate_comparison();
        let points: Vec<Vec<f64>> = sims.iter().map(cluster_tuple).collect();
        let linkage = hierclust::linkage(&points, hierclust::Linkage::Ward);
        let threshold = linkage.threshold_for_clusters(target_clusters);
        let labels = linkage.fcluster(threshold);
        ClusterAnalysis {
            sims,
            linkage,
            threshold,
            labels,
        }
    }

    /// Number of flat clusters.
    pub fn num_clusters(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Silhouette-guided cluster-count selection over `kmin..=kmax`,
    /// quantifying the paper's by-inspection threshold choice. Does not
    /// change `labels`/`threshold`; callers report it as an annotation.
    pub fn silhouette_selection(&self, kmin: usize, kmax: usize) -> hierclust::KSelection {
        let points: Vec<Vec<f64>> = self.sims.iter().map(cluster_tuple).collect();
        hierclust::select_clusters(&points, &self.linkage, kmin, kmax)
    }

    /// Mean TMA tuple per cluster (Fig. 7 middle table, first five columns).
    pub fn cluster_tma_means(&self) -> Vec<[f64; 5]> {
        let k = self.num_clusters();
        let mut sums = vec![[0.0f64; 5]; k];
        let mut counts = vec![0usize; k];
        for (sim, &label) in self.sims.iter().zip(&self.labels) {
            let t = self.sims_tuple(sim);
            for (s, v) in sums[label].iter_mut().zip(t) {
                *s += v;
            }
            counts[label] += 1;
        }
        for (s, &c) in sums.iter_mut().zip(&counts) {
            if c > 0 {
                for v in s.iter_mut() {
                    *v /= c as f64;
                }
            }
        }
        sums
    }

    fn sims_tuple(&self, sim: &KernelSim) -> [f64; 5] {
        sim.tma[&MachineId::SprDdr].tuple()
    }

    /// Mean speedup per cluster on a machine (Fig. 7 rightmost columns).
    pub fn cluster_speedup_means(&self, machine: MachineId) -> Vec<f64> {
        let k = self.num_clusters();
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (sim, &label) in self.sims.iter().zip(&self.labels) {
            sums[label] += sim.speedup[&machine];
            counts[label] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }

    /// Per-cluster membership counts by group (Fig. 7 top table).
    pub fn group_distribution(&self) -> BTreeMap<String, Vec<usize>> {
        let k = self.num_clusters();
        let mut dist: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (sim, &label) in self.sims.iter().zip(&self.labels) {
            dist.entry(sim.group.clone())
                .or_insert_with(|| vec![0; k])[label] += 1;
        }
        dist
    }

    /// Index of the most memory-bound cluster (the paper's Cluster 2).
    pub fn most_memory_bound_cluster(&self) -> usize {
        self.cluster_tma_means()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1[4].total_cmp(&b.1[4]))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Index of the most core-bound cluster (the paper's Cluster 3).
    pub fn most_core_bound_cluster(&self) -> usize {
        self.cluster_tma_means()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1[3].total_cmp(&b.1[3]))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Roofline points for every kernel at each cache level on a GPU machine
/// (Fig. 5).
pub fn roofline_all(machine: MachineId) -> Vec<(String, String, [RooflinePoint; 3])> {
    let m = Machine::get(machine);
    kernels::registry()
        .iter()
        .map(|k| {
            let info = k.info();
            let sig = k.signature(NODE_PROBLEM_SIZE);
            (
                info.name.to_string(),
                info.group.name().to_string(),
                [
                    roofline_point(&m, &sig, CacheLevel::L1),
                    roofline_point(&m, &sig, CacheLevel::L2),
                    roofline_point(&m, &sig, CacheLevel::Hbm),
                ],
            )
        })
        .collect()
}

/// Write the simulated measurements as Caliper-style profiles, one per
/// machine, for consumption by `thicket` (the §II-D pipeline end-to-end).
pub fn write_simulated_profiles(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for id in MachineId::all() {
        let m = Machine::get(id);
        let session = caliper::Session::new();
        session.set_global("machine", m.id.shorthand());
        session.set_global("variant", m.variant);
        session.set_global("ranks", m.ranks as i64);
        session.set_global("problem_size", NODE_PROBLEM_SIZE as i64);
        {
            let _root = session.region("RAJAPerf");
            for k in kernels::registry() {
                let info = k.info();
                let sig = k.signature(NODE_PROBLEM_SIZE);
                let t = predict_time(&m, &sig);
                let _g = session.region(info.group.name());
                let r = session.region(info.name);
                session.set_metric("PredictedTime/Rep", t.total_s);
                session.set_metric("Bytes/Rep", sig.bytes_total());
                session.set_metric("Flops/Rep", sig.flops);
                if m.kind == perfmodel::MachineKind::Cpu {
                    let tma = tma_breakdown(&m, &sig);
                    session.set_metric("tma.frontend_bound", tma.frontend_bound);
                    session.set_metric("tma.bad_speculation", tma.bad_speculation);
                    session.set_metric("tma.retiring", tma.retiring);
                    session.set_metric("tma.core_bound", tma.core_bound);
                    session.set_metric("tma.memory_bound", tma.memory_bound);
                } else {
                    for level in CacheLevel::all() {
                        let p = roofline_point(&m, &sig, level);
                        session.set_metric(
                            &format!("roofline.{}.intensity", level.name()),
                            p.intensity,
                        );
                        session
                            .set_metric(&format!("roofline.{}.gips", level.name()), p.warp_gips);
                    }
                }
                r.end();
            }
        }
        let path = dir.join(format!("sim_{}.cali.json", m.id.shorthand()));
        session.profile().write_file(&path)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_excludes_twelve_of_seventy_six() {
        let total = kernels::registry().len();
        let kept = kernels::registry()
            .iter()
            .filter(|k| in_comparison(k.as_ref()))
            .count();
        // Paper: 12 of 75 excluded. Our Table I census has 76 kernels; the
        // same rule (Comm + non-O(N)) excludes 12.
        assert_eq!(total, 76);
        assert_eq!(total - kept, 12, "excluded {}", total - kept);
    }

    #[test]
    fn triad_simulation_matches_machine_ceilings() {
        let k = kernels::find("Stream_TRIAD").unwrap();
        let sim = simulate_kernel(k);
        let hbm = Machine::get(MachineId::SprHbm);
        let bw = sim.bandwidth[&MachineId::SprHbm];
        assert!(
            (bw / hbm.achieved_bw_node - 1.0).abs() < 0.1,
            "TRIAD bandwidth {bw:e}"
        );
        assert!(sim.speedup[&MachineId::SprDdr] == 1.0);
        assert!(sim.speedup[&MachineId::EpycMi250x] > 15.0);
    }

    #[test]
    fn clustering_produces_four_clusters() {
        let ca = ClusterAnalysis::run(4);
        assert_eq!(ca.num_clusters(), 4);
        assert_eq!(ca.labels.len(), ca.sims.len());
        let means = ca.cluster_tma_means();
        for m in &means {
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 0.05, "cluster mean tuple sums to ~1");
        }
    }

    #[test]
    fn memory_bound_cluster_has_highest_speedups() {
        // The paper's headline result: the most memory-bound cluster gains
        // the most on the higher-bandwidth machines. On the V100 the
        // retiring-bound cluster contains the paper's own exception
        // kernels (INIT_VIEW1D, NESTED_INIT, MEMSET "perform better on the
        // P9-V100 even though they do not exhibit memory constraints",
        // §V-B), so there we require the memory cluster to be within 10%
        // of the best mean rather than strictly first.
        let ca = ClusterAnalysis::run(4);
        let mem = ca.most_memory_bound_cluster();
        for machine in [MachineId::SprHbm, MachineId::EpycMi250x] {
            let speedups = ca.cluster_speedup_means(machine);
            let best = speedups
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(
                best, mem,
                "{machine:?}: memory-bound cluster should lead, speedups {speedups:?}"
            );
        }
        let v100 = ca.cluster_speedup_means(MachineId::P9V100);
        let best = v100.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            v100[mem] > 0.9 * best,
            "V100: memory cluster {} vs best {best}",
            v100[mem]
        );
    }

    #[test]
    fn least_memory_bound_clusters_gain_least_on_hbm() {
        // Fig. 8's other end: clusters that are not memory bound see no
        // benefit from the bandwidth-only upgrade (means ≤ ~1).
        let ca = ClusterAnalysis::run(4);
        let means = ca.cluster_tma_means();
        let hbm = ca.cluster_speedup_means(MachineId::SprHbm);
        for (i, m) in means.iter().enumerate() {
            if m[4] < 0.2 {
                assert!(hbm[i] < 1.2, "cluster {i} mem {:.2} hbm {:.2}", m[4], hbm[i]);
            }
        }
    }

    #[test]
    fn stream_kernels_land_in_the_memory_bound_cluster() {
        // Fig. 7: four of the five Stream kernels are in the most
        // memory-bound cluster; DOT (the dependent-accumulation reduction)
        // is the one the paper places elsewhere.
        let ca = ClusterAnalysis::run(4);
        let mem = ca.most_memory_bound_cluster();
        for (sim, &label) in ca.sims.iter().zip(&ca.labels) {
            if sim.group == "Stream" && sim.name != "Stream_DOT" {
                assert_eq!(label, mem, "{} in cluster {label}", sim.name);
            }
        }
    }

    #[test]
    fn simulated_profiles_roundtrip_through_thicket() {
        let dir = std::env::temp_dir().join("rajaperf_sim_profiles_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_simulated_profiles(&dir).unwrap();
        assert_eq!(paths.len(), 4);
        let profiles: Vec<thicket::ProfileData> = paths
            .iter()
            .map(|p| thicket::ProfileData::read_file(p).unwrap())
            .collect();
        let t = thicket::Thicket::from_profiles(&profiles);
        assert_eq!(t.profiles.len(), 4);
        let nid = t.node_by_name("Stream_TRIAD").unwrap();
        // TMA metrics exist only for the CPU machines' profiles.
        let vals = t.node_values("tma.memory_bound", nid);
        assert_eq!(vals.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roofline_points_exist_for_all_kernels() {
        let points = roofline_all(MachineId::P9V100);
        assert_eq!(points.len(), 76);
        for (name, _, levels) in &points {
            for p in levels {
                assert!(p.warp_gips >= 0.0, "{name}");
                assert!(p.intensity >= 0.0, "{name}");
            }
        }
    }
}
