//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates.

use proptest::prelude::*;
use raja::policy::{ParExec, SeqExec, SimGpuExec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exclusive scan under every policy equals the sequential fold.
    #[test]
    fn scan_matches_reference(data in prop::collection::vec(-1e6f64..1e6, 0..2000)) {
        let n = data.len();
        let mut reference = vec![0.0; n];
        let mut acc = 0.0;
        for (r, &v) in reference.iter_mut().zip(&data) {
            *r = acc;
            acc += v;
        }
        let mut out = vec![0.0; n];
        raja::scan::exclusive_scan::<ParExec>(0..n, &mut out, |i| data[i]);
        for (a, b) in out.iter().zip(&reference) {
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
        }
        let mut out = vec![0.0; n];
        raja::scan::exclusive_scan::<SimGpuExec<64>>(0..n, &mut out, |i| data[i]);
        for (a, b) in out.iter().zip(&reference) {
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Sorting produces an ordered permutation under every policy.
    #[test]
    fn sort_is_an_ordered_permutation(data in prop::collection::vec(-1e9f64..1e9, 0..1500)) {
        let mut expected = data.clone();
        expected.sort_unstable_by(f64::total_cmp);
        for policy in 0..3 {
            let mut v = data.clone();
            match policy {
                0 => raja::sort::sort::<SeqExec>(&mut v),
                1 => raja::sort::sort::<ParExec>(&mut v),
                _ => raja::sort::sort::<SimGpuExec<128>>(&mut v),
            }
            prop_assert_eq!(&v, &expected, "policy {}", policy);
        }
    }

    /// sort_pairs keeps every (key, value) pair intact.
    #[test]
    fn sort_pairs_preserves_pairing(data in prop::collection::vec(-1e6f64..1e6, 1..800)) {
        let n = data.len();
        let mut keys = data.clone();
        let mut vals: Vec<i32> = (0..n as i32).collect();
        raja::sort::sort_pairs::<SimGpuExec<64>>(&mut keys, &mut vals);
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        for (k, v) in keys.iter().zip(&vals) {
            prop_assert_eq!(data[*v as usize], *k);
        }
    }

    /// Reductions are order-insensitive up to FP tolerance.
    #[test]
    fn reduce_sum_policy_equivalence(data in prop::collection::vec(-1e3f64..1e3, 0..3000)) {
        let n = data.len();
        let seq = raja::reduce::reduce_sum::<SeqExec, f64>(0..n, |i| data[i]);
        let par = raja::reduce::reduce_sum::<ParExec, f64>(0..n, |i| data[i]);
        let gpu = raja::reduce::reduce_sum::<SimGpuExec<32>, f64>(0..n, |i| data[i]);
        prop_assert!((seq - par).abs() <= 1e-7 * (1.0 + seq.abs()));
        prop_assert!((seq - gpu).abs() <= 1e-7 * (1.0 + seq.abs()));
    }

    /// Permuted layouts are bijections onto the buffer.
    #[test]
    fn layouts_are_bijections(
        e0 in 1usize..12, e1 in 1usize..12, e2 in 1usize..12, perm_idx in 0usize..6,
    ) {
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let layout = raja::views::Layout::permuted([e0, e1, e2], perms[perm_idx]);
        let mut seen = vec![false; e0 * e1 * e2];
        for i in 0..e0 {
            for j in 0..e1 {
                for k in 0..e2 {
                    let lin = layout.index([i as isize, j as isize, k as isize]);
                    prop_assert!(!seen[lin]);
                    seen[lin] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// TMA breakdowns live on the 4-simplex for arbitrary signatures.
    #[test]
    fn tma_fractions_form_a_simplex(
        flops in 0.0f64..1e9,
        bytes_read in 0.0f64..1e9,
        bytes_written in 0.0f64..1e9,
        reuse in 0.0f64..0.99,
        icache in 0.0f64..0.9,
        atomics in 0.0f64..1e6,
        eff in 0.01f64..1.2,
    ) {
        let mut sig = perfmodel::ExecSignature::streaming("prop", 1_000_000);
        sig.flops = flops;
        sig.bytes_read = bytes_read;
        sig.bytes_written = bytes_written;
        sig.cache_reuse = reuse;
        sig.icache_pressure = icache;
        sig.atomics = atomics;
        sig.flop_efficiency = eff;
        for id in [perfmodel::MachineId::SprDdr, perfmodel::MachineId::SprHbm] {
            let m = perfmodel::Machine::get(id);
            let t = perfmodel::tma_breakdown(&m, &sig);
            prop_assert!((t.sum() - 1.0).abs() < 1e-9, "{:?}", t);
            for v in t.tuple() {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "{:?}", t);
            }
        }
    }

    /// Predicted time decomposes into nonnegative parts and never beats
    /// its own bottleneck terms.
    #[test]
    fn predicted_time_is_consistent(
        flops in 1.0f64..1e12,
        bytes in 1.0f64..1e12,
        launches in 0.0f64..200.0,
    ) {
        let mut sig = perfmodel::ExecSignature::streaming("prop", 32_000_000);
        sig.flops = flops;
        sig.bytes_read = bytes;
        sig.kernel_launches = launches;
        for id in perfmodel::MachineId::all() {
            let m = perfmodel::Machine::get(id);
            let t = perfmodel::predict_time(&m, &sig);
            prop_assert!(t.total_s > 0.0);
            prop_assert!(t.total_s + 1e-15 >= t.mem_s.max(t.flop_s).max(t.issue_s));
            prop_assert!(t.launch_s >= 0.0 && t.mpi_s >= 0.0);
        }
    }

    /// More bandwidth never hurts a kernel (HBM ≥ some fraction of DDR).
    #[test]
    fn bandwidth_upgrades_never_catastrophically_regress(
        flops in 0.0f64..1e10,
        bytes in 1.0f64..1e10,
        reuse in 0.0f64..0.9,
    ) {
        let mut sig = perfmodel::ExecSignature::streaming("prop", 32_000_000);
        sig.flops = flops;
        sig.bytes_read = bytes;
        sig.cache_reuse = reuse;
        let ddr = perfmodel::Machine::get(perfmodel::MachineId::SprDdr);
        let hbm = perfmodel::Machine::get(perfmodel::MachineId::SprHbm);
        let s = perfmodel::speedup(&ddr, &hbm, &sig);
        // HBM has slightly lower sustained FLOPS (0.7 vs 0.8 TF), so pure
        // compute kernels may dip to ~0.87 — never further.
        prop_assert!(s > 0.8, "HBM speedup {s}");
    }

    /// Ward clustering: merge heights are monotone and fcluster respects
    /// the threshold semantics for random point sets.
    #[test]
    fn ward_heights_monotone(points in prop::collection::vec(
        prop::collection::vec(0.0f64..10.0, 3..4), 2..25,
    )) {
        let l = hierclust::linkage(&points, hierclust::Linkage::Ward);
        for w in l.merges.windows(2) {
            prop_assert!(w[1].distance >= w[0].distance - 1e-9);
        }
        prop_assert_eq!(l.fcluster(-1.0).len(), points.len());
        prop_assert_eq!(l.num_clusters(f64::INFINITY), 1);
    }

    /// Checksums are permutation-sensitive but deterministic.
    #[test]
    fn checksum_is_deterministic(data in prop::collection::vec(-1e3f64..1e3, 1..500)) {
        let a = kernels::common::checksum(&data);
        let b = kernels::common::checksum(&data);
        prop_assert_eq!(a, b);
    }
}

/// Thicket groupby partitions profiles exactly (non-proptest: structured
/// fixture).
#[test]
fn thicket_groupby_partitions() {
    let mk = |variant: &str| {
        let mut globals = std::collections::BTreeMap::new();
        globals.insert("variant".to_string(), serde_json::json!(variant));
        thicket::ProfileData {
            globals,
            records: vec![(vec!["k".into()], std::collections::BTreeMap::new())],
        }
    };
    let tk = thicket::Thicket::from_profiles(&[mk("a"), mk("b"), mk("a"), mk("c")]);
    let groups = tk.groupby("variant");
    let total: usize = groups.iter().map(|(_, g)| g.profiles.len()).sum();
    assert_eq!(total, 4, "groupby partitions every profile");
    assert_eq!(groups.len(), 3);
}

/// The performance model obeys its own physics on the kernels' *real*
/// signatures (not the synthetic ones above): over all 76 kernels × 4
/// machines × five sizes from 10³ to 6.4·10⁷, predicted time is finite,
/// positive and non-decreasing in n; on the CPU machines the TMA fractions
/// lie on the simplex and SPR-HBM never loses to SPR-DDR beyond the
/// documented 0.87 FLOPS dip; on the GPU machines no roofline point exceeds
/// its instruction or transaction ceiling.
#[test]
fn model_obeys_its_physics_on_every_real_signature() {
    use perfmodel::{roofline, CacheLevel, Machine, MachineId, MachineKind};
    const SIZES: [usize; 5] = [1_000, 32_000, 1_000_000, 32_000_000, 64_000_000];
    for id in MachineId::all() {
        let m = Machine::get(id);
        for k in kernels::registry() {
            let name = k.info().name;
            let mut previous = 0.0;
            for n in SIZES {
                let sig = k.signature(n);
                let at = format!("{name} on {} at n={n}", id.shorthand());
                let t = perfmodel::predict_time(&m, &sig).total_s;
                assert!(t.is_finite() && t > 0.0, "{at}: time {t}");
                assert!(t >= previous, "{at}: time {t} < {previous} at the size below");
                previous = t;
                if id == MachineId::SprHbm {
                    // More bandwidth never predicts slower, beyond the dip
                    // HBM's lower sustained FLOPS allows compute kernels.
                    let ddr = Machine::get(MachineId::SprDdr);
                    let gain = perfmodel::speedup(&ddr, &m, &sig);
                    assert!(gain > 0.8, "{at}: HBM speedup {gain}");
                }
                if m.kind == MachineKind::Cpu {
                    let tma = perfmodel::tma_breakdown(&m, &sig);
                    assert!((tma.sum() - 1.0).abs() < 1e-9, "{at}: {tma:?}");
                    assert!(tma.tuple().iter().all(|f| (0.0..=1.0).contains(f)), "{at}: {tma:?}");
                    continue;
                }
                let c = roofline::ceilings(&m);
                for (level, roof) in [
                    (CacheLevel::L1, c.l1_gtxn_s),
                    (CacheLevel::L2, c.l2_gtxn_s),
                    (CacheLevel::Hbm, c.hbm_gtxn_s),
                ] {
                    let p = roofline::roofline_point(&m, &sig, level);
                    assert!(p.warp_gips <= c.peak_warp_gips, "{at}: {p:?} over {c:?}");
                    assert!(p.gtxn_s <= roof, "{at}: {p:?} over {c:?}");
                }
            }
        }
    }
}
