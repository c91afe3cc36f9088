//! Thicket's answers have the same bits at every pool width. The test
//! re-runs this test binary twice, at `RAYON_NUM_THREADS=1` and `=4` (the
//! pool reads it once per process), and each child composes the same
//! seeded synthetic corpus through `from_profiles`, `groupby`, `statsframe`
//! and `kernel_family_features`, then prints a digest of every result bit.
//! The parent asserts the two digests are equal. `scripts/verify.sh` runs
//! the same comparison on a 50 000-profile corpus (`corpus_smoke`).

use std::collections::BTreeMap;
use thicket::{ProfileData, Thicket};

const PROFILES: usize = 300;
const VARIANTS: [&str; 4] = ["Base_Seq", "RAJA_Seq", "Base_Par", "RAJA_Par"];
const FAMILIES: [&str; 4] = ["Stream", "Basic", "Lcals", "Apps"];
const KERNELS_PER_FAMILY: usize = 6;
const METRICS: [&str; 2] = ["Time/Rep", "Bytes/Rep"];

/// SplitMix64 step, mapped to a double in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Profile `i` of the corpus. Every fifth profile skips one kernel, so
/// nodes differ in how many profiles observed them.
fn profile(i: usize) -> ProfileData {
    let mut s = 0x7417_0000u64 ^ i as u64;
    let globals = BTreeMap::from([(
        "variant".to_string(),
        serde_json::Value::from(VARIANTS[i % VARIANTS.len()]),
    )]);
    let mut records = Vec::new();
    for (f, family) in FAMILIES.iter().enumerate() {
        for k in 0..KERNELS_PER_FAMILY {
            if i.is_multiple_of(5) && k == f {
                continue;
            }
            let metrics = METRICS
                .iter()
                .map(|m| (m.to_string(), unit(&mut s) * 1e-3))
                .collect();
            records.push((
                vec!["RAJAPerf".to_string(), format!("{family}_K{k}")],
                metrics,
            ));
        }
    }
    ProfileData { globals, records }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }
}

fn corpus_digest() -> u64 {
    let profiles: Vec<ProfileData> = (0..PROFILES).map(profile).collect();
    let tk = Thicket::from_profiles(&profiles);
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    d.word(tk.profiles.len() as u64);
    d.word(tk.nodes.len() as u64);
    for (variant, mut sub) in tk.groupby("variant") {
        d.text(&variant);
        d.word(sub.profiles.len() as u64);
        for metric in METRICS {
            for row in sub.statsframe(metric) {
                d.text(&row.node);
                [row.mean, row.min, row.max]
                    .iter()
                    .for_each(|v| d.word(v.to_bits()));
            }
        }
    }
    let features = thicket::kernel_family_features(&tk, METRICS[0]);
    features.names.iter().for_each(|n| d.text(n));
    for (p, point) in features.profiles.iter().zip(&features.points) {
        d.word(*p as u64);
        point.iter().for_each(|v| d.word(v.to_bits()));
    }
    d.0
}

const CHILD: &str = "digest_of_one_pool_width";

/// The child: prints this process's digest. Ignored so that it runs only
/// when the parent asks for it by name.
#[test]
#[ignore = "run by thicket_results_are_the_same_bits_at_pool_widths_1_and_4"]
fn digest_of_one_pool_width() {
    println!("digest={:016x}", corpus_digest());
}

#[test]
fn thicket_results_are_the_same_bits_at_pool_widths_1_and_4() {
    let exe = std::env::current_exe().unwrap();
    let digest_at = |width: &str| {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                CHILD,
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("RAYON_NUM_THREADS", width)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "width {width}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let digest = stdout
            .lines()
            .find_map(|l| Some(l.split_once("digest=")?.1));
        digest
            .unwrap_or_else(|| panic!("width {width} printed no digest: {stdout}"))
            .to_string()
    };
    assert_eq!(digest_at("1"), digest_at("4"));
}
