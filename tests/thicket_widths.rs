//! Thicket's answers have the same bits at every pool width. The test
//! re-runs this test binary twice, at `RAYON_NUM_THREADS=1` and `=4` (the
//! pool reads it once per process), and each child composes the same
//! seeded synthetic corpus through `from_profiles`, `groupby`, `statsframe`
//! and `kernel_family_features`, then prints a digest of every result bit.
//! Each child also writes the corpus as `.cali.json` files, with a torn file
//! and a file that is not JSON planted among them, composes the directory
//! with `from_files` (read and staged on the pool when it is wider than one
//! thread, committed in path order), and prints digests of that thicket,
//! of the skip list in order and of its `.tkt` bytes. The parent asserts the
//! two children printed the same digests. `scripts/verify.sh` runs the same
//! comparison on a 50 000-profile corpus (`corpus_smoke`).

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

/// A fresh digest.
fn digest() -> Digest {
    Digest(0xCBF2_9CE4_8422_2325)
}

fn corpus_digest() -> u64 {
    let profiles: Vec<ProfileData> = (0..PROFILES).map(profile).collect();
    thicket_digest(&Thicket::from_profiles(&profiles))
}

/// Every bit of `tk` the analyses read: groups, statsframes, features.
fn thicket_digest(tk: &Thicket) -> u64 {
    let mut d = digest();
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
    let features = thicket::kernel_family_features(tk, METRICS[0]);
    features.names.iter().for_each(|n| d.text(n));
    for (p, point) in features.profiles.iter().zip(&features.points) {
        d.word(*p as u64);
        point.iter().for_each(|v| d.word(v.to_bits()));
    }
    d.0
}

/// The files of the on-disk corpus, in path order: at width 4 a batch is
/// 16 files, so the torn file is the first of the second batch and the
/// non-JSON file its last, and the count is no multiple of any batch size.
const TORN_AT: usize = 16;
const NOT_JSON_AT: usize = 31;
const FILES: usize = PROFILES + 2;

/// Profile `i` as `.cali.json` text. Odd profiles list their metric keys
/// in reverse, and every seventh has a column the others lack, so each
/// slot's column interner meets the names in its own order.
fn profile_text(i: usize) -> String {
    let p = profile(i);
    let globals: Vec<String> = p
        .globals
        .iter()
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect();
    let records: Vec<String> = p
        .records
        .iter()
        .map(|(path, metrics)| {
            let mut cells: Vec<String> =
                metrics.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
            if i % 7 == 3 {
                cells.push(format!("\"Flops/Rep\":{}", i * 10));
            }
            if i % 2 == 1 {
                cells.reverse();
            }
            format!(r#"{{"path":{path:?},"metrics":{{{}}}}}"#, cells.join(","))
        })
        .collect();
    format!(
        r#"{{"globals":{{{}}},"records":[{}]}}"#,
        globals.join(","),
        records.join(",")
    )
}

/// Write the corpus under `dir`, compose it with `from_files`, and digest
/// the thicket, the skip list (paths and reasons, `dir` left out) and the
/// `.tkt` bytes.
fn files_digests(dir: &std::path::Path) -> [u64; 3] {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut next = 0;
    for f in 0..FILES {
        let text = match f {
            TORN_AT => profile_text(0)[..100].to_string(),
            NOT_JSON_AT => "this is not JSON".to_string(),
            _ => {
                next += 1;
                profile_text(next - 1)
            }
        };
        std::fs::write(dir.join(format!("f{f:03}.cali.json")), text).unwrap();
    }
    let paths = thicket::profile_paths(dir).unwrap();
    let (tk, stats) = Thicket::from_files(&paths);
    assert_eq!((stats.ingested, stats.warnings()), (PROFILES, 2));
    let mut skipped = digest();
    let prefix = dir.display().to_string();
    for (path, reason) in &stats.skipped {
        skipped.text(&path.display().to_string().replace(&prefix, ""));
        skipped.text(&reason.replace(&prefix, ""));
    }
    let tkt_path = dir.join("corpus.tkt");
    tk.write_tkt(&tkt_path).unwrap();
    let mut tkt = digest();
    std::fs::read(&tkt_path)
        .unwrap()
        .iter()
        .for_each(|&b| tkt.word(u64::from(b)));
    std::fs::remove_dir_all(dir).unwrap();
    [thicket_digest(&tk), skipped.0, tkt.0]
}

const CHILD: &str = "digest_of_one_pool_width";

/// The child: prints this process's digests. Ignored so that it runs only
/// when the parent asks for it by name.
#[test]
#[ignore = "run by thicket_results_are_the_same_bits_at_pool_widths_1_and_4"]
fn digest_of_one_pool_width() {
    println!("digest={:016x}", corpus_digest());
    let dir = std::env::temp_dir().join(format!("thicket_widths_{}", std::process::id()));
    let [files, skipped, tkt] = files_digests(&dir);
    println!("files={files:016x}");
    println!("skipped={skipped:016x}");
    println!("tkt={tkt:016x}");
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
        let digests: Vec<String> = ["digest=", "files=", "skipped=", "tkt="]
            .iter()
            .map(|name| {
                let value = stdout.lines().find_map(|l| l.split_once(name));
                let (_, value) =
                    value.unwrap_or_else(|| panic!("width {width} printed no {name}: {stdout}"));
                format!("{name}{value}")
            })
            .collect();
        digests
    };
    let (one, four) = (digest_at("1"), digest_at("4"));
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a, b, "width 1 vs width 4");
    }
}
