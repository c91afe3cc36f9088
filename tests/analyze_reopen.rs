//! `rajaperf-analyze`'s routes to one answer, over a tiny sweep's profiles
//! (`Basic_DAXPY` under six variants, plus one profile without a `variant`):
//! `group_profiles` names exactly the profiles of each `groupby` sub-thicket,
//! a `.tkt` reopen is the directory ingest cell for cell and bit for bit, and
//! the `.tkt` reader ignores validity bits past a chunk's count.
//!
//! Budget: each test under 5 s in a debug build; the sweep is the bulk of it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use suite::RunParams;
use thicket::{Thicket, MISSING_GROUP};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf_reopen_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The profiles of a six-variant `Basic_DAXPY` sweep into `dir`, plus a copy
/// of the first whose `variant` global is renamed away, composed by
/// `Thicket::from_files` as `rajaperf-analyze DIR` composes them.
fn sweep_thicket(dir: &Path) -> Thicket {
    let sweep_dir = dir.join("sweep");
    let argv = [
        "--kernels",
        "Basic_DAXPY",
        "--size",
        "1000",
        "--reps",
        "1",
        "--sweep",
        "--sweep-dir",
        sweep_dir.to_str().unwrap(),
    ];
    suite::run_sweep(&RunParams::parse(&argv.map(String::from)).unwrap()).unwrap();
    let profiles = sweep_dir.join("profiles");
    let first = std::fs::read_to_string(&thicket::profile_paths(&profiles).unwrap()[0]).unwrap();
    let unnamed = first.replacen("\"variant\":", "\"unnamed\":", 1);
    assert_ne!(unnamed, first, "the profile names its variant");
    std::fs::write(profiles.join("zz_no_variant.cali.json"), unnamed).unwrap();
    let (tk, stats) = Thicket::from_files(&thicket::profile_paths(&profiles).unwrap());
    assert_eq!((stats.ingested, stats.warnings()), (7, 0));
    tk
}

fn bits(rows: &[thicket::StatRow]) -> Vec<(String, [u64; 3])> {
    let row = |r: &thicket::StatRow| (r.node.clone(), [r.mean, r.min, r.max].map(f64::to_bits));
    rows.iter().map(row).collect()
}

#[test]
fn group_ids_are_the_groupby_profiles_and_a_reopen_is_the_directory_ingest() {
    let dir = scratch("groups");
    let mut tk = sweep_thicket(&dir);
    for key in ["variant", "tuning", "no_such_key"] {
        let ids = tk.group_profiles(key);
        let groups = tk.groupby(key);
        let labels: Vec<&str> = ids.iter().map(|(label, _)| label.as_str()).collect();
        let group_labels: Vec<&str> = groups.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(labels, group_labels, "{key}");
        for ((label, ids), (_, sub)) in ids.iter().zip(&groups) {
            assert_eq!(ids, &sub.profiles, "{key}={label}");
        }
    }
    let variants = tk.group_profiles("variant");
    assert_eq!(variants.len(), 7, "six variants and the missing one");
    assert_eq!(variants[0], (MISSING_GROUP.to_string(), vec![6]));
    assert_eq!(
        tk.group_profiles("no_such_key"),
        [(MISSING_GROUP.to_string(), tk.profiles.clone())]
    );

    let path = dir.join("corpus.tkt");
    tk.write_tkt(&path).unwrap();
    let mut back = Thicket::read_tkt(&path).unwrap();
    assert_eq!(back.to_csv(), tk.to_csv());
    assert_eq!(back.group_profiles("variant"), variants);
    let columns: Vec<String> = tk.column_names().into_iter().map(String::from).collect();
    assert_eq!(back.column_names(), columns);
    for column in &columns {
        assert_eq!(
            bits(&back.statsframe(column)),
            bits(&tk.statsframe(column)),
            "{column}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Little-endian `u32` / `u64` at `at`.
fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}
fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Rows per chunk of the re-chunked columns: a multiple of neither 8 nor 64,
/// so each chunk's last validity byte has bits past the chunk's count.
const CHUNK: usize = 5;

/// `tkt` with every column section re-encoded in `CHUNK`-row chunks whose
/// last validity byte has every bit past the count set. The new sections go
/// after the old ones, and a new footer and tail point at them.
fn with_dirty_validity(tkt: &[u8]) -> Vec<u8> {
    let footer_off = u64_at(tkt, tkt.len() - 20);
    let footer = std::str::from_utf8(&tkt[footer_off..tkt.len() - 20]).unwrap();
    let mut sections: BTreeMap<String, (u64, u64)> = serde_json::from_str(footer).unwrap();
    let mut out = tkt[..footer_off].to_vec();
    for (name, extent) in sections
        .iter_mut()
        .filter(|(name, _)| name.starts_with("col:"))
    {
        let off = extent.0 as usize;
        assert_eq!(u32_at(tkt, off), 1, "{name}: the writer's one chunk");
        let count = u32_at(tkt, off + 4);
        let values = &tkt[off + 8..off + 8 + count * 8];
        let valid = |i: usize| tkt[off + 8 + count * 8 + i / 8] >> (i % 8) & 1;
        let start = out.len();
        out.extend_from_slice(&(count.div_ceil(CHUNK) as u32).to_le_bytes());
        for first in (0..count).step_by(CHUNK) {
            let n = CHUNK.min(count - first);
            out.extend_from_slice(&(n as u32).to_le_bytes());
            out.extend_from_slice(&values[first * 8..(first + n) * 8]);
            let mut bytes = vec![0u8; n.div_ceil(8)];
            (0..n).for_each(|i| bytes[i / 8] |= valid(first + i) << (i % 8));
            *bytes.last_mut().unwrap() |= 0xFF << (n % 8);
            out.extend_from_slice(&bytes);
        }
        *extent = (start as u64, (out.len() - start) as u64);
    }
    let footer = serde_json::to_string(&sections).unwrap();
    let footer_off = out.len() as u64;
    out.extend_from_slice(footer.as_bytes());
    out.extend_from_slice(&footer_off.to_le_bytes());
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(b"TKT1");
    out
}

#[test]
fn validity_bits_past_a_chunks_count_are_not_read() {
    let dir = scratch("dirty_bits");
    let tk = sweep_thicket(&dir);
    let clean = dir.join("clean.tkt");
    tk.write_tkt(&clean).unwrap();
    let dirty = dir.join("dirty.tkt");
    std::fs::write(&dirty, with_dirty_validity(&std::fs::read(&clean).unwrap())).unwrap();
    let (clean, dirty) = (
        Thicket::read_tkt(&clean).unwrap(),
        Thicket::read_tkt(&dirty).unwrap(),
    );
    assert_eq!(dirty.row_count(), clean.row_count());
    assert_eq!(dirty.to_csv(), clean.to_csv());
    // A sub-thicket keeps only the columns its profiles observed.
    for ((label, a), (_, b)) in dirty
        .groupby("variant")
        .iter()
        .zip(clean.groupby("variant"))
    {
        assert_eq!(a.to_csv(), b.to_csv(), "variant={label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
