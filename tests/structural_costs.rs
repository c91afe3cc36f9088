//! Structural costs: counts, not clocks. A win that removed work is pinned
//! by counting what the work would cost — heap blocks allocated on the
//! calling thread — against a bound with stated headroom, so a change that
//! puts the work back fails here however fast the host is that day.
//!
//! Its own binary: the counting allocator (`common`) serves every test in it.

mod common;

use common::blocks;
use suite::RunParams;

/// A warm `--sweep` (every cell cached) plans the grid, scans each cell's
/// record and profile digest, and composes the manifest. The key is printed
/// once per cell and compared as bytes, so a cell costs a few dozen blocks
/// however many kernels its key lists. Building the key as a tree, or
/// parsing a record's key back into one, costs several blocks per kernel:
/// with the whole 76-kernel registry selected, hundreds more per cell.
#[test]
fn a_warm_sweep_allocates_a_bounded_number_of_blocks_per_cell() {
    // Measured: 59 per cell. The bound leaves 2x headroom for incidental
    // change and still fails when either key tree comes back.
    const BOUND_PER_CELL: u64 = 120;
    // One pool thread: the cold run below is the only parallel work.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let dir = std::env::temp_dir().join(format!("rajaperf_costs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let argv = [
        "--sweep",
        "--size",
        "64",
        "--reps",
        "1",
        "--sweep-block-sizes",
        "128,256",
    ];
    let mut params = RunParams::parse(&argv.map(String::from)).unwrap();
    params.sweep_dir = Some(dir.clone());
    let cold = suite::run_sweep(&params).unwrap();
    assert_eq!(cold.cells.len(), 12);
    let (warm_blocks, warm) = blocks(|| suite::run_sweep(&params).unwrap());
    assert!(warm.cells.iter().all(|c| c.cached), "{}", warm.render());
    let per_cell = warm_blocks / 12;
    eprintln!("warm 12-cell sweep: {warm_blocks} blocks, {per_cell} per cell");
    assert!(
        per_cell <= BOUND_PER_CELL,
        "a warm sweep allocated {per_cell} blocks per cell (bound {BOUND_PER_CELL}): \
         is a key built or parsed as a tree again?"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Profile::to_json` prints the profile straight into one buffer: a
/// handful of blocks for the text itself, however many records it holds.
/// Building the profile's `Value` tree first and printing that costs
/// several blocks per record and metric.
#[test]
fn to_json_of_a_whole_registry_profile_builds_no_tree() {
    // Measured: 15 blocks (the buffer growing) for 113 KB. The bound
    // leaves 2x headroom.
    const BOUND: u64 = 30;
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let argv = ["--size", "64", "--reps", "1"];
    let report = suite::run_suite(&RunParams::parse(&argv.map(String::from)).unwrap());
    assert_eq!(report.entries.len(), 76, "the whole registry");
    let (printed, text) = blocks(|| report.profile.to_json());
    eprintln!("to_json of a {}-byte profile: {printed} blocks", text.len());
    assert!(
        printed <= BOUND,
        "to_json allocated {printed} blocks (bound {BOUND}): is a tree built again?"
    );
}

/// `Thicket::from_files` at pool width 1 reads every file into one reused
/// text buffer and stages it in one reused staging, whose column interner
/// and flat record buffers are grown by the first profile and only reused
/// after it. So what a profile costs is what the thicket keeps of it (its
/// path segments, globals and metadata) plus the pending frame's amortised
/// growth, and it does not grow with the corpus. A staging built per file
/// re-interns every column name and regrows every buffer for each profile.
#[test]
fn from_files_allocates_per_profile_what_it_keeps_however_many_profiles() {
    // Measured: 273 blocks per added 76-kernel profile (455 per profile
    // over the first eight, which carry the warm-up and the compaction); a
    // staging built per file makes it 426. The bound leaves 25 % headroom.
    const BOUND_PER_ADDED: u64 = 340;
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let argv = ["--size", "64", "--reps", "1"];
    let report = suite::run_suite(&RunParams::parse(&argv.map(String::from)).unwrap());
    let text = report.profile.to_json();
    let dir = std::env::temp_dir().join(format!("rajaperf_ingest_costs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    const N: usize = 8;
    let paths: Vec<_> = (0..2 * N)
        .map(|i| {
            let path = dir.join(format!("p{i:02}.cali.json"));
            std::fs::write(&path, &text).unwrap();
            path
        })
        .collect();
    let compose = |n: usize| {
        let (blocks, (tk, stats)) = blocks(|| thicket::Thicket::from_files(&paths[..n]));
        assert_eq!((tk.profiles.len(), stats.warnings()), (n, 0));
        blocks
    };
    let (small, large) = (compose(N), compose(2 * N));
    let (per_profile, marginal) = (small / N as u64, (large - small) / N as u64);
    eprintln!(
        "from_files: {small} blocks for {N} profiles, {large} for {}: \
         {per_profile} per profile, {marginal} per added profile",
        2 * N
    );
    assert!(
        marginal <= per_profile,
        "an added profile cost {marginal} blocks, more than the {per_profile} per profile \
         of the first {N}: does ingest cost grow with the corpus?"
    );
    assert!(
        marginal <= BOUND_PER_ADDED,
        "an added profile cost {marginal} blocks (bound {BOUND_PER_ADDED}): \
         is a staging built per file again?"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
