#!/usr/bin/env bash
# Full verification gate for RAJAPerf-rs: build, lint, and test everything.
#
#   scripts/verify.sh           # tier-1 + clippy + workspace tests
#   scripts/verify.sh --quick   # tier-1 only (build + root tests)
#
# Lint policy: `cargo clippy --all-targets -- -D warnings` must be clean
# across the whole workspace, vendored crates included.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
    echo "verify: tier-1 OK (quick mode, clippy and workspace tests skipped)"
    exit 0
fi

echo "== lint: cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

# The ledger (benchmark/, its own package) imports names no workspace crate
# calls, so a deletion that breaks it is caught here in seconds, not at the
# final smoke. Then the counted lines ROADMAP item 5 asks every PR to report.
echo "== surface: the ledger builds against this tree; counted lines =="
CARGO_TARGET_DIR=target cargo check --offline --locked --quiet --manifest-path benchmark/Cargo.toml \
    || { echo "verify: FAIL — benchmark/ does not build against this tree" >&2; exit 1; }
scripts/loc.sh

# Unsafe audit: every `unsafe` site in first-party code (crates/ plus the
# vendored-but-maintained vendor/rayon) must be justified by a `// SAFETY:`
# comment or a `# Safety` doc section within the preceding 8 lines. The
# remaining vendor/ crates are third-party imports and exempt.
echo "== lint: unsafe sites carry SAFETY justifications =="
UNSAFE_VIOLATIONS=$(
    grep -rln "unsafe" crates vendor/rayon/src --include="*.rs" | while read -r f; do
        awk '
            /SAFETY:|# Safety/ { last_safety = NR }
            /unsafe/ {
                line = $0
                sub(/^[ \t]+/, "", line)
                if (line ~ /^\/\//) next      # comment mentioning unsafe
                if (line ~ /^#/) next          # attribute, e.g. unsafe_op_in_unsafe_fn
                if ($0 ~ /SAFETY:/) next       # same-line justification
                if (NR - last_safety > 8) printf "%s:%d: %s\n", FILENAME, NR, $0
            }
        ' "$f"
    done
)
if [[ -n "$UNSAFE_VIOLATIONS" ]]; then
    echo "verify: FAIL — unsafe sites missing SAFETY justification:" >&2
    echo "$UNSAFE_VIOLATIONS" >&2
    exit 1
fi
echo "unsafe-audit: all first-party unsafe sites justified"

# Bounded model checker: exhaustively explore the shared-pool and caliper
# concurrency protocols under `--cfg simsched`. Exhaustive DFS order is
# deterministic by construction; the seeded-random test pins seed 0xC0FFEE.
# A separate target dir keeps the cfg'd build from thrashing the main cache.
echo "== simsched: bounded model check of pool/caliper protocols =="
RUSTFLAGS="--cfg simsched --check-cfg cfg(simsched)" \
    CARGO_TARGET_DIR=target/simsched \
    cargo test -p simsched --release -- --nocapture 2>&1 | tee /tmp/simsched-verify.log \
    | grep -E "schedules|test result" || true
if grep -qE "test result: FAILED|panicked" /tmp/simsched-verify.log; then
    echo "verify: FAIL — simsched model check failed" >&2
    exit 1
fi
grep -q "schedules" /tmp/simsched-verify.log \
    || { echo "verify: FAIL — no explored-schedule counts in model-check output" >&2; exit 1; }
echo "simsched: model check clean (schedule counts above)"

# Miri smoke: strictest aliasing/UB interpreter over the simsched unit tests.
# Miri is an optional rustup component; skip with a notice when absent so the
# gate degrades gracefully on images without it.
echo "== miri: smoke (optional) =="
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -p simsched --lib
    echo "miri: simsched unit tests clean"
else
    echo "miri: not installed, skipping (install with: rustup component add miri)"
fi

echo "== full: cargo test --workspace --release =="
cargo test --workspace --release

# Launch fast path: the 1-D device fast path must produce bitwise-identical
# results to the generic block-structured path for every registry kernel,
# and the sanitizer's positive controls must still fire.
echo "== fastpath: cargo test --release -p kernels --test fastpath_equivalence =="
cargo test --release -p kernels --test fastpath_equivalence

# The codec prints as it writes, with no tree: the golden profile pins the
# `.cali.json` bytes, the property test pins "prints as the tree of it
# prints" (values, derived structs, maps keyed out of name order), and the
# fixed-point smoke pins every file a real sweep writes.
echo "== codec: golden profile bytes, print-as-the-tree property, sweep fixed point =="
cargo test --release -q -p caliper --test golden_profile
cargo test --release -q -p serde --test print_without_a_tree
cargo test --release -q --test end_to_end every_file_a_sweep_writes_prints_back_to_its_own_bytes

# The release driver binary lives in crates/suite; the root-package build
# above does not refresh it, so build it explicitly before driving it.
echo "== cli: full-registry --checksums =="
cargo build --release --workspace
RAJAPERF=target/release/rajaperf
# At the default 256 and at 96: a block size no power of two, so the
# simulated-device variants' blocks (and reduction partials) really change.
for bs in 256 96; do
    "$RAJAPERF" --checksums --size 20000 --reps 1 --gpu-block-size "$bs" | tail -1 |
        grep -q "ALL CHECKSUMS PASS"
    echo "checksums at --gpu-block-size $bs: ALL CHECKSUMS PASS"
done

echo "== cli: --sweep emits one profile per cell =="
SWEEP_DIR=$(mktemp -d)
trap 'rm -rf "$SWEEP_DIR"' EXIT
"$RAJAPERF" --sweep --groups Stream --size 100000 --reps 2 \
    --sweep-block-sizes 128,256 --sweep-dir "$SWEEP_DIR" >/dev/null
profiles=$(ls "$SWEEP_DIR"/profiles/*.cali.json | wc -l)
if [[ "$profiles" -ne 12 ]]; then
    echo "verify: FAIL — expected 12 sweep profiles (6 variants x 2 block sizes), got $profiles" >&2
    exit 1
fi
[[ -f "$SWEEP_DIR/manifest.json" ]] || { echo "verify: FAIL — sweep manifest missing" >&2; exit 1; }
echo "sweep: 12 distinct profiles + manifest"

# A path is a path: the sweep directory's name is made of the characters
# Caliper's spec grammar splits at. Relative to the repository root on
# purpose — a path re-parsed as spec text leaves a stray `sw` file there.
echo "== cli: a sweep directory named like Caliper spec text keeps its six profiles =="
STATUS_BEFORE=$(git status --porcelain)
HOSTILE='sw,eep (1)'
hostile_sweep() {
    "$RAJAPERF" --sweep --sweep-dir "$HOSTILE" --kernels Basic_DAXPY --size 1000 --reps 1
}
hostile_sweep >/dev/null
hostile_profiles=$(ls "$HOSTILE"/profiles/*.cali.json | wc -l)
hostile_warm=$(hostile_sweep)
hostile_warm=${hostile_warm%%$'\n'*}  # the "Sweep: 6 cells (6 cached)" line
rm -rf "$HOSTILE"
if [[ "$hostile_profiles" -ne 6 || "$hostile_warm" != *"(6 cached"* ]]; then
    echo "verify: FAIL — hostile sweep dir: $hostile_profiles profiles, warm run said '$hostile_warm'" >&2
    exit 1
fi
if [[ "$(git status --porcelain)" != "$STATUS_BEFORE" ]]; then
    echo "verify: FAIL — the hostile-path sweep left a stray file in the work tree:" >&2
    git status --porcelain >&2
    exit 1
fi
echo "hostile path: 6 profiles under '$HOSTILE/profiles', warm run $hostile_warm, no stray file"

# Ranked campaigns: one supervisor, two carriers (the full matrix is
# crates/suite/tests/ranked_campaigns.rs, run by the workspace tests above).
# Under either isolation mode a 4-rank campaign must gather into the
# --ranks 1 manifest. The stall faults fail nothing; they widen the window
# for the kill -9 stage below, and make the cells' wall time a sleep, so the
# thread carrier running fault-armed cells rank-parallel shows as wall time
# whatever the host's core count.
echo "== cli: --ranks 4 gathers into the --ranks 1 manifest under both isolation modes =="
RANKS_DIR=$(mktemp -d)
RAJAPERF_ABS="$PWD/$RAJAPERF"
ranked_sweep() {  # <dir> <rank args...>: the campaign, from its own cwd
    local dir="$RANKS_DIR/$1"; shift
    mkdir -p "$dir"
    (cd "$dir" && "$RAJAPERF_ABS" --sweep --kernels Basic_DAXPY \
        --size 100000 --reps 2 --sweep-block-sizes 128,256 --sweep-dir sweep \
        --faults 'suite.kernel=stall(150),seed=1' "$@")
}
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
T0=$(now_ms)
ranked_sweep r1 --ranks 1 >/dev/null
R1_MS=$(( $(now_ms) - T0 ))
declare -A MODE_MS
for mode in threads process; do
    T0=$(now_ms)
    ranked_sweep "$mode" --ranks 4 --rank-isolation "$mode" >/dev/null
    MODE_MS[$mode]=$(( $(now_ms) - T0 ))
    cmp "$RANKS_DIR/r1/sweep/manifest.json" "$RANKS_DIR/$mode/sweep/manifest.json" \
        || { echo "verify: FAIL — $mode-ranked manifest diverged from single-rank" >&2; exit 1; }
done
# Child ranks wrote those profiles (with `mpi.rank`) and the digests in
# their records; the single-rank scan must verify every one of them.
# The whole report, then its first line: `| head -1` may close the pipe
# before rajaperf's last write, and a print to a closed pipe panics.
RESCAN=$(ranked_sweep process --ranks 1)
RESCAN=${RESCAN%%$'\n'*}
[[ "$RESCAN" == "Sweep: 12 cells (12 cached)" ]] \
    || { echo "verify: FAIL — --ranks 1 re-scan of the process-ranked sweep: $RESCAN" >&2; exit 1; }
if [[ "${MODE_MS[threads]}" -gt "$R1_MS" ]]; then
    echo "verify: FAIL — fault-armed thread ranks serialized: --ranks 4 took ${MODE_MS[threads]} ms, --ranks 1 ${R1_MS} ms" >&2
    exit 1
fi
echo "ranks: 4-rank campaigns byte-identical to single-rank (--ranks 1 ${R1_MS} ms, threads ${MODE_MS[threads]} ms, process ${MODE_MS[process]} ms); process-ranked cells all cached under --ranks 1"

# Process-only: kill -9 one child mid-campaign; the supervisor must requeue
# its cell, respawn it, and still finish with the single-rank manifest.
echo "== cli: --rank-isolation=process survives kill -9 of a child rank =="
ranked_sweep kill --ranks 4 --rank-isolation process >"$RANKS_DIR/kill.out" &
PROC_PID=$!
VICTIM=""
for _ in $(seq 1 100); do
    # No other campaign runs during verify, so any rank worker is ours.
    VICTIM=$(pgrep -f -- "--rank-worker" 2>/dev/null | head -1) || true
    [[ -n "$VICTIM" ]] && break
    sleep 0.05
done
[[ -n "$VICTIM" ]] || { echo "verify: FAIL — no rank worker appeared to kill" >&2; exit 1; }
kill -9 "$VICTIM"
wait "$PROC_PID" \
    || { echo "verify: FAIL — process campaign died with its killed child" >&2; exit 1; }
grep -q "respawn" "$RANKS_DIR/kill.out" \
    || { echo "verify: FAIL — supervisor did not report the respawn" >&2; exit 1; }
cmp "$RANKS_DIR/r1/sweep/manifest.json" "$RANKS_DIR/kill/sweep/manifest.json" \
    || { echo "verify: FAIL — process-ranked manifest diverged after child kill" >&2; exit 1; }
rm -rf "$RANKS_DIR"
echo "process ranks: child killed mid-campaign, respawned, manifest byte-identical"

# The kill -9 resume test asserts no `.tmp.` file survives; a kill inside a
# write window used to orphan one about 1 run in 10 (now swept by
# `caliper::remove_orphaned_temps`), so once is not evidence.
echo "== ranked: kill -9 resume leaves no temp file, five times over =="
for _ in 1 2 3 4 5; do
    cargo test --release -q -p suite --test ranked_campaigns \
        e2e_killed_ranked_sweep_resumes_to_identical_manifest >/dev/null \
        || { echo "verify: FAIL — killed ranked sweep did not resume cleanly" >&2; exit 1; }
done
echo "ranked: 5/5 kill -9 resumes byte-identical with no orphaned temp"

# A panicking rank must poison the barrier and abort its peers instead of
# deadlocking the campaign (regression for the mid-barrier hang).
echo "== simcomm: rank-panic cannot hang the runtime =="
cargo test --release -p simcomm rank_panic

echo "== cli: --trace exports a parseable Chrome trace =="
TRACE_JSON="$SWEEP_DIR/smoke.trace.json"
"$RAJAPERF" --variants Base_Seq --kernels Stream_TRIAD --size 100000 --reps 2 \
    --trace "$TRACE_JSON" >/dev/null
python3 - "$TRACE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
begins = [(e["tid"], e["name"]) for e in events if e["ph"] == "B"]
ends = [(e["tid"], e["name"]) for e in events if e["ph"] == "E"]
complete = sum(1 for b in begins if b in ends)
assert complete >= 1, "no complete begin/end event in trace"
print(f"trace: {len(events)} events, {complete} complete region begin/ends")
EOF

echo "== cli: fault injection isolates the failing kernel (exit 5) =="
set +e
FAULT_OUT=$("$RAJAPERF" --kernels Stream_TRIAD,Basic_DAXPY --variant Base_SimGpu \
    --size 100000 --reps 2 --faults 'gpusim.launch@Stream_TRIAD=panic:1.0,seed=1' 2>/dev/null)
FAULT_CODE=$?
set -e
if [[ "$FAULT_CODE" -ne 5 ]]; then
    echo "verify: FAIL — expected exit code 5 (kernel failures), got $FAULT_CODE" >&2
    exit 1
fi
echo "$FAULT_OUT" | grep -q "Stream_TRIAD.*FAILED" \
    || { echo "verify: FAIL — Stream_TRIAD not reported FAILED" >&2; exit 1; }
echo "$FAULT_OUT" | grep -q "1 passed, 1 failed" \
    || { echo "verify: FAIL — healthy kernel did not survive the injected panic" >&2; exit 1; }
echo "faults: injected panic isolated, exit code 5"

echo "== cli: same-seed fault runs reproduce identical outcomes =="
set +e
RUN_A=$("$RAJAPERF" --variant Base_SimGpu --size 20000 --reps 1 \
    --faults 'gpusim.launch=panic:0.1,seed=7' 2>/dev/null | awk '/Kernel outcomes/,0')
RUN_B=$("$RAJAPERF" --variant Base_SimGpu --size 20000 --reps 1 \
    --faults 'gpusim.launch=panic:0.1,seed=7' 2>/dev/null | awk '/Kernel outcomes/,0')
set -e
if [[ -z "$RUN_A" || "$RUN_A" != "$RUN_B" ]]; then
    echo "verify: FAIL — seeded fault runs diverged" >&2
    exit 1
fi
echo "faults: seed=7 outcome set reproduced exactly"

echo "== cli: RAJA_Par checksums repeat at two threads =="
# The multi-reduce kernels sum chunk bins in chunk order and two exchange
# ranks on a two-thread pool run their loops inline, so no checksum depends
# on which thread ran what: two runs must print the same bits. (Only
# MULTI_REDUCE's could differ under atomics; HISTOGRAM's 1.0 adds are exact
# in any order, so its line is a guard.)
par_checksums() {
    RAYON_NUM_THREADS=2 "$RAJAPERF" --variant RAJA_Par \
        --kernels Basic_MULTI_REDUCE,Algorithm_HISTOGRAM,Comm_HALO_EXCHANGE \
        --caliper "spot(output=$1)" >/dev/null
    python3 - "$1" <<'EOF'
import json, sys
records = json.load(open(sys.argv[1]))["records"]
for r in records:
    if "Checksum" in r["metrics"]:
        print(r["path"][-1], repr(r["metrics"]["Checksum"]))
EOF
}
PAR_A=$(par_checksums "$SWEEP_DIR/par-a.cali.json")
PAR_B=$(par_checksums "$SWEEP_DIR/par-b.cali.json")
[[ $(wc -l <<<"$PAR_A") -eq 3 && "$PAR_A" == "$PAR_B" ]] \
    || { echo "verify: FAIL — RAJA_Par checksums differ between runs: $PAR_A / $PAR_B" >&2; exit 1; }
echo "par: RAJA_Par MULTI_REDUCE, HISTOGRAM and HALO_EXCHANGE checksums identical across two 2-thread runs"

echo "== cli: analyzer skips truncated profiles with a warning =="
ANALYZE=target/release/rajaperf-analyze
GOOD_PROFILE=$(ls "$SWEEP_DIR"/profiles/*.cali.json | head -1)
INGEST_DIR="$SWEEP_DIR/ingest-smoke"
mkdir -p "$INGEST_DIR"
cp "$GOOD_PROFILE" "$INGEST_DIR/good.cali.json"
head -c 40 "$GOOD_PROFILE" > "$INGEST_DIR/torn.cali.json"
echo "not a profile" > "$INGEST_DIR/a-not-json.cali.json"
ANALYZE_ERR=$(RAYON_NUM_THREADS=1 "$ANALYZE" "$INGEST_DIR" 2>&1 >/dev/null)
echo "$ANALYZE_ERR" | grep -q "torn.cali.json" \
    || { echo "verify: FAIL — truncated profile not reported by analyzer" >&2; exit 1; }
echo "$ANALYZE_ERR" | grep -q "2 of 3 profile(s) skipped" \
    || { echo "verify: FAIL — analyzer skip count wrong: $ANALYZE_ERR" >&2; exit 1; }
# A two-thread pool reads the files on the pool and skips in path order.
ANALYZE_ERR2=$(RAYON_NUM_THREADS=2 "$ANALYZE" "$INGEST_DIR" 2>&1 >/dev/null)
[[ "$ANALYZE_ERR2" == "$ANALYZE_ERR" ]] \
    || { echo "verify: FAIL — skip lines differ at two threads: $ANALYZE_ERR2" >&2; exit 1; }
echo "analyze: truncated and non-JSON profiles skipped with warnings in path order at 1 and 2 threads, composition continued"

# Profiles are read without a JSON tree, from files and from the daemon's
# store objects alike. Four checks of that reader: `rajaperf-analyze`
# composes what the last tree-reading build composed, byte for byte; so does
# the daemon's `analyze store`; a `null` metric does not lose a profile; a
# `.tkt` whose numbers lie is refused, not believed.
# ANALYZE_REFERENCE names that last tree-reading build (default: commit
# 5d1749b); its rajaperf-analyze and rajaperfd are built once into
# target/verify-reference and kept.
echo "== analyze: tree-free ingest equals the reference build; null metric; crafted .tkt =="
ANALYZE_REFERENCE=${ANALYZE_REFERENCE:-5d1749b97f2ba2cee0ec61d527a807433942eefd}
TEXT_DIR="$SWEEP_DIR/text-ingest"
ROOT=$PWD
mkdir -p "$TEXT_DIR/reference" "$TEXT_DIR/change" "$TEXT_DIR/ecc"
# Start <daemon binary> on one store under $TEXT_DIR, run each kernel named
# after it once, then `analyze store`: its raw events go to <events file>, its
# report (keys sorted) to <report file>.
analyze_store() {  # <daemon binary> <events file> <report file> [kernel...]
    local daemon_bin=$1 events=$2 report=$3 sock="$TEXT_DIR/d.sock" client="$ROOT/target/release/rajaperf-client"
    shift 3
    "$daemon_bin" --socket "$sock" --store "$TEXT_DIR/store" --workers 1 >/dev/null 2>&1 &
    local pid=$!
    for _ in $(seq 1 50); do
        [[ -S "$sock" ]] && break
        sleep 0.1
    done
    for kernel in "$@"; do
        "$client" --socket "$sock" run -- --kernels "$kernel" --size 1000 --reps 1 >/dev/null
    done
    "$client" --socket "$sock" analyze store >"$events"
    "$client" --socket "$sock" shutdown >/dev/null
    wait "$pid"
    python3 -c '
import json, sys
reports = [e["report"] for e in map(json.loads, open(sys.argv[1])) if e.get("event") == "result"]
assert len(reports) == 1, reports
print(json.dumps(reports[0], sort_keys=True))' "$events" >"$report"
}
if git cat-file -e "$ANALYZE_REFERENCE^{commit}" 2>/dev/null; then
    REF_SRC=$(mktemp -d)
    git archive "$ANALYZE_REFERENCE" | tar -x -C "$REF_SRC"
    # A fingerprint of its own, so its cache keys are never this build's.
    (cd "$REF_SRC" && CARGO_TARGET_DIR="$ROOT/target/verify-reference" \
        RAJAPERF_BUILD_FINGERPRINT="reference-$ANALYZE_REFERENCE" \
        cargo build --release --offline --quiet -p suite -p rajaperfd \
        --bin rajaperf-analyze --bin rajaperfd)
    rm -rf "$REF_SRC"
    for build in reference change; do
        bin="$ROOT/$ANALYZE"
        [[ "$build" == reference ]] && bin="$ROOT/target/verify-reference/release/rajaperf-analyze"
        (cd "$TEXT_DIR/$build" && "$bin" "$SWEEP_DIR/profiles" --groupby variant --tree --csv \
            --save-tkt out.tkt >stdout)
    done
    cmp "$TEXT_DIR/reference/stdout" "$TEXT_DIR/change/stdout" \
        || { echo "verify: FAIL — rajaperf-analyze stdout differs from the reference build's" >&2; exit 1; }
    cmp "$TEXT_DIR/reference/out.tkt" "$TEXT_DIR/change/out.tkt" \
        || { echo "verify: FAIL — --save-tkt bytes differ from the reference build's" >&2; exit 1; }
    echo "analyze: 12-profile stdout (--groupby --tree --csv) and .tkt bytes equal the reference build's"
    # The same profiles with every record's `metrics` keys in another order
    # (rotated by the record's index, reversed on odd records): the column
    # interner's guesses miss, and nothing composed may change. The
    # reference build hashes every key.
    REORDERED="$TEXT_DIR/reordered"
    mkdir -p "$REORDERED/profiles" "$REORDERED/reference" "$REORDERED/change"
    python3 - "$SWEEP_DIR/profiles" "$REORDERED/profiles" <<'PY'
import json, os, sys
src, dst = sys.argv[1:]
for name in sorted(n for n in os.listdir(src) if n.endswith(".cali.json")):
    doc = json.load(open(os.path.join(src, name)))
    for i, record in enumerate(doc["records"]):
        keys = list(record["metrics"])
        keys = keys[i % max(len(keys), 1):] + keys[:i % max(len(keys), 1)]
        if i % 2:
            keys.reverse()
        record["metrics"] = {k: record["metrics"][k] for k in keys}
    json.dump(doc, open(os.path.join(dst, name), "w"), indent=1)
PY
    for build in reference change; do
        bin="$ROOT/$ANALYZE"
        [[ "$build" == reference ]] && bin="$ROOT/target/verify-reference/release/rajaperf-analyze"
        (cd "$REORDERED/$build" && "$bin" "$REORDERED/profiles" --groupby variant --tree --csv \
            --save-tkt out.tkt >stdout)
    done
    for file in stdout out.tkt; do
        cmp "$REORDERED/reference/$file" "$REORDERED/change/$file" \
            || { echo "verify: FAIL — reordered-keys $file differs from the reference build's" >&2; exit 1; }
        cmp "$TEXT_DIR/change/$file" "$REORDERED/change/$file" \
            || { echo "verify: FAIL — reordering metrics keys changed $file" >&2; exit 1; }
    done
    echo "analyze: reordered metrics keys give the reference build's stdout and .tkt bytes, and the unreordered ones"
    # One store, seeded by this build; the reference's `analyze store` misses
    # the derived cache this build's filled (another code_version) and
    # composes the same objects itself.
    analyze_store "$ROOT/target/release/rajaperfd" "$TEXT_DIR/change/events" \
        "$TEXT_DIR/change/report" Basic_DAXPY Stream_TRIAD Basic_MULADDSUB
    analyze_store "$ROOT/target/verify-reference/release/rajaperfd" "$TEXT_DIR/reference/events" \
        "$TEXT_DIR/reference/report"
    grep -q '"cached":false' "$TEXT_DIR/reference/events" \
        || { echo "verify: FAIL — the reference daemon replayed this build's analysis" >&2; exit 1; }
    grep -q '"profiles": 3, "skipped": 0,' "$TEXT_DIR/change/report" \
        || { echo "verify: FAIL — analyze store did not compose the 3 seeded runs: $(cat "$TEXT_DIR/change/report")" >&2; exit 1; }
    cmp "$TEXT_DIR/reference/report" "$TEXT_DIR/change/report" \
        || { echo "verify: FAIL — rajaperfd analyze store report differs from the reference build's" >&2; exit 1; }
    echo "analyze: rajaperfd 'analyze store' report over 3 stored runs equals the reference build's"
else
    echo "analyze: reference commit $ANALYZE_REFERENCE not in this clone, comparison skipped"
    (cd "$TEXT_DIR/change" && "$ROOT/$ANALYZE" "$SWEEP_DIR/profiles" --save-tkt out.tkt >/dev/null)
fi
# The routes the ledger compares: the directory on a two- and a four-thread
# pool (files parsed on the pool, committed in path order) and the snapshot
# just saved print what the directory prints on one thread, and the wider
# pools save the one-thread snapshot byte for byte.
for route in width1 width2 width4 tkt; do
    input="$SWEEP_DIR/profiles" width=${route#width}
    [[ "$route" == tkt ]] && input="$TEXT_DIR/change/out.tkt" width=1
    RAYON_NUM_THREADS=$width "$ANALYZE" "$input" --groupby variant --tree --csv \
        >"$TEXT_DIR/change/$route.stdout"
done
for route in width2 width4 tkt; do
    cmp "$TEXT_DIR/change/width1.stdout" "$TEXT_DIR/change/$route.stdout" \
        || { echo "verify: FAIL — rajaperf-analyze $route stdout differs from the one-thread directory run's" >&2; exit 1; }
done
for width in 1 2 4; do
    RAYON_NUM_THREADS=$width "$ANALYZE" "$SWEEP_DIR/profiles" \
        --save-tkt "$TEXT_DIR/change/width$width.tkt" >/dev/null
done
for width in 2 4; do
    cmp "$TEXT_DIR/change/width1.tkt" "$TEXT_DIR/change/width$width.tkt" \
        || { echo "verify: FAIL — --save-tkt at $width threads differs from the one-thread snapshot" >&2; exit 1; }
done
echo "analyze: two- and four-thread directory and .tkt reopen stdout (--groupby --tree --csv) equal the one-thread directory run's; so do the snapshots saved at 2 and 4 threads"
# seed=5 flips a checksum into a non-finite value: `"Checksum": null`.
"$RAJAPERF" --variant RAJA_SimGpu --size 500 --reps 1 --faults 'gpusim.ecc=flip:1.0,seed=5' \
    --caliper "spot(output=$TEXT_DIR/ecc/ecc.cali.json)" >/dev/null
ECC_OUT=$("$ANALYZE" "$TEXT_DIR/ecc" 2>&1) \
    || { echo "verify: FAIL — the ECC-flipped run's profile was not composed: $ECC_OUT" >&2; exit 1; }
grep -q "^composed 1 profiles," <<<"$ECC_OUT" \
    || { echo "verify: FAIL — the ECC-flipped run's profile was not composed: $ECC_OUT" >&2; exit 1; }
ECC_NULLS=$(grep -c ': null' "$TEXT_DIR/ecc/ecc.cali.json" || true)
python3 - "$TEXT_DIR/change/out.tkt" "$TEXT_DIR" <<'PY'
import json, struct, sys
good = open(sys.argv[1], "rb").read()
# The tail's footer extent wraps past the bounds check: 200 + (2^64 - 100) + 20.
wrapped = bytearray(good)
wrapped[-20:-4] = struct.pack("<QQ", 200, 2**64 - 100)
open(sys.argv[2] + "/wrapped-tail.tkt", "wb").write(wrapped)
# The row index's first chunk claims 2^32 - 1 rows.
footer_off, footer_len = struct.unpack("<QQ", good[-20:-4])
index_off = json.loads(good[footer_off:footer_off + footer_len])["index"][0]
huge = bytearray(good)
huge[index_off + 4:index_off + 8] = struct.pack("<I", 0xFFFFFFFF)
open(sys.argv[2] + "/huge-count.tkt", "wb").write(huge)
PY
for crafted in wrapped-tail huge-count; do
    set +e
    CRAFTED_ERR=$("$ANALYZE" "$TEXT_DIR/$crafted.tkt" 2>&1 >/dev/null)
    CRAFTED_CODE=$?
    set -e
    if [[ "$CRAFTED_CODE" -ne 1 ]] || ! grep -q "^cannot open .*$crafted.tkt" <<<"$CRAFTED_ERR"; then
        echo "verify: FAIL — $crafted.tkt: expected exit 1 and a 'cannot open' line, got $CRAFTED_CODE: $CRAFTED_ERR" >&2
        exit 1
    fi
done
echo "analyze: ECC-flipped profile ($ECC_NULLS null cells) composed; wrapped-tail.tkt and huge-count.tkt refused with exit 1"

# One key, two printers: a sweep cell's record and a store object embed their
# key as compact text, and a read compares those bytes. KEY_REFERENCE (default
# commit 3a10682, the last build that built and compared key trees) and this
# tree are built under one fingerprint, in target directories of their own,
# so their keys may differ only if their printers do: each build must find
# the other's 12 cells cached and the two manifests must be equal. A store
# object of this build carries its report's length and digest: the reference
# daemon, which walks the record and skips members it does not know, must
# replay a run this daemon stored byte for byte; an object the reference
# stored has no digest, so this daemon meets it as a plain miss, quarantines
# nothing, and its own next run is a hit.
echo "== cache: this build and the reference answer each other's records =="
KEY_REFERENCE=${KEY_REFERENCE:-3a1068227d48c62a3d11ac5dcc98996f0416fb80}
KEY_DIR="$SWEEP_DIR/key-compat"
if git cat-file -e "$KEY_REFERENCE^{commit}" 2>/dev/null; then
    KEY_FP="key-compat-$KEY_REFERENCE"
    REF_SRC=$(mktemp -d)
    git archive "$KEY_REFERENCE" | tar -x -C "$REF_SRC"
    declare -A KEY_SRC=([reference]="$REF_SRC" [change]="$ROOT")
    for build in reference change; do
        (cd "${KEY_SRC[$build]}" && CARGO_TARGET_DIR="$ROOT/target/verify-key-$build" \
            RAJAPERF_BUILD_FINGERPRINT="$KEY_FP" cargo build --release --offline --quiet \
            -p suite -p rajaperfd --bin rajaperf --bin rajaperfd)
    done
    rm -rf "$REF_SRC"
    key_bin() { echo "$ROOT/target/verify-key-$1/release/$2"; }
    key_sweep() {  # <build> <dir>: a 12-cell sweep from <dir>, its first line
        mkdir -p "$KEY_DIR/$2"
        local out
        out=$(cd "$KEY_DIR/$2" && "$(key_bin "$1" rajaperf)" --sweep --groups Stream --size 1000 \
            --reps 1 --sweep-block-sizes 128,256 --sweep-dir sweep)
        echo "${out%%$'\n'*}"
    }
    for build in reference change; do
        key_sweep "$build" "$build" >/dev/null
    done
    for pair in "reference change" "change reference"; do
        read -r build other <<<"$pair"
        RESCAN=$(key_sweep "$build" "$other")
        [[ "$RESCAN" == "Sweep: 12 cells (12 cached)" ]] \
            || { echo "verify: FAIL — the $build build re-scanning the $other build's sweep: $RESCAN" >&2; exit 1; }
    done
    cmp "$KEY_DIR/reference/sweep/manifest.json" "$KEY_DIR/change/sweep/manifest.json" \
        || { echo "verify: FAIL — the two builds' manifests differ" >&2; exit 1; }
    key_run() {  # <build> <store> <events file>: one run through <build>'s daemon on <store>
        local sock="$KEY_DIR/d.sock"
        "$(key_bin "$1" rajaperfd)" --socket "$sock" --store "$KEY_DIR/$2" --workers 1 >/dev/null 2>&1 &
        local pid=$!
        for _ in $(seq 1 50); do
            [[ -S "$sock" ]] && break
            sleep 0.1
        done
        "$ROOT/target/release/rajaperf-client" --socket "$sock" --id compat run -- \
            --kernels Basic_DAXPY,Stream_TRIAD --size 1000 --reps 1 >"$KEY_DIR/$3.events"
        "$ROOT/target/release/rajaperf-client" --socket "$sock" shutdown >/dev/null
        wait "$pid"
    }
    key_result() { grep '"event":"result"' "$KEY_DIR/$1.events"; }
    key_run change stored-here change-miss
    key_run reference stored-here reference-hit
    STORED=$(key_result change-miss | sed 's/"cached":false/"cached":true/')
    [[ "$STORED" == *'"cached":true'* && "$STORED" == "$(key_result reference-hit)" ]] \
        || { echo "verify: FAIL — the reference daemon does not replay this daemon's stored run byte for byte" >&2; exit 1; }
    key_run reference stored-there reference-miss
    key_run change stored-there change-meets-reference
    key_run change stored-there change-hit
    [[ "$(key_result change-meets-reference)" == *'"cached":false'* \
        && ! -e "$KEY_DIR/stored-there/quarantine" \
        && "$(key_result change-hit)" == *'"cached":true'* ]] \
        || { echo "verify: FAIL — the reference daemon's digest-less object is not a plain miss here, then a hit" >&2; exit 1; }
    echo "cache: each build found the other's 12 cells cached, manifests equal; the reference daemon replayed this daemon's stored run byte for byte; its own object was a plain miss here, then a hit"
else
    echo "cache: reference commit $KEY_REFERENCE not in this clone, comparison skipped"
fi

echo "== daemon: rajaperfd smoke (run, store hit, graceful shutdown) =="
DAEMON=target/release/rajaperfd
CLIENT=target/release/rajaperf-client
DAEMON_DIR="$SWEEP_DIR/daemon-smoke"
mkdir -p "$DAEMON_DIR"
DSOCK="$DAEMON_DIR/d.sock"
"$DAEMON" --socket "$DSOCK" --store "$DAEMON_DIR/store" --workers 2 &
DAEMON_PID=$!
for _ in $(seq 1 50); do
    [[ -S "$DSOCK" ]] && break
    sleep 0.1
done
"$CLIENT" --socket "$DSOCK" ping | grep -q '"event":"pong"' \
    || { echo "verify: FAIL — daemon did not answer ping" >&2; exit 1; }
RUN1=$("$CLIENT" --socket "$DSOCK" --id smoke run -- --kernels Basic_DAXPY --size 100000 --reps 2)
echo "$RUN1" | grep -q '"event":"progress"' \
    || { echo "verify: FAIL — daemon run streamed no progress events" >&2; exit 1; }
echo "$RUN1" | grep -q '"cached":false' \
    || { echo "verify: FAIL — first daemon run should not be cached" >&2; exit 1; }
ls "$DAEMON_DIR"/store/objects/*/*.json >/dev/null 2>&1 \
    || { echo "verify: FAIL — no object persisted in the profile store" >&2; exit 1; }
RUN2=$("$CLIENT" --socket "$DSOCK" --id smoke run -- --kernels Basic_DAXPY --size 100000 --reps 2)
echo "$RUN2" | grep -q '"cached":true' \
    || { echo "verify: FAIL — identical request not served from the store" >&2; exit 1; }
if echo "$RUN2" | grep -q '"event":"progress"'; then
    echo "verify: FAIL — store hit re-executed kernels (progress events seen)" >&2
    exit 1
fi
# The hit sends what the miss sent: the two result events differ only in
# `cached` (same id, same store key, same report).
RESULT1=$(grep '"event":"result"' <<<"$RUN1" | sed 's/"cached":false/"cached":true/')
RESULT2=$(grep '"event":"result"' <<<"$RUN2")
[[ -n "$RESULT2" && "$RESULT1" == "$RESULT2" ]] \
    || { echo "verify: FAIL — the store hit's result event is not the miss's with cached=true" >&2; exit 1; }
# A fault-armed request and a clean one side by side: the clean one must
# finish, untouched, while the other is still stalling.
"$CLIENT" --socket "$DSOCK" run -- --kernels Basic_DAXPY --size 100000 --reps 2 \
    --faults 'suite.kernel=stall(1500),seed=1' >"$DAEMON_DIR/stalled.out" &
STALLED_PID=$!
for _ in $(seq 1 50); do
    grep -q '"event":"started"' "$DAEMON_DIR/stalled.out" && break
    sleep 0.1
done
CLEAN=$("$CLIENT" --socket "$DSOCK" run -- --kernels Stream_TRIAD --size 100000 --reps 2)
kill -0 "$STALLED_PID" 2>/dev/null \
    || { echo "verify: FAIL — clean request waited out a fault-armed neighbor" >&2; exit 1; }
echo "$CLEAN" | grep -q '"all_passed":true' \
    || { echo "verify: FAIL — clean request beside a fault-armed one did not pass" >&2; exit 1; }
if echo "$CLEAN" | grep -q 'fault\.injected_total'; then
    echo "verify: FAIL — a neighbor's injected faults reached a clean request" >&2
    exit 1
fi
wait "$STALLED_PID"
grep -q '"fault.injected_total":1' "$DAEMON_DIR/stalled.out" \
    || { echo "verify: FAIL — the fault-armed request did not record its own fault" >&2; exit 1; }
# A process-ranked sweep through the daemon: the daemon supervises child
# rank processes; after shutdown none may survive as orphans.
PSWEEP_DIR="$DAEMON_DIR/psweep"
"$CLIENT" --socket "$DSOCK" sweep -- --sweep --sweep-dir "$PSWEEP_DIR" \
    --kernels Basic_DAXPY --size 100000 --reps 1 \
    --rank-isolation process --ranks 2 | grep -q '"isolation":"process"' \
    || { echo "verify: FAIL — daemon sweep did not report process isolation" >&2; exit 1; }
[[ -f "$PSWEEP_DIR/manifest.json" ]] \
    || { echo "verify: FAIL — daemon process-ranked sweep wrote no manifest" >&2; exit 1; }
"$CLIENT" --socket "$DSOCK" shutdown >/dev/null
wait "$DAEMON_PID"
[[ ! -S "$DSOCK" ]] || { echo "verify: FAIL — socket file left behind after shutdown" >&2; exit 1; }
if pgrep -f "$PSWEEP_DIR" >/dev/null 2>&1; then
    echo "verify: FAIL — daemon shutdown left orphan rank workers:" >&2
    pgrep -af "$PSWEEP_DIR" >&2
    exit 1
fi
echo "daemon: run streamed, store hit replayed (result = the miss's but for cached), fault-armed + clean requests isolated, process-ranked sweep left no orphans, clean shutdown"

# No input kills a process: a line of 200 000 `[` used to overflow the accept
# thread's stack in the JSON parser (the daemon aborted; the next connect was
# refused) and a request line was buffered at whatever size it came; 300 000
# `[` as a profile aborted rajaperf-analyze. Each is a typed error now.
echo "== hostile input: deep and over-long request lines, a deep-nested profile =="
HOSTILE_DIR="$SWEEP_DIR/hostile-input"
mkdir -p "$HOSTILE_DIR/corpus"
HSOCK="$HOSTILE_DIR/d.sock"
"$DAEMON" --socket "$HSOCK" --store "$HOSTILE_DIR/store" --workers 1 2>/dev/null &
HOSTILE_PID=$!
for _ in $(seq 1 50); do
    [[ -S "$HSOCK" ]] && break
    sleep 0.1
done
raw_line() {  # <deep|long>: send one hostile line, print every reply line
    python3 - "$HSOCK" "$1" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
line = b"[" * 200000 if sys.argv[2] == "deep" else b'{"kind":"ping","pad":"' + b"x" * (2 << 20) + b'"}'
try:
    s.sendall(line + b"\n")
except OSError:
    pass  # the daemon stops reading an over-long line and hangs up
reply = b""
while True:
    try:
        chunk = s.recv(65536)
    except OSError:
        break
    if not chunk:
        break
    reply += chunk
sys.stdout.write(reply.decode())
PY
}
for kind in deep long; do
    REPLY=$(raw_line "$kind")
    if [[ $(grep -c '"event":"error"' <<<"$REPLY") -ne 1 || $(grep -c '"event":"done"' <<<"$REPLY") -ne 1 ]] \
        || ! grep -q '"code":"usage"' <<<"$REPLY" || ! grep -q '"exit_code":2' <<<"$REPLY"; then
        echo "verify: FAIL — $kind request line: expected one usage error + done (exit 2), got: $REPLY" >&2
        exit 1
    fi
    "$CLIENT" --socket "$HSOCK" ping | grep -q '"event":"pong"' \
        || { echo "verify: FAIL — daemon did not answer ping after the $kind line" >&2; exit 1; }
done
"$CLIENT" --socket "$HSOCK" shutdown >/dev/null
wait "$HOSTILE_PID"
cp $(ls "$SWEEP_DIR"/profiles/*.cali.json | head -2) "$HOSTILE_DIR/corpus/"
python3 -c "import sys; open(sys.argv[1], 'w').write('[' * 300000)" "$HOSTILE_DIR/corpus/b.cali.json"
HOSTILE_ERR=$("$ANALYZE" "$HOSTILE_DIR/corpus" 2>&1 >/dev/null) \
    || { echo "verify: FAIL — analyzer did not survive a deep-nested profile: $HOSTILE_ERR" >&2; exit 1; }
grep -q "skipping .*b.cali.json.*nesting deeper than 128 at byte" <<<"$HOSTILE_ERR" \
    || { echo "verify: FAIL — deep-nested profile not skipped with the nesting error: $HOSTILE_ERR" >&2; exit 1; }
grep -q "1 of 3 profile(s) skipped" <<<"$HOSTILE_ERR" \
    || { echo "verify: FAIL — analyzer skip count wrong: $HOSTILE_ERR" >&2; exit 1; }
echo "hostile input: both lines answered error + done (exit 2) with a pong after; deep profile skipped, 1 of 3"

# Three requests that used to end badly: an 800 GB `--size` was an allocation
# failure that took the daemon down (the memory limit makes that the outcome
# here instead of the OOM killer's pick); `--sweep-block-sizes 64,64` ran 12
# cells over 6 file names; a misspelt `--metric` was an empty table, exit 0.
echo "== limits: oversize request, duplicate block sizes, misspelt metric =="
LIMITS_DIR="$SWEEP_DIR/limits"
mkdir -p "$LIMITS_DIR"
LSOCK="$LIMITS_DIR/d.sock"
(ulimit -v 3000000; exec "$DAEMON" --socket "$LSOCK" --store "$LIMITS_DIR/store" --workers 1) 2>/dev/null &
LIMITS_PID=$!
for _ in $(seq 1 50); do
    [[ -S "$LSOCK" ]] && break
    sleep 0.1
done
set +e
REPLY=$("$CLIENT" --socket "$LSOCK" run -- --kernels Basic_DAXPY --size 100000000000 --reps 1)
OVERSIZE_CODE=$?
set -e
if [[ "$OVERSIZE_CODE" -ne 2 || $(grep -c '"event":"error"' <<<"$REPLY") -ne 1 || $(grep -c '"event":"done"' <<<"$REPLY") -ne 1 ]] \
    || ! grep -q '"code":"usage"' <<<"$REPLY" || ! grep -q '"exit_code":2' <<<"$REPLY"; then
    echo "verify: FAIL — oversize request: expected one usage error + done (exit 2), got $OVERSIZE_CODE: $REPLY" >&2
    exit 1
fi
"$CLIENT" --socket "$LSOCK" ping | grep -q '"event":"pong"' \
    || { echo "verify: FAIL — daemon did not answer ping after the oversize request" >&2; exit 1; }
"$CLIENT" --socket "$LSOCK" shutdown >/dev/null
wait "$LIMITS_PID"
DUP_OUT=$("$RAJAPERF" --sweep --sweep-dir "$LIMITS_DIR/sw" --sweep-block-sizes 64,64 \
    --kernels Basic_DAXPY --size 1000 --reps 1)
dup_profiles=$(ls "$LIMITS_DIR"/sw/profiles/*.cali.json | wc -l)
if [[ "$dup_profiles" -ne 6 || "$DUP_OUT" != *"Sweep: 6 cells"* ]]; then
    echo "verify: FAIL — --sweep-block-sizes 64,64: $dup_profiles profiles, '${DUP_OUT%%$'\n'*}'" >&2
    exit 1
fi
set +e
"$ANALYZE" "$LIMITS_DIR/sw/profiles" --metric nope >/dev/null 2>&1
NOPE_CODE=$?
set -e
[[ "$NOPE_CODE" -eq 2 ]] \
    || { echo "verify: FAIL — rajaperf-analyze --metric nope exited $NOPE_CODE, not 2" >&2; exit 1; }
echo "limits: oversize request refused (usage, exit 2) with a pong after; 64,64 is 6 cells, 6 profiles; --metric nope exits 2"

# Corpus-scale columnar engine smoke: 50k synthetic profiles through
# streaming ingest, parallel groupby+stats, and feature clustering, under a
# CI-scaled wall-clock budget (the binary exits 1 when over). Run at two
# rayon widths and compare digests: the parallel aggregation must be
# bitwise-deterministic across thread counts.
echo "== corpus: columnar thicket smoke (50k profiles, 1 vs 4 threads) =="
SMOKE1=$(RAYON_NUM_THREADS=1 target/release/corpus_smoke 50000)
echo "$SMOKE1" | head -1
SMOKE4=$(RAYON_NUM_THREADS=4 target/release/corpus_smoke 50000)
DIGEST1=$(echo "$SMOKE1" | grep "digest=")
DIGEST4=$(echo "$SMOKE4" | grep "digest=")
if [[ -z "$DIGEST1" || "$DIGEST1" != "$DIGEST4" ]]; then
    echo "verify: FAIL — corpus digests diverged across thread widths:" >&2
    echo "  1 thread:  $DIGEST1" >&2
    echo "  4 threads: $DIGEST4" >&2
    exit 1
fi
echo "corpus: budget met at both widths, $DIGEST1 reproduced bitwise"

# Daemon latency perf budget: median-of-3 round-trips against wall-clock
# thresholds (3x under CI=true) — catches service-layer stalls, not µs drift.
echo "== daemon: latency budget (cargo test --release -p rajaperfd --test latency_budget) =="
cargo test --release -p rajaperfd --test latency_budget

# The performance ledger is what the pipeline runs after this script: it must
# still build against this tree and pass every one of its gates, and building
# it must leave benchmark/ untouched (in particular benchmark/Cargo.lock —
# a crate in the ledger's lock that gained or lost a dependency rewrites it).
echo "== ledger: benchmark/run.sh --smoke (five workloads, ops_failed 0, benchmark/ unchanged) =="
LEDGER_OUT=$(bash benchmark/run.sh --smoke) \
    || { echo "verify: FAIL — benchmark/run.sh --smoke did not build or an operation failed" >&2; exit 1; }
LEDGER_OK=$(echo "$LEDGER_OUT" | grep -cE ": ops_attempted [0-9]+ ops_failed 0$" || true)
if [[ "$LEDGER_OK" -ne 5 ]]; then
    echo "$LEDGER_OUT" | grep "ops_attempted" >&2 || true
    echo "verify: FAIL — expected 5 ledger workloads with ops_failed 0, got $LEDGER_OK" >&2
    exit 1
fi
LEDGER_DIRT=$(git status --porcelain -- benchmark BENCHMARK.json)
if [[ -n "$LEDGER_DIRT" ]]; then
    echo "verify: FAIL — the benchmark's own files changed:" >&2
    echo "$LEDGER_DIRT" >&2
    exit 1
fi
echo "ledger: 5 workloads, ops_failed 0, benchmark/ and BENCHMARK.json unchanged"

# The pipeline builds the ledger from the *committed* files in a fresh
# directory, so a file this tree has but `git add -A` would not commit (an
# ignored or forgotten one) only fails there. Build exactly that tree: a
# clone of HEAD overlaid with what `git add -A` would stage.
echo "== ledger: benchmark/run.sh --smoke from a clean clone of what would be committed =="
CLONE=$(mktemp -d)
git clone --quiet . "$CLONE/repo"
git ls-files -co --exclude-standard -z | while IFS= read -r -d '' f; do
    if [[ -e "$f" ]]; then cp --parents "$f" "$CLONE/repo"; else rm -f "$CLONE/repo/$f"; fi
done
CLONE_OK=$(cd "$CLONE/repo" && bash benchmark/run.sh --smoke \
    | grep -cE ": ops_attempted [0-9]+ ops_failed 0$" || true)
rm -rf "$CLONE"
if [[ "$CLONE_OK" -ne 5 ]]; then
    echo "verify: FAIL — from a clean clone, expected 5 ledger workloads with ops_failed 0, got $CLONE_OK" >&2
    exit 1
fi
echo "ledger: clean clone builds and runs, 5 workloads, ops_failed 0"

echo "verify: OK"
