#!/usr/bin/env bash
# The performance ledger. Builds the programs under test and the harness,
# then hands every argument to the harness:
#
#   benchmark/run.sh --seed 7                    # full ledger: untraced, then traced
#   benchmark/run.sh --workload daemon_serve --seed 7 --seconds 20 --trace 0
#   benchmark/run.sh --smoke                     # every gate, least inputs, < 20 s
#   benchmark/run.sh --check                     # same build twice, against the bounds
#   benchmark/run.sh --compare A.json B.json     # baseline diff of two result files
#
# Two builds, one target directory: the release binaries exactly as
# `cargo build --release` at the root makes them (the end-to-end numbers
# drive those), and this package, which links the same crates for the
# in-process layer numbers. Nothing outside benchmark/ is written to except
# the target directory.
set -euo pipefail
cd "$(dirname "$0")/.."

# Relative on purpose: the daemon's unix-socket path lives under it and must
# stay short.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build chatter goes to stderr so the harness's last stdout line stays last.
cargo build --release --offline --quiet -p suite -p rajaperfd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/ledger" "$@"
