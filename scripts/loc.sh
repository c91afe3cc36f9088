#!/usr/bin/env bash
# Counted lines of Rust, per crate and in total.
#
#   scripts/loc.sh
#
# Counts the `.rs` files under `crates/*/src`, `vendor/*/src` and `src/`.
# Skipped: any `tests/` directory, everything from a `#[cfg(test)]` line
# directly followed by `mod tests` to the end of that file, blank lines
# and `//` comment lines (doc comments included).
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { stop = 0; pending = 0 }
            stop { next }
            {
                line = $0
                sub(/^[ \t]+/, "", line)
                sub(/[ \t]+$/, "", line)
                if (pending) {
                    pending = 0
                    if (line ~ /^mod tests/) { stop = 1; held = 0; next }
                    n += held
                }
                if (line == "#[cfg(test)]") { pending = 1; held = 1; next }
                if (line == "" || line ~ /^\/\//) next
                n++
            }
            END { print n + 0 }
        '
}

total=0
for dir in crates/*/src vendor/*/src src; do
    [[ -d "$dir" ]] || continue
    name=${dir%/src}
    [[ "$name" == src ]] && name=rajaperf
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-22s %6d\n' "${name#*/}" "$lines"
done
printf '%-22s %6d\n' total "$total"
