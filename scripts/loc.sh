#!/usr/bin/env bash
# Workspace non-test lines of code, by the method ROADMAP tracks (PR 12's):
# every line of each .rs file under crates/ src/ examples/ up to (not
# including) its first `#[cfg(test)]`; `tests/` directories and the frozen
# `driver_e2e` benchmark package are excluded.
#
#   scripts/loc.sh            # the total
#   scripts/loc.sh --by-file  # per-file counts, largest first, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' \
    -not -path '*/driver_e2e/*' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 awk -v by_file="${1:-}" '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[FILENAME]++; total++ }
        END {
            if (by_file == "--by-file")
                for (f in lines) printf "%6d %s\n", lines[f], f | "sort -rn"
            close("sort -rn")
            print total
        }'
