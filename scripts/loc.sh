#!/usr/bin/env sh
# Counts non-test Rust lines under crates/, src/ and examples/: every
# line of every .rs file except those from a `#[cfg(test)]` line to the
# end of its file (test modules sit at the bottom of each file).
# Prints one number.
set -eu

cd "$(dirname "$0")/.."

# xargs may split the file list over several awk runs; sum their counts.
find crates src examples -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }
' | awk '{ total += $1 } END { print total + 0 }'
