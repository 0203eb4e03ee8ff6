#!/usr/bin/env bash
# The benchmark's one command. Builds the package from source (a no-op
# after the first time) and runs one workload in a process of its own:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# --trace 1 selects the traced binary (counting allocator, span log);
# every end-to-end number comes from the untraced one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --locked --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bins >&2

bin=rck-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == --trace && "$arg" == 1 ]]; then
        bin=rck-benchmark-traced
    fi
    prev="$arg"
done

exec "$target/release/$bin" "$@"
