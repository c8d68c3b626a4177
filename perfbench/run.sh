#!/usr/bin/env bash
# Build the `upmem-nw` daemon binary and the benchmark from source, then run
# one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-short --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
# Build artifacts land in $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); run state lands in .bench_run at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline -q --manifest-path "$root/Cargo.toml" -p upmem-nw-cli >&2
cargo build --release --offline -q --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --bin "$target/release/upmem-nw" --root "$root" "$@"
