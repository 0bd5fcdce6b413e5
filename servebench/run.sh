#!/usr/bin/env bash
# Build the release `serve` binary and the benchmark program from source,
# then run one benchmark:
#
#   bash servebench/run.sh --workload diverse-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, results to stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dust-bench --bin serve 1>&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml 1>&2
rev=none
if [ -e .git ]; then rev="$(git rev-parse --short HEAD 2>/dev/null || echo none)"; fi
SERVEBENCH_GIT_REV="$rev" \
SERVEBENCH_RUSTC="$(rustc --version)" \
SERVEBENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
exec "$CARGO_TARGET_DIR/release/servebench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --work-dir "$CARGO_TARGET_DIR/servebench-work" "$@"
