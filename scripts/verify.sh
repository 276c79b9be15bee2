#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): release build, then the static-analysis
# gate (scripts/lint.sh: sovia-lint + clippy, DESIGN.md §10), the test
# suite, the full workspace test run (the root `cargo test` only covers
# the root package), and the golden-results check (all six
# results/*.txt must regenerate byte-identically, sequentially and in
# parallel).
#
# The workspace run includes the fault-injection suites (DESIGN.md §8):
#   - tests/proptest_faults.rs        random lossy streams, exact-or-error
#   - tests/half_close.rs             teardown + disconnect-while-blocked
#   - crates/via/tests/error_paths.rs every VipError via the public API
#   - crates/bench/tests/determinism.rs  empty-plan no-op + sweep identity
# and the trace gate (DESIGN.md §9):
#   - crates/bench/tests/trace.rs     tracing is a virtual-time no-op,
#     trace JSON byte-identical at --threads 1/2/8 and across runs, and
#     the latency breakdown sums exactly to the end-to-end numbers
# The explicit invocations below fail loudly if a suite is ever renamed
# or dropped from the workspace (a silent `0 tests run` would otherwise
# pass).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
scripts/lint.sh
cargo test -q
cargo test --workspace -q --no-fail-fast
cargo test -q --test proptest_faults --test half_close
cargo test -q -p via --test error_paths
cargo test -q -p bench --test determinism
cargo test -q -p bench --test trace
scripts/regen_results.sh
echo "tier-1 OK"
