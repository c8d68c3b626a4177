#!/usr/bin/env bash
# CI gate: formatting, lints, tests, and the kernel static-analysis pass.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors, so a doc link to deleted or private code
# fails here. `--lib` because the facade lib `upmem_nw` and the CLI binary
# `upmem-nw` would otherwise write to the same doc path.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> cargo test -q"
cargo test --workspace -q

# perfbench, the repo benchmark, is a workspace of its own that builds
# against the host crates' public names. Nothing else in CI compiles it, and
# those names (`Engine::Lockstep`, `execute_rounds`,
# `execute_rounds_pipelined`, `dispatch::plan_rank`,
# `cpu_baseline::ksw2::Ksw2Aligner`, `isa_loops::measure_gated_mode`,
# `CellCosts::for_variant_mode`, `pim_sim::isa::InterpMode`) exist only for
# it, so gate its build here. `execute_rounds*` are no engine ticket: they
# are a plain launch loop over prebuilt plans, kept for perfbench alone.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# perfbench's own self-test, run against a fresh daemon binary: every
# workload answers correctly with no failed operation, serve-short never
# hits the cache, serve-hot-durable hits, evicts and appends to its WAL,
# and batch-long's simulated clock repeats exactly. It catches a daemon
# change that compiles but breaks a workload before the benchmark does.
# The path is absolute: the test runs from perfbench's own directory.
echo "==> perfbench self-test"
cargo build --release -q -p upmem-nw-cli
UPMEM_NW_BIN="$PWD/target/release/upmem-nw" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> upmem-nw lint"
cargo run --release -q -p upmem-nw-cli --bin upmem-nw -- lint

# Machine-readable lint: every built-in kernel must verify clean, carry a
# finite symbolic WCET bound, and prove its cross-tasklet WRAM partition
# (the race-freedom fact that lets the cost measurement skip the sanitizer).
echo "==> upmem-nw lint --json"
LINT_JSON="$(mktemp -t LINT.XXXXXX.json)"
cargo run --release -q -p upmem-nw-cli --bin upmem-nw -- lint --json true > "$LINT_JSON"
python3 - "$LINT_JSON" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    lint = json.load(f)

for key in ["kernels", "kernels_verified", "total_errors", "total_warnings", "ok"]:
    assert key in lint, f"missing top-level key {key!r}"
assert lint["ok"] is True and lint["total_errors"] == 0
assert lint["kernels_verified"] == 4, "expected pure_c/asm x score/traceback"
for k in lint["kernels"]:
    for key in ["kernel", "instructions", "errors", "warnings", "diagnostics",
                "sanitizer", "wcet", "race_free"]:
        assert key in k, f"missing kernel key {key!r}"
    assert k["errors"] == 0 and k["sanitizer"] == "clean"
    assert k["wcet"]["finite"] is True, f"{k['kernel']}: WCET bound not finite"
    assert k["wcet"]["eval_at_192_cells"] > 0
    assert k["race_free"] is True, f"{k['kernel']}: WRAM partition unproven"
print(f"LINT json OK: {lint['kernels_verified']} kernels, all bounds finite, "
      f"all partitions proven")
EOF
rm -f "$LINT_JSON"

# WCET soundness at smoke scale: random kernel shapes and band contents
# must never retire more instructions than the symbolic bound claims, a
# watchdog budget derived from the bound must not reap healthy kernels,
# and the per-launch bound the engine budgets every DPU with must cover
# random launches (1-48 jobs of 10 bp to 30 kbp) on every P x T the repo
# runs, both kernel variants and both modes, without its slack.
echo "==> WCET soundness property tests (smoke scale)"
WCET_SMOKE_TRIALS=40 cargo test --release -q -p dpu-kernel --test wcet_soundness -- --nocapture

# The static-band sweep (`BandedAligner`, KSW2-structured, also the CPU
# baseline's kernel): bit-identical to the test's row-sweep reference
# (scores, CIGARs, and errors), score-only path included.
echo "==> KSW2 baseline vs reference aligner"
KSW2_SMOKE_TRIALS=60 cargo test -q -p cpu-baseline \
    --test ksw2_reference -- --nocapture

# Fault-injection tests: seeded chaos plans (dead rank, disabled DPUs,
# launch faults, corruption, tasklet livelocks reaped by the cycle-budget
# watchdog, and silent CIGAR corruption only the result audit can catch)
# must lose zero jobs and keep every score and CIGAR identical to the
# fault-free run, at FIFO depth 1 and 2, CI's seed-42 plan among them,
# in all three modes: align_pairs, all_vs_all and align_sets.
# Every launch runs each DPU under the WCET-derived budget of its own
# batch, so a too-tight bound surfaces here: as lost jobs under faults, or
# as a dirty report on a clean run.
echo "==> fault recovery tests (chaos plans, all three modes, WCET watchdog budgets)"
cargo test --release -q --test fault_recovery -- --nocapture

# Dispatch-engine smoke: run the host-throughput benchmark at smoke scale
# (the one engine at FIFO depth 1, the `lockstep` entry, vs the default
# depth, the `pipelined` entry, with and without an injected straggler).
# Every run is one `align_pairs` job ticket under the derived per-launch
# watchdog; the guard condition turns on the ticket's result audit
# (`RecoveryConfig::audit`).
# The command itself fails if the depths disagree bit-for-bit; then check
# the emitted JSON has the shape downstream tooling consumes.
echo "==> upmem-nw bench --smoke true"
BENCH_JSON="$(mktemp -t BENCH_dispatch.XXXXXX.json)"
trap 'rm -f "$BENCH_JSON"' EXIT
cargo run --release -q -p upmem-nw-cli --bin upmem-nw -- bench --smoke true --json "$BENCH_JSON"

echo "==> validate BENCH_dispatch.json"
python3 - "$BENCH_JSON" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)

for key in ["bench", "schema_version", "pairs", "ranks", "dpus_per_rank",
            "rounds", "fifo_depth", "seed", "straggler", "lockstep",
            "pipelined", "no_fault", "guard", "speedup_host_wall",
            "bit_identical"]:
    assert key in bench, f"missing top-level key {key!r}"
assert bench["bench"] == "dispatch"
assert bench["schema_version"] == 1, "unexpected BENCH schema version"
assert bench["bit_identical"] is True, "engines must agree bit-for-bit"

# Robustness-guard overhead: the per-result audit must be ~free on a clean
# run — under 3% of the unaudited best-of host wall, with a small absolute
# floor so timer noise on a fast smoke run cannot flake the gate. Both
# conditions launch under the derived watchdog, whose largest budget
# `watchdog_cycles` reports.
guard = bench["guard"]
for key in ["watchdog_cycles", "audit", "reps", "clean_host_wall_seconds",
            "guarded_host_wall_seconds", "overhead_fraction", "audited",
            "bit_identical"]:
    assert key in guard, f"missing guard key {key!r}"
assert guard["audit"] is True and guard["watchdog_cycles"] > 0
assert guard["bit_identical"] is True, "guards must not change results"
assert guard["audited"] == bench["pairs"], "every result must be audited"
c = guard["clean_host_wall_seconds"]
g = guard["guarded_host_wall_seconds"]
assert (g - c) < max(0.03 * c, 0.002), \
    f"audit overhead too high: clean {c:.4f}s vs guarded {g:.4f}s"
for run in [bench["lockstep"], bench["pipelined"],
            bench["no_fault"]["lockstep"], bench["no_fault"]["pipelined"]]:
    for key in ["host_wall_seconds", "simulated_seconds", "pairs_per_second"]:
        assert key in run, f"missing per-run key {key!r}"
        assert run[key] >= 0
assert "stall" in bench["pipelined"], "pipelined run must report stall metrics"
for key in ["per_rank_stall_seconds", "per_rank_busy_seconds", "max_fifo_occupancy",
            "plan_seconds", "decode_seconds", "encode_overlap_fraction",
            "buffers_reused", "buffers_allocated"]:
    assert key in bench["pipelined"]["stall"], f"missing stall key {key!r}"
print(f"BENCH_dispatch.json OK: straggler speedup {bench['speedup_host_wall']:.2f}x, "
      f"no-fault speedup {bench['no_fault']['speedup_host_wall']:.2f}x, "
      f"guard overhead {100.0 * guard['overhead_fraction']:.2f}%")
EOF

# Serving smoke: boot the persistent daemon with a deliberately tiny
# queue, drive it over its unix socket — two warm-up requests, a burst
# fired past queue capacity, an already-expired deadline, then a graceful
# drain — and audit the final report's conservation law: every request is
# answered exactly once (a result, an explicit rejection, or an explicit
# shed), accepted == completed + deadline_missed + shed and
# received == accepted + rejected, nothing silently lost. The daemon runs
# with a durable state directory, so its cache WAL and request journal
# take every request too.
echo "==> upmem-nw serve smoke"
SERVE_SOCK="$(mktemp -u -t upmem-nw-ci.XXXXXX.sock)"
SERVE_JSON="$(mktemp -t SERVE_report.XXXXXX.json)"
SERVE_STATE="$(mktemp -d -t upmem-nw-ci-state.XXXXXX)"
RESTART_JSON="$(mktemp -t SERVE_restart.XXXXXX.json)"
trap 'rm -f "$BENCH_JSON" "$SERVE_JSON" "$RESTART_JSON" "$SERVE_SOCK"; rm -rf "$SERVE_STATE"' EXIT
cargo build --release -q -p upmem-nw-cli
./target/release/upmem-nw serve --socket "$SERVE_SOCK" --ranks 2 --dpus 4 \
    --band 64 --queue-requests 2 --queue-pairs 8 --max-open 2 \
    --state-dir "$SERVE_STATE" --json "$SERVE_JSON" &
SERVE_PID=$!
python3 - "$SERVE_SOCK" <<'EOF'
import json, socket, sys, time

BURST = 10
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
give_up = time.time() + 10
while True:
    try:
        s.connect(sys.argv[1])
        break
    except OSError:
        if time.time() > give_up:
            raise
        time.sleep(0.05)
f = s.makefile("rw")
def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
def recv():
    return json.loads(f.readline())
seq = "ACGT" * 64

# Warm-up: two well-behaved requests complete with reference-shaped results.
send({"id": "a", "pairs": [[seq, seq], [seq, seq]]})
send({"id": "b", "priority": "interactive", "pairs": [[seq, seq]]})
answers = {v["id"]: v for v in (recv(), recv())}
assert answers["a"]["type"] == "result" and answers["a"]["disposition"] == "ok"
assert [r["status"] for r in answers["a"]["results"]] == ["ok", "ok"]
assert answers["b"]["disposition"] == "ok"

# Burst past queue capacity (2 open tickets + 2 queued < 10 in flight):
# every request must come back as a result or an explicit queue-full
# rejection with a retry hint — never silence.
for i in range(BURST):
    send({"id": f"burst-{i}", "priority": "batch", "pairs": [[seq, seq]]})
burst, rejected = {}, 0
for _ in range(BURST):
    v = recv()
    burst[v["id"]] = v
    if v["type"] == "reject":
        rejected += 1
        assert v["reason"] == "queue-full" and v["retry_after_ms"] >= 1, v
    else:
        assert v["type"] == "result" and v["disposition"] == "ok", v
assert len(burst) == BURST, f"burst answers lost: {sorted(burst)}"

# A request already expired on arrival is reaped, not dropped.
send({"id": "late", "deadline_ms": 0, "pairs": [[seq, seq]]})
v = recv()
assert v["id"] == "late" and v["disposition"] == "deadline-missed"
assert [r["status"] for r in v["results"]] == ["cancelled"]

send({"op": "drain"})
acks = 0
for line in f:
    assert json.loads(line).get("type") == "draining", line
    acks += 1
assert acks == 1, f"expected one drain ack, got {acks}"
print(f"serve client OK: warm-up + burst of {BURST} ({rejected} rejected) "
      f"+ expired deadline all answered, drained on request")
EOF
wait "$SERVE_PID"

echo "==> validate serve report"
python3 - "$SERVE_JSON" "$SERVE_STATE" <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    rep = json.load(f)
for key in ["schema_version", "report", "received", "invalid", "accepted",
            "rejected", "shed", "completed", "deadline_missed",
            "pairs_accepted", "pairs_completed", "jobs_cancelled",
            "max_queue_depth", "latency_p50_ms", "latency_p99_ms",
            "wall_seconds", "pairs_per_sec", "drained", "consistent", "fault"]:
    assert key in rep, f"missing report key {key!r}"
assert rep["schema_version"] == 1 and rep["report"] == "serve"
# Counter consistency: the daemon's own books must balance exactly.
assert rep["received"] == rep["accepted"] + rep["rejected"], rep
assert rep["accepted"] == rep["completed"] + rep["deadline_missed"] + rep["shed"], rep
assert rep["consistent"] is True
# 2 warm-up + 10 burst + 1 expired; the burst is same-priority so nothing
# sheds, and exactly the expired request misses its deadline.
assert rep["received"] == 13, rep
assert rep["deadline_missed"] == 1 and rep["shed"] == 0, rep
assert rep["completed"] == rep["accepted"] - 1, rep
assert rep["jobs_cancelled"] == 1 and rep["drained"] is True, rep
# Durability: every journaled admission closes exactly once, and the
# state directory holds one file per log, no leftover rewrite temp.
d = rep["durability"]
assert d["enabled"] is True, d
assert d["journal_appends"] == 2 * rep["received"], d
state = sorted(os.listdir(sys.argv[2]))
assert state == ["cache.wal", "requests.journal"], state
print(f"serve report OK: {rep['completed']} completed, {rep['rejected']} "
      f"rejected, {rep['deadline_missed']} deadline-missed, books balance, "
      f"{d['journal_appends']} journal records")
EOF

# A second lifetime on the same state directory, with no requests. The
# drain left the cache WAL compacted to the smoke's one resident key, so
# replay keeps every record and startup does not rewrite the file: the
# one compaction this lifetime reports is its own drain's.
echo "==> serve restart on the drained state"
./target/release/upmem-nw serve --socket "$SERVE_SOCK" --ranks 2 --dpus 4 \
    --band 64 --state-dir "$SERVE_STATE" --json "$RESTART_JSON" &
SERVE_PID=$!
python3 - "$SERVE_SOCK" <<'EOF'
import json, socket, sys, time

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
give_up = time.time() + 10
while True:
    try:
        s.connect(sys.argv[1])
        break
    except OSError:
        if time.time() > give_up:
            raise
        time.sleep(0.05)
f = s.makefile("rw")
f.write(json.dumps({"op": "drain"}) + "\n")
f.flush()
acks = [json.loads(line)["type"] for line in f]
assert acks == ["draining"], acks
EOF
wait "$SERVE_PID"
python3 - "$RESTART_JSON" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    rep = json.load(f)
d = rep["durability"]
assert rep["received"] == 0 and rep["consistent"] is True, rep
assert d["cache_recovered"] == 1, d
assert d["header_resets"] == 0 and d["corrupt_records_skipped"] == 0, d
assert d["wal_compactions"] == 1, f"startup rewrote a clean cache WAL: {d}"
assert rep["cache"]["resident"] == 1, rep["cache"]
print(f"serve restart OK: {d['cache_recovered']} cache entry recovered, "
      f"{d['wal_compactions']} compaction (the drain's)")
EOF

# Crash-injection drills: spawn the real daemon as a child against a
# durable state directory, SIGKILL it at seeded points mid-flight (seeds
# 42 and 0xD1CE), restart it against the same state, and check every
# answer bit-identical to a fault-free reference, the conservation law
# balanced across process lifetimes, recovery audit-gated (cold run: zero
# hits; final restart: recovered entries and warm hits), and the
# journaled-but-unanswered admission replayed. The corruption drills
# (seeds 7 and 0xBAD5EED) flip a byte in the persisted cache state and
# require the recovery scan to skip the damaged record rather than serve
# or refuse it.
echo "==> kill-injection drills"
cargo test --release -q -p upmem-nw-cli --test crash_recovery -- --nocapture

# Result-cache properties: the one-shot cached path, cold and warm, must
# be bit-identical to an uncached `align_pairs` run and to the adaptive
# aligner; cached results must be bit-identical to fresh computation under
# seeded fault plans; results the audit would reject must never enter the
# cache. The serve test drives the daemon's persistent cache and the live
# `stats` op over the unix socket.
echo "==> result cache tests"
cargo test --release -q --test result_cache -- --nocapture
cargo test --release -q --test serve_chaos serve_caches_repeats_and_reports_live_stats -- --nocapture

# Cache benchmark at smoke scale: the cached path at 0/30/90% duplicate
# phases against an uncached reference. The command itself fails unless
# every phase is bit-identical and the cache counters conserve; then check
# the JSON shape and the headline properties (lenient speedup — smoke runs
# are tiny and timing-noisy; the committed full-scale artifact is held to
# the strict bound below).
echo "==> upmem-nw bench --cache true --smoke true"
CACHE_JSON="$(mktemp -t BENCH_cache.XXXXXX.json)"
trap 'rm -f "$BENCH_JSON" "$SERVE_JSON" "$RESTART_JSON" "$SERVE_SOCK" "$CACHE_JSON"; rm -rf "$SERVE_STATE"' EXIT
./target/release/upmem-nw bench --cache true --smoke true --json "$CACHE_JSON"

echo "==> validate BENCH_cache.json (smoke)"
python3 - "$CACHE_JSON" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)

for key in ["bench", "schema_version", "pairs", "ranks", "dpus_per_rank",
            "band", "seed",
            "cache_phases", "dup90_cold_speedup", "dup90_warm_speedup",
            "conserved", "bit_identical"]:
    assert key in bench, f"missing top-level key {key!r}"
assert bench["bench"] == "cache"
assert bench["schema_version"] == 1, "unexpected BENCH schema version"
assert bench["bit_identical"] is True, "cached results must match uncached bit-for-bit"
assert bench["conserved"] is True, "cache counters must conserve"

assert [p["dup_fraction"] for p in bench["cache_phases"]] == [0.0, 0.3, 0.9]
for p in bench["cache_phases"]:
    for which in ["cold_cache", "warm_cache"]:
        c = p[which]
        assert c["hits"] + c["misses"] == c["lookups"], \
            f"dup {p['dup_fraction']}: {which} does not conserve: {c}"
        assert c["lookups"] == bench["pairs"], f"dup {p['dup_fraction']}: {which}"
    assert p["conserved"] is True and p["bit_identical"] is True, p
    assert p["warm_cache"]["hit_rate"] == 1.0, "warm run must hit on everything"
dup90 = bench["cache_phases"][-1]
assert dup90["cold_speedup"] >= 2.0, \
    f"90%-dup cold speedup only {dup90['cold_speedup']:.2f}x"
print(f"BENCH_cache.json (smoke) OK: dup90 cold "
      f"{dup90['cold_speedup']:.2f}x / warm {dup90['warm_speedup']:.2f}x")
EOF

# The committed full-scale artifact carries the acceptance numbers: the
# 90%-duplicate phase clears 5x end to end, cold and warm.
echo "==> validate committed BENCH_cache.json (full scale)"
python3 - BENCH_cache.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["bench"] == "cache" and bench["schema_version"] == 1
assert bench["bit_identical"] is True and bench["conserved"] is True
assert bench["dup90_cold_speedup"] >= 5.0, \
    f"90%-dup cold speedup only {bench['dup90_cold_speedup']:.2f}x"
assert bench["dup90_warm_speedup"] >= 5.0
print(f"committed BENCH_cache.json OK: dup90 cold "
      f"{bench['dup90_cold_speedup']:.2f}x / warm "
      f"{bench['dup90_warm_speedup']:.2f}x")
EOF

# Parallel-vs-sequential equivalence: the intra-rank pool must be
# bit-identical to the sequential launch, standalone and under the full
# dispatch stack with fault plans.
echo "==> intra-rank equivalence tests"
cargo test --release -q -p pim-sim parallel_launch_matches_sequential_bit_for_bit -- --nocapture
cargo test --release -q -p pim-host --test pipeline_equivalence parallel_intra_rank_is_bit_identical_under_fault_plans -- --nocapture

# Hang + silent-corruption equivalence: the recovery engine must deliver
# the fault-free answers under livelocks and checksum-valid CIGAR
# corruption at FIFO depth 1 and 2.
echo "==> hang/silent-corruption recovery equivalence"
cargo test --release -q -p pim-host --test pipeline_equivalence engines_survive_hangs_and_silent_corruption_with_audited_results -- --nocapture

echo "CI OK"
