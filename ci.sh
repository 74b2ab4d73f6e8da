#!/usr/bin/env bash
# Repository CI gate. Run from the repo root:
#   ./ci.sh
#
# Stages:
#   1. cargo fmt --check      — formatting is canonical
#   2. cargo clippy -D warnings (all targets) — lint-clean
#   3. tier-1 verify (ROADMAP.md): release build + test suite
#   4. structure gate: server cores stay simulator- and telemetry-free;
#      one JSON emitter and one ring compaction under crates/*/src;
#      trace args leave their emitters as stack slices; the
#      replication lane follows the segment (no log rescan on the write
#      path, no lane flag, no head appends from the cleaner); reachability
#      (two vendored crates and no criterion, every config field read,
#      every RPC verb sent, every YCSB option set by a caller); one
#      prefetch helper, one window cache per master and no per-Pull
#      slice reader; one scenario module (the migrating range, the
#      preload and the Migrate literal each in one file), one bench
#      target, no environment switches
#   5. the frozen repo benchmark still builds and self-checks
#   6. examples smoke: quickstart clean and fault-injected, every JSON
#      export loaded and checked by key; crash_recovery
#   7. bench smoke: figures day_in_the_life fig05; fig04 run in two
#      processes prints the same thing (no send order taken from a std
#      HashMap's per-process iteration order)
#   8. allocation gate: gather/replay migration hot path stays
#      sub-per-record on a many-segment log; recording a trace event
#      allocates nothing; hash-table stripes allocate on first insert;
#      histograms hold only what was recorded; a YCSB op costs its
#      client one allocation
#   9. tools/hostprof still compiles (when there is a C compiler)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

echo "==> structure gate: server cores and shell, one JSON writer, one ring"
# The protocol cores take (state, input, now) and return sends: no
# simulator context, no telemetry handle. The shell reports events to
# telemetry.rs and names no lane, activity or audit kind itself.
cores=(crates/server/src/{sched,rpc,repl,recovery}.rs)
if grep -nE 'rocksteady_simnet::Ctx|rocksteady_(trace|profiler|audit)' "${cores[@]}"; then
    echo "FAIL: a server core imports the simulator context or a telemetry crate"; exit 1
fi
if grep -nE 'AuditKind|lanes::|Activity::' crates/server/src/node.rs; then
    echo "FAIL: node.rs names a telemetry detail; report the event to telemetry.rs"; exit 1
fi
# No test switches in production code: `test_` identifiers live only
# below a file's `#[cfg(test)]` line.
if awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /(^|[^A-Za-z0-9_])test_[a-z]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/*/src/*.rs; then
    echo "FAIL: test_ identifier outside #[cfg(test)]"; exit 1
fi
# One JSON emitter: nothing outside common::json spells out `{"`, `,"`
# or `":` for a String to carry, by push_str or by format!.
if grep -nF -e 'push_str("{\"' -e 'push_str(",\"' -e 'push_str("\":' -e '"{{\"' \
        $(ls crates/*/src/*.rs | grep -vx 'crates/common/src/json.rs'); then
    echo "FAIL: hand-rolled JSON; write it through rocksteady_common::json"; exit 1
fi
# One ring: dropping a buffer's oldest prefix happens in common::ring.
compactors=$(grep -lE '\.drain\(\.\.[^)]+\);' crates/*/src/*.rs | tr '\n' ' ' || true)
if [ "$compactors" != "crates/common/src/ring.rs " ]; then
    echo "FAIL: prefix-drop compaction outside common::ring: $compactors"; exit 1
fi
# Recording a trace event allocates nothing: emitters hand their args
# over as a stack array or slice, never as a heap list of pairs.
if awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /Vec<\(&.static str, u64\)>|vec!\[\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/{server,workload,cluster}/src/*.rs; then
    echo "FAIL: a trace emitter builds its args on the heap; pass a stack slice"; exit 1
fi

# The replication lane is a property of the segment: the write path
# asks the replication manager for the head delta instead of scanning
# the log, no shell or core function picks a lane by flag, and the
# cleaner relocates into a side log, never through the head.
if grep -n 'segments_snapshot()' crates/server/src/node.rs; then
    echo "FAIL: node.rs rescans the log; ask ReplManager what is unshipped"; exit 1
fi
if grep -nE '\b(bulk|lane|foreground|background)[a-z_]*: *bool' crates/server/src/*.rs; then
    echo "FAIL: a server function takes a lane bool; the lane follows the segment"; exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } /log\.append\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/logstore/src/cleaner.rs; then
    echo "FAIL: the cleaner appends to the head; survivors go to a side log"; exit 1
fi

# Memory-level parallelism has one door: the prefetch intrinsic lives in
# common::prefetch and nowhere else. And the data path has one window
# cache, the master's: no per-Pull reader beside it, nobody else
# building a cache of their own above their unit tests.
if grep -nE '_mm_prefetch|core::arch' \
        $(ls crates/*/src/*.rs | grep -vx 'crates/common/src/prefetch.rs'); then
    echo "FAIL: cache intrinsics outside crates/common/src/prefetch.rs"; exit 1
fi
if grep -rnE 'slice_reader|SliceReader' crates/; then
    echo "FAIL: SliceReader is back; gathers use the master's WindowCache"; exit 1
fi
caches=$(awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
              !in_tests && /WindowCache::new\(\)/ { print FILENAME }' crates/*/src/*.rs | tr '\n' ' ')
if [ "$caches" != "crates/master/src/service.rs " ]; then
    echo "FAIL: WindowCache::new() outside MasterService::new: $caches"; exit 1
fi

# One scenario module: what the migrating range is, how a table is
# preloaded and what a Migrate command looks like are each written down
# in one file under crates/ tests/ examples/ (benchmark/ keeps its copy
# until its Pinned API is unfrozen, ROADMAP item 3); the figures are one
# bench target; and nothing forks a run on the environment.
one_file() { # <what> <pattern> <the one file>
    local found
    found=$(grep -rlE --include='*.rs' "$2" crates tests examples | sort | tr '\n' ' ')
    if [ "$found" != "$3 " ]; then
        echo "FAIL: $1 belongs in $3 only, found in: $found"; exit 1
    fi
}
one_file 'fn upper' 'fn upper\(' crates/cluster/src/scenarios.rs
one_file 'const MID' 'const MID\b' crates/cluster/src/scenarios.rs
one_file 'the preload (load_table calls)' '\.load_table\(' crates/cluster/src/scenarios.rs
one_file 'the ControlCmd::Migrate literal' 'ControlCmd::Migrate \{' crates/cluster/src/control.rs
if [ "$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)" != 1 ]; then
    echo "FAIL: crates/bench has more than the one figures target"; exit 1
fi
if grep -rn --include='*.rs' 'env::var' crates examples; then
    echo "FAIL: a run forks on an environment variable; take an argument"; exit 1
fi

# Reachability (a): the host-time harness is benchmark/, so the
# workspace vendors only what crates/ links against.
if [ "$(ls vendor | tr '\n' ' ')" != "bytes parking_lot " ]; then
    echo "FAIL: vendor/ holds something other than bytes and parking_lot"; exit 1
fi
if grep -n criterion Cargo.toml Cargo.lock crates/*/Cargo.toml vendor/*/Cargo.toml; then
    echo "FAIL: the workspace names criterion; host time is measured by benchmark/"; exit 1
fi
python3 - <<'EOF'
import glob, re

def code(path):
    """A file above its unit tests, `//` comments cut off."""
    text = open(path).read().split('#[cfg(test)]')[0]
    return '\n'.join(l.split('//')[0] for l in text.split('\n'))

srcs = {p: code(p) for p in glob.glob('crates/*/src/*.rs')}
everything = '\n'.join(srcs.values())

# (b) A config value nothing reads is not configuration: each pub field
# is accessed (`.field`) somewhere.
for path, struct in [('crates/common/src/cost.rs', 'CostModel'),
                     ('crates/core/src/config.rs', 'MigrationConfig'),
                     ('crates/flightrec/src/lib.rs', 'FlightRecorderConfig')]:
    body = srcs[path].split(f'pub struct {struct} {{')[1].split('\n}')[0]
    for field in re.findall(r'pub (\w+):', body):
        assert re.search(rf'\.{field}\b', everything), \
            f'{struct}::{field} is set but never read under crates/*/src'

# (c) An RPC verb somebody sends: every Request variant is constructed
# outside crates/proto (a match arm in the handler is not a sender).
variants = re.findall(r'\n    (\w+)(?: \{|,)',
                      srcs['crates/proto/src/msg.rs'].split('pub enum Request {')[1].split('\n}')[0])
senders = '\n'.join(t for p, t in srcs.items() if not p.startswith('crates/proto/'))
def constructed(name):
    for m in re.finditer(rf'Request::{name}\b\s*(\{{[^{{}}]*\}})?\s*(\S\S?)', senders):
        fields, after = m.group(1) or '', m.group(2)
        pattern = re.search(r'\.\.\s*\}$', fields) or after in ('=>', '|', 'if')
        if not pattern:
            return True
    return False
unsent = [v for v in variants if v != 'Delete' and not constructed(v)]
assert not unsent, f'Request variants no actor sends: {unsent}'

# (d) A YCSB option somebody sets: every pub field of YcsbConfig that
# ycsb_b does not take as a parameter is assigned by a test, bench,
# example or benchmark workload. One only ycsb_b ever sets is a constant.
ycsb = srcs['crates/workload/src/ycsb.rs']
fields = re.findall(r'pub (\w+):', ycsb.split('pub struct YcsbConfig {')[1].split('\n}')[0])
params = re.findall(r'(\w+):', ycsb.split('pub fn ycsb_b(')[1].split(')')[0])
callers = [p for pat in ('crates/*/src/**/*.rs', 'tests/**/*.rs', 'examples/*.rs', 'benchmark/src/*.rs')
           for p in glob.glob(pat, recursive=True) if not p.startswith('crates/workload/')]
calls = '\n'.join(open(p).read() for p in callers)
unset = [f for f in fields if f not in params and not re.search(rf'\.{f}\s*(=[^=]|\+=)', calls)]
assert not unset, f'YcsbConfig fields no caller sets: {unset}'
print(f'config gate: every field read; {len(variants)} Request variants, all sent (Delete allow-listed); '
      f'{len(fields)} YcsbConfig fields, all set by a caller')
EOF

echo "==> cleaner x replication x recovery, optimized (debug asserts off, real timings)"
cargo test -q --release --test cleaner_interaction

echo "==> repo benchmark: builds against crates/* and passes its self-check"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --check
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> examples: quickstart, clean then fault-injected (every layer exports)"
rm -f target/quickstart-trace.json target/quickstart-metrics.json target/quickstart-metrics.prom \
    target/quickstart-profile.folded target/quickstart-critical-path.json \
    target/quickstart-audit.json target/quickstart-audit.dot target/quickstart-journeys.json \
    target/quickstart-incident.json
cargo run --release --example quickstart
cargo run --release --example quickstart -- --fault

echo "==> export gate: every target/quickstart-*.json parses and says what it should"
python3 - <<'EOF'
import json

def load(stem):
    return json.load(open(f'target/quickstart-{stem}.json'))

trace = load('trace')['traceEvents']
assert any(e['name'] == 'migration' for e in trace), 'no migration span traced'

families = {m['name'] for m in load('metrics')['metrics']}
for name in ('node_ops_served', 'client_read_latency_ns', 'slo_read_sla_ns'):
    assert name in families, f'metric family {name} missing'

doc = load('journeys')
assert doc['schema'] == 'rocksteady-journeys-v1'
journeys = doc['journeys']
assert journeys, 'no journeys reconstructed'
assert any(j['hops_n'] >= 3 for j in journeys), \
    'no journey with >= 3 hops (none crossed the migration?)'
assert any(j['telescoped'] for j in journeys), 'no telescoped journey'
for j in journeys:
    if not j['telescoped']:
        continue
    total = sum(h['net_in'] + h['queue'] + h['service'] + h['hold']
                + h['net_out'] + h['gap_before']
                for h in j['hops'] if h['on_path'])
    assert total == j['e2e'], \
        f"journey {j['trace']} does not telescope: {total} != {j['e2e']}"

assert load('critical-path')['components'], 'critical path has no components'

audit = load('audit')
assert audit['schema'] == 'rocksteady-audit-v1' and audit['armed'] == 1
assert audit['violations'] == [], audit['violations']
assert audit['summary']['migrations_verified'] == 1
invariants = {i['name'] for i in audit['invariants']}
assert {'single-owner', 'read-your-writes'} <= invariants, invariants

incident = load('incident')
assert incident['schema'] == 'rocksteady-incident-v1'
assert incident['trigger'] == 'migration-stall'
# The frozen rings made it into the bundle, with drop accounting.
assert incident['trace']['window_ns'] > 0 and 'dropped' in incident['trace']
assert incident['trace']['chrome']['traceEvents'], 'bundle trace slice is empty'
assert 'dropped' in incident['audit'] and incident['audit']['tail']
print(f"export gate: 6 documents; {len(journeys)} journeys, telescoping integer-exact")
EOF

echo "==> metrics smoke: target/quickstart-metrics.prom"
test -s target/quickstart-metrics.prom
grep -q '# TYPE node_ops_served counter' target/quickstart-metrics.prom
grep -q 'client_read_latency_ns{client="0",quantile="0.999"}' target/quickstart-metrics.prom
grep -q 'slo_breach_intervals_total' target/quickstart-metrics.prom
grep -q 'slo_burn_rate_fast' target/quickstart-metrics.prom
grep -q 'slo_burn_rate_slow' target/quickstart-metrics.prom
grep -q 'trace_events_dropped_total' target/quickstart-metrics.prom
grep -q 'audit_events_total' target/quickstart-metrics.prom
grep -q 'audit_violations_total{invariant="conservation"} 0' target/quickstart-metrics.prom
grep -q 'audit_migrations_verified_total 1' target/quickstart-metrics.prom

echo "==> profiler + audit smoke: folded stacks and ownership DOT"
test -s target/quickstart-profile.folded
grep -q ';replay ' target/quickstart-profile.folded
grep -q ';idle ' target/quickstart-profile.folded
test -s target/quickstart-audit.dot
grep -q '^digraph ownership' target/quickstart-audit.dot

echo "==> figures export CSV through the shared exporter"
for fig in fig05 fig09_10_11 fig12 fig13_14; do
    grep -q 'report.export_csv(' "crates/bench/src/figures/${fig}.rs" \
        || { echo "FAIL: ${fig} does not use Report::export_csv"; exit 1; }
done

echo "==> metrics + profiler + audit + flightrec crates deny missing docs"
grep -q '#!\[deny(missing_docs)\]' crates/metrics/src/lib.rs
grep -q '#!\[deny(missing_docs)\]' crates/profiler/src/lib.rs
grep -q '#!\[deny(missing_docs)\]' crates/audit/src/lib.rs
grep -q '#!\[deny(missing_docs)\]' crates/flightrec/src/lib.rs

echo "==> examples: crash_recovery"
cargo run --release --example crash_recovery

echo "==> bench smoke: figures day_in_the_life (rebalancer + armed auditor, zero violations) fig05"
rm -f target/figures/day_in_the_life_summary.csv target/figures/day_in_the_life_latency.csv \
    target/figures/day_in_the_life_moves.csv target/figures/fig05_steady_rates.csv
cargo bench -p rocksteady-bench --bench figures -- day_in_the_life fig05
test -s target/figures/fig05_steady_rates.csv
test -s target/figures/day_in_the_life_summary.csv
test -s target/figures/day_in_the_life_moves.csv
head -1 target/figures/day_in_the_life_moves.csv \
    | grep -q '^t_ns,migration_id,table,range_start,range_end,source,target$'
head -1 target/figures/day_in_the_life_summary.csv \
    | grep -q '^mode,breach_intervals,breach_minutes,moves_admitted,moves_completed,peak_concurrent$'
# The rebalanced day must have run >= 2 migrations concurrently.
peak=$(awk -F, '$1 == "rebalanced" { print $6 }' target/figures/day_in_the_life_summary.csv)
[ "${peak:-0}" -ge 2 ] || { echo "FAIL: peak concurrent migrations ${peak:-0} < 2"; exit 1; }
test -s target/figures/day_in_the_life_latency.csv
head -1 target/figures/day_in_the_life_latency.csv | grep -q '^mode,t_ns,p50_ns,p999_ns$'

echo "==> two-process determinism: figures fig04, twice, identical output"
# Each process seeds std's RandomState afresh, so anything that sends,
# schedules or exports in a std HashMap's iteration order differs here
# (ScanClient's fan-out did: the two loaded 2i+2t rows, <= 0.2 %).
fig04() { cargo bench -q -p rocksteady-bench --bench figures -- fig04 | grep -v '^wrote '; }
fig04 > target/fig04.first
fig04 > target/fig04.second
diff target/fig04.first target/fig04.second \
    || { echo "FAIL: fig04 differs between two processes"; exit 1; }

echo "==> allocation gate: gather/replay, trace recording, histograms, the YCSB client"
cargo test -q --test alloc_gate

echo "==> tools/hostprof: the sampler compiles, the fold script parses"
if command -v cc >/dev/null; then
    cc -Wall -Wextra -Werror -O2 -shared -fPIC -o target/hostprof.so tools/hostprof/hostprof.c
else
    echo "no C compiler; skipped"
fi
python3 -c 'import ast, sys; ast.parse(open(sys.argv[1]).read())' tools/hostprof/fold.py

echo "CI OK"
