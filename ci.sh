#!/usr/bin/env bash
# Repository CI gate, run from the repo root: ./ci.sh. Every stage is a
# command that fails on its own: the design rules are tests/structure.rs,
# which tier-1 runs, and the examples and figures check their own results.
set -euo pipefail
cd "$(dirname "$0")"
run() { echo "==> $*"; "$@"; }
run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
# Doc links must resolve: a deleted function cannot leave a dangling one.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Tier-1 (ROADMAP.md), then every other package's tests, each run once.
run cargo build --release
run cargo test -q
run cargo test -q --workspace --exclude rocksteady-repro
# The protocol's mutant table (tests/mutants.rs): each row's bug is built
# in a copy of the tree under target/mutants, and its killer must fail.
# Prints one verdict a row and `mutants: killed k / n`.
run cargo test -q --test mutants -- --ignored --nocapture
# The runs with debug assertions off and real timings: there only the
# tests' own comparisons catch a short replica.
run cargo test -q --release --test cleaner_interaction
run cargo test -q --release --test replication
# Whole-tablet crash recovery at release speed: a recovery master killed
# right after it answered must have left its log on its backups.
run cargo test -q --release --test recovery
# Eight seeds of write_churn, every client operation checked for
# linearizability with debug assertions off.
run cargo test -q --release --test seed_sweep
# Failing-first tests: each `#[ignore = "ROADMAP item …"]` test shows an
# open item's bug and must fail, in release, until its fix lands and it
# is un-ignored. A test that passes fails the stage, and so does a name
# that matches no test or an ignored test this list does not run.
failing_first() { # cargo test target arguments, then the test's exact name
    local name=${*: -1} out
    echo "==> failing-first $name"
    if out=$(cargo test -q --release "${@:1:$#-1}" -- --ignored --exact "$name" 2>&1); then
        if grep -q "test result: ok. 1 passed" <<<"$out"; then
            echo "$name passes: its fix landed, so un-ignore it"
        else
            echo "no test is named $name"
        fi
        return 1
    fi
    grep -q "test result: FAILED. 0 passed; 1 failed" <<<"$out" || { echo "$out"; return 1; }
    failing=$((failing + 1))
}
failing=0
failing_first -p rocksteady-server --lib repl::tests::a_waiter_riding_another_calls_chunk_waits_for_its_acks
failing_first -p rocksteady-server --lib repl::tests::with_one_backup_a_lost_chunk_answers_no_waiter
failing_first --test migration_correctness a_lost_pull_costs_a_retry_not_the_migration
failing_first --test migration_correctness a_source_lets_go_of_the_range_it_migrated_away
failing_first --test profiler a_worker_never_runs_two_tasks_at_once
failing_first --test replication a_dead_backup_is_replaced_before_its_masters_crash
failing_first --test replication a_backup_that_missed_a_chunk_is_not_counted_as_a_replica
ignored=$(grep -rho --include='*.rs' '#\[ignore = "ROADMAP item' crates tests | wc -l)
[ "$failing" -eq "$ignored" ] || { echo "$ignored failing-first tests, $failing run"; exit 1; }
# The hash table's packing bounds are assert!s, not debug_assert!s: its
# bound and property tests must pass in the build the benchmark measures.
# So must the log's: a segment's entry count and committed length are
# written without a lock or a read-modify-write by its one writer handle,
# and its live bytes are committed minus dead; its real-thread tests
# (the writer on one thread, readers walking the committed bytes with
# the checked entry iterator on another) check that with no overflow
# checks or debug assertions behind them. The master's
# real-thread test races gathers (one log view per stripe) against
# appends and side-log commits at release speed.
run cargo test -q --release -p rocksteady-hashtable -p rocksteady-logstore -p rocksteady-master
# The trace arity cap is a debug_assert!: release builds must record an
# over-wide event whole, and only a release run of its test shows that.
# The tail ring's offsets wrap modulo 2^32, and the event queue's wheel
# is shift-and-mask arithmetic with a hand-off from its heap, and a
# vendored `Bytes` window is a raw pointer moved by `slice`: their tests
# run here with no overflow checks or debug assertions behind them.
run cargo test -q --release -p rocksteady-trace -p rocksteady-common -p rocksteady-simnet -p bytes
# AddressSanitizer over the crates behind the unsafe doors (rule
# unsafe_has_a_door) and the master that drives them: an out-of-bounds
# read, a use after free or a leak fails the stage, suppressed nowhere.
# Without RUSTDOCFLAGS the doctests fail to link. ASan cannot see a read
# of a segment's unwritten bytes; SegmentWriter's SAFETY argument covers
# that.
run env RUSTFLAGS=-Zsanitizer=address RUSTDOCFLAGS=-Zsanitizer=address cargo +nightly test --offline --target x86_64-unknown-linux-gnu -p rocksteady-logstore -p rocksteady-hashtable -p rocksteady-common -p rocksteady-master -p bytes
# The pinned digests again, in a second process with its own RandomState.
run cargo test -q --release --test golden
# The frozen repo benchmark builds against crates/ and checks itself.
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --check
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run cargo run --release --example quickstart
run cargo run --release --example quickstart -- --fault
run cargo run --release --example crash_recovery
run cargo bench -p rocksteady-bench --bench figures -- day_in_the_life fig05
# No crate names std's HashMap or HashSet (tests/structure.rs), but order
# can still depend on the process in ways no text rule sees: a
# RandomState in a dependency, an address used as a key. Two processes
# must print fig04 the same.
fig04() { cargo bench -q -p rocksteady-bench --bench figures -- fig04 | grep -v '^wrote '; }
fig04 >target/fig04.first
fig04 >target/fig04.second
run diff target/fig04.first target/fig04.second
# tools/hostprof: the sampler and the allocation logger compile and the
# fold script parses.
command -v cc >/dev/null &&
    run cc -Wall -Wextra -Werror -O2 -shared -fPIC -o target/hostprof.so tools/hostprof/hostprof.c
command -v cc >/dev/null &&
    run cc -Wall -Wextra -Werror -O2 -shared -fPIC -o target/alloclog.so tools/hostprof/alloclog.c
command -v python3 >/dev/null &&
    run python3 -c 'import ast, sys; ast.parse(open(sys.argv[1]).read())' tools/hostprof/fold.py
# tools/pairs.sh (the A/B pairs of the benchmark) parses, and answers a
# short command line with its usage and exit 2.
run bash -n tools/pairs.sh
run bash -c "tools/pairs.sh 2>/dev/null; test \$? -eq 2"
# The non-test line count a change's size is quoted in (CHANGES.md). It
# refuses a directory outside any git work tree instead of counting 0.
run tools/loc.sh
notree=$(mktemp -d)
run bash -c "! tools/loc.sh $notree"
rmdir "$notree"
echo "CI OK"
