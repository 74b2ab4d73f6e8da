//! The protocol's promises, each shown failable. A row of [`MUTANTS`] is
//! one bug the protocol must not have, written as an edit to the tree,
//! and the test that must fail once the edit is made: a protocol bug
//! lives here, never as a switch in production code.
//!
//! Tier-1 runs the cheap half: every anchor occurs exactly once in its
//! file, and every killer test exists where its row says. The expensive
//! half is `#[ignore]`d; `ci.sh` runs it:
//!
//! ```text
//! cargo test -q --test mutants -- --ignored --nocapture
//! ```
//!
//! It copies the tree to `target/mutants/tree` and requires every killer
//! to pass there. Then for each row it applies the edit, builds the
//! killer into `target/mutants/target`, requires the killer to fail, and
//! restores the file. It prints `mutants: killed k / n`.

use std::{fs, path::Path, process::Command};

/// A protocol bug. In `file`, the one `anchor` becomes `replacement`;
/// `killer` (a test file and the name of a test `fn` in it) must then
/// fail. `promise` is what the bug breaks, decided in DESIGN.md `decided`.
struct Mutant {
    file: &'static str,
    anchor: &'static str,
    replacement: &'static str,
    killer: (&'static str, &'static str),
    promise: &'static str,
    decided: &'static str,
}

const NODE: &str = "crates/server/src/node.rs";

#[rustfmt::skip]
const MUTANTS: &[Mutant] = &[
    Mutant { file: NODE,
        anchor: "let ceiling =\n                    rocksteady::source::handle_prepare(&mut self.master, table, range, target);\n                if ceiling.is_some() {\n                    self.tel.prepare_flipped(now, table, range);\n                }",
        replacement: "let ceiling = Some(self.master.version_ceiling());",
        killer: ("tests/audit.rs", "clean_migration_audits_clean_and_verified"),
        promise: "the source answers Prepare only after flipping the range out of Owner", decided: "§3.13" },
    Mutant { file: "crates/core/src/source.rs",
        anchor: "TabletRole::MigratingOutTo { target }",
        replacement: "TabletRole::Owner",
        killer: ("tests/migration_correctness.rs", "migration_under_writes_preserves_every_record_and_update"),
        promise: "a source that prepared a migration turns clients away", decided: "§3.13" },
    Mutant { file: NODE,
        anchor: "Action::Replay(batch) => {",
        replacement: "Action::Replay(_) => {}\n                Action::Replay(batch) => {",
        killer: ("tests/audit.rs", "clean_migration_audits_clean_and_verified"),
        promise: "every pulled batch is replayed, so a migration finishes", decided: "§3.6" },
    Mutant { file: NODE,
        anchor: "self.master.raise_version_floor(version_ceiling);",
        replacement: "let _ = version_ceiling;",
        killer: ("tests/migration_correctness.rs", "target_writes_outrank_the_source_with_nothing_replayed"),
        promise: "the target mints versions above the source's ceiling, so its writes win replay", decided: "§3.6" },
    Mutant { file: "crates/core/src/priority.rs",
        anchor: "&& !self.served_set.contains(&hash)",
        replacement: "&& true",
        killer: ("crates/core/src/priority.rs", "served_hashes_are_never_re_requested"),
        promise: "the target asks the source for each hash by PriorityPull at most once", decided: "§7" },
    Mutant { file: "crates/logstore/src/cleaner.rs",
        anchor: "Relocation::Keep => {",
        replacement: "Relocation::Keep if stats.entries_relocated == 0 => stats.entries_dropped += 1,\n            Relocation::Keep => {",
        killer: ("crates/logstore/src/cleaner.rs", "cleaning_reclaims_segments_and_preserves_live_data"),
        promise: "the cleaner relocates every live entry of a victim", decided: "§3.3" },
    Mutant { file: "crates/master/src/service.rs",
        anchor: "        let r = self.append(sink, kind, table, hash, version, key, value, work)?;\n",
        replacement: "        let r = self.append(sink, kind, table, hash, version, key, value, work)?;\n        if kind == EntryKind::Tombstone {\n            let gone = self.hashtable.remove(table, hash, Self::key_matcher(&self.log, key));\n            return Ok((r, gone.value.map(|_| EntryKind::Object)));\n        }\n",
        killer: ("crates/core/tests/prop.rs", "replay_is_order_insensitive"),
        promise: "a tombstone keeps its hash-table slot, so no older record resurrects the key", decided: "§7" },
    Mutant { file: "crates/server/src/repl.rs",
        anchor: "let lane = if bulk {",
        replacement: "let lane = if true {",
        killer: ("crates/server/src/repl.rs", "bulk_queues_behind_both_lanes_and_foreground_only_behind_its_own"),
        promise: "head bytes ride the foreground lane, never behind bulk re-replication", decided: "§3.3" },
    Mutant { file: "crates/coordinator/src/lib.rs",
        anchor: "self.lineage.push(LineageDep {",
        replacement: "drop(LineageDep {",
        killer: ("crates/coordinator/src/lib.rs", "crash_of_migration_target_reverts_to_source_with_lineage_tail"),
        promise: "a migration's start records the lineage dependency a target crash replays from", decided: "§3.7" },
    Mutant { file: "crates/server/src/sched.rs",
        anchor: "usize::from(front.may_hold(self.reads_hold) && self.workers.len() > 1)",
        replacement: "0usize",
        killer: ("crates/server/src/sched.rs", "hold_capable_tasks_never_take_worker_zero"),
        promise: "a ring of loaded servers keeps one core that never waits on an ack", decided: "§3.2" },
    Mutant { file: "crates/proto/src/calls.rs",
        anchor: "self.deadlines.push_back((now + after, id));",
        replacement: "self.deadlines.push_back((now, id));",
        killer: ("crates/workload/src/ycsb.rs", "a_retried_operation_is_not_timed_out_on_its_first_deadline"),
        promise: "an attempt times out `RPC_TIMEOUT` after it was issued, never on an earlier attempt's deadline", decided: "§3.11" },
    Mutant { file: "crates/simnet/src/lib.rs",
        anchor: "if q.at >> EPOCH_SHIFT != epoch {",
        replacement: "if q.at >> EPOCH_SHIFT > epoch + 1 {",
        killer: ("crates/simnet/src/lib.rs", "far_horizon_timers_fire_in_order"),
        promise: "the kernel pops every event in `(at, seq)` order, whichever tier held it", decided: "§3.11" },
    Mutant { file: "crates/logstore/src/segment.rs",
        anchor: ".min(self.committed() as u64)",
        replacement: "",
        killer: ("crates/logstore/src/segment.rs", "live_byte_accounting"),
        promise: "a segment's live bytes never fall below zero, and bytes appended after a saturating mark count as live", decided: "§3.3" },
    Mutant { file: "vendor/bytes/src/lib.rs",
        anchor: "ptr: self.ptr.wrapping_add(start),",
        replacement: "ptr: self.ptr,",
        killer: ("vendor/bytes/src/lib.rs", "nested_slices_read_their_own_window"),
        promise: "a window reads exactly the bytes it names", decided: "§3.5" },
    Mutant { file: "crates/core/src/manager.rs",
        anchor: "        if self.complete() {",
        replacement: "        let batch = actions.iter().position(|a| matches!(a, Action::SendPriorityPull { .. }));\n        if let Some(batch) = batch.map(|i| actions.remove(i)) {\n            actions.push(batch);\n        }\n        if self.complete() {",
        killer: ("crates/core/src/manager.rs", "priority_pull_batch_precedes_the_pipelined_pull"),
        promise: "a PriorityPull batch leaves ahead of the Pull pipelined in the same poll", decided: "§3.2" },
    Mutant { file: "crates/simnet/src/lib.rs",
        anchor: "departed_at: q.at - self.nic.one_way_latency_ns,",
        replacement: "departed_at: q.at,",
        killer: ("crates/simnet/src/lib.rs", "the_kernels_stamps_reach_the_receiver"),
        promise: "a message departs one one-way latency before it arrives, so NIC time excludes propagation", decided: "§3.11" },
    Mutant { file: "crates/logstore/src/log.rs",
        anchor: "        inner.side.remove(&id);\n",
        replacement: "        let mut adopted = adopted;\n        if let Some(side) = inner.side.remove(&id) {\n            adopted.window = side.window;\n        }\n",
        killer: ("crates/master/src/service.rs", "committed_side_logs_let_their_originals_go"),
        promise: "a commit's adopted copy takes its own window, so the full-size original leaves with the last response", decided: "§3.5" },
    Mutant { file: NODE,
        anchor: "Some(then) => self.ship(ctx, &[Scope::Heads, adopted], Some(then)),",
        replacement: "Some(then) => {\n                self.durable(ctx, then);\n                self.ship(ctx, &[Scope::Heads, adopted], None);\n            }",
        killer: ("tests/recovery.rs", "a_recovery_master_crash_after_answering_loses_no_record"),
        promise: "a recovery master claims the tablet and answers only once its replayed log is durable", decided: "§3.7" },
    Mutant { file: "crates/server/src/recovery.rs",
        anchor: "self.pending_batches -= 1;",
        replacement: "self.pending_batches = 0;",
        killer: ("tests/recovery.rs", "a_recovery_replays_on_several_workers_and_claims_after_the_last_batch"),
        promise: "a recovery master commits and claims after its last replay batch, not its first", decided: "§3.7" },
    Mutant { file: "crates/logstore/src/crc.rs",
        anchor: "            wide = _mm_crc32_u64(wide, word);\n",
        replacement: "            let _ = word;\n",
        killer: ("crates/logstore/src/entry.rs", "every_byte_but_the_checksum_is_covered"),
        promise: "an entry's checksum covers every byte but its own, across the seam of header and payload", decided: "§3.3" },
    Mutant { file: "crates/coordinator/src/lib.rs",
        anchor: "crashed: replan.map_or(dead, |a| a.crashed),",
        replacement: "crashed: dead,",
        killer: ("tests/recovery.rs", "a_recovery_master_crash_before_claiming_loses_no_record"),
        promise: "a recovery whose master dies before answering is planned again from the same log, not the master's", decided: "§3.7" },
    Mutant { file: "crates/audit/src/lib.rs",
        anchor: "if v < prior.version || (op.write && v == prior.version) {",
        replacement: "if v < prior.version && false {",
        killer: ("crates/audit/src/lib.rs", "a_stale_read_after_an_answered_write_fires"),
        promise: "the auditor flags an operation that saw less than one completed before it was invoked", decided: "§3.13" },
    Mutant { file: "crates/audit/src/lib.rs",
        anchor: "Some(w) => found.push((op.hash, format!(\"{op} and {w} share a version\"))),",
        replacement: "Some(_) => {}",
        killer: ("crates/audit/src/lib.rs", "a_duplicate_write_version_fires"),
        promise: "the auditor flags two answered writes that share a version", decided: "§3.13" },
];

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every anchor occurs exactly once in its file, so no row applies
/// somewhere it was not meant to or silently stops applying.
#[test]
fn each_anchor_occurs_once() {
    let bad: Vec<String> = MUTANTS
        .iter()
        .map(|m| (m, read(m.file).matches(m.anchor).count()))
        .filter(|(_, n)| *n != 1)
        .map(|(m, n)| format!("{}: {:?} occurs {n} times", m.file, m.anchor))
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Every killer is a test `fn` in the file its row names.
#[test]
fn each_killer_exists() {
    let bad: Vec<String> = MUTANTS
        .iter()
        .filter(|m| !read(m.killer.0).contains(&format!("fn {}(", m.killer.1)))
        .map(|m| format!("{} holds no fn {}", m.killer.0, m.killer.1))
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The `cargo test` arguments that build the target holding `file`'s tests.
fn target_args(file: &str) -> Vec<String> {
    let package = |dir: &str, krate: &str| {
        let manifest = read(&format!("{dir}/{krate}/Cargo.toml"));
        let name = manifest.lines().find_map(|l| l.strip_prefix("name = "));
        name.expect("package name").trim_matches('"').to_string()
    };
    let stem = |name: &str| name.trim_end_matches(".rs").to_string();
    match file.split('/').collect::<Vec<_>>()[..] {
        ["tests", name] => vec!["--test".into(), stem(name)],
        [dir @ ("crates" | "vendor"), krate, "src", ..] => {
            vec!["-p".into(), package(dir, krate), "--lib".into()]
        }
        ["crates", krate, "tests", name] => {
            vec![
                "-p".into(),
                package("crates", krate),
                "--test".into(),
                stem(name),
            ]
        }
        _ => panic!("no test target holds {file}"),
    }
}

/// How a killer run ended, with the tail of cargo's output to debug a
/// row from.
struct Run {
    /// `None` if the killer did not build, else whether it passed.
    passed: Option<bool>,
    log: String,
}

/// Builds `killer` (its file and test name) in the copy at `tree` and
/// runs it, with the cargo that runs this test.
fn run_killer(tree: &Path, (file, test): (&str, &str)) -> Run {
    let target = fs::canonicalize(tree.join("..")).expect("copy's parent");
    let args = target_args(file);
    let cargo = |extra: &[&str]| {
        let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["test", "--offline", "-q"])
            .args(&args)
            .args(extra)
            .current_dir(tree)
            .env("CARGO_TARGET_DIR", target.join("target"))
            .output()
            .expect("cargo runs");
        let text = String::from_utf8_lossy(&out.stderr) + String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        let log = lines[lines.len().saturating_sub(40)..].join("\n");
        (out.status.success(), log)
    };
    let (built, log) = cargo(&["--no-run"]);
    if !built {
        return Run { passed: None, log };
    }
    let (passed, log) = cargo(&["--", test]);
    Run {
        passed: Some(passed),
        log,
    }
}

/// Copies the parts of the tree a build reads from `from` into `to`.
fn copy_tree(from: &Path, to: &Path) {
    if from.is_dir() {
        fs::create_dir_all(to).expect("mkdir");
        for entry in fs::read_dir(from).expect("read_dir") {
            let entry = entry.expect("entry");
            if entry.file_name() != "target" {
                copy_tree(&entry.path(), &to.join(entry.file_name()));
            }
        }
    } else {
        fs::copy(from, to).expect("copy");
    }
}

/// The expensive half: each row's mutant built in a copy of the tree,
/// and its killer required to fail there.
#[test]
#[ignore = "builds the tree once per row; ci.sh runs it"]
fn each_mutant_is_killed() {
    let tree = Path::new("target/mutants/tree");
    let _ = fs::remove_dir_all(tree);
    fs::create_dir_all(tree).expect("mkdir");
    for part in "Cargo.toml Cargo.lock src crates tests examples vendor".split(' ') {
        copy_tree(Path::new(part), &tree.join(part));
    }
    // A killer that fails on the unmutated copy would kill every row.
    for m in MUTANTS {
        let (file, test) = m.killer;
        let run = run_killer(tree, m.killer);
        assert_eq!(
            run.passed,
            Some(true),
            "{file}::{test} fails unmutated:\n{}",
            run.log
        );
    }
    let mut survivors = vec![];
    for m in MUTANTS {
        let path = tree.join(m.file);
        let original = read(path.to_str().expect("utf-8 path"));
        fs::write(&path, original.replacen(m.anchor, m.replacement, 1)).expect("mutate");
        let run = run_killer(tree, m.killer);
        fs::write(&path, original).expect("restore");
        let verdict = match run.passed {
            None => "DOES NOT BUILD",
            Some(false) => "killed",
            Some(true) => "SURVIVED",
        };
        let (file, test) = m.killer;
        println!("{verdict}: {} ({}) by {file}::{test}", m.promise, m.decided);
        if run.passed != Some(false) {
            println!("{}", run.log);
            survivors.push(m.promise);
        }
    }
    let n = MUTANTS.len();
    println!("mutants: killed {} / {n}", n - survivors.len());
    assert!(survivors.is_empty(), "not killed: {survivors:?}");
}
