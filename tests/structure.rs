//! The repository's design rules, checked on its source by tier-1. Each
//! rule names why it holds and the DESIGN.md section that decided it, and
//! reports `file:line` findings; all read the tree through one walker
//! ([`tree`]) and one reader ([`production_code`]) and match plain strings.
//! Each also carries a mutant, one bad edit to a copy of the tree that
//! must make that rule and no other report: every rule is shown failable.

use std::{collections::BTreeMap, collections::BTreeSet, fs, sync::OnceLock};

/// Path from the repository root → what the rules read of that file.
type Tree = BTreeMap<String, String>;

type Test = fn(&str) -> bool;

/// A design rule. Its mutant: in file `.0`, the first `.1` (empty: the
/// start of the file, which is created if absent) becomes `.2`.
struct Rule {
    name: &'static str,
    decided: &'static str,
    why: &'static str,
    check: fn(&Tree) -> Vec<String>,
    mutant: (&'static str, &'static str, &'static str),
}

const NODE: &str = "crates/server/src/node.rs";
const SCENARIOS: &str = "crates/cluster/src/scenarios.rs";
const MSG: &str = "crates/proto/src/msg.rs";
const YCSB: &str = "crates/workload/src/ycsb.rs";
const AUDIT: &str = "crates/audit/src/lib.rs";
const WIRE: &str = "crates/common/src/wire.rs";
const COORD_ACTOR: &str = "crates/cluster/src/coordinator_actor.rs";
/// The files under `crates/` and `vendor/` that may hold unsafe code.
const UNSAFE_DOORS: [&str; 5] = [
    "crates/common/src/prefetch.rs",
    "crates/hashtable/src/lib.rs",
    "crates/logstore/src/segment.rs",
    "crates/logstore/src/crc.rs",
    "vendor/bytes/src/lib.rs",
];

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "cores_are_shell_free", decided: "§3.2", why: "a protocol core takes (state, input) and returns sends",
        check: |t| grep(t, |p| ["sched", "rpc", "repl", "recovery"].iter().any(|c| p == format!("crates/server/src/{c}.rs")),
            |l| any(l, &["rocksteady_simnet::Ctx", "rocksteady_trace", "rocksteady_profiler", "rocksteady_audit"])),
        mutant: ("crates/server/src/repl.rs", "", "use rocksteady_simnet::Ctx;\n") },
    Rule { name: "shell_reports_to_telemetry", decided: "§3.2", why: "node.rs names no lane, activity or audit kind",
        check: |t| grep(t, |p| p == NODE, |l| any(l, &["AuditKind", "lanes::", "Activity::"])),
        mutant: (NODE, "", "use rocksteady_audit::AuditKind;\n") },
    Rule { name: "no_test_switches", decided: "§3.2", why: "`test_` names live below a file's #[cfg(test)] line",
        check: |t| grep(t, src, |l| l.match_indices("test_")
            .any(|(i, _)| !l[..i].ends_with(ident) && l[i + 5..].starts_with(|c: char| c.is_ascii_lowercase()))),
        mutant: ("crates/core/src/config.rs", "", "pub fn test_skip_source_flip() {}\n") },
    Rule { name: "no_fault_switches", decided: "§3.2", why: "a protocol bug is a row of tests/mutants.rs, not a server switch",
        check: |t| grep(t, |p| p.starts_with("crates/server/src/"), |l| any(l, &["Fault", "inject_"])),
        mutant: ("crates/server/src/lib.rs", "", "pub fn inject_fault() {}\n") },
    Rule { name: "one_run_record", decided: "§3.9", why: "a migration run's one record is its id-keyed MigrationRunStamps",
        check: |t| grep(t, rust, |l| any(l, &["migration_started_at", "migration_finished_at",
            "migration_abandoned_at", "Slot::Stamp", ".stamp("])),
        mutant: ("examples/load_rebalance.rs", "", "fn f(r: &Registry) { r.stamp(\"at\", \"at\", &[]); }\n") },
    Rule { name: "one_json_emitter", decided: "§3.16", why: "only rocksteady_common::json spells out JSON punctuation",
        check: |t| grep(t, |p| src(p) && p != "crates/common/src/json.rs",
            |l| any(l, &[r#"push_str("{\""#, r#"push_str(",\""#, r#"push_str("\":"#, r#""{{\""#])),
        mutant: (AUDIT, "", "fn f(s: &mut String) { s.push_str(\"{\\\"a\\\":1}\"); }\n") },
    Rule { name: "one_ring_compaction", decided: "§3.16", why: "only common::ring drops a buffer's prefix (`.drain(..n);`)",
        check: |t| grep(t, |p| rust(p) && p != "crates/common/src/ring.rs", |l| l.split(".drain(..").skip(1)
            .any(|rest| rest.find(')').is_some_and(|i| i > 0 && rest[i..].starts_with(");")))),
        mutant: ("crates/trace/src/lib.rs", "", "fn f(v: &mut Vec<u8>, n: usize) { v.drain(..n); }\n") },
    Rule { name: "trace_args_on_the_stack", decided: "§3.8", why: "recording a trace event allocates nothing",
        check: |t| grep(t, |p| ["server", "workload", "cluster"].iter().any(|c| p.starts_with(&format!("crates/{c}/src/"))),
            |l| any(l, &["Vec<(&'static str, u64)>", "vec![("])),
        mutant: ("crates/server/src/telemetry.rs", "", "type Args = Vec<(&'static str, u64)>;\n") },
    Rule { name: "write_path_asks_repl", decided: "§3.3", why: "the write path asks ReplManager, not the log, what is unshipped",
        check: |t| grep(t, |p| p == NODE, |l| any(l, &["segments_snapshot()"])),
        mutant: (NODE, "", "fn f(l: &Log) { l.segments_snapshot(); }\n") },
    Rule { name: "no_lane_bool", decided: "§3.3", why: "the replication lane follows the segment, not a flag",
        check: |t| grep(t, |p| p.starts_with("crates/server/src/"), lane_bool),
        mutant: ("crates/server/src/repl.rs", "", "fn ship(bulk: bool) {}\n") },
    Rule { name: "head_bytes_ride_the_foreground_lane", decided: "§3.3", why: "no Scope drains head bytes onto the bulk lane",
        check: |t| grep(t, |p| p.starts_with("crates/server/src/"), |l| any(l, &["Backlog"])),
        mutant: ("crates/server/src/repl.rs", "pub(crate) enum Scope {", "pub(crate) enum Scope {\n    Backlog,") },
    Rule { name: "cleaner_never_appends_to_the_head", decided: "§3.3", why: "cleaned survivors go to a side log",
        check: |t| grep(t, |p| p == "crates/logstore/src/cleaner.rs", |l| any(l, &["log.append("])),
        mutant: ("crates/logstore/src/cleaner.rs", "", "fn f(log: &mut Log) { log.append(&[]); }\n") },
    Rule { name: "one_prefetch_door", decided: "§3.4", why: "the cache intrinsic lives in common::prefetch only",
        check: |t| grep(t, |p| src(p) && p != "crates/common/src/prefetch.rs", |l| any(l, &["_mm_prefetch", "core::arch"])),
        mutant: ("crates/hashtable/src/lib.rs", "", "use core::arch::x86_64::_mm_prefetch;\n") },
    Rule { name: "no_slice_reader", decided: "§3.5", why: "gathers read through the log's own windows",
        check: |t| grep(t, |p| p.starts_with("crates/"), |l| any(l, &["slice_reader", "SliceReader"])),
        mutant: ("crates/master/src/service.rs", "", "struct SliceReader;\n") },
    Rule { name: "the_log_hands_out_windows", decided: "§3.5",
        why: "a whole-segment window is taken in crates/logstore only, beside its segment; replication chunks its own",
        check: |t| grep(t, |p| rust(p) && !p.starts_with("crates/logstore/src/") && p != "crates/server/src/repl.rs",
            |l| any(l, &["segment_bytes(", "committed_as_bytes("])),
        mutant: ("crates/master/src/service.rs", "", "fn f(l: &Log) -> Option<Bytes> { l.segment_bytes(0) }\n") },
    Rule { name: "one_migrating_range", decided: "§5", why: "the range scenarios move is defined in scenarios only",
        check: |t| grep(t, |p| rust(p) && p != SCENARIOS, |l| any(l, &["fn upper("])),
        mutant: ("tests/golden.rs", "", "fn upper() {}\n") },
    Rule { name: "one_midpoint", decided: "§5", why: "the hash space's split point is defined in scenarios only",
        check: |t| grep(t, |p| rust(p) && p != SCENARIOS, |l| any(l, &["const MID:", "const MID "])),
        mutant: ("examples/quickstart.rs", "", "const MID: u64 = 1 << 63;\n") },
    Rule { name: "one_preload", decided: "§5", why: "how a table is preloaded is written in scenarios only",
        check: |t| grep(t, |p| rust(p) && p != SCENARIOS, |l| any(l, &[".load_table("])),
        mutant: ("tests/seed_sweep.rs", "", "fn f(c: &mut Cluster) { c.load_table(TABLE, 10, 30, 100); }\n") },
    Rule { name: "one_migrate_literal", decided: "§5", why: "a Migrate command is built by ControlCmd::migrate",
        check: |t| grep(t, |p| rust(p) && p != "crates/cluster/src/control.rs", |l| any(l, &["ControlCmd::Migrate {"])),
        mutant: ("tests/audit.rs", "", "fn f() { let _ = ControlCmd::Migrate { id }; }\n") },
    Rule { name: "one_bench_target", decided: "§4", why: "the figures are modules of one `figures` bench target",
        check: |t| grep(t, |p| p == "crates/bench/Cargo.toml", |l| any(l, &["[[bench]]"])).into_iter().skip(1).collect(),
        mutant: ("crates/bench/Cargo.toml", "", "[[bench]]\nname = \"fig05\"\n") },
    Rule { name: "no_environment_switches", decided: "§4", why: "a run takes arguments, not environment variables",
        check: |t| grep(t, |p| rust(p) && !p.starts_with("tests/"), |l| any(l, &["env::var"])),
        mutant: ("examples/quickstart.rs", "", "fn f() { let _ = std::env::var(\"FAULT\"); }\n") },
    Rule { name: "two_vendored_crates", decided: "§2", why: "vendor/ holds what crates/ links against: bytes, parking_lot",
        check: |t| grep(t, |p| p.starts_with("vendor/") && !p.starts_with("vendor/bytes/")
            && !p.starts_with("vendor/parking_lot/"), |l| any(l, &["[package]"])),
        mutant: ("vendor/proptest/Cargo.toml", "", "[package]\n") },
    Rule { name: "no_criterion", decided: "§2", why: "host time is measured by benchmark/, not criterion",
        check: |t| grep(t, |p| p.ends_with("Cargo.toml") || p == "Cargo.lock", |l| any(l, &["criterion"])),
        mutant: ("crates/bench/Cargo.toml", "", "[dev-dependencies]\ncriterion = \"0.5\"\n") },
    Rule { name: "config_fields_are_read", decided: "§2", why: "a config value nothing reads is not configuration",
        check: |t| {
            let read = named(t, src, ".", |_| true);
            [("common/src/cost.rs", "CostModel"), ("core/src/config.rs", "MigrationConfig"),
                ("flightrec/src/lib.rs", "FlightRecorderConfig")].iter()
                .flat_map(|(f, s)| unused(t, &format!("crates/{f}"), &format!("pub struct {s} {{"), &|n| read.contains(n)))
                .collect()
        },
        mutant: ("crates/core/src/config.rs", "pub struct MigrationConfig {", "pub struct MigrationConfig {\n    pub knob: u64,") },
    Rule { name: "request_verbs_are_sent", decided: "§2", why: "an RPC verb (but Delete) has a sender, not only a handler",
        check: |t| {
            let sent = named(t, |p| src(p) && !p.starts_with("crates/proto/"), "Request::", constructs);
            unused(t, MSG, "pub enum Request {", &|v| v == "Delete" || sent.contains(v))
        },
        mutant: (MSG, "pub enum Request {", "pub enum Request {\n    Ping,") },
    Rule { name: "ycsb_options_are_set", decided: "§2", why: "a YcsbConfig field no caller sets is a constant",
        check: |t| {
            let set = named(t, |p| p.ends_with(".rs") && !p.starts_with("crates/workload/"), ".",
                |r| { let r = r.trim_start(); r.starts_with("+=") || (r.starts_with('=') && !r.starts_with("==")) });
            let params = t[YCSB].split("pub fn ycsb_b(").nth(1).and_then(|s| s.split(')').next()).unwrap_or("");
            unused(t, YCSB, "pub struct YcsbConfig {", &|f| set.contains(f) || params.split(',').any(|p| split_ident(p.trim()).0 == f))
        },
        mutant: (YCSB, "pub struct YcsbConfig {", "pub struct YcsbConfig {\n    pub think: u64,") },
    Rule { name: "figures_export_through_report", decided: "§4", why: "Report::export_csv checks each CSV's header",
        check: |t| lacking(t, ["fig05", "fig09_10_11", "fig12", "fig13_14"].map(|f| format!("crates/bench/src/figures/{f}.rs")),
            "report.export_csv("),
        mutant: ("crates/bench/src/figures/fig12.rs", "report.export_csv(", "write_csv(") },
    Rule { name: "cluster_iterates_no_std_hashmap", decided: "§3.1",
        why: "std HashMap/HashSet order differs per process; crates name FxHashMap/FxHashSet or a BTreeMap",
        check: |t| grep(t, |p| src(p) && p != "crates/common/src/fxmap.rs", |l| l.match_indices("Hash")
            .any(|(i, _)| ["HashMap", "HashSet"].iter().any(|h| l[i..].starts_with(h)) && !l[..i].ends_with("Fx"))),
        mutant: ("crates/simnet/src/lib.rs", "", "use std::collections::HashMap;\n") },
    Rule { name: "one_observer", decided: "§3.12", why: "a periodic reading is a field of the observer, not an actor",
        check: |t| grep(t, |p| p.starts_with("crates/cluster/src/")
            && !["control", "coordinator_actor", "observer"].iter().any(|a| p == format!("crates/cluster/src/{a}.rs")),
            |l| any(l, &["impl Actor<Envelope> for"])),
        mutant: ("crates/cluster/src/rebalancer.rs", "", "struct Beat; impl Actor<Envelope> for Beat {}\n") },
    Rule { name: "one_client_oracle", decided: "§3.13", why: "the audit's linearizable check is the one oracle of client reads",
        check: |t| grep(t, |p| rust(p) && !p.starts_with("crates/workload/src/"),
            |l| any(l, &["confirmed_writes", "verify_all_readable"])),
        mutant: ("tests/seed_sweep.rs", "", "fn f(c: &Cluster) { c.client_stats[0].borrow().confirmed_writes.len(); }\n") },
    Rule { name: "audit_records_what_it_reads", decided: "§3.13",
        why: "an audit event carries what the checker, explain or an export reads; PriorityServed alone is unread, \
            kept for the benchmark's audit.emit_ns probe",
        check: |t| [
            grep(t, rust, |l| any(l, &["MigrationRejected", "RebalanceProposed", "RebalanceOutcome", "DropCause", "ClaimVia"])),
            grep(t, |p| p == AUDIT, |l| any(l, &[": _,", ": _ }"])),
            grep_method(t, AUDIT, "fn ingest(", |l| !l.contains("PriorityServed")
                && (l.trim_end().ends_with("=> {}") || l.contains(" .. }") || l.trim() == "..")),
        ].concat(),
        mutant: (AUDIT, "AuditKind::RebalanceAdmitted { id } => {", "AuditKind::RebalanceAdmitted { id, .. } => {") },
    Rule { name: "unsafe_has_a_door", decided: "§3.5", why: "unsafe code lives in the five files that argue its SAFETY",
        check: |t| grep(t, |p| (p.starts_with("crates/") || p.starts_with("vendor/")) && p.ends_with(".rs")
            && !UNSAFE_DOORS.contains(&p), |l| any(l, &["unsafe {", "unsafe fn", "unsafe impl"])),
        mutant: ("crates/master/src/service.rs", "", "fn f(p: *const u8) -> u8 { unsafe { *p } }\n") },
    Rule { name: "observability_crates_are_documented", decided: "§2", why: "four crates deny missing docs",
        check: |t| lacking(t, ["metrics", "profiler", "audit", "flightrec"].map(|c| format!("crates/{c}/src/lib.rs")),
            "#![deny(missing_docs)]"),
        mutant: (AUDIT, "#![deny(missing_docs)]", "#![warn(missing_docs)]") },
    Rule { name: "the_kernel_owns_its_stamps", decided: "§3.11",
        why: "simnet keeps a message's send and departure times; SimMessage declares no method, \
            so nothing writes a payload in flight",
        check: |t| [
            grep(t, |p| p.starts_with("crates/"), |l| any(l, &["stamp_sent", "stamp_departed"])),
            grep_method(t, WIRE, "pub trait SimMessage", |l| l.contains("fn ")),
        ].concat(),
        mutant: (WIRE, "pub trait SimMessage: WireSized {}", "pub trait SimMessage: WireSized {\n    fn stamp_sent(&mut self, _now: u64) {}\n}") },
    Rule { name: "one_main_log_replay", decided: "§3.7",
        why: "records replay into the main log in replay_into_main_log only (baseline pushes, synchronous \
            PriorityPulls); migration and crash recovery replay into per-worker side logs",
        check: |t| {
            let main_log = |l: &str| any(l, &["ReplayDest::MainLog"]);
            let sites = grep(t, |p| p == NODE, main_log);
            match sites.len() {
                0 => vec![format!("{NODE}:1: lacks ReplayDest::MainLog")],
                1 if sites == grep_method(t, NODE, "fn replay_into_main_log(", main_log) => vec![],
                _ => sites,
            }
        },
        mutant: (NODE, "", "fn f(m: &mut MasterService, r: &[Record]) { m.replay_batch(r, ReplayDest::MainLog, &mut Work::default()); }\n") },
    Rule { name: "durability_is_decided_in_repl", decided: "§3.3",
        why: "ReplManager alone opens and credits ack groups; node.rs carries out what it decides",
        check: |t| grep(t, |p| p == NODE, |l| any(l, &["open_group(", ".credit("])),
        mutant: (NODE, "", "fn f(r: &mut ReplManager, g: u64) { r.credit(g); }\n") },
    Rule { name: "the_coordinator_decides", decided: "§3.7",
        why: "the coordinator core decides what each request sets off and allocates its RPC ids; its actor only delivers",
        check: |t| [
            grep(t, |p| p == COORD_ACTOR, |l| any(l, &["AuditKind", "Request::", "RpcId("])),
            grep(t, |p| p == "crates/coordinator/src/lib.rs", |l| any(l, &["rocksteady_simnet"])),
        ].concat(),
        mutant: (COORD_ACTOR, "", "use rocksteady_audit::AuditKind;\n") },
    Rule { name: "the_manager_answers_read_misses", decided: "§3.2",
        why: "MigrationManager::on_read_miss decides a read miss whole; node.rs carries out its MissAnswer and names \
            no PriorityPulls mode",
        check: |t| grep(t, |p| p == NODE, |l| any(l, &["PriorityPulls"])),
        mutant: (NODE, "", "use rocksteady::PriorityPulls;\n") },
    Rule { name: "one_call_table", decided: "§3.11",
        why: "an actor's RPC ids, open calls and deadlines are its one Calls table: no other id counter or \
            deadline queue",
        check: |t| grep(t, |p| src(p) && p != "crates/proto/src/calls.rs" && p != "crates/common/src/ids.rs",
            |l| any(l, &["RpcId(", "next_rpc", "last_rpc", "deadlines:", "VecDeque<(Nanos"])),
        mutant: ("crates/cluster/src/control.rs", "", "fn f(n: u64) -> RpcId { RpcId(n + 1) }\n") },
];

/// A file above its first `#[cfg(test)]` line, `//` comments cut off;
/// each line keeps its number.
fn production_code(text: &str) -> String {
    let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    code.map(|l| l.find("//").map_or(l, |i| &l[..i]))
        .fold(String::new(), |c, l| c + l + "\n")
}

/// Every `.rs` file and manifest under `crates/ tests/ examples/ vendor/`
/// but this one, whose patterns would match themselves; read-only, the root
/// manifest, `Cargo.lock` and `benchmark/src/*.rs`. Manifests go through
/// the same reader: they hold no `#[cfg(test)]`, no `//` but URLs'.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let mut tree = Tree::new();
        for path in "crates tests examples benchmark/src vendor Cargo.toml Cargo.lock".split(' ') {
            walk(path.into(), &mut tree);
        }
        tree
    })
}

fn walk(path: String, tree: &mut Tree) {
    let code = path.ends_with(".rs") || path.contains("Cargo.");
    if fs::metadata(&path).expect(&path).is_dir() {
        for entry in fs::read_dir(&path).expect(&path) {
            walk(entry.expect(&path).path().to_string_lossy().into(), tree);
        }
    } else if code && path != "tests/structure.rs" {
        let text = fs::read_to_string(&path).expect(&path);
        tree.insert(path, production_code(&text));
    }
}

fn src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && path.ends_with(".rs")
}

/// Under `crates/ tests/ examples/`.
fn rust(path: &str) -> bool {
    path.ends_with(".rs") && !path.starts_with("benchmark/") && !path.starts_with("vendor/")
}

fn ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` holds one of `patterns`: a memchr for the first byte,
/// then a compare, as `str::contains` runs ten times slower in an
/// unoptimised test build and each mutant rereads the tree.
fn any(text: &str, patterns: &[&str]) -> bool {
    patterns.iter().any(|p| {
        let at = |(i, _): (usize, &str)| text[i..].starts_with(p);
        text.match_indices(char::from(p.as_bytes()[0])).any(at)
    })
}

/// `file:line: text` for each line `hit` matches in the files in `scope`.
/// `hit` must accept a whole file that holds a line it accepts: a file
/// it rejects whole is not split.
fn grep(t: &Tree, scope: impl Fn(&str) -> bool, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = vec![];
    for (path, code) in t.iter().filter(|(p, code)| scope(p) && hit(code)) {
        for (i, line) in code.lines().enumerate().filter(|(_, l)| hit(l)) {
            found.push(format!("{path}:{}: {}", i + 1, line.trim()));
        }
    }
    found
}

/// `file:line: text` for each line `hit` matches in the method of `file`
/// that starts at `head` and ends at its first line `    }`.
fn grep_method(t: &Tree, file: &str, head: &str, hit: Test) -> Vec<String> {
    let code = &t[file];
    let Some(at) = code.find(head) else {
        return vec![format!("{file}:1: lacks {head}")];
    };
    let first = code[..at].matches('\n').count() + 1;
    let body = code[at..].split("\n    }\n").next().unwrap_or("");
    let lines = body.lines().enumerate().filter(|(_, l)| hit(l));
    lines
        .map(|(i, l)| format!("{file}:{}: {}", first + i, l.trim()))
        .collect()
}

/// `path:1` for each of `paths` that does not hold `pattern`.
fn lacking<const N: usize>(t: &Tree, paths: [String; N], pattern: &str) -> Vec<String> {
    let holds = |p: &String| t.get(p).is_some_and(|code| any(code, &[pattern]));
    let lack = paths.into_iter().filter(|p| !holds(p));
    lack.map(|p| format!("{p}:1: lacks {pattern}")).collect()
}

/// Whether `text` declares `name: bool` for a `name` that starts with
/// `bulk`, `lane`, `foreground` or `background`.
fn lane_bool(text: &str) -> bool {
    let lanes = ["bulk", "lane", "foreground", "background"];
    text.match_indices("bool").any(|(i, _)| {
        let head = text[..i].trim_end_matches(' ');
        let head = head.strip_suffix(':').unwrap_or("");
        let before = head.trim_end_matches(|c: char| c.is_ascii_lowercase() || c == '_');
        let name = &head[before.len()..];
        !before.ends_with(ident) && lanes.iter().any(|l| name.starts_with(l))
    })
}

/// `s` split after its leading identifier.
fn split_ident(s: &str) -> (&str, &str) {
    let rest = s.trim_start_matches(ident);
    (&s[..s.len() - rest.len()], rest)
}

/// The identifiers right after a `sep` in the files in `scope`, where
/// `then` accepts the text that follows.
fn named<'t>(t: &'t Tree, scope: Test, sep: &str, then: Test) -> BTreeSet<&'t str> {
    let mut names = BTreeSet::new();
    for (_, code) in t.iter().filter(|(p, _)| scope(p)) {
        let after = code.split(sep).skip(1).map(split_ident);
        names.extend(after.filter(|(_, rest)| then(rest)).map(|(name, _)| name));
    }
    names
}

/// Whether the text after a `Request::Verb` builds one rather than
/// matching one: no `{ .. }` fields, and no `=>`, `|` or `if` after it.
fn constructs(rest: &str) -> bool {
    let (fields, after) = match rest.trim_start().strip_prefix('{') {
        Some(fields) => fields.split_once('}').unwrap_or((fields, "")),
        None => ("", rest),
    };
    let guard = ["=>", "|", "if "].map(|p| after.trim_start().starts_with(p));
    !fields.trim_end().ends_with("..") && !guard.contains(&true)
}

/// The lines of `file` declaring a member of the body after `head` (a
/// field `name:` or a variant `Name {` / `Name,`) whose name `used` rejects.
fn unused(t: &Tree, file: &str, head: &str, used: &dyn Fn(&str) -> bool) -> Vec<String> {
    let body = t[file].split_once(head).map_or("", |(_, rest)| rest);
    let lines = body.split("\n}").next().unwrap_or("").lines();
    let members = lines.filter_map(|l| Some(l.strip_prefix("    ")?.trim_start_matches("pub ")));
    let decl = |(n, r): (&str, &str)| [":", " {", ","].iter().any(|e| r.starts_with(e)) && !used(n);
    let decls: Vec<&str> = members.filter(|m| decl(split_ident(m))).collect();
    grep(t, |p| p == file, |l| decls.iter().any(|d| l.contains(d)))
}

/// Every finding on `t`: `rule: file:line: text`, then why the rule
/// holds and where that was decided.
fn findings(t: &Tree) -> Vec<String> {
    let mut found = vec![];
    for r in RULES {
        for f in (r.check)(t) {
            let why = format!("{} (DESIGN.md {})", r.why, r.decided);
            found.push(format!("{}: {f}\n    {why}", r.name));
        }
    }
    found
}

#[test]
fn the_tree_keeps_every_rule() {
    let found = findings(tree());
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// What is wrong with `rule`'s mutant, unless it makes that rule and
/// no other report.
fn fault(rule: &Rule) -> Option<String> {
    let (path, from, to) = rule.mutant;
    let mut t = tree().clone();
    let code = t.entry(path.into()).or_default();
    assert!(code.contains(from), "{path} holds no {from:?}");
    *code = code.replacen(from, to, 1);
    let found = findings(&t);
    let own = |f: &String| f.starts_with(&format!("{}: ", rule.name));
    let fault = found.is_empty() || !found.iter().all(own);
    fault.then(|| format!("mutant of {}:\n{}", rule.name, found.join("\n")))
}

#[test]
fn each_mutant_breaks_its_rule_and_no_other() {
    let faults: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = RULES.iter().map(|r| s.spawn(move || fault(r))).collect();
        let faults = workers.into_iter().map(|w| w.join().expect("worker"));
        faults.flatten().collect()
    });
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
