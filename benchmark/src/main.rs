//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! rocksteady-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! rocksteady-benchmark --workload probes      layer probes + overhead matrix only
//! rocksteady-benchmark --check                every workload at 1/10 scale, one round
//! ```
//!
//! One process, one thread. `--trace 0` runs a discarded warm-up round
//! and then measured rounds for `--seconds` (at least three) and prints
//! the end-to-end metrics; `--trace 1` runs the warm-up, one measured
//! round, the traced round, the layer probes and the overhead matrix
//! and prints the per-layer metrics.
//! Every metric is printed as `name value unit`; the last line of
//! standard output is the machine-readable result.

mod overhead;
mod probes;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use probes::Results;
use spans::{coverage_permille, total_ns, Recorder};
use stats::{failed_share, median, min_max};
use workloads::{run_round, Round, RoundOpts, Scenario, Workload};

/// Where the traces and summaries go, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";
/// The paper's anchors (§4): migration rate and tail during migration.
const PAPER_MIGRATION_MB_S: f64 = 758.0;
const PAPER_P999_US: f64 = 250.0;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 9;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 5.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rocksteady-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check {
        check(args.seed)
    } else {
        match args.workload.as_deref() {
            Some("probes") => probes_only(args.seed),
            Some(name) => match Workload::from_name(name) {
                Some(w) => run_workload(w, &args),
                None => Err(format!("unknown workload {name}")),
            },
            None => Err("give --workload <name>, --workload probes, or --check".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rocksteady-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One `--workload <name>` run. Returns whether every gate passed.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    if !Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root (benchmark/ not found here)".into());
    }
    // Measured on the untouched heap, or it would read low.
    let table_bytes = args.trace.then(|| probes::hashtable_bytes_per_record(1));
    let scn = w.scenario(1);
    let mut rec = Recorder::default();
    let mut problems = Vec::new();
    let calib_first = probes::calib_spin_ms();

    // Round 0 pays the first-touch page faults and is discarded for
    // timing; it is also the round whose every key is read back, which
    // the measured rounds (same seed, identical counts) need not repeat.
    let warm_up = run_round(&scn, RoundOpts::plain(args.seed, 0, false, true), &mut rec);
    let mut rounds: Vec<Round> = Vec::new();
    let (least, budget) = if args.trace {
        (1, 0.0)
    } else {
        (MIN_ROUNDS, args.seconds)
    };
    while rounds.len() < least
        || (rounds.len() < MAX_ROUNDS
            && rounds.iter().map(|r| r.setup_s + r.run_s).sum::<f64>() < budget)
    {
        let opts = RoundOpts::plain(args.seed, rounds.len() as u32 + 1, false, false);
        rounds.push(run_round(&scn, opts, &mut rec));
    }
    let traced = args.trace.then(|| {
        let opts = RoundOpts::plain(args.seed, rounds.len() as u32 + 1, true, true);
        run_round(&scn, opts, &mut rec)
    });

    // Correctness: every round's gate, and bit-identical simulated
    // outputs and counts across the rounds of the run.
    for r in std::iter::once(&warm_up).chain(&rounds).chain(&traced) {
        problems.extend(r.problems.iter().cloned());
    }
    for (i, r) in rounds.iter().enumerate() {
        if let Some(diff) = first_difference(&warm_up.counts, &r.counts, false) {
            problems.push(format!("round {} differs from the warm-up: {diff}", i + 1));
        }
    }
    if let Some(t) = &traced {
        // Arming the program's tracing must not move the schedule; only
        // the observability layers' own counts may differ.
        if let Some(diff) = first_difference(&warm_up.counts, &t.counts, scn.day.is_none()) {
            problems.push(format!("traced round differs from the warm-up: {diff}"));
        }
        let covered = coverage_permille(rec.spans(), t.span);
        if covered < 950 {
            problems.push(format!(
                "spans cover only {covered} permille of the traced round"
            ));
        }
    }

    let mut metrics: Results = if let Some(t) = &traced {
        let (probed, storm_ns) = probes::run_all(1);
        let (overheads, overhead_problems) = overhead::matrix(args.seed, 1);
        problems.extend(overhead_problems);
        let mut m = layer_metrics(&scn, &rounds, t, &rec, storm_ns);
        m.extend(probed);
        m.extend(overheads);
        m
    } else {
        end_to_end_metrics(&rounds)
    };
    // The yardstick runs first and last; a run whose two readings
    // differ by more than a tenth was disturbed.
    let calib_last = probes::calib_spin_ms();
    let noisy = (calib_first - calib_last).abs() > 0.1 * calib_first.min(calib_last);
    if let Some(bytes) = table_bytes {
        metrics.push(("hashtable.bytes_per_record", bytes));
        metrics.push(("calib.spin_ms", calib_first.min(calib_last)));
    }
    check_schema(&metrics, args.trace)?;

    // Human-readable: every metric as `name value unit`.
    println!(
        "# workload={} seed={} trace={} rounds={} noisy={} peak_rss_kb={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        u8::from(noisy),
        probes::proc_status_kb("VmHWM:")
    );
    for (name, value) in &metrics {
        let unit = spec::unit_of(name);
        // Host times: the median round, with the rounds' range beside it.
        let per_round: Option<fn(&Round) -> f64> = match *name {
            "setup_s" => Some(|r| r.setup_s),
            "run_s" => Some(|r| r.run_s),
            _ => None,
        };
        match per_round {
            Some(f) => {
                let (lo, hi) = min_max(&rounds.iter().map(f).collect::<Vec<_>>());
                println!("{name} {value} {unit} min={lo} max={hi}");
            }
            None => println!("{name} {value} {unit}"),
        }
    }
    for (i, r) in rounds.iter().enumerate() {
        println!("# round {} setup_s={} run_s={}", i + 1, r.setup_s, r.run_s);
    }
    // The warm-up's counts equal every measured round's, and it alone
    // carries the read-back mismatches.
    let first = &rounds[0];
    let (completed, failures) = (warm_up.count("workload.ops_completed"), warm_up.failures());
    println!("failed_share {} ratio", failed_share(completed, failures));
    println!("calib.spin_ms {calib_first} ms first, {calib_last} ms last");
    for p in &problems {
        eprintln!("INCORRECT: {p}");
    }

    let correct = problems.is_empty();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if args.trace {
        let path = format!("{OUT_DIR}/{}.trace.json", w.name());
        std::fs::write(&path, rec.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let result = result_json(correct, completed + failures, failures, &metrics);
    let path = format!(
        "{OUT_DIR}/{}.{}.json",
        w.name(),
        if args.trace { "layers" } else { "summary" }
    );
    let summary = summary_json(w, args, rounds.len(), noisy, &result, &first.counts);
    std::fs::write(&path, summary).map_err(|e| format!("{path}: {e}"))?;
    println!("{result}");
    Ok(correct)
}

/// The first key, among those both rounds harvested, on which their
/// counts differ. `skip_trace` leaves the trace layer's own counts out
/// (the traced round arms tracing where the measured rounds do not).
fn first_difference(
    a: &BTreeMap<&'static str, u64>,
    b: &BTreeMap<&'static str, u64>,
    skip_trace: bool,
) -> Option<String> {
    a.iter()
        .filter(|(k, _)| !(skip_trace && k.starts_with("trace.")))
        .find_map(|(k, v)| match b.get(k) {
            Some(other) if other != v => Some(format!("{k}: {v} vs {other}")),
            _ => None,
        })
}

/// The end-to-end metrics of a `--trace 0` run: host metrics are the
/// median measured round, `sim_` metrics are the (identical) rounds'.
fn end_to_end_metrics(rounds: &[Round]) -> Results {
    let r = &rounds[0];
    let c = |name: &str| r.count(name) as f64;
    vec![
        (
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        (
            "run_s",
            median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        ),
        (
            "peak_rss_mb",
            probes::proc_status_kb("VmHWM:") as f64 * 1024.0 / 1e6,
        ),
        (
            "sim_migration_mb_s",
            c("master.bytes_migrated") * 1e3 / c("sim.migration_ns").max(1.0),
        ),
        ("sim_read_p50_us", c("sim.read_p50_ps") / 1e6),
        ("sim_read_p999_us", c("sim.read_p999_ps") / 1e6),
        (
            "sim_mig_ops_per_s",
            c("sim.ops_in_span") * 1e9 / c("sim.span_ns").max(1.0),
        ),
        (
            "sim_slo_ok_share",
            1.0 - c("cluster.slo_breach_intervals") / c("sim.slo_windows").max(1.0),
        ),
    ]
}

/// The per-layer metrics that come from a workload's rounds: exact
/// counts [C], benchmark spans around cluster calls [S] (median
/// measured round; exports from the traced round), and the traced
/// round's ledger, critical path and phase split [T].
fn layer_metrics(
    scn: &Scenario,
    rounds: &[Round],
    traced: &Round,
    rec: &Recorder,
    storm_ns: f64,
) -> Results {
    let spans = rec.spans();
    let first = &rounds[0];
    let mut out = Results::new();

    // [C] counts, straight from the measured rounds' harvest.
    for name in [
        "logstore.segments_cleaned",
        "simnet.events",
        "master.records_replayed",
        "master.bytes_migrated",
        "backup.bytes_stored",
        "coordinator.lineage_deps",
        "rebalancer.moves_admitted",
        "rebalancer.moves_completed",
        "rebalancer.peak_concurrent",
        "core.pulls",
        "core.priority_pulls",
        "core.retry_hints",
        "server.ops_served",
        "server.src_dispatch_util_permille",
        "server.src_worker_cores_x100",
        "server.dispatch_overcommit",
        "workload.ops_completed",
        "workload.offered_vs_completed_permille",
        "workload.reads_in_span",
        "workload.retries",
        "workload.timeouts",
        "workload.not_found",
        "cluster.slo_breach_intervals",
        "audit.events",
        "audit.violations",
        "flightrec.incidents",
    ] {
        out.push((name, first.count(name) as f64));
    }
    out.push((
        "logstore.bytes_per_user_byte",
        first.count("logstore.log_bytes") as f64 / first.count("logstore.user_bytes") as f64,
    ));
    // [T] counts and shares that need the program's tracing/profiling.
    for name in [
        "trace.events",
        "trace.dropped",
        "profiler.src_dispatch_permille",
        "profiler.src_service_permille",
        "profiler.src_pull_gather_permille",
        "profiler.src_priority_pull_permille",
        "profiler.tgt_dispatch_permille",
        "profiler.tgt_replay_permille",
        "profiler.tgt_hold_permille",
        "profiler.tgt_background_permille",
        "critpath.replay_permille",
        "critpath.pull_rtt_permille",
        "critpath.pull_nic_permille",
        "critpath.priority_pull_permille",
        "critpath.dispatch_queue_permille",
        "critpath.prepare_flip_permille",
    ] {
        out.push((name, traced.count(name) as f64));
    }

    // [S] spans around cluster calls: median over the measured rounds.
    let per_round = |f: &dyn Fn(&Round, u32) -> f64| -> f64 {
        let values: Vec<f64> = rounds.iter().zip(1u32..).map(|(r, id)| f(r, id)).collect();
        median(&values)
    };
    let ms = |name: &'static str| per_round(&|_, id| total_ns(spans, id, name) as f64 / 1e6);
    out.push(("cluster.build_ms", ms("build")));
    out.push((
        "cluster.load_rec_per_s",
        per_round(&|_, id| scn.records as f64 * 1e9 / total_ns(spans, id, "load_table") as f64),
    ));
    out.push(("cluster.seed_backups_ms", ms("seed_backups")));
    let run_ns_per_event = per_round(&|r, id| {
        total_ns(spans, id, "run_until") as f64 / r.count("simnet.events") as f64
    });
    out.push(("cluster.run_ns_per_event", run_ns_per_event));
    out.push((
        "cluster.records_migrated_per_host_s",
        per_round(&|r, _| r.count("master.records_replayed") as f64 / r.run_s),
    ));
    // Read-back runs on the warm-up round (id 0) only.
    out.push((
        "cluster.verify_ms",
        total_ns(spans, 0, "verify") as f64 / 1e6,
    ));
    out.push(("cluster.drop_ms", ms("drop")));
    out.push((
        "server.harness_over_kernel_x1000",
        run_ns_per_event / storm_ns * 1000.0,
    ));

    // Traced round: phase split of the sliced run, export spans, and
    // what the tracing itself cost.
    let traced_id = rounds.len() as u32 + 1;
    for (name, (ns, events)) in [
        "cluster.ns_per_event_premig",
        "cluster.ns_per_event_mig",
        "cluster.ns_per_event_postmig",
    ]
    .into_iter()
    .zip(traced.phases)
    {
        out.push((name, ns as f64 / events.max(1) as f64));
    }
    for (name, span) in [
        ("metrics.export_ms", "export_metrics_json"),
        ("trace.export_ms", "export_trace_json"),
        ("trace.journeys_ms", "export_journeys_json"),
        ("profiler.export_ms", "export_folded"),
        ("audit.export_ms", "export_audit_json"),
    ] {
        out.push((name, total_ns(spans, traced_id, span) as f64 / 1e6));
    }
    out.push((
        "overhead.bench_traced_x1000",
        (traced.setup_s + traced.run_s) / per_round(&|r, _| r.setup_s + r.run_s) * 1000.0,
    ));

    // The simulator's error against the paper's anchors.
    let e2e = end_to_end_metrics(rounds);
    let sim = |name: &str| {
        e2e.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    out.push((
        "model.migration_rate_err_pct",
        (sim("sim_migration_mb_s") - PAPER_MIGRATION_MB_S).abs() / PAPER_MIGRATION_MB_S * 100.0,
    ));
    out.push((
        "model.p999_err_pct",
        (sim("sim_read_p999_us") - PAPER_P999_US).abs() / PAPER_P999_US * 100.0,
    ));
    out
}

/// Refuses a result whose metric names differ from the catalogue.
fn check_schema(metrics: &Results, layers: bool) -> Result<(), String> {
    let emitted = metrics.iter().map(|(n, _)| *n);
    let checked = if layers {
        spec::check_names(emitted, spec::PER_LAYER.iter().map(|m| m.0))
    } else {
        spec::check_names(emitted, spec::END_TO_END.iter().map(|m| m.0))
    };
    checked.map_err(|e| format!("metric names differ from the catalogue: {e}"))?;
    match metrics.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("metric {name} is not a finite number ({v})")),
        None => Ok(()),
    }
}

/// The contract's result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Results) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            spec::unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// The file written beside the traces: the result, the exact counts
/// behind it, and the claim this benchmark makes — none.
fn summary_json(
    w: Workload,
    args: &Args,
    rounds: usize,
    noisy: bool,
    result: &str,
    counts: &BTreeMap<&'static str, u64>,
) -> String {
    let mut out = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"measured_rounds\": {rounds},\n\"noisy\": {},\n\"result\": {result},\n\"counts\": {{",
        w.name(),
        args.seed,
        u8::from(noisy)
    );
    for (i, (name, value)) in counts.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {value}", if i > 0 { ", " } else { "" });
    }
    out.push_str("},\n\"claim\": null\n}\n");
    out
}

/// `--workload probes`: the layer probes and the overhead matrix alone.
fn probes_only(seed: u64) -> Result<bool, String> {
    let table_bytes = probes::hashtable_bytes_per_record(1);
    let calib = probes::calib_spin_ms();
    let (mut results, _) = probes::run_all(1);
    results.push(("hashtable.bytes_per_record", table_bytes));
    let (overheads, problems) = overhead::matrix(seed, 1);
    results.extend(overheads);
    results.push(("calib.spin_ms", calib));
    for (name, value) in &results {
        println!("{name} {value} {}", spec::unit_of(name));
    }
    for p in &problems {
        eprintln!("INCORRECT: {p}");
    }
    Ok(problems.is_empty())
}

/// `--check`: every workload at 1/10 scale for one traced round, the
/// probes and the matrix shrunk to a smoke test. Validates the
/// correctness gate and the output schema; prints no numbers.
fn check(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    let table_bytes = probes::hashtable_bytes_per_record(20);
    let (probed, storm_ns) = probes::run_all(20);
    let (overheads, mut problems) = overhead::matrix(seed, 10);
    for w in Workload::ALL {
        let scn = w.scenario(10);
        let mut rec = Recorder::default();
        let measured = [run_round(
            &scn,
            RoundOpts::plain(seed, 1, false, true),
            &mut rec,
        )];
        let traced = run_round(&scn, RoundOpts::plain(seed, 2, true, true), &mut rec);
        problems.extend(measured[0].problems.iter().cloned());
        problems.extend(traced.problems.iter().cloned());
        if let Some(diff) = first_difference(&measured[0].counts, &traced.counts, scn.day.is_none())
        {
            problems.push(format!("traced round differs: {diff}"));
        }
        check_schema(&end_to_end_metrics(&measured), false)?;
        let mut layers = layer_metrics(&scn, &measured, &traced, &rec, storm_ns);
        layers.extend(probed.iter().copied());
        layers.extend(overheads.iter().copied());
        layers.push(("hashtable.bytes_per_record", table_bytes));
        layers.push(("calib.spin_ms", 1.0));
        check_schema(&layers, true)?;
        println!(
            "check {} {}",
            w.name(),
            if problems.is_empty() { "ok" } else { "FAILED" }
        );
        for p in problems.drain(..) {
            eprintln!("INCORRECT: {}: {p}", w.name());
            ok = false;
        }
    }
    Ok(ok)
}
