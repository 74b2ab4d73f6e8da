//! The metric catalogue: every name the benchmark emits, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step, and a run refuses to
//! print a result whose names differ from this table.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, better, bound)`. `sim_` metrics
/// are simulated time (deterministic per seed); the rest is host time
/// or host memory. The two domains never mix in one metric.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("run_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.1),
    ("sim_migration_mb_s", "MB/s", Higher, 0.05),
    ("sim_read_p50_us", "us", Lower, 0.06),
    ("sim_read_p999_us", "us", Lower, 0.25),
    ("sim_mig_ops_per_s", "1/s", Higher, 0.06),
    ("sim_slo_ok_share", "ratio", Higher, 0.05),
];

/// Per-layer metrics: `(name, unit, better)`. The prefix is the crate.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("calib.spin_ms", "ms", Lower),
    ("common.zipf_sample_ns", "ns", Lower),
    ("common.hist_record_ns", "ns", Lower),
    ("common.key_hash_ns", "ns", Lower),
    ("logstore.append_ns", "ns", Lower),
    ("logstore.sidelog_batch_rec_per_s", "rec/s", Higher),
    ("logstore.crc32c_gb_s", "GB/s", Higher),
    ("logstore.clean_mb_s", "MB/s", Higher),
    ("logstore.segments_cleaned", "count", Higher),
    ("logstore.bytes_per_user_byte", "ratio", Lower),
    ("hashtable.upsert_ns", "ns", Lower),
    ("hashtable.lookup_hit_ns", "ns", Lower),
    ("hashtable.lookup_miss_ns", "ns", Lower),
    ("hashtable.scan_rec_per_s", "rec/s", Higher),
    ("hashtable.bytes_per_record", "B/rec", Lower),
    ("proto.envelope_bytes", "B", Lower),
    ("simnet.storm_events_per_s", "1/s", Higher),
    ("simnet.events", "count", Lower),
    ("master.load_rec_per_s", "rec/s", Higher),
    ("master.read_ns", "ns", Lower),
    ("master.write_ns", "ns", Lower),
    ("master.gather_rec_per_s", "rec/s", Higher),
    ("master.replay_rec_per_s", "rec/s", Higher),
    ("master.records_replayed", "count", Lower),
    ("master.bytes_migrated", "B", Lower),
    ("backup.append_mb_s", "MB/s", Higher),
    ("backup.bytes_stored", "B", Lower),
    ("coordinator.tablet_lookup_ns", "ns", Lower),
    ("coordinator.lineage_deps", "count", Lower),
    ("rebalancer.propose_us", "us", Lower),
    ("rebalancer.moves_admitted", "count", Higher),
    ("rebalancer.moves_completed", "count", Higher),
    ("rebalancer.peak_concurrent", "count", Higher),
    ("core.handle_pull_rec_per_s", "rec/s", Higher),
    ("core.manager_poll_ns", "ns", Lower),
    ("core.pulls", "count", Lower),
    ("core.priority_pulls", "count", Lower),
    ("core.retry_hints", "count", Lower),
    ("server.harness_over_kernel_x1000", "x1000", Lower),
    ("server.ops_served", "count", Higher),
    ("server.src_dispatch_util_permille", "permille", Lower),
    ("server.src_worker_cores_x100", "x100", Lower),
    ("server.dispatch_overcommit", "count", Lower),
    ("workload.keygen_ns", "ns", Lower),
    ("workload.ops_completed", "count", Higher),
    ("workload.offered_vs_completed_permille", "permille", Higher),
    ("workload.reads_in_span", "count", Higher),
    ("workload.retries", "count", Lower),
    ("workload.timeouts", "count", Lower),
    ("workload.not_found", "count", Lower),
    ("cluster.build_ms", "ms", Lower),
    ("cluster.load_rec_per_s", "rec/s", Higher),
    ("cluster.seed_backups_ms", "ms", Lower),
    ("cluster.run_ns_per_event", "ns", Lower),
    ("cluster.records_migrated_per_host_s", "rec/s", Higher),
    ("cluster.verify_ms", "ms", Lower),
    ("cluster.drop_ms", "ms", Lower),
    ("cluster.ns_per_event_premig", "ns", Lower),
    ("cluster.ns_per_event_mig", "ns", Lower),
    ("cluster.ns_per_event_postmig", "ns", Lower),
    ("cluster.slo_breach_intervals", "count", Lower),
    ("metrics.counter_inc_ns", "ns", Lower),
    ("metrics.snapshot_json_ms", "ms", Lower),
    ("metrics.export_ms", "ms", Lower),
    ("trace.emit_ns", "ns", Lower),
    ("trace.emit_off_ns", "ns", Lower),
    ("trace.events", "count", Lower),
    ("trace.dropped", "count", Lower),
    ("trace.export_ms", "ms", Lower),
    ("trace.journeys_ms", "ms", Lower),
    ("profiler.charge_ns", "ns", Lower),
    ("profiler.export_ms", "ms", Lower),
    ("profiler.src_dispatch_permille", "permille", Lower),
    ("profiler.src_service_permille", "permille", Lower),
    ("profiler.src_pull_gather_permille", "permille", Lower),
    ("profiler.src_priority_pull_permille", "permille", Lower),
    ("profiler.tgt_dispatch_permille", "permille", Lower),
    ("profiler.tgt_replay_permille", "permille", Lower),
    ("profiler.tgt_hold_permille", "permille", Lower),
    ("profiler.tgt_background_permille", "permille", Lower),
    ("critpath.replay_permille", "permille", Lower),
    ("critpath.pull_rtt_permille", "permille", Lower),
    ("critpath.pull_nic_permille", "permille", Lower),
    ("critpath.priority_pull_permille", "permille", Lower),
    ("critpath.dispatch_queue_permille", "permille", Lower),
    ("critpath.prepare_flip_permille", "permille", Lower),
    ("audit.emit_ns", "ns", Lower),
    ("audit.events", "count", Lower),
    ("audit.violations", "count", Lower),
    ("audit.export_ms", "ms", Lower),
    ("flightrec.evaluate_ns", "ns", Lower),
    ("flightrec.incidents", "count", Lower),
    ("overhead.trace_x1000", "x1000", Lower),
    ("overhead.trace_ring_x1000", "x1000", Lower),
    ("overhead.profiler_x1000", "x1000", Lower),
    ("overhead.audit_x1000", "x1000", Lower),
    ("overhead.metrics_x1000", "x1000", Lower),
    ("overhead.flightrec_x1000", "x1000", Lower),
    ("overhead.all_ring_x1000", "x1000", Lower),
    ("overhead.bench_traced_x1000", "x1000", Lower),
    ("model.migration_rate_err_pct", "%", Lower),
    ("model.p999_err_pct", "%", Lower),
];

/// The unit of an emitted metric.
///
/// # Panics
///
/// Panics on a name outside both tables: emitting one is a bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Checks that `emitted` is exactly the names of one table, in any
/// order.
pub fn check_names<'a>(
    emitted: impl IntoIterator<Item = &'a str>,
    table: impl IntoIterator<Item = &'static str>,
) -> Result<(), String> {
    let mut got: Vec<&str> = emitted.into_iter().collect();
    let mut want: Vec<&str> = table.into_iter().collect();
    got.sort_unstable();
    want.sort_unstable();
    if let Some(w) = got.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("metric {} emitted twice", w[0]));
    }
    let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
    let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "missing {missing:?}, not in the catalogue {extra:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json`, one directory up from the package.
    fn manifest() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    /// The objects of the top-level array `key`, as text. The file is
    /// flat and its strings hold no brackets, braces or quotes, so
    /// scanning for the closing bracket is a full parse.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open + 1..close]
            .split('}')
            .filter_map(|o| o.find('{').map(|at| &o[at + 1..]))
            .collect()
    }

    /// The value of `"name": ...` in one object: a string's contents or
    /// a number's text.
    fn field<'a>(object: &'a str, name: &str) -> &'a str {
        let key = format!("\"{name}\"");
        let at = object
            .find(&key)
            .unwrap_or_else(|| panic!("field {name} missing in {object}"));
        let value = object[at + key.len()..]
            .trim_start()
            .strip_prefix(':')
            .expect("a colon follows the field name")
            .trim_start();
        match value.strip_prefix('"') {
            Some(s) => &s[..s.find('"').expect("string closes")],
            None => value[..value.find(',').unwrap_or(value.len())].trim(),
        }
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let json = manifest();

        let workloads = objects(&json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|o| field(o, "name")).collect();
        let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, want);
        for o in &workloads {
            assert!(!field(o, "why").is_empty() && field(o, "why").len() <= 200);
        }

        let e2e = objects(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (o, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(o, "name"), *name);
            assert_eq!(field(o, "unit"), *unit, "{name}");
            assert_eq!(field(o, "better"), better.word(), "{name}");
            assert_eq!(field(o, "bound").parse::<f64>().unwrap(), *bound, "{name}");
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));

        let layers = objects(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (o, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(o, "name"), *name);
            assert_eq!(field(o, "unit"), *unit, "{name}");
            assert_eq!(field(o, "better"), better.word(), "{name}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        let mut seen = Vec::new();
        for (name, unit) in all {
            assert!(ok_name(name), "bad name {name}");
            assert!(ok_unit(unit), "bad unit {unit} of {name}");
            assert!(!seen.contains(&name), "{name} listed twice");
            seen.push(name);
        }
    }

    #[test]
    fn check_names_reports_both_directions() {
        let table = || ["a", "b"].into_iter();
        assert!(check_names(["b", "a"], table()).is_ok());
        assert!(check_names(["a"], table())
            .unwrap_err()
            .contains("missing [\"b\"]"));
        assert!(check_names(["a", "b", "c"], table())
            .unwrap_err()
            .contains("[\"c\"]"));
        assert!(check_names(["a", "a", "b"], table())
            .unwrap_err()
            .contains("twice"));
    }
}
