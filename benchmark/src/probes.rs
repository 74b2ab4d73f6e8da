//! Direct layer probes: each calls one crate's public functions at a
//! fixed size and reports host time, so a change to one layer shows in
//! that layer's number before it shows end to end. Every probe runs
//! three times and reports the median.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rocksteady::{source, MigrationConfig, MigrationManager};
use rocksteady_audit::{AuditKind, AuditSink};
use rocksteady_backup::BackupService;
use rocksteady_common::rng::Prng;
use rocksteady_common::wire::{SimMessage, WireSized};
use rocksteady_common::zipf::{KeyDist, KeySampler};
use rocksteady_common::{
    key_hash, HashRange, Histogram, KeyHash, Nanos, ScanCursor, ServerId, TableId, MILLISECOND,
};
use rocksteady_coordinator::Coordinator;
use rocksteady_flightrec::{build_detectors, DetectorConfig, MigrationSample, WatchdogSample};
use rocksteady_hashtable::HashTable;
use rocksteady_logstore::crc::crc32c;
use rocksteady_logstore::{Cleaner, EntryKind, Log, LogConfig, LogRef, SideLog};
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_metrics::Registry;
use rocksteady_profiler::{Activity, Profiler};
use rocksteady_proto::{Envelope, Record};
use rocksteady_rebalancer::{
    ClusterView, GreedyLoadDelta, PlacementPolicy, ServerLoad, TabletInfo,
};
use rocksteady_simnet::{Actor, ActorId, Ctx, Event, NicConfig, Simulation};
use rocksteady_trace::Tracer;
use rocksteady_workload::core::write_primary_key;

use crate::stats::{median, min_max};

const T: TableId = TableId(1);
const KEY_LEN: usize = 30;
const VALUE: [u8; 100] = [0xcd; 100];
/// Per-Pull byte budget (the protocol default).
const PULL_BUDGET: u32 = 20_000;
const REPS: usize = 3;

/// Named probe results, in emission order.
pub type Results = Vec<(&'static str, f64)>;

/// Median over [`REPS`] runs of `f`, which returns one measurement.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&runs)
}

/// Host nanoseconds `f` took.
fn ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Median ns per op of running `body(i)` for `i in 0..ops`.
fn ns_per_op(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    let ops = ops.max(1);
    med(|| {
        ns(|| {
            for i in 0..ops {
                body(i);
            }
        }) / ops as f64
    })
}

/// A cheap deterministic scramble for probe inputs.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) ^ i
}

// ------------------------------------------------------------ calib --

/// The cross-machine yardstick, written here so no repo code can move
/// it: a fixed integer loop plus a dependent pointer walk over 64 MB.
/// Returns host milliseconds (the fastest of three passes).
pub fn calib_spin_ms() -> f64 {
    const SLOTS: usize = (64 << 20) / 8;
    // Sattolo's algorithm: one cycle through every slot.
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            ns(|| {
                let mut acc = 1u64;
                for i in 0..30_000_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
                }
                let mut at = (black_box(acc) % SLOTS as u64) as usize;
                for _ in 0..750_000 {
                    at = next[at] as usize;
                }
                black_box(at);
            }) / 1e6
        })
        .collect();
    // The least disturbed of three: the yardstick measures the machine,
    // not what else ran on it.
    min_max(&runs).0
}

// ----------------------------------------------------------- simnet --

#[derive(Debug)]
struct Hop;

impl WireSized for Hop {
    fn wire_size(&self) -> u64 {
        64
    }
}

impl SimMessage for Hop {}

/// One node of the ping-storm ring: forwards every message to its
/// successor and keeps a near and a far timer armed.
struct StormActor {
    next: ActorId,
    /// Messages this actor injects at start (the seeder's in-flight
    /// population; 0 elsewhere).
    inject: usize,
    ring: usize,
    horizon: Nanos,
}

impl Actor<Hop> for StormActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Hop>) {
        for i in 0..self.inject {
            ctx.send(i % self.ring, Hop);
        }
        ctx.timer(100_000, 1);
        ctx.timer(2 * MILLISECOND, 2);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Hop>, event: Event<Hop>) {
        if ctx.now() >= self.horizon {
            return;
        }
        match event {
            Event::Message { payload, .. } => ctx.send(self.next, payload),
            Event::Timer { token } => {
                ctx.timer(if token == 1 { 100_000 } else { 2 * MILLISECOND }, token)
            }
        }
    }
}

/// The kernel with trivial actors: 128 actors in a ring, 2 048
/// messages in flight, 4 ms simulated. Returns `(events/s, ns/event)`.
fn ping_storm(k: u64) -> (f64, f64) {
    const RING: usize = 128;
    let per_event = med(|| {
        let nic = NicConfig {
            bytes_per_ns: 5.0,
            one_way_latency_ns: 1_800,
        };
        let mut sim = Simulation::new(nic, 7);
        for i in 0..RING {
            sim.add_actor(Box::new(StormActor {
                next: (i + 1) % RING,
                inject: if i == 0 { 2_048 } else { 0 },
                ring: RING,
                horizon: 4 * MILLISECOND / k,
            }));
        }
        let elapsed = ns(|| sim.run_to_idle());
        elapsed / sim.events_processed() as f64
    });
    (1e9 / per_event, per_event)
}

// ------------------------------------------------------------ masters --

/// `n` primary keys, flat, with their hashes.
fn keys(n: u64) -> (Vec<u8>, Vec<KeyHash>) {
    let mut flat = Vec::with_capacity(n as usize * KEY_LEN);
    let mut hashes = Vec::with_capacity(n as usize);
    let mut key = Vec::with_capacity(KEY_LEN);
    for rank in 0..n {
        write_primary_key(rank, KEY_LEN, &mut key);
        hashes.push(key_hash(&key));
        flat.extend_from_slice(&key);
    }
    (flat, hashes)
}

fn empty_master(records: u64) -> MasterService {
    let mut m = MasterService::new(MasterConfig {
        id: ServerId(0),
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: None,
        },
        hash_buckets: (records as usize / 4).next_power_of_two(),
        hash_stripes: 256,
    });
    m.add_tablet(T, HashRange::full(), TabletRole::Owner);
    m
}

fn load(m: &mut MasterService, flat: &[u8], hashes: &[KeyHash]) {
    for (key, hash) in flat.chunks_exact(KEY_LEN).zip(hashes) {
        m.load_object_hashed(T, *hash, key, &VALUE);
    }
}

/// Every record of `m` as Pull-sized batches, through the source-side
/// handler.
fn pull_all(m: &MasterService) -> Vec<Vec<Record>> {
    let mut batches = Vec::new();
    let mut cursor = ScanCursor::default();
    loop {
        let (records, next, _) = source::handle_pull(m, T, HashRange::full(), cursor, PULL_BUDGET);
        batches.push(records);
        match next {
            Some(c) => cursor = c,
            None => return batches,
        }
    }
}

fn master_probes(out: &mut Results, k: u64) {
    let n = 250_000 / k;
    let (flat, hashes) = keys(n);
    let key_of = |i: usize| &flat[i * KEY_LEN..(i + 1) * KEY_LEN];

    let mut m = empty_master(n);
    out.push((
        "master.load_rec_per_s",
        med(|| {
            m = empty_master(n);
            n as f64 * 1e9 / ns(|| load(&mut m, &flat, &hashes))
        }),
    ));

    let mut work = Work::default();
    out.push((
        "master.read_ns",
        ns_per_op(n, |i| {
            let at = (mix(i) % n) as usize;
            black_box(m.read(T, hashes[at], Some(key_of(at)), &mut work).is_ok());
        }),
    ));

    out.push((
        "master.gather_rec_per_s",
        med(|| {
            let mut records = 0usize;
            let mut cursor = ScanCursor::default();
            let elapsed = ns(|| loop {
                let (batch, next) =
                    m.gather_range(T, HashRange::full(), cursor, PULL_BUDGET.into(), &mut work);
                records += black_box(batch).len();
                match next {
                    Some(c) => cursor = c,
                    None => break,
                }
            });
            assert_eq!(records as u64, n, "gather must visit every record");
            n as f64 * 1e9 / elapsed
        }),
    ));

    let mut pulled = 0usize;
    out.push((
        "core.handle_pull_rec_per_s",
        med(|| {
            let elapsed = ns(|| pulled = pull_all(&m).iter().map(Vec::len).sum());
            pulled as f64 * 1e9 / elapsed
        }),
    ));
    assert_eq!(pulled as u64, n);

    let batches = pull_all(&m);
    out.push((
        "master.replay_rec_per_s",
        med(|| {
            let mut target = empty_master(n);
            let side = SideLog::new(Arc::clone(&target.log));
            let mut applied = 0usize;
            let elapsed = ns(|| {
                for batch in &batches {
                    applied += target.replay_batch(batch, ReplayDest::Side(&side), &mut work);
                }
            });
            assert_eq!(applied as u64, n, "replay must apply every record");
            n as f64 * 1e9 / elapsed
        }),
    ));
    drop(batches);

    out.push((
        "master.write_ns",
        ns_per_op(n, |i| {
            let at = (mix(i) % n) as usize;
            black_box(
                m.write(T, hashes[at], key_of(at), &VALUE, &mut work)
                    .is_ok(),
            );
        }),
    ));

    // Half-dead segments: load, then overwrite every even rank once.
    // The loaded segments are now 50% dead (the overwrites sit in newer,
    // fully live ones), so each cleaned segment relocates half its
    // entries and drops the rest.
    out.push((
        "logstore.clean_mb_s",
        med(|| {
            let mut m = empty_master(n);
            load(&mut m, &flat, &hashes);
            for at in (0..n as usize).step_by(2) {
                let _ = m.write(T, hashes[at], key_of(at), &VALUE, &mut work);
            }
            let cleaner = Cleaner {
                utilization_threshold: 0.9,
                max_segments_per_pass: 8,
            };
            let mut reclaimed = 0u64;
            let elapsed = ns(|| {
                while let Some(stats) = m.clean_once(&cleaner) {
                    reclaimed += stats.bytes_reclaimed;
                }
            });
            assert!(reclaimed > 0, "the cleaner found nothing to clean");
            reclaimed as f64 * 1e3 / elapsed
        }),
    ));
}

// ----------------------------------------------------------- the rest --

fn common_probes(out: &mut Results, k: u64) {
    let sampler = KeySampler::new(1_000_000, KeyDist::Zipfian { theta: 0.99 }, true);
    let mut rng = Prng::new(1);
    out.push((
        "common.zipf_sample_ns",
        ns_per_op(2_000_000 / k, |_| {
            black_box(sampler.sample(&mut rng));
        }),
    ));
    let mut hist = Histogram::new();
    out.push((
        "common.hist_record_ns",
        ns_per_op(5_000_000 / k, |i| hist.record(5_000 + mix(i) % 400_000)),
    ));
    black_box(hist.count());
    let mut key = *b"user00000000000000000000012345";
    out.push((
        "common.key_hash_ns",
        ns_per_op(5_000_000 / k, |i| {
            key[29] = b'0' + (i % 10) as u8;
            black_box(key_hash(black_box(&key)));
        }),
    ));
    let mut buf = Vec::with_capacity(KEY_LEN);
    out.push((
        "workload.keygen_ns",
        ns_per_op(5_000_000 / k, |i| {
            write_primary_key(mix(i) % 1_000_000, KEY_LEN, &mut buf);
            black_box(key_hash(&buf));
        }),
    ));
}

fn logstore_probes(out: &mut Results, k: u64) {
    let config = LogConfig {
        segment_bytes: 1 << 20,
        max_segments: None,
    };
    let key = [b'k'; KEY_LEN];
    out.push((
        "logstore.append_ns",
        med(|| {
            let log = Log::new(config.clone());
            let ops = 1_000_000 / k;
            ns(|| {
                for i in 0..ops {
                    let r = log.append(EntryKind::Object, T.0, i, i, &key, &VALUE);
                    black_box(r.is_ok());
                }
            }) / ops as f64
        }),
    ));
    out.push((
        "logstore.sidelog_batch_rec_per_s",
        med(|| {
            let side = SideLog::new(Arc::new(Log::new(config.clone())));
            // One Pull response's worth of records per lock acquisition.
            let (batches, per_batch) = ((4_000 / k).max(1), 150u64);
            let elapsed = ns(|| {
                for b in 0..batches {
                    side.append_batch(|a| {
                        for i in 0..per_batch {
                            let v = b * per_batch + i;
                            let r = a.append(EntryKind::Object, T.0, v, v, &key, &VALUE);
                            black_box(r.is_ok());
                        }
                    });
                }
            });
            black_box(side.commit().is_ok());
            (batches * per_batch) as f64 * 1e9 / elapsed
        }),
    ));
    let data = vec![0xa5u8; 1 << 20];
    out.push((
        "logstore.crc32c_gb_s",
        med(|| {
            let rounds = (200 / k as usize).max(1);
            let elapsed = ns(|| {
                for _ in 0..rounds {
                    black_box(crc32c(black_box(&data)));
                }
            });
            (rounds * data.len()) as f64 / elapsed
        }),
    ));
}

/// Resident set size of this process, bytes.
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// A `kB` field of `/proc/self/status` (0 when unreadable).
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident bytes per record of a table holding `1_000_000 / k`
/// records at four per bucket. Call it before anything else has used
/// the heap: the bucket arrays are then fresh zero pages, faulted in on
/// first touch, and the resident-set growth is the table's footprint
/// (later, freed heap would be reused and the growth would read low).
pub fn hashtable_bytes_per_record(k: u64) -> f64 {
    let n = 1_000_000 / k;
    let before = rss_bytes();
    let ht = HashTable::new(n as usize / 4, 256);
    for i in 0..n {
        let r = LogRef {
            segment: i,
            offset: 0,
        };
        black_box(ht.upsert(T, key_hash(&i.to_le_bytes()), r, |_| true));
    }
    let grown = rss_bytes().saturating_sub(before);
    assert_eq!(ht.len() as u64, n);
    grown as f64 / n as f64
}

fn hashtable_probes(out: &mut Results, k: u64) {
    let n = 1_000_000 / k;
    let hashes: Vec<KeyHash> = (0..2 * n).map(|i| key_hash(&i.to_le_bytes())).collect();
    let at = |i: u64| LogRef {
        segment: i,
        offset: 0,
    };
    let mut ht = HashTable::new(n as usize / 4, 256);
    let mut built = false;
    out.push((
        "hashtable.upsert_ns",
        med(|| {
            if built {
                ht = HashTable::new(n as usize / 4, 256);
            }
            built = true;
            ns(|| {
                for i in 0..n {
                    black_box(ht.upsert(T, hashes[i as usize], at(i), |_| true));
                }
            }) / n as f64
        }),
    ));
    out.push((
        "hashtable.lookup_hit_ns",
        ns_per_op(2 * n, |i| {
            black_box(ht.lookup(T, hashes[(mix(i) % n) as usize], |_| true));
        }),
    ));
    out.push((
        "hashtable.lookup_miss_ns",
        ns_per_op(2 * n, |i| {
            black_box(ht.lookup(T, hashes[(n + mix(i) % n) as usize], |_| true));
        }),
    ));
    out.push((
        "hashtable.scan_rec_per_s",
        med(|| {
            let mut seen = 0u64;
            let elapsed = ns(|| ht.for_each_in_range(T, HashRange::full(), |_| seen += 1));
            assert_eq!(seen, n);
            n as f64 * 1e9 / elapsed
        }),
    ));
}

fn backup_probe(out: &mut Results, k: u64) {
    let image = Bytes::from(vec![0x5au8; 1 << 20]);
    out.push((
        "backup.append_mb_s",
        med(|| {
            let backup = BackupService::new(ServerId(1));
            // 1 KiB replication frames, in order, one segment per MiB.
            let (segments, frame) = ((256 / k).max(1), 1024usize);
            let elapsed = ns(|| {
                for seg in 0..segments {
                    for off in (0..image.len()).step_by(frame) {
                        let data = image.slice(off..off + frame);
                        black_box(backup.append(ServerId(0), seg, off as u32, data));
                    }
                    backup.close(ServerId(0), seg);
                }
            });
            assert_eq!(backup.total_bytes(), segments << 20);
            (segments << 20) as f64 * 1e3 / elapsed
        }),
    ));
}

fn placement_probes(out: &mut Results, k: u64) {
    let tablets = HashRange::full().split(16);
    let mut coord = Coordinator::new();
    for (i, range) in tablets.iter().enumerate() {
        coord.register_server(ServerId(i as u32 / 4));
        coord.create_tablet(T, *range, ServerId(i as u32 / 4));
    }
    out.push((
        "coordinator.tablet_lookup_ns",
        ns_per_op(5_000_000 / k, |i| {
            black_box(coord.tablet_for(T, mix(i)).map(|t| t.owner));
        }),
    ));

    // One hot server of four, four tablets each: every round proposes.
    let view = |at: Nanos| ClusterView {
        at,
        servers: (0..4u32)
            .map(|s| ServerLoad {
                server: ServerId(s),
                dispatch_util: if s == 0 { 0.9 } else { 0.1 },
                ops_per_sec: 10_000.0,
                tablets: tablets[s as usize * 4..(s as usize + 1) * 4]
                    .iter()
                    .map(|range| TabletInfo {
                        table: T,
                        range: *range,
                    })
                    .collect(),
            })
            .collect(),
        slo_headroom: Some(100_000),
        in_flight: Vec::new(),
    };
    let mut policy = GreedyLoadDelta::new(0.12, 4).with_cooldown(800 * MILLISECOND);
    let mut view = view(0);
    let mut proposed = 0usize;
    out.push((
        "rebalancer.propose_us",
        ns_per_op(200_000 / k, |_| {
            // One decision tick later each call, so cooldowns expire
            // the way they do in a run.
            view.at += 100 * MILLISECOND;
            proposed += policy.propose(&view).len();
        }) / 1e3,
    ));
    assert!(proposed > 0, "the policy never proposed a move");

    // A running migration with every pull outstanding: the steady-state
    // poll the dispatch core pays on each pass.
    let mut mgr = MigrationManager::new(
        T,
        HashRange::full(),
        ServerId(0),
        0,
        MigrationConfig::default(),
    );
    black_box(mgr.begin());
    black_box(mgr.on_prepared());
    mgr.on_registered();
    assert!(!mgr.poll(12).is_empty(), "first poll issues the pulls");
    out.push((
        "core.manager_poll_ns",
        ns_per_op(10_000_000 / k, |_| {
            black_box(mgr.poll(black_box(12)).len());
        }),
    ));
}

fn observability_probes(out: &mut Results, k: u64) {
    let reg = Registry::new();
    let counter = reg.counter("probe_total", "probe counter", &[]);
    out.push((
        "metrics.counter_inc_ns",
        ns_per_op(50_000_000 / k, |_| {
            black_box(black_box(&counter).inc());
        }),
    ));
    for i in 0..1_000u64 {
        let l = [("i", i.to_string())];
        match i % 10 {
            0 => {
                let h = reg.histogram("probe_latency_ns", "probe histogram", &l);
                (0..100).for_each(|v| h.record(5_000 + mix(v + i) % 400_000));
            }
            1 => reg.gauge("probe_level", "probe gauge", &l).set(i as i64),
            _ => {
                reg.counter("probe_events", "probe counters", &l).add(i);
            }
        }
    }
    out.push((
        "metrics.snapshot_json_ms",
        med(|| ns(|| drop(black_box(reg.snapshot(MILLISECOND).to_json()))) / 1e6),
    ));

    let emit = |t: &Tracer, i: u64| {
        if t.is_on() {
            t.instant(
                "rpc",
                "probe",
                1,
                0,
                i,
                vec![("rpc", i), ("queue", 100), ("service", 2_000)],
            );
        }
    };
    let ring = Tracer::with_capacity(1 << 20);
    out.push((
        "trace.emit_ns",
        ns_per_op(3_000_000 / k, |i| emit(&ring, i)),
    ));
    let off = Tracer::off();
    out.push((
        "trace.emit_off_ns",
        ns_per_op(50_000_000 / k, |i| emit(black_box(&off), i)),
    ));

    let profiler = Profiler::armed();
    out.push((
        "profiler.charge_ns",
        ns_per_op(10_000_000 / k, |i| {
            let core = (i % 13) as u32;
            profiler.charge(0, core, Activity::Service, i * 100, 60);
        }),
    ));

    let audit = AuditSink::with_capacity(1 << 18);
    out.push((
        "audit.emit_ns",
        ns_per_op(3_000_000 / k, |i| {
            audit.emit(
                i,
                AuditKind::PriorityServed {
                    server: ServerId(0),
                    requested: 16,
                    records: 16,
                },
            );
        }),
    ));
    assert_eq!(audit.report().violations, 0);

    // One healthy tick through the default catalog: two migrations
    // making progress, nothing over any threshold.
    let mut detectors = build_detectors(&DetectorConfig::default());
    let mut sample = WatchdogSample {
        interval_ns: 10 * MILLISECOND,
        migrations: (1..=2)
            .map(|id| MigrationSample {
                id,
                target: id as u32,
                in_flight: true,
                gathered: 0,
                replay_received: 0,
                replay_applied: 0,
            })
            .collect(),
        ..WatchdogSample::default()
    };
    let mut fired = 0u64;
    out.push((
        "flightrec.evaluate_ns",
        ns_per_op(2_000_000 / k, |i| {
            sample.at = i * sample.interval_ns;
            for m in &mut sample.migrations {
                m.gathered += 150;
                m.replay_received += 150;
                m.replay_applied += 150;
            }
            for d in &mut detectors {
                fired += u64::from(d.evaluate(&sample).is_some());
            }
        }),
    ));
    assert_eq!(fired, 0, "a healthy sample tripped a detector");
}

/// Runs every direct probe with its sizes divided by `k` (1 = as
/// specified; `--check` shrinks them to exercise the code only). Also
/// returns the storm's ns per event, the base of
/// `server.harness_over_kernel_x1000`.
pub fn run_all(k: u64) -> (Results, f64) {
    let mut out = Results::new();
    common_probes(&mut out, k);
    logstore_probes(&mut out, k);
    hashtable_probes(&mut out, k);
    out.push((
        "proto.envelope_bytes",
        std::mem::size_of::<Envelope>() as f64,
    ));
    let (storm_rate, storm_ns) = ping_storm(k);
    out.push(("simnet.storm_events_per_s", storm_rate));
    master_probes(&mut out, k);
    backup_probe(&mut out, k);
    placement_probes(&mut out, k);
    observability_probes(&mut out, k);
    (out, storm_ns)
}
