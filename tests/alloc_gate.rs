//! Allocation-count gate for the migration hot path.
//!
//! The gather (Pull source) and replay (Pull target) paths were made
//! slab/arena-backed: gathered keys and values alias the log's segments
//! as refcounted slices, and replay bump-appends into segments without
//! per-record heap boxes. This gate pins that property with a counting
//! global allocator: if a change reintroduces a per-record allocation on
//! either path, the per-record allocation rate regresses past the floor
//! and this test fails. (`ci.sh` runs it as part of the tier-1 suite.)
//! The gate has the benchmark's shape — Pulls of [`PULL_BUDGET_BYTES`]
//! over a log of many segments, so every batch touches tens of them —
//! because a per-batch cost that scales with segments touched (a window
//! taken per Pull instead of kept per master) is invisible on a log of
//! two.
//!
//! The same allocator counts bytes, which pins the hash table's promise
//! that its memory follows the data: nothing per bucket until a stripe's
//! first insert.
//!
//! The trace layer has the same shape of promise: an armed tracer copies
//! each event into a ring and an args arena it already owns, a disarmed
//! one does nothing, so neither allocates per event.
//!
//! The measuring apparatus makes two more: a histogram owns only the
//! buckets between the values it was given, so the thousands a run keeps
//! (one per interval per series per client) cost what they hold; and a
//! YCSB operation costs its client one allocation — the key — however
//! many distinct keys the client has touched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use rocksteady::PULL_BUDGET_BYTES;
use rocksteady_common::zipf::KeySampler;
use rocksteady_common::{
    key_hash, HashRange, Histogram, ScanCursor, ServerId, TableId, TimeSeries, SECOND,
};
use rocksteady_hashtable::{HashTable, MAX_BUCKETS_PER_STRIPE};
use rocksteady_logstore::{LogConfig, LogRef};
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_proto::{Body, Envelope, Request, Response, TabletDescriptor, TabletState};
use rocksteady_simnet::{Actor, Ctx, Directory, Event, NicConfig, SchedulerKind, Simulation};
use rocksteady_trace::Tracer;
use rocksteady_workload::core::primary_key;
use rocksteady_workload::shape::bucket_ranks;
use rocksteady_workload::{client_stats, YcsbClient, YcsbConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes ever asked for (never decremented; a realloc counts its new
/// size), so a difference bounds what a stretch of code allocated.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// The counter is process-wide, so the tests that read it take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

const T: TableId = TableId(1);
const RECORDS: u64 = 10_000;

/// A master whose log rolls every ~100 records: 10 000 of them fill
/// about a hundred segments, and a Pull — which arrives in hash order,
/// not log order — touches most of them in every batch.
fn empty_master() -> MasterService {
    let mut m = MasterService::new(MasterConfig {
        log: LogConfig {
            segment_bytes: 16 << 10,
            max_segments: None,
        },
        hash_buckets: (RECORDS as usize / 4).next_power_of_two(),
        hash_stripes: 64,
        ..MasterConfig::default()
    });
    m.add_tablet(T, HashRange::full(), TabletRole::Owner);
    m
}

fn loaded_master() -> MasterService {
    let mut m = empty_master();
    let value = [0xabu8; 100];
    for rank in 0..RECORDS {
        let key = primary_key(rank, 30);
        m.load_object_hashed(T, key_hash(&key), &key, &value);
    }
    m
}

#[test]
fn gather_and_replay_stay_allocation_free_per_record() {
    let _turn = exclusive();
    let source = loaded_master();
    assert!(
        source.log.stats().segments > 50,
        "the log must be many segments"
    );
    let mut target = empty_master();
    let mut work = Work::default();

    // Gather the whole table in Pull-sized batches, counting allocations.
    // Everything gathered aliases the log (zero-copy slices); the only
    // allowed allocations are the batch's records Vec, sized once from
    // the budget, and one window handle per segment — per segment of the
    // *log*, taken the first time any Pull touches it, not per segment
    // per Pull.
    let mut batches: Vec<Vec<rocksteady_proto::Record>> = Vec::new();
    let mut cursor = Some(ScanCursor::default());
    let before = allocs();
    while let Some(c) = cursor {
        let budget = PULL_BUDGET_BYTES as u64;
        let (recs, next) = source.gather_range(T, HashRange::full(), c, budget, &mut work);
        if !recs.is_empty() {
            batches.push(recs);
        }
        cursor = next;
    }
    let gather_allocs = allocs() - before;
    let gathered: u64 = batches.iter().map(|b| b.len() as u64).sum();
    assert_eq!(gathered, RECORDS, "gather must visit every record");
    assert!(batches.len() > 50, "the table must take many Pulls");
    // Floor: strictly sub-per-record. ~80 batch Vecs plus ~100 segment
    // windows land near 0.02 allocations per record; 0.10 leaves
    // headroom without letting through a window per segment per Pull
    // (≥ 0.2/record at this shape) or a true per-record allocation.
    assert!(
        (gather_allocs as f64) < 0.10 * RECORDS as f64,
        "gather allocation regression: {gather_allocs} allocs for {RECORDS} records"
    );

    // Replay the gathered batches into the target, counting allocations.
    // Appends bump into open segments; allocations are per-segment (new
    // segment buffers) and per-bucket (rare overflow pushes), not
    // per-record.
    let before = allocs();
    let mut applied = 0;
    for batch in &batches {
        applied += target.replay_batch(batch, ReplayDest::MainLog, &mut work);
    }
    let replay_allocs = allocs() - before;
    assert_eq!(applied, RECORDS as usize, "replay must apply every record");
    assert!(
        (replay_allocs as f64) < 0.10 * RECORDS as f64,
        "replay allocation regression: {replay_allocs} allocs for {RECORDS} records"
    );
}

/// What one served client RPC records: the worker span, the 14-arg
/// latency-decomposition instant, the flow end that closes the client's
/// arrow, and (as for a retry hint) a counter sample.
fn emit_rpc(t: &Tracer, rpc: u64) {
    if !t.is_on() {
        return;
    }
    let (trace, sent) = ((8 << 40) | rpc, rpc * 1_000);
    t.span("read", "worker", 1, 3, sent + 300, 500, []);
    let args = [
        ("src", 7),
        ("rpc", rpc),
        ("sent_at", sent),
        ("arrived", sent + 200),
        ("assigned", sent + 300),
        ("service_end", sent + 800),
        ("resp_sent", sent + 800),
        ("net_in", 200),
        ("nic_in", 24),
        ("queue", 100),
        ("service", 500),
        ("hold", 0),
        ("trace", trace),
        ("hop", 1),
    ];
    t.instant("read", "rpc", 1, 0, sent + 800, args);
    t.flow(
        "rpc-flow",
        "flow",
        1,
        0,
        sent + 800,
        false,
        trace ^ rpc,
        [("trace", trace)],
    );
    t.counter("retry-hints", 1, sent + 800, rpc);
}

#[test]
fn recording_trace_events_allocates_nothing_per_event() {
    const RPCS: u64 = 10_000;
    let _turn = exclusive();

    // Armed, in ring mode, small enough to compact several times: the
    // heads were reserved when the ring was built, so the only
    // allocations left are the args arena's doublings up to its steady
    // size (16 for the ≈ 70 k slots it peaks at) — none per event, none
    // per compaction.
    let ring = Tracer::with_capacity(1 << 14);
    let before = allocs();
    for rpc in 1..=RPCS {
        emit_rpc(&ring, rpc);
    }
    let armed_allocs = allocs() - before;
    assert_eq!(ring.len() as u64 + ring.dropped(), 4 * RPCS);
    assert!(
        ring.dropped() >= 2 << 13,
        "the ring compacted at least twice"
    );
    assert!(
        armed_allocs <= 24,
        "trace recording allocation regression: {armed_allocs} allocs for {} events",
        4 * RPCS
    );

    // Disarmed: one branch per call and nothing else.
    let off = Tracer::off();
    let before = allocs();
    for rpc in 1..=RPCS {
        emit_rpc(&off, rpc);
    }
    assert_eq!(allocs() - before, 0, "a disarmed tracer allocated");
}

/// A hash table's memory follows its data: building one allocates the
/// stripe directory and no bucket, and a table whose keys all hash into
/// the upper half of hash space never allocates the lower half's stripes.
#[test]
fn hash_table_allocates_a_stripe_on_its_first_insert() {
    let _turn = exclusive();
    let at = |i: u64| LogRef {
        segment: i,
        offset: 0,
    };

    // The benchmark's per-master table: 2^19 buckets, 168 MB if eager.
    let before = bytes();
    let ht = HashTable::new(1 << 19, 256);
    let built = bytes() - before;
    assert!(
        built < 1 << 20,
        "an empty table allocated {built} bytes before its first upsert"
    );

    // One insert allocates exactly one stripe; that is the unit.
    let before = bytes();
    ht.upsert(T, 0, at(0), |_| true);
    let stripe_bytes = bytes() - before;
    assert!(
        stripe_bytes > 0,
        "the first upsert must allocate its stripe"
    );
    let stripes = ht.bucket_count() / MAX_BUCKETS_PER_STRIPE as u64;

    // 100 000 hashes spread over the upper half only.
    let ht = HashTable::new(1 << 19, 256);
    let before = bytes();
    for i in 0..100_000u64 {
        let hash = (1 << 63) | i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1;
        ht.upsert(T, hash, at(i), |_| true);
    }
    let grown = bytes() - before;
    assert!(ht.len() > 99_000);
    // Every upper stripe is hit, so this is tight: half the stripes, and
    // less than one stripe's worth of whatever else the process did.
    assert!(
        grown < (stripes / 2 + 1) * stripe_bytes,
        "upper-half table allocated {grown} bytes, over half of {stripes} stripes of {stripe_bytes}"
    );
}

/// A histogram's memory follows what it holds: nothing when empty, and
/// the intervals a series skips are empty.
#[test]
fn histograms_allocate_only_for_what_they_hold() {
    let _turn = exclusive();

    let before = allocs();
    let empty = Histogram::new();
    assert_eq!(allocs() - before, 0, "an empty histogram allocated");
    drop(empty);

    // One 5 µs sample: a block or so, not the 29.7 KB full range.
    let mut slot = Histogram::new();
    let before = bytes();
    slot.record(5_000);
    let one_sample = bytes() - before;
    assert!(
        (1..=8 << 10).contains(&one_sample),
        "a one-sample histogram allocated {one_sample} bytes"
    );

    // A record that lands 1 000 intervals on materialises the slots
    // between — their structs, in the series' own vector — and bucket
    // storage for none of them: just the recorded slot's, as above.
    let mut series = TimeSeries::new(1_000);
    series.record(0, 5_000);
    let before = bytes();
    series.record(1_001_000, 5_000);
    let skipped = bytes() - before;
    assert_eq!(series.len(), 1_002);
    let slots = 2 * 1_002 * std::mem::size_of::<Histogram>() as u64;
    assert!(
        skipped <= slots + one_sample,
        "skipping 1 000 intervals allocated {skipped} bytes, over {slots} of slots + {one_sample}"
    );
}

/// Coordinator and server in one: hands out a map that names itself the
/// owner of everything and answers every read with the key it asked
/// for, allocating nothing per request.
struct ReadStub;

impl Actor<Envelope> for ReadStub {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        let Event::Message { src, payload } = event else {
            return;
        };
        let resp = match payload.body {
            Body::Req(Request::GetTabletMap) => Response::TabletMapOk {
                tablets: vec![TabletDescriptor {
                    table: T,
                    range: HashRange::full(),
                    owner: ServerId(0),
                    state: TabletState::Normal,
                }],
            },
            Body::Req(Request::Read { key, .. }) => Response::ReadOk {
                value: key,
                version: 1,
            },
            _ => return,
        };
        ctx.send(src, Envelope::resp(payload.rpc, resp).with_ctx(payload.ctx));
    }
}

/// A YCSB read costs its client exactly one allocation, the key's
/// `Bytes`: nothing per attempt, nothing per distinct rank (there is no
/// key table to grow), nothing per latency sample once the histogram
/// covers the one latency the stub produces.
#[test]
fn a_ycsb_read_costs_the_client_one_allocation() {
    const KEYS: u64 = 1_000_000;
    let _turn = exclusive();
    let mut dir = Directory::default();
    dir.servers.insert(ServerId(0), 0);
    let mut cfg = YcsbConfig::ycsb_b(dir, T, KEYS, 100_000.0);
    cfg.read_fraction = 1.0;
    // One interval for the whole run: a new interval is a new histogram,
    // which is the series' allocation and not the operation's.
    let stats = client_stats(1_000 * SECOND);
    let sampler = KeySampler::new(KEYS, cfg.dist, true);
    let ranks = bucket_ranks(KEYS, cfg.key_len, cfg.shape.buckets());
    // The reference scheduler: a heap's storage stops growing once the
    // pending timeouts level off, where the calendar wheel goes on
    // giving slots their first capacity for a simulated second.
    let mut sim: Simulation<Envelope> =
        Simulation::with_scheduler(NicConfig::default(), 7, SchedulerKind::BinaryHeap);
    sim.add_actor(Box::new(ReadStub));
    sim.add_actor(Box::new(YcsbClient::with_sampler(
        cfg,
        stats.clone(),
        sampler,
        ranks,
    )));

    let mut issued_by = |target: u64| {
        while stats.borrow().read_attempts.get() < target {
            assert!(sim.step(), "the client stopped issuing");
        }
        (stats.borrow().read_attempts.get(), allocs())
    };
    // Warm until the 10 ms RPC timeouts pending have levelled off (at
    // 1 000) and every table that holds them has stopped doubling.
    let (warm, a0) = issued_by(3_000);
    let (half, a1) = issued_by(8_000);
    let (full, a2) = issued_by(13_000);
    // One per read, plus at most a handful for what grows by doubling
    // or by the block (the event slab, a histogram meeting a new
    // latency): a per-rank or per-attempt cost would add thousands.
    for (what, allocated, reads) in [
        ("first", a1 - a0, half - warm),
        ("second", a2 - a1, full - half),
    ] {
        assert!(
            (reads..=reads + 8).contains(&allocated),
            "{what} 5 000 reads: {allocated} allocations for {reads} reads"
        );
    }
    assert_eq!(stats.borrow().retries.get(), 0);
    assert!(stats.borrow().read_hist.with(|h| h.count()) >= 10_000);
}
