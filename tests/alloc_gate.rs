//! Allocation-count gate for the migration hot path.
//!
//! The gather (Pull source) and replay (Pull target) paths were made
//! slab/arena-backed: gathered keys and values alias the log's segments
//! as refcounted slices, and replay bump-appends into segments without
//! per-record heap boxes. This gate pins that property with a counting
//! global allocator: if a change reintroduces a per-record allocation on
//! either path, the per-record allocation rate regresses past the floor
//! and this test fails. (Tier-1, `cargo test -q`, runs it.)
//! The gate has the benchmark's shape — Pulls of [`PULL_BUDGET_BYTES`]
//! over a log of many segments, so every batch touches tens of them —
//! because a per-batch cost that scales with segments touched (a window
//! taken per Pull instead of kept by the log beside its segment) is
//! invisible on a log of two. Reads are gated the same way: a closed
//! segment's window is taken once, when it closes.
//!
//! The same allocator counts bytes, which pins the hash table's promise
//! that its memory follows the data: nothing per bucket until a stripe's
//! first insert.
//!
//! The trace layer has the same shape of promise: an armed tracer copies
//! each event's slot and arg values into a ring and an arena it already
//! owns, a disarmed one does nothing, so neither allocates per event.
//!
//! The measuring apparatus makes two more: a histogram owns only the
//! buckets between the values it was given, so the thousands a run keeps
//! (one per interval per series per client) cost what they hold; and a
//! YCSB operation costs its client one allocation — the key — however
//! many distinct keys the client has touched.
//!
//! Under all of them, the event kernel allocates nothing per event: the
//! payload slab, the action buffer and the calendar queue's lists are
//! recycled once warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocksteady::PULL_BUDGET_BYTES;
use rocksteady_audit::{AuditSink, ClientOp, Outcome};
use rocksteady_common::zipf::KeySampler;
use rocksteady_common::{
    key_hash, HashRange, Histogram, ScanCursor, ServerId, SimMessage, TableId, TimeSeries,
    WireSized, MILLISECOND, SECOND,
};
use rocksteady_hashtable::{HashTable, MAX_BUCKETS_PER_STRIPE, PARTITION_BYTES};
use rocksteady_logstore::{LogConfig, LogRef};
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_metrics::Registry;
use rocksteady_profiler::{Activity, Profiler};
use rocksteady_proto::{Body, Envelope, Request, Response, TabletDescriptor, TabletState};
use rocksteady_simnet::{Actor, Ctx, Directory, Event, NicConfig, Simulation};
use rocksteady_trace::Tracer;
use rocksteady_workload::core::primary_key;
use rocksteady_workload::shape::bucket_ranks;
use rocksteady_workload::{client_stats, YcsbClient, YcsbConfig};

struct Counting;

// The counters are per thread. Everything gated here runs on its test's
// thread, while the test harness allocates on its own threads (spawning
// the next test, collecting a result) at moments no test controls: a
// process-wide count charged those to whichever test was measuring.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes ever asked for (never decremented; a realloc counts its new
    /// size), so a difference bounds what a stretch of code allocated.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for and not yet freed (by this thread), so a
    /// difference says what a stretch of code left allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: a thread's storage may already be gone as it exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
    hold(size as i64);
}

fn hold(size: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + size));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
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

/// A bulk load that indexes a partition at a time holds each record's
/// `(hash, LogRef)` — 24 B — until its partition is indexed. Its buffers
/// are sized from the share of the hash space each partition's tablets
/// cover, so they grow by chance only: the whole load asks for at most
/// 48 B a record more than loading one record at a time, and when it
/// returns it has freed every buffer, leaving exactly the memory the
/// record-at-a-time load leaves.
#[test]
fn a_partitioned_load_costs_at_most_48_bytes_a_record_and_frees_them() {
    let value = [0xabu8; 100];
    let keys: Vec<(u64, Vec<u8>)> = (0..RECORDS)
        .map(|rank| primary_key(rank, 30))
        .map(|key| (key_hash(&key), key))
        .collect();
    let master = || {
        let mut m = MasterService::new(MasterConfig {
            log: LogConfig {
                segment_bytes: 16 << 10,
                max_segments: None,
            },
            hash_buckets: 4 * PARTITION_BYTES / 128,
            hash_stripes: 64,
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        m
    };
    // (bytes asked for, bytes still held) by `load`, the master kept.
    let measure = |load: &dyn Fn(&mut MasterService)| {
        let mut m = master();
        let (asked, held) = (bytes(), live());
        load(&mut m);
        let cost = (bytes() - asked, live() - held);
        assert_eq!(m.hashtable.len(), RECORDS as usize);
        (cost, m)
    };
    let ((single_asked, single_held), _single) = measure(&|m| {
        for (hash, key) in &keys {
            m.load_object_hashed(T, *hash, key, &value);
        }
    });
    let ((asked, held), partitioned) = measure(&|m| {
        let mut batch = m.load_batch(T, RECORDS);
        for (hash, key) in &keys {
            m.load_append(&mut batch, *hash, key, &value);
        }
        m.load_index(batch);
    });
    assert_eq!(partitioned.hashtable.partitions(), 4);
    let extra = asked - single_asked;
    assert!(
        extra <= 48 * RECORDS,
        "a partitioned load asked for {extra} B more than a record-at-a-time one, \
         {} B a record",
        extra / RECORDS
    );
    assert_eq!(held, single_held, "the load's buffers outlived it");
}

#[test]
fn gather_and_replay_stay_allocation_free_per_record() {
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
    // the budget, and a fresh window for each record of the open head
    // past the head's stored window (a view stores none). Closed
    // segments' windows were taken when they closed.
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
    // Floor: strictly sub-per-record. ~80 batch Vecs plus ~100 head
    // records land near 0.02 allocations per record; 0.10 leaves
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

/// A read resolves through the window the log keeps beside each segment:
/// a closed segment's was taken when it closed, so reading preloaded keys
/// from closed segments allocates nothing at all, however many segments
/// the reads touch. A key in the open head costs one window, the first
/// time a read points past the head's, and none after.
#[test]
fn reads_take_no_window_of_a_closed_segment() {
    let source = loaded_master();
    let head = source.log.head_segment_id();
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    for rank in 0..RECORDS {
        let key = primary_key(rank, 30);
        let hash = key_hash(&key);
        let at = source.hashtable.lookup(T, hash, |_| true).value.unwrap();
        if at.segment == head {
            open.push((hash, key));
        } else {
            closed.push((hash, key));
        }
    }
    assert!(closed.len() > 9 * open.len() && !open.is_empty());
    let read = |(hash, key): &(u64, Vec<u8>)| {
        let (value, _) = source
            .read(T, *hash, Some(key), &mut Work::default())
            .unwrap();
        assert_eq!(value.len(), 100);
    };
    let before = allocs();
    closed.iter().for_each(read);
    closed.iter().for_each(read);
    let closed_allocs = allocs() - before;
    assert_eq!(
        closed_allocs,
        0,
        "{} reads over {} closed segments",
        2 * closed.len(),
        source.log.stats().segments - 1
    );
    let before = allocs();
    open.iter().for_each(read);
    open.iter().for_each(read);
    assert_eq!(allocs() - before, 1, "reads of the open head");
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

    // Armed, in ring mode, small enough to compact several times: the
    // slots and the arena were reserved when the ring was built, so the
    // only allocations left are the first sight of each of the four
    // schemas — 6 in all, none per event, none per compaction. So twice
    // the events, each run on a fresh ring, cost exactly as many.
    let armed = |rpcs: u64| {
        let ring = Tracer::with_capacity(1 << 14);
        let before = allocs();
        for rpc in 1..=rpcs {
            emit_rpc(&ring, rpc);
        }
        let allocated = allocs() - before;
        assert_eq!(ring.len() as u64 + ring.dropped(), 4 * rpcs);
        assert!(
            ring.dropped() >= 2 << 13,
            "the ring compacted at least twice"
        );
        allocated
    };
    let (once, twice) = (armed(RPCS), armed(2 * RPCS));
    assert_eq!(
        once,
        twice,
        "trace recording allocates per event: {once} allocs for {} events, {twice} for {}",
        4 * RPCS,
        8 * RPCS
    );
    assert!(
        once <= 24,
        "trace recording allocation regression: {once} allocs for {} events",
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

/// The profiler finds a core's ledger by index: a charge to a core it
/// already holds allocates nothing.
#[test]
fn a_profiler_charge_to_a_held_core_allocates_nothing() {
    const CHARGES: u64 = 100_000;
    let profiler = Profiler::armed();
    for (server, core) in [(0, 0), (3, 12), (3, 0), (1, 5)] {
        profiler.register_core(server, core);
    }
    let before = allocs();
    for i in 0..CHARGES {
        let (server, core) = [(0, 0), (3, 12), (3, 0), (1, 5)][i as usize % 4];
        profiler.charge(server, core, Activity::Service, i * 100, 60);
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "{allocated} allocations in {CHARGES} charges");
    assert_eq!(profiler.validate().expect("conserves").cores, 4);
}

/// A key whose history holds one version keeps it in its table slot: an
/// audited operation on a key whose version is already filed allocates
/// nothing.
#[test]
fn an_audited_operation_on_a_filed_key_allocates_nothing() {
    // A key's first operation, its write, files its version; a read of a
    // key whose one version is filed only reads the history.
    const KEYS: u64 = 1_000;
    let audit = AuditSink::armed();
    let op = |hash: u64, client: u64, write: bool, at: u64| ClientOp {
        client,
        hash,
        write,
        invoked: at,
        completed: at + 10,
        outcome: Outcome::Version(7),
    };
    for hash in 0..KEYS {
        audit.client_op(op(hash, 1, true, 0));
    }
    let before = allocs();
    for round in 1..=10 {
        for hash in 0..KEYS {
            audit.client_op(op(hash, round, false, 100 * round));
        }
    }
    let allocated = allocs() - before;
    assert_eq!(
        allocated,
        0,
        "{allocated} allocations in {} operations",
        10 * KEYS
    );
    assert!(audit.violations().is_empty(), "{:?}", audit.violations());
}

/// A metrics snapshot allocates only what its rows own — the row table,
/// and each row's labels — however scattered the registration order:
/// no sort, and no label rendered per comparison.
#[test]
fn a_metrics_snapshot_allocates_only_what_its_rows_own() {
    let reg = Registry::new();
    for i in 0..300u64 {
        let n = (i * 7_919) % 300;
        let labels = [("server", (n % 17).to_string()), ("core", n.to_string())];
        match n % 3 {
            0 => drop(reg.counter("ops_total", "ops", &labels).add(n)),
            1 => reg.gauge("busy_ns", "busy", &labels[..1]).set(n as i64),
            _ => reg.histogram("lat_ns", "lat", &labels).record(n),
        }
    }
    reg.counter("plain_total", "no labels", &[]).inc();
    let before = allocs();
    let snap = reg.snapshot(1_000);
    let allocated = allocs() - before;
    let owned: u64 = 1 + snap
        .rows
        .iter()
        .map(|r| u64::from(!r.labels.is_empty()) + r.labels.len() as u64)
        .sum::<u64>();
    assert!(
        allocated <= owned,
        "a snapshot of {} rows allocated {allocated} times; its rows own {owned} blocks",
        snap.rows.len()
    );
    assert_eq!(snap.rows.len(), reg.len());
}

/// A hash table's memory follows its data: building one allocates the
/// stripe directory and no bucket, and a table whose keys all hash into
/// the upper half of hash space never allocates the lower half's stripes.
#[test]
fn hash_table_allocates_a_stripe_on_its_first_insert() {
    let at = |i: u64| LogRef {
        segment: i,
        offset: 0,
    };

    // The benchmark's per-master table: 2^19 buckets, 64 MiB if eager.
    let before = bytes();
    let ht = HashTable::new(1 << 19, 256);
    let built = bytes() - before;
    assert!(
        built < 1 << 20,
        "an empty table allocated {built} bytes before its first upsert"
    );

    // One insert allocates exactly one stripe of 128-byte buckets and
    // nothing else (no spill chain): that is the unit.
    let before = bytes();
    ht.upsert(T, 0, at(0), |_| true);
    let stripe_bytes = bytes() - before;
    assert_eq!(
        stripe_bytes,
        (MAX_BUCKETS_PER_STRIPE * 128) as u64,
        "the first upsert must allocate exactly its stripe"
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
    // less than one stripe's worth of whatever else the thread did.
    assert!(
        grown < (stripes / 2 + 1) * stripe_bytes,
        "upper-half table allocated {grown} bytes, over half of {stripes} stripes of {stripe_bytes}"
    );
}

/// A histogram's memory follows what it holds: nothing when empty, and
/// the intervals a series skips are empty.
#[test]
fn histograms_allocate_only_for_what_they_hold() {
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
        let Event::Message { src, payload, .. } = event else {
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
    let mut dir = Directory::default();
    dir.servers.push(0);
    let mut cfg = YcsbConfig::ycsb_b(dir, T, KEYS, 100_000.0);
    cfg.read_fraction = 1.0;
    // One interval for the whole run: a new interval is a new histogram,
    // which is the series' allocation and not the operation's.
    let stats = client_stats(1_000 * SECOND);
    let sampler = KeySampler::new(KEYS, cfg.dist, true);
    let ranks = bucket_ranks(KEYS, cfg.key_len, cfg.shape.buckets());
    // The default scheduler, the one the benchmark runs: its wheel's
    // lists and its heap have their capacity long before the warm-up
    // below ends.
    let mut sim: Simulation<Envelope> = Simulation::new(NicConfig::default(), 7);
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
    // Warm until every table the client and the kernel hold has stopped
    // doubling: the client's ops and deadline queue, the event queue,
    // the event slab.
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

/// An empty message: the kernel's cost without a payload's.
struct Ball;

impl WireSized for Ball {
    fn wire_size(&self) -> u64 {
        64
    }
}

impl SimMessage for Ball {}

/// Returns every ball to its sender; with `tick` set, also re-arms a
/// timer of that period forever.
struct Rally {
    tick: Option<u64>,
}

impl Actor<Ball> for Rally {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Ball>) {
        if let Some(period) = self.tick {
            ctx.timer(period, 0);
            ctx.send(1 - ctx.self_id(), Ball);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Ball>, event: Event<Ball>) {
        match event {
            Event::Message { src, payload, .. } => ctx.send(src, payload),
            Event::Timer { token } => {
                ctx.timer(self.tick.expect("only the ticking side arms"), token)
            }
        }
    }
}

/// The event kernel recycles everything it holds: once the calendar
/// queue's slots have had their first events, a ping-pong plus a
/// re-arming timer runs with no allocation at all — the payload slab
/// and the action buffer are reused, never grown.
#[test]
fn the_event_kernel_allocates_nothing_per_event() {
    const EVENTS: u64 = 100_000;
    // The default scheduler, the one the benchmark runs.
    let mut sim: Simulation<Ball> = Simulation::new(NicConfig::default(), 1);
    sim.add_actor(Box::new(Rally { tick: Some(7_000) }));
    sim.add_actor(Box::new(Rally { tick: None }));
    // A ball lands 1.8 µs after it left, in one 1 µs wheel bucket of
    // two, and which ones shifts from epoch (≈ 1 ms) to epoch: every
    // wheel slot has had its list by the fourth epoch, the heap its
    // capacity at the first crossing. Ten epochs leave margin.
    sim.run_until(10 * MILLISECOND);
    let warm = sim.events_processed();
    let before = allocs();
    while sim.events_processed() < warm + EVENTS {
        assert!(sim.step(), "the rally stopped");
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "{allocated} allocations in {EVENTS} events");
}
