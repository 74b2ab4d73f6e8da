//! Per-trace-id journey reconstruction: the sixth observability layer.
//!
//! Every client operation mints a `CausalCtx` whose trace id rides each
//! RPC issued on the operation's behalf — retries keep it, and the
//! PriorityPull a migration target fires for a waiting read inherits
//! it. Trace-armed runs record that id on the client's `rpc-client`
//! attempt instants and on every server-side per-RPC decomposition
//! instant, which lets this module stitch the node-local events back
//! into one ordered, cross-node *journey*:
//!
//! ```text
//! read@source:stale-map -> read@target:retry -> priority-pull@source -> read@target:ok
//! ```
//!
//! The reconstruction extends the PR 2 telescoping proof across nodes:
//! for a complete journey, the per-hop `net_in + queue + service +
//! hold + net_out` segments plus the client-side gaps between attempts
//! sum *exactly* (integer nanoseconds) to the client-measured
//! first-issue → final-response latency. Under ring-mode tracing the
//! oldest events are evicted first; a journey whose early hops are gone
//! is reported with `truncated: true` and its surviving hops intact —
//! never a panic, never a silently wrong sum (`telescoped` is only set
//! on structurally complete journeys).
//!
//! Everything here is integer-valued and sorted deterministically, so
//! [`export_json`] is byte-identical for the same seed and across the
//! scheduler swap.

use std::fmt::Write as _;

use rocksteady_common::json::JsonWriter;
use rocksteady_common::Nanos;

use crate::{Arg, Events, Phase, TraceEvent};

/// Schema tag stamped into [`export_json`] output.
pub const JOURNEYS_SCHEMA: &str = "rocksteady-journeys-v1";

/// Client-observed outcome codes recorded on `rpc-client` attempt
/// instants (the `status` arg) and echoed per hop.
pub mod status {
    /// The attempt succeeded (final hop of a journey).
    pub const OK: u64 = 0;
    /// The server asked the client to retry after a back-off (a read
    /// miss during migration, or a recovering tablet).
    pub const RETRY: u64 = 1;
    /// The server no longer owns the tablet; the client refreshes its
    /// map (the source half of an ownership flip).
    pub const STALE_MAP: u64 = 2;
    /// No such key.
    pub const NOT_FOUND: u64 = 3;
    /// Any other error outcome.
    pub const OTHER: u64 = 4;

    /// Short human label for a status code (used in chain strings).
    pub fn label(code: u64) -> &'static str {
        match code {
            OK => "ok",
            RETRY => "retry",
            STALE_MAP => "stale-map",
            NOT_FOUND => "not-found",
            _ => "err",
        }
    }
}

/// One server-side hop of a journey.
#[derive(Debug, Clone)]
pub struct Hop {
    /// 1-based client attempt this hop answered; 0 for an off-path hop
    /// done *on behalf of* the operation (e.g. the PriorityPull the
    /// target issued for a waiting read).
    pub attempt: u64,
    /// Actor id (trace `pid`) of the server that executed the hop.
    pub server: u64,
    /// Request name (`read`, `write`, `priority-pull`, ...).
    pub name: &'static str,
    /// The rpc id correlating request and response.
    pub rpc: u64,
    /// Causal depth carried by the RPC's `CausalCtx`.
    pub depth: u64,
    /// Virtual time the request left its sender's NIC.
    pub sent_at: Nanos,
    /// Virtual time the response left the server.
    pub resp_sent: Nanos,
    /// Inbound network segment (arrival − sent).
    pub net_in: Nanos,
    /// Dispatch-queue wait before a worker picked the request up.
    pub queue: Nanos,
    /// Worker service time.
    pub service: Nanos,
    /// Post-service hold (e.g. waiting on replication acks).
    pub hold: Nanos,
    /// Outbound network segment (client completion − `resp_sent`);
    /// only meaningful for on-path hops.
    pub net_out: Nanos,
    /// Client-side wait (back-off, map refresh) between the previous
    /// attempt's completion and this attempt's issue; 0 for the first
    /// attempt and for off-path hops.
    pub gap_before: Nanos,
    /// Client-observed [`status`] code of the attempt (on-path hops).
    pub status: u64,
    /// Whether the hop sits on the client's request/response path (and
    /// therefore participates in the telescoping sum).
    pub on_path: bool,
}

impl Hop {
    /// The four server-side segments of this hop.
    pub fn segments(&self) -> Nanos {
        self.net_in + self.queue + self.service + self.hold
    }
}

/// One reconstructed journey: everything that happened, on every node,
/// for a single client operation.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The operation's trace id.
    pub trace: u64,
    /// Actor id of the client that minted the context.
    pub client: u64,
    /// Issue time of the first surviving attempt (for a complete
    /// journey: the operation's first issue).
    pub issued: Nanos,
    /// Completion time of the last surviving attempt.
    pub completed: Nanos,
    /// `completed - issued`: the client-measured latency over the
    /// surviving window.
    pub e2e: Nanos,
    /// Surviving client attempts.
    pub attempts: u64,
    /// [`status`] code of the last surviving attempt.
    pub final_status: u64,
    /// True when early hops are missing (ring eviction or a response
    /// still in flight at buffer capture); surviving hops are intact
    /// but no end-to-end telescoping claim is made.
    pub truncated: bool,
    /// True when the journey is structurally complete and its on-path
    /// hop segments + gaps sum exactly to `e2e`.
    pub telescoped: bool,
    /// All hops, ordered by response time.
    pub hops: Vec<Hop>,
}

impl Journey {
    /// Whether this journey crossed a live migration: it needed more
    /// than one attempt, or work was done on its behalf off the direct
    /// request path (a PriorityPull).
    pub fn crossed_migration(&self) -> bool {
        self.attempts > 1 || self.hops.iter().any(|h| !h.on_path)
    }

    /// Renders the causal chain as a human-readable arrow string, e.g.
    /// `read@1:retry -> priority-pull@1 -> read@2:ok`.
    pub fn chain(&self) -> String {
        let mut out = String::new();
        self.chain_into(&mut out);
        out
    }

    /// [`Journey::chain`] into a caller-owned buffer (replacing what it
    /// held), so a fold over many journeys reuses one.
    fn chain_into(&self, out: &mut String) {
        out.clear();
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(hop.name);
            write!(out, "@{}", hop.server).expect("writing to a String cannot fail");
            if hop.on_path {
                out.push(':');
                out.push_str(status::label(hop.status));
            }
        }
    }

    /// Appends this journey to `w`; `chain` is scratch space.
    fn write_json(&self, w: &mut JsonWriter, chain: &mut String) {
        self.chain_into(chain);
        w.obj()
            .field("trace", self.trace)
            .field("client", self.client)
            .field("issued", self.issued)
            .field("completed", self.completed)
            .field("e2e", self.e2e)
            .field("attempts", self.attempts)
            .field("final_status", self.final_status)
            .field("truncated", self.truncated)
            .field("telescoped", self.telescoped)
            .field("crossed", self.crossed_migration())
            .field("hops_n", self.hops.len())
            .field("chain", chain.as_str())
            .key("hops")
            .arr();
        for hop in &self.hops {
            w.obj()
                .field("attempt", hop.attempt)
                .field("server", hop.server)
                .field("name", hop.name)
                .field("rpc", hop.rpc)
                .field("depth", hop.depth)
                .field("sent_at", hop.sent_at)
                .field("resp_sent", hop.resp_sent)
                .field("net_in", hop.net_in)
                .field("queue", hop.queue)
                .field("service", hop.service)
                .field("hold", hop.hold)
                .field("net_out", hop.net_out)
                .field("gap_before", hop.gap_before)
                .field("status", hop.status)
                .field("on_path", hop.on_path)
                .end_obj();
        }
        w.end_arr().end_obj();
    }
}

/// One client attempt pulled from an `rpc-client` instant.
struct Attempt {
    trace: u64,
    /// Position in the buffer: the tie-break that keeps sorts stable.
    seq: usize,
    client: u64,
    attempt: u64,
    rpc: u64,
    issued: Nanos,
    completed: Nanos,
    status: u64,
}

/// One server decomposition instant, pre-parsed.
struct ServerInstant {
    trace: u64,
    seq: usize,
    server: u64,
    name: &'static str,
    rpc: u64,
    depth: u64,
    sent_at: Nanos,
    resp_sent: Nanos,
    net_in: Nanos,
    queue: Nanos,
    service: Nanos,
    hold: Nanos,
}

impl Attempt {
    /// An `rpc-client` instant carrying every field, else `None`.
    fn parse(seq: usize, ev: TraceEvent<'_>) -> Option<Attempt> {
        let names = ["rpc", "issued", "completed", "trace", "attempt", "status"];
        let [rpc, issued, completed, trace, attempt, status] = pick(ev.args, names);
        Some(Attempt {
            trace: trace?,
            seq,
            client: ev.pid,
            attempt: attempt?,
            rpc: rpc?,
            issued: issued?,
            completed: completed?,
            status: status?,
        })
    }
}

impl ServerInstant {
    /// A traced per-RPC decomposition instant (only `hop` may be
    /// missing), else `None`.
    fn parse(seq: usize, ev: TraceEvent<'_>) -> Option<ServerInstant> {
        let names = [
            "rpc",
            "sent_at",
            "resp_sent",
            "net_in",
            "queue",
            "service",
            "hold",
            "trace",
            "hop",
        ];
        let [rpc, sent_at, resp_sent, net_in, queue, service, hold, trace, hop] =
            pick(ev.args, names);
        Some(ServerInstant {
            trace: trace?,
            seq,
            server: ev.pid,
            name: ev.name,
            rpc: rpc?,
            depth: hop.unwrap_or(0),
            sent_at: sent_at?,
            resp_sent: resp_sent?,
            net_in: net_in?,
            queue: queue?,
            service: service?,
            hold: hold?,
        })
    }

    /// This instant as an off-path hop (work done on the operation's
    /// behalf that no client attempt names).
    fn off_path_hop(&self) -> Hop {
        Hop {
            attempt: 0,
            server: self.server,
            name: self.name,
            rpc: self.rpc,
            depth: self.depth,
            sent_at: self.sent_at,
            resp_sent: self.resp_sent,
            net_in: self.net_in,
            queue: self.queue,
            service: self.service,
            hold: self.hold,
            net_out: 0,
            gap_before: 0,
            status: status::OK,
            on_path: false,
        }
    }

    /// This instant as the hop that answered `att`, issued `gap_before`
    /// after the previous attempt completed.
    fn on_path_hop(&self, att: &Attempt, gap_before: Nanos) -> Hop {
        Hop {
            attempt: att.attempt,
            net_out: att.completed.saturating_sub(self.resp_sent),
            gap_before,
            status: att.status,
            on_path: true,
            ..self.off_path_hop()
        }
    }
}

/// Reads `names` out of `args` in one walk. Emitters record an event's
/// args in a fixed order and `names` follows it, so each lookup resumes
/// where the last one matched: 14 string compares for the 14-arg
/// decomposition instant instead of 14 per name. (It wraps around, so
/// any order still resolves; arg names are unique within an event.)
fn pick<const N: usize>(args: &[Arg], names: [&str; N]) -> [Option<u64>; N] {
    let mut at = 0;
    names.map(|name| {
        let i = (at..args.len()).chain(0..at).find(|&i| args[i].0 == name)?;
        at = i + 1;
        Some(args[i].1)
    })
}

/// The journey-relevant instants of a buffer, parsed into two flat
/// vectors and each sorted so that a trace's entries are adjacent —
/// grouping by trace id costs two sorts, no map entry or bucket per
/// trace.
struct Parsed {
    /// By `(trace, attempt, issued)`.
    attempts: Vec<Attempt>,
    /// By `trace`, a trace's instants in buffer order.
    servers: Vec<ServerInstant>,
}

impl Parsed {
    /// One pass over `events`: the instants of every journey, or of
    /// trace `only`.
    fn of(events: Events<'_>, only: Option<u64>) -> Parsed {
        let wanted = |trace: u64| trace != 0 && only.is_none_or(|t| t == trace);
        let (mut attempts, mut servers) = (Vec::new(), Vec::new());
        for (seq, ev) in events.iter().enumerate() {
            if ev.ph != Phase::Instant {
                continue;
            }
            if ev.name == "rpc-client" {
                attempts.extend(Attempt::parse(seq, ev).filter(|a| wanted(a.trace)));
            } else if ev.cat == "rpc" {
                servers.extend(ServerInstant::parse(seq, ev).filter(|s| wanted(s.trace)));
            }
        }
        attempts.sort_unstable_by_key(|a| (a.trace, a.attempt, a.issued, a.seq));
        servers.sort_unstable_by_key(|s| (s.trace, s.seq));
        Parsed { attempts, servers }
    }

    /// Stitches each trace's group, in trace-id order: one merge walk
    /// over the two vectors.
    fn journeys(&self) -> impl Iterator<Item = Journey> + '_ {
        let mut servers = &self.servers[..];
        let mut matched = Vec::new();
        self.attempts
            .chunk_by(|a, b| a.trace == b.trace)
            .map(move |atts| {
                let trace = atts[0].trace;
                // Server instants of traces with no surviving attempt
                // belong to no journey.
                let orphans = servers.iter().take_while(|s| s.trace < trace).count();
                let own = servers[orphans..]
                    .iter()
                    .take_while(|s| s.trace == trace)
                    .count();
                let (own, rest) = servers[orphans..].split_at(own);
                servers = rest;
                stitch(atts, own, &mut matched)
            })
    }
}

/// Stitches one trace's attempts (in `(attempt, issued)` order) and
/// server instants (in buffer order) into its journey. `matched` is
/// scratch space.
fn stitch(atts: &[Attempt], servers: &[ServerInstant], matched: &mut Vec<bool>) -> Journey {
    let (first, last) = (&atts[0], &atts[atts.len() - 1]);
    matched.clear();
    matched.resize(servers.len(), false);
    let mut hops: Vec<Hop> = Vec::with_capacity(servers.len());
    let mut truncated = first.attempt != 1;
    let mut per_attempt_ok = true;
    let mut on_path_sum: Nanos = 0;
    let mut prev_completed: Option<Nanos> = None;
    for att in atts {
        let gap_before = prev_completed.map_or(0, |p| att.issued.saturating_sub(p));
        prev_completed = Some(att.completed);
        let Some(i) = (0..servers.len()).find(|&i| !matched[i] && servers[i].rpc == att.rpc) else {
            // Evicted server instant (ring mode drops oldest first).
            truncated = true;
            continue;
        };
        matched[i] = true;
        let s = &servers[i];
        // Per-hop identities that must hold for any surviving hop:
        // the kernel stamps sent_at at issue, and the four segments
        // tile [sent_at, resp_sent] exactly.
        if s.sent_at != att.issued
            || s.net_in + s.queue + s.service + s.hold != s.resp_sent - s.sent_at
        {
            per_attempt_ok = false;
        }
        let hop = s.on_path_hop(att, gap_before);
        on_path_sum += hop.segments() + hop.net_out + hop.gap_before;
        hops.push(hop);
    }
    let on_path = hops.len();
    // Off-path hops: server work attributed to this trace that no
    // client attempt names — the PriorityPull the target issued on
    // the operation's behalf. (A non-PP orphan is a response still
    // in flight at capture time; skip it rather than guess.)
    for (s, matched) in servers.iter().zip(matched.iter()) {
        if !matched && s.name == "priority-pull" {
            hops.push(s.off_path_hop());
        }
    }
    hops.sort_by_key(|h| (h.resp_sent, h.rpc));
    let e2e = last.completed - first.issued;
    // Telescoping: on-path segments + response network + client-side
    // gaps must tile [issued, completed] with nothing left over.
    let complete = !truncated && on_path == atts.len();
    Journey {
        trace: first.trace,
        // The first of its attempts to be recorded names the client.
        client: atts.iter().min_by_key(|a| a.seq).map_or(0, |a| a.client),
        issued: first.issued,
        completed: last.completed,
        e2e,
        attempts: atts.len() as u64,
        final_status: last.status,
        truncated: !complete,
        telescoped: complete && per_attempt_ok && on_path_sum == e2e,
        hops,
    }
}

/// Reconstructs every journey present in `events` (truncation by ring
/// eviction is detected structurally, not from a drop count). Journeys
/// are returned sorted by trace id; hops by response time.
pub fn reconstruct(events: Events<'_>) -> Vec<Journey> {
    Parsed::of(events, None).journeys().collect()
}

/// Reconstructs the single journey with trace id `trace`, if present:
/// one filtering pass over `events` and one stitch.
pub fn find(events: Events<'_>, trace: u64) -> Option<Journey> {
    Parsed::of(events, Some(trace)).journeys().next()
}

/// The `k` slowest journeys by `e2e`, slowest first, ties broken by
/// trace id ascending — a deterministic reservoir with no RNG.
pub fn slowest(journeys: &[Journey], k: usize) -> Vec<Journey> {
    let mut sorted: Vec<&Journey> = journeys.iter().collect();
    sorted.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.trace.cmp(&b.trace)));
    sorted.into_iter().take(k).cloned().collect()
}

/// Renders journeys as the deterministic `rocksteady-journeys-v1` JSON
/// document (see `rocksteady_common::json`).
pub fn export_json(journeys: &[Journey], dropped: u64) -> String {
    let hops = journeys.iter().map(|j| j.hops.len()).sum();
    write_document(journeys.len(), hops, dropped, journeys.iter())
}

/// [`export_json`] of [`reconstruct`]`(events)` as one fold: each
/// journey is stitched, written and dropped in turn, so the document is
/// the only thing that grows with the buffer.
pub fn export_events_json(events: Events<'_>, dropped: u64) -> String {
    let parsed = Parsed::of(events, None);
    // Every journey has an attempt and every hop a server instant.
    let (journeys, hops) = (parsed.attempts.len(), parsed.servers.len());
    write_document(journeys, hops, dropped, parsed.journeys())
}

/// Writes the document into a buffer sized once, for at most
/// `journeys` journeys of `hops` hops in total.
fn write_document(
    journeys: usize,
    hops: usize,
    dropped: u64,
    items: impl Iterator<Item = impl std::borrow::Borrow<Journey>>,
) -> String {
    // Upper bounds: a journey's own fields write ≤ 240 B (151 B of keys
    // and punctuation, a 17-digit trace id, three 10-digit times), a
    // hop ≤ 300 B (166 B of keys, a 13 B name, a 20-digit rpc id, eight
    // times, ≤ 30 B of chain). `observed_rebalance` measures 408 B per
    // one-hop journey of the 540 B reserved; pages the document never
    // reaches are never touched.
    const JOURNEY_BYTES: usize = 240;
    const HOP_BYTES: usize = 300;
    let mut w = JsonWriter::with_capacity(96 + journeys * JOURNEY_BYTES + hops * HOP_BYTES);
    w.obj()
        .field("schema", JOURNEYS_SCHEMA)
        .field("dropped", dropped)
        .key("journeys")
        .arr();
    let mut chain = String::new();
    for j in items {
        j.borrow().write_json(&mut w, &mut chain);
    }
    w.end_arr().end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::rebuilt;
    use crate::Tracer;

    fn client_instant(
        t: &Tracer,
        trace: u64,
        attempt: u64,
        rpc: u64,
        (issued, completed): (Nanos, Nanos),
        st: u64,
    ) {
        let args = [
            ("rpc", rpc),
            ("issued", issued),
            ("completed", completed),
            ("e2e", completed - issued),
            ("trace", trace),
            ("attempt", attempt),
            ("status", st),
        ];
        t.instant("rpc-client", "client", 9, 0, completed, args);
    }

    fn server_instant(
        t: &Tracer,
        pid: u64,
        name: &'static str,
        trace: u64,
        rpc: u64,
        sent_at: Nanos,
        segments: [Nanos; 4],
    ) {
        let resp = sent_at + segments.iter().sum::<Nanos>();
        let args = [
            ("rpc", rpc),
            ("sent_at", sent_at),
            ("resp_sent", resp),
            ("net_in", segments[0]),
            ("queue", segments[1]),
            ("service", segments[2]),
            ("hold", segments[3]),
            ("trace", trace),
            ("hop", 1),
        ];
        t.instant(name, "rpc", pid, 0, resp, args);
    }

    /// A three-attempt read crossing an ownership flip, with an
    /// off-path PriorityPull: the canonical migration-crossing journey.
    fn crossing_events() -> Tracer {
        let (t, id) = (Tracer::armed(), 42);
        // attempt 1 at the source: stale map.
        server_instant(&t, 1, "read", id, 100, 1_000, [10, 5, 20, 0]);
        client_instant(&t, id, 1, 100, (1_000, 1_045), status::STALE_MAP);
        // attempt 2 at the target: miss -> retry hint.
        server_instant(&t, 2, "read", id, 101, 1_100, [10, 8, 25, 0]);
        client_instant(&t, id, 2, 101, (1_100, 1_153), status::RETRY);
        // the PriorityPull the target issued on our behalf.
        server_instant(&t, 1, "priority-pull", id, 300, 1_150, [10, 2, 30, 0]);
        // attempt 3 at the target: served.
        server_instant(&t, 2, "read", id, 102, 1_400, [10, 4, 22, 0]);
        client_instant(&t, id, 3, 102, (1_400, 1_446), status::OK);
        t
    }

    #[test]
    fn crossing_journey_reconstructs_and_telescopes() {
        let journeys = crossing_events().with_events(reconstruct);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert_eq!(j.trace, 42);
        assert_eq!(j.client, 9);
        assert_eq!(j.attempts, 3);
        assert_eq!(j.hops.len(), 4);
        assert!(j.crossed_migration());
        assert!(!j.truncated);
        assert_eq!(j.e2e, 446);
        assert!(j.telescoped, "chain: {}", j.chain());
        // Both the source-miss hop and the PriorityPull hop carry the
        // one trace id.
        assert!(j.hops.iter().any(|h| h.name == "read" && h.server == 1));
        assert!(j
            .hops
            .iter()
            .any(|h| h.name == "priority-pull" && !h.on_path && h.server == 1));
        assert_eq!(
            j.chain(),
            "read@1:stale-map -> read@2:retry -> priority-pull@1 -> read@2:ok"
        );
        assert_eq!(j.final_status, status::OK);
    }

    #[test]
    fn evicted_early_hops_mean_truncated_not_wrong() {
        // Drop the first three events (ring eviction takes the oldest):
        // attempt 1 entirely gone, attempt 2's server instant gone.
        let survivors = crossing_events().with_events(|events| rebuilt(events.iter().skip(3)));
        let journeys = survivors.with_events(reconstruct);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert!(j.truncated, "missing early hops must flag truncation");
        assert!(!j.telescoped, "a truncated journey must not claim the sum");
        // Surviving hops are intact.
        assert!(j.hops.iter().any(|h| h.name == "priority-pull"));
        assert!(j
            .hops
            .iter()
            .any(|h| h.on_path && h.status == status::OK && h.rpc == 102));
        let json = export_json(&journeys, 3);
        assert!(json.contains("\"truncated\":1"), "{json}");
        assert!(json.contains("\"dropped\":3"), "{json}");
    }

    #[test]
    fn single_attempt_clean_journey() {
        let t = Tracer::armed();
        server_instant(&t, 1, "read", 7, 50, 500, [10, 0, 20, 0]);
        client_instant(&t, 7, 1, 50, (500, 540), status::OK);
        let journeys = t.with_events(reconstruct);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert!(!j.crossed_migration());
        assert!(j.telescoped);
        assert_eq!(j.hops[0].net_out, 10);
        assert_eq!(j.chain(), "read@1:ok");
    }

    /// `find` filters before it stitches, and must land on exactly the
    /// journey the full reconstruction holds for that trace id —
    /// interleaved neighbours, orphan server instants and all.
    #[test]
    fn find_equals_the_full_reconstruction_entry() {
        let t = Tracer::armed();
        // Trace 5 has a server instant but no surviving attempt.
        server_instant(&t, 1, "read", 5, 40, 400, [10, 0, 20, 0]);
        server_instant(&t, 1, "read", 7, 50, 500, [10, 0, 20, 0]);
        server_instant(&t, 2, "read", 6, 60, 510, [10, 1, 20, 0]);
        client_instant(&t, 7, 1, 50, (500, 540), status::RETRY);
        client_instant(&t, 6, 1, 60, (510, 551), status::OK);
        server_instant(&t, 1, "read", 7, 51, 600, [10, 0, 20, 5]);
        client_instant(&t, 7, 2, 51, (600, 645), status::OK);
        let all = t.with_events(reconstruct);
        assert_eq!(
            all.iter().map(|j| j.trace).collect::<Vec<_>>(),
            [6, 7],
            "sorted by trace id, orphan trace 5 dropped"
        );
        for j in &all {
            let found = t.with_events(|ev| find(ev, j.trace)).expect("present");
            assert_eq!(
                export_json(&[found], 0),
                export_json(std::slice::from_ref(j), 0)
            );
        }
        assert!(t.with_events(|ev| find(ev, 5)).is_none());
        assert!(t.with_events(|ev| find(ev, 8)).is_none());
    }

    #[test]
    fn slowest_reservoir_is_deterministic() {
        let t = Tracer::armed();
        for (i, e2e) in [(1u64, 100u64), (2, 300), (3, 300), (4, 50)] {
            server_instant(&t, 1, "read", i, i * 10, 1_000, [e2e - 10, 0, 10, 0]);
            client_instant(&t, i, 1, i * 10, (1_000, 1_000 + e2e), status::OK);
        }
        let journeys = t.with_events(reconstruct);
        let top = slowest(&journeys, 2);
        assert_eq!(top.len(), 2);
        // Ties broken by trace id ascending.
        assert_eq!(top[0].trace, 2);
        assert_eq!(top[1].trace, 3);
    }

    #[test]
    fn export_is_deterministic() {
        let a = export_json(&crossing_events().with_events(reconstruct), 0);
        let b = export_json(&crossing_events().with_events(reconstruct), 0);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"rocksteady-journeys-v1\""));
        assert!(a.contains("\"hops_n\":4"), "{a}");
        assert!(a.contains("\"telescoped\":1"), "{a}");
    }

    /// `pick` is an optimisation of `arg`, never a different answer:
    /// any order of names resolves, a missing one is `None`.
    #[test]
    fn pick_resolves_any_order() {
        let args = [("a", 1), ("b", 2), ("c", 3)];
        assert_eq!(pick(&args, ["a", "b", "c"]), [Some(1), Some(2), Some(3)]);
        assert_eq!(
            pick(&args, ["c", "a", "x", "b"]),
            [Some(3), Some(1), None, Some(2)]
        );
        assert_eq!(pick(&[], ["a"]), [None]);
    }
}
