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

use rocksteady_common::json::JsonWriter;
use rocksteady_common::Nanos;

use crate::{Phase, TraceEvent};

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
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(hop.name);
            out.push('@');
            out.push_str(&hop.server.to_string());
            if hop.on_path {
                out.push(':');
                out.push_str(status::label(hop.status));
            }
        }
        out
    }

    fn write_json(&self, w: &mut JsonWriter) {
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
            .field("chain", self.chain())
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
    attempt: u64,
    rpc: u64,
    issued: Nanos,
    completed: Nanos,
    status: u64,
}

/// One server decomposition instant, pre-parsed.
struct ServerInstant {
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

/// Reconstructs every journey present in `events` (truncation by ring
/// eviction is detected structurally, not from a drop count). Journeys
/// are returned sorted by trace id; hops by response time.
pub fn reconstruct(events: &[TraceEvent]) -> Vec<Journey> {
    // Pass 1: bucket client attempts and server instants by trace id.
    let mut attempts: std::collections::HashMap<u64, (u64, Vec<Attempt>)> =
        std::collections::HashMap::new();
    let mut servers: std::collections::HashMap<u64, Vec<ServerInstant>> =
        std::collections::HashMap::new();
    for ev in events {
        if ev.ph != Phase::Instant {
            continue;
        }
        let Some(trace) = ev.arg("trace") else {
            continue;
        };
        if trace == 0 {
            continue;
        }
        if ev.name == "rpc-client" {
            let (Some(attempt), Some(rpc), Some(issued), Some(completed), Some(st)) = (
                ev.arg("attempt"),
                ev.arg("rpc"),
                ev.arg("issued"),
                ev.arg("completed"),
                ev.arg("status"),
            ) else {
                continue;
            };
            attempts
                .entry(trace)
                .or_insert((ev.pid, Vec::new()))
                .1
                .push(Attempt {
                    attempt,
                    rpc,
                    issued,
                    completed,
                    status: st,
                });
        } else if ev.cat == "rpc" {
            let (
                Some(rpc),
                Some(sent_at),
                Some(resp_sent),
                Some(net_in),
                Some(queue),
                Some(service),
                Some(hold),
            ) = (
                ev.arg("rpc"),
                ev.arg("sent_at"),
                ev.arg("resp_sent"),
                ev.arg("net_in"),
                ev.arg("queue"),
                ev.arg("service"),
                ev.arg("hold"),
            )
            else {
                continue;
            };
            servers.entry(trace).or_default().push(ServerInstant {
                server: ev.pid,
                name: ev.name,
                rpc,
                depth: ev.arg("hop").unwrap_or(0),
                sent_at,
                resp_sent,
                net_in,
                queue,
                service,
                hold,
            });
        }
    }

    // Pass 2: stitch each trace's attempts and hops together.
    let mut journeys = Vec::with_capacity(attempts.len());
    for (trace, (client, mut atts)) in attempts {
        atts.sort_by_key(|a| (a.attempt, a.issued));
        let hops_in = servers.remove(&trace).unwrap_or_default();
        let mut hops: Vec<Hop> = Vec::with_capacity(hops_in.len());
        let mut matched = vec![false; hops_in.len()];
        let mut truncated = atts.first().map(|a| a.attempt != 1).unwrap_or(true);
        let mut per_attempt_ok = true;
        let mut prev_completed: Option<Nanos> = None;
        for att in &atts {
            let gap_before = prev_completed.map_or(0, |p| att.issued.saturating_sub(p));
            prev_completed = Some(att.completed);
            let Some(i) = hops_in
                .iter()
                .enumerate()
                .find(|(i, s)| !matched[*i] && s.rpc == att.rpc)
                .map(|(i, _)| i)
            else {
                // Evicted server instant (ring mode drops oldest first).
                truncated = true;
                continue;
            };
            matched[i] = true;
            let s = &hops_in[i];
            let net_out = att.completed.saturating_sub(s.resp_sent);
            // Per-hop identities that must hold for any surviving hop:
            // the kernel stamps sent_at at issue, and the four segments
            // tile [sent_at, resp_sent] exactly.
            if s.sent_at != att.issued
                || s.net_in + s.queue + s.service + s.hold != s.resp_sent - s.sent_at
            {
                per_attempt_ok = false;
            }
            hops.push(Hop {
                attempt: att.attempt,
                server: s.server,
                name: s.name,
                rpc: s.rpc,
                depth: s.depth,
                sent_at: s.sent_at,
                resp_sent: s.resp_sent,
                net_in: s.net_in,
                queue: s.queue,
                service: s.service,
                hold: s.hold,
                net_out,
                gap_before,
                status: att.status,
                on_path: true,
            });
        }
        // Off-path hops: server work attributed to this trace that no
        // client attempt names — the PriorityPull the target issued on
        // the operation's behalf. (A non-PP orphan is a response still
        // in flight at capture time; skip it rather than guess.)
        for (i, s) in hops_in.iter().enumerate() {
            if !matched[i] && s.name == "priority-pull" {
                hops.push(Hop {
                    attempt: 0,
                    server: s.server,
                    name: s.name,
                    rpc: s.rpc,
                    depth: s.depth,
                    sent_at: s.sent_at,
                    resp_sent: s.resp_sent,
                    net_in: s.net_in,
                    queue: s.queue,
                    service: s.service,
                    hold: s.hold,
                    net_out: 0,
                    gap_before: 0,
                    status: status::OK,
                    on_path: false,
                });
            }
        }
        hops.sort_by_key(|h| (h.resp_sent, h.rpc));
        let (issued, completed) = match (atts.first(), atts.last()) {
            (Some(f), Some(l)) => (f.issued, l.completed),
            _ => continue,
        };
        let e2e = completed - issued;
        // Telescoping: on-path segments + response network + client-side
        // gaps must tile [issued, completed] with nothing left over.
        let on_path_sum: Nanos = hops
            .iter()
            .filter(|h| h.on_path)
            .map(|h| h.segments() + h.net_out + h.gap_before)
            .sum();
        let complete = !truncated && hops.iter().filter(|h| h.on_path).count() == atts.len();
        let telescoped = complete && per_attempt_ok && on_path_sum == e2e;
        journeys.push(Journey {
            trace,
            client,
            issued,
            completed,
            e2e,
            attempts: atts.len() as u64,
            final_status: atts.last().map_or(status::OTHER, |a| a.status),
            truncated: !complete,
            telescoped,
            hops,
        });
    }
    journeys.sort_by_key(|j| j.trace);
    journeys
}

/// Reconstructs the single journey with trace id `trace`, if present.
pub fn find(events: &[TraceEvent], trace: u64) -> Option<Journey> {
    reconstruct(events).into_iter().find(|j| j.trace == trace)
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
    let mut w = JsonWriter::with_capacity(64 + journeys.len() * 256);
    w.obj()
        .field("schema", JOURNEYS_SCHEMA)
        .field("dropped", dropped)
        .key("journeys")
        .arr();
    for j in journeys {
        j.write_json(&mut w);
    }
    w.end_arr().end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_instant(
        pid: u64,
        trace: u64,
        attempt: u64,
        rpc: u64,
        issued: Nanos,
        completed: Nanos,
        st: u64,
    ) -> TraceEvent {
        TraceEvent {
            name: "rpc-client",
            cat: "rpc",
            ph: Phase::Instant,
            ts: completed,
            dur: 0,
            pid,
            tid: 0,
            args: vec![
                ("rpc", rpc),
                ("issued", issued),
                ("completed", completed),
                ("e2e", completed - issued),
                ("trace", trace),
                ("attempt", attempt),
                ("status", st),
            ],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn server_instant(
        pid: u64,
        name: &'static str,
        trace: u64,
        rpc: u64,
        sent_at: Nanos,
        segments: [Nanos; 4],
    ) -> TraceEvent {
        let resp = sent_at + segments.iter().sum::<Nanos>();
        TraceEvent {
            name,
            cat: "rpc",
            ph: Phase::Instant,
            ts: resp,
            dur: 0,
            pid,
            tid: 0,
            args: vec![
                ("rpc", rpc),
                ("sent_at", sent_at),
                ("resp_sent", resp),
                ("net_in", segments[0]),
                ("queue", segments[1]),
                ("service", segments[2]),
                ("hold", segments[3]),
                ("trace", trace),
                ("hop", 1),
            ],
        }
    }

    /// A three-attempt read crossing an ownership flip, with an
    /// off-path PriorityPull: the canonical migration-crossing journey.
    fn crossing_events() -> Vec<TraceEvent> {
        let t = 42;
        vec![
            // attempt 1 at the source: stale map.
            server_instant(1, "read", t, 100, 1_000, [10, 5, 20, 0]),
            client_instant(9, t, 1, 100, 1_000, 1_045, status::STALE_MAP),
            // attempt 2 at the target: miss -> retry hint.
            server_instant(2, "read", t, 101, 1_100, [10, 8, 25, 0]),
            client_instant(9, t, 2, 101, 1_100, 1_153, status::RETRY),
            // the PriorityPull the target issued on our behalf.
            server_instant(1, "priority-pull", t, 300, 1_150, [10, 2, 30, 0]),
            // attempt 3 at the target: served.
            server_instant(2, "read", t, 102, 1_400, [10, 4, 22, 0]),
            client_instant(9, t, 3, 102, 1_400, 1_446, status::OK),
        ]
    }

    #[test]
    fn crossing_journey_reconstructs_and_telescopes() {
        let journeys = reconstruct(&crossing_events());
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
        let events: Vec<TraceEvent> = crossing_events().into_iter().skip(3).collect();
        let journeys = reconstruct(&events);
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
        let events = vec![
            server_instant(1, "read", 7, 50, 500, [10, 0, 20, 0]),
            client_instant(9, 7, 1, 50, 500, 540, status::OK),
        ];
        let journeys = reconstruct(&events);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert!(!j.crossed_migration());
        assert!(j.telescoped);
        assert_eq!(j.hops[0].net_out, 10);
        assert_eq!(j.chain(), "read@1:ok");
        assert!(find(&events, 7).is_some());
        assert!(find(&events, 8).is_none());
    }

    #[test]
    fn slowest_reservoir_is_deterministic() {
        let mut events = Vec::new();
        for (i, e2e) in [(1u64, 100u64), (2, 300), (3, 300), (4, 50)] {
            events.push(server_instant(
                1,
                "read",
                i,
                i * 10,
                1_000,
                [e2e - 10, 0, 10, 0],
            ));
            events.push(client_instant(
                9,
                i,
                1,
                i * 10,
                1_000,
                1_000 + e2e,
                status::OK,
            ));
        }
        let journeys = reconstruct(&events);
        let top = slowest(&journeys, 2);
        assert_eq!(top.len(), 2);
        // Ties broken by trace id ascending.
        assert_eq!(top[0].trace, 2);
        assert_eq!(top[1].trace, 3);
    }

    #[test]
    fn export_is_deterministic() {
        let a = export_json(&reconstruct(&crossing_events()), 0);
        let b = export_json(&reconstruct(&crossing_events()), 0);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"rocksteady-journeys-v1\""));
        assert!(a.contains("\"hops_n\":4"), "{a}");
        assert!(a.contains("\"telescoped\":1"), "{a}");
    }
}
