//! The coordinator as a simulation actor.
//!
//! Wraps the pure [`Coordinator`] state machine in the RPC surface the
//! rest of the cluster speaks. The state lives behind a shared handle so
//! the harness can install tables/splits at setup time and inspect the
//! map (and lineage dependencies) during a run without extra RPCs.
//!
//! The real coordinator is quorum-replicated and off the data path (§2);
//! its request handling is modeled as instantaneous — coordinator load
//! is not part of any figure, and every coordinator interaction already
//! pays two network hops.

use std::cell::RefCell;
use std::rc::Rc;

use rocksteady_audit::{AuditKind, AuditSink};
use rocksteady_common::RpcId;
use rocksteady_coordinator::Coordinator;
use rocksteady_proto::{Body, Envelope, Request, Response};
use rocksteady_simnet::{Actor, ActorId, Ctx, Directory, Event};

/// Shared handle to the coordinator state.
pub type CoordHandle = Rc<RefCell<Coordinator>>;

/// The coordinator actor.
pub struct CoordinatorActor {
    state: CoordHandle,
    dir: Directory,
    next_rpc: u64,
    /// Protocol auditing (zero-cost when disarmed).
    audit: AuditSink,
}

impl CoordinatorActor {
    /// Creates the actor around shared state; `audit` receives every
    /// tablet-map edit, lineage add/drop, and migration start/commit.
    pub fn new(state: CoordHandle, dir: Directory, audit: AuditSink) -> Self {
        CoordinatorActor {
            state,
            dir,
            next_rpc: 1,
            audit,
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Envelope>, src: ActorId, rpc: RpcId, req: Request) {
        let resp = match req {
            Request::GetTabletMap => Response::TabletMapOk {
                tablets: self.state.borrow().tablet_map(),
            },
            Request::MigrationStarting {
                id,
                table,
                range,
                source,
                target,
                lineage_from_segment,
            } => {
                let ok = self.state.borrow_mut().migration_starting(
                    id,
                    table,
                    range,
                    source,
                    target,
                    lineage_from_segment,
                );
                if ok && self.audit.is_on() {
                    self.audit
                        .emit(ctx.now(), AuditKind::LineageAdded { id, source, target });
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::MigrationStart {
                            id,
                            table,
                            range,
                            source,
                            target,
                        },
                    );
                }
                if ok {
                    Response::Ok
                } else {
                    Response::Err(rocksteady_proto::Status::UnknownTablet)
                }
            }
            Request::MigrationComplete {
                id,
                table,
                range,
                source,
                target,
            } => {
                let ok = self
                    .state
                    .borrow_mut()
                    .migration_complete(id, table, range, source, target);
                if ok && self.audit.is_on() {
                    self.audit
                        .emit(ctx.now(), AuditKind::MigrationCommit { id, table, range });
                    self.audit.emit(ctx.now(), AuditKind::LineageDropped { id });
                }
                Response::Ok
            }
            Request::BaselineOwnershipTransfer {
                table,
                range,
                source,
                target,
            } => {
                // The baseline transfers ownership in one step at the
                // end (§2.3).
                let flipped = self
                    .state
                    .borrow_mut()
                    .baseline_complete(table, range, source, target);
                if flipped && self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::BaselineFlip {
                            table,
                            range,
                            source,
                            target,
                        },
                    );
                }
                Response::Ok
            }
            Request::ReportCrash { server } => {
                let (assignments, dropped) = self.state.borrow_mut().handle_crash(server);
                if self.audit.is_on() {
                    // The crash plan drops every dep involving the dead
                    // server; the auditor checks exactly that, so the
                    // drops must land before the crash event itself.
                    for id in dropped {
                        self.audit.emit(ctx.now(), AuditKind::LineageDropped { id });
                    }
                    self.audit
                        .emit(ctx.now(), AuditKind::ServerCrashed { server });
                    for a in &assignments {
                        self.audit.emit(
                            ctx.now(),
                            AuditKind::RecoveryPlanned {
                                table: a.table,
                                range: a.range,
                                recovery_master: a.recovery_master,
                            },
                        );
                    }
                }
                let backups: Vec<_> = self.state.borrow().alive_servers();
                // Membership update: every surviving server must stop
                // waiting on the dead one (replication acks, pulls).
                for alive in &backups {
                    let id = RpcId(self.next_rpc);
                    self.next_rpc += 1;
                    ctx.send(
                        self.dir.actor_of(*alive),
                        Envelope::req(id, Request::NotifyServerDown { server }),
                    );
                }
                for a in assignments {
                    let id = RpcId(self.next_rpc);
                    self.next_rpc += 1;
                    let dst = self.dir.actor_of(a.recovery_master);
                    ctx.send(
                        dst,
                        Envelope::req(
                            id,
                            Request::RecoverTablet {
                                table: a.table,
                                range: a.range,
                                crashed: a.crashed,
                                backups: backups.clone(),
                                from_segment: a.from_segment,
                                merge: a.merge,
                            },
                        ),
                    );
                }
                Response::Ok
            }
            _ => Response::Err(rocksteady_proto::Status::UnknownTablet),
        };
        ctx.send(src, Envelope::resp(rpc, resp));
    }
}

impl Actor<Envelope> for CoordinatorActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Message { src, payload, .. } = event {
            match payload.body {
                Body::Req(req) => self.handle(ctx, src, payload.rpc, req),
                Body::Resp(_) => {}
            }
        }
    }
}
