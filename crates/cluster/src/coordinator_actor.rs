//! The coordinator as a simulation actor.
//!
//! Delivers both ways for the pure [`Coordinator`], which decides what
//! each request sets off: the actor emits or sends each [`Out`] in order,
//! answers the request, and hands every response it receives back to
//! [`Coordinator::answered`]. The state lives behind a shared handle so
//! the harness can install tables/splits at setup time and inspect the
//! map (and lineage dependencies) during a run without extra RPCs.
//!
//! The real coordinator is quorum-replicated and off the data path (§2);
//! its request handling is modeled as instantaneous — coordinator load
//! is not part of any figure, and every coordinator interaction already
//! pays two network hops.

use std::cell::RefCell;
use std::rc::Rc;

use rocksteady_audit::AuditSink;
use rocksteady_coordinator::{Coordinator, Out};
use rocksteady_proto::{Body, Envelope};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};

/// Shared handle to the coordinator state.
pub type CoordHandle = Rc<RefCell<Coordinator>>;

/// The coordinator actor.
pub struct CoordinatorActor {
    state: CoordHandle,
    dir: Directory,
    /// Protocol auditing (a no-op when disarmed).
    audit: AuditSink,
}

impl CoordinatorActor {
    /// Creates the actor around shared state; `audit` receives every
    /// record the coordinator's inputs set off.
    pub fn new(state: CoordHandle, dir: Directory, audit: AuditSink) -> Self {
        CoordinatorActor { state, dir, audit }
    }
}

impl Actor<Envelope> for CoordinatorActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        let Event::Message { src, payload, .. } = event else {
            return;
        };
        let req = match payload.body {
            Body::Req(req) => req,
            Body::Resp(resp) => return self.state.borrow_mut().answered(payload.rpc, &resp),
        };
        let (resp, outs) = self.state.borrow_mut().handle(req);
        for out in outs {
            match out {
                Out::Audit(kind) => self.audit.emit(ctx.now(), kind),
                Out::Send(to, rpc, req) => ctx.send(self.dir.actor_of(to), Envelope::req(rpc, req)),
            }
        }
        ctx.send(src, Envelope::resp(payload.rpc, resp));
    }
}
