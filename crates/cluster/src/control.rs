//! The control actor: scripted experiment events.
//!
//! Experiments need things to happen at known virtual times — "start the
//! migration at t = 10 s", "kill the target at t = 15 s". The control
//! actor plays the client role the paper assigns to migration initiation
//! ("Migration is initiated by a client", §3) and the failure detector's
//! role for crash experiments.

use rocksteady_common::{HashRange, MigrationId, Nanos, RpcId, ServerId, TableId};
use rocksteady_proto::msg::BaselineStage;
use rocksteady_proto::{Calls, Envelope, Request};
use rocksteady_simnet::{Actor, ActorId, Ctx, Directory, Event};

/// One scripted command.
#[derive(Debug, Clone)]
pub enum ControlCmd {
    /// Send `MigrateTablet` to `target` (Rocksteady migration, §3).
    Migrate {
        /// Unique id for this migration run.
        id: MigrationId,
        /// Table to migrate.
        table: TableId,
        /// Range to migrate (must already be a tablet).
        range: HashRange,
        /// Current owner.
        source: ServerId,
        /// New owner.
        target: ServerId,
    },
    /// Send `MigrateTabletBaseline` to `source` (§2.3 baseline).
    MigrateBaseline {
        /// Unique id for this migration run.
        id: MigrationId,
        /// Table to migrate.
        table: TableId,
        /// Range to migrate.
        range: HashRange,
        /// Current owner (receives the RPC).
        source: ServerId,
        /// Destination.
        target: ServerId,
        /// The last stage the run performs (Figure 5's levers).
        until: BaselineStage,
    },
    /// Kill a server and report the crash to the coordinator after a
    /// short detection delay.
    Kill {
        /// Victim.
        server: ServerId,
        /// Failure-detection delay before `ReportCrash` (RAMCloud detects
        /// in well under a second; default scripts use ~1 ms).
        detect_after: Nanos,
    },
}

impl ControlCmd {
    /// [`ControlCmd::Migrate`] from its five values in declaration order.
    pub fn migrate(
        id: MigrationId,
        table: TableId,
        range: HashRange,
        source: ServerId,
        target: ServerId,
    ) -> Self {
        ControlCmd::Migrate {
            id,
            table,
            range,
            source,
            target,
        }
    }
}

/// A command scheduled at a virtual time.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// When to fire.
    pub at: Nanos,
    /// What to do.
    pub cmd: ControlCmd,
}

/// The control actor.
pub struct ControlActor {
    dir: Directory,
    script: Vec<ControlEvent>,
    /// The crash reports `Kill`s scheduled, `(victim, rpc)` in order;
    /// timer token `script.len() + i` delivers the `i`-th.
    reports: Vec<(ServerId, RpcId)>,
    /// Only allocates ids: nothing reads a control request's answer.
    calls: Calls<ActorId, ()>,
}

impl ControlActor {
    /// Creates a control actor with a script (sorted by the builder).
    pub fn new(dir: Directory, script: Vec<ControlEvent>) -> Self {
        ControlActor {
            dir,
            script,
            reports: Vec::new(),
            calls: Calls::default(),
        }
    }

    fn fire(&mut self, ctx: &mut Ctx<'_, Envelope>, idx: usize) {
        let cmd = self.script[idx].cmd.clone();
        match cmd {
            ControlCmd::Migrate {
                id,
                table,
                range,
                source,
                target,
            } => {
                let rpc = self.calls.id();
                let dst = self.dir.actor_of(target);
                ctx.send(
                    dst,
                    Envelope::req(
                        rpc,
                        Request::MigrateTablet {
                            id,
                            table,
                            range,
                            source,
                        },
                    ),
                );
            }
            ControlCmd::MigrateBaseline {
                id,
                table,
                range,
                source,
                target,
                until,
            } => {
                let rpc = self.calls.id();
                let dst = self.dir.actor_of(source);
                ctx.send(
                    dst,
                    Envelope::req(
                        rpc,
                        Request::MigrateTabletBaseline {
                            id,
                            table,
                            range,
                            target,
                            until,
                        },
                    ),
                );
            }
            ControlCmd::Kill {
                server,
                detect_after,
            } => {
                ctx.kill(self.dir.actor_of(server));
                // Model failure detection: report after the delay.
                let rpc = self.calls.id();
                let token = self.script.len() + self.reports.len();
                ctx.timer(detect_after, token as u64);
                self.reports.push((server, rpc));
            }
        }
    }
}

impl Actor<Envelope> for ControlActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        for (i, ev) in self.script.iter().enumerate() {
            ctx.timer(ev.at, i as u64);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Timer { token } = event {
            let idx = token as usize;
            match idx.checked_sub(self.script.len()) {
                None => self.fire(ctx, idx),
                Some(report) => {
                    let (server, rpc) = self.reports[report];
                    ctx.send(
                        self.dir.coordinator,
                        Envelope::req(rpc, Request::ReportCrash { server }),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrate_equals_the_literal() {
        let range = HashRange { start: 7, end: 9 };
        let literal = ControlCmd::Migrate {
            id: MigrationId(3),
            table: TableId(5),
            range,
            source: ServerId(1),
            target: ServerId(2),
        };
        let built =
            ControlCmd::migrate(MigrationId(3), TableId(5), range, ServerId(1), ServerId(2));
        assert_eq!(format!("{built:?}"), format!("{literal:?}"));
    }
}
