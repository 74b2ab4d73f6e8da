//! The control actor: scripted experiment events.
//!
//! Experiments need things to happen at known virtual times — "start the
//! migration at t = 10 s", "kill the target at t = 15 s". The control
//! actor plays the client role the paper assigns to migration initiation
//! ("Migration is initiated by a client", §3) and the failure detector's
//! role for crash experiments.

use rocksteady_common::{HashRange, MigrationId, Nanos, RpcId, ServerId, TableId};
use rocksteady_proto::msg::BaselineOpts;
use rocksteady_proto::{Envelope, Request};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};

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
        /// Table to migrate.
        table: TableId,
        /// Range to migrate.
        range: HashRange,
        /// Current owner (receives the RPC).
        source: ServerId,
        /// Destination.
        target: ServerId,
        /// Figure 5 phase levers.
        opts: BaselineOpts,
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
    /// Internal: deliver the delayed crash report created by `Kill`.
    #[doc(hidden)]
    ReportOnly {
        /// Crashed server to report.
        server: ServerId,
        /// Pre-allocated RPC id.
        rpc: RpcId,
        /// Coordinator actor.
        coordinator: rocksteady_simnet::ActorId,
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
    next_rpc: u64,
}

impl ControlActor {
    /// Creates a control actor with a script (sorted by the builder).
    pub fn new(dir: Directory, script: Vec<ControlEvent>) -> Self {
        ControlActor {
            dir,
            script,
            next_rpc: 1,
        }
    }

    fn alloc_rpc(&mut self) -> RpcId {
        let id = RpcId(self.next_rpc);
        self.next_rpc += 1;
        id
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
                let rpc = self.alloc_rpc();
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
                table,
                range,
                source,
                target,
                opts,
            } => {
                let rpc = self.alloc_rpc();
                let dst = self.dir.actor_of(source);
                ctx.send(
                    dst,
                    Envelope::req(
                        rpc,
                        Request::MigrateTabletBaseline {
                            table,
                            range,
                            target,
                            opts,
                        },
                    ),
                );
            }
            ControlCmd::Kill {
                server,
                detect_after,
            } => {
                ctx.kill(self.dir.actor_of(server));
                // Report after the detection delay via a timer encoded as
                // a synthetic one-shot script entry.
                let rpc = self.alloc_rpc();
                let _ = detect_after; // the timer below carries the delay
                let coordinator = self.dir.coordinator;
                // Model detection: delay the report.
                self.script.push(ControlEvent {
                    at: ctx.now() + detect_after,
                    cmd: ControlCmd::ReportOnly {
                        server,
                        rpc,
                        coordinator,
                    },
                });
                ctx.timer(detect_after, (self.script.len() - 1) as u64);
            }
            ControlCmd::ReportOnly {
                server,
                rpc,
                coordinator,
            } => {
                ctx.send(
                    coordinator,
                    Envelope::req(rpc, Request::ReportCrash { server }),
                );
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
            if idx < self.script.len() {
                self.fire(ctx, idx);
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
