//! The one actor on the sampling cadence.
//!
//! Every `sample_interval` of virtual time the observer reads the
//! servers' and clients' stats handles up to four ways, in this order:
//! the [`Rebalancer`] when `ClusterConfig::rebalancer` is armed and the
//! tick's time is a multiple of its interval, the utilization
//! [`Sampler`], the [`SloMonitor`] window, and — when
//! `ClusterConfig::flight_recorder` is armed — the [`WatchdogCore`]'s
//! detectors, which read the window the monitor has just closed.
//!
//! It is always installed and arms one timer per tick whatever is armed:
//! metrics capture, the SLA, the flight recorder and the rebalancer
//! change what a tick records, never the timer schedule, so arming them
//! cannot perturb a deterministic run — only the migrations a rebalancer
//! starts do. Those `MigrateTablet`s leave from this actor, and their
//! answers come back to it.

use rocksteady_common::{Nanos, ServerId};
use rocksteady_proto::Envelope;
use rocksteady_server::stats::StatsHandle;
use rocksteady_simnet::{Actor, Ctx, Event};
use rocksteady_workload::ClientStatsHandle;

use crate::rebalancer::Rebalancer;
use crate::sampler::Sampler;
use crate::slo::SloMonitor;
use crate::watchdog::WatchdogCore;

/// The armed rebalancer, the sampler, the SLO monitor and the armed
/// watchdog on one timer.
pub(crate) struct Observer {
    interval: Nanos,
    /// Every server's stats, in `ServerId` order.
    servers: Vec<(ServerId, StatsHandle)>,
    /// Every client's stats, in `add_*` order.
    clients: Vec<ClientStatsHandle>,
    rebalancer: Option<Rebalancer>,
    sampler: Sampler,
    slo: SloMonitor,
    watchdog: Option<WatchdogCore>,
}

impl Observer {
    /// An observer ticking every `interval` over `servers` and `clients`.
    pub(crate) fn new(
        interval: Nanos,
        servers: Vec<(ServerId, StatsHandle)>,
        clients: Vec<ClientStatsHandle>,
        rebalancer: Option<Rebalancer>,
        sampler: Sampler,
        slo: SloMonitor,
        watchdog: Option<WatchdogCore>,
    ) -> Self {
        Observer {
            interval,
            servers,
            clients,
            rebalancer,
            sampler,
            slo,
            watchdog,
        }
    }
}

impl Actor<Envelope> for Observer {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        let now = ctx.now();
        match event {
            Event::Timer { .. } => {
                if let Some(rebalancer) = self.rebalancer.as_mut().filter(|r| r.due(now)) {
                    rebalancer.tick(ctx, &self.servers, self.slo.headroom());
                }
                self.sampler.sample(now, &self.servers);
                let slo = self.slo.evaluate(now, &self.clients);
                if let Some(watchdog) = &mut self.watchdog {
                    watchdog.tick(now, self.interval, &self.servers, &self.clients, &slo);
                }
                ctx.timer(self.interval, 0);
            }
            Event::Message { payload, .. } => {
                if let Some(rebalancer) = &mut self.rebalancer {
                    rebalancer.answered(&payload);
                }
            }
        }
    }
}
