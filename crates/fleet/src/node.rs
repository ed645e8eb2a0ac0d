//! One fleet member: analysis service + wire front-end + replication
//! endpoint, under a single name.
//!
//! [`FleetNode`] is the deployment unit `fleet_smoke` (and a real
//! operator) stands up: a primary node serves clients *and* ships its
//! journal; a follower node serves read-only clients *and* tails the
//! primary. Promotion turns the latter into the former in place: stop
//! tailing, flip the service writable, start shipping.

use std::net::SocketAddr;
use std::sync::Arc;

use ada_kdb::SharedKdb;
use ada_net::{NetConfig, NetMetricsSnapshot, NetServer};
use ada_obs::{FleetMetrics, Metrics, ReplMetrics};
use ada_service::{AnalysisService, ServiceConfig};

use crate::ship::{ReplFollower, ReplListener};
use crate::source::ReplSource;

/// A named fleet member (service + net front-end + replication role).
pub struct FleetNode {
    name: String,
    service: Arc<AnalysisService>,
    kdb: SharedKdb,
    server: NetServer,
    repl_metrics: Arc<ReplMetrics>,
    fleet_metrics: Arc<FleetMetrics>,
    listener: Option<ReplListener>,
    follower: Option<ReplFollower>,
}

impl FleetNode {
    /// Starts a primary: accepts writes, ships its journal on an
    /// ephemeral replication port.
    ///
    /// # Errors
    /// Socket bind failures for the client or replication listener.
    pub fn start_primary(
        name: impl Into<String>,
        config: ServiceConfig,
        kdb: SharedKdb,
        net: NetConfig,
    ) -> std::io::Result<Self> {
        let service = Arc::new(AnalysisService::new(config, kdb.clone()));
        let server = NetServer::start(Arc::clone(&service), net)?;
        let repl_metrics = Arc::new(ReplMetrics::new());
        let source = ReplSource::new(Arc::clone(&repl_metrics));
        let listener = ReplListener::start(kdb.clone(), source, "127.0.0.1:0")?;
        Ok(Self {
            name: name.into(),
            service,
            kdb,
            server,
            repl_metrics,
            fleet_metrics: Arc::new(FleetMetrics::new()),
            listener: Some(listener),
            follower: None,
        })
    }

    /// Starts a warm standby tailing `primary_repl`: serves read-only
    /// clients from the replicated state, refuses writes with the
    /// typed follower error.
    ///
    /// # Errors
    /// Socket bind failures for the client listener.
    pub fn start_follower(
        name: impl Into<String>,
        mut config: ServiceConfig,
        kdb: SharedKdb,
        net: NetConfig,
        primary_repl: SocketAddr,
    ) -> std::io::Result<Self> {
        config.follower = true;
        let repl_metrics = Arc::new(ReplMetrics::new());
        let follower = ReplFollower::start(primary_repl, kdb.clone(), Arc::clone(&repl_metrics));
        let service = Arc::new(AnalysisService::new(config, kdb.clone()));
        let server = NetServer::start(Arc::clone(&service), net)?;
        Ok(Self {
            name: name.into(),
            service,
            kdb,
            server,
            repl_metrics,
            fleet_metrics: Arc::new(FleetMetrics::new()),
            listener: None,
            follower: Some(follower),
        })
    }

    /// The member's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The client-facing wire address.
    pub fn client_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The replication address (primaries only).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().map(ReplListener::local_addr)
    }

    /// The node's analysis service.
    pub fn service(&self) -> &Arc<AnalysisService> {
        &self.service
    }

    /// The node's replication metrics.
    pub fn repl_metrics(&self) -> Arc<ReplMetrics> {
        Arc::clone(&self.repl_metrics)
    }

    /// The node's fleet metrics (populated by the router it is
    /// registered with, when any).
    pub fn fleet_metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.fleet_metrics)
    }

    /// The watermark a follower node has acked to its primary (0 for
    /// primaries).
    pub fn acked_ops(&self) -> u64 {
        self.follower.as_ref().map_or(0, ReplFollower::acked)
    }

    /// Why a follower's replication halted, if it did.
    pub fn repl_halted(&self) -> Option<String> {
        self.follower.as_ref().and_then(ReplFollower::halted)
    }

    /// Promotes a follower node to primary: stops tailing, flips the
    /// service writable, and starts shipping this node's own journal on
    /// a fresh replication port. No-op (returning `false`) on a node
    /// that is already primary.
    ///
    /// # Errors
    /// Socket bind failures for the new replication listener.
    pub fn promote(&mut self) -> std::io::Result<bool> {
        let Some(follower) = self.follower.take() else {
            return Ok(false);
        };
        follower.shutdown();
        self.service.promote();
        self.fleet_metrics.promotion();
        let source = ReplSource::new(Arc::clone(&self.repl_metrics));
        self.listener = Some(ReplListener::start(
            self.kdb.clone(),
            source,
            "127.0.0.1:0",
        )?);
        Ok(true)
    }

    /// The node's full Prometheus exposition: the service + net
    /// families followed by the `ada_repl_*` and `ada_fleet_*`
    /// families, in that order.
    pub fn exposition(&self) -> String {
        let mut out = self.server.snapshot_prometheus();
        out.push_str(&self.repl_metrics.snapshot().to_prometheus());
        out.push_str(&self.fleet_metrics.snapshot().to_prometheus());
        out
    }

    /// Stops everything (replication endpoint, wire front-end, then the
    /// service) and returns the net front-end's final counters.
    pub fn shutdown(self) -> NetMetricsSnapshot {
        if let Some(listener) = self.listener {
            listener.shutdown();
        }
        if let Some(follower) = self.follower {
            follower.shutdown();
        }
        let net = self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
        net
    }
}
