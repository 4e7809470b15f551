//! Launching the simulated fediverse on an in-memory port of the
//! deterministic executor (`crates/exec`), which nothing outside the
//! process can reach.
//!
//! All instances sit behind one listener; the `Host` header picks the
//! instance (exactly how a multi-tenant front like Cloudflare — which the
//! paper finds fronting 5.4% of instances — would terminate them).

use crate::api;
use crate::fault::FaultPlan;
use crate::state::SimState;
use fediscope_httpwire::{Server, ServerHandle};
use fediscope_model::world::World;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A running simulated fediverse.
pub struct SimNetHandle {
    /// Shared state (clock control, inbox inspection).
    pub state: Arc<SimState>,
    server: ServerHandle,
}

impl SimNetHandle {
    /// Address of the shared listener.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop the listener.
    pub async fn shutdown(self) {
        self.server.shutdown().await;
    }
}

/// Launch the fediverse over `world` on an ephemeral in-memory port.
pub async fn launch(
    world: Arc<World>,
    plan: FaultPlan,
    seed: u64,
) -> std::io::Result<SimNetHandle> {
    let state = SimState::new(world, plan, seed);
    let handler_state = state.clone();
    let server = Server::new(move |req| api::handle(handler_state.clone(), req))
        .with_read_timeout(Duration::from_secs(5))
        .bind("127.0.0.1:0")
        .await?;
    Ok(SimNetHandle { state, server })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_httpwire::Client;
    use fediscope_worldgen::{Generator, WorldConfig};

    async fn boot() -> SimNetHandle {
        let mut cfg = WorldConfig::tiny(55);
        cfg.n_instances = 8;
        cfg.n_users = 160;
        let mut world = Generator::generate_world(cfg);
        for s in &mut world.schedules {
            *s = fediscope_model::schedule::AvailabilitySchedule::always_up();
        }
        launch(Arc::new(world), FaultPlan::default(), 3)
            .await
            .unwrap()
    }

    #[tokio::test]
    async fn serves_instance_api_over_tcp() {
        let net = boot().await;
        let client = Client::default();
        let domain = net.state.world.instances[0].domain.clone();
        let resp = client
            .get(net.addr(), &domain, "/api/v1/instance")
            .await
            .unwrap();
        assert!(resp.status.is_success());
        let v: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
        assert_eq!(v["uri"].as_str().unwrap(), domain);
        net.shutdown().await;
    }

    #[tokio::test]
    async fn virtual_hosts_are_distinct() {
        let net = boot().await;
        let client = Client::default();
        let d0 = net.state.world.instances[0].domain.clone();
        let d1 = net.state.world.instances[1].domain.clone();
        let r0 = client
            .get(net.addr(), &d0, "/api/v1/instance")
            .await
            .unwrap();
        let r1 = client
            .get(net.addr(), &d1, "/api/v1/instance")
            .await
            .unwrap();
        let v0: serde_json::Value = serde_json::from_str(&r0.text()).unwrap();
        let v1: serde_json::Value = serde_json::from_str(&r1.text()).unwrap();
        assert_ne!(v0["uri"], v1["uri"]);
        net.shutdown().await;
    }

    #[tokio::test]
    async fn outage_visible_over_the_wire() {
        let mut cfg = WorldConfig::tiny(56);
        cfg.n_instances = 4;
        cfg.n_users = 40;
        let mut world = Generator::generate_world(cfg);
        for s in &mut world.schedules {
            *s = fediscope_model::schedule::AvailabilitySchedule::always_up();
        }
        world.schedules[0].add_outage(
            fediscope_model::time::Epoch(5),
            fediscope_model::time::Epoch(10),
            fediscope_model::schedule::OutageCause::Organic,
        );
        let domain = world.instances[0].domain.clone();
        let net = launch(Arc::new(world), FaultPlan::default(), 1)
            .await
            .unwrap();
        let client = Client::default();

        let up = client
            .get(net.addr(), &domain, "/api/v1/instance")
            .await
            .unwrap();
        assert!(up.status.is_success());
        net.state.clock.set(fediscope_model::time::Epoch(5));
        let down = client
            .get(net.addr(), &domain, "/api/v1/instance")
            .await
            .unwrap();
        assert_eq!(down.status.0, 503);
        net.state.clock.set(fediscope_model::time::Epoch(10));
        let back = client
            .get(net.addr(), &domain, "/api/v1/instance")
            .await
            .unwrap();
        assert!(back.status.is_success());
        net.shutdown().await;
    }

    #[tokio::test]
    async fn fault_injection_produces_500s() {
        let mut cfg = WorldConfig::tiny(57);
        cfg.n_instances = 4;
        cfg.n_users = 40;
        let mut world = Generator::generate_world(cfg);
        for s in &mut world.schedules {
            *s = fediscope_model::schedule::AvailabilitySchedule::always_up();
        }
        let domain = world.instances[0].domain.clone();
        let plan = FaultPlan {
            error_prob: 0.5,
            ..FaultPlan::default()
        };
        let net = launch(Arc::new(world), plan, 9).await.unwrap();
        let client = Client::default();
        let mut errors = 0;
        for _ in 0..40 {
            let resp = client
                .get(net.addr(), &domain, "/api/v1/instance")
                .await
                .unwrap();
            if resp.status.0 == 500 {
                errors += 1;
            }
        }
        assert!(errors > 5, "only {errors} injected errors seen");
        net.shutdown().await;
    }
}
