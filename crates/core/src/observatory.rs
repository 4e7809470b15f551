//! The observatory: a world plus lazily derived analysis artefacts.

use fediscope_graph::{DiGraph, GraphBuilder};
use fediscope_model::schedule::OutageArena;
use fediscope_model::world::World;
use fediscope_replication::ContentView;
use std::sync::OnceLock;

/// Ranking metrics used throughout §5 ("ranked by number of users", "by
/// toots posted", "by instances hosted", "by connections").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Users hosted.
    Users,
    /// Toots posted.
    Toots,
    /// Instances hosted (AS ranking only; per-instance it's a constant 1).
    Instances,
    /// Federation-graph connections (instance degree).
    Connections,
}

/// A world plus caches for everything the figures need repeatedly.
pub struct Observatory {
    /// The ground-truth world under analysis.
    pub world: World,
    /// Users per instance.
    pub users_per_instance: Vec<u32>,
    /// Toots per instance.
    pub toots_per_instance: Vec<u64>,
    user_graph: OnceLock<DiGraph>,
    federation_graph: OnceLock<DiGraph>,
    twitter_graph: OnceLock<DiGraph>,
    content_view: OnceLock<ContentView>,
    remote_toots: OnceLock<Vec<u64>>,
    outage_arena: OnceLock<OutageArena>,
}

impl Observatory {
    /// Wrap a world.
    pub fn new(world: World) -> Self {
        let users_per_instance = world.user_counts();
        let toots_per_instance = world.toot_counts();
        Self {
            world,
            users_per_instance,
            toots_per_instance,
            user_graph: OnceLock::new(),
            federation_graph: OnceLock::new(),
            twitter_graph: OnceLock::new(),
            content_view: OnceLock::new(),
            remote_toots: OnceLock::new(),
            outage_arena: OnceLock::new(),
        }
    }

    /// The social follower graph `G(V, E)`.
    pub fn user_graph(&self) -> &DiGraph {
        self.user_graph.get_or_init(|| {
            let mut b = GraphBuilder::new(self.world.users.len() as u32);
            b.extend(self.world.follow_edges());
            b.build()
        })
    }

    /// The instance federation graph `GF(I, E)` induced by the follower
    /// graph (§3), derived from the content view's holder sets.
    pub fn federation_graph(&self) -> &DiGraph {
        self.federation_graph.get_or_init(|| {
            DiGraph::from_edges(
                self.world.instances.len() as u32,
                self.content_view().federation_edges(),
            )
        })
    }

    /// The Twitter baseline follower graph.
    pub fn twitter_graph(&self) -> &DiGraph {
        self.twitter_graph.get_or_init(|| {
            DiGraph::from_edges(
                self.world.twitter.n_users,
                self.world.twitter.follows.iter().copied(),
            )
        })
    }

    /// The replication content view.
    pub fn content_view(&self) -> &ContentView {
        self.content_view
            .get_or_init(|| ContentView::from_world(&self.world))
    }

    /// The columnar outage arena backing the §4 telemetry sweep (built
    /// once from the ground-truth schedules).
    pub fn outage_arena(&self) -> &OutageArena {
        self.outage_arena
            .get_or_init(|| OutageArena::from_schedules(&self.world.schedules))
    }

    /// Remote (replicated-in) toot volume per instance: all toots, public
    /// and private, of the remote accounts that local users follow (Fig.
    /// 14's federated-timeline composition). A followee counts once per
    /// instance: holder sets are deduplicated. (simnet's instance API
    /// reports the public share of the same pool.)
    pub fn remote_toots_per_instance(&self) -> &Vec<u64> {
        self.remote_toots.get_or_init(|| {
            let view = self.content_view();
            let mut out = vec![0u64; self.world.instances.len()];
            for u in 0..view.n_users() {
                for &inst in view.follower_instances(u) {
                    if inst != view.home[u] {
                        out[inst as usize] += view.toots[u];
                    }
                }
            }
            out
        })
    }

    /// Value of a per-instance metric.
    pub fn instance_metric(&self, metric: Metric, instance: usize) -> f64 {
        match metric {
            Metric::Users => self.users_per_instance[instance] as f64,
            Metric::Toots => self.toots_per_instance[instance] as f64,
            Metric::Instances => 1.0,
            Metric::Connections => self.federation_graph().degree(instance as u32) as f64,
        }
    }

    /// Instances ordered by a metric, descending (ties by id for
    /// determinism).
    pub fn instance_order(&self, metric: Metric) -> Vec<u32> {
        let n = self.world.instances.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            self.instance_metric(metric, b as usize)
                .total_cmp(&self.instance_metric(metric, a as usize))
                .then(a.cmp(&b))
        });
        order
    }

    /// AS groups (provider index → member instances), ordered by an
    /// aggregate metric descending; empty groups are dropped.
    pub fn as_groups(&self, metric: Metric) -> Vec<Vec<u32>> {
        let by_provider = self.world.instances_by_provider();
        let mut groups: Vec<(f64, Vec<u32>)> = by_provider
            .into_iter()
            .filter(|members| !members.is_empty())
            .map(|members| {
                let score: f64 = members
                    .iter()
                    .map(|id| self.instance_metric(metric, id.index()))
                    .sum();
                (score, members.iter().map(|id| id.0).collect())
            })
            .collect();
        groups.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        groups.into_iter().map(|(_, m)| m).collect()
    }

    /// Per-instance user weights as f64 (for weighted-LCC sweeps).
    pub fn user_weights(&self) -> Vec<f64> {
        self.users_per_instance.iter().map(|&u| u as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn obs() -> Observatory {
        Observatory::new(Generator::generate_world(WorldConfig::tiny(61)))
    }

    #[test]
    fn caches_are_consistent() {
        let o = obs();
        assert_eq!(o.user_graph().node_count(), o.world.users.len());
        assert_eq!(
            o.user_graph().edge_count(),
            {
                let mut e: Vec<_> = o.world.follows.clone();
                e.sort_unstable();
                e.dedup();
                e.len()
            }
        );
        assert_eq!(
            o.federation_graph().edge_count(),
            o.content_view().federation_edges().len()
        );
    }

    #[test]
    fn instance_order_is_descending() {
        let o = obs();
        for metric in [Metric::Users, Metric::Toots, Metric::Connections] {
            let order = o.instance_order(metric);
            for w in order.windows(2) {
                assert!(
                    o.instance_metric(metric, w[0] as usize)
                        >= o.instance_metric(metric, w[1] as usize)
                );
            }
        }
    }

    #[test]
    fn as_groups_cover_all_instances() {
        let o = obs();
        let groups = o.as_groups(Metric::Instances);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, o.world.instances.len());
        // ordered by member count descending when metric is Instances
        for w in groups.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn remote_toots_match_pair_reference() {
        for seed in [61, 62] {
            let o = Observatory::new(Generator::generate_world(WorldConfig::tiny(seed)));
            // reference: sort and dedup (holder instance, remote followee)
            let w = &o.world;
            let mut pairs: Vec<(u32, u32)> = w
                .follows
                .iter()
                .filter(|&&(a, b)| w.instance_of(a) != w.instance_of(b))
                .map(|&(a, b)| (w.instance_of(a).0, b.0))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut reference = vec![0u64; w.instances.len()];
            for (inst, user) in pairs {
                reference[inst as usize] += w.users[user as usize].toot_count as u64;
            }
            assert_eq!(o.remote_toots_per_instance(), &reference, "seed {seed}");
        }
    }

    #[test]
    fn remote_toots_zero_when_no_federation() {
        let o = obs();
        let remote = o.remote_toots_per_instance();
        assert_eq!(remote.len(), o.world.instances.len());
        // total remote volume is positive in any federated world
        assert!(remote.iter().sum::<u64>() > 0);
    }
}
