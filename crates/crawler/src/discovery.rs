//! Instance discovery: the seed list.
//!
//! The paper bootstrapped from mnm.social's "comprehensive index of
//! instances around the world" (4,328 domains). Our equivalent is a list of
//! `(domain, socket address)` pairs; in the simulator every domain resolves
//! to the shared in-memory listener (virtual hosting), while a real
//! deployment would resolve DNS per domain.

use fediscope_model::ids::InstanceId;
use std::net::SocketAddr;

/// One seed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// The instance the crawler believes this domain to be (dense id in the
    /// seed list; equals the world id in simulation).
    pub instance: InstanceId,
    /// Domain name (sent as the `Host` header).
    pub domain: String,
    /// Where to connect.
    pub addr: SocketAddr,
}

/// The full seed list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeedList {
    entries: Vec<Seed>,
}

impl SeedList {
    /// Build from explicit entries.
    pub fn new(entries: Vec<Seed>) -> Self {
        Self { entries }
    }

    /// Build a seed list for a simulated world where every domain is served
    /// by `addr`.
    pub fn for_simnet(world: &fediscope_model::world::World, addr: SocketAddr) -> Self {
        Self {
            entries: world
                .instances
                .iter()
                .map(|i| Seed {
                    instance: i.id,
                    domain: i.domain.clone(),
                    addr,
                })
                .collect(),
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[Seed] {
        &self.entries
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restrict to the first `n` seeds (subset crawls in tests/examples).
    pub fn truncated(&self, n: usize) -> SeedList {
        Self {
            entries: self.entries.iter().take(n).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> SocketAddr {
        "127.0.0.1:4242".parse().unwrap()
    }

    #[test]
    fn construction_and_truncation() {
        let seeds = SeedList::new(vec![
            Seed {
                instance: InstanceId(0),
                domain: "a.test".into(),
                addr: addr(),
            },
            Seed {
                instance: InstanceId(1),
                domain: "b.test".into(),
                addr: addr(),
            },
        ]);
        assert_eq!(seeds.len(), 2);
        assert!(!seeds.is_empty());
        let t = seeds.truncated(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].domain, "a.test");
    }

    #[test]
    fn empty_list() {
        let s = SeedList::default();
        assert!(s.is_empty());
        assert_eq!(s.truncated(5).len(), 0);
    }
}
