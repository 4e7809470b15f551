//! # fediscope-graph
//!
//! Directed-graph substrate for the fediscope toolkit, written from scratch
//! (no petgraph): compressed sparse-row storage, connected components, degree
//! statistics, and the node-removal resilience sweeps of §5.1 of the paper.
//!
//! Nodes are dense `u32` indices; callers keep their own `UserId`/
//! `InstanceId` ↔ node mappings (they are dense already, so the mapping is
//! the identity in practice).
//!
//! - [`DiGraph`]: CSR storage with out- and in-adjacency, built by a
//!   counting sort on source,
//! - [`components`]: weakly connected components via union-find,
//! - [`degree`]: the out-degree sequence (Fig. 11),
//! - [`removal`]: iterative top-degree removal (Fig. 12) and ranked/grouped
//!   removal sweeps (Fig. 13) — incremental, allocation-free engines with a
//!   naive reference kept for differential testing (see `README.md` for the
//!   complexity model),
//! - [`par`]: deterministic parallel fan-out for independent sweeps (each
//!   sweep's reverse union-find pass itself stays serial),
//! - [`projection`]: edge counts between the groups of a node partition
//!   (the federation graph's country links, Fig. 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod degree;
pub mod digraph;
pub mod par;
pub mod projection;
pub mod removal;
pub mod unionfind;

pub use components::{weakly_connected, ComponentInfo};
pub use digraph::DiGraph;
pub use removal::{RemovalSweep, SweepPoint};
pub use unionfind::{UnionFind, WeightedUnionFind};
