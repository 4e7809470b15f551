//! Scale tiers: named world sizes from the paper's 2019 crawl up to the
//! modern Fediverse.
//!
//! The IMC'19 paper measured 4,328 instances and 853K follower-graph
//! accounts. Post-2022 crawls (Xavier 2024; Jeong et al. 2025 — see
//! PAPERS.md) put the network at roughly 30K instances and millions of
//! accounts. A [`ScaleTier`] names one point on that trajectory so the
//! generator, the analyses, and the benchmarks can all be parameterised by
//! the same knob and `BENCH_graph.json` can carry one datapoint per tier.

/// A named world scale, from the paper's 2019 crawl to the modern network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleTier {
    /// The paper's July-2018/early-2019 crawl: 4,328 instances, 853K
    /// accounts, 351 hosting ASes.
    Paper2019,
    /// Midpoint of the post-2022 growth curve: ~12K instances, 250K
    /// accounts — big enough that asymptotics dominate, small enough for
    /// CI.
    Mid,
    /// The modern Fediverse: ~30K instances (Xavier 2024) and a
    /// million-account follower graph.
    Modern,
    /// The 2026 projection: ~100K instances and a ten-million-account
    /// follower graph (~50M edges) — an order of magnitude past the
    /// paper, per the post-2022 growth documented in arXiv:2408.15383.
    Fediverse2026,
}

impl ScaleTier {
    /// Every tier, ascending by instance count (largest world last).
    pub const ALL: [ScaleTier; 4] = [
        ScaleTier::Paper2019,
        ScaleTier::Mid,
        ScaleTier::Modern,
        ScaleTier::Fediverse2026,
    ];

    /// Canonical lowercase name (stable: used in CLI flags and bench
    /// records).
    pub fn name(self) -> &'static str {
        match self {
            ScaleTier::Paper2019 => "paper2019",
            ScaleTier::Mid => "mid",
            ScaleTier::Modern => "modern",
            ScaleTier::Fediverse2026 => "fediverse2026",
        }
    }

    /// Parse a tier name as written in CLI flags; accepts the canonical
    /// names plus the `paper-2019` spelling. Returns `None` for anything
    /// else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "paper2019" | "paper-2019" | "paper" => Some(ScaleTier::Paper2019),
            "mid" => Some(ScaleTier::Mid),
            "modern" => Some(ScaleTier::Modern),
            "fediverse2026" | "fediverse-2026" | "2026" => Some(ScaleTier::Fediverse2026),
            _ => None,
        }
    }

    /// Number of instances in this tier's world.
    pub fn n_instances(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 4_328,
            ScaleTier::Mid => 12_000,
            ScaleTier::Modern => 30_000,
            ScaleTier::Fediverse2026 => 100_000,
        }
    }

    /// Number of user accounts in this tier's world.
    pub fn n_users(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 853_000,
            ScaleTier::Mid => 250_000,
            ScaleTier::Modern => 1_000_000,
            ScaleTier::Fediverse2026 => 10_000_000,
        }
    }

    /// Number of hosting ASes (grows sublinearly with instances: hosting
    /// stays concentrated, which is the paper's §4 point).
    pub fn n_providers(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 351,
            ScaleTier::Mid => 520,
            ScaleTier::Modern => 900,
            ScaleTier::Fediverse2026 => 2_000,
        }
    }

    /// Rounds of 1% removals for the Fig. 12 iterative attack at this tier.
    pub fn fig12_steps(self) -> usize {
        100
    }

    /// Fig. 13a sweep depth (instances removed) given the tier's world:
    /// a quarter of the instance population, like the paper's x-axis.
    pub fn fig13_max_instances(self) -> usize {
        self.n_instances() / 4
    }

    /// Fig. 13b sweep depth (ASes removed).
    pub fn fig13_max_ases(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 30,
            ScaleTier::Mid => 40,
            ScaleTier::Modern => 50,
            ScaleTier::Fediverse2026 => 60,
        }
    }

    /// Monte-Carlo trials for the Fig. 12 random-removal baseline (fewer
    /// at larger scales: each trial already averages over more nodes).
    pub fn baseline_trials(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 8,
            ScaleTier::Mid => 8,
            ScaleTier::Modern => 4,
            ScaleTier::Fediverse2026 => 2,
        }
    }

    /// Fig. 15 sweep depth (instances removed, ranked by toots): the
    /// paper's x-axis reaches 30 at 2019 scale; deeper tiers scale the
    /// depth with the instance population.
    pub fn fig15_max_instances(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 30,
            ScaleTier::Mid => 80,
            ScaleTier::Modern => 200,
            ScaleTier::Fediverse2026 => 400,
        }
    }

    /// Fig. 15 AS-removal sweep depth.
    pub fn fig15_max_ases(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 10,
            ScaleTier::Mid => 15,
            ScaleTier::Modern => 20,
            ScaleTier::Fediverse2026 => 25,
        }
    }

    /// Fig. 16 sweep depth (instances removed under random replication):
    /// 25 in the paper, scaled up with the tier.
    pub fn fig16_max_instances(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 25,
            ScaleTier::Mid => 60,
            ScaleTier::Modern => 150,
            ScaleTier::Fediverse2026 => 300,
        }
    }

    /// Table 1 membership threshold: the paper only reports ASes hosting
    /// at least 8 instances. Hosting concentration persists at every tier,
    /// so the absolute threshold carries over unchanged.
    pub fn table1_min_instances(self) -> usize {
        8
    }

    // --- delivery-simulator knobs (simnet::fedsim) ---

    /// Toot-emission horizon of the delivery simulation, in 5-minute ticks
    /// (one simulated day at every tier: the §3 load-concentration shape is
    /// per-rate, not per-duration, and one day keeps the modern tier's
    /// ~7M-message fan-out inside a bench budget).
    pub fn fedsim_horizon_epochs(self) -> u32 {
        crate::time::EPOCHS_PER_DAY
    }

    /// Extra ticks the simulator may run past the horizon to drain queues
    /// and flush redelivery backlogs before declaring leftovers
    /// undeliverable.
    pub fn fedsim_drain_epochs(self) -> u32 {
        2 * crate::time::EPOCHS_PER_DAY
    }

    /// Global multiplier on per-user toot rates for the simulation window
    /// (1.0 = the paper's measured lifetime rates spread uniformly over the
    /// measurement window).
    pub fn fedsim_rate_scale(self) -> f64 {
        1.0
    }

    /// How many top-ranked ASes the degradation overlay takes down (the
    /// paper's §4 headline: the top-5 ASes host the majority of users).
    pub fn fedsim_outage_ases(self) -> usize {
        5
    }

    /// The overlay outage window `[start, end)` in simulation ticks:
    /// one quarter of the horizon in, lasting a quarter — leaving half the
    /// horizon plus the drain budget to observe redelivery recovery.
    pub fn fedsim_outage_window(self) -> (u32, u32) {
        let h = self.fedsim_horizon_epochs();
        (h / 4, h / 2)
    }

    // --- correlated-failure scenario knobs (replication::scenario) ---

    /// Shared-fate depth: how many top-ranked ASes (and hosting providers)
    /// the AS-/hoster-level shared-fate scenarios take down, one group per
    /// removal step.
    pub fn scenario_shared_fate_groups(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 10,
            ScaleTier::Mid => 15,
            ScaleTier::Modern => 20,
            ScaleTier::Fediverse2026 => 25,
        }
    }

    /// Cert-lapse cascade resolution: the window's lapse days are folded
    /// into this many equal day buckets, each bucket one removal step.
    pub fn scenario_cascade_buckets(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 8,
            ScaleTier::Mid => 12,
            ScaleTier::Modern => 16,
            ScaleTier::Fediverse2026 => 20,
        }
    }

    /// Churn-with-rebirth step count: churned instances retire in
    /// retirement-day order, folded into this many removal steps.
    pub fn scenario_churn_steps(self) -> usize {
        match self {
            ScaleTier::Paper2019 => 10,
            ScaleTier::Mid => 12,
            ScaleTier::Modern => 16,
            ScaleTier::Fediverse2026 => 20,
        }
    }
}

impl std::fmt::Display for ScaleTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for tier in ScaleTier::ALL {
            assert_eq!(ScaleTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(ScaleTier::parse("paper-2019"), Some(ScaleTier::Paper2019));
        assert_eq!(ScaleTier::parse("MODERN"), Some(ScaleTier::Modern));
        assert_eq!(ScaleTier::parse("gigantic"), None);
    }

    #[test]
    fn tiers_scale_monotonically() {
        assert!(ScaleTier::Mid.n_instances() > ScaleTier::Paper2019.n_instances());
        assert!(ScaleTier::Modern.n_instances() > ScaleTier::Mid.n_instances());
        assert!(ScaleTier::Modern.n_users() >= 1_000_000);
        assert!(ScaleTier::Fediverse2026.n_instances() >= 100_000);
        assert!(ScaleTier::Fediverse2026.n_users() >= 10_000_000);
        assert_eq!(ScaleTier::Paper2019.n_instances(), 4_328);
        assert_eq!(ScaleTier::Paper2019.n_users(), 853_000);
        // providers grow sublinearly relative to instances
        for tier in ScaleTier::ALL {
            assert!(tier.n_providers() < tier.n_instances() / 5);
        }
    }

    #[test]
    fn sweep_depths_positive_and_in_range() {
        for tier in ScaleTier::ALL {
            assert!(tier.fig12_steps() > 0);
            assert!(tier.fig13_max_instances() > 0);
            assert!(tier.fig13_max_instances() <= tier.n_instances());
            assert!(tier.fig13_max_ases() <= tier.n_providers());
            assert!(tier.baseline_trials() > 0);
            assert!(tier.fig15_max_instances() > 0);
            assert!(tier.fig15_max_instances() <= tier.n_instances());
            assert!(tier.fig15_max_ases() <= tier.n_providers());
            assert!(tier.fig16_max_instances() > 0);
            assert!(tier.fig16_max_instances() <= tier.n_instances());
            assert_eq!(tier.table1_min_instances(), 8);
            assert!(tier.scenario_shared_fate_groups() > 0);
            assert!(tier.scenario_shared_fate_groups() <= tier.n_providers());
            assert!(tier.scenario_cascade_buckets() > 0);
            assert!(tier.scenario_cascade_buckets() <= crate::time::WINDOW_DAYS as usize);
            assert!(tier.scenario_churn_steps() > 0);
            assert!(tier.scenario_churn_steps() <= tier.n_instances());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", ScaleTier::Mid), "mid");
    }
}
