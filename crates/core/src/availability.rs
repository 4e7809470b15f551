//! §4.4 analyses: availability, outages, certificates, AS failures
//! (Figs. 7–10, Table 1).
//!
//! [`section4_sweep`] / [`section4_tier`] fold **all** of Figs. 7, 8, 10,
//! the worst-day blackout, and Table 1 out of one sharded [`MonitorSweep`]
//! pass over the observatory's columnar
//! [`fediscope_model::schedule::OutageArena`], bit-identical at any thread
//! count. [`fig09_certificates`] reads the schedules directly. The naive
//! per-schedule reference the sweep is checked against lives in
//! `fediscope_monitor` ([`fediscope_monitor::naive_section4`]).

use crate::observatory::Observatory;
use fediscope_model::certs::CertificateAuthority;
use fediscope_model::scale::ScaleTier;
use fediscope_monitor::asn::AsFailureRow;
use fediscope_monitor::certs::{attribute_cert_outages, ca_footprint, CertOutageReport};
use fediscope_monitor::daily::{DailyCounts, SizeBin};
use fediscope_monitor::downtime::{headlines, DowntimeHeadlines};
use fediscope_monitor::{MonitorSweep, SweepConfig, SweepOutput};
use fediscope_stats::{BoxStats, Ecdf};

/// Fig. 7: downtime CDF + exposure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig07Downtime {
    /// CDF of lifetime downtime fractions.
    pub downtime_cdf: Ecdf,
    /// Headline §4.4 statistics.
    pub headlines: DowntimeHeadlines,
    /// Users unavailable when a failing instance goes down.
    pub users_exposure: Ecdf,
    /// Toots unavailable.
    pub toots_exposure: Ecdf,
    /// Boosted toots unavailable.
    pub boosts_exposure: Ecdf,
}

/// Fig. 8: per-day downtime by size bin vs Twitter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08DailyDowntime {
    /// Box stats per size bin (Fig. 8 order).
    pub bins: Vec<(SizeBin, Option<BoxStats>)>,
    /// Mean Mastodon per-day downtime (paper: 10.95%).
    pub mastodon_mean: f64,
    /// Mean Twitter 2007 per-day downtime (paper: 1.25%).
    pub twitter_mean: f64,
    /// Twitter box stats.
    pub twitter_box: Option<BoxStats>,
    /// Correlation between toot count and downtime (paper: −0.04).
    pub size_correlation: Option<f64>,
}

/// Fig. 9: certificates.
#[derive(Debug, Clone)]
pub struct Fig09Certificates {
    /// CA market share (Fig. 9a).
    pub footprint: Vec<(CertificateAuthority, f64)>,
    /// Expiry attribution (Fig. 9b).
    pub outages: CertOutageReport,
}

/// Compute Fig. 9.
pub fn fig09_certificates(obs: &Observatory) -> Fig09Certificates {
    Fig09Certificates {
        footprint: ca_footprint(&obs.world.instances),
        outages: attribute_cert_outages(&obs.world.instances, &obs.world.schedules),
    }
}

/// Fig. 10: continuous outages.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Outages {
    /// Duration CDF (days).
    pub durations: Ecdf,
    /// Fraction of instances failing at least once (paper: 98%).
    pub any_outage_frac: f64,
    /// Fraction with a ≥1-day outage (paper: 25%).
    pub day_plus_frac: f64,
    /// Fraction with a >1-month outage (paper: 7%).
    pub month_plus_frac: f64,
    /// Users on day-plus-outage instances.
    pub users_affected: u64,
    /// Toots on day-plus-outage instances.
    pub toots_affected: u64,
    /// Worst whole-day blackout: `(day, fraction of global toots)`.
    pub worst_day: (fediscope_model::time::Day, f64),
}

/// All of §4's availability output (Figs. 7, 8, 10 + Table 1), produced
/// by one [`MonitorSweep`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Section4 {
    /// Fig. 7: downtime CDF + exposure.
    pub fig07: Fig07Downtime,
    /// Fig. 8: daily downtime by size bin vs Twitter.
    pub fig08: Fig08DailyDowntime,
    /// Fig. 10: continuous outages + the worst blackout day.
    pub fig10: Fig10Outages,
    /// Table 1: AS-wide failures.
    pub table1: Vec<AsFailureRow>,
}

/// Shape a counted [`SweepOutput`] into the per-figure §4 structs, with
/// Fig. 8's Twitter baseline taken from the world.
fn section4_from_sweep(obs: &Observatory, out: SweepOutput<DailyCounts>) -> Section4 {
    let t = &obs.world.twitter.daily_downtime;
    Section4 {
        fig07: Fig07Downtime {
            headlines: headlines(&out.downtime),
            downtime_cdf: out.downtime.cdf,
            users_exposure: out.exposure.users,
            toots_exposure: out.exposure.toots,
            boosts_exposure: out.exposure.boosts,
        },
        fig08: Fig08DailyDowntime {
            bins: out.daily.box_stats(),
            mastodon_mean: out.daily.mean(),
            twitter_mean: t.iter().sum::<f64>() / t.len().max(1) as f64,
            twitter_box: BoxStats::of(t),
            size_correlation: out.size_correlation,
        },
        fig10: Fig10Outages {
            durations: out.outages.durations_days,
            any_outage_frac: out.outages.any_outage_frac,
            day_plus_frac: out.outages.day_plus_frac,
            month_plus_frac: out.outages.month_plus_frac,
            users_affected: out.outages.users_affected,
            toots_affected: out.outages.toots_affected,
            worst_day: out.worst_day,
        },
        table1: out.as_table,
    }
}

/// Compute all of §4 in one sharded pass over the observatory's columnar
/// arena. `min_as_instances` is Table 1's AS membership threshold (paper:
/// 8; scale it down for small worlds). Fig. 8 is folded into exact
/// per-bin counts ([`MonitorSweep::run_counted`]): its box plots and mean
/// read every instance-day without holding one sample each.
pub fn section4_sweep(obs: &Observatory, min_as_instances: usize) -> Section4 {
    let cfg = SweepConfig { min_as_instances };
    let out = MonitorSweep::new(obs.outage_arena(), &obs.world.instances)
        .run_counted(&obs.world.providers, &cfg);
    section4_from_sweep(obs, out)
}

/// [`section4_sweep`] with the tier's knobs (paper Table 1 threshold, via
/// [`SweepConfig::for_tier`]) — the §4 entry point for tier-scaled worlds.
pub fn section4_tier(obs: &Observatory, tier: ScaleTier) -> Section4 {
    section4_sweep(obs, SweepConfig::for_tier(tier).min_as_instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn obs() -> Observatory {
        Observatory::new(Generator::generate_world(WorldConfig::small(81)))
    }

    #[test]
    fn fig07_headline_bands() {
        let o = obs();
        let f = section4_sweep(&o, 3).fig07;
        // paper: ~50% below 5% downtime; ~11% above 50%
        assert!((0.30..=0.72).contains(&f.headlines.below_5pct));
        assert!((0.02..=0.25).contains(&f.headlines.above_50pct));
        assert!(f.headlines.mean > 0.02 && f.headlines.mean < 0.30);
        assert!(!f.users_exposure.is_empty());
    }

    #[test]
    fn fig08_twitter_beats_mastodon() {
        let o = obs();
        let f = section4_sweep(&o, 3).fig08;
        assert!(
            f.mastodon_mean > 2.0 * f.twitter_mean,
            "mastodon {} vs twitter {}",
            f.mastodon_mean,
            f.twitter_mean
        );
        // size is a poor predictor of availability
        if let Some(c) = f.size_correlation {
            assert!(c.abs() < 0.4, "correlation {c}");
        }
        // the mid-size bin is the most reliable (non-monotonic pattern)
        let median_of = |bin: SizeBin| {
            f.bins
                .iter()
                .find(|(b, _)| *b == bin)
                .and_then(|(_, s)| s.as_ref())
                .map(|s| s.median)
        };
        if let (Some(small), Some(large)) = (median_of(SizeBin::Small), median_of(SizeBin::Large)) {
            assert!(small >= large);
        }
    }

    #[test]
    fn fig09_lets_encrypt_and_cohort() {
        let o = obs();
        let f = fig09_certificates(&o);
        let le = f
            .footprint
            .iter()
            .find(|(ca, _)| *ca == CertificateAuthority::LetsEncrypt)
            .unwrap()
            .1;
        assert!(le > 0.8);
        // synchronized expiry cohort peaks well above background
        assert!(f.outages.worst_day_count() >= 3);
    }

    #[test]
    fn table1_detects_planned_failures() {
        let o = obs();
        let rows = section4_sweep(&o, 3).table1;
        assert!(!rows.is_empty());
        let total_failures: usize = rows.iter().map(|r| r.failures).sum();
        assert!(total_failures >= 3);
    }

    #[test]
    fn fig10_shape() {
        let o = obs();
        let f = section4_sweep(&o, 3).fig10;
        assert!(f.any_outage_frac > 0.85, "{}", f.any_outage_frac);
        assert!(
            (0.05..=0.5).contains(&f.day_plus_frac),
            "{}",
            f.day_plus_frac
        );
        assert!(f.month_plus_frac < f.day_plus_frac);
        assert!(f.worst_day.1 > 0.0, "some day must lose toots");
        assert!(f.users_affected > 0);
    }

    #[test]
    fn tier_entry_points_follow_tier_tables() {
        // Tier worlds are too big for unit tests; run the tier *knobs* on a
        // small world and check the entry point agrees with the direct sweep.
        let o = obs();
        let tier = ScaleTier::Paper2019;
        let s4 = section4_tier(&o, tier);
        let direct = section4_sweep(&o, tier.table1_min_instances());
        assert!(s4 == direct);
        // the paper threshold prunes small-world ASes: every surviving row
        // respects it
        for row in &s4.table1 {
            assert!(row.instances >= tier.table1_min_instances());
        }
    }
}
