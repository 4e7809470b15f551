//! Lifetime downtime distributions and failure exposure (Fig. 7).

use fediscope_model::instance::Instance;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::EPOCHS_PER_DAY;
use fediscope_stats::Ecdf;

/// Per-instance downtime report.
#[derive(Debug, Clone, PartialEq)]
pub struct DowntimeReport {
    /// Downtime fraction per instance (lifetime-normalised), aligned with
    /// the input slice. Instances with less than one day of lifetime are
    /// `None`.
    pub fraction: Vec<Option<f64>>,
    /// ECDF over the defined fractions (the Fig. 7 blue line).
    pub cdf: Ecdf,
}

/// Compute lifetime downtime for every instance.
pub fn downtime_report(schedules: &[AvailabilitySchedule]) -> DowntimeReport {
    let fraction: Vec<Option<f64>> = schedules
        .iter()
        .map(|s| {
            (s.lifetime_epochs() >= EPOCHS_PER_DAY).then(|| s.downtime_fraction())
        })
        .collect();
    let cdf = Ecdf::new(fraction.iter().flatten().copied().collect());
    DowntimeReport { fraction, cdf }
}

/// Fig. 7's red lines: the exposure of users/toots/boosts to instance
/// failures — for every instance that fails at least once, how many users,
/// toots and boosted toots become unavailable when it goes down.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureExposure {
    /// Users per failing instance.
    pub users: Ecdf,
    /// Toots per failing instance.
    pub toots: Ecdf,
    /// Boosted toots per failing instance.
    pub boosts: Ecdf,
    /// Number of instances that failed at least once.
    pub failing_instances: usize,
}

/// Compute the exposure distributions.
pub fn failure_exposure(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
) -> FailureExposure {
    let mut users = Vec::new();
    let mut toots = Vec::new();
    let mut boosts = Vec::new();
    for (inst, sched) in instances.iter().zip(schedules) {
        if sched.outage_count() > 0 {
            users.push(inst.user_count as f64);
            toots.push(inst.toot_count as f64);
            boosts.push(inst.boosted_toots as f64);
        }
    }
    FailureExposure {
        failing_instances: users.len(),
        users: Ecdf::new(users),
        toots: Ecdf::new(toots),
        boosts: Ecdf::new(boosts),
    }
}

/// Headline §4.4 numbers derived from a [`DowntimeReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowntimeHeadlines {
    /// Fraction of instances with <5% downtime (paper ≈ 0.5).
    pub below_5pct: f64,
    /// Fraction with >50% downtime (paper ≈ 0.11).
    pub above_50pct: f64,
    /// Fraction with ≥99.5% uptime (paper ≈ 0.045).
    pub high_avail: f64,
    /// Mean downtime (paper ≈ 0.1095).
    pub mean: f64,
}

/// Extract the headlines.
pub fn headlines(report: &DowntimeReport) -> DowntimeHeadlines {
    let vals: Vec<f64> = report.fraction.iter().flatten().copied().collect();
    let n = vals.len().max(1) as f64;
    DowntimeHeadlines {
        below_5pct: vals.iter().filter(|&&d| d < 0.05).count() as f64 / n,
        above_50pct: vals.iter().filter(|&&d| d > 0.5).count() as f64 / n,
        high_avail: vals.iter().filter(|&&d| d <= 0.005).count() as f64 / n,
        mean: vals.iter().sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::{Day, Epoch};

    fn sched_with_downtime(days_down: u32, lifetime_days: u32) -> AvailabilitySchedule {
        let mut s = AvailabilitySchedule::new(Day(0), Some(Day(lifetime_days)));
        s.add_outage(
            Epoch(0),
            Day(days_down).start_epoch(),
            OutageCause::Organic,
        );
        s
    }

    #[test]
    fn fractions_computed() {
        let schedules = vec![
            sched_with_downtime(1, 10), // 10%
            sched_with_downtime(5, 10), // 50%
            AvailabilitySchedule::always_up(),
        ];
        let r = downtime_report(&schedules);
        assert!((r.fraction[0].unwrap() - 0.1).abs() < 1e-9);
        assert!((r.fraction[1].unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(r.fraction[2], Some(0.0));
        assert_eq!(r.cdf.len(), 3);
    }

    #[test]
    fn short_lived_instances_excluded() {
        let s = AvailabilitySchedule::new(Day(0), Some(Day(0)));
        let r = downtime_report(&[s]);
        assert_eq!(r.fraction[0], None);
        assert!(r.cdf.is_empty());
    }

    #[test]
    fn headlines_from_known_mixture() {
        let mut schedules = Vec::new();
        for _ in 0..6 {
            schedules.push(AvailabilitySchedule::always_up()); // 0% downtime
        }
        for _ in 0..3 {
            schedules.push(sched_with_downtime(40, 100)); // 40%
        }
        schedules.push(sched_with_downtime(80, 100)); // 80%
        let h = headlines(&downtime_report(&schedules));
        assert!((h.below_5pct - 0.6).abs() < 1e-9);
        assert!((h.above_50pct - 0.1).abs() < 1e-9);
        assert!((h.high_avail - 0.6).abs() < 1e-9);
        assert!((h.mean - 0.2).abs() < 1e-9);
    }

    #[test]
    fn exposure_only_counts_failing() {
        use fediscope_model::certs::{Certificate, CertificateAuthority};
        use fediscope_model::geo::Country;
        use fediscope_model::ids::{AsId, InstanceId};
        use fediscope_model::instance::{OperatorKind, Registration, Software};
        use fediscope_model::taxonomy::{CategorySet, PolicySet};
        let mk = |i: u32, users: u32| Instance {
            id: InstanceId(i),
            domain: format!("i{i}"),
            software: Software::Mastodon,
            registration: Registration::Open,
            declares_categories: false,
            categories: CategorySet::empty(),
            policies: PolicySet::unstated(),
            country: Country::Japan,
            asn: AsId(1),
            provider_index: 0,
            ip: i,
            certificate: Certificate {
                ca: CertificateAuthority::LetsEncrypt,
                issued: Day(0),
                auto_renew: true,
            },
            created: Day(0),
            operator: OperatorKind::Individual,
            user_count: users,
            toot_count: users as u64 * 10,
            boosted_toots: users as u64,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        };
        let instances = vec![mk(0, 100), mk(1, 7)];
        let mut bad = AvailabilitySchedule::always_up();
        bad.add_outage(Epoch(0), Epoch(10), OutageCause::Organic);
        let schedules = vec![bad, AvailabilitySchedule::always_up()];
        let exp = failure_exposure(&instances, &schedules);
        assert_eq!(exp.failing_instances, 1);
        assert_eq!(exp.users.max(), Some(100.0));
        assert_eq!(exp.toots.max(), Some(1000.0));
    }
}
