//! Daily growth series (Fig. 1): instances / users / toots per day.

use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::{Day, Epoch, EPOCHS_PER_DAY, WINDOW_DAYS};
use fediscope_model::world::GrowthPoint;

/// Piecewise-linear CDF of cumulative *user registrations* over the window:
/// users keep growing through the Jul–Dec 2017 instance plateau ("the user
/// population continues to grow during this period (by 22%)") and through
/// the 2018 burst.
const USER_CDF: [(u32, f64); 5] = [(0, 0.25), (50, 0.45), (81, 0.52), (264, 0.635), (471, 1.00)];

fn interp_cdf(cdf: &[(u32, f64)], day: u32) -> f64 {
    if day <= cdf[0].0 {
        return cdf[0].1;
    }
    for w in cdf.windows(2) {
        let (d0, c0) = w[0];
        let (d1, c1) = w[1];
        if day <= d1 {
            let frac = (day - d0) as f64 / (d1 - d0) as f64;
            return c0 + frac * (c1 - c0);
        }
    }
    cdf.last().unwrap().1
}

/// Cumulative toot fraction by day: starts at 8% (pre-window history) and
/// accelerates super-linearly as the user base grows.
fn toot_fraction(day: u32) -> f64 {
    0.08 + 0.92 * (day as f64 / (WINDOW_DAYS - 1) as f64).powf(1.7)
}

/// Noon of day `d`, the epoch the "available instances" count samples.
fn noon(d: u32) -> Epoch {
    Day(d).start_epoch().saturating_add(EPOCHS_PER_DAY / 2)
}

/// Build the daily series. "Available instances" samples each instance's
/// schedule at noon, so instance-level churn and outages show up as the
/// fluctuations the paper describes.
///
/// Cost: `O(Σ (lifetime days + outages))` over the schedules — each
/// schedule's outage list is walked once by a forward cursor against the
/// ascending noon epochs of the days it exists, instead of a binary search
/// per (day, schedule) pair. The count applies
/// [`AvailabilitySchedule::is_up`]'s rule exactly: the instance exists
/// (`birth ≤ t < death`) and the last outage starting at or before `t`
/// has ended by `t`.
pub fn series(
    schedules: &[AvailabilitySchedule],
    total_users: u64,
    total_toots: u64,
) -> Vec<GrowthPoint> {
    let noons: Vec<Epoch> = (0..WINDOW_DAYS).map(noon).collect();
    let mut up = vec![0u32; noons.len()];
    for s in schedules {
        let first = noons.partition_point(|&t| t < s.birth_epoch());
        let last = noons.partition_point(|&t| t < s.death_epoch());
        let outages = s.outages();
        // outages[..started] are those starting at or before the current noon.
        let mut started = 0;
        for (count, &t) in up[first..last].iter_mut().zip(&noons[first..last]) {
            while started < outages.len() && outages[started].start <= t {
                started += 1;
            }
            if started == 0 || outages[started - 1].end <= t {
                *count += 1;
            }
        }
    }
    (0..WINDOW_DAYS)
        .zip(up)
        .map(|(d, instances)| GrowthPoint {
            instances,
            users: (total_users as f64 * interp_cdf(&USER_CDF, d)).round() as u32,
            toots: (total_toots as f64 * toot_fraction(d)).round() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, WorldConfig};
    use fediscope_model::schedule::OutageCause;
    use proptest::prelude::*;

    /// The per-day scan `series` replaced, kept as its oracle: one
    /// `is_up` binary search per (day, schedule).
    fn up_counts_naive(schedules: &[AvailabilitySchedule]) -> Vec<u32> {
        (0..WINDOW_DAYS)
            .map(|d| schedules.iter().filter(|s| s.is_up(noon(d))).count() as u32)
            .collect()
    }

    /// Add one outage near `day`'s noon. `start_rule` puts the start on,
    /// just after, just before, or anywhere in the day; `end_rule` makes it
    /// one epoch long, end exactly on the next noon (sometimes followed by
    /// an adjacent outage starting right there), span several days, or
    /// end anywhere up to a day later.
    fn add_outage_near_noon(
        s: &mut AvailabilitySchedule,
        day: u32,
        start_rule: u32,
        end_rule: u32,
        jitter: u32,
    ) {
        let at_noon = noon(day).0;
        let start = match start_rule {
            0 => at_noon,
            1 => at_noon + 1,
            2 => at_noon - 1,
            _ => Day(day).start_epoch().0 + jitter,
        };
        let end = match end_rule {
            0 => start + 1,
            1 => noon(day + 1).0,
            2 => start + (1 + jitter % 4) * EPOCHS_PER_DAY,
            _ => start + jitter + 1,
        };
        s.add_outage(Epoch(start), Epoch(end), OutageCause::Organic);
        if end_rule == 1 && jitter.is_multiple_of(2) {
            s.add_outage(Epoch(end), Epoch(end + jitter + 1), OutageCause::CertExpiry);
        }
    }

    proptest! {
        /// The forward cursor counts exactly what `is_up` at every noon
        /// counts, on schedules born and retired mid-window whose outages
        /// start or end on a noon epoch, abut each other, or span days.
        #[test]
        fn series_equals_is_up_scan(
            lifetimes in prop_collection::vec((0u32..WINDOW_DAYS, 0u32..WINDOW_DAYS + 60), 1..20),
            outages in prop_collection::vec(
                (0usize..20, 0u32..WINDOW_DAYS, 0u32..5, 0u32..5, 0u32..EPOCHS_PER_DAY),
                0..200
            )
        ) {
            let mut schedules: Vec<AvailabilitySchedule> = lifetimes
                .iter()
                .map(|&(born, gone)| {
                    let retired = (gone < WINDOW_DAYS).then(|| Day(gone.max(born)));
                    AvailabilitySchedule::new(Day(born), retired)
                })
                .collect();
            for &(i, day, start_rule, end_rule, jitter) in &outages {
                let n = schedules.len();
                add_outage_near_noon(&mut schedules[i % n], day, start_rule, end_rule, jitter);
            }
            let got: Vec<u32> = series(&schedules, 1, 1).iter().map(|p| p.instances).collect();
            prop_assert_eq!(got, up_counts_naive(&schedules));
        }
    }

    #[test]
    fn series_equals_is_up_scan_on_tiny_worlds() {
        for seed in [1, 7] {
            let world = Generator::generate_world(WorldConfig::tiny(seed));
            let got: Vec<u32> = world.growth.iter().map(|p| p.instances).collect();
            assert_eq!(got, up_counts_naive(&world.schedules), "seed {seed}");
        }
    }

    #[test]
    fn series_has_one_point_per_day() {
        let schedules = vec![AvailabilitySchedule::always_up(); 10];
        let s = series(&schedules, 1000, 100_000);
        assert_eq!(s.len(), WINDOW_DAYS as usize);
        assert!(s.iter().all(|p| p.instances == 10));
    }

    #[test]
    fn users_and_toots_monotone() {
        let schedules = vec![AvailabilitySchedule::always_up(); 3];
        let s = series(&schedules, 5000, 1_000_000);
        for w in s.windows(2) {
            assert!(w[1].users >= w[0].users);
            assert!(w[1].toots >= w[0].toots);
        }
        assert_eq!(s.last().unwrap().users, 5000);
        assert_eq!(s.last().unwrap().toots, 1_000_000);
    }

    #[test]
    fn outage_shows_as_dip() {
        let mut bad = AvailabilitySchedule::always_up();
        bad.add_outage(
            Day(100).start_epoch(),
            Day(101).end_epoch(),
            OutageCause::Organic,
        );
        let schedules = vec![AvailabilitySchedule::always_up(), bad];
        let s = series(&schedules, 10, 10);
        assert_eq!(s[99].instances, 2);
        assert_eq!(s[100].instances, 1);
        assert_eq!(s[101].instances, 1);
        assert_eq!(s[102].instances, 2);
    }

    #[test]
    fn late_created_instance_missing_early() {
        let late = AvailabilitySchedule::new(Day(300), None);
        let s = series(&[late], 1, 1);
        assert_eq!(s[299].instances, 0);
        assert_eq!(s[300].instances, 1);
    }

    #[test]
    fn retired_instance_leaves_series() {
        let gone = AvailabilitySchedule::new(Day(0), Some(Day(50)));
        let s = series(&[gone], 1, 1);
        assert_eq!(s[49].instances, 1);
        assert_eq!(s[50].instances, 0);
    }

    #[test]
    fn user_growth_through_plateau() {
        // the paper: users grow 22% while instances plateau (days 81..264)
        let schedules = vec![AvailabilitySchedule::always_up(); 1];
        let s = series(&schedules, 100_000, 1);
        let growth = s[264].users as f64 / s[81].users as f64;
        assert!((1.1..1.4).contains(&growth), "plateau user growth {growth}");
    }

    #[test]
    fn cdf_interpolation_endpoints() {
        assert!((interp_cdf(&USER_CDF, 0) - 0.25).abs() < 1e-12);
        assert!((interp_cdf(&USER_CDF, 471) - 1.0).abs() < 1e-12);
        assert!((interp_cdf(&USER_CDF, 600) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toot_fraction_bounds() {
        assert!(toot_fraction(0) >= 0.05);
        assert!((toot_fraction(WINDOW_DAYS - 1) - 1.0).abs() < 1e-12);
    }
}
