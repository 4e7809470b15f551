//! Continuous-outage analysis (Fig. 10) and worst-day impact.

use fediscope_model::instance::Instance;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::{Day, EPOCHS_PER_DAY, WINDOW_DAYS};
use fediscope_stats::Ecdf;

/// Integer epoch threshold for a "day-plus" continuous outage.
pub const DAY_PLUS_EPOCHS: u32 = EPOCHS_PER_DAY;

/// Integer epoch threshold for a "month-plus" (>30-day) continuous outage.
pub const MONTH_PLUS_EPOCHS: u32 = 30 * EPOCHS_PER_DAY;

/// Fig. 10's data: the duration distribution of day-plus outages and the
/// affected user/toot volumes.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageDurations {
    /// Every outage duration, in days (all outages, not just day-plus).
    pub durations_days: Ecdf,
    /// Fraction of instances with at least one outage.
    pub any_outage_frac: f64,
    /// Fraction of instances with a ≥1-day continuous outage.
    pub day_plus_frac: f64,
    /// Fraction of instances with a >30-day continuous outage.
    pub month_plus_frac: f64,
    /// Users on instances with a ≥1-day outage (the Fig. 10 right axis).
    pub users_affected: u64,
    /// Toots on instances with a ≥1-day outage.
    pub toots_affected: u64,
}

/// Analyse outage durations across instances.
///
/// Day-plus / month-plus classification compares integer epoch lengths
/// against [`DAY_PLUS_EPOCHS`] / [`MONTH_PLUS_EPOCHS`] — boundary-length
/// outages (exactly 1 day, exactly 30 days) bin exactly, with no float
/// quotient in the comparison. Reported *durations* stay fractional days.
pub fn outage_durations(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
) -> OutageDurations {
    let mut acc = DurationAcc::default();
    for (inst, sched) in instances.iter().zip(schedules) {
        acc.fold_instance(
            inst,
            sched.lifetime_epochs(),
            sched.outages().iter().map(|o| o.len_epochs()),
        );
    }
    acc.finish()
}

/// Shared Fig. 10 accumulator: per-instance fold plus the final fraction
/// arithmetic, used by [`outage_durations`] and, shard-locally, by
/// `sweep::MonitorSweep` (all counters are integers, so shard merging is
/// exact).
#[derive(Debug, Default)]
pub(crate) struct DurationAcc {
    pub durations: Vec<f64>,
    pub any: usize,
    pub day_plus: usize,
    pub month_plus: usize,
    pub users_affected: u64,
    pub toots_affected: u64,
    pub considered: usize,
}

impl DurationAcc {
    /// Fold one instance's outage lengths (in epochs).
    pub fn fold_instance(
        &mut self,
        inst: &Instance,
        lifetime_epochs: u32,
        lens: impl Iterator<Item = u32>,
    ) {
        if lifetime_epochs == 0 {
            return;
        }
        self.considered += 1;
        let mut longest = 0u32;
        let mut count = 0usize;
        for len in lens {
            self.durations.push(len as f64 / EPOCHS_PER_DAY as f64);
            longest = longest.max(len);
            count += 1;
        }
        if count > 0 {
            self.any += 1;
        }
        if longest >= DAY_PLUS_EPOCHS {
            self.day_plus += 1;
            self.users_affected += inst.user_count as u64;
            self.toots_affected += inst.toot_count;
        }
        if longest > MONTH_PLUS_EPOCHS {
            self.month_plus += 1;
        }
    }

    /// Merge a later shard's accumulator into this one (order-preserving
    /// concatenation + exact integer sums).
    pub fn absorb(&mut self, other: DurationAcc) {
        self.durations.extend(other.durations);
        self.any += other.any;
        self.day_plus += other.day_plus;
        self.month_plus += other.month_plus;
        self.users_affected += other.users_affected;
        self.toots_affected += other.toots_affected;
        self.considered += other.considered;
    }

    /// Turn the integer counters into the reported fractions.
    pub fn finish(self) -> OutageDurations {
        let n = self.considered.max(1) as f64;
        OutageDurations {
            durations_days: Ecdf::new(self.durations),
            any_outage_frac: self.any as f64 / n,
            day_plus_frac: self.day_plus as f64 / n,
            month_plus_frac: self.month_plus as f64 / n,
            users_affected: self.users_affected,
            toots_affected: self.toots_affected,
        }
    }
}

/// The worst whole-day toot blackout: for each day, the fraction of global
/// toots hosted on instances that were down for that *entire* day (the
/// paper finds a day — 2017-04-15 — where 6% of all toots were unavailable
/// all day).
///
/// Tie-break (pinned by unit test, and reproduced exactly by the sharded
/// arena fold): the comparison is strictly-greater, so when several days
/// lose the same toot volume the **first** (earliest) worst day wins.
///
/// This is the kept naive reference: `O(days · instances)` day-queries,
/// each rescanning the instance's outage list. The production path is
/// `sweep::MonitorSweep`, which accumulates per-outage whole-day spans into
/// a per-day toot histogram in `O(outages + days)`.
pub fn worst_day_blackout(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
) -> (Day, f64) {
    let total: u64 = instances.iter().map(|i| i.toot_count).sum();
    if total == 0 {
        return (Day(0), 0.0);
    }
    let mut worst = (Day(0), 0.0f64);
    for d in 0..WINDOW_DAYS {
        let day = Day(d);
        let mut dark = 0u64;
        for (inst, sched) in instances.iter().zip(schedules) {
            if sched.down_whole_day(day) {
                dark += inst.toot_count;
            }
        }
        let frac = dark as f64 / total as f64;
        if frac > worst.1 {
            worst = (day, frac);
        }
    }
    worst
}

/// Range-add one outage's whole-day blackout span into a per-day toot
/// *difference* array (`diff.len() == WINDOW_DAYS + 1`; prefix-summing
/// yields the per-day dark-toot histogram).
///
/// A day is a whole-day blackout when the instance's *live* span within it
/// (`[max(day_start, birth), min(day_end, death))`, nonempty) is entirely
/// covered by the outage — the exact condition under which
/// `daily_downtime(day) == Some(1.0)`. Because stored outages are strictly
/// separated by up-epochs, a fully-dark day is always covered by a single
/// outage, so per-outage accumulation counts each `(instance, day)` pair
/// at most once.
pub(crate) fn blackout_span_add(
    diff: &mut [i64],
    birth: u32,
    death: u32,
    start: u32,
    end: u32,
    toots: u64,
) {
    debug_assert!(birth <= start && start < end && end <= death);
    if toots == 0 {
        return;
    }
    let e = EPOCHS_PER_DAY;
    let t = toots as i64;
    // Days lying fully inside the lifetime and fully covered by the outage.
    let lo = start.div_ceil(e).max(birth.div_ceil(e));
    let hi = (end / e).min(death / e);
    if lo < hi {
        diff[lo as usize] += t;
        diff[hi as usize] -= t;
    }
    // Partial lifetime-boundary days (mid-day birth or death): such a day
    // counts when its shortened live span is covered. `AvailabilitySchedule`
    // lifetimes are day-aligned so these never fire for schedule-built
    // arenas, but arbitrary arenas may carry mid-day births/deaths.
    let mut partials = [None, None];
    if !birth.is_multiple_of(e) {
        partials[0] = Some(birth / e);
    }
    if !death.is_multiple_of(e) && Some(death / e) != partials[0] {
        partials[1] = Some(death / e);
    }
    for j in partials.into_iter().flatten() {
        let live_lo = (j * e).max(birth);
        let live_hi = ((j + 1) * e).min(death);
        if live_lo < live_hi && start <= live_lo && end >= live_hi {
            diff[j as usize] += t;
            diff[j as usize + 1] -= t;
        }
    }
}

/// Pick the worst day out of a per-day dark-toot histogram, replicating
/// [`worst_day_blackout`]'s float comparison (and therefore its
/// first-worst-day tie-break) exactly.
pub(crate) fn worst_day_from_histogram(dark_per_day: &[i64], total: u64) -> (Day, f64) {
    if total == 0 {
        return (Day(0), 0.0);
    }
    let mut worst = (Day(0), 0.0f64);
    for (d, &dark) in dark_per_day.iter().enumerate().take(WINDOW_DAYS as usize) {
        debug_assert!(dark >= 0);
        let frac = dark as f64 / total as f64;
        if frac > worst.1 {
            worst = (Day(d as u32), frac);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::{OutageArena, OutageCause};
    use fediscope_model::time::Epoch;

    fn mk_inst(i: u32, users: u32, toots: u64) -> Instance {
        use fediscope_model::certs::{Certificate, CertificateAuthority};
        use fediscope_model::geo::Country;
        use fediscope_model::ids::{AsId, InstanceId};
        use fediscope_model::instance::{OperatorKind, Registration, Software};
        use fediscope_model::taxonomy::{CategorySet, PolicySet};
        Instance {
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
            toot_count: toots,
            boosted_toots: 0,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        }
    }

    #[test]
    fn counts_and_fractions() {
        let instances = vec![mk_inst(0, 10, 100), mk_inst(1, 20, 200), mk_inst(2, 5, 50)];
        let mut s0 = AvailabilitySchedule::always_up();
        s0.add_outage(Epoch(0), Epoch(10), OutageCause::Organic); // short blip
        let mut s1 = AvailabilitySchedule::always_up();
        s1.add_outage(Epoch(0), Day(2).start_epoch(), OutageCause::Organic); // 2 days
        let s2 = AvailabilitySchedule::always_up();
        let r = outage_durations(&instances, &[s0, s1, s2]);
        assert!((r.any_outage_frac - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.day_plus_frac - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.month_plus_frac, 0.0);
        assert_eq!(r.users_affected, 20);
        assert_eq!(r.toots_affected, 200);
        assert_eq!(r.durations_days.len(), 2);
    }

    #[test]
    fn month_long_outage_detected() {
        let instances = vec![mk_inst(0, 1, 10)];
        let mut s = AvailabilitySchedule::always_up();
        s.add_outage(Epoch(0), Day(35).start_epoch(), OutageCause::Organic);
        let r = outage_durations(&instances, &[s]);
        assert_eq!(r.month_plus_frac, 1.0);
    }

    #[test]
    fn worst_day_finds_blackout() {
        // one instance with 60% of toots is dark on day 7
        let instances = vec![mk_inst(0, 1, 600), mk_inst(1, 1, 400)];
        let mut s0 = AvailabilitySchedule::always_up();
        s0.add_outage(
            Day(7).start_epoch(),
            Day(8).start_epoch(),
            OutageCause::Organic,
        );
        let schedules = vec![s0, AvailabilitySchedule::always_up()];
        let (day, frac) = worst_day_blackout(&instances, &schedules);
        assert_eq!(day, Day(7));
        assert!((frac - 0.6).abs() < 1e-9);
    }

    #[test]
    fn partial_day_does_not_count_as_blackout() {
        let instances = vec![mk_inst(0, 1, 100)];
        let mut s = AvailabilitySchedule::always_up();
        // only half of day 3
        s.add_outage(
            Day(3).start_epoch(),
            Epoch(Day(3).start_epoch().0 + 100),
            OutageCause::Organic,
        );
        let (_, frac) = worst_day_blackout(&instances, &[s]);
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn empty_world() {
        let (_, frac) = worst_day_blackout(&[], &[]);
        assert_eq!(frac, 0.0);
        let r = outage_durations(&[], &[]);
        assert_eq!(r.any_outage_frac, 0.0);
    }

    #[test]
    fn boundary_lengths_bin_exactly() {
        use fediscope_model::time::EPOCHS_PER_DAY;
        let mk = |len: u32| {
            let mut s = AvailabilitySchedule::always_up();
            s.add_outage(Epoch(0), Epoch(len), OutageCause::Organic);
            s
        };
        let instances = vec![mk_inst(0, 1, 10)];
        // one epoch short of a day: not day-plus
        let r = outage_durations(&instances, &[mk(EPOCHS_PER_DAY - 1)]);
        assert_eq!(r.day_plus_frac, 0.0);
        // exactly one day: day-plus (>= threshold)
        let r = outage_durations(&instances, &[mk(EPOCHS_PER_DAY)]);
        assert_eq!(r.day_plus_frac, 1.0);
        assert_eq!(r.month_plus_frac, 0.0);
        // exactly 30 days: NOT month-plus (strictly-greater threshold)
        let r = outage_durations(&instances, &[mk(30 * EPOCHS_PER_DAY)]);
        assert_eq!(r.month_plus_frac, 0.0);
        // one epoch over 30 days: month-plus
        let r = outage_durations(&instances, &[mk(30 * EPOCHS_PER_DAY + 1)]);
        assert_eq!(r.month_plus_frac, 1.0);
        // durations stay reported in fractional days
        let r = outage_durations(&instances, &[mk(EPOCHS_PER_DAY / 2)]);
        assert_eq!(r.durations_days.max(), Some(0.5));
    }

    /// The strictly-greater comparison keeps the FIRST worst day on ties;
    /// this pin is what lets the sharded histogram fold reproduce the
    /// naive scan deterministically.
    #[test]
    fn worst_day_tie_break_is_first_day() {
        let instances = vec![mk_inst(0, 1, 100), mk_inst(1, 1, 100)];
        let mut s0 = AvailabilitySchedule::always_up();
        s0.add_outage(
            Day(9).start_epoch(),
            Day(10).start_epoch(),
            OutageCause::Organic,
        );
        let mut s1 = AvailabilitySchedule::always_up();
        s1.add_outage(
            Day(4).start_epoch(),
            Day(5).start_epoch(),
            OutageCause::Organic,
        );
        let schedules = vec![s0, s1];
        // days 4 and 9 each black out exactly half the toots
        let (day, frac) = worst_day_blackout(&instances, &schedules);
        assert_eq!(day, Day(4));
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blackout_span_handles_midday_lifetimes() {
        use fediscope_model::time::{EPOCHS_PER_DAY, WINDOW_DAYS};
        // birth mid-day 2, death mid-day 5: an outage covering the whole
        // lifetime blacks out every day the instance exists on.
        let e = EPOCHS_PER_DAY;
        let birth = 2 * e + 100;
        let death = 5 * e + 50;
        let mut b = OutageArena::builder(1, 1);
        b.push_instance(Epoch(birth), Epoch(death));
        b.push_outage(Epoch(birth), Epoch(death), OutageCause::Organic);
        let arena = b.finish();
        let mut diff = vec![0i64; WINDOW_DAYS as usize + 1];
        blackout_span_add(&mut diff, birth, death, birth, death, 7);
        let mut dark = Vec::new();
        let mut acc = 0i64;
        for d in &diff[..8] {
            acc += d;
            dark.push(acc);
        }
        assert_eq!(dark, vec![0, 0, 7, 7, 7, 7, 0, 0]);
        // and the view agrees day-by-day with the daily_downtime condition
        for d in 0..8u32 {
            let whole = arena.view(0).down_whole_day(Day(d));
            assert_eq!(dark[d as usize] == 7, whole, "day {d}");
        }
    }
}
