//! Per-day downtime by instance size (Fig. 8).
//!
//! The figure pools instance-day downtime percentages into four toot-count
//! bins (`<10K`, `10K–100K`, `100K–1M`, `>1M`) and draws box plots, next to
//! Twitter's 2007 per-day downtime. The paper's punchline: the correlation
//! between size and downtime is ≈ −0.04 — "instance popularity is not a
//! good predictor of availability".

use fediscope_model::instance::Instance;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::{Day, EPOCHS_PER_DAY, WINDOW_DAYS};
use fediscope_stats::{pearson, BoxStats};

/// The four Fig. 8 size bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeBin {
    /// Fewer than 10K toots.
    Small,
    /// 10K–100K toots.
    Medium,
    /// 100K–1M toots.
    Large,
    /// More than 1M toots.
    Huge,
}

impl SizeBin {
    /// All bins in figure order.
    pub const ALL: [SizeBin; 4] = [SizeBin::Small, SizeBin::Medium, SizeBin::Large, SizeBin::Huge];

    /// Classify a toot count.
    pub fn of(toots: u64) -> SizeBin {
        match toots {
            0..=9_999 => SizeBin::Small,
            10_000..=99_999 => SizeBin::Medium,
            100_000..=999_999 => SizeBin::Large,
            _ => SizeBin::Huge,
        }
    }

    /// Position in [`SizeBin::ALL`] (figure order) — a direct index, so
    /// hot loops need no linear scan over the bin list.
    pub fn index(self) -> usize {
        match self {
            SizeBin::Small => 0,
            SizeBin::Medium => 1,
            SizeBin::Large => 2,
            SizeBin::Huge => 3,
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            SizeBin::Small => "<10K",
            SizeBin::Medium => "10K - 100K",
            SizeBin::Large => "100K - 1M",
            SizeBin::Huge => ">1M",
        }
    }
}

/// Pooled per-day downtime samples per bin, plus overall.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyDowntime {
    /// `(bin, samples)` in figure order; samples are instance-day downtime
    /// fractions.
    pub per_bin: Vec<(SizeBin, Vec<f64>)>,
    /// All Mastodon samples pooled.
    pub overall: Vec<f64>,
}

impl DailyDowntime {
    /// Box stats per bin (None for empty bins).
    pub fn box_stats(&self) -> Vec<(SizeBin, Option<BoxStats>)> {
        self.per_bin
            .iter()
            .map(|(bin, samples)| (*bin, BoxStats::of(samples)))
            .collect()
    }

    /// Mean of the pooled samples.
    pub fn mean(&self) -> f64 {
        if self.overall.is_empty() {
            return 0.0;
        }
        self.overall.iter().sum::<f64>() / self.overall.len() as f64
    }
}

/// Walk one instance's existing days with an outage cursor, emitting the
/// per-day downtime fraction for each day the instance exists.
///
/// This is the `O(days + outages)` kernel behind [`daily_downtime`], the
/// Fig. 8 reference; `sweep::MonitorSweep` runs the run-length
/// [`daily_runs`] fold instead. Every emitted fraction is computed with the
/// exact expression `AvailabilitySchedule::daily_downtime` uses.
pub(crate) fn daily_walk(
    birth: u32,
    death: u32,
    n_outages: usize,
    bound: impl Fn(usize) -> (u32, u32),
    day_stride: u32,
    mut emit: impl FnMut(f64),
) {
    let mut cursor = 0usize; // first outage that can still affect a day
    let mut d = 0;
    while d < WINDOW_DAYS {
        let day = Day(d);
        let lo = day.start_epoch().0.max(birth);
        let hi = day.end_epoch().0.min(death);
        if lo < hi {
            // outages ending at or before this day's start are behind
            // every remaining day (days advance monotonically)
            while cursor < n_outages && bound(cursor).1 <= lo {
                cursor += 1;
            }
            let mut down = 0u32;
            let mut k = cursor;
            while k < n_outages {
                let (start, end) = bound(k);
                if start >= hi {
                    break;
                }
                down += end.min(hi) - start.max(lo);
                k += 1;
            }
            emit(down as f64 / (hi - lo) as f64);
        }
        d += day_stride;
    }
}

/// Run-length daily downtime fold: like [`daily_walk`] but day-runs with a
/// *uniform* fraction (0.0 between outages, 1.0 inside a multi-day outage)
/// come out as one `emit_run(frac, sampled_day_count)` call instead of one
/// call per day, so the cost is `O(outage-boundary days + runs)` rather
/// than `O(days)` per instance. Only days where an outage starts or ends
/// (or a lifetime boundary cuts the day) compute a division — with the
/// **identical** accumulation order and expression as the per-day walk, so
/// emitted samples are bit-identical to [`daily_walk`]'s:
///
/// - gap days have `down == 0`, and the walk's `0 / live` is exactly `0.0`;
/// - interior days of a multi-day outage have `down == live`, and
///   `live / live` is exactly `1.0`;
/// - boundary days sum the same clipped integer contributions in the same
///   outage order before the one division.
pub(crate) fn daily_runs(
    birth: u32,
    death: u32,
    n_outages: usize,
    bound: impl Fn(usize) -> (u32, u32),
    stride: u32,
    mut emit_run: impl FnMut(f64, usize),
) {
    if birth >= death {
        return;
    }
    let e = EPOCHS_PER_DAY;
    let first_day = birth / e;
    let last_day = (death - 1) / e; // inclusive
    // sampled days (d % stride == 0) in [a, b)
    let samples_in = |a: u32, b: u32| -> usize {
        if a >= b {
            0
        } else {
            (b.div_ceil(stride) - a.div_ceil(stride)) as usize
        }
    };
    let mut d = first_day;
    let mut pending = 0u32; // down epochs accumulated for day `d`
    macro_rules! flush {
        () => {
            if d % stride == 0 {
                let lo = (d * e).max(birth);
                let hi = ((d + 1) * e).min(death);
                emit_run(pending as f64 / (hi - lo) as f64, 1);
            }
        };
    }
    for k in 0..n_outages {
        let (start, end) = bound(k);
        let s_day = start / e;
        let e_day = (end - 1) / e;
        if s_day > d {
            flush!();
            pending = 0;
            emit_run(0.0, samples_in(d + 1, s_day));
            d = s_day;
        }
        if e_day == d {
            pending += end - start;
        } else {
            // head fragment closes out day d …
            pending += (d + 1) * e - start;
            flush!();
            // … interior days are fully dark …
            emit_run(1.0, samples_in(d + 1, e_day));
            // … tail fragment opens day e_day
            d = e_day;
            pending = end - e_day * e;
        }
    }
    flush!();
    if d < last_day {
        emit_run(0.0, samples_in(d + 1, last_day + 1));
    }
}

/// Collect instance-day downtime samples. `day_stride` subsamples days
/// (1 = every day; kept for compatibility — the interval walk below is
/// cheap enough that Fig. 8 no longer needs subsampling at full scale).
///
/// Per instance this walks the sorted outage list with a cursor instead of
/// re-scanning it for every day (`AvailabilitySchedule::daily_downtime`
/// starts from the first outage each call): `O(days + outages)` per
/// instance rather than `O(days · outages)`.
pub fn daily_downtime(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
    day_stride: u32,
) -> DailyDowntime {
    assert!(day_stride >= 1);
    let mut bins: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut overall = Vec::new();
    for (inst, sched) in instances.iter().zip(schedules) {
        let samples = &mut bins[SizeBin::of(inst.toot_count).index()];
        let outages = sched.outages();
        daily_walk(
            sched.birth_epoch().0,
            sched.death_epoch().0,
            outages.len(),
            |k| (outages[k].start.0, outages[k].end.0),
            day_stride,
            |frac| {
                samples.push(frac);
                overall.push(frac);
            },
        );
    }
    let mut bins = bins.into_iter();
    let per_bin = SizeBin::ALL
        .iter()
        .map(|&b| (b, bins.next().unwrap()))
        .collect();
    DailyDowntime { per_bin, overall }
}

/// The size-vs-downtime correlation across instances (paper: ≈ −0.04).
pub fn size_downtime_correlation(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
) -> Option<f64> {
    let mut toots = Vec::new();
    let mut down = Vec::new();
    for (inst, sched) in instances.iter().zip(schedules) {
        if sched.lifetime_epochs() == 0 {
            continue;
        }
        toots.push(inst.toot_count as f64);
        down.push(sched.downtime_fraction());
    }
    pearson(&toots, &down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::Epoch;

    #[test]
    fn bin_classification() {
        assert_eq!(SizeBin::of(0), SizeBin::Small);
        assert_eq!(SizeBin::of(9_999), SizeBin::Small);
        assert_eq!(SizeBin::of(10_000), SizeBin::Medium);
        assert_eq!(SizeBin::of(500_000), SizeBin::Large);
        assert_eq!(SizeBin::of(2_000_000), SizeBin::Huge);
        assert_eq!(SizeBin::ALL.len(), 4);
    }

    fn mk_inst(i: u32, toots: u64) -> Instance {
        use fediscope_model::certs::{Certificate, CertificateAuthority};
        use fediscope_model::geo::Country;
        use fediscope_model::ids::{AsId, InstanceId};
        use fediscope_model::instance::{OperatorKind, Registration, Software};
        use fediscope_model::taxonomy::{CategorySet, PolicySet};
        use fediscope_model::time::Day;
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
            user_count: 1,
            toot_count: toots,
            boosted_toots: 0,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        }
    }

    #[test]
    fn samples_land_in_right_bins() {
        let instances = vec![mk_inst(0, 100), mk_inst(1, 50_000)];
        let mut bad = AvailabilitySchedule::always_up();
        bad.add_outage(Epoch(0), Day(1).start_epoch(), OutageCause::Organic);
        let schedules = vec![bad, AvailabilitySchedule::always_up()];
        let dd = daily_downtime(&instances, &schedules, 1);
        let small = &dd.per_bin.iter().find(|(b, _)| *b == SizeBin::Small).unwrap().1;
        let medium = &dd.per_bin.iter().find(|(b, _)| *b == SizeBin::Medium).unwrap().1;
        assert_eq!(small.len(), WINDOW_DAYS as usize);
        assert_eq!(medium.len(), WINDOW_DAYS as usize);
        // the small instance was down on day 0
        assert_eq!(small[0], 1.0);
        assert_eq!(small[1], 0.0);
        assert!(medium.iter().all(|&x| x == 0.0));
        assert_eq!(dd.overall.len(), 2 * WINDOW_DAYS as usize);
    }

    #[test]
    fn stride_subsamples() {
        let instances = vec![mk_inst(0, 100)];
        let schedules = vec![AvailabilitySchedule::always_up()];
        let dd = daily_downtime(&instances, &schedules, 7);
        assert_eq!(dd.overall.len(), WINDOW_DAYS.div_ceil(7) as usize);
    }

    #[test]
    fn interval_walk_matches_per_day_queries() {
        // The cursor walk must reproduce the per-day query path exactly,
        // across partial lifetimes, sub-day and multi-day outages.
        let instances = vec![
            mk_inst(0, 100),
            mk_inst(1, 50_000),
            mk_inst(2, 500_000),
            mk_inst(3, 2_000_000),
        ];
        let mut s0 = AvailabilitySchedule::new(Day(3), Some(Day(200)));
        s0.add_outage(Epoch(Day(5).start_epoch().0 + 7), Epoch(Day(5).start_epoch().0 + 19), OutageCause::Organic);
        s0.add_outage(Day(40).start_epoch(), Day(43).start_epoch(), OutageCause::AsFailure);
        let mut s1 = AvailabilitySchedule::always_up();
        for k in 0..30u32 {
            let start = k * 4000 + 13;
            s1.add_outage(Epoch(start), Epoch(start + 301), OutageCause::Organic);
        }
        let mut s2 = AvailabilitySchedule::new(Day(100), None);
        s2.add_outage(Epoch(0), Epoch(u32::MAX / 2), OutageCause::CertExpiry);
        let s3 = AvailabilitySchedule::always_up();
        let schedules = vec![s0, s1, s2, s3];

        for stride in [1u32, 7, 30] {
            let dd = daily_downtime(&instances, &schedules, stride);
            // reference: the old per-day formulation
            let mut expect_overall = Vec::new();
            let mut expect_bins: Vec<Vec<f64>> = vec![Vec::new(); 4];
            for (inst, sched) in instances.iter().zip(&schedules) {
                let bin = SizeBin::of(inst.toot_count).index();
                let mut d = 0;
                while d < WINDOW_DAYS {
                    if let Some(frac) = sched.daily_downtime(Day(d)) {
                        expect_bins[bin].push(frac);
                        expect_overall.push(frac);
                    }
                    d += stride;
                }
            }
            assert_eq!(dd.overall, expect_overall, "stride {stride}");
            for (i, (bin, samples)) in dd.per_bin.iter().enumerate() {
                assert_eq!(*bin, SizeBin::ALL[i]);
                assert_eq!(samples, &expect_bins[i], "stride {stride} bin {i}");
            }
        }
    }

    #[test]
    fn bin_index_matches_all_order() {
        for (i, b) in SizeBin::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn correlation_none_for_uniform() {
        // identical downtime everywhere -> zero variance -> None
        let instances = vec![mk_inst(0, 10), mk_inst(1, 1000)];
        let schedules = vec![
            AvailabilitySchedule::always_up(),
            AvailabilitySchedule::always_up(),
        ];
        assert_eq!(size_downtime_correlation(&instances, &schedules), None);
    }

    #[test]
    fn correlation_detects_relationship() {
        let instances = vec![mk_inst(0, 10), mk_inst(1, 100_000)];
        let mut bad = AvailabilitySchedule::always_up();
        bad.add_outage(Epoch(0), Day(100).start_epoch(), OutageCause::Organic);
        // big instance down a lot -> positive correlation
        let schedules = vec![AvailabilitySchedule::always_up(), bad];
        let c = size_downtime_correlation(&instances, &schedules).unwrap();
        assert!(c > 0.9);
    }
}
