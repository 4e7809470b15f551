//! Per-day downtime by instance size (Fig. 8).
//!
//! The figure pools instance-day downtime percentages into four toot-count
//! bins (`<10K`, `10K–100K`, `100K–1M`, `>1M`) and draws box plots, next to
//! Twitter's 2007 per-day downtime. The paper's punchline: the correlation
//! between size and downtime is ≈ −0.04 — "instance popularity is not a
//! good predictor of availability".
//!
//! The monitor polls every 5 minutes, so a whole day is k/288 dark. The
//! report reads Fig. 8 as exact counts per distinct value
//! ([`DailyCounts`]); the naive reference keeps one sample per
//! instance-day ([`DailyDowntime`]).

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

/// The downtime fraction of a day with `down` of its `live` epochs dark:
/// the one expression every Fig. 8 value comes from.
fn fraction(down: u32, live: u32) -> f64 {
    down as f64 / live as f64
}

/// Fig. 8 in sample form: one instance-day downtime fraction per
/// instance-day, in instance-then-day order. [`daily_downtime`] (the
/// naive reference) and `MonitorSweep::run` produce it; the report reads
/// the counted form, [`DailyCounts`].
#[derive(Debug, Clone, PartialEq)]
pub struct DailyDowntime {
    /// `(bin, samples)` in figure order; samples are instance-day downtime
    /// fractions.
    pub per_bin: Vec<(SizeBin, Vec<f64>)>,
    /// All Mastodon samples pooled.
    pub overall: Vec<f64>,
}

/// Fig. 8 as exact counts: what `MonitorSweep::run_counted` folds, and
/// what the report's box plots and pooled mean read. Whole days can only
/// be k/288 dark, so a bin holds a few hundred distinct values where the
/// sample form holds one `f64` per instance-day.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyCounts {
    /// `(bin, counts)` in figure order; `counts` holds each distinct
    /// instance-day downtime fraction once, ascending by
    /// [`f64::total_cmp`], with the number of instance-days at it.
    pub per_bin: Vec<(SizeBin, Vec<(f64, u64)>)>,
}

impl DailyCounts {
    /// Box stats per bin (None for empty bins): [`BoxStats::of`] over the
    /// bin's instance-day samples.
    pub fn box_stats(&self) -> Vec<(SizeBin, Option<BoxStats>)> {
        self.per_bin
            .iter()
            .map(|(bin, counts)| (*bin, BoxStats::of_counts(counts)))
            .collect()
    }

    /// Mean instance-day downtime, pooled over every bin (0 when there
    /// are no instance-days): one `value × count` term per distinct value
    /// of each bin, summed in figure order, then ascending value order.
    pub fn mean(&self) -> f64 {
        let pairs = || self.per_bin.iter().flat_map(|(_, counts)| counts);
        let days: u64 = pairs().map(|&(_, n)| n).sum();
        if days == 0 {
            return 0.0;
        }
        pairs().map(|&(x, n)| x * n as f64).sum::<f64>() / days as f64
    }
}

impl From<&DailyDowntime> for DailyCounts {
    /// Count the samples: the counted form of the same instance-days.
    fn from(d: &DailyDowntime) -> Self {
        let per_bin = d
            .per_bin
            .iter()
            .map(|(bin, samples)| (*bin, merge_sorted(samples.iter().map(|&x| (x, 1)))))
            .collect();
        DailyCounts { per_bin }
    }
}

/// Sort `(value, count)` pairs by [`f64::total_cmp`] and merge equal
/// values. Merging matters: `0/100` and `0/288` are both `0.0`.
fn merge_sorted(pairs: impl Iterator<Item = (f64, u64)>) -> Vec<(f64, u64)> {
    let mut pairs: Vec<(f64, u64)> = pairs.collect();
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    pairs.dedup_by(|next, kept| {
        let equal = next.0.total_cmp(&kept.0).is_eq();
        if equal {
            kept.1 += next.1;
        }
        equal
    });
    pairs
}

/// Where the §4 sweep's Fig. 8 fold puts its instance-days: the sample
/// vectors of [`DailyDowntime`] or the counts of [`DailyCounts`]. Each
/// shard fills its own sink; the shards' sinks are absorbed in shard
/// (= instance) order and finished once.
pub(crate) trait DailySink: Send + Sized {
    /// What the merged sink finishes into.
    type Output;
    /// An empty sink.
    fn new() -> Self;
    /// Make room for `days[b]` more instance-days in bin `b`.
    fn reserve(&mut self, days: [usize; 4]);
    /// Add `days` instance-days of bin `bin`, each `down` of `live`
    /// epochs dark.
    fn add(&mut self, bin: usize, down: u32, live: u32, days: usize);
    /// Append the sink of the next shard.
    fn absorb(&mut self, next: Self);
    /// The finished figure input.
    fn finish(self) -> Self::Output;
}

/// The sample sink: one `f64` per instance-day, as the naive reference
/// stores them.
impl DailySink for DailyDowntime {
    type Output = Self;

    fn new() -> Self {
        DailyDowntime {
            per_bin: SizeBin::ALL.iter().map(|&b| (b, Vec::new())).collect(),
            overall: Vec::new(),
        }
    }

    fn reserve(&mut self, days: [usize; 4]) {
        self.overall.reserve(days.iter().sum());
        for ((_, samples), n) in self.per_bin.iter_mut().zip(days) {
            samples.reserve(n);
        }
    }

    fn add(&mut self, bin: usize, down: u32, live: u32, days: usize) {
        let frac = fraction(down, live);
        let samples = &mut self.per_bin[bin].1;
        if days == 1 {
            samples.push(frac);
            self.overall.push(frac);
        } else {
            samples.resize(samples.len() + days, frac);
            self.overall.resize(self.overall.len() + days, frac);
        }
    }

    fn absorb(&mut self, next: Self) {
        for ((_, dst), (_, src)) in self.per_bin.iter_mut().zip(next.per_bin) {
            dst.extend(src);
        }
        self.overall.extend(next.overall);
    }

    fn finish(self) -> Self {
        self
    }
}

/// The counted sink: per bin, whole days counted by dark epochs (k/288,
/// 289 slots), and the partial birth and death days (at most two per
/// instance) as `(down, live, days)`. Shards merge by integer addition.
pub(crate) struct DailyTally {
    whole: [[u64; EPOCHS_PER_DAY as usize + 1]; 4],
    partial: [Vec<(u32, u32, u64)>; 4],
}

impl DailySink for DailyTally {
    type Output = DailyCounts;

    fn new() -> Self {
        DailyTally {
            whole: [[0; EPOCHS_PER_DAY as usize + 1]; 4],
            partial: Default::default(),
        }
    }

    fn reserve(&mut self, _days: [usize; 4]) {}

    fn add(&mut self, bin: usize, down: u32, live: u32, days: usize) {
        if live == EPOCHS_PER_DAY {
            self.whole[bin][down as usize] += days as u64;
        } else {
            self.partial[bin].push((down, live, days as u64));
        }
    }

    fn absorb(&mut self, next: Self) {
        for (dst, src) in self.whole.iter_mut().zip(&next.whole) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        for (dst, src) in self.partial.iter_mut().zip(next.partial) {
            dst.extend(src);
        }
    }

    fn finish(self) -> DailyCounts {
        let per_bin = SizeBin::ALL
            .iter()
            .zip(self.whole.iter().zip(&self.partial))
            .map(|(&bin, (whole, partial))| {
                let whole = (0u32..)
                    .zip(whole)
                    .filter(|&(_, &n)| n > 0)
                    .map(|(down, &n)| (fraction(down, EPOCHS_PER_DAY), n));
                let partial = partial
                    .iter()
                    .map(|&(down, live, n)| (fraction(down, live), n));
                (bin, merge_sorted(whole.chain(partial)))
            })
            .collect();
        DailyCounts { per_bin }
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
    mut emit: impl FnMut(f64),
) {
    let mut cursor = 0usize; // first outage that can still affect a day
    for d in 0..WINDOW_DAYS {
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
            emit(fraction(down, hi - lo));
        }
    }
}

/// Run-length daily downtime fold: like [`daily_walk`] but in integers,
/// and day-runs with a *uniform* fraction come out as one
/// `emit_run(down, live, days)` call instead of one call per day, so the
/// cost is `O(outage-boundary days + runs)` rather than `O(days)` per
/// instance:
///
/// - a run of clean days is `(0, 288, n)` (`0 / live` is `0.0` for any
///   `live`, so a partial death day may ride in it);
/// - a run of whole dark days inside a multi-day outage is `(288, 288, n)`;
/// - a boundary day (an outage starts or ends in it, or a lifetime
///   boundary cuts it) is `(down, live, 1)`, summing the same clipped
///   integer contributions in the same outage order as the per-day walk.
///
/// So `fraction(down, live)` of every run is bit-identical to
/// [`daily_walk`]'s samples for those days.
pub(crate) fn daily_runs(
    birth: u32,
    death: u32,
    n_outages: usize,
    bound: impl Fn(usize) -> (u32, u32),
    mut emit_run: impl FnMut(u32, u32, usize),
) {
    if birth >= death {
        return;
    }
    let e = EPOCHS_PER_DAY;
    let first_day = birth / e;
    let last_day = (death - 1) / e; // inclusive

    // days in [a, b); a run never starts past its end
    let days_in = |a: u32, b: u32| (b - a) as usize;
    let mut d = first_day;
    let mut pending = 0u32; // down epochs accumulated for day `d`
    macro_rules! flush {
        () => {
            let lo = (d * e).max(birth);
            let hi = ((d + 1) * e).min(death);
            emit_run(pending, hi - lo, 1);
        };
    }
    for k in 0..n_outages {
        let (start, end) = bound(k);
        let s_day = start / e;
        let e_day = (end - 1) / e;
        if s_day > d {
            flush!();
            pending = 0;
            emit_run(0, e, days_in(d + 1, s_day));
            d = s_day;
        }
        if e_day == d {
            pending += end - start;
        } else {
            // head fragment closes out day d …
            pending += (d + 1) * e - start;
            flush!();
            // … interior days are fully dark …
            emit_run(e, e, days_in(d + 1, e_day));
            // … tail fragment opens day e_day
            d = e_day;
            pending = end - e_day * e;
        }
    }
    flush!();
    if d < last_day {
        emit_run(0, e, days_in(d + 1, last_day + 1));
    }
}

/// Collect instance-day downtime samples: the naive Fig. 8 reference.
///
/// Per instance this walks the sorted outage list with a cursor instead of
/// re-scanning it for every day (`AvailabilitySchedule::daily_downtime`
/// starts from the first outage each call): `O(days + outages)` per
/// instance rather than `O(days · outages)`.
pub fn daily_downtime(instances: &[Instance], schedules: &[AvailabilitySchedule]) -> DailyDowntime {
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
        let dd = daily_downtime(&instances, &schedules);
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
    fn tally_merges_equal_fractions_across_denominators() {
        // (bin, down, live, days): 0/100 and 0/288 are both 0.0, 50/100
        // and 144/288 both 0.5
        let runs = [
            (0, 0, 288, 3),
            (0, 0, 100, 1),
            (0, 50, 100, 1),
            (0, 144, 288, 2),
            (0, 288, 288, 4),
            (2, 7, 288, 1),
        ];
        let mut tally = DailyTally::new();
        let mut samples = DailyDowntime::new();
        for (bin, down, live, days) in runs {
            tally.add(bin, down, live, days);
            samples.add(bin, down, live, days);
        }
        let counts = tally.finish();
        let small = vec![(0.0, 4), (0.5, 3), (1.0, 4)];
        assert_eq!(counts.per_bin[0], (SizeBin::Small, small));
        assert!(counts.per_bin[1].1.is_empty());
        assert_eq!(counts.per_bin[2].1, vec![(7.0 / 288.0, 1)]);
        assert_eq!(counts, DailyCounts::from(&samples.finish()));
        let mean = (1.5 + 4.0 + 7.0 / 288.0) / 12.0;
        assert!((counts.mean() - mean).abs() < 1e-15);
        assert_eq!(counts.box_stats()[1], (SizeBin::Medium, None));
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

        let dd = daily_downtime(&instances, &schedules);
        // reference: the old per-day formulation
        let mut expect_overall = Vec::new();
        let mut expect_bins: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for (inst, sched) in instances.iter().zip(&schedules) {
            let bin = SizeBin::of(inst.toot_count).index();
            for d in 0..WINDOW_DAYS {
                if let Some(frac) = sched.daily_downtime(Day(d)) {
                    expect_bins[bin].push(frac);
                    expect_overall.push(frac);
                }
            }
        }
        assert_eq!(dd.overall, expect_overall);
        for (i, (bin, samples)) in dd.per_bin.iter().enumerate() {
            assert_eq!(*bin, SizeBin::ALL[i]);
            assert_eq!(samples, &expect_bins[i], "bin {i}");
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
