//! The columnar §4 telemetry engine: **one sharded pass** over an
//! [`OutageArena`] folds every availability figure at once.
//!
//! The seed pipeline walked the schedule list five times — Fig. 7
//! (lifetime downtime + exposure), Fig. 8 (daily downtime), Fig. 10
//! (outage durations), the worst-day blackout (a per-day × per-instance
//! rescan), and Table 1 (AS co-failures). [`MonitorSweep::run`] replaces
//! all of that with:
//!
//! 1. an **instance-sharded fold**: the instance range splits into
//!    contiguous shards fanned out via `par::parallel_map`; each shard
//!    streams its slice of the arena's flat interval columns once,
//!    producing per-instance vectors (concatenated back in shard =
//!    instance order) and integer (`u64`/`i64` epoch-and-toot)
//!    accumulators (merged by exact addition) — so the merged output is
//!    **bit-identical to the naive reference at any shard count**.
//!    Fig. 8 goes to a sink chosen by the caller:
//!    [`MonitorSweep::run_counted`], the report's path, counts
//!    instance-days per size bin by downtime fraction (a whole day is
//!    k/288 dark, so a bin holds a few hundred distinct values), and
//!    [`MonitorSweep::run`] keeps one `f64` sample per instance-day, as
//!    the naive reference does;
//! 2. a **group-sharded fold** for Table 1: AS groups fan out across
//!    threads, each running the same boundary-event sweep as the naive
//!    detector.
//!
//! The worst-day blackout drops from `O(days · instances · outages)` to
//! `O(outages + days)`: each outage range-adds its whole-day span into a
//! per-day toot histogram (a difference array), and one scan replays the
//! naive comparison — including its pinned first-worst-day tie-break.
//!
//! [`naive_section4`] keeps the per-schedule composition as the reference
//! the differential tests and `bench monitor` compare against.

use crate::asn::{as_failure_table, as_failure_table_arena, AsFailureRow};
use crate::daily::{
    daily_downtime, daily_runs, size_downtime_correlation, DailyCounts, DailyDowntime, DailySink,
    DailyTally, SizeBin,
};
use crate::downtime::{downtime_report, failure_exposure, DowntimeReport, FailureExposure};
use crate::outages::{
    blackout_span_add, outage_durations, worst_day_blackout, worst_day_from_histogram, DurationAcc,
    OutageDurations,
};
use fediscope_graph::par;
use fediscope_model::geo::ProviderCatalog;
use fediscope_model::instance::Instance;
use fediscope_model::schedule::{AvailabilitySchedule, OutageArena};
use fediscope_model::time::{Day, EPOCHS_PER_DAY, WINDOW_DAYS};
use fediscope_stats::{pearson, Ecdf};

/// Knobs shared by the sweep and the naive reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Table 1 membership threshold (paper: ASes hosting ≥ 8 instances).
    pub min_as_instances: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::for_tier(fediscope_model::scale::ScaleTier::Paper2019)
    }
}

impl SweepConfig {
    /// The tier's §4 knobs — [`fediscope_model::scale::ScaleTier`] is the
    /// single source for the Table 1 threshold (identical across tiers
    /// today, but a future tier change lands in one place).
    pub fn for_tier(tier: fediscope_model::scale::ScaleTier) -> Self {
        Self {
            min_as_instances: tier.table1_min_instances(),
        }
    }
}

/// Everything §4 needs (Figs. 7, 8, 10 + the blackout day + Table 1), in
/// one comparable bundle. `D` is Fig. 8's form: the per-instance-day
/// samples ([`DailyDowntime`], from [`MonitorSweep::run`] and
/// [`naive_section4`]) or their exact counts ([`DailyCounts`], from
/// [`MonitorSweep::run_counted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutput<D = DailyDowntime> {
    /// Fig. 7 blue line: per-instance lifetime downtime + its ECDF.
    pub downtime: DowntimeReport,
    /// Fig. 7 red lines: user/toot/boost exposure of failing instances.
    pub exposure: FailureExposure,
    /// Fig. 8: instance-day downtime per size bin.
    pub daily: D,
    /// Fig. 8 inset: toot-count vs downtime correlation.
    pub size_correlation: Option<f64>,
    /// Fig. 10: continuous-outage durations and exposure.
    pub outages: OutageDurations,
    /// Worst whole-day blackout `(day, fraction of global toots)`.
    pub worst_day: (Day, f64),
    /// Table 1 rows.
    pub as_table: Vec<AsFailureRow>,
}

impl SweepOutput {
    /// The same output with Fig. 8 counted: what
    /// [`MonitorSweep::run_counted`] returns for the input `run` saw.
    pub fn into_counted(self) -> SweepOutput<DailyCounts> {
        SweepOutput {
            downtime: self.downtime,
            exposure: self.exposure,
            daily: DailyCounts::from(&self.daily),
            size_correlation: self.size_correlation,
            outages: self.outages,
            worst_day: self.worst_day,
            as_table: self.as_table,
        }
    }
}

/// The columnar §4 engine. Borrow an arena and the instance table, pick a
/// shard budget, [`run_counted`](Self::run_counted) (or
/// [`run`](Self::run) for Fig. 8's samples).
pub struct MonitorSweep<'a> {
    arena: &'a OutageArena,
    instances: &'a [Instance],
    shards: Option<usize>,
}

/// Per-shard accumulator. Per-instance vectors are instance-ordered
/// within the shard; integer counters merge exactly; `daily` is Fig. 8's
/// sink.
struct ShardAcc<S> {
    fraction: Vec<Option<f64>>,
    exp_users: Vec<f64>,
    exp_toots: Vec<f64>,
    exp_boosts: Vec<f64>,
    daily: S,
    corr_toots: Vec<f64>,
    corr_down: Vec<f64>,
    durations: DurationAcc,
    black_diff: Vec<i64>,
}

impl<S: DailySink> ShardAcc<S> {
    fn new() -> Self {
        Self {
            fraction: Vec::new(),
            exp_users: Vec::new(),
            exp_toots: Vec::new(),
            exp_boosts: Vec::new(),
            daily: S::new(),
            corr_toots: Vec::new(),
            corr_down: Vec::new(),
            durations: DurationAcc::default(),
            black_diff: vec![0i64; WINDOW_DAYS as usize + 1],
        }
    }
}

impl<'a> MonitorSweep<'a> {
    /// New sweep over `arena` (one entry per instance, aligned with
    /// `instances`).
    pub fn new(arena: &'a OutageArena, instances: &'a [Instance]) -> Self {
        assert_eq!(
            arena.len(),
            instances.len(),
            "arena/instances length mismatch"
        );
        Self {
            arena,
            instances,
            shards: None,
        }
    }

    /// Pin the shard count (default: `par::thread_budget()`). Output is
    /// bit-identical at any value; this only affects scheduling.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        self.shards = Some(shards);
        self
    }

    /// Fold the whole §4 workload out of one pass over the arena, with
    /// Fig. 8 as one sample per instance-day, in the naive reference's
    /// order.
    pub fn run(&self, providers: &ProviderCatalog, cfg: &SweepConfig) -> SweepOutput {
        self.sweep::<DailyDowntime>(providers, cfg)
    }

    /// [`run`](Self::run) with Fig. 8 folded into exact per-bin counts
    /// instead of samples: the report's path. Shards merge the counts by
    /// integer addition, so the output is the same at any shard count and
    /// equals `run(..).into_counted()`.
    pub fn run_counted(
        &self,
        providers: &ProviderCatalog,
        cfg: &SweepConfig,
    ) -> SweepOutput<DailyCounts> {
        self.sweep::<DailyTally>(providers, cfg)
    }

    fn sweep<S: DailySink>(
        &self,
        providers: &ProviderCatalog,
        cfg: &SweepConfig,
    ) -> SweepOutput<S::Output> {
        let n = self.instances.len();
        let shards = self.shards.unwrap_or_else(par::thread_budget).max(1);
        let chunk = n.div_ceil(shards.min(n.max(1)).max(1)).max(1);
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();

        let accs = par::parallel_map(&ranges, |&(lo, hi)| self.fold_range::<S>(lo, hi));
        let as_table =
            as_failure_table_arena(self.instances, self.arena, providers, cfg.min_as_instances);
        self.merge(accs, as_table)
    }

    /// Stream one contiguous instance range through every per-instance
    /// figure fold.
    fn fold_range<S: DailySink>(&self, lo: usize, hi: usize) -> ShardAcc<S> {
        let mut acc = ShardAcc::<S>::new();
        // Exact reservations from the arena's geometry: instance-days per
        // bin (one per live day) and one duration per interval.
        acc.fraction.reserve(hi - lo);
        let mut n_outages = 0usize;
        let mut bin_days = [0usize; 4];
        for i in lo..hi {
            let v = self.arena.view(i);
            n_outages += v.outage_count();
            if v.birth.0 < v.death.0 {
                let first = v.birth.0 / EPOCHS_PER_DAY;
                let last = (v.death.0 - 1) / EPOCHS_PER_DAY + 1;
                bin_days[SizeBin::of(self.instances[i].toot_count).index()] +=
                    (last - first) as usize;
            }
        }
        acc.durations.durations.reserve(n_outages);
        acc.daily.reserve(bin_days);

        for i in lo..hi {
            let v = self.arena.view(i);
            let inst = &self.instances[i];
            let life = v.lifetime_epochs();
            // One interval-column scan serves Fig. 7's fraction and the
            // correlation input (the expression is pure, so reusing the
            // value is bit-identical to naive's two evaluations).
            let downtime_fraction = v.downtime_fraction();

            // Fig. 7: lifetime downtime fraction (same ≥1-day guard as
            // `downtime_report`) and failure exposure.
            acc.fraction
                .push((life >= EPOCHS_PER_DAY).then_some(downtime_fraction));
            if v.outage_count() > 0 {
                acc.exp_users.push(inst.user_count as f64);
                acc.exp_toots.push(inst.toot_count as f64);
                acc.exp_boosts.push(inst.boosted_toots as f64);
            }

            // Fig. 8: instance-days via the run-length interval fold
            // (never per-day interval queries).
            let bin = SizeBin::of(inst.toot_count).index();
            let daily = &mut acc.daily;
            daily_runs(
                v.birth.0,
                v.death.0,
                v.outage_count(),
                |k| (v.starts[k].0, v.ends[k].0),
                |down, live, days| daily.add(bin, down, live, days),
            );

            // Fig. 8 inset: correlation inputs (same guard as
            // `size_downtime_correlation`).
            if life != 0 {
                acc.corr_toots.push(inst.toot_count as f64);
                acc.corr_down.push(downtime_fraction);
            }

            // Fig. 10: durations + integer day/month classification.
            acc.durations.fold_instance(
                inst,
                life,
                v.starts.iter().zip(v.ends.iter()).map(|(s, e)| e.0 - s.0),
            );

            // Blackout: per-outage whole-day span range-adds.
            for (s, e) in v.starts.iter().zip(v.ends.iter()) {
                blackout_span_add(
                    &mut acc.black_diff,
                    v.birth.0,
                    v.death.0,
                    s.0,
                    e.0,
                    inst.toot_count,
                );
            }
        }
        acc
    }

    /// Merge shard accumulators in shard order (= instance order) and
    /// finalise every figure. The first shard's vectors are *moved* (at
    /// one shard no sample byte is copied); later shards append in order.
    fn merge<S: DailySink>(
        &self,
        accs: Vec<ShardAcc<S>>,
        as_table: Vec<AsFailureRow>,
    ) -> SweepOutput<S::Output> {
        let mut accs = accs.into_iter();
        let first = accs.next().unwrap_or_else(ShardAcc::new);
        let ShardAcc {
            mut fraction,
            mut exp_users,
            mut exp_toots,
            mut exp_boosts,
            mut daily,
            mut corr_toots,
            mut corr_down,
            mut durations,
            mut black_diff,
        } = first;
        for acc in accs {
            fraction.extend(acc.fraction);
            exp_users.extend(acc.exp_users);
            exp_toots.extend(acc.exp_toots);
            exp_boosts.extend(acc.exp_boosts);
            daily.absorb(acc.daily);
            corr_toots.extend(acc.corr_toots);
            corr_down.extend(acc.corr_down);
            durations.absorb(acc.durations);
            for (dst, src) in black_diff.iter_mut().zip(acc.black_diff) {
                *dst += src;
            }
        }

        let cdf = Ecdf::new(fraction.iter().flatten().copied().collect());
        let downtime = DowntimeReport { fraction, cdf };
        let exposure = FailureExposure {
            failing_instances: exp_users.len(),
            users: Ecdf::new(exp_users),
            toots: Ecdf::new(exp_toots),
            boosts: Ecdf::new(exp_boosts),
        };
        let size_correlation = pearson(&corr_toots, &corr_down);

        let total_toots: u64 = self.instances.iter().map(|i| i.toot_count).sum();
        let mut dark = 0i64;
        for d in black_diff.iter_mut() {
            dark += *d;
            *d = dark;
        }
        let worst_day = worst_day_from_histogram(&black_diff, total_toots);

        SweepOutput {
            downtime,
            exposure,
            daily: daily.finish(),
            size_correlation,
            outages: durations.finish(),
            worst_day,
            as_table,
        }
    }
}

/// The kept naive §4 reference: the per-schedule module functions composed
/// exactly as the pre-arena pipeline ran them, bundled into the same
/// [`SweepOutput`] so differential tests can compare it with
/// [`MonitorSweep::run`] by one `==`, and `bench monitor` with
/// [`MonitorSweep::run_counted`] after [`SweepOutput::into_counted`].
pub fn naive_section4(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
    providers: &ProviderCatalog,
    cfg: &SweepConfig,
) -> SweepOutput {
    SweepOutput {
        downtime: downtime_report(schedules),
        exposure: failure_exposure(instances, schedules),
        daily: daily_downtime(instances, schedules),
        size_correlation: size_downtime_correlation(instances, schedules),
        outages: outage_durations(instances, schedules),
        worst_day: worst_day_blackout(instances, schedules),
        as_table: as_failure_table(instances, schedules, providers, cfg.min_as_instances),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::{Epoch, WINDOW_EPOCHS};
    use fediscope_worldgen::{Generator, WorldConfig};

    /// The sweep at 1, 2, 3 and 8 shards must equal [`naive_section4`],
    /// and its counted run must equal the sample run with Fig. 8 counted.
    fn assert_matches_naive(
        instances: &[Instance],
        schedules: &[AvailabilitySchedule],
        providers: &ProviderCatalog,
        cfg: &SweepConfig,
    ) {
        let naive = naive_section4(instances, schedules, providers, cfg);
        let arena = OutageArena::from_schedules(schedules);
        for shards in [1usize, 2, 3, 8] {
            let sweep = MonitorSweep::new(&arena, instances).with_shards(shards);
            let got = sweep.run(providers, cfg);
            assert!(got == naive, "diverged at {shards} shards, {cfg:?}");
            let counted = sweep.run_counted(providers, cfg);
            assert!(
                counted == got.into_counted(),
                "counted run diverged at {shards} shards, {cfg:?}"
            );
        }
    }

    fn mk_inst(i: u32, toots: u64) -> Instance {
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
            user_count: 1,
            toot_count: toots,
            boosted_toots: 0,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        }
    }

    /// An outage `[start, end)` given as (day, epoch offset into the day).
    fn outage(s: &mut AvailabilitySchedule, start: (u32, u32), end: (u32, u32)) {
        let at = |(day, off): (u32, u32)| Epoch(Day(day).start_epoch().0 + off);
        s.add_outage(at(start), at(end), OutageCause::Organic);
    }

    #[test]
    fn sweep_matches_naive_on_generated_world() {
        let sweep_cfg = SweepConfig {
            min_as_instances: 3,
        };
        for (seed, n_instances, n_users) in [(31, 300, 2_000), (53, 250, 1_500), (59, 250, 1_500)] {
            let mut cfg = WorldConfig::tiny(seed);
            cfg.n_instances = n_instances;
            cfg.n_users = n_users;
            let w = Generator::generate_world(cfg);
            assert_matches_naive(&w.instances, &w.schedules, &w.providers, &sweep_cfg);
        }
    }

    /// Two hand-built worlds. The first has one instance per size bin:
    /// mixed lifetimes, sub-day blips, multi-day and month-long outages,
    /// outage chains sharing a boundary day. The second has overlapping
    /// whole-day blackouts, outages clipped at birth and retirement, and a
    /// toot-less instance.
    #[test]
    fn sweep_matches_naive_on_mixed_lifetimes() {
        let instances = [
            mk_inst(0, 100),
            mk_inst(1, 50_000),
            mk_inst(2, 500_000),
            mk_inst(3, 2_000_000),
        ];
        let mut s0 = AvailabilitySchedule::new(Day(3), Some(Day(200)));
        outage(&mut s0, (5, 7), (5, 19));
        s0.add_outage(
            Day(40).start_epoch(),
            Day(43).start_epoch(),
            OutageCause::AsFailure,
        );
        outage(&mut s0, (43, 10), (43, 20));
        let mut s1 = AvailabilitySchedule::always_up();
        for k in 0..40u32 {
            let start = k * 3000 + 13;
            s1.add_outage(Epoch(start), Epoch(start + 290), OutageCause::Organic);
        }
        let mut s2 = AvailabilitySchedule::new(Day(100), None);
        s2.add_outage(Epoch(0), Epoch(u32::MAX / 2), OutageCause::CertExpiry);
        let mut s3 = AvailabilitySchedule::always_up();
        outage(&mut s3, (9, 100), (47, 3));
        let daily = [s0, s1, s2, s3];

        let mut s0 = AvailabilitySchedule::always_up();
        outage(&mut s0, (7, 0), (9, 0));
        outage(&mut s0, (20, 5), (22, 100));
        let mut s1 = AvailabilitySchedule::new(Day(3), Some(Day(100)));
        s1.add_outage(Epoch(0), Day(5).start_epoch(), OutageCause::Organic);
        s1.add_outage(
            Day(98).start_epoch(),
            Epoch(u32::MAX / 2),
            OutageCause::Organic,
        );
        let mut s2 = AvailabilitySchedule::new(Day(50), None);
        outage(&mut s2, (60, 0), (95, 0));
        let mut s3 = AvailabilitySchedule::always_up();
        outage(&mut s3, (7, 0), (8, 0));
        let blackout = [s0, s1, s2, s3];
        let blackout_instances = [
            mk_inst(0, 600),
            mk_inst(1, 400),
            mk_inst(2, 50),
            mk_inst(3, 0),
        ];

        let providers = ProviderCatalog::with_tail(3);
        let cfg = SweepConfig {
            min_as_instances: 2,
        };
        assert_matches_naive(&instances, &daily, &providers, &cfg);
        assert_matches_naive(&blackout_instances, &blackout, &providers, &cfg);
    }

    /// Lifetimes that start or end mid-day exist only in arenas (a
    /// schedule lives whole days), so the naive reference never sees a
    /// partial day. Here the sample sweep's Fig. 8 must equal the arena's
    /// own per-day queries, and the counted sweep must count exactly those
    /// samples, at every shard count.
    #[test]
    fn counted_sweep_counts_partial_days() {
        let at = |day: u32, off: u32| Epoch(Day(day).start_epoch().0 + off);
        let mut b = OutageArena::builder(4, 5);
        // born late on day 2, retired early on day 9: 100 live epochs on
        // each partial day, half of them dark, and a multi-day outage
        b.push_instance(at(2, 188), at(9, 100));
        b.push_outage(at(2, 200), at(2, 250), OutageCause::Organic);
        b.push_outage(at(4, 10), at(6, 0), OutageCause::Organic);
        b.push_outage(at(9, 40), at(9, 90), OutageCause::Organic);
        // born and retired inside one day
        b.push_instance(at(5, 10), at(5, 110));
        b.push_outage(at(5, 20), at(5, 30), OutageCause::Organic);
        // clean partial birth day (0/100), then whole clean days (0/288)
        b.push_instance(at(0, 188), Epoch(WINDOW_EPOCHS));
        // whole-day outage, retired 7 epochs into day 300
        b.push_instance(Day(0).start_epoch(), at(300, 7));
        b.push_outage(at(100, 0), at(101, 0), OutageCause::Organic);
        let arena = b.finish();
        let instances = [
            mk_inst(0, 100),
            mk_inst(1, 100),
            mk_inst(2, 50_000),
            mk_inst(3, 500_000),
        ];

        let mut expect = vec![Vec::new(); 4];
        for (i, inst) in instances.iter().enumerate() {
            let v = arena.view(i);
            let bin = &mut expect[SizeBin::of(inst.toot_count).index()];
            bin.extend((0..WINDOW_DAYS).filter_map(|d| v.daily_downtime(Day(d))));
        }
        let providers = ProviderCatalog::with_tail(3);
        let cfg = SweepConfig {
            min_as_instances: 2,
        };
        for shards in [1usize, 2, 3] {
            let sweep = MonitorSweep::new(&arena, &instances).with_shards(shards);
            let run = sweep.run(&providers, &cfg);
            for ((_, got), want) in run.daily.per_bin.iter().zip(&expect) {
                assert_eq!(got, want, "{shards} shards");
            }
            let counted = sweep.run_counted(&providers, &cfg);
            assert!(counted == run.into_counted(), "{shards} shards");
        }
        // 0/100 and 0/288 are one value: the medium bin's live days all
        // count as 0.0, partial birth day included
        let medium = &MonitorSweep::new(&arena, &instances)
            .run_counted(&providers, &cfg)
            .daily
            .per_bin[1]
            .1;
        assert_eq!(medium, &vec![(0.0, u64::from(WINDOW_DAYS))]);
    }

    #[test]
    fn empty_world_sweep() {
        let providers = ProviderCatalog::with_tail(5);
        assert_matches_naive(&[], &[], &providers, &SweepConfig::default());
        let arena = OutageArena::from_schedules(&[]);
        let out = MonitorSweep::new(&arena, &[]).run(&providers, &SweepConfig::default());
        assert!(out.downtime.cdf.is_empty());
        assert_eq!(out.worst_day, (Day(0), 0.0));
        assert!(out.as_table.is_empty());
        assert_eq!(out.outages.any_outage_frac, 0.0);
    }

    #[test]
    fn sweep_reproduces_blackout_tie_break() {
        // Two equal-toot instances blacked out on different days, the later
        // day first: the sharded histogram fold must return the FIRST worst
        // day, like the naive strictly-greater scan.
        let providers = ProviderCatalog::with_tail(3);
        for (late, early, toots) in [(200u32, 30u32, 500u64), (9, 4, 100)] {
            let instances = [mk_inst(0, toots), mk_inst(1, toots)];
            let mut s0 = AvailabilitySchedule::always_up();
            outage(&mut s0, (late, 0), (late + 1, 0));
            let mut s1 = AvailabilitySchedule::always_up();
            outage(&mut s1, (early, 0), (early + 1, 0));
            let schedules = [s0, s1];
            let cfg = SweepConfig::default();
            assert_matches_naive(&instances, &schedules, &providers, &cfg);
            let arena = OutageArena::from_schedules(&schedules);
            let out = MonitorSweep::new(&arena, &instances).run(&providers, &cfg);
            assert_eq!(out.worst_day.0, Day(early));
            assert!((out.worst_day.1 - 0.5).abs() < 1e-12);
        }
    }
}
