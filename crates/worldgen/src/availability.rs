//! Availability-schedule generation (§4.4 calibration).
//!
//! Three failure processes are superimposed per instance:
//!
//! 1. **Organic outages.** Each instance draws a lifetime downtime budget
//!    from a log-normal (median ≈5%, σ tuned so ≈11% of instances exceed 50%
//!    downtime). The budget is spent as many short blips plus — for unlucky
//!    instances — one long multi-day/multi-week outage, reproducing Fig. 10's
//!    duration tail (25% of instances see a ≥1-day outage; 7% a >1-month one).
//! 2. **Certificate expiries** (Fig. 9b). Instances without automated renewal
//!    go down when their certificate lapses; a synchronized Let's Encrypt
//!    cohort expires together on 2018-07-23 (105 instances in the paper).
//! 3. **AS-wide failures** (Table 1). Six ASes suffer between 1 and 15
//!    simultaneous all-instance outages.
//!
//! Instance churn (21.3% permanent departures) is also applied here.
//!
//! Sharded (PR 10): every decision is keyed to the instance it concerns
//! ([`crate::shard::unit_rng`]) — churn and cert-cohort membership become
//! per-instance Bernoulli draws instead of global shuffles, and the
//! AS-wide failure intervals are precomputed per ASN independent of
//! membership — so per-instance schedules can be generated in any block
//! partition with identical output. [`generate_arena_with_block`] streams each
//! block's raw clipped intervals into the counting-sort
//! [`OutageArena::from_unsorted`] path, never materialising sorted
//! per-instance schedules.

use crate::config::{sub_seed, WorldConfig};
use crate::shard::{blocks, unit_rng, INSTANCE_BLOCK};
use fediscope_graph::par;
use fediscope_model::ids::AsId;
use fediscope_model::instance::Instance;
use fediscope_model::schedule::{AvailabilitySchedule, OutageArena, OutageCause};
use fediscope_model::time::{Day, Epoch, EPOCHS_PER_DAY, WINDOW_DAYS, WINDOW_EPOCHS};
use rand::prelude::*;
use rand_distr::{Distribution, LogNormal};

/// RNG stream tags: one sub-stream per decision family, so adding draws
/// to one family never shifts another.
const CHURN_TAG: u64 = 0x4348_5552_4e00_0000; // "CHURN"
const COHORT_TAG: u64 = 0x434f_484f_5254_0000; // "COHORT"
const SCHED_TAG: u64 = 0x5343_4845_4400_0000; // "SCHED"
const AS_TAG: u64 = 0x4153_4641_494c_0000; // "ASFAIL"

/// Table 1 of the paper: `(ASN, number of distinct AS-wide failures)`.
pub const AS_FAILURE_PLAN: [(u32, u32); 6] = [
    (9370, 1),   // Sakura: the 97-instance event
    (20473, 4),  // Choopa
    (8075, 7),   // Microsoft
    (12322, 15), // Free SAS
    (2516, 4),   // KDDI
    (9371, 14),  // Sakura (2)
];

/// The bulk Let's Encrypt expiry day: 2018-07-23 (window day 468).
pub fn cohort_expiry_day() -> Day {
    Day::from_civil(2018, 7, 23).expect("2018-07-23 inside window")
}

/// Per-instance size-bin downtime multiplier (Fig. 8's non-monotonic
/// pattern: `<10K`-toot instances are the flakiest, 100K–1M the most solid,
/// `>1M` slightly worse again — "instance popularity is not a good
/// predictor of availability").
fn size_multiplier(toots: u64) -> f64 {
    match toots {
        0..=9_999 => 1.2,
        10_000..=99_999 => 0.55,
        100_000..=999_999 => 0.20,
        _ => 0.5,
    }
}

/// Frozen draw context shared by every shard: distributions plus the
/// membership-independent AS-wide failure plan.
struct OutagePlanner {
    stage_seed: u64,
    churn_frac: f64,
    downtime: LogNormal,
    blip_dur: LogNormal,
    long_dur: LogNormal,
    /// `(asn, outage intervals)` — drawn per ASN from its own keyed
    /// stream, regardless of whether any instance lives there, so the
    /// plan never depends on the generated population.
    as_plan: Vec<(AsId, Vec<(Epoch, u32)>)>,
}

impl OutagePlanner {
    fn new(cfg: &WorldConfig) -> Self {
        let stage_seed = sub_seed(cfg.seed, 4);
        let as_dur = LogNormal::new((24.0f64).ln(), 0.8).unwrap();
        let as_plan = AS_FAILURE_PLAN
            .iter()
            .map(|&(asn, failures)| {
                let mut rng = unit_rng(stage_seed ^ AS_TAG, asn as u64);
                let events = (0..failures)
                    .map(|_| {
                        let start = Epoch(rng.gen_range(0..WINDOW_EPOCHS - 1));
                        // a couple of hours median, up to a day
                        let dur = (as_dur.sample(&mut rng) as u32).clamp(6, EPOCHS_PER_DAY);
                        (start, dur)
                    })
                    .collect();
                (AsId(asn), events)
            })
            .collect();
        Self {
            stage_seed,
            churn_frac: cfg.churn_frac,
            downtime: LogNormal::new(cfg.downtime_median.ln(), cfg.downtime_sigma).unwrap(),
            // Blip durations: median ≈8 hours, capped below one day
            // (day-plus outages come exclusively from the long-outage path
            // so Fig. 10's 25%-with-a-day-outage calibration holds).
            blip_dur: LogNormal::new((96.0f64).ln(), 1.3).unwrap(),
            // long outages: median ~3 days, heavy upper tail (weeks+).
            long_dur: LogNormal::new((3.0 * EPOCHS_PER_DAY as f64).ln(), 1.0).unwrap(),
            as_plan,
        }
    }

    /// Draw instance `i`'s lifetime and its full clipped interval list —
    /// sorted-builder and unsorted-arena paths both consume exactly this.
    fn draw_instance(
        &self,
        inst: &Instance,
        i: usize,
    ) -> (Day, Option<Day>, Vec<(Epoch, Epoch, OutageCause)>) {
        let created = inst.created;
        let mut churn_rng = unit_rng(self.stage_seed ^ CHURN_TAG, i as u64);
        let retired = if churn_rng.gen_bool(self.churn_frac) {
            let earliest = created.0 + 14;
            if earliest >= WINDOW_DAYS - 1 {
                Some(Day(WINDOW_DAYS - 1))
            } else {
                Some(Day(churn_rng.gen_range(earliest..WINDOW_DAYS)))
            }
        } else {
            None
        };
        let birth = created.start_epoch().0;
        let death = retired
            .map(|d| d.start_epoch().0)
            .unwrap_or(WINDOW_EPOCHS)
            .min(WINDOW_EPOCHS);
        let life = death.saturating_sub(birth) as f64;

        let mut out: Vec<(Epoch, Epoch, OutageCause)> = Vec::new();
        // The add_outage clip rule, applied at emission so both builder
        // paths see the identical surviving-interval stream.
        let emit = |start: f64, end: f64, cause: OutageCause, out: &mut Vec<_>| {
            let lo = birth.max(start as u32);
            let hi = death.min(end as u32).min(WINDOW_EPOCHS);
            if lo < hi {
                out.push((Epoch(lo), Epoch(hi), cause));
            }
        };

        if life < EPOCHS_PER_DAY as f64 {
            return (created, retired, out);
        }
        let mut rng = unit_rng(self.stage_seed ^ SCHED_TAG, i as u64);

        // lifetime downtime target
        let mut d_target: f64 = self.downtime.sample(&mut rng) * size_multiplier(inst.toot_count);
        d_target = d_target.clamp(0.0, 0.95);
        // 2% of instances are genuinely never down (paper: 98% fail at
        // least once).
        if rng.gen_bool(0.02) {
            d_target = 0.0;
        }
        let mut budget = d_target * life;

        // Long outage(s) for badly-run instances: spend up to 80% of a large
        // budget in one continuous interval (Fig. 10's ≥1-day tail). The
        // 0.8 gate plus the budget threshold keeps the ≥1-day share near the
        // paper's 25%.
        if d_target >= 0.15 && rng.gen_bool(0.8) {
            let mut dur = self.long_dur.sample(&mut rng);
            // over-month outages only for the worst (d >= 0.3)
            if d_target >= 0.3 && rng.gen_bool(0.6) {
                dur = dur.max(32.0 * EPOCHS_PER_DAY as f64 * rng.gen_range(1.0..2.5));
            }
            let dur = dur.min(budget * 0.8).max(EPOCHS_PER_DAY as f64);
            let start = birth as f64 + rng.gen::<f64>() * (life - dur).max(1.0);
            emit(start, start + dur, OutageCause::Organic, &mut out);
            budget -= dur;
        }

        // Short blips for the remainder of the budget, placed on a jittered
        // regular grid (one blip per slot). Grid placement keeps blips from
        // coalescing into accidental multi-day runs, which would inflate the
        // Fig. 10 ≥1-day tail beyond its long-outage calibration.
        if budget > 2.0 {
            let mean_blip = 130.0; // ≈ E[clamped blip duration]
            let n_blips = ((budget / mean_blip).ceil() as u32).clamp(1, 2_000);
            let slot = life / n_blips as f64;
            for k in 0..n_blips {
                let dur = self
                    .blip_dur
                    .sample(&mut rng)
                    .clamp(2.0, (0.75 * EPOCHS_PER_DAY as f64).min(0.9 * slot));
                if dur < 1.0 {
                    continue;
                }
                let slot_start = birth as f64 + k as f64 * slot;
                let start = slot_start + rng.gen::<f64>() * (slot - dur).max(0.0);
                emit(start, start + dur, OutageCause::Organic, &mut out);
            }
        }
        // ensure "98% of instances go down at least once" even with a zero
        // budget draw
        if out.is_empty() && d_target > 0.0 {
            let start = birth + (life * rng.gen::<f64>() * 0.9) as u32;
            emit(
                start as f64,
                (start + 2) as f64,
                OutageCause::Organic,
                &mut out,
            );
        }

        // Certificate lapses.
        if !inst.certificate.auto_renew {
            for lapse in inst.certificate.lapse_days(3, WINDOW_DAYS) {
                let start = lapse.start_epoch();
                // fixed after a few hours to a few days
                let fix_epochs = rng.gen_range(6 * 12..4 * EPOCHS_PER_DAY);
                emit(
                    start.0 as f64,
                    (start.0 + fix_epochs) as f64,
                    OutageCause::CertExpiry,
                    &mut out,
                );
            }
        }

        // AS-wide failures: splice in the precomputed plan for this
        // instance's AS (no RNG — the plan is frozen).
        for (asn, events) in &self.as_plan {
            if inst.asn == *asn {
                for &(start, dur) in events {
                    emit(
                        start.0 as f64,
                        (start.0 + dur) as f64,
                        OutageCause::AsFailure,
                        &mut out,
                    );
                }
            }
        }
        (created, retired, out)
    }
}

/// Rewrite the Let's Encrypt cohort's certificates so they all lapse on
/// the same day (auto-renew off). Membership is a per-instance keyed
/// Bernoulli draw with probability `cohort_size / n_lets_encrypt`, so it
/// never depends on iteration order.
fn apply_cert_cohort(cfg: &WorldConfig, instances: &mut [Instance]) {
    let n = instances.len();
    let cohort_size = ((n as f64) * cfg.cert_cohort_frac).round();
    let n_le = instances
        .iter()
        .filter(|i| i.certificate.ca == fediscope_model::certs::CertificateAuthority::LetsEncrypt)
        .count();
    if n_le == 0 || cohort_size <= 0.0 {
        return;
    }
    let p = (cohort_size / n_le as f64).min(1.0);
    let cohort_day = cohort_expiry_day();
    let seed = sub_seed(cfg.seed, 4) ^ COHORT_TAG;
    for (i, inst) in instances.iter_mut().enumerate() {
        if inst.certificate.ca == fediscope_model::certs::CertificateAuthority::LetsEncrypt
            && unit_rng(seed, i as u64).gen_bool(p)
        {
            inst.certificate.issued = Day(cohort_day.0 - 90);
            inst.certificate.auto_renew = false;
        }
    }
}

/// Generate schedules for all instances. `instances` is mutated only in that
/// the Let's Encrypt cohort members get their certificate rewritten to the
/// synchronized issue date (auto-renew off).
pub fn generate(cfg: &WorldConfig, instances: &mut [Instance]) -> Vec<AvailabilitySchedule> {
    generate_with_block(cfg, instances, INSTANCE_BLOCK)
}

/// [`generate`] with an explicit block size — bit-identical output at
/// any block size (the sharding proptests pin this).
pub fn generate_with_block(
    cfg: &WorldConfig,
    instances: &mut [Instance],
    block: usize,
) -> Vec<AvailabilitySchedule> {
    apply_cert_cohort(cfg, instances);
    let planner = OutagePlanner::new(cfg);
    let segments = par::parallel_map(&blocks(instances.len(), block), |&(lo, hi)| {
        instances[lo..hi]
            .iter()
            .enumerate()
            .map(|(k, inst)| {
                let (created, retired, intervals) = planner.draw_instance(inst, lo + k);
                let mut sched = AvailabilitySchedule::new(created, retired);
                for (s, e, c) in intervals {
                    sched.add_outage(s, e, c);
                }
                sched
            })
            .collect::<Vec<_>>()
    });
    let mut schedules = Vec::with_capacity(instances.len());
    for seg in segments {
        schedules.extend(seg);
    }
    schedules
}

/// Generate straight into a columnar [`OutageArena`]: every shard emits
/// its instances' raw clipped intervals in generation order, the
/// concatenated unsorted stream goes through the counting-sort
/// [`OutageArena::from_unsorted`] ingest — no per-instance sorted
/// builder anywhere on the path, and bit-identical to
/// `OutageArena::from_schedules(generate(..))` (pinned by tests here and
/// by the `from_unsorted` proptest in `fediscope_model`). Each shard
/// covers `block` instances.
pub fn generate_arena_with_block(
    cfg: &WorldConfig,
    instances: &mut [Instance],
    block: usize,
) -> OutageArena {
    apply_cert_cohort(cfg, instances);
    let planner = OutagePlanner::new(cfg);
    let segments = par::parallel_map(&blocks(instances.len(), block), |&(lo, hi)| {
        let mut lifetimes: Vec<(Epoch, Epoch)> = Vec::with_capacity(hi - lo);
        let mut intervals: Vec<(u32, Epoch, Epoch, OutageCause)> = Vec::new();
        for (k, inst) in instances[lo..hi].iter().enumerate() {
            let i = lo + k;
            let (created, retired, outs) = planner.draw_instance(inst, i);
            let birth = created.start_epoch();
            let death = retired
                .map(|d| d.start_epoch())
                .unwrap_or(Epoch(WINDOW_EPOCHS));
            lifetimes.push((birth, death));
            intervals.extend(outs.into_iter().map(|(s, e, c)| (i as u32, s, e, c)));
        }
        (lifetimes, intervals)
    });
    let mut lifetimes = Vec::with_capacity(instances.len());
    let mut intervals = Vec::new();
    for (l, iv) in segments {
        lifetimes.extend(l);
        intervals.extend(iv);
    }
    OutageArena::from_unsorted(&lifetimes, intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sub_seed;
    use fediscope_model::geo::ProviderCatalog;
    use rand::rngs::StdRng;

    fn build(seed: u64, n_inst: usize) -> (Vec<Instance>, Vec<AvailabilitySchedule>) {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = n_inst;
        cfg.n_users = n_inst * 20;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r1 = StdRng::seed_from_u64(sub_seed(seed, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut r1);
        let mut instances = stage.instances;
        let _users = crate::users::generate(&cfg, &mut instances, &stage.popularity);
        let schedules = generate(&cfg, &mut instances);
        (instances, schedules)
    }

    #[test]
    fn schedules_align_with_instances() {
        let (instances, schedules) = build(3, 200);
        assert_eq!(instances.len(), schedules.len());
        for (inst, s) in instances.iter().zip(&schedules) {
            assert_eq!(s.created, inst.created);
        }
    }

    #[test]
    fn churn_fraction_applied() {
        let (_, schedules) = build(5, 1000);
        let churned = schedules.iter().filter(|s| s.retired.is_some()).count() as f64 / 1000.0;
        assert!((churned - 0.213).abs() < 0.04, "churn {churned}");
    }

    #[test]
    fn block_size_is_unobservable() {
        let seed = 31;
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 500;
        cfg.n_users = 2_000;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r1 = StdRng::seed_from_u64(sub_seed(seed, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut r1);
        let mut base = stage.instances;
        let _users = crate::users::generate(&cfg, &mut base, &stage.popularity);
        let mut inst_a = base.clone();
        let mut inst_b = base.clone();
        let a = generate_with_block(&cfg, &mut inst_a, 1);
        let b = generate_with_block(&cfg, &mut inst_b, 137);
        assert_eq!(a, b);
        assert_eq!(inst_a, inst_b);
    }

    #[test]
    fn downtime_distribution_shape() {
        let (_, schedules) = build(7, 1500);
        let downs: Vec<f64> = schedules
            .iter()
            .filter(|s| s.lifetime_epochs() > EPOCHS_PER_DAY)
            .map(|s| s.downtime_fraction())
            .collect();
        let n = downs.len() as f64;
        let below_5pct = downs.iter().filter(|&&d| d < 0.05).count() as f64 / n;
        let above_50pct = downs.iter().filter(|&&d| d > 0.5).count() as f64 / n;
        // Paper: ~50% below 5% downtime, ~11% above 50%.
        assert!(
            (0.30..=0.70).contains(&below_5pct),
            "below-5% share {below_5pct}"
        );
        assert!(
            (0.03..=0.25).contains(&above_50pct),
            "above-50% share {above_50pct}"
        );
    }

    #[test]
    fn most_instances_fail_at_least_once() {
        let (_, schedules) = build(11, 800);
        let failed = schedules
            .iter()
            .filter(|s| s.lifetime_epochs() > EPOCHS_PER_DAY)
            .filter(|s| s.outage_count() > 0)
            .count() as f64;
        let total = schedules
            .iter()
            .filter(|s| s.lifetime_epochs() > EPOCHS_PER_DAY)
            .count() as f64;
        assert!(failed / total > 0.9, "failure rate {}", failed / total);
    }

    #[test]
    fn day_long_outages_are_a_minority_but_exist() {
        let (_, schedules) = build(13, 1500);
        let with_day_outage = schedules
            .iter()
            .filter(|s| s.outages().iter().any(|o| o.len_days() >= 1.0))
            .count() as f64
            / 1500.0;
        assert!(
            (0.08..=0.45).contains(&with_day_outage),
            "≥1-day outage share {with_day_outage}"
        );
    }

    #[test]
    fn cohort_expires_together() {
        let (instances, schedules) = build(17, 2000);
        let day = cohort_expiry_day();
        let mut down_on_day = 0;
        for (inst, s) in instances.iter().zip(&schedules) {
            if !inst.certificate.auto_renew
                && inst.certificate.expires() == day
                && s.outages()
                    .iter()
                    .any(|o| o.cause == OutageCause::CertExpiry && o.start.day() == day)
            {
                down_on_day += 1;
            }
        }
        // cohort is cert_cohort_frac of instances
        let expected = (2000.0 * (105.0 / 4328.0)) as i64;
        assert!(
            (down_on_day as i64 - expected).abs() <= expected / 2 + 2,
            "cohort size {down_on_day}, expected ≈{expected}"
        );
    }

    #[test]
    fn as_failures_hit_all_members_simultaneously() {
        let (instances, schedules) = build(19, 2000);
        for &(asn, _) in &AS_FAILURE_PLAN {
            let members: Vec<usize> = instances
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.asn == AsId(asn))
                .map(|(i, _)| i)
                .collect();
            if members.len() < 2 {
                continue;
            }
            // find an AsFailure outage in the first member and check others
            // share an overlapping AsFailure outage.
            let Some(o) = schedules[members[0]]
                .outages()
                .iter()
                .find(|o| o.cause == OutageCause::AsFailure)
                .copied()
            else {
                continue;
            };
            for &m in &members[1..] {
                // Cause tags can be rewritten when an AS outage merges into
                // an overlapping organic outage, so assert on *downtime*
                // rather than on the tag.
                if schedules[m].exists_at(o.start) {
                    let down = schedules[m].down_epochs_in(o.start, o.end);
                    assert!(down > 0, "AS{asn} member {m} missed the co-failure");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let (_, a) = build(23, 300);
        let (_, b) = build(23, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn arena_generation_matches_schedule_generation() {
        let seed = 29;
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 400;
        cfg.n_users = 2_000;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r1 = StdRng::seed_from_u64(sub_seed(seed, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut r1);
        let mut instances = stage.instances;
        let _users = crate::users::generate(&cfg, &mut instances, &stage.popularity);

        let mut instances_b = instances.clone();
        let schedules = generate(&cfg, &mut instances);
        // The unsorted-ingest path, at a block size that forces several
        // shards, must equal the sorted-builder route exactly.
        let arena = generate_arena_with_block(&cfg, &mut instances_b, 53);

        assert_eq!(instances, instances_b, "cert-cohort rewrites must match");
        assert_eq!(arena, OutageArena::from_schedules(&schedules));
        assert_eq!(arena.len(), schedules.len());
    }
}
