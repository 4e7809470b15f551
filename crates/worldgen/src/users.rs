//! User population generation: placement, toot counts, activity levels.
//!
//! Sharded (PR 10): every user draws from its own counter-derived RNG
//! stream ([`crate::shard::unit_rng`]), so the population can be built
//! in independent per-block segments and concatenated — bit-identical
//! to the serial walk at any block size. Instance placement samples a
//! frozen Walker alias table over the popularity law instead of a
//! cumulative binary search. The per-instance aggregate back-fill is a
//! serial pass over the concatenated population (f64 sums are
//! order-sensitive, so they must never happen inside a shard).

use crate::config::{sub_seed, WorldConfig};
use crate::pools::AliasSampler;
use crate::shard::{blocks, unit_rng, DEFAULT_BLOCK};
use fediscope_graph::par;
use fediscope_model::ids::{InstanceId, UserId};
use fediscope_model::instance::Instance;
use fediscope_model::taxonomy::{Activity, Category};
use fediscope_model::user::UserProfile;
use rand::prelude::*;
use rand_distr::{Beta, Distribution, LogNormal};

/// RNG stream tag for the per-instance aggregate back-fill draws.
const AGG_TAG: u64 = 0x5553_4552_4147_4700; // "USERAGG"

/// Toot-production multiplier for an instance, from its categories and
/// policies. Calibrated to Fig. 3's instance-vs-toot contrasts: games
/// (37.3% of instances, 43.4% of toots) and anime (24.6% → 37.2%) over-toot;
/// tech (55.2% → 24.5%) and journalism under-toot; adult instances have many
/// users but comparatively few toots per user. Advertising-friendly
/// instances over-toot (47% of instances but 75% of toots).
pub fn toot_multiplier(inst: &Instance) -> f64 {
    let mut m = 1.0;
    if inst.categories.contains(Category::Games) {
        m *= 1.7;
    }
    if inst.categories.contains(Category::Anime) {
        m *= 1.8;
    }
    if inst.categories.contains(Category::Tech) {
        m *= 0.35;
    }
    if inst.categories.contains(Category::Journalism) {
        m *= 0.4;
    }
    if inst.categories.contains(Category::Adult) {
        m *= 0.25;
    }
    if inst.policies.allows(Activity::Advertising) {
        m *= 1.5;
    }
    m
}

/// The frozen per-user draw context shared by every shard.
struct UserDraws {
    stage_seed: u64,
    n_instances: usize,
    placement: AliasSampler,
    tooting_frac: f64,
    ln_open: LogNormal,
    ln_closed: LogNormal,
    beta_open: Beta,
    beta_closed: Beta,
    open: Vec<bool>,
    multiplier: Vec<f64>,
}

impl UserDraws {
    fn new(cfg: &WorldConfig, instances: &[Instance], popularity: &[f64]) -> Self {
        // Toot-count distribution: log-normal tail over *tooting* users,
        // with a per-instance-type mean. sigma 1.6 keeps Fig. 2(a)'s heavy
        // tail (top users reach ~10^6 toots at full scale once the
        // category multipliers stack) while keeping the open-vs-closed
        // per-capita contrast resolvable in small worlds — at sigma 2 the
        // group means are dominated by single draws and the Fig. 2
        // orderings become seed lotteries.
        let sigma = 1.6f64;
        let mean_factor = (sigma * sigma / 2.0).exp();
        let mk_lognormal = |mean_target: f64| {
            let mu = (mean_target / mean_factor).ln();
            LogNormal::new(mu, sigma).expect("valid lognormal")
        };
        // mean toots per *user*; tooting users carry the whole mass.
        let open_mean_tooting = cfg.toots_per_user_open / cfg.tooting_frac;
        let closed_mean_tooting = cfg.toots_per_user_closed / cfg.tooting_frac;
        let ids: Vec<u32> = (0..instances.len() as u32).collect();
        Self {
            stage_seed: sub_seed(cfg.seed, 2),
            n_instances: instances.len(),
            placement: AliasSampler::from_weighted_ids(&ids, popularity),
            tooting_frac: cfg.tooting_frac,
            ln_open: mk_lognormal(open_mean_tooting),
            ln_closed: mk_lognormal(closed_mean_tooting),
            // Weekly-login propensity: closed instances have the more
            // engaged population (median activity 75% vs 50%, Fig. 2c).
            beta_open: Beta::new(2.2, 2.2).unwrap(),
            beta_closed: Beta::new(5.0, 1.8).unwrap(),
            open: instances.iter().map(|i| i.is_open()).collect(),
            multiplier: instances.iter().map(toot_multiplier).collect(),
        }
    }

    fn draw(&self, uid: usize) -> UserProfile {
        let mut rng = unit_rng(self.stage_seed, uid as u64);
        // Every instance starts with its administrator's account (user ids
        // 0..n_instances are the admins); the rest follow the popularity
        // law. This guarantees no instance is a zero-user ghost, matching
        // the federation graph's 92%-of-instances LCC (Fig. 13).
        let ii = if uid < self.n_instances {
            uid
        } else {
            self.placement.sample_u64(rng.r#gen()) as usize
        };
        let open = self.open[ii];
        let toots = if rng.gen_bool(self.tooting_frac) {
            let base = if open {
                self.ln_open.sample(&mut rng)
            } else {
                self.ln_closed.sample(&mut rng)
            };
            let boosted = base * self.multiplier[ii];
            boosted.round().clamp(1.0, 20_000_000.0) as u32
        } else {
            0
        };
        let login: f64 = if open {
            self.beta_open.sample(&mut rng)
        } else {
            self.beta_closed.sample(&mut rng)
        };
        UserProfile {
            id: UserId(uid as u32),
            instance: InstanceId(ii as u32),
            toot_count: toots,
            weekly_login_prob: login as f32,
        }
    }
}

/// Generate users, assign them to instances, and back-fill the per-instance
/// aggregates (`user_count`, `toot_count`, `boosted_toots`,
/// `active_user_pct`). Fans out over [`par::parallel_map`] in
/// [`DEFAULT_BLOCK`]-user segments.
pub fn generate(
    cfg: &WorldConfig,
    instances: &mut [Instance],
    popularity: &[f64],
) -> Vec<UserProfile> {
    generate_with_block(cfg, instances, popularity, DEFAULT_BLOCK)
}

/// [`generate`] with an explicit block size — output is bit-identical
/// for every block size (the sharding proptests pin this).
pub fn generate_with_block(
    cfg: &WorldConfig,
    instances: &mut [Instance],
    popularity: &[f64],
    block: usize,
) -> Vec<UserProfile> {
    assert_eq!(instances.len(), popularity.len());
    let draws = UserDraws::new(cfg, instances, popularity);
    let segments = par::parallel_map(&blocks(cfg.n_users, block), |&(lo, hi)| {
        (lo..hi).map(|uid| draws.draw(uid)).collect::<Vec<_>>()
    });
    let mut users = Vec::with_capacity(cfg.n_users);
    for seg in segments {
        users.extend(seg);
    }

    // Back-fill instance aggregates: a serial pass over the concatenated
    // population, so the f64 sums see one fixed order.
    let mut user_count = vec![0u32; instances.len()];
    let mut toot_count = vec![0u64; instances.len()];
    let mut login_sum = vec![0.0f64; instances.len()];
    for u in &users {
        let i = u.instance.index();
        user_count[i] += 1;
        toot_count[i] += u.toot_count as u64;
        login_sum[i] += u.weekly_login_prob as f64;
    }
    let agg_seed = sub_seed(cfg.seed, 2) ^ AGG_TAG;
    for (i, inst) in instances.iter_mut().enumerate() {
        let mut rng = unit_rng(agg_seed, i as u64);
        inst.user_count = user_count[i];
        inst.toot_count = toot_count[i];
        inst.boosted_toots = (toot_count[i] as f64 * rng.gen_range(0.05..0.25)).round() as u64;
        // The instance's peak weekly activity: mean member propensity plus a
        // small burst factor, capped at 100%.
        inst.active_user_pct = if user_count[i] == 0 {
            0.0
        } else {
            let mean_login = login_sum[i] / user_count[i] as f64;
            (mean_login * 100.0 * rng.gen_range(1.0..1.15)).min(100.0)
        };
    }
    users
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sub_seed;
    use fediscope_model::geo::ProviderCatalog;
    use rand::rngs::StdRng;

    fn world_pieces(seed: u64, n_inst: usize, n_users: usize) -> (Vec<Instance>, Vec<UserProfile>) {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = n_inst;
        cfg.n_users = n_users;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut rng1 = StdRng::seed_from_u64(sub_seed(seed, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut rng1);
        let mut instances = stage.instances;
        let users = generate(&cfg, &mut instances, &stage.popularity);
        (instances, users)
    }

    #[test]
    fn aggregates_consistent() {
        let (instances, users) = world_pieces(5, 50, 3000);
        let mut uc = [0u32; 50];
        let mut tc = vec![0u64; 50];
        for u in &users {
            uc[u.instance.index()] += 1;
            tc[u.instance.index()] += u.toot_count as u64;
        }
        for (i, inst) in instances.iter().enumerate() {
            assert_eq!(inst.user_count, uc[i]);
            assert_eq!(inst.toot_count, tc[i]);
            assert!(inst.boosted_toots <= inst.toot_count.max(1) / 2 + inst.toot_count / 3 + 1);
        }
    }

    #[test]
    fn block_size_does_not_change_population() {
        let mut cfg = WorldConfig::tiny(23);
        cfg.n_users = 2_500;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut rng1 = StdRng::seed_from_u64(sub_seed(23, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut rng1);
        let mut inst_a = stage.instances.clone();
        let mut inst_b = stage.instances.clone();
        let a = generate_with_block(&cfg, &mut inst_a, &stage.popularity, 1);
        let b = generate_with_block(&cfg, &mut inst_b, &stage.popularity, 997);
        assert_eq!(a, b);
        assert_eq!(inst_a, inst_b);
    }

    #[test]
    fn population_skewed_toward_top_instances() {
        let (instances, users) = world_pieces(7, 200, 20_000);
        let mut counts: Vec<u32> = instances.iter().map(|i| i.user_count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, users.len() as u64);
        let top5pct: u64 = counts[..10].iter().map(|&c| c as u64).sum();
        let share = top5pct as f64 / total as f64;
        // Paper: 90.6%. Loose band for a small world.
        assert!(share > 0.6, "top-5% user share only {share}");
    }

    #[test]
    fn open_instances_attract_more_users() {
        let (instances, _) = world_pieces(11, 400, 40_000);
        let mean = |open: bool| {
            let v: Vec<f64> = instances
                .iter()
                .filter(|i| i.is_open() == open)
                .map(|i| i.user_count as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let (mo, mc) = (mean(true), mean(false));
        assert!(
            mo > 2.0 * mc,
            "open mean {mo} should dwarf closed mean {mc}"
        );
    }

    #[test]
    fn closed_instances_toot_more_per_capita() {
        let (instances, _) = world_pieces(13, 400, 40_000);
        let per_capita = |open: bool| {
            let (t, u): (u64, u64) = instances
                .iter()
                .filter(|i| i.is_open() == open && i.user_count > 0)
                .fold((0, 0), |(t, u), i| {
                    (t + i.toot_count, u + i.user_count as u64)
                });
            t as f64 / u.max(1) as f64
        };
        assert!(
            per_capita(false) > per_capita(true),
            "closed {} open {}",
            per_capita(false),
            per_capita(true)
        );
    }

    #[test]
    fn closed_instances_more_active() {
        let (instances, _) = world_pieces(17, 400, 40_000);
        let median_activity = |open: bool| {
            let mut v: Vec<f64> = instances
                .iter()
                .filter(|i| i.is_open() == open && i.user_count > 0)
                .map(|i| i.active_user_pct)
                .collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (mo, mc) = (median_activity(true), median_activity(false));
        assert!(mc > mo, "closed median {mc} should exceed open median {mo}");
        assert!(mc > 55.0 && mc <= 100.0);
        assert!(mo > 30.0 && mo < 75.0);
    }

    #[test]
    fn tooting_fraction_near_config() {
        let (_, users) = world_pieces(19, 100, 20_000);
        let tooting = users.iter().filter(|u| u.has_tooted()).count() as f64 / 20_000.0;
        assert!(
            (tooting - 239.0 / 853.0).abs() < 0.03,
            "tooting frac {tooting}"
        );
    }

    #[test]
    fn toot_multiplier_orderings() {
        use fediscope_model::certs::{Certificate, CertificateAuthority};
        use fediscope_model::geo::Country;
        use fediscope_model::ids::AsId;
        use fediscope_model::instance::{OperatorKind, Registration, Software};
        use fediscope_model::taxonomy::{CategorySet, PolicySet};
        use fediscope_model::time::Day;
        let base = Instance {
            id: InstanceId(0),
            domain: "x".into(),
            software: Software::Mastodon,
            registration: Registration::Open,
            declares_categories: true,
            categories: CategorySet::empty(),
            policies: PolicySet::unstated(),
            country: Country::Japan,
            asn: AsId(1),
            provider_index: 0,
            ip: 0,
            certificate: Certificate {
                ca: CertificateAuthority::LetsEncrypt,
                issued: Day(0),
                auto_renew: true,
            },
            created: Day(0),
            operator: OperatorKind::Individual,
            user_count: 0,
            toot_count: 0,
            boosted_toots: 0,
            active_user_pct: 0.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        };
        let mut anime = base.clone();
        anime.categories.insert(Category::Anime);
        let mut adult = base.clone();
        adult.categories.insert(Category::Adult);
        assert!(toot_multiplier(&anime) > toot_multiplier(&base));
        assert!(toot_multiplier(&adult) < toot_multiplier(&base));
    }
}
