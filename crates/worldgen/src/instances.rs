//! Instance population generation (§4.1–§4.3 calibration).

use crate::config::WorldConfig;
use fediscope_model::certs::{Certificate, CertificateAuthority};
use fediscope_model::geo::{Country, ProviderCatalog};
use fediscope_model::ids::InstanceId;
use fediscope_model::instance::{Instance, OperatorKind, Registration, Software};
use fediscope_model::taxonomy::{Activity, Category, CategorySet, PolicySet};
use fediscope_model::time::Day;
use rand::prelude::*;

/// Output of the instance stage: the instance records (with user/toot counts
/// still zero — the user stage fills them) plus each instance's popularity
/// weight used for user placement.
pub struct InstanceStage {
    /// Instance records.
    pub instances: Vec<Instance>,
    /// Un-normalised user-attraction weight per instance.
    pub popularity: Vec<f64>,
}

/// Per-category probability that a *declaring, non-generic* instance carries
/// the tag (multi-label; Fig. 3's instance bars, renormalised to the
/// non-generic subset).
const CATEGORY_PROBS: [(Category, f64); 15] = [
    (Category::Tech, 0.552),
    (Category::Games, 0.373),
    (Category::Art, 0.3015),
    (Category::Activism, 0.16),
    (Category::Music, 0.15),
    (Category::Anime, 0.246),
    (Category::Books, 0.11),
    (Category::Academia, 0.10),
    (Category::Lgbt, 0.09),
    (Category::Journalism, 0.08),
    (Category::Furry, 0.07),
    (Category::Sports, 0.06),
    (Category::Adult, 0.123),
    (Category::Poc, 0.04),
    (Category::Humor, 0.04),
];

/// Probability an activity is explicitly *prohibited* (Fig. 4 left panel:
/// spam 76%, porn w/o NSFW 66%, nudity w/o NSFW 62%, …).
fn prohibit_prob(a: Activity) -> f64 {
    match a {
        Activity::Spam => 0.76,
        Activity::PornWithoutNsfw => 0.66,
        Activity::NudityWithoutNsfw => 0.62,
        Activity::LinksToIllegalContent => 0.55,
        Activity::Advertising => 0.30,
        Activity::SpoilersWithoutCw => 0.25,
        Activity::PornWithNsfw => 0.20,
        Activity::NudityWithNsfw => 0.12,
    }
}

/// Probability an activity is explicitly *allowed*, given it was not
/// prohibited (Fig. 4 right panel; e.g. 24% of instances allow spam and
/// "many more explicitly allow" spoilers without CW).
fn allow_prob(a: Activity) -> f64 {
    match a {
        Activity::Spam => 0.55,
        Activity::PornWithoutNsfw => 0.35,
        Activity::NudityWithoutNsfw => 0.40,
        Activity::LinksToIllegalContent => 0.25,
        Activity::Advertising => 0.75,
        Activity::SpoilersWithoutCw => 0.85,
        Activity::PornWithNsfw => 0.80,
        Activity::NudityWithNsfw => 0.85,
    }
}

/// Country shares for instance placement (Fig. 5 top panel: JP 25.5%,
/// US 21.4%, FR 16%, DE/NL follow).
const COUNTRY_SHARES: [(Country, f64); 8] = [
    (Country::Japan, 0.255),
    (Country::UnitedStates, 0.214),
    (Country::France, 0.16),
    (Country::Germany, 0.085),
    (Country::Netherlands, 0.045),
    (Country::UnitedKingdom, 0.045),
    (Country::Canada, 0.035),
    (Country::Other, 0.161),
];

/// Within-country provider preferences `(name prefix, weight)` for ordinary
/// (non-head) instances. Remaining weight spreads uniformly over the
/// country's tail ASes. Calibrated so the §5.1 "top-5 ASes by instances"
/// set {OVH, Scaleway, Sakura, Hetzner, GMO} collectively hosts ≈40% of
/// instances.
fn named_provider_prefs(c: Country) -> &'static [(&'static str, f64)] {
    match c {
        Country::Japan => &[
            ("SAKURA Internet Inc.", 0.33),
            ("GMO", 0.28),
            ("KDDI", 0.012),
            ("SAKURA Internet Inc. (2)", 0.010),
            ("ARTERIA", 0.02),
        ],
        Country::UnitedStates => &[
            ("Amazon", 0.25),
            ("Cloudflare", 0.22),
            ("DigitalOcean", 0.21),
            ("Choopa", 0.022),
            ("Microsoft", 0.012),
            ("Google", 0.04),
            ("Linode", 0.05),
        ],
        Country::France => &[("OVH", 0.56), ("Scaleway", 0.34), ("Free SAS", 0.012)],
        Country::Germany => &[("Hetzner", 0.70), ("Contabo", 0.10), ("netcup", 0.07)],
        Country::Netherlands => &[("LeaseWeb", 0.45), ("WorldStream", 0.30)],
        _ => &[],
    }
}

/// Provider preferences for *head* instances (the top ≈1.5% by popularity):
/// the paper finds the biggest instances clustered on Amazon (>30% of all
/// users on 6% of instances), Cloudflare (31.7% of toots) and the big
/// Japanese hosts. Japanese providers get ≈40% of the head mass so "Japan
/// hosts … 41% of all users" (Fig. 5) reproduces. `(name prefix, weight)`.
const HEAD_PROVIDER_PREFS: [(&str, f64); 10] = [
    ("SAKURA Internet Inc.", 0.22),
    ("GMO", 0.12),
    ("KDDI", 0.06),
    ("Amazon", 0.25),
    ("Cloudflare", 0.15),
    ("OVH", 0.06),
    ("Scaleway", 0.03),
    ("Google", 0.02),
    ("DigitalOcean", 0.05),
    ("Hetzner", 0.04),
];

/// The paper's Table 2 domains, used to label the top-10 generated instances
/// (by popularity) for familiar output.
const TOP_DOMAINS: [(&str, OperatorKind); 10] = [
    ("mstdn.jp", OperatorKind::Individual),
    ("friends.nico", OperatorKind::Company),
    ("pawoo.net", OperatorKind::Company),
    ("mimumedon.com", OperatorKind::Individual),
    ("imastodon.net", OperatorKind::CrowdFunded),
    ("mastodon.social", OperatorKind::CrowdFunded),
    ("mastodon.cloud", OperatorKind::Unknown),
    ("mstdn-workers.com", OperatorKind::CrowdFunded),
    ("vocalodon.net", OperatorKind::CrowdFunded),
    ("mstdn.osaka", OperatorKind::Individual),
];

/// Piecewise-linear CDF of instance creation over the window: a pre-window
/// base, the Apr–Jun 2017 burst, the Jul–Dec 2017 plateau ("only 6% of
/// instances were setup between July and December"), and the H1-2018
/// re-acceleration ("43% growth").
const CREATION_CDF: [(u32, f64); 5] = [(0, 0.40), (50, 0.56), (81, 0.60), (264, 0.64), (471, 1.00)];

fn sample_creation_day<R: Rng>(rng: &mut R) -> Day {
    let u: f64 = rng.gen();
    if u <= CREATION_CDF[0].1 {
        return Day(0); // existed before the window started
    }
    for w in CREATION_CDF.windows(2) {
        let (d0, c0) = w[0];
        let (d1, c1) = w[1];
        if u <= c1 {
            let frac = (u - c0) / (c1 - c0);
            let day = d0 as f64 + frac * (d1 - d0) as f64;
            return Day(day.round() as u32);
        }
    }
    Day(471)
}

fn pick_weighted<'a, R: Rng>(rng: &mut R, items: &'a [(usize, f64)]) -> Option<&'a (usize, f64)> {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.gen::<f64>() * total;
    for it in items {
        x -= it.1;
        if x <= 0.0 {
            return Some(it);
        }
    }
    items.last()
}

/// Generate the instance population.
pub fn generate<R: Rng>(
    cfg: &WorldConfig,
    providers: &ProviderCatalog,
    rng: &mut R,
) -> InstanceStage {
    let n = cfg.n_instances;

    // --- popularity ranks: Zipf over a random permutation ----------------
    // rank_of[i] is the popularity rank of instance i (0 = most popular).
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut rank_of = vec![0usize; n];
    for (rank, &inst) in perm.iter().enumerate() {
        rank_of[inst] = rank;
    }
    let head_cutoff = ((n as f64) * 0.015).ceil() as usize;

    // --- provider index sets by name / country ---------------------------
    let by_country: Vec<Vec<usize>> = Country::ALL
        .iter()
        .map(|&c| {
            providers
                .providers()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.country == c && p.name.starts_with("Tail"))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let country_idx = |c: Country| Country::ALL.iter().position(|&x| x == c).unwrap();

    let resolve = |prefix: &str| providers.index_of_name(prefix);

    let mut per_provider_count = vec![0u32; providers.len()];
    let mut instances = Vec::with_capacity(n);
    let mut popularity = vec![0.0f64; n];

    // Pre-compute named preference tables resolved to provider indices.
    let head_prefs: Vec<(usize, f64)> = HEAD_PROVIDER_PREFS
        .iter()
        .filter_map(|&(name, w)| resolve(name).map(|i| (i, w)))
        .collect();

    for (i, &rank) in rank_of.iter().enumerate().take(n) {
        // The flagship instances (mstdn.jp, pawoo, mastodon.social, …) run
        // open registrations — that is *why* they are huge. Make the head
        // ranks open with high probability and rebalance the tail so the
        // overall open share stays at the configured 47.8%.
        let head_open_cut = (n / 50).max(1);
        let open = if rank < head_open_cut {
            rng.gen_bool(0.9)
        } else {
            let tail_frac = ((cfg.open_frac * n as f64) - 0.9 * head_open_cut as f64)
                / (n - head_open_cut).max(1) as f64;
            rng.gen_bool(tail_frac.clamp(0.05, 0.95))
        };
        let software = if rng.gen_bool(cfg.pleroma_frac) {
            Software::Pleroma
        } else {
            Software::Mastodon
        };

        // Categories & policies.
        let declares = rng.gen_bool(cfg.categorised_frac);
        let mut categories = CategorySet::empty();
        let mut policies = PolicySet::unstated();
        if declares {
            // 51.7% of declaring instances are "generic" (empty set).
            if !rng.gen_bool(0.517) {
                for &(c, p) in &CATEGORY_PROBS {
                    if rng.gen_bool(p) {
                        categories.insert(c);
                    }
                }
                if categories.is_empty() {
                    // force at least one tag for the non-generic subset
                    categories.insert(Category::Tech);
                }
            }
            // Policies: 17.5% allow everything; the rest state a mixture.
            if rng.gen_bool(0.175) {
                policies = PolicySet::allow_all();
            } else {
                for a in Activity::ALL {
                    let mut p_prohibit = prohibit_prob(a);
                    let mut p_allow = allow_prob(a);
                    if categories.contains(Category::Adult) {
                        // adult instances allow (tagged) NSFW content
                        match a {
                            Activity::NudityWithNsfw | Activity::PornWithNsfw => {
                                p_prohibit = 0.02;
                                p_allow = 0.95;
                            }
                            Activity::NudityWithoutNsfw | Activity::PornWithoutNsfw => {
                                p_prohibit = 0.35;
                                p_allow = 0.5;
                            }
                            _ => {}
                        }
                    }
                    if rng.gen_bool(p_prohibit) {
                        policies.prohibit(a);
                    } else if rng.gen_bool(p_allow) {
                        policies.allow(a);
                    }
                }
            }
        }

        // Provider selection (ranks 0–4 are overridden by the flagship
        // pass below).
        let provider_index = if rank < head_cutoff && !head_prefs.is_empty() {
            pick_weighted(rng, &head_prefs).map(|&(i, _)| i).unwrap()
        } else {
            // country first, then provider within country
            let cs: Vec<(usize, f64)> = COUNTRY_SHARES
                .iter()
                .map(|&(c, w)| (country_idx(c), w))
                .collect();
            let c = Country::ALL[pick_weighted(rng, &cs).unwrap().0];
            let named: Vec<(usize, f64)> = named_provider_prefs(c)
                .iter()
                .filter_map(|&(name, w)| resolve(name).map(|i| (i, w)))
                .collect();
            let named_total: f64 = named.iter().map(|(_, w)| w).sum();
            let tail = &by_country[country_idx(c)];
            let mut table = named;
            if !tail.is_empty() {
                let residual = (1.0 - named_total).max(0.0) / tail.len() as f64;
                table.extend(tail.iter().map(|&i| (i, residual)));
            }
            match pick_weighted(rng, &table) {
                Some(&(i, _)) => i,
                // country has no providers at this catalog size: fall back
                // to a uniform pick
                None => rng.gen_range(0..providers.len()),
            }
        };
        let provider = providers.get(provider_index);
        let ip = provider.ip_for(per_provider_count[provider_index]);
        per_provider_count[provider_index] += 1;

        // Certificate.
        let ca_roll: f64 = rng.gen();
        let ca = if ca_roll < 0.87 {
            CertificateAuthority::LetsEncrypt
        } else if ca_roll < 0.92 {
            CertificateAuthority::Comodo
        } else if ca_roll < 0.95 {
            CertificateAuthority::Amazon
        } else if ca_roll < 0.975 {
            CertificateAuthority::Cloudflare
        } else if ca_roll < 0.99 {
            CertificateAuthority::DigiCert
        } else {
            CertificateAuthority::Other
        };
        let auto_renew = rng.gen_bool(cfg.cert_auto_renew_frac);
        let issued = Day(rng.gen_range(0..ca.validity_days().min(400)));
        let certificate = Certificate {
            ca,
            issued,
            auto_renew,
        };

        let created = sample_creation_day(rng);

        instances.push(Instance {
            id: InstanceId(i as u32),
            domain: format!("m{i:04}.fedi.test"),
            software,
            registration: if open {
                Registration::Open
            } else {
                Registration::Closed
            },
            declares_categories: declares,
            categories,
            policies,
            country: provider.country,
            asn: provider.asn,
            provider_index: provider_index as u32,
            ip,
            certificate,
            created,
            operator: match rng.gen_range(0..10) {
                0..=5 => OperatorKind::Individual,
                6..=7 => OperatorKind::CrowdFunded,
                8 => OperatorKind::Company,
                _ => OperatorKind::Unknown,
            },
            user_count: 0,
            toot_count: 0,
            boosted_toots: 0,
            active_user_pct: 0.0,
            crawl_allowed: !rng.gen_bool(cfg.crawl_blocked_frac),
            private_toot_frac: (rng.gen::<f64>() * 2.0 * cfg.private_toot_frac_mean)
                .clamp(0.0, 0.9),
        });
    }

    // --- flagship instances ----------------------------------------------
    // The head of the real population is not a random draw: mstdn.jp,
    // friends.nico, pawoo.net and mastodon.social are open-registration,
    // predominantly Japanese-hosted, and the categorised ones are the
    // anime/games and adult/art giants (never tech). Pin those profiles on
    // ranks 0–4 so the Figs. 2/3/5 contrasts hold at every seed instead of
    // flipping on the attributes of one or two huge instances.
    struct Flagship {
        provider: &'static str,
        declares: bool,
        categories: &'static [Category],
    }
    const FLAGSHIPS: [Flagship; 5] = [
        // mstdn.jp analogue
        Flagship {
            provider: "SAKURA Internet Inc.",
            declares: false,
            categories: &[],
        },
        // friends.nico analogue
        Flagship {
            provider: "GMO",
            declares: true,
            categories: &[Category::Anime, Category::Games],
        },
        // pawoo.net analogue
        Flagship {
            provider: "SAKURA Internet Inc.",
            declares: true,
            categories: &[Category::Adult, Category::Art],
        },
        // mastodon.social analogue
        Flagship {
            provider: "OVH",
            declares: false,
            categories: &[],
        },
        // mastodon.cloud analogue
        Flagship {
            provider: "Amazon",
            declares: false,
            categories: &[],
        },
    ];
    for (rank, spec) in FLAGSHIPS.iter().enumerate() {
        let Some(&idx) = perm.get(rank) else { continue };
        let inst = &mut instances[idx];
        inst.registration = Registration::Open;
        inst.declares_categories = spec.declares;
        inst.categories = spec.categories.iter().copied().collect();
        inst.created = Day(0);
        if let Some(p) = resolve(spec.provider) {
            let provider = providers.get(p);
            inst.provider_index = p as u32;
            inst.asn = provider.asn;
            inst.country = provider.country;
            inst.ip = provider.ip_for(per_provider_count[p]);
            per_provider_count[p] += 1;
        }
    }
    // The rest of the categorised head still avoids tech (Fig. 3: the
    // big categorised communities under-produce tech content).
    let mut declaring: Vec<usize> = (0..n)
        .filter(|&i| instances[i].declares_categories)
        .collect();
    declaring.sort_by_key(|&i| rank_of[i]);
    for &i in declaring.iter().take(8) {
        instances[i].categories.remove(Category::Tech);
    }

    // --- popularity weights ---------------------------------------------
    // Zipf body with calibrated boosts; computed after the flagship pass so
    // the adult boost lands on the pinned instance.
    for (i, inst) in instances.iter().enumerate() {
        let rank = rank_of[i];
        let mut w = 1.0 / ((rank + 1) as f64).powf(cfg.instance_zipf_exponent);
        if inst.is_open() {
            w *= cfg.open_boost;
        }
        if inst.categories.contains(Category::Adult) {
            w *= cfg.adult_boost;
        }
        if inst.policies.allows(Activity::Advertising) {
            w *= 1.3;
        }
        // Late-created instances had less time to accumulate users.
        let age_frac = (472.0 - inst.created.0 as f64) / 472.0;
        w *= age_frac.max(0.05);
        popularity[i] = w;
    }

    // Label the top-10 by popularity with the paper's Table 2 domains.
    let mut by_pop: Vec<usize> = (0..n).collect();
    by_pop.sort_by(|&a, &b| popularity[b].total_cmp(&popularity[a]));
    for (slot, &idx) in by_pop.iter().take(TOP_DOMAINS.len().min(n)).enumerate() {
        instances[idx].domain = TOP_DOMAINS[slot].0.to_string();
        instances[idx].operator = TOP_DOMAINS[slot].1;
        // the famous instances existed from day 0 and never block crawling
        instances[idx].created = Day(0);
        instances[idx].crawl_allowed = true;
    }

    InstanceStage {
        instances,
        popularity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sub_seed;
    use rand::rngs::StdRng;

    fn stage(n: usize, seed: u64) -> InstanceStage {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = n;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        generate(&cfg, &providers, &mut rng)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = stage(100, 7);
        let b = stage(100, 7);
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.popularity, b.popularity);
    }

    #[test]
    fn different_seeds_differ() {
        let a = stage(100, 7);
        let b = stage(100, 8);
        assert_ne!(a.instances, b.instances);
    }

    #[test]
    fn open_share_near_config() {
        let s = stage(2000, 3);
        let open = s.instances.iter().filter(|i| i.is_open()).count() as f64 / 2000.0;
        assert!((open - 0.478).abs() < 0.05, "open share {open}");
    }

    #[test]
    fn pleroma_share_small() {
        let s = stage(2000, 3);
        let pl = s
            .instances
            .iter()
            .filter(|i| i.software == Software::Pleroma)
            .count() as f64
            / 2000.0;
        assert!(pl > 0.005 && pl < 0.08, "pleroma share {pl}");
    }

    #[test]
    fn categorised_subset_matches_fraction() {
        let s = stage(2000, 3);
        let declared = s.instances.iter().filter(|i| i.declares_categories).count() as f64;
        assert!((declared / 2000.0 - 697.0 / 4328.0).abs() < 0.05);
        // roughly half of declaring instances are generic (empty category set)
        let generic = s
            .instances
            .iter()
            .filter(|i| i.declares_categories && i.categories.is_empty())
            .count() as f64;
        assert!((generic / declared - 0.517).abs() < 0.1);
    }

    #[test]
    fn tech_most_common_category() {
        let s = stage(3000, 5);
        let count = |c: Category| {
            s.instances
                .iter()
                .filter(|i| i.categories.contains(c))
                .count()
        };
        assert!(count(Category::Tech) > count(Category::Games));
        assert!(count(Category::Games) > count(Category::Sports));
    }

    #[test]
    fn spam_is_most_prohibited() {
        let s = stage(3000, 5);
        let prohibit_count = |a: Activity| {
            s.instances
                .iter()
                .filter(|i| i.declares_categories && i.policies.prohibits(a))
                .count()
        };
        assert!(prohibit_count(Activity::Spam) >= prohibit_count(Activity::PornWithoutNsfw));
        assert!(
            prohibit_count(Activity::PornWithoutNsfw) >= prohibit_count(Activity::NudityWithNsfw)
        );
    }

    #[test]
    fn ips_unique() {
        let s = stage(1000, 11);
        let mut ips: Vec<u32> = s.instances.iter().map(|i| i.ip).collect();
        ips.sort_unstable();
        let before = ips.len();
        ips.dedup();
        assert_eq!(ips.len(), before, "duplicate IPs allocated");
    }

    #[test]
    fn country_shares_roughly_match() {
        let s = stage(4000, 13);
        let jp = s
            .instances
            .iter()
            .filter(|i| i.country == Country::Japan)
            .count() as f64
            / 4000.0;
        let us = s
            .instances
            .iter()
            .filter(|i| i.country == Country::UnitedStates)
            .count() as f64
            / 4000.0;
        assert!(jp > 0.15 && jp < 0.40, "JP share {jp}");
        assert!(us > 0.12 && us < 0.35, "US share {us}");
        assert!(jp > us * 0.8, "JP should lead or tie US");
    }

    #[test]
    fn lets_encrypt_dominates() {
        let s = stage(2000, 17);
        let le = s
            .instances
            .iter()
            .filter(|i| i.certificate.ca == CertificateAuthority::LetsEncrypt)
            .count() as f64
            / 2000.0;
        assert!(le > 0.8, "Let's Encrypt share {le}");
    }

    #[test]
    fn top10_carry_paper_domains() {
        let s = stage(500, 19);
        let domains: Vec<&str> = s.instances.iter().map(|i| i.domain.as_str()).collect();
        for (d, _) in TOP_DOMAINS {
            assert!(domains.contains(&d), "missing {d}");
        }
    }

    #[test]
    fn creation_cdf_has_plateau() {
        let s = stage(5000, 23);
        let count_in = |lo: u32, hi: u32| {
            s.instances
                .iter()
                .filter(|i| i.created.0 > lo && i.created.0 <= hi)
                .count() as f64
        };
        // Jul–Dec 2017 (days 81..264) should see far fewer creations per day
        // than H1 2018 (days 264..471).
        let plateau_rate = count_in(81, 264) / (264 - 81) as f64;
        let growth_rate = count_in(264, 471) / (471 - 264) as f64;
        assert!(
            growth_rate > 3.0 * plateau_rate,
            "plateau {plateau_rate} vs growth {growth_rate}"
        );
    }

    #[test]
    fn popularity_positive_and_skewed() {
        let s = stage(1000, 29);
        assert!(s.popularity.iter().all(|&w| w > 0.0));
        let mut sorted = s.popularity.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = sorted.iter().sum();
        let top5: f64 = sorted[..50].iter().sum();
        assert!(top5 / total > 0.5, "top-5% weight share {}", top5 / total);
    }
}
