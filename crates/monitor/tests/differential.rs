//! Differential tests: the columnar §4 engine (`MonitorSweep` over an
//! `OutageArena`) versus the kept naive per-schedule path, across random
//! worlds × shard counts — every figure, the blackout day, and every
//! Table 1 row must agree bit-for-bit.

use fediscope_model::certs::{Certificate, CertificateAuthority};
use fediscope_model::geo::{Country, ProviderCatalog};
use fediscope_model::ids::{AsId, InstanceId};
use fediscope_model::instance::{Instance, OperatorKind, Registration, Software};
use fediscope_model::schedule::{AvailabilitySchedule, OutageArena, OutageCause};
use fediscope_model::taxonomy::{CategorySet, PolicySet};
use fediscope_model::time::{Day, Epoch};
use fediscope_monitor::{naive_section4, MonitorSweep, SweepConfig};
use proptest::prelude::*;

fn mk_inst(i: u32, users: u32, toots: u64, asn: u32) -> Instance {
    Instance {
        id: InstanceId(i),
        domain: format!("i{i}"),
        software: Software::Mastodon,
        registration: Registration::Open,
        declares_categories: false,
        categories: CategorySet::empty(),
        policies: PolicySet::unstated(),
        country: Country::Japan,
        asn: AsId(asn),
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
        boosted_toots: toots / 10,
        active_user_pct: 50.0,
        crawl_allowed: true,
        private_toot_frac: 0.0,
    }
}

proptest! {
    /// Random synthetic worlds: per instance a random lifetime, outage
    /// soup, size, and AS assignment (few ASes, so Table 1 groups form);
    /// the sweep must equal the naive reference at 1/2/3/7 shards, and the
    /// counted sweep must equal it with Fig. 8's samples counted.
    #[test]
    fn sweep_equals_naive_everywhere(
        per_inst in proptest::collection::vec(
            ((0u32..460,          // created day
              0u32..900,          // retired day; ≥472 ⇒ never
              0u64..2_000_000),   // toot count (spans all four size bins)
             (0u32..4,            // AS assignment out of 3 small ASes
              proptest::collection::vec((0u32..135_000, 1u32..20_000), 0..10))),
            0..14),
    ) {
        let mut instances = Vec::new();
        let mut schedules = Vec::new();
        for (i, ((created, retired, toots), (asn, ivs))) in per_inst.into_iter().enumerate() {
            instances.push(mk_inst(i as u32, (toots / 100) as u32 + 1, toots, asn));
            let retired = (retired < 472).then(|| Day(created.max(retired)));
            let mut s = AvailabilitySchedule::new(Day(created), retired);
            for &(start, len) in &ivs {
                s.add_outage(Epoch(start), Epoch(start + len), OutageCause::Organic);
            }
            schedules.push(s);
        }
        let providers = ProviderCatalog::with_tail(6);
        let cfg = SweepConfig {
            min_as_instances: 2,
        };
        let naive = naive_section4(&instances, &schedules, &providers, &cfg);
        let arena = OutageArena::from_schedules(&schedules);
        for shards in [1usize, 2, 3, 7] {
            let sweep = MonitorSweep::new(&arena, &instances).with_shards(shards);
            let got = sweep.run(&providers, &cfg);
            prop_assert!(got == naive, "diverged at {} shards", shards);
            let counted = sweep.run_counted(&providers, &cfg);
            prop_assert!(
                counted == got.into_counted(),
                "counted run diverged at {} shards",
                shards
            );
        }
    }
}

/// End-to-end through the measurement side: ground truth → synthetic
/// 5-minute poll feed → batch reconstruction → columnar sweep. The sweep
/// over *observed* data must equal the naive path over the *reconstructed*
/// schedules (observation itself may legitimately differ from ground truth
/// — trailing failures become retirements).
#[test]
fn sweep_on_reconstructed_polls_matches_naive_on_them() {
    use fediscope_monitor::observe::{arena_from_polls_with_coverage, schedules_from_polls};
    use fediscope_worldgen::observatory::SyntheticObservatory;
    use fediscope_worldgen::{Generator, WorldConfig};

    let mut cfg = WorldConfig::tiny(47);
    cfg.n_instances = 40;
    cfg.n_users = 400;
    let w = Generator::generate_world(cfg);

    let obs = SyntheticObservatory::new(&w.schedules);
    let mut feed = Vec::with_capacity(w.schedules.len());
    obs.for_each_series(|_, s| feed.push(s.clone()));

    let reconstructed = schedules_from_polls(&feed);
    let arena = arena_from_polls_with_coverage(&feed).0;
    assert_eq!(arena, OutageArena::from_schedules(&reconstructed));

    let sweep_cfg = SweepConfig {
        min_as_instances: 2,
    };
    let naive = naive_section4(&w.instances, &reconstructed, &w.providers, &sweep_cfg);
    for shards in [1usize, 3] {
        let got = MonitorSweep::new(&arena, &w.instances)
            .with_shards(shards)
            .run(&w.providers, &sweep_cfg);
        assert!(got == naive, "observed-data sweep diverged at {shards} shards");
    }
}
