//! Cross-crate determinism: the whole stack — generation, analysis,
//! verdicts — is a pure function of the seed.

use fediscope::core::{verdicts, Observatory, Report};
use fediscope::prelude::*;

#[test]
fn same_seed_same_world_same_verdicts() {
    let a = Generator::generate_world(WorldConfig::tiny(77));
    let b = Generator::generate_world(WorldConfig::tiny(77));
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.users, b.users);
    assert_eq!(a.follows, b.follows);
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.twitter, b.twitter);

    let va = verdicts::evaluate(&Report::compute(&Observatory::new(a), true));
    let vb = verdicts::evaluate(&Report::compute(&Observatory::new(b), true));
    for (x, y) in va.iter().zip(&vb) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.measured, y.measured, "verdict {} diverged", x.id);
        assert_eq!(x.pass, y.pass);
    }
}

#[test]
fn different_seeds_different_worlds_same_shapes() {
    // The *content* differs but the calibrated shapes hold at any seed.
    let a = Generator::generate_world(WorldConfig::tiny(1));
    let b = Generator::generate_world(WorldConfig::tiny(2));
    assert_ne!(a.follows, b.follows);

    for world in [a, b] {
        let obs = Observatory::new(world);
        let f2 = fediscope::core::population::fig02_open_closed(&obs);
        assert!(f2.top5_user_share > 0.5, "skew must hold at any seed");
    }
}
