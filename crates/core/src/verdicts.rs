//! Automated paper-vs-measured shape checks.
//!
//! Each verdict encodes one quantitative claim from the paper, the value we
//! measure on the synthetic world, and whether the *qualitative* claim
//! (ordering, factor, threshold) holds. Absolute agreement is not expected —
//! the substrate is synthetic — but every headline narrative of the paper
//! must replicate in direction and rough magnitude.
//!
//! The verdicts read a computed [`Report`], the same values the report
//! renders; they compute no figure themselves.

use crate::report::Report;
use fediscope_model::taxonomy::Category;

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Short identifier (`fig02.top5_users`, …).
    pub id: &'static str,
    /// The paper's claim, verbatim-ish.
    pub claim: &'static str,
    /// The paper's number.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Whether the qualitative claim holds.
    pub pass: bool,
}

/// Judge every figure `report` holds: a fast report (see
/// [`Report::compute`]) has no Figs. 12, 15 or 16, and so none of their
/// checks.
pub fn evaluate(report: &Report) -> Vec<Verdict> {
    let mut out = Vec::new();
    let mut check = |id, claim, paper: f64, measured: f64, pass: bool| {
        out.push(Verdict {
            id,
            claim,
            paper,
            measured,
            pass,
        });
    };

    // --- §4.1 ---------------------------------------------------------------
    let f2 = &report.fig02;
    check(
        "fig02.top5_users",
        "top 5% of instances hold 90.6% of users",
        0.906,
        f2.top5_user_share,
        f2.top5_user_share > 0.6,
    );
    check(
        "fig02.top5_toots",
        "top 5% of instances hold 94.8% of toots",
        0.948,
        f2.top5_toot_share,
        f2.top5_toot_share > 0.6,
    );
    check(
        "fig02.open_mean_users",
        "open instances average 613 users vs 87 for closed",
        613.0 / 87.0,
        f2.mean_users.0 / f2.mean_users.1.max(1e-9),
        f2.mean_users.0 > 2.0 * f2.mean_users.1,
    );
    check(
        "fig02.closed_toots_per_capita",
        "closed-instance users toot more (186.65 vs 94.8)",
        186.65 / 94.8,
        f2.toots_per_capita.1 / f2.toots_per_capita.0.max(1e-9),
        f2.toots_per_capita.1 > f2.toots_per_capita.0,
    );
    check(
        "fig02.activity_medians",
        "median weekly activity: 75% closed vs 50% open",
        75.0 / 50.0,
        f2.activity_closed.median().unwrap_or(0.0)
            / f2.activity_open.median().unwrap_or(1.0).max(1e-9),
        f2.activity_closed.median() > f2.activity_open.median(),
    );

    // --- §4.2 ---------------------------------------------------------------
    // The categorised population is a ~16% subset; below ~30 declaring
    // instances the shares are dominated by one or two servers and the
    // checks become vacuous (0/0 ratios), so they auto-pass on micro worlds.
    let f3 = &report.fig03;
    let cat = |c: Category| f3.rows.iter().find(|r| r.category == c).unwrap();
    let fig03_meaningful = f3.declaring_instances >= 30;
    check(
        "fig03.adult_users",
        "adult: 12.3% of instances but 61% of users",
        61.03 / 12.3,
        cat(Category::Adult).user_share / cat(Category::Adult).instance_share.max(1e-9),
        !fig03_meaningful
            || cat(Category::Adult).user_share > 2.0 * cat(Category::Adult).instance_share,
    );
    check(
        "fig03.tech_under_toots",
        "tech: 55.2% of instances but only 24.5% of toots",
        24.5 / 55.2,
        cat(Category::Tech).toot_share / cat(Category::Tech).instance_share.max(1e-9),
        !fig03_meaningful || cat(Category::Tech).toot_share < cat(Category::Tech).instance_share,
    );

    // --- §4.3 ---------------------------------------------------------------
    let f5 = &report.fig05;
    check(
        "fig05.top3_as_users",
        "top 3 ASes host ~62% of users",
        0.62,
        f5.top3_as_user_share,
        f5.top3_as_user_share > 0.35,
    );
    let jp = f5
        .countries
        .iter()
        .find(|c| c.name == "Japan")
        .map(|c| c.user_share)
        .unwrap_or(0.0);
    check(
        "fig05.japan_users",
        "Japan hosts a quarter of instances but 41% of users",
        0.41,
        jp,
        jp > 0.2,
    );
    let f6 = &report.fig06;
    check(
        "fig06.same_country",
        "32% of federation links are same-country",
        0.32,
        f6.same_country_share,
        (0.1..0.7).contains(&f6.same_country_share),
    );

    // --- §4.4 ---------------------------------------------------------------
    let f7 = &report.section4.fig07;
    check(
        "fig07.below_5pct",
        "about half the instances have <5% downtime",
        0.5,
        f7.headlines.below_5pct,
        (0.3..0.75).contains(&f7.headlines.below_5pct),
    );
    check(
        "fig07.above_50pct",
        "11% of instances are down more than half the time",
        0.11,
        f7.headlines.above_50pct,
        (0.02..0.3).contains(&f7.headlines.above_50pct),
    );
    let f8 = &report.section4.fig08;
    check(
        "fig08.twitter_contrast",
        "Twitter 2007 downtime 1.25% vs Mastodon 10.95%",
        10.95 / 1.25,
        f8.mastodon_mean / f8.twitter_mean.max(1e-9),
        f8.mastodon_mean > 2.0 * f8.twitter_mean,
    );
    check(
        "fig08.size_correlation",
        "toots-vs-downtime correlation is −0.04 (no predictive power)",
        -0.04,
        f8.size_correlation.unwrap_or(0.0),
        f8.size_correlation.unwrap_or(0.0).abs() < 0.4,
    );
    let f10 = &report.section4.fig10;
    check(
        "fig10.any_outage",
        "98% of instances go down at least once",
        0.98,
        f10.any_outage_frac,
        f10.any_outage_frac > 0.85,
    );
    check(
        "fig10.day_plus",
        "a quarter of instances have a ≥1-day outage",
        0.25,
        f10.day_plus_frac,
        (0.05..0.5).contains(&f10.day_plus_frac),
    );
    check(
        "fig10.month_plus",
        "7% of instances have a >1-month outage",
        0.07,
        f10.month_plus_frac,
        f10.month_plus_frac > 0.005 && f10.month_plus_frac < f10.day_plus_frac,
    );

    // --- §5.2 (cheap parts) --------------------------------------------------
    let f14 = &report.fig14;
    check(
        "fig14.feeder_dependence",
        "78% of instances produce <10% of their own federated timeline",
        0.78,
        f14.below_10pct_frac,
        f14.below_10pct_frac > 0.3,
    );
    check(
        "fig14.production_corr",
        "toot production correlates 0.97 with replication volume",
        0.97,
        f14.production_replication_corr.unwrap_or(0.0),
        f14.production_replication_corr.unwrap_or(0.0) > 0.5,
    );

    // --- §5.1 (sweeps) -------------------------------------------------------
    if let Some(f12) = &report.fig12 {
        check(
            "fig12.initial_lcc",
            "99.95% of users sit in the LCC",
            0.9995,
            f12.mastodon_initial_lcc,
            f12.mastodon_initial_lcc > 0.98,
        );
        check(
            "fig12.shatter",
            "removing the top 1% of users shrinks the LCC to 26.38%",
            0.2638,
            f12.mastodon_after_1pct,
            f12.mastodon_after_1pct < 0.65,
        );
        check(
            "fig12.twitter_robust",
            "Twitter keeps 80% of its LCC after removing the top 10%",
            0.80,
            f12.twitter_after_10pct,
            f12.twitter_after_10pct > 0.55 && f12.twitter_after_10pct > f12.mastodon_after_1pct,
        );
    }

    // --- §5.2 (availability sweeps) -------------------------------------------
    if let Some(f15) = &report.fig15 {
        check(
            "fig15.none_top10_instances",
            "removing the top 10 instances deletes 62.69% of toots",
            0.6269,
            f15.none_top10_instance_loss,
            f15.none_top10_instance_loss > 0.3,
        );
        check(
            "fig15.sub_rescue",
            "with subscription replication only 2.1% of toots are lost",
            0.021,
            f15.sub_top10_instance_loss,
            f15.sub_top10_instance_loss < f15.none_top10_instance_loss * 0.75,
        );
        check(
            "fig15.as_worse",
            "removing the top 10 ASes deletes 90.1% of toots (no replication)",
            0.901,
            f15.none_top10_as_loss,
            f15.none_top10_as_loss >= f15.none_top10_instance_loss - 0.05,
        );
    }
    if let Some(f16) = &report.fig16 {
        let n1_final = f16
            .random
            .iter()
            .find(|(n, _)| *n == 1)
            .map(|(_, c)| c.last().unwrap().availability)
            .unwrap_or(0.0);
        let sub_final = f16.subscription.last().unwrap().availability;
        check(
            "fig16.random_beats_sub",
            "after 25 removals: random n=1 99.2% vs subscription 95%",
            0.992 / 0.95,
            n1_final / sub_final.max(1e-9),
            n1_final >= sub_final - 0.02,
        );
        check(
            "fig16.unreplicated",
            "9.7% of toots have no subscription replicas",
            0.097,
            f16.unreplicated_frac,
            f16.unreplicated_frac > 0.0 && f16.unreplicated_frac < 0.6,
        );
    }

    out
}

/// Count failures.
pub fn failed(verdicts: &[Verdict]) -> usize {
    verdicts.iter().filter(|v| !v.pass).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observatory;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn report(cfg: WorldConfig, fast: bool) -> Report {
        Report::compute(&Observatory::new(Generator::generate_world(cfg)), fast)
    }

    #[test]
    fn fast_suite_passes_on_default_world() {
        let verdicts = evaluate(&report(WorldConfig::small(42), true));
        assert_eq!(verdicts.len(), 19);
        let failures: Vec<&Verdict> = verdicts.iter().filter(|v| !v.pass).collect();
        assert!(
            failures.is_empty(),
            "failed verdicts: {:?}",
            failures.iter().map(|v| v.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_suite_passes_on_default_world() {
        let verdicts = evaluate(&report(WorldConfig::small(42), false));
        assert_eq!(verdicts.len(), 27);
        let failures: Vec<&str> = verdicts.iter().filter(|v| !v.pass).map(|v| v.id).collect();
        assert!(failures.is_empty(), "failed verdicts: {failures:?}");
    }

    #[test]
    fn verdicts_judge_the_report() {
        // The measured values are the report's own, not a recomputation.
        let report = report(WorldConfig::small(42), false);
        let verdicts = evaluate(&report);
        let measured = |id| verdicts.iter().find(|v| v.id == id).unwrap().measured;
        let f8 = &report.section4.fig08;
        assert_eq!(
            measured("fig08.twitter_contrast"),
            f8.mastodon_mean / f8.twitter_mean
        );
        assert_eq!(
            measured("fig12.shatter"),
            report.fig12.as_ref().unwrap().mastodon_after_1pct
        );
        assert_eq!(
            measured("fig07.below_5pct"),
            report.section4.fig07.headlines.below_5pct
        );
    }

    #[test]
    fn verdicts_stable_across_seeds() {
        for seed in [7u64, 1234] {
            let verdicts = evaluate(&report(WorldConfig::small(seed), true));
            let failures: Vec<&str> = verdicts.iter().filter(|v| !v.pass).map(|v| v.id).collect();
            assert!(failures.is_empty(), "seed {seed}: failed {failures:?}");
        }
    }
}
