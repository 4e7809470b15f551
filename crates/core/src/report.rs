//! The paper report: [`Report`] holds every figure and table the `repro`
//! binary prints, each computed once, and the plain-text rendering of
//! figures, tables and verdicts shared by `repro`, the CLI and the
//! examples.

use crate::availability::{
    self, Fig07Downtime, Fig08DailyDowntime, Fig09Certificates, Fig10Outages, Section4,
};
use crate::content::{self, Fig14RemoteRatio, Fig15Replication, Fig16RandomReplication};
use crate::delivery::Section3Live;
use crate::graphs::{self, Fig11Degrees, Fig12UserRemoval, Fig13FederationRemoval, Table2Row};
use crate::observatory::Observatory;
use crate::population::{
    self, Fig01Growth, Fig02OpenClosed, Fig03Categories, Fig04Policies, Fig05Hosting,
    Fig06CountryLinks,
};
use crate::scenarios::Section5Scenarios;
use crate::verdicts::Verdict;
use fediscope_monitor::asn::AsFailureRow;
use std::fmt::Write as _;

/// Every figure and table of the report, in the order [`Report::render`]
/// prints them. [`crate::verdicts::evaluate`] judges these values.
#[derive(Debug, Clone)]
pub struct Report {
    /// Fig. 1: growth over time.
    pub fig01: Fig01Growth,
    /// Fig. 2: open vs closed registrations.
    pub fig02: Fig02OpenClosed,
    /// Fig. 3: instance categories.
    pub fig03: Fig03Categories,
    /// Fig. 4: activity policies.
    pub fig04: Fig04Policies,
    /// Fig. 5: hosting countries and ASes.
    pub fig05: Fig05Hosting,
    /// Fig. 6: federation links between countries.
    pub fig06: Fig06CountryLinks,
    /// Figs. 7, 8, 10 and Table 1, from one §4 sweep.
    pub section4: Section4,
    /// Fig. 9: certificates.
    pub fig09: Fig09Certificates,
    /// Fig. 11: out-degree distributions.
    pub fig11: Fig11Degrees,
    /// Table 2: top instances by home toots.
    pub table2: Vec<Table2Row>,
    /// Fig. 12: top-1% user removal; `None` in a fast report.
    pub fig12: Option<Fig12UserRemoval>,
    /// Fig. 13: federation-graph resilience; `None` in a fast report.
    pub fig13: Option<Fig13FederationRemoval>,
    /// Fig. 14: home vs remote toots.
    pub fig14: Fig14RemoteRatio,
    /// Fig. 15: toot availability under failures; `None` in a fast report.
    pub fig15: Option<Fig15Replication>,
    /// Fig. 16: random replication; `None` in a fast report.
    pub fig16: Option<Fig16RandomReplication>,
}

impl Report {
    /// Compute every figure once. Parameters scale with the world's
    /// instance count `n`: Fig. 1 samples every 30th day; Table 1 counts
    /// ASes of at least 8 instances when `n >= 2000` (3 below); Fig. 8
    /// keeps every day; Fig. 12 runs 15 rounds; Fig. 13 removes up to
    /// `(n / 5).max(10)` instances and 20 ASes; Fig. 15 removes 30
    /// instances and 20 ASes; Fig. 16 removes 25 instances. `fast` skips
    /// the heavy §5 sweeps (Figs. 12, 13, 15, 16).
    pub fn compute(obs: &Observatory, fast: bool) -> Report {
        let n = obs.world.instances.len();
        let table1_min = if n >= 2000 { 8 } else { 3 };
        let full = !fast;
        Report {
            fig01: population::fig01_growth(obs, 30),
            fig02: population::fig02_open_closed(obs),
            fig03: population::fig03_categories(obs),
            fig04: population::fig04_policies(obs),
            fig05: population::fig05_hosting(obs),
            fig06: population::fig06_country_links(obs),
            section4: availability::section4_sweep(obs, table1_min),
            fig09: availability::fig09_certificates(obs),
            fig11: graphs::fig11_degrees(obs),
            table2: graphs::table2_top_instances(obs),
            fig12: full.then(|| graphs::fig12_user_removal(obs, 15)),
            fig13: full.then(|| graphs::fig13_federation_removal(obs, (n / 5).max(10), 20)),
            fig14: content::fig14_remote_ratio(obs),
            fig15: full.then(|| content::fig15_replication(obs, 30, 20)),
            fig16: full.then(|| content::fig16_random_replication(obs, 25)),
        }
    }

    /// The report text: each section the report holds, in paper order,
    /// followed by a blank line.
    pub fn render(&self) -> String {
        let s4 = &self.section4;
        [
            Some(render_fig01(&self.fig01)),
            Some(render_fig02(&self.fig02)),
            Some(render_fig03(&self.fig03)),
            Some(render_fig04(&self.fig04)),
            Some(render_fig05(&self.fig05)),
            Some(render_fig06(&self.fig06)),
            Some(render_fig07(&s4.fig07)),
            Some(render_fig08(&s4.fig08)),
            Some(render_fig09(&self.fig09)),
            Some(render_table1(&s4.table1)),
            Some(render_fig10(&s4.fig10)),
            Some(render_fig11(&self.fig11)),
            Some(render_table2(&self.table2)),
            self.fig12.as_ref().map(render_fig12),
            self.fig13.as_ref().map(render_fig13),
            Some(render_fig14(&self.fig14)),
            self.fig15.as_ref().map(render_fig15),
            self.fig16.as_ref().map(render_fig16),
        ]
        .into_iter()
        .flatten()
        .map(|section| section + "\n")
        .collect()
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "{cell:<w$}  ");
        }
        out.push('\n');
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    render_row(&headers_owned, &widths, &mut out);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render_row(&rule, &widths, &mut out);
    for row in rows {
        render_row(row, &widths, &mut out);
    }
    out
}

/// Render Fig. 1.
pub fn render_fig01(f: &Fig01Growth) -> String {
    let rows: Vec<Vec<String>> = f
        .samples
        .iter()
        .map(|(d, p)| {
            vec![
                fediscope_model::time::Day(*d).iso(),
                p.instances.to_string(),
                p.users.to_string(),
                p.toots.to_string(),
            ]
        })
        .collect();
    format!(
        "Figure 1 — growth over time\n{}\nplateau: instances {} vs users {}; H1-2018 instance growth {}\n",
        table(&["date", "instances up", "users", "toots"], &rows),
        pct(f.plateau_instance_growth),
        pct(f.plateau_user_growth),
        pct(f.h1_2018_instance_growth),
    )
}

/// Render Fig. 2.
pub fn render_fig02(f: &Fig02OpenClosed) -> String {
    format!(
        "Figure 2 — open vs closed registrations\n\
         instances open {} | users on open {} | toots on open {}\n\
         mean users: open {:.1} vs closed {:.1}\n\
         toots per capita: open {:.1} vs closed {:.1}\n\
         top-5% instances hold {} of users, {} of toots\n\
         median weekly activity: open {} vs closed {}\n",
        pct(f.open_instance_share),
        pct(f.open_user_share),
        pct(f.open_toot_share),
        f.mean_users.0,
        f.mean_users.1,
        f.toots_per_capita.0,
        f.toots_per_capita.1,
        pct(f.top5_user_share),
        pct(f.top5_toot_share),
        f.activity_open
            .median()
            .map(|m| format!("{m:.0}%"))
            .unwrap_or_default(),
        f.activity_closed
            .median()
            .map(|m| format!("{m:.0}%"))
            .unwrap_or_default(),
    )
}

/// Render Fig. 3.
pub fn render_fig03(f: &Fig03Categories) -> String {
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.category.label().to_string(),
                pct(r.instance_share),
                pct(r.toot_share),
                pct(r.user_share),
            ]
        })
        .collect();
    format!(
        "Figure 3 — categories ({} declaring instances; {} of users, {} of toots)\n{}",
        f.declaring_instances,
        pct(f.declared_user_share),
        pct(f.declared_toot_share),
        table(&["category", "instances", "toots", "users"], &rows),
    )
}

/// Render Fig. 4.
pub fn render_fig04(f: &Fig04Policies) -> String {
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.activity.label().to_string(),
                pct(r.prohibited_share),
                pct(r.allowed_share),
                pct(r.allowing_user_share),
                pct(r.allowing_toot_share),
            ]
        })
        .collect();
    format!(
        "Figure 4 — activity policies (allow-all {}, ≥1 prohibition {}, ≥1 permission {})\n{}",
        pct(f.allow_all_share),
        pct(f.some_prohibition_share),
        pct(f.some_permission_share),
        table(
            &[
                "activity",
                "prohibited",
                "allowed",
                "users@allowed",
                "toots@allowed"
            ],
            &rows
        ),
    )
}

/// Render Fig. 5.
pub fn render_fig05(f: &Fig05Hosting) -> String {
    let mk = |rows: &[crate::population::HostingRow]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    pct(r.instance_share),
                    pct(r.user_share),
                    pct(r.toot_share),
                ]
            })
            .collect()
    };
    format!(
        "Figure 5 — hosting ({} distinct ASes; top-3 ASes hold {} of users)\nTop countries:\n{}Top ASes (by users):\n{}",
        f.distinct_ases,
        pct(f.top3_as_user_share),
        table(&["country", "instances", "users", "toots"], &mk(&f.countries)),
        table(&["AS", "instances", "users", "toots"], &mk(&f.ases)),
    )
}

/// Render Fig. 6.
pub fn render_fig06(f: &Fig06CountryLinks) -> String {
    use fediscope_model::geo::Country;
    let mut rows = Vec::new();
    for (a, row) in f.matrix.iter().enumerate() {
        let total: f64 = row.iter().sum();
        if total < 1e-12 {
            continue;
        }
        let mut cells = vec![Country::ALL[a].code().to_string()];
        cells.extend(row.iter().map(|&v| pct(v)));
        rows.push(cells);
    }
    let mut headers = vec!["from\\to"];
    headers.extend(Country::ALL.iter().map(|c| c.code()));
    format!(
        "Figure 6 — federation links between countries (same-country {}, top-5 destinations {})\n{}",
        pct(f.same_country_share),
        pct(f.top5_destination_share),
        table(&headers, &rows),
    )
}

/// Render Fig. 7.
pub fn render_fig07(f: &Fig07Downtime) -> String {
    format!(
        "Figure 7 — instance downtime\n\
         <5% downtime: {} of instances | >50%: {} | ≥99.5% uptime: {} | mean {}\n\
         exposure when failing (median): {:.0} users, {:.0} toots, {:.0} boosts\n",
        pct(f.headlines.below_5pct),
        pct(f.headlines.above_50pct),
        pct(f.headlines.high_avail),
        pct(f.headlines.mean),
        f.users_exposure.median().unwrap_or(0.0),
        f.toots_exposure.median().unwrap_or(0.0),
        f.boosts_exposure.median().unwrap_or(0.0),
    )
}

/// Render Fig. 8.
pub fn render_fig08(f: &Fig08DailyDowntime) -> String {
    let rows: Vec<Vec<String>> = f
        .bins
        .iter()
        .map(|(bin, stats)| match stats {
            Some(s) => vec![bin.label().to_string(), pct(s.median), pct(s.q1), pct(s.q3)],
            None => vec![bin.label().to_string(), "-".into(), "-".into(), "-".into()],
        })
        .collect();
    format!(
        "Figure 8 — per-day downtime by size (Mastodon mean {}, Twitter 2007 mean {}; size correlation {:.3})\n{}",
        pct(f.mastodon_mean),
        pct(f.twitter_mean),
        f.size_correlation.unwrap_or(0.0),
        table(&["toot bin", "median", "q1", "q3"], &rows),
    )
}

/// Render Fig. 9.
pub fn render_fig09(f: &Fig09Certificates) -> String {
    let rows: Vec<Vec<String>> = f
        .footprint
        .iter()
        .map(|(ca, share)| vec![ca.name().to_string(), pct(*share)])
        .collect();
    format!(
        "Figure 9 — certificates\n{}\
         expiry outages: {} of {} outages attributed ({}); worst day {} with {} instances down ({} toots)\n",
        table(&["CA", "instances"], &rows),
        f.outages.attributed,
        f.outages.total_outages,
        pct(f.outages.attributed_fraction()),
        f.outages.worst_day,
        f.outages.worst_day_count(),
        f.outages.worst_day_toots,
    )
}

/// Render Table 1.
pub fn render_table1(rows: &[AsFailureRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.asn.to_string(),
                r.instances.to_string(),
                r.failures.to_string(),
                r.ips.to_string(),
                r.users.to_string(),
                r.toots.to_string(),
                r.org.clone(),
                r.rank.to_string(),
                r.peers.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 1 — AS failures\n{}",
        table(
            &[
                "ASN",
                "Instances",
                "Failures",
                "IPs",
                "Users",
                "Toots",
                "Org.",
                "Rank",
                "Peers"
            ],
            &body
        ),
    )
}

/// Render the live §3 delivery-simulator result: load concentration on
/// the clean run, then the outage overlay's degradation and recovery.
pub fn render_section3_live(s: &Section3Live) -> String {
    let top5: Vec<Vec<String>> = s
        .load
        .top5
        .iter()
        .map(|&(inst, d)| {
            vec![
                inst.to_string(),
                d.to_string(),
                pct(if s.load.delivered_total > 0 {
                    d as f64 / s.load.delivered_total as f64
                } else {
                    0.0
                }),
            ]
        })
        .collect();
    format!(
        "Section 3 (live) — federation delivery under load\n\
         clean run : {} fanned out, {} delivered ({} prompt), amplification {:.3}\n\
         load share: top 1% of instances take {}, top 10% take {}\n\
         {}\
         outage run: {} refused while dark, {} extra redeliveries, {} deliveries delayed\n\
         amplification ×{:.2}, peak backlog {}, suspensions {} ({} recovered)\n\
         {}\n",
        s.clean.fanned_out,
        s.clean.delivered(),
        s.clean.delivered_prompt,
        s.clean.amplification,
        pct(s.load.top1pct_share),
        pct(s.load.top10pct_share),
        table(&["Instance", "Delivered", "Share"], &top5),
        s.degradation.rejected_down,
        s.degradation.extra_redeliveries,
        s.degradation.extra_delayed,
        s.degradation.amplification_ratio,
        s.degradation.peak_backlog,
        s.degradation.suspensions,
        s.degradation.recovered_suspensions,
        if s.degradation.healed {
            format!(
                "healed: every queue drained {} ticks past the horizon",
                s.degradation.time_to_drain
            )
        } else {
            format!(
                "did NOT heal: {} messages still stranded when the drain budget expired",
                s.outage.undeliverable
            )
        },
    )
}

/// Render Fig. 10.
pub fn render_fig10(f: &Fig10Outages) -> String {
    format!(
        "Figure 10 — continuous outages\n\
         ≥1 outage: {} | ≥1 day: {} | >1 month: {}\n\
         day-plus outages strand {} users and {} toots\n\
         worst whole-day blackout: {} with {} of global toots dark\n",
        pct(f.any_outage_frac),
        pct(f.day_plus_frac),
        pct(f.month_plus_frac),
        f.users_affected,
        f.toots_affected,
        f.worst_day.0,
        pct(f.worst_day.1),
    )
}

/// Render Fig. 11.
pub fn render_fig11(f: &Fig11Degrees) -> String {
    let q = |e: &fediscope_stats::Ecdf, q: f64| e.quantile(q).unwrap_or(0.0);
    format!(
        "Figure 11 — out-degree distributions (median / p90 / p99 / max)\n\
         social     : {:.0} / {:.0} / {:.0} / {:.0}  (alpha {})\n\
         federation : {:.0} / {:.0} / {:.0} / {:.0}\n\
         twitter    : {:.0} / {:.0} / {:.0} / {:.0}  (alpha {})\n",
        q(&f.social, 0.5),
        q(&f.social, 0.9),
        q(&f.social, 0.99),
        f.social.max().unwrap_or(0.0),
        f.social_fit
            .map(|p| format!("{:.2}", p.alpha))
            .unwrap_or_default(),
        q(&f.federation, 0.5),
        q(&f.federation, 0.9),
        q(&f.federation, 0.99),
        f.federation.max().unwrap_or(0.0),
        q(&f.twitter, 0.5),
        q(&f.twitter, 0.9),
        q(&f.twitter, 0.99),
        f.twitter.max().unwrap_or(0.0),
        f.twitter_fit
            .map(|p| format!("{:.2}", p.alpha))
            .unwrap_or_default(),
    )
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.home_toots.to_string(),
                r.users.to_string(),
                r.fed_out_degree.to_string(),
                r.fed_in_degree.to_string(),
                format!("{:?}", r.operator),
                format!("{} ({})", r.as_org, r.country),
            ]
        })
        .collect();
    format!(
        "Table 2 — top 10 instances by home toots\n{}",
        table(
            &[
                "Domain",
                "Toots",
                "Users",
                "OD",
                "ID",
                "Run by",
                "AS (Country)"
            ],
            &body
        ),
    )
}

/// Render Fig. 12.
pub fn render_fig12(f: &Fig12UserRemoval) -> String {
    let mut rows = Vec::new();
    for (m, t) in f.mastodon.iter().zip(&f.twitter) {
        rows.push(vec![
            m.removed.to_string(),
            pct(m.lcc_node_frac),
            m.wcc_count.to_string(),
            pct(t.lcc_node_frac),
            t.wcc_count.to_string(),
        ]);
    }
    format!(
        "Figure 12 — iterative top-1% user removal (Mastodon vs Twitter)\n{}\
         headline: intact {} → after 1% {} (Twitter after 10%: {})\n",
        table(
            &[
                "removed",
                "mastodon LCC",
                "components",
                "twitter LCC",
                "components"
            ],
            &rows
        ),
        pct(f.mastodon_initial_lcc),
        pct(f.mastodon_after_1pct),
        pct(f.twitter_after_10pct),
    )
}

/// Render Fig. 13 (sampled rows to keep output readable).
pub fn render_fig13(f: &Fig13FederationRemoval) -> String {
    let sample = |points: &[fediscope_graph::SweepPoint]| -> Vec<Vec<String>> {
        let stride = (points.len() / 10).max(1);
        points
            .iter()
            .step_by(stride)
            .map(|p| {
                vec![
                    if p.groups_removed > 0 {
                        p.groups_removed.to_string()
                    } else {
                        p.removed.to_string()
                    },
                    pct(p.lcc_node_frac),
                    pct(p.lcc_weight_frac),
                    p.wcc_count.to_string(),
                ]
            })
            .collect()
    };
    format!(
        "Figure 13 — federation-graph resilience (intact LCC: {} of instances, {} of users)\n\
         (a) top-N instance removal by users:\n{}\
         (b) AS removal by instances hosted:\n{}\
         (b') AS removal by users hosted:\n{}",
        pct(f.initial_lcc_instances),
        pct(f.initial_lcc_users),
        table(
            &["removed", "LCC inst", "LCC users", "components"],
            &sample(&f.by_instance_users)
        ),
        table(
            &["ASes", "LCC inst", "LCC users", "components"],
            &sample(&f.by_as_instances)
        ),
        table(
            &["ASes", "LCC inst", "LCC users", "components"],
            &sample(&f.by_as_users)
        ),
    )
}

/// Render Fig. 14.
pub fn render_fig14(f: &Fig14RemoteRatio) -> String {
    format!(
        "Figure 14 — home vs remote toots on federated timelines\n\
         instances producing <10% of their own timeline: {}\n\
         fully remote timelines: {}\n\
         production↔replication correlation: {:.3}\n",
        pct(f.below_10pct_frac),
        pct(f.fully_remote_frac),
        f.production_replication_corr.unwrap_or(0.0),
    )
}

/// Render Fig. 15.
pub fn render_fig15(f: &Fig15Replication) -> String {
    format!(
        "Figure 15 — toot availability under failures\n\
         no replication   : top-10 instances remove {} | top-10 ASes remove {}\n\
         subscription rep.: top-10 instances remove {} | top-10 ASes remove {}\n",
        pct(f.none_top10_instance_loss),
        pct(f.none_top10_as_loss),
        pct(f.sub_top10_instance_loss),
        pct(f.sub_top10_as_loss),
    )
}

/// Render Fig. 16.
pub fn render_fig16(f: &Fig16RandomReplication) -> String {
    let k = f.none.len() - 1;
    let mut rows = vec![
        vec!["No-Rep".to_string(), pct(f.none[k].availability)],
        vec!["S-Rep".to_string(), pct(f.subscription[k].availability)],
    ];
    for (n, curve) in &f.random {
        rows.push(vec![format!("n = {n}"), pct(curve[k].availability)]);
    }
    format!(
        "Figure 16 — random replication (availability after {} removals)\n{}\
         unreplicated toots (no followers): {} | >10 replicas: {}\n",
        k,
        table(&["strategy", "availability"], &rows),
        pct(f.unreplicated_frac),
        pct(f.over10_frac),
    )
}

/// Render the replication strategy frontier: per scenario (row) and
/// strategy (column), final availability at the cell's storage cost
/// (`avail @ cost× copies per toot`).
pub fn render_section5_scenarios(s: &Section5Scenarios) -> String {
    let mut headers = vec!["scenario"];
    for c in &s.grid.cols {
        headers.push(c.as_str());
    }
    let rows: Vec<Vec<String>> = s
        .grid
        .rows
        .iter()
        .enumerate()
        .map(|(r, label)| {
            let mut row = vec![label.clone()];
            for c in 0..s.grid.cols.len() {
                let cell = s.grid.get(r, c);
                row.push(format!(
                    "{} @ {:.2}x",
                    pct(cell.availability),
                    cell.storage_cost
                ));
            }
            row
        })
        .collect();
    format!(
        "Section 5 (scenarios) — replication strategy frontier\n\
         (availability after the scenario's final step @ stored copies per toot; seed {})\n{}",
        s.seed,
        table(&headers, &rows),
    )
}

/// Render the verdict table.
pub fn render_verdicts(verdicts: &[Verdict]) -> String {
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            vec![
                if v.pass { "PASS" } else { "FAIL" }.to_string(),
                v.id.to_string(),
                format!("{:.3}", v.paper),
                format!("{:.3}", v.measured),
                v.claim.to_string(),
            ]
        })
        .collect();
    table(&["", "check", "paper", "measured", "claim"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.062), "6.2%");
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "bbbb"],
            &[
                vec!["xxxxx".into(), "y".into()],
                vec!["z".into(), "w".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows equal width up to trailing spaces
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn render_smoke() {
        use fediscope_worldgen::{Generator, WorldConfig};
        let obs = crate::Observatory::new(Generator::generate_world(WorldConfig::tiny(99)));
        // every renderer must produce non-empty output without panicking
        assert!(!render_fig01(&crate::population::fig01_growth(&obs, 60)).is_empty());
        assert!(!render_fig02(&crate::population::fig02_open_closed(&obs)).is_empty());
        assert!(!render_fig03(&crate::population::fig03_categories(&obs)).is_empty());
        assert!(!render_fig04(&crate::population::fig04_policies(&obs)).is_empty());
        assert!(!render_fig05(&crate::population::fig05_hosting(&obs)).is_empty());
        assert!(!render_fig06(&crate::population::fig06_country_links(&obs)).is_empty());
        let s4 = crate::availability::section4_sweep(&obs, 2);
        assert!(!render_fig07(&s4.fig07).is_empty());
        assert!(!render_fig08(&s4.fig08).is_empty());
        assert!(!render_fig09(&crate::availability::fig09_certificates(&obs)).is_empty());
        assert!(!render_table1(&s4.table1).is_empty());
        assert!(!render_fig10(&s4.fig10).is_empty());
        assert!(!render_fig11(&crate::graphs::fig11_degrees(&obs)).is_empty());
        assert!(!render_table2(&crate::graphs::table2_top_instances(&obs)).is_empty());
        assert!(!render_fig12(&crate::graphs::fig12_user_removal(&obs, 3)).is_empty());
        assert!(!render_fig13(&crate::graphs::fig13_federation_removal(&obs, 10, 5)).is_empty());
        assert!(!render_fig14(&crate::content::fig14_remote_ratio(&obs)).is_empty());
        assert!(!render_fig15(&crate::content::fig15_replication(&obs, 10, 5)).is_empty());
        assert!(!render_fig16(&crate::content::fig16_random_replication(&obs, 10)).is_empty());
        let s5 = crate::scenarios::section5_scenarios(
            &obs,
            &[
                fediscope_replication::scenario::ScenarioSpec::AsSharedFate(3),
                fediscope_replication::scenario::ScenarioSpec::CertCascade(4),
            ],
            &crate::scenarios::frontier_strategies(),
            7,
            None,
        );
        let text = render_section5_scenarios(&s5);
        assert!(text.contains("replication strategy frontier"));
        assert!(text.contains("as-fate(3)"));
        assert!(text.contains("k-of-n(2/4)"));
        assert!(text.contains("@"));
    }

    #[test]
    fn render_section3_live_smoke() {
        use fediscope_simnet::fedsim::OverlaySpec;
        use fediscope_simnet::FedSimConfig;
        use fediscope_worldgen::{toots, Generator, WorldConfig};
        let wcfg = WorldConfig::tiny(99);
        let world = Generator::generate_world(wcfg.clone());
        let arena = toots::generate(&wcfg, &world.users, 32, 8.0);
        let obs = crate::Observatory::new(world);
        let mut clean = FedSimConfig::new(5);
        clean.drain_epochs = 64;
        let mut outage = clean.clone();
        outage.overlay = OverlaySpec::TopAsOutage(2, 4, 16);
        let s3 = crate::delivery::section3_live(&obs, &arena, clean, outage);
        let text = render_section3_live(&s3);
        assert!(text.contains("Section 3 (live)"));
        assert!(text.contains("load share"));
        assert!(text.contains("outage run"));
    }
}
