//! Outage postmortem: run the §4.4 availability analytics over a world's
//! 15-month history — downtime distribution, AS-wide co-failures (Table 1),
//! certificate-expiry attribution (Fig. 9b) and the worst blackout day.
//!
//! ```sh
//! cargo run --release --example outage_postmortem
//! ```

use fediscope::core::{availability, report, Observatory};
use fediscope::monitor::certs::attribute_cert_outages;
use fediscope::prelude::*;

fn main() {
    let world = Generator::generate_world(WorldConfig::small(2024));
    let obs = Observatory::new(world);
    // One sweep computes all of §4; Table 1 counts ASes hosting at least 3
    // instances.
    let s4 = availability::section4_sweep(&obs, 3);

    // Downtime landscape (Fig. 7).
    println!("{}", report::render_fig07(&s4.fig07));

    // Who went down together? (Table 1)
    println!("{}", report::render_table1(&s4.table1));
    for row in &s4.table1 {
        println!(
            "  ⚠ {} ({}): {} co-failures across {} instances — {} users affected",
            row.asn, row.org, row.failures, row.instances, row.users
        );
    }

    // Certificate forensics (Fig. 9).
    let cert_report = attribute_cert_outages(&obs.world.instances, &obs.world.schedules);
    println!(
        "\ncertificate expiries: {} outages attributed ({} of all outages)",
        cert_report.attributed,
        report::pct(cert_report.attributed_fraction()),
    );
    println!(
        "worst expiry day: {} with {} instances down simultaneously",
        cert_report.worst_day,
        cert_report.worst_day_count()
    );

    // The worst whole-day blackout (Fig. 10's tail).
    let (day, dark) = s4.fig10.worst_day;
    println!(
        "worst whole-day blackout: {} — {} of all toots unreachable for the full day",
        day,
        report::pct(dark)
    );
}
