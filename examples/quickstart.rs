//! Quickstart: generate a synthetic fediverse, compute the paper report,
//! and print two of its figures and the paper-vs-measured verdicts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fediscope::core::{report, verdicts, Report};
use fediscope::prelude::*;

fn main() {
    // 1. A deterministic world: 433 instances, 12K users, 15 months of
    //    availability history, follower graph, Twitter baselines.
    let world = Generator::generate_world(WorldConfig::small(42));
    println!(
        "world: {} instances, {} users, {} follower edges, {} toots\n",
        world.instances.len(),
        world.users.len(),
        world.follows.len(),
        world.total_toots()
    );

    // 2. Wrap it in an Observatory (lazy caches for graphs and aggregates).
    let obs = Observatory::new(world);

    // 3. Compute the report once (fast: without the §5 removal sweeps) and
    //    print two of its §4 figures.
    let paper = Report::compute(&obs, true);
    println!("{}", report::render_fig02(&paper.fig02));
    println!("{}", report::render_fig05(&paper.fig05));

    // 4. Check the paper's headline claims hold on that report.
    let vs = verdicts::evaluate(&paper);
    println!("{}", report::render_verdicts(&vs));
    println!(
        "{}/{} claims replicate",
        vs.len() - verdicts::failed(&vs),
        vs.len()
    );
}
