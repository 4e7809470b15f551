//! `bench avail` — §5.2 replication: the batched availability engine
//! against two references, recorded as `avail_tier` in `BENCH_avail.json`.
//!
//! Three engines are compared on the same workloads; all must produce
//! bit-identical curves:
//!
//! 1. **seed** — the pre-batching evaluator, kept verbatim here: per-user
//!    `Vec<Vec<u32>>` holder lists and one full population scan per
//!    strategy. This is the `naive_seconds` baseline.
//! 2. **reference** — `fediscope_replication::eval::availability_curve`,
//!    the same per-strategy algorithm reading the flat CSR `ContentView`
//!    (kept in-crate as the differential-test baseline); recorded as
//!    `naive_csr_seconds`.
//! 3. **batched** — [`AvailabilitySweep`]: every strategy folded out of
//!    one pass over the removed instances' resident users.
//!
//! The tier world runs both the Fig. 16 multi-n workload (No-Rep + S-Rep +
//! Random{1,2,3,4,7,9} under top-instance removal) and the Fig. 15
//! workload (instance + AS removal) at the tier's sweep depths. The
//! identity gates and the ≥5x Fig. 16 floor over the seed path hold in
//! every mode: the speedup is structural — eight scans collapse into one —
//! so it holds at smoke scale too.

use crate::{best_of, cores, generate, BenchArgs, Run};
use fediscope_core::content::FIG16_NS as NS;
use fediscope_core::{Metric, Observatory};
use fediscope_graph::par;
use fediscope_replication::eval::{
    availability_curve, singleton_groups, AvailabilityPoint, AvailabilitySweep, Strategy,
};
use serde_json::json;

/// The seed evaluator, preserved verbatim as the pre-batching baseline: nested
/// per-user holder `Vec`s and one full scan per strategy. Only the
/// `ContentView` plumbing was renamed; every loop and float expression is
/// the seed's, so its curves pin the baseline semantics exactly.
mod seed {
    use super::{AvailabilityPoint, Observatory, Strategy};

    pub struct SeedView {
        pub n_instances: usize,
        pub home: Vec<u32>,
        pub toots: Vec<u64>,
        pub follower_instances: Vec<Vec<u32>>,
        pub total_toots: u64,
    }

    impl SeedView {
        pub fn from_obs(obs: &Observatory) -> Self {
            let world = &obs.world;
            let n_users = world.users.len();
            let home: Vec<u32> = world.users.iter().map(|u| u.instance.0).collect();
            let toots: Vec<u64> = world.users.iter().map(|u| u.toot_count as u64).collect();
            let mut follower_instances: Vec<Vec<u32>> = vec![Vec::new(); n_users];
            for &(a, b) in &world.follows {
                follower_instances[b.index()].push(home[a.index()]);
            }
            for list in &mut follower_instances {
                list.sort_unstable();
                list.dedup();
            }
            let total_toots = toots.iter().sum();
            SeedView {
                n_instances: world.instances.len(),
                home,
                toots,
                follower_instances,
                total_toots,
            }
        }

        fn n_users(&self) -> usize {
            self.home.len()
        }
    }

    fn removal_steps(n_instances: usize, groups: &[Vec<u32>]) -> Vec<usize> {
        let mut step = vec![usize::MAX; n_instances];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                if step[m as usize] == usize::MAX {
                    step[m as usize] = g + 1;
                }
            }
        }
        step
    }

    fn fold_availability(death: &[f64], steps: usize, total: f64) -> Vec<AvailabilityPoint> {
        let mut lost = 0.0;
        let mut out = Vec::with_capacity(steps + 1);
        out.push(AvailabilityPoint {
            removed: 0,
            availability: 1.0,
        });
        for (k, &dead) in death.iter().enumerate().take(steps + 1).skip(1) {
            lost += dead;
            out.push(AvailabilityPoint {
                removed: k,
                availability: 1.0 - lost / total,
            });
        }
        out
    }

    pub(crate) fn availability_curve(
        view: &SeedView,
        strategy: Strategy,
        groups: &[Vec<u32>],
    ) -> Vec<AvailabilityPoint> {
        match strategy {
            Strategy::Random { n } => random_expectation_curve(view, n, groups),
            _ => exact_curve(view, strategy, groups),
        }
    }

    fn exact_curve(
        view: &SeedView,
        strategy: Strategy,
        groups: &[Vec<u32>],
    ) -> Vec<AvailabilityPoint> {
        let steps = removal_steps(view.n_instances, groups);
        let mut death_toots = vec![0.0f64; groups.len() + 2];
        for u in 0..view.n_users() {
            let home_step = steps[view.home[u] as usize];
            let death = match strategy {
                Strategy::NoReplication => home_step,
                Strategy::Subscription => {
                    let mut death = home_step;
                    for &f in &view.follower_instances[u] {
                        death = death.max(steps[f as usize]);
                    }
                    death
                }
                Strategy::Random { .. } => unreachable!("handled elsewhere"),
            };
            if death != usize::MAX && death <= groups.len() {
                death_toots[death] += view.toots[u] as f64;
            }
        }
        let total = view.total_toots.max(1) as f64;
        fold_availability(&death_toots, groups.len(), total)
    }

    fn random_expectation_curve(
        view: &SeedView,
        n: usize,
        groups: &[Vec<u32>],
    ) -> Vec<AvailabilityPoint> {
        let steps = removal_steps(view.n_instances, groups);
        let mut home_death_toots = vec![0u64; groups.len() + 2];
        for u in 0..view.n_users() {
            let s = steps[view.home[u] as usize];
            if s != usize::MAX && s <= groups.len() {
                home_death_toots[s] += view.toots[u];
            }
        }
        let total = view.total_toots.max(1) as f64;
        let i_total = view.n_instances;
        let mut removed_count = 0usize;
        let mut homeless = 0u64;
        let mut out = Vec::with_capacity(groups.len() + 1);
        out.push(AvailabilityPoint {
            removed: 0,
            availability: 1.0,
        });
        for k in 1..=groups.len() {
            removed_count += groups[k - 1].len();
            homeless += home_death_toots[k];
            let mut p_all_gone = 1.0f64;
            for i in 0..n {
                let num = removed_count.saturating_sub(i) as f64;
                let den = (i_total - i).max(1) as f64;
                p_all_gone *= (num / den).clamp(0.0, 1.0);
            }
            let expected_lost = homeless as f64 * p_all_gone;
            out.push(AvailabilityPoint {
                removed: k,
                availability: 1.0 - expected_lost / total,
            });
        }
        out
    }
}

/// All curves of a workload, in a fixed comparison order.
type Curves = Vec<Vec<AvailabilityPoint>>;

/// Fig. 16's strategy list: No-Rep, S-Rep, then every Random{n}.
fn fig16_strategies() -> Vec<Strategy> {
    let mut s = vec![Strategy::NoReplication, Strategy::Subscription];
    s.extend(NS.iter().map(|&n| Strategy::Random { n }));
    s
}

/// Seed path for Fig. 16: materialise singleton groups, then one full
/// per-strategy pass over the nested-Vec view.
fn seed_fig16(view: &seed::SeedView, order: &[u32]) -> Curves {
    let groups = singleton_groups(order);
    fig16_strategies()
        .into_iter()
        .map(|s| seed::availability_curve(view, s, &groups))
        .collect()
}

/// The kept CSR reference for Fig. 16: same per-strategy algorithm over
/// the flat `ContentView`.
fn csr_fig16(obs: &Observatory, order: &[u32]) -> Curves {
    let groups = singleton_groups(order);
    fig16_strategies()
        .into_iter()
        .map(|s| availability_curve(obs.content_view(), s, &groups))
        .collect()
}

/// The batched path for Fig. 16: every strategy out of one pass.
fn batched_fig16(obs: &Observatory, order: &[u32]) -> Curves {
    let batch = AvailabilitySweep::singletons(obs.content_view(), order).evaluate(&NS);
    let mut out = Vec::with_capacity(NS.len() + 2);
    out.push(batch.none);
    out.push(batch.subscription);
    out.extend(batch.random.into_iter().map(|(_, c)| c));
    out
}

/// Seed path for Fig. 15: four per-strategy passes over two orders.
fn seed_fig15(view: &seed::SeedView, order: &[u32], as_groups: &[Vec<u32>]) -> Curves {
    let inst_groups = singleton_groups(order);
    vec![
        seed::availability_curve(view, Strategy::NoReplication, &inst_groups),
        seed::availability_curve(view, Strategy::Subscription, &inst_groups),
        seed::availability_curve(view, Strategy::NoReplication, as_groups),
        seed::availability_curve(view, Strategy::Subscription, as_groups),
    ]
}

/// CSR reference for Fig. 15.
fn csr_fig15(obs: &Observatory, order: &[u32], as_groups: &[Vec<u32>]) -> Curves {
    let view = obs.content_view();
    let inst_groups = singleton_groups(order);
    vec![
        availability_curve(view, Strategy::NoReplication, &inst_groups),
        availability_curve(view, Strategy::Subscription, &inst_groups),
        availability_curve(view, Strategy::NoReplication, as_groups),
        availability_curve(view, Strategy::Subscription, as_groups),
    ]
}

/// Batched path for Fig. 15: one sweep per removal order, each walking
/// only its removed instances' resident segments.
fn batched_fig15(obs: &Observatory, order: &[u32], as_groups: &[Vec<u32>]) -> Curves {
    let view = obs.content_view();
    let inst = AvailabilitySweep::singletons(view, order).evaluate(&[]);
    let by_as = AvailabilitySweep::grouped(view, as_groups).evaluate(&[]);
    vec![inst.none, inst.subscription, by_as.none, by_as.subscription]
}

struct Comparison {
    seed_s: f64,
    csr_s: f64,
    batched_s: f64,
    speedup: f64,
    csr_speedup: f64,
    identical: bool,
}

/// Compare and time the three engines on one workload. Divergence is
/// *recorded* (`identical_output: false`) rather than panicking; the
/// harness fails the gate afterwards.
fn compare(
    label: &str,
    trials: usize,
    seed_f: &dyn Fn() -> Curves,
    csr_f: &dyn Fn() -> Curves,
    batched_f: &dyn Fn() -> Curves,
) -> Comparison {
    let expect = seed_f();
    let identical = expect == csr_f() && expect == batched_f();
    if identical {
        eprintln!("{label}: identity check passed (seed == CSR reference == batched)");
    } else {
        eprintln!("{label}: FAIL — engines diverged");
    }
    let batched_s = best_of(trials, || {
        std::hint::black_box(batched_f());
    });
    let csr_s = best_of(trials, || {
        std::hint::black_box(csr_f());
    });
    let seed_s = best_of(trials, || {
        std::hint::black_box(seed_f());
    });
    let speedup = seed_s / batched_s;
    let csr_speedup = csr_s / batched_s;
    eprintln!(
        "{label}: batched {batched_s:.4}s, CSR naive {csr_s:.4}s ({csr_speedup:.1}x), \
         seed naive {seed_s:.4}s ({speedup:.1}x)"
    );
    Comparison {
        seed_s,
        csr_s,
        batched_s,
        speedup,
        csr_speedup,
        identical,
    }
}

pub(crate) fn run(args: &BenchArgs) -> Run {
    // Best-of-9 in every mode: the minimum is robust to scheduler noise on
    // shared CI runners, and the workloads are at most tens of ms.
    let trials = 9;
    let (world, gen_s) = generate(args);
    let obs = Observatory::new(world);
    let view = obs.content_view();
    let seed_view = seed::SeedView::from_obs(&obs);
    eprintln!(
        "world ready in {gen_s:.1}s: {} users, {} instances, {} holder entries",
        view.n_users(),
        view.n_instances,
        view.holder_entries()
    );

    let tier = args.tier;
    let full_order = obs.instance_order(Metric::Toots);
    let f16_order = &full_order[..tier.fig16_max_instances().min(full_order.len())];
    let fig16 = compare(
        "fig16 multi-n",
        trials,
        &|| seed_fig16(&seed_view, f16_order),
        &|| csr_fig16(&obs, f16_order),
        &|| batched_fig16(&obs, f16_order),
    );
    let f15_order = &full_order[..tier.fig15_max_instances().min(full_order.len())];
    let mut as_groups = obs.as_groups(Metric::Toots);
    as_groups.truncate(tier.fig15_max_ases());
    let fig15 = compare(
        "fig15 inst+AS",
        trials,
        &|| seed_fig15(&seed_view, f15_order, &as_groups),
        &|| csr_fig15(&obs, f15_order, &as_groups),
        &|| batched_fig15(&obs, f15_order, &as_groups),
    );

    let record = json!({
        "bench": "avail_tier",
        "tier": tier.name(),
        "mode": args.mode(),
        "threads": par::thread_budget(),
        "cores": cores(),
        "users": view.n_users(),
        "instances": view.n_instances,
        "holder_entries": view.holder_entries(),
        "seed": args.seed,
        "gen_seconds": gen_s,
        "fig16_removals": f16_order.len(),
        "fig16_ns": NS.to_vec(),
        "fig16_naive_seconds": fig16.seed_s,
        "fig16_naive_csr_seconds": fig16.csr_s,
        "fig16_batched_seconds": fig16.batched_s,
        "fig16_speedup": fig16.speedup,
        "fig16_csr_speedup": fig16.csr_speedup,
        "fig15_removals": f15_order.len(),
        "fig15_as_groups": as_groups.len(),
        "fig15_naive_seconds": fig15.seed_s,
        "fig15_naive_csr_seconds": fig15.csr_s,
        "fig15_batched_seconds": fig15.batched_s,
        "fig15_speedup": fig15.speedup,
        "fig15_csr_speedup": fig15.csr_speedup,
        "identical_output": fig16.identical && fig15.identical,
    });
    // The acceptance floor rides the multi-n workload.
    let gates = vec![
        ("fig16_identical", fig16.identical),
        ("fig15_identical", fig15.identical),
        ("fig16_speedup_5x", fig16.speedup >= 5.0),
    ];
    (record, gates)
}
