//! AS-wide co-failure detection (Table 1).
//!
//! "We consider it to be an AS failure if all instances hosted in the same
//! AS became unavailable simultaneously. We only include ASes that host at
//! least 8 instances" (§4.4). Detection is a sweep over outage boundaries:
//! an AS failure interval is a maximal period during which every *existing*
//! member instance is down.

use fediscope_graph::par;
use fediscope_model::geo::ProviderCatalog;
use fediscope_model::ids::{AsId, InstanceId};
use fediscope_model::instance::Instance;
use fediscope_model::schedule::{AvailabilitySchedule, OutageArena};
use fediscope_model::time::Epoch;

/// One detected AS-failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsFailureEvent {
    /// Start of the co-failure.
    pub start: Epoch,
    /// End (first epoch where some member is back).
    pub end: Epoch,
}

/// A Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct AsFailureRow {
    /// The AS.
    pub asn: AsId,
    /// Organisation name.
    pub org: String,
    /// Instances hosted.
    pub instances: usize,
    /// Distinct IPs (one per instance in the synthetic allocation).
    pub ips: usize,
    /// Number of detected co-failure events.
    pub failures: usize,
    /// Users hosted in the AS.
    pub users: u64,
    /// Toots hosted in the AS.
    pub toots: u64,
    /// CAIDA rank.
    pub rank: u32,
    /// Peer count.
    pub peers: u32,
}

/// Detect co-failure events for one group of schedules.
///
/// Only epochs where at least `min_existing` members exist are eligible (the
/// paper's ≥8-instance rule is applied by the caller on the *hosted* count;
/// this guard additionally avoids "all zero of zero members are down"
/// artefacts early in the window).
pub fn detect_co_failures(
    schedules: &[&AvailabilitySchedule],
    min_existing: usize,
) -> Vec<AsFailureEvent> {
    // Packed event deltas at epoch boundaries (sorting the packed word is
    // epoch-major, which is the only ordering the sweep depends on).
    let mut events: Vec<u32> = Vec::new();
    for s in schedules {
        let birth = s.birth_epoch().0;
        let death = s.death_epoch().0;
        if birth >= death {
            continue;
        }
        events.push(birth << 2 | EV_EXIST_UP);
        events.push(death << 2 | EV_EXIST_DOWN);
        for o in s.outages() {
            events.push(o.start.0 << 2 | EV_DOWN_UP);
            events.push(o.end.0 << 2 | EV_DOWN_DOWN);
        }
    }
    events.sort_unstable();
    sweep_sorted_events(&events, min_existing)
}

/// Boundary events, packed into one `u32` each: `epoch << 2 | code`
/// (`WINDOW_EPOCHS < 2^18`, so the shifted epoch fits). Codes 0–3 mean
/// exist+1, exist−1, down+1, down−1; within one epoch all deltas are
/// summed before the predicate runs, so only epoch-major ordering matters.
const EV_EXIST_UP: u32 = 0;
const EV_EXIST_DOWN: u32 = 1;
const EV_DOWN_UP: u32 = 2;
const EV_DOWN_DOWN: u32 = 3;

/// Append `[s, e)` to a maximal-disjoint interval list, merging when it
/// butts against the previous interval.
fn push_merged(out: &mut Vec<(u32, u32)>, s: u32, e: u32) {
    if s >= e {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.1 == s {
            last.1 = e;
            return;
        }
    }
    out.push((s, e));
}

/// Two-pointer intersection of two maximal-disjoint interval lists.
fn intersect_into(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// [`detect_co_failures`] for `members` (instance indices) of a columnar
/// [`OutageArena`], by **interval intersection with early exit** instead
/// of a full boundary-event sweep.
///
/// A co-failure epoch is one where *no existing member is up* and enough
/// members exist. The first condition is the intersection over members of
/// each member's "not (existing and up)" intervals (`[0, birth) ∪ outages
/// ∪ [death, window end)`, adjacent pieces merged) — and that intersection
/// usually empties after two or three members, at which point the
/// remaining members' columns are never even read. Only when candidates
/// survive (ASes with genuine co-failures) does the
/// `existing ≥ min_existing` eligibility sweep over the (tiny) birth/death
/// breakpoint list run, and the final answer is the intersection of the
/// two interval sets. Both operands stay maximal-disjoint-non-adjacent
/// throughout, so the output intervals are exactly the event sweep's
/// maximal failing intervals.
pub fn detect_co_failures_arena(
    arena: &OutageArena,
    members: &[u32],
    min_existing: usize,
) -> Vec<AsFailureEvent> {
    const W: u32 = fediscope_model::time::WINDOW_EPOCHS;
    // Phase 1: candidate epochs where no existing member answers.
    let mut cand: Vec<(u32, u32)> = vec![(0, W)];
    let mut scratch: Vec<(u32, u32)> = Vec::new();
    let mut not_blocked: Vec<(u32, u32)> = Vec::new();
    for &m in members {
        let v = arena.view(m as usize);
        not_blocked.clear();
        push_merged(&mut not_blocked, 0, v.birth.0);
        for (s, e) in v.starts.iter().zip(v.ends.iter()) {
            push_merged(&mut not_blocked, s.0, e.0);
        }
        push_merged(&mut not_blocked, v.death.0, W);
        intersect_into(&cand, &not_blocked, &mut scratch);
        std::mem::swap(&mut cand, &mut scratch);
        if cand.is_empty() {
            return Vec::new();
        }
    }
    // Phase 2: eligibility — maximal intervals where enough members exist
    // (the event sweep's `existing >= min_existing && existing > 0`).
    let min = min_existing.max(1) as i32;
    let mut breaks: Vec<(u32, i32)> = Vec::with_capacity(2 * members.len());
    for &m in members {
        let v = arena.view(m as usize);
        if v.birth.0 < v.death.0 {
            breaks.push((v.birth.0, 1));
            breaks.push((v.death.0, -1));
        }
    }
    breaks.sort_unstable();
    let mut eligible: Vec<(u32, u32)> = Vec::new();
    let mut count = 0i32;
    let mut open: Option<u32> = None;
    let mut i = 0;
    while i < breaks.len() {
        let epoch = breaks[i].0;
        while i < breaks.len() && breaks[i].0 == epoch {
            count += breaks[i].1;
            i += 1;
        }
        match (count >= min, open) {
            (true, None) => open = Some(epoch),
            (false, Some(s)) => {
                eligible.push((s, epoch));
                open = None;
            }
            _ => {}
        }
    }
    if let Some(s) = open {
        eligible.push((s, W));
    }
    intersect_into(&cand, &eligible, &mut scratch);
    scratch
        .iter()
        .map(|&(s, e)| AsFailureEvent {
            start: Epoch(s),
            end: Epoch(e),
        })
        .collect()
}

/// The shared boundary sweep over **epoch-sorted** packed deltas: emit
/// maximal all-existing-members-down intervals. All deltas at one epoch
/// are summed atomically before the predicate is evaluated, so any
/// epoch-stable input order yields the same events as the schedule path's
/// fully-sorted tuple sweep.
fn sweep_sorted_events(events: &[u32], min_existing: usize) -> Vec<AsFailureEvent> {
    let mut existing = 0i32;
    let mut down = 0i32;
    let mut in_failure: Option<u32> = None;
    let mut out = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let epoch = events[i] >> 2;
        // apply all deltas at this epoch atomically
        while i < events.len() && events[i] >> 2 == epoch {
            match events[i] & 3 {
                EV_EXIST_UP => existing += 1,
                EV_EXIST_DOWN => existing -= 1,
                EV_DOWN_UP => down += 1,
                _ => down -= 1,
            }
            i += 1;
        }
        let failing = existing >= min_existing as i32 && existing > 0 && down == existing;
        match (failing, in_failure) {
            (true, None) => in_failure = Some(epoch),
            (false, Some(start)) => {
                out.push(AsFailureEvent {
                    start: Epoch(start),
                    end: Epoch(epoch),
                });
                in_failure = None;
            }
            _ => {}
        }
    }
    if let Some(start) = in_failure {
        out.push(AsFailureEvent {
            start: Epoch(start),
            end: Epoch(fediscope_model::time::WINDOW_EPOCHS),
        });
    }
    out
}

/// Build the Table 1 rows: every AS hosting at least `min_instances`
/// instances with at least one detected co-failure, ordered by hosted
/// instance count descending.
pub fn as_failure_table(
    instances: &[Instance],
    schedules: &[AvailabilitySchedule],
    providers: &ProviderCatalog,
    min_instances: usize,
) -> Vec<AsFailureRow> {
    let mut groups: std::collections::HashMap<AsId, Vec<InstanceId>> = Default::default();
    for inst in instances {
        groups.entry(inst.asn).or_default().push(inst.id);
    }
    let mut rows = Vec::new();
    for (asn, members) in groups {
        if members.len() < min_instances {
            continue;
        }
        let member_scheds: Vec<&AvailabilitySchedule> =
            members.iter().map(|id| &schedules[id.index()]).collect();
        let failures = detect_co_failures(&member_scheds, min_instances.min(members.len()));
        if failures.is_empty() {
            continue;
        }
        let provider = providers.by_asn(asn);
        rows.push(AsFailureRow {
            asn,
            org: provider.map(|p| p.name.clone()).unwrap_or_default(),
            instances: members.len(),
            ips: members.len(),
            failures: failures.len(),
            users: members
                .iter()
                .map(|id| instances[id.index()].user_count as u64)
                .sum(),
            toots: members
                .iter()
                .map(|id| instances[id.index()].toot_count)
                .sum(),
            rank: provider.map(|p| p.caida_rank).unwrap_or(0),
            peers: provider.map(|p| p.peers).unwrap_or(0),
        });
    }
    rows.sort_by(|a, b| b.instances.cmp(&a.instances).then(a.asn.cmp(&b.asn)));
    rows
}

/// [`as_failure_table`] over the columnar [`OutageArena`], sharded: the AS
/// groups fan out across threads via `par::parallel_map` (each group's
/// event sweep is independent), and the final row sort is the same total
/// order as the naive path, so the table is bit-identical to it at any
/// thread count.
pub fn as_failure_table_arena(
    instances: &[Instance],
    arena: &OutageArena,
    providers: &ProviderCatalog,
    min_instances: usize,
) -> Vec<AsFailureRow> {
    let mut by_asn: std::collections::HashMap<AsId, Vec<u32>> = Default::default();
    for (i, inst) in instances.iter().enumerate() {
        by_asn.entry(inst.asn).or_default().push(i as u32);
    }
    let mut groups: Vec<(AsId, Vec<u32>)> = by_asn.into_iter().collect();
    groups.sort_unstable_by_key(|(asn, _)| *asn);
    let rows = par::parallel_map(&groups, |(asn, members)| {
        if members.len() < min_instances {
            return None;
        }
        let failures = detect_co_failures_arena(arena, members, min_instances.min(members.len()));
        if failures.is_empty() {
            return None;
        }
        let provider = providers.by_asn(*asn);
        Some(AsFailureRow {
            asn: *asn,
            org: provider.map(|p| p.name.clone()).unwrap_or_default(),
            instances: members.len(),
            ips: members.len(),
            failures: failures.len(),
            users: members
                .iter()
                .map(|&i| instances[i as usize].user_count as u64)
                .sum(),
            toots: members
                .iter()
                .map(|&i| instances[i as usize].toot_count)
                .sum(),
            rank: provider.map(|p| p.caida_rank).unwrap_or(0),
            peers: provider.map(|p| p.peers).unwrap_or(0),
        })
    });
    let mut rows: Vec<AsFailureRow> = rows.into_iter().flatten().collect();
    rows.sort_by(|a, b| b.instances.cmp(&a.instances).then(a.asn.cmp(&b.asn)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::Day;

    fn up() -> AvailabilitySchedule {
        AvailabilitySchedule::always_up()
    }

    #[test]
    fn simultaneous_outage_detected() {
        let mut a = up();
        let mut b = up();
        a.add_outage(Epoch(100), Epoch(200), OutageCause::AsFailure);
        b.add_outage(Epoch(100), Epoch(200), OutageCause::AsFailure);
        let events = detect_co_failures(&[&a, &b], 2);
        assert_eq!(
            events,
            vec![AsFailureEvent {
                start: Epoch(100),
                end: Epoch(200)
            }]
        );
    }

    #[test]
    fn partial_overlap_counts_only_intersection() {
        let mut a = up();
        let mut b = up();
        a.add_outage(Epoch(100), Epoch(300), OutageCause::Organic);
        b.add_outage(Epoch(200), Epoch(400), OutageCause::Organic);
        let events = detect_co_failures(&[&a, &b], 2);
        assert_eq!(
            events,
            vec![AsFailureEvent {
                start: Epoch(200),
                end: Epoch(300)
            }]
        );
    }

    #[test]
    fn one_member_up_blocks_detection() {
        let mut a = up();
        a.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        let b = up();
        assert!(detect_co_failures(&[&a, &b], 2).is_empty());
    }

    #[test]
    fn min_existing_guard() {
        // a single-member "AS" fails alone — not enough members.
        let mut a = up();
        a.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        assert!(detect_co_failures(&[&a], 2).is_empty());
        assert_eq!(detect_co_failures(&[&a], 1).len(), 1);
    }

    #[test]
    fn unborn_members_do_not_block() {
        // b is created only at day 100; before that, a alone counts.
        let mut a = up();
        a.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        let b = AvailabilitySchedule::new(Day(100), None);
        let events = detect_co_failures(&[&a, &b], 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start, Epoch(100));
    }

    #[test]
    fn arena_detection_matches_schedule_detection() {
        use fediscope_model::schedule::OutageArena;
        use fediscope_model::time::WINDOW_EPOCHS;
        // tricky mixtures: unborn members, retirement mid-overlap, an
        // outage running into the window end, adjacent birth/outage spans
        let mut a = up();
        a.add_outage(Epoch(100), Epoch(300), OutageCause::Organic);
        a.add_outage(Epoch(5_000), Epoch(WINDOW_EPOCHS), OutageCause::Organic);
        let mut b = AvailabilitySchedule::new(Day(0), Some(Day(20)));
        b.add_outage(Epoch(0), Epoch(250), OutageCause::Organic);
        b.add_outage(Epoch(4_000), Epoch(6_000), OutageCause::Organic);
        let c = AvailabilitySchedule::new(Day(100), None);
        let mut d = AvailabilitySchedule::new(Day(2), Some(Day(2)));
        d.add_outage(Epoch(0), Epoch(WINDOW_EPOCHS), OutageCause::Organic);
        let schedules = vec![a, b, c, d];
        let arena = OutageArena::from_schedules(&schedules);
        let refs: Vec<&AvailabilitySchedule> = schedules.iter().collect();
        let members: Vec<u32> = (0..schedules.len() as u32).collect();
        for min_existing in [1usize, 2, 3] {
            let naive = detect_co_failures(&refs, min_existing);
            let got = detect_co_failures_arena(&arena, &members, min_existing);
            assert_eq!(got, naive, "min_existing {min_existing}");
        }
        // subset membership too
        for subset in [&[0u32, 1][..], &[0, 2], &[1, 3], &[0, 1, 2]] {
            let sub_refs: Vec<&AvailabilitySchedule> =
                subset.iter().map(|&m| &schedules[m as usize]).collect();
            assert_eq!(
                detect_co_failures_arena(&arena, subset, 2),
                detect_co_failures(&sub_refs, 2),
                "subset {subset:?}"
            );
        }
    }

    #[test]
    fn multiple_distinct_events() {
        let mut a = up();
        let mut b = up();
        for start in [100u32, 500, 900] {
            a.add_outage(Epoch(start), Epoch(start + 50), OutageCause::AsFailure);
            b.add_outage(Epoch(start), Epoch(start + 50), OutageCause::AsFailure);
        }
        assert_eq!(detect_co_failures(&[&a, &b], 2).len(), 3);
    }

    #[test]
    fn table_detects_generated_as_failures() {
        use fediscope_worldgen::{Generator, WorldConfig};
        let mut cfg = WorldConfig::small(7);
        cfg.n_instances = 1200;
        cfg.n_users = 6_000;
        let w = Generator::generate_world(cfg);
        // use the paper's threshold scaled down (tiny ASes in small worlds)
        let rows = as_failure_table(&w.instances, &w.schedules, &w.providers, 3);
        assert!(!rows.is_empty(), "planned AS failures should be detectable");
        // every row has sane content
        for r in &rows {
            assert!(r.failures >= 1);
            assert!(r.instances >= 3);
            assert_eq!(r.ips, r.instances);
        }
    }
}
