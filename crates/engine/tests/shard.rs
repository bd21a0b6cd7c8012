//! Shard-and-merge integration tests: the acceptance guarantee is that a
//! `k`-way sharded run, serialized through the JSON partial-report format
//! and recombined with `merge_partials`, is **byte-for-byte identical**
//! (CSV and JSON) to the unsharded run — for fig4, fig5, and adaptive
//! early-termination scenarios — and that the merge rejects gapped,
//! overlapping, and foreign partial sets. The byte-identity gates train
//! past chance (`common::classifying`), once per test, into an on-disk
//! cache every shard loads.

mod common;

use common::{assert_same_bytes, classifying, spnn, Scratch, TrainedCache};
use proptest::prelude::*;
use spnn_engine::cache::ContextCache;
use spnn_engine::prelude::*;
use spnn_engine::shard::{
    plan_shard, plan_shard_weighted, weighted_span, MergeError, MergeState, PartialReport,
};
use spnn_engine::spec::PlanKind;
use spnn_photonics::PerturbTarget;

fn tiny_fig4() -> ScenarioSpec {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.modes = vec![PerturbTarget::Both, PerturbTarget::PhaseShiftersOnly];
    spec.sweep.sigmas = vec![0.0, 0.05, 0.1];
    spec.iterations = 10;
    spec.min_iterations = 2;
    spec.round_size = 4; // 3 rounds/point, last one short
    spec
}

fn tiny_fig5() -> ScenarioSpec {
    let mut spec = presets::fig5(&RunScale::tiny());
    assert_eq!(spec.plan, PlanKind::Zonal);
    spec.iterations = 6;
    spec.min_iterations = 2;
    spec.round_size = 4;
    spec.zonal.layers = spnn_engine::spec::LayerSelect::List(vec![0]);
    spec.zonal.stages = vec![spnn_core::Stage::UMesh];
    spec
}

/// Runs every shard of a `k`-way plan (sharing one trained context, as a
/// warm cache would across processes), round-trips each partial through
/// its JSON form, and merges.
fn shard_and_merge(spec: &ScenarioSpec, k: usize, cache: &TrainedCache) -> EngineReport {
    let (config, cache) = (cache.engine(), cache.context());
    let partials: Vec<PartialReport> = (0..k)
        .map(|i| {
            let p = run_scenario_shard_with(spec, &config, &cache, k, i).expect("shard runs");
            assert_eq!(p.shards, k);
            assert_eq!(p.shard_index, i);
            // The on-disk JSON round trip must be transparent.
            PartialReport::parse(&p.to_json()).expect("partial round-trips")
        })
        .collect();
    merge_partials(&partials).expect("partials merge")
}

fn assert_byte_identical(spec: &ScenarioSpec, k: usize, cache: &TrainedCache) {
    let merged = shard_and_merge(spec, k, cache);
    let what = format!("{} at k={k}", spec.name);
    assert_same_bytes(&merged, &cache.reference(spec), &what);
}

/// Acceptance criterion: merged k-shard fig4 reports are byte-for-byte
/// identical to the unsharded report (also enforced at scale by the CI
/// `shard-merge` job).
#[test]
fn fig4_sharded_merge_is_byte_identical() {
    let cache = TrainedCache::new("shard-fig4");
    let spec = classifying(tiny_fig4());
    for k in [1, 2, 3, 5] {
        assert_byte_identical(&spec, k, &cache);
    }
}

/// Acceptance criterion: same for the zonal fig5 queue.
#[test]
fn fig5_sharded_merge_is_byte_identical() {
    let cache = TrainedCache::new("shard-fig5");
    let spec = classifying(tiny_fig5());
    for k in [1, 3] {
        assert_byte_identical(&spec, k, &cache);
    }
}

/// The reworked adaptive logic: only the prefix-owning shard may stop
/// early, later shards speculate, and the merge replays the stop rule —
/// the recombined report still matches the unsharded adaptive run
/// bit-for-bit.
#[test]
fn adaptive_sharded_merge_is_byte_identical() {
    let cache = TrainedCache::new("shard-adaptive");
    let mut spec = classifying(tiny_fig4());
    spec.iterations = 24;
    spec.min_iterations = 4;
    spec.round_size = 4;
    spec.target_moe = 0.05;
    let unsharded = cache.reference(&spec);
    assert!(
        unsharded.rows.iter().any(|r| r.stopped_early),
        "fixture must exercise early termination (σ = 0 rows stop at the first boundary)"
    );
    for k in [2, 3, 7] {
        let merged = shard_and_merge(&spec, k, &cache);
        assert_eq!(
            to_json(&merged),
            to_json(&unsharded),
            "adaptive run diverged at k={k}"
        );
    }
}

/// Satellite acceptance: feeding partials through [`MergeState`] in
/// **every permutation** of arrival order yields (a) a finalized report
/// byte-identical to batch `merge_partials` and to the unsharded run,
/// and (b) rows emitted exactly once, in strict prefix order, equal to
/// the final report's rows — for fig4, zonal fig5, and an adaptive
/// early-stopping scenario whose merge must discard speculation.
#[test]
fn merge_state_permutations_are_byte_identical_and_stream_in_prefix_order() {
    let cache = TrainedCache::new("shard-permutations");
    let mut adaptive = classifying(tiny_fig4());
    adaptive.iterations = 24;
    adaptive.min_iterations = 4;
    adaptive.target_moe = 0.05;
    const PERMUTATIONS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for spec in [classifying(tiny_fig4()), classifying(tiny_fig5()), adaptive] {
        let (config, context) = (cache.engine(), cache.context());
        let partials: Vec<PartialReport> = (0..3)
            .map(|i| run_scenario_shard_with(&spec, &config, &context, 3, i).unwrap())
            .collect();
        let unsharded = cache.reference(&spec);
        let batch = merge_partials(&partials).expect("batch merge");
        assert_eq!(to_json(&batch), to_json(&unsharded), "{}", spec.name);

        for perm in PERMUTATIONS {
            let mut state = MergeState::new();
            let mut streamed = Vec::new();
            for &i in &perm {
                streamed.extend(state.push(partials[i].clone()).expect("push partial"));
            }
            assert!(state.is_complete(), "{}: {perm:?}", spec.name);
            let report = state.finalize().expect("finalize");
            assert_eq!(
                to_json(&report),
                to_json(&unsharded),
                "{}: JSON diverged for arrival order {perm:?}",
                spec.name
            );
            assert_eq!(
                to_csv(&report),
                to_csv(&unsharded),
                "{}: CSV diverged for arrival order {perm:?}",
                spec.name
            );
            assert_eq!(streamed.len(), report.rows.len(), "{perm:?}");
            for (expected_index, (index, row)) in streamed.iter().enumerate() {
                assert_eq!(*index, expected_index, "rows must stream in prefix order");
                assert_eq!(row, &report.rows[*index], "streamed row != final row");
            }
        }
    }
}

/// Partials need not come from a single plan: any set whose blocks cover
/// the queue exactly merges. Half of a 2-way plan plus the matching two
/// quarters of a 4-way plan is an exact cover.
#[test]
fn merge_accepts_partials_from_different_plans() {
    let trained = TrainedCache::new("shard-mixed-plans");
    let spec = classifying(tiny_fig4());
    let (config, cache) = (trained.engine(), trained.context());
    let half = run_scenario_shard_with(&spec, &config, &cache, 2, 0).unwrap();
    let q2 = run_scenario_shard_with(&spec, &config, &cache, 4, 2).unwrap();
    let q3 = run_scenario_shard_with(&spec, &config, &cache, 4, 3).unwrap();
    let merged = merge_partials(&[half, q2, q3]).expect("mixed plans cover exactly");
    assert_eq!(to_json(&merged), to_json(&trained.reference(&spec)));
}

#[test]
fn merge_rejects_a_dropped_shard() {
    let spec = tiny_fig4();
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let partials: Vec<PartialReport> = (0..3)
        .map(|i| run_scenario_shard_with(&spec, &config, &cache, 3, i).unwrap())
        .collect();
    let err = merge_partials(&partials[..2]).expect_err("gapped set must not merge");
    assert!(matches!(err, MergeError::Coverage(_)), "{err}");
}

/// Speculative redundancy (the work-stealing contract): the same shard
/// arriving twice is bit-identical by construction — iteration `k` is a
/// pure function of `(seed, k)` — so the merge absorbs the duplicate
/// instead of rejecting it, and the recombined bytes do not change.
#[test]
fn merge_deduplicates_a_duplicated_shard() {
    let trained = TrainedCache::new("shard-duplicate");
    let spec = classifying(tiny_fig4());
    let (config, cache) = (trained.engine(), trained.context());
    let mut partials: Vec<PartialReport> = (0..2)
        .map(|i| run_scenario_shard_with(&spec, &config, &cache, 2, i).unwrap())
        .collect();
    partials.push(partials[1].clone());
    let merged = merge_partials(&partials).expect("bit-identical duplicates must be absorbed");
    assert_same_bytes(&merged, &trained.reference(&spec), "duplicated shard");
}

/// Overlap at sub-shard granularity: a whole-queue partial plus a
/// re-dispatched sub-slice of it (different block boundaries, same bits)
/// also merges byte-identical — the exact shape work stealing produces
/// when a victim answers after its slice was stolen.
#[test]
fn merge_deduplicates_partial_overlap_from_redispatch() {
    let trained = TrainedCache::new("shard-overlap");
    let spec = classifying(tiny_fig4());
    let (config, cache) = (trained.engine(), trained.context());
    let whole = run_scenario_shard_with(&spec, &config, &cache, 1, 0).unwrap();
    let slice = run_scenario_shard_with(&spec, &config, &cache, 3, 1).unwrap();
    let merged = merge_partials(&[slice, whole]).expect("overlapping cover must merge");
    assert_eq!(to_json(&merged), to_json(&trained.reference(&spec)));
}

#[test]
fn merge_rejects_partials_of_a_different_spec() {
    let spec = tiny_fig4();
    let mut foreign_spec = tiny_fig4();
    foreign_spec.seed ^= 0xDEAD;
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let a = run_scenario_shard_with(&spec, &config, &cache, 2, 0).unwrap();
    let b = run_scenario_shard_with(&foreign_spec, &config, &cache, 2, 1).unwrap();
    let err = merge_partials(&[a, b]).expect_err("foreign fingerprint must not merge");
    assert!(matches!(err, MergeError::Mismatch(_)), "{err}");
}

#[test]
fn shard_driver_validates_its_arguments() {
    let spec = tiny_fig4();
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    assert!(run_scenario_shard_with(&spec, &config, &cache, 0, 0).is_err());
    assert!(run_scenario_shard_with(&spec, &config, &cache, 3, 3).is_err());
}

/// A one-sample partial with forged `round_size` and `iterations` claims.
fn forged_partial(round_size: &str, iterations: &str) -> String {
    format!(
        r#"{{"format": "spnn-partial-report", "version": 1, "scenario": "x",
        "queue_fingerprint": "00", "shards": 1, "shard_index": 0, "total_points": 1,
        "round_size": {round_size}, "iterations": {iterations}, "min_iterations": 1,
        "target_moe": 0, "topologies": [], "points": [{{"index": 0, "topology": "t",
        "labels": [], "seed": 1, "first_iteration": 0, "stopped_early": false,
        "welford": {{"count": 1, "mean": 0.5, "m2": 0}}, "samples": [0.5]}}]}}"#
    )
}

/// `spnn merge`, in a child process, refuses `document` with exit code 1
/// and `expected` in its message.
fn assert_merge_refuses(tag: &str, document: &str, expected: &str) {
    let scratch = Scratch::new(tag);
    let path = scratch.path("forged.json");
    std::fs::write(&path, document).expect("write forged partial");
    let out = spnn(&["merge", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(expected), "{stderr}");
}

#[test]
fn merge_cli_rejects_a_zero_round_size() {
    assert_merge_refuses(
        "round-zero",
        &forged_partial("0", "4"),
        "unreadable partial report: field \"round_size\" must be positive",
    );
}

/// A slot per claimed iteration would be 1.6 PB here: the merge holds
/// the one sample the partial carries and reports the gap.
#[test]
fn merge_cli_memory_follows_the_samples_not_the_claimed_cap() {
    assert_merge_refuses(
        "huge-cap",
        &forged_partial("1", "100000000000000"),
        "incomplete coverage: point 0: only 1 of 100000000000000 iterations covered",
    );
}

#[test]
fn merge_cli_rejects_a_deeply_nested_document() {
    assert_merge_refuses(
        "deep",
        &"[".repeat(200_000),
        "unreadable partial report: JSON parse error",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Property: for any queue shape and shard count, the k slices of the
    /// plan are disjoint, in-bounds, and cover every round exactly once.
    #[test]
    fn planner_partitions_any_queue_exactly_once(
        rounds_per_point in collection::vec(1usize..9, 1..40),
        k in 1usize..12,
    ) {
        let total: usize = rounds_per_point.iter().sum();
        let mut covered = vec![0u32; total];
        for i in 0..k {
            for b in plan_shard(&rounds_per_point, k, i) {
                prop_assert!(b.point < rounds_per_point.len());
                prop_assert!(b.rounds > 0);
                prop_assert!(b.first_round + b.rounds <= rounds_per_point[b.point]);
                let base: usize = rounds_per_point[..b.point].iter().sum();
                for r in 0..b.rounds {
                    covered[base + b.first_round + r] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "coverage counts: {covered:?}");
    }

    /// Property: slice sizes differ by at most one round (balanced plans),
    /// and every shard's blocks are sorted and non-adjacent-overlapping.
    #[test]
    fn planner_slices_are_balanced_and_ordered(
        rounds_per_point in collection::vec(1usize..9, 1..40),
        k in 1usize..12,
    ) {
        let mut sizes = Vec::new();
        for i in 0..k {
            let blocks = plan_shard(&rounds_per_point, k, i);
            sizes.push(blocks.iter().map(|b| b.rounds).sum::<usize>());
            for pair in blocks.windows(2) {
                prop_assert!(pair[0].point < pair[1].point, "blocks out of order");
            }
        }
        let lo = sizes.iter().min().copied().unwrap_or(0);
        let hi = sizes.iter().max().copied().unwrap_or(0);
        prop_assert!(hi - lo <= 1, "unbalanced sizes: {sizes:?}");
    }

    /// Property: for any weight vector — zeros, huge skews, more peers
    /// than rounds — the weighted spans are contiguous, in-bounds, and
    /// the blocks they expand to cover the round space exactly once.
    #[test]
    fn weighted_planner_partitions_any_queue_exactly_once(
        rounds_per_point in collection::vec(1usize..9, 1..40),
        weights in collection::vec(0u64..u64::MAX, 1..12),
    ) {
        let total: usize = rounds_per_point.iter().sum();
        let mut covered = vec![0u32; total];
        let mut prev_hi = 0usize;
        for i in 0..weights.len() {
            let (lo, hi) = weighted_span(&rounds_per_point, &weights, i);
            prop_assert_eq!(lo, prev_hi, "spans must tile contiguously");
            prop_assert!(hi <= total, "span end out of bounds");
            prev_hi = hi;
            for b in plan_shard_weighted(&rounds_per_point, &weights, i) {
                prop_assert!(b.point < rounds_per_point.len());
                prop_assert!(b.rounds > 0);
                prop_assert!(b.first_round + b.rounds <= rounds_per_point[b.point]);
                let base: usize = rounds_per_point[..b.point].iter().sum();
                for r in 0..b.rounds {
                    covered[base + b.first_round + r] += 1;
                }
            }
        }
        prop_assert_eq!(prev_hi, total, "spans must end at the total");
        prop_assert!(covered.iter().all(|&c| c == 1), "coverage counts: {covered:?}");
    }

    /// Property: uniform weights degenerate **bit-exactly** to today's
    /// equal plan, for any uniform magnitude — the shared factor cancels
    /// inside the floor, so a weighted fleet of identical boxes plans
    /// the same bytes the unweighted one always did.
    #[test]
    fn weighted_planner_degenerates_to_the_equal_plan_at_uniform_weights(
        rounds_per_point in collection::vec(1usize..9, 1..40),
        k in 1usize..12,
        w in 1u64..(1u64 << 40),
    ) {
        let weights = vec![w; k];
        for i in 0..k {
            prop_assert_eq!(
                plan_shard_weighted(&rounds_per_point, &weights, i),
                plan_shard(&rounds_per_point, k, i),
                "uniform weight {w} diverged from the equal plan at slice {i}/{k}"
            );
        }
    }

    /// Property: a zero-weight peer gets an empty span (it is starved of
    /// work, never handed a sliver), and the surviving weight mass still
    /// tiles the whole round space.
    #[test]
    fn weighted_planner_starves_zero_weight_peers(
        rounds_per_point in collection::vec(1usize..9, 1..40),
        nonzero in collection::vec(1u64..1_000_000, 1..6),
        zero_at in 0usize..6,
    ) {
        let mut weights: Vec<u64> = nonzero;
        let at = zero_at % (weights.len() + 1);
        weights.insert(at, 0);
        let (lo, hi) = weighted_span(&rounds_per_point, &weights, at);
        prop_assert_eq!(lo, hi, "zero-weight peer must get an empty span");
        let total: usize = rounds_per_point.iter().sum();
        let spans: Vec<(usize, usize)> = (0..weights.len())
            .map(|i| weighted_span(&rounds_per_point, &weights, i))
            .collect();
        prop_assert_eq!(spans[0].0, 0);
        prop_assert_eq!(spans[weights.len() - 1].1, total);
    }
}
