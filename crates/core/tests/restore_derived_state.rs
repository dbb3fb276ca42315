//! Restoring a checkpoint rebuilds the derived hot-path state.
//!
//! The step loop keeps state that is never snapshotted: each router's
//! DBA pressure key (the lane pressures its split was computed from) and
//! the per-core stall mask. A checkpoint restored into a network that
//! has already run a different trajectory must not inherit that
//! network's keys or stall flags, or the DBA would skip a router whose
//! split is stale and a stalled core would keep issuing. Each test
//! restores a mid-run checkpoint into such a network and requires the
//! continued state-hash trace to equal the uninterrupted run's. The
//! pairs are ones whose GPU backlogs reach the stall threshold, so the
//! two trajectories' stall flags differ.

use pearl_core::{NetworkBuilder, PearlNetwork, PearlPolicy};
use pearl_workloads::BenchmarkPair;

const CHECKPOINT_AT: u64 = 3_000;
const OTHER_TRAJECTORY: u64 = 7_321;
const EVERY: u64 = 500;
const SAMPLES: usize = 12;

fn trace(net: &mut PearlNetwork) -> Vec<u64> {
    (0..SAMPLES)
        .map(|_| {
            net.run(EVERY);
            net.state_hash()
        })
        .collect()
}

fn restored_run_matches_the_uninterrupted_one(build: impl Fn() -> PearlNetwork) {
    let mut uninterrupted = build();
    uninterrupted.run(CHECKPOINT_AT);
    let checkpoint = uninterrupted.snapshot();

    let mut other = build();
    other.run(OTHER_TRAJECTORY);
    assert_ne!(other.state_hash(), uninterrupted.state_hash());
    other.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(other.state_hash(), uninterrupted.state_hash());

    let expected = trace(&mut uninterrupted);
    let actual = trace(&mut other);
    if let Some(k) = (0..SAMPLES).find(|&k| actual[k] != expected[k]) {
        panic!(
            "restored run diverged by cycle {} (got {:#018x}, uninterrupted {:#018x})",
            CHECKPOINT_AT + (k as u64 + 1) * EVERY,
            actual[k],
            expected[k]
        );
    }
}

#[test]
fn dyn64_restore_into_a_stepped_network() {
    restored_run_matches_the_uninterrupted_one(|| {
        NetworkBuilder::new()
            .policy(PearlPolicy::dyn_64wl())
            .seed(3)
            .build(BenchmarkPair::test_pairs()[3])
    });
}

#[test]
fn dynamic_fine_restore_into_a_stepped_network() {
    restored_run_matches_the_uninterrupted_one(|| {
        NetworkBuilder::new()
            .policy(PearlPolicy::dyn_fine(0.0625))
            .seed(5)
            .build(BenchmarkPair::test_pairs()[7])
    });
}
