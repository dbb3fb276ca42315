//! Golden checkpoint bytes: pins the exact serialized form of a CMESH
//! checkpoint across a matrix of configurations.
//!
//! Each case runs a fixed configuration, snapshots it and compares two
//! FNV-1a hashes against recorded values: the hash of the full
//! `Checkpoint::to_json()` text (envelope included) and the checkpoint's
//! `state_hash()`. A committed checkpoint file additionally pins
//! restore: loading it onto a freshly built twin and snapshotting again
//! must reproduce the file byte for byte.

use super::*;
use pearl_telemetry::{fingerprint, Checkpoint, SharedSpanRecorder};

fn build(config: CmeshConfig, seed: u64) -> CmeshNetwork {
    CmeshBuilder::new().config(config).seed(seed).build(BenchmarkPair::test_pairs()[0])
}

/// An early kill point on a full-bandwidth mesh with a live span sink:
/// inject streams, partial ejections and link flits are all in flight.
fn mid_congestion() -> CmeshNetwork {
    let mut net = build(CmeshConfig::bandwidth_reduced(1), 17);
    net.attach_span_sink(Box::new(SharedSpanRecorder::new()));
    net
}

/// The network behind one golden case, run to its snapshot cycle.
fn case(name: &str) -> CmeshNetwork {
    let (mut net, cycles) = match name {
        "baseline" => (build(CmeshConfig::pearl_baseline(), 7), 3_000),
        "bandwidth_reduced" => (build(CmeshConfig::bandwidth_reduced(4), 13), 3_000),
        "mid_congestion_spans" => (mid_congestion(), 137),
        other => panic!("unknown golden case {other}"),
    };
    net.run(cycles);
    net
}

/// `(case, FNV-1a of the Checkpoint::to_json() text, state_hash())`.
const GOLDEN: [(&str, u64, u64); 3] = [
    ("baseline", 0xc2957bdbae643d5f, 0xf0fcf1144116ad71),
    ("bandwidth_reduced", 0x9c887181863b8070, 0x0f8c353fcf93f78b),
    ("mid_congestion_spans", 0xbc622f0f1057d570, 0x79ab3036ee3eb441),
];

#[test]
fn checkpoint_bytes_match_golden_hashes() {
    let mut actual = Vec::new();
    for (name, _, _) in GOLDEN {
        let net = case(name);
        if name == "mid_congestion_spans" {
            assert!(net.span_tracker.is_some());
            assert!(!net.links.is_empty(), "link flits must be live");
            assert!(net.inject_current.iter().any(|s| !s.is_empty()), "streams must be live");
            assert!(net.partial_eject.iter().any(|m| !m.is_empty()), "ejections must be live");
        }
        let cp = net.snapshot();
        actual.push((name, fingerprint(&cp.to_json().to_string()), cp.state_hash()));
    }
    let table: String = actual
        .iter()
        .map(|(name, text, state)| format!("    ({name:?}, {text:#018x}, {state:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "checkpoint bytes changed; actual table:\n{table}");
}

const GOLDEN_FILE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/cmesh_golden.checkpoint.json");

/// The committed checkpoint file holds [`mid_congestion`] after 137
/// cycles.
#[test]
fn committed_checkpoint_restores_and_reserializes_byte_for_byte() {
    let text = std::fs::read_to_string(GOLDEN_FILE).unwrap();
    let cp = Checkpoint::read_file(GOLDEN_FILE).unwrap();
    let mut twin = mid_congestion();
    twin.restore(&cp).unwrap();
    assert_eq!(format!("{}\n", twin.snapshot().to_json()), text);
}
