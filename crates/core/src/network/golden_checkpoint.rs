//! Golden checkpoint bytes: pins the exact serialized form of a PEARL
//! checkpoint across a matrix of configurations.
//!
//! Each case runs a fixed configuration, snapshots it and compares two
//! FNV-1a hashes against recorded values: the hash of the full
//! `Checkpoint::to_json()` text (envelope included) and the checkpoint's
//! `state_hash()`. Any codec change that alters a single byte of the
//! wire format — a reordered key, a number written differently, a
//! dropped field — fails here. A committed checkpoint file additionally
//! pins restore: loading it onto a freshly built twin and snapshotting
//! again must reproduce the file byte for byte.

use super::*;
use crate::config::PearlConfig;
use crate::ml_scaling::{FallbackConfig, MlPowerScaler};
use crate::policy::PearlPolicy;
use pearl_photonics::FaultConfig;
use pearl_telemetry::{fingerprint, Checkpoint, SharedRecorder, SharedSpanRecorder};
use pearl_workloads::BenchmarkPair;

fn build(policy: PearlPolicy, fault: FaultConfig, mwsr: bool, seed: u64) -> PearlNetwork {
    let config = if mwsr { PearlConfig::pearl_mwsr() } else { PearlConfig::pearl() };
    NetworkBuilder::new()
        .config(config)
        .policy(policy)
        .fault_config(fault)
        .seed(seed)
        .build(BenchmarkPair::test_pairs()[0])
}

/// A scaler predicting roughly `value` flits for any input, so the
/// degradation ladder demotes on schedule.
fn constant_scaler(value: f64) -> MlPowerScaler {
    let mut d = Dataset::new(FEATURE_COUNT);
    for i in 0..40 {
        let mut f = vec![0.0; FEATURE_COUNT];
        f[0] = (i % 2) as f64;
        d.push(f, value).unwrap();
    }
    let (train, val) = d.split_tail(0.25);
    MlPowerScaler::new(pearl_ml::select_lambda(&train, &val, &[1.0]).unwrap())
}

/// The network behind one golden case, run to its snapshot cycle.
fn case(name: &str) -> PearlNetwork {
    match name {
        "dyn64" => {
            let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 11);
            net.run(3_000);
            net
        }
        "fcfs" => {
            let mut net = build(PearlPolicy::fcfs_64wl(), FaultConfig::off(), false, 13);
            net.run(3_000);
            net
        }
        "fine_dba" => {
            let mut net = build(PearlPolicy::dyn_fine(0.0625), FaultConfig::off(), false, 29);
            net.run(3_000);
            net
        }
        "mwsr_tokens" => {
            let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, 31);
            net.run(3_000);
            net
        }
        "ml_mid_demotion" => {
            let fallback =
                FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
            let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
            let mut net = build(policy, FaultConfig::off(), false, 41);
            net.run(1_200);
            net
        }
        "collecting" => {
            let mut net = build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 59);
            net.collection = Some(Dataset::new(FEATURE_COUNT));
            net.run(2_500);
            net
        }
        "timeline" => {
            let mut net = build(PearlPolicy::reactive(500), FaultConfig::off(), false, 43);
            net.enable_timeline(1_000);
            net.run(4_500);
            net
        }
        "spans" => {
            let mut net = build(PearlPolicy::reactive(500), FaultConfig::off(), false, 47);
            net.attach_span_sink(Box::new(SharedSpanRecorder::new()));
            net.run(2_000);
            net
        }
        "faults_probe" => {
            let mut net =
                build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 37);
            net.attach_probe(Box::new(SharedRecorder::new()));
            net.run(4_000);
            with_pending_fault_events(net)
        }
        other => panic!("unknown golden case {other}"),
    }
}

/// Steps the fault model alone until its event log holds undrained
/// events. The step loop drains the log within the cycle that fills it,
/// so a snapshot taken between cycles never sees a non-empty log; this
/// puts one in front of the codec.
fn with_pending_fault_events(mut net: PearlNetwork) -> PearlNetwork {
    while net.fault.export_state().event_log.is_empty() {
        net.fault.step();
    }
    net
}

/// `(case, FNV-1a of the Checkpoint::to_json() text, state_hash())`.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("dyn64", 0x4c2dc84ae8d8866f, 0x8862e5eee8afc4cd),
    ("fcfs", 0x382cbedd1265a839, 0xc9c9f28fcc7b975e),
    ("fine_dba", 0x58508ad7c4aa1b3a, 0xd88d31af3eebca30),
    ("mwsr_tokens", 0x24cc5cef642a8e51, 0x4ff57bed5618fafe),
    ("ml_mid_demotion", 0x5fa67ca5935413b0, 0x1df3c5d00c0b5312),
    ("collecting", 0x939be62719ce0a8e, 0x00be1fd02688a2c8),
    ("timeline", 0x1dfea6a7e8f6e350, 0xd25e03dbb86a8072),
    ("spans", 0x961370afde83f8fd, 0xf4db3d861d2fbe73),
    ("faults_probe", 0x67439d49f3b94839, 0x8d840e9aa9061a7c),
];

#[test]
fn checkpoint_bytes_match_golden_hashes() {
    let mut actual = Vec::new();
    for (name, _, _) in GOLDEN {
        let net = case(name);
        match name {
            "faults_probe" => assert!(
                !net.fault.export_state().event_log.is_empty(),
                "the faulted case must exercise the fault event log"
            ),
            "ml_mid_demotion" => assert!(net.ladder.is_some()),
            "collecting" => assert!(net.collection.as_ref().is_some_and(|d| !d.is_empty())),
            "spans" => assert!(net.span_tracker.is_some()),
            _ => {}
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
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/pearl_golden.checkpoint.json");

/// The network the committed checkpoint file was taken from, before
/// any cycle has run: faults on, so retransmission queues, CRCs and the
/// fault RNGs are non-trivial, and a live probe so the fault event log
/// is enabled. The file holds its state after 600 cycles, passed through
/// [`with_pending_fault_events`].
fn golden_file_network() -> PearlNetwork {
    let mut net = build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 5);
    net.attach_probe(Box::new(SharedRecorder::new()));
    net
}

#[test]
fn committed_checkpoint_restores_and_reserializes_byte_for_byte() {
    let text = std::fs::read_to_string(GOLDEN_FILE).unwrap();
    let cp = Checkpoint::read_file(GOLDEN_FILE).unwrap();
    let mut twin = golden_file_network();
    twin.restore(&cp).unwrap();
    assert_eq!(format!("{}\n", twin.snapshot().to_json()), text);
}
