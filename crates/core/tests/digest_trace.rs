//! State-hash traces of the PEARL network: the behaviour gate for hot-
//! path rewrites of the step loop.
//!
//! Each config records `state_hash()` every 1 000 cycles over 10 000
//! cycles. The constants were recorded on the step loop that rebuilt
//! the response queues, cloned landed flights and evaluated the laser
//! power model every cycle; any rewrite of injection, the DBA,
//! transport, ejection or power accounting must reproduce them exactly.
//! A mismatch names the config and the first diverging cycle.

use pearl_core::{FaultConfig, NetworkBuilder, PearlConfig, PearlNetwork, PearlPolicy};
use pearl_noc::CoreType;
use pearl_workloads::{BenchmarkPair, SyntheticPattern, SyntheticTraffic};

const EVERY: u64 = 1_000;
const SAMPLES: usize = 10;

fn pair(index: usize) -> BenchmarkPair {
    BenchmarkPair::test_pairs()[index]
}

fn trace(net: &mut PearlNetwork) -> [u64; SAMPLES] {
    let mut hashes = [0; SAMPLES];
    for hash in &mut hashes {
        net.run(EVERY);
        *hash = net.state_hash();
    }
    hashes
}

fn check(name: &str, net: &mut PearlNetwork, expected: [u64; SAMPLES]) {
    let actual = trace(net);
    if let Some(k) = (0..SAMPLES).find(|&k| actual[k] != expected[k]) {
        let full: Vec<String> = actual.iter().map(|h| format!("{h:#018x}")).collect();
        panic!(
            "{name}: state diverged by cycle {} (got {:#018x}, recorded {:#018x}); \
             full trace: [{}]",
            (k as u64 + 1) * EVERY,
            actual[k],
            expected[k],
            full.join(", "),
        );
    }
}

#[test]
fn dyn64_pair_0_seed_1() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::dyn_64wl()).seed(1).build(pair(0));
    check(
        "dyn64 pair 0 seed 1",
        &mut net,
        [
            0x3f0b68b7efe62b28,
            0xd28d7849d3f65765,
            0x195c5881e11e6f68,
            0x7a8f5427a327dc6e,
            0x4ac45f3f5717c259,
            0x068256752787d127,
            0xb632a0c0e593be8d,
            0x1fb33de4d7b1ac11,
            0x82f88300c01e7c52,
            0x85880f32cc478460,
        ],
    );
}

#[test]
fn dyn64_pair_7_seed_7() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::dyn_64wl()).seed(7).build(pair(7));
    check(
        "dyn64 pair 7 seed 7",
        &mut net,
        [
            0x683a097b54269f58,
            0xc6218bf43095dd11,
            0x72b96519a298a8c4,
            0xe71126bb0ede8e5d,
            0x888e94075a2a8778,
            0xe1b5a309a757d2d6,
            0x1196b7047bf805f7,
            0xc5c78419928bbacd,
            0x5670a55e98a08890,
            0x58e47b9a2e6d7b1f,
        ],
    );
}

#[test]
fn fcfs_shared_pool() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::fcfs_64wl()).seed(3).build(pair(3));
    check(
        "fcfs",
        &mut net,
        [
            0x1e4fed7c4ae5df67,
            0xf0c563cd63c07881,
            0x9ea64b1c4eb208ad,
            0x58a6a1252f91dff1,
            0xc106f336f4c66a7b,
            0x8028362eab3971b6,
            0xd2672560766753e7,
            0x985f08f5c69d8071,
            0x446a7534e5575ea6,
            0xa26d99b9d4fac835,
        ],
    );
}

#[test]
fn dynamic_fine() {
    let mut net =
        NetworkBuilder::new().policy(PearlPolicy::dyn_fine(0.0625)).seed(5).build(pair(5));
    check(
        "dynamic fine",
        &mut net,
        [
            0x368889435bfee0c3,
            0x7805790c65068df6,
            0x57ac7a573babe139,
            0x372138b1c5017863,
            0x33733fe1c5e07e44,
            0x1755a0ba39de27e4,
            0x037fa7ded9d96f7c,
            0x8d4c76457f8a930b,
            0x6f548ca6942bbece,
            0x0e986f7608ff8ece,
        ],
    );
}

#[test]
fn mwsr_token_fabric() {
    let mut net = NetworkBuilder::new()
        .config(PearlConfig::pearl_mwsr())
        .policy(PearlPolicy::dyn_64wl())
        .seed(9)
        .build(pair(9));
    check(
        "mwsr",
        &mut net,
        [
            0x5776ab3261e601f7,
            0xdac7983eaaef1749,
            0x4f2f4d03cfd9492f,
            0x244a1ccf53a19b18,
            0x357cd01cf9a6f69f,
            0x0a91d2c746b005cd,
            0x08aa3650c665e4ff,
            0x4cb0dcb6c34dd136,
            0x0ba92fa21d14832a,
            0xda43ed6500c9b750,
        ],
    );
}

#[test]
fn reactive_rw500() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(13).build(pair(12));
    check(
        "reactive rw500",
        &mut net,
        [
            0x82295d0ead4ca66c,
            0xa7c0678ae3ede7c4,
            0x721a0a4c3ce9b554,
            0x861f4e99f396c3c1,
            0x42f59c065801d950,
            0xdcbedd10b312fe98,
            0xfcf08ce123dfb45e,
            0x4aa06facffde93fe,
            0xe9733b31f6e7b4db,
            0xfd418ca31c5625b7,
        ],
    );
}

#[test]
fn faulted_with_retransmissions() {
    let mut net = NetworkBuilder::new()
        .policy(PearlPolicy::reactive(500))
        .fault_config(FaultConfig::uniform(0.02, 7))
        .seed(17)
        .build(pair(2));
    check(
        "faulted",
        &mut net,
        [
            0xe3d6f64b285d1f8d,
            0x4d6bc78432eaa20e,
            0xb3dcf22e2f4a0c67,
            0xdcaee2b645a6fd10,
            0x09355499c00b3eb9,
            0xe7f34fa55efa95ea,
            0x3db98f73f687bf8e,
            0x3c6e550fd6470be5,
            0x2cb415e16598d301,
            0xb4f79115d18eff06,
        ],
    );
    // The trace only gates the NACK path if CRC mismatches happened.
    assert!(net.stats().retransmitted_packets() > 0, "no retransmission in the traced run");
}

#[test]
fn saturated_uniform_random() {
    let clusters = PearlConfig::pearl().clusters;
    let source =
        SyntheticTraffic::new(SyntheticPattern::UniformRandom, clusters, 0.40, CoreType::Cpu, 5);
    let mut net = NetworkBuilder::new()
        .policy(PearlPolicy::dyn_64wl())
        .seed(5)
        .build_from_source(Box::new(source));
    check(
        "uniform 0.40",
        &mut net,
        [
            0xeed7c55504f5d690,
            0xbbdd0a7e99b06c83,
            0x266ffe0f91d675ef,
            0x1b95013a72f22ce2,
            0x48a5aeefb889ad2b,
            0xaa5d026b9afdfe66,
            0x2dc16c08f830b771,
            0x123a48306ecc031b,
            0x4cef80e017286620,
            0xfa9f3c147d1a96ac,
        ],
    );
}
