//! State-hash traces of the CMESH baseline: the behaviour gate for hot-
//! path rewrites of the mesh.
//!
//! Each config records `state_hash()` every 1 000 cycles over 10 000
//! cycles. The constants were recorded on the allocator that scanned all
//! `5 × vcs` candidates per output; any rewrite of routing, switch
//! allocation or link traversal must reproduce them exactly. A mismatch
//! names the config and the first diverging cycle.

use pearl_cmesh::{CmeshBuilder, CmeshConfig, CmeshNetwork};
use pearl_noc::CoreType;
use pearl_workloads::{BenchmarkPair, SyntheticPattern, SyntheticTraffic};

const EVERY: u64 = 1_000;
const SAMPLES: usize = 10;

fn pair(index: usize) -> BenchmarkPair {
    BenchmarkPair::test_pairs()[index]
}

fn with_vcs(vcs: usize) -> CmeshConfig {
    CmeshConfig { vcs_per_port: vcs, ..CmeshConfig::pearl_baseline() }
}

fn trace(mut net: CmeshNetwork) -> [u64; SAMPLES] {
    let mut hashes = [0; SAMPLES];
    for hash in &mut hashes {
        net.run(EVERY);
        *hash = net.state_hash();
    }
    hashes
}

fn check(name: &str, net: CmeshNetwork, expected: [u64; SAMPLES]) {
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
fn baseline_pair_0_seed_1() {
    let net = CmeshBuilder::new().seed(1).build(pair(0));
    check(
        "baseline pair 0 seed 1",
        net,
        [
            0xcad19c570ee59d38,
            0xa19da31b7c61b117,
            0xa59c7c367171db2b,
            0x842eac0bd9833a79,
            0x88727774bf8b47c6,
            0x0a2a45c57ea682e6,
            0xd7303eae89f7410b,
            0xfdee2af6fc524a06,
            0x27406dc5f7e0e1cc,
            0x8464a4858a045bc1,
        ],
    );
}

#[test]
fn baseline_pair_7_seed_7() {
    let net = CmeshBuilder::new().seed(7).build(pair(7));
    check(
        "baseline pair 7 seed 7",
        net,
        [
            0xaf9821ab8bd74000,
            0x8c245d6ea77c4f79,
            0xbea5507634709c97,
            0xe4ea19def9ef1fe4,
            0xf9a2139efc71afd7,
            0xfa96cfa1321ef464,
            0x3b0e07781089c697,
            0x3e2c73a1bc66b275,
            0x7408890fb89dbeef,
            0x31ebd997f89081c3,
        ],
    );
}

#[test]
fn bandwidth_reduced_links() {
    let net = CmeshBuilder::new().config(CmeshConfig::bandwidth_reduced(2)).seed(3).build(pair(0));
    check(
        "bandwidth_reduced(2)",
        net,
        [
            0x9bc86da84701a0e6,
            0xba5b6ecc13fa0bc5,
            0x17e3857f75c6d2b2,
            0xdc287580a0ea2e79,
            0x61201ccf729bded5,
            0x4148db4c1a8758ae,
            0x6c5a3188631cb30e,
            0x396ff6bd70235b54,
            0x52535b8562749393,
            0x74b95142fda56506,
        ],
    );
}

#[test]
fn saturated_uniform_random() {
    let clusters = CmeshConfig::pearl_baseline().clusters();
    let source =
        SyntheticTraffic::new(SyntheticPattern::UniformRandom, clusters, 0.40, CoreType::Cpu, 5);
    let net = CmeshBuilder::new().seed(5).build_from_source(Box::new(source));
    check(
        "uniform 0.40",
        net,
        [
            0x77459a7bc0f55911,
            0xd576fcfc90eb0da7,
            0x326b37df8618febe,
            0x845764a225ca9400,
            0xf66f87ce18a2b865,
            0x2da4c0df690a904d,
            0xb60c06104a487b56,
            0x138799b985de88ec,
            0xf520b834088ed6fd,
            0xfafc330b2ab8ca96,
        ],
    );
}

#[test]
fn one_vc_per_port() {
    let net = CmeshBuilder::new().config(with_vcs(1)).seed(11).build(pair(3));
    check(
        "1 VC",
        net,
        [
            0x578c2427a6c111c7,
            0xc211cce15d6a2a6e,
            0xed7b0120c2b19ebb,
            0xd9a940231fca1ccf,
            0x92871f7d762385f7,
            0xdd6a76b72e2c2ca1,
            0x433bd1e6977f1802,
            0x5cb0b10211ce7dae,
            0x671e5932d6cb0d32,
            0x5e66d964612a454b,
        ],
    );
}

#[test]
fn twelve_vcs_per_port() {
    // 5 ports × 12 VCs = 60 request bits per output: the widest set.
    let net = CmeshBuilder::new().config(with_vcs(12)).seed(13).build(pair(12));
    check(
        "12 VCs",
        net,
        [
            0xc93e0d3dcd5b538b,
            0x4d81e11552adab29,
            0x891c1d5d06c0063d,
            0xf87dde706ca3c64b,
            0x41228e2160dd8761,
            0x13da28bb3e8f9e54,
            0x49962f996e888af8,
            0x9491743f3a61fc7d,
            0x35df6822f204a2f1,
            0x55a339b39a85ebd6,
        ],
    );
}
