//! The three workloads and one pass over each.
//!
//! A pass is one complete execution of a workload at its stated size:
//! every simulation (and, on `ml_train`, the training) runs once, one at
//! a time, and every output is checked. A run repeats passes until its
//! time is up, so medians over passes absorb host noise.

use crate::layers::{Layers, Tracer};
use crate::machine::{count_allocs, Clock, ReferenceKernel, REFERENCE_ROUNDS_PER_S};
use pearl_cmesh::{CmeshBuilder, CmeshNetwork};
use pearl_core::{
    MlPowerScaler, MlTrainer, NetworkBuilder, PearlNetwork, PearlPolicy, TrainedModel,
};
use pearl_ml::{select_lambda, Dataset, LambdaSelection, DEFAULT_LAMBDA_GRID};
use pearl_noc::{CoreType, Cycle};
use pearl_workloads::{BenchmarkPair, SyntheticPattern, SyntheticTraffic, TrafficModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// Simulated cycles per PEARL simulation (per test pair on trace
/// traffic, split over `PAIR_REPEATS` seeds). PEARL runs three times
/// faster than CMESH, so it gets twice the cycles to be timed over
/// comparable host time.
const PEARL_CYCLES: u64 = 20_000;
/// Simulated cycles per CMESH simulation.
const CMESH_CYCLES: u64 = 10_000;
/// Seeds per test pair for the PEARL runs on trace traffic, each over a
/// share of `PEARL_CYCLES`. How much work PEARL does depends on the
/// traffic it meets: with one 20 000-cycle run per pair the seed moved
/// the ML runs' delivered flits by 6 % and `hetero`'s PEARL throughput by
/// 8 % (quartile spread over seeds); four 5 000-cycle runs per pair
/// bring the flits under 2 %.
const PAIR_REPEATS: u64 = 4;
/// Times each network is built per simulation; set-up time is the
/// median, so one slow allocation does not move `setup_s`.
const SETUP_REPS: usize = 5;
/// Simulated cycles per pair during ML collection (`MlTrainer` defaults
/// to 30 000; a shorter collection keeps a training pass a few seconds).
const TRAIN_CYCLES_PER_PAIR: u64 = 5_000;
/// Reservation window of the reactive and ML policies.
const WINDOW: u64 = 500;
/// Offered load of `uniform_sat`, packets/cycle/cluster: past saturation
/// on both networks.
const UNIFORM_RATE: f64 = 0.40;
/// Independent uniform-random simulations per `uniform_sat` pass.
const UNIFORM_SIMS: u64 = 8;
const CLUSTERS: usize = 16;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hetero,
    UniformSat,
    MlTrain,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Hetero, Workload::UniformSat, Workload::MlTrain];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hetero => "hetero",
            Workload::UniformSat => "uniform_sat",
            Workload::MlTrain => "ml_train",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which simulator and policy a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    Dyn64,
    Reactive500,
    Ml500,
    Cmesh,
}

impl Net {
    fn name(self) -> &'static str {
        match self {
            Net::Dyn64 => "dyn64",
            Net::Reactive500 => "reactive500",
            Net::Ml500 => "ml500",
            Net::Cmesh => "cmesh",
        }
    }
}

/// What drives a simulation: a benchmark pair's trace generators or the
/// synthetic uniform-random CPU source.
#[derive(Debug, Clone, Copy)]
enum Input {
    Pair(BenchmarkPair),
    Uniform,
}

#[derive(Debug, Clone, Copy)]
struct Sim {
    net: Net,
    input: Input,
    index: usize,
    seed: u64,
    cycles: u64,
}

impl Sim {
    fn label(&self) -> String {
        format!("{}/{:02}", self.net.name(), self.index)
    }
}

enum Built {
    Pearl(Box<PearlNetwork>),
    Cmesh(Box<CmeshNetwork>),
}

/// The simulations of one pass, in run order.
fn sims(workload: Workload, seed: u64) -> Vec<Sim> {
    // Every test pair on each of `nets`, `repeats` times; repeat r of
    // pair i is seeded with seed + 16 r + i.
    let pairs = |nets: &[Net], repeats: u64, cycles: u64| -> Vec<Sim> {
        let test = BenchmarkPair::test_pairs();
        let mut out = Vec::new();
        for r in 0..repeats as usize {
            for (i, &pair) in test.iter().enumerate() {
                let index = r * test.len() + i;
                for &net in nets {
                    let seed = seed.wrapping_add(index as u64);
                    out.push(Sim { net, input: Input::Pair(pair), index, seed, cycles });
                }
            }
        }
        out
    };
    let pearl_on_pairs = |nets: &[Net]| pairs(nets, PAIR_REPEATS, PEARL_CYCLES / PAIR_REPEATS);
    let cmesh = || pairs(&[Net::Cmesh], 1, CMESH_CYCLES);
    match workload {
        Workload::Hetero => [pearl_on_pairs(&[Net::Dyn64, Net::Reactive500]), cmesh()].concat(),
        Workload::UniformSat => (0..UNIFORM_SIMS)
            .flat_map(|i| {
                [(Net::Dyn64, PEARL_CYCLES), (Net::Cmesh, CMESH_CYCLES)].map(|(net, cycles)| Sim {
                    net,
                    input: Input::Uniform,
                    index: i as usize,
                    seed: seed.wrapping_add(i),
                    cycles,
                })
            })
            .collect(),
        Workload::MlTrain => [pearl_on_pairs(&[Net::Ml500]), cmesh()].concat(),
    }
}

fn build(sim: &Sim, ml: Option<&MlPowerScaler>) -> Built {
    if sim.net == Net::Cmesh {
        let builder = CmeshBuilder::new().seed(sim.seed);
        return Built::Cmesh(Box::new(match sim.input {
            Input::Pair(pair) => builder.build(pair),
            Input::Uniform => builder.build_from_source(Box::new(uniform_source(sim.seed))),
        }));
    }
    let policy = match sim.net {
        Net::Dyn64 => PearlPolicy::dyn_64wl(),
        Net::Reactive500 => PearlPolicy::reactive(WINDOW),
        _ => PearlPolicy::ml(WINDOW, ml.expect("ML runs follow training").clone(), true),
    };
    let builder = NetworkBuilder::new().policy(policy).seed(sim.seed);
    Built::Pearl(Box::new(match sim.input {
        Input::Pair(pair) => builder.build(pair),
        Input::Uniform => builder.build_from_source(Box::new(uniform_source(sim.seed))),
    }))
}

fn uniform_source(seed: u64) -> SyntheticTraffic {
    SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        CLUSTERS,
        UNIFORM_RATE,
        CoreType::Cpu,
        seed,
    )
}

/// The trainer keeps its own default seed: the model it trains decides
/// how much work the ML runs do, and a model per workload seed moved
/// their throughput by up to 15 % between seeds, which would swamp the
/// simulator's own speed. The workload seed drives the test pairs.
fn trainer() -> MlTrainer {
    let mut trainer = MlTrainer::new(WINDOW);
    trainer.cycles_per_pair = TRAIN_CYCLES_PER_PAIR;
    trainer
}

/// FNV-1a over 64-bit words: the digest of a run's summary bits.
fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One checked operation (a simulation or a training) of a pass.
pub struct Op {
    pub label: String,
    pub digest: u64,
    /// Failed output checks, empty when the operation is correct.
    pub problems: Vec<String>,
}

/// Everything one pass measured. Times are the benchmark thread's CPU
/// time unless named `wall`.
#[derive(Default)]
pub struct Pass {
    /// Building the networks, traffic sources and trainer: per network
    /// the median of `SETUP_REPS` builds.
    pub setup: Duration,
    /// The rest of the pass, less the traced pass's own measurements
    /// (generator stepping and predict sweeps), so traced and untraced
    /// passes time the same simulations and training.
    pub cpu: Duration,
    pub wall: Duration,
    pub pearl_cycles: u64,
    pub cmesh_cycles: u64,
    pub train: Option<Duration>,
    pub nrmse: Option<f64>,
    /// Each timed operation in run order: the training or a network's
    /// `run`, and its CPU time.
    timed: Vec<(Timed, Duration)>,
    /// CPU time of each reference round, one before each timed operation
    /// and one after the last (left out of `cpu`): operation i ran
    /// between rounds i and i + 1.
    reference: Vec<Duration>,
    pub ops: Vec<Op>,
    /// Per-layer metrics, on traced passes only.
    pub layers: Option<BTreeMap<String, f64>>,
}

/// What a timed operation of a pass ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    Train,
    Pearl,
    Cmesh,
}

impl Pass {
    /// CPU seconds of the operations `which` selects.
    pub fn cpu_s(&self, which: impl Fn(Timed) -> bool) -> f64 {
        self.timed.iter().filter(|(t, _)| which(*t)).map(|(_, cpu)| cpu.as_secs_f64()).sum()
    }

    /// Reference seconds of the operations `which` selects: each one's
    /// CPU time at the host speed of the reference rounds either side of
    /// it. The host's speed drifts within a pass too, so each operation
    /// is converted at its own time rather than at the pass's mean.
    pub fn ref_s(&self, which: impl Fn(Timed) -> bool) -> f64 {
        let round = |i: usize| (self.reference[i] + self.reference[i + 1]).as_secs_f64() / 2.0;
        let rounds: f64 = (self.timed.iter().enumerate())
            .filter(|(_, (t, _))| which(*t))
            .map(|(i, (_, cpu))| cpu.as_secs_f64() / round(i))
            .sum();
        rounds / REFERENCE_ROUNDS_PER_S
    }

    /// The pass's `cpu` in reference seconds, converted at the rate of
    /// all its timed operations.
    pub fn workload_ref_s(&self) -> f64 {
        self.cpu.as_secs_f64() * self.ref_s(|_| true) / self.cpu_s(|_| true)
    }

    /// The mean CPU time of the pass's reference rounds, in seconds.
    pub fn reference_round(&self) -> f64 {
        self.reference.iter().sum::<Duration>().as_secs_f64() / self.reference.len() as f64
    }
}

/// Runs one pass of `workload`. With a tracer, every simulation is
/// profiled and counted and the per-layer metrics are filled in.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    kernel: &mut ReferenceKernel,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let started = Clock::start();
    let mut pass = Pass::default();
    // (wall, CPU) time left out of `cpu`: building, all repetitions
    // included, reference rounds, and the measurements only a traced
    // pass makes.
    let mut aside = (Duration::ZERO, Duration::ZERO);
    let mut layers = tracer.as_ref().map(|_| Layers::default());
    let pass_span = tracer.as_deref_mut().map(|t| t.open(None, "pass", workload.name()));

    let mut model: Option<TrainedModel> = None;
    let mut validation_rows: Option<Dataset> = None;
    if workload == Workload::MlTrain {
        let t = Clock::start();
        let trainer = black_box(trainer());
        let (wall, cpu) = t.elapsed();
        (pass.setup, aside) = (cpu, (wall, cpu));
        reference(&mut pass, kernel, &mut aside);
        let t = Clock::start();
        let trained = match (tracer.as_deref_mut(), layers.as_mut()) {
            (Some(tr), Some(l)) => {
                let (trained, validation) = train_split(&trainer, tr, pass_span, l);
                validation_rows = Some(validation);
                trained
            }
            _ => trainer.train().expect("ridge fit on a non-empty collection"),
        };
        pass.train = Some(t.elapsed().1);
        pass.timed.push((Timed::Train, t.elapsed().1));
        pass.nrmse = Some(trained.validation_nrmse);
        pass.ops.push(check_training(&trained));
        model = Some(trained);
    }

    let ml = model.as_ref().map(|m| &m.scaler);
    for sim in sims(workload, seed) {
        let sim_span = tracer.as_deref_mut().map(|t| t.open(pass_span, "sim", &sim.label()));
        reference(&mut pass, kernel, &mut aside);
        let reps = Clock::start();
        let mut build_times = Vec::with_capacity(SETUP_REPS);
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t = Clock::start();
            built = Some(build(&sim, ml));
            build_times.push(t.elapsed().1.as_secs_f64());
        }
        pass.setup += Duration::from_secs_f64(crate::median(&mut build_times));
        let (wall, cpu) = reps.elapsed();
        aside = (aside.0 + wall, aside.1 + cpu);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(sim_span, "build", &sim.label(), reps.wall_start(), wall);
        }
        let traced = tracer.is_some();
        let t = Clock::start();
        let (op, (run_wall, _)) = match built.expect("SETUP_REPS > 0") {
            Built::Pearl(mut net) => {
                if traced {
                    net.enable_profiling();
                    net.enable_work_counters();
                }
                let (summary, allocs) = count_allocs(traced, || net.run(sim.cycles));
                let elapsed = t.elapsed();
                pass.pearl_cycles += summary.cycles;
                pass.timed.push((Timed::Pearl, elapsed.1));
                if let Some(l) = layers.as_mut() {
                    l.pearl(&net, elapsed.0, allocs);
                }
                (check_pearl(&sim, &net, &summary), elapsed)
            }
            Built::Cmesh(mut net) => {
                if traced {
                    net.enable_profiling();
                    net.enable_work_counters();
                }
                let (summary, allocs) = count_allocs(traced, || net.run(sim.cycles));
                let elapsed = t.elapsed();
                pass.cmesh_cycles += summary.cycles;
                pass.timed.push((Timed::Cmesh, elapsed.1));
                if let Some(l) = layers.as_mut() {
                    l.cmesh(&net, elapsed.0, allocs);
                }
                (check_cmesh(&sim, &net, &summary), elapsed)
            }
        };
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(sim_span, "run", &sim.label(), t.wall_start(), run_wall);
            tr.close(sim_span);
        }
        pass.ops.push(op);
    }
    reference(&mut pass, kernel, &mut aside);

    if let (Some(tr), Some(l)) = (tracer.as_deref_mut(), layers.as_mut()) {
        let t = Clock::start();
        step_generators(workload, seed, tr, pass_span, l);
        if let (Some(m), Some(rows)) = (&model, &validation_rows) {
            l.ml_predict(predict_ns(m.scaler.selection(), rows.features()));
        }
        let (wall, cpu) = t.elapsed();
        aside = (aside.0 + wall, aside.1 + cpu);
    }
    if let Some(tr) = tracer {
        tr.close(pass_span);
    }
    let (wall, cpu) = started.elapsed();
    pass.wall = wall.saturating_sub(aside.0);
    pass.cpu = cpu.saturating_sub(aside.1);
    pass.layers = layers.map(|l| l.finish(&mut pass.ops));
    pass
}

/// Runs one reference round for `pass` and sets its time aside.
fn reference(pass: &mut Pass, kernel: &mut ReferenceKernel, aside: &mut (Duration, Duration)) {
    let t = Clock::start();
    pass.reference.push(kernel.round());
    let (wall, cpu) = t.elapsed();
    *aside = (aside.0 + wall, aside.1 + cpu);
}

/// `MlTrainer::train` split into its public calls, in the same order,
/// each inside a span: two collections, λ selection, the ML-driven
/// re-collection and the final λ selection. Returns the model and the
/// final validation set.
fn train_split(
    trainer: &MlTrainer,
    tracer: &mut Tracer,
    parent: Option<usize>,
    layers: &mut Layers,
) -> (TrainedModel, Dataset) {
    let training = BenchmarkPair::training_pairs();
    let validation = BenchmarkPair::validation_pairs();
    let pairs_per_round = (training.len() + validation.len()) as u64;
    let collect = |tracer: &mut Tracer,
                   layers: &mut Layers,
                   label: &str,
                   pairs: &[BenchmarkPair],
                   policy: &PearlPolicy| {
        let t = Clock::start();
        let data = trainer.collect(pairs, policy);
        let (wall, cpu) = t.elapsed();
        tracer.record(parent, "collect", label, t.wall_start(), wall);
        layers.ml_collect(cpu);
        data
    };
    let fit = |tracer: &mut Tracer, label: &str, train: &Dataset, validation: &Dataset| {
        let t = Clock::start();
        let selection = select_lambda(train, validation, &DEFAULT_LAMBDA_GRID)
            .expect("ridge fit on a non-empty collection");
        let (wall, cpu) = t.elapsed();
        tracer.record(parent, "select_lambda", label, t.wall_start(), wall);
        (selection, cpu)
    };
    let random = PearlPolicy::random_walk(trainer.window);
    let train1 = collect(tracer, layers, "train/random", &training, &random);
    let val1 = collect(tracer, layers, "validation/random", &validation, &random);
    // `train()` fits on copies (its basis expansion, off by default, is a
    // clone); the copies are made here too so both do the same work.
    let (first, first_fit) = fit(tracer, "random", &train1.clone(), &val1.clone());

    let scaler = MlPowerScaler::new(first).with_guard(trainer.guard);
    let driven = PearlPolicy::ml(trainer.window, scaler, false);
    let train2 = collect(tracer, layers, "train/driven", &training, &driven);
    let val2 = collect(tracer, layers, "validation/driven", &validation, &driven);
    let (last, last_fit) = fit(tracer, "driven", &train2.clone(), &val2.clone());

    layers.ml_fit(
        first_fit + last_fit,
        train1.len() + train2.len(),
        train2.len(),
        2 * pairs_per_round * trainer.cycles_per_pair,
    );
    let model = TrainedModel {
        lambda: last.lambda,
        validation_nrmse: last.validation_nrmse,
        training_samples: train2.len(),
        window: trainer.window,
        scaler: MlPowerScaler::new(last).with_guard(trainer.guard),
    };
    (model, val2)
}

/// Per-row CPU time of the public λ-selection `predict` over `rows`,
/// the median of several sweeps.
fn predict_ns(selection: &LambdaSelection, rows: &[Vec<f64>]) -> f64 {
    let mut sweeps: Vec<f64> = (0..9)
        .map(|_| {
            let t = Clock::start();
            for row in rows {
                black_box(selection.predict(black_box(row)));
            }
            t.elapsed().1.as_secs_f64() * 1e9 / rows.len().max(1) as f64
        })
        .collect();
    crate::median(&mut sweeps)
}

/// Steps each simulation's traffic generator alone for `PEARL_CYCLES`:
/// the trace generators of every pair on `hetero` and `ml_train`, the
/// synthetic uniform source on `uniform_sat`.
fn step_generators(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<usize>,
    layers: &mut Layers,
) {
    let mut step = |label: String, next: &mut dyn FnMut(Cycle) -> usize| {
        let t = Clock::start();
        let mut requests = 0u64;
        for c in 0..PEARL_CYCLES {
            requests += next(Cycle(c)) as u64;
        }
        let (wall, cpu) = t.elapsed();
        tracer.record(parent, "generator_step", &label, t.wall_start(), wall);
        layers.generator(PEARL_CYCLES, requests, cpu);
    };
    match workload {
        Workload::UniformSat => {
            for i in 0..UNIFORM_SIMS {
                let mut source = uniform_source(seed.wrapping_add(i));
                step(format!("uniform/{i:02}"), &mut |c| black_box(source.step(c)).len());
            }
        }
        Workload::Hetero | Workload::MlTrain => {
            for (i, pair) in BenchmarkPair::test_pairs().into_iter().enumerate() {
                let mut model = TrafficModel::new(pair, CLUSTERS, seed.wrapping_add(i as u64));
                step(format!("pair/{i:02}"), &mut |c| black_box(model.step(c)).len());
            }
        }
    }
}

fn finite(values: &[(&str, f64)], problems: &mut Vec<String>) {
    for (name, v) in values {
        if !v.is_finite() {
            problems.push(format!("{name} is not finite ({v})"));
        }
    }
}

fn check_pearl(sim: &Sim, net: &PearlNetwork, s: &pearl_core::RunSummary) -> Op {
    let mut problems = Vec::new();
    let stats = net.stats();
    let (injected, delivered) = (stats.total_injected_packets(), stats.total_delivered_packets());
    let in_network = net.in_network_packets();
    if injected != delivered + in_network {
        problems.push(format!(
            "packet conservation: injected {injected} != delivered {delivered} + in network {in_network}"
        ));
    }
    if s.cycles != sim.cycles {
        problems.push(format!("ran {} cycles, asked for {}", s.cycles, sim.cycles));
    }
    finite(
        &[
            ("throughput", s.throughput_flits_per_cycle),
            ("avg_latency_cpu", s.avg_latency_cpu),
            ("avg_latency_gpu", s.avg_latency_gpu),
            ("latency_p99", s.latency_p99),
            ("avg_laser_power_w", s.avg_laser_power_w),
            ("avg_total_power_w", s.avg_total_power_w),
            ("energy_per_bit_j", s.energy_per_bit_j),
        ],
        &mut problems,
    );
    let digest = digest(&[
        s.delivered_flits,
        s.delivered_packets,
        s.avg_latency_cpu.to_bits(),
        s.avg_latency_gpu.to_bits(),
        s.energy_per_bit_j.to_bits(),
        s.avg_laser_power_w.to_bits(),
    ]);
    Op { label: sim.label(), digest, problems }
}

fn check_cmesh(sim: &Sim, net: &CmeshNetwork, s: &pearl_cmesh::CmeshSummary) -> Op {
    let mut problems = Vec::new();
    let stats = net.stats();
    let (injected, delivered) = (stats.total_injected_packets(), stats.total_delivered_packets());
    // CMESH exposes no in-network count; a packet is either delivered or
    // held by one of the bounded structures every node owns (two issue
    // backlogs, outstanding requests, pending responses and VC buffers),
    // so the difference can neither go negative nor exceed their capacity.
    let c = net.config();
    let per_node = 2 * c.backlog_packets as u64
        + 2 * u64::from(c.cpu_outstanding_limit + c.gpu_outstanding_limit)
        + (5 * c.vcs_per_port * c.slots_per_vc) as u64;
    let capacity = (c.clusters() as u64 + 1) * per_node;
    if delivered > injected || injected - delivered > capacity {
        problems.push(format!(
            "packet conservation: injected {injected}, delivered {delivered}, bound {capacity}"
        ));
    }
    if s.cycles != sim.cycles {
        problems.push(format!("ran {} cycles, asked for {}", s.cycles, sim.cycles));
    }
    finite(
        &[
            ("throughput", s.throughput_flits_per_cycle),
            ("avg_latency_cpu", s.avg_latency_cpu),
            ("avg_latency_gpu", s.avg_latency_gpu),
            ("avg_power_w", s.avg_power_w),
            ("energy_per_bit_j", s.energy_per_bit_j),
        ],
        &mut problems,
    );
    let digest = digest(&[
        s.delivered_flits,
        s.delivered_packets,
        s.avg_latency_cpu.to_bits(),
        s.avg_latency_gpu.to_bits(),
        s.energy_per_bit_j.to_bits(),
        s.avg_power_w.to_bits(),
    ]);
    Op { label: sim.label(), digest, problems }
}

fn check_training(m: &TrainedModel) -> Op {
    let mut problems = Vec::new();
    finite(&[("lambda", m.lambda), ("validation_nrmse", m.validation_nrmse)], &mut problems);
    if m.lambda <= 0.0 || m.validation_nrmse > 1.0 || m.training_samples == 0 {
        problems.push(format!(
            "implausible model: lambda {} nrmse {} samples {}",
            m.lambda, m.validation_nrmse, m.training_samples
        ));
    }
    let digest =
        digest(&[m.lambda.to_bits(), m.validation_nrmse.to_bits(), m.training_samples as u64]);
    Op { label: "train".into(), digest, problems }
}
