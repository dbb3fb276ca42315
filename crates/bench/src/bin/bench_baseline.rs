//! Perf-regression observatory: a pinned workload matrix whose
//! simulated metrics are deterministic and whose wall-clock throughput
//! tracks the simulator's speed over time.
//!
//! Each invocation runs the matrix (PEARL-Dyn 64 WL, reactive RW500,
//! ML RW500 and the CMESH baseline on the standard test pair) and
//! writes `results/BENCH_<date>.json`: per-row simulated
//! latency/energy/throughput, wall-clock simulated-cycles/sec (both
//! networks via [`SelfProfiler`]), the wasted-work counters/ratios of
//! the instrumented run, and the measured wall-clock overhead of
//! enabling only the counters (min-of-reps counters-on vs. bare —
//! recorded and warned past [`COUNTERS_OVERHEAD_BAND_PCT`], never
//! gated).
//!
//! When `results/BENCH_baseline.json` exists, every row is compared
//! against it: a *simulated* metric drifting more than
//! [`SIM_NOISE_BAND`] in the bad direction is a regression and the
//! binary exits non-zero — the simulators are deterministic, so any
//! drift means behavior changed without the baseline being re-blessed.
//! Wall-clock throughput regressions beyond [`WALL_NOISE_BAND`] only
//! warn (CI machines are noisy). With no baseline on disk the current
//! matrix is blessed as `BENCH_baseline.json`.
//!
//! Flags: `--smoke` runs the cheap subset of rows (same cycle counts,
//! so the numbers stay comparable against the full baseline);
//! `--bless` rewrites `BENCH_baseline.json` from this run.
//!
//! [`SelfProfiler`]: pearl_telemetry::SelfProfiler

use pearl_bench::{harness::train_model, has_flag, run_all_pairs, JobPool, RESULTS_DIR, SEED_BASE};
use pearl_cmesh::CmeshBuilder;
use pearl_core::{NetworkBuilder, PearlPolicy};
use pearl_telemetry::{atomic_write_file, JsonValue, ProfileReport, WorkCounters};
use pearl_workloads::BenchmarkPair;
use std::time::Instant;

/// Cycles per matrix row — long enough that per-cycle costs dominate
/// setup noise, short enough for a CI job.
const CYCLES: u64 = 30_000;

/// Timed repetitions when measuring the counters-only overhead; the
/// minimum of each arm is compared so scheduler noise shrinks instead
/// of dominating a single-run ratio.
const OVERHEAD_REPS: usize = 5;

/// Wall-clock overhead the enabled work counters are allowed before the
/// run warns (recorded, never gated — CI machines are noisy).
const COUNTERS_OVERHEAD_BAND_PCT: f64 = 5.0;

/// Allowed relative drift of a deterministic simulated metric before
/// the comparison flags a regression.
const SIM_NOISE_BAND: f64 = 0.10;

/// Allowed relative wall-clock slowdown before the comparison warns.
const WALL_NOISE_BAND: f64 = 0.25;

/// One measured matrix row.
struct BenchRow {
    name: &'static str,
    cycles: u64,
    wall_secs: f64,
    cycles_per_sec: f64,
    /// `(metric name, value, higher_is_better)`.
    metrics: Vec<(&'static str, f64, bool)>,
    /// Work counters of the instrumented run (wasted-work ratios land
    /// in the artifact).
    work: Option<WorkCounters>,
    /// Wall-clock cost of enabling *only* the counters, min-of-reps
    /// counters-on vs. bare (`None` when not measured).
    counters_overhead_pct: Option<f64>,
}

/// Min-of-`OVERHEAD_REPS` wall seconds of `run` over a fresh `setup()`
/// value each rep — the overhead comparison wants each arm's best case
/// with construction excluded, not its noise.
fn min_wall<N>(mut setup: impl FnMut() -> N, mut run: impl FnMut(&mut N)) -> f64 {
    (0..OVERHEAD_REPS)
        .map(|_| {
            let mut n = setup();
            let t0 = Instant::now();
            run(&mut n);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn run_pearl_row(name: &'static str, policy: PearlPolicy) -> BenchRow {
    let pair = BenchmarkPair::test_pairs()[0];
    let build = || NetworkBuilder::new().policy(policy.clone()).seed(SEED_BASE).build(pair);
    let mut net = build();
    net.enable_profiling();
    net.enable_work_counters();
    let start = Instant::now();
    let s = net.run(CYCLES);
    let wall = start.elapsed().as_secs_f64();
    let profile = net.profile_report().expect("profiling enabled");
    let work = net.work_counters().cloned();
    let bare = min_wall(&build, |n| {
        n.run(CYCLES);
    });
    let counted = min_wall(
        || {
            let mut net = build();
            net.enable_work_counters();
            net
        },
        |n| {
            n.run(CYCLES);
        },
    );
    BenchRow {
        name,
        cycles: CYCLES,
        wall_secs: wall,
        cycles_per_sec: profile.cycles_per_sec(),
        metrics: vec![
            ("throughput_flits_per_cycle", s.throughput_flits_per_cycle, true),
            ("avg_latency_cpu", s.avg_latency_cpu, false),
            ("avg_latency_gpu", s.avg_latency_gpu, false),
            ("latency_p99", s.latency_p99, false),
            ("energy_pj_per_bit", s.energy_per_bit_j * 1e12, false),
        ],
        work,
        counters_overhead_pct: Some((counted / bare.max(1e-12) - 1.0) * 100.0),
    }
}

fn run_cmesh_row() -> BenchRow {
    let pair = BenchmarkPair::test_pairs()[0];
    let build = || CmeshBuilder::new().seed(SEED_BASE).build(pair);
    let mut net = build();
    net.enable_profiling();
    net.enable_work_counters();
    let start = Instant::now();
    let s = net.run(CYCLES);
    let wall = start.elapsed().as_secs_f64();
    let profile = net.profile_report().expect("profiling enabled");
    let work = net.work_counters().cloned();
    let bare = min_wall(&build, |n| {
        n.run(CYCLES);
    });
    let counted = min_wall(
        || {
            let mut net = build();
            net.enable_work_counters();
            net
        },
        |n| {
            n.run(CYCLES);
        },
    );
    BenchRow {
        name: "cmesh",
        cycles: CYCLES,
        wall_secs: wall,
        cycles_per_sec: profile.cycles_per_sec(),
        metrics: vec![
            ("throughput_flits_per_cycle", s.throughput_flits_per_cycle, true),
            ("avg_latency_cpu", s.avg_latency_cpu, false),
            ("avg_latency_gpu", s.avg_latency_gpu, false),
            ("energy_pj_per_bit", s.energy_per_bit_j * 1e12, false),
        ],
        work,
        counters_overhead_pct: Some((counted / bare.max(1e-12) - 1.0) * 100.0),
    }
}

/// Runs the reactive-RW500 pair sweep through `pool`, timing the whole
/// fan-out and merging every job's self-profile. The sweep is the
/// harness's canonical parallel workload, so the recorded speedup
/// tracks what `--jobs` buys the figure binaries on this machine.
fn pool_sweep(pool: &JobPool, cycles: u64) -> (f64, ProfileReport) {
    let start = Instant::now();
    let profiles = run_all_pairs(pool, |_, pair, seed| {
        let mut net =
            NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(seed).build(pair);
        net.enable_profiling();
        net.run(cycles);
        net.profile_report().expect("profiling enabled")
    });
    (start.elapsed().as_secs_f64(), ProfileReport::merged(&profiles))
}

/// Hardware threads the OS reports, which caps any pool speedup no
/// matter how many workers `--jobs` asks for.
fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A deterministic pure-CPU spin (no allocation, no memory traffic):
/// the pool's best case on this machine. Returns the accumulator so the
/// work cannot be optimized away.
fn spin_task(iters: u64) -> u64 {
    let mut acc = 0x9E37_79B9u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

/// Times `tasks` spin jobs sequentially and through `jobs` workers.
/// Because the spin has no cache or allocator footprint, this isolates
/// what the *machine* allows from what the *pool* delivers: on a
/// single-core box both speedups pin to ~1x and the pool is vindicated;
/// on a multi-core box a sweep speedup far below the spin speedup
/// points at the workload (memory-bound) or the pool (overhead).
fn spin_calibration(jobs: usize) -> f64 {
    const TASKS: usize = 16;
    const ITERS: u64 = 8_000_000;
    let time = |pool: &JobPool| {
        let start = Instant::now();
        let sums = pool.run(TASKS, |i| spin_task(ITERS + i as u64));
        assert_eq!(sums.len(), TASKS);
        start.elapsed().as_secs_f64()
    };
    let seq = time(&JobPool::new(1));
    let par = time(&JobPool::new(jobs));
    seq / par.max(1e-12)
}

/// One line explaining the measured sweep speedup in terms of what this
/// machine can give. Recorded in the artifact so a committed ~1x is
/// self-justifying instead of looking like a broken pool.
fn diagnose_speedup(jobs: usize, machine: usize, sweep: f64, spin: f64) -> String {
    let effective = jobs.min(machine);
    if jobs <= 1 {
        format!(
            "one worker requested: the pooled sweep runs sequentially, so ~1x is expected, \
             not pool overhead; this machine exposes {machine} hardware thread(s) \
             (pure-CPU spin control: {spin:.2}x)"
        )
    } else if machine <= 1 {
        format!(
            "machine exposes one hardware thread: {jobs} workers time-slice one core, so ~1x \
             is the ceiling, not pool overhead (pure-CPU spin control: {spin:.2}x)"
        )
    } else if sweep >= 0.75 * spin {
        format!(
            "sweep tracks the pure-CPU spin control ({spin:.2}x) on {effective} effective \
             worker(s): the pool scales as well as this machine allows"
        )
    } else {
        format!(
            "sweep lags the pure-CPU spin control ({spin:.2}x) on {effective} effective \
             worker(s): the simulator workload is memory/cache-bound, not pool-limited"
        )
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days arithmetic — the
/// only wall-clock value in the artifact, and it only names the file).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn rows_to_json(date: &str, smoke: bool, rows: &[BenchRow], pool: JsonValue) -> JsonValue {
    JsonValue::obj(vec![
        ("name", JsonValue::str("bench_baseline")),
        // v2: rows carry `work` (raw counters), `waste` (derived
        // ratios) and `counters_overhead_pct`. The comparison ignores
        // unknown fields, so v1 baselines stay comparable.
        ("schema_version", JsonValue::u64(2)),
        ("date", JsonValue::str(date)),
        ("smoke", JsonValue::Bool(smoke)),
        ("pool", pool),
        (
            "rows",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::str(r.name)),
                            ("cycles", JsonValue::u64(r.cycles)),
                            ("wall_secs", JsonValue::Num(r.wall_secs)),
                            ("cycles_per_sec", JsonValue::Num(r.cycles_per_sec)),
                            (
                                "metrics",
                                JsonValue::Obj(
                                    r.metrics
                                        .iter()
                                        .map(|(k, v, _)| (k.to_string(), JsonValue::Num(*v)))
                                        .collect(),
                                ),
                            ),
                            (
                                "work",
                                r.work.as_ref().map_or(JsonValue::Null, WorkCounters::to_json),
                            ),
                            (
                                "waste",
                                r.work.as_ref().map_or(JsonValue::Null, |w| w.ratios().to_json()),
                            ),
                            (
                                "counters_overhead_pct",
                                r.counters_overhead_pct.map_or(JsonValue::Null, JsonValue::Num),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares this run against the committed baseline. Returns the number
/// of simulated-metric regressions (wall-clock slowdowns only warn).
fn compare_against_baseline(baseline: &JsonValue, rows: &[BenchRow]) -> u64 {
    let empty = Vec::new();
    let base_rows = baseline.get("rows").and_then(JsonValue::as_arr).unwrap_or(&empty);
    let find = |name: &str| {
        base_rows.iter().find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
    };
    let mut regressions = 0u64;
    println!("\n-- comparison against {RESULTS_DIR}/BENCH_baseline.json --");
    for row in rows {
        let Some(base) = find(row.name) else {
            println!("  {:<18} (no baseline row — skipped)", row.name);
            continue;
        };
        if base.get("cycles").and_then(JsonValue::as_u64) != Some(row.cycles) {
            println!("  {:<18} baseline ran a different cycle count — skipped", row.name);
            continue;
        }
        for (metric, value, higher_is_better) in &row.metrics {
            let Some(was) =
                base.get("metrics").and_then(|m| m.get(metric)).and_then(JsonValue::as_f64)
            else {
                continue;
            };
            if was.abs() < f64::EPSILON {
                continue;
            }
            let drift = (value - was) / was;
            let worse = if *higher_is_better { -drift } else { drift };
            if worse > SIM_NOISE_BAND {
                println!(
                    "  {:<18} REGRESSION {metric}: {was:.4} -> {value:.4} ({:+.1} %)",
                    row.name,
                    drift * 100.0
                );
                regressions += 1;
            } else if worse < -SIM_NOISE_BAND {
                println!(
                    "  {:<18} improved {metric}: {was:.4} -> {value:.4} ({:+.1} %) — \
                     re-bless the baseline to lock it in",
                    row.name,
                    drift * 100.0
                );
            }
        }
        if let Some(was) = base.get("cycles_per_sec").and_then(JsonValue::as_f64) {
            if was > 0.0 && row.cycles_per_sec < was * (1.0 - WALL_NOISE_BAND) {
                println!(
                    "  {:<18} warning: {:.0} cycles/sec vs baseline {:.0} \
                     (wall-clock only — not gated)",
                    row.name, row.cycles_per_sec, was
                );
            }
        }
    }
    if regressions == 0 {
        println!("  all simulated metrics within the ±{:.0} % band", SIM_NOISE_BAND * 100.0);
    }
    regressions
}

fn main() {
    let args = pearl_bench::Cli::new(
        "bench_baseline",
        "pinned workload matrix for simulated-metric and wall-clock regression tracking",
    )
    .flag("--smoke", "cheap row subset with unchanged cycle counts")
    .flag("--bless", "rewrite results/BENCH_baseline.json from this run")
    .parse();
    let smoke = has_flag("--smoke");

    println!(
        "=== bench_baseline: {} matrix, {CYCLES} cycles/row ===",
        if smoke { "smoke" } else { "full" }
    );
    let mut rows = vec![
        run_pearl_row("pearl_dyn64", PearlPolicy::dyn_64wl()),
        run_pearl_row("pearl_reactive500", PearlPolicy::reactive(500)),
    ];
    if !smoke {
        let model = train_model(500);
        rows.push(run_pearl_row("pearl_ml500", PearlPolicy::ml(500, model.scaler, true)));
    }
    rows.push(run_cmesh_row());

    println!("{:<18} {:>10} {:>12} {:>14}", "row", "cycles", "wall s", "cycles/sec");
    for r in &rows {
        println!(
            "{:<18} {:>10} {:>12.3} {:>14.0}",
            r.name, r.cycles, r.wall_secs, r.cycles_per_sec
        );
        for (k, v, _) in &r.metrics {
            println!("    {k:<28} {v:.6}");
        }
        if let Some(w) = &r.work {
            for (name, ratio) in w.ratios().rows() {
                let text = ratio.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
                println!("    waste.{name:<22} {text}");
            }
        }
        if let Some(pct) = r.counters_overhead_pct {
            let verdict = if pct <= COUNTERS_OVERHEAD_BAND_PCT {
                "ok"
            } else {
                "WARNING: above band (wall-clock only — not gated)"
            };
            println!(
                "    counters_overhead_pct        {pct:+.2} (band {COUNTERS_OVERHEAD_BAND_PCT:.0} %: {verdict})"
            );
        }
    }

    // Pool speedup: the same pair sweep sequentially and through the
    // requested worker count. Matrix rows above stay sequential so their
    // wall-clock numbers keep meaning; this section is recorded but
    // never gated — single-core CI shows ~1x, a 4+-core workstation
    // should show the fan-out paying for itself.
    let jobs = args.jobs();
    let machine = machine_parallelism();
    let sweep_cycles = if smoke { 5_000 } else { 15_000 };
    let (seq_secs, _) = pool_sweep(&JobPool::new(1), sweep_cycles);
    let (par_secs, merged) = pool_sweep(&JobPool::new(jobs), sweep_cycles);
    let speedup = seq_secs / par_secs.max(1e-12);
    let spin_speedup = spin_calibration(jobs);
    let effective = jobs.min(machine);
    let efficiency = speedup / effective.max(1) as f64;
    let diagnosis = diagnose_speedup(jobs, machine, speedup, spin_speedup);
    println!(
        "\n-- job-pool speedup ({sweep_cycles}-cycle pair sweep) --\n\
         {:<18} {:>12.3}\n{:<18} {:>12.3}\n{:<18} {:>12.2}x  \
         ({jobs} worker(s), {machine} hardware thread(s))\n\
         {:<18} {:>12.2}x\n{:<18} {:>12.2}\n   {diagnosis}",
        "sequential s",
        seq_secs,
        "pooled s",
        par_secs,
        "speedup",
        speedup,
        "spin control",
        spin_speedup,
        "efficiency",
        efficiency,
    );
    let pool_json = JsonValue::obj(vec![
        ("jobs", JsonValue::u64(jobs as u64)),
        ("machine_parallelism", JsonValue::u64(machine as u64)),
        ("effective_workers", JsonValue::u64(effective as u64)),
        ("sweep_cycles", JsonValue::u64(sweep_cycles)),
        ("sequential_secs", JsonValue::Num(seq_secs)),
        ("pooled_secs", JsonValue::Num(par_secs)),
        ("speedup", JsonValue::Num(speedup)),
        ("spin_speedup", JsonValue::Num(spin_speedup)),
        ("efficiency", JsonValue::Num(efficiency)),
        ("diagnosis", JsonValue::str(&diagnosis)),
        ("merged_profile", merged.to_json()),
    ]);

    let date = today_utc();
    let artifact = rows_to_json(&date, smoke, &rows, pool_json);
    let dated_path = format!("{RESULTS_DIR}/BENCH_{date}.json");
    atomic_write_file(&dated_path, &format!("{artifact}\n")).expect("write dated artifact");
    eprintln!("[wrote {dated_path}]");

    let baseline_path = format!("{RESULTS_DIR}/BENCH_baseline.json");
    let baseline =
        std::fs::read_to_string(&baseline_path).ok().and_then(|text| JsonValue::parse(&text).ok());
    match baseline {
        Some(base) if !has_flag("--bless") => {
            let regressions = compare_against_baseline(&base, &rows);
            if regressions > 0 {
                eprintln!(
                    "error: {regressions} simulated-metric regression(s) beyond the \
                     ±{:.0} % band — investigate, or re-bless with --bless",
                    SIM_NOISE_BAND * 100.0
                );
                std::process::exit(1);
            }
        }
        _ => {
            // First run or an explicit re-bless: smoke's subset would
            // bless away the full matrix, so only a full run may write
            // the baseline.
            if smoke {
                println!(
                    "\n(no usable baseline and --smoke runs a subset — \
                     run the full matrix to bless one)"
                );
            } else {
                atomic_write_file(&baseline_path, &format!("{artifact}\n"))
                    .expect("write baseline");
                eprintln!("[blessed {baseline_path}]");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::diagnose_speedup;

    /// The diagnosis names the actual limit: a one-worker request is
    /// not a one-core machine, and a one-core machine is not a pool
    /// that failed to scale.
    #[test]
    fn diagnosis_separates_one_worker_from_one_hardware_thread() {
        for (jobs, machine, must, must_not) in [
            (1, 2, "one worker requested", "time-slice"),
            (2, 1, "one hardware thread: 2 workers time-slice", "worker requested"),
            (4, 1, "one hardware thread: 4 workers time-slice", "worker requested"),
            (2, 2, "on 2 effective worker(s)", "time-slice"),
        ] {
            let text = diagnose_speedup(jobs, machine, 1.0, 1.9);
            assert!(text.contains(must), "jobs={jobs} machine={machine}: {text}");
            assert!(!text.contains(must_not), "jobs={jobs} machine={machine}: {text}");
        }
    }
}
