//! The repository benchmark: runs one workload against the simulators'
//! public APIs for a fixed host-time budget, checks every simulated
//! output, and prints each metric by name with its unit. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload hetero|uniform_sat|ml_train --seed N --seconds S --trace 0|1
//!           [--out DIR] [--expected FILE] [--bless] [--list-metrics]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and reports the per-layer metrics. See
//! `README.md` beside this package for every metric's definition.

mod layers;
mod machine;
mod workload;

use layers::{Tracer, PER_LAYER};
use machine::{CountingAlloc, Fingerprint, ReferenceKernel};
use pearl_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{run_pass, Pass, Timed, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// End-to-end metrics: name, unit and whether higher is better.
const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("workload_ref_s", "ref_s", false),
    ("pearl_cycles_per_ref_s", "cycles/ref_s", true),
    ("cmesh_cycles_per_ref_s", "cycles/ref_s", true),
    ("peak_rss_mb", "MiB", false),
];

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// The budget a run uses when none is given: `run_seconds` in
/// BENCHMARK.json, the run length the metric bounds were set on.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    expected: PathBuf,
    bless: bool,
}

const USAGE: &str =
    "usage: perfbench --workload hetero|uniform_sat|ml_train [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--expected FILE] [--bless] | --list-metrics";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Hetero,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        expected: PathBuf::from("perfbench/expected.json"),
        bless: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" => args.out = value()?.into(),
            "--expected" => args.expected = value()?.into(),
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Per-pass figures written to the result record: the end-to-end metrics
/// measured per pass and the raw CPU and wall times they derive from.
const PER_PASS: &[&str] = &[
    "setup_s",
    "workload_ref_s",
    "pearl_cycles_per_ref_s",
    "cmesh_cycles_per_ref_s",
    "workload_cpu_s",
    "wall_s",
    "pearl_cycles_per_s",
    "cmesh_cycles_per_s",
    "reference_round_s",
];

/// One pass's value of a per-pass figure; the run reports the median
/// over its untraced passes.
fn per_pass(metric: &str, p: &Pass) -> f64 {
    let rate = |cycles: u64, time: f64| cycles as f64 / time;
    match metric {
        "setup_s" => p.setup.as_secs_f64(),
        "workload_ref_s" => p.workload_ref_s(),
        "pearl_cycles_per_ref_s" => rate(p.pearl_cycles, p.ref_s(|t| t == Timed::Pearl)),
        "cmesh_cycles_per_ref_s" => rate(p.cmesh_cycles, p.ref_s(|t| t == Timed::Cmesh)),
        "workload_cpu_s" => p.cpu.as_secs_f64(),
        "wall_s" => p.wall.as_secs_f64(),
        "pearl_cycles_per_s" => rate(p.pearl_cycles, p.cpu_s(|t| t == Timed::Pearl)),
        "cmesh_cycles_per_s" => rate(p.cmesh_cycles, p.cpu_s(|t| t == Timed::Cmesh)),
        "reference_round_s" => p.reference_round(),
        _ => unreachable!("{metric} is not measured per pass"),
    }
}

/// Expected per-operation digests, keyed `"<workload>/seed<N>"` then by
/// operation label, stored as hex strings.
type Expected = BTreeMap<String, BTreeMap<String, u64>>;

fn load_expected(path: &PathBuf) -> Result<Expected, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Expected::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let bad = || format!("{}: not a digest table", path.display());
    let JsonValue::Obj(runs) =
        JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
    else {
        return Err(bad());
    };
    let mut table = Expected::new();
    for (key, ops) in runs {
        let JsonValue::Obj(ops) = ops else { return Err(bad()) };
        let mut digests = BTreeMap::new();
        for (label, hex) in ops {
            let hex = hex.as_str().ok_or_else(bad)?;
            digests.insert(label, u64::from_str_radix(hex, 16).map_err(|_| bad())?);
        }
        table.insert(key, digests);
    }
    Ok(table)
}

fn save_expected(path: &PathBuf, table: &Expected) -> std::io::Result<()> {
    let mut text = String::from("{\n");
    for (i, (key, ops)) in table.iter().enumerate() {
        text.push_str(&format!("  {}: {{\n", JsonValue::str(key)));
        for (j, (label, digest)) in ops.iter().enumerate() {
            let comma = if j + 1 < ops.len() { "," } else { "" };
            text.push_str(&format!("    {}: \"{digest:016x}\"{comma}\n", JsonValue::str(label)));
        }
        text.push_str(if i + 1 < table.len() { "  },\n" } else { "  }\n" });
    }
    text.push_str("}\n");
    std::fs::write(path, text)
}

/// Applies the cross-pass checks: every operation's digest must match
/// the recorded one for this workload and seed (when recorded) and the
/// first pass's (the same inputs must give the same outputs).
fn check_digests(passes: &mut [Pass], expected: Option<&BTreeMap<String, u64>>) {
    let first: BTreeMap<String, u64> = passes
        .first()
        .map(|p| p.ops.iter().map(|o| (o.label.clone(), o.digest)).collect())
        .unwrap_or_default();
    for op in passes.iter_mut().flat_map(|p| p.ops.iter_mut()) {
        if let Some(table) = expected {
            match table.get(&op.label) {
                Some(&want) if want != op.digest => {
                    op.problems.push(format!("digest {:016x}, expected {want:016x}", op.digest))
                }
                Some(_) => {}
                None => op.problems.push("no expected digest recorded".into()),
            }
        }
        if first.get(&op.label) != Some(&op.digest) {
            op.problems.push(format!("digest {:016x} differs from the first pass", op.digest));
        }
    }
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::obj(vec![("value", JsonValue::Num(value)), ("unit", JsonValue::str(unit))])
}

fn run(args: &Args) -> Result<bool, String> {
    let expected = load_expected(&args.expected)?;
    let key = format!("{}/seed{}", args.workload.name(), args.seed);
    let fp = Fingerprint::measure();
    println!(
        "perfbench {} seed={} trace={} | cpu={:?} nproc={} rustc={:?} spin={:.1} Mips",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        fp.cpu,
        fp.nproc,
        fp.rustc,
        fp.spin_mips
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut kernel = ReferenceKernel::new();
    let mut passes = Vec::new();
    // Passes run until the next one would overrun the budget, judged by
    // the last pass's length; a traced run needs one pass of each kind.
    let mut last = Duration::ZERO;
    while passes.is_empty()
        || (args.trace && passes.len() < 2)
        || started.elapsed() + last <= budget
    {
        let traced = args.trace && passes.len() % 2 == 1;
        let t = Instant::now();
        passes.push(run_pass(args.workload, args.seed, &mut kernel, traced.then_some(&mut tracer)));
        last = t.elapsed();
    }
    let peak_rss = machine::peak_rss_mb().unwrap_or(f64::NAN);
    check_digests(&mut passes, expected.get(&key).filter(|_| !args.bless));

    let attempted: usize = passes.iter().map(|p| p.ops.len()).sum();
    let failures: Vec<String> = passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter(|o| !o.problems.is_empty())
        .map(|o| format!("{}: {}", o.label, o.problems.join("; ")))
        .collect();
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }

    let plain: Vec<&Pass> = passes.iter().filter(|p| p.layers.is_none()).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.layers.is_some()).collect();
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let time = |ps: &[&Pass]| median_of(ps, Pass::workload_ref_s);
        let overhead = (time(&traced) / time(&plain) - 1.0) * 100.0;
        for &(name, unit, _) in PER_LAYER {
            let v = match name {
                "trace_overhead_pct" => overhead,
                "ml.train_s" => median_of(&traced, |p| p.train.map_or(0.0, |d| d.as_secs_f64())),
                "ml.validation_nrmse" => median_of(&traced, |p| p.nrmse.unwrap_or(0.0)),
                _ => median_of(&traced, |p| p.layers.as_ref().map_or(0.0, |l| l[name])),
            };
            values.push((name, unit, v));
        }
    } else {
        for &(name, unit, _) in END_TO_END {
            let v = match name {
                "peak_rss_mb" => peak_rss,
                _ => median_of(&plain, |p| per_pass(name, p)),
            };
            values.push((name, unit, v));
        }
    }
    let pass_samples = JsonValue::Obj(
        PER_PASS
            .iter()
            .map(|&name| {
                let values = plain.iter().map(|p| JsonValue::Num(per_pass(name, p))).collect();
                (name.to_string(), JsonValue::Arr(values))
            })
            .collect(),
    );

    for (name, unit, v) in &values {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    for (name, unit) in [
        ("workload_cpu_s", "s"),
        ("pearl_cycles_per_s", "cycles/s"),
        ("cmesh_cycles_per_s", "cycles/s"),
        ("reference_round_s", "s"),
    ] {
        let v = median_of(&plain, |p| per_pass(name, p));
        println!("{name:<34} {v:>16.6} {unit} (CPU time, not adjusted for host speed)");
    }
    if args.workload == Workload::MlTrain {
        let train = median_of(&plain, |p| p.train.map_or(f64::NAN, |d| d.as_secs_f64()));
        let nrmse = plain.first().and_then(|p| p.nrmse).unwrap_or(f64::NAN);
        println!("{:<34} {train:>16.6} s", "train_s");
        println!("{:<34} {nrmse:>16.6} (paper: 0.79)", "ml_validation_nrmse");
    }
    let failed = failures.len();
    println!(
        "{:<34} {:>16.6} ({failed} of {attempted} operations over {} passes)",
        "ops_failed_frac",
        failed as f64 / attempted as f64,
        passes.len()
    );

    let record = JsonValue::obj(vec![
        ("workload", JsonValue::str(args.workload.name())),
        ("seed", JsonValue::str(args.seed.to_string())),
        ("trace", JsonValue::Bool(args.trace)),
        (
            "machine",
            JsonValue::obj(vec![
                ("cpu", JsonValue::str(&fp.cpu)),
                ("nproc", JsonValue::u64(fp.nproc as u64)),
                ("rustc", JsonValue::str(fp.rustc)),
                ("spin_mips", JsonValue::Num(fp.spin_mips)),
            ]),
        ),
        ("passes", JsonValue::u64(passes.len() as u64)),
        ("untraced_pass_samples", pass_samples),
        ("attempted", JsonValue::u64(attempted as u64)),
        ("failed", JsonValue::u64(failed as u64)),
        ("failures", JsonValue::Arr(failures.iter().map(JsonValue::str).collect())),
        (
            "metrics",
            JsonValue::Obj(values.iter().map(|(n, u, v)| (n.to_string(), metric(*v, u))).collect()),
        ),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let write = |name: String, text: String| {
        let path = args.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}.json"), format!("{record}\n"))?;
    if args.trace {
        write(format!("{stem}.spans.jsonl"), tracer.to_jsonl())?;
    }
    if args.bless {
        let mut table = expected;
        let ops = passes[0].ops.iter().map(|o| (o.label.clone(), o.digest)).collect();
        table.insert(key, ops);
        save_expected(&args.expected, &table)
            .map_err(|e| format!("{}: {e}", args.expected.display()))?;
    }

    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::u64(attempted as u64)),
        ("failed", JsonValue::u64(failed as u64)),
        (
            "metrics",
            JsonValue::Obj(values.iter().map(|(n, u, v)| (n.to_string(), metric(*v, u))).collect()),
        ),
    ]);
    println!("{result}");
    Ok(failed == 0)
}

fn list_metrics() -> JsonValue {
    let list = |rows: &[(&str, &str, bool)]| {
        JsonValue::Arr(
            rows.iter()
                .map(|&(name, unit, higher)| {
                    JsonValue::obj(vec![
                        ("name", JsonValue::str(name)),
                        ("unit", JsonValue::str(unit)),
                        ("better", JsonValue::str(if higher { "higher" } else { "lower" })),
                    ])
                })
                .collect(),
        )
    };
    JsonValue::obj(vec![
        (
            "workloads",
            JsonValue::Arr(Workload::ALL.iter().map(|w| JsonValue::str(w.name())).collect()),
        ),
        ("end_to_end", list(END_TO_END)),
        ("per_layer", list(PER_LAYER)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        println!("{}", list_metrics());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
