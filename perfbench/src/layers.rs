//! The traced run: spans recorded around each public call the benchmark
//! makes, and the per-layer metrics built from those spans plus the
//! networks' own `profile_report()` and `work_counters()`.

use crate::workload::Op;
use pearl_cmesh::CmeshNetwork;
use pearl_core::PearlNetwork;
use pearl_telemetry::{JsonValue, ProfileReport, Section, SubSection, WorkCounters};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit and whether higher is better. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("core.injection_s", "s", false),
    ("core.injection.traffic_s", "s", false),
    ("core.injection.responses_s", "s", false),
    ("core.dba_s", "s", false),
    ("core.transport_s", "s", false),
    ("core.transport.land_s", "s", false),
    ("core.transport.launch_s", "s", false),
    ("core.ejection_s", "s", false),
    ("core.power_s", "s", false),
    ("core.power.sample_s", "s", false),
    ("core.power.scale_s", "s", false),
    ("core.power.ml_s", "s", false),
    ("core.faults_s", "s", false),
    ("core.accounting_s", "s", false),
    ("core.other_s", "s", false),
    ("core.run_s", "s", false),
    ("core.cycles", "count", true),
    ("core.idle_scan", "ratio", false),
    ("core.routers_scanned", "count", false),
    ("core.dba_noop", "ratio", false),
    ("core.dba_invocations", "count", false),
    ("core.power_noop", "ratio", false),
    ("core.power_updates", "count", false),
    ("core.arb_loss", "ratio", false),
    ("core.arb_attempts", "count", false),
    ("core.iterations_per_flit", "ratio", false),
    ("core.flits_moved", "count", true),
    ("core.allocs_per_cycle", "1/cycle", false),
    ("core.alloc_bytes_per_cycle", "B/cycle", false),
    ("cmesh.injection_s", "s", false),
    ("cmesh.injection.traffic_s", "s", false),
    ("cmesh.injection.serialize_s", "s", false),
    ("cmesh.transport_s", "s", false),
    ("cmesh.transport.routes_s", "s", false),
    ("cmesh.transport.arbitration_s", "s", false),
    ("cmesh.transport.link_s", "s", false),
    ("cmesh.accounting_s", "s", false),
    ("cmesh.other_s", "s", false),
    ("cmesh.run_s", "s", false),
    ("cmesh.cycles", "count", true),
    ("cmesh.idle_scan", "ratio", false),
    ("cmesh.routers_scanned", "count", false),
    ("cmesh.arb_loss", "ratio", false),
    ("cmesh.arb_attempts", "count", false),
    ("cmesh.iterations_per_flit", "ratio", false),
    ("cmesh.flits_moved", "count", true),
    ("cmesh.allocs_per_cycle", "1/cycle", false),
    ("cmesh.alloc_bytes_per_cycle", "B/cycle", false),
    ("workloads.gen_ns_per_cycle", "ns/cycle", false),
    ("workloads.requests_per_cycle", "1/cycle", true),
    ("workloads.gen_cycles", "count", true),
    ("ml.train_s", "s", false),
    ("ml.collect_s", "s", false),
    ("ml.collect_cycles", "count", true),
    ("ml.select_lambda_s", "s", false),
    ("ml.samples", "count", true),
    ("ml.fit_us_per_sample", "us", false),
    ("ml.predict_ns", "ns", false),
    ("ml.validation_nrmse", "ratio", true),
    ("trace_overhead_pct", "%", false),
];

/// A timed interval around one call the benchmark made.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    label: String,
    start: Duration,
    end: Option<Duration>,
}

/// Spans kept in memory for the whole run and written out at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span that [`Tracer::close`] ends; returns its id.
    pub fn open(&mut self, parent: Option<usize>, name: &'static str, label: &str) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span { parent, name, label: label.into(), start, end: None });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = Some(self.origin.elapsed());
        }
    }

    /// Records a finished span that started at `t0` and lasted `d`.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        label: &str,
        t0: Instant,
        d: Duration,
    ) {
        let start = t0.saturating_duration_since(self.origin);
        self.spans.push(Span { parent, name, label: label.into(), start, end: Some(start + d) });
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let end = s.end.unwrap_or(s.start);
            let parent = s.parent.map_or(JsonValue::Null, |p| JsonValue::u64(p as u64));
            let line = JsonValue::obj(vec![
                ("id", JsonValue::u64(id as u64)),
                ("parent", parent),
                ("name", JsonValue::str(s.name)),
                ("label", JsonValue::str(&s.label)),
                ("start_ns", JsonValue::u64(s.start.as_nanos() as u64)),
                ("end_ns", JsonValue::u64(end.as_nanos() as u64)),
            ]);
            out.push_str(&format!("{line}\n"));
        }
        out
    }
}

/// Per-network accumulation over one traced pass.
#[derive(Default)]
struct NetLayer {
    profiles: Vec<ProfileReport>,
    work: WorkCounters,
    run: Duration,
    allocs: u64,
    alloc_bytes: u64,
}

impl NetLayer {
    fn add(
        &mut self,
        profile: Option<ProfileReport>,
        work: Option<&WorkCounters>,
        run: Duration,
        allocs: (u64, u64),
    ) {
        self.profiles.extend(profile);
        if let Some(w) = work {
            self.work.merge(w);
        }
        self.run += run;
        self.allocs += allocs.0;
        self.alloc_bytes += allocs.1;
    }

    /// Writes this network's metrics under `prefix` into the slots of
    /// `out` that [`PER_LAYER`] lists. Every section and sub-section
    /// reports its self time (`power/scale` excludes its nested
    /// `power/ml`), so a network's phase rows plus `other` sum to its
    /// traced `run` time. Returns the problems that break that sum: phase
    /// time beyond the run time, or in a phase without a listed metric.
    fn emit(&self, prefix: &str, out: &mut BTreeMap<String, f64>) -> Vec<String> {
        let p = ProfileReport::merged(&self.profiles);
        let mut phases: Vec<(String, Duration)> = Section::ALL
            .iter()
            .map(|&s| (format!("{}_s", s.name()), p.section_residual(s)))
            .collect();
        phases.extend(SubSection::ALL.iter().map(|&sub| {
            let nested: Duration = SubSection::ALL
                .iter()
                .filter(|s| s.nested_in() == Some(sub))
                .map(|&s| p.sub_time(s))
                .sum();
            (format!("{}_s", sub.name().replace('/', ".")), p.sub_time(sub).saturating_sub(nested))
        }));
        // Sets a listed metric; false when `PER_LAYER` has no such name
        // (a phase the network never enters, or ratios of machinery it
        // lacks: CMESH has no DBA and no laser).
        let mut put = |suffix: &str, v: f64| {
            out.get_mut(&format!("{prefix}.{suffix}")).map(|slot| *slot = v).is_some()
        };
        let mut unlisted = Duration::ZERO;
        for (name, d) in phases {
            if !put(&name, d.as_secs_f64()) {
                unlisted += d;
            }
        }
        let attributed = p.attributed();
        put("other_s", self.run.saturating_sub(attributed).as_secs_f64());
        put("run_s", self.run.as_secs_f64());
        let w = &self.work;
        let r = w.ratios();
        let cycles = w.cycles.max(1) as f64;
        put("cycles", w.cycles as f64);
        put("idle_scan", r.idle_scan.unwrap_or(0.0));
        put("routers_scanned", w.routers_scanned as f64);
        put("dba_noop", r.dba_noop.unwrap_or(0.0));
        put("dba_invocations", w.dba_invocations as f64);
        put("power_noop", r.power_noop.unwrap_or(0.0));
        put("power_updates", w.power_updates as f64);
        put("arb_loss", r.arb_loss.unwrap_or(0.0));
        put("arb_attempts", w.arb_attempts as f64);
        put("iterations_per_flit", r.iterations_per_flit.unwrap_or(0.0));
        put("flits_moved", w.flits_moved as f64);
        put("allocs_per_cycle", self.allocs as f64 / cycles);
        put("alloc_bytes_per_cycle", self.alloc_bytes as f64 / cycles);
        let slack = Duration::from_millis(1);
        let mut problems = Vec::new();
        if attributed > self.run + slack {
            let d = attributed - self.run;
            problems.push(format!("{prefix} phase times exceed traced run time by {d:?}"));
        }
        if unlisted > slack {
            problems.push(format!("{prefix} spends {unlisted:?} in phases with no metric"));
        }
        problems
    }
}

/// Per-layer measurements of one traced pass.
#[derive(Default)]
pub struct Layers {
    pearl: NetLayer,
    cmesh: NetLayer,
    gen_cycles: u64,
    gen_requests: u64,
    gen_time: Duration,
    ml: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn pearl(&mut self, net: &PearlNetwork, run: Duration, allocs: (u64, u64)) {
        self.pearl.add(net.profile_report(), net.work_counters(), run, allocs);
    }

    pub fn cmesh(&mut self, net: &CmeshNetwork, run: Duration, allocs: (u64, u64)) {
        self.cmesh.add(net.profile_report(), net.work_counters(), run, allocs);
    }

    pub fn generator(&mut self, cycles: u64, requests: u64, d: Duration) {
        self.gen_cycles += cycles;
        self.gen_requests += requests;
        self.gen_time += d;
    }

    pub fn ml_collect(&mut self, d: Duration) {
        *self.ml.entry("ml.collect_s").or_default() += d.as_secs_f64();
    }

    pub fn ml_fit(&mut self, fit: Duration, fitted: usize, samples: usize, collect_cycles: u64) {
        self.ml.insert("ml.select_lambda_s", fit.as_secs_f64());
        self.ml.insert("ml.fit_us_per_sample", fit.as_secs_f64() * 1e6 / fitted.max(1) as f64);
        self.ml.insert("ml.samples", samples as f64);
        self.ml.insert("ml.collect_cycles", collect_cycles as f64);
    }

    pub fn ml_predict(&mut self, ns_per_row: f64) {
        self.ml.insert("ml.predict_ns", ns_per_row);
    }

    /// The pass's per-layer metrics: every name in [`PER_LAYER`], with
    /// `ml.train_s`, `ml.validation_nrmse` and `trace_overhead_pct` left
    /// for the caller. A network whose phase times do not add up to its
    /// traced run time fails the pass's last operation.
    pub fn finish(self, ops: &mut [Op]) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> =
            PER_LAYER.iter().map(|m| (m.0.to_string(), 0.0)).collect();
        let mut problems = self.pearl.emit("core", &mut out);
        problems.extend(self.cmesh.emit("cmesh", &mut out));
        if let Some(op) = ops.last_mut() {
            op.problems.extend(problems);
        }
        let cycles = self.gen_cycles.max(1) as f64;
        out.insert("workloads.gen_ns_per_cycle".into(), self.gen_time.as_secs_f64() * 1e9 / cycles);
        out.insert("workloads.requests_per_cycle".into(), self.gen_requests as f64 / cycles);
        out.insert("workloads.gen_cycles".into(), self.gen_cycles as f64);
        out.extend(self.ml.into_iter().map(|(k, v)| (k.to_string(), v)));
        debug_assert_eq!(out.len(), PER_LAYER.len(), "every key is a listed metric");
        out
    }
}
