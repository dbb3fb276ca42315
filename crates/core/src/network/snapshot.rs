//! Checkpoint/restore codec for [`PearlNetwork`].
//!
//! A checkpoint captures the COMPLETE dynamic state of a network — RNG
//! stream positions, every buffer, backlog and receive reservation, the
//! arbiter credits, laser FSMs, in-flight and retransmitting packets,
//! outstanding-miss windows, MWSR tokens, pending ML features and
//! predictions, the degradation ladder, timeline samples, stats and the
//! fault model — such that
//!
//! ```text
//! run(N); snapshot(); restore(); run(M)   ≡   run(N + M)
//! ```
//!
//! bit-for-bit: identical stats, identical trace events, identical
//! [`PearlNetwork::state_hash`].
//!
//! The restore model is *rebuild-then-import*: the restoring network is
//! constructed from the identical builder inputs (config, policy, power
//! model, fault config, seed, workload) and only dynamic state is
//! imported. Static configuration is never serialized — it is guarded by
//! an FNV-1a fingerprint over the builder inputs, and a mismatch fails
//! with [`SnapshotError::FingerprintMismatch`] before any state is
//! touched. The probe and the self-profiler are observers, not state,
//! and are deliberately not part of a snapshot.
//!
//! Every value goes through the [`Snap`] codec of `pearl-telemetry`;
//! this module only declares the field lists of the network's own state
//! types and checks decoded lengths against the live network.

use super::*;
use crate::arbiter::WeightedArbiter;
use crate::dba::BandwidthAllocation;
use crate::features::WindowCounters;
use crate::ml_scaling::LadderState;
use crate::timeline::{TimelinePoint, TimelineState};
use pearl_noc::{BufferState, StatsState};
use pearl_photonics::{FaultModelState, LaserState};
use pearl_telemetry::snapshot::{check_len, decode_field, encode_seq, field, Snap};
use pearl_telemetry::{fingerprint, snap_enum, snap_struct, Checkpoint, JsonValue, SnapshotError};
use pearl_workloads::{RngState, TrafficState};

/// Checkpoint `kind` tag for PEARL networks.
pub const PEARL_SNAPSHOT_KIND: &str = "pearl";

impl PearlNetwork {
    /// FNV-1a fingerprint of the static identity of this network: the
    /// structural config, the full policy (including any trained model),
    /// the power model, the fault configuration, the master seed and the
    /// workload's static description. Two networks agree on this value
    /// exactly when a checkpoint from one restores onto the other.
    pub fn config_fingerprint(&self) -> u64 {
        let text = format!(
            "pearl|config:{:?}|policy:{:?}|power:{:?}|fault:{:?}|seed:{}|traffic:{}",
            self.config,
            self.policy,
            self.power_model,
            self.fault.config(),
            self.seed,
            self.traffic.fingerprint_text(),
        );
        fingerprint(&text)
    }

    /// Serializes the complete dynamic state into a sealed
    /// [`Checkpoint`] envelope.
    ///
    /// # Panics
    ///
    /// Panics if the live state cannot be encoded (an enum value outside
    /// its declared enumeration — an internal invariant violation, never
    /// reachable from safe use of the network). Use
    /// [`Self::try_snapshot`] to observe the error instead.
    pub fn snapshot(&self) -> Checkpoint {
        self.try_snapshot().expect("live network state must be encodable")
    }

    /// Fallible form of [`Self::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadShape`] when a state field falls outside its
    /// declared encoding domain (e.g. an enum value missing from its
    /// `ALL` enumeration).
    pub fn try_snapshot(&self) -> Result<Checkpoint, SnapshotError> {
        Ok(Checkpoint::new(
            PEARL_SNAPSHOT_KIND,
            self.config_fingerprint(),
            self.now.as_u64(),
            self.state_to_json()?,
        ))
    }

    /// FNV-1a hash of the canonical serialized state — the cheap
    /// whole-network divergence detector used by the chaos harness.
    pub fn state_hash(&self) -> u64 {
        self.snapshot().state_hash()
    }

    /// Restores state captured by [`Self::snapshot`] onto a network
    /// built from the identical inputs.
    ///
    /// The checkpoint is validated (kind, config fingerprint) and fully
    /// parsed before any field is mutated, so a failed restore leaves
    /// the network untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] /
    /// [`SnapshotError::FingerprintMismatch`] when the checkpoint was
    /// taken by a different simulator or configuration, and
    /// [`SnapshotError::BadShape`] on any structural decode mismatch.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        checkpoint.validate(PEARL_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;

        // ---- parse phase: no mutation below may happen before every ----
        // ---- fallible decode has succeeded.                         ----
        let rng: RngState = decode_field(v, "rng")?;
        let now: u64 = decode_field(v, "now")?;
        if now != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        let next_packet_id = decode_field(v, "next_packet_id")?;
        let traffic: TrafficState = decode_field(v, "traffic")?;
        let router_states: Vec<RouterState> = decode_field(v, "routers")?;
        check_len(router_states.len(), self.routers.len(), "routers")?;
        for (state, router) in router_states.iter().zip(&self.routers) {
            check_len(state.channels.len(), router.channels.len(), "channels")?;
            let latency = self.config.responder.service_latency(router.is_l3());
            state.check_queues(Cycle(now), latency)?;
        }
        let in_flight = decode_field(v, "in_flight")?;
        let stats: StatsState = decode_field(v, "stats")?;
        let fault: FaultModelState = decode_field(v, "fault")?;
        let retransmit: Vec<VecDeque<RetryEntry>> = decode_field(v, "retransmit")?;
        check_len(retransmit.len(), self.retransmit.len(), "retransmit")?;
        let outstanding: Vec<[u32; 2]> = decode_field(v, "outstanding")?;
        check_len(outstanding.len(), self.outstanding.len(), "outstanding")?;
        let tokens: Vec<usize> = decode_field(v, "tokens")?;
        check_len(tokens.len(), self.tokens.len(), "tokens")?;
        let collection = match field(v, "collection")? {
            JsonValue::Null => None,
            other => Some(dataset_from_json(other)?),
        };
        let pending_features: Vec<Option<FeatureVector>> = decode_field(v, "pending_features")?;
        check_len(pending_features.len(), self.pending_features.len(), "pending_features")?;
        let timeline: Option<TimelineState> = decode_field(v, "timeline")?;
        // A timeline never has a zero window (`Timeline::new` refuses one).
        if timeline.as_ref().is_some_and(|t| t.window == 0) {
            return Err(SnapshotError::BadShape { context: "timeline.window" });
        }
        let ladder: Option<LadderState> = decode_field(v, "ladder")?;
        // Ladder presence is derived from the policy, which the
        // fingerprint pins — a disagreement here means a malformed
        // payload, not a config mismatch.
        if ladder.is_some() != self.ladder.is_some() {
            return Err(SnapshotError::BadShape { context: "ladder" });
        }
        let predictions: Vec<Option<f64>> = decode_field(v, "pending_predictions")?;
        check_len(predictions.len(), self.pending_predictions.len(), "pending_predictions")?;
        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker = match v.get("spans") {
            None => None,
            Some(spans) => Option::<SpanTracker>::decode(spans, "spans")?,
        };
        if let Some(tracker) = &span_tracker {
            check_len(tracker.head_wait.len(), self.routers.len(), "spans.head_wait")?;
        }

        // ---- apply phase: infallible except the traffic import, which ----
        // ---- goes first so an error still leaves the network coherent. ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.rng = rng.rebuild();
        self.now = Cycle(now);
        self.next_packet_id = next_packet_id;
        for (router, state) in self.routers.iter_mut().zip(router_states) {
            state.apply(router);
        }
        self.refresh_stall_mask();
        self.in_flight = in_flight;
        self.stats.import_state(&stats);
        self.fault.import_state(&fault);
        self.retransmit = retransmit;
        self.outstanding = outstanding;
        self.tokens = tokens;
        self.collection = collection;
        self.pending_features = pending_features;
        self.timeline = timeline.map(Timeline::from_state);
        if let (Some(live), Some(state)) = (self.ladder.as_mut(), ladder.as_ref()) {
            live.import_state(state);
        }
        self.pending_predictions = predictions;
        // Like timeline enablement, span tracking is runtime state:
        // restoring a span-bearing checkpoint re-activates it (spans
        // then flow to whatever sink is attached, NullSink included),
        // and a live sink on the restoring side keeps tracking on even
        // when the checkpoint predates span recording.
        self.span_tracker = span_tracker;
        self.span_on = self.span_tracker.is_some() || !self.span_sink.is_null();
        if self.span_on && self.span_tracker.is_none() {
            self.span_tracker = Some(SpanTracker::new(self.routers.len()));
        }
        Ok(())
    }

    /// The canonical state payload (everything dynamic, nothing static).
    fn state_to_json(&self) -> Result<JsonValue, SnapshotError> {
        let routers: Vec<RouterState> = self.routers.iter().map(RouterState::capture).collect();
        Ok(JsonValue::obj(vec![
            ("rng", RngState::capture(&self.rng).encode()?),
            ("now", self.now.encode()?),
            ("next_packet_id", self.next_packet_id.encode()?),
            ("traffic", self.traffic.export_state().encode()?),
            ("routers", routers.encode()?),
            ("in_flight", self.in_flight.encode()?),
            ("stats", self.stats.export_state().encode()?),
            ("fault", self.fault.export_state().encode()?),
            ("retransmit", self.retransmit.encode()?),
            ("outstanding", self.outstanding.encode()?),
            ("tokens", self.tokens.encode()?),
            (
                "collection",
                match &self.collection {
                    None => JsonValue::Null,
                    Some(dataset) => dataset_to_json(dataset)?,
                },
            ),
            ("pending_features", self.pending_features.encode()?),
            ("timeline", self.timeline.as_ref().map(Timeline::export_state).encode()?),
            ("ladder", self.ladder.as_ref().map(DegradationLadder::export_state).encode()?),
            ("pending_predictions", self.pending_predictions.encode()?),
            ("spans", self.span_tracker.encode()?),
        ]))
    }
}

// ---------------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------------

snap_enum!(
    BandwidthAllocation => BandwidthAllocation::ALL,
    ScalingMode => ScalingMode::ALL,
);

/// Dynamic state of one router: captured from the live router to encode
/// it, and on restore fully parsed and staged before application.
struct RouterState {
    cpu_in: BufferState,
    gpu_in: BufferState,
    recv: BufferState,
    recv_reserved: u32,
    recv_cpu_slots: u32,
    recv_gpu_slots: u32,
    laser: LaserState,
    channels: Vec<Option<Transfer>>,
    credits: (f64, f64),
    allocation: BandwidthAllocation,
    cpu_share: f64,
    counters: WindowCounters,
    beta_accum: f64,
    pending_responses: VecDeque<(Cycle, Packet)>,
    cpu_backlog: VecDeque<Packet>,
    gpu_backlog: VecDeque<Packet>,
}

snap_struct!(RouterState {
    cpu_in => "cpu_in",
    gpu_in => "gpu_in",
    recv => "recv",
    recv_reserved => "recv_reserved",
    recv_cpu_slots => "recv_cpu_slots",
    recv_gpu_slots => "recv_gpu_slots",
    laser => "laser",
    channels => "channels",
    credits => "arbiter",
    allocation => "allocation",
    cpu_share => "cpu_share",
    counters => "counters",
    beta_accum => "beta_accum",
    pending_responses => "pending_responses",
    cpu_backlog => "cpu_backlog",
    gpu_backlog => "gpu_backlog",
});

impl RouterState {
    /// Checks the two queue invariants the step loop's fast paths rely
    /// on: an issue backlog holds only requests (its flits are counted
    /// as `len × REQUEST_FLITS`), and in `pending_responses` no entry
    /// that is not yet due at `now` is followed by an earlier one (so
    /// the due entries are a prefix). Every live response was scheduled
    /// at most `latency` cycles after an earlier cycle, so an entry at
    /// or past `now + latency` is refused too: responses the network
    /// schedules from here on must queue behind every restored one.
    fn check_queues(&self, now: Cycle, latency: u64) -> Result<(), SnapshotError> {
        for (backlog, context) in
            [(&self.cpu_backlog, "cpu_backlog"), (&self.gpu_backlog, "gpu_backlog")]
        {
            if backlog.iter().any(|p| p.kind != PacketKind::Request) {
                return Err(SnapshotError::BadShape { context });
            }
        }
        let queue = &self.pending_responses;
        let out_of_order =
            queue.iter().zip(queue.iter().skip(1)).any(|(a, b)| a.0 > now && b.0 < a.0);
        if out_of_order || queue.iter().any(|(ready, _)| *ready >= now + latency) {
            return Err(SnapshotError::BadShape { context: "pending_responses" });
        }
        Ok(())
    }

    fn capture(router: &PearlRouter) -> RouterState {
        RouterState {
            cpu_in: router.cpu_in.export_state(),
            gpu_in: router.gpu_in.export_state(),
            recv: router.recv.export_state(),
            recv_reserved: router.recv_reserved,
            recv_cpu_slots: router.recv_cpu_slots,
            recv_gpu_slots: router.recv_gpu_slots,
            laser: router.laser.export_state(),
            channels: router.channels.clone(),
            credits: router.arbiter.credits(),
            allocation: router.allocation,
            cpu_share: router.cpu_share,
            counters: router.counters.clone(),
            beta_accum: router.beta_accum,
            pending_responses: router.pending_responses.clone(),
            cpu_backlog: router.cpu_backlog.clone(),
            gpu_backlog: router.gpu_backlog.clone(),
        }
    }

    fn apply(self, router: &mut PearlRouter) {
        router.cpu_in.import_state(&self.cpu_in);
        router.gpu_in.import_state(&self.gpu_in);
        router.recv.import_state(&self.recv);
        router.recv_reserved = self.recv_reserved;
        router.recv_cpu_slots = self.recv_cpu_slots;
        router.recv_gpu_slots = self.recv_gpu_slots;
        router.laser.import_state(&self.laser);
        router.channels = self.channels;
        router.arbiter = WeightedArbiter::from_credits(self.credits.0, self.credits.1);
        router.allocation = self.allocation;
        router.cpu_share = self.cpu_share;
        // Derived: the next DBA pass recomputes the restored lanes' split.
        router.dba_key = None;
        router.counters = self.counters;
        router.beta_accum = self.beta_accum;
        router.pending_responses = self.pending_responses;
        router.cpu_backlog = self.cpu_backlog;
        router.gpu_backlog = self.gpu_backlog;
    }
}

snap_struct!(Transfer [packet_id, busy_until]);

snap_struct!(WindowCounters {
    cycles => "cycles",
    cpu_core_slot_cycles => "cpu_slot",
    gpu_core_slot_cycles => "gpu_slot",
    recv_cpu_slot_cycles => "recv_cpu",
    recv_gpu_slot_cycles => "recv_gpu",
    link_busy_cycles => "link_busy",
    packets_to_core => "to_core",
    incoming_from_routers => "from_routers",
    incoming_from_cores => "from_cores",
    injected_flits => "injected_flits",
    requests_sent => "req_sent",
    requests_received => "req_recv",
    responses_sent => "resp_sent",
    responses_received => "resp_recv",
    class_movements => "class",
});

snap_struct!(InFlight [src, dst, packet, deliver_at, attempts, wire_crc as u64]);

snap_struct!(RetryEntry [ready, attempts, packet]);

snap_struct!(TimelineState {
    window => "window",
    points => "points",
    last_flits => "last_flits",
    last_stalls => "last_stalls",
    last_retransmissions => "last_retransmissions",
    last_corruptions => "last_corruptions",
});

snap_struct!(TimelinePoint [at, flits, mean_wavelengths, stalls, retransmissions, corruptions]);

snap_struct!(LadderState {
    mode => "mode",
    window => "window",
    healthy_streak => "healthy_streak",
    last_score => "last_score",
    transitions => "transitions",
});

snap_struct!(ModeTransition [at, from, to]);

snap_struct!(SpanTracker {
    head_wait => "head_wait",
    landed as LandedWire => "landed",
    parent => "parent",
});

snap_struct!(HeadWait [packet, reservation, arbitration]);

/// [`SpanTracker::landed`] on the wire: flat `[id, at, attempt]`
/// triples, sorted by packet id so equal trackers serialize to equal
/// bytes.
struct LandedWire(Vec<(u64, u64, u32)>);

impl From<HashMap<u64, (u64, u32)>> for LandedWire {
    fn from(landed: HashMap<u64, (u64, u32)>) -> LandedWire {
        let mut triples: Vec<_> =
            landed.into_iter().map(|(id, (at, attempt))| (id, at, attempt)).collect();
        triples.sort_unstable_by_key(|&(id, ..)| id);
        LandedWire(triples)
    }
}

impl From<LandedWire> for HashMap<u64, (u64, u32)> {
    fn from(wire: LandedWire) -> Self {
        wire.0.into_iter().map(|(id, at, attempt)| (id, (at, attempt))).collect()
    }
}

impl Snap for LandedWire {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        self.0.encode()
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        Vec::decode(v, context).map(LandedWire)
    }
}

impl Snap for FeatureVector {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        self.values().encode()
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        Snap::decode(v, context).map(FeatureVector::from_values)
    }
}

// `Dataset` lives in `pearl-ml`, which knows nothing of the codec, so
// its rows travel through a pair of functions instead of a `Snap` impl.

fn dataset_to_json(dataset: &Dataset) -> Result<JsonValue, SnapshotError> {
    Ok(JsonValue::obj(vec![
        ("dimension", dataset.dimension().encode()?),
        ("features", encode_seq(dataset.features())?),
        ("labels", encode_seq(dataset.labels())?),
    ]))
}

fn dataset_from_json(v: &JsonValue) -> Result<Dataset, SnapshotError> {
    let features: Vec<Vec<f64>> = decode_field(v, "features")?;
    let labels: Vec<f64> = decode_field(v, "labels")?;
    check_len(features.len(), labels.len(), "dataset")?;
    let mut dataset = Dataset::new(decode_field(v, "dimension")?);
    for (row, label) in features.into_iter().zip(labels) {
        dataset
            .push(row, label)
            .map_err(|_| SnapshotError::BadShape { context: "dataset.features" })?;
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PearlConfig;
    use crate::ml_scaling::FallbackConfig;
    use crate::policy::PearlPolicy;
    use pearl_noc::{NodeId, TrafficClass};
    use pearl_photonics::FaultConfig;
    use pearl_telemetry::snapshot::{enum_from_index, enum_index};
    use pearl_telemetry::SharedRecorder;
    use pearl_workloads::BenchmarkPair;

    pub(super) fn build(
        policy: PearlPolicy,
        fault: FaultConfig,
        mwsr: bool,
        seed: u64,
    ) -> PearlNetwork {
        let config = if mwsr { PearlConfig::pearl_mwsr() } else { PearlConfig::pearl() };
        NetworkBuilder::new()
            .config(config)
            .policy(policy)
            .fault_config(fault)
            .seed(seed)
            .build(BenchmarkPair::test_pairs()[0])
    }

    /// The hard contract: run N → checkpoint → restore onto a twin →
    /// run M must be bit-identical to an uninterrupted N + M run —
    /// same state hash, same stats, same summary bits.
    fn assert_resume_identical(make: impl Fn() -> PearlNetwork, n: u64, m: u64) {
        let mut golden = make();
        golden.run(n + m);

        let mut first = make();
        first.run(n);
        let checkpoint = first.snapshot();
        // The envelope must survive its own JSON round trip unchanged.
        let reparsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(reparsed, checkpoint);

        let mut resumed = make();
        resumed.restore(&reparsed).unwrap();
        assert_eq!(
            resumed.state_hash(),
            first.state_hash(),
            "restore must reproduce the checkpointed state exactly"
        );
        resumed.run(m);

        assert_eq!(resumed.state_hash(), golden.state_hash(), "state diverged after resume");
        assert_eq!(resumed.stats.export_state(), golden.stats.export_state());
        let a = resumed.summary();
        let b = golden.summary();
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.delivered_flits, b.delivered_flits);
        assert_eq!(a.avg_laser_power_w.to_bits(), b.avg_laser_power_w.to_bits());
        assert_eq!(a.avg_latency_cpu.to_bits(), b.avg_latency_cpu.to_bits());
    }

    #[test]
    fn resume_bit_identical_dyn_baseline() {
        assert_resume_identical(
            || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 11),
            7_000,
            5_000,
        );
    }

    #[test]
    fn resume_bit_identical_fcfs() {
        assert_resume_identical(
            || build(PearlPolicy::fcfs_64wl(), FaultConfig::off(), false, 13),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_reactive() {
        assert_resume_identical(
            || build(PearlPolicy::reactive(500), FaultConfig::off(), false, 17),
            6_000,
            6_000,
        );
    }

    #[test]
    fn resume_bit_identical_random_walk() {
        // The policy RNG stream position must survive the round trip.
        assert_resume_identical(
            || build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 19),
            5_500,
            4_500,
        );
    }

    #[test]
    fn resume_bit_identical_naive_last_window() {
        assert_resume_identical(
            || build(PearlPolicy::naive_power(500, 1.0, true), FaultConfig::off(), false, 23),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_fine_grained() {
        assert_resume_identical(
            || build(PearlPolicy::dyn_fine(0.0625), FaultConfig::off(), false, 29),
            5_000,
            5_000,
        );
    }

    #[test]
    fn resume_bit_identical_mwsr_tokens() {
        // Token-holder positions are state; losing them skews arbitration.
        assert_resume_identical(
            || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, 31),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_under_faults() {
        // Retransmission queues, in-flight CRCs, fault RNG streams and the
        // per-router failure state all have to round-trip.
        assert_resume_identical(
            || build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 37),
            6_000,
            6_000,
        );
    }

    /// A "trained" scaler predicting roughly `value` flits regardless of
    /// input — forces ladder activity for the fallback tests.
    pub(super) fn constant_scaler(value: f64) -> crate::ml_scaling::MlPowerScaler {
        use pearl_ml::select_lambda;
        let mut d = Dataset::new(FEATURE_COUNT);
        for i in 0..40 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = (i % 2) as f64;
            d.push(f, value).unwrap();
        }
        let (train, val) = d.split_tail(0.25);
        let sel = select_lambda(&train, &val, &[1.0]).unwrap();
        crate::ml_scaling::MlPowerScaler::new(sel)
    }

    #[test]
    fn resume_bit_identical_ml_with_fallback_mid_demotion() {
        // Kill the run right around the ladder's demotion point so the
        // accuracy window, pending predictions and mode transitions all
        // cross the checkpoint boundary.
        let make = || {
            let fallback =
                FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
            let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
            build(policy, FaultConfig::off(), false, 41)
        };
        assert_resume_identical(make, 1_200, 1_800);
        // And confirm the forced demotion actually happened end-to-end.
        let mut net = make();
        net.run(3_000);
        assert_eq!(net.scaling_mode(), Some(ScalingMode::Reactive));
    }

    #[test]
    fn resume_preserves_timeline_samples() {
        let make = || {
            let mut net = build(PearlPolicy::reactive(500), FaultConfig::off(), false, 43);
            net.enable_timeline(1_000);
            net
        };
        let mut golden = make();
        golden.run(9_000);
        let mut first = make();
        first.run(4_500);
        let cp = first.snapshot();
        let mut resumed = make();
        resumed.restore(&cp).unwrap();
        resumed.run(4_500);
        assert_eq!(
            resumed.timeline().unwrap().export_state(),
            golden.timeline().unwrap().export_state()
        );
        assert_eq!(resumed.state_hash(), golden.state_hash());
    }

    #[test]
    fn resume_restores_timeline_enablement_from_snapshot() {
        // Timeline enablement is runtime state, not config: restoring a
        // timeline-bearing checkpoint onto a plain twin turns it on.
        let mut first = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 47);
        first.enable_timeline(500);
        first.run(2_000);
        let cp = first.snapshot();
        let mut resumed = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 47);
        resumed.restore(&cp).unwrap();
        assert_eq!(resumed.timeline().unwrap().points().len(), 4);
    }

    #[test]
    fn trace_jsonl_is_bit_identical_across_resume() {
        // The interrupted run's trace (pre-kill ++ post-resume) must be
        // byte-identical JSONL to the golden run's trace.
        let make = || build(PearlPolicy::reactive(500), FaultConfig::uniform(0.03, 5), false, 53);
        let (n, m) = (4_000u64, 3_000u64);

        let golden_rec = SharedRecorder::new();
        let mut golden = make();
        golden.attach_probe(Box::new(golden_rec.clone()));
        golden.run(n + m);

        let pre_rec = SharedRecorder::new();
        let mut first = make();
        first.attach_probe(Box::new(pre_rec.clone()));
        first.run(n);
        let cp = first.snapshot();

        let post_rec = SharedRecorder::new();
        let mut resumed = make();
        resumed.attach_probe(Box::new(post_rec.clone()));
        resumed.restore(&cp).unwrap();
        resumed.run(m);

        let mut golden_buf = Vec::new();
        pearl_telemetry::jsonl::write_trace(&mut golden_buf, &golden_rec.events()).unwrap();
        let mut split_events = pre_rec.events();
        split_events.extend(post_rec.events());
        let mut split_buf = Vec::new();
        pearl_telemetry::jsonl::write_trace(&mut split_buf, &split_events).unwrap();
        assert!(!golden_buf.is_empty(), "faulted reactive run must emit events");
        assert_eq!(golden_buf, split_buf, "trace JSONL diverged across the resume");
    }

    #[test]
    fn resume_bit_identical_while_collecting() {
        // Dataset-under-collection and pending window features are state.
        let make = || build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 59);
        let (n, m) = (4_000u64, 4_000u64);

        let mut golden = make();
        let golden_data = golden.run_collecting(n + m);

        let mut first = make();
        first.collection = Some(Dataset::new(FEATURE_COUNT));
        first.run(n);
        let cp = first.snapshot();

        let mut resumed = make();
        resumed.restore(&cp).unwrap();
        resumed.run(m);
        let resumed_data = resumed.collection.take().unwrap();

        assert_eq!(resumed_data.len(), golden_data.len());
        assert_eq!(resumed_data.labels(), golden_data.labels());
        let bits = |d: &Dataset| {
            d.features().iter().flat_map(|row| row.iter().map(|v| v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&resumed_data), bits(&golden_data));
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_before_any_mutation() {
        let mut donor = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 61);
        donor.run(1_000);
        let cp = donor.snapshot();
        // Different seed ⇒ different static identity ⇒ refused.
        let mut other = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 62);
        let before = other.state_hash();
        let err = other.restore(&cp).unwrap_err();
        assert!(
            matches!(err, SnapshotError::FingerprintMismatch { .. }),
            "expected FingerprintMismatch, got {err:?}"
        );
        assert_eq!(other.state_hash(), before, "failed restore must not mutate");
        // Different policy is refused the same way.
        let mut other = build(PearlPolicy::fcfs_64wl(), FaultConfig::off(), false, 61);
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut donor = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 67);
        donor.run(500);
        let mut cp = donor.snapshot();
        cp.kind = "cmesh".to_string();
        let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 67);
        assert!(matches!(twin.restore(&cp), Err(SnapshotError::KindMismatch { .. })));
    }

    #[test]
    fn checkpoint_file_round_trip_restores_identically() {
        let mut donor = build(PearlPolicy::reactive(500), FaultConfig::uniform(0.02, 3), false, 71);
        donor.run(3_000);
        let cp = donor.snapshot();
        let path = std::env::temp_dir()
            .join(format!("pearl_core_snapshot_rt_{}.json", std::process::id()));
        cp.write_file(&path).unwrap();
        let loaded = Checkpoint::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, cp);
        let mut twin = build(PearlPolicy::reactive(500), FaultConfig::uniform(0.02, 3), false, 71);
        twin.restore(&loaded).unwrap();
        assert_eq!(twin.state_hash(), donor.state_hash());
        // The serialized state of the restored twin is byte-identical.
        assert_eq!(twin.snapshot().state.to_string(), cp.state.to_string());
    }

    /// Regression: an enum value outside its declared enumeration used
    /// to be silently encoded as index 0 (`position(..).unwrap_or(0)`),
    /// so a round trip would quietly swap it for the first variant.
    /// Both directions must refuse instead.
    #[test]
    fn out_of_enumeration_value_is_rejected_not_collapsed_to_zero() {
        // Encode: GpuOnly against a truncated enumeration that does not
        // contain it. The old code would have emitted index 0 (CpuOnly).
        let truncated = &BandwidthAllocation::ALL[..2];
        let err = enum_index(truncated, BandwidthAllocation::GpuOnly, "allocation").unwrap_err();
        assert!(
            matches!(err, SnapshotError::BadShape { context: "allocation" }),
            "expected BadShape, got {err:?}"
        );
        // Every in-enumeration value still round-trips to itself — in
        // particular none of them collapses to index 0.
        for v in BandwidthAllocation::ALL {
            let encoded = enum_index(&BandwidthAllocation::ALL, v, "allocation").unwrap();
            let decoded =
                enum_from_index(&BandwidthAllocation::ALL, &encoded, "allocation").unwrap();
            assert_eq!(decoded, v);
        }
        // Decode: an index past the end of the enumeration is refused.
        let beyond = BandwidthAllocation::ALL.len().encode().unwrap();
        assert!(matches!(
            enum_from_index(&BandwidthAllocation::ALL, &beyond, "allocation"),
            Err(SnapshotError::BadShape { context: "allocation" })
        ));
    }

    /// `try_snapshot` is the fallible twin of `snapshot`: on a healthy
    /// network it succeeds and produces the identical checkpoint.
    #[test]
    fn try_snapshot_matches_snapshot_on_healthy_state() {
        let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 79);
        net.run(1_500);
        let fallible = net.try_snapshot().unwrap();
        assert_eq!(fallible, net.snapshot());
    }

    fn member<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
        let JsonValue::Obj(pairs) = v else { panic!("{key}: not in an object") };
        &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    fn router_field<'a>(state: &'a mut JsonValue, router: usize, key: &str) -> &'a mut JsonValue {
        let JsonValue::Arr(routers) = member(state, "routers") else { panic!("routers") };
        member(&mut routers[router], key)
    }

    fn response(id: u64) -> Packet {
        Packet::response(id, NodeId(16), NodeId(2), CoreType::Cpu, TrafficClass::L3, Cycle(0))
    }

    /// Payloads that carry a valid hash seal but break a queue invariant
    /// of the step loop are refused, naming the field, before any state
    /// is touched: a response in a core issue backlog, a response queue
    /// whose front is not due at the snapshot cycle while a later entry
    /// is, and a response ready later than the router's service latency
    /// allows.
    #[test]
    fn tampered_payloads_are_rejected_before_any_mutation() {
        let mut donor = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 89);
        donor.run(1_000);
        let cp = donor.snapshot();
        let now = cp.cycle;
        type Tamper = Box<dyn Fn(&mut JsonValue)>;
        let append_response = |key: &'static str| -> Tamper {
            Box::new(move |state| {
                let JsonValue::Arr(backlog) = router_field(state, 3, key) else { panic!("{key}") };
                backlog.push(response(1 << 40).encode().unwrap());
            })
        };
        let tamperings: [(&str, Tamper); 4] = [
            ("cpu_backlog", append_response("cpu_backlog")),
            ("gpu_backlog", append_response("gpu_backlog")),
            (
                "pending_responses",
                Box::new(move |state| {
                    let queue: VecDeque<(Cycle, Packet)> =
                        [(Cycle(now + 10), response(1 << 40)), (Cycle(now), response(1 << 41))]
                            .into();
                    *router_field(state, 16, "pending_responses") = queue.encode().unwrap();
                }),
            ),
            (
                "pending_responses",
                Box::new(move |state| {
                    // Past the L3's 24-cycle service horizon.
                    let queue: VecDeque<(Cycle, Packet)> =
                        [(Cycle(now + 24), response(1 << 40))].into();
                    *router_field(state, 16, "pending_responses") = queue.encode().unwrap();
                }),
            ),
        ];
        for (context, tamper) in tamperings {
            let mut state = cp.state.clone();
            tamper(&mut state);
            // Reseal, so only the codec stands between the payload and
            // the network.
            let sealed = Checkpoint::new(cp.kind.clone(), cp.config_fingerprint, cp.cycle, state);
            let resealed = Checkpoint::from_json(&sealed.to_json()).unwrap();

            let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 89);
            twin.run(500);
            let before = twin.state_hash();
            let result = twin.restore(&resealed);
            assert!(
                matches!(result, Err(SnapshotError::BadShape { context: c }) if c == context),
                "{context}: {result:?}"
            );
            assert_eq!(twin.state_hash(), before, "{context}: failed restore must not mutate");
        }
        // The untampered payload restores.
        let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 89);
        twin.restore(&cp).unwrap();
        assert_eq!(twin.state_hash(), donor.state_hash());
    }

    #[test]
    fn repeated_checkpoint_restore_is_stable() {
        // checkpoint → restore → checkpoint must be a fixed point.
        let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 73);
        net.run(2_500);
        let cp1 = net.snapshot();
        let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 73);
        twin.restore(&cp1).unwrap();
        let cp2 = twin.snapshot();
        assert_eq!(cp1, cp2);
        assert_eq!(cp1.state.to_string(), cp2.state.to_string());
    }
}

#[cfg(test)]
mod properties {
    //! Property tests for the per-subsystem snapshot codecs: whatever
    //! dynamic state a run reaches, `snapshot → JSON → restore →
    //! snapshot` must reproduce the serialized state byte for byte, and
    //! the resumed run must stay on the golden trajectory.

    use super::tests::{build, constant_scaler};
    use super::*;
    use crate::ml_scaling::FallbackConfig;
    use crate::policy::PearlPolicy;
    use crate::timeline::ModeTransition;
    use pearl_photonics::FaultConfig;
    use proptest::prelude::*;

    /// Runs `n` cycles, round-trips the checkpoint through its JSON
    /// text, restores onto a twin and checks byte-identity of the
    /// re-serialized state plus hash equality after `m` more cycles.
    fn round_trip_holds(make: impl Fn() -> PearlNetwork, n: u64, m: u64) -> Result<(), String> {
        let mut first = make();
        first.run(n);
        let cp = first.snapshot();
        let text = cp.to_json().to_string();
        let reparsed =
            Checkpoint::from_json(&JsonValue::parse(&text).map_err(|e| format!("reparse: {e:?}"))?)
                .map_err(|e| format!("envelope: {e:?}"))?;
        let mut resumed = make();
        resumed.restore(&reparsed).map_err(|e| format!("restore: {e:?}"))?;
        if resumed.snapshot().state.to_string() != cp.state.to_string() {
            return Err("re-serialized state not byte-identical".into());
        }
        let mut golden = make();
        golden.run(n + m);
        resumed.run(m);
        if resumed.state_hash() != golden.state_hash() {
            return Err("diverged from golden after resume".into());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// DBA + fine-grained allocator state (allocations, arbiter
        /// credits, window betas) round-trips at any kill point.
        #[test]
        fn dba_state_round_trips(seed in 0u64..1_000, n in 400u64..2_400, m in 400u64..1_600) {
            let r = round_trip_holds(
                || build(PearlPolicy::dyn_fine(0.0625), FaultConfig::off(), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Reactive power-scaling state (laser FSMs mid-transition,
        /// window occupancy accumulators) round-trips at any kill point.
        #[test]
        fn power_scaling_state_round_trips(
            seed in 0u64..1_000,
            n in 400u64..2_400,
            m in 400u64..1_600,
        ) {
            let r = round_trip_holds(
                || build(PearlPolicy::reactive(500), FaultConfig::off(), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Reservation/token state (MWSR token holders, outstanding
        /// windows) round-trips at any kill point.
        #[test]
        fn reservation_state_round_trips(seed in 0u64..1_000, n in 400u64..2_400, m in 400u64..1_600) {
            let r = round_trip_holds(
                || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Fault-model state (per-lane failures, fault RNG stream,
        /// retransmission queues) round-trips at any kill point and any
        /// fault rate.
        #[test]
        fn fault_state_round_trips(
            seed in 0u64..1_000,
            rate in 0.005f64..0.08,
            n in 400u64..2_400,
            m in 400u64..1_600,
        ) {
            let r = round_trip_holds(
                || build(PearlPolicy::reactive(500), FaultConfig::uniform(rate, seed ^ 0xF0), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} rate={rate} n={n} m={m})", r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The ladder codec reproduces any synthetic [`LadderState`]
        /// byte for byte — accuracy window, streak, score and the full
        /// transition history.
        #[test]
        fn ladder_state_codec_round_trips(
            mode_idx in 0usize..3,
            window in prop::collection::vec((0.0f64..2e6, 0.0f64..2e6), 0..12),
            healthy_streak in 0u32..20,
            has_score in any::<bool>(),
            score in 0.0f64..1e7,
            transitions in prop::collection::vec((0u64..1_000_000, 0usize..3, 0usize..3), 0..6),
        ) {
            let state = LadderState {
                mode: ScalingMode::ALL[mode_idx],
                window,
                healthy_streak,
                last_score: has_score.then_some(score),
                transitions: transitions
                    .into_iter()
                    .map(|(at, f, t)| ModeTransition {
                        at,
                        from: ScalingMode::ALL[f],
                        to: ScalingMode::ALL[t],
                    })
                    .collect(),
            };
            let encoded = state.encode().unwrap();
            let decoded = LadderState::decode(&encoded, "ladder").unwrap();
            prop_assert_eq!(
                decoded.encode().unwrap().to_string(),
                encoded.to_string()
            );
        }
    }

    /// The ml_scaling/ladder subsystem round-trips through a live
    /// network too: a forced-demotion run killed near the demotion
    /// boundary resumes onto the golden trajectory. (One deterministic
    /// heavy case rather than a proptest — building the scaler trains a
    /// ridge model.)
    #[test]
    fn ladder_network_state_round_trips() {
        let scaler = constant_scaler(1e6);
        for (n, m) in [(700u64, 1_100u64), (1_499, 901), (2_050, 950)] {
            let make = || {
                let fallback =
                    FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
                let policy =
                    PearlPolicy::ml_with_fallback(500, scaler.clone(), true, fallback.clone());
                super::tests::build(policy, FaultConfig::off(), false, 83)
            };
            round_trip_holds(make, n, m).unwrap();
        }
    }
}
