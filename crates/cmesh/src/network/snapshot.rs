//! Checkpoint/restore codec for [`CmeshNetwork`].
//!
//! Same contract as the PEARL codec: a checkpoint captures the COMPLETE
//! dynamic state — the workload RNG (inside the traffic source), every
//! virtual channel, credit counter, wormhole VC owner and round-robin
//! pointer, flits in flight on links, partially ejected packets, issue
//! backlogs, outstanding windows, pending responses, active injection
//! streams and stats — such that `run(N); snapshot(); restore(); run(M)`
//! is bit-identical to `run(N + M)`.
//!
//! Static configuration (mesh geometry, VC counts, energy model, seed,
//! workload identity) is never serialized; it is guarded by an FNV-1a
//! fingerprint over the builder inputs. Every value goes through the
//! [`Snap`] codec of `pearl-telemetry`; this module only declares field
//! lists and checks decoded shapes against the live mesh.

use super::*;
use pearl_noc::{CreditCounter, StatsState, VcState, VirtualChannel};
use pearl_telemetry::snapshot::{check_len, decode_field, Snap};
use pearl_telemetry::{fingerprint, snap_enum, snap_struct, Checkpoint, JsonValue, SnapshotError};
use pearl_workloads::TrafficState;

/// Checkpoint `kind` tag for CMESH networks.
pub const CMESH_SNAPSHOT_KIND: &str = "cmesh";

impl CmeshNetwork {
    /// FNV-1a fingerprint of this network's static identity: config,
    /// energy model, workload seed and workload description.
    pub fn config_fingerprint(&self) -> u64 {
        let text = format!(
            "cmesh|config:{:?}|power:{:?}|seed:{}|traffic:{}",
            self.config,
            self.power,
            self.seed,
            self.traffic.fingerprint_text(),
        );
        fingerprint(&text)
    }

    /// Serializes the complete dynamic state into a sealed
    /// [`Checkpoint`] envelope.
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint::new(
            CMESH_SNAPSHOT_KIND,
            self.config_fingerprint(),
            self.now.as_u64(),
            self.state_to_json().expect("every CMESH state value is encodable"),
        )
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
        checkpoint.validate(CMESH_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;
        let n = self.config.clusters();
        let vcs = self.config.vcs_per_port;

        // ---- parse phase: nothing is mutated until every fallible ----
        // ---- decode has succeeded.                                 ----
        let now: u64 = decode_field(v, "now")?;
        if now != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        let next_packet_id = decode_field(v, "next_packet_id")?;
        let traffic: TrafficState = decode_field(v, "traffic")?;
        let stats: StatsState = decode_field(v, "stats")?;

        let router_states: Vec<RouterState> = decode_field(v, "routers")?;
        check_len(router_states.len(), self.routers.len(), "routers")?;
        for (state, router) in router_states.iter().zip(&self.routers) {
            state.check_shape(router, vcs)?;
        }

        let backlogs: Vec<[VecDeque<Packet>; 2]> = decode_field(v, "backlogs")?;
        check_len(backlogs.len(), n, "backlogs")?;
        let outstanding: Vec<[u32; 2]> = decode_field(v, "outstanding")?;
        check_len(outstanding.len(), n, "outstanding")?;
        let pending_responses: Vec<VecDeque<(Cycle, Packet)>> =
            decode_field(v, "pending_responses")?;
        check_len(pending_responses.len(), n, "pending_responses")?;

        let inject_current: Vec<Vec<InjectState>> = decode_field(v, "inject_current")?;
        check_len(inject_current.len(), n, "inject_current")?;
        if inject_current.iter().flatten().any(|s| s.vc >= vcs || s.flits.is_empty()) {
            return Err(SnapshotError::BadShape { context: "inject_current" });
        }

        let partial_eject: Vec<HashMap<u64, Packet>> = decode_field(v, "partial_eject")?;
        check_len(partial_eject.len(), n, "partial_eject")?;

        let links: VecDeque<LinkFlit> = decode_field(v, "links")?;
        // The link FIFO delivers a due prefix, so it must be sorted by
        // `deliver_at`; a later flit ahead of a due one would stall it.
        if links.iter().any(|lf| lf.dst >= self.routers.len() || lf.vc >= vcs)
            || links.iter().zip(links.iter().skip(1)).any(|(a, b)| a.deliver_at > b.deliver_at)
        {
            return Err(SnapshotError::BadShape { context: "links" });
        }

        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker = match v.get("spans") {
            None => None,
            Some(spans) => Option::<CmeshSpanTracker>::decode(spans, "spans")?,
        };

        // ---- apply phase ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.now = Cycle(now);
        self.next_packet_id = next_packet_id;
        self.stats.import_state(&stats);
        for (router, state) in self.routers.iter_mut().zip(router_states) {
            state.apply(router, self.config.slots_per_vc as u32);
        }
        self.backlogs = backlogs;
        self.refresh_stall_mask();
        self.outstanding = outstanding;
        self.pending_responses = pending_responses;
        self.inject_current = inject_current;
        self.partial_eject = partial_eject;
        self.links = links;
        // Span tracking is runtime state: a span-bearing checkpoint
        // re-activates it, and a live sink on the restoring side keeps
        // tracking on even when the checkpoint predates span recording.
        self.span_tracker = span_tracker;
        self.span_on = self.span_tracker.is_some() || !self.span_sink.is_null();
        if self.span_on && self.span_tracker.is_none() {
            self.span_tracker = Some(CmeshSpanTracker::default());
        }
        Ok(())
    }

    fn state_to_json(&self) -> Result<JsonValue, SnapshotError> {
        let routers: Vec<RouterState> = self.routers.iter().map(RouterState::capture).collect();
        Ok(JsonValue::obj(vec![
            ("now", self.now.encode()?),
            ("next_packet_id", self.next_packet_id.encode()?),
            ("traffic", self.traffic.export_state().encode()?),
            ("stats", self.stats.export_state().encode()?),
            ("routers", routers.encode()?),
            ("backlogs", self.backlogs.encode()?),
            ("outstanding", self.outstanding.encode()?),
            ("pending_responses", self.pending_responses.encode()?),
            ("inject_current", self.inject_current.encode()?),
            ("partial_eject", self.partial_eject.encode()?),
            ("links", self.links.encode()?),
            ("spans", self.span_tracker.encode()?),
        ]))
    }
}

// ----- field lists -----------------------------------------------------------

snap_enum!(Port => Port::ALL);

snap_struct!(InjectState [vc, flits]);

snap_struct!(LinkFlit [deliver_at, dst, port, vc, flit]);

snap_struct!(CmeshSpanTracker {
    vc_wait => "vc_wait",
    stream_start => "stream_start",
    stalls => "stalls",
    tail_in => "tail_in",
    head_eject => "head_eject",
    parent => "parent",
});

/// Dynamic state of one [`CmeshRouter`], staged between the parse and
/// apply phases.
struct RouterState {
    inputs: Vec<Vec<VcState>>,
    out_credits: Vec<Option<Vec<u32>>>,
    out_vc_owner: Vec<Vec<Option<u64>>>,
    rr: Vec<usize>,
    link_free_at: [u64; 4],
}

snap_struct!(RouterState {
    inputs => "inputs",
    out_credits => "out_credits",
    out_vc_owner => "out_vc_owner",
    rr => "rr",
    link_free_at => "link_free_at",
});

impl RouterState {
    fn capture(router: &CmeshRouter) -> RouterState {
        RouterState {
            inputs: router
                .inputs
                .iter()
                .map(|port| port.iter().map(VirtualChannel::export_state).collect())
                .collect(),
            out_credits: router
                .out_credits
                .iter()
                .map(|credits| {
                    Some(credits.as_ref()?.iter().map(CreditCounter::available).collect())
                })
                .collect(),
            out_vc_owner: router.out_vc_owner.clone(),
            rr: router.rr.clone(),
            link_free_at: router.link_free_at,
        }
    }

    /// Checks the staged state against the live router's port and VC
    /// counts and its chip-edge topology.
    fn check_shape(&self, router: &CmeshRouter, vcs: usize) -> Result<(), SnapshotError> {
        check_len(self.inputs.len(), Port::ALL.len(), "inputs")?;
        for channels in &self.inputs {
            check_len(channels.len(), vcs, "inputs")?;
        }
        check_len(self.out_credits.len(), router.out_credits.len(), "out_credits")?;
        for (staged, live) in self.out_credits.iter().zip(&router.out_credits) {
            // Edge topology: the checkpoint and the live router must
            // agree on which outputs have a neighbor (one credit per VC)
            // and which are chip edges (no credits at all).
            if staged.as_ref().map(Vec::len) != live.as_ref().map(|_| vcs) {
                return Err(SnapshotError::BadShape { context: "out_credits" });
            }
        }
        check_len(self.out_vc_owner.len(), router.out_vc_owner.len(), "out_vc_owner")?;
        for owners in &self.out_vc_owner {
            check_len(owners.len(), vcs, "out_vc_owner")?;
        }
        check_len(self.rr.len(), Port::ALL.len(), "rr")?;
        // Round-robin pointers index the 5 × vcs request bits of an
        // output.
        if self.rr.iter().any(|&rr| rr >= Port::ALL.len() * vcs) {
            return Err(SnapshotError::BadShape { context: "rr" });
        }
        Ok(())
    }

    fn apply(self, router: &mut CmeshRouter, slots: u32) {
        for (port, states) in router.inputs.iter_mut().zip(&self.inputs) {
            for (channel, vc_state) in port.iter_mut().zip(states) {
                channel.import_state(vc_state);
            }
        }
        for (live, restored) in router.out_credits.iter_mut().zip(self.out_credits) {
            if let (Some(counters), Some(available)) = (live.as_mut(), restored) {
                for (counter, avail) in counters.iter_mut().zip(available) {
                    *counter = CreditCounter::from_parts(avail, slots);
                }
            }
        }
        router.out_vc_owner = self.out_vc_owner;
        router.rr = self.rr;
        router.link_free_at = self.link_free_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::SharedRecorder;

    fn build(k: u64, seed: u64) -> CmeshNetwork {
        CmeshBuilder::new()
            .config(CmeshConfig::bandwidth_reduced(k))
            .seed(seed)
            .build(BenchmarkPair::test_pairs()[0])
    }

    fn assert_resume_identical(make: impl Fn() -> CmeshNetwork, n: u64, m: u64) {
        let mut golden = make();
        golden.run(n + m);

        let mut first = make();
        first.run(n);
        let checkpoint = first.snapshot();
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
        assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
        assert_eq!(a.avg_latency_cpu.to_bits(), b.avg_latency_cpu.to_bits());
    }

    #[test]
    fn resume_bit_identical_baseline() {
        assert_resume_identical(|| build(1, 7), 6_000, 5_000);
    }

    #[test]
    fn resume_bit_identical_bandwidth_reduced() {
        // Narrow links keep flits serializing across the kill point, so
        // link_free_at pacing state must survive the round trip.
        assert_resume_identical(|| build(2, 11), 6_000, 4_000);
        assert_resume_identical(|| build(4, 13), 5_000, 5_000);
    }

    #[test]
    fn resume_mid_congestion_with_live_wormholes() {
        // An early kill point lands while wormholes straddle routers
        // (inject streams, partial ejections and link flits all live).
        assert_resume_identical(|| build(1, 17), 137, 863);
    }

    #[test]
    fn trace_jsonl_is_bit_identical_across_resume() {
        let make = || build(4, 19);
        let (n, m) = (8_000u64, 6_000u64);

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
        assert_eq!(golden_buf, split_buf, "trace JSONL diverged across the resume");
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_before_any_mutation() {
        let mut donor = build(1, 23);
        donor.run(1_000);
        let cp = donor.snapshot();
        let mut other = build(1, 24);
        let before = other.state_hash();
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
        assert_eq!(other.state_hash(), before, "failed restore must not mutate");
        let mut other = build(2, 23);
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    #[test]
    fn pearl_checkpoints_are_rejected_by_kind() {
        let mut donor = build(1, 29);
        donor.run(500);
        let mut cp = donor.snapshot();
        cp.kind = "pearl".to_string();
        let mut twin = build(1, 29);
        assert!(matches!(twin.restore(&cp), Err(SnapshotError::KindMismatch { .. })));
    }

    #[test]
    fn repeated_checkpoint_restore_is_stable() {
        let mut net = build(1, 31);
        net.run(2_500);
        let cp1 = net.snapshot();
        let mut twin = build(1, 31);
        twin.restore(&cp1).unwrap();
        let cp2 = twin.snapshot();
        assert_eq!(cp1, cp2);
        assert_eq!(cp1.state.to_string(), cp2.state.to_string());
    }

    fn member<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
        let JsonValue::Obj(pairs) = v else { panic!("{key}: not in an object") };
        &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    fn element(v: &mut JsonValue, i: usize) -> &mut JsonValue {
        let JsonValue::Arr(items) = v else { panic!("[{i}]: not in an array") };
        &mut items[i]
    }

    /// Payloads that carry a valid hash seal but do not fit the network
    /// are refused, naming the field, before any state is touched: a
    /// link flit whose index is past `u32` (a regression: it used to be
    /// narrowed with `as u32`, so 2³² + k silently became k), a
    /// chip-edge output that claims credits, a round-robin pointer past
    /// the `5 × vcs` request bits of its output, and link flits out of
    /// `deliver_at` order (the link FIFO would strand due flits behind
    /// a later one).
    #[test]
    fn tampered_payloads_are_rejected_before_any_mutation() {
        let mut donor = build(1, 17);
        donor.run(137);
        let cp = donor.snapshot();
        type Tamper = fn(&mut JsonValue);
        let tamperings: [(&str, Tamper); 4] = [
            ("links", |state| {
                let flit = element(element(member(state, "links"), 0), 4);
                *element(flit, 2) = JsonValue::u64((1u64 << 32) + 3);
            }),
            ("out_credits", |state| {
                let credits = member(element(member(state, "routers"), 0), "out_credits");
                let JsonValue::Arr(outputs) = credits else { panic!("out_credits") };
                let live = outputs.iter().find(|o| **o != JsonValue::Null).unwrap().clone();
                *outputs.iter_mut().find(|o| **o == JsonValue::Null).unwrap() = live;
            }),
            ("rr", |state| {
                let rr = member(element(member(state, "routers"), 3), "rr");
                *element(rr, 4) = JsonValue::u64(5 * 4);
            }),
            ("links", |state| {
                let links = member(state, "links");
                let JsonValue::Arr(flits) = links else { panic!("links") };
                assert!(flits.len() >= 2, "the kill point must leave two link flits in flight");
                *element(&mut flits[0], 0) = Cycle(1 << 40).encode().unwrap();
            }),
        ];
        for (context, tamper) in tamperings {
            let mut state = cp.state.clone();
            tamper(&mut state);
            // Reseal, so only the codec stands between the payload and
            // the network.
            let sealed = Checkpoint::new(cp.kind.clone(), cp.config_fingerprint, cp.cycle, state);
            let resealed = Checkpoint::from_json(&sealed.to_json()).unwrap();

            let mut twin = build(1, 17);
            twin.run(50);
            let before = twin.state_hash();
            let result = twin.restore(&resealed);
            assert!(
                matches!(result, Err(SnapshotError::BadShape { context: c }) if c == context),
                "{context}: {result:?}"
            );
            assert_eq!(twin.state_hash(), before, "{context}: failed restore must not mutate");
        }
    }
}
