//! On-chip InP Fabry-Perot laser banks with finite turn-on time.
//!
//! A PEARL router owns four banks of 16 lasers (the lowest splittable to
//! 8) feeding its data waveguide. Scaling *down* is instantaneous; scaling
//! *up* lights the extra banks immediately (they draw power) but the new
//! wavelengths only become usable after the stabilization delay — 2 ns by
//! default, swept 2–32 ns in the paper's Fig. 11 sensitivity study. No
//! data is transmitted on the newly lit banks during stabilization.

use crate::wavelength::WavelengthState;
use pearl_noc_shim::Cycle;

// `pearl-photonics` is deliberately independent of the simulation kernel;
// it only needs an opaque monotone cycle counter. A tiny internal shim
// keeps the dependency graph clean while remaining API-compatible with
// `pearl_noc::Cycle` (same layout: a public u64).
mod pearl_noc_shim {
    /// A monotone cycle timestamp (layout-compatible with `pearl_noc::Cycle`).
    pub type Cycle = u64;
}

/// Per-state residency counters (cycles spent with each usable state) —
/// the raw data behind the paper's Fig. 8 stacked bars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateResidency {
    counts: [u64; 5],
}

impl StateResidency {
    /// Cycles spent in `state`.
    #[inline]
    pub fn cycles_in(&self, state: WavelengthState) -> u64 {
        self.counts[state.index()]
    }

    /// Total accounted cycles.
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of time spent in `state` (0 when nothing accounted).
    pub fn fraction(&self, state: WavelengthState) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.cycles_in(state) as f64 / total as f64
        }
    }

    fn record(&mut self, state: WavelengthState) {
        self.counts[state.index()] += 1;
    }

    /// Merges another residency record into this one.
    pub fn merge(&mut self, other: &StateResidency) {
        for i in 0..5 {
            self.counts[i] += other.counts[i];
        }
    }

    /// The raw per-state counters, indexed by [`WavelengthState::index`].
    #[inline]
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuilds a residency record from counters captured by
    /// [`Self::counts`].
    pub fn from_counts(counts: [u64; 5]) -> StateResidency {
        StateResidency { counts }
    }
}

/// Complete dynamic state of an [`OnChipLaser`], for checkpointing. The
/// turn-on delay is static configuration and is not part of the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaserState {
    /// State currently drawing power.
    pub powered: WavelengthState,
    /// State currently usable for data.
    pub usable: WavelengthState,
    /// Cycle at which a pending grow stabilizes, if one is in flight.
    pub stabilize_until: Option<u64>,
    /// Transitions requested so far.
    pub transitions: u64,
    /// Residency counters, indexed by [`WavelengthState::index`].
    pub residency: [u64; 5],
    /// Cycles spent stabilization-stalled.
    pub stall_cycles: u64,
    /// Bounded `(cycle, requested state)` transition log.
    pub transition_log: Vec<(u64, WavelengthState)>,
}

/// The laser bank state machine of one router.
///
/// # Example
///
/// ```
/// use pearl_photonics::{OnChipLaser, WavelengthState};
///
/// let mut laser = OnChipLaser::new(WavelengthState::W16, 4); // 2 ns @2 GHz
/// laser.request(WavelengthState::W64, 100);
/// // Newly lit banks draw power immediately…
/// assert_eq!(laser.powered_state(), WavelengthState::W64);
/// // …but are not usable until stabilization completes.
/// assert_eq!(laser.usable_state(), WavelengthState::W16);
/// for now in 100..104 { laser.tick(now); }
/// laser.tick(104);
/// assert_eq!(laser.usable_state(), WavelengthState::W64);
/// ```
#[derive(Debug, Clone)]
pub struct OnChipLaser {
    powered: WavelengthState,
    usable: WavelengthState,
    stabilize_until: Option<Cycle>,
    turn_on_cycles: u64,
    transitions: u64,
    residency: StateResidency,
    /// Cycles spent waiting for stabilization (data blocked on new banks).
    stall_cycles: u64,
    /// Bounded log of `(cycle, requested state)` transitions for
    /// post-run inspection; oldest entries are dropped beyond the cap.
    transition_log: Vec<(Cycle, WavelengthState)>,
}

/// Maximum retained transition-log entries per laser.
const TRANSITION_LOG_CAP: usize = 1024;

impl OnChipLaser {
    /// Creates a laser bank initially stable at `initial`.
    pub fn new(initial: WavelengthState, turn_on_cycles: u64) -> OnChipLaser {
        OnChipLaser {
            powered: initial,
            usable: initial,
            stabilize_until: None,
            turn_on_cycles,
            transitions: 0,
            residency: StateResidency::default(),
            stall_cycles: 0,
            transition_log: Vec::new(),
        }
    }

    /// Turn-on (stabilization) delay in cycles.
    #[inline]
    pub fn turn_on_cycles(&self) -> u64 {
        self.turn_on_cycles
    }

    /// State currently drawing laser power.
    #[inline]
    pub fn powered_state(&self) -> WavelengthState {
        self.powered
    }

    /// State currently usable for data transmission.
    #[inline]
    pub fn usable_state(&self) -> WavelengthState {
        self.usable
    }

    /// True while newly lit banks are stabilizing.
    #[inline]
    pub fn is_stabilizing(&self) -> bool {
        self.stabilize_until.is_some()
    }

    /// Number of state transitions requested so far.
    #[inline]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Residency statistics over usable states.
    #[inline]
    pub fn residency(&self) -> &StateResidency {
        &self.residency
    }

    /// Cycles during which stabilization limited the usable bandwidth.
    #[inline]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// The most recent `(cycle, requested state)` transitions (bounded
    /// to the last 1024).
    #[inline]
    pub fn transition_log(&self) -> &[(Cycle, WavelengthState)] {
        &self.transition_log
    }

    /// Requests a new power state at cycle `now` (a reservation-window
    /// boundary in Algorithm 1).
    ///
    /// Scaling down takes effect immediately; scaling up keeps the old
    /// usable state until `now + turn_on_cycles`.
    pub fn request(&mut self, target: WavelengthState, now: Cycle) {
        if target == self.powered && !self.is_stabilizing() {
            return;
        }
        self.transitions += 1;
        self.log(now, target);
        if target <= self.usable {
            // Shrinking (or aborting a pending grow): instantaneous.
            self.powered = target;
            self.usable = target;
            self.stabilize_until = None;
        } else {
            // Growing: extra banks light now, usable after stabilization.
            self.powered = target;
            self.stabilize_until = Some(now + self.turn_on_cycles);
        }
    }

    /// Appends to the bounded transition log, dropping the oldest entry
    /// at the cap. The log grows straight to its cap the first time it
    /// fills, so it reallocates at most once.
    fn log(&mut self, now: Cycle, state: WavelengthState) {
        if self.transition_log.len() >= TRANSITION_LOG_CAP {
            self.transition_log.remove(0);
        } else if self.transition_log.len() == self.transition_log.capacity() {
            self.transition_log.reserve_exact(TRANSITION_LOG_CAP - self.transition_log.len());
        }
        self.transition_log.push((now, state));
    }

    /// Clamps the bank to a degraded fault ceiling (e.g. from
    /// [`crate::FaultModel::laser_ceiling`]). Like any scale-down this
    /// is instantaneous: banks above the ceiling go dark now. A pending
    /// grow beyond the ceiling is truncated to the ceiling but keeps
    /// its stabilization deadline.
    pub fn apply_ceiling(&mut self, ceiling: WavelengthState, now: Cycle) {
        if self.powered <= ceiling && self.usable <= ceiling {
            return;
        }
        self.transitions += 1;
        self.log(now, ceiling);
        self.powered = self.powered.min(ceiling);
        self.usable = self.usable.min(ceiling);
        if self.powered <= self.usable {
            self.stabilize_until = None;
        }
    }

    /// Captures the complete dynamic state for a checkpoint.
    pub fn export_state(&self) -> LaserState {
        LaserState {
            powered: self.powered,
            usable: self.usable,
            stabilize_until: self.stabilize_until,
            transitions: self.transitions,
            residency: self.residency.counts(),
            stall_cycles: self.stall_cycles,
            transition_log: self.transition_log.clone(),
        }
    }

    /// Restores state captured by [`Self::export_state`] onto a laser
    /// with the same turn-on delay.
    pub fn import_state(&mut self, state: &LaserState) {
        self.powered = state.powered;
        self.usable = state.usable;
        self.stabilize_until = state.stabilize_until;
        self.transitions = state.transitions;
        self.residency = StateResidency::from_counts(state.residency);
        self.stall_cycles = state.stall_cycles;
        self.transition_log = state.transition_log.clone();
    }

    /// Advances one cycle: completes stabilization when due and records
    /// residency. Call once per network cycle with the current time.
    pub fn tick(&mut self, now: Cycle) {
        if let Some(until) = self.stabilize_until {
            if now >= until {
                self.usable = self.powered;
                self.stabilize_until = None;
            } else {
                self.stall_cycles += 1;
            }
        }
        self.residency.record(self.usable);
    }
}

impl Default for OnChipLaser {
    /// Full-power laser with the paper's default 2 ns (=4 cycle) turn-on.
    fn default() -> Self {
        OnChipLaser::new(WavelengthState::W64, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_down_is_instant() {
        let mut l = OnChipLaser::new(WavelengthState::W64, 4);
        l.request(WavelengthState::W16, 10);
        assert_eq!(l.powered_state(), WavelengthState::W16);
        assert_eq!(l.usable_state(), WavelengthState::W16);
        assert!(!l.is_stabilizing());
    }

    #[test]
    fn scale_up_waits_for_turn_on() {
        let mut l = OnChipLaser::new(WavelengthState::W16, 4);
        l.request(WavelengthState::W64, 100);
        assert!(l.is_stabilizing());
        for now in 100..104 {
            l.tick(now);
            assert_eq!(l.usable_state(), WavelengthState::W16, "at {now}");
        }
        l.tick(104);
        assert_eq!(l.usable_state(), WavelengthState::W64);
        assert!(!l.is_stabilizing());
        assert_eq!(l.stall_cycles(), 4);
    }

    #[test]
    fn zero_turn_on_is_immediate() {
        let mut l = OnChipLaser::new(WavelengthState::W8, 0);
        l.request(WavelengthState::W64, 50);
        l.tick(50);
        assert_eq!(l.usable_state(), WavelengthState::W64);
        assert_eq!(l.stall_cycles(), 0);
    }

    #[test]
    fn redundant_request_is_free() {
        let mut l = OnChipLaser::new(WavelengthState::W32, 4);
        l.request(WavelengthState::W32, 5);
        assert_eq!(l.transitions(), 0);
    }

    #[test]
    fn shrink_during_stabilization_aborts_growth() {
        let mut l = OnChipLaser::new(WavelengthState::W16, 8);
        l.request(WavelengthState::W64, 0);
        l.tick(0);
        l.request(WavelengthState::W8, 1);
        assert_eq!(l.powered_state(), WavelengthState::W8);
        assert_eq!(l.usable_state(), WavelengthState::W8);
        assert!(!l.is_stabilizing());
    }

    #[test]
    fn residency_tracks_usable_state() {
        let mut l = OnChipLaser::new(WavelengthState::W16, 2);
        l.request(WavelengthState::W64, 0);
        for now in 0..10 {
            l.tick(now);
        }
        // Two cycles stabilizing at W16, then eight at W64.
        assert_eq!(l.residency().cycles_in(WavelengthState::W16), 2);
        assert_eq!(l.residency().cycles_in(WavelengthState::W64), 8);
        assert!((l.residency().fraction(WavelengthState::W64) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn transition_log_records_requests_in_order() {
        let mut l = OnChipLaser::new(WavelengthState::W64, 2);
        l.request(WavelengthState::W16, 5);
        l.request(WavelengthState::W48, 9);
        let log = l.transition_log();
        assert_eq!(log, &[(5, WavelengthState::W16), (9, WavelengthState::W48)]);
    }

    #[test]
    fn transition_log_is_bounded() {
        let mut l = OnChipLaser::new(WavelengthState::W8, 0);
        for i in 0..3_000u64 {
            let target = if i % 2 == 0 { WavelengthState::W64 } else { WavelengthState::W8 };
            l.request(target, i);
            l.tick(i);
        }
        assert!(l.transition_log().len() <= 1024);
        // The newest entry is retained.
        assert_eq!(l.transition_log().last().unwrap().0, 2_999);
    }

    #[test]
    fn ceiling_clamps_instantly() {
        let mut l = OnChipLaser::new(WavelengthState::W64, 4);
        l.apply_ceiling(WavelengthState::W32, 7);
        assert_eq!(l.powered_state(), WavelengthState::W32);
        assert_eq!(l.usable_state(), WavelengthState::W32);
        assert!(!l.is_stabilizing());
        // At or below the ceiling: no-op, no transition counted.
        let before = l.transitions();
        l.apply_ceiling(WavelengthState::W48, 8);
        assert_eq!(l.transitions(), before);
        assert_eq!(l.powered_state(), WavelengthState::W32);
    }

    #[test]
    fn ceiling_truncates_pending_growth() {
        let mut l = OnChipLaser::new(WavelengthState::W16, 8);
        l.request(WavelengthState::W64, 0);
        l.apply_ceiling(WavelengthState::W32, 1);
        // Still growing, but only to the ceiling now.
        assert_eq!(l.powered_state(), WavelengthState::W32);
        assert_eq!(l.usable_state(), WavelengthState::W16);
        assert!(l.is_stabilizing());
        for now in 1..9 {
            l.tick(now);
        }
        assert_eq!(l.usable_state(), WavelengthState::W32);
    }

    #[test]
    fn residency_merge_accumulates() {
        let mut a = StateResidency::default();
        a.record(WavelengthState::W8);
        let mut b = StateResidency::default();
        b.record(WavelengthState::W8);
        b.record(WavelengthState::W64);
        a.merge(&b);
        assert_eq!(a.cycles_in(WavelengthState::W8), 2);
        assert_eq!(a.total_cycles(), 3);
    }

    #[test]
    fn empty_residency_fraction_is_zero() {
        assert_eq!(StateResidency::default().fraction(WavelengthState::W64), 0.0);
    }
}
