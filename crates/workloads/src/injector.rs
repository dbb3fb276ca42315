//! Markov-modulated ON/OFF packet injection.
//!
//! The source alternates between an ON state (injecting with the
//! profile's rate each cycle) and an OFF state (silent), with
//! geometrically distributed dwell times. Long ON / short OFF produces
//! the near-steady CPU behaviour; short ON / long OFF produces the
//! bursty GPU behaviour the paper observed (§IV-A).

use crate::phases::PhaseModulator;
use crate::profile::TrafficProfile;
use crate::state::{InjectorState, RngState};
use pearl_noc::{Cycle, SimRng};

/// State of the two-state Markov source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceState {
    On { remaining: u64 },
    Off { remaining: u64 },
}

/// A bursty packet source for one cluster and core type.
#[derive(Debug, Clone)]
pub struct OnOffInjector {
    profile: TrafficProfile,
    phases: PhaseModulator,
    state: SourceState,
    rng: SimRng,
    /// `(injection_rate·(1−depth), injection_rate·(1+depth))`, the band
    /// the modulated rate stays in, when its top is below 1 (see
    /// [`Self::step`]); `None` keeps the whole-packets path.
    band: Option<(f64, f64)>,
}

impl OnOffInjector {
    /// Creates an injector from a profile; `rng` seeds its private
    /// stochastic stream and `phase_offset` decorrelates phases across
    /// clusters.
    pub fn new(profile: TrafficProfile, mut rng: SimRng, phase_offset: u64) -> OnOffInjector {
        profile.validate();
        let phases = PhaseModulator::new(profile.phase_period, profile.phase_depth, phase_offset);
        // Start in a random point of the ON/OFF cycle so sources are not
        // synchronized at cycle zero.
        let state = if rng.chance(profile.duty_cycle()) {
            SourceState::On { remaining: Self::dwell(&mut rng, profile.burst_mean_len) }
        } else {
            SourceState::Off { remaining: Self::dwell(&mut rng, profile.idle_mean_len.max(1.0)) }
        };
        let high = profile.injection_rate * (1.0 + profile.phase_depth);
        let low = profile.injection_rate * (1.0 - profile.phase_depth);
        let band = (high < 1.0).then_some((low, high));
        OnOffInjector { profile, phases, state, rng, band }
    }

    fn dwell(rng: &mut SimRng, mean: f64) -> u64 {
        // Geometric dwell with the requested mean (p = 1/mean).
        rng.geometric((1.0 / mean.max(1.0)).clamp(1e-6, 1.0))
    }

    /// The profile driving this source.
    #[inline]
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// True while the source is in its ON (burst) state.
    #[inline]
    pub fn is_bursting(&self) -> bool {
        matches!(self.state, SourceState::On { .. })
    }

    /// Advances one cycle and returns how many packets the source wants
    /// to inject this cycle (usually 0 or 1; may exceed 1 for rates > 1).
    ///
    /// An ON source draws one uniform `u` and injects `⌊rate⌋ + [u <
    /// frac]` packets, where `rate = injection_rate × factor(now)`. When
    /// the rate's band top `injection_rate·(1+depth)` is below 1, the
    /// draw comes first and the phase factor (a `sin`) is evaluated only
    /// if `u` falls inside the band: the factor lies in `[1−depth,
    /// 1+depth]` after rounding (`|sin| ≤ 1` and rounding is monotone),
    /// so `rate` lies in the precomputed band, `⌊rate⌋ = 0`, and `u`
    /// above the band rejects while `u` below it accepts — the same
    /// count and the same single draw as evaluating the rate first.
    pub fn step(&mut self, now: Cycle) -> u32 {
        // Dwell-time bookkeeping.
        self.state = match self.state {
            SourceState::On { remaining: 0 } => SourceState::Off {
                remaining: Self::dwell(&mut self.rng, self.profile.idle_mean_len.max(1.0)),
            },
            SourceState::Off { remaining: 0 } => SourceState::On {
                remaining: Self::dwell(&mut self.rng, self.profile.burst_mean_len),
            },
            SourceState::On { remaining } => SourceState::On { remaining: remaining - 1 },
            SourceState::Off { remaining } => SourceState::Off { remaining: remaining - 1 },
        };
        if !self.is_bursting() {
            return 0;
        }
        if let Some((low, high)) = self.band {
            let u = self.rng.uniform();
            if u >= high {
                return 0;
            }
            if u < low {
                return 1;
            }
            return u32::from(u < self.profile.injection_rate * self.phases.factor(now));
        }
        let rate = self.profile.injection_rate * self.phases.factor(now);
        let whole = rate.floor() as u32;
        let frac = rate - f64::from(whole);
        whole + u32::from(self.rng.chance(frac))
    }

    /// Mutable access to the private random stream (used by the traffic
    /// model for destination/class draws so they stay per-source).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Captures the dynamic state (dwell counters + RNG stream) for a
    /// checkpoint. The profile and phase offset are static configuration
    /// and are not part of the snapshot.
    pub fn export_state(&self) -> InjectorState {
        let (bursting, remaining) = match self.state {
            SourceState::On { remaining } => (true, remaining),
            SourceState::Off { remaining } => (false, remaining),
        };
        InjectorState { bursting, remaining, rng: RngState::capture(&self.rng) }
    }

    /// Restores dynamic state captured by [`Self::export_state`] onto an
    /// injector built from the identical profile and phase offset.
    pub fn import_state(&mut self, state: &InjectorState) {
        self.state = if state.bursting {
            SourceState::On { remaining: state.remaining }
        } else {
            SourceState::Off { remaining: state.remaining }
        };
        self.rng = state.rng.rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{CpuBenchmark, GpuBenchmark};
    use crate::profile::ClassMix;

    impl OnOffInjector {
        /// The rate-first formula [`OnOffInjector::step`] replaced: the
        /// phase factor on every ON cycle, then one Bernoulli draw on
        /// the fractional rate. The oracle for the draw-first band test.
        fn step_reference(&mut self, now: Cycle) -> u32 {
            self.state = match self.state {
                SourceState::On { remaining: 0 } => SourceState::Off {
                    remaining: Self::dwell(&mut self.rng, self.profile.idle_mean_len.max(1.0)),
                },
                SourceState::Off { remaining: 0 } => SourceState::On {
                    remaining: Self::dwell(&mut self.rng, self.profile.burst_mean_len),
                },
                SourceState::On { remaining } => SourceState::On { remaining: remaining - 1 },
                SourceState::Off { remaining } => SourceState::Off { remaining: remaining - 1 },
            };
            if !self.is_bursting() {
                return 0;
            }
            let rate = self.profile.injection_rate * self.phases.factor(now);
            let whole = rate.floor() as u32;
            let frac = rate - f64::from(whole);
            whole + u32::from(self.rng.chance(frac))
        }
    }

    #[test]
    fn draw_first_step_matches_the_rate_first_formula() {
        let edge = |rate: f64, depth: f64, period: u64| TrafficProfile {
            injection_rate: rate,
            burst_mean_len: 40.0,
            idle_mean_len: 20.0,
            l3_fraction: 0.5,
            phase_period: period,
            phase_depth: depth,
            class_mix: ClassMix::balanced(),
        };
        let profiles: Vec<TrafficProfile> = CpuBenchmark::ALL
            .iter()
            .map(|b| b.profile())
            .chain(GpuBenchmark::ALL.iter().map(|b| b.profile()))
            .chain([
                edge(0.45, 1.0, 700), // the factor reaches 0 and 2
                edge(0.5, 1.0, 64),   // band top exactly 1: whole-packets path
                edge(0.8, 0.4, 300),  // band top above 1
                edge(2.5, 0.3, 500),  // several packets a cycle
                edge(0.3, 0.5, 0),    // period 0: no modulation
                edge(0.3, 0.0, 900),  // depth 0: no modulation
                edge(0.0, 0.5, 100),  // a silent source
                edge(1.0, 0.0, 0),    // exactly one packet a cycle
            ])
            .collect();
        let mut stalls = SimRng::from_seed(0x5EED);
        for (k, profile) in profiles.into_iter().enumerate() {
            let seed = 100 + k as u64;
            let mut fast = OnOffInjector::new(profile, SimRng::from_seed(seed), 37 * k as u64);
            let mut oracle = OnOffInjector::new(profile, SimRng::from_seed(seed), 37 * k as u64);
            for c in 0..20_000u64 {
                // A stalled source does not step this cycle.
                if stalls.chance(0.2) {
                    continue;
                }
                assert_eq!(fast.step(Cycle(c)), oracle.step_reference(Cycle(c)), "{k} at {c}");
                assert_eq!(fast.rng.draws(), oracle.rng.draws(), "{k} at {c}");
            }
            assert_eq!(fast.export_state(), oracle.export_state(), "profile {k}");
        }
    }

    fn profile(rate: f64, burst: f64, idle: f64) -> TrafficProfile {
        TrafficProfile {
            injection_rate: rate,
            burst_mean_len: burst,
            idle_mean_len: idle,
            l3_fraction: 0.5,
            phase_period: 0,
            phase_depth: 0.0,
            class_mix: ClassMix::balanced(),
        }
    }

    fn mean_injected(p: TrafficProfile, cycles: u64, seed: u64) -> f64 {
        let mut inj = OnOffInjector::new(p, SimRng::from_seed(seed), 0);
        let total: u64 = (0..cycles).map(|c| u64::from(inj.step(Cycle(c)))).sum();
        total as f64 / cycles as f64
    }

    #[test]
    fn long_run_rate_matches_profile_mean() {
        let p = profile(0.4, 50.0, 150.0); // mean = 0.4 × 0.25 = 0.1
        let measured = mean_injected(p, 400_000, 7);
        assert!((measured - p.mean_rate()).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn steady_source_rarely_pauses() {
        let p = profile(0.2, 5000.0, 1.0);
        let mut inj = OnOffInjector::new(p, SimRng::from_seed(1), 0);
        let on_cycles = (0..10_000)
            .filter(|&c| {
                inj.step(Cycle(c));
                inj.is_bursting()
            })
            .count();
        assert!(on_cycles > 9_000, "only {on_cycles} on-cycles");
    }

    #[test]
    fn bursty_source_alternates() {
        let p = profile(0.6, 30.0, 300.0);
        let mut inj = OnOffInjector::new(p, SimRng::from_seed(3), 0);
        let mut transitions = 0;
        let mut last = inj.is_bursting();
        for c in 0..100_000 {
            inj.step(Cycle(c));
            if inj.is_bursting() != last {
                transitions += 1;
                last = inj.is_bursting();
            }
        }
        // Expected ~2×100000/330 ≈ 600 transitions; require a healthy count.
        assert!(transitions > 200, "only {transitions} transitions");
    }

    #[test]
    fn rates_above_one_inject_multiple_packets() {
        let p = profile(2.5, 1000.0, 1.0);
        let measured = mean_injected(p, 100_000, 11);
        assert!((measured - 2.5).abs() < 0.1, "measured {measured}");
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let p = profile(0.5, 40.0, 200.0);
        let mut original = OnOffInjector::new(p, SimRng::from_seed(17), 3);
        for c in 0..500 {
            original.step(Cycle(c));
        }
        let snapshot = original.export_state();
        let mut restored = OnOffInjector::new(p, SimRng::from_seed(99), 3);
        restored.import_state(&snapshot);
        for c in 500..2_000 {
            assert_eq!(restored.step(Cycle(c)), original.step(Cycle(c)), "cycle {c}");
            assert_eq!(restored.is_bursting(), original.is_bursting());
        }
        assert_eq!(restored.export_state(), original.export_state());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = profile(0.5, 40.0, 200.0);
        let a: Vec<u32> = {
            let mut i = OnOffInjector::new(p, SimRng::from_seed(9), 4);
            (0..1000).map(|c| i.step(Cycle(c))).collect()
        };
        let b: Vec<u32> = {
            let mut i = OnOffInjector::new(p, SimRng::from_seed(9), 4);
            (0..1000).map(|c| i.step(Cycle(c))).collect()
        };
        assert_eq!(a, b);
    }
}
