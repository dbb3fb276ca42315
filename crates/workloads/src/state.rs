//! Plain-data snapshots of workload generator state.
//!
//! Checkpointing serializes a whole simulation, and the traffic
//! generators are stochastic — their RNG stream positions and ON/OFF
//! dwell counters are part of the state that must round-trip exactly.
//! This module defines the dependency-free state structs that
//! [`crate::TrafficSource`] implementations export and re-import; the
//! JSON encoding lives with the checkpoint envelope, not here.

use std::error::Error;
use std::fmt;

/// Raw state of one deterministic generator stream.
///
/// `words` are the xoshiro256++ state words; `draws` is the number of
/// 64-bit outputs produced since seeding (the stream position). Restoring
/// from a captured `RngState` continues the identical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// Generator state words.
    pub words: [u64; 4],
    /// 64-bit outputs drawn since seeding.
    pub draws: u64,
}

impl RngState {
    /// Captures the state of a live generator.
    pub fn capture(rng: &pearl_noc::SimRng) -> RngState {
        RngState { words: rng.state(), draws: rng.draws() }
    }

    /// Rebuilds a generator continuing this exact stream.
    pub fn rebuild(&self) -> pearl_noc::SimRng {
        pearl_noc::SimRng::from_state(self.words, self.draws)
    }
}

/// The `(words, draws)` pair other crates' state snapshots carry.
impl From<([u64; 4], u64)> for RngState {
    fn from((words, draws): ([u64; 4], u64)) -> RngState {
        RngState { words, draws }
    }
}

impl From<RngState> for ([u64; 4], u64) {
    fn from(state: RngState) -> ([u64; 4], u64) {
        (state.words, state.draws)
    }
}

/// Dynamic state of one [`crate::OnOffInjector`].
///
/// The profile and phase modulator are static configuration (rebuilt from
/// the benchmark pair); only the Markov dwell state and the private RNG
/// stream change over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectorState {
    /// True when the source is in its ON (burst) state.
    pub bursting: bool,
    /// Cycles remaining in the current dwell.
    pub remaining: u64,
    /// The injector's private random stream.
    pub rng: RngState,
}

/// Dynamic state of a whole [`crate::TrafficSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficState {
    /// A [`crate::TrafficModel`]: one CPU and one GPU injector per
    /// cluster, in cluster order.
    Model {
        /// Per-cluster CPU injector states.
        cpu: Vec<InjectorState>,
        /// Per-cluster GPU injector states.
        gpu: Vec<InjectorState>,
    },
    /// A [`crate::SyntheticTraffic`] source: a single Bernoulli stream.
    Synthetic {
        /// The pattern generator's random stream.
        rng: RngState,
    },
}

/// Error returned when a [`TrafficState`] does not match the source it is
/// being restored onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficStateError {
    /// The state variant does not match the source kind (e.g. restoring a
    /// `Synthetic` snapshot onto a `TrafficModel`).
    KindMismatch {
        /// Kind of the live source.
        expected: &'static str,
        /// Kind recorded in the snapshot.
        found: &'static str,
    },
    /// The snapshot was taken for a different cluster count.
    ShapeMismatch {
        /// Injectors per core type in the live source.
        expected: usize,
        /// Injectors per core type in the snapshot.
        found: usize,
    },
}

impl fmt::Display for TrafficStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficStateError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "traffic snapshot kind mismatch: source is {expected}, snapshot is {found}"
                )
            }
            TrafficStateError::ShapeMismatch { expected, found } => {
                write!(f, "traffic snapshot shape mismatch: source has {expected} injectors per core type, snapshot has {found}")
            }
        }
    }
}

impl Error for TrafficStateError {}

impl TrafficState {
    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            TrafficState::Model { .. } => "model",
            TrafficState::Synthetic { .. } => "synthetic",
        }
    }
}
