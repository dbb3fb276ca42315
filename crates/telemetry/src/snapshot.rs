//! Versioned, crash-safe simulation checkpoints.
//!
//! A checkpoint is a single JSON document wrapped in an envelope that
//! pins three things before any state is restored:
//!
//! 1. **Format version** ([`SNAPSHOT_VERSION`]) — the codec layout;
//! 2. **Kind** — which simulator produced it (`"pearl"` / `"cmesh"`);
//! 3. **Config fingerprint** — FNV-1a over the producing run's full
//!    static configuration. Restoring dynamic state onto a *different*
//!    configuration would diverge silently; the fingerprint turns that
//!    into a typed [`SnapshotError`] instead.
//!
//! The envelope also embeds an FNV-1a hash of the serialized state
//! (`state_hash`), recomputed on read, so a corrupted or hand-edited
//! checkpoint is rejected rather than restored.
//!
//! ## Bit-exactness
//!
//! The resume contract is *bit-identity*: run N cycles, checkpoint,
//! restore, run M more — every statistic, trace event and state hash
//! must equal an uninterrupted N+M run. JSON numbers are `f64` and lossy
//! above 2⁵³, so no state goes through them: every value is written by
//! its [`Snap`] impl, and the exactness rules live in those impls, one
//! each. `u64`/`u128` counters are decimal strings, and `f64` values are
//! the hexadecimal form of their IEEE-754 bit pattern (exact for every
//! value, including `-0.0`, subnormals and NaN payloads). Plain JSON
//! numbers are reserved for small structural indices (node ids, ports,
//! enum discriminants).
//!
//! ## Crash safety
//!
//! [`atomic_write_file`] writes through a temporary file in the target
//! directory and renames it into place, so readers observe either the
//! old complete artifact or the new complete artifact — never a
//! truncated hybrid. Every artifact writer in the workspace (manifests,
//! traces, bench reports, checkpoints) routes through it.

use crate::json::{JsonError, JsonValue};
use crate::manifest::fingerprint;
use crate::storage::{OsStorage, Storage};
use pearl_noc::{
    BufferState, CoreType, Cycle, Flit, FlitKind, NodeId, Packet, PacketKind, StatsState,
    TrafficClass, VcState,
};
use pearl_photonics::fault::FaultEventKind;
use pearl_photonics::{FaultModelState, FaultStats, LaserState, WavelengthState};
use pearl_workloads::{InjectorState, RngState, TrafficState};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::Path;

/// Version of the checkpoint layout produced by this module. Bumped on
/// any incompatible codec change; restore rejects other versions.
pub const SNAPSHOT_VERSION: u64 = 1;

/// A checkpoint write/read/validation failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(JsonError),
    /// Valid JSON, wrong shape; `context` names the offending field.
    BadShape {
        /// The field or structure that failed to decode.
        context: &'static str,
    },
    /// The checkpoint was written by an incompatible layout version.
    VersionMismatch {
        /// Version recorded in the checkpoint.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The checkpoint came from a different simulator kind.
    KindMismatch {
        /// Kind recorded in the checkpoint.
        found: String,
        /// Kind of the network being restored.
        expected: String,
    },
    /// The checkpoint came from a different static configuration.
    FingerprintMismatch {
        /// Fingerprint recorded in the checkpoint.
        found: u64,
        /// Fingerprint of the network being restored.
        expected: u64,
    },
    /// The serialized state does not match its embedded hash — the file
    /// was corrupted or edited after writing.
    HashMismatch {
        /// Hash recomputed from the state payload.
        found: u64,
        /// Hash recorded in the envelope.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::Json(e) => write!(f, "{e}"),
            SnapshotError::BadShape { context } => {
                write!(f, "checkpoint JSON has an unexpected shape at {context}")
            }
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} is not the supported version {expected}")
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "checkpoint is for a {found:?} network, not {expected:?}")
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match \
                 the target network's {expected:#018x}"
            ),
            SnapshotError::HashMismatch { found, expected } => write!(
                f,
                "checkpoint state hashes to {found:#018x} but records {expected:#018x} \
                 — the file is corrupt"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

// ---------------------------------------------------------------------------
// Crash-safe writes
// ---------------------------------------------------------------------------

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// file in the same directory (so the rename cannot cross filesystems),
/// are flushed and fsynced, and the temporary is renamed over `path`.
/// A crash at any point leaves either the previous artifact or the new
/// one — never a truncated file. Parent directories are created.
///
/// This is the [`Storage::write_atomic`] contract on the real
/// filesystem; code holding an injectable storage should call
/// [`atomic_write_file_with`] instead.
///
/// # Errors
///
/// Propagates filesystem failures; the temporary file is removed on
/// error.
pub fn atomic_write_file(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    OsStorage.write_atomic(path.as_ref(), contents)
}

/// [`atomic_write_file`] through an explicit [`Storage`], so fault
/// injection covers the write.
///
/// # Errors
///
/// Propagates storage failures.
pub fn atomic_write_file_with(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
    contents: &str,
) -> std::io::Result<()> {
    storage.write_atomic(path.as_ref(), contents)
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A value's checkpoint codec (see the module docs for the exactness
/// rules). Enums are written by their index in an `ALL` enumeration
/// ([`snap_enum!`](crate::snap_enum)). Containers compose: `Option` is
/// `null` or the value; `Vec`, `VecDeque`, `[T; N]` and tuples are
/// arrays, the last two length-checked; `HashMap<u64, _>` is
/// `[key, value]` pairs sorted by key. Plain-data structs derive their
/// codec from a field list with [`snap_struct!`](crate::snap_struct).
pub trait Snap: Sized {
    /// Encodes the value.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadShape`] when the value lies outside its
    /// encoding domain (an enum value missing from its enumeration).
    fn encode(&self) -> Result<JsonValue, SnapshotError>;

    /// Decodes a value written by [`Snap::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadShape`] naming `context`, the enclosing
    /// field, on any mismatch.
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError>;
}

fn bad_shape(context: &'static str) -> SnapshotError {
    SnapshotError::BadShape { context }
}

/// Decimal strings: exact over the full range, where a JSON number
/// (an `f64`) would round above 2⁵³.
macro_rules! decimal_snap {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self) -> Result<JsonValue, SnapshotError> {
                Ok(JsonValue::str(self.to_string()))
            }

            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                v.as_str().and_then(|s| s.parse().ok()).ok_or(bad_shape(context))
            }
        }
    )*};
}

decimal_snap!(u64, u128);

/// Plain JSON numbers, reserved for small structural indices (node ids,
/// ports, VC numbers, slot counts) far below 2⁵³. A decoded value that
/// does not fit the target type is refused, never truncated.
macro_rules! index_snap {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self) -> Result<JsonValue, SnapshotError> {
                Ok(JsonValue::u64(*self as u64))
            }

            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                v.as_u64().and_then(|n| <$t>::try_from(n).ok()).ok_or(bad_shape(context))
            }
        }
    )*};
}

index_snap!(usize, u32);

/// The IEEE-754 bits as 16 hex digits: exact for every value, including
/// `-0.0`, subnormals, infinities and NaN payloads, where a decimal
/// round trip could perturb the low bits.
impl Snap for f64 {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        Ok(JsonValue::str(format!("{:016x}", self.to_bits())))
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        v.as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(f64::from_bits)
            .ok_or(bad_shape(context))
    }
}

impl Snap for bool {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        Ok(JsonValue::Bool(*self))
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(bad_shape(context)),
        }
    }
}

/// Newtypes travel as their inner value.
macro_rules! newtype_snap {
    ($($t:ident($inner:ty)),*) => {$(
        impl Snap for $t {
            fn encode(&self) -> Result<JsonValue, SnapshotError> {
                self.0.encode()
            }

            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                <$inner>::decode(v, context).map($t)
            }
        }
    )*};
}

newtype_snap!(Cycle(u64), NodeId(usize));

impl<T: Snap> Snap for Option<T> {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        self.as_ref().map_or(Ok(JsonValue::Null), Snap::encode)
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::decode(other, context).map(Some),
        }
    }
}

/// Encodes a sequence as a JSON array.
///
/// # Errors
///
/// The first element's encoding error.
pub fn encode_seq<'a, T: Snap + 'a>(
    items: impl IntoIterator<Item = &'a T>,
) -> Result<JsonValue, SnapshotError> {
    items.into_iter().map(Snap::encode).collect::<Result<_, _>>().map(JsonValue::Arr)
}

fn decode_seq<C: FromIterator<T>, T: Snap>(
    v: &JsonValue,
    context: &'static str,
) -> Result<C, SnapshotError> {
    let items = v.as_arr().ok_or(bad_shape(context))?;
    items.iter().map(|item| T::decode(item, context)).collect()
}

macro_rules! seq_snap {
    ($($seq:ident),*) => {$(
        impl<T: Snap> Snap for $seq<T> {
            fn encode(&self) -> Result<JsonValue, SnapshotError> {
                encode_seq(self)
            }

            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                decode_seq(v, context)
            }
        }
    )*};
}

seq_snap!(Vec, VecDeque);

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        encode_seq(self)
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let items: Vec<T> = decode_seq(v, context)?;
        items.try_into().map_err(|_| bad_shape(context))
    }
}

macro_rules! tuple_snap {
    ($($t:ident $x:ident),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn encode(&self) -> Result<JsonValue, SnapshotError> {
                let ($($x,)+) = self;
                Ok(JsonValue::Arr(vec![$($x.encode()?),+]))
            }

            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                let [$($x),+] = fixed_array(v, context)?;
                Ok(($($t::decode($x, context)?,)+))
            }
        }
    };
}

tuple_snap!(A a, B b);
tuple_snap!(A a, B b, C c);

/// Maps keyed by packet id, as `[key, value]` pairs sorted by key:
/// `HashMap` iteration order is unspecified, and equal maps must
/// serialize to equal bytes for the state hash to mean anything.
impl<V: Snap> Snap for HashMap<u64, V> {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| **key);
        entries
            .into_iter()
            .map(|(key, value)| Ok(JsonValue::Arr(vec![key.encode()?, value.encode()?])))
            .collect::<Result<_, _>>()
            .map(JsonValue::Arr)
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        decode_seq::<_, (u64, V)>(v, context)
    }
}

/// Fetches a required object field.
///
/// # Errors
///
/// Returns [`SnapshotError::BadShape`] naming `key` when absent.
pub fn field<'a>(v: &'a JsonValue, key: &'static str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key).ok_or(bad_shape(key))
}

/// Decodes the object field `key`, naming it in any error.
///
/// # Errors
///
/// Returns [`SnapshotError::BadShape`] naming `key` when the field is
/// absent or does not decode.
pub fn decode_field<T: Snap>(v: &JsonValue, key: &'static str) -> Result<T, SnapshotError> {
    T::decode(field(v, key)?, key)
}

/// Refuses a decoded collection whose length (`found`) disagrees with
/// the live network's (`expected`).
///
/// # Errors
///
/// Returns [`SnapshotError::BadShape`] naming `context` on mismatch.
pub fn check_len(
    found: usize,
    expected: usize,
    context: &'static str,
) -> Result<(), SnapshotError> {
    if found == expected {
        Ok(())
    } else {
        Err(bad_shape(context))
    }
}

/// Views a value as an array of exactly `N` items.
///
/// # Errors
///
/// Returns [`SnapshotError::BadShape`] naming `context` on mismatch.
pub fn fixed_array<'a, const N: usize>(
    v: &'a JsonValue,
    context: &'static str,
) -> Result<&'a [JsonValue; N], SnapshotError> {
    v.as_arr().and_then(|items| items.try_into().ok()).ok_or(bad_shape(context))
}

/// Encodes an enum value as its index in `all`, its stable enumeration.
///
/// A value missing from `all` is a [`SnapshotError::BadShape`], never
/// index 0: collapsing it to the first variant would corrupt the
/// checkpoint with no diagnostic. [`enum_from_index`] refuses an
/// out-of-range index the same way.
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `context` when `v` is not in `all`.
pub fn enum_index<T: Copy + PartialEq>(
    all: &[T],
    v: T,
    context: &'static str,
) -> Result<JsonValue, SnapshotError> {
    all.iter().position(|x| *x == v).ok_or(bad_shape(context))?.encode()
}

/// Decodes an enum value written by [`enum_index`].
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `context` on an index outside `all`.
pub fn enum_from_index<T: Copy>(
    all: &[T],
    v: &JsonValue,
    context: &'static str,
) -> Result<T, SnapshotError> {
    all.get(usize::decode(v, context)?).copied().ok_or(bad_shape(context))
}

/// Implements [`Snap`] for enums through their `ALL` enumerations
/// ([`enum_index`] / [`enum_from_index`]):
/// `snap_enum!(Mode => Mode::ALL, Kind => KIND_ORDER);`.
#[macro_export]
macro_rules! snap_enum {
    ($($ty:ty => $all:expr),+ $(,)?) => {$(
        impl $crate::snapshot::Snap for $ty {
            fn encode(&self) -> ::std::result::Result<$crate::JsonValue, $crate::SnapshotError> {
                $crate::snapshot::enum_index(&$all, *self, stringify!($ty))
            }

            fn decode(
                v: &$crate::JsonValue,
                context: &'static str,
            ) -> ::std::result::Result<Self, $crate::SnapshotError> {
                $crate::snapshot::enum_from_index(&$all, v, context)
            }
        }
    )+};
}

/// Implements [`Snap`] for a plain-data struct from its field list, in
/// wire order. Two forms:
///
/// - object: `snap_struct!(State { field => "key", ... })` writes
///   `{"key": field, ...}`;
/// - positional: `snap_struct!(Entry [a, b, c])` writes `[a, b, c]` and
///   refuses any other length.
///
/// A field written as `field as Wire` travels as the type `Wire`,
/// converted with `Wire::from` on encode and `TryFrom` on decode (a
/// failed conversion is a [`SnapshotError::BadShape`]).
#[macro_export]
macro_rules! snap_struct {
    (@encode $value:expr) => {
        $crate::snapshot::Snap::encode(&$value)?
    };
    (@encode $value:expr, $wire:ident) => {
        $crate::snapshot::Snap::encode(&$wire::from(::std::clone::Clone::clone(&$value)))?
    };
    (@decode $json:expr, $context:expr) => {
        $crate::snapshot::Snap::decode($json, $context)?
    };
    (@decode $json:expr, $context:expr, $wire:ident) => {
        ::std::convert::TryFrom::try_from(
            <$wire as $crate::snapshot::Snap>::decode($json, $context)?,
        )
        .map_err(|_| $crate::SnapshotError::BadShape { context: $context })?
    };
    ($ty:ty { $($field:ident $(as $wire:ident)? => $key:literal),+ $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn encode(&self) -> ::std::result::Result<$crate::JsonValue, $crate::SnapshotError> {
                Ok($crate::JsonValue::obj(vec![
                    $(($key, $crate::snap_struct!(@encode self.$field $(, $wire)?)),)+
                ]))
            }

            fn decode(
                v: &$crate::JsonValue,
                _context: &'static str,
            ) -> ::std::result::Result<Self, $crate::SnapshotError> {
                Ok(Self {
                    $($field: $crate::snap_struct!(
                        @decode $crate::snapshot::field(v, $key)?, $key $(, $wire)?
                    ),)+
                })
            }
        }
    };
    ($ty:ty [$($field:ident $(as $wire:ident)?),+ $(,)?]) => {
        impl $crate::snapshot::Snap for $ty {
            fn encode(&self) -> ::std::result::Result<$crate::JsonValue, $crate::SnapshotError> {
                Ok($crate::JsonValue::Arr(vec![
                    $($crate::snap_struct!(@encode self.$field $(, $wire)?),)+
                ]))
            }

            fn decode(
                v: &$crate::JsonValue,
                context: &'static str,
            ) -> ::std::result::Result<Self, $crate::SnapshotError> {
                let [$($field),+] = $crate::snapshot::fixed_array(v, context)?;
                Ok(Self { $($field: $crate::snap_struct!(@decode $field, context $(, $wire)?),)+ })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Shared simulator state
// ---------------------------------------------------------------------------

/// Flit kinds in their stable wire order.
const FLIT_KINDS: [FlitKind; 4] =
    [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::HeadTail];

snap_enum!(
    CoreType => CoreType::ALL,
    PacketKind => PacketKind::ALL,
    TrafficClass => TrafficClass::ALL,
    FlitKind => FLIT_KINDS,
    WavelengthState => WavelengthState::ALL,
    FaultEventKind => FaultEventKind::ALL,
);

snap_struct!(Packet [id, src, dst, core, kind, class, injected_at]);

snap_struct!(Flit [packet_id, kind, index, packet]);

snap_struct!(BufferState {
    packets => "packets",
    accumulated_slot_cycles => "slot_cycles",
    accumulated_cycles => "cycles",
    rejections => "rejections",
});

snap_struct!(VcState {
    flits => "flits",
    inflow => "inflow",
    route => "route",
});

snap_struct!(StatsState {
    cycles => "cycles",
    injected_packets => "injected",
    delivered_packets => "delivered",
    delivered_flits => "flits",
    delivered_bits => "bits",
    injection_stalls => "stalls",
    corrupted_packets => "corrupted",
    retransmitted_packets => "retransmitted",
    retransmit_backoff_cycles => "backoff_cycles",
    latency => "latency",
    hist_buckets => "hist_buckets",
    hist_count => "hist_count",
    laser_energy_j => "laser_j",
    heating_energy_j => "heating_j",
    modulation_energy_j => "modulation_j",
    electrical_energy_j => "electrical_j",
});

snap_struct!(LaserState {
    powered => "powered",
    usable => "usable",
    stabilize_until => "stabilize_until",
    transitions => "transitions",
    residency => "residency",
    stall_cycles => "stall_cycles",
    transition_log => "log",
});

snap_struct!(FaultStats [
    lambda_failures,
    lambda_repairs,
    laser_degradations,
    laser_recoveries,
    corrupted_packets,
]);

snap_struct!(FaultModelState {
    routers => "routers",
    structural_rng as RngState => "structural_rng",
    corruption_rng as RngState => "corruption_rng",
    stats => "stats",
    log_events => "log_events",
    event_log => "event_log",
});

/// An RNG stream position, flattened to `[w0, w1, w2, w3, draws]`.
impl Snap for RngState {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        let [w0, w1, w2, w3] = self.words;
        [w0, w1, w2, w3, self.draws].encode()
    }

    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let [w0, w1, w2, w3, draws] = <[u64; 5]>::decode(v, context)?;
        Ok(RngState { words: [w0, w1, w2, w3], draws })
    }
}

snap_struct!(InjectorState [bursting, remaining, rng]);

/// A traffic source's state, tagged by `kind`.
impl Snap for TrafficState {
    fn encode(&self) -> Result<JsonValue, SnapshotError> {
        Ok(match self {
            TrafficState::Model { cpu, gpu } => JsonValue::obj(vec![
                ("kind", JsonValue::str("model")),
                ("cpu", cpu.encode()?),
                ("gpu", gpu.encode()?),
            ]),
            TrafficState::Synthetic { rng } => {
                JsonValue::obj(vec![("kind", JsonValue::str("synthetic")), ("rng", rng.encode()?)])
            }
        })
    }

    fn decode(v: &JsonValue, _context: &'static str) -> Result<Self, SnapshotError> {
        match field(v, "kind")?.as_str() {
            Some("model") => Ok(TrafficState::Model {
                cpu: decode_field(v, "cpu")?,
                gpu: decode_field(v, "gpu")?,
            }),
            Some("synthetic") => Ok(TrafficState::Synthetic { rng: decode_field(v, "rng")? }),
            _ => Err(bad_shape("traffic.kind")),
        }
    }
}

// ---------------------------------------------------------------------------
// The checkpoint envelope
// ---------------------------------------------------------------------------

/// An envelope counter through the decimal rule, which cannot fail.
fn decimal(v: u64) -> JsonValue {
    v.encode().expect("a u64 always encodes")
}

/// A versioned, fingerprinted, hash-sealed simulation checkpoint.
///
/// The `state` payload is produced by the network's own snapshot codec
/// (`pearl-core` / `pearl-cmesh`); this envelope owns everything needed
/// to refuse a wrong or corrupt restore *before* any state is touched.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulator kind (`"pearl"` or `"cmesh"`).
    pub kind: String,
    /// FNV-1a fingerprint of the producing run's static configuration.
    pub config_fingerprint: u64,
    /// Simulated cycle at which the snapshot was taken.
    pub cycle: u64,
    /// The serialized dynamic state.
    pub state: JsonValue,
}

impl Checkpoint {
    /// Wraps a serialized state payload in an envelope.
    pub fn new(
        kind: impl Into<String>,
        config_fingerprint: u64,
        cycle: u64,
        state: JsonValue,
    ) -> Checkpoint {
        Checkpoint { kind: kind.into(), config_fingerprint, cycle, state }
    }

    /// FNV-1a hash of the canonical serialized state — the cheap
    /// divergence detector the chaos harness compares across runs.
    pub fn state_hash(&self) -> u64 {
        fingerprint(&self.state.to_string())
    }

    /// Renders the envelope (version + seal) and payload as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("version", JsonValue::u64(SNAPSHOT_VERSION)),
            ("kind", JsonValue::str(self.kind.clone())),
            ("config_fingerprint", decimal(self.config_fingerprint)),
            ("cycle", decimal(self.cycle)),
            ("state_hash", decimal(self.state_hash())),
            ("state", self.state.clone()),
        ])
    }

    /// Parses and verifies an envelope: the version must match
    /// [`SNAPSHOT_VERSION`] and the recomputed state hash must match the
    /// recorded seal.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`], [`SnapshotError::HashMismatch`]
    /// or [`SnapshotError::BadShape`].
    pub fn from_json(v: &JsonValue) -> Result<Checkpoint, SnapshotError> {
        let version =
            field(v, "version")?.as_u64().ok_or(SnapshotError::BadShape { context: "version" })?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let checkpoint = Checkpoint {
            kind: field(v, "kind")?
                .as_str()
                .ok_or(SnapshotError::BadShape { context: "kind" })?
                .to_string(),
            config_fingerprint: decode_field(v, "config_fingerprint")?,
            cycle: decode_field(v, "cycle")?,
            state: field(v, "state")?.clone(),
        };
        let sealed: u64 = decode_field(v, "state_hash")?;
        let actual = checkpoint.state_hash();
        if sealed != actual {
            return Err(SnapshotError::HashMismatch { found: actual, expected: sealed });
        }
        Ok(checkpoint)
    }

    /// Verifies the envelope against the restoring network's identity.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] or
    /// [`SnapshotError::FingerprintMismatch`].
    pub fn validate(&self, kind: &str, config_fingerprint: u64) -> Result<(), SnapshotError> {
        if self.kind != kind {
            return Err(SnapshotError::KindMismatch {
                found: self.kind.clone(),
                expected: kind.to_string(),
            });
        }
        if self.config_fingerprint != config_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                found: self.config_fingerprint,
                expected: config_fingerprint,
            });
        }
        Ok(())
    }

    /// Writes the checkpoint atomically (tmp-then-rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.write_file_with(&OsStorage, path)
    }

    /// [`Self::write_file`] through an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn write_file_with(
        &self,
        storage: &dyn Storage,
        path: impl AsRef<Path>,
    ) -> std::io::Result<()> {
        storage.write_atomic(path.as_ref(), &format!("{}\n", self.to_json()))
    }

    /// Reads and verifies a checkpoint written by [`Self::write_file`].
    ///
    /// # Errors
    ///
    /// Filesystem, JSON, version, hash or shape failures as
    /// [`SnapshotError`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Checkpoint, SnapshotError> {
        Checkpoint::read_file_with(&OsStorage, path)
    }

    /// [`Self::read_file`] through an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// Filesystem, JSON, version, hash or shape failures as
    /// [`SnapshotError`].
    pub fn read_file_with(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
    ) -> Result<Checkpoint, SnapshotError> {
        let text = storage.read(path.as_ref())?;
        Checkpoint::from_json(&JsonValue::parse(text.trim())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> Packet {
        Packet::response(
            u64::MAX - 1,
            NodeId(3),
            NodeId(16),
            CoreType::Gpu,
            TrafficClass::GpuL2Down,
            Cycle(987_654_321),
        )
    }

    #[test]
    fn scalar_codecs_are_bit_exact_at_extremes() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            assert_eq!(u64::decode(&v.encode().unwrap(), "t").unwrap(), v);
        }
        for v in [0u128, u128::from(u64::MAX) * 3, u128::MAX] {
            assert_eq!(u128::decode(&v.encode().unwrap(), "t").unwrap(), v);
        }
        for v in [0.0f64, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY, -1e308] {
            let back = f64::decode(&v.encode().unwrap(), "t").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN payload survives (plain equality would fail here).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::decode(&nan.encode().unwrap(), "t").unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn packet_and_flit_round_trip() {
        let p = sample_packet();
        assert_eq!(Packet::decode(&p.encode().unwrap(), "packet").unwrap(), p);
        for f in Flit::decompose(&p) {
            assert_eq!(Flit::decode(&f.encode().unwrap(), "flit").unwrap(), f);
        }
    }

    #[test]
    fn envelope_round_trips_and_reseals() {
        let cp = Checkpoint::new(
            "pearl",
            0xDEAD_BEEF_1234_5678,
            42_000,
            sample_packet().encode().unwrap(),
        );
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.state_hash(), cp.state_hash());
        cp.validate("pearl", 0xDEAD_BEEF_1234_5678).unwrap();
    }

    #[test]
    fn envelope_rejects_wrong_version() {
        let mut json = Checkpoint::new("pearl", 1, 0, JsonValue::Null).to_json();
        if let JsonValue::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = JsonValue::u64(SNAPSHOT_VERSION + 1);
                }
            }
        }
        assert!(matches!(Checkpoint::from_json(&json), Err(SnapshotError::VersionMismatch { .. })));
    }

    #[test]
    fn envelope_rejects_tampered_state() {
        let mut json =
            Checkpoint::new("pearl", 1, 0, JsonValue::obj(vec![("x", JsonValue::u64(1))]))
                .to_json();
        if let JsonValue::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "state" {
                    *v = JsonValue::obj(vec![("x", JsonValue::u64(2))]);
                }
            }
        }
        assert!(matches!(Checkpoint::from_json(&json), Err(SnapshotError::HashMismatch { .. })));
    }

    #[test]
    fn validate_rejects_kind_and_fingerprint_mismatch() {
        let cp = Checkpoint::new("pearl", 7, 0, JsonValue::Null);
        assert!(matches!(cp.validate("cmesh", 7), Err(SnapshotError::KindMismatch { .. })));
        assert!(matches!(cp.validate("pearl", 8), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    #[test]
    fn checkpoint_file_round_trip_is_atomic_and_verified() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-snapshot");
        let path = dir.join("run.checkpoint.json");
        let cp = Checkpoint::new("cmesh", u64::MAX, 12_345, sample_packet().encode().unwrap());
        cp.write_file(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), cp);
        // No temporary residue left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        // Corrupt the file on disk: the hash seal catches it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("987654321", "987654322");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(Checkpoint::read_file(&path), Err(SnapshotError::HashMismatch { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-atomic");
        let path = dir.join("artifact.json");
        atomic_write_file(&path, "first").unwrap();
        atomic_write_file(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_state_round_trips_with_u128_sum() {
        let mut stats = pearl_noc::NetworkStats::new();
        stats.tick();
        stats.record_injection(&sample_packet());
        stats.record_delivery(&sample_packet(), Cycle(987_654_400));
        stats.laser_energy_j = 1.0 / 3.0;
        let mut exported = stats.export_state();
        exported.latency[1].1 = u128::from(u64::MAX) + 17; // force past u64
        let back = StatsState::decode(&exported.encode().unwrap(), "stats").unwrap();
        assert_eq!(back, exported);
    }

    #[test]
    fn traffic_state_round_trips_both_kinds() {
        let model = TrafficState::Model {
            cpu: vec![InjectorState {
                bursting: true,
                remaining: u64::MAX,
                rng: RngState { words: [1, 2, 3, u64::MAX], draws: 99 },
            }],
            gpu: vec![InjectorState {
                bursting: false,
                remaining: 0,
                rng: RngState { words: [0; 4], draws: 0 },
            }],
        };
        assert_eq!(TrafficState::decode(&model.encode().unwrap(), "traffic").unwrap(), model);
        let synth = TrafficState::Synthetic { rng: RngState { words: [9; 4], draws: 3 } };
        assert_eq!(TrafficState::decode(&synth.encode().unwrap(), "traffic").unwrap(), synth);
    }

    #[test]
    fn fault_state_round_trips() {
        let state = FaultModelState {
            routers: vec![(0, WavelengthState::W64), (56, WavelengthState::W8)],
            structural_rng: ([u64::MAX, 1, 2, 3], 1_000_000),
            corruption_rng: ([4, 5, 6, 7], 42),
            stats: FaultStats {
                lambda_failures: 10,
                lambda_repairs: 4,
                laser_degradations: 2,
                laser_recoveries: 1,
                corrupted_packets: 7,
            },
            log_events: true,
            event_log: vec![(0, FaultEventKind::LambdaFail), (1, FaultEventKind::LaserRecover)],
        };
        assert_eq!(FaultModelState::decode(&state.encode().unwrap(), "fault").unwrap(), state);
    }

    /// Regression: failed-lane counts read from a checkpoint used to be
    /// narrowed with `as u32`, so 2³² + k silently became k.
    #[test]
    fn out_of_range_u32_is_rejected_not_truncated() {
        let big = JsonValue::u64((1u64 << 32) + 5);
        assert!(matches!(u32::decode(&big, "t"), Err(SnapshotError::BadShape { context: "t" })));
        let state = FaultModelState {
            routers: vec![(3, WavelengthState::W64)],
            structural_rng: ([1, 2, 3, 4], 5),
            corruption_rng: ([6, 7, 8, 9], 10),
            stats: FaultStats::default(),
            log_events: false,
            event_log: vec![],
        };
        let mut json = state.encode().unwrap();
        let JsonValue::Obj(pairs) = &mut json else { panic!("fault state is an object") };
        let (_, routers) = pairs.iter_mut().find(|(k, _)| k == "routers").unwrap();
        *routers = JsonValue::Arr(vec![JsonValue::Arr(vec![big, JsonValue::u64(4)])]);
        assert!(matches!(
            FaultModelState::decode(&json, "fault"),
            Err(SnapshotError::BadShape { context: "routers" })
        ));
    }

    #[test]
    fn laser_state_round_trips() {
        let state = LaserState {
            powered: WavelengthState::W64,
            usable: WavelengthState::W16,
            stabilize_until: Some(u64::MAX - 3),
            transitions: 77,
            residency: [1, 2, 3, 4, u64::MAX],
            stall_cycles: 12,
            transition_log: vec![(5, WavelengthState::W32), (9, WavelengthState::W64)],
        };
        assert_eq!(LaserState::decode(&state.encode().unwrap(), "laser").unwrap(), state);
    }

    #[test]
    fn buffer_and_vc_states_round_trip() {
        let buffer = BufferState {
            packets: vec![sample_packet()],
            accumulated_slot_cycles: u64::MAX,
            accumulated_cycles: 4,
            rejections: 2,
        };
        assert_eq!(BufferState::decode(&buffer.encode().unwrap(), "buffer").unwrap(), buffer);
        let vc = VcState {
            flits: Flit::decompose(&sample_packet()),
            inflow: Some(u64::MAX - 1),
            route: Some(3),
        };
        assert_eq!(VcState::decode(&vc.encode().unwrap(), "vc").unwrap(), vc);
        let empty = VcState { flits: vec![], inflow: None, route: None };
        assert_eq!(VcState::decode(&empty.encode().unwrap(), "vc").unwrap(), empty);
    }
}
