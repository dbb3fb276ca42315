//! Bounded packet buffers with slot-occupancy accounting.
//!
//! PEARL's dynamic bandwidth allocator (Algorithm 1) is driven entirely by
//! *buffer occupancy*: the β values of Eq. 1–3 are the fraction of buffer
//! slots currently holding flits. A [`PacketBuffer`] therefore tracks its
//! occupancy in 128-bit flit slots, not packets — a four-flit response
//! occupies four slots.

use crate::packet::Packet;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error returned when pushing into a full [`PacketBuffer`].
///
/// Carries the rejected packet back to the caller so injection sources can
/// retry on a later cycle (modeling source throttling / back-pressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferFullError(pub Packet);

impl fmt::Display for BufferFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buffer full, rejected {}", self.0)
    }
}

impl Error for BufferFullError {}

/// Dynamic state of a [`PacketBuffer`], for checkpointing.
///
/// The capacity is static configuration and is not part of the snapshot;
/// occupied slots are recomputed from the queued packets on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferState {
    /// Queued packets, head first.
    pub packets: Vec<Packet>,
    /// Cumulative slot·cycles of the open occupancy window.
    pub accumulated_slot_cycles: u64,
    /// Cycles accumulated into the open occupancy window.
    pub accumulated_cycles: u64,
    /// Rejected pushes so far.
    pub rejections: u64,
}

/// A bounded FIFO of packets whose capacity is measured in flit slots.
///
/// # Example
///
/// ```
/// use pearl_noc::{Packet, PacketBuffer, CoreType, TrafficClass, NodeId, Cycle};
///
/// let mut buf = PacketBuffer::new(4);
/// let rsp = Packet::response(0, NodeId(1), NodeId(0), CoreType::Gpu,
///                            TrafficClass::GpuL2Up, Cycle(0));
/// buf.push(rsp).unwrap(); // 4 flits exactly fill the buffer
/// assert!(buf.is_full_for(1));
/// assert!((buf.occupancy() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketBuffer {
    queue: VecDeque<Packet>,
    capacity_slots: u32,
    occupied_slots: u32,
    /// Cumulative slot·cycles, for time-averaged occupancy (Algorithm 1
    /// step 7 sums occupancy across a reservation window).
    accumulated_slot_cycles: u64,
    /// Number of cycles accumulated into `accumulated_slot_cycles`.
    accumulated_cycles: u64,
    /// Count of rejected pushes (back-pressure events).
    rejections: u64,
}

impl PacketBuffer {
    /// Creates a buffer with the given capacity in flit slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_slots` is zero.
    pub fn new(capacity_slots: u32) -> PacketBuffer {
        assert!(capacity_slots > 0, "buffer capacity must be non-zero");
        PacketBuffer {
            queue: VecDeque::new(),
            capacity_slots,
            occupied_slots: 0,
            accumulated_slot_cycles: 0,
            accumulated_cycles: 0,
            rejections: 0,
        }
    }

    /// Capacity in flit slots (`Bufmax` in the paper's Eq. 1–2).
    #[inline]
    pub fn capacity_slots(&self) -> u32 {
        self.capacity_slots
    }

    /// Currently occupied flit slots (`Σ Buf_i × a_i`).
    #[inline]
    pub fn occupied_slots(&self) -> u32 {
        self.occupied_slots
    }

    /// Free flit slots.
    #[inline]
    pub fn free_slots(&self) -> u32 {
        self.capacity_slots - self.occupied_slots
    }

    /// Number of whole packets queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when a packet of `flits` length would not fit.
    #[inline]
    pub fn is_full_for(&self, flits: u32) -> bool {
        self.free_slots() < flits
    }

    /// Fractional occupancy in `[0, 1]` — the β of Eq. 1–2.
    #[inline]
    pub fn occupancy(&self) -> f64 {
        f64::from(self.occupied_slots) / f64::from(self.capacity_slots)
    }

    /// Number of times a push was rejected for lack of space.
    #[inline]
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Appends a packet at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFullError`] (carrying the packet back) when fewer
    /// than `packet.flits()` slots are free; the rejection is counted.
    pub fn push(&mut self, packet: Packet) -> Result<(), BufferFullError> {
        let flits = packet.flits();
        if self.is_full_for(flits) {
            self.rejections += 1;
            return Err(BufferFullError(packet));
        }
        self.occupied_slots += flits;
        if self.queue.len() == self.queue.capacity() {
            // Every packet takes at least one slot, so growing straight
            // to the capacity is the buffer's last reallocation.
            let bound = self.capacity_slots as usize;
            self.queue.reserve_exact(bound.saturating_sub(self.queue.len()));
        }
        self.queue.push_back(packet);
        Ok(())
    }

    /// Removes and returns the packet at the head.
    pub fn pop(&mut self) -> Option<Packet> {
        let packet = self.queue.pop_front()?;
        self.occupied_slots -= packet.flits();
        Some(packet)
    }

    /// Peeks at the head packet without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Iterates over queued packets from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter()
    }

    /// Records this cycle's occupancy into the running window average.
    ///
    /// Call exactly once per simulated cycle; [`Self::drain_window_occupancy`]
    /// reads and resets the accumulator at reservation-window boundaries.
    #[inline]
    pub fn tick(&mut self) {
        self.accumulated_slot_cycles += u64::from(self.occupied_slots);
        self.accumulated_cycles += 1;
    }

    /// Returns the time-averaged fractional occupancy since the last call
    /// and resets the accumulator (Algorithm 1 step 7's per-window β sum).
    pub fn drain_window_occupancy(&mut self) -> f64 {
        let avg = if self.accumulated_cycles == 0 {
            0.0
        } else {
            self.accumulated_slot_cycles as f64
                / (self.accumulated_cycles as f64 * f64::from(self.capacity_slots))
        };
        self.accumulated_slot_cycles = 0;
        self.accumulated_cycles = 0;
        avg
    }

    /// Captures the dynamic state for a checkpoint.
    pub fn export_state(&self) -> BufferState {
        BufferState {
            packets: self.queue.iter().cloned().collect(),
            accumulated_slot_cycles: self.accumulated_slot_cycles,
            accumulated_cycles: self.accumulated_cycles,
            rejections: self.rejections,
        }
    }

    /// Restores state captured by [`Self::export_state`] onto a buffer of
    /// the same capacity.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's packets do not fit this buffer's capacity
    /// — that indicates the snapshot came from a different configuration.
    pub fn import_state(&mut self, state: &BufferState) {
        let occupied: u32 = state.packets.iter().map(Packet::flits).sum();
        assert!(
            occupied <= self.capacity_slots,
            "snapshot occupies {occupied} slots but buffer holds {}",
            self.capacity_slots
        );
        self.queue = state.packets.iter().cloned().collect();
        self.occupied_slots = occupied;
        self.accumulated_slot_cycles = state.accumulated_slot_cycles;
        self.accumulated_cycles = state.accumulated_cycles;
        self.rejections = state.rejections;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CoreType, TrafficClass};
    use crate::topology::NodeId;
    use crate::Cycle;

    fn req(id: u64) -> Packet {
        Packet::request(id, NodeId(0), NodeId(1), CoreType::Cpu, TrafficClass::CpuL1Data, Cycle(0))
    }

    fn rsp(id: u64) -> Packet {
        Packet::response(id, NodeId(1), NodeId(0), CoreType::Gpu, TrafficClass::GpuL1, Cycle(0))
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = PacketBuffer::new(8);
        for id in 0..4 {
            b.push(req(id)).unwrap();
        }
        for id in 0..4 {
            assert_eq!(b.pop().unwrap().id, id);
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn occupancy_counts_flits_not_packets() {
        let mut b = PacketBuffer::new(8);
        b.push(rsp(0)).unwrap(); // 4 flits
        b.push(req(1)).unwrap(); // 1 flit
        assert_eq!(b.len(), 2);
        assert_eq!(b.occupied_slots(), 5);
        assert!((b.occupancy() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn push_to_full_buffer_returns_packet_and_counts_rejection() {
        let mut b = PacketBuffer::new(4);
        b.push(rsp(0)).unwrap();
        let err = b.push(req(1)).unwrap_err();
        assert_eq!(err.0.id, 1);
        assert_eq!(b.rejections(), 1);
        // Buffer state unchanged by the failed push.
        assert_eq!(b.occupied_slots(), 4);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn pop_releases_slots() {
        let mut b = PacketBuffer::new(4);
        b.push(rsp(0)).unwrap();
        assert!(b.is_full_for(1));
        b.pop();
        assert_eq!(b.occupied_slots(), 0);
        assert!(!b.is_full_for(4));
    }

    #[test]
    fn window_average_occupancy() {
        let mut b = PacketBuffer::new(4);
        // Two cycles empty, then two cycles with a 4-flit response: average
        // = (0 + 0 + 4 + 4) / (4 cycles × 4 slots) = 0.5.
        b.tick();
        b.tick();
        b.push(rsp(0)).unwrap();
        b.tick();
        b.tick();
        assert!((b.drain_window_occupancy() - 0.5).abs() < 1e-12);
        // Accumulator reset: next window starts from scratch.
        b.tick();
        assert!((b.drain_window_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drain_without_ticks_is_zero() {
        let mut b = PacketBuffer::new(4);
        assert_eq!(b.drain_window_occupancy(), 0.0);
    }

    #[test]
    fn peek_and_iter_do_not_consume() {
        let mut b = PacketBuffer::new(8);
        b.push(req(0)).unwrap();
        b.push(req(1)).unwrap();
        assert_eq!(b.peek().unwrap().id, 0);
        assert_eq!(b.iter().count(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = PacketBuffer::new(0);
    }
}
