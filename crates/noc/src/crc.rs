//! CRC-32 integrity checking for packet wire images.
//!
//! The photonic fault layer can corrupt flits in flight; receivers
//! detect this by checking a CRC-32 of the packet's wire image computed
//! at the transmitter against one recomputed at the photodetector. A
//! mismatch triggers the NACK/retransmission path in `pearl-core`.
//!
//! The polynomial is the IEEE 802.3 reflected CRC-32 (0xEDB88320).
//! [`crc32`] runs a byte at a time from a 256-entry table; every packet
//! is checksummed twice (at launch and at landing), so
//! [`packet_checksum`] feeds its 64-bit fields eight bytes at a time
//! through eight sliced tables (8 KiB, built at compile time) and
//! never builds the byte image.

use crate::packet::Packet;

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time CRC table: entry `n` is the CRC register after
/// shifting the byte `n` through eight bit steps.
const fn byte_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
}

/// Slicing-by-8 tables: `tables[0]` is the byte table, and entry `n`
/// of `tables[k]` is the register after `n` is followed by `k` zero
/// bytes, so eight lookups advance the register over eight bytes.
const fn sliced_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = byte_table();
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = sliced_tables();

/// Shifts one byte through the register.
#[inline]
fn update_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// Shifts the eight little-endian bytes of `word` through the register.
#[inline]
fn update_word(crc: u32, word: u64) -> u32 {
    let low = crc ^ word as u32;
    let high = (word >> 32) as u32;
    let t = |k: usize, v: u32, shift: u32| TABLES[k][((v >> shift) & 0xFF) as usize];
    t(7, low, 0)
        ^ t(6, low, 8)
        ^ t(5, low, 16)
        ^ t(4, low, 24)
        ^ t(3, high, 0)
        ^ t(2, high, 8)
        ^ t(1, high, 16)
        ^ t(0, high, 24)
}

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| update_byte(crc, b))
}

/// CRC-32 of a packet's wire image: every routed field, serialized in a
/// fixed order (id, source and destination as little-endian `u64`s,
/// then one byte each of core type, kind and class, then the injection
/// cycle as a little-endian `u64` — 35 bytes). Two packets differing in
/// any field checksum differently (up to CRC collisions); a corrupted
/// wire image fails verification.
pub fn packet_checksum(packet: &Packet) -> u32 {
    let mut crc = !0u32;
    crc = update_word(crc, packet.id);
    crc = update_word(crc, packet.src.index() as u64);
    crc = update_word(crc, packet.dst.index() as u64);
    crc = update_byte(crc, packet.core as u8);
    crc = update_byte(crc, packet.kind as u8);
    crc = update_byte(crc, packet.class.index() as u8);
    crc = update_word(crc, packet.injected_at.as_u64());
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Cycle;
    use crate::packet::{CoreType, PacketKind, TrafficClass};
    use crate::rng::SimRng;
    use crate::topology::NodeId;

    /// The bit-serial definition of the reflected CRC-32: the oracle
    /// the table-driven [`crc32`] must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn table_crc_matches_the_bit_serial_definition() {
        let mut rng = SimRng::from_seed(0xC3C3);
        for len in 0..=64 {
            for _ in 0..8 {
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "{bytes:02x?}");
            }
        }
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// The 35-byte wire image [`packet_checksum`] is defined over.
    fn wire_image(packet: &Packet) -> [u8; 35] {
        let mut bytes = [0u8; 35];
        bytes[0..8].copy_from_slice(&packet.id.to_le_bytes());
        bytes[8..16].copy_from_slice(&(packet.src.index() as u64).to_le_bytes());
        bytes[16..24].copy_from_slice(&(packet.dst.index() as u64).to_le_bytes());
        bytes[24] = packet.core as u8;
        bytes[25] = packet.kind as u8;
        bytes[26] = packet.class.index() as u8;
        bytes[27..35].copy_from_slice(&packet.injected_at.as_u64().to_le_bytes());
        bytes
    }

    #[test]
    fn sliced_packet_checksum_matches_the_crc_of_the_wire_image() {
        let mut rng = SimRng::from_seed(0x51CE);
        let edges = [0, 1, 0xFF, 0x1_0000_0000, u64::MAX - 1, u64::MAX];
        for n in 0..4_000 {
            // Every fourth packet takes its id and cycle from the edges.
            let pick = |rng: &mut SimRng| {
                if n % 4 == 0 {
                    edges[rng.below(edges.len())]
                } else {
                    rng.next_u64()
                }
            };
            let packet = Packet {
                id: pick(&mut rng),
                src: NodeId(rng.below(64)),
                dst: NodeId(if n % 8 == 0 { usize::MAX } else { rng.below(64) }),
                core: *rng.choose(&CoreType::ALL),
                kind: *rng.choose(&PacketKind::ALL),
                class: *rng.choose(&TrafficClass::ALL),
                injected_at: Cycle(pick(&mut rng)),
            };
            assert_eq!(packet_checksum(&packet), crc32(&wire_image(&packet)), "{packet:?}");
        }
    }

    #[test]
    fn packet_checksum_distinguishes_fields() {
        let base = Packet::request(
            1,
            NodeId(0),
            NodeId(16),
            CoreType::Cpu,
            TrafficClass::CpuL1Data,
            Cycle(10),
        );
        let crc = packet_checksum(&base);
        // Same packet, same checksum.
        assert_eq!(packet_checksum(&base.clone()), crc);
        // Each varied field changes the checksum.
        let mut other = base.clone();
        other.id = 2;
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base.clone();
        other.dst = NodeId(3);
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base.clone();
        other.core = CoreType::Gpu;
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base;
        other.injected_at = Cycle(11);
        assert_ne!(packet_checksum(&other), crc);
    }

    #[test]
    fn corrupted_wire_image_fails_verification() {
        let p =
            Packet::response(9, NodeId(16), NodeId(2), CoreType::Gpu, TrafficClass::L3, Cycle(0));
        let sent = packet_checksum(&p);
        // A single flipped bit anywhere in the stored CRC is detected.
        for bit in 0..32 {
            assert_ne!(sent ^ (1 << bit), packet_checksum(&p));
        }
    }
}
