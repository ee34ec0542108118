//! **FIB pricing**: the byte cost of a node's forwarding table, flat
//! versus hash-map.
//!
//! The compiled data plane (`disco_core::forward::ForwardingTable`) holds
//! one destination in eight bytes across two parallel arrays — a `u32`
//! key and a `u32` next hop — plus twelve bytes
//! per landmark for the ring used by the owner-fallback. The obvious
//! alternative, a per-node `FxHashMap<NodeId, FibEntry>` FIB, pays
//! SwissTable geometry on 8-byte keys and padded values. This module
//! prices both on the *same* live contents so `exp_forward` (and any
//! future memory sweep) can report the reduction from a single run,
//! mirroring how [`crate::control`] prices the pre-view control layouts.

use crate::control::swiss_table_bytes;

/// Bytes per destination in the flat compiled table: `u32` key + `u32`
/// next hop, split across sorted parallel arrays (no padding — the
/// arrays are independently allocated).
pub const FLAT_ENTRY_BYTES: usize = 8;

/// Bytes per landmark in the flat table's owner ring: a `u64` ring
/// position + `u32` landmark id.
pub const FLAT_RING_BYTES: usize = 12;

/// Bytes per entry a hash-map FIB would pay *inside each bucket*: an
/// 8-byte `NodeId` key and an 8-byte `NodeId` next hop — before
/// SwissTable bucket geometry.
pub const HASH_FIB_PAYLOAD: usize = 8 + 8;

/// Flat compiled-table bytes for `entries` destinations and a `ring` of
/// landmarks — the published footprint `ForwardingTable::approx_bytes`
/// reports.
pub fn flat_table_bytes(entries: usize, ring: usize) -> usize {
    entries * FLAT_ENTRY_BYTES + ring * FLAT_RING_BYTES
}

/// What a `FxHashMap<NodeId, FibEntry>` FIB would pay for the same
/// `entries` destinations (the ring would ride along as a sorted `Vec`
/// either way, so it is priced identically).
pub fn hash_fib_bytes(entries: usize, ring: usize) -> usize {
    swiss_table_bytes(entries, HASH_FIB_PAYLOAD) + ring * FLAT_RING_BYTES
}

/// Both prices for one table population, plus the headline ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FibComparison {
    /// Destinations resident in the table.
    pub entries: usize,
    /// Landmarks in the owner ring.
    pub ring: usize,
    /// Flat compiled-table bytes.
    pub flat_bytes: usize,
    /// Hash-map FIB bytes for the same contents.
    pub hash_bytes: usize,
}

impl FibComparison {
    /// Price one table population under both layouts.
    pub fn price(entries: usize, ring: usize) -> Self {
        FibComparison {
            entries,
            ring,
            flat_bytes: flat_table_bytes(entries, ring),
            hash_bytes: hash_fib_bytes(entries, ring),
        }
    }

    /// Hash-map bytes per flat byte (> 1 means the flat layout wins).
    pub fn reduction(&self) -> f64 {
        self.hash_bytes as f64 / (self.flat_bytes as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat layout beats SwissTable geometry by at least 2x on any
    /// realistically sized table, and the model degenerates gracefully.
    #[test]
    fn flat_wins_by_construction() {
        assert_eq!(flat_table_bytes(0, 0), 0);
        assert_eq!(hash_fib_bytes(0, 0), 0);
        let c = FibComparison::price(300, 58);
        assert_eq!(c.flat_bytes, 300 * 8 + 58 * 12);
        assert!(
            c.reduction() > 2.0,
            "hash {} vs flat {}",
            c.hash_bytes,
            c.flat_bytes
        );
        // The ring is priced identically on both sides.
        let no_ring = FibComparison::price(300, 0);
        assert_eq!(c.hash_bytes - no_ring.hash_bytes, 58 * 12);
    }
}
