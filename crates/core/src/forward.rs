//! The data plane: per-node forwarding tables compiled from the RIB's
//! selection column, double-buffered behind an epoch stamp.
//!
//! The control plane ([`crate::path_vector`], [`crate::protocol`]) converges
//! routes; this module *serves* them. A [`ForwardingTable`] is the selection
//! column of one node's [`crate::rib::RibStore`] frozen into flat sorted
//! arrays in the shape of ariadne's `FlatRoute` range table: one sorted
//! `u32` destination-key array probed by a branchless binary search, a
//! parallel dense next-hop array, the landmark ring (sorted hash positions,
//! so the paper's name→owner resolution is one more binary search instead
//! of a landmark-set scan), and a landmark-fallback entry (the next hop
//! toward this node's closest landmark — where a packet goes when the
//! destination is neither table-resident nor resolved yet). A table hit
//! anywhere along a route is exactly the paper's `ToDestination` shortcut
//! (the first node that holds the destination in its vicinity routes
//! directly).
//!
//! A compile is one linear pass over the selection column: rows come out
//! in destination order through an id-sorted permutation of the RIB's
//! destination interner ([`crate::rib::DestOrder`]), which each buffer
//! caches, extends when the interner grows and rebuilds only after it
//! compacts. The landmark ring and fallback are rebuilt only when the
//! landmark entries changed since the buffer's last compile. Both caches
//! are keyed by a [`Stamp`], so a stale buffer can never pass for a
//! current one.
//!
//! Lookups must keep running while churn repairs mutate the RIB, so tables
//! are published, not shared: a [`TablePublisher`] owns two buffers and
//! swaps them atomically (from the simulation's point of view — one `swap`
//! between events) on publish, stamping a monotone `epoch` and the
//! control plane's `revision` ([`crate::protocol::DiscoProtocol`]'s
//! `control_revision`, i.e. the path-vector selection revision). Republish
//! is therefore driven by *actual selection changes* and debounced in
//! simulation time; between publishes the data plane forwards over the last
//! epoch and any hop that churn has since removed shows up as a packet
//! *lost to a stale epoch* — the served-traffic cost of convergence lag
//! that `exp_forward` measures.

use crate::hash::NameHash;
use crate::rib::DestOrder;
use disco_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// `sel_nbr`-style sentinel for "no fallback hop".
const NO_HOP: u32 = u32::MAX;

/// A compile input's change stamp: `(source identity, revision)`. Equal
/// stamps mean the same state of the same source instance.
pub type Stamp = (u64, u64);

/// Identity of one mutable compile source (a RIB, a landmark table),
/// paired with that source's revision counter to form a [`Stamp`].
///
/// Fresh on construction *and on clone*: a rejoining node gets a new
/// protocol instance whose counters restart, and a clone diverges from
/// its original, so the counters alone could name two different states.
#[derive(Debug, PartialEq, Eq)]
pub struct SourceId(u64);

impl SourceId {
    /// The identity value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl Default for SourceId {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        SourceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for SourceId {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A node's compiled data plane: flat sorted arrays, immutable between
/// publishes. Plain `u32`/`u64` vectors, so the table is `Send` and a
/// sharded run can compile on the owner shard and ship it to the
/// coordinator (unlike the RIB, whose interned paths are thread-local).
#[derive(Debug, Clone, Default)]
pub struct ForwardingTable {
    /// Node this table was compiled on.
    node: u32,
    /// Publisher's monotone swap counter (0 = never published).
    epoch: u64,
    /// Control-plane revision the compile saw
    /// (`DiscoProtocol::control_revision`).
    revision: u64,
    /// Sorted destination node ids.
    keys: Vec<u32>,
    /// Next hop per key (parallel to `keys`).
    hops: Vec<u32>,
    /// Landmark ring positions (`NameHasher::hash_u64(lm)`), sorted.
    lm_pos: Vec<u64>,
    /// Landmark id per ring position (parallel to `lm_pos`).
    lm_id: Vec<u32>,
    /// Landmark-fallback entry: this node's closest landmark and the next
    /// hop toward it (`NO_HOP` = none learned / node is the landmark).
    fallback_lm: u32,
    fallback_hop: u32,
    /// Stamp of the landmark state the ring and fallback were built from
    /// (`None` = never built).
    landmarks_stamp: Option<Stamp>,
    /// Compile cache: the source RIB's destination indexes in destination
    /// order, kept across epochs so a republish neither sorts nor
    /// allocates in steady state.
    order: DestOrder,
}

impl ForwardingTable {
    /// An empty, never-published table for `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node: node.0 as u32,
            fallback_lm: NO_HOP,
            fallback_hop: NO_HOP,
            ..Self::default()
        }
    }

    /// Node this table belongs to.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }

    /// Publisher swap counter (0 = never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Control-plane revision this table was compiled at.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether the control plane has moved since this table was compiled —
    /// lookups still answer (over the old epoch) but may name hops the RIB
    /// no longer selects.
    pub fn is_stale(&self, current_revision: u64) -> bool {
        self.revision != current_revision
    }

    /// Table-resident destinations.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no destinations.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Landmarks on the embedded resolution ring.
    pub fn ring_len(&self) -> usize {
        self.lm_pos.len()
    }

    /// Heap bytes of the published arrays (8 B per destination plus 12 B
    /// per ring landmark — the deployment-question number next to the
    /// RIB's ~25 B/dest selection column).
    pub fn approx_bytes(&self) -> usize {
        self.keys.len() * (4 + 4) + self.lm_pos.len() * (8 + 4)
    }

    /// Branchless lower-bound probe: index of the slot holding `key`, if
    /// resident. The loop body is a compare + conditional add over a dense
    /// `u32` array — no pointer chasing, and the halving bound means the
    /// branch predictor has nothing to mispredict on the data path.
    #[inline]
    fn position(&self, key: u32) -> Option<usize> {
        let keys = &self.keys[..];
        if keys.is_empty() {
            return None;
        }
        let mut base = 0usize;
        let mut size = keys.len();
        while size > 1 {
            let half = size / 2;
            // cmov, not a branch: `probe < key` selects the upper half.
            base += usize::from(keys[base + half - 1] < key) * half;
            size -= half;
        }
        (keys[base] == key).then_some(base)
    }

    /// Next hop for `dest`, if table-resident.
    #[inline]
    pub fn lookup(&self, dest: NodeId) -> Option<NodeId> {
        self.position(dest.0 as u32)
            .map(|i| NodeId(self.hops[i] as usize))
    }

    /// The landmark owning `hash` on the compiled ring: first ring
    /// position clockwise of the hash (standard consistent hashing) —
    /// the same rule as `DiscoProtocol::owner_landmark`, resolved by one
    /// binary search instead of a landmark-set scan.
    #[inline]
    pub fn owner_landmark(&self, hash: NameHash) -> Option<NodeId> {
        if self.lm_pos.is_empty() {
            return None;
        }
        let h = hash.value();
        let mut i = self.lm_pos.partition_point(|&p| p < h);
        if i == self.lm_pos.len() {
            i = 0; // wrap: smallest position on the ring
        }
        Some(NodeId(self.lm_id[i] as usize))
    }

    /// The landmark-fallback entry: `(closest landmark, next hop toward
    /// it)`. `None` until a landmark route is learned, or when this node
    /// is its own closest landmark (nothing to forward toward).
    pub fn fallback(&self) -> Option<(NodeId, NodeId)> {
        (self.fallback_hop != NO_HOP).then_some((
            NodeId(self.fallback_lm as usize),
            NodeId(self.fallback_hop as usize),
        ))
    }

    /// Sorted destination keys (test/metrics introspection).
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    // ---- compile-side builder: `begin` → `fill_routes`/`push_route`,
    // plus `set_landmarks` when `landmarks_stamp` is stale, driven by
    // `DiscoProtocol::compile_forwarding_into` ----

    /// Reset the routes for a fresh compile at `revision`, keeping
    /// allocations. The ring, the fallback and their stamp carry over
    /// until the next [`ForwardingTable::set_landmarks`].
    pub fn begin(&mut self, node: NodeId, revision: u64) {
        self.node = node.0 as u32;
        self.revision = revision;
        self.keys.clear();
        self.hops.clear();
    }

    /// Append one selection-column row. Rows must arrive in strictly
    /// ascending destination order.
    #[inline]
    pub fn push_route(&mut self, dest: NodeId, next_hop: NodeId) {
        let key = dest.0 as u32;
        debug_assert!(
            self.keys.last().is_none_or(|&last| last < key),
            "selection rows out of destination order"
        );
        self.keys.push(key);
        self.hops.push(next_hop.0 as u32);
    }

    /// Push the routes through `fill`, which gets this buffer's cached
    /// destination order (to read the RIB in destination order with
    /// [`crate::rib::RibStore::for_each_selected_by_id`]) and the table
    /// to [`ForwardingTable::push_route`] into.
    pub fn fill_routes(&mut self, fill: impl FnOnce(&mut DestOrder, &mut Self)) {
        let mut order = std::mem::take(&mut self.order);
        fill(&mut order, self);
        self.order = order;
    }

    /// Stamp of the landmark state the ring and fallback were built from.
    pub fn landmarks_stamp(&self) -> Option<Stamp> {
        self.landmarks_stamp
    }

    /// Rebuild the landmark ring from `(hash position, landmark)` slots in
    /// any order, set the fallback entry, and stamp both with `stamp`.
    pub fn set_landmarks(
        &mut self,
        stamp: Option<Stamp>,
        ring: impl IntoIterator<Item = (u64, NodeId)>,
        fallback: Option<(NodeId, NodeId)>,
    ) {
        // Sort by position (ids are distinct, mix64 collisions are not a
        // practical concern — ties would differ from the scan rule only
        // there).
        let mut ring: Vec<(u64, u32)> = ring.into_iter().map(|(p, lm)| (p, lm.0 as u32)).collect();
        ring.sort_unstable();
        self.lm_pos.clear();
        self.lm_id.clear();
        for (p, id) in ring {
            self.lm_pos.push(p);
            self.lm_id.push(id);
        }
        (self.fallback_lm, self.fallback_hop) = match fallback {
            Some((lm, hop)) => (lm.0 as u32, hop.0 as u32),
            None => (NO_HOP, NO_HOP),
        };
        self.landmarks_stamp = stamp;
    }
}

/// Epoch-based double buffer between the control plane and the data plane.
///
/// The publisher owns a *front* table (the published epoch lookups run
/// against) and a *back* scratch buffer. A publish compiles into the back
/// buffer and swaps — one pointer-sized exchange, so readers never observe
/// a half-built table — then stamps the next epoch. Publishes are driven by
/// the control revision ([`TablePublisher::needs_publish`]): no selection
/// change means no recompile, and changes within `debounce` simulation-time
/// units of the last publish are coalesced (churn bursts repair many routes;
/// republishing per flap would recompile the whole column each time).
#[derive(Debug)]
pub struct TablePublisher {
    front: ForwardingTable,
    back: ForwardingTable,
    /// Minimum simulation time between publishes.
    debounce: f64,
    last_pub: f64,
    published: bool,
    republishes: u64,
}

impl TablePublisher {
    /// A publisher for `node` coalescing publishes closer than `debounce`
    /// simulation-time units.
    pub fn new(node: NodeId, debounce: f64) -> Self {
        Self {
            front: ForwardingTable::new(node),
            back: ForwardingTable::new(node),
            debounce,
            last_pub: f64::NEG_INFINITY,
            published: false,
            republishes: 0,
        }
    }

    /// The published table (empty, epoch 0, until the first publish).
    pub fn table(&self) -> &ForwardingTable {
        &self.front
    }

    /// Whether any epoch has been published yet.
    pub fn has_published(&self) -> bool {
        self.published
    }

    /// Publishes performed so far (= the front table's epoch).
    pub fn republishes(&self) -> u64 {
        self.republishes
    }

    /// The published epoch's control revision (`None` until the first
    /// publish). With [`TablePublisher::may_publish_at`], this is the
    /// publisher-side half of [`TablePublisher::needs_publish`] — exposed
    /// so a sharded run can ship the decision inputs to the owner shard
    /// and reach the exact same publish/skip choices as a sequential run.
    pub fn published_revision(&self) -> Option<u64> {
        self.published.then_some(self.front.revision)
    }

    /// Whether the debounce window has passed at `now` (always true before
    /// the first publish).
    pub fn may_publish_at(&self, now: f64) -> bool {
        !self.published || now - self.last_pub >= self.debounce
    }

    /// Whether a publish at `now` would change anything: the control plane
    /// has moved past the published revision and the debounce window has
    /// passed. The first publish is never debounced.
    pub fn needs_publish(&self, revision: u64, now: f64) -> bool {
        match self.published_revision() {
            None => true,
            Some(pr) => pr != revision && self.may_publish_at(now),
        }
    }

    /// Publish a new epoch: `compile` fills the back buffer (via
    /// `DiscoProtocol::compile_forwarding_into`, or by installing a table
    /// compiled on another shard), then the buffers swap. The caller
    /// gates on [`TablePublisher::needs_publish`].
    pub fn publish_with(&mut self, now: f64, compile: impl FnOnce(&mut ForwardingTable)) {
        compile(&mut self.back);
        self.back.epoch = self.front.epoch + 1;
        std::mem::swap(&mut self.front, &mut self.back);
        self.last_pub = now;
        self.published = true;
        self.republishes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(rows: &[(u32, u32)], ring: &[(u64, u32)]) -> ForwardingTable {
        let mut t = ForwardingTable::new(NodeId(0));
        t.begin(NodeId(0), 1);
        for &(k, h) in rows {
            t.push_route(NodeId(k as usize), NodeId(h as usize));
        }
        let ring = ring.iter().map(|&(pos, lm)| (pos, NodeId(lm as usize)));
        t.set_landmarks(None, ring, None);
        t
    }

    /// The branchless probe agrees with a linear scan on every key and on
    /// misses between, below and above the keys.
    #[test]
    fn lookup_matches_linear_scan() {
        let rows: Vec<(u32, u32)> = (0..97u32).map(|i| (i * 3 + 1, i + 1000)).collect();
        for cut in [0usize, 1, 2, 3, 7, 96, 97] {
            let t = table_of(&rows[..cut], &[]);
            for key in 0..300u32 {
                let want = rows[..cut]
                    .iter()
                    .find(|r| r.0 == key)
                    .map(|r| NodeId(r.1 as usize));
                assert_eq!(t.lookup(NodeId(key as usize)), want, "cut {cut} key {key}");
            }
        }
    }

    /// Source identities are fresh per construction and per clone, so no
    /// two sources (or a source and its diverging clone) share a stamp.
    #[test]
    fn source_ids_are_never_shared() {
        let a = SourceId::default();
        let b = SourceId::default();
        assert_ne!(a, b);
        assert_ne!(a.clone(), a);
    }

    /// Ring resolution is first-position-clockwise with wraparound.
    #[test]
    fn owner_is_first_clockwise() {
        let t = table_of(&[], &[(500, 2), (100, 1), (900, 3)]);
        assert_eq!(t.owner_landmark(NameHash(50)), Some(NodeId(1)));
        assert_eq!(t.owner_landmark(NameHash(100)), Some(NodeId(1)));
        assert_eq!(t.owner_landmark(NameHash(101)), Some(NodeId(2)));
        assert_eq!(t.owner_landmark(NameHash(899)), Some(NodeId(3)));
        assert_eq!(t.owner_landmark(NameHash(901)), Some(NodeId(1)), "wraps");
        assert!(table_of(&[], &[]).owner_landmark(NameHash(0)).is_none());
    }

    /// Publishes swap epochs atomically, are revision-driven and debounced.
    #[test]
    fn publisher_debounces_and_stamps_epochs() {
        let mut p = TablePublisher::new(NodeId(7), 10.0);
        assert!(p.needs_publish(0, 0.0), "first publish is never debounced");
        p.publish_with(0.0, |t| {
            t.begin(NodeId(7), 3);
            t.push_route(NodeId(1), NodeId(2));
        });
        assert_eq!(p.table().epoch(), 1);
        assert_eq!(p.table().revision(), 3);
        assert!(!p.needs_publish(3, 100.0), "same revision: no republish");
        assert!(!p.needs_publish(4, 5.0), "inside the debounce window");
        assert!(p.needs_publish(4, 10.0));
        p.publish_with(10.0, |t| t.begin(NodeId(7), 4));
        assert_eq!(p.table().epoch(), 2);
        assert!(p.table().is_empty(), "swap published the fresh compile");
        assert!(p.table().is_stale(9) && !p.table().is_stale(4));
        assert_eq!(p.republishes(), 2);
    }
}
