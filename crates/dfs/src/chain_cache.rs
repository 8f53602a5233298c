//! The memory-budgeted inter-job block cache (M3R-style chain fast
//! path over RCMP's persisted lineage).
//!
//! RCMP persists every job's output to the DFS so cascading
//! recomputation stays cheap — which makes the *fault-free* chain pay a
//! full DFS round-trip between every pair of jobs. M3R shows chained
//! MapReduce wins big when inter-job data stays memory-resident and
//! partition-stable, at the cost of resilience. This cache resolves the
//! tension: reducer outputs are *staged* here as they are written
//! through to the DFS (checksummed, replicated, lineage untouched), and
//! the next job's mappers consume them from memory when the partition is
//! still resident, valid and cheap to reach. Every cache miss — budget
//! pressure, invalidation, membership churn — falls back to the
//! persisted replicas, so turning the cache on can never change job
//! output bytes, only where fault-free reads come from.
//!
//! ## Consistency rules
//!
//! The stage/commit/evict/pin/invalidate bookkeeping is
//! [`rcmp_policy::ChainCacheBook`], the same code the simulator runs;
//! this type adds the bytes, the hash guard and the `cache.*` metrics.
//!
//! * **Stage, then commit.** A reducer stages its partition's
//!   record-aligned chunks while writing them to the DFS; nothing is
//!   readable until the whole job *commits* at successful completion, on
//!   the tracker's control thread. Admission order is partition-id
//!   ascending — independent of reduce-task interleaving — so replays
//!   and differential runs see identical cache states.
//! * **Hash-guarded reads.** [`ChainCache::get_chunk`] only hits when
//!   the cached chunk's content hash equals the hash the reader's
//!   `BlockLocation` expects (the same fingerprint verified DFS reads
//!   check). A recomputed partition, a stale entry, or any
//!   misalignment misses and falls through to the DFS.
//! * **LRU with pins.** Committed entries are evicted oldest-first under
//!   budget pressure, except entries of *pinned* files: the engine pins
//!   a job's input file for the duration of the run, so the partitions a
//!   scheduled wave is about to consume can't be evicted under it.
//!   Eviction is pure bookkeeping ("spill-to-DFS"): the bytes were
//!   persisted at write time, nothing is copied out.
//! * **Invalidation.** Node death, drain and decommission drop every
//!   entry (and staged chunk) the node holds; partition clears, file
//!   deletes and injected corruption drop the covering entries. Recovery
//!   reads therefore always come from the DFS's surviving replicas.
//!
//! A budget smaller than one partition degrades to pure spill-through:
//! everything stages, nothing is admitted, every read goes to the DFS —
//! byte-identical to running with the cache off.

use bytes::Bytes;
use parking_lot::Mutex;
use rcmp_model::{ByteSize, NodeId, PartitionId};
use rcmp_obs::{Counter, Gauge, MetricsRegistry};
use rcmp_policy::ChainCacheBook;

/// The memory-budgeted inter-job block cache: the shared
/// [`ChainCacheBook`] keyed by file path, with each partition's
/// `(content_hash, payload)` chunks in write order. See the module docs
/// for the consistency rules; see `rcmp_model::ChainCacheConfig` for
/// how it is switched on.
pub struct ChainCache {
    book: Mutex<ChainCacheBook<str, Vec<(u64, Bytes)>>>,
    // Metric handles, resolved once so the read path never takes the
    // registry lock.
    hits: Counter,
    hits_local: Counter,
    misses: Counter,
    spills: Counter,
    read_bytes: Counter,
    pinned_bytes: Gauge,
}

impl ChainCache {
    /// An empty cache with the given committed-byte budget, reporting
    /// the `cache.hits`, `cache.hits_local`, `cache.misses`,
    /// `cache.spills` and `cache.read_bytes` counters and the
    /// `cache.pinned_bytes` gauge into `registry`.
    pub fn new(budget: ByteSize, registry: &MetricsRegistry) -> Self {
        Self {
            book: Mutex::new(ChainCacheBook::new(budget.as_u64())),
            hits: registry.counter("cache.hits"),
            hits_local: registry.counter("cache.hits_local"),
            misses: registry.counter("cache.misses"),
            spills: registry.counter("cache.spills"),
            read_bytes: registry.counter("cache.read_bytes"),
            pinned_bytes: registry.gauge("cache.pinned_bytes"),
        }
    }

    /// Stages one reducer's whole-partition output (the record-aligned
    /// chunks just written to the DFS) on `holder`, pending job commit.
    /// Re-staging the same partition (a retried task) replaces the
    /// previous staging.
    pub fn stage(&self, path: &str, pid: PartitionId, holder: NodeId, chunks: &[Bytes]) {
        let hashed: Vec<(u64, Bytes)> = chunks
            .iter()
            .map(|c| (rcmp_model::hash::hash_bytes(c), c.clone()))
            .collect();
        let bytes: u64 = hashed.iter().map(|(_, c)| c.len() as u64).sum();
        self.book.lock().stage(path, pid, holder, bytes, hashed);
    }

    /// Commits every partition staged for `path` (see
    /// [`ChainCacheBook::commit`]). Runs on the tracker's control thread
    /// at successful job completion — never concurrently with itself —
    /// so cache state after each job is deterministic.
    pub fn commit(&self, path: &str) {
        let mut book = self.book.lock();
        self.spills.add(book.commit(path));
        self.publish_pinned(&book);
    }

    /// Drops anything staged for `path` without committing it (a failed
    /// or abandoned run).
    pub fn abort(&self, path: &str) {
        self.book.lock().abort(path);
    }

    /// Serves block `block_idx` of `(path, pid)` from memory, but only
    /// when the cached chunk's content hash equals `expect_hash` (the
    /// fingerprint the reader's `BlockLocation` carries). On a hash
    /// mismatch the stale entry is dropped and the read misses. Returns
    /// the payload and the holder node (for locality accounting).
    pub fn get_chunk(
        &self,
        path: &str,
        pid: PartitionId,
        block_idx: usize,
        expect_hash: u64,
        reader: NodeId,
    ) -> Option<(Bytes, NodeId)> {
        let hit = {
            let mut book = self.book.lock();
            match book.get(path, pid) {
                Some((holder, chunks)) => match chunks.get(block_idx) {
                    Some((h, data)) if *h == expect_hash => Some((data.clone(), holder)),
                    Some(_) => {
                        // Stale: the partition was rewritten behind us.
                        book.remove(path, pid);
                        None
                    }
                    None => None,
                },
                None => None,
            }
        };
        match &hit {
            Some((data, holder)) => {
                self.hits.inc();
                self.read_bytes.add(data.len() as u64);
                if *holder == reader {
                    self.hits_local.inc();
                }
            }
            None => self.misses.inc(),
        }
        hit
    }

    /// The node holding `(path, pid)` in memory, if committed — the
    /// stable-placement affinity hint. Purely advisory: scheduling to a
    /// non-holder only costs a miss.
    pub fn holder(&self, path: &str, pid: PartitionId) -> Option<NodeId> {
        self.book.lock().holder(path, pid)
    }

    /// Pins `path`: its entries can't be evicted until the matching
    /// [`ChainCache::unpin_file`]. Bumps recency (the file is about to
    /// be consumed). Pins nest.
    pub fn pin_file(&self, path: &str) {
        let mut book = self.book.lock();
        book.pin(path);
        self.publish_pinned(&book);
    }

    /// Releases one pin of `path`.
    pub fn unpin_file(&self, path: &str) {
        let mut book = self.book.lock();
        book.unpin(path);
        self.publish_pinned(&book);
    }

    /// Drops every committed entry and staged chunk of `path`.
    pub fn invalidate_file(&self, path: &str) {
        let mut book = self.book.lock();
        book.invalidate_file(path);
        self.publish_pinned(&book);
    }

    /// Drops the committed entry and staged chunks of one partition.
    pub fn invalidate_partition(&self, path: &str, pid: PartitionId) {
        let mut book = self.book.lock();
        book.invalidate_partition(path, pid);
        self.publish_pinned(&book);
    }

    /// Drops everything `node` holds — committed and staged. Called on
    /// node death, drain and decommission so recovery (and post-churn
    /// scheduling) falls back to the DFS's persisted replicas.
    pub fn invalidate_node(&self, node: NodeId) {
        let mut book = self.book.lock();
        book.invalidate_node(node);
        self.publish_pinned(&book);
    }

    fn publish_pinned(&self, book: &ChainCacheBook<str, Vec<(u64, Bytes)>>) {
        self.pinned_bytes.set(book.pinned_bytes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    fn hash(b: &Bytes) -> u64 {
        rcmp_model::hash::hash_bytes(b)
    }

    #[test]
    fn stage_commit_read_roundtrip() {
        let registry = MetricsRegistry::new();
        let cache = ChainCache::new(ByteSize::bytes(1024), &registry);
        let c0 = payload(10, 1);
        let c1 = payload(20, 2);
        cache.stage("out", PartitionId(0), NodeId(2), &[c0.clone(), c1.clone()]);
        // Nothing readable before commit.
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c0), NodeId(2))
            .is_none());
        cache.commit("out");
        let (data, holder) = cache
            .get_chunk("out", PartitionId(0), 0, hash(&c0), NodeId(2))
            .expect("hit");
        assert_eq!(data, c0);
        assert_eq!(holder, NodeId(2));
        let (data, _) = cache
            .get_chunk("out", PartitionId(0), 1, hash(&c1), NodeId(0))
            .expect("hit");
        assert_eq!(data, c1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(2));
        assert_eq!(snap.counter("cache.hits_local"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert_eq!(snap.counter("cache.read_bytes"), Some(30));
        assert_eq!(cache.book.lock().used(), 30);
        assert_eq!(cache.holder("out", PartitionId(0)), Some(NodeId(2)));
    }

    #[test]
    fn hash_mismatch_invalidates_and_misses() {
        let cache = ChainCache::new(ByteSize::bytes(1024), &MetricsRegistry::new());
        let c = payload(10, 1);
        cache.stage("out", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.commit("out");
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c) ^ 1, NodeId(0))
            .is_none());
        // The stale entry is gone entirely.
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c), NodeId(0))
            .is_none());
        assert_eq!(cache.book.lock().used(), 0);
    }

    #[test]
    fn recommit_serves_only_the_new_version() {
        let cache = ChainCache::new(ByteSize::bytes(1024), &MetricsRegistry::new());
        let v1 = payload(10, 1);
        cache.stage("x", PartitionId(0), NodeId(0), std::slice::from_ref(&v1));
        cache.commit("x");
        let v2 = payload(12, 2);
        cache.stage("x", PartitionId(0), NodeId(1), std::slice::from_ref(&v2));
        cache.commit("x");
        assert!(cache
            .get_chunk("x", PartitionId(0), 0, hash(&v2), NodeId(1))
            .is_some());
        // Probing with the old version's hash misses (and drops the
        // entry — a reader expecting v1 must go to the DFS).
        assert!(cache
            .get_chunk("x", PartitionId(0), 0, hash(&v1), NodeId(0))
            .is_none());
        assert!(cache.holder("x", PartitionId(0)).is_none());
    }
}
