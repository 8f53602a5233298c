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
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// One committed partition: its record-aligned chunks (exactly the
/// blocks written to the DFS, hash per chunk) resident on `holder`.
struct Entry {
    holder: NodeId,
    /// `(content_hash, payload)` per block, in write order.
    chunks: Vec<(u64, Bytes)>,
    bytes: u64,
    /// Recency stamp: bumped on commit and on pin, never on read, so
    /// eviction order is independent of read interleaving.
    seq: u64,
}

/// A partition staged by its writing reducer, awaiting job commit.
struct Staged {
    holder: NodeId,
    chunks: Vec<(u64, Bytes)>,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    /// Committed, readable entries keyed by `(file path, partition)`.
    entries: HashMap<(String, PartitionId), Entry>,
    /// Staged-but-uncommitted partitions per output file. BTreeMap so
    /// commit admits partitions in ascending id order regardless of the
    /// interleaving reduce tasks staged them in.
    pending: HashMap<String, BTreeMap<PartitionId, Staged>>,
    /// Pin counts per file path; a file's entries are evictable only
    /// while its pin count is zero.
    pins: HashMap<String, u32>,
    /// Committed bytes currently resident.
    used: u64,
    /// Monotonic recency clock.
    seq: u64,
}

impl Inner {
    fn bump(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn pinned_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|((path, _), _)| self.pins.get(path).copied().unwrap_or(0) > 0)
            .map(|(_, e)| e.bytes)
            .sum()
    }
}

/// Pre-resolved telemetry handles (resolved once against the cluster
/// registry so the read path never takes the registry lock).
struct ObsHandles {
    hits: Counter,
    hits_local: Counter,
    misses: Counter,
    spills: Counter,
    read_bytes: Counter,
    pinned_bytes: Gauge,
}

/// Point-in-time cache statistics (tests, benches, figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainCacheStats {
    /// Chunk reads served from memory.
    pub hits: u64,
    /// Hits where the reader was the holder node (node-local).
    pub hits_local: u64,
    /// Chunk lookups that fell through to the DFS.
    pub misses: u64,
    /// Staged partitions not admitted at commit (budget pressure); the
    /// data stays DFS-only — it was persisted at write time.
    pub spills: u64,
    /// Bytes served from memory.
    pub read_bytes: u64,
    /// Committed bytes currently resident.
    pub used_bytes: u64,
    /// Committed partitions currently resident.
    pub entries: u64,
}

/// The memory-budgeted inter-job block cache. See the module docs for
/// the consistency rules; see `rcmp_model::ChainCacheConfig` for how it
/// is switched on.
pub struct ChainCache {
    budget: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    hits_local: AtomicU64,
    misses: AtomicU64,
    spills: AtomicU64,
    read_bytes: AtomicU64,
    obs: Option<ObsHandles>,
}

impl ChainCache {
    /// An empty cache with the given committed-byte budget.
    pub fn new(budget: ByteSize) -> Self {
        Self {
            budget: budget.as_u64(),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            hits_local: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attaches pre-resolved metric handles: `cache.hits`,
    /// `cache.hits_local`, `cache.misses`, `cache.spills`,
    /// `cache.read_bytes` counters and the `cache.pinned_bytes` gauge.
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> Self {
        self.obs = Some(ObsHandles {
            hits: registry.counter("cache.hits"),
            hits_local: registry.counter("cache.hits_local"),
            misses: registry.counter("cache.misses"),
            spills: registry.counter("cache.spills"),
            read_bytes: registry.counter("cache.read_bytes"),
            pinned_bytes: registry.gauge("cache.pinned_bytes"),
        });
        self
    }

    /// The committed-byte budget.
    pub fn budget(&self) -> ByteSize {
        ByteSize::bytes(self.budget)
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
        let mut inner = self.inner.lock();
        inner.pending.entry(path.to_string()).or_default().insert(
            pid,
            Staged {
                holder,
                chunks: hashed,
                bytes,
            },
        );
    }

    /// Commits every partition staged for `path`, admitting them in
    /// ascending partition order while they fit the budget (evicting
    /// unpinned older entries, oldest first). Partitions that don't fit
    /// are counted as spills and stay DFS-only. Runs on the tracker's
    /// control thread at successful job completion — never concurrently
    /// with itself — so cache state after each job is deterministic.
    pub fn commit(&self, path: &str) {
        let mut inner = self.inner.lock();
        let Some(staged) = inner.pending.remove(path) else {
            return;
        };
        let mut spilled = 0u64;
        for (pid, s) in staged {
            // Replacing an existing version of the same partition frees
            // its bytes first.
            if let Some(old) = inner.entries.remove(&(path.to_string(), pid)) {
                inner.used -= old.bytes;
            }
            if s.bytes > self.budget {
                spilled += 1;
                continue;
            }
            while inner.used + s.bytes > self.budget {
                let victim = inner
                    .entries
                    .iter()
                    .filter(|((p, _), _)| inner.pins.get(p).copied().unwrap_or(0) == 0)
                    // A pin stamps all of a file's entries alike; break
                    // that tie by partition id so eviction does not
                    // follow hash-map order (the simulator's order too).
                    .min_by_key(|((_, pid), e)| (e.seq, *pid))
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        let e = inner.entries.remove(&k).expect("victim present");
                        inner.used -= e.bytes;
                    }
                    None => break,
                }
            }
            if inner.used + s.bytes > self.budget {
                spilled += 1;
                continue;
            }
            let seq = inner.bump();
            inner.used += s.bytes;
            inner.entries.insert(
                (path.to_string(), pid),
                Entry {
                    holder: s.holder,
                    chunks: s.chunks,
                    bytes: s.bytes,
                    seq,
                },
            );
        }
        if spilled > 0 {
            self.spills.fetch_add(spilled, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.spills.add(spilled);
            }
        }
        self.publish_pinned(&inner);
    }

    /// Drops anything staged for `path` without committing it (a failed
    /// or abandoned run).
    pub fn abort(&self, path: &str) {
        self.inner.lock().pending.remove(path);
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
        let key = (path.to_string(), pid);
        let mut inner = self.inner.lock();
        let hit = match inner.entries.get(&key) {
            Some(e) => match e.chunks.get(block_idx) {
                Some((h, data)) if *h == expect_hash => Some((data.clone(), e.holder)),
                Some(_) => {
                    // Stale: the partition was rewritten behind us.
                    let e = inner.entries.remove(&key).expect("entry present");
                    inner.used -= e.bytes;
                    None
                }
                None => None,
            },
            None => None,
        };
        drop(inner);
        match hit {
            Some((data, holder)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.read_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                let local = holder == reader;
                if local {
                    self.hits_local.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(obs) = &self.obs {
                    obs.hits.inc();
                    obs.read_bytes.add(data.len() as u64);
                    if local {
                        obs.hits_local.inc();
                    }
                }
                Some((data, holder))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.misses.inc();
                }
                None
            }
        }
    }

    /// The node holding `(path, pid)` in memory, if committed — the
    /// stable-placement affinity hint. Purely advisory: scheduling to a
    /// non-holder only costs a miss.
    pub fn holder(&self, path: &str, pid: PartitionId) -> Option<NodeId> {
        self.inner
            .lock()
            .entries
            .get(&(path.to_string(), pid))
            .map(|e| e.holder)
    }

    /// Pins `path`: its entries can't be evicted until the matching
    /// [`ChainCache::unpin_file`]. Bumps recency (the file is about to
    /// be consumed). Pins nest.
    pub fn pin_file(&self, path: &str) {
        let mut inner = self.inner.lock();
        *inner.pins.entry(path.to_string()).or_insert(0) += 1;
        let seq = inner.bump();
        for ((p, _), e) in inner.entries.iter_mut() {
            if p == path {
                e.seq = seq;
            }
        }
        self.publish_pinned(&inner);
    }

    /// Releases one pin of `path`.
    pub fn unpin_file(&self, path: &str) {
        let mut inner = self.inner.lock();
        if let Some(c) = inner.pins.get_mut(path) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                inner.pins.remove(path);
            }
        }
        self.publish_pinned(&inner);
    }

    /// Drops every committed entry and staged chunk of `path`.
    pub fn invalidate_file(&self, path: &str) {
        let mut inner = self.inner.lock();
        let keys: Vec<_> = inner
            .entries
            .keys()
            .filter(|(p, _)| p == path)
            .cloned()
            .collect();
        for k in keys {
            let e = inner.entries.remove(&k).expect("entry present");
            inner.used -= e.bytes;
        }
        inner.pending.remove(path);
        self.publish_pinned(&inner);
    }

    /// Drops the committed entry and staged chunks of one partition.
    pub fn invalidate_partition(&self, path: &str, pid: PartitionId) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.remove(&(path.to_string(), pid)) {
            inner.used -= e.bytes;
        }
        if let Some(staged) = inner.pending.get_mut(path) {
            staged.remove(&pid);
        }
        self.publish_pinned(&inner);
    }

    /// Drops everything `node` holds — committed and staged. Called on
    /// node death, drain and decommission so recovery (and post-churn
    /// scheduling) falls back to the DFS's persisted replicas.
    pub fn invalidate_node(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        let keys: Vec<_> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.holder == node)
            .map(|(k, _)| k.clone())
            .collect();
        for k in keys {
            let e = inner.entries.remove(&k).expect("entry present");
            inner.used -= e.bytes;
        }
        for staged in inner.pending.values_mut() {
            staged.retain(|_, s| s.holder != node);
        }
        inner.pending.retain(|_, staged| !staged.is_empty());
        self.publish_pinned(&inner);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ChainCacheStats {
        let inner = self.inner.lock();
        ChainCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            hits_local: self.hits_local.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            used_bytes: inner.used,
            entries: inner.entries.len() as u64,
        }
    }

    fn publish_pinned(&self, inner: &Inner) {
        if let Some(obs) = &self.obs {
            obs.pinned_bytes.set(inner.pinned_bytes() as i64);
        }
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
        let cache = ChainCache::new(ByteSize::bytes(1024));
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
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.hits_local, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.read_bytes, 30);
        assert_eq!(s.used_bytes, 30);
        assert_eq!(cache.holder("out", PartitionId(0)), Some(NodeId(2)));
    }

    #[test]
    fn hash_mismatch_invalidates_and_misses() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
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
        assert_eq!(cache.stats().used_bytes, 0);
    }

    #[test]
    fn tiny_budget_spills_everything() {
        let cache = ChainCache::new(ByteSize::bytes(5));
        let c = payload(10, 1);
        cache.stage("out", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.stage("out", PartitionId(1), NodeId(1), std::slice::from_ref(&c));
        cache.commit("out");
        let s = cache.stats();
        assert_eq!(s.spills, 2);
        assert_eq!(s.entries, 0);
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c), NodeId(0))
            .is_none());
    }

    #[test]
    fn lru_evicts_oldest_unpinned_and_respects_pins() {
        let cache = ChainCache::new(ByteSize::bytes(25));
        let a = payload(10, 1);
        cache.stage("a", PartitionId(0), NodeId(0), std::slice::from_ref(&a));
        cache.commit("a");
        let b = payload(10, 2);
        cache.stage("b", PartitionId(0), NodeId(1), std::slice::from_ref(&b));
        cache.commit("b");
        assert_eq!(cache.stats().entries, 2);

        // Pin "a": committing "c" must evict "b" (oldest unpinned), not "a".
        cache.pin_file("a");
        let c = payload(10, 3);
        cache.stage("c", PartitionId(0), NodeId(2), std::slice::from_ref(&c));
        cache.commit("c");
        assert!(cache.holder("a", PartitionId(0)).is_some());
        assert!(cache.holder("b", PartitionId(0)).is_none());
        assert!(cache.holder("c", PartitionId(0)).is_some());
        cache.unpin_file("a");

        // With everything unpinned, the next commit evicts oldest-first.
        let d = payload(20, 4);
        cache.stage("d", PartitionId(0), NodeId(3), std::slice::from_ref(&d));
        cache.commit("d");
        assert!(cache.holder("d", PartitionId(0)).is_some());
        assert_eq!(cache.stats().used_bytes, 20);
    }

    #[test]
    fn eviction_ties_break_by_partition_id() {
        let cache = ChainCache::new(ByteSize::bytes(30));
        let c = payload(10, 1);
        for pid in 0..3 {
            cache.stage("a", PartitionId(pid), NodeId(pid), std::slice::from_ref(&c));
        }
        cache.commit("a");
        // One pin stamps all three partitions with the same recency.
        cache.pin_file("a");
        cache.unpin_file("a");
        cache.stage("b", PartitionId(0), NodeId(3), std::slice::from_ref(&c));
        cache.commit("b");
        let kept: Vec<bool> = (0..3)
            .map(|pid| cache.holder("a", PartitionId(pid)).is_some())
            .collect();
        assert_eq!(kept, vec![false, true, true]);
    }

    #[test]
    fn pinned_entries_spill_rather_than_evict() {
        let cache = ChainCache::new(ByteSize::bytes(10));
        let a = payload(10, 1);
        cache.stage("a", PartitionId(0), NodeId(0), std::slice::from_ref(&a));
        cache.commit("a");
        cache.pin_file("a");
        let b = payload(10, 2);
        cache.stage("b", PartitionId(0), NodeId(1), std::slice::from_ref(&b));
        cache.commit("b");
        // "a" is pinned and fills the budget: "b" spills.
        assert!(cache.holder("a", PartitionId(0)).is_some());
        assert!(cache.holder("b", PartitionId(0)).is_none());
        assert_eq!(cache.stats().spills, 1);
        cache.unpin_file("a");
    }

    #[test]
    fn invalidations_drop_committed_and_staged() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let c = payload(10, 1);
        cache.stage("x", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.stage("x", PartitionId(1), NodeId(1), std::slice::from_ref(&c));
        cache.commit("x");
        cache.stage("y", PartitionId(0), NodeId(1), std::slice::from_ref(&c));

        cache.invalidate_partition("x", PartitionId(0));
        assert!(cache.holder("x", PartitionId(0)).is_none());
        assert!(cache.holder("x", PartitionId(1)).is_some());

        // Node 1 dies: its committed entry and its staged chunks go.
        cache.invalidate_node(NodeId(1));
        assert!(cache.holder("x", PartitionId(1)).is_none());
        cache.commit("y");
        assert!(cache.holder("y", PartitionId(0)).is_none());

        cache.stage("z", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.commit("z");
        cache.invalidate_file("z");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().used_bytes, 0);
    }

    #[test]
    fn abort_drops_staged_only() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let c = payload(10, 1);
        cache.stage("x", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.commit("x");
        cache.stage("y", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.abort("y");
        cache.commit("y");
        assert!(cache.holder("y", PartitionId(0)).is_none());
        assert!(cache.holder("x", PartitionId(0)).is_some());
    }

    #[test]
    fn recommit_replaces_previous_version() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let v1 = payload(10, 1);
        cache.stage("x", PartitionId(0), NodeId(0), std::slice::from_ref(&v1));
        cache.commit("x");
        let v2 = payload(12, 2);
        cache.stage("x", PartitionId(0), NodeId(1), std::slice::from_ref(&v2));
        cache.commit("x");
        assert_eq!(cache.stats().used_bytes, 12);
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
