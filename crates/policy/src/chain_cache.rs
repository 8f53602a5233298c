//! The inter-job chain cache's bookkeeping: stage → commit →
//! LRU-with-pin eviction → spill → invalidate.
//!
//! RCMP persists every job's output so that recomputation stays cheap;
//! the chain cache (M3R's in-memory chaining) lets the next job's
//! mappers read that output from memory while it is resident. Which
//! partitions are resident is pure bookkeeping over byte counts, pins
//! and recency stamps, so it lives here once and both backends run it:
//! the engine's `rcmp_dfs::ChainCache` keeps the `(content_hash, Bytes)`
//! chunks as each partition's payload, the simulator keeps `()`.
//!
//! Rules:
//!
//! * **Stage, then commit.** A writer stages a whole partition; nothing
//!   is readable until the file commits. Commit admits partitions in
//!   ascending partition id, whatever order they were staged in.
//! * **LRU with pins.** Under budget pressure, commit evicts committed
//!   entries oldest-first, skipping every entry of a pinned file. Only
//!   commit and pin stamp recency (a pin stamps all of a file's entries
//!   alike; ties break by partition id), never a read, so eviction order
//!   does not depend on read interleaving.
//! * **Spill.** A partition that does not fit — larger than the budget,
//!   or blocked by pinned entries — is not admitted and counts as a
//!   spill. Its data was persisted when written; nothing is copied out.
//! * **Invalidation** drops committed and staged partitions of a file,
//!   a partition or a holder node.

use rcmp_model::{NodeId, PartitionId};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One partition: its holder node, size and payload. Staged entries
/// carry no recency stamp until commit sets one.
#[derive(Clone, Debug)]
struct Entry<P> {
    holder: NodeId,
    bytes: u64,
    seq: u64,
    payload: P,
}

/// Partitions of one file.
type Parts<P> = BTreeMap<PartitionId, Entry<P>>;

/// Byte-budgeted chain-cache bookkeeping over file keys `K` (the engine
/// uses the path `str`, the simulator its `u32` file index) with a
/// per-partition payload `P`. Files are stored as `K::Owned` and looked
/// up by `&K`, so a read allocates nothing. See the module docs for the
/// rules.
#[derive(Clone, Debug)]
pub struct ChainCacheBook<K: ToOwned + ?Sized, P> {
    budget: u64,
    /// Committed, readable entries: file → partition → entry.
    entries: BTreeMap<K::Owned, Parts<P>>,
    /// Staged partitions awaiting their file's commit.
    staged: BTreeMap<K::Owned, Parts<P>>,
    /// Pin counts; a file is present only while its count is positive.
    pins: BTreeMap<K::Owned, u32>,
    /// Committed bytes currently resident.
    used: u64,
    /// Monotonic recency clock.
    seq: u64,
    /// Partitions not admitted at commit, in total.
    spills: u64,
}

impl<K, P> ChainCacheBook<K, P>
where
    K: Ord + ToOwned + ?Sized,
    K::Owned: Ord,
{
    /// An empty book with the given committed-byte budget.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            entries: BTreeMap::new(),
            staged: BTreeMap::new(),
            pins: BTreeMap::new(),
            used: 0,
            seq: 0,
            spills: 0,
        }
    }

    /// Committed bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Partitions not admitted at commit so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Committed bytes of currently pinned files.
    pub fn pinned_bytes(&self) -> u64 {
        self.pins
            .keys()
            .filter_map(|f| self.entries.get::<K>(f.borrow()))
            .flat_map(BTreeMap::values)
            .map(|e| e.bytes)
            .sum()
    }

    /// The committed partition `(file, pid)`: its holder and payload.
    pub fn get(&self, file: &K, pid: PartitionId) -> Option<(NodeId, &P)> {
        let e = self.entries.get(file)?.get(&pid)?;
        Some((e.holder, &e.payload))
    }

    /// The node holding the committed partition `(file, pid)`.
    pub fn holder(&self, file: &K, pid: PartitionId) -> Option<NodeId> {
        self.get(file, pid).map(|(holder, _)| holder)
    }

    /// Stages one partition of `file` written on `holder`, pending the
    /// file's commit. Re-staging a partition (a retried task) replaces
    /// the previous staging.
    pub fn stage(&mut self, file: &K, pid: PartitionId, holder: NodeId, bytes: u64, payload: P) {
        let entry = Entry {
            holder,
            bytes,
            seq: 0,
            payload,
        };
        self.staged
            .entry(file.to_owned())
            .or_default()
            .insert(pid, entry);
    }

    /// Commits every partition staged for `file` in ascending partition
    /// order, evicting unpinned entries oldest-first while a partition
    /// does not fit. Returns how many partitions spilled.
    pub fn commit(&mut self, file: &K) -> u64 {
        let Some(staged) = self.staged.remove(file) else {
            return 0;
        };
        let mut spilled = 0;
        for (pid, mut entry) in staged {
            // A new version of a committed partition frees the old one.
            self.remove(file, pid);
            if entry.bytes > self.budget {
                spilled += 1;
                continue;
            }
            while self.used + entry.bytes > self.budget {
                let Some((victim, vpid)) = self.lru_unpinned() else {
                    break;
                };
                self.remove(victim.borrow(), vpid);
            }
            if self.used + entry.bytes > self.budget {
                spilled += 1;
                continue;
            }
            self.seq += 1;
            entry.seq = self.seq;
            self.used += entry.bytes;
            self.entries
                .entry(file.to_owned())
                .or_default()
                .insert(pid, entry);
        }
        self.spills += spilled;
        spilled
    }

    /// Drops what is staged for `file` without committing it.
    pub fn abort(&mut self, file: &K) {
        self.staged.remove(file);
    }

    /// Pins `file`: its entries cannot be evicted until the matching
    /// [`ChainCacheBook::unpin`]. Stamps all of its entries most
    /// recently used (the file is about to be read). Pins nest.
    pub fn pin(&mut self, file: &K) {
        *self.pins.entry(file.to_owned()).or_default() += 1;
        self.seq += 1;
        for e in self
            .entries
            .get_mut(file)
            .into_iter()
            .flat_map(|p| p.values_mut())
        {
            e.seq = self.seq;
        }
    }

    /// Releases one pin of `file`; a file that is not pinned is left
    /// alone.
    pub fn unpin(&mut self, file: &K) {
        if let Some(count) = self.pins.get_mut(file) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(file);
            }
        }
    }

    /// Drops the committed entry `(file, pid)` only, leaving any staged
    /// version (a stale copy found on read).
    pub fn remove(&mut self, file: &K, pid: PartitionId) {
        let Some(parts) = self.entries.get_mut(file) else {
            return;
        };
        if let Some(e) = parts.remove(&pid) {
            self.used -= e.bytes;
        }
        if parts.is_empty() {
            self.entries.remove(file);
        }
    }

    /// Drops every committed and staged partition of `file`.
    pub fn invalidate_file(&mut self, file: &K) {
        if let Some(parts) = self.entries.remove(file) {
            self.used -= parts.values().map(|e| e.bytes).sum::<u64>();
        }
        self.staged.remove(file);
    }

    /// Drops the committed and staged versions of one partition.
    pub fn invalidate_partition(&mut self, file: &K, pid: PartitionId) {
        self.remove(file, pid);
        if let Some(parts) = self.staged.get_mut(file) {
            parts.remove(&pid);
        }
    }

    /// Drops every committed and staged partition `node` holds.
    pub fn invalidate_node(&mut self, node: NodeId) {
        for parts in self.entries.values_mut() {
            parts.retain(|_, e| {
                if e.holder == node {
                    self.used -= e.bytes;
                }
                e.holder != node
            });
        }
        self.entries.retain(|_, parts| !parts.is_empty());
        for parts in self.staged.values_mut() {
            parts.retain(|_, e| e.holder != node);
        }
        self.staged.retain(|_, parts| !parts.is_empty());
    }

    /// The least recently used entry of an unpinned file; ties (one
    /// pin stamps a whole file) break by partition id.
    fn lru_unpinned(&self) -> Option<(K::Owned, PartitionId)> {
        self.entries
            .iter()
            .filter(|(f, _)| !self.pins.contains_key::<K>((*f).borrow()))
            .flat_map(|(f, parts)| parts.iter().map(move |(pid, e)| ((e.seq, *pid), f)))
            .min_by_key(|(order, _)| *order)
            .map(|((_, pid), f)| (f.borrow().to_owned(), pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Book = ChainCacheBook<str, ()>;

    fn stage(book: &mut Book, file: &str, pid: u32, node: u32, bytes: u64) {
        book.stage(file, PartitionId(pid), NodeId(node), bytes, ());
    }

    fn held(book: &Book, file: &str, pid: u32) -> bool {
        book.holder(file, PartitionId(pid)).is_some()
    }

    /// Committed partitions resident.
    fn resident_parts(book: &Book) -> usize {
        book.entries.values().map(BTreeMap::len).sum()
    }

    #[test]
    fn tiny_budget_spills_everything() {
        let mut book = Book::new(5);
        stage(&mut book, "out", 0, 0, 10);
        stage(&mut book, "out", 1, 1, 10);
        assert_eq!(book.commit("out"), 2);
        assert_eq!(book.spills(), 2);
        assert_eq!(resident_parts(&book), 0);
        assert!(!held(&book, "out", 0));
    }

    #[test]
    fn lru_evicts_oldest_unpinned_and_respects_pins() {
        let mut book = Book::new(25);
        stage(&mut book, "a", 0, 0, 10);
        book.commit("a");
        stage(&mut book, "b", 0, 1, 10);
        book.commit("b");
        assert_eq!(resident_parts(&book), 2);

        // Pin "a": committing "c" must evict "b" (oldest unpinned), not "a".
        book.pin("a");
        stage(&mut book, "c", 0, 2, 10);
        book.commit("c");
        assert!(held(&book, "a", 0));
        assert!(!held(&book, "b", 0));
        assert!(held(&book, "c", 0));
        assert_eq!(book.pinned_bytes(), 10);
        book.unpin("a");
        assert_eq!(book.pinned_bytes(), 0);

        // With everything unpinned, the next commit evicts oldest-first.
        stage(&mut book, "d", 0, 3, 20);
        book.commit("d");
        assert!(held(&book, "d", 0));
        assert_eq!(book.used(), 20);
    }

    #[test]
    fn eviction_ties_break_by_partition_id() {
        let mut book = Book::new(30);
        for pid in 0..3 {
            stage(&mut book, "a", pid, pid, 10);
        }
        book.commit("a");
        // One pin stamps all three partitions with the same recency.
        book.pin("a");
        book.unpin("a");
        stage(&mut book, "b", 0, 3, 10);
        book.commit("b");
        let kept: Vec<bool> = (0..3).map(|pid| held(&book, "a", pid)).collect();
        assert_eq!(kept, vec![false, true, true]);
    }

    #[test]
    fn pinned_entries_spill_rather_than_evict() {
        let mut book = Book::new(10);
        stage(&mut book, "a", 0, 0, 10);
        book.commit("a");
        book.pin("a");
        stage(&mut book, "b", 0, 1, 10);
        // "a" is pinned and fills the budget: "b" spills.
        assert_eq!(book.commit("b"), 1);
        assert!(held(&book, "a", 0));
        assert!(!held(&book, "b", 0));
        assert_eq!(book.spills(), 1);
    }

    #[test]
    fn invalidations_drop_committed_and_staged() {
        let mut book = Book::new(1024);
        stage(&mut book, "x", 0, 0, 10);
        stage(&mut book, "x", 1, 1, 10);
        book.commit("x");
        stage(&mut book, "y", 0, 1, 10);

        book.invalidate_partition("x", PartitionId(0));
        assert!(!held(&book, "x", 0));
        assert!(held(&book, "x", 1));

        // Node 1 dies: its committed entry and its staged partition go.
        book.invalidate_node(NodeId(1));
        assert!(!held(&book, "x", 1));
        book.commit("y");
        assert!(!held(&book, "y", 0));

        stage(&mut book, "z", 0, 0, 10);
        book.commit("z");
        book.invalidate_file("z");
        assert_eq!(resident_parts(&book), 0);
        assert_eq!(book.used(), 0);
    }

    #[test]
    fn abort_drops_staged_only() {
        let mut book = Book::new(1024);
        stage(&mut book, "x", 0, 0, 10);
        book.commit("x");
        stage(&mut book, "y", 0, 0, 10);
        book.abort("y");
        book.commit("y");
        assert!(!held(&book, "y", 0));
        assert!(held(&book, "x", 0));
    }

    #[test]
    fn recommit_replaces_previous_version() {
        let mut book = Book::new(1024);
        stage(&mut book, "x", 0, 0, 10);
        book.commit("x");
        stage(&mut book, "x", 0, 1, 12);
        book.commit("x");
        assert_eq!(book.used(), 12);
        assert_eq!(resident_parts(&book), 1);
        assert_eq!(book.holder("x", PartitionId(0)), Some(NodeId(1)));
        // Dropping the committed copy leaves nothing resident.
        book.remove("x", PartitionId(0));
        assert_eq!(book.used(), 0);
        assert_eq!(resident_parts(&book), 0);
    }

    /// Committed bytes, recomputed from the entries.
    fn resident(book: &ChainCacheBook<u32, ()>) -> u64 {
        book.entries
            .values()
            .flat_map(BTreeMap::values)
            .map(|e| e.bytes)
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            max_shrink_iters: 50,
            ..ProptestConfig::default()
        })]

        /// Random stage / commit / abort / pin / unpin / invalidate
        /// sequences keep the budget accounting exact, never evict a
        /// pinned file at commit, admit in ascending partition order,
        /// and count every partition larger than the budget as a spill.
        #[test]
        fn book_invariants_hold_under_random_operations(
            budget in 0u64..60,
            ops in prop::collection::vec(
                (0u8..9, 0u32..3, 0u32..4, 0u32..3, 1u64..30),
                0usize..80,
            ),
        ) {
            let mut book = ChainCacheBook::<u32, ()>::new(budget);
            for (op, file, pid, node, bytes) in ops {
                let pid = PartitionId(pid);
                match op {
                    0 | 8 => book.stage(&file, pid, NodeId(node), bytes, ()),
                    1 => {
                        let staged: Vec<(PartitionId, u64)> = book
                            .staged
                            .get(&file)
                            .map(|parts| parts.iter().map(|(p, e)| (*p, e.bytes)).collect())
                            .unwrap_or_default();
                        let protected: Vec<(u32, PartitionId)> = book
                            .entries
                            .iter()
                            .filter(|(f, _)| book.pins.contains_key(*f))
                            .flat_map(|(f, parts)| parts.keys().map(move |p| (*f, *p)))
                            .filter(|&(f, p)| f != file || !staged.iter().any(|&(s, _)| s == p))
                            .collect();
                        let spills_before = book.spills();
                        let spilled = book.commit(&file);
                        prop_assert_eq!(book.spills(), spills_before + spilled);
                        for (f, p) in protected {
                            prop_assert!(book.holder(&f, p).is_some(), "pinned ({}, {:?}) evicted", f, p);
                        }
                        let oversize: Vec<PartitionId> = staged
                            .iter()
                            .filter(|&&(_, b)| b > budget)
                            .map(|&(p, _)| p)
                            .collect();
                        prop_assert!(spilled >= oversize.len() as u64);
                        for p in oversize {
                            prop_assert!(book.holder(&file, p).is_none());
                        }
                        // Admission order: recency stamps rise with pid.
                        let stamps: Vec<u64> = staged
                            .iter()
                            .filter_map(|(p, _)| book.entries.get(&file)?.get(p))
                            .map(|e| e.seq)
                            .collect();
                        prop_assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{:?}", stamps);
                    }
                    2 => book.abort(&file),
                    3 => book.pin(&file),
                    4 => book.unpin(&file),
                    5 => book.invalidate_file(&file),
                    6 => book.invalidate_partition(&file, pid),
                    _ => book.invalidate_node(NodeId(node)),
                }
                prop_assert_eq!(book.used(), resident(&book));
                prop_assert!(book.used() <= budget);
                prop_assert!(book.pins.values().all(|&c| c > 0));
            }
        }
    }
}
