//! Order-independent digests of record multisets.
//!
//! Two runs of a chain — one failure-free, one with failures and
//! recomputation — must produce the *same multiset* of output records.
//! [`OutputDigest`] summarizes a record multiset with commutative
//! aggregates (XOR of per-record MD5s, byte sums, counts), so two
//! digests are equal iff the multisets are equal (up to the collision
//! resistance of MD5-XOR, ample for integrity checking). This is the
//! engine-level analogue of the paper's per-record MD5 + byte-sum
//! correctness computations.

use crate::md5::Md5;
use bytes::Bytes;
use rcmp_model::Record;

/// Commutative digest of a multiset of records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutputDigest {
    /// Number of records.
    pub count: u64,
    /// XOR of `md5(key || value)` per record. XOR alone would let a
    /// duplicated+dropped pair cancel; combined with `count` and the
    /// sums below, accidental cancellation is implausible.
    pub md5_xor: u64,
    /// Wrapping sum of `md5(key || value)` per record (catches
    /// XOR-cancelling duplicate pairs).
    pub md5_sum: u64,
    /// Wrapping sum of all value bytes (the paper's byte-sum check).
    pub byte_sum: u64,
    /// Total value bytes.
    pub value_bytes: u64,
}

impl OutputDigest {
    /// Folds one record in.
    pub fn add_record(&mut self, rec: &Record) {
        let mut md5 = Md5::new();
        md5.update(&rec.key.to_le_bytes());
        md5.update(&rec.value);
        let h = md5.finish_u64();
        self.count += 1;
        self.md5_xor ^= h;
        self.md5_sum = self.md5_sum.wrapping_add(h);
        self.byte_sum = self
            .byte_sum
            .wrapping_add(rec.value.iter().map(|&b| b as u64).sum::<u64>());
        self.value_bytes += rec.value.len() as u64;
    }

    /// Digest of an iterator of records.
    pub fn of_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut d = Self::default();
        for r in records {
            d.add_record(r);
        }
        d
    }

    /// Digest of an encoded record stream.
    pub fn of_encoded(data: Bytes) -> rcmp_model::Result<Self> {
        let mut d = Self::default();
        for rec in rcmp_model::RecordReader::new(data) {
            d.add_record(&rec?);
        }
        Ok(d)
    }

    /// Merges another digest (digests of disjoint partitions combine to
    /// the digest of the union).
    pub fn merge(&mut self, other: &OutputDigest) {
        self.count += other.count;
        self.md5_xor ^= other.md5_xor;
        self.md5_sum = self.md5_sum.wrapping_add(other.md5_sum);
        self.byte_sum = self.byte_sum.wrapping_add(other.byte_sum);
        self.value_bytes += other.value_bytes;
    }
}

/// Digest of a whole DFS file (all partitions merged). The per-partition
/// digests are also returned, enabling partition-level comparisons
/// (recomputed partitions must match their originals exactly).
///
/// Partitions are digested in parallel (rayon): MD5 over every record
/// is the expensive part of golden-output validation, and partitions
/// are independent.
pub fn digest_file(
    dfs: &rcmp_dfs::Dfs,
    path: &str,
    reader: rcmp_model::NodeId,
) -> rcmp_model::Result<(OutputDigest, Vec<OutputDigest>)> {
    use rayon::prelude::*;
    let meta = dfs.file_meta(path)?;
    let per_partition: Vec<OutputDigest> = meta
        .partitions
        .par_iter()
        .map(|p| {
            let data = dfs.read_partition(path, p.id, reader)?;
            OutputDigest::of_encoded(data)
        })
        .collect::<rcmp_model::Result<Vec<_>>>()?;
    let mut total = OutputDigest::default();
    for d in &per_partition {
        total.merge(d);
    }
    Ok((total, per_partition))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64, v: &[u8]) -> Record {
        Record::new(k, v.to_vec())
    }

    #[test]
    fn order_independent() {
        let a = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y"), rec(3, b"z")]);
        let b = OutputDigest::of_records(&[rec(3, b"z"), rec(1, b"x"), rec(2, b"y")]);
        assert_eq!(a, b);
    }

    #[test]
    fn detects_missing_and_duplicate() {
        let full = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y")]);
        let missing = OutputDigest::of_records(&[rec(1, b"x")]);
        let duped = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y"), rec(2, b"y")]);
        assert_ne!(full, missing);
        assert_ne!(full, duped);
    }

    #[test]
    fn detects_xor_cancelling_pair() {
        // Duplicating one record and dropping another XORs to the same
        // value only if their hashes match; but even a double-duplicate
        // (XOR cancels) is caught by count and md5_sum.
        let base = OutputDigest::of_records(&[rec(1, b"x")]);
        let doubled = OutputDigest::of_records(&[rec(1, b"x"), rec(1, b"x"), rec(1, b"x")]);
        assert_eq!(base.md5_xor, doubled.md5_xor, "XOR alone is blind here");
        assert_ne!(base, doubled, "full digest catches it");
    }

    #[test]
    fn record_hash_is_md5_of_key_then_value() {
        let r = rec(0x0102_0304_0506_0708, &[0xab; 100]);
        let mut cat = r.key.to_le_bytes().to_vec();
        cat.extend_from_slice(&r.value);
        let d = OutputDigest::of_records([&r]);
        assert_eq!(d.md5_xor, crate::md5::md5_u64(&cat));
        assert_eq!(d.md5_sum, d.md5_xor);
    }

    #[test]
    fn merge_equals_union() {
        let mut left = OutputDigest::of_records(&[rec(1, b"x")]);
        let right = OutputDigest::of_records(&[rec(2, b"y")]);
        left.merge(&right);
        assert_eq!(
            left,
            OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y")])
        );
    }

    #[test]
    fn encoded_roundtrip() {
        let recs = vec![rec(1, b"ab"), rec(2, b"cd")];
        let mut w = rcmp_model::RecordWriter::new();
        for r in &recs {
            w.push(r);
        }
        let d = OutputDigest::of_encoded(w.finish()).unwrap();
        assert_eq!(d, OutputDigest::of_records(&recs));
        assert_eq!(d.value_bytes, 4);
        assert_eq!(d.count, 2);
    }
}
