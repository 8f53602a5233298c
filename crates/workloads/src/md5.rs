//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper's workload computes an MD5 hash of every record value as a
//! correctness check. No cryptographic crate is in the approved
//! dependency set, so the digest is implemented here; it is used for
//! integrity checking, not security.
//!
//! The kernel never allocates: full 64-byte blocks compress straight
//! from the input slice, only a partial block is buffered (on the
//! stack), and the four rounds are unrolled with constant message
//! indices and shifts.

/// K[i] = floor(|sin(i + 1)| * 2^32), per RFC 1321.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, //
    0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501, //
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, //
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, //
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, //
    0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8, //
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, //
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, //
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, //
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, //
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, //
    0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, //
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, //
    0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1, //
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, //
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Initial state (A, B, C, D).
const INIT: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (!x & z)
}

#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    (x & z) | (y & !z)
}

#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

#[inline(always)]
fn i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

/// One MD5 step: `a = b + ((a + fun(b, c, d) + m + k) <<< s)`.
macro_rules! step {
    ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($fun($b, $c, $d))
                .wrapping_add($m)
                .wrapping_add($k)
                .rotate_left($s),
        );
    };
}

/// Compresses one 64-byte block into `state`.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, c) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;

    step!(f, a, b, c, d, m[0], K[0], 7);
    step!(f, d, a, b, c, m[1], K[1], 12);
    step!(f, c, d, a, b, m[2], K[2], 17);
    step!(f, b, c, d, a, m[3], K[3], 22);
    step!(f, a, b, c, d, m[4], K[4], 7);
    step!(f, d, a, b, c, m[5], K[5], 12);
    step!(f, c, d, a, b, m[6], K[6], 17);
    step!(f, b, c, d, a, m[7], K[7], 22);
    step!(f, a, b, c, d, m[8], K[8], 7);
    step!(f, d, a, b, c, m[9], K[9], 12);
    step!(f, c, d, a, b, m[10], K[10], 17);
    step!(f, b, c, d, a, m[11], K[11], 22);
    step!(f, a, b, c, d, m[12], K[12], 7);
    step!(f, d, a, b, c, m[13], K[13], 12);
    step!(f, c, d, a, b, m[14], K[14], 17);
    step!(f, b, c, d, a, m[15], K[15], 22);

    step!(g, a, b, c, d, m[1], K[16], 5);
    step!(g, d, a, b, c, m[6], K[17], 9);
    step!(g, c, d, a, b, m[11], K[18], 14);
    step!(g, b, c, d, a, m[0], K[19], 20);
    step!(g, a, b, c, d, m[5], K[20], 5);
    step!(g, d, a, b, c, m[10], K[21], 9);
    step!(g, c, d, a, b, m[15], K[22], 14);
    step!(g, b, c, d, a, m[4], K[23], 20);
    step!(g, a, b, c, d, m[9], K[24], 5);
    step!(g, d, a, b, c, m[14], K[25], 9);
    step!(g, c, d, a, b, m[3], K[26], 14);
    step!(g, b, c, d, a, m[8], K[27], 20);
    step!(g, a, b, c, d, m[13], K[28], 5);
    step!(g, d, a, b, c, m[2], K[29], 9);
    step!(g, c, d, a, b, m[7], K[30], 14);
    step!(g, b, c, d, a, m[12], K[31], 20);

    step!(h, a, b, c, d, m[5], K[32], 4);
    step!(h, d, a, b, c, m[8], K[33], 11);
    step!(h, c, d, a, b, m[11], K[34], 16);
    step!(h, b, c, d, a, m[14], K[35], 23);
    step!(h, a, b, c, d, m[1], K[36], 4);
    step!(h, d, a, b, c, m[4], K[37], 11);
    step!(h, c, d, a, b, m[7], K[38], 16);
    step!(h, b, c, d, a, m[10], K[39], 23);
    step!(h, a, b, c, d, m[13], K[40], 4);
    step!(h, d, a, b, c, m[0], K[41], 11);
    step!(h, c, d, a, b, m[3], K[42], 16);
    step!(h, b, c, d, a, m[6], K[43], 23);
    step!(h, a, b, c, d, m[9], K[44], 4);
    step!(h, d, a, b, c, m[12], K[45], 11);
    step!(h, c, d, a, b, m[15], K[46], 16);
    step!(h, b, c, d, a, m[2], K[47], 23);

    step!(i, a, b, c, d, m[0], K[48], 6);
    step!(i, d, a, b, c, m[7], K[49], 10);
    step!(i, c, d, a, b, m[14], K[50], 15);
    step!(i, b, c, d, a, m[5], K[51], 21);
    step!(i, a, b, c, d, m[12], K[52], 6);
    step!(i, d, a, b, c, m[3], K[53], 10);
    step!(i, c, d, a, b, m[10], K[54], 15);
    step!(i, b, c, d, a, m[1], K[55], 21);
    step!(i, a, b, c, d, m[8], K[56], 6);
    step!(i, d, a, b, c, m[15], K[57], 10);
    step!(i, c, d, a, b, m[6], K[58], 15);
    step!(i, b, c, d, a, m[13], K[59], 21);
    step!(i, a, b, c, d, m[4], K[60], 6);
    step!(i, d, a, b, c, m[11], K[61], 10);
    step!(i, c, d, a, b, m[2], K[62], 15);
    step!(i, b, c, d, a, m[9], K[63], 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Incremental MD5: feed any number of slices with [`Md5::update`],
/// then read the digest with [`Md5::finish`]. Hashing `a` then `b`
/// equals hashing `a ‖ b`, without building the concatenation.
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    /// The pending partial block (`buf[..buf_len]`).
    buf: [u8; 64],
    buf_len: usize,
    /// Message bytes fed so far.
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Self {
            state: INIT,
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads the message (0x80, zeros, 64-bit little-endian bit length)
    /// and returns the digest.
    pub fn finish(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 16];
        for (o, s) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// First 8 bytes of [`Md5::finish`] as a little-endian u64.
    pub fn finish_u64(self) -> u64 {
        let d = self.finish();
        u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }
}

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finish()
}

/// First 8 bytes of the MD5 digest as a little-endian u64 — a compact
/// per-record fingerprint for the workload's correctness accounting.
pub fn md5_u64(data: &[u8]) -> u64 {
    let mut h = Md5::new();
    h.update(data);
    h.finish_u64()
}

/// Hex rendering of a digest (for tests and reports).
pub fn to_hex(digest: &[u8; 16]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(&to_hex(&md5(input.as_bytes())), expect, "md5({input:?})");
        }
    }

    /// Known answers around the 56-byte padding boundary and the 64-byte
    /// block boundary, for `len` bytes of 0xab (from coreutils `md5sum`).
    #[test]
    fn padding_boundaries() {
        let cases: &[(usize, &str)] = &[
            (55, "07be93c8d206e16b64469e97c3587951"),
            (56, "9d555cfe0b8ae686838fbe4c5067f494"),
            (57, "542eb2ad9912857953231cb06f02cb2c"),
            (63, "3a5a0e910bbb3736b1156774a444a8b8"),
            (64, "5bb6f6136cad3c71da7caae9a81b6492"),
            (65, "f8a1e899d5636d0a18afe718664a5ff3"),
            (119, "069211ad91a5370a5372815260b79262"),
            (120, "fb0e099d4ca256d32b78f7fb20defc80"),
            (128, "745aba4a32bb14875786154650fd4606"),
        ];
        for &(len, expect) in cases {
            assert_eq!(to_hex(&md5(&vec![0xabu8; len])), expect, "len {len}");
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 200] {
            let whole = md5(&data[..len]);
            for cut in 0..=len {
                let mut h = Md5::new();
                h.update(&data[..cut]);
                h.update(&data[cut..len]);
                assert_eq!(h.finish(), whole, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn md5_u64_is_prefix() {
        let d = md5(b"hello");
        assert_eq!(
            md5_u64(b"hello"),
            u64::from_le_bytes(d[0..8].try_into().unwrap())
        );
    }
}
