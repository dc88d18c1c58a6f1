//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Every lottery in the simulated blockchains is driven by a cryptographic
//! hash — PoW grinds nonces against a target, ML-PoS hashes timestamps,
//! SL-PoS hashes public keys — so the substrate carries a real SHA-256
//! rather than a toy mixer. Verified against the NIST FIPS 180-4 example
//! vectors in the test suite.
//!
//! The compression function dispatches at runtime to the x86 SHA
//! extensions (`sha256rnds2`/`sha256msg1`/`sha256msg2`) when the CPU has
//! them — several times faster than the portable scalar rounds, which
//! remain the fallback on every other target. Both paths compute the
//! same FIPS 180-4 function, so digests are identical; the test suite
//! cross-checks them on CPUs where both are available.
//!
//! Lottery grinding hashes many independent messages, so the crate can
//! also compress two blocks at once (`compress_pair`). On SHA-NI the two
//! streams' message schedules and `sha256rnds2` chains interleave and
//! share each round-constant load, so one stream's round latency hides
//! behind the other's and a pair takes well under two compressions' time.
//! Without SHA-NI it runs the scalar rounds twice. The kernel is generic
//! over the stream count, and one stream is the plain compression. Pairs
//! are the widest it runs: each stream keeps about eight `xmm` values
//! live, and the legacy-SSE encoding of the SHA instructions addresses
//! only 16 registers.
//!
//! A [`Sha256`] holds a short message whole (up to `INLINE_BLOCKS`
//! blocks, more than any message the simulator hashes in pairs) and
//! compresses it only when it finishes. So two independent messages can
//! finish together (`Sha256::finalize_pair`): their padded blocks run
//! through the two-stream compression, straight from the two buffers, the
//! first blocks of both together and the longer message's rest alone.
//!
//! `Sha256::padded_template` serves the grinding midstates of
//! [`crate::hash`]: it lays out a message's final block(s) with a hole for
//! bytes not known yet, so each trial copies the template, fills the hole
//! and compresses, with no buffering or padding work.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Whole blocks of message a [`Sha256`] buffers before it compresses
/// any. Every message the simulator finishes in pairs is at most 109
/// bytes long, so it stays in the buffer until it finishes.
const INLINE_BLOCKS: usize = 2;

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    /// Chaining state after the blocks compressed so far.
    state: [u32; 8],
    /// The bytes absorbed since then, at most `INLINE_BLOCKS` blocks, and
    /// one more block for the padding they may need.
    buffer: [[u8; 64]; INLINE_BLOCKS + 1],
    buffer_len: usize,
    /// Bytes compressed into `state` so far.
    compressed: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [[0u8; 64]; INLINE_BLOCKS + 1],
            buffer_len: 0,
            compressed: 0,
        }
    }

    /// Absorbs `data`. It is only buffered until the buffer's
    /// `INLINE_BLOCKS` blocks are full and more data follows; then those
    /// blocks are compressed.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let at = self.buffer_len;
        let end = at + data.len();
        if end <= 64 * INLINE_BLOCKS {
            self.buffer.as_flattened_mut()[at..end].copy_from_slice(data);
            self.buffer_len = end;
        } else {
            self.spill(data);
        }
    }

    /// Absorbs `data` that overflows the inline blocks, compressing them
    /// each time they are full and more data follows.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, mut input: &[u8]) {
        loop {
            let at = self.buffer_len;
            let take = (64 * INLINE_BLOCKS - at).min(input.len());
            self.buffer.as_flattened_mut()[at..at + take].copy_from_slice(&input[..take]);
            self.buffer_len = at + take;
            input = &input[take..];
            if input.is_empty() {
                return;
            }
            for block in &self.buffer[..INLINE_BLOCKS] {
                compress(&mut self.state, block);
            }
            self.compressed = self
                .compressed
                .checked_add(64 * INLINE_BLOCKS as u64)
                .expect("SHA-256 input exceeds u64 byte count");
            self.buffer_len = 0;
        }
    }

    /// Finishes and returns the 32-byte digest.
    #[must_use]
    #[inline]
    pub fn finalize(mut self) -> [u8; 32] {
        let blocks = self.pad();
        for block in &self.buffer[..blocks] {
            compress(&mut self.state, block);
        }
        digest(&self.state)
    }

    /// Finishes two messages at once: `[a.finalize(), b.finalize()]`, bit
    /// for bit. The padded blocks both messages have run as two-stream
    /// compressions; the longer message's remaining blocks run alone.
    #[must_use]
    #[inline]
    pub(crate) fn finalize_pair(mut a: Self, mut b: Self) -> [[u8; 32]; 2] {
        let (blocks_a, blocks_b) = (a.pad(), b.pad());
        let both = blocks_a.min(blocks_b);
        for (block_a, block_b) in a.buffer[..both].iter().zip(&b.buffer[..both]) {
            compress_pair([&mut a.state, &mut b.state], [block_a, block_b]);
        }
        for block in &a.buffer[both..blocks_a] {
            compress(&mut a.state, block);
        }
        for block in &b.buffer[both..blocks_b] {
            compress(&mut b.state, block);
        }
        [digest(&a.state), digest(&b.state)]
    }

    /// Bytes absorbed so far.
    #[inline]
    fn total_len(&self) -> u64 {
        self.compressed
            .checked_add(self.buffer_len as u64)
            .expect("SHA-256 input exceeds u64 byte count")
    }

    /// Pads the buffered bytes in place and returns how many blocks the
    /// padded remainder of the message takes (the buffer's spare block
    /// holds any padding the inline blocks leave no room for).
    ///
    /// Padding is written in bulk (one `0x80`, a zero fill, the 64-bit
    /// big-endian bit length) rather than byte-at-a-time: done naively it
    /// costs as much as the compression itself.
    #[inline]
    fn pad(&mut self) -> usize {
        let n = self.buffer_len;
        let blocks = (n + 9).div_ceil(64);
        let bit_len = self.total_len().wrapping_mul(8);
        let bytes = self.buffer.as_flattened_mut();
        bytes[n] = 0x80;
        bytes[n + 1..64 * blocks - 8].fill(0);
        bytes[64 * blocks - 8..64 * blocks].copy_from_slice(&bit_len.to_be_bytes());
        blocks
    }

    /// Lays out the final block(s) of the message continued by `hole`
    /// bytes not known yet: the message's tail after its last whole block,
    /// `hole` zero bytes, the `0x80` terminator, the zero fill and the
    /// 64-bit big-endian bit length of the continued message.
    ///
    /// Returns the chaining state after the whole blocks, the two-block
    /// template, how many of its blocks are used (1, or 2 when the tail
    /// leaves no room for the padding) and the hole's offset. Writing the
    /// continuation into the hole and compressing the used blocks from the
    /// state gives the digest [`finalize`](Self::finalize) returns after
    /// `update(continuation)`. This is a second implementation of the
    /// padding on purpose: callers that check a template's output against
    /// `finalize` check the two against each other.
    ///
    /// # Panics
    /// Panics if the continued tail and its padding do not fit in two
    /// blocks, which takes a `hole` above 56 bytes.
    pub(crate) fn padded_template(&self, hole: usize) -> ([u32; 8], [[u8; 64]; 2], usize, usize) {
        // Compress the buffered whole blocks; the tail starts the template.
        let whole = self.buffer_len / 64;
        let mut state = self.state;
        for block in &self.buffer[..whole] {
            compress(&mut state, block);
        }
        let n = self.buffer_len % 64;
        let terminator = n + hole;
        assert!(
            terminator + 9 <= 128,
            "a {hole}-byte hole needs more than two blocks"
        );
        let blocks = if terminator + 9 <= 64 { 1 } else { 2 };
        let bit_len = self
            .total_len()
            .checked_add(hole as u64)
            .expect("SHA-256 input exceeds u64 byte count")
            .wrapping_mul(8);
        let mut template = [[0u8; 64]; 2];
        let bytes = template.as_flattened_mut();
        bytes[..n].copy_from_slice(&self.buffer[whole][..n]);
        bytes[terminator] = 0x80;
        bytes[64 * blocks - 8..64 * blocks].copy_from_slice(&bit_len.to_be_bytes());
        (state, template, blocks, n)
    }
}

/// The big-endian digest bytes of a final chaining state.
pub(crate) fn digest(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function over one 512-bit block:
/// hardware-accelerated when the CPU supports it, portable scalar rounds
/// otherwise.
#[inline]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` verified the sha/ssse3/sse4.1 features at
        // runtime.
        unsafe { shani::compress([state], [block]) };
        return;
    }
    compress_scalar(state, block);
}

/// Two independent compressions, `blocks[i]` into `states[i]`: the result
/// equals two [`compress`] calls. On SHA-NI the two streams' rounds
/// interleave, so a pair takes well under the time of two compressions;
/// without it the scalar rounds run twice.
#[inline]
pub(crate) fn compress_pair(states: [&mut [u32; 8]; 2], blocks: [&[u8; 64]; 2]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` verified the sha/ssse3/sse4.1 features at
        // runtime.
        unsafe { shani::compress(states, blocks) };
        return;
    }
    let [a, b] = states;
    compress_scalar(a, blocks[0]);
    compress_scalar(b, blocks[1]);
}

/// Portable scalar SHA-256 rounds (the reference path).
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Hardware SHA-256 compression via the x86 SHA extensions.
///
/// A faithful transcription of the standard `sha256rnds2` schedule (as
/// published in Intel's SHA extensions programming reference): state is
/// repacked into the ABEF/CDGH lane order the instruction expects, the
/// message schedule advances four lanes at a time through
/// `sha256msg1`/`sha256msg2`, and the result is repacked to the
/// little-endian word order the scalar path stores. The NIST vectors and
/// a scalar cross-check test pin the equivalence.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached runtime feature probe: 0 = unknown, 1 = available, 2 = not.
    static DETECTED: AtomicU8 = AtomicU8::new(0);

    /// Whether the sha/ssse3/sse4.1 features needed by [`compress`] are
    /// present, probed once per process.
    #[inline]
    pub(super) fn available() -> bool {
        match DETECTED.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::is_x86_feature_detected!("sha")
                    && std::is_x86_feature_detected!("ssse3")
                    && std::is_x86_feature_detected!("sse4.1");
                DETECTED.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }

    /// `N` independent compressions, `blocks[s]` into `states[s]`. The
    /// streams advance round by round together, sharing each round
    /// constant load, so the out-of-order core overlaps their
    /// `sha256rnds2` chains.
    ///
    /// # Safety
    /// The caller must have verified the `sha`, `ssse3` and `sse4.1` CPU
    /// features (see [`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress<const N: usize>(
        states: [&mut [u32; 8]; N],
        blocks: [&[u8; 64]; N],
    ) {
        // Big-endian byte swap per 32-bit lane for the message loads.
        #[allow(clippy::cast_possible_wrap)]
        let flip = _mm_set_epi64x(
            0x0C0D_0E0F_0809_0A0Bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );
        let zero = _mm_setzero_si128();
        let mut abef = [zero; N];
        let mut cdgh = [zero; N];
        let mut w = [[zero; 4]; N];
        for s in 0..N {
            // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH pairs
            // `sha256rnds2` consumes.
            let dcba = _mm_loadu_si128(states[s].as_ptr().cast::<__m128i>());
            let hgfe = _mm_loadu_si128(states[s].as_ptr().add(4).cast::<__m128i>());
            let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
            let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
            abef[s] = _mm_alignr_epi8::<8>(cdab, efgh);
            cdgh[s] = _mm_blend_epi16::<0xF0>(efgh, cdab);
            for (j, lane) in w[s].iter_mut().enumerate() {
                let bytes = _mm_loadu_si128(blocks[s].as_ptr().add(16 * j).cast::<__m128i>());
                *lane = _mm_shuffle_epi8(bytes, flip);
            }
        }
        let abef_save = abef;
        let cdgh_save = cdgh;

        for i in 0..16 {
            let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>());
            for s in 0..N {
                // `w[s]` holds message words W[i..i + 4], four per lane,
                // and shifts by one group per round, so every index is a
                // constant and the schedule stays in registers.
                let [w0, w1, w2, w3] = w[s];
                let wk = _mm_add_epi32(w0, k);
                cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32::<0x0E>(wk));
                // W[i+4] = msg2(msg1(W[i], W[i+1]) + alignr(W[i+3], W[i+2], 4), W[i+3]);
                // the last four rounds need no new words.
                let next = if i < 12 {
                    _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
                        w3,
                    )
                } else {
                    w0
                };
                w[s] = [w1, w2, w3, next];
            }
        }

        for s in 0..N {
            let abef = _mm_add_epi32(abef[s], abef_save[s]);
            let cdgh = _mm_add_epi32(cdgh[s], cdgh_save[s]);
            // Repack ABEF / CDGH back to [a,b,c,d] / [e,f,g,h].
            let feba = _mm_shuffle_epi32::<0x1B>(abef);
            let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
            let out_dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
            let out_hgfe = _mm_alignr_epi8::<8>(dchg, feba);
            _mm_storeu_si128(states[s].as_mut_ptr().cast::<__m128i>(), out_dcba);
            _mm_storeu_si128(states[s].as_mut_ptr().add(4).cast::<__m128i>(), out_hgfe);
        }
    }
}

/// One-shot convenience: SHA-256 of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Double SHA-256 (Bitcoin-style block/transaction identifiers).
#[must_use]
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        // Feed in irregular chunk sizes crossing block boundaries.
        let mut h = Sha256::new();
        let mut idx = 0;
        for size in [1usize, 7, 63, 64, 65, 128, 300, 382] {
            let end = (idx + size).min(data.len());
            h.update(&data[idx..end]);
            idx = end;
        }
        h.update(&data[idx..]);
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56 and 64 bytes exercise the padding edge cases.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {len}");
        }
    }

    #[test]
    fn double_sha256_known_value() {
        // sha256d("hello") — Bitcoin-style.
        assert_eq!(
            hex(&sha256d(b"hello")),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"miner A"), sha256(b"miner B"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_scalar_compressions_agree() {
        if !shani::available() {
            return; // nothing to cross-check on this CPU
        }
        let mut hw = H0;
        let mut scalar = H0;
        for round in 0u32..200 {
            let block: [u8; 64] =
                std::array::from_fn(|j| (round.wrapping_mul(31).wrapping_add(j as u32 * 7)) as u8);
            // SAFETY: guarded by `available()` above.
            unsafe { shani::compress([&mut hw], [&block]) };
            compress_scalar(&mut scalar, &block);
            assert_eq!(hw, scalar, "diverged at block {round}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn two_stream_and_scalar_compressions_agree() {
        if !shani::available() {
            return; // nothing to cross-check on this CPU
        }
        let mut hw = [H0, H0];
        let mut scalar = [H0, H0];
        for round in 0u32..200 {
            let a: [u8; 64] =
                std::array::from_fn(|j| (round.wrapping_mul(31).wrapping_add(j as u32 * 7)) as u8);
            let mut b: [u8; 64] =
                std::array::from_fn(|j| (round.wrapping_mul(57) ^ (j as u32 * 13)) as u8);
            if round % 5 == 0 {
                // An equal pair: same state, same block in both streams.
                b = a;
                hw[1] = hw[0];
                scalar[1] = scalar[0];
            }
            let [hw_a, hw_b] = &mut hw;
            // SAFETY: guarded by `available()` above.
            unsafe { shani::compress([hw_a, hw_b], [&a, &b]) };
            compress_scalar(&mut scalar[0], &a);
            compress_scalar(&mut scalar[1], &b);
            assert_eq!(hw, scalar, "diverged at block pair {round}");
        }
    }

    #[test]
    fn pair_dispatch_equals_two_compressions() {
        let mut pair = [H0, H0];
        let mut single = [H0, H0];
        for round in 0u32..20 {
            let a: [u8; 64] = std::array::from_fn(|j| (round * 3 + j as u32) as u8);
            let b: [u8; 64] = std::array::from_fn(|j| ((round * 11) ^ j as u32) as u8);
            let [pa, pb] = &mut pair;
            compress_pair([pa, pb], [&a, &b]);
            compress(&mut single[0], &a);
            compress(&mut single[1], &b);
            assert_eq!(pair, single, "diverged at block pair {round}");
        }
    }

    /// SHA-256 by the book: the whole message padded at once, then its
    /// blocks compressed with the scalar rounds.
    fn reference(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            compress_scalar(&mut state, block.try_into().expect("64-byte block"));
        }
        digest(&state)
    }

    #[test]
    fn every_length_matches_the_reference_alone_and_in_pairs() {
        // Lengths 0..=320 cover messages of one to six blocks, the inline
        // buffer's 128 bytes and beyond; the partners pair messages of
        // equal and of different block counts.
        let message = |len: usize, salt: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ salt)
                .collect()
        };
        for len in 0..=320usize {
            let data = message(len, 0x5A);
            let expect = reference(&data);
            assert_eq!(sha256(&data), expect, "length {len}");
            for other_len in [len, (len + 64) % 321, (len * 7 + 13) % 321, 320 - len] {
                let other = message(other_len, 0xC3);
                let (mut a, mut b) = (Sha256::new(), Sha256::new());
                a.update(&data);
                // Fed in 33-byte pieces, so the inline blocks fill and
                // spill part-way through an update.
                for piece in other.chunks(33) {
                    b.update(piece);
                }
                assert_eq!(
                    Sha256::finalize_pair(a, b),
                    [expect, reference(&other)],
                    "lengths {len} and {other_len}"
                );
            }
        }
    }

    #[test]
    fn padded_template_completes_the_message() {
        // Every tail length and hole size the grinding midstates can meet:
        // filling the hole and compressing the template's blocks must give
        // the digest of the continued message.
        for prefix_len in 0..=200usize {
            let prefix: Vec<u8> = (0..prefix_len).map(|i| (i * 7 + 3) as u8).collect();
            let mut h = Sha256::new();
            h.update(&prefix);
            for hole in [0usize, 1, 8, 9] {
                let continuation: Vec<u8> = (0..hole).map(|i| 0xF0 ^ i as u8).collect();
                let (mut state, mut template, blocks, at) = h.padded_template(hole);
                template.as_flattened_mut()[at..at + hole].copy_from_slice(&continuation);
                for block in &template[..blocks] {
                    compress(&mut state, block);
                }
                let mut full = h.clone();
                full.update(&continuation);
                assert_eq!(
                    digest(&state),
                    full.finalize(),
                    "prefix {prefix_len}, hole {hole}"
                );
            }
        }
    }
}
