//! Hash values and domain-separated hashing.
//!
//! [`Hash256`] wraps a 32-byte SHA-256 digest and converts losslessly to
//! [`U256`] so lottery comparisons (`Hash(…) < D·stake`) are exact 256-bit
//! arithmetic, matching the paper's model where `Hash(·)` is uniform on
//! `[0, 2²⁵⁶ − 1]`.
//!
//! [`HashBuilder`] provides domain separation: every hash in the simulator
//! names its purpose (`"pow-nonce"`, `"mlpos-kernel"`, …) so unrelated
//! lotteries can never collide structurally.
//!
//! [`HashMidstate`] is the grinding path. PoW nonce trials and ML-PoS
//! timestamp trials hash one fixed prefix followed by a varying `u64`, so
//! the midstate keeps the prefix's chaining state and a padded template
//! of the final block(s): a trial copies the template, writes its value
//! and compresses. [`HashMidstate::finish_u64_pair`] finishes two trials
//! at once through the two-stream compression of [`mod@crate::sha256`], and
//! the lottery engines feed their trials to it in order, two at a time.
//! Every digest equals the full [`HashBuilder`] path's bit for bit; the
//! engines' `verify` methods still take that full path, so each block
//! appended to a chain re-checks the template.
//!
//! The chain's per-block bookkeeping hashes short independent messages:
//! commitments, transaction ids, the nodes of one Merkle level, the
//! SL-PoS and FSL-PoS per-miner draws. `finish_all` finishes such a
//! sequence of builders two at a time (`HashBuilder::finish_pair`), again
//! through the two-stream compression, and yields the digests in order.

use crate::sha256::{compress, compress_pair, digest, Sha256};
use crate::u256::U256;
use std::fmt;

/// A 256-bit hash value (SHA-256 digest).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash (used as the genesis parent).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Interprets the digest as a big-endian 256-bit integer.
    #[must_use]
    pub fn to_u256(&self) -> U256 {
        U256::from_be_bytes(self.0)
    }

    /// Interprets the digest as a uniform sample in `[0, 1)` — the paper's
    /// `Hash(·)/2²⁵⁶ ~ U(0, 1)` idealization.
    #[must_use]
    pub fn as_unit_f64(&self) -> f64 {
        self.to_u256().as_unit_f64()
    }

    /// Raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex prefix for logs.
    #[must_use]
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Builder for domain-separated hashes.
///
/// The domain string is length-prefixed and absorbed first, then each field
/// is absorbed with its length, so `u64(1).u64(2)` can never collide with
/// `u64(0x0000000100000002)`-style confusions. A `u64` or hash field is
/// framed on the stack and absorbed in one `update` rather than two: every
/// block's bookkeeping hashes take this path.
#[derive(Debug, Clone)]
pub struct HashBuilder {
    inner: Sha256,
}

impl HashBuilder {
    /// Starts a hash in the given domain.
    #[must_use]
    #[inline]
    pub fn new(domain: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(&(domain.len() as u64).to_le_bytes());
        inner.update(domain.as_bytes());
        Self { inner }
    }

    /// Absorbs a `u64`.
    #[must_use]
    #[inline]
    pub fn u64(mut self, v: u64) -> Self {
        let mut field = [8u8; 9];
        field[1..].copy_from_slice(&v.to_le_bytes());
        self.inner.update(&field);
        self
    }

    /// Absorbs a byte slice (length-prefixed).
    #[must_use]
    #[inline]
    pub fn bytes(mut self, b: &[u8]) -> Self {
        self.inner.update(&(b.len() as u64).to_le_bytes());
        self.inner.update(b);
        self
    }

    /// Absorbs another hash.
    #[must_use]
    #[inline]
    pub fn hash(mut self, h: &Hash256) -> Self {
        let mut field = [0u8; 40];
        field[..8].copy_from_slice(&32u64.to_le_bytes());
        field[8..].copy_from_slice(&h.0);
        self.inner.update(&field);
        self
    }

    /// Finishes, producing the digest.
    #[must_use]
    #[inline]
    pub fn finish(self) -> Hash256 {
        Hash256(self.inner.finalize())
    }

    /// Finishes two builders at once: `[a.finish(), b.finish()]`, bit for
    /// bit. The blocks both messages have run as two-stream compressions,
    /// which on SHA-NI take well under the time of two; the longer
    /// message's remaining blocks run alone.
    #[must_use]
    #[inline]
    pub fn finish_pair(a: Self, b: Self) -> [Hash256; 2] {
        Sha256::finalize_pair(a.inner, b.inner).map(Hash256)
    }

    /// Freezes the fields absorbed so far into a reusable midstate.
    ///
    /// Nonce grinding hashes the same prefix (domain, parent hash, public
    /// key) millions of times with only a trailing `u64` varying. The
    /// midstate pays the prefix's compressions **once** and lays out the
    /// final block(s) ahead of time: the prefix's buffered tail, the
    /// field's framing byte, an 8-byte value slot, and the SHA-256
    /// padding and bit length. Each [`HashMidstate::finish_u64`] then
    /// copies that template, writes the value and compresses: one
    /// compression, or two when the tail leaves no room for the padding
    /// (47 to 62 tail bytes). `builder.midstate().finish_u64(n)` is
    /// bit-identical to `builder.u64(n).finish()`, pinned by unit tests
    /// for every tail length.
    #[must_use]
    pub fn midstate(mut self) -> HashMidstate {
        // The framing byte of `u64`; the value itself fills the hole.
        self.inner.update(&[8u8]);
        let (state, template, blocks, slot) = self.inner.padded_template(8);
        HashMidstate {
            state,
            template,
            slot,
            two_blocks: blocks == 2,
        }
    }
}

/// A frozen [`HashBuilder`] prefix: completes digests for messages that
/// append one `u64` field to the captured prefix. See
/// [`HashBuilder::midstate`].
#[derive(Debug, Clone)]
pub struct HashMidstate {
    /// Chaining state after the prefix's whole blocks.
    state: [u32; 8],
    /// The padded final block(s), with the value slot zeroed.
    template: [[u8; 64]; 2],
    /// Byte offset of the 8-byte value slot in the template; the slot may
    /// straddle the two blocks.
    slot: usize,
    /// Whether the template's second block is used.
    two_blocks: bool,
}

impl HashMidstate {
    /// Digest of `prefix || u64(v)` — bit-identical to having called
    /// [`HashBuilder::u64`] then [`HashBuilder::finish`] on the captured
    /// builder.
    #[must_use]
    pub fn finish_u64(&self, v: u64) -> Hash256 {
        let mut state = self.state;
        let message = self.message(v);
        compress(&mut state, &message[0]);
        if self.two_blocks {
            compress(&mut state, &message[1]);
        }
        Hash256(digest(&state))
    }

    /// Two trials at once: `[a.finish_u64(x), b.finish_u64(y)]` for
    /// `[(a, x), (b, y)]`, bit for bit, for any two midstates (the same
    /// one twice included). Their compressions run as one two-stream
    /// compression, which on SHA-NI takes well under the time of two.
    #[must_use]
    pub fn finish_u64_pair(trials: [(&HashMidstate, u64); 2]) -> [Hash256; 2] {
        let [(a, x), (b, y)] = trials;
        let (mut state_a, mut state_b) = (a.state, b.state);
        let (message_a, message_b) = (a.message(x), b.message(y));
        compress_pair([&mut state_a, &mut state_b], [&message_a[0], &message_b[0]]);
        match (a.two_blocks, b.two_blocks) {
            (true, true) => {
                compress_pair([&mut state_a, &mut state_b], [&message_a[1], &message_b[1]])
            }
            (true, false) => compress(&mut state_a, &message_a[1]),
            (false, true) => compress(&mut state_b, &message_b[1]),
            (false, false) => {}
        }
        [Hash256(digest(&state_a)), Hash256(digest(&state_b))]
    }

    /// The template with `v` written into the value slot.
    #[inline]
    fn message(&self, v: u64) -> [[u8; 64]; 2] {
        let mut message = self.template;
        message.as_flattened_mut()[self.slot..self.slot + 8].copy_from_slice(&v.to_le_bytes());
        message
    }
}

/// Feeds a sequence of `(midstate, value)` trials to
/// [`HashMidstate::finish_u64_pair`] two at a time and reports each
/// digest, with the caller's tag, in the order the trials were pushed. An
/// unpaired trial waits for the next push; [`flush`](Self::flush)
/// finishes it alone. The lottery engines push a tick's trials in their
/// sequential order and flush at the end of the tick, so they see the
/// same digests in the same order as one `finish_u64` per trial.
pub(crate) struct TrialPairs<'m, T> {
    pending: Option<(&'m HashMidstate, u64, T)>,
}

impl<'m, T> TrialPairs<'m, T> {
    /// No trial pending.
    pub(crate) fn new() -> Self {
        Self { pending: None }
    }

    /// Queues a trial; once it completes a pair, hashes both and reports
    /// the earlier trial first.
    #[inline]
    pub(crate) fn push(
        &mut self,
        midstate: &'m HashMidstate,
        v: u64,
        tag: T,
        mut report: impl FnMut(T, Hash256),
    ) {
        match self.pending.take() {
            None => self.pending = Some((midstate, v, tag)),
            Some((first, first_v, first_tag)) => {
                let [h0, h1] = HashMidstate::finish_u64_pair([(first, first_v), (midstate, v)]);
                report(first_tag, h0);
                report(tag, h1);
            }
        }
    }

    /// Finishes the unpaired trial, if any.
    pub(crate) fn flush(&mut self, mut report: impl FnMut(T, Hash256)) {
        if let Some((midstate, v, tag)) = self.pending.take() {
            report(tag, midstate.finish_u64(v));
        }
    }
}

/// The digests of `builders` in order, finished two at a time through
/// [`HashBuilder::finish_pair`]; an odd last builder finishes alone.
pub(crate) fn finish_all<I: IntoIterator<Item = HashBuilder>>(
    builders: I,
) -> FinishAll<I::IntoIter> {
    FinishAll {
        builders: builders.into_iter(),
        second: None,
    }
}

/// The iterator [`finish_all`] returns.
pub(crate) struct FinishAll<I> {
    builders: I,
    /// The second digest of the last pair, not yet yielded.
    second: Option<Hash256>,
}

impl<I: Iterator<Item = HashBuilder>> Iterator for FinishAll<I> {
    type Item = Hash256;

    #[inline]
    fn next(&mut self) -> Option<Hash256> {
        if let Some(second) = self.second.take() {
            return Some(second);
        }
        let first = self.builders.next()?;
        Some(match self.builders.next() {
            Some(second) => {
                let [a, b] = HashBuilder::finish_pair(first, second);
                self.second = Some(b);
                a
            }
            None => first.finish(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let held = usize::from(self.second.is_some());
        let (low, high) = self.builders.size_hint();
        (
            low.saturating_add(held),
            high.and_then(|high| high.checked_add(held)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic() {
        let a = HashBuilder::new("test").u64(1).bytes(b"xyz").finish();
        let b = HashBuilder::new("test").u64(1).bytes(b"xyz").finish();
        assert_eq!(a, b);
    }

    #[test]
    fn domains_separate() {
        let a = HashBuilder::new("pow").u64(1).finish();
        let b = HashBuilder::new("pos").u64(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn field_framing_prevents_collisions() {
        let a = HashBuilder::new("d").bytes(b"ab").bytes(b"c").finish();
        let b = HashBuilder::new("d").bytes(b"a").bytes(b"bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn u256_conversion_is_big_endian() {
        let mut bytes = [0u8; 32];
        bytes[31] = 1; // lowest byte in BE
        let h = Hash256(bytes);
        assert_eq!(h.to_u256(), U256::ONE);
    }

    #[test]
    fn unit_f64_in_range_and_roughly_uniform() {
        let mut acc = 0.0;
        let n = 2000;
        for i in 0..n {
            let u = HashBuilder::new("uniform").u64(i).finish().as_unit_f64();
            assert!((0.0..1.0).contains(&u));
            acc += u;
        }
        let mean = acc / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn display_and_short_hex() {
        let h = HashBuilder::new("x").finish();
        assert_eq!(h.to_string().len(), 64);
        assert_eq!(h.short_hex().len(), 8);
        assert!(h.to_string().starts_with(&h.short_hex()));
    }

    #[test]
    fn zero_constant() {
        assert_eq!(Hash256::ZERO.to_u256(), U256::ZERO);
        assert_eq!(Hash256::ZERO.as_unit_f64(), 0.0);
    }

    #[test]
    fn midstate_grind_is_bit_identical_to_full_hash() {
        // Every tail length a prefix can leave in SHA-256's buffer (the
        // domain's 8-byte length and its bytes put `len + 8` bytes in
        // front, so lengths 0..=127 reach every tail twice and cover one-
        // and two-block templates, a straddling value slot included):
        // `finish_u64` and the pair finish must reproduce the direct
        // builder bit for bit, for pairs of one prefix and of two.
        let values = [0u64, 1, 42, u64::MAX, 0x0102_0304_0506_0708];
        let prefix = |len: usize| -> String {
            (0..len)
                .map(|i| char::from(b'a' + (i % 26) as u8))
                .collect()
        };
        let full = |len: usize, v: u64| HashBuilder::new(&prefix(len)).u64(v).finish();
        let midstates: Vec<HashMidstate> = (0..128)
            .map(|len| HashBuilder::new(&prefix(len)).midstate())
            .collect();
        for (len, midstate) in midstates.iter().enumerate() {
            let other_len = (len * 37 + 11) % 128;
            let other = &midstates[other_len];
            for (i, &v) in values.iter().enumerate() {
                let expect = full(len, v);
                assert_eq!(midstate.finish_u64(v), expect, "prefix {len}, value {v:#x}");
                let w = values[(i + 1) % values.len()];
                assert_eq!(
                    HashMidstate::finish_u64_pair([(midstate, v), (midstate, w)]),
                    [expect, full(len, w)],
                    "same-prefix pair {len}, values {v:#x}, {w:#x}"
                );
                assert_eq!(
                    HashMidstate::finish_u64_pair([(midstate, v), (other, w)]),
                    [expect, full(other_len, w)],
                    "pair of prefixes {len} and {other_len}, values {v:#x}, {w:#x}"
                );
            }
        }
        // The prefix shapes the engines use.
        let prev = HashBuilder::new("x").finish();
        let pubkey = HashBuilder::new("y").u64(9).finish();
        for domain in ["pow-trial", "mlpos-kernel"] {
            let builder = || HashBuilder::new(domain).hash(&prev).hash(&pubkey);
            let midstate = builder().midstate();
            for v in values {
                assert_eq!(
                    midstate.finish_u64(v),
                    builder().u64(v).finish(),
                    "{domain}"
                );
            }
        }
    }

    #[test]
    fn finish_pair_is_bit_identical_to_two_finishes() {
        // A domain of `len` bytes puts `len + 8` bytes in the message, so
        // messages of 8 to 320 bytes, each paired with a shorter, an equal
        // and a longer one (one to six blocks, past the inline buffer).
        let builder = |len: usize, salt: u8| -> HashBuilder {
            let domain: String = (0..len)
                .map(|i| char::from(b'a' + ((i as u8 ^ salt) % 26)))
                .collect();
            HashBuilder::new(&domain)
        };
        for len in 0..=312usize {
            for other_len in [len, (len + 64) % 313, 312 - len] {
                let (a, b) = (builder(len, 1), builder(other_len, 7));
                assert_eq!(
                    HashBuilder::finish_pair(a.clone(), b.clone()),
                    [a.finish(), b.finish()],
                    "message lengths {} and {}",
                    len + 8,
                    other_len + 8
                );
            }
        }
    }

    #[test]
    fn finish_all_yields_each_digest_in_order() {
        for count in 0..6u64 {
            let builders = || (0..count).map(|i| HashBuilder::new("all").u64(i));
            let paired: Vec<Hash256> = finish_all(builders()).collect();
            let single: Vec<Hash256> = builders().map(HashBuilder::finish).collect();
            assert_eq!(paired, single, "{count} builders");
            let mut iter = finish_all(builders());
            for left in (0..=count as usize).rev() {
                assert_eq!(iter.size_hint(), (left, Some(left)));
                let _ = iter.next();
            }
        }
    }

    #[test]
    fn trial_pairs_report_in_push_order() {
        let midstates: Vec<HashMidstate> = (0..3)
            .map(|i| HashBuilder::new("pairs").u64(i).midstate())
            .collect();
        let trials: Vec<(usize, u64)> = (0..7).map(|i| (i % 3, 100 + i as u64)).collect();
        let mut seen = Vec::new();
        let mut pairs = TrialPairs::new();
        for &(m, v) in &trials {
            pairs.push(&midstates[m], v, (m, v), |tag, h| seen.push((tag, h)));
        }
        pairs.flush(|tag, h| seen.push((tag, h)));
        let expect: Vec<_> = trials
            .iter()
            .map(|&(m, v)| ((m, v), midstates[m].finish_u64(v)))
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn midstate_is_reusable() {
        let midstate = HashBuilder::new("grind").hash(&Hash256::ZERO).midstate();
        let a1 = midstate.finish_u64(7);
        let b = midstate.finish_u64(8);
        let a2 = midstate.finish_u64(7);
        assert_eq!(a1, a2, "grinding must not consume the midstate");
        assert_ne!(a1, b);
    }
}
