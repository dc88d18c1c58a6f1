//! 256-bit unsigned integer arithmetic.
//!
//! Blockchain lotteries compare 256-bit hash outputs against difficulty
//! targets (`Hash(…) < D` in PoW, `Hash(…) < D·stake` in ML-PoS, and
//! `time = basetime·Hash(…)/stake` in SL-PoS), so the simulator needs real
//! 256-bit arithmetic: comparison, saturating/checked multiplication by
//! stake values, and division for the SL-PoS time function.
//!
//! The representation is four little-endian `u64` limbs.

// Limb loops index several arrays at once; iterator chains would obscure the
// carry propagation.
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Rem, Shl, Shr, Sub};

/// A 256-bit unsigned integer (four little-endian 64-bit limbs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum value 2²⁵⁶ − 1.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Constructs from little-endian limbs.
    #[must_use]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        Self { limbs }
    }

    /// The little-endian limbs.
    #[must_use]
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs from a `u64`.
    #[must_use]
    pub const fn from_u64(v: u64) -> Self {
        Self {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs from a `u128`.
    #[must_use]
    pub const fn from_u128(v: u128) -> Self {
        Self {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Constructs from 32 big-endian bytes (the natural byte order of hash
    /// outputs).
    #[must_use]
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            // limb 0 is least significant → last 8 bytes of the BE array.
            chunk.copy_from_slice(&bytes[32 - (i + 1) * 8..32 - i * 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        Self { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            out[32 - (i + 1) * 8..32 - i * 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Whether the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Truncates to `u64` (low limb); use only when the value is known to
    /// fit, e.g. after division by a large denominator.
    #[must_use]
    pub fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Truncates to `u128` (low two limbs).
    #[must_use]
    pub fn low_u128(&self) -> u128 {
        (self.limbs[1] as u128) << 64 | self.limbs[0] as u128
    }

    /// Converts to `u64` if the value fits, else `None`.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        if self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0 {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// Number of leading zero bits.
    #[must_use]
    pub fn leading_zeros(&self) -> u32 {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return (3 - i as u32) * 64 + self.limbs[i].leading_zeros();
            }
        }
        256
    }

    /// Number of significant bits (`256 − leading_zeros`).
    #[must_use]
    pub fn bits(&self) -> u32 {
        256 - self.leading_zeros()
    }

    /// Bit `i` (0 = least significant).
    #[must_use]
    pub fn bit(&self, i: u32) -> bool {
        debug_assert!(i < 256);
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Lossy conversion to `f64` (exact for values below 2⁵³, correctly
    /// scaled above). Useful for converting hash outputs to uniform floats.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        let mut acc = 0.0f64;
        for i in (0..4).rev() {
            acc = acc * 2.0f64.powi(64) + self.limbs[i] as f64;
        }
        acc
    }

    /// Interprets the value as a uniform sample in `[0, 1)` by dividing by
    /// 2²⁵⁶ — the paper's idealization of `Hash(·)/2²⁵⁶ ~ U(0, 1)`.
    #[must_use]
    pub fn as_unit_f64(self) -> f64 {
        self.to_f64() / 2.0f64.powi(256)
    }

    /// Checked addition.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        let (v, overflow) = self.overflowing_add(rhs);
        if overflow {
            None
        } else {
            Some(v)
        }
    }

    /// Overflowing addition.
    #[must_use]
    pub fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        let mut limbs = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            limbs[i] = s2;
            carry = c1 || c2;
        }
        (Self { limbs }, carry)
    }

    /// Wrapping addition (mod 2²⁵⁶).
    #[must_use]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Checked subtraction (`None` on underflow).
    #[must_use]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        let (v, borrow) = self.overflowing_sub(rhs);
        if borrow {
            None
        } else {
            Some(v)
        }
    }

    /// Overflowing subtraction.
    #[must_use]
    pub fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        let mut limbs = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            limbs[i] = d2;
            borrow = b1 || b2;
        }
        (Self { limbs }, borrow)
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).unwrap_or(Self::ZERO)
    }

    /// Checked multiplication (`None` on overflow).
    #[must_use]
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        let (lo, hi) = self.widening_mul(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Full 512-bit product as `(low 256 bits, high 256 bits)`.
    #[must_use]
    pub fn widening_mul(self, rhs: Self) -> (Self, Self) {
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur =
                    prod[i + j] as u128 + self.limbs[i] as u128 * rhs.limbs[j] as u128 + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        (
            Self {
                limbs: [prod[0], prod[1], prod[2], prod[3]],
            },
            Self {
                limbs: [prod[4], prod[5], prod[6], prod[7]],
            },
        )
    }

    /// Wrapping multiplication (mod 2²⁵⁶).
    #[must_use]
    pub fn wrapping_mul(self, rhs: Self) -> Self {
        self.widening_mul(rhs).0
    }

    /// Saturating multiplication.
    #[must_use]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).unwrap_or(Self::MAX)
    }

    /// Division and remainder: short division for a one-limb divisor,
    /// binary long division otherwise.
    ///
    /// # Panics
    /// Panics on division by zero.
    #[must_use]
    pub fn div_rem(self, divisor: Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "U256 division by zero");
        if self < divisor {
            return (Self::ZERO, self);
        }
        // Fast path: a divisor below 2⁶⁴ takes one u128 division per limb,
        // top limb first; each partial remainder is below the divisor, so
        // every quotient digit fits in a limb.
        if let Some(d) = divisor.to_u64() {
            let d = u128::from(d);
            let mut quotient = [0u64; 4];
            let mut rem = 0u128;
            for i in (0..4).rev() {
                let cur = rem << 64 | u128::from(self.limbs[i]);
                quotient[i] = (cur / d) as u64;
                rem = cur % d;
            }
            return (Self { limbs: quotient }, Self::from_u128(rem));
        }
        // Fast path: both fit in u128.
        if self.limbs[2] == 0
            && self.limbs[3] == 0
            && divisor.limbs[2] == 0
            && divisor.limbs[3] == 0
        {
            let a = self.low_u128();
            let b = divisor.low_u128();
            return (Self::from_u128(a / b), Self::from_u128(a % b));
        }
        let shift = divisor.leading_zeros() - self.leading_zeros();
        let mut remainder = self;
        let mut quotient = Self::ZERO;
        let mut shifted = divisor << shift;
        for s in (0..=shift).rev() {
            if remainder >= shifted {
                remainder = remainder.wrapping_sub_unchecked(shifted);
                quotient = quotient.set_bit(s);
            }
            shifted = shifted >> 1u32;
        }
        (quotient, remainder)
    }

    fn wrapping_sub_unchecked(self, rhs: Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    fn set_bit(mut self, i: u32) -> Self {
        self.limbs[(i / 64) as usize] |= 1u64 << (i % 64);
        self
    }

    /// `self * mul / div` computed without intermediate overflow using the
    /// 512-bit product. Used for ML-PoS target scaling (`D·stake`) and the
    /// SL-PoS time function (`basetime·hash/stake`).
    ///
    /// # Panics
    /// Panics if `div` is zero or the final quotient overflows 256 bits.
    #[must_use]
    pub fn mul_div(self, mul: Self, div: Self) -> Self {
        assert!(!div.is_zero(), "mul_div division by zero");
        let (lo, hi) = self.widening_mul(mul);
        if hi.is_zero() {
            return lo.div_rem(div).0;
        }
        // 512-bit / 256-bit long division, bit by bit over the 512-bit value.
        assert!(hi < div, "mul_div quotient does not fit in 256 bits");
        let mut rem = Self::ZERO;
        let mut quot = Self::ZERO;
        for i in (0..512).rev() {
            // rem = rem << 1 | bit_i(hi:lo)
            rem = rem << 1u32;
            let bit = if i >= 256 { hi.bit(i - 256) } else { lo.bit(i) };
            if bit {
                rem = rem | Self::ONE;
            }
            if rem >= div {
                rem = rem.wrapping_sub_unchecked(div);
                if i < 256 {
                    quot = quot.set_bit(i);
                }
                // Bits >= 256 cannot be set because hi < div.
            }
        }
        quot
    }

    /// Parses a hexadecimal string (optionally `0x`-prefixed).
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut value = Self::ZERO;
        for c in s.chars() {
            let digit = c.to_digit(16)? as u64;
            value = (value << 4u32) | Self::from_u64(digit);
        }
        Some(value)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("U256 addition overflow")
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).expect("U256 subtraction underflow")
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: Self) -> Self {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: Self) -> Self {
        self.div_rem(rhs).1
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut limbs = [0u64; 4];
        for i in (word_shift..4).rev() {
            limbs[i] = self.limbs[i - word_shift] << bit_shift;
            if bit_shift > 0 && i > word_shift {
                limbs[i] |= self.limbs[i - word_shift - 1] >> (64 - bit_shift);
            }
        }
        Self { limbs }
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut limbs = [0u64; 4];
        for i in 0..4 - word_shift {
            limbs[i] = self.limbs[i + word_shift] >> bit_shift;
            if bit_shift > 0 && i + word_shift + 1 < 4 {
                limbs[i] |= self.limbs[i + word_shift + 1] << (64 - bit_shift);
            }
        }
        Self { limbs }
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: Self) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] & rhs.limbs[i];
        }
        Self { limbs }
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: Self) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] | rhs.limbs[i];
        }
        Self { limbs }
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: Self) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] ^ rhs.limbs[i];
        }
        Self { limbs }
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        let mut leading = true;
        for i in (0..4).rev() {
            if leading {
                if self.limbs[i] == 0 && i > 0 {
                    continue;
                }
                write!(f, "{:x}", self.limbs[i])?;
                leading = false;
            } else {
                write!(f, "{:016x}", self.limbs[i])?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal display by repeated division by 10^19 (largest power of
        // ten in u64).
        if self.is_zero() {
            return write!(f, "0");
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut parts: Vec<u64> = Vec::new();
        let mut v = *self;
        while !v.is_zero() {
            let (q, r) = v.div_rem(U256::from_u64(CHUNK));
            parts.push(r.low_u64());
            v = q;
        }
        write!(f, "{}", parts.pop().expect("non-zero has digits"))?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_constants() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ONE.low_u64(), 1);
        assert_eq!(U256::MAX.leading_zeros(), 0);
        assert_eq!(U256::ZERO.leading_zeros(), 256);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(0x_dead_beef_cafe_babe_1234_5678_9abc_def0);
        let b = U256::from_u64(0x_ffff_ffff_ffff_ffff);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let one = U256::ONE;
        let sum = a + one;
        assert_eq!(sum.limbs(), [0, 0, 1, 0]);
    }

    #[test]
    fn overflow_detection() {
        assert!(U256::MAX.checked_add(U256::ONE).is_none());
        assert!(U256::ZERO.checked_sub(U256::ONE).is_none());
        let half = U256::ONE << 128u32;
        assert!(half.checked_mul(half).is_none()); // 2^256 overflows
        assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
        assert_eq!(U256::ZERO.saturating_sub(U256::ONE), U256::ZERO);
        assert_eq!(half.saturating_mul(half), U256::MAX);
    }

    #[test]
    fn mul_matches_u128_oracle() {
        let a = 0x1234_5678_9abc_def0u64;
        let b = 0x0fed_cba9_8765_4321u64;
        let prod = U256::from_u64(a) * U256::from_u64(b);
        assert_eq!(prod.low_u128(), a as u128 * b as u128);
    }

    #[test]
    fn widening_mul_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1.
        let (lo, hi) = U256::MAX.widening_mul(U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX - U256::ONE);
    }

    #[test]
    fn div_rem_small_and_large() {
        let a = U256::from_u64(1000);
        let b = U256::from_u64(7);
        let (q, r) = a.div_rem(b);
        assert_eq!(q.low_u64(), 142);
        assert_eq!(r.low_u64(), 6);

        let big = U256::MAX;
        let (q, r) = big.div_rem(U256::from_u64(3));
        // 2^256 - 1 is divisible by 3 (since 2^2 ≡ 1 mod 3 → 2^256 ≡ 1).
        assert!(r.is_zero());
        let back = q * U256::from_u64(3);
        assert_eq!(back, big);
    }

    #[test]
    fn div_by_larger_is_zero() {
        let (q, r) = U256::from_u64(5).div_rem(U256::from_u64(10));
        assert!(q.is_zero());
        assert_eq!(r.low_u64(), 5);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem(U256::ZERO);
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!((one << 255u32).leading_zeros(), 0);
        assert_eq!((one << 255u32) >> 255u32, one);
        assert_eq!(one << 256u32, U256::ZERO);
        let v = U256::from_u128(0x1_0000_0000_0000_0000);
        assert_eq!(v >> 64u32, U256::ONE);
        assert_eq!(U256::ONE << 64u32, v);
    }

    #[test]
    fn bit_access() {
        let v = U256::ONE << 130u32;
        assert!(v.bit(130));
        assert!(!v.bit(129));
        assert!(!v.bit(131));
        assert_eq!(v.bits(), 131);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v =
            U256::from_hex("0x0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .expect("valid hex");
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        // Leading byte should be 0x01.
        assert_eq!(v.to_be_bytes()[0], 0x01);
        assert_eq!(v.to_be_bytes()[31], 0xef);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(U256::from_hex("ff"), Some(U256::from_u64(255)));
        assert_eq!(U256::from_hex("0x10"), Some(U256::from_u64(16)));
        assert_eq!(U256::from_hex(""), None);
        assert_eq!(U256::from_hex("zz"), None);
        let too_long = "1".repeat(65);
        assert_eq!(U256::from_hex(&too_long), None);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(U256::from_u64(12345).to_string(), "12345");
        assert_eq!(
            U256::from_u128(123_456_789_012_345_678_901_234_567_890).to_string(),
            "123456789012345678901234567890"
        );
        // 2^256 - 1, known decimal expansion.
        assert_eq!(
            U256::MAX.to_string(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
    }

    #[test]
    fn debug_hex_format() {
        assert_eq!(format!("{:?}", U256::from_u64(255)), "U256(0xff)");
    }

    #[test]
    fn mul_div_no_overflow_path() {
        // 100 * 50 / 25 = 200 via the narrow path.
        let r = U256::from_u64(100).mul_div(U256::from_u64(50), U256::from_u64(25));
        assert_eq!(r.low_u64(), 200);
    }

    #[test]
    fn mul_div_wide_path() {
        // (2^200) * (2^100) / (2^150) = 2^150 — the product needs 512 bits.
        let a = U256::ONE << 200u32;
        let b = U256::ONE << 100u32;
        let d = U256::ONE << 150u32;
        assert_eq!(a.mul_div(b, d), U256::ONE << 150u32);
    }

    #[test]
    fn mul_div_hash_scaling_use_case() {
        // SL-PoS: time = basetime * hash / stake with hash near 2^255.
        let hash = U256::ONE << 255u32;
        let basetime = U256::from_u64(60);
        let stake = U256::from_u64(1_000_000);
        let t = basetime.mul_div(hash, stake);
        // Compare against f64 estimate.
        let expect = 60.0 * (2.0f64.powi(255)) / 1.0e6;
        let rel = (t.to_f64() - expect).abs() / expect;
        assert!(rel < 1e-12, "rel err {rel}");
    }

    #[test]
    fn as_unit_f64_uniformity_endpoints() {
        assert_eq!(U256::ZERO.as_unit_f64(), 0.0);
        let max = U256::MAX.as_unit_f64();
        assert!(max < 1.0 + 1e-15 && max > 0.999_999);
        let half = (U256::ONE << 255u32).as_unit_f64();
        assert!((half - 0.5).abs() < 1e-15);
    }

    #[test]
    fn ordering() {
        let small = U256::from_u64(5);
        let big = U256::ONE << 128u32;
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&small), Ordering::Equal);
        // Ordering decided by high limbs first.
        let a = U256::from_limbs([0, 0, 0, 1]);
        let b = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
    }

    #[test]
    fn bitwise_ops() {
        let a = U256::from_u64(0b1100);
        let b = U256::from_u64(0b1010);
        assert_eq!((a & b).low_u64(), 0b1000);
        assert_eq!((a | b).low_u64(), 0b1110);
        assert_eq!((a ^ b).low_u64(), 0b0110);
    }

    #[test]
    fn to_u64_bounds() {
        assert_eq!(U256::from_u64(7).to_u64(), Some(7));
        assert_eq!((U256::ONE << 64u32).to_u64(), None);
    }
}
