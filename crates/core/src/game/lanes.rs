//! The SL-PoS lane kernel: up to [`LANES`] bare SL-PoS games stepped in
//! lockstep, one game per 64-bit lane of a 512-bit vector.
//!
//! One repetition of the m-miner race is a serial chain (m draws, m
//! divides and an argmin per step, and the winner's compounded stake is
//! a divisor of the next step), so one game cannot go faster than that
//! chain. Eight independent games can: each vector instruction below
//! does one game's scalar operation in each lane. Every lane keeps its
//! own `xoshiro256**` stream and performs, in the same order, exactly
//! the scalar race's arithmetic:
//!
//! * the generator's transition and `**` output, with the `· 5` and
//!   `· 9` products as shift-adds (`x · 5 = (x ≪ 2) + x` modulo 2⁶⁴) and
//!   the rotations as `vprolq`;
//! * the uniform `(x ≫ 11) · 2⁻⁵³`, whose integer converts to `f64`
//!   exactly (it is below 2⁵³) and whose scaling by a power of two is
//!   exact;
//! * the IEEE quotient `u / s` (`vdivpd` rounds as `divsd` does);
//! * the strict first-index argmin, seeded with +∞ (an ordered `<`
//!   compare and a masked blend per miner, so ties keep the earlier
//!   miner);
//! * the winner's `stake + w` and `income + w` as masked adds.
//!
//! So each lane's stakes, incomes and stream are bit-identical to its
//! game's scalar [`run`](super::MiningGame::run). Only AVX-512F+DQ hosts
//! run the kernel (the packed `u64 → f64` conversion is DQ): earlier
//! probes of an auto-vectorized form, of AVX2 and of AVX-512F without DQ
//! ran no faster than the scalar kernels at m ≥ 5, so other hosts keep
//! those.
//!
//! This module holds the crate's only `unsafe` code.
#![allow(unsafe_code)]

/// Games one kernel call steps: the 64-bit lanes of a 512-bit vector.
pub const LANES: usize = 8;

/// The most miners a lane batch holds. Eight games' stake and income
/// columns then take at most 8 KiB, which stays in L1 however long the
/// segment.
pub(super) const MAX_MINERS: usize = 64;

/// A lane batch's state, miner-major: `stakes[i][k]` is lane `k`'s
/// miner `i`. Lanes past the batch's games hold copies of lane 0, which
/// are stepped and discarded.
#[derive(Debug)]
pub(super) struct Batch {
    /// Miners per game, in `2..=MAX_MINERS`.
    pub(super) miners: usize,
    /// Each lane's `xoshiro256**` state, word-major.
    pub(super) rng: [[u64; LANES]; 4],
    /// Each lane's block reward.
    pub(super) reward: [f64; LANES],
    /// Stake columns; rows at and past `miners` are unused.
    pub(super) stakes: [[f64; LANES]; MAX_MINERS],
    /// Income columns, likewise.
    pub(super) earned: [[f64; LANES]; MAX_MINERS],
}

impl Batch {
    /// An empty batch of `miners`-miner games.
    ///
    /// # Panics
    /// Panics if `miners` is outside `2..=MAX_MINERS`.
    pub(super) fn new(miners: usize) -> Self {
        assert!(
            (2..=MAX_MINERS).contains(&miners),
            "a lane batch holds 2 to {MAX_MINERS} miners, not {miners}"
        );
        Self {
            miners,
            rng: [[0; LANES]; 4],
            reward: [0.0; LANES],
            stakes: [[0.0; LANES]; MAX_MINERS],
            earned: [[0.0; LANES]; MAX_MINERS],
        }
    }

    /// Steps every lane `n` times, on the vector kernel.
    ///
    /// # Panics
    /// Panics if this host lacks AVX-512F+DQ ([`available`] is false).
    pub(super) fn run(&mut self, n: u64) {
        assert!(available(), "the lane kernel needs AVX-512F and AVX-512DQ");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` verified the avx512f and avx512dq CPU
        // features at runtime.
        unsafe {
            avx512::run(self, n);
        }
    }
}

/// Whether this host runs the lane kernel: AVX-512F and AVX-512DQ,
/// probed once per process.
#[inline]
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Batch, LANES, MAX_MINERS};
    use core::arch::x86_64::{
        __m512d, __m512i, _mm512_add_epi64, _mm512_cmp_pd_mask, _mm512_cmpeq_epi64_mask,
        _mm512_cvtepu64_pd, _mm512_div_pd, _mm512_loadu_epi64, _mm512_loadu_pd, _mm512_mask_add_pd,
        _mm512_mask_blend_epi64, _mm512_mask_blend_pd, _mm512_mul_pd, _mm512_rol_epi64,
        _mm512_set1_epi64, _mm512_set1_pd, _mm512_setzero_pd, _mm512_setzero_si512,
        _mm512_slli_epi64, _mm512_srli_epi64, _mm512_storeu_epi64, _mm512_storeu_pd,
        _mm512_xor_si512, _CMP_LT_OQ,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached runtime feature probe: 0 = unknown, 1 = available, 2 = not.
    static DETECTED: AtomicU8 = AtomicU8::new(0);

    /// Whether the avx512f and avx512dq features [`run`] needs are
    /// present, probed once per process.
    #[inline]
    pub(super) fn available() -> bool {
        match DETECTED.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq");
                DETECTED.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_pd(column: &[f64; LANES]) -> __m512d {
        // SAFETY: `column` is eight readable, initialized `f64`s; the load
        // is unaligned.
        unsafe { _mm512_loadu_pd(column.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_pd(column: &mut [f64; LANES], v: __m512d) {
        // SAFETY: `column` is eight writable `f64`s; the store is
        // unaligned.
        unsafe { _mm512_storeu_pd(column.as_mut_ptr(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_u64(column: &[u64; LANES]) -> __m512i {
        // SAFETY: `column` is eight readable, initialized `u64`s; the load
        // is unaligned.
        unsafe { _mm512_loadu_epi64(column.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_u64(column: &mut [u64; LANES], v: __m512i) {
        // SAFETY: `column` is eight writable `u64`s; the store is
        // unaligned.
        unsafe { _mm512_storeu_epi64(column.as_mut_ptr().cast(), v) }
    }

    /// Steps every lane of `batch` `n` times (see the module docs for
    /// the lane-by-lane arithmetic).
    ///
    /// # Safety
    /// The caller must have verified the `avx512f` and `avx512dq` CPU
    /// features (see [`available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn run(batch: &mut Batch, n: u64) {
        // Up to five miners (Table 1's m ≤ 5) the columns stay in
        // registers and the miner loops unroll.
        match batch.miners {
            2 => run_columns::<2>(batch, n),
            3 => run_columns::<3>(batch, n),
            4 => run_columns::<4>(batch, n),
            5 => run_columns::<5>(batch, n),
            _ => run_columns::<MAX_MINERS>(batch, n),
        }
    }

    /// [`run`] with the columns held in `M`-long arrays: exactly `M`
    /// miners, or at most `M` when `M` is [`MAX_MINERS`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn run_columns<const M: usize>(batch: &mut Batch, n: u64) {
        let miners = batch.miners.min(M);
        let mut stakes = [_mm512_setzero_pd(); M];
        let mut earned = [_mm512_setzero_pd(); M];
        let (stakes, earned) = (&mut stakes[..miners], &mut earned[..miners]);
        for (v, column) in stakes.iter_mut().zip(&batch.stakes) {
            *v = load_pd(column);
        }
        for (v, column) in earned.iter_mut().zip(&batch.earned) {
            *v = load_pd(column);
        }
        let mut rng = [0, 1, 2, 3].map(|w| load_u64(&batch.rng[w]));
        steps(&mut rng, load_pd(&batch.reward), stakes, earned, n);
        for (&v, column) in stakes.iter().zip(&mut batch.stakes) {
            store_pd(column, v);
        }
        for (&v, column) in earned.iter().zip(&mut batch.earned) {
            store_pd(column, v);
        }
        for (word, v) in batch.rng.iter_mut().zip(rng) {
            store_u64(word, v);
        }
    }

    /// Eight lanes' `Xoshiro256StarStar::next_f64`: the `**` output from
    /// the second word, the transition, then the top 53 bits scaled to
    /// `[0, 1)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn next_f64(s: &mut [__m512i; 4]) -> __m512d {
        let times5 = _mm512_add_epi64(_mm512_slli_epi64::<2>(s[1]), s[1]);
        let rotated = _mm512_rol_epi64::<7>(times5);
        let out = _mm512_add_epi64(_mm512_slli_epi64::<3>(rotated), rotated);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(out)), scale)
    }

    /// The race, `n` times: per step every miner's ticket in miner order
    /// and its waiting time, then the winner's stake and income grow by
    /// the lane's reward.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn steps(
        rng: &mut [__m512i; 4],
        reward: __m512d,
        stakes: &mut [__m512d],
        earned: &mut [__m512d],
        n: u64,
    ) {
        for _ in 0..n {
            // The strict first-index argmin, seeded as the scalar race is.
            let mut best_t = _mm512_set1_pd(f64::INFINITY);
            let mut best_i = _mm512_setzero_si512();
            for (i, stake) in stakes.iter().enumerate() {
                let q = _mm512_div_pd(next_f64(rng), *stake);
                let better = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(q, best_t);
                best_t = _mm512_mask_blend_pd(better, best_t, q);
                best_i = _mm512_mask_blend_epi64(better, best_i, _mm512_set1_epi64(i as i64));
            }
            for (i, (stake, income)) in stakes.iter_mut().zip(earned.iter_mut()).enumerate() {
                let won = _mm512_cmpeq_epi64_mask(best_i, _mm512_set1_epi64(i as i64));
                *stake = _mm512_mask_add_pd(*stake, won, *stake, reward);
                *income = _mm512_mask_add_pd(*income, won, *income, reward);
            }
        }
    }
}
