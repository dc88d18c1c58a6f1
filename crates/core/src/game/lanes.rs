//! The SL-PoS lane kernel: up to [`LANES`] bare SL-PoS games stepped in
//! lockstep, one game per 64-bit lane of a 512-bit vector.
//!
//! One repetition of the m-miner race is a serial chain (m draws, an
//! argmin of the waiting times `u / s`, and the winner's compounded stake
//! enters the next step), so one game cannot go faster than that chain.
//! Eight independent games can: each vector instruction below does one
//! game's scalar operation in each lane. Every lane keeps its own
//! `xoshiro256**` stream and performs, in the same order, exactly the
//! scalar race's draws and updates:
//!
//! * the generator's transition and `**` output, with the `· 5` and
//!   `· 9` products as shift-adds (`x · 5 = (x ≪ 2) + x` modulo 2⁶⁴) and
//!   the rotations as `vprolq`;
//! * the ticket's integer `k = x ≫ 11`, which converts to `f64` exactly
//!   (it is below 2⁵³); the scalar race's uniform is `u = k · 2⁻⁵³`;
//! * the winner's `stake + w` and `income + w` as masked adds.
//!
//! The winner is the scalar race's strict first-index argmin of the IEEE
//! quotients `fl(u_i / s_i)`. Every quotient below is normal (see the
//! range guard), where scaling by a power of two commutes with rounding:
//! `fl(u / s) = 2⁻⁵³ · fl(k / s)`, so the race runs on `k` unscaled and
//! orders and ties exactly as on `u`.
//!
//! **Products, not quotients.** A step normally divides nothing. Each
//! miner challenges a running best `(k_b, s_b)` by two products,
//! `P = k_i · s_b` and `Q = k_b · s_i` (`vmulpd`), and takes the lead
//! where `P < Q`. The even and the odd miners form two interleaved
//! chains, and one last comparison merges them, so two comparisons are
//! in flight at once. A lane is flagged where a comparison is a
//! near-tie, `|P − Q| ≤ 2⁻⁴⁸ · Q` (kept as the least
//! `|P − Q| − 2⁻⁴⁸ · Q` seen, one FMA rounding, which keeps the sign). A
//! step with any flagged lane redoes its argmin from its saved draws by
//! the quotient race: `vdivpd` (which rounds as `divsd` does), an
//! ordered `<` compare and masked blends, seeded with +∞, exactly as the
//! scalar race. So `vdivpd` runs only on flagged steps, and random
//! streams flag about one comparison in 2⁴⁷.
//!
//! **Why an unflagged comparison is right.** With ε = 2⁻⁵³, `P`, `Q` and
//! `|P − Q|` each carry a relative rounding error of at most ε, and
//! `2⁻⁴⁸ · Q` is exact. An unflagged comparison of two positive draws
//! therefore has its exact ratio `k_i·s_b / (k_b·s_i)` outside
//! 1 ± 29ε. Each rounded quotient lies within ε of its exact value, so
//! `fl(k_i / s_i)` and `fl(k_b / s_b)` differ and order as `P` and `Q`
//! do. A zero draw against a positive one is decided exactly (`0 < Q`),
//! and two zero draws (`P = Q = 0`) and exact ties (`P = Q`) are always
//! flagged. Every unflagged comparison is thus strict and agrees with
//! the quotients, so a step with no flagged lane leaves each lane's
//! unique smallest quotient in the lead; where the smallest quotient is
//! shared, the comparison that eliminated one of its holders is flagged.
//!
//! **Range guard.** The bound needs every product and quotient normal.
//! [`in_range`] admits a game only if every stake is at least 2⁻⁵⁰⁰ and
//! the largest stake plus n·w at most 2⁵⁰⁰. Stakes only grow, by at most
//! 3w per step once rounded, so they stay below 2⁵⁰², and with
//! `k ∈ {0} ∪ [1, 2⁵³)` every nonzero product, margin and quotient lies
//! between 2⁻⁵⁴⁸ and 2⁵⁵⁵, far from the subnormals and from overflow.
//! `MiningGame::run_batch` runs any other batch per game.
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

/// The fewest `miners`-miner games that step faster in lanes than
/// alone: two at m = 3 to 5, where the scalar race kernel is slowest and
/// the lane columns stay in registers, and three elsewhere. At m = 2 the
/// two-miner kernel steps a pair about as fast alone, and above five
/// miners, where the lane columns live in memory, faster.
pub(super) fn fewest_games(miners: usize) -> usize {
    if (3..=5).contains(&miners) {
        2
    } else {
        3
    }
}

/// The smallest stake the kernel admits: 2⁻⁵⁰⁰.
const MIN_STAKE: f64 = f64::from_bits((1023 - 500) << 52);

/// The largest stake the kernel lets a game reach: 2⁵⁰⁰.
const MAX_STAKE: f64 = f64::from_bits((1023 + 500) << 52);

/// Whether a game with these stakes and block reward stays in the
/// kernel's range (see the module docs) for `n` steps: every stake at
/// least 2⁻⁵⁰⁰, and at most 2⁵⁰⁰ once `n` rewards are added.
pub(super) fn in_range(stakes: impl IntoIterator<Item = f64>, reward: f64, n: u64) -> bool {
    let grown = n as f64 * reward;
    stakes
        .into_iter()
        .all(|s| s >= MIN_STAKE && s + grown <= MAX_STAKE)
}

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
    /// Panics if this host lacks AVX-512F+DQ ([`available`] is false), or
    /// if a lane is outside the kernel's range for `n` steps
    /// ([`in_range`]).
    pub(super) fn run(&mut self, n: u64) {
        assert!(available(), "the lane kernel needs AVX-512F and AVX-512DQ");
        let columns = &self.stakes[..self.miners];
        assert!(
            (0..LANES).all(|k| in_range(columns.iter().map(|c| c[k]), self.reward[k], n)),
            "a lane's stakes leave the kernel's range within {n} steps"
        );
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
        __m512d, __m512i, __mmask8, _mm512_abs_pd, _mm512_add_epi64, _mm512_cmp_pd_mask,
        _mm512_cmpeq_epi64_mask, _mm512_cvtepu64_pd, _mm512_div_pd, _mm512_fnmadd_pd,
        _mm512_loadu_epi64, _mm512_loadu_pd, _mm512_mask_add_pd, _mm512_mask_blend_epi64,
        _mm512_mask_blend_pd, _mm512_min_pd, _mm512_mul_pd, _mm512_rol_epi64, _mm512_set1_epi64,
        _mm512_set1_pd, _mm512_setzero_pd, _mm512_setzero_si512, _mm512_slli_epi64,
        _mm512_srli_epi64, _mm512_storeu_epi64, _mm512_storeu_pd, _mm512_sub_pd, _mm512_xor_si512,
        _CMP_LE_OQ, _CMP_LT_OQ,
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
        // A constant below `MAX_MINERS`, so the miner loops unroll.
        let miners = if M < MAX_MINERS { M } else { batch.miners };
        assert_eq!(miners, batch.miners, "{M} columns hold exactly {M} miners");
        let mut stakes = [_mm512_setzero_pd(); M];
        let mut earned = [_mm512_setzero_pd(); M];
        for (v, column) in stakes.iter_mut().zip(&batch.stakes[..miners]) {
            *v = load_pd(column);
        }
        for (v, column) in earned.iter_mut().zip(&batch.earned[..miners]) {
            *v = load_pd(column);
        }
        let mut rng = [0, 1, 2, 3].map(|w| load_u64(&batch.rng[w]));
        let reward = load_pd(&batch.reward);
        steps(&mut rng, reward, &mut stakes, &mut earned, miners, n);
        for (&v, column) in stakes.iter().zip(&mut batch.stakes[..miners]) {
            store_pd(column, v);
        }
        for (&v, column) in earned.iter().zip(&mut batch.earned[..miners]) {
            store_pd(column, v);
        }
        for (word, v) in batch.rng.iter_mut().zip(rng) {
            store_u64(word, v);
        }
    }

    /// Eight lanes' `Xoshiro256StarStar::next_f64`, times 2⁵³: the `**`
    /// output from the second word, the transition, then the top 53 bits
    /// as an exact `f64` integer `k`, the ticket `k · 2⁻⁵³` unscaled.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn next_ticket(s: &mut [__m512i; 4]) -> __m512d {
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
        _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(out))
    }

    /// The race, `n` times, over the first `miners` of the `M` columns:
    /// per step every miner's ticket in miner order, the winner by
    /// [`race`], then the winner's stake and income grow by the lane's
    /// reward.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn steps<const M: usize>(
        rng: &mut [__m512i; 4],
        reward: __m512d,
        stakes: &mut [__m512d; M],
        earned: &mut [__m512d; M],
        miners: usize,
        n: u64,
    ) {
        let mut draws = [_mm512_setzero_pd(); M];
        for _ in 0..n {
            for k in &mut draws[..miners] {
                *k = next_ticket(rng);
            }
            let (winner, _) = race(&draws, stakes, miners);
            let columns = stakes[..miners].iter_mut().zip(&mut earned[..miners]);
            for (i, (stake, income)) in columns.enumerate() {
                let won = _mm512_cmpeq_epi64_mask(winner, _mm512_set1_epi64(i as i64));
                *stake = _mm512_mask_add_pd(*stake, won, *stake, reward);
                *income = _mm512_mask_add_pd(*income, won, *income, reward);
            }
        }
    }

    /// A chain's running best: its ticket, its stake and its miner.
    #[derive(Clone, Copy)]
    struct Lead {
        k: __m512d,
        s: __m512d,
        i: __m512i,
    }

    impl Lead {
        /// Miner `i` as a lead.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(draws: &[__m512d], stakes: &[__m512d], i: usize) -> Self {
            Self {
                k: draws[i],
                s: stakes[i],
                i: _mm512_set1_epi64(i as i64),
            }
        }

        /// `other` takes the lead in the lanes where its products say its
        /// quotient is smaller, `P = other.k · s < Q = k · other.s`.
        /// `slack` keeps the least `|P − Q| − 2⁻⁴⁸ · Q` seen (one FMA
        /// rounding keeps its sign), so a lane with a near-tie has
        /// `slack ≤ 0`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn challenge(&mut self, other: Self, slack: &mut __m512d) {
            let p = _mm512_mul_pd(other.k, self.s);
            let q = _mm512_mul_pd(self.k, other.s);
            let gap = _mm512_abs_pd(_mm512_sub_pd(p, q));
            let tie = _mm512_set1_pd(1.0 / (1u64 << 48) as f64);
            *slack = _mm512_min_pd(*slack, _mm512_fnmadd_pd(q, tie, gap));
            let wins = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(p, q);
            self.k = _mm512_mask_blend_pd(wins, self.k, other.k);
            self.s = _mm512_mask_blend_pd(wins, self.s, other.s);
            self.i = _mm512_mask_blend_epi64(wins, self.i, other.i);
        }
    }

    /// One step's race over the first `miners` (at least two) of the `M`
    /// columns: each lane's strict first-index argmin of
    /// `draws[i] / stakes[i]`, and the lanes the product race flagged.
    /// The product race runs over two interleaved chains (see the module
    /// docs); if it flags any lane, [`quotient_race`] decides every lane.
    ///
    /// Generic over `M` so that each column count's copy has one caller,
    /// which inlines it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn race<const M: usize>(
        draws: &[__m512d; M],
        stakes: &[__m512d; M],
        miners: usize,
    ) -> (__m512i, __mmask8) {
        let (draws, stakes) = (&draws[..miners], &stakes[..miners]);
        let mut slack = _mm512_set1_pd(f64::INFINITY);
        let mut even = Lead::new(draws, stakes, 0);
        let mut odd = Lead::new(draws, stakes, 1);
        for i in (2..miners).step_by(2) {
            even.challenge(Lead::new(draws, stakes, i), &mut slack);
            if i + 1 < miners {
                odd.challenge(Lead::new(draws, stakes, i + 1), &mut slack);
            }
        }
        even.challenge(odd, &mut slack);
        let flagged = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(slack, _mm512_setzero_pd());
        if flagged == 0 {
            (even.i, 0)
        } else {
            (quotient_race(draws, stakes), flagged)
        }
    }

    /// The race by quotients, as the scalar race runs it: `k / s` per
    /// miner (2⁵³ times the scalar `u / s`, exactly), ordered `<`
    /// compares and masked blends from a +∞ seed, so ties keep the
    /// earlier miner.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    fn quotient_race(draws: &[__m512d], stakes: &[__m512d]) -> __m512i {
        let mut best_t = _mm512_set1_pd(f64::INFINITY);
        let mut best_i = _mm512_setzero_si512();
        for (i, (&k, &s)) in draws.iter().zip(stakes).enumerate() {
            let t = _mm512_div_pd(k, s);
            let better = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(t, best_t);
            best_t = _mm512_mask_blend_pd(better, best_t, t);
            best_i = _mm512_mask_blend_epi64(better, best_i, _mm512_set1_epi64(i as i64));
        }
        best_i
    }

    /// [`race`] on miner-major columns: each lane's winner and whether
    /// the product race flagged it, one bit per lane.
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn race_columns(
        draws: &[[f64; LANES]],
        stakes: &[[f64; LANES]],
    ) -> ([u64; LANES], u8) {
        let miners = draws.len();
        assert!((2..=MAX_MINERS).contains(&miners) && stakes.len() == miners);
        let mut d = [_mm512_setzero_pd(); MAX_MINERS];
        let mut s = [_mm512_setzero_pd(); MAX_MINERS];
        for (i, (k, stake)) in draws.iter().zip(stakes).enumerate() {
            d[i] = load_pd(k);
            s[i] = load_pd(stake);
        }
        let (winner, flagged) = race(&d, &s, miners);
        let mut winners = [0; LANES];
        store_u64(&mut winners, winner);
        (winners, flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::{available, LANES};

    /// Each lane's race winner and whether the product race flagged it,
    /// or `None` on a host without the kernel.
    fn race(draws: &[[f64; LANES]], stakes: &[[f64; LANES]]) -> Option<([u64; LANES], u8)> {
        #[cfg(target_arch = "x86_64")]
        if available() {
            // SAFETY: `available()` verified the avx512f and avx512dq CPU
            // features at runtime.
            return Some(unsafe { super::avx512::race_columns(draws, stakes) });
        }
        None
    }

    /// The scalar race's winner: the strict first-index argmin of `u / s`.
    fn scalar_winner(draws: &[f64], stakes: &[f64]) -> u64 {
        let mut best = (f64::INFINITY, 0);
        for (i, (&u, &s)) in draws.iter().zip(stakes).enumerate() {
            if u / s < best.0 {
                best = (u / s, i as u64);
            }
        }
        best.1
    }

    /// A uniform the generator can draw: `k · 2⁻⁵³`.
    fn draw(k: u64) -> f64 {
        assert!(k < 1 << 53);
        k as f64 / (1u64 << 53) as f64
    }

    /// Races crafted lanes, each a list of `(draw, stake)` per miner, and
    /// checks every lane's winner against [`scalar_winner`]; returns the
    /// flagged lanes.
    fn check(lanes: &[Vec<(f64, f64)>]) -> Option<u8> {
        assert!(lanes.len() == LANES);
        let miners = lanes[0].len();
        let mut draws = vec![[0.0; LANES]; miners];
        let mut stakes = vec![[0.0; LANES]; miners];
        for (k, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.len(), miners);
            for (i, &(u, s)) in lane.iter().enumerate() {
                draws[i][k] = u;
                stakes[i][k] = s;
            }
        }
        let (winners, flagged) = race(&draws, &stakes)?;
        for (k, lane) in lanes.iter().enumerate() {
            let (u, s): (Vec<f64>, Vec<f64>) = lane.iter().copied().unzip();
            assert_eq!(winners[k], scalar_winner(&u, &s), "lane {k}: {lane:?}");
        }
        Some(flagged)
    }

    #[test]
    fn exact_ties_and_zero_draws_are_flagged_and_fall_back() {
        // 0.25 / 0.5 = 0.5 / 1.0 = 0.5 exactly; the other miners wait
        // longer, so the tie is for the lead.
        let tie = |miners: usize, a: usize, b: usize| -> Vec<(f64, f64)> {
            (0..miners)
                .map(|i| match i {
                    _ if i == a => (0.25, 0.5),
                    _ if i == b => (0.5, 1.0),
                    _ => (0.75, 0.5 + i as f64 / 64.0),
                })
                .collect()
        };
        let zeros = |miners: usize, a: usize, b: usize| -> Vec<(f64, f64)> {
            (0..miners)
                .map(|i| {
                    (
                        if i == a || i == b { 0.0 } else { 0.5 },
                        0.1 + i as f64 / 8.0,
                    )
                })
                .collect()
        };
        for miners in [2, 3, 4, 5, 10] {
            let last = miners - 1;
            let mid = (miners - 1) / 2;
            let lanes = vec![
                tie(miners, 0, last),
                tie(miners, last, 0),
                tie(miners, 0, 1),
                tie(miners, mid, last),
                zeros(miners, 0, last),
                zeros(miners, mid, last),
                zeros(miners, 0, 1),
                // A clear winner, so one lane is decided by products.
                (0..miners)
                    .map(|i| (draw(1 << 40) * (i + 1) as f64, 1.0))
                    .collect(),
            ];
            let Some(flagged) = check(&lanes) else {
                println!("no AVX-512F+DQ on this host: lane race not run");
                return;
            };
            assert_eq!(flagged, 0b0111_1111, "m = {miners}");
        }
    }

    #[test]
    fn quotients_one_double_apart_are_ordered_exactly() {
        // Draws k and k + 1 in [1/2, 1) are adjacent doubles, and so are
        // their quotients by a power of two.
        let mut lanes = Vec::new();
        for k in [(1 << 52) + 12_345, (1 << 53) - 2, 3 << 51] {
            lanes.push(vec![(draw(k + 1), 1.0), (draw(k), 1.0)]);
            lanes.push(vec![(draw(k), 0.5), (draw(k + 1), 0.5)]);
        }
        // Adjacent quotients by unequal stakes: for each draw u by 0.7,
        // a draw by 0.3 whose quotient is the next double up.
        let (s0, s1) = (0.7, 0.3);
        for k in (1u64 << 52).. {
            let q = draw(k) / s0;
            let next = f64::from_bits(q.to_bits() + 1);
            let near = (next * s1 * (1u64 << 53) as f64) as u64;
            if let Some(j) = (near - 2..=near + 2).find(|&j| draw(j) / s1 == next) {
                let lane = vec![(draw(j), s1), (draw(k), s0)];
                if lanes.len() % 2 == 1 {
                    lanes.push(lane.into_iter().rev().collect());
                } else {
                    lanes.push(lane);
                }
            }
            if lanes.len() == LANES {
                break;
            }
        }
        for lane in &lanes {
            let (a, b) = (lane[0].0 / lane[0].1, lane[1].0 / lane[1].1);
            assert_eq!(a.to_bits().abs_diff(b.to_bits()), 1, "{lane:?}");
        }
        if let Some(flagged) = check(&lanes) {
            assert_eq!(flagged, 0xff);
        }
    }
}
