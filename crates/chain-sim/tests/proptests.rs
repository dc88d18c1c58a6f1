//! Property-based tests for the blockchain substrate.

use chain_sim::{
    nxt_adjust_base_target, proportional_split, sha256, Hash256, HashBuilder, Ledger, MerkleTree,
    MinerProfile, SlPosEngine, Transaction, U256,
};
use proptest::prelude::*;

proptest! {
    // ---------------- SHA-256 ----------------

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let d1 = sha256(&data);
        let d2 = sha256(&data);
        prop_assert_eq!(d1, d2);
        // Flipping any single bit changes the digest.
        if !data.is_empty() {
            let mut tampered = data.clone();
            tampered[0] ^= 1;
            prop_assert_ne!(sha256(&tampered), d1);
        }
    }

    #[test]
    fn sha256_incremental_chunking_invariant(
        data in prop::collection::vec(any::<u8>(), 0..600),
        split in any::<usize>(),
    ) {
        let mut h = chain_sim::Sha256::new();
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn builder_pairs_match_single_finishes_and_the_framing(
        first in prop::collection::vec((0u8..3, any::<u64>(), prop::collection::vec(any::<u8>(), 0..80)), 0..8),
        second in prop::collection::vec((0u8..3, any::<u64>(), prop::collection::vec(any::<u8>(), 0..80)), 0..8),
    ) {
        // Each field is a `u64`, a byte string or a hash (kinds 0, 1, 2).
        // The builder frames the domain and every field; hashing that
        // framing in one piece must give the same digest.
        let build = |fields: &[(u8, u64, Vec<u8>)]| -> (HashBuilder, Vec<u8>) {
            let mut builder = HashBuilder::new("prop-fields");
            let mut framed = 11u64.to_le_bytes().to_vec();
            framed.extend_from_slice(b"prop-fields");
            for (kind, v, bytes) in fields {
                match kind {
                    0 => {
                        builder = builder.u64(*v);
                        framed.push(8);
                        framed.extend_from_slice(&v.to_le_bytes());
                    }
                    1 => {
                        builder = builder.bytes(bytes);
                        framed.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                        framed.extend_from_slice(bytes);
                    }
                    _ => {
                        let h = sha256(bytes);
                        builder = builder.hash(&Hash256(h));
                        framed.extend_from_slice(&32u64.to_le_bytes());
                        framed.extend_from_slice(&h);
                    }
                }
            }
            (builder, framed)
        };
        let (a, framed_a) = build(&first);
        let (b, framed_b) = build(&second);
        let pair = HashBuilder::finish_pair(a.clone(), b.clone());
        prop_assert_eq!(pair, [a.finish(), b.finish()]);
        prop_assert_eq!(pair, [Hash256(sha256(&framed_a)), Hash256(sha256(&framed_b))]);
    }

    // ---------------- U256 ----------------

    #[test]
    fn u256_add_commutes_and_associates(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        let (x, y, z) = (U256::from_u128(a), U256::from_u128(b), U256::from_u128(c));
        prop_assert_eq!(x.wrapping_add(y), y.wrapping_add(x));
        prop_assert_eq!(x.wrapping_add(y).wrapping_add(z), x.wrapping_add(y.wrapping_add(z)));
    }

    #[test]
    fn u256_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (U256::from_u64(a), U256::from_u64(b), U256::from_u64(c));
        // (x + y) * z == x*z + y*z (all fit in 256 bits from 64-bit inputs).
        let lhs = (x.wrapping_add(y)).wrapping_mul(z);
        let rhs = x.wrapping_mul(z).wrapping_add(y.wrapping_mul(z));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn u256_ordering_consistent_with_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(U256::from_u128(a).cmp(&U256::from_u128(b)), a.cmp(&b));
    }

    #[test]
    fn u256_display_matches_u128(v in any::<u128>()) {
        prop_assert_eq!(U256::from_u128(v).to_string(), v.to_string());
    }

    #[test]
    fn u256_div_rem_by_one_limb_reconstructs(
        limbs in prop::array::uniform4(any::<u64>()),
        shift in 0u32..256,
        d in 1u64..,
    ) {
        // The shift spreads `n` over every magnitude, `n < d` included.
        let n = U256::from_limbs(limbs) >> shift;
        for d in [d, 1, u64::MAX] {
            let (q, r) = n.div_rem(U256::from_u64(d));
            prop_assert!(r < U256::from_u64(d));
            // q·d + r == n, with the product taken in 512 bits so the
            // check itself cannot wrap.
            let (lo, hi) = q.widening_mul(U256::from_u64(d));
            prop_assert!(hi.is_zero());
            prop_assert_eq!(lo + r, n);
        }
    }

    // ---------------- ledger ----------------

    #[test]
    fn ledger_transfers_conserve_supply(
        balances in prop::collection::vec(1u64..1_000_000, 2..6),
        moves in prop::collection::vec((0usize..6, 0usize..6, 1u64..5_000), 0..30),
    ) {
        let alloc: Vec<_> = balances
            .iter()
            .enumerate()
            .map(|(i, &b)| (chain_sim::Address::for_miner(i), b))
            .collect();
        let mut ledger = Ledger::with_genesis(&alloc);
        let supply = ledger.total_supply();
        for (from, to, amount) in moves {
            let from_addr = chain_sim::Address::for_miner(from % balances.len());
            let to_addr = chain_sim::Address::for_miner(to % balances.len());
            let nonce = ledger.nonce(&from_addr);
            // Transfers may fail (insufficient funds, self-transfer ok);
            // either way supply must not change.
            let _ = ledger.transfer(from_addr, to_addr, amount, nonce);
            prop_assert_eq!(ledger.total_supply(), supply);
            prop_assert!(ledger.check_supply_invariant());
        }
    }

    #[test]
    fn split_then_credit_preserves_atoms(
        total in 0u64..10_000_000,
        weights in prop::collection::vec(1u64..1_000, 1..10),
    ) {
        let shares = proportional_split(total, &weights);
        let mut ledger = Ledger::new();
        for (i, &s) in shares.iter().enumerate() {
            ledger.credit(chain_sim::Address::for_miner(i), s).unwrap();
        }
        prop_assert_eq!(ledger.total_supply(), total);
    }

    // ---------------- merkle ----------------

    #[test]
    fn merkle_root_deterministic_and_order_sensitive(n in 2usize..24, swap in 0usize..24) {
        let leaves: Vec<Hash256> = (0..n as u64)
            .map(|i| HashBuilder::new("mp").u64(i).finish())
            .collect();
        let root = MerkleTree::build(&leaves).root();
        prop_assert_eq!(MerkleTree::build(&leaves).root(), root);
        let i = swap % n;
        let j = (swap + 1) % n;
        if i != j {
            let mut swapped = leaves.clone();
            swapped.swap(i, j);
            prop_assert_ne!(MerkleTree::build(&swapped).root(), root);
        }
    }

    // ---------------- transactions ----------------

    #[test]
    fn transaction_ids_injective_on_fields(
        amount in 1u64..1_000_000,
        fee in 0u64..1_000,
        nonce in 0u64..1_000,
    ) {
        let a = chain_sim::Address::for_miner(0);
        let b = chain_sim::Address::for_miner(1);
        let tx = Transaction::transfer(a, b, amount, fee, nonce);
        prop_assert!(tx.verify_auth());
        let other = Transaction::transfer(a, b, amount + 1, fee, nonce);
        prop_assert_ne!(tx.id(), other.id());
    }

    // ---------------- difficulty ----------------

    #[test]
    fn nxt_retarget_stays_in_band(
        time in 1u64..10_000,
        steps in 1usize..60,
    ) {
        let init = U256::ONE << 150u32;
        let mut t = init;
        for _ in 0..steps {
            t = nxt_adjust_base_target(t, init, time, 100);
        }
        let min_t = init.div_rem(U256::from_u64(50)).0;
        let max_t = init.saturating_mul(U256::from_u64(50));
        prop_assert!(t >= min_t && t <= max_t);
    }

    // ---------------- SL-PoS determinism ----------------

    #[test]
    fn slpos_lottery_is_pure_function_of_chain_state(
        stakes in prop::collection::vec(1u64..1_000_000, 2..6),
        tag in any::<u64>(),
    ) {
        let miners: Vec<MinerProfile> =
            (0..stakes.len()).map(|i| MinerProfile::new(i, 0)).collect();
        let prev = HashBuilder::new("prev").u64(tag).finish();
        let engine = SlPosEngine::new(1000);
        let mut rng = fairness_stats::rng::Xoshiro256StarStar::new(1);
        let a = chain_sim::BlockLottery::run(&engine, &prev, 1, &miners, &stakes, &mut rng);
        let b = chain_sim::BlockLottery::run(&engine, &prev, 1, &miners, &stakes, &mut rng);
        prop_assert_eq!(a, b);
        prop_assert!(chain_sim::BlockLottery::verify(&engine, &prev, 1, &miners, &stakes, &a));
    }
}
