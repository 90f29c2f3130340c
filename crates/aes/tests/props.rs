//! Property-based tests for the AES implementations.

use std::sync::OnceLock;

use htd_aes::soft::{mix_columns, shift_rows, sub_bytes, xor16, Aes128};
use htd_aes::structural::{AesNetlist, AesSim};
use proptest::prelude::*;

fn shared_netlist() -> &'static AesNetlist {
    static AES: OnceLock<AesNetlist> = OnceLock::new();
    AES.get_or_init(|| AesNetlist::generate().expect("generates"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structural netlist agrees with the behavioural reference on
    /// arbitrary (plaintext, key) pairs.
    #[test]
    fn structural_matches_soft(pt in any::<[u8; 16]>(), key in any::<[u8; 16]>()) {
        let aes = shared_netlist();
        let mut sim = AesSim::new(aes).expect("simulates");
        prop_assert_eq!(sim.encrypt(&pt, &key), Aes128::new(&key).encrypt_block(&pt));
    }

    /// Avalanche: flipping one plaintext bit changes many ciphertext bits.
    #[test]
    fn avalanche(pt in any::<[u8; 16]>(), key in any::<[u8; 16]>(), bit in 0usize..128) {
        let aes = Aes128::new(&key);
        let c1 = aes.encrypt_block(&pt);
        let mut pt2 = pt;
        pt2[bit / 8] ^= 1 << (bit % 8);
        let c2 = aes.encrypt_block(&pt2);
        let flipped: u32 = c1.iter().zip(&c2).map(|(a, b)| (a ^ b).count_ones()).sum();
        prop_assert!(flipped >= 30, "only {flipped} bits flipped");
    }

    /// ShiftRows is a permutation (its 4th power is the identity).
    #[test]
    fn shift_rows_order_four(state in any::<[u8; 16]>()) {
        let mut s = state;
        for _ in 0..4 {
            s = shift_rows(&s);
        }
        prop_assert_eq!(s, state);
    }

    /// MixColumns is linear over GF(2): mc(a ⊕ b) = mc(a) ⊕ mc(b).
    #[test]
    fn mix_columns_is_linear(a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        let lhs = mix_columns(&xor16(&a, &b));
        let rhs = xor16(&mix_columns(&a), &mix_columns(&b));
        prop_assert_eq!(lhs, rhs);
    }

    /// SubBytes is a bijection on the state (16 parallel S-boxes).
    #[test]
    fn sub_bytes_is_bytewise(state in any::<[u8; 16]>(), i in 0usize..16) {
        let out = sub_bytes(&state);
        // Byte i of the output only depends on byte i of the input.
        let mut state2 = state;
        state2[i] ^= 0xFF;
        let out2 = sub_bytes(&state2);
        for j in 0..16 {
            if j == i {
                prop_assert_ne!(out[j], out2[j]);
            } else {
                prop_assert_eq!(out[j], out2[j]);
            }
        }
    }

    /// The per-round trace is consistent: each entry follows from the
    /// previous by one round, and the last is the ciphertext.
    #[test]
    fn trace_is_selfconsistent(pt in any::<[u8; 16]>(), key in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        let trace = aes.encrypt_trace(&pt);
        prop_assert_eq!(trace.len(), 11);
        for r in 1..=10 {
            prop_assert_eq!(aes.encrypt_round(&trace[r - 1], r), trace[r]);
        }
        prop_assert_eq!(trace[10], aes.encrypt_block(&pt));
    }
}
