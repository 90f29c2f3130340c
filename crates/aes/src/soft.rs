//! Behavioural AES-128: the functional reference for the structural
//! netlist and the oracle for the clock-glitch fault analysis.
//!
//! The state is kept as a flat `[u8; 16]` where byte `i` is state element
//! `s[r][c]` with `i = r + 4c` — i.e. input/output byte order *is* state
//! order, as in FIPS-197.

use crate::sbox::{gf_mul, RCON, SBOX};

/// An expanded AES-128 key (11 round keys) plus the block operations.
///
/// ```
/// use htd_aes::soft::Aes128;
///
/// // FIPS-197 Appendix B.
/// let key = [
///     0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///     0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
/// ];
/// let pt = [
///     0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
///     0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
/// ];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&pt);
/// assert_eq!(ct[..4], [0x39, 0x25, 0x84, 0x1d]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut round_keys = [[0u8; 16]; 11];
        round_keys[0] = *key;
        for r in 1..11 {
            round_keys[r] = next_round_key(&round_keys[r - 1], RCON[r]);
        }
        Aes128 { round_keys }
    }

    /// The expanded round keys (`[0]` is the cipher key itself).
    pub fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one block.
    pub fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        *self
            .encrypt_trace(plaintext)
            .last()
            .expect("trace non-empty")
    }

    /// Encrypts one block, returning the state after the initial
    /// AddRoundKey and after each of the 10 rounds (11 entries; the last is
    /// the ciphertext). This per-round visibility is what the structural
    /// netlist equivalence tests and the glitch oracle consume.
    pub fn encrypt_trace(&self, plaintext: &[u8; 16]) -> Vec<[u8; 16]> {
        let mut trace = Vec::with_capacity(11);
        let mut state = xor16(plaintext, &self.round_keys[0]);
        trace.push(state);
        for r in 1..11 {
            state = self.encrypt_round(&state, r);
            trace.push(state);
        }
        trace
    }

    /// Applies round `r` (1-based; round 10 skips MixColumns) to a state.
    pub fn encrypt_round(&self, state: &[u8; 16], r: usize) -> [u8; 16] {
        assert!((1..=10).contains(&r), "AES-128 has rounds 1..=10");
        let mut s = sub_bytes(state);
        s = shift_rows(&s);
        if r != 10 {
            s = mix_columns(&s);
        }
        xor16(&s, &self.round_keys[r])
    }
}

fn next_round_key(prev: &[u8; 16], rcon: u8) -> [u8; 16] {
    let mut rk = [0u8; 16];
    // temp = SubWord(RotWord(w3)) ^ rcon (rcon on the first byte only).
    let temp = [
        SBOX[prev[13] as usize] ^ rcon,
        SBOX[prev[14] as usize],
        SBOX[prev[15] as usize],
        SBOX[prev[12] as usize],
    ];
    for i in 0..4 {
        rk[i] = prev[i] ^ temp[i];
    }
    for w in 1..4 {
        for i in 0..4 {
            rk[4 * w + i] = prev[4 * w + i] ^ rk[4 * (w - 1) + i];
        }
    }
    rk
}

/// XOR of two 16-byte blocks.
pub fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// SubBytes: the S-box applied to every state byte.
pub fn sub_bytes(state: &[u8; 16]) -> [u8; 16] {
    state.map(|b| SBOX[b as usize])
}

/// ShiftRows: row `r` of the state rotates left by `r`.
/// With flat indexing `i = r + 4c`: `out[r + 4c] = in[r + 4((c + r) % 4)]`.
pub fn shift_rows(state: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r + 4 * c] = state[r + 4 * ((c + r) % 4)];
        }
    }
    out
}

/// MixColumns over all four columns.
pub fn mix_columns(state: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for c in 0..4 {
        let col = &state[4 * c..4 * c + 4];
        out[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        out[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        out[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        out[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b() {
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(&hex16("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        let aes = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt_block(&hex16("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn key_schedule_matches_fips_appendix_a() {
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        // w4..w7 (round key 1) and w40..w43 (round key 10) from FIPS-197 A.1.
        assert_eq!(
            aes.round_keys()[1],
            hex16("a0fafe1788542cb123a339392a6c7605")
        );
        assert_eq!(
            aes.round_keys()[10],
            hex16("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn trace_round_states_match_fips_appendix_b() {
        // FIPS-197 Appendix B intermediate "Start of Round" values.
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let trace = aes.encrypt_trace(&hex16("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(trace.len(), 11);
        // After initial AddRoundKey.
        assert_eq!(trace[0], hex16("193de3bea0f4e22b9ac68d2ae9f84808"));
        // After round 1.
        assert_eq!(trace[1], hex16("a49c7ff2689f352b6b5bea43026a5049"));
        // After round 9.
        assert_eq!(trace[9], hex16("eb40f21e592e38848ba113e71bc342d2"));
        // After round 10 = ciphertext.
        assert_eq!(trace[10], hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn shift_rows_moves_expected_bytes() {
        let mut s = [0u8; 16];
        for (i, b) in s.iter_mut().enumerate() {
            *b = i as u8;
        }
        let out = shift_rows(&s);
        // Row 0 unchanged.
        assert_eq!(out[0], 0);
        assert_eq!(out[4], 4);
        // Row 1 rotates by 1 column: out[1] = in[5].
        assert_eq!(out[1], 5);
        // Row 3 rotates by 3: out[3] = in[3 + 4*3] = 15.
        assert_eq!(out[3], 15);
    }

    #[test]
    fn mix_columns_known_vector() {
        // FIPS-197 §5.1.3 example column: db 13 53 45 -> 8e 4d a1 bc.
        let mut s = [0u8; 16];
        s[0] = 0xdb;
        s[1] = 0x13;
        s[2] = 0x53;
        s[3] = 0x45;
        let out = mix_columns(&s);
        assert_eq!(&out[..4], &[0x8e, 0x4d, 0xa1, 0xbc]);
    }

    #[test]
    fn encrypt_round_composes_to_trace() {
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let trace = aes.encrypt_trace(&hex16("3243f6a8885a308d313198a2e0370734"));
        for r in 1..=10 {
            assert_eq!(aes.encrypt_round(&trace[r - 1], r), trace[r]);
        }
    }
}
