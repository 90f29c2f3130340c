//! Structural AES-128: elaboration into a LUT6-mapped netlist.
//!
//! The generated design mirrors the iterative FPGA implementation the paper
//! attacks: a 128-bit state register, a 128-bit round-key register with
//! on-the-fly key schedule, a 4-bit round counter, and one full round of
//! combinational logic per clock. Technology mapping choices:
//!
//! * **S-box**: each of the 8 output bits is a 4-quadrant decomposition —
//!   four LUT6 over the input's low six bits plus one LUT6 acting as a 4:1
//!   mux on the top two bits (5 LUTs per bit, 40 per S-box). 16 state
//!   S-boxes + 4 key-schedule S-boxes.
//! * **MixColumns / AddRoundKey**: XOR networks packed into ≤6-input LUTs.
//! * **ShiftRows**: pure wiring (no cells), as on a real FPGA.
//! * **Control**: round counter with load/hold, RCON decode LUTs, and a
//!   last-round MixColumns bypass folded into the AddRoundKey LUTs.
//!
//! The resulting netlist is ~1.5 k LUTs / 260 FFs, which lands at ≈ 38 % of
//! the scaled LX30 device — matching the paper's reported AES utilisation
//! (Section II-B).
//!
//! Interface timing: assert `load` with plaintext/key for one clock (the
//! state register captures `pt ⊕ key`, the round-key register captures the
//! key, the counter resets to 1), then clock ten more times; the state
//! register then holds the ciphertext and `done` goes high. [`AesSim`]
//! wraps this protocol.

use htd_netlist::{CellId, LutMask, NetId, Netlist, NetlistError, Simulator};

use crate::sbox::{RCON, SBOX};

/// Block/bit packing used throughout: bit `i` of a 128-bit block is bit
/// `i % 8` (LSB-first) of byte `i / 8`, and byte order is FIPS-197 state
/// order (`s[r][c]` at byte index `r + 4c`).
pub const BLOCK_BITS: usize = 128;

/// The structural AES-128 design plus its pin map.
#[derive(Debug, Clone)]
pub struct AesNetlist {
    netlist: Netlist,
    plaintext: Vec<NetId>,
    key: Vec<NetId>,
    load: NetId,
    state_q: Vec<NetId>,
    state_d: Vec<NetId>,
    state_cells: Vec<CellId>,
    rk_q: Vec<NetId>,
    counter_q: Vec<NetId>,
    done: NetId,
}

impl AesNetlist {
    /// Elaborates the AES-128 design.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from construction; the fixed generator
    /// is expected to always succeed (a failure indicates an internal bug).
    pub fn generate() -> Result<Self, NetlistError> {
        let mut nl = Netlist::new("aes128");

        // ---- Ports -----------------------------------------------------
        let plaintext: Vec<NetId> = (0..BLOCK_BITS)
            .map(|i| nl.add_input(format!("pt[{i}]")))
            .collect();
        let key: Vec<NetId> = (0..BLOCK_BITS)
            .map(|i| nl.add_input(format!("key[{i}]")))
            .collect();
        let load = nl.add_input("load");

        // ---- Registers (created first so feedback can reference Q) -----
        let mut state_cells = Vec::with_capacity(BLOCK_BITS);
        let mut state_q = Vec::with_capacity(BLOCK_BITS);
        for i in 0..BLOCK_BITS {
            let (c, q) = nl.add_dff_uninit(format!("state[{i}]"));
            state_cells.push(c);
            state_q.push(q);
        }
        let mut rk_cells = Vec::with_capacity(BLOCK_BITS);
        let mut rk_q = Vec::with_capacity(BLOCK_BITS);
        for i in 0..BLOCK_BITS {
            let (c, q) = nl.add_dff_uninit(format!("rk[{i}]"));
            rk_cells.push(c);
            rk_q.push(q);
        }
        let mut ctr_cells = Vec::with_capacity(4);
        let mut counter_q = Vec::with_capacity(4);
        for i in 0..4 {
            let (c, q) = nl.add_dff_uninit(format!("round[{i}]"));
            ctr_cells.push(c);
            counter_q.push(q);
        }

        // ---- Control ---------------------------------------------------
        // `is_last` and `hold` are *registered* decodes of the next counter
        // value: combinational decodes of a binary counter glitch while the
        // counter bits settle (9 -> 10 passes through 11), and a glitching
        // 260-fan-out control net would swamp the data-dependent timing the
        // glitch attack measures. Registered control is also what a careful
        // RTL designer writes.
        let (is_last_ff, is_last) = nl.add_dff_uninit("is_last");
        let (hold_ff, hold) = nl.add_dff_uninit("hold");
        let inc = nl.incrementer(&counter_q);
        // counter_d = load ? 1 : (hold ? q : inc)
        let mut counter_d = Vec::with_capacity(4);
        for i in 0..4 {
            let target = i == 0; // binary 1
            let mask = LutMask::from_fn(4, move |r| {
                let inc_b = r & 1 == 1;
                let q_b = r & 2 == 2;
                let load_b = r & 4 == 4;
                let hold_b = r & 8 == 8;
                if load_b {
                    target
                } else if hold_b {
                    q_b
                } else {
                    inc_b
                }
            });
            let d = nl.add_lut_named(
                &[inc[i], counter_q[i], load, hold],
                mask,
                format!("round_d[{i}]"),
            )?;
            nl.connect_dff_d(ctr_cells[i], d)?;
            counter_d.push(d);
        }
        let is_last_d = nl.eq_const(&counter_d, 10);
        nl.connect_dff_d(is_last_ff, is_last_d)?;
        let hold_d = nl.eq_const(&counter_d, 11);
        nl.connect_dff_d(hold_ff, hold_d)?;

        // RCON decode: 8 bits from the 4 counter bits.
        let rcon_bits: Vec<NetId> = (0..8)
            .map(|j| {
                let mask = LutMask::from_fn(4, move |r| {
                    let r = r as usize;
                    (1..=10).contains(&r) && (RCON[r] >> j) & 1 == 1
                });
                nl.add_lut_named(&counter_q, mask, format!("rcon[{j}]"))
            })
            .collect::<Result<_, _>>()?;

        // ---- Key schedule (combinational, computes rk_r from rk_{r-1}) --
        // temp = SubWord(RotWord(w3)) ^ rcon; rotated byte order 13,14,15,12.
        // The recurrence w_k' = w_k ^ w_{k-1}' telescopes to
        // w_k' = w_k ^ ... ^ w_0 ^ temp, which a mapper flattens into one
        // ≤6-input XOR LUT per bit (3 logic levels total instead of a
        // 7-level XOR chain — the balanced form real synthesis produces).
        let ks_sbox_in: [usize; 4] = [13, 14, 15, 12];
        let mut sub_rot_bits: Vec<NetId> = Vec::with_capacity(32);
        for (t, &src_byte) in ks_sbox_in.iter().enumerate() {
            let in_bits: [NetId; 8] = core::array::from_fn(|b| rk_q[src_byte * 8 + b]);
            let s = sbox_bits(&mut nl, &in_bits, &format!("ks_sbox{t}"))?;
            sub_rot_bits.extend_from_slice(&s);
        }
        let mut rk_next: Vec<NetId> = Vec::with_capacity(BLOCK_BITS);
        for w in 0..4usize {
            for i in 0..32usize {
                let mut sources: Vec<NetId> = (0..=w).map(|k| rk_q[k * 32 + i]).collect();
                sources.push(sub_rot_bits[i]);
                if i < 8 {
                    // RCON lands on the first byte of temp.
                    sources.push(rcon_bits[i]);
                }
                rk_next.push(nl.xor_many(&sources));
            }
        }

        // ---- Round datapath ---------------------------------------------
        // SubBytes over the 16 state bytes.
        let mut sb: Vec<[NetId; 8]> = Vec::with_capacity(16);
        for byte in 0..16 {
            let in_bits: [NetId; 8] = core::array::from_fn(|b| state_q[byte * 8 + b]);
            sb.push(sbox_bits(&mut nl, &in_bits, &format!("sbox{byte}"))?);
        }
        // ShiftRows: byte permutation, out[r + 4c] = in[r + 4((c + r) % 4)].
        let mut sr: Vec<[NetId; 8]> = vec![[sb[0][0]; 8]; 16];
        for r in 0..4 {
            for c in 0..4 {
                sr[r + 4 * c] = sb[r + 4 * ((c + r) % 4)];
            }
        }
        // MixColumns per column; coefficient matrix rows are rotations of
        // [2, 3, 1, 1].
        let mut mc: Vec<[NetId; 8]> = Vec::with_capacity(16);
        for col in 0..4 {
            let bytes: [[NetId; 8]; 4] = core::array::from_fn(|r| sr[4 * col + r]);
            for out_row in 0..4 {
                let mut out_bits = [sb[0][0]; 8];
                for (bit, out_bit) in out_bits.iter_mut().enumerate() {
                    let mut sources: Vec<NetId> = Vec::with_capacity(8);
                    for (k, byte) in bytes.iter().enumerate() {
                        let coeff = [2u8, 3, 1, 1][(k + 4 - out_row) % 4];
                        match coeff {
                            1 => sources.push(byte[bit]),
                            2 => sources.extend(xtime_sources(byte, bit)),
                            3 => {
                                sources.extend(xtime_sources(byte, bit));
                                sources.push(byte[bit]);
                            }
                            _ => unreachable!("MixColumns uses only 1, 2, 3"),
                        }
                    }
                    *out_bit = nl.xor_many(&sources);
                }
                mc.push(out_bits);
            }
        }

        // AddRoundKey with last-round MixColumns bypass, then the state
        // load/hold mux. ark = (is_last ? sr : mc) ^ rk_next.
        let mut state_d = Vec::with_capacity(BLOCK_BITS);
        for i in 0..BLOCK_BITS {
            let (byte, bit) = (i / 8, i % 8);
            let ark_mask = LutMask::from_fn(4, |r| {
                let mc_b = r & 1 == 1;
                let sr_b = r & 2 == 2;
                let last_b = r & 4 == 4;
                let rk_b = r & 8 == 8;
                (if last_b { sr_b } else { mc_b }) ^ rk_b
            });
            let ark = nl.add_lut_named(
                &[mc[byte][bit], sr[byte][bit], is_last, rk_next[i]],
                ark_mask,
                format!("ark[{i}]"),
            )?;
            let init = nl.xor2(plaintext[i], key[i]);
            // d = load ? init : (hold ? q : ark)
            let mux_mask = LutMask::from_fn(5, |r| {
                let ark_b = r & 1 == 1;
                let init_b = r & 2 == 2;
                let q_b = r & 4 == 4;
                let load_b = r & 8 == 8;
                let hold_b = r & 16 == 16;
                if load_b {
                    init_b
                } else if hold_b {
                    q_b
                } else {
                    ark_b
                }
            });
            let d = nl.add_lut_named(
                &[ark, init, state_q[i], load, hold],
                mux_mask,
                format!("state_d[{i}]"),
            )?;
            nl.connect_dff_d(state_cells[i], d)?;
            state_d.push(d);
        }

        // Round-key register mux: d = load ? key : (hold ? q : rk_next).
        for i in 0..BLOCK_BITS {
            let mask = LutMask::from_fn(5, |r| {
                let next_b = r & 1 == 1;
                let key_b = r & 2 == 2;
                let q_b = r & 4 == 4;
                let load_b = r & 8 == 8;
                let hold_b = r & 16 == 16;
                if load_b {
                    key_b
                } else if hold_b {
                    q_b
                } else {
                    next_b
                }
            });
            let d = nl.add_lut_named(
                &[rk_next[i], key[i], rk_q[i], load, hold],
                mask,
                format!("rk_d[{i}]"),
            )?;
            nl.connect_dff_d(rk_cells[i], d)?;
        }

        // ---- Output ports -----------------------------------------------
        for (i, &q) in state_q.iter().enumerate() {
            nl.add_output(format!("ct[{i}]"), q)?;
        }
        nl.add_output("done", hold)?;

        nl.validate()?;
        Ok(AesNetlist {
            netlist: nl,
            plaintext,
            key,
            load,
            state_q,
            state_d,
            state_cells,
            rk_q,
            counter_q,
            done: hold,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the netlist — used by trojan insertion, which only
    /// *adds* cells, so every pin id recorded here stays valid.
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Plaintext input nets (bit order per [`BLOCK_BITS`]).
    pub fn plaintext(&self) -> &[NetId] {
        &self.plaintext
    }

    /// Key input nets.
    pub fn key(&self) -> &[NetId] {
        &self.key
    }

    /// The `load` control input.
    pub fn load(&self) -> NetId {
        self.load
    }

    /// Ciphertext nets (the state-register outputs after 10 rounds).
    pub fn ciphertext(&self) -> &[NetId] {
        &self.state_q
    }

    /// The 128 SubBytes input signals — the nets the paper's combinational
    /// trojans monitor (Section II-B). Identical to the state-register `Q`
    /// nets in this architecture.
    pub fn subbytes_inputs(&self) -> &[NetId] {
        &self.state_q
    }

    /// The state-register `D` nets: the sampling points whose settling time
    /// the clock-glitch attack measures bit by bit.
    pub fn state_d(&self) -> &[NetId] {
        &self.state_d
    }

    /// The 128 state flip-flop cells, in block-bit order.
    pub fn state_cells(&self) -> &[CellId] {
        &self.state_cells
    }

    /// Round-key register outputs.
    pub fn round_key_q(&self) -> &[NetId] {
        &self.rk_q
    }

    /// The 4-bit round counter outputs (LSB first).
    pub fn round_counter(&self) -> &[NetId] {
        &self.counter_q
    }

    /// The `done`/hold net (high once the ciphertext is frozen).
    pub fn done(&self) -> NetId {
        self.done
    }
}

/// Emits the 40-LUT S-box: per output bit, four quadrant LUT6 plus a LUT6
/// 4:1 mux on the two top input bits.
fn sbox_bits(nl: &mut Netlist, input: &[NetId; 8], name: &str) -> Result<[NetId; 8], NetlistError> {
    let low: [NetId; 6] = core::array::from_fn(|i| input[i]);
    let mut out = [input[0]; 8];
    for (j, out_bit) in out.iter_mut().enumerate() {
        let mut lanes = [input[0]; 4];
        for (lane, lane_net) in lanes.iter_mut().enumerate() {
            let mask = LutMask::from_fn(6, move |r| (SBOX[(lane << 6) | r as usize] >> j) & 1 == 1);
            *lane_net = nl.add_lut_named(&low, mask, format!("{name}.q{lane}b{j}"))?;
        }
        *out_bit = nl.mux4([input[6], input[7]], lanes);
    }
    Ok(out)
}

/// Source nets of bit `i` of `xtime(a)` (multiplication by 2 in GF(2⁸)):
/// `a[i-1]`, plus `a[7]` where the reduction polynomial `0x1B` has a bit.
fn xtime_sources(a: &[NetId; 8], i: usize) -> Vec<NetId> {
    let mut v = Vec::with_capacity(2);
    if i > 0 {
        v.push(a[i - 1]);
    }
    if matches!(i, 0 | 1 | 3 | 4) {
        v.push(a[7]);
    }
    v
}

/// A functional simulation harness driving the [`AesNetlist`] interface
/// protocol (load, then ten round clocks).
#[derive(Debug)]
pub struct AesSim<'a> {
    aes: &'a AesNetlist,
    sim: Simulator<'a>,
}

impl<'a> AesSim<'a> {
    /// Creates a simulator over the design.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn new(aes: &'a AesNetlist) -> Result<Self, NetlistError> {
        let sim = aes.netlist.simulator()?;
        Ok(AesSim { aes, sim })
    }

    /// Loads a plaintext/key pair: after this call the state register holds
    /// `pt ⊕ key` and the round counter is 1 (about to compute round 1).
    pub fn start(&mut self, plaintext: &[u8; 16], key: &[u8; 16]) {
        self.sim.set_bus_bytes(&self.aes.plaintext, plaintext);
        self.sim.set_bus_bytes(&self.aes.key, key);
        self.sim.set(self.aes.load, true);
        self.sim.settle();
        self.sim.clock();
        self.sim.set(self.aes.load, false);
        self.sim.settle();
    }

    /// Advances one round (one clock).
    pub fn step_round(&mut self) {
        self.sim.clock();
    }

    /// The current state-register contents as bytes.
    pub fn state(&self) -> [u8; 16] {
        let v = self.sim.get_bus_bytes(&self.aes.state_q);
        v.try_into().expect("state register is 128 bits")
    }

    /// The current round-counter value.
    pub fn round(&self) -> u8 {
        self.sim.get_bus(&self.aes.counter_q) as u8
    }

    /// Whether the design has frozen its ciphertext.
    pub fn is_done(&self) -> bool {
        self.sim.get(self.aes.done)
    }

    /// Runs a full encryption (load + 10 rounds) and returns the
    /// ciphertext.
    pub fn encrypt(&mut self, plaintext: &[u8; 16], key: &[u8; 16]) -> [u8; 16] {
        self.start(plaintext, key);
        for _ in 0..10 {
            self.step_round();
        }
        self.state()
    }

    /// Read-only access to the raw simulator.
    pub fn simulator(&self) -> &Simulator<'a> {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft::Aes128;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn netlist_validates_and_has_expected_size() {
        let aes = AesNetlist::generate().unwrap();
        let stats = aes.netlist().stats();
        assert_eq!(stats.dffs, 262); // 128 state + 128 rk + 4 counter + 2 control
        assert!(
            (1200..2200).contains(&stats.luts),
            "unexpected LUT count {}",
            stats.luts
        );
        assert_eq!(stats.inputs, 257);
        assert_eq!(stats.outputs, 129);
    }

    #[test]
    fn structural_matches_fips_vector() {
        let aes = AesNetlist::generate().unwrap();
        let mut sim = AesSim::new(&aes).unwrap();
        let ct = sim.encrypt(
            &hex16("3243f6a8885a308d313198a2e0370734"),
            &hex16("2b7e151628aed2a6abf7158809cf4f3c"),
        );
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
        assert!(sim.is_done());
    }

    #[test]
    fn per_round_states_match_behavioural() {
        let aes = AesNetlist::generate().unwrap();
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        let soft = Aes128::new(&key);
        let trace = soft.encrypt_trace(&pt);
        let mut sim = AesSim::new(&aes).unwrap();
        sim.start(&pt, &key);
        assert_eq!(sim.state(), trace[0], "state after load");
        for (r, want) in trace.iter().enumerate().skip(1) {
            assert_eq!(sim.round(), r as u8, "round counter before round {r}");
            sim.step_round();
            assert_eq!(&sim.state(), want, "state after round {r}");
        }
    }

    #[test]
    fn hold_freezes_ciphertext() {
        let aes = AesNetlist::generate().unwrap();
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let mut sim = AesSim::new(&aes).unwrap();
        let ct = sim.encrypt(&pt, &key);
        for _ in 0..3 {
            sim.step_round();
            assert_eq!(sim.state(), ct, "ciphertext must stay frozen");
            assert!(sim.is_done());
        }
    }

    #[test]
    fn back_to_back_encryptions_reload_cleanly() {
        let aes = AesNetlist::generate().unwrap();
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let soft = Aes128::new(&key);
        let mut sim = AesSim::new(&aes).unwrap();
        for n in 0..3u8 {
            let mut pt = [n; 16];
            pt[0] = n.wrapping_add(1);
            let want = soft.encrypt_block(&pt);
            assert_eq!(sim.encrypt(&pt, &key), want, "encryption #{n}");
        }
    }

    #[test]
    fn several_random_vectors_match_behavioural() {
        let aes = AesNetlist::generate().unwrap();
        let mut sim = AesSim::new(&aes).unwrap();
        // Simple deterministic pseudo-random vectors.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10 {
            let mut pt = [0u8; 16];
            let mut key = [0u8; 16];
            for i in 0..16 {
                pt[i] = (next() & 0xff) as u8;
                key[i] = (next() & 0xff) as u8;
            }
            let want = Aes128::new(&key).encrypt_block(&pt);
            assert_eq!(sim.encrypt(&pt, &key), want);
        }
    }
}
