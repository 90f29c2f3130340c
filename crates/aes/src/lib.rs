//! AES-128 for the `htd` trojan-detection suite, at two levels of
//! abstraction:
//!
//! * [`soft`] — a behavioural implementation (encrypt / key schedule /
//!   per-round state taps), verified against the FIPS-197
//!   vectors. This is the functional reference.
//! * [`structural`] — a generator that elaborates the same iterative
//!   AES-128 into a LUT6-mapped [`htd_netlist::Netlist`]: one round per
//!   clock, on-the-fly key schedule, 128-bit datapath, S-boxes decomposed
//!   into 4-quadrant LUT6 mux trees. This is the *target circuit* of the
//!   paper — every delay and EM experiment runs on this netlist.
//!
//! The structural design exposes the nets the paper's trojans tap (the 128
//! SubBytes input signals) and the nets the clock-glitch attack faults (the
//! 128 state-register `D` pins).
//!
//! # Example
//!
//! ```
//! use htd_aes::soft::Aes128;
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let ct = aes.encrypt_block(&[0u8; 16]);
//! // FIPS-197 / NIST known-answer for the all-zero key and block.
//! assert_eq!(ct[0], 0x66);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sbox;
pub mod soft;
pub mod structural;

pub use structural::AesNetlist;
