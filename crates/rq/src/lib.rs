//! # `rq` — a systematic rateless fountain code (RaptorQ family)
//!
//! A from-scratch implementation of the code family Polyraptor
//! (SIGCOMM'18) builds on: **Raptor codes with a GF(256) high-density
//! precode**, per the architecture of RFC 6330 (RaptorQ). The crate
//! provides:
//!
//! * a **systematic** encoder — encoding symbols `0..k` *are* the source
//!   symbols, so a lossless transfer needs no decoding at all; the
//!   construction (SCDP-style) makes the encoder *solve-free* too, and
//!   the decoder's solve shrinks with the loss count;
//! * a **rateless** repair stream — any `esi >= k` yields a repair symbol,
//!   and any fresh symbol is as useful as any other, which is what lets
//!   Polyraptor never retransmit and never care which packet was lost;
//! * a **steep overhead/failure curve** — with `k + 2` distinct symbols
//!   decoding fails with probability on the order of 10⁻⁶ (the property
//!   quoted in the paper, validated empirically in
//!   `tests/systematic_battery.rs::loss_sweep_overhead_envelope` and
//!   the benchmark's `rq.decode_fail_share`).
//!
//! ## Quickstart
//!
//! ```
//! use rq::{Encoder, Decoder};
//!
//! let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
//! let enc = Encoder::new(&data, 1440).unwrap();
//! let mut dec = Decoder::new(enc.params());
//!
//! // Simulate loss: drop the first two source symbols, top up with any
//! // two repair symbols instead.
//! let k = enc.params().k as u32;
//! for esi in 2..k {
//!     dec.push(esi, enc.symbol(esi));
//! }
//! dec.push(k + 7, enc.symbol(k + 7));
//! dec.push(k + 8, enc.symbol(k + 8));
//!
//! assert_eq!(dec.try_decode().unwrap(), data);
//! ```
//!
//! ## Relationship to RFC 6330
//!
//! The construction mirrors RFC 6330 structurally — LDPC rows, dense
//! GF(256) HDPC rows, LT tuple walk modulo a prime, inactivation
//! decoding — but derives its parameters from `K` instead of shipping the
//! RFC's 477-entry constant table, and uses a hash-based deterministic
//! PRNG instead of the RFC's fixed random tables. Wire compatibility with
//! RFC 6330 is therefore **not** a goal; the behavioural contract the
//! paper relies on is, and is enforced by tests.

#![warn(missing_docs)]
// `deny`, not `forbid`: two private modules opt out, `gf256::avx2`
// (the AVX2 and GFNI field kernels) and `rand::avx512` (the AVX-512
// counter-stream fill).
#![deny(unsafe_code)]

pub mod decoder;
pub mod degree;
pub mod encoder;
pub mod gf256;
pub mod hdpc;
pub mod matrix;
pub mod params;
pub mod rand;
pub mod solver;
pub mod tuple;

pub use decoder::{DecodeError, DecodeStats, Decoded, Decoder};
pub use encoder::{CodeParams, EncodeError, Encoder};
pub use params::{BlockParams, CodeMode};
pub use solver::SolveError;
