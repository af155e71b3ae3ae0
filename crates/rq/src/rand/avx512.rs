//! The AVX-512 kernel of [`super::mix64_stream`]: eight counters per
//! 512-bit register, each mixed by [`super::mix64`]'s shifts, XORs and
//! 64-bit multiplies (`vpmullq`, AVX-512DQ), then stored as eight
//! little-endian words. A tail shorter than eight words goes to the
//! scalar loop, so every word equals the scalar stream's.
//!
//! Beside `gf256`'s vector kernels this module is the crate's only
//! `unsafe` code: calling the `#[target_feature]` function once
//! [`Avx512::detect`] has seen the features, and the unaligned store of
//! one 64-byte chunk.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set_epi64,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_xor_si512,
};

use super::{mix64_stream_scalar, GAMMA, MIX1, MIX2};

/// Proof that this host runs AVX-512F and AVX-512DQ: the only way to
/// reach the kernel.
#[derive(Clone, Copy, Debug)]
pub(super) struct Avx512(());

impl Avx512 {
    /// `Some` when the CPU has AVX-512F and AVX-512DQ.
    pub(super) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq"))
            .then_some(Self(()))
    }

    /// [`super::mix64_stream`].
    pub(super) fn mix64_stream(self, counter: u64, step: u64, out: &mut [[u8; 8]]) {
        // SAFETY: `self` exists only once `detect` has seen the features.
        unsafe { mix64_stream_avx512(counter, step, out) }
    }
}

/// [`super::mix64`] of each 64-bit lane.
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn mix64(z: __m512i) -> __m512i {
    let z = _mm512_add_epi64(z, _mm512_set1_epi64(GAMMA as i64));
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z));
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX1 as i64));
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX2 as i64));
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

#[target_feature(enable = "avx512f,avx512dq")]
fn mix64_stream_avx512(counter: u64, step: u64, out: &mut [[u8; 8]]) {
    let lane = |i: u64| counter.wrapping_add(i.wrapping_mul(step)) as i64;
    let mut counters = _mm512_set_epi64(
        lane(7),
        lane(6),
        lane(5),
        lane(4),
        lane(3),
        lane(2),
        lane(1),
        lane(0),
    );
    let stride = _mm512_set1_epi64(step.wrapping_mul(8) as i64);
    let (chunks, tail) = out.as_chunks_mut::<8>();
    for chunk in chunks.iter_mut() {
        // SAFETY: `chunk` is 64 writable bytes; `storeu` needs no
        // alignment. x86 is little-endian, so each lane lands as its
        // `to_le_bytes`.
        unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), mix64(counters)) };
        counters = _mm512_add_epi64(counters, stride);
    }
    let done = (chunks.len() * 8) as u64;
    mix64_stream_scalar(counter.wrapping_add(done.wrapping_mul(step)), step, tail);
}
