//! Deterministic pseudo-random primitives used by the code construction.
//!
//! RFC 6330 drives its tuple generator from fixed 256-entry random tables
//! (`V0..V3`). We use a SplitMix64-based hash instead: it is simpler, has
//! excellent avalanche behaviour, and — crucially for a *code* — is a pure
//! deterministic function of its inputs, so encoder and decoder always agree
//! with no shared tables to transcribe.
//!
//! [`mix64_stream`] writes the SplitMix64 *counter* stream — word `i` is
//! `mix64(counter + i·step)` — eight words per instruction with
//! AVX-512 (the private `avx512` module), else one by one; both give the
//! same bytes. It generates the simulator's canonical objects.
//!
//! [`Xorshift64`] is the seeded stream the codec's tests draw objects and
//! loss patterns from; the codec itself never uses it.

#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
use avx512::Avx512;

/// Stand-in for the AVX-512 kernel where the architecture has none:
/// [`Avx512::detect`] never finds it, so no value of this type exists.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
enum Avx512 {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx512 {
    fn detect() -> Option<Self> {
        None
    }

    fn mix64_stream(self, _: u64, _: u64, _: &mut [[u8; 8]]) {
        match self {}
    }
}

/// SplitMix64's increment, which [`mix64`] adds first.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// Write `mix64(counter + i·step)` over word `i` of `out`, as eight
/// little-endian bytes, with the AVX-512 kernel when the CPU has
/// AVX-512F and AVX-512DQ. Every word is a function of its index alone,
/// so a stream can be written from any word on.
pub fn mix64_stream(counter: u64, step: u64, out: &mut [[u8; 8]]) {
    match Avx512::detect() {
        Some(avx512) => avx512.mix64_stream(counter, step, out),
        None => mix64_stream_scalar(counter, step, out),
    }
}

/// [`mix64_stream`] one word at a time: the fallback, and the
/// reference the kernel is tested against.
fn mix64_stream_scalar(mut counter: u64, step: u64, out: &mut [[u8; 8]]) {
    for word in out {
        *word = mix64(counter).to_le_bytes();
        counter = counter.wrapping_add(step);
    }
}

/// Hash two words into one; used to derive per-symbol seeds from
/// `(hash domain, internal symbol id)`.
#[inline]
pub fn hash2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b.wrapping_add(0xA0761D6478BD642F)))
}

/// The code-construction random function: a deterministic value in
/// `[0, m)` derived from seed `y` and stream index `i`.
///
/// Mirrors the role of RFC 6330's `Rand[y, i, m]`.
#[inline]
pub fn rand(y: u64, i: u64, m: u32) -> u32 {
    debug_assert!(m > 0, "rand: modulus must be positive");
    // Multiply-shift reduction avoids the slight bias of `% m` for small m
    // while staying branch-free and deterministic.
    let h = hash2(y, i);
    (((h >> 32) * m as u64) >> 32) as u32
}

/// A small, fast, seedable PRNG (xorshift64*): the test-data stream of
/// this crate's unit and integration tests (objects, loss patterns,
/// arrival orders).
///
/// Implemented here rather than pulling in `rand`: the pinned test data
/// depends on the exact value sequence, so it must never change with a
/// crate upgrade. Public only because the integration tests under
/// `tests/` link the library as an ordinary dependency.
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Create a generator from a seed. A zero seed is remapped (xorshift
    /// state must be nonzero).
    pub fn new(seed: u64) -> Self {
        let mut state = mix64(seed);
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        Self { state }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, m)`.
    #[inline]
    pub fn next_below(&mut self, m: u64) -> u64 {
        debug_assert!(m > 0);
        ((u128::from(self.next_u64()) * u128::from(m)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    /// The scalar stream's words, computed from the index.
    fn reference(counter: u64, step: u64, n: usize) -> Vec<[u8; 8]> {
        (0..n as u64)
            .map(|i| mix64(counter.wrapping_add(i.wrapping_mul(step))).to_le_bytes())
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn stream_kernels_equal_the_scalar_stream(
            counter in proptest::prelude::any::<u64>(),
            step in proptest::prelude::any::<u64>(),
        ) {
            // 0..=20 words: none, a partial vector, one, two and a tail,
            // from any counter (the counters wrap inside most streams).
            let kernels = [None].into_iter().chain(Avx512::detect().map(Some));
            for (kernel, n) in kernels.flat_map(|kernel| (0..=20).map(move |n| (kernel, n))) {
                let mut out = vec![[0xEE; 8]; n];
                match kernel {
                    Some(avx512) => avx512.mix64_stream(counter, step, &mut out),
                    None => mix64_stream_scalar(counter, step, &mut out),
                }
                proptest::prop_assert_eq!(out, reference(counter, step, n), "{:?} n={}", kernel, n);
            }
        }
    }

    #[test]
    fn rand_in_range() {
        for m in [1u32, 2, 3, 7, 255, 1 << 20] {
            for i in 0..200 {
                let v = rand(0xDEAD_BEEF, i, m);
                assert!(v < m, "rand out of range: {v} >= {m}");
            }
        }
    }

    #[test]
    fn rand_is_roughly_uniform() {
        // Chi-square style sanity check over 16 buckets.
        let m = 16u32;
        let n = 16_000;
        let mut counts = [0usize; 16];
        for i in 0..n {
            counts[rand(42, i, m) as usize] += 1;
        }
        let expected = n as f64 / m as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn rand_streams_differ_by_seed() {
        let a: Vec<u32> = (0..32).map(|i| rand(1, i, 1 << 20)).collect();
        let b: Vec<u32> = (0..32).map(|i| rand(2, i, 1 << 20)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn xorshift_deterministic_per_seed() {
        let mut a = Xorshift64::new(7);
        let mut b = Xorshift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_zero_seed_ok() {
        let mut g = Xorshift64::new(0);
        // Must not get stuck at zero.
        let vals: Vec<u64> = (0..10).map(|_| g.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn next_below_bounds() {
        let mut g = Xorshift64::new(99);
        for m in [1u64, 2, 10, 1000, u64::MAX / 2] {
            for _ in 0..50 {
                assert!(g.next_below(m) < m);
            }
        }
    }
}
