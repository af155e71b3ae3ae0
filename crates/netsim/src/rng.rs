//! Deterministic random number generation for the simulator.
//!
//! PCG32 seeded through SplitMix64. Implemented locally (rather than via
//! the `rand` crate) so that a simulation seed reproduces the identical
//! event sequence regardless of dependency versions — determinism is part
//! of the simulator's contract (the results in README cite their seeds).

/// SplitMix64 step, used for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// PCG-XSH-RR 32-bit generator (O'Neill 2014).
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Create a generator from a seed; the stream selector is derived
    /// from the seed as well.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let initstate = splitmix64(&mut sm);
        let initseq = splitmix64(&mut sm);
        let mut rng = Pcg32 {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(initstate);
        rng.next_u32();
        rng
    }

    /// Derive an independent child generator (for per-entity streams).
    pub fn fork(&mut self, tag: u64) -> Pcg32 {
        Pcg32::new(u64::from(self.next_u32()) << 32 ^ u64::from(self.next_u32()) ^ tag)
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) << 32 | u64::from(self.next_u32())
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed value with the given mean (inverse-CDF
    /// method); used for Poisson inter-arrival times.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let mut u = self.f64();
        // Guard the log; f64() can return exactly 0.
        if u <= 0.0 {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly random derangement-free permutation of `0..n` with no
    /// fixed points (for permutation traffic matrices, where a host must
    /// not send to itself). Uses rejection sampling; expected ~e tries.
    pub fn derangement(&mut self, n: usize) -> Vec<usize> {
        assert!(n >= 2, "derangement needs n >= 2");
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            self.shuffle(&mut perm);
            if perm.iter().enumerate().all(|(i, &p)| i != p) {
                return perm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::new(123);
        let mut b = Pcg32::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3);
    }

    #[test]
    fn below_bounds_and_uniformity() {
        let mut rng = Pcg32::new(7);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::new(9);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = Pcg32::new(11);
        let n = 200_000;
        let mean = 390.625; // 1/2560 seconds in µs — the paper's λ
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.02,
            "sample mean {sample_mean} vs {mean}"
        );
    }

    #[test]
    fn derangement_has_no_fixed_points() {
        let mut rng = Pcg32::new(5);
        for n in [2usize, 3, 10, 250] {
            let p = rng.derangement(n);
            assert_eq!(p.len(), n);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
            assert!(
                p.iter().enumerate().all(|(i, &x)| i != x),
                "fixed point found"
            );
        }
    }

    #[test]
    fn fork_streams_independent() {
        let mut parent = Pcg32::new(1);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u32() == c2.next_u32()).count();
        assert!(same < 3);
    }
}
