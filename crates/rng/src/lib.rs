//! Self-contained seeded pseudo-random number generation.
//!
//! The workspace must build and test with **zero registry access**
//! (hermetic-build policy, see `DESIGN.md`), so fault sampling and
//! workload-input generation cannot depend on the external `rand`
//! crate.  This crate provides the two standard small generators used
//! in its place:
//!
//! * [`SplitMix64`] — a one-at-a-time mixer, used to expand seeds and
//!   fill the state of the main generator;
//! * [`Rng64`] — xoshiro256\*\* (Blackman & Vigna), the workhorse
//!   generator behind campaigns and input data.
//!
//! Both are fully deterministic functions of the seed across platforms
//! and toolchains, which is exactly the reproducibility contract the
//! fault-injection campaigns rely on.  Range sampling is unbiased
//! (Lemire's widening-multiply method with rejection).

use std::ops::Range;

/// SplitMix64: a tiny, statistically solid 64-bit generator.
///
/// Primarily used to derive the 256-bit state of [`Rng64`] from a
/// 64-bit seed, as recommended by the xoshiro authors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\*: the main seeded generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seeds the 256-bit state from a 64-bit seed via [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        let mut sm = SplitMix64::new(seed);
        Rng64 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Seeds from 32 raw bytes (little-endian words), remixed through
    /// a chained [`SplitMix64`] so that sparse byte patterns (e.g.
    /// ASCII kernel names) still produce well-distributed state and
    /// every byte influences every state word.
    pub fn from_seed(bytes: [u8; 32]) -> Rng64 {
        let mut sm = SplitMix64::new(0x243F_6A88_85A3_08D3);
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            // Chain: word i of the state depends on raw words 0..=i.
            sm.state ^= u64::from_le_bytes(chunk);
            *w = sm.next_u64();
        }
        let mut rng = Rng64 { s };
        // Warm-up diffuses late raw words into the whole state (the
        // first xoshiro output reads only s[1]).
        for _ in 0..4 {
            rng.next_u64();
        }
        rng
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit value (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Next 16-bit value (upper bits of the 64-bit output).
    pub fn gen_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// Uniform value in `0..n` (`n > 0`), unbiased via Lemire's
    /// widening-multiply method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in a half-open range, matching the call shape of
    /// `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }
}

/// Half-open ranges that [`Rng64::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Out;
    /// Draws one uniform value.
    fn sample(self, rng: &mut Rng64) -> Self::Out;
}

impl SampleRange for Range<usize> {
    type Out = usize;
    fn sample(self, rng: &mut Rng64) -> usize {
        assert!(self.start < self.end, "empty range");
        let span = (self.end - self.start) as u64;
        self.start + rng.gen_below(span) as usize
    }
}

impl SampleRange for Range<u64> {
    type Out = u64;
    fn sample(self, rng: &mut Rng64) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_below(self.end - self.start)
    }
}

impl SampleRange for Range<i64> {
    type Out = i64;
    fn sample(self, rng: &mut Rng64) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = (i128::from(self.end) - i128::from(self.start)) as u64;
        self.start.wrapping_add(rng.gen_below(span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 0 (Vigna's splitmix64.c).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        let mut c = Rng64::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn byte_seeds_distinguish_positions() {
        // "ab" vs "ba" folded into byte arrays must differ.
        let mut s1 = [0u8; 32];
        s1[0] = b'a';
        s1[1] = b'b';
        let mut s2 = [0u8; 32];
        s2[0] = b'b';
        s2[1] = b'a';
        assert_ne!(
            Rng64::from_seed(s1).next_u64(),
            Rng64::from_seed(s2).next_u64()
        );
        // And the all-zero seed still produces a working stream.
        let mut z = Rng64::from_seed([0; 32]);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn gen_below_is_in_range_and_hits_everything_small() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.gen_below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_below_is_approximately_uniform() {
        let mut rng = Rng64::seed_from_u64(1234);
        const N: u64 = 7;
        const DRAWS: usize = 70_000;
        let mut counts = [0usize; N as usize];
        for _ in 0..DRAWS {
            counts[rng.gen_below(N) as usize] += 1;
        }
        let expect = DRAWS as f64 / N as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn typed_ranges_sample_within_bounds() {
        let mut rng = Rng64::seed_from_u64(99);
        for _ in 0..200 {
            let u = rng.gen_range(3..17usize);
            assert!((3..17).contains(&u));
            let i = rng.gen_range(-5..6i64);
            assert!((-5..6).contains(&i));
            let w = rng.gen_range(10..11u64);
            assert_eq!(w, 10);
        }
        // Extreme i64 span does not overflow.
        let v = rng.gen_range(1..i64::MAX / 2);
        assert!((1..i64::MAX / 2).contains(&v));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::seed_from_u64(0).gen_range(4..4usize);
    }
}
