//! Deterministic pseudo-random generation.
//!
//! Data generation must be bit-reproducible so every experiment run sees
//! identical inputs. Instead of depending on a specific `rand` version's
//! stream, this module implements SplitMix64 (fast, well-distributed,
//! trivially seedable) plus the derived samplers the PigMix generators
//! need: uniform ranges, alphanumeric strings, and a Zipf sampler built
//! from an inverse-CDF table (PigMix's user column is Zipfian).

/// SplitMix64 PRNG. Passes BigCrush when used as a 64-bit generator and is
/// more than random enough for workload synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. Uses Lemire's multiply-shift reduction;
    /// the tiny modulo bias is irrelevant for data synthesis.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Random lowercase alphanumeric string of length `len`.
    pub fn next_string(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.next_below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }

    /// Derive an independent generator for a sub-stream. Mixing the label
    /// through one SplitMix64 step keeps derived streams decorrelated.
    pub fn derive(&self, label: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(self.state ^ label.rotate_left(17));
        SplitMix64::new(mixer.next_u64())
    }
}

/// Zipf-distributed sampler over `{0, 1, ..., n-1}` with exponent `s`.
///
/// Built from a precomputed cumulative table; sampling is a binary search.
/// Rank 0 is the most frequent item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(13) < 13);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn string_has_requested_length_and_alphabet() {
        let mut rng = SplitMix64::new(11);
        let s = rng.next_string(20);
        assert_eq!(s.len(), 20);
        assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = SplitMix64::new(5);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Same label twice gives the same stream.
        let mut c = root.derive(1);
        let mut d = root.derive(1);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(3);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Harmonic expectation: rank 0 gets ~1/H(100) ≈ 19% of mass.
        let frac = counts[0] as f64 / 50_000.0;
        assert!((0.12..0.28).contains(&frac), "rank-0 fraction {frac}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = SplitMix64::new(3);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((0.08..0.12).contains(&frac), "fraction {frac}");
        }
    }
}
