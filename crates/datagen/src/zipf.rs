//! Zipf-distributed sampling.
//!
//! Natural-language word frequencies follow Zipf's law with exponent
//! close to 1; the paper's 20× observation was made on "word occurrences
//! in newspaper articles" (§1.3), so the word generator needs this skew.
//! Implemented locally (inverse-CDF over a precomputed table) because
//! `rand_distr` is outside the allowed dependency set.

use rand::Rng;

/// A Zipf(n, s) sampler over ranks `0..n`: rank `k` has probability
/// proportional to `1/(k+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point round-down at the tail.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `0..n` (0 = most frequent).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cdf >= u.
        self.cdf.partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            let k = z.sample(&mut rng);
            assert!(k < 1000);
            counts[k] += 1;
        }
        // Rank 0 should dominate rank 99 by roughly 100× (Zipf-1).
        assert!(
            counts[0] > counts[99] * 20,
            "{} vs {}",
            counts[0],
            counts[99]
        );
        // …and the tail is still reachable.
        assert!(counts[500..].iter().sum::<usize>() > 0);
    }

    #[test]
    fn cdf_ends_at_one() {
        let z = Zipf::new(50, 1.2);
        assert_eq!(z.cdf.last(), Some(&1.0));
        assert!(z.cdf[0] > z.cdf[1] - z.cdf[0], "rank 0 outweighs rank 1");
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for (k, c) in z.cdf.iter().enumerate() {
            assert!((c - (k + 1) as f64 / 10.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
