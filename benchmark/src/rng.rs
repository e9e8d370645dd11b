//! The benchmark's own seeded randomness: `--seed` reaches the request
//! order and thresholds through here (and the data through
//! `qf-datagen`'s seeds), nothing else.

/// SplitMix64: small, fast, and every seed gives a full-period stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, label)`: each purpose (request order,
    /// thresholds, a client's picks) draws from its own stream, so
    /// adding a draw to one never shifts another.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is
    /// below 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1) over ranks `0..n`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(9);
        let mut rng = Rng::new(7, "zipf");
        let mut hits = [0usize; 9];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[4] && hits[4] > hits[8], "{hits:?}");
        assert!(hits[8] > 0);
    }
}
