//! Seeded request generation: every request stream is built from the
//! `--seed` argument before the start gate opens, so two runs with the
//! same seed serve exactly the same requests.

/// SplitMix64: small, fast and good enough to draw keys and mixes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(`s`) over `0..n`: key `k` is drawn with weight `1 / (k + 1)^s`,
/// so key 0 is the hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Two distinct keys.
    pub fn pair(&self, rng: &mut Rng) -> (usize, usize) {
        let a = self.sample(rng);
        loop {
            let b = self.sample(rng);
            if b != a {
                return (a, b);
            }
        }
    }
}

/// Request kinds in stratified order: each block of `counts.iter().sum()`
/// requests holds exactly `counts[k]` requests of kind `k`, shuffled, so
/// every stream has the same mix and only positions and keys depend on
/// the seed.
pub fn kinds(rng: &mut Rng, counts: &[usize], len: usize) -> Vec<usize> {
    let block: Vec<usize> =
        counts.iter().enumerate().flat_map(|(k, &n)| std::iter::repeat_n(k, n)).collect();
    let mut out = Vec::with_capacity(len + block.len());
    while out.len() < len {
        let mut b = block.clone();
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(b);
    }
    out.truncate(len);
    out
}

/// A request that can be folded into a stream digest.
pub trait Encode {
    fn encode(&self) -> u64;
}

/// The seed of worker `worker`'s stream: distinct per worker, fixed per
/// `(seed, worker)`.
pub fn worker_seed(seed: u64, worker: usize) -> u64 {
    Rng::new(seed ^ (worker as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// FNV-1a over every request of every stream, in order.
pub fn digest<R: Encode>(streams: &[Vec<R>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for stream in streams {
        for r in stream {
            for b in r.encode().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_keys() {
        let z = Zipf::new(64, 0.99);
        let mut rng = Rng::new(7);
        let mut hits = [0u32; 64];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 5 * hits[20], "{hits:?}");
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| rng.below(13) < 13));
    }
}
