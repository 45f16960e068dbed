//! Seeded input generators. Every input of every workload and probe is
//! a pure function of `--seed`; the engine under test only ever sees
//! the generated tuples.

use mpsm_core::Tuple;

/// SplitMix64: small, fast, and good enough to shuffle keys and draw
/// query mixes. Not the engine's RNG on purpose — the harness shares no
/// code with what it measures.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`; the modulo bias is far below
    /// anything a benchmark mix can observe).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every key in `0..n` exactly once, in seeded shuffled order, with
/// payload `key + payload_offset`. Any two such relations join 1:1 and
/// `max(R.payload + S.payload)` is `2 (n - 1) + offset_r + offset_s`.
pub fn dense_relation(n: usize, payload_offset: u64, seed: u64) -> Vec<Tuple> {
    let mut keys: Vec<u64> = (0..n as u64).collect();
    let mut rng = Rng::new(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys.into_iter().map(|k| Tuple::new(k, k + payload_offset)).collect()
}

/// `n` tuples with independent uniform keys in `[0, domain)`.
pub fn uniform_tuples(n: usize, domain: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed);
    (0..n).map(|i| Tuple::new(rng.below(domain), i as u64)).collect()
}

/// Inverse-CDF Zipf sampler over `n` ranks (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// `max(R.payload + S.payload)` over the equi-join of `r` and `s`,
/// computed with a hash map and none of the engine's code: the oracle
/// the join workloads and probes are checked against.
pub fn oracle_max_payload_sum(r: &[Tuple], s: &[Tuple]) -> Option<u64> {
    let mut best_r: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::with_capacity(r.len());
    for t in r {
        best_r.entry(t.key).and_modify(|p| *p = (*p).max(t.payload)).or_insert(t.payload);
    }
    s.iter().filter_map(|t| best_r.get(&t.key).map(|rp| rp.wrapping_add(t.payload))).max()
}
