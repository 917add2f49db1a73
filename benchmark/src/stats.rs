//! The harness's own arithmetic: nearest-rank percentiles over exact
//! sample vectors, Python-compatible quartiles for the `repeat` table,
//! and the seeded shuffle every workload orders its jobs with.

/// Nearest-rank percentile of an ascending-sorted sample vector: the
/// smallest sample with at least `p·n` samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sort samples ascending (total order; the benchmark never produces NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median as the mean of the middle pair — the run-level aggregate used
/// for repeated set-ups, probe batches and the `repeat` table.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample set");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the PR driver judges run-to-run spread with.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// splitmix64: the one generator behind every seeded choice here.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`: the same seed always yields
/// the same order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed ^ 0x5851_F42D_4C95_7F2D;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over a byte stream — the digest the expected-results files pin.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feed bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed a float by bit pattern (simulated statistics repeat exactly).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Due time (seconds from phase start) of request `k` on a schedule of
/// `rate` requests per second.
pub fn due_s(k: u64, rate: f64) -> f64 {
    k as f64 / rate
}

/// Open-loop latency of one request: it counts from when the request was
/// *due*, so a stalled generator or server charges the wait to every
/// request queued behind it.
pub fn latency_from_due_s(due_s: f64, answered_s: f64) -> f64 {
    answered_s - due_s
}

/// How far behind its schedule the generator actually sent a request
/// (never negative: an early send is on time).
pub fn lateness_s(due_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.90), 9.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 · 200) = 190: exactly ten samples lie beyond it.
        assert_eq!(percentile(&s, 0.95), 190.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // Two points extrapolate as Python does: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..282).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert_ne!(a, base);
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, base, "a permutation loses nothing");
    }

    #[test]
    fn digest_is_stable() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
        let mut x = Fnv1a::default();
        let mut y = Fnv1a::default();
        x.write_f64(0.1 + 0.2);
        y.write_f64(0.3);
        assert_ne!(x.finish(), y.finish(), "floats hash by bit pattern");
    }

    #[test]
    fn open_loop_charges_from_the_due_time() {
        assert_eq!(due_s(0, 10_000.0), 0.0);
        assert!((due_s(25_000, 10_000.0) - 2.5).abs() < 1e-12);
        // Sent on time: latency is the service time, no lateness.
        assert!((latency_from_due_s(1.0, 1.0002) - 0.0002).abs() < 1e-12);
        assert_eq!(lateness_s(1.0, 1.0), 0.0);
        // Generator stalled 3 ms, server took 0.2 ms: the stall is in the
        // latency *and* reported as lateness.
        assert!((latency_from_due_s(1.0, 1.0032) - 0.0032).abs() < 1e-12);
        assert!((lateness_s(1.0, 1.003) - 0.003).abs() < 1e-12);
        // Sending early never yields negative lateness.
        assert_eq!(lateness_s(1.0, 0.9999), 0.0);
    }
}
