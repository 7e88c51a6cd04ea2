//! Order statistics with the benchmark's reporting rules.

/// Smallest number of samples that must lie beyond a reported tail
/// percentile. A p99 read from fewer than ten samples above it is one or
/// two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly above the nearest-rank `p`-quantile of `n` samples
/// (`p` in `0..1`): the rank is `ceil(p·n)`, so `n − ceil(p·n)` lie
/// beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `p`-quantile as a tail
/// figure (at least [`MIN_BEYOND`] samples beyond it).
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank `p`-quantile of an ascending slice; `NaN` when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample set ascending (total order; NaN never occurs in the
/// benchmark's own timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample set; `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A deterministic xorshift64* stream for the open-loop schedule, so the
/// same seed gives the same due times.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// An open-loop Poisson schedule. Due times advance from the previous
/// *due* time, never from when the generator actually sent, so a
/// generator or server stall shows up as latency on every group due
/// during it instead of silently thinning the offered load.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    mean_gap_s: f64,
    next_due_s: f64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        Schedule {
            rng: Rng::new(seed ^ 0x5C4E_D01E),
            mean_gap_s: 1.0 / rate_per_s,
            next_due_s: 0.0,
        }
    }

    /// The next due time, seconds after the schedule's origin.
    pub fn next_due(&mut self) -> f64 {
        self.next_due_s += self.rng.exp(self.mean_gap_s);
        self.next_due_s
    }
}

/// Latency of one open-loop request: completion minus due time, ms.
pub fn due_latency_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(100, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(20, 0.5));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    /// A single-server FIFO fed on the schedule stalls for 200 ms at
    /// t = 1 s. Measured from the due time, every group due during the
    /// stall carries the wait; measured from the (late) send time, as a
    /// generator that waits for the server would, the stall vanishes.
    #[test]
    fn stalled_consumer_inflates_later_samples() {
        let mut schedule = Schedule::new(100.0, 7);
        let service_s = 0.001;
        let (stall_from, stall_to) = (1.0, 1.2);
        let mut free_at = 0.0f64;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        for _ in 0..300 {
            let due = schedule.next_due();
            let mut start = due.max(free_at);
            if start >= stall_from && start < stall_to {
                start = stall_to;
            }
            let done = start + service_s;
            free_at = done;
            from_due.push((due, due_latency_ms(due, done)));
            // A closed-loop sender only sends once the server is free.
            from_send.push((due, due_latency_ms(start, done)));
        }
        let in_stall: Vec<f64> = from_due
            .iter()
            .filter(|(d, _)| *d >= stall_from && *d < stall_to)
            .map(|x| x.1)
            .collect();
        assert!(in_stall.len() > 5);
        assert!(in_stall.iter().all(|&l| l > 1.0), "due-time latency must carry the stall");
        assert!(in_stall.iter().any(|&l| l > 150.0));
        let hidden = from_send
            .iter()
            .filter(|(d, _)| *d >= stall_from && *d < stall_to)
            .map(|x| x.1)
            .fold(0.0f64, f64::max);
        assert!(hidden < 1.5, "send-time latency hides the stall: {hidden}");
    }

    #[test]
    fn schedule_is_seeded_and_independent_of_progress() {
        let a: Vec<f64> = {
            let mut s = Schedule::new(50.0, 3);
            (0..100).map(|_| s.next_due()).collect()
        };
        let b: Vec<f64> = {
            let mut s = Schedule::new(50.0, 3);
            (0..100).map(|_| s.next_due()).collect()
        };
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = 100.0 / a[99];
        assert!((25.0..100.0).contains(&rate), "rate {rate}");
    }
}
