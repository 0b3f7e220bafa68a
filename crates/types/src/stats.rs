//! Small statistics helpers shared across the simulator crates.

/// Safe ratio: returns 0 when the denominator is 0.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Geometric mean of a slice of positive values; the paper reports speedups
/// as geometric means across workloads.
///
/// Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// An exponentially-decayed windowed rate estimator, used e.g. by SILC-FM's
/// bypass logic to track the current access rate (paper §III-E).
///
/// The estimate is updated per event with weight `1/window`, so it tracks
/// roughly the last `window` events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedRate {
    value: f64,
    alpha: f64,
    samples: u64,
}

impl WindowedRate {
    /// Creates an estimator with the given effective window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            value: 0.0,
            alpha: 1.0 / window as f64,
            samples: 0,
        }
    }

    /// Records one event: `hit = true` counts toward the rate.
    pub fn record(&mut self, hit: bool) {
        let x = if hit { 1.0 } else { 0.0 };
        if self.samples == 0 {
            self.value = x;
        } else {
            self.value += self.alpha * (x - self.value);
        }
        self.samples += 1;
    }

    /// The current rate estimate in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        self.value
    }

    /// Number of events recorded.
    pub const fn samples(&self) -> u64 {
        self.samples
    }

    /// Resets the estimator.
    pub fn reset(&mut self) {
        self.value = 0.0;
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(1, 0), 0.0);
        assert!((ratio(1, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn windowed_rate_converges() {
        let mut r = WindowedRate::new(100);
        for i in 0..10_000 {
            r.record(i % 10 < 8); // 80% hits
        }
        assert!((r.rate() - 0.8).abs() < 0.1, "rate = {}", r.rate());
        assert_eq!(r.samples(), 10_000);
        r.reset();
        assert_eq!(r.samples(), 0);
        assert_eq!(r.rate(), 0.0);
    }

    #[test]
    fn windowed_rate_first_sample() {
        let mut r = WindowedRate::new(10);
        r.record(true);
        assert_eq!(r.rate(), 1.0);
    }
}
