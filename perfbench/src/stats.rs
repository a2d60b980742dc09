//! Order statistics over timing samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (sorts a copy);
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples per latency window: the fewest whose p99 has ten samples
/// beyond it.
pub const WINDOW: usize = 1024;

/// Single-job latencies, summarized per window of [`WINDOW`]
/// consecutive samples as they arrive, so the memory they take does not
/// grow with the run (it would show in the process's peak RSS).
#[derive(Debug, Default)]
pub struct Latencies {
    window: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: u64,
}

impl Latencies {
    pub fn push(&mut self, us: f64) {
        self.window.push(us);
        self.samples += 1;
        if self.window.len() == WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        self.p50s.push(median(&self.window));
        self.p99s.push(quantile(&self.window, 0.99));
        self.window.clear();
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `(p50, p99)`: the medians over windows of each window's p50 and
    /// p99. A burst of interference on a shared host lifts the windows
    /// it falls in, not the whole run. A trailing partial window counts
    /// only when there is no full one.
    pub fn p50_p99(&mut self) -> (f64, f64) {
        if self.p50s.is_empty() && !self.window.is_empty() {
            self.close_window();
        }
        (median(&self.p50s), median(&self.p99s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn latency_windows_ignore_one_slow_window() {
        let mut latencies = Latencies::default();
        for i in 0..3 * WINDOW {
            let slow = if i < WINDOW { 1000.0 } else { 0.0 };
            latencies.push((i % 100) as f64 + slow);
        }
        latencies.push(5000.0);
        assert_eq!(latencies.samples(), 3 * WINDOW as u64 + 1);
        let (p50, p99) = latencies.p50_p99();
        assert!((49.0..=50.0).contains(&p50), "{p50}");
        assert_eq!(p99, 98.0);
        let mut short = Latencies::default();
        (0..100).for_each(|i| short.push(f64::from(i)));
        assert_eq!(short.p50_p99(), (49.0, 98.0));
    }
}
