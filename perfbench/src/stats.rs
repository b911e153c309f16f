//! Order statistics and completion windows.
//!
//! Every timing the benchmark reports is an exact order statistic over
//! raw samples (never a histogram bucket), so two runs never print the
//! same figure by construction.

use std::time::{Duration, Instant};

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// The middle value; for an even count, the mean of the two middle
/// values. `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        f64::midpoint(values[n / 2 - 1], values[n / 2])
    })
}

/// Completion counter over fixed-width windows of a measured phase.
///
/// A closed loop's throughput is reported as the median of per-window
/// rates (see [`Phase`]): a host stall of a few seconds empties a few
/// windows but barely moves the median, where a plain count/elapsed
/// would absorb it whole.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    width: Duration,
    counts: Vec<u64>,
}

impl Windows {
    /// `slots` windows of `width` each, starting at `start`.
    pub fn new(start: Instant, width: Duration, slots: usize) -> Self {
        Windows {
            start,
            width,
            counts: vec![0; slots],
        }
    }

    /// Count one completion at `at` and return its window; completions
    /// before the start or past the last window are ignored (they belong
    /// to warm-up or drain).
    pub fn record(&mut self, at: Instant) -> Option<usize> {
        let offset = at.checked_duration_since(self.start)?;
        let slot = (offset.as_nanos() / self.width.as_nanos().max(1)) as usize;
        *self.counts.get_mut(slot)? += 1;
        Some(slot)
    }

    /// Merge another thread's counts (same start, width and slots).
    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Completions counted over all windows.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Completions per second in each window.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.width.as_secs_f64();
        self.counts.iter().map(|&c| c as f64 / secs).collect()
    }
}

/// A measured phase cut into windows: each window's completion rate and
/// the CPU ticks the hypervisor stole from the machine during it, plus
/// latency samples tagged with the window they completed in.
///
/// On a shared host, stolen time inflates a closed loop's tail and so
/// its throughput far more than its median latency. The reported
/// figures therefore come from the *quiet* windows only: those with no
/// more stolen ticks than the median window. In a quiet run that is
/// every window; in a run a neighbour disturbs it is the calmer half.
#[derive(Debug, Default)]
pub struct Phase {
    pub rates: Vec<f64>,
    pub steal: Vec<u64>,
    pub samples: Vec<(usize, f64)>,
}

impl Phase {
    /// Which windows count: stolen from no more than the median window.
    pub fn quiet(&self) -> Vec<bool> {
        let mut sorted = self.steal.clone();
        sorted.sort_unstable();
        let Some(&limit) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
            return Vec::new();
        };
        self.steal.iter().map(|&s| s <= limit).collect()
    }

    /// Median completion rate over the quiet windows.
    pub fn rps(&self) -> Option<f64> {
        let quiet = self.quiet();
        let mut rates: Vec<f64> = self
            .rates
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(&r, _)| r)
            .collect();
        median(&mut rates)
    }

    /// Latency samples that completed in quiet windows.
    pub fn quiet_latencies(&self) -> Vec<f64> {
        let quiet = self.quiet();
        self.samples
            .iter()
            .filter(|(w, _)| quiet.get(*w).copied().unwrap_or(false))
            .map(|&(_, l)| l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn windows_bucket_by_offset_and_ignore_outside() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let mut w = Windows::new(start, ms(100), 3);
        assert_eq!(w.record(start), Some(0));
        assert_eq!(w.record(start + ms(99)), Some(0));
        assert_eq!(w.record(start + ms(100)), Some(1));
        assert_eq!(w.record(start + ms(250)), Some(2));
        assert_eq!(w.record(start + ms(300)), None);
        assert_eq!(w.record(start.checked_sub(ms(1)).unwrap()), None);
        assert_eq!(w.counts, vec![2, 1, 1]);
        assert_eq!(w.total(), 4);
        assert_eq!(w.rates(), vec![20.0, 10.0, 10.0]);
    }

    #[test]
    fn quiet_windows_are_those_stolen_no_more_than_the_median() {
        let phase = Phase {
            rates: vec![10.0, 2.0, 12.0, 11.0, 3.0],
            steal: vec![0, 9, 1, 0, 7],
            samples: vec![(0, 5.0), (1, 50.0), (2, 6.0), (3, 7.0), (4, 40.0), (9, 1.0)],
        };
        assert_eq!(phase.quiet(), vec![true, false, true, true, false]);
        assert_eq!(phase.rps(), Some(11.0));
        assert_eq!(phase.quiet_latencies(), vec![5.0, 6.0, 7.0]);
        // An undisturbed run keeps every window.
        let calm = Phase {
            rates: vec![1.0, 2.0, 3.0, 4.0],
            steal: vec![0; 4],
            samples: Vec::new(),
        };
        assert_eq!(calm.quiet(), vec![true; 4]);
        assert_eq!(calm.rps(), Some(2.5));
        assert_eq!(Phase::default().rps(), None);
    }

    #[test]
    fn windows_merge_and_stall_absorption() {
        let start = Instant::now();
        let s = Duration::from_secs;
        let mut a = Windows::new(start, s(1), 5);
        let mut b = Windows::new(start, s(1), 5);
        // Thread a completes 10/s except during a two-second stall.
        for (slot, n) in [10, 0, 0, 10, 10].into_iter().enumerate() {
            for _ in 0..n {
                a.record(start + s(slot as u64));
            }
        }
        for slot in 0..5u64 {
            b.record(start + s(slot));
        }
        a.merge(&b);
        assert_eq!(a.counts, vec![11, 1, 1, 11, 11]);
        let mut rates = a.rates();
        assert_eq!(median(&mut rates), Some(11.0));
    }
}
