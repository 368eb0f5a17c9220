//! Order statistics for the benchmark's latency samples.
//!
//! Three summaries with different rules:
//!
//! * [`Samples::percentile`] summarises per-operation latencies. It takes
//!   the workspace's exact-rank percentile
//!   ([`lake_core::stats::percentile_u64`]) but reports it only when at
//!   least [`MIN_BEYOND`] samples lie beyond it, so a p99 needs 1000
//!   samples and a p90 needs 100; with fewer it returns `None` instead of
//!   quoting the maximum under a percentile's name.
//! * [`median`] summarises repeated whole measurements (one set-up, one
//!   restart) where the run holds only a handful.
//! * [`fastest`] summarises a timing repeated many times over a run (once
//!   per pipeline pass, or per batch of server requests), and
//!   [`Samples::fastest_each`] the calls of passes that make the same calls
//!   in the same order: each call's fastest instance over the passes. On a
//!   shared host, other tenants' load slows the work (by up to ~1.8x on
//!   the 2-vCPU VM the benchmark was tuned on) for seconds to minutes at a
//!   time, and never speeds it up. The median repetition moves with how
//!   much of the run fell in such a spell; the fastest is the cost of the
//!   code whenever the run held a quiet moment. Inside a slow spell quiet
//!   moments are short (17-ms slices of a fixed loop reached 1.0–1.5x
//!   their best while the median slice ran at ~1.75x), so a call is a
//!   finer net than a whole pass (README, "Noise").
//!
//! A latency percentile over a whole run (`serve_durable`, and the tails
//! of the pipelines) is the median, over consecutive windows of its
//! samples, of each window's percentile ([`windowed_percentile`]). A
//! burst of interference lands in one window and moves the median window
//! little, where it would own a pooled p99.

use lake_core::stats::percentile_u64;
use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Windows [`windowed_percentile`] aims for.
pub const WINDOWS: usize = 10;

/// Latencies of one operation class (or the laps of a pass), in arrival
/// order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    nanos: Vec<u64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, latency: Duration) {
        self.nanos
            .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// Sum in s.
    pub fn sum_s(&self) -> f64 {
        self.nanos.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }

    /// The smallest sample at each position over passes that took their
    /// samples in the same order; `None` when there are no passes or their
    /// lengths differ.
    pub fn fastest_each(passes: &[&Samples]) -> Option<Samples> {
        let (first, rest) = passes.split_first()?;
        let mut nanos = first.nanos.clone();
        for pass in rest {
            if pass.len() != nanos.len() {
                return None;
            }
            for (best, &n) in nanos.iter_mut().zip(&pass.nanos) {
                *best = (*best).min(n);
            }
        }
        Some(Samples { nanos })
    }

    /// Mean in ms; `None` when empty.
    pub fn mean_ms(&self) -> Option<f64> {
        let sum: f64 = self.nanos.iter().map(|&n| n as f64).sum();
        (!self.nanos.is_empty()).then(|| sum / self.nanos.len() as f64 / 1e6)
    }

    /// Samples in arrival order, in ms.
    pub fn ms(&self) -> Vec<f64> {
        self.nanos.iter().map(|&n| n as f64 / 1e6).collect()
    }

    /// The `pct`-th percentile in ms, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, pct: u32) -> Option<f64> {
        let mut sorted = self.nanos.clone();
        sorted.sort_unstable();
        let value = percentile_u64(&sorted, u64::from(pct));
        let beyond = sorted.len() - sorted.partition_point(|&n| n <= value);
        (!sorted.is_empty() && beyond >= MIN_BEYOND).then(|| value as f64 / 1e6)
    }

    /// Samples needed before [`Samples::percentile`] can report `pct`
    /// (`pct` below 100): the beyond-count is `n - ⌈pct·n/100⌉`.
    pub fn needed_for(pct: u32) -> usize {
        (MIN_BEYOND * 100).div_ceil(100 - pct.min(99) as usize)
    }
}

/// The median over consecutive windows of `samples` (in arrival order) of
/// each window's `pct`-th percentile, in ms. Windows hold `len / WINDOWS`
/// samples, but never fewer than the percentile needs; a short trailing
/// window is dropped. Returns the value and the window size, or `None`
/// when no window reports the percentile.
pub fn windowed_percentile(samples: &Samples, pct: u32) -> Option<(f64, usize)> {
    let window = (samples.len() / WINDOWS).max(Samples::needed_for(pct));
    let per_window: Vec<f64> = samples
        .nanos
        .chunks_exact(window)
        .filter_map(|w| Samples { nanos: w.to_vec() }.percentile(pct))
        .collect();
    Some((median(&per_window)?, window))
}

/// Contiguous laps of a pass: [`Laps::mark`] records the time since the
/// previous mark (or the start), so the laps add up to the pass.
pub struct Laps {
    mark: Instant,
    pub laps: Samples,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            mark: Instant::now(),
            laps: Samples::new(),
        }
    }

    pub fn mark(&mut self) {
        let now = Instant::now();
        self.laps.push(now - self.mark);
        self.mark = now;
    }
}

/// Median of whole repeated measurements (mean of the middle two for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The smallest of repeated timings; `None` when empty.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Ratio of the median of the last tenth of `samples` to the median of
/// the first tenth (arrival order): how much a per-call cost grew over a
/// pass. `None` with fewer than 20 samples.
pub fn growth(samples: &Samples) -> Option<f64> {
    let values = samples.ms();
    let tenth = values.len() / 10;
    if tenth < 2 {
        return None;
    }
    let first = median(&values[..tenth])?;
    let last = median(&values[values.len() - tenth..])?;
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples of 1..=n ms, pushed in reverse so the helper must sort.
    fn samples(n: u64) -> Samples {
        ms_samples((1..=n).rev())
    }

    fn ms_samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        values
            .into_iter()
            .for_each(|v| s.push(Duration::from_millis(v)));
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples(999).percentile(99), None);
        assert_eq!(samples(1000).percentile(99), Some(990.0));
        assert_eq!(samples(1500).percentile(99), Some(1485.0));
        assert_eq!(Samples::needed_for(99), 1000);
    }

    #[test]
    fn p90_and_p50_thresholds() {
        assert_eq!(samples(99).percentile(90), None);
        assert_eq!(samples(100).percentile(90), Some(90.0));
        assert_eq!(samples(19).percentile(50), None);
        assert_eq!(samples(20).percentile(50), Some(10.0));
        assert_eq!(Samples::needed_for(90), 100);
        assert_eq!(Samples::needed_for(50), 20);
    }

    #[test]
    fn empty_and_tiny_samples_report_nothing() {
        assert_eq!(Samples::new().percentile(50), None);
        assert_eq!(samples(1).percentile(50), None);
        assert_eq!(samples(10).percentile(1), None);
        assert_eq!(samples(11).percentile(1), Some(1.0));
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond_it() {
        // 1000 samples, the top 20 all equal: p99 is that value and no
        // sample lies beyond it.
        let s = ms_samples((1..=980).chain(std::iter::repeat_n(5000, 20)));
        assert_eq!(s.percentile(99), None);
        // p97 (rank 970) leaves those 20 and ten more beyond.
        assert_eq!(s.percentile(97), Some(970.0));
    }

    #[test]
    fn every_reported_percentile_leaves_ten_beyond() {
        for n in [20u64, 57, 100, 101, 333, 999, 1000, 1001, 4321] {
            for pct in [50u32, 90, 99] {
                let s = samples(n);
                let n = n as usize;
                match s.percentile(pct) {
                    Some(v) => {
                        let beyond = s.ms().iter().filter(|&&x| x > v).count();
                        assert!(beyond >= MIN_BEYOND, "n={n} p{pct}: {beyond} beyond {v}");
                        assert!((n - beyond) * 100 >= pct as usize * n, "n={n} p{pct}");
                    }
                    None => assert!(n < Samples::needed_for(pct), "n={n} p{pct} withheld"),
                }
            }
        }
    }

    #[test]
    fn windows_hold_enough_samples_and_report_the_median_window() {
        // 999 samples cannot fill one p99 window.
        assert_eq!(
            windowed_percentile(&ms_samples(std::iter::repeat_n(1, 999)), 99),
            None
        );
        // 2500 samples: two windows of 1000 (the rest is dropped).
        let s = ms_samples(
            (0..1000)
                .chain(5000..6000)
                .chain(std::iter::repeat_n(1 << 30, 500)),
        );
        assert_eq!(
            windowed_percentile(&s, 99),
            Some(((989.0 + 5989.0) / 2.0, 1000))
        );
        // 10 000 samples: ten windows of 1000; one disturbed window moves
        // the median window not at all.
        let s = ms_samples((0..10_000).map(|i| {
            if (500..1000).contains(&i) {
                1 << 20
            } else {
                i % 1000
            }
        }));
        assert_eq!(windowed_percentile(&s, 99), Some((989.0, 1000)));
        // p50 windows: len / 10 when that exceeds the 20 needed.
        let s = ms_samples((0..400).map(|i| i % 40));
        assert_eq!(windowed_percentile(&s, 50), Some((19.0, 40)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fastest_each_takes_each_position_from_its_fastest_pass() {
        let a = ms_samples([5, 1, 9]);
        let b = ms_samples([3, 4, 9]);
        let best = Samples::fastest_each(&[&a, &b]).unwrap();
        assert_eq!(best.ms(), vec![3.0, 1.0, 9.0]);
        assert_eq!(best.sum_s(), 0.013);
        assert!(Samples::fastest_each(&[]).is_none());
        assert!(Samples::fastest_each(&[&a, &ms_samples([1, 2])]).is_none());
    }

    #[test]
    fn laps_add_up_to_the_pass() {
        let started = Instant::now();
        let mut laps = Laps::start();
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(2));
            laps.mark();
        }
        let whole = started.elapsed().as_secs_f64();
        assert_eq!(laps.laps.len(), 3);
        assert!(laps.laps.sum_s() <= whole && laps.laps.sum_s() >= 0.006);
    }

    #[test]
    fn fastest_is_the_smallest_timing() {
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[7.0]), Some(7.0));
        assert_eq!(fastest(&[0.3, 0.25, 0.4, 0.25]), Some(0.25));
    }

    #[test]
    fn growth_compares_last_to_first_tenth() {
        // First tenth 1..=10 (median 5.5), last tenth 91..=100 (95.5).
        assert_eq!(growth(&ms_samples(1..=100)), Some(95.5 / 5.5));
        assert_eq!(growth(&ms_samples(1..=19)), None);
        assert_eq!(growth(&ms_samples(std::iter::repeat_n(3, 40))), Some(1.0));
    }
}
