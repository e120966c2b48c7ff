//! Order statistics, process counters and the pass/fail ledger shared by
//! every workload.

use std::time::Duration;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "linear" method of NumPy and of Python's `statistics`
/// inclusive quantiles). `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the usual percentiles with at least ten of `samples`
/// beyond it (p50 when there are fewer than twenty).
pub fn tail_quantile(samples: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| (1.0 - q) * samples as f64 >= 10.0)
        .unwrap_or(0.5)
}

/// Milliseconds in a duration, with all digits.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// User plus system CPU seconds of this process so far, all threads
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may contain spaces; the fields after it do not.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|field| field.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|value| {
                    value
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Replaces each element of `best` by the smaller of it and the matching
/// element of `sample` (the first sample initialises `best`).
pub fn fold_min(best: &mut Vec<f64>, sample: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(sample);
    } else {
        for (b, s) in best.iter_mut().zip(sample) {
            *b = b.min(*s);
        }
    }
}

/// The median of `k` timings by `op`: one burst of a short operation
/// (set-up, restart), whose median shrugs off a single interrupted sample.
pub fn burst_median(
    k: usize,
    mut op: impl FnMut() -> Result<f64, crate::Error>,
) -> Result<f64, crate::Error> {
    let samples = (0..k).map(|_| op()).collect::<Result<Vec<f64>, _>>()?;
    Ok(median(&samples))
}

/// The smallest of `values` (infinite when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The mean of the faster (smaller) half of `values`: the typical time of
/// the rounds a co-tenant's slow phases did not hold back, for rounds too
/// long to fit reliably inside a fast phase.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = &sorted[..sorted.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// One line with the minimum, quartiles and maximum of `values`.
pub fn spread_line(label: &str, values: &[f64], scale: f64, unit: &str) -> String {
    let q = |p: f64| quantile(values, p) * scale;
    format!(
        "{label}: min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3} {unit} ({} samples)",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        values.len()
    )
}

/// The calibration kernel's time on the reference core. End-to-end times
/// are scaled to that core: `time × KERNEL_REF_S / kernel time measured in
/// the same run`.
pub const KERNEL_REF_S: f64 = 60e-6;

/// The median of `runs` timings of the calibration kernel, seconds.
pub fn kernel_median(runs: usize) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(24)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A fixed CPU kernel in the benchmark's own code, roughly the mix of the
/// scheduling and thermal layers: a dense LU solve, a sort and short-lived
/// string allocations. No program change can speed it up, so its time
/// tracks only how fast the shared core runs.
fn kernel(n: usize) -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a: Vec<f64> = (0..n * n)
        .map(|_| (next() % 1000) as f64 / 1000.0)
        .collect();
    let mut b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for i in 0..n {
        a[i * n + i] += n as f64;
    }
    for k in 0..n {
        for i in k + 1..n {
            let f = a[i * n + k] / a[k * n + k];
            for j in k..n {
                a[i * n + j] -= f * a[k * n + j];
            }
            b[i] -= f * b[k];
        }
    }
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|j| a[k * n + j] * b[j]).sum();
        b[k] = (b[k] - s) / a[k * n + k];
    }
    let mut keys: Vec<u64> = (0..2048).map(|_| next()).collect();
    keys.sort_unstable();
    let words: Vec<String> = keys.iter().step_by(8).map(|k| format!("{k:x}")).collect();
    b.iter().sum::<f64>() + words.iter().map(String::len).sum::<usize>() as f64
}

/// Counts operations and failures; every failure keeps one line saying
/// what went wrong.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// Counts `count` operations that succeeded.
    pub fn ok(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Counts `count` operations of which `failed` failed, noting why.
    pub fn check(&mut self, count: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += count;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn best_of_estimators_ignore_slow_samples() {
        let mut best = Vec::new();
        fold_min(&mut best, &[3.0, 1.0]);
        fold_min(&mut best, &[2.0, 5.0]);
        assert_eq!(best, vec![2.0, 1.0]);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(faster_half_mean(&[9.0, 1.0, 3.0, 8.0]), 2.0);
        assert_eq!(faster_half_mean(&[5.0, 1.0, 3.0]), 2.0);
        let mut values = [3.0, 1.0, 2.0].into_iter();
        assert_eq!(burst_median(3, || Ok(values.next().unwrap())).unwrap(), 2.0);
    }
}
