//! Order statistics and process measurements shared by every workload.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks (the same rule as NumPy's default). `values` need not be
/// sorted. Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of a process in MiB: this process when
/// `pid` is `None`. Returns `NaN` where `/proc` is unavailable, which the
/// result then reports visibly instead of as a plausible number.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        None => "/proc/self/status".to_string(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Mean and standard error of a sample, computed independently of the
/// program's own aggregation so the Table 2 and serve summaries can be
/// checked against it.
pub fn mean_std_err(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Whether two floats agree to within a relative tolerance of `1e-12`
/// (summation order may differ between the program and the benchmark).
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn standard_error_matches_hand_computation() {
        let (mean, se) = mean_std_err(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mean, 2.5);
        assert!((se - (1.666_666_666_666_666_7f64 / 4.0).sqrt()).abs() < 1e-12);
    }
}
