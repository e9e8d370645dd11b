//! Timing helpers for the experiments.

use std::time::{Duration, Instant};

/// Time one run of `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Run `f` `n` times, returning the last value and the **median**
/// duration (robust to scheduler noise without the cost of full
/// statistical sampling).
pub fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(n >= 1);
    let mut durations = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (v, d) = time(&mut f);
        durations.push(d);
        last = Some(v);
    }
    durations.sort();
    (last.unwrap(), durations[durations.len() / 2])
}

/// Ratio of two durations as `a / b` (∞-safe).
pub fn speedup(a: Duration, b: Duration) -> f64 {
    let b_us = b.as_secs_f64();
    if b_us == 0.0 {
        f64::INFINITY
    } else {
        a.as_secs_f64() / b_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(4));
    }

    #[test]
    fn median_of_three() {
        let mut i = 0;
        let (_, d) = time_median(3, || {
            i += 1;
            std::thread::sleep(Duration::from_millis(if i == 1 { 20 } else { 2 }));
        });
        assert!(
            d < Duration::from_millis(15),
            "median should skip the outlier"
        );
    }

    #[test]
    fn speedup_ratio() {
        let a = Duration::from_millis(100);
        let b = Duration::from_millis(10);
        assert!((speedup(a, b) - 10.0).abs() < 0.5);
    }
}
