//! One named measurement and the statistics that produce it.

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A reported metric: `value` in `unit`, summarised over `samples` samples.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// The samples themselves, when `value` summarises them.
    pub values: Vec<f64>,
}

impl Metric {
    fn over(name: &'static str, value: f64, unit: &'static str, xs: &[f64]) -> Self {
        Metric {
            values: xs.to_vec(),
            ..metric(name, value, unit, xs.len())
        }
    }
}

/// Builds a metric.
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        values: Vec::new(),
    }
}

/// A metric reported as the median of `xs`.
pub fn median_of(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    Metric::over(name, median(xs), unit, xs)
}

/// A metric reported as the smallest of `xs`; 0 for no samples.
pub fn fastest_of(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    let least = xs.iter().copied().reduce(f64::min).unwrap_or(0.0);
    Metric::over(name, least, unit, xs)
}

/// A metric reported as the mean of `xs`.
pub fn mean_of(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    Metric::over(name, mean(xs), unit, xs)
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn summaries_keep_their_samples() {
        let fastest = fastest_of("t", &[3.0, 1.0, 2.0], "s");
        assert_eq!((fastest.value, fastest.samples), (1.0, 3));
        assert_eq!(fastest.values, [3.0, 1.0, 2.0]);
        assert_eq!(fastest_of("t", &[], "s").value, 0.0);
        assert_eq!(mean_of("q", &[1.0, 3.0], "ratio").value, 2.0);
        assert!(metric("m", 1.0, "MiB", 1).values.is_empty());
    }
}
