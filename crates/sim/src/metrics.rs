//! Measurement primitives used by the evaluation harness.
//!
//! The benchmark binaries regenerate the paper's figures as printed series:
//! [`exact_quantile_permille`] computes the exact percentiles the paper
//! reports from integer samples, and [`Series`] / [`Table`] render them as
//! aligned text. Anything recorded at runtime goes through the registry's
//! [`FixedHistogram`](crate::obs::FixedHistogram) instead.

use std::fmt;

/// Exact nearest-rank quantile at `permille` (500 = median, 900 = p90):
/// the rank-`⌈permille·n/1000⌉` smallest of `values` (rank at least 1,
/// `permille` capped at 1000), or `None` if `values` is empty.
///
/// This is [`FixedHistogram::quantile_permille`](crate::obs::FixedHistogram::quantile_permille)'s
/// rank convention without the bucket estimate. `values` is reordered
/// in place (a linear-time selection, not a full sort).
///
/// # Examples
///
/// ```
/// use icbtc_sim::metrics::exact_quantile_permille;
/// let mut v: Vec<u64> = (1..=100).rev().collect();
/// assert_eq!(exact_quantile_permille(&mut v, 500), Some(&50));
/// assert_eq!(exact_quantile_permille(&mut v, 900), Some(&90));
/// assert_eq!(exact_quantile_permille(&mut v, 0), Some(&1));
/// assert_eq!(exact_quantile_permille::<u64>(&mut [], 500), None);
/// ```
pub fn exact_quantile_permille<T: Ord>(values: &mut [T], permille: u64) -> Option<&T> {
    if values.is_empty() {
        return None;
    }
    let rank = permille.min(1000).saturating_mul(values.len() as u64).div_ceil(1000).max(1);
    let (_, nth, _) = values.select_nth_unstable(rank as usize - 1);
    Some(nth)
}

/// A labelled (x, y) series, printed as two aligned columns — the textual
/// equivalent of one line in a paper figure.
///
/// # Examples
///
/// ```
/// use icbtc_sim::metrics::Series;
/// let mut s = Series::new("utxo_count");
/// s.push(1.0, 10.0);
/// s.push(2.0, 20.0);
/// assert_eq!(s.to_string().lines().count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# series: {}", self.name)?;
        for (x, y) in &self.points {
            writeln!(f, "{x:>16.4} {y:>20.4}")?;
        }
        Ok(())
    }
}

/// A simple aligned text table for experiment reports.
///
/// # Examples
///
/// ```
/// use icbtc_sim::metrics::Table;
/// let mut t = Table::new(vec!["metric", "paper", "measured"]);
/// t.row(vec!["p50 latency".into(), "<10 s".into(), "9.2 s".into()]);
/// assert!(t.to_string().contains("p50 latency"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity must match headers");
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Formats a large count with engineering suffixes (k, M, B, T) for reports.
///
/// # Examples
///
/// ```
/// assert_eq!(icbtc_sim::metrics::humanize(21_600_000_000.0), "21.60B");
/// assert_eq!(icbtc_sim::metrics::humanize(950.0), "950.00");
/// ```
pub fn humanize(value: f64) -> String {
    let abs = value.abs();
    if abs >= 1e12 {
        format!("{:.2}T", value / 1e12)
    } else if abs >= 1e9 {
        format!("{:.2}B", value / 1e9)
    } else if abs >= 1e6 {
        format!("{:.2}M", value / 1e6)
    } else if abs >= 1e3 {
        format!("{:.2}k", value / 1e3)
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_takes_the_ceiling_rank() {
        let mut v = [4u64, 1, 3, 2, 5];
        assert_eq!(exact_quantile_permille(&mut v, 500), Some(&3));
        assert_eq!(exact_quantile_permille(&mut v, 1000), Some(&5));
        assert_eq!(exact_quantile_permille(&mut v, 5000), Some(&5));
        assert_eq!(exact_quantile_permille(&mut v, 0), Some(&1));
        // ⌈0.9·5⌉ = 5, ⌈0.2·5⌉ = 1.
        assert_eq!(exact_quantile_permille(&mut v, 900), Some(&5));
        assert_eq!(exact_quantile_permille(&mut v, 200), Some(&1));
        assert_eq!(exact_quantile_permille(&mut [7i64], 990), Some(&7));
    }

    #[test]
    fn empty_series_renders_header_only() {
        let s = Series::new("empty");
        let text = s.to_string();
        assert_eq!(text, "# series: empty\n");
    }

    #[test]
    fn table_with_zero_rows_renders_header_and_rule() {
        let t = Table::new(vec!["col_a", "col_b"]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("col_a"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn series_rendering() {
        let mut s = Series::new("latency");
        s.push(1.0, 0.5);
        s.push(2.0, 0.7);
        let text = s.to_string();
        assert!(text.contains("# series: latency"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new(vec!["a", "long header"]);
        t.row(vec!["x".into(), "y".into()]);
        t.row(vec!["wider cell".into(), "z".into()]);
        let text = t.to_string();
        assert!(text.contains("long header"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic]
    fn table_arity_mismatch_panics() {
        let mut t = Table::new(vec!["one"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn humanize_ranges() {
        assert_eq!(humanize(1_500.0), "1.50k");
        assert_eq!(humanize(2_000_000.0), "2.00M");
        assert_eq!(humanize(3.2e12), "3.20T");
        assert_eq!(humanize(12.0), "12.00");
    }

    mod properties {
        use super::*;
        use crate::testkit;

        /// Exact quantiles agree with indexing the sorted samples, and
        /// are monotone in the permille.
        #[test]
        fn exact_quantile_matches_sorted_index() {
            testkit::check(0x3E_0001, testkit::DEFAULT_CASES, |rng| {
                let mut vals = testkit::vec_with(rng, 1..300, |r| testkit::u64_in(r, 0..1_000_000));
                let mut sorted = vals.clone();
                sorted.sort_unstable();
                let mut last = sorted[0];
                for permille in [0, 10, 250, 500, 750, 900, 990, 1000] {
                    let q = *exact_quantile_permille(&mut vals, permille).unwrap();
                    let rank = (permille as usize * sorted.len()).div_ceil(1000).max(1);
                    assert_eq!(q, sorted[rank - 1]);
                    assert!(q >= last);
                    last = q;
                }
            });
        }
    }
}
