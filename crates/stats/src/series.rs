//! Labelled data series and CSV export.
//!
//! Every figure of the evaluation is ultimately a set of `(x, y)` series; the
//! bench harness builds [`Series`] values and dumps them with
//! [`series_to_csv`] so the plots can be regenerated with any tool.

use serde::{Deserialize, Serialize};

/// A named series of `(x, y)` points (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (e.g. `"uniform"`, `"sparse alpha=5"`).
    pub label: String,
    /// The data points in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series holds no point.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Renders a set of series as a long-format CSV table
/// (`series,x,y` header included).
pub fn series_to_csv(series: &[Series]) -> String {
    let mut out = String::from("series,x,y\n");
    for s in series {
        for &(x, y) in &s.points {
            out.push_str(&format!("{},{},{}\n", s.label, x, y));
        }
    }
    out
}

/// Renders a set of series as an aligned text table for terminal output
/// (one row per x value, one column per series; missing values are blank).
pub fn series_to_table(series: &[Series]) -> String {
    use std::collections::BTreeMap;
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs.dedup();
    let maps: Vec<BTreeMap<u64, f64>> = series
        .iter()
        .map(|s| {
            s.points
                .iter()
                .map(|&(x, y)| (x.to_bits(), y))
                .collect::<BTreeMap<u64, f64>>()
        })
        .collect();
    let mut out = String::from("x");
    for s in series {
        out.push('\t');
        out.push_str(&s.label);
    }
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x}"));
        for m in &maps {
            out.push('\t');
            match m.get(&x.to_bits()) {
                Some(y) => out.push_str(&format!("{y:.3}")),
                None => out.push('-'),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_grows_the_series() {
        let mut s = Series::new("uniform");
        assert!(s.is_empty());
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points, vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.label, "uniform");
    }

    #[test]
    fn csv_format() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        let mut b = Series::new("b");
        b.push(3.0, 4.5);
        let csv = series_to_csv(&[a, b]);
        assert_eq!(csv, "series,x,y\na,1,2\nb,3,4.5\n");
    }

    #[test]
    fn table_aligns_series_on_x() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        a.push(2.0, 3.0);
        let mut b = Series::new("b");
        b.push(2.0, 5.0);
        let table = series_to_table(&[a, b]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "x\ta\tb");
        assert!(lines[1].starts_with("1\t2.000\t-"));
        assert!(lines[2].starts_with("2\t3.000\t5.000"));
    }

    #[test]
    fn empty_series_csv() {
        assert_eq!(series_to_csv(&[]), "series,x,y\n");
        assert_eq!(series_to_table(&[]), "x\n");
    }
}
