//! Statistics helpers matching the paper's methodology (§V): arithmetic
//! mean of serial times, per-run speedups, geometric-mean speedups with
//! standard deviation, and geometric-mean speedup *ratios* between runtime
//! systems.

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// A time in seconds to three significant digits, so the microsecond
/// kernels of `--size tiny` and the multi-second ones of `--size full`
/// both keep their value (a fixed `{:.4}` prints 2.4e-5 s as `0.0000`).
/// Below a millisecond it switches to exponent notation.
pub fn sig3(secs: f64) -> String {
    if secs == 0.0 || !secs.is_finite() {
        return format!("{secs}");
    }
    if secs.abs() < 1e-3 {
        return format!("{secs:.2e}");
    }
    let decimals = (2 - secs.abs().log10().floor() as i32).max(0) as usize;
    format!("{secs:.decimals$}")
}

/// Geometric mean (the paper averages speedups geometrically).
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A simple fixed-width text table.
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and header.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn sig3_keeps_tiny_and_large_times() {
        assert_eq!(sig3(2.4e-5), "2.40e-5");
        assert_eq!(sig3(13.08), "13.1");
        assert_eq!(sig3(0.93), "0.930");
        assert_eq!(sig3(0.0024), "0.00240");
        assert_eq!(sig3(0.0), "0");
        for t in [2.4e-5, 13.08] {
            assert!(!sig3(t).contains("0.0000"), "{t} -> {}", sig3(t));
        }
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-name"));
    }
}
