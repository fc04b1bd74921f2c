//! Minimal fixed-width table printing for experiment output.

/// A fixed-width text table with a title, printed as it is built.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Print the title and header; column widths come from the header plus
    /// padding.
    pub(crate) fn new(title: &str, headers: &[&str]) -> Table {
        println!("\n== {title} ==");
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10) + 2).collect();
        let mut line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{h:>w$}"));
        }
        println!("{line}");
        println!("{}", "-".repeat(widths.iter().sum()));
        Table { widths }
    }

    /// Print one row of already-formatted cells.
    pub(crate) fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$}"));
        }
        println!("{line}");
    }
}

/// Format a float compactly (3 significant-ish digits).
pub(crate) fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Format a ratio like `1.73x`.
pub(crate) fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(5000.4), "5000");
        assert_eq!(fmt(42.25), "42.2");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt_ratio(1.726), "1.73x");
    }

    #[test]
    fn table_prints_without_panicking() {
        let t = Table::new("unit", &["col_a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["wide-value".into(), "x".into()]);
    }
}
