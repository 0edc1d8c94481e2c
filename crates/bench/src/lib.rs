//! Shared infrastructure for the SWAG benchmark harness: workload
//! builders, timing helpers, statistics and CSV output.
//!
//! The `figures` binary (`cargo run --release -p swag-bench --bin figures
//! -- <id>`) regenerates every figure and table of the paper's evaluation,
//! timings included. See `DESIGN.md` §3 for the experiment index.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

/// Times `iters` executions of `f`, returning the mean per-call duration.
pub fn time_per_call(iters: usize, mut f: impl FnMut()) -> Duration {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// A simple result table that prints aligned to stdout and saves as CSV.
pub struct ResultTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with an experiment id (used as the CSV file stem).
    pub fn new(name: &str, header: &[&str]) -> Self {
        ResultTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Prints the table aligned to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("\n== {} ==", self.name);
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Writes the table as `experiments/<name>.csv` relative to `dir`.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// The default output directory for experiment CSVs: `experiments/` in the
/// workspace root (falling back to the current directory).
pub fn experiments_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("experiments");
    p
}

/// Formats a byte count in adaptive human units.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b < 1e3 {
        format!("{bytes} B")
    } else if b < 1e6 {
        format!("{:.1} kB", b / 1e3)
    } else if b < 1e9 {
        format!("{:.1} MB", b / 1e6)
    } else {
        format!("{:.2} GB", b / 1e9)
    }
}

/// Formats a duration in adaptive human units.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_perfect_line_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_round_trips_to_csv() {
        let mut t = ResultTable::new("unit-test-table", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("swag-bench-test");
        let path = t.save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(12), "12 B");
        assert_eq!(fmt_bytes(2_500), "2.5 kB");
        assert_eq!(fmt_bytes(3_000_000), "3.0 MB");
        assert_eq!(fmt_bytes(37_500_000_000), "37.50 GB");
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(1500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }

    #[test]
    fn time_per_call_is_positive() {
        let d = time_per_call(10, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }
}
