//! Minimal CSV I/O for time series interchange.
//!
//! The evaluation binaries persist generated corpora and per-series results
//! so that plots (Figures 8–10) can be regenerated outside Rust. Only the
//! two layouts we actually use are supported:
//!
//! * single column — one observation per line;
//! * multi column — one `(column, value)` table with a header row.
//!
//! A hand-rolled reader keeps the substrate dependency-free; series files
//! are plain numbers, so a full CSV dialect parser would be overkill.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::series::TimeSeries;

/// Errors produced by the I/O helpers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A cell failed to parse as `f64`.
    Parse {
        /// 1-based line number of the offending cell.
        line: usize,
        /// The cell contents that failed to parse.
        cell: String,
    },
    /// A cell parsed as NaN or ±∞ (written so, or overflowing `f64`,
    /// like `1e400`): no detector accepts a non-finite point.
    NonFinite {
        /// 1-based line number of the offending cell.
        line: usize,
        /// The cell contents.
        cell: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, cell } => {
                write!(f, "line {line}: cannot parse {cell:?} as a number")
            }
            IoError::NonFinite { line, cell } => {
                write!(f, "line {line}: {cell:?} is not a finite number")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } | IoError::NonFinite { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a single-column series from a string (one value per line).
///
/// Blank lines and lines starting with `#` are skipped; a leading header
/// line that does not parse as a number is skipped too. A value that
/// parses but is not finite — `nan`, `inf`, or an overflow such as
/// `1e400`, on any line — is rejected with [`IoError::NonFinite`].
pub fn parse_series(text: &str) -> Result<TimeSeries, IoError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.parse::<f64>() {
            Ok(v) if v.is_finite() => out.push(v),
            Ok(_) => {
                return Err(IoError::NonFinite {
                    line: idx + 1,
                    cell: line.to_string(),
                })
            }
            Err(_) if idx == 0 => continue, // tolerate a header row
            Err(_) => {
                return Err(IoError::Parse {
                    line: idx + 1,
                    cell: line.to_string(),
                })
            }
        }
    }
    Ok(TimeSeries::from_vec(out))
}

/// Reads a single-column series from `path`.
pub fn read_series(path: impl AsRef<Path>) -> Result<TimeSeries, IoError> {
    let text = fs::read_to_string(path)?;
    parse_series(&text)
}

/// Writes a series to `path`, one value per line, full round-trip precision.
pub fn write_series(path: impl AsRef<Path>, series: &[f64]) -> Result<(), IoError> {
    let mut buf = String::with_capacity(series.len() * 12);
    for v in series {
        // `{:?}` on f64 prints the shortest representation that round-trips.
        writeln!(buf, "{v:?}").expect("writing to String cannot fail");
    }
    fs::write(path, buf)?;
    Ok(())
}

/// Serializes named columns of equal length into CSV text with a header.
///
/// # Panics
///
/// Panics if the column lengths differ.
pub fn columns_to_csv(columns: &[(&str, &[f64])]) -> String {
    if columns.is_empty() {
        return String::new();
    }
    let rows = columns[0].1.len();
    for (name, col) in columns {
        assert_eq!(col.len(), rows, "column {name:?} has mismatched length");
    }
    let mut buf = String::new();
    let header: Vec<&str> = columns.iter().map(|(n, _)| *n).collect();
    buf.push_str(&header.join(","));
    buf.push('\n');
    for r in 0..rows {
        for (c, (_, col)) in columns.iter().enumerate() {
            if c > 0 {
                buf.push(',');
            }
            write!(buf, "{:?}", col[r]).expect("writing to String cannot fail");
        }
        buf.push('\n');
    }
    buf
}

/// Writes named columns of equal length as a CSV file with a header row.
pub fn write_columns(path: impl AsRef<Path>, columns: &[(&str, &[f64])]) -> Result<(), IoError> {
    fs::write(path, columns_to_csv(columns))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_column() {
        let ts = parse_series("1.0\n2.5\n-3\n").unwrap();
        assert_eq!(ts.as_slice(), &[1.0, 2.5, -3.0]);
    }

    #[test]
    fn parse_skips_blank_comment_and_header() {
        let ts = parse_series("value\n# comment\n\n1.0\n2.0\n").unwrap();
        assert_eq!(ts.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn parse_rejects_garbage_mid_file() {
        let err = parse_series("1.0\nxyz\n").unwrap_err();
        match err {
            IoError::Parse { line, cell } => {
                assert_eq!(line, 2);
                assert_eq!(cell, "xyz");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_non_finite_cells() {
        for (text, bad_line, bad_cell) in [
            ("1.0\nNaN\n2.0\n", 2, "NaN"),
            ("1.0\n2.0\ninf\n", 3, "inf"),
            ("-infinity\n1.0\n", 1, "-infinity"),
            ("1.0\n1e400\n", 2, "1e400"),
        ] {
            match parse_series(text).unwrap_err() {
                IoError::NonFinite { line, cell } => {
                    assert_eq!((line, cell.as_str()), (bad_line, bad_cell), "{text:?}");
                }
                other => panic!("{text:?}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_first_line_is_not_skipped_as_a_header() {
        // `nan` parses as a number, so it is data, not a header row.
        let err = parse_series("nan\n1.0\n2.0\n").unwrap_err();
        assert!(matches!(err, IoError::NonFinite { line: 1, .. }), "{err:?}");
        assert_eq!(err.to_string(), "line 1: \"nan\" is not a finite number");
        // A word header is still skipped.
        assert_eq!(parse_series("value\n1.0\n").unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn round_trip_through_file() {
        let dir = std::env::temp_dir().join("egi_tskit_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.csv");
        let original = [1.25, -0.333333333333333, 1e-17, 42.0];
        write_series(&path, &original).unwrap();
        let read = read_series(&path).unwrap();
        assert_eq!(read.as_slice(), &original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn columns_csv_layout() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let csv = columns_to_csv(&[("x", &a), ("y", &b)]);
        assert_eq!(csv, "x,y\n1.0,3.0\n2.0,4.0\n");
    }

    #[test]
    #[should_panic(expected = "mismatched length")]
    fn columns_length_mismatch_panics() {
        let a = [1.0, 2.0];
        let b = [3.0];
        columns_to_csv(&[("x", &a), ("y", &b)]);
    }

    #[test]
    fn empty_columns_is_empty_string() {
        assert_eq!(columns_to_csv(&[]), "");
    }

    #[test]
    fn error_display_formats() {
        let e = IoError::Parse {
            line: 3,
            cell: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
