//! Result persistence: markdown sections to stdout/file, raw results as
//! JSON for later re-plotting.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A JSON value, holding only the kinds the experiment results use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Unsigned integer.
    UInt(u64),
    /// Floating point; a non-finite value renders as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, keys in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// Collects values into a [`Json::Arr`].
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Arr(items.into_iter().collect())
    }
}

impl Json {
    /// Renders the value as JSON text with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out
    }

    fn write(&self, indent: usize, out: &mut String) {
        match self {
            Json::UInt(u) => write!(out, "{u}").expect("writing to String cannot fail"),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_block(items, ['[', ']'], indent, out, |item, out| {
                item.write(indent + 1, out)
            }),
            Json::Obj(entries) => {
                write_block(entries, ['{', '}'], indent, out, |(key, value), out| {
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write(indent + 1, out);
                })
            }
        }
    }
}

/// Writes `items` one per line between `brackets`, or the bare brackets
/// when there are none.
fn write_block<T>(
    items: &[T],
    brackets: [char; 2],
    indent: usize,
    out: &mut String,
    mut item: impl FnMut(&T, &mut String),
) {
    out.push(brackets[0]);
    if !items.is_empty() {
        out.push('\n');
        for (i, x) in items.iter().enumerate() {
            out.push_str(&"  ".repeat(indent + 1));
            item(x, out);
            if i + 1 < items.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
    }
    out.push(brackets[1]);
}

/// A whole float below 1e15 keeps one decimal (`2.0`); a non-finite one
/// has no JSON form and renders as `null`.
fn write_float(f: f64, out: &mut String) {
    let written = if !f.is_finite() {
        out.write_str("null")
    } else if f == f.trunc() && f.abs() < 1e15 {
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    };
    written.expect("writing to String cannot fail");
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A sink for experiment outputs: a directory receiving one `.md` and one
/// `.json` file per experiment, plus optional CSVs.
///
/// Every error names the path it failed on: `cannot write <path>: …`.
#[derive(Debug, Clone)]
pub struct ReportSink {
    dir: PathBuf,
}

impl ReportSink {
    /// Creates (if needed) the output directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| cannot_write(&dir, e))?;
        Ok(Self { dir })
    }

    /// The directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a markdown section under `<name>.md` and echoes it to
    /// stdout with a title line.
    pub fn markdown(&self, name: &str, title: &str, body: &str) -> io::Result<()> {
        let text = format!("## {title}\n\n{body}\n");
        println!("{text}");
        self.write(&format!("{name}.md"), &text)
    }

    /// Persists raw results as pretty JSON under `<name>.json`.
    pub fn json(&self, name: &str, value: &Json) -> io::Result<()> {
        self.write(&format!("{name}.json"), &value.pretty())
    }

    /// Writes a CSV payload under `<name>.csv`.
    pub fn csv(&self, name: &str, payload: &str) -> io::Result<()> {
        self.write(&format!("{name}.csv"), payload)
    }

    fn write(&self, file: &str, text: &str) -> io::Result<()> {
        let path = self.dir.join(file);
        fs::write(&path, text).map_err(|e| cannot_write(&path, e))
    }
}

fn cannot_write(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_artifact_kinds() {
        let dir = std::env::temp_dir().join("egi_eval_report_test");
        let sink = ReportSink::new(&dir).unwrap();
        sink.markdown("t", "Title", "| a |\n|---|\n| 1 |").unwrap();
        sink.json("t", &[1, 2].map(Json::UInt).into_iter().collect())
            .unwrap();
        sink.csv("t", "a,b\n1,2\n").unwrap();
        assert!(dir.join("t.md").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("t.json")).unwrap(),
            "[\n  1,\n  2\n]"
        );
        assert!(dir.join("t.csv").exists());
        let md = std::fs::read_to_string(dir.join("t.md")).unwrap();
        assert!(md.starts_with("## Title"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that cannot create its directory, and a write that fails
    /// inside it, each name the path they failed on.
    #[test]
    fn a_failed_write_names_its_path() {
        let root = std::env::temp_dir().join("egi_eval_report_unwritable");
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("file");
        std::fs::write(&file, "").unwrap();
        let under_file = file.join("out");
        let err = ReportSink::new(&under_file).unwrap_err();
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", under_file.display())),
            "{err}"
        );
        let sink = ReportSink::new(root.join("out")).unwrap();
        std::fs::create_dir(root.join("out").join("t.json")).unwrap();
        let err = sink.json("t", &Json::UInt(1)).unwrap_err();
        let path = root.join("out").join("t.json");
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", path.display())),
            "{err}"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(f).pretty(), "null");
        }
    }

    #[test]
    fn whole_floats_below_1e15_keep_one_decimal() {
        assert_eq!(Json::Float(2.0).pretty(), "2.0");
        assert_eq!(Json::Float(-0.0).pretty(), "-0.0");
        assert_eq!(
            Json::Float(999_999_999_999_999.0).pretty(),
            "999999999999999.0"
        );
        assert_eq!(Json::Float(1e15).pretty(), "1000000000000000");
        assert_eq!(Json::Float(0.1 + 0.2).pretty(), "0.30000000000000004");
        assert_eq!(Json::UInt(u64::MAX).pretty(), "18446744073709551615");
    }

    /// Every finite float reads back as the value it was written from,
    /// so results re-plotted from the JSON are the measured ones.
    #[test]
    fn finite_floats_read_back_exactly() {
        for f in [
            0.9878048780487805,
            -2.5,
            1e-7,
            5e-324,
            1.5e16,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Float(f).pretty();
            assert_eq!(text.parse::<f64>(), Ok(f), "{f:e} wrote {text}");
        }
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let obj = Json::Obj(vec![
            ("stomp_secs", Json::UInt(2)),
            ("kind", Json::UInt(0)),
            ("len", Json::UInt(1)),
        ]);
        assert_eq!(
            obj.pretty(),
            "{\n  \"stomp_secs\": 2,\n  \"kind\": 0,\n  \"len\": 1\n}"
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(
            Json::Str("\"\\\n\r\t\u{1}é".into()).pretty(),
            r#""\"\\\n\r\t\u0001é""#
        );
    }

    #[test]
    fn empty_and_nested_containers_indent_by_two_spaces() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
        let nested = Json::Obj(vec![
            ("a", Json::UInt(1)),
            (
                "b",
                Json::Arr(vec![
                    Json::Float(0.5),
                    Json::Arr(vec![]),
                    Json::Obj(vec![("c", Json::Str("x".into()))]),
                ]),
            ),
            ("d", Json::Obj(vec![])),
        ]);
        assert_eq!(
            nested.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    [],\n    {\n      \"c\": \"x\"\n    }\n  ],\n  \"d\": {}\n}"
        );
    }
}
