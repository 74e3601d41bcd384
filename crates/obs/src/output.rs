//! Shared writers for `results/` artifacts.
//!
//! Every crate that drops CSV or JSONL files under `results/` funnels
//! through these helpers so quoting, escaping and directory creation are
//! implemented once.

use crate::event::JsonlSink;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Creates `dir` (and parents) and returns `dir/name`.
pub fn prepare_path(dir: impl AsRef<Path>, name: &str) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    Ok(dir.join(name))
}

/// Quotes one CSV field per RFC 4180: fields containing commas, quotes or
/// newlines are wrapped in double quotes with embedded quotes doubled.
pub fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Renders a header row plus data rows as CSV text.
///
/// # Panics
///
/// Panics when a row's length differs from the header's.
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let header_line: Vec<String> = header.iter().map(|h| csv_quote(h)).collect();
    let _ = writeln!(out, "{}", header_line.join(","));
    for row in rows {
        assert_eq!(
            row.len(),
            header.len(),
            "csv row width {} != header width {}",
            row.len(),
            header.len()
        );
        let line: Vec<String> = row.iter().map(|f| csv_quote(f)).collect();
        let _ = writeln!(out, "{}", line.join(","));
    }
    out
}

/// Writes `header` + `rows` as a CSV file at `dir/name`, creating `dir` as
/// needed. Returns the written path.
pub fn write_csv(
    dir: impl AsRef<Path>,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    let path = prepare_path(dir, name)?;
    let mut file = fs::File::create(&path)?;
    file.write_all(render_csv(header, rows).as_bytes())?;
    Ok(path)
}

/// Opens a [`JsonlSink`] at `dir/name`, creating `dir` as needed.
pub fn jsonl_sink(dir: impl AsRef<Path>, name: &str) -> std::io::Result<JsonlSink> {
    let path = prepare_path(dir, name)?;
    JsonlSink::create(path)
}

/// Writes plain text (reports, summaries) to `dir/name`.
pub fn write_text(dir: impl AsRef<Path>, name: &str, text: &str) -> std::io::Result<PathBuf> {
    let path = prepare_path(dir, name)?;
    fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory of this test's own: tests run in parallel, so
    /// none may remove a directory another one writes into.
    fn temp_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("secloc-obs-output-{}-{test}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn csv_quoting_covers_special_characters() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_quote("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn render_csv_produces_header_and_rows() {
        let csv = render_csv(
            &["round", "alerts"],
            &[
                vec!["1".to_string(), "4".to_string()],
                vec!["2".to_string(), "0".to_string()],
            ],
        );
        assert_eq!(csv, "round,alerts\n1,4\n2,0\n");
    }

    #[test]
    #[should_panic(expected = "csv row width")]
    fn mismatched_row_width_panics() {
        render_csv(&["a", "b"], &[vec!["1".to_string()]]);
    }

    #[test]
    fn writers_create_directories_and_files() {
        let dir = temp_dir("writers").join("nested");
        let csv = write_csv(&dir, "t.csv", &["x"], &[vec!["1".to_string()]]).unwrap();
        assert_eq!(fs::read_to_string(&csv).unwrap(), "x\n1\n");

        let txt = write_text(&dir, "t.txt", "hello\n").unwrap();
        assert_eq!(fs::read_to_string(&txt).unwrap(), "hello\n");

        fs::remove_dir_all(dir.parent().unwrap()).ok();
    }
}
