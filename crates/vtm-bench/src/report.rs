//! Result reporting shared by every experiment: aligned stdout tables, CSV
//! and JSON files under `results/`.
//!
//! The fig/ablation binaries used to copy-paste this boilerplate; they now go
//! through [`Report`], which owns a [`ResultsTable`] plus free-text notes and
//! writes both a CSV (`results/<name>.csv`) and a JSON document
//! (`results/<name>.json`) per experiment.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use vtm_obs::escape_json;

/// A simple column-oriented results table that can be printed and saved as
/// CSV or JSON.
#[derive(Debug, Clone, Default)]
pub struct ResultsTable {
    headers: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl ResultsTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row<I: IntoIterator<Item = f64>>(&mut self, row: I) {
        let row: Vec<f64> = row.into_iter().collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row length must match header count"
        );
        self.rows.push(row);
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned text block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(", "));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>12.4}")).collect();
            out.push_str(&cells.join(", "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// Directory where experiment CSVs/JSONs are written (`results/` beside the
/// workspace manifest, falling back to the current directory).
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| Path::new(&d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let dir = base.join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialises an `f64` as a JSON token (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One experiment's report: a results table, a human title and free-text
/// notes, emitted as stdout + CSV + JSON.
#[derive(Debug, Clone)]
pub struct Report {
    /// File stem used under `results/` (e.g. `fig2a_convergence`).
    pub name: String,
    /// Human-readable title printed above the table.
    pub title: String,
    /// The results table.
    pub table: ResultsTable,
    /// Free-text notes (expected shapes, summary statistics).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with the given table headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(
        name: impl Into<String>,
        title: impl Into<String>,
        headers: I,
    ) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            table: ResultsTable::new(headers),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row<I: IntoIterator<Item = f64>>(&mut self, row: I) {
        self.table.push_row(row);
    }

    /// Appends a free-text note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let headers: Vec<String> = self
            .table
            .headers()
            .iter()
            .map(|h| format!("\"{}\"", escape_json(h)))
            .collect();
        let rows: Vec<String> = self
            .table
            .rows()
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|&v| json_number(v)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape_json(n)))
            .collect();
        format!(
            "{{\n  \"name\": \"{}\",\n  \"title\": \"{}\",\n  \"headers\": [{}],\n  \"rows\": [{}],\n  \"notes\": [{}]\n}}\n",
            escape_json(&self.name),
            escape_json(&self.title),
            headers.join(","),
            rows.join(","),
            notes.join(",")
        )
    }

    /// Prints the title, table and notes to stdout.
    pub fn print(&self) {
        println!("{}\n", self.title);
        println!("{}", self.table.to_text());
        for note in &self.notes {
            println!("{note}");
        }
    }

    /// Writes `<dir>/<name>.csv` and `<dir>/<name>.json`, returning their
    /// paths.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn save(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        fs::create_dir_all(dir)?;
        let csv = dir.join(format!("{}.csv", self.name));
        let json = dir.join(format!("{}.json", self.name));
        fs::write(&csv, self.table.to_csv())?;
        fs::write(&json, self.to_json())?;
        Ok((csv, json))
    }

    /// Prints the report and saves it under [`results_dir`], warning on
    /// stderr (without aborting) when the files cannot be written.
    pub fn emit(&self) {
        self.print();
        match self.save(&results_dir()) {
            Ok((csv, json)) => println!("(saved to {} and {})", csv.display(), json.display()),
            Err(err) => eprintln!("warning: could not save report {}: {err}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = ResultsTable::new(["a", "b"]);
        assert!(t.is_empty());
        t.push_row([1.0, 2.0]);
        t.push_row([3.5, -4.25]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.headers(), ["a", "b"]);
        assert_eq!(t.rows().len(), 2);
        let text = t.to_text();
        assert!(text.starts_with("a, b"));
        let csv = t.to_csv();
        assert!(csv.contains("3.5,-4.25"));
    }

    #[test]
    #[should_panic(expected = "row length must match")]
    fn mismatched_row_panics() {
        let mut t = ResultsTable::new(["a", "b"]);
        t.push_row([1.0]);
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn report_round_trips_to_json_and_disk() {
        let mut report = Report::new("test_report", "A \"test\" report", ["x", "y"]);
        report.push_row([1.0, 2.0]);
        report.note("shape: rises");
        let json = report.to_json();
        assert!(json.contains("\"name\": \"test_report\""));
        assert!(json.contains("\\\"test\\\""));
        assert!(json.contains("[1,2]"));
        assert!(json.contains("shape: rises"));
        let dir = std::env::temp_dir().join("vtm_report_test");
        let (csv, json_path) = report.save(&dir).expect("save succeeds");
        assert!(csv.exists() && json_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_dir_exists() {
        let dir = results_dir();
        assert!(dir.exists());
    }
}
