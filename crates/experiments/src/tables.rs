//! Plain-text table rendering and JSON export for experiment results.

use crate::json::escape;

/// A rendered experiment result: rows/series matching what the paper's
/// table or figure reports.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "Figure 6".
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| escape(s)).collect();
    format!("[{}]", quoted.join(", "))
}

impl Table {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: ToString>(&mut self, cells: Vec<S>) {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Serialize the table as a JSON object (the workspace builds offline,
    /// so this is hand-rolled rather than serde-derived).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|r| json_string_array(r)).collect();
        format!(
            "{{\"id\": {}, \"title\": {}, \"headers\": {}, \"rows\": [{}]}}",
            escape(&self.id),
            escape(&self.title),
            json_string_array(&self.headers),
            rows.join(", "),
        )
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Format a ratio as a speedup with 2 decimals.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a fraction as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_rows_and_headers() {
        let mut t = Table::new("Figure 0", "demo", &["n", "speedup"]);
        t.row(vec!["8192".to_string(), "12.5".to_string()]);
        let s = t.to_string();
        assert!(s.contains("Figure 0"));
        assert!(s.contains("speedup"));
        assert!(s.contains("8192"));
        assert!(s.contains("12.5"));
    }

    #[test]
    fn json_has_fields_and_rows() {
        let mut t = Table::new("Table 1", "seq", &["a"]);
        t.row(vec![1.5f64]);
        let j = t.to_json();
        assert!(j.contains("\"id\": \"Table 1\""));
        assert!(j.contains("\"rows\": [[\"1.5\"]]"));
        assert!(j.contains("\"headers\": [\"a\"]"));
    }

    #[test]
    fn json_escaping() {
        let t = Table::new("T", "quote \" and newline\n", &[]);
        assert!(t.to_json().contains("quote \\\" and newline\\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(12.3456), "12.35");
        assert_eq!(fmt_pct(0.5), "50.0%");
    }

    #[test]
    fn roundtrips_table_output() {
        use crate::json::Json;
        let mut t = Table::new("Table 9", "tricky \"title\"", &["col\na", "b"]);
        t.row(vec!["1".to_string(), "häßlich \\ value".to_string()]);
        let doc = Json::parse(&t.to_json()).expect("table JSON parses");
        assert_eq!(doc.get("id").unwrap().as_str(), Some("Table 9"));
        assert_eq!(doc.get("title").unwrap().as_str(), Some("tricky \"title\""));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        let row0 = rows[0].as_array().unwrap();
        assert_eq!(row0[1].as_str(), Some("häßlich \\ value"));
    }
}
