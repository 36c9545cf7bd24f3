//! Report primitives: tables and findings.

/// A rendered table: column headers plus string rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (each must have exactly `columns.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.columns.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

/// A paper-claim-versus-measurement record.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What the paper states (with its location).
    pub paper_claim: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement is consistent with the claim.
    pub matches: bool,
}

impl Finding {
    /// Creates a finding.
    pub fn new(paper_claim: impl Into<String>, measured: impl Into<String>, matches: bool) -> Self {
        Finding {
            paper_claim: paper_claim.into(),
            measured: measured.into(),
            matches,
        }
    }
}

/// The full result of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Short identifier (`"E1"`, ...).
    pub id: String,
    /// One-line title.
    pub title: String,
    /// Paper location of the claim being reproduced.
    pub paper_reference: String,
    /// The measured table.
    pub table: Table,
    /// Claim-versus-measurement records.
    pub findings: Vec<Finding>,
}

impl ExperimentReport {
    /// Renders the report (title, table, findings) as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n*Paper reference:* {}\n\n", self.id, self.title, self.paper_reference);
        out.push_str(&self.table.to_markdown());
        out.push_str("\n**Paper vs. measured**\n\n");
        for finding in &self.findings {
            out.push_str(&format!(
                "- {} — measured: {} — {}\n",
                finding.paper_claim,
                finding.measured,
                if finding.matches { "consistent" } else { "MISMATCH" }
            ));
        }
        out.push('\n');
        out
    }

    /// Returns `true` if every finding is consistent with the paper.
    pub fn all_consistent(&self) -> bool {
        self.findings.iter().all(|f| f.matches)
    }
}

/// Formats a probability with three decimal places.
pub fn fmt_prob(p: f64) -> String {
    format!("{p:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_renders_header_and_rows() {
        let mut table = Table::new(&["n", "p"]);
        table.push_row(vec!["8".into(), "0.5".into()]);
        table.push_row(vec!["16".into(), "0.25".into()]);
        let md = table.to_markdown();
        assert!(md.starts_with("| n | p |"));
        assert!(md.contains("| 16 | 0.25 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_are_rejected() {
        let mut table = Table::new(&["a", "b"]);
        table.push_row(vec!["1".into()]);
    }

    #[test]
    fn report_markdown_flags_mismatches() {
        let mut table = Table::new(&["x"]);
        table.push_row(vec!["1".into()]);
        let report = ExperimentReport {
            id: "E0".into(),
            title: "demo".into(),
            paper_reference: "§0".into(),
            table,
            findings: vec![
                Finding::new("claim A", "ok", true),
                Finding::new("claim B", "off", false),
            ],
        };
        assert!(!report.all_consistent());
        let md = report.to_markdown();
        assert!(md.contains("MISMATCH"));
        assert!(md.contains("consistent"));
    }

    #[test]
    fn formatting_helpers_work() {
        assert_eq!(fmt_prob(0.61803), "0.618");
    }
}
