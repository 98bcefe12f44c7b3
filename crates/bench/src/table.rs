//! The one result schema of the figure functions: a captioned table of
//! labelled rows, with exactly one rendering, a GitHub markdown table.
//!
//! The figure bins print it, and the `experiments` bin splices it into
//! `EXPERIMENTS.md` between `<!-- generated: <figure>/<table> -->` and
//! `<!-- end generated -->` markers ([`splice`]).

use std::fmt::Write as _;

/// One cell: a number printed at a fixed number of decimals, or text.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A value and the decimals it prints with.
    Num(f64, usize),
    /// Free text: a class, a verdict, a list.
    Text(String),
}

impl Cell {
    /// The cell as printed.
    pub fn text(&self) -> String {
        match self {
            Cell::Num(v, decimals) => format!("{v:.decimals$}"),
            Cell::Text(s) => s.clone(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::from(if b { "yes" } else { "no" })
    }
}

/// A captioned table; `columns[0]` heads the label column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's name within its figure, as `EXPERIMENTS.md`'s markers
    /// cite it (`<figure>/<name>`).
    pub name: &'static str,
    /// One line saying what the table measures.
    pub caption: String,
    /// Column headings, the label column's first.
    pub columns: Vec<String>,
    /// The rows, in print order: each a label (the first column) and one
    /// cell per further column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// An empty table with the column headings `columns`, written as the
    /// markdown heading row's cells are: separated by ` | `.
    pub fn new(name: &'static str, caption: impl Into<String>, columns: &str) -> Table {
        Table {
            name,
            caption: caption.into(),
            columns: columns.split(" | ").map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count does not match the columns.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        assert_eq!(
            cells.len() + 1,
            self.columns.len(),
            "{}: row width",
            self.name
        );
        self.rows.push((label.into(), cells));
    }

    /// The cell in the row labelled `label` under the column `column`.
    pub fn cell(&self, label: &str, column: &str) -> Option<&Cell> {
        let c = self.columns.iter().skip(1).position(|h| h == column)?;
        self.rows.iter().find(|r| r.0 == label)?.1.get(c)
    }

    /// The number in the row labelled `label` under the column `column`.
    pub fn num(&self, label: &str, column: &str) -> Option<f64> {
        match self.cell(label, column)? {
            Cell::Num(v, _) => Some(*v),
            Cell::Text(_) => None,
        }
    }

    /// The table as GitHub markdown: the caption, a blank line, then the
    /// table with every column padded to its widest cell, numbers
    /// right-aligned. Ends with a newline.
    pub fn render(&self) -> String {
        let heading = self.columns.iter().map(|h| (h.clone(), false)).collect();
        let mut lines: Vec<Vec<(String, bool)>> = vec![heading];
        for (label, cells) in &self.rows {
            let cells = cells.iter().map(|c| (c.text(), matches!(c, Cell::Num(..))));
            lines.push(
                std::iter::once((label.clone(), false))
                    .chain(cells)
                    .collect(),
            );
        }
        let mut widths = vec![3; self.columns.len()];
        for line in &lines {
            for (w, (text, _)) in widths.iter_mut().zip(line) {
                *w = (*w).max(text.chars().count());
            }
        }
        lines.insert(1, widths.iter().map(|w| ("-".repeat(*w), false)).collect());
        let mut out = format!("{}\n\n", self.caption);
        for line in lines {
            for ((text, right), w) in line.iter().zip(&widths) {
                let pad = " ".repeat(w - text.chars().count());
                let _ = match right {
                    true => write!(out, "| {pad}{text} "),
                    false => write!(out, "| {text}{pad} "),
                };
            }
            out.push_str("|\n");
        }
        out
    }
}

const OPEN: &str = "<!-- generated: ";
const CLOSE: &str = "<!-- end generated -->";

/// Replaces each region of `text` between a `<!-- generated: <key> -->`
/// line and the next `<!-- end generated -->` line with a blank line,
/// `render(key)` and a blank line. Everything outside the regions is
/// kept byte for byte, so splicing the tables a file already shows
/// returns it unchanged.
///
/// # Errors
///
/// Returns the first error `render` gives (an unknown key), and refuses
/// an open marker with no end marker after it or an end marker with no
/// open marker before it.
pub fn splice(
    text: &str,
    mut render: impl FnMut(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut open: Option<&str> = None;
    for line in text.split_inclusive('\n') {
        let bare = line.trim_end();
        match (
            open,
            bare.strip_prefix(OPEN).and_then(|k| k.strip_suffix(" -->")),
        ) {
            (None, Some(key)) => {
                out.push_str(line);
                out.push('\n');
                out.push_str(&render(key)?);
                out.push('\n');
                open = Some(key);
            }
            (Some(key), Some(_)) => return Err(format!("`{key}`: no `{CLOSE}` before the next")),
            (Some(_), None) if bare == CLOSE => {
                out.push_str(line);
                open = None;
            }
            (Some(_), None) => {}
            (None, None) if bare == CLOSE => return Err(format!("`{CLOSE}` with no open marker")),
            (None, None) => out.push_str(line),
        }
    }
    match open {
        Some(key) => Err(format!("`{key}`: no `{CLOSE}` before the end of the file")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("t", "Caption.", "mix | value | class");
        t.row("WD1", vec![Cell::Num(1.52064, 4), "C".into()]);
        t.row("WD10", vec![Cell::Num(-0.0001, 1), true.into()]);
        t
    }

    #[test]
    fn renders_one_markdown_table_at_the_cells_precision() {
        assert_eq!(
            table().render(),
            "Caption.\n\n\
             | mix  | value  | class |\n\
             | ---- | ------ | ----- |\n\
             | WD1  | 1.5206 | C     |\n\
             | WD10 |   -0.0 | yes   |\n"
        );
        assert_eq!(table().num("WD1", "value"), Some(1.52064));
        assert_eq!(table().num("WD1", "class"), None);
        assert_eq!(table().cell("WD10", "class"), Some(&Cell::from("yes")));
        assert_eq!(table().cell("WD10", "mix"), None);
    }

    fn render(key: &str) -> Result<String, String> {
        match key {
            "fig/t" => Ok(table().render()),
            _ => Err(format!("unknown table `{key}`")),
        }
    }

    #[test]
    fn splice_rewrites_only_the_regions_and_a_second_run_changes_nothing() {
        let stale = "# Title\n\nProse, 1.5153.\n<!-- generated: fig/t -->\nold\n\
                     <!-- end generated -->\ntail without newline";
        let once = splice(stale, render).unwrap();
        let expected = format!(
            "# Title\n\nProse, 1.5153.\n<!-- generated: fig/t -->\n\n{}\n\
             <!-- end generated -->\ntail without newline",
            table().render()
        );
        assert_eq!(once, expected);
        assert_eq!(splice(&once, render).unwrap(), once);
        assert_eq!(splice("no markers\n", render).unwrap(), "no markers\n");
    }

    #[test]
    fn splice_refuses_unknown_names_and_unterminated_markers() {
        let unknown = "<!-- generated: fig/nope -->\n<!-- end generated -->\n";
        assert_eq!(
            splice(unknown, render).unwrap_err(),
            "unknown table `fig/nope`"
        );
        let open = "a\n<!-- generated: fig/t -->\nold\n";
        assert!(splice(open, render)
            .unwrap_err()
            .contains("before the end of the file"));
        let nested = "<!-- generated: fig/t -->\n<!-- generated: fig/t -->\n";
        assert!(splice(nested, render)
            .unwrap_err()
            .contains("before the next"));
        let stray = "<!-- end generated -->\n";
        assert!(splice(stray, render)
            .unwrap_err()
            .contains("no open marker"));
    }
}
