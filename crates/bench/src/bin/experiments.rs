//! Regenerates the tables of `EXPERIMENTS.md` at the workspace root.
//!
//! Each region between a `<!-- generated: <figure>/<table> -->` line and
//! the next `<!-- end generated -->` line becomes that table, computed in
//! process by the figure's function in [`ref_bench::figures::FIGURES`];
//! everything outside the regions is kept byte for byte, so a second run
//! changes nothing. An unknown figure or table, or an unterminated
//! marker, fails the run and leaves the file as it was. Takes no
//! arguments.

use std::collections::HashMap;
use std::process::ExitCode;

use ref_bench::figures::FIGURES;
use ref_bench::table::{splice, Table};

fn main() -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut computed: HashMap<&str, Vec<Table>> = HashMap::new();
    let spliced = splice(&text, |key| {
        let unknown = || format!("unknown table `{key}`");
        let (figure, name) = key.split_once('/').ok_or_else(unknown)?;
        let &(figure, run) = FIGURES.iter().find(|f| f.0 == figure).ok_or_else(unknown)?;
        let tables = computed.entry(figure).or_insert_with(run);
        let table = tables.iter().find(|t| t.name == name).ok_or_else(unknown)?;
        Ok(table.render())
    });
    match spliced {
        Ok(new) if new == text => println!("EXPERIMENTS.md is current"),
        Ok(new) => {
            std::fs::write(path, new).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("EXPERIMENTS.md rewritten");
        }
        Err(e) => {
            eprintln!("EXPERIMENTS.md: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
