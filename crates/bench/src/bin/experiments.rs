//! The one entry point to the paper's figures.
//!
//! `experiments <figure>...` prints each named figure's tables as
//! markdown, each followed by a blank line; an unknown name fails the run
//! before anything is computed and lists the names of
//! [`ref_bench::figures::FIGURES`]. `--jobs N` sets the worker-pool width.
//!
//! With no figure named, it regenerates the tables of `EXPERIMENTS.md` at
//! the workspace root: each region between a
//! `<!-- generated: <figure>/<table> -->` line and the next
//! `<!-- end generated -->` line becomes that table, computed in process
//! by the figure's function; everything outside the regions is kept byte
//! for byte, so a second run changes nothing. An unknown figure or table,
//! or an unterminated marker, fails the run and leaves the file as it was.

use std::collections::HashMap;
use std::process::ExitCode;

use ref_bench::figures::FIGURES;
use ref_bench::init_jobs;
use ref_bench::table::{splice, Table};

fn main() -> ExitCode {
    let names = init_jobs();
    if names.is_empty() {
        return regenerate();
    }
    let mut figures = Vec::new();
    for name in &names {
        let Some(&(_, run)) = FIGURES.iter().find(|f| f.0 == name) else {
            let known: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
            eprintln!(
                "experiments: unknown figure `{name}`; the figures are: {}",
                known.join(", ")
            );
            return ExitCode::FAILURE;
        };
        figures.push(run);
    }
    for run in figures {
        for table in run() {
            println!("{}", table.render());
        }
    }
    ExitCode::SUCCESS
}

fn regenerate() -> ExitCode {
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
