//! Every table and figure of the paper from one deduplicated grid.
//!
//! `paper [--quick | --full] [SECTION ...]` prints each selected section
//! (all ten by default) as a `=== name ===` header followed by its tables.
//! The cells of all selected sections run once, in one parallel grid
//! ([`silcfm_bench::paper`]); the cell and job counts go to stderr.
//! Exit code 2 on a usage error.

use silcfm_bench::paper::{self, Grid, Options, Section};

fn main() {
    let opts = Options::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        let names: Vec<&str> = Section::ALL.iter().map(|s| s.name()).collect();
        let usage = "usage: paper [--quick | --full] [SECTION ...]";
        eprintln!("{msg}\n{usage}\nsections: {}", names.join(" "));
        std::process::exit(2);
    });
    let cells = paper::cells(&opts.sections, &opts.params);
    let grid = Grid::run(paper::dedup(&cells));
    eprintln!(
        "paper: {} cells, {} unique jobs",
        cells.len(),
        grid.jobs.len()
    );
    for section in &opts.sections {
        println!("=== {} ===", section.name());
        print!("{}", section.render(opts.mode, &opts.params, &grid));
    }
}
