//! Prints the tables of [`ref_bench::figures::fig01_edgeworth`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig01_edgeworth);
}
