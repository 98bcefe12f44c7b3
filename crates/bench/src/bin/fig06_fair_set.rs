//! Prints the tables of [`ref_bench::figures::fig06_fair_set`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig06_fair_set);
}
