//! Prints the tables of [`ref_bench::figures::fig03_indifference`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig03_indifference);
}
