//! Prints the tables of [`ref_bench::figures::fig04_leontief`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig04_leontief);
}
