//! Prints the tables of [`ref_bench::figures::fig10_12_mechanism_pairs`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig10_12_mechanism_pairs);
}
