//! Prints the tables of [`ref_bench::figures::bubble_sensitivity`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::bubble_sensitivity);
}
