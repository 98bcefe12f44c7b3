//! Prints the tables of [`ref_bench::figures::appendix_spl`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::appendix_spl);
}
