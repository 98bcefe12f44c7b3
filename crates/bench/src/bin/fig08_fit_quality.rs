//! Prints the tables of [`ref_bench::figures::fig08_fit_quality`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig08_fit_quality);
}
