//! Prints the tables of [`ref_bench::figures::fig07_sharing_incentives`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig07_sharing_incentives);
}
