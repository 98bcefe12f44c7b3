//! Prints the tables of [`ref_bench::figures::fig09_elasticities`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig09_elasticities);
}
