//! Prints the tables of [`ref_bench::figures::fig05_contract_curve`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig05_contract_curve);
}
