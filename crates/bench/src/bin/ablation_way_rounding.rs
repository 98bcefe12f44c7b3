//! Prints the tables of [`ref_bench::figures::ablation_way_rounding`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::ablation_way_rounding);
}
