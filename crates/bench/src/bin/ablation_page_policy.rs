//! Prints the tables of [`ref_bench::figures::ablation_page_policy`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::ablation_page_policy);
}
