//! Prints the tables of [`ref_bench::figures::ablation_prefetcher`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::ablation_prefetcher);
}
