//! Prints the tables of [`ref_bench::figures::ablation_grid_density`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::ablation_grid_density);
}
