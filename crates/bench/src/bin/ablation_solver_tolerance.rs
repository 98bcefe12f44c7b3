//! Prints the tables of [`ref_bench::figures::ablation_solver_tolerance`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::ablation_solver_tolerance);
}
