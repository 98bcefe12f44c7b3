//! Prints the tables of [`ref_bench::figures::table2_workloads`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::table2_workloads);
}
