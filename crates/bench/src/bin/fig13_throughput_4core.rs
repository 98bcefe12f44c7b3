//! Prints the tables of [`ref_bench::figures::fig13_throughput_4core`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig13_throughput_4core);
}
