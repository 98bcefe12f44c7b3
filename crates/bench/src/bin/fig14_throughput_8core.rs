//! Prints the tables of [`ref_bench::figures::fig14_throughput_8core`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig14_throughput_8core);
}
