//! Prints the tables of [`ref_bench::figures::fig02_envy_free`] as markdown.

fn main() {
    ref_bench::figures::print(ref_bench::figures::fig02_envy_free);
}
