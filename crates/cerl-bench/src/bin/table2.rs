//! Regenerates Table II of the paper. See `cerl-bench` crate docs for flags.

fn main() -> Result<(), cerl_core::CerlError> {
    let args = cerl_bench::RunArgs::parse(std::env::args().skip(1), &[], &[]);
    cerl_bench::table2::print(&cerl_bench::table2::run(&args)?);
    Ok(())
}
