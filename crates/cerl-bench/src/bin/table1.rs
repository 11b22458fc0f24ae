//! Regenerates Table I of the paper. See `cerl-bench` crate docs for flags.

fn main() -> Result<(), cerl_core::CerlError> {
    let args = cerl_bench::RunArgs::parse(std::env::args().skip(1), &[], &[]);
    cerl_bench::table1::print(&cerl_bench::table1::run(&args)?);
    Ok(())
}
