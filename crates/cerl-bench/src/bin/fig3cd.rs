//! Regenerates Figure 3 (c,d) of the paper (α / δ sensitivity sweeps).

fn main() -> Result<(), cerl_core::CerlError> {
    let args = cerl_bench::RunArgs::parse(std::env::args().skip(1), &[], &[]);
    cerl_bench::fig3::print_cd(&cerl_bench::fig3::run_cd(&args)?);
    Ok(())
}
