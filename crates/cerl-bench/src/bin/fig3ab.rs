//! Regenerates Figure 3 (a,b) of the paper (5 sequential domains, memory
//! budgets vs the all-data ideal). `--ablate-cosine` adds the in-text
//! cosine-normalization ablation series.

fn main() -> Result<(), cerl_core::CerlError> {
    let args = cerl_bench::RunArgs::parse(std::env::args().skip(1), &["--ablate-cosine"], &[]);
    cerl_bench::fig3::print_ab(&cerl_bench::fig3::run_ab(&args)?);
    Ok(())
}
