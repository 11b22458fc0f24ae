//! # cerl-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! CERL paper.
//!
//! Binaries (`cargo run -p cerl-bench --release --bin <name> [-- flags]`):
//!
//! | binary   | reproduces | notes |
//! |----------|------------|-------|
//! | `table1` | Table I    | News + BlogCatalog, 3 shift scenarios, M=500 |
//! | `table2` | Table II   | synthetic, strategies + 3 ablations, M=10000 |
//! | `fig3ab` | Fig. 3 a,b | 5 domains, memory budgets vs ideal; `--ablate-cosine` adds the in-text ablation |
//! | `fig3cd` | Fig. 3 c,d | α and δ sensitivity sweeps |
//!
//! Common flags: `--quick`, `--standard` (default), `--full`, `--reps N`,
//! `--seed S`. Results are printed as aligned tables and dumped to
//! `results/*.json`.

pub mod experiments;
pub mod fig3;
pub mod report;
pub mod scale;
pub mod table1;
pub mod table2;

pub use scale::{RunArgs, Scale};
