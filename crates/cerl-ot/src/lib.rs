//! # cerl-ot
//!
//! Integral probability metrics for representation balancing, with
//! gradients that plug into the `cerl-nn` tape:
//!
//! * [`sinkhorn`] — Sinkhorn solver for entropy-regularized OT (scaling
//!   form, with a log-domain fallback for small `ε`).
//! * [`wasserstein`](mod@wasserstein) — the paper's IPM (Eq. 3): Sinkhorn-Wasserstein
//!   between treated/control representation batches, with envelope
//!   gradients through the cached transport plan.
//! * [`divergence`] — debiased Sinkhorn divergence `S_ε` (Feydy et al.).
//! * [`mmd`] — linear and RBF MMD alternatives (for ablations).
//! * [`exact1d`] — exact 1-D OT used as a test oracle.

#![warn(missing_docs)]

pub mod divergence;
pub mod exact1d;
pub mod mmd;
pub mod sinkhorn;
pub mod wasserstein;

pub use divergence::sinkhorn_divergence;
pub use mmd::{linear_mmd, rbf_mmd, Bandwidth, LinearMmdOp, RbfMmdOp};
pub use sinkhorn::{sinkhorn_plan, sinkhorn_uniform, EpsilonMode, SinkhornConfig, SinkhornResult};
pub use wasserstein::{wasserstein, WassersteinOp};
