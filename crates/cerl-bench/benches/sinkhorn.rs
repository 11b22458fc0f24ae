//! Sinkhorn solver benchmarks: cost of the Wasserstein IPM per training
//! step as a function of group sizes and iteration budget. At `ε` = 0.1 ×
//! mean cost every case runs the scaling form, not the log-domain fallback.

use cerl_math::norms::pairwise_sq_dists;
use cerl_math::Matrix;
use cerl_ot::{sinkhorn_uniform, EpsilonMode, SinkhornConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn batch(n: usize, d: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(n, d, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f64 / (1u64 << 31) as f64
    })
}

fn bench_sinkhorn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sinkhorn");
    let d = 32; // representation dimension
    for &n in &[32usize, 64, 128] {
        let xt = batch(n, d, 3);
        let xc = batch(n, d, 4);
        let cost = pairwise_sq_dists(&xt, &xc);
        for &iters in &[10usize, 30, 100] {
            let cfg = SinkhornConfig {
                epsilon: 0.1,
                epsilon_mode: EpsilonMode::RelativeToMeanCost,
                iterations: iters,
            };
            group.bench_with_input(
                BenchmarkId::new(format!("n={n}"), format!("iters={iters}")),
                &(&cost, cfg),
                |bench, (cost, cfg)| bench.iter(|| sinkhorn_uniform(cost, cfg)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sinkhorn);
criterion_main!(benches);
