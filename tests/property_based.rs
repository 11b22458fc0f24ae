//! Property-based tests (proptest) on cross-crate invariants.

use cerl::core::config::ActivationKind;
use cerl::core::heads::OutcomeHeads;
use cerl::core::repr::ReprNet;
use cerl::data::{OutcomeScaler, Standardizer};
use cerl::math::correlation::{hub_first_column, hub_toeplitz, toeplitz};
use cerl::math::stats::quantile;
use cerl::math::Matrix;
use cerl::nn::{Graph, ParamStore};
use cerl::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

mod common;

/// One trained engine shared by the snapshot properties (training inside
/// every proptest case would dominate the suite's runtime), plus its
/// restored-from-bytes replica and covariate dimension.
fn snapshot_fixture() -> &'static (CerlEngine, CerlEngine, usize) {
    static FIXTURE: OnceLock<(CerlEngine, CerlEngine, usize)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 400,
                ..SyntheticConfig::small()
            },
            77,
        );
        let stream = DomainStream::synthetic(&gen, 2, 0, 77);
        let d_in = stream.domain(0).train.dim();
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 6;
        cfg.memory_size = 80;
        let mut engine = CerlEngineBuilder::new(cfg)
            .seed(77)
            .build()
            .expect("valid config");
        for d in 0..2 {
            engine
                .observe(&stream.domain(d).train, &stream.domain(d).val)
                .expect("well-formed synthetic domains");
        }
        let bytes = engine
            .save_bytes_binary(SnapshotPayload::F64)
            .expect("trained engine saves");
        let restored = CerlEngine::load_bytes(&bytes).expect("own bytes load");
        (engine, restored, d_in)
    })
}

/// Tape-side forward of one model: representations, then `(ŷ₀, ŷ₁)`.
type Reference = Box<dyn Fn(&Matrix) -> (Matrix, Vec<f64>, Vec<f64>)>;

/// A random trained-looking model, served from its compiled plan by an
/// engine restored from a hand-built snapshot document (every float
/// inline in the meta document, an empty payload section), plus the tape
/// forward of the same weights.
fn plan_and_tape(
    seed: u64,
    cosine: bool,
    depth: usize,
    wide: bool,
    act: usize,
) -> (CerlEngine, Reference) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d_in = if wide {
        rng.gen_range(257..600)
    } else {
        rng.gen_range(1..40)
    };
    let mut width = || rng.gen_range(1..40);
    let mut cfg = CerlConfig::quick_test();
    cfg.ablation.cosine_norm = cosine;
    cfg.net.repr_hidden = (0..depth).map(|_| width()).collect();
    cfg.net.repr_dim = width();
    cfg.net.head_hidden = (0..depth - 1).map(|_| width()).collect();
    cfg.net.activation = [
        ActivationKind::Identity,
        ActivationKind::Relu,
        ActivationKind::Elu,
        ActivationKind::Sigmoid,
        ActivationKind::Tanh,
    ][act];

    let mut store = ParamStore::new();
    let repr = ReprNet::new(&mut store, &mut rng, d_in, &cfg.net, cosine, "g");
    let heads = OutcomeHeads::new(&mut store, &mut rng, cfg.net.repr_dim, &cfg.net, "h");
    for id in store.ids() {
        for v in store.value_mut(id).as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
    }
    let fit = Matrix::from_fn(50, d_in, |_, j| {
        rng.gen_range(-2.0..2.0) * (1 + j % 5) as f64
    });
    let x_std = Standardizer::try_fit_clipped(&fit, 8.0).expect("non-empty fit");
    let y: Vec<f64> = (0..50).map(|_| rng.gen_range(-10.0..30.0)).collect();
    let y_scale = OutcomeScaler::try_fit(&y).expect("non-empty fit");

    let json = |v: Result<String, serde_json::Error>| v.expect("serializes");
    let doc = format!(
        r#"{{"seed":{seed},"stage":1,"config":{},"shard_map":null,"shard_index":null,"model":{{"store":{},"repr":{},"heads":{},"x_std":{},"y_scale":{},"d_in":{d_in},"stages_trained":1}},"memory":null}}"#,
        json(serde_json::to_string(&cfg)),
        json(serde_json::to_string(&store)),
        json(serde_json::to_string(&repr)),
        json(serde_json::to_string(&heads)),
        json(serde_json::to_string(&x_std)),
        json(serde_json::to_string(&y_scale)),
    );
    let no_arrays = 0u32.to_le_bytes();
    let engine =
        CerlEngine::load_bytes(&common::wrap(&doc, &no_arrays)).expect("hand-built snapshot loads");
    let reference = move |x: &Matrix| {
        let mut g = Graph::new();
        let xin = g.input(x_std.try_transform(x).expect("right width"));
        let r = repr.forward(&mut g, &store, xin);
        let (y0, y1) = heads.forward_both(&mut g, &store, r);
        (
            g.value(r).clone(),
            y_scale.inverse(&g.value(y0).col(0)),
            y_scale.inverse(&g.value(y1).col(0)),
        )
    };
    (engine, Box::new(reference))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- matrices -----------------------------------------------------

    #[test]
    fn transpose_is_involutive(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        let mut state = seed;
        let m = Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        });
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(n in 1usize..8, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b = Matrix::from_fn(n, n, |_, _| next());
        let c = Matrix::from_fn(n, n, |_, _| next());
        let left = cerl::math::matmul(&a, &b.add(&c));
        let right = cerl::math::matmul(&a, &b).add(&cerl::math::matmul(&a, &c));
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    // ---- correlation construction --------------------------------------

    #[test]
    fn hub_column_is_monotone_and_bounded(
        d in 2usize..40,
        rmax in 0.3f64..0.9,
        gap in 0.0f64..0.25,
        gamma in 0.2f64..3.0,
    ) {
        let rmin = (rmax - gap).max(0.01);
        let col = hub_first_column(d, rmax, rmin, gamma);
        prop_assert_eq!(col.len(), d);
        prop_assert_eq!(col[0], 1.0);
        for w in col[1..].windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12, "not monotone: {:?}", col);
        }
        for &v in &col[1..] {
            prop_assert!(v >= rmin - 1e-12 && v <= rmax + 1e-12);
        }
    }

    #[test]
    fn toeplitz_matrices_are_symmetric_with_constant_diagonals(
        d in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let col: Vec<f64> = (0..d).map(|i| {
            if i == 0 { 1.0 } else {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 32) as f64) * 0.5
            }
        }).collect();
        let m = toeplitz(&col);
        for i in 0..d {
            for j in 0..d {
                prop_assert_eq!(m[(i, j)], m[(j, i)]);
                prop_assert_eq!(m[(i, j)], col[i.abs_diff(j)]);
            }
        }
    }

    #[test]
    fn hub_toeplitz_stays_in_correlation_range(
        d in 2usize..25,
        rmax in 0.2f64..0.8,
    ) {
        let m = hub_toeplitz(d, rmax, 0.1, 1.0);
        for i in 0..d {
            prop_assert_eq!(m[(i, i)], 1.0);
            for j in 0..d {
                prop_assert!(m[(i, j)].abs() <= 1.0 + 1e-12);
            }
        }
    }

    // ---- statistics ----------------------------------------------------

    #[test]
    fn quantile_brackets_data(mut xs in prop::collection::vec(-1e3f64..1e3, 1..60), q in 0.0f64..1.0) {
        let v = quantile(&xs, q);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
    }

    // ---- metrics ---------------------------------------------------------

    #[test]
    fn pehe_is_a_metric_like_quantity(
        ite in prop::collection::vec(-10.0f64..10.0, 1..50),
        offset in -5.0f64..5.0,
    ) {
        let shifted: Vec<f64> = ite.iter().map(|v| v + offset).collect();
        let m = EffectMetrics::from_ite(&ite, &shifted);
        // Constant offset: PEHE equals |offset| exactly, as does ATE error.
        prop_assert!((m.sqrt_pehe - offset.abs()).abs() < 1e-9);
        prop_assert!((m.ate_error - offset.abs()).abs() < 1e-9);
        // Self-comparison is exactly zero.
        let z = EffectMetrics::from_ite(&ite, &ite);
        prop_assert_eq!(z.sqrt_pehe, 0.0);
        prop_assert_eq!(z.ate_error, 0.0);
    }

    // ---- autodiff -------------------------------------------------------

    #[test]
    fn graph_linear_identities_hold(n in 1usize..6, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let a_val = Matrix::from_fn(n, n, |_, _| next());
        let mut g = Graph::new();
        let a = g.input(a_val.clone());
        let double_via_add = g.add(a, a);
        let double_via_scale = g.scale(a, 2.0);
        prop_assert!(g.value(double_via_add).approx_eq(g.value(double_via_scale), 1e-12));

        // sum(a + a) == 2 sum(a)
        let s1 = g.sum(double_via_add);
        prop_assert!((g.scalar(s1) - 2.0 * a_val.sum()).abs() < 1e-9);
    }

    #[test]
    fn gradient_of_sum_is_ones(rows in 1usize..6, cols in 1usize..6) {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(rows, cols, 0.5));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let loss = g.sum(wp);
        let grads = g.backward(loss);
        let gw = grads.param_grad(w).unwrap();
        prop_assert!(gw.approx_eq(&Matrix::ones(rows, cols), 1e-12));
    }

    // ---- model snapshots --------------------------------------------------

    #[test]
    fn snapshot_roundtrip_predicts_bitwise_identically_on_random_covariates(
        rows in 1usize..40,
        seed in any::<u64>(),
        scale in 0.1f64..10.0,
    ) {
        let (engine, restored, d_in) = snapshot_fixture();
        let mut state = seed;
        let x = Matrix::from_fn(rows, *d_in, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * scale
        });
        let a = engine.predict_ite(&x).expect("engine predicts");
        let b = restored.predict_ite(&x).expect("restored predicts");
        prop_assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(&b) {
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
        // Potential outcomes and embeddings round-trip identically too.
        let (a0, a1) = engine.predict_potential_outcomes(&x).expect("engine predicts");
        let (b0, b1) = restored.predict_potential_outcomes(&x).expect("restored predicts");
        prop_assert_eq!(a0, b0);
        prop_assert_eq!(a1, b1);
    }

    #[test]
    fn snapshot_rejects_every_foreign_format_version(bump in 1u32..1000) {
        let (engine, _, _) = snapshot_fixture();
        let mut bytes = engine
            .save_bytes_binary(SnapshotPayload::F64)
            .expect("trained engine saves");
        bytes[8..12].copy_from_slice(&SNAPSHOT_FORMAT_VERSION.wrapping_add(bump).to_le_bytes());
        match CerlEngine::load_bytes(&bytes) {
            Err(CerlError::Snapshot(SnapshotError::UnsupportedVersion { found, supported })) => {
                prop_assert_eq!(found, SNAPSHOT_FORMAT_VERSION.wrapping_add(bump));
                prop_assert_eq!(supported, SNAPSHOT_FORMAT_VERSION);
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other.map(|_| ())),
        }
    }

    /// The compiled inference plan against its reference, the training
    /// forward on the tape (`ReprNet::forward` + `OutcomeHeads::forward_both`,
    /// then the outcome rescale), bit for bit. Random models cover cosine
    /// and plain output layers, 1–3 hidden layers, every activation,
    /// widths off the kernel's 16-column panels, inputs wider than one
    /// 256-deep kernel block, 0–37 rows and covariates of extreme
    /// magnitude.
    #[test]
    fn compiled_plan_is_bitwise_equal_to_the_tape_forward(
        seed in any::<u64>(),
        cosine in any::<bool>(),
        depth in 1usize..4,
        wide in any::<bool>(),
        rows in 0usize..38,
        act in 0usize..5,
    ) {
        let (engine, reference) = plan_and_tape(seed, cosine, depth, wide, act);
        let d_in = engine.covariate_dim().expect("restored engines know their width");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let extremes = [1e300, -1e300, 1e-300, -0.0, 0.0, 1e12, -7.5];
        let x = Matrix::from_fn(rows, d_in, |_, _| {
            if rng.gen_bool(0.2) {
                extremes[rng.gen_range(0..extremes.len())]
            } else {
                rng.gen_range(-3.0..3.0)
            }
        });
        let (r_want, y0_want, y1_want) = reference(&x);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let r = engine.embed(&x).expect("embeds");
        prop_assert_eq!(bits(r.as_slice()), bits(r_want.as_slice()));
        let (y0, y1) = engine.predict_potential_outcomes(&x).expect("predicts");
        prop_assert_eq!(bits(&y0), bits(&y0_want));
        prop_assert_eq!(bits(&y1), bits(&y1_want));
        let ite: Vec<f64> = y1_want.iter().zip(&y0_want).map(|(a, b)| a - b).collect();
        prop_assert_eq!(bits(&engine.predict_ite(&x).expect("predicts")), bits(&ite));
    }

    // ---- dataset handling -------------------------------------------------

    // ---- latency histogram ------------------------------------------------

    #[test]
    fn histogram_quantiles_are_ordered_and_land_in_their_buckets(
        samples in prop::collection::vec(0u64..30_000_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = LatencyHistogram::new();
        for &nanos in &samples {
            h.record(Duration::from_nanos(nanos));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);

        // Quantiles are monotone in q...
        let s = h.snapshot();
        prop_assert!(s.p50 <= s.p95, "p50 {:?} > p95 {:?}", s.p50, s.p95);
        prop_assert!(s.p95 <= s.p99, "p95 {:?} > p99 {:?}", s.p95, s.p99);

        // ...and each reported quantile lies inside the bounds of the
        // bucket its target-rank sample landed in (the geometric-midpoint
        // representative never escapes its bucket).
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let total = sorted.len() as u64;
        for q in [q, 0.50, 0.95, 0.99, 1.0] {
            let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
            let rank_sample = sorted[(target - 1) as usize];
            let bucket = LatencyHistogram::bucket_for(rank_sample);
            let (lower, upper) = LatencyHistogram::bucket_bounds(bucket);
            let reported = h.quantile(q).expect("histogram is non-empty");
            prop_assert!(
                reported >= lower && reported <= upper,
                "q={q}: reported {reported:?} outside bucket {bucket} bounds [{lower:?}, {upper:?}] (rank sample {rank_sample} ns)"
            );
        }
    }

    #[test]
    fn dataset_select_preserves_alignment(n in 4usize..40, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let x = Matrix::from_fn(n, 3, |_, _| next());
        let t: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ds = CausalDataset::try_new(x, t.clone(), y.clone(), y.clone(), y.clone()).unwrap();
        let idx: Vec<usize> = (0..n).rev().collect();
        let sel = ds.select(&idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(sel.y[k], y[i]);
            prop_assert_eq!(sel.t[k], t[i]);
        }
        prop_assert_eq!(sel.true_ate(), ds.true_ate());
    }
}

// ---- seeded mutation of the snapshot decoder -----------------------------

/// Seeded random bit flips per container, on top of the systematic
/// mutations (every header bit, every boundary cut, every length field).
const SNAPSHOT_BIT_FLIPS: usize = 256;

/// A length or count field of a container: byte offset, width (4 or 8),
/// current value.
type LenField = (usize, usize, u64);

fn read_le(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(buf)
}

/// Section boundaries and length fields of a well-formed container: the
/// header fields, the section table, and the payload's array count and
/// per-array element counts.
fn container_layout(bin: &[u8]) -> (Vec<usize>, Vec<LenField>) {
    let meta_len = read_le(bin, 24, 8) as usize;
    let payload_at = 44 + meta_len;
    let width = if bin[12] == 0 { 8 } else { 4 };
    let mut cuts = vec![0, 8, 12, 13, 16, 20, 24, 32, 36, 44, payload_at];
    let mut fields = vec![
        (16, 4, read_le(bin, 16, 4)),
        (24, 8, meta_len as u64),
        (36, 8, read_le(bin, 36, 8)),
        (payload_at, 4, read_le(bin, payload_at, 4)),
    ];
    let mut at = payload_at + 4;
    for _ in 0..read_le(bin, payload_at, 4) {
        let n = read_le(bin, at, 8);
        cuts.push(at);
        fields.push((at, 8, n));
        at += 8 + n as usize * width;
    }
    assert_eq!(at, bin.len(), "layout walk covers the container");
    cuts.push(bin.len());
    (cuts, fields)
}

/// Every mutation the decoder must survive, as `(label, bytes)`.
fn container_mutations(bin: &[u8], rng: &mut StdRng) -> Vec<(String, Vec<u8>)> {
    let (cuts, fields) = container_layout(bin);
    let mut out = Vec::new();
    let flip = |at: usize, bit: u8, out: &mut Vec<(String, Vec<u8>)>| {
        let mut m = bin.to_vec();
        m[at] ^= 1 << bit;
        out.push((format!("flip byte {at} bit {bit}"), m));
    };
    for at in 0..44 {
        for bit in 0..8 {
            flip(at, bit, &mut out);
        }
    }
    for _ in 0..SNAPSHOT_BIT_FLIPS {
        flip(
            rng.gen_range(0..bin.len()),
            rng.gen_range(0..8usize) as u8,
            &mut out,
        );
    }
    for &cut in &cuts {
        for at in [cut.saturating_sub(1), cut, cut + 1] {
            if at < bin.len() {
                out.push((format!("cut at {at}"), bin[..at].to_vec()));
            }
        }
    }
    for &(at, width, len) in &fields {
        let max = if width == 4 {
            u64::from(u32::MAX)
        } else {
            u64::MAX
        };
        for v in [0, 1, len.wrapping_sub(1) & max, (len + 1) & max, max] {
            let mut m = bin.to_vec();
            m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
            out.push((format!("field at {at} = {v}"), m));
        }
    }
    // Swapped sections: bodies only, then bodies and table entries.
    let (header, bodies) = bin.split_at(44);
    let (meta, payload) = bodies.split_at(read_le(bin, 24, 8) as usize);
    let mut swapped = header.to_vec();
    swapped.extend_from_slice(payload);
    swapped.extend_from_slice(meta);
    out.push(("swapped bodies".into(), swapped.clone()));
    swapped[20..32].copy_from_slice(&header[32..44]);
    swapped[32..44].copy_from_slice(&header[20..32]);
    out.push(("swapped sections".into(), swapped));
    out
}

/// The snapshot decoder fails closed on hostile bytes: every seeded
/// mutation of a valid F64 and a valid F32 container ends in a typed
/// error or a valid decode (which must then restore or fail typed),
/// never a panic.
#[test]
fn mutated_snapshot_containers_decode_or_fail_typed_never_panic() {
    let (engine, _, _) = snapshot_fixture();
    let mut rng = StdRng::seed_from_u64(2025);
    let mut cases = 0;
    for payload in [SnapshotPayload::F64, SnapshotPayload::F32] {
        let bin = engine
            .save_bytes_binary(payload)
            .expect("trained engine saves");
        for (label, bytes) in container_mutations(&bin, &mut rng) {
            let outcome = std::panic::catch_unwind(|| {
                ModelSnapshot::from_bytes(&bytes).and_then(CerlEngine::from_snapshot)
            });
            assert!(outcome.is_ok(), "{payload:?} {label}: the decoder panicked");
            cases += 1;
        }
    }
    assert!(cases > 2 * (44 * 8 + SNAPSHOT_BIT_FLIPS), "{cases} cases");
}

// The scatter-gather contract gets its own, larger case budget: the
// cross-shard merge path must hold for *arbitrary* topologies and row
// interleavings, and the CI release job runs this suite with optimized
// merge code (`cargo test --release -q --test property_based`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- cross-shard scatter-gather ---------------------------------------

    /// For an arbitrary domain→shard map and an arbitrary per-row domain
    /// interleaving, a fleet of shards all holding the same model answers
    /// a mixed-domain scatter request bitwise identically to one
    /// unsharded engine's `predict_ite_batch` over the same rows.
    #[test]
    fn scatter_gather_is_bitwise_identical_to_an_unsharded_engine(
        shards in 1usize..4,
        rows in 1usize..48,
        map_seed in any::<u64>(),
        tag_seed in any::<u64>(),
        scale in 0.1f64..10.0,
    ) {
        let (engine, _, d_in) = snapshot_fixture();
        let mut state = map_seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };

        // Arbitrary topology: 1..=6 domains with arbitrary (sparse,
        // non-contiguous, strictly increasing — hence unique) ids, each
        // assigned to an arbitrary shard.
        let domain_count = 1 + (next() % 6) as usize;
        let mut domain_id = next() % 3;
        let pairs: Vec<(u64, usize)> = (0..domain_count)
            .map(|_| {
                let pair = (domain_id, next() as usize % shards);
                domain_id += 1 + next() % 4;
                pair
            })
            .collect();
        let map = ShardMap::from_pairs(shards, &pairs).expect("generated pairs are in range");
        let router = ShardRouter::new(
            (0..shards).map(|_| engine.clone()).collect(),
            map.clone(),
        )
        .expect("map and fleet sizes agree");

        // Arbitrary rows, each tagged with an arbitrary mapped domain.
        let mut tag_state = tag_seed;
        let mut next_tag = move || {
            tag_state = tag_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            tag_state >> 33
        };
        let tags: Vec<u64> = (0..rows)
            .map(|_| map.assignments()[next_tag() as usize % map.len()].domain)
            .collect();
        let mut x_state = tag_seed ^ map_seed;
        let x = Matrix::from_fn(rows, *d_in, |_, _| {
            x_state = x_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x_state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * scale
        });

        let response = router
            .predict_ite_scatter_versioned(&tags, &x)
            .expect("every tag is mapped");
        let expected: Vec<f64> = engine
            .predict_ite_batch(std::slice::from_ref(&x))
            .expect("engine serves the same rows")
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(response.ite.len(), expected.len());
        for (i, (a, b)) in response.ite.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "row {} (domain {}) diverged from the unsharded engine", i, tags[i]
            );
        }

        // The fan-out shape is exactly the set of shards the tags hit,
        // ascending, each pinned at version 1 (nothing ever swapped).
        let mut hit: Vec<usize> = tags
            .iter()
            .map(|&d| map.shard_for(d).expect("tag was drawn from the map"))
            .collect();
        hit.sort_unstable();
        hit.dedup();
        let expected_versions: Vec<(usize, u64)> = hit.into_iter().map(|s| (s, 1)).collect();
        prop_assert_eq!(response.shard_versions, expected_versions);
    }

    // ---- replicated domains: the policy contract --------------------------

    /// For an arbitrary domain→replica-set map (arbitrary non-empty
    /// replica subsets, including single-replica domains mixed in) and
    /// **any** route policy — the shipped three plus a deliberately
    /// wrong version pin — a fleet of identical shards answers both
    /// direct and mixed-domain requests row-for-row bitwise identically
    /// to one unsharded reference engine. This is the [`RoutePolicy`]
    /// contract: a policy chooses placement, never results.
    #[test]
    fn any_replica_map_under_any_policy_is_bitwise_identical_to_the_reference(
        shards in 2usize..4,
        rows in 1usize..32,
        map_seed in any::<u64>(),
        tag_seed in any::<u64>(),
        policy_idx in 0usize..4,
        scale in 0.1f64..10.0,
    ) {
        let (engine, _, d_in) = snapshot_fixture();
        let mut state = map_seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };

        // Arbitrary topology: each domain gets an arbitrary non-empty
        // subset of the fleet as its replica-set (bitmask draw).
        let domain_count = 1 + (next() % 5) as usize;
        let mut domain_id = next() % 3;
        let entries: Vec<(u64, Vec<usize>)> = (0..domain_count)
            .map(|_| {
                let mask = 1 + next() as usize % ((1 << shards) - 1);
                let replicas: Vec<usize> =
                    (0..shards).filter(|s| mask >> s & 1 == 1).collect();
                let entry = (domain_id, replicas);
                domain_id += 1 + next() % 4;
                entry
            })
            .collect();
        let map = ShardMap::from_replicas(shards, &entries)
            .expect("generated replica ids are in range");
        let router = ShardRouter::new(
            (0..shards).map(|_| engine.clone()).collect(),
            map.clone(),
        )
        .expect("map and fleet sizes agree");
        let policy: Arc<dyn RoutePolicy> = match policy_idx {
            0 => Arc::new(LeastLoaded),
            1 => Arc::new(RoundRobin::new()),
            2 => Arc::new(VersionPinned::new(1)),
            // A pin no replica publishes must degrade to the primary,
            // not change results or fail requests.
            _ => Arc::new(VersionPinned::new(999)),
        };
        router.set_route_policy(Arc::clone(&policy));

        // Arbitrary rows tagged with arbitrary mapped domains.
        let mut tag_state = tag_seed;
        let mut next_tag = move || {
            tag_state = tag_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            tag_state >> 33
        };
        let tags: Vec<u64> = (0..rows)
            .map(|_| map.assignments()[next_tag() as usize % map.len()].domain)
            .collect();
        let mut x_state = tag_seed ^ map_seed;
        let x = Matrix::from_fn(rows, *d_in, |_, _| {
            x_state = x_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x_state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * scale
        });
        let expected = engine.predict_ite(&x).expect("reference serves the rows");

        // Mixed-domain scatter: bitwise the reference, policy or not.
        let response = router
            .predict_ite_scatter_versioned(&tags, &x)
            .expect("every tag is mapped");
        for (i, (a, b)) in response.ite.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "row {} (domain {}, policy {}) diverged from the reference",
                i, tags[i], policy.name()
            );
        }
        // Every placement the policy made stayed inside its domain's
        // replica-set; the trail exists iff a replicated domain took part.
        for &(domain, shard) in &response.placements {
            prop_assert!(
                map.replicas_for(domain).expect("placed domain is mapped").contains(shard),
                "policy {} placed domain {} outside its replica-set (shard {})",
                policy.name(), domain, shard
            );
        }
        let touched_replicated = tags
            .iter()
            .any(|d| map.replicas_for(*d).expect("tag was drawn from the map").len() > 1);
        prop_assert_eq!(!response.placements.is_empty(), touched_replicated);

        // Direct single-domain serving under the same policy: also bitwise.
        let domain = tags[0];
        let direct = router.predict_ite(domain, &x).expect("domain is mapped");
        for (a, b) in direct.iter().zip(&expected) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
