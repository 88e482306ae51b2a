//! Property-based tests over the core data structures and invariants,
//! spanning crates (proptest).

use proptest::prelude::*;
use sommelier::equiv::propagation::{measured_norms, segment_diff_bound_with_norms};
use sommelier::equiv::segment::find_matched_segments;
use sommelier::graph::cost::model_cost;
use sommelier::graph::serde_model;
use sommelier::graph::{Fingerprint, Model, ModelBuilder, TaskKind};
use sommelier::runtime::{execute, execute_traced};
use sommelier::tensor::{linalg, ops, Prng, Shape, Tensor};

fn tensor_strategy(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = Prng::seed_from_u64(seed);
        Tensor::gaussian(r, c, 1.0, &mut rng)
    })
}

/// A random small sequential model: seeded layer plan + seeded weights.
fn model_strategy() -> impl Strategy<Value = Model> {
    (
        2usize..24,                        // input width
        proptest::collection::vec(0u8..6, 1..6), // layer plan
        any::<u64>(),
    )
        .prop_map(|(input, plan, seed)| {
            let mut rng = Prng::seed_from_u64(seed);
            let mut b = ModelBuilder::new("prop", TaskKind::Other, Shape::vector(input));
            for op in plan {
                match op {
                    0 => {
                        let units = 1 + (rng.index(16));
                        b.dense(units, &mut rng);
                    }
                    1 => {
                        b.relu();
                    }
                    2 => {
                        b.tanh();
                    }
                    3 => {
                        let w = 1 + rng.index(3);
                        b.max_pool(w);
                    }
                    4 => {
                        b.scale(0.05, &mut rng);
                    }
                    _ => {
                        b.l2_normalize();
                    }
                };
            }
            b.build().expect("builder output validates")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(a in tensor_strategy(8), seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let b = Tensor::gaussian(a.cols(), 5, 1.0, &mut rng);
        let c = Tensor::gaussian(a.cols(), 5, 1.0, &mut rng);
        let lhs = ops::matmul(&a, &b.zip_with(&c, |x, y| x + y));
        let rhs = ops::matmul(&a, &b).zip_with(&ops::matmul(&a, &c), |x, y| x + y);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs().max(y.abs())));
        }
    }

    #[test]
    fn transpose_is_involutive(t in tensor_strategy(12)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_strategy(10)) {
        let s = ops::softmax(&t);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn relu_and_pool_are_non_expansive(a in tensor_strategy(10), seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let b = Tensor::gaussian(a.rows(), a.cols(), 1.0, &mut rng);
        // ‖relu(a) − relu(b)‖ ≤ ‖a − b‖ row-wise (1-Lipschitz).
        let ra = ops::relu(&a);
        let rb = ops::relu(&b);
        for r in 0..a.rows() {
            let d_in: f64 = a.row(r).iter().zip(b.row(r)).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            let d_out: f64 = ra.row(r).iter().zip(rb.row(r)).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            prop_assert!(d_out <= d_in + 1e-6);
        }
        let pa = ops::mean_pool(&a, 2);
        let pb = ops::mean_pool(&b, 2);
        for r in 0..a.rows() {
            let d_in: f64 = a.row(r).iter().zip(b.row(r)).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            let d_out: f64 = pa.row(r).iter().zip(pb.row(r)).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            prop_assert!(d_out <= d_in + 1e-6);
        }
    }

    #[test]
    fn spectral_norm_dominates_amplification(t in tensor_strategy(10), seed in any::<u64>()) {
        let sigma = linalg::spectral_norm_default(&t);
        let mut rng = Prng::seed_from_u64(seed);
        let v: Vec<f32> = (0..t.cols()).map(|_| rng.gaussian() as f32).collect();
        let out = linalg::matvec(&t, &v);
        prop_assert!(linalg::l2_norm(&out) <= sigma * linalg::l2_norm(&v) * (1.0 + 1e-3) + 1e-9);
    }

    #[test]
    fn random_models_execute_with_inferred_widths(m in model_strategy(), seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let x = Tensor::gaussian(3, m.input_width(), 1.0, &mut rng);
        let out = execute(&m, &x).expect("validated models execute");
        prop_assert_eq!(out.cols(), m.output_width());
        prop_assert_eq!(out.rows(), 3);
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn serde_round_trip_preserves_model_and_fingerprint(m in model_strategy()) {
        let restored = serde_model::from_json(&serde_model::to_json(&m).unwrap()).expect("round trip");
        prop_assert_eq!(Fingerprint::of_model(&m), Fingerprint::of_model(&restored));
        prop_assert_eq!(m, restored);
    }

    #[test]
    fn fingerprint_ignores_name_but_not_weights(m in model_strategy(), seed in any::<u64>()) {
        let renamed = m.renamed("completely-different");
        prop_assert_eq!(Fingerprint::of_model(&m), Fingerprint::of_model(&renamed));
        // Perturbing any linear layer's weights must change the full
        // fingerprint but never the structural one.
        let linear = m.linear_layers();
        if let Some(&id) = linear.first() {
            let mut rng = Prng::seed_from_u64(seed);
            let mut p = m.layer(id).params.clone();
            if let Some(w) = p.weight.take() {
                let noise = Tensor::gaussian(w.rows(), w.cols(), 0.5, &mut rng);
                p.weight = Some(w.zip_with(&noise, |a, b| a + b));
                let mut m2 = m.clone();
                m2.set_params(id, p).expect("same shapes");
                prop_assert_ne!(Fingerprint::of_model(&m), Fingerprint::of_model(&m2));
                prop_assert_eq!(Fingerprint::structural(&m), Fingerprint::structural(&m2));
            }
        }
    }

    #[test]
    fn cost_accounting_is_monotone_in_batch_free_structure(m in model_strategy()) {
        let c = model_cost(&m);
        prop_assert_eq!(c.param_bytes as usize, m.param_count() * 4);
        // Activations: every layer contributes its width.
        let widths: u64 = (0..m.num_layers())
            .map(|i| m.width_of(sommelier::graph::LayerId(i)) as u64 * 4)
            .sum();
        prop_assert_eq!(c.activation_bytes, widths);
    }

    #[test]
    fn measured_segment_bound_dominates_observed_difference(
        base_seed in any::<u64>(),
        noise in 0.0f64..0.3,
    ) {
        // Two same-structure models whose weights differ by `noise`; for
        // every matched segment the propagated bound must dominate the
        // observed end-to-end output difference when the segments cover
        // the whole model.
        let mut rng = Prng::seed_from_u64(base_seed);
        let host = ModelBuilder::new("h", TaskKind::Other, Shape::vector(8))
            .dense(8, &mut rng)
            .relu()
            .dense(6, &mut rng)
            .build()
            .expect("valid");
        let mut donor = host.clone();
        let mut nrng = Prng::seed_from_u64(base_seed ^ 0xabc);
        for id in host.linear_layers() {
            let mut p = host.layer(id).params.clone();
            if let Some(w) = p.weight.take() {
                let delta = Tensor::gaussian(w.rows(), w.cols(), noise, &mut nrng);
                p.weight = Some(w.zip_with(&delta, |a, b| a + b));
            }
            donor.set_params(id, p).expect("same shape");
        }
        let segs = find_matched_segments(&host, &donor, 2);
        prop_assert!(!segs.is_empty());
        let x = Tensor::gaussian(16, 8, 1.0, &mut rng);
        let trace = execute_traced(&host, &x).expect("runs");
        // The single chain covers the whole model (≤ MAX_SEGMENT_LEN),
        // so the bound applies to the final output difference.
        if segs.len() == 1 && segs[0].len() == host.num_layers() - 1 {
            let norms = measured_norms(&host, &segs[0], &trace);
            let bound = segment_diff_bound_with_norms(&host, &donor, &segs[0], &norms);
            let oa = execute(&host, &x).expect("runs");
            let ob = execute(&donor, &x).expect("runs");
            for r in 0..x.rows() {
                let d: f64 = oa.row(r).iter().zip(ob.row(r))
                    .map(|(p, q)| ((p - q) as f64).powi(2)).sum();
                prop_assert!(d.sqrt() <= bound + 1e-6, "row {} diff {} > bound {}", r, d.sqrt(), bound);
            }
        }
    }

    #[test]
    fn model_codec_never_panics_on_corrupted_input(
        m in model_strategy(),
        cut in 0usize..2000,
        junk in "\\PC{0,40}",
    ) {
        // Truncations, injections, and arbitrary garbage must yield
        // errors, never panics.
        let json = serde_model::to_json(&m).unwrap();
        if let Some(truncated) = json.get(..cut.min(json.len())) {
            let _ = serde_model::from_json(truncated);
        }
        let _ = serde_model::from_json(&junk);
        let injected = format!("{}{}", junk, json);
        let _ = serde_model::from_json(&injected);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(text in "\\PC{0,80}") {
        // Arbitrary printable strings may fail to parse, but must never
        // panic the parser or lexer.
        let _ = sommelier::query::parse(&text);
    }

    #[test]
    fn parser_never_panics_on_keyword_soup(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "SELECT", "model", "models", "CORR", "TASK", "ON", "AND",
                "WITHIN", "ORDER", "BY", "EXEC", "memory", "flops",
                "latency", "similarity", "<", "<=", "=", "%", "MB", "ms",
                "0.5", "3", "resnetish-50",
            ]),
            0..12,
        )
    ) {
        let text = words.join(" ");
        let _ = sommelier::query::parse(&text);
    }

    #[test]
    fn query_text_round_trips_through_parser(
        threshold in 0.0f64..1.0,
        mem in 1.0f64..99.0,
        n in 1usize..9,
    ) {
        let text = format!(
            "SELECT models {n} CORR some-model ON memory <= {mem:.2}% WITHIN {threshold:.3} ORDER BY flops"
        );
        let q = sommelier::query::parse(&text).expect("valid query");
        prop_assert_eq!(q.select, sommelier::query::SelectKind::Models(n));
        let expected: f64 = format!("{:.3}", threshold).parse().unwrap();
        prop_assert!((q.threshold - expected).abs() < 1e-12);
    }
}

/// Byte ranges of the integers in a model file that a hostile or
/// careless editor could change: each weight's `rows` and `cols`, each
/// layer's input indices, Dense `units` and the `Input` width.
fn integer_sites(json: &str) -> Vec<std::ops::Range<usize>> {
    let digits_at =
        |start: usize| start..start + json[start..].bytes().take_while(u8::is_ascii_digit).count();
    let mut sites = Vec::new();
    for key in ["\"rows\":", "\"cols\":", "\"units\":", "\"width\":"] {
        sites.extend(json.match_indices(key).map(|(at, _)| digits_at(at + key.len())));
    }
    for (at, _) in json.match_indices("\"inputs\":[") {
        let mut pos = at + "\"inputs\":[".len();
        while json.as_bytes()[pos] != b']' {
            let site = digits_at(pos);
            pos = site.end + usize::from(json.as_bytes()[site.end] == b',');
            sites.push(site);
        }
    }
    sites
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A model file with one integer changed goes through decode →
    /// publish → apply and ends in a typed error or success, never a
    /// panic; a model the store refuses, the engine refuses too, and
    /// writes nothing.
    #[test]
    fn hostile_model_files_never_panic_the_write_path(
        base in model_strategy(),
        site in any::<usize>(),
        change in 0u8..4,
        small in 0usize..32,
    ) {
        use sommelier::prelude::{InMemoryRepository, ModelRepository, Sommelier, SommelierConfig};
        use std::sync::Arc;

        let json = serde_model::to_json(&base).unwrap();
        let sites = integer_sites(&json);
        let site = sites[site % sites.len()].clone();
        let old: usize = json[site.clone()].parse().unwrap();
        let new = match change {
            0 => old + 1,
            1 => old.saturating_sub(1),
            2 => small,
            _ => u32::MAX as usize,
        };
        let hostile = format!("{}{new}{}", &json[..site.start], &json[site.end..]);
        let Ok(model) = serde_model::from_json(&hostile) else {
            return Ok(());
        };
        let model = model.renamed("hostile");
        let published = InMemoryRepository::new().publish("hostile", &model, false);

        let repo = Arc::new(InMemoryRepository::new());
        let config = SommelierConfig { validation_rows: 16, ..SommelierConfig::default() };
        let mut engine = Sommelier::connect(repo.clone() as Arc<dyn ModelRepository>, config);
        engine.register(&base).unwrap();
        let applied = engine.apply(sommelier::query::MutationBatch::new().register(model));
        prop_assert_eq!(published.is_ok(), applied.is_ok());
        prop_assert_eq!(repo.keys().len(), if applied.is_ok() { 2 } else { 1 });
    }
}
