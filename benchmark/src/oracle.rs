//! The benchmark's own brute-force answer to a query.
//!
//! It reads the published snapshot's raw candidate list and profiles
//! and re-derives threshold, bounds, order and limit from the
//! parameters the query text was generated from — never from the
//! engine's parser, planner, plan cache or range index.

use serde::Value;
use sommelier_index::CandidateKind;
use sommelier_query::ast::BoundValue;
use sommelier_query::{
    EngineSnapshot, FinalSelection, Query, QueryResult, RefSpec, ResourceDim, SelectKind,
};
use sommelier_runtime::ResourceProfile;
use sommelier_serving::daemon::client::Reply;

/// What a correct reply carries, in order: `(key, score)`.
pub type Expected = Vec<(String, f64)>;

pub fn dim_of(p: &ResourceProfile, dim: ResourceDim) -> f64 {
    match dim {
        ResourceDim::Memory => p.memory_mb,
        ResourceDim::Flops => p.gflops,
        ResourceDim::Latency => p.latency_ms,
    }
}

/// The expected answer to `query` against `snap`. `None` when the
/// reference is not indexed (the engine must then refuse the query).
pub fn expected(snap: &EngineSnapshot, query: &Query) -> Option<Expected> {
    let reference = match &query.reference {
        RefSpec::Named(key) => key.clone(),
        RefSpec::Task(task) => snap.default_refs.get(task)?.clone(),
    };
    if !snap.semantic.contains(&reference) {
        return None;
    }
    let ref_profile = *snap.resource.profile_of(&reference)?;
    let limit = match query.select {
        SelectKind::Model => 1,
        SelectKind::Models(n) => n,
    };
    // Every predicate is an upper bound; a percentage is of the
    // reference's own usage in that dimension.
    let bounds: Vec<(ResourceDim, f64)> = query
        .predicates
        .iter()
        .map(|p| {
            let bound = match p.value {
                BoundValue::RelativePercent(pct) => dim_of(&ref_profile, p.dim) * pct / 100.0,
                BoundValue::Absolute(v) => v,
            };
            (p.dim, bound)
        })
        .collect();
    let admits = |p: &ResourceProfile| bounds.iter().all(|&(dim, bound)| dim_of(p, dim) <= bound);

    let mut rows: Vec<(String, f64, ResourceProfile)> = snap
        .semantic
        .candidates_of(&reference)
        .iter()
        .filter(|c| c.score >= query.threshold && c.key != reference)
        .filter_map(|c| {
            // A synthesized model is the reference with a segment
            // swapped, so it costs what the reference costs.
            let profile = match c.kind {
                CandidateKind::Synthesized { .. } => ref_profile,
                _ => *snap.resource.profile_of(&c.key)?,
            };
            admits(&profile).then(|| (c.key.clone(), c.score, profile))
        })
        .collect();
    // Stable sorts: ties keep the candidate list's own order.
    match query.selection {
        FinalSelection::Similarity => rows.sort_by(|a, b| b.1.total_cmp(&a.1)),
        FinalSelection::Memory => rows.sort_by(|a, b| a.2.memory_mb.total_cmp(&b.2.memory_mb)),
        FinalSelection::Flops => rows.sort_by(|a, b| a.2.gflops.total_cmp(&b.2.gflops)),
        FinalSelection::Latency => rows.sort_by(|a, b| a.2.latency_ms.total_cmp(&b.2.latency_ms)),
    }
    rows.truncate(limit);
    Some(
        rows.into_iter()
            .map(|(key, score, _)| (key, score))
            .collect(),
    )
}

/// Whether an in-process result set is the expected one.
pub fn results_match(results: &[QueryResult], expected: &Expected) -> bool {
    results.len() == expected.len()
        && results
            .iter()
            .zip(expected)
            .all(|(r, (key, score))| &r.key == key && r.score == *score)
}

/// Whether a daemon reply is `ok`, was served from `epoch`, and carries
/// exactly the expected keys and scores in order. A shed, refused or
/// failed request is simply not `ok`.
pub fn reply_matches(reply: &Reply, epoch: u64, expected: &Expected) -> bool {
    if !reply.ok || reply.body.get_field("epoch") != Some(&Value::UInt(epoch)) {
        return false;
    }
    let Some(Value::Seq(results)) = reply.body.get_field("results") else {
        return false;
    };
    results.len() == expected.len()
        && results.iter().zip(expected).all(|(r, (key, score))| {
            matches!(r.get_field("key"), Some(Value::Str(k)) if k == key)
                && r.get_field("score") == Some(&Value::Float(*score))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{curate_zoo, query_mix, synthetic_index, synthetic_refs, Mix};
    use sommelier_query::{Sommelier, SommelierConfig};
    use sommelier_repo::InMemoryRepository;
    use std::sync::Arc;

    /// A small real zoo, analysed and indexed by the engine itself.
    fn real_engine() -> (Sommelier, Vec<String>) {
        let zoo = curate_zoo(21, 2, 2, 2);
        let mut cfg = SommelierConfig {
            validation_rows: 64,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 8;
        let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), cfg);
        let names = zoo.iter().map(|m| m.name.clone()).collect();
        for model in &zoo {
            engine.register(model).unwrap();
        }
        (engine, names)
    }

    #[test]
    fn oracle_agrees_with_the_reader_on_a_real_zoo() {
        let (engine, names) = real_engine();
        let reader = engine.reader();
        let snap = reader.snapshot();
        let mut answered = 0;
        for reference in &names {
            for selection in [
                FinalSelection::Similarity,
                FinalSelection::Memory,
                FinalSelection::Flops,
                FinalSelection::Latency,
            ] {
                for (limit, pct) in [(1, 100.0), (3, 150.0), (8, 1000.0)] {
                    let query = Query::corr(reference.clone())
                        .within(0.0)
                        .top(limit)
                        .order_by(selection)
                        .memory_at_most_frac(pct / 100.0)
                        .latency_at_most_ms(1e9);
                    let want = expected(&snap, &query).expect("reference is indexed");
                    let got = reader.query_ast(&query).unwrap();
                    assert!(results_match(&got, &want), "{query:?}: {got:?} vs {want:?}");
                    answered += got.len();
                }
            }
        }
        assert!(answered > 0, "the zoo must produce non-empty answers");
    }

    #[test]
    fn statically_empty_plan_is_empty_in_both() {
        let (engine, names) = real_engine();
        let reader = engine.reader();
        let snap = reader.snapshot();
        // `MODELS 0` cannot be written in the query language, only built.
        let mut query = Query::corr(names[0].clone()).within(0.0);
        query.select = SelectKind::Models(0);
        assert_eq!(expected(&snap, &query), Some(Vec::new()));
        assert!(reader.query_ast(&query).unwrap().is_empty());
        // A threshold above every score.
        let query = Query::corr(names[0].clone()).within(1.5);
        assert_eq!(expected(&snap, &query), Some(Vec::new()));
        assert!(reader.query_ast(&query).unwrap().is_empty());
        // An unknown reference is refused, and the oracle says so.
        let query = Query::corr("no-such-model");
        assert_eq!(expected(&snap, &query), None);
        assert!(reader.query_ast(&query).is_err());
    }

    #[test]
    fn oracle_agrees_with_the_reader_on_the_synthetic_fixture() {
        let (semantic, resource) = synthetic_index(5, 400, 16);
        let snap = EngineSnapshot {
            semantic,
            resource,
            default_refs: Default::default(),
            epoch: 1,
        };
        // The engine side: the same indices behind a real reader.
        let dir =
            std::env::temp_dir().join(format!("sommelier-benchmark-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.somb");
        sommelier_index::persist::save_binary(&snap.semantic, &snap.resource, 1, &path).unwrap();
        let engine = Sommelier::connect_with_indices(
            Arc::new(InMemoryRepository::new()),
            SommelierConfig::default(),
            &path,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut non_empty = 0;
        for case in query_mix(5, &synthetic_refs(5, 400), 20..56, 300, Mix::Varied) {
            let want = expected(&snap, &case.query).unwrap();
            let got = engine.query(&case.text).unwrap();
            assert!(
                results_match(&got, &want),
                "{}: {got:?} vs {want:?}",
                case.text
            );
            non_empty += usize::from(!got.is_empty());
        }
        assert!(
            non_empty > 100,
            "only {non_empty} of 300 queries returned anything"
        );
    }
}
