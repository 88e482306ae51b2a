//! Seeded inputs: the synthetic serving index, the query mixes, the
//! churn model pair and the curate zoo. Everything here is a pure
//! function of `--seed`; the program under test sees only the results.

use std::collections::HashSet;

use sommelier_graph::{Fingerprint, Model, TaskKind};
use sommelier_index::lsh::LshConfig;
use sommelier_index::semantic::SemanticIndexConfig;
use sommelier_index::{CandidateKind, CandidateRecord, ResourceIndex, SemanticIndex};
use sommelier_query::ast::BoundValue;
use sommelier_query::{FinalSelection, Query, RefSpec, ResourceDim, ResourcePredicate, SelectKind};
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::{mix64, Prng};
use sommelier_zoo::families::Family;
use sommelier_zoo::finetune;
use sommelier_zoo::series::{build_series, synthetic_repository};

use crate::oracle::dim_of;

fn key_of(i: usize) -> String {
    format!("hub/family-{:02}/model-{:05}", i % 37, i)
}

/// `k` distinct values below `n`, in draw order. Rejection sampling:
/// `k` is a handful and `n` thousands, where `Prng::sample_indices`
/// would shuffle all `n` for every key.
fn distinct(rng: &mut Prng, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.index(n);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// A model a query may name as its reference: its key, and the profile
/// its relative bounds are percentages of.
pub type Reference = (String, ResourceProfile);

/// The keys and profiles of a `keys`-model [`synthetic_index`].
pub fn synthetic_refs(seed: u64, keys: usize) -> Vec<Reference> {
    let mut rng = Prng::seed_from_u64(mix64(&[seed, 0x9f0f]));
    (0..keys)
        .map(|i| {
            let profile = ResourceProfile {
                memory_mb: 32.0 + rng.uniform() * 4096.0,
                gflops: 0.5 + rng.uniform() * 40.0,
                latency_ms: 1.0 + rng.uniform() * 90.0,
            };
            (key_of(i), profile)
        })
        .collect()
}

/// The seed the synthetic index draws its LSH hyperplanes from. It is
/// the system's configuration, not an input (the engine's default config
/// fixes it too), and it is no small matter: with the hyperplanes
/// following `--seed`, the same mix of bounds cost 1.1 ms a query on one
/// seed and 1.6 ms on the next.
const INDEX_SEED: u64 = 0x5eed;

/// A serving index of `keys` models with `cands` candidates each, built
/// by seeded arithmetic instead of analysis (as the `pr7`/`pr9` gate
/// binaries build theirs) so it is large without costing minutes.
///
/// Every candidate list is in descending score order with scores
/// distinct within the list, so a result order is never ambiguous; one
/// record in eight is synthesized and one in three of the rest is
/// transitive, so every candidate kind crosses the wire.
pub fn synthetic_index(seed: u64, keys: usize, cands: usize) -> (SemanticIndex, ResourceIndex) {
    assert!(
        keys > 2 * cands,
        "candidates are drawn from the other keys, without replacement"
    );
    let mut rng = Prng::seed_from_u64(mix64(&[seed, 0x1dec5]));
    let mut resource = ResourceIndex::new(LshConfig::default(), INDEX_SEED);
    let mut names = Vec::with_capacity(keys);
    for (name, profile) in synthetic_refs(seed, keys) {
        resource.insert(&name, profile);
        names.push(name);
    }
    let entries = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // Distinct partners and distinct score steps, both drawn
            // without replacement.
            let others = distinct(&mut rng, keys - 1, cands);
            let mut steps = distinct(&mut rng, 1000, cands);
            steps.sort_unstable();
            let candidates = others
                .into_iter()
                .zip(steps)
                .enumerate()
                .map(|(j, (o, step))| {
                    let other = &names[if o >= i { o + 1 } else { o }];
                    let diff_bound = step as f64 / 1250.0;
                    let (key, kind) = if j % 8 == 7 {
                        (
                            format!("{name}+{other}"),
                            CandidateKind::Synthesized {
                                donor: other.clone(),
                            },
                        )
                    } else if j % 3 == 0 {
                        (
                            other.clone(),
                            CandidateKind::Transitive {
                                via: names[rng.index(keys)].clone(),
                            },
                        )
                    } else {
                        (other.clone(), CandidateKind::Whole)
                    };
                    CandidateRecord {
                        key,
                        diff_bound,
                        score: 1.0 - diff_bound,
                        kind,
                    }
                })
                .collect();
            let fp = Fingerprint(mix64(&[seed, i as u64]) | 1);
            (fp, name.clone(), candidates)
        })
        .collect();
    let semantic = SemanticIndex::from_parts(
        SemanticIndexConfig::default(),
        INDEX_SEED,
        entries,
        Vec::new(),
    );
    (semantic, resource)
}

/// One generated query: the text the program receives, and the
/// parameters it was rendered from, which the oracle works from.
#[derive(Clone, Debug)]
pub struct QueryCase {
    pub text: String,
    pub query: Query,
}

/// A decimal the lexer will read back as exactly `value`: the text is
/// rendered first and the number parsed from it.
fn decimal(units: usize, per_unit: usize) -> (String, f64) {
    let text = match per_unit {
        10 => format!("{}.{}", units / 10, units % 10),
        100 => format!("{}.{:02}", units / 100, units % 100),
        _ => unreachable!("tenths and hundredths only"),
    };
    let value = text.parse().expect("a decimal literal parses");
    (text, value)
}

const DIMS: [(ResourceDim, &str, &str); 3] = [
    (ResourceDim::Memory, "memory", "MB"),
    (ResourceDim::Flops, "flops", "GFLOPS"),
    (ResourceDim::Latency, "latency", "ms"),
];

/// An upper bound on dimension `d` of [`DIMS`] placed `share` of the way
/// through the range the references span there, so that it admits
/// about that share of them: in absolute units, or as a whole
/// percentage of the reference's own usage.
fn predicate(
    refs: &[Reference],
    reference: &ResourceProfile,
    d: usize,
    share: f64,
    relative: bool,
) -> (String, ResourcePredicate) {
    let (dim, word, unit) = DIMS[d];
    let values = || refs.iter().map(|(_, p)| dim_of(p, dim));
    let (lo, hi) = (
        values().fold(f64::INFINITY, f64::min),
        values().fold(f64::NEG_INFINITY, f64::max),
    );
    let bound = lo + share * (hi - lo);
    if relative {
        let percent = (100.0 * bound / dim_of(reference, dim)).round().max(1.0);
        (
            format!("{word} <= {percent}%"),
            ResourcePredicate {
                dim,
                value: BoundValue::RelativePercent(percent),
            },
        )
    } else {
        let (text, value) = decimal((bound * 10.0).round() as usize, 10);
        (
            format!("{word} <= {text} {unit}"),
            ResourcePredicate {
                dim,
                value: BoundValue::Absolute(value),
            },
        )
    }
}

/// How a query mix is shaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The popular-query shape of the `pr9` gate: `models 3`, one
    /// relative memory bound, ordered by similarity.
    Popular,
    /// `models 1..=8`, all four orderings, and in equal parts no
    /// predicate, one absolute bound, one relative bound, and one of
    /// each, over all three dimensions.
    Varied,
}

/// `n` values, one from the middle half of each `n`-th of `[0, 1)`, in
/// shuffled order: a sample that covers the range the same way whatever
/// the seed.
fn strata(rng: &mut Prng, n: usize) -> Vec<f64> {
    let mut out: Vec<f64> = (0..n)
        .map(|k| (k as f64 + 0.25 + 0.5 * rng.uniform()) / n as f64)
        .collect();
    rng.shuffle(&mut out);
    out
}

/// [`strata`] for `count` positions of which every `kinds`-th is of one
/// kind: each kind's positions get an even cover of their own.
fn strata_per_kind(rng: &mut Prng, count: usize, kinds: usize) -> Vec<f64> {
    let mut out = vec![0.0; count];
    for kind in 0..kinds {
        let positions: Vec<usize> = (kind..count).step_by(kinds).collect();
        for (&i, share) in positions.iter().zip(strata(rng, positions.len())) {
            out[i] = share;
        }
    }
    out
}

/// `count` distinct queries against references drawn from `refs`,
/// thresholds drawn from `thresholds` (in hundredths).
///
/// What a query costs the engine is set by how many models its bounds
/// admit, and that by the reference's size (a relative bound) and the
/// bound's place in the range. Both are stratified — references over
/// the memory ranking, bounds over the range — so that every seed gives
/// other queries of the same spread of costs; the rest (limit, order,
/// dimensions, threshold) is drawn freely.
pub fn query_mix(
    seed: u64,
    refs: &[Reference],
    thresholds: std::ops::Range<usize>,
    count: usize,
    mix: Mix,
) -> Vec<QueryCase> {
    let mut rng = Prng::seed_from_u64(mix64(&[seed, 0x9e27, mix as u64]));
    let mut by_memory: Vec<usize> = (0..refs.len()).collect();
    by_memory.sort_by(|&a, &b| refs[a].1.memory_mb.total_cmp(&refs[b].1.memory_mb));
    let ranks = strata(&mut rng, count);
    // The share of the references each query's bounds are to admit.
    let shares = strata_per_kind(&mut rng, count, 4);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let (reference, profile) = &refs[by_memory[(ranks[i] * refs.len() as f64) as usize]];
        let (limit, predicates, selection) = match mix {
            Mix::Popular => (
                3,
                vec![(
                    "memory <= 500%".to_string(),
                    ResourcePredicate {
                        dim: ResourceDim::Memory,
                        value: BoundValue::RelativePercent(500.0),
                    },
                )],
                FinalSelection::Similarity,
            ),
            Mix::Varied => {
                // The kind follows the position, and so do the
                // dimensions: the range index probes its LSH tables in
                // the direction of the bounds, and what that costs
                // swings with the direction (0 to 1.5 ms here). One
                // bound always probes along the diagonal; two, of which
                // the first is on memory, whose numbers dwarf the
                // others', along one of two fixed directions.
                let bound = |d: usize, share: f64, relative: bool| {
                    predicate(refs, profile, d, share, relative)
                };
                let predicates = match i % 4 {
                    0 => vec![],
                    1 => vec![bound(i / 4 % 3, shares[i], false)],
                    2 => vec![bound(i / 4 % 3, shares[i], true)],
                    _ => {
                        // Two independent bounds admit the product of
                        // their shares.
                        let split = 0.3 + 0.4 * rng.uniform();
                        vec![
                            bound(0, shares[i].powf(split), false),
                            bound(1 + i / 4 % 2, shares[i].powf(1.0 - split), true),
                        ]
                    }
                };
                let selection = [
                    FinalSelection::Similarity,
                    FinalSelection::Memory,
                    FinalSelection::Flops,
                    FinalSelection::Latency,
                ][rng.index(4)];
                (1 + rng.index(8), predicates, selection)
            }
        };
        let order = match selection {
            FinalSelection::Similarity => "similarity",
            FinalSelection::Memory => "memory",
            FinalSelection::Flops => "flops",
            FinalSelection::Latency => "latency",
        };
        let (predicate_texts, predicates): (Vec<_>, Vec<_>) = predicates.into_iter().unzip();
        let on = if predicate_texts.is_empty() {
            String::new()
        } else {
            format!(" ON {}", predicate_texts.join(" AND "))
        };
        // Another threshold until the text is one not generated before.
        let (text, threshold) = loop {
            let (threshold_text, threshold) =
                decimal(thresholds.start + rng.index(thresholds.len()), 100);
            let text = format!(
                "SELECT models {limit} CORR {reference}{on} WITHIN {threshold_text} ORDER BY {order}"
            );
            if seen.insert(text.clone()) {
                break (text, threshold);
            }
        };
        let query = Query {
            select: SelectKind::Models(limit),
            reference: RefSpec::Named(reference.clone()),
            threshold,
            predicates,
            selection,
            exec_spec: Default::default(),
        };
        out.push(QueryCase { text, query });
    }
    out
}

/// The `j`-th respelling of a query text: `keyword`, which the text
/// spells in capitals, in another mix of cases (`j` below the last
/// pattern, which is the capitals). Keywords are case-insensitive, so
/// the query means the same, but the plan cache keys on the text, so a
/// respelling not probed before is a guaranteed miss. `serve_uncached`
/// asks each of its queries in eight spellings of `CORR`; the traced
/// replay times a miss for a text the workload has already cached by
/// respelling `SELECT`.
pub fn respelled(text: &str, keyword: &str, j: usize) -> String {
    assert!(
        j + 1 < 1 << keyword.len(),
        "the last pattern is the original spelling"
    );
    let (head, tail) = text
        .split_once(keyword)
        .expect("generated texts spell their keywords in capitals");
    let word: String = keyword
        .chars()
        .enumerate()
        .map(|(bit, c)| {
            if j >> bit & 1 == 1 {
                c
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect();
    format!("{head}{word}{tail}")
}

/// The key `serve_churn` replaces over and over.
pub const CHURN_KEY: &str = "churnnet-s0";

/// Two versions of one small real model under one key: what a curator
/// republishing a fine-tune looks like to the index.
pub fn churn_pair(seed: u64) -> [Model; 2] {
    let mut rng = Prng::seed_from_u64(mix64(&[seed, 0xc4a2]));
    let series = build_series(
        "churnnet",
        Family::Mobilenetish,
        TaskKind::ImageRecognition,
        "imagenet",
        1,
        seed,
        0.08,
        &mut rng,
    );
    let a = series
        .models
        .into_iter()
        .next()
        .expect("one model asked for");
    assert_eq!(a.name, CHURN_KEY);
    let b = finetune::perturb_all(&a, 0.05, &mut rng);
    [a, b]
}

/// The curate zoo: `bases` of the six pre-trained bases of the paper's
/// Figure 9(a) repository, each followed by `dense` whole-model
/// fine-tunes and `sparse` last-layers fine-tunes that name it as their
/// delta base — so the chunk store sees both delta encodings — in
/// round-robin order across bases (all bases first, then every base's
/// first derivative, and so on), the order a hub's upload stream has.
pub fn curate_zoo(seed: u64, bases: usize, dense: usize, sparse: usize) -> Vec<Model> {
    let mut rng = Prng::seed_from_u64(mix64(&[seed, 0x200]));
    let per_base = 1 + dense;
    let families: Vec<Vec<Model>> = synthetic_repository(per_base, 0.3, seed)
        .chunks(per_base)
        .take(bases)
        .map(|variants| {
            // Variant 0 is fine-tune level 0: the base itself.
            let mut base = variants[0].clone();
            base.metadata.remove("base");
            let mut family = vec![base.clone()];
            for v in &variants[1..] {
                let mut v = v.clone();
                v.metadata.insert("base".into(), base.name.clone());
                family.push(v);
            }
            let tuned = finetune::finetune_family(&base, sparse, 0.25, 0.05, 0.02, &mut rng);
            family.extend(tuned.into_iter().skip(1));
            family
        })
        .collect();
    let longest = families.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|j| families.iter().filter_map(move |f| f.get(j).cloned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_query::parse;

    #[test]
    fn generated_texts_parse_back_to_their_parameters() {
        for mix in [Mix::Popular, Mix::Varied] {
            let cases = query_mix(7, &synthetic_refs(7, 500), 20..56, 200, mix);
            assert_eq!(cases.len(), 200);
            let distinct: HashSet<&str> = cases.iter().map(|c| c.text.as_str()).collect();
            assert_eq!(distinct.len(), 200);
            for case in &cases {
                assert_eq!(parse(&case.text).unwrap(), case.query, "{}", case.text);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let texts = |seed| -> Vec<String> {
            query_mix(seed, &synthetic_refs(seed, 500), 20..56, 32, Mix::Varied)
                .into_iter()
                .map(|c| c.text)
                .collect()
        };
        assert_eq!(texts(3), texts(3));
        assert_ne!(texts(3), texts(4));
        let keys = |seed| {
            synthetic_index(seed, 64, 8)
                .0
                .candidates_of(&key_of(5))
                .to_vec()
        };
        assert_eq!(keys(3), keys(3));
        assert_ne!(keys(3), keys(4));
    }

    #[test]
    fn candidate_lists_are_sorted_with_distinct_scores() {
        let (semantic, resource) = synthetic_index(11, 300, 16);
        assert_eq!(semantic.len(), 300);
        assert_eq!(resource.len(), 300);
        for key in semantic.keys() {
            let list = semantic.candidates_of(key);
            assert_eq!(list.len(), 16);
            assert!(list.windows(2).all(|w| w[0].score > w[1].score), "{key}");
            assert!(list.iter().all(|c| &c.key != key));
        }
    }

    #[test]
    fn respellings_differ_as_text_and_agree_as_queries() {
        let case = &query_mix(1, &synthetic_refs(1, 100), 20..56, 1, Mix::Varied)[0];
        let spellings: HashSet<String> = (0..63)
            .map(|j| respelled(&case.text, "SELECT", j))
            .chain((0..15).map(|j| respelled(&case.text, "CORR", j)))
            .collect();
        assert_eq!(spellings.len(), 63 + 15);
        assert!(!spellings.contains(&case.text));
        for s in &spellings {
            assert_eq!(parse(s).unwrap(), case.query);
        }
    }

    /// The share of the references a query's bounds admit — what the
    /// engine's sweep and its key clones cost in proportion to.
    fn admitted_share(refs: &[Reference], case: &QueryCase) -> f64 {
        let reference = match &case.query.reference {
            RefSpec::Named(key) => &refs.iter().find(|(k, _)| k == key).unwrap().1,
            RefSpec::Task(_) => unreachable!("generated queries name their reference"),
        };
        let admits = |p: &ResourceProfile| {
            case.query.predicates.iter().all(|pred| {
                let bound = match pred.value {
                    BoundValue::RelativePercent(pct) => dim_of(reference, pred.dim) * pct / 100.0,
                    BoundValue::Absolute(v) => v,
                };
                dim_of(p, pred.dim) <= bound
            })
        };
        refs.iter().filter(|(_, p)| admits(p)).count() as f64 / refs.len() as f64
    }

    #[test]
    fn every_seed_gives_a_mix_of_the_same_spread_of_costs() {
        for (mix, count) in [(Mix::Varied, 128), (Mix::Popular, 64)] {
            let stats: Vec<(f64, f64)> = (1..=6)
                .map(|seed| {
                    let refs = synthetic_refs(seed, 4000);
                    let mut shares: Vec<f64> = query_mix(seed, &refs, 20..56, count, mix)
                        .iter()
                        .map(|c| admitted_share(&refs, c))
                        .collect();
                    shares.sort_by(f64::total_cmp);
                    let mean = shares.iter().sum::<f64>() / count as f64;
                    (mean, shares[count / 2])
                })
                .collect();
            let spread = |f: fn(&(f64, f64)) -> f64| {
                let v: Vec<f64> = stats.iter().map(f).collect();
                let (lo, hi) = (
                    v.iter().copied().fold(f64::INFINITY, f64::min),
                    v.iter().copied().fold(0.0, f64::max),
                );
                (hi - lo) / lo
            };
            assert!(spread(|s| s.0) < 0.03, "{mix:?} means {stats:?}");
            assert!(spread(|s| s.1) < 0.04, "{mix:?} medians {stats:?}");
        }
    }

    #[test]
    fn churn_pair_shares_a_key_and_differs_in_content() {
        let [a, b] = churn_pair(5);
        assert_eq!(a.name, b.name);
        assert_ne!(Fingerprint::of_model(&a), Fingerprint::of_model(&b));
    }

    #[test]
    fn curate_zoo_interleaves_bases_and_names_delta_bases() {
        let zoo = curate_zoo(9, 2, 1, 1);
        assert_eq!(zoo.len(), 6);
        // Round-robin: both bases first.
        assert!(!zoo[0].metadata.contains_key("base"));
        assert!(!zoo[1].metadata.contains_key("base"));
        assert_eq!(zoo[2].metadata["base"], zoo[0].name);
        assert_eq!(zoo[3].metadata["base"], zoo[1].name);
        assert_eq!(zoo[4].metadata["base"], zoo[0].name);
        let names: HashSet<&str> = zoo.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), 6);
    }
}
