//! Controlled defect injection for audit testing.
//!
//! A *sabotaged zoo* is a seeded, indexed repository directory with one
//! known defect planted on disk — the ground truth for the deep audit's
//! detection matrix: `sommelier audit` must find every planted defect
//! and report nothing on an unsabotaged zoo. Each [`Defect`] maps to
//! exactly one diagnostic family the audit is supposed to raise
//! ([`Defect::expected_code`]).
//!
//! Defects are planted the way real corruption arrives: by rewriting
//! the artifacts *behind the library's back* — text surgery on a
//! manifest's skeleton, a weight chunk rewritten under a new content
//! hash that the manifest is repointed at, value surgery on a candidate
//! list in `sommelier.index.json`, deleting a manifest — never through an API
//! that would revalidate or reindex. The one new model goes through
//! [`OnDiskRepository::publish`], which checks only what a load needs
//! and indexes nothing. Victim selection is deterministic (first
//! manifest stem in sorted order), so a given `(seed, defect)` pair
//! always produces the same sabotaged repository.

use serde::{Deserialize, Serialize, Value};
use sommelier_index::persist::{INDEX_FILE, INDEX_FILE_BIN};
use sommelier_index::{CandidateKind, CandidateRecord};
use sommelier_repo::{Manifest, ModelRepository, OnDiskRepository, MANIFEST_SUFFIX};
use std::path::{Path, PathBuf};

/// One plantable defect class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// A stored model's `widths` array is rewritten to disagree with
    /// the widths its operators recompute, so the model no longer loads.
    ShapeBreak,
    /// A stored weight becomes `+inf`.
    NonFiniteWeights,
    /// A new model whose graph contains a subgraph with no data path to
    /// the output is published into the store.
    DeadSubgraph,
    /// A stored weight is perturbed (finite, shape-preserving) without
    /// reindexing, so the semantic index carries a stale fingerprint.
    FingerprintDrift,
    /// The manifest of a model the persisted index references is
    /// deleted.
    StaleIndexEntry,
    /// A semantic-index candidate is rewritten into a `Transitive`
    /// record whose bound falls outside the triangle interval spanned
    /// by its measured `Whole` legs.
    BrokenTriangle,
    /// A measured `Whole` candidate gets a tighter bound than its edge
    /// records, with its score recomputed and its list re-sorted: every
    /// shape a list can have is kept, only the derivation is not.
    ForgedWhole,
    /// One byte of the binary (`.somb`) snapshot's resource rows is
    /// flipped on disk, breaking the section CRC the way a silent media
    /// tear would. A JSON-only zoo is compacted to binary first.
    BinarySnapshotTear,
}

impl Defect {
    /// Every plantable defect, in a fixed order (the detection matrix).
    pub const ALL: [Defect; 8] = [
        Defect::ShapeBreak,
        Defect::NonFiniteWeights,
        Defect::DeadSubgraph,
        Defect::FingerprintDrift,
        Defect::StaleIndexEntry,
        Defect::BrokenTriangle,
        Defect::ForgedWhole,
        Defect::BinarySnapshotTear,
    ];

    /// Stable snake-case name (test labels, bench output).
    pub fn name(self) -> &'static str {
        match self {
            Defect::ShapeBreak => "shape_break",
            Defect::NonFiniteWeights => "non_finite_weights",
            Defect::DeadSubgraph => "dead_subgraph",
            Defect::FingerprintDrift => "fingerprint_drift",
            Defect::StaleIndexEntry => "stale_index_entry",
            Defect::BrokenTriangle => "broken_triangle",
            Defect::ForgedWhole => "forged_whole",
            Defect::BinarySnapshotTear => "binary_snapshot_tear",
        }
    }

    /// The diagnostic code `sommelier audit` must raise for this
    /// defect. Literal `SOM` codes rather than `sommelier_lint`
    /// constants: the zoo stays independent of the lint crate, and the
    /// codes are a stable public contract.
    pub fn expected_code(self) -> &'static str {
        match self {
            Defect::ShapeBreak => "SOM007",
            Defect::NonFiniteWeights => "SOM081",
            Defect::DeadSubgraph => "SOM082",
            Defect::FingerprintDrift => "SOM090",
            Defect::StaleIndexEntry => "SOM020",
            Defect::BrokenTriangle | Defect::ForgedWhole => "SOM021",
            Defect::BinarySnapshotTear => "SOM054",
        }
    }
}

/// Plant `defect` into the repository at `dir` (seeded and indexed).
/// Returns a human-readable description of the edit for test logs.
pub fn plant(dir: &Path, defect: Defect) -> Result<String, String> {
    match defect {
        Defect::ShapeBreak => plant_shape_break(dir),
        Defect::NonFiniteWeights => plant_non_finite_weights(dir),
        Defect::DeadSubgraph => plant_dead_subgraph(dir),
        Defect::FingerprintDrift => plant_fingerprint_drift(dir),
        Defect::StaleIndexEntry => plant_stale_index_entry(dir),
        Defect::BrokenTriangle => plant_broken_triangle(dir),
        Defect::ForgedWhole => plant_forged_whole(dir),
        Defect::BinarySnapshotTear => plant_binary_snapshot_tear(dir),
    }
}

/// The deterministic sabotage victim: the first file stem, in sorted
/// order, that `dir` stores a manifest under.
fn victim_stem(dir: &Path) -> Result<String, String> {
    std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read '{}': {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter_map(|name| Some(name.strip_suffix(MANIFEST_SUFFIX)?.to_string()))
        .min()
        .ok_or_else(|| format!("no stored models in '{}'", dir.display()))
}

/// The victim's manifest file.
fn victim(dir: &Path) -> Result<PathBuf, String> {
    Ok(dir.join(format!("{}{MANIFEST_SUFFIX}", victim_stem(dir)?)))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read '{}': {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

/// Rewrite the second entry of the victim skeleton's `widths` array:
/// the stored width no longer matches the width its producer
/// recomputes, so `Model::validate` refuses the model on load and lint
/// reports the refusal.
fn plant_shape_break(dir: &Path) -> Result<String, String> {
    let path = victim(dir)?;
    let text = read(&path)?;
    let start = text
        .find("\"widths\":[")
        .ok_or("victim skeleton has no widths array")?
        + "\"widths\":[".len();
    let end = start + text[start..].find(']').ok_or("unterminated widths array")?;
    let mut widths: Vec<usize> = text[start..end]
        .split(',')
        .map(|t| t.trim().parse().map_err(|e| format!("bad width: {e}")))
        .collect::<Result<_, String>>()?;
    if widths.len() < 2 {
        return Err("victim model has fewer than two layers".into());
    }
    widths[1] += 1;
    let patched: Vec<String> = widths.iter().map(usize::to_string).collect();
    let text = format!("{}{}{}", &text[..start], patched.join(","), &text[end..]);
    write(&path, &text)?;
    Ok(format!(
        "bumped widths[1] to {} in '{}'",
        widths[1],
        path.display()
    ))
}

/// Set the first `f32` of the victim's first dense weight chunk to
/// `value`: the patched bytes land as a new chunk under their own
/// content hash (a chunk rewritten in place would fail its hash check
/// on read), and the manifest is repointed at it. Returns the old
/// value and the manifest's path.
fn patch_first_weight(dir: &Path, value: f32) -> Result<(f32, PathBuf), String> {
    let path = victim(dir)?;
    let mut manifest = Manifest::from_json(&read(&path)?)
        .map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
    let chunk = manifest
        .layers
        .iter_mut()
        .find_map(|layer| layer.weight.as_mut()?.chunks.first_mut())
        .ok_or("victim manifest has no dense weight chunk")?;
    let store = OnDiskRepository::open(dir)
        .map_err(|e| e.to_string())?
        .chunk_store();
    let mut bytes = store
        .get(chunk)
        .map_err(|e| format!("cannot read chunk {chunk}: {e}"))?;
    let first: [u8; 4] = bytes
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .ok_or("victim weight chunk is empty")?;
    let old = f32::from_le_bytes(first);
    if old.to_bits() == value.to_bits() {
        return Err(format!("weight already equals the replacement {old}"));
    }
    bytes[..4].copy_from_slice(&value.to_le_bytes());
    *chunk = store
        .put(&bytes)
        .map_err(|e| format!("cannot write chunk: {e}"))?;
    write(&path, &manifest.to_json())?;
    Ok((old, path))
}

fn plant_non_finite_weights(dir: &Path) -> Result<String, String> {
    let (_, path) = patch_first_weight(dir, f32::INFINITY)?;
    Ok(format!(
        "replaced the first stored weight of '{}' with +inf",
        path.display()
    ))
}

fn plant_fingerprint_drift(dir: &Path) -> Result<String, String> {
    // 0.40625 is far from any He-initialized weight, so the
    // replacement cannot be a no-op.
    let (old, path) = patch_first_weight(dir, 0.40625)?;
    Ok(format!(
        "perturbed the first stored weight of '{}' ({old} -> 0.40625) without reindexing",
        path.display()
    ))
}

/// Publish a model whose graph carries a two-layer chain with no data
/// path to the output. `ModelBuilder` permits the construction (only
/// the shape algebra is validated at build time), and the store accepts
/// any well-formed artifact.
fn plant_dead_subgraph(dir: &Path) -> Result<String, String> {
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};
    victim_stem(dir)?; // only an existing zoo can be sabotaged
    let mut rng = Prng::seed_from_u64(0xdead);
    let mut b = ModelBuilder::new("sabotage-dead", TaskKind::Other, Shape::vector(8));
    b.dense(8, &mut rng);
    let trunk = b.cursor();
    b.relu();
    let live = b.cursor();
    b.goto(trunk);
    b.dense(4, &mut rng);
    b.relu(); // dead: nothing consumes this chain
    b.goto(live);
    b.dense(3, &mut rng);
    b.softmax();
    let model = b.build().map_err(|e| e.to_string())?;
    OnDiskRepository::open(dir)
        .and_then(|repo| repo.publish("sabotage-dead", &model, false))
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "published 'sabotage-dead' into '{}' with an unreachable two-layer chain",
        dir.display()
    ))
}

fn plant_stale_index_entry(dir: &Path) -> Result<String, String> {
    let path = victim(dir)?;
    if !dir.join(INDEX_FILE).exists() {
        return Err(format!("'{}' has no persisted index to go stale", dir.display()));
    }
    std::fs::remove_file(&path).map_err(|e| format!("cannot delete '{}': {e}", path.display()))?;
    Ok(format!(
        "deleted '{}' out from under the persisted index",
        path.display()
    ))
}

/// Edit the first candidate list of the persisted semantic index that
/// `forge` accepts: it gets each entry's key and records in file order
/// and returns a description once it has edited them.
fn forge_candidates(
    dir: &Path,
    mut forge: impl FnMut(&str, &mut Vec<CandidateRecord>) -> Option<String>,
) -> Result<String, String> {
    let path = dir.join(INDEX_FILE);
    let mut root: Value = serde_json::from_str(&read(&path)?)
        .map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
    let Some(Value::Map(entries)) =
        field_mut(&mut root, "semantic").and_then(|s| field_mut(s, "entries"))
    else {
        return Err("index has no semantic entries".into());
    };
    let description = entries
        .iter_mut()
        .find_map(|(_, entry)| {
            let Some(Value::Str(owner)) = entry.get_field("key").cloned() else {
                return None;
            };
            let slot = field_mut(entry, "candidates")?;
            let mut records: Vec<CandidateRecord> = Deserialize::from_value(slot).ok()?;
            let description = forge(&owner, &mut records)?;
            *slot = records.to_value();
            Some(description)
        })
        .ok_or("no candidate list to forge")?;
    write(&path, &serde_json::to_string(&root).map_err(|e| e.to_string())?)?;
    Ok(description)
}

/// Rewrite one measured `Whole` candidate into a `Transitive` record
/// whose bound (7.5) cannot lie inside any triangle interval its legs
/// span (diffs are capped near 1, so no derivation reaches it).
fn plant_broken_triangle(dir: &Path) -> Result<String, String> {
    forge_candidates(dir, |owner, records| {
        // Two measured Whole records: the first becomes the forged
        // Transitive record, the second donates its key as the via.
        let mut whole = (0..records.len()).filter(|&i| records[i].kind == CandidateKind::Whole);
        let (first, second) = (whole.next()?, whole.next()?);
        let via = records[second].key.clone();
        let forged = &mut records[first];
        (forged.diff_bound, forged.score) = (7.5, 0.0);
        forged.kind = CandidateKind::Transitive { via: via.clone() };
        Some(format!("forged '{owner}' -> '{}' via '{via}' with bound 7.5", forged.key))
    })
}

/// Cut the first `Whole` record with a positive bound to 0.6 of it,
/// recompute its score as `1 − bound` and re-sort the list by score,
/// then bound: the list stays sorted and every score matches its bound.
fn plant_forged_whole(dir: &Path) -> Result<String, String> {
    forge_candidates(dir, |owner, records| {
        let forged = records
            .iter_mut()
            .find(|c| c.kind == CandidateKind::Whole && c.diff_bound > 0.0)?;
        let old = forged.diff_bound;
        forged.diff_bound = old * 0.6;
        forged.score = (1.0 - forged.diff_bound).max(0.0);
        let description = format!(
            "forged '{owner}' -> '{}' Whole bound {old} down to {}",
            forged.key, forged.diff_bound
        );
        records.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then(a.diff_bound.total_cmp(&b.diff_bound))
        });
        Some(description)
    })
}

/// Flip one byte of the binary snapshot's resource rows on disk. A
/// JSON-only zoo is compacted to `.somb` first (re-encoding the
/// snapshot verbatim, the way `sommelier compact` does), so the defect
/// always lands on a real binary image. The flip happens behind the
/// library's back with a plain `std::fs::write` — no CRC re-stamping —
/// so the section's stored CRC no longer matches its bytes.
fn plant_binary_snapshot_tear(dir: &Path) -> Result<String, String> {
    use sommelier_index::{persist, somb};
    victim_stem(dir)?; // only an existing zoo can be sabotaged
    let bin = dir.join(INDEX_FILE_BIN);
    if !bin.exists() {
        let json = dir.join(INDEX_FILE);
        if !json.exists() {
            return Err(format!("'{}' has no persisted index to tear", dir.display()));
        }
        let snapshot = persist::read_snapshot(&json)
            .map_err(|e| format!("cannot load '{}': {e}", json.display()))?;
        let image = somb::encode(&snapshot.semantic, &snapshot.resource, snapshot.stats.as_ref());
        write_bytes(&bin, &image)?;
        std::fs::remove_file(&json)
            .map_err(|e| format!("cannot remove '{}': {e}", json.display()))?;
    }
    let mut bytes = std::fs::read(&bin)
        .map_err(|e| format!("cannot read '{}': {e}", bin.display()))?;
    let header = somb::validate_header(&bytes)
        .map_err(|e| format!("'{}' is not an intact binary snapshot: {e}", bin.display()))?;
    let rows = somb::SECTION_NAMES
        .iter()
        .position(|n| *n == "resource-rows")
        .expect("the resource rows are part of the format");
    // The section is never empty: it opens with its row count.
    let (off, len) = header.sections[rows];
    let target = off + len / 2;
    bytes[target] ^= 0x40;
    write_bytes(&bin, &bytes)?;
    Ok(format!(
        "flipped byte {target} of '{}' inside the resource-rows section",
        bin.display()
    ))
}

fn write_bytes(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Map(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_names_and_codes_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            Defect::ALL.iter().map(|d| d.name()).collect();
        let codes: std::collections::BTreeSet<_> =
            Defect::ALL.iter().map(|d| d.expected_code()).collect();
        assert_eq!(names.len(), Defect::ALL.len());
        // The two forged candidate lists share the one exact check.
        assert_eq!(codes.len(), Defect::ALL.len() - 1);
        assert_eq!(
            Defect::BrokenTriangle.expected_code(),
            Defect::ForgedWhole.expected_code()
        );
        for code in codes {
            assert!(code.starts_with("SOM") && code.len() == 6, "{code}");
        }
    }

    #[test]
    fn planting_in_an_empty_dir_fails_cleanly() {
        let dir = std::env::temp_dir().join("sommelier-sabotage-empty");
        std::fs::create_dir_all(&dir).unwrap();
        for defect in Defect::ALL {
            assert!(plant(&dir, defect).is_err(), "{defect:?} should fail");
        }
    }
}
