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
//! hash that the manifest is repointed at, value surgery on
//! `sommelier.index.json`, deleting a manifest — never through an API
//! that would revalidate or reindex. The one new model goes through
//! [`OnDiskRepository::publish`], which checks only what a load needs
//! and indexes nothing. Victim selection is deterministic (first
//! manifest stem in sorted order), so a given `(seed, defect)` pair
//! always produces the same sabotaged repository.

use serde::Value;
use sommelier_index::persist::{INDEX_FILE, INDEX_FILE_BIN};
use sommelier_repo::{Manifest, ModelRepository, OnDiskRepository, MANIFEST_SUFFIX};
use std::path::{Path, PathBuf};

/// One plantable defect class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// A stored model's `widths` array is rewritten to disagree with
    /// the widths its operators recompute.
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
    /// One byte of the binary (`.somb`) snapshot's resource rows is
    /// flipped on disk, breaking the section CRC the way a silent media
    /// tear would. A JSON-only zoo is compacted to binary first.
    BinarySnapshotTear,
}

impl Defect {
    /// Every plantable defect, in a fixed order (the detection matrix).
    pub const ALL: [Defect; 7] = [
        Defect::ShapeBreak,
        Defect::NonFiniteWeights,
        Defect::DeadSubgraph,
        Defect::FingerprintDrift,
        Defect::StaleIndexEntry,
        Defect::BrokenTriangle,
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
            Defect::BinarySnapshotTear => "binary_snapshot_tear",
        }
    }

    /// The diagnostic code `sommelier audit` must raise for this
    /// defect. Literal `SOM` codes rather than `sommelier_lint`
    /// constants: the zoo stays independent of the lint crate, and the
    /// codes are a stable public contract.
    pub fn expected_code(self) -> &'static str {
        match self {
            Defect::ShapeBreak => "SOM080",
            Defect::NonFiniteWeights => "SOM081",
            Defect::DeadSubgraph => "SOM082",
            Defect::FingerprintDrift => "SOM090",
            Defect::StaleIndexEntry => "SOM020",
            Defect::BrokenTriangle => "SOM092",
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
/// recomputes. In every seeded family layer 1 feeds only an activation,
/// which has no parameters to check against it, so the model still
/// loads and only the audit's shape analysis sees the break.
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

/// Rewrite one measured `Whole` candidate into a `Transitive` record
/// whose bound (7.5) cannot lie inside any triangle interval its legs
/// span (diffs are capped near 1, so `hi * slack` stays far below it).
fn plant_broken_triangle(dir: &Path) -> Result<String, String> {
    let path = dir.join(INDEX_FILE);
    let mut root: Value = serde_json::from_str(&read(&path)?)
        .map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
    let description = {
        let entries = field_mut(&mut root, "semantic")
            .and_then(|s| field_mut(s, "entries"))
            .ok_or("index has no semantic entries")?;
        let Value::Map(entries) = entries else {
            return Err("semantic entries are not a map".into());
        };
        let mut planted = None;
        'entries: for (_, entry) in entries.iter_mut() {
            let owner = match entry.get_field("key") {
                Some(Value::Str(k)) => k.clone(),
                _ => continue,
            };
            let Some(Value::Seq(candidates)) = field_mut(entry, "candidates") else {
                continue;
            };
            // Two measured Whole records: the first becomes the forged
            // Transitive record, the second donates its key as the via.
            let whole: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    matches!(c.get_field("kind"), Some(Value::Str(k)) if k == "Whole")
                })
                .map(|(i, _)| i)
                .collect();
            if whole.len() < 2 {
                continue;
            }
            let via = match candidates[whole[1]].get_field("key") {
                Some(Value::Str(k)) => k.clone(),
                _ => continue,
            };
            let forged = &mut candidates[whole[0]];
            let target = match forged.get_field("key") {
                Some(Value::Str(k)) => k.clone(),
                _ => continue,
            };
            set_field(forged, "diff_bound", Value::Float(7.5));
            set_field(forged, "score", Value::Float(0.0));
            set_field(
                forged,
                "kind",
                Value::Map(vec![(
                    "Transitive".into(),
                    Value::Map(vec![("via".into(), Value::Str(via.clone()))]),
                )]),
            );
            planted = Some(format!(
                "forged '{owner}' -> '{target}' via '{via}' with bound 7.5"
            ));
            break 'entries;
        }
        planted.ok_or("no entry with two Whole candidates to forge")?
    };
    let text = serde_json::to_string(&root).map_err(|e| e.to_string())?;
    write(&path, &text)?;
    Ok(description)
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

fn set_field(v: &mut Value, key: &str, value: Value) {
    if let Some(slot) = field_mut(v, key) {
        *slot = value;
    } else if let Value::Map(pairs) = v {
        pairs.push((key.to_string(), value));
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
        assert_eq!(codes.len(), Defect::ALL.len());
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
