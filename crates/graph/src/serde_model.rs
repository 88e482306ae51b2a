//! Model interchange format.
//!
//! The paper imports/exports DNNs through ONNX so the query engine stays
//! framework-agnostic (Section 6). This reproduction's equivalent is a
//! self-describing JSON envelope with a format-version field; everything a
//! model contains (graph, parameters, task, metadata) round-trips through
//! it. It is the standalone model file that `sommelier add` and
//! `apply --add` read and `sommelier export` writes; the repository
//! (`sommelier-repo`) stores manifests over content-addressed chunks.

use crate::model::Model;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// The serialization envelope.
#[derive(Serialize, Deserialize)]
struct Envelope {
    format_version: u32,
    model: Model,
}

/// Errors while encoding/decoding models.
#[derive(Debug)]
pub enum CodecError {
    /// I/O failure reading or writing the file.
    Io(io::Error),
    /// Malformed JSON or schema mismatch.
    Format(String),
    /// The file declares an unsupported format version.
    UnsupportedVersion { found: u32 },
    /// The model has no JSON form (a non-finite weight).
    Unencodable(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "model file I/O error: {e}"),
            CodecError::Format(e) => write!(f, "malformed model file: {e}"),
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported model format version {found} (supported: {FORMAT_VERSION})")
            }
            CodecError::Unencodable(e) => write!(f, "model cannot be encoded: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Serialize a model to its JSON interchange form. A non-finite
/// weight has no JSON spelling, so such a model is refused.
pub fn to_json(model: &Model) -> Result<String, CodecError> {
    let envelope = Envelope {
        format_version: FORMAT_VERSION,
        model: model.clone(),
    };
    serde_json::to_string(&envelope).map_err(|e| CodecError::Unencodable(e.to_string()))
}

/// Deserialize a model from its JSON interchange form.
pub fn from_json(json: &str) -> Result<Model, CodecError> {
    let envelope: Envelope =
        serde_json::from_str(json).map_err(|e| CodecError::Format(e.to_string()))?;
    if envelope.format_version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: envelope.format_version,
        });
    }
    Ok(envelope.model)
}

/// Write a model to a file; a model [`to_json`] refuses writes nothing.
pub fn save(model: &Model, path: &Path) -> Result<(), CodecError> {
    fs::write(path, to_json(model)?)?;
    Ok(())
}

/// Read a model from a file.
pub fn load(path: &Path) -> Result<Model, CodecError> {
    let json = fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::fingerprint::Fingerprint;
    use crate::task::TaskKind;
    use sommelier_tensor::{Prng, Shape};

    fn model() -> Model {
        let mut rng = Prng::seed_from_u64(5);
        let mut m = ModelBuilder::new("serde-test", TaskKind::ImageRecognition, Shape::vector(6))
            .dense(4, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap();
        m.metadata.insert("series".into(), "unit-test".into());
        m.output_syntax = Some(vec!["cat".into(), "dog".into(), "bird".into()]);
        m
    }

    #[test]
    fn json_round_trip_preserves_model() {
        let m = model();
        let restored = from_json(&to_json(&m).unwrap()).unwrap();
        assert_eq!(m, restored);
        assert_eq!(Fingerprint::of_model(&m), Fingerprint::of_model(&restored));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sommelier-serde-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        let m = model();
        save(&m, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(m, restored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(from_json("not json"), Err(CodecError::Format(_))));
        assert!(matches!(
            from_json("{\"wrong\": true}"),
            Err(CodecError::Format(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut json = to_json(&model()).unwrap();
        json = json.replace("\"format_version\":1", "\"format_version\":999");
        assert!(matches!(
            from_json(&json),
            Err(CodecError::UnsupportedVersion { found: 999 })
        ));
    }

    #[test]
    fn a_non_finite_weight_is_refused_and_nothing_is_written() {
        let mut weight = sommelier_tensor::Tensor::zeros(6, 3);
        weight.set(0, 0, f32::INFINITY);
        let m = ModelBuilder::new("inf", TaskKind::Other, Shape::vector(6))
            .dense_with(weight, None)
            .build()
            .unwrap();
        assert!(matches!(to_json(&m), Err(CodecError::Unencodable(_))));
        let path = std::env::temp_dir().join(format!("sommelier-serde-inf-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let err = save(&m, &path).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(!path.exists());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/sommelier/m.json")).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }
}
