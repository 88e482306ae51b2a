//! Input/output layer checking (paper Section 4.1).
//!
//! The cheap first phase of equivalence assessment: "check the 'structures'
//! of the input and the output … to quickly filter out completely
//! different models", resembling a compiler's type check. Input shapes are
//! compared strictly unless a model declares a preprocessor; outputs are
//! compared by shape for regression tasks and additionally by syntax
//! labels for classification tasks when both models publish them.

use sommelier_graph::task::OutputStyle;
use sommelier_graph::{Model, TaskKind};
use sommelier_tensor::Shape;

/// Metadata key under which a model may declare its input preprocessor.
/// When both models declare one, strict input-shape comparison is skipped
/// (the preprocessors are assumed to adapt the raw source).
pub const PREPROCESSOR_KEY: &str = "preprocessor";

/// Outcome of the I/O compatibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoCompat {
    /// Models may capture the same semantics; proceed to value checking.
    Compatible,
    /// Models cannot be equivalent; the reason is reported.
    Incompatible(String),
}

impl IoCompat {
    pub fn is_compatible(&self) -> bool {
        matches!(self, IoCompat::Compatible)
    }
}

/// Everything the I/O check reads of one model, and nothing of its
/// weights: an indexer can keep one per model and check a pair without
/// loading either.
#[derive(Clone, Debug, PartialEq)]
pub struct IoDescriptor {
    /// Logical input shape.
    pub input_shape: Shape,
    /// Whether the model declares an input preprocessor
    /// ([`PREPROCESSOR_KEY`]).
    pub preprocessor: bool,
    /// Flattened input width: the width of a probe the model runs on.
    pub input_width: usize,
    pub output_width: usize,
    pub task: TaskKind,
    pub output_syntax: Option<Vec<String>>,
}

impl IoDescriptor {
    pub fn of(model: &Model) -> Self {
        IoDescriptor {
            input_shape: model.input_shape.clone(),
            preprocessor: model.metadata.contains_key(PREPROCESSOR_KEY),
            input_width: model.input_width(),
            output_width: model.output_width(),
            task: model.task,
            output_syntax: model.output_syntax.clone(),
        }
    }
}

/// Run the input and output layer check between two models.
pub fn check_io(a: &IoDescriptor, b: &IoDescriptor) -> IoCompat {
    // Input check: strict shape comparison, waived if both models declare
    // preprocessing of the raw source.
    let both_preprocess = a.preprocessor && b.preprocessor;
    if !both_preprocess && !a.input_shape.strictly_matches(&b.input_shape) {
        return IoCompat::Incompatible(format!(
            "input shapes differ: {} vs {}",
            a.input_shape, b.input_shape
        ));
    }

    // Output check: shapes must agree for either style.
    if a.output_width != b.output_width {
        return IoCompat::Incompatible(format!(
            "output widths differ: {} vs {}",
            a.output_width, b.output_width
        ));
    }

    // Classification-style outputs additionally carry syntax: if both
    // models publish per-dimension labels, those must agree.
    let classification = a.task.output_style() == OutputStyle::Classification
        || b.task.output_style() == OutputStyle::Classification;
    if classification {
        if let (Some(sa), Some(sb)) = (&a.output_syntax, &b.output_syntax) {
            if sa != sb {
                return IoCompat::Incompatible(
                    "output syntax labels differ between models".into(),
                );
            }
        }
    }
    IoCompat::Compatible
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::Prng;

    fn check_io(a: &Model, b: &Model) -> IoCompat {
        super::check_io(&IoDescriptor::of(a), &IoDescriptor::of(b))
    }

    fn model(input: usize, output: usize, task: TaskKind, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new("m", task, Shape::vector(input))
            .dense(output, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn identical_shapes_are_compatible() {
        let a = model(8, 4, TaskKind::ImageRecognition, 1);
        let b = model(8, 4, TaskKind::ImageRecognition, 2);
        assert!(check_io(&a, &b).is_compatible());
    }

    #[test]
    fn input_shape_mismatch_rejected() {
        let a = model(8, 4, TaskKind::ImageRecognition, 1);
        let b = model(10, 4, TaskKind::ImageRecognition, 2);
        let r = check_io(&a, &b);
        assert!(matches!(r, IoCompat::Incompatible(ref s) if s.contains("input shapes")));
    }

    #[test]
    fn preprocessors_waive_input_check() {
        let mut a = model(8, 4, TaskKind::ImageRecognition, 1);
        let mut b = model(10, 4, TaskKind::ImageRecognition, 2);
        a.metadata
            .insert(PREPROCESSOR_KEY.into(), "resize-224".into());
        b.metadata
            .insert(PREPROCESSOR_KEY.into(), "resize-299".into());
        assert!(check_io(&a, &b).is_compatible());
        // One-sided declaration is not enough.
        b.metadata.remove(PREPROCESSOR_KEY);
        assert!(!check_io(&a, &b).is_compatible());
    }

    #[test]
    fn output_width_mismatch_rejected() {
        let a = model(8, 4, TaskKind::ImageRecognition, 1);
        let b = model(8, 5, TaskKind::ImageRecognition, 2);
        let r = check_io(&a, &b);
        assert!(matches!(r, IoCompat::Incompatible(ref s) if s.contains("output widths")));
    }

    #[test]
    fn syntax_labels_must_agree_when_published() {
        let mut a = model(8, 2, TaskKind::ImageRecognition, 1);
        let mut b = model(8, 2, TaskKind::ImageRecognition, 2);
        a.output_syntax = Some(vec!["cat".into(), "dog".into()]);
        b.output_syntax = Some(vec!["dog".into(), "cat".into()]);
        assert!(!check_io(&a, &b).is_compatible());
        b.output_syntax = a.output_syntax.clone();
        assert!(check_io(&a, &b).is_compatible());
    }

    #[test]
    fn missing_syntax_is_tolerated() {
        let mut a = model(8, 2, TaskKind::ImageRecognition, 1);
        let b = model(8, 2, TaskKind::ImageRecognition, 2);
        a.output_syntax = Some(vec!["cat".into(), "dog".into()]);
        // b publishes none → only the finer-grained check is skipped.
        assert!(check_io(&a, &b).is_compatible());
    }

    #[test]
    fn regression_tasks_ignore_syntax() {
        let mut a = model(8, 4, TaskKind::ObjectDetection, 1);
        let mut b = model(8, 4, TaskKind::ObjectDetection, 2);
        a.output_syntax = Some(vec!["x".into(); 4]);
        b.output_syntax = Some(vec!["y".into(); 4]);
        // Syntax differs but both tasks are regression-style.
        assert!(check_io(&a, &b).is_compatible());
    }
}
