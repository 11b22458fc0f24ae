//! Typed errors for the estimator, engine and snapshot APIs.
//!
//! Every construct, train, observe and predict path in this crate returns
//! its failures as a [`CerlError`]; none has a panicking form. So a
//! serving process keeps running (and returns a structured error to its
//! caller) when a request is malformed, a stage's data holds a NaN, a
//! model is not yet trained, or a snapshot is incompatible.

use cerl_data::DataError;
use std::fmt;

/// Error from the CERL estimator, engine, or snapshot layers.
#[derive(Debug, Clone, PartialEq)]
pub enum CerlError {
    /// A configuration field is outside its valid range.
    InvalidConfig {
        /// Which field (dot-path into [`crate::config::CerlConfig`]).
        field: &'static str,
        /// Why it is invalid.
        reason: String,
    },
    /// Prediction (or a continual stage) was requested before any domain
    /// was observed/trained.
    NotTrained,
    /// Input covariates have the wrong dimension for this model.
    DimensionMismatch {
        /// Covariate dimension the model was built for.
        expected: usize,
        /// Dimension of the offending input.
        found: usize,
    },
    /// Replay-memory representation dimensions disagree (stored exemplars
    /// vs the model's representation width — possible only via corrupt or
    /// foreign restored state, never from a request).
    MemoryDimensionMismatch {
        /// Representation dimension of the model / incoming exemplars.
        expected: usize,
        /// Representation dimension of the offending stored memory.
        found: usize,
    },
    /// A training split is too small to fit on.
    DatasetTooSmall {
        /// Minimum number of units required.
        required: usize,
        /// Units actually provided.
        found: usize,
    },
    /// An input that must be non-empty was empty.
    EmptyInput {
        /// What was empty.
        what: &'static str,
    },
    /// A training or validation split holds a NaN or infinite covariate or
    /// outcome; the stage is refused before any parameter moves.
    NonFiniteInput {
        /// Which split and field (`train.x`, `train.y`, `val.x`, `val.y`).
        field: &'static str,
        /// First unit (row) holding a non-finite value.
        row: usize,
    },
    /// Dataset/scaler validation failure from `cerl-data`.
    Data(DataError),
    /// Snapshot serialization/deserialization failure.
    Snapshot(SnapshotError),
}

/// Failure while saving or restoring a [`crate::snapshot::ModelSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was written by an unknown (usually newer) format.
    UnsupportedVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot bytes do not parse as a snapshot document.
    Malformed(String),
    /// The snapshot parsed but describes an internally inconsistent model
    /// (e.g. a network referencing parameters the store does not contain).
    Incompatible(String),
}

impl fmt::Display for CerlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CerlError::InvalidConfig { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
            CerlError::NotTrained => {
                write!(
                    f,
                    "model has not observed any domain yet (train before predicting)"
                )
            }
            CerlError::DimensionMismatch { expected, found } => write!(
                f,
                "covariate dimension mismatch: model expects {expected}, input has {found}"
            ),
            CerlError::MemoryDimensionMismatch { expected, found } => write!(
                f,
                "replay-memory representation dimension mismatch: expected {expected}, stored exemplars have {found}"
            ),
            CerlError::DatasetTooSmall { required, found } => write!(
                f,
                "dataset too small: need at least {required} units, found {found}"
            ),
            CerlError::EmptyInput { what } => write!(f, "empty input: {what}"),
            CerlError::NonFiniteInput { field, row } => {
                write!(f, "non-finite value in {field} at row {row}")
            }
            CerlError::Data(e) => write!(f, "{e}"),
            CerlError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {supported})"
            ),
            SnapshotError::Malformed(reason) => write!(f, "malformed snapshot: {reason}"),
            SnapshotError::Incompatible(reason) => write!(f, "incompatible snapshot: {reason}"),
        }
    }
}

impl std::error::Error for CerlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CerlError::Data(e) => Some(e),
            CerlError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DataError> for CerlError {
    fn from(e: DataError) -> Self {
        CerlError::Data(e)
    }
}

impl From<SnapshotError> for CerlError {
    fn from(e: SnapshotError) -> Self {
        CerlError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CerlError::InvalidConfig {
            field: "memory_size",
            reason: "must be > 0".into(),
        };
        assert!(e.to_string().contains("memory_size"));
        assert!(CerlError::NotTrained.to_string().contains("not observed"));
        let e = CerlError::DimensionMismatch {
            expected: 10,
            found: 3,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('3'));
        let e = CerlError::MemoryDimensionMismatch {
            expected: 16,
            found: 9,
        };
        assert!(e.to_string().contains("replay-memory") && e.to_string().contains("16"));
        let e = CerlError::Snapshot(SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1,
        });
        assert!(e.to_string().contains("version 9"));
        let e = CerlError::NonFiniteInput {
            field: "train.y",
            row: 17,
        };
        assert!(e.to_string().contains("train.y") && e.to_string().contains("17"));
    }

    #[test]
    fn data_errors_convert() {
        let d = DataError::DimensionMismatch {
            expected: 5,
            found: 2,
        };
        let e: CerlError = d.clone().into();
        assert_eq!(e, CerlError::Data(d));
    }
}
