//! The engine's typed per-job error.

use acamar_sparse::SparseError;
use std::error::Error;
use std::fmt;

/// Why a job failed without producing a run report.
///
/// Numerical failure (divergence after every rescue) is *not* an error —
/// it is reported through the final attempt's outcome inside an `Ok`
/// report. `SolveError` covers the cases where no trustworthy report
/// exists at all.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The job's inputs were rejected before any fabric work: a non-finite
    /// right-hand side, or a dimension mismatch. Deterministic —
    /// the rescue ladder never retries these.
    Invalid(SparseError),
    /// The accelerator reported an error mid-solve (e.g. a structurally
    /// defective matrix surfacing inside a solver).
    Solver(SparseError),
    /// The job's worker panicked and the panic was isolated by the
    /// engine; the rest of the batch was unaffected.
    Panicked {
        /// Best-effort panic payload description.
        message: String,
    },
    /// The job exceeded its wall-clock deadline between attempts.
    DeadlineExceeded {
        /// Milliseconds the job had actually consumed when cut off.
        elapsed_ms: u64,
        /// The configured per-job deadline, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Invalid(e) => write!(f, "invalid job input: {e}"),
            SolveError::Solver(e) => write!(f, "solver error: {e}"),
            SolveError::Panicked { message } => write!(f, "job panicked: {message}"),
            SolveError::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "job deadline exceeded: {elapsed_ms} ms elapsed, limit {limit_ms} ms"
            ),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Invalid(e) | SolveError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for SolveError {
    fn from(e: SparseError) -> Self {
        match e {
            SparseError::NonFiniteValue { .. } | SparseError::DimensionMismatch { .. } => {
                SolveError::Invalid(e)
            }
            other => SolveError::Solver(other),
        }
    }
}

impl SolveError {
    /// `true` for deterministic input rejections the rescue ladder must
    /// not retry.
    pub fn is_invalid_input(&self) -> bool {
        matches!(self, SolveError::Invalid(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_errors_classify_as_invalid() {
        let e = SolveError::from(SparseError::NonFiniteValue {
            what: "right-hand side",
            index: 3,
        });
        assert!(e.is_invalid_input());
        assert!(e.to_string().starts_with("invalid job input"));
        let e = SolveError::from(SparseError::DimensionMismatch {
            expected: 4,
            found: 5,
            what: "right-hand side length",
        });
        assert!(e.is_invalid_input());
    }

    #[test]
    fn other_sparse_errors_classify_as_solver() {
        let e = SolveError::from(SparseError::ZeroDiagonal { row: 2 });
        assert!(!e.is_invalid_input());
        assert!(e.to_string().starts_with("solver error"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn engine_side_errors_render_their_details() {
        let p = SolveError::Panicked {
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "job panicked: boom");
        let d = SolveError::DeadlineExceeded {
            elapsed_ms: 120,
            limit_ms: 100,
        };
        assert!(d.to_string().contains("120 ms"));
        assert!(d.to_string().contains("limit 100 ms"));
        assert!(Error::source(&d).is_none());
    }
}
