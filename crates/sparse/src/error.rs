//! Error types for sparse-matrix construction, conversion, and I/O.

use std::error::Error;
use std::fmt;

/// Error produced while constructing or manipulating a sparse matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A structural invariant of the storage format was violated.
    ///
    /// Carries a human-readable description of the violated invariant.
    InvalidStructure(String),
    /// A row or column index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
        /// Which axis the index addressed (`"row"` or `"column"`).
        axis: &'static str,
    },
    /// Dimensions of two operands do not agree.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
        /// What was being matched (e.g. `"vector length"`).
        what: &'static str,
    },
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        nrows: usize,
        /// Number of columns.
        ncols: usize,
    },
    /// A zero (or structurally missing) diagonal entry was found where the
    /// operation requires an invertible diagonal.
    ZeroDiagonal {
        /// Row of the offending diagonal entry.
        row: usize,
    },
    /// A NaN or infinite value was supplied where the operation requires
    /// finite input (e.g. a right-hand side or initial guess).
    NonFiniteValue {
        /// What held the offending value (e.g. `"right-hand side"`).
        what: &'static str,
        /// Index of the first non-finite element.
        index: usize,
    },
    /// A scalar parameter lies outside the range the operation accepts.
    InvalidParameter {
        /// The parameter and its valid range (e.g. `"SOR omega in (0, 2)"`).
        what: &'static str,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::InvalidStructure(msg) => {
                write!(f, "invalid sparse structure: {msg}")
            }
            SparseError::IndexOutOfBounds { index, bound, axis } => {
                write!(f, "{axis} index {index} out of bounds (< {bound} required)")
            }
            SparseError::DimensionMismatch {
                expected,
                found,
                what,
            } => write!(
                f,
                "dimension mismatch for {what}: expected {expected}, found {found}"
            ),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is not square ({nrows}x{ncols})")
            }
            SparseError::ZeroDiagonal { row } => {
                write!(f, "zero or missing diagonal entry at row {row}")
            }
            SparseError::NonFiniteValue { what, index } => {
                write!(f, "non-finite value in {what} at index {index}")
            }
            SparseError::InvalidParameter { what } => {
                write!(f, "parameter out of range: {what}")
            }
        }
    }
}

impl Error for SparseError {}

/// Error produced while reading or writing Matrix Market files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file did not conform to the Matrix Market format.
    Parse {
        /// 1-based line number of the offending line, if known.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The file parsed but described an invalid matrix.
    Structure(SparseError),
    /// The file uses a Matrix Market feature this reader does not support.
    Unsupported(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => {
                write!(f, "matrix market parse error at line {line}: {message}")
            }
            IoError::Structure(e) => write!(f, "matrix market file describes invalid matrix: {e}"),
            IoError::Unsupported(what) => write!(f, "unsupported matrix market feature: {what}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<SparseError> for IoError {
    fn from(e: SparseError) -> Self {
        IoError::Structure(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SparseError::IndexOutOfBounds {
            index: 9,
            bound: 5,
            axis: "column",
        };
        let msg = e.to_string();
        assert!(msg.contains("column index 9"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn non_finite_value_names_the_container() {
        let e = SparseError::NonFiniteValue {
            what: "right-hand side",
            index: 4,
        };
        assert_eq!(
            e.to_string(),
            "non-finite value in right-hand side at index 4"
        );
    }

    #[test]
    fn io_error_wraps_sources() {
        let inner = SparseError::NotSquare { nrows: 2, ncols: 3 };
        let e = IoError::from(inner.clone());
        assert!(e.to_string().contains("2x3"));
        assert!(Error::source(&e).is_some());
        let io = IoError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SparseError>();
        check::<IoError>();
    }
}
