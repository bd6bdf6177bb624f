//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's datasets come from the SuiteSparse collection, which is
//! distributed in Matrix Market format. This reader/writer supports the
//! `matrix coordinate` container with `real`/`integer`/`pattern` fields and
//! `general`/`symmetric`/`skew-symmetric` storage, which covers every
//! matrix in the paper's Table II.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::IoError;
use crate::scalar::Scalar;
use std::io::{BufRead, BufReader, Read, Write};

/// Symmetry qualifier of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; `(i, j)` implies `(j, i)`.
    Symmetric,
    /// Lower triangle stored; `(i, j)` implies `-(j, i)`.
    SkewSymmetric,
}

/// The largest row or column count [`read_matrix_market`] accepts: a
/// compiled plan's slots are `u32`.
const MAX_DIMENSION: usize = u32::MAX as usize;

/// How many rows (or columns) [`read_matrix_market`] accepts per entry
/// line the file delivers. An empty row costs the file nothing but costs
/// the CSR conversion a row offset, so without this bound a one-entry
/// file could make the reader allocate gigabytes.
const DIMENSION_PER_ENTRY: usize = 64;

/// Reads a Matrix Market coordinate file into CSR form.
///
/// Symmetric and skew-symmetric storage is expanded to general storage.
/// `pattern` files produce matrices of ones.
///
/// The size line is untrusted. A row or column count above `u32::MAX`
/// (the width of a compiled plan's slots) is refused at the size line,
/// and one above 64 times the entry lines the file delivers (at least
/// one) is refused once they are read; both before anything is allocated
/// from it. The entry count sizes nothing: the entries the file delivers
/// do.
///
/// # Errors
///
/// Returns [`IoError`] on malformed headers, non-numeric data, a
/// dimension above `u32::MAX` or above 64 rows or columns per entry,
/// index overflow, or unsupported features (`complex` field, `array`
/// container).
///
/// # Examples
///
/// ```
/// use acamar_sparse::io::read_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 2 4.0\n";
/// let a = read_matrix_market::<f64, _>(text.as_bytes())?;
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.get(1, 1), 4.0);
/// # Ok::<(), acamar_sparse::IoError>(())
/// ```
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CsrMatrix<T>, IoError> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    // Header line.
    let header = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: line_no,
                    message: "empty file".into(),
                })
            }
        }
    };
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("bad header: {header:?}"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(IoError::Unsupported(format!("container {:?}", toks[2])));
    }
    let pattern = match toks[3].as_str() {
        "real" | "integer" | "double" => false,
        "pattern" => true,
        other => return Err(IoError::Unsupported(format!("field {other:?}"))),
    };
    let symmetry = match toks[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(IoError::Unsupported(format!("symmetry {other:?}"))),
    };

    // Size line (skipping comments).
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(IoError::Parse {
                    line: line_no,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| IoError::Parse {
            line: line_no,
            message: format!("bad size line: {e}"),
        })?;
    if dims.len() != 3 {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("size line needs 3 fields, got {}", dims.len()),
        });
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    let size_line_no = line_no;
    // The CSR conversion allocates `nrows + 1` row offsets: refuse an
    // oversized dimension here, before anything is sized by it.
    if let Some(d) = [nrows, ncols].into_iter().find(|&d| d > MAX_DIMENSION) {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("dimension {d} exceeds the limit of {MAX_DIMENSION}"),
        });
    }

    // The size line's count is untrusted: reserve nothing for it, and let
    // the entries the file delivers size the buffer.
    let mut coo = CooMatrix::<T>::new(nrows, ncols);
    let mut seen = 0usize;
    for l in lines {
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing row index"))?
            .parse()
            .map_err(|e| parse_err(line_no, &format!("bad row index: {e}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing column index"))?
            .parse()
            .map_err(|e| parse_err(line_no, &format!("bad column index: {e}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err(line_no, "missing value"))?
                .parse()
                .map_err(|e| parse_err(line_no, &format!("bad value: {e}")))?
        };
        if i == 0 || j == 0 {
            return Err(parse_err(line_no, "matrix market indices are 1-based"));
        }
        let (r, c) = (i - 1, j - 1);
        coo.push(r, c, T::from_f64(v))?;
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if r != c {
                    coo.push(c, r, T::from_f64(v))?;
                }
            }
            MmSymmetry::SkewSymmetric => {
                if r != c {
                    coo.push(c, r, T::from_f64(-v))?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    // The CSR conversion sizes its row offsets by `nrows`: bound it (and
    // `ncols`) by what the file delivered before converting.
    let limit = DIMENSION_PER_ENTRY.saturating_mul(seen.max(1));
    if let Some(d) = [nrows, ncols].into_iter().find(|&d| d > limit) {
        return Err(IoError::Parse {
            line: size_line_no,
            message: format!(
                "dimension {d} exceeds {DIMENSION_PER_ENTRY} per entry line delivered \
                 ({seen}): limit {limit}"
            ),
        });
    }
    Ok(coo.to_csr())
}

fn parse_err(line: usize, message: &str) -> IoError {
    IoError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Writes a CSR matrix as `matrix coordinate real general`.
///
/// # Errors
///
/// Propagates any I/O error from `writer`.
///
/// # Examples
///
/// ```
/// use acamar_sparse::io::{read_matrix_market, write_matrix_market};
/// use acamar_sparse::CsrMatrix;
///
/// let a = CsrMatrix::<f64>::identity(3);
/// let mut buf = Vec::new();
/// write_matrix_market(&a, &mut buf)?;
/// let b = read_matrix_market::<f64, _>(buf.as_slice())?;
/// assert_eq!(a, b);
/// # Ok::<(), acamar_sparse::IoError>(())
/// ```
pub fn write_matrix_market<T: Scalar, W: Write>(
    a: &CsrMatrix<T>,
    mut writer: W,
) -> Result<(), IoError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by acamar-sparse")?;
    writeln!(writer, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, cols, vals) in a.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:e}", i + 1, c + 1, v.to_f64())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 2 1.5\n\
                    3 3 -2.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.get(0, 1), 1.5);
        assert_eq!(a.get(2, 2), -2.0);
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 1.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn expands_skew_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.get(1, 0), 3.0);
        assert_eq!(a.get(0, 1), -3.0);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    2 2\n";
        let a = read_matrix_market::<f32, _>(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(matches!(
            read_matrix_market::<f64, _>("garbage\n".as_bytes()),
            Err(IoError::Parse { .. })
        ));
        assert!(matches!(
            read_matrix_market::<f64, _>(
                "%%MatrixMarket matrix array real general\n2 2\n".as_bytes()
            ),
            Err(IoError::Unsupported(_))
        ));
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market::<f64, _>(short.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_an_entry_count_the_file_does_not_deliver_without_reserving_it() {
        for n in ["10000000000", "4611686018427387904", "9223372036854775808"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n1 1 {n}\n1 1 1.0\n");
            match read_matrix_market::<f64, _>(text.as_bytes()) {
                Err(IoError::Parse { message, .. }) => {
                    assert_eq!(message, format!("expected {n} entries, found 1"));
                }
                other => panic!("size line `1 1 {n}`: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_a_dimension_above_u32_max_at_the_size_line() {
        // The entry after the size line is malformed: an error from any
        // later stage would name line 3, so a line-2 error shows that the
        // reader stopped at the size line, before the COO buffer or the
        // CSR row offsets were sized.
        for (size, d) in [
            ("1000000000000 1 1", "1000000000000"),
            ("4294967296 1 1", "4294967296"),
            ("1 4294967296 1", "4294967296"),
        ] {
            for entry in ["1 1 1.0", "not an entry"] {
                let text =
                    format!("%%MatrixMarket matrix coordinate real general\n{size}\n{entry}\n");
                match read_matrix_market::<f64, _>(text.as_bytes()) {
                    Err(IoError::Parse { line, message }) => {
                        assert_eq!(line, 2, "size line `{size}`");
                        assert_eq!(
                            message,
                            format!("dimension {d} exceeds the limit of 4294967295")
                        );
                    }
                    other => panic!("size line `{size}`: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_a_dimension_above_64_per_delivered_entry_before_converting() {
        // `4294967295 1 1` passes the `u32::MAX` check; unrefused, its CSR
        // conversion would ask for two 34 GB row-offset arrays.
        for (size, d) in [
            ("4294967295 1 1", 4294967295usize),
            ("1 65 1", 65),
            ("65 1 1", 65),
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n");
            match read_matrix_market::<f64, _>(text.as_bytes()) {
                Err(IoError::Parse { line, message }) => {
                    assert_eq!(line, 2, "size line `{size}`");
                    assert_eq!(
                        message,
                        format!("dimension {d} exceeds 64 per entry line delivered (1): limit 64")
                    );
                }
                other => panic!("size line `{size}`: {other:?}"),
            }
        }
        // Just inside the bound: 64 rows and columns per delivered entry
        // (at least one), empty rows and columns included.
        let inside = "%%MatrixMarket matrix coordinate real general\n64 64 1\n64 1 2.5\n";
        let a = read_matrix_market::<f64, _>(inside.as_bytes()).expect("inside the bound");
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (64, 64, 1));
        assert_eq!(a.get(63, 0), 2.5);
        let two = "%%MatrixMarket matrix coordinate real general\n128 3 2\n1 1 1.0\n128 3 1.0\n";
        let a = read_matrix_market::<f64, _>(two.as_bytes()).expect("inside the bound");
        assert_eq!(a.nrows(), 128);
        let empty = "%%MatrixMarket matrix coordinate real general\n64 64 0\n";
        assert_eq!(
            read_matrix_market::<f64, _>(empty.as_bytes())
                .unwrap()
                .nrows(),
            64
        );
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(matches!(
            read_matrix_market::<f64, _>(text.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn write_read_round_trip() {
        let a =
            CsrMatrix::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.25, -0.5, 1e-9])
                .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market::<f64, _>(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }
}
