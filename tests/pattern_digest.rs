//! `CsrPattern` keeps its digest in a `OnceLock`, so threads that digest
//! one pattern at once race to fill it. Every one of them must read the
//! same key, and the pattern must answer that key afterwards.
//!
//! This lives outside `acamar-sparse` because the kernel crates spawn no
//! threads (DESIGN §3). That the cell is filled by the first digest is
//! checked beside the private field, in `csr.rs`'s single-thread tests.

use acamar::sparse::CsrMatrix;

fn tri3() -> CsrMatrix<f64> {
    CsrMatrix::try_from_parts(
        3,
        3,
        vec![0, 2, 5, 7],
        vec![0, 1, 0, 1, 2, 1, 2],
        vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
    )
    .unwrap()
}

#[test]
fn threads_digesting_one_pattern_at_once_agree() {
    let a = tri3();
    let key = tri3().pattern().digest();
    let start = std::sync::Barrier::new(4);
    let keys: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    a.pattern().digest()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("digest thread"))
            .collect()
    });
    assert_eq!(keys, vec![key; 4]);
    assert_eq!(a.pattern().digest(), key);
    assert_eq!(a.clone().pattern().digest(), key, "a clone made after");
}
