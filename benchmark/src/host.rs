//! Host measurements: peak resident memory, last-level cache size, and a
//! STREAM-style triad that gives the memory-bandwidth roof the SpMV number
//! is expressed against.

use std::hint::black_box;
use std::time::Instant;

const MIB: u64 = 1024 * 1024;

/// Total triad footprint when the LLC size cannot be read.
const FALLBACK_TRIAD_BYTES: u64 = 256 * MIB;

/// Reads a `key:   <n> kB` line from a `/proc` status file, in bytes.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").map_or(0.0, |b| b as f64 / MIB as f64)
}

/// Last-level cache size in bytes, as sysfs reports it for cpu0.
pub fn llc_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1024),
        b'M' => (&t[..t.len() - 1], MIB),
        b'G' => (&t[..t.len() - 1], 1024 * MIB),
        _ => (t, 1),
    };
    Some(digits.parse::<u64>().ok()? * mult)
}

/// What the triad measured and on what footprint.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best-of-sweeps bandwidth of `a[i] = b[i] + s·c[i]`, counting 24
    /// bytes per element (two reads, one write; write-allocate traffic is
    /// not counted, as in STREAM).
    pub gbs: f64,
    pub llc_mib: f64,
    /// Combined size of the three arrays.
    pub array_mib: f64,
    /// `true` when the arrays total at least four times the LLC, so the
    /// number is a memory-bandwidth roof and not a cache number.
    pub beyond_llc: bool,
}

/// Runs the triad on three `f64` arrays totalling `total_bytes`, or by
/// default at least four times the LLC (256 MiB total if the LLC size is
/// unreadable); either way capped at a quarter of `MemAvailable`.
pub fn triad(sweeps: usize, total_bytes: Option<u64>) -> Triad {
    let llc = llc_bytes();
    let want = total_bytes.unwrap_or_else(|| llc.map_or(FALLBACK_TRIAD_BYTES, |b| 4 * b));
    let cap = proc_kb("/proc/meminfo", "MemAvailable:").map_or(want, |b| b / 4);
    let total = want.min(cap);
    let n = total.div_ceil(24).max(1024) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let s = 3.0f64;
    let mut best = f64::INFINITY;
    // The first sweep also faults the pages in; it is never the best.
    for _ in 0..sweeps.max(2) {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Triad {
        gbs: 24.0 * n as f64 / best / 1e9,
        llc_mib: llc.map_or(0.0, |b| b as f64 / MIB as f64),
        array_mib: 24.0 * n as f64 / MIB as f64,
        beyond_llc: llc.is_some_and(|b| 24 * n as u64 >= 4 * b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
