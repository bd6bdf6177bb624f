//! Seeded inputs: the four workloads' system pools and request streams.
//!
//! Everything here is a pure function of `(workload, seed, scale)`. The
//! program under test receives only the generated matrices, right-hand
//! sides and request order; it never sees the seed. The generator is the
//! benchmark's own, so a change to the library's RNG cannot silently change
//! which requests are sent.

use acamar::datasets::{self, StructuralClass};
use acamar::service::Priority;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Right-hand-side variants kept per system.
pub const RHS_VARIANTS: usize = 4;

/// Generator seed of `stencil_long`'s dominant system. Fixed, like the
/// stencils beside it, so that the pool's matrices — and with them the
/// workload's simulated metrics — are the same at every `--seed`; the seed
/// still drives that workload's right-hand sides and request order.
const STENCIL_DOMINANT_SEED: u64 = 0xD0A1;

/// The four workloads. Each names the layers it stresses in `why`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table2Warm,
    StencilLong,
    ColdPatterns,
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table2Warm,
        Workload::StencilLong,
        Workload::ColdPatterns,
        Workload::ServiceMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Warm => "table2_warm",
            Workload::StencilLong => "stencil_long",
            Workload::ColdPatterns => "cold_patterns",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Table2Warm => {
                "the paper's 25 Table II analogs on a warm plan cache: small systems, so fingerprint, cache verify and kernel set-up are 30-55% of a request"
            }
            Workload::StencilLong => {
                "seven large stencil and dominant systems with plans built in set-up: the solver loop is >=95% of a request, so only kernel, dense-op and cycle-accounting changes show"
            }
            Workload::ColdPatterns => {
                "192 distinct seeded patterns cycled through a 16-entry plan cache: every request is a miss plus an eviction, so analysis and compile cost show"
            }
            Workload::ServiceMixed => {
                "2 closed-loop clients x 4 tickets against a 2-shard service over 64 dominant patterns plus Table II: adds admission, routing, queueing and ticket fulfilment"
            }
        }
    }

    /// Plan-cache bound on the engine (`0` = unbounded). `cold_patterns`
    /// keeps it far below the pool so that no request can hit.
    pub fn cache_capacity(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::ColdPatterns, Scale::Full) => 16,
            (Workload::ColdPatterns, Scale::Smoke) => 2,
            _ => 0,
        }
    }

    /// Whether requests are drawn with replacement (a traffic mix) or
    /// visit every system once per round.
    fn stream_kind(self) -> StreamKind {
        match self {
            Workload::Table2Warm | Workload::StencilLong => StreamKind::ShuffledRounds,
            Workload::ColdPatterns => StreamKind::Cyclic,
            Workload::ServiceMixed => StreamKind::Draws,
        }
    }
}

/// `Full` is what the benchmark measures; `Smoke` is a roughly 1/50-size
/// configuration used only by the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// SplitMix64: small, seedable, and independent of the library under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for a named sub-stream of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁵⁰ for the
    /// pool sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One linear system of a pool.
#[derive(Debug)]
pub struct System {
    pub name: String,
    pub a: Arc<CsrMatrix<f64>>,
    /// `RHS_VARIANTS` right-hand sides: all-ones (the repository's usual
    /// choice) times a seeded power of two. A power-of-two scale changes
    /// no rounding, so iteration counts, verdicts and modeled cycles do
    /// not depend on it and a system that converges at scale 1 converges
    /// at every seed.
    pub rhs: Vec<Vec<f64>>,
    /// Symmetric positive definite: a member of the PCG arm.
    pub spd: bool,
}

/// A workload's systems plus how long generating them took.
#[derive(Debug)]
pub struct Pool {
    pub systems: Vec<System>,
    pub generate_s: f64,
}

impl Pool {
    /// Indices of the SPD systems (the PCG arm's members).
    pub fn spd_indices(&self) -> Vec<u32> {
        (0..self.systems.len() as u32)
            .filter(|&i| self.systems[i as usize].spd)
            .collect()
    }

    /// Up to `max` system indices spread evenly over the pool, so a
    /// sample of a multi-class pool keeps every class.
    pub fn sample(&self, max: usize) -> Vec<usize> {
        let n = self.systems.len();
        let k = n.min(max);
        (0..k).map(|i| i * n / k).collect()
    }
}

fn system(name: String, a: CsrMatrix<f64>, spd: bool, rng: &mut Rng) -> System {
    let n = a.nrows();
    let rhs = (0..RHS_VARIANTS)
        .map(|_| vec![2f64.powi(rng.below(7) as i32 - 3); n])
        .collect();
    System {
        name,
        a: Arc::new(a),
        rhs,
        spd,
    }
}

/// The Table II analogs; `take` limits the suite for the smoke scale.
fn table2_systems(take: usize, rng: &mut Rng) -> Vec<System> {
    datasets::suite()
        .into_iter()
        .take(take)
        .map(|d| {
            let spd = matches!(
                d.class,
                StructuralClass::DominantSpd { .. }
                    | StructuralClass::JacobiDivergentSpd { .. }
                    | StructuralClass::IllConditionedSpd { .. }
                    | StructuralClass::Poisson3d { .. }
                    | StructuralClass::ShiftedGridLaplacian { .. }
            );
            system(format!("table2-{}", d.id), d.matrix_f64(), spd, rng)
        })
        .collect()
}

/// The 2D Poisson operator with its diagonal lowered by `shift`: symmetric
/// and, for a shift above the operator's smallest eigenvalue, indefinite.
fn helmholtz(side: usize, shift: f64) -> CsrMatrix<f64> {
    let mut a: CsrMatrix<f64> = generate::poisson2d(side, side);
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let diagonal: Vec<usize> = (0..a.nrows())
        .flat_map(|i| (row_ptr[i]..row_ptr[i + 1]).filter(move |&k| col_idx[k] == i))
        .collect();
    for k in diagonal {
        a.values_mut()[k] -= shift;
    }
    a
}

fn uniform(min: usize, max: usize) -> RowDistribution {
    RowDistribution::Uniform { min, max }
}

/// `count` seeded strictly dominant patterns of `n` rows.
fn dominant_systems(
    tag: &str,
    count: usize,
    n: usize,
    dist: RowDistribution,
    rng: &mut Rng,
) -> Vec<System> {
    (0..count)
        .map(|i| {
            let a = generate::diagonally_dominant(n, dist, 1.5, rng.next_u64());
            system(format!("{tag}-{i}"), a, false, rng)
        })
        .collect()
}

/// Builds `workload`'s pool from `seed`.
pub fn build_pool(workload: Workload, seed: u64, scale: Scale) -> Pool {
    let started = Instant::now();
    let full = scale == Scale::Full;
    let mut rng = Rng::derive(seed, 0x1);
    let systems = match workload {
        Workload::Table2Warm => table2_systems(if full { usize::MAX } else { 2 }, &mut rng),
        Workload::StencilLong => {
            // Grid sides come from a sizing pass on a 2-CPU host: one
            // sweep of the seven is ~0.3 s, so a run holds two dozen sweeps
            // per arm. On helmholtz the Solver Modifier fires (symmetric
            // indefinite: CG breaks down at once, BiCG-STAB finishes);
            // anisotropic is a 3900-iteration Jacobi solve that IC(0)-PCG
            // does in 20; convection-diffusion goes to BiCG-STAB first try;
            // dominant is a 700k-nnz Jacobi solve. No two grids may share a
            // shape: the plan cache keys the solver choice by sparsity
            // pattern alone, so a 128x128 convection-diffusion system would
            // inherit poisson2d-128's CG and burn 5000 iterations before
            // the Solver Modifier rescued it.
            let (he, p2, p3, an, ju, cd, dom) = if full {
                (96, 128, 32, 40, 64, 120, 50_000)
            } else {
                (7, 6, 3, 5, 4, 8, 100)
            };
            let r = &mut rng;
            vec![
                system(format!("helmholtz-{he}"), helmholtz(he, 0.02), false, r),
                system(
                    format!("poisson2d-{p2}"),
                    generate::poisson2d(p2, p2),
                    true,
                    r,
                ),
                system(
                    format!("poisson3d-{p3}"),
                    generate::poisson3d(p3, p3, p3),
                    true,
                    r,
                ),
                system(
                    format!("anisotropic-{an}"),
                    generate::anisotropic_poisson2d(an, an, 1.0, 0.05),
                    true,
                    r,
                ),
                system(
                    format!("jump-{ju}"),
                    generate::jump_poisson2d(ju, ju, 1e3),
                    true,
                    r,
                ),
                system(
                    format!("convection-diffusion-{cd}"),
                    generate::convection_diffusion_2d(cd, cd, 0.5),
                    false,
                    r,
                ),
                system(
                    format!("dominant-{dom}"),
                    generate::diagonally_dominant(dom, uniform(6, 20), 1.5, STENCIL_DOMINANT_SEED),
                    false,
                    r,
                ),
            ]
        }
        Workload::ColdPatterns => {
            let (per_class, shrink) = if full { (64, 1) } else { (2, 20) };
            let mut classes = [
                dominant_systems(
                    "dominant-narrow",
                    per_class,
                    4000 / shrink,
                    uniform(2, 6),
                    &mut rng,
                ),
                (0..per_class)
                    .map(|i| {
                        let a = generate::spd_from_pattern(
                            3000 / shrink,
                            uniform(2, 8),
                            0.3,
                            rng.next_u64(),
                        );
                        system(format!("spd-{i}"), a, true, &mut rng)
                    })
                    .collect(),
                dominant_systems(
                    "dominant-wide",
                    per_class,
                    2000 / shrink,
                    uniform(1, 40),
                    &mut rng,
                ),
            ];
            // Interleave the classes so that any stretch of the cycle is a
            // fair mix of the three.
            (0..per_class)
                .flat_map(|_| [0, 1, 2])
                .map(|c| classes[c].remove(0))
                .collect()
        }
        Workload::ServiceMixed => {
            let (dominant, n, table2) = if full {
                (64, 4000, usize::MAX)
            } else {
                (4, 200, 1)
            };
            let mut s = dominant_systems("dominant", dominant, n, uniform(2, 6), &mut rng);
            s.extend(table2_systems(table2, &mut rng));
            s
        }
    };
    Pool {
        systems,
        generate_s: started.elapsed().as_secs_f64(),
    }
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub sys: u32,
    pub variant: u8,
    /// Cycles Interactive / Batch / Background; only the service reads it.
    pub priority: Priority,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    /// Every member once per round, each round in a fresh seeded order.
    ShuffledRounds,
    /// Every member once per round in one fixed seeded order, so the reuse
    /// distance of a pattern is always the whole pool.
    Cyclic,
    /// Independent uniform draws.
    Draws,
}

/// A deterministic, endless request stream over `members` of a pool.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: StreamKind,
    rng: Rng,
    order: Vec<u32>,
    cursor: usize,
    issued: u64,
}

impl Stream {
    /// The stream `stream_id` of `seed` over `members`, in `workload`'s
    /// request pattern.
    pub fn new(workload: Workload, members: Vec<u32>, seed: u64, stream_id: u64) -> Stream {
        assert!(!members.is_empty(), "a stream needs at least one system");
        let kind = workload.stream_kind();
        let mut rng = Rng::derive(seed, 0x100 + stream_id);
        let mut order = members;
        if kind != StreamKind::Draws {
            rng.shuffle(&mut order);
        }
        Stream {
            kind,
            rng,
            order,
            cursor: 0,
            issued: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let sys = match self.kind {
            StreamKind::Draws => self.order[self.rng.below(self.order.len())],
            StreamKind::ShuffledRounds | StreamKind::Cyclic => {
                if self.cursor == self.order.len() {
                    self.cursor = 0;
                    if self.kind == StreamKind::ShuffledRounds {
                        self.rng.shuffle(&mut self.order);
                    }
                }
                self.cursor += 1;
                self.order[self.cursor - 1]
            }
        };
        let priority =
            [Priority::High, Priority::Normal, Priority::Low][(self.issued % 3) as usize];
        self.issued += 1;
        Request {
            sys,
            variant: self.rng.below(RHS_VARIANTS) as u8,
            priority,
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Request> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_pool_and_request_stream() {
        for w in Workload::ALL {
            let (a, b) = (
                build_pool(w, 11, Scale::Smoke),
                build_pool(w, 11, Scale::Smoke),
            );
            assert_eq!(a.systems.len(), b.systems.len());
            for (x, y) in a.systems.iter().zip(&b.systems) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.a, y.a);
                assert_eq!(x.rhs, y.rhs);
            }
            let members: Vec<u32> = (0..a.systems.len() as u32).collect();
            let mut s1 = Stream::new(w, members.clone(), 11, 0);
            let mut s2 = Stream::new(w, members.clone(), 11, 0);
            assert_eq!(s1.take(64), s2.take(64), "{}", w.name());
            let mut other = Stream::new(w, members, 12, 0);
            let mut s3 = Stream::new(w, (0..a.systems.len() as u32).collect(), 11, 0);
            assert_ne!(s3.take(64), other.take(64), "{}", w.name());
        }
    }

    #[test]
    fn seeded_pools_differ_between_seeds_where_patterns_are_generated() {
        let (a, b) = (
            build_pool(Workload::ColdPatterns, 1, Scale::Smoke),
            build_pool(Workload::ColdPatterns, 2, Scale::Smoke),
        );
        assert_ne!(a.systems[0].a, b.systems[0].a);
    }

    #[test]
    fn cyclic_stream_never_repeats_within_a_round() {
        let members: Vec<u32> = (0..9).collect();
        let mut s = Stream::new(Workload::ColdPatterns, members, 5, 0);
        let first: Vec<u32> = s.take(9).iter().map(|r| r.sys).collect();
        let second: Vec<u32> = s.take(9).iter().map(|r| r.sys).collect();
        assert_eq!(first, second, "the cycle order is fixed");
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn rhs_scales_are_powers_of_two() {
        let pool = build_pool(Workload::StencilLong, 3, Scale::Smoke);
        for s in &pool.systems {
            assert_eq!(s.rhs.len(), RHS_VARIANTS);
            for b in &s.rhs {
                let (m, _) = frexp(b[0]);
                assert_eq!(m, 0.5, "{} is not a power of two", b[0]);
                assert!((0.125..=8.0).contains(&b[0]));
            }
        }
    }

    /// Mantissa in [0.5, 1) and exponent of a positive finite `f64`.
    fn frexp(v: f64) -> (f64, i32) {
        let e = v.log2().floor() as i32 + 1;
        (v / 2f64.powi(e), e)
    }

    #[test]
    fn every_pool_has_members_for_the_pcg_arm() {
        for w in Workload::ALL {
            let pool = build_pool(w, 1, Scale::Smoke);
            assert!(!pool.spd_indices().is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn sample_spreads_over_the_pool() {
        let pool = build_pool(Workload::ColdPatterns, 1, Scale::Smoke);
        assert_eq!(pool.sample(3), vec![0, 2, 4]);
        assert_eq!(pool.sample(100).len(), pool.systems.len());
    }
}
