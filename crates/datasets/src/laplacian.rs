//! The Laplacian/stencil workload suite.
//!
//! Native workloads for the PR10 solver families: discrete Laplacians are
//! symmetric positive definite, so they exercise SOR, CG, and the IC(0)
//! preconditioned CG path on exactly the problem class incomplete
//! factorizations were designed for — and their wavefront structure gives
//! the SpTRSV level schedule a predictable shape for the cycle model to
//! price. The suite grows the convergence matrix beyond Table II's 25
//! rows with four stencil families: isotropic 2D/3D Poisson, anisotropic
//! diffusion (stretched grids), and jumped-coefficient diffusion
//! (discontinuous media), each at two sizes.

use acamar_sparse::{generate, CsrMatrix};

/// Which stencil family a Laplacian workload discretizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaplacianKind {
    /// Isotropic 5-point 2D Poisson.
    Poisson2d,
    /// Isotropic 7-point 3D Poisson.
    Poisson3d,
    /// Anisotropic 2D diffusion: the y-direction coupling is scaled by
    /// `eps`, stretching the spectrum the way thin-domain grids do.
    Anisotropic2d {
        /// Transverse diffusion coefficient (`0 < eps`, typically `≪ 1`).
        eps: f64,
    },
    /// 2D diffusion with a piecewise-constant coefficient jumping by a
    /// factor `jump` across the domain midline (layered media).
    JumpCoefficient2d {
        /// Coefficient ratio across the interface (`> 0`).
        jump: f64,
    },
}

/// A named Laplacian workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LaplacianWorkload {
    /// Short name (bench row label).
    pub name: &'static str,
    /// The stencil family.
    pub kind: LaplacianKind,
    /// Grid extent per dimension (`nx`; the suite uses `ny = nx` and,
    /// for 3D, `nz = nx`).
    pub nx: usize,
}

impl LaplacianWorkload {
    /// Generates the coefficient matrix in `f64` (the precision the
    /// preconditioned benches run in).
    pub fn matrix_f64(&self) -> CsrMatrix<f64> {
        match self.kind {
            LaplacianKind::Poisson2d => generate::poisson2d(self.nx, self.nx),
            LaplacianKind::Poisson3d => generate::poisson3d(self.nx, self.nx, self.nx),
            LaplacianKind::Anisotropic2d { eps } => {
                generate::anisotropic_poisson2d(self.nx, self.nx, 1.0, eps)
            }
            LaplacianKind::JumpCoefficient2d { jump } => {
                generate::jump_poisson2d(self.nx, self.nx, jump)
            }
        }
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        match self.kind {
            LaplacianKind::Poisson3d => self.nx * self.nx * self.nx,
            _ => self.nx * self.nx,
        }
    }

    /// The all-ones right-hand side (a uniform source term).
    pub fn rhs(&self) -> Vec<f64> {
        vec![1.0; self.unknowns()]
    }
}

/// The Laplacian suite: four stencil families at two sizes each.
pub fn laplacian_suite() -> Vec<LaplacianWorkload> {
    vec![
        LaplacianWorkload {
            name: "poisson2d-24",
            kind: LaplacianKind::Poisson2d,
            nx: 24,
        },
        LaplacianWorkload {
            name: "poisson2d-40",
            kind: LaplacianKind::Poisson2d,
            nx: 40,
        },
        LaplacianWorkload {
            name: "poisson3d-8",
            kind: LaplacianKind::Poisson3d,
            nx: 8,
        },
        LaplacianWorkload {
            name: "poisson3d-12",
            kind: LaplacianKind::Poisson3d,
            nx: 12,
        },
        LaplacianWorkload {
            name: "aniso2d-24",
            kind: LaplacianKind::Anisotropic2d { eps: 0.05 },
            nx: 24,
        },
        LaplacianWorkload {
            name: "aniso2d-40",
            kind: LaplacianKind::Anisotropic2d { eps: 0.05 },
            nx: 40,
        },
        LaplacianWorkload {
            name: "jump2d-24",
            kind: LaplacianKind::JumpCoefficient2d { jump: 1e3 },
            nx: 24,
        },
        LaplacianWorkload {
            name: "jump2d-40",
            kind: LaplacianKind::JumpCoefficient2d { jump: 1e3 },
            nx: 40,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_solvers::{
        conjugate_gradient, ic0_preconditioned_cg, ConvergenceCriteria, SoftwareKernels,
    };
    use acamar_sparse::analysis;

    #[test]
    fn every_workload_is_symmetric_with_positive_diagonal() {
        for w in laplacian_suite() {
            let a = w.matrix_f64();
            assert_eq!(a.nrows(), w.unknowns(), "{}", w.name);
            assert_eq!(w.rhs().len(), w.unknowns(), "{}", w.name);
            let r = analysis::analyze(&a);
            assert!(r.symmetric, "{} must be symmetric", w.name);
            assert!(
                r.positive_diagonal,
                "{} must have a positive diagonal",
                w.name
            );
        }
    }

    #[test]
    fn ic0_pcg_converges_across_the_suite_in_fewer_iterations_than_cg() {
        let criteria = ConvergenceCriteria::paper().with_max_iterations(4000);
        let mut total_cg = 0usize;
        let mut total_pcg = 0usize;
        for w in laplacian_suite() {
            let a = w.matrix_f64();
            let b = w.rhs();
            let mut kc = SoftwareKernels::new();
            let cg = conjugate_gradient(&a, &b, None, &criteria, &mut kc).unwrap();
            let mut kp = SoftwareKernels::new();
            let pcg = ic0_preconditioned_cg(&a, &b, None, &criteria, &mut kp).unwrap();
            assert!(cg.converged(), "{}: CG {:?}", w.name, cg.outcome);
            assert!(pcg.converged(), "{}: PCG {:?}", w.name, pcg.outcome);
            assert!(
                pcg.iterations <= cg.iterations,
                "{}: PCG {} vs CG {}",
                w.name,
                pcg.iterations,
                cg.iterations
            );
            total_cg += cg.iterations;
            total_pcg += pcg.iterations;
        }
        assert!(
            2 * total_pcg <= total_cg,
            "IC(0) should at least halve total iterations: {total_pcg} vs {total_cg}"
        );
    }
}
