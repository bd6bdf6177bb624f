//! `acamar-cli`: command-line front end for the Acamar reproduction.
//!
//! ```text
//! acamar-cli analyze  <file.mtx>
//! acamar-cli solve    <file.mtx> [--solver auto|jb|cg|bicgstab|pcg|gmres]
//!                                [--tol 1e-5] [--max-iters 10000]
//!                                [--static-urb N]
//! acamar-cli generate <kind> [dims...] --out <file.mtx> [--seed S]
//!             kinds: poisson2d NX NY | poisson3d NX NY NZ |
//!                    dominant N | spd N | convection NX NY PECLET
//! acamar-cli datasets
//! acamar-cli dataset  <ID>
//! ```

use acamar::core::{Acamar, AcamarConfig, MatrixStructureUnit};
use acamar::datasets;
use acamar::prelude::*;
use acamar::solvers::solve_with;
use acamar::sparse::generate::RowDistribution;
use acamar::sparse::io::{read_matrix_market, write_matrix_market};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `acamar-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage());
            Ok(())
        }
        Some("analyze") => analyze(args.get(1).ok_or("analyze needs a .mtx path")?),
        Some("solve") => solve(&args[1..]),
        Some("generate") => generate_cmd(&args[1..]),
        Some("datasets") => {
            list_datasets();
            Ok(())
        }
        Some("dataset") => dataset_cmd(args.get(1).ok_or("dataset needs an ID (e.g. 2C)")?),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn usage() -> String {
    "acamar-cli — dynamically reconfigurable sparse-solver accelerator (behavioral model)\n\
     \n\
     commands:\n\
       analyze  <file.mtx>                     structural report (Matrix Structure unit)\n\
       solve    <file.mtx> [options]           solve Ax=b (b = ones) on the fabric model\n\
         --solver auto|jb|cg|bicgstab|pcg|bicg|cr|gs|sor|gmres (default auto)\n\
           (pcg: IC(0)-PCG, Jacobi-scaled if IC(0) breaks down; gmres: restart 60)\n\
         --tol <t>                                convergence tolerance (default 1e-5)\n\
         --max-iters <n>                          iteration budget (default 10000)\n\
         --static-urb <u>                         run the static baseline at SpMV_URB=u\n\
       generate <kind> [dims...] --out <file>  write a synthetic matrix\n\
         kinds: poisson2d NX NY | poisson3d NX NY NZ | dominant N | spd N |\n\
                convection NX NY PECLET        (--seed <s> for randomized kinds)\n\
       datasets                                list the Table II dataset suite\n\
       dataset <ID>                            run one Table II row (e.g. 2C)\n\
       help                                    this text\n"
        .to_string()
}

/// Parsed command line: positional arguments and `--flag value` pairs.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Parses `--flag value` style options, returning (positional, flags).
fn parse_flags(args: &[String]) -> Result<ParsedArgs, String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let v = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), v.clone()));
        } else {
            pos.push(a.clone());
        }
    }
    Ok((pos, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn load(path: &str) -> Result<CsrMatrix<f32>, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_matrix_market::<f32, _>(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn analyze(path: &str) -> Result<(), String> {
    let a = load(path)?;
    let d = MatrixStructureUnit::new().analyze(&a);
    println!(
        "{path}: {} x {}, {} non-zeros ({:.4}% dense)",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        100.0 * a.density()
    );
    println!("  symmetric (CSR==CSC):          {}", d.report.symmetric);
    println!(
        "  pattern symmetric:             {}",
        d.report.pattern_symmetric
    );
    println!(
        "  strictly diagonally dominant:  {}",
        d.report.strictly_diagonally_dominant
    );
    println!(
        "  weakly diagonally dominant:    {}",
        d.report.weakly_diagonally_dominant
    );
    println!(
        "  nonzero diagonal:              {}",
        d.report.nonzero_diagonal
    );
    println!(
        "  mixed-sign diagonal:           {}",
        d.report.mixed_sign_diagonal
    );
    println!(
        "  gershgorin definiteness:       {}",
        d.report.gershgorin_definiteness
    );
    println!("  half bandwidth:                {}", d.report.bandwidth);
    println!("  recommended solver:            {}", d.solver);
    Ok(())
}

fn parse_solver(s: &str) -> Result<Option<SolverKind>, String> {
    Ok(Some(match s.to_ascii_lowercase().as_str() {
        "auto" => return Ok(None),
        "jb" | "jacobi" => SolverKind::Jacobi,
        "cg" => SolverKind::ConjugateGradient,
        "bicgstab" | "bicg-stab" => SolverKind::BiCgStab,
        "pcg" => SolverKind::PreconditionedCg,
        "bicg" => SolverKind::BiCg,
        "cr" => SolverKind::ConjugateResidual,
        "gs" | "gauss-seidel" => SolverKind::GaussSeidel,
        "sor" => SolverKind::Sor,
        "gmres" => SolverKind::Gmres,
        other => return Err(format!("unknown solver {other:?}")),
    }))
}

fn solve(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("solve needs a .mtx path")?;
    let a = load(path)?;
    if a.nrows() != a.ncols() {
        return Err(format!(
            "matrix is {}x{}, need square",
            a.nrows(),
            a.ncols()
        ));
    }
    let b = vec![1.0_f32; a.nrows()];
    let tol: f64 = flag(&flags, "tol")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --tol: {e}"))?
        .unwrap_or(1e-5);
    let max_iters: usize = flag(&flags, "max-iters")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --max-iters: {e}"))?
        .unwrap_or(10_000);
    let criteria = ConvergenceCriteria::paper()
        .with_tolerance(tol)
        .with_max_iterations(max_iters);

    if let Some(urb) = flag(&flags, "static-urb") {
        let urb: usize = urb.parse().map_err(|e| format!("bad --static-urb: {e}"))?;
        let solver = parse_solver(flag(&flags, "solver").unwrap_or("cg"))?
            .ok_or("--static-urb needs an explicit --solver")?;
        let run = StaticAccelerator::new(FabricSpec::alveo_u55c(), solver, urb)
            .run(&a, &b, &criteria)
            .map_err(|e| e.to_string())?;
        println!(
            "static {solver} @ URB={urb}: {} in {} iterations, {:.3} ms, \
             {:.1}% SpMV underutilization",
            run.solve.outcome,
            run.solve.iterations,
            run.compute_seconds() * 1e3,
            100.0 * run.stats.spmv.underutilization()
        );
        return Ok(());
    }

    match parse_solver(flag(&flags, "solver").unwrap_or("auto"))? {
        None => {
            let cfg = AcamarConfig::paper().with_criteria(criteria);
            let rep = Acamar::new(FabricSpec::alveo_u55c(), cfg)
                .run(&a, &b)
                .map_err(|e| e.to_string())?;
            for (i, at) in rep.attempts.iter().enumerate() {
                println!(
                    "attempt {}: {} -> {} ({} iterations)",
                    i + 1,
                    at.solver,
                    at.outcome,
                    at.iterations
                );
            }
            println!(
                "acamar: {} via {}; {:.3} ms compute + {:.3} ms reconfig; \
                 {:.1}% SpMV underutilization; {:.1}% of peak throughput",
                rep.solve.outcome,
                rep.final_solver(),
                rep.compute_seconds() * 1e3,
                (rep.total_seconds() - rep.compute_seconds()) * 1e3,
                100.0 * rep.stats.spmv.underutilization(),
                100.0 * rep.stats.achieved_throughput()
            );
        }
        Some(kind) => {
            let mut k = SoftwareKernels::new();
            let rep =
                solve_with(kind, &a, &b, None, &criteria, &mut k).map_err(|e| e.to_string())?;
            println!(
                "{kind}: {} in {} iterations (final residual {:.2e}, {} SpMV calls)",
                rep.outcome,
                rep.iterations,
                rep.final_residual(),
                rep.counts.spmv_calls
            );
        }
    }
    Ok(())
}

fn generate_cmd(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let out = flag(&flags, "out").ok_or("generate needs --out <file.mtx>")?;
    let seed: u64 = flag(&flags, "seed")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --seed: {e}"))?
        .unwrap_or(42);
    let dim = |i: usize| -> Result<usize, String> {
        pos.get(i)
            .ok_or_else(|| format!("missing dimension argument {i}"))?
            .parse()
            .map_err(|e| format!("bad dimension: {e}"))
    };
    let a: CsrMatrix<f32> = match pos.first().map(String::as_str) {
        Some("poisson2d") => generate::poisson2d(dim(1)?, dim(2)?),
        Some("poisson3d") => generate::poisson3d(dim(1)?, dim(2)?, dim(3)?),
        Some("dominant") => generate::diagonally_dominant(
            dim(1)?,
            RowDistribution::Uniform { min: 2, max: 9 },
            1.5,
            seed,
        ),
        Some("spd") => generate::spd_from_pattern(
            dim(1)?,
            RowDistribution::Uniform { min: 2, max: 9 },
            0.3,
            seed,
        ),
        Some("convection") => {
            let p: f64 = pos
                .get(3)
                .ok_or("convection needs NX NY PECLET")?
                .parse()
                .map_err(|e| format!("bad peclet: {e}"))?;
            generate::convection_diffusion_2d(dim(1)?, dim(2)?, p)
        }
        Some(k) => return Err(format!("unknown kind {k:?}")),
        None => return Err("generate needs a kind".into()),
    };
    let f = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_matrix_market(&a, BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} x {}, {} non-zeros",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    Ok(())
}

fn list_datasets() {
    println!(
        "{:<4} {:<18} {:>9} {:>7}  expected (JB CG BiCG)",
        "ID", "name", "paper dim", "dim"
    );
    for d in datasets::suite() {
        println!(
            "{:<4} {:<18} {:>9} {:>7}  {}",
            d.id,
            d.name,
            d.paper_dim,
            d.matrix_rows(),
            d.expected.marks()
        );
    }
}

fn dataset_cmd(id: &str) -> Result<(), String> {
    let d = datasets::by_id(id).ok_or_else(|| format!("no dataset with id {id:?}"))?;
    println!("{} ({}), analog dim {}", d.id, d.name, d.matrix_rows());
    let triple = datasets::verify::measure_triple(&d);
    println!(
        "expected: {}   measured: {}",
        d.expected.marks(),
        triple.measured.marks()
    );
    let cfg = AcamarConfig::paper().with_criteria(datasets::verify::table2_criteria());
    let rep = Acamar::new(FabricSpec::alveo_u55c(), cfg)
        .run(&d.matrix(), &d.rhs())
        .map_err(|e| e.to_string())?;
    println!(
        "acamar: {} via {} ({} switches)",
        rep.solve.outcome,
        rep.final_solver(),
        rep.solver_switches()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_splits_positionals_and_flags() {
        let args: Vec<String> = ["a.mtx", "--solver", "cg", "--tol", "1e-6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["a.mtx"]);
        assert_eq!(flag(&flags, "solver"), Some("cg"));
        assert_eq!(flag(&flags, "tol"), Some("1e-6"));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn parse_flags_rejects_dangling_flag() {
        let args: Vec<String> = vec!["--solver".into()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_solver_accepts_all_names() {
        assert_eq!(parse_solver("auto").unwrap(), None);
        assert_eq!(parse_solver("JB").unwrap(), Some(SolverKind::Jacobi));
        assert_eq!(
            parse_solver("bicg-stab").unwrap(),
            Some(SolverKind::BiCgStab)
        );
        assert_eq!(
            parse_solver("pcg").unwrap(),
            Some(SolverKind::PreconditionedCg)
        );
        assert!(parse_solver("nope").is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_ok()); // help
    }

    #[test]
    fn generate_then_solve_round_trip() {
        let dir = std::env::temp_dir().join("acamar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p2d.mtx");
        let path_s = path.to_str().unwrap().to_string();
        run(&[
            "generate".into(),
            "poisson2d".into(),
            "8".into(),
            "8".into(),
            "--out".into(),
            path_s.clone(),
        ])
        .unwrap();
        run(&["analyze".into(), path_s.clone()]).unwrap();
        run(&["solve".into(), path_s.clone()]).unwrap();
        run(&[
            "solve".into(),
            path_s.clone(),
            "--solver".into(),
            "cg".into(),
        ])
        .unwrap();
        run(&[
            "solve".into(),
            path_s,
            "--solver".into(),
            "jb".into(),
            "--static-urb".into(),
            "8".into(),
        ])
        .unwrap();
    }

    #[test]
    fn dataset_commands_work() {
        list_datasets();
        assert!(dataset_cmd("Wa").is_ok());
        assert!(dataset_cmd("zz").is_err());
    }
}
