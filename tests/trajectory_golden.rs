//! Pinned trajectories: every objective of a run, to the bit, plus a
//! digest of its final factors, against `golden/trajectories.txt`. The
//! AVX2 and portable kernels round the same, so one file serves both:
//! the test reruns itself in a child pinned by `NMF_FORCE_SCALAR=1`
//! where the process chose the AVX2 kernels. Every line was written by
//! an earlier build and is committed unedited; a mismatch is a
//! trajectory change, never a reason to regenerate the file. In order:
//!
//! * 18 lines from the build in which Algorithm 1 still had a
//!   communication scheme of its own (`seq` now runs Algorithm 3 on a
//!   1×1 grid; `hpc1d` and `grid1x2` are the two p = 2 grids with a grid
//!   dimension of size 1);
//! * 36 from the build that cold-started every BPP solve: a 2×2 grid
//!   (column windows past column 0), Naive on 2 and 3 ranks (ragged
//!   blocks), and a Webbase-like input, relabelled before it is dealt;
//! * 12 BPP lines at k = 32 and 33 from the build whose guard took two
//!   dense `dot4` passes: the first to reach the fused dot products
//!   (from 32 elements on) and their `k % 4` tail;
//! * 16 MU and HALS lines at k = 32 and 33, from the last build whose
//!   portable dot products summed unfused (written on its AVX2 path; all
//!   16 failed it under `NMF_FORCE_SCALAR=1`): MU's `X·Gᵀ` and HALS's
//!   column updates pin the portable `dot4`/`dot` order.

use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;
use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{self, KernelPath};
use nmf_matrix::Mat;
use nmf_sparse::gen::erdos_renyi;

/// FNV-1a over the bits of every entry, row-major.
fn digest(m: &Mat) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// One case as a `name objectives w=… h=…` line.
fn render(
    name: &str,
    input: &Input,
    algo: Algo,
    ranks: usize,
    solver: SolverKind,
    k: usize,
) -> String {
    let config = NmfConfig::new(k)
        .with_solver(solver)
        .with_max_iters(6)
        .with_seed(9);
    let mut model = Nmf::on(input)
        .config(config)
        .algo(algo)
        .ranks(ranks)
        .build()
        .expect("valid request");
    model.run();
    let history: Vec<String> = model
        .records()
        .iter()
        .map(|r| format!("{:016x}", r.objective.to_bits()))
        .collect();
    let (w, h) = model.factors();
    format!(
        "{name} {} w={:016x} h={:016x}",
        history.join(","),
        digest(&w),
        digest(&h)
    )
}

fn rendered() -> Vec<String> {
    let inputs = [
        ("dense", Input::Dense(Mat::uniform(57, 41, 91))),
        ("sparse", Input::Sparse(erdos_renyi(83, 61, 0.12, 92))),
        ("webbase", DatasetKind::Webbase.build(1000, 93).input),
    ];
    let runs = [
        ("seq", Algo::Sequential, 1),
        ("hpc1d", Algo::Hpc1D, 2),
        ("grid1x2", Algo::HpcGrid(Grid::new(1, 2)), 2),
        ("grid2x2", Algo::HpcGrid(Grid::new(2, 2)), 4),
        ("naive2", Algo::Naive, 2),
        ("naive3", Algo::Naive, 3),
    ];
    let solvers = [
        ("bpp", SolverKind::Bpp),
        ("mu", SolverKind::Mu),
        ("hals", SolverKind::Hals),
    ];
    // In the order the golden lines were written: the first three runs on
    // the first two inputs, then the other runs on those inputs, then
    // every run on the power-law input.
    let blocks = [
        (&inputs[..2], &runs[..3]),
        (&inputs[..2], &runs[3..]),
        (&inputs[2..], &runs[..]),
    ];
    let mut lines = Vec::new();
    for (inputs, runs) in blocks {
        for (input_name, input) in inputs {
            for &(run_name, algo, ranks) in runs {
                for (solver_name, solver) in solvers {
                    let name = format!("{run_name}_{input_name}_{solver_name}");
                    lines.push(render(&name, input, algo, ranks, solver, 5));
                }
            }
        }
    }
    for k in [32, 33] {
        for (input_name, input) in &inputs {
            for &(run_name, algo, ranks) in [&runs[0], &runs[3]] {
                let name = format!("{run_name}_{input_name}_bpp_k{k}");
                lines.push(render(&name, input, algo, ranks, SolverKind::Bpp, k));
            }
        }
    }
    for k in [32, 33] {
        for (input_name, input) in [&inputs[0], &inputs[2]] {
            for &(run_name, algo, ranks) in [&runs[0], &runs[3]] {
                for &(solver_name, solver) in &solvers[1..] {
                    let name = format!("{run_name}_{input_name}_{solver_name}_k{k}");
                    lines.push(render(&name, input, algo, ranks, solver, k));
                }
            }
        }
    }
    lines
}

#[test]
fn trajectories_match_the_golden_file() {
    let want: Vec<&str> = include_str!("golden/trajectories.txt").lines().collect();
    let got = rendered();
    assert_eq!(
        want.len(),
        got.len(),
        "the golden file has {} cases, the test runs {} ({}):\n{}",
        want.len(),
        got.len(),
        simd::active_name(),
        got.join("\n")
    );
    for (want, got) in want.iter().zip(&got) {
        assert_eq!(want, got, "{}", simd::active_name());
    }
}

#[test]
fn portable_kernels_match_too() {
    if simd::active() != KernelPath::Avx2Fma {
        return; // this process already runs the portable kernels
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["trajectories_match_the_golden_file", "--exact"])
        .env("NMF_FORCE_SCALAR", "1")
        .output()
        .expect("rerun the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "portable kernels:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
