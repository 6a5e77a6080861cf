//! Builder validation coverage: every [`NmfError`] variant is
//! constructible through the public API and carries an actionable
//! message (one that states the violated constraint *and* a value that
//! would satisfy it). This is the contract that lets `nmf_cli` and
//! future serving layers surface configuration problems to users
//! verbatim instead of translating panics.

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;

fn input(m: usize, n: usize) -> Input {
    Input::Dense(Mat::uniform(m, n, 3))
}

/// Builds with `f` applied to a baseline-valid builder and returns the
/// error it must produce.
fn build_err(a: &Input, f: impl FnOnce(NmfBuilder) -> NmfBuilder) -> NmfError {
    f(Nmf::on(a).rank(3)).build().expect_err("must be invalid")
}

#[test]
fn baseline_builder_is_valid() {
    let a = input(20, 15);
    assert!(Nmf::on(&a).rank(3).build().is_ok());
}

#[test]
fn empty_input_is_rejected() {
    let a = Input::Dense(Mat::zeros(0, 5));
    let e = build_err(&a, |b| b);
    assert!(matches!(e, NmfError::EmptyInput { m: 0, n: 5 }));
    assert!(e.to_string().contains("0x5"), "{e}");
}

#[test]
fn missing_rank_is_rejected_with_a_hint() {
    let a = input(20, 15);
    let e = Nmf::on(&a).build().expect_err("no rank set");
    assert!(matches!(e, NmfError::MissingRank));
    assert!(e.to_string().contains(".rank(k)"), "{e}");
}

#[test]
fn rank_out_of_range_names_the_valid_interval() {
    let a = input(20, 15);
    for k in [0, 16, 1000] {
        let e = build_err(&a, |b| b.rank(k));
        assert!(matches!(e, NmfError::RankOutOfRange { .. }));
        assert!(
            e.to_string().contains("1..=15"),
            "message must name the valid range: {e}"
        );
    }
    // Boundary values are fine.
    assert!(Nmf::on(&a).rank(1).build().is_ok());
    assert!(Nmf::on(&a).rank(15).build().is_ok());
}

#[test]
fn bpp_rank_limit_suggests_an_alternative() {
    let a = input(300, 200);
    let e = build_err(&a, |b| b.rank(129).solver(SolverKind::Bpp));
    assert!(matches!(
        e,
        NmfError::SolverRankLimit {
            k: 129,
            limit: 128,
            ..
        }
    ));
    assert!(e.to_string().contains("Hals"), "{e}");
    // Other solvers take the same k.
    assert!(Nmf::on(&a)
        .rank(129)
        .solver(SolverKind::Hals)
        .build()
        .is_ok());
}

#[test]
fn zero_ranks_is_rejected() {
    let a = input(20, 15);
    let e = build_err(&a, |b| b.ranks(0));
    assert!(matches!(e, NmfError::NoRanks));
    assert!(e.to_string().contains("p >= 1"), "{e}");
}

#[test]
fn sequential_on_many_ranks_is_rejected() {
    let a = input(20, 15);
    let e = build_err(&a, |b| b.algo(Algo::Sequential).ranks(4));
    assert!(matches!(e, NmfError::SequentialRanks { ranks: 4 }));
    assert!(e.to_string().contains(".ranks(1)"), "{e}");
}

#[test]
fn naive_beyond_the_short_dimension_is_rejected() {
    let a = input(20, 15);
    let e = build_err(&a, |b| b.algo(Algo::Naive).ranks(16));
    assert!(matches!(e, NmfError::TooManyRanks { ranks: 16, .. }));
    assert!(
        e.to_string().contains("at most 15"),
        "message must name the cap: {e}"
    );
    assert!(Nmf::on(&a)
        .rank(3)
        .algo(Algo::Naive)
        .ranks(15)
        .build()
        .is_ok());
}

#[test]
fn grid_mismatch_lists_the_valid_grids() {
    let a = input(40, 30);
    let e = build_err(&a, |b| b.algo(Algo::HpcGrid(Grid::new(2, 3))).ranks(4));
    assert!(matches!(e, NmfError::GridMismatch { ranks: 4, .. }));
    let msg = e.to_string();
    for g in ["1x4", "2x2", "4x1"] {
        assert!(msg.contains(g), "suggestions must include {g}: {msg}");
    }
}

#[test]
fn oversized_grid_reports_the_largest_fit() {
    let a = input(20, 16);
    let e = build_err(&a, |b| {
        b.rank(2).algo(Algo::HpcGrid(Grid::new(8, 8))).ranks(64)
    });
    assert!(matches!(e, NmfError::GridTooLarge { .. }));
    assert!(
        e.to_string().contains("ranks fit"),
        "message must suggest a fitting rank count: {e}"
    );
}

#[test]
fn bad_tolerances_are_rejected() {
    let a = input(20, 15);
    for t in [-1.0, f64::NAN, f64::INFINITY] {
        let e = build_err(&a, |b| b.tol(t));
        assert!(matches!(e, NmfError::InvalidTolerance { .. }), "tol {t}");
    }
    let e = build_err(&a, |b| {
        b.convergence(ConvergencePolicy::RelTol { tol: -0.5 })
    });
    assert!(matches!(e, NmfError::InvalidTolerance { .. }));
}

#[test]
fn empty_window_is_rejected() {
    let a = input(20, 15);
    let e = build_err(&a, |b| {
        b.convergence(ConvergencePolicy::WindowedBudget {
            window: 0,
            tol: 1e-4,
            budget: None,
        })
    });
    assert!(matches!(e, NmfError::InvalidWindow));
    assert!(e.to_string().contains("window >= 1"), "{e}");
}

#[test]
fn negative_regularization_is_an_error_not_a_panic() {
    let a = input(20, 15);
    let e = build_err(&a, |b| b.l2(-0.1, 0.0));
    assert!(matches!(e, NmfError::InvalidRegularization { .. }));
    let e = build_err(&a, |b| b.l2(0.0, f64::NAN));
    assert!(matches!(e, NmfError::InvalidRegularization { .. }));
    assert!(Nmf::on(&a).rank(3).l2(0.1, 0.2).build().is_ok());
}

#[test]
fn warm_start_shapes_are_validated() {
    let a = input(20, 15);
    let e = build_err(&a, |b| b.warm_start(Mat::zeros(5, 3), Mat::zeros(15, 3)));
    assert!(matches!(e, NmfError::WarmStartShape { which: "W", .. }));
    assert!(e.to_string().contains("20x3"), "expected shape named: {e}");
    let e = build_err(&a, |b| b.warm_start(Mat::zeros(20, 3), Mat::zeros(15, 4)));
    assert!(matches!(e, NmfError::WarmStartShape { which: "H^T", .. }));
}

#[test]
fn warm_start_values_are_validated() {
    let a = input(20, 15);
    let mut w = Mat::zeros(20, 3);
    w[(2, 1)] = -0.5;
    let e = build_err(&a, |b| b.warm_start(w, Mat::zeros(15, 3)));
    assert!(matches!(e, NmfError::WarmStartInvalid { which: "W" }));
    assert!(
        e.to_string().contains("project_nonnegative"),
        "message must point at the fix: {e}"
    );
    let mut ht = Mat::zeros(15, 3);
    ht[(0, 0)] = f64::NAN;
    let e = build_err(&a, |b| b.warm_start(Mat::zeros(20, 3), ht));
    assert!(matches!(e, NmfError::WarmStartInvalid { which: "H^T" }));
}

#[test]
fn io_error_carries_the_path_and_source() {
    let a = SharedInput::new(input(20, 15));
    let missing = std::env::temp_dir().join("hpc_nmf_definitely_missing.ckpt");
    let e = Model::load_shared(&missing, &a).expect_err("missing file");
    assert!(matches!(e, NmfError::Io { .. }));
    assert!(e.to_string().contains("hpc_nmf_definitely_missing"), "{e}");
    assert!(
        std::error::Error::source(&e).is_some(),
        "Io must expose its source error"
    );
}

#[test]
fn non_checkpoint_files_are_corrupt_with_the_path_named() {
    let a = SharedInput::new(input(20, 15));
    let path = std::env::temp_dir().join(format!("hpc_nmf_not_a_ckpt_{}.bin", std::process::id()));
    std::fs::write(&path, b"definitely not a checkpoint").expect("writes");
    let e = Model::load_shared(&path, &a).expect_err("garbage file");
    assert!(matches!(e, NmfError::Corrupt { .. }));
    assert!(e.to_string().contains("magic"), "{e}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalid_args_displays_every_error() {
    let e = NmfError::InvalidArgs {
        errors: vec!["unknown flag --x".into(), "missing value for --k".into()],
    };
    let msg = e.to_string();
    assert!(msg.contains("--x") && msg.contains("--k"), "{msg}");
}

#[test]
fn errors_implement_std_error() {
    // Ensures the type composes with ? in application code.
    fn takes_err(_: &dyn std::error::Error) {}
    takes_err(&NmfError::MissingRank);
}

#[test]
fn refit_is_validated_like_build() {
    let a = input(20, 15);
    let mut model = Nmf::on(&a)
        .rank(3)
        .ranks(4)
        .algo(Algo::Hpc2D)
        .max_iters(2)
        .build()
        .expect("valid");
    let e = model.refit(NmfConfig::new(100)).expect_err("k too large");
    assert!(matches!(e, NmfError::RankOutOfRange { .. }));
    // The session survives a rejected refit.
    model.run();
    assert_eq!(model.iterations(), 2);
}
