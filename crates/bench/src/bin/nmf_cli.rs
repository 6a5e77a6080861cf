//! Command-line NMF driver: factorize a Matrix Market file or a
//! generated dataset with any algorithm/solver/grid combination.
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset ssyn --scale 200 \
//!     --algo hpc2d --ranks 8 --k 10 --iters 20
//! cargo run --release -p nmf_bench --bin nmf_cli -- --input graph.mtx --k 8
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset dsyn --json
//!
//! # rank sweep: one dataset + one universe, one JSON summary per k
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset ssyn --k 4,8,16 --json
//!
//! # long job with durable checkpoints, resumable after a crash
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset dsyn --k 10 \
//!     --checkpoint run.ckpt --checkpoint-every 5 --checkpoint-keep 3
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset dsyn --resume run.ckpt
//!
//! # elastic resume: continue the same run on a different scheme/grid
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset dsyn \
//!     --resume run.ckpt --regrid 2x2
//! cargo run --release -p nmf_bench --bin nmf_cli -- --dataset dsyn \
//!     --resume run.ckpt --algo hpc1d --ranks 2
//!
//! # what's inside a checkpoint, without loading the factors,
//! # and which grids a 8-rank resume could land on
//! cargo run --release -p nmf_bench --bin nmf_cli -- checkpoints inspect run.ckpt
//! cargo run --release -p nmf_bench --bin nmf_cli -- checkpoints inspect run.ckpt --ranks 8
//!
//! # out of core: materialize once, then factorize without loading the file
//! cargo run --release -p nmf_bench --bin nmf_cli -- convert --dataset webbase \
//!     --scale 50 --out webbase.nmfs
//! cargo run --release -p nmf_bench --bin nmf_cli -- --input webbase.nmfs --mmap --k 8
//! ```
//!
//! `--json` replaces the human-readable report with one JSON object per
//! fitted rank on stdout (objective, iterations, stop reason,
//! `setup_seconds` — from making the `SharedInput` (`SharedInput::new`
//! once the matrix is read or generated, or `open_mmap`) until the model
//! is built or its checkpoint loaded, or for each later `k` of a sweep
//! its refit — and `wall_seconds`, the stepping alone, per-task
//! compute times — totals, and per iteration the slowest and the fastest
//! rank — `gemm_kernel`, the dense GEMM microkernel that produced the
//! `mm` time (`"avx512f-6x16"`, `"fma-6x8"` or `"portable-6x8"`),
//! per-collective communication words/messages (its `posts`,
//! `overlap_seconds` and `inflight_seconds` read zero: every collective
//! completes where it is called), `balance`: how the input was
//! dealt and, per rank, what it holds and `at_w`, the kernel its `Aᵀ·W`
//! runs on (`"dense"` `(Wᵀ·A)ᵀ` over the block in place, the `"csr"`
//! transposed pass or the `"csc"` column-forward pass — the engine's own
//! dispatch rule), and
//! `memory`: `input_resident_bytes`, what the shared input holds
//! resident — its source once, since rank blocks are views of it, plus
//! the row bounds of sparse windows narrower than the source and the
//! column views of blocks whose `Aᵀ·W` runs `"csc"`; an `--mmap` input
//! is its extracted blocks instead — `workspace_bytes`, the rank
//! engines' iteration workspaces summed over the ranks (three `k×k`
//! Grams, two `k`-wide slabs and the dense GEMM scratch each) — and
//! `peak_rss_bytes`, the process's
//! peak resident set so far (`VmHWM`, `null` where `/proc/self/status`
//! cannot be read)) for scripted benchmarking and model selection.
//!
//! Flags are declared once, in an `hpc_nmf::flags` table (the request
//! flags in the part `nmf_serve_client` shares), which also renders
//! `--help`. Every problem found is accumulated and reported once,
//! after the help text, instead of exiting at the first bad flag.

use hpc_nmf::flags::{Flags, RequestDefaults, RequestFlags};
use hpc_nmf::prelude::*;
use hpc_nmf::{inspect_checkpoint, DimBalance, RankLoad};

use nmf_data::DatasetKind;
use nmf_vmpi::Op;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

/// Parsed command line. Options the user set explicitly stay `Some`, so
/// `--resume` can detect contradictory flags.
#[derive(Debug, Default)]
struct Args {
    req: RequestFlags,
    input: Option<String>,
    tol: Option<f64>,
    json: bool,
    mmap: bool,
    out: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    checkpoint_keep: Option<usize>,
    resume: Option<PathBuf>,
    regrid: Option<Grid>,
}

impl AsMut<RequestFlags> for Args {
    fn as_mut(&mut self) -> &mut RequestFlags {
        &mut self.req
    }
}

/// What an unset request flag means here; `--help` prints these.
const DEFAULTS: RequestDefaults = RequestDefaults {
    dataset: "ssyn",
    scale: 200,
    k: 10,
    ranks: 4,
    iters: 20,
    seed: 42,
    algo: Algo::Hpc2D,
    solver: SolverKind::Bpp,
};

impl Args {
    fn ks(&self) -> Vec<usize> {
        self.req.k.clone().unwrap_or_else(|| vec![DEFAULTS.k])
    }

    fn config(&self, k: usize) -> NmfConfig {
        let mut c = NmfConfig::new(k)
            .with_max_iters(self.req.iters.unwrap_or(DEFAULTS.iters))
            .with_solver(self.req.solver.unwrap_or(DEFAULTS.solver))
            .with_seed(self.req.seed.unwrap_or(DEFAULTS.seed));
        if let Some(t) = self.tol {
            c = c.with_tol(t);
        }
        c
    }
}

const USAGE: &str = "nmf_cli — distributed NMF on a virtual MPI

usage: nmf_cli (--input FILE | --dataset NAME) [flags]
       nmf_cli convert (--input FILE.mtx | --dataset NAME) --out FILE.nmfs
           materialize a sparse input as an NMFS binary for --mmap runs
       nmf_cli checkpoints inspect FILE [--ranks N]
           print a checkpoint's header (shape, k, algo, grid, fingerprint,
           iteration, block table) from the header alone; --ranks N lists
           the grids a resume onto N ranks could target";

fn flags() -> Flags<Args> {
    Flags::<Args>::new(USAGE)
        .text("--input FILE", |a| &mut a.input)
        .help("Matrix Market file (coordinate or array) or NMFS binary")
        .switch("--mmap", |a| &mut a.mmap)
        .help("stream --input FILE.nmfs out of core (never fully loads)")
        .request(&DEFAULTS)
        .value("--tol T", |a, v| {
            let bad = |_| format!("--tol expects a number, got '{}'", v.value);
            v.value.parse().map(|t| a.tol = Some(t)).map_err(bad)
        })
        .help("early-stop tolerance")
        .switch("--json", |a| &mut a.json)
        .help("machine-readable summary per k on stdout")
        .text("--checkpoint FILE", |a| &mut a.checkpoint)
        .help("write a checkpoint when the run finishes")
        .positive("--checkpoint-every N", |a| &mut a.checkpoint_every)
        .help("also write FILE every N iterations")
        .int("--checkpoint-keep N", |a| &mut a.checkpoint_keep)
        .help("keep the last N superseded checkpoints as FILE.1 .. FILE.N")
        .text("--resume FILE", |a| &mut a.resume)
        .help("continue a run from FILE; --algo, --ranks, --regrid re-target it")
        .value("--regrid PRxPC", |a, v| {
            let bad = || format!("--regrid expects PRxPC (e.g. 2x2, 1x8), got '{}'", v.value);
            parse_grid(v.value)
                .map(|g| a.regrid = Some(g))
                .ok_or_else(bad)
        })
        .help("target grid for a resumed run (e.g. 2x2, 1x8)")
        .text("--out FILE.nmfs", |a| &mut a.out)
        .help("where convert writes the NMFS binary")
}

/// Parses `argv` (without the program name), accumulating every error
/// instead of stopping at the first.
fn parse_args(argv: &[String]) -> Result<Args, Vec<String>> {
    let mut args = Args::default();
    let mut errors = Vec::new();
    for word in flags().parse(argv, &mut args, &mut errors) {
        errors.push(format!("unexpected argument {word}"));
    }
    let sweep = args.req.k.as_ref().is_some_and(|ks| ks.len() > 1);

    // Cross-flag constraints, still all reported at once.
    if args.input.is_some() && (args.req.dataset.is_some() || args.req.scale.is_some()) {
        errors.push("--input and --dataset/--scale name two inputs; give one".into());
    }
    if args.checkpoint_every.is_some() && args.checkpoint.is_none() && args.resume.is_none() {
        errors.push("--checkpoint-every needs --checkpoint FILE (or --resume FILE)".into());
    }
    if args.checkpoint_keep.is_some() && args.checkpoint.is_none() && args.resume.is_none() {
        errors.push("--checkpoint-keep needs --checkpoint FILE (or --resume FILE)".into());
    }
    if args.resume.is_some() && sweep {
        errors.push("--resume continues one run; it cannot be combined with a --k sweep".into());
    }
    if args.regrid.is_some() && args.resume.is_none() {
        errors.push("--regrid re-targets a resumed checkpoint; it needs --resume FILE".into());
    }
    if sweep && args.checkpoint.is_some() {
        errors.push(
            "--checkpoint with a --k sweep would overwrite one file per k; run sweeps without it"
                .into(),
        );
    }
    if args.mmap && args.input.is_none() {
        errors.push("--mmap needs --input FILE.nmfs (an NMFS binary, see `convert`)".into());
    }
    if let Some(Err(e)) = args.req.dataset.as_deref().map(DatasetKind::from_name) {
        errors.push(e);
    }

    if errors.is_empty() {
        Ok(args)
    } else {
        Err(errors)
    }
}

/// Parses `PRxPC` grid syntax (`2x2`, `1x8`).
fn parse_grid(v: &str) -> Option<Grid> {
    let (pr, pc) = v.split_once(['x', 'X'])?;
    let (pr, pc) = (
        pr.trim().parse::<usize>().ok()?,
        pc.trim().parse::<usize>().ok()?,
    );
    (pr >= 1 && pc >= 1).then(|| Grid::new(pr, pc))
}

/// Loads the input for a run: out-of-core ([`SharedInput::open_mmap`])
/// under `--mmap`, otherwise the resident matrix wrapped in a
/// [`SharedInput`] so a `--k` sweep extracts per-rank blocks exactly
/// once. Also returns when set-up began: just before the `SharedInput`
/// was made, after a resident matrix was read or generated.
fn load_input(args: &Args) -> Result<(SharedInput, Instant), NmfError> {
    if args.mmap {
        let path = args.input.as_deref().expect("parse_args requires --input");
        let t0 = Instant::now();
        return Ok((SharedInput::open_mmap(path)?, t0));
    }
    let matrix = load_resident(args)?;
    let t0 = Instant::now();
    Ok((SharedInput::new(matrix), t0))
}

fn load_resident(args: &Args) -> Result<Input, NmfError> {
    if let Some(path) = &args.input {
        let io = |source| NmfError::Io {
            path: PathBuf::from(path),
            source,
        };
        let bytes = std::fs::read(path).map_err(io)?;
        // NMFS binaries load resident too (without --mmap they are
        // simply read into RAM); everything else is Matrix Market text.
        if bytes.starts_with(&nmf_sparse::io::NMFS_MAGIC) {
            return nmf_sparse::io::read_csr_binary(bytes.as_slice())
                .map(Input::Sparse)
                .map_err(|e| NmfError::Corrupt {
                    path: PathBuf::from(path),
                    reason: format!("NMFS parse error: {e}"),
                });
        }
        let text = String::from_utf8(bytes).map_err(|_| NmfError::Corrupt {
            path: PathBuf::from(path),
            reason: "input is neither an NMFS binary nor UTF-8 Matrix Market text".into(),
        })?;
        // Peek the banner to pick sparse vs dense.
        let parsed = if text.lines().next().is_some_and(|l| l.contains("array")) {
            nmf_sparse::io::read_matrix_market_dense(text.as_bytes()).map(Input::Dense)
        } else {
            nmf_sparse::io::read_matrix_market(text.as_bytes()).map(Input::Sparse)
        };
        parsed.map_err(|e| NmfError::Corrupt {
            path: PathBuf::from(path),
            reason: format!("Matrix Market parse error: {e}"),
        })
    } else {
        // `parse_args` validated the name; a failure here is reported
        // the same way.
        let req = &args.req;
        let kind = DatasetKind::from_name(req.dataset.as_deref().unwrap_or(DEFAULTS.dataset))
            .map_err(|e| NmfError::InvalidArgs { errors: vec![e] })?;
        let scale = req.scale.unwrap_or(DEFAULTS.scale);
        Ok(kind.build(scale, req.seed.unwrap_or(DEFAULTS.seed)).input)
    }
}

/// `nmf_cli checkpoints inspect FILE [--ranks N]`: the versioned header
/// and fingerprint of a checkpoint, read and verified without touching
/// the payload. With `--ranks N`, also lists every grid a resume onto N
/// ranks could target (see `fitting_grids`).
fn run_checkpoints(argv: &[String]) -> Result<(), NmfError> {
    let usage = "usage: nmf_cli checkpoints inspect FILE [--ranks N]";
    let mut target_ranks = None;
    let mut errors = Vec::new();
    let operands = Flags::<Option<usize>>::new(usage)
        .positive("--ranks N", |r| r)
        .help("also list the grids a resume onto N ranks could target")
        .parse(argv, &mut target_ranks, &mut errors);
    if !matches!(operands.as_slice(), [sub, _] if sub == "inspect") {
        errors.push(usage.into());
    }
    let ([_, path], true) = (operands.as_slice(), errors.is_empty()) else {
        return Err(NmfError::InvalidArgs { errors });
    };
    let path = Path::new(path);
    let s = inspect_checkpoint(path)?;
    let meta = &s.meta;
    println!("{}", path.display());
    println!("  format version: {}", s.version);
    println!(
        "  input:          {}x{} on {} ranks, grid {}x{}",
        meta.m, meta.n, meta.ranks, meta.grid.pr, meta.grid.pc
    );
    println!(
        "  run:            {} k={} solver {} seed {}",
        meta.algo.name(),
        meta.config.k,
        meta.config.solver.name(),
        meta.config.seed
    );
    println!(
        "  progress:       iteration {}/{}, objective {:.6e}, {:.2?} elapsed",
        s.iterations_done, meta.config.max_iters, s.objective, s.elapsed
    );
    println!(
        "  factors:        W {}x{}, Ht {}x{} (from the block table)",
        s.w_shape.0, s.w_shape.1, s.ht_shape.0, s.ht_shape.1
    );
    println!("  fingerprint:    {:#018x}", s.fingerprint);
    println!(
        "  payload:        {} blocks, each checksummed, verified on load ({} bytes)",
        2 * s.factor_blocks,
        s.file_bytes
    );
    if let Some(ranks) = target_ranks {
        let grids = fitting_grids(meta.m, meta.n, ranks);
        if grids.is_empty() {
            println!(
                "  regrid targets: none — no {ranks}-rank grid fits a {}x{} problem",
                meta.m, meta.n
            );
        } else {
            let list: Vec<String> = grids
                .iter()
                .map(|g| {
                    let stored = *g == meta.grid && ranks == meta.ranks;
                    format!("{}x{}{}", g.pr, g.pc, if stored { " (stored)" } else { "" })
                })
                .collect();
            println!("  regrid targets: {} ranks -> {}", ranks, list.join(", "));
        }
    }
    Ok(())
}

/// `nmf_cli convert ... --out FILE.nmfs`: materialize a sparse input
/// (a Matrix Market file or a generated dataset) as an `NMFS` binary,
/// the format `--mmap` runs stream out of core.
fn run_convert(argv: &[String]) -> Result<(), NmfError> {
    let args = parse_args(argv).map_err(|errors| NmfError::InvalidArgs { errors })?;
    let mut errors = Vec::new();
    if args.out.is_none() {
        errors.push("convert needs --out FILE.nmfs".into());
    }
    if args.mmap {
        errors.push("--mmap reads an NMFS file; convert writes one".into());
    }
    if !errors.is_empty() {
        return Err(NmfError::InvalidArgs { errors });
    }
    let out = args.out.as_deref().expect("checked above");
    let input = load_resident(&args)?;
    let (m, n) = input.shape();
    nmf_data::write_input_nmfs(&input, out).map_err(|source| {
        if source.kind() == std::io::ErrorKind::InvalidInput {
            NmfError::InvalidArgs {
                errors: vec![format!("{source} (convert a sparse input instead)")],
            }
        } else {
            NmfError::Io {
                path: out.to_path_buf(),
                source,
            }
        }
    })?;
    let bytes = std::fs::metadata(out).map(|md| md.len()).unwrap_or(0);
    println!(
        "wrote {} ({m}x{n}, {} nnz, {bytes} bytes)",
        out.display(),
        input.nnz()
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "checkpoints") {
        if let Err(e) = run_checkpoints(&argv[1..]) {
            eprintln!("error: {e}");
            exit(2);
        }
        return;
    }
    if argv.first().is_some_and(|a| a == "convert") {
        if let Err(e) = run_convert(&argv[1..]) {
            eprintln!("error: {e}");
            exit(2);
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|errors| flags().fail(&errors));
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(2);
    }
}

fn run(args: &Args) -> Result<(), NmfError> {
    if args.out.is_some() {
        return Err(NmfError::InvalidArgs {
            errors: vec!["--out belongs to the convert subcommand".into()],
        });
    }
    let (input, setup_from) = load_input(args)?;
    let ks = args.ks();

    if let Some(path) = &args.resume {
        let mut target = RegridTarget::new();
        if let Some(a) = args.req.algo {
            target = target.algo(a);
        }
        if let Some(p) = args.req.ranks {
            target = target.ranks(p);
        }
        if let Some(g) = args.regrid {
            target = target.grid(g);
        }
        let mut model = Model::load_regrid_shared(path, &input, target)?;
        let setup = setup_from.elapsed();
        check_resume_conflicts(args, &model)?;
        if let Some(iters) = args.req.iters {
            model.set_max_iters(iters);
        }
        if !args.json {
            let grid = model.grid();
            println!(
                "resuming {} on {} ranks (grid {}x{}) at iteration {} from {}",
                model.algo().name(),
                model.ranks(),
                grid.pr,
                grid.pc,
                model.iterations(),
                path.display()
            );
        }
        let ckpt = args.checkpoint.clone().unwrap_or_else(|| path.clone());
        drive_and_report(args, &input, &mut model, Some(&ckpt), setup)?;
        return Ok(());
    }

    let mut model: Option<Model> = None;
    for &k in &ks {
        let config = args.config(k);
        // The first k's set-up began with the input; a later one's is
        // its refit.
        let setup_from = if model.is_some() {
            Instant::now()
        } else {
            setup_from
        };
        let mdl = match &mut model {
            None => {
                let algo = args.req.algo.unwrap_or(DEFAULTS.algo);
                let ranks = if matches!(algo, Algo::Sequential) {
                    1
                } else {
                    args.req.ranks.unwrap_or(DEFAULTS.ranks)
                };
                model = Some(
                    Nmf::on_shared(&input)
                        .config(config)
                        .algo(algo)
                        .ranks(ranks)
                        .build()?,
                );
                model.as_mut().expect("just built")
            }
            Some(mdl) => {
                // Sweep continuation: same data, same universe, next k.
                mdl.refit(config)?;
                mdl
            }
        };
        let setup = setup_from.elapsed();
        if !args.json {
            let grid = mdl.grid();
            println!(
                "{}x{} ({} nnz), {} on {} ranks (grid {}x{}), k={}, solver {}",
                mdl.shape().0,
                mdl.shape().1,
                input.nnz(),
                mdl.algo().name(),
                mdl.ranks(),
                grid.pr,
                grid.pc,
                k,
                mdl.config().solver.name()
            );
        }
        drive_and_report(args, &input, mdl, args.checkpoint.as_deref(), setup)?;
    }
    Ok(())
}

/// Flags given alongside `--resume` must agree with what the checkpoint
/// recorded — a silent mismatch would "resume" a different experiment.
/// `--algo`, `--ranks` and `--regrid` are *not* checked here: they are
/// regrid overrides, honored by `Model::load_regrid_shared`.
fn check_resume_conflicts(args: &Args, model: &Model) -> Result<(), NmfError> {
    let mut errors = Vec::new();
    let meta = model.meta();
    if let Some(ks) = &args.req.k {
        if ks != &[meta.config.k] {
            errors.push(format!(
                "--k {:?} conflicts with the checkpoint (written with k={})",
                ks, meta.config.k
            ));
        }
    }
    if let Some(s) = args.req.solver {
        if s != meta.config.solver {
            errors.push(format!(
                "--solver {} conflicts with the checkpoint (written with {})",
                s.name(),
                meta.config.solver.name()
            ));
        }
    }
    if let Some(s) = args.req.seed {
        if s != meta.config.seed {
            errors.push(format!(
                "--seed {s} conflicts with the checkpoint (written with {})",
                meta.config.seed
            ));
        }
    }
    if let Some(t) = args.tol {
        if meta.config.tol != Some(t) {
            errors.push(format!(
                "--tol {t} conflicts with the checkpoint (written with {}); the resumed \
                 run keeps the recorded convergence settings",
                match meta.config.tol {
                    Some(ct) => format!("tol {ct}"),
                    None => "no tolerance".to_string(),
                }
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(NmfError::InvalidArgs { errors })
    }
}

/// Steps the model to its stopping condition, writing checkpoints along
/// the way when configured, then prints the summary. `setup` is how long
/// the model took to be ready to step.
fn drive_and_report(
    args: &Args,
    input: &SharedInput,
    model: &mut Model,
    ckpt: Option<&Path>,
    setup: Duration,
) -> Result<(), NmfError> {
    let every = args.checkpoint_every.unwrap_or(0);
    let keep = args.checkpoint_keep.unwrap_or(0);
    let limit = model.config().max_iters;
    let t0 = Instant::now();
    let stop = loop {
        if model.iterations() >= limit {
            break StopReason::MaxIters;
        }
        model.step();
        if every > 0 && model.iterations().is_multiple_of(every) {
            if let Some(path) = ckpt {
                model.save_rotated(path, keep)?;
            }
        }
        if let Some(r) = model.stop_reason() {
            break r;
        }
    };
    let wall = t0.elapsed();
    if let Some(path) = ckpt {
        model.save_rotated(path, keep)?;
        if !args.json {
            println!("checkpoint written to {}", path.display());
        }
    }

    if args.json {
        println!("{}", json_line(input, model, stop, setup, wall)?);
        Ok(())
    } else {
        print_human(input, model, stop, wall)
    }
}

fn print_human(
    input: &SharedInput,
    model: &Model,
    stop: StopReason,
    wall: Duration,
) -> Result<(), NmfError> {
    let iters = model.records().len();
    println!(
        "\n{} iterations in {:.2?} ({:.4} s/iter), stopped: {}",
        iters,
        wall,
        wall.as_secs_f64() / iters.max(1) as f64,
        stop.as_str()
    );
    println!("relative error: {:.6}", model.rel_error());
    println!("objective:      {:.6e}", model.objective());
    let balance = input.balance();
    let dim = |d: Option<DimBalance>| match d {
        Some(d) if d.relabelled => format!("skew {:.3} (relabelled)", d.skew),
        Some(d) => format!("skew {:.3}", d.skew),
        None => "not examined".to_string(),
    };
    // What each rank holds (the sharding is cached: the model was built
    // from it).
    let loads = input.rank_loads(model.shard_key())?;
    let range = |count: fn(&RankLoad) -> usize| {
        let (lo, hi) = loads
            .iter()
            .map(count)
            .fold((usize::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
        format!("{lo}..{hi}")
    };
    println!(
        "balance:        rows {}, cols {}; per rank: nnz {}, non-empty rows {}, cols {}",
        dim(balance.rows),
        dim(balance.cols),
        range(|l| l.nnz),
        range(|l| l.non_empty_rows),
        range(|l| l.non_empty_cols)
    );
    let comm = model.total_comm();
    if comm.total_messages() > 0 {
        println!("\ncommunication (all ranks):");
        for op in [Op::AllGather, Op::ReduceScatter, Op::AllReduce] {
            let s = comm.op(op);
            println!(
                "  {:<15} {:>12} words {:>8} msgs",
                op.name(),
                s.words,
                s.messages
            );
        }
    }
    Ok(())
}

/// A float as a JSON token: full-precision scientific for finite values,
/// `null` for NaN/inf (which are not valid JSON and would break every
/// consumer — a diverging run can legitimately produce them).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.17e}")
    } else {
        "null".to_string()
    }
}

/// The JSON object `--json` prints per fitted rank: everything a
/// benchmark or model-selection script wants, hand-rolled (the container
/// pulls no serde).
fn json_line(
    input: &SharedInput,
    model: &Model,
    stop: StopReason,
    setup: Duration,
    wall: Duration,
) -> Result<String, NmfError> {
    let (m, n) = model.shape();
    let grid = model.grid();
    let config = model.config();
    let compute = model.compute_total();
    let comm = model.total_comm();
    let mut s = String::with_capacity(1024);
    s.push('{');
    s.push_str(&format!(
        "\"algo\":\"{}\",\"m\":{m},\"n\":{n},\"nnz\":{},\"ranks\":{},\"grid\":[{},{}],\"k\":{},\"solver\":\"{}\",\"seed\":{},",
        model.algo().name(),
        input.nnz(),
        model.ranks(),
        grid.pr,
        grid.pc,
        config.k,
        config.solver.name(),
        config.seed
    ));
    s.push_str(&format!(
        "\"iterations\":{},\"total_iterations\":{},\"stop\":\"{}\",\"setup_seconds\":{:.6},\"wall_seconds\":{:.6},\"objective\":{},\"rel_error\":{},",
        model.records().len(),
        model.iterations(),
        stop.as_str(),
        setup.as_secs_f64(),
        wall.as_secs_f64(),
        jnum(model.objective()),
        jnum(model.rel_error())
    ));
    s.push_str(&format!(
        "\"compute_seconds\":{{\"mm\":{:.6},\"nls\":{:.6},\"gram\":{:.6}}},\"gemm_kernel\":\"{}\",",
        compute.mm.as_secs_f64(),
        compute.nls.as_secs_f64(),
        compute.gram.as_secs_f64(),
        nmf_matrix::simd::active_name()
    ));
    s.push_str("\"objective_history\":[");
    for (i, rec) in model.records().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&jnum(rec.objective));
    }
    // Per iteration and task, the slowest and the fastest rank: their
    // ratio is what the fast rank spends waiting in the next collective.
    s.push_str("],\"compute_per_iteration\":[");
    for (i, rec) in model.records().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (hi, lo) = (&rec.compute, &rec.compute_min);
        s.push_str(&format!(
            "{{\"mm_max\":{:.6},\"mm_min\":{:.6},\"nls_max\":{:.6},\"nls_min\":{:.6},\
             \"gram_max\":{:.6},\"gram_min\":{:.6}}}",
            hi.mm.as_secs_f64(),
            lo.mm.as_secs_f64(),
            hi.nls.as_secs_f64(),
            lo.nls.as_secs_f64(),
            hi.gram.as_secs_f64(),
            lo.gram.as_secs_f64()
        ));
    }
    let balance = input.balance();
    let dim = |d: Option<DimBalance>| match d {
        Some(d) => format!("{{\"skew\":{:.6},\"relabelled\":{}}}", d.skew, d.relabelled),
        None => "null".to_string(),
    };
    s.push_str(&format!(
        "],\"balance\":{{\"rows\":{},\"cols\":{},\"ranks\":[",
        dim(balance.rows),
        dim(balance.cols)
    ));
    let key = model.shard_key();
    let at_w = input.at_w(key, config.k)?;
    for (i, (load, at_w)) in input.rank_loads(key)?.iter().zip(at_w).enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"nnz\":{},\"non_empty_rows\":{},\"non_empty_cols\":{},\"at_w\":\"{}\"}}",
            load.nnz,
            load.non_empty_rows,
            load.non_empty_cols,
            at_w.name()
        ));
    }
    s.push_str("]},\"comm\":{");
    for (i, op) in [Op::AllGather, Op::ReduceScatter, Op::AllReduce, Op::P2p]
        .into_iter()
        .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        let st = comm.op(op);
        s.push_str(&format!(
            "\"{}\":{{\"words\":{},\"messages\":{},\"seconds\":{:.6},\
             \"posts\":{},\"overlap_seconds\":{:.6},\"inflight_seconds\":{:.6}}}",
            op.name(),
            st.words,
            st.messages,
            st.time.as_secs_f64(),
            st.posts,
            st.overlap.as_secs_f64(),
            st.inflight.as_secs_f64()
        ));
    }
    s.push_str(&format!(
        "}},\"memory\":{{\"input_resident_bytes\":{},\"workspace_bytes\":{},         \"peak_rss_bytes\":{}}}}}",
        input.resident_bytes(),
        model.workspace_bytes(),
        peak_rss_bytes().map_or_else(|| "null".to_string(), |b| b.to_string())
    ));
    Ok(s)
}

/// This process's peak resident set in bytes (`VmHWM` in
/// `/proc/self/status`), where the system reports it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_rank_sweep() {
        let args = parse_args(&argv("--dataset ssyn --k 4,8,16 --json")).expect("valid");
        assert_eq!(args.ks(), vec![4, 8, 16]);
        assert!(args.json);
    }

    #[test]
    fn accumulates_every_error() {
        for solver in ["nope", "activeset"] {
            let errs = parse_args(&argv(&format!(
                "--bogus --k x --solver {solver} --algo what --checkpoint-every 0"
            )))
            .expect_err("invalid");
            assert!(
                errs.len() >= 5,
                "expected all errors reported, got {errs:?}"
            );
            assert!(errs.iter().any(|e| e.contains("--bogus")));
            assert!(errs.iter().any(|e| e.contains("comma list")));
            let unknown = format!("unknown solver '{solver}' (expected bpp | mu | hals)");
            assert!(errs.iter().any(|e| e.contains(&unknown)), "{errs:?}");
            assert!(errs.iter().any(|e| e.contains("unknown algorithm")));
            assert!(errs.iter().any(|e| e.contains("--checkpoint-every")));
        }
    }

    #[test]
    fn mmap_requires_an_input_file() {
        let errs = parse_args(&argv("--dataset ssyn --mmap")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("--mmap needs --input")));
        let args = parse_args(&argv("--input a.nmfs --mmap --k 4")).expect("valid");
        assert!(args.mmap);
    }

    #[test]
    fn missing_value_is_reported() {
        let errs = parse_args(&argv("--dataset")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("missing value")));
    }

    #[test]
    fn checkpoint_keep_requires_a_path() {
        let errs = parse_args(&argv("--checkpoint-keep 3")).expect_err("invalid");
        assert!(errs[0].contains("--checkpoint FILE"));
        assert!(parse_args(&argv("--checkpoint f.ckpt --checkpoint-keep 3")).is_ok());
        assert!(parse_args(&argv("--resume f.ckpt --checkpoint-keep 3")).is_ok());
    }

    #[test]
    fn checkpoint_every_requires_a_path() {
        let errs = parse_args(&argv("--checkpoint-every 5")).expect_err("invalid");
        assert!(errs[0].contains("--checkpoint FILE"));
        assert!(parse_args(&argv("--checkpoint f.ckpt --checkpoint-every 5")).is_ok());
        assert!(parse_args(&argv("--resume f.ckpt --checkpoint-every 5")).is_ok());
    }

    #[test]
    fn regrid_parses_grids_and_requires_resume() {
        assert_eq!(parse_grid("2x2"), Some(Grid::new(2, 2)));
        assert_eq!(parse_grid("1x8"), Some(Grid::new(1, 8)));
        assert_eq!(parse_grid("4X2"), Some(Grid::new(4, 2)));
        assert_eq!(parse_grid("0x2"), None);
        assert_eq!(parse_grid("2x"), None);
        assert_eq!(parse_grid("axb"), None);
        assert_eq!(parse_grid("8"), None);

        let args = parse_args(&argv("--dataset ssyn --resume f.ckpt --regrid 2x4")).expect("valid");
        assert_eq!(args.regrid, Some(Grid::new(2, 4)));
        let errs = parse_args(&argv("--dataset ssyn --regrid 2x4")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("needs --resume")));
        let errs = parse_args(&argv("--dataset ssyn --resume f.ckpt --regrid 9")).expect_err("bad");
        assert!(errs.iter().any(|e| e.contains("PRxPC")));
    }

    #[test]
    fn sweeps_exclude_resume_and_checkpoint() {
        let errs = parse_args(&argv("--k 4,8 --resume f.ckpt")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("sweep")));
        let errs = parse_args(&argv("--k 4,8 --checkpoint f.ckpt")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("sweep")));
    }

    #[test]
    fn two_inputs_and_scale_zero_are_errors() {
        let errs = parse_args(&argv("--input a.mtx --dataset ssyn --scale 0")).expect_err("two");
        assert_eq!(
            errs,
            [
                "--scale must be >= 1",
                "--input and --dataset/--scale name two inputs; give one"
            ]
        );
    }

    #[test]
    fn json_solver_is_a_name_solver_accepts() {
        let input = SharedInput::new(DatasetKind::Dsyn.build(1000, 1).input);
        for solver in SolverKind::ALL {
            let model = Nmf::on_shared(&input)
                .config(NmfConfig::new(2).with_solver(solver))
                .algo(Algo::Sequential)
                .build()
                .expect("valid request");
            let line = json_line(
                &input,
                &model,
                StopReason::MaxIters,
                Duration::ZERO,
                Duration::ZERO,
            )
            .expect("a sequential run has rank loads");
            let field = line.split("\"solver\":\"").nth(1).expect("a solver field");
            let name = &field[..field.find('"').expect("a closing quote")];
            assert_eq!(name.parse::<SolverKind>(), Ok(solver), "{line}");
        }
    }

    #[test]
    fn help_has_one_line_per_accepted_flag() {
        let accepted = [
            "--input",
            "--mmap",
            "--dataset",
            "--scale",
            "--k",
            "--ranks",
            "--iters",
            "--seed",
            "--algo",
            "--solver",
            "--tol",
            "--json",
            "--checkpoint",
            "--checkpoint-every",
            "--checkpoint-keep",
            "--resume",
            "--regrid",
            "--out",
            "--help",
        ];
        let help = flags().to_string();
        let lines = help.lines().filter(|l| l.starts_with("  -"));
        let listed: Vec<&str> = lines
            .map(|l| l.split([' ', ',']).nth(2).unwrap_or(""))
            .collect();
        assert_eq!(listed, accepted, "{help}");
    }
}
