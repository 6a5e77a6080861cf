//! Out-of-core smoke: proves both ingest paths factorize a 173 MB `NMFS`
//! file under an address-space limit of 3.5× its size, and that the
//! factors each produces are bit-identical to an unlimited resident run.
//!
//! Three invocations, driven by CI (see `.github/workflows/ci.yml`):
//!
//! 1. `ooc_smoke prepare --file A.nmfs --ref ref.txt` — no rlimit.
//!    Generates the matrix, writes the NMFS file, factorizes the
//!    resident copy, and records the reference digest (objective bits +
//!    an FNV-1a hash over the factor bit patterns).
//! 2. `ooc_smoke run --mode resident --file A.nmfs --ref ref.txt`
//!    under `ulimit -v` — must pass: the file is read back once and the
//!    rank blocks are windows of it, so the matrix is resident once.
//! 3. `ooc_smoke run --mode mmap --file A.nmfs --ref ref.txt` under the
//!    same `ulimit -v` — must pass: panels stream through a small
//!    mapped window and only the rank blocks go resident.
//!
//! Either digest must equal the reference exactly.
//!
//! The factorization parameters are fixed so all three runs describe
//! the same trajectory; any drift shows up as a digest mismatch.

use hpc_nmf::flags::Flags;
use hpc_nmf::prelude::*;
use nmf_sparse::gen::erdos_renyi;
use nmf_sparse::io::write_csr_binary_path;
use nmf_sparse::{io::read_csr_binary, Csr};
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

// ~10.8M nonzeros: a 173 MB NMFS file. Either ingest peaks near 300 MB
// of address space, half the CI rlimit; a copy of the rank blocks on top
// of the resident file does not fit under it.
const M: usize = 90_000;
const N: usize = 60_000;
const DENSITY: f64 = 2e-3;
const GEN_SEED: u64 = 41;

const K: usize = 8;
const RANKS: usize = 4;
const ITERS: usize = 3;
const FIT_SEED: u64 = 11;

#[derive(Default)]
struct Args {
    mode: Option<String>,
    file: Option<String>,
    refp: Option<String>,
}

fn flags() -> Flags<Args> {
    Flags::<Args>::new(
        "usage: ooc_smoke prepare --file A.nmfs --ref ref.txt\n       \
         ooc_smoke run --mode mmap|resident --file A.nmfs --ref ref.txt",
    )
    .text("--mode mmap|resident", |a| &mut a.mode)
    .help("run: how the file is read")
    .text("--file A.nmfs", |a| &mut a.file)
    .help("the NMFS file")
    .text("--ref ref.txt", |a| &mut a.refp)
    .help("the reference digest")
}

/// FNV-1a over the bit patterns of both factors plus the objective —
/// one line of hex that pins the whole trajectory.
fn digest(model: &Model) -> String {
    let (w, h) = model.factors();
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            acc ^= byte as u64;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for v in w.as_slice().iter().chain(h.as_slice()) {
        eat(v.to_bits());
    }
    eat(model.objective().to_bits());
    format!("{acc:016x}")
}

fn factorize(shared: &SharedInput) -> Model {
    let mut model = Nmf::on_shared(shared)
        .rank(K)
        .ranks(RANKS)
        .algo(Algo::Hpc2D)
        .max_iters(ITERS)
        .seed(FIT_SEED)
        .build()
        .expect("valid request");
    model.run();
    model
}

fn vm_peak() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmPeak"))
                .map(str::to_string)
        })
        .unwrap_or_else(|| "VmPeak unknown".into())
}

fn prepare(file: &str, refp: &str) -> ExitCode {
    let a = erdos_renyi(M, N, DENSITY, GEN_SEED);
    write_csr_binary_path(&a, file).expect("write NMFS");
    let bytes = std::fs::metadata(file).expect("stat").len();
    println!(
        "wrote {file}: {}x{}, {} nnz, {bytes} bytes",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let shared = SharedInput::new(Input::Sparse(a));
    let model = factorize(&shared);
    let d = digest(&model);
    std::fs::write(refp, format!("{d}\n")).expect("write ref");
    println!("reference digest {d}  ({})", vm_peak());
    ExitCode::SUCCESS
}

fn run(mode: &str, file: &str, refp: &str) -> ExitCode {
    let shared = match mode {
        "mmap" => SharedInput::open_mmap(file).expect("open NMFS via mmap"),
        "resident" => {
            let csr: Csr = read_csr_binary(BufReader::new(File::open(file).expect("open")))
                .expect("read NMFS resident");
            SharedInput::new(Input::Sparse(csr))
        }
        _ => flags().fail(&[format!("--mode expects mmap or resident, got '{mode}'")]),
    };
    let model = factorize(&shared);
    let got = digest(&model);
    let want = std::fs::read_to_string(refp).expect("read ref");
    let want = want.trim();
    println!("{mode} digest {got}  (want {want}, {})", vm_peak());
    if got == want {
        println!("ooc smoke [{mode}]: factors bit-identical to resident reference");
        ExitCode::SUCCESS
    } else {
        eprintln!("ooc smoke [{mode}]: digest mismatch");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut a, mut errors) = (Args::default(), Vec::new());
    let operands = flags().parse(&argv, &mut a, &mut errors);
    match (operands.as_slice(), a.mode.as_deref(), &a.file, &a.refp) {
        ([cmd], _, Some(f), Some(r)) if cmd == "prepare" && errors.is_empty() => prepare(f, r),
        ([cmd], Some(m), Some(f), Some(r)) if cmd == "run" && errors.is_empty() => run(m, f, r),
        _ => flags().fail(&errors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_are_errors() {
        let argv = ["run", "--mode", "mmap", "--bogus", "--file"].map(String::from);
        let (mut a, mut errors) = (Args::default(), Vec::new());
        let operands = flags().parse(&argv, &mut a, &mut errors);
        assert_eq!(operands, ["run"]);
        assert_eq!(a.mode.as_deref(), Some("mmap"));
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0], "unknown flag --bogus");
    }

    #[test]
    fn help_has_one_line_per_accepted_flag() {
        let accepted = ["--mode", "--file", "--ref", "--help"];
        let help = flags().to_string();
        let lines = help.lines().filter(|l| l.starts_with("  -"));
        let listed: Vec<&str> = lines
            .map(|l| l.split([' ', ',']).nth(2).unwrap_or(""))
            .collect();
        assert_eq!(listed, accepted, "{help}");
    }
}
