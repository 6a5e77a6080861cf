//! Facts about the machine, the toolchain and the process that every
//! result file carries, so two result files can be told apart before
//! their numbers are compared.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment switches that change which kernels run; recorded when
/// set so a result measured under one is not mistaken for the default.
const WATCHED_ENV: [&str; 3] = [
    "NMF_FORCE_SCALAR",
    "NMF_CSC_MIN_OUT_BYTES",
    "NMF_BENCH_QUICK",
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cache_sizes() -> Value {
    let mut out = Value::obj();
    for index in 0..4 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size")) {
            out.set(&format!("L{level}_{}", kind.to_lowercase()), size);
        }
    }
    out
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The host-facts block. `git` and `rustc` are asked at run time and
/// read `unknown` where they are not there to ask (a checkout that is
/// not a git repository, a host without the toolchain).
pub fn facts(seed: u64) -> Value {
    let root = repo_root();
    let mut env = Value::obj();
    for name in WATCHED_ENV {
        if let Ok(v) = std::env::var(name) {
            env.set(name, v);
        }
    }
    Value::obj()
        .with("nproc", nproc())
        .with("cache", cache_sizes())
        .with("simd", nmf_matrix::simd::active_name())
        .with(
            "rustc",
            command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into()),
        )
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "unknown".into()),
        )
        .with("seed", seed)
        .with("env", env)
}
