//! The paper's four evaluation datasets (§6.1.1), reproducible at any
//! scale.

use hpc_nmf::Input;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_sparse::gen::{chung_lu_power_law, erdos_renyi};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's datasets to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Dense synthetic: uniform random plus Gaussian noise.
    Dsyn,
    /// Sparse synthetic: Erdős–Rényi, density 0.001 at paper scale.
    Ssyn,
    /// Dense real-world analogue: video frames as columns (static
    /// background + moving foreground object), tall and skinny.
    Video,
    /// Sparse real-world analogue: webbase-2001-like power-law digraph.
    Webbase,
}

impl DatasetKind {
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Ssyn,
        DatasetKind::Dsyn,
        DatasetKind::Webbase,
        DatasetKind::Video,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Dsyn => "DSYN",
            DatasetKind::Ssyn => "SSYN",
            DatasetKind::Video => "Video",
            DatasetKind::Webbase => "Webbase",
        }
    }

    /// The dataset a command line or a served job names, in lowercase.
    /// The error is the message to show whoever named it.
    pub fn from_name(name: &str) -> Result<DatasetKind, String> {
        Ok(match name {
            "dsyn" => DatasetKind::Dsyn,
            "ssyn" => DatasetKind::Ssyn,
            "video" => DatasetKind::Video,
            "webbase" => DatasetKind::Webbase,
            _ => {
                return Err(format!(
                    "unknown dataset '{name}' (expected dsyn | ssyn | video | webbase)"
                ))
            }
        })
    }

    /// The dimensions used in the paper's experiments.
    pub fn paper_dims(self) -> (usize, usize) {
        match self {
            DatasetKind::Dsyn | DatasetKind::Ssyn => (172_800, 115_200),
            DatasetKind::Video => (1_013_400, 2_400),
            DatasetKind::Webbase => (1_000_005, 1_000_005),
        }
    }

    /// Stored nonzeros at paper scale (dense: m·n).
    pub fn paper_nnz(self) -> usize {
        match self {
            DatasetKind::Dsyn => 172_800 * 115_200,
            DatasetKind::Ssyn => (172_800.0 * 115_200.0 * 0.001) as usize,
            DatasetKind::Video => 1_013_400 * 2_400,
            DatasetKind::Webbase => 3_105_536,
        }
    }

    pub fn is_sparse(self) -> bool {
        matches!(self, DatasetKind::Ssyn | DatasetKind::Webbase)
    }

    /// The shape [`build`](Self::build) produces at `scale`: each paper
    /// dimension divided by it (a `scale` of 0 reads as 1), floor 8.
    pub fn scaled_dims(self, scale: usize) -> (usize, usize) {
        let (pm, pn) = self.paper_dims();
        let scale = scale.max(1);
        ((pm / scale).max(8), (pn / scale).max(8))
    }

    /// Builds the dataset with each paper dimension divided by `scale`
    /// (`scale = 1` is paper scale — only sensible for the sparse sets
    /// on one machine). Deterministic in `seed`.
    pub fn build(self, scale: usize, seed: u64) -> Dataset {
        assert!(scale >= 1);
        let (m, n) = self.scaled_dims(scale);
        let input = match self {
            DatasetKind::Dsyn => Input::Dense(dsyn(m, n, seed)),
            DatasetKind::Ssyn => {
                // Keep the *expected nonzeros per row* of the paper
                // (density 0.001 over n=115,200 ≈ 115/row) rather than
                // the raw density, so per-row work stays representative.
                let density = (0.001 * scale as f64).min(0.25);
                Input::Sparse(erdos_renyi(m, n, density, seed))
            }
            DatasetKind::Video => Input::Dense(video(m, n, seed)),
            DatasetKind::Webbase => {
                let edges = (self.paper_nnz() / scale).max(n);
                Input::Sparse(chung_lu_power_law(m, edges, 2.1, seed))
            }
        };
        Dataset { kind: self, input }
    }
}

/// A built dataset.
pub struct Dataset {
    pub kind: DatasetKind,
    pub input: Input,
}

/// DSYN: "a uniform random matrix ... and add random Gaussian noise"
/// (noise at 1% of the signal scale, truncated to keep entries
/// nonnegative — NMF input conventions).
fn dsyn(m: usize, n: usize, seed: u64) -> Mat {
    let mut a = Mat::uniform(m, n, seed);
    let noise = Mat::gaussian(m, n, seed ^ 0xD5);
    for (av, nv) in a.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *av = (*av + 0.01 * nv).max(0.0);
    }
    a
}

/// Video analogue: every column is one reshaped RGB frame. The scene is
/// a static low-rank background plus a small bright block that moves
/// across the frame over time — the structure that makes NMF separate
/// background (captured by `WH`) from foreground (the residual).
fn video(m: usize, n_frames: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    // Background: rank-3 nonnegative structure shared by all frames.
    let base = Mat::uniform(m, 3, seed ^ 0x51D); // m×3 spatial patterns
    let mut frames = Mat::zeros(m, n_frames);
    // Object: a contiguous run of pixels, 1% of the frame, sweeping
    // linearly over time.
    let obj_len = (m / 100).max(1);
    for t in 0..n_frames {
        let mix = [
            0.6 + 0.05 * ((t as f64) * 0.1).sin(),
            0.3,
            0.1 + 0.05 * ((t as f64) * 0.07).cos(),
        ];
        let start = if n_frames > 1 {
            (t * (m - obj_len)) / (n_frames - 1)
        } else {
            0
        };
        for i in 0..m {
            let bg: f64 = (0..3).map(|c| mix[c] * base[(i, c)]).sum();
            let fg = if i >= start && i < start + obj_len {
                0.8
            } else {
                0.0
            };
            let sensor_noise = 0.005 * rng.gen::<f64>();
            frames[(i, t)] = bg + fg + sensor_noise;
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_scaled_dims_agree_with_build() {
        for kind in DatasetKind::ALL {
            let name = kind.name().to_lowercase();
            assert_eq!(DatasetKind::from_name(&name), Ok(kind));
        }
        assert!(DatasetKind::from_name("SSYN").is_err());
        assert!(DatasetKind::from_name("nope")
            .unwrap_err()
            .contains("webbase"));
        assert_eq!(DatasetKind::Ssyn.scaled_dims(400), (432, 288));
        assert_eq!(
            DatasetKind::Ssyn.scaled_dims(0),
            DatasetKind::Ssyn.paper_dims()
        );
        assert_eq!(DatasetKind::Video.scaled_dims(1_000_000), (8, 8));
        let built = DatasetKind::Dsyn.build(1000, 1).input.shape();
        assert_eq!(built, DatasetKind::Dsyn.scaled_dims(1000));
    }

    #[test]
    fn paper_dims_are_exact() {
        assert_eq!(DatasetKind::Dsyn.paper_dims(), (172_800, 115_200));
        assert_eq!(DatasetKind::Video.paper_dims(), (1_013_400, 2_400));
        assert_eq!(DatasetKind::Webbase.paper_nnz(), 3_105_536);
    }

    #[test]
    fn scaled_dsyn_is_dense_nonnegative() {
        let d = DatasetKind::Dsyn.build(1000, 1);
        assert!(!d.input.is_sparse());
        assert_eq!(d.input.shape(), (172, 115));
        if let Input::Dense(a) = &d.input {
            assert!(a.all_nonnegative());
            assert!(a.all_finite());
        }
    }

    #[test]
    fn scaled_ssyn_keeps_row_degree() {
        let d = DatasetKind::Ssyn.build(400, 2);
        let (m, _) = d.input.shape();
        // Paper: ~115 nonzeros/row. Scaled: density 0.4 over n=288 ≈ 115.
        let per_row = d.input.nnz() as f64 / m as f64;
        assert!(
            (60.0..200.0).contains(&per_row),
            "nnz per row {per_row} not representative"
        );
    }

    #[test]
    fn video_is_tall_skinny() {
        let d = DatasetKind::Video.build(400, 3);
        let (m, n) = d.input.shape();
        assert!(m > 50 * n, "video must be tall and skinny: {m}x{n}");
        if let Input::Dense(a) = &d.input {
            assert!(a.all_nonnegative());
        }
    }

    #[test]
    fn webbase_is_square_power_law() {
        let d = DatasetKind::Webbase.build(500, 4);
        let (m, n) = d.input.shape();
        assert_eq!(m, n);
        assert!(d.input.is_sparse());
        assert!(d.input.nnz() > 1000);
    }

    #[test]
    fn builds_are_deterministic() {
        for kind in DatasetKind::ALL {
            let a = kind.build(800, 9);
            let b = kind.build(800, 9);
            assert_eq!(
                a.input.nnz(),
                b.input.nnz(),
                "{} not deterministic",
                kind.name()
            );
            assert_eq!(a.input.fro_norm_sq(), b.input.fro_norm_sq());
        }
    }
}
