//! Shared harness plumbing: CLI flags, timing, and the dataset registry
//! that maps every Table 1 dataset class to its synthetic stand-in
//! ([`registry`] records the substitutions).
//!
//! The figure, table and ablation binaries print a TSV table to stdout —
//! the same rows/series as the corresponding figure or table in the
//! paper. The four probe binaries (`thread_scaling`, `grid_lowdim`,
//! `highdim_embeddings`, `obs_overhead`) print exactly one JSON document
//! to stdout and their progress rows to stderr; none writes a file, so
//! re-recording a checked-in `BENCH_*.json` is a shell redirect. Every
//! binary accepts:
//!
//! * `--seed <u64>` (default 42): generator seed;
//! * `--scale <f64>` (default 1.0): multiplies dataset sizes;
//! * `--full`: paper-scale sizes (≈ `--scale 10`, plus the million-scale
//!   panels) — expect long runtimes on a laptop.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod registry;

use std::time::Instant;

/// Parsed harness flags.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// RNG seed for the generators.
    pub seed: u64,
    /// Size multiplier.
    pub scale: f64,
    /// Paper-scale run.
    pub full: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args()`; unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut out = Self {
            seed: 42,
            scale: 1.0,
            full: false,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    i += 1;
                    out.seed = args[i].parse().expect("--seed takes a u64");
                }
                "--scale" => {
                    i += 1;
                    out.scale = args[i].parse().expect("--scale takes a float");
                }
                "--full" => out.full = true,
                "--help" | "-h" => {
                    eprintln!("flags: --seed <u64> --scale <f64> --full");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        if out.full {
            out.scale *= 10.0;
        }
        out
    }

    /// Applies the scale factor to a base size (at least 10 points).
    pub fn sized(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(10)
    }
}

/// Runs `f` and returns `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Prints a TSV row.
#[macro_export]
macro_rules! row {
    ($($x:expr),+ $(,)?) => {{
        let cells: Vec<String> = vec![$(format!("{}", $x)),+];
        println!("{}", cells.join("\t"));
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_measures_something() {
        let (v, ms) = timed(|| (0..100_000).sum::<u64>());
        assert_eq!(v, 4999950000);
        assert!(ms >= 0.0);
    }

    #[test]
    fn sized_scales() {
        let a = HarnessArgs {
            seed: 1,
            scale: 0.5,
            full: false,
        };
        assert_eq!(a.sized(1000), 500);
        assert_eq!(a.sized(2), 10, "floor at 10");
    }
}
