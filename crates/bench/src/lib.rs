//! Experiment harness support: shared helpers for the per-figure/table
//! binaries in `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index): it prints the same rows/series the paper
//! reports and writes a machine-readable copy under
//! `target/experiments/` (override with `RAJAPERF_EXPERIMENT_DIR`).

use std::io::Write;
use std::path::PathBuf;

/// Write `content` into the experiment directory under `name`, returning
/// the path. Errors are reported but not fatal (the printed output is the
/// primary artifact).
pub fn save_output(name: &str, content: &str) -> Option<PathBuf> {
    let path = suite::experiment_dir().join(name);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
        Ok(()) => {
            eprintln!("[saved {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: could not save {}: {e}", path.display());
            None
        }
    }
}

/// Format a speedup column the way the paper's figures annotate them.
pub fn fmt_speedup(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

/// A crude fixed-width horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let frac = if max > 0.0 { (value / max).clamp(0.0, 1.0) } else { 0.0 };
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(22.648), "22.6");
        assert_eq!(fmt_speedup(1.4286), "1.43");
    }
}
