//! `sweep_campaign` and `sweep_small_cells`: `rajaperf --sweep`, cold on one
//! rank, warm, and cold on two ranks in both isolation modes.
//!
//! The two use `suite::sweep` in opposite ways. `sweep_campaign` has 12 cells
//! whose time is mostly kernels: it shows rank scaling and any change to cell
//! execution, and the gather encoding should be invisible on it.
//! `sweep_small_cells` has many cells of about 7 ms in which the kernels are
//! the smaller part, so planning, Caliper bookkeeping, `Profile::to_json`,
//! the fsync and rename of `write_atomic`, the cell-cache scan, the manifest,
//! gather frames, rank scheduling and child spawn *are* the wall time: a
//! kernel gain bought with per-cell overhead shows there as a loss.
//!
//! * `full_ms`  — cold sweep, `--ranks 1`, empty `--sweep-dir` (write path).
//! * `floor_ms` — the identical command again: every cell cached (read and
//!   integrity-check path).
//! * `par2_ms`  — cold `--ranks 2` as threads plus cold `--ranks 2
//!   --rank-isolation process`; the traced run reports the two apart.
//!
//! Every mode runs in its own parent directory with the same relative
//! `--sweep-dir`, because the manifest embeds that path and the three
//! manifests must come out byte-identical.

use super::{fresh_dir, Ctx, Outcome, Workload};
use crate::proc;
use std::io;
use std::path::Path;

pub struct Sweep {
    name: &'static str,
    small_cells: bool,
}

/// Warm invocations per pass: the warm run is short, so it is sampled more.
const WARM_PER_PASS: usize = 2;

const MODES: [(&str, &[&str]); 3] = [
    ("ranks1", &[]),
    ("threads", &["--ranks", "2"]),
    ("process", &["--ranks", "2", "--rank-isolation", "process"]),
];

impl Sweep {
    pub fn campaign() -> Sweep {
        Sweep {
            name: "sweep_campaign",
            small_cells: false,
        }
    }

    pub fn small_cells() -> Sweep {
        Sweep {
            name: "sweep_small_cells",
            small_cells: true,
        }
    }

    /// The sweep's own arguments (everything but ranks and directory).
    pub fn args(&self, ctx: &Ctx) -> Vec<String> {
        let (blocks, sizing): (Vec<usize>, Vec<&str>) = if self.small_cells {
            (
                (1..=ctx.scale.small_cell_blocks).map(|i| 32 * i).collect(),
                vec!["--size", "500", "--reps", "1"],
            )
        } else {
            (
                vec![128, 256],
                vec!["--size-factor", ctx.scale.campaign_size_factor],
            )
        };
        let blocks: Vec<String> = blocks.iter().map(usize::to_string).collect();
        let mut args = vec![
            "--sweep".to_string(),
            "--sweep-block-sizes".to_string(),
            blocks.join(","),
        ];
        args.extend(sizing.into_iter().map(str::to_string));
        args
    }

    pub fn cells(&self, ctx: &Ctx) -> usize {
        6 * if self.small_cells {
            ctx.scale.small_cell_blocks
        } else {
            2
        }
    }

    /// One `rajaperf --sweep` in `dir/<mode>`; checks exit, the cached-cell
    /// count it printed and that no kernel failed. Returns the wall in ms.
    fn invoke(
        &self,
        ctx: &Ctx,
        dir: &Path,
        mode: usize,
        expect_cached: usize,
        out: &mut Outcome,
    ) -> io::Result<f64> {
        let (mode_name, rank_args) = MODES[mode];
        let cwd = dir.join(mode_name);
        let stdout = cwd.join("stdout");
        let exit = proc::run(
            ctx.command("rajaperf", 1)
                .current_dir(&cwd)
                .args(self.args(ctx))
                .args(["--sweep-dir", "sw"])
                .args(rank_args),
            &stdout,
            &cwd.join("stderr"),
        )?;
        let what = format!("{} {mode_name} sweep", self.name);
        let ms = out.child(&what, &exit);
        let text = std::fs::read_to_string(&stdout)?;
        let header = format!("Sweep: {} cells ({expect_cached} cached", self.cells(ctx));
        out.check(text.starts_with(&header), || {
            format!(
                "{what}: expected '{header}', got '{}'",
                text.lines().next().unwrap_or("")
            )
        });
        let failed = manifest_kernels_failed(&cwd.join("sw/manifest.json"));
        out.check(failed == Some(0), || {
            format!("{what}: kernels_failed = {failed:?}")
        });
        Ok(ms)
    }
}

/// Sum of `kernels_failed` over the manifest's cells; `None` if unreadable.
fn manifest_kernels_failed(manifest: &Path) -> Option<i64> {
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(manifest).ok()?).ok()?;
    v["cells"]
        .as_array()?
        .iter()
        .map(|c| c["kernels_failed"].as_i64())
        .sum()
}

impl Workload for Sweep {
    /// The per-mode parent directories, and as warm-up one least-size sweep
    /// in each mode, so the first measured pass does not pay for paging the
    /// binary in.
    fn setup(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
        for (mode, rank_args) in MODES {
            let cwd = dir.join(mode);
            fresh_dir(&cwd)?;
            let exit = proc::run(
                ctx.command("rajaperf", 1)
                    .current_dir(&cwd)
                    .args([
                        "--sweep",
                        "--size",
                        "500",
                        "--reps",
                        "1",
                        "--sweep-dir",
                        "warmup",
                    ])
                    .args(rank_args),
                &cwd.join("warmup.out"),
                &cwd.join("warmup.err"),
            )?;
            out.child(&format!("{} {mode} warm-up sweep", self.name), &exit);
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, dir: &Path, _index: usize, out: &mut Outcome) -> io::Result<()> {
        for (mode, _) in MODES {
            fresh_dir(&dir.join(mode).join("sw"))?;
        }
        let cold = self.invoke(ctx, dir, 0, 0, out)?;
        out.sample("full_ms", cold);
        let threads = self.invoke(ctx, dir, 1, 0, out)?;
        for _ in 0..WARM_PER_PASS {
            let warm = self.invoke(ctx, dir, 0, self.cells(ctx), out)?;
            out.sample("floor_ms", warm);
        }
        let process = self.invoke(ctx, dir, 2, 0, out)?;
        out.sample("par2_ms", threads + process);

        let manifest = |mode: &str| std::fs::read(dir.join(mode).join("sw/manifest.json"));
        let reference = manifest(MODES[0].0)?;
        for (mode, _) in &MODES[1..] {
            let same = manifest(mode)? == reference;
            out.check(same, || {
                format!("{}: {mode} manifest differs from --ranks 1", self.name)
            });
        }
        Ok(())
    }

    fn teardown(&mut self, _ctx: &Ctx, _dir: &Path, _out: &mut Outcome) -> io::Result<()> {
        Ok(())
    }
}
