//! `registry_run`: all 76 kernels through `rajaperf`, one process per variant.
//!
//! Kernel-dominated: the timed repetitions are most of the wall, and Caliper,
//! the suite's bookkeeping and the profile write are a few percent — so a
//! kernel, dispatch or launch-path gain shows here and a serialisation gain
//! must not. `Base_Seq` is the plain single-thread baseline the hpc guide
//! asks for; `RAJA_Seq` over `Base_Seq` is the paper's abstraction question.
//!
//! * `full_ms`  — `Base_Seq` + `RAJA_Seq` + `RAJA_SimGpu` process walls.
//! * `par2_ms`  — `RAJA_Par` process wall on a two-thread pool.
//! * `floor_ms` — the same four runs at `--size 1000 --reps 1`: what is left
//!   of a run when the kernels have almost nothing to do (start-up, registry,
//!   data set-up, Caliper, the profile write).

use super::{Ctx, Outcome, Workload};
use crate::proc;
use std::io;
use std::path::Path;

pub const SERIAL: [&str; 3] = ["Base_Seq", "RAJA_Seq", "RAJA_SimGpu"];
pub const PARALLEL: &str = "RAJA_Par";

/// The suite's own cross-variant checksum tolerance (`suite::checksum_report`).
pub const CHECKSUM_REL: f64 = 1e-8;

const FLOOR_SIZING: [&str; 4] = ["--size", "1000", "--reps", "1"];

pub struct RegistryRun;

fn run_variant(
    ctx: &Ctx,
    dir: &Path,
    variant: &str,
    sizing: &[&str],
    tag: &str,
    out: &mut Outcome,
) -> io::Result<f64> {
    let profile = dir.join(format!("{variant}.{tag}.cali.json"));
    let exit = proc::run(
        ctx.command("rajaperf", 2)
            .args(["--variant", variant])
            .args(sizing)
            .arg("--caliper")
            .arg(format!("spot(output={})", profile.display())),
        &dir.join(format!("{variant}.{tag}.out")),
        &dir.join(format!("{variant}.{tag}.err")),
    )?;
    Ok(out.child(&format!("rajaperf --variant {variant} ({tag})"), &exit))
}

/// Every kernel's `Checksum` must agree between the reference profile and
/// each other variant's. One operation per (kernel, variant).
fn check_checksums(dir: &Path, out: &mut Outcome) -> io::Result<()> {
    let load =
        |variant: &str| caliper::Profile::read_file(&dir.join(format!("{variant}.full.cali.json")));
    let reference = load(SERIAL[0])?;
    let kernels: Vec<(&str, f64)> = reference
        .records
        .iter()
        .filter_map(|r| Some((r.name(), r.metric("Checksum")?)))
        .collect();
    out.check(kernels.len() == kernels::registry().len(), || {
        format!(
            "{} ran {} of {} kernels",
            SERIAL[0],
            kernels.len(),
            kernels::registry().len()
        )
    });
    for variant in SERIAL[1..].iter().chain([&PARALLEL]) {
        let profile = load(variant)?;
        for &(kernel, expect) in &kernels {
            // A kernel without this variant is absent from the profile; the
            // registry says which those are.
            let supported = kernels::find(kernel)
                .is_some_and(|k| k.info().variants.iter().any(|v| v.name() == *variant));
            if !supported {
                continue;
            }
            let got = profile.find(kernel).and_then(|r| r.metric("Checksum"));
            out.check(
                got.is_some_and(|g| kernels::common::close(g, expect, CHECKSUM_REL)),
                || {
                    format!(
                        "{kernel} {variant}: checksum {got:?}, {} has {expect}",
                        SERIAL[0]
                    )
                },
            );
        }
    }
    Ok(())
}

impl Workload for RegistryRun {
    /// Warm-up: one least-size run of each variant, so the first measured
    /// pass does not pay for paging the binary in.
    fn setup(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
        for variant in SERIAL.iter().chain([&PARALLEL]) {
            run_variant(ctx, dir, variant, &FLOOR_SIZING, "warmup", out)?;
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, dir: &Path, _index: usize, out: &mut Outcome) -> io::Result<()> {
        let full = ["--size-factor", ctx.scale.registry_size_factor];
        let mut full_ms = 0.0;
        for variant in SERIAL {
            full_ms += run_variant(ctx, dir, variant, &full, "full", out)?;
        }
        out.sample("full_ms", full_ms);
        let par = run_variant(ctx, dir, PARALLEL, &full, "full", out)?;
        out.sample("par2_ms", par);
        let mut floor_ms = 0.0;
        for variant in SERIAL.iter().chain([&PARALLEL]) {
            floor_ms += run_variant(ctx, dir, variant, &FLOOR_SIZING, "floor", out)?;
        }
        out.sample("floor_ms", floor_ms);
        check_checksums(dir, out)
    }

    fn teardown(&mut self, _ctx: &Ctx, _dir: &Path, _out: &mut Outcome) -> io::Result<()> {
        Ok(())
    }
}
