//! `analyze_corpus`: `rajaperf-analyze` over a seeded corpus of real-shaped
//! profiles, from the `.cali.json` directory and from its `.tkt` snapshot.
//!
//! `thicket` does all the work here and `kernels` none. JSON ingest (bound by
//! parsing), snapshot write and `.tkt` reopen (bound by reading) use the same
//! engine three ways, so an ingest gain that bloats the snapshot, or the
//! reverse, shows. The corpus is read warm from the page cache; nothing is
//! claimed about disks.
//!
//! The corpus derives from one genuine tiny sweep, run during set-up: its six
//! profiles (76 kernels x 54 metric columns) give the corpus its shape, and
//! `inputs::write_corpus` fills in seeded times and metadata.
//!
//! * `full_ms`  — `rajaperf-analyze DIR --groupby variant`, one pool thread.
//! * `floor_ms` — `rajaperf-analyze corpus.tkt --groupby variant`.
//! * `par2_ms`  — the directory again on a two-thread pool.
//!
//! Set-up also writes the snapshot (`--save-tkt`), so `setup_s` carries one
//! ingest plus the snapshot write.

use super::{fresh_dir, Ctx, Outcome, Workload};
use crate::inputs::write_corpus;
use crate::proc;
use serde_json::Value;
use std::io;
use std::path::Path;

pub struct AnalyzeCorpus;

/// Run the tiny template sweep in `dir/template` and load its profiles.
pub fn template_profiles(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<Vec<Value>> {
    let cwd = dir.join("template");
    fresh_dir(&cwd)?;
    let exit = proc::run(
        ctx.command("rajaperf", 1).current_dir(&cwd).args([
            "--sweep",
            "--size",
            "500",
            "--reps",
            "1",
            "--sweep-dir",
            "sw",
        ]),
        &cwd.join("stdout"),
        &cwd.join("stderr"),
    )?;
    out.child("template sweep", &exit);
    let mut paths: Vec<_> = std::fs::read_dir(cwd.join("sw/profiles"))?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| serde_json::from_str(&std::fs::read_to_string(p)?).map_err(io::Error::other))
        .collect()
}

fn analyze(
    ctx: &Ctx,
    dir: &Path,
    input: &str,
    pool: usize,
    extra: &[&str],
    tag: &str,
    out: &mut Outcome,
) -> io::Result<f64> {
    let stdout = dir.join(format!("{tag}.out"));
    let exit = proc::run(
        ctx.command("rajaperf-analyze", pool)
            .current_dir(dir)
            .args([input, "--groupby", "variant"])
            .args(extra),
        &stdout,
        &dir.join(format!("{tag}.err")),
    )?;
    let ms = out.child(&format!("rajaperf-analyze {input} ({tag})"), &exit);
    let text = std::fs::read_to_string(&stdout)?;
    let header = format!("composed {} profiles,", ctx.scale.corpus_profiles);
    out.check(text.starts_with(&header), || {
        format!(
            "{tag}: expected '{header}', got '{}'",
            text.lines().next().unwrap_or("")
        )
    });
    Ok(ms)
}

impl Workload for AnalyzeCorpus {
    fn setup(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
        let templates = template_profiles(ctx, dir, out)?;
        let digest = write_corpus(
            &dir.join("corpus"),
            &templates,
            ctx.seed,
            ctx.scale.corpus_profiles,
        )?;
        let note = format!(
            "corpus digest {digest} ({} profiles)",
            ctx.scale.corpus_profiles
        );
        if !out.notes.contains(&note) {
            out.notes.push(note);
        }
        analyze(
            ctx,
            dir,
            "corpus",
            1,
            &["--save-tkt", "corpus.tkt"],
            "save",
            out,
        )?;
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, dir: &Path, _index: usize, out: &mut Outcome) -> io::Result<()> {
        let json = analyze(ctx, dir, "corpus", 1, &[], "json", out)?;
        out.sample("full_ms", json);
        for _ in 0..3 {
            let tkt = analyze(ctx, dir, "corpus.tkt", 1, &[], "tkt", out)?;
            out.sample("floor_ms", tkt);
        }
        let json2 = analyze(ctx, dir, "corpus", 2, &[], "json2", out)?;
        out.sample("par2_ms", json2);
        let read = |tag: &str| std::fs::read(dir.join(format!("{tag}.out")));
        let reference = read("json")?;
        for tag in ["tkt", "json2"] {
            let same = read(tag)? == reference;
            out.check(same, || {
                format!("{tag} stdout differs from the JSON path's")
            });
        }
        Ok(())
    }

    fn teardown(&mut self, _ctx: &Ctx, _dir: &Path, _out: &mut Outcome) -> io::Result<()> {
        Ok(())
    }
}
