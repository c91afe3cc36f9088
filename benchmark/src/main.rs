//! The performance ledger: five end-to-end workloads with per-layer
//! attribution. See `benchmark/README.md`; run through `benchmark/run.sh`.

mod inputs;
mod layers;
mod metrics;
mod proc;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use metrics::{Metrics, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use workloads::{Ctx, Measured, Scale};

const USAGE: &str = "\
usage: benchmark/run.sh [MODE] [OPTIONS]

modes (default: the full ledger - every workload untraced, then traced):
  --workload NAME        one workload; with --trace 0 its end-to-end metrics,
                         with --trace 1 its per-layer metrics; the last line
                         of output is one JSON object
  --smoke                every workload and every correctness gate on the
                         least inputs, one pass each, no tracing (< 20 s)
  --check                the end-to-end set twice on this build; fails when
                         any metric differs by more than its bound
  --compare A.json B.json  baseline diff of two result files

options:
  --seed N               seed of the generated inputs (default 1)
  --seconds S            measuring time per workload (default 20)
  --trace 0|1            with --workload: which metric set to report
  --out FILE             where the full ledger writes its result file
";

enum Mode {
    Ledger,
    Workload(String),
    Check,
    Compare(PathBuf, PathBuf),
    /// Internal: the unit-cost block, in a process of its own.
    Micro(PathBuf),
    /// Internal: the process every child is spawned from (see `proc`).
    Launcher,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("{USAGE}workloads: {}", WORKLOADS.join(" "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Ledger,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.mode = Mode::Workload(value()),
            "--check" => args.mode = Mode::Check,
            "--compare" => args.mode = Mode::Compare(value().into(), value().into()),
            "--micro" => args.mode = Mode::Micro(value().into()),
            "--launcher" => args.mode = Mode::Launcher,
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--out" => args.out = Some(value().into()),
            _ => usage(),
        }
    }
    if let Mode::Workload(name) = &args.mode {
        if !WORKLOADS.contains(&name.as_str()) {
            usage();
        }
    }
    args
}

/// The directory cargo built into, as `run.sh` exported it.
fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
}

/// Pool width of the harness's own process: the in-process passes and the
/// unit-cost block follow the sizing rule of the workload they mirror.
fn pool_threads(workload: &str) -> &'static str {
    if workload == "registry_run" {
        "2"
    } else {
        "1"
    }
}

fn fail(what: &str, e: io::Error) -> ! {
    eprintln!("ledger: {what}: {e}");
    proc::stop_launcher();
    std::process::exit(1);
}

fn print_outcome(name: &str, out: &workloads::Outcome) {
    println!(
        "  {name}: ops_attempted {} ops_failed {}",
        out.attempted, out.failed
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

fn print_measured(name: &str, m: &Measured) {
    println!(
        "== {name}: {} passes in {:.2} s (untraced, through the release binaries)",
        m.passes, m.measured_s
    );
    print!("{}", metrics::render(&m.metrics));
    print_outcome(name, &m.outcome);
}

/// Run the unit-cost block in a child on a two-thread pool and read back
/// the metrics it prints.
fn micro_block(ctx: &Ctx) -> io::Result<Metrics> {
    let dir = ctx.work.join("micro");
    workloads::fresh_dir(&dir)?;
    let (stdout, stderr) = (dir.join("stdout"), dir.join("stderr"));
    let exit = proc::run(
        Command::new(std::env::current_exe()?)
            .arg("--micro")
            .arg(dir.join("work"))
            .env("RAYON_NUM_THREADS", "2")
            .env("RAJAPERF_WORKER_BIN", ctx.bin("rajaperf")),
        &stdout,
        &stderr,
    )?;
    if exit.code != 0 {
        let err = std::fs::read_to_string(&stderr).unwrap_or_default();
        return Err(io::Error::other(format!(
            "unit-cost block exited {}: {err}",
            exit.code
        )));
    }
    let text = std::fs::read_to_string(&stdout)?;
    let parsed: Value =
        serde_json::from_str(text.lines().last().unwrap_or("")).map_err(io::Error::other)?;
    let mut metrics = Metrics::new();
    for (name, m) in parsed
        .as_object()
        .ok_or_else(|| io::Error::other("unit-cost block printed no object"))?
    {
        let value = m["value"]
            .as_f64()
            .ok_or_else(|| io::Error::other(format!("{name}: no value")))?;
        let samples = m["samples"].as_i64().unwrap_or(1) as usize;
        metrics::put(&mut metrics, &metrics::PER_LAYER, name, value, samples);
    }
    Ok(metrics)
}

/// The traced run of one workload: its shares, the trace file, the table.
fn trace_one(name: &str, ctx: &Ctx, seconds: f64, trace_dir: &Path) -> io::Result<traced::Traced> {
    let t = traced::trace_workload(name, ctx, seconds)?;
    std::fs::create_dir_all(trace_dir)?;
    let file = trace_dir.join(format!("trace-{name}.json"));
    std::fs::write(&file, t.tracer.chrome_json())?;
    println!(
        "== {name}: {} traced passes in process; self time per span name (last pass)",
        t.passes
    );
    print!("{}", traced::render_table(&t.tracer));
    println!("  trace written to {}", file.display());
    print!("{}", metrics::render(&t.metrics));
    print_outcome(name, &t.outcome);
    Ok(t)
}

fn print_result(metrics: &Metrics, attempted: u64, failed: u64) {
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics::to_value(metrics, false)
    );
}

/// Every workload's end-to-end metrics, as one result-file value.
fn end_to_end_set(ctx: &Ctx, seconds: f64) -> (BTreeMap<String, Value>, u64) {
    let mut workloads_out = BTreeMap::new();
    let mut failed = 0;
    for name in WORKLOADS {
        let m = workloads::measure(name, ctx, seconds).unwrap_or_else(|e| fail(name, e));
        print_measured(name, &m);
        failed += m.outcome.failed;
        let mut w = BTreeMap::new();
        w.insert(
            "end_to_end".to_string(),
            metrics::to_value(&m.metrics, true),
        );
        w.insert(
            "ops_attempted".to_string(),
            Value::Int(m.outcome.attempted as i64),
        );
        w.insert(
            "ops_failed".to_string(),
            Value::Int(m.outcome.failed as i64),
        );
        w.insert("passes".to_string(), Value::from(m.passes));
        w.insert("notes".to_string(), Value::from(m.outcome.notes.clone()));
        workloads_out.insert(name.to_string(), Value::Object(w));
    }
    (workloads_out, failed)
}

fn result_file(ctx: &Ctx, workloads_out: BTreeMap<String, Value>) -> Value {
    let mut file = BTreeMap::new();
    file.insert(
        "provenance".to_string(),
        report::provenance(ctx.seed, ctx.scale.name),
    );
    file.insert("workloads".to_string(), Value::Object(workloads_out));
    Value::Object(file)
}

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&path.display().to_string(), e));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&path.display().to_string(), io::Error::other(e)))
}

fn main() {
    let args = parse_args();
    if let Mode::Launcher = &args.mode {
        let served = proc::serve(io::stdin().lock(), io::stdout().lock());
        return served.unwrap_or_else(|e| fail("launcher", e));
    }
    if let Mode::Micro(dir) = &args.mode {
        let metrics = layers::measure(dir).unwrap_or_else(|e| fail("unit-cost block", e));
        println!("{}", metrics::to_value(&metrics, true));
        return;
    }
    if let Mode::Compare(a, b) = &args.mode {
        let (table, over) = report::compare(&read_json(a)["workloads"], &read_json(b)["workloads"]);
        print!("{table}");
        println!("{over} row(s) worse than their bound");
        std::process::exit(i32::from(over > 0));
    }

    // Before anything is allocated here: see `proc`.
    proc::start_launcher().unwrap_or_else(|e| fail("launcher", e));
    let target = target_dir();
    let scale: Scale = if args.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    let ctx = Ctx {
        bin_dir: std::env::current_dir()
            .unwrap_or_else(|e| fail("cwd", e))
            .join(&target)
            .join("release"),
        work: target
            .join("benchmark")
            .join(format!("w{}", std::process::id())),
        seed: args.seed,
        scale,
    };
    let trace_dir = target.join("benchmark");
    // The in-process sweeps spawn their process-isolated ranks from here.
    std::env::set_var("RAJAPERF_WORKER_BIN", ctx.bin("rajaperf"));
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    let failed = match &args.mode {
        Mode::Workload(name) if args.trace => {
            std::env::set_var("RAYON_NUM_THREADS", pool_threads(name));
            // Half the time on the workload's own passes; the unit-cost
            // block takes about as long again.
            let t =
                trace_one(name, &ctx, seconds / 2.0, &trace_dir).unwrap_or_else(|e| fail(name, e));
            let mut metrics = micro_block(&ctx).unwrap_or_else(|e| fail("unit-cost block", e));
            println!("== layer unit costs (fixed inputs, two-thread pool)");
            print!("{}", metrics::render(&metrics));
            metrics.extend(t.metrics);
            print_result(&metrics, t.outcome.attempted.max(1), t.outcome.failed);
            t.outcome.failed
        }
        Mode::Workload(name) => {
            let m = workloads::measure(name, &ctx, seconds).unwrap_or_else(|e| fail(name, e));
            print_measured(name, &m);
            print_result(&m.metrics, m.outcome.attempted, m.outcome.failed);
            m.outcome.failed
        }
        Mode::Check => {
            let (first, failed_a) = end_to_end_set(&ctx, seconds);
            let (second, failed_b) = end_to_end_set(&ctx, seconds);
            let (table, over) = report::compare(&Value::Object(first), &Value::Object(second));
            println!("== --check: two sets of runs of one build (A first, B second)");
            print!("{table}");
            println!("{over} row(s) differ by more than their bound");
            failed_a + failed_b + over as u64
        }
        Mode::Ledger => {
            let (mut workloads_out, mut failed) = end_to_end_set(&ctx, seconds);
            if !args.smoke {
                for name in WORKLOADS {
                    // One process, one pool: its width is set by the first
                    // workload traced, so each traced run sizes itself.
                    let exe = std::env::current_exe().unwrap_or_else(|e| fail("current_exe", e));
                    let status = Command::new(exe)
                        .args(["--workload", name, "--trace", "1"])
                        .args([
                            "--seed",
                            &args.seed.to_string(),
                            "--seconds",
                            &args.seconds.to_string(),
                        ])
                        .output()
                        .unwrap_or_else(|e| fail(name, e));
                    let text = String::from_utf8_lossy(&status.stdout);
                    let (table, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
                    println!("{table}");
                    let parsed: Value = serde_json::from_str(last)
                        .unwrap_or_else(|e| fail(name, io::Error::other(e)));
                    failed += parsed["failed"].as_i64().unwrap_or(1) as u64
                        + u64::from(!status.status.success());
                    if let Some(Value::Object(w)) = workloads_out.get_mut(name) {
                        w.insert("per_layer".to_string(), parsed["metrics"].clone());
                    }
                }
            }
            let file = result_file(&ctx, workloads_out);
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| trace_dir.join(format!("ledger-seed{}.json", args.seed)));
            let text = serde_json::to_string_pretty(&file)
                .unwrap_or_else(|e| fail("result file", io::Error::other(e)));
            std::fs::write(&out, text).unwrap_or_else(|e| fail(&out.display().to_string(), e));
            println!(
                "== provenance\n{}",
                serde_json::to_string_pretty(&file["provenance"]).unwrap_or_default()
            );
            println!("result file: {}", out.display());
            failed
        }
        Mode::Micro(_) | Mode::Compare(..) | Mode::Launcher => unreachable!("handled above"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    proc::stop_launcher();
    if failed > 0 {
        eprintln!("ledger: {failed} operation(s) failed");
        std::process::exit(1);
    }
}
