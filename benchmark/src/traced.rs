//! The traced run: one workload, in process, with a span around every call
//! the harness makes into a layer's public function.
//!
//! Each pass runs twice, untraced and traced; the ratio of the two walls is
//! the tracing overhead. End-to-end metrics never come from here — they come
//! from the untraced child processes in `workloads`.
//!
//! Span names (layer = first component):
//!
//! | workload | spans |
//! |---|---|
//! | `registry_run` | `suite.run_suite` ⊃ replay `kernels.execute`; `caliper.to_json`, `caliper.write_atomic` |
//! | sweeps | `suite.run_sweep` ⊃ replay `kernels.execute`, `caliper.to_json`, `caliper.write_atomic`; `suite.run_sweep_warm`; `sweep_ranks.threads`, `sweep_ranks.process` |
//! | `daemon_serve` | `rajaperfd.submit_miss` ⊃ replay `rajaperfd.protocol_parse`, `suite.run_suite` ⊃ `kernels.execute`, `rajaperfd.store_put`; `rajaperfd.submit_hit` ⊃ replay `rajaperfd.store_get`; `rajaperfd.submit_ping`; `rajaperfd.burst2` |
//! | `analyze_corpus` | `harness.read_file`, `thicket.from_caliper_json`, `thicket.ingest`, `thicket.finish`, `thicket.groupby`, `thicket.stats`, `thicket.write_tkt`, `thicket.read_tkt`, `thicket.kernel_family_features`, `hierclust.nn_chain_ward` |

use crate::inputs::{daemon_pass, write_corpus, Op};
use crate::metrics::{self, Metrics, PER_LAYER};
use crate::spans::{self, SpanId, Tracer};
use crate::stats::median;
use crate::workloads::{analyze, daemon, fresh_dir, run_params, sweep::Sweep, Ctx, Outcome};
use rajaperfd::{Daemon, DaemonConfig, ProfileStore, Request};
use serde_json::json;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use suite::params::RankIsolation;
use suite::RunParams;
use thicket::{IngestSession, ProfileData, Stat, Thicket};

/// Layers a share is reported for; anything else would be a naming mistake.
const LAYERS: [&str; 8] = [
    "kernels",
    "suite",
    "sweep_ranks",
    "caliper",
    "rajaperfd",
    "thicket",
    "hierclust",
    "harness",
];

pub struct Traced {
    pub metrics: Metrics,
    pub outcome: Outcome,
    /// The last traced pass.
    pub tracer: Tracer,
    pub passes: usize,
}

/// Replay every kernel `params` selects, directly, as children of `call`.
fn replay_kernels(tr: &mut Tracer, call: SpanId, params: &RunParams) {
    if !tr.enabled() {
        return;
    }
    for k in params.selected_kernels() {
        let info = k.info();
        if !info.variants.contains(&params.variant) {
            continue;
        }
        let (n, reps) = (params.problem_size(&info), params.reps(&info));
        tr.time_replay(call, "kernels.execute", info.name, || {
            std::hint::black_box(k.execute(params.variant, n, reps, &params.tuning));
        });
    }
}

enum State {
    Registry,
    Sweep(Sweep),
    Daemon {
        daemon: Option<Daemon>,
        socket: PathBuf,
        scratch: ProfileStore,
        served: ProfileStore,
    },
    Analyze {
        paths: Vec<PathBuf>,
    },
}

impl State {
    fn setup(name: &str, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<State> {
        Ok(match name {
            "registry_run" => State::Registry,
            "sweep_campaign" => State::Sweep(Sweep::campaign()),
            "sweep_small_cells" => State::Sweep(Sweep::small_cells()),
            "daemon_serve" => {
                let socket = daemon::socket_path(dir);
                let store_dir = dir.join("store");
                let daemon = Daemon::start(DaemonConfig {
                    socket: socket.clone(),
                    store_dir: store_dir.clone(),
                    queue_capacity: 16,
                    workers: 2,
                })?;
                State::Daemon {
                    daemon: Some(daemon),
                    socket,
                    scratch: ProfileStore::open(dir.join("scratch-store"))?,
                    // A second handle on the daemon's store, for replayed reads.
                    served: ProfileStore::open(store_dir)?,
                }
            }
            "analyze_corpus" => {
                let templates = analyze::template_profiles(ctx, dir, out)?;
                let corpus = dir.join("corpus");
                write_corpus(&corpus, &templates, ctx.seed, ctx.scale.corpus_profiles)?;
                let mut paths: Vec<PathBuf> = std::fs::read_dir(&corpus)?
                    .collect::<io::Result<Vec<_>>>()?
                    .into_iter()
                    .map(|e| e.path())
                    .collect();
                paths.sort();
                State::Analyze { paths }
            }
            other => return Err(io::Error::other(format!("unknown workload '{other}'"))),
        })
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        ctx: &Ctx,
        dir: &Path,
        index: usize,
        out: &mut Outcome,
    ) -> io::Result<()> {
        match self {
            State::Registry => registry_pass(tr, ctx, dir, out),
            State::Sweep(sweep) => sweep_pass(tr, sweep, ctx, dir, out),
            State::Daemon {
                socket,
                scratch,
                served,
                ..
            } => daemon_pass_traced(tr, ctx, socket, scratch, served, index, out),
            State::Analyze { paths } => analyze_pass(tr, dir, paths, out),
        }
    }

    fn teardown(&mut self, out: &mut Outcome) -> io::Result<()> {
        if let State::Daemon { daemon, socket, .. } = self {
            if let Some(d) = daemon.take() {
                let bye = rajaperfd::submit(socket, &Request::Shutdown { id: "bye".into() });
                out.check(bye.is_ok(), || format!("shutdown: {bye:?}"));
                d.wait()?;
            }
        }
        Ok(())
    }
}

fn registry_pass(tr: &mut Tracer, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
    use crate::workloads::registry::{PARALLEL, SERIAL};
    for variant in SERIAL.iter().chain([&PARALLEL]) {
        let params = run_params(&[
            "--variant",
            variant,
            "--size-factor",
            ctx.scale.registry_size_factor,
        ])?;
        let call = tr.begin("suite.run_suite", variant);
        let report = suite::run_suite(&params);
        tr.end(call);
        out.check(report.all_passed(), || {
            format!("{variant}: kernel failures in process")
        });
        // What the `spot(output=..)` service does with the finished profile.
        let text = tr.time("caliper.to_json", variant, || report.profile.to_json());
        let path = dir.join(format!("{variant}.cali.json"));
        tr.time("caliper.write_atomic", variant, || {
            caliper::write_atomic(&path, text.as_bytes())
        })?;
        replay_kernels(tr, call, &params);
    }
    Ok(())
}

fn sweep_pass(
    tr: &mut Tracer,
    sweep: &Sweep,
    ctx: &Ctx,
    dir: &Path,
    out: &mut Outcome,
) -> io::Result<()> {
    let cells = sweep.cells(ctx);
    let params_for = |mode: &str, extra: &[&str]| -> io::Result<RunParams> {
        let sw = dir.join(mode);
        fresh_dir(&sw)?;
        let mut args = sweep.args(ctx);
        args.extend(["--sweep-dir".to_string(), sw.to_string_lossy().into_owned()]);
        args.extend(extra.iter().map(|s| s.to_string()));
        run_params(&args)
    };

    let cold = params_for("ranks1", &[])?;
    let call = tr.begin("suite.run_sweep", "ranks1-cold");
    let summary = suite::run_sweep(&cold)?;
    tr.end(call);
    out.check(
        summary.kernels_failed() == 0
            && summary.cells.len() == cells
            && summary.cells.iter().all(|c| !c.cached),
        || {
            format!(
                "cold sweep: {} cells, {} failed",
                summary.cells.len(),
                summary.kernels_failed()
            )
        },
    );
    if tr.enabled() {
        for cell in &summary.cells {
            let mut p = cold.clone();
            p.variant = cell.variant;
            p.tuning.gpu_block_size = cell.gpu_block_size;
            replay_kernels(tr, call, &p);
            // The cell's profile, through the same serialise-and-write path.
            let tag = format!("{}.block_{}", cell.variant.name(), cell.gpu_block_size);
            let profile = tr.off_clock(|| caliper::Profile::read_file(&cell.profile))?;
            let text = tr.time_replay(call, "caliper.to_json", &tag, || profile.to_json());
            tr.time_replay(call, "caliper.write_atomic", &tag, || {
                caliper::write_atomic(&dir.join("replay.cali.json"), text.as_bytes())
            })?;
        }
    }

    let warm = tr.time("suite.run_sweep_warm", "ranks1-warm", || {
        suite::run_sweep(&cold)
    })?;
    out.check(warm.cells.iter().all(|c| c.cached), || {
        "warm sweep executed cells".to_string()
    });

    let threads = params_for("threads", &["--ranks", "2"])?;
    let ranked = tr.time("sweep_ranks.threads", "ranks2-threads", || {
        suite::run_sweep(&threads)
    })?;
    out.check(ranked.kernels_failed() == 0, || {
        "threads sweep: kernel failures".to_string()
    });

    let mut process = params_for("process", &["--ranks", "2"])?;
    process.rank_isolation = RankIsolation::Process;
    let ranked = tr.time("sweep_ranks.process", "ranks2-process", || {
        suite::run_sweep(&process)
    })?;
    out.check(
        ranked.kernels_failed() == 0
            && ranked.rank_restarts.iter().all(|&r| r == 0)
            && ranked.casualties.is_empty(),
        || format!("process sweep: restarts {:?}", ranked.rank_restarts),
    );
    Ok(())
}

fn daemon_pass_traced(
    tr: &mut Tracer,
    ctx: &Ctx,
    socket: &Path,
    scratch: &ProfileStore,
    served: &ProfileStore,
    index: usize,
    out: &mut Outcome,
) -> io::Result<()> {
    let plan = daemon_pass(ctx.seed, index, ctx.scale.daemon_keys);
    for (i, op) in plan.solo.iter().enumerate() {
        let id = format!("p{index}-solo-{i}");
        let Op::Run { size, repeat } = *op else {
            let pong = tr.time("rajaperfd.submit_ping", &id, || {
                rajaperfd::submit(socket, &Request::Ping { id: id.clone() })
            });
            out.check(pong.is_ok_and(|r| r.exit_code == 0), || {
                format!("{id}: ping failed")
            });
            continue;
        };
        let req = daemon::run_request(&id, size);
        let call = tr.begin(
            if repeat {
                "rajaperfd.submit_hit"
            } else {
                "rajaperfd.submit_miss"
            },
            &id,
        );
        let response = rajaperfd::submit(socket, &req);
        tr.end(call);
        let ok = response
            .as_ref()
            .is_ok_and(|r| r.exit_code == 0 && r.cached() == repeat);
        out.check(ok, || {
            format!(
                "{id}: size {size} repeat {repeat}: {:?}",
                response.as_ref().map(|r| r.exit_code)
            )
        });
        if !tr.enabled() {
            continue;
        }
        let Request::Run { argv, .. } = &req else {
            unreachable!()
        };
        let params = run_params(argv)?;
        let key = rajaperfd::server::run_key(&params);
        if repeat {
            let found = tr.time_replay(call, "rajaperfd.store_get", &id, || served.get(&key));
            out.check(found.is_some(), || {
                format!("{id}: key missing from the daemon's store")
            });
        } else {
            let line = req.to_line();
            tr.time_replay(call, "rajaperfd.protocol_parse", &id, || {
                std::hint::black_box(Request::parse(&line, "replay").is_ok());
            });
            let run = tr.begin_replay(call, "suite.run_suite", &id);
            std::hint::black_box(suite::run_suite(&params));
            tr.end(run);
            replay_kernels(tr, run, &params);
            let report = response
                .ok()
                .and_then(|r| r.report().cloned())
                .unwrap_or_default();
            tr.time_replay(call, "rajaperfd.store_put", &id, || {
                scratch.put(&key, json!({"report": report}))
            })?;
        }
    }

    let answers = tr.time("rajaperfd.burst2", &format!("p{index}-duo"), || {
        daemon::two_client_burst(socket, index, &plan.duo)
    });
    let sent = answers.len();
    let ok = answers
        .iter()
        .filter(|(_, r)| r.as_ref().is_ok_and(|r| r.exit_code == 0))
        .count();
    out.check(ok == sent, || {
        format!("two-client burst: {ok} of {sent} requests succeeded")
    });
    Ok(())
}

fn analyze_pass(
    tr: &mut Tracer,
    dir: &Path,
    paths: &[PathBuf],
    out: &mut Outcome,
) -> io::Result<()> {
    const METRIC: &str = "avg#time.duration";
    let mut session = IngestSession::new();
    for path in paths {
        let tag = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = tr.time("harness.read_file", &tag, || std::fs::read_to_string(path))?;
        let data = tr
            .time("thicket.from_caliper_json", &tag, || {
                ProfileData::from_caliper_json(&text)
            })
            .map_err(io::Error::other)?;
        tr.time("thicket.ingest", &tag, || session.ingest(&data));
    }
    let mut tk = tr.time("thicket.finish", "json", || session.finish());
    out.check(tk.profiles.len() == paths.len(), || {
        format!("composed {} of {} profiles", tk.profiles.len(), paths.len())
    });

    let analyse = |tr: &mut Tracer, tk: &mut Thicket, tag: &str| -> Vec<(String, usize)> {
        let groups = tr.time("thicket.groupby", tag, || tk.groupby("variant"));
        for stat in [Stat::Mean, Stat::Min, Stat::Max] {
            tr.time("thicket.stats", tag, || {
                std::hint::black_box(tk.stats(METRIC, stat))
            });
        }
        groups
            .into_iter()
            .map(|(value, sub)| (value, sub.profiles.len()))
            .collect()
    };
    let from_json = analyse(tr, &mut tk, "json");

    let snapshot = dir.join("corpus.tkt");
    tr.time("thicket.write_tkt", "corpus.tkt", || {
        tk.write_tkt(&snapshot)
    })?;
    let mut reopened = tr.time("thicket.read_tkt", "corpus.tkt", || {
        Thicket::read_tkt(&snapshot)
    })?;
    let from_tkt = analyse(tr, &mut reopened, "tkt");
    out.check(
        from_json == from_tkt && reopened.row_count() == tk.row_count(),
        || format!("snapshot disagrees with the JSON ingest: {from_json:?} vs {from_tkt:?}"),
    );

    let features = tr.time("thicket.kernel_family_features", "json", || {
        thicket::kernel_family_features(&tk, METRIC)
    });
    let linkage = tr.time("hierclust.nn_chain_ward", "json", || {
        hierclust::nn_chain_ward(&features.points)
    });
    std::hint::black_box(linkage);
    Ok(())
}

/// Run `name` in process, alternating untraced and traced passes, for about
/// `seconds`.
pub fn trace_workload(name: &str, ctx: &Ctx, seconds: f64) -> io::Result<Traced> {
    let dir = ctx.work.join(format!("{name}.traced"));
    fresh_dir(&dir)?;
    let mut out = Outcome::default();
    let mut state = State::setup(name, ctx, &dir, &mut out)?;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last = Tracer::new(true);
    let mut index = 0;
    while traced_ms.is_empty() || Instant::now() < deadline {
        for enabled in [false, true] {
            let mut tr = Tracer::new(enabled);
            let wall = Instant::now();
            let root = tr.begin("harness.pass", name);
            state.pass(&mut tr, ctx, &dir, index, &mut out)?;
            tr.end(root);
            index += 1;
            if enabled {
                traced_ms.push(spans::root_wall_ns(tr.spans()) as f64 / 1e6);
                last = tr;
            } else {
                untraced_ms.push(wall.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    state.teardown(&mut out)?;

    let mut m = Metrics::new();
    let put = |m: &mut Metrics, name: &str, value: f64, n: usize| {
        metrics::put(m, &PER_LAYER, name, value, n)
    };
    put(&mut m, "trace.pass_ms", median(&traced_ms), traced_ms.len());
    put(
        &mut m,
        "trace.overhead_frac",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
        traced_ms.len(),
    );
    put(&mut m, "trace.spans", last.spans().len() as f64, 1);
    let wall = spans::root_wall_ns(last.spans()) as f64;
    let layers = spans::by_layer(last.spans());
    for layer in layers.keys() {
        assert!(
            LAYERS.contains(layer),
            "span layer '{layer}' has no share metric"
        );
    }
    for layer in LAYERS {
        let self_ns = layers.get(layer).copied().unwrap_or(0) as f64;
        put(
            &mut m,
            &format!("trace.{layer}_pct"),
            100.0 * self_ns / wall,
            1,
        );
    }
    Ok(Traced {
        metrics: m,
        outcome: out,
        tracer: last,
        passes: traced_ms.len(),
    })
}

/// Self time per span name, then per layer, with what the floor cut off.
pub fn render_table(tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let wall = spans::root_wall_ns(spans) as f64;
    let mut text = format!(
        "  {:<34} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for row in spans::by_name(spans) {
        text.push_str(&format!(
            "  {:<34} {:>7} {:>12.3} {:>12.3} {:>6.2}%\n",
            row.name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / wall
        ));
    }
    let attributed: u64 = spans::self_times(spans).iter().sum();
    text.push_str(&format!(
        "  pass wall {:.3} ms; self times sum to {:.3} ms (residual {:+.3} ms: replays that outran the call they split)\n",
        wall / 1e6,
        attributed as f64 / 1e6,
        (attributed as f64 - wall) / 1e6
    ));
    text
}
