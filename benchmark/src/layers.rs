//! Unit costs of each layer, from timed calls into its public functions on
//! small fixed inputs. The same block runs in every traced run whatever the
//! workload or seed, in a process of its own on a two-thread pool, so these
//! numbers follow the layer and nothing else.
//!
//! Bytes and flops are *computed* from `AnalyticMetrics` (the host's last
//! level cache is far larger than any array here, so no bandwidth is
//! claimed). A timing is the median of the stated number of batches.

use crate::metrics::{self, Metrics, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{daemon, fresh_dir, run_params};
use kernels::{KernelBase, VariantId};
use rajaperfd::{Daemon, DaemonConfig, ProfileStore, Request};
use serde_json::{json, Value};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use suite::params::RankIsolation;
use suite::RunParams;
use thicket::{ProfileData, Stat, Thicket};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median over `batches` of the wall of `f`, in ms.
fn batches_ms(batches: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t)
        })
        .collect()
}

/// Median cost of one call in ns, from `batches` batches of `calls` calls.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples = batches_ms(batches, || {
        for _ in 0..calls {
            f();
        }
    });
    median(&samples) * 1e6 / calls as f64
}

struct Sink<'a>(&'a mut Metrics);

impl Sink<'_> {
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        metrics::put(self.0, &PER_LAYER, name, value, samples);
    }

    fn median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.len());
    }
}

const VARIANTS: [VariantId; 4] = [
    VariantId::BaseSeq,
    VariantId::RajaSeq,
    VariantId::RajaPar,
    VariantId::RajaSimGpu,
];

/// kernels / raja / gpusim / the pool: the registry in process at a small
/// size factor, and the bare dispatch paths on empty bodies.
fn kernels_and_dispatch(m: &mut Sink) -> io::Result<()> {
    const PASSES: usize = 3;
    let mut timed = vec![Vec::new(); VARIANTS.len()];
    let mut untimed = vec![Vec::new(); VARIANTS.len()];
    let mut per_kernel: Vec<std::collections::BTreeMap<String, Vec<f64>>> =
        vec![Default::default(); 2];
    let (mut flops, mut bytes) = (0.0, 0.0);
    let mut device = gpusim::stats();
    for pass in 0..PASSES {
        for (v, variant) in VARIANTS.iter().enumerate() {
            let params = run_params(&["--variant", variant.name(), "--size-factor", "0.01"])?;
            gpusim::reset_stats();
            let t = Instant::now();
            let report = suite::run_suite(&params);
            let wall = t.elapsed().as_secs_f64();
            if !report.all_passed() {
                return Err(io::Error::other(format!(
                    "{}: kernel failures",
                    variant.name()
                )));
            }
            let kernel_s: f64 = report
                .entries
                .iter()
                .map(|e| e.result.time.as_secs_f64())
                .sum();
            timed[v].push(kernel_s);
            untimed[v].push(wall - kernel_s);
            if v < 2 {
                for e in &report.entries {
                    per_kernel[v]
                        .entry(e.kernel.clone())
                        .or_default()
                        .push(e.result.time_per_rep());
                }
            }
            if pass == 0 && *variant == VariantId::BaseSeq {
                for e in &report.entries {
                    flops += e.result.metrics.flops * e.reps as f64;
                    bytes += (e.result.metrics.bytes_read + e.result.metrics.bytes_written)
                        * e.reps as f64;
                }
            }
            if *variant == VariantId::RajaSimGpu {
                device = gpusim::stats();
            }
        }
    }
    for (v, variant) in VARIANTS.iter().enumerate() {
        m.median(&format!("kernels.timed_s.{}", variant.name()), &timed[v]);
        m.median(
            &format!("kernels.untimed_s.{}", variant.name()),
            &untimed[v],
        );
    }
    m.put("kernels.flops", flops, 1);
    m.put("kernels.bytes_computed", bytes, 1);
    m.put("gpusim.launches", device.launches as f64, 1);
    m.put("gpusim.threads", device.threads_launched as f64, 1);
    m.put(
        "rayon.par_speedup",
        median(&timed[1]) / median(&timed[2]),
        PASSES,
    );
    // Geometric mean over kernels of RAJA_Seq / Base_Seq time per rep.
    let ratios: Vec<f64> = per_kernel[0]
        .iter()
        .filter_map(|(kernel, base)| Some(median(per_kernel[1].get(kernel)?) / median(base)))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    m.put("raja.seq_over_base", geomean, ratios.len());

    // HALO packing, per direction and fused, as `benches/comm.rs` sizes it.
    let n = kernels::comm::NUM_VARS * 16 * 16 * 16;
    for (name, fused) in [
        ("kernels.comm.halo_packing_ms", false),
        ("kernels.comm.halo_packing_fused_ms", true),
    ] {
        let samples = batches_ms(15, || {
            black_box(kernels::comm::run_exchange_decomposed(
                n,
                4,
                VariantId::BaseSeq,
                256,
                fused,
                2,
                true,
            ));
        });
        m.median(name, &samples);
    }

    const N: usize = 1 << 20;
    let seq = batches_ms(15, || {
        raja::forall::<raja::SeqExec>(0..N, |i| {
            black_box(i);
        })
    });
    m.put(
        "raja.forall_seq_ns_per_elem",
        median(&seq) * 1e6 / N as f64,
        seq.len(),
    );
    let par = batches_ms(15, || {
        raja::forall::<raja::ParExec>(0..N, |i| {
            black_box(i);
        })
    });
    m.put(
        "raja.forall_par_ns_per_elem",
        median(&par) * 1e6 / N as f64,
        par.len(),
    );

    let bs = gpusim::DEFAULT_BLOCK_SIZE;
    m.put(
        "gpusim.launch_empty_ns",
        per_call_ns(15, 200, || gpusim::launch_1d(bs, bs, |_| {})),
        15,
    );
    let fast = batches_ms(15, || {
        gpusim::launch_1d(N, bs, |i| {
            black_box(i);
        })
    });
    m.put(
        "gpusim.launch_1d_ns_per_thread",
        median(&fast) * 1e6 / N as f64,
        fast.len(),
    );
    gpusim::force_generic_launch(true);
    let generic = batches_ms(15, || {
        gpusim::launch_1d(N, bs, |i| {
            black_box(i);
        })
    });
    gpusim::force_generic_launch(false);
    m.put(
        "gpusim.launch_generic_ns_per_thread",
        median(&generic) * 1e6 / N as f64,
        generic.len(),
    );
    Ok(())
}

/// A session shaped like a full-registry run: root, group and kernel
/// regions with the metrics the suite sets on each kernel.
fn registry_shaped_session() -> caliper::Session {
    let session = caliper::Session::new();
    session.set_global("variant", "Base_Seq");
    session.begin("RAJAPerf");
    for k in kernels::registry() {
        let info = k.info();
        session.begin(info.group.name());
        session.begin(info.name);
        for metric in [
            "ProblemSize",
            "Reps",
            "Bytes/Rep",
            "BytesRead/Rep",
            "BytesWritten/Rep",
            "Flops/Rep",
            "Checksum",
            "Time/Rep",
        ] {
            session.set_metric(metric, 1.5);
        }
        session.end(info.name);
        session.end(info.group.name());
    }
    session.end("RAJAPerf");
    session
}

/// caliper: annotation cost, profile build, serialisation, and the
/// fsync-and-rename write of one full-registry profile.
fn caliper_costs(m: &mut Sink, dir: &Path) -> io::Result<()> {
    let session = caliper::Session::new();
    m.put(
        "caliper.region_ns",
        per_call_ns(15, 20_000, || {
            session.begin("r");
            session.end("r");
        }),
        15,
    );
    session.begin("r");
    m.put(
        "caliper.set_metric_ns",
        per_call_ns(15, 20_000, || session.set_metric("Reps", 2.0)),
        15,
    );
    session.end("r");

    let shaped = registry_shaped_session();
    m.median(
        "caliper.profile_build_ms",
        &batches_ms(15, || {
            black_box(shaped.profile());
        }),
    );
    let profile = shaped.profile();
    m.median(
        "caliper.to_json_ms",
        &batches_ms(15, || {
            black_box(profile.to_json());
        }),
    );
    let text = profile.to_json();
    m.median(
        "caliper.from_json_ms",
        &batches_ms(15, || {
            black_box(caliper::Profile::from_json(&text).is_ok());
        }),
    );
    m.put("caliper.profile_bytes", text.len() as f64, 1);

    const WRITES: usize = 100;
    let mut writes = Vec::with_capacity(WRITES);
    for i in 0..WRITES {
        let t = Instant::now();
        caliper::write_atomic(&dir.join(format!("w{}.cali.json", i % 8)), text.as_bytes())?;
        writes.push(ms(t));
    }
    m.median("caliper.write_atomic_p50_ms", &writes);
    let tail = tail_percentile(WRITES).expect("100 writes carry a tail percentile");
    m.put(
        "caliper.write_atomic_tail_ms",
        percentile(&writes, tail),
        WRITES,
    );
    Ok(())
}

/// suite: the run loop's own cost around the kernels, the guard around one
/// execution, and the argument round trip a process-isolated rank pays.
fn suite_costs(m: &mut Sink) -> io::Result<()> {
    let params = run_params(&["--size", "2000", "--reps", "1"])?;
    let selected: Vec<&'static dyn KernelBase> = params.selected_kernels();
    let mut run_ms = Vec::new();
    let mut framework = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        black_box(suite::run_suite(&params));
        let run = ms(t);
        let t = Instant::now();
        for k in &selected {
            let info = k.info();
            black_box(k.execute(
                params.variant,
                params.problem_size(&info),
                params.reps(&info),
                &params.tuning,
            ));
        }
        run_ms.push(run);
        framework.push((run - ms(t)) / selected.len() as f64);
    }
    m.median("suite.run_suite_small_ms", &run_ms);
    m.median("suite.framework_ms_per_kernel", &framework);

    let daxpy = kernels::find("Basic_DAXPY")
        .ok_or_else(|| io::Error::other("Basic_DAXPY is not registered"))?;
    let policy = suite::FaultPolicy {
        timeout: None,
        max_retries: 0,
        retry_backoff: std::time::Duration::ZERO,
    };
    let tuning = kernels::Tuning::default();
    let guarded = per_call_ns(15, 500, || {
        black_box(suite::exec::execute_guarded(
            daxpy,
            VariantId::BaseSeq,
            100,
            1,
            &tuning,
            &policy,
        ));
    });
    let direct = per_call_ns(15, 500, || {
        black_box(daxpy.execute(VariantId::BaseSeq, 100, 1, &tuning));
    });
    m.put("suite.exec_guarded_us", (guarded - direct) / 1e3, 15);

    let sweep = run_params(&[
        "--sweep",
        "--sweep-block-sizes",
        "128,256",
        "--size",
        "500",
        "--reps",
        "1",
        "--ranks",
        "2",
    ])?;
    let roundtrip = per_call_ns(15, 200, || {
        black_box(RunParams::parse(&sweep.to_argv()).is_ok());
    });
    m.put("suite.params_roundtrip_us", roundtrip / 1e3, 15);
    Ok(())
}

/// suite::sweep, its two rank executors and simcomm: a 12-cell sweep of
/// least-size cells in all four modes, then the transport it gathers over.
fn sweep_costs(m: &mut Sink, dir: &Path) -> io::Result<()> {
    const REPEATS: usize = 3;
    let params_for = |mode: &str| -> io::Result<RunParams> {
        let sw = dir.join(mode);
        fresh_dir(&sw)?;
        let sw = sw.to_string_lossy().into_owned();
        run_params(&[
            "--sweep",
            "--sweep-block-sizes",
            "128,256",
            "--size",
            "500",
            "--reps",
            "1",
            "--sweep-dir",
            &sw,
        ])
    };
    let (mut cold, mut warm, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut threads, mut process, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut executed, mut cached, mut messages, mut bytes_per_cell, mut restarts) =
        (0, 0, 0, 0.0, 0);
    for _ in 0..REPEATS {
        let p = params_for("ranks1")?;
        let t = Instant::now();
        let summary = suite::run_sweep(&p)?;
        let cold_ms = ms(t);
        let cells = summary.cells.len();
        let kernel_ms: f64 = summary.cells.iter().map(|c| c.total_time_s * 1e3).sum();
        cold.push(cold_ms);
        overhead.push((cold_ms - kernel_ms) / cells as f64);
        executed = summary.cells.iter().filter(|c| !c.cached).count();
        let t = Instant::now();
        let again = suite::run_sweep(&p)?;
        warm.push(ms(t));
        cached = again.cells.iter().filter(|c| c.cached).count();

        let mut p = params_for("threads")?;
        p.ranks = 2;
        let t = Instant::now();
        let ranked = suite::run_sweep(&p)?;
        let wall_ms = ms(t);
        threads.push(wall_ms);
        // Time a rank spent not executing cells, as a share of both ranks'
        // wall: waiting for the other rank, stealing, gathering.
        let busy_ms: f64 = ranked
            .cells
            .iter()
            .filter(|c| c.executed_by.is_some())
            .map(|c| c.total_time_s * 1e3)
            .sum();
        idle.push(1.0 - busy_ms / (2.0 * wall_ms));
        messages = ranked
            .rank_stats
            .iter()
            .map(|s| s.messages_sent)
            .sum::<u64>();
        bytes_per_cell =
            ranked.rank_stats.iter().map(|s| s.bytes_sent).sum::<u64>() as f64 / cells as f64;

        let mut p = params_for("process")?;
        p.ranks = 2;
        p.rank_isolation = RankIsolation::Process;
        let t = Instant::now();
        let ranked = suite::run_sweep(&p)?;
        process.push(ms(t));
        restarts = ranked.rank_restarts.iter().sum::<u32>();
    }
    m.median("suite.sweep.cell_overhead_ms", &overhead);
    m.put(
        "suite.sweep.cache_scan_ms_per_cell",
        median(&warm) / cached.max(1) as f64,
        warm.len(),
    );
    m.median("suite.sweep.warm_ms", &warm);
    m.put("suite.sweep.cells_executed", executed as f64, 1);
    m.put("suite.sweep.cells_cached", cached as f64, 1);
    m.median("sweep.ranks.threads_ms", &threads);
    m.median("sweep.ranks.process_ms", &process);
    m.put(
        "sweep.ranks.threads_efficiency",
        median(&cold) / (2.0 * median(&threads)),
        REPEATS,
    );
    m.put(
        "sweep.ranks.process_efficiency",
        median(&cold) / (2.0 * median(&process)),
        REPEATS,
    );
    m.median("sweep.ranks.idle_frac", &idle);
    m.put("sweep.ranks.gather_messages", messages as f64, 1);
    m.put("sweep.ranks.gather_bytes_per_cell", bytes_per_cell, 1);
    m.put("sweep.process.restarts", f64::from(restarts), 1);

    // One frame of the measured gather size through the pipe framing: the
    // number that decides whether binary gather frames are worth having.
    let padding = "x".repeat((bytes_per_cell as usize).saturating_sub(40));
    let frame = json!({"kind": "result", "cell": 3, "body": padding});
    let mut wire = Vec::new();
    let frame_bytes = simcomm::transport::write_frame(&mut wire, &frame)?;
    m.put("simcomm.transport.frame_bytes", frame_bytes as f64, 1);
    let roundtrip = per_call_ns(15, 500, || {
        wire.clear();
        simcomm::transport::write_frame(&mut wire, &frame).expect("write to a Vec");
        black_box(
            simcomm::transport::read_frame(&mut wire.as_slice()).expect("frame just written"),
        );
    });
    m.put("simcomm.transport.frame_roundtrip_us", roundtrip / 1e3, 15);

    // Two ranks ping-pong inside one `simcomm::run`, timed by rank 0 after
    // the barrier: no thread spawn in the timed region. The spawn cost that
    // `rank_scaling` in benches/comm.rs folds in is the metric after it.
    const PINGS: usize = 2000;
    let payload = vec![7u8; 256];
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let times = simcomm::run(2, |mut comm| {
                comm.barrier();
                let t = Instant::now();
                for _ in 0..PINGS {
                    if comm.rank() == 0 {
                        comm.send_bytes(1, 1, &payload);
                        black_box(comm.recv_bytes(1, 2));
                    } else {
                        black_box(comm.recv_bytes(0, 1));
                        comm.send_bytes(0, 2, &payload);
                    }
                }
                ms(t)
            });
            times[0] * 1e3 / PINGS as f64
        })
        .collect();
    m.median("simcomm.msg_roundtrip_us", &rounds);
    let spawn = batches_ms(30, || {
        black_box(simcomm::run(2, |comm| comm.rank()));
    });
    m.median(
        "simcomm.run_spawn_us",
        &spawn.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    Ok(())
}

/// rajaperfd: an in-process daemon answering misses, hits, pings and
/// `analyze store`, then its store and protocol called directly.
fn daemon_costs(m: &mut Sink, dir: &Path) -> io::Result<()> {
    const KEYS: usize = 100;
    let socket = daemon::socket_path(dir);
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        store_dir: dir.join("store"),
        queue_capacity: 16,
        workers: 2,
    })?;
    let ask = |req: &Request| -> io::Result<(rajaperfd::Response, f64)> {
        let (response, ms) = daemon::timed(&socket, req);
        let response = response?;
        if response.exit_code != 0 {
            return Err(io::Error::other(format!(
                "{}: exit code {}",
                req.id(),
                response.exit_code
            )));
        }
        Ok((response, ms))
    };
    let (mut miss, mut hit, mut ping) = (Vec::new(), Vec::new(), Vec::new());
    let mut reply_bytes = 0;
    let mut record = Value::Null;
    for repeat in [false, true] {
        for k in 0..KEYS {
            let (response, ms) = ask(&daemon::run_request("micro", 6200 + k))?;
            if response.cached() != repeat {
                return Err(io::Error::other(format!(
                    "size {}: cached = {}",
                    6200 + k,
                    response.cached()
                )));
            }
            if repeat {
                hit.push(ms);
                reply_bytes = response
                    .events
                    .iter()
                    .map(|e| e.to_string().len() + 1)
                    .sum();
                record = json!({"report": response.report().cloned().unwrap_or_default()});
            } else {
                miss.push(ms);
            }
        }
    }
    for _ in 0..30 {
        ping.push(ask(&Request::Ping { id: "micro".into() })?.1);
    }
    let analyze = Request::Analyze {
        id: "micro".into(),
        dir: "store".into(),
        metric: "avg#time.duration".into(),
    };
    let analyze_miss = ask(&analyze)?.1;
    let analyze_hit = ask(&analyze)?.1;
    let (stats, _) = ask(&Request::Stats { id: "micro".into() })?;
    let stats = stats.find("stats").cloned().unwrap_or_default();
    ask(&Request::Shutdown { id: "micro".into() })?;
    daemon.wait()?;

    let tail = tail_percentile(KEYS).expect("100 requests carry a tail percentile");
    m.median("rajaperfd.miss_p50_ms", &miss);
    m.put("rajaperfd.miss_tail_ms", percentile(&miss, tail), KEYS);
    m.median("rajaperfd.hit_p50_ms", &hit);
    m.put("rajaperfd.hit_tail_ms", percentile(&hit, tail), KEYS);
    m.median("rajaperfd.ping_p50_ms", &ping);
    m.put("rajaperfd.analyze_store_miss_ms", analyze_miss, 1);
    m.put("rajaperfd.analyze_store_hit_ms", analyze_hit, 1);
    m.put("rajaperfd.reply_bytes", reply_bytes as f64, 1);
    let (hits, misses) = (
        stats["store"]["hits"].as_f64().unwrap_or(0.0),
        stats["store"]["misses"].as_f64().unwrap_or(0.0),
    );
    m.put("rajaperfd.store.hit_ratio", hits / (hits + misses), 1);
    m.put(
        "rajaperfd.rejected",
        stats["rejected"].as_f64().unwrap_or(f64::NAN),
        1,
    );

    // The same record through the store's own functions.
    let store = ProfileStore::open(dir.join("direct-store"))?;
    let keys: Vec<Value> = (0..60).map(|k| json!({"kind": "run", "size": k})).collect();
    let mut puts = Vec::new();
    for key in &keys {
        let t = Instant::now();
        store.put(key, record.clone())?;
        puts.push(ms(t) * 1e3);
    }
    m.median("rajaperfd.store.put_us", &puts);
    let gets: Vec<f64> = keys
        .iter()
        .map(|key| {
            let t = Instant::now();
            black_box(store.get(key));
            ms(t) * 1e3
        })
        .collect();
    m.median("rajaperfd.store.get_us", &gets);
    let run_key = rajaperfd::server::run_key(&run_params(&["--size", "2000", "--reps", "1"])?);
    m.put(
        "rajaperfd.store.key_hash_us",
        per_call_ns(15, 200, || {
            black_box(ProfileStore::key_hash(&run_key));
        }) / 1e3,
        15,
    );
    let line = daemon::run_request("micro", 2000).to_line();
    m.put(
        "rajaperfd.protocol.parse_us",
        per_call_ns(15, 2000, || {
            black_box(Request::parse(&line, "x").is_ok());
        }) / 1e3,
        15,
    );
    Ok(())
}

/// thicket / hierclust / perfmodel: a fixed 120-profile corpus parsed,
/// ingested, grouped, reduced, snapshotted, reopened and clustered.
fn thicket_costs(m: &mut Sink, dir: &Path) -> io::Result<()> {
    const PROFILES: usize = 120;
    const METRIC: &str = "avg#time.duration";
    let mut texts = Vec::new();
    for variant in VARIANTS {
        let report = suite::run_suite(&run_params(&[
            "--variant",
            variant.name(),
            "--size",
            "500",
            "--reps",
            "1",
        ])?);
        let template: Value =
            serde_json::from_str(&report.profile.to_json()).map_err(io::Error::other)?;
        for i in 0..PROFILES / VARIANTS.len() {
            let profile = crate::inputs::corpus_profile(&template, 0, i);
            texts.push(serde_json::to_string_pretty(&profile).map_err(io::Error::other)?);
        }
    }
    let total_bytes: usize = texts.iter().map(String::len).sum();

    let mut parse_ms = Vec::new();
    let mut ingest_us = Vec::new();
    let mut tk = Thicket::default();
    for _ in 0..3 {
        let t = Instant::now();
        let parsed: Vec<ProfileData> = texts
            .iter()
            .map(|text| ProfileData::from_caliper_json(text).map_err(io::Error::other))
            .collect::<io::Result<_>>()?;
        parse_ms.push(ms(t));
        let t = Instant::now();
        let mut session = thicket::IngestSession::new();
        for p in &parsed {
            session.ingest(p);
        }
        tk = session.finish();
        ingest_us.push(ms(t) * 1e3 / PROFILES as f64);
    }
    m.put(
        "thicket.parse_ms_per_profile",
        median(&parse_ms) / PROFILES as f64,
        parse_ms.len(),
    );
    m.put(
        "thicket.parse_mb_per_s",
        total_bytes as f64 / 1e6 / (median(&parse_ms) / 1e3),
        parse_ms.len(),
    );
    m.median("thicket.ingest_us_per_profile", &ingest_us);
    m.median(
        "thicket.groupby_ms",
        &batches_ms(9, || {
            black_box(tk.groupby("variant"));
        }),
    );
    m.median(
        "thicket.stats_ms",
        &batches_ms(9, || {
            for stat in [Stat::Mean, Stat::Min, Stat::Max] {
                black_box(tk.stats(METRIC, stat));
            }
        }),
    );
    let snapshot = dir.join("micro.tkt");
    let mut write_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tk.write_tkt(&snapshot)?;
        write_ms.push(ms(t));
    }
    m.median("thicket.write_tkt_ms", &write_ms);
    let mut read_ms = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        black_box(Thicket::read_tkt(&snapshot)?);
        read_ms.push(ms(t));
    }
    m.median("thicket.read_tkt_ms", &read_ms);
    m.put(
        "thicket.tkt_bytes",
        std::fs::metadata(&snapshot)?.len() as f64,
        1,
    );
    m.put("thicket.rows", tk.row_count() as f64, 1);

    let features = thicket::kernel_family_features(&tk, METRIC);
    m.median(
        "hierclust.ward_ms",
        &batches_ms(9, || {
            black_box(hierclust::nn_chain_ward(&features.points));
        }),
    );
    m.median(
        "perfmodel.simulate_all_ms",
        &batches_ms(5, || {
            black_box(suite::simulate::simulate_all());
        }),
    );
    Ok(())
}

/// Every unit-cost metric, measured in this process under `dir`.
pub fn measure(dir: &Path) -> io::Result<Metrics> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let mut metrics = Metrics::new();
    let mut m = Sink(&mut metrics);
    kernels_and_dispatch(&mut m)?;
    caliper_costs(&mut m, dir)?;
    suite_costs(&mut m)?;
    sweep_costs(&mut m, dir)?;
    daemon_costs(&mut m, dir)?;
    thicket_costs(&mut m, dir)?;
    m.put("micro.wall_s", started.elapsed().as_secs_f64(), 1);
    Ok(metrics)
}
