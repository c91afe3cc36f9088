//! `daemon_serve`: one `rajaperfd --workers 2` on a fresh store, driven by
//! closed-loop clients — closed, because a client of this daemon waits for
//! `done` before it asks again.
//!
//! The service path is accept → parse → admission → execute → store put for
//! a miss, and store get → replay for a hit, so a miss exercises the write
//! side of `rajaperfd::store` and a hit the read side. Two clients at once
//! expose contention on the gate, the queue and the store that one client
//! cannot.
//!
//! * `full_ms`  — median connect→`done` of a `run` the store has not seen
//!   (full registry, `--size 2000+k --reps 1`, one client).
//! * `floor_ms` — median connect→`done` of the same request repeated.
//! * `par2_ms`  — two clients sending a seeded mix of misses, hits and pings:
//!   wall of the burst divided by its requests.

use super::{Ctx, Outcome, Workload};
use crate::inputs::{daemon_pass, daemon_plan_digest, Op};
use crate::proc;
use crate::stats::fnv_hex;
use rajaperfd::{Request, Response};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct DaemonServe {
    server: Option<proc::Running>,
    /// Digest of the report each stored size was answered with.
    reports: BTreeMap<usize, String>,
    requests: u64,
}

/// Passes of the request plan the printed digest covers.
const DIGEST_PASSES: usize = 8;

/// Below every size of the request plan.
const WARMUP_SIZE: usize = 1999;

pub fn socket_path(dir: &Path) -> PathBuf {
    let socket = dir.join("d.sock");
    assert!(
        socket.as_os_str().len() < 100,
        "unix socket path too long, run from a shorter directory: {}",
        socket.display()
    );
    socket
}

pub fn run_request(id: &str, size: usize) -> Request {
    Request::Run {
        id: id.to_string(),
        argv: ["--size", &size.to_string(), "--reps", "1"]
            .map(str::to_string)
            .to_vec(),
    }
}

/// One request, timed from connect to `done`.
pub fn timed(socket: &Path, req: &Request) -> (io::Result<Response>, f64) {
    let t = Instant::now();
    let response = rajaperfd::submit(socket, req);
    (response, t.elapsed().as_secs_f64() * 1e3)
}

/// Two closed-loop clients at once, each working through its own list; every
/// request with its answer, client 0's first.
pub fn two_client_burst(
    socket: &Path,
    pass: usize,
    duo: &[Vec<Op>; 2],
) -> Vec<(Op, io::Result<Response>)> {
    std::thread::scope(|s| {
        let clients: Vec<_> = duo
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                s.spawn(move || -> Vec<(Op, io::Result<Response>)> {
                    ops.iter()
                        .enumerate()
                        .map(|(i, &op)| {
                            let id = format!("p{pass}-duo{c}-{i}");
                            let req = match op {
                                Op::Run { size, .. } => run_request(&id, size),
                                Op::Ping => Request::Ping { id },
                            };
                            (op, rajaperfd::submit(socket, &req))
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("daemon client thread panicked"))
            .collect()
    })
}

impl DaemonServe {
    /// Check one answered `run` against what the store must have done.
    fn check_run(
        &mut self,
        size: usize,
        repeat: bool,
        response: io::Result<Response>,
        out: &mut Outcome,
    ) {
        let what = format!(
            "run --size {size} ({})",
            if repeat { "repeat" } else { "first" }
        );
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("{what}: {e}"));
                return;
            }
        };
        if !out.check(response.exit_code == 0, || {
            format!("{what}: done.exit_code {}", response.exit_code)
        }) {
            return;
        }
        let digest = response.report().map(|r| fnv_hex(r.to_string().as_bytes()));
        if repeat {
            let expect = self.reports.get(&size);
            out.check(
                response.cached() && response.progress_count() == 0 && digest.as_ref() == expect,
                || {
                    format!(
                        "{what}: cached={} progress={} report digest {digest:?}, first answer had {expect:?}",
                        response.cached(),
                        response.progress_count()
                    )
                },
            );
        } else {
            out.check(!response.cached() && digest.is_some(), || {
                format!("{what}: served from a fresh store")
            });
            if let Some(d) = digest {
                self.reports.insert(size, d);
            }
        }
    }

    fn check_ping(response: io::Result<Response>, out: &mut Outcome) {
        let version = response
            .as_ref()
            .ok()
            .and_then(|r| r.find("pong"))
            .and_then(|p| p["version"].as_str().map(str::to_string));
        // The daemon under test must be the build the in-process layer
        // numbers come from.
        out.check(version.as_deref() == Some(suite::code_version()), || {
            format!(
                "ping: daemon version {version:?}, harness links {}",
                suite::code_version()
            )
        });
    }
}

/// A set-up or pass that fails early must not leave the daemon running.
impl Drop for DaemonServe {
    fn drop(&mut self) {
        if let Some(child) = self.server.take() {
            let _ = proc::kill(&child);
            let _ = proc::reap(child);
        }
    }
}

impl Workload for DaemonServe {
    fn setup(&mut self, ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
        let socket = socket_path(dir);
        self.reports.clear();
        self.requests = 0;
        let note = format!(
            "request plan digest {} (first {DIGEST_PASSES} passes, {} keys each)",
            daemon_plan_digest(ctx.seed, DIGEST_PASSES, ctx.scale.daemon_keys),
            ctx.scale.daemon_keys
        );
        if !out.notes.contains(&note) {
            out.notes.push(note);
        }
        let spawned = proc::spawn(
            ctx.command("rajaperfd", 1).current_dir(dir).args([
                "--socket",
                "d.sock",
                "--store",
                "store",
                "--workers",
                "2",
            ]),
            &dir.join("daemon.out"),
            &dir.join("daemon.err"),
        )?;
        self.server = Some(spawned);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (pong, _) = timed(
            &socket,
            &Request::Ping {
                id: "warm-up".into(),
            },
        );
        Self::check_ping(pong, out);
        // Warm-up on a size the plan never uses: a miss, its hit, and
        // `analyze store` twice - the second answer must come from the
        // derived-result cache.
        for repeat in [false, true] {
            let (response, _) = timed(&socket, &run_request("warm-up", WARMUP_SIZE));
            self.check_run(WARMUP_SIZE, repeat, response, out);
        }
        for (id, want_cached) in [("analyze-first", false), ("analyze-again", true)] {
            let req = Request::Analyze {
                id: id.into(),
                dir: "store".into(),
                metric: "avg#time.duration".into(),
            };
            let response = rajaperfd::submit(&socket, &req);
            let ok = response
                .as_ref()
                .is_ok_and(|r| r.exit_code == 0 && r.cached() == want_cached);
            out.check(ok, || {
                format!(
                    "{id}: {:?}",
                    response.as_ref().map(|r| (r.exit_code, r.cached()))
                )
            });
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, dir: &Path, index: usize, out: &mut Outcome) -> io::Result<()> {
        let socket = socket_path(dir);
        let plan = daemon_pass(ctx.seed, index, ctx.scale.daemon_keys);

        for (i, op) in plan.solo.iter().enumerate() {
            let id = format!("p{index}-solo-{i}");
            self.requests += 1;
            match *op {
                Op::Run { size, repeat } => {
                    let (response, ms) = timed(&socket, &run_request(&id, size));
                    self.check_run(size, repeat, response, out);
                    out.sample(if repeat { "floor_ms" } else { "full_ms" }, ms);
                }
                Op::Ping => Self::check_ping(timed(&socket, &Request::Ping { id }).0, out),
            }
        }

        let burst = Instant::now();
        let answers = two_client_burst(&socket, index, &plan.duo);
        let burst_ms = burst.elapsed().as_secs_f64() * 1e3;
        let sent = answers.len();
        self.requests += sent as u64;
        out.sample("par2_ms", burst_ms / sent as f64);
        for (op, response) in answers {
            match op {
                Op::Run { size, repeat } => self.check_run(size, repeat, response, out),
                Op::Ping => Self::check_ping(response, out),
            }
        }
        Ok(())
    }

    fn teardown(&mut self, _ctx: &Ctx, dir: &Path, out: &mut Outcome) -> io::Result<()> {
        let Some(child) = self.server.take() else {
            return Ok(());
        };
        let socket = socket_path(dir);
        let stats = rajaperfd::submit(&socket, &Request::Stats { id: "stats".into() });
        let stats = stats.as_ref().ok().and_then(|r| r.find("stats"));
        let rejected = stats.and_then(|s| s["rejected"].as_i64());
        out.check(rejected == Some(0), || {
            format!("stats: rejected = {rejected:?}")
        });
        if let Some(s) = stats {
            out.notes.push(format!(
                "daemon stats after {} requests: {s}",
                self.requests
            ));
        }
        let bye = rajaperfd::submit(&socket, &Request::Shutdown { id: "bye".into() });
        if !out.check(bye.is_ok(), || format!("shutdown: {bye:?}")) {
            proc::kill(&child)?;
        }
        let exit = proc::reap(child)?;
        out.check(exit.code == 0, || {
            format!("rajaperfd exit code {}", exit.code)
        });
        out.peak_rss_kb = out.peak_rss_kb.max(exit.maxrss_kb);
        Ok(())
    }
}
