//! Running the programs under test as child processes, the way a user does,
//! and reading each child's wall time and peak memory.
//!
//! Children are not spawned by the harness itself but by a *launcher*: this
//! same executable in `--launcher` mode, started before the harness has
//! allocated anything. Linux folds the memory a process had before `exec`
//! into its `ru_maxrss`, so a child forked from a harness holding 30 MB of
//! reports would read as 30 MB whatever it did. The launcher stays at a
//! couple of MB, below every program under test, so what `wait4` returns is
//! the child's own peak.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads child rusage through Linux's 64-bit wait4 layout");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Exit {
    /// Exit code; a death by signal reads as `128 + signal`.
    pub code: i32,
    /// Spawn to exit, as the launcher saw it.
    pub wall_s: f64,
    /// `ru_maxrss` of the child and the descendants it waited for, KiB.
    pub maxrss_kb: i64,
}

/// Reap `child` with `wait4`, which unlike `Child::wait` also returns the
/// child's resource usage.
fn wait4_child(child: Child, spawned: Instant) -> io::Result<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: `status` and `usage` are live, writable and of the layout
    // wait4 expects on this target (checked by the cfg above); `pid` is a
    // child of this process that nothing else reaps, since `child` is
    // consumed here and std only waits on a `Child` through its methods.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = spawned.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Exit {
        code,
        wall_s,
        maxrss_kb: usage.maxrss,
    })
}

fn text(v: &Value, key: &str) -> io::Result<String> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| io::Error::other(format!("launcher message lacks '{key}': {v}")))
}

/// The launcher's side: one request line in, one reply line out, until the
/// harness closes the pipe; then whatever is still running is killed.
pub fn serve(requests: impl BufRead, mut replies: impl Write) -> io::Result<()> {
    let mut running: BTreeMap<i64, (Child, Instant)> = BTreeMap::new();
    let mut next_id = 0;
    for line in requests.lines() {
        let request: Value = serde_json::from_str(&line?).map_err(io::Error::other)?;
        let id = request["id"].as_i64().unwrap_or(-1);
        let reply = match request["op"].as_str() {
            Some("spawn") => (|| -> io::Result<Value> {
                let mut cmd = Command::new(text(&request, "program")?);
                for arg in request["args"].as_array().map(Vec::as_slice).unwrap_or(&[]) {
                    cmd.arg(arg.as_str().unwrap_or_default());
                }
                for (name, value) in request["envs"].as_object().into_iter().flatten() {
                    match value.as_str() {
                        Some(v) => cmd.env(name, v),
                        None => cmd.env_remove(name),
                    };
                }
                if let Some(dir) = request["cwd"].as_str() {
                    cmd.current_dir(dir);
                }
                // A user's `> out 2> err`: a chatty child never blocks on a
                // full pipe.
                cmd.stdin(Stdio::null())
                    .stdout(File::create(text(&request, "stdout")?)?)
                    .stderr(File::create(text(&request, "stderr")?)?);
                let spawned = Instant::now();
                running.insert(next_id, (cmd.spawn()?, spawned));
                next_id += 1;
                Ok(json!({"id": next_id - 1}))
            })(),
            Some("reap") => running
                .remove(&id)
                .ok_or_else(|| io::Error::other(format!("no child {id}")))
                .and_then(|(child, spawned)| wait4_child(child, spawned))
                .map(|e| json!({"code": e.code, "wall_s": e.wall_s, "maxrss_kb": e.maxrss_kb})),
            Some("kill") => running
                .get_mut(&id)
                .ok_or_else(|| io::Error::other(format!("no child {id}")))
                .and_then(|(child, _)| child.kill())
                .map(|()| json!({"killed": id})),
            _ => Err(io::Error::other(format!(
                "unknown launcher request: {request}"
            ))),
        };
        let reply = reply.unwrap_or_else(|e: io::Error| json!({"error": e.to_string()}));
        writeln!(replies, "{reply}")?;
        replies.flush()?;
    }
    for (_, (mut child, _)) in running {
        let _ = child.kill();
        let _ = child.wait();
    }
    Ok(())
}

struct Launcher {
    process: Child,
    /// `None` once [`stop_launcher`] has closed the pipe.
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

static LAUNCHER: OnceLock<Mutex<Launcher>> = OnceLock::new();

/// Start the launcher. Call first thing in `main`, while this process is
/// still small; every later [`spawn`] goes through it.
pub fn start_launcher() -> io::Result<()> {
    let mut process = Command::new(std::env::current_exe()?)
        .arg("--launcher")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let requests = process.stdin.take().expect("piped stdin");
    let replies = BufReader::new(process.stdout.take().expect("piped stdout"));
    let launcher = Launcher {
        process,
        requests: Some(requests),
        replies,
    };
    LAUNCHER
        .set(Mutex::new(launcher))
        .map_err(|_| io::Error::other("launcher started twice"))
}

/// Close the launcher's pipe and wait for it to end (it kills whatever it
/// still runs). Call before the harness exits, on every path.
pub fn stop_launcher() {
    if let Some(launcher) = LAUNCHER.get() {
        let mut launcher = launcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        launcher.requests = None;
        let _ = launcher.process.wait();
    }
}

fn ask(request: &Value) -> io::Result<Value> {
    let launcher = LAUNCHER
        .get()
        .ok_or_else(|| io::Error::other("launcher not started"))?;
    let mut launcher = launcher
        .lock()
        .expect("a panic while talking to the launcher");
    let requests = launcher
        .requests
        .as_mut()
        .ok_or_else(|| io::Error::other("launcher already stopped"))?;
    writeln!(requests, "{request}")?;
    requests.flush()?;
    let mut line = String::new();
    launcher.replies.read_line(&mut line)?;
    let reply: Value = serde_json::from_str(&line).map_err(io::Error::other)?;
    match reply["error"].as_str() {
        Some(e) => Err(io::Error::other(e.to_string())),
        None => Ok(reply),
    }
}

/// The launcher request that spawns `cmd` with its output in two files.
fn spawn_request(cmd: &Command, stdout: &Path, stderr: &Path) -> Value {
    let lossy = |s: &std::ffi::OsStr| s.to_string_lossy().into_owned();
    let args: Vec<String> = cmd.get_args().map(lossy).collect();
    let envs: BTreeMap<String, Value> = cmd
        .get_envs()
        .map(|(name, value)| {
            (
                lossy(name),
                value.map_or(Value::Null, |v| Value::String(lossy(v))),
            )
        })
        .collect();
    json!({
        "op": "spawn",
        "program": lossy(cmd.get_program()),
        "args": args,
        "envs": envs,
        "cwd": cmd.get_current_dir().map(|d| lossy(d.as_os_str())),
        "stdout": lossy(stdout.as_os_str()),
        "stderr": lossy(stderr.as_os_str())
    })
}

/// A child the launcher is running.
#[derive(Debug)]
pub struct Running(i64);

/// Spawn `cmd` (program, arguments, environment changes and working
/// directory are honoured) with stdout and stderr redirected to files.
pub fn spawn(cmd: &Command, stdout: &Path, stderr: &Path) -> io::Result<Running> {
    let reply = ask(&spawn_request(cmd, stdout, stderr))?;
    reply["id"]
        .as_i64()
        .map(Running)
        .ok_or_else(|| io::Error::other(format!("launcher reply without an id: {reply}")))
}

/// Wait for `child` to exit.
pub fn reap(child: Running) -> io::Result<Exit> {
    let reply = ask(&json!({"op": "reap", "id": child.0}))?;
    let field = |k: &str| {
        reply[k]
            .as_f64()
            .ok_or_else(|| io::Error::other(format!("launcher reply lacks '{k}': {reply}")))
    };
    Ok(Exit {
        code: field("code")? as i32,
        wall_s: field("wall_s")?,
        maxrss_kb: field("maxrss_kb")? as i64,
    })
}

/// Send SIGKILL to `child`; it still has to be reaped.
pub fn kill(child: &Running) -> io::Result<()> {
    ask(&json!({"op": "kill", "id": child.0})).map(|_| ())
}

/// Run `cmd` to completion.
pub fn run(cmd: &Command, stdout: &Path, stderr: &Path) -> io::Result<Exit> {
    reap(spawn(cmd, stdout, stderr)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `serve` the way the harness does, over in-memory pipes.
    fn converse(requests: &[Value]) -> Vec<Value> {
        let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
        let mut output = Vec::new();
        serve(input.as_bytes(), &mut output).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    #[test]
    fn launcher_reports_exit_code_wall_memory_and_honours_the_command() {
        let dir = std::env::temp_dir().join(format!("ledger_proc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (out, err) = (dir.join("out"), dir.join("err"));
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo $GREETING from $(basename $PWD); exit 3"])
            .env("GREETING", "hi")
            .current_dir(&dir);
        let replies = converse(&[
            spawn_request(&cmd, &out, &err),
            json!({"op": "reap", "id": 0}),
            json!({"op": "reap", "id": 0}),
            spawn_request(Command::new("sh").args(["-c", "kill -9 $$"]), &out, &err),
            json!({"op": "reap", "id": 1}),
            spawn_request(Command::new("sleep").arg("30"), &out, &err),
            json!({"op": "kill", "id": 2}),
            json!({"op": "reap", "id": 2}),
            spawn_request(&Command::new("/nonexistent/program"), &out, &err),
        ]);
        assert_eq!(replies[0]["id"].as_i64(), Some(0));
        assert_eq!(replies[1]["code"].as_i64(), Some(3));
        assert!(replies[1]["wall_s"].as_f64().unwrap() > 0.0);
        assert!(replies[1]["maxrss_kb"].as_i64().unwrap() > 0);
        assert!(
            replies[2]["error"].as_str().is_some(),
            "a child is reaped once"
        );
        assert_eq!(replies[4]["code"].as_i64(), Some(128 + 9));
        assert_eq!(replies[7]["code"].as_i64(), Some(128 + 9));
        assert!(replies[8]["error"].as_str().is_some());
        let expected = format!("hi from {}\n", dir.file_name().unwrap().to_string_lossy());
        // The first command's output was overwritten by the later spawns
        // into the same files; run it once more to read it.
        let replies = converse(&[
            spawn_request(&cmd, &out, &err),
            json!({"op": "reap", "id": 0}),
        ]);
        assert_eq!(replies[1]["code"].as_i64(), Some(3));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn children_left_running_are_killed_when_the_harness_goes_away() {
        let dir = std::env::temp_dir().join(format!("ledger_proc_eof_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = Instant::now();
        converse(&[spawn_request(
            Command::new("sleep").arg("30"),
            &dir.join("out"),
            &dir.join("err"),
        )]);
        assert!(
            t.elapsed().as_secs() < 10,
            "serve returned without waiting out the sleep"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
