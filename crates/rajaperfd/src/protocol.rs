//! The daemon's wire protocol: line-delimited JSON over a unix socket.
//!
//! One request per connection. The client sends a single JSON object on
//! one line, then reads event objects (one per line) until `done`, after
//! which the server closes the connection. Streaming is therefore trivial —
//! no framing beyond `\n`, no multiplexing — and a tailing client sees
//! per-kernel progress the moment each kernel finishes.
//!
//! ```text
//! → {"kind":"run","id":"r1","argv":["--kernels","Basic_DAXPY","--size","1000"]}
//! ← {"event":"accepted","id":"r1","queue_depth":0}
//! ← {"event":"started","id":"r1"}
//! ← {"event":"progress","id":"r1","kernel":"Basic_DAXPY","index":1,"total":1,
//!    "outcome":"PASSED","time_s":0.0012}
//! ← {"event":"result","id":"r1","cached":false,"store_key":"5bd8…","report":{…}}
//! ← {"event":"done","id":"r1","exit_code":0}
//! ```
//!
//! Request kinds: `run` (a one-variant campaign; argv is `rajaperf` CLI
//! syntax), `sweep` (the batched cross-product; requires `--sweep`),
//! `analyze` (Thicket composition over a profile directory), `ping`,
//! `stats`, and `shutdown` (graceful: drains queued and in-flight requests,
//! then exits). Control kinds (`ping`/`stats`/`shutdown`) are answered
//! inline and never queue.
//!
//! Every failure is a *typed* error event (`code` from [`ErrorCode`]), and
//! `done.exit_code` mirrors the [`SuiteExit`] taxonomy, so scripted clients
//! branch on codes, not message text.

use crate::store::StoreStats;
use serde_json::{json, Value};
use suite::SuiteExit;

/// Typed error codes the daemon emits in `error` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request or invalid campaign arguments.
    Usage,
    /// Server-side failure (I/O, store write, poisoned state).
    Internal,
    /// Admission control refused the request: the bounded queue is full.
    QueueFull,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The campaign executed but one or more kernels failed or timed out.
    KernelFailures,
    /// The request asks for a feature the daemon does not serve (e.g.
    /// `--trace`, whose collector is process-global).
    Unsupported,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Usage => "usage",
            ErrorCode::Internal => "internal",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::KernelFailures => "kernel_failures",
            ErrorCode::Unsupported => "unsupported",
        }
    }

    /// The [`SuiteExit`] a client should exit with on this error.
    pub fn exit(self) -> SuiteExit {
        match self {
            ErrorCode::Usage | ErrorCode::Unsupported => SuiteExit::Usage,
            ErrorCode::Internal => SuiteExit::Internal,
            ErrorCode::QueueFull | ErrorCode::ShuttingDown => SuiteExit::Unavailable,
            ErrorCode::KernelFailures => SuiteExit::KernelFailures,
        }
    }

    /// Parse a wire name back to the code (client side).
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "usage" => ErrorCode::Usage,
            "internal" => ErrorCode::Internal,
            "queue_full" => ErrorCode::QueueFull,
            "shutting_down" => ErrorCode::ShuttingDown,
            "kernel_failures" => ErrorCode::KernelFailures,
            "unsupported" => ErrorCode::Unsupported,
            _ => return None,
        })
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One campaign run; `argv` is `rajaperf` CLI syntax.
    Run {
        /// Client-chosen request id, echoed on every event.
        id: String,
        /// CLI arguments, parsed server-side by [`suite::RunParams::parse`].
        argv: Vec<String>,
    },
    /// A batched sweep; `argv` must include `--sweep`.
    Sweep {
        /// Client-chosen request id.
        id: String,
        /// CLI arguments including the sweep flags.
        argv: Vec<String>,
    },
    /// Thicket composition over `dir`'s `.cali.json` profiles, or over the
    /// daemon's content-addressed store when `dir` is the literal `store`.
    /// Results are cached in the store under a key that folds in the build
    /// and columnar-engine versions plus the corpus content fingerprints.
    Analyze {
        /// Client-chosen request id.
        id: String,
        /// Directory of profiles to compose, or `store`.
        dir: String,
        /// Metric column for the statsframe.
        metric: String,
    },
    /// Liveness probe; answered inline with `pong`.
    Ping {
        /// Client-chosen request id.
        id: String,
    },
    /// Store/queue counters; answered inline.
    Stats {
        /// Client-chosen request id.
        id: String,
    },
    /// Graceful shutdown: drain queued and in-flight work, then exit.
    Shutdown {
        /// Client-chosen request id.
        id: String,
    },
}

impl Request {
    /// The request's id.
    pub fn id(&self) -> &str {
        match self {
            Request::Run { id, .. }
            | Request::Sweep { id, .. }
            | Request::Analyze { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Parse one request line. `fallback_id` names the request when the
    /// client sent none (the server passes a connection counter).
    pub fn parse(line: &str, fallback_id: &str) -> Result<Request, String> {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("request has no string 'kind' field")?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or(fallback_id)
            .to_string();
        let argv = || -> Result<Vec<String>, String> {
            match v.get("argv") {
                None => Ok(Vec::new()),
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "argv entries must be strings".to_string())
                    })
                    .collect(),
                Some(_) => Err("argv must be an array of strings".to_string()),
            }
        };
        match kind {
            "run" => Ok(Request::Run { id, argv: argv()? }),
            "sweep" => Ok(Request::Sweep { id, argv: argv()? }),
            "analyze" => {
                let dir = v
                    .get("dir")
                    .and_then(Value::as_str)
                    .ok_or("analyze requires a string 'dir' field")?
                    .to_string();
                let metric = v
                    .get("metric")
                    .and_then(Value::as_str)
                    .unwrap_or("avg#time.duration")
                    .to_string();
                Ok(Request::Analyze { id, dir, metric })
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown request kind '{other}'")),
        }
    }

    /// The request as a wire line (client side), without the trailing `\n`.
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Run { id, argv } => json!({"kind": "run", "id": id, "argv": argv.clone()}),
            Request::Sweep { id, argv } => {
                json!({"kind": "sweep", "id": id, "argv": argv.clone()})
            }
            Request::Analyze { id, dir, metric } => {
                json!({"kind": "analyze", "id": id, "dir": dir, "metric": metric})
            }
            Request::Ping { id } => json!({"kind": "ping", "id": id}),
            Request::Stats { id } => json!({"kind": "stats", "id": id}),
            Request::Shutdown { id } => json!({"kind": "shutdown", "id": id}),
        };
        v.to_string()
    }
}

/// Build the `pong` reply to a `ping`: the serving build's version.
pub fn ev_pong(id: &str) -> Value {
    json!({"event": "pong", "id": id, "version": suite::code_version()})
}

/// Build the `stats` reply: store and queue counters.
pub fn ev_stats(
    id: &str,
    store: StoreStats,
    queue_depth: usize,
    queue_capacity: usize,
    served: u64,
    rejected: u64,
) -> Value {
    json!({
        "event": "stats",
        "id": id,
        "store": json!({
            "hits": store.hits,
            "misses": store.misses,
            "stores": store.stores,
            "quarantined": store.quarantined,
        }),
        "queue_depth": queue_depth,
        "queue_capacity": queue_capacity,
        "served": served,
        "rejected": rejected,
    })
}

/// Build the `shutting_down` reply to a `shutdown`.
pub fn ev_shutting_down(id: &str) -> Value {
    json!({"event": "shutting_down", "id": id})
}

/// Build a `cached` event: the result that follows is replayed from the
/// store object `store_key`.
pub fn ev_cached(id: &str, store_key: &str) -> Value {
    json!({"event": "cached", "id": id, "store_key": store_key})
}

/// Build an `accepted` event.
pub fn ev_accepted(id: &str, queue_depth: usize) -> Value {
    json!({"event": "accepted", "id": id, "queue_depth": queue_depth})
}

/// Build a `started` event.
pub fn ev_started(id: &str) -> Value {
    json!({"event": "started", "id": id})
}

/// Build a `progress` event from a [`suite::KernelProgress`].
pub fn ev_progress(id: &str, p: &suite::KernelProgress) -> Value {
    json!({
        "event": "progress",
        "id": id,
        "kernel": p.kernel.clone(),
        "index": p.index,
        "total": p.total,
        "outcome": p.outcome.clone(),
        "time_s": p.time_s,
    })
}

/// Build a `result` event around the (possibly cached) `report`, which it
/// takes whole: a report is the one large tree of a reply and is not copied
/// to be wrapped.
pub fn ev_result(id: &str, cached: bool, store_key: Option<&str>, report: Value) -> Value {
    let mut event = json!({"event": "result", "id": id, "cached": cached, "store_key": store_key});
    if let Value::Object(fields) = &mut event {
        fields.insert("report".to_string(), report);
    }
    event
}

/// Build a typed `error` event.
pub fn ev_error(id: &str, code: ErrorCode, message: &str) -> Value {
    json!({"event": "error", "id": id, "code": code.name(), "message": message})
}

/// Build the terminal `done` event.
pub fn ev_done(id: &str, exit: SuiteExit) -> Value {
    json!({"event": "done", "id": id, "exit_code": exit.code()})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::Run {
                id: "r1".into(),
                argv: vec!["--kernels".into(), "Basic_DAXPY".into()],
            },
            Request::Sweep {
                id: "s1".into(),
                argv: vec!["--sweep".into()],
            },
            Request::Analyze {
                id: "a1".into(),
                dir: "/tmp/profiles".into(),
                metric: "avg#time.duration".into(),
            },
            Request::Ping { id: "p".into() },
            Request::Stats { id: "q".into() },
            Request::Shutdown { id: "x".into() },
        ];
        for r in reqs {
            let parsed = Request::parse(&r.to_line(), "fallback").unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn missing_id_uses_fallback_and_bad_lines_are_usage_errors() {
        let r = Request::parse("{\"kind\":\"ping\"}", "req-7").unwrap();
        assert_eq!(r.id(), "req-7");
        assert!(Request::parse("not json", "f").is_err());
        assert!(Request::parse("{\"kind\":\"warp\"}", "f").is_err());
        assert!(Request::parse("{\"id\":\"x\"}", "f").is_err(), "no kind");
        assert!(
            Request::parse("{\"kind\":\"run\",\"argv\":[1]}", "f").is_err(),
            "argv entries must be strings"
        );
        assert!(
            Request::parse("{\"kind\":\"analyze\"}", "f").is_err(),
            "analyze requires dir"
        );
    }

    #[test]
    fn error_codes_map_to_the_exit_taxonomy() {
        assert_eq!(ErrorCode::Usage.exit(), SuiteExit::Usage);
        assert_eq!(ErrorCode::Internal.exit(), SuiteExit::Internal);
        assert_eq!(ErrorCode::QueueFull.exit(), SuiteExit::Unavailable);
        assert_eq!(ErrorCode::ShuttingDown.exit(), SuiteExit::Unavailable);
        assert_eq!(ErrorCode::KernelFailures.exit(), SuiteExit::KernelFailures);
        assert_eq!(ErrorCode::Unsupported.exit(), SuiteExit::Usage);
        for code in [
            ErrorCode::Usage,
            ErrorCode::Internal,
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::KernelFailures,
            ErrorCode::Unsupported,
        ] {
            assert_eq!(ErrorCode::parse(code.name()), Some(code), "{}", code.name());
        }
        assert_eq!(ErrorCode::parse("warp"), None);
    }
}
