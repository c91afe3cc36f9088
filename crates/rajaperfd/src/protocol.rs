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
use serde_json::{json, text, Value};
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
    /// `--trace`: a store hit replays a stored result and records no
    /// timeline).
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
    ///
    /// The line is walked once: each member a request reads is taken from
    /// its own value (the last of a repeated name wins), and every other
    /// member is checked and skipped without being kept.
    pub fn parse(line: &str, fallback_id: &str) -> Result<Request, String> {
        let (mut kind, mut id, mut argv, mut dir, mut metric) = (None, None, None, None, None);
        let mut r = text::Reader::new(line);
        let walked = r
            .object(|r, name| {
                let slot = match &*name {
                    "kind" => &mut kind,
                    "id" => &mut id,
                    "argv" => &mut argv,
                    "dir" => &mut dir,
                    "metric" => &mut metric,
                    _ => return r.skip(),
                };
                *slot = Some(r.value()?);
                Ok(())
            })
            .and_then(|()| r.end());
        if walked.is_err() {
            // Not JSON, or JSON that is not an object (and so has no kind):
            // the grammar decides which, with its own error text.
            text::validate(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
        }
        let string = |v: Value| match v {
            Value::String(s) => Some(s),
            _ => None,
        };
        let kind = kind
            .and_then(string)
            .ok_or("request has no string 'kind' field")?;
        let id = id
            .and_then(string)
            .unwrap_or_else(|| fallback_id.to_string());
        let argv = || -> Result<Vec<String>, String> {
            match argv {
                None => Ok(Vec::new()),
                Some(Value::Array(items)) => items
                    .into_iter()
                    .map(|a| string(a).ok_or_else(|| "argv entries must be strings".into()))
                    .collect(),
                Some(_) => Err("argv must be an array of strings".to_string()),
            }
        };
        match kind.as_str() {
            "run" => Ok(Request::Run { id, argv: argv()? }),
            "sweep" => Ok(Request::Sweep { id, argv: argv()? }),
            "analyze" => {
                let dir = dir
                    .and_then(string)
                    .ok_or("analyze requires a string 'dir' field")?;
                let metric = metric.and_then(string);
                let metric = metric.unwrap_or_else(|| "avg#time.duration".to_string());
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

/// The `result` event line around a report already printed as JSON text:
/// what printing the event as a tree gives (members in sorted order), with
/// the report's text copied in as it is rather than parsed and printed
/// again. A report that spans lines — a stored record this daemon did not
/// write — is printed again compactly, since the wire is one event per line.
pub fn result_line(id: &str, cached: bool, store_key: Option<&str>, report: &str) -> String {
    let compacted;
    let report = if report.as_bytes().contains(&b'\n') {
        compacted = text::parse(report).unwrap_or_default().to_string();
        &compacted
    } else {
        report
    };
    format!(
        "{{\"cached\":{cached},\"event\":\"result\",\"id\":{},\"report\":{report},\"store_key\":{}}}",
        Value::from(id),
        json!(store_key)
    )
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
    fn the_last_of_a_repeated_member_wins_and_unknown_members_are_skipped() {
        let line = r#"{"kind":"warp","id":7,"kind":"analyze","dir":1,"pad":{"deep":[1,{"x":null}]},"dir":"d","id":"a","metric":"m"}"#;
        let analyze = Request::Analyze {
            id: "a".into(),
            dir: "d".into(),
            metric: "m".into(),
        };
        assert_eq!(Request::parse(line, "f"), Ok(analyze));
        let no_kind = Err("request has no string 'kind' field".to_string());
        assert_eq!(Request::parse(r#"{"kind":"run","kind":5}"#, "f"), no_kind);
        assert_eq!(
            Request::parse("[1]", "f"),
            no_kind,
            "JSON, but not an object"
        );
        let torn = r#"{"kind":"run","argv":["#;
        let grammar = text::validate(torn).unwrap_err();
        assert_eq!(
            Request::parse(torn, "f"),
            Err(format!("request is not valid JSON: {grammar}"))
        );
        assert_eq!(
            Request::parse(r#"{"kind":"run","argv":null}"#, "f"),
            Err("argv must be an array of strings".to_string())
        );
        // A member only some kinds read is not checked by the others.
        let ping = Request::parse(r#"{"kind":"ping","argv":[1],"id":"p"}"#, "f");
        assert_eq!(ping, Ok(Request::Ping { id: "p".into() }));
    }

    #[test]
    fn a_result_line_is_the_printed_event_with_the_report_spliced_in() {
        let report = json!({
            "all_passed": true,
            "profile": json!({"globals": json!({"note": "é \"q\"\n"})}),
            "t": json!([1.5, Value::Null, -3]),
        });
        for id in ["r1", "w\"i\nd\u{1}é"] {
            for cached in [false, true] {
                for store_key in [None, Some("5bd8")] {
                    let event = json!({
                        "event": "result",
                        "id": id,
                        "cached": cached,
                        "store_key": store_key,
                        "report": report,
                    });
                    let line = result_line(id, cached, store_key, &report.to_string());
                    assert_eq!(line, event.to_string());
                }
            }
        }
        // A report spread over lines still goes out as one line.
        let pretty = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(
            result_line("r", true, None, &pretty),
            result_line("r", true, None, &report.to_string())
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
