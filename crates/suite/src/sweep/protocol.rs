//! The campaign engine's wire protocol: every message a rank and its
//! supervisor exchange, with the one encoder and the one decoder.
//!
//! A ranked campaign (`--sweep --ranks N`) is one supervisor event loop
//! ([`super::supervisor`]) driving N ranks it knows only through a carrier
//! ([`super::carrier`]): spawned child `rajaperf --rank-worker R/N`
//! processes on stdio pipes, or threads in this process on in-memory
//! channels. Both run the same worker loop ([`super::worker::serve`]) and
//! speak these frames — one JSON object per frame, one frame per line on a
//! pipe ([`simcomm::transport`]):
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | rank → supervisor | `{"ready": R}` | rank R planned its grid and wants work |
//! | rank → supervisor | `{"heartbeat": seq}` | liveness, every 500 ms from a dedicated thread (process ranks only) |
//! | rank → supervisor | `{"result": {"cell": i, "cached": bool, "outcome": {…}}}` | grid cell `i` is done |
//! | rank → supervisor | `{"failed": {"cell": i, "error": "…"}}` | cell `i` hit an `io::Error`; aborts the campaign |
//! | supervisor → rank | `{"cell": i}` | execute grid cell `i` |
//! | supervisor → rank | `{"shutdown": true}` | campaign complete, exit |
//!
//! Cells travel as bare *grid indices*: a process rank re-plans the
//! identical grid from the supervisor's own argv
//! ([`crate::RunParams::to_argv`], a tested round-trip) and a thread rank
//! shares the supervisor's plan, so no parameter serialization exists to
//! drift. A frame of an unknown kind is [`DecodeError::Unknown`] and both
//! loops ignore it (forward compatibility); a known kind whose payload
//! does not parse is [`DecodeError::Malformed`], which the supervisor
//! treats as a broken rank and aborts on.

use super::CellOutcome;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Supervisor → rank.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ToRank {
    /// Execute (or answer from the cell cache) this grid cell.
    Cell(usize),
    /// The campaign is complete; leave the worker loop.
    Shutdown,
}

/// Rank → supervisor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FromRank {
    /// The rank is up; carries its rank id.
    Ready(usize),
    /// Liveness beat; carries a sequence number.
    Heartbeat(u64),
    /// An assigned cell finished.
    Result(CellResult),
    /// An assigned cell could not be executed or recorded.
    Failed(CellFailure),
}

/// Payload of [`FromRank::Result`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CellResult {
    /// Grid index of the cell.
    pub(crate) cell: usize,
    /// The rank answered from an intact cache record (a previous
    /// incarnation finished the cell and died before reporting it).
    pub(crate) cached: bool,
    pub(crate) outcome: CellOutcome,
}

/// Payload of [`FromRank::Failed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CellFailure {
    /// Grid index the supervisor assigned.
    pub(crate) cell: usize,
    pub(crate) error: String,
}

/// Why a frame did not decode.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DecodeError {
    /// Not a frame kind this build knows; ignored by both loops.
    Unknown,
    /// A known kind with an unparseable payload; names what was malformed.
    Malformed(&'static str),
}

/// The payload under `key`, if the frame is of that kind.
fn payload<T: Deserialize>(
    frame: &Value,
    key: &str,
    what: &'static str,
) -> Option<Result<T, DecodeError>> {
    let p = frame.get(key)?;
    Some(T::deserialize(p).map_err(|_| DecodeError::Malformed(what)))
}

impl ToRank {
    pub(crate) fn encode(&self) -> Value {
        match self {
            ToRank::Cell(i) => json!({"cell": i}),
            ToRank::Shutdown => json!({"shutdown": true}),
        }
    }

    pub(crate) fn decode(frame: &Value) -> Result<ToRank, DecodeError> {
        // Any `shutdown` payload shuts down: when in doubt a worker exits.
        if frame.get("shutdown").is_some() {
            return Ok(ToRank::Shutdown);
        }
        payload(frame, "cell", "cell assignment")
            .map_or(Err(DecodeError::Unknown), |i| i.map(ToRank::Cell))
    }
}

impl FromRank {
    pub(crate) fn encode(&self) -> Value {
        match self {
            FromRank::Ready(rank) => json!({"ready": rank}),
            FromRank::Heartbeat(seq) => json!({"heartbeat": seq}),
            FromRank::Result(r) => json!({"result": r}),
            FromRank::Failed(f) => json!({"failed": f}),
        }
    }

    pub(crate) fn decode(frame: &Value) -> Result<FromRank, DecodeError> {
        if let Some(r) = payload(frame, "ready", "ready frame") {
            return r.map(FromRank::Ready);
        }
        if let Some(r) = payload(frame, "heartbeat", "heartbeat") {
            return r.map(FromRank::Heartbeat);
        }
        if let Some(r) = payload(frame, "result", "cell result") {
            return r.map(FromRank::Result);
        }
        if let Some(r) = payload(frame, "failed", "failure report") {
            return r.map(FromRank::Failed);
        }
        Err(DecodeError::Unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::super::FailedKernel;
    use super::*;
    use proptest::prelude::*;
    use simcomm::transport::{read_frame, write_frame};

    fn from_rank_frames() -> [FromRank; 4] {
        let outcome = CellOutcome {
            kernels_run: 3,
            kernels_failed: 1,
            failed_kernels: vec![FailedKernel {
                kernel: "Basic_DAXPY".to_string(),
                status: "FAILED".to_string(),
            }],
            total_time_s: 0.125,
        };
        let (cell, cached) = (7, true);
        [
            FromRank::Ready(2),
            FromRank::Heartbeat(41),
            FromRank::Result(CellResult {
                cell,
                cached,
                outcome,
            }),
            FromRank::Failed(CellFailure {
                cell,
                error: "disk\nfull".to_string(),
            }),
        ]
    }

    #[test]
    fn every_variant_roundtrips_and_keeps_its_wire_bytes() {
        for m in [ToRank::Cell(5), ToRank::Shutdown] {
            assert_eq!(ToRank::decode(&m.encode()), Ok(m));
        }
        for m in from_rank_frames() {
            assert_eq!(FromRank::decode(&m.encode()), Ok(m));
        }
        // Byte-compatible with the frames PR 10's hand-assembled JSON put
        // on the pipe: an old worker and a new supervisor still agree.
        let text = |v: Value| serde_json::to_string(&v).unwrap();
        assert_eq!(text(ToRank::Cell(5).encode()), r#"{"cell":5}"#);
        assert_eq!(text(ToRank::Shutdown.encode()), r#"{"shutdown":true}"#);
        assert_eq!(text(FromRank::Ready(2).encode()), r#"{"ready":2}"#);
        assert_eq!(
            text(from_rank_frames()[2].encode()),
            r#"{"result":{"cached":true,"cell":7,"outcome":{"failed_kernels":[{"kernel":"Basic_DAXPY","status":"FAILED"}],"kernels_failed":1,"kernels_run":3,"total_time_s":0.125}}}"#
        );
    }

    #[test]
    fn unknown_kinds_are_unknown_and_bad_payloads_are_malformed() {
        use DecodeError::{Malformed, Unknown};
        for (frame, why) in [
            (json!({"telemetry": 1}), Unknown),
            (json!([1, 2]), Unknown),
            (
                json!({"result": json!({"cell": "seven"})}),
                Malformed("cell result"),
            ),
        ] {
            assert_eq!(FromRank::decode(&frame), Err(why));
        }
        for (frame, why) in [
            (json!({"pause": true}), Unknown),
            (json!({"cell": -1}), Malformed("cell assignment")),
        ] {
            assert_eq!(ToRank::decode(&frame), Err(why));
        }
    }

    /// Arbitrary JSON to `depth` levels, built from a word stream, with the
    /// protocol's own keys over-represented so decoding reaches every
    /// payload parser.
    fn arb_value(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
        const KEYS: &str = "ready heartbeat result failed cell shutdown outcome failed_kernels";
        let w = words.next().unwrap_or(0);
        let mut children = |n: u64| -> Vec<Value> {
            let n = if depth == 0 { 0 } else { n % 4 };
            (0..n).map(|_| arb_value(words, depth - 1)).collect()
        };
        match w % 7 {
            0 => Value::Null,
            1 => Value::Bool(w & 8 != 0),
            2 => Value::Int((w as i64) >> (w % 60)),
            3 => Value::from(f64::from_bits(w)),
            4 => Value::String(format!("s{w}\n\"")),
            5 => Value::Array(children(w >> 4)),
            _ => {
                let keys = KEYS.split(' ').cycle().skip((w >> 8) as usize % 8);
                Value::Object(keys.map(str::to_string).zip(children(w >> 4)).collect())
            }
        }
    }

    proptest! {
        /// ROADMAP 4a, transport-frame surface: no JSON value can panic the
        /// decoder — it yields a message or a typed error.
        #[test]
        fn decode_never_panics_on_arbitrary_json(
            words in prop::collection::vec(0u64..u64::MAX, 64..65),
        ) {
            let v = arb_value(&mut words.into_iter(), 3);
            let _ = (FromRank::decode(&v), ToRank::decode(&v));
        }

        /// Truncated or bit-flipped encodings of valid frames come off the
        /// pipe as a typed frame error, a typed decode error, or a message.
        #[test]
        fn damaged_frames_are_typed_errors_or_messages(
            which in 0usize..4, cut in 0usize..200, flip in 0usize..1600,
        ) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &from_rank_frames()[which].encode()).unwrap();
            let mut torn = wire.clone();
            torn.truncate(cut % wire.len());
            let mut flipped = wire.clone();
            flipped[(flip / 8) % wire.len()] ^= 1 << (flip % 8);
            for damaged in [torn, flipped] {
                let mut r = std::io::BufReader::new(damaged.as_slice());
                while let Ok(Some((v, _))) = read_frame(&mut r) {
                    let _ = FromRank::decode(&v);
                }
            }
        }
    }
}
