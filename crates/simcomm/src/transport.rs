//! The rank-sharded sweep's wire framing: [`write_frame`] / [`read_frame`]
//! over any `Write` / `BufRead`.
//!
//! A child-rank process (`--rank-isolation=process`) and its supervising
//! parent exchange these frames over the child's stdio pipes. Thread ranks
//! (the default `--rank-isolation=threads`) pass the same messages on
//! in-memory channels, unframed, and size each one with [`write_frame`] into
//! a sink — so both modes count rank traffic in the same wire bytes.
//!
//! # Framing
//!
//! One frame = one JSON value serialized without embedded newlines,
//! terminated by `\n`. Line framing (rather than length prefixes) is
//! deliberate: it matches the `rajaperfd` wire protocol, keeps frames
//! greppable in a captured pipe, and makes a torn final line — the
//! signature of a `kill -9`ed writer — detectable as a frame error rather
//! than silently parseable garbage.
//!
//! # Failure semantics
//!
//! * [`read_frame`] returns `Ok(None)` on clean EOF (writer closed the
//!   carrier between frames) and `Err` on a torn or non-JSON line, so a
//!   reader can distinguish "peer finished" from "peer died mid-frame".
//! * [`write_frame`] surfaces `EPIPE`/`BrokenPipe` as an ordinary
//!   `io::Error`. Rust ignores `SIGPIPE` by default, so writing to a dead
//!   peer's pipe is an error return, never a process kill — the supervisor
//!   relies on this to treat a dying child as a restartable event.

use serde_json::Value;
use std::io::{self, BufRead, Write};

/// Serialize `frame` as one newline-terminated line and flush it.
///
/// Serde never emits raw newlines inside a JSON string (they escape to
/// `\n`), so the line boundary is unambiguous.
pub fn write_frame<W: Write>(w: &mut W, frame: &Value) -> io::Result<u64> {
    let mut line = serde_json::to_string(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()?;
    Ok(line.len() as u64)
}

/// Read one frame. `Ok(None)` on clean EOF; an error for a torn final
/// line (EOF with no trailing `\n`) or a line that is not valid JSON.
pub fn read_frame<R: BufRead>(r: &mut R) -> io::Result<Option<(Value, u64)>> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "torn frame: carrier closed mid-line",
        ));
    }
    let v: Value = serde_json::from_str(line.trim_end()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not valid JSON: {e}"),
        )
    })?;
    Ok(Some((v, n as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::io::BufReader;

    #[test]
    fn frames_roundtrip_with_their_wire_lengths() {
        let mut wire = Vec::new();
        let a = json!({"cell": 3});
        let b = json!({"result": json!({"cell": 3, "outcome": json!({"kernels_run": 1})})});
        let sent = [&a, &b].map(|frame| write_frame(&mut wire, frame).unwrap());
        assert_eq!(sent.iter().sum::<u64>(), wire.len() as u64);

        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut r).unwrap(), Some((a, sent[0])));
        assert_eq!(read_frame(&mut r).unwrap(), Some((b, sent[1])));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn embedded_newlines_escape_and_stay_one_line() {
        let mut wire = Vec::new();
        let v = json!({"error": "line one\nline two"});
        write_frame(&mut wire, &v).unwrap();
        assert_eq!(
            wire.iter().filter(|&&b| b == b'\n').count(),
            1,
            "newline inside a JSON string must escape, not split the frame"
        );
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut r).unwrap().unwrap().0, v);
    }

    #[test]
    fn torn_final_line_is_an_error_not_eof() {
        let wire = b"{\"cell\":1}\n{\"cell\":2".to_vec();
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut r).unwrap().unwrap().0, json!({"cell": 1}));
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn non_json_line_is_a_typed_error() {
        let wire = b"not a frame\n".to_vec();
        let mut r = BufReader::new(wire.as_slice());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn write_to_closed_carrier_is_an_error_not_a_panic() {
        // A writer that refuses everything models a dead child's pipe.
        struct Dead;
        impl std::io::Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "EPIPE"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Dead, &json!({"cell": 0})).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
