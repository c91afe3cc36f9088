//! Hostile input on the text wire surfaces (ROADMAP aim 3: "no input on any
//! wire surface can panic or hang a process"): a `.cali.json` profile
//! (`thicket::ProfileData::from_caliper_json`), a record or profile file a
//! cache vouches for (`suite::record::read_json`) and a daemon request line
//! (`rajaperfd::Request::parse`). All three read through the one vendored
//! JSON parser, whose nesting cap is what turns `[[[[…` from a stack
//! overflow — an abort no `catch_unwind` contains — into a typed error.

use proptest::prelude::*;
use rajaperfd::Request;
use suite::record::{read_json, Verified};
use thicket::ProfileData;

/// A real profile, with text that needs escaping and a non-ASCII scalar.
fn profile_text() -> String {
    let session = caliper::Session::new();
    session.set_global("note", "é \"quoted\"\n");
    {
        let _suite = session.region("RAJAPerf");
        let _kernel = session.region("Stream_TRIAD");
        session.set_metric("Bytes/Rep", 3.0e6);
    }
    session.profile().to_json()
}

fn request_line() -> String {
    let argv = ["--kernels", "Basic_DAXPY", "--size", "1000"]
        .map(String::from)
        .to_vec();
    Request::Run {
        id: "r-é".into(),
        argv,
    }
    .to_line()
}

/// `read_json` of a file holding exactly `bytes`.
fn read_back(bytes: &[u8]) -> Verified {
    // One file per test thread: the properties run side by side.
    let owner = format!("{}_{:?}", std::process::id(), std::thread::current().id());
    let path = std::env::temp_dir().join(format!("rajaperf_hostile_{owner}.json"));
    std::fs::write(&path, bytes).unwrap();
    let read = read_json(&path);
    std::fs::remove_file(&path).ok();
    read
}

/// Every reader on `bytes`; what each made of them. Returning at all is the
/// property under test — a panic fails the case, an abort or a hang the run.
fn read_everywhere(
    bytes: &[u8],
) -> (
    Result<ProfileData, String>,
    Verified,
    Result<Request, String>,
) {
    let text = String::from_utf8_lossy(bytes);
    (
        ProfileData::from_caliper_json(&text).map_err(|e| e.to_string()),
        read_back(bytes),
        Request::parse(&text, "fallback"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_truncated_and_bit_flipped_bytes_are_errors_not_panics(
        noise in prop::collection::vec(0u16..256, 0..64),
        cut in 0usize..4096,
        flip in 0usize..32768,
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        let (profile, _, request) = read_everywhere(&noise);
        // 64 random bytes that spell a profile or a request do not happen.
        prop_assert!(profile.is_err() && request.is_err());

        for intact in [profile_text(), request_line()] {
            let intact = intact.into_bytes();
            let (profile, record, request) = read_everywhere(&intact);
            prop_assert!(profile.is_ok() != request.is_ok(), "a document is one or the other");
            prop_assert!(matches!(record, Verified::Hit(_)));

            // A strict prefix — what a torn write leaves — is never a
            // document: every reader refuses it, with the offset.
            let torn = &intact[..cut % intact.len()];
            let (profile, record, request) = read_everywhere(torn);
            prop_assert!(profile.is_err() && request.is_err());
            prop_assert_eq!(record, Verified::Corrupt);
            if !torn.is_empty() {
                prop_assert!(profile.unwrap_err().contains(" at byte "));
            }

            // One flipped bit may still be a document (a different letter
            // in a string); whatever it is, it is read without a panic, and
            // it is `Corrupt` exactly when it is not JSON.
            let mut flipped = intact.clone();
            flipped[(flip / 8) % intact.len()] ^= 1 << (flip % 8);
            let is_json = std::str::from_utf8(&flipped)
                .is_ok_and(|t| serde_json::from_str::<serde_json::Value>(t).is_ok());
            let (_, record, _) = read_everywhere(&flipped);
            prop_assert_eq!(record == Verified::Corrupt, !is_json);
        }
    }

    #[test]
    fn nesting_to_any_depth_is_a_typed_error_on_every_surface(
        depth in 129usize..100_001,
        shape in 0usize..4,
        closed in 0usize..2,
    ) {
        let (open, close) = [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]"), (" [\n", "]")][shape];
        let mut doc = open.repeat(depth);
        if closed == 1 {
            doc.push_str(&format!("0{}", close.repeat(depth)));
        }
        let (profile, record, request) = read_everywhere(doc.as_bytes());
        let capped = |e: &String| e.contains("nesting deeper than 128 at byte ");
        prop_assert!(profile.as_ref().is_err_and(capped), "{profile:?}");
        prop_assert!(request.as_ref().is_err_and(capped), "{request:?}");
        prop_assert_eq!(record, Verified::Corrupt);
    }
}

#[test]
fn the_deepest_document_read_is_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(matches!(
        read_back(nested(128).as_bytes()),
        Verified::Hit(_)
    ));
    assert_eq!(read_back(nested(129).as_bytes()), Verified::Corrupt);
    // A profile 120 levels into a document is still within the cap.
    let wrapped = format!("{}{}{}", "[".repeat(120), profile_text(), "]".repeat(120));
    assert!(matches!(read_back(wrapped.as_bytes()), Verified::Hit(_)));
}
