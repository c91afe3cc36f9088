//! Hostile input on the wire surfaces (ROADMAP aim 3: "no input on any wire
//! surface can panic or hang a process"): a `.cali.json` profile
//! (`thicket::ProfileData::from_caliper_json`, `IngestSession::ingest_json`),
//! a cache record (`suite::record::read_json`), a daemon request line
//! (`rajaperfd::Request::parse`) and a `.tkt` snapshot (`Thicket::read_tkt`,
//! then `groupby`). The text surfaces read through the one vendored JSON
//! reader, whose nesting cap is what turns `[[[[…` from a stack overflow — an
//! abort no `catch_unwind` contains — into a typed error; the binary one must
//! not size an allocation by a number in the file, nor by an id it holds.
//! A profile file a cache record vouches for is no text surface at all: the
//! warm scan parses no profile, it compares the file's length and digest
//! with the record's (`ProfileDigest::check`), so any bytes but the vouched
//! ones — torn, bit-flipped, nested, or a valid document — fail that check.

use proptest::prelude::*;
use rajaperfd::Request;
use std::sync::atomic::{AtomicUsize, Ordering};
use suite::record::{read_json, ProfileDigest, Verified};
use thicket::{IngestSession, ProfileData, Thicket};

/// The system allocator, remembering the largest single request — how "no
/// allocation sized by the file" is observed rather than assumed (a reader
/// that believes a hostile count asks for it in one piece).
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter update.
unsafe impl std::alloc::GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// A real profile, with text that needs escaping and a non-ASCII scalar;
/// the same text at every call.
fn profile_text() -> String {
    static PROFILE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let text = PROFILE.get_or_init(|| {
        let session = caliper::Session::new();
        session.set_global("note", "é \"quoted\"\n");
        {
            let _suite = session.region("RAJAPerf");
            let _kernel = session.region("Stream_TRIAD");
            session.set_metric("Bytes/Rep", 3.0e6);
        }
        session.profile().to_json()
    });
    text.clone()
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

/// A scratch file per test thread: the properties run side by side.
fn scratch_file(extension: &str) -> std::path::PathBuf {
    let owner = format!("{}_{:?}", std::process::id(), std::thread::current().id());
    std::env::temp_dir().join(format!("rajaperf_hostile_{owner}.{extension}"))
}

/// `read_json` of a file holding exactly `bytes`. The same file as a cached
/// cell's profile, under the digest of [`profile_text`], passes the check
/// only when it is those very bytes, and is `Corrupt` otherwise.
fn read_back(bytes: &[u8]) -> Verified {
    let path = scratch_file("json");
    std::fs::write(&path, bytes).unwrap();
    let read = read_json(&path);
    let vouched = profile_text();
    let digest = ProfileDigest::new(vouched.len() as u64, caliper::digest(vouched.as_bytes()));
    let checked = digest.check(&path);
    std::fs::remove_file(&path).ok();
    let expected = match bytes == vouched.as_bytes() {
        true => Verified::Hit(()),
        false => Verified::Corrupt,
    };
    assert_eq!(checked, expected);
    read
}

/// `read_tkt` of a file holding exactly `bytes`.
fn read_tkt_back(bytes: &[u8]) -> std::io::Result<Thicket> {
    let path = scratch_file("tkt");
    std::fs::write(&path, bytes).unwrap();
    let read = Thicket::read_tkt(&path);
    std::fs::remove_file(&path).ok();
    read
}

/// A real snapshot: two profiles' worth of rows, columns and metadata.
fn tkt_bytes() -> &'static [u8] {
    static SNAPSHOT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut session = IngestSession::new();
        session.ingest_json(&profile_text()).unwrap();
        session.ingest_json(&profile_text()).unwrap();
        let path = scratch_file("snapshot.tkt");
        session.finish().write_tkt(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Where a snapshot's tail says its footer starts.
fn tkt_footer(tkt: &[u8]) -> usize {
    let tail = tkt.len() - 20;
    u64::from_le_bytes(tkt[tail..tail + 8].try_into().unwrap()) as usize
}

/// Where a snapshot's footer says section `name` starts.
fn tkt_section(tkt: &[u8], name: &str) -> usize {
    let footer = std::str::from_utf8(&tkt[tkt_footer(tkt)..tkt.len() - 20]).unwrap();
    let footer: serde_json::Value = serde_json::from_str(footer).unwrap();
    footer[name].as_array().unwrap()[0].as_i64().unwrap() as usize
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
    // The streaming route refuses what the parsing route refuses, and a
    // refused profile leaves nothing behind.
    let mut session = IngestSession::new();
    let ingested = session.ingest_json(&text).map_err(|e| e.to_string());
    let profile = ProfileData::from_caliper_json(&text).map_err(|e| e.to_string());
    assert_eq!(ingested.as_ref().err(), profile.as_ref().err());
    assert_eq!(session.len(), usize::from(ingested.is_ok()));
    (
        profile,
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
            // a record is `Corrupt` exactly when it is not JSON. As a
            // vouched profile it is `Corrupt` for every bit (`read_back`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_truncated_or_bit_flipped_tkt_is_read_or_refused_never_a_panic(
        cut in 0usize..1_000_000,
        class in 0usize..4,
        flip in 0usize..8_000_000,
    ) {
        let intact = tkt_bytes();
        prop_assert!(read_tkt_back(intact).is_ok());
        // A strict prefix, cut in each region of the layout: the header,
        // the sections, the footer, the tail.
        let (footer, tail) = (tkt_footer(intact), intact.len() - 20);
        let (from, to) = [(0, 8), (8, footer), (footer, tail), (tail, intact.len())][class];
        prop_assert!(read_tkt_back(&intact[..from + cut % (to - from)]).is_err());
        // One flipped bit may still be a snapshot (another value in a cell);
        // whatever it is, reading it returns.
        let mut flipped = intact.to_vec();
        flipped[(flip / 8) % intact.len()] ^= 1 << (flip % 8);
        if let Ok(t) = read_tkt_back(&flipped) {
            prop_assert!(t.row_count() <= intact.len());
        }
        prop_assert!(LARGEST_REQUEST.load(Ordering::Relaxed) < 64 << 20);
    }
}

/// Lengths and counts a `.tkt` reader must not believe. Each of the first
/// two killed `rajaperf-analyze`: `capacity overflow`, exit 101; `memory
/// allocation of 34359738360 bytes failed`, abort.
#[test]
fn a_tkt_whose_numbers_lie_is_refused_without_allocating_for_them() {
    let intact = tkt_bytes();
    let tail = intact.len() - 20;
    let patched = |at: usize, bytes: &[u8]| {
        let mut crafted = intact.to_vec();
        crafted[at..at + bytes.len()].copy_from_slice(bytes);
        crafted
    };
    let column = tkt_section(intact, "col:Bytes/Rep");
    let index = tkt_section(intact, "index");
    let crafted = [
        // footer_off = 200, footer_len = 2^64 - 100: the sum wraps.
        patched(tail, &[200u64.to_le_bytes(), (u64::MAX - 99).to_le_bytes()].concat()),
        // The first chunk of the row index, then of a column, claims 2^32 - 1 items.
        patched(index + 4, &u32::MAX.to_le_bytes()),
        patched(column + 4, &u32::MAX.to_le_bytes()),
        // So does the chunk count itself.
        patched(index, &u32::MAX.to_le_bytes()),
    ];
    for bytes in crafted {
        let err = read_tkt_back(&bytes).expect_err("a lying snapshot").to_string();
        assert!(err.contains("out of bounds") || err.contains("truncated"), "{err}");
    }
    // A profile id past the `u32` row space was an `expect` on the read path.
    let mut thicket = read_tkt_back(intact).unwrap();
    thicket.profiles.push(1 << 40);
    let path = scratch_file("tkt");
    thicket.write_tkt(&path).unwrap();
    let err = Thicket::read_tkt(&path).expect_err("an id no row can hold").to_string();
    assert!(err.ends_with("profile id 1099511627776 exceeds the u32 row space"), "{err}");
    // Ids are allocated `last + 1`: a repeated id was resumed into a session
    // (a debug build panicked) and counted twice by `groupby`.
    let mut thicket = read_tkt_back(intact).unwrap();
    thicket.profiles.push(thicket.profiles[1]);
    thicket.write_tkt(&path).unwrap();
    let err = Thicket::read_tkt(&path).expect_err("a repeated id").to_string();
    assert!(err.ends_with("profile ids are not strictly ascending (1 then 1)"), "{err}");
    // The largest id the row space holds is a snapshot, not a lie; `--groupby`
    // over it used to size a mask by that id and ask for 4 GB.
    let mut thicket = read_tkt_back(intact).unwrap();
    thicket.profiles.push((1 << 32) - 2);
    thicket.write_tkt(&path).unwrap();
    let thicket = Thicket::read_tkt(&path).expect("an id the row space holds");
    std::fs::remove_file(&path).ok();
    let groups = thicket.groupby("note");
    let sizes: Vec<(&str, usize)> = groups
        .iter()
        .map(|(k, g)| (k.as_str(), g.profiles.len()))
        .collect();
    assert_eq!(sizes, [(thicket::MISSING_GROUP, 1), ("é \"quoted\"\n", 2)]);
    assert!(LARGEST_REQUEST.load(Ordering::Relaxed) < 64 << 20);
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
