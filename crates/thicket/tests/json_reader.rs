//! Property tests of `serde::text::Reader`, the one JSON grammar under every
//! text surface. They live here, with the reader's typed client, because the
//! vendored `serde` may not gain a `proptest` edge (it would rewrite the lock
//! file); its own unit tests cover the same ground exhaustively on small
//! documents.

use proptest::prelude::*;
use serde::text;

const DOCS: [&str; 3] = [
    r#"{"a": [1, 2.5, true, null], "b": "x\ny é é 😀 \ud800 \/", "c": {"k": -3, "k": 1e300}}"#,
    r#"{"globals": {"n\"ote": "é"}, "records": [{"path": ["main", "TRIAD"], "metrics": {"t": 1.5, "x": null, "z": -0.0}}]}"#,
    r#"{"kind":"run","id":"r-é","argv":["--kernels","Basic_DAXPY","--size","1000"]}"#,
];

/// `validate` is `parse` without the tree: same verdict, same text; and what
/// `parse` read prints (compact or pretty) as text that reads back equal.
fn one_grammar(input: &str) -> Result<(), TestCaseError> {
    let (parsed, validated) = (text::parse(input), text::validate(input));
    prop_assert_eq!(
        parsed.as_ref().map(drop).map_err(|e| e.to_string()),
        validated.map_err(|e| e.to_string()),
        "on {:?}",
        input
    );
    // A number too large for an `f64` reads as infinity, which has no JSON
    // spelling; everything else round-trips.
    fn finite(v: &serde_json::Value) -> bool {
        match v {
            serde_json::Value::Float(f) => f.is_finite(),
            serde_json::Value::Array(items) => items.iter().all(finite),
            serde_json::Value::Object(map) => map.values().all(finite),
            _ => true,
        }
    }
    if let Some(v) = parsed.ok().filter(finite) {
        for pretty in [false, true] {
            let printed = text::write(&v, pretty);
            let mut r = text::Reader::new(&printed);
            prop_assert_eq!(r.value().map_err(|e| e.to_string()), Ok(v.clone()), "on {:?}", input);
            prop_assert!(r.end().is_ok());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_and_mutated_documents_read_the_same_by_every_method(
        noise in prop::collection::vec(0u16..256, 0..48),
        soup in prop::collection::vec(0usize..1000, 0..32),
        edits in prop::collection::vec((0usize..10_000, 0usize..1000), 1..4),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        one_grammar(&String::from_utf8_lossy(&noise))?;

        const ALPHABET: &[u8] = b"{}[]\",:\\ue0123456789-+.Eatrunlfs \n\t/bd\x00\x7f";
        let pick = |n: usize| ALPHABET[n % ALPHABET.len()];
        let soup: Vec<u8> = soup.into_iter().map(pick).collect();
        one_grammar(&String::from_utf8_lossy(&soup))?;

        for doc in DOCS {
            let mut bytes = doc.as_bytes().to_vec();
            for &(at, how) in &edits {
                // Never down to nothing: `at` indexes what is left.
                let at = at % bytes.len();
                match how % 4 {
                    0 => bytes[at] = pick(how / 4),
                    1 => bytes.insert(at, pick(how / 4)),
                    2 if bytes.len() > 1 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at.max(1)),
                }
            }
            one_grammar(&String::from_utf8_lossy(&bytes))?;
        }
    }

    #[test]
    fn nesting_reads_the_same_by_every_method_to_any_depth(
        depth in 0usize..301,
        shape in 0usize..4,
    ) {
        let (open, close) = [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]"), (" [\n", "]")][shape];
        let closed = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        one_grammar(&open.repeat(depth))?;
        one_grammar(&closed)?;
        let levels = depth * open.matches(['[', '{']).count();
        prop_assert_eq!(text::validate(&closed).is_ok(), levels <= 128);
    }
}
