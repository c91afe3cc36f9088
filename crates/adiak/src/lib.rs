//! Adiak-style run metadata collection.
//!
//! [Adiak](https://github.com/LLNL/Adiak) is LLNL's small library for
//! annotating per-run metadata (user, launch date, build settings, the
//! programming-model variant being run, ...). Profiling tools such as Caliper
//! read the registered name/value pairs and embed them as *globals* in every
//! profile they write, so downstream analysis (Thicket) can group and filter
//! runs by their metadata.
//!
//! This crate reproduces that model: a process-wide, thread-safe registry of
//! name → JSON value pairs. [`value`] stores whatever a `Serialize` value
//! writes, so a global keeps its JSON type (string, integer, double, list);
//! the `caliper` crate snapshots the registry when writing a profile.
//!
//! # Example
//! ```
//! adiak::init();
//! adiak::value("variant", "RAJA_Seq");
//! adiak::value("problem_size", 1_000_000i64);
//! adiak::value("launch_overhead_us", 3.5);
//! let snap = adiak::snapshot();
//! assert_eq!(snap.get("variant").unwrap().as_str(), Some("RAJA_Seq"));
//! assert_eq!(snap.get("problem_size").unwrap().as_i64(), Some(1_000_000));
//! ```

use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// An immutable snapshot of the registry, name → value.
#[derive(Debug, Clone)]
pub struct Snapshot(pub BTreeMap<String, Value>);

impl Snapshot {
    /// Look up a value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Value>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Value>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Initialize the metadata registry and record a few implicit entries
/// (the Adiak equivalents of `adiak_executable`, `adiak_launchdate`, ...).
///
/// Calling `init` more than once is harmless; implicit entries are refreshed.
pub fn init() {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".to_string());
    value("executable", exe);
    value("adiak_version", env!("CARGO_PKG_VERSION"));
}

/// Register a metadata value as the JSON it serializes to.
///
/// Registering the same name twice replaces the previous value, matching
/// Adiak's last-writer-wins behaviour.
pub fn value(name: &str, v: impl Serialize) {
    let v = serde::to_value(v).expect("a value serializes into a tree");
    registry().lock().insert(name.to_string(), v);
}

/// Take an immutable snapshot of the current registry contents.
pub fn snapshot() -> Snapshot {
    Snapshot(registry().lock().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests share it, so each test uses
    // distinct key names.

    #[test]
    fn register_and_read_back_scalars() {
        value("t1_str", "hello");
        value("t1_int", 42i64);
        value("t1_dbl", 2.5f64);
        value("t1_bool", true);
        let s = snapshot();
        assert_eq!(s.get("t1_str").unwrap().as_str(), Some("hello"));
        assert_eq!(s.get("t1_int"), Some(&Value::Int(42)));
        assert_eq!(s.get("t1_dbl"), Some(&Value::Float(2.5)));
        assert_eq!(s.get("t1_bool"), Some(&Value::Bool(true)));
    }

    #[test]
    fn last_writer_wins() {
        value("t2_k", 1i64);
        value("t2_k", 2i64);
        assert_eq!(snapshot().get("t2_k").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn lists_roundtrip() {
        value("t3_list", vec![1i64, 2, 3]);
        let s = snapshot();
        match s.get("t3_list").unwrap() {
            Value::Array(v) => assert_eq!(v.len(), 3),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn init_records_executable() {
        init();
        let s = snapshot();
        assert!(s.get("executable").is_some());
        assert!(s.get("adiak_version").is_some());
    }

    #[test]
    fn int_widens_to_f64() {
        value("t5_i", 7i64);
        assert_eq!(snapshot().get("t5_i").unwrap().as_f64(), Some(7.0));
    }

    /// A double that happens to be integral stays a double: a profile's
    /// global keeps the JSON type its writer gave it.
    #[test]
    fn a_double_stays_a_double() {
        value("t6_d", 1.0f64);
        value("t6_i", 7i64);
        let s = snapshot();
        assert_eq!(serde_json::to_string(s.get("t6_d").unwrap()).unwrap(), "1.0");
        assert_eq!(serde_json::to_string(s.get("t6_i").unwrap()).unwrap(), "7");
    }
}
