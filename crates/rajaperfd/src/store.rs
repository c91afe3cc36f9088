//! The content-addressed profile store: the daemon's persistent cache of
//! completed campaign results.
//!
//! What a stored result is — its key, its encoding, when a read may be
//! trusted and what happens to a torn file — is [`suite::record`]'s
//! decision, shared with the sweep's cell cache. This module adds only the
//! addressing: an object lives at a stable 128-bit hash of its key's
//! canonical JSON, under `objects/` for run results or `derived/` for
//! results computed from them, and four counters watch the traffic.

use serde_json::Value;
use simsched::sync::atomic::{AtomicU64, Ordering};
use std::io;
use std::path::{Path, PathBuf};
use suite::record::{quarantine, read_verified, write_record, Verified};

/// 64-bit FNV-1a over `bytes` from the given offset basis.
fn fnv1a64(bytes: &[u8], offset: u64) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable 128-bit content hash as 32 lowercase hex digits. Two independent
/// FNV-1a streams (the standard offset basis and a distinct second one)
/// rather than `DefaultHasher`, which is randomly keyed per process and
/// therefore useless for a *persistent* store. Collisions are guarded by
/// the full-key comparison on read, so the hash only has to spread names.
pub fn content_hash(text: &str) -> String {
    let h1 = fnv1a64(text.as_bytes(), 0xCBF2_9CE4_8422_2325);
    let h2 = fnv1a64(text.as_bytes(), 0x6C62_272E_07BB_0142);
    format!("{h1:016x}{h2:016x}")
}

/// Counters the `stats` request reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads answered from the store.
    pub hits: u64,
    /// Reads that found nothing usable.
    pub misses: u64,
    /// Objects written.
    pub stores: u64,
    /// Corrupt files moved to `quarantine/`.
    pub quarantined: u64,
}

/// A persistent content-addressed store of profile records under
/// `root/objects/<hh>/<hash>.json`.
pub struct ProfileStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

impl ProfileStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ProfileStore> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(ProfileStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The hash a key addresses.
    pub fn key_hash(key: &Value) -> String {
        content_hash(&key.to_string())
    }

    /// The object file a hash addresses. Objects shard on the first two hex
    /// digits so no single directory grows unboundedly.
    pub fn object_path(&self, hash: &str) -> PathBuf {
        self.path_in("objects", hash)
    }

    /// The file a hash addresses in the *derived* space — records computed
    /// from stored objects (e.g. cached analyze results). Derived records
    /// live outside `objects/` so corpus enumeration never sees them: an
    /// analysis caching its own result must not change the corpus it is
    /// keyed on.
    pub fn derived_path(&self, hash: &str) -> PathBuf {
        self.path_in("derived", hash)
    }

    fn path_in(&self, space: &str, hash: &str) -> PathBuf {
        let shard = hash.get(..2).unwrap_or("00");
        self.root
            .join(space)
            .join(shard)
            .join(format!("{hash}.json"))
    }

    /// Look up the record stored under `key`. Returns the record only when
    /// it parses *and* its embedded key matches `key` byte for byte; a
    /// non-parsing file is quarantined first.
    pub fn get(&self, key: &Value) -> Option<Value> {
        self.get_in("objects", key)
    }

    /// [`ProfileStore::get`] against the derived space.
    pub fn get_derived(&self, key: &Value) -> Option<Value> {
        self.get_in("derived", key)
    }

    fn get_in(&self, space: &str, key: &Value) -> Option<Value> {
        let path = self.path_in(space, &Self::key_hash(key));
        let found = match read_verified(&path, key) {
            Verified::Hit(record) => Some(record),
            Verified::Miss => None,
            Verified::Corrupt => {
                if quarantine(&self.root, &path).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store `record` under `key`, embedding the key in the record (the
    /// read-side integrity check). Returns the object's hash.
    pub fn put(&self, key: &Value, record: Value) -> io::Result<String> {
        self.put_in("objects", key, record)
    }

    /// [`ProfileStore::put`] against the derived space.
    pub fn put_derived(&self, key: &Value, record: Value) -> io::Result<String> {
        self.put_in("derived", key, record)
    }

    fn put_in(&self, space: &str, key: &Value, record: Value) -> io::Result<String> {
        let hash = Self::key_hash(key);
        write_record(&self.path_in(space, &hash), key, record)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(hash)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn temp_store(tag: &str) -> ProfileStore {
        let dir =
            std::env::temp_dir().join(format!("rajaperfd_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ProfileStore::open(dir).unwrap()
    }

    #[test]
    fn content_hash_is_stable_and_spreads() {
        // Stability across processes is the whole point — pin a value.
        assert_eq!(content_hash(""), "cbf29ce4842223256c62272e07bb0142");
        assert_ne!(content_hash("a"), content_hash("b"));
        assert_eq!(content_hash("same"), content_hash("same"));
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let store = temp_store("roundtrip");
        let key = json!({"kernel": "Basic_DAXPY", "size": 1000});
        assert!(store.get(&key).is_none(), "empty store misses");
        let hash = store
            .put(&key, json!({"profile": json!({"x": 1})}))
            .unwrap();
        assert_eq!(hash, ProfileStore::key_hash(&key));
        let rec = store.get(&key).expect("stored record hits");
        assert_eq!(rec.get("key"), Some(&key));
        assert_eq!(rec["profile"]["x"].as_i64(), Some(1));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn derived_space_is_separate_from_objects() {
        let store = temp_store("derived");
        let key = json!({"kind": "analyze", "metric": "t"});
        assert!(store.get_derived(&key).is_none());
        store.put_derived(&key, json!({"report": 42})).unwrap();
        let rec = store.get_derived(&key).expect("derived record hits");
        assert_eq!(rec["report"].as_i64(), Some(42));
        // The same key misses in the object space, and no file appears
        // under objects/ — corpus enumeration never sees derived records.
        assert!(store.get(&key).is_none());
        assert!(!store.object_path(&ProfileStore::key_hash(&key)).exists());
        assert!(store.derived_path(&ProfileStore::key_hash(&key)).exists());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn mismatched_embedded_key_is_a_miss_not_a_hit() {
        let store = temp_store("collide");
        let key = json!({"q": 1});
        let hash = ProfileStore::key_hash(&key);
        // Simulate a hash collision / semantic corruption: a parseable
        // record at the right address carrying the wrong key.
        let path = store.object_path(&hash);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(
            &path,
            json!({"key": json!({"q": 2}), "profile": 7}).to_string(),
        )
        .unwrap();
        assert!(store.get(&key).is_none(), "wrong embedded key must miss");
        assert!(path.exists(), "parseable records are not quarantined");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn corrupt_objects_are_quarantined_and_rewritable() {
        let store = temp_store("quarantine");
        let key = json!({"q": "torn"});
        let path = store.object_path(&ProfileStore::key_hash(&key));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"key\": {\"q\": \"torn\"").unwrap();
        assert!(store.get(&key).is_none());
        assert!(!path.exists(), "corrupt object must leave the address");
        assert_eq!(store.stats().quarantined, 1);
        // The address is usable again.
        store.put(&key, json!({"profile": 1})).unwrap();
        assert!(store.get(&key).is_some());
        std::fs::remove_dir_all(store.root()).ok();
    }
}
