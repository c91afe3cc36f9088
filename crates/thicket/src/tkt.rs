//! `.tkt`: the chunked on-disk binary format for composed thickets.
//!
//! Composing a corpus parses every Caliper JSON file once; re-running an
//! analysis should not repeat that. [`Thicket::write_tkt`] persists the
//! compacted columnar frame so [`Thicket::read_tkt`] reopens a
//! million-profile corpus in seconds — no JSON re-parse of the profiles,
//! no re-sort of the row index.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "TKT1", u32 version
//! sections raw bytes, back to back:
//!   "head"        JSON: nodes, profiles, metadata, statsframe
//!   "index"       row index, chunked: u32 nchunks, then per chunk
//!                 u32 count + count × (u32 node, u32 profile)
//!   "col:<name>"  one per metric column, chunked: u32 nchunks, then per
//!                 chunk u32 count + count × f64 value + ⌈count/8⌉ bytes
//!                 of LSB-first validity bits
//! footer   JSON {"sections": {name: [offset, len]}}
//! tail     u64 footer offset, u64 footer len, magic "TKT1"
//! ```
//!
//! The footer-at-end layout lets the writer stream sections without
//! knowing sizes up front, and the fixed-size tail lets the reader find
//! the footer without scanning. Writes go through a temp file + rename, so
//! a mid-write kill never leaves a torn `.tkt` behind (same discipline as
//! `caliper::write_atomic`).

use crate::columnar::{Column, Frame};
use crate::{Node, Thicket};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 4] = b"TKT1";
const VERSION: u32 = 1;
/// Rows (and column cells) per chunk: big enough to amortize per-chunk
/// framing, small enough that partial readers stream.
const CHUNK_ROWS: usize = 65_536;

/// Everything outside the frame, stored as one JSON section. Maps with
/// integer keys are flattened to pair lists so the encoding never depends
/// on JSON map-key coercion.
#[derive(Serialize, Deserialize)]
struct Head {
    nodes: Vec<Node>,
    profiles: Vec<usize>,
    metadata: Vec<(usize, BTreeMap<String, serde_json::Value>)>,
    statsframe: Vec<(String, Vec<(usize, f64)>)>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn u32_le(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(bad(format!("truncated {} section", self.what)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.take(4).map(u32_le)
    }

    /// A chunk's item count, refused unless the section still holds that
    /// many items of at least `item_bytes` each — so what a reader reserves
    /// for a chunk is bounded by the bytes on disk, not by a number in them.
    fn count(&mut self, item_bytes: usize) -> io::Result<usize> {
        let count = self.u32()? as usize;
        if count > (self.buf.len() - self.pos) / item_bytes {
            return Err(bad(format!("truncated {} section", self.what)));
        }
        Ok(count)
    }
}

/// Encode the row index section.
fn encode_index(rows: &[(u32, u32)]) -> Vec<u8> {
    let chunks: Vec<&[(u32, u32)]> = rows.chunks(CHUNK_ROWS.max(1)).collect();
    let mut out = Vec::with_capacity(8 + rows.len() * 8);
    put_u32(&mut out, chunks.len() as u32);
    for chunk in chunks {
        put_u32(&mut out, chunk.len() as u32);
        for &(n, p) in chunk {
            put_u32(&mut out, n);
            put_u32(&mut out, p);
        }
    }
    out
}

fn decode_index(buf: &[u8]) -> io::Result<Vec<(u32, u32)>> {
    let mut c = Cursor {
        buf,
        pos: 0,
        what: "index",
    };
    let nchunks = c.u32()?;
    let mut rows = Vec::new();
    for _ in 0..nchunks {
        let count = c.count(8)?;
        rows.extend(c.take(count * 8)?.chunks_exact(8).map(|row| {
            let (n, p) = row.split_at(4);
            (u32_le(n), u32_le(p))
        }));
    }
    Ok(rows)
}

/// Encode one column section (values + validity, chunked like the index).
fn encode_column(col: &Column) -> Vec<u8> {
    let n = col.values.len();
    let nchunks = n.div_ceil(CHUNK_ROWS).max(1);
    let mut out = Vec::with_capacity(8 + n * 9);
    put_u32(&mut out, nchunks as u32);
    for c in 0..nchunks {
        let (s, e) = (c * CHUNK_ROWS, ((c + 1) * CHUNK_ROWS).min(n));
        put_u32(&mut out, (e - s) as u32);
        for i in s..e {
            out.extend_from_slice(&col.values[i].to_le_bytes());
        }
        let mut byte = 0u8;
        for i in s..e {
            if col.valid.get(i) {
                byte |= 1 << ((i - s) % 8);
            }
            if (i - s) % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if (e - s) % 8 != 0 {
            out.push(byte);
        }
    }
    out
}

fn decode_column(buf: &[u8], name: &str) -> io::Result<Column> {
    let mut c = Cursor {
        buf,
        pos: 0,
        what: name,
    };
    let nchunks = c.u32()?;
    let mut col = Column::default();
    for _ in 0..nchunks {
        let count = c.count(8)?;
        let values = c.take(count * 8)?;
        let bits = c.take(count.div_ceil(8))?;
        col.values.reserve(count);
        col.values
            .extend(values.chunks_exact(8).enumerate().map(|(i, v)| {
                // Invalid cells re-read as NaN placeholders regardless of
                // what the writer stored.
                if bits[i / 8] >> (i % 8) & 1 == 1 {
                    f64::from_le_bytes(v.try_into().expect("8 bytes"))
                } else {
                    f64::NAN
                }
            }));
        col.valid.extend_from_bytes(bits, count);
    }
    Ok(col)
}

/// Write `contents` to `path` via a same-directory temp file + rename, so
/// concurrent readers only ever see complete files.
fn write_atomic(path: &std::path::Path, contents: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("thicket");
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

impl Thicket {
    /// Persist this thicket (compacted) as a `.tkt` file.
    pub fn write_tkt(&self, path: &std::path::Path) -> io::Result<()> {
        let frame = self.frame_view();
        let head = Head {
            nodes: self.nodes.clone(),
            profiles: self.profiles.clone(),
            metadata: self
                .metadata
                .iter()
                .map(|(&p, md)| (p, (**md).clone()))
                .collect(),
            statsframe: self
                .statsframe
                .iter()
                .map(|(c, m)| (c.clone(), m.iter().map(|(&n, &v)| (n, v)).collect()))
                .collect(),
        };

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);

        let mut sections: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut emit = |out: &mut Vec<u8>, name: String, bytes: Vec<u8>| {
            sections.insert(name, (out.len() as u64, bytes.len() as u64));
            out.extend_from_slice(&bytes);
        };
        emit(
            &mut out,
            "head".to_string(),
            serde_json::to_string(&head)
                .expect("head serialization cannot fail")
                .into_bytes(),
        );
        emit(&mut out, "index".to_string(), encode_index(frame.rows()));
        for (name, col) in frame.columns() {
            emit(&mut out, format!("col:{name}"), encode_column(col));
        }

        let footer = serde_json::to_string(&sections)
            .expect("footer serialization cannot fail")
            .into_bytes();
        let footer_off = out.len() as u64;
        out.extend_from_slice(&footer);
        out.extend_from_slice(&footer_off.to_le_bytes());
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(MAGIC);

        write_atomic(path, &out)
    }

    /// Reopen a thicket written by [`Thicket::write_tkt`]. Malformed or
    /// truncated files return `InvalidData` errors naming what broke —
    /// never a panic.
    pub fn read_tkt(path: &std::path::Path) -> io::Result<Thicket> {
        let mut f = std::fs::File::open(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let file_len = f.seek(SeekFrom::End(0))?;
        if file_len < 8 + 20 {
            return Err(bad(format!("{}: too short for a .tkt file", path.display())));
        }

        let mut header = [0u8; 8];
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(bad(format!("{}: bad magic (not a .tkt file)", path.display())));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(bad(format!(
                "{}: unsupported .tkt version {version} (supported: {VERSION})",
                path.display()
            )));
        }

        let mut tail = [0u8; 20];
        f.seek(SeekFrom::End(-20))?;
        f.read_exact(&mut tail)?;
        if &tail[16..20] != MAGIC {
            return Err(bad(format!("{}: truncated (tail magic missing)", path.display())));
        }
        let footer_off = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
        let footer_len = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
        let footer_end = footer_off.checked_add(footer_len);
        if footer_end.and_then(|end| end.checked_add(20)).is_none_or(|end| end > file_len) {
            return Err(bad(format!("{}: footer out of bounds", path.display())));
        }
        let mut footer = vec![0u8; footer_len as usize];
        f.seek(SeekFrom::Start(footer_off))?;
        f.read_exact(&mut footer)?;
        let sections: BTreeMap<String, (u64, u64)> = serde_json::from_str(
            std::str::from_utf8(&footer).map_err(|_| bad("footer is not UTF-8"))?,
        )
        .map_err(|e| bad(format!("{}: malformed footer: {e}", path.display())))?;

        let mut read_section = |name: &str| -> io::Result<Vec<u8>> {
            let &(off, len) = sections
                .get(name)
                .ok_or_else(|| bad(format!("{}: missing section {name}", path.display())))?;
            if off.checked_add(len).is_none_or(|end| end > file_len) {
                return Err(bad(format!("{}: section {name} out of bounds", path.display())));
            }
            let mut buf = vec![0u8; len as usize];
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(&mut buf)?;
            Ok(buf)
        };

        let head_bytes = read_section("head")?;
        let head: Head = serde_json::from_str(
            std::str::from_utf8(&head_bytes).map_err(|_| bad("head is not UTF-8"))?,
        )
        .map_err(|e| bad(format!("{}: malformed head: {e}", path.display())))?;

        let rows = decode_index(&read_section("index")?)?;
        let mut columns = BTreeMap::new();
        for name in sections.keys() {
            if let Some(col_name) = name.strip_prefix("col:") {
                let col = decode_column(&read_section(name)?, name)?;
                if col.values.len() != rows.len() {
                    return Err(bad(format!(
                        "{}: column {col_name} has {} cells for {} rows",
                        path.display(),
                        col.values.len(),
                        rows.len()
                    )));
                }
                columns.insert(col_name.to_string(), col);
            }
        }

        // Sanity: row ids must be inside the declared node set.
        let nnodes = head.nodes.len();
        if let Some(&(n, _)) = rows.iter().find(|&&(n, _)| n as usize >= nnodes) {
            return Err(bad(format!(
                "{}: row references node {n} outside the {nnodes}-node set",
                path.display()
            )));
        }
        // The index must be sorted node-major; a compacted frame's
        // invariants depend on it, so verify instead of trusting the disk.
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad(format!(
                "{}: row index is not strictly node-major sorted",
                path.display()
            )));
        }
        if let Some(p) = head.profiles.iter().find(|&&p| u32::try_from(p).is_err()) {
            return Err(bad(format!(
                "{}: profile id {p} exceeds the u32 row space",
                path.display()
            )));
        }
        // Ids are allocated `last + 1`, so a resumed session trusts the order.
        if let Some(w) = head.profiles.windows(2).find(|w| w[0] >= w[1]) {
            return Err(bad(format!(
                "{}: profile ids are not strictly ascending ({} then {})",
                path.display(),
                w[0],
                w[1]
            )));
        }

        let frame = Frame::from_parts(rows, columns, nnodes);
        Ok(Thicket::from_parts(
            head.nodes,
            head.profiles,
            frame,
            head.metadata
                .into_iter()
                .map(|(p, md)| (p, std::sync::Arc::new(md)))
                .collect(),
            head.statsframe
                .into_iter()
                .map(|(c, m)| (c, m.into_iter().collect()))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProfileData, Stat};

    fn corpus(n: usize) -> Vec<ProfileData> {
        (0..n)
            .map(|i| {
                let mut globals = BTreeMap::new();
                globals.insert("variant".to_string(), serde_json::json!(format!("v{}", i % 3)));
                let mut metrics = BTreeMap::new();
                metrics.insert("t".to_string(), i as f64 + 0.25);
                if i % 2 == 0 {
                    metrics.insert("bytes".to_string(), (i * 8) as f64);
                }
                ProfileData {
                    globals,
                    records: vec![
                        (vec!["RAJAPerf".into(), format!("K{}", i % 5)], metrics),
                    ],
                }
            })
            .collect()
    }

    #[test]
    fn tkt_round_trips_the_full_thicket() {
        let dir = std::env::temp_dir().join(format!("tkt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tkt");

        let mut t = Thicket::from_profiles(&corpus(50));
        t.stats("t", Stat::Mean);
        t.write_tkt(&path).unwrap();
        let back = Thicket::read_tkt(&path).unwrap();

        assert_eq!(back.profiles, t.profiles);
        assert_eq!(back.nodes, t.nodes);
        assert_eq!(back.metadata, t.metadata);
        assert_eq!(back.statsframe, t.statsframe);
        assert_eq!(back.to_csv(), t.to_csv());
        // The reopened thicket keeps ingesting.
        let mut s = crate::IngestSession::from_thicket(back);
        s.ingest(&corpus(1)[0]);
        let grown = s.finish();
        assert_eq!(grown.profiles.len(), 51);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_corrupt_tkt_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("tkt-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tkt");
        let t = Thicket::from_profiles(&corpus(10));
        t.write_tkt(&path).unwrap();

        let full = std::fs::read(&path).unwrap();
        // Truncations at every region: header, sections, footer, tail.
        for cut in [4usize, 12, full.len() / 2, full.len() - 5] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(Thicket::read_tkt(&path).is_err(), "cut at {cut} must error");
        }
        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(Thicket::read_tkt(&path).is_err());
        // Missing file has a named error.
        let err = Thicket::read_tkt(&dir.join("absent.tkt")).unwrap_err();
        assert!(err.to_string().contains("absent.tkt"));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
