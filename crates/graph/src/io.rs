//! Graph readers and writers.
//!
//! Three formats:
//!
//! * **Matrix Market** (`.mtx`) — the format the paper's SuiteSparse
//!   graphs ship in; `pattern symmetric` coordinate files are supported
//!   (values, if present, are ignored — LACC only needs structure).
//! * **Plain edge lists** — whitespace-separated `u v` pairs, `#` comments.
//! * **Binary** — a compact little-endian format (magic, n, m, pairs) for
//!   fast reload of generated stand-ins.
//!
//! Every reader refuses a vertex count that `u32` — the width of the
//! distributed stack's ids — cannot hold, before building anything sized
//! by it.

use crate::idx::ensure_fits;
use crate::{EdgeList, Vid};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input file.
    Parse(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// `n`, if `u32` ids can name `0..n`; a parse error otherwise.
fn vertex_count(n: usize) -> Result<usize, IoError> {
    ensure_fits::<u32>(n, "the graph").map_err(|e| IoError::Parse(e.to_string()))?;
    Ok(n)
}

/// Reads a Matrix Market coordinate file as an undirected graph.
///
/// One-based indices are converted to zero-based. For `general` files both
/// directions must appear (or will be added by canonicalization later); for
/// `symmetric` files each entry is mirrored.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| IoError::Parse("empty file".into()))??;
    let header = header.to_ascii_lowercase();
    if !header.starts_with("%%matrixmarket matrix coordinate") {
        return Err(IoError::Parse(format!("unsupported header: {header}")));
    }
    let symmetric = header.contains("symmetric");

    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| IoError::Parse("missing size line".into()))?;
    let mut it = size_line.split_ascii_whitespace();
    let rows: usize = parse_tok(it.next(), "rows")?;
    let cols: usize = parse_tok(it.next(), "cols")?;
    let nnz: usize = parse_tok(it.next(), "nnz")?;
    let n = vertex_count(rows.max(cols))?;

    let mut el = EdgeList::new(n);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_ascii_whitespace();
        let r: usize = parse_tok(it.next(), "row index")?;
        let c: usize = parse_tok(it.next(), "col index")?;
        if r == 0 || c == 0 || r > n || c > n {
            return Err(IoError::Parse(format!("index out of range: {r} {c}")));
        }
        let (u, v) = (r - 1, c - 1);
        el.push(u, v);
        if symmetric && u != v {
            el.push(v, u);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    Ok(el)
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, IoError> {
    tok.ok_or_else(|| IoError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|_| IoError::Parse(format!("bad {what}")))
}

/// Writes a graph as a `pattern symmetric` Matrix Market file, emitting
/// each undirected edge once (lower-triangle convention).
pub fn write_matrix_market<W: Write>(writer: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    let lower: Vec<(Vid, Vid)> = el
        .edges()
        .iter()
        .copied()
        .filter(|&(u, v)| u >= v)
        .collect();
    writeln!(
        w,
        "{} {} {}",
        el.num_vertices(),
        el.num_vertices(),
        lower.len()
    )?;
    for (u, v) in lower {
        writeln!(w, "{} {}", u + 1, v + 1)?;
    }
    w.flush()
}

/// Reads a whitespace edge list (`u v` per line, `#` comments). Vertex
/// universe is `max id + 1` unless `n` is given.
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<EdgeList, IoError> {
    let mut pairs = Vec::new();
    let mut max_id = 0usize;
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_ascii_whitespace();
        let u: usize = parse_tok(it.next(), "source")?;
        let v: usize = parse_tok(it.next(), "target")?;
        max_id = max_id.max(u).max(v);
        pairs.push((u, v));
    }
    let n = match n {
        Some(n) => {
            if !pairs.is_empty() && max_id >= n {
                return Err(IoError::Parse(format!("vertex {max_id} ≥ declared n={n}")));
            }
            n
        }
        None if pairs.is_empty() => 0,
        // Saturating, so an id of `usize::MAX` is refused, not wrapped to 0.
        None => max_id.saturating_add(1),
    };
    Ok(EdgeList::from_pairs(vertex_count(n)?, pairs))
}

/// Writes a plain edge list.
pub fn write_edge_list<W: Write>(writer: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} directed edges",
        el.num_vertices(),
        el.len()
    )?;
    for &(u, v) in el.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

const BINARY_MAGIC: u32 = 0x4C41_4343; // "LACC"

/// Serializes an edge list to the compact binary format.
pub fn to_binary(el: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + el.len() * 16);
    buf.extend_from_slice(&BINARY_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(el.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(el.len() as u64).to_le_bytes());
    for &(u, v) in el.edges() {
        buf.extend_from_slice(&(u as u64).to_le_bytes());
        buf.extend_from_slice(&(v as u64).to_le_bytes());
    }
    buf
}

/// Reads the little-endian `u64` at `*pos`, advancing the cursor.
fn get_u64_le(bytes: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8-byte slice"));
    *pos += 8;
    v
}

/// Deserializes the compact binary format.
pub fn from_binary(bytes: impl AsRef<[u8]>) -> Result<EdgeList, IoError> {
    let bytes = bytes.as_ref();
    if bytes.len() < 20 {
        return Err(IoError::Parse("binary file too short".into()));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte slice"));
    if magic != BINARY_MAGIC {
        return Err(IoError::Parse("bad magic".into()));
    }
    let mut pos = 4;
    let n = vertex_count(get_u64_le(bytes, &mut pos) as usize)?;
    let m = get_u64_le(bytes, &mut pos);
    // Divide rather than multiply: `m · 16` overflows for a hostile `m`.
    if (((bytes.len() - pos) / 16) as u64) < m {
        return Err(IoError::Parse("truncated edge section".into()));
    }
    let mut el = EdgeList::new(n);
    for _ in 0..m {
        let u = get_u64_le(bytes, &mut pos) as usize;
        let v = get_u64_le(bytes, &mut pos) as usize;
        if u >= n || v >= n {
            return Err(IoError::Parse(format!("edge ({u},{v}) out of range")));
        }
        el.push(u, v);
    }
    Ok(el)
}

/// Convenience: writes the binary format to a file.
pub fn save_binary(path: &Path, el: &EdgeList) -> io::Result<()> {
    std::fs::write(path, to_binary(el))
}

/// Convenience: reads the binary format from a file.
pub fn load_binary(path: &Path) -> Result<EdgeList, IoError> {
    let data = std::fs::read(path)?;
    from_binary(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_market_roundtrip() {
        let el = EdgeList::from_pairs(4, [(1, 0), (2, 0), (3, 2), (0, 1), (0, 2), (2, 3)]);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &el).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        let mut a = el.clone();
        let mut b = back;
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_market_symmetric_mirrors() {
        let text =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 3\n";
        let el = read_matrix_market(text.as_bytes()).unwrap();
        // (2,1) mirrored; (3,3) diagonal not mirrored.
        assert_eq!(el.edges(), &[(1, 0), (0, 1), (2, 2)]);
    }

    #[test]
    fn matrix_market_rejects_garbage() {
        assert!(read_matrix_market("hello\n".as_bytes()).is_err());
        let bad_count = "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n";
        assert!(read_matrix_market(bad_count.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_roundtrip_and_comments() {
        let el = EdgeList::from_pairs(5, [(0, 4), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &el).unwrap();
        let back = read_edge_list(&buf[..], Some(5)).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn edge_list_infers_universe() {
        let el = read_edge_list("0 9\n3 4\n".as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices(), 10);
        assert!(read_edge_list("0 9\n".as_bytes(), Some(5)).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let el = EdgeList::from_pairs(100, (0..99).map(|v| (v, v + 1)));
        let back = from_binary(to_binary(&el)).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn binary_rejects_corruption() {
        let el = EdgeList::from_pairs(3, [(0, 1)]);
        let bytes = to_binary(&el);
        // Truncate.
        assert!(from_binary(&bytes[..bytes.len() - 4]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(from_binary(bad).is_err());
    }

    #[test]
    fn binary_rejects_edge_counts_past_the_file() {
        let with_header = |m: u64, edges: &[(u64, u64)]| {
            let mut bytes = BINARY_MAGIC.to_le_bytes().to_vec();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&m.to_le_bytes());
            for &(u, v) in edges {
                bytes.extend_from_slice(&u.to_le_bytes());
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes
        };
        // `m · 16` wraps to 0, to 16 and to 2^64 − 16 for these counts.
        for bytes in [
            with_header(1 << 60, &[]),
            with_header((1 << 60) + 1, &[(0, 0)]),
            with_header(u64::MAX, &[]),
        ] {
            match from_binary(bytes) {
                Err(IoError::Parse(msg)) => assert_eq!(msg, "truncated edge section"),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn vertex_counts_past_u32_are_refused_before_anything_is_built() {
        let bin = |n: u64| {
            let mut bytes = BINARY_MAGIC.to_le_bytes().to_vec();
            bytes.extend_from_slice(&n.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            bytes
        };
        let refused = |read: Result<EdgeList, IoError>| match read {
            Err(IoError::Parse(msg)) => assert!(msg.contains("vertex ids as u32"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        };
        refused(from_binary(bin(1 << 40)));
        refused(from_binary(bin(u64::MAX)));
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   1099511627776 1099511627776 0\n";
        refused(read_matrix_market(mtx.as_bytes()));
        // `max id + 1` would wrap to 0 for the first and need 2^32 + 1
        // vertices for the second; an id of u32::MAX needs 2^32.
        for line in ["0 18446744073709551615", "0 4294967296", "0 4294967295"] {
            refused(read_edge_list(line.as_bytes(), None));
        }
        refused(read_edge_list("".as_bytes(), Some(1 << 40)));
        // The largest count u32 holds still loads: an edge list is not sized
        // by its vertex count.
        let most = u32::MAX as usize;
        assert_eq!(from_binary(bin(most as u64)).unwrap().num_vertices(), most);
        let el = read_edge_list("0 4294967294".as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices(), most);
    }

    #[test]
    fn binary_empty_graph() {
        let el = EdgeList::new(0);
        assert_eq!(from_binary(to_binary(&el)).unwrap(), el);
    }
}
