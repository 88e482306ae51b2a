//! The `.somb` versioned binary snapshot format.
//!
//! JSON snapshots parse the world on every open; at fleet scale the
//! front-door costs are cold-open latency and scan throughput. `.somb`
//! is a little-endian binary image designed for cheap validation and
//! linear scanning:
//!
//! * a fixed-size CRC-checked header (magic, version, epoch, counts,
//!   section table) — opening validates the header in O(1) without
//!   touching the body;
//! * an interned string table (every key stored once, rows refer by id);
//! * fixed-size resource rows and candidate rows with inline filter
//!   metadata (flags, fingerprints, cost bounds as exact `f64` bits);
//! * per-section CRC32s so tears localize: the decoder's refusal names
//!   the torn section.
//!
//! Numeric profile and score values are stored as exact `f64` bit
//! patterns. The vendored JSON layer round-trips `f64` exactly too
//! (shortest-round-trip rendering), so a snapshot converted JSON →
//! binary → JSON is byte-identical and both formats serve bit-equal
//! query results.
//!
//! Layout (version 3, all integers little-endian, sections 8-aligned):
//!
//! ```text
//! header   0   magic "SOMB" | version u32 | header_len u32 | flags u32
//!          16  epoch i64 | stats_version u32 | section_count u32
//!          32  models i64 | candidate_records i64 | resource_entries i64
//!          56  section table: 4 × { offset u64, len u64, crc32 u32, pad u32 }
//!          152 header_crc32 u32        (over bytes [0, 152))
//! sections strings | resource rows | semantic | edges
//! ```
//!
//! Version 2 (incremental index maintenance) added the `edges` section —
//! one fixed 56-byte row per attempted model pair, `(lo, hi)`-sorted:
//! both fingerprints, a presence mask, and the four measured diffs as
//! exact `f64` bits. Version 3 dropped the `f32` profile slab and the
//! LSH section, which nothing read. Resource rows are written in key
//! order, so a snapshot's bytes are a pure function of the surviving key
//! set regardless of the mutation history that produced it.
//!
//! The string table is built in one walk. As [`encode`] writes each
//! row, a borrowed `&str → u32` map gives each string a provisional id
//! in first-seen order, and the encoder notes where it wrote each id.
//! After the walk it sorts only the distinct strings, rewrites the
//! noted ids to their sorted positions in place, and writes the table
//! from the sorted list: one hash probe per string reference and one
//! sort, with ids that follow the sorted table as before.
//!
//! Decoding trusts no count: each `Vec` a count sizes is capped at what
//! the bytes left in its section can hold, so a forged count runs the
//! cursor dry and fails as [`PersistError::Format`].
//!
//! Versioning policy: `version` bumps on any layout change; readers
//! reject unknown versions with a typed error (the engine then
//! quarantines and rebuilds). New *optional* payload goes behind new
//! `flags` bits within a version.

use crate::persist::{IndexSnapshot, PersistError, SnapshotStats, SNAPSHOT_VERSION};
use crate::resource::ResourceIndex;
use crate::semantic::{CandidateKind, CandidateRecord, EdgeRow, SemanticIndex, SemanticIndexConfig};
use sommelier_graph::Fingerprint;
use sommelier_runtime::ResourceProfile;

/// Magic bytes identifying a binary snapshot (the format sniff).
pub const MAGIC: [u8; 4] = *b"SOMB";
/// Current binary format version.
pub const SOMB_VERSION: u32 = 3;

/// Fixed header size: 56 bytes of scalars + section table + trailing CRC.
const HEADER_LEN: usize = 56 + SECTION_COUNT * 24 + 4;
const SECTION_COUNT: usize = 4;

/// Section indices in the header table.
const SEC_STRINGS: usize = 0;
const SEC_ROWS: usize = 1;
const SEC_SEMANTIC: usize = 2;
const SEC_EDGES: usize = 3;

/// Human-readable section names (decode errors).
pub const SECTION_NAMES: [&str; SECTION_COUNT] = ["strings", "resource-rows", "semantic", "edges"];

/// Byte size of one fixed resource row: key id u32, reserved u32, then
/// memory / GFLOPs / latency as exact `f64` bits.
const RESOURCE_ROW_BYTES: u32 = 32;

/// Byte size of one fixed edge row.
const EDGE_ROW_BYTES: u32 = 56;
/// Presence-mask bits for the four optional edge measurements.
const EDGE_FWD: u32 = 1 << 0;
const EDGE_REV: u32 = 1 << 1;
const EDGE_SEG_FWD: u32 = 1 << 2;
const EDGE_SEG_REV: u32 = 1 << 3;

/// Header flag bits.
const FLAG_STATS: u32 = 1 << 0;
const FLAG_EPOCH: u32 = 1 << 1;

/// Candidate row `kind` tags.
const KIND_WHOLE: u32 = 0;
const KIND_TRANSITIVE: u32 = 1;
const KIND_SYNTHESIZED: u32 = 2;
/// `aux_id` placeholder for rows without a via/donor reference.
const NO_AUX: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78)
// ---------------------------------------------------------------------------

/// Slice-by-8 lookup tables for the software path: `t[0]` is the
/// classic byte-at-a-time table; `t[k][b]` advances byte `b` through
/// `k` further zero bytes, letting the hot loop fold 8 input bytes per
/// iteration.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// CRC-32C checksum of a byte slice (Castagnoli polynomial, reflected).
///
/// Castagnoli rather than the IEEE polynomial because x86-64 carries a
/// dedicated `crc32` instruction for exactly this polynomial: the
/// checksum pass sweeps every section of a snapshot image on open, so
/// it folds 8 bytes per instruction when SSE4.2 is present and falls
/// back to a slice-by-8 table sweep elsewhere. Both paths compute the
/// same function (see the equivalence test).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // Safety: gated on runtime SSE4.2 detection.
        return unsafe { crc32_hw(bytes) };
    }
    crc32_sw(bytes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    // The 64-bit form keeps its state in the low 32 bits.
    let mut c = u64::from(u32::MAX);
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().unwrap()));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked sequential reader over a section payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| truncated("payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Capacity for `count` items of at least `min_bytes` each, capped
    /// at what the bytes left can hold: a forged count then runs the
    /// cursor dry instead of sizing an allocation.
    fn capacity(&self, count: usize, min_bytes: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_bytes)
    }
}

fn truncated(what: &str) -> PersistError {
    PersistError::Format(format!("binary snapshot truncated in {what}"))
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// The string table of an image being encoded. Each distinct string
/// gets a provisional id in first-seen order as the sections are
/// written, and the interner notes where in its one body buffer it put
/// each id; [`Interner::finish`] sorts the distinct strings once and
/// rewrites every noted id to its sorted position.
#[derive(Default)]
struct Interner<'a> {
    ids: std::collections::HashMap<&'a str, u32>,
    strings: Vec<&'a str>,
    /// Byte offsets in the body buffer of every id written.
    sites: Vec<usize>,
}

impl<'a> Interner<'a> {
    /// Write `s`'s provisional id to `body` (always the same buffer).
    fn put(&mut self, body: &mut Vec<u8>, s: &'a str) {
        let next = self.strings.len() as u32;
        let id = *self.ids.entry(s).or_insert_with(|| {
            assert!(next < u32::MAX, "string table overflow");
            self.strings.push(s);
            next
        });
        self.sites.push(body.len());
        put_u32(body, id);
    }

    /// Sort the distinct strings, rewrite each id written to `body` to
    /// its string's sorted position, and return the strings section.
    fn finish(self, body: &mut [u8]) -> Vec<u8> {
        let mut order: Vec<u32> = (0..self.strings.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.strings[id as usize]);
        let mut sorted_id = vec![0u32; order.len()];
        let mut table = Vec::with_capacity(
            4 + self.strings.iter().map(|s| 4 + s.len()).sum::<usize>(),
        );
        put_u32(&mut table, order.len() as u32);
        for (pos, &id) in order.iter().enumerate() {
            sorted_id[id as usize] = pos as u32;
            let s = self.strings[id as usize];
            put_u32(&mut table, s.len() as u32);
            table.extend_from_slice(s.as_bytes());
        }
        for at in self.sites {
            let slot = &mut body[at..at + 4];
            let id = u32::from_le_bytes((&*slot).try_into().unwrap());
            slot.copy_from_slice(&sorted_id[id as usize].to_le_bytes());
        }
        table
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serialize both indices (plus the optional stats header) into a
/// `.somb` image. Deterministic: identical indices encode to identical
/// bytes at any job count (all map-backed structures are emitted in
/// sorted order, and string ids follow the sorted string table).
pub fn encode(
    semantic: &SemanticIndex,
    resource: &ResourceIndex,
    stats: Option<&SnapshotStats>,
) -> Vec<u8> {
    // Deterministic entry orders up front (the resource side's is key
    // order) so the image is a pure function of the surviving key set.
    let sem_entries = semantic.entries_by_fingerprint();
    let res_entries = resource.entries_audit();
    let edge_rows = semantic.edge_rows();
    let keys = semantic.keys();
    let candidate_rows = semantic.candidate_records();

    // The resource rows and the semantic section are written back to
    // back into one body buffer, the only one holding string ids.
    let rows_len = 8 + RESOURCE_ROW_BYTES as usize * res_entries.len();
    let sem_len = 32 + 16 * sem_entries.len() + 32 * candidate_rows + 4 + 4 * keys.len();
    let mut body = Vec::with_capacity(rows_len + sem_len);
    let mut interner = Interner::default();

    assert!(res_entries.len() < u32::MAX as usize, "resource row overflow");
    put_u32(&mut body, res_entries.len() as u32);
    put_u32(&mut body, RESOURCE_ROW_BYTES); // a reader sanity anchor
    for (key, p) in &res_entries {
        interner.put(&mut body, key);
        put_u32(&mut body, 0); // reserved
        put_f64(&mut body, p.memory_mb);
        put_f64(&mut body, p.gflops);
        put_f64(&mut body, p.latency_ms);
    }
    debug_assert_eq!(body.len(), rows_len);

    let sem_cfg = semantic.config();
    put_u64(&mut body, sem_cfg.sample_size as u64);
    put_u64(&mut body, sem_cfg.max_candidates as u64);
    put_u64(&mut body, semantic.seed());
    put_u32(&mut body, u32::from(sem_cfg.segments));
    put_u32(&mut body, sem_entries.len() as u32);
    for (fp, key, cands) in &sem_entries {
        put_u64(&mut body, fp.0);
        interner.put(&mut body, key);
        put_u32(&mut body, cands.len() as u32);
        for c in cands.iter() {
            interner.put(&mut body, &c.key);
            match &c.kind {
                CandidateKind::Whole => {
                    put_u32(&mut body, KIND_WHOLE);
                    put_u32(&mut body, NO_AUX);
                }
                CandidateKind::Transitive { via } => {
                    put_u32(&mut body, KIND_TRANSITIVE);
                    interner.put(&mut body, via);
                }
                CandidateKind::Synthesized { donor } => {
                    put_u32(&mut body, KIND_SYNTHESIZED);
                    interner.put(&mut body, donor);
                }
            }
            put_u32(&mut body, 0);
            put_f64(&mut body, c.diff_bound);
            put_f64(&mut body, c.score);
        }
    }
    put_u32(&mut body, keys.len() as u32);
    for key in keys {
        interner.put(&mut body, key);
    }
    debug_assert_eq!(body.len(), rows_len + sem_len);
    let strings = interner.finish(&mut body);
    let (rows, sem) = body.split_at(rows_len);

    // Edge table: fixed rows, already (lo, hi)-sorted.
    let mut edges = Vec::with_capacity(8 + EDGE_ROW_BYTES as usize * edge_rows.len());
    assert!(edge_rows.len() < u32::MAX as usize, "edge row overflow");
    put_u32(&mut edges, edge_rows.len() as u32);
    put_u32(&mut edges, EDGE_ROW_BYTES);
    for r in &edge_rows {
        put_u64(&mut edges, r.lo);
        put_u64(&mut edges, r.hi);
        let mut mask = 0u32;
        for (bit, v) in [
            (EDGE_FWD, r.fwd),
            (EDGE_REV, r.rev),
            (EDGE_SEG_FWD, r.seg_fwd),
            (EDGE_SEG_REV, r.seg_rev),
        ] {
            if v.is_some() {
                mask |= bit;
            }
        }
        put_u32(&mut edges, mask);
        put_u32(&mut edges, 0);
        put_f64(&mut edges, r.fwd.unwrap_or(0.0));
        put_f64(&mut edges, r.rev.unwrap_or(0.0));
        put_f64(&mut edges, r.seg_fwd.unwrap_or(0.0));
        put_f64(&mut edges, r.seg_rev.unwrap_or(0.0));
    }

    // Assemble: header placeholder, then the sections, each 8-aligned.
    let payloads: [(usize, &[u8]); SECTION_COUNT] = [
        (SEC_STRINGS, &strings),
        (SEC_ROWS, rows),
        (SEC_SEMANTIC, sem),
        (SEC_EDGES, &edges),
    ];
    let mut out = Vec::with_capacity(
        HEADER_LEN + payloads.iter().map(|(_, p)| p.len() + 7).sum::<usize>(),
    );
    out.resize(HEADER_LEN, 0);
    let mut sections = [(0usize, 0usize, 0u32); SECTION_COUNT];
    for (idx, payload) in payloads {
        out.resize(out.len().next_multiple_of(8), 0);
        sections[idx] = (out.len(), payload.len(), crc32(payload));
        out.extend_from_slice(payload);
    }

    // Fill the header in place.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, SOMB_VERSION);
    put_u32(&mut header, HEADER_LEN as u32);
    let mut flags = 0u32;
    if stats.is_some() {
        flags |= FLAG_STATS;
    }
    if stats.is_some_and(|s| s.epoch.is_some()) {
        flags |= FLAG_EPOCH;
    }
    put_u32(&mut header, flags);
    put_i64(&mut header, stats.and_then(|s| s.epoch).unwrap_or(0));
    put_u32(&mut header, stats.map_or(0, |s| s.stats_version));
    put_u32(&mut header, SECTION_COUNT as u32);
    put_i64(&mut header, stats.map_or(semantic.len() as i64, |s| s.models));
    put_i64(&mut header, stats.map_or(candidate_rows as i64, |s| s.candidate_records));
    put_i64(
        &mut header,
        stats.map_or(resource.len() as i64, |s| s.resource_entries),
    );
    for (off, len, crc) in sections {
        put_u64(&mut header, off as u64);
        put_u64(&mut header, len as u64);
        put_u32(&mut header, crc);
        put_u32(&mut header, 0);
    }
    debug_assert_eq!(header.len(), HEADER_LEN - 4);
    let hcrc = crc32(&header);
    put_u32(&mut header, hcrc);
    out[..HEADER_LEN].copy_from_slice(&header);
    out
}

// ---------------------------------------------------------------------------
// Header validation (the O(1) open check)
// ---------------------------------------------------------------------------

/// Parsed, CRC-validated header of a binary snapshot.
pub struct Header {
    pub version: u32,
    pub flags: u32,
    pub epoch: i64,
    pub stats_version: u32,
    pub models: i64,
    pub candidate_records: i64,
    pub resource_entries: i64,
    /// Per-section `(offset, len)` in image order.
    pub sections: [(usize, usize); SECTION_COUNT],
    /// Per-section stored CRC32s.
    pub section_crcs: [u32; SECTION_COUNT],
}

impl Header {
    /// The stats header this snapshot carries, if any.
    pub fn stats(&self) -> Option<SnapshotStats> {
        if self.flags & FLAG_STATS == 0 {
            return None;
        }
        Some(SnapshotStats {
            stats_version: self.stats_version,
            models: self.models,
            candidate_records: self.candidate_records,
            resource_entries: self.resource_entries,
            epoch: (self.flags & FLAG_EPOCH != 0).then_some(self.epoch),
        })
    }
}

/// Whether a byte image *claims* to be a binary snapshot (the format
/// sniff — magic only, no validation).
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// Validate magic, version, and the header CRC, and parse the section
/// table — O(1) in snapshot size (the body is untouched; section CRCs
/// verify on decode).
pub fn validate_header(bytes: &[u8]) -> Result<Header, PersistError> {
    if !is_binary(bytes) {
        return Err(PersistError::Format("missing SOMB magic".to_string()));
    }
    if bytes.len() < HEADER_LEN {
        return Err(truncated("header"));
    }
    let mut c = Cursor::new(&bytes[..HEADER_LEN]);
    c.take(4)?; // magic
    let version = c.u32()?;
    if version != SOMB_VERSION {
        return Err(PersistError::Version {
            found: version,
            expected: SOMB_VERSION,
        });
    }
    let header_len = c.u32()? as usize;
    if header_len != HEADER_LEN {
        return Err(PersistError::Format(format!(
            "binary snapshot declares header length {header_len}, expected {HEADER_LEN}"
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
    let computed = crc32(&bytes[..HEADER_LEN - 4]);
    if stored_crc != computed {
        return Err(PersistError::Format(format!(
            "binary snapshot header CRC mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
        )));
    }
    let flags = c.u32()?;
    let epoch = c.i64()?;
    let stats_version = c.u32()?;
    let section_count = c.u32()? as usize;
    if section_count != SECTION_COUNT {
        return Err(PersistError::Format(format!(
            "binary snapshot declares {section_count} sections, expected {SECTION_COUNT}"
        )));
    }
    let models = c.i64()?;
    let candidate_records = c.i64()?;
    let resource_entries = c.i64()?;
    let mut sections = [(0usize, 0usize); SECTION_COUNT];
    let mut section_crcs = [0u32; SECTION_COUNT];
    for i in 0..SECTION_COUNT {
        let off = c.u64()? as usize;
        let len = c.u64()? as usize;
        section_crcs[i] = c.u32()?;
        c.u32()?; // reserved
        let end = off.checked_add(len).ok_or_else(|| truncated("section table"))?;
        if off < HEADER_LEN || end > bytes.len() {
            return Err(PersistError::Format(format!(
                "section '{}' [{off}, {end}) exceeds snapshot of {} bytes",
                SECTION_NAMES[i],
                bytes.len()
            )));
        }
        sections[i] = (off, len);
    }
    Ok(Header {
        version,
        flags,
        epoch,
        stats_version,
        models,
        candidate_records,
        resource_entries,
        sections,
        section_crcs,
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn section<'a>(bytes: &'a [u8], header: &Header, idx: usize) -> Result<&'a [u8], PersistError> {
    let (off, len) = header.sections[idx];
    let payload = &bytes[off..off + len];
    let computed = crc32(payload);
    if computed != header.section_crcs[idx] {
        return Err(PersistError::Format(format!(
            "section '{}' CRC mismatch (stored {:#010x}, computed {computed:#010x})",
            SECTION_NAMES[idx], header.section_crcs[idx]
        )));
    }
    Ok(payload)
}

/// Section payload by table bounds alone — no CRC. `validate_header`
/// has already range-checked every section, so the slice is in bounds;
/// callers must pair this with a CRC pass (see [`decode`]) before
/// trusting the result.
fn section_raw<'a>(bytes: &'a [u8], header: &Header, idx: usize) -> &'a [u8] {
    let (off, len) = header.sections[idx];
    &bytes[off..off + len]
}

/// Verify every section CRC against the header table.
fn verify_sections(bytes: &[u8], header: &Header) -> Result<(), PersistError> {
    for idx in 0..SECTION_COUNT {
        section(bytes, header, idx)?;
    }
    Ok(())
}

/// What a fixed resource row stores: its key's string id (bytes 0..4)
/// and the profile (bytes 8..32, exact `f64`s).
fn resource_row(row: &[u8]) -> (u32, ResourceProfile) {
    let le_f64 = |o: usize| f64::from_le_bytes(row[o..o + 8].try_into().unwrap());
    let profile = ResourceProfile {
        memory_mb: le_f64(8),
        gflops: le_f64(16),
        latency_ms: le_f64(24),
    };
    (u32::from_le_bytes(row[0..4].try_into().unwrap()), profile)
}

fn decode_strings(payload: &[u8]) -> Result<Vec<String>, PersistError> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    let mut out = Vec::with_capacity(c.capacity(count, 4));
    for _ in 0..count {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        out.push(
            std::str::from_utf8(raw)
                .map_err(|e| PersistError::Format(format!("string table is not UTF-8: {e}")))?
                .to_string(),
        );
    }
    if !c.done() {
        return Err(PersistError::Format("trailing bytes in string table".into()));
    }
    Ok(out)
}

fn lookup<'a>(strings: &'a [String], id: u32, what: &str) -> Result<&'a str, PersistError> {
    strings
        .get(id as usize)
        .map(String::as_str)
        .ok_or_else(|| PersistError::Format(format!("{what} references unknown string id {id}")))
}

/// Decode a binary snapshot image into the same [`IndexSnapshot`] the
/// JSON loader produces. All section CRCs are verified; the snapshot
/// rules are [`crate::persist::decode_snapshot`]'s, the one caller.
pub(crate) fn decode(bytes: &[u8]) -> Result<IndexSnapshot, PersistError> {
    let header = validate_header(bytes)?;
    // CRC the whole body up front, then parse without re-hashing: the
    // two passes touch the same bytes, and folding the checksums in one
    // sequential sweep keeps the hot parse loops free of per-section
    // digest state.
    verify_sections(bytes, &header)?;
    decode_sections(bytes, &header)
}

/// Parse every section of a header-validated image. CRCs are NOT
/// checked here — [`decode`] runs [`verify_sections`] first and only
/// hands this parser verified bytes.
fn decode_sections(bytes: &[u8], header: &Header) -> Result<IndexSnapshot, PersistError> {
    let strings = decode_strings(section_raw(bytes, header, SEC_STRINGS))?;

    // Resource rows.
    let mut c = Cursor::new(section_raw(bytes, header, SEC_ROWS));
    let row_count = c.u32()? as usize;
    let row_bytes = c.u32()?;
    if row_bytes != RESOURCE_ROW_BYTES {
        return Err(PersistError::Format(format!(
            "unexpected resource row size {row_bytes}"
        )));
    }
    let mut entries = Vec::with_capacity(c.capacity(row_count, RESOURCE_ROW_BYTES as usize));
    for _ in 0..row_count {
        // One bounds check per fixed-size row, not one per field.
        let (key_id, profile) = resource_row(c.take(RESOURCE_ROW_BYTES as usize)?);
        entries.push((lookup(&strings, key_id, "resource row")?.to_string(), profile));
    }
    if !c.done() {
        return Err(PersistError::Format("trailing bytes in resource rows".into()));
    }
    let resource: ResourceIndex = entries.into_iter().collect();

    // Semantic.
    let mut c = Cursor::new(section_raw(bytes, header, SEC_SEMANTIC));
    let sample_size = c.u64()? as usize;
    let max_candidates = c.u64()? as usize;
    let seed = c.u64()?;
    let segments = c.u32()? & 1 != 0;
    let entry_count = c.u32()? as usize;
    let mut sem_entries = Vec::with_capacity(c.capacity(entry_count, 16));
    for _ in 0..entry_count {
        let fp = Fingerprint(c.u64()?);
        let key = lookup(&strings, c.u32()?, "semantic entry")?.to_string();
        let cand_count = c.u32()? as usize;
        let mut cands = Vec::with_capacity(c.capacity(cand_count, 32));
        for _ in 0..cand_count {
            // One bounds check per fixed-size candidate row.
            let row = c.take(32)?;
            let le_u32 = |o: usize| u32::from_le_bytes(row[o..o + 4].try_into().unwrap());
            let le_f64 = |o: usize| f64::from_le_bytes(row[o..o + 8].try_into().unwrap());
            let ckey = lookup(&strings, le_u32(0), "candidate row")?.to_string();
            let kind_tag = le_u32(4);
            let aux = le_u32(8);
            let diff_bound = le_f64(16);
            let score = le_f64(24);
            let kind = match kind_tag {
                KIND_WHOLE => CandidateKind::Whole,
                KIND_TRANSITIVE => CandidateKind::Transitive {
                    via: lookup(&strings, aux, "transitive via")?.to_string(),
                },
                KIND_SYNTHESIZED => CandidateKind::Synthesized {
                    donor: lookup(&strings, aux, "synthesis donor")?.to_string(),
                },
                other => {
                    return Err(PersistError::Format(format!(
                        "unknown candidate kind tag {other}"
                    )))
                }
            };
            cands.push(CandidateRecord {
                key: ckey,
                diff_bound,
                score,
                kind,
            });
        }
        sem_entries.push((fp, key, cands));
    }
    // The order table is checked, not kept: the index orders its keys.
    for _ in 0..c.u32()? {
        lookup(&strings, c.u32()?, "order table")?;
    }
    if !c.done() {
        return Err(PersistError::Format("trailing bytes in semantic section".into()));
    }

    // Edge table.
    let mut c = Cursor::new(section_raw(bytes, header, SEC_EDGES));
    let edge_count = c.u32()? as usize;
    let edge_bytes = c.u32()?;
    if edge_bytes != EDGE_ROW_BYTES {
        return Err(PersistError::Format(format!(
            "unexpected edge row size {edge_bytes}"
        )));
    }
    let mut edge_rows = Vec::with_capacity(c.capacity(edge_count, EDGE_ROW_BYTES as usize));
    for _ in 0..edge_count {
        // One bounds check per fixed-size row.
        let row = c.take(EDGE_ROW_BYTES as usize)?;
        let le_u64 = |o: usize| u64::from_le_bytes(row[o..o + 8].try_into().unwrap());
        let le_f64 = |o: usize| f64::from_le_bytes(row[o..o + 8].try_into().unwrap());
        let mask = u32::from_le_bytes(row[16..20].try_into().unwrap());
        let field = |bit: u32, o: usize| (mask & bit != 0).then(|| le_f64(o));
        edge_rows.push(EdgeRow {
            lo: le_u64(0),
            hi: le_u64(8),
            fwd: field(EDGE_FWD, 24),
            rev: field(EDGE_REV, 32),
            seg_fwd: field(EDGE_SEG_FWD, 40),
            seg_rev: field(EDGE_SEG_REV, 48),
        });
    }
    if !c.done() {
        return Err(PersistError::Format("trailing bytes in edge section".into()));
    }

    let semantic = SemanticIndex::from_parts_with_edges(
        SemanticIndexConfig {
            sample_size,
            segments,
            max_candidates,
        },
        seed,
        sem_entries,
        edge_rows,
    )
    .map_err(PersistError::Format)?;

    Ok(IndexSnapshot {
        version: SNAPSHOT_VERSION,
        stats: header.stats(),
        semantic,
        resource,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{Violation, STATS_VERSION};
    use proptest::prelude::*;

    /// A small but representative snapshot: every candidate kind, a
    /// removed key, an odd string set.
    fn sample_indices() -> (SemanticIndex, ResourceIndex) {
        let mk = |key: &str, d: f64, kind: CandidateKind| CandidateRecord {
            key: key.to_string(),
            diff_bound: d,
            score: (1.0 - d).max(0.0),
            kind,
        };
        let semantic = SemanticIndex::from_parts(
            SemanticIndexConfig::default(),
            7,
            vec![
                (
                    Fingerprint(11),
                    "alpha".to_string(),
                    vec![
                        mk("beta", 0.1, CandidateKind::Whole),
                        mk("gamma", 0.30000000000000004, CandidateKind::Transitive {
                            via: "beta".to_string(),
                        }),
                        mk("alpha+beta", 0.05, CandidateKind::Synthesized {
                            donor: "beta".to_string(),
                        }),
                    ],
                ),
                (Fingerprint(22), "beta".to_string(), vec![mk("alpha", 0.1, CandidateKind::Whole)]),
                (Fingerprint(33), "gamma".to_string(), vec![]),
            ],
            vec!["alpha".to_string(), "beta".to_string(), "gamma".to_string()],
        );
        let mut resource = ResourceIndex::default();
        resource.insert("alpha", ResourceProfile { memory_mb: 123.456, gflops: 7.89, latency_ms: 0.1 });
        resource.insert("beta", ResourceProfile { memory_mb: 64.0, gflops: 3.5, latency_ms: 0.05 });
        resource.insert("gamma", ResourceProfile { memory_mb: 8.0, gflops: 0.5, latency_ms: 0.01 });
        resource.remove("gamma");
        (semantic, resource)
    }

    fn sample_snapshot_bytes() -> Vec<u8> {
        let (sem, res) = sample_indices();
        let stats = SnapshotStats::of(&sem, &res, 5);
        encode(&sem, &res, Some(&stats))
    }

    #[test]
    fn round_trip_is_lossless_to_the_json_byte() {
        let (sem, res) = sample_indices();
        let stats = SnapshotStats::of(&sem, &res, 5);
        let bytes = encode(&sem, &res, Some(&stats));
        let snap = decode(&bytes).unwrap();
        // The decoded indices must serialize to the exact JSON the
        // originals produce — binary storage is lossless, down to f64
        // bit patterns and the insertion-order bookkeeping.
        assert_eq!(
            serde_json::to_string(&snap.semantic).unwrap(),
            serde_json::to_string(&sem).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&snap.resource).unwrap(),
            serde_json::to_string(&res).unwrap()
        );
        let got = snap.stats.expect("stats survive");
        assert_eq!(got, stats);
        assert_eq!(got.stats_version, STATS_VERSION);
        assert_eq!(snap.version, SNAPSHOT_VERSION);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_snapshot_bytes(), sample_snapshot_bytes());
    }

    #[test]
    fn missing_stats_round_trip_to_none() {
        let (sem, res) = sample_indices();
        let bytes = encode(&sem, &res, None);
        assert!(decode(&bytes).unwrap().stats.is_none());
    }

    #[test]
    fn header_validates_in_o1_and_carries_counts() {
        let bytes = sample_snapshot_bytes();
        let h = validate_header(&bytes).unwrap();
        assert_eq!(h.version, SOMB_VERSION);
        assert_eq!(h.models, 3);
        assert_eq!(h.resource_entries, 2, "the removed key has no row");
        assert_eq!(h.epoch, 5);
        assert_eq!(h.stats().unwrap().epoch, Some(5));
        assert_eq!(h.sections[SEC_ROWS].1, 8 + 2 * RESOURCE_ROW_BYTES as usize);
    }

    #[test]
    fn corrupted_header_crc_is_rejected() {
        let mut bytes = sample_snapshot_bytes();
        bytes[20] ^= 0xFF; // epoch bytes, covered by the header CRC
        assert!(matches!(validate_header(&bytes), Err(PersistError::Format(_))));
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("header CRC mismatch (stored 0x"), "{err}");
    }

    #[test]
    fn unknown_version_is_typed() {
        // A future version, and the previous one with the 204-byte,
        // six-section header it had: refused on the version word, before
        // anything laid out differently is read.
        for (version, header_len) in [(9u32, HEADER_LEN as u32), (2, 204)] {
            let mut bytes = sample_snapshot_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            bytes[8..12].copy_from_slice(&header_len.to_le_bytes());
            for result in [validate_header(&bytes).map(|_| ()), decode(&bytes).map(|_| ())] {
                assert!(matches!(
                    result,
                    Err(PersistError::Version { found, expected: SOMB_VERSION }) if found == version
                ));
            }
        }
    }

    #[test]
    fn torn_section_fails_decode_and_names_the_section() {
        let bytes = sample_snapshot_bytes();
        let h = validate_header(&bytes).unwrap();
        // Flip a byte inside the resource rows: header still validates
        // (O(1) open), and decode fails on the section CRC, naming the
        // section and both CRCs.
        let mut torn = bytes.clone();
        torn[h.sections[SEC_ROWS].0] ^= 0x5A;
        assert!(validate_header(&torn).is_ok());
        let err = decode(&torn).unwrap_err().to_string();
        let stored = h.section_crcs[SEC_ROWS];
        assert!(
            err.contains(&format!("section 'resource-rows' CRC mismatch (stored {stored:#010x}, computed 0x")),
            "{err}"
        );
    }

    #[test]
    fn truncated_image_fails_cleanly() {
        let bytes = sample_snapshot_bytes();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, PersistError::Format(_)), "cut={cut}");
        }
    }

    #[test]
    fn non_finite_profile_rows_are_reported() {
        // A NaN that was indexed: every CRC holds, and the decoder
        // refuses the image naming the row's key.
        let (sem, mut res) = sample_indices();
        res.insert("beta", ResourceProfile { memory_mb: 64.0, gflops: 3.5, latency_ms: f64::NAN });
        res.insert("gamma", ResourceProfile { memory_mb: 8.0, gflops: 0.5, latency_ms: 0.01 });
        let bytes = encode(&sem, &res, Some(&SnapshotStats::of(&sem, &res, 5)));
        assert!(decode(&bytes).is_ok(), "every CRC holds");
        assert!(matches!(
            crate::persist::decode_snapshot(&bytes),
            Err(PersistError::Invalid(Violation::NonFinite(key))) if key == "beta"
        ));
        // A NaN forged into the bytes at rest: refused on the CRC it
        // broke, named in the refusal.
        let mut bytes = sample_snapshot_bytes();
        let (off, _) = validate_header(&bytes).unwrap().sections[SEC_ROWS];
        bytes[off + 8 + 8..off + 8 + 16].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(decode(&bytes).unwrap_err().to_string().contains("section 'resource-rows' CRC"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // CRC-32C of "123456789" is the canonical check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_software_path_matches_dispatched_path() {
        // Covers the hardware/software split on every length class the
        // 8-byte folding loop produces (full chunks plus each remainder).
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in (0..=64).chain([255, 512, 1000, 1024]) {
            assert_eq!(crc32_sw(&data[..len]), crc32(&data[..len]), "len {len}");
        }
    }

    /// The encoder as it was before it interned by reference: every
    /// string reference copied into its own `String`, all of them sorted
    /// and deduplicated, then one owned-key probe per reference. The
    /// real encoder must match it byte for byte.
    mod reference {
        use super::*;

        struct Interner {
            ids: std::collections::HashMap<String, u32>,
            strings: Vec<String>,
        }

        impl Interner {
            /// Build the table from every string the snapshot references, sorted
            /// so the encoding is deterministic regardless of map iteration
            /// order.
            fn build<'a>(all: impl Iterator<Item = &'a str>) -> Self {
                let mut strings: Vec<String> = all.map(str::to_string).collect();
                strings.sort_unstable();
                strings.dedup();
                assert!(strings.len() < u32::MAX as usize, "string table overflow");
                let ids = strings
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i as u32))
                    .collect();
                Interner { ids, strings }
            }

            fn id(&self, s: &str) -> u32 {
                self.ids[s]
            }
        }

        /// Serialize both indices (plus the optional stats header) into a
        /// `.somb` image. Deterministic: identical indices encode to identical
        /// bytes at any job count (all map-backed structures are emitted in
        /// sorted order).
        pub fn encode(
            semantic: &SemanticIndex,
            resource: &ResourceIndex,
            stats: Option<&SnapshotStats>,
        ) -> Vec<u8> {
            // Deterministic entry orders up front (the resource side's is key
            // order) so the image is a pure function of the surviving key set.
            let mut sem_entries = semantic.entries_audit();
            sem_entries.sort_by_key(|(fp, _, _)| fp.0);
            let res_entries = resource.entries_audit();
            let edge_rows = semantic.edge_rows();
            let keys = semantic.keys();

            let interner = Interner::build(
                res_entries
                    .iter()
                    .map(|(k, _)| *k)
                    .chain(sem_entries.iter().flat_map(|(_, key, cands)| {
                        std::iter::once(*key).chain(cands.iter().flat_map(|c| {
                            std::iter::once(c.key.as_str()).chain(match &c.kind {
                                CandidateKind::Whole => None,
                                CandidateKind::Transitive { via } => Some(via.as_str()),
                                CandidateKind::Synthesized { donor } => Some(donor.as_str()),
                            })
                        }))
                    }))
                    .chain(keys.iter().copied()),
            );

            // Section payloads.
            let mut strings = Vec::new();
            put_u32(&mut strings, interner.strings.len() as u32);
            for s in &interner.strings {
                put_u32(&mut strings, s.len() as u32);
                strings.extend_from_slice(s.as_bytes());
            }

            let mut rows = Vec::new();
            assert!(res_entries.len() < u32::MAX as usize, "resource row overflow");
            put_u32(&mut rows, res_entries.len() as u32);
            put_u32(&mut rows, RESOURCE_ROW_BYTES); // a reader sanity anchor
            for (key, p) in &res_entries {
                put_u32(&mut rows, interner.id(key));
                put_u32(&mut rows, 0); // reserved
                put_f64(&mut rows, p.memory_mb);
                put_f64(&mut rows, p.gflops);
                put_f64(&mut rows, p.latency_ms);
            }

            let sem_cfg = semantic.config();
            let mut sem = Vec::new();
            put_u64(&mut sem, sem_cfg.sample_size as u64);
            put_u64(&mut sem, sem_cfg.max_candidates as u64);
            put_u64(&mut sem, semantic.seed());
            put_u32(&mut sem, u32::from(sem_cfg.segments));
            put_u32(&mut sem, sem_entries.len() as u32);
            let mut candidate_rows = 0i64;
            for (fp, key, cands) in &sem_entries {
                put_u64(&mut sem, fp.0);
                put_u32(&mut sem, interner.id(key));
                put_u32(&mut sem, cands.len() as u32);
                candidate_rows += cands.len() as i64;
                for c in cands.iter() {
                    let (kind, aux) = match &c.kind {
                        CandidateKind::Whole => (KIND_WHOLE, NO_AUX),
                        CandidateKind::Transitive { via } => (KIND_TRANSITIVE, interner.id(via)),
                        CandidateKind::Synthesized { donor } => (KIND_SYNTHESIZED, interner.id(donor)),
                    };
                    put_u32(&mut sem, interner.id(&c.key));
                    put_u32(&mut sem, kind);
                    put_u32(&mut sem, aux);
                    put_u32(&mut sem, 0);
                    put_f64(&mut sem, c.diff_bound);
                    put_f64(&mut sem, c.score);
                }
            }
            put_u32(&mut sem, keys.len() as u32);
            for key in keys {
                put_u32(&mut sem, interner.id(key));
            }

            // Edge table: fixed rows, already (lo, hi)-sorted.
            let mut edges = Vec::new();
            assert!(edge_rows.len() < u32::MAX as usize, "edge row overflow");
            put_u32(&mut edges, edge_rows.len() as u32);
            put_u32(&mut edges, EDGE_ROW_BYTES);
            for r in &edge_rows {
                put_u64(&mut edges, r.lo);
                put_u64(&mut edges, r.hi);
                let mut mask = 0u32;
                for (bit, v) in [
                    (EDGE_FWD, r.fwd),
                    (EDGE_REV, r.rev),
                    (EDGE_SEG_FWD, r.seg_fwd),
                    (EDGE_SEG_REV, r.seg_rev),
                ] {
                    if v.is_some() {
                        mask |= bit;
                    }
                }
                put_u32(&mut edges, mask);
                put_u32(&mut edges, 0);
                put_f64(&mut edges, r.fwd.unwrap_or(0.0));
                put_f64(&mut edges, r.rev.unwrap_or(0.0));
                put_f64(&mut edges, r.seg_fwd.unwrap_or(0.0));
                put_f64(&mut edges, r.seg_rev.unwrap_or(0.0));
            }

            // Assemble: header placeholder, then the sections, each 8-aligned.
            let mut out = vec![0u8; HEADER_LEN];
            let mut sections = [(0usize, 0usize, 0u32); SECTION_COUNT];
            let payloads: [(usize, &[u8]); SECTION_COUNT] = [
                (SEC_STRINGS, &strings),
                (SEC_ROWS, &rows),
                (SEC_SEMANTIC, &sem),
                (SEC_EDGES, &edges),
            ];
            for (idx, payload) in payloads {
                out.resize(out.len().next_multiple_of(8), 0);
                sections[idx] = (out.len(), payload.len(), crc32(payload));
                out.extend_from_slice(payload);
            }

            // Fill the header in place.
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            put_u32(&mut header, SOMB_VERSION);
            put_u32(&mut header, HEADER_LEN as u32);
            let mut flags = 0u32;
            if stats.is_some() {
                flags |= FLAG_STATS;
            }
            if stats.is_some_and(|s| s.epoch.is_some()) {
                flags |= FLAG_EPOCH;
            }
            put_u32(&mut header, flags);
            put_i64(&mut header, stats.and_then(|s| s.epoch).unwrap_or(0));
            put_u32(&mut header, stats.map_or(0, |s| s.stats_version));
            put_u32(&mut header, SECTION_COUNT as u32);
            put_i64(&mut header, stats.map_or(semantic.len() as i64, |s| s.models));
            put_i64(&mut header, stats.map_or(candidate_rows, |s| s.candidate_records));
            put_i64(
                &mut header,
                stats.map_or(resource.len() as i64, |s| s.resource_entries),
            );
            for (off, len, crc) in sections {
                put_u64(&mut header, off as u64);
                put_u64(&mut header, len as u64);
                put_u32(&mut header, crc);
                put_u32(&mut header, 0);
            }
            debug_assert_eq!(header.len(), HEADER_LEN - 4);
            let hcrc = crc32(&header);
            put_u32(&mut header, hcrc);
            out[..HEADER_LEN].copy_from_slice(&header);
            out
        }
    }

    /// Keys that share prefixes, leave ASCII, and order differently by
    /// byte than by insertion.
    const NAMES: [&str; 12] = [
        "bitish-v1-r50",
        "bitish-v1-r50x1",
        "bitish-v1-r50x3",
        "bitish",
        "b",
        "",
        "é",
        "eé",
        "模型-1",
        "模型-10",
        "z😀",
        "Z",
    ];
    /// Strings the generator uses only as a `via` or a `donor`.
    const RELAYS: [&str; 2] = ["relay", "relay-ü"];

    /// Indices with keys shared across entries, transitive and
    /// synthesized (`host+donor`) candidates, strings referenced only as
    /// a via or a donor, resource rows for some keys and not others, an
    /// edge table, and often no entries or no candidates at all.
    struct Indices;

    impl Strategy for Indices {
        type Value = (SemanticIndex, ResourceIndex, Option<SnapshotStats>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let name = |rng: &mut TestRng| NAMES[rng.below(NAMES.len() as u64) as usize];
            let aux = |rng: &mut TestRng| match rng.below(3) {
                0 => RELAYS[rng.below(RELAYS.len() as u64) as usize],
                _ => NAMES[rng.below(NAMES.len() as u64) as usize],
            };
            let keys: Vec<&str> = match rng.below(8) {
                0 => Vec::new(),
                _ => NAMES.iter().copied().filter(|_| rng.below(2) == 0).collect(),
            };
            let mut entries = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let mut cands = Vec::new();
                for _ in 0..rng.below(5) {
                    let d = rng.unit_f64();
                    let (ckey, kind) = match rng.below(3) {
                        0 => (name(rng).to_string(), CandidateKind::Whole),
                        1 => {
                            let via = aux(rng).to_string();
                            (name(rng).to_string(), CandidateKind::Transitive { via })
                        }
                        _ => {
                            let donor = aux(rng).to_string();
                            (format!("{key}+{donor}"), CandidateKind::Synthesized { donor })
                        }
                    };
                    let score = (1.0 - d).max(0.0);
                    cands.push(CandidateRecord { key: ckey, diff_bound: d, score, kind });
                }
                // The low byte keeps fingerprints distinct.
                entries.push((Fingerprint(rng.next_u64() << 8 | i as u64), key.to_string(), cands));
            }
            // Edge rows as the index writes them: between two entries,
            // `lo < hi`, sorted and distinct.
            let measure = |rng: &mut TestRng| (rng.below(2) == 0).then(|| rng.unit_f64() * 2.0);
            let fps: Vec<u64> = entries.iter().map(|e| e.0 .0).collect();
            let mut edges = Vec::new();
            for _ in 0..rng.below(4).min(fps.len() as u64 / 2) {
                let a = fps[rng.below(fps.len() as u64) as usize];
                let b = fps[rng.below(fps.len() as u64) as usize];
                if a != b {
                    edges.push(EdgeRow {
                        lo: a.min(b),
                        hi: a.max(b),
                        fwd: measure(rng),
                        rev: measure(rng),
                        seg_fwd: measure(rng),
                        seg_rev: measure(rng),
                    });
                }
            }
            edges.sort_by_key(|r| (r.lo, r.hi));
            edges.dedup_by_key(|r| (r.lo, r.hi));
            let config = SemanticIndexConfig {
                sample_size: rng.below(64) as usize,
                segments: rng.below(2) == 0,
                max_candidates: rng.below(64) as usize,
            };
            let seed = rng.next_u64();
            let semantic =
                SemanticIndex::from_parts_with_edges(config, seed, entries, edges).unwrap();
            let mut resource = ResourceIndex::default();
            for key in NAMES {
                if rng.below(3) != 0 {
                    continue;
                }
                let profile = ResourceProfile {
                    memory_mb: rng.unit_f64() * 1e4,
                    gflops: rng.unit_f64(),
                    latency_ms: -0.0,
                };
                resource.insert(key, profile);
            }
            let stats = (rng.below(3) != 0)
                .then(|| SnapshotStats::of(&semantic, &resource, rng.below(100)));
            (semantic, resource, stats)
        }
    }

    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_matches_the_sorting_reference((sem, res, stats) in Indices) {
            let bytes = encode(&sem, &res, stats.as_ref());
            prop_assert!(bytes == reference::encode(&sem, &res, stats.as_ref()));
            // What was written decodes back to the same indices.
            let snap = decode(&bytes).unwrap();
            prop_assert_eq!(json(&snap.semantic), json(&sem));
            prop_assert_eq!(json(&snap.resource), json(&res));
            prop_assert_eq!(snap.stats, stats);
        }
    }

    #[test]
    fn empty_indices_encode_like_the_reference() {
        let sem =
            SemanticIndex::from_parts(SemanticIndexConfig::default(), 3, Vec::new(), Vec::new());
        let res = ResourceIndex::default();
        for stats in [None, Some(SnapshotStats::of(&sem, &res, 0))] {
            let bytes = encode(&sem, &res, stats.as_ref());
            assert_eq!(bytes, reference::encode(&sem, &res, stats.as_ref()));
            assert_eq!(json(&decode(&bytes).unwrap().semantic), json(&sem));
        }
    }

    /// `bytes` with `planted` written `at` bytes into section `sec`, and
    /// the section's and the header's CRCs recomputed to match.
    fn forge(mut bytes: Vec<u8>, sec: usize, at: usize, planted: &[u8]) -> Vec<u8> {
        let (off, len) = validate_header(&bytes).unwrap().sections[sec];
        bytes[off + at..off + at + planted.len()].copy_from_slice(planted);
        let crc = crc32(&bytes[off..off + len]).to_le_bytes();
        let slot = 56 + sec * 24 + 16;
        bytes[slot..slot + 4].copy_from_slice(&crc);
        let crc = crc32(&bytes[..HEADER_LEN - 4]).to_le_bytes();
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn a_forged_count_fails_closed() {
        // Every count that sizes a `Vec` on decode, at its offset in its
        // section: a CRC-valid image that says `u32::MAX` is refused as
        // malformed, without an allocation sized by the count.
        let bytes = sample_snapshot_bytes();
        let sem_len = validate_header(&bytes).unwrap().sections[SEC_SEMANTIC].1;
        for (what, sec, at) in [
            ("strings", SEC_STRINGS, 0),
            ("resource rows", SEC_ROWS, 0),
            // Past sample size, max candidates, seed and the segments word.
            ("semantic entries", SEC_SEMANTIC, 28),
            // The first entry's, past its fingerprint and key id.
            ("candidates", SEC_SEMANTIC, 32 + 12),
            // The sample indexes three keys: the table is the last 16 bytes.
            ("order table", SEC_SEMANTIC, sem_len - 4 - 4 * 3),
            ("edges", SEC_EDGES, 0),
        ] {
            let forged = forge(bytes.clone(), sec, at, &u32::MAX.to_le_bytes());
            assert!(validate_header(&forged).is_ok(), "{what}");
            assert!(matches!(decode(&forged), Err(PersistError::Format(_))), "{what}");
        }
    }

    #[test]
    fn a_forged_edge_row_fails_closed() {
        // One row between entries 11 and 22, rewritten in place with
        // valid CRCs: swapped to `lo > hi`, and pointed at a fingerprint
        // with no entry. Either would panic the next `apply` to reach
        // it; the decoder refuses both.
        let (sem, res) = sample_indices();
        let (config, seed) = (sem.config(), sem.seed());
        let entries = sem
            .entries_audit()
            .into_iter()
            .map(|(fp, key, cands)| (fp, key.to_string(), cands.to_vec()))
            .collect();
        let row = EdgeRow {
            lo: 11,
            hi: 22,
            fwd: Some(0.1),
            rev: None,
            seg_fwd: None,
            seg_rev: None,
        };
        let sem = SemanticIndex::from_parts_with_edges(config, seed, entries, vec![row]).unwrap();
        let bytes = encode(&sem, &res, None);
        assert!(decode(&bytes).is_ok());
        // The row starts past the count and the row size.
        let swapped = [22u64.to_le_bytes(), 11u64.to_le_bytes()].concat();
        for (what, at, planted) in [
            ("lo > hi", 8, swapped.as_slice()),
            ("hi names no entry", 16, &44u64.to_le_bytes()[..]),
        ] {
            let forged = forge(bytes.clone(), SEC_EDGES, at, planted);
            assert!(
                matches!(decode(&forged), Err(PersistError::Format(_))),
                "{what}"
            );
        }
    }
}
