//! Blob wire format: one self-verifying simulation point on disk, and
//! the frame every durable record in the store shares.
//!
//! A blob is the durable form of one (key, point) pair. Nothing about
//! it is trusted on the way back in: the fixed header carries a magic,
//! a schema version and both section lengths, the *full* key is echoed
//! inside the blob (not just its 64-bit digest, so a content-address
//! collision can never serve the wrong point), and the final eight
//! bytes are an FNV-1a checksum over everything before them. A torn
//! write, a flipped bit, a foreign file or a blob from an older schema
//! all decode to a specific [`BlobError`] instead of a wrong result.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes   b"TVPSTOR\x01"
//! schema     u32       BLOB_SCHEMA
//! key_len    u32       length of the key section
//! body_len   u32       length of the payload section
//! key        key_len   length-prefixed ExpKey fields (workload,
//!                      insts, chaos flag+seed, config fingerprint)
//! payload    body_len  SimStats as a counted list of u64 counters
//! checksum   u64       FNV-1a over every preceding byte
//! ```
//!
//! Checkpoints ([`super::checkpoint`]) use the same frame under their
//! own magic and schema: `frame` and `unframe` are the one codec
//! for it, and the `ExpKey` and `SimStats` section codecs here serve
//! both kinds.
//!
//! The payload codec writes and reads the counters in the order of
//! [`SimStats::counters_mut`], the one table of them, and counts them
//! with [`tvp_core::stats::COUNTERS`]. A counter added to that table
//! changes every blob's length and the known-answer bytes below, so
//! [`BLOB_SCHEMA`] must be bumped with it.

use tvp_core::stats::{SimStats, COUNTERS};
use tvp_isa::stream::fnv1a;

use crate::jobs::{key_digest, ExpKey, SimPoint};

/// Magic prefix of every blob file.
pub const BLOB_MAGIC: [u8; 8] = *b"TVPSTOR\x01";

/// Blob wire-format version. Bump whenever the key or payload encoding
/// changes shape; decoders reject every other version.
pub const BLOB_SCHEMA: u32 = 2;

/// Size of the fixed frame header (magic + schema + two section
/// lengths).
pub const HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// Size of the trailing checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Why a blob failed to decode. Every variant is a detectable
/// corruption (or version skew) class; none of them is a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlobError {
    /// Shorter than the fixed header + checksum — a torn write.
    TooShort {
        /// Observed file length.
        len: usize,
    },
    /// The magic prefix is wrong — not a blob (or a torn header).
    BadMagic,
    /// Written by a different wire-format version.
    SchemaMismatch {
        /// Schema version found in the header.
        found: u32,
    },
    /// Header section lengths disagree with the file length — a torn
    /// write that preserved the header.
    LengthMismatch {
        /// Total length the header declares.
        declared: usize,
        /// Actual file length.
        actual: usize,
    },
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// The key section does not parse (corruption the checksum cannot
    /// see is impossible; this guards decoder/encoder skew).
    MalformedKey,
    /// The payload section does not parse (wrong counter count).
    MalformedPayload,
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::TooShort { len } => {
                write!(f, "torn blob: {len} bytes is shorter than header + checksum")
            }
            BlobError::BadMagic => write!(f, "bad magic: not a TVP result blob"),
            BlobError::SchemaMismatch { found } => {
                write!(f, "schema mismatch: blob schema {found}, decoder expects {BLOB_SCHEMA}")
            }
            BlobError::LengthMismatch { declared, actual } => {
                write!(f, "torn blob: header declares {declared} bytes, file has {actual}")
            }
            BlobError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            BlobError::MalformedKey => write!(f, "malformed key section"),
            BlobError::MalformedPayload => write!(f, "malformed payload section"),
        }
    }
}

/// Short machine-friendly tag for quarantine file names and reports.
impl BlobError {
    /// One-word classification of the error.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            BlobError::TooShort { .. } | BlobError::LengthMismatch { .. } => "torn",
            BlobError::BadMagic => "magic",
            BlobError::SchemaMismatch { .. } => "schema",
            BlobError::ChecksumMismatch { .. } => "checksum",
            BlobError::MalformedKey => "key",
            BlobError::MalformedPayload => "payload",
        }
    }
}

/// The key as decoded back out of a blob. Owned strings (a blob read
/// from disk cannot reconstruct the `&'static str` workload name), but
/// field-for-field comparable with the [`ExpKey`] that was asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobKey {
    /// Workload name.
    pub workload: String,
    /// Instruction budget.
    pub insts: u64,
    /// Chaos campaign seed, when armed.
    pub chaos_seed: Option<u64>,
    /// `Debug` rendering of the full `CoreConfig`.
    pub config_fp: String,
}

impl BlobKey {
    /// True when this stored key is exactly the requested key — the
    /// re-verification that makes a content-address (digest) collision
    /// harmless.
    #[must_use]
    pub fn matches(&self, key: &ExpKey) -> bool {
        self.workload == key.workload
            && self.insts == key.insts
            && self.chaos_seed == key.chaos_seed
            && self.config_fp == key.config_fp
    }

    /// The same FNV-1a digest [`ExpKey::digest`] computes, so fsck can
    /// check a blob file sits under its own content address.
    #[must_use]
    pub fn digest(&self) -> u64 {
        key_digest(&self.workload, self.insts, self.chaos_seed, &self.config_fp)
    }
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, u32::try_from(s.len()).expect("key field fits u32"));
    out.extend_from_slice(s.as_bytes());
}

/// Byte-cursor over a section; every read is bounds-checked.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed — the bound every wire-declared element
    /// count must respect *before* it sizes an allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the `ExpKey` fields [`push_exp_key`] wrote.
    pub(crate) fn exp_key(&mut self) -> Option<BlobKey> {
        let workload = self.str()?;
        let insts = self.u64()?;
        let flag = *self.take(1)?.first()?;
        if flag > 1 {
            return None;
        }
        let seed = self.u64()?;
        let config_fp = self.str()?;
        Some(BlobKey { workload, insts, chaos_seed: (flag == 1).then_some(seed), config_fp })
    }

    /// Reads the counted counter list [`push_stats`] wrote. Any count
    /// but [`STATS_COUNTERS`] is malformed, so no count from the wire
    /// ever sizes an allocation.
    pub(crate) fn stats(&mut self) -> Option<SimStats> {
        if self.u32()? != STATS_COUNTERS {
            return None;
        }
        let mut stats = SimStats::default();
        for (_, counter) in stats.counters_mut() {
            *counter = self.u64()?;
        }
        Some(stats)
    }
}

/// Parses the whole of `bytes` with `parse`; unread bytes are a
/// failure.
pub(crate) fn parse_exact<'a, T>(
    bytes: &'a [u8],
    parse: impl FnOnce(&mut Cursor<'a>) -> Option<T>,
) -> Option<T> {
    let mut c = Cursor::new(bytes);
    let value = parse(&mut c)?;
    c.exhausted().then_some(value)
}

/// Appends the `ExpKey` section fields: workload, budget, chaos flag
/// and seed, configuration fingerprint.
pub(crate) fn push_exp_key(out: &mut Vec<u8>, key: &ExpKey) {
    push_str(out, key.workload);
    push_u64(out, key.insts);
    out.push(u8::from(key.chaos_seed.is_some()));
    push_u64(out, key.chaos_seed.unwrap_or(0));
    push_str(out, &key.config_fp);
}

/// Counters in one encoded [`SimStats`], as written on the wire.
const STATS_COUNTERS: u32 = COUNTERS as u32;

/// Appends `stats` as a counted list of u64 counters in the order of
/// [`SimStats::counters`].
pub(crate) fn push_stats(out: &mut Vec<u8>, s: &SimStats) {
    push_u32(out, STATS_COUNTERS);
    for (_, value) in s.counters() {
        push_u64(out, value);
    }
}

/// Seals one frame: header (`magic`, `schema`, both section lengths),
/// the key and body sections, then the FNV-1a checksum over all of
/// it. Pure: identical inputs yield identical bytes, which is what
/// makes cold and warm runs byte-comparable.
pub(crate) fn frame(magic: &[u8; 8], schema: u32, key: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + key.len() + body.len() + CHECKSUM_LEN);
    out.extend_from_slice(magic);
    push_u32(&mut out, schema);
    push_u32(&mut out, u32::try_from(key.len()).expect("key fits u32"));
    push_u32(&mut out, u32::try_from(body.len()).expect("body fits u32"));
    out.extend_from_slice(key);
    out.extend_from_slice(body);
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// Verifies one frame — magic, schema, section lengths, checksum — and
/// returns its key and body sections.
pub(crate) fn unframe<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    schema: u32,
) -> Result<(&'a [u8], &'a [u8]), BlobError> {
    // Every framed read below goes through the checked [`Cursor`]: no
    // length field from the wire is ever used to index before it has
    // been bounds-checked, so a corrupt header returns a [`BlobError`]
    // — it can never panic.
    let mut h = Cursor::new(bytes);
    let too_short = BlobError::TooShort { len: bytes.len() };
    if h.take(magic.len()).ok_or(too_short.clone())? != magic {
        return Err(BlobError::BadMagic);
    }
    let found = h.u32().ok_or(too_short.clone())?;
    if found != schema {
        return Err(BlobError::SchemaMismatch { found });
    }
    let key_len = h.u32().ok_or(too_short.clone())? as usize;
    let body_len = h.u32().ok_or(too_short)? as usize;
    let declared = HEADER_LEN
        .checked_add(key_len)
        .and_then(|n| n.checked_add(body_len))
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or(BlobError::LengthMismatch { declared: usize::MAX, actual: bytes.len() })?;
    if declared != bytes.len() {
        return Err(BlobError::LengthMismatch { declared, actual: bytes.len() });
    }
    // The declared lengths now match the file, so both sections and
    // the checksum are in bounds.
    let key = h.take(key_len).ok_or(BlobError::MalformedKey)?;
    let body = h.take(body_len).ok_or(BlobError::MalformedPayload)?;
    let stored = h.u64().ok_or(BlobError::MalformedPayload)?;
    let computed = fnv1a(&bytes[..bytes.len() - CHECKSUM_LEN]);
    if stored != computed {
        return Err(BlobError::ChecksumMismatch { stored, computed });
    }
    Ok((key, body))
}

/// Encodes one (key, point) pair as a complete blob, checksum
/// included.
#[must_use]
pub fn encode(key: &ExpKey, point: &SimPoint) -> Vec<u8> {
    let mut key_bytes = Vec::with_capacity(32 + key.config_fp.len());
    push_exp_key(&mut key_bytes, key);
    let mut payload = Vec::with_capacity(4 + 8 * COUNTERS);
    push_stats(&mut payload, &point.stats);
    frame(&BLOB_MAGIC, BLOB_SCHEMA, &key_bytes, &payload)
}

/// Decodes and fully verifies a blob: the frame, then both sections.
/// Returns the echoed key and the point.
pub fn decode(bytes: &[u8]) -> Result<(BlobKey, SimPoint), BlobError> {
    let (key, payload) = unframe(bytes, &BLOB_MAGIC, BLOB_SCHEMA)?;
    let key = parse_exact(key, Cursor::exp_key).ok_or(BlobError::MalformedKey)?;
    let stats = parse_exact(payload, Cursor::stats).ok_or(BlobError::MalformedPayload)?;
    Ok((key, SimPoint { stats }))
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;
    use tvp_core::config::{CoreConfig, VpMode};

    fn sample() -> (ExpKey, SimPoint) {
        let cfg = CoreConfig::with_vp(VpMode::Tvp);
        let key = ExpKey::new("string_match", 20_000, &cfg);
        let mut stats = SimStats {
            cycles: 12_345,
            insts_retired: 20_000,
            uops_retired: 21_000,
            overflow_events: 1,
            ..Default::default()
        };
        stats.rename.spsr = 77;
        stats.vp.correct_used = 42;
        stats.flush.vp_flushes = 3;
        stats.chaos.cache_delays = 9;
        (key, SimPoint { stats })
    }

    #[test]
    fn roundtrip_preserves_key_and_every_counter() {
        let (key, point) = sample();
        let bytes = encode(&key, &point);
        let (got_key, got_point) = decode(&bytes).expect("clean blob decodes");
        assert!(got_key.matches(&key));
        assert_eq!(got_key.digest(), key.digest(), "BlobKey digest mirrors ExpKey digest");
        assert_eq!(got_point, point);
    }

    #[test]
    fn chaos_seed_survives_the_roundtrip() {
        let cfg = CoreConfig::table2().with_chaos(tvp_chaos::ChaosConfig::campaign(0xBEEF));
        let key = ExpKey::new("k", 10, &cfg);
        let bytes = encode(&key, &SimPoint { stats: SimStats::default() });
        let (got, _) = decode(&bytes).expect("decodes");
        assert_eq!(got.chaos_seed, Some(0xBEEF));
        assert!(got.matches(&key));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let (key, point) = sample();
        let bytes = encode(&key, &point);
        // Every possible torn-write prefix fails with a structured
        // error — never a panic, never a wrong point.
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated blob must not decode");
            assert!(
                matches!(
                    err,
                    BlobError::TooShort { .. }
                        | BlobError::BadMagic
                        | BlobError::LengthMismatch { .. }
                        | BlobError::SchemaMismatch { .. }
                ),
                "cut at {cut}: unexpected error class {err:?}"
            );
        }
    }

    #[test]
    fn any_flipped_bit_in_the_content_fails_the_checksum() {
        let (key, point) = sample();
        let bytes = encode(&key, &point);
        for pos in [20, bytes.len() / 2, bytes.len() - CHECKSUM_LEN - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = decode(&bad).expect_err("bit flip must be caught");
            assert!(
                matches!(
                    err,
                    BlobError::ChecksumMismatch { .. }
                        | BlobError::LengthMismatch { .. }
                        | BlobError::MalformedKey
                ),
                "flip at {pos}: unexpected error class {err:?}"
            );
        }
    }

    #[test]
    fn schema_skew_is_its_own_error() {
        let (key, point) = sample();
        let mut bytes = encode(&key, &point);
        bytes[8..12].copy_from_slice(&(BLOB_SCHEMA + 1).to_le_bytes());
        // Re-seal the checksum so *only* the schema is wrong.
        let len = bytes.len();
        let fixed = fnv1a(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&fixed.to_le_bytes());
        assert_eq!(decode(&bytes), Err(BlobError::SchemaMismatch { found: BLOB_SCHEMA + 1 }));
    }

    #[test]
    fn encoding_is_deterministic() {
        let (key, point) = sample();
        assert_eq!(encode(&key, &point), encode(&key, &point));
    }

    /// Re-seals the trailing checksum so a crafted corruption reaches
    /// the section parsers instead of dying at the checksum gate.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let fixed = fnv1a(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&fixed.to_le_bytes());
    }

    #[test]
    fn corrupt_counter_count_is_an_error_not_an_abort() {
        // Regression: the payload's counter count used to size a
        // `Vec::with_capacity` before any validation — a crafted (or
        // unluckily corrupted) count of u32::MAX requested a 32 GiB
        // allocation, aborting the process instead of returning `Err`.
        let (key, point) = sample();
        let mut bytes = encode(&key, &point);
        let key_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice")) as usize;
        let count_at = HEADER_LEN + key_len;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(decode(&bytes), Err(BlobError::MalformedPayload));
    }

    #[test]
    fn corrupt_key_string_length_is_an_error_not_a_panic() {
        // The first field inside the key section is the workload-name
        // length; blow it up past every bound and re-seal.
        let (key, point) = sample();
        let mut bytes = encode(&key, &point);
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(decode(&bytes), Err(BlobError::MalformedKey));
    }

    #[test]
    fn corrupt_section_lengths_never_panic() {
        // Sweep hostile values through both header length fields (with
        // and without a matching re-seal): every combination must come
        // back as a structured error or a clean decode, never a panic
        // or abort.
        let (key, point) = sample();
        let base = encode(&key, &point);
        let hostile =
            [0u32, 1, 7, 8, 0x7FFF_FFFF, 0x8000_0000, u32::MAX, u32::MAX - 7, base.len() as u32];
        for &key_len in &hostile {
            for &body_len in &hostile {
                let mut bytes = base.clone();
                bytes[12..16].copy_from_slice(&key_len.to_le_bytes());
                bytes[16..20].copy_from_slice(&body_len.to_le_bytes());
                let _ = decode(&bytes);
                reseal(&mut bytes);
                let _ = decode(&bytes);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random byte-flips over a valid blob never panic: decode
        /// returns `Err` (or, for flips the format cannot distinguish,
        /// a clean decode of identical content) — it never aborts.
        #[test]
        fn random_byte_flips_never_panic(
            flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..8)
        ) {
            let (key, point) = sample();
            let mut bytes = encode(&key, &point);
            for (pos, mask) in &flips {
                let at = *pos as usize % bytes.len();
                bytes[at] ^= mask;
            }
            if let Ok((got_key, got_point)) = decode(&bytes) {
                // Only reachable when the flips cancelled out.
                prop_assert!(got_key.matches(&key));
                prop_assert_eq!(got_point, point.clone());
            }
        }

        /// Random truncation + tail garbage never panics either.
        #[test]
        fn random_truncation_never_panics(cut in any::<u16>(), garbage in any::<u8>()) {
            let (key, point) = sample();
            let mut bytes = encode(&key, &point);
            let at = cut as usize % bytes.len();
            bytes.truncate(at);
            bytes.push(garbage);
            prop_assert!(decode(&bytes).is_err());
        }
    }

    #[test]
    fn error_tags_cover_every_class() {
        assert_eq!(BlobError::TooShort { len: 1 }.tag(), "torn");
        assert_eq!(BlobError::BadMagic.tag(), "magic");
        assert_eq!(BlobError::SchemaMismatch { found: 9 }.tag(), "schema");
        assert_eq!(BlobError::ChecksumMismatch { stored: 1, computed: 2 }.tag(), "checksum");
        assert_eq!(BlobError::MalformedKey.tag(), "key");
        assert_eq!(BlobError::MalformedPayload.tag(), "payload");
    }

    /// A `SimStats` whose counters are 1001, 1002, … in table order, so
    /// an added or dropped counter changes the bytes. The table's order
    /// itself is held to the struct's by `tvp_core::stats`' tests.
    pub(crate) fn kat_stats() -> SimStats {
        let mut stats = SimStats::default();
        for ((_, counter), value) in stats.counters_mut().into_iter().zip(1_001..) {
            *counter = value;
        }
        stats
    }

    #[test]
    fn blob_bytes_match_the_known_answer() {
        // Pins the on-disk blob bytes across versions. Only a bump of
        // BLOB_SCHEMA may change this value.
        let key = ExpKey {
            workload: "string_match",
            insts: 20_000,
            chaos_seed: Some(0xC0FFEE),
            config_fp: "CoreConfig { known_answer: 1 }".to_owned(),
        };
        let bytes = encode(&key, &SimPoint { stats: kat_stats() });
        assert_eq!(bytes.len(), 387);
        assert_eq!(fnv1a(&bytes), 0xFC39_5432_C4DE_AE2C, "blob bytes changed: bump BLOB_SCHEMA");
    }
}
