//! Blob wire format: one self-verifying simulation point on disk.
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
//! The payload codec destructures [`SimStats`] and every sub-struct
//! without `..` rest patterns, so adding a counter to any stats struct
//! is a compile error here until the codec (and [`BLOB_SCHEMA`]) are
//! updated — the schema version can never silently lie about the
//! payload shape.

use tvp_core::stats::{
    ActivityStats, ChaosStats, DegradeStats, FlushStats, RenameStats, SimStats, VpStats,
};
use tvp_isa::stream::fnv1a;

use crate::jobs::{key_digest, ExpKey, SimPoint};

/// Magic prefix of every blob file.
pub const BLOB_MAGIC: [u8; 8] = *b"TVPSTOR\x01";

/// Blob wire-format version. Bump whenever the key or payload encoding
/// changes shape; decoders reject every other version.
pub const BLOB_SCHEMA: u32 = 1;

/// Size of the fixed header (magic + schema + two section lengths).
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

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
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
}

/// Encodes the key section.
pub(crate) fn encode_key(key: &ExpKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + key.config_fp.len());
    push_str(&mut out, key.workload);
    push_u64(&mut out, key.insts);
    out.push(u8::from(key.chaos_seed.is_some()));
    push_u64(&mut out, key.chaos_seed.unwrap_or(0));
    push_str(&mut out, &key.config_fp);
    out
}

pub(crate) fn decode_key(bytes: &[u8]) -> Option<BlobKey> {
    let mut c = Cursor::new(bytes);
    let workload = c.str()?;
    let insts = c.u64()?;
    let flag = *c.take(1)?.first()?;
    if flag > 1 {
        return None;
    }
    let seed = c.u64()?;
    let config_fp = c.str()?;
    if !c.exhausted() {
        return None;
    }
    Some(BlobKey {
        workload,
        insts,
        chaos_seed: if flag == 1 { Some(seed) } else { None },
        config_fp,
    })
}

/// Flattens a [`SimStats`] into its counters, in wire order. The
/// exhaustive destructuring (no `..`) is the completeness guarantee:
/// a new stats field fails to compile here until it is added to the
/// wire order and [`BLOB_SCHEMA`] is bumped.
pub(crate) fn stats_to_counters(s: &SimStats) -> Vec<u64> {
    let SimStats {
        cycles,
        insts_retired,
        uops_retired,
        rename,
        vp,
        activity,
        flush,
        chaos,
        degrade,
        overflow_events,
    } = *s;
    let RenameStats {
        arch_insts,
        uops,
        zero_idiom,
        one_idiom,
        move_elim,
        non_me_move,
        nine_bit_idiom,
        spsr,
        spsr_squashed,
    } = rename;
    let VpStats { eligible, used, correct_used, incorrect_used, silenced_lookups } = vp;
    let ActivityStats { int_prf_reads, int_prf_writes, iq_dispatched, iq_issued } = activity;
    let FlushStats {
        branch_mispredicts,
        vp_flushes,
        mem_order_flushes,
        squashed_uops,
        vp_replays,
        replayed_uops,
    } = flush;
    let ChaosStats {
        vp_forced_mispredicts,
        vtage_corruptions,
        tage_corruptions,
        btb_corruptions,
        storeset_corruptions,
        branch_inversions,
        cache_delays,
        prefetch_drop_cycles,
    } = chaos;
    let DegradeStats {
        throttle_engagements,
        throttled_cycles,
        killswitch_suppressed,
        throttle_suppressed,
    } = degrade;
    vec![
        cycles,
        insts_retired,
        uops_retired,
        arch_insts,
        uops,
        zero_idiom,
        one_idiom,
        move_elim,
        non_me_move,
        nine_bit_idiom,
        spsr,
        spsr_squashed,
        eligible,
        used,
        correct_used,
        incorrect_used,
        silenced_lookups,
        int_prf_reads,
        int_prf_writes,
        iq_dispatched,
        iq_issued,
        branch_mispredicts,
        vp_flushes,
        mem_order_flushes,
        squashed_uops,
        vp_replays,
        replayed_uops,
        vp_forced_mispredicts,
        vtage_corruptions,
        tage_corruptions,
        btb_corruptions,
        storeset_corruptions,
        branch_inversions,
        cache_delays,
        prefetch_drop_cycles,
        throttle_engagements,
        throttled_cycles,
        killswitch_suppressed,
        throttle_suppressed,
        overflow_events,
    ]
}

/// Rebuilds a [`SimStats`] from wire-order counters (inverse of
/// [`stats_to_counters`]).
pub(crate) fn counters_to_stats(v: &[u64]) -> Option<SimStats> {
    let mut it = v.iter().copied();
    let mut next = || it.next();
    let stats = SimStats {
        cycles: next()?,
        insts_retired: next()?,
        uops_retired: next()?,
        rename: RenameStats {
            arch_insts: next()?,
            uops: next()?,
            zero_idiom: next()?,
            one_idiom: next()?,
            move_elim: next()?,
            non_me_move: next()?,
            nine_bit_idiom: next()?,
            spsr: next()?,
            spsr_squashed: next()?,
        },
        vp: VpStats {
            eligible: next()?,
            used: next()?,
            correct_used: next()?,
            incorrect_used: next()?,
            silenced_lookups: next()?,
        },
        activity: ActivityStats {
            int_prf_reads: next()?,
            int_prf_writes: next()?,
            iq_dispatched: next()?,
            iq_issued: next()?,
        },
        flush: FlushStats {
            branch_mispredicts: next()?,
            vp_flushes: next()?,
            mem_order_flushes: next()?,
            squashed_uops: next()?,
            vp_replays: next()?,
            replayed_uops: next()?,
        },
        chaos: ChaosStats {
            vp_forced_mispredicts: next()?,
            vtage_corruptions: next()?,
            tage_corruptions: next()?,
            btb_corruptions: next()?,
            storeset_corruptions: next()?,
            branch_inversions: next()?,
            cache_delays: next()?,
            prefetch_drop_cycles: next()?,
        },
        degrade: DegradeStats {
            throttle_engagements: next()?,
            throttled_cycles: next()?,
            killswitch_suppressed: next()?,
            throttle_suppressed: next()?,
        },
        overflow_events: next()?,
    };
    if it.next().is_some() {
        return None;
    }
    Some(stats)
}

/// Encodes one (key, point) pair as a complete blob, checksum
/// included. Pure: identical inputs yield identical bytes, which is
/// what makes cold and warm runs byte-comparable.
#[must_use]
pub fn encode(key: &ExpKey, point: &SimPoint) -> Vec<u8> {
    let key_bytes = encode_key(key);
    let counters = stats_to_counters(&point.stats);
    let mut payload = Vec::with_capacity(4 + counters.len() * 8);
    push_u32(&mut payload, u32::try_from(counters.len()).expect("counter count fits u32"));
    for c in &counters {
        push_u64(&mut payload, *c);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + key_bytes.len() + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&BLOB_MAGIC);
    push_u32(&mut out, BLOB_SCHEMA);
    push_u32(&mut out, u32::try_from(key_bytes.len()).expect("key fits u32"));
    push_u32(&mut out, u32::try_from(payload.len()).expect("payload fits u32"));
    out.extend_from_slice(&key_bytes);
    out.extend_from_slice(&payload);
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// Decodes and fully verifies a blob: magic, schema, section lengths,
/// checksum, then both sections. Returns the echoed key and the point.
pub fn decode(bytes: &[u8]) -> Result<(BlobKey, SimPoint), BlobError> {
    // Every framed read below goes through the checked [`Cursor`] (or
    // `get`-based slicing): no length field from the wire is ever used
    // to index before it has been bounds-checked, so a corrupt header
    // returns a [`BlobError`] — it can never panic.
    let mut h = Cursor::new(bytes);
    let too_short = BlobError::TooShort { len: bytes.len() };
    let magic = h.take(BLOB_MAGIC.len()).ok_or(too_short.clone())?;
    if magic != BLOB_MAGIC {
        return Err(BlobError::BadMagic);
    }
    let schema = h.u32().ok_or(too_short.clone())?;
    if schema != BLOB_SCHEMA {
        return Err(BlobError::SchemaMismatch { found: schema });
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
    let content = bytes.get(..bytes.len() - CHECKSUM_LEN).ok_or(BlobError::MalformedPayload)?;
    let stored = bytes
        .get(bytes.len() - CHECKSUM_LEN..)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or(BlobError::MalformedPayload)?;
    let computed = fnv1a(content);
    if stored != computed {
        return Err(BlobError::ChecksumMismatch { stored, computed });
    }

    let mut sections = Cursor::new(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN]);
    let key_bytes = sections.take(key_len).ok_or(BlobError::MalformedKey)?;
    let key = decode_key(key_bytes).ok_or(BlobError::MalformedKey)?;
    let payload = sections.take(body_len).ok_or(BlobError::MalformedPayload)?;
    let mut c = Cursor::new(payload);
    let count = c.u32().ok_or(BlobError::MalformedPayload)? as usize;
    // Bound the allocation by the bytes that actually exist: a corrupt
    // count field (up to u32::MAX) fed straight into `with_capacity`
    // would attempt a multi-gigabyte allocation and *abort* before the
    // first checked read ever ran.
    if count > payload.len().saturating_sub(4) / 8 {
        return Err(BlobError::MalformedPayload);
    }
    let mut counters = Vec::with_capacity(count);
    for _ in 0..count {
        counters.push(c.u64().ok_or(BlobError::MalformedPayload)?);
    }
    if !c.exhausted() {
        return Err(BlobError::MalformedPayload);
    }
    let stats = counters_to_stats(&counters).ok_or(BlobError::MalformedPayload)?;
    Ok((key, SimPoint { stats }))
}

#[cfg(test)]
mod tests {
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
        stats.degrade.throttled_cycles = 9;
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
}
