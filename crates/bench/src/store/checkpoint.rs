//! Checkpoint wire format: one mid-trace sampled-campaign state on
//! disk.
//!
//! A checkpoint is the durable form of a *partially completed* sampled
//! run: the functional machine's complete architectural state
//! (registers, flags, PC, nonzero memory pages) plus every finished
//! interval's measured statistics. A campaign killed between intervals
//! resumes from the newest checkpoint without re-executing the prefix,
//! and the resumed run is byte-identical to an uninterrupted one (the
//! interval fingerprints prove it).
//!
//! Trust model and frame are [`super::blob`]'s: nothing on the way
//! back in is believed. The one frame codec (`blob::frame` /
//! `blob::unframe`) carries magic + schema + section lengths and a
//! trailing FNV-1a checksum; the key section echoes the full
//! [`SampleKey`] (experiment key *and* sampling spec — a checkpoint can
//! never resume the wrong run). Any failure decodes to a [`BlobError`]
//! class; the store quarantines and the campaign starts cold. This
//! module owns only the spec suffix of the key and the body codec.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes   b"TVPCKPT\x01"
//! schema     u32       CKPT_SCHEMA
//! key_len    u32       length of the key section
//! body_len   u32       length of the body section
//! key        key_len   blob key encoding of the ExpKey, then the
//!                      sampling spec (period, warmup, measured u64s)
//! body       body_len  stream position, run totals, interval list,
//!                      architectural snapshot (see below)
//! checksum   u64       FNV-1a over every preceding byte
//! ```

use tvp_workloads::machine::{ArchSnapshot, SparseMem, PAGE_BYTES};

use crate::sampling::{sample_digest, IntervalResult, SampleKey, SampleSpec};
use crate::store::blob::{self, parse_exact, BlobError, Cursor};

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"TVPCKPT\x01";

/// Checkpoint wire-format version. Bump whenever any section changes
/// shape; decoders reject every other version (the campaign then
/// simply starts cold — checkpoints are a cache, not a source of
/// truth).
pub const CKPT_SCHEMA: u32 = 2;

/// The resumable state of a sampled campaign after its most recent
/// finished interval.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Global µop sequence position of the machine.
    pub seq: u64,
    /// Complete architectural state at that position.
    pub snapshot: ArchSnapshot,
    /// Every interval measured so far, in stream order.
    pub intervals: Vec<IntervalResult>,
    /// Architectural instructions consumed from the stream so far.
    pub total_insts: u64,
    /// Instructions functionally fast-forwarded so far.
    pub skipped_insts: u64,
    /// Instructions simulated as unmeasured warmup so far.
    pub warmup_insts: u64,
    /// Instructions simulated and measured so far.
    pub measured_insts: u64,
}

/// The key as decoded back out of a checkpoint: the blob key plus the
/// sampling spec, field-for-field comparable with the requested
/// [`SampleKey`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptKey {
    /// The underlying experiment key (owned form).
    pub exp: blob::BlobKey,
    /// The sampling spec.
    pub spec: SampleSpec,
}

impl CkptKey {
    /// True when this stored key is exactly the requested key.
    #[must_use]
    pub fn matches(&self, key: &SampleKey) -> bool {
        self.exp.matches(&key.exp) && self.spec == key.spec
    }

    /// The same digest [`SampleKey::digest`] computes, so fsck can
    /// check a checkpoint file sits under its own content address.
    #[must_use]
    pub fn digest(&self) -> u64 {
        sample_digest(self.exp.digest(), &self.spec)
    }
}

/// The key section: the blob `ExpKey` fields, then the spec.
fn decode_key(c: &mut Cursor<'_>) -> Option<CkptKey> {
    let exp = c.exp_key()?;
    let spec = SampleSpec::new(c.u64()?, c.u64()?, c.u64()?).ok()?;
    Some(CkptKey { exp, spec })
}

fn encode_interval(iv: &IntervalResult, out: &mut Vec<u8>) {
    blob::push_u32(out, iv.index);
    blob::push_u64(out, iv.start_seq);
    blob::push_u64(out, iv.represented_insts);
    blob::push_u64(out, iv.measured_insts);
    blob::push_u64(out, iv.measured_uops);
    blob::push_u64(out, iv.fingerprint);
    blob::push_stats(out, &iv.stats);
}

fn decode_interval(c: &mut Cursor<'_>) -> Option<IntervalResult> {
    let index = c.u32()?;
    let start_seq = c.u64()?;
    let represented_insts = c.u64()?;
    let measured_insts = c.u64()?;
    let measured_uops = c.u64()?;
    let fingerprint = c.u64()?;
    Some(IntervalResult {
        index,
        start_seq,
        represented_insts,
        measured_insts,
        measured_uops,
        stats: c.stats()?,
        fingerprint,
    })
}

fn encode_snapshot(snap: &ArchSnapshot, out: &mut Vec<u8>) {
    out.push(snap.flags.pack());
    blob::push_u64(out, snap.pc);
    blob::push_u32(out, u32::try_from(snap.int.len()).expect("regfile fits u32"));
    for &r in &snap.int {
        blob::push_u64(out, r);
    }
    blob::push_u32(out, u32::try_from(snap.fp.len()).expect("regfile fits u32"));
    for &r in &snap.fp {
        blob::push_u64(out, r);
    }
    let pages: Vec<(u64, &[u8])> = snap.mem.nonzero_pages().collect();
    blob::push_u32(out, u32::try_from(pages.len()).expect("page count fits u32"));
    for (idx, bytes) in pages {
        blob::push_u64(out, idx);
        out.extend_from_slice(bytes);
    }
}

fn decode_snapshot(c: &mut Cursor<'_>) -> Option<ArchSnapshot> {
    let flags = tvp_isa::flags::Nzcv::unpack(*c.take(1)?.first()?);
    let pc = c.u64()?;
    let mut snap = ArchSnapshot {
        int: [0; tvp_isa::reg::NUM_INT_REGS as usize],
        fp: [0; tvp_isa::reg::NUM_FP_REGS as usize],
        flags,
        pc,
        mem: SparseMem::default(),
    };
    let n_int = c.u32()? as usize;
    if n_int != snap.int.len() {
        return None;
    }
    for r in &mut snap.int {
        *r = c.u64()?;
    }
    let n_fp = c.u32()? as usize;
    if n_fp != snap.fp.len() {
        return None;
    }
    for r in &mut snap.fp {
        *r = c.u64()?;
    }
    let n_pages = c.u32()? as usize;
    let mut prev_page: Option<u64> = None;
    for _ in 0..n_pages {
        let idx = c.u64()?;
        // Page indices are strictly increasing on the wire (BTreeMap
        // iteration order); enforcing it rejects hand-crafted dupes.
        if prev_page.is_some_and(|p| idx <= p) {
            return None;
        }
        prev_page = Some(idx);
        let bytes = c.take(PAGE_BYTES)?;
        snap.mem.install_page(idx, bytes);
    }
    Some(snap)
}

/// Decodes the body section: stream position, run totals, interval
/// list, architectural snapshot.
fn decode_body(c: &mut Cursor<'_>) -> Option<Checkpoint> {
    let seq = c.u64()?;
    let total_insts = c.u64()?;
    let skipped_insts = c.u64()?;
    let warmup_insts = c.u64()?;
    let measured_insts = c.u64()?;
    let n_intervals = c.u32()? as usize;
    // An encoded interval is at least 48 bytes (index, five u64
    // fields, counter count); bound the list allocation before
    // trusting the wire count.
    if n_intervals > c.remaining() / 48 {
        return None;
    }
    let mut intervals = Vec::with_capacity(n_intervals);
    for _ in 0..n_intervals {
        intervals.push(decode_interval(c)?);
    }
    let snapshot = decode_snapshot(c)?;
    Some(Checkpoint {
        seq,
        snapshot,
        intervals,
        total_insts,
        skipped_insts,
        warmup_insts,
        measured_insts,
    })
}

/// Encodes one (key, checkpoint) pair as a complete self-verifying
/// file, checksum included. Pure: identical inputs yield identical
/// bytes.
#[must_use]
pub fn encode(key: &SampleKey, ckpt: &Checkpoint) -> Vec<u8> {
    // Key section: the blob `ExpKey` fields, then the spec.
    let mut key_bytes = Vec::with_capacity(56 + key.exp.config_fp.len());
    blob::push_exp_key(&mut key_bytes, &key.exp);
    blob::push_u64(&mut key_bytes, key.spec.period);
    blob::push_u64(&mut key_bytes, key.spec.warmup);
    blob::push_u64(&mut key_bytes, key.spec.measured);
    let mut body = Vec::with_capacity(256);
    blob::push_u64(&mut body, ckpt.seq);
    blob::push_u64(&mut body, ckpt.total_insts);
    blob::push_u64(&mut body, ckpt.skipped_insts);
    blob::push_u64(&mut body, ckpt.warmup_insts);
    blob::push_u64(&mut body, ckpt.measured_insts);
    blob::push_u32(&mut body, u32::try_from(ckpt.intervals.len()).expect("intervals fit u32"));
    for iv in &ckpt.intervals {
        encode_interval(iv, &mut body);
    }
    encode_snapshot(&ckpt.snapshot, &mut body);
    blob::frame(&CKPT_MAGIC, CKPT_SCHEMA, &key_bytes, &body)
}

/// Decodes and fully verifies a checkpoint: the frame, then both
/// sections. Returns the echoed key and the state.
pub fn decode(bytes: &[u8]) -> Result<(CkptKey, Checkpoint), BlobError> {
    let (key, body) = blob::unframe(bytes, &CKPT_MAGIC, CKPT_SCHEMA)?;
    let key = parse_exact(key, decode_key).ok_or(BlobError::MalformedKey)?;
    let ckpt = parse_exact(body, decode_body).ok_or(BlobError::MalformedPayload)?;
    Ok((key, ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::blob::{CHECKSUM_LEN, HEADER_LEN};
    use tvp_core::config::{CoreConfig, VpMode};
    use tvp_core::stats::SimStats;
    use tvp_isa::stream::fnv1a;
    use tvp_workloads::suite::by_name;

    fn sample() -> (SampleKey, Checkpoint) {
        let cfg = CoreConfig::with_vp(VpMode::Tvp);
        let spec = SampleSpec::new(4_000, 500, 500).expect("valid spec");
        let key = SampleKey::new("pointer_chase", 20_000, &cfg, spec);
        let w = by_name("pointer_chase").expect("workload");
        let mut m = w.machine();
        m.fast_forward(4_000);
        let mut stats = SimStats { cycles: 777, insts_retired: 500, ..Default::default() };
        stats.rename.spsr = 13;
        let ckpt = Checkpoint {
            seq: m.seq(),
            snapshot: m.arch_snapshot(),
            intervals: vec![IntervalResult {
                index: 0,
                start_seq: 4_100,
                represented_insts: 4_000,
                measured_insts: 500,
                measured_uops: 520,
                stats,
                fingerprint: 0xDEAD_BEEF,
            }],
            total_insts: 4_000,
            skipped_insts: 3_000,
            warmup_insts: 500,
            measured_insts: 500,
        };
        (key, ckpt)
    }

    #[test]
    fn roundtrip_preserves_key_intervals_and_machine_state() {
        let (key, ckpt) = sample();
        let bytes = encode(&key, &ckpt);
        let (got_key, got) = decode(&bytes).expect("clean checkpoint decodes");
        assert!(got_key.matches(&key));
        assert_eq!(got.seq, ckpt.seq);
        assert_eq!(got.intervals, ckpt.intervals);
        assert_eq!(got.total_insts, ckpt.total_insts);
        assert_eq!(got.snapshot.digest(), ckpt.snapshot.digest(), "arch state byte-identical");
    }

    #[test]
    fn restored_machine_continues_the_identical_stream() {
        let (key, ckpt) = sample();
        let bytes = encode(&key, &ckpt);
        let (_, got) = decode(&bytes).expect("decodes");
        let w = by_name("pointer_chase").expect("workload");
        let mut resumed = w.machine_restored(&got.snapshot, got.seq);
        let mut reference = w.machine();
        reference.fast_forward(4_000);
        let a = resumed.run(1_000);
        let b = reference.run(1_000);
        assert_eq!(a.uops, b.uops, "resumed stream diverged from uninterrupted stream");
    }

    #[test]
    fn spec_mismatch_is_a_key_mismatch_not_a_hit() {
        let (key, ckpt) = sample();
        let bytes = encode(&key, &ckpt);
        let (got_key, _) = decode(&bytes).expect("decodes");
        let other = SampleKey {
            exp: key.exp.clone(),
            spec: SampleSpec::new(8_000, 500, 500).expect("valid"),
        };
        assert!(!got_key.matches(&other), "different spec must never resume this checkpoint");
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let (key, ckpt) = sample();
        let bytes = encode(&key, &ckpt);
        // Checkpoints are big (memory pages); step rather than testing
        // every prefix, but always include the boundary cuts.
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(97).collect();
        cuts.extend([0, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1]);
        for cut in cuts {
            let err = decode(&bytes[..cut]).expect_err("truncated checkpoint must not decode");
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
    fn any_flipped_bit_fails_the_checksum() {
        let (key, ckpt) = sample();
        let bytes = encode(&key, &ckpt);
        for pos in [20, bytes.len() / 3, bytes.len() / 2, bytes.len() - CHECKSUM_LEN - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {pos} must be caught");
        }
    }

    #[test]
    fn schema_skew_is_its_own_error() {
        let (key, ckpt) = sample();
        let mut bytes = encode(&key, &ckpt);
        bytes[8..12].copy_from_slice(&(CKPT_SCHEMA + 1).to_le_bytes());
        let len = bytes.len();
        let fixed = fnv1a(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&fixed.to_le_bytes());
        match decode(&bytes) {
            Err(BlobError::SchemaMismatch { found }) => assert_eq!(found, CKPT_SCHEMA + 1),
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (key, ckpt) = sample();
        assert_eq!(encode(&key, &ckpt), encode(&key, &ckpt));
    }

    #[test]
    fn corrupt_interval_count_is_an_error_not_an_abort() {
        // Regression: like `blob::decode`, the interval count used to
        // size a `Vec::with_capacity` straight off the wire — a
        // corrupt u32::MAX meant an abort-sized allocation request
        // instead of `Err`.
        let (key, ckpt) = sample();
        let mut bytes = encode(&key, &ckpt);
        let key_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice")) as usize;
        let count_at = HEADER_LEN + key_len + 5 * 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = bytes.len();
        let fixed = fnv1a(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&fixed.to_le_bytes());
        assert_eq!(decode(&bytes).expect_err("must not decode"), BlobError::MalformedPayload);
    }

    #[test]
    fn corrupt_section_lengths_never_panic() {
        let (key, ckpt) = sample();
        let base = encode(&key, &ckpt);
        let hostile = [0u32, 1, 19, 20, 0x7FFF_FFFF, u32::MAX, u32::MAX - 19];
        for &key_len in &hostile {
            for &body_len in &hostile {
                let mut bytes = base.clone();
                bytes[12..16].copy_from_slice(&key_len.to_le_bytes());
                bytes[16..20].copy_from_slice(&body_len.to_le_bytes());
                let _ = decode(&bytes);
                let len = bytes.len();
                let fixed = fnv1a(&bytes[..len - CHECKSUM_LEN]);
                bytes[len - CHECKSUM_LEN..].copy_from_slice(&fixed.to_le_bytes());
                let _ = decode(&bytes);
            }
        }
    }

    #[test]
    fn checkpoint_bytes_match_the_known_answer() {
        // Pins the on-disk checkpoint bytes across versions. Only a
        // bump of CKPT_SCHEMA may change this value.
        let exp = crate::jobs::ExpKey {
            workload: "pointer_chase",
            insts: 8_000,
            chaos_seed: None,
            config_fp: "CoreConfig { known_answer: 2 }".to_owned(),
        };
        let key = SampleKey { exp, spec: SampleSpec::new(4_000, 500, 500).expect("valid spec") };
        let mut mem = SparseMem::default();
        mem.write(0x1_2008, 8, 0x0123_4567_89AB_CDEF);
        mem.write(0x1_2FFC, 4, 0xFEED_F00D);
        let mut snapshot = ArchSnapshot {
            int: [0; tvp_isa::reg::NUM_INT_REGS as usize],
            fp: [0; tvp_isa::reg::NUM_FP_REGS as usize],
            flags: tvp_isa::flags::Nzcv::unpack(0b1010),
            pc: 0x40_1000,
            mem,
        };
        for (i, r) in snapshot.int.iter_mut().enumerate() {
            *r = 0x1111 * (i as u64 + 1);
        }
        for (i, r) in snapshot.fp.iter_mut().enumerate() {
            *r = 0x2222 * (i as u64 + 1);
        }
        let ckpt = Checkpoint {
            seq: 4_321,
            snapshot,
            intervals: vec![IntervalResult {
                index: 0,
                start_seq: 3_600,
                represented_insts: 4_000,
                measured_insts: 500,
                measured_uops: 523,
                stats: crate::store::blob::tests::kat_stats(),
                fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            }],
            total_insts: 4_000,
            skipped_insts: 3_000,
            warmup_insts: 500,
            measured_insts: 500,
        };
        let bytes = encode(&key, &ckpt);
        assert_eq!(bytes.len(), 5_137);
        assert_eq!(
            fnv1a(&bytes),
            0x34A0_6D8B_BA6C_00D3,
            "checkpoint bytes changed: bump CKPT_SCHEMA"
        );
    }
}
