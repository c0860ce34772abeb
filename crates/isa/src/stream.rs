//! Streaming `DynInst` trace wire format — primitives.
//!
//! This module owns the *byte-level* pieces of the streaming trace
//! format: LEB128 varints, zigzag signed encoding, a complete binary
//! codec for [`Inst`] micro-ops, and the chunked container framing
//! (magic, schema version, per-chunk FNV-1a checksums, an explicit
//! end-of-trace terminator). The record layer — how one executed µop
//! with its result/address/branch annotations maps onto these
//! primitives — lives in `tvp-workloads`, next to the trace type it
//! serializes; everything here is a pure function of byte slices so
//! the codec stays inside the determinism-audit boundary.
//!
//! File layout:
//!
//! ```text
//! magic      8 bytes    b"TVPDYNI\x01"
//! schema     u32        TRACE_SCHEMA
//! chunk*                any number of record chunks
//! end-chunk             terminator frame (totals echoed, checksummed)
//! ```
//!
//! Chunk frame (all integers little-endian):
//!
//! ```text
//! marker       u32      CHUNK_MARKER (records) or END_MARKER
//! payload_len  u32      bytes of payload that follow the header
//! records      u32      record count (0 for the terminator)
//! first_seq    u64      sequence number of the chunk's first µop
//! checksum     u64      FNV-1a over the payload bytes
//! payload      payload_len bytes
//! ```
//!
//! A torn tail, a flipped bit, version skew or a foreign file all
//! decode to a specific [`StreamError`] instead of a wrong trace —
//! the same "nothing is trusted on the way back in" discipline as the
//! result-store blob format.

use crate::flags::Cond;
use crate::inst::{AddrMode, Inst, Src2};
use crate::op::{Op, Width};
use crate::reg::{Reg, NUM_FP_REGS, NUM_INT_REGS};

/// Magic prefix of every streaming trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"TVPDYNI\x01";

/// Trace wire-format version. Bump whenever the record or frame
/// encoding changes shape; decoders reject every other version.
pub const TRACE_SCHEMA: u32 = 1;

/// Size of the file header (magic + schema).
pub const FILE_HEADER_LEN: usize = 8 + 4;

/// Marker of a records chunk (`b"CHK1"` little-endian).
pub const CHUNK_MARKER: u32 = u32::from_le_bytes(*b"CHK1");

/// Marker of the end-of-trace terminator frame (`b"END1"`).
pub const END_MARKER: u32 = u32::from_le_bytes(*b"END1");

/// Size of a chunk frame header.
pub const CHUNK_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8;

/// Why a trace stream failed to decode. Every variant is a detectable
/// corruption (or version-skew) class; none of them is a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// Shorter than the structure being parsed — a torn write.
    TooShort {
        /// Bytes needed by the structure.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The magic prefix is wrong — not a streaming trace file.
    BadMagic,
    /// Written by a different wire-format version.
    SchemaMismatch {
        /// Schema version found in the header.
        found: u32,
    },
    /// A chunk frame starts with neither marker — lost framing.
    BadMarker {
        /// The four bytes found where a marker was expected.
        found: u32,
    },
    /// The chunk checksum does not match its payload.
    ChecksumMismatch {
        /// Checksum stored in the frame header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A record or frame payload does not parse.
    MalformedRecord,
    /// Sequence numbers went backwards (or repeated) across records.
    NonMonotonicSeq {
        /// The out-of-order sequence number.
        seq: u64,
        /// The sequence number it should have exceeded.
        prev: u64,
    },
    /// The stream ended without an end-of-trace terminator frame.
    MissingTerminator,
    /// The terminator's totals disagree with the records counted.
    TrailerMismatch {
        /// Total µop records the terminator declares.
        declared: u64,
        /// Records actually decoded.
        actual: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::TooShort { needed, have } => {
                write!(f, "torn stream: needed {needed} bytes, have {have}")
            }
            StreamError::BadMagic => write!(f, "bad magic: not a TVP streaming trace"),
            StreamError::SchemaMismatch { found } => {
                write!(f, "schema mismatch: trace schema {found}, decoder expects {TRACE_SCHEMA}")
            }
            StreamError::BadMarker { found } => {
                write!(f, "bad chunk marker {found:#010x}: framing lost")
            }
            StreamError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "chunk checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            StreamError::MalformedRecord => write!(f, "malformed record payload"),
            StreamError::NonMonotonicSeq { seq, prev } => {
                write!(f, "non-monotonic sequence number {seq} after {prev}")
            }
            StreamError::MissingTerminator => {
                write!(f, "stream ends without an end-of-trace terminator")
            }
            StreamError::TrailerMismatch { declared, actual } => {
                write!(f, "terminator declares {declared} records, stream holds {actual}")
            }
        }
    }
}

/// FNV-1a offset basis: the hash state before any byte is folded in.
pub const FNV1A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte slice — the workspace's byte-wise hash: trace
/// chunk checksums, result-store blobs, key digests, campaign ids and
/// the commit fingerprint all use it.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_OFFSET, bytes)
}

/// Continues an FNV-1a hash from state `h`, so a digest over several
/// fields needs no concatenation buffer:
/// `fnv1a_fold(fnv1a(a), b) == fnv1a(a ++ b)`. Inlined because the
/// core folds every retired µop into its commit fingerprint.
#[inline]
#[must_use]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// --------------------------------------------------------------------
// varint / zigzag
// --------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value so small magnitudes encode small.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked cursor over a byte slice; every read either yields
/// a value or a [`StreamError`], never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a slice for decoding from its start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StreamError::MalformedRecord`] at end of input.
    pub fn u8(&mut self) -> Result<u8, StreamError> {
        let b = *self.bytes.get(self.pos).ok_or(StreamError::MalformedRecord)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`StreamError::MalformedRecord`] on truncation or a varint
    /// longer than 10 bytes.
    pub fn varint(&mut self) -> Result<u64, StreamError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(StreamError::MalformedRecord)
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates [`ByteReader::varint`] failures.
    pub fn svarint(&mut self) -> Result<i64, StreamError> {
        Ok(unzigzag(self.varint()?))
    }
}

// --------------------------------------------------------------------
// register / condition sub-codecs
// --------------------------------------------------------------------

const REG_NZCV: u8 = 0xFF;
const REG_FP_BASE: u8 = 64;

fn encode_reg(r: Reg) -> u8 {
    match r {
        Reg::Int(i) => i,
        Reg::Fp(i) => REG_FP_BASE + i,
        Reg::Nzcv => REG_NZCV,
    }
}

fn decode_reg(b: u8) -> Result<Reg, StreamError> {
    match b {
        REG_NZCV => Ok(Reg::Nzcv),
        i if i < NUM_INT_REGS => Ok(Reg::Int(i)),
        i if (REG_FP_BASE..REG_FP_BASE + NUM_FP_REGS).contains(&i) => Ok(Reg::Fp(i - REG_FP_BASE)),
        _ => Err(StreamError::MalformedRecord),
    }
}

fn encode_cond(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Cs => 2,
        Cond::Cc => 3,
        Cond::Mi => 4,
        Cond::Pl => 5,
        Cond::Vs => 6,
        Cond::Vc => 7,
        Cond::Hi => 8,
        Cond::Ls => 9,
        Cond::Ge => 10,
        Cond::Lt => 11,
        Cond::Gt => 12,
        Cond::Le => 13,
        Cond::Al => 14,
    }
}

fn decode_cond(b: u8) -> Result<Cond, StreamError> {
    Ok(match b {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Cs,
        3 => Cond::Cc,
        4 => Cond::Mi,
        5 => Cond::Pl,
        6 => Cond::Vs,
        7 => Cond::Vc,
        8 => Cond::Hi,
        9 => Cond::Ls,
        10 => Cond::Ge,
        11 => Cond::Lt,
        12 => Cond::Gt,
        13 => Cond::Le,
        14 => Cond::Al,
        _ => return Err(StreamError::MalformedRecord),
    })
}

// --------------------------------------------------------------------
// op codec
// --------------------------------------------------------------------

fn encode_op(op: Op, out: &mut Vec<u8>) {
    use Op::*;
    // One tag byte, plus payload bytes for the parameterized variants.
    match op {
        Add => out.push(0),
        Sub => out.push(1),
        And => out.push(2),
        Orr => out.push(3),
        Eor => out.push(4),
        Bic => out.push(5),
        Lsl => out.push(6),
        Lsr => out.push(7),
        Asr => out.push(8),
        Ror => out.push(9),
        Rbit => out.push(10),
        Clz => out.push(11),
        Ubfx { lsb, width } => {
            out.push(12);
            out.push(lsb);
            out.push(width);
        }
        Sbfx { lsb, width } => {
            out.push(13);
            out.push(lsb);
            out.push(width);
        }
        MovImm => out.push(14),
        Mov => out.push(15),
        Csel(c) => {
            out.push(16);
            out.push(encode_cond(c));
        }
        Csinc(c) => {
            out.push(17);
            out.push(encode_cond(c));
        }
        Csneg(c) => {
            out.push(18);
            out.push(encode_cond(c));
        }
        Csinv(c) => {
            out.push(19);
            out.push(encode_cond(c));
        }
        Mul => out.push(20),
        Madd => out.push(21),
        Msub => out.push(22),
        Udiv => out.push(23),
        Sdiv => out.push(24),
        Fadd => out.push(25),
        Fsub => out.push(26),
        Fmul => out.push(27),
        Fdiv => out.push(28),
        Fmadd => out.push(29),
        Fneg => out.push(30),
        Fabs => out.push(31),
        Fsqrt => out.push(32),
        Fcmp => out.push(33),
        Fmov => out.push(34),
        FmovFromInt => out.push(35),
        FmovToInt => out.push(36),
        FcvtToInt => out.push(37),
        FcvtFromInt => out.push(38),
        Load { size, signed } => {
            out.push(39);
            out.push(size | (u8::from(signed) << 4));
        }
        Store { size } => {
            out.push(40);
            out.push(size);
        }
        B => out.push(41),
        Bl => out.push(42),
        Br => out.push(43),
        Blr => out.push(44),
        Ret => out.push(45),
        BCond(c) => {
            out.push(46);
            out.push(encode_cond(c));
        }
        Cbz => out.push(47),
        Cbnz => out.push(48),
        Tbz(b) => {
            out.push(49);
            out.push(b);
        }
        Tbnz(b) => {
            out.push(50);
            out.push(b);
        }
        Nop => out.push(51),
    }
}

fn decode_mem_size(b: u8) -> Result<u8, StreamError> {
    match b {
        1 | 2 | 4 | 8 => Ok(b),
        _ => Err(StreamError::MalformedRecord),
    }
}

fn decode_op(r: &mut ByteReader<'_>) -> Result<Op, StreamError> {
    use Op::*;
    Ok(match r.u8()? {
        0 => Add,
        1 => Sub,
        2 => And,
        3 => Orr,
        4 => Eor,
        5 => Bic,
        6 => Lsl,
        7 => Lsr,
        8 => Asr,
        9 => Ror,
        10 => Rbit,
        11 => Clz,
        12 => {
            let (lsb, width) = (r.u8()?, r.u8()?);
            Ubfx { lsb, width }
        }
        13 => {
            let (lsb, width) = (r.u8()?, r.u8()?);
            Sbfx { lsb, width }
        }
        14 => MovImm,
        15 => Mov,
        16 => Csel(decode_cond(r.u8()?)?),
        17 => Csinc(decode_cond(r.u8()?)?),
        18 => Csneg(decode_cond(r.u8()?)?),
        19 => Csinv(decode_cond(r.u8()?)?),
        20 => Mul,
        21 => Madd,
        22 => Msub,
        23 => Udiv,
        24 => Sdiv,
        25 => Fadd,
        26 => Fsub,
        27 => Fmul,
        28 => Fdiv,
        29 => Fmadd,
        30 => Fneg,
        31 => Fabs,
        32 => Fsqrt,
        33 => Fcmp,
        34 => Fmov,
        35 => FmovFromInt,
        36 => FmovToInt,
        37 => FcvtToInt,
        38 => FcvtFromInt,
        39 => {
            let b = r.u8()?;
            Load { size: decode_mem_size(b & 0x0F)?, signed: b & 0x10 != 0 }
        }
        40 => Store { size: decode_mem_size(r.u8()?)? },
        41 => B,
        42 => Bl,
        43 => Br,
        44 => Blr,
        45 => Ret,
        46 => BCond(decode_cond(r.u8()?)?),
        47 => Cbz,
        48 => Cbnz,
        49 => Tbz(r.u8()?),
        50 => Tbnz(r.u8()?),
        51 => Nop,
        _ => return Err(StreamError::MalformedRecord),
    })
}

// --------------------------------------------------------------------
// inst codec
// --------------------------------------------------------------------

const F_W64: u16 = 1 << 0;
const F_SETS_FLAGS: u16 = 1 << 1;
const F_DST: u16 = 1 << 2;
const F_SRC1: u16 = 1 << 3;
const F_SRC2_REG: u16 = 1 << 4;
const F_SRC2_IMM: u16 = 1 << 5;
const F_SRC3: u16 = 1 << 6;
const F_ADDR: u16 = 1 << 7;
const F_TARGET: u16 = 1 << 8;

/// Appends the binary encoding of one micro-op.
pub fn encode_inst(inst: &Inst, out: &mut Vec<u8>) {
    let mut flags: u16 = 0;
    if inst.width == Width::W64 {
        flags |= F_W64;
    }
    if inst.sets_flags {
        flags |= F_SETS_FLAGS;
    }
    if inst.dst.is_some() {
        flags |= F_DST;
    }
    if inst.src1.is_some() {
        flags |= F_SRC1;
    }
    match inst.src2 {
        Src2::None => {}
        Src2::Reg(_) => flags |= F_SRC2_REG,
        Src2::Imm(_) => flags |= F_SRC2_IMM,
    }
    if inst.src3.is_some() {
        flags |= F_SRC3;
    }
    if inst.addr.is_some() {
        flags |= F_ADDR;
    }
    if inst.target.is_some() {
        flags |= F_TARGET;
    }
    out.extend_from_slice(&flags.to_le_bytes());
    encode_op(inst.op, out);
    if let Some(d) = inst.dst {
        out.push(encode_reg(d));
    }
    if let Some(s) = inst.src1 {
        out.push(encode_reg(s));
    }
    match inst.src2 {
        Src2::None => {}
        Src2::Reg(r) => out.push(encode_reg(r)),
        Src2::Imm(i) => write_varint(out, zigzag(i)),
    }
    if let Some(s) = inst.src3 {
        out.push(encode_reg(s));
    }
    if let Some(a) = inst.addr {
        match a {
            AddrMode::BaseDisp { base, disp } => {
                out.push(0);
                out.push(encode_reg(base));
                write_varint(out, zigzag(disp));
            }
            AddrMode::BaseIndex { base, index, shift } => {
                out.push(1);
                out.push(encode_reg(base));
                out.push(encode_reg(index));
                out.push(shift);
            }
            AddrMode::PreIndex { base, disp } => {
                out.push(2);
                out.push(encode_reg(base));
                write_varint(out, zigzag(disp));
            }
            AddrMode::PostIndex { base, disp } => {
                out.push(3);
                out.push(encode_reg(base));
                write_varint(out, zigzag(disp));
            }
        }
    }
    if let Some(t) = inst.target {
        write_varint(out, t);
    }
}

/// Decodes one micro-op (inverse of [`encode_inst`]).
///
/// # Errors
///
/// [`StreamError::MalformedRecord`] on truncation or any field that
/// does not decode to a valid register / condition / operation.
pub fn decode_inst(r: &mut ByteReader<'_>) -> Result<Inst, StreamError> {
    let lo = r.u8()?;
    let hi = r.u8()?;
    let flags = u16::from_le_bytes([lo, hi]);
    let op = decode_op(r)?;
    let mut inst = Inst::new(op);
    inst.width = if flags & F_W64 != 0 { Width::W64 } else { Width::W32 };
    inst.sets_flags = flags & F_SETS_FLAGS != 0;
    if flags & F_DST != 0 {
        inst.dst = Some(decode_reg(r.u8()?)?);
    }
    if flags & F_SRC1 != 0 {
        inst.src1 = Some(decode_reg(r.u8()?)?);
    }
    if flags & F_SRC2_REG != 0 && flags & F_SRC2_IMM != 0 {
        return Err(StreamError::MalformedRecord);
    }
    if flags & F_SRC2_REG != 0 {
        inst.src2 = Src2::Reg(decode_reg(r.u8()?)?);
    } else if flags & F_SRC2_IMM != 0 {
        inst.src2 = Src2::Imm(r.svarint()?);
    }
    if flags & F_SRC3 != 0 {
        inst.src3 = Some(decode_reg(r.u8()?)?);
    }
    if flags & F_ADDR != 0 {
        inst.addr = Some(match r.u8()? {
            0 => AddrMode::BaseDisp { base: decode_reg(r.u8()?)?, disp: r.svarint()? },
            1 => {
                let base = decode_reg(r.u8()?)?;
                let index = decode_reg(r.u8()?)?;
                AddrMode::BaseIndex { base, index, shift: r.u8()? }
            }
            2 => AddrMode::PreIndex { base: decode_reg(r.u8()?)?, disp: r.svarint()? },
            3 => AddrMode::PostIndex { base: decode_reg(r.u8()?)?, disp: r.svarint()? },
            _ => return Err(StreamError::MalformedRecord),
        });
    }
    if flags & F_TARGET != 0 {
        inst.target = Some(r.varint()?);
    }
    Ok(inst)
}

// --------------------------------------------------------------------
// container framing
// --------------------------------------------------------------------

/// Kind of a chunk frame.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChunkKind {
    /// Carries `records` encoded µops.
    Records,
    /// End-of-trace terminator (totals in the payload).
    End,
}

/// A parsed chunk frame header. The payload follows the header
/// verbatim; [`verify_chunk`] checks it against `checksum`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Records chunk or terminator.
    pub kind: ChunkKind,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Number of records in the payload (0 for the terminator).
    pub records: u32,
    /// Sequence number of the first record (terminator: total µops).
    pub first_seq: u64,
    /// FNV-1a over the payload bytes.
    pub checksum: u64,
}

/// The file header bytes (magic + schema).
#[must_use]
pub fn file_header_bytes() -> [u8; FILE_HEADER_LEN] {
    let mut out = [0u8; FILE_HEADER_LEN];
    out[..8].copy_from_slice(&TRACE_MAGIC);
    out[8..].copy_from_slice(&TRACE_SCHEMA.to_le_bytes());
    out
}

/// Parses and validates the file header.
///
/// # Errors
///
/// [`StreamError::TooShort`], [`StreamError::BadMagic`] or
/// [`StreamError::SchemaMismatch`].
pub fn parse_file_header(bytes: &[u8]) -> Result<(), StreamError> {
    if bytes.len() < FILE_HEADER_LEN {
        return Err(StreamError::TooShort { needed: FILE_HEADER_LEN, have: bytes.len() });
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(StreamError::BadMagic);
    }
    let schema = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if schema != TRACE_SCHEMA {
        return Err(StreamError::SchemaMismatch { found: schema });
    }
    Ok(())
}

/// Encodes a chunk frame header.
#[must_use]
pub fn chunk_header_bytes(
    kind: ChunkKind,
    records: u32,
    first_seq: u64,
    payload: &[u8],
) -> [u8; CHUNK_HEADER_LEN] {
    let marker = match kind {
        ChunkKind::Records => CHUNK_MARKER,
        ChunkKind::End => END_MARKER,
    };
    let mut out = [0u8; CHUNK_HEADER_LEN];
    out[0..4].copy_from_slice(&marker.to_le_bytes());
    out[4..8].copy_from_slice(&u32::try_from(payload.len()).expect("chunk fits u32").to_le_bytes());
    out[8..12].copy_from_slice(&records.to_le_bytes());
    out[12..20].copy_from_slice(&first_seq.to_le_bytes());
    out[20..28].copy_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Parses a chunk frame header.
///
/// # Errors
///
/// [`StreamError::TooShort`] or [`StreamError::BadMarker`].
pub fn parse_chunk_header(bytes: &[u8]) -> Result<ChunkHeader, StreamError> {
    if bytes.len() < CHUNK_HEADER_LEN {
        return Err(StreamError::TooShort { needed: CHUNK_HEADER_LEN, have: bytes.len() });
    }
    let marker = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte slice"));
    let kind = match marker {
        CHUNK_MARKER => ChunkKind::Records,
        END_MARKER => ChunkKind::End,
        found => return Err(StreamError::BadMarker { found }),
    };
    Ok(ChunkHeader {
        kind,
        payload_len: u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice")),
        records: u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice")),
        first_seq: u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice")),
        checksum: u64::from_le_bytes(bytes[20..28].try_into().expect("8-byte slice")),
    })
}

/// Verifies a chunk payload against its header checksum.
///
/// # Errors
///
/// [`StreamError::TooShort`] when the payload is shorter than the
/// header declares, [`StreamError::ChecksumMismatch`] on corruption.
pub fn verify_chunk(header: &ChunkHeader, payload: &[u8]) -> Result<(), StreamError> {
    if payload.len() < header.payload_len as usize {
        return Err(StreamError::TooShort {
            needed: header.payload_len as usize,
            have: payload.len(),
        });
    }
    let computed = fnv1a(&payload[..header.payload_len as usize]);
    if computed != header.checksum {
        return Err(StreamError::ChecksumMismatch { stored: header.checksum, computed });
    }
    Ok(())
}

/// Builds the terminator frame: an `End` chunk whose payload carries
/// the total µop-record and architectural-instruction counts.
#[must_use]
pub fn end_frame(total_records: u64, total_arch_insts: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(20);
    write_varint(&mut payload, total_records);
    write_varint(&mut payload, total_arch_insts);
    let mut out = Vec::with_capacity(CHUNK_HEADER_LEN + payload.len());
    out.extend_from_slice(&chunk_header_bytes(ChunkKind::End, 0, total_records, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes the terminator payload back into
/// `(total_records, total_arch_insts)`.
///
/// # Errors
///
/// [`StreamError::MalformedRecord`] when the payload does not hold
/// exactly two varints.
pub fn parse_end_payload(payload: &[u8]) -> Result<(u64, u64), StreamError> {
    let mut r = ByteReader::new(payload);
    let records = r.varint()?;
    let arch_insts = r.varint()?;
    if !r.exhausted() {
        return Err(StreamError::MalformedRecord);
    }
    Ok((records, arch_insts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::build;
    use crate::reg::x;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_fold(fnv1a(b"a"), b"bc"), fnv1a(b"abc"));
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut r = ByteReader::new(&out);
            assert_eq!(r.varint().expect("decodes"), v);
            assert!(r.exhausted());
        }
    }

    #[test]
    fn zigzag_roundtrip_and_small_magnitudes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < 8, "small negatives encode small");
    }

    #[test]
    fn inst_roundtrip_representative_shapes() {
        let insts = [
            build::add(x(0), x(1), 5i64),
            build::movz(x(2), -3),
            build::subs(x(4), x(5), x(6)),
            build::ldr(x(7), AddrMode::BaseDisp { base: x(8), disp: -16 }),
            build::str(x(9), AddrMode::BaseIndex { base: x(10), index: x(11), shift: 3 }),
            build::madd(x(0), x(1), x(2), x(3)),
            build::csel(x(1), x(2), x(3), Cond::Lt),
            build::fadd(crate::reg::v(0), crate::reg::v(1), crate::reg::v(2)),
            build::nop(),
        ];
        for inst in insts {
            let mut bytes = Vec::new();
            encode_inst(&inst, &mut bytes);
            let mut r = ByteReader::new(&bytes);
            let got = decode_inst(&mut r).expect("decodes");
            assert!(r.exhausted(), "no trailing bytes for {inst}");
            assert_eq!(got, inst);
        }
    }

    #[test]
    fn chunk_header_roundtrip_and_corruption() {
        let payload = b"hello chunk payload";
        let bytes = chunk_header_bytes(ChunkKind::Records, 3, 42, payload);
        let hdr = parse_chunk_header(&bytes).expect("parses");
        assert_eq!(hdr.kind, ChunkKind::Records);
        assert_eq!(hdr.records, 3);
        assert_eq!(hdr.first_seq, 42);
        verify_chunk(&hdr, payload).expect("checksum holds");
        let mut bad = payload.to_vec();
        bad[4] ^= 0x10;
        assert!(matches!(verify_chunk(&hdr, &bad), Err(StreamError::ChecksumMismatch { .. })));
    }

    #[test]
    fn file_header_and_schema_skew() {
        let hdr = file_header_bytes();
        parse_file_header(&hdr).expect("valid header");
        let mut skew = hdr;
        skew[8] ^= 0x01;
        assert!(matches!(parse_file_header(&skew), Err(StreamError::SchemaMismatch { .. })));
        assert_eq!(parse_file_header(b"nope"), Err(StreamError::TooShort { needed: 12, have: 4 }));
        let mut foreign = hdr;
        foreign[0] = b'X';
        assert_eq!(parse_file_header(&foreign), Err(StreamError::BadMagic));
    }

    #[test]
    fn end_frame_roundtrip() {
        let frame = end_frame(1_000_000, 700_000);
        let hdr = parse_chunk_header(&frame).expect("parses");
        assert_eq!(hdr.kind, ChunkKind::End);
        let payload = &frame[CHUNK_HEADER_LEN..];
        verify_chunk(&hdr, payload).expect("checksum holds");
        assert_eq!(parse_end_payload(payload).expect("parses"), (1_000_000, 700_000));
    }
}
