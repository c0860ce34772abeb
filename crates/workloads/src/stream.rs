//! Streaming trace sources — the [`TraceSource`] abstraction the
//! sampling driver and the trace analyses consume — plus the record
//! layer of the chunked `DynInst` trace container.
//!
//! [`MachineSource`] is the one source: it runs the functional machine
//! on demand. The container is an in-memory codec: no simulation reads
//! it and no trace file enters the program from outside. It is kept
//! for simbench's `stream.*` metrics, which encode and decode each
//! workload's trace in memory, until ROADMAP item 2(b).
//!
//! `tvp_isa::stream` owns the byte-level primitives (varints, the
//! `Inst` codec, chunk framing and checksums); this module maps one
//! executed [`TraceUop`] — result, flags, memory address, branch
//! outcome — onto those primitives with delta encoding:
//!
//! * `seq` is stored as a varint delta against the previous record
//!   (the chunk header carries `first_seq`, so every in-chunk delta is
//!   ≥ 1 and monotonicity is checked *by construction* on decode);
//! * `pc` and `mem_addr` are zigzag deltas against their previous
//!   values (loops and streaming accesses encode in 1–2 bytes);
//! * branch targets are zigzag deltas against the record's own `pc`.
//!
//! Delta state resets at every chunk boundary, so each chunk decodes
//! independently of the ones before it. [`TraceFileReader`] verifies
//! every chunk's checksum before it decodes a record from it.
//!
//! Everything is streaming: [`TraceFileWriter`] holds one chunk of
//! payload in memory, [`TraceFileReader`] one chunk of input, and
//! [`MachineSource`] hands out architectural instructions in bounded
//! batches — memory stays flat no matter how long a trace is.

use std::io::{self, Read, Write};

use tvp_isa::flags::Nzcv;
use tvp_isa::inst::{intern, Inst};
use tvp_isa::stream::{
    chunk_header_bytes, decode_inst, encode_inst, end_frame, file_header_bytes, parse_chunk_header,
    parse_end_payload, parse_file_header, verify_chunk, write_varint, zigzag, ByteReader,
    ChunkHeader, ChunkKind, StreamError, CHUNK_HEADER_LEN, FILE_HEADER_LEN,
};

use crate::machine::Machine;
use crate::trace::{BranchOutcome, Trace, TraceUop};

/// Records per chunk. Chosen so a chunk's payload stays comfortably
/// under a megabyte while keeping header overhead negligible.
pub const CHUNK_RECORDS: u32 = 4096;

/// Why reading a trace file failed: the transport broke, or the bytes
/// themselves are wrong.
#[derive(Debug)]
pub enum TraceFileError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The bytes are not a valid trace (torn, corrupt, version skew).
    Corrupt(StreamError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceFileError::Corrupt(e) => write!(f, "trace file corrupt: {e}"),
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<StreamError> for TraceFileError {
    fn from(e: StreamError) -> Self {
        TraceFileError::Corrupt(e)
    }
}

// --------------------------------------------------------------------
// record codec
// --------------------------------------------------------------------

const R_FIRST_UOP: u8 = 1 << 0;
const R_RESULT: u8 = 1 << 1;
const R_FLAGS_OUT: u8 = 1 << 2;
const R_MEM_ADDR: u8 = 1 << 3;
const R_BRANCH: u8 = 1 << 4;
const R_BRANCH_TAKEN: u8 = 1 << 5;

/// Per-chunk delta-coding state. Reset at every chunk boundary so
/// chunks decode independently.
#[derive(Copy, Clone, Debug)]
struct DeltaState {
    prev_seq: u64,
    prev_pc: u64,
    prev_mem: u64,
}

impl DeltaState {
    /// State for a chunk whose first record has sequence `first_seq`:
    /// the first in-chunk seq delta is exactly 1.
    fn at(first_seq: u64) -> Self {
        DeltaState { prev_seq: first_seq.wrapping_sub(1), prev_pc: 0, prev_mem: 0 }
    }
}

fn encode_record(st: &mut DeltaState, u: &TraceUop, out: &mut Vec<u8>) {
    debug_assert!(u.seq.wrapping_sub(st.prev_seq) >= 1, "writer fed non-monotonic seqs");
    let mut flags = 0u8;
    if u.first_uop {
        flags |= R_FIRST_UOP;
    }
    if u.result.is_some() {
        flags |= R_RESULT;
    }
    if u.flags_out.is_some() {
        flags |= R_FLAGS_OUT;
    }
    if u.mem_addr.is_some() {
        flags |= R_MEM_ADDR;
    }
    if let Some(b) = u.branch {
        flags |= R_BRANCH;
        if b.taken {
            flags |= R_BRANCH_TAKEN;
        }
    }
    out.push(flags);
    write_varint(out, u.seq.wrapping_sub(st.prev_seq));
    write_varint(out, zigzag(u.pc.wrapping_sub(st.prev_pc) as i64));
    if let Some(r) = u.result {
        write_varint(out, r);
    }
    if let Some(f) = u.flags_out {
        out.push(f.pack());
    }
    if let Some(a) = u.mem_addr {
        write_varint(out, zigzag(a.wrapping_sub(st.prev_mem) as i64));
        st.prev_mem = a;
    }
    if let Some(b) = u.branch {
        write_varint(out, zigzag(b.target.wrapping_sub(u.pc) as i64));
    }
    encode_inst(u.uop, out);
    st.prev_seq = u.seq;
    st.prev_pc = u.pc;
}

/// How many distinct µops a reader keeps at hand; a workload executes
/// 10–23.
const READER_UOPS: usize = 64;

/// The µops one reader has interned, so that a record finds its µop by
/// a short scan by value instead of taking the process-wide pool's lock.
/// Past [`READER_UOPS`] distinct µops the rest go to the pool.
#[derive(Debug, Default)]
struct ReaderUops(Vec<&'static Inst>);

impl ReaderUops {
    fn intern(&mut self, uop: Inst) -> &'static Inst {
        if let Some(&known) = self.0.iter().find(|&&known| *known == uop) {
            return known;
        }
        let interned = intern(uop);
        if self.0.len() < READER_UOPS {
            self.0.push(interned);
        }
        interned
    }
}

fn decode_record(
    st: &mut DeltaState,
    uops: &mut ReaderUops,
    r: &mut ByteReader<'_>,
) -> Result<TraceUop, StreamError> {
    let flags = r.u8()?;
    let delta = r.varint()?;
    if delta == 0 {
        return Err(StreamError::NonMonotonicSeq { seq: st.prev_seq, prev: st.prev_seq });
    }
    let seq = st.prev_seq.wrapping_add(delta);
    let pc = st.prev_pc.wrapping_add(r.svarint()? as u64);
    let result = if flags & R_RESULT != 0 { Some(r.varint()?) } else { None };
    let flags_out = if flags & R_FLAGS_OUT != 0 { Some(Nzcv::unpack(r.u8()?)) } else { None };
    let mem_addr = if flags & R_MEM_ADDR != 0 {
        let a = st.prev_mem.wrapping_add(r.svarint()? as u64);
        st.prev_mem = a;
        Some(a)
    } else {
        None
    };
    let branch = if flags & R_BRANCH != 0 {
        let target = pc.wrapping_add(r.svarint()? as u64);
        Some(BranchOutcome { taken: flags & R_BRANCH_TAKEN != 0, target })
    } else {
        None
    };
    let uop = uops.intern(decode_inst(r)?);
    st.prev_seq = seq;
    st.prev_pc = pc;
    Ok(TraceUop {
        seq,
        pc,
        uop,
        first_uop: flags & R_FIRST_UOP != 0,
        result,
        flags_out,
        mem_addr,
        branch,
    })
}

// --------------------------------------------------------------------
// file writer
// --------------------------------------------------------------------

/// Totals reported when a trace file is sealed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// µop records written.
    pub records: u64,
    /// Architectural instructions written.
    pub arch_insts: u64,
    /// Chunks written (excluding the terminator).
    pub chunks: u64,
}

/// Streams µop records into the chunked trace container. Holds at
/// most one chunk of encoded payload in memory.
#[derive(Debug)]
pub struct TraceFileWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    records_in_chunk: u32,
    first_seq: u64,
    delta: DeltaState,
    totals: StreamTotals,
}

impl<W: Write> TraceFileWriter<W> {
    /// Starts a new trace file (writes the header immediately).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn create(mut w: W) -> io::Result<Self> {
        w.write_all(&file_header_bytes())?;
        Ok(TraceFileWriter {
            w,
            buf: Vec::with_capacity(64 * 1024),
            records_in_chunk: 0,
            first_seq: 0,
            delta: DeltaState::at(0),
            totals: StreamTotals::default(),
        })
    }

    /// Appends one µop record. Sequence numbers must be strictly
    /// increasing across the whole file.
    ///
    /// # Errors
    ///
    /// Propagates write failures when a full chunk is flushed.
    pub fn push(&mut self, u: &TraceUop) -> io::Result<()> {
        if self.records_in_chunk == 0 {
            self.first_seq = u.seq;
            self.delta = DeltaState::at(u.seq);
        }
        encode_record(&mut self.delta, u, &mut self.buf);
        self.records_in_chunk += 1;
        self.totals.records += 1;
        if u.first_uop {
            self.totals.arch_insts += 1;
        }
        if self.records_in_chunk >= CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.records_in_chunk == 0 {
            return Ok(());
        }
        let header = chunk_header_bytes(
            ChunkKind::Records,
            self.records_in_chunk,
            self.first_seq,
            &self.buf,
        );
        self.w.write_all(&header)?;
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        self.records_in_chunk = 0;
        self.totals.chunks += 1;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the terminator frame
    /// and returns the totals.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures.
    pub fn finish(mut self) -> io::Result<StreamTotals> {
        self.flush_chunk()?;
        self.w.write_all(&end_frame(self.totals.records, self.totals.arch_insts))?;
        self.w.flush()?;
        Ok(self.totals)
    }
}

// --------------------------------------------------------------------
// file reader
// --------------------------------------------------------------------

/// Streaming decoder for the chunked trace container. Holds one
/// chunk's payload in memory; every frame is checksum-verified before
/// any record in it is decoded.
#[derive(Debug)]
pub struct TraceFileReader<R: Read> {
    r: R,
    chunk: Vec<u8>,
    pos: usize,
    records_left: u32,
    delta: DeltaState,
    uops: ReaderUops,
    last_seq: u64,
    any_records: bool,
    finished: bool,
    totals: StreamTotals,
}

impl<R: Read> TraceFileReader<R> {
    /// Opens a trace stream (reads and validates the file header).
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption ([`StreamError::BadMagic`],
    /// [`StreamError::SchemaMismatch`], torn header).
    pub fn open(mut r: R) -> Result<Self, TraceFileError> {
        let mut header = [0u8; FILE_HEADER_LEN];
        read_exact_or_torn(&mut r, &mut header, FILE_HEADER_LEN)?;
        parse_file_header(&header)?;
        Ok(TraceFileReader {
            r,
            chunk: Vec::new(),
            pos: 0,
            records_left: 0,
            delta: DeltaState::at(0),
            uops: ReaderUops::default(),
            last_seq: 0,
            any_records: false,
            finished: false,
            totals: StreamTotals::default(),
        })
    }

    /// Decodes the next µop record, or `None` after the terminator
    /// frame has been reached and verified.
    ///
    /// # Errors
    ///
    /// I/O failures or any [`StreamError`] corruption class — torn
    /// chunks, checksum mismatches, non-monotonic sequence numbers,
    /// a missing terminator, terminator totals that disagree with the
    /// records actually present.
    pub fn next_uop(&mut self) -> Result<Option<TraceUop>, TraceFileError> {
        loop {
            if self.finished {
                return Ok(None);
            }
            if self.records_left > 0 {
                let mut br = ByteReader::new(&self.chunk[self.pos..]);
                let u = decode_record(&mut self.delta, &mut self.uops, &mut br)?;
                self.pos += br.pos();
                self.records_left -= 1;
                if self.records_left == 0 && self.pos != self.chunk.len() {
                    return Err(StreamError::MalformedRecord.into());
                }
                if self.any_records && u.seq <= self.last_seq {
                    return Err(
                        StreamError::NonMonotonicSeq { seq: u.seq, prev: self.last_seq }.into()
                    );
                }
                self.any_records = true;
                self.last_seq = u.seq;
                self.totals.records += 1;
                if u.first_uop {
                    self.totals.arch_insts += 1;
                }
                return Ok(Some(u));
            }
            self.load_chunk()?;
        }
    }

    fn load_chunk(&mut self) -> Result<(), TraceFileError> {
        let mut header = [0u8; CHUNK_HEADER_LEN];
        match self.r.read(&mut header[..1])? {
            0 => return Err(StreamError::MissingTerminator.into()),
            _ => read_exact_or_torn(&mut self.r, &mut header[1..], CHUNK_HEADER_LEN)?,
        }
        let hdr: ChunkHeader = parse_chunk_header(&header)?;
        self.chunk.resize(hdr.payload_len as usize, 0);
        read_exact_or_torn(&mut self.r, &mut self.chunk, hdr.payload_len as usize)?;
        verify_chunk(&hdr, &self.chunk)?;
        match hdr.kind {
            ChunkKind::Records => {
                if hdr.records == 0 {
                    return Err(StreamError::MalformedRecord.into());
                }
                if self.any_records && hdr.first_seq <= self.last_seq {
                    return Err(StreamError::NonMonotonicSeq {
                        seq: hdr.first_seq,
                        prev: self.last_seq,
                    }
                    .into());
                }
                self.records_left = hdr.records;
                self.pos = 0;
                self.delta = DeltaState::at(hdr.first_seq);
                self.totals.chunks += 1;
            }
            ChunkKind::End => {
                let (records, arch_insts) = parse_end_payload(&self.chunk)?;
                if records != self.totals.records || arch_insts != self.totals.arch_insts {
                    return Err(StreamError::TrailerMismatch {
                        declared: records,
                        actual: self.totals.records,
                    }
                    .into());
                }
                self.finished = true;
            }
        }
        Ok(())
    }

    /// Totals decoded so far (final once `next_uop` returns `None`).
    #[must_use]
    pub fn totals(&self) -> StreamTotals {
        self.totals
    }
}

fn read_exact_or_torn<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    needed: usize,
) -> Result<(), TraceFileError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceFileError::Corrupt(StreamError::TooShort { needed, have: 0 })
        } else {
            TraceFileError::Io(e)
        }
    })
}

// --------------------------------------------------------------------
// trace sources
// --------------------------------------------------------------------

/// A producer of dynamic µop traces that hands out *whole
/// architectural instructions* in bounded batches. The sampling
/// driver drives one of these: `skip` for functional fast-forward,
/// `fill` to materialize a warmup or measured interval.
pub trait TraceSource {
    /// Appends up to `arch_insts` whole architectural instructions to
    /// `out` (µops and `arch_insts` both updated). Returns how many
    /// were appended — fewer only when the source is exhausted.
    ///
    /// # Errors
    ///
    /// A source that decodes bytes would surface I/O or corruption
    /// errors; [`MachineSource`] never fails.
    fn fill(&mut self, arch_insts: u64, out: &mut Trace) -> Result<u64, TraceFileError>;

    /// Skips up to `arch_insts` architectural instructions without
    /// materializing them. Returns how many were skipped.
    ///
    /// # Errors
    ///
    /// A source that decodes bytes would surface I/O or corruption
    /// errors; [`MachineSource`] never fails.
    fn skip(&mut self, arch_insts: u64) -> Result<u64, TraceFileError>;
}

/// [`TraceSource`] that executes the functional machine on demand:
/// `skip` fast-forwards architecturally, `fill` emits annotated µops
/// into a trace that first reserves room for one record per instruction.
#[derive(Debug)]
pub struct MachineSource {
    m: Machine,
}

impl MachineSource {
    /// Wraps a machine as a streaming trace source.
    #[must_use]
    pub fn new(m: Machine) -> Self {
        MachineSource { m }
    }

    /// The wrapped machine (checkpointing reads its state here).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.m
    }
}

impl TraceSource for MachineSource {
    fn fill(&mut self, arch_insts: u64, out: &mut Trace) -> Result<u64, TraceFileError> {
        Ok(self.m.run_into(arch_insts, out))
    }

    fn skip(&mut self, arch_insts: u64) -> Result<u64, TraceFileError> {
        Ok(self.m.fast_forward(arch_insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::by_name;

    fn sample_trace(insts: u64) -> Trace {
        by_name("pointer_chase").expect("workload exists").trace(insts)
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = TraceFileWriter::create(&mut bytes).expect("header writes");
        for u in &trace.uops {
            w.push(u).expect("record writes");
        }
        w.finish().expect("seals");
        bytes
    }

    #[test]
    fn file_roundtrip_preserves_every_record() {
        let trace = sample_trace(9_000); // > 2 chunks of µops
        let bytes = encode(&trace);
        let mut r = TraceFileReader::open(&bytes[..]).expect("opens");
        let mut got = Vec::new();
        while let Some(u) = r.next_uop().expect("decodes") {
            got.push(u);
        }
        assert_eq!(got.len(), trace.uops.len());
        for (a, b) in trace.uops.iter().zip(&got) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.pc, b.pc);
            assert!(std::ptr::eq(a.uop, b.uop), "a decoded record points at the pool's copy");
            assert_eq!(a.first_uop, b.first_uop);
            assert_eq!(a.result, b.result);
            assert_eq!(a.flags_out, b.flags_out);
            assert_eq!(a.mem_addr, b.mem_addr);
            assert_eq!(
                a.branch.map(|x| (x.taken, x.target)),
                b.branch.map(|x| (x.taken, x.target))
            );
        }
        let totals = r.totals();
        assert_eq!(totals.records, trace.uops.len() as u64);
        assert_eq!(totals.arch_insts, trace.arch_insts);
        assert!(totals.chunks >= 2, "exercises chunk boundaries");
    }

    #[test]
    fn a_reader_hands_out_the_pools_copy_past_its_own_capacity() {
        use tvp_isa::inst::build::add;
        use tvp_isa::reg::Reg;
        let distinct: Vec<Inst> =
            (0..READER_UOPS as i64 + 8).map(|k| add(Reg::Int(1), Reg::Int(2), k)).collect();
        let mut uops = ReaderUops::default();
        for _ in 0..2 {
            for &v in &distinct {
                assert!(std::ptr::eq(uops.intern(v), intern(v)));
            }
        }
        assert_eq!(uops.0.len(), READER_UOPS);
    }

    #[test]
    fn machine_source_matches_materialized_trace() {
        let w = by_name("pointer_chase").expect("workload exists");
        let full = w.trace(500);
        let mut src = MachineSource::new(w.machine());
        let mut a = Trace::default();
        assert_eq!(src.fill(200, &mut a).expect("fills"), 200);
        assert_eq!(src.skip(100).expect("skips"), 100);
        let mut b = Trace::default();
        assert_eq!(src.fill(200, &mut b).expect("fills"), 200);
        assert_eq!(a.uops[..], full.uops[..a.uops.len()]);
        let tail_start = full.uops.len() - b.uops.len();
        assert_eq!(b.uops[..], full.uops[tail_start..]);
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let bytes = encode(&sample_trace(2_000));
        // Truncation anywhere (sampled for speed) is never silent.
        for cut in (FILE_HEADER_LEN..bytes.len()).step_by(97) {
            let r = drain(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must error");
        }
        // A flipped bit in any chunk payload trips the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(drain(&flipped).is_err(), "bit flip at {mid} must error");
    }

    fn drain(bytes: &[u8]) -> Result<StreamTotals, TraceFileError> {
        let mut r = TraceFileReader::open(bytes)?;
        while r.next_uop()?.is_some() {}
        Ok(r.totals())
    }
}
