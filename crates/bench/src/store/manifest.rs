//! Campaign journal: an append-only, torn-tail-tolerant progress log.
//!
//! The blobs are the authoritative store — every load re-verifies the
//! blob itself — so the journal's job is *bookkeeping*: it records
//! which points a campaign leased (scheduled), completed, and failed,
//! which lets a resumed run and `fsck-store` distinguish "killed
//! mid-campaign" (leases with no completion) from "orphan blob"
//! (a blob no journal line accounts for).
//!
//! Format: one record per line, each sealed with its own FNV-1a
//! checksum so a crash mid-append (the classic torn tail) is detected
//! and dropped on replay instead of corrupting the whole log:
//!
//! ```text
//! tvp-journal 1
//! lease 00d8c8e57e06cbad string_match@20000#00d8c8e57e06cbad #5b3c…
//! done 00d8c8e57e06cbad #9a17…
//! fail 00d8c8e57e06cbad attempts 2 #c2f0…
//! ```
//!
//! **Retired kinds.** Stores written by the retired multi-process
//! campaign fabric also hold `wlease` (a worker's claim), `reclaim` (a
//! dead worker's claim retired) and `stale` (a late publish fenced
//! off) records. Nothing writes them any more, and replay still reads
//! them, so such a store replays to the completed, failed and pending
//! sets it always did: `wlease` and `reclaim` pend their point the way
//! `lease` does, and `stale` changes nothing.
//!
//! A checksum-failing *last* line is a torn tail (normal after a
//! kill); a checksum-failing line *mid-file* is corruption and is
//! counted so fsck can report it. Replay never panics on any input.
//!
//! **One state machine.** A `Record` renders, parses and applies
//! itself. [`replay`] applies each parsed line and every [`Journal`]
//! append applies the records it just wrote — the same transition, so
//! a handle's [`Journal::state`] equals a replay of its file by
//! construction.
//!
//! **One writer.** A store has one writing process at a time. Every
//! batch of records is rendered into a single buffer and appended with
//! one `write` on an `O_APPEND` handle, so two handles in one process
//! (the concurrent-publish test) still land whole records.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tvp_isa::stream::fnv1a;

/// Journal file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Header line identifying the journal format version.
pub const JOURNAL_HEADER: &str = "tvp-journal 1";

/// Everything replaying a journal recovers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalState {
    /// Digests with a `done` record (a blob was published).
    pub completed: BTreeSet<u64>,
    /// Digests with a `fail` record, with the attempt count of the
    /// most recent failure.
    pub failed: BTreeMap<u64, u32>,
    /// Digests leased but never completed or failed — the points a
    /// killed campaign died holding.
    pub pending: BTreeSet<u64>,
    /// The final line failed its checksum and was dropped (the
    /// expected signature of a crash mid-append).
    pub torn_tail: bool,
    /// Checksum-failing or unparseable lines *before* the tail —
    /// genuine corruption, surfaced by fsck.
    pub skipped_lines: u64,
    /// The file existed but its header was missing or wrong (treated
    /// as an empty journal; fsck reports it).
    pub bad_header: bool,
}

/// Append handle plus the replayed state: the file as of open,
/// advanced by this handle's appends.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    state: JournalState,
}

/// Seals `body` with its FNV-1a checksum: `"<body> #<16 hex>"`.
pub(crate) fn seal(body: &str) -> String {
    format!("{body} #{:016x}", fnv1a(body.as_bytes()))
}

/// Splits a sealed line back into its body, verifying the checksum.
fn unseal(line: &str) -> Option<&str> {
    let (body, sum) = line.rsplit_once(" #")?;
    let stored = u64::from_str_radix(sum, 16).ok()?;
    (sum.len() == 16 && stored == fnv1a(body.as_bytes())).then_some(body)
}

/// One journal record, borrowed from its line or from the appender's
/// arguments. The labels trail their lines and carry no replay state.
#[derive(Debug)]
enum Record<'a> {
    /// The cold schedule leased `digest` (or a retired `wlease` or
    /// `reclaim` record scheduled it).
    Lease { digest: u64, label: &'a str },
    /// A blob for `digest` was published.
    Done { digest: u64 },
    /// `digest` failed terminally after `attempts`.
    Fail { digest: u64, attempts: u32 },
    /// A retired `stale` record: read, never appended, changes nothing.
    Stale,
}

impl<'a> Record<'a> {
    /// Appends the record's sealed line, newline included, to `out`.
    fn render(&self, out: &mut String) {
        let body = match *self {
            Record::Lease { digest, label } => format!("lease {digest:016x} {label}"),
            Record::Done { digest } => format!("done {digest:016x}"),
            Record::Fail { digest, attempts } => format!("fail {digest:016x} attempts {attempts}"),
            Record::Stale => return,
        };
        out.push_str(&seal(&body));
        out.push('\n');
    }

    /// Parses one sealed line; `None` for a failed checksum or a
    /// malformed record.
    fn parse(line: &'a str) -> Option<Record<'a>> {
        let (kind, rest) = unseal(line)?.split_once(' ')?;
        let (digest, rest) = match rest.split_once(' ') {
            Some((digest, rest)) => (digest, Some(rest)),
            None => (rest, None),
        };
        let digest = u64::from_str_radix(digest, 16).ok()?;
        match kind {
            "lease" => Some(Record::Lease { digest, label: rest.unwrap_or("") }),
            "wlease" | "reclaim" => Some(Record::Lease { digest, label: "" }),
            "stale" => Some(Record::Stale),
            "done" => rest.is_none().then_some(Record::Done { digest }),
            "fail" => {
                let attempts = rest?.strip_prefix("attempts ")?.parse().ok()?;
                Some(Record::Fail { digest, attempts })
            }
            _ => None,
        }
    }

    /// The one state transition, shared by [`replay`] and the
    /// [`Journal`] appenders.
    fn apply(&self, state: &mut JournalState) {
        match *self {
            // A lease (re-)pends a point unless something already
            // settled it.
            Record::Lease { digest, .. } => {
                if !state.completed.contains(&digest) && !state.failed.contains_key(&digest) {
                    state.pending.insert(digest);
                }
            }
            Record::Done { digest } => {
                state.pending.remove(&digest);
                state.failed.remove(&digest);
                state.completed.insert(digest);
            }
            Record::Fail { digest, attempts } => {
                state.pending.remove(&digest);
                state.failed.insert(digest, attempts);
            }
            Record::Stale => {}
        }
    }
}

/// Replays journal text into a [`JournalState`]. Total: tolerates any
/// byte soup without panicking.
#[must_use]
pub fn replay(text: &str) -> JournalState {
    let mut state = JournalState::default();
    let mut lines = text.lines();
    match lines.next() {
        None => return state,
        Some(JOURNAL_HEADER) => {}
        Some(_) => {
            state.bad_header = true;
            return state;
        }
    }
    // Blank lines carry nothing: the retired fabric's writers left one
    // where an append started on a fresh line after another writer's
    // record they had read half-written.
    let mut lines = lines.filter(|line| !line.is_empty()).peekable();
    while let Some(line) = lines.next() {
        match Record::parse(line) {
            Some(record) => record.apply(&mut state),
            None if lines.peek().is_none() => state.torn_tail = true,
            None => state.skipped_lines += 1,
        }
    }
    state
}

impl Journal {
    /// Opens (or creates) the journal under `store_dir`, replaying any
    /// existing records first. A fresh journal gets its header line
    /// immediately. A torn final record (the signature of a crash
    /// mid-append — checksum-failing or missing its newline) is
    /// *truncated away* so new appends start on a clean line boundary;
    /// without that repair the first resumed record would concatenate
    /// onto the torn bytes and become permanent mid-file corruption.
    pub fn open(store_dir: &Path) -> std::io::Result<Journal> {
        let path = store_dir.join(JOURNAL_FILE);
        let (state, text) = match std::fs::read_to_string(&path) {
            Ok(text) => (replay(&text), text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                (JournalState::default(), String::new())
            }
            Err(e) => return Err(e),
        };
        // An existing-but-empty file (crash between create and header
        // write) needs its header just like a missing one.
        let needs_header = text.is_empty();
        let mut keep = text.len();
        let mut needs_newline = false;
        if !needs_header && !state.bad_header {
            let end = text.strip_suffix('\n').map_or(text.len(), str::len);
            let last_start = text[..end].rfind('\n').map_or(0, |i| i + 1);
            let last_line = &text[last_start..end];
            let last_is_good = if last_start == 0 {
                last_line == JOURNAL_HEADER
            } else {
                Record::parse(last_line).is_some()
            };
            if !last_is_good {
                keep = last_start;
            } else if end == text.len() {
                // Complete record, missing only its terminator.
                needs_newline = true;
            }
        }
        if keep < text.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(keep as u64)?;
            f.sync_all()?;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if needs_header {
            file.write_all(format!("{JOURNAL_HEADER}\n").as_bytes())?;
            file.sync_all()?;
        } else if needs_newline {
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        Ok(Journal { path, file, state })
    }

    /// Appends `records` with a single `write` syscall, fsyncs, then
    /// applies them to the handle's state — the transition [`replay`]
    /// applies to the file. An empty batch writes and applies nothing.
    fn append(&mut self, records: &[Record<'_>]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut batch = String::new();
        for record in records {
            record.render(&mut batch);
        }
        self.file.write_all(batch.as_bytes())?;
        self.file.sync_all()?;
        for record in records {
            record.apply(&mut self.state);
        }
        Ok(())
    }

    /// The state replayed at open, advanced by every record this
    /// handle appended since.
    #[must_use]
    pub fn state(&self) -> &JournalState {
        &self.state
    }

    /// Path of the journal file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a batch of leases (the cold schedule), fsyncing once at
    /// the end of the batch.
    pub fn lease_all<'k>(
        &mut self,
        keys: impl Iterator<Item = (u64, &'k str)>,
    ) -> std::io::Result<()> {
        let records: Vec<Record<'_>> =
            keys.map(|(digest, label)| Record::Lease { digest, label }).collect();
        self.append(&records)
    }

    /// Records a completed publication. Fsynced per record: a `done`
    /// line must never claim a blob that a crash then loses.
    pub fn done(&mut self, digest: u64) -> std::io::Result<()> {
        self.append(&[Record::Done { digest }])
    }

    /// Records a terminal job failure (after retries).
    pub fn fail(&mut self, digest: u64, attempts: u32) -> std::io::Result<()> {
        self.append(&[Record::Fail { digest, attempts }])
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn seal_and_unseal_roundtrip() {
        let line = seal("done 00000000000000ff");
        assert_eq!(unseal(&line), Some("done 00000000000000ff"));
        assert_eq!(unseal("done 00000000000000ff #0000000000000000"), None, "bad checksum");
        assert_eq!(unseal("no separator"), None);
    }

    #[test]
    fn replay_tracks_lease_done_fail_lifecycle() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n{}\n{}\n",
            seal("lease 0000000000000001 a@1#x"),
            seal("lease 0000000000000002 b@1#y"),
            seal("done 0000000000000001"),
            seal("fail 0000000000000002 attempts 2"),
        );
        let s = replay(&text);
        assert!(s.completed.contains(&1));
        assert_eq!(s.failed.get(&2), Some(&2));
        assert!(s.pending.is_empty());
        assert!(!s.torn_tail && s.skipped_lines == 0 && !s.bad_header);
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_garbage_is_counted() {
        let good = seal("lease 0000000000000003 c@1#z");
        let torn = &good[..good.len() - 5];
        let text = format!("{JOURNAL_HEADER}\n{good}\nnot a sealed line\n{good}\n{torn}\n");
        let s = replay(&text);
        assert!(s.torn_tail, "checksum-failing last line is a torn tail");
        assert_eq!(s.skipped_lines, 1, "mid-file garbage counted");
        assert!(s.pending.contains(&3));
    }

    #[test]
    fn missing_or_wrong_header_is_flagged() {
        assert_eq!(replay(""), JournalState::default());
        let s = replay("something else\n");
        assert!(s.bad_header);
    }

    #[test]
    fn done_after_fail_wins_and_lease_after_done_stays_complete() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n{}\n{}\n",
            seal("lease 0000000000000007 w@1#d"),
            seal("fail 0000000000000007 attempts 2"),
            seal("done 0000000000000007"),
            seal("lease 0000000000000007 w@1#d"),
        );
        let s = replay(&text);
        assert!(s.completed.contains(&7));
        assert!(s.failed.is_empty());
        assert!(s.pending.is_empty(), "a completed point re-leased is not pending");
    }

    #[test]
    fn torn_tail_is_truncated_at_open_so_appends_stay_clean() {
        let dir = std::env::temp_dir().join(format!("tvp_journal_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let good = seal("lease 0000000000000009 w@1#a");
        // Unterminated garbage tail — the classic kill-mid-append.
        std::fs::write(dir.join(JOURNAL_FILE), format!("{JOURNAL_HEADER}\n{good}\ndone 00000000"))
            .expect("write torn journal");
        {
            let mut j = Journal::open(&dir).expect("open torn");
            assert!(j.state().pending.contains(&9), "good prefix replayed");
            j.done(9).expect("append after torn tail");
        }
        let replayed = replay(&std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read"));
        assert!(replayed.completed.contains(&9), "appended record parses");
        assert_eq!(replayed.skipped_lines, 0, "torn bytes did not poison the next record");
        assert!(!replayed.torn_tail, "torn tail was truncated away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_good_record_gets_its_newline_at_open() {
        let dir = std::env::temp_dir().join(format!("tvp_journal_noeol_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let good = seal("lease 000000000000000a w@1#b");
        std::fs::write(dir.join(JOURNAL_FILE), format!("{JOURNAL_HEADER}\n{good}"))
            .expect("write journal sans newline");
        {
            let mut j = Journal::open(&dir).expect("open");
            assert!(j.state().pending.contains(&0xA));
            j.done(0xA).expect("append");
        }
        let replayed = replay(&std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read"));
        assert!(replayed.completed.contains(&0xA));
        assert!(replayed.pending.is_empty());
        assert_eq!(replayed.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_tracks_distributed_lifecycle() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n{}\n{}\n{}\n{}\n",
            seal("wlease 0000000000000011 w0 1 a@1#q"),
            seal("wlease 0000000000000012 w1 1 b@1#r"),
            seal("reclaim 0000000000000011 1"),
            seal("wlease 0000000000000011 w1 2 a@1#q"),
            seal("stale 0000000000000011 w0 1"),
            seal("done 0000000000000011"),
        );
        let s = replay(&text);
        assert!(s.completed.contains(&0x11));
        assert!(s.pending.contains(&0x12), "w1's unfinished lease stays pending");
        assert_eq!(s.skipped_lines, 0);
    }

    #[test]
    fn reclaim_returns_point_to_pending_unless_completed() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n",
            seal("wlease 0000000000000021 w0 1 a@1#q"),
            seal("reclaim 0000000000000021 1"),
        );
        let s = replay(&text);
        assert!(s.pending.contains(&0x21), "reclaimed point still has to run");
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n{}\n",
            seal("wlease 0000000000000022 w0 1 a@1#q"),
            seal("done 0000000000000022"),
            seal("reclaim 0000000000000022 1"),
        );
        let s = replay(&text);
        assert!(!s.pending.contains(&0x22), "a completed point never re-pends");
        assert!(s.completed.contains(&0x22));
    }

    #[test]
    fn journal_in_the_previous_format_replays_to_its_owners() {
        // What the retired fabric wrote while lease files were the
        // lock: a `wlease` for wins only. w0 finished a, died holding b
        // and c, and was reaped; w1 re-ran b and c, and holds d. The
        // sets are those the fabric's replay computed from the same
        // text.
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n",
            [
                "wlease 00000000000000a1 w0 1 a@20000#00000000000000a1",
                "wlease 00000000000000b2 w0 1 b@20000#00000000000000b2",
                "wlease 00000000000000c3 w0 1 c@20000#00000000000000c3",
                "done 00000000000000a1",
                "reclaim 00000000000000b2 1",
                "reclaim 00000000000000c3 1",
                "wlease 00000000000000b2 w1 2 b@20000#00000000000000b2",
                "wlease 00000000000000c3 w1 2 c@20000#00000000000000c3",
                "wlease 00000000000000d4 w1 1 d@20000#00000000000000d4",
                "stale 00000000000000b2 w0 1",
                "done 00000000000000b2",
                "done 00000000000000c3",
            ]
            .map(seal)
            .join("\n")
        );
        let s = replay(&text);
        assert_eq!(s.completed, BTreeSet::from([0xA1, 0xB2, 0xC3]));
        assert_eq!(s.pending, BTreeSet::from([0xD4]));
        assert!(s.failed.is_empty());
        assert_eq!(s.skipped_lines, 0);
    }

    #[test]
    fn blank_lines_are_skipped_not_counted() {
        let good = seal("wlease 0000000000000071 w0 1 a@1#q");
        let s =
            replay(&format!("{JOURNAL_HEADER}\n{good}\n\n{}\n\n", seal("done 0000000000000071")));
        assert!(s.completed.contains(&0x71));
        assert_eq!((s.skipped_lines, s.torn_tail), (0, false));
    }

    #[test]
    fn journal_open_append_replay_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tvp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        {
            let mut j = Journal::open(&dir).expect("open fresh");
            j.lease_all([(0xAB, "a@1#ab"), (0xCD, "c@1#cd")].into_iter()).expect("lease");
            j.done(0xAB).expect("done");
            j.fail(0xCD, 2).expect("fail");
        }
        let j = Journal::open(&dir).expect("reopen");
        assert!(j.state().completed.contains(&0xAB));
        assert_eq!(j.state().failed.get(&0xCD), Some(&2));
        assert!(j.state().pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_match_the_known_answer() {
        // Pins one rendered line per record kind across versions. Only
        // a bump of JOURNAL_HEADER may change these values.
        let dir = std::env::temp_dir().join(format!("tvp_journal_kat_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        {
            let mut j = Journal::open(&dir).expect("open fresh");
            j.lease_all(
                [(0x0123_4567_89AB_CDEF, "string_match@20000#0123456789abcdef")].into_iter(),
            )
            .expect("lease");
            j.done(0x44).expect("done");
            j.fail(0x55, 2).expect("fail");
        }
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("tvp-journal 1"));
        let sums: Vec<u64> = lines.map(|l| fnv1a(l.as_bytes())).collect();
        let expected: [u64; 3] =
            [0xC03A_0613_233F_FB31, 0x648A_5D1E_11F4_CFF3, 0x8F54_132C_84BD_684B];
        assert_eq!(sums, expected, "journal lines changed: bump JOURNAL_HEADER");
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Appends and replay share one transition: after every append
        /// of a random sequence of leases, completions and failures
        /// over four digests (lease batches possibly empty), the
        /// handle's state equals a replay of its file.
        #[test]
        fn handle_state_equals_replay_of_its_file(
            ops in proptest::collection::vec((0u8..3, 0u64..16, 1u32..4), 1..=40)
        ) {
            let dir = std::env::temp_dir().join(format!("tvp_journal_prop_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let mut j = Journal::open(&dir).expect("open fresh");
            let digests = [0xA1_u64, 0xB2, 0xC3, 0xD4];
            // Lease batches take the digests picked by a 4-bit mask.
            let batch = |mask: u64| digests.into_iter().enumerate().filter(move |(i, _)| (mask >> i) & 1 == 1);
            for (i, &(kind, arg, n)) in ops.iter().enumerate() {
                let digest = digests[(arg % 4) as usize];
                match kind {
                    0 => j.lease_all(batch(arg).map(|(_, d)| (d, "k@1#x"))),
                    1 => j.done(digest),
                    _ => j.fail(digest, n),
                }
                .expect("append");
                let replayed = replay(&std::fs::read_to_string(j.path()).expect("read journal"));
                prop_assert_eq!(
                    j.state(),
                    &replayed,
                    "handle and replay diverge after op {}: {:?}",
                    i,
                    ops[i]
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
