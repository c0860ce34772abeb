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
//! wlease 00d8c8e57e06cbad w0 1 string_match@20000#00d8c8e57e06cbad #77aa…
//! reclaim 00d8c8e57e06cbad 1 #01fe…
//! stale 00d8c8e57e06cbad w0 1 #b00c…
//! done 00d8c8e57e06cbad #9a17…
//! fail 00d8c8e57e06cbad attempts 2 #c2f0…
//! ```
//!
//! The distributed fabric (DESIGN.md §16) adds three record kinds on
//! top of the original three: `wlease` is a lease owned by a named
//! worker process at a fencing epoch, `reclaim` records the reaper
//! retiring a dead worker's lease (the digest returns to pending at
//! the next epoch), and `stale` records a fenced-off late publish
//! (a worker that lost its lease tried to complete it anyway — the
//! publish was detected and deduped, never double-counted).
//!
//! A checksum-failing *last* line is a torn tail (normal after a
//! kill); a checksum-failing line *mid-file* is corruption and is
//! counted so fsck can report it. Replay never panics on any input.
//!
//! **Multi-process appends.** Every record is rendered into a single
//! buffer and appended with one `write` syscall on an `O_APPEND`
//! handle, so concurrent workers appending to the same journal never
//! interleave bytes *within* a record on a local filesystem; the
//! per-line checksum catches the pathological cases anyway. Shared
//! handles ([`Journal::open_shared`]) never truncate — torn-tail
//! repair is reserved for exclusive opens, when no other writer can
//! be racing the `set_len`.

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
    /// Reclaim events per digest: how many times the reaper retired a
    /// dead worker's lease on this point. A fresh lease's fencing
    /// epoch is `reclaims + 1`, so epochs are monotonic per point.
    pub reclaims: BTreeMap<u64, u32>,
    /// Fenced-off late publishes detected and deduped (`stale`
    /// records).
    pub stale_publishes: u64,
    /// Distinct worker ids that ever held a lease in this store.
    pub workers: BTreeSet<String>,
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

/// Append handle plus the state replayed at open.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    state: JournalState,
    /// Shared handles on a file whose last byte is not a newline (a
    /// crash mid-append by some other process) must start their first
    /// record on a fresh line; exclusive handles truncate instead.
    needs_leading_newline: bool,
}

/// Seals `body` with its FNV-1a checksum: `"<body> #<16 hex>"`.
pub(crate) fn seal(body: &str) -> String {
    format!("{body} #{:016x}", fnv1a(body.as_bytes()))
}

/// Splits a sealed line back into its body, verifying the checksum.
pub(crate) fn unseal(line: &str) -> Option<&str> {
    let (body, sum) = line.rsplit_once(" #")?;
    let stored = u64::from_str_radix(sum, 16).ok()?;
    (sum.len() == 16 && stored == fnv1a(body.as_bytes())).then_some(body)
}

/// One parsed journal record.
enum Record {
    Lease(u64),
    WLease(u64, String, u32),
    Reclaim(u64, u32),
    Stale(u64, String, u32),
    Done(u64),
    Fail(u64, u32),
}

/// Worker ids appear as journal tokens and in lease file names, so
/// they are restricted to a filesystem- and parser-safe alphabet.
#[must_use]
pub fn valid_worker_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

fn parse_record(body: &str) -> Option<Record> {
    let mut parts = body.split(' ');
    let kind = parts.next()?;
    let digest = u64::from_str_radix(parts.next()?, 16).ok()?;
    match kind {
        "lease" => Some(Record::Lease(digest)),
        "wlease" => {
            let worker = parts.next()?;
            if !valid_worker_id(worker) {
                return None;
            }
            let epoch = parts.next()?.parse().ok()?;
            // The label trails; it carries no replay state.
            Some(Record::WLease(digest, worker.to_owned(), epoch))
        }
        "reclaim" => {
            let epoch = parts.next()?.parse().ok()?;
            parts.next().is_none().then_some(Record::Reclaim(digest, epoch))
        }
        "stale" => {
            let worker = parts.next()?;
            if !valid_worker_id(worker) {
                return None;
            }
            let epoch = parts.next()?.parse().ok()?;
            parts.next().is_none().then_some(Record::Stale(digest, worker.to_owned(), epoch))
        }
        "done" if parts.next().is_none() => Some(Record::Done(digest)),
        "fail" => {
            if parts.next()? != "attempts" {
                return None;
            }
            let attempts = parts.next()?.parse().ok()?;
            parts.next().is_none().then_some(Record::Fail(digest, attempts))
        }
        _ => None,
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
    let rest: Vec<&str> = lines.collect();
    let n = rest.len();
    for (i, line) in rest.iter().enumerate() {
        let record = unseal(line).and_then(parse_record);
        match record {
            Some(Record::Lease(d)) => {
                if !state.completed.contains(&d) && !state.failed.contains_key(&d) {
                    state.pending.insert(d);
                }
            }
            Some(Record::WLease(d, worker, _epoch)) => {
                state.workers.insert(worker);
                if !state.completed.contains(&d) && !state.failed.contains_key(&d) {
                    state.pending.insert(d);
                }
            }
            Some(Record::Reclaim(d, _epoch)) => {
                let count = state.reclaims.entry(d).or_insert(0);
                *count = count.saturating_add(1);
                // A reclaimed point still has to run; it stays (or
                // returns to) pending unless something completed it.
                if !state.completed.contains(&d) && !state.failed.contains_key(&d) {
                    state.pending.insert(d);
                }
            }
            Some(Record::Stale(_d, worker, _epoch)) => {
                state.workers.insert(worker);
                state.stale_publishes += 1;
            }
            Some(Record::Done(d)) => {
                state.pending.remove(&d);
                state.failed.remove(&d);
                state.completed.insert(d);
            }
            Some(Record::Fail(d, attempts)) => {
                state.pending.remove(&d);
                state.failed.insert(d, attempts);
            }
            None => {
                if i + 1 == n {
                    state.torn_tail = true;
                } else {
                    state.skipped_lines += 1;
                }
            }
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
                unseal(last_line).and_then(parse_record).is_some()
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
        Ok(Journal { path, file, state, needs_leading_newline: false })
    }

    /// Opens an already-initialized journal for a *shared* writer (a
    /// distributed worker): replays the existing records but performs
    /// no repair — never truncates (another writer may be appending
    /// past the bytes we read) and never writes the header (the
    /// coordinator did, exactly once, under an exclusive open). A
    /// missing or headerless journal is an error: the campaign
    /// coordinator must initialize the store before workers attach.
    pub fn open_shared(store_dir: &Path) -> std::io::Result<Journal> {
        let path = store_dir.join(JOURNAL_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!(
                        "store journal {} does not exist — initialize the campaign \
                         (coordinator / manifest step) before attaching workers",
                        path.display()
                    ),
                ));
            }
            Err(e) => return Err(e),
        };
        let state = replay(&text);
        if state.bad_header {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("store journal {} has a missing or corrupt header", path.display()),
            ));
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        // If some other process died mid-append, our first record must
        // start on a fresh line; the torn bytes become one counted
        // garbage line and the exclusive reopen (reaper/merge) repairs.
        let needs_leading_newline = !text.is_empty() && !text.ends_with('\n');
        Ok(Journal { path, file, state, needs_leading_newline })
    }

    /// Appends one pre-rendered batch of lines with a single `write`
    /// syscall (concurrent-writer atomicity) and fsyncs it.
    fn append_batch(&mut self, mut batch: String) -> std::io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.needs_leading_newline {
            batch.insert(0, '\n');
            self.needs_leading_newline = false;
        }
        self.file.write_all(batch.as_bytes())?;
        self.file.sync_all()
    }

    /// The state replayed when the journal was opened.
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
        let mut batch = String::new();
        let mut digests = Vec::new();
        for (digest, label) in keys {
            batch.push_str(&seal(&format!("lease {digest:016x} {label}")));
            batch.push('\n');
            digests.push(digest);
        }
        self.append_batch(batch)?;
        self.state.pending.extend(digests);
        Ok(())
    }

    /// Records a batch of worker-owned leases at a fencing epoch each,
    /// fsyncing once at the end of the batch.
    pub fn wlease_all<'k>(
        &mut self,
        worker: &str,
        keys: impl Iterator<Item = (u64, u32, &'k str)>,
    ) -> std::io::Result<()> {
        debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
        let mut batch = String::new();
        let mut digests = Vec::new();
        for (digest, epoch, label) in keys {
            batch.push_str(&seal(&format!("wlease {digest:016x} {worker} {epoch} {label}")));
            batch.push('\n');
            digests.push(digest);
        }
        self.append_batch(batch)?;
        self.state.workers.insert(worker.to_owned());
        self.state.pending.extend(digests);
        Ok(())
    }

    /// Records the reaper retiring a dead worker's lease on `digest`
    /// at `epoch`; the point returns to pending for the next epoch.
    pub fn reclaim(&mut self, digest: u64, epoch: u32) -> std::io::Result<()> {
        let mut batch = seal(&format!("reclaim {digest:016x} {epoch}"));
        batch.push('\n');
        self.append_batch(batch)?;
        let count = self.state.reclaims.entry(digest).or_insert(0);
        *count = count.saturating_add(1);
        if !self.state.completed.contains(&digest) && !self.state.failed.contains_key(&digest) {
            self.state.pending.insert(digest);
        }
        Ok(())
    }

    /// Records a fenced-off late publish: `worker` lost its lease on
    /// `digest` (epoch `epoch`) and its publish was detected and
    /// deduped rather than double-counted.
    pub fn stale(&mut self, digest: u64, worker: &str, epoch: u32) -> std::io::Result<()> {
        debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
        let mut batch = seal(&format!("stale {digest:016x} {worker} {epoch}"));
        batch.push('\n');
        self.append_batch(batch)?;
        self.state.workers.insert(worker.to_owned());
        self.state.stale_publishes += 1;
        Ok(())
    }

    /// Records a completed publication. Fsynced per record: a `done`
    /// line must never claim a blob that a crash then loses.
    pub fn done(&mut self, digest: u64) -> std::io::Result<()> {
        let mut batch = seal(&format!("done {digest:016x}"));
        batch.push('\n');
        self.append_batch(batch)?;
        self.state.pending.remove(&digest);
        self.state.completed.insert(digest);
        Ok(())
    }

    /// Records a terminal job failure (after retries).
    pub fn fail(&mut self, digest: u64, attempts: u32) -> std::io::Result<()> {
        let mut batch = seal(&format!("fail {digest:016x} attempts {attempts}"));
        batch.push('\n');
        self.append_batch(batch)?;
        self.state.pending.remove(&digest);
        self.state.failed.insert(digest, attempts);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(s.reclaims.get(&0x11), Some(&1));
        assert_eq!(s.stale_publishes, 1);
        assert_eq!(
            s.workers.iter().cloned().collect::<Vec<_>>(),
            ["w0".to_owned(), "w1".to_owned()]
        );
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
    fn worker_ids_are_validated_at_parse_time() {
        assert!(valid_worker_id("w0"));
        assert!(valid_worker_id("host-3.worker_12"));
        assert!(!valid_worker_id(""));
        assert!(!valid_worker_id("has space"));
        assert!(!valid_worker_id("dot/dot"));
        assert!(!valid_worker_id(&"x".repeat(65)));
        // An invalid worker token makes the whole record unparseable.
        let line = seal("wlease 0000000000000001 bad/id 1 a@1#q");
        let text = format!("{JOURNAL_HEADER}\n{line}\n{line}\n");
        let s = replay(&text);
        assert!(s.workers.is_empty());
        assert_eq!(s.skipped_lines, 1);
        assert!(s.torn_tail);
    }

    #[test]
    fn shared_open_requires_initialized_journal_and_never_truncates() {
        let dir = std::env::temp_dir().join(format!("tvp_journal_shared_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // Missing journal: a worker must not invent one.
        let err = Journal::open_shared(&dir).expect_err("missing journal is an error");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        // Torn tail: shared open leaves the bytes alone and starts its
        // first record on a fresh line.
        let good = seal("wlease 0000000000000031 w0 1 a@1#q");
        let torn = format!("{JOURNAL_HEADER}\n{good}\ndone 000000");
        std::fs::write(dir.join(JOURNAL_FILE), &torn).expect("write torn journal");
        {
            let mut j = Journal::open_shared(&dir).expect("shared open");
            assert!(j.state().pending.contains(&0x31));
            j.done(0x31).expect("append");
        }
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read");
        assert!(text.starts_with(&torn), "shared open never truncates");
        let s = replay(&text);
        assert!(s.completed.contains(&0x31), "append landed on a fresh line");
        assert_eq!(s.skipped_lines, 1, "torn bytes became one counted garbage line");
        // Headerless journal: refuse.
        std::fs::write(dir.join(JOURNAL_FILE), "garbage\n").expect("write bad journal");
        let err = Journal::open_shared(&dir).expect_err("bad header is an error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_shared_handles_interleave_whole_records() {
        let dir = std::env::temp_dir().join(format!("tvp_journal_two_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        drop(Journal::open(&dir).expect("init"));
        let mut a = Journal::open_shared(&dir).expect("handle a");
        let mut b = Journal::open_shared(&dir).expect("handle b");
        a.wlease_all("wa", [(0x41, 1, "a@1#a"), (0x42, 1, "b@1#b")].into_iter()).expect("wlease a");
        b.wlease_all("wb", [(0x43, 1, "c@1#c")].into_iter()).expect("wlease b");
        a.done(0x41).expect("done a");
        b.done(0x43).expect("done b");
        let s = replay(&std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read"));
        assert_eq!(s.skipped_lines, 0, "no byte interleaving within records");
        assert!(!s.torn_tail);
        assert!(s.completed.contains(&0x41) && s.completed.contains(&0x43));
        assert!(s.pending.contains(&0x42));
        assert_eq!(s.workers.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
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
}
