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
//! top of the original three: `wlease` is a named worker's claim on a
//! point at a fencing epoch, `reclaim` records the reaper retiring a
//! dead worker's hold (the digest returns to pending at the next
//! epoch), and `stale` records a fenced-off late publish (a worker
//! that lost its hold tried to complete it anyway — the publish was
//! detected and deduped, never double-counted).
//!
//! **The journal is the lease.** A claim wins if and only if it is the
//! first `wlease` for its digest at the digest's current epoch
//! (reclaims + 1) in file order; a `reclaim`, `done` or `fail` record
//! ends the hold. [`JournalState::owners`] is therefore the store's
//! only record of who holds a point, and every process that replays
//! the same file agrees on it.
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
//! **Multi-process appends.** Every batch of records is rendered into a
//! single buffer and appended with one `write` syscall on an
//! `O_APPEND` handle, so concurrent workers' batches land whole and in
//! one order on a local filesystem — the order the first-claim rule
//! reads; the per-line checksum catches the pathological cases
//! anyway. Shared handles ([`Journal::open_shared`]) never truncate —
//! torn-tail repair is reserved for exclusive opens, when no other
//! writer can be racing the `set_len` — and see other processes'
//! records through [`Journal::refresh`].

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
    /// dead worker's hold on this point. A claim's fencing epoch is
    /// `reclaims + 1` ([`JournalState::epoch`]).
    pub reclaims: BTreeMap<u64, u32>,
    /// Fenced-off late publishes detected and deduped (`stale`
    /// records).
    pub stale_publishes: u64,
    /// Who holds each point now: the worker and epoch of the first
    /// `wlease` at the point's current epoch, until a `reclaim`,
    /// `done` or `fail` ends the hold.
    pub owners: BTreeMap<u64, Owner>,
    /// The epoch of each point's latest winning claim, held or ended:
    /// any later claim at that epoch loses.
    claimed: BTreeMap<u64, u32>,
    /// Distinct worker ids with at least one winning claim.
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

/// The holder of a point: the worker whose claim won, and the fencing
/// epoch it won at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Owner {
    /// Worker id (validated by [`valid_worker_id`]).
    pub worker: String,
    /// Fencing epoch of the winning claim.
    pub epoch: u32,
}

impl JournalState {
    /// The epoch a claim on `digest` must carry to win: its reclaim
    /// count plus one, so epochs are monotonic per point.
    #[must_use]
    pub fn epoch(&self, digest: u64) -> u32 {
        self.reclaims.get(&digest).copied().unwrap_or(0).saturating_add(1)
    }

    /// Whether `worker`'s claim at `epoch` holds `digest` — the fence.
    #[must_use]
    pub fn holds(&self, digest: u64, worker: &str, epoch: u32) -> bool {
        self.owners.get(&digest).is_some_and(|o| o.worker == worker && o.epoch == epoch)
    }
}

/// Append handle plus the replayed state: the file as of the last
/// open or [`Journal::refresh`], advanced by this handle's appends.
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

/// One journal record, borrowed from its line or from the appender's
/// arguments. The labels trail their lines and carry no replay state.
#[derive(Debug)]
enum Record<'a> {
    /// The cold schedule leased `digest`.
    Lease { digest: u64, label: &'a str },
    /// `worker` claimed `digest` at fencing `epoch`.
    WLease { digest: u64, worker: &'a str, epoch: u32, label: &'a str },
    /// The reaper retired a dead worker's hold on `digest`.
    Reclaim { digest: u64, epoch: u32 },
    /// `worker`'s late publish of `digest` was fenced off.
    Stale { digest: u64, worker: &'a str, epoch: u32 },
    /// A blob for `digest` was published.
    Done { digest: u64 },
    /// `digest` failed terminally after `attempts`.
    Fail { digest: u64, attempts: u32 },
}

/// Worker ids appear as journal tokens and in `fsck` labels, so they
/// are restricted to a filesystem- and parser-safe alphabet.
#[must_use]
pub fn valid_worker_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

impl<'a> Record<'a> {
    /// Appends the record's sealed line, newline included, to `out`.
    fn render(&self, out: &mut String) {
        let body = match *self {
            Record::Lease { digest, label } => format!("lease {digest:016x} {label}"),
            Record::WLease { digest, worker, epoch, label } => {
                format!("wlease {digest:016x} {worker} {epoch} {label}")
            }
            Record::Reclaim { digest, epoch } => format!("reclaim {digest:016x} {epoch}"),
            Record::Stale { digest, worker, epoch } => {
                format!("stale {digest:016x} {worker} {epoch}")
            }
            Record::Done { digest } => format!("done {digest:016x}"),
            Record::Fail { digest, attempts } => format!("fail {digest:016x} attempts {attempts}"),
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
        let valid = |worker: &'a str| valid_worker_id(worker).then_some(worker);
        match kind {
            "lease" => Some(Record::Lease { digest, label: rest.unwrap_or("") }),
            "wlease" => {
                let mut fields = rest?.splitn(3, ' ');
                let worker = valid(fields.next()?)?;
                let epoch = fields.next()?.parse().ok()?;
                Some(Record::WLease { digest, worker, epoch, label: fields.next().unwrap_or("") })
            }
            "reclaim" => Some(Record::Reclaim { digest, epoch: rest?.parse().ok()? }),
            "stale" => {
                let (worker, epoch) = rest?.split_once(' ')?;
                Some(Record::Stale { digest, worker: valid(worker)?, epoch: epoch.parse().ok()? })
            }
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
        // A lease or reclaim (re-)pends a point unless something
        // already settled it.
        let pend = |state: &mut JournalState, digest: u64| {
            if !state.completed.contains(&digest) && !state.failed.contains_key(&digest) {
                state.pending.insert(digest);
            }
        };
        match *self {
            Record::Lease { digest, .. } => pend(state, digest),
            Record::WLease { digest, worker, epoch, .. } => {
                // First claim at the current epoch wins; a later claim
                // at that epoch, or one at any other epoch, loses.
                if epoch == state.epoch(digest) && state.claimed.get(&digest) != Some(&epoch) {
                    state.claimed.insert(digest, epoch);
                    state.owners.insert(digest, Owner { worker: worker.to_owned(), epoch });
                    state.workers.insert(worker.to_owned());
                }
                pend(state, digest);
            }
            Record::Reclaim { digest, .. } => {
                let count = state.reclaims.entry(digest).or_insert(0);
                *count = count.saturating_add(1);
                state.owners.remove(&digest);
                pend(state, digest);
            }
            Record::Stale { .. } => state.stale_publishes += 1,
            Record::Done { digest } => {
                state.owners.remove(&digest);
                state.pending.remove(&digest);
                state.failed.remove(&digest);
                state.completed.insert(digest);
            }
            Record::Fail { digest, attempts } => {
                state.owners.remove(&digest);
                state.pending.remove(&digest);
                state.failed.insert(digest, attempts);
            }
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
    // Blank lines carry nothing: one is left where a shared append
    // started on a fresh line after another writer's record it had
    // read half-written (see `Journal::refresh`).
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
        let file = match OpenOptions::new().append(true).open(&path) {
            Ok(file) => file,
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
        let mut journal =
            Journal { path, file, state: JournalState::default(), needs_leading_newline: false };
        journal.refresh()?;
        Ok(journal)
    }

    /// Re-replays the whole file, so the handle's state includes every
    /// other process's records, and recomputes whether the next append
    /// must start on a fresh line: a file that does not end in a
    /// newline holds some other writer's torn record (the torn bytes
    /// become one counted garbage line, which the exclusive reopen
    /// repairs) or a record still being written (then the fresh line
    /// leaves a blank line, which replay skips).
    pub fn refresh(&mut self) -> std::io::Result<()> {
        let text = std::fs::read_to_string(&self.path)?;
        let state = replay(&text);
        if state.bad_header {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("store journal {} has a missing or corrupt header", self.path.display()),
            ));
        }
        self.needs_leading_newline = !text.is_empty() && !text.ends_with('\n');
        self.state = state;
        Ok(())
    }

    /// Appends `records` with a single `write` syscall (concurrent-
    /// writer atomicity), fsyncs, then applies them to the handle's
    /// state — the transition [`replay`] applies to the file. An empty
    /// batch writes and applies nothing.
    fn append(&mut self, records: &[Record<'_>]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut batch = String::new();
        if self.needs_leading_newline {
            batch.push('\n');
            self.needs_leading_newline = false;
        }
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

    /// The state replayed at open or at the last [`Journal::refresh`],
    /// advanced by every record this handle appended since.
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

    /// Records a batch of `worker`'s claims at a fencing epoch each in
    /// one write, fsyncing once at the end of the batch. Whether a
    /// claim won is read from the state after a [`Journal::refresh`].
    pub fn wlease_all<'k>(
        &mut self,
        worker: &str,
        keys: impl Iterator<Item = (u64, u32, &'k str)>,
    ) -> std::io::Result<()> {
        debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
        let records: Vec<Record<'_>> = keys
            .map(|(digest, epoch, label)| Record::WLease { digest, worker, epoch, label })
            .collect();
        self.append(&records)
    }

    /// Records the reaper retiring a dead worker's hold on `digest` at
    /// `epoch`; the point returns to pending for the next epoch.
    pub fn reclaim(&mut self, digest: u64, epoch: u32) -> std::io::Result<()> {
        self.append(&[Record::Reclaim { digest, epoch }])
    }

    /// Records a fenced-off late publish: `worker` lost its hold on
    /// `digest` (epoch `epoch`) and its publish was detected and
    /// deduped rather than double-counted.
    pub fn stale(&mut self, digest: u64, worker: &str, epoch: u32) -> std::io::Result<()> {
        debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
        self.append(&[Record::Stale { digest, worker, epoch }])
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
    fn claims_win_first_at_the_current_epoch() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n",
            [
                "wlease 0000000000000061 w0 1 a@1#q", // wins: first at epoch 1
                "wlease 0000000000000061 w1 1 a@1#q", // loses: second at epoch 1
                "wlease 0000000000000061 w0 1 a@1#q", // duplicate: loses, w0 still holds
                "wlease 0000000000000062 w1 2 b@1#q", // loses: epoch 1 is current
                "reclaim 0000000000000061 1",         // ends w0's hold; epoch 2
                "wlease 0000000000000061 w1 1 a@1#q", // loses: stale epoch
                "wlease 0000000000000061 w1 2 a@1#q", // wins
                "done 0000000000000061",              // ends the hold
                "wlease 0000000000000061 w0 2 a@1#q", // loses: epoch 2 was claimed
                "wlease 0000000000000063 w1 1 c@1#q", // wins
                "fail 0000000000000063 attempts 2",   // ends the hold
                "wlease 0000000000000065 w0 1 d@1#q", // wins, still held
                "wlease 0000000000000065 w2 1 d@1#q", // loses: w2 never wins
            ]
            .map(seal)
            .join("\n")
        );
        let s = replay(&text);
        let w0 = Owner { worker: "w0".to_owned(), epoch: 1 };
        assert_eq!(s.owners, BTreeMap::from([(0x65, w0)]));
        assert!(s.holds(0x65, "w0", 1) && !s.holds(0x65, "w0", 2) && !s.holds(0x65, "w2", 1));
        assert_eq!(s.epoch(0x61), 2);
        assert_eq!(s.workers, BTreeSet::from(["w0".to_owned(), "w1".to_owned()]));
        assert_eq!(s.completed, BTreeSet::from([0x61]));
        assert_eq!(s.failed, BTreeMap::from([(0x63, 2)]));
        // A losing claim still marks its point scheduled.
        assert_eq!(s.pending, BTreeSet::from([0x62, 0x65]));
        assert_eq!(s.skipped_lines, 0);
    }

    #[test]
    fn journal_in_the_previous_format_replays_to_its_owners() {
        // What a campaign wrote while lease files were the lock: a
        // `wlease` for wins only. w0 finished a, died holding b and c,
        // and was reaped; w1 re-ran b and c, and holds d. The sets are
        // those the previous replay computed from the same text.
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
        assert_eq!(s.owners, BTreeMap::from([(0xD4, Owner { worker: "w1".to_owned(), epoch: 1 })]));
        assert_eq!(s.completed, BTreeSet::from([0xA1, 0xB2, 0xC3]));
        assert_eq!(s.pending, BTreeSet::from([0xD4]));
        assert_eq!(s.reclaims, BTreeMap::from([(0xB2, 1), (0xC3, 1)]));
        assert_eq!(s.workers, BTreeSet::from(["w0".to_owned(), "w1".to_owned()]));
        assert!(s.failed.is_empty());
        assert_eq!(s.stale_publishes, 1);
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
            j.wlease_all("w0", [(0x11, 3, "pointer_chase@8000#0000000000000011")].into_iter())
                .expect("wlease");
            j.reclaim(0x22, 2).expect("reclaim");
            j.stale(0x33, "host-1.w_2", 4).expect("stale");
            j.done(0x44).expect("done");
            j.fail(0x55, 2).expect("fail");
        }
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("tvp-journal 1"));
        let sums: Vec<u64> = lines.map(|l| fnv1a(l.as_bytes())).collect();
        let expected: [u64; 6] = [
            0xC03A_0613_233F_FB31,
            0x6297_587D_7834_E979,
            0x7A36_B16D_FFE8_823E,
            0x9BEC_D3BF_2C93_627A,
            0x648A_5D1E_11F4_CFF3,
            0x8F54_132C_84BD_684B,
        ];
        assert_eq!(sums, expected, "journal lines changed: bump JOURNAL_HEADER");
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Appends and replay share one transition: after every append
        /// of a random sequence (over four digests and two workers,
        /// batches possibly empty), the handle's state — owners
        /// included — equals a replay of its file. Claims come at a
        /// random epoch (mostly losing, duplicate or stale) or at each
        /// point's current epoch (winning unless already claimed).
        #[test]
        fn handle_state_equals_replay_of_its_file(
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0usize..2, 1u32..4), 1..=40)
        ) {
            let dir = std::env::temp_dir().join(format!("tvp_journal_prop_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let mut j = Journal::open(&dir).expect("open fresh");
            let digests = [0xA1_u64, 0xB2, 0xC3, 0xD4];
            // Lease batches take the digests picked by a 4-bit mask.
            let batch = |mask: u64| digests.into_iter().enumerate().filter(move |(i, _)| (mask >> i) & 1 == 1);
            for (i, &(kind, arg, w, n)) in ops.iter().enumerate() {
                let worker = ["w0", "w1"][w];
                let digest = digests[(arg % 4) as usize];
                let current: Vec<(u64, u32)> = batch(arg).map(|(_, d)| (d, j.state().epoch(d))).collect();
                match kind {
                    0 => j.lease_all(batch(arg).map(|(_, d)| (d, "k@1#x"))),
                    1 => j.wlease_all(worker, batch(arg).map(|(_, d)| (d, n, "k@1#x"))),
                    2 => j.reclaim(digest, n),
                    3 => j.stale(digest, worker, n),
                    4 => j.done(digest),
                    5 => j.fail(digest, n),
                    _ => j.wlease_all(worker, current.into_iter().map(|(d, e)| (d, e, "k@1#x"))),
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
