//! `fsck_store` — validate a durable result store offline.
//!
//! ```text
//! cargo run --release -p tvp-bench --bin fsck_store -- <STORE_DIR> [--json FILE]
//! ```
//!
//! Walks `blobs/` and `checkpoints/`, re-verifying every blob and
//! checkpoint (magic, schema, lengths, checksum, content address),
//! replays the campaign journal, and cross-checks it against the blobs
//! (orphans, missing blobs, pending leases, quarantines). Prints a
//! human summary; `--json FILE` additionally writes the
//! machine-readable report (CI uploads it as the resume-smoke
//! artifact; `-` writes JSON to stdout).
//!
//! Exit codes: `0` the store is healthy, `1` problems were found
//! (corrupt blobs or checkpoints, missing blobs, or mid-journal
//! corruption), `2` usage or I/O error. CI's resume-smoke and
//! sampling-smoke jobs gate on them directly.

use std::path::PathBuf;
use std::process::ExitCode;

use tvp_bench::outln;
use tvp_bench::store::fsck;

fn usage() -> ExitCode {
    eprintln!("usage: fsck_store <STORE_DIR> [--json FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<PathBuf> = None;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_out = Some(path.clone()),
                None => return usage(),
            },
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else {
        return usage();
    };

    let report = match fsck::fsck(&dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fsck-store: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };

    outln!("fsck {}: {}", dir.display(), report.summary());
    for bad in &report.corrupt {
        outln!("  CORRUPT  {}: {}", bad.file, bad.error);
    }
    for file in &report.missing {
        outln!("  MISSING  blobs/{file} (journal claims it was published)");
    }
    for file in &report.orphans {
        outln!("  orphan   blobs/{file} (valid, no journal record — will warm the next run)");
    }
    if report.stale_schema > 0 {
        outln!(
            "  note     {} file(s) of an older schema (intact, never loaded again)",
            report.stale_schema
        );
    }
    if report.journal_torn_tail {
        outln!("  note     journal has a torn tail (normal after a kill; next run repairs)");
    }
    if report.journal_skipped > 0 {
        outln!("  CORRUPT  journal: {} unreadable mid-file line(s)", report.journal_skipped);
    }
    if report.journal_bad_header {
        outln!("  CORRUPT  journal: missing or unrecognised header");
    }

    if let Some(path) = json_out {
        let json = report.to_json();
        if path == "-" {
            outln!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("fsck-store: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.clean() {
        outln!("store is clean");
        ExitCode::SUCCESS
    } else {
        outln!("store has problems (see above)");
        ExitCode::from(1)
    }
}
