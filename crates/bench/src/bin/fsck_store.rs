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

    println!("fsck {}: {}", dir.display(), report.summary());
    for bad in &report.corrupt {
        println!("  CORRUPT  {}: {}", bad.file, bad.error);
    }
    for file in &report.missing {
        println!("  MISSING  blobs/{file} (journal claims it was published)");
    }
    for file in &report.orphans {
        println!("  orphan   blobs/{file} (valid, no journal record — will warm the next run)");
    }
    if report.journal_torn_tail {
        println!("  note     journal has a torn tail (normal after a kill; next run repairs)");
    }
    if report.journal_skipped > 0 {
        println!("  CORRUPT  journal: {} unreadable mid-file line(s)", report.journal_skipped);
    }
    if report.journal_bad_header {
        println!("  CORRUPT  journal: missing or unrecognised header");
    }

    if let Some(path) = json_out {
        let json = report.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("fsck-store: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.clean() {
        println!("store is clean");
        ExitCode::SUCCESS
    } else {
        println!("store has problems (see above)");
        ExitCode::from(1)
    }
}
