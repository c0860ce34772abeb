//! Workspace task runner.
//!
//! `cargo xtask lint` runs the `tvp-analyzer` static-analysis pass —
//! the simulator-specific rules rustc and clippy cannot express. The
//! engine is offline and dependency-free: a hand-rolled Rust lexer
//! ([`lex`]) feeds an item layer ([`items`]) that tracks `#[cfg(test)]`
//! regions, struct fields and impl blocks; the rules in [`lint`] run
//! over that token stream — not a `syn` AST walk, which keeps the
//! workspace free of external build dependencies. The ten rules:
//!
//! - `no-default-hashmap` — no `RandomState`-hashed collections in
//!   simulator state;
//! - `no-panic-in-hot-path` — no `unwrap`/`panic!` in per-cycle
//!   modules (`.expect("invariant")` is the sanctioned form);
//! - `no-float-in-arch-state` — architectural updates stay integer;
//! - `storage-budget-coverage` — every hardware table implements
//!   `tvp_verif::StorageBudget`;
//! - `no-alloc-in-hot-path` — no heap allocation per cycle;
//! - `no-println-in-sim-crates` — simulation crates stay silent;
//! - `determinism-audit` — no wall clocks, env reads, randomized
//!   hashers or pointer-value observation in simulation crates;
//! - `counter-export-coverage` — every public `*Stats` counter is
//!   reachable from the registry exporters;
//! - `saturating-counter` — stats counters use `sat_inc`/`sat_add`,
//!   never raw `+=`/`wrapping_add`;
//! - `stale-waiver` — every `// audited(<rule>): <reason>` waiver
//!   names a real rule and still suppresses a finding.
//!
//! Flags: `--json <FILE|->` writes machine-readable findings,
//! `--github` emits `::error file=…` workflow annotations for CI.
//!
//! `cargo xtask validate-trace <file>` checks that a Chrome
//! `trace_event` JSON document written by `simulate --trace` is
//! well-formed and carries the fields the schema promises — the CI
//! trace-smoke step gates on it. The checks live in [`trace_schema`].
//!
//! Result stores are checked by the `fsck_store` bin in `tvp-bench`
//! (`cargo run --release -p tvp-bench --bin fsck_store -- <dir>`),
//! which sets its own exit code; xtask does not wrap it.
//!
//! Host-time performance has no xtask: the simulator's one benchmark
//! is `simbench/` (see `simbench/README.md`).

mod items;
mod lex;
mod lint;
mod trace_schema;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut json_out: Option<String> = None;
            let mut github = false;
            let rest: Vec<String> = args.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--github" => github = true,
                    "--json" => {
                        // `--json` alone (or followed by another flag)
                        // means stdout.
                        match rest.get(i + 1).map(String::as_str) {
                            Some(next) if !next.starts_with("--") => {
                                json_out = Some(next.to_owned());
                                i += 1;
                            }
                            _ => json_out = Some("-".to_owned()),
                        }
                    }
                    other => {
                        eprintln!("xtask lint: unknown flag `{other}`");
                        eprintln!("usage: cargo xtask lint [--json <FILE|->] [--github]");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            let root = lint::workspace_root();
            let findings = lint::run(&root);
            for f in &findings {
                println!("{f}");
            }
            if github {
                for f in &findings {
                    println!("{}", lint::github_annotation(f));
                }
            }
            if let Some(dest) = json_out {
                let doc = lint::to_json(&findings) + "\n";
                if dest == "-" {
                    print!("{doc}");
                } else if let Err(e) = std::fs::write(&dest, &doc) {
                    eprintln!("xtask lint: cannot write {dest}: {e}");
                    return ExitCode::from(2);
                }
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} violation(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("validate-trace") => {
            let Some(path) = args.next() else {
                eprintln!("usage: cargo xtask validate-trace <trace.json>");
                return ExitCode::from(2);
            };
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xtask validate-trace: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match trace_schema::validate(&src) {
                Ok(summary) => {
                    println!("xtask validate-trace: {path} ok ({summary})");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xtask validate-trace: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: cargo xtask <lint [--json FILE|-] [--github] | validate-trace FILE>");
            ExitCode::from(2)
        }
    }
}
