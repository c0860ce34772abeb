//! The `tvp-analyzer` static-analysis engine behind `cargo xtask lint`.
//!
//! A token-level analysis pass (see [`crate::lex`] and [`crate::items`])
//! over the workspace, replacing the original regex line scanner: rules
//! operate on a spanned token stream with `#[cfg(test)]` region
//! tracking, so string literals, doc comments and test code can never
//! produce false positives, and cross-file facts (trait coverage,
//! export reachability) are first class.
//!
//! Ten rules, each a property a cycle-level simulator must keep but no
//! off-the-shelf linter checks:
//!
//! 1. **no-default-hashmap** — simulator-state code must not use
//!    `HashMap`/`HashSet` with the default `RandomState`: iteration
//!    order would leak into simulated behaviour and break run-to-run
//!    determinism. Use `BTreeMap`/`BTreeSet` (or an explicit seeded
//!    hasher).
//! 2. **no-panic-in-hot-path** — per-cycle pipeline modules must not
//!    reach `panic!`/`unreachable!`/`.unwrap()`; the simulator should
//!    stall or saturate instead. `.expect("non-empty invariant text")`
//!    is the sanctioned form for genuinely unreachable states — the
//!    message *is* the audit; an empty message is a violation.
//! 3. **no-float-in-arch-state** — modules that update architectural
//!    state (register files, rename maps, memory, predictor tables)
//!    must stay in integer arithmetic; floats belong in reporting code
//!    and the FP datapath only. Float *literal suffixes* (`2.5_f64`)
//!    count too.
//! 4. **storage-budget-coverage** — every public struct modelling a
//!    hardware table in `crates/predictors` and `crates/mem` must
//!    implement `tvp_verif::StorageBudget`, so the Table 2 budget
//!    assertion sees the whole machine. Public means plain `pub`: a
//!    `pub(crate)` or `pub(super)` helper is not part of the machine's
//!    interface.
//! 5. **no-alloc-in-hot-path** — per-cycle pipeline modules must not
//!    heap-allocate (`Vec::new`/`vec!`/`.collect()`/`Box::new`/
//!    `format!`/…) on the simulation path; per-µop structures have
//!    architecturally bounded cardinality and belong in inline arrays
//!    (`tvp_core::inline_vec`) or reusable scratch buffers owned by
//!    the component. One-time construction, reset and diagnostic paths
//!    are fine — waive them.
//! 6. **no-println-in-sim-crates** — the simulation crates (`core`,
//!    `mem`, `predictors`, `obs`) must not write to stdout/stderr with
//!    `println!`/`eprintln!`/`print!`/`eprint!`: ad-hoc prints desync
//!    parallel bench output and bypass the structured observability
//!    layer. Reporting belongs in the bench/harness crates.
//! 7. **determinism-audit** — the simulation crates (`core`, `mem`,
//!    `predictors`, `isa`, `obs`) and the functional machine's crate
//!    (`workloads`, which produces every trace and the commit oracle's
//!    golden model) must not observe anything outside the
//!    simulated machine: no wall-clock time (`Instant`/`SystemTime`),
//!    no environment reads (`std::env::var` & friends), no randomized
//!    hashing (`RandomState`/`DefaultHasher`), no pointer-value
//!    observation (`.as_ptr() as usize`, `.addr()`, `expose_addr`).
//!    Any of these makes serial≡parallel and golden-fingerprint
//!    equivalence silently false. Feature-gated code is not exempt:
//!    only test regions are. The durable result store under
//!    `crates/bench/src/store/` opts in file-by-file
//!    ([`DETERMINISM_FILES`]) even though the rest of `tvp-bench` is
//!    exempt: its blob and checkpoint bytes feed the cold ≡ warm ≡
//!    kill-resume byte-identity guarantee.
//! 8. **counter-export-coverage** — every public counter field on a
//!    `*Stats` struct in the simulation crates must be reachable from
//!    the registry exporters (`Core::export_registry` /
//!    `Hierarchy::fill_registry`), directly or through helper methods;
//!    an unexported counter silently vanishes from every report (the
//!    static form of the `spsr_squashed` clobber bug).
//! 9. **saturating-counter** — statistics counters never wrap: raw
//!    `+=`/`-=` or `wrapping_add`/`wrapping_sub` on a `*Stats` field is
//!    a violation; use `sat_inc`/`sat_add` from `tvp_obs::counters`.
//! 10. **stale-waiver** — every waiver comment must name the rule it
//!     suppresses (`// audited(<rule>): <reason>`) and must actually
//!     suppress a finding on its own line or the next; a ruleless,
//!     unknown-rule or no-op waiver is itself an error, so waivers can
//!     never silently outlive the code they excused. Stale-waiver
//!     findings cannot themselves be waived.
//!
//! ## Waiver contract
//!
//! A finding on line *N* is suppressed exactly when line *N* or line
//! *N − 1* carries a line comment `// audited(<rule>): <reason>` naming
//! that finding's rule. Doc comments are never waivers. Rule 10 audits
//! every waiver in the tree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use tvp_obs::json;
use tvp_obs::json::Layout::{Inline, Lines};

use crate::items::{self, FileItems};
use crate::lex::{lex, Tok, TokKind};

/// Every rule name the engine knows; a waiver must name one of these.
pub const RULES: &[&str] = &[
    "no-default-hashmap",
    "no-panic-in-hot-path",
    "no-float-in-arch-state",
    "storage-budget-coverage",
    "no-alloc-in-hot-path",
    "no-println-in-sim-crates",
    "determinism-audit",
    "counter-export-coverage",
    "saturating-counter",
    "stale-waiver",
];

/// Crates whose source the analyzer walks. The proptest shim is
/// vendored third-party-shaped code; xtask itself is host tooling.
const SCANNED_CRATES: &[&str] =
    &["bench", "chaos", "core", "harness", "isa", "mem", "obs", "predictors", "verif", "workloads"];

/// Crates that must stay print-free (rule 6): everything on the
/// simulation side of the bench/harness boundary.
const SILENT_CRATES: &[&str] = &["core", "mem", "obs", "predictors"];

/// Crates bound by the determinism audit (rule 7): everything that can
/// influence or observe simulated state, the functional machine that
/// produces every trace included.
const DETERMINISM_CRATES: &[&str] = &["core", "isa", "mem", "obs", "predictors", "workloads"];

/// Individual files bound by the determinism audit in crates that are
/// otherwise exempt. `tvp-bench` legitimately reads wall clocks and
/// the environment (telemetry, CLI resolution), but its durable result
/// store must stay a pure function of its inputs — blob and checkpoint
/// bytes feed the byte-identity guarantee — so the store module opts in
/// file-by-file instead of waiving rule-by-rule.
const DETERMINISM_FILES: &[&str] = &[
    "crates/bench/src/distributed.rs",
    "crates/bench/src/store/blob.rs",
    "crates/bench/src/store/checkpoint.rs",
    "crates/bench/src/store/fsck.rs",
    "crates/bench/src/store/mod.rs",
    "crates/bench/src/sampling.rs",
];

/// Crates whose `*Stats` structs must be export-reachable (rule 8).
const EXPORT_CRATES: &[&str] = &["core", "mem", "obs", "predictors"];

/// Crates bound by the saturating-counter rule (rule 9).
const SATURATING_CRATES: &[&str] = &["chaos", "core", "mem", "obs", "predictors"];

/// Per-cycle hot-path modules (rules 2 and 5).
const HOT_PATH_FILES: &[&str] = &[
    "crates/chaos/src/engine.rs",
    "crates/chaos/src/oracle.rs",
    "crates/chaos/src/rng.rs",
    "crates/chaos/src/watchdog.rs",
    "crates/core/src/inline_vec.rs",
    "crates/core/src/physreg.rs",
    "crates/core/src/pipeline/lsq.rs",
    "crates/core/src/pipeline/mod.rs",
    "crates/core/src/pipeline/predict.rs",
    "crates/core/src/pipeline/queue.rs",
    "crates/core/src/pipeline/recovery.rs",
    "crates/core/src/rename.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/storesets.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/hierarchy.rs",
    "crates/mem/src/prefetch.rs",
    "crates/mem/src/tlb.rs",
    "crates/obs/src/counters.rs",
    "crates/obs/src/cpi.rs",
    "crates/obs/src/event.rs",
    "crates/predictors/src/btb.rs",
    "crates/predictors/src/fpc.rs",
    "crates/predictors/src/history.rs",
    "crates/predictors/src/indirect.rs",
    "crates/predictors/src/ras.rs",
    "crates/predictors/src/tage.rs",
    "crates/predictors/src/tagged.rs",
    "crates/predictors/src/util.rs",
    "crates/predictors/src/vtage.rs",
    // The functional machine's step: the sampled stream's inner loop.
    "crates/workloads/src/machine.rs",
];

/// Architectural-state modules (rule 3). The FP datapath
/// (`crates/isa/src/exec.rs`) is deliberately absent: it *computes* FP
/// instruction results; it does not keep state in floats.
const ARCH_STATE_FILES: &[&str] = &[
    "crates/chaos/src/oracle.rs",
    "crates/core/src/physreg.rs",
    "crates/core/src/pipeline/lsq.rs",
    "crates/core/src/rename.rs",
    "crates/core/src/spsr.rs",
    "crates/core/src/storesets.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/prefetch.rs",
    "crates/mem/src/tlb.rs",
    "crates/workloads/src/machine.rs",
];

/// Crates whose public structs must implement `StorageBudget` (rule 4).
const BUDGET_CRATES: &[&str] = &["predictors", "mem"];

/// Struct-name suffixes exempt from rule 4: configuration,
/// statistics and plain-data result types model no hardware storage.
const BUDGET_EXEMPT_SUFFIXES: &[&str] = &["Config", "Stats", "Token", "Pred", "Hit", "Spec"];

/// Named rule-4 exemptions: helper types that are not hardware tables.
const BUDGET_EXEMPT_NAMES: &[&str] = &["XorShift64", "HistoryMark"];

/// The registry exporter functions whose bodies root the rule-8
/// reachability closure.
const EXPORT_ROOTS: &[&str] = &["export_registry", "fill_registry"];

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// One source file handed to [`analyze`]: workspace-relative path
/// (which selects the rules that apply) and contents.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated
    /// (`crates/core/src/pipeline/mod.rs`).
    pub rel: String,
    /// File contents.
    pub src: String,
}

/// A lexed and item-parsed file plus the cursor helpers rules use.
struct Fa {
    rel: String,
    krate: String,
    src: String,
    toks: Vec<Tok>,
    items: FileItems,
}

impl Fa {
    fn new(f: SourceFile) -> Fa {
        let toks = lex(&f.src);
        let items = items::parse(&f.src, &toks);
        let krate = f
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_owned();
        Fa { rel: f.rel, krate, src: f.src, toks, items }
    }

    fn text(&self, ti: usize) -> &str {
        &self.src[self.toks[ti].lo..self.toks[ti].hi]
    }

    /// Text of code token `ci` (empty past end — safe lookahead).
    fn ct(&self, ci: usize) -> &str {
        match self.items.code.get(ci) {
            Some(&ti) => self.text(ti),
            None => "",
        }
    }

    fn ckind(&self, ci: usize) -> Option<TokKind> {
        self.items.code.get(ci).map(|&ti| self.toks[ti].kind)
    }

    fn cline(&self, ci: usize) -> usize {
        self.items.code.get(ci).map_or(0, |&ti| self.toks[ti].line)
    }

    /// Outside `#[cfg(test)]` regions.
    fn live(&self, ci: usize) -> bool {
        self.items.code.get(ci).is_some_and(|&ti| !self.items.flags[ti].in_test)
    }

    fn finding(&self, out: &mut Vec<Finding>, ci: usize, rule: &'static str, msg: String) {
        out.push(Finding { file: self.rel.clone(), line: self.cline(ci), rule, msg });
    }
}

/// Rule 1: default-hashed collections in simulator-state code.
fn rule_default_hashmap(fa: &Fa, out: &mut Vec<Finding>) {
    let n = fa.items.code.len();
    for ci in 0..n {
        if !fa.live(ci) || fa.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        let t = fa.ct(ci);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // An explicit hasher is fine; the rule targets RandomState.
        // "Explicit" = the same source line names one.
        let line = fa.cline(ci);
        let mut j = ci;
        while j > 0 && fa.cline(j - 1) == line {
            j -= 1;
        }
        let mut excused = false;
        while j < n && fa.cline(j) == line {
            if fa.ct(j).starts_with("BuildHasher") || fa.ct(j) == "with_hasher" {
                excused = true;
            }
            j += 1;
        }
        if !excused {
            fa.finding(
                out,
                ci,
                "no-default-hashmap",
                "HashMap/HashSet iteration order is randomized and breaks simulator \
                 determinism; use BTreeMap/BTreeSet or a seeded hasher"
                    .to_owned(),
            );
        }
    }
}

/// Rule 2: panics in per-cycle hot-path modules.
fn rule_hot_path_panics(fa: &Fa, out: &mut Vec<Finding>) {
    for ci in 0..fa.items.code.len() {
        if !fa.live(ci) || fa.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        let t = fa.ct(ci);
        let dotted = ci > 0 && fa.ct(ci - 1) == ".";
        match t {
            "panic" | "unreachable" | "todo" | "unimplemented" if fa.ct(ci + 1) == "!" => {
                fa.finding(
                    out,
                    ci,
                    "no-panic-in-hot-path",
                    format!(
                        "`{t}!(` in a per-cycle module: stall or saturate instead, or \
                         document the invariant with `.expect(\"...\")` / \
                         `// audited(no-panic-in-hot-path):`"
                    ),
                );
            }
            "unwrap" if dotted && fa.ct(ci + 1) == "(" && fa.ct(ci + 2) == ")" => {
                fa.finding(
                    out,
                    ci,
                    "no-panic-in-hot-path",
                    "`unwrap()` in a per-cycle module: stall or saturate instead, or \
                     document the invariant with `.expect(\"...\")` / \
                     `// audited(no-panic-in-hot-path):`"
                        .to_owned(),
                );
            }
            "expect"
                if dotted
                    && fa.ct(ci + 1) == "("
                    && (fa.ct(ci + 2) == ")" || fa.ct(ci + 2) == "\"\"") =>
            {
                fa.finding(
                    out,
                    ci,
                    "no-panic-in-hot-path",
                    "`.expect` without an invariant message; state why this cannot fire".to_owned(),
                );
            }
            _ => {}
        }
    }
}

/// Rule 5: heap allocation in per-cycle hot-path modules.
fn rule_hot_path_allocs(fa: &Fa, out: &mut Vec<Finding>) {
    let msg = |what: &str| {
        format!(
            "`{what}` in a per-cycle module: per-µop state is architecturally \
             bounded — use an inline array or a reusable scratch buffer, or \
             waive construction/diagnostic paths with `// audited(no-alloc-in-hot-path):`"
        )
    };
    for ci in 0..fa.items.code.len() {
        if !fa.live(ci) || fa.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        let t = fa.ct(ci);
        let dotted = ci > 0 && fa.ct(ci - 1) == ".";
        match t {
            "vec" | "format" if fa.ct(ci + 1) == "!" => {
                fa.finding(out, ci, "no-alloc-in-hot-path", msg(&format!("{t}!(")));
            }
            "Vec" | "Box" | "String" if fa.ct(ci + 1) == "::" => {
                let m = fa.ct(ci + 2);
                let banned = matches!(
                    (t, m),
                    ("Vec", "new")
                        | ("Vec", "with_capacity")
                        | ("Box", "new")
                        | ("String", "new")
                        | ("String", "from")
                );
                if banned {
                    fa.finding(out, ci, "no-alloc-in-hot-path", msg(&format!("{t}::{m}(")));
                }
            }
            "collect" | "to_vec" | "to_owned" | "to_string"
                if dotted && (fa.ct(ci + 1) == "(" || fa.ct(ci + 1) == "::") =>
            {
                fa.finding(out, ci, "no-alloc-in-hot-path", msg(&format!("{t}()")));
            }
            _ => {}
        }
    }
}

/// Rule 6: stdout/stderr writes in simulation crates.
fn rule_sim_crate_prints(fa: &Fa, out: &mut Vec<Finding>) {
    for ci in 0..fa.items.code.len() {
        if !fa.live(ci) || fa.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        let t = fa.ct(ci);
        if matches!(t, "println" | "eprintln" | "print" | "eprint") && fa.ct(ci + 1) == "!" {
            fa.finding(
                out,
                ci,
                "no-println-in-sim-crates",
                format!(
                    "`{t}!` in a simulation crate: route output through the \
                     observability layer (event trace / counter registry) or the \
                     bench reporting code, or waive with \
                     `// audited(no-println-in-sim-crates):`"
                ),
            );
        }
    }
}

/// Rule 3: floating point in architectural-state updates.
fn rule_arch_state_floats(fa: &Fa, out: &mut Vec<Finding>) {
    for ci in 0..fa.items.code.len() {
        if !fa.live(ci) {
            continue;
        }
        let t = fa.ct(ci);
        let hit = match fa.ckind(ci) {
            Some(TokKind::Ident) => t == "f64" || t == "f32",
            // A float-suffixed literal (`2.5_f64`) is just as much a
            // float; hex literals like `0x1f64` are digits, not a
            // suffix.
            Some(TokKind::Num) => {
                (t.ends_with("f64") || t.ends_with("f32"))
                    && !t.starts_with("0x")
                    && !t.starts_with("0X")
            }
            _ => false,
        };
        if hit {
            fa.finding(
                out,
                ci,
                "no-float-in-arch-state",
                format!(
                    "`{t}` in an architectural-state module: architectural updates \
                     must be bit-exact integer operations"
                ),
            );
        }
    }
}

/// Rule 4: every public struct in the hardware-table crates implements
/// `StorageBudget` (or is an exempted plain-data type).
fn rule_budget_coverage(fas: &[Fa], out: &mut Vec<Finding>) {
    let mut implemented: BTreeSet<&str> = BTreeSet::new();
    for fa in fas.iter().filter(|fa| BUDGET_CRATES.contains(&fa.krate.as_str())) {
        for imp in &fa.items.impls {
            if imp.trait_name.as_deref() == Some("StorageBudget") {
                implemented.insert(imp.self_ty.as_str());
            }
        }
    }
    for fa in fas.iter().filter(|fa| BUDGET_CRATES.contains(&fa.krate.as_str())) {
        for s in &fa.items.structs {
            let exempt = !s.is_pub
                || s.in_test
                || BUDGET_EXEMPT_NAMES.contains(&s.name.as_str())
                || BUDGET_EXEMPT_SUFFIXES.iter().any(|suf| s.name.ends_with(suf));
            if exempt || implemented.contains(s.name.as_str()) {
                continue;
            }
            out.push(Finding {
                file: fa.rel.clone(),
                line: s.line,
                rule: "storage-budget-coverage",
                msg: format!(
                    "pub struct `{}` implements no `StorageBudget`: hardware tables \
                     must report their bits for the Table 2 budget assertion \
                     (or add an exemption if it models no storage)",
                    s.name
                ),
            });
        }
    }
}

/// Integer type names a pointer may be cast to (rule 7).
fn is_int_ty(t: &str) -> bool {
    matches!(
        t,
        "usize"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "isize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
    )
}

/// Rule 7: nondeterminism sources in simulation crates.
fn rule_determinism(fa: &Fa, out: &mut Vec<Finding>) {
    for ci in 0..fa.items.code.len() {
        if !fa.live(ci) || fa.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        let t = fa.ct(ci);
        let dotted = ci > 0 && fa.ct(ci - 1) == ".";
        match t {
            "Instant" | "SystemTime" => {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    format!(
                        "wall-clock time source `{t}` in a simulation crate: simulated \
                         time is `cycles`; host time breaks run-to-run equivalence"
                    ),
                );
            }
            "RandomState" | "DefaultHasher" => {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    format!(
                        "randomized hasher `{t}` in a simulation crate: per-process \
                         hash seeds leak into iteration order and hash values"
                    ),
                );
            }
            "env"
                if fa.ct(ci + 1) == "::"
                    && matches!(
                        fa.ct(ci + 2),
                        "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os"
                    ) =>
            {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    format!(
                        "`std::env::{}` read in a simulation crate: behaviour must be a \
                         function of the config and trace only — plumb it through \
                         `Config` instead",
                        fa.ct(ci + 2)
                    ),
                );
            }
            "as_ptr" | "as_mut_ptr"
                if dotted
                    && fa.ct(ci + 1) == "("
                    && fa.ct(ci + 2) == ")"
                    && fa.ct(ci + 3) == "as"
                    && is_int_ty(fa.ct(ci + 4)) =>
            {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    "pointer-value observation (`.as_ptr() as <int>`): allocator \
                     addresses differ run to run and must never feed simulated state"
                        .to_owned(),
                );
            }
            "addr" if dotted && fa.ct(ci + 1) == "(" && fa.ct(ci + 2) == ")" => {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    "pointer-value observation (`.addr()`): allocator addresses differ \
                     run to run and must never feed simulated state"
                        .to_owned(),
                );
            }
            "expose_addr" | "expose_provenance" => {
                fa.finding(
                    out,
                    ci,
                    "determinism-audit",
                    format!(
                        "pointer-value observation (`{t}`): allocator addresses differ \
                         run to run and must never feed simulated state"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Rule 8: every public counter on a `*Stats` struct in the simulation
/// crates is reachable from the registry exporters.
///
/// Reachability is a fixpoint over function names: start from the
/// bodies of [`EXPORT_ROOTS`]; any function whose name is mentioned in
/// a reachable body contributes its own body. A counter is covered when
/// its field name is mentioned anywhere in that closure — deliberately
/// name-coarse (no type resolution), which errs toward fewer false
/// positives.
fn rule_export_coverage(fas: &[Fa], out: &mut Vec<Finding>) {
    let scope: Vec<&Fa> =
        fas.iter().filter(|fa| EXPORT_CRATES.contains(&fa.krate.as_str())).collect();
    // (name, body ident set) for every fn in scope.
    let mut fns: Vec<(&str, BTreeSet<&str>)> = Vec::new();
    for fa in &scope {
        for f in &fa.items.fns {
            let mut idents = BTreeSet::new();
            for ci in f.body.0..f.body.1 {
                if fa.ckind(ci) == Some(TokKind::Ident) {
                    idents.insert(fa.ct(ci));
                }
            }
            fns.push((f.name.as_str(), idents));
        }
    }
    if !fns.iter().any(|(name, _)| EXPORT_ROOTS.contains(name)) {
        // No exporter in the analyzed set: reachability is undefined,
        // so stay silent rather than flagging every counter.
        return;
    }
    let mut mentioned: BTreeSet<&str> = EXPORT_ROOTS.iter().copied().collect();
    let mut expanded = vec![false; fns.len()];
    loop {
        let mut changed = false;
        for (i, (name, idents)) in fns.iter().enumerate() {
            if !expanded[i] && mentioned.contains(name) {
                expanded[i] = true;
                mentioned.extend(idents.iter().copied());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for fa in &scope {
        for s in &fa.items.structs {
            if !s.is_pub || s.in_test || !s.name.ends_with("Stats") {
                continue;
            }
            for f in s.fields.iter().filter(|f| f.is_pub) {
                if !mentioned.contains(f.name.as_str()) {
                    out.push(Finding {
                        file: fa.rel.clone(),
                        line: f.line,
                        rule: "counter-export-coverage",
                        msg: format!(
                            "counter `{}.{}` is unreachable from the registry exporters \
                             ({}): it will silently vanish from every report — export \
                             it or waive with `// audited(counter-export-coverage):`",
                            s.name,
                            f.name,
                            EXPORT_ROOTS.join("/"),
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 9: raw arithmetic on statistics counters.
fn rule_saturating_counters(fas: &[Fa], out: &mut Vec<Finding>) {
    // All `*Stats` field names, workspace-wide.
    let mut fields: BTreeSet<&str> = BTreeSet::new();
    for fa in fas {
        for s in &fa.items.structs {
            if s.name.ends_with("Stats") && !s.in_test {
                fields.extend(s.fields.iter().map(|f| f.name.as_str()));
            }
        }
    }
    for fa in fas.iter().filter(|fa| SATURATING_CRATES.contains(&fa.krate.as_str())) {
        for ci in 0..fa.items.code.len() {
            if !fa.live(ci) || fa.ct(ci) != "." {
                continue;
            }
            let f = fa.ct(ci + 1);
            if fa.ckind(ci + 1) != Some(TokKind::Ident) || !fields.contains(f) {
                continue;
            }
            match fa.ct(ci + 2) {
                op @ ("+=" | "-=") => {
                    fa.finding(
                        out,
                        ci + 1,
                        "saturating-counter",
                        format!(
                            "raw `{op}` on stats counter `{f}`: counters must saturate, \
                             not wrap — use `sat_inc`/`sat_add` from `tvp_obs::counters`"
                        ),
                    );
                }
                "=" => {
                    // `.f = <expr involving wrapping arithmetic>;`
                    let mut j = ci + 3;
                    while !fa.ct(j).is_empty() && fa.ct(j) != ";" {
                        if matches!(fa.ct(j), "wrapping_add" | "wrapping_sub") {
                            fa.finding(
                                out,
                                ci + 1,
                                "saturating-counter",
                                format!(
                                    "wrapping arithmetic assigned to stats counter `{f}`: \
                                     counters must saturate — use `sat_inc`/`sat_add`"
                                ),
                            );
                            break;
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// A waiver comment: `// audited(<rule>): <reason>` (or the legacy
/// ruleless `// audited: <reason>`, which rule 10 rejects).
struct Waiver {
    line: usize,
    rule: Option<String>,
}

/// Extracts waiver comments from a file. Doc comments are
/// documentation, not waivers — prose *about* the waiver syntax never
/// counts.
fn collect_waivers(fa: &Fa) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (ti, tok) in fa.toks.iter().enumerate() {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let text = fa.text(ti);
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(pos) = text.find("audited") else { continue };
        let rest = &text[pos + "audited".len()..];
        let (rule, after) = match rest.strip_prefix('(') {
            Some(r) => match r.split_once(')') {
                Some((name, tail)) => (Some(name.trim().to_owned()), tail),
                None => (None, rest),
            },
            None => (None, rest),
        };
        // The marker must be followed by `:` — otherwise this is prose
        // mentioning the word, not a waiver.
        if !after.trim_start().starts_with(':') {
            continue;
        }
        out.push(Waiver { line: tok.line, rule });
    }
    out
}

/// Applies the waiver contract to the raw findings and appends rule-10
/// stale-waiver findings for every waiver that is ruleless, names an
/// unknown rule, or suppressed nothing.
fn apply_waivers(raw: Vec<Finding>, fas: &[Fa]) -> Vec<Finding> {
    let mut waivers: BTreeMap<&str, Vec<Waiver>> = BTreeMap::new();
    for fa in fas {
        waivers.insert(fa.rel.as_str(), collect_waivers(fa));
    }
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut kept = Vec::new();
    for f in raw {
        let ws = waivers.get(f.file.as_str()).map_or(&[][..], Vec::as_slice);
        let mut suppressed = false;
        for (i, w) in ws.iter().enumerate() {
            let anchored = w.line == f.line || w.line + 1 == f.line;
            if anchored && w.rule.as_deref() == Some(f.rule) {
                used.insert((f.file.clone(), i));
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (file, ws) in &waivers {
        for (i, w) in ws.iter().enumerate() {
            let msg = match &w.rule {
                None => "waiver names no rule: write `// audited(<rule>): <reason>` so the \
                         audit knows what it excuses"
                    .to_owned(),
                Some(r) if !RULES.contains(&r.as_str()) => {
                    format!("waiver names unknown rule `{r}`")
                }
                Some(r) => {
                    if used.contains(&((*file).to_owned(), i)) {
                        continue;
                    }
                    format!(
                        "stale waiver: no `{r}` finding on this line or the next — the \
                         code it excused is gone; remove or re-anchor it"
                    )
                }
            };
            kept.push(Finding {
                file: (*file).to_owned(),
                line: w.line,
                rule: "stale-waiver",
                msg,
            });
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    kept
}

/// Runs every rule over an explicit file set (the unit-test entry
/// point; [`run`] feeds it the workspace).
#[must_use]
pub fn analyze(files: Vec<SourceFile>) -> Vec<Finding> {
    let fas: Vec<Fa> = files.into_iter().map(Fa::new).collect();
    let mut raw = Vec::new();
    for fa in &fas {
        rule_default_hashmap(fa, &mut raw);
        if HOT_PATH_FILES.contains(&fa.rel.as_str()) {
            rule_hot_path_panics(fa, &mut raw);
            rule_hot_path_allocs(fa, &mut raw);
        }
        if ARCH_STATE_FILES.contains(&fa.rel.as_str()) {
            rule_arch_state_floats(fa, &mut raw);
        }
        if SILENT_CRATES.contains(&fa.krate.as_str()) {
            rule_sim_crate_prints(fa, &mut raw);
        }
        if DETERMINISM_CRATES.contains(&fa.krate.as_str())
            || DETERMINISM_FILES.contains(&fa.rel.as_str())
        {
            rule_determinism(fa, &mut raw);
        }
    }
    rule_budget_coverage(&fas, &mut raw);
    rule_export_coverage(&fas, &mut raw);
    rule_saturating_counters(&fas, &mut raw);
    apply_waivers(raw, &fas)
}

/// The workspace root, derived from this crate's manifest directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).expect("crates/xtask sits two levels down").to_owned()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Runs every rule over the workspace at `root`, returning all
/// findings (empty = clean tree).
#[must_use]
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for krate in SCANNED_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut sources = Vec::new();
        rust_sources(&src_dir, &mut sources);
        for path in sources {
            let Ok(src) = std::fs::read_to_string(&path) else { continue };
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            files.push(SourceFile { rel, src });
        }
    }
    analyze(files)
}

/// Renders findings as the machine-readable document behind
/// `cargo xtask lint --json` (parseable by [`crate::trace_schema`]'s
/// JSON parser — CI validates this round trip).
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            Inline.object(&[
                ("file", json::string(&f.file)),
                ("line", f.line.to_string()),
                ("rule", json::string(f.rule)),
                ("msg", json::string(&f.msg)),
            ])
        })
        .collect();
    Lines.object(&[
        ("version", "1".to_owned()),
        ("count", findings.len().to_string()),
        ("findings", Lines.array(&rows)),
    ])
}

/// Renders one finding as a GitHub Actions workflow annotation
/// (`::error file=…`), so findings surface inline on the PR diff.
#[must_use]
pub fn github_annotation(f: &Finding) -> String {
    // Property values escape `%`, CR, LF, `:` and `,`; message data
    // escapes `%`, CR and LF.
    let prop = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
            .replace(':', "%3A")
            .replace(',', "%2C")
    };
    let data = |s: &str| s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A");
    format!(
        "::error file={},line={},title={}::{}",
        prop(&f.file),
        f.line,
        prop(&format!("xtask lint [{}]", f.rule)),
        data(&f.msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analyzes one fixture file at the given workspace-relative path
    /// (the path selects which rules apply).
    fn check(rel: &str, src: &str) -> Vec<Finding> {
        analyze(vec![SourceFile { rel: rel.to_owned(), src: src.to_owned() }])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- rule 1: no-default-hashmap --------------------------------

    #[test]
    fn hashmap_violation_is_flagged() {
        let out = check(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\npub struct S { m: HashMap<u64, u64> }\n",
        );
        assert_eq!(rules_of(&out), ["no-default-hashmap", "no-default-hashmap"]);
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 2);
    }

    #[test]
    fn hashmap_in_test_module_is_ignored() {
        let out = check(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hashmap_in_string_or_comment_is_ignored() {
        // The regex engine's blind spot: these are not code.
        let out = check(
            "crates/core/src/x.rs",
            "// a HashMap would be wrong here\nfn f() -> &'static str { \"HashMap\" }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hashmap_waiver_is_honored() {
        let out = check(
            "crates/core/src/x.rs",
            "// audited(no-default-hashmap): seeded hasher wrapper\nuse std::collections::HashMap;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn explicit_hasher_is_allowed() {
        let out = check(
            "crates/core/src/x.rs",
            "pub struct S { m: HashMap<u64, u64, BuildHasherDefault<Fnv>> }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn identifier_containing_hashmap_is_not_a_match() {
        let out = check("crates/core/src/x.rs", "fn f() { let my_hashmap_like = 1; }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 2: no-panic-in-hot-path ------------------------------

    #[test]
    fn unwrap_violation_is_flagged() {
        let out =
            check("crates/core/src/scheduler.rs", "fn f(v: Option<u8>) -> u8 { v.unwrap() }\n");
        assert_eq!(rules_of(&out), ["no-panic-in-hot-path"]);
    }

    #[test]
    fn documented_expect_is_allowed_but_empty_message_is_not() {
        let ok = check(
            "crates/core/src/scheduler.rs",
            "fn f() { let x = v.expect(\"ROB head exists: checked above\"); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = check("crates/core/src/scheduler.rs", "fn f() { let x = v.expect(\"\"); }\n");
        assert_eq!(rules_of(&bad), ["no-panic-in-hot-path"]);
    }

    #[test]
    fn audited_unreachable_is_waived() {
        let out = check(
            "crates/core/src/scheduler.rs",
            "fn f() { match op {\n    A => 1,\n    // audited(no-panic-in-hot-path): decoder emits only A here\n    _ => unreachable!(),\n} }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_in_comment_or_string_is_not_flagged() {
        let out = check(
            "crates/core/src/scheduler.rs",
            "fn f() { let x = 1; } // previously v.unwrap()\nfn g() -> &'static str { \".unwrap()\" }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_outside_hot_path_files_is_allowed() {
        let out = check("crates/core/src/config.rs", "fn f() { panic!(\"bad config\"); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 5: no-alloc-in-hot-path ------------------------------

    #[test]
    fn alloc_violation_is_flagged() {
        let out = check(
            "crates/core/src/rename.rs",
            "fn rename(&mut self) { let deps: Vec<Dep> = uop.srcs().iter().collect(); }\n",
        );
        assert_eq!(rules_of(&out), ["no-alloc-in-hot-path"]);
    }

    #[test]
    fn turbofish_collect_is_flagged_too() {
        // `.collect::<Vec<_>>()` — invisible to the old `.collect()`
        // substring match.
        let out =
            check("crates/core/src/rename.rs", "fn f() { let v = it.collect::<Vec<_>>(); }\n");
        assert_eq!(rules_of(&out), ["no-alloc-in-hot-path"]);
    }

    #[test]
    fn inline_vec_new_is_not_vec_new() {
        let out = check(
            "crates/core/src/rename.rs",
            "fn f() { let names: InlineVec<PhysName, 2> = InlineVec::new(); }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn audited_alloc_is_waived_and_tests_are_exempt() {
        let out = check(
            "crates/core/src/rename.rs",
            "// audited(no-alloc-in-hot-path): constructor, runs once per simulation\n\
             fn new() -> Self { Self { rob: Vec::new() } }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { let v = vec![1]; }\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 3: no-float-in-arch-state ----------------------------

    #[test]
    fn float_violation_is_flagged() {
        let out =
            check("crates/core/src/rename.rs", "fn update(&mut self) { let x: f64 = 0.0; }\n");
        assert_eq!(rules_of(&out), ["no-float-in-arch-state"]);
    }

    #[test]
    fn float_literal_suffix_is_flagged_but_hex_is_not() {
        let out = check("crates/core/src/rename.rs", "fn f() { let x = 2.5_f64; }\n");
        assert_eq!(rules_of(&out), ["no-float-in-arch-state"]);
        let hex = check("crates/core/src/rename.rs", "fn f() { let x = 0x1f64; }\n");
        assert!(hex.is_empty(), "{hex:?}");
    }

    // ---- rule 4: storage-budget-coverage ---------------------------

    #[test]
    fn budget_coverage_flags_uncovered_tables_only() {
        // Only plain `pub` structs count: crate- and module-private
        // helpers are no part of the modelled machine's interface.
        let out = check(
            "crates/predictors/src/t.rs",
            "pub struct MyTable { bits: u64 }\n\
             pub struct MyTableConfig { n: usize }\n\
             pub struct Covered;\n\
             impl tvp_verif::StorageBudget for Covered {\n}\n\
             pub(crate) struct Reduction { n: u64 }\n\
             pub(super) struct Helper;\n",
        );
        assert_eq!(rules_of(&out), ["storage-budget-coverage"]);
        assert!(out[0].msg.contains("MyTable"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn budget_coverage_sees_impls_across_files() {
        let out = analyze(vec![
            SourceFile {
                rel: "crates/mem/src/table.rs".to_owned(),
                src: "pub struct Far { bits: u64 }\n".to_owned(),
            },
            SourceFile {
                rel: "crates/mem/src/budget.rs".to_owned(),
                src: "impl tvp_verif::StorageBudget for Far {}\n".to_owned(),
            },
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 6: no-println-in-sim-crates --------------------------

    #[test]
    fn println_violation_is_flagged() {
        let out = check(
            "crates/mem/src/x.rs",
            "fn step(&mut self) { println!(\"cycle {}\", self.cycle); }\n",
        );
        assert_eq!(rules_of(&out), ["no-println-in-sim-crates"]);
    }

    #[test]
    fn custom_macro_ending_in_println_is_not_flagged() {
        let out = check("crates/mem/src/x.rs", "fn f() { my_println!(\"into a buffer\"); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn println_in_harness_crate_is_allowed() {
        let out = check("crates/harness/src/x.rs", "fn f() { println!(\"report\"); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 7: determinism-audit ---------------------------------

    #[test]
    fn wall_clock_in_sim_crate_is_flagged() {
        let out = check("crates/core/src/x.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        assert_eq!(rules_of(&out), ["determinism-audit"]);
        assert!(out[0].msg.contains("Instant"));
    }

    #[test]
    fn env_read_in_sim_crate_is_flagged() {
        let out =
            check("crates/core/src/x.rs", "fn f() -> bool { std::env::var(\"TVP_X\").is_ok() }\n");
        assert_eq!(rules_of(&out), ["determinism-audit"]);
        assert!(out[0].msg.contains("env::var"));
    }

    #[test]
    fn randomized_hasher_is_flagged() {
        let out =
            check("crates/predictors/src/x.rs", "use std::collections::hash_map::RandomState;\n");
        assert_eq!(rules_of(&out), ["determinism-audit"]);
    }

    #[test]
    fn pointer_value_observation_is_flagged() {
        let out = check("crates/mem/src/x.rs", "fn f(v: &[u8]) -> usize { v.as_ptr() as usize }\n");
        assert_eq!(rules_of(&out), ["determinism-audit"]);
        // A plain `.as_ptr()` handed to a slice op is fine.
        let ok = check("crates/mem/src/x.rs", "fn f(v: &[u8]) { g(v.as_ptr()); }\n");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn feature_gated_code_is_not_exempt_from_determinism() {
        let out = check(
            "crates/core/src/x.rs",
            "#[cfg(feature = \"x\")]\nfn snapshot_age() { let t = Instant::now(); }\n",
        );
        assert_eq!(rules_of(&out), ["determinism-audit"]);
    }

    #[test]
    fn determinism_binds_the_functional_machine() {
        let out = check(
            "crates/workloads/src/x.rs",
            "use std::collections::hash_map::DefaultHasher;\nfn f(v: &[u8]) -> usize { v.as_ptr() as usize }\n",
        );
        assert_eq!(rules_of(&out), ["determinism-audit", "determinism-audit"]);
    }

    #[test]
    fn determinism_does_not_bind_harness() {
        let out = check("crates/harness/src/x.rs", "fn f() { let t = Instant::now(); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn determinism_binds_the_store_files_but_not_the_rest_of_bench() {
        // The bench crate is exempt as a whole (telemetry reads wall
        // clocks, option parsing reads the environment)...
        let engine =
            check("crates/bench/src/engine.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        assert!(engine.is_empty(), "{engine:?}");
        // ...but every durable-store file is individually bound: blob
        // and checkpoint bytes must be pure functions of their inputs.
        for rel in super::DETERMINISM_FILES {
            let clock = check(rel, "fn f() { let t = std::time::Instant::now(); }\n");
            assert_eq!(rules_of(&clock), ["determinism-audit"], "{rel} must reject wall clocks");
            let env = check(rel, "fn f() -> bool { std::env::var(\"TVP_X\").is_ok() }\n");
            assert_eq!(rules_of(&env), ["determinism-audit"], "{rel} must reject env reads");
        }
    }

    // ---- rule 8: counter-export-coverage ---------------------------

    #[test]
    fn unexported_counter_is_flagged() {
        let out = check(
            "crates/core/src/x.rs",
            "pub struct FooStats { pub hits: u64, pub misses: u64 }\n\
             impl Core { fn export_registry(&self) { reg(\"hits\", self.stats.hits); } }\n",
        );
        assert_eq!(rules_of(&out), ["counter-export-coverage"]);
        assert!(out[0].msg.contains("FooStats.misses"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn counter_reached_through_helper_fn_is_covered() {
        // `total()` mentions the fields; `export_registry` mentions
        // `total` — the closure connects them.
        let out = check(
            "crates/core/src/x.rs",
            "pub struct FooStats { pub a: u64, pub b: u64 }\n\
             impl FooStats { fn total(&self) -> u64 { self.a + self.b } }\n\
             impl Core { fn export_registry(&self) { reg(self.stats.total()); } }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn private_fields_and_non_stats_structs_are_ignored() {
        let out = check(
            "crates/core/src/x.rs",
            "pub struct FooStats { secret: u64 }\npub struct Plain { pub x: u64 }\n\
             fn export_registry() {}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn no_exporter_in_scope_means_silence() {
        // A fixture set with no exporter at all cannot assess
        // reachability and must not drown everything in findings.
        let out = check("crates/core/src/x.rs", "pub struct FooStats { pub hits: u64 }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 9: saturating-counter --------------------------------

    #[test]
    fn raw_increment_on_stats_field_is_flagged() {
        let out = check(
            "crates/predictors/src/x.rs",
            "pub struct BtbStats { pub hits: u64 }\n\
             impl Btb { fn lookup(&mut self) { self.stats.hits += 1; } }\n\
             fn export_registry() { stats hits }\n",
        );
        assert_eq!(rules_of(&out), ["saturating-counter"]);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn wrapping_add_assignment_is_flagged() {
        let out = check(
            "crates/core/src/x.rs",
            "pub struct FooStats { pub hits: u64 }\n\
             fn f(s: &mut FooStats) { s.hits = s.hits.wrapping_add(1); }\n\
             fn export_registry() { hits }\n",
        );
        assert_eq!(rules_of(&out), ["saturating-counter"]);
    }

    #[test]
    fn sat_inc_and_unrelated_fields_are_fine() {
        let out = check(
            "crates/core/src/x.rs",
            "pub struct FooStats { pub hits: u64 }\n\
             fn f(s: &mut FooStats, c: &mut Clock) { sat_inc(&mut s.hits); c.now += 1; }\n\
             fn export_registry() { hits }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- rule 10: stale-waiver -------------------------------------

    #[test]
    fn ruleless_waiver_is_flagged() {
        let out = check("crates/core/src/x.rs", "// audited: some old reason\nfn f() {}\n");
        assert_eq!(rules_of(&out), ["stale-waiver"]);
        assert!(out[0].msg.contains("names no rule"));
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let out = check("crates/core/src/x.rs", "// audited(no-such-rule): reason\nfn f() {}\n");
        assert_eq!(rules_of(&out), ["stale-waiver"]);
        assert!(out[0].msg.contains("no-such-rule"));
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let out = check(
            "crates/core/src/x.rs",
            "// audited(no-default-hashmap): long-gone map\nfn f() { let x = 1; }\n",
        );
        assert_eq!(rules_of(&out), ["stale-waiver"]);
        assert!(out[0].msg.contains("stale waiver"));
    }

    #[test]
    fn used_waiver_is_not_stale_and_doc_comments_never_are() {
        let out = check(
            "crates/core/src/x.rs",
            "/// Use `// audited(<rule>): reason` to waive findings.\n\
             // audited(no-default-hashmap): interned, iteration-order-free\n\
             use std::collections::HashMap;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waiver_only_suppresses_its_named_rule() {
        // The waiver names the wrong rule: the finding survives AND the
        // waiver is stale.
        let out = check(
            "crates/core/src/x.rs",
            "// audited(no-alloc-in-hot-path): wrong rule\nuse std::collections::HashMap;\n",
        );
        assert_eq!(rules_of(&out), ["stale-waiver", "no-default-hashmap"]);
    }

    // ---- output formats --------------------------------------------

    #[test]
    fn json_output_parses_with_the_trace_schema_parser() {
        let findings = vec![
            Finding {
                file: "crates/core/src/x.rs".to_owned(),
                line: 3,
                rule: "no-default-hashmap",
                msg: "quote \" and backslash \\ survive".to_owned(),
            },
            Finding {
                file: "crates/mem/src/y.rs".to_owned(),
                line: 9,
                rule: "stale-waiver",
                msg: "second".to_owned(),
            },
        ];
        use crate::trace_schema::Value;
        let doc = to_json(&findings);
        let v = crate::trace_schema::parse(&doc).expect("lint JSON must be valid JSON");
        let Value::Object(obj) = v else { panic!("top-level object") };
        assert_eq!(obj.get("count"), Some(&Value::Number(2.0)));
        let Some(Value::Array(arr)) = obj.get("findings") else { panic!("findings array") };
        assert_eq!(arr.len(), 2);
        let Value::Object(first) = &arr[0] else { panic!("finding object") };
        assert_eq!(first.get("rule"), Some(&Value::String("no-default-hashmap".to_owned())));
        assert_eq!(
            first.get("msg"),
            Some(&Value::String("quote \" and backslash \\ survive".to_owned()))
        );
        // Empty findings are valid too.
        assert!(crate::trace_schema::parse(&to_json(&[])).is_ok());
    }

    #[test]
    fn github_annotations_are_single_line_and_escaped() {
        let f = Finding {
            file: "crates/core/src/x.rs".to_owned(),
            line: 7,
            rule: "determinism-audit",
            msg: "bad\nmultiline: msg".to_owned(),
        };
        let a = github_annotation(&f);
        assert!(a.starts_with("::error file=crates/core/src/x.rs,line=7,"), "{a}");
        assert!(!a.contains('\n'), "{a}");
        assert!(a.contains("%0A"), "{a}");
    }

    // ---- the shipped tree ------------------------------------------

    #[test]
    fn every_listed_file_exists() {
        // A renamed or deleted file would silently drop out of its rules.
        let root = workspace_root();
        for rel in HOT_PATH_FILES.iter().chain(ARCH_STATE_FILES).chain(DETERMINISM_FILES) {
            assert!(root.join(rel).is_file(), "{rel} is listed but does not exist");
        }
    }

    #[test]
    fn shipped_tree_is_clean() {
        let findings = run(&workspace_root());
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(findings.is_empty(), "{}", rendered.join("\n"));
    }
}
