//! Property tests for the [`ExpKey`](crate::jobs::ExpKey)
//! configuration fingerprint.
//!
//! The result cache dedupes simulation points by fingerprint, so a
//! collision between *different* configurations would silently reuse
//! the wrong simulation. The fingerprint is the structural `Debug`
//! rendering of the complete [`CoreConfig`]; these tests lock that it
//! reacts to every field:
//!
//! - a mutator table perturbs each `CoreConfig` field (and a
//!   representative field of every nested sub-config) and asserts the
//!   key changes;
//! - a self-auditing check parses the `Debug` rendering and fails if a
//!   newly added `CoreConfig` field has no mutator — extending the
//!   struct without extending this test is a test failure, not a
//!   silent gap;
//! - a property test applies random mutator subsets and asserts the
//!   fingerprint never collides with the base configuration.

use tvp_core::config::{CoreConfig, RecoveryPolicy, VpMode};
use tvp_predictors::vtage::{PredMode, VtageConfig};

use crate::jobs::ExpKey;

/// One named single-field perturbation. Every mutator must produce a
/// config whose fingerprint differs from `table2()`.
type Mutator = (&'static str, fn(&mut CoreConfig));

fn mutators() -> Vec<Mutator> {
    vec![
        ("fetch_width", |c| c.fetch_width += 1),
        ("fetch_queue", |c| c.fetch_queue += 1),
        ("rename_width", |c| c.rename_width += 1),
        ("issue_width", |c| c.issue_width += 1),
        ("commit_width", |c| c.commit_width += 1),
        ("fetch_to_decode", |c| c.fetch_to_decode += 1),
        ("decode_to_rename", |c| c.decode_to_rename += 1),
        ("rename_to_dispatch", |c| c.rename_to_dispatch += 1),
        ("taken_branch_penalty", |c| c.taken_branch_penalty += 1),
        ("redirect_penalty", |c| c.redirect_penalty += 1),
        ("btb_miss_penalty", |c| c.btb_miss_penalty += 1),
        ("rob_size", |c| c.rob_size += 1),
        ("iq_size", |c| c.iq_size += 1),
        ("lq_size", |c| c.lq_size += 1),
        ("sq_size", |c| c.sq_size += 1),
        ("int_regs", |c| c.int_regs += 1),
        ("fp_regs", |c| c.fp_regs += 1),
        ("move_elim", |c| c.move_elim = !c.move_elim),
        ("zero_one_idiom", |c| c.zero_one_idiom = !c.zero_one_idiom),
        ("nine_bit_idiom", |c| c.nine_bit_idiom = !c.nine_bit_idiom),
        ("vp", |c| c.vp = VpMode::Tvp),
        ("vtage", |c| c.vtage = Some(VtageConfig::paper(PredMode::Narrow9))),
        ("vtage.conf_bits", |c| {
            let mut v = VtageConfig::paper(PredMode::Narrow9);
            v.conf_bits += 1;
            c.vtage = Some(v);
        }),
        ("spsr", |c| c.spsr = !c.spsr),
        ("silence_cycles", |c| c.silence_cycles += 1),
        ("recovery", |c| c.recovery = RecoveryPolicy::Replay),
        ("adaptive_silencing", |c| c.adaptive_silencing = !c.adaptive_silencing),
        ("tage.base_log2", |c| c.tage.base_log2 += 1),
        ("tage.seed", |c| c.tage.seed ^= 1),
        ("mem.dram_latency", |c| c.mem.dram_latency += 1),
        ("mem.l1d.latency", |c| c.mem.l1d.latency += 1),
        ("mem.stride_prefetcher", |c| c.mem.stride_prefetcher = !c.mem.stride_prefetcher),
        ("mem.stride_degree", |c| c.mem.stride_degree += 1),
        ("mem.ampm_prefetcher", |c| c.mem.ampm_prefetcher = !c.mem.ampm_prefetcher),
        ("chaos", |c| c.chaos = Some(tvp_chaos::ChaosConfig::campaign(7))),
        ("chaos.seed", |c| c.chaos = Some(tvp_chaos::ChaosConfig::campaign(8))),
        ("watchdog_cycles", |c| c.watchdog_cycles += 1),
    ]
}

/// The field names at the top level of a non-pretty `Debug` struct
/// rendering (`CoreConfig { a: ..., b: Nested { .. }, ... }`).
fn top_level_fields(debug: &str) -> Vec<String> {
    let open = debug.find('{').expect("struct Debug has a brace");
    let close = debug.rfind('}').expect("struct Debug closes");
    let body = &debug[open + 1..close];
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut token = String::new();
    let mut expecting_name = true;
    for ch in body.chars() {
        match ch {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                expecting_name = true;
                token.clear();
            }
            ':' if depth == 0 && expecting_name => {
                fields.push(token.trim().to_owned());
                expecting_name = false;
            }
            _ if depth == 0 && expecting_name => token.push(ch),
            _ => {}
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn key(cfg: &CoreConfig) -> ExpKey {
        ExpKey::new("w", 1_000, cfg)
    }

    #[test]
    fn every_single_field_mutation_changes_the_fingerprint() {
        let base = key(&CoreConfig::table2());
        for (name, mutate) in mutators() {
            let mut cfg = CoreConfig::table2();
            mutate(&mut cfg);
            assert_ne!(
                base,
                key(&cfg),
                "mutating `{name}` did not change the fingerprint — the cache would \
                 serve a stale point for this configuration"
            );
        }
    }

    #[test]
    fn mutator_table_covers_every_core_config_field() {
        let rendered = format!("{:?}", CoreConfig::table2());
        let fields = top_level_fields(&rendered);
        assert!(fields.len() >= 30, "Debug parse failed? got {fields:?}");
        let muts = mutators();
        for field in &fields {
            let covered = muts
                .iter()
                .any(|(name, _)| *name == field || name.starts_with(&format!("{field}.")));
            assert!(
                covered,
                "CoreConfig field `{field}` has no fingerprint mutator — a new field \
                 was added; extend mutators() so the dedup-safety property keeps \
                 covering the whole configuration"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random multi-field mutations never collide with the base key.
        #[test]
        fn random_mutation_subsets_never_collide(picks in proptest::collection::vec(any::<u16>(), 1..6)) {
            let base = key(&CoreConfig::table2());
            let muts = mutators();
            let mut cfg = CoreConfig::table2();
            for p in &picks {
                let (_, mutate) = muts[*p as usize % muts.len()];
                mutate(&mut cfg);
            }
            // Toggling a bool twice restores it; the property only
            // holds when the net mutation is non-empty.
            if format!("{cfg:?}") != format!("{:?}", CoreConfig::table2()) {
                prop_assert_ne!(&base, &key(&cfg));
            }
        }

        /// The digest tracks key identity for every budget/seed shape.
        #[test]
        fn digest_matches_key_equality(insts in 1u64..1_000_000, seed in any::<u64>()) {
            let cfg = CoreConfig::table2().with_chaos(tvp_chaos::ChaosConfig::campaign(seed));
            let a = ExpKey::new("w", insts, &cfg);
            let b = ExpKey::new("w", insts, &cfg);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.digest(), b.digest());
            let c = ExpKey::new("w", insts.wrapping_add(1), &cfg);
            prop_assert_ne!(&a, &c);
        }
    }
}
