//! Memory-behaviour dominated kernels, including the paper's GVP
//! outlier (`pointer_chase` ≙ 623.xalancbmk).

use tvp_isa::flags::Cond;
use tvp_isa::inst::build::*;
use tvp_isa::inst::AddrMode;
use tvp_isa::reg::x;

use super::{DataRng, HEAP};
use crate::program::Asm;
use crate::suite::{words_to_bytes, DataSegments, Workload};

fn base_disp(base: u8, disp: i64) -> AddrMode {
    AddrMode::BaseDisp { base: x(base), disp }
}

fn base_index(base: u8, index: u8, shift: u8) -> AddrMode {
    AddrMode::BaseIndex { base: x(base), index: x(index), shift }
}

/// 605.mcf proxy: pointer-chasing over a 16MB single-cycle permutation
/// — serial DRAM-latency-bound walks with four interleaved chains for
/// a little memory-level parallelism. Low IPC, cache-hostile.
#[must_use]
pub fn sparse_graph() -> Workload {
    const NODES: u64 = 1024 * 1024; // × 8B = 8MB (≈ L3-sized)
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 4096));
    a.label("hop");
    // Eight independent pointer-chase chains (memory-level
    // parallelism), each loop-carried through its own register.
    for r in [4u8, 5, 6, 7, 11, 12, 13, 14] {
        a.i(ldr(x(r), base_index(20, r, 3)));
    }
    a.i(add(x(9), x(9), x(4))); // visit accumulator
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "hop");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "sparse_graph",
        proxy: "605.mcf_s",
        program: a.assemble().expect("sparse_graph assembles"),
        init_regs: vec![
            (x(20), HEAP),
            (x(4), 1),
            (x(5), NODES / 8),
            (x(6), NODES / 4),
            (x(7), 3 * NODES / 8),
            (x(11), NODES / 2),
            (x(12), 5 * NODES / 8),
            (x(13), 3 * NODES / 4),
            (x(14), 7 * NODES / 8),
        ],
        init_mem: DataSegments::new(|| {
            let mut rng = DataRng::new(0x605);
            // Sattolo's algorithm: a single cycle covering every node,
            // so the walk never falls into a short cached loop.
            let mut perm: Vec<u64> = (0..NODES).collect();
            for i in (1..NODES as usize).rev() {
                let j = rng.below(i as u64) as usize;
                perm.swap(i, j);
            }
            vec![(HEAP, words_to_bytes(&perm))]
        }),
    }
}

/// 620.omnetpp proxy: event-wheel processing. Walks linked event slots
/// (16B: timestamp + next index), conditionally rewriting timestamps —
/// a mix of dependent loads, data-dependent stores and a semi-biased
/// branch (≈ 75/25), like discrete-event simulators.
#[must_use]
pub fn discrete_event() -> Workload {
    const SLOTS: u64 = 64 * 1024; // × 16B = 1MB
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 4096));
    a.i(movz(x(4), 0)); // current slot
    a.label("event");
    a.i(lsl(x(5), x(4), 4i64));
    a.i(add(x(6), x(20), x(5))); // slot address
    a.i(ldr(x(7), base_disp(6, 0))); // timestamp
    a.i(mov(x(11), x(7))); // eliminable move
    a.i(movz(x(12), 0)); // zero idiom
    a.i(ldr(x(4), base_disp(6, 8))); // next slot (serial chain)
    a.i(cmp(x(7), x(21))); // against the simulation horizon
    a.b_cond(Cond::Hi, "defer");
    a.i(movz(x(13), 16)); // rematerialized increment (9-bit idiom)
    a.i(add(x(7), x(7), x(13))); // reschedule
    a.i(str(x(7), base_disp(6, 0)));
    a.i(add(x(9), x(9), 1i64)); // processed count
    a.b("next");
    a.label("defer");
    a.i(add(x(10), x(10), 1i64)); // deferred count
    a.label("next");
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "event");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "discrete_event",
        proxy: "620.omnetpp_s",
        program: a.assemble().expect("discrete_event assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), 1 << 17)],
        init_mem: DataSegments::new(|| {
            let mut rng = DataRng::new(0x620);
            let mut data = vec![0u8; (SLOTS * 16) as usize];
            for i in 0..SLOTS {
                // Timestamps: 75% small (processed fast path), 25% large.
                let t = if rng.below(4) == 0 {
                    1_000_000 + rng.below(1 << 20)
                } else {
                    rng.below(1 << 16)
                };
                let next = rng.below(SLOTS);
                let off = (i * 16) as usize;
                data[off..off + 8].copy_from_slice(&t.to_le_bytes());
                data[off + 8..off + 16].copy_from_slice(&next.to_le_bytes());
            }
            vec![(HEAP, data)]
        }),
    }
}

/// 623.xalancbmk proxy — the paper's GVP outlier (§6.1, +52.65%).
///
/// Every iteration retrieves a structure base address through three
/// *dependent* loads whose values are stable across iterations (the
/// indirection cells never change), then feeds it to a fourth load of
/// a 2-byte element. The loaded pointers need more than 9 bits, so
/// only GVP can predict them and collapse the serial chain; MVP and
/// TVP see nothing. A tail of element-dependent hash work makes each
/// iteration long enough that the instruction window cannot hide the
/// chain by overlapping iterations.
#[must_use]
pub fn pointer_chase() -> Workload {
    const ELEMS: u64 = 4096; // 2-byte elements
    let cell_a = HEAP; // holds &cell_b
    let cell_b = HEAP + 0x400; // holds &cell_c
    let cell_c = HEAP + 0x800; // holds elem_base
    let elem_base = HEAP + 0x1000;

    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 4096));
    a.label("lookup");
    // The three stable indirections (ValueStore::contains-like).
    a.i(ldr(x(1), base_disp(20, 0))); // → cell_b
    a.i(ldr(x(3), base_disp(1, 0))); // → cell_c
    a.i(ldr(x(4), base_disp(3, 0))); // → elem_base
    a.i(and(x(5), x(10), 0xFFFi64)); // element index
    a.i(ldr_sized(x(6), base_index(4, 5, 1), 2, false)); // 2B element
                                                         // A hit/miss test on the (statistically random) element — the
                                                         // contains()-style data-dependent branch. It mispredicts about
                                                         // half the time, and until it resolves the front-end cannot
                                                         // advance; its resolution waits on the whole load chain. GVP
                                                         // predicts the three stable pointers, collapsing the chain and
                                                         // resolving the branch an L1-load-chain earlier.
    a.i(add(x(10), x(10), 1i64));
    a.i(ands(x(7), x(6), 1i64));
    a.b_cond(Cond::Ne, "found");
    a.i(add(x(11), x(11), x(6))); // miss path
    a.b("next");
    a.label("found");
    a.i(add(x(12), x(12), 1i64)); // hit count
    a.label("next");
    a.i(add(x(26), x(26), x(6)));
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "lookup");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "pointer_chase",
        proxy: "623.xalancbmk_s",
        program: a.assemble().expect("pointer_chase assembles"),
        init_regs: vec![(x(20), cell_a)],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(0x623);
            vec![
                (cell_a, cell_b.to_le_bytes().to_vec()),
                (cell_b, cell_c.to_le_bytes().to_vec()),
                (cell_c, elem_base.to_le_bytes().to_vec()),
                (elem_base, (0..ELEMS * 2).map(|_| rng.below(256) as u8).collect()),
            ]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_graph_visits_distinct_nodes() {
        let w = sparse_graph();
        let t = w.trace(10_000);
        let loads: Vec<u64> =
            t.uops.iter().filter(|u| u.uop.op.is_load()).filter_map(|u| u.mem_addr).collect();
        let mut unique = loads.clone();
        unique.sort_unstable();
        unique.dedup();
        // A permutation walk keeps producing fresh addresses.
        assert!(
            unique.len() as f64 > loads.len() as f64 * 0.95,
            "{} / {}",
            unique.len(),
            loads.len()
        );
    }

    #[test]
    fn discrete_event_processes_and_defers() {
        let w = discrete_event();
        let mut m = w.machine();
        let _ = m.run(100_000);
        let processed = m.reg(x(9));
        let deferred = m.reg(x(10));
        assert!(processed > 0 && deferred > 0);
        let bias = processed as f64 / (processed + deferred) as f64;
        assert!((0.6..0.9).contains(&bias), "fast-path bias = {bias}");
    }

    #[test]
    fn pointer_chase_indirections_are_stable() {
        let w = pointer_chase();
        let t = w.trace(60_000);
        // Group pointer-load results by PC: the three 8-byte loads must
        // each return one single value for the whole trace.
        use std::collections::HashMap;
        let mut by_pc: HashMap<u64, Vec<u64>> = HashMap::new();
        for u in &t.uops {
            if matches!(u.uop.op, tvp_isa::op::Op::Load { size: 8, .. }) {
                by_pc.entry(u.pc).or_default().push(u.result.unwrap());
            }
        }
        assert_eq!(by_pc.len(), 3, "three pointer loads expected");
        for (pc, values) in by_pc {
            assert!(values.len() > 100);
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "pointer load at {pc:#x} is not stable"
            );
            // The stable value must exceed the 9-bit inlining range, so
            // TVP cannot capture it (the paper's point).
            assert!(values[0] > 255);
        }
    }

    #[test]
    fn pointer_chase_chain_is_dependent() {
        // Structural check: load₂ consumes load₁'s destination, etc.
        let w = pointer_chase();
        let t = w.trace(100);
        let loads: Vec<_> = t
            .uops
            .iter()
            .filter(|u| matches!(u.uop.op, tvp_isa::op::Op::Load { size: 8, .. }))
            .take(3)
            .collect();
        assert_eq!(loads.len(), 3);
        for pair in loads.windows(2) {
            let dst = pair[0].uop.dst.unwrap();
            let base = match pair[1].uop.addr.unwrap() {
                AddrMode::BaseDisp { base, .. } => base,
                m => panic!("unexpected addressing {m:?}"),
            };
            assert_eq!(dst, base, "loads must form a dependence chain");
        }
    }
}
