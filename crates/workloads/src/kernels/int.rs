//! Integer and control-flow dominated kernels.

use tvp_isa::flags::Cond;
use tvp_isa::inst::build::*;
use tvp_isa::inst::AddrMode;
use tvp_isa::reg::x;

use super::{DataRng, HEAP};
use crate::program::Asm;
use crate::suite::{DataSegments, Workload};

fn base_disp(base: u8, disp: i64) -> AddrMode {
    AddrMode::BaseDisp { base: x(base), disp }
}

fn base_index(base: u8, index: u8, shift: u8) -> AddrMode {
    AddrMode::BaseIndex { base: x(base), index: x(index), shift }
}

/// 600.perlbench proxy: byte-wise text scanning with character-class
/// predicates. Produces a heavy stream of 0/1 values (`cset`, `ands`)
/// and highly predictable loop branches.
#[must_use]
pub fn string_match() -> Workload {
    string_match_variant("string_match", 0x600, 26)
}

/// Second SimPoint-style slice of the perlbench proxy: text drawn from
/// a narrower alphabet, shifting predicate probabilities and branch
/// behaviour.
#[must_use]
pub fn string_match_2() -> Workload {
    string_match_variant("string_match_2", 0x1600, 8)
}

/// Third slice: near-degenerate text (mostly one character) — the
/// predicates become almost perfectly predictable.
#[must_use]
pub fn string_match_3() -> Workload {
    string_match_variant("string_match_3", 0x2600, 2)
}

fn string_match_variant(name: &'static str, seed: u64, alphabet: u64) -> Workload {
    const LEN: u64 = 64 * 1024;
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(20))); // cursor
    a.i(mov(x(1), x(21))); // remaining bytes
    a.label("scan");
    a.i(ldr_sized(x(3), AddrMode::PostIndex { base: x(0), disp: 1 }, 1, false));
    a.i(cmp(x(3), 0x65i64)); // 'e'
    a.i(cset(x(4), Cond::Eq));
    a.i(add(x(9), x(9), x(4))); // count of 'e'
    a.i(sub(x(5), x(3), 0x61i64)); // c - 'a'  (narrow value)
    a.i(cmp(x(5), 26i64));
    a.i(cset(x(6), Cond::Cc)); // is lowercase letter
    a.i(mov(x(12), x(3))); // eliminable move (register shuffling)
    a.i(w32(mov(x(13), x(5)))); // w-move of a 64-bit def: not eliminable
    a.i(movz(x(14), 1)); // one idiom
    a.i(and(x(7), x(6), x(4))); // lowercase AND 'e' (0/1)
    a.i(add(x(10), x(10), x(7)));
    a.i(ands(x(8), x(3), 1i64)); // odd character code?
    a.b_cond(Cond::Ne, "odd");
    a.i(add(x(11), x(11), 1i64));
    a.label("odd");
    a.i(subs(x(1), x(1), 1i64));
    a.b_cond(Cond::Ne, "scan");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name,
        proxy: "600.perlbench_s",
        program: a.assemble().expect("string_match assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), LEN)],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(seed);
            vec![(HEAP, (0..LEN).map(|_| b'a' + rng.below(alphabet) as u8).collect())]
        }),
    }
}

/// 602.gcc proxy: repeated walks of a fixed binary tree with
/// value-dependent descent. Pointer loads return stable 64-bit values
/// (per node), exercising GVP-only coverage; the descent branch is
/// data-dependent but repetitive.
#[must_use]
pub fn expr_tree() -> Workload {
    expr_tree_variant("expr_tree", 0x602, 4096)
}

/// Second gcc-proxy slice: a larger tree (deeper walks, more L1-TLB
/// pressure on the node loads).
#[must_use]
pub fn expr_tree_2() -> Workload {
    expr_tree_variant("expr_tree_2", 0x1602, 32 * 1024)
}

/// Third slice: a tiny, cache-resident tree with very hot pointers —
/// the most GVP-predictable variant.
#[must_use]
pub fn expr_tree_3() -> Workload {
    expr_tree_variant("expr_tree_3", 0x2602, 256)
}

/// The `nodes`-node tree of an `expr_tree` slice.
#[allow(non_snake_case)]
fn expr_tree_data(seed: u64, nodes: u64) -> Vec<u8> {
    let NODES: u64 = nodes;
    const NODE_BYTES: u64 = 24; // left, right, value
    let mut rng = DataRng::new(seed);
    // Heap-shaped complete binary tree: node i has children 2i+1, 2i+2.
    let mut data = vec![0u8; (NODES * NODE_BYTES) as usize];
    for i in 0..NODES {
        let node = |k: u64| HEAP + k * NODE_BYTES;
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let left = if l < NODES { node(l) } else { 0 };
        let right = if r < NODES { node(r) } else { 0 };
        let value = rng.below(1 << 16);
        let off = (i * NODE_BYTES) as usize;
        data[off..off + 8].copy_from_slice(&left.to_le_bytes());
        data[off + 8..off + 16].copy_from_slice(&right.to_le_bytes());
        data[off + 16..off + 24].copy_from_slice(&value.to_le_bytes());
    }
    data
}

fn expr_tree_variant(name: &'static str, seed: u64, nodes: u64) -> Workload {
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(20))); // current node
    a.label("walk");
    a.i(ldr(x(1), base_disp(0, 16))); // node value
    a.i(mov(x(3), x(1))); // eliminable move
    a.i(add(x(9), x(9), x(1)));
    a.tbnz(x(1), 0, "right");
    a.i(ldr(x(0), base_disp(0, 0))); // left child
    a.b("check");
    a.label("right");
    a.i(ldr(x(0), base_disp(0, 8))); // right child
    a.label("check");
    a.cbnz(x(0), "walk");
    a.i(add(x(19), x(19), 1i64));
    a.i(and(x(2), x(19), 7i64)); // narrow value production
    a.i(add(x(10), x(10), x(2)));
    a.b("outer");

    Workload {
        name,
        proxy: "602.gcc_s",
        program: a.assemble().expect("expr_tree assembles"),
        init_regs: vec![(x(20), HEAP)],
        init_mem: DataSegments::new(move || vec![(HEAP, expr_tree_data(seed, nodes))]),
    }
}

/// 625.x264 proxy: sum-of-absolute-differences over 16×16 pixel blocks
/// sliding through a frame. Byte loads with post-increment, `csneg`
/// absolute values, strided block advance (stride-prefetcher food).
#[must_use]
pub fn pixel_encode() -> Workload {
    pixel_encode_variant("pixel_encode", 0x625, 512 * 1024)
}

/// Second x264-proxy slice: a small frame (fully L2-resident).
#[must_use]
pub fn pixel_encode_2() -> Workload {
    pixel_encode_variant("pixel_encode_2", 0x1625, 128 * 1024)
}

/// Third slice: a large frame (L3-resident, stride prefetcher does
/// the heavy lifting).
#[must_use]
pub fn pixel_encode_3() -> Workload {
    pixel_encode_variant("pixel_encode_3", 0x2625, 4 * 1024 * 1024)
}

#[allow(non_snake_case)]
fn pixel_encode_variant(name: &'static str, seed: u64, frame: u64) -> Workload {
    let FRAME: u64 = frame;
    let mut a = Asm::new();
    a.label("outer");
    a.i(and(x(12), x(19), 0x3FFi64)); // block index (wraps)
    a.i(lsl(x(13), x(12), 8i64)); // block offset = idx * 256
    a.i(add(x(0), x(20), x(13))); // block A
    a.i(add(x(1), x(21), x(13))); // block B (second half of frame)
    a.i(movz(x(2), 256)); // pixel count
    a.i(movz(x(9), 0)); // SAD
    a.label("pix");
    a.i(ldr_sized(x(3), AddrMode::PostIndex { base: x(0), disp: 1 }, 1, false));
    a.i(ldr_sized(x(4), AddrMode::PostIndex { base: x(1), disp: 1 }, 1, false));
    a.i(subs(x(5), x(3), x(4)));
    a.i(csneg(x(5), x(5), x(5), Cond::Ge)); // |a - b|
    a.i(mov(x(6), x(5))); // eliminable move
    a.i(movz(x(7), 0)); // zero idiom
    a.i(movz(x(8), 42)); // rematerialized small constant (9-bit idiom)
    a.i(add(x(9), x(9), x(5)));
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "pix");
    a.i(add(x(10), x(10), x(9))); // accumulate frame cost
    a.i(lsr(x(11), x(9), 8i64)); // mean diff (narrow)
    a.i(add(x(14), x(14), x(11)));
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name,
        proxy: "625.x264_s",
        program: a.assemble().expect("pixel_encode assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), HEAP + FRAME / 2)],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(seed);
            vec![(HEAP, (0..FRAME).map(|_| rng.below(256) as u8).collect())]
        }),
    }
}

/// 631.deepsjeng proxy: board evaluation with data-dependent branches
/// on pseudo-random position values and bit-twiddling (`eor`, `lsr`,
/// `ands`, `rbit`). Branch behaviour is deliberately hard.
#[must_use]
pub fn minimax() -> Workload {
    const BOARD: u64 = 64 * 1024; // 8K positions × 8B
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 4096)); // positions to evaluate
    a.i(movz(x(0), 0)); // position cursor
    a.label("eval");
    a.i(and(x(3), x(0), 0x1FFFi64)); // wrap to 8K entries
    a.i(ldr(x(4), base_index(20, 3, 3))); // position hash
    a.i(mov(x(12), x(4))); // eliminable move
    a.i(eor(x(5), x(4), x(9))); // mix with running key
    a.i(lsr(x(6), x(5), 17i64));
    a.i(eor(x(5), x(5), x(6)));
    a.i(ands(x(7), x(5), 3i64)); // 2 random bits decide the branch
    a.b_cond(Cond::Eq, "prune");
    a.i(rbit(x(8), x(5)));
    a.i(clz(x(10), x(8))); // narrow value (0–64)
    a.i(add(x(9), x(9), x(10)));
    a.b("next");
    a.label("prune");
    a.i(movz(x(13), 1)); // one idiom
    a.i(add(x(11), x(11), 1i64)); // pruned count
    a.i(cmp(x(11), x(2)));
    a.i(csel(x(9), x(9), x(5), Cond::Cc)); // best-score update
    a.label("next");
    a.i(add(x(0), x(0), 1i64));
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "eval");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "minimax",
        proxy: "631.deepsjeng_s",
        program: a.assemble().expect("minimax assembles"),
        init_regs: vec![(x(20), HEAP)],
        init_mem: DataSegments::new(|| {
            let mut rng = DataRng::new(0x631);
            let board: Vec<u64> = (0..BOARD / 8).map(|_| rng.next()).collect();
            vec![(HEAP, crate::suite::words_to_bytes(&board))]
        }),
    }
}

/// 638.imagick proxy: pixel transform with saturating arithmetic —
/// multiply, bias, clamp via `cmp`+`csel`, field extraction via `ubfx`.
/// Produces many small constants and `0xFF` clamp values.
#[must_use]
pub fn image_filter() -> Workload {
    const IMAGE: u64 = 256 * 1024;
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(20)));
    a.i(mov(x(1), x(21))); // byte count
    a.i(movz(x(15), 255));
    a.label("pixel");
    a.i(ldr_sized(x(3), AddrMode::PostIndex { base: x(0), disp: 1 }, 1, false));
    a.i(add(x(4), x(3), x(3))); // ×2
    a.i(add(x(4), x(4), x(3))); // ×3
    a.i(add(x(4), x(4), 16i64)); // bias
    a.i(lsr(x(4), x(4), 2i64)); // scale
    a.i(cmp(x(4), 255i64));
    a.i(csel(x(5), x(4), x(15), Cond::Ls)); // clamp to 255
    a.i(str_sized(x(5), base_disp(0, -1), 1)); // write back in place
    a.i(ubfx(x(6), x(5), 4, 4)); // high nibble (narrow)
    a.i(add(x(9), x(9), x(6)));
    a.i(subs(x(1), x(1), 1i64));
    a.b_cond(Cond::Ne, "pixel");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "image_filter",
        proxy: "638.imagick_s",
        program: a.assemble().expect("image_filter assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), IMAGE)],
        init_mem: DataSegments::new(|| {
            let mut rng = DataRng::new(0x638);
            let image = (0..IMAGE)
                .map(|_| if rng.below(4) == 0 { rng.below(256) as u8 } else { rng.below(32) as u8 })
                .collect();
            vec![(HEAP, image)]
        }),
    }
}

/// 641.leela proxy: Monte-Carlo playouts over a mostly-empty board.
/// The board occupancy loads return `0x0`/`0x1` almost always — the
/// MVP sweet spot — and feed arithmetic directly (SpSR food: `add`
/// with a predicted-zero operand is a move, `and` is a zero idiom).
#[must_use]
pub fn mc_playout() -> Workload {
    const BOARD: u64 = 512 * 1024; // big enough to live in L2
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 2048)); // playout moves
    a.label("mv");
    // LCG point selection.
    a.i(movz(x(3), 0x5851));
    a.i(lsl(x(3), x(3), 16i64));
    a.i(add(x(3), x(3), 0x2D25i64));
    a.i(mul(x(8), x(8), x(3)));
    a.i(add(x(8), x(8), 0x3FDi64));
    a.i(lsr(x(4), x(8), 40i64));
    a.i(and(x(4), x(4), 0x7FFFFi64)); // board index
    a.i(ldr_sized(x(5), base_index(20, 4, 0), 1, false)); // occupancy: 0/1
                                                          // Load consumers — SpSR food once x5 is predicted to 0 (a move
                                                          // idiom and a zero idiom); kept few so the scheduler never fills
                                                          // with load-dependent work.
    a.i(add(x(9), x(9), x(5))); // occupied count
    a.i(and(x(6), x(5), x(19))); // zero idiom when x5 == 0
    a.i(add(x(10), x(10), x(6)));
    // Independent bookkeeping (move-rich, like real playout code).
    a.i(movz(x(14), 0)); // zero idiom
    a.i(movz(x(16), 100)); // rematerialized small constant (9-bit idiom)
    a.i(mov(x(15), x(11))); // eliminable move
    a.i(add(x(11), x(11), 1i64));
    a.i(and(x(12), x(11), 0xFFi64));
    a.i(add(x(13), x(13), x(12)));
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "mv");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "mc_playout",
        proxy: "641.leela_s",
        program: a.assemble().expect("mc_playout assembles"),
        init_regs: vec![(x(20), HEAP), (x(8), 0x9E37_79B9)],
        // A nearly-empty board: 1 in 1024 points occupied, so the
        // occupancy load is stable enough (≈99.9%) for FPC confidence
        // to saturate.
        init_mem: DataSegments::new(|| {
            let mut rng = DataRng::new(0x641);
            vec![(HEAP, (0..BOARD).map(|_| u8::from(rng.below(1024) == 0)).collect())]
        }),
    }
}

/// 657.xz proxy: a range-coder-like serial loop. The critical chain
/// includes a probability-table load whose value is almost always the
/// same narrow constant (`16`) — predictable by TVP/GVP (9-bit) but not
/// MVP — so value-predicting it unlinks the dependent shift/add chain.
#[must_use]
pub fn entropy_coder() -> Workload {
    entropy_coder_variant("entropy_coder", 0x657, 1024)
}

/// Second xz-proxy slice: a noisier probability table (1 in 64 entries
/// deviate), so confidence saturates rarely and TVP's win shrinks.
#[must_use]
pub fn entropy_coder_2() -> Workload {
    entropy_coder_variant("entropy_coder_2", 0x1657, 64)
}

fn entropy_coder_variant(name: &'static str, seed: u64, stability: u64) -> Workload {
    const TABLE: u64 = 512 * 1024; // L2-resident probability table
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(2), 4096));
    a.i(movz(x(3), 0x6329));
    a.label("sym");
    // The table index derives from the *serial* coder state, so the
    // probability load sits squarely on the critical chain — exactly
    // the shape where value-predicting the (stable) probability pays.
    a.i(mul(x(4), x(9), x(3)));
    a.i(and(x(4), x(4), 0x7FFFFi64)); // table index
    a.i(ldr_sized(x(5), base_index(20, 4, 0), 1, false)); // prob ≈ 16
                                                          // Dependent renormalisation chain.
    a.i(lsl(x(6), x(9), 4i64));
    a.i(udiv(x(7), x(6), x(5))); // divide by predicted probability
    a.i(add(x(9), x(7), 1i64));
    a.i(and(x(9), x(9), 0xFFFFi64)); // keep range bounded (narrow)
    a.i(add(x(10), x(10), x(9)));
    a.i(subs(x(2), x(2), 1i64));
    a.b_cond(Cond::Ne, "sym");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name,
        proxy: "657.xz_s",
        program: a.assemble().expect("entropy_coder assembles"),
        init_regs: vec![(x(20), HEAP), (x(9), 255)],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(seed);
            let table = (0..TABLE)
                .map(|_| if rng.below(stability) == 0 { rng.below(200) as u8 } else { 16 })
                .collect();
            vec![(HEAP, table)]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_match_counts_plausibly() {
        let w = string_match();
        let mut m = w.machine();
        let _ = m.run(500_000); // ≈ 34k bytes at ~14.5 insts/byte
        let e_count = m.reg(x(9));
        // Uniform over 26 letters → ~1300 'e's in ~34k bytes.
        assert!((700..2200).contains(&e_count), "e count = {e_count}");
    }

    #[test]
    fn expr_tree_walks_to_leaves() {
        let w = expr_tree();
        let mut m = w.machine();
        let _ = m.run(50_000);
        assert!(m.reg(x(19)) > 100, "completed walks = {}", m.reg(x(19)));
    }

    #[test]
    fn mc_playout_occupancy_ratio() {
        let w = mc_playout();
        let mut m = w.machine();
        let _ = m.run(200_000);
        let occupied = m.reg(x(9));
        let empty = m.reg(x(11));
        assert!(empty > 1000, "playout made no progress");
        let ratio = occupied as f64 / (occupied + empty) as f64;
        assert!(ratio < 0.01, "occupancy = {ratio} (board should be ~1/1024 full)");
    }

    #[test]
    fn entropy_coder_range_stays_bounded() {
        let w = entropy_coder();
        let mut m = w.machine();
        let _ = m.run(100_000);
        assert!(m.reg(x(9)) <= 0xFFFF);
        assert!(m.reg(x(19)) > 0 || m.reg(x(10)) > 0);
    }

    #[test]
    fn image_filter_clamps() {
        let w = image_filter();
        let mut m = w.machine();
        let _ = m.run(100_000);
        // Spot-check some written-back pixels are ≤ 255 (bytes always
        // are) and the nibble accumulator advanced.
        assert!(m.reg(x(9)) > 0);
    }

    #[test]
    fn minimax_progresses() {
        let w = minimax();
        let mut m = w.machine();
        let _ = m.run(100_000);
        assert!(m.reg(x(0)) > 1000, "positions evaluated = {}", m.reg(x(0)));
    }

    #[test]
    fn pixel_encode_sad_nonzero() {
        let w = pixel_encode();
        let mut m = w.machine();
        let _ = m.run(50_000);
        assert!(m.reg(x(10)) > 0, "accumulated SAD is zero");
    }
}
