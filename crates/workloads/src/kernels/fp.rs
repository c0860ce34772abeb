//! Floating-point dominated kernels.

use tvp_isa::flags::Cond;
use tvp_isa::inst::build::*;
use tvp_isa::inst::AddrMode;
use tvp_isa::reg::{v, x};

use super::{DataRng, HEAP};
use crate::program::Asm;
use crate::suite::{words_to_bytes, DataSegments, Workload};

fn f64_array(rng: &mut DataRng, n: usize, scale: f64) -> Vec<u8> {
    words_to_bytes(
        &(0..n)
            .map(|_| ((rng.below(1_000_000) as f64 / 1_000_000.0) * scale).to_bits())
            .collect::<Vec<_>>(),
    )
}

fn base_disp(base: u8, disp: i64) -> AddrMode {
    AddrMode::BaseDisp { base: x(base), disp }
}

/// 603.bwaves proxy: the classic STREAM triad `a[i] = b[i] + s·c[i]`
/// over megabyte arrays. High IPC, perfectly strided (prefetcher
/// heaven), almost no VP-eligible integer producers.
#[must_use]
pub fn stream_triad() -> Workload {
    stream_triad_variant("stream_triad", 0x603, 128 * 1024)
}

/// Second bwaves-proxy slice: short arrays that fit in the L1D, so
/// the kernel becomes purely FP-throughput-bound.
#[must_use]
pub fn stream_triad_2() -> Workload {
    stream_triad_variant("stream_triad_2", 0x1603, 4 * 1024)
}

#[allow(non_snake_case)]
fn stream_triad_variant(name: &'static str, seed: u64, n: usize) -> Workload {
    let N: usize = n;
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(4), 0)); // element index
    a.i(movz(x(3), N as i64));
    a.label("elem");
    a.i(ldr(v(1), AddrMode::BaseIndex { base: x(21), index: x(4), shift: 3 }));
    a.i(ldr(v(2), AddrMode::BaseIndex { base: x(22), index: x(4), shift: 3 }));
    a.i(fmul(v(3), v(2), v(0)));
    a.i(fadd(v(4), v(1), v(3)));
    a.i(str(v(4), AddrMode::BaseIndex { base: x(20), index: x(4), shift: 3 }));
    a.i(add(x(4), x(4), 1i64));
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "elem");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    let b_base = HEAP + (N as u64) * 8;
    let c_base = b_base + (N as u64) * 8;
    Workload {
        name,
        proxy: "603.bwaves_s",
        program: a.assemble().expect("stream_triad assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), b_base), (x(22), c_base), (v(0), 3.0f64.to_bits())],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(seed);
            let b = f64_array(&mut rng, N, 10.0);
            vec![(b_base, b), (c_base, f64_array(&mut rng, N, 2.0))]
        }),
    }
}

/// 607.cactuBSSN proxy: 5-point stencil over a 256×256 grid of f64.
/// Neighbour loads at ±8 and ±2048 bytes; regular and predictable.
#[must_use]
pub fn stencil_grid() -> Workload {
    const DIM: usize = 256;
    let row_bytes = (DIM * 8) as i64;

    let mut a = Asm::new();
    a.label("outer");
    // Walk interior cells linearly: from row 1 to row DIM-2.
    a.i(add(x(0), x(20), row_bytes + 8));
    a.i(movz(x(3), ((DIM - 2) * (DIM - 2)) as i64));
    a.label("cell");
    a.i(ldr(v(1), base_disp(0, -8)));
    a.i(ldr(v(2), base_disp(0, 8)));
    a.i(ldr(v(3), base_disp(0, -row_bytes)));
    a.i(ldr(v(4), base_disp(0, row_bytes)));
    a.i(ldr(v(5), base_disp(0, 0)));
    a.i(fadd(v(6), v(1), v(2)));
    a.i(fadd(v(7), v(3), v(4)));
    a.i(fadd(v(6), v(6), v(7)));
    a.i(fmadd(v(8), v(6), v(0), v(5))); // c·sum + center
    a.i(str(v(8), AddrMode::BaseDisp { base: x(1), disp: 0 }));
    a.i(add(x(1), x(1), 8i64));
    a.i(add(x(0), x(0), 8i64));
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "cell");
    a.i(mov(x(1), x(21))); // reset output cursor
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    let out_base = HEAP + (DIM * DIM * 8) as u64;
    Workload {
        name: "stencil_grid",
        proxy: "607.cactuBSSN_s",
        program: a.assemble().expect("stencil_grid assembles"),
        init_regs: vec![
            (x(20), HEAP),
            (x(21), out_base),
            (x(1), out_base),
            (v(0), 0.25f64.to_bits()),
        ],
        init_mem: DataSegments::new(|| {
            vec![(HEAP, f64_array(&mut DataRng::new(0x607), DIM * DIM, 1.0))]
        }),
    }
}

/// 619.lbm proxy: lattice sweep with a long serial FP accumulation —
/// `acc = acc·w + f(cell)` — over streaming cell data. Dependence-bound
/// FP with streaming loads.
#[must_use]
pub fn lattice_fluid() -> Workload {
    const CELLS: usize = 64 * 1024; // ×4 f64 per cell = 2MB
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(20)));
    a.i(movz(x(3), CELLS as i64));
    a.label("cell");
    a.i(ldr(v(1), base_disp(0, 0)));
    a.i(ldr(v(2), base_disp(0, 8)));
    a.i(ldr(v(3), base_disp(0, 16)));
    a.i(ldr(v(4), base_disp(0, 24)));
    a.i(fadd(v(5), v(1), v(2)));
    a.i(fadd(v(6), v(3), v(4)));
    a.i(fadd(v(5), v(5), v(6))); // cell density
    a.i(fmadd(v(7), v(7), v(0), v(5))); // serial: acc = acc·w + density
    a.i(str(v(5), base_disp(0, 0))); // write density back
    a.i(add(x(0), x(0), 32i64));
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "cell");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "lattice_fluid",
        proxy: "619.lbm_s",
        program: a.assemble().expect("lattice_fluid assembles"),
        init_regs: vec![(x(20), HEAP), (v(0), 0.875f64.to_bits())],
        init_mem: DataSegments::new(|| {
            vec![(HEAP, f64_array(&mut DataRng::new(0x619), CELLS * 4, 1.0))]
        }),
    }
}

/// 621.wrf proxy: mixed integer/FP physics loop — integer index math
/// with an occasional divide, int→FP conversion, fused multiply-add,
/// and a periodic mode branch.
#[must_use]
pub fn weather_loop() -> Workload {
    const N: usize = 32 * 1024;
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(3), N as i64));
    a.i(movz(x(4), 0)); // index
    a.label("point");
    a.i(lsl(x(5), x(4), 3i64));
    a.i(add(x(6), x(20), x(5)));
    a.i(ldr(v(1), AddrMode::BaseDisp { base: x(6), disp: 0 }));
    a.i(and(x(7), x(4), 0xFFi64)); // narrow phase value
    a.i(scvtf(v(2), x(7)));
    a.i(fmadd(v(3), v(1), v(0), v(2)));
    a.i(mov(x(11), x(5))); // eliminable move
    a.i(w32(mov(x(12), x(5)))); // width-restricted move (not eliminable)
    a.i(fadd(v(4), v(4), v(3)));
    a.tbz(x(4), 3, "no_div");
    a.i(add(x(8), x(4), 7i64));
    a.i(udiv(x(9), x(8), x(21))); // occasional integer divide
    a.i(add(x(10), x(10), x(9)));
    a.label("no_div");
    a.i(add(x(4), x(4), 1i64));
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "point");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "weather_loop",
        proxy: "621.wrf_s",
        program: a.assemble().expect("weather_loop assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), 9), (v(0), 1.0625f64.to_bits())],
        init_mem: DataSegments::new(|| vec![(HEAP, f64_array(&mut DataRng::new(0x621), N, 100.0))]),
    }
}

/// 628.pop2 proxy: conditional FP reduction. `fcmp` + branch steers
/// values into one of two accumulators (mostly one side — a
/// predictable FP branch).
#[must_use]
pub fn climate_ocean() -> Workload {
    const N: usize = 64 * 1024;
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(20)));
    a.i(movz(x(3), N as i64));
    a.label("cell");
    a.i(ldr(v(1), AddrMode::PostIndex { base: x(0), disp: 8 }));
    a.i(fcmp(v(1), v(0))); // against threshold 1.9 → mostly below
    a.b_cond(Cond::Ge, "warm");
    a.i(fadd(v(2), v(2), v(1))); // cold accumulator (common)
    a.b("next");
    a.label("warm");
    a.i(fadd(v(3), v(3), v(1))); // warm accumulator (rare)
    a.i(add(x(9), x(9), 1i64)); // warm count
    a.label("next");
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "cell");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "climate_ocean",
        proxy: "628.pop2_s",
        program: a.assemble().expect("climate_ocean assembles"),
        init_regs: vec![(x(20), HEAP), (v(0), 1.9f64.to_bits())],
        init_mem: DataSegments::new(|| vec![(HEAP, f64_array(&mut DataRng::new(0x628), N, 2.0))]),
    }
}

/// 644.nab proxy: molecular-dynamics pair forces. Gathers positions
/// through an index array (integer loads feed FP address math), then a
/// chain of `fsub`/`fmul`/`fmadd` per pair.
#[must_use]
pub fn md_force() -> Workload {
    const ATOMS: u64 = 16 * 1024;
    const PAIRS: u64 = 32 * 1024;
    let pos_base = HEAP;
    let pair_base = HEAP + ATOMS * 16;
    let mut a = Asm::new();
    a.label("outer");
    a.i(mov(x(0), x(21))); // pair cursor
    a.i(movz(x(3), PAIRS as i64));
    a.label("pair");
    a.i(ldr(x(4), AddrMode::PostIndex { base: x(0), disp: 8 })); // atom i
    a.i(ldr(x(5), AddrMode::PostIndex { base: x(0), disp: 8 })); // atom j
    a.i(lsl(x(4), x(4), 4i64));
    a.i(lsl(x(5), x(5), 4i64));
    a.i(add(x(6), x(20), x(4)));
    a.i(add(x(7), x(20), x(5)));
    a.i(ldr(v(1), AddrMode::BaseDisp { base: x(6), disp: 0 })); // xi
    a.i(ldr(v(2), AddrMode::BaseDisp { base: x(6), disp: 8 })); // yi
    a.i(ldr(v(3), AddrMode::BaseDisp { base: x(7), disp: 0 })); // xj
    a.i(ldr(v(4), AddrMode::BaseDisp { base: x(7), disp: 8 })); // yj
    a.i(fsub(v(5), v(1), v(3))); // dx
    a.i(fsub(v(6), v(2), v(4))); // dy
    a.i(fmul(v(7), v(5), v(5)));
    a.i(fmadd(v(7), v(6), v(6), v(7))); // r²
    a.i(fadd(v(8), v(8), v(7))); // potential accumulator
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "pair");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "md_force",
        proxy: "644.nab_s",
        program: a.assemble().expect("md_force assembles"),
        init_regs: vec![(x(20), pos_base), (x(21), pair_base)],
        init_mem: DataSegments::new(move || {
            let mut rng = DataRng::new(0x644);
            let pos = f64_array(&mut rng, (ATOMS * 2) as usize, 50.0);
            let pairs: Vec<u64> = (0..PAIRS * 2).map(|_| rng.below(ATOMS)).collect();
            vec![(pos_base, pos), (pair_base, words_to_bytes(&pairs))]
        }),
    }
}

/// 654.roms proxy: column-major walk of a 512-row grid — the 4KB
/// stride keeps the (unthrottled, degree-4) stride prefetcher firing
/// 16KB ahead, the interaction behind the paper's roms/TVP anomaly
/// (§3.4.1). Each column's length is (re)loaded from a bounds table:
/// a stable narrow value that TVP predicts.
#[must_use]
pub fn stencil_roms() -> Workload {
    const ROWS: usize = 512;
    const COLS: usize = 512; // ROWS×COLS f64 = 2MB
    let row_bytes = (COLS * 8) as i64;

    let bounds_base = HEAP + (ROWS * COLS * 8) as u64;
    let mut a = Asm::new();
    a.label("outer");
    a.i(movz(x(4), 0)); // column index
    a.label("col");
    a.i(ldr_sized(x(3), AddrMode::BaseIndex { base: x(21), index: x(4), shift: 0 }, 1, false)); // column height ≈ 255
    a.i(lsl(x(5), x(4), 3i64));
    a.i(add(x(0), x(20), x(5))); // column top
    a.label("row");
    a.i(ldr(v(1), AddrMode::BaseDisp { base: x(0), disp: 0 }));
    a.i(ldr(v(2), AddrMode::BaseDisp { base: x(0), disp: row_bytes }));
    a.i(fadd(v(3), v(1), v(2)));
    a.i(fmadd(v(4), v(3), v(0), v(4)));
    a.i(add(x(0), x(0), row_bytes)); // walk down the column: 4KB stride
    a.i(subs(x(3), x(3), 1i64));
    a.b_cond(Cond::Ne, "row");
    a.i(add(x(4), x(4), 1i64));
    a.i(cmp(x(4), COLS as i64));
    a.b_cond(Cond::Cc, "col");
    a.i(add(x(19), x(19), 1i64));
    a.b("outer");

    Workload {
        name: "stencil_roms",
        proxy: "654.roms_s",
        program: a.assemble().expect("stencil_roms assembles"),
        init_regs: vec![(x(20), HEAP), (x(21), bounds_base), (v(0), 0.5f64.to_bits())],
        // Column bounds: all 255 (stable narrow value; 9-bit admissible).
        init_mem: DataSegments::new(move || {
            let grid = f64_array(&mut DataRng::new(0x654), ROWS * COLS, 1.0);
            vec![(HEAP, grid), (bounds_base, vec![255; COLS])]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn final_reg_f64(w: &Workload, insts: u64, r: tvp_isa::reg::Reg) -> f64 {
        let mut m = w.machine();
        let _ = m.run(insts);
        f64::from_bits(m.reg(r))
    }

    #[test]
    fn stream_triad_writes_expected_values() {
        let w = stream_triad();
        let mut m = w.machine();
        let _ = m.run(50_000);
        // a[0] must equal b[0] + 3·c[0].
        let b0 = f64::from_bits(m.read_mem(HEAP + 128 * 1024 * 8, 8));
        let c0 = f64::from_bits(m.read_mem(HEAP + 2 * 128 * 1024 * 8, 8));
        let a0 = f64::from_bits(m.read_mem(HEAP, 8));
        assert!((a0 - (b0 + 3.0 * c0)).abs() < 1e-12, "a0={a0} b0={b0} c0={c0}");
    }

    #[test]
    fn lattice_accumulator_is_finite() {
        let acc = final_reg_f64(&lattice_fluid(), 100_000, v(7));
        assert!(acc.is_finite());
        assert!(acc != 0.0);
    }

    #[test]
    fn climate_ocean_splits_accumulators() {
        let w = climate_ocean();
        let mut m = w.machine();
        let _ = m.run(100_000);
        let cold = f64::from_bits(m.reg(v(2)));
        let warm_count = m.reg(x(9));
        assert!(cold > 0.0);
        // Threshold 1.9 over uniform [0,2) → ~5% warm.
        let total = 100_000 / 9; // ≈ insts per element
        assert!(warm_count > 0 && warm_count < total, "warm = {warm_count}");
    }

    #[test]
    fn md_force_accumulates_positive_r2() {
        let acc = final_reg_f64(&md_force(), 100_000, v(8));
        assert!(acc > 0.0, "sum of squared distances must be positive");
    }

    #[test]
    fn stencil_roms_column_height_is_stable() {
        let w = stencil_roms();
        let t = w.trace(50_000);
        // Every column-height byte load must return 255.
        let heights: Vec<_> = t
            .uops
            .iter()
            .filter(|u| matches!(u.uop.op, tvp_isa::op::Op::Load { size: 1, .. }))
            .map(|u| u.result.unwrap())
            .collect();
        assert!(!heights.is_empty());
        assert!(heights.iter().all(|&h| h == 255));
    }

    #[test]
    fn weather_loop_divides_occasionally() {
        let w = weather_loop();
        let t = w.trace(50_000);
        let divs = t.uops.iter().filter(|u| u.uop.op == tvp_isa::op::Op::Udiv).count();
        assert!(divs > 0, "no divides executed");
        assert!(divs < t.uops.len() / 10, "divides should be occasional");
    }

    #[test]
    fn stencil_grid_makes_full_sweeps() {
        let w = stencil_grid();
        let mut m = w.machine();
        // One sweep is (254² cells × ~14 insts) ≈ 900k instructions.
        let _ = m.run(1_000_000);
        assert!(m.reg(x(19)) >= 1, "completed sweeps = {}", m.reg(x(19)));
    }
}
