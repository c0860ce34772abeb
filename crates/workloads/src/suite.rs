//! The synthetic workload suite.
//!
//! Stand-ins for the SPEC CPU2017 speed benchmarks the paper evaluates
//! (see DESIGN.md §3 for the substitution rationale). Each kernel is a
//! small assembly program engineered to exhibit the *microarchitectural*
//! property that drives the paper's results on its SPEC counterpart:
//! value distributions skewed toward `0x0`/`0x1` and narrow constants
//! (Fig. 1), µop expansion between 1.0 and 1.15 (Fig. 2), a wide IPC
//! spread, and — for `pointer_chase` — the dependent-load chain that
//! makes 623.xalancbmk the paper's GVP outlier (+52.65%, §6.1).

use tvp_isa::reg::Reg;

use crate::kernels::{fp, int, mem};
use crate::machine::Machine;
use crate::program::Program;
use crate::stream::MachineSource;
use crate::trace::Trace;

/// A named workload: a program plus its initial machine state.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short kernel name (used in experiment tables).
    pub name: &'static str,
    /// The SPEC CPU2017 benchmark this kernel proxies.
    pub proxy: &'static str,
    pub(crate) program: Program,
    pub(crate) init_regs: Vec<(Reg, u64)>,
    pub(crate) init_mem: Vec<(u64, Vec<u8>)>,
}

impl Workload {
    /// Builds a fresh machine with this workload's initial state.
    #[must_use]
    pub fn machine(&self) -> Machine {
        let mut m = Machine::new(self.program.clone());
        for &(r, v) in &self.init_regs {
            m.set_reg(r, v);
        }
        for (addr, bytes) in &self.init_mem {
            m.write_bytes(*addr, bytes);
        }
        m
    }

    /// Runs the workload for `arch_insts` architectural instructions
    /// and returns the dynamic trace.
    #[must_use]
    pub fn trace(&self, arch_insts: u64) -> Trace {
        self.machine().run(arch_insts)
    }

    /// Wraps a fresh machine as a streaming
    /// [`TraceSource`](crate::stream::TraceSource): the
    /// sampled-simulation entry point (no trace is ever materialized
    /// beyond the interval being fed to the core).
    #[must_use]
    pub fn source(&self) -> MachineSource {
        MachineSource::new(self.machine())
    }

    /// Rebuilds a machine from a mid-trace architectural checkpoint
    /// (snapshot + global µop sequence position) — the resume path.
    /// Initial registers/memory are *not* re-applied; the snapshot
    /// already contains the complete architectural state.
    #[must_use]
    pub fn machine_restored(&self, snap: &crate::machine::ArchSnapshot, seq: u64) -> Machine {
        Machine::restore(self.program.clone(), snap, seq)
    }

    /// Static program size in instructions.
    #[must_use]
    pub fn code_size(&self) -> usize {
        self.program.len()
    }
}

/// A kernel's name and the constructor that builds its workload.
type Kernel = (&'static str, fn() -> Workload);

/// Every kernel, in the order they appear in experiment tables (which
/// is also the row order of `results/*.json` and the order of the
/// sampled pool).
const KERNELS: [Kernel; 25] = [
    ("string_match", int::string_match),
    ("string_match_2", int::string_match_2),
    ("string_match_3", int::string_match_3),
    ("expr_tree", int::expr_tree),
    ("expr_tree_2", int::expr_tree_2),
    ("expr_tree_3", int::expr_tree_3),
    ("stream_triad", fp::stream_triad),
    ("stream_triad_2", fp::stream_triad_2),
    ("sparse_graph", mem::sparse_graph),
    ("stencil_grid", fp::stencil_grid),
    ("lattice_fluid", fp::lattice_fluid),
    ("discrete_event", mem::discrete_event),
    ("weather_loop", fp::weather_loop),
    ("pointer_chase", mem::pointer_chase),
    ("pixel_encode", int::pixel_encode),
    ("pixel_encode_2", int::pixel_encode_2),
    ("pixel_encode_3", int::pixel_encode_3),
    ("climate_ocean", fp::climate_ocean),
    ("minimax", int::minimax),
    ("image_filter", int::image_filter),
    ("mc_playout", int::mc_playout),
    ("md_force", fp::md_force),
    ("stencil_roms", fp::stencil_roms),
    ("entropy_coder", int::entropy_coder),
    ("entropy_coder_2", int::entropy_coder_2),
];

/// All workloads, in the order they appear in experiment tables.
#[must_use]
pub fn suite() -> Vec<Workload> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

/// Every workload's name, in table order, without building any kernel.
pub fn names() -> impl ExactSizeIterator<Item = &'static str> + Clone {
    KERNELS.iter().map(|(name, _)| *name)
}

/// Looks a workload up by name, building only that kernel.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    KERNELS.iter().find(|(n, _)| *n == name).map(|(_, build)| build())
}

/// Packs a slice of 64-bit words into little-endian bytes (data-segment
/// helper for kernels).
#[must_use]
pub fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_five_distinct_rows() {
        let s = suite();
        assert_eq!(s.len(), 25);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25, "duplicate kernel names");
    }

    #[test]
    fn kernel_table_names_its_workloads_in_the_published_order() {
        let built: Vec<_> = suite().iter().map(|w| w.name).collect();
        let table: Vec<_> = names().collect();
        assert_eq!(built, table, "a table entry's name differs from its workload's name");
        // The row order of `results/*.json` and of the sampled pool.
        assert_eq!(
            built,
            [
                "string_match",
                "string_match_2",
                "string_match_3",
                "expr_tree",
                "expr_tree_2",
                "expr_tree_3",
                "stream_triad",
                "stream_triad_2",
                "sparse_graph",
                "stencil_grid",
                "lattice_fluid",
                "discrete_event",
                "weather_loop",
                "pointer_chase",
                "pixel_encode",
                "pixel_encode_2",
                "pixel_encode_3",
                "climate_ocean",
                "minimax",
                "image_filter",
                "mc_playout",
                "md_force",
                "stencil_roms",
                "entropy_coder",
                "entropy_coder_2",
            ]
        );
    }

    #[test]
    fn variants_differ_from_their_base() {
        let a = by_name("string_match").unwrap().trace(5_000);
        let b = by_name("string_match_2").unwrap().trace(5_000);
        let values_a: Vec<_> = a.uops.iter().filter_map(|u| u.result).collect();
        let values_b: Vec<_> = b.uops.iter().filter_map(|u| u.result).collect();
        assert_ne!(values_a, values_b, "variant must change dynamic behaviour");
    }

    #[test]
    fn every_kernel_runs_10k_instructions() {
        for w in suite() {
            let t = w.trace(10_000);
            assert_eq!(t.arch_insts, 10_000, "{} halted early", w.name);
            assert!(t.uops.len() as u64 >= t.arch_insts);
        }
    }

    #[test]
    fn expansion_ratios_match_fig2_range() {
        // Fig. 2: µops per architectural instruction between 1.0 and
        // ~1.15 across the suite.
        for w in suite() {
            let t = w.trace(20_000);
            let r = t.expansion_ratio();
            assert!((1.0..1.30).contains(&r), "{}: expansion ratio {r}", w.name);
        }
    }

    #[test]
    fn by_name_finds_kernels() {
        assert!(by_name("pointer_chase").is_some());
        assert!(by_name("not_a_kernel").is_none());
    }

    #[test]
    fn traces_are_deterministic() {
        let w = by_name("minimax").unwrap();
        let a = w.trace(5_000);
        let b = w.trace(5_000);
        assert_eq!(a.uops.len(), b.uops.len());
        for (x, y) in a.uops.iter().zip(&b.uops) {
            assert_eq!(x.pc, y.pc);
            assert_eq!(x.result, y.result);
            assert_eq!(x.mem_addr, y.mem_addr);
        }
    }

    #[test]
    fn words_to_bytes_little_endian() {
        let b = words_to_bytes(&[0x0102_0304_0506_0708]);
        assert_eq!(b, vec![8, 7, 6, 5, 4, 3, 2, 1]);
    }
}
