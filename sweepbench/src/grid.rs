//! The three workloads: which cells a pass pushes, under which seeds.

use dlp_common::SplitMix64;
use dlp_core::sweep::KernelId;
use dlp_core::{default_records, CellSpec, ExperimentParams, MachineConfig, Sweep};
use dlp_kernels::{suite, DlpKernel};

/// Derived seeds per lowering in `seed_ladder`. At most 64 (one lane
/// word), so every lowering stays a single dispatch group and the
/// 2-worker makespan is not decided by a few giant groups.
pub const LADDER_SEEDS: usize = 8;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The default 78-cell grid, cold: fresh sweep, fresh empty store.
    ColdGrid,
    /// The same grid re-queried against a store filled beforehand.
    WarmRequery,
    /// The 78 lowerings, each under `LADDER_SEEDS` derived seeds.
    SeedLadder,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_grid" => Some(Workload::ColdGrid),
            "warm_requery" => Some(Workload::WarmRequery),
            "seed_ladder" => Some(Workload::SeedLadder),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGrid => "cold_grid",
            Workload::WarmRequery => "warm_requery",
            Workload::SeedLadder => "seed_ladder",
        }
    }
}

/// The workload seeds one pass uses: the benchmark seed itself, or for
/// `seed_ladder` `LADDER_SEEDS` seeds drawn from it.
pub fn seeds(workload: Workload, seed: u64) -> Vec<u64> {
    match workload {
        Workload::ColdGrid | Workload::WarmRequery => vec![seed],
        Workload::SeedLadder => {
            let mut rng = SplitMix64::new(seed);
            (0..LADDER_SEEDS).map(|_| rng.next_u64()).collect()
        }
    }
}

/// One pass's grid: the registered kernels and the cells, in push order.
/// Built exactly as the `sweep` binary builds its default grid
/// (`default_records(name, 1)`, baseline then every DLP configuration),
/// with the seed loop innermost.
pub struct Grid {
    pub kernels: Vec<Box<dyn DlpKernel>>,
    pub cells: Vec<CellSpec>,
}

impl Grid {
    /// The grid over the perf-suite kernels, each passed through `wrap`
    /// (the identity for timed passes, a tracing wrapper for the traced
    /// replay).
    pub fn new(
        workload: Workload,
        seed: u64,
        wrap: impl Fn(Box<dyn DlpKernel>) -> Box<dyn DlpKernel>,
    ) -> Grid {
        let seeds = seeds(workload, seed);
        let kernels: Vec<Box<dyn DlpKernel>> = suite()
            .into_iter()
            .filter(|k| k.in_perf_suite())
            .map(wrap)
            .collect();
        let mut cells = Vec::new();
        for (id, kernel) in kernels.iter().enumerate() {
            let records = default_records(kernel.name(), 1);
            for config in std::iter::once(MachineConfig::Baseline).chain(MachineConfig::DLP) {
                for &s in &seeds {
                    cells.push(CellSpec {
                        kernel: id as KernelId,
                        config: Some(config),
                        mech: config.mechanisms(),
                        records,
                        params: ExperimentParams {
                            seed: s,
                            ..ExperimentParams::default()
                        },
                        label: config.to_string(),
                    });
                }
            }
        }
        Grid { kernels, cells }
    }

    /// A sweep over this grid with `threads` workers.
    pub fn into_sweep(self, threads: usize) -> Sweep {
        let mut sweep = Sweep::with_threads(threads);
        for kernel in self.kernels {
            sweep.add_kernel(kernel);
        }
        for cell in self.cells {
            sweep.push_cell(cell);
        }
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_78_cells_and_the_ladder_k_times_that() {
        let id = |k| k;
        assert_eq!(Grid::new(Workload::ColdGrid, 1, id).cells.len(), 78);
        assert_eq!(
            Grid::new(Workload::SeedLadder, 1, id).cells.len(),
            78 * LADDER_SEEDS
        );
    }

    #[test]
    fn seeds_are_a_function_of_the_benchmark_seed() {
        assert_eq!(
            seeds(Workload::SeedLadder, 7),
            seeds(Workload::SeedLadder, 7)
        );
        assert_ne!(
            seeds(Workload::SeedLadder, 7),
            seeds(Workload::SeedLadder, 8)
        );
        let ladder = seeds(Workload::SeedLadder, 7);
        let mut distinct = ladder.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), ladder.len());
    }
}
