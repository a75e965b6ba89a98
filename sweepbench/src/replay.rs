//! The traced pass: `Sweep::run`'s three phases replayed step by step
//! through public entry points, one span per layer call.
//!
//! The replay is serial and follows the engine's own order of work:
//! phase 0 keys cells and reads the store, phase 1 prepares each
//! distinct lowering a pending cell needs, phase 2 dispatches pending
//! cells (lane-batched when they share a lowering, longest-predicted
//! first) and writes completions back to the store. Its report must be
//! canonically identical to an untraced `Sweep::run` of the same grid.
//!
//! Children that run inside a library call (`schedule_dataflow`,
//! `verify_dataflow`, `DataflowBlock::validate`, the analyzer,
//! `lowering_fingerprint`, `planned_unroll`) are probed: re-invoked on
//! the same inputs right after the call, see [`crate::trace`].

use std::sync::Arc;
use std::time::Instant;

use dlp_common::{DlpError, GridShape, SimStats, TimingParams};
use dlp_core::store::lowering_fingerprint;
use dlp_core::sweep::derive_seed;
use dlp_core::{
    prepare_kernel, run_prepared_batch_in, run_prepared_in, BatchLane, CellOutcome, CellSpec,
    ExperimentParams, PreparedProgram, ResultStore, RunScratch, StoreKey, Sweep, SweepCell,
    SweepReport, WorkloadCache,
};
use dlp_kernels::{memmap, DlpKernel, MimdTarget};
use trips_sched::verify::analyze::{analyze_kernel, analyze_mimd_channels, DataflowCost, MimdCost};
use trips_sched::verify::{self, DataflowVerifyParams, MimdVerifyParams};
use trips_sched::{
    planned_unroll, replicate_mimd, schedule_dataflow, LayoutPlan, ScheduleOptions, TargetConfig,
};
use trips_sim::MechanismSet;

use crate::grid::Grid;
use crate::trace::{self, phase, probe, span, timed, Est};

/// What the traced pass produced besides the per-layer ledger.
pub struct Replay {
    pub report: SweepReport,
    /// Duration of the traced pass.
    pub pass_ns: u64,
    /// Simulated cycles of the cells executed in this pass.
    pub executed_cycles: u64,
    /// Probe results that disagreed with the traced call they describe.
    pub probe_mismatches: Vec<String>,
}

/// The inputs of `prepare_kernel`, with the record count coarsened to
/// the unroll cap (0 for MIMD, whose lowering ignores it).
#[derive(Clone, Copy, PartialEq)]
struct PlanKey {
    kernel: usize,
    mech: MechanismSet,
    grid: GridShape,
    timing: TimingParams,
    cap: usize,
}

impl PlanKey {
    fn of(cell: &CellSpec, cap: usize) -> PlanKey {
        PlanKey {
            kernel: cell.kernel,
            mech: cell.mech,
            grid: cell.params.grid,
            timing: cell.params.timing,
            cap,
        }
    }

    fn params(&self) -> ExperimentParams {
        ExperimentParams {
            grid: self.grid,
            timing: self.timing,
            ..ExperimentParams::default()
        }
    }
}

/// Cells batch together when they share a lowering and a watchdog.
type BatchKey = (usize, Option<dlp_common::Tick>);

enum Group {
    Chain(usize),
    Batch(Vec<usize>),
}

/// Replays one pass of `grid` against `store` (none, empty or warm).
pub fn replay(grid: Grid, store: Option<&Arc<ResultStore>>, threads: usize) -> Replay {
    let cells = grid.cells.clone();
    let mut probe_mismatches = Vec::new();
    let mut executed_cycles = 0u64;
    let started = Instant::now();

    let (report, pass_ns) = span("sweep.pass", || {
        let sweep = grid.into_sweep(threads);
        let kernel = |i: usize| sweep.kernel(cells[i].kernel);

        // ---- Phase 0: plan identity, store keys, store reads.
        let (plan_keys, cell_plan, keys, mut resolved) = phase("sweep.phase0", || {
            // One record count per (kernel, mechanisms) group in every
            // workload, so the engine's unroll cap is the record count
            // (dataflow) or 0 (MIMD) and no natural_unroll probe runs.
            let mut plan_keys: Vec<PlanKey> = Vec::new();
            let mut cell_plan = Vec::with_capacity(cells.len());
            for cell in &cells {
                let cap = if cell.mech.local_pc { 0 } else { cell.records };
                let key = PlanKey::of(cell, cap);
                let coarse = PlanKey::of(cell, 0);
                assert!(
                    plan_keys
                        .iter()
                        .all(|k| PlanKey { cap: 0, ..*k } != coarse || k.cap == cap),
                    "replay assumes one record count per lowering"
                );
                let idx = plan_keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    plan_keys.push(key);
                    plan_keys.len() - 1
                });
                cell_plan.push(idx);
            }
            let mut resolved: Vec<Option<CellOutcome>> = vec![None; cells.len()];
            let keys = store.map(|store| {
                let (keys, _) = span("store.keys", || {
                    let keys = sweep.cell_keys();
                    probe(|| key_probes(&sweep, &cells, &plan_keys, &keys, &mut probe_mismatches));
                    keys
                });
                for (slot, key) in resolved.iter_mut().zip(&keys) {
                    trace::count("store.get_calls", 1);
                    let (hit, _) = span("store.get", || store.get(key));
                    *slot = hit;
                }
                keys
            });
            (plan_keys, cell_plan, keys, resolved)
        });

        // ---- Phase 1: prepare the lowerings pending cells need.
        let needed: Vec<usize> = (0..plan_keys.len())
            .filter(|&p| {
                cell_plan
                    .iter()
                    .zip(&resolved)
                    .any(|(&cp, r)| cp == p && r.is_none())
            })
            .collect();
        let plans = phase("sweep.phase1", || {
            let mut plans: Vec<Option<Result<PreparedProgram, DlpError>>> =
                (0..plan_keys.len()).map(|_| None).collect();
            for &p in &needed {
                let key = plan_keys[p];
                let k = sweep.kernel(key.kernel);
                let (plan, _) = span("core.prepare", || {
                    let plan = catch(|| prepare_kernel(k, key.mech, key.cap, &key.params()));
                    probe(|| prepare_probes(k, &key, &plan, &mut probe_mismatches));
                    plan
                });
                plans[p] = Some(plan);
            }
            plans
        });

        // ---- Phase 2: dispatch pending cells, persist completions.
        phase("sweep.phase2", || {
            let mut groups: Vec<Group> = Vec::new();
            let mut pending: Vec<(BatchKey, Vec<usize>)> = Vec::new();
            for (i, r) in resolved.iter().enumerate() {
                if r.is_some() {
                    groups.push(Group::Chain(i));
                    continue;
                }
                let key = (cell_plan[i], cells[i].params.watchdog);
                match pending.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(i),
                    None => pending.push((key, vec![i])),
                }
            }
            for (_, members) in pending {
                for chunk in members.chunks(trips_sim::batch::MAX_CLASSES) {
                    groups.push(match chunk {
                        [one] => Group::Chain(*one),
                        many => Group::Batch(many.to_vec()),
                    });
                }
            }
            // Longest predicted first, stable, as the engine orders them.
            let weight = |i: usize| match (&resolved[i], &plans[cell_plan[i]]) {
                (None, Some(Ok(p))) => p.estimate_ticks(cells[i].records),
                _ => 0,
            };
            groups.sort_by_key(|g| {
                std::cmp::Reverse(match g {
                    Group::Chain(i) => weight(*i),
                    Group::Batch(m) => m.iter().map(|&i| weight(i)).max().unwrap_or(0),
                })
            });

            let mut scratch = RunScratch::with_workload_cache(Arc::new(WorkloadCache::new()));
            let persist = |i: usize, outcome: &CellOutcome| {
                if let (Some(store), Some(keys)) = (store, &keys) {
                    trace::count("store.put_calls", 1);
                    // A failed write is a cache problem, as in the engine.
                    let _ = span("store.put", || store.put(&keys[i], outcome));
                }
            };
            for group in groups {
                match group {
                    Group::Chain(i) => {
                        if resolved[i].is_some() {
                            continue;
                        }
                        let outcome = run_cell(
                            kernel(i),
                            &cells[i],
                            plans[cell_plan[i]].as_ref(),
                            &mut scratch,
                        );
                        persist(i, &outcome);
                        resolved[i] = Some(outcome);
                    }
                    Group::Batch(members) => {
                        let outcomes = run_batch(
                            kernel(members[0]),
                            &cells,
                            &members,
                            plans[cell_plan[members[0]]].as_ref(),
                            &mut scratch,
                        );
                        for (&i, outcome) in members.iter().zip(outcomes) {
                            persist(i, &outcome);
                            resolved[i] = Some(outcome);
                        }
                    }
                }
            }
        });

        let report_cells: Vec<SweepCell> = cells
            .iter()
            .zip(resolved)
            .enumerate()
            .map(|(i, (spec, outcome))| {
                let outcome = outcome.expect("every cell resolved by phase 2");
                let executed = plans[cell_plan[i]].is_some();
                if executed {
                    executed_cycles += outcome.stats().map_or(0, SimStats::cycles);
                }
                SweepCell {
                    kernel: kernel(i).name().to_string(),
                    config: spec.config_name(),
                    label: spec.label.clone(),
                    records: spec.records,
                    outcome,
                    wall_ms: 0.0,
                    predicted_cycles: None,
                }
            })
            .collect();
        SweepReport {
            threads,
            plans_prepared: needed.len(),
            plan_reuses: cells.len().saturating_sub(plan_keys.len()),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            soft_timeouts: 0,
            extra_attempts: 0,
            workload_cache_hits: 0,
            workload_cache_misses: 0,
            store_hits: 0,
            store_misses: 0,
            cells_executed: 0,
            cells_skipped: 0,
            resumed_cells: 0,
            dlq_appended: 0,
            cells_batched: 0,
            batch_dispatches: 0,
            batch_occupancy: 0.0,
            analysis_warnings: 0,
            cells: report_cells,
        }
    });
    Replay {
        report,
        pass_ns,
        executed_cycles,
        probe_mismatches,
    }
}

/// One scalar cell, as the engine's single-attempt path runs it.
fn run_cell(
    kernel: &dyn DlpKernel,
    cell: &CellSpec,
    plan: Option<&Result<PreparedProgram, DlpError>>,
    scratch: &mut RunScratch,
) -> CellOutcome {
    let prepared = match plan.expect("phase 1 prepared every pending cell's plan") {
        Ok(p) => p,
        Err(e) => return failed(e, 0),
    };
    let params = ExperimentParams {
        seed: derive_seed(cell.params.seed, kernel.name()),
        ..cell.params
    };
    let (ran, _) = span("sim.scalar", || {
        catch(|| run_prepared_in(kernel, prepared, cell.records, &params, scratch))
    });
    match ran {
        Ok((stats, mismatch)) => CellOutcome::Ran { stats, mismatch },
        Err(e) => failed(&e, 1),
    }
}

/// One lane-batched dispatch group.
fn run_batch(
    kernel: &dyn DlpKernel,
    cells: &[CellSpec],
    members: &[usize],
    plan: Option<&Result<PreparedProgram, DlpError>>,
    scratch: &mut RunScratch,
) -> Vec<CellOutcome> {
    let Some(Ok(prepared)) = plan else {
        return members
            .iter()
            .map(|&i| run_cell(kernel, &cells[i], plan, scratch))
            .collect();
    };
    let lanes: Vec<BatchLane> = members
        .iter()
        .map(|&i| BatchLane {
            records: cells[i].records,
            params: ExperimentParams {
                seed: derive_seed(cells[i].params.seed, kernel.name()),
                ..cells[i].params
            },
        })
        .collect();
    let (ran, _) = span("sim.batch", || {
        catch(|| Ok(run_prepared_batch_in(kernel, prepared, &lanes, scratch)))
    });
    match ran {
        Ok(results) => results
            .into_iter()
            .map(|r| match r {
                Ok((stats, mismatch)) => CellOutcome::Ran { stats, mismatch },
                Err(e) => failed(&e, 1),
            })
            .collect(),
        Err(_) => members
            .iter()
            .map(|&i| run_cell(kernel, &cells[i], plan, scratch))
            .collect(),
    }
}

fn failed(e: &DlpError, attempts: u32) -> CellOutcome {
    CellOutcome::Failed {
        error: e.to_string(),
        kind: e.kind().to_string(),
        attempts,
        timed_out: false,
    }
}

/// A panic becomes the cell's error, worded as the engine words it.
fn catch<T>(f: impl FnOnce() -> Result<T, DlpError>) -> Result<T, DlpError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "simulation panicked".to_string());
        Err(DlpError::Internal {
            detail: format!("panicked: {msg}"),
        })
    })
}

/// The scheduler target `dlp_core` derives from a mechanism set.
fn target(mech: MechanismSet) -> TargetConfig {
    TargetConfig {
        smc: mech.smc,
        l0_data_store: mech.l0_data_store,
        operand_revitalization: mech.operand_revitalization,
        dlp_unroll: mech.inst_revitalization,
    }
}

fn layout() -> LayoutPlan {
    LayoutPlan {
        base_in: memmap::BASE_IN,
        base_out: memmap::BASE_OUT,
        table_base: memmap::TABLE_BASE,
    }
}

/// Probes under `cell_keys`: one `planned_unroll` per dataflow lowering
/// group, one `lowering_fingerprint` per cell (kernel calls taken out:
/// they are traced as `kernels.*` spans already).
fn key_probes(
    sweep: &Sweep,
    cells: &[CellSpec],
    plan_keys: &[PlanKey],
    keys: &[StoreKey],
    mismatches: &mut Vec<String>,
) -> Vec<Est> {
    let kernel = |i: usize| sweep.kernel(cells[i].kernel);
    let mut ests = Vec::new();
    let mut natural: Vec<(PlanKey, usize)> = Vec::new();
    for key in plan_keys.iter().filter(|k| !k.mech.local_pc) {
        let coarse = PlanKey { cap: 0, ..*key };
        if natural.iter().any(|(k, _)| *k == coarse) {
            continue;
        }
        let cell = cells
            .iter()
            .position(|c| PlanKey::of(c, 0) == coarse)
            .expect("key of a cell");
        let (ir, _, _) = timed(|| kernel(cell).ir());
        let (n, ns, _) = timed(|| {
            planned_unroll(
                &ir,
                key.grid,
                &key.timing,
                target(key.mech),
                layout(),
                ScheduleOptions::default(),
            )
        });
        ests.push(Est::leaf("sched.planned_unroll", ns));
        natural.push((coarse, n.unwrap_or(usize::MAX)));
    }
    for (i, cell) in cells.iter().enumerate() {
        let unroll = if cell.mech.local_pc {
            0
        } else {
            let coarse = PlanKey::of(cell, 0);
            natural
                .iter()
                .find(|(k, _)| *k == coarse)
                .map_or(cell.records, |(_, n)| (*n).min(cell.records))
        };
        let (fp, ns, kernel_ns) = timed(|| {
            lowering_fingerprint(
                kernel(i),
                cell.mech,
                cell.params.grid,
                &cell.params.timing,
                unroll,
            )
        });
        if fp != keys[i].lowering {
            mismatches.push(format!("lowering fingerprint probe of cell {i}"));
        }
        ests.push(Est::leaf("store.fingerprint", ns.saturating_sub(kernel_ns)));
    }
    ests
}

/// Probes under `prepare_kernel`: the analyzer passes, then either the
/// dataflow schedule (⊃ planned_unroll, verify_dataflow ⊃ validate) or
/// the MIMD verifier. Each runs once, right after the call it describes,
/// on the block it just built: repeated runs on a block gone cold read
/// slower than the call inside `prepare_kernel`, not closer to it.
fn prepare_probes(
    kernel: &dyn DlpKernel,
    key: &PlanKey,
    plan: &Result<PreparedProgram, DlpError>,
    mismatches: &mut Vec<String>,
) -> Vec<Est> {
    let (ir, _, _) = timed(|| kernel.ir());
    let (_, mut analyze_ns, _) = timed(|| analyze_kernel(&ir));
    if key.mech.local_pc {
        let target = MimdTarget {
            tables_in_l0: key.mech.l0_data_store,
        };
        let (prog, _, _) = timed(|| kernel.mimd_program(target));
        let Ok(prog) = prog else {
            return vec![Est::leaf("verify.analyze", analyze_ns)];
        };
        let progs = replicate_mimd(&prog, key.grid.nodes());
        let vparams = MimdVerifyParams {
            n_ranks: key.grid.nodes(),
            num_regs: verify::MIMD_NUM_REGS,
            l0_inst_capacity: key.timing.core.l0_inst_capacity,
            watchdog: trips_sim::WATCHDOG_TICKS,
        };
        let (_, verify_ns, _) = timed(|| verify::verify_mimd(&progs, &vparams));
        let (_, ns, _) = timed(|| {
            (
                analyze_mimd_channels(&progs),
                MimdCost::of(&progs, &key.timing),
            )
        });
        analyze_ns += ns;
        return vec![
            Est::leaf("verify.analyze", analyze_ns),
            Est::leaf("verify.mimd", verify_ns),
        ];
    }
    let opts = ScheduleOptions {
        max_unroll: Some(key.cap),
        ..ScheduleOptions::default()
    };
    let (sched, sched_ns, _) =
        timed(|| schedule_dataflow(&ir, key.grid, &key.timing, target(key.mech), layout(), opts));
    let Ok(sched) = sched else {
        return vec![Est::leaf("verify.analyze", analyze_ns)];
    };
    if plan.as_ref().is_ok_and(|p| p.unroll() != sched.unroll) {
        mismatches.push(format!(
            "schedule probe unroll of {}/{}",
            kernel.name(),
            key.mech
        ));
    }
    let (_, unroll_ns, _) =
        timed(|| planned_unroll(&ir, key.grid, &key.timing, target(key.mech), layout(), opts));
    let vparams = DataflowVerifyParams {
        grid: key.grid,
        slots_per_node: key.timing.core.rs_slots_per_node,
        num_regs: verify::DEFAULT_NUM_REGS,
        lmw_max_words: key.timing.mem.lmw_max_words.max(1) as usize,
        l0_data_entries: key.timing.mem.l0_data_bytes,
        unroll: sched.unroll,
        unroll_cap: 512,
        operand_revitalization: key.mech.operand_revitalization,
        tables_in_l0: sched.tables_in_l0,
        table_len: sched.table_image.len(),
    };
    let (_, verify_ns, _) = timed(|| verify::verify_dataflow(&sched.block, &vparams));
    let (_, validate_ns, _) = timed(|| {
        sched
            .block
            .validate(key.grid, key.timing.core.rs_slots_per_node)
    });
    trace::count("isa.validate_calls", 1);
    let (_, ns, _) = timed(|| {
        DataflowCost::of(
            &sched.block,
            key.grid,
            &key.timing,
            key.mech.inst_revitalization,
            key.mech.operand_revitalization,
        )
    });
    analyze_ns += ns;
    vec![
        Est::leaf("verify.analyze", analyze_ns),
        Est {
            name: "sched.schedule",
            ns: sched_ns,
            children: vec![
                Est::leaf("sched.planned_unroll", unroll_ns),
                Est {
                    name: "verify.dataflow",
                    ns: verify_ns,
                    children: vec![Est::leaf("isa.validate", validate_ns)],
                },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Workload;
    use crate::trace::TracedKernel;
    use dlp_core::MachineConfig;

    /// Two kernels on every configuration at smoke scale, two seeds each:
    /// scalar cells, batched pairs, MIMD and dataflow lowerings.
    fn small_grid(traced: bool) -> Grid {
        let mut grid = Grid::new(Workload::SeedLadder, 3, |k| {
            if traced {
                Box::new(TracedKernel(k))
            } else {
                k
            }
        });
        let keep: Vec<usize> = grid
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| ["convert", "md5"].contains(&k.name()))
            .map(|(i, _)| i)
            .collect();
        grid.cells.retain(|c| keep.contains(&c.kernel));
        let mut seen: Vec<(usize, Option<MachineConfig>, usize)> = Vec::new();
        grid.cells.retain(|c| {
            let n = seen
                .iter()
                .filter(|(k, cfg, _)| *k == c.kernel && *cfg == c.config)
                .count();
            seen.push((c.kernel, c.config, n));
            n < 2
        });
        for cell in &mut grid.cells {
            cell.records = 24;
        }
        grid
    }

    #[test]
    fn replay_is_canonically_identical_to_the_engine_and_accounts_exactly() {
        let scratch = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("replay-test-{}", std::process::id()));
        let store = Arc::new(ResultStore::open(scratch.join("a")).unwrap());
        let mut sweep = small_grid(false).into_sweep(2);
        sweep.set_store(Arc::new(ResultStore::open(scratch.join("b")).unwrap()));
        let engine = sweep.run();
        assert!(
            engine.cells_batched > 0,
            "the grid exercises the batch path"
        );

        trace::install();
        let cold = replay(small_grid(true), Some(&store), 2);
        let warm = replay(small_grid(true), Some(&store), 2);
        let t = trace::take();
        std::fs::remove_dir_all(&scratch).unwrap();

        assert_eq!(cold.report.canonical_json(), engine.canonical_json());
        assert_eq!(warm.report.canonical_json(), engine.canonical_json());
        assert!(
            cold.probe_mismatches.is_empty(),
            "{:?}",
            cold.probe_mismatches
        );
        let phases_ns: u64 = t.phase_ns.values().sum();
        assert_eq!(t.phase_ns.len(), 3);
        assert!(0 < phases_ns && phases_ns <= cold.pass_ns + warm.pass_ns);
        let cells = engine.cells.len() as u64;
        assert_eq!(t.count_of("store.get_calls"), 2 * cells);
        assert_eq!(t.count_of("store.put_calls"), cells);
    }
}
