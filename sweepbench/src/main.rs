//! Sweep benchmark: the kernel × configuration grid cold, as warm
//! re-queries against the result store, and as seed ladders, plus a
//! traced replay that times each layer.
//!
//! ```text
//! sweepbench --workload cold_grid|warm_requery|seed_ladder --seed N
//!            --seconds S --trace 0|1 --scratch DIR
//! ```
//!
//! Every loop is closed: the next sweep starts when the previous one
//! returns. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `NOTES.md` beside this package for what each metric means.

mod check;
mod grid;
mod replay;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlp_core::{ExperimentParams, ResultStore, SweepReport};
use dlp_kernels::DlpKernel;

use check::{median, peak_rss_mb, quantile, simulated_totals, unverified, Checks, Tally};
use grid::{Grid, Workload};
use trace::TracedKernel;

/// Fresh processes timed for `setup_s`; the median is reported.
const SETUP_RUNS: usize = 7;
/// Fewest timed passes of `cold_grid` and `seed_ladder` per run.
const MIN_PASSES: usize = 3;
/// Fewest warm queries per run: at least 10 samples lie beyond the p90
/// printed on standard error.
const MIN_QUERIES: usize = 110;
/// Negative layer self time (probe noise, reported as 0) allowed inside
/// any one phase, as a share of the traced pass, before the accounting
/// check fails. A share of the pass, not of the phase: a phase of a few
/// milliseconds (phase 0 of `cold_grid`) holds one probe, whose noise
/// does not average out.
const PROBE_TOLERANCE: f64 = 0.05;
/// A run stops starting new passes after this long, whatever the counts.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        scratch: PathBuf::from(need("--scratch")?),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--setup-probe") {
        setup_probe();
        return;
    }
    if let Some(dir) = flag(&args, "--fill") {
        let (Some(seed), Some(out)) = (flag(&args, "--seed"), flag(&args, "--out")) else {
            fail("--fill needs --seed and --out");
        };
        let seed = seed
            .parse()
            .unwrap_or_else(|e| fail(&format!("--seed: {e}")));
        fill(Path::new(dir), seed, Path::new(out));
        return;
    }
    let args = parse_args(&args).unwrap_or_else(|e| fail(&e));
    let scratch = args.scratch.join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).unwrap_or_else(|e| fail(&format!("scratch dir: {e}")));
    let result = measure(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", result.unwrap_or_else(|e| fail(&e)));
}

fn fail(msg: &str) -> ! {
    eprintln!("sweepbench: {msg}");
    std::process::exit(2);
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

fn identity(k: Box<dyn DlpKernel>) -> Box<dyn DlpKernel> {
    k
}

fn traced(k: Box<dyn DlpKernel>) -> Box<dyn DlpKernel> {
    Box::new(TracedKernel(k))
}

/// Child process: time from start until the suite is built and every
/// kernel's IR has been built once, then a second IR pass whose
/// difference to the first is the one-time lazy initialisation.
fn setup_probe() {
    let grid = Grid::new(
        Workload::ColdGrid,
        ExperimentParams::default().seed,
        identity,
    );
    let ir_pass = || {
        let started = Instant::now();
        for kernel in &grid.kernels {
            std::hint::black_box(kernel.ir());
        }
        started.elapsed().as_secs_f64() * 1e3
    };
    let first = ir_pass();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
    let second = ir_pass();
    let _ = writeln!(out, "ir_passes_ms {first} {second}");
}

struct SetupSample {
    setup_s: f64,
    lazy_init_ms: f64,
}

/// Spawns one setup probe: `setup_s` runs from spawn to its ready line.
fn spawn_setup_probe() -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .arg("--setup-probe")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    let stdout = child.stdout.take().ok_or("setup probe stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().and_then(Result::ok);
    let setup_s = started.elapsed().as_secs_f64();
    let passes = lines.next().and_then(Result::ok);
    let status = child.wait().map_err(|e| e.to_string())?;
    if ready.as_deref() != Some("ready") || !status.success() {
        return Err(format!("setup probe failed: {status}"));
    }
    let ms: Vec<f64> = passes
        .as_deref()
        .and_then(|l| l.strip_prefix("ir_passes_ms "))
        .map(|l| l.split(' ').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    let [first, second] = ms[..] else {
        return Err("setup probe output".into());
    };
    Ok(SetupSample {
        setup_s,
        lazy_init_ms: (first - second).max(0.0),
    })
}

/// Child process: one cold sweep of the `warm_requery` grid into the
/// store at `dir`; its canonical report goes to `out`.
fn fill(dir: &Path, seed: u64, out: &Path) {
    let store = ResultStore::open(dir).unwrap_or_else(|e| fail(&format!("open store: {e}")));
    let mut sweep = Grid::new(Workload::WarmRequery, seed, identity).into_sweep(threads());
    sweep.set_store(Arc::new(store));
    let report = sweep.run();
    std::fs::write(out, report.canonical_json()).unwrap_or_else(|e| fail(&format!("write: {e}")));
}

/// Fills a store for `warm_requery` in a child process and opens it.
fn filled_store(scratch: &Path, seed: u64) -> Result<(Arc<ResultStore>, String), String> {
    let dir = scratch.join("warm-store");
    let canon = scratch.join("fill-canonical.json");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("--fill")
        .arg(&dir)
        .args(["--seed", &seed.to_string(), "--out"])
        .arg(&canon)
        .status()
        .map_err(|e| format!("spawn fill: {e}"))?;
    if !status.success() {
        return Err(format!("fill failed: {status}"));
    }
    let canonical = std::fs::read_to_string(&canon).map_err(|e| e.to_string())?;
    let store = ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
    Ok((Arc::new(store), canonical))
}

/// One closed-loop sweep call: build the pass's sweep, run it, time it.
/// `store` is `None` (no store), or a store to attach.
fn timed_pass(
    workload: Workload,
    seed: u64,
    threads: usize,
    store: Option<&Arc<ResultStore>>,
) -> (SweepReport, f64) {
    let started = Instant::now();
    let mut sweep = Grid::new(workload, seed, identity).into_sweep(threads);
    if let Some(store) = store {
        sweep.set_store(Arc::clone(store));
    }
    let report = sweep.run();
    (report, started.elapsed().as_secs_f64() * 1e3)
}

/// Everything the passes of one run share: the store (for warm
/// queries), the reference canonical report, and the accounting.
struct RunState<'a> {
    args: &'a Args,
    scratch: &'a Path,
    warm: Option<Arc<ResultStore>>,
    reference: Option<String>,
    tally: Tally,
    checks: Checks,
    fresh: usize,
}

impl RunState<'_> {
    /// One untraced pass of the workload at `threads`, checked against
    /// the run's reference canonical report.
    fn pass(&mut self, threads: usize, what: &str) -> Result<(SweepReport, f64), String> {
        let workload = self.args.workload;
        let (report, ms) = match workload {
            Workload::ColdGrid => {
                let (store, dir) = self.fresh_store()?;
                let out = timed_pass(workload, self.args.seed, threads, Some(&store));
                drop(store);
                let _ = std::fs::remove_dir_all(dir);
                out
            }
            Workload::WarmRequery => {
                timed_pass(workload, self.args.seed, threads, self.warm.as_ref())
            }
            Workload::SeedLadder => timed_pass(workload, self.args.seed, threads, None),
        };
        self.account(&report, what);
        Ok((report, ms))
    }

    /// A fresh empty store for one cold pass, and its directory.
    fn fresh_store(&mut self) -> Result<(Arc<ResultStore>, PathBuf), String> {
        self.fresh += 1;
        let dir = self.scratch.join(format!("cold-store-{}", self.fresh));
        let store = ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        Ok((Arc::new(store), dir))
    }

    /// Checks `report` against the run's reference and, for the run's
    /// first call, counts its cells. Every later call must equal the
    /// reference canonically, outcomes included, so each distinct cell is
    /// counted once: `attempted` and `failed` depend on the seed alone,
    /// not on how many calls the host's speed fits into the run.
    fn account(&mut self, report: &SweepReport, what: &str) {
        if self.tally.attempted == 0 {
            eprintln!(
                "unverified cells in the first pass: {:?}",
                unverified(report)
            );
            self.tally.add_report(report);
        }
        let canonical = report.canonical_json();
        match &self.reference {
            Some(reference) => self.checks.same_canonical(reference, &canonical, what),
            None => self.reference = Some(canonical),
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    (name, value, unit)
}

fn measure(args: &Args, scratch: &Path) -> Result<String, String> {
    let threads = threads();
    let mut state = RunState {
        args,
        scratch,
        warm: None,
        reference: None,
        tally: Tally::default(),
        checks: Checks::default(),
        fresh: 0,
    };
    if args.workload == Workload::WarmRequery {
        let (store, canonical) = filled_store(scratch, args.seed)?;
        state.warm = Some(store);
        state.reference = Some(canonical);
    }
    // Pay the one-time lazy initialisation (it is `setup_s`, not a pass).
    for kernel in Grid::new(args.workload, args.seed, identity).kernels {
        std::hint::black_box(kernel.ir());
    }

    let metrics = if args.trace {
        traced_metrics(&mut state, threads)?
    } else {
        end_to_end_metrics(&mut state, threads)?
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        state
            .checks
            .require(value.is_finite(), || format!("{name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let Tally { attempted, failed } = state.tally;
    eprintln!(
        "{}: {failed} of {attempted} attempted cells failed; {} check(s) failed",
        args.workload.name(),
        state.checks.failures.len()
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        state.checks.ok(),
        fields.join(", ")
    ))
}

fn end_to_end_metrics(state: &mut RunState, threads: usize) -> Result<Vec<Metric>, String> {
    let workload = state.args.workload;
    let budget = Duration::from_secs_f64(state.args.seconds);
    let min_samples = if workload == Workload::WarmRequery {
        MIN_QUERIES
    } else {
        MIN_PASSES
    };
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut latencies_ms = Vec::new();
    let mut verified_per_call = 0u64;
    // One untimed call first: it meets cold caches and allocator state
    // that later calls do not.
    state.pass(threads, "warm-up call")?;
    let started = Instant::now();
    while (started.elapsed() < budget || latencies_ms.len() < min_samples)
        && started.elapsed() < HARD_STOP
    {
        // Setup samples are spread over the run, between calls, so their
        // median sees the same stretch of host time as the calls do.
        let due = budget.mul_f64(setup.len() as f64 / SETUP_RUNS as f64);
        if setup.len() < SETUP_RUNS && started.elapsed() >= due {
            setup.push(spawn_setup_probe()?.setup_s);
            continue;
        }
        let (report, ms) = state.pass(threads, "timed pass vs the run's first")?;
        verified_per_call = report.cells.iter().filter(|c| c.outcome.verified()).count() as u64;
        latencies_ms.push(ms);
    }
    while setup.len() < SETUP_RUNS {
        setup.push(spawn_setup_probe()?.setup_s);
    }
    if latencies_ms.len() < min_samples {
        eprintln!("only {} samples before the hard stop", latencies_ms.len());
    }
    let p25 = quantile(&latencies_ms, 0.25);
    eprintln!(
        "{}: {} samples, p25 {p25:.2} ms, p50 {:.2}, p90 {:.2}, min {:.2}, max {:.2}; setup {setup:.3?}",
        workload.name(),
        latencies_ms.len(),
        median(&latencies_ms),
        quantile(&latencies_ms, 0.9),
        quantile(&latencies_ms, 0.0),
        quantile(&latencies_ms, 1.0),
    );
    if latencies_ms.len() <= 20 {
        eprintln!("pass latencies (ms): {latencies_ms:.0?}");
    }
    // Throughput at the first-quartile call, not the median or the mean:
    // on a shared host, other tenants switch the CPU's speed between two
    // regimes in stretches of seconds. A median jumps with whichever regime
    // held longer and a mean moves with the share of each; the fastest
    // quarter of the calls is the program at the undisturbed speed.
    Ok(vec![
        metric("setup_s", median(&setup), "s"),
        metric("cells_per_s", verified_per_call as f64 / (p25 / 1e3), "1/s"),
        metric(
            "peak_rss_mb",
            peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
            "MB",
        ),
    ])
}

/// Calls are repeated, and the pass replayed, until this much time is
/// on record, so a short warm query is traced as many times as it takes
/// for probe noise to average out; per-layer metrics are per pass.
const TRACE_MIN_MS: f64 = 1000.0;

fn traced_metrics(state: &mut RunState, threads: usize) -> Result<Vec<Metric>, String> {
    let args = state.args;
    let lazy_init_ms = spawn_setup_probe()?.lazy_init_ms;
    let mut calls = |threads: usize, what: &str| -> Result<(SweepReport, f64), String> {
        let (mut report, mut latencies) = (None, Vec::new());
        while latencies.iter().sum::<f64>() < TRACE_MIN_MS {
            let (r, ms) = state.pass(threads, what)?;
            report = Some(r);
            latencies.push(ms);
        }
        Ok((report.expect("at least one call"), median(&latencies)))
    };
    let (parallel, parallel_ms) = calls(threads, "parallel call")?;
    let (_, serial_ms) = calls(1, "serial call vs parallel")?;

    // The traced replays, against the same kind of store the calls use.
    trace::install();
    let mut replays = Vec::new();
    while replays
        .iter()
        .map(|r: &replay::Replay| r.pass_ns as f64 / 1e6)
        .sum::<f64>()
        < TRACE_MIN_MS
    {
        let cold = match args.workload {
            Workload::ColdGrid => Some(state.fresh_store()?),
            _ => None,
        };
        let store = cold.as_ref().map(|(s, _)| s).or(state.warm.as_ref());
        let grid = Grid::new(args.workload, args.seed, traced);
        replays.push(replay::replay(grid, store, threads));
        if let Some((store, dir)) = cold {
            drop(store);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let t = trace::take();
    for replay in &replays {
        state.account(&replay.report, "traced replay vs untraced calls");
        for m in &replay.probe_mismatches {
            state
                .checks
                .require(false, || format!("probe disagrees with its call: {m}"));
        }
    }
    let per_pass = replays.len() as f64;
    let pass_ns: f64 = replays.iter().map(|r| r.pass_ns as f64).sum::<f64>() / per_pass;
    // No span is counted twice: in each phase, the layer self times as
    // reported (clamped at 0) add up to the phase's span.
    for m in t.unaccounted_phases(PROBE_TOLERANCE * pass_ns * per_pass) {
        state
            .checks
            .require(false, || format!("self-time accounting: {m}"));
    }
    let phase_ms = |name: &str| t.phase_ns.get(name).copied().unwrap_or(0) as f64 / per_pass / 1e6;
    let executed_cycles: f64 = replays.iter().map(|r| r.executed_cycles as f64).sum();
    // A layer total below zero is probe noise: it is reported as 0.
    let clamped_ns = t
        .self_ns
        .values()
        .filter(|&&ns| ns < 0)
        .map(|ns| -ns)
        .sum::<i64>() as f64;

    if args.workload == Workload::ColdGrid {
        matches_sweep_bin(state, threads)?;
    }

    // Counters the engine keeps itself come from the untraced call.
    let totals = simulated_totals(&parallel);
    let cache_hits = parallel.workload_cache_hits as f64;
    let store_hits = parallel.store_hits as f64;
    let ms = |layer: &str| t.self_ms(layer).max(0.0) / per_pass;
    let n = |name: &str| t.count_of(name) as f64 / per_pass;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let glue = ["sweep.pass", "sweep.phase0", "sweep.phase1", "sweep.phase2"]
        .iter()
        .map(|l| t.self_ns.get(l).copied().unwrap_or(0))
        .sum::<i64>() as f64
        / per_pass;
    let sim_ms = ms("sim.scalar") + ms("sim.batch");
    eprintln!("layer self times (ms) per traced serial pass, {per_pass} pass(es):");
    for (layer, ns) in &t.self_ns {
        eprintln!("  {layer:<24} {:>10.2}", *ns as f64 / 1e6 / per_pass);
    }
    for (phase, &span) in &t.phase_ns {
        let excess = t.reported_ns(phase) as f64 - span as f64;
        eprintln!(
            "  {phase} reported - span: {:.2}% of the pass",
            100.0 * excess / (pass_ns * per_pass)
        );
    }
    eprintln!(
        "  parallel {parallel_ms:.1} ms, serial {serial_ms:.1} ms, traced {:.1} ms, probes {:.1} ms",
        pass_ns / 1e6,
        t.probe_ns as f64 / 1e6 / per_pass
    );
    Ok(vec![
        metric("sweep.phase0_ms", phase_ms("sweep.phase0"), "ms"),
        metric("sweep.phase1_ms", phase_ms("sweep.phase1"), "ms"),
        metric("sweep.phase2_ms", phase_ms("sweep.phase2"), "ms"),
        metric(
            "sweep.parallel_efficiency",
            serial_ms / (threads as f64 * parallel_ms),
            "ratio",
        ),
        metric("isa.validate_ms", ms("isa.validate"), "ms"),
        metric("isa.validate_calls", n("isa.validate_calls"), "count"),
        metric("verify.dataflow_ms", ms("verify.dataflow"), "ms"),
        metric("verify.mimd_ms", ms("verify.mimd"), "ms"),
        metric("verify.analyze_ms", ms("verify.analyze"), "ms"),
        metric("sched.schedule_ms", ms("sched.schedule"), "ms"),
        metric("sched.planned_unroll_ms", ms("sched.planned_unroll"), "ms"),
        metric("core.prepare_ms", ms("core.prepare"), "ms"),
        metric(
            "core.plans_prepared",
            parallel.plans_prepared as f64,
            "count",
        ),
        metric("core.plan_reuses", parallel.plan_reuses as f64, "count"),
        metric(
            "core.workload_cache_hit_ratio",
            ratio(
                cache_hits,
                cache_hits + parallel.workload_cache_misses as f64,
            ),
            "ratio",
        ),
        metric("kernels.ir_ms", ms("kernels.ir"), "ms"),
        metric("kernels.ir_calls", n("kernels.ir_calls"), "count"),
        metric("kernels.mimd_ms", ms("kernels.mimd"), "ms"),
        metric("kernels.workload_ms", ms("kernels.workload"), "ms"),
        metric(
            "kernels.workload_calls",
            n("kernels.workload_calls"),
            "count",
        ),
        metric("kernels.lazy_init_ms", lazy_init_ms, "ms"),
        metric("store.keys_ms", ms("store.keys"), "ms"),
        metric("store.fingerprint_ms", ms("store.fingerprint"), "ms"),
        metric("store.get_ms", ms("store.get"), "ms"),
        metric("store.get_calls", n("store.get_calls"), "count"),
        metric(
            "store.hit_ratio",
            ratio(store_hits, store_hits + parallel.store_misses as f64),
            "ratio",
        ),
        metric("store.put_ms", ms("store.put"), "ms"),
        metric("store.put_calls", n("store.put_calls"), "count"),
        metric("sim.scalar_ms", ms("sim.scalar"), "ms"),
        metric(
            "sim.scalar_cells",
            (parallel.cells_executed - parallel.cells_batched) as f64,
            "count",
        ),
        metric("sim.batch_ms", ms("sim.batch"), "ms"),
        metric("sim.batched_cells", parallel.cells_batched as f64, "count"),
        metric("sim.batch_occupancy", parallel.batch_occupancy, "ratio"),
        metric(
            "sim.host_ns_per_cycle",
            ratio(sim_ms * 1e6 * per_pass, executed_cycles),
            "ns",
        ),
        metric("sim.cycles", totals.cycles() as f64, "cycles"),
        metric("noc.net_msgs", totals.net_msgs as f64, "count"),
        metric("noc.net_hops", totals.net_hops as f64, "count"),
        metric("mem.l1_accesses", totals.l1_accesses as f64, "count"),
        metric("mem.l1_misses", totals.l1_misses as f64, "count"),
        metric("mem.smc_accesses", totals.smc_accesses as f64, "count"),
        metric(
            "mem.stall_node_cycles",
            totals.mem_stall_node_cycles as f64,
            "cycles",
        ),
        metric(
            "trace.overhead_frac",
            (pass_ns / 1e6 - serial_ms) / serial_ms,
            "ratio",
        ),
        metric("trace.coverage_frac", 1.0 - glue / pass_ns, "ratio"),
        metric("trace.probe_ms", t.probe_ns as f64 / 1e6 / per_pass, "ms"),
        metric(
            "trace.probe_excess_ms",
            t.excess_ns as f64 / 1e6 / per_pass,
            "ms",
        ),
        metric("trace.clamped_ms", clamped_ns / 1e6 / per_pass, "ms"),
    ])
}

/// At the default seed, a cold pass must be canonically identical to
/// what `sweep --canonical` writes: the benchmark measures what users run.
/// The `sweep` binary is built beside this one.
fn matches_sweep_bin(state: &mut RunState, threads: usize) -> Result<(), String> {
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("sweep");
    if !bin.is_file() {
        return Err(format!("no `sweep` binary at {}", bin.display()));
    }
    let seed = ExperimentParams::default().seed;
    let (report, _) = timed_pass(Workload::ColdGrid, seed, threads, None);
    state.tally.add_report(&report);
    let out = state.scratch.join("sweep-canonical.json");
    let status = Command::new(&bin)
        .args(["--canonical", "--threads", &threads.to_string(), "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let theirs = std::fs::read_to_string(&out).unwrap_or_default();
    if !status.success() {
        eprintln!(
            "sweep exited {status}; unverified cells: {:?}",
            unverified(&report)
        );
    }
    state.checks.same_canonical(
        &theirs,
        &report.canonical_json(),
        "default seed vs `sweep --canonical`",
    );
    Ok(())
}
