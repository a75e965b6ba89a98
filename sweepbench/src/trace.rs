//! Spans and self-time accounting for the traced replay.
//!
//! Spans nest on one thread. A layer's *self* time is its span minus the
//! spans directly inside it. A child the benchmark cannot wrap from
//! outside (say `DataflowBlock::validate` inside `schedule_dataflow`) is
//! timed by a *probe*: the child's public function re-invoked on the same
//! inputs after the parent returns. The probe's duration is attached to
//! the open parent as an estimated child, and the wall time the probe
//! itself took is paused out of every open span, so probes never count
//! towards the pass they describe.
//!
//! Self times are booked signed. A probe is a second run of the child,
//! not the run inside the parent, so one span's self time can come out
//! below zero (`DataflowBlock::validate` alone varies from call to call
//! with `HashMap` iteration order). Summed over a layer's many spans the
//! noise cancels, and the layer totals are what must be non-negative.
//! They are reported clamped at zero, so the check that no time is
//! counted twice is per phase: the clamped self times booked inside a
//! phase must add up to the phase's span (see [`Tracer::reported_ns`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use dlp_common::{DlpError, Value};
use dlp_kernel_ir::KernelIr;
use dlp_kernels::{DlpKernel, MimdTarget, OutputKind, Workload};
use trips_isa::MimdProgram;

/// A probe-estimated child span: a duration and the estimated spans
/// inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Est {
    pub name: &'static str,
    pub ns: u64,
    pub children: Vec<Est>,
}

impl Est {
    pub fn leaf(name: &'static str, ns: u64) -> Est {
        Est {
            name,
            ns,
            children: Vec::new(),
        }
    }
}

struct Open {
    name: &'static str,
    start: u64,
    /// Probe time spent while this span was open.
    paused: u64,
    /// Summed durations of the direct children.
    children: u64,
}

/// Span stack plus the per-layer ledger it books into.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Open>,
    pub self_ns: BTreeMap<&'static str, i64>,
    /// The phase open now, if any.
    phase: Option<&'static str>,
    /// Self times booked inside each phase, by (phase, layer).
    pub phase_self_ns: BTreeMap<(&'static str, &'static str), i64>,
    /// Summed durations of each phase.
    pub phase_ns: BTreeMap<&'static str, u64>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Summed amounts by which children exceeded their span: the probe
    /// noise behind negative single-span self times.
    pub excess_ns: u64,
    /// Wall time spent inside probes.
    pub probe_ns: u64,
}

impl Tracer {
    pub fn open_at(&mut self, name: &'static str, t: u64) {
        self.stack.push(Open {
            name,
            start: t,
            paused: 0,
            children: 0,
        });
    }

    /// Closes the innermost span at `t`, books its self time and returns
    /// its duration.
    pub fn close_at(&mut self, t: u64) -> u64 {
        let span = self.stack.pop().expect("close matches an open span");
        let incl = t.saturating_sub(span.start).saturating_sub(span.paused);
        self.book(span.name, incl, span.children);
        if let Some(parent) = self.stack.last_mut() {
            parent.children += incl;
        }
        incl
    }

    /// Opens a phase: a span whose subtree is booked under its name too.
    pub fn open_phase_at(&mut self, name: &'static str, t: u64) {
        assert!(self.phase.is_none(), "phases do not nest");
        self.phase = Some(name);
        self.open_at(name, t);
    }

    pub fn close_phase_at(&mut self, t: u64) -> u64 {
        let incl = self.close_at(t);
        let name = self.phase.take().expect("close matches an open phase");
        *self.phase_ns.entry(name).or_default() += incl;
        incl
    }

    /// Attaches a probe estimate as a child of the innermost open span.
    pub fn attach(&mut self, est: &Est) {
        self.book_est(est);
        let parent = self
            .stack
            .last_mut()
            .expect("estimates attach to an open span");
        parent.children += est.ns;
    }

    /// Pauses every open span for `ns` of probe wall time.
    pub fn pause(&mut self, ns: u64) {
        self.probe_ns += ns;
        for span in &mut self.stack {
            span.paused += ns;
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn book(&mut self, name: &'static str, incl: u64, children: u64) {
        let own = incl as i64 - children as i64;
        self.excess_ns += children.saturating_sub(incl);
        *self.self_ns.entry(name).or_default() += own;
        if let Some(phase) = self.phase {
            *self.phase_self_ns.entry((phase, name)).or_default() += own;
        }
    }

    fn book_est(&mut self, est: &Est) {
        for child in &est.children {
            self.book_est(child);
        }
        let children: u64 = est.children.iter().map(|c| c.ns).sum();
        self.book(est.name, est.ns, children);
    }

    /// The layer self times booked inside `phase`, each clamped at zero
    /// as they are reported, summed. Within probe noise this is the
    /// phase's span; a child counted twice drives its parent's self time
    /// below zero, and the clamped sum then exceeds the span.
    pub fn reported_ns(&self, phase: &str) -> u64 {
        self.phase_self_ns
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, &ns)| ns.max(0) as u64)
            .sum()
    }

    /// The phases whose reported self times differ from their span by
    /// more than `allowed_ns`.
    pub fn unaccounted_phases(&self, allowed_ns: f64) -> Vec<String> {
        self.phase_ns
            .iter()
            .filter_map(|(&phase, &span)| {
                let reported = self.reported_ns(phase);
                (reported.abs_diff(span) as f64 > allowed_ns).then(|| {
                    format!("{phase}: layer self times sum to {reported} ns, span is {span} ns")
                })
            })
            .collect()
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

thread_local! {
    static TRACER: RefCell<Option<(Instant, Tracer)>> = const { RefCell::new(None) };
    /// Inside a probe: kernel calls add their time here instead of
    /// opening spans, so a probe can subtract work already traced.
    static PROBE_KERNEL_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Starts tracing on this thread.
pub fn install() {
    TRACER.with(|t| *t.borrow_mut() = Some((Instant::now(), Tracer::default())));
}

/// Stops tracing on this thread and hands back the ledger.
pub fn take() -> Tracer {
    let (_, tracer) = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracer installed before take");
    assert!(tracer.stack.is_empty(), "every span closed");
    tracer
}

fn with<R>(f: impl FnOnce(&mut Tracer, u64) -> R) -> Option<R> {
    TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|(epoch, tracer)| {
            let now = epoch.elapsed().as_nanos() as u64;
            f(tracer, now)
        })
    })
}

/// Runs `f` inside a span named `name`; returns its duration too.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    with(|t, now| t.open_at(name, now));
    let r = f();
    let incl = with(|t, now| t.close_at(now)).unwrap_or_default();
    (r, incl)
}

/// Runs `f` inside a phase span named `name`.
pub fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    with(|t, now| t.open_phase_at(name, now));
    let r = f();
    with(|t, now| t.close_phase_at(now));
    r
}

pub fn count(name: &'static str, n: u64) {
    with(|t, _| t.count(name, n));
}

/// Runs a probe: its wall time is paused out of the open spans, and the
/// estimate it returns is attached to the innermost one.
pub fn probe(f: impl FnOnce() -> Vec<Est>) {
    let outer = PROBE_KERNEL_NS.with(|p| p.replace(Some(0)));
    let started = Instant::now();
    let ests = f();
    let ns = started.elapsed().as_nanos() as u64;
    PROBE_KERNEL_NS.with(|p| p.set(outer));
    with(|t, _| {
        t.pause(ns);
        for est in &ests {
            t.attach(est);
        }
    });
}

/// Times `f`. Kernel calls made inside it are timed separately and
/// returned as the second element, so the caller can take them out.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let outer = PROBE_KERNEL_NS.with(|p| p.replace(Some(0)));
    let started = Instant::now();
    let r = f();
    let ns = started.elapsed().as_nanos() as u64;
    let kernel_ns = PROBE_KERNEL_NS.with(|p| p.replace(outer)).unwrap_or(0);
    (r, ns, kernel_ns)
}

/// Wraps a suite kernel so that every call the program makes into the
/// `kernels` layer is a span (or, inside a probe, probe-local time). It
/// changes nothing the program observes: same name, IR, programs and
/// workloads.
pub struct TracedKernel(pub Box<dyn DlpKernel>);

impl TracedKernel {
    fn call<R>(&self, layer: &'static str, calls: &'static str, f: impl FnOnce() -> R) -> R {
        if PROBE_KERNEL_NS.with(Cell::get).is_some() {
            let started = Instant::now();
            let r = f();
            let ns = started.elapsed().as_nanos() as u64;
            PROBE_KERNEL_NS.with(|p| p.set(p.get().map(|acc| acc + ns)));
            return r;
        }
        count(calls, 1);
        span(layer, f).0
    }
}

impl DlpKernel for TracedKernel {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn description(&self) -> &'static str {
        self.0.description()
    }

    fn ir(&self) -> KernelIr {
        self.call("kernels.ir", "kernels.ir_calls", || self.0.ir())
    }

    fn mimd_program(&self, target: MimdTarget) -> Result<MimdProgram, DlpError> {
        self.call("kernels.mimd", "kernels.mimd_calls", || {
            self.0.mimd_program(target)
        })
    }

    fn workload(&self, records: usize, seed: u64) -> Workload {
        self.call("kernels.workload", "kernels.workload_calls", || {
            self.0.workload(records, seed)
        })
    }

    fn mimd_table_image(&self) -> Vec<Value> {
        self.call("kernels.mimd", "kernels.mimd_calls", || {
            self.0.mimd_table_image()
        })
    }

    fn output_kind(&self) -> OutputKind {
        self.0.output_kind()
    }

    fn in_perf_suite(&self) -> bool {
        self.0.in_perf_suite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// pass[0,100] ⊃ phase[10,90] ⊃ { a[20,50] ⊃ b[30,40], est c=15 ⊃ d=5 }
    #[test]
    fn self_times_sum_to_the_span_without_double_counting() {
        let mut t = Tracer::default();
        t.open_at("pass", 0);
        t.open_phase_at("phase", 10);
        t.open_at("a", 20);
        t.open_at("b", 30);
        assert_eq!(t.close_at(40), 10);
        assert_eq!(t.close_at(50), 30);
        t.attach(&Est {
            name: "c",
            ns: 15,
            children: vec![Est::leaf("d", 5)],
        });
        assert_eq!(t.close_phase_at(90), 80);
        assert_eq!(t.close_at(100), 100);

        let self_of = |n| t.self_ns[n];
        assert_eq!(
            [
                self_of("pass"),
                self_of("phase"),
                self_of("a"),
                self_of("b"),
                self_of("c"),
                self_of("d")
            ],
            [20, 35, 20, 10, 10, 5]
        );
        assert_eq!(t.excess_ns, 0);
        assert_eq!(t.phase_ns["phase"], 80);
        assert_eq!(t.reported_ns("phase"), 80);
        assert!(!t.phase_self_ns.contains_key(&("phase", "pass")));
        assert!(t.unaccounted_phases(0.0).is_empty());
    }

    /// A child counted twice, once as a span and again as an estimate,
    /// drives its parent below zero; the phase check catches it.
    #[test]
    fn a_child_counted_twice_fails_the_phase_check() {
        let mut t = Tracer::default();
        t.open_phase_at("phase", 0);
        t.open_at("prepare", 0);
        t.open_at("validate", 10);
        t.close_at(90);
        t.attach(&Est::leaf("validate", 80));
        t.close_at(100);
        t.close_phase_at(100);
        assert_eq!(t.self_ns["prepare"], -60);
        assert_eq!(t.reported_ns("phase"), 160);
        assert_eq!(t.unaccounted_phases(5.0).len(), 1);
    }

    #[test]
    fn probe_time_is_paused_out_of_open_spans() {
        let mut t = Tracer::default();
        t.open_phase_at("phase", 0);
        t.open_at("prepare", 0);
        t.pause(40);
        t.attach(&Est::leaf("validate", 20));
        assert_eq!(t.close_at(100), 60);
        assert_eq!(t.close_phase_at(100), 60);
        assert_eq!(t.self_ns["prepare"], 40);
        assert_eq!(t.self_ns["phase"], 0);
        assert_eq!(t.probe_ns, 40);
        assert!(t.unaccounted_phases(0.0).is_empty());
    }

    #[test]
    fn probe_noise_cancels_across_spans_of_one_layer() {
        let mut t = Tracer::default();
        t.open_phase_at("phase", 0);
        t.open_at("prepare", 0);
        t.attach(&Est::leaf("schedule", 70));
        t.close_at(50);
        t.open_at("prepare", 50);
        t.attach(&Est::leaf("schedule", 30));
        t.close_at(100);
        t.close_phase_at(100);
        assert_eq!(t.self_ns["prepare"], 0);
        assert_eq!(t.self_ns["schedule"], 100);
        assert_eq!(t.excess_ns, 20);
        assert!(t.unaccounted_phases(0.0).is_empty());
    }

    /// Noise that does not cancel is clamped, and the check allows it
    /// up to the allowance.
    #[test]
    fn clamped_probe_noise_is_held_to_the_tolerance() {
        let mut t = Tracer::default();
        t.open_phase_at("phase", 0);
        t.open_at("prepare", 0);
        t.attach(&Est::leaf("schedule", 101));
        t.close_at(100);
        t.open_at("sim", 100);
        t.close_at(1000);
        t.close_phase_at(1000);
        assert_eq!(t.reported_ns("phase"), 1001);
        assert!(t.unaccounted_phases(0.0).len() == 1);
        assert!(t.unaccounted_phases(20.0).is_empty());
    }
}
