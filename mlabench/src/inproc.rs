//! The in-process workloads: `Simulation` over the segment backend with
//! the `rand` policy, cliques half first, then lines half.
//!
//! The untraced run drives `Simulation::run` itself. The traced run
//! replays the same loop body from here (apply, serve, check) with spans
//! around each public call, and must reproduce the untraced outcome.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mla_core::{BatchServe, MergeLayout, RandCliques, RandLines};
use mla_graph::{GraphState, RevealEvent, RevealSource, SnapshotMode, Topology};
use mla_permutation::{Arrangement, Permutation, SegmentArrangement};
use mla_sim::{RunOutcome, Simulation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gen::{self, Rng};
use crate::report::{Metrics, Outcome, Run};
use crate::trace::{self, NoTrace, Spans, Tracer};

/// Reveals per timed block: the in-process "frame".
const BLOCK: usize = 64;

/// Node count of each half of `uniform-checked`.
const UNIFORM_N: usize = 1 << 18;
/// Node count of `whale-unchecked`; coprime to the chain stride.
const WHALE_N: usize = 40_009;

/// Seeds of the whale's algorithm RNGs (cliques, lines).
const WHALE_COINS: [u64; 2] = [1, 2];

/// Set-ups timed after each pass, besides the one that opens it.
const EXTRA_SETUPS: usize = 2;

/// One topology's input: node count and the pre-generated reveals.
struct Half {
    topology: Topology,
    n: usize,
    events: Rc<[RevealEvent]>,
    /// Seed of the algorithm's RNG.
    alg_seed: u64,
}

pub struct Workload {
    check: bool,
    halves: [Half; 2],
}

impl Workload {
    pub fn uniform_checked(seed: u64) -> Self {
        Self::uniform(UNIFORM_N, seed)
    }

    fn uniform(n: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let half = |topology, rng: &mut Rng| {
            let mut stream = rng.fork();
            Half {
                topology,
                n,
                alg_seed: stream.next_u64(),
                events: gen::uniform_events(topology, n, &mut stream).into(),
            }
        };
        Workload {
            check: true,
            halves: [
                half(Topology::Cliques, &mut rng),
                half(Topology::Lines, &mut rng),
            ],
        }
    }

    /// The whale ignores `seed`: its chain is fixed, and so are the
    /// algorithms' coins. Each late coin that moves the whale relocates
    /// it, and with free coins one seed's run took 1.9× another's.
    pub fn whale_unchecked(_seed: u64) -> Self {
        Self::whale(WHALE_N)
    }

    fn whale(n: usize) -> Self {
        let events: Rc<[RevealEvent]> = gen::whale_events(n, 0).into();
        let half = |topology, alg_seed| Half {
            topology,
            n,
            alg_seed,
            events: Rc::clone(&events),
        };
        Workload {
            check: false,
            halves: [
                half(Topology::Cliques, WHALE_COINS[0]),
                half(Topology::Lines, WHALE_COINS[1]),
            ],
        }
    }

    /// Fingerprint of the events and the algorithms' seeds.
    pub fn fingerprint(&self) -> u64 {
        let seeds: Vec<u8> = self
            .halves
            .iter()
            .flat_map(|h| h.alg_seed.to_le_bytes())
            .collect();
        gen::fingerprint(&[&self.halves[0].events, &self.halves[1].events], &seeds)
    }

    fn reveals(&self) -> usize {
        self.halves.iter().map(|h| h.events.len()).sum()
    }
}

/// The benchmark's `RevealSource` over pre-generated events. It stamps
/// the time at every `BLOCK`-th pull, so the engine's serving time per
/// block of reveals can be read off without touching the engine.
struct Source {
    topology: Topology,
    n: usize,
    events: Rc<[RevealEvent]>,
    cursor: usize,
    marks: Rc<RefCell<Vec<Instant>>>,
}

impl RevealSource for Source {
    fn topology(&self) -> Topology {
        self.topology
    }
    fn n(&self) -> usize {
        self.n
    }
    fn len(&self) -> usize {
        self.events.len()
    }
    fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
    fn next_event(&mut self) -> Option<RevealEvent> {
        if self.cursor.is_multiple_of(BLOCK) {
            self.marks.borrow_mut().push(Instant::now());
        }
        let event = self.events.get(self.cursor).copied();
        self.cursor += usize::from(event.is_some());
        event
    }
    fn restart(&mut self) {
        self.cursor = 0;
    }
}

type CliqueAlg = RandCliques<SmallRng, SegmentArrangement>;
type LineAlg = RandLines<SmallRng, SegmentArrangement>;

enum Prepared {
    Cliques(Simulation<CliqueAlg>),
    Lines(Simulation<LineAlg>),
}

impl Prepared {
    fn new(half: &Half, check: bool, marks: &Rc<RefCell<Vec<Instant>>>) -> Self {
        let source = Source {
            topology: half.topology,
            n: half.n,
            events: Rc::clone(&half.events),
            cursor: 0,
            marks: Rc::clone(marks),
        };
        let arr = SegmentArrangement::identity(half.n);
        let rng = SmallRng::seed_from_u64(half.alg_seed);
        match half.topology {
            Topology::Cliques => Prepared::Cliques(
                Simulation::from_source(source, RandCliques::new(arr, rng))
                    .record_events(false)
                    .check_feasibility(check),
            ),
            Topology::Lines => Prepared::Lines(
                Simulation::from_source(source, RandLines::new(arr, rng))
                    .record_events(false)
                    .check_feasibility(check),
            ),
        }
    }

    fn run(self) -> Result<RunOutcome, String> {
        match self {
            Prepared::Cliques(sim) => sim.run(),
            Prepared::Lines(sim) => sim.run(),
        }
        .map_err(|err| err.to_string())
    }
}

/// What one untraced pass measured.
struct Pass {
    /// The pass's own set-up, then `EXTRA_SETUPS` more after it, so that
    /// set-up samples spread over the run.
    setup_s: Vec<f64>,
    serve_s: f64,
    block_us: Vec<f64>,
    outcomes: Vec<Result<RunOutcome, String>>,
}

fn setup(w: &Workload, marks: &Rc<RefCell<Vec<Instant>>>) -> ([Prepared; 2], f64) {
    let start = Instant::now();
    let prepared = [
        Prepared::new(&w.halves[0], w.check, marks),
        Prepared::new(&w.halves[1], w.check, marks),
    ];
    (prepared, start.elapsed().as_secs_f64())
}

fn untraced_pass(w: &Workload) -> Pass {
    let marks = Rc::new(RefCell::new(Vec::new()));
    let (prepared, first_setup) = setup(w, &marks);
    let mut setup_s = vec![first_setup];
    let mut serve = Duration::ZERO;
    let mut block_us = Vec::new();
    let mut outcomes = Vec::new();
    for sim in prepared {
        marks.borrow_mut().clear();
        let start = Instant::now();
        let outcome = sim.run();
        serve += start.elapsed();
        block_us.extend(
            marks
                .borrow()
                .windows(2)
                .map(|m| (m[1] - m[0]).as_secs_f64() * 1e6),
        );
        outcomes.push(outcome);
    }
    // Timed once the pass's simulations are gone, so these set-ups never
    // raise the peak RSS above the pass's own.
    setup_s.extend((0..EXTRA_SETUPS).map(|_| setup(w, &marks).1));
    Pass {
        setup_s,
        serve_s: serve.as_secs_f64(),
        block_us,
        outcomes,
    }
}

/// Span names of the in-process replay, indexed by the `S_*` constants.
const SPAN_NAMES: &[&str] = &[
    "sim.step",
    "graph.apply",
    "graph.check",
    "core.serve",
    "core.locate",
    "core.decide",
    "core.plan",
    "permutation.merge_move",
];
const S_STEP: usize = 0;
const S_APPLY: usize = 1;
const S_CHECK: usize = 2;
const S_SERVE: usize = 3;
const S_LOCATE: usize = 4;
const S_DECIDE: usize = 5;
const S_PLAN: usize = 6;
const S_MERGE_MOVE: usize = 7;

/// Deterministic work counts of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    apply_calls: u64,
    check_touched: u64,
    moved: u64,
    swaps: u64,
    segments: u64,
}

/// The result of replaying one half.
struct Replayed {
    moving_cost: u128,
    rearranging_cost: u128,
    perm: Permutation,
    state: GraphState,
}

/// The steps of `Simulation::run`'s loop, from outside the engine: apply
/// with the engine's snapshot mode, serve, then (if on) the incremental
/// check. With `split`, `serve` is replaced by the four calls
/// `RandCliques::serve` makes, each in its own span.
fn replay<A, T>(
    mut alg: A,
    half: &Half,
    check: bool,
    split: bool,
    first_id: u32,
    counts: &mut Counts,
    tracer: &mut T,
) -> Result<Replayed, String>
where
    A: BatchServe<Arr = SegmentArrangement>,
    T: Tracer,
{
    let mode = if alg.wants_lazy_info() && alg.arrangement().supports_component_locate() {
        SnapshotMode::Lazy
    } else {
        SnapshotMode::Eager
    };
    let mut state = GraphState::new(half.topology, half.n);
    let (mut moving_cost, mut rearranging_cost) = (0u128, 0u128);
    for (k, &event) in half.events.iter().enumerate() {
        let id = first_id + k as u32;
        tracer.begin(S_STEP, id);
        tracer.begin(S_APPLY, id);
        let applied = state.apply_with(event, mode);
        tracer.end();
        let info = applied.map_err(|err| format!("reveal {k}: {err}"))?;
        counts.apply_calls += 1;
        let report = if split {
            tracer.begin(S_LOCATE, id);
            let layout = MergeLayout::locate(alg.arrangement(), &info);
            tracer.end();
            tracer.begin(S_DECIDE, id);
            let decision = alg.decide(&info, &layout);
            tracer.end();
            tracer.begin(S_PLAN, id);
            let plan = A::build_plan(&info, &layout, decision);
            tracer.end();
            counts.moved += plan.mover.len() as u64;
            counts.swaps += plan.report.moving_cost;
            tracer.begin(S_MERGE_MOVE, id);
            let report = alg.apply_plan(plan);
            tracer.end();
            report
        } else {
            tracer.begin(S_SERVE, id);
            let report = alg.serve(event, &info, &state);
            tracer.end();
            report
        };
        if check {
            tracer.begin(S_CHECK, id);
            let feasible = state.merge_keeps_minla(alg.arrangement(), &info);
            tracer.end();
            counts.check_touched += info.merged_len() as u64;
            if !feasible {
                return Err(format!("reveal {k}: arrangement is no longer a MinLA"));
            }
        }
        tracer.end();
        moving_cost += u128::from(report.moving_cost);
        rearranging_cost += u128::from(report.rearranging_cost);
    }
    counts.segments += alg.arrangement().segment_count() as u64;
    Ok(Replayed {
        moving_cost,
        rearranging_cost,
        perm: alg.arrangement().to_permutation(),
        state,
    })
}

/// Replays both halves; returns the per-half results and the wall time
/// of the replay loops alone.
fn replay_all<T: Tracer>(
    w: &Workload,
    counts: &mut Counts,
    tracer: &mut T,
) -> (Vec<Result<Replayed, String>>, f64) {
    let mut wall = 0.0;
    let mut results = Vec::new();
    let mut first_id = 0u32;
    for half in &w.halves {
        let arr = SegmentArrangement::identity(half.n);
        let rng = SmallRng::seed_from_u64(half.alg_seed);
        let start = Instant::now();
        let result = match half.topology {
            Topology::Cliques => {
                let alg: CliqueAlg = RandCliques::new(arr, rng);
                replay(alg, half, w.check, true, first_id, counts, tracer)
            }
            Topology::Lines => {
                let alg: LineAlg = RandLines::new(arr, rng);
                replay(alg, half, w.check, false, first_id, counts, tracer)
            }
        };
        wall += start.elapsed().as_secs_f64();
        results.push(result);
        first_id += half.events.len() as u32;
    }
    (results, wall)
}

/// Checks a pass's outcomes against a replay: equal costs and
/// permutation, and the permutation is a MinLA of the final graph.
/// Returns the reveals of every half that does not match.
fn verify(
    w: &Workload,
    outcomes: &[Result<RunOutcome, String>],
    reference: &[Result<Replayed, String>],
) -> usize {
    let mut failed = 0;
    for ((half, outcome), reference) in w.halves.iter().zip(outcomes).zip(reference) {
        let ok = match (outcome, reference) {
            (Ok(out), Ok(r)) => {
                out.moving_cost == r.moving_cost
                    && out.rearranging_cost == r.rearranging_cost
                    && out.total_cost == r.moving_cost + r.rearranging_cost
                    && out.final_perm == r.perm
                    && r.state.component_count() == 1
                    && r.state.is_minla(&out.final_perm)
            }
            (Err(err), _) | (_, Err(err)) => {
                eprintln!("mlabench: {:?} half failed: {err}", half.topology);
                false
            }
        };
        if !ok {
            eprintln!("mlabench: {:?} half did not verify", half.topology);
            failed += half.events.len();
        }
    }
    failed
}

/// Untraced run: passes until `seconds` have elapsed, then verification.
pub fn run_untraced(w: &Workload, seconds: f64) -> Run {
    let start = Instant::now();
    let mut passes = vec![untraced_pass(w)];
    // Read after one pass, so the figure does not depend on how many
    // passes fit in the run.
    let peak_rss_mb = crate::report::peak_rss_mb(None);
    while start.elapsed().as_secs_f64() < seconds {
        passes.push(untraced_pass(w));
    }

    let (reference, _) = replay_all(w, &mut Counts::default(), &mut NoTrace);
    let mut outcome = Outcome::default();
    let (mut setups, mut block_us) = (Vec::new(), Vec::new());
    let (mut serve_s, mut reveals) = (0.0, 0usize);
    for pass in &passes {
        outcome.attempted += w.reveals() as u64;
        outcome.failed += verify(w, &pass.outcomes, &reference) as u64;
        setups.extend_from_slice(&pass.setup_s);
        serve_s += pass.serve_s;
        reveals += w.reveals();
        block_us.extend_from_slice(&pass.block_us);
    }
    let mut metrics = Metrics::default();
    metrics.push("setup_s", trace::median(&mut setups), "s");
    metrics.push("reveals_per_s", reveals as f64 / serve_s, "1/s");
    metrics.push("peak_rss_mb", peak_rss_mb, "MB");
    metrics.push_percentiles("frame", &mut block_us);
    Run { outcome, metrics }
}

/// Traced run: untraced and traced passes alternate until `seconds`
/// have elapsed. Self times are medians over traced passes; counts must
/// repeat exactly between passes.
pub fn run_traced(w: &Workload, seconds: f64, trace_path: &std::path::Path) -> Run {
    let start = Instant::now();
    let mut outcome = Outcome::default();
    let mut self_s: Vec<Vec<f64>> = vec![Vec::new(); SPAN_NAMES.len()];
    let mut ratios = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut last_spans = None;
    while ratios.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = untraced_pass(w);
        let mut spans = Spans::new(SPAN_NAMES);
        let mut pass_counts = Counts::default();
        let (traced, wall) = replay_all(w, &mut pass_counts, &mut spans);
        outcome.attempted += 2 * w.reveals() as u64;
        outcome.failed += verify(w, &pass.outcomes, &traced) as u64;
        if *counts.get_or_insert(pass_counts) != pass_counts {
            eprintln!("mlabench: work counts differ between identical passes");
            outcome.failed += w.reveals() as u64;
        }
        ratios.push(wall / pass.serve_s);
        for (name, s) in spans.self_seconds().into_iter().enumerate() {
            self_s[name].push(s);
        }
        last_spans = Some(spans);
    }
    if let Some(spans) = &last_spans {
        if let Err(err) = spans.write_to(trace_path) {
            eprintln!("mlabench: writing {}: {err}", trace_path.display());
            outcome.failed += 1;
        }
    }
    let counts = counts.unwrap_or_default();
    let mut self_median = |name: usize| trace::median(&mut self_s[name]);
    let mut metrics = Metrics::default();
    metrics.push("graph.apply.self_s", self_median(S_APPLY), "s");
    metrics.push("graph.apply.calls", counts.apply_calls as f64, "count");
    metrics.push("graph.check.self_s", self_median(S_CHECK), "s");
    metrics.push("graph.check.touched", counts.check_touched as f64, "count");
    metrics.push("core.serve.self_s", self_median(S_SERVE), "s");
    metrics.push("core.locate.self_s", self_median(S_LOCATE), "s");
    metrics.push("core.decide.self_s", self_median(S_DECIDE), "s");
    metrics.push("core.plan.self_s", self_median(S_PLAN), "s");
    metrics.push(
        "permutation.merge_move.self_s",
        self_median(S_MERGE_MOVE),
        "s",
    );
    metrics.push("permutation.merge_move.moved", counts.moved as f64, "count");
    metrics.push("permutation.merge_move.swaps", counts.swaps as f64, "count");
    metrics.push("permutation.segments", counts.segments as f64, "count");
    metrics.push("sim.step.self_s", self_median(S_STEP), "s");
    metrics.push("trace.overhead_ratio", trace::median(&mut ratios), "ratio");
    Run { outcome, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_verify_and_traced_replay_reproduces_the_engine() {
        let trace_path = std::env::temp_dir().join("mlabench-inproc-test.bin");
        for w in [Workload::uniform(3000, 4), Workload::whale(1001)] {
            let run = run_untraced(&w, 0.0);
            assert_eq!(run.outcome.failed, 0);
            assert_eq!(run.outcome.attempted, w.reveals() as u64);
            let traced = run_traced(&w, 0.0, &trace_path);
            assert_eq!(traced.outcome.failed, 0);
            let calls = traced.metrics.get("graph.apply.calls").unwrap();
            assert_eq!(calls, w.reveals() as f64);
            // Cliques split into four spans; lines serve in one.
            assert!(traced.metrics.get("permutation.merge_move.self_s").unwrap() > 0.0);
            assert!(traced.metrics.get("core.serve.self_s").unwrap() > 0.0);
            assert_eq!(
                traced.metrics.get("graph.check.touched").unwrap() > 0.0,
                w.check
            );
        }
        let _ = std::fs::remove_file(trace_path);
    }
}
