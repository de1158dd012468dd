//! Conflict-detection layer properties and batched-execution
//! equivalence.
//!
//! * Every batch the [`BatchPlanner`] seals is a **consecutive** prefix
//!   of the pending reveals whose spans are **pairwise disjoint** — on
//!   fuzzed workloads, against both the dense and the segment backend.
//! * The batched executor returns outcomes (and errors) identical to
//!   the sequential loop for every algorithm × topology, including
//!   adaptive adversaries and streaming sources.
//! * The `record_window(k)` trailing-stats mode retains exactly the
//!   last `k` reports in both execution modes.

use mla::prelude::*;
use mla::sim::{open_session, BackendKind, PlannedReveal, PolicyKind, SessionSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fuzzed_instance(topology: Topology, n: usize, seed: u64) -> Instance {
    let shapes = MergeShape::all();
    let shape = shapes[seed as usize % shapes.len()];
    let mut rng = SmallRng::seed_from_u64(seed);
    if seed.is_multiple_of(3) {
        let shards = 1 + (seed as usize % 7);
        sharded_instance(topology, n, shards, shape, &mut rng)
    } else {
        match topology {
            Topology::Cliques => random_clique_instance(n, shape, &mut rng),
            Topology::Lines => random_line_instance(n, shape, &mut rng),
        }
    }
}

/// Drives the planner over a whole run (applying each sealed batch
/// through the decide/plan/apply pipeline) and checks, per batch:
/// consecutive events, pairwise-disjoint spans, and pairwise-distinct
/// merging components.
fn check_planner_batches<A, F>(instance: &Instance, make: F)
where
    A: BatchServe,
    A::Arr: Sync,
    F: FnOnce() -> A,
{
    let mut alg = make();
    let mut state = GraphState::new(instance.topology(), instance.n());
    let mut planner = BatchPlanner::new(64);
    let mut pending: std::collections::VecDeque<RevealEvent> =
        instance.events().iter().copied().collect();
    let mut served = 0usize;
    while served < instance.len() {
        while planner.queued() < planner.refill_target() {
            match pending.pop_front() {
                Some(event) => planner.push(event),
                None => break,
            }
        }
        let batch = planner
            .plan_batch(&state, alg.arrangement(), 1)
            .expect("fuzzed instances are valid");
        assert!(!batch.is_empty(), "planner must make progress");
        // Batches are consecutive reveals, in order.
        for (offset, planned) in batch.iter().enumerate() {
            assert_eq!(
                planned.event,
                instance.events()[served + offset],
                "batch is not the consecutive next prefix"
            );
        }
        // Spans are pairwise disjoint.
        let spans: Vec<_> = batch.iter().map(PlannedReveal::span).collect();
        assert!(
            ConflictGraph::new(spans.clone()).is_pairwise_disjoint(),
            "sealed spans overlap: {spans:?}"
        );
        // Disjoint spans imply pairwise-distinct merging components.
        let mut joined: Vec<Node> = Vec::new();
        for planned in &batch {
            for v in [planned.event.a(), planned.event.b()] {
                let root = state.component_id(v);
                assert!(
                    !joined.contains(&root),
                    "two merges of one batch touch the same component"
                );
                joined.push(root);
            }
        }
        // Apply the batch exactly as the engine would.
        for planned in &batch {
            state.commit(planned.event);
        }
        for planned in &batch {
            let decision = alg.decide(&planned.info, &planned.layout);
            let plan = A::build_plan(&planned.info, &planned.layout, decision);
            alg.apply_plan(plan);
        }
        planner.retire_batch(&state, &batch);
        served += batch.len();
    }
    assert!(planner.is_empty() && pending.is_empty());
    assert!(state.is_minla(alg.arrangement()), "final feasibility");
}

#[test]
fn planner_batches_are_span_disjoint_on_fuzzed_workloads() {
    let n = 48;
    for seed in 0..12u64 {
        let cliques = fuzzed_instance(Topology::Cliques, n, seed);
        check_planner_batches(&cliques, || {
            RandCliques::new(Permutation::identity(n), SmallRng::seed_from_u64(seed))
        });
        check_planner_batches(&cliques, || {
            RandCliques::new(
                SegmentArrangement::identity(n),
                SmallRng::seed_from_u64(seed),
            )
        });
        let lines = fuzzed_instance(Topology::Lines, n, seed);
        check_planner_batches(&lines, || {
            RandLines::new(Permutation::identity(n), SmallRng::seed_from_u64(seed))
        });
        check_planner_batches(&lines, || {
            RandLines::new(
                SegmentArrangement::identity(n),
                SmallRng::seed_from_u64(seed),
            )
        });
    }
}

/// Batched ≡ sequential at RunOutcome level for every algorithm policy ×
/// topology on fuzzed (mixed-shape, sometimes sharded) workloads.
#[test]
fn batched_equals_sequential_on_fuzzed_workloads() {
    let n = 40;
    for seed in 0..8u64 {
        for topology in [Topology::Cliques, Topology::Lines] {
            let instance = fuzzed_instance(topology, n, seed);
            for (move_policy, rearrange_policy) in [
                (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
                (MovePolicy::Fair, RearrangePolicy::Fair),
                (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
            ] {
                let (sequential, batched) = match topology {
                    Topology::Cliques => {
                        let make = || {
                            RandCliques::with_policy(
                                SegmentArrangement::identity(n),
                                SmallRng::seed_from_u64(seed ^ 0xC0),
                                move_policy,
                            )
                        };
                        (
                            Simulation::new(instance.clone(), make()).run(),
                            Simulation::new(instance.clone(), make()).parallel(4).run(),
                        )
                    }
                    Topology::Lines => {
                        let make = || {
                            RandLines::with_policies(
                                SegmentArrangement::identity(n),
                                SmallRng::seed_from_u64(seed ^ 0xC0),
                                move_policy,
                                rearrange_policy,
                            )
                        };
                        (
                            Simulation::new(instance.clone(), make()).run(),
                            Simulation::new(instance.clone(), make()).parallel(4).run(),
                        )
                    }
                };
                assert_eq!(
                    sequential.expect("valid instance"),
                    batched.expect("valid instance"),
                    "{topology:?} seed {seed} {move_policy:?}/{rearrange_policy:?}"
                );
            }
        }
    }
}

/// Degraded mode must be genuinely zero-cost: a parallel run parked at
/// window 1 (the state every conflict-dense uniform workload degrades
/// to) serves every reveal through the planner's batch-of-1 fast path
/// and never performs a single [`ConflictGraph`] allocation.
#[test]
fn parked_window_one_run_allocates_no_conflict_graphs() {
    let n = 256;
    let mut rng = SmallRng::seed_from_u64(21);
    let instance = random_clique_instance(n, MergeShape::Uniform, &mut rng);
    let run = |threads: usize| {
        Simulation::new(
            instance.clone(),
            RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(22)),
        )
        .parallel(threads)
        .batch_window(1)
        .run()
        .expect("valid instance")
    };
    let sequential = Simulation::new(
        instance.clone(),
        RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(22)),
    )
    .run()
    .expect("valid instance");
    for threads in [1usize, 4] {
        // The planner and the batch-of-1 serve path both run on this
        // thread, so the thread-local counter sees every allocation the
        // parked pipeline would make.
        let before = mla::sim::conflict_graph_allocations();
        let outcome = run(threads);
        let after = mla::sim::conflict_graph_allocations();
        assert_eq!(
            after - before,
            0,
            "parked (window-1) run built a ConflictGraph at T={threads}"
        );
        assert_eq!(sequential, outcome, "parked run diverged at T={threads}");
    }
}

/// An adversary replaying arbitrary (possibly invalid) events, to check
/// error-path equivalence between the two executors.
struct RawReplay {
    topology: Topology,
    n: usize,
    events: std::vec::IntoIter<RevealEvent>,
}

impl Adversary for RawReplay {
    fn n(&self) -> usize {
        self.n
    }
    fn topology(&self) -> Topology {
        self.topology
    }
    fn next(&mut self, _: &dyn Arrangement, _: &GraphState) -> Option<RevealEvent> {
        self.events.next()
    }
    fn is_oblivious(&self) -> bool {
        true
    }
}

#[test]
fn batched_reports_invalid_reveals_like_sequential() {
    let n = 12;
    let ev = |a: usize, b: usize| RevealEvent::new(Node::new(a), Node::new(b));
    // Valid prefix, then a duplicate merge (SameComponent), then more
    // events that must never be served.
    let events = vec![ev(0, 1), ev(4, 5), ev(8, 9), ev(1, 0), ev(2, 3)];
    let run = |parallel: bool| {
        let adversary = RawReplay {
            topology: Topology::Cliques,
            n,
            events: events.clone().into_iter(),
        };
        let sim = Simulation::with_adversary(
            Box::new(adversary),
            RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
        );
        if parallel {
            sim.parallel(4).run()
        } else {
            sim.run()
        }
    };
    let sequential = run(false).expect_err("duplicate merge must fail");
    let batched = run(true).expect_err("duplicate merge must fail");
    assert_eq!(sequential, batched);
    assert!(matches!(sequential, SimError::Graph(_)));

    // A serving session given the same reveals as one frame fails the
    // same way, keeps the valid prefix and drops the rest of the frame.
    let spec = SessionSpec::new(
        Topology::Cliques,
        n,
        PolicyKind::Rand,
        BackendKind::Segment,
        7,
    );
    let mut session = open_session(spec).expect("valid spec");
    let served = session
        .apply_events(&events)
        .expect_err("duplicate merge must fail");
    assert_eq!(sequential, served);
    assert_eq!(session.steps(), 3);
    let prefix = Instance::new(Topology::Cliques, n, events[..3].to_vec()).expect("valid prefix");
    let want = Simulation::new(
        prefix,
        RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
    )
    .run()
    .expect("valid prefix");
    assert_eq!(session.outcome(), want);
}

#[test]
fn adaptive_adversaries_degenerate_to_the_sequential_loop() {
    // DetLineAdversary inspects the arrangement before every reveal;
    // the batched executor must force a window of 1 and still match.
    let n = 17;
    let pi0 = Permutation::identity(n);
    let make = || {
        Simulation::with_adversary(
            Box::new(DetLineAdversary::new(pi0.clone(), Topology::Lines)),
            RandLines::new(pi0.clone(), SmallRng::seed_from_u64(3)),
        )
    };
    let sequential = make().run().expect("valid adaptive run");
    for threads in [1usize, 4] {
        assert_eq!(
            sequential,
            make().parallel(threads).run().expect("valid adaptive run"),
            "adaptive run diverged at T={threads}"
        );
    }
}

#[test]
fn streaming_sources_batch_identically() {
    let n = 200;
    let make = |parallel: Option<usize>| {
        let source = StreamingWorkload::new(Topology::Cliques, n, MergeShape::Uniform, 9);
        let sim = Simulation::from_source(
            source,
            RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(5)),
        )
        .record_events(false);
        match parallel {
            None => sim.run(),
            Some(t) => sim.parallel(t).batch_window(32).run(),
        }
    };
    let sequential = make(None).expect("valid stream");
    for threads in [1usize, 4] {
        assert_eq!(sequential, make(Some(threads)).expect("valid stream"));
    }
}

#[test]
fn record_window_keeps_the_trailing_reports() {
    let n = 64;
    let instance = fuzzed_instance(Topology::Cliques, n, 1);
    let run = |window: Option<usize>, parallel: bool| {
        let mut sim = Simulation::new(
            instance.clone(),
            RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(2)),
        );
        if let Some(k) = window {
            sim = sim.record_window(k);
        }
        if parallel {
            sim.parallel(4).run().expect("valid instance")
        } else {
            sim.run().expect("valid instance")
        }
    };
    let full = run(None, false);
    assert!(full.events_recorded && full.recorded_window.is_none());
    for parallel in [false, true] {
        for k in [0usize, 1, 7, 1000] {
            let windowed = run(Some(k), parallel);
            let kept = k.min(full.per_event.len());
            assert!(!windowed.events_recorded);
            assert_eq!(windowed.recorded_window, Some(k));
            assert_eq!(windowed.total_cost, full.total_cost);
            assert_eq!(windowed.final_perm, full.final_perm);
            assert_eq!(
                windowed.per_event,
                full.per_event[full.per_event.len() - kept..],
                "window {k} (parallel: {parallel}) kept the wrong reports"
            );
            assert_eq!(
                windowed.events,
                full.events[full.events.len() - kept..],
                "window {k} (parallel: {parallel}) kept the wrong events"
            );
            // Partial event logs cannot replay as an instance.
            assert!(matches!(
                windowed.to_instance(Topology::Cliques, n),
                Err(SimError::EventsNotRecorded)
            ));
        }
    }
}
