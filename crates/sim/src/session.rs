//! The stepping core, and the long-lived, resumable serving sessions
//! built on it.
//!
//! `Session<A>` is the only code that serves reveals. It owns the
//! graph state, the algorithm, the outcome accumulator, the snapshot-mode
//! rule and the feasibility check, and it has two entry points:
//!
//! * `Session::apply` — the sequential step: apply the reveal to the
//!   graph state, let the algorithm serve it, check, record;
//! * `Session::apply_batch` — the batch cycle (plan → execute →
//!   retire) over the span-disjoint batches of [`crate::batch`], pulling
//!   reveals from a caller-supplied source no further ahead than the
//!   planner's refill target.
//!
//! [`Simulation::run`] and [`ParallelSimulation::run`] are loops that
//! feed an adversary into these entry points; a serving tenant feeds
//! them wire frames. All three therefore share one step body and one
//! batch cycle, which is what makes a checkpoint taken by a daemon
//! resumable bit-identically, and any frame partition of a reveal
//! sequence equal to the closed-loop run.
//!
//! Around the core sit the multi-tenant serving types:
//!
//! * [`TenantSession`] — the object-safe facade a server stores: apply /
//!   query / checkpoint without knowing the concrete policy × backend
//!   type. Batchable policies serve frames through the batch cycle, the
//!   jump policies (`Det`, `Opt`) through the sequential step.
//! * [`SessionSpec`] + [`encode_session`] / [`decode_session`] — the
//!   versioned checkpoint codec. Everything that can influence future
//!   serves is captured: arrangement (including segment-arena partition
//!   and orientation flags), graph state (union-find arrays and
//!   neighbor slots verbatim), RNG streams, per-policy algorithm state,
//!   the outcome accumulator, and the batch planner's adaptive-window
//!   tuning.
//!
//! [`Simulation::run`]: crate::Simulation::run
//! [`ParallelSimulation::run`]: crate::ParallelSimulation::run

use mla_core::{
    BatchServe, DetClosest, MergeDecision, MergePlan, MovePolicy, OnlineMinla, OptReplay,
    PolicyState, RandCliques, RandLines, RearrangePolicy, UpdateReport,
};
use mla_graph::{GraphState, MergeInfo, RevealEvent, SnapshotMode, Topology};
use mla_offline::LopConfig;
use mla_permutation::codec::{put_bool, put_len, put_u32, put_u64, put_u8, ByteReader, CodecError};
use mla_permutation::{Arrangement, MergeOp, Node, Permutation, SegmentArrangement, MAX_NODES};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::batch::{BatchPlanner, PlannedReveal, PARALLEL_DISPATCH_MIN};
use crate::checkpoint::{self, CheckpointError};
use crate::engine::{Recorder, RunOutcome};
use crate::error::SimError;

// ---- spec ----

/// Which arrangement backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dense [`Permutation`] (`O(n)` block splices).
    Dense,
    /// The [`SegmentArrangement`] (`O(log n)` splices).
    Segment,
}

/// Which online algorithm a session runs. The topology in the
/// [`SessionSpec`] selects the clique or line variant of the randomized
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's randomized algorithm (size-biased / cost-biased).
    Rand,
    /// Fair-coin ablation.
    Fair,
    /// Deterministic smaller-moves / cheapest-move ablation.
    SmallerMoves,
    /// The deterministic `Det` algorithm (closest feasible to `π0`).
    Det,
    /// Offline-trajectory replay; requires [`SessionSpec::target`].
    Opt,
}

/// How much per-event history a session retains (mirrors
/// [`Simulation::record_events`](crate::Simulation::record_events) /
/// [`Simulation::record_window`](crate::Simulation::record_window)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Record every (event, report) pair.
    Full,
    /// Record nothing; cost totals stay exact.
    Off,
    /// Retain only the trailing `k` pairs.
    Window(usize),
}

impl RecordMode {
    /// The most (event, report) pairs this mode retains.
    pub(crate) fn retained(self) -> usize {
        match self {
            RecordMode::Full => usize::MAX,
            RecordMode::Off => 0,
            RecordMode::Window(k) => k,
        }
    }
}

/// Construction-time description of a session: everything needed to
/// build it fresh, and (together with the serialized state) to rebuild
/// it from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Cliques or lines.
    pub topology: Topology,
    /// Node count.
    pub n: usize,
    /// Arrangement backend.
    pub backend: BackendKind,
    /// Algorithm family.
    pub policy: PolicyKind,
    /// Replay target — required iff `policy` is [`PolicyKind::Opt`].
    pub target: Option<Permutation>,
    /// Seed of the session's RNG stream (derive per-tenant seeds with
    /// [`SeedSequence`](mla_runner::SeedSequence)). Only consulted at
    /// fresh construction; a restore overwrites the RNG with the exact
    /// serialized state.
    pub seed: u64,
    /// Per-event history retention.
    pub record: RecordMode,
    /// Validate the MinLA invariant after every reveal.
    pub check_feasibility: bool,
}

impl SessionSpec {
    /// A spec with full recording, feasibility checking off, and no
    /// replay target.
    #[must_use]
    pub fn new(
        topology: Topology,
        n: usize,
        policy: PolicyKind,
        backend: BackendKind,
        seed: u64,
    ) -> Self {
        SessionSpec {
            topology,
            n,
            backend,
            policy,
            target: None,
            seed,
            record: RecordMode::Full,
            check_feasibility: false,
        }
    }

    /// Sets the [`PolicyKind::Opt`] replay target.
    #[must_use]
    pub fn target(mut self, target: Permutation) -> Self {
        self.target = Some(target);
        self
    }

    /// Sets the history retention mode.
    #[must_use]
    pub fn record(mut self, mode: RecordMode) -> Self {
        self.record = mode;
        self
    }

    /// Enables per-reveal feasibility validation.
    #[must_use]
    pub fn check_feasibility(mut self, on: bool) -> Self {
        self.check_feasibility = on;
        self
    }

    /// Checks internal consistency: `n` within backend capacity, replay
    /// target present exactly for [`PolicyKind::Opt`] and of matching
    /// length.
    ///
    /// # Errors
    ///
    /// [`SimError::Other`] describing the inconsistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n > MAX_NODES {
            return Err(SimError::Other(format!(
                "session n = {} exceeds the backend capacity {MAX_NODES}",
                self.n
            )));
        }
        match (self.policy, &self.target) {
            (PolicyKind::Opt, None) => Err(SimError::Other(
                "policy opt requires a replay target".into(),
            )),
            (PolicyKind::Opt, Some(t)) if t.len() != self.n => Err(SimError::Other(format!(
                "replay target covers {} nodes but the session has {}",
                t.len(),
                self.n
            ))),
            (PolicyKind::Opt, Some(_)) => Ok(()),
            (_, Some(_)) => Err(SimError::Other(
                "only policy opt takes a replay target".into(),
            )),
            (_, None) => Ok(()),
        }
    }

    /// Serializes the spec (the prefix of every session checkpoint body).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self.topology {
                Topology::Cliques => 0,
                Topology::Lines => 1,
            },
        );
        put_len(out, self.n);
        put_u8(
            out,
            match self.backend {
                BackendKind::Dense => 0,
                BackendKind::Segment => 1,
            },
        );
        put_u8(
            out,
            match self.policy {
                PolicyKind::Rand => 0,
                PolicyKind::Fair => 1,
                PolicyKind::SmallerMoves => 2,
                PolicyKind::Det => 3,
                PolicyKind::Opt => 4,
            },
        );
        match &self.target {
            None => put_bool(out, false),
            Some(target) => {
                put_bool(out, true);
                target.encode_into(out);
            }
        }
        put_u64(out, self.seed);
        match self.record {
            RecordMode::Full => put_u8(out, 0),
            RecordMode::Off => put_u8(out, 1),
            RecordMode::Window(k) => {
                put_u8(out, 2);
                put_len(out, k);
            }
        }
        put_bool(out, self.check_feasibility);
    }

    /// Inverse of [`SessionSpec::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or unknown tags.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let topology = match r.u8()? {
            0 => Topology::Cliques,
            1 => Topology::Lines,
            other => return Err(CodecError::invalid(format!("unknown topology tag {other}"))),
        };
        let n = r.count(MAX_NODES, "session node")?;
        let backend = match r.u8()? {
            0 => BackendKind::Dense,
            1 => BackendKind::Segment,
            other => return Err(CodecError::invalid(format!("unknown backend tag {other}"))),
        };
        let policy = match r.u8()? {
            0 => PolicyKind::Rand,
            1 => PolicyKind::Fair,
            2 => PolicyKind::SmallerMoves,
            3 => PolicyKind::Det,
            4 => PolicyKind::Opt,
            other => return Err(CodecError::invalid(format!("unknown policy tag {other}"))),
        };
        let target = if r.bool("replay target flag")? {
            Some(Permutation::decode_from(r)?)
        } else {
            None
        };
        let seed = r.u64()?;
        let record = match r.u8()? {
            0 => RecordMode::Full,
            1 => RecordMode::Off,
            2 => RecordMode::Window(r.count(usize::MAX, "record window")?),
            other => {
                return Err(CodecError::invalid(format!(
                    "unknown record-mode tag {other}"
                )))
            }
        };
        let check_feasibility = r.bool("check-feasibility flag")?;
        Ok(SessionSpec {
            topology,
            n,
            backend,
            policy,
            target,
            seed,
            record,
            check_feasibility,
        })
    }
}

// ---- arrangement codec dispatch ----

/// Arrangement backends a session can checkpoint: fresh construction
/// and exact serialization.
pub(crate) trait ArrCodec: Arrangement + Sized {
    /// The identity arrangement on `n` nodes (the fresh-session start).
    fn fresh(n: usize) -> Self;

    /// Serializes the arrangement exactly (for the segment backend that
    /// includes the observable segment partition, not just the flat
    /// permutation).
    fn encode_arr(&self, out: &mut Vec<u8>);

    /// Inverse of [`ArrCodec::encode_arr`].
    fn decode_arr(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl ArrCodec for Permutation {
    fn fresh(n: usize) -> Self {
        Permutation::identity(n)
    }

    fn encode_arr(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn decode_arr(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Permutation::decode_from(r)
    }
}

impl ArrCodec for SegmentArrangement {
    fn fresh(n: usize) -> Self {
        SegmentArrangement::identity(n)
    }

    fn encode_arr(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn decode_arr(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        SegmentArrangement::decode_from(r)
    }
}

// ---- the stepping core ----

/// Default maximal look-ahead window of the batch cycle.
pub(crate) const DEFAULT_BATCH_WINDOW: usize = 4096;

/// How a [`Session`] serves: what it records, what it checks, and
/// whether lazy component snapshots are allowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rules {
    /// Per-event history retention.
    pub(crate) record: RecordMode,
    /// Validate the MinLA invariant after every reveal (incrementally).
    pub(crate) check_feasibility: bool,
    /// With checking on, also run the full `O(n)` scan per reveal.
    pub(crate) full_scan: bool,
    /// Force eager snapshots even where lazy ones would do.
    pub(crate) eager_snapshots: bool,
}

impl Default for Rules {
    fn default() -> Self {
        Rules {
            record: RecordMode::Full,
            check_feasibility: false,
            full_scan: cfg!(debug_assertions),
            eager_snapshots: false,
        }
    }
}

/// The stepping core: graph state, algorithm and outcome accumulator of
/// one reveal stream, served one reveal at a time ([`Session::apply`])
/// or in span-disjoint batches ([`Session::apply_batch`]).
pub(crate) struct Session<A: OnlineMinla> {
    state: GraphState,
    algorithm: A,
    recorder: Recorder,
    /// Snapshot mode of the sequential step.
    mode: SnapshotMode,
    check_feasibility: bool,
    full_scan: bool,
    threads: usize,
    /// Look-ahead queue of the batch cycle; empty between calls.
    planner: BatchPlanner,
    decisions: Vec<MergeDecision>,
    /// Reused across rounds: the parked (window-1) batch cycle must not
    /// pay a heap allocation per reveal.
    batch_buf: Vec<PlannedReveal>,
}

impl<A: OnlineMinla> Session<A> {
    /// A fresh session on `n` nodes of `topology`, batching at most
    /// `window` reveals ahead.
    ///
    /// Snapshots are lazy (size-only) iff the rules allow it and the
    /// algorithm and its backend agree; the batch cycle additionally
    /// needs cliques, because the batched lines pipeline builds the
    /// rearranged target contents from member lists.
    ///
    /// # Errors
    ///
    /// [`SimError::SizeMismatch`] if the algorithm's arrangement does not
    /// cover `n` nodes.
    pub(crate) fn new(
        topology: Topology,
        n: usize,
        algorithm: A,
        rules: Rules,
        window: usize,
    ) -> Result<Self, SimError> {
        let actual = algorithm.arrangement().len();
        if actual != n {
            return Err(SimError::SizeMismatch {
                expected: n,
                actual,
            });
        }
        let lazy = !rules.eager_snapshots
            && algorithm.wants_lazy_info()
            && algorithm.arrangement().supports_component_locate();
        let mode = |lazy| {
            if lazy {
                SnapshotMode::Lazy
            } else {
                SnapshotMode::Eager
            }
        };
        Ok(Session {
            state: GraphState::new(topology, n),
            recorder: Recorder::new(rules.record),
            mode: mode(lazy),
            check_feasibility: rules.check_feasibility,
            full_scan: rules.full_scan,
            threads: 1,
            planner: BatchPlanner::new(window)
                .snapshot_mode(mode(lazy && topology == Topology::Cliques)),
            decisions: Vec::new(),
            batch_buf: Vec::new(),
            algorithm,
        })
    }

    /// Test hook, forwarded to [`BatchPlanner::unchecked_sealing`].
    pub(crate) fn unchecked_sealing(mut self, on: bool) -> Self {
        self.planner = self.planner.unchecked_sealing(on);
        self
    }

    /// Worker threads for the batch cycle (`0` = available parallelism).
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.threads = mla_runner::resolve_threads(threads);
    }

    /// The algorithm's current arrangement.
    pub(crate) fn arrangement(&self) -> &A::Arr {
        self.algorithm.arrangement()
    }

    /// The graph revealed so far.
    pub(crate) fn state(&self) -> &GraphState {
        &self.state
    }

    /// Serves one reveal: apply it to the graph state, let the algorithm
    /// serve it, check, record.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] for an invalid reveal,
    /// [`SimError::FeasibilityViolation`] if checking is enabled and the
    /// algorithm breaks the invariant.
    pub(crate) fn apply(&mut self, event: RevealEvent) -> Result<(), SimError> {
        let info = self.state.apply_with(event, self.mode)?;
        let report = self.algorithm.serve(event, &info, &self.state);
        self.finish_step(event, &info, report)
    }

    /// The tail of every step: validate the merged component's block
    /// (and, under `full_scan`, the whole arrangement) against the
    /// post-merge state, then record the served reveal.
    fn finish_step(
        &mut self,
        event: RevealEvent,
        info: &MergeInfo,
        report: UpdateReport,
    ) -> Result<(), SimError> {
        if self.check_feasibility {
            let arr = self.algorithm.arrangement();
            if !(self.state.merge_keeps_minla(arr, info)
                && (!self.full_scan || self.state.is_minla(arr)))
            {
                return Err(SimError::FeasibilityViolation {
                    step: self.recorder.step() + 1,
                    algorithm: self.algorithm.name().to_owned(),
                });
            }
        }
        self.recorder.record(event, report);
        Ok(())
    }

    /// Snapshot of the run outcome so far (mid-stream: totals, retained
    /// history and the current permutation).
    pub(crate) fn outcome(&self) -> RunOutcome {
        self.recorder
            .outcome_snapshot(self.algorithm.arrangement().to_permutation())
    }

    /// Ends the run.
    pub(crate) fn finish(self) -> RunOutcome {
        self.recorder
            .finish(self.algorithm.arrangement().to_permutation())
    }
}

impl<A: BatchServe> Session<A>
where
    A::Arr: Sync,
{
    /// Serves reveals pulled from `source` through the batch cycle until
    /// it returns `None`. Each round tops the look-ahead queue up to the
    /// planner's refill target (`source` sees the arrangement and graph
    /// state as of that moment, so an adaptive adversary with a window
    /// of 1 sees every reveal's result), seals the span-disjoint prefix,
    /// executes it and retires it. RNG draws and arrangement mutations
    /// stay in reveal order, so the outcome is bit-identical to
    /// [`Session::apply`] on each reveal, for every thread count and
    /// every partition of the stream into calls.
    ///
    /// # Errors
    ///
    /// As [`Session::apply`], at the same step. On error the queue is
    /// cleared and reveals past the failure are dropped (never
    /// half-applied); the session stays usable for queries and
    /// checkpoints.
    pub(crate) fn apply_batch<F>(&mut self, mut source: F) -> Result<(), SimError>
    where
        F: FnMut(&A::Arr, &GraphState) -> Option<RevealEvent>,
    {
        let mut batch = std::mem::take(&mut self.batch_buf);
        let mut exhausted = false;
        let result = loop {
            while !exhausted && self.planner.queued() < self.planner.refill_target() {
                match source(self.algorithm.arrangement(), &self.state) {
                    Some(event) => self.planner.push(event),
                    None => exhausted = true,
                }
            }
            if self.planner.is_empty() {
                break Ok(());
            }
            if let Err(err) = self.planner.plan_batch_into(
                &self.state,
                self.algorithm.arrangement(),
                self.threads,
                &mut batch,
            ) {
                break Err(SimError::Graph(err));
            }
            if let Err(err) = self.execute_planned_batch(&batch) {
                break Err(err);
            }
            self.planner.retire_batch(&self.state, &batch);
        };
        if result.is_err() {
            self.planner.clear_queue();
        }
        self.batch_buf = batch;
        result
    }

    /// Executes one **sealed** batch of span-disjoint planned reveals:
    ///
    /// 1. **decide** (reveal order) — the algorithm draws each merge's
    ///    random choices, keeping the RNG stream identical to sequential;
    /// 2. **build plans** (parallel for lines) — pure snapshot → plan
    ///    construction, including staged target contents;
    /// 3. **apply** — commit the merges to the graph state and run the
    ///    whole batch through the backend's `apply_merge_batch`;
    /// 4. **check and record**, in reveal order.
    fn execute_planned_batch(&mut self, batch: &[PlannedReveal]) -> Result<(), SimError> {
        // Batch of one — the parked degraded mode, and the tail of every
        // run: skip the staging vectors and the backend's batch dispatch
        // and run decide, build, commit and one `merge_move` inline, so a
        // conflict-dense batched run is never slower than `apply`.
        if let [planned] = batch {
            let decision = self.algorithm.decide(&planned.info, &planned.layout);
            let plan = A::build_plan(&planned.info, &planned.layout, decision);
            self.state.commit(planned.event);
            let report = self.algorithm.apply_plan(plan);
            return self.finish_step(planned.event, &planned.info, report);
        }
        self.decisions.clear();
        self.decisions.extend(
            batch
                .iter()
                .map(|p| self.algorithm.decide(&p.info, &p.layout)),
        );
        // Only line merges carry per-plan staging buffers (the merged
        // path's target content), so only they are worth a parallel
        // dispatch.
        let decisions = &self.decisions;
        let plans: Vec<MergePlan> = if self.threads > 1
            && batch.len() >= PARALLEL_DISPATCH_MIN
            && self.state.topology() == Topology::Lines
        {
            mla_runner::run_indexed(self.threads, batch.len(), |i| {
                A::build_plan(&batch[i].info, &batch[i].layout, decisions[i])
            })
        } else {
            batch
                .iter()
                .zip(decisions)
                .map(|(p, &decision)| A::build_plan(&p.info, &p.layout, decision))
                .collect()
        };
        // Debug-build shadow check: re-verify the planner's sealing
        // promise with an independent algorithm before any mutation.
        #[cfg(debug_assertions)]
        assert_batch_spans_disjoint(batch);
        // Disjoint spans commute, so committing in reveal order and
        // running the batch through the backend (partitioned backends
        // run ops of different regions on worker threads) leaves the
        // arrangement bit-identical to the per-reveal loop.
        let mut reports = Vec::with_capacity(batch.len());
        let mut ops = Vec::with_capacity(batch.len());
        for (planned, plan) in batch.iter().zip(plans) {
            self.state.commit(planned.event);
            reports.push(plan.report);
            ops.push(MergeOp {
                mover: plan.mover,
                stayer: plan.stayer,
                target: plan.target,
            });
        }
        let costs = self
            .algorithm
            .arrangement_mut()
            .apply_merge_batch(ops, self.threads);
        debug_assert!(
            costs
                .iter()
                .zip(&reports)
                .all(|(&cost, report)| cost == report.moving_cost),
            "backend charged a different moving cost than the plan"
        );
        // Feasibility is validated against the post-batch state; because
        // batch spans are disjoint, each merged component's block is
        // exactly what the per-reveal check would have seen.
        for (planned, report) in batch.iter().zip(reports) {
            self.finish_step(planned.event, &planned.info, report)?;
        }
        Ok(())
    }
}

/// Debug-build re-check of the planner's sealing contract: every span in
/// a sealed batch must be pairwise disjoint, or the partitioned-write
/// executor's `&mut`-distribution argument does not hold. Uses sort +
/// adjacent comparison — deliberately a different algorithm than the
/// planner's [`crate::batch::ConflictGraph`] — so a sealing bug cannot
/// hide itself in the checker.
#[cfg(debug_assertions)]
fn assert_batch_spans_disjoint(batch: &[PlannedReveal]) {
    let mut spans: Vec<(std::ops::Range<usize>, usize)> = batch
        .iter()
        .enumerate()
        .map(|(index, planned)| (planned.span(), index))
        .collect();
    spans.sort_by_key(|(span, _)| (span.start, span.end));
    for pair in spans.windows(2) {
        let ((a, a_at), (b, b_at)) = (&pair[0], &pair[1]);
        if a.end > b.start {
            // mla-lint: allow(panic-safety): the shadow checker exists to abort on a detected sealing violation (debug builds only)
            panic!(
                "shadow checker: sealed batch contains overlapping spans: \
                 reveal {a_at} span {a:?} vs reveal {b_at} span {b:?}"
            );
        }
    }
}

impl<A> Session<A>
where
    A: OnlineMinla + PolicyState,
    A::Arr: ArrCodec,
{
    /// Serializes the live state after the spec: arrangement, graph
    /// state, policy state, recorder, planner tuning.
    fn encode_body(&self, out: &mut Vec<u8>) {
        debug_assert!(
            self.planner.is_empty(),
            "checkpoints are taken at drained-planner points"
        );
        // The arrangement precedes the graph state: the decoder needs it
        // first to construct the algorithm it then restores into.
        self.algorithm.arrangement().encode_arr(out);
        self.state.encode_into(out);
        self.algorithm.encode_state_into(out);
        self.recorder.encode_into(out);
        let (window, full_seals, collapse_streak) = self.planner.tuning();
        put_len(out, window);
        put_u32(out, full_seals);
        put_u32(out, collapse_streak);
    }

    /// Restores the serialized state into this freshly built session.
    /// The arrangement was decoded *before* the algorithm was
    /// constructed; this consumes the rest of the body, cross-checking
    /// it against the fresh session's topology, size and record mode.
    fn restore_body(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let state = GraphState::decode_from(r)?;
        if state.topology() != self.state.topology() || state.n() != self.state.n() {
            return Err(CheckpointError::malformed(format!(
                "graph state is {:?}/{} but the spec says {:?}/{}",
                state.topology(),
                state.n(),
                self.state.topology(),
                self.state.n()
            )));
        }
        self.state = state;
        self.algorithm.restore_state(r)?;
        let recorder = Recorder::decode_from(r, self.state.n())?;
        if recorder.mode() != self.recorder.mode() {
            return Err(CheckpointError::malformed(
                "recorder mode disagrees with the session spec".to_string(),
            ));
        }
        self.recorder = recorder;
        let window = r.count(usize::MAX, "planner window")?;
        let full_seals = r.u32()?;
        let collapse_streak = r.u32()?;
        self.planner
            .restore_tuning(window, full_seals, collapse_streak);
        Ok(())
    }
}

// ---- the object-safe tenant facade ----

/// The object-safe session interface a multi-tenant server stores —
/// apply reveals, answer queries, checkpoint — independent of the
/// concrete policy × backend type. Obtain one from [`open_session`] or
/// [`decode_session`].
pub trait TenantSession: Send {
    /// The spec this session was opened with.
    fn spec(&self) -> &SessionSpec;

    /// The algorithm's machine-readable name (e.g. `"rand-cliques"`).
    fn algorithm_name(&self) -> String;

    /// Reveals served so far.
    fn steps(&self) -> usize;

    /// Exact accumulated moving cost.
    fn moving_cost(&self) -> u128;

    /// Exact accumulated rearranging cost.
    fn rearranging_cost(&self) -> u128;

    /// Worker threads for batched applies (`0` = available parallelism).
    fn set_threads(&mut self, threads: usize);

    /// Serves a frame of reveals — through the batch executor when the
    /// policy supports it, sequentially otherwise. Returns the number of
    /// reveals applied (the whole frame on success).
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] for an invalid reveal,
    /// [`SimError::FeasibilityViolation`] if checking is enabled and the
    /// algorithm breaks the invariant. Reveals before the failing one
    /// stay served; the failing one and those after it are dropped.
    fn apply_events(&mut self, events: &[RevealEvent]) -> Result<usize, SimError>;

    /// Current position of `node`.
    ///
    /// # Errors
    ///
    /// [`SimError::Other`] for an out-of-range node.
    fn position_of(&self, node: Node) -> Result<usize, SimError>;

    /// Mid-stream outcome snapshot.
    fn outcome(&self) -> RunOutcome;

    /// The sealed checkpoint of the full live state.
    fn encode(&self) -> Vec<u8>;
}

impl std::fmt::Debug for dyn TenantSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("spec", self.spec())
            .field("steps", &self.steps())
            .finish_non_exhaustive()
    }
}

/// How a tenant serves a frame: picked once at construction.
type ApplyFrame<A> = fn(&mut Session<A>, &[RevealEvent]) -> Result<(), SimError>;

/// Frames of the batchable policies go through the batch cycle.
fn apply_frame_batched<A: BatchServe>(
    session: &mut Session<A>,
    events: &[RevealEvent],
) -> Result<(), SimError>
where
    A::Arr: Sync,
{
    let mut events = events.iter().copied();
    session.apply_batch(|_, _| events.next())
}

/// Frames of the jump policies (`Det`, `Opt`) replay sequentially.
fn apply_frame_sequential<A: OnlineMinla>(
    session: &mut Session<A>,
    events: &[RevealEvent],
) -> Result<(), SimError> {
    events.iter().try_for_each(|&event| session.apply(event))
}

/// A session plus the spec it was opened with.
struct Tenant<A: OnlineMinla> {
    spec: SessionSpec,
    session: Session<A>,
    apply_frame: ApplyFrame<A>,
}

impl<A> TenantSession for Tenant<A>
where
    A: OnlineMinla + PolicyState + Send,
    A::Arr: ArrCodec + Send,
{
    fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    fn algorithm_name(&self) -> String {
        self.session.algorithm.name().to_owned()
    }

    fn steps(&self) -> usize {
        self.session.recorder.step()
    }

    fn moving_cost(&self) -> u128 {
        self.session.recorder.moving_cost()
    }

    fn rearranging_cost(&self) -> u128 {
        self.session.recorder.rearranging_cost()
    }

    fn set_threads(&mut self, threads: usize) {
        self.session.set_threads(threads);
    }

    fn apply_events(&mut self, events: &[RevealEvent]) -> Result<usize, SimError> {
        (self.apply_frame)(&mut self.session, events)?;
        Ok(events.len())
    }

    fn position_of(&self, node: Node) -> Result<usize, SimError> {
        if node.index() >= self.spec.n {
            return Err(SimError::Other(format!(
                "node {} out of range for n = {}",
                node.index(),
                self.spec.n
            )));
        }
        Ok(self.session.arrangement().position_of(node))
    }

    fn outcome(&self) -> RunOutcome {
        self.session.outcome()
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.spec.encode_into(&mut body);
        self.session.encode_body(&mut body);
        checkpoint::seal(&body)
    }
}

// ---- construction and the checkpoint codec ----

/// Opens a fresh session for `spec` (identity arrangement, seed-derived
/// RNG stream, zeroed accumulators).
///
/// # Errors
///
/// [`SimError::Other`] if the spec is inconsistent (see
/// [`SessionSpec::validate`]).
pub fn open_session(spec: SessionSpec) -> Result<Box<dyn TenantSession>, SimError> {
    spec.validate()?;
    build_session(spec, None).map_err(|err| SimError::Other(err.to_string()))
}

/// Serializes a session into its sealed checkpoint: the
/// [`SessionSpec`], graph state, arrangement, policy/RNG state, outcome
/// accumulator and planner tuning, wrapped in the magic / version /
/// CRC-64 envelope of [`crate::checkpoint`].
///
/// Contract: [`decode_session`] of these bytes — in this process or
/// another — yields a session whose replay of the remaining reveals is
/// **bit-identical** to the uninterrupted run, including its RNG draws,
/// retained history and final permutation.
#[must_use]
pub fn encode_session(session: &dyn TenantSession) -> Vec<u8> {
    session.encode()
}

/// Rebuilds a session from checkpoint bytes produced by
/// [`encode_session`].
///
/// # Errors
///
/// A structured [`CheckpointError`] for **any** malformed input —
/// truncation, foreign files, bit flips, future versions, or internally
/// inconsistent state. Never panics, never restores silently-wrong
/// state.
pub fn decode_session(bytes: &[u8]) -> Result<Box<dyn TenantSession>, CheckpointError> {
    let body = checkpoint::open(bytes)?;
    let mut r = ByteReader::new(body);
    let spec = SessionSpec::decode_from(&mut r)?;
    spec.validate()
        .map_err(|err| CheckpointError::malformed(err.to_string()))?;
    let session = build_session(spec, Some(&mut r))?;
    r.finish().map_err(CheckpointError::from)?;
    Ok(session)
}

/// Builds the concrete policy × backend × topology session; with a
/// reader, decodes the arrangement and restores the serialized state.
fn build_session(
    spec: SessionSpec,
    restore: Option<&mut ByteReader<'_>>,
) -> Result<Box<dyn TenantSession>, CheckpointError> {
    match spec.backend {
        BackendKind::Dense => build_with_backend::<Permutation>(spec, restore),
        BackendKind::Segment => build_with_backend::<SegmentArrangement>(spec, restore),
    }
}

fn build_with_backend<Arr>(
    spec: SessionSpec,
    mut restore: Option<&mut ByteReader<'_>>,
) -> Result<Box<dyn TenantSession>, CheckpointError>
where
    Arr: ArrCodec + Sync + Send + 'static,
{
    // The arrangement comes before the algorithm: constructors consume
    // it (and `DetClosest::with_backend` snapshots it, which is why the
    // anchor π0 lives in the policy state, restored afterwards).
    let arr: Arr = match restore.as_deref_mut() {
        None => Arr::fresh(spec.n),
        Some(r) => {
            let arr = Arr::decode_arr(r)?;
            if arr.len() != spec.n {
                return Err(CheckpointError::malformed(format!(
                    "arrangement covers {} nodes but the spec says {}",
                    arr.len(),
                    spec.n
                )));
            }
            arr
        }
    };
    let (move_policy, rearrange_policy) = match spec.policy {
        PolicyKind::Rand => (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
        PolicyKind::Fair => (MovePolicy::Fair, RearrangePolicy::Fair),
        PolicyKind::SmallerMoves => (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
        PolicyKind::Det => {
            let det = DetClosest::with_backend(arr, LopConfig::default());
            return tenant(spec, det, apply_frame_sequential, restore);
        }
        PolicyKind::Opt => {
            let Some(target) = spec.target.clone() else {
                // `validate` already rejected this; keep the decode path
                // panic-free regardless.
                return Err(CheckpointError::malformed(
                    "policy opt without a replay target".to_string(),
                ));
            };
            let opt = OptReplay::new(arr, target);
            return tenant(spec, opt, apply_frame_sequential, restore);
        }
    };
    let rng = SmallRng::seed_from_u64(spec.seed);
    match spec.topology {
        Topology::Cliques => {
            let alg = RandCliques::with_policy(arr, rng, move_policy);
            tenant(spec, alg, apply_frame_batched, restore)
        }
        Topology::Lines => {
            let alg = RandLines::with_policies(arr, rng, move_policy, rearrange_policy);
            tenant(spec, alg, apply_frame_batched, restore)
        }
    }
}

/// Wraps `algorithm` into a tenant for `spec`, restoring the rest of the
/// checkpoint body when there is one.
fn tenant<A>(
    spec: SessionSpec,
    algorithm: A,
    apply_frame: ApplyFrame<A>,
    restore: Option<&mut ByteReader<'_>>,
) -> Result<Box<dyn TenantSession>, CheckpointError>
where
    A: OnlineMinla + PolicyState + Send + 'static,
    A::Arr: ArrCodec + Send,
{
    let rules = Rules {
        record: spec.record,
        check_feasibility: spec.check_feasibility,
        ..Rules::default()
    };
    let mut session = Session::new(
        spec.topology,
        spec.n,
        algorithm,
        rules,
        DEFAULT_BATCH_WINDOW,
    )
    .map_err(|err| CheckpointError::malformed(err.to_string()))?;
    if let Some(r) = restore {
        session.restore_body(r)?;
    }
    Ok(Box::new(Tenant {
        spec,
        session,
        apply_frame,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};

    fn instance_events(topology: Topology, n: usize, seed: u64) -> Vec<RevealEvent> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let instance = match topology {
            Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng),
            Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng),
        };
        instance.events().to_vec()
    }

    #[test]
    fn session_outcome_is_bit_identical_to_engine_run() {
        for topology in [Topology::Cliques, Topology::Lines] {
            let n = 24;
            let events = instance_events(topology, n, 11);
            let instance = mla_graph::Instance::new(topology, n, events.clone()).unwrap();
            let reference = match topology {
                Topology::Cliques => Simulation::new(
                    instance,
                    RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
                )
                .run()
                .unwrap(),
                Topology::Lines => Simulation::new(
                    instance,
                    RandLines::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
                )
                .run()
                .unwrap(),
            };
            let mut session = open_session(SessionSpec::new(
                topology,
                n,
                PolicyKind::Rand,
                BackendKind::Segment,
                7,
            ))
            .unwrap();
            // Apply in ragged frames to exercise the batch pipeline.
            for frame in events.chunks(5) {
                session.apply_events(frame).unwrap();
            }
            assert_eq!(session.outcome(), reference, "{topology:?}");
        }
    }

    #[test]
    fn checkpoint_roundtrips_mid_stream_and_replays_identically() {
        let n = 20;
        let events = instance_events(Topology::Cliques, n, 3);
        let spec = SessionSpec::new(
            Topology::Cliques,
            n,
            PolicyKind::Rand,
            BackendKind::Dense,
            5,
        );
        let mut uninterrupted = open_session(spec.clone()).unwrap();
        uninterrupted.apply_events(&events).unwrap();
        let want = uninterrupted.outcome();

        for cut in [0, 1, events.len() / 2, events.len() - 1, events.len()] {
            let mut first = open_session(spec.clone()).unwrap();
            first.apply_events(&events[..cut]).unwrap();
            let bytes = encode_session(first.as_ref());
            let mut resumed = decode_session(&bytes).unwrap();
            resumed.apply_events(&events[cut..]).unwrap();
            assert_eq!(resumed.outcome(), want, "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_queries_error_instead_of_panicking() {
        let spec = SessionSpec::new(
            Topology::Cliques,
            4,
            PolicyKind::Rand,
            BackendKind::Dense,
            1,
        );
        let session = open_session(spec).unwrap();
        assert!(session.position_of(Node::new(4)).is_err());
        assert_eq!(session.position_of(Node::new(3)).unwrap(), 3);
    }

    #[test]
    fn spec_validation_rejects_inconsistencies() {
        let missing_target =
            SessionSpec::new(Topology::Cliques, 4, PolicyKind::Opt, BackendKind::Dense, 1);
        assert!(open_session(missing_target).is_err());
        let stray_target = SessionSpec::new(
            Topology::Cliques,
            4,
            PolicyKind::Rand,
            BackendKind::Dense,
            1,
        )
        .target(Permutation::identity(4));
        assert!(open_session(stray_target).is_err());
        let short_target =
            SessionSpec::new(Topology::Cliques, 4, PolicyKind::Opt, BackendKind::Dense, 1)
                .target(Permutation::identity(3));
        assert!(open_session(short_target).is_err());
    }

    #[test]
    fn decode_rejects_spec_state_mismatches() {
        // Hand-craft a body whose spec says cliques but whose graph
        // state is lines: the cross-check must fire.
        let spec = SessionSpec::new(Topology::Cliques, 4, PolicyKind::Det, BackendKind::Dense, 1);
        let session = open_session(spec).unwrap();
        let good = encode_session(session.as_ref());
        let body = checkpoint::open(&good).unwrap();
        // The topology tag is byte 0 of the spec *and* the graph-state
        // tag right after it; flipping only the graph-state tag breaks
        // the cross-check (the offset is spec-length dependent, so
        // locate it by decoding the spec first).
        let mut r = ByteReader::new(body);
        let _ = SessionSpec::decode_from(&mut r).unwrap();
        let _ = Permutation::decode_from(&mut r).unwrap();
        let state_tag_offset = body.len() - r.remaining();
        let mut tampered = body.to_vec();
        tampered[state_tag_offset] = 1; // cliques -> lines
        let resealed = checkpoint::seal(&tampered);
        let err = decode_session(&resealed).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err:?}");
    }
}
