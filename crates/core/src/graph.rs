//! `KernelGraph` — pipe-connected multi-kernel dataflow as the universal
//! execution plan.
//!
//! The paper's own architecture is a `DATAFLOW` region of processes coupled
//! by bounded streams; until now every job in this repository still executed
//! exactly one kernel, so composite workloads had to round-trip intermediate
//! results through the host. This module closes that gap: a [`KernelGraph`]
//! chains a source [`WorkItemKernel`] through downstream [`StageKernel`]s
//! connected by bounded FIFOs, and every backend executes the whole
//! pipeline through [`Backend::run`] — the single-kernel job is simply the
//! trivial one-node graph.
//!
//! Three artifacts generalize the single-kernel spine:
//!
//! * [`GraphPlan`] generalizes [`ExecutionPlan`]: the shared work-item
//!   geometry (every stage runs the same `workitems`/`wid_base`, because a
//!   stage's work-item `w` consumes exactly what the upstream work-item `w`
//!   emitted — the paper's per-work-item chain shape) plus the inter-stage
//!   FIFO depth. [`GraphPlan::split`] shards along the work-item axis with
//!   the same `wid_base` plumbing single plans use, so graph sharding keeps
//!   the bit-identity guarantee.
//! * [`GraphReport`] generalizes [`RunReport`]: one full per-stage
//!   sub-report each (samples, iterations, divergence, backend detail), plus
//!   per-edge transfer/stall/occupancy accounting from the streamed pass and
//!   a [`GraphDataflow`] cost model from the [`dwi_hls::dataflow`] stepper.
//! * [`execute`] is the engine-independent executor: a multi-stage graph
//!   runs once, cooperatively through bounded FIFOs (the pipe-connected
//!   execution, which also measures back-pressure), and every token
//!   crosses each stage once. The pass records what each stage did
//!   ([`StageRun`]) and the backend builds each stage's [`RunReport`]
//!   from that record ([`Backend::stage_report`]). A backend whose report
//!   needs a run of its own, and a traced plan, re-runs each stage on the
//!   previous stage's streams instead — the host-mediated composition
//!   ([`StagedKernel`]), which is also the test oracle the pass's samples
//!   and reports are checked against (`tests/graph_determinism.rs`).
//!
//! The cooperative pass steps every stage of a work-item's chain on one
//! thread, so its FIFOs are plain bounded rings rather than the blocking
//! [`dwi_hls::stream`] FIFOs that couple stages running on threads of
//! their own: the scheduler's gates give the same blocking semantics
//! (a full FIFO stalls the writer, an empty one the reader), and a lock
//! and condition variable per token cost several times what the stages
//! themselves do.
//!
//! Determinism contract for stages: a [`StageInstance`] may [`pull`]
//! (consume one upstream token) **at most once per step**, and `pull`
//! returns `None` only when the upstream stage has finished and the FIFO is
//! drained — never "not yet". Stage behaviour therefore depends only on the
//! consumed token sequence, never on scheduling, which is what makes the
//! pipe-connected and host-mediated executions (and all five backends)
//! bit-identical, and a stage's record of the pass a faithful stand-in
//! for a run of its own.
//!
//! [`pull`]: StageInput::pull

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::{Backend, ExecutionPlan, RunReport};
use crate::kernel::{DivergenceCounts, KernelInstance, SharedWorkItemKernel, Step, WorkItemKernel};
use dwi_hls::dataflow::{DataflowGraph, DataflowResult};
use dwi_rng::RejectionStats;

/// The upstream endpoint a downstream stage reads during one step.
pub trait StageInput {
    /// Consume the next upstream token. `None` means the upstream stage has
    /// finished and every buffered token is drained — the stage must wind
    /// down (flush and report `done`). At most one `pull` per step.
    fn pull(&mut self) -> Option<f32>;
}

/// One downstream pipeline stage — the rewritable "Listing 2 slot" of a
/// multi-kernel graph. Like [`WorkItemKernel`] but each step may consume
/// one token from the upstream stage's stream.
pub trait StageKernel: Send + Sync {
    /// Short static name for reports and fingerprints.
    fn name(&self) -> &'static str;

    /// Outputs each work-item emits, given the upstream stage's per-work-
    /// item quota (e.g. a window aggregator divides, a 1:1 map passes it
    /// through).
    fn outputs_per_workitem(&self, upstream_quota: u64) -> u64;

    /// Program phases (1 for single-loop stages).
    fn phases(&self) -> u32 {
        1
    }

    /// Stable digest of the stage's constructor parameters, mirroring
    /// [`WorkItemKernel::param_digest`]: everything that changes emitted
    /// values but is visible neither in [`name`](StageKernel::name) nor
    /// in the topology quota chain. Folded into
    /// [`KernelGraph::fingerprint`]. Build with
    /// [`crate::digest::Digest`]; override whenever the stage carries
    /// constructor state.
    fn param_digest(&self) -> u64 {
        0
    }

    /// Build per-work-item state; all RNG streams derive from `wid` so any
    /// engine instantiating work-item `wid` replays identical values.
    fn instantiate(&self, wid: u32) -> Box<dyn StageInstance>;
}

/// Per-work-item execution state of a stage: one pipeline attempt per
/// [`step`](StageInstance::step), optionally consuming one upstream token
/// through `input`.
pub trait StageInstance: Send {
    /// Execute one pipeline attempt and report what happened (same [`Step`]
    /// contract as [`KernelInstance::step`]).
    fn step(&mut self, input: &mut dyn StageInput) -> Step;

    /// Combined rejection statistics over all iterations so far.
    fn stats(&self) -> RejectionStats;
}

/// Shared, thread-safe handle to a stage kernel.
pub type SharedStageKernel = Arc<dyn StageKernel>;

/// A linear pipeline of kernels coupled by bounded streams: one source
/// [`WorkItemKernel`] followed by zero or more [`StageKernel`]s. The
/// single-kernel job is `KernelGraph::single(kernel)` — the trivial
/// one-node graph every runtime path now speaks natively.
///
/// Node `k`'s work-item `w` feeds node `k+1`'s work-item `w` through its
/// own FIFO (the paper's per-work-item decoupled chains), so sharding the
/// graph along the work-item axis shards every stage coherently.
#[derive(Clone)]
pub struct KernelGraph {
    name: String,
    source: SharedWorkItemKernel,
    stages: Vec<SharedStageKernel>,
    /// Per-node output quota (source first), chained through
    /// [`StageKernel::outputs_per_workitem`].
    quotas: Vec<u64>,
}

impl KernelGraph {
    /// The trivial one-node graph: exactly the single-kernel job.
    pub fn single(kernel: SharedWorkItemKernel) -> Self {
        let quota = kernel.outputs_per_workitem();
        Self {
            name: kernel.name().to_string(),
            source: kernel,
            stages: Vec::new(),
            quotas: vec![quota],
        }
    }

    /// Start a named multi-stage pipeline from a source kernel; chain
    /// downstream stages with [`then`](Self::then).
    pub fn pipeline(name: impl Into<String>, source: SharedWorkItemKernel) -> Self {
        let quota = source.outputs_per_workitem();
        Self {
            name: name.into(),
            source,
            stages: Vec::new(),
            quotas: vec![quota],
        }
    }

    /// Append a stage consuming the current tail's output stream.
    pub fn then(mut self, stage: SharedStageKernel) -> Self {
        let upstream = *self.quotas.last().expect("graph always has a source");
        let quota = stage.outputs_per_workitem(upstream);
        assert!(
            quota >= 1,
            "stage {} would emit no outputs (upstream quota {upstream})",
            stage.name()
        );
        self.quotas.push(quota);
        self.stages.push(stage);
        self
    }

    /// Graph name (the source kernel's name for a single-node graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (source + downstream stages).
    #[allow(clippy::len_without_is_empty)] // a graph always has >= 1 node
    pub fn len(&self) -> usize {
        1 + self.stages.len()
    }

    /// True for the trivial one-node graph (the single-kernel job).
    pub fn is_single(&self) -> bool {
        self.stages.is_empty()
    }

    /// The source kernel.
    pub fn source(&self) -> &SharedWorkItemKernel {
        &self.source
    }

    /// The downstream stage kernels, in pipeline order (empty for the
    /// one-node graph). Together with [`source`](KernelGraph::source) this
    /// lets a caller rebuild the host-mediated stage-by-stage composition
    /// the pipe-connected pass is checked against in the tests.
    pub fn stage_kernels(&self) -> &[SharedStageKernel] {
        &self.stages
    }

    /// Static names of all nodes, source first.
    pub fn node_names(&self) -> Vec<&'static str> {
        let mut names = vec![self.source.name()];
        names.extend(self.stages.iter().map(|s| s.name()));
        names
    }

    /// Per-node output quota (source first).
    pub fn quotas(&self) -> &[u64] {
        &self.quotas
    }

    /// The final stage's per-work-item quota — what the graph as a whole
    /// owes each work-item.
    pub fn final_quota(&self) -> u64 {
        *self.quotas.last().expect("graph always has a source")
    }

    /// Topology digest: node chain with per-node quotas, e.g.
    /// `gamma-listing2*4096>window-aggregate*256>severity-scale*256`.
    pub fn topology(&self) -> String {
        self.node_names()
            .iter()
            .zip(&self.quotas)
            .map(|(n, q)| format!("{n}*{q}"))
            .collect::<Vec<_>>()
            .join(">")
    }

    /// Fold of every node's
    /// [`param_digest`](crate::kernel::WorkItemKernel::param_digest)
    /// (source first) — the constructor-parameter half of the cache
    /// fingerprint.
    fn param_chain(&self) -> u64 {
        let mut d = crate::digest::Digest::new().u64(self.source.param_digest());
        for s in &self.stages {
            d = d.u64(s.param_digest());
        }
        d.finish()
    }

    /// The graph half of a result-cache key: for a one-node graph this is
    /// [`ExecutionPlan::fingerprint`] plus the source kernel's quota and
    /// phase count — the plan fingerprint alone carries only geometry, so
    /// without the kernel half two jobs differing *only* in per-work-item
    /// quota (same name, seed and plan) would collide in the result cache
    /// and serve the wrong report. A multi-stage graph appends its
    /// topology digest (which already embeds every node's quota) and edge
    /// depth, so two graphs sharing a source but differing anywhere
    /// downstream can never collide.
    ///
    /// Both forms end with `|k{digest}`: the FNV-1a fold of every node's
    /// constructor-parameter digest. Name, quota and topology say nothing
    /// about truncation points, mixture rates, or a kernel's internal
    /// seed — two *configurations* of one kernel type used to be
    /// indistinguishable here, which is why the figure binaries had to
    /// run with caching disabled. With parameters in the fingerprint the
    /// key is safe to persist: the durable disk cache trusts it across
    /// process restarts (`fingerprint_is_stable` below pins the exact
    /// rendering — changing it silently orphans every on-disk entry).
    pub fn fingerprint(&self, plan: &GraphPlan) -> String {
        if self.is_single() {
            format!(
                "{}|q{}p{}|k{:016x}",
                plan.base.fingerprint(),
                self.final_quota(),
                self.source.phases(),
                self.param_chain(),
            )
        } else {
            format!(
                "{}|g:{}|ed{}|k{:016x}",
                plan.base.fingerprint(),
                self.topology(),
                plan.depth(),
                self.param_chain(),
            )
        }
    }
}

impl std::fmt::Debug for KernelGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelGraph")
            .field("name", &self.name)
            .field("topology", &self.topology())
            .finish()
    }
}

/// Geometry of one graph execution: the shared per-stage [`ExecutionPlan`]
/// plus the inter-stage FIFO depth. Generalizes `ExecutionPlan` the way
/// [`KernelGraph`] generalizes a kernel — a one-node graph under
/// `GraphPlan::new(plan)` behaves exactly like `plan` did.
#[derive(Clone)]
pub struct GraphPlan {
    /// The per-stage execution plan: work-item count, `wid_base`, local
    /// size, platform parameters. Every stage shares it.
    pub base: ExecutionPlan,
    /// Depth of each inter-stage FIFO; defaults to the base plan's
    /// compute→transfer `stream_depth`.
    pub edge_depth: Option<usize>,
}

impl GraphPlan {
    /// Wrap a per-stage plan with the default inter-stage depth.
    pub fn new(base: ExecutionPlan) -> Self {
        Self {
            base,
            edge_depth: None,
        }
    }

    /// Override the inter-stage FIFO depth.
    pub fn edge_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "edge depth must be positive");
        self.edge_depth = Some(depth);
        self
    }

    /// Effective inter-stage FIFO depth.
    pub fn depth(&self) -> usize {
        self.edge_depth.unwrap_or(self.base.stream_depth)
    }

    /// Pick the inter-stage FIFO depth automatically from the
    /// [`dwi_hls::dataflow`] cost model: sweep a candidate ladder and keep
    /// the **smallest** depth minimizing modeled stall cycles for this
    /// graph's topology (quota ratios decide everything — a decimating
    /// window wants at least its window of slack upstream, a 1:1 stage
    /// wants almost none).
    ///
    /// Values are untouched by construction: edge depth only changes
    /// *when* tokens move through the blocking FIFOs, never *what* moves
    /// — the pinning test executes the same graph across the whole
    /// candidate ladder and asserts byte-identical final samples. The
    /// pick is a pure function of the topology, so the multi-stage cache
    /// fingerprint (`ed{depth}`) stays deterministic.
    pub fn auto_edge_depth(mut self, graph: &KernelGraph) -> Self {
        if graph.is_single() {
            // No inter-stage edge to size.
            return self;
        }
        let mut candidates = vec![1usize, 2, 4, 8, 16, 32, 64, self.base.stream_depth];
        candidates.sort_unstable();
        candidates.dedup();
        let best = candidates
            .into_iter()
            // Smallest depth among the stall minimizers: deeper FIFOs
            // are pure cost once the stalls have bottomed out.
            .min_by_key(|&d| (modeled_edge_stalls(graph, d), d))
            .expect("candidate ladder is non-empty");
        self.edge_depth = Some(best);
        self
    }

    /// NDRange groups of the shared geometry (the shard-count unit).
    pub fn groups(&self) -> u32 {
        self.base.groups()
    }

    /// Split into at most `n` contiguous work-item shards, exactly like
    /// [`ExecutionPlan::split`] — every stage of a shard inherits the same
    /// `wid_base` slice, so per-stage RNG streams (and therefore values)
    /// are placement-independent across the whole pipeline.
    pub fn split(&self, n: u32) -> Vec<GraphPlan> {
        self.base
            .split(n)
            .into_iter()
            .map(|base| GraphPlan {
                base,
                edge_depth: self.edge_depth,
            })
            .collect()
    }
}

/// Transfer/stall/occupancy accounting for one inter-stage FIFO, measured
/// by the pipe-connected pass. Conservation: `pushed = pulled + residue`
/// and upstream emissions = `pushed + dropped`.
///
/// The stall and occupancy fields measure the pass's *cooperative*
/// schedule, not hardware: each round steps the stages in pipeline
/// order, so a consumer mostly takes a token in the round its producer
/// wrote it. On the CreditRisk+ graph (mixture → window-8 → scale)
/// `high_water` reads 1 on both edges at every depth, and `write_stalls`
/// 0 at every depth ≥ 2. The modeled hardware occupancy and stalls are
/// [`GraphDataflow::edge_high_water`] and [`GraphDataflow::stage_stalls`].
#[derive(Debug, Clone, Default)]
pub struct EdgeReport {
    /// Upstream node index.
    pub from: usize,
    /// Downstream node index.
    pub to: usize,
    /// FIFO depth.
    pub depth: usize,
    /// Tokens written into the FIFO.
    pub pushed: u64,
    /// Tokens the downstream stage consumed.
    pub pulled: u64,
    /// Tokens left unread in the FIFO when the pipeline finished (e.g. a
    /// window aggregator's non-dividing remainder).
    pub residue: u64,
    /// Upstream emissions discarded because the downstream stage had
    /// already finished.
    pub dropped: u64,
    /// Cooperative scheduler rounds the upstream stage was ready but
    /// back-pressured by a full FIFO.
    pub write_stalls: u64,
    /// Cooperative scheduler rounds the downstream stage was ready but
    /// starved by an empty FIFO.
    pub read_stalls: u64,
    /// Peak FIFO occupancy over all work-items under the cooperative
    /// schedule.
    pub high_water: usize,
}

/// Cycle-level cost model of the whole pipeline from the
/// [`dwi_hls::dataflow`] stepper: one node per stage with its measured
/// initiation interval (iterations per output of the slowest work-item),
/// FIFO edges at the plan's depth. Derived purely from the per-stage
/// sub-reports, so it is identical across backends and re-derivable after a
/// shard merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDataflow {
    /// Modeled makespan of the slowest work-item's chain, in cycles.
    pub cycles: u64,
    /// Modeled per-stage initiation interval (iterations per output).
    pub stage_ii: Vec<u64>,
    /// Firings per stage (outputs of the slowest work-item).
    pub stage_firings: Vec<u64>,
    /// Stall cycles per stage (ready but blocked on a FIFO).
    pub stage_stalls: Vec<u64>,
    /// Tokens moved per inter-stage edge.
    pub edge_tokens: Vec<u64>,
    /// Peak modeled occupancy per inter-stage edge.
    pub edge_high_water: Vec<usize>,
}

/// Uniform result of executing one [`KernelGraph`] on one backend —
/// [`RunReport`] generalized to a pipeline: one full sub-report per stage,
/// per-edge accounting, and the dataflow cost model.
#[derive(Debug)]
pub struct GraphReport {
    /// Graph name.
    pub graph: String,
    /// Executing backend's name.
    pub backend: &'static str,
    /// One complete [`RunReport`] per node, source first. The last stage's
    /// `samples` are the pipeline's final output stream.
    pub stages: Vec<RunReport>,
    /// Inter-stage FIFO accounting (empty for a one-node graph).
    pub edges: Vec<EdgeReport>,
    /// Dataflow cost model (`None` for a one-node graph, whose cycles are
    /// the backend's own).
    pub dataflow: Option<GraphDataflow>,
    /// Runtime-determining cycles: the stage report's for a one-node
    /// graph, the modeled pipeline makespan otherwise.
    pub cycles: u64,
    /// Wall-clock per node, summing to the whole execution. Entry 0 covers
    /// the pipe-connected pass (every stage's compute) and the source's
    /// report; entry `k > 0` covers building node `k`'s report (or its
    /// own dispatch, where the backend re-runs stages). Feeds the
    /// runtime's `stage{i}` timeline sub-spans.
    pub stage_elapsed: Vec<Duration>,
}

impl GraphReport {
    /// The final stage's report — the pipeline's output.
    pub fn final_report(&self) -> &RunReport {
        self.stages.last().expect("graph report has stages")
    }

    /// Per-work-item final sample streams.
    pub fn final_samples(&self) -> &[Vec<f32>] {
        &self.final_report().samples
    }

    /// True for the report of a one-node graph.
    pub fn is_single(&self) -> bool {
        self.stages.len() == 1
    }

    /// Unwrap the one-node graph's report — the exact [`RunReport`] the
    /// pre-graph single-kernel path produced. Panics on a multi-stage
    /// report.
    pub fn into_single(mut self) -> RunReport {
        assert!(
            self.is_single(),
            "into_single on a {}-stage graph report",
            self.stages.len()
        );
        self.stages.pop().expect("stage checked")
    }

    /// Modeled runtime at `freq_hz`.
    pub fn runtime_s(&self, freq_hz: f64) -> f64 {
        crate::model::iterations_runtime_s(self.cycles as f64, freq_hz)
    }

    /// Merge shard reports (from executing [`GraphPlan::split`] shards on
    /// one backend) into the unsplit run's report — bit-identical to
    /// executing `plan` monolithically: each stage merges through
    /// [`RunReport::merge`] (per-backend cycle semantics included), edge
    /// counters sum (high-water maxes), and the dataflow model is
    /// re-derived from the merged stage reports, which equals the
    /// monolithic model because per-stage maxima over all work-items are
    /// maxima over the shard maxima.
    ///
    /// A lone shard already is the unsplit run's report and comes back as
    /// is, once its stages' offset and work-item count match `plan` (a
    /// remote shard's report is input from another host).
    pub fn merge(
        graph: &KernelGraph,
        plan: &GraphPlan,
        mut shards: Vec<GraphReport>,
    ) -> GraphReport {
        assert!(!shards.is_empty(), "nothing to merge");
        let nodes = graph.len();
        for s in &shards {
            assert_eq!(s.stages.len(), nodes, "shard stage count mismatch");
        }
        if shards.len() == 1 {
            let only = shards.pop().expect("len checked");
            for r in &only.stages {
                assert_eq!(r.wid_base, plan.base.wid_base, "shard offset mismatch");
                assert_eq!(r.workitems, plan.base.workitems, "shard count mismatch");
            }
            return only;
        }
        let backend = shards[0].backend;
        let mut stage_elapsed = vec![Duration::ZERO; nodes];
        let mut edges: Vec<EdgeReport> = (0..nodes.saturating_sub(1))
            .map(|k| EdgeReport {
                from: k,
                to: k + 1,
                depth: plan.depth(),
                ..EdgeReport::default()
            })
            .collect();
        let mut per_stage: Vec<Vec<RunReport>> = (0..nodes).map(|_| Vec::new()).collect();
        for shard in shards {
            assert_eq!(shard.backend, backend, "shards from different backends");
            for (k, r) in shard.stages.into_iter().enumerate() {
                per_stage[k].push(r);
            }
            for (acc, e) in edges.iter_mut().zip(shard.edges) {
                acc.pushed += e.pushed;
                acc.pulled += e.pulled;
                acc.residue += e.residue;
                acc.dropped += e.dropped;
                acc.write_stalls += e.write_stalls;
                acc.read_stalls += e.read_stalls;
                acc.high_water = acc.high_water.max(e.high_water);
            }
            for (acc, d) in stage_elapsed.iter_mut().zip(shard.stage_elapsed) {
                // Shards run in parallel: a stage's span is its slowest
                // shard's.
                *acc = (*acc).max(d);
            }
        }
        let stages: Vec<RunReport> = per_stage
            .into_iter()
            .map(|reports| RunReport::merge(&plan.base, reports))
            .collect();
        let dataflow = (nodes > 1).then(|| model_dataflow(&stages, plan.depth()));
        let cycles = match &dataflow {
            Some(df) => df.cycles,
            None => stages[0].cycles,
        };
        GraphReport {
            graph: graph.name().to_string(),
            backend,
            stages,
            edges,
            dataflow,
            cycles,
            stage_elapsed,
        }
    }
}

/// A [`StageKernel`] driven from recorded upstream samples, as a
/// [`WorkItemKernel`] any backend can execute directly — the host-mediated
/// composition: stage `k` reads stage `k-1`'s finished output instead of a
/// live stream. [`execute`] re-runs stages through it where the backend
/// cannot build a stage's report from the pipe-connected pass, and the
/// parity tests use it as the reference that pass must match
/// bit-for-bit.
pub struct StagedKernel {
    stage: SharedStageKernel,
    /// Upstream per-work-item sample streams, indexed `wid - wid_base`.
    feed: Arc<Vec<Vec<f32>>>,
    wid_base: u32,
    quota: u64,
    phases: u32,
}

impl StagedKernel {
    /// Wrap `stage` reading `feed` (upstream samples for work-items
    /// `wid_base..`), with the upstream per-work-item quota declared by the
    /// graph's quota chain.
    pub fn new(
        stage: SharedStageKernel,
        feed: Arc<Vec<Vec<f32>>>,
        wid_base: u32,
        upstream_quota: u64,
    ) -> Self {
        let quota = stage.outputs_per_workitem(upstream_quota);
        let phases = stage.phases();
        Self {
            stage,
            feed,
            wid_base,
            quota,
            phases,
        }
    }
}

impl WorkItemKernel for StagedKernel {
    fn name(&self) -> &'static str {
        self.stage.name()
    }

    fn outputs_per_workitem(&self) -> u64 {
        self.quota
    }

    fn phases(&self) -> u32 {
        self.phases
    }

    fn param_digest(&self) -> u64 {
        self.stage.param_digest()
    }

    fn instantiate(&self, wid: u32) -> Box<dyn KernelInstance> {
        let idx = wid.checked_sub(self.wid_base).expect("wid below feed base") as usize;
        assert!(idx < self.feed.len(), "wid beyond recorded feed");
        Box::new(StagedInstance {
            inner: self.stage.instantiate(wid),
            feed: self.feed.clone(),
            idx,
            pos: 0,
        })
    }
}

struct StagedInstance {
    inner: Box<dyn StageInstance>,
    feed: Arc<Vec<Vec<f32>>>,
    idx: usize,
    pos: usize,
}

impl KernelInstance for StagedInstance {
    fn step(&mut self) -> Step {
        let mut input = SlicePull {
            data: &self.feed[self.idx],
            pos: &mut self.pos,
            used: false,
        };
        self.inner.step(&mut input)
    }

    fn stats(&self) -> RejectionStats {
        self.inner.stats()
    }
}

/// Recorded-sample pull: `None` exactly when the recorded stream is
/// exhausted — the same semantics the gated live-stream pull guarantees.
struct SlicePull<'a> {
    data: &'a [f32],
    pos: &'a mut usize,
    used: bool,
}

impl StageInput for SlicePull<'_> {
    fn pull(&mut self) -> Option<f32> {
        assert!(!self.used, "stage pulled more than once in one step");
        self.used = true;
        let v = self.data.get(*self.pos).copied();
        if v.is_some() {
            *self.pos += 1;
        }
        v
    }
}

/// Live-stream pull used by the pipe-connected pass. The cooperative
/// scheduler only steps a stage when its FIFO holds a token or the
/// upstream stage has finished, so `None` here carries the same
/// "upstream exhausted" meaning [`SlicePull`] gives — a stage cannot
/// observe scheduling.
struct FifoPull<'a> {
    fifo: &'a mut VecDeque<f32>,
    upstream_done: bool,
    pulled: &'a mut u64,
    used: bool,
}

impl StageInput for FifoPull<'_> {
    fn pull(&mut self) -> Option<f32> {
        assert!(!self.used, "stage pulled more than once in one step");
        self.used = true;
        match self.fifo.pop_front() {
            Some(v) => {
                *self.pulled += 1;
                Some(v)
            }
            None => {
                assert!(
                    self.upstream_done,
                    "stage pulled on an empty stream with the producer still live \
                     (scheduler gate violated)"
                );
                None
            }
        }
    }
}

/// One node's live instance in the pipe-connected pass.
enum NodeInst {
    Source(Box<dyn KernelInstance>),
    Stage(Box<dyn StageInstance>),
}

/// What one node did in the pipe-connected pass, per work-item (vectors
/// indexed `wid - wid_base`). A stage's behaviour depends only on the
/// tokens it consumed, so this is exactly what a run of the node on its
/// own would see; [`Backend::stage_report`] builds the node's
/// [`RunReport`] from it.
#[derive(Debug)]
pub struct StageRun {
    /// Node name ([`StageKernel::name`] or the source kernel's).
    pub(crate) kernel: &'static str,
    /// The node's per-work-item quota in the graph's quota chain.
    pub(crate) quota: u64,
    /// Emitted values, in order — the node's output stream, dropped
    /// emissions included.
    pub(crate) samples: Vec<Vec<f32>>,
    /// Steps until the node reported `done`.
    pub(crate) iterations: Vec<u64>,
    /// Divergence outcome of every step.
    pub(crate) divergence: Vec<DivergenceCounts>,
    /// The instance's rejection statistics after its last step.
    pub(crate) stats: Vec<RejectionStats>,
}

/// Execute `graph` under `plan` on `backend` — the universal entry point
/// behind [`Backend::run`].
///
/// A one-node graph is executed exactly as the bare kernel (same call, same
/// report, byte-identical results and cache identity). A multi-stage graph
/// runs once: the pipe-connected pass (real bounded FIFOs, cooperative
/// per-work-item scheduling, stall/occupancy accounting) computes every
/// stage, and [`Backend::stage_report`] builds each stage's report from
/// the pass's record. Where that returns `None`, the stage runs again as
/// its own dispatch on the previous stage's streams ([`StagedKernel`]).
pub fn execute<B: Backend + ?Sized>(
    backend: &B,
    graph: &KernelGraph,
    plan: &GraphPlan,
) -> GraphReport {
    let nodes = graph.len();
    if graph.is_single() {
        let t0 = Instant::now();
        let report = backend.execute(graph.source().as_ref(), &plan.base);
        let cycles = report.cycles;
        return GraphReport {
            graph: graph.name().to_string(),
            backend: backend.name(),
            stages: vec![report],
            edges: Vec::new(),
            dataflow: None,
            cycles,
            stage_elapsed: vec![t0.elapsed()],
        };
    }

    let mut lap = Instant::now();
    let (runs, edges) = streamed_pass(graph, plan);
    let mut stages: Vec<RunReport> = Vec::with_capacity(nodes);
    let mut stage_elapsed: Vec<Duration> = Vec::with_capacity(nodes);
    for (k, run) in runs.iter().enumerate() {
        let report = backend
            .stage_report(run, &plan.base)
            .unwrap_or_else(|| match k {
                0 => backend.execute(graph.source().as_ref(), &plan.base),
                _ => {
                    let feed = Arc::new(stages[k - 1].samples.clone());
                    let staged = StagedKernel::new(
                        graph.stages[k - 1].clone(),
                        feed,
                        plan.base.wid_base,
                        graph.quotas[k - 1],
                    );
                    backend.execute(&staged, &plan.base)
                }
            });
        stages.push(report);
        let now = Instant::now();
        stage_elapsed.push(now - lap);
        lap = now;
    }

    let dataflow = model_dataflow(&stages, plan.depth());
    let cycles = dataflow.cycles;
    GraphReport {
        graph: graph.name().to_string(),
        backend: backend.name(),
        stages,
        edges,
        dataflow: Some(dataflow),
        cycles,
        stage_elapsed,
    }
}

/// The pipe-connected pass: for each work-item, instantiate the whole
/// chain, couple adjacent stages with a bounded FIFO, and schedule
/// cooperatively in pipeline order. A stage is stepped only when its
/// output FIFO has space (back-pressure) and its input FIFO holds a token
/// or the upstream stage has finished (no spurious `None`s) — blocked
/// rounds are counted as the edge's write/read stalls.
///
/// One thread runs every stage of the chain, so each edge is a plain
/// `VecDeque` ring owned by this function, bounded at `depth` by the
/// scheduler's write gate: the blocking [`dwi_hls::stream`] FIFOs are for
/// stages on threads of their own, and a lock and condition variable per
/// token would cost several times what the stages do. The rings are
/// reserved once, at `min(depth, quota)`, and emptied between
/// work-items. Returns every node's record, source first, and the edges'
/// accounting.
fn streamed_pass(graph: &KernelGraph, plan: &GraphPlan) -> (Vec<StageRun>, Vec<EdgeReport>) {
    let nodes = graph.len();
    let depth = plan.depth();
    let wi = plan.base.workitems as usize;
    let mut runs: Vec<StageRun> = graph
        .node_names()
        .into_iter()
        .zip(&graph.quotas)
        .map(|(kernel, &quota)| StageRun {
            kernel,
            quota,
            samples: Vec::with_capacity(wi),
            iterations: Vec::with_capacity(wi),
            divergence: Vec::with_capacity(wi),
            stats: Vec::with_capacity(wi),
        })
        .collect();
    let mut edges: Vec<EdgeReport> = (0..nodes - 1)
        .map(|k| EdgeReport {
            from: k,
            to: k + 1,
            depth,
            ..EdgeReport::default()
        })
        .collect();
    let mut fifos: Vec<VecDeque<f32>> = graph.quotas()[..nodes - 1]
        .iter()
        .map(|&quota| VecDeque::with_capacity(depth.min(quota as usize)))
        .collect();

    for w in 0..plan.base.workitems {
        let wid = plan.base.wid_base + w;
        let mut insts: Vec<NodeInst> = Vec::with_capacity(nodes);
        insts.push(NodeInst::Source(graph.source().instantiate(wid)));
        for stage in &graph.stages {
            insts.push(NodeInst::Stage(stage.instantiate(wid)));
        }
        let mut done = vec![false; nodes];
        let w = w as usize;
        for run in &mut runs {
            run.samples.push(Vec::new());
            run.iterations.push(0);
            run.divergence.push(DivergenceCounts::default());
        }
        loop {
            let mut progressed = false;
            for k in 0..nodes {
                if done[k] {
                    continue;
                }
                // Back-pressure: a full FIFO (with a live consumer) blocks
                // the producer, exactly as the blocking write would.
                if k + 1 < nodes && !done[k + 1] && fifos[k].len() >= depth {
                    edges[k].write_stalls += 1;
                    continue;
                }
                // Starvation: no token and the producer is still live.
                if k > 0 && !done[k - 1] && fifos[k - 1].is_empty() {
                    edges[k - 1].read_stalls += 1;
                    continue;
                }
                let st = match &mut insts[k] {
                    NodeInst::Source(inst) => inst.step(),
                    NodeInst::Stage(inst) => {
                        let mut input = FifoPull {
                            fifo: &mut fifos[k - 1],
                            upstream_done: done[k - 1],
                            pulled: &mut edges[k - 1].pulled,
                            used: false,
                        };
                        inst.step(&mut input)
                    }
                };
                let run = &mut runs[k];
                run.iterations[w] += 1;
                run.divergence[w].record(st.divergence);
                assert!(
                    run.iterations[w] < run.quota.saturating_mul(1000).saturating_add(1000),
                    "runaway stage {} (work-item {wid})",
                    graph.node_names()[k]
                );
                if let Some(v) = st.emit {
                    run.samples[w].push(v);
                    if k + 1 < nodes {
                        if done[k + 1] {
                            // The consumer already finished (quota or
                            // truncation): the emission has nowhere to go.
                            edges[k].dropped += 1;
                        } else {
                            let fifo = &mut fifos[k];
                            assert!(fifo.len() < depth, "write gated on space");
                            fifo.push_back(v);
                            edges[k].pushed += 1;
                            edges[k].high_water = edges[k].high_water.max(fifo.len());
                        }
                    }
                }
                if st.done {
                    done[k] = true;
                }
                progressed = true;
            }
            if done.iter().all(|d| *d) {
                break;
            }
            assert!(
                progressed,
                "kernel graph stalled: no stage can make progress (work-item {wid})"
            );
        }
        for (edge, fifo) in edges.iter_mut().zip(&mut fifos) {
            edge.residue += fifo.len() as u64;
            fifo.clear();
        }
        for (run, inst) in runs.iter_mut().zip(&insts) {
            run.stats.push(match inst {
                NodeInst::Source(inst) => inst.stats(),
                NodeInst::Stage(inst) => inst.stats(),
            });
        }
    }
    (runs, edges)
}

/// Run one work-item's pipeline chain through the dataflow model: node
/// `k` fires `emitted[k]` times at initiation interval `ii[k]`, consuming
/// its rate-conversion factor (upstream outputs per own output — a
/// decimating window consumes W tokens to emit one) from the input FIFO
/// each firing; edges are FIFOs at `depth`, widened to the consume rate
/// when a window exceeds it.
fn run_chain(names: &[&'static str], emitted: &[u64], ii: &[u64], depth: usize) -> DataflowResult {
    let n = emitted.len();
    let consume: Vec<u64> = (1..n)
        .map(|k| ((emitted[k - 1] as f64 / emitted[k] as f64).round() as u64).max(1))
        .collect();
    let mut g = DataflowGraph::new();
    let edge_ids: Vec<_> = (0..n - 1)
        .map(|k| g.edge(depth.max(consume[k] as usize)))
        .collect();
    let mut budget_total = 0u64;
    for k in 0..n {
        budget_total = budget_total.saturating_add(ii[k].saturating_mul(emitted[k]));
        let inputs: Vec<_> = (k > 0)
            .then(|| (edge_ids[k - 1], consume[k - 1]))
            .into_iter()
            .collect();
        let outputs: Vec<_> = (k + 1 < n).then(|| (edge_ids[k], 1)).into_iter().collect();
        g.rated_node(names[k], ii[k], &inputs, &outputs, Some(emitted[k]));
    }
    let guard = budget_total.saturating_mul(4).saturating_add(10_000);
    g.run(guard)
}

/// Modeled stall cycles of one work-item's pipeline chain at the given
/// inter-stage FIFO depth — the pre-execution half of the report-side
/// `model_dataflow`:
/// same node-per-stage topology, but rates come from the graph's static
/// quota chain (no measured iterations yet, so every stage models at
/// II = 1). Large quotas are scaled down proportionally so the sweep in
/// [`GraphPlan::auto_edge_depth`] stays cheap regardless of job size;
/// the quota *ratios* — which decide where stalls come from — survive
/// the scaling.
pub fn modeled_edge_stalls(graph: &KernelGraph, depth: usize) -> u64 {
    let q = graph.quotas();
    if q.len() < 2 {
        return 0;
    }
    let scale = (q[0] / 4096).max(1);
    let emitted: Vec<u64> = q.iter().map(|&v| (v / scale).max(1)).collect();
    let ii = vec![1; q.len()];
    run_chain(&graph.node_names(), &emitted, &ii, depth)
        .stalls
        .iter()
        .sum()
}

/// Derive the [`GraphDataflow`] cost model from per-stage sub-reports:
/// node `k` fires once per output of its slowest work-item at the measured
/// initiation interval (iterations per output, rounded). Purely a function
/// of the stage reports, so the model is backend-independent and survives
/// shard merges unchanged.
fn model_dataflow(stages: &[RunReport], depth: usize) -> GraphDataflow {
    let emitted: Vec<u64> = stages
        .iter()
        .map(|r| {
            r.samples
                .iter()
                .map(|s| s.len() as u64)
                .max()
                .unwrap_or(0)
                .max(1)
        })
        .collect();
    let stage_ii: Vec<u64> = stages
        .iter()
        .zip(&emitted)
        .map(|(r, &out)| {
            let iters = r.iterations.iter().copied().max().unwrap_or(0);
            ((iters as f64 / out as f64).round() as u64).max(1)
        })
        .collect();
    let names: Vec<_> = stages.iter().map(|r| r.kernel).collect();
    let r = run_chain(&names, &emitted, &stage_ii, depth);
    GraphDataflow {
        cycles: r.cycles,
        stage_ii,
        stage_firings: r.firings,
        stage_stalls: r.stalls,
        edge_tokens: r.tokens,
        edge_high_water: r.high_water,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{SeverityExpMix, TruncatedNormalKernel};
    use crate::backend::{all_backends, FunctionalDecoupled};
    use crate::stages::{SeverityScale, WindowAggregate};

    fn source() -> SharedWorkItemKernel {
        Arc::new(SeverityExpMix::credit_severity(64, 9))
    }

    fn pipeline() -> KernelGraph {
        KernelGraph::pipeline("test-pipe", source())
            .then(Arc::new(WindowAggregate::new(4)))
            .then(Arc::new(SeverityScale::credit(21)))
    }

    #[test]
    fn single_graph_report_is_bare_kernel_report() {
        let graph = KernelGraph::single(source());
        let plan = GraphPlan::new(ExecutionPlan::new(3));
        let backend = FunctionalDecoupled;
        let bare = backend.execute(graph.source().as_ref(), &plan.base);
        let wrapped = execute(&backend, &graph, &plan).into_single();
        assert_eq!(wrapped.samples, bare.samples);
        assert_eq!(wrapped.iterations, bare.iterations);
        assert_eq!(wrapped.cycles, bare.cycles);
    }

    #[test]
    fn quota_chain_follows_stages() {
        let g = pipeline();
        assert_eq!(g.quotas(), &[64, 16, 16]);
        assert_eq!(g.final_quota(), 16);
        assert_eq!(g.len(), 3);
        assert!(!g.is_single());
    }

    #[test]
    fn fingerprint_single_extends_plan_with_kernel_shape() {
        let g = KernelGraph::single(source());
        let plan = GraphPlan::new(ExecutionPlan::new(4));
        let fp = g.fingerprint(&plan);
        assert!(
            fp.starts_with(&plan.base.fingerprint()),
            "plan geometry leads the key: {fp}"
        );
        // The kernel half matters: the same plan under a different quota
        // must produce a different cache identity (jobs differing only in
        // quota must never collide in the result cache).
        let doubled = KernelGraph::single(Arc::new(SeverityExpMix::credit_severity(128, 3)));
        let halved = KernelGraph::single(Arc::new(SeverityExpMix::credit_severity(64, 3)));
        assert_ne!(doubled.fingerprint(&plan), halved.fingerprint(&plan));
    }

    #[test]
    fn fingerprint_multi_is_topology_aware() {
        let plan = GraphPlan::new(ExecutionPlan::new(4));
        let a = pipeline().fingerprint(&plan);
        let b = KernelGraph::pipeline("p", source())
            .then(Arc::new(WindowAggregate::new(8)))
            .fingerprint(&plan);
        assert_ne!(a, b);
        assert!(a.contains("window-aggregate"), "{a}");
        assert_ne!(a, plan.base.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_kernel_configurations() {
        // Same kernel type, same quota, same plan — different truncation
        // point. Before parameter digests these collided, which is why
        // the figure binaries had to disable caching; the durable disk
        // tier makes the distinction load-bearing across restarts.
        let plan = GraphPlan::new(ExecutionPlan::new(4));
        let a = KernelGraph::single(Arc::new(TruncatedNormalKernel::new(1.0, 32, 7)));
        let b = KernelGraph::single(Arc::new(TruncatedNormalKernel::new(2.0, 32, 7)));
        assert_ne!(a.fingerprint(&plan), b.fingerprint(&plan));
        // A different *internal* kernel seed must also split the key —
        // the job-level seed parameter cannot see it.
        let c = KernelGraph::single(Arc::new(TruncatedNormalKernel::new(1.0, 32, 8)));
        assert_ne!(a.fingerprint(&plan), c.fingerprint(&plan));
        // Downstream stage parameters reach the multi-stage fingerprint.
        let p1 = KernelGraph::pipeline("p", source())
            .then(Arc::new(SeverityScale::credit(3)))
            .fingerprint(&plan);
        let p2 = KernelGraph::pipeline("p", source())
            .then(Arc::new(SeverityScale::credit(4)))
            .fingerprint(&plan);
        assert_ne!(p1, p2);
    }

    #[test]
    fn fingerprint_is_stable() {
        // Exact-rendering pin: the fingerprint is the durable disk
        // cache's on-disk key, so any change to its format or to a
        // param digest silently orphans every persisted entry. If this
        // test fails because the format changed *deliberately*, bump
        // the disk-cache format version alongside it.
        let plan = GraphPlan::new(ExecutionPlan::new(4));
        let g = KernelGraph::single(Arc::new(TruncatedNormalKernel::new(1.5, 32, 7)));
        assert_eq!(
            g.fingerprint(&plan),
            format!("{}|q32p1|k9639919aa43f9d04", plan.base.fingerprint())
        );
    }

    #[test]
    fn split_preserves_wid_base_and_depth() {
        let plan = GraphPlan::new(ExecutionPlan::new(8)).edge_depth(5);
        let shards = plan.split(3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.base.workitems).sum::<u32>(), 8);
        let mut next = 0;
        for s in &shards {
            assert_eq!(s.base.wid_base, next);
            assert_eq!(s.depth(), 5);
            next += s.base.workitems;
        }
    }

    #[test]
    fn pipeline_executes_and_accounts_edges() {
        let graph = pipeline();
        let plan = GraphPlan::new(ExecutionPlan::new(2)).edge_depth(8);
        let r = execute(&FunctionalDecoupled, &graph, &plan);
        assert_eq!(r.stages.len(), 3);
        assert_eq!(r.edges.len(), 2);
        for (k, e) in r.edges.iter().enumerate() {
            // Conservation: everything pushed is pulled or left behind,
            // and emissions split into pushed + dropped.
            assert_eq!(e.pushed, e.pulled + e.residue, "edge {k}");
            let emitted: u64 = r.stages[k].samples.iter().map(|s| s.len() as u64).sum();
            assert_eq!(emitted, e.pushed + e.dropped, "edge {k}");
            assert!(e.high_water <= plan.depth());
        }
        // Final output: 16 scaled severities per work-item.
        for s in r.final_samples() {
            assert_eq!(s.len(), 16);
        }
        let df = r.dataflow.as_ref().expect("multi-stage model");
        assert_eq!(df.stage_ii.len(), 3);
        assert!(df.cycles > 0);
        assert_eq!(r.cycles, df.cycles);
    }

    #[test]
    fn all_backends_agree_on_pipeline_samples() {
        let graph = pipeline();
        let plan = GraphPlan::new(ExecutionPlan::new(2));
        let reference = execute(&FunctionalDecoupled, &graph, &plan);
        for backend in all_backends() {
            let r = backend.run(&graph, &plan);
            assert_eq!(
                r.final_samples(),
                reference.final_samples(),
                "backend {}",
                backend.name()
            );
            // The dataflow model is a pure function of the (identical)
            // stage samples and iterations.
            assert_eq!(r.dataflow, reference.dataflow, "backend {}", backend.name());
        }
    }

    #[test]
    fn sharded_pipeline_merges_bit_identically() {
        let graph = pipeline();
        let plan = GraphPlan::new(ExecutionPlan::new(6));
        let whole = execute(&FunctionalDecoupled, &graph, &plan);
        for n in [1u32, 2, 3, 4] {
            let shards: Vec<_> = plan
                .split(n)
                .iter()
                .map(|p| execute(&FunctionalDecoupled, &graph, p))
                .collect();
            let merged = GraphReport::merge(&graph, &plan, shards);
            for k in 0..graph.len() {
                assert_eq!(
                    merged.stages[k].samples, whole.stages[k].samples,
                    "stage {k} with {n} shards"
                );
                assert_eq!(merged.stages[k].iterations, whole.stages[k].iterations);
            }
            assert_eq!(merged.dataflow, whole.dataflow, "{n} shards");
            assert_eq!(merged.cycles, whole.cycles);
        }
    }

    #[test]
    fn staged_kernel_is_the_host_mediated_reference() {
        // Composing by hand — run source, feed a StagedKernel — must equal
        // the graph execution's stage reports.
        let graph = pipeline();
        let plan = GraphPlan::new(ExecutionPlan::new(2));
        let backend = FunctionalDecoupled;
        let graph_run = execute(&backend, &graph, &plan);
        let r0 = backend.execute(graph.source().as_ref(), &plan.base);
        let s1 = StagedKernel::new(
            Arc::new(WindowAggregate::new(4)),
            Arc::new(r0.samples.clone()),
            0,
            64,
        );
        let r1 = backend.execute(&s1, &plan.base);
        let s2 = StagedKernel::new(
            Arc::new(SeverityScale::credit(21)),
            Arc::new(r1.samples.clone()),
            0,
            16,
        );
        let r2 = backend.execute(&s2, &plan.base);
        assert_eq!(graph_run.stages[1].samples, r1.samples);
        assert_eq!(graph_run.stages[2].samples, r2.samples);
    }

    #[test]
    fn tight_edge_depth_reports_backpressure() {
        let graph =
            KernelGraph::pipeline("tight", source()).then(Arc::new(WindowAggregate::new(4)));
        let deep = execute(
            &FunctionalDecoupled,
            &graph,
            &GraphPlan::new(ExecutionPlan::new(1)).edge_depth(64),
        );
        let tight = execute(
            &FunctionalDecoupled,
            &graph,
            &GraphPlan::new(ExecutionPlan::new(1)).edge_depth(1),
        );
        // Same values either way; only the stall accounting differs.
        assert_eq!(deep.final_samples(), tight.final_samples());
        assert!(
            tight.edges[0].write_stalls >= deep.edges[0].write_stalls,
            "depth-1 FIFO must not report less back-pressure"
        );
        assert!(tight.edges[0].high_water <= 1);
    }

    #[test]
    #[should_panic(expected = "shard offset mismatch")]
    fn lone_shard_for_another_offset_is_rejected() {
        let graph = pipeline();
        let plan = GraphPlan::new(ExecutionPlan::new(4));
        let wrong = plan.split(2).pop().expect("two shards");
        let report = execute(
            &FunctionalDecoupled,
            &graph,
            &GraphPlan::new(ExecutionPlan::new(4).wid_base(wrong.base.wid_base)),
        );
        let _ = GraphReport::merge(&graph, &plan, vec![report]);
    }

    #[test]
    #[should_panic(expected = "emit no outputs")]
    fn oversized_window_rejected_at_build() {
        let _ = KernelGraph::pipeline("bad", source()).then(Arc::new(WindowAggregate::new(1000)));
    }

    /// The auto-depth contract, pinned: picking the edge depth from the
    /// dataflow cost model may change stall accounting but never values,
    /// the pick minimizes modeled stalls over the candidate ladder (at
    /// the smallest such depth), and it is a deterministic function of
    /// the topology.
    #[test]
    fn auto_edge_depth_changes_stalls_never_values() {
        let graph = pipeline();
        let auto_plan = GraphPlan::new(ExecutionPlan::new(2)).auto_edge_depth(&graph);
        let chosen = auto_plan.depth();
        let auto_run = execute(&FunctionalDecoupled, &graph, &auto_plan);
        for depth in [1usize, 2, 4, 8, 16, 32, 64] {
            let run = execute(
                &FunctionalDecoupled,
                &graph,
                &GraphPlan::new(ExecutionPlan::new(2)).edge_depth(depth),
            );
            assert_eq!(
                run.final_samples(),
                auto_run.final_samples(),
                "edge depth {depth} changed values — depth must only move stalls"
            );
            assert!(
                modeled_edge_stalls(&graph, chosen) <= modeled_edge_stalls(&graph, depth),
                "auto pick {chosen} is not a stall minimum (depth {depth} beats it)"
            );
        }
        assert_eq!(
            chosen,
            GraphPlan::new(ExecutionPlan::new(2))
                .auto_edge_depth(&graph)
                .depth(),
            "auto pick must be deterministic"
        );
        // A one-node graph has no edge to size: auto is a no-op.
        let single = KernelGraph::single(source());
        assert!(GraphPlan::new(ExecutionPlan::new(2))
            .auto_edge_depth(&single)
            .edge_depth
            .is_none());
    }
}
