//! Generic cycle-level dataflow graphs.
//!
//! [`crate::sim`] hard-codes the paper's compute→FIFO→transfer shape; this
//! module provides the general `DATAFLOW` abstraction: named processes with
//! per-firing initiation intervals connected by bounded FIFOs, stepped one
//! cycle at a time. Used for what-if topologies (e.g. a shared packer, a
//! two-stage transform chain) and to sanity-check the specialized engine.
//!
//! Semantics per cycle, matching HLS dataflow hardware:
//! * a process *fires* when (a) its II timer expired, (b) every input FIFO
//!   holds its consume count, (c) every output FIFO has space for its
//!   produce count;
//! * a firing consumes its rate per input (one by default; decimators
//!   consume more, see [`DataflowGraph::rated_node`]), produces its rate
//!   per output after `latency` cycles (modeled as immediate enqueue with
//!   availability delayed by the FIFO's one-cycle visibility);
//! * sources fire a bounded number of times; the run ends when all sinks
//!   have consumed their quota.
//!
//! Each edge is kept as an occupancy count, not a queue of tokens. The
//! one-cycle visibility needs no per-token stamp: every cycle decides all
//! firings before any token moves, so a token produced on cycle `c` is
//! first looked at on cycle `c + 1`, exactly when it becomes visible.
//! Every queued token is therefore visible whenever a node checks its
//! inputs, and "holds its consume count" is `occupancy >= rate`.
//! `tests/dataflow_oracle.rs` keeps the stamp-per-token stepper as the
//! reference.
//!
//! Not every cycle of a run is stepped, though. The next firings depend only on which nodes are exhausted, how long
//! each II timer has left and each edge's occupancy. Once that state
//! repeats — a rated chain settles into a period soon after its FIFOs
//! fill — the run moves on by whole periods at once, adding each node's
//! firings and stalls and each edge's tokens per period, for as long as
//! every budgeted node stays at least one firing short of its budget
//! and the cycle guard is not reached. Peak occupancies cannot change
//! in a repeat, and the tail is stepped again. The result is the
//! stepped one; the oracle sweep checks that on chains long enough to
//! settle.

/// A FIFO edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

/// A process node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

struct Edge {
    /// Tokens queued; all of them are visible when firings are decided.
    occupancy: usize,
    capacity: usize,
    produced: u64,
    /// Peak occupancy — the FIFO-sizing signal HLS depth reports give.
    high_water: usize,
}

struct Node {
    name: String,
    ii: u64,
    /// Input edges with tokens consumed per firing.
    inputs: Vec<(EdgeId, u64)>,
    /// Output edges with tokens produced per firing.
    outputs: Vec<(EdgeId, u64)>,
    /// Remaining firings (None = unbounded, fires while inputs allow).
    budget: Option<u64>,
    fired: u64,
    next_ready: u64,
    stalls: u64,
}

/// A dataflow graph under construction / simulation.
#[derive(Default)]
pub struct DataflowGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

/// Result of a dataflow run.
#[derive(Debug, Clone)]
pub struct DataflowResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Firings per node.
    pub firings: Vec<u64>,
    /// Stall cycles per node (ready but blocked on a FIFO).
    pub stalls: Vec<u64>,
    /// Tokens moved per edge.
    pub tokens: Vec<u64>,
    /// Peak occupancy per edge — how much of each FIFO's depth the run
    /// actually used (the stream-depth sizing signal).
    pub high_water: Vec<usize>,
}

impl DataflowGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a FIFO edge of the given capacity.
    pub fn edge(&mut self, capacity: usize) -> EdgeId {
        assert!(capacity >= 1);
        self.edges.push(Edge {
            occupancy: 0,
            capacity,
            produced: 0,
            high_water: 0,
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Add a process: fires at most every `ii` cycles, consuming one token
    /// from each input and producing one on each output; `budget` bounds
    /// total firings (sources use it as the trip count).
    pub fn node(
        &mut self,
        name: &str,
        ii: u64,
        inputs: &[EdgeId],
        outputs: &[EdgeId],
        budget: Option<u64>,
    ) -> NodeId {
        let ins: Vec<_> = inputs.iter().map(|&e| (e, 1)).collect();
        let outs: Vec<_> = outputs.iter().map(|&e| (e, 1)).collect();
        self.rated_node(name, ii, &ins, &outs, budget)
    }

    /// Add a rate-converting process: each firing consumes `rate` tokens
    /// from every `(edge, rate)` input and produces `rate` tokens on every
    /// `(edge, rate)` output. Models decimators (window aggregation:
    /// consume W, produce 1) and expanders without changing the firing
    /// rule — a node fires when every input holds its full consume count
    /// and every output has space for its full produce count.
    pub fn rated_node(
        &mut self,
        name: &str,
        ii: u64,
        inputs: &[(EdgeId, u64)],
        outputs: &[(EdgeId, u64)],
        budget: Option<u64>,
    ) -> NodeId {
        assert!(ii >= 1, "II must be at least 1");
        assert!(
            inputs.iter().chain(outputs).all(|&(_, r)| r >= 1),
            "token rates must be at least 1"
        );
        for &(EdgeId(e), rate) in inputs.iter().chain(outputs) {
            assert!(
                rate as usize <= self.edges[e].capacity,
                "rate {rate} exceeds FIFO capacity {}",
                self.edges[e].capacity
            );
        }
        self.nodes.push(Node {
            name: name.to_string(),
            ii,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            budget,
            fired: 0,
            next_ready: 0,
            stalls: 0,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Name of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.nodes[n.0].name
    }

    /// Run until no node can ever fire again (budgets exhausted or
    /// deadlock); returns the cycle report. Panics on exceeding `max_cycles`
    /// (deadlock guard).
    pub fn run(&mut self, max_cycles: u64) -> DataflowResult {
        self.simulate(max_cycles).0
    }

    /// [`run`](Self::run), also returning how many cycles were skipped
    /// as whole periods of a repeating state (see the module doc).
    fn simulate(&mut self, max_cycles: u64) -> (DataflowResult, u64) {
        let mut cycle = 0u64;
        let mut skipped = 0u64;
        // Quiescence bound: once nothing has fired for `max_ii` consecutive
        // cycles, every II timer has expired and every token is visible, so
        // the state can never change again.
        let max_ii = self.nodes.iter().map(|n| n.ii).max().unwrap_or(1);
        let mut idle = 0u64;
        let Self { nodes, edges } = self;
        // Two-phase: decide firings on this cycle's visible state.
        let mut firing: Vec<bool> = vec![false; nodes.len()];
        // Period detection (Brent): compare each cycle's state with a
        // snapshot retaken after 1, 2, 4, … cycles, so any period is
        // found soon after the state starts repeating.
        let mut snap = Snapshot::default();
        snap.take(0, nodes, edges);
        let mut power = 1u64;
        loop {
            let mut fired_any = false;
            let mut can_ever_fire = false;
            // A node's decision reads only its own state and the edges,
            // which nothing changes before the movement phase below.
            for (node, fires) in nodes.iter_mut().zip(&mut firing) {
                *fires = false;
                if node.budget == Some(node.fired) {
                    continue; // exhausted
                }
                can_ever_fire = true;
                if cycle < node.next_ready {
                    continue;
                }
                let inputs_ok = node
                    .inputs
                    .iter()
                    .all(|&(EdgeId(e), rate)| edges[e].occupancy as u64 >= rate);
                let outputs_ok = node.outputs.iter().all(|&(EdgeId(e), rate)| {
                    edges[e].occupancy + rate as usize <= edges[e].capacity
                });
                if inputs_ok && outputs_ok {
                    *fires = true;
                    node.fired += 1;
                    node.next_ready = cycle + node.ii;
                    fired_any = true;
                } else {
                    node.stalls += 1; // ready but blocked on a FIFO
                }
            }
            // Token movement after all firing decisions (no intra-cycle
            // forwarding: produced tokens become visible next cycle).
            for (node, _) in nodes.iter().zip(&firing).filter(|(_, &fires)| fires) {
                for &(EdgeId(e), rate) in &node.inputs {
                    // Saturating: two consumers of one edge may both have
                    // seen its tokens; the second takes what is left.
                    let edge = &mut edges[e];
                    edge.occupancy = edge.occupancy.saturating_sub(rate as usize);
                }
                for &(EdgeId(e), rate) in &node.outputs {
                    let edge = &mut edges[e];
                    edge.occupancy += rate as usize;
                    edge.produced += rate;
                    edge.high_water = edge.high_water.max(edge.occupancy);
                }
            }
            cycle += 1;
            if !can_ever_fire {
                break;
            }
            if fired_any {
                idle = 0;
            } else {
                idle += 1;
                if idle >= max_ii {
                    // Static state: remaining budgets are starved (e.g. a
                    // decimated tail shorter than a consume rate) — done.
                    break;
                }
            }
            assert!(cycle < max_cycles, "dataflow deadlock or runaway");
            if state(nodes, edges, cycle).eq(snap.state.iter().copied()) {
                let period = cycle - snap.cycle;
                let k = skippable_periods(&snap, nodes, max_cycles - 1 - cycle, period);
                if k > 0 {
                    for (i, node) in nodes.iter_mut().enumerate() {
                        node.fired += k * (node.fired - snap.fired[i]);
                        node.stalls += k * (node.stalls - snap.stalls[i]);
                        node.next_ready += k * period;
                    }
                    for (edge, &before) in edges.iter_mut().zip(&snap.produced) {
                        edge.produced += k * (edge.produced - before);
                    }
                    cycle += k * period;
                    skipped += k * period;
                }
                snap.take(cycle, nodes, edges);
                power = 1;
            } else if cycle - snap.cycle >= power {
                snap.take(cycle, nodes, edges);
                power *= 2;
            }
        }
        let result = DataflowResult {
            cycles: cycle,
            firings: nodes.iter().map(|n| n.fired).collect(),
            stalls: nodes.iter().map(|n| n.stalls).collect(),
            tokens: edges.iter().map(|e| e.produced).collect(),
            high_water: edges.iter().map(|e| e.high_water).collect(),
        };
        (result, skipped)
    }
}

/// Everything the next firing decisions read, at the start of `cycle`:
/// per node, `u64::MAX` once its budget is spent, else the cycles left
/// on its II timer; then each edge's occupancy.
fn state<'a>(nodes: &'a [Node], edges: &'a [Edge], cycle: u64) -> impl Iterator<Item = u64> + 'a {
    let timers = nodes.iter().map(move |n| {
        if n.budget == Some(n.fired) {
            u64::MAX
        } else {
            n.next_ready.saturating_sub(cycle)
        }
    });
    timers.chain(edges.iter().map(|e| e.occupancy as u64))
}

/// A run's state at one cycle, with the counters a repeat of that state
/// advances.
#[derive(Default)]
struct Snapshot {
    cycle: u64,
    state: Vec<u64>,
    fired: Vec<u64>,
    stalls: Vec<u64>,
    produced: Vec<u64>,
}

impl Snapshot {
    fn take(&mut self, cycle: u64, nodes: &[Node], edges: &[Edge]) {
        self.cycle = cycle;
        self.state.clear();
        self.state.extend(state(nodes, edges, cycle));
        self.fired.clear();
        self.fired.extend(nodes.iter().map(|n| n.fired));
        self.stalls.clear();
        self.stalls.extend(nodes.iter().map(|n| n.stalls));
        self.produced.clear();
        self.produced.extend(edges.iter().map(|e| e.produced));
    }
}

/// How many more times the period just seen (from `snap` to now) can
/// repeat unchanged: none if nothing fired in it (the run is going
/// quiescent), else as many as keep every budgeted node at least one
/// firing short of its budget — so no node is exhausted inside the
/// skipped cycles — and fit in the `headroom` cycles under the guard.
fn skippable_periods(snap: &Snapshot, nodes: &[Node], headroom: u64, period: u64) -> u64 {
    let mut k = headroom / period;
    let mut fired_any = false;
    for (node, &before) in nodes.iter().zip(&snap.fired) {
        let per_period = node.fired - before;
        if per_period == 0 {
            continue;
        }
        fired_any = true;
        if let Some(budget) = node.budget {
            // It fired this period and is not exhausted (its state
            // entry matches the snapshot's), so `budget > fired`.
            k = k.min((budget - node.fired - 1) / per_period);
        }
    }
    if fired_any {
        k
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_sink_pipeline() {
        // source --fifo--> sink, both II=1, 100 tokens.
        let mut g = DataflowGraph::new();
        let f = g.edge(4);
        g.node("source", 1, &[], &[f], Some(100));
        g.node("sink", 1, &[f], &[], Some(100));
        let r = g.run(10_000);
        assert_eq!(r.firings, vec![100, 100]);
        assert_eq!(r.tokens, vec![100]);
        // One-cycle visibility: sink finishes ~1 cycle after source.
        assert!(r.cycles >= 101 && r.cycles <= 110, "cycles {}", r.cycles);
    }

    #[test]
    fn slow_consumer_backpressures_producer() {
        // Sink at II=3 throttles a unit-II source through a small FIFO.
        let mut g = DataflowGraph::new();
        let f = g.edge(2);
        g.node("source", 1, &[], &[f], Some(60));
        g.node("sink", 3, &[f], &[], Some(60));
        let r = g.run(10_000);
        assert_eq!(r.firings, vec![60, 60]);
        // Throughput bound by the sink: ≥ 3·60 cycles.
        assert!(r.cycles >= 180, "cycles {}", r.cycles);
        // The source stalled most of the time.
        assert!(r.stalls[0] > 60);
        // The FIFO filled to capacity while the producer outran the sink.
        assert_eq!(r.high_water, vec![2]);
    }

    #[test]
    fn balanced_chain_barely_uses_fifo_depth() {
        // Matched II=1 stages keep each FIFO nearly empty: the high-water
        // report is the evidence a deep stream would be wasted here.
        let mut g = DataflowGraph::new();
        let f = g.edge(64);
        g.node("a", 1, &[], &[f], Some(500));
        g.node("b", 1, &[f], &[], Some(500));
        let r = g.run(10_000);
        assert!(r.high_water[0] <= 2, "high water {}", r.high_water[0]);
    }

    #[test]
    fn three_stage_chain_rate_is_slowest_stage() {
        let mut g = DataflowGraph::new();
        let a = g.edge(8);
        let b = g.edge(8);
        g.node("gen", 1, &[], &[a], Some(200));
        g.node("mid", 2, &[a], &[b], Some(200));
        g.node("out", 1, &[b], &[], Some(200));
        let r = g.run(100_000);
        assert_eq!(r.firings, vec![200, 200, 200]);
        assert!(
            (400..450).contains(&r.cycles),
            "chain bound by II=2 stage: {}",
            r.cycles
        );
    }

    #[test]
    fn fork_join_topology() {
        // One source feeds two parallel workers joined by a sink.
        let mut g = DataflowGraph::new();
        let s1 = g.edge(4);
        let s2 = g.edge(4);
        let j1 = g.edge(4);
        let j2 = g.edge(4);
        g.node("src", 1, &[], &[s1, s2], Some(50));
        g.node("w1", 1, &[s1], &[j1], Some(50));
        g.node("w2", 2, &[s2], &[j2], Some(50));
        g.node("join", 1, &[j1, j2], &[], Some(50));
        let r = g.run(10_000);
        assert_eq!(r.firings, vec![50, 50, 50, 50]);
        // Join is bound by the slower worker (II=2).
        assert!(r.cycles >= 100);
    }

    #[test]
    fn paper_workitem_shape_matches_specialized_sim() {
        // compute(II=1) → FIFO → pack(II=1): throughput 1/cycle, so N
        // tokens take ≈ N cycles — the same compute-bound behaviour
        // `sim::run` shows with a fast channel.
        let mut g = DataflowGraph::new();
        let f = g.edge(64);
        g.node("GammaRNG", 1, &[], &[f], Some(4096));
        g.node("Transfer", 1, &[f], &[], Some(4096));
        let r = g.run(100_000);
        assert!((4096..4200).contains(&r.cycles), "cycles {}", r.cycles);
    }

    #[test]
    fn repeating_state_is_skipped_by_whole_periods() {
        // A window-8 decimator between 1:1 stages settles into an 8-cycle
        // period, so nearly all of a long run is skipped; that the
        // skipped run equals the stepped one is checked on random chains
        // by tests/dataflow_oracle.rs.
        let mut g = DataflowGraph::new();
        let a = g.edge(16);
        let b = g.edge(16);
        g.node("source", 1, &[], &[a], Some(80_000));
        g.rated_node("window", 1, &[(a, 8)], &[(b, 1)], Some(10_000));
        g.node("scale", 1, &[b], &[], Some(10_000));
        let (r, skipped) = g.simulate(1_000_000);
        assert_eq!(r.firings, vec![80_000, 10_000, 10_000]);
        assert!((80_000..80_010).contains(&r.cycles), "cycles {}", r.cycles);
        assert!(skipped > 79_000, "skipped {skipped} of {}", r.cycles);
    }

    #[test]
    fn exhausted_graph_terminates() {
        let mut g = DataflowGraph::new();
        let f = g.edge(1);
        g.node("src", 1, &[], &[f], Some(1));
        g.node("snk", 1, &[f], &[], Some(1));
        let r = g.run(100);
        assert_eq!(r.firings, vec![1, 1]);
    }

    #[test]
    fn starved_sink_terminates_gracefully() {
        // A sink with no producer can never fire: the run ends immediately
        // (starvation is detected, not spun on).
        let mut g = DataflowGraph::new();
        let f = g.edge(1);
        g.node("snk", 1, &[f], &[], None);
        let r = g.run(1000);
        assert_eq!(r.firings, vec![0]);
        assert!(r.cycles <= 2);
    }

    #[test]
    #[should_panic(expected = "deadlock or runaway")]
    fn unbounded_self_sustaining_source_hits_guard() {
        // An unbounded source fires forever — the cycle guard must trip.
        let mut g = DataflowGraph::new();
        let f = g.edge(1);
        g.node("src", 1, &[], &[f], None);
        g.node("snk", 1, &[f], &[], None);
        let _ = g.run(1000);
    }
}
