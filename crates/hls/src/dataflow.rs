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

use std::collections::VecDeque;

/// A FIFO edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

/// A process node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

struct Edge {
    queue: VecDeque<u64>, // cycle at which the token becomes visible
    capacity: usize,
    produced: u64,
    consumed: u64,
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
            queue: VecDeque::new(),
            capacity,
            produced: 0,
            consumed: 0,
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
        let mut cycle = 0u64;
        // Quiescence bound: once nothing has fired for `max_ii` consecutive
        // cycles, every II timer has expired and every token is visible, so
        // the state can never change again.
        let max_ii = self.nodes.iter().map(|n| n.ii).max().unwrap_or(1);
        let mut idle = 0u64;
        loop {
            let mut fired_any = false;
            let mut can_ever_fire = false;
            // Two-phase: decide firings on this cycle's visible state.
            let mut firing: Vec<bool> = vec![false; self.nodes.len()];
            for (i, node) in self.nodes.iter().enumerate() {
                if node.budget == Some(node.fired) {
                    continue; // exhausted
                }
                can_ever_fire = true;
                if cycle < node.next_ready {
                    continue;
                }
                let inputs_ok = node.inputs.iter().all(|&(EdgeId(e), rate)| {
                    // Queue is push-ordered, so visible tokens are a prefix.
                    self.edges[e]
                        .queue
                        .iter()
                        .take(rate as usize)
                        .filter(|&&vis| vis <= cycle)
                        .count() as u64
                        >= rate
                });
                let outputs_ok = node.outputs.iter().all(|&(EdgeId(e), rate)| {
                    self.edges[e].queue.len() + rate as usize <= self.edges[e].capacity
                });
                if inputs_ok && outputs_ok {
                    firing[i] = true;
                } // else: stall accounting below
            }
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if firing[i] {
                    node.fired += 1;
                    node.next_ready = cycle + node.ii;
                    fired_any = true;
                } else if node.budget != Some(node.fired) && cycle >= node.next_ready {
                    node.stalls += 1;
                }
            }
            // Token movement after all firing decisions (no intra-cycle
            // forwarding: produced tokens become visible next cycle).
            for (i, node) in self.nodes.iter().enumerate() {
                if !firing[i] {
                    continue;
                }
                for &(EdgeId(e), rate) in &node.inputs {
                    for _ in 0..rate {
                        self.edges[e].queue.pop_front();
                    }
                    self.edges[e].consumed += rate;
                }
                for &(EdgeId(e), rate) in &node.outputs {
                    for _ in 0..rate {
                        self.edges[e].queue.push_back(cycle + 1);
                    }
                    self.edges[e].produced += rate;
                    let len = self.edges[e].queue.len();
                    self.edges[e].high_water = self.edges[e].high_water.max(len);
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
        }
        DataflowResult {
            cycles: cycle,
            firings: self.nodes.iter().map(|n| n.fired).collect(),
            stalls: self.nodes.iter().map(|n| n.stalls).collect(),
            tokens: self.edges.iter().map(|e| e.produced).collect(),
            high_water: self.edges.iter().map(|e| e.high_water).collect(),
        }
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
