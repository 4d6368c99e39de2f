//! Differential tests for the dataflow stepper ([`dwi_hls::dataflow`]).
//!
//! [`oracle`] is the stepper the library used to carry: every FIFO edge
//! holds one visibility stamp per queued token (the cycle the token
//! becomes readable), and a node's input check counts the visible
//! prefix, and every cycle is stepped. The library keeps each edge as a
//! bare occupancy count and skips whole periods once its state repeats.
//! Both must give the identical [`DataflowResult`] — every field — on
//! every graph, or both must panic at the cycle guard.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dwi_hls::dataflow::{DataflowGraph, DataflowResult, EdgeId};
use dwi_testkit::{cases, Rng};

/// The stamp-per-token reference stepper.
mod oracle {
    use std::collections::VecDeque;

    use dwi_hls::dataflow::DataflowResult;

    struct Edge {
        queue: VecDeque<u64>, // cycle at which the token becomes visible
        capacity: usize,
        produced: u64,
        high_water: usize,
    }

    struct Node {
        ii: u64,
        inputs: Vec<(usize, u64)>,
        outputs: Vec<(usize, u64)>,
        budget: Option<u64>,
        fired: u64,
        next_ready: u64,
        stalls: u64,
    }

    #[derive(Default)]
    pub struct Graph {
        nodes: Vec<Node>,
        edges: Vec<Edge>,
    }

    impl Graph {
        pub fn edge(&mut self, capacity: usize) -> usize {
            self.edges.push(Edge {
                queue: VecDeque::new(),
                capacity,
                produced: 0,
                high_water: 0,
            });
            self.edges.len() - 1
        }

        pub fn rated_node(
            &mut self,
            ii: u64,
            inputs: &[(usize, u64)],
            outputs: &[(usize, u64)],
            budget: Option<u64>,
        ) {
            self.nodes.push(Node {
                ii,
                inputs: inputs.to_vec(),
                outputs: outputs.to_vec(),
                budget,
                fired: 0,
                next_ready: 0,
                stalls: 0,
            });
        }

        pub fn run(&mut self, max_cycles: u64) -> DataflowResult {
            let mut cycle = 0u64;
            let max_ii = self.nodes.iter().map(|n| n.ii).max().unwrap_or(1);
            let mut idle = 0u64;
            loop {
                let mut fired_any = false;
                let mut can_ever_fire = false;
                let mut firing: Vec<bool> = vec![false; self.nodes.len()];
                for (i, node) in self.nodes.iter().enumerate() {
                    if node.budget == Some(node.fired) {
                        continue;
                    }
                    can_ever_fire = true;
                    if cycle < node.next_ready {
                        continue;
                    }
                    let inputs_ok = node.inputs.iter().all(|&(e, rate)| {
                        self.edges[e]
                            .queue
                            .iter()
                            .take(rate as usize)
                            .filter(|&&vis| vis <= cycle)
                            .count() as u64
                            >= rate
                    });
                    let outputs_ok = node.outputs.iter().all(|&(e, rate)| {
                        self.edges[e].queue.len() + rate as usize <= self.edges[e].capacity
                    });
                    if inputs_ok && outputs_ok {
                        firing[i] = true;
                    }
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
                for (i, node) in self.nodes.iter().enumerate() {
                    if !firing[i] {
                        continue;
                    }
                    for &(e, rate) in &node.inputs {
                        for _ in 0..rate {
                            self.edges[e].queue.pop_front();
                        }
                    }
                    for &(e, rate) in &node.outputs {
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
}

/// One node of a random chain: its II, the tokens it consumes from its
/// input edge and produces on its output edge per firing, and its firing
/// budget.
#[derive(Debug)]
struct ChainNode {
    ii: u64,
    consume: u64,
    produce: u64,
    budget: Option<u64>,
}

/// A random linear pipeline and its run guard.
#[derive(Debug)]
struct Chain {
    nodes: Vec<ChainNode>,
    /// Capacity of the edge into node `k + 1`.
    capacities: Vec<usize>,
    max_cycles: u64,
}

/// 2–5 nodes at II 1–8, consume rates 1–16 (decimators), source budgets
/// to 4,000, downstream budgets that match, exceed or undercut what
/// upstream delivers (so decimated tails starve), and FIFO depths 1–64
/// widened to the rates as in
/// `dwi_core::graph`. Now and then an unbounded source or a tight guard
/// makes both engines hit the cycle guard.
fn random_chain(r: &mut Rng) -> Chain {
    let n = r.usize_range(2, 6);
    let mut nodes: Vec<ChainNode> = Vec::with_capacity(n);
    let mut capacities = Vec::with_capacity(n - 1);
    let depth = match r.u32_range(0, 4) {
        0 => 1,
        _ => r.usize_range(1, 65),
    };
    let mut upstream_tokens = 0u64;
    for k in 0..n {
        let ii = match r.u32_range(0, 3) {
            0 => 1,
            _ => r.u64_range(1, 9),
        };
        // Half the stages are 1:1; the rest decimate.
        let consume = if k > 0 && r.bool() {
            r.u64_range(1, 17)
        } else {
            1
        };
        let produce = if k + 1 < n && r.u32_range(0, 4) == 0 {
            r.u64_range(2, 5)
        } else {
            1
        };
        let budget = if k == 0 {
            match r.u32_range(0, 12) {
                0 => None,
                // Long enough to settle into a period the stepper skips.
                1 | 2 => Some(r.u64_range(400, 4_000)),
                _ => Some(r.u64_range(0, 400)),
            }
        } else {
            let fed = upstream_tokens / consume;
            match r.u32_range(0, 5) {
                0 => None,
                1 => Some(fed + r.u64_range(1, 20)),
                2 => Some(r.u64_range(0, fed + 1)),
                _ => Some(fed),
            }
        };
        if k > 0 {
            let widest = consume.max(nodes[k - 1].produce) as usize;
            capacities.push(depth.max(widest));
        }
        let fires = budget.unwrap_or(if k == 0 {
            400
        } else {
            upstream_tokens / consume
        });
        upstream_tokens = fires.saturating_mul(produce);
        nodes.push(ChainNode {
            ii,
            consume,
            produce,
            budget,
        });
    }
    let work: u64 = nodes
        .iter()
        .map(|n| n.ii * n.budget.unwrap_or(400).min(20_000))
        .sum();
    let max_cycles = match r.u32_range(0, 10) {
        0 => r.u64_range(1, 200),
        _ => work * 4 + 10_000,
    };
    Chain {
        nodes,
        capacities,
        max_cycles,
    }
}

fn run_library(c: &Chain) -> DataflowResult {
    let mut g = DataflowGraph::new();
    let edges: Vec<EdgeId> = c.capacities.iter().map(|&cap| g.edge(cap)).collect();
    for (k, node) in c.nodes.iter().enumerate() {
        let inputs: Vec<_> = (k > 0)
            .then(|| (edges[k - 1], node.consume))
            .into_iter()
            .collect();
        let outputs: Vec<_> = (k < edges.len())
            .then(|| (edges[k], node.produce))
            .into_iter()
            .collect();
        g.rated_node("n", node.ii, &inputs, &outputs, node.budget);
    }
    g.run(c.max_cycles)
}

fn run_oracle(c: &Chain) -> DataflowResult {
    let mut g = oracle::Graph::default();
    let edges: Vec<usize> = c.capacities.iter().map(|&cap| g.edge(cap)).collect();
    for (k, node) in c.nodes.iter().enumerate() {
        let inputs: Vec<_> = (k > 0)
            .then(|| (edges[k - 1], node.consume))
            .into_iter()
            .collect();
        let outputs: Vec<_> = (k < edges.len())
            .then(|| (edges[k], node.produce))
            .into_iter()
            .collect();
        g.rated_node(node.ii, &inputs, &outputs, node.budget);
    }
    g.run(c.max_cycles)
}

fn assert_same(got: &DataflowResult, want: &DataflowResult, case: &str) {
    assert_eq!(got.cycles, want.cycles, "cycles: {case}");
    assert_eq!(got.firings, want.firings, "firings: {case}");
    assert_eq!(got.stalls, want.stalls, "stalls: {case}");
    assert_eq!(got.tokens, want.tokens, "tokens: {case}");
    assert_eq!(got.high_water, want.high_water, "high_water: {case}");
}

/// Both engines on one chain: equal results, or both panic at the guard.
fn check(c: &Chain) {
    let case = format!("{c:?}");
    let want = catch_unwind(AssertUnwindSafe(|| run_oracle(c)));
    let got = catch_unwind(AssertUnwindSafe(|| run_library(c)));
    let message = |e: &Box<dyn std::any::Any + Send>| {
        e.downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string()
    };
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same(&got, &want, &case),
        (Err(g), Err(w)) => {
            assert_eq!(message(&g), "dataflow deadlock or runaway", "{case}");
            assert_eq!(message(&w), "dataflow deadlock or runaway", "{case}");
        }
        (Ok(_), Err(_)) => panic!("the oracle panics but the stepper does not: {case}"),
        (Err(_), Ok(_)) => panic!("the stepper panics but the oracle does not: {case}"),
    }
}

fn sweep(n_cases: u64) {
    cases(n_cases, |r| check(&random_chain(r)));
}

#[test]
fn count_stepper_matches_the_stamp_oracle() {
    sweep(300);
}

/// The same sweep at CI scale; run in release:
/// `cargo test --release -p dwi-hls --test dataflow_oracle -- --ignored`.
#[test]
#[ignore = "large sweep, run in release"]
fn count_stepper_matches_the_stamp_oracle_at_scale() {
    sweep(20_000);
}

#[test]
fn sweep_reaches_every_outcome() {
    // The sweep is only as good as its spread: it must produce guard
    // panics, starved decimated tails (a node ending under budget) and
    // back-pressured producers.
    let (mut guard, mut starved, mut backpressured) = (0, 0, 0);
    cases(300, |r| {
        let c = random_chain(r);
        match catch_unwind(AssertUnwindSafe(|| run_oracle(&c))) {
            Err(_) => guard += 1,
            Ok(res) => {
                let under = c
                    .nodes
                    .iter()
                    .zip(&res.firings)
                    .skip(1)
                    .any(|(n, &f)| n.budget.is_some_and(|b| f < b));
                starved += usize::from(under);
                let full = res
                    .high_water
                    .iter()
                    .zip(&c.capacities)
                    .any(|(&h, &cap)| h == cap);
                backpressured += usize::from(full && res.stalls[0] > 0);
            }
        }
    });
    assert!(guard > 5, "guard panics: {guard}");
    assert!(starved > 30, "starved tails: {starved}");
    assert!(backpressured > 30, "back-pressured chains: {backpressured}");
}

#[test]
fn credit_pipeline_shapes_match() {
    // The shapes `dwi_core::graph` models: a window-8 decimator between
    // 1:1 stages, across the serving quotas and the auto-depth ladder.
    for quota in [256u64, 512, 1024, 1001, 4096] {
        for depth in [1usize, 2, 4, 8, 16, 32, 64] {
            for ii in [[1, 1, 1], [3, 8, 3], [2, 8, 3]] {
                let emitted = [quota, quota / 8, quota / 8];
                let c = Chain {
                    nodes: (0..3)
                        .map(|k| ChainNode {
                            ii: ii[k],
                            consume: if k == 1 { 8 } else { 1 },
                            produce: 1,
                            budget: Some(emitted[k]),
                        })
                        .collect(),
                    capacities: vec![depth.max(8), depth],
                    max_cycles: ii.iter().zip(emitted).map(|(i, e)| i * e).sum::<u64>() * 4
                        + 10_000,
                };
                check(&c);
            }
        }
    }
}
