//! The compatibility graph — the paper's **Algorithm 2**
//! (`Gen_compatibility`).
//!
//! For each rare event (rare node, rare value), PODEM produces a test
//! cube; vertices of the compatibility graph are the rare events and an
//! edge connects two events whose cubes have no conflicting care bits.
//! Complete subgraphs of this graph are sets of rare nodes that a single
//! merged vector drives to their rare values simultaneously — the trojan
//! insertion points.

use std::sync::atomic::{AtomicUsize, Ordering};

use htforge_atpg::{Cube, Fault, Podem, PodemConfig, PodemMode, TestResult};
use htforge_netlist::{netlist::NodeId, Netlist, NetlistError};
use htforge_obs::{BudgetTicker, DegradationNote, RunBudget};
use htforge_sim::RareNodeSet;

/// Per-thread cube generator: a detect-mode engine with a justify-mode
/// fallback (a justification cube is all a trigger needs).
struct CubeWorker {
    podem: Podem,
    justify: Option<Podem>,
    base_seed: Option<u64>,
}

impl CubeWorker {
    fn new(nl: &Netlist, config: PodemConfig) -> Result<Self, NetlistError> {
        let justify = if config.mode == PodemMode::Detect {
            Some(Podem::new(
                nl,
                PodemConfig {
                    mode: PodemMode::Justify,
                    ..config
                },
            )?)
        } else {
            None
        };
        Ok(CubeWorker {
            podem: Podem::new(nl, config)?,
            justify,
            base_seed: config.random_seed,
        })
    }

    /// Attaches the run budget to both engines so in-flight searches
    /// stop at the deadline instead of only between faults.
    fn set_run_budget(&mut self, budget: &RunBudget) {
        self.podem.set_run_budget(budget.clone());
        if let Some(j) = self.justify.as_mut() {
            j.set_run_budget(budget.clone());
        }
    }

    fn cube_for(
        &mut self,
        index: usize,
        node: htforge_netlist::netlist::NodeId,
        rare_value: bool,
    ) -> Option<Cube> {
        htforge_obs::faultpoint!("compat.cube");
        if let Some(seed) = self.base_seed {
            // Deterministic per fault, independent of work partitioning.
            let s = seed.wrapping_add(index as u64);
            self.podem.reseed(s);
            if let Some(j) = self.justify.as_mut() {
                j.reseed(s);
            }
        }
        let fault = Fault::for_rare_event(node, rare_value);
        match self.podem.generate(fault) {
            TestResult::Test(cube) => Some(cube),
            TestResult::Untestable | TestResult::Aborted | TestResult::TimedOut => {
                self.justify.as_mut().and_then(|p| match p.generate(fault) {
                    TestResult::Test(cube) => Some(cube),
                    _ => None,
                })
            }
        }
    }
}

/// One vertex of the compatibility graph: a rare node, its rare value,
/// and the PODEM cube that justifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RareEvent {
    /// The rare node.
    pub node: NodeId,
    /// Its rare value.
    pub rare_value: bool,
    /// A test cube driving `node` to `rare_value`.
    pub cube: Cube,
}

/// The compatibility graph over rare events.
///
/// Adjacency is stored as a bit matrix; with a few thousand rare nodes the
/// pairwise compatibility check of Algorithm 2 stays in the millisecond
/// range, which is where the framework's Table III speedups come from.
#[derive(Debug, Clone)]
pub struct CompatGraph {
    events: Vec<RareEvent>,
    /// Row-major bit matrix: bit `j` of row `i` ⇔ events i,j compatible.
    adj: Vec<Vec<u64>>,
    /// Rare events PODEM could not produce a cube for (untestable or
    /// aborted) — excluded from the graph but reported for diagnostics.
    dropped: usize,
}

impl CompatGraph {
    /// Builds the compatibility graph for `rare` on `nl` (Algorithm 2).
    ///
    /// `nl` must be combinational or scan-cut. The PODEM mode of
    /// `podem_config` is honored; on `Detect`-mode abort the engine
    /// retries the fault in `Justify` mode (a justification cube is all a
    /// trigger needs), and drops the event only if that fails too.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from engine construction (cyclic or
    /// sequential netlists).
    pub fn build(
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
    ) -> Result<Self, NetlistError> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::build_with_threads(nl, rare, podem_config, threads)
    }

    /// [`CompatGraph::build`] with an explicit worker count. Results are
    /// identical for every `threads` value (per-fault PODEM randomization
    /// is reseeded deterministically per fault).
    ///
    /// # Errors
    ///
    /// See [`CompatGraph::build`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn build_with_threads(
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
        threads: usize,
    ) -> Result<Self, NetlistError> {
        Self::build_inner(nl, rare, podem_config, threads, &RunBudget::unlimited())
            .map(|(graph, _)| graph)
    }

    /// Budget-aware [`CompatGraph::build`]: cube generation stops
    /// attempting new faults once the budget is spent (in-flight PODEM
    /// searches are interrupted via the shared budget), and the
    /// pairwise matrix falls back to a budget-checked triangular fill
    /// that may leave later row pairs unconnected. The graph stays
    /// internally consistent (symmetric adjacency; missing edges are
    /// merely conservative) and every shortcut taken is reported as a
    /// [`DegradationNote`].
    ///
    /// # Errors
    ///
    /// See [`CompatGraph::build`].
    pub fn build_budgeted(
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
        budget: &RunBudget,
    ) -> Result<(Self, Vec<DegradationNote>), NetlistError> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::build_inner(nl, rare, podem_config, threads, budget)
    }

    fn build_inner(
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
        threads: usize,
        budget: &RunBudget,
    ) -> Result<(Self, Vec<DegradationNote>), NetlistError> {
        assert!(threads > 0, "need at least one worker thread");
        let rare_list: Vec<(htforge_netlist::netlist::NodeId, bool)> =
            rare.iter().map(|r| (r.node, r.rare_value)).collect();
        let mut notes = Vec::new();

        // Phase A: one cube per rare event. Workers pull the next event
        // index from one shared counter, so slow (untestable or aborted)
        // events spread over all workers instead of stalling whichever
        // worker's share they cluster in; results land in per-index
        // slots and `cube_for` reseeds per index, so the graph does not
        // depend on the worker count. Each worker checks the budget
        // before starting a fault; expired budgets skip the remaining
        // faults (a skip is distinguishable from a PODEM drop so it can
        // be reported).
        let podem_span = htforge_obs::span("podem");
        // Engine construction is fallible; build them up front so errors
        // surface before any thread spawns.
        let mut workers: Vec<CubeWorker> = (0..threads.min(rare_list.len()).max(1))
            .map(|_| {
                CubeWorker::new(nl, podem_config).map(|mut w| {
                    w.set_run_budget(budget);
                    w
                })
            })
            .collect::<Result<_, _>>()?;
        let next = AtomicUsize::new(0);
        let skipped = AtomicUsize::new(0);
        let drain = |worker: &mut CubeWorker| {
            let mut out = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(node, value)) = rare_list.get(i) else {
                    return out;
                };
                let cube = if budget.check().is_err() {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    worker.cube_for(i, node, value)
                };
                out.push((i, cube));
            }
        };
        let mut cube_results: Vec<Option<Cube>> = vec![None; rare_list.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|worker| scope.spawn(|| drain(worker)))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => {
                        for (i, cube) in part {
                            cube_results[i] = cube;
                        }
                    }
                    // Re-raise with the original payload so campaign-level
                    // isolation reports the real panic message.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let skipped = skipped.into_inner();

        let mut events = Vec::new();
        let mut dropped = 0usize;
        for (&(node, rare_value), cube) in rare_list.iter().zip(cube_results) {
            match cube {
                Some(cube) => events.push(RareEvent {
                    node,
                    rare_value,
                    cube,
                }),
                None => dropped += 1,
            }
        }
        dropped -= skipped; // skips are reported separately, not as drops

        // Phase A′: functional re-check of every cube on one incremental
        // re-simulation session. Consecutive cubes differ in a handful
        // of care bits, so each check re-evaluates only the cones those
        // bits feed instead of the whole netlist. A cube that fails to
        // drive its event (which would take a PODEM defect) is dropped
        // like an unattainable fault — the graph stays sound either way.
        let verify_span = htforge_obs::span("compat_cube_verify");
        let prog = htforge_sim::SimProgram::compile(nl)?;
        let mut session = prog.delta_sim(htforge_sim::PatternSet::zeros(nl.inputs().len(), 1));
        let mut verified = Vec::with_capacity(events.len());
        for e in events {
            let vector = e.cube.fill_with(false);
            for (i, &bit) in vector.iter().enumerate() {
                if session.patterns().get(i, 0) != bit {
                    session.set_input(i, 0, bit);
                }
            }
            session.propagate();
            if session.value(e.node, 0) == e.rare_value {
                verified.push(e);
            } else {
                dropped += 1;
                htforge_obs::counter("compat.cube_verify_failures").incr();
            }
        }
        let events = verified;
        verify_span.finish();

        if skipped > 0 {
            notes.push(DegradationNote::new(
                "compat_graph",
                "skipped_faults",
                format!(
                    "budget spent: {skipped} of {} rare events not attempted",
                    rare_list.len()
                ),
            ));
        }
        podem_span.finish();
        htforge_obs::counter("compat.events").add(events.len() as u64);
        htforge_obs::counter("compat.dropped").add(dropped as u64);
        let matrix_span = htforge_obs::span("compat_matrix");

        // Phase B: pairwise compatibility matrix over bit-packed care
        // masks — a conflict is a single word-AND per 64 inputs, which
        // keeps Algorithm 2's O(R²) inner loop cheap even with thousands
        // of rare events (parallelized over rows when workers exist).
        let n = events.len();
        let words = n.div_ceil(64);
        let packed: Vec<(Vec<u64>, Vec<u64>)> =
            events.iter().map(|e| e.cube.care_masks()).collect();
        let conflicts = |i: usize, j: usize| -> bool {
            let (a0, a1) = &packed[i];
            let (b0, b1) = &packed[j];
            a0.iter()
                .zip(b1)
                .chain(a1.iter().zip(b0))
                .any(|(&x, &y)| x & y != 0)
        };
        let row_of = |i: usize| -> Vec<u64> {
            htforge_obs::faultpoint!("compat.matrix_row");
            let mut row = vec![0u64; words];
            for j in 0..n {
                if j != i && !conflicts(i, j) {
                    row[j / 64] |= 1 << (j % 64);
                }
            }
            row
        };
        let limited = !budget.is_unlimited() || budget.cancelled();
        let adj: Vec<Vec<u64>> = if limited {
            // Budgeted fill is triangular (both directions of a pair are
            // set together), so stopping early keeps the matrix
            // symmetric: unvisited pairs are just "incompatible".
            let mut adj = vec![vec![0u64; words]; n];
            let mut ticker = BudgetTicker::new(budget.clone(), 8);
            let mut rows_done = n;
            for i in 0..n {
                htforge_obs::faultpoint!("compat.matrix_row");
                if ticker.tick().is_err() {
                    rows_done = i;
                    break;
                }
                for j in i + 1..n {
                    if !conflicts(i, j) {
                        adj[i][j / 64] |= 1 << (j % 64);
                        adj[j][i / 64] |= 1 << (i % 64);
                    }
                }
            }
            if rows_done < n {
                notes.push(DegradationNote::new(
                    "compat_graph",
                    "truncated_matrix",
                    format!("pairwise compatibility computed for {rows_done} of {n} rows"),
                ));
            }
            adj
        } else if threads == 1 || n < 256 {
            // Triangular fill: half the pair checks of the row variant.
            let mut adj = vec![vec![0u64; words]; n];
            for i in 0..n {
                htforge_obs::faultpoint!("compat.matrix_row");
                for j in i + 1..n {
                    if !conflicts(i, j) {
                        adj[i][j / 64] |= 1 << (j % 64);
                        adj[j][i / 64] |= 1 << (i % 64);
                    }
                }
            }
            adj
        } else {
            let row_chunk = n.div_ceil(threads).max(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(row_chunk)
                    .map(|start| {
                        let end = (start + row_chunk).min(n);
                        let row_of = &row_of;
                        scope.spawn(move || (start..end).map(row_of).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(rows) => rows,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };
        matrix_span.finish();
        let graph = CompatGraph {
            events,
            adj,
            dropped,
        };
        htforge_obs::counter("compat.edges").add(graph.edge_count() as u64);
        Ok((graph, notes))
    }

    /// The graph's vertices.
    #[must_use]
    pub fn events(&self) -> &[RareEvent] {
        &self.events
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rare events dropped because no cube could be generated.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Whether vertices `i` and `j` are compatible.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn compatible(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        (self.adj[i][j / 64] >> (j % 64)) & 1 == 1
    }

    /// Degree of vertex `i`.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        (0..self.len()).map(|i| self.degree(i)).sum::<usize>() / 2
    }

    /// Adjacency row of vertex `i` (bit-packed).
    #[must_use]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.adj[i]
    }

    /// Merges the cubes of a vertex set; `None` if any pair conflicts
    /// (never happens for cliques).
    #[must_use]
    pub fn merged_cube(&self, members: &[usize]) -> Option<Cube> {
        let mut iter = members.iter();
        let first = *iter.next()?;
        let mut acc = self.events[first].cube.clone();
        for &m in iter {
            if !acc.merge_in_place(&self.events[m].cube) {
                htforge_obs::counter("compat.cube_merge_conflicts").incr();
                return None;
            }
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;
    use htforge_sim::tri::justifies;
    use htforge_sim::{PatternSet, RareNodeExtractor};

    /// Two disjoint AND cones: their outputs are rare-1 and *compatible*
    /// (disjoint supports). A third node forces a conflict.
    const TWO_CONES: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
x = AND(a, b)
y = AND(c, d)
z = NOR(a, b)
";

    fn build_graph(theta: f64) -> (Netlist, CompatGraph) {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(theta).extract(&nl, &ps).unwrap();
        let g = CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap();
        (nl, g)
    }

    #[test]
    fn disjoint_cones_are_compatible() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        let (x, y, z) = (find("x"), find("y"), find("z"));
        assert!(g.compatible(x, y), "disjoint supports must be compatible");
        // x needs a=b=1, z needs a=b=0 → conflict.
        assert!(!g.compatible(x, z));
        // y and z have disjoint supports.
        assert!(g.compatible(y, z));
    }

    #[test]
    fn every_cube_justifies_its_rare_event() {
        let (nl, g) = build_graph(0.30);
        assert!(!g.is_empty());
        for e in g.events() {
            assert!(
                justifies(&nl, e.cube.bits(), e.node, e.rare_value).unwrap(),
                "cube {} does not justify {}={}",
                e.cube,
                nl.node(e.node).name(),
                e.rare_value
            );
        }
    }

    #[test]
    fn merged_cube_justifies_all_members() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        let members = vec![find("x"), find("y")];
        let merged = g.merged_cube(&members).expect("compatible pair merges");
        for &m in &members {
            let e = &g.events()[m];
            assert!(justifies(&nl, merged.bits(), e.node, e.rare_value).unwrap());
        }
    }

    #[test]
    fn merged_cube_rejects_conflicts() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        assert!(g.merged_cube(&[find("x"), find("z")]).is_none());
    }

    #[test]
    fn degree_and_edges_consistent() {
        let (_, g) = build_graph(0.30);
        let total: usize = (0..g.len()).map(|i| g.degree(i)).sum();
        assert_eq!(total % 2, 0);
        assert_eq!(g.edge_count(), total / 2);
    }

    #[test]
    fn self_compatibility() {
        let (_, g) = build_graph(0.30);
        for i in 0..g.len() {
            assert!(g.compatible(i, i));
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_build() {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        let full = CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap();
        let budget = RunBudget::with_deadline(std::time::Duration::from_secs(60));
        let (g, notes) =
            CompatGraph::build_budgeted(&nl, &rare, PodemConfig::default(), &budget).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(g.len(), full.len());
        assert_eq!(g.edge_count(), full.edge_count());
        assert_eq!(g.dropped(), full.dropped());
        for i in 0..g.len() {
            for j in 0..g.len() {
                assert_eq!(g.compatible(i, j), full.compatible(i, j));
            }
        }
    }

    #[test]
    fn spent_budget_skips_faults_and_reports_it() {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        assert!(!rare.is_empty());
        let budget = RunBudget::with_deadline(std::time::Duration::ZERO);
        let (g, notes) =
            CompatGraph::build_budgeted(&nl, &rare, PodemConfig::default(), &budget).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.dropped(), 0, "skips must not be counted as drops");
        assert!(
            notes
                .iter()
                .any(|n| n.phase == "compat_graph" && n.action == "skipped_faults"),
            "{notes:?}"
        );
    }
}
