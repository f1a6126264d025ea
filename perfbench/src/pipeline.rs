//! `insert-podem` and `insert-many`: the paper's insertion pipeline
//! (`InsertionFramework::run`) over a fixed set of circuits.
//!
//! One operation is one pipeline run per circuit; a result is a trojan
//! that the run produced and that passed the benchmark's own check.
//! The traced run rebuilds the same pipeline from the public calls of
//! each layer, in the order the framework makes them, so each layer
//! gets its own span.

use std::time::Instant;

use htforge::atpg::{Fault, Podem, PodemConfig};
use htforge::core::clique::{enumerate_cliques, sample_cliques};
use htforge::core::insert::insert_trojan_with;
use htforge::core::payload::choose_payload;
use htforge::core::{
    CompatGraph, InfectedDesign, InsertionConfig, InsertionFramework, PayloadKind, PhaseTimings,
    TriggerPlan, TrojanInstance,
};
use htforge::netlist::{Netlist, NodeId};
use htforge::scoap::Scoap;
use htforge::sim::{PatternSet, RareNodeExtractor, RareNodeSet, SimProgram, Simulator};

use crate::stats::{cpu_seconds, median, percentile, secs};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Timed};

/// The inputs of one pipeline workload.
struct Shape {
    circuits: &'static [&'static str],
    q: usize,
    n: usize,
    vectors: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    match (ctx.workload.as_str(), ctx.smoke) {
        // Table III shape: PODEM over ~500-800 rare events dominates.
        ("insert-podem", false) => Shape {
            circuits: &["c3540", "c5315"],
            q: 8,
            n: 100,
            vectors: 10_000,
        },
        // Table IV scale: q = 24 takes the greedy clique sampler, and
        // N = 1000 makes sampling, insertion and validation dominate.
        ("insert-many", false) => Shape {
            circuits: &["c2670", "c6288", "s1423"],
            q: 24,
            n: 1000,
            vectors: 10_000,
        },
        ("insert-podem", true) => Shape {
            circuits: &["c432"],
            q: 4,
            n: 4,
            vectors: 2_000,
        },
        _ => Shape {
            circuits: &["s1423"],
            q: 12,
            n: 20,
            vectors: 2_000,
        },
    }
}

fn config(shape: &Shape, seed: u64) -> InsertionConfig {
    InsertionConfig {
        theta: 0.20,
        num_vectors: shape.vectors,
        trigger_nodes: shape.q,
        num_instances: shape.n,
        seed,
        podem: PodemConfig::justify(),
        ..InsertionConfig::default()
    }
}

/// Checks one emitted design independently of the framework's own
/// validation: structure, trigger width, and a bit-parallel simulation
/// of its activation vector, which must drive every trigger leaf to its
/// rare value, fire the trigger and flip the payload net.
fn check_design(design: &InfectedDesign, q: usize) -> Result<(), String> {
    design.netlist.validate().map_err(|e| e.to_string())?;
    let trojan = &design.trojan;
    if trojan.trigger_inputs.len() != q {
        return Err(format!(
            "trigger width {} instead of {q}",
            trojan.trigger_inputs.len()
        ));
    }
    let cut;
    let comb = if design.netlist.dffs().is_empty() {
        &design.netlist
    } else {
        cut = design.netlist.scan_cut();
        &cut
    };
    let vector = trojan.activation_cube.fill_with(false);
    if vector.len() != comb.inputs().len() {
        return Err("activation vector width differs from the input count".to_owned());
    }
    let patterns = PatternSet::from_vectors(vector.len(), &[vector]);
    let values = Simulator::new(comb)
        .map_err(|e| e.to_string())?
        .run_on(comb, &patterns);
    if let Some(&(node, rare)) = trojan
        .trigger_inputs
        .iter()
        .find(|&&(node, rare)| values.value(node, 0) != rare)
    {
        return Err(format!(
            "trigger leaf {} is not at its rare value {rare}",
            node.index()
        ));
    }
    if !values.value(trojan.trigger_output, 0) {
        return Err("activation vector does not fire the trigger".to_owned());
    }
    let victim = values.value(trojan.payload_net, 0);
    let spliced = values.value(trojan.payload_gate, 0);
    let expected = match trojan.payload_kind {
        PayloadKind::Flip => !victim,
        PayloadKind::ForceZero => false,
        PayloadKind::ForceOne => true,
    };
    if spliced != expected {
        return Err("payload gate does not show the payload effect".to_owned());
    }
    Ok(())
}

/// Checks the designs of one run on `threads` threads; returns how
/// many passed. `n` designs were requested, so missing ones count as
/// failed.
fn check_run(
    out: &mut Outcome,
    designs: &[InfectedDesign],
    shape: &Shape,
    circuit: &str,
    threads: usize,
) -> u64 {
    let chunk = designs.len().div_ceil(threads).max(1);
    let failures: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = designs
            .chunks(chunk)
            .enumerate()
            .map(|(k, part)| {
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .filter_map(|(i, d)| {
                            check_design(d, shape.q).err().map(|e| (k * chunk + i, e))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    for (i, e) in failures.iter().take(10) {
        out.line(format!("check failed: {circuit} design {i}: {e}"));
    }
    let passed = (designs.len() - failures.len()) as u64;
    let attempted = shape.n.max(designs.len()) as u64;
    out.tally(attempted, attempted - passed);
    passed
}

/// Per-call PODEM statistics of the traced run.
#[derive(Default)]
struct PodemCalls {
    durations: Vec<f64>,
    no_cube: u64,
    no_cube_s: f64,
}

/// One cube per rare event with the pipeline's PODEM configuration and
/// its partition of events over `threads` engines, timing every call.
fn podem_pass(
    comb: &Netlist,
    rare: &RareNodeSet,
    config: PodemConfig,
    threads: usize,
    calls: &mut PodemCalls,
) -> Result<(), String> {
    let events: Vec<(NodeId, bool)> = rare.iter().map(|r| (r.node, r.rare_value)).collect();
    if events.is_empty() {
        return Ok(());
    }
    let chunk = events.len().div_ceil(threads).max(1);
    let mut engines = (0..events.len().div_ceil(chunk))
        .map(|_| Podem::new(comb, config).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let parts: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk)
            .zip(engines.iter_mut())
            .map(|(part, engine)| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(node, value)| {
                            let t = Instant::now();
                            let found = engine
                                .generate(Fault::for_rare_event(node, value))
                                .is_test();
                            (secs(t), found)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("PODEM worker panicked"))
            .collect()
    });
    for (dur, found) in parts.into_iter().flatten() {
        calls.durations.push(dur);
        if !found {
            calls.no_cube += 1;
            calls.no_cube_s += dur;
        }
    }
    Ok(())
}

/// The framework's functional validation of one design, rebuilt from
/// public calls: re-simulate the activation vector on an incremental
/// session and require the trigger to fire.
fn validate_design(design: &InfectedDesign) -> Result<(), String> {
    design.netlist.validate().map_err(|e| e.to_string())?;
    let cut = if design.netlist.dffs().is_empty() {
        design.netlist.clone()
    } else {
        design.netlist.scan_cut()
    };
    let vector = design.trojan.activation_cube.fill_with(false);
    let program = SimProgram::compile(&cut).map_err(|e| e.to_string())?;
    let mut session = program.delta_sim(PatternSet::zeros(vector.len(), 1));
    for (i, &bit) in vector.iter().enumerate() {
        if bit {
            session.set_input(i, 0, true);
        }
    }
    session.propagate();
    if session.value(design.trojan.trigger_output, 0) {
        Ok(())
    } else {
        Err("trigger does not fire during validation".to_owned())
    }
}

/// Whether the layer-by-layer rebuild produced the designs the
/// framework did for the same configuration: the same trigger leaves,
/// payload net and activation cube, in the same order.
fn same_designs(rebuilt: &[InfectedDesign], framework: &[TrojanInstance]) -> Result<(), String> {
    if rebuilt.len() != framework.len() {
        return Err(format!(
            "{} designs instead of {}",
            rebuilt.len(),
            framework.len()
        ));
    }
    for (i, (a, b)) in rebuilt.iter().zip(framework).enumerate() {
        let a = &a.trojan;
        if a.trigger_inputs != b.trigger_inputs
            || a.payload_net != b.payload_net
            || a.activation_cube != b.activation_cube
        {
            return Err(format!("design {i} differs"));
        }
    }
    Ok(())
}

/// Graph figures of one traced run.
#[derive(Default)]
struct GraphFigures {
    rare_nodes: usize,
    edges: usize,
    cliques: usize,
}

/// The pipeline rebuilt from each layer's public calls, one span per
/// layer call, in the framework's order and with its settings.
fn traced_run(
    tr: &mut Tracer,
    cfg: &InsertionConfig,
    nl: &Netlist,
    threads: usize,
    calls: &mut PodemCalls,
    figures: &mut GraphFigures,
) -> Result<Vec<InfectedDesign>, String> {
    let comb = tr.span("netlist.scan_cut", |_| {
        if nl.dffs().is_empty() {
            nl.clone()
        } else {
            nl.scan_cut()
        }
    });
    let scoap = tr
        .span("scoap.compute", |_| Scoap::compute(nl))
        .map_err(|e| e.to_string())?;
    let rare = tr
        .span("sim.rare_extract", |_| {
            let patterns = PatternSet::random(comb.inputs().len(), cfg.num_vectors, cfg.seed);
            RareNodeExtractor::new(cfg.theta).extract(&comb, &patterns)
        })
        .map_err(|e| e.to_string())?;
    figures.rare_nodes += rare.len();
    tr.span("atpg.podem", |_| {
        podem_pass(&comb, &rare, cfg.podem, threads, calls)
    })?;
    let graph = tr
        .span("core.compat", |_| {
            CompatGraph::build_with_threads(&comb, &rare, cfg.podem, threads)
        })
        .map_err(|e| e.to_string())?;
    figures.edges += graph.edge_count();
    let order_seed = cfg.seed ^ 0x5EED;
    let cliques = tr.span("core.clique", |_| {
        if cfg.trigger_nodes <= 8 {
            enumerate_cliques(&graph, cfg.trigger_nodes, cfg.num_instances, order_seed)
        } else {
            sample_cliques(&graph, cfg.trigger_nodes, cfg.num_instances, order_seed)
        }
    });
    figures.cliques += cliques.len();
    let designs = tr.span("core.insert", |_| {
        let mut designs = Vec::with_capacity(cliques.len());
        for (i, clique) in cliques.iter().enumerate() {
            let leaves: Vec<(NodeId, bool)> = clique
                .members
                .iter()
                .map(|&m| (graph.events()[m].node, graph.events()[m].rare_value))
                .collect();
            let rare_values: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
            let nodes: Vec<NodeId> = leaves.iter().map(|&(n, _)| n).collect();
            let plan = TriggerPlan::synthesize(&rare_values, cfg.max_fanin);
            // The configured strategy is `MostObservable`, which the
            // framework passes through unchanged.
            let Some(payload) = choose_payload(nl, &scoap, &nodes, cfg.payload) else {
                continue;
            };
            let (netlist, trojan) = insert_trojan_with(
                nl,
                &leaves,
                &plan,
                payload,
                cfg.payload_kind,
                &i.to_string(),
                clique.activation_cube.clone(),
            )
            .map_err(|e| e.to_string())?;
            designs.push(InfectedDesign { netlist, trojan });
        }
        Ok::<_, String>(designs)
    })?;
    tr.span("core.validate", |_| {
        designs.iter().try_for_each(validate_design)
    })?;
    Ok(designs)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let shape = shape(ctx);
    let cfg = config(&shape, ctx.seed);
    let mut out = Outcome::default();
    out.provenance
        .push(("compat_threads".to_owned(), ctx.threads.to_string()));
    out.provenance
        .push(("podem_threads".to_owned(), ctx.threads.to_string()));

    // Set-up: generate the circuits.
    let load = || -> Result<(Vec<Netlist>, f64), String> {
        let t = Instant::now();
        let circuits = shape
            .circuits
            .iter()
            .map(|&name| htforge::circuits::load(name).map_err(|e| e.to_string()))
            .collect::<Result<Vec<Netlist>, String>>()?;
        Ok((circuits, secs(t)))
    };
    let ((circuits, load_s), mut setup_times) = ctx.setup(0.0, load)?;
    let fw = InsertionFramework::new(cfg.clone());
    let pid = std::process::id();

    // One untimed, checked warm-up run per circuit. A traced run keeps
    // its trojans: the layer-by-layer rebuild must reproduce them.
    let mut reference: Vec<Vec<TrojanInstance>> = Vec::with_capacity(circuits.len());
    for nl in &circuits {
        let outcome = fw.run(nl).map_err(|e| format!("{}: {e}", nl.name()))?;
        check_run(&mut out, &outcome.infected, &shape, nl.name(), ctx.threads);
        if ctx.trace {
            reference.push(outcome.infected.into_iter().map(|d| d.trojan).collect());
        }
    }

    // Untraced: whole operations until `seconds` of timed work.
    let mut timed = Timed::new(circuits.len());
    let mut phases: Vec<Vec<PhaseTimings>> = circuits.iter().map(|_| Vec::new()).collect();
    while timed.total() < ctx.phase_seconds() {
        let mut op_wall = 0.0;
        let mut results = 0u64;
        for (c, nl) in circuits.iter().enumerate() {
            let cpu0 = cpu_seconds(pid)?;
            let t = Instant::now();
            let outcome = fw.run(nl);
            let wall = secs(t);
            let cpu = cpu_seconds(pid)? - cpu0;
            op_wall += wall;
            match outcome {
                Ok(outcome) => {
                    results +=
                        check_run(&mut out, &outcome.infected, &shape, nl.name(), ctx.threads);
                    timed.parts[c].push((wall, cpu));
                    phases[c].push(outcome.timings);
                }
                Err(e) => {
                    out.line(format!("{}: pipeline failed: {e}", nl.name()));
                    out.tally(shape.n as u64, shape.n as u64);
                }
            }
        }
        timed.op_walls.push(op_wall);
        timed.op_results.push(results as f64);
        ctx.setup_slice(&mut setup_times, load)?;
    }
    for (c, nl) in circuits.iter().enumerate() {
        out.line(format!(
            "{}: {} runs, median {:.4} s wall, {:.4} s cpu",
            nl.name(),
            timed.parts[c].len(),
            timed.part_wall(c),
            timed.part_cpu(c)
        ));
    }
    if !ctx.trace {
        timed.end_to_end(&mut out, &setup_times)?;
        return Ok(out);
    }

    // Traced: the same operations rebuilt layer by layer.
    let mut tr = Tracer::new(Instant::now());
    let mut calls = PodemCalls::default();
    let mut figures = GraphFigures::default();
    let mut traced_walls = Vec::new();
    let mut traced = 0.0;
    let mut ops = 0u64;
    while traced < ctx.phase_seconds() {
        ops += 1;
        tr.begin_request(ops);
        let mut wall = 0.0;
        for (nl, expected) in circuits.iter().zip(&reference) {
            let t = Instant::now();
            let designs = tr.span("bench.op", |tr| {
                traced_run(tr, &cfg, nl, ctx.threads, &mut calls, &mut figures)
            })?;
            wall += secs(t);
            check_run(&mut out, &designs, &shape, nl.name(), ctx.threads);
            if ops == 1 {
                same_designs(&designs, expected).map_err(|e| {
                    format!(
                        "{}: the layer-by-layer rebuild no longer matches InsertionFramework::run ({e}); \
                         its spans would not describe the program",
                        nl.name()
                    )
                })?;
            }
        }
        traced += wall;
        traced_walls.push(wall);
    }
    let per_op = |v: f64| v / ops as f64;
    let podem_s = per_op(tr.total("atpg.podem"));
    let compat_s = per_op(tr.total("core.compat"));
    out.metric("circuits.load_s", load_s);
    out.metric("netlist.scan_cut_s", per_op(tr.total("netlist.scan_cut")));
    out.metric("scoap.compute_s", per_op(tr.total("scoap.compute")));
    out.metric("sim.rare_extract_s", per_op(tr.total("sim.rare_extract")));
    out.metric("sim.rare_nodes", per_op(figures.rare_nodes as f64));
    out.metric("atpg.podem_s", podem_s);
    out.metric("atpg.podem_calls", per_op(calls.durations.len() as f64));
    out.metric("atpg.podem_call_s", per_op(calls.durations.iter().sum()));
    out.metric(
        "atpg.podem_p99_ms",
        percentile(&calls.durations, 99.0) * 1e3,
    );
    out.metric("atpg.podem_no_cube", per_op(calls.no_cube as f64));
    out.metric("atpg.podem_no_cube_s", per_op(calls.no_cube_s));
    out.metric("core.compat_s", compat_s);
    out.metric("core.compat_rest_s", compat_s - podem_s);
    out.metric("core.graph_edges", per_op(figures.edges as f64));
    out.metric("core.clique_s", per_op(tr.total("core.clique")));
    out.metric("core.cliques", per_op(figures.cliques as f64));
    out.metric("core.insert_s", per_op(tr.total("core.insert")));
    out.metric("core.validate_s", per_op(tr.total("core.validate")));

    // The framework's own phase timings of the untraced runs, for
    // cross-checking the spans.
    let phase = |f: fn(&PhaseTimings) -> std::time::Duration| -> f64 {
        phases
            .iter()
            .map(|p| median(&p.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>()))
            .sum()
    };
    out.metric("core.phase_rare_s", phase(|t| t.rare_extraction));
    out.metric("core.phase_compat_s", phase(|t| t.compat_graph));
    out.metric("core.phase_clique_s", phase(|t| t.clique_enumeration));
    out.metric("core.phase_insert_s", phase(|t| t.insertion));
    out.metric("core.phase_validate_s", phase(|t| t.validation));

    out.trace_summary(
        &tr,
        ops,
        traced,
        median(&traced_walls),
        timed.op_median(),
        Some(("core", podem_s)),
    );
    out.spans = Some(tr.to_json());
    Ok(out)
}
