//! `detect-grade`: a fixed set of infected c2670 designs, built in
//! set-up, graded against the Random, MERO and ND-ATPG detection
//! schemes.
//!
//! One operation profiles the golden design's rare nodes, then for each
//! scheme generates its tests (`DetectionScheme::generate_tests`) and
//! grades every design against them (`CoverageEvaluator::evaluate`). A
//! result is one (design, scheme) verdict. An undetected trojan is a
//! correct verdict; what is checked is that every design gets one, that
//! detection implies triggering, and, as a positive control, that each
//! design graded against its own activation vector is triggered.

use std::time::Instant;

use htforge::atpg::PodemConfig;
use htforge::core::{InfectedDesign, InsertionConfig, InsertionFramework};
use htforge::detect::{
    CoverageEvaluator, CoverageReport, DetectionScheme, MeroDetection, NdAtpgDetection,
    RandomDetection,
};
use htforge::netlist::Netlist;
use htforge::sim::{PatternSet, RareNodeExtractor, RareNodeSet};

use crate::stats::{cpu_seconds, median, secs};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Timed};

/// Metric-name stems of the three schemes, in grading order.
const SCHEMES: [&str; 3] = ["random", "mero", "ndatpg"];

struct Inputs {
    golden: Netlist,
    designs: Vec<InfectedDesign>,
    evaluator: CoverageEvaluator,
    /// One single-vector test set per design: its activation vector.
    controls: Vec<PatternSet>,
}

struct Sizes {
    circuit: &'static str,
    /// Designs per trigger width; half at q = 4 (some get triggered),
    /// half at q = 8 (the paper's stealthy regime).
    per_width: usize,
    vectors: usize,
    random_tests: usize,
    mero_n: usize,
    mero_pool: usize,
    ndatpg_n: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            circuit: "c432",
            per_width: 2,
            vectors: 2_000,
            random_tests: 1_000,
            mero_n: 4,
            mero_pool: 200,
            ndatpg_n: 1,
        }
    } else {
        // ND-ATPG on c3540 takes minutes per operation, so c2670. One
        // cube per rare event (n = 1) and a 1 000-vector MERO pool keep
        // an operation near 3 s, so a run holds enough operations for
        // its medians to be steady on a noisy host.
        Sizes {
            circuit: "c2670",
            per_width: 25,
            vectors: 10_000,
            random_tests: 20_000,
            mero_n: 200,
            mero_pool: 1_000,
            ndatpg_n: 1,
        }
    }
}

fn build_inputs(sizes: &Sizes, seed: u64) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let golden = htforge::circuits::load(sizes.circuit).map_err(|e| e.to_string())?;
    let load_s = secs(t);
    let mut designs = Vec::new();
    for (k, q) in [4usize, 8].into_iter().enumerate() {
        let outcome = InsertionFramework::new(InsertionConfig {
            theta: 0.20,
            num_vectors: sizes.vectors,
            trigger_nodes: q,
            num_instances: sizes.per_width,
            seed: seed.wrapping_add(k as u64),
            podem: PodemConfig::justify(),
            ..InsertionConfig::default()
        })
        .run(&golden)
        .map_err(|e| format!("building q={q} designs: {e}"))?;
        if outcome.infected.len() != sizes.per_width {
            return Err(format!(
                "built {} q={q} designs instead of {}",
                outcome.infected.len(),
                sizes.per_width
            ));
        }
        designs.extend(outcome.infected);
    }
    let evaluator = CoverageEvaluator::new(&golden).map_err(|e| e.to_string())?;
    let width = evaluator.golden().inputs().len();
    let controls = designs
        .iter()
        .map(|d| PatternSet::from_vectors(width, &[d.trojan.activation_cube.fill_with(false)]))
        .collect();
    Ok((
        Inputs {
            golden,
            designs,
            evaluator,
            controls,
        },
        load_s,
    ))
}

fn schemes(sizes: &Sizes, seed: u64) -> [Box<dyn DetectionScheme>; 3] {
    [
        Box::new(RandomDetection::new(sizes.random_tests, seed)),
        Box::new(MeroDetection::new(sizes.mero_n, sizes.mero_pool, seed)),
        Box::new(NdAtpgDetection::new(sizes.ndatpg_n, seed)),
    ]
}

/// What one operation produced for one scheme.
struct Graded {
    tests: PatternSet,
    report: CoverageReport,
    gen_s: f64,
    grade_s: f64,
    cpu_s: f64,
}

/// One operation: rare profile, then test generation and grading per
/// scheme, each call inside a span when tracing. Returns the profile's
/// wall and CPU seconds with the schemes' results.
fn operation(
    tr: &mut Tracer,
    inputs: &Inputs,
    schemes: &[Box<dyn DetectionScheme>; 3],
    sizes: &Sizes,
    seed: u64,
) -> Result<((f64, f64), Vec<Graded>), String> {
    let pid = std::process::id();
    let cpu0 = cpu_seconds(pid)?;
    let t = Instant::now();
    let rare: RareNodeSet = tr
        .span("sim.rare_extract", |_| {
            let comb = inputs.evaluator.golden();
            let patterns = PatternSet::random(comb.inputs().len(), sizes.vectors, seed);
            RareNodeExtractor::new(0.20).extract(comb, &patterns)
        })
        .map_err(|e| e.to_string())?;
    let rare_s = (secs(t), cpu_seconds(pid)? - cpu0);
    let mut graded = Vec::with_capacity(3);
    for (stem, scheme) in SCHEMES.iter().zip(schemes) {
        let cpu0 = cpu_seconds(pid)?;
        let t = Instant::now();
        let tests = tr
            .span(&format!("detect.{stem}_gen"), |_| {
                scheme.generate_tests(inputs.evaluator.golden(), &rare)
            })
            .map_err(|e| format!("{stem} test generation: {e}"))?;
        let gen_s = secs(t);
        let t = Instant::now();
        let report = tr
            .span("detect.grade", |_| {
                inputs.evaluator.evaluate(&inputs.designs, &tests)
            })
            .map_err(|e| format!("{stem} grading: {e}"))?;
        let grade_s = secs(t);
        let cpu_s = cpu_seconds(pid)? - cpu0;
        graded.push(Graded {
            tests,
            report,
            gen_s,
            grade_s,
            cpu_s,
        });
    }
    Ok((rare_s, graded))
}

/// Checks one operation's verdicts and runs the positive control.
fn check(out: &mut Outcome, inputs: &Inputs, graded: &[Graded]) -> u64 {
    let width = inputs.evaluator.golden().inputs().len();
    let mut good = 0u64;
    for (stem, g) in SCHEMES.iter().zip(graded) {
        let n = inputs.designs.len() as u64;
        if g.tests.is_empty() || g.tests.num_inputs() != width {
            out.line(format!(
                "check failed: {stem} produced an unusable test set"
            ));
            out.tally(n, n);
            continue;
        }
        if g.report.verdicts.len() != inputs.designs.len() {
            out.line(format!(
                "check failed: {stem} graded {} of {n} designs",
                g.report.verdicts.len()
            ));
            out.tally(n, n);
            continue;
        }
        let bad = g
            .report
            .verdicts
            .iter()
            .filter(|v| v.detected && !v.triggered)
            .count() as u64;
        if bad > 0 {
            out.line(format!(
                "check failed: {stem}: {bad} detected but untriggered"
            ));
        }
        out.tally(n, bad);
        good += n - bad;
    }
    let mut missed = 0u64;
    for (design, control) in inputs.designs.iter().zip(&inputs.controls) {
        let triggered = inputs
            .evaluator
            .evaluate(std::slice::from_ref(design), control)
            .is_ok_and(|r| r.triggered() == 1);
        missed += u64::from(!triggered);
    }
    if missed > 0 {
        out.line(format!(
            "check failed: {missed} designs not triggered by their own activation vector"
        ));
    }
    out.tally(inputs.controls.len() as u64, missed);
    good
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = sizes(ctx.smoke);
    let mut out = Outcome::default();
    out.provenance
        .push(("compat_threads".to_owned(), ctx.threads.to_string()));
    let build = || build_inputs(&sizes, ctx.seed);
    let ((inputs, load_s), mut setup_times) = ctx.setup(0.0, build)?;
    let schemes = schemes(&sizes, ctx.seed);
    out.line(format!(
        "{} designs on {} ({} golden nodes)",
        inputs.designs.len(),
        sizes.circuit,
        inputs.golden.node_count()
    ));

    // Warm-up: one untimed, checked operation.
    let (_, warm) = operation(&mut Tracer::off(), &inputs, &schemes, &sizes, ctx.seed)?;
    check(&mut out, &inputs, &warm);

    // Parts of an operation: the rare profile, then each scheme's test
    // generation and grading.
    let mut timed = Timed::new(1 + SCHEMES.len());
    while timed.total() < ctx.phase_seconds() {
        let (rare, graded) = operation(&mut Tracer::off(), &inputs, &schemes, &sizes, ctx.seed)?;
        timed.parts[0].push(rare);
        for (k, g) in graded.iter().enumerate() {
            timed.parts[1 + k].push((g.gen_s + g.grade_s, g.cpu_s));
        }
        let wall = rare.0 + graded.iter().map(|g| g.gen_s + g.grade_s).sum::<f64>();
        timed
            .op_results
            .push(check(&mut out, &inputs, &graded) as f64);
        timed.op_walls.push(wall);
        ctx.setup_slice(&mut setup_times, build)?;
    }
    out.line(format!(
        "rare profile: median {:.4} s wall",
        timed.part_wall(0)
    ));
    for (k, stem) in SCHEMES.iter().enumerate() {
        out.line(format!(
            "{stem}: {} runs, median {:.4} s wall (generation + grading)",
            timed.parts[1 + k].len(),
            timed.part_wall(1 + k)
        ));
    }
    if !ctx.trace {
        timed.end_to_end(&mut out, &setup_times)?;
        return Ok(out);
    }

    let mut tr = Tracer::new(Instant::now());
    let mut traced_walls = Vec::new();
    let mut traced = 0.0;
    let mut ops = 0u64;
    let mut tests = [0usize; 3];
    while traced < ctx.phase_seconds() {
        ops += 1;
        tr.begin_request(ops);
        let t = Instant::now();
        let (_, graded) = tr.span("bench.op", |tr| {
            operation(tr, &inputs, &schemes, &sizes, ctx.seed)
        })?;
        let wall = secs(t);
        for (k, g) in graded.iter().enumerate() {
            tests[k] = g.tests.len();
        }
        check(&mut out, &inputs, &graded);
        traced += wall;
        traced_walls.push(wall);
    }
    let per_op = |v: f64| v / ops as f64;
    out.metric("circuits.load_s", load_s);
    out.metric("sim.rare_extract_s", per_op(tr.total("sim.rare_extract")));
    out.metric("detect.grade_s", per_op(tr.total("detect.grade")));
    for (k, stem) in SCHEMES.iter().enumerate() {
        out.metric(
            &format!("detect.{stem}_gen_s"),
            per_op(tr.total(&format!("detect.{stem}_gen"))),
        );
        out.metric(&format!("detect.{stem}_tests"), tests[k] as f64);
    }
    out.trace_summary(
        &tr,
        ops,
        traced,
        median(&traced_walls),
        timed.op_median(),
        None,
    );
    out.spans = Some(tr.to_json());
    Ok(out)
}
