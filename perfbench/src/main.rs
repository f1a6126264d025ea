//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--server-bin PATH] [--out-dir DIR]
//!           [--commit SHA] [--source-digest HEX]
//! ```
//!
//! Drives the htforge library and the `htforge-server` binary only
//! through their public interfaces. Every run sets up (several times,
//! reporting the fastest), warms up with one untimed operation, measures
//! whole operations until `--seconds` of timed work have accumulated,
//! checks every output outside the timed region, and prints one JSON
//! object as its last line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md` beside this
//! file for the workloads and how to read the output.

mod detect;
mod pipeline;
mod server;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use htforge::obs::Json;

use crate::trace::Tracer;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("results_per_cpu_s", "1/cpu_s"),
    ("peak_rss_mb", "MB"),
    ("success_pct", "%"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A
/// layer a workload does not reach from outside reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.load_s", "s"),
    ("netlist.parse_ms", "ms"),
    ("netlist.scan_cut_s", "s"),
    ("scoap.compute_s", "s"),
    ("sim.rare_extract_s", "s"),
    ("sim.rare_nodes", "count"),
    ("atpg.podem_s", "s"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_call_s", "s"),
    ("atpg.podem_p99_ms", "ms"),
    ("atpg.podem_no_cube", "count"),
    ("atpg.podem_no_cube_s", "s"),
    ("core.compat_s", "s"),
    ("core.compat_rest_s", "s"),
    ("core.graph_edges", "count"),
    ("core.clique_s", "s"),
    ("core.cliques", "count"),
    ("core.insert_s", "s"),
    ("core.validate_s", "s"),
    ("core.phase_rare_s", "s"),
    ("core.phase_compat_s", "s"),
    ("core.phase_clique_s", "s"),
    ("core.phase_insert_s", "s"),
    ("core.phase_validate_s", "s"),
    ("detect.random_gen_s", "s"),
    ("detect.mero_gen_s", "s"),
    ("detect.ndatpg_gen_s", "s"),
    ("detect.random_tests", "count"),
    ("detect.mero_tests", "count"),
    ("detect.ndatpg_tests", "count"),
    ("detect.grade_s", "s"),
    ("server.jobs", "count"),
    ("server.admit_ms.p50", "ms"),
    ("server.admit_ms.p99", "ms"),
    ("server.start_ms.p50", "ms"),
    ("server.start_ms.p99", "ms"),
    ("server.exec_ms.simulate.p50", "ms"),
    ("server.exec_ms.simulate.p99", "ms"),
    ("server.exec_ms.insert.p50", "ms"),
    ("server.exec_ms.insert.p99", "ms"),
    ("server.exec_ms.grade.p50", "ms"),
    ("server.exec_ms.grade.p99", "ms"),
    ("server.exec_ms.detect.p50", "ms"),
    ("server.exec_ms.detect.p99", "ms"),
    ("server.cache_hit_pct", "%"),
    ("server.rejects", "count"),
    ("trace.ops", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["insert-podem", "insert-many", "detect-grade", "server-mix"];

/// Set-up repetitions made before the warm-up.
pub const SETUP_MIN_REPS: usize = 5;
/// The host's speed switches between a fast and a ~1.6x slower state
/// in stretches of a tenth of a second to several seconds. A set-up of
/// a few milliseconds timed in one burst samples one stretch, and the
/// median of repetitions spread over a run flips between the two
/// states with the share of slow stretches; the minimum over
/// repetitions spread over the run does not. So workloads that run
/// operations repeat the set-up for this many seconds after each timed
/// operation, outside the timed region, and `setup_s` is the minimum
/// over every repetition of the run.
pub const SETUP_SLICE_S: f64 = 0.25;
/// Seconds of set-up repetitions a workload without separate
/// operations (`server-mix`) makes before its warm-up.
pub const SETUP_BUDGET_S: f64 = 2.5;

/// Everything a workload needs to know about the run.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Worker threads the library's parallel phases use: the host's
    /// parallelism, as in the pipeline.
    pub threads: usize,
    pub nproc: usize,
    pub server_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
    pub commit: String,
    pub source_digest: String,
    pub process_start: Instant,
}

impl Ctx {
    /// Timed seconds per measurement phase. A traced run splits
    /// `--seconds` between an untraced phase, the baseline for the
    /// tracing overhead, and the traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Runs the set-up at least `SETUP_MIN_REPS` times and until
    /// `budget_s` seconds have passed, and keeps the last result. The
    /// first repetition is timed from process start. Returns the result
    /// and the seconds of each repetition.
    pub fn setup<T>(
        &self,
        budget_s: f64,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, Vec<f64>), String> {
        let (min_reps, budget_s) = if self.smoke {
            (3, 0.0)
        } else {
            (SETUP_MIN_REPS, budget_s)
        };
        let mut times = Vec::new();
        let mut last = None;
        let began = Instant::now();
        while times.len() < min_reps || stats::secs(began) < budget_s {
            let start = if times.is_empty() {
                self.process_start
            } else {
                Instant::now()
            };
            // Drop the previous repetition's inputs (and any process
            // they own) before building the next.
            drop(last.take());
            last = Some(build()?);
            times.push(stats::secs(start));
        }
        let value = last.ok_or("no set-up repetition ran")?;
        Ok((value, times))
    }

    /// Further set-up repetitions between timed operations (see
    /// `SETUP_SLICE_S`): at least one, their results dropped.
    pub fn setup_slice<T>(
        &self,
        times: &mut Vec<f64>,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        let slice = if self.smoke { 0.0 } else { SETUP_SLICE_S };
        let began = Instant::now();
        loop {
            let t = Instant::now();
            drop(build()?);
            times.push(stats::secs(t));
            if stats::secs(began) >= slice {
                return Ok(());
            }
        }
    }
}

/// Per-operation samples of an untraced phase. An operation is made of
/// parts (circuits, schemes); rates use the median of each part summed
/// over the parts, so a slow host phase that hits a few operations does
/// not move them.
#[derive(Debug, Default)]
pub struct Timed {
    /// `(wall, cpu)` seconds of each part, one entry per operation.
    pub parts: Vec<Vec<(f64, f64)>>,
    /// Wall seconds of each whole operation.
    pub op_walls: Vec<f64>,
    /// Checked results of each operation.
    pub op_results: Vec<f64>,
}

impl Timed {
    pub fn new(parts: usize) -> Self {
        Timed {
            parts: vec![Vec::new(); parts],
            ..Timed::default()
        }
    }

    /// Timed wall seconds so far.
    pub fn total(&self) -> f64 {
        self.op_walls.iter().sum()
    }

    /// Median wall seconds of part `k`.
    pub fn part_wall(&self, k: usize) -> f64 {
        stats::median(&self.parts[k].iter().map(|s| s.0).collect::<Vec<_>>())
    }

    /// Median CPU seconds of part `k`.
    pub fn part_cpu(&self, k: usize) -> f64 {
        stats::median(&self.parts[k].iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median wall seconds of a whole operation.
    pub fn op_median(&self) -> f64 {
        stats::median(&self.op_walls)
    }

    /// Emits the end-to-end metrics of an operation-based workload; a
    /// job is one operation.
    pub fn end_to_end(&self, out: &mut Outcome, setup_times: &[f64]) -> Result<(), String> {
        let parts = 0..self.parts.len();
        let wall_per_op: f64 = parts.clone().map(|k| self.part_wall(k)).sum();
        let cpu_per_op: f64 = parts.map(|k| self.part_cpu(k)).sum();
        let results_per_op = stats::median(&self.op_results);
        let job_ms: Vec<f64> = self.op_walls.iter().map(|w| w * 1e3).collect();
        out.end_to_end(
            setup_times,
            results_per_op / wall_per_op,
            results_per_op / cpu_per_op,
            stats::peak_rss_mb(std::process::id())?,
            &job_ms,
        );
        out.line(format!(
            "ops {}, timed {:.3} s, results per op {results_per_op}",
            self.op_walls.len(),
            self.total()
        ));
        Ok(())
    }
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (designs, verdicts, jobs).
    pub attempted: u64,
    /// Attempted operations that failed or failed their output check.
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Provenance entries beyond the common ones (thread counts...).
    pub provenance: Vec<(String, String)>,
    /// Span dump of a traced run.
    pub spans: Option<Json>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The end-to-end metrics but `success_pct`, which `run` adds;
    /// `setup_s` is the fastest set-up repetition (see `SETUP_SLICE_S`).
    pub fn end_to_end(
        &mut self,
        setup_times: &[f64],
        results_per_s: f64,
        results_per_cpu_s: f64,
        peak_rss_mb: f64,
        job_ms: &[f64],
    ) {
        let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        self.metric("setup_s", setup_s);
        self.line(format!("set-up repetitions: {}", setup_times.len()));
        self.metric("results_per_s", results_per_s);
        self.metric("results_per_cpu_s", results_per_cpu_s);
        self.metric("peak_rss_mb", peak_rss_mb);
        self.metric("job_p50_ms", stats::percentile(job_ms, 50.0));
        self.metric("job_p99_ms", stats::percentile(job_ms, 99.0));
        self.line(format!("job latency samples: {}", job_ms.len()));
    }

    /// Emits `trace.*` and prints the self-time table of an
    /// operation-based traced phase: `ops` operations taking `traced`
    /// wall seconds in all, with median operation times `traced_op`
    /// (traced) and `untraced_op`. `repeat` names a layer whose spans
    /// repeat work another layer already showed, with the seconds per
    /// operation to take off it and list on their own line.
    pub fn trace_summary(
        &mut self,
        tr: &Tracer,
        ops: u64,
        traced: f64,
        traced_op: f64,
        untraced_op: f64,
        repeat: Option<(&str, f64)>,
    ) {
        let per_op = |v: f64| v / ops as f64;
        let layers = tr.self_time_by_layer();
        let glue = layers.get("bench").copied().unwrap_or(0.0);
        self.metric("trace.ops", ops as f64);
        self.metric("trace.coverage_pct", 100.0 * (traced - glue) / traced);
        self.metric(
            "trace.overhead_pct",
            100.0 * (traced_op - untraced_op) / untraced_op,
        );
        self.line(format!(
            "traced ops {ops}, timed {traced:.3} s; median op {traced_op:.4} s traced vs {untraced_op:.4} s untraced"
        ));
        self.line("self time per layer, seconds per op:".to_owned());
        let row = |name: &str, s: f64| {
            format!(
                "  {name:<10} {:>10.4} s/op {:>6.1}% of traced wall",
                per_op(s),
                100.0 * s / traced
            )
        };
        for (layer, s) in &layers {
            let s = match repeat {
                Some((name, r)) if name == layer => s - r * ops as f64,
                _ => *s,
            };
            self.line(row(layer, s));
        }
        if let Some((name, r)) = repeat {
            self.line(format!(
                "{} ({name} repeating work shown above)",
                row("(repeat)", r * ops as f64)
            ));
        }
    }

    pub fn success_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

fn parse_args() -> Result<Ctx, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        threads: nproc,
        nproc,
        server_bin: None,
        out_dir: PathBuf::from(".perfbench"),
        commit: "unknown".to_owned(),
        source_digest: "unknown".to_owned(),
        process_start: Instant::now(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--smoke" => ctx.smoke = true,
            "--server-bin" => ctx.server_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => ctx.out_dir = PathBuf::from(value()?),
            "--commit" => ctx.commit = value()?,
            "--source-digest" => ctx.source_digest = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            ctx.workload
        ));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(ctx)
}

fn run(ctx: &Ctx) -> Result<(), String> {
    let mut outcome = match ctx.workload.as_str() {
        "insert-podem" | "insert-many" => pipeline::run(ctx)?,
        "detect-grade" => detect::run(ctx)?,
        "server-mix" => server::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if !ctx.trace {
        let success = outcome.success_pct();
        outcome.metric("success_pct", success);
    }

    // Exactly the metric set of this mode, in table order; per-layer
    // metrics a workload does not reach read 0.
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        let value = match value {
            Some(v) => v,
            None if ctx.trace => 0.0,
            None => return Err(format!("workload emitted no `{name}`")),
        };
        metrics.push((name, value, unit));
    }
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!(
            "workload emitted `{name}`, which is not in the metric table"
        ));
    }

    let mut provenance = vec![
        ("workload".to_owned(), ctx.workload.clone()),
        ("seed".to_owned(), ctx.seed.to_string()),
        ("seconds".to_owned(), ctx.seconds.to_string()),
        ("trace".to_owned(), u8::from(ctx.trace).to_string()),
        ("smoke".to_owned(), ctx.smoke.to_string()),
        ("nproc".to_owned(), ctx.nproc.to_string()),
        ("commit".to_owned(), ctx.commit.clone()),
        ("source_digest".to_owned(), ctx.source_digest.clone()),
    ];
    provenance.append(&mut outcome.provenance);
    let provenance = Json::Obj(
        provenance
            .into_iter()
            .map(|(k, v)| (k, Json::Str(v)))
            .collect(),
    );
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                // JSON has no NaN or infinity; a failed division reads 0.
                let value = if value.is_finite() { value } else { 0.0 };
                let metric = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_owned(), metric)
            })
            .collect(),
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json),
    ]);

    // Artifacts: the result with its provenance, and the span dump.
    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    if let Some(spans) = &outcome.spans {
        let path = ctx.out_dir.join(format!("{stem}-spans.json"));
        std::fs::write(&path, spans.compact() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.line(format!("spans written to {}", path.display()));
    }
    let record = Json::obj(vec![
        ("provenance", provenance.clone()),
        (
            "report",
            Json::Arr(outcome.lines.iter().map(|l| Json::Str(l.clone())).collect()),
        ),
        ("result", result.clone()),
    ]);
    let record_path = ctx.out_dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, record.compact() + "\n")
        .map_err(|e| format!("{}: {e}", record_path.display()))?;

    println!("# provenance {}", provenance.compact());
    for line in &outcome.lines {
        println!("# {line}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<30} {value:>14.4} {unit}");
    }
    println!("{}", result.compact());
    Ok(())
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
