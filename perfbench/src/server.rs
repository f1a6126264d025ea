//! `server-mix`: a spawned `htforge-server` daemon on a Unix socket,
//! driven as a closed loop.
//!
//! Two connections, one tenant each, submit a job and wait for its
//! terminal response before submitting the next, as campaign drivers
//! do; an open loop would only echo its own offered rate. Each
//! connection cycles through a fixed mix of 50 jobs in a seeded order:
//! mostly `simulate` jobs of a few milliseconds, some `insert`,
//! `grade` and `detect` jobs of tens to hundreds of milliseconds, and
//! one MERO `grade` job per cycle that sets the latency tail. A few
//! `simulate` jobs carry their circuit as inline `.bench` text with
//! varied comments and whitespace, which exercises the parser and the
//! content-hash circuit cache.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use htforge::netlist::bench;
use htforge::obs::{parse_json, Json, RunBudget};
use htforge::server::{
    execute, parse_request, ProgramCache, ProgressEmitter, Request, REQUEST_SCHEMA,
};

use crate::stats::{cpu_seconds, median, peak_rss_mb, percentile, secs, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUP_BUDGET_S};

/// Worker threads of the daemon and client connections; both stay at
/// or below the host's parallelism on the two-vCPU reference host.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Inline variants generated per circuit.
const VARIANTS: usize = 6;
/// Job kinds, in the order the per-kind metrics use.
const KINDS: [&str; 4] = ["simulate", "insert", "grade", "detect"];

/// One slot of the job mix.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Simulate(&'static str),
    SimulateInline(&'static str),
    Insert(&'static str),
    GradeRandom(&'static str),
    Detect,
    GradeMero,
}

impl Slot {
    fn kind(self) -> &'static str {
        match self {
            Slot::Simulate(_) | Slot::SimulateInline(_) => "simulate",
            Slot::Insert(_) => "insert",
            Slot::GradeRandom(_) | Slot::GradeMero => "grade",
            Slot::Detect => "detect",
        }
    }

    /// Sample class for the in-process result comparison.
    fn class(self) -> &'static str {
        match self {
            Slot::Simulate(_) => "simulate",
            Slot::SimulateInline(_) => "simulate-inline",
            Slot::Insert(_) => "insert",
            Slot::GradeRandom(_) => "grade-random",
            Slot::Detect => "detect",
            Slot::GradeMero => "grade-mero",
        }
    }
}

/// The per-connection cycle; its order is shuffled per cycle.
fn cycle(smoke: bool) -> Vec<Slot> {
    let mut slots = Vec::new();
    let mut add = |n: usize, slot: Slot| slots.extend(std::iter::repeat_n(slot, n));
    if smoke {
        add(2, Slot::Simulate("c432"));
        add(1, Slot::SimulateInline("c432"));
        add(1, Slot::Insert("c432"));
        add(1, Slot::GradeRandom("c432"));
        return slots;
    }
    add(17, Slot::Simulate("c2670"));
    add(17, Slot::Simulate("c5315"));
    add(4, Slot::SimulateInline("c2670"));
    add(3, Slot::SimulateInline("c5315"));
    add(2, Slot::Insert("s1423"));
    add(1, Slot::Insert("c2670"));
    add(2, Slot::GradeRandom("c2670"));
    add(1, Slot::GradeRandom("c5315"));
    add(2, Slot::Detect);
    add(1, Slot::GradeMero);
    slots
}

/// Circuits the inline variants are made from.
fn inline_circuits(smoke: bool) -> &'static [&'static str] {
    if smoke {
        &["c432"]
    } else {
        &["c2670", "c5315"]
    }
}

/// The same netlist with different comments and whitespace; the
/// content hash canonicalizes these away.
fn variant(text: &str, k: usize) -> String {
    let mut out = format!("# inline variant {k}\n");
    for (i, line) in text.lines().enumerate() {
        match k % 3 {
            0 => out.push_str(line),
            1 => {
                out.push_str("  ");
                out.push_str(line);
                out.push_str("   ");
            }
            _ => {
                out.push_str(line);
                if i % 7 == 0 {
                    out.push_str("  # note");
                }
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

/// Set-up products: inline texts and the running daemon.
struct Inputs {
    inline: BTreeMap<&'static str, Vec<String>>,
    daemon: Daemon,
    load_s: f64,
    parse_ms: f64,
}

/// The spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("server.sock");
        let journal = dir.join("journal");
        for stale in [&socket, &journal, &dir.join("journal.1")] {
            let _ = std::fs::remove_file(stale);
        }
        if socket.as_os_str().len() > 100 {
            return Err(format!("socket path too long: {}", socket.display()));
        }
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &WORKERS.to_string()])
            .arg("--journal")
            .arg(&journal)
            .args(["--fsync", "never"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            dir: dir.to_owned(),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not accept connections within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon, waits for it to exit and removes its files.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.socket)?;
        conn.send(&request(vec![("op", Json::Str("shutdown".into()))]))?;
        while conn.next()?.1.get("type").and_then(Json::as_str) != Some("shutdown") {}
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("server did not exit after shutdown".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn request(mut fields: Vec<(&str, Json)>) -> String {
    fields.insert(0, ("schema", Json::Str(REQUEST_SCHEMA.to_owned())));
    Json::obj(fields).compact()
}

/// One client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// The next response line, with the instant it arrived.
    fn next(&mut self) -> Result<(Instant, Json), String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        let at = Instant::now();
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        let doc = parse_json(self.line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
        Ok((at, doc))
    }
}

/// One finished job as the client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    kind: &'static str,
    class: &'static str,
    /// Identifies the job's spec apart from tenant and id: jobs with
    /// the same key must return the same result.
    spec_key: String,
    line: String,
    submit: Instant,
    ack: Option<Instant>,
    first_progress: Option<Instant>,
    terminal: Instant,
    status: String,
    result: Option<Json>,
    /// A protocol violation seen while waiting (reject, error, stray
    /// terminal).
    fault: Option<String>,
}

impl JobRecord {
    fn latency_ms(&self) -> f64 {
        (self.terminal - self.submit).as_secs_f64() * 1e3
    }
}

/// Builds the submit line for one slot.
fn submit_line(slot: Slot, tenant: &str, id: &str, job_seed: u64, inline: &str) -> String {
    let num = |v: u64| Json::Num(v as f64);
    let params = match slot {
        Slot::Simulate(_) | Slot::SimulateInline(_) => {
            vec![("vectors", num(8192)), ("seed", num(job_seed))]
        }
        Slot::Insert(_) => vec![
            ("vectors", num(4096)),
            ("trigger_nodes", num(4)),
            ("instances", num(4)),
            ("seed", num(job_seed)),
        ],
        Slot::GradeRandom(_) => vec![
            ("scheme", Json::Str("random".into())),
            ("tests", num(2048)),
            ("seed", num(job_seed)),
        ],
        Slot::Detect => vec![
            ("scheme", Json::Str("random".into())),
            ("tests", num(2048)),
            ("vectors", num(4096)),
            ("trigger_nodes", num(4)),
            ("instances", num(4)),
            ("seed", num(job_seed)),
        ],
        Slot::GradeMero => vec![
            ("scheme", Json::Str("mero".into())),
            ("tests", num(4)),
            ("seed", num(job_seed)),
        ],
    };
    let circuit = match slot {
        Slot::Simulate(c) | Slot::Insert(c) | Slot::GradeRandom(c) => {
            ("circuit", Json::Str(c.into()))
        }
        Slot::SimulateInline(_) => ("netlist", Json::Str(inline.to_owned())),
        Slot::Detect => ("circuit", Json::Str("c2670".into())),
        // MERO's cost is set by its 2 500-vector pool, not by `tests`;
        // on s1423 a job takes about 0.4 s.
        Slot::GradeMero => ("circuit", Json::Str("s1423".into())),
    };
    request(vec![
        ("op", Json::Str("submit".into())),
        ("tenant", Json::Str(tenant.to_owned())),
        ("id", Json::Str(id.to_owned())),
        ("kind", Json::Str(slot.kind().into())),
        circuit,
        ("params", Json::obj(params)),
    ])
}

/// Submits one job and reads until its terminal response.
fn run_job(
    conn: &mut Conn,
    slot: Slot,
    job_seed: u64,
    line: String,
    id: &str,
) -> Result<JobRecord, String> {
    let submit = Instant::now();
    conn.send(&line)?;
    let mut rec = JobRecord {
        kind: slot.kind(),
        class: slot.class(),
        spec_key: format!("{slot:?}/{job_seed}"),
        line,
        submit,
        ack: None,
        first_progress: None,
        terminal: submit,
        status: String::new(),
        result: None,
        fault: None,
    };
    loop {
        let (at, doc) = conn.next()?;
        let ty = doc.get("type").and_then(Json::as_str).unwrap_or("");
        let same = doc.get("id").and_then(Json::as_str) == Some(id);
        match ty {
            "ack" if same => rec.ack = Some(at),
            "progress" if same => {
                rec.first_progress.get_or_insert(at);
            }
            "result" if same => {
                rec.terminal = at;
                rec.status = doc
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                rec.result = doc.get("result").cloned();
                return Ok(rec);
            }
            "reject" | "error" if same => {
                rec.terminal = at;
                rec.status = ty.to_owned();
                rec.fault = Some(doc.compact());
                return Ok(rec);
            }
            _ => {
                rec.fault.get_or_insert_with(|| {
                    format!("unexpected line while waiting: {}", doc.compact())
                });
            }
        }
    }
}

/// What one connection's loop produced: the job records, the wall time
/// of each cycle, and the loop's wall time.
type ConnRun = (Vec<JobRecord>, Vec<f64>, f64);

/// One connection's share of a phase.
struct Client<'a> {
    tenant: String,
    id_prefix: String,
    rng: SplitMix,
    job_seeds: [u64; 2],
    slots: &'a [Slot],
    inline: &'a BTreeMap<&'static str, Vec<String>>,
}

/// One connection's loop: whole cycles until `seconds` have passed.
/// Returns the job records, the wall time of each cycle and the loop's
/// wall time.
fn drive(
    socket: &Path,
    mut client: Client,
    seconds: f64,
    max_cycles: usize,
) -> Result<ConnRun, String> {
    let mut conn = Conn::open(socket)?;
    let rng = &mut client.rng;
    let mut records = Vec::new();
    let mut cycle_walls = Vec::new();
    let start = Instant::now();
    let mut n = 0usize;
    while cycle_walls.len() < max_cycles && secs(start) < seconds {
        let mut order = client.slots.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let t = Instant::now();
        for slot in order {
            n += 1;
            let id = format!("{}{n}", client.id_prefix);
            let job_seed = client.job_seeds[rng.below(2) as usize];
            let text = match slot {
                Slot::SimulateInline(c) => {
                    let variants = &client.inline[c];
                    variants[rng.below(variants.len() as u64) as usize].as_str()
                }
                _ => "",
            };
            let line = submit_line(slot, &client.tenant, &id, job_seed, text);
            records.push(run_job(&mut conn, slot, job_seed, line, &id)?);
        }
        cycle_walls.push(secs(t));
    }
    // Anything still arriving before a status reply would be a
    // duplicate terminal.
    conn.send(&request(vec![("op", Json::Str("status".into()))]))?;
    loop {
        let (_, doc) = conn.next()?;
        match doc.get("type").and_then(Json::as_str) {
            Some("status") => break,
            _ => {
                if let Some(last) = records.last_mut() {
                    last.fault
                        .get_or_insert_with(|| format!("line after terminal: {}", doc.compact()));
                }
            }
        }
    }
    Ok((records, cycle_walls, secs(start)))
}

/// What a phase's connection loops produced together.
struct PhaseRun {
    records: Vec<JobRecord>,
    /// Wall time of each cycle, per connection.
    cycles: Vec<Vec<f64>>,
    /// Loop wall time, per connection.
    walls: Vec<f64>,
}

/// Runs both connections concurrently.
fn drive_all(
    ctx: &Ctx,
    inputs: &Inputs,
    slots: &[Slot],
    phase: &str,
    seconds: f64,
    max_cycles: usize,
) -> Result<PhaseRun, String> {
    let socket = inputs.daemon.socket.clone();
    let results: Vec<Result<ConnRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let client = Client {
                    tenant: format!("tenant-{c}"),
                    id_prefix: format!("{phase}-{c}-"),
                    rng: SplitMix(ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(c as u64)),
                    job_seeds: [ctx.seed.wrapping_mul(4), ctx.seed.wrapping_mul(4) + 1],
                    slots,
                    inline: &inputs.inline,
                };
                let socket = &socket;
                scope.spawn(move || drive(socket, client, seconds, max_cycles))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut run = PhaseRun {
        records: Vec::new(),
        cycles: Vec::new(),
        walls: Vec::new(),
    };
    for r in results {
        let (mut records, cycles, wall) = r?;
        run.records.append(&mut records);
        run.cycles.push(cycles);
        run.walls.push(wall);
    }
    Ok(run)
}

/// Checks every job's terminal and compares a sample of job specs with
/// the same library call made in-process.
fn check(
    out: &mut Outcome,
    records: &[JobRecord],
    sampled: &mut BTreeMap<String, Option<Json>>,
    per_class: &mut BTreeMap<&'static str, usize>,
) {
    let cache = ProgramCache::new();
    let mut failed = 0u64;
    for rec in records {
        let mut problem = rec.fault.clone();
        if problem.is_none() && rec.ack.is_none() {
            problem = Some("no ack".to_owned());
        }
        if problem.is_none() && rec.status != "done" {
            problem = Some(format!("status {}", rec.status));
        }
        if problem.is_none() {
            let spec_key = &rec.spec_key;
            let taken = per_class.entry(rec.class).or_insert(0);
            if !sampled.contains_key(spec_key) && *taken < 2 {
                *taken += 1;
                let expected = in_process(&cache, &rec.line);
                sampled.insert(spec_key.clone(), expected);
            }
            if let Some(expected) = sampled.get(spec_key) {
                if expected.as_ref() != rec.result.as_ref() {
                    problem = Some(format!(
                        "result {} differs from in-process {}",
                        rec.result.as_ref().map_or("none".to_owned(), Json::compact),
                        expected.as_ref().map_or("none".to_owned(), Json::compact)
                    ));
                }
            }
        }
        if let Some(p) = problem {
            failed += 1;
            if out.lines.len() < 20 {
                out.line(format!("check failed: {} job: {p}", rec.kind));
            }
        }
    }
    out.tally(records.len() as u64, failed);
}

/// The job's result computed by calling the server library directly.
fn in_process(cache: &ProgramCache, line: &str) -> Option<Json> {
    let Ok(Request::Submit(spec)) = parse_request(line) else {
        return None;
    };
    let (circuit, _) = cache.get_or_compile(&spec.circuit).ok()?;
    let outcome = execute(
        &spec,
        &circuit,
        cache,
        &RunBudget::unlimited(),
        &ProgressEmitter::disabled(),
    );
    // Round-trip through the wire format, as the client sees it.
    outcome.result.and_then(|r| parse_json(&r.compact()).ok())
}

/// Reads `server.*` counters from the daemon's `metrics` op.
fn server_counters(socket: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut conn = Conn::open(socket)?;
    conn.send(&request(vec![("op", Json::Str("metrics".into()))]))?;
    loop {
        let (_, doc) = conn.next()?;
        if doc.get("type").and_then(Json::as_str) == Some("metrics") {
            let counters = doc
                .get("snapshot")
                .and_then(|s| s.get("counters"))
                .and_then(Json::as_obj)
                .ok_or("metrics response has no counters")?;
            return Ok(counters
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect());
        }
    }
}

fn build_inputs(ctx: &Ctx, bin: &Path) -> Result<Inputs, String> {
    let t = Instant::now();
    let circuits = inline_circuits(ctx.smoke)
        .iter()
        .map(|&name| {
            Ok((
                name,
                htforge::circuits::load(name).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let load_s = secs(t);
    let mut inline = BTreeMap::new();
    let mut parse_s = 0.0;
    for (name, nl) in &circuits {
        let text = bench::write(nl);
        let variants: Vec<String> = (0..VARIANTS).map(|k| variant(&text, k)).collect();
        for v in &variants {
            let t = Instant::now();
            let parsed = bench::parse(v, name).map_err(|e| format!("{name} variant: {e}"))?;
            parse_s += secs(t);
            if parsed.node_count() != nl.node_count() {
                return Err(format!("{name} variant parses to a different netlist"));
            }
        }
        inline.insert(*name, variants);
    }
    let daemon = Daemon::spawn(
        bin,
        &ctx.out_dir.join(format!("server-{}", std::process::id())),
    )?;
    Ok(Inputs {
        inline,
        daemon,
        load_s,
        parse_ms: parse_s * 1e3,
    })
}

fn latency_line(out: &mut Outcome, records: &[JobRecord]) {
    for kind in KINDS {
        let lat: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == kind)
            .map(JobRecord::latency_ms)
            .collect();
        out.line(format!(
            "{kind}: {} jobs, latency p50 {:.3} ms, p99 {:.3} ms",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0)
        ));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = ctx
        .server_bin
        .clone()
        .ok_or("server-mix needs --server-bin")?;
    let slots = cycle(ctx.smoke);
    let mut out = Outcome::default();
    out.provenance
        .push(("server_workers".to_owned(), WORKERS.to_string()));
    out.provenance
        .push(("client_connections".to_owned(), CONNECTIONS.to_string()));
    out.provenance
        .push(("jobs_per_cycle".to_owned(), slots.len().to_string()));
    let (inputs, setup_times) = ctx.setup(SETUP_BUDGET_S, || build_inputs(ctx, &bin))?;
    let pid = inputs.daemon.pid();
    let mut sampled = BTreeMap::new();
    let mut per_class = BTreeMap::new();

    // Warm-up: one cycle per connection compiles every circuit.
    let warm = drive_all(ctx, &inputs, &slots, "warm", f64::INFINITY, 1)?.records;
    check(&mut out, &warm, &mut sampled, &mut per_class);

    let cpu0 = cpu_seconds(pid)?;
    let PhaseRun {
        records,
        cycles,
        walls,
    } = drive_all(
        ctx,
        &inputs,
        &slots,
        "timed",
        ctx.phase_seconds(),
        usize::MAX,
    )?;
    let server_cpu = cpu_seconds(pid)? - cpu0;
    let rss = peak_rss_mb(pid)?;
    let jobs = records.len() as f64;
    // Closed-loop throughput from each connection's median cycle, so a
    // slow host phase that hits a few cycles does not move it.
    let rate: f64 = cycles.iter().map(|c| slots.len() as f64 / median(c)).sum();
    let lat: Vec<f64> = records.iter().map(JobRecord::latency_ms).collect();
    out.line(format!(
        "closed loop: {CONNECTIONS} connections x {} cycles of {} jobs, {} jobs in {:.3} s, server cpu {server_cpu:.3} s",
        cycles.iter().map(Vec::len).min().unwrap_or(0),
        slots.len(),
        records.len(),
        walls.iter().copied().fold(0.0, f64::max),
    ));
    latency_line(&mut out, &records);

    let trace_phase = if ctx.trace {
        let PhaseRun {
            records: traced,
            walls: traced_walls,
            ..
        } = drive_all(
            ctx,
            &inputs,
            &slots,
            "traced",
            ctx.phase_seconds(),
            usize::MAX,
        )?;
        Some((traced, traced_walls))
    } else {
        None
    };
    let counters = server_counters(&inputs.daemon.socket)?;
    let Inputs {
        daemon,
        load_s,
        parse_ms,
        ..
    } = inputs;
    daemon.shutdown()?;
    check(&mut out, &records, &mut sampled, &mut per_class);
    out.line(format!(
        "in-process comparisons: {} job specs",
        sampled.len()
    ));

    let Some((traced, traced_walls)) = trace_phase else {
        out.end_to_end(&setup_times, rate, jobs / server_cpu, rss, &lat);
        return Ok(out);
    };
    check(&mut out, &traced, &mut sampled, &mut per_class);

    // Client-side spans per job: admission (submit to ack), start
    // (ack to first progress frame: queue wait and cache lookup or
    // compile) and execution (first progress frame to terminal).
    let epoch = traced
        .iter()
        .map(|r| r.submit)
        .min()
        .unwrap_or_else(Instant::now);
    let mut tr = Tracer::new(epoch);
    let mut admit = Vec::new();
    let mut start = Vec::new();
    let mut exec: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, rec) in traced.iter().enumerate() {
        let req = i as u64 + 1;
        let ack = rec.ack.unwrap_or(rec.submit);
        let first = rec.first_progress.unwrap_or(ack);
        let job = tr.record(None, "bench.job", rec.submit, rec.terminal, req);
        tr.record(Some(job), "server.admit", rec.submit, ack, req);
        tr.record(Some(job), "server.start", ack, first, req);
        tr.record(
            Some(job),
            &format!("server.exec.{}", rec.kind),
            first,
            rec.terminal,
            req,
        );
        admit.push((ack - rec.submit).as_secs_f64() * 1e3);
        start.push((first - ack).as_secs_f64() * 1e3);
        exec.entry(rec.kind)
            .or_default()
            .push((rec.terminal - first).as_secs_f64() * 1e3);
    }
    let hits = counters.get("server.cache_hits").copied().unwrap_or(0.0);
    let misses = counters.get("server.cache_misses").copied().unwrap_or(0.0);
    out.metric("circuits.load_s", load_s);
    out.metric("netlist.parse_ms", parse_ms);
    out.metric("server.jobs", traced.len() as f64);
    out.metric("server.admit_ms.p50", percentile(&admit, 50.0));
    out.metric("server.admit_ms.p99", percentile(&admit, 99.0));
    out.metric("server.start_ms.p50", percentile(&start, 50.0));
    out.metric("server.start_ms.p99", percentile(&start, 99.0));
    for kind in KINDS {
        let v = exec.get(kind).map_or(&[][..], Vec::as_slice);
        out.metric(&format!("server.exec_ms.{kind}.p50"), percentile(v, 50.0));
        out.metric(&format!("server.exec_ms.{kind}.p99"), percentile(v, 99.0));
    }
    out.metric(
        "server.cache_hit_pct",
        100.0 * hits / (hits + misses).max(1.0),
    );
    out.metric(
        "server.rejects",
        counters.get("server.jobs_rejected").copied().unwrap_or(0.0),
    );
    // Coverage: job spans against each connection's loop wall time.
    let spanned: f64 = traced
        .iter()
        .map(|r| (r.terminal - r.submit).as_secs_f64())
        .sum();
    let wall: f64 = traced_walls.iter().sum();
    let traced_lat: Vec<f64> = traced.iter().map(JobRecord::latency_ms).collect();
    let untraced_p50 = percentile(&lat, 50.0);
    out.metric("trace.ops", traced.len() as f64);
    out.metric("trace.coverage_pct", 100.0 * spanned / wall);
    out.metric(
        "trace.overhead_pct",
        100.0 * (percentile(&traced_lat, 50.0) - untraced_p50) / untraced_p50,
    );
    out.line(format!(
        "traced jobs {}, connection wall {wall:.3} s; job p50 {:.3} ms traced vs {untraced_p50:.3} ms untraced",
        traced.len(),
        percentile(&traced_lat, 50.0)
    ));
    let layers = tr.self_time_by_layer();
    out.line("self time per layer, summed over jobs and connections:".to_owned());
    for (layer, s) in &layers {
        out.line(format!(
            "  {layer:<10} {s:>10.4} s {:>6.1}% of connection wall",
            100.0 * s / wall
        ));
    }
    out.spans = Some(tr.to_json());
    Ok(out)
}
