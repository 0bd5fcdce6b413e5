//! `servebench` — the end-to-end benchmark of `serve`, plus a traced
//! per-layer profile of Algorithms 1 and 2. See README.md.
//!
//! ```text
//! servebench --serve-bin PATH --workload NAME|all --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Untraced (`--trace 0`): generate the workload from the seed, write the
//! lake as CSVs, start `serve` on it several times (set-up), drive the last
//! instance with closed-loop loopback clients for `--seconds`, then check
//! every response against an in-process reference and print the
//! end-to-end metrics. Traced (`--trace 1`): a shorter server window for
//! the serve overhead, then an in-process profile that spans each layer's
//! public calls. The last stdout line is one JSON object.

mod expect;
mod replica;
mod server;
mod stats;
mod trace;
mod workload;

use crate::replica::Replica;
use crate::server::{Client, Server};
use crate::stats::{mean, median, summarize, Summary};
use crate::trace::Trace;
use crate::workload::{
    churn_state, mutation, Class, Inputs, Role, Target, Workload, CHURN_TABLES, K,
};
use dust_core::{LakeSession, PipelineConfig, SessionOptions, SessionView, SnapshotStore};
use dust_table::{parse_csv, CsvOptions, DataLake, Table};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `serve` is started this many times per untraced run; `setup_s` is the
/// median.
const SETUP_REPS: usize = 9;
/// Shard count `serve` runs with (its default), mirrored by the reference.
const SHARDS: usize = 4;
/// A traced query's stage spans must sum to its untraced
/// `SessionView::query` time within this share of that time, plus
/// [`SPAN_SUM_SLACK_MS`].
const SPAN_SUM_TOLERANCE: f64 = 0.35;
/// Absolute slack of the span-sum check, for scheduler noise on short queries.
const SPAN_SUM_SLACK_MS: f64 = 5.0;
/// Times a query outside the span-sum tolerance is measured again.
const SPAN_SUM_RETRIES: usize = 2;

struct Args {
    serve_bin: PathBuf,
    /// One workload, or every workload in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/servebench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {value:?} (one of {}, all)",
                            names.join(", ")
                        )
                    })?],
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let run_dir = args.work_dir.join(format!(
            "{}-{}-{}",
            workload.name(),
            args.seed,
            std::process::id()
        ));
        let outcome = run(&args, workload, &run_dir);
        let _ = std::fs::remove_dir_all(&run_dir);
        match outcome {
            Ok(report) => {
                report.print();
                all_correct &= report.correct();
            }
            Err(e) => {
                eprintln!("servebench: {}: {e}", workload.name());
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Human-readable context (sample count, percentile).
    note: String,
}

/// Everything one run prints.
#[derive(Default)]
struct Report {
    /// Metrics that go into the final JSON line.
    metrics: Vec<Metric>,
    /// Metrics printed for people only (they do not apply to every workload).
    extra: Vec<Metric>,
    /// Free-form report lines.
    lines: Vec<String>,
    attempted: usize,
    failed: usize,
    /// Failed checks (wrong answers, a workload without its property).
    problems: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "  {:<34} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for p in &self.problems {
            println!("FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One answered (or failed) request of the timed window.
struct Record {
    class: Class,
    id: String,
    target: Target,
    latency_ms: f64,
    /// The response line, or the transport error.
    response: Result<String, String>,
}

/// The environment stamp printed with every run.
fn stamp(args: &Args, workload: Workload, serve_args: &[String]) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "# env nproc={} date={} git_rev={} rustc=\"{}\" workload={} seed={} seconds={} trace={}\n\
         # serve {}",
        nproc(),
        env("SERVEBENCH_DATE"),
        env("SERVEBENCH_GIT_REV"),
        env("SERVEBENCH_RUSTC"),
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve_args.join(" ")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The configuration `serve` builds its session with (its defaults:
/// overlap search, pre-trained RoBERTa tuple embeddings).
fn pipeline_config() -> PipelineConfig {
    PipelineConfig::fast()
}

fn serve_args(workload: Workload, lake_dir: &Path, snapshot_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--lake-dir".into(),
        lake_dir.display().to_string(),
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        nproc().min(2).to_string(),
        "--search".into(),
        "overlap".into(),
    ];
    if let Some(dir) = snapshot_dir.filter(|_| workload.durable()) {
        args.push("--snapshot-dir".into());
        args.push(dir.display().to_string());
    }
    args
}

fn write_lake(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for table in &inputs.lake {
        let path = dir.join(format!("{}.csv", table.name));
        std::fs::write(&path, &table.csv).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn parse_table(name: &str, csv: &str) -> Table {
    parse_csv(name, csv, CsvOptions::default()).expect("generated CSV parses")
}

/// Start `serve` and wait for its first correct response: a `stats` line
/// whose table and tuple counts match the lake. Returns the server and the
/// seconds from spawn to that response.
fn start_server(bin: &Path, args: &[String], lake: &DataLake) -> Result<(Server, f64), String> {
    let server = Server::start(bin, args)?;
    let mut client = Client::connect(&server.addr)?;
    let response = client.call(r#"{"id":"ready","mode":"stats"}"#)?;
    let setup_s = server.spawned.elapsed().as_secs_f64();
    let tuples: usize = lake.tables().map(Table::num_rows).sum();
    let expected = format!(
        "{{\"id\":\"ready\",\"generation\":0,\"result\":{{\"tables\":{},\"tuples\":{tuples},",
        lake.num_tables()
    );
    if !response.starts_with(&expected) {
        return Err(format!("unexpected first response {response:?}"));
    }
    Ok((server, setup_s))
}

/// Drive `addr` with the workload's closed-loop clients for `seconds`.
/// Returns every request's record and the window's length in seconds.
fn drive(addr: &str, workload: Workload, inputs: &Inputs, seconds: f64) -> (Vec<Record>, f64) {
    let roles = workload.roles();
    let barrier = Barrier::new(roles.len() + 1);
    let (records, window) = std::thread::scope(|scope| {
        let handles: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(c, &role)| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(addr, inputs, role, c, seconds, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let records: Vec<Record> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (records, start.elapsed().as_secs_f64())
    });
    (records, window)
}

fn client_loop(
    addr: &str,
    inputs: &Inputs,
    role: Role,
    c: usize,
    seconds: f64,
    barrier: &Barrier,
) -> Vec<Record> {
    let client = Client::connect(addr);
    barrier.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            let request = workload::request(inputs, role, c, 0);
            return vec![Record {
                class: request.class,
                id: request.id,
                target: request.target,
                latency_ms: 0.0,
                response: Err(e),
            }];
        }
    };
    let mut records = Vec::new();
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let request = workload::request(inputs, role, c, i);
        let sent = Instant::now();
        let response = client.call(&request.line);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let broken = response.is_err();
        records.push(Record {
            class: request.class,
            id: request.id,
            target: request.target,
            latency_ms,
            response,
        });
        if broken {
            break;
        }
    }
    records
}

/// Expected `(body, pool size)` per `(churn table present, read target)`.
type Expected = HashMap<(Option<usize>, Target), (String, Option<usize>)>;

/// The in-process reference: a session over the lake `serve` loaded, and
/// the expected response body of every (lake state, request target).
struct Reference {
    session: LakeSession,
    /// Tables in the generated lake (mutation responses echo the count).
    base_tables: usize,
    build_ms: f64,
}

impl Reference {
    fn build(lake_dir: &Path) -> Result<Reference, String> {
        let lake = expect::load_lake_dir(lake_dir)?;
        let base_tables = lake.num_tables();
        let start = Instant::now();
        let session = LakeSession::with_options(
            lake,
            pipeline_config(),
            SessionOptions {
                num_shards: SHARDS,
                ..SessionOptions::default()
            },
        );
        Ok(Reference {
            session,
            base_tables,
            build_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The expected `result` body of a read, and (diverse reads) the size
    /// of its candidate pool.
    fn body(
        view: &SessionView<'_>,
        inputs: &Inputs,
        target: Target,
    ) -> Result<(String, Option<usize>), String> {
        match target {
            Target::Diverse(q) => {
                let query = parse_table("inline_query", &inputs.diverse[q].csv);
                let result = view.query(&query, K).map_err(|e| e.to_string())?;
                Ok((expect::diverse_body(&result), Some(result.candidate_tuples)))
            }
            Target::Similar(q) => {
                let query = parse_table("inline_query", &inputs.similar[q].csv);
                Ok((expect::similar_body(&view.similar_tuples(&query, K)), None))
            }
            Target::Mutation(_) => unreachable!("mutations are checked without the session"),
        }
    }

    /// Expected bodies for every read target in `wanted`, keyed by
    /// `(churn table present, target)`. Each lake state is reached by
    /// replaying its mutation on the reference session and undone after.
    fn expected(
        &self,
        inputs: &Inputs,
        wanted: &[(Option<usize>, Target)],
    ) -> Result<Expected, String> {
        let mut by_state: BTreeMap<Option<usize>, Vec<Target>> = BTreeMap::new();
        for &(state, target) in wanted {
            let targets = by_state.entry(state).or_default();
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        let mut out = HashMap::new();
        for (state, targets) in by_state {
            if let Some(t) = state {
                let table = &inputs.churn[t];
                self.session
                    .add_table(parse_table(&table.name, &table.csv))
                    .map_err(|e| e.to_string())?;
            }
            let view = self.session.view();
            for target in targets {
                out.insert((state, target), Self::body(&view, inputs, target)?);
            }
            if let Some(t) = state {
                self.session
                    .remove_table(&inputs.churn[t].name)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(out)
    }
}

/// Check every record against the reference. Returns the number of failed
/// records, a description of the first failures, and the candidate pool
/// size of every distinct diverse query on the generated lake.
fn check(
    records: &[Record],
    inputs: &Inputs,
    reference: &Reference,
) -> Result<(usize, Vec<String>, Vec<usize>), String> {
    let read_key = |r: &Record| -> Option<(Option<usize>, Target)> {
        let response = r.response.as_ref().ok()?;
        let generation = expect::generation(response)?;
        Some((churn_state(generation), r.target))
    };
    let mut wanted: Vec<_> = (0..inputs.diverse.len())
        .map(|q| (None, Target::Diverse(q)))
        .collect();
    wanted.extend(
        records
            .iter()
            .filter(|r| r.class != Class::Mutate)
            .filter_map(read_key),
    );
    let expected = reference.expected(inputs, &wanted)?;
    let pools = (0..inputs.diverse.len())
        .map(|q| {
            expected[&(None, Target::Diverse(q))]
                .1
                .expect("diverse pool")
        })
        .collect();
    let mut failed = 0;
    let mut notes = Vec::new();
    for r in records {
        let verdict = match (&r.response, r.target) {
            (Err(e), _) => Err(format!("{}: transport error: {e}", r.id)),
            (Ok(response), Target::Mutation(n)) => {
                let (add, t) = mutation(n);
                let tables = reference.base_tables + usize::from(add);
                let body = expect::mutation_body(add, &inputs.churn[t].name, tables, n);
                let want = expect::mutation_response(&r.id, &body);
                match expect::split_secs(response) {
                    Some((head, _)) if head == want => Ok(()),
                    _ => Err(format!("{}: got {}, want {want}", r.id, clip(response))),
                }
            }
            (Ok(response), _) => match (expect::generation(response), read_key(r)) {
                (Some(g), Some(key)) => {
                    let want = expect::read_response(&r.id, g, &expected[&key].0);
                    match expect::split_secs(response) {
                        Some((head, _)) if head == want => Ok(()),
                        _ => Err(format!(
                            "{}: mismatch at generation {g}: got {}",
                            r.id,
                            clip(response)
                        )),
                    }
                }
                _ => Err(format!("{}: not a read response: {}", r.id, clip(response))),
            },
        };
        if let Err(note) = verdict {
            failed += 1;
            if notes.len() < 5 {
                notes.push(note);
            }
        }
    }
    Ok((failed, notes, pools))
}

fn clip(s: &str) -> String {
    s.chars().take(300).collect()
}

fn class_latencies(records: &[Record], class: Class) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.class == class && r.response.is_ok())
        .map(|r| r.latency_ms)
        .collect()
}

fn note(s: &Summary, tail: bool) -> String {
    if tail {
        format!("p{:.1}, n={}", s.tail_pct, s.n)
    } else {
        format!("p50, n={}", s.n)
    }
}

/// Report a class's median and tail latency (into the JSON metrics when
/// `gated`, else into the human-only lines).
fn latency_metrics(
    report: &mut Report,
    records: &[Record],
    class: Class,
    names: (&'static str, &'static str),
    gated: bool,
) -> Result<(), String> {
    let Some(s) = summarize(&class_latencies(records, class)) else {
        return Err(format!("no {class:?} request completed in the window"));
    };
    let metrics = [
        Metric {
            name: names.0,
            value: s.p50,
            unit: "ms",
            note: note(&s, false),
        },
        Metric {
            name: names.1,
            value: s.tail,
            unit: "ms",
            note: note(&s, true),
        },
    ];
    if gated {
        report.metrics.extend(metrics);
    } else {
        report.extra.extend(metrics);
    }
    Ok(())
}

/// The workload-property report: the share of diverse queries whose pool
/// exceeds the prune budget, the re-rank useful ratio, and (churn) the
/// checkpoints fired. A seed that lost the property its workload relies on
/// fails the run.
fn properties(
    report: &mut Report,
    workload: Workload,
    pools: &[usize],
    checkpoints: Option<usize>,
    churn_retrieved: Option<usize>,
) {
    let config = pipeline_config();
    let budget = config.diversifier.prune_to.unwrap_or(usize::MAX);
    let kp = K * config.diversifier.p;
    let share = pools.iter().filter(|&&n| n > budget).count() as f64 / pools.len().max(1) as f64;
    let useful: Vec<f64> = pools
        .iter()
        .map(|&n| kp.min(n) as f64 / n.max(1) as f64)
        .collect();
    report.lines.push(format!(
        "# property pools_over_prune_budget={share:.3} ({} distinct diverse queries, s={budget}, pools {}..{}) \
         rerank_useful_ratio={:.4} (k*p/pool){}{}",
        pools.len(),
        pools.iter().min().unwrap_or(&0),
        pools.iter().max().unwrap_or(&0),
        mean(&useful),
        checkpoints.map_or(String::new(), |c| format!(" checkpoints={c}")),
        churn_retrieved.map_or(String::new(), |n| format!(
            " churn_tables_retrieved={n}/{CHURN_TABLES}"
        )),
    ));
    match workload {
        Workload::DiverseSmall if share > 0.0 => report.problems.push(format!(
            "diverse-small: {share:.2} of pools exceed s={budget}; prune must never fire"
        )),
        Workload::DiverseLarge if !(0.25..=0.75).contains(&share) => report.problems.push(format!(
            "diverse-large: {share:.2} of pools exceed s={budget}; the workload needs about half"
        )),
        Workload::ChurnDurable if checkpoints.unwrap_or(0) == 0 => report
            .problems
            .push("churn-durable: no checkpoint fired in the window".to_string()),
        Workload::ChurnDurable if churn_retrieved.is_some_and(|n| n < CHURN_TABLES) => {
            report.problems.push(format!(
                "churn-durable: {} of {CHURN_TABLES} churn tables enter a same-domain diverse \
                 query's search results; every one must",
                churn_retrieved.unwrap_or(0)
            ))
        }
        _ => {}
    }
}

/// The checkpoint epoch a durable server reports in `stats`.
fn wal_epoch(server: &Server) -> Result<usize, String> {
    let response = Client::connect(&server.addr)?.call(r#"{"id":"epoch","mode":"stats"}"#)?;
    dust_bench::json::parse(&response)
        .ok()
        .and_then(|v| v.get("result")?.get("wal")?.get("epoch")?.as_usize())
        .ok_or_else(|| format!("no WAL epoch in {}", clip(&response)))
}

/// How many churn tables enter the search results of some diverse query of
/// their own domain while they are in the lake, by the reference. A seed
/// property: unlike the timed reads, which lake states it sees does not
/// depend on how the two clients interleave.
fn churn_tables_retrieved(inputs: &Inputs, reference: &Reference) -> Result<usize, String> {
    let same_domain = |t: usize| {
        (0..inputs.diverse.len()).filter(move |q| q % workload::DOMAINS == t % workload::DOMAINS)
    };
    let wanted: Vec<_> = (0..inputs.churn.len())
        .flat_map(|t| same_domain(t).map(move |q| (Some(t), Target::Diverse(q))))
        .collect();
    let expected = reference.expected(inputs, &wanted)?;
    Ok((0..inputs.churn.len())
        .filter(|&t| {
            let name = format!("\"{}\"", inputs.churn[t].name);
            same_domain(t).any(|q| {
                expected[&(Some(t), Target::Diverse(q))]
                    .0
                    .split("\"dropped\":")
                    .next()
                    .is_some_and(|tables| tables.contains(&name))
            })
        })
        .count())
}

fn run(args: &Args, workload: Workload, run_dir: &Path) -> Result<Report, String> {
    let inputs = workload::generate(workload, args.seed);
    let lake_dir = run_dir.join("lake");
    write_lake(&inputs, &lake_dir)?;
    let lake = expect::load_lake_dir(&lake_dir)?;
    let snapshot = |i: usize| run_dir.join(format!("snapshot-{i}"));
    let mut report = Report::default();
    report.lines.push(stamp(
        args,
        workload,
        &serve_args(workload, &lake_dir, Some(&snapshot(0))),
    ));

    // Set-up: start serve several times, keep the last one running.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..reps {
        let (started, secs) = start_server(
            &args.serve_bin,
            &serve_args(workload, &lake_dir, Some(&snapshot(i))),
            &lake,
        )?;
        setups.push(secs);
        if let Some(previous) = server.replace(started) {
            Server::stop(previous)?;
        }
    }
    let server = server.expect("at least one set-up");
    let epoch_before = if workload.durable() {
        Some(wal_epoch(&server)?)
    } else {
        None
    };

    let window_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (records, window) = drive(&server.addr, workload, &inputs, window_secs);

    let checkpoints = match epoch_before {
        Some(before) => Some(wal_epoch(&server)? - before),
        None => None,
    };
    let peak_rss = server.peak_rss_mib()?;
    server.stop()?;

    let reference = Reference::build(&lake_dir)?;
    let (failed, notes, pools) = check(&records, &inputs, &reference)?;
    report.attempted = records.len();
    report.failed = failed;
    report.problems.extend(notes);
    let correct = records.len() - failed;
    let churn_retrieved = if workload.durable() {
        Some(churn_tables_retrieved(&inputs, &reference)?)
    } else {
        None
    };
    properties(&mut report, workload, &pools, checkpoints, churn_retrieved);

    if args.trace {
        let overhead: Vec<f64> = records
            .iter()
            .filter_map(|r| {
                let secs = expect::split_secs(r.response.as_ref().ok()?)?.1;
                Some(r.latency_ms - secs * 1e3)
            })
            .collect();
        report.metric(
            "serve.overhead_ms",
            median(&overhead),
            "ms",
            format!("p50 of client latency - secs, n={}", overhead.len()),
        );
        profile(&mut report, &reference, &inputs, run_dir, args.seconds)?;
        return Ok(report);
    }

    let setup = median(&setups);
    report.metric(
        "setup_s",
        setup,
        "s",
        format!(
            "p50 of {} starts, spawn to first correct response",
            setups.len()
        ),
    );
    latency_metrics(
        &mut report,
        &records,
        Class::Diverse,
        ("diverse_p50_ms", "diverse_tail_ms"),
        true,
    )?;
    report.metric(
        "throughput_rps",
        correct as f64 / window,
        "1/s",
        format!(
            "{correct} correct responses in {window:.2}s, {} clients",
            workload.roles().len()
        ),
    );
    report.metric(
        "peak_rss_mb",
        peak_rss,
        "MiB",
        "serve VmHWM at end of run".to_string(),
    );
    if workload == Workload::ChurnDurable {
        latency_metrics(
            &mut report,
            &records,
            Class::Similar,
            ("similar_p50_ms", "similar_tail_ms"),
            false,
        )?;
        latency_metrics(
            &mut report,
            &records,
            Class::Mutate,
            ("mutate_p50_ms", "mutate_tail_ms"),
            false,
        )?;
    }
    report.extra.push(Metric {
        name: "error_rate",
        value: failed as f64 / records.len().max(1) as f64,
        unit: "ratio",
        note: format!("{failed} of {} requests failed", records.len()),
    });
    Ok(report)
}

/// The summed duration of the direct children of span `root` (the stage
/// spans of one traced query).
fn stage_sum_ms(trace: &Trace, root: usize) -> f64 {
    (root + 1..trace.spans().len())
        .filter(|&i| trace.spans()[i].parent == Some(root))
        .map(|i| trace.total_ns(i) as f64 / 1e6)
        .sum()
}

/// Per-call medians of the profile's spans (`<name>` → ms).
fn span_medians(trace: &Trace) -> BTreeMap<&'static str, f64> {
    trace
        .self_ms_by_request()
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// The traced in-process profile: diverse queries through the replica
/// (checked bit for bit against `SessionView::query`), similar scans, and
/// durable mutations up to the first checkpoint.
fn profile(
    report: &mut Report,
    reference: &Reference,
    inputs: &Inputs,
    run_dir: &Path,
    seconds: f64,
) -> Result<(), String> {
    let session = &reference.session;
    let mut trace = Trace::default();
    let mut request = 0u64;
    let start = Instant::now();

    // Algorithm 1 and 2, step by step.
    let view = session.view();
    let replica = Replica::new(view.lake(), session.config());
    let mut overhead = Vec::new();
    let mut untraced = Vec::new();
    let mut matched = 0usize;
    let budget = seconds * 0.6;
    for q in 0.. {
        if q >= 2 && start.elapsed().as_secs_f64() > budget || q >= inputs.diverse.len() * 4 {
            break;
        }
        request += 1;
        let table = &inputs.diverse[q % inputs.diverse.len()];
        let query = parse_table("inline_query", &table.csv);
        let first = trace.spans().len();
        let replica_result = replica.query(&mut trace, request, view.lake(), &query, K);
        let traced_ms = trace.total_ns(first) as f64 / 1e6;
        let mut stage_ms = stage_sum_ms(&trace, first);
        let t0 = Instant::now();
        let result = view.query(&query, K).map_err(|e| e.to_string())?;
        let mut untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
        let same = replica_result.retrieved == result.retrieved_tables
            && replica_result.dropped == result.dropped_tables
            && replica_result.candidates == result.candidate_tuples
            && replica_result.diversity.average.to_bits() == result.diversity.average.to_bits()
            && replica_result.diversity.minimum.to_bits() == result.diversity.minimum.to_bits()
            && replica_result.tuples == result.tuples;
        if same {
            matched += 1;
        } else {
            report.problems.push(format!(
                "replica selection differs from SessionView::query on {}",
                table.name
            ));
        }
        // A query slowed by another process on the machine is timed again
        // (both ways, keeping each side's fastest) before the check fails.
        let tolerance = |untraced_ms: f64| SPAN_SUM_TOLERANCE * untraced_ms + SPAN_SUM_SLACK_MS;
        for _ in 0..SPAN_SUM_RETRIES {
            if (stage_ms - untraced_ms).abs() <= tolerance(untraced_ms) {
                break;
            }
            let mut retimed = Trace::default();
            replica.query(&mut retimed, request, view.lake(), &query, K);
            stage_ms = stage_ms.min(stage_sum_ms(&retimed, 0));
            let t0 = Instant::now();
            view.query(&query, K).map_err(|e| e.to_string())?;
            untraced_ms = untraced_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if (stage_ms - untraced_ms).abs() > tolerance(untraced_ms) {
            report.problems.push(format!(
                "stage spans of {} sum to {stage_ms:.2} ms, untraced query took {untraced_ms:.2} ms \
                 (tolerance {:.2} ms)",
                table.name,
                tolerance(untraced_ms)
            ));
        }
        overhead.push(traced_ms - untraced_ms);
        untraced.push(untraced_ms);
    }
    let queries = overhead.len();
    drop(view);

    // The similar scan.
    for table in &inputs.similar {
        request += 1;
        let query = parse_table("inline_query", &table.csv);
        let view = session.view();
        let live = view.stats().tuples;
        trace.span(request, "session.similar", |_| {
            view.similar_tuples(&query, K)
        });
        trace.count(
            request,
            "session.similar_rows_scanned",
            (live * query.num_rows()) as f64,
        );
    }

    // Durable mutations, in serve's order: publish, WAL append, checkpoint.
    let dir = run_dir.join("profile-snapshot");
    let mut store = trace
        .span(0, "setup.snapshot_create", |_| {
            SnapshotStore::create(&dir, session)
        })
        .map_err(|e| format!("snapshot create: {e}"))?;
    let generation0 = session.generation();
    let mut wal_bytes = 0u64;
    let mut user_bytes = 0u64;
    let mut fired = 0usize;
    for n in 1..=512u64 {
        if fired > 0 && n % 2 == 1 {
            break;
        }
        request += 1;
        let (add, t) = mutation(n);
        let table = &inputs.churn[t];
        let before = store.wal_bytes();
        if add {
            let parsed = parse_table(&table.name, &table.csv);
            trace
                .span(request, "session.publish", |_| {
                    session.add_table(parsed.clone())
                })
                .map_err(|e| e.to_string())?;
            trace
                .span(request, "persist.wal_append", |_| {
                    store.log_add_table(&parsed, session.generation())
                })
                .map_err(|e| e.to_string())?;
            user_bytes += table.csv.len() as u64;
        } else {
            trace
                .span(request, "session.publish", |_| {
                    session.remove_table(&table.name)
                })
                .map_err(|e| e.to_string())?;
            trace
                .span(request, "persist.wal_append", |_| {
                    store.log_remove_table(&table.name, session.generation())
                })
                .map_err(|e| e.to_string())?;
            user_bytes += table.name.len() as u64;
        }
        wal_bytes += store.wal_bytes() - before;
        let checkpointed = trace.spans().len();
        let did = trace
            .span(request, "persist.maybe_checkpoint", |_| {
                store.maybe_checkpoint(session)
            })
            .map_err(|e| e.to_string())?;
        if did {
            fired += 1;
            // only calls that fired count as checkpoint time
            let ms = trace.total_ns(checkpointed) as f64 / 1e6;
            trace.count(request, "persist.checkpoint_ms", ms);
        }
    }
    let mutations = session.generation() - generation0;

    let medians = span_medians(&trace);
    let counts = trace.counts_by_name();
    let span = |name: &str| medians.get(name).copied().unwrap_or(f64::NAN);
    let count_mean = |name: &str| counts.get(name).map_or(f64::NAN, |v| mean(v));
    let qnote = format!("p50 self time, n={queries} queries");
    for (metric, name) in [
        ("search.ms", "search"),
        ("align.ms", "align"),
        ("embed.ms", "embed"),
        ("diversify.store_ms", "diversify.store"),
        ("diversify.prune_ms", "diversify.prune"),
        ("diversify.matrix_ms", "diversify.matrix"),
        ("diversify.cluster_ms", "diversify.cluster"),
        ("diversify.medoid_ms", "diversify.medoid"),
        ("diversify.rerank_ms", "diversify.rerank"),
        ("diversify.self_ms", "diversify"),
    ] {
        report.metric(metric, span(name), "ms", qnote.clone());
    }
    let mean_note = format!("mean per query, n={queries}");
    for (metric, unit) in [
        ("search.shortlisted", "count"),
        ("search.returned", "count"),
        ("align.candidates", "count"),
        ("embed.tuples", "count"),
        ("diversify.prune_kept_ratio", "ratio"),
        ("diversify.matrix_pairs", "count"),
        ("diversify.clusters", "count"),
        ("diversify.rerank_useful_ratio", "ratio"),
    ] {
        report.metric(metric, count_mean(metric), unit, mean_note.clone());
    }
    report.metric(
        "session.similar_ms",
        span("session.similar"),
        "ms",
        format!("p50, n={}", inputs.similar.len()),
    );
    report.metric(
        "session.similar_rows_scanned",
        count_mean("session.similar_rows_scanned"),
        "count",
        "live tuples x query rows, mean per call".to_string(),
    );
    let mnote = format!("p50, n={mutations} mutations");
    report.metric(
        "session.publish_ms",
        span("session.publish"),
        "ms",
        mnote.clone(),
    );
    report.metric(
        "persist.wal_append_ms",
        span("persist.wal_append"),
        "ms",
        mnote,
    );
    report.metric(
        "persist.wal_bytes_per_user_byte",
        wal_bytes as f64 / user_bytes.max(1) as f64,
        "ratio",
        format!("{wal_bytes} WAL bytes for {user_bytes} request bytes"),
    );
    report.metric(
        "persist.checkpoint_ms",
        counts
            .get("persist.checkpoint_ms")
            .map_or(f64::NAN, |v| median(v)),
        "ms",
        format!("p50 of calls that fired, n={fired}"),
    );
    report.metric(
        "persist.checkpoints",
        fired as f64,
        "count",
        format!("in {mutations} mutations"),
    );
    report.metric(
        "setup.session_build_ms",
        reference.build_ms,
        "ms",
        "LakeSession::with_options, n=1".to_string(),
    );
    report.metric(
        "setup.snapshot_create_ms",
        span("setup.snapshot_create"),
        "ms",
        "SnapshotStore::create, n=1".to_string(),
    );
    report.metric(
        "trace.overhead_ms",
        median(&overhead),
        "ms",
        format!("p50 of traced - untraced SessionView::query, n={queries}"),
    );
    report.lines.push(format!(
        "# replica matched SessionView::query on {matched} of {queries} queries; untraced query \
         p50 {:.3} ms; span-sum tolerance {:.0}% + {SPAN_SUM_SLACK_MS} ms",
        median(&untraced),
        SPAN_SUM_TOLERANCE * 100.0
    ));
    Ok(())
}
