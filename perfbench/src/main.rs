//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! rc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (tracing off); `--trace 1`
//! is the separate traced run that prints the per-layer metrics. Every
//! sample is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exit code 0 means
//! every check passed, 1 that one failed, 2 a bad command line.

use rc_perfbench::trace::{Span, Totals};
use rc_perfbench::workload::{ExploreInstance, SwarmInstance, Workload};
use rc_runtime::{analysis_fixpoint_runs, CrashModel, ExploreOutcome, ExploreStats, SwarmReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Setups timed before each untraced sample; `setup_s` is the median of
/// all of them.
const SETUP_REPS: usize = 5;
/// Fewest timed samples per run, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// Seeds per swarm sweep (one sweep is one sample).
const SWARM_SEEDS: u64 = 600_000;
/// Swarm worker threads.
const SWARM_THREADS: usize = 2;
/// Seeds replayed one by one for the per-seed latency percentiles: at
/// 2,000 samples, 20 lie beyond the 99th percentile.
const REPLAY_SEEDS: u64 = 2_000;
/// The seed used when `--seed` is absent; its swarm summary is pinned.
const DEFAULT_SEED: u64 = 0;
/// `deterministic_summary()` of the default-seed sweep.
const DEFAULT_SEED_SUMMARY: &str =
    "runs=600000 distinct_final_states=260 total_steps=10745207 total_crashes=1397730 violations=[]";

/// The metrics of an untraced run, with their units, as `BENCHMARK.json`
/// declares them.
const END_TO_END: &[(&str, &str)] = &[
    ("verify_s", "s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
];

/// The metrics of a traced run. A workload that never calls a layer
/// reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("explore.self_s", "s"),
    ("explore.self_ns_per_state", "ns"),
    ("explore.states", "count"),
    ("explore.leaves", "count"),
    ("explore.accept_ratio", "ratio"),
    ("explore.states_per_s", "1/s"),
    ("program.boxed_clone.calls", "count"),
    ("program.boxed_clone.s", "s"),
    ("program.state_key.calls", "count"),
    ("program.state_key.s", "s"),
    ("program.state_key.per_state", "count"),
    ("program.rebind.calls", "count"),
    ("program.rebind.s", "s"),
    ("program.step.calls", "count"),
    ("program.step.self_s", "s"),
    ("program.on_crash.calls", "count"),
    ("memory.ops", "count"),
    ("memory.s", "s"),
    ("storage.peak_table_bytes", "bytes"),
    ("storage.table_bytes_per_state", "bytes"),
    ("storage.witness_bytes", "bytes"),
    ("intern.interned_bytes", "bytes"),
    ("footprint.analysis_s", "s"),
    ("footprint.fixpoint_runs", "count"),
    ("swarm.self_s", "s"),
    ("swarm.steps_per_run", "count"),
    ("swarm.crashes_per_run", "count"),
    ("swarm.distinct_final_states", "count"),
    ("swarm.parallel_efficiency", "ratio"),
    ("swarm.seed_us.p50", "us"),
    ("swarm.seed_us.p99", "us"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "error: {e}\nusage: rc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload {
        Workload::ExploreS6B1 | Workload::ExploreMaskedS8Reduced => {
            eprintln!(
                "{}: exhaustive search, seedless (--seed {} ignored)",
                args.workload.name(),
                args.seed
            );
            if args.trace {
                explore_traced(&args, &mut report);
            } else {
                explore_untraced(&args, &mut report);
            }
        }
        Workload::SwarmTeamRcS4 => {
            // Distinct seeds sweep disjoint seed ranges.
            let seed_start = args
                .seed
                .checked_mul(SWARM_SEEDS)
                .filter(|start| start.checked_add(SWARM_SEEDS).is_some());
            let Some(seed_start) = seed_start else {
                eprintln!("error: --seed {} overflows the seed range", args.seed);
                return ExitCode::from(2);
            };
            let instance = || SwarmInstance::from_catalog("team-rc-s4", seed_start, SWARM_SEEDS);
            if args.trace {
                swarm_traced(&args, instance, &mut report);
            } else {
                swarm_untraced(&args, instance, &mut report);
            }
        }
    }
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- report

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Run-level checks that are not samples (equivalence, cache reuse).
    errors: Vec<String>,
    /// Metric name, value, and how the value was taken.
    values: Vec<(&'static str, f64, String)>,
}

impl Report {
    /// Counts one checked sample; `problem` is why it failed, if it did.
    fn sample(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            eprintln!("FAILED sample {}: {problem}", self.attempted);
            self.failed += 1;
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("FAILED check: {what}");
            self.errors.push(what);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// A metric taken as the median of `samples`.
    fn median(&mut self, name: &'static str, samples: &[f64]) {
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let how = format!("median of n={}, min {lo:.6}, max {hi:.6}", samples.len());
        self.value(name, median(samples), how);
    }

    /// A metric read once (a count, or derived from medians).
    fn value(&mut self, name: &'static str, value: f64, how: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.push((name, value, how.into()));
    }

    /// Prints every `declared` metric, one line each with its unit and how
    /// it was taken, then the JSON result line.
    fn print(&self, declared: &[(&str, &str)]) {
        for (name, ..) in &self.values {
            assert!(
                declared.iter().any(|(d, _)| d == name),
                "metric {name} is not declared for this run"
            );
        }
        let mut json = Vec::new();
        for &(name, unit) in declared {
            let (value, how) = match self.values.iter().find(|(n, ..)| *n == name) {
                Some((_, value, how)) => (*value, how.as_str()),
                None => (0.0, "not exercised by this workload"),
            };
            println!("{name:<34} {value:>18.6} {unit:<6} ({how})");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// Index of the sample whose wall time is the median (lower middle).
fn median_index(walls: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order[(walls.len() - 1) / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Whether a sample loop that has taken `taken` rounds since `started`
/// should take another: always until `least`, then only while one more
/// average-length round still fits in `--seconds`.
fn more(taken: usize, least: usize, started: Instant, args: &Args) -> bool {
    if taken < least.max(1) {
        return true;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / u32::try_from(taken).unwrap_or(u32::MAX) <= args.seconds
}

/// The untraced measurement: `SETUP_REPS` timed setups before every
/// sample (the first instance is kept; the rest only time setup, so
/// setup is sampled across the same stretch of time as the samples),
/// then one timed sample, until `--seconds` is spent. `sample` returns
/// the runs the sample completed and why it failed, if it did.
fn measure<I>(
    args: &Args,
    report: &mut Report,
    mut setup: impl FnMut(usize) -> I,
    mut sample: impl FnMut(&I) -> (f64, Option<String>),
) {
    let (mut setup_s, mut verify, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let started = Instant::now();
    while more(verify.len(), MIN_SAMPLES, started, args) {
        for _ in 0..SETUP_REPS {
            let (instance, secs) = timed(|| setup(setup_s.len()));
            setup_s.push(secs);
            kept.get_or_insert(instance);
        }
        let instance = kept.as_ref().expect("set up before the first sample");
        let ((runs, problem), secs) = timed(|| sample(instance));
        verify.push(secs);
        rate.push(runs / secs);
        report.sample(problem);
    }
    report.median("verify_s", &verify);
    report.median("runs_per_s", &rate);
    report.median("setup_s", &setup_s);
    match peak_rss_mb() {
        Some(mb) => report.value("peak_rss_mb", mb, "VmHWM of this process"),
        None => report.check(false, || "VmHWM unreadable from /proc/self/status".into()),
    }
    let passed = report.attempted - report.failed;
    let how = format!("{passed} of {} samples passed", report.attempted);
    report.value(
        "pass_ratio",
        ratio(passed as f64, report.attempted as f64),
        how,
    );
}

/// `trace.overhead_frac`: how much slower the traced samples ran.
fn overhead(report: &mut Report, traced_walls: &[f64], plain_walls: &[f64]) {
    report.value(
        "trace.overhead_frac",
        ratio(median(traced_walls), median(plain_walls)) - 1.0,
        format!(
            "median traced (n={}) / median untraced (n={}) wall - 1",
            traced_walls.len(),
            plain_walls.len()
        ),
    );
}

/// The `program.*` and `memory.*` metrics of one traced sample.
/// `states` is 0 outside exhaustive search.
fn program_metrics(report: &mut Report, s: &Totals, states: f64) {
    let how = "traced sample with the median wall time";
    let calls = |span| s.calls(span) as f64;
    report.value("program.boxed_clone.calls", calls(Span::BoxedClone), how);
    report.value("program.boxed_clone.s", s.secs(Span::BoxedClone), how);
    report.value("program.state_key.calls", calls(Span::StateKey), how);
    report.value("program.state_key.s", s.secs(Span::StateKey), how);
    report.value(
        "program.state_key.per_state",
        ratio(calls(Span::StateKey), states),
        "state_key calls / explored states",
    );
    report.value("program.rebind.calls", calls(Span::Rebind), how);
    report.value("program.rebind.s", s.secs(Span::Rebind), how);
    report.value("program.step.calls", calls(Span::Step), how);
    report.value(
        "program.step.self_s",
        s.secs(Span::Step) - s.secs(Span::Memory),
        "step span minus its memory spans",
    );
    report.value("program.on_crash.calls", calls(Span::OnCrash), how);
    report.value("memory.ops", calls(Span::Memory), how);
    report.value("memory.s", s.secs(Span::Memory), how);
}

// --------------------------------------------------------------- explore

fn explore_instance(workload: Workload, rep: usize) -> ExploreInstance {
    match workload {
        Workload::ExploreS6B1 => {
            ExploreInstance::team_rc(6, CrashModel::independent(1).after_decide(true))
        }
        _ => ExploreInstance::masked_reduced(
            8,
            CrashModel::simultaneous(1).after_decide(true),
            // A fresh id per setup, so every setup runs the analysis.
            &format!("perfbench/{}/setup-{rep}", workload.name()),
        ),
    }
}

/// Complete executions of the workload's exhaustive search: a verdict
/// invariant that every reducer must preserve.
fn expected_leaves(workload: Workload) -> usize {
    match workload {
        Workload::ExploreS6B1 => 18,
        _ => 23,
    }
}

/// The explore gate: Verified, with the workload's exact leaf count and
/// the same state count as every earlier sample of the run.
fn explore_problem(
    workload: Workload,
    outcome: &ExploreOutcome,
    states_seen: &mut Option<usize>,
) -> Option<String> {
    let ExploreOutcome::Verified { states, leaves } = *outcome else {
        return Some(format!("not Verified: {outcome:?}"));
    };
    if leaves != expected_leaves(workload) {
        return Some(format!(
            "{leaves} leaves, expected {}",
            expected_leaves(workload)
        ));
    }
    match *states_seen.get_or_insert(states) {
        first if first != states => Some(format!("{states} states, first sample had {first}")),
        _ => None,
    }
}

fn explore_untraced(args: &Args, report: &mut Report) {
    let mut states_seen = None;
    measure(
        args,
        report,
        |rep| explore_instance(args.workload, rep),
        |instance| {
            let fixpoints = analysis_fixpoint_runs();
            let (outcome, _) = instance.search(false);
            let mut problem = explore_problem(args.workload, &outcome, &mut states_seen);
            if analysis_fixpoint_runs() != fixpoints {
                problem.get_or_insert("a footprint analysis ran inside the timed sample".into());
            }
            (1.0, problem)
        },
    );
}

/// One traced search: its wall time, outcome, stats and span totals.
struct TracedSearch {
    wall: f64,
    outcome: ExploreOutcome,
    stats: ExploreStats,
    spans: Totals,
}

fn explore_traced(args: &Args, report: &mut Report) {
    let fixpoints_before_setup = analysis_fixpoint_runs();
    let instance = explore_instance(args.workload, 0);
    let fixpoint_runs = analysis_fixpoint_runs() - fixpoints_before_setup;
    let mut reference: Option<(ExploreOutcome, ExploreStats)> = None;
    let (mut plain_walls, mut traced) = (Vec::new(), Vec::<TracedSearch>::new());
    let mut states_seen = None;
    let started = Instant::now();
    // Alternate untraced and traced searches, so drift hits both alike.
    while more(plain_walls.len(), 1, started, args) {
        let ((outcome, stats), wall) = timed(|| instance.search(false));
        plain_walls.push(wall);
        let mut problem = explore_problem(args.workload, &outcome, &mut states_seen);
        let reference = reference.get_or_insert((outcome.clone(), stats));
        if (&outcome, &stats) != (&reference.0, &reference.1) {
            problem.get_or_insert(format!("stats differ between samples: {stats:?}"));
        }
        report.sample(problem);

        let before = Totals::snapshot();
        let ((outcome, stats), wall) = timed(|| instance.search(true));
        let spans = Totals::snapshot().since(&before);
        let mut problem = explore_problem(args.workload, &outcome, &mut states_seen);
        if (&outcome, &stats) != (&reference.0, &reference.1) {
            problem.get_or_insert(format!(
                "traced search differs: {outcome:?} {stats:?} vs untraced {:?} {:?}",
                reference.0, reference.1
            ));
        }
        report.sample(problem);
        traced.push(TracedSearch {
            wall,
            outcome,
            stats,
            spans,
        });
    }
    report.check(
        analysis_fixpoint_runs() == fixpoints_before_setup + fixpoint_runs,
        || "a footprint analysis ran inside a timed search".into(),
    );

    let walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    let t = &traced[median_index(&walls)];
    let (states, leaves) = match t.outcome {
        ExploreOutcome::Verified { states, leaves } => (states as f64, leaves as f64),
        _ => (0.0, 0.0),
    };
    let self_s = t.wall - t.spans.program_secs();
    let how = "traced search with the median wall time";
    report.value("explore.self_s", self_s, how);
    report.value(
        "explore.self_ns_per_state",
        ratio(self_s * 1e9, states),
        how,
    );
    report.value("explore.states", states, "Verified outcome");
    report.value("explore.leaves", leaves, "Verified outcome");
    report.value(
        "explore.accept_ratio",
        ratio(states, t.spans.calls(Span::Step) as f64),
        "states / program steps",
    );
    report.value(
        "explore.states_per_s",
        ratio(states, median(&plain_walls)),
        format!("states / median untraced wall, n={}", plain_walls.len()),
    );
    program_metrics(report, &t.spans, states);
    let stats = &t.stats;
    let how = "ExploreStats";
    report.value(
        "storage.peak_table_bytes",
        stats.peak_table_bytes as f64,
        how,
    );
    report.value(
        "storage.table_bytes_per_state",
        ratio(stats.table_bytes as f64, states),
        how,
    );
    report.value("storage.witness_bytes", stats.witness_bytes as f64, how);
    report.value("intern.interned_bytes", stats.interned_bytes as f64, how);
    if fixpoint_runs > 0 {
        report.value(
            "footprint.analysis_s",
            instance.analysis_s,
            "system_analysis_cached in setup",
        );
        report.value(
            "footprint.fixpoint_runs",
            fixpoint_runs as f64,
            "analysis_fixpoint_runs() delta over setup",
        );
    }
    overhead(report, &walls, &plain_walls);
}

// ----------------------------------------------------------------- swarm

/// The swarm gate: every seed ran, none violated, and the deterministic
/// summary matches the run's first sweep (and, on the default seed, the
/// pinned summary).
fn swarm_problem(args: &Args, sweep: &SwarmReport, first: &mut Option<String>) -> Option<String> {
    let summary = sweep.deterministic_summary();
    if sweep.runs != SWARM_SEEDS {
        return Some(format!("{} runs, expected {SWARM_SEEDS}", sweep.runs));
    }
    if !sweep.violations.is_empty() {
        return Some(format!("violations: {summary}"));
    }
    if args.seed == DEFAULT_SEED && summary != DEFAULT_SEED_SUMMARY {
        return Some(format!(
            "summary `{summary}`, pinned `{DEFAULT_SEED_SUMMARY}`"
        ));
    }
    match first.get_or_insert_with(|| summary.clone()) {
        seen if *seen != summary => Some(format!("summary `{summary}`, first sweep `{seen}`")),
        _ => None,
    }
}

fn swarm_untraced(args: &Args, instance: impl Fn() -> SwarmInstance, report: &mut Report) {
    let mut first = None;
    measure(
        args,
        report,
        |_| instance(),
        |instance| {
            let sweep = instance.sweep(SWARM_THREADS, false);
            (sweep.runs as f64, swarm_problem(args, &sweep, &mut first))
        },
    );
}

fn swarm_traced(args: &Args, instance: impl Fn() -> SwarmInstance, report: &mut Report) {
    let instance = instance();
    let mut first = None;
    let (mut plain, mut single, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    // Every sweep of a round must give the same summary: 1-thread,
    // 2-thread and traced alike.
    while more(plain.len(), 1, started, args) {
        let (two, wall) = timed(|| instance.sweep(SWARM_THREADS, false));
        plain.push(wall);
        report.sample(swarm_problem(args, &two, &mut first));

        let (one, wall) = timed(|| instance.sweep(1, false));
        single.push(wall);
        report.sample(swarm_problem(args, &one, &mut first));

        let before = Totals::snapshot();
        let (two, wall) = timed(|| instance.sweep(SWARM_THREADS, true));
        let spans = Totals::snapshot().since(&before);
        report.sample(swarm_problem(args, &two, &mut first));
        traced.push((wall, spans, two));
    }

    let mut seed_us = Vec::new();
    let seeds = instance.config.seed_start..instance.config.seed_start + REPLAY_SEEDS;
    for seed in seeds {
        let (run, secs) = timed(|| instance.replay(seed));
        seed_us.push(secs * 1e6);
        report.check(run.verdict.is_ok(), || {
            format!("replay of seed {seed}: {:?}", run.verdict)
        });
    }

    let walls: Vec<f64> = traced.iter().map(|t| t.0).collect();
    let (wall, spans, sweep) = &traced[median_index(&walls)];
    program_metrics(report, spans, 0.0);
    let runs = sweep.runs as f64;
    report.value(
        "swarm.self_s",
        SWARM_THREADS as f64 * wall - spans.program_secs(),
        "threads x traced wall - program spans",
    );
    report.value(
        "swarm.steps_per_run",
        ratio(sweep.total_steps as f64, runs),
        "SwarmReport",
    );
    report.value(
        "swarm.crashes_per_run",
        ratio(sweep.total_crashes as f64, runs),
        "SwarmReport",
    );
    report.value(
        "swarm.distinct_final_states",
        sweep.distinct_final_states as f64,
        "SwarmReport",
    );
    report.value(
        "swarm.parallel_efficiency",
        ratio(median(&single), SWARM_THREADS as f64 * median(&plain)),
        format!(
            "{SWARM_THREADS}-thread runs/s over {SWARM_THREADS} x 1-thread runs/s, medians of n={}",
            plain.len()
        ),
    );
    let how = format!("replay_seed, n={REPLAY_SEEDS}");
    report.value("swarm.seed_us.p50", percentile(&seed_us, 50.0), &how);
    report.value("swarm.seed_us.p99", percentile(&seed_us, 99.0), how);
    overhead(report, &walls, &plain);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_checked() {
        let a = args("--workload swarm-team-rc-s4 --seed 7 --seconds 1.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SwarmTeamRcS4);
        assert_eq!((a.seed, a.trace), (7, true));
        assert_eq!(a.seconds, Duration::from_millis(1500));
        assert!(args("--seed 1").is_err(), "workload required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload explore-s6-b1 --trace 2").is_err());
        assert!(args("--workload explore-s6-b1 --seconds -1").is_err());
        assert!(args("--workload explore-s6-b1 --seed").is_err());
        assert!(args("--workload explore-s6-b1 --bogus 1").is_err());
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_index(&[3.0, 1.0, 2.0, 5.0]), 2);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
    }

    /// The metric tables match `BENCHMARK.json` name for name and unit
    /// for unit, in order.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            let section = &json[json.find(&format!("\"{key}\"")).expect(key)..];
            let section = &section[..section.find(']').expect("section end")];
            section
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }
}
