//! The explore sweep matrix behind E11–E17: one row type, one
//! measurement policy, one invariant check and one table renderer.
//!
//! An experiment declares its sweep as data — a list of `Instance`s,
//! each a system construction × crash model × state cap running a list
//! of `Run`s (a reduction `Mode` × a storage layout — resident, spilling
//! or byte-capped — optionally under a lower baseline cap), plus the
//! `Expect`ations it asserts beyond the shared invariants. `run_sweep`
//! measures every run into an [`ExploreRow`] and checks the instance;
//! `render` prints the rows under the experiment's own column list.

use crate::exp::{sn_witness, team_inputs};
use crate::snapshot::{Json, JsonRow};
use crate::table::Table;
use rc_core::algorithms::{
    build_masked_team_rc_system, build_masked_team_rc_system_sym, build_simultaneous_rc_system,
    build_simultaneous_rc_system_sym, build_team_rc_system, build_team_rc_system_sym,
    ConsensusObjectFactory,
};
use rc_core::RecordingWitness;
use rc_runtime::{
    explore_symmetric_with_stats, explore_with_stats, CrashModel, ExploreConfig, ExploreOutcome,
    ExploreStats, Memory, Program, SymmetrySpec,
};
use rc_spec::{TypeHandle, Value};
use std::time::{Duration, Instant};

/// A system construction the sweeps check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum System {
    /// Fig. 2 team RC over `S_n` with the E2 witness and team inputs.
    Fig2 {
        /// Process count.
        n: usize,
    },
    /// The input-masked Fig. 2 team-RC system over `S_n` (per-process
    /// mask registers, the introduction's transformation).
    MaskedFig2 {
        /// Process count.
        n: usize,
    },
    /// Fig. 4 `SimultaneousRc` over atomic consensus objects (domain 4).
    Fig4 {
        /// One input per process.
        inputs: Vec<i64>,
        /// Round horizon.
        horizon: usize,
    },
}

/// Builds a system: the plain construction (`false`) or the one carrying
/// its symmetry declaration (`true`).
type Build = Box<dyn Fn(bool) -> (Memory, Vec<Box<dyn Program>>, Option<SymmetrySpec>)>;

impl System {
    /// Fig. 4 with these inputs at the 4-round horizon every sweep uses.
    pub(crate) fn fig4(inputs: &[i64]) -> System {
        System::Fig4 {
            inputs: inputs.to_vec(),
            horizon: 4,
        }
    }

    /// The footprint-analysis cache key: one per construction (builder,
    /// size, inputs, horizon), so every experiment checking the same
    /// system shares one cached analysis and scalarset certificate.
    pub(crate) fn analysis_id(&self) -> String {
        match self {
            System::Fig2 { n } => format!("bench/team-rc/S_{n}"),
            System::MaskedFig2 { n } => format!("bench/masked-team-rc/S_{n}"),
            System::Fig4 { inputs, horizon } => {
                format!("bench/simultaneous-rc/inputs{inputs:?}-h{horizon}")
            }
        }
    }

    /// The default row label (`S_n`, `masked S_n`, `SimultaneousRc n=k`).
    fn label(&self) -> String {
        match self {
            System::Fig2 { n } => format!("S_{n}"),
            System::MaskedFig2 { n } => format!("masked S_{n}"),
            System::Fig4 { inputs, .. } => format!("SimultaneousRc n={}", inputs.len()),
        }
    }

    /// The declared inputs and the builder. The `S_n` witness is computed
    /// here once, outside every timed run.
    pub(crate) fn prepare(&self) -> (Vec<Value>, Build) {
        type Plain = fn(TypeHandle, &RecordingWitness, &[Value]) -> (Memory, Vec<Box<dyn Program>>);
        type Declared = fn(
            TypeHandle,
            &RecordingWitness,
            &[Value],
        ) -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec);
        let (n, plain, declared): (usize, Plain, Declared) = match self {
            System::Fig2 { n } => (*n, build_team_rc_system, build_team_rc_system_sym),
            System::MaskedFig2 { n } => (
                *n,
                build_masked_team_rc_system,
                build_masked_team_rc_system_sym,
            ),
            System::Fig4 { inputs, horizon } => {
                let (inputs, horizon): (Vec<Value>, _) =
                    (inputs.iter().map(|&v| Value::Int(v)).collect(), *horizon);
                let build_inputs = inputs.clone();
                let factory = ConsensusObjectFactory { domain: 4 };
                let build: Build = Box::new(move |declared| {
                    if declared {
                        let (mem, programs, spec) =
                            build_simultaneous_rc_system_sym(&factory, &build_inputs, horizon);
                        return (mem, programs, Some(spec));
                    }
                    let (mem, programs) =
                        build_simultaneous_rc_system(&factory, &build_inputs, horizon);
                    (mem, programs, None)
                });
                return (inputs, build);
            }
        };
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let build_inputs = inputs.clone();
        let build: Build = Box::new(move |with_spec| {
            if with_spec {
                let (mem, programs, spec) = declared(ty.clone(), &w, &build_inputs);
                return (mem, programs, Some(spec));
            }
            let (mem, programs) = plain(ty.clone(), &w, &build_inputs);
            (mem, programs, None)
        });
        (inputs, build)
    }
}

/// Which symmetry declaration a mode searches under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sym {
    /// The plain search ([`explore_with_stats`]).
    None,
    /// Singleton orbits ([`SymmetrySpec::trivial`]): the strongest
    /// slots-only declaration that is sound on the masked systems.
    Trivial,
    /// The system's own declaration (orbits, owned cells, scalarsets).
    Declared,
}

/// A reduction mode: the row label, the symmetry declaration and whether
/// partial-order reduction runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mode {
    /// The row's `mode` value.
    pub(crate) label: &'static str,
    sym: Sym,
    por: bool,
}

impl Mode {
    const fn new(label: &'static str, sym: Sym, por: bool) -> Mode {
        Mode { label, sym, por }
    }

    /// Whether the mode reduces nothing (the reference for reductions).
    fn is_unreduced(self) -> bool {
        self.sym == Sym::None && !self.por
    }
}

/// The plain search.
pub(crate) const OFF: Mode = Mode::new("off", Sym::None, false);
/// The plain search, labelled as E16 labels it.
pub(crate) const UNREDUCED: Mode = Mode::new("unreduced", Sym::None, false);
/// Singleton orbits — byte-identical to off on the masked systems.
pub(crate) const SLOTS: Mode = Mode::new("slots", Sym::Trivial, false);
/// The system's declaration under the `slots` label: Fig. 4 with
/// all-distinct inputs, where the scalarset family is inert.
pub(crate) const SLOTS_DECLARED: Mode = Mode::new("slots", Sym::Declared, false);
/// Process symmetry over the team orbits (E12).
pub(crate) const ON: Mode = Mode::new("on", Sym::Declared, false);
/// Owned-cell symmetry via `Program::rebind`.
pub(crate) const REBIND: Mode = Mode::new("rebind", Sym::Declared, false);
/// The certified scalarset family permuting with the process orbits.
pub(crate) const SCALARSET: Mode = Mode::new("scalarset", Sym::Declared, false);
/// Partial-order reduction alone.
pub(crate) const POR: Mode = Mode::new("por", Sym::None, true);
/// POR composed with rebind symmetry.
pub(crate) const POR_REBIND: Mode = Mode::new("por+rebind", Sym::Declared, true);
/// POR composed with scalarset symmetry.
pub(crate) const SCALARSET_POR: Mode = Mode::new("scalarset+por", Sym::Declared, true);

/// One search of an instance: a mode on a storage layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    /// The reduction mode.
    pub(crate) mode: Mode,
    /// Spill the visited set at this many resident bytes
    /// (`ExploreConfig::spill_threshold`); `None` keeps it in RAM.
    pub(crate) spill: Option<usize>,
    /// The `ExploreConfig::max_bytes` cap.
    pub(crate) max_bytes: Option<usize>,
    /// A baseline cap below the instance's: the run must truncate at
    /// exactly this many states, and the instance's uncapped runs of the
    /// same mode must exceed it.
    pub(crate) baseline_cap: Option<usize>,
}

impl Run {
    /// A resident run at the instance's cap.
    pub(crate) fn of(mode: Mode) -> Run {
        Run {
            mode,
            spill: None,
            max_bytes: None,
            baseline_cap: None,
        }
    }

    /// The same run, spilling at `threshold` resident bytes.
    pub(crate) fn spill(self, threshold: usize) -> Run {
        Run {
            spill: Some(threshold),
            ..self
        }
    }

    /// The same run under a `max_bytes` cap.
    pub(crate) fn byte_cap(self, max_bytes: usize) -> Run {
        Run {
            max_bytes: Some(max_bytes),
            ..self
        }
    }

    /// The same run under a baseline cap.
    pub(crate) fn baseline(self, cap: usize) -> Run {
        Run {
            baseline_cap: Some(cap),
            ..self
        }
    }
}

/// An assertion an experiment makes about one instance, beyond the
/// shared invariants [`run_sweep`] always checks.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Expect {
    /// Every run (baseline runs aside) verifies.
    AllVerify,
    /// Runs of this mode verify.
    Verifies(Mode),
    /// Runs of this mode truncate.
    Truncates(Mode),
    /// The first mode visits strictly fewer states than the second —
    /// vacuous when both truncated at the cap.
    Fewer(Mode, Mode),
    /// Both modes report the same verdict, states and leaves.
    Same(Mode, Mode),
    /// Every run (baseline runs aside) counts this many weighted leaves.
    Leaves(usize),
    /// Every spilling run of this mode froze entries to disk.
    Spills(Mode),
}

/// A system × crash model × cap, and the runs and expectations on it.
#[derive(Clone, Debug)]
pub(crate) struct Instance {
    /// The construction under check.
    pub(crate) system: System,
    /// The row label.
    pub(crate) label: String,
    /// The crash adversary.
    pub(crate) crash: CrashModel,
    /// The `max_states` cap of every run without a baseline cap.
    pub(crate) cap: usize,
    /// The searches, in row order.
    pub(crate) runs: Vec<Run>,
    /// The experiment's own assertions.
    pub(crate) expect: Vec<Expect>,
}

impl Instance {
    /// An instance under `budget` independent crashes (post-decide
    /// crashes on), at the default 5M-state cap, with no runs yet.
    pub(crate) fn independent(system: System, budget: usize) -> Instance {
        Instance::new(system, CrashModel::independent(budget).after_decide(true))
    }

    /// [`Instance::independent`] under simultaneous (CrashAll) crashes.
    pub(crate) fn simultaneous(system: System, budget: usize) -> Instance {
        Instance::new(system, CrashModel::simultaneous(budget).after_decide(true))
    }

    fn new(system: System, crash: CrashModel) -> Instance {
        Instance {
            label: system.label(),
            system,
            crash,
            cap: ExploreConfig::default().max_states,
            runs: Vec::new(),
            expect: Vec::new(),
        }
    }

    /// Overrides the row label.
    pub(crate) fn label(mut self, label: String) -> Instance {
        self.label = label;
        self
    }

    /// Overrides the state cap.
    pub(crate) fn cap(mut self, cap: usize) -> Instance {
        self.cap = cap;
        self
    }

    /// Adds one resident run per mode.
    pub(crate) fn modes(mut self, modes: &[Mode]) -> Instance {
        self.runs.extend(modes.iter().map(|&m| Run::of(m)));
        self
    }

    /// Adds runs.
    pub(crate) fn runs(mut self, runs: &[Run]) -> Instance {
        self.runs.extend_from_slice(runs);
        self
    }

    /// Adds expectations.
    pub(crate) fn expect(mut self, expect: &[Expect]) -> Instance {
        self.expect.extend_from_slice(expect);
        self
    }
}

/// One measured run of an E11–E17 sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreRow {
    /// The instance label, e.g. `"S_3"` or `"masked S_5 (CrashAll)"`.
    pub system: String,
    /// Crash budget of the adversary.
    pub crash_budget: usize,
    /// The `max_states` cap the run ran under.
    pub max_states: usize,
    /// The reduction mode (`off`, `on`, `slots`, `rebind`, `scalarset`,
    /// `por`, `por+rebind`, `scalarset+por`, or E16's `unreduced`).
    pub mode: &'static str,
    /// Visited-set layout: `packed` (resident) or `packed+spill`.
    pub tier: &'static str,
    /// The `max_bytes` cap (0 = uncapped).
    pub max_bytes: usize,
    /// `Verified` or `Truncated` (a violation panics the sweep).
    pub verdict: &'static str,
    /// Distinct states visited (canonical representatives under
    /// symmetry, sleep-annotated under POR).
    pub states: usize,
    /// Weighted complete executions enumerated (0 when truncated).
    pub leaves: usize,
    /// `states(reference) / states(this row)`, the reference being the
    /// instance's first uncapped unreduced run.
    pub reduction: f64,
    /// Whether `reduction` is a lower bound (the reference truncated).
    pub reduction_is_lower_bound: bool,
    /// Peak resident visited-set bytes ([`ExploreStats::peak_table_bytes`]).
    pub peak_table_bytes: usize,
    /// Bytes frozen into spill runs.
    pub spilled_bytes: usize,
    /// Bytes held by the compacted witness log.
    pub witness_bytes: usize,
    /// Median wall-clock milliseconds per run (machine-dependent).
    pub millis: f64,
    /// Runs behind the median.
    pub samples: usize,
    /// `states / median seconds` (machine-dependent).
    pub states_per_sec: f64,
}

impl JsonRow for ExploreRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("system", Json::Str(self.system.clone())),
            ("crash_budget", Json::Int(self.crash_budget as u64)),
            ("max_states", Json::Int(self.max_states as u64)),
            ("mode", Json::Str(self.mode.into())),
            ("tier", Json::Str(self.tier.into())),
            ("max_bytes", Json::Int(self.max_bytes as u64)),
            ("verdict", Json::Str(self.verdict.into())),
            ("states", Json::Int(self.states as u64)),
            ("leaves", Json::Int(self.leaves as u64)),
            ("reduction", Json::Num(self.reduction, 1)),
            (
                "reduction_is_lower_bound",
                Json::Bool(self.reduction_is_lower_bound),
            ),
            ("peak_table_bytes", Json::Int(self.peak_table_bytes as u64)),
            ("spilled_bytes", Json::Int(self.spilled_bytes as u64)),
            ("witness_bytes", Json::Int(self.witness_bytes as u64)),
            ("millis", Json::Num(self.millis, 1)),
            ("samples", Json::Int(self.samples as u64)),
            ("states_per_sec", Json::Num(self.states_per_sec, 0)),
        ]
    }
}

/// The timing policy: repeat a search until the samples total at least
/// this long or [`MAX_SAMPLES`] runs; record the median. A cap-scale
/// search therefore runs once.
const MIN_TOTAL: Duration = Duration::from_millis(200);
/// See [`MIN_TOTAL`].
const MAX_SAMPLES: usize = 30;

/// Runs `search` under the timing policy; returns its (deterministic)
/// result, the median seconds and the sample count.
fn measure(
    search: &dyn Fn() -> (ExploreOutcome, ExploreStats),
) -> (ExploreOutcome, ExploreStats, f64, usize) {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let start = Instant::now();
        let (outcome, stats) = search();
        let elapsed = start.elapsed();
        times.push(elapsed.as_secs_f64());
        total += elapsed;
        if total >= MIN_TOTAL || times.len() >= MAX_SAMPLES {
            times.sort_by(f64::total_cmp);
            let n = times.len();
            let median = (times[(n - 1) / 2] + times[n / 2]) / 2.0;
            return (outcome, stats, median, n);
        }
    }
}

/// Measures one run of `inst` into a row (reduction still 1.0).
fn measure_run(
    experiment: &str,
    inst: &Instance,
    inputs: &[Value],
    build: &Build,
    run: &Run,
) -> ExploreRow {
    let config = ExploreConfig {
        crash: inst.crash,
        inputs: Some(inputs.to_vec()),
        max_states: run.baseline_cap.unwrap_or(inst.cap),
        por: run.mode.por,
        analysis_id: Some(inst.system.analysis_id()),
        max_bytes: run.max_bytes,
        spill_threshold: run.spill,
        ..ExploreConfig::default()
    };
    let search = || {
        if run.mode.sym == Sym::None {
            let plain = || {
                let (mem, programs, _) = build(false);
                (mem, programs)
            };
            return explore_with_stats(&plain, &config);
        }
        let symmetric = || {
            let (mem, programs, spec) = build(run.mode.sym == Sym::Declared);
            let spec = spec.unwrap_or_else(|| SymmetrySpec::trivial(programs.len()));
            (mem, programs, spec)
        };
        explore_symmetric_with_stats(&symmetric, &config)
    };
    let (outcome, stats, seconds, samples) = measure(&search);
    let (verdict, states, leaves) = match outcome {
        ExploreOutcome::Verified { states, leaves } => ("Verified", states, leaves),
        ExploreOutcome::Truncated { states } => ("Truncated", states, 0),
        ExploreOutcome::Violation { schedule, .. } => panic!(
            "{experiment} systems are correct; {} {} violates after {} actions",
            inst.label,
            run.mode.label,
            schedule.len()
        ),
    };
    ExploreRow {
        system: inst.label.clone(),
        crash_budget: inst.crash.budget,
        max_states: config.max_states,
        mode: run.mode.label,
        tier: if run.spill.is_some() {
            "packed+spill"
        } else {
            "packed"
        },
        max_bytes: run.max_bytes.unwrap_or(0),
        verdict,
        states,
        leaves,
        reduction: 1.0,
        reduction_is_lower_bound: false,
        peak_table_bytes: stats.peak_table_bytes,
        spilled_bytes: stats.spilled_bytes,
        witness_bytes: stats.witness_bytes,
        millis: seconds * 1e3,
        samples,
        states_per_sec: states as f64 / seconds.max(1e-9),
    }
}

/// Measures every run of every instance, fills in the reductions and
/// asserts the shared invariants and each instance's expectations.
///
/// # Panics
///
/// On a violation, or when an invariant or expectation fails.
pub(crate) fn run_sweep(experiment: &str, instances: &[Instance]) -> Vec<ExploreRow> {
    let mut rows = Vec::new();
    for inst in instances {
        let (inputs, build) = inst.system.prepare();
        let mut inst_rows: Vec<ExploreRow> = inst
            .runs
            .iter()
            .map(|run| measure_run(experiment, inst, &inputs, &build, run))
            .collect();
        check_instance(experiment, inst, &mut inst_rows);
        rows.append(&mut inst_rows);
    }
    rows
}

/// The shared invariants, then the instance's expectations:
///
/// * a baseline run truncates at exactly its cap, and the uncapped runs
///   of its mode exceed that cap;
/// * runs of one mode agree on verdict, states and leaves whatever the
///   storage layout;
/// * when the reference (the first uncapped unreduced run) verifies,
///   every uncapped run verifies with the same weighted leaves; when it
///   truncates, reductions against it are lower bounds.
///
/// State counts are *not* asserted monotone in general: under POR the
/// sleep mask is part of node identity, so a reduced search can visit
/// more states than the plain one (E15's independent budget-1 rows).
/// Strict reductions are declared per instance ([`Expect::Fewer`]).
fn check_instance(experiment: &str, inst: &Instance, rows: &mut [ExploreRow]) {
    let at = |mode: &str| format!("{experiment} {}/{} {mode}", inst.label, inst.crash.budget);
    let (baseline, uncapped): (Vec<usize>, Vec<usize>) =
        (0..rows.len()).partition(|&i| inst.runs[i].baseline_cap.is_some());
    for &i in &baseline {
        let (r, cap) = (&rows[i], inst.runs[i].baseline_cap.expect("a baseline run"));
        assert_eq!(
            (r.verdict, r.states),
            ("Truncated", cap),
            "{}: the baseline cap must truncate at exactly the cap",
            at(r.mode)
        );
        for &j in uncapped.iter().filter(|&&j| rows[j].mode == r.mode) {
            assert!(
                rows[j].states > cap,
                "{}: must exceed the baseline cap",
                at(r.mode)
            );
        }
    }
    for &i in &uncapped {
        let first = &rows[*uncapped
            .iter()
            .find(|&&j| rows[j].mode == rows[i].mode)
            .expect("row i matches itself")];
        assert_eq!(
            (rows[i].verdict, rows[i].states, rows[i].leaves),
            (first.verdict, first.states, first.leaves),
            "{}: outcomes must be identical across storage layouts",
            at(rows[i].mode)
        );
    }
    let reference = *uncapped
        .iter()
        .find(|&&i| inst.runs[i].mode.is_unreduced())
        .unwrap_or_else(|| panic!("{}: no unreduced reference run", at("")));
    let reference = rows[reference].clone();
    let verified = reference.verdict == "Verified";
    for &i in &uncapped {
        let r = &mut rows[i];
        if verified {
            assert_eq!(
                (r.verdict, r.leaves),
                ("Verified", reference.leaves),
                "{}: must verify with the reference's weighted leaves",
                at(r.mode)
            );
        }
        r.reduction = reference.states as f64 / r.states as f64;
        r.reduction_is_lower_bound = !verified && r.mode != reference.mode;
    }
    let all = || uncapped.iter().map(|&i| &rows[i]);
    let of = |mode: Mode| {
        all()
            .find(|r| r.mode == mode.label)
            .unwrap_or_else(|| panic!("{}: expectation names a mode not run", at(mode.label)))
    };
    for expect in &inst.expect {
        match *expect {
            Expect::AllVerify => {
                for r in all() {
                    assert_eq!(r.verdict, "Verified", "{}: must verify", at(r.mode));
                }
            }
            Expect::Verifies(mode) => {
                assert_eq!(
                    of(mode).verdict,
                    "Verified",
                    "{}: must verify",
                    at(mode.label)
                );
            }
            Expect::Truncates(mode) => {
                let verdict = of(mode).verdict;
                assert_eq!(
                    verdict,
                    "Truncated",
                    "{}: must exceed the cap",
                    at(mode.label)
                );
            }
            Expect::Fewer(reduced, than) => {
                let (a, b) = (of(reduced), of(than));
                assert!(
                    a.states < b.states || (a.verdict, b.verdict) == ("Truncated", "Truncated"),
                    "{}: must visit fewer states than {} ({} vs {})",
                    at(reduced.label),
                    than.label,
                    a.states,
                    b.states
                );
            }
            Expect::Same(a, b) => {
                let (a_row, b_row) = (of(a), of(b));
                assert_eq!(
                    (a_row.verdict, a_row.states, a_row.leaves),
                    (b_row.verdict, b_row.states, b_row.leaves),
                    "{}: must equal {}",
                    at(a.label),
                    b.label
                );
            }
            Expect::Leaves(leaves) => {
                for r in all() {
                    assert_eq!(r.leaves, leaves, "{}: weighted leaves", at(r.mode));
                }
            }
            Expect::Spills(mode) => {
                for r in all().filter(|r| r.mode == mode.label && r.tier == "packed+spill") {
                    assert!(r.spilled_bytes > 0, "{}: must freeze runs", at(r.mode));
                }
            }
        }
    }
}

/// One table column: its header and how a row renders in it.
#[derive(Clone, Copy)]
pub(crate) struct Column {
    /// The header.
    pub(crate) header: &'static str,
    /// The cell of one row.
    pub(crate) cell: fn(&ExploreRow) -> String,
}

pub(crate) const fn col(header: &'static str, cell: fn(&ExploreRow) -> String) -> Column {
    Column { header, cell }
}

fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// The instance label.
pub(crate) const SYSTEM: Column = col("system", |r| r.system.clone());
/// The crash budget.
pub(crate) const CRASH_BUDGET: Column = col("crash budget", |r| r.crash_budget.to_string());
/// The state cap.
pub(crate) const CAP: Column = col("cap", |r| r.max_states.to_string());
/// The reduction mode.
pub(crate) const MODE: Column = col("mode", |r| r.mode.to_string());
/// The storage layout.
pub(crate) const TIER: Column = col("tier", |r| r.tier.to_string());
/// The byte cap, in MiB (`—` when uncapped).
pub(crate) const BYTE_CAP: Column = col("byte cap", |r| match r.max_bytes {
    0 => "—".into(),
    bytes => format!("{}M", bytes >> 20),
});
/// The verdict.
pub(crate) const VERDICT: Column = col("verdict", |r| r.verdict.to_string());
/// Distinct states.
pub(crate) const STATES: Column = col("states", |r| r.states.to_string());
/// Weighted leaves.
pub(crate) const LEAVES: Column = col("leaves", |r| r.leaves.to_string());
/// Median milliseconds.
pub(crate) const MS: Column = col("ms", |r| format!("{:.1}", r.millis));
/// States per second.
pub(crate) const RATE: Column = col("states/sec", |r| format!("{:.0}", r.states_per_sec));
/// The reduction against the reference, `≥` when a lower bound.
pub(crate) const REDUCTION: Column = col("reduction", |r| {
    let bound = if r.reduction_is_lower_bound {
        "≥"
    } else {
        ""
    };
    format!("{bound}{:.1}×", r.reduction)
});
/// Peak resident visited-set MiB.
pub(crate) const PEAK_MB: Column = col("peak MB", |r| mib(r.peak_table_bytes));
/// Spilled MiB.
pub(crate) const SPILL_MB: Column = col("spill MB", |r| mib(r.spilled_bytes));
/// Witness-log MiB.
pub(crate) const WITNESS_MB: Column = col("wit MB", |r| mib(r.witness_bytes));

/// Renders `rows` under `columns`.
pub(crate) fn render(rows: &[ExploreRow], columns: &[Column]) -> String {
    let headers: Vec<&str> = columns.iter().map(|c| c.header).collect();
    let mut t = Table::new(&headers);
    for r in rows {
        t.row(&columns.iter().map(|c| (c.cell)(r)).collect::<Vec<_>>());
    }
    t.render()
}

/// The verified row of `mode` with the largest reduction (the first on
/// ties), as `"[≥]R× on SYSTEM/budget-B"`.
///
/// # Panics
///
/// If no verified row of `mode` exists.
pub(crate) fn largest_reduction(rows: &[ExploreRow], mode: Mode) -> String {
    let best = rows
        .iter()
        .filter(|r| r.mode == mode.label && r.verdict == "Verified")
        .fold(None::<&ExploreRow>, |best, r| match best {
            Some(b) if b.reduction >= r.reduction => Some(b),
            _ => Some(r),
        })
        .unwrap_or_else(|| panic!("no verified {} row", mode.label));
    format!(
        "{}{:.1}× on {}/budget-{}",
        if best.reduction_is_lower_bound {
            "≥"
        } else {
            ""
        },
        best.reduction,
        best.system,
        best.crash_budget
    )
}
