//! The model checker end to end: agreement with an independent, naive
//! reference explorer (`support/reference.rs`) on the real Fig. 2,
//! masked, broken-guard and Fig. 4 systems — verdicts and leaf counts
//! under every reduction, exact state counts for the unreduced search,
//! and every reported violation schedule replaying in the reference —
//! plus exact `max_states` / `max_bytes` truncation boundaries, the
//! unified [`CrashModel`] semantics, process-symmetry reduction
//! (identical verdicts and leaf counts with symmetry on vs off,
//! replayable un-permuted witnesses), spilling that leaves outcomes
//! unchanged, and regressions for the crash-adversary bugs the engine
//! rebuilds fixed (post-decide `CrashAll` handling, the state-cap
//! off-by-one).
//!
//! CI runs this suite under `EXPLORE_TEST_SYMMETRY` ∈ {on, off, rebind,
//! scalarset} × `EXPLORE_TEST_POR` ∈ {on, off} (see
//! `.github/workflows/ci.yml`); `rebind` exercises the full-state mode —
//! input-masked systems whose per-process mask registers permute with
//! their owners under `Program::rebind` — `scalarset` exercises the
//! certified-family mode on the Fig. 4 `SimultaneousRc` system (whose
//! per-round announcement registers permute as a scalarset with the
//! process slots), and the POR axis reruns the same matrix with the
//! persistent-set + sleep-set reduction switched on (identical verdicts
//! and weighted leaf counts; state counts are the reduction and
//! legitimately differ).

#[path = "support/reference.rs"]
mod reference;

use rc_core::algorithms::{
    build_broken_team_rc_system, build_broken_team_rc_system_sym,
    build_masked_broken_team_rc_system, build_masked_broken_team_rc_system_sym,
    build_masked_team_rc_system, build_masked_team_rc_system_sym, build_simultaneous_rc_system,
    build_simultaneous_rc_system_sym, build_team_rc_system, build_team_rc_system_sym,
    ConsensusObjectFactory,
};
use rc_core::{check_recording, find_recording_witness, Assignment, RecordingWitness, Team};
use rc_runtime::sched::{
    Action, RandomScheduler, RandomSchedulerConfig, SchedContext, Scheduler, ScriptedScheduler,
};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    explore, explore_symmetric, explore_symmetric_with_stats, explore_with_stats, run, CrashModel,
    ExploreConfig, ExploreOutcome, MemOps, Memory, Program, RunOptions, Step, SymmetrySpec,
};
use rc_spec::types::{Cas, Sn};
use rc_spec::{TypeHandle, Value};
use reference::{explore_reference, replay_violation, RefOutcome};
use std::sync::Arc;

/// A symmetry mode of the equivalence matrix: plain search, slots-only
/// orbits (PR 4's reduction), full-state rebind (owned mask registers
/// permuting with their owners on the input-masked systems) or the
/// certified-scalarset mode (declared register families permuting with
/// the process slots on the Fig. 4 `SimultaneousRc` system).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SymMode {
    Off,
    Slots,
    Rebind,
    Scalarset,
}

/// Which symmetry modes the equivalence tests exercise: all four by
/// default; the CI matrix narrows to one via `EXPLORE_TEST_SYMMETRY` ∈
/// {`on`, `off`, `rebind`, `scalarset`} (`on` is the slots-only mode,
/// keeping the matrix value PR 4 introduced). Anything else fails
/// loudly.
fn symmetry_modes() -> Vec<SymMode> {
    match std::env::var("EXPLORE_TEST_SYMMETRY") {
        Err(_) => vec![
            SymMode::Off,
            SymMode::Slots,
            SymMode::Rebind,
            SymMode::Scalarset,
        ],
        Ok(raw) => match raw.trim() {
            "on" => vec![SymMode::Slots],
            "off" => vec![SymMode::Off],
            "rebind" => vec![SymMode::Rebind],
            "scalarset" => vec![SymMode::Scalarset],
            other => {
                panic!(
                    "EXPLORE_TEST_SYMMETRY must be `on`, `off`, `rebind` or \
                     `scalarset`, got {other:?}"
                )
            }
        },
    }
}

/// Whether the equivalence tests run the partial-order-reduced search,
/// the unreduced one, or (the default) both; the CI matrix narrows to
/// one via `EXPLORE_TEST_POR` ∈ {`on`, `off`}. Anything else fails
/// loudly, like the other matrix knobs.
fn por_modes() -> Vec<bool> {
    match std::env::var("EXPLORE_TEST_POR") {
        Err(_) => vec![false, true],
        Ok(raw) => match raw.trim() {
            "on" => vec![true],
            "off" => vec![false],
            other => panic!("EXPLORE_TEST_POR must be `on` or `off`, got {other:?}"),
        },
    }
}

/// `base` with the sleep-set POR engine switched on. The `analysis_id`
/// shares one cached footprint analysis per *system* across every
/// budget/mode/thread combination a test runs (the analysis only
/// depends on the built system, never on the crash model or engine), so
/// the doubled matrix does not recompute the fixpoint per config.
fn por_config(base: &ExploreConfig, analysis_id: String) -> ExploreConfig {
    ExploreConfig {
        por: true,
        analysis_id: Some(analysis_id),
        ..base.clone()
    }
}

fn sn_system(n: usize) -> (TypeHandle, RecordingWitness, Vec<Value>) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    let inputs: Vec<Value> = w
        .assignment
        .teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect();
    (Arc::new(sn), w, inputs)
}

/// A process-symmetric system builder: the memory, the programs and
/// which process ids are interchangeable.
type SymmetricFactory<'a> = dyn Fn() -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) + 'a;

/// Checks one `explore` outcome against the reference's: the same
/// verdict; on `Verified`, the same leaf count — and the same state
/// count when `exact_states` (the unreduced search, whose states are
/// the reference's); on `Violation`, the engine's schedule replays in
/// the reference on the plain system to the same kind of violation.
fn assert_agrees(
    outcome: &ExploreOutcome,
    expected: &RefOutcome,
    plain: &dyn Fn() -> (Memory, Vec<Box<dyn Program>>),
    config: &ExploreConfig,
    exact_states: bool,
    what: &str,
) {
    match (outcome, expected) {
        (
            ExploreOutcome::Verified { states, leaves },
            RefOutcome::Verified {
                states: ref_states,
                leaves: ref_leaves,
            },
        ) => {
            assert_eq!(leaves, ref_leaves, "{what}: leaf counts must agree");
            if exact_states {
                assert_eq!(states, ref_states, "{what}: state counts must agree");
            }
        }
        (ExploreOutcome::Violation { kind, schedule, .. }, RefOutcome::Violation { .. }) => {
            let replayed =
                replay_violation(plain, config.crash, config.inputs.as_deref(), schedule)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{what}: schedule {schedule:?} does not replay in the reference: {e}"
                        )
                    });
            assert_eq!(replayed, *kind, "{what}: violation kinds must agree");
        }
        (outcome, expected) => {
            panic!("{what}: verdicts differ — engine {outcome:?}, reference {expected:?}")
        }
    }
}

/// Runs `plain` (symmetry off) and, when the matrix selects its mode,
/// `symmetric` through `explore` under every selected POR mode, and
/// checks each outcome against the reference search of `plain` under
/// `config`. `analysis_id` names the footprint analysis the POR runs
/// share (the plain and symmetric builders produce the same memory and
/// program shape). Returns the reference outcome.
fn check_against_reference(
    what: &str,
    plain: &dyn Fn() -> (Memory, Vec<Box<dyn Program>>),
    symmetric: (SymMode, &SymmetricFactory<'_>),
    config: &ExploreConfig,
    analysis_id: &str,
) -> RefOutcome {
    let expected = explore_reference(plain, config.crash, config.inputs.as_deref());
    let modes = symmetry_modes();
    for por in por_modes() {
        let config = if por {
            por_config(config, analysis_id.into())
        } else {
            config.clone()
        };
        if modes.contains(&SymMode::Off) {
            let outcome = explore(plain, &config);
            let what = format!("{what} off por {por}");
            assert_agrees(&outcome, &expected, plain, &config, !por, &what);
        }
        let (mode, symmetric) = symmetric;
        if modes.contains(&mode) {
            let outcome = explore_symmetric(symmetric, &config);
            let what = format!("{what} {mode:?} por {por}");
            assert_agrees(&outcome, &expected, plain, &config, false, &what);
        }
    }
    expected
}

/// The CAS witness of the Section 3.1 scenario, with team B holding at
/// least two processes (the broken `|B| = 1` guard needs them), and its
/// team inputs.
fn cas_witness() -> (TypeHandle, RecordingWitness, Vec<Value>) {
    let cas: TypeHandle = Arc::new(Cas::new(2));
    let w = find_recording_witness(&cas, 3)
        .expect("cas witness")
        .normalized();
    let w = if w.assignment.team_size(Team::B) >= 2 {
        w
    } else {
        RecordingWitness {
            assignment: w.assignment.swap_teams(),
            q_a: w.q_b.clone(),
            q_b: w.q_a.clone(),
        }
    };
    let inputs: Vec<Value> = w
        .assignment
        .teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect();
    (cas, w, inputs)
}

/// `explore` against the naive reference explorer on the E2 systems —
/// `S_2`/`S_3` at crash budgets 0–2 and `S_4` at 0–1 — with symmetry
/// off and slots-only, and on their input-masked variants (budgets 0–1)
/// with symmetry off and full-rebind, each with and without POR:
/// identical verdicts and leaf counts everywhere, identical state
/// counts for the unreduced search.
#[test]
fn engines_agree_on_e2_systems() {
    for n in [2usize, 3, 4] {
        let (ty, w, inputs) = sn_system(n);
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let masked = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        let budgets: &[usize] = if n < 4 { &[0, 1, 2] } else { &[0, 1] };
        for &budget in budgets {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let what = format!("S_{n} budget {budget}");
            let expected = check_against_reference(
                &what,
                &plain,
                (SymMode::Slots, &sym),
                &config,
                &format!("test/S_{n}"),
            );
            assert!(
                matches!(expected, RefOutcome::Verified { .. }),
                "{what} must verify: {expected:?}"
            );
            // The masked S_3/budget-2 instance is an order of magnitude
            // bigger, and masked S_4 bigger still (E13 measures the
            // larger instances in release mode).
            if n >= 4 || budget >= 2 {
                continue;
            }
            let what = format!("masked {what}");
            let expected = check_against_reference(
                &what,
                &masked,
                (SymMode::Rebind, &masked_sym),
                &config,
                &format!("test/masked-S_{n}"),
            );
            assert!(
                matches!(expected, RefOutcome::Verified { .. }),
                "{what} must verify: {expected:?}"
            );
        }
    }
}

/// `explore` against the reference on the broken Fig. 2 guard
/// (Section 3.1), plain and input-masked: both find the agreement
/// violation, and every schedule `explore` reports — symmetry off,
/// slots-only and full-rebind, with and without POR — replays in the
/// reference to an agreement violation.
#[test]
fn engines_agree_on_broken_guard_systems() {
    let (cas, w, inputs) = cas_witness();
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let broken = || build_broken_team_rc_system(cas.clone(), &w, &inputs);
    let broken_sym = || build_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let masked = || build_masked_broken_team_rc_system(cas.clone(), &w, &inputs);
    let masked_sym = || build_masked_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    for (what, plain, symmetric, analysis_id) in [
        (
            "broken guard",
            &broken as &dyn Fn() -> _,
            (SymMode::Slots, &broken_sym as &SymmetricFactory<'_>),
            "test/broken-cas",
        ),
        (
            "masked broken guard",
            &masked,
            (SymMode::Rebind, &masked_sym),
            "test/masked-broken-cas",
        ),
    ] {
        let expected = check_against_reference(what, plain, symmetric, &config, analysis_id);
        assert!(
            matches!(
                expected,
                RefOutcome::Violation {
                    kind: rc_runtime::ViolationKind::Agreement,
                    ..
                }
            ),
            "{what} must violate agreement: {expected:?}"
        );
    }
}

/// `explore` against the reference on the Fig. 4 `SimultaneousRc`
/// system (three processes, a two-process orbit beside a singleton),
/// symmetry off and certified-scalarset, with and without POR.
#[test]
fn engines_agree_on_simultaneous_rc() {
    let factory = ConsensusObjectFactory { domain: 4 };
    let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
    let plain = || build_simultaneous_rc_system(&factory, &inputs, 4);
    let sym = || build_simultaneous_rc_system_sym(&factory, &inputs, 4);
    let config = ExploreConfig {
        crash: CrashModel::simultaneous(0).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let expected = check_against_reference(
        "SimultaneousRc n=3",
        &plain,
        (SymMode::Scalarset, &sym),
        &config,
        "test/simultaneous-rc-n3",
    );
    assert!(
        matches!(expected, RefOutcome::Verified { .. }),
        "SimultaneousRc must verify: {expected:?}"
    );
}

/// Symmetry on vs off on every E2 config: identical verdicts, identical
/// (weighted) leaf counts, and never more states — strictly fewer
/// whenever the witness has an orbit to merge (`n ≥ 3`; the `S_2`
/// witness is one process per team, so its quotient is the identity).
#[test]
fn symmetry_on_off_equivalence_on_e2_systems() {
    for n in [2usize, 3, 4] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let budgets: &[usize] = if n < 4 { &[0, 1, 2] } else { &[0, 1] };
        for &budget in budgets {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("S_{n} budget {budget} must verify: {other:?}"),
            };
            match &explore_symmetric(&sym_factory, &config) {
                ExploreOutcome::Verified { states, leaves } => {
                    assert_eq!(
                        *leaves, off_leaves,
                        "S_{n} budget {budget}: weighted leaf counts must \
                         match the plain engine"
                    );
                    if n >= 3 {
                        assert!(
                            *states < off_states,
                            "S_{n} budget {budget}: symmetry must merge the \
                             team-B orbit ({states} vs {off_states})"
                        );
                    } else {
                        assert_eq!(*states, off_states, "S_2 has no orbit to merge");
                    }
                }
                other => panic!("S_{n} budget {budget} must verify: {other:?}"),
            }
        }
    }
}

/// The `max_states` cap at every boundary of the S_2 budget-2 instance
/// (514 states), with and without POR: below the state-space size the
/// search truncates reporting exactly the cap, and a cap equal to (or
/// above) the exact size still verifies.
#[test]
fn cap_boundaries_are_exact() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    for por in por_modes() {
        // The POR state-space size is computed per setting — reduced
        // spaces are not monotonically smaller (sleep-set node
        // splitting), so the boundaries must come from the engine under
        // test, not the unreduced count.
        let base = if por {
            por_config(&plain, "test/S_2".into())
        } else {
            plain.clone()
        };
        let total = match explore(&factory, &base) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("S_2 budget 2 por {por} must verify: {other:?}"),
        };
        for cap in [1usize, 7, total / 2, total - 1, total, total + 1] {
            let config = ExploreConfig {
                max_states: cap,
                ..base.clone()
            };
            let outcome = explore(&factory, &config);
            if cap >= total {
                // At (and above) the exact state-space size nothing may
                // truncate.
                assert_eq!(
                    outcome,
                    explore(&factory, &base),
                    "cap {cap} por {por}: a cap at the state-space size verifies"
                );
            } else {
                assert_eq!(
                    outcome,
                    ExploreOutcome::Truncated { states: cap },
                    "the cap is exact (por {por})"
                );
            }
        }
    }
}

/// `max_states` boundaries of the *symmetric* search: the cap counts
/// canonical states and stays exact — at/above the quotient size the
/// search verifies, below it truncates at exactly the cap.
#[test]
fn symmetric_cap_boundaries_are_exact() {
    let (ty, w, inputs) = sn_system(3);
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    for por in por_modes() {
        let base = if por {
            por_config(&plain, "test/S_3".into())
        } else {
            plain.clone()
        };
        let total = match explore_symmetric(&sym_factory, &base) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("S_3 budget 2 por {por} must verify: {other:?}"),
        };
        for cap in [1usize, 7, total - 1, total, total + 1] {
            let config = ExploreConfig {
                max_states: cap,
                ..base.clone()
            };
            let outcome = explore_symmetric(&sym_factory, &config);
            if cap >= total {
                assert!(outcome.is_verified(), "cap {cap} por {por}: {outcome:?}");
            } else {
                assert_eq!(
                    outcome,
                    ExploreOutcome::Truncated { states: cap },
                    "the symmetric cap is exact (por {por})"
                );
            }
        }
    }
}

/// The E2-recorded baseline: S_2 at 514 and S_3 at 3981 states (crash
/// budget 2, post-decide crashes on). The engine rebuild must not change
/// what "a state" is.
#[test]
fn e2_state_counts_are_preserved() {
    for (n, expected) in [(2usize, 514usize), (3, 3981)] {
        let (ty, w, inputs) = sn_system(n);
        let outcome = explore(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            &ExploreConfig {
                crash: CrashModel::independent(2).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            },
        );
        match outcome {
            ExploreOutcome::Verified { states, .. } => assert_eq!(states, expected, "S_{n}"),
            other => panic!("S_{n} must verify: {other:?}"),
        }
    }
}

/// The acceptance instance for the engine rebuild: S_4 with one
/// independent crash model-checks to `Verified` within the default
/// state cap.
#[test]
fn s4_budget_1_verifies_within_default_cap() {
    let (ty, w, inputs) = sn_system(4);
    let outcome = explore(
        &|| build_team_rc_system(ty.clone(), &w, &inputs),
        &ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        },
    );
    match outcome {
        ExploreOutcome::Verified { states, .. } => {
            assert!(states > 10_000, "S_4 is a real instance: {states}");
            assert!(states < ExploreConfig::default().max_states);
        }
        other => panic!("S_4 budget 1 must verify: {other:?}"),
    }
}

/// A 1-process program that decides 0 on a clean run but 1 on a
/// recovery run — agreement across re-runs breaks only if the adversary
/// may crash it *after* it decided.
#[derive(Clone, Debug)]
struct ForgetfulDecider {
    addr: rc_runtime::Addr,
    pc: u8,
}

impl Program for ForgetfulDecider {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        match self.pc {
            0 => {
                let seen = mem.read_register(self.addr);
                self.pc = 1;
                if seen.is_bottom() {
                    Step::Running
                } else {
                    Step::Decided(Value::Int(1))
                }
            }
            _ => {
                mem.write_register(self.addr, Value::Int(0));
                Step::Decided(Value::Int(0))
            }
        }
    }
    fn on_crash(&mut self) {
        self.pc = 0;
    }
    fn state_key(&self) -> Value {
        Value::Int(i64::from(self.pc))
    }
    fn boxed_clone(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

fn forgetful_factory() -> (Memory, Vec<Box<dyn Program>>) {
    let mut mem = Memory::new();
    let addr = mem.alloc_register(Value::Bottom);
    (mem, vec![Box::new(ForgetfulDecider { addr, pc: 0 })])
}

/// Regression (simultaneous crash-adversary asymmetry): with
/// `crash_after_decide: false`, a simultaneous `CrashAll` must not wipe
/// a decided run — the model checker used to reset decided processes
/// unconditionally and so reported violations the configured adversary
/// cannot produce. The independent and simultaneous models must agree.
#[test]
fn crash_all_respects_post_decide_policy_in_explore() {
    for mode in [CrashModel::independent(1), CrashModel::simultaneous(1)] {
        let strict = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: mode,
                ..ExploreConfig::default()
            },
        );
        assert!(
            strict.is_verified(),
            "{mode:?} without post-decide crashes: {strict:?}"
        );
        let lax = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: mode.after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(
            lax.is_violation(),
            "{mode:?} with post-decide crashes: {lax:?}"
        );
    }
}

/// Regression (`RandomScheduler` emitting `CrashAll` after every process
/// decided with `crash_after_decide: false`): the scheduler now ends the
/// execution instead of wiping decided runs, matching the exact layer.
#[test]
fn random_scheduler_crash_all_respects_post_decide_policy() {
    let mut sched = RandomScheduler::new(RandomSchedulerConfig {
        seed: 11,
        crash_prob: 1.0,
        crash: CrashModel::simultaneous(10),
    });
    let decided = vec![true, true, true];
    let ctx = SchedContext {
        n: 3,
        decided: &decided,
        steps_taken: 9,
        crashes_injected: 0,
    };
    for _ in 0..100 {
        assert_eq!(sched.next_action(&ctx), None, "no action can be legal");
    }
    // Partially decided: a step of the undecided process, never CrashAll.
    let decided = vec![true, false, true];
    let ctx = SchedContext {
        n: 3,
        decided: &decided,
        steps_taken: 9,
        crashes_injected: 0,
    };
    for _ in 0..100 {
        assert_eq!(sched.next_action(&ctx), Some(Action::Step(1)));
    }
}

/// Regression (state-cap off-by-one): the search used to visit
/// `max_states + 1` states before reporting truncation; now it visits
/// exactly `max_states`, and a cap equal to the exact state-space size
/// still verifies.
#[test]
fn state_cap_has_no_off_by_one() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    // 514 states (asserted above). Capping exactly there must verify…
    let outcome = explore(
        &factory,
        &ExploreConfig {
            max_states: 514,
            ..config.clone()
        },
    );
    assert!(outcome.is_verified(), "{outcome:?}");
    // …and one below must truncate having visited exactly the cap.
    match explore(
        &factory,
        &ExploreConfig {
            max_states: 513,
            ..config
        },
    ) {
        ExploreOutcome::Truncated { states } => assert_eq!(states, 513),
        other => panic!("expected truncation: {other:?}"),
    }
}

/// Verdict precedence: a violation reachable within the cap is reported
/// as `Violation` even under a tiny cap (violations are definitive;
/// truncation only blocks `Verified`).
#[test]
fn violation_beats_truncation_when_found_first() {
    #[derive(Clone, Debug)]
    struct DecideOwn {
        input: Value,
    }
    impl Program for DecideOwn {
        fn step(&mut self, _: &mut dyn MemOps) -> Step {
            Step::Decided(self.input.clone())
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }
    let factory = || {
        let mem = Memory::new();
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(DecideOwn {
                input: Value::Int(0),
            }),
            Box::new(DecideOwn {
                input: Value::Int(1),
            }),
        ];
        (mem, programs)
    };
    // The first DFS branch reaches the violation within 3 visited states.
    let outcome = explore(
        &factory,
        &ExploreConfig {
            max_states: 3,
            ..ExploreConfig::default()
        },
    );
    assert!(outcome.is_violation(), "{outcome:?}");
}

/// Validity violations (declared inputs that exclude what team B
/// decides) on `S_2`/`S_3` and their masked variants: `explore` reports
/// the same schedule on every run, and every schedule it reports — in
/// every symmetry × POR mode — replays in the reference explorer to a
/// validity violation.
#[test]
fn violation_witnesses_replay_in_the_reference() {
    let bogus = vec![Value::Int(7)];
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let masked = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            inputs: Some(bogus.clone()),
            ..ExploreConfig::default()
        };
        let first = explore(&plain, &config);
        assert!(first.is_violation(), "bogus inputs must violate: {first:?}");
        assert_eq!(first, explore(&plain, &config), "S_{n}: violations repeat");
        for (what, plain, symmetric, analysis_id) in [
            (
                format!("S_{n}"),
                &plain as &dyn Fn() -> _,
                (SymMode::Slots, &sym as &SymmetricFactory<'_>),
                format!("test/S_{n}"),
            ),
            (
                format!("masked S_{n}"),
                &masked,
                (SymMode::Rebind, &masked_sym),
                format!("test/masked-S_{n}"),
            ),
        ] {
            let expected = check_against_reference(&what, plain, symmetric, &config, &analysis_id);
            assert!(
                matches!(
                    expected,
                    RefOutcome::Violation {
                        kind: rc_runtime::ViolationKind::Validity,
                        ..
                    }
                ),
                "{what}: the reference must find the validity violation: {expected:?}"
            );
        }
    }
}

/// Symmetric searches report witnesses in *original* process ids: the
/// schedule a violating symmetric search returns must replay, action for
/// action, on the plain (never-permuted) system and reproduce the
/// violation. (Validity is broken here the same way as in
/// `violation_witnesses_replay_in_the_reference`: declared inputs that
/// exclude what team B decides.)
#[test]
fn symmetric_witness_replays_on_the_original_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(bogus.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("bogus inputs must violate validity: {other:?}"),
    };
    // Replay on the plain system builder (no symmetry, no
    // canonicalization): the un-permuted schedule must reach the
    // same validity failure.
    let (mut mem, mut programs) = build_team_rc_system(ty.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule.clone());
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    check_consensus_execution(&exec, &bogus).expect_err(
        "the replayed witness must reproduce the validity violation \
         on the original system",
    );
}

/// The broken Fig. 2 variant (Section 3.1) under symmetry: the agreement
/// violation is still found, and its witness replays on the original
/// broken system to an agreement failure.
#[test]
fn symmetric_search_finds_the_broken_guard_violation() {
    let (cas, w, inputs) = cas_witness();
    let sym_factory = || build_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("the broken guard must fail: {other:?}"),
    };
    let (mut mem, mut programs) = build_broken_team_rc_system(cas.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    let err = check_consensus_execution(&exec, &inputs)
        .expect_err("the replayed witness must violate agreement");
    assert!(err.to_string().contains("agreement"), "{err}");
}

/// Full-state symmetry (owned mask registers + `Program::rebind`) on the
/// masked E2 systems: identical verdicts and weighted leaf counts to the
/// plain masked search, strictly fewer states (the mask registers no
/// longer block the team-B orbit).
#[test]
fn rebind_on_off_equivalence_on_masked_systems() {
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1] {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("masked S_{n} budget {budget} must verify: {other:?}"),
            };
            match &explore_symmetric(&sym_factory, &config) {
                ExploreOutcome::Verified { states, leaves } => {
                    assert_eq!(
                        *leaves, off_leaves,
                        "masked S_{n} budget {budget}: weighted leaf counts \
                         must match the plain engine"
                    );
                    if n >= 3 {
                        assert!(
                            *states < off_states,
                            "masked S_{n} budget {budget}: owned-cell orbits \
                             must merge the team-B processes ({states} vs \
                             {off_states})"
                        );
                    } else {
                        assert_eq!(*states, off_states, "masked S_2 has no orbit to merge");
                    }
                }
                other => panic!("masked S_{n} budget {budget} must verify: {other:?}"),
            }
        }
    }
}

/// The certified-scalarset mode on the Fig. 4 `SimultaneousRc` system
/// — the carrier of the `EXPLORE_TEST_SYMMETRY=scalarset` matrix value
/// (the team systems declare no register family, so the axis needs the
/// one catalog system that does): identical verdicts and weighted leaf
/// counts with the scalarset orbits on vs off, strictly fewer states
/// — and, on the POR axis, the same contract holding *composed*
/// with the persistent-set + sleep-set reduction (each por setting is
/// compared against its own plain baseline, so the strict-reduction
/// assertion proves the two reductions stack rather than cancel).
#[test]
fn scalarset_on_off_equivalence_on_simultaneous_rc() {
    if !symmetry_modes().contains(&SymMode::Scalarset) {
        // The matrix narrowed to a mode the team-system tests carry.
        return;
    }
    let factory = ConsensusObjectFactory { domain: 4 };
    // Mixed inputs: a two-process orbit beside a singleton — the family
    // permutes under the acting orbit only, which is the harder case
    // for key-first canonicalization (E17 measures the larger budget-1
    // instances in release mode).
    let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
    let plain = || build_simultaneous_rc_system(&factory, &inputs, 4);
    let sym = || build_simultaneous_rc_system_sym(&factory, &inputs, 4);
    let base = ExploreConfig {
        crash: CrashModel::simultaneous(0).after_decide(true),
        inputs: Some(inputs.clone()),
        analysis_id: Some("test/simultaneous-rc-n3".into()),
        ..ExploreConfig::default()
    };
    for por in por_modes() {
        let config = if por {
            ExploreConfig {
                por: true,
                ..base.clone()
            }
        } else {
            base.clone()
        };
        let (off_states, off_leaves) = match explore(&plain, &config) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("SimultaneousRc por {por} must verify: {other:?}"),
        };
        match &explore_symmetric(&sym, &config) {
            ExploreOutcome::Verified { states, leaves } => {
                assert_eq!(
                    *leaves, off_leaves,
                    "SimultaneousRc por {por}: weighted leaf counts must \
                     match the plain engine"
                );
                assert!(
                    *states < off_states,
                    "SimultaneousRc por {por}: the certified family must \
                     merge orbits ({states} vs {off_states})"
                );
            }
            other => panic!("SimultaneousRc scalarset por {por} must verify: {other:?}"),
        }
    }
}

/// The POR axis of the equivalence matrix, on vs off, on the E2
/// systems:
///
/// * the verdict and weighted leaf count stay exact, unmasked and
///   masked, while the state count is the reduction — legitimately
///   different, and *not* monotone: sleep-set node splitting can
///   outweigh the pruning at independent budget 1 (E15 records both
///   directions);
/// * the same holds composed with full-rebind symmetry;
/// * **truncating** configs report the identical `Truncated` outcome in
///   both settings at every cap below both state-space sizes — the cap
///   counts visited nodes exactly, reduced or not.
#[test]
fn por_on_off_equivalence_on_e2_systems() {
    let verified = |outcome: &ExploreOutcome, what: &str| match outcome {
        ExploreOutcome::Verified { states, leaves } => (*states, *leaves),
        other => panic!("{what} must verify: {other:?}"),
    };
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let masked = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1] {
            let base = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            // Unmasked: exact verdict + leaves (even the plain teams
            // have commuting step pairs, so states may shrink).
            let (_, plain_off_leaves) = verified(
                &explore(&plain, &base),
                &format!("unmasked S_{n} budget {budget} por off"),
            );
            let (_, plain_on_leaves) = verified(
                &explore(&plain, &por_config(&base, format!("test/S_{n}"))),
                &format!("unmasked S_{n} budget {budget} por on"),
            );
            assert_eq!(
                plain_on_leaves, plain_off_leaves,
                "unmasked S_{n} budget {budget}: POR must preserve the \
                 weighted leaf count exactly"
            );
            // Masked: exact verdict + leaves.
            let reduced = por_config(&base, format!("test/masked-S_{n}"));
            let (off_states, off_leaves) = verified(
                &explore(&masked, &base),
                &format!("masked S_{n} budget {budget} por off"),
            );
            let on_outcome = explore(&masked, &reduced);
            let (on_states, on_leaves) =
                verified(&on_outcome, &format!("masked S_{n} budget {budget} por on"));
            assert_eq!(
                on_leaves, off_leaves,
                "masked S_{n} budget {budget}: POR must preserve the \
                 weighted leaf count exactly"
            );
            // Composed with full-rebind symmetry: still exact.
            let (_, sym_off_leaves) = verified(
                &explore_symmetric(&masked_sym, &base),
                &format!("masked S_{n} budget {budget} rebind por off"),
            );
            let sym_on = explore_symmetric(&masked_sym, &reduced);
            let (_, sym_on_leaves) = verified(
                &sym_on,
                &format!("masked S_{n} budget {budget} rebind por on"),
            );
            assert_eq!(sym_off_leaves, off_leaves, "rebind preserves leaves");
            assert_eq!(
                sym_on_leaves, off_leaves,
                "masked S_{n} budget {budget}: por+rebind must preserve the \
                 weighted leaf count exactly"
            );
            // Truncating configs: below both state-space sizes the two
            // settings report the identical truncation.
            let smallest = off_states.min(on_states);
            for cap in [1usize, smallest / 2, smallest - 1] {
                if cap == 0 {
                    continue;
                }
                for (setting, cfg) in [("off", &base), ("on", &reduced)] {
                    let capped = ExploreConfig {
                        max_states: cap,
                        ..cfg.clone()
                    };
                    assert_eq!(
                        explore(&masked, &capped),
                        ExploreOutcome::Truncated { states: cap },
                        "masked S_{n} budget {budget} cap {cap} por {setting}: \
                         the cap counts visited nodes exactly"
                    );
                }
            }
        }
    }
}

/// Witnesses from a full-rebind symmetric search replay in *original*
/// process ids: the validity-violation schedule reported on the masked
/// system replays, action for action, on the original (never-permuted,
/// never-rebound) masked system.
#[test]
fn rebind_witness_replays_on_the_original_masked_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(bogus.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("bogus inputs must violate validity: {other:?}"),
    };
    let (mut mem, mut programs) = build_masked_team_rc_system(ty.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule.clone());
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    check_consensus_execution(&exec, &bogus).expect_err(
        "the replayed witness must reproduce the validity violation \
         on the original masked system",
    );
}

/// The **masked-program counterexample**: the broken Fig. 2 guard under
/// input masking. The full-rebind search merges the masked team-B orbit,
/// still finds the Section 3.1 agreement violation, and its witness —
/// un-permuted *and* un-rebound — replays on the original masked broken
/// system to the same agreement failure.
#[test]
fn rebind_search_finds_the_masked_broken_guard_violation() {
    let (cas, w, inputs) = cas_witness();
    let sym_factory = || build_masked_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("the masked broken guard must fail: {other:?}"),
    };
    let (mut mem, mut programs) = build_masked_broken_team_rc_system(cas.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    let err = check_consensus_execution(&exec, &inputs)
        .expect_err("the replayed witness must violate agreement");
    assert!(err.to_string().contains("agreement"), "{err}");
}

/// Spilling never changes a search: in every cell of the symmetry × POR
/// matrix, the search with its visited set resident
/// (`spill_threshold: None`) and the same search spilling at a tiny
/// threshold (`Some(512)`, so resident entries genuinely freeze to disk
/// mid-search) report byte-identical outcomes.
#[test]
fn storage_tiers_agree_byte_identically() {
    let (ty, w, inputs) = sn_system(3);
    let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
    let sym = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
    let objects = ConsensusObjectFactory { domain: 4 };
    let rc_inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
    let rc_sym = || build_simultaneous_rc_system_sym(&objects, &rc_inputs, 4);
    let team = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let rc = ExploreConfig {
        crash: CrashModel::simultaneous(0).after_decide(true),
        inputs: Some(rc_inputs.clone()),
        ..ExploreConfig::default()
    };
    for mode in symmetry_modes() {
        let (base, analysis_id) = match mode {
            SymMode::Off | SymMode::Slots => (&team, "test/S_3"),
            SymMode::Rebind => (&team, "test/masked-S_3"),
            SymMode::Scalarset => (&rc, "test/simultaneous-rc-n3"),
        };
        for por in por_modes() {
            let config = if por {
                por_config(base, analysis_id.into())
            } else {
                base.clone()
            };
            let search = |spill_threshold: Option<usize>| {
                let config = ExploreConfig {
                    spill_threshold,
                    ..config.clone()
                };
                match mode {
                    SymMode::Off => explore_with_stats(&plain, &config),
                    SymMode::Slots => explore_symmetric_with_stats(&sym, &config),
                    SymMode::Rebind => explore_symmetric_with_stats(&masked_sym, &config),
                    SymMode::Scalarset => explore_symmetric_with_stats(&rc_sym, &config),
                }
            };
            let (resident, stats) = search(None);
            assert!(resident.is_verified(), "{mode:?} por {por}: {resident:?}");
            assert_eq!(stats.spilled_bytes, 0, "nothing spills without a threshold");
            let (spilled, stats) = search(Some(512));
            assert_eq!(
                spilled, resident,
                "{mode:?} por {por}: spilling changed the search"
            );
            assert!(
                stats.spilled_bytes > 0,
                "{mode:?} por {por}: threshold 512 must spill"
            );
        }
    }
}

/// The `max_bytes` cap is exact. Each accepted state charges its packed
/// key length plus 16 bytes, in the search's acceptance order, and the
/// search stops at the first state that does not fit — so the states a
/// cap admits are the longest prefix of the acceptance order whose
/// account fits, and the smallest verifying cap (found by bisection) is
/// the full search's account. At that cap the search verifies,
/// identically to the uncapped search; one byte less truncates having
/// accepted every state but the last, which pins the account at exactly
/// the cap. A 2,000-byte cut truncates at the same state count with the
/// table resident and spilling, and again on a second run.
#[test]
fn byte_cap_boundary_is_exact() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let base = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let uncapped = explore(&factory, &base);
    let ExploreOutcome::Verified { states: total, .. } = uncapped else {
        panic!("S_2/budget-2 must verify: {uncapped:?}");
    };
    let capped = |max_bytes: usize, spill_threshold: Option<usize>| {
        explore(
            &factory,
            &ExploreConfig {
                max_bytes: Some(max_bytes),
                spill_threshold,
                ..base.clone()
            },
        )
    };
    let (mut fails, mut fits) = (0usize, 1usize << 30);
    assert!(capped(fits, None).is_verified(), "a 1 GiB cap must verify");
    while fails + 1 < fits {
        let mid = fails + (fits - fails) / 2;
        if capped(mid, None).is_verified() {
            fits = mid;
        } else {
            fails = mid;
        }
    }
    let account = fits;
    assert!(
        account > total * 16,
        "every state charges more than the 16-byte overhead: {account} for {total}"
    );
    assert_eq!(capped(account, None), uncapped, "the full account verifies");
    assert_eq!(
        capped(account - 1, None),
        ExploreOutcome::Truncated { states: total - 1 },
        "one byte short, only the last accepted state is cut"
    );
    let cut = match capped(2_000, None) {
        ExploreOutcome::Truncated { states } => states,
        other => panic!("a 2000-byte cap must truncate S_2/budget-2: {other:?}"),
    };
    assert!(cut > 0, "a 2000-byte cap fits more than the root");
    assert_eq!(
        capped(2_000, Some(512)),
        ExploreOutcome::Truncated { states: cut },
        "spilling must not move the byte-cap cut"
    );
    assert_eq!(
        capped(2_000, None),
        ExploreOutcome::Truncated { states: cut },
        "the byte-cap cut repeats"
    );
}

/// The memory/occupancy counters in [`rc_runtime::ExploreStats`] are
/// populated and monotone in the searched space: growing the crash
/// budget grows every byte account (more states, more interned values,
/// a longer witness log).
#[test]
fn memory_counters_are_monotone_in_the_searched_space() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let mut previous: Option<rc_runtime::ExploreStats> = None;
    for budget in [0usize, 1, 2] {
        let config = ExploreConfig {
            crash: CrashModel::independent(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_with_stats(&factory, &config);
        assert!(outcome.is_verified(), "{outcome:?}");
        assert!(stats.interned_bytes > 0);
        assert!(stats.table_bytes > 0);
        assert!(stats.witness_bytes > 0);
        assert!(stats.peak_table_bytes >= stats.table_bytes);
        if let Some(prev) = previous {
            assert!(stats.interned_bytes >= prev.interned_bytes);
            assert!(stats.table_bytes >= prev.table_bytes);
            assert!(stats.witness_bytes > prev.witness_bytes);
            assert!(stats.peak_table_bytes >= prev.peak_table_bytes);
        }
        previous = Some(stats);
    }
}
