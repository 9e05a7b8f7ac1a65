//! The model-checker engines, end to end: serial/parallel equivalence on
//! the real Fig. 2 systems — byte-identical outcomes including at
//! `max_states` truncation boundaries — the unified [`CrashModel`]
//! semantics, process-symmetry reduction (identical verdicts and leaf
//! counts with symmetry on vs off, replayable un-permuted witnesses),
//! and regressions for the crash-adversary bugs the engine rebuilds
//! fixed (post-decide `CrashAll` handling, the state-cap off-by-one, and
//! the parallel frontier's whole-level cap overshoot).
//!
//! CI runs this suite under `EXPLORE_TEST_THREADS` ∈ {2, 8} ×
//! `EXPLORE_TEST_SYMMETRY` ∈ {on, off, rebind, scalarset} ×
//! `EXPLORE_TEST_POR` ∈ {on, off} (see `.github/workflows/ci.yml`);
//! `rebind` exercises the full-state mode — input-masked systems whose
//! per-process mask registers permute with their owners under
//! `Program::rebind` — `scalarset` exercises the certified-family mode
//! on the Fig. 4 `SimultaneousRc` system (whose per-round announcement
//! registers permute as a scalarset with the process slots), and the
//! POR axis reruns the same matrix with the persistent-set + sleep-set
//! reduction switched on (identical verdicts and weighted leaf counts;
//! state counts are the reduction and legitimately differ). The thread counts are routed through
//! `ExploreConfig::workers_override` / `shards_override`, so the forced
//! multi-worker, multi-shard pipeline really runs — even on single-core
//! runners, where the machine-aware policy used to clamp every level to
//! the fused single-worker path and silently neutralize the matrix.

use rc_core::algorithms::{
    build_broken_team_rc_system, build_masked_broken_team_rc_system,
    build_masked_broken_team_rc_system_sym, build_masked_team_rc_system,
    build_masked_team_rc_system_sym, build_simultaneous_rc_system,
    build_simultaneous_rc_system_sym, build_team_rc_system, build_team_rc_system_sym,
    ConsensusObjectFactory,
};
use rc_core::{check_recording, Assignment, RecordingWitness, Team};
use rc_runtime::sched::{
    Action, RandomScheduler, RandomSchedulerConfig, SchedContext, Scheduler, ScriptedScheduler,
};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    explore, explore_parallel, explore_symmetric, explore_with_stats, run, CrashModel,
    ExploreConfig, ExploreOutcome, MemOps, Memory, Program, RunOptions, Step, StorageTier,
};
use rc_spec::types::Sn;
use rc_spec::{TypeHandle, Value};
use std::sync::Arc;

/// The thread counts the equivalence tests run the parallel engine at:
/// {2, 3, 4} always, plus whatever `EXPLORE_TEST_THREADS` names (the CI
/// matrix sets 2 and 8).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![2usize, 3, 4];
    if let Ok(raw) = std::env::var("EXPLORE_TEST_THREADS") {
        // A malformed matrix value must fail loudly, not silently test
        // only the defaults (the same silent-no-op shape the tables CLI
        // rejects for unknown experiment ids).
        let extra: usize = raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("EXPLORE_TEST_THREADS must be an integer, got {raw:?}"));
        assert!(
            extra > 1,
            "EXPLORE_TEST_THREADS must be > 1 to exercise the parallel engine, got {extra}"
        );
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

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

/// The storage tier the suite's searches run under: `Flat` by default,
/// or whatever `EXPLORE_TEST_STORAGE` names (`flat` / `packed` /
/// `packed+filter` / `packed+spill`; the CI storage axis). Anything
/// else fails loudly, like the other matrix knobs.
fn storage_tier() -> StorageTier {
    match std::env::var("EXPLORE_TEST_STORAGE") {
        Err(_) => StorageTier::Flat,
        Ok(raw) => StorageTier::parse(raw.trim()).unwrap_or_else(|| {
            panic!(
                "EXPLORE_TEST_STORAGE must be one of flat, packed, \
                 packed+filter, packed+spill; got {raw:?}"
            )
        }),
    }
}

/// The suite's base config: [`ExploreConfig::default`] with the
/// [`storage_tier`] axis applied. Under `packed+spill` the per-shard
/// spill threshold is forced tiny (4 KiB) so these small state spaces
/// genuinely freeze resident entries to disk — outcomes must not
/// change (the equivalence assertions throughout are the proof).
fn test_config() -> ExploreConfig {
    let storage = storage_tier();
    ExploreConfig {
        storage,
        spill_threshold: (storage == StorageTier::PackedSpill).then_some(4096),
        ..ExploreConfig::default()
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

/// The parallel-engine config for `threads` workers with the staged
/// multi-worker, multi-shard pipeline **forced** — the machine-aware
/// policy would clamp to `available_parallelism()` and run the fused
/// single-worker path on single-core hosts, making the thread matrix a
/// no-op. Outcomes are knob-independent (asserted throughout).
fn parallel_config(base: &ExploreConfig, threads: usize) -> ExploreConfig {
    ExploreConfig {
        threads,
        workers_override: Some(threads),
        shards_override: Some(threads),
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

/// `explore` vs the parallel engine on the E2 systems, across thread
/// counts, with symmetry off, slots-only *and* full-rebind (the latter
/// on the input-masked variant of the same systems): byte-identical
/// `Verified` outcomes (state *and* leaf counts). Each thread count runs
/// twice — once under the default machine-aware worker policy
/// (`explore_parallel`) and once with the staged pipeline forced
/// (`parallel_config`), so single-core hosts exercise real multi-worker
/// levels too.
#[test]
fn engines_agree_on_e2_systems() {
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let masked_sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1, 2] {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..test_config()
            };
            for mode in symmetry_modes() {
                // The team systems declare no scalarset family; that
                // axis value is carried by
                // `scalarset_on_off_equivalence_on_simultaneous_rc`.
                if mode == SymMode::Scalarset {
                    continue;
                }
                // The masked S_3/budget-2 instance is an order of
                // magnitude bigger; the full-rebind mode covers it at
                // budgets 0–1 (E13 measures the larger instances in
                // release mode).
                if mode == SymMode::Rebind && n >= 3 && budget >= 2 {
                    continue;
                }
                for por in por_modes() {
                    let config = if por {
                        // The plain and slots-sym builders produce the
                        // same memory/program shape, so they share one
                        // analysis; the masked builders differ (extra
                        // mask registers) and get their own.
                        por_config(
                            &config,
                            match mode {
                                SymMode::Rebind => format!("test/masked-S_{n}"),
                                _ => format!("test/S_{n}"),
                            },
                        )
                    } else {
                        config.clone()
                    };
                    let serial = match mode {
                        SymMode::Off => explore(&factory, &config),
                        SymMode::Slots => explore_symmetric(&sym_factory, &config),
                        SymMode::Rebind => explore_symmetric(&masked_sym_factory, &config),
                        SymMode::Scalarset => unreachable!("skipped above"),
                    };
                    assert!(
                        matches!(serial, ExploreOutcome::Verified { .. }),
                        "S_{n} budget {budget} mode {mode:?} por {por} must \
                         verify: {serial:?}"
                    );
                    for threads in thread_counts() {
                        for forced in [false, true] {
                            let threaded = if forced {
                                parallel_config(&config, threads)
                            } else {
                                ExploreConfig {
                                    threads,
                                    ..config.clone()
                                }
                            };
                            let parallel = match mode {
                                SymMode::Off if forced => explore(&factory, &threaded),
                                SymMode::Off => explore_parallel(&factory, &threaded),
                                SymMode::Slots => explore_symmetric(&sym_factory, &threaded),
                                SymMode::Rebind => {
                                    explore_symmetric(&masked_sym_factory, &threaded)
                                }
                                SymMode::Scalarset => unreachable!("skipped above"),
                            };
                            assert_eq!(
                                serial, parallel,
                                "S_{n} budget {budget} threads {threads} forced {forced} \
                                 mode {mode:?} por {por}: engines must agree byte-for-byte"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Symmetry on vs off on every E2 config: identical verdicts, identical
/// (weighted) leaf counts, and never more states — strictly fewer
/// whenever the witness has an orbit to merge (`n ≥ 3`; the `S_2`
/// witness is one process per team, so its quotient is the identity).
/// The symmetric search is itself byte-identical across thread counts
/// 1/2/8.
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
                ..test_config()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("S_{n} budget {budget} must verify: {other:?}"),
            };
            let mut outcomes = Vec::new();
            for threads in [1usize, 2, 8] {
                let threaded = if threads == 1 {
                    config.clone()
                } else {
                    parallel_config(&config, threads)
                };
                outcomes.push(explore_symmetric(&sym_factory, &threaded));
            }
            for on in &outcomes[1..] {
                assert_eq!(
                    on, &outcomes[0],
                    "S_{n} budget {budget}: symmetric outcomes must be \
                     byte-identical across thread counts"
                );
            }
            match &outcomes[0] {
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
/// (514 states): serial and parallel outcomes are byte-identical — the
/// parallel engine must neither overshoot the cap by a frontier (the
/// pre-sharding bug) nor truncate a run whose cap equals the exact
/// state-space size. Also pins `Verified { leaves }` parity at the cap
/// boundary: a level cut mid-dedup must not have counted
/// partially-processed nodes as leaves.
#[test]
fn cap_boundaries_are_byte_identical_across_engines() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..test_config()
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
            let serial = explore(&factory, &config);
            if cap >= total {
                // At (and above) the exact state-space size nothing may
                // truncate, and the leaf count is part of the contract.
                assert!(serial.is_verified(), "cap {cap} por {por}: {serial:?}");
            } else {
                assert_eq!(
                    serial,
                    ExploreOutcome::Truncated { states: cap },
                    "the serial cap is exact (por {por})"
                );
            }
            for threads in thread_counts() {
                // Forced staged pipeline: the cap must stay exact when
                // every level really fans out multi-worker and
                // multi-shard.
                let parallel = explore(&factory, &parallel_config(&config, threads));
                assert_eq!(
                    serial, parallel,
                    "cap {cap} threads {threads} por {por}: outcomes must be \
                     byte-identical"
                );
            }
        }
    }
}

/// `max_states` boundaries of the *symmetric* search: the cap counts
/// canonical states and stays exact — at/above the quotient size the
/// search verifies, below it truncates at exactly the cap — and the
/// outcome is byte-identical across thread counts 1/2/8.
#[test]
fn symmetric_cap_boundaries_are_exact() {
    let (ty, w, inputs) = sn_system(3);
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..test_config()
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
            let serial = explore_symmetric(&sym_factory, &config);
            if cap >= total {
                assert!(serial.is_verified(), "cap {cap} por {por}: {serial:?}");
            } else {
                assert_eq!(
                    serial,
                    ExploreOutcome::Truncated { states: cap },
                    "the symmetric cap is exact (por {por})"
                );
            }
            for threads in [2usize, 8] {
                let parallel = explore_symmetric(&sym_factory, &parallel_config(&config, threads));
                assert_eq!(serial, parallel, "cap {cap} threads {threads} por {por}");
            }
        }
    }
}

/// Regression: the CI thread matrix used to be silently neutralized on
/// single-core runners — `level_workers` clamps by
/// `available_parallelism()`, so `EXPLORE_TEST_THREADS=8` still ran the
/// fused single-worker path everywhere. With the overrides routed
/// through [`parallel_config`], the staged pipeline must *actually* fan
/// out to every forced worker (asserted via [`ExploreStats`], which
/// reports the real per-level maximum).
#[test]
fn forced_multi_worker_pipelines_actually_run() {
    let (ty, w, inputs) = sn_system(3);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let base = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..test_config()
    };
    let serial = explore(&factory, &base);
    for threads in thread_counts() {
        let (outcome, stats) = explore_with_stats(&factory, &parallel_config(&base, threads));
        assert_eq!(serial, outcome, "threads {threads}");
        assert!(
            stats.frontier,
            "threads {threads} must select the frontier engine"
        );
        assert_eq!(stats.shards, threads, "forced shard count must be honoured");
        assert!(
            stats.max_level_workers > 1,
            "threads {threads}: the forced pipeline must use more than one \
             worker — a single-worker run means the override was ignored"
        );
        assert_eq!(
            stats.max_level_workers, threads,
            "threads {threads}: the S_3 peak level is large enough to fan \
             out to every forced worker"
        );
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
                ..test_config()
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
            ..test_config()
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
                ..test_config()
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
                ..test_config()
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
        ..test_config()
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
            ..test_config()
        },
    );
    assert!(outcome.is_violation(), "{outcome:?}");
}

/// The parallel engine finds violations, deterministically, and the
/// reported schedule replays to the claimed disagreement.
#[test]
fn parallel_engine_reports_replayable_violations() {
    let (ty, w, inputs) = sn_system(2);
    // Break validity: declare inputs that exclude what team B decides.
    let bogus = vec![Value::Int(7)];
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let mut schedules = Vec::new();
    let counts = thread_counts();
    for threads in counts.iter().chain(counts.iter()).copied() {
        match explore(
            &factory,
            &ExploreConfig {
                crash: CrashModel::independent(1).after_decide(true),
                inputs: Some(bogus.clone()),
                threads,
                ..test_config()
            },
        ) {
            ExploreOutcome::Violation { schedule, kind, .. } => {
                schedules.push((schedule, kind));
            }
            other => panic!("bogus inputs must violate validity: {other:?}"),
        }
    }
    for s in &schedules[1..] {
        assert_eq!(s, &schedules[0], "parallel verdicts must be deterministic");
    }
}

/// Symmetric searches report witnesses in *original* process ids: the
/// schedule a violating symmetric search returns must replay, action for
/// action, on the plain (never-permuted) system and reproduce the
/// violation — at thread counts 1/2/8. (Validity is broken here the same
/// way as in `parallel_engine_reports_replayable_violations`: declared
/// inputs that exclude what team B decides.)
#[test]
fn symmetric_witness_replays_on_the_original_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    for threads in [1usize, 2, 8] {
        let base = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            inputs: Some(bogus.clone()),
            ..test_config()
        };
        let config = if threads == 1 {
            base
        } else {
            parallel_config(&base, threads)
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
}

/// The broken Fig. 2 variant (Section 3.1) under symmetry: the agreement
/// violation is still found, and its witness replays on the original
/// broken system to an agreement failure.
#[test]
fn symmetric_search_finds_the_broken_guard_violation() {
    use rc_core::algorithms::build_broken_team_rc_system_sym;
    use rc_core::find_recording_witness;
    use rc_spec::types::Cas;
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
    let sym_factory = || build_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..test_config()
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
/// longer block the team-B orbit), byte-identical across thread counts
/// 1/2/8.
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
                ..test_config()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("masked S_{n} budget {budget} must verify: {other:?}"),
            };
            let mut outcomes = Vec::new();
            for threads in [1usize, 2, 8] {
                let threaded = if threads == 1 {
                    config.clone()
                } else {
                    parallel_config(&config, threads)
                };
                outcomes.push(explore_symmetric(&sym_factory, &threaded));
            }
            for on in &outcomes[1..] {
                assert_eq!(
                    on, &outcomes[0],
                    "masked S_{n} budget {budget}: rebind outcomes must be \
                     byte-identical across thread counts"
                );
            }
            match &outcomes[0] {
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
/// counts with the scalarset orbits on vs off, strictly fewer states,
/// byte-identical outcomes across serial and every matrix thread
/// count — and, on the POR axis, the same contract holding *composed*
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
        ..test_config()
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
        let mut outcomes = vec![explore_symmetric(&sym, &config)];
        for threads in thread_counts() {
            outcomes.push(explore_symmetric(&sym, &parallel_config(&config, threads)));
        }
        for on in &outcomes[1..] {
            assert_eq!(
                on, &outcomes[0],
                "SimultaneousRc por {por}: scalarset outcomes must be \
                 byte-identical across thread counts"
            );
        }
        match &outcomes[0] {
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
/// * within each setting the serial and forced-parallel searches are
///   byte-identical at threads 1/2/8, plain and composed with
///   full-rebind symmetry;
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
                ..test_config()
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
            // Masked: exact verdict + leaves, byte-identical engines
            // within each setting.
            let reduced = por_config(&base, format!("test/masked-S_{n}"));
            let (off_states, off_leaves) = verified(
                &explore(&masked, &base),
                &format!("masked S_{n} budget {budget} por off"),
            );
            let on_serial = explore(&masked, &reduced);
            let (on_states, on_leaves) =
                verified(&on_serial, &format!("masked S_{n} budget {budget} por on"));
            assert_eq!(
                on_leaves, off_leaves,
                "masked S_{n} budget {budget}: POR must preserve the \
                 weighted leaf count exactly"
            );
            for threads in [1usize, 2, 8] {
                let threaded = if threads == 1 {
                    reduced.clone()
                } else {
                    parallel_config(&reduced, threads)
                };
                assert_eq!(
                    on_serial,
                    explore(&masked, &threaded),
                    "masked S_{n} budget {budget} threads {threads}: the \
                     reduced engines must agree byte-for-byte"
                );
            }
            // Composed with full-rebind symmetry: still exact, still
            // byte-identical across thread counts.
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
            for threads in [2usize, 8] {
                assert_eq!(
                    sym_on,
                    explore_symmetric(&masked_sym, &parallel_config(&reduced, threads)),
                    "masked S_{n} budget {budget} threads {threads}: the \
                     combined reduction must agree byte-for-byte"
                );
            }
            // Truncating configs: below both state-space sizes the two
            // settings report the identical truncation, serial and
            // parallel.
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
                    let serial = explore(&masked, &capped);
                    assert_eq!(
                        serial,
                        ExploreOutcome::Truncated { states: cap },
                        "masked S_{n} budget {budget} cap {cap} por {setting}: \
                         the cap counts visited nodes exactly"
                    );
                    for threads in [2usize, 8] {
                        assert_eq!(
                            serial,
                            explore(&masked, &parallel_config(&capped, threads)),
                            "masked S_{n} budget {budget} cap {cap} por \
                             {setting} threads {threads}"
                        );
                    }
                }
            }
        }
    }
}

/// Witnesses from a full-rebind symmetric search replay in *original*
/// process ids: the validity-violation schedule reported on the masked
/// system replays, action for action, on the original (never-permuted,
/// never-rebound) masked system — at thread counts 1/2/8.
#[test]
fn rebind_witness_replays_on_the_original_masked_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
    for threads in [1usize, 2, 8] {
        let base = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            inputs: Some(bogus.clone()),
            ..test_config()
        };
        let config = if threads == 1 {
            base
        } else {
            parallel_config(&base, threads)
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
}

/// The **masked-program counterexample**: the broken Fig. 2 guard under
/// input masking. The full-rebind search merges the masked team-B orbit,
/// still finds the Section 3.1 agreement violation, and its witness —
/// un-permuted *and* un-rebound — replays on the original masked broken
/// system to the same agreement failure.
#[test]
fn rebind_search_finds_the_masked_broken_guard_violation() {
    use rc_core::find_recording_witness;
    use rc_spec::types::Cas;
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
    let sym_factory = || build_masked_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..test_config()
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

/// Every storage tier — flat, packed, packed+filter, packed+spill — is
/// the *same* exact search: byte-identical `Verified` outcomes (state
/// and leaf counts) on the E2 systems, serial and with the forced
/// staged pipeline at every matrix thread count. The spill tier runs
/// with a tiny per-shard threshold so resident entries genuinely
/// freeze to disk mid-search.
#[test]
fn storage_tiers_agree_byte_identically() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    for budget in [1usize, 2] {
        let base = ExploreConfig {
            crash: CrashModel::independent(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let reference = explore(&factory, &base);
        assert!(reference.is_verified(), "{reference:?}");
        for tier in StorageTier::ALL {
            let config = ExploreConfig {
                storage: tier,
                spill_threshold: (tier == StorageTier::PackedSpill).then_some(512),
                ..base.clone()
            };
            let (serial, stats) = explore_with_stats(&factory, &config);
            assert_eq!(serial, reference, "serial {tier} budget {budget}");
            assert_eq!(stats.storage, tier);
            if tier == StorageTier::PackedSpill {
                assert!(
                    stats.spilled_bytes > 0,
                    "threshold 512 must spill at budget {budget}"
                );
            }
            if tier == StorageTier::PackedFilter {
                assert!(stats.filter_occupancy > 0);
            }
            for threads in thread_counts() {
                let threaded = explore(&factory, &parallel_config(&config, threads));
                assert_eq!(threaded, reference, "{tier} x{threads} budget {budget}");
            }
        }
    }
}

/// The `max_bytes` cap is exact and storage/thread-independent: the
/// accounted cost model is a pure function of the accepted keys in
/// canonical order, so a byte-capped search truncates at the identical
/// state count under every tier and thread count — and a cap equal to
/// the full space's accounted bytes still verifies. Also pins the
/// routing contract: a byte-capped `threads: 1` run executes on the
/// frontier engine.
#[test]
fn byte_cap_boundary_is_exact_across_tiers_and_threads() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let base = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    // Generous cap: verifies, byte-identically to the uncapped search —
    // but on the frontier engine even serially.
    let reference = explore(&factory, &base);
    let (capped, stats) = explore_with_stats(
        &factory,
        &ExploreConfig {
            max_bytes: Some(1 << 30),
            ..base.clone()
        },
    );
    assert_eq!(capped, reference);
    assert!(
        stats.frontier,
        "byte-capped serial runs must use the frontier engine"
    );
    // Tight cap: truncates, at the same accepted-state count everywhere.
    let mut cut_states: Option<usize> = None;
    for tier in StorageTier::ALL {
        for threads in [1usize, 2, 8] {
            let config = ExploreConfig {
                max_bytes: Some(2_000),
                storage: tier,
                spill_threshold: (tier == StorageTier::PackedSpill).then_some(512),
                threads,
                workers_override: (threads > 1).then_some(threads),
                shards_override: (threads > 1).then_some(threads),
                ..base.clone()
            };
            match explore(&factory, &config) {
                ExploreOutcome::Truncated { states } => {
                    assert!(states > 0, "a 2000-byte cap fits more than the root");
                    match cut_states {
                        None => cut_states = Some(states),
                        Some(expected) => {
                            assert_eq!(states, expected, "byte-cap cut moved: {tier} x{threads}")
                        }
                    }
                }
                other => panic!("2000-byte cap must truncate S_2/budget-2: {other:?}"),
            }
        }
    }
}

/// The memory/occupancy counters in [`rc_runtime::ExploreStats`] are
/// populated and monotone in the searched space: growing the crash
/// budget grows every byte account (more states, more interned values,
/// a longer witness log), on the serial and frontier engines alike.
#[test]
fn memory_counters_are_monotone_in_the_searched_space() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    for threads in [1usize, 2] {
        let mut previous: Option<rc_runtime::ExploreStats> = None;
        for budget in [0usize, 1, 2] {
            let base = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..test_config()
            };
            let config = if threads > 1 {
                parallel_config(&base, threads)
            } else {
                base
            };
            let (outcome, stats) = explore_with_stats(&factory, &config);
            assert!(outcome.is_verified(), "{outcome:?}");
            assert!(stats.interned_bytes > 0);
            assert!(stats.table_bytes > 0);
            assert!(stats.witness_bytes > 0);
            assert!(stats.peak_table_bytes >= stats.table_bytes);
            if let Some(prev) = previous {
                assert!(stats.interned_bytes >= prev.interned_bytes, "x{threads}");
                // Under the spill tier the *resident* table can shrink as
                // the search grows (a bigger search freezes more runs to
                // disk), so monotonicity is asserted on total stored
                // bytes — resident plus spilled.
                assert!(
                    stats.table_bytes + stats.spilled_bytes
                        >= prev.table_bytes + prev.spilled_bytes,
                    "x{threads}"
                );
                assert!(stats.witness_bytes > prev.witness_bytes, "x{threads}");
                assert!(
                    stats.peak_table_bytes >= prev.peak_table_bytes,
                    "x{threads}"
                );
            }
            previous = Some(stats);
        }
    }
}
