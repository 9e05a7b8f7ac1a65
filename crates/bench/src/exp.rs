//! The experiments (E1–E18); each returns a rendered report.

use crate::matrix::{
    col, largest_reduction, render, run_sweep, Column, Expect, ExploreRow, Instance, Run, System,
    BYTE_CAP, CAP, CRASH_BUDGET, LEAVES, MODE, MS, OFF, ON, PEAK_MB, POR, POR_REBIND, RATE, REBIND,
    REDUCTION, SCALARSET, SCALARSET_POR, SLOTS, SLOTS_DECLARED, SPILL_MB, STATES, SYSTEM, TIER,
    UNREDUCED, VERDICT, WITNESS_MB,
};
use crate::snapshot::{Json, JsonRow};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_core::algorithms::{
    build_broken_team_rc_system, build_broken_team_rc_system_sym,
    build_masked_broken_team_rc_system_sym, build_masked_team_consensus_system_sym,
    build_masked_team_rc_system_sym, build_simultaneous_rc_system_sym, build_team_consensus_system,
    build_team_consensus_system_sym, build_team_rc_system, build_team_rc_system_sym,
    build_tournament_consensus, build_tournament_rc, ConsensusObjectFactory,
};
use rc_core::{
    check_discerning, check_recording, compute_hierarchy, find_recording_witness, is_discerning,
    is_recording, set_rcons_bounds, Assignment, RecordingWitness, Team,
};
use rc_runtime::sched::{RandomScheduler, RandomSchedulerConfig, RoundRobin};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{explore, run, CrashModel, ExploreConfig, Memory, Program, RunOptions};
use rc_spec::catalog::{catalog, ConsensusNumber};
use rc_spec::random::{random_table_type, RandomTypeConfig};
use rc_spec::types::{Cas, Sn, Stack, Tn};
use rc_spec::{Operation, TypeHandle, Value};
use std::sync::Arc;

pub(crate) fn sn_witness(n: usize) -> (TypeHandle, RecordingWitness) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    (Arc::new(sn), w)
}

pub(crate) fn team_inputs(w: &Assignment) -> Vec<Value> {
    w.teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect()
}

/// E1 (Fig. 1): check every implication of the diagram on the catalog and
/// on a pile of random deterministic types.
pub fn e1_figure1(random_samples: usize) -> String {
    let mut checked = 0usize;
    let mut rec_implies_disc = 0usize;
    let mut disc_implies_rec2 = 0usize;
    let mut downward = 0usize;
    for seed in 0..random_samples as u64 {
        let ty = random_table_type(
            &mut StdRng::seed_from_u64(seed),
            RandomTypeConfig {
                num_states: 2 + (seed % 3) as usize,
                num_ops: 1 + (seed % 2) as usize,
                num_responses: 2,
            },
        );
        checked += 1;
        for n in 2..=4usize {
            if is_recording(&ty, n) {
                assert!(is_discerning(&ty, n), "Obs. 5 failed on {ty:?}");
                rec_implies_disc += 1;
                if n >= 3 {
                    assert!(is_recording(&ty, n - 1), "Obs. 6 failed on {ty:?}");
                    downward += 1;
                }
            }
        }
        if is_discerning(&ty, 4) {
            assert!(is_recording(&ty, 2), "Thm. 16 failed on {ty:?}");
            disc_implies_rec2 += 1;
        }
        if is_discerning(&ty, 3) {
            assert!(is_recording(&ty, 2), "Prop. 18 failed on {ty:?}");
        }
    }
    let mut t = Table::new(&["implication", "instances verified", "violations"]);
    t.row(&[
        "n-recording ⇒ n-discerning (Obs. 5)".into(),
        rec_implies_disc.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "n-recording ⇒ (n−1)-recording (Obs. 6)".into(),
        downward.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "4-discerning ⇒ 2-recording (Thm. 16/Prop. 18)".into(),
        disc_implies_rec2.to_string(),
        "0".into(),
    ]);
    format!(
        "E1 — Figure 1 implications on {checked} random deterministic types \
         (plus the proptest suite in tests/):\n{}",
        t.render()
    )
}

/// E2 (Fig. 2): the recoverable team consensus algorithm — exhaustive and
/// randomized verification, plus the Section 3.1 broken-guard scenario.
pub fn e2_team_rc(seeds: u64) -> String {
    let mut t = Table::new(&[
        "type",
        "n",
        "model-checked states",
        "random schedules",
        "crashes injected",
        "violations",
    ]);
    for n in [2usize, 3] {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let outcome = explore(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            &ExploreConfig {
                crash: CrashModel::independent(2).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            },
        );
        let states = match outcome {
            rc_runtime::ExploreOutcome::Verified { states, .. } => states.to_string(),
            other => panic!("Fig. 2 must verify: {other:?}"),
        };
        let mut crashes = 0usize;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_team_rc_system(ty.clone(), &w, &inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.25,
                crash: CrashModel::independent(5).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            crashes += exec.crashes;
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
        }
        t.row(&[
            format!("S_{n}"),
            n.to_string(),
            states,
            seeds.to_string(),
            crashes.to_string(),
            violations.to_string(),
        ]);
    }
    // The broken variant (guard removed) must violate agreement.
    let cas: TypeHandle = Arc::new(Cas::new(2));
    let w = find_recording_witness(&cas, 3)
        .expect("CAS witness")
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
    let inputs = team_inputs(&w.assignment);
    let outcome = explore(
        &|| build_broken_team_rc_system(cas.clone(), &w, &inputs),
        &ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        },
    );
    let broken = match outcome {
        rc_runtime::ExploreOutcome::Violation { schedule, .. } => format!(
            "violation found in {} scheduler steps (no crashes needed)",
            schedule.len()
        ),
        other => panic!("the broken guard must fail: {other:?}"),
    };
    format!(
        "E2 — Fig. 2 recoverable team consensus:\n{}\nbroken |B|=1 guard \
         (Section 3.1 scenario): {broken}\n",
        t.render()
    )
}

/// E3 (Fig. 4 / Theorem 1): the simultaneous-crash transformation — and
/// the two-part independent-crash ablation (safety survives, liveness
/// does not).
pub fn e3_simultaneous(seeds: u64) -> String {
    // Part 1: rounds used vs simultaneous crash count.
    let mut t = Table::new(&[
        "crash budget",
        "schedules",
        "violations",
        "max rounds used",
        "avg steps",
    ]);
    use rc_core::algorithms::{alloc_simultaneous_rc, SimultaneousRc};
    let factory = ConsensusObjectFactory { domain: 8 };
    let inputs: Vec<Value> = (0..4).map(Value::Int).collect();
    for budget in [0usize, 2, 4, 6] {
        let mut violations = 0usize;
        let mut max_rounds = 0usize;
        let mut steps = 0usize;
        for seed in 0..seeds {
            let horizon = budget + 4;
            let mut mem = Memory::new();
            let shared = alloc_simultaneous_rc(&mut mem, &factory, inputs.len(), horizon);
            let mut programs: Vec<Box<dyn Program>> = inputs
                .iter()
                .enumerate()
                .map(|(pid, input)| {
                    Box::new(SimultaneousRc::new(
                        shared.clone(),
                        pid,
                        inputs.len(),
                        input.clone(),
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.05,
                crash: CrashModel::simultaneous(budget).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            steps += exec.steps;
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
            // Rounds actually used = highest non-⊥ D register.
            let rounds_used = shared
                .d_regs
                .iter()
                .rposition(|a| !mem.peek(*a).is_bottom())
                .map_or(0, |r| r + 1);
            max_rounds = max_rounds.max(rounds_used);
        }
        t.row(&[
            budget.to_string(),
            seeds.to_string(),
            violations.to_string(),
            max_rounds.to_string(),
            (steps / seeds as usize).to_string(),
        ]);
    }
    // Part 2: the independent-crash chase (liveness failure).
    let mut chase = Table::new(&["p0 crashes (independent)", "rounds forced on crash-free p1"]);
    for budget in [4usize, 8, 16, 32] {
        let dragged = starvation_rounds(budget);
        chase.row(&[budget.to_string(), dragged.to_string()]);
    }
    format!(
        "E3 — Fig. 4 under simultaneous crashes (safety + termination):\n{}\n\
         E3b — the same transform under INDEPENDENT crashes: safety still \
         holds (0 violations in the randomized hunt; the Round-guard makes \
         every consensus instance once-per-process), but a never-crashing \
         process is dragged through unboundedly many rounds — recoverable \
         wait-freedom fails, which is exactly why Theorem 1 needs the \
         simultaneous model:\n{}",
        t.render(),
        chase.render()
    )
}

fn starvation_rounds(crash_budget: usize) -> usize {
    use rc_core::algorithms::{alloc_simultaneous_rc, SimultaneousRc};
    use rc_runtime::Step;
    let factory = ConsensusObjectFactory { domain: 4 };
    let mut mem = Memory::new();
    let shared = alloc_simultaneous_rc(&mut mem, &factory, 2, crash_budget + 4);
    let round_reg_p0 = shared.round_regs[0];
    let mut p0 = SimultaneousRc::new(shared.clone(), 0, 2, Value::Int(0));
    let mut p1 = SimultaneousRc::new(shared, 1, 2, Value::Int(1));
    let mut crashes = 0usize;
    while crashes < crash_budget {
        while mem.peek(round_reg_p0).as_int().expect("int") <= p1.current_round() as i64 {
            if let Step::Decided(_) = p0.step(&mut mem) {
                p0.on_crash();
                crashes += 1;
                if crashes >= crash_budget {
                    break;
                }
            }
        }
        if crashes >= crash_budget {
            break;
        }
        let target = p1.current_round() + 1;
        while p1.current_round() < target {
            if let Step::Decided(_) = p1.step(&mut mem) {
                unreachable!("p1 cannot decide while p0 is ahead");
            }
        }
    }
    p1.current_round()
}

/// E4 (Fig. 5 / Prop. 19): the `T_n` family — the gap between the two
/// hierarchies.
pub fn e4_tn(max_n: usize) -> String {
    let mut t = Table::new(&[
        "n",
        "discerning (= cons)",
        "max recording",
        "rcons interval",
        "gap cons − rcons_hi",
    ]);
    for n in 4..=max_n {
        let report = compute_hierarchy(&Tn::new(n), n + 1);
        let hi = report.rcons_upper().expect("finite");
        t.row(&[
            n.to_string(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            format!("[{}, {}]", report.rcons_lower(), hi),
            (n - hi).to_string(),
        ]);
    }
    format!(
        "E4 — T_n (Fig. 5): n-discerning but not (n−1)-recording; \
         rcons(T_n) < cons(T_n) = n (Corollary 20):\n{}\n{}",
        t.render(),
        rc_spec::diagram::render_transitions(&Tn::new(4), &Tn::forget_state())
    )
}

/// E5 (Fig. 6 / Prop. 21): the `S_n` family — every RC level is populated.
pub fn e5_sn(max_n: usize) -> String {
    let mut t = Table::new(&["n", "discerning (= cons)", "max recording", "rcons"]);
    for n in 2..=max_n {
        let report = compute_hierarchy(&Sn::new(n), n + 1);
        let hi = report.rcons_upper().expect("finite");
        let lo = report.rcons_lower();
        assert_eq!(lo, hi, "Prop. 21: rcons(S_n) is exact");
        t.row(&[
            n.to_string(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            lo.to_string(),
        ]);
    }
    format!(
        "E5 — S_n (Fig. 6): rcons(S_n) = cons(S_n) = n (Proposition 21):\n{}\n{}",
        t.render(),
        rc_spec::diagram::render_transitions(&Sn::new(3), &Sn::q0())
    )
}

/// E6 (Fig. 7): RUniversal exactly-once vs the recovery-less baseline.
pub fn e6_universal(seeds: u64) -> String {
    use rc_universal::{audit_history, RUniversalWorker, UniversalLayout};
    let mut t = Table::new(&[
        "crash prob",
        "schedules",
        "crashes",
        "audit failures",
        "duplicate/lost ops",
    ]);
    let n = 3;
    let ops_per = 3;
    for crash_prob in [0.0, 0.02, 0.05] {
        let mut crashes = 0usize;
        let mut audit_failures = 0usize;
        let mut wrong_counts = 0usize;
        for seed in 0..seeds {
            let mut mem = Memory::new();
            let pool = 1 + n * ops_per;
            let layout = UniversalLayout::alloc(
                &mut mem,
                Arc::new(rc_spec::types::Counter::new(4096)),
                Value::Int(0),
                n,
                ops_per,
                &ConsensusObjectFactory {
                    domain: pool as u32,
                },
            );
            let mut programs: Vec<Box<dyn Program>> = (0..n)
                .map(|pid| {
                    Box::new(RUniversalWorker::new(
                        layout.clone(),
                        pid,
                        vec![Operation::nullary("inc"); ops_per],
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob,
                crash: CrashModel::independent(5),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            crashes += exec.crashes;
            match audit_history(&mem, &layout) {
                Ok(report) => {
                    if report.order.len() != n * ops_per {
                        wrong_counts += 1;
                    }
                }
                Err(_) => audit_failures += 1,
            }
        }
        t.row(&[
            format!("{crash_prob:.2}"),
            seeds.to_string(),
            crashes.to_string(),
            audit_failures.to_string(),
            wrong_counts.to_string(),
        ]);
    }
    // Ablation 1: the recovery-less baseline's duplicate rate under the
    // same random crash regime (at-least-once semantics).
    let mut herlihy = Table::new(&["crash prob", "schedules", "runs with duplicated ops"]);
    for crash_prob in [0.02, 0.05] {
        let mut duplicated = 0usize;
        for seed in 0..seeds {
            let mut mem = Memory::new();
            let slots = ops_per + 6; // room for retries
            let pool = 1 + n * slots;
            let layout = rc_universal::UniversalLayout::alloc(
                &mut mem,
                Arc::new(rc_spec::types::Counter::new(4096)),
                Value::Int(0),
                n,
                slots,
                &ConsensusObjectFactory {
                    domain: pool as u32,
                },
            );
            let mut programs: Vec<Box<dyn Program>> = (0..n)
                .map(|pid| {
                    Box::new(rc_universal::HerlihyWorker::new(
                        layout.clone(),
                        pid,
                        vec![Operation::nullary("inc"); ops_per],
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob,
                crash: CrashModel::independent(5),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if !exec.all_decided {
                continue;
            }
            if let Ok(report) = rc_universal::audit_history(&mem, &layout) {
                if report.order.len() > n * ops_per {
                    duplicated += 1;
                }
            }
        }
        herlihy.row(&[
            format!("{crash_prob:.2}"),
            seeds.to_string(),
            duplicated.to_string(),
        ]);
    }

    // Ablation 2: the per-node RC instances implemented by Fig. 2
    // tournaments over the WEAK type S_3 (with Appendix F input masking) —
    // end-to-end universality from a recording type.
    let weak = {
        let sn: TypeHandle = Arc::new(Sn::new(3));
        let witness = find_recording_witness(&sn, 3).expect("S_3 records");
        let factory = rc_core::algorithms::tournament_rc_factory(sn, witness);
        let workload = rc_universal::Workload::uniform(3, vec![Operation::nullary("inc"); 2]);
        let mut ok = 0usize;
        let runs = seeds.min(25);
        for seed in 0..runs {
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.01,
                crash: CrashModel::independent(3),
            });
            let outcome = rc_universal::run_workload(
                Arc::new(rc_spec::types::Counter::new(256)),
                Value::Int(0),
                &workload,
                &factory,
                &mut sched,
            );
            if outcome.is_exactly_once() {
                ok += 1;
            }
        }
        format!("{ok}/{runs} schedules exactly-once (must be {runs}/{runs})")
    };

    format!(
        "E6 — RUniversal (Fig. 7), recoverable counter, {n} processes × \
         {ops_per} ops, per-node RC = consensus objects:\n{}\n\
         E6b — recovery-less Herlihy baseline under the same crashes \
         (at-least-once: duplicates appear):\n{}\n\
         E6c — per-node RC = Fig. 2 tournaments over S_3 with Appendix F \
         input masking: {weak}\n",
        t.render(),
        herlihy.render()
    )
}

/// E7 (Fig. 8 / Appendix H): the stack.
pub fn e7_stack() -> String {
    use rc_core::analysis::{analyze_pairs, PairConflict};
    let stack = Stack::new(3, 2);
    let rows = analyze_pairs(&stack);
    let mut commute = 0usize;
    let mut overwrite = 0usize;
    let mut same = 0usize;
    let mut clean = 0usize;
    for r in &rows {
        if r.conflicts.is_empty() {
            clean += 1;
        }
        for c in &r.conflicts {
            match c {
                PairConflict::Commute => commute += 1,
                PairConflict::FirstOverwritesSecond | PairConflict::SecondOverwritesFirst => {
                    overwrite += 1
                }
                PairConflict::SameEffect => same += 1,
            }
        }
    }
    let mut t = Table::new(&["pair classification (all q0 × op × op)", "count"]);
    t.row(&["commute (Fig. 8a)".into(), commute.to_string()]);
    t.row(&["overwrite (Fig. 8b)".into(), overwrite.to_string()]);
    t.row(&["identical effect".into(), same.to_string()]);
    t.row(&[
        "conflict-free (recording witnesses)".into(),
        clean.to_string(),
    ]);
    format!(
        "E7 — the stack (Appendix H): cons(stack) = 2, rcons(stack) = 1.\n{}\
         The conflict-free pairs are push-only witnesses: the stack IS \
         structurally n-recording, but it is NOT readable, so Theorem 8 \
         yields no algorithm — and the crash adversary defeats both \
         recoverable extensions of the classic 2-process protocol \
         (model-checked in tests/stack_impossibility.rs: ⊥-means-lost \
         breaks with 1 crash, ⊥-means-won with 2).\n{}",
        t.render(),
        e7_valency_summary()
    )
}

/// The Fig. 8 valency mechanics, summarized for the E7 table (full
/// walkthrough in tests/fig8_mechanics.rs).
fn e7_valency_summary() -> String {
    use rc_core::valency::{find_critical, replay, System};
    use rc_runtime::{MemOps, Program, Step};

    #[derive(Clone, Debug)]
    struct StackConsensus {
        stack: rc_runtime::Addr,
        my_reg: rc_runtime::Addr,
        other_reg: rc_runtime::Addr,
        input: Value,
        pc: u8,
    }
    impl Program for StackConsensus {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    mem.write_register(self.my_reg, self.input.clone());
                    self.pc = 1;
                    Step::Running
                }
                1 => {
                    let popped = mem.apply(self.stack, &Operation::nullary("pop"));
                    self.pc = if popped == Value::Int(1) { 2 } else { 3 };
                    Step::Running
                }
                2 => Step::Decided(self.input.clone()),
                _ => Step::Decided(mem.read_register(self.other_reg)),
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

    let factory = || {
        let mut mem = Memory::new();
        let stack = mem.alloc_object(
            Arc::new(Stack::new(4, 2)),
            Value::List(vec![Value::Int(0), Value::Int(1)]),
        );
        let regs = [
            mem.alloc_register(Value::Bottom),
            mem.alloc_register(Value::Bottom),
        ];
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|i| {
                Box::new(StackConsensus {
                    stack,
                    my_reg: regs[i],
                    other_reg: regs[1 - i],
                    input: Value::Int(i as i64 + 10),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        System::new(mem, programs)
    };
    let critical = find_critical(&factory).expect("critical execution exists");
    let mut branch_a = replay(&factory, &critical.schedule);
    branch_a.step(0);
    branch_a.step(1);
    let mut branch_b = replay(&factory, &critical.schedule);
    branch_b.step(1);
    branch_b.step(0);
    let commute = branch_a.mem.state_key() == branch_b.mem.state_key();
    branch_a.crash(0);
    branch_b.crash(0);
    let x_a = branch_a.run_solo(0, 100);
    let x_b = branch_b.run_solo(0, 100);
    format!(
        "Fig. 8 valency mechanics: critical execution after {} steps; the two \
         poised pops commute ({}); after a crash of p1 its recovery run decides \
         {} in both branches — contradicting the distinct committed valencies \
         {:?} (the paper's Lemma-15 move, executed).\n",
        critical.schedule.len(),
        commute,
        x_a,
        critical
            .commitments
            .iter()
            .map(|(p, v)| format!("p{}→{}", p + 1, v))
            .collect::<Vec<_>>()
    )
    .replace("decides Int(", "decides (")
        + if x_a == x_b {
            ""
        } else {
            "(branches distinguishable?!)"
        }
}

/// E8 (Corollary 17): the full catalog survey.
pub fn e8_catalog() -> String {
    let mut t = Table::new(&[
        "type",
        "readable",
        "discerning",
        "recording",
        "computed rcons",
        "published cons",
        "published rcons",
    ]);
    for entry in catalog() {
        let cap = match entry.known_cons {
            ConsensusNumber::Finite(n) => (n + 2).min(8),
            ConsensusNumber::Infinite => 5,
        };
        let report = compute_hierarchy(&entry.object, cap);
        assert!(report.satisfies_corollary_17(), "{}", entry.id);
        let rcons = match (report.rcons_lower(), report.rcons_upper()) {
            (lo, Some(hi)) if lo == hi => lo.to_string(),
            (lo, Some(hi)) => format!("[{lo}, {hi}]"),
            (lo, None) => format!("≥{lo}"),
        };
        t.row(&[
            entry.id.to_string(),
            if report.readable { "yes" } else { "no" }.into(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            rcons,
            entry.known_cons.to_string(),
            entry.known_rcons.to_string(),
        ]);
    }
    format!(
        "E8 — hierarchy survey (Corollary 17: cons − 2 ≤ rcons ≤ cons for \
         readable types):\n{}",
        t.render()
    )
}

/// E9 (Theorem 22): RC power of *sets* of types.
pub fn e9_sets() -> String {
    let mut t = Table::new(&["type set", "max individual rcons (lo)", "set rcons bounds"]);
    let pairs: Vec<(&str, Vec<TypeHandle>)> = vec![
        (
            "{S_2, S_3}",
            vec![Arc::new(Sn::new(2)), Arc::new(Sn::new(3))],
        ),
        (
            "{S_3, test-and-set}",
            vec![
                Arc::new(Sn::new(3)),
                Arc::new(rc_spec::types::TestAndSet::new()),
            ],
        ),
        (
            "{T_4, S_4}",
            vec![Arc::new(Tn::new(4)), Arc::new(Sn::new(4))],
        ),
    ];
    for (name, types) in pairs {
        let reports: Vec<_> = types.iter().map(|ty| compute_hierarchy(ty, 6)).collect();
        let max_lo = reports
            .iter()
            .map(|r| r.rcons_lower())
            .max()
            .expect("nonempty");
        let (lo, hi) = set_rcons_bounds(&reports);
        let hi = hi.map_or("∞?".into(), |h| h.to_string());
        t.row(&[name.into(), max_lo.to_string(), format!("[{lo}, {hi}]")]);
    }
    format!(
        "E9 — Theorem 22: a set of readable types is at most one level \
         stronger than its strongest member:\n{}",
        t.render()
    )
}

/// E10: the headline table — per type, the largest n where ordinary
/// consensus is *executably* solvable vs the recoverable bounds.
pub fn e10_headline(seeds: u64) -> String {
    let mut t = Table::new(&[
        "type",
        "consensus solvable at n (verified crash-free)",
        "RC solvable at n (verified under crashes)",
        "RC impossible at n (theory)",
        "crash counterexample",
    ]);
    for n in [4usize, 6] {
        let tn = Tn::new(n);
        let ty: TypeHandle = Arc::new(Tn::new(n));
        let w = check_discerning(
            &tn,
            &Assignment::split(
                Tn::forget_state(),
                vec![Tn::op_a(); n / 2],
                vec![Tn::op_b(); n.div_ceil(2)],
            ),
        )
        .expect("T_n witness");
        // Consensus at n: crash-free execution check.
        let inputs = team_inputs(&w.assignment);
        let (mut mem, mut programs) = build_team_consensus_system(ty.clone(), &w, &inputs);
        let exec = run(
            &mut mem,
            &mut programs,
            &mut RoundRobin::new(),
            RunOptions::default(),
        );
        check_consensus_execution(&exec, &inputs).expect("Theorem 3 crash-free");
        // RC at n−2: tournament over the (n−2)-recording witness.
        let rw = find_recording_witness(&ty, n - 2).expect("Theorem 16");
        let rc_inputs: Vec<Value> = (0..(n - 2) as i64).map(Value::Int).collect();
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_tournament_rc(ty.clone(), &rw, &rc_inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.2,
                crash: CrashModel::independent(4).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if check_consensus_execution(&exec, &rc_inputs).is_err() {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
        t.row(&[
            format!("T_{n}"),
            format!("{n} ✓"),
            format!("{} ✓ ({seeds} crash schedules)", n - 2),
            format!("{n} (not (n−1)-recording + Thm 14)"),
            "1 crash breaks Thm-3 consensus (E2/adversary)".into(),
        ]);
    }
    for n in [3usize, 5] {
        let (ty, w) = sn_witness(n);
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_tournament_rc(ty.clone(), &w, &inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.2,
                crash: CrashModel::independent(4).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
        t.row(&[
            format!("S_{n}"),
            format!("{n} ✓"),
            format!("{n} ✓ ({seeds} crash schedules)"),
            format!("{} (not ({n}+1)-recording…)", n + 1),
            "none: rcons = cons".into(),
        ]);
    }
    format!(
        "E10 — when is recoverable consensus harder than consensus?\n\
         For T_n: strictly harder (gap ≥ 1 level); for S_n: not harder.\n{}",
        t.render()
    )
}

/// E11's sweep: Fig. 2 team RC over `S_n` × crash budgets, unreduced.
/// Bigger systems get smaller budgets to keep the exact search inside
/// the default state cap. The adversary matches E2: independent crashes,
/// post-decide crashes enabled, validity inputs declared.
pub(crate) fn e11_sweep(fast: bool) -> Vec<Instance> {
    let sweep: &[(usize, &[usize])] = if fast {
        &[(2, &[0, 1, 2]), (3, &[0, 1, 2]), (4, &[0, 1])]
    } else {
        &[
            (2, &[0, 1, 2]),
            (3, &[0, 1, 2]),
            (4, &[0, 1, 2]),
            (5, &[0, 1]),
        ]
    };
    sweep
        .iter()
        .flat_map(|&(n, budgets)| {
            budgets
                .iter()
                .map(move |&b| Instance::independent(System::Fig2 { n }, b).modes(&[OFF]))
        })
        .collect()
}

/// E11: model-checker engine scaling — states/sec and peak state counts
/// of the serial DFS on the Fig. 2 team-RC workload (`e11_sweep`).
///
/// State and leaf counts are deterministic; wall-clock figures are
/// machine-dependent (`BENCH_explore.json` tracks them across PRs on
/// the reference machine — the seed recursive engine's last recorded
/// baseline lives in EXPERIMENTS.md §E11 and the git history of that
/// file, the engine itself is deleted).
pub fn e11_explore_scaling(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E11", &e11_sweep(fast));
    let report = format!(
        "E11 — model-checker engine scaling (Fig. 2 team-RC workload, \
         independent crashes, post-decide enabled):\n{}\nstates/leaves \
         are deterministic, wall-clock is machine-dependent.\n",
        render(
            &rows,
            &[SYSTEM, CRASH_BUDGET, VERDICT, STATES, LEAVES, MS, RATE]
        )
    );
    (report, rows)
}

/// E12's sweep: Fig. 2 team RC over `S_3..S_6` × crash budgets with
/// symmetry off and on, plus (full sweep only — the off side costs a
/// cap-length run) the `S_8`/budget-0 cap-exceed demonstration.
pub(crate) fn e12_sweep(fast: bool) -> Vec<Instance> {
    let sweep: &[(usize, &[usize])] = if fast {
        &[(3, &[1, 2]), (4, &[1])]
    } else {
        &[(3, &[1, 2]), (4, &[1, 2]), (5, &[0, 1]), (6, &[0, 1])]
    };
    let instance = |n: usize, budget: usize| {
        Instance::independent(System::Fig2 { n }, budget).modes(&[OFF, ON])
    };
    let mut instances: Vec<Instance> = sweep
        .iter()
        .flat_map(|&(n, budgets)| {
            budgets
                .iter()
                .map(move |&b| instance(n, b).expect(&[Expect::AllVerify, Expect::Fewer(ON, OFF)]))
        })
        .collect();
    if !fast {
        instances.push(instance(8, 0).expect(&[Expect::Truncates(OFF), Expect::Verifies(ON)]));
    }
    instances
}

/// E12: process-symmetry reduction — states visited and states/sec with
/// symmetry off vs on on the Fig. 2 team-RC workload (`e12_sweep`):
/// `S_8`/budget-0 exceeds the default 5M-state cap without symmetry
/// (`Truncated`) and reaches an exact `Verified` verdict with it.
///
/// The `S_n` witness has one team-A row and `n − 1` identical team-B
/// rows, so the symmetric search collapses the team-B orbit — up to
/// `(n−1)!` states per class. Verdicts and (weighted) leaf counts are
/// asserted identical between the off and on rows of every
/// both-verifying configuration.
pub fn e12_symmetry_reduction(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E12", &e12_sweep(fast));
    // E12's modes are symmetry off/on, so its mode column reads `symmetry`.
    let mut columns = REDUCTION_COLUMNS;
    columns[3] = col("symmetry", MODE.cell);
    let cap_note = if fast {
        "(the S_8 cap-exceed demonstration runs in the full sweep only)"
    } else {
        "the S_8/budget-0 rows show an instance the plain engine cannot finish \
         within the default cap that the symmetric engine verifies exactly"
    };
    let report = format!(
        "E12 — process-symmetry reduction (Fig. 2 team-RC workload; the team-B \
         orbit of the S_n witness collapses, up to (n−1)! states per class):\n{}\n\
         largest recorded reduction: {}; verdicts and weighted \
         leaf counts are identical with symmetry off and on (asserted), witness \
         schedules stay in original process ids, and {cap_note}.\n",
        render(&rows, &columns),
        largest_reduction(&rows, ON),
    );
    (report, rows)
}

/// E13's sweep: masked `S_n` instances under off / slots / rebind, and
/// one Fig. 4 instance under off and its scalarset declaration. The off
/// search of masked `S_7`/`S_8` at budget 0 is a cap-length run (~5M
/// states), so the fast sweep skips those sizes and the full sweep
/// measures the (identical-by-construction) slots rows only where the
/// off side verifies quickly.
pub(crate) fn e13_sweep(fast: bool) -> Vec<Instance> {
    // (n, budget, slots row) per masked instance.
    let masked: &[(usize, usize, bool)] = if fast {
        &[(4, 0, true), (4, 1, true), (5, 0, false)]
    } else {
        &[
            (5, 0, true),
            (5, 1, true),
            (6, 0, true),
            (7, 0, false),
            (8, 0, false),
        ]
    };
    let mut instances: Vec<Instance> = masked
        .iter()
        .map(|&(n, budget, slots)| {
            let inst = Instance::independent(System::MaskedFig2 { n }, budget);
            let inst = if slots {
                inst.modes(&[SLOTS]).expect(&[Expect::Same(SLOTS, OFF)])
            } else {
                inst
            };
            inst.modes(&[OFF, REBIND])
                .expect(&[Expect::Verifies(REBIND), Expect::Fewer(REBIND, OFF)])
        })
        .collect();
    // Fig. 4 under all-distinct inputs: every orbit is a singleton, so
    // the certified scalarset declaration is inert and the quotient is
    // the identity (the E14 audit warns exactly this); E17 measures the
    // acting-orbit instances, where the same declaration reduces.
    instances.push(
        Instance::simultaneous(System::fig4(&[0, 1, 2]), 1)
            .modes(&[OFF, SLOTS_DECLARED])
            .expect(&[Expect::Same(SLOTS_DECLARED, OFF)]),
    );
    instances
}

/// E13: **full-state** symmetry via `Program::rebind` — the systems
/// PR 4's slots-only reduction had to keep asymmetric because each
/// process owns distinguishing shared cells (`e13_sweep`). Three modes
/// per masked instance:
///
/// * `off` — the plain engine;
/// * `slots` — the strongest slots-only declaration that is *sound* on
///   these systems. For masked programs that is the singleton-orbit
///   (trivial) spec: a non-singleton slots declaration is rejected by
///   the orbit reference-consistency validation (the mask registers are
///   per-process distinguishing state), so `slots` is byte-identical to
///   `off` — which is precisely the point of the column;
/// * `rebind` — the mask registers are declared *owned*
///   (`SymmetrySpec::with_owned_cells`), permute together with their
///   owners, and relocated wrappers are rebound (`Program::rebind`).
///
/// The masked `S_7`/`S_8` budget-0 instances exceed the default 5M-state
/// cap without rebind (`Truncated`) and verify exactly with it —
/// reductions are then reported as lower bounds. Fig. 4
/// (`SimultaneousRc`) rows run `off`/`slots` only: its per-process round
/// registers are read by *every* process (the line-44 termination scan),
/// so no owned-cell declaration is sound — the validator rejects it
/// (tested in `rc-core`). The registers reduce under the certified
/// *scalarset* kind instead (E17); here the all-distinct inputs leave
/// every orbit a singleton, so the family is inert and the sym row is
/// byte-identical to `off`.
pub fn e13_full_state_symmetry(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E13", &e13_sweep(fast));
    let cap_note = if fast {
        "(the Truncated-without-rebind demonstrations on masked S_7/S_8 run \
         in the full sweep only)"
    } else {
        "the masked S_7/S_8 budget-0 rows exceed the default cap without \
         rebind and verify exactly with it — their reductions are lower \
         bounds"
    };
    let report = format!(
        "E13 — full-state symmetry via Program::rebind (input-masked Fig. 2 \
         team-RC: per-process mask registers permute with their owners; \
         slots-only must keep masked processes in singleton orbits, so it \
         equals off — asserted):\n{}\n\
         largest recorded reduction: {}; Verified \
         rebind rows match off verdicts and weighted leaf counts exactly \
         (asserted), witnesses replay in original pids (tested), and \
         {cap_note}. Fig. 4 (SimultaneousRc) rows stay slots-only here: \
         every process scans every round register (line 44), so \
         owned-cell round-register orbits are *rejected* by the \
         owner-only soundness validation (tested in rc-core) — the \
         registers reduce under the certified *scalarset* fragment \
         instead (E17).\n",
        render(&rows, &REDUCTION_COLUMNS),
        largest_reduction(&rows, REBIND),
    );
    (report, rows)
}

/// The columns E13, E15 and E17 print.
const REDUCTION_COLUMNS: [Column; 10] = [
    SYSTEM,
    CRASH_BUDGET,
    CAP,
    MODE,
    VERDICT,
    STATES,
    LEAVES,
    MS,
    RATE,
    REDUCTION,
];

/// E15's sweep: masked team-RC instances under off / por / rebind /
/// por+rebind — budget 0, independent budget 1 (the honest negative:
/// sleep-set node splitting outweighs the pruning) and CrashAll
/// budget 1, where masked `S_7`/`S_8` exceed the cap plain and under
/// POR alone — and Fig. 4 under off / por, where POR's headroom comes
/// from laggards: a process still proposing to an already-settled
/// round's consensus object commutes with every process ahead of it.
pub(crate) fn e15_sweep(fast: bool) -> Vec<Instance> {
    let masked = |n: usize, budget: usize, simultaneous: bool| {
        let system = System::MaskedFig2 { n };
        let inst = if simultaneous {
            Instance::simultaneous(system, budget).label(format!("masked S_{n} (CrashAll)"))
        } else {
            Instance::independent(system, budget)
        };
        // Crash-free: POR must prune interleavings, and the composition
        // must beat symmetry alone.
        let crash_free: &[Expect] = match budget {
            0 => &[Expect::Fewer(POR, OFF), Expect::Fewer(POR_REBIND, REBIND)],
            _ => &[],
        };
        // The CrashAll post-crash layer prunes like a crash-free search,
        // so POR stacks on top of the rebind orbit collapse.
        let crash_all: &[Expect] = if simultaneous {
            &[
                Expect::Verifies(REBIND),
                Expect::Verifies(POR_REBIND),
                Expect::Fewer(POR_REBIND, REBIND),
                Expect::Fewer(POR, OFF),
            ]
        } else {
            &[]
        };
        inst.modes(&[OFF, POR, REBIND, POR_REBIND])
            .expect(crash_free)
            .expect(crash_all)
    };
    let mut instances = if fast {
        vec![masked(4, 0, false), masked(4, 1, false), masked(4, 1, true)]
    } else {
        vec![
            masked(5, 0, false),
            masked(5, 1, false),
            masked(5, 1, true),
            masked(7, 1, true),
            masked(8, 1, true),
        ]
    };
    let budgets: &[usize] = if fast { &[1] } else { &[0, 1] };
    for &budget in budgets {
        instances.push(
            Instance::simultaneous(System::fig4(&[0, 1, 2]), budget)
                .modes(&[OFF, POR])
                .expect(&[Expect::Fewer(POR, OFF)]),
        );
    }
    instances
}

/// E15: footprint-driven **partial-order reduction** (persistent +
/// sleep sets over the per-local-state access maps of
/// [`rc_runtime::analyze_system_states`], enabled by
/// `ExploreConfig::por`) — alone, against full-state symmetry, and
/// composed with it (`e15_sweep`). Fig. 4 (`SimultaneousRc`) runs
/// off / por only here: E13 showed no *owned-cell* orbit is sound there
/// (every process scans every round register), so within this sweep POR
/// is the reducer that still applies — E17 adds the certified
/// *scalarset* reduction and composes it with POR.
///
/// Where the reduction lives: crash transitions are dependent with
/// everything (the `CrashModel` adversary must stay complete), so a
/// node whose crash budget is not exhausted expands fully and the
/// pruning happens in **crash-free regions** — all of a budget-0 run,
/// and the post-crash layers of budget-≥1 runs. State counts are not
/// monotone under POR: sleep masks are part of node identity (what
/// keeps the search deterministic), so a state re-reached along paths
/// with incomparable sleep sets splits into several entries, and the
/// sweep records the configurations where that cost outweighs the
/// pruning (reduction below 1.0×). Verified reduced rows are asserted to
/// match the off rows' verdicts and weighted leaf counts exactly in
/// every mode.
pub fn e15_por_reduction(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E15", &e15_sweep(fast));
    let cap_note = if fast {
        "(the masked S_7/S_8 CrashAll budget-1 composition rows run in \
         the full sweep only)"
    } else {
        "the masked S_7/S_8 CrashAll budget-1 rows exceed the default \
         cap both plain and under POR alone and verify exactly under \
         rebind and por+rebind, por+rebind strictly below rebind — the \
         composition verifies instances neither reducer alone can \
         finish, and its reductions are lower bounds"
    };
    let report = format!(
        "E15 — footprint-driven partial-order reduction (persistent + \
         sleep sets over the per-local-state access maps; crash \
         transitions and decisions stay dependent with everything, so \
         the CrashModel adversary is complete and the pruning lives in \
         crash-free regions):\n{}\n\
         largest recorded POR-alone reduction: {}; \
         Verified reduced rows match off verdicts and weighted leaf \
         counts exactly (asserted). SimultaneousRc — which no sound \
         *owned-cell* declaration can touch (E13; the certified \
         scalarset fragment reduces it in E17) — reduces under POR, and \
         on budget-0 and CrashAll instances por+rebind beats rebind \
         alone (asserted): the reducers compose. The independent \
         budget-1 rows are the honest cost datapoint — many \
         single-process crash children re-reach post-crash states with \
         incomparable sleep sets, and the node splitting outweighs the \
         pruning (below 1.0×). Also {cap_note}.\n",
        render(&rows, &REDUCTION_COLUMNS),
        largest_reduction(&rows, POR),
    );
    (report, rows)
}

/// E16's sweep: the catalog instances the default cap recorded as
/// `Truncated` (E12's `S_8`/budget-0 off row, E13's masked
/// `S_7`/budget-0 off row) re-run unreduced — a baseline at the
/// historical cap, then resident, spilling and byte-capped at a lifted
/// cap — and, on the masked instance, under por+rebind resident and
/// spilling. Fast mode shrinks both caps (masked `S_4`/0, `S_4`/2).
/// The weighted leaf counts are the ones the catalog's *reduced*
/// searches (E12 symmetry-on, E13 rebind) computed for the same
/// instances.
pub(crate) fn e16_sweep(fast: bool) -> Vec<Instance> {
    // Small enough that every lifted-cap spill row freezes runs; run
    // probes stay cheap behind the per-run Blooms.
    let spill = if fast { 4 << 10 } else { 8 << 20 };
    let byte_cap = if fast { 256 << 20 } else { 8 << 30 };
    let (baseline, lifted) = if fast {
        (1_000, 5_000_000)
    } else {
        (5_000_000, 20_000_000)
    };
    let instance = |system: System, budget: usize, expect: &[Expect]| {
        let masked = matches!(system, System::MaskedFig2 { .. });
        let inst = Instance::independent(system, budget)
            .cap(lifted)
            .runs(&[
                Run::of(UNREDUCED).baseline(baseline),
                Run::of(UNREDUCED),
                Run::of(UNREDUCED).spill(spill),
                Run::of(UNREDUCED).spill(spill).byte_cap(byte_cap),
            ])
            .expect(&[Expect::AllVerify, Expect::Spills(UNREDUCED)])
            .expect(expect);
        if !masked {
            return inst;
        }
        // The composed reducers, resident and spilling: the storage
        // layer must stay exact under the reduced search too.
        inst.runs(&[Run::of(POR_REBIND), Run::of(POR_REBIND).spill(spill)])
            .expect(&[Expect::Fewer(POR_REBIND, UNREDUCED)])
    };
    if fast {
        vec![
            instance(System::MaskedFig2 { n: 4 }, 0, &[]),
            instance(System::Fig2 { n: 4 }, 2, &[Expect::Leaves(12)]),
        ]
    } else {
        vec![
            instance(System::MaskedFig2 { n: 7 }, 0, &[Expect::Leaves(20)]),
            instance(System::Fig2 { n: 8 }, 0, &[Expect::Leaves(23)]),
        ]
    }
}

/// E16: bit-packed state storage with optional spilling
/// ([`ExploreConfig::spill_threshold`](rc_runtime::ExploreConfig)) on
/// `e16_sweep`. Each instance records:
///
/// * a **baseline** row at the historical cap, re-recording the
///   catalog's `Truncated` verdict (asserted);
/// * a **lifted-cap grid** — `packed` and `packed+spill` — every row
///   asserted `Verified` with byte-identical state and weighted-leaf
///   counts, and the leaf count asserted equal to what the catalog's
///   *reduced* searches computed for the same instance: the full
///   unreduced search independently confirms the reduction machinery's
///   answer;
/// * one **byte-capped** row (`ExploreConfig::max_bytes` generous
///   enough to verify) exercising the deterministic byte budget at
///   scale, asserted identical to the grid.
///
/// Exactness is the point: spill runs compare full key bytes on disk
/// (their Blooms only skip runs that cannot hold a key), so — unlike
/// bitstate/supertrace hashing — spilling returns the same exact
/// verdict (see DESIGN §3).
pub fn e16_storage_scaling(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E16", &e16_sweep(fast));
    let largest = rows
        .iter()
        .filter(|r| r.verdict == "Verified")
        .max_by_key(|r| r.states)
        .expect("grid rows exist");
    let peak_of = |tier: &str| {
        rows.iter()
            .filter(|r| r.tier == tier && r.mode == UNREDUCED.label && r.verdict == "Verified")
            .map(|r| r.peak_table_bytes as f64 / (1 << 20) as f64)
            .fold(0.0f64, f64::max)
    };
    let cap_note = if fast {
        "(fast mode shrinks both caps; the full sweep lifts the real 5M \
         catalog cap on masked S_7 and S_8)"
    } else {
        "the baseline rows re-record the catalog's 5M-cap Truncated \
         verdicts (E12 §S_8, E13 §masked S_7) that these grids move to \
         exact Verified"
    };
    let report = format!(
        "E16 — bit-packed state storage (packed arena keys, file-backed \
         spill runs, byte budget): previously-Truncated catalog instances \
         re-run unreduced with the cap lifted, resident and spilling:\n{}\n\
         largest exact search: {} states ({}/budget-{}); outcomes \
         byte-identical with and without spilling, weighted leaf counts \
         equal to the catalog's reduced-search records, and the \
         byte-budgeted run matches the grid (all asserted). Peak \
         resident visited-set on the largest run: {:.0} MB packed vs \
         {:.0} MB spilling. Spill rows freeze resident arenas to disk \
         behind per-run Blooms and stay exact — full key bytes are \
         compared on disk, never hash fingerprints alone. The masked \
         instance additionally re-runs with both reducers composed \
         (por+rebind, as in E15), resident and spilling: the reduced \
         search's canonical state counts are byte-identical either way \
         and its weighted leaves match the unreduced grid (asserted). \
         Also {cap_note}.\n",
        render(
            &rows,
            &[
                SYSTEM,
                col("budget", CRASH_BUDGET.cell),
                TIER,
                MODE,
                CAP,
                BYTE_CAP,
                VERDICT,
                STATES,
                LEAVES,
                col("ms", |r| format!("{:.0}", r.millis)),
                PEAK_MB,
                SPILL_MB,
                WITNESS_MB,
            ]
        ),
        largest.states,
        largest.system,
        largest.crash_budget,
        peak_of("packed"),
        peak_of("packed+spill"),
    );
    (report, rows)
}

/// E17's sweep: `SimultaneousRc` n=3 under off / scalarset /
/// scalarset+por. Equal inputs put every process in one orbit (the full
/// symmetric group acts); the mixed instance keeps a singleton orbit
/// alongside — the family still permutes under the acting orbit only.
pub(crate) fn e17_sweep(fast: bool) -> Vec<Instance> {
    let instance = |inputs: &[i64], budget: usize| {
        let shown: Vec<String> = inputs.iter().map(i64::to_string).collect();
        let label = format!(
            "SimultaneousRc n={} (inputs {})",
            inputs.len(),
            shown.join(",")
        );
        Instance::simultaneous(System::fig4(inputs), budget)
            .label(label)
            .modes(&[OFF, SCALARSET, SCALARSET_POR])
            .expect(&[
                Expect::AllVerify,
                Expect::Fewer(SCALARSET, OFF),
                Expect::Fewer(SCALARSET_POR, SCALARSET),
            ])
    };
    if fast {
        vec![instance(&[0, 0, 1], 1)]
    } else {
        vec![
            instance(&[0, 0, 0], 1),
            instance(&[0, 0, 1], 1),
            instance(&[0, 0, 0], 0),
        ]
    }
}

/// E17: **scalarset symmetry for Fig. 4** — the reduction E13 and E15
/// recorded as impossible under owned-cell orbits (`e17_sweep`). The
/// line-44 termination scan cross-reads every round register, so the
/// registers can never be owner-only; but remodeled as an
/// order-insensitive fold (a checked-position mask with the visit order
/// as internal nondeterminism) they form a certifiable **scalarset
/// family** ([`rc_runtime::SymmetrySpec::with_scalarset`]): at search
/// start the scalarset certifier ([`rc_runtime::lint_scalarset`]) proves
/// every family transposition leaves the memoized local-state graphs
/// equivariant — bystander graph matching, member exchange, rebind
/// fidelity, spot re-executions — and only then does the search permute
/// the family with the process slots (mid-scan *pinned* states forgo
/// reduction; decided states are never pinned, so leaf weights stay
/// exact).
///
/// Asserted: every row Verified with the off rows' weighted leaf
/// counts; the scalarset mode strictly reduces (Fig. 4 leaves 1.0×
/// behind); and scalarset+por strictly beats scalarset alone (E15's POR
/// composes).
pub fn e17_scalarset_symmetry(fast: bool) -> (String, Vec<ExploreRow>) {
    let rows = run_sweep("E17", &e17_sweep(fast));
    let report = format!(
        "E17 — scalarset symmetry for Fig. 4 (SimultaneousRc): the line-44 \
         termination scan, remodeled as an order-insensitive fold over a \
         checked-position mask, makes the round registers a certifiable \
         scalarset family; the equivariance certificate (lint_scalarset: \
         transposition graph matching, member exchange, rebind fidelity, \
         spot re-executions) is checked at search start, and only then \
         does canonicalization permute the family with the process \
         slots — mid-scan pinned states forgo reduction, decided states \
         are never pinned, so weights stay exact:\n{}\n\
         largest composed reduction: {}; all rows \
         Verified, reduced weighted leaf counts equal to off, scalarset \
         strictly below off, and scalarset+por strictly below scalarset \
         (all asserted) — the reducers compound on the system E13/E15 \
         recorded at 1.0× under owned-cell symmetry.\n",
        render(&rows, &REDUCTION_COLUMNS),
        largest_reduction(&rows, SCALARSET_POR),
    );
    (report, rows)
}

/// One catalog system of the E18 swarm-verification sweep.
#[derive(Clone, Debug)]
pub struct E18Row {
    /// Swarm catalog id (`swarm run --system <id>`).
    pub system: String,
    /// The system's default crash adversary, in the `swarm --crash`
    /// spec grammar (`none`, `independent:<b>[:after-decide]`, …).
    pub crash: String,
    /// Per-decision crash probability of the seeded scheduler.
    pub crash_prob: f64,
    /// Seeds swept (the range starts at seed 0).
    pub seeds: u64,
    /// Worker threads the sweep used (the deterministic columns are
    /// independent of this; asserted inside the experiment).
    pub threads: usize,
    /// Distinct final memory+program states over all runs — an exact
    /// set cardinality via the packed visited-set tables, not a sketch.
    pub distinct_finals: usize,
    /// Violating seeds found (0 on every correct system; asserted).
    pub violations: usize,
    /// Smallest violating seed, when any — `swarm replay --seed N`
    /// reproduces it byte-identically.
    pub first_violating_seed: Option<u64>,
    /// Action count of that seed's replayed schedule.
    pub original_len: Option<usize>,
    /// Action count of its 1-minimal shrunken witness (delta-debugged,
    /// re-verified through the witness-log replay path).
    pub min_witness: Option<usize>,
    /// Wall-clock milliseconds (machine-dependent).
    pub millis: f64,
    /// Executions per second (machine-dependent).
    pub runs_per_sec: f64,
}

/// E18: the swarm-verification sweep — every system of the swarm
/// catalog under its default adversary, seeded schedules fanned across
/// all cores (DESIGN.md §3, *Swarm verification & schedule shrinking*).
///
/// Where E11–E17 verify exhaustively up to a frontier, E18 samples
/// *past* it: millions of independent seeded executions whose verdicts
/// extend the exhaustive result probabilistically. The experiment
/// asserts the service's contract end to end:
///
/// - every correct catalog system sweeps clean under its default
///   adversary, and the seeded `broken-team-rc` bug is found;
/// - the first violating seed replays deterministically to the same
///   violation ([`replay_seed`](rc_runtime::replay_seed));
/// - its schedule shrinks to a 1-minimal, crash-legal subsequence that
///   still violates and re-verifies through the witness log;
/// - the deterministic aggregates (violating seeds, distinct final
///   states, step/crash totals) are byte-identical across thread
///   counts (checked at 1 vs. all cores on the first catalog entry).
///
/// `fast` sweeps 200 seeds per system (the tier-1 suite); the full run
/// sweeps 20 000 (the snapshot row set). The ≥10⁶-seed headline run is
/// recorded in `EXPERIMENTS.md` §E18 from `swarm run` directly — at
/// that scale the row would dominate the `tables` wall clock.
///
/// # Panics
///
/// Panics if any of the asserted contract clauses above fails.
pub fn e18_swarm(fast: bool) -> (String, Vec<E18Row>) {
    use crate::swarm_catalog::swarm_catalog;
    use crate::swarm_cli::crash_spec;
    use rc_runtime::swarm::swarm;
    use rc_runtime::{is_subsequence, replay_seed, shrink_schedule};

    let seeds: u64 = if fast { 200 } else { 20_000 };
    let systems = swarm_catalog();
    let mut rows: Vec<E18Row> = Vec::new();
    for (i, sys) in systems.iter().enumerate() {
        let config = sys.config(0, seeds, 0);
        let report = swarm(sys.factory(), &config);
        assert_eq!(report.runs, seeds, "{}: every seed ran", sys.id);
        assert_eq!(
            report.violations.is_empty(),
            !sys.expect_violation,
            "{}: verdict under the default adversary",
            sys.id
        );
        if i == 0 {
            // Thread-count invariance, spot-checked on the first entry
            // at a reduced seed count: the deterministic summary of a
            // 1-thread sweep must be byte-identical to a parallel one.
            let small = 100.min(seeds);
            let serial = sys.config(0, small, 1);
            let wide = sys.config(0, small, 0);
            assert_eq!(
                swarm(sys.factory(), &serial).deterministic_summary(),
                swarm(sys.factory(), &wide).deterministic_summary(),
                "{}: aggregates depend on thread count",
                sys.id
            );
        }
        let (mut first_seed, mut original_len, mut min_witness) = (None, None, None);
        if let Some(v) = report.violations.first() {
            let rerun = replay_seed(sys.factory(), &config, v.seed);
            assert_eq!(
                rerun.verdict.as_ref().err(),
                Some(&v.violation),
                "{}: seed {} must replay to the reported violation",
                sys.id,
                v.seed
            );
            let schedule = rerun.execution.trace.to_actions();
            let shrunk = shrink_schedule(sys.factory(), &config, &schedule)
                .expect("a replayed safety violation must shrink");
            assert!(
                is_subsequence(&shrunk.schedule, &schedule),
                "{}: witness is a subsequence",
                sys.id
            );
            assert!(shrunk.witness_verified, "{}: witness-log replay", sys.id);
            first_seed = Some(v.seed);
            original_len = Some(schedule.len());
            min_witness = Some(shrunk.schedule.len());
        }
        rows.push(E18Row {
            system: sys.id.to_string(),
            crash: crash_spec(&sys.crash),
            crash_prob: sys.crash_prob,
            seeds,
            threads: report.threads_used,
            distinct_finals: report.distinct_final_states,
            violations: report.violations.len(),
            first_violating_seed: first_seed,
            original_len,
            min_witness,
            millis: report.elapsed_millis,
            runs_per_sec: report.runs_per_sec,
        });
    }
    let mut t = Table::new(&[
        "system",
        "adversary",
        "p",
        "seeds",
        "thr",
        "finals",
        "viol",
        "first",
        "witness",
        "runs/s",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash.clone(),
            format!("{:.2}", r.crash_prob),
            r.seeds.to_string(),
            r.threads.to_string(),
            r.distinct_finals.to_string(),
            r.violations.to_string(),
            r.first_violating_seed
                .map_or_else(|| "—".into(), |s| s.to_string()),
            match (r.original_len, r.min_witness) {
                (Some(o), Some(m)) => format!("{o}→{m}"),
                _ => "—".into(),
            },
            format!("{:.0}", r.runs_per_sec),
        ]);
    }
    let bug = rows
        .iter()
        .find(|r| r.violations > 0)
        .expect("the seeded bug row exists");
    let report = format!(
        "E18 — swarm verification over the catalog: seeded random \
         schedules under each system's default adversary, aggregates \
         thread-count-invariant (asserted), every correct system clean \
         and the Section 3.1 seeded bug surfaced at seed {} with its \
         schedule delta-debugged {} → {} actions into a crash-legal, \
         witness-log-verified 1-minimal counterexample:\n{}\
         replay/shrink any reported seed: `swarm replay --system <id> \
         --seed N`, `swarm shrink --system <id> --seed N`.\n",
        bug.first_violating_seed.expect("violating seed recorded"),
        bug.original_len.expect("original length recorded"),
        bug.min_witness.expect("witness length recorded"),
        t.render(),
    );
    (report, rows)
}

impl JsonRow for E18Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("system", Json::Str(self.system.clone())),
            ("crash", Json::Str(self.crash.clone())),
            ("crash_prob", Json::Num(self.crash_prob, 2)),
            ("seeds", Json::Int(self.seeds)),
            ("threads", Json::Int(self.threads as u64)),
            ("distinct_finals", Json::Int(self.distinct_finals as u64)),
            ("violations", Json::Int(self.violations as u64)),
            ("first_violating_seed", Json::opt(self.first_violating_seed)),
            (
                "original_len",
                Json::opt(self.original_len.map(|v| v as u64)),
            ),
            ("min_witness", Json::opt(self.min_witness.map(|v| v as u64))),
            ("millis", Json::Num(self.millis, 1)),
            ("runs_per_sec", Json::Num(self.runs_per_sec, 0)),
        ]
    }
}

/// A system of the lint catalog: builds the memory, the programs and
/// (when the catalog ships one) the symmetry declaration to audit.
pub type LintSystemFn = Box<
    dyn Fn() -> (
        Memory,
        Vec<Box<dyn Program>>,
        Option<rc_runtime::SymmetrySpec>,
    ),
>;

/// The E14 / `tables lint` system catalog: every shipped system builder
/// (the `_sym` variants where they exist, so the owned-cell and orbit
/// declarations are audited too) at the instance sizes the experiments
/// use. The paper's Fig. 7 universal construction is exercised through
/// its RC building blocks (each `next`-pointer instance is a catalog
/// consensus object); its workers' node-pool state space defeats the
/// per-process fixpoint budget, so it is audited structurally via E6's
/// history audit instead of appearing here.
pub fn lint_catalog() -> Vec<(String, LintSystemFn)> {
    let tn_witness = |n: usize| {
        let tn = Tn::new(n);
        let a = Assignment::split(
            Tn::forget_state(),
            vec![Tn::op_a(); n / 2],
            vec![Tn::op_b(); n - n / 2],
        );
        let w = check_discerning(&tn, &a).expect("T_n witness");
        (Arc::new(tn) as TypeHandle, w)
    };
    let mut catalog: Vec<(String, LintSystemFn)> = Vec::new();
    {
        let (ty, w) = tn_witness(4);
        let inputs = team_inputs(&w.assignment);
        let (ty2, w2, inputs2) = (ty.clone(), w.clone(), inputs.clone());
        catalog.push((
            "team consensus T_4 (sym)".into(),
            Box::new(move || {
                let (mem, programs, spec) =
                    build_team_consensus_system_sym(ty.clone(), &w, &inputs);
                (mem, programs, Some(spec))
            }),
        ));
        catalog.push((
            "masked team consensus T_4 (sym)".into(),
            Box::new(move || {
                let (mem, programs, spec) =
                    build_masked_team_consensus_system_sym(ty2.clone(), &w2, &inputs2);
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        let (ty, w) = tn_witness(4);
        let inputs = team_inputs(&w.assignment);
        catalog.push((
            "tournament consensus T_4".into(),
            Box::new(move || {
                let (mem, programs) = build_tournament_consensus(ty.clone(), &w, &inputs);
                (mem, programs, None)
            }),
        ));
    }
    for (name, broken) in [("team RC", false), ("broken team RC", true)] {
        let (ty, w) = sn_witness(3);
        let inputs = team_inputs(&w.assignment);
        let (ty2, w2, inputs2) = (ty.clone(), w.clone(), inputs.clone());
        catalog.push((
            format!("{name} S_3 (sym)"),
            Box::new(move || {
                let (mem, programs, spec) = if broken {
                    build_broken_team_rc_system_sym(ty.clone(), &w, &inputs)
                } else {
                    build_team_rc_system_sym(ty.clone(), &w, &inputs)
                };
                (mem, programs, Some(spec))
            }),
        ));
        catalog.push((
            format!("masked {name} S_3 (sym)"),
            Box::new(move || {
                let (mem, programs, spec) = if broken {
                    build_masked_broken_team_rc_system_sym(ty2.clone(), &w2, &inputs2)
                } else {
                    build_masked_team_rc_system_sym(ty2.clone(), &w2, &inputs2)
                };
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        let (ty, w) = sn_witness(3);
        let inputs: Vec<Value> = (0..3).map(|i| Value::Int(i as i64)).collect();
        catalog.push((
            "tournament RC S_3".into(),
            Box::new(move || {
                let (mem, programs) = build_tournament_rc(ty.clone(), &w, &inputs);
                (mem, programs, None)
            }),
        ));
    }
    {
        // Distinct inputs: every orbit is a singleton, so the declared
        // round-register family is *inert* — the certifier records the
        // warning and the search never permutes it.
        let inputs: Vec<Value> = (0..2i64).map(Value::Int).collect();
        catalog.push((
            "SimultaneousRc n=2 (sym)".into(),
            Box::new(move || {
                let factory = ConsensusObjectFactory { domain: 4 };
                let (mem, programs, spec) = build_simultaneous_rc_system_sym(&factory, &inputs, 3);
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        // Equal-input orbit: the round-register scalarset family
        // *moves*, so the gate runs the full equivariance certificate —
        // the declaration the E17 reduction rests on.
        let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
        catalog.push((
            "SimultaneousRc n=3 scalarset (sym)".into(),
            Box::new(move || {
                let factory = ConsensusObjectFactory { domain: 4 };
                let (mem, programs, spec) = build_simultaneous_rc_system_sym(&factory, &inputs, 3);
                (mem, programs, Some(spec))
            }),
        ));
    }
    catalog
}

/// One catalog system's audit result.
pub struct E14Row {
    /// Catalog entry name (`(sym)` marks audited symmetry declarations).
    pub system: String,
    /// Number of processes.
    pub n: usize,
    /// Shared cells allocated by the builder.
    pub cells: usize,
    /// Memoized per-process local states the fixpoint visited (summed).
    pub local_states: usize,
    /// Instrumented step probes the fixpoint ran.
    pub probes: usize,
    /// Total `(process, cell)` access pairs under the **crash-free**
    /// footprint (no `on_crash` edges).
    pub accesses_crash_free: usize,
    /// The same under the **crash** footprint (`on_crash` edges
    /// included) — the sound one the lint verdict is based on.
    pub accesses_crash: usize,
    /// Statically-independent process pairs (disjoint write∩access
    /// footprints), from the crash footprint.
    pub independent_pairs: usize,
    /// Cells touched by exactly one process: derivable owned-cell
    /// candidates.
    pub derived_owned: usize,
    /// Lint errors (under-declarations, owner-only violations).
    pub errors: Vec<String>,
    /// Lint warnings (over-declarations, inert ownership).
    pub warnings: Vec<String>,
    /// Ample-set soundness lint ([`rc_runtime::lint_ample`]) errors.
    /// `A1`/`A2` mark the system *POR-ineligible* (the engine refuses
    /// it, so nothing unsound can run) and do not fail the gate;
    /// `A3`–`A5` are soundness failures and do.
    pub ample_errors: Vec<String>,
    /// Ample-set lint warnings (e.g. "POR will not reduce this system").
    pub ample_warnings: Vec<String>,
    /// Whether the audited spec declares scalarset families
    /// ([`rc_runtime::SymmetrySpec::with_scalarset`]).
    pub has_scalarsets: bool,
    /// Scalarset equivariance certifier ([`rc_runtime::lint_scalarset`])
    /// errors. Any error fails the gate: the search refuses to permute
    /// an uncertified family at search start, but the catalog must
    /// never ship a declaration the certifier rejects.
    pub scalarset_errors: Vec<String>,
    /// Scalarset certifier warnings (inert families, no declarations).
    pub scalarset_warnings: Vec<String>,
    /// States visited by the ample lint's dynamic commutation
    /// spot-check.
    pub spot_states: usize,
    /// Pruned-order pair re-executions the spot-check performed.
    pub spot_pairs: usize,
}

/// Audits every catalog system; the row order is the catalog order.
///
/// # Panics
///
/// Panics if the footprint analysis itself fails on a catalog system
/// (budget exhaustion or a contract violation) — the catalog is sized to
/// be analyzable, so a failure is a defect, not a verdict.
pub fn catalog_lint_rows() -> Vec<E14Row> {
    use rc_runtime::{
        analyze_system, lint_ample, lint_with_analysis, system_analysis_cached, AnalysisBudget,
        StaticIndependence,
    };
    lint_catalog()
        .into_iter()
        .map(|(system, build)| {
            let (mem, programs, spec) = build();
            let crash_free = analyze_system(&mem, &programs, false, AnalysisBudget::default())
                .unwrap_or_else(|e| panic!("{system}: crash-free analysis failed: {e}"));
            // One cached per-state analysis per catalog id serves the
            // declaration lint, the ample lint below and any POR run on
            // the same id — the fixpoint no longer re-runs per consumer
            // (asserted in `catalog_lint_shares_one_analysis_per_system`).
            let analysis_id = format!("bench/lint/{system}");
            let analysis =
                system_analysis_cached(&analysis_id, &mem, &programs, AnalysisBudget::default())
                    .unwrap_or_else(|e| panic!("{system}: analysis failed: {e}"));
            let report = lint_with_analysis(&analysis, &mem, &programs, spec.as_ref());
            let scalarset = spec
                .as_ref()
                .filter(|s| !s.scalarset_families().is_empty())
                .map(|s| rc_runtime::lint_scalarset(&mem, &programs, s, AnalysisBudget::default()));
            let (mem2, programs2, spec2) = build();
            let ample = lint_ample(
                mem2,
                programs2,
                spec2.as_ref(),
                &CrashModel::independent(1).after_decide(true),
                Some(&analysis_id),
                128,
            );
            let count = |fp: &rc_runtime::SystemFootprint| -> usize {
                fp.per_process.iter().map(|p| p.cells.len()).sum()
            };
            let indep = StaticIndependence::from_footprint(&report.footprint);
            E14Row {
                system,
                n: programs.len(),
                cells: mem.len(),
                local_states: report
                    .footprint
                    .per_process
                    .iter()
                    .map(|p| p.local_states)
                    .sum(),
                probes: report.footprint.probes,
                accesses_crash_free: count(&crash_free),
                accesses_crash: count(&report.footprint),
                independent_pairs: indep.independent_pairs().len(),
                derived_owned: report.derived_owned.iter().map(Vec::len).sum(),
                errors: report.errors,
                warnings: report.warnings,
                ample_errors: ample.errors,
                ample_warnings: ample.warnings,
                has_scalarsets: scalarset.is_some(),
                scalarset_errors: scalarset
                    .as_ref()
                    .map(|r| r.errors.clone())
                    .unwrap_or_default(),
                scalarset_warnings: scalarset
                    .as_ref()
                    .map(|r| r.warnings.clone())
                    .unwrap_or_default(),
                spot_states: ample.spot_states,
                spot_pairs: ample.spot_pairs,
            }
        })
        .collect()
}

/// Classifies a row's ample-set lint result for the E14 gate:
/// `Ok(verdict)` keeps the gate green (`"clean"`, `"clean (k warnings)"`
/// or `"ineligible"` — the engine refuses POR on A1/A2 systems, so
/// nothing unsound can run), `Err(verdict)` fails it (an A3–A5
/// soundness violation: a divergent pruned interleaving, an escaped
/// crash future or a broken symmetry equivariance would make POR
/// unsound *if enabled*, and the catalog must never ship that).
fn ample_verdict(row: &E14Row) -> Result<String, String> {
    let ineligible_only = row
        .ample_errors
        .iter()
        .all(|e| e.starts_with("A1:") || e.starts_with("A2:"));
    if row.ample_errors.is_empty() {
        if row.ample_warnings.is_empty() {
            Ok("clean".to_string())
        } else {
            Ok(format!(
                "clean ({})",
                plural(row.ample_warnings.len(), "warning")
            ))
        }
    } else if ineligible_only {
        Ok("ineligible".to_string())
    } else {
        Err(format!(
            "FAIL ({})",
            plural(row.ample_errors.len(), "error")
        ))
    }
}

/// Classifies a row's scalarset-certificate result for the E14 gate:
/// `Ok(verdict)` keeps the gate green (`"—"` for specs without declared
/// families, `"certified"`, or `"certified (k warnings)"` — inert
/// families warn but stay green because the search never permutes
/// them), `Err(verdict)` fails it: the search refuses to permute an
/// uncertified family at search start, but the catalog must never ship
/// a declaration the certifier rejects.
fn scalarset_verdict(row: &E14Row) -> Result<String, String> {
    if !row.has_scalarsets {
        Ok("—".to_string())
    } else if !row.scalarset_errors.is_empty() {
        Err(format!(
            "FAIL ({})",
            plural(row.scalarset_errors.len(), "error")
        ))
    } else if row.scalarset_warnings.is_empty() {
        Ok("certified".to_string())
    } else {
        Ok(format!(
            "certified ({})",
            plural(row.scalarset_warnings.len(), "warning")
        ))
    }
}

/// `"1 warning"` / `"2 warnings"` — count annotations for verdicts.
fn plural(count: usize, noun: &str) -> String {
    if count == 1 {
        format!("{count} {noun}")
    } else {
        format!("{count} {noun}s")
    }
}

/// E14: the catalog access-declaration audit (also the `tables lint` CI
/// gate). Returns the rendered report and whether every system passed.
pub fn e14_catalog_lint() -> (String, bool) {
    let rows = catalog_lint_rows();
    let mut t = Table::new(&[
        "system",
        "n",
        "cells",
        "local states",
        "probes",
        "accesses (no crash)",
        "accesses (crash)",
        "indep pairs",
        "derived owned",
        "verdict",
        "ample (spot st/pairs)",
        "scalarset",
    ]);
    let mut clean = true;
    let mut details = String::new();
    for r in &rows {
        let verdict = if r.errors.is_empty() {
            if r.warnings.is_empty() {
                "clean".to_string()
            } else {
                format!("clean ({})", plural(r.warnings.len(), "warning"))
            }
        } else {
            clean = false;
            format!("FAIL ({})", plural(r.errors.len(), "error"))
        };
        let ample = match ample_verdict(r) {
            Ok(v) => v,
            Err(v) => {
                clean = false;
                v
            }
        };
        let scalarset = match scalarset_verdict(r) {
            Ok(v) => v,
            Err(v) => {
                clean = false;
                v
            }
        };
        t.row(&[
            r.system.clone(),
            r.n.to_string(),
            r.cells.to_string(),
            r.local_states.to_string(),
            r.probes.to_string(),
            r.accesses_crash_free.to_string(),
            r.accesses_crash.to_string(),
            r.independent_pairs.to_string(),
            r.derived_owned.to_string(),
            verdict,
            format!("{ample} ({}/{})", r.spot_states, r.spot_pairs),
            scalarset,
        ]);
        for e in &r.errors {
            details.push_str(&format!("  error [{}]: {e}\n", r.system));
        }
        for w in &r.warnings {
            details.push_str(&format!("  warning [{}]: {w}\n", r.system));
        }
        for e in &r.ample_errors {
            details.push_str(&format!("  ample [{}]: {e}\n", r.system));
        }
        for w in &r.ample_warnings {
            details.push_str(&format!("  ample warning [{}]: {w}\n", r.system));
        }
        for e in &r.scalarset_errors {
            details.push_str(&format!("  scalarset [{}]: {e}\n", r.system));
        }
        for w in &r.scalarset_warnings {
            details.push_str(&format!("  scalarset warning [{}]: {w}\n", r.system));
        }
    }
    let report = format!(
        "E14 — catalog access-declaration audit (`tables lint`): every \
         shipped system's `referenced_cells` and owned-cell declarations \
         checked against the analyzed cell-access footprint; crash edges \
         can only widen footprints (a re-run revisits cells from a reset \
         pc), so the crash column is the sound basis for the verdicts and \
         the static independence relation. The ample column is the \
         POR soundness lint (`lint_ample`): static C0–C2-style checks \
         plus a dynamic spot-check that re-executes pruned interleavings \
         at sampled states — `ineligible` (A1/A2) means the engine \
         refuses POR for that system, which keeps the gate green; an \
         A3–A5 soundness violation fails it. The scalarset column is the \
         equivariance certificate (`lint_scalarset`) for declared \
         cross-read cell families: `certified` means every family \
         transposition provably leaves the local-state graphs \
         equivariant (so the search may permute the family with the \
         process slots, E17); a certificate error fails the gate:\n{}{details}\
         overall: {}\n",
        t.render(),
        if clean { "clean" } else { "FAIL" },
    );
    (report, clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::assert_uniform_keys;
    use crate::snapshot::{snapshot_json, RowSet};

    #[test]
    fn experiments_run_small() {
        // Smoke-test each experiment at tiny sizes; correctness assertions
        // are inside the experiment functions themselves.
        assert!(e1_figure1(5).contains("E1"));
        assert!(e2_team_rc(5).contains("E2"));
        assert!(e3_simultaneous(5).contains("E3"));
        assert!(e4_tn(5).contains("E4"));
        assert!(e5_sn(4).contains("E5"));
        assert!(e6_universal(5).contains("E6"));
        assert!(e7_stack().contains("E7"));
        assert!(e9_sets().contains("E9"));
    }

    #[test]
    fn catalog_survey_runs() {
        assert!(e8_catalog().contains("stack"));
    }

    #[test]
    fn headline_runs() {
        assert!(e10_headline(3).contains("T_4"));
    }

    /// The symmetry sweep's own invariants (identical verdicts and
    /// weighted leaf counts, strict state reduction) are asserted inside
    /// the experiment; the fast sweep exercises them.
    #[test]
    fn symmetry_sweep_runs_fast() {
        let (report, rows) = e12_symmetry_reduction(true);
        assert!(report.contains("E12"));
        assert!(rows.iter().any(|r| r.mode == "on" && r.reduction > 1.0));
    }

    /// The full-state sweep's invariants (slots ≡ off on masked systems,
    /// rebind reduces with identical weighted leaves) are asserted
    /// inside the experiment; the fast sweep exercises them, and the
    /// snapshot writer records the rows with one key order.
    #[test]
    fn full_state_sweep_runs_fast() {
        let (report, rows) = e13_full_state_symmetry(true);
        assert!(report.contains("E13"));
        assert!(rows.iter().any(|r| r.mode == "rebind" && r.reduction > 1.0));
        assert!(rows.iter().any(|r| r.mode == "slots"));
        let json = snapshot_json(&[RowSet::new("e13", &rows)]);
        assert!(json.contains("\"schema\": 7"));
        assert!(json.contains("\"e13_rows\""));
        assert!(json.contains("masked S_4"));
        assert_uniform_keys(&json);
    }

    /// The POR sweep's invariants (reduced rows match off verdicts and
    /// weighted leaf counts, budget-0 POR strictly reduces, por+rebind
    /// dominates rebind wherever POR alone reduced) are asserted inside
    /// the experiment; the fast sweep exercises them, including the
    /// acceptance-critical SimultaneousRc row — the system symmetry
    /// cannot reduce.
    #[test]
    fn por_sweep_runs_fast() {
        let (report, rows) = e15_por_reduction(true);
        assert!(report.contains("E15"));
        assert!(rows.iter().any(|r| r.mode == "por" && r.reduction > 1.0));
        assert!(rows.iter().any(|r| r.mode == "por+rebind"));
        assert!(rows.iter().any(|r| r.system.starts_with("SimultaneousRc")
            && r.mode == "por"
            && r.reduction > 1.0));
        let json = snapshot_json(&[RowSet::new("e15", &rows)]);
        assert!(json.contains("\"e15_rows\""));
        assert!(json.contains("por+rebind"));
        assert_uniform_keys(&json);
    }

    /// The storage sweep's invariants (baseline truncates at the cap,
    /// the resident and spilling lifted-cap rows verify
    /// byte-identically, the byte-budgeted run matches the grid, spill
    /// rows freeze runs) are asserted inside the experiment; the fast
    /// sweep exercises them, including the acceptance-critical
    /// Truncated → Verified transition.
    #[test]
    fn storage_sweep_runs_fast() {
        let (report, rows) = e16_storage_scaling(true);
        assert!(report.contains("E16"));
        assert!(rows
            .iter()
            .any(|r| r.tier == "packed" && r.verdict == "Truncated"));
        assert!(rows
            .iter()
            .any(|r| r.tier == "packed+spill" && r.verdict == "Verified" && r.spilled_bytes > 0));
        assert!(rows.iter().any(|r| r.max_bytes > 0));
        let json = snapshot_json(&[RowSet::new("e16", &rows)]);
        assert!(json.contains("\"e16_rows\""));
        assert!(json.contains("packed+spill"));
        assert_uniform_keys(&json);
        assert!(
            rows.iter().any(|r| r.mode == "por+rebind"),
            "the rebind+POR parity rows joined the spill grid"
        );
    }

    /// The scalarset sweep's invariants (every row Verified, reduced
    /// weighted leaf counts equal to off, scalarset strictly below off,
    /// scalarset+por strictly below scalarset) are asserted inside the
    /// experiment; the fast sweep exercises them on the system E13/E15
    /// recorded at 1.0× under owned-cell symmetry, and the snapshot
    /// writer records the rows.
    #[test]
    fn scalarset_sweep_runs_fast() {
        let (report, rows) = e17_scalarset_symmetry(true);
        assert!(report.contains("E17"));
        assert!(rows
            .iter()
            .any(|r| r.mode == "scalarset" && r.reduction > 1.0));
        let scal = rows
            .iter()
            .find(|r| r.mode == "scalarset")
            .expect("scalarset rows present");
        let both = rows
            .iter()
            .find(|r| r.mode == "scalarset+por")
            .expect("composed rows present");
        assert!(
            both.states < scal.states,
            "POR composes on top of the scalarset reduction"
        );
        let json = snapshot_json(&[RowSet::new("e17", &rows)]);
        assert!(json.contains("\"e17_rows\""));
        assert!(json.contains("scalarset+por"));
        assert_uniform_keys(&json);
    }

    /// The swarm sweep's contract clauses (correct systems clean, the
    /// seeded bug found / replayed / shrunk / witness-verified,
    /// thread-count-invariant aggregates) are asserted inside the
    /// experiment; the fast sweep exercises them, and the snapshot
    /// writer records `null` for the witness columns of clean rows,
    /// with one key order across clean and violating rows.
    #[test]
    fn swarm_sweep_runs_fast() {
        let (report, rows) = e18_swarm(true);
        assert!(report.contains("E18"));
        assert!(rows
            .iter()
            .any(|r| r.system == "broken-team-rc" && r.violations > 0 && r.min_witness.is_some()));
        assert!(rows
            .iter()
            .all(|r| r.system == "broken-team-rc" || r.violations == 0));
        let json = snapshot_json(&[RowSet::new("e18", &rows)]);
        assert!(json.contains("\"e18_rows\""));
        assert!(json.contains("\"min_witness\": null"));
        assert!(json.contains("broken-team-rc"));
        assert_uniform_keys(&json);
    }

    /// Analysis ids derive from the system construction, not the
    /// experiment: distinct constructions across every sweep get
    /// distinct ids, and the masked `S_4` system the fast E15 and E16
    /// sweeps both run POR on is analyzed once and shared through the
    /// cache.
    #[test]
    fn fast_sweeps_share_one_analysis_per_system() {
        use rc_runtime::{system_analysis_cached, AnalysisBudget};
        let mut systems: Vec<System> = Vec::new();
        for fast in [true, false] {
            for sweep in [
                e11_sweep, e12_sweep, e13_sweep, e15_sweep, e16_sweep, e17_sweep,
            ] {
                for inst in sweep(fast) {
                    if !systems.contains(&inst.system) {
                        systems.push(inst.system);
                    }
                }
            }
        }
        let mut ids: Vec<String> = systems.iter().map(System::analysis_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), systems.len(), "two constructions share an id");
        let por_system = |sweep: Vec<Instance>| {
            sweep
                .into_iter()
                .find(|i| {
                    i.system == System::MaskedFig2 { n: 4 }
                        && i.runs.iter().any(|r| r.mode == POR_REBIND)
                })
                .expect("the fast sweep runs POR on masked S_4")
                .system
        };
        let (e15, e16) = (por_system(e15_sweep(true)), por_system(e16_sweep(true)));
        assert_eq!(e15.analysis_id(), e16.analysis_id());
        let analysis = |system: &System| {
            let (_, build) = system.prepare();
            let (mem, programs, _) = build(false);
            system_analysis_cached(
                &system.analysis_id(),
                &mem,
                &programs,
                AnalysisBudget::default(),
            )
            .expect("masked S_4 is analyzable")
        };
        let (first, second) = (analysis(&e15), analysis(&e16));
        assert!(
            Arc::ptr_eq(&first, &second),
            "E16 recomputed E15's masked S_4 analysis"
        );
    }

    /// The per-state footprint analysis behind the declaration lint, the
    /// ample lint and the POR setup is cached per catalog id: a repeated
    /// audit must be served from the cache, not recompute the fixpoint.
    /// (Asserted through Arc identity and the analysis's fixpoint serial
    /// — the raw global run counter is shared with concurrent tests.)
    #[test]
    fn catalog_lint_shares_one_analysis_per_system() {
        use rc_runtime::{system_analysis_cached, AnalysisBudget};
        let rows = catalog_lint_rows();
        assert!(!rows.is_empty());
        let (system, build) = lint_catalog().into_iter().next().expect("catalog nonempty");
        let (mem, programs, _) = build();
        let id = format!("bench/lint/{system}");
        let first = system_analysis_cached(&id, &mem, &programs, AnalysisBudget::default())
            .expect("catalog system analyzable");
        let rows2 = catalog_lint_rows();
        assert_eq!(rows.len(), rows2.len());
        let second = system_analysis_cached(&id, &mem, &programs, AnalysisBudget::default())
            .expect("catalog system analyzable");
        assert!(
            Arc::ptr_eq(&first, &second),
            "the repeated audit recomputed {system}'s analysis"
        );
        assert_eq!(first.serial, second.serial);
    }
}
