//! A deliberately naive reference explorer, the independent oracle the
//! model checker is checked against.
//!
//! It uses only the public API and none of the checker's machinery: a
//! breadth-first search over full clones of [`Memory`] and
//! `boxed_clone`d programs, with every reached state stored as plain
//! [`Value`]s in a std [`HashSet`]. There is no interning, key packing,
//! copy-on-write sharing, symmetry or partial-order reduction, and a
//! crash calls [`Program::on_crash`] on the program it hits instead of
//! reusing a precomputed post-crash program. Whatever the checker gets
//! from those optimizations, it must agree with this.

use rc_runtime::sched::Action;
use rc_runtime::{CrashModel, Memory, Program, Step, ViolationKind};
use rc_spec::Value;
use std::collections::{HashSet, VecDeque};

/// One system state, fully materialized.
struct State {
    mem: Memory,
    programs: Vec<Box<dyn Program>>,
    /// Whether each process's current run has decided.
    decided: Vec<bool>,
    crashes: usize,
    /// The first value any run decided.
    decided_value: Option<Value>,
}

/// A state's identity: every cell, every program's volatile state, the
/// decided flags, the crashes used and the first decided value.
type Key = (Vec<Value>, Vec<Value>, Vec<bool>, usize, Option<Value>);

impl State {
    fn root(factory: &dyn Fn() -> (Memory, Vec<Box<dyn Program>>)) -> Self {
        let (mem, programs) = factory();
        let n = programs.len();
        State {
            mem,
            programs,
            decided: vec![false; n],
            crashes: 0,
            decided_value: None,
        }
    }

    fn key(&self) -> Key {
        (
            self.mem.state_key(),
            self.programs.iter().map(|p| p.state_key()).collect(),
            self.decided.clone(),
            self.crashes,
            self.decided_value.clone(),
        )
    }

    /// Every action the adversary may take: a step (or, for a program
    /// offering several choices, one branch per choice) of each
    /// undecided process, then the crashes `crash` allows.
    fn enabled(&self, crash: &CrashModel) -> Vec<Action> {
        let mut actions = Vec::new();
        for (p, program) in self.programs.iter().enumerate() {
            if self.decided[p] {
                continue;
            }
            let choices = program.choices();
            if choices.len() <= 1 {
                actions.push(Action::Step(p));
            } else {
                actions.extend(choices.into_iter().map(|c| Action::Branch(p, c)));
            }
        }
        actions.extend(crash.legal_crashes(&self.decided, self.crashes));
        actions
    }

    /// The state `action` leads to, or the violation its step commits.
    fn apply(
        &self,
        action: Action,
        inputs: Option<&[Value]>,
    ) -> Result<State, (ViolationKind, Value)> {
        let mut next = State {
            mem: self.mem.clone(),
            programs: self.programs.iter().map(|p| p.boxed_clone()).collect(),
            decided: self.decided.clone(),
            crashes: self.crashes,
            decided_value: self.decided_value.clone(),
        };
        let (p, step) = match action {
            Action::Step(p) => (p, next.programs[p].step(&mut next.mem)),
            Action::Branch(p, c) => (p, next.programs[p].step_choice(&mut next.mem, c)),
            Action::Crash(p) => {
                next.programs[p].on_crash();
                next.decided[p] = false;
                next.crashes += 1;
                return Ok(next);
            }
            Action::CrashAll => {
                for program in &mut next.programs {
                    program.on_crash();
                }
                next.decided.iter_mut().for_each(|d| *d = false);
                next.crashes += 1;
                return Ok(next);
            }
        };
        if let Step::Decided(v) = step {
            if next.decided_value.as_ref().is_some_and(|d| *d != v) {
                return Err((ViolationKind::Agreement, v));
            }
            if inputs.is_some_and(|inputs| !inputs.contains(&v)) {
                return Err((ViolationKind::Validity, v));
            }
            next.decided[p] = true;
            next.decided_value.get_or_insert(v);
        }
        Ok(next)
    }
}

/// What the reference search found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefOutcome {
    /// No reachable execution violates agreement or validity.
    Verified {
        /// Distinct reachable states.
        states: usize,
        /// Distinct reachable states with no enabled action.
        leaves: usize,
    },
    /// Some reachable step violates a property; `schedule` reaches it
    /// from the initial state (it is the first one found, not
    /// necessarily the checker's).
    Violation {
        kind: ViolationKind,
        schedule: Vec<Action>,
    },
}

/// Breadth-first search of every state the system `factory` builds can
/// reach under `crash`, checking agreement and (with `inputs`)
/// validity at every decision.
pub fn explore_reference(
    factory: &dyn Fn() -> (Memory, Vec<Box<dyn Program>>),
    crash: CrashModel,
    inputs: Option<&[Value]>,
) -> RefOutcome {
    let root = State::root(factory);
    let mut seen: HashSet<Key> = HashSet::from([root.key()]);
    let mut queue: VecDeque<(State, Vec<Action>)> = VecDeque::from([(root, Vec::new())]);
    let mut leaves = 0;
    while let Some((state, schedule)) = queue.pop_front() {
        let actions = state.enabled(&crash);
        if actions.is_empty() {
            leaves += 1;
        }
        for action in actions {
            let mut path = schedule.clone();
            path.push(action);
            match state.apply(action, inputs) {
                Err((kind, _)) => {
                    return RefOutcome::Violation {
                        kind,
                        schedule: path,
                    }
                }
                Ok(next) => {
                    if seen.insert(next.key()) {
                        queue.push_back((next, path));
                    }
                }
            }
        }
    }
    RefOutcome::Verified {
        states: seen.len(),
        leaves,
    }
}

/// Replays `schedule` from the initial state, requiring every action to
/// be enabled where it is taken, and returns the violation its last
/// action commits.
///
/// # Errors
///
/// Describes how the replay failed: an action that is not enabled, a
/// violation before the last action, or a schedule that ends cleanly.
pub fn replay_violation(
    factory: &dyn Fn() -> (Memory, Vec<Box<dyn Program>>),
    crash: CrashModel,
    inputs: Option<&[Value]>,
    schedule: &[Action],
) -> Result<ViolationKind, String> {
    let mut state = State::root(factory);
    for (i, &action) in schedule.iter().enumerate() {
        if !state.enabled(&crash).contains(&action) {
            return Err(format!("action {i} ({action:?}) is not enabled"));
        }
        match state.apply(action, inputs) {
            Err((kind, _)) if i + 1 == schedule.len() => return Ok(kind),
            Err((kind, v)) => {
                return Err(format!(
                    "{kind:?} violation deciding {v} at action {i}, before the end"
                ))
            }
            Ok(next) => state = next,
        }
    }
    Err("the schedule ends without a violation".into())
}
