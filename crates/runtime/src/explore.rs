//! Bounded-exhaustive model checking of crash–recovery executions.
//!
//! [`explore`] enumerates **every** execution of a system of [`Program`]s
//! under the paper's adversary, up to a crash budget: at each point the
//! adversary may step any undecided process, or (budget and
//! [`CrashModel`] policy permitting) crash a process / all processes.
//! Reached system states — shared memory contents, every process's
//! volatile state, the decided flags, the crashes used so far — are
//! memoized *exactly* (hash-consed full-fidelity keys, no lossy
//! shortcuts), so the search visits each state once and the verdict is
//! exact.
//!
//! The checked properties are the safety half of recoverable consensus
//! (Section 1):
//!
//! * **agreement** — no two outputs (across processes *and* across re-runs
//!   of one process) differ;
//! * **validity** — every output is one of the declared inputs.
//!
//! Termination (recoverable wait-freedom) holds by construction for the
//! paper's loop-free algorithms and is additionally guarded by the state
//! cap.
//!
//! ## The engine
//!
//! The checker is an **iterative worklist DFS** over an arena of
//! explicit frames — no recursion, so deep crash budgets (very long
//! executions) cannot overflow the call stack. State keys are built from
//! interned `u32` ids ([`ValueInterner`]): probing the visited set
//! allocates nothing for already-seen values, where the seed engine
//! cloned the entire memory and every program key per probe. A child is
//! **keyed before it is built**: its step runs on a clone of one program
//! against the parent's memory, its key is patched from the parent's,
//! and only a key the visited set calls new materializes the child
//! state — most children are duplicates. Violation schedules are
//! reconstructed from per-node **parent links** instead of a live
//! schedule vector.
//!
//! The search is deterministic: verdicts, state and leaf counts and
//! violation schedules repeat exactly from run to run. Both caps are
//! exact and cut in the DFS's acceptance order: a search truncates iff
//! it would need a `max_states + 1`-th distinct state (and then reports
//! exactly `max_states`), or a state whose accounted bytes overrun
//! [`ExploreConfig::max_bytes`]. A found violation is always reported,
//! see the verdict precedence on [`ExploreOutcome`].
//!
//! ## Process-symmetry reduction
//!
//! [`explore_symmetric`] accepts a factory that also declares a
//! [`SymmetrySpec`] — which process ids are interchangeable (identical
//! program, identical input, per-process cells registered). The engine
//! then maps every child's key to its **canonical representative's key**
//! under process-id permutation before the visited lookup, so entire
//! permutation classes collapse to one stored state: verdicts are
//! unchanged, state counts shrink by up to the product of the orbit
//! factorials, leaf counts stay identical (canonical leaves are weighted
//! by their class size), and violation witnesses are reported in
//! *original* process ids by threading the inverse permutations through
//! the parent links. The representative is chosen on the child's
//! patched key, so — as without symmetry — only a new child is built,
//! then permuted to match its key. The order is *structural*: equal ids
//! are equal values, and differing ids compare by the values behind
//! them, never by the ids themselves, so the representative does not
//! depend on the order values were first interned. See the
//! [`canon`](crate::canon) module for the soundness argument.
//!
//! ## Partial-order reduction
//!
//! [`ExploreConfig::por`] switches on a **persistent-set + sleep-set
//! reduction** driven by the per-local-state footprint analysis
//! ([`crate::footprint::analyze_system_states`]): at each crash-free
//! node the engine expands a singleton persistent set when one enabled
//! step is statically independent of everything the other processes can
//! ever do (crash-free future footprints; the decision pseudo-cell
//! makes any two possibly-deciding steps dependent), and sleep sets —
//! carried in the node keys, so node identity is `(state, sleep set)` —
//! remove interleavings already covered by sibling subtrees. Any
//! enabled crash transition forces full expansion (crashes are
//! dependent with everything), which keeps every [`CrashModel`]
//! adversary complete. Verdicts and leaf counts are identical to the
//! unreduced search; state counts shrink. The reduction composes with
//! symmetry (the sleep set joins the canonical signature and permutes
//! with its processes). [`lint_ample`] checks the
//! eligibility conditions statically and spot-checks pruned
//! interleavings dynamically.

use crate::canon::{self, SymmetrySpec};
use crate::crash::CrashModel;
use crate::footprint::{
    analyze_system, analyze_system_states, system_analysis_cached, AnalysisBudget, CellSet,
    LocalStateInfo, StaticIndependence, SystemAnalysis, SystemFootprint,
};
use crate::intern::ValueInterner;
use crate::memory::{Addr, Cell, MemOps, Memory};
use crate::program::{Pid, Program, Rebinding, Step};
use crate::sched::Action;
use crate::storage::{packed_key_len, PackedStateTable, WitnessLog};
use rc_spec::{Operation, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The crash adversary: budget, independent vs simultaneous mode and
    /// post-decide policy — shared with the randomized schedulers, so
    /// the exact and randomized layers agree on crash legality.
    pub crash: CrashModel,
    /// The declared inputs, for the validity check. `None` skips validity.
    pub inputs: Option<Vec<Value>>,
    /// Cap on distinct states visited. The search visits at most this
    /// many states and report [`ExploreOutcome::Truncated`] — with a
    /// `states` count of exactly `max_states` — when one more would be
    /// needed; a cap equal to the reachable state-space size still
    /// verifies.
    pub max_states: usize,
    /// Cross-validates the static independence relation derived by the
    /// footprint analysis ([`crate::footprint`]): at every expanded
    /// state, each pair of enabled steps the relation calls independent
    /// is applied in both orders and the results asserted identical
    /// (memory cells, both programs' state keys, decided flags and
    /// outputs). Purely a soundness check for the POR prerequisite —
    /// outcomes and counts are unchanged; the search only gets slower.
    /// Panics at search start if the system defeats the analysis
    /// (budget exhaustion): an explicit request to cross-validate an
    /// unanalyzable system is an error, not a silent no-op.
    pub cross_validate_independence: bool,
    /// Switches on the footprint-driven **partial-order reduction**
    /// (persistent + sleep sets; see the module docs). Verdicts and
    /// leaf counts are identical to the unreduced search; state counts
    /// shrink. Panics at search start when the system is ineligible —
    /// the footprint analysis fails, a process's step graph is cyclic,
    /// or (with symmetry) the orbit members' per-state footprints are
    /// not equivariant: an explicit POR request must not silently run
    /// unreduced. [`lint_ample`] reports the same conditions without
    /// running a search.
    pub por: bool,
    /// Cache key for the footprint analysis POR runs on
    /// ([`crate::footprint::system_analysis_cached`]). Must uniquely
    /// identify the system's construction (the catalog benchmarks use
    /// their row labels); `None` analyzes uncached.
    pub analysis_id: Option<String>,
    /// Cap on *accounted* visited-set bytes, alongside
    /// [`max_states`](Self::max_states). The account is a deterministic
    /// cost model — each accepted state charges its packed key length
    /// ([`packed_key_len`]) plus a fixed per-entry overhead, in the
    /// DFS's acceptance order — **not** the allocator's live footprint,
    /// so the truncation point is the same with and without spilling. A
    /// capped search reports [`ExploreOutcome::Truncated`] exactly like
    /// a `max_states` cut.
    pub max_bytes: Option<usize>,
    /// Resident-arena bytes at which the visited set freezes its
    /// entries into an on-disk run (see [`PackedStateTable`]); `None`
    /// keeps the whole table in RAM. Outcomes are independent of this
    /// knob; it bounds resident memory only.
    pub spill_threshold: Option<usize>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            crash: CrashModel::default(),
            inputs: None,
            max_states: 5_000_000,
            cross_validate_independence: false,
            por: false,
            analysis_id: None,
            max_bytes: None,
            spill_threshold: None,
        }
    }
}

/// Fixed per-entry overhead of the [`ExploreConfig::max_bytes`] cost
/// model, charged on top of each accepted state's packed key length.
const BYTE_COST_OVERHEAD: usize = 16;

/// The deterministic per-state cost charged against
/// [`ExploreConfig::max_bytes`]: a pure function of the key, identical
/// whether the table holds it resident or spilled.
#[inline]
fn byte_cost(key: &[u32]) -> usize {
    packed_key_len(key) + BYTE_COST_OVERHEAD
}

/// Diagnostics about how a search executed: which reductions were
/// active and what its tables held. Outcomes never depend on any of
/// this; every field is a deterministic function of the search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Whether a non-trivial [`SymmetrySpec`] was active.
    pub symmetry: bool,
    /// Whether partial-order reduction ([`ExploreConfig::por`]) ran.
    pub por: bool,
    /// Approximate bytes held by the value interner (structural value
    /// payloads plus per-entry overhead). Deterministic: a pure
    /// function of the interned values.
    pub interned_bytes: usize,
    /// Resident visited-set bytes at search end (accounted model: key
    /// arena, index slots, entry metadata and the spill runs' Blooms).
    pub table_bytes: usize,
    /// High-water resident visited-set bytes (differs from
    /// [`table_bytes`](Self::table_bytes) only when the table froze
    /// resident entries to disk).
    pub peak_table_bytes: usize,
    /// Total bytes written to spill runs (0 without
    /// [`ExploreConfig::spill_threshold`]).
    pub spilled_bytes: usize,
    /// Bytes held by the compacted witness log (parent links, interned
    /// permutations and parent→child key deltas).
    pub witness_bytes: usize,
}

/// The result of an exhaustive exploration.
///
/// # Verdict precedence
///
/// `Violation` > `Truncated` > `Verified`: a violation is definitive the
/// moment it is found (its schedule replays from the initial state
/// regardless of how much of the space was explored), so it is reported
/// even if the state cap was also hit. `Truncated` means the cap stopped
/// the search *without* a violation having been found — safety of the
/// unexplored remainder is unknown, so `Verified` is never claimed for a
/// capped run. `Verified` is exact: every reachable state (under the
/// configured adversary) was visited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every reachable execution satisfies agreement (and validity, if
    /// inputs were declared).
    Verified {
        /// Number of distinct system states visited.
        states: usize,
        /// Number of complete executions (leaves) enumerated, counting
        /// each memoized suffix once.
        leaves: usize,
    },
    /// A safety violation was found; the action sequence reproduces it.
    Violation {
        /// What went wrong.
        kind: ViolationKind,
        /// The schedule that exhibits the violation, from the initial
        /// state.
        schedule: Vec<Action>,
        /// The conflicting outputs observed on that schedule.
        outputs: Vec<Value>,
    },
    /// The state cap was hit before the search completed and no
    /// violation had been found.
    Truncated {
        /// Number of distinct system states visited before giving up.
        states: usize,
    },
}

impl ExploreOutcome {
    /// Whether the outcome proves safety over the explored space.
    pub fn is_verified(&self) -> bool {
        matches!(self, ExploreOutcome::Verified { .. })
    }

    /// Whether a violation was found.
    pub fn is_violation(&self) -> bool {
        matches!(self, ExploreOutcome::Violation { .. })
    }

    /// Whether the state cap stopped the search.
    pub fn is_truncated(&self) -> bool {
        matches!(self, ExploreOutcome::Truncated { .. })
    }
}

/// Which safety property failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two outputs differ.
    Agreement,
    /// An output is not among the declared inputs.
    Validity,
}

/// A factory producing the initial system; the model checker clones its
/// output to branch the search.
pub type SystemFactory<'a> = dyn Fn() -> (Memory, Vec<Box<dyn Program>>) + 'a;

/// A factory that additionally declares which process ids are
/// interchangeable (see [`SymmetrySpec`]); consumed by
/// [`explore_symmetric`].
pub type SymmetricSystemFactory<'a> =
    dyn Fn() -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) + 'a;

/// A copy-on-write shared memory for the search: cell payloads live
/// behind `Arc`s, so branching a state bumps refcounts instead of
/// deep-cloning every register and object state — the cell a child
/// writes gets a fresh payload holding the value its step captured
/// ([`StepOverlay`]). Steps never run against this memory directly; the
/// overlay gives them [`Memory`]'s semantics (same atomicity, same
/// type-confusion panics).
#[derive(Clone)]
enum CowCell {
    Register(Arc<Value>),
    Object {
        ty: rc_spec::TypeHandle,
        state: Arc<Value>,
    },
}

#[derive(Clone)]
struct CowMemory {
    cells: Vec<CowCell>,
}

impl CowMemory {
    fn from_memory(mem: &Memory) -> Self {
        let cells = (0..mem.len())
            .map(|i| match mem.peek_cell(crate::memory::Addr(i)) {
                Cell::Register(v) => CowCell::Register(Arc::new(v)),
                Cell::Object { ty, state } => CowCell::Object {
                    ty,
                    state: Arc::new(state),
                },
            })
            .collect();
        CowMemory { cells }
    }

    fn value_ref(&self, index: usize) -> &Value {
        match &self.cells[index] {
            CowCell::Register(v) => v,
            CowCell::Object { state, .. } => state,
        }
    }

    /// Replaces cell `index`'s value (register contents or object
    /// state) with a fresh payload; the cell's kind and type stay.
    fn write(&mut self, index: usize, value: Value) {
        match &mut self.cells[index] {
            CowCell::Register(v) => *v = Arc::new(value),
            CowCell::Object { state, .. } => *state = Arc::new(value),
        }
    }
}

/// The [`MemOps`] a step runs against while its child is being keyed:
/// reads go to the parent's memory, and the step's write is captured
/// here instead of applied, so nothing is cloned until the child turns
/// out to be a new state. `Program::step` performs at most one
/// shared-memory access; a write to a second cell in one step panics
/// (the child key patches exactly one cell, and the contract is
/// explicit). Type-confused accesses panic exactly as on [`Memory`].
struct StepOverlay<'a> {
    parent: &'a CowMemory,
    /// The cell written by the step and its new value.
    write: Option<(usize, Value)>,
}

impl StepOverlay<'_> {
    /// Cell `index`'s value as the step sees it: its own write, if any,
    /// else the parent's.
    fn value(&self, index: usize) -> &Value {
        match &self.write {
            Some((cell, value)) if *cell == index => value,
            _ => self.parent.value_ref(index),
        }
    }

    fn capture(&mut self, index: usize, value: Value) {
        assert!(
            self.write.as_ref().map_or(true, |(cell, _)| *cell == index),
            "Program::step performed more than one shared-memory write; \
             the step contract allows at most one access"
        );
        self.write = Some((index, value));
    }
}

impl MemOps for StepOverlay<'_> {
    fn read_register(&mut self, addr: crate::memory::Addr) -> Value {
        match &self.parent.cells[addr.0] {
            CowCell::Register(_) => self.value(addr.0).clone(),
            CowCell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn write_register(&mut self, addr: crate::memory::Addr, value: Value) {
        match &self.parent.cells[addr.0] {
            CowCell::Register(_) => self.capture(addr.0, value),
            CowCell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn read_object(&mut self, addr: crate::memory::Addr) -> Value {
        match &self.parent.cells[addr.0] {
            CowCell::Object { ty, .. } => {
                assert!(
                    ty.is_readable(),
                    "type {} is not readable; Read is not available",
                    ty.name()
                );
                self.value(addr.0).clone()
            }
            CowCell::Register(_) => panic!("{addr} is a register, not an object"),
        }
    }

    fn apply(&mut self, addr: crate::memory::Addr, op: &Operation) -> Value {
        let parent = self.parent;
        match &parent.cells[addr.0] {
            CowCell::Object { ty, .. } => {
                let t = ty.apply(self.value(addr.0), op);
                self.capture(addr.0, t.next);
                t.response
            }
            CowCell::Register(_) => panic!("{addr} is a register, not an object"),
        }
    }
}

/// Clone-on-write access to one program slot: clones the program only
/// when its `Arc` is shared with sibling states.
fn program_mut(slot: &mut Arc<Box<dyn Program>>) -> &mut dyn Program {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(slot.boxed_clone());
    }
    &mut **Arc::get_mut(slot).expect("just made unique")
}

/// One system state: shared memory, every process's volatile state, the
/// decided flags, crashes used and the first decided value. Cloning is
/// cheap (copy-on-write payloads) — the engine branches by cloning.
#[derive(Clone)]
struct SysState {
    mem: CowMemory,
    programs: Vec<Arc<Box<dyn Program>>>,
    /// Bit `p` set — process `p`'s current run has decided. Packed so
    /// branching clones a word, not a heap vector.
    decided: u64,
    crashes_used: usize,
    decided_value: Option<Value>,
}

impl SysState {
    fn root(mem: Memory, programs: Vec<Box<dyn Program>>) -> Self {
        assert!(
            programs.len() <= 64,
            "the exhaustive checker packs decided flags into a u64; \
             {}-process systems are far beyond exact exploration anyway",
            programs.len()
        );
        SysState {
            mem: CowMemory::from_memory(&mem),
            programs: programs.into_iter().map(Arc::new).collect(),
            decided: 0,
            crashes_used: 0,
            decided_value: None,
        }
    }

    fn is_decided(&self, p: usize) -> bool {
        self.decided & (1 << p) != 0
    }

    /// Every action the adversary may take from this state, in the
    /// engine's canonical order: steps of undecided processes (ascending
    /// pid), then internal-nondeterminism branches (ascending pid, then
    /// choice id — only for processes whose [`Program::choices`] offers
    /// more than one alternative; single-choice processes step through
    /// plain [`Action::Step`]), then legal crashes (matching
    /// [`CrashModel::legal_crashes`], inlined to build one vector). The
    /// order agrees with the `Action` `Ord`, keeping witness selection
    /// deterministic.
    fn enabled_actions(&self, model: &CrashModel) -> Vec<Action> {
        let n = self.programs.len();
        let mut actions: Vec<Action> = Vec::with_capacity(2 * n + 1);
        let mut branches: Vec<Action> = Vec::new();
        for p in (0..n).filter(|&p| !self.is_decided(p)) {
            let choices = self.programs[p].choices();
            if choices.len() <= 1 {
                actions.push(Action::Step(p));
            } else {
                branches.extend(choices.into_iter().map(|c| Action::Branch(p, c)));
            }
        }
        actions.append(&mut branches);
        if !model.exhausted(self.crashes_used) {
            match model.mode {
                crate::crash::CrashMode::Simultaneous => {
                    if model.may_crash_all_mask(self.decided) {
                        actions.push(Action::CrashAll);
                    }
                }
                crate::crash::CrashMode::Independent => {
                    actions.extend(
                        (0..n)
                            .filter(|&p| model.may_crash(self.is_decided(p)))
                            .map(Action::Crash),
                    );
                }
            }
        }
        actions
    }
}

/// Where [`materialize`] gets post-crash program objects from.
trait CrashSource {
    fn crashed(&mut self, parent: &SysState, p: usize) -> Arc<Box<dyn Program>>;
}

/// Step actions never crash anyone; this source is unreachable.
struct NoCrashes;

impl CrashSource for NoCrashes {
    fn crashed(&mut self, _: &SysState, _: usize) -> Arc<Box<dyn Program>> {
        unreachable!("step actions do not crash programs")
    }
}

/// Slot offsets of the flat interned state key:
/// `[cells | program keys | packed decided bits | crashes | decided value
/// | sleep words (POR only)]`.
///
/// Keys are built **incrementally** ([`patch_child_key`]): a child's key
/// is a copy of its parent's with only the slots the action touched
/// re-interned — the one written memory cell (a step performs at most
/// one access), the stepped or crashed program's key, the decided bit,
/// the crash count and the decided value. Unchanged slots keep their
/// parent's ids, which is sound because interned ids are stable and
/// injective. [`KeyLayout::key_of`] builds the same key from scratch.
///
/// With [`ExploreConfig::por`] the key gains trailing **sleep words**
/// holding the node's packed sleep mask raw (never interner ids): node
/// identity under POR is `(state, sleep set)`, the standard fix for
/// sleep sets meeting state memoization — a state re-reached with a
/// different sleep set must be re-explored. POR-off keys are
/// byte-identical to the pre-POR layout.
#[derive(Clone, Copy)]
struct KeyLayout {
    cells: usize,
    n: usize,
    /// Trailing sleep-mask words; `0` when POR is off.
    sleep_words: usize,
}

impl KeyLayout {
    fn of(state: &SysState, por: bool) -> Self {
        let n = state.programs.len();
        KeyLayout {
            cells: state.mem.cells.len(),
            n,
            sleep_words: if por { n.div_ceil(32) } else { 0 },
        }
    }

    fn decided_words(&self) -> usize {
        self.n.div_ceil(32)
    }

    fn prog(&self, p: usize) -> usize {
        self.cells + p
    }

    fn decided_word(&self, p: usize) -> usize {
        self.cells + self.n + p / 32
    }

    fn crashes(&self) -> usize {
        self.cells + self.n + self.decided_words()
    }

    fn decided_value(&self) -> usize {
        self.crashes() + 1
    }

    fn sleep_word(&self, w: usize) -> usize {
        self.decided_value() + 1 + w
    }

    fn len(&self) -> usize {
        self.decided_value() + 1 + self.sleep_words
    }

    /// The node's sleep mask, read back from its key (`0` without POR).
    fn read_sleep(&self, key: &[u32]) -> u64 {
        let mut mask = 0u64;
        for w in 0..self.sleep_words {
            mask |= u64::from(key[self.sleep_word(w)]) << (32 * w);
        }
        mask
    }

    /// Writes `sleep` into the key's sleep words (no-op without POR).
    fn write_sleep(&self, key: &mut [u32], sleep: u64) {
        for w in 0..self.sleep_words {
            key[self.sleep_word(w)] = (sleep >> (32 * w)) as u32;
        }
    }

    /// The node's packed decided bits, read back from its key.
    fn read_decided(&self, key: &[u32]) -> u64 {
        let mut mask = 0u64;
        for w in 0..self.decided_words() {
            mask |= u64::from(key[self.cells + self.n + w]) << (32 * w);
        }
        mask
    }

    /// Writes `decided` into the key's decided words.
    fn write_decided(&self, key: &mut [u32], decided: u64) {
        for w in 0..self.decided_words() {
            key[self.cells + self.n + w] = (decided >> (32 * w)) as u32;
        }
    }

    /// `state`'s key built from scratch, every value slot resolved
    /// through `id` (cells in address order, then program keys, then the
    /// decided value) and the sleep words zero. The root's key is built
    /// this way; every other key is patched from its parent's
    /// ([`patch_child_key`]), and debug builds check each materialized
    /// child's patched key against this one.
    fn key_of(&self, state: &SysState, mut id: impl FnMut(&Value) -> u32) -> Vec<u32> {
        let mut key = vec![0; self.len()];
        for (cell, slot) in key[..self.cells].iter_mut().enumerate() {
            *slot = id(state.mem.value_ref(cell));
        }
        for (p, prog) in state.programs.iter().enumerate() {
            key[self.prog(p)] = id(&prog.state_key());
        }
        self.write_decided(&mut key, state.decided);
        key[self.crashes()] = u32::try_from(state.crashes_used).expect("crash budget fits u32");
        key[self.decided_value()] = match &state.decided_value {
            Some(v) => id(v),
            None => ValueInterner::NONE,
        };
        key
    }
}

/// What one action changes relative to its parent, computed without
/// building the child: [`patch_child_key`] keys the child from it, and
/// [`materialize`] builds the child state from it only when needed.
#[derive(Default)]
struct StepDelta {
    /// The stepped program, a fresh clone of the parent's (`None` for
    /// crash actions).
    prog: Option<Box<dyn Program>>,
    /// The cell the step wrote and its new value.
    write: Option<(usize, Value)>,
    /// The value the step decided.
    decided: Option<Value>,
}

/// Runs `action`'s step against `parent` without building the child:
/// a clone of the stepped program steps on a [`StepOverlay`] of the
/// parent's memory. Crash actions change only program objects, decided
/// bits and the crash count, which need no step, so their delta is
/// empty.
fn step_delta(parent: &SysState, action: Action) -> StepDelta {
    let (p, choice) = match action {
        Action::Step(p) => (p, None),
        Action::Branch(p, choice) => (p, Some(choice)),
        Action::Crash(_) | Action::CrashAll => return StepDelta::default(),
    };
    let mut prog = parent.programs[p].boxed_clone();
    let mut overlay = StepOverlay {
        parent: &parent.mem,
        write: None,
    };
    let step = match choice {
        Some(choice) => prog.step_choice(&mut overlay, choice),
        None => prog.step(&mut overlay),
    };
    StepDelta {
        prog: Some(prog),
        write: overlay.write,
        decided: match step {
            Step::Decided(v) => Some(v),
            _ => None,
        },
    }
}

/// Builds the child state `action` leads to from `parent` and the
/// action's [`step_delta`]: a copy-on-write clone of the parent plus the
/// stepped program, the written cell and the decision. Crash branches
/// take the shared post-crash program from `crashed` instead of
/// cloning. An earlier decided value is kept: a conflicting decision is
/// a violation the search reports before building the child.
fn materialize(
    parent: &SysState,
    action: Action,
    delta: StepDelta,
    crashed: &mut dyn CrashSource,
) -> SysState {
    let mut child = parent.clone();
    match action {
        Action::Step(p) | Action::Branch(p, _) => {
            child.programs[p] = Arc::new(delta.prog.expect("a step delta holds its program"));
            if let Some((cell, value)) = delta.write {
                child.mem.write(cell, value);
            }
            if let Some(v) = delta.decided {
                child.decided |= 1 << p;
                child.decided_value.get_or_insert(v);
            }
        }
        Action::Crash(p) => {
            child.programs[p] = crashed.crashed(parent, p);
            child.decided &= !(1 << p);
            child.crashes_used += 1;
        }
        Action::CrashAll => {
            for p in 0..child.programs.len() {
                child.programs[p] = crashed.crashed(parent, p);
            }
            child.decided = 0;
            child.crashes_used += 1;
        }
    }
    child
}

/// Writes the key of the child `action` leads to into `key`: the
/// parent's key with the slots the action touched patched (see
/// [`KeyLayout`]) and the child's sleep words. Value slots are interned
/// in a fixed order (written cell, program key, decided value). A
/// decision conflicting with the parent's decided value, or
/// outside the declared inputs, is returned as a violation before
/// anything is resolved.
#[allow(clippy::too_many_arguments)]
fn patch_child_key(
    parent: &SysState,
    parent_key: &[u32],
    action: Action,
    delta: &StepDelta,
    child_sleep: u64,
    layout: &KeyLayout,
    crashes: &CrashedSet,
    inputs: Option<&[Value]>,
    key: &mut Vec<u32>,
    interner: &mut ValueInterner,
) -> Result<(), (ViolationKind, Vec<Value>)> {
    if let Some(v) = &delta.decided {
        if let Some(kind) = check_output(inputs, parent.decided_value.as_ref(), v) {
            return Err((
                kind,
                violation_outputs(parent.decided_value.as_ref(), v.clone()),
            ));
        }
    }
    key.clear();
    key.extend_from_slice(parent_key);
    match action {
        Action::Step(p) | Action::Branch(p, _) => {
            if delta.decided.is_some() {
                key[layout.decided_word(p)] |= 1 << (p % 32);
            }
        }
        Action::Crash(p) => {
            key[layout.decided_word(p)] &= !(1 << (p % 32));
            key[layout.crashes()] =
                u32::try_from(parent.crashes_used + 1).expect("crash budget fits u32");
        }
        Action::CrashAll => {
            layout.write_decided(key, 0);
            key[layout.crashes()] =
                u32::try_from(parent.crashes_used + 1).expect("crash budget fits u32");
        }
    }
    layout.write_sleep(key, child_sleep);
    if let Some((cell, value)) = &delta.write {
        key[*cell] = interner.intern(value);
    }
    match action {
        Action::Step(p) | Action::Branch(p, _) => {
            let prog = delta.prog.as_ref().expect("a step delta holds its program");
            key[layout.prog(p)] = interner.intern(&prog.state_key());
        }
        Action::Crash(p) => key[layout.prog(p)] = crashes.ids[p],
        Action::CrashAll => {
            for p in 0..layout.n {
                key[layout.prog(p)] = crashes.ids[p];
            }
        }
    }
    if let Some(v) = &delta.decided {
        // Equal to the parent's decided value when it had one (checked
        // above), so this re-resolves the same value.
        key[layout.decided_value()] = interner.intern(v);
    }
    Ok(())
}

/// The post-crash program objects, one per process, precomputed **once**
/// per search: [`Program::on_crash`] resets a program to its initial
/// state (input retained — the input never changes across runs), so the
/// reset object and its interned key id are constants whatever state the
/// crash hit. Crash children take a refcount bump and a precomputed id,
/// nothing else. This leans on the
/// same contract the memoization already leans on (`on_crash` resets
/// *everything* volatile; `state_key` is complete).
struct CrashedSet {
    progs: Vec<Arc<Box<dyn Program>>>,
    /// Interned id of each post-crash program key.
    ids: Vec<u32>,
}

impl CrashedSet {
    fn new(root: &SysState, interner: &mut ValueInterner) -> Self {
        let mut progs = Vec::with_capacity(root.programs.len());
        let mut ids = Vec::with_capacity(root.programs.len());
        for prog in &root.programs {
            let mut fresh = prog.boxed_clone();
            fresh.on_crash();
            ids.push(interner.intern(&fresh.state_key()));
            progs.push(Arc::new(fresh));
        }
        CrashedSet { progs, ids }
    }
}

/// [`CrashSource`] over a precomputed [`CrashedSet`]: crash children
/// take a refcount bump, nothing else.
struct FixedCrashes<'a>(&'a CrashedSet);

impl CrashSource for FixedCrashes<'_> {
    fn crashed(&mut self, _: &SysState, p: usize) -> Arc<Box<dyn Program>> {
        self.0.progs[p].clone()
    }
}

/// A keyed child plus its canonicalization permutation (`None` =
/// identity), as returned by [`make_child`]: still a delta
/// against its parent, so a duplicate is dropped without ever building
/// its state.
type ChildDelta = (StepDelta, Option<Box<[u8]>>);

/// The child builder: the final key is written straight into the
/// reusable `scratch` buffer — patched, then (with a
/// [`SymmetrySpec`]) mapped to its canonical representative's key. The
/// child comes back as its [`StepDelta`], which the caller builds
/// ([`StepDelta::into_state`]) only once the visited set calls the key
/// new — a duplicate costs the program clone and step, never a state.
/// The returned permutation goes on the child's parent link.
#[allow(clippy::too_many_arguments)]
fn make_child(
    parent: &SysState,
    parent_key: &[u32],
    action: Action,
    child_sleep: u64,
    layout: &KeyLayout,
    crashes: &CrashedSet,
    interner: &mut ValueInterner,
    inputs: Option<&[Value]>,
    scratch: &mut Vec<u32>,
    spec: Option<&SymmetrySpec>,
) -> Result<ChildDelta, (ViolationKind, Vec<Value>)> {
    let delta = step_delta(parent, action);
    patch_child_key(
        parent,
        parent_key,
        action,
        &delta,
        child_sleep,
        layout,
        crashes,
        inputs,
        scratch,
        interner,
    )?;
    let perm = canonicalize_key(
        spec,
        || child_pinned(parent, action, &delta, crashes),
        scratch,
        layout,
        |id| interner.value(id),
    );
    Ok((delta, perm))
}

impl StepDelta {
    /// Builds the child this delta leads to from `parent` and moves it to
    /// its canonical representative with `perm` (from the child's
    /// [`canonicalize_key`]; `None` = identity), once the visited set
    /// admitted its key `key`. Debug builds check the built child against
    /// `key` (resolving values through `id`) and, with a `spec`, that the
    /// child is canonical under the structural signature.
    #[allow(clippy::too_many_arguments)]
    fn into_state(
        self,
        parent: &SysState,
        action: Action,
        child_sleep: u64,
        perm: Option<&[u8]>,
        key: &[u32],
        layout: &KeyLayout,
        crashes: &CrashedSet,
        spec: Option<&SymmetrySpec>,
        id: impl FnMut(&Value) -> u32,
    ) -> SysState {
        let mut child = materialize(parent, action, self, &mut FixedCrashes(crashes));
        let mut sleep = child_sleep;
        if let (Some(perm), Some(spec)) = (perm, spec) {
            permute_state(&mut child, perm, layout, spec);
            sleep = permute_mask(sleep, perm);
        }
        debug_assert_keyed(&child, key, sleep, layout, spec, id);
        child
    }
}

/// Debug builds only: the two invariants the key-first path rests on,
/// checked on every materialized state.
///
/// * The child's patched (and permuted) key equals its key built from
///   scratch ([`KeyLayout::key_of`] plus the child's sleep words): the
///   visited set decides on that key alone. Resolving here never hands
///   out a new id, because every value of the child already sits in its
///   key.
/// * With a `spec`, the child is already canonical under the
///   **structural** signature — program state key, decided bit, sleep
///   bit, owned-cell and scalarset-family values, sorted as `Value`s by
///   [`SymmetrySpec::canonical_perm_with`] — unless one of its programs
///   is scalarset-pinned. This is an independent oracle for the
///   key-based comparator of [`canonical_perm_of_key`].
fn debug_assert_keyed(
    child: &SysState,
    key: &[u32],
    sleep: u64,
    layout: &KeyLayout,
    spec: Option<&SymmetrySpec>,
    id: impl FnMut(&Value) -> u32,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut scratch = layout.key_of(child, id);
    layout.write_sleep(&mut scratch, sleep);
    assert_eq!(
        scratch, key,
        "a patched child key differs from the child's key built from scratch"
    );
    let Some(spec) = spec else {
        return;
    };
    if spec.has_moving_scalarsets() && child.programs.iter().any(|p| p.scalarset_pinned()) {
        return;
    }
    let perm = structural_perm(child, sleep, spec);
    assert!(
        perm.is_none(),
        "a key-canonicalized child is not canonical under the structural \
         signature (it would still move by {perm:?})"
    );
}

/// The canonical permutation of a built state with sleep mask `sleep`,
/// sorted on per-process signatures built from [`Value`]s (state key,
/// decided and sleep bits, owned and family cell contents). This is the
/// reference [`canonical_perm_of_key`] must agree with; only debug
/// builds and tests evaluate it.
fn structural_perm(state: &SysState, sleep: u64, spec: &SymmetrySpec) -> Option<Box<[u8]>> {
    spec.canonical_perm_with(|p| {
        let owned: Vec<&Value> = spec
            .owned(p)
            .iter()
            .map(|&a| state.mem.value_ref(a.index()))
            .collect();
        let family: Vec<&Value> = spec
            .scalarset_cells(p)
            .map(|a| state.mem.value_ref(a.index()))
            .collect();
        (
            state.programs[p].state_key(),
            state.is_decided(p),
            sleep >> p & 1 != 0,
            owned,
            family,
        )
    })
}

fn check_output(
    inputs: Option<&[Value]>,
    decided: Option<&Value>,
    v: &Value,
) -> Option<ViolationKind> {
    if let Some(d) = decided {
        if d != v {
            return Some(ViolationKind::Agreement);
        }
    }
    if let Some(inputs) = inputs {
        if !inputs.contains(v) {
            return Some(ViolationKind::Validity);
        }
    }
    None
}

fn violation_outputs(decided: Option<&Value>, v: Value) -> Vec<Value> {
    match decided {
        Some(d) => vec![d.clone(), v],
        None => vec![v],
    }
}

/// One edge of the search tree: the parent node, the action that
/// produced this node **in the parent's canonical coordinates**, and the
/// canonicalization permutation applied to the raw child (`None` =
/// identity). The permutations are what lets witness schedules be
/// reported in original process ids.
struct ParentLink {
    parent: u32,
    action: Action,
    perm: Option<Box<[u8]>>,
}

/// Encodes an [`Action`] into the [`WitnessLog`]'s 12-bit action code:
/// `0` is reserved for the root, `1` is `CrashAll`, steps and crashes
/// interleave from `2` (never exceeding `131` for the asserted `n ≤ 64`
/// processes), and internal-nondeterminism branches pack `(pid, choice)`
/// from `132` up. Choice ids are process-slot-indexed
/// ([`Program::choices`]), so `choice < 61` keeps every branch code
/// within the 12-bit budget (`132 + 63·61 + 60 = 4035 < 4096`).
fn action_code(action: Action) -> u16 {
    match action {
        Action::CrashAll => 1,
        Action::Step(p) => 2 + 2 * u16::try_from(p).expect("pid fits u16"),
        Action::Crash(p) => 3 + 2 * u16::try_from(p).expect("pid fits u16"),
        Action::Branch(p, c) => {
            assert!(
                c < 61,
                "witness action codes pack branch choice ids into 12 bits; \
                 choice id {c} of p{p} exceeds the supported 60"
            );
            132 + 61 * u16::try_from(p).expect("pid fits u16")
                + u16::try_from(c).expect("choice fits u16")
        }
    }
}

/// Decodes a [`WitnessLog`] action code (see [`action_code`]).
fn decode_action(code: u16) -> Action {
    match code {
        0 => unreachable!("action code 0 is the root sentinel"),
        1 => Action::CrashAll,
        c if c >= 132 => Action::Branch(usize::from((c - 132) / 61), usize::from((c - 132) % 61)),
        c if c % 2 == 0 => Action::Step(usize::from((c - 2) / 2)),
        c => Action::Crash(usize::from((c - 3) / 2)),
    }
}

/// Renames an action from canonical coordinates to original pids via the
/// accumulated canonical→original map `m` (`None` = identity). Branch
/// choice ids are process-slot-indexed ([`Program::choices`]), so they
/// rename through the same map as the pids.
fn rename_action(action: Action, m: Option<&[u8]>) -> Action {
    match (m, action) {
        (None, a) => a,
        (Some(m), Action::Step(p)) => Action::Step(m[p] as usize),
        (Some(m), Action::Branch(p, c)) => Action::Branch(m[p] as usize, m[c] as usize),
        (Some(m), Action::Crash(p)) => Action::Crash(m[p] as usize),
        (Some(_), Action::CrashAll) => Action::CrashAll,
    }
}

/// Accumulates one edge's canonicalization into the canonical→original
/// map: `m ∘ π`, with `None` as the identity on either side.
fn compose_perm(m: Option<Box<[u8]>>, pi: Option<&[u8]>) -> Option<Box<[u8]>> {
    match (m, pi) {
        (m, None) => m,
        (None, Some(pi)) => Some(Box::from(pi)),
        (Some(m), Some(pi)) => Some(canon::compose(&m, pi)),
    }
}

/// Walks the witness log back to the root, returning the action
/// sequence that reaches node `idx` from the initial state **in
/// original process ids**, plus the accumulated canonical→original pid
/// map at `idx` (for renaming one further action taken from that node).
///
/// Reconstruction runs root-down: starting from the root
/// canonicalization, each stored action is renamed through the map
/// accumulated *before* its edge, and each edge's permutation is then
/// composed in. Without symmetry every permutation is `None` and this
/// degenerates to the plain parent-link walk. The log is append-only
/// and self-contained, so reconstruction works even after the visited
/// set spilled to disk.
fn schedule_to(
    witness: &WitnessLog,
    root_perm: Option<&[u8]>,
    idx: u32,
) -> (Vec<Action>, Option<Box<[u8]>>) {
    let mut path: Vec<(u16, Option<&[u8]>)> = Vec::new();
    let mut at = idx;
    while let Some((parent, code, perm)) = witness.link(at) {
        path.push((code, perm));
        at = parent;
    }
    path.reverse();
    let mut m = root_perm.map(Box::from);
    let mut schedule = Vec::with_capacity(path.len());
    for (code, perm) in path {
        schedule.push(rename_action(decode_action(code), m.as_deref()));
        m = compose_perm(m, perm);
    }
    (schedule, m)
}

/// The running account charged against [`ExploreConfig::max_bytes`]:
/// every accepted state adds [`byte_cost`] of its resolved key, in the
/// DFS's acceptance order. Independent of where the table keeps its
/// keys, so a byte-capped search truncates at the identical state with
/// or without spilling.
struct ByteBudget {
    cap: Option<usize>,
    accepted: usize,
}

impl ByteBudget {
    fn new(cap: Option<usize>) -> Self {
        ByteBudget { cap, accepted: 0 }
    }

    /// Charges one accepted state's cost; `true` means the cap would be
    /// exceeded (the state must be rejected and the search truncated —
    /// nothing is charged).
    fn charge(&mut self, key: &[u32]) -> bool {
        let Some(cap) = self.cap else {
            return false;
        };
        let cost = byte_cost(key);
        if self.accepted + cost > cap {
            return true;
        }
        self.accepted += cost;
        false
    }
}

/// Validates a [`SymmetrySpec`] against the system's initial state: the
/// orbit condition (see the `canon` module docs) requires every orbit's
/// members to start with identical program objects — asserted through
/// equal root [`Program::state_key`]s, the same completeness contract
/// the memoization relies on.
///
/// Declared **owned cells** are additionally validated here, at search
/// start, so an unsound declaration can never corrupt a search:
///
/// * the owned lists of one orbit's members correspond (equal lengths);
/// * every owned cell is a real cell of this system's memory;
/// * the root is stabilized: an orbit's owned cells hold equal values
///   position-for-position across its members;
/// * the **owner-only rule**: a cell owned by a process of an acting
///   orbit is referenced by no other process — checked against the
///   **analyzed footprint** ([`crate::footprint::analyze_system`],
///   computed by the entry points) when the analysis converges, else
///   against the hand-written [`Program::referenced_cells`], and
///   rejected outright when neither is available (soundness cannot be
///   established, so it is not assumed);
/// * when both are available, the hand-written declaration must
///   **cover** the analyzed footprint — an under-declaration would have
///   silently weakened exactly this validation;
/// * every owning member of an acting orbit really supports
///   [`Program::rebind`] (probed with the identity map, which must also
///   preserve [`Program::state_key`]) — a rebind-less program would
///   otherwise panic mid-search, at the first non-identity
///   canonicalization.
fn validate_symmetry(root: &SysState, spec: &SymmetrySpec, analyzed: Option<&SystemFootprint>) {
    assert_eq!(
        spec.n(),
        root.programs.len(),
        "SymmetrySpec describes {} processes but the system has {}",
        spec.n(),
        root.programs.len()
    );
    for pids in spec.acting_orbits() {
        let first = pids[0];
        let first_key = root.programs[first].state_key();
        for &p in &pids[1..] {
            assert_eq!(
                root.programs[p].state_key(),
                first_key,
                "symmetry orbit {pids:?} groups processes with different \
                 initial states (p{first} vs p{p}); orbit members must run \
                 the same program with the same input"
            );
        }
    }
    spec.validate_owned_shape();
    if spec.has_moving_owned_cells() {
        validate_owned_cells(root, spec, analyzed);
    }
    if spec.has_moving_scalarsets() {
        validate_scalarset_cells(root, spec);
    }
    // Orbit reference consistency (best-effort, when enumerable): two
    // members of one orbit must reference the *same* cells outside
    // their own owned lists. A per-process distinguishing cell that is
    // not declared owned makes orbit weights wrong — the arrangements
    // the multinomial counts would not all be reachable states of one
    // canonical class — so the declaration is rejected rather than
    // silently miscounting. Programs without `referenced_cells` keep
    // the pre-rebind status quo: the factory contract vouches for them.
    for pids in spec.acting_orbits() {
        let mut reference: Option<(Pid, std::collections::BTreeSet<crate::memory::Addr>)> = None;
        for &p in pids {
            let Some(refs) = root.programs[p].referenced_cells() else {
                continue;
            };
            let shared: std::collections::BTreeSet<crate::memory::Addr> = refs
                .into_iter()
                .filter(|c| !spec.owned(p).contains(c))
                .collect();
            match &reference {
                None => reference = Some((p, shared)),
                Some((q, expected)) => assert_eq!(
                    &shared, expected,
                    "symmetry orbit {pids:?}: p{q} and p{p} reference \
                     different shared cells outside their owned lists; \
                     per-process cells must be declared owned \
                     (SymmetrySpec::with_owned_cells) or the processes \
                     kept in separate orbits"
                ),
            }
        }
    }
}

/// The owned-cell half of [`validate_symmetry`]: in-range addresses,
/// root stabilization, rebind support and the owner-only reference
/// rule (analyzed-footprint-first; see [`validate_symmetry`]).
fn validate_owned_cells(root: &SysState, spec: &SymmetrySpec, analyzed: Option<&SystemFootprint>) {
    let cells = root.mem.cells.len();
    // Root stabilization: owned contents equal across each orbit.
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in pids {
            for &cell in spec.owned(p) {
                assert!(
                    cell.index() < cells,
                    "owned cell {cell} of p{p} is outside this system's \
                     memory ({cells} cells)"
                );
            }
        }
        for &p in &pids[1..] {
            for (k, (&a, &b)) in spec.owned(first).iter().zip(spec.owned(p)).enumerate() {
                assert_eq!(
                    root.mem.value_ref(a.index()),
                    root.mem.value_ref(b.index()),
                    "symmetry orbit {pids:?}: owned cells at position {k} \
                     ({a} of p{first}, {b} of p{p}) differ at the root; the \
                     orbit group must stabilize the initial state"
                );
            }
        }
    }
    // The owner-only rule, checked against the analyzed footprint when
    // the analysis converged, else against the hand-written
    // `referenced_cells`. One of the two must be available — an unknown
    // reference set could hide a cross-reference, so the declaration is
    // rejected rather than trusted.
    let moving: Vec<(crate::memory::Addr, Pid)> = spec
        .acting_orbits()
        .flat_map(|pids| pids.iter().copied())
        .flat_map(|p| spec.owned(p).iter().map(move |&c| (c, p)))
        .collect();
    for (p, prog) in root.programs.iter().enumerate() {
        let declared = prog.referenced_cells();
        if let (Some(fp), Some(declared)) = (analyzed, &declared) {
            // A declaration that misses an analyzed access would have
            // silently weakened this very validation — hard error.
            for (&cell, modes) in &fp.per_process[p].cells {
                assert!(
                    declared.contains(&cell),
                    "p{p} under-declares referenced_cells: the footprint \
                     analysis observes an access to cell {cell} ({}) that \
                     the declaration omits (rule: referenced_cells must \
                     cover every cell the process may access)",
                    modes.label()
                );
            }
        }
        let refs = analyzed
            .map(|fp| fp.per_process[p].accessed())
            .or(declared)
            .unwrap_or_else(|| {
                panic!(
                    "owned cells are declared but process p{p} does not \
                     enumerate its referenced cells \
                     (Program::referenced_cells returned None) and the \
                     footprint analysis did not converge; the owner-only \
                     soundness rule cannot be validated, so the declaration \
                     is rejected"
                )
            });
        for &(cell, owner) in &moving {
            assert!(
                owner == p || !refs.contains(&cell),
                "cell {cell} is owned by p{owner} but referenced by p{p}; \
                 owned cells permute with their owners, so a cell may be \
                 accessed only by the process that owns it (Fig. 4-style \
                 global scans of per-process registers are outside the \
                 sound fragment — see DESIGN.md §3)"
            );
        }
    }
    // Rebind support: canonicalization will call `Program::rebind` on
    // every relocated owner, so probe it up front (identity map on a
    // clone) — a rebind-less program must be rejected here, at search
    // start, not at the first non-identity permutation deep in a
    // search. Probed last: a declaration that already violates the
    // owner-only rule gets the semantic rejection above, not this
    // mechanical one.
    for pids in spec.acting_orbits() {
        for &p in pids {
            if spec.owned(p).is_empty() {
                continue;
            }
            let mut probe = root.programs[p].boxed_clone();
            let identity = Rebinding::identity(cells);
            if crate::footprint::quiet_probe(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe.rebind(&identity)))
            })
            .is_err()
            {
                panic!(
                    "p{p} declares owned cells but its Program does not \
                     support address rebinding (Program::rebind panicked on \
                     the identity map); implement rebind for it, or drop the \
                     owned-cell declaration — `rc_runtime::lint_system` / \
                     `tables lint` derive sound owned-cell candidates"
                );
            }
            assert_eq!(
                probe.state_key(),
                root.programs[p].state_key(),
                "p{p}: Program::rebind changed the state_key under the \
                 identity map; addresses are identity, not volatile state"
            );
        }
    }
}

/// The scalarset half of [`validate_symmetry`]: in-range addresses,
/// root stabilization across each acting orbit, and rebind support for
/// every orbit member (family permutation rebinds relocated programs
/// even when they own no cells). The *semantic* soundness of permuting
/// a family — the order-insensitive fold property — is established by
/// the scalarset certificate in [`prepare_analysis`], not here.
fn validate_scalarset_cells(root: &SysState, spec: &SymmetrySpec) {
    let cells = root.mem.cells.len();
    for (f, family) in spec.scalarset_families().iter().enumerate() {
        for (p, &cell) in family.iter().enumerate() {
            assert!(
                cell.index() < cells,
                "scalarset family {f}: cell {cell} (position {p}) is \
                 outside this system's memory ({cells} cells)"
            );
        }
    }
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in &pids[1..] {
            for (f, family) in spec.scalarset_families().iter().enumerate() {
                assert_eq!(
                    root.mem.value_ref(family[first].index()),
                    root.mem.value_ref(family[p].index()),
                    "scalarset family {f}: cells {} (p{first}) and {} (p{p}) \
                     differ at the root; the orbit group must stabilize the \
                     initial state",
                    family[first],
                    family[p]
                );
            }
        }
        for &p in pids {
            let mut probe = root.programs[p].boxed_clone();
            let identity = Rebinding::identity(cells);
            if crate::footprint::quiet_probe(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe.rebind(&identity)))
            })
            .is_err()
            {
                panic!(
                    "a scalarset family spans p{p}'s orbit but its Program \
                     does not support address rebinding (Program::rebind \
                     panicked on the identity map); canonicalization rebinds \
                     every relocated member, so implement rebind or drop the \
                     scalarset declaration"
                );
            }
            assert_eq!(
                probe.state_key(),
                root.programs[p].state_key(),
                "p{p}: Program::rebind changed the state_key under the \
                 identity map; addresses are identity, not volatile state"
            );
        }
    }
}

/// Footprint-analysis artifacts, computed by the public entry points
/// (which still hold the factory's `Memory` and programs — the engine
/// only ever sees the copy-on-write root) and threaded into the engine:
/// the analyzed footprint feeds [`validate_symmetry`], the independence
/// relation the dynamic cross-validation.
#[derive(Default)]
struct AnalysisCtx {
    footprint: Option<SystemFootprint>,
    independence: Option<StaticIndependence>,
    /// The per-local-state analysis backing POR, present iff
    /// [`ExploreConfig::por`] is set (setup panics when the system is
    /// ineligible — see [`ExploreConfig::por`]).
    por: Option<Arc<SystemAnalysis>>,
}

/// Runs the footprint analysis when this search needs it: always when
/// [`ExploreConfig::por`] or
/// [`ExploreConfig::cross_validate_independence`] ask for it (analysis
/// failure is then a panic — an explicit request must not silently
/// no-op), and for owned-cell symmetry validation (failure there falls
/// back to the hand-written `referenced_cells` declarations, the
/// pre-analyzer status quo). POR additionally requires acyclic step
/// graphs and — under symmetry — equivariant per-state footprints
/// across every orbit; both are enforced here, at search start.
fn prepare_analysis(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    config: &ExploreConfig,
    spec: Option<&SymmetrySpec>,
) -> AnalysisCtx {
    let wants_validation = spec.is_some_and(|s| !s.is_trivial() && s.has_moving_owned_cells());
    let mut ctx = AnalysisCtx::default();
    if let Some(spec) = spec.filter(|s| s.has_moving_scalarsets()) {
        // Scalarset families are permuted only under a clean
        // equivariance certificate — soundness is linted, not assumed.
        let cert = crate::scalarset::certify_scalarsets_cached(
            config.analysis_id.as_deref(),
            mem,
            programs,
            spec,
            AnalysisBudget::default(),
        );
        if !cert.is_certified() {
            panic!(
                "the declared scalarset families are not certified \
                 order-insensitive; refusing to permute them:\n  {}",
                cert.errors.join("\n  ")
            );
        }
    }
    if config.por {
        let analysis = match config.analysis_id.as_deref() {
            Some(id) => system_analysis_cached(id, mem, programs, AnalysisBudget::default()),
            None => analyze_system_states(mem, programs, AnalysisBudget::default()).map(Arc::new),
        };
        let analysis = analysis.unwrap_or_else(|e| {
            panic!("ExploreConfig::por is set but the footprint analysis failed: {e}")
        });
        assert!(
            analysis.step_graphs_acyclic(),
            "ExploreConfig::por is set but a process's step graph is \
             cyclic; the per-state future footprints of a spinning \
             process are not grounded in termination, so POR is refused \
             for this system (lint_ample reports which process)"
        );
        if let Some(spec) = spec.filter(|s| !s.is_trivial()) {
            if spec.has_moving_scalarsets() {
                // The pairwise owned-cell rename below cannot express a
                // cross-read family: at a mid-scan key the immediate
                // sets are identical *unrenamed* across members, while
                // own-position accesses need the rename — one map
                // cannot serve both. The scalarset certificate (checked
                // above) subsumes this: its member-exchange and rebind
                // fidelity checks prove the per-slot tables stay valid
                // after relocation.
            } else if let Err(e) = check_por_equivariance(&analysis, spec) {
                panic!("ExploreConfig::por with symmetry: {e}");
            }
        }
        ctx.footprint = Some(analysis.footprint.clone());
        ctx.por = Some(analysis);
    }
    if !config.cross_validate_independence && !wants_validation {
        return ctx;
    }
    if ctx.footprint.is_none() {
        match analyze_system(mem, programs, true, AnalysisBudget::default()) {
            Ok(footprint) => ctx.footprint = Some(footprint),
            Err(e) if config.cross_validate_independence => panic!(
                "cross_validate_independence is set but the footprint \
                 analysis failed: {e}"
            ),
            Err(_) => return ctx,
        }
    }
    if config.cross_validate_independence {
        ctx.independence = ctx
            .footprint
            .as_ref()
            .map(StaticIndependence::from_footprint);
    }
    ctx
}

/// Checks that the per-local-state footprints are **equivariant** across
/// every acting orbit of `spec`: orbit members must memoize the same
/// `(state_key, decided)` local states, and each state's access sets
/// must agree modulo the renaming that swaps the two members' owned
/// cells position-for-position. Canonicalization relocates programs
/// between orbit slots, so the POR engine looks a relocated program's
/// state up in the *destination* slot's map — equivariance is exactly
/// what makes that lookup yield the relocated process's true footprint.
/// Checked for the transposition of each member with the orbit's first
/// (transpositions generate the orbit's symmetric group).
fn check_por_equivariance(analysis: &SystemAnalysis, spec: &SymmetrySpec) -> Result<(), String> {
    let bits = analysis.cells + 1;
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in &pids[1..] {
            // The transposition (first p) on cell indices: identity
            // except the two members' owned cells, swapped
            // position-for-position; the decision pseudo-cell is fixed.
            let mut rename: Vec<usize> = (0..bits).collect();
            for (&a, &b) in spec.owned(first).iter().zip(spec.owned(p)) {
                rename[a.index()] = b.index();
                rename[b.index()] = a.index();
            }
            let (ma, mb) = (&analysis.per_process[first], &analysis.per_process[p]);
            if ma.infos.len() != mb.infos.len() {
                return Err(format!(
                    "orbit {pids:?}: p{first} memoizes {} local states but \
                     p{p} memoizes {}; the per-state footprint maps are \
                     not equivariant, so POR cannot compose with this \
                     symmetry",
                    ma.infos.len(),
                    mb.infos.len()
                ));
            }
            for info in &ma.infos {
                let Some(other) = mb.lookup(&info.key, info.decided) else {
                    return Err(format!(
                        "orbit {pids:?}: p{first} memoizes a local state \
                         p{p} never reaches; the per-state footprint maps \
                         are not equivariant, so POR cannot compose with \
                         this symmetry"
                    ));
                };
                let pairs = [
                    ("imm_accessed", &info.imm_accessed, &other.imm_accessed),
                    ("imm_mutated", &info.imm_mutated, &other.imm_mutated),
                    (
                        "future_accessed",
                        &info.future_accessed,
                        &other.future_accessed,
                    ),
                    (
                        "future_mutated",
                        &info.future_mutated,
                        &other.future_mutated,
                    ),
                ];
                for (label, a, b) in pairs {
                    if !renamed_equal(a, b, &rename) {
                        return Err(format!(
                            "orbit {pids:?}: p{first} and p{p} disagree on \
                             {label} of a shared local state (modulo the \
                             owned-cell renaming); the per-state footprint \
                             maps are not equivariant, so POR cannot \
                             compose with this symmetry"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Whether `rename` maps `a` exactly onto `b` (`rename` is a bijection
/// on bit indices, so image inclusion plus equal cardinality suffices).
fn renamed_equal(a: &CellSet, b: &CellSet, rename: &[usize]) -> bool {
    let mut len_a = 0usize;
    for bit in a.iter() {
        len_a += 1;
        if !b.contains(rename[bit]) {
            return false;
        }
    }
    len_a == b.iter().count()
}

/// The per-search partial-order reduction engine: the per-local-state
/// footprint analysis re-keyed by **interned** program-state ids, so the
/// hot expansion path looks footprints up by the `u32` already in the
/// node key instead of rebuilding `Value` state keys.
struct PorEngine {
    analysis: Arc<SystemAnalysis>,
    /// Per process: interned `state_key` id → index into that process's
    /// `infos`, for **undecided** states only (enabled steps belong to
    /// undecided processes; decided states never need a lookup).
    by_id: Vec<HashMap<u32, usize>>,
}

impl PorEngine {
    /// Builds the engine, interning every analyzed state key in a fixed
    /// order (pid-major, discovery order), right after
    /// [`CrashedSet::new`], so value ids and therefore every node key
    /// repeat exactly from run to run.
    fn new(analysis: Arc<SystemAnalysis>, interner: &mut ValueInterner) -> Self {
        let by_id = analysis
            .per_process
            .iter()
            .map(|map| {
                let mut ids = HashMap::new();
                for (i, info) in map.infos.iter().enumerate() {
                    let id = interner.intern(&info.key);
                    if !info.decided {
                        ids.insert(id, i);
                    }
                }
                ids
            })
            .collect();
        PorEngine { analysis, by_id }
    }

    /// The analyzed footprints of process `p`'s current (undecided)
    /// local state, by the interned key id from the node key. A
    /// reachable state the analysis never memoized means the analyzer
    /// under-approximated the state space — unsound, so panic.
    fn info(&self, p: usize, id: u32) -> &LocalStateInfo {
        let idx = self.by_id[p].get(&id).unwrap_or_else(|| {
            panic!(
                "POR: process p{p} reached a local state the footprint \
                 analysis never memoized; the analyzer is unsound for \
                 this system"
            )
        });
        &self.analysis.per_process[p].infos[*idx]
    }
}

/// Expands one node under the optional POR engine: returns the child
/// actions — each paired with the **sleep mask** its child node will
/// carry — plus whether the node is terminal (no enabled action at all:
/// a complete execution). Without POR every enabled action is returned
/// with an empty mask.
///
/// With POR, at a crash-free node (any enabled crash forces full
/// expansion — crashes conflict with everything, which keeps every
/// [`CrashModel`] adversary complete; crash-freedom is hereditary along
/// step edges, so sleep sets only ever form below crash-free nodes):
///
/// * the **persistent set** is the first singleton `{p}` (ascending
///   pid) whose immediate step is statically independent of everything
///   the other undecided processes can ever do — `imm_mutated(p)`
///   disjoint from their crash-free `future_accessed`, their
///   `future_mutated` disjoint from `imm_accessed(p)`, with the
///   decision pseudo-cell making any two possibly-deciding steps
///   conflict — else all enabled steps;
/// * the node's own sleep set `Z` (read from its key) drops members
///   whose subtrees a sibling already covers;
/// * each expanded child inherits the sleeping pids that remain
///   immediately independent of the step taken, plus its
///   already-expanded siblings — classic sleep-set propagation, in
///   ascending pid order so the set is deterministic.
///
/// An empty action list with `terminal == false` is a fully pruned
/// node: visited and counted, but **not** a leaf and expanding nothing.
fn expand_actions(
    state: &SysState,
    key: &[u32],
    layout: &KeyLayout,
    model: &CrashModel,
    por: Option<&PorEngine>,
) -> (Vec<(Action, u64)>, bool) {
    let enabled = state.enabled_actions(model);
    let terminal = enabled.is_empty();
    let Some(por) = por else {
        return (enabled.into_iter().map(|a| (a, 0)).collect(), terminal);
    };
    let sleep = layout.read_sleep(key);
    debug_assert_eq!(
        sleep & state.decided,
        0,
        "a sleeping process is undecided by construction"
    );
    if terminal {
        // A sleeping process stays enabled (nobody else decides it, and
        // crash-free nodes stay crash-free), so terminals carry Z = ∅
        // and POR counts exactly the unreduced leaves.
        assert_eq!(sleep, 0, "terminal node carries a sleep set");
        return (Vec::new(), true);
    }
    if enabled
        .iter()
        .any(|a| matches!(a, Action::Crash(_) | Action::CrashAll))
    {
        // Crash-enabled: full expansion, and the sleep set is provably
        // empty — a node with a non-empty sleep set descends from a
        // crash-free node through step edges only, and crash-freedom is
        // hereditary along steps (the budget never recovers, decided
        // bits only get set).
        assert_eq!(sleep, 0, "crash-enabled node carries a sleep set");
        return (enabled.into_iter().map(|a| (a, 0)).collect(), terminal);
    }
    // POR reasons per **process**: a pid's internal alternatives
    // (several `Branch` actions) share one footprint entry — the
    // analyzer unions immediate sets over all choices — and are either
    // all expanded or all covered by a sibling subtree together.
    let mut per_pid: Vec<(usize, Vec<Action>)> = Vec::new();
    for &a in &enabled {
        let p = match a {
            Action::Step(p) | Action::Branch(p, _) => p,
            _ => unreachable!("crash-free node"),
        };
        match per_pid.last_mut() {
            Some((q, list)) if *q == p => list.push(a),
            _ => per_pid.push((p, vec![a])),
        }
    }
    per_pid.sort_by_key(|&(p, _)| p);
    let steps: Vec<usize> = per_pid.iter().map(|&(p, _)| p).collect();
    let infos: Vec<&LocalStateInfo> = steps
        .iter()
        .map(|&p| por.info(p, key[layout.prog(p)]))
        .collect();
    // The persistent set: the first singleton that no other process can
    // ever conflict with, else every enabled step. The future sets are
    // the crash-free ones — sound precisely because this node is
    // crash-free and stays so along every step-only continuation.
    let persistent: Vec<usize> = (0..steps.len())
        .find(|&i| {
            infos.iter().enumerate().all(|(j, other)| {
                j == i
                    || (infos[i].imm_mutated.is_disjoint(&other.future_accessed)
                        && other.future_mutated.is_disjoint(&infos[i].imm_accessed))
            })
        })
        .map_or_else(|| (0..steps.len()).collect(), |i| vec![i]);
    let mut out: Vec<(Action, u64)> = Vec::with_capacity(persistent.len());
    // Sleep bits are pure pruning, so propagating fewer is always
    // sound. At a node where some process is mid-branch (several
    // enabled `Branch` alternatives), propagating them is also a net
    // loss: the choice diamonds below are collapsed by the memo table
    // anyway, while a nonzero sleep mask in the child's node key splits
    // every memoized state it reaches — measured on the Fig. 4
    // branching scan, that splitting costs more states than the sleep
    // pruning saves, and suppressing it here restores the persistent-set
    // reduction (E17's scalarset+por composition). Deterministic nodes
    // keep classic sleep-set propagation unchanged.
    let branching = per_pid.iter().any(|(_, list)| list.len() > 1);
    // `Z ∪ {already-expanded siblings}`: a pid's bit joins as its
    // subtree is scheduled, so later siblings may sleep on it.
    let mut cover = sleep;
    for &i in &persistent {
        let p = steps[i];
        if sleep >> p & 1 != 0 {
            continue; // asleep: a sibling subtree covers this step
        }
        let mut child_sleep = 0u64;
        for (j, &r) in steps.iter().enumerate() {
            if r == p || cover >> r & 1 == 0 || branching {
                continue;
            }
            let imm_independent = infos[j].imm_mutated.is_disjoint(&infos[i].imm_accessed)
                && infos[i].imm_mutated.is_disjoint(&infos[j].imm_accessed);
            if imm_independent {
                child_sleep |= 1 << r;
            }
        }
        for &action in &per_pid[i].1 {
            out.push((action, child_sleep));
        }
        cover |= 1 << p;
    }
    (out, false)
}

/// Takes step action `a` then step action `b` from `state`, returning the
/// end state and each step's decision — the commutation probe shared by
/// [`cross_validate_node`] and the lint's [`commute_divergence`].
fn step_pair(state: &SysState, a: Action, b: Action) -> (SysState, Option<Value>, Option<Value>) {
    let first = step_delta(state, a);
    let a_decided = first.decided.clone();
    let mid = materialize(state, a, first, &mut NoCrashes);
    let second = step_delta(&mid, b);
    let b_decided = second.decided.clone();
    (
        materialize(&mid, b, second, &mut NoCrashes),
        a_decided,
        b_decided,
    )
}

/// Asserts that every pair of enabled steps the static relation calls
/// independent really commutes *from this state*: both orders must
/// produce identical memory, identical state keys for both processes,
/// identical decided flags and identical decisions. Called once per
/// expanded node when
/// [`ExploreConfig::cross_validate_independence`] is set.
fn cross_validate_node(state: &SysState, indep: &StaticIndependence) {
    let n = state.programs.len();
    // Every step-like action of each undecided process: one `Step` for
    // deterministic local states, one `Branch` per choice for
    // nondeterministic ones (a scalarset scan mid-mask). Independence is
    // per *process*, so every cross-pid action pair must commute.
    let per_pid: Vec<(usize, Vec<Action>)> = (0..n)
        .filter(|&p| !state.is_decided(p))
        .map(|p| {
            let choices = state.programs[p].choices();
            let acts = if choices.len() <= 1 {
                vec![Action::Step(p)]
            } else {
                choices.into_iter().map(|c| Action::Branch(p, c)).collect()
            };
            (p, acts)
        })
        .collect();
    for (i, (p, p_acts)) in per_pid.iter().enumerate() {
        let (p, q_list) = (*p, &per_pid[i + 1..]);
        for (q, q_acts) in q_list {
            let q = *q;
            if !indep.are_independent(p, q) {
                continue;
            }
            for &pa in p_acts {
                for &qa in q_acts {
                    let (pq, p_first, q_second) = step_pair(state, pa, qa);
                    let (qp, q_first, p_second) = step_pair(state, qa, pa);
                    let explain = "statically-independent enabled steps must \
                                   commute; the footprint analysis is unsound for \
                                   this system";
                    assert_eq!(
                        p_first, p_second,
                        "p{p}'s step outcome depends on whether p{q} stepped first; {explain}"
                    );
                    assert_eq!(
                        q_first, q_second,
                        "p{q}'s step outcome depends on whether p{p} stepped first; {explain}"
                    );
                    assert_eq!(pq.decided, qp.decided, "steps p{p}/p{q}: {explain}");
                    for who in [p, q] {
                        assert_eq!(
                            pq.programs[who].state_key(),
                            qp.programs[who].state_key(),
                            "p{who}'s local state differs between step orders \
                             p{p};p{q} and p{q};p{p}; {explain}"
                        );
                    }
                    for cell in 0..pq.mem.cells.len() {
                        assert_eq!(
                            pq.mem.value_ref(cell),
                            qp.mem.value_ref(cell),
                            "cell @{cell} differs between step orders p{p};p{q} \
                             and p{q};p{p}; {explain}"
                        );
                    }
                }
            }
        }
    }
}

/// Maps a keyed child's key to its canonical representative's key under
/// `spec`'s
/// orbit permutations, without building the child. Returns the
/// permutation applied (`perm[i]` = source slot of canonical slot `i`,
/// see [`permute_key`]), or `None` when there is no spec, the key is
/// already canonical, or `pinned()` reports a scalarset-pinned program:
/// a pinned program references scalarset family members *positionally*
/// (a mid-scan mask of checked positions), and permuting the family
/// under it would dangle those references. Identity is always sound —
/// pinned states simply forgo reduction, and the certifier guarantees
/// the states that carry leaf weights (decided ones) are never pinned.
/// `value_of` resolves the key's ids for [`canonical_perm_of_key`].
fn canonicalize_key<'v>(
    spec: Option<&SymmetrySpec>,
    pinned: impl FnOnce() -> bool,
    key: &mut [u32],
    layout: &KeyLayout,
    value_of: impl Fn(u32) -> &'v Value,
) -> Option<Box<[u8]>> {
    let spec = spec?;
    if spec.has_moving_scalarsets() && pinned() {
        return None;
    }
    let perm = canonical_perm_of_key(key, layout, spec, value_of)?;
    permute_key(key, &perm, layout, spec);
    Some(perm)
}

/// Whether the child `action` leads to holds a scalarset-pinned program,
/// read off the parent's programs, the stepped program of `delta` and
/// the post-crash set — the child itself is not built.
fn child_pinned(
    parent: &SysState,
    action: Action,
    delta: &StepDelta,
    crashes: &CrashedSet,
) -> bool {
    (0..parent.programs.len()).any(|p| {
        let prog: &dyn Program = match action {
            Action::Step(q) | Action::Branch(q, _) if q == p => delta
                .prog
                .as_deref()
                .expect("a step delta holds its program"),
            Action::Crash(q) if q == p => &**crashes.progs[p],
            Action::CrashAll => &**crashes.progs[p],
            _ => &**parent.programs[p],
        };
        prog.scalarset_pinned()
    })
}

/// The canonical-representative permutation of the state keyed `key`,
/// chosen on the key alone. Within each orbit, members are ordered by
/// their key slots, in signature order: program state, decided bit,
/// sleep bit (constant without POR), then owned-cell and scalarset
/// family contents. The sleep bit is there because under POR node
/// identity is `(state, sleep set)` and the mask permutes with its
/// processes; owned and family contents because the permutation moves
/// them, so the order must be total over them.
///
/// Value slots compare **equal when their ids are equal, else by the
/// values behind them** (`value_of`). Interning is injective, so this is
/// exactly the structural order of the values — never the order of the
/// ids, which depends on first-use order. The representative is
/// therefore the one the structural sort debug builds check against
/// (`debug_assert_keyed`) picks.
fn canonical_perm_of_key<'v>(
    key: &[u32],
    layout: &KeyLayout,
    spec: &SymmetrySpec,
    value_of: impl Fn(u32) -> &'v Value,
) -> Option<Box<[u8]>> {
    let decided = layout.read_decided(key);
    let sleep = layout.read_sleep(key);
    let slot = |a: usize, b: usize| {
        let (a, b) = (key[a], key[b]);
        if a == b {
            Ordering::Equal
        } else {
            value_of(a).cmp(value_of(b))
        }
    };
    let cells = |a: &[Addr], b: &[Addr]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| slot(x.index(), y.index()))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    spec.canonical_perm_by(|a, b| {
        slot(layout.prog(a), layout.prog(b))
            .then_with(|| (decided >> a & 1).cmp(&(decided >> b & 1)))
            .then_with(|| (sleep >> a & 1).cmp(&(sleep >> b & 1)))
            .then_with(|| cells(spec.owned(a), spec.owned(b)))
            .then_with(|| {
                spec.scalarset_families()
                    .iter()
                    .map(|family| slot(family[a].index(), family[b].index()))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
    })
}

/// Every key value slot `perm` relocates, as `(old_pos, new_pos)`: the
/// program slot of each moved process, its declared **owned cells**
/// (position for position) and its **scalarset family** cells. The
/// decided and sleep words move too, bitwise ([`permute_mask`]);
/// undeclared shared memory never moves (see the `canon` module docs for
/// the soundness argument and the owner-only reference rule).
fn moved_slots<'a>(
    perm: &'a [u8],
    layout: &'a KeyLayout,
    spec: &'a SymmetrySpec,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    perm.iter()
        .enumerate()
        .filter(|&(i, &src)| usize::from(src) != i)
        .flat_map(move |(i, &src)| {
            let src = usize::from(src);
            let owned = spec
                .owned(src)
                .iter()
                .zip(spec.owned(i))
                .map(|(from, to)| (from.index(), to.index()));
            let family = spec
                .scalarset_families()
                .iter()
                .map(move |family| (family[src].index(), family[i].index()));
            std::iter::once((layout.prog(src), layout.prog(i)))
                .chain(owned)
                .chain(family)
        })
}

/// `mask` with bit `i` taken from bit `perm[i]`.
fn permute_mask(mask: u64, perm: &[u8]) -> u64 {
    perm.iter()
        .enumerate()
        .fold(0, |acc, (i, &src)| acc | (mask >> src & 1) << i)
}

/// Applies the orbit permutation `perm` (`perm[i]` = source slot of
/// slot `i`) to a state key: program slots, owned and family cells,
/// decided words and sleep words. [`permute_state`] is the same move on
/// a built state; the two agree slot for slot (debug builds check every
/// materialized child, and a unit test checks them directly).
fn permute_key(key: &mut [u32], perm: &[u8], layout: &KeyLayout, spec: &SymmetrySpec) {
    // Read every source before writing: a slot may be both a source and
    // a destination within one orbit rotation.
    let source = key.to_vec();
    for (old, new) in moved_slots(perm, layout, spec) {
        key[new] = source[old];
    }
    layout.write_decided(key, permute_mask(layout.read_decided(&source), perm));
    layout.write_sleep(key, permute_mask(layout.read_sleep(&source), perm));
}

/// Applies the orbit permutation `perm` to a built state: programs and
/// decided bits move between slots, owned and family cell contents move
/// with them ([`moved_slots`]), and every relocated program whose
/// destination owns cells, or whose family moved, is rebound
/// ([`Program::rebind`]) to its destination slot's cells. Unlike owned
/// cells, family cells are cross-read — which is exactly what the
/// scalarset certificate licenses (the scan is an order-insensitive
/// fold, so every program is equivariant under the family permutation).
fn permute_state(state: &mut SysState, perm: &[u8], layout: &KeyLayout, spec: &SymmetrySpec) {
    let scalarsets = spec.has_moving_scalarsets();
    // Gather every moved payload before writing anything, as in
    // `permute_key`. The rebinding is built only on the first cell move:
    // slots-only specs never pay its O(cells) identity allocation.
    let mut cells: Vec<(usize, CowCell)> = Vec::new();
    let mut rebinding: Option<Rebinding> = None;
    for (old, new) in moved_slots(perm, layout, spec) {
        if old < layout.cells {
            cells.push((new, state.mem.cells[old].clone()));
            rebinding
                .get_or_insert_with(|| Rebinding::identity(layout.cells))
                .map(Addr(old), Addr(new));
        }
    }
    let programs = state.programs.clone();
    for (i, &src) in perm.iter().enumerate() {
        let src = usize::from(src);
        if src == i {
            continue;
        }
        state.programs[i] = programs[src].clone();
        if let Some(map) = &rebinding {
            if scalarsets || !spec.owned(i).is_empty() {
                program_mut(&mut state.programs[i]).rebind(map);
            }
        }
    }
    for (new, content) in cells {
        state.mem.cells[new] = content;
    }
    state.decided = permute_mask(state.decided, perm);
}

/// Maps the root and its key to the canonical representative, exactly as
/// every child is ([`canonicalize_key`], then [`permute_state`]), and
/// returns the permutation applied.
fn canonicalize_root(
    root: &mut SysState,
    key: &mut [u32],
    layout: &KeyLayout,
    spec: &SymmetrySpec,
    interner: &mut ValueInterner,
) -> Option<Box<[u8]>> {
    let perm = canonicalize_key(
        Some(spec),
        || root.programs.iter().any(|p| p.scalarset_pinned()),
        key,
        layout,
        |id| interner.value(id),
    );
    if let Some(perm) = &perm {
        permute_state(root, perm, layout, spec);
    }
    debug_assert_keyed(root, key, 0, layout, Some(spec), |v| interner.intern(v));
    perm
}

/// The leaf weight of an accepted canonical state: how many concrete
/// states its permutation class contains (1 without symmetry). Weighting
/// leaves with this keeps leaf counts identical with symmetry on and
/// off. Signatures come from the **resolved** key (interned ids are
/// injective, so id multiplicities equal value multiplicities).
fn leaf_weight(
    spec: Option<&SymmetrySpec>,
    state: &SysState,
    key: &[u32],
    layout: &KeyLayout,
) -> usize {
    match spec {
        None => 1,
        Some(spec) => {
            let weight = spec.orbit_weight_with(|p| {
                // Owned-cell and scalarset-family ids join the signature
                // exactly as in the canonical sort: members differing
                // only in owned or family contents are distinct
                // arrangements. (Leaves are decided configurations, and
                // the certifier guarantees decided states are never
                // pinned, so families permute freely here.)
                let owned: Vec<u32> = spec.owned(p).iter().map(|a| key[a.index()]).collect();
                let family: Vec<u32> = spec.scalarset_cells(p).map(|a| key[a.index()]).collect();
                (key[layout.prog(p)], state.is_decided(p), owned, family)
            });
            usize::try_from(weight).expect("leaf weight fits usize")
        }
    }
}

/// A DFS frame: one visited node plus a cursor over its expandable
/// actions (each carrying the sleep mask its child will inherit).
struct Frame {
    state: SysState,
    key: Vec<u32>,
    idx: u32,
    actions: Vec<(Action, u64)>,
    cursor: usize,
}

struct SerialEngine<'a> {
    config: &'a ExploreConfig,
    layout: KeyLayout,
    spec: Option<&'a SymmetrySpec>,
    indep: Option<&'a StaticIndependence>,
    por: Option<&'a PorEngine>,
    interner: ValueInterner,
    visited: PackedStateTable,
    witness: WitnessLog,
    budget: ByteBudget,
    root_perm: Option<Box<[u8]>>,
    leaves: usize,
    truncated: bool,
}

impl SerialEngine<'_> {
    /// Memoizes the state whose resolved key is `key` and, when it is
    /// new, logs its witness edge and returns its node index. Sets
    /// `truncated` when the state is new but the state cap is already
    /// full, or its [`byte_cost`] would overrun the byte cap.
    /// Runs on the key alone, so the caller builds a child state only
    /// for a key this admits. `parent_key` is the parent's resolved key
    /// (empty at the root), against which the witness log delta-encodes
    /// this node's key.
    fn admit(
        &mut self,
        key: &[u32],
        parent: Option<&ParentLink>,
        parent_key: &[u32],
    ) -> Option<u32> {
        if self.visited.len() >= self.config.max_states {
            // At the cap, only a *new* state means truncation.
            if self.visited.get(key).is_none() {
                self.truncated = true;
            }
            return None;
        }
        let (idx, is_new) = self.visited.insert(key);
        if !is_new {
            return None;
        }
        if self.budget.charge(key) {
            // The rejected key stays in the table, but the search stops
            // here and counts accepted states from the witness log.
            self.truncated = true;
            return None;
        }
        match parent {
            None => self.witness.push(None, 0, None, parent_key, key),
            Some(link) => self.witness.push(
                Some(link.parent),
                action_code(link.action),
                link.perm.as_deref(),
                parent_key,
                key,
            ),
        }
        Some(idx)
    }

    /// Classifies the admitted node `idx`: counts a leaf, or returns the
    /// frame to push when the node has actions to expand.
    fn frame(&mut self, state: SysState, key: &[u32], idx: u32) -> Option<Frame> {
        let (actions, terminal) =
            expand_actions(&state, key, &self.layout, &self.config.crash, self.por);
        if terminal {
            self.leaves += leaf_weight(self.spec, &state, key, &self.layout);
            return None;
        }
        if actions.is_empty() {
            // POR pruned every enabled step (all asleep): the node is
            // visited and counted, but a sibling subtree covers its
            // continuations — not a leaf, nothing to expand.
            return None;
        }
        if let Some(indep) = self.indep {
            cross_validate_node(&state, indep);
        }
        Some(Frame {
            state,
            key: key.to_vec(),
            idx,
            actions,
            cursor: 0,
        })
    }
}

/// The search behind every entry point: normalizes a trivial
/// [`SymmetrySpec`] away, so the symmetry-off hot paths stay untouched,
/// then runs the DFS.
fn explore_serial(
    mut root: SysState,
    config: &ExploreConfig,
    spec: Option<&SymmetrySpec>,
    analysis: &AnalysisCtx,
) -> (ExploreOutcome, ExploreStats) {
    let spec = spec.filter(|s| !s.is_trivial());
    let layout = KeyLayout::of(&root, analysis.por.is_some());
    let mut interner = ValueInterner::new();
    let crashes = CrashedSet::new(&root, &mut interner);
    let por = analysis
        .por
        .as_ref()
        .map(|a| PorEngine::new(a.clone(), &mut interner));
    let mut engine = SerialEngine {
        config,
        layout,
        spec,
        indep: analysis.independence.as_ref(),
        por: por.as_ref(),
        interner,
        visited: PackedStateTable::new(config.spill_threshold),
        witness: WitnessLog::new(),
        budget: ByteBudget::new(config.max_bytes),
        root_perm: None,
        leaves: 0,
        truncated: false,
    };
    let mut scratch: Vec<u32> = Vec::with_capacity(layout.len());
    let mut stack: Vec<Frame> = Vec::new();
    let outcome = 'search: {
        {
            let mut root_key = layout.key_of(&root, |v| engine.interner.intern(v));
            if let Some(spec) = spec {
                validate_symmetry(&root, spec, analysis.footprint.as_ref());
                engine.root_perm = canonicalize_root(
                    &mut root,
                    &mut root_key,
                    &layout,
                    spec,
                    &mut engine.interner,
                );
            }
            if let Some(idx) = engine.admit(&root_key, None, &[]) {
                stack.extend(engine.frame(root, &root_key, idx));
            }
        }
        while !stack.is_empty() && !engine.truncated {
            let top = stack.last_mut().expect("non-empty stack");
            if top.cursor >= top.actions.len() {
                stack.pop();
                continue;
            }
            let (action, child_sleep) = top.actions[top.cursor];
            top.cursor += 1;
            let parent_idx = top.idx;
            match make_child(
                &top.state,
                &top.key,
                action,
                child_sleep,
                &layout,
                &crashes,
                &mut engine.interner,
                config.inputs.as_deref(),
                &mut scratch,
                spec,
            ) {
                Err((kind, outputs)) => {
                    let (mut schedule, m) =
                        schedule_to(&engine.witness, engine.root_perm.as_deref(), parent_idx);
                    schedule.push(rename_action(action, m.as_deref()));
                    break 'search ExploreOutcome::Violation {
                        kind,
                        schedule,
                        outputs,
                    };
                }
                Ok((child, perm)) => {
                    let link = ParentLink {
                        parent: parent_idx,
                        action,
                        perm,
                    };
                    let Some(idx) = engine.admit(&scratch, Some(&link), &top.key) else {
                        continue;
                    };
                    let child = child.into_state(
                        &top.state,
                        action,
                        child_sleep,
                        link.perm.as_deref(),
                        &scratch,
                        &layout,
                        &crashes,
                        spec,
                        |v| engine.interner.intern(v),
                    );
                    stack.extend(engine.frame(child, &scratch, idx));
                }
            }
        }
        let states = engine.witness.len();
        if engine.truncated {
            ExploreOutcome::Truncated { states }
        } else {
            ExploreOutcome::Verified {
                states,
                leaves: engine.leaves,
            }
        }
    };
    let stats = ExploreStats {
        symmetry: spec.is_some(),
        por: por.is_some(),
        interned_bytes: engine.interner.approx_bytes(),
        table_bytes: engine.visited.resident_bytes(),
        peak_table_bytes: engine.visited.peak_resident_bytes(),
        spilled_bytes: engine.visited.spilled_bytes(),
        witness_bytes: engine.witness.bytes(),
    };
    (outcome, stats)
}

/// Exhaustively explores every execution of the system produced by
/// `factory` under `config`'s adversary.
pub fn explore(factory: &SystemFactory<'_>, config: &ExploreConfig) -> ExploreOutcome {
    explore_with_stats(factory, config).0
}

/// [`explore`], additionally reporting [`ExploreStats`] about how the
/// search executed (active reductions, memory accounts).
pub fn explore_with_stats(
    factory: &SystemFactory<'_>,
    config: &ExploreConfig,
) -> (ExploreOutcome, ExploreStats) {
    let (mem, programs) = factory();
    let analysis = prepare_analysis(&mem, &programs, config, None);
    explore_serial(SysState::root(mem, programs), config, None, &analysis)
}

/// [`explore`] with **process-symmetry reduction**: the factory also
/// declares a [`SymmetrySpec`] naming which process ids are
/// interchangeable, and the engine stores only one canonical
/// representative per permutation class. Verdicts are identical to the
/// plain search, leaf counts are identical (canonical leaves are
/// weighted by their class size), state counts shrink by up to the
/// product of the orbit factorials, and violation witness schedules are
/// reported in original process ids (the inverse permutations are
/// threaded through the parent links). A trivial spec degenerates to
/// [`explore`] exactly.
pub fn explore_symmetric(
    factory: &SymmetricSystemFactory<'_>,
    config: &ExploreConfig,
) -> ExploreOutcome {
    explore_symmetric_with_stats(factory, config).0
}

/// [`explore_symmetric`], additionally reporting [`ExploreStats`].
pub fn explore_symmetric_with_stats(
    factory: &SymmetricSystemFactory<'_>,
    config: &ExploreConfig,
) -> (ExploreOutcome, ExploreStats) {
    let (mem, programs, spec) = factory();
    let analysis = prepare_analysis(&mem, &programs, config, Some(&spec));
    explore_serial(
        SysState::root(mem, programs),
        config,
        Some(&spec),
        &analysis,
    )
}

/// The verdict of [`lint_ample`]: the soundness conditions the
/// partial-order reduction rests on, checked without running a reduced
/// search. `errors` name violated conditions (POR on this system would
/// be unsound or refuses to run — the engine panics on the same
/// conditions); `warnings` are diagnostics that do not block POR.
#[derive(Clone, Debug, Default)]
pub struct AmpleLintReport {
    /// Violated eligibility/soundness conditions, one message each
    /// (prefixed `A1`–`A5`, see [`lint_ample`]).
    pub errors: Vec<String>,
    /// Non-blocking diagnostics (e.g. "POR will not reduce this
    /// system").
    pub warnings: Vec<String>,
    /// States visited by the dynamic commutation spot-check (A3).
    pub spot_states: usize,
    /// Pruned-order pair re-executions performed by the spot-check.
    pub spot_pairs: usize,
}

impl AmpleLintReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Crash source for the lint's spot-check walk: resets a clone of the
/// parent's program (the walk has no precomputed [`CrashedSet`]).
struct LintCrashes;

impl CrashSource for LintCrashes {
    fn crashed(&mut self, parent: &SysState, p: usize) -> Arc<Box<dyn Program>> {
        let mut fresh = parent.programs[p].boxed_clone();
        fresh.on_crash();
        Arc::new(fresh)
    }
}

/// Statically checks the ample-set-style soundness conditions the POR
/// engine relies on, plus a dynamic spot-check, without running a
/// reduced search — the `tables lint` / CI-gate companion to
/// [`ExploreConfig::por`]:
///
/// * **A1 — analyzability**: the per-local-state footprint analysis
///   converges for every process.
/// * **A2 — termination grounding**: every process's step-edge graph is
///   acyclic, so the crash-free future footprints are well-founded.
/// * **A3 — dynamic commutation spot-check**: a bounded unreduced walk
///   (at most `spot_check_states` states) re-derives the engine's
///   persistent-set choice at every crash-free branching state and
///   re-executes each pruned step order both ways; any divergence —
///   an under-approximated dependency — is an error.
/// * **A4 — crash closure**: no local state's crash-free future escapes
///   its crash-inclusive future (the analysis ignored no crash edge;
///   the engine's crash gate additionally forces full expansion at
///   every crash-enabled node).
/// * **A5 — symmetry equivariance** (when `spec` is given): orbit
///   members' per-state footprints agree modulo the owned-cell
///   renaming, the condition composing POR with rebind canonicalization.
pub fn lint_ample(
    mem: Memory,
    programs: Vec<Box<dyn Program>>,
    spec: Option<&SymmetrySpec>,
    crash: &CrashModel,
    analysis_id: Option<&str>,
    spot_check_states: usize,
) -> AmpleLintReport {
    let mut report = AmpleLintReport::default();
    let analysis = match analysis_id {
        Some(id) => system_analysis_cached(id, &mem, &programs, AnalysisBudget::default()),
        None => analyze_system_states(&mem, &programs, AnalysisBudget::default()).map(Arc::new),
    };
    let analysis = match analysis {
        Ok(a) => a,
        Err(e) => {
            report
                .errors
                .push(format!("A1: the footprint analysis failed: {e}"));
            return report;
        }
    };
    for (p, map) in analysis.per_process.iter().enumerate() {
        if !map.step_acyclic {
            report.errors.push(format!(
                "A2: process p{p}'s step graph is cyclic (a spinning \
                 read loop); its future footprints are not grounded in \
                 termination, so POR is ineligible"
            ));
        }
        if map
            .infos
            .iter()
            .any(|i| !i.future_accessed.is_subset(&i.crash_future_accessed))
            || map
                .infos
                .iter()
                .any(|i| !i.future_mutated.is_subset(&i.crash_future_mutated))
        {
            report.errors.push(format!(
                "A4: process p{p} has a local state whose crash-free \
                 future escapes its crash-inclusive future; the analysis \
                 ignored a crash edge"
            ));
        }
    }
    if let Some(spec) = spec.filter(|s| !s.is_trivial()) {
        if spec.has_moving_scalarsets() {
            // The pairwise owned-cell rename cannot express cross-read
            // families (see `prepare_analysis`); the scalarset
            // certificate's member-exchange and rebind-fidelity checks
            // are the equivariance condition for these specs.
            let cert = crate::scalarset::certify_scalarsets_cached(
                analysis_id,
                &mem,
                &programs,
                spec,
                AnalysisBudget::default(),
            );
            for e in &cert.errors {
                report.errors.push(format!("A5 (scalarset): {e}"));
            }
        } else if let Err(e) = check_por_equivariance(&analysis, spec) {
            report.errors.push(format!("A5: {e}"));
        }
    }
    if report.errors.is_empty() && spot_check_states > 0 {
        spot_check_pruned(
            &analysis,
            SysState::root(mem, programs),
            crash,
            spot_check_states,
            &mut report,
        );
    }
    report
}

/// The A3 walk of [`lint_ample`]: a bounded breadth-first traversal of
/// the **unreduced** state graph that, at every crash-free state where
/// the engine would prune (a singleton persistent set among several
/// enabled steps), re-executes each pruned pair in both orders and
/// reports any divergence.
fn spot_check_pruned(
    analysis: &SystemAnalysis,
    root: SysState,
    crash: &CrashModel,
    cap: usize,
    report: &mut AmpleLintReport,
) {
    type SpotKey = (Vec<Value>, Vec<Value>, u64, usize);
    let spot_key = |s: &SysState| -> SpotKey {
        (
            (0..s.mem.cells.len())
                .map(|i| s.mem.value_ref(i).clone())
                .collect(),
            s.programs.iter().map(|p| p.state_key()).collect(),
            s.decided,
            s.crashes_used,
        )
    };
    let mut visited: std::collections::BTreeSet<SpotKey> = std::collections::BTreeSet::new();
    let mut queue: std::collections::VecDeque<SysState> = std::collections::VecDeque::new();
    let mut saw_singleton = false;
    visited.insert(spot_key(&root));
    queue.push_back(root);
    while let Some(state) = queue.pop_front() {
        if report.spot_states >= cap {
            break;
        }
        report.spot_states += 1;
        let enabled = state.enabled_actions(crash);
        let crash_free = !enabled
            .iter()
            .any(|a| matches!(a, Action::Crash(_) | Action::CrashAll));
        let steps: Vec<usize> = {
            // Distinct acting pids, ascending — a nondeterministic local
            // state contributes one pid however many Branch actions it
            // offers, matching the engine's per-pid lumping.
            let mut pids: Vec<usize> = enabled
                .iter()
                .filter_map(|a| match a {
                    Action::Step(p) | Action::Branch(p, _) => Some(*p),
                    _ => None,
                })
                .collect();
            pids.sort_unstable();
            pids.dedup();
            pids
        };
        if crash_free && steps.len() > 1 {
            // Re-derive the engine's persistent-set choice on raw state
            // keys (the lint runs without an interner) — identical
            // condition, identical tie-break (first eligible pid).
            let infos: Vec<&LocalStateInfo> = steps
                .iter()
                .map(|&p| {
                    analysis.per_process[p]
                        .lookup(&state.programs[p].state_key(), false)
                        .expect("reachable local state was memoized by the analysis")
                })
                .collect();
            let choice = (0..steps.len()).find(|&i| {
                infos.iter().enumerate().all(|(j, other)| {
                    j == i
                        || (infos[i].imm_mutated.is_disjoint(&other.future_accessed)
                            && other.future_mutated.is_disjoint(&infos[i].imm_accessed))
                })
            });
            if let Some(i) = choice {
                saw_singleton = true;
                let p = steps[i];
                for &q in &steps {
                    if q == p {
                        continue;
                    }
                    report.spot_pairs += 1;
                    if let Some(diff) = commute_divergence(&state, p, q) {
                        report.errors.push(format!(
                            "A3: a pruned interleaving diverges at a \
                             sampled state: step orders p{p};p{q} and \
                             p{q};p{p} disagree on {diff} — the static \
                             dependency relation under-approximates"
                        ));
                        return;
                    }
                }
            }
        }
        for &action in &enabled {
            let child = materialize(&state, action, step_delta(&state, action), &mut LintCrashes);
            if visited.insert(spot_key(&child)) {
                queue.push_back(child);
            }
        }
    }
    if !saw_singleton && report.spot_states > 1 {
        report.warnings.push(
            "A3: no sampled state admitted a singleton persistent set; \
             POR will not reduce this system (every enabled pair of \
             steps conflicts)"
                .to_string(),
        );
    }
}

/// Executes each step-like action pair of `p` and `q` in both orders
/// from `state` and names the first divergence, or `None` when every
/// pair commutes — [`cross_validate_node`]'s check, reporting instead
/// of asserting. A nondeterministic local state contributes one action
/// per choice; independence is per process, so every cross-pid pair
/// must commute.
fn commute_divergence(state: &SysState, p: usize, q: usize) -> Option<String> {
    let acts = |w: usize| -> Vec<Action> {
        let choices = state.programs[w].choices();
        if choices.len() <= 1 {
            vec![Action::Step(w)]
        } else {
            choices.into_iter().map(|c| Action::Branch(w, c)).collect()
        }
    };
    for &pa in &acts(p) {
        for &qa in &acts(q) {
            let (pq, p_first, q_second) = step_pair(state, pa, qa);
            let (qp, q_first, p_second) = step_pair(state, qa, pa);
            if p_first != p_second {
                return Some(format!("p{p}'s step outcome"));
            }
            if q_first != q_second {
                return Some(format!("p{q}'s step outcome"));
            }
            if pq.decided != qp.decided {
                return Some("the decided flags".to_string());
            }
            for who in [p, q] {
                if pq.programs[who].state_key() != qp.programs[who].state_key() {
                    return Some(format!("p{who}'s local state"));
                }
            }
            for cell in 0..pq.mem.cells.len() {
                if pq.mem.value_ref(cell) != qp.mem.value_ref(cell) {
                    return Some(format!("cell @{cell}"));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Addr, MemOps};
    use crate::scalarset::tests::set_sum_system;

    /// A correct 1-process program: decides its input.
    #[derive(Clone, Debug)]
    struct DecideInput {
        input: Value,
    }
    impl Program for DecideInput {
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

    /// A deliberately broken 2-process "consensus": each decides its own
    /// input — agreement fails whenever inputs differ.
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

    /// Writes 0 on the first run, and after a crash decides 1 — violating
    /// agreement across re-runs of the *same* process when combined with
    /// the first run's decision. Used to check post-decide crash handling.
    #[derive(Clone, Debug)]
    struct ForgetfulDecider {
        addr: Addr,
        pc: u8,
    }
    impl Program for ForgetfulDecider {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    // First run: decide 0 and mark the memory.
                    let seen = mem.read_register(self.addr);
                    self.pc = 1;
                    if seen.is_bottom() {
                        Step::Running
                    } else {
                        // Recovery run: decide differently. BUG by design.
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
        let programs: Vec<Box<dyn Program>> = vec![Box::new(ForgetfulDecider { addr, pc: 0 })];
        (mem, programs)
    }

    /// Breaks the step contract: its one step writes two different
    /// cells.
    #[derive(Clone, Debug)]
    struct DoubleWriter {
        a: Addr,
        b: Addr,
    }
    impl Program for DoubleWriter {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            mem.write_register(self.a, Value::Int(1));
            mem.write_register(self.b, Value::Int(1));
            Step::Decided(Value::Int(1))
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn double_writer_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Bottom);
        let b = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![Box::new(DoubleWriter { a, b })];
        (mem, programs)
    }

    #[test]
    #[should_panic(expected = "more than one shared-memory write")]
    fn serial_engine_rejects_two_writes_in_one_step() {
        explore(&double_writer_factory, &ExploreConfig::default());
    }

    #[test]
    fn verifies_trivial_agreeing_system() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![
                    Box::new(DecideInput {
                        input: Value::Int(3),
                    }),
                    Box::new(DecideInput {
                        input: Value::Int(3),
                    }),
                ];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::independent(2),
                inputs: Some(vec![Value::Int(3)]),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
    }

    #[test]
    fn finds_agreement_violation() {
        let outcome = explore(
            &|| {
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
            },
            &ExploreConfig::default(),
        );
        match outcome {
            ExploreOutcome::Violation {
                kind,
                schedule,
                outputs,
                ..
            } => {
                assert_eq!(kind, ViolationKind::Agreement);
                assert_eq!(schedule.len(), 2, "two steps suffice");
                assert_eq!(outputs.len(), 2);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn finds_validity_violation() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![Box::new(DecideInput {
                    input: Value::Int(9),
                })];
                (mem, programs)
            },
            &ExploreConfig {
                inputs: Some(vec![Value::Int(0), Value::Int(1)]),
                ..ExploreConfig::default()
            },
        );
        match outcome {
            ExploreOutcome::Violation { kind, .. } => {
                assert_eq!(kind, ViolationKind::Validity)
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn post_decide_crashes_catch_rerun_disagreement() {
        // Without post-decide crashes the bug is invisible…
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::independent(1),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        // …with them, the model checker finds the re-run disagreement.
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::independent(1).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    /// Regression: the simultaneous branch used to reset decided
    /// processes even with post-decide crashes disabled, finding
    /// "violations" the configured adversary cannot produce.
    #[test]
    fn simultaneous_crashes_respect_post_decide_policy() {
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::simultaneous(1),
                ..ExploreConfig::default()
            },
        );
        assert!(
            outcome.is_verified(),
            "CrashAll must not reset a decided run when post-decide \
             crashes are disabled: {outcome:?}"
        );
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::simultaneous(1).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    #[test]
    fn simultaneous_mode_explores_crash_all() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![
                    Box::new(DecideInput {
                        input: Value::Int(1),
                    }),
                    Box::new(DecideInput {
                        input: Value::Int(1),
                    }),
                ];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::simultaneous(2).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified());
    }

    /// Regression: the cap used to trigger only after `max_states + 1`
    /// states had been visited. Now exactly `max_states` are visited,
    /// and a cap equal to the state-space size still verifies.
    #[test]
    fn state_cap_is_exact() {
        let factory = forgetful_factory;
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let total = match explore(&factory, &config) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("expected verified, got {other:?}"),
        };
        // A cap exactly at the state-space size does not truncate.
        let outcome = explore(
            &factory,
            &ExploreConfig {
                max_states: total,
                ..config.clone()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        // One below: truncates having visited exactly the cap.
        let outcome = explore(
            &factory,
            &ExploreConfig {
                max_states: total - 1,
                ..config.clone()
            },
        );
        match outcome {
            ExploreOutcome::Truncated { states } => assert_eq!(states, total - 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(outcome.is_truncated());
    }

    /// The iterative engine survives crash budgets that would overflow
    /// the recursive seed engine's call stack (execution length grows
    /// linearly with the budget).
    #[test]
    fn deep_crash_budgets_do_not_overflow() {
        let outcome = explore(
            &|| {
                let mut mem = Memory::new();
                let addr = mem.alloc_register(Value::Bottom);
                #[derive(Clone, Debug)]
                struct WriteThenDecide {
                    addr: Addr,
                    pc: u8,
                }
                impl Program for WriteThenDecide {
                    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                        if self.pc == 0 {
                            mem.write_register(self.addr, Value::Int(1));
                            self.pc = 1;
                            Step::Running
                        } else {
                            Step::Decided(mem.read_register(self.addr))
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
                let programs: Vec<Box<dyn Program>> =
                    vec![Box::new(WriteThenDecide { addr, pc: 0 })];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::independent(50_000).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
    }

    /// Symmetry reduction on a fully symmetric system: same verdict,
    /// identical (weighted) leaf counts, strictly fewer states.
    #[test]
    fn symmetry_reduces_states_and_preserves_leaves() {
        #[derive(Clone, Debug)]
        struct WriteThenDecide {
            addr: Addr,
            pc: u8,
        }
        impl Program for WriteThenDecide {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                if self.pc == 0 {
                    mem.write_register(self.addr, Value::Int(1));
                    self.pc = 1;
                    Step::Running
                } else {
                    Step::Decided(mem.read_register(self.addr))
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
        let n = 3;
        let plain = || {
            let mut mem = Memory::new();
            let addr = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = (0..n)
                .map(|_| Box::new(WriteThenDecide { addr, pc: 0 }) as Box<dyn Program>)
                .collect();
            (mem, programs)
        };
        let symmetric = || {
            let (mem, programs) = plain();
            (mem, programs, SymmetrySpec::full(n))
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let off = explore(&plain, &config);
        let (on, stats) = explore_symmetric_with_stats(&symmetric, &config);
        assert!(stats.symmetry);
        let (off_states, off_leaves) = match off {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "symmetry must merge permutation classes: {states} vs {off_states}"
                );
                assert_eq!(
                    *leaves, off_leaves,
                    "weighted leaf counts must match the plain engine"
                );
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// A trivial spec degenerates to the plain engine byte-for-byte, and
    /// an orbit grouping processes with different initial states is
    /// rejected loudly.
    #[test]
    fn trivial_spec_matches_plain_engine_exactly() {
        let symmetric = || {
            let (mem, programs) = forgetful_factory();
            let n = programs.len();
            (mem, programs, SymmetrySpec::trivial(n))
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(2).after_decide(true),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_symmetric_with_stats(&symmetric, &config);
        assert!(!stats.symmetry, "a trivial spec must be normalized away");
        assert_eq!(outcome, explore(&forgetful_factory, &config));
    }

    /// An orbit whose members start in different states (here: different
    /// inputs, visible through honest state keys) is a declaration bug
    /// and must panic, not silently merge inequivalent states.
    #[test]
    #[should_panic(expected = "different")]
    fn mismatched_orbit_declaration_is_rejected() {
        /// Decides its input; the key honestly includes the input, so
        /// cross-process key equality implies behavioural equality.
        #[derive(Clone, Debug)]
        struct KeyedDecider {
            input: Value,
        }
        impl Program for KeyedDecider {
            fn step(&mut self, _: &mut dyn MemOps) -> Step {
                Step::Decided(self.input.clone())
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                self.input.clone()
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let symmetric = || {
            let mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(KeyedDecider {
                    input: Value::Int(0),
                }),
                Box::new(KeyedDecider {
                    input: Value::Int(1),
                }),
            ];
            (mem, programs, SymmetrySpec::full(2))
        };
        let _ = explore_symmetric(&symmetric, &ExploreConfig::default());
    }

    /// Witness schedules from a symmetric search replay against the
    /// *original* system: the inverse permutations threaded through the
    /// parent links rename every action back to original process ids.
    #[test]
    fn symmetric_violation_witness_replays_in_original_pids() {
        use crate::exec::{run, RunOptions};
        use crate::sched::ScriptedScheduler;
        let inputs = [Value::Int(5), Value::Int(7), Value::Int(7)];
        let plain = || {
            let mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = inputs
                .iter()
                .map(|input| {
                    Box::new(DecideOwn {
                        input: input.clone(),
                    }) as Box<dyn Program>
                })
                .collect();
            (mem, programs)
        };
        let symmetric = || {
            let (mem, programs) = plain();
            (mem, programs, SymmetrySpec::from_classes(&inputs))
        };
        let outcome = explore_symmetric(&symmetric, &ExploreConfig::default());
        let (schedule, outputs) = match outcome {
            ExploreOutcome::Violation {
                kind: ViolationKind::Agreement,
                schedule,
                outputs,
            } => (schedule, outputs),
            other => panic!("expected agreement violation, got {other:?}"),
        };
        // Replay the schedule on the original (un-permuted) system.
        let (mut mem, mut programs) = plain();
        let mut sched = ScriptedScheduler::then_finish(schedule.clone());
        let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
        let mut decisions: Vec<Value> = exec.outputs.iter().flatten().cloned().collect();
        decisions.sort();
        decisions.dedup();
        assert!(
            decisions.len() >= 2,
            "replayed schedule {schedule:?} must \
             reproduce the disagreement, decided {decisions:?}"
        );
        assert_eq!(outputs.len(), 2);
    }

    /// A mask-register-style program: writes its *own* register (owned,
    /// never touched by anyone else), then decides what it reads back.
    /// Implements the full-state symmetry hooks, so processes with equal
    /// inputs form an orbit whose registers permute with them.
    #[derive(Clone, Debug)]
    struct OwnRegWriter {
        reg: Addr,
        input: Value,
        pc: u8,
    }
    impl Program for OwnRegWriter {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.pc == 0 {
                mem.write_register(self.reg, self.input.clone());
                self.pc = 1;
                Step::Running
            } else {
                Step::Decided(mem.read_register(self.reg))
            }
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn state_key(&self) -> Value {
            Value::pair(Value::Int(i64::from(self.pc)), self.input.clone())
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn rebind(&mut self, map: &crate::program::Rebinding) {
            self.reg = map.lookup(self.reg);
        }
        fn referenced_cells(&self) -> Option<Vec<Addr>> {
            Some(vec![self.reg])
        }
    }

    fn own_reg_factory(n: usize) -> (Memory, Vec<Box<dyn Program>>, Vec<Addr>) {
        let mut mem = Memory::new();
        let regs: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Bottom)).collect();
        let programs: Vec<Box<dyn Program>> = regs
            .iter()
            .map(|&reg| {
                Box::new(OwnRegWriter {
                    reg,
                    input: Value::Int(1),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        (mem, programs, regs)
    }

    /// Full-state symmetry on a system of per-process *owned* registers:
    /// without the owned-cell declaration the registers distinguish the
    /// processes (orbits must be singletons — no reduction); with it,
    /// cells permute with their owners and programs are rebound, so the
    /// orbit collapses. Verdicts and weighted leaf counts are identical.
    #[test]
    fn owned_cell_orbits_reduce_and_preserve_leaves() {
        let n = 3;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let rebind = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let off = explore(&plain, &config);
        let (off_states, off_leaves) = match off {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let (on, stats) = explore_symmetric_with_stats(&rebind, &config);
        assert!(stats.symmetry);
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "owned-cell orbits must merge permutation classes: \
                     {states} vs {off_states}"
                );
                assert_eq!(*leaves, off_leaves, "weighted leaves must match");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// The owner-only rule: a process reading another process's owned
    /// register makes the quotient unsound, and the declaration is
    /// rejected at search start.
    #[test]
    #[should_panic(expected = "owned by p1 but referenced by p0")]
    fn cross_referenced_owned_cell_is_rejected() {
        /// Reads p0's register instead of its own — the Fig. 4
        /// round-scan shape in miniature.
        #[derive(Clone, Debug)]
        struct Spy {
            own: Addr,
            other: Addr,
        }
        impl Program for Spy {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                mem.write_register(self.own, Value::Int(1));
                Step::Decided(mem.read_register(self.other))
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                Value::Unit
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.own = map.lookup(self.own);
                self.other = map.lookup(self.other);
            }
            fn referenced_cells(&self) -> Option<Vec<Addr>> {
                Some(vec![self.own, self.other])
            }
        }
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(Spy { own: r0, other: r1 }),
                Box::new(Spy { own: r1, other: r0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// Programs without a `rebind` implementation cannot be relocated,
    /// so an owned-cell declaration over them is rejected at search
    /// start (the identity-map probe) — not at the first non-identity
    /// canonicalization deep inside a search. (ForgetfulDecider also
    /// has no `referenced_cells`, which used to be the rejection
    /// trigger; the footprint analysis now covers that gap, so the
    /// rebind probe is what stands between this system and a search.)
    #[test]
    #[should_panic(expected = "does not support address rebinding")]
    fn rebindless_programs_reject_owned_declarations() {
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(ForgetfulDecider { addr: r0, pc: 0 }),
                Box::new(ForgetfulDecider { addr: r1, pc: 0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// OwnRegWriter minus `referenced_cells`: rebindable, but its
    /// reference set is not hand-enumerable. Before the footprint
    /// analysis this was rejected ("does not enumerate its referenced
    /// cells"); the analyzer now derives the reference sets, proves the
    /// owner-only rule and the search runs — with the same verdict and
    /// weighted leaf count as the symmetry-off search.
    #[test]
    fn analyzer_validates_undeclared_owned_cell_systems() {
        #[derive(Clone, Debug)]
        struct UndeclaredOwnReg {
            reg: Addr,
            pc: u8,
        }
        impl Program for UndeclaredOwnReg {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                if self.pc == 0 {
                    mem.write_register(self.reg, Value::Int(1));
                    self.pc = 1;
                    Step::Running
                } else {
                    Step::Decided(mem.read_register(self.reg))
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
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.reg = map.lookup(self.reg);
            }
            // No referenced_cells: the analyzer must stand in.
        }
        let n = 3;
        let build = |mem: &mut Memory| -> (Vec<Addr>, Vec<Box<dyn Program>>) {
            let regs: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Bottom)).collect();
            let programs = regs
                .iter()
                .map(|&reg| Box::new(UndeclaredOwnReg { reg, pc: 0 }) as Box<dyn Program>)
                .collect();
            (regs, programs)
        };
        let plain = || {
            let mut mem = Memory::new();
            let (_, programs) = build(&mut mem);
            (mem, programs)
        };
        let symmetric = || {
            let mut mem = Memory::new();
            let (regs, programs) = build(&mut mem);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let (off_states, off_leaves) = match explore(&plain, &config) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match explore_symmetric(&symmetric, &config) {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(states < off_states, "{states} vs {off_states}");
                assert_eq!(leaves, off_leaves, "weighted leaves must match");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// A rebindable program whose local-state graph is unbounded
    /// defeats the footprint analysis (budget exhaustion); without a
    /// hand-written `referenced_cells` to fall back to, the owned-cell
    /// declaration is rejected exactly as before the analyzer existed.
    #[test]
    #[should_panic(expected = "does not enumerate its referenced cells")]
    fn unanalyzable_undeclared_systems_are_still_rejected() {
        #[derive(Clone, Debug)]
        struct UnboundedWriter {
            reg: Addr,
            count: i64,
        }
        impl Program for UnboundedWriter {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                self.count += 1;
                mem.write_register(self.reg, Value::Int(self.count));
                Step::Running
            }
            fn on_crash(&mut self) {
                self.count = 0;
            }
            fn state_key(&self) -> Value {
                Value::Int(self.count)
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.reg = map.lookup(self.reg);
            }
        }
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(UnboundedWriter { reg: r0, count: 0 }),
                Box::new(UnboundedWriter { reg: r1, count: 0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// The dynamic cross-validation of the static independence relation
    /// accepts a genuinely independent system (disjoint write/access
    /// footprints), with outcomes unchanged.
    #[test]
    fn cross_validation_accepts_independent_steps() {
        let factory = || {
            let mut mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = (0..3)
                .map(|_| {
                    let reg = mem.alloc_register(Value::Bottom);
                    Box::new(OwnRegWriter {
                        reg,
                        input: Value::Int(1),
                        pc: 0,
                    }) as Box<dyn Program>
                })
                .collect();
            (mem, programs)
        };
        let plain = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let checked = ExploreConfig {
            cross_validate_independence: true,
            ..plain.clone()
        };
        let baseline = explore(&factory, &plain);
        assert!(matches!(baseline, ExploreOutcome::Verified { .. }));
        // The commutation assertion runs at every expanded node.
        assert_eq!(baseline, explore(&factory, &checked));
    }

    /// An inert owned declaration (all orbits singletons) changes
    /// nothing: the spec is trivial, so the search runs the plain
    /// engines byte-for-byte.
    #[test]
    fn owned_cells_on_singleton_orbits_are_inert() {
        let n = 2;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let inert = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::trivial(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_symmetric_with_stats(&inert, &config);
        assert!(!stats.symmetry, "singleton orbits are trivial");
        assert_eq!(outcome, explore(&plain, &config));
    }

    /// The reported violation schedule is deterministic across repeated
    /// runs.
    #[test]
    fn violation_schedule_is_deterministic() {
        let factory = || {
            let mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(DecideOwn {
                    input: Value::Int(0),
                }),
                Box::new(DecideOwn {
                    input: Value::Int(1),
                }),
                Box::new(DecideOwn {
                    input: Value::Int(2),
                }),
            ];
            (mem, programs)
        };
        let mut schedules = Vec::new();
        for _ in 0..4 {
            match explore(&factory, &ExploreConfig::default()) {
                ExploreOutcome::Violation { schedule, .. } => schedules.push(schedule),
                other => panic!("expected violation, got {other:?}"),
            }
        }
        for s in &schedules[1..] {
            assert_eq!(s, &schedules[0]);
        }
    }

    /// A spinning read loop: re-reads a register forever while it is
    /// `Bottom`. Its local-state graph is a single state with a step
    /// self-edge — the cyclic shape POR must refuse (lint condition A2).
    #[derive(Clone, Debug)]
    struct Spinner {
        addr: Addr,
    }
    impl Program for Spinner {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if mem.read_register(self.addr).is_bottom() {
                Step::Running
            } else {
                Step::Decided(Value::Int(0))
            }
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn spinner_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        (mem, vec![Box::new(Spinner { addr }) as Box<dyn Program>])
    }

    /// Processes touching one *shared* register: every step pair
    /// conflicts on it, so the persistent set is always the full
    /// enabled set and POR has nothing to prune.
    #[derive(Clone, Debug)]
    struct SharedToucher {
        addr: Addr,
        pc: u8,
    }
    impl Program for SharedToucher {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.pc == 0 {
                mem.write_register(self.addr, Value::Int(1));
                self.pc = 1;
                Step::Running
            } else {
                Step::Decided(mem.read_register(self.addr))
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

    fn shared_toucher_factory(n: usize) -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = (0..n)
            .map(|_| Box::new(SharedToucher { addr, pc: 0 }) as Box<dyn Program>)
            .collect();
        (mem, programs)
    }

    /// An unbounded local-state graph (the key grows without bound):
    /// the footprint analysis exhausts its budget, so POR must refuse
    /// the system instead of running on partial footprints.
    #[derive(Clone, Debug)]
    struct UnboundedCounter {
        reg: Addr,
        count: i64,
    }
    impl Program for UnboundedCounter {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            self.count += 1;
            mem.write_register(self.reg, Value::Int(self.count));
            Step::Running
        }
        fn on_crash(&mut self) {
            self.count = 0;
        }
        fn state_key(&self) -> Value {
            Value::Int(self.count)
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn unbounded_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let reg = mem.alloc_register(Value::Bottom);
        (
            mem,
            vec![Box::new(UnboundedCounter { reg, count: 0 }) as Box<dyn Program>],
        )
    }

    /// POR on the fully independent own-register system: same verdict
    /// and leaf count as the unreduced search, strictly fewer states.
    /// (Budget 0: every node is crash-free, so the interleaving
    /// reduction is undiluted; with a live crash budget the
    /// crash-enabled layer is fully expanded by design and its crash
    /// children cover most of the crash-free layer, see the budget-1
    /// equality check at the end.)
    #[test]
    fn por_reduces_states_and_preserves_leaves() {
        let factory = || {
            let (mem, programs, _) = own_reg_factory(3);
            (mem, programs)
        };
        let base = ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let (off_states, off_leaves) = match explore(&factory, &base) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let reduced = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let (on, stats) = explore_with_stats(&factory, &reduced);
        assert!(stats.por, "the POR engine must report it ran");
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "POR must prune commuting interleavings: {states} vs {off_states}"
                );
                assert_eq!(*leaves, off_leaves, "leaf counts must stay exact");
            }
            other => panic!("expected verified, got {other:?}"),
        }
        // With a live crash budget the verdict and leaf count are still
        // exact (states may not shrink: crash-enabled nodes expand
        // fully, and their crash children blanket the crash-free layer).
        let crashy = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..base.clone()
        };
        let (c_states, c_leaves) = match explore(&factory, &crashy) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match explore(
            &factory,
            &ExploreConfig {
                por: true,
                ..crashy
            },
        ) {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(states <= c_states, "{states} vs {c_states}");
                assert_eq!(leaves, c_leaves, "budget-1 leaf counts must stay exact");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// POR on a fully dependent system (everyone touches one shared
    /// register): no pair of steps commutes, so the reduced search is
    /// byte-identical to the unreduced one — including the state count.
    #[test]
    fn por_is_exact_when_nothing_commutes() {
        let factory = || shared_toucher_factory(3);
        let base = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let off = explore(&factory, &base);
        assert!(off.is_verified(), "{off:?}");
        let on = explore(
            &factory,
            &ExploreConfig {
                por: true,
                ..base.clone()
            },
        );
        assert_eq!(off, on, "a conflict-saturated system admits no pruning");
    }

    /// Truncating caps stay exact under POR: `Truncated {{ states }}`
    /// equals the cap, matching the unreduced search's report.
    #[test]
    fn por_truncation_cap_is_exact_across_engines() {
        let factory = || {
            let (mem, programs, _) = own_reg_factory(3);
            (mem, programs)
        };
        let reduced = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            inputs: Some(vec![Value::Int(1)]),
            por: true,
            ..ExploreConfig::default()
        };
        let total = match explore(&factory, &reduced) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("expected verified, got {other:?}"),
        };
        for cap in [1usize, total / 2, total - 1] {
            let capped = ExploreConfig {
                max_states: cap,
                ..reduced.clone()
            };
            let serial = explore(&factory, &capped);
            assert_eq!(serial, ExploreOutcome::Truncated { states: cap });
            // The unreduced engine reports the identical truncation.
            let unreduced = explore(
                &factory,
                &ExploreConfig {
                    por: false,
                    ..capped.clone()
                },
            );
            assert_eq!(serial, unreduced, "cap {cap}");
        }
    }

    /// POR composes with full-state rebind symmetry: the combined
    /// search keeps the exact leaf count and visits fewer states than
    /// either reduction alone.
    #[test]
    fn por_composes_with_rebind_symmetry() {
        let n = 3;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let rebind = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let base = ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let reduced = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let verified = |outcome: ExploreOutcome| match outcome {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let (off_states, off_leaves) = verified(explore(&plain, &base));
        let (por_states, por_leaves) = verified(explore(&plain, &reduced));
        let (sym_states, sym_leaves) = verified(explore_symmetric(&rebind, &base));
        let (combined, stats) = explore_symmetric_with_stats(&rebind, &reduced);
        assert!(stats.symmetry && stats.por);
        let (both_states, both_leaves) = verified(combined.clone());
        assert_eq!(por_leaves, off_leaves);
        assert_eq!(sym_leaves, off_leaves);
        assert_eq!(both_leaves, off_leaves, "leaves stay exact under both");
        assert!(
            both_states < por_states && both_states < sym_states,
            "the reductions must compose: por {por_states}, symmetry \
             {sym_states}, both {both_states} (unreduced {off_states})"
        );
    }

    /// A spinning read loop (cyclic step graph) makes the crash-free
    /// future footprints unsound, so POR is refused at search start.
    #[test]
    #[should_panic(expected = "step graph is cyclic")]
    fn por_refuses_cyclic_step_graphs() {
        let _ = explore(
            &spinner_factory,
            &ExploreConfig {
                por: true,
                ..ExploreConfig::default()
            },
        );
    }

    /// When the footprint analysis itself fails (unbounded local-state
    /// graph), POR is an explicit request that must not silently no-op.
    #[test]
    #[should_panic(expected = "footprint analysis failed")]
    fn por_refuses_unanalyzable_systems() {
        let _ = explore(
            &unbounded_factory,
            &ExploreConfig {
                por: true,
                ..ExploreConfig::default()
            },
        );
    }

    /// The ample lint passes a well-behaved independent system — with
    /// a symmetry spec (A5) and a spot-check walk that really exercises
    /// pruned pairs (A3) — and reports no warnings.
    #[test]
    fn lint_ample_passes_on_independent_systems() {
        let (mem, programs, regs) = own_reg_factory(3);
        let mut spec = SymmetrySpec::full(3);
        for (p, &reg) in regs.iter().enumerate() {
            spec = spec.with_owned_cells(p, vec![reg]);
        }
        let report = lint_ample(
            mem,
            programs,
            Some(&spec),
            &CrashModel::independent(1).after_decide(false),
            None,
            256,
        );
        assert!(report.ok(), "{:?}", report.errors);
        assert!(report.spot_states > 0, "the spot-check walk must run");
        assert!(
            report.spot_pairs > 0,
            "the walk must re-execute pruned pairs on this system"
        );
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    /// The lint names the cyclic step graph (A2) the engine refuses.
    #[test]
    fn lint_ample_reports_cyclic_step_graphs() {
        let (mem, programs) = spinner_factory();
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 0);
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.starts_with("A2")),
            "{:?}",
            report.errors
        );
    }

    /// The lint reports analysis failure (A1) instead of panicking.
    #[test]
    fn lint_ample_reports_unanalyzable_systems() {
        let (mem, programs) = unbounded_factory();
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 0);
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.starts_with("A1")),
            "{:?}",
            report.errors
        );
    }

    /// On a conflict-saturated system the lint passes (POR is *sound*
    /// there, merely useless) but warns that nothing will be pruned.
    #[test]
    fn lint_ample_warns_when_nothing_commutes() {
        let (mem, programs) = shared_toucher_factory(2);
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 64);
        assert!(report.ok(), "{:?}", report.errors);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("will not reduce")),
            "{:?}",
            report.warnings
        );
    }

    /// A masked-style system over `S_n`: every process owns the register
    /// it writes and reads back (the input-masking shape).
    fn owned_reg_system(n: usize) -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) {
        let (mem, programs, regs) = own_reg_factory(n);
        let spec = regs
            .iter()
            .enumerate()
            .fold(SymmetrySpec::full(n), |spec, (p, &reg)| {
                spec.with_owned_cells(p, vec![reg])
            });
        (mem, programs, spec)
    }

    /// A tiny deterministic generator for the state walks below.
    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Distinct states (by key) of `rounds` seeded random walks from the
    /// root, through steps, branches and crashes, plus a random sleep
    /// mask each.
    fn walked_states(
        mem: Memory,
        programs: Vec<Box<dyn Program>>,
        rounds: usize,
    ) -> Vec<(SysState, u64)> {
        let root = SysState::root(mem, programs);
        let mut interner = ValueInterner::new();
        let crashes = CrashedSet::new(&root, &mut interner);
        let model = CrashModel::independent(2).after_decide(true);
        let layout = KeyLayout::of(&root, false);
        let mut seen = std::collections::HashSet::new();
        let mut states = Vec::new();
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..rounds {
            let mut state = root.clone();
            loop {
                let key = layout.key_of(&state, |v| interner.intern(v));
                if seen.insert(key) {
                    let sleep = xorshift(&mut seed) & ((1 << layout.n) - 1);
                    states.push((state.clone(), sleep));
                }
                let actions = state.enabled_actions(&model);
                if actions.is_empty() {
                    break;
                }
                let action = actions[xorshift(&mut seed) as usize % actions.len()];
                let delta = step_delta(&state, action);
                state = materialize(&state, action, delta, &mut FixedCrashes(&crashes));
            }
        }
        states
    }

    /// Every permutation of `0..n`.
    fn all_perms(n: usize) -> Vec<Box<[u8]>> {
        if n == 0 {
            return vec![Box::from([])];
        }
        let mut out = Vec::new();
        for shorter in all_perms(n - 1) {
            for at in 0..n {
                let mut perm = shorter.to_vec();
                perm.insert(at, (n - 1) as u8);
                out.push(perm.into_boxed_slice());
            }
        }
        out
    }

    /// `permute_key` and `permute_state` are one move: for every walked
    /// state, sleep mask and orbit permutation, permuting the key equals
    /// keying the permuted state — program slots, owned and family
    /// cells, decided and sleep words alike.
    fn check_permute_key_matches_state(
        (mem, programs, spec): (Memory, Vec<Box<dyn Program>>, SymmetrySpec),
    ) -> usize {
        let states = walked_states(mem, programs, 40);
        let mut interner = ValueInterner::new();
        let perms = all_perms(spec.n());
        for (state, sleep) in &states {
            let layout = KeyLayout::of(state, true);
            let mut base = layout.key_of(state, |v| interner.intern(v));
            layout.write_sleep(&mut base, *sleep);
            for perm in &perms {
                let mut key = base.clone();
                permute_key(&mut key, perm, &layout, &spec);
                let mut permuted = state.clone();
                permute_state(&mut permuted, perm, &layout, &spec);
                let mut expected = layout.key_of(&permuted, |v| interner.intern(v));
                layout.write_sleep(&mut expected, permute_mask(*sleep, perm));
                assert_eq!(key, expected, "perm {perm:?}");
            }
        }
        states.len()
    }

    #[test]
    fn permute_key_matches_permute_state_on_owned_cells() {
        let states = check_permute_key_matches_state(owned_reg_system(4));
        assert!(states > 20, "the walks must reach varied states: {states}");
    }

    #[test]
    fn permute_key_matches_permute_state_on_scalarset_families() {
        let states = check_permute_key_matches_state(set_sum_system(3));
        assert!(states > 20, "the walks must reach varied states: {states}");
    }

    /// The key-based comparator picks the structural representative: on
    /// every walked state, the permutation chosen from the interned key
    /// equals `canonical_perm_with` over state keys and cell values
    /// (`structural_perm`), and the permuted state passes the debug
    /// checks.
    #[test]
    fn key_comparator_matches_structural_signature() {
        for (mem, programs, spec) in [owned_reg_system(4), set_sum_system(3)] {
            let scalarsets = spec.has_moving_scalarsets();
            let mut interner = ValueInterner::new();
            for (state, sleep) in walked_states(mem, programs, 40) {
                if scalarsets && state.programs.iter().any(|p| p.scalarset_pinned()) {
                    continue;
                }
                let layout = KeyLayout::of(&state, true);
                let mut key = layout.key_of(&state, |v| interner.intern(v));
                layout.write_sleep(&mut key, sleep);
                let by_key = canonical_perm_of_key(&key, &layout, &spec, |id| interner.value(id));
                assert_eq!(by_key, structural_perm(&state, sleep, &spec));
                let mut state = state;
                let perm = canonicalize_key(
                    Some(&spec),
                    || false,
                    &mut key,
                    &layout,
                    |id| interner.value(id),
                );
                assert_eq!(perm, by_key);
                if let Some(perm) = &perm {
                    permute_state(&mut state, perm, &layout, &spec);
                }
                let sleep = perm
                    .as_deref()
                    .map_or(sleep, |perm| permute_mask(sleep, perm));
                debug_assert_keyed(&state, &key, sleep, &layout, Some(&spec), |v| {
                    interner.intern(v)
                });
            }
        }
    }

    /// A scalarset-pinned child stays as it is: its key is not permuted,
    /// even where the unpinned order would move it.
    #[test]
    fn pinned_scalarset_child_keeps_the_identity() {
        let (mem, programs, spec) = set_sum_system(3);
        let root = SysState::root(mem, programs);
        let mut interner = ValueInterner::new();
        let crashes = CrashedSet::new(&root, &mut interner);
        let layout = KeyLayout::of(&root, false);
        // p2 writes, then p0 writes and checks position 1: p0 is mid-scan.
        let mut state = root;
        for action in [Action::Step(2), Action::Step(0)] {
            let delta = step_delta(&state, action);
            state = materialize(&state, action, delta, &mut FixedCrashes(&crashes));
        }
        let key = layout.key_of(&state, |v| interner.intern(v));
        let action = Action::Branch(0, 1);
        let delta = step_delta(&state, action);
        assert!(child_pinned(&state, action, &delta, &crashes));
        let mut child_key = Vec::new();
        patch_child_key(
            &state,
            &key,
            action,
            &delta,
            0,
            &layout,
            &crashes,
            None,
            &mut child_key,
            &mut interner,
        )
        .expect("no decision yet");
        assert!(
            canonical_perm_of_key(&child_key, &layout, &spec, |id| interner.value(id)).is_some(),
            "unpinned, the child would move"
        );
        let before = child_key.clone();
        let perm = canonicalize_key(
            Some(&spec),
            || child_pinned(&state, action, &delta, &crashes),
            &mut child_key,
            &layout,
            |id| interner.value(id),
        );
        assert_eq!(perm, None);
        assert_eq!(child_key, before);
    }
}
