//! The timing wrapper is transparent: it forwards every `Program` and
//! `MemOps` method, and wrapped systems give the same outcomes, the same
//! `ExploreStats` and the same swarm summaries as unwrapped ones.

use rc_perfbench::trace::{traced_system, Span, Totals, Traced};
use rc_perfbench::workload::{ExploreInstance, SwarmInstance};
use rc_runtime::{Addr, CrashModel, MemOps, Memory, Program, Rebinding, Step};
use rc_spec::types::Sn;
use rc_spec::Value;
use std::sync::{Arc, Mutex};

/// A program whose every method logs its name and gives a distinctive
/// answer; `step_choice(c)` performs access kind `c` of the four
/// `MemOps` methods.
#[derive(Clone, Debug)]
struct Probe {
    log: Arc<Mutex<Vec<&'static str>>>,
    reg: Addr,
    obj: Addr,
    pc: i64,
}

impl Probe {
    fn note(&self, call: &'static str) {
        self.log.lock().expect("log lock").push(call);
    }
}

impl Program for Probe {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        self.note("step");
        self.step_choice_inner(mem, 0)
    }

    fn choices(&self) -> Vec<usize> {
        self.note("choices");
        vec![0, 1, 2, 3]
    }

    fn step_choice(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
        self.note("step_choice");
        self.step_choice_inner(mem, choice)
    }

    fn scalarset_pinned(&self) -> bool {
        self.note("scalarset_pinned");
        true
    }

    fn on_crash(&mut self) {
        self.note("on_crash");
        self.pc = 0;
    }

    fn state_key(&self) -> Value {
        self.note("state_key");
        Value::Int(self.pc)
    }

    fn boxed_clone(&self) -> Box<dyn Program> {
        self.note("boxed_clone");
        Box::new(self.clone())
    }

    fn rebind(&mut self, map: &Rebinding) {
        self.note("rebind");
        self.reg = map.lookup(self.reg);
        self.obj = map.lookup(self.obj);
    }

    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        self.note("referenced_cells");
        Some(vec![self.reg, self.obj])
    }
}

impl Probe {
    fn step_choice_inner(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
        self.pc += 1;
        match choice {
            0 => {
                mem.write_register(self.reg, Value::Int(self.pc));
                Step::Running
            }
            1 => Step::Decided(mem.read_register(self.reg)),
            2 => Step::Decided(mem.apply(self.obj, &Sn::op_a())),
            _ => Step::Decided(mem.read_object(self.obj)),
        }
    }
}

/// A memory with one register and one readable `S_3` object, and a probe
/// over it.
fn probe_system() -> (Memory, Probe, Arc<Mutex<Vec<&'static str>>>) {
    let mut mem = Memory::new();
    let reg = mem.alloc_register(Value::Bottom);
    let obj = mem.alloc_object(Arc::new(Sn::new(3)), Sn::q0());
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = Probe {
        log: Arc::clone(&log),
        reg,
        obj,
        pc: 0,
    };
    (mem, probe, log)
}

/// Calls every trait method once, in a fixed order, returning what the
/// program answered and the memory it left.
fn drive(program: &mut dyn Program, mem: &mut Memory) -> (Vec<String>, Vec<Value>) {
    let mut out = vec![
        format!("{:?}", program.step(mem)),
        format!("{:?}", program.choices()),
    ];
    for choice in 0..4 {
        out.push(format!("{:?}", program.step_choice(mem, choice)));
    }
    out.push(format!("{:?}", program.scalarset_pinned()));
    out.push(format!("{:?}", program.state_key()));
    let clone = program.boxed_clone();
    out.push(format!("{:?}", clone.state_key()));
    program.on_crash();
    out.push(format!("{:?}", program.state_key()));
    let mut swap = Rebinding::identity(mem.len());
    let cells = program.referenced_cells().expect("probe cells");
    swap.map(cells[0], cells[1]);
    swap.map(cells[1], cells[0]);
    program.rebind(&swap);
    out.push(format!("{:?}", program.referenced_cells()));
    (out, mem.state_key())
}

#[test]
fn wrapper_forwards_every_method_and_access() {
    let (mut plain_mem, mut plain, plain_log) = probe_system();
    let (mut traced_mem, traced, traced_log) = probe_system();
    let mut traced = Traced::wrap(Box::new(traced));

    let expected = drive(&mut plain, &mut plain_mem);
    let before = Totals::this_thread();
    let got = drive(traced.as_mut(), &mut traced_mem);
    let spans = Totals::this_thread().since(&before);

    assert_eq!(got, expected, "answers and final memory");
    assert_eq!(
        *traced_log.lock().expect("log lock"),
        *plain_log.lock().expect("log lock"),
        "the wrapped program saw exactly the calls the plain one did"
    );
    assert_eq!(
        format!("{traced:?}"),
        format!("{plain:?}"),
        "Debug forwards"
    );
    assert_eq!(
        traced_mem.access_count(),
        plain_mem.access_count(),
        "one memory access per forwarded access"
    );
    // `drive` calls each method once, except: one `step` plus four
    // `step_choice` (both count as steps, one access each), `state_key`
    // three times (once on the clone, which must be traced too) and
    // `referenced_cells` twice.
    let expected_calls = [
        (Span::Step, 5),
        (Span::Choices, 1),
        (Span::ScalarsetPinned, 1),
        (Span::Rebind, 1),
        (Span::ReferencedCells, 2),
        (Span::OnCrash, 1),
        (Span::StateKey, 3),
        (Span::BoxedClone, 1),
        (Span::Memory, 5),
    ];
    for (span, calls) in expected_calls {
        assert_eq!(spans.calls(span), calls, "{span:?} calls");
    }
}

fn assert_explore_transparent(instance: &ExploreInstance) {
    let plain = instance.search(false);
    assert!(plain.0.is_verified(), "{:?}", plain.0);
    let before = Totals::snapshot();
    let traced = instance.search(true);
    let spans = Totals::snapshot().since(&before);
    assert_eq!(traced, plain, "outcome and ExploreStats");
    assert!(
        spans.calls(Span::Step) > 0,
        "the traced search recorded steps"
    );
}

#[test]
fn wrapped_s4_budget1_search_is_identical() {
    let crash = CrashModel::independent(1).after_decide(true);
    assert_explore_transparent(&ExploreInstance::team_rc(4, crash));
}

#[test]
fn wrapped_masked_s4_crashall_por_rebind_search_is_identical() {
    let crash = CrashModel::simultaneous(1).after_decide(true);
    let instance = ExploreInstance::masked_reduced(4, crash, "perfbench-test/masked-s4");
    assert!(
        instance.analysis_s > 0.0,
        "setup ran the footprint analysis"
    );
    let fixpoints = rc_runtime::analysis_fixpoint_runs();
    assert_explore_transparent(&instance);
    // The fixpoint counter is process-global, so only this test's
    // searches must not have moved it; no other test here analyzes.
    assert_eq!(
        rc_runtime::analysis_fixpoint_runs(),
        fixpoints,
        "samples reuse the cached analysis"
    );
}

#[test]
fn wrapped_swarm_sweep_is_identical_at_any_thread_count() {
    let instance = SwarmInstance::from_catalog("team-rc-s4", 0, 3_000);
    let plain = instance.sweep(2, false);
    assert!(plain.violations.is_empty());
    assert_eq!(plain.runs, 3_000);
    let summary = plain.deterministic_summary();
    assert_eq!(instance.sweep(1, false).deterministic_summary(), summary);
    assert_eq!(instance.sweep(2, true).deterministic_summary(), summary);
    assert_eq!(instance.sweep(1, true).deterministic_summary(), summary);
    assert!(instance.replay(17).verdict.is_ok());
}

#[test]
fn traced_system_wraps_every_program() {
    let (mem, probe, log) = probe_system();
    let (_, programs) = traced_system((mem, vec![Box::new(probe.clone()), Box::new(probe)]));
    let before = Totals::this_thread();
    for p in &programs {
        p.state_key();
    }
    let spans = Totals::this_thread().since(&before);
    assert_eq!(spans.calls(Span::StateKey), 2);
    assert_eq!(log.lock().expect("log lock").len(), 2);
}
