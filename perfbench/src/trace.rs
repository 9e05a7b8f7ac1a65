//! Spans at the `Program` / `MemOps` boundary.
//!
//! [`Traced`] is a forwarding [`Program`]: every trait method calls the
//! wrapped program's method and nothing else, timing and counting the
//! call; the `&mut dyn MemOps` handed to `step` / `step_choice` is
//! wrapped in a forwarding [`MemOps`] that times and counts each access.
//! A step's span therefore *contains* the memory spans of its access, so
//! a step's self time is `step − memory`.
//!
//! Counters are per thread (one writer each, so the swarm workers never
//! share a cache line) and registered globally; [`Totals::snapshot`] sums
//! every thread that has ever recorded, and a delta of two snapshots is
//! the work done between them. [`Totals::this_thread`] reads the calling
//! thread's counters alone.

use rc_runtime::{Addr, MemOps, Memory, Program, Rebinding, Step};
use rc_spec::{Operation, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The measured call sites: one per `Program` method, plus every
/// `MemOps` access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Program::step` and `Program::step_choice` (memory included).
    Step,
    /// `Program::choices`.
    Choices,
    /// `Program::scalarset_pinned`.
    ScalarsetPinned,
    /// `Program::rebind`.
    Rebind,
    /// `Program::referenced_cells`.
    ReferencedCells,
    /// `Program::on_crash`.
    OnCrash,
    /// `Program::state_key`.
    StateKey,
    /// `Program::boxed_clone`.
    BoxedClone,
    /// Any `MemOps` access (register read/write, object read/apply).
    Memory,
}

impl Span {
    /// Every span, in counter-slot order.
    pub const ALL: [Span; 9] = [
        Span::Step,
        Span::Choices,
        Span::ScalarsetPinned,
        Span::Rebind,
        Span::ReferencedCells,
        Span::OnCrash,
        Span::StateKey,
        Span::BoxedClone,
        Span::Memory,
    ];

    /// The program-method spans (each contains its own memory spans).
    pub const PROGRAM: [Span; 8] = [
        Span::Step,
        Span::Choices,
        Span::ScalarsetPinned,
        Span::Rebind,
        Span::ReferencedCells,
        Span::OnCrash,
        Span::StateKey,
        Span::BoxedClone,
    ];

    fn slot(self) -> usize {
        self as usize
    }
}

const SPANS: usize = Span::ALL.len();

/// One thread's counters; only the owning thread writes them.
#[derive(Default)]
struct Slot {
    calls: [AtomicU64; SPANS],
    nanos: [AtomicU64; SPANS],
}

static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        REGISTRY
            .lock()
            .expect("no thread panics while holding the span registry")
            .push(Arc::clone(&slot));
        slot
    };
}

/// Adds one call of `span`, begun at `start`, to this thread's counters.
/// Statistics only, so `Relaxed`; a plain load + store suffices because
/// the slot has a single writer.
fn record(span: Span, start: Instant) {
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    LOCAL.with(|slot| {
        let i = span.slot();
        let calls = &slot.calls[i];
        calls.store(calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let total = &slot.nanos[i];
        total.store(
            total.load(Ordering::Relaxed).saturating_add(nanos),
            Ordering::Relaxed,
        );
    });
}

/// Summed counters of every thread, or the difference of two such sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    calls: [u64; SPANS],
    nanos: [u64; SPANS],
}

impl Totals {
    /// The counters of every thread that has recorded so far. Exact once
    /// the recording threads have been joined (the swarm engine joins
    /// its workers before returning).
    pub fn snapshot() -> Totals {
        let mut totals = Totals::default();
        let slots = REGISTRY
            .lock()
            .expect("no thread panics while holding the span registry");
        for slot in slots.iter() {
            totals.add(slot);
        }
        totals
    }

    /// The counters of the calling thread alone.
    pub fn this_thread() -> Totals {
        let mut totals = Totals::default();
        LOCAL.with(|slot| totals.add(slot));
        totals
    }

    fn add(&mut self, slot: &Slot) {
        for i in 0..SPANS {
            self.calls[i] += slot.calls[i].load(Ordering::Relaxed);
            self.nanos[i] += slot.nanos[i].load(Ordering::Relaxed);
        }
    }

    /// The work recorded since `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut delta = Totals::default();
        for i in 0..SPANS {
            delta.calls[i] = self.calls[i] - earlier.calls[i];
            delta.nanos[i] = self.nanos[i] - earlier.nanos[i];
        }
        delta
    }

    /// Calls of `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span.slot()]
    }

    /// Seconds spent inside `span`.
    pub fn secs(&self, span: Span) -> f64 {
        self.nanos[span.slot()] as f64 * 1e-9
    }

    /// Seconds spent inside any program method, memory accesses included.
    pub fn program_secs(&self) -> f64 {
        Span::PROGRAM.iter().map(|&s| self.secs(s)).sum()
    }
}

/// Runs `f` as one `span`.
fn timed<T>(span: Span, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    record(span, start);
    out
}

/// A forwarding [`Program`] that times and counts every trait method of
/// the program it wraps. Behaviour is the wrapped program's exactly:
/// clones are wrapped again, and `Debug` prints the wrapped program.
pub struct Traced(Box<dyn Program>);

impl Traced {
    /// Wraps `program`.
    pub fn wrap(program: Box<dyn Program>) -> Box<dyn Program> {
        Box::new(Traced(program))
    }
}

impl fmt::Debug for Traced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Program for Traced {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        timed(Span::Step, || self.0.step(&mut TracedMem(mem)))
    }

    fn choices(&self) -> Vec<usize> {
        timed(Span::Choices, || self.0.choices())
    }

    fn step_choice(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
        timed(Span::Step, || {
            self.0.step_choice(&mut TracedMem(mem), choice)
        })
    }

    fn scalarset_pinned(&self) -> bool {
        timed(Span::ScalarsetPinned, || self.0.scalarset_pinned())
    }

    fn on_crash(&mut self) {
        timed(Span::OnCrash, || self.0.on_crash());
    }

    fn state_key(&self) -> Value {
        timed(Span::StateKey, || self.0.state_key())
    }

    fn boxed_clone(&self) -> Box<dyn Program> {
        Traced::wrap(timed(Span::BoxedClone, || self.0.boxed_clone()))
    }

    fn rebind(&mut self, map: &Rebinding) {
        timed(Span::Rebind, || self.0.rebind(map));
    }

    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        timed(Span::ReferencedCells, || self.0.referenced_cells())
    }
}

/// A forwarding [`MemOps`] that times and counts every access.
struct TracedMem<'a>(&'a mut dyn MemOps);

impl MemOps for TracedMem<'_> {
    fn read_register(&mut self, addr: Addr) -> Value {
        timed(Span::Memory, || self.0.read_register(addr))
    }

    fn write_register(&mut self, addr: Addr, value: Value) {
        timed(Span::Memory, || self.0.write_register(addr, value));
    }

    fn read_object(&mut self, addr: Addr) -> Value {
        timed(Span::Memory, || self.0.read_object(addr))
    }

    fn apply(&mut self, addr: Addr, op: &Operation) -> Value {
        timed(Span::Memory, || self.0.apply(addr, op))
    }
}

/// Wraps every program of a built system in [`Traced`].
pub fn traced_system(
    (mem, programs): (Memory, Vec<Box<dyn Program>>),
) -> (Memory, Vec<Box<dyn Program>>) {
    (mem, programs.into_iter().map(Traced::wrap).collect())
}
