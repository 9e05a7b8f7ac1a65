//! Hash-consing for [`Value`]s and model-checker state keys.
//!
//! The exhaustive checker ([`explore`](crate::explore)) memoizes every
//! reached system state. Structural keys — cloned `Vec<Value>` tuples —
//! are exact but allocation-heavy: every visited-set probe cloned the
//! entire shared memory, every program's volatile state and the decided
//! value, then hashed those deep structures with the default `SipHash`.
//!
//! This module replaces that with two layers:
//!
//! * [`ValueInterner`] — hash-conses [`Value`]s into dense `u32` ids.
//!   Each distinct value is cloned **once** ever; subsequent probes hash
//!   the (typically tiny) value and compare ids. Interning is injective:
//!   `intern(a) == intern(b)` **iff** `a == b` — so keys built from ids
//!   are exactly as collision-free as the structural tuples they replace
//!   (property-tested in `tests/proptest_runtime.rs`).
//! * [`StateTable`] — deduplicates flat `&[u32]` state keys (interned
//!   memory cells, program keys, packed decided bits, crash count,
//!   decided value) into dense node indices, which double as the parent
//!   pointers the checker uses to reconstruct violation schedules.
//!
//! Both use [`FxHasher`], the Firefox/rustc multiply-rotate hash — far
//! cheaper than `SipHash` for short keys and not exposed to untrusted
//! input here.
//!
//! ## Sharded operation
//!
//! The parallel frontier engine deduplicates each breadth-first level
//! across worker threads. Two extra pieces make that sound:
//!
//! * [`ShardInterner`] — a worker-local overflow interner. During a
//!   parallel phase the global [`ValueInterner`] is frozen (read-only via
//!   [`lookup`](ValueInterner::lookup)); values not yet globally interned
//!   get *local* ids from the worker's `ShardInterner`. A serial
//!   reconciliation pass then maps local ids to fresh global ids **in the
//!   worker's first-use order, walked in canonical item order** — which
//!   reproduces, bit for bit, the ids a single serial interner would have
//!   assigned processing the same items in the same order
//!   (property-tested in `tests/proptest_runtime.rs`).
//! * [`ShardedStateTable`] — the visited set split into `shards`
//!   independent [`StateTable`]s, routed by a hash of the *resolved*
//!   key. Because reconciled ids are canonical-order-deterministic,
//!   every duplicate of a state carries the identical resolved key and
//!   lands in the same shard whatever the thread count — so per-shard
//!   insertion is exact global dedup and the engine stays deterministic
//!   across thread counts.

use crate::storage::{StorageTier, VisitedTable};
use rc_spec::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The `FxHash` function (as used by rustc): a fast, non-cryptographic
/// hasher for in-process hash tables keyed by small values.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            // Length-tagged so e.g. [0] hashes differently from [].
            let mut tail = remainder.len() as u64;
            for &b in remainder {
                tail = (tail << 8) | u64::from(b);
            }
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-backed tables.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A hash-consing table: [`Value`] → dense `u32` id.
///
/// # Example
///
/// ```
/// use rc_runtime::ValueInterner;
/// use rc_spec::Value;
///
/// let mut interner = ValueInterner::new();
/// let a = interner.intern(&Value::Int(3));
/// let b = interner.intern(&Value::pair(Value::Int(3), Value::Bottom));
/// assert_ne!(a, b);
/// assert_eq!(a, interner.intern(&Value::Int(3)), "same value, same id");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    ids: FxHashMap<Value, u32>,
    /// The reverse map: `values[id]` is the value interned as `id`
    /// (see [`value`](Self::value)).
    values: Vec<Value>,
    /// Approximate resident bytes of the interned values, accumulated
    /// at first sight (see [`approx_bytes`](Self::approx_bytes)).
    bytes: usize,
}

/// Approximate heap bytes of one [`Value`]: the enum footprint plus
/// recursively-owned payloads (string bytes, tuple/list elements). A
/// pure function of the value, so the account stays deterministic.
fn approx_value_bytes(value: &Value) -> usize {
    let own = std::mem::size_of::<Value>();
    match value {
        Value::Bottom | Value::Unit | Value::Bool(_) | Value::Int(_) => own,
        Value::Sym(s) => own + s.len(),
        Value::Tuple(items) | Value::List(items) => {
            own + items.iter().map(approx_value_bytes).sum::<usize>()
        }
    }
}

impl ValueInterner {
    /// Sentinel id used by key builders for "no value" slots (e.g. the
    /// checker's *no decided value yet*). Never returned by
    /// [`intern`](Self::intern).
    pub const NONE: u32 = u32::MAX;

    /// Creates an empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Returns the id of `value`, interning (and cloning) it on first
    /// sight. Injective: two values receive the same id iff they are
    /// structurally equal.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` distinct values are interned
    /// (far beyond any feasible state space).
    pub fn intern(&mut self, value: &Value) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("interner overflow");
        assert!(id < Self::NONE, "interner overflow");
        self.bytes += approx_value_bytes(value) + StateTable::ENTRY_OVERHEAD;
        self.ids.insert(value.clone(), id);
        self.values.push(value.clone());
        id
    }

    /// The value interned as `id` — the inverse of
    /// [`intern`](Self::intern). The symmetry reduction orders processes
    /// by their interned key slots and falls back to the values only
    /// where two ids differ.
    ///
    /// # Example
    ///
    /// ```
    /// use rc_runtime::ValueInterner;
    /// use rc_spec::Value;
    ///
    /// let mut interner = ValueInterner::new();
    /// let v = Value::pair(Value::Int(3), Value::sym("A"));
    /// let id = interner.intern(&v);
    /// assert_eq!(interner.value(id), &v);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out by this interner.
    pub fn value(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Approximate resident bytes of the interned values (payloads +
    /// per-entry map overhead), feeding the memory counters in
    /// [`ExploreStats`](crate::ExploreStats). Deterministic: a pure
    /// function of the interned set.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Read-only probe: the id of `value` if it has been interned. The
    /// parallel engine's workers resolve against a frozen interner with
    /// this; misses go to a worker-local [`ShardInterner`].
    pub fn lookup(&self, value: &Value) -> Option<u32> {
        self.ids.get(value).copied()
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Where a value resolved during a frozen-interner phase lives: already
/// in the global [`ValueInterner`], or pending in the worker's
/// [`ShardInterner`] until the serial reconciliation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolved {
    /// The value's stable global id.
    Global(u32),
    /// A worker-local id, valid only within the worker's
    /// [`ShardInterner`] for the current level.
    Local(u32),
}

/// A worker-local overflow interner for one parallel phase.
///
/// While the global [`ValueInterner`] is frozen, each expansion worker
/// resolves values through [`resolve`](Self::resolve): known values
/// yield their global id, unseen values are interned locally. After the
/// parallel phase, the (serial) reconciliation pass walks items in
/// canonical order and promotes each local value to a global id with
/// [`ValueInterner::intern`] — first use wins, exactly as if one serial
/// interner had processed the items in that order, so the final keys are
/// bit-identical to the single-interner path.
#[derive(Clone, Debug, Default)]
pub struct ShardInterner {
    /// Keys shared with `values` via `Arc`, so a first-seen value is
    /// deep-cloned exactly once.
    ids: FxHashMap<std::sync::Arc<Value>, u32>,
    values: Vec<std::sync::Arc<Value>>,
}

impl ShardInterner {
    /// Creates an empty local interner.
    pub fn new() -> Self {
        ShardInterner::default()
    }

    /// Resolves `value` against the frozen `global` interner, interning
    /// it locally on a miss.
    pub fn resolve(&mut self, global: &ValueInterner, value: &Value) -> Resolved {
        match global.lookup(value) {
            Some(id) => Resolved::Global(id),
            None => Resolved::Local(self.intern_local(value)),
        }
    }

    /// Interns `value` locally, returning its dense local id. First-seen
    /// values are deep-cloned once (then shared between the map and the
    /// id-indexed vector).
    pub fn intern_local(&mut self, value: &Value) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("shard interner overflow");
        let shared = std::sync::Arc::new(value.clone());
        self.values.push(shared.clone());
        self.ids.insert(shared, id);
        id
    }

    /// The value behind a local id (for reconciliation into the global
    /// interner).
    pub fn value(&self, local: u32) -> &Value {
        self.values[local as usize].as_ref()
    }

    /// Number of locally interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was interned locally.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Deduplicates flat `u32` state keys into dense node indices.
///
/// The checker's visited set: [`insert`](Self::insert) returns the
/// node's index plus whether it was new. Indices are handed out in
/// insertion order, so they directly index the checker's parallel
/// parent-link arrays.
#[derive(Clone, Debug, Default)]
pub struct StateTable {
    ids: FxHashMap<Box<[u32]>, u32>,
    /// Approximate resident bytes: key words plus per-entry map
    /// overhead, accumulated on insert (see
    /// [`approx_bytes`](Self::approx_bytes)).
    bytes: usize,
}

impl StateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StateTable::default()
    }

    /// Looks up `key` without inserting.
    pub fn get(&self, key: &[u32]) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// Inserts `key`, returning `(index, was_new)`. The key slice is
    /// boxed only when new.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct keys are inserted.
    pub fn insert(&mut self, key: &[u32]) -> (u32, bool) {
        if let Some(&id) = self.ids.get(key) {
            return (id, false);
        }
        let id = u32::try_from(self.ids.len()).expect("state table overflow");
        self.bytes += key.len() * 4 + Self::ENTRY_OVERHEAD;
        self.ids.insert(key.into(), id);
        (id, true)
    }

    /// Approximate per-entry map overhead beyond the key words: the
    /// boxed slice's pointer + length, the `u32` id and hash-bucket
    /// slack.
    const ENTRY_OVERHEAD: usize = 40;

    /// Approximate resident bytes of the table (key words + per-entry
    /// overhead). Deterministic — a pure function of the inserted keys —
    /// so it can feed the memory counters in
    /// [`ExploreStats`](crate::ExploreStats) without perturbing
    /// cross-engine equivalence.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table is empty. Kept for API symmetry with
    /// [`len`](Self::len); only tests exercise it today.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The visited set split into independent shards for parallel dedup.
///
/// States are routed by a hash of their **resolved** key (see
/// `key_route` in the explore module); resolved keys are deterministic
/// across runs and thread counts, so every duplicate of a state maps to
/// the same shard — per-shard insertion is then exact global
/// deduplication. Node indices are *not* assigned here: the engine's
/// serial reconciliation pass maps each shard's inserts into the one
/// global node-index space in canonical frontier order, which keeps
/// parent links and schedule reconstruction byte-deterministic across
/// runs and thread counts.
///
/// Each shard is a [`VisitedTable`] — the flat map or the packed tiered
/// table, per the configured [`StorageTier`]. Every tier satisfies the
/// same `get`/`insert` contract exactly, so shard routing, the frozen
/// `contains` probes and index reconciliation are tier-oblivious.
#[derive(Debug)]
pub struct ShardedStateTable {
    shards: Vec<VisitedTable>,
}

impl ShardedStateTable {
    /// Creates a table with `shards` empty shards of the given storage
    /// tier; `spill_threshold` is the per-shard resident-arena bytes
    /// that trigger a disk freeze (spill tier only).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, tier: StorageTier, spill_threshold: usize) -> Self {
        assert!(shards > 0, "a sharded table needs at least one shard");
        ShardedStateTable {
            shards: (0..shards)
                .map(|_| VisitedTable::new(tier, spill_threshold))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a content-routed key belongs to.
    pub fn shard_of(&self, route: u64) -> usize {
        (route % self.shards.len() as u64) as usize
    }

    /// Read-only membership probe in one shard (used by expansion
    /// workers to drop already-visited children while the table is
    /// frozen).
    pub fn contains(&self, shard: usize, key: &[u32]) -> bool {
        self.shards[shard].get(key).is_some()
    }

    /// Mutable access to every shard, for the parallel insert phase
    /// (each worker owns exactly one `&mut VisitedTable`).
    pub fn shards_mut(&mut self) -> &mut [VisitedTable] {
        &mut self.shards
    }

    /// Total number of distinct keys across all shards. The engine
    /// tracks its accepted-node count separately (shards may hold
    /// entries past a truncation cut); kept for tests and diagnostics.
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(VisitedTable::len).sum()
    }

    /// Whether every shard is empty.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.len() == 0)
    }

    /// Summed resident bytes across shards (final, not peak).
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(VisitedTable::resident_bytes).sum()
    }

    /// Summed per-shard peak resident bytes (each shard's high-water
    /// mark; resident usage drops at spill freezes).
    pub fn peak_resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(VisitedTable::peak_resident_bytes)
            .sum()
    }

    /// Total bytes written to spill runs across shards.
    pub fn spilled_bytes(&self) -> usize {
        self.shards.iter().map(VisitedTable::spilled_bytes).sum()
    }

    /// Total prefilter bits set across shards.
    pub fn filter_bits_set(&self) -> usize {
        self.shards.iter().map(VisitedTable::filter_bits_set).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_injective_on_a_value_zoo() {
        let zoo = [
            Value::Bottom,
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::sym("A"),
            Value::sym("B"),
            Value::pair(Value::Int(0), Value::Int(1)),
            Value::pair(Value::Int(1), Value::Int(0)),
            Value::Tuple(vec![Value::Int(0)]),
            Value::List(vec![Value::Int(0)]),
            Value::empty_list(),
            Value::Tuple(Vec::new()),
        ];
        let mut interner = ValueInterner::new();
        let ids: Vec<u32> = zoo.iter().map(|v| interner.intern(v)).collect();
        for (i, a) in zoo.iter().enumerate() {
            for (j, b) in zoo.iter().enumerate() {
                assert_eq!((a == b), (ids[i] == ids[j]), "{a} vs {b}");
            }
        }
        // Stability: re-interning yields the same ids.
        let again: Vec<u32> = zoo.iter().map(|v| interner.intern(v)).collect();
        assert_eq!(ids, again);
        assert_eq!(interner.len(), zoo.len());
    }

    #[test]
    fn state_table_dedups_and_indexes_in_insertion_order() {
        let mut table = StateTable::new();
        assert!(table.is_empty());
        assert_eq!(table.insert(&[1, 2, 3]), (0, true));
        assert_eq!(table.insert(&[1, 2, 4]), (1, true));
        assert_eq!(table.insert(&[1, 2, 3]), (0, false));
        assert_eq!(table.insert(&[]), (2, true));
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(&[1, 2, 4]), Some(1));
        assert_eq!(table.get(&[9]), None);
    }

    #[test]
    fn value_inverts_intern() {
        let mut interner = ValueInterner::new();
        let zoo = [
            Value::Int(0),
            Value::sym("A"),
            Value::pair(Value::Int(1), Value::Bottom),
            Value::List(vec![Value::Unit, Value::Bool(true)]),
        ];
        let ids: Vec<u32> = zoo.iter().map(|v| interner.intern(v)).collect();
        for (id, v) in ids.iter().zip(&zoo) {
            assert_eq!(interner.value(*id), v);
            let back = interner.value(*id).clone();
            assert_eq!(interner.intern(&back), *id, "round trip keeps the id");
        }
    }

    #[test]
    fn lookup_is_read_only() {
        let mut interner = ValueInterner::new();
        let v = Value::pair(Value::Int(4), Value::sym("Q"));
        assert_eq!(interner.lookup(&v), None);
        let id = interner.intern(&v);
        assert_eq!(interner.lookup(&v), Some(id));
        assert_eq!(interner.len(), 1, "lookup must not intern");
    }

    #[test]
    fn shard_interner_resolves_global_hits_and_local_misses() {
        let mut global = ValueInterner::new();
        let known = Value::Int(1);
        let g = global.intern(&known);
        let mut local = ShardInterner::new();
        assert_eq!(local.resolve(&global, &known), Resolved::Global(g));
        let fresh = Value::sym("fresh");
        let l = match local.resolve(&global, &fresh) {
            Resolved::Local(l) => l,
            other => panic!("miss must go local: {other:?}"),
        };
        // Locally stable, idempotent.
        assert_eq!(local.resolve(&global, &fresh), Resolved::Local(l));
        assert_eq!(local.value(l), &fresh);
        assert!(!local.is_empty());
        assert_eq!(local.len(), 1);
        // Reconciliation: promoting the local value makes later
        // resolutions hit the global fast path with the promoted id.
        let promoted = global.intern(local.value(l));
        assert_eq!(local.resolve(&global, &fresh), Resolved::Global(promoted));
    }

    #[test]
    fn sharded_table_routes_consistently_and_sums_len() {
        for tier in StorageTier::ALL {
            let mut table = ShardedStateTable::new(3, tier, 64);
            assert!(table.is_empty());
            assert_eq!(table.shard_count(), 3);
            let keys: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i, i + 1]).collect();
            for key in &keys {
                let route = {
                    let mut h = FxHasher::default();
                    for &w in key.iter() {
                        h.write_u32(w);
                    }
                    h.finish()
                };
                let shard = table.shard_of(route);
                assert!(shard < 3);
                // Same route always maps to the same shard.
                assert_eq!(shard, table.shard_of(route));
                let (_, new) = table.shards_mut()[shard].insert(key);
                assert!(new);
                assert!(table.contains(shard, key));
            }
            assert_eq!(table.len(), keys.len(), "{tier}");
            assert!(table.resident_bytes() > 0);
            assert!(table.peak_resident_bytes() >= table.resident_bytes());
        }
    }

    #[test]
    fn fx_hasher_distinguishes_byte_strings() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
