//! Hash-consing for [`Value`]s and model-checker state keys.
//!
//! The exhaustive checker ([`explore`](crate::explore)) memoizes every
//! reached system state. Structural keys — cloned `Vec<Value>` tuples —
//! are exact but allocation-heavy: every visited-set probe cloned the
//! entire shared memory, every program's volatile state and the decided
//! value, then hashed those deep structures with the default `SipHash`.
//!
//! [`ValueInterner`] replaces them: it hash-conses [`Value`]s into dense
//! `u32` ids. Each distinct value is cloned **once** ever; subsequent
//! probes hash the (typically tiny) value and compare ids. Interning is
//! injective: `intern(a) == intern(b)` **iff** `a == b` — so keys built
//! from ids are exactly as collision-free as the structural tuples they
//! replace (property-tested in `tests/proptest_runtime.rs`). The flat
//! `u32` keys built from the ids are deduplicated by the packed visited
//! set ([`PackedStateTable`](crate::PackedStateTable)).
//!
//! The interner hashes with [`FxHasher`], the Firefox/rustc
//! multiply-rotate hash — far cheaper than `SipHash` for short keys and
//! not exposed to untrusted input here.

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

    /// Approximate per-entry map overhead beyond the value payload: the
    /// `u32` id, the reverse-map slot and hash-bucket slack.
    const ENTRY_OVERHEAD: usize = 40;

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
        self.bytes += approx_value_bytes(value) + Self::ENTRY_OVERHEAD;
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

    /// Read-only probe: the id of `value` if it has been interned.
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
        // The visited set the id keys go into hands out dense state
        // indices in first-insertion order and reports repeats.
        let mut table = crate::PackedStateTable::new(None);
        assert!(table.is_empty());
        assert_eq!(table.insert(&[1, 2, 3]), (0, true));
        assert_eq!(table.insert(&[1, 2, 4]), (1, true));
        assert_eq!(table.insert(&[1, 2, 3]), (0, false));
        assert_eq!(table.insert(&[]), (2, true));
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(&[1, 2, 4]), Some(1));
        assert_eq!(table.get(&[9]), None);

        // Keys built from interned ids: equal value tuples land on one
        // state index, distinct ones on fresh indices.
        let mut interner = ValueInterner::new();
        let mut key = |values: &[Value]| -> Vec<u32> {
            values.iter().map(|v| interner.intern(v)).collect()
        };
        let a = key(&[Value::Int(0), Value::sym("A")]);
        let b = key(&[Value::sym("A"), Value::Int(0)]);
        let a_again = key(&[Value::Int(0), Value::sym("A")]);
        assert_eq!(table.insert(&a), (3, true));
        assert_eq!(table.insert(&b), (4, true));
        assert_eq!(table.insert(&a_again), (3, false));
        assert_eq!(table.len(), 5);
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
