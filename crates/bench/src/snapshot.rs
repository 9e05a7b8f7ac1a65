//! The `BENCH_explore.json` snapshot: one generic JSON row writer for
//! every row set (E11–E17's [`ExploreRow`](crate::matrix::ExploreRow)s
//! and E18's [`E18Row`](crate::exp::E18Row)s).

use crate::cli::SNAPSHOT_IDS;

/// A JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string (escaped on output).
    Str(String),
    /// A non-negative integer.
    Int(u64),
    /// A number printed with this many decimals.
    Num(f64, usize),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// `Int`, or `Null` when absent.
    pub fn opt(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::Int)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if u32::from(c) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", u32::from(c)))
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v, decimals) if v.is_finite() => {
                out.push_str(&format!("{v:.decimals$}"));
            }
            Json::Num(..) | Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
        }
    }
}

/// A row type the snapshot records: its fields, in a fixed order.
pub trait JsonRow {
    /// `(key, value)` pairs; the same keys in the same order for every
    /// row of a type.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// One experiment's rows, written as `"<id>_rows"`.
#[derive(Clone, Debug)]
pub struct RowSet {
    id: &'static str,
    rows: Vec<Vec<(&'static str, Json)>>,
}

impl RowSet {
    /// Collects the rows of experiment `id`.
    pub fn new<R: JsonRow>(id: &'static str, rows: &[R]) -> RowSet {
        RowSet {
            id,
            rows: rows.iter().map(JsonRow::fields).collect(),
        }
    }
}

/// Renders the row sets as the `BENCH_explore.json` snapshot: a stable,
/// diff-friendly record of the engine trajectory across PRs, one row
/// object per line. The host core count is recorded so trajectory
/// points from different machines stay comparable (the swarm rows scale
/// with cores) — the CI `bench-record` job regenerates the snapshot on
/// a multi-core runner and uploads it as an artifact.
///
/// Schema migration: version 7 writes every E11–E17 row set from one
/// row type, so each carries the same keys — `system`, `crash_budget`,
/// `max_states`, `mode` (E12's former `symmetry`), `tier`, `max_bytes`,
/// `verdict`, `states`, `leaves`, `reduction`,
/// `reduction_is_lower_bound`, `peak_table_bytes`, `spilled_bytes`,
/// `witness_bytes` (exact bytes, replacing E16's rounded `*_mb`),
/// `millis` (now the median run) and the new `samples` (runs behind the
/// median), then `states_per_sec`. `e18_rows` is unchanged. Version 6
/// dropped the removed parallel engine's and storage tiers' fields
/// (`engine`, `vs_serial`, `threads`, `filter_bits`); version 5 added
/// `e18_rows`; version 4 `e17_rows` and a `mode` on `e16_rows`;
/// version 3 `e16_rows`; version 2 the `schema` field and `e15_rows`.
pub fn snapshot_json(sets: &[RowSet]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 7,\n");
    out.push_str(&format!(
        "  \"regenerate\": \"cargo run -p rc-bench --release --bin tables -- {} --snapshot\",\n",
        SNAPSHOT_IDS.join(" ")
    ));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"states, leaves, reduction, byte counts, seeds and coverage are \
         deterministic; millis (the median of samples runs), states_per_sec and \
         runs_per_sec are machine-dependent\"",
    );
    for set in sets {
        out.push_str(&format!(",\n  \"{}_rows\": [", set.id));
        for (i, row) in set.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            for (j, (key, value)) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                Json::Str((*key).into()).write(&mut out);
                out.push_str(": ");
                value.write(&mut out);
            }
            out.push('}');
        }
        out.push_str(if set.rows.is_empty() { "]" } else { "\n  ]" });
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The keys of each row object of `json`'s row sets, per set — a
    /// small scanner over the writer's one-object-per-line layout.
    pub(crate) fn row_keys(json: &str) -> Vec<(String, Vec<Vec<String>>)> {
        let mut sets: Vec<(String, Vec<Vec<String>>)> = Vec::new();
        for line in json.lines() {
            let line = line.trim();
            if let Some(name) = line
                .strip_prefix('"')
                .and_then(|l| l.strip_suffix("_rows\": ["))
            {
                sets.push((name.to_string(), Vec::new()));
            } else if let Some(name) = line
                .strip_prefix('"')
                .and_then(|l| l.strip_suffix("_rows\": []"))
            {
                sets.push((name.to_string(), Vec::new()));
            } else if line.starts_with('{') && line.len() > 1 {
                let mut keys = Vec::new();
                let (mut in_str, mut escaped, mut token) = (false, false, String::new());
                let mut chars = line.chars().peekable();
                while let Some(c) = chars.next() {
                    if in_str {
                        match (escaped, c) {
                            (false, '\\') => escaped = true,
                            (false, '"') => {
                                in_str = false;
                                if chars.peek() == Some(&':') {
                                    keys.push(std::mem::take(&mut token));
                                }
                                token.clear();
                            }
                            _ => {
                                escaped = false;
                                token.push(c);
                            }
                        }
                    } else if c == '"' {
                        in_str = true;
                    }
                }
                sets.last_mut()
                    .expect("rows follow a set header")
                    .1
                    .push(keys);
            }
        }
        sets
    }

    /// Every object within a row set carries the same keys in the same
    /// order.
    pub(crate) fn assert_uniform_keys(json: &str) {
        for (set, rows) in row_keys(json) {
            for keys in &rows {
                assert_eq!(keys, &rows[0], "{set}_rows: keys differ between objects");
            }
        }
    }

    struct Row(Option<u64>, &'static str);

    impl JsonRow for Row {
        fn fields(&self) -> Vec<(&'static str, Json)> {
            vec![
                ("label", Json::Str(self.1.into())),
                ("seed", Json::opt(self.0)),
                ("ratio", Json::Num(1.25, 1)),
            ]
        }
    }

    #[test]
    fn writer_escapes_and_keeps_one_key_order_per_set() {
        let json = snapshot_json(&[
            RowSet::new(
                "a",
                &[Row(None, "plain"), Row(Some(7), "say \"hi\", 0,0\\1")],
            ),
            RowSet::new::<Row>("b", &[]),
        ]);
        assert!(json.contains("\"schema\": 7"));
        assert!(json.contains("\"seed\": null"));
        assert!(json.contains("\"label\": \"say \\\"hi\\\", 0,0\\\\1\""));
        assert!(json.contains("\"b_rows\": []"));
        let sets = row_keys(&json);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].1.len(), 2);
        assert_eq!(sets[0].1[0], ["label", "seed", "ratio"]);
        assert_uniform_keys(&json);
    }

    #[test]
    fn regenerate_command_names_every_snapshot_id() {
        let json = snapshot_json(&[]);
        for id in SNAPSHOT_IDS {
            assert!(json.contains(&format!(" {id} ")), "{id} missing");
        }
    }
}
