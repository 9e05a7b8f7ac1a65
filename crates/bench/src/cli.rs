//! Argument parsing for the `tables` binary.
//!
//! Split out of the binary so the parsing rules are unit-testable — in
//! particular the rejection of unknown experiment ids: `tables` with a
//! typo'd id used to exit 0 having silently printed nothing, which made
//! typos look like passing runs. (`e12` was the canonical example until
//! the symmetry sweep claimed the id; CI now probes with `e99`.)

/// Every valid experiment id, in printing order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

/// The experiments whose rows `BENCH_explore.json` records, in file
/// order. `--snapshot` requires every one of them to be selected: a
/// partial run would overwrite the committed rows of the rest.
pub const SNAPSHOT_IDS: &[&str] = &["e11", "e12", "e13", "e15", "e16", "e17", "e18"];

/// The `tables --help` text.
pub fn usage() -> String {
    format!(
        "\
usage: tables [--fast] [--snapshot] [e1 ... e18]
       tables --list
       tables lint [--fast]

Prints the experiment tables E1-E18 (all of them when no id is given).

  --fast      smaller sample counts
  --snapshot  refresh BENCH_explore.json (needs {})
  --list      print the experiment ids, one per line, and exit
  lint        run the E14 catalog audit; exit 1 if any system fails it
  -h, --help  print this help and exit

Unknown ids and flags exit 2.",
        SNAPSHOT_IDS.join(" ")
    )
}

/// Parsed `tables` arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TablesArgs {
    /// Smaller sample counts (`--fast`).
    pub fast: bool,
    /// Write the `BENCH_explore.json` snapshot after the selected
    /// experiments ran (`--snapshot`; requires every [`SNAPSHOT_IDS`]).
    pub snapshot: bool,
    /// Print the experiment ids, one per line, and exit (`--list`) — CI
    /// diffs this against the experiments indexed in EXPERIMENTS.md so
    /// the two can never drift apart.
    pub list: bool,
    /// Run the catalog access-declaration audit (`tables lint`) and exit
    /// non-zero if any system fails it — the CI gate form of E14.
    pub lint: bool,
    /// Lower-cased experiment ids to print; empty means all.
    pub selected: Vec<String>,
    /// Print [`usage`] and exit 0 (`--help`, `-h`); the other arguments
    /// are still parsed, so a typo next to `--help` is still an error.
    pub help: bool,
}

impl TablesArgs {
    /// Whether experiment `id` should be printed.
    pub fn wants(&self, id: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == id)
    }
}

/// Parses the `tables` command line (everything after the binary name).
///
/// # Errors
///
/// Returns a usage message naming the offending argument and listing the
/// valid experiment ids — unknown ids and unknown flags are errors, not
/// silent no-ops.
pub fn parse_args<I, S>(args: I) -> Result<TablesArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut parsed = TablesArgs::default();
    for arg in args {
        let arg = arg.as_ref();
        match arg {
            "--fast" => parsed.fast = true,
            "--snapshot" => parsed.snapshot = true,
            "--list" => parsed.list = true,
            "lint" => parsed.lint = true,
            "--help" | "-h" => parsed.help = true,
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown flag `{flag}`; valid flags: --fast, --snapshot, --list, --help"
                ));
            }
            id => {
                let id = id.to_lowercase();
                if !EXPERIMENT_IDS.contains(&id.as_str()) {
                    return Err(format!(
                        "unknown experiment id `{id}`; valid ids: {}",
                        EXPERIMENT_IDS.join(", ")
                    ));
                }
                parsed.selected.push(id);
            }
        }
    }
    if parsed.help {
        return Ok(parsed);
    }
    if parsed.list && parsed.snapshot {
        // `--list` exits before any experiment runs, so honouring both
        // flags would silently skip the requested snapshot write — the
        // same silent-no-op shape as a typo'd experiment id.
        return Err(
            "--list prints the experiment ids and exits; it cannot be combined \
             with --snapshot"
                .into(),
        );
    }
    if parsed.lint && (parsed.list || parsed.snapshot || !parsed.selected.is_empty()) {
        // `lint` is the CI gate: it runs the audit, sets the exit code
        // and prints nothing else. Combining it with experiment
        // selection, `--list` or `--snapshot` would silently skip one of
        // the two requests — same silent-no-op shape as a typo'd id.
        return Err(
            "`lint` runs the catalog audit and exits; it cannot be combined \
             with experiment ids, --list or --snapshot"
                .into(),
        );
    }
    let missing: Vec<&str> = SNAPSHOT_IDS
        .iter()
        .copied()
        .filter(|id| !parsed.wants(id))
        .collect();
    if parsed.snapshot && !missing.is_empty() {
        return Err(format!(
            "--snapshot records the rows of {}; not selected: {}",
            SNAPSHOT_IDS.join(", "),
            missing.join(", ")
        ));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_selects_everything() {
        let args = parse_args(Vec::<&str>::new()).expect("valid");
        assert!(!args.fast);
        assert!(!args.snapshot);
        for id in EXPERIMENT_IDS {
            assert!(args.wants(id));
        }
    }

    #[test]
    fn subset_and_flags() {
        let mut argv = vec!["E4", "--fast", "--snapshot"];
        argv.extend_from_slice(SNAPSHOT_IDS);
        let args = parse_args(argv).expect("valid");
        assert!(args.fast && args.snapshot);
        assert!(args.wants("e4"));
        for id in SNAPSHOT_IDS {
            assert!(args.wants(id), "{id}");
        }
        assert!(!args.wants("e1"));
    }

    /// `--list` is how CI syncs the id list with EXPERIMENTS.md; it must
    /// parse alone and alongside a selection — but never with
    /// `--snapshot`, whose write the list early-exit would silently
    /// skip.
    #[test]
    fn list_flag_parses_but_refuses_snapshot() {
        assert!(parse_args(["--list"]).expect("valid").list);
        assert!(!parse_args(Vec::<&str>::new()).expect("valid").list);
        assert!(parse_args(["e4", "--list"]).expect("valid").list);
        let mut argv = SNAPSHOT_IDS.to_vec();
        argv.extend(["--snapshot", "--list"]);
        let err = parse_args(argv).expect_err("must reject the silent snapshot skip");
        assert!(err.contains("--snapshot"), "{err}");
    }

    /// Regression: an unknown id must be an error carrying the full list
    /// of valid ids, not a silent empty run. (`e12` was the canonical
    /// unknown id until the symmetry sweep claimed it; `e99` stays
    /// unknown.)
    #[test]
    fn unknown_id_is_rejected_with_the_valid_list() {
        let err = parse_args(["e99"]).expect_err("must reject");
        assert!(err.contains("e99"), "{err}");
        for id in EXPERIMENT_IDS {
            assert!(err.contains(id), "{err} should list {id}");
        }
    }

    /// `e12` goes through the same known-id path as every other
    /// experiment — no special-cased acceptance.
    #[test]
    fn e12_is_a_known_experiment_id() {
        let args = parse_args(["E12"]).expect("e12 is valid");
        assert!(args.wants("e12"));
        assert!(!args.wants("e11"));
    }

    /// `--snapshot` without every snapshot experiment in the selection
    /// would silently skip part of the snapshot write — the same
    /// silent-no-op shape as the unknown-id bug, so it is rejected too,
    /// naming the missing ids: with none of them selected, and with
    /// each proper prefix of [`SNAPSHOT_IDS`] selected.
    #[test]
    fn snapshot_requires_e11_through_e18_in_the_selection() {
        let err = parse_args(["e4", "--snapshot"]).expect_err("must reject");
        for id in SNAPSHOT_IDS {
            assert!(err.contains(id), "{err} should name {id}");
        }
        for k in 1..SNAPSHOT_IDS.len() {
            let mut argv = SNAPSHOT_IDS[..k].to_vec();
            argv.push("--snapshot");
            let err = parse_args(argv).expect_err("a snapshot id is missing");
            assert!(
                err.contains(&format!("not selected: {}", SNAPSHOT_IDS[k])),
                "{err} should name {} first",
                SNAPSHOT_IDS[k]
            );
        }
        let mut argv = vec!["e4", "--snapshot"];
        argv.extend_from_slice(SNAPSHOT_IDS);
        assert!(parse_args(argv).is_ok());
        assert!(
            parse_args(["--snapshot"]).is_ok(),
            "empty selection runs everything"
        );
    }

    /// `tables lint` is the CI gate form of E14: it parses alone (with
    /// `--fast` allowed) and refuses experiment selection, `--list` and
    /// `--snapshot` — each combination would silently drop a request.
    #[test]
    fn lint_parses_alone_and_refuses_combinations() {
        assert!(parse_args(["lint"]).expect("valid").lint);
        assert!(!parse_args(Vec::<&str>::new()).expect("valid").lint);
        let fast = parse_args(["lint", "--fast"]).expect("valid");
        assert!(fast.lint && fast.fast);
        for combo in [
            vec!["lint", "e4"],
            vec!["lint", "--list"],
            [&["lint", "--snapshot"], SNAPSHOT_IDS].concat(),
        ] {
            let err = parse_args(combo.clone()).expect_err("must reject");
            assert!(err.contains("lint"), "{combo:?}: {err}");
        }
    }

    /// `e14` is a known experiment id (the table form of the audit).
    #[test]
    fn e14_is_a_known_experiment_id() {
        let args = parse_args(["E14"]).expect("e14 is valid");
        assert!(args.wants("e14"));
        assert!(!args.wants("e13"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args(["--frobnicate"]).expect_err("must reject");
        assert!(err.contains("--frobnicate"), "{err}");
        let err = parse_args(["-x"]).expect_err("must reject");
        assert!(err.contains("-x"), "{err}");
    }

    /// `--help` and `-h` ask for the usage text (the binary prints it
    /// and exits 0), even beside arguments that could not run together;
    /// an unknown argument beside them is still an error.
    #[test]
    fn help_flag_parses_and_typos_still_fail() {
        for flag in ["--help", "-h"] {
            assert!(parse_args([flag]).expect("valid").help);
            assert!(parse_args(["e4", flag]).expect("valid").help);
            assert!(parse_args(["lint", "--list", flag]).expect("valid").help);
            assert!(
                parse_args([flag, "e99"]).is_err(),
                "unknown id beside {flag}"
            );
            assert!(parse_args([flag, "--frobnicate"]).is_err());
        }
        assert!(!parse_args(["e4"]).expect("valid").help);
        let usage = usage();
        assert!(usage.contains("--fast") && usage.contains("lint"));
        assert!(usage.contains(&SNAPSHOT_IDS.join(" ")));
    }
}
