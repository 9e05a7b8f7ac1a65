//! Argument parsing for the `swarm` binary.
//!
//! Split out of the binary for the same reason as [`cli`](crate::cli):
//! the parsing rules are unit-testable, and unknown ids/flags are
//! errors, never silent no-ops. The grammar:
//!
//! ```text
//! swarm list
//! swarm run    --system <id> [--seeds N] [--seed-start N] [--threads N]
//!              [--crash-prob P] [--crash SPEC] [--json PATH]
//! swarm replay --system <id> --seed N [adversary overrides]
//! swarm shrink --system <id> --seed N [adversary overrides]
//! swarm smoke  [--seeds N]
//! swarm --help
//! ```
//!
//! `SPEC` is `none`, `independent:<budget>[:after-decide]` or
//! `simultaneous:<budget>[:after-decide]` — the textual form of
//! [`CrashModel`], so the command line can reproduce any adversary the
//! experiments use. Overriding the adversary changes which execution a
//! seed denotes; replay/shrink must be given the same overrides as the
//! run that reported the seed (the JSON artifact records them).

use rc_runtime::CrashModel;

/// The `swarm --help` text.
pub const USAGE: &str = "\
usage: swarm list
       swarm run    --system <id> [--seeds N] [--seed-start N] [--threads N]
                    [--crash-prob P] [--crash SPEC] [--json PATH]
       swarm replay --system <id> --seed N [--crash-prob P] [--crash SPEC]
       swarm shrink --system <id> --seed N [--crash-prob P] [--crash SPEC]
       swarm smoke  [--seeds N]
       swarm --help

Seeded random sweeps of a catalog system (`swarm list`), with exact
replay and shrinking of any reported seed. SPEC is `none`,
`independent:<budget>[:after-decide]` or
`simultaneous:<budget>[:after-decide]`; replay and shrink need the same
overrides as the run that reported the seed. --threads 0 uses all
cores.

Unknown subcommands, flags and malformed values exit 2.";

/// The subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmCmd {
    /// Print the catalog and exit.
    List,
    /// Sweep a seed range.
    Run,
    /// Deterministically replay one seed.
    Replay,
    /// Replay one seed and delta-debug its schedule to a minimal witness.
    Shrink,
    /// The bounded CI tier: find the seeded bug and shrink it.
    Smoke,
    /// Print [`USAGE`] and exit 0 (`--help`, `-h` or `help`, alone or
    /// after a subcommand).
    Help,
}

/// Parsed `swarm` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmArgs {
    /// The subcommand.
    pub cmd: SwarmCmd,
    /// Catalog system id (required for run/replay/shrink).
    pub system: Option<String>,
    /// Seed count (`--seeds`).
    pub seeds: Option<u64>,
    /// First seed (`--seed-start`), default 0.
    pub seed_start: u64,
    /// The single seed for replay/shrink (`--seed`).
    pub seed: Option<u64>,
    /// Worker threads (`--threads`), 0 = all cores.
    pub threads: usize,
    /// Crash probability override (`--crash-prob`).
    pub crash_prob: Option<f64>,
    /// Crash adversary override (`--crash`).
    pub crash: Option<CrashModel>,
    /// JSON artifact path (`--json`).
    pub json: Option<String>,
}

/// Parses a [`CrashModel`] spec: `none`,
/// `independent:<budget>[:after-decide]`,
/// `simultaneous:<budget>[:after-decide]`.
///
/// # Errors
///
/// Returns a message naming the offending spec.
pub fn parse_crash_spec(spec: &str) -> Result<CrashModel, String> {
    if spec == "none" {
        return Ok(CrashModel::none());
    }
    let mut parts = spec.split(':');
    let mode = parts.next().unwrap_or_default();
    let budget: usize = parts
        .next()
        .ok_or_else(|| format!("crash spec `{spec}` is missing a budget"))?
        .parse()
        .map_err(|_| format!("crash spec `{spec}` has a non-numeric budget"))?;
    let model = match mode {
        "independent" => CrashModel::independent(budget),
        "simultaneous" => CrashModel::simultaneous(budget),
        other => {
            return Err(format!(
                "unknown crash mode `{other}`; valid: none, independent:<budget>[:after-decide], \
                 simultaneous:<budget>[:after-decide]"
            ));
        }
    };
    match parts.next() {
        None => Ok(model),
        Some("after-decide") => {
            if parts.next().is_some() {
                return Err(format!("crash spec `{spec}` has trailing components"));
            }
            Ok(model.after_decide(true))
        }
        Some(other) => Err(format!(
            "unknown crash spec component `{other}` in `{spec}` (expected `after-decide`)"
        )),
    }
}

/// Renders a [`CrashModel`] back into the spec grammar (inverse of
/// [`parse_crash_spec`]; recorded in the JSON artifact so a reported
/// seed carries its adversary).
pub fn crash_spec(model: &CrashModel) -> String {
    if model.budget == 0 {
        return "none".into();
    }
    let mode = match model.mode {
        rc_runtime::CrashMode::Independent => "independent",
        rc_runtime::CrashMode::Simultaneous => "simultaneous",
    };
    let mut spec = format!("{mode}:{}", model.budget);
    if model.crash_after_decide {
        spec.push_str(":after-decide");
    }
    spec
}

/// Parses the `swarm` command line (everything after the binary name).
///
/// # Errors
///
/// Returns a usage message; unknown subcommands, flags, and malformed
/// values are all errors.
pub fn parse_args<I, S>(args: I) -> Result<SwarmArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut iter = args.into_iter();
    let cmd = match iter.next().as_ref().map(AsRef::as_ref) {
        Some("list") => SwarmCmd::List,
        Some("run") => SwarmCmd::Run,
        Some("replay") => SwarmCmd::Replay,
        Some("shrink") => SwarmCmd::Shrink,
        Some("smoke") => SwarmCmd::Smoke,
        Some("--help" | "-h" | "help") => SwarmCmd::Help,
        Some(other) => {
            return Err(format!(
                "unknown subcommand `{other}`; valid: list, run, replay, shrink, smoke"
            ));
        }
        None => return Err("missing subcommand; valid: list, run, replay, shrink, smoke".into()),
    };
    let mut parsed = SwarmArgs {
        cmd,
        system: None,
        seeds: None,
        seed_start: 0,
        seed: None,
        threads: 0,
        crash_prob: None,
        crash: None,
        json: None,
    };
    let value_of = |flag: &str, iter: &mut dyn Iterator<Item = S>| -> Result<String, String> {
        iter.next()
            .map(|v| v.as_ref().to_string())
            .ok_or_else(|| format!("flag `{flag}` needs a value"))
    };
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref().to_string();
        match arg.as_str() {
            "--system" => parsed.system = Some(value_of("--system", &mut iter)?),
            "--seeds" => {
                let v = value_of("--seeds", &mut iter)?;
                parsed.seeds = Some(
                    v.parse()
                        .map_err(|_| format!("--seeds `{v}` is not a count"))?,
                );
            }
            "--seed-start" => {
                let v = value_of("--seed-start", &mut iter)?;
                parsed.seed_start = v
                    .parse()
                    .map_err(|_| format!("--seed-start `{v}` is not a seed"))?;
            }
            "--seed" => {
                let v = value_of("--seed", &mut iter)?;
                parsed.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed `{v}` is not a seed"))?,
                );
            }
            "--threads" => {
                let v = value_of("--threads", &mut iter)?;
                parsed.threads = v
                    .parse()
                    .map_err(|_| format!("--threads `{v}` is not a thread count"))?;
            }
            "--crash-prob" => {
                let v = value_of("--crash-prob", &mut iter)?;
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("--crash-prob `{v}` is not a probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--crash-prob `{v}` is outside [0, 1]"));
                }
                parsed.crash_prob = Some(p);
            }
            "--crash" => {
                let v = value_of("--crash", &mut iter)?;
                parsed.crash = Some(parse_crash_spec(&v)?);
            }
            "--json" => parsed.json = Some(value_of("--json", &mut iter)?),
            "--help" | "-h" => parsed.cmd = SwarmCmd::Help,
            other => {
                return Err(format!("unknown argument `{other}`; see `swarm --help`"));
            }
        }
    }
    // Required-argument checks, so a forgotten --seed is an error up
    // front instead of a confusing default replay of seed 0.
    match parsed.cmd {
        SwarmCmd::Run | SwarmCmd::Replay | SwarmCmd::Shrink => {
            if parsed.system.is_none() {
                return Err("this subcommand requires --system <id> (see `swarm list`)".into());
            }
        }
        SwarmCmd::List | SwarmCmd::Smoke | SwarmCmd::Help => {}
    }
    if matches!(parsed.cmd, SwarmCmd::Replay | SwarmCmd::Shrink) && parsed.seed.is_none() {
        return Err("replay/shrink require --seed <N> (a seed reported by `swarm run`)".into());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_all_flags() {
        let args = parse_args([
            "run",
            "--system",
            "team-rc-s3",
            "--seeds",
            "1000000",
            "--seed-start",
            "5",
            "--threads",
            "8",
            "--crash-prob",
            "0.2",
            "--crash",
            "independent:3:after-decide",
            "--json",
            "out.json",
        ])
        .expect("valid");
        assert_eq!(args.cmd, SwarmCmd::Run);
        assert_eq!(args.system.as_deref(), Some("team-rc-s3"));
        assert_eq!(args.seeds, Some(1_000_000));
        assert_eq!(args.seed_start, 5);
        assert_eq!(args.threads, 8);
        assert_eq!(args.crash_prob, Some(0.2));
        assert_eq!(
            args.crash,
            Some(CrashModel::independent(3).after_decide(true))
        );
        assert_eq!(args.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn crash_specs_round_trip() {
        for spec in [
            "none",
            "independent:2",
            "independent:3:after-decide",
            "simultaneous:1",
            "simultaneous:4:after-decide",
        ] {
            let model = parse_crash_spec(spec).expect(spec);
            assert_eq!(crash_spec(&model), spec, "round trip");
        }
        assert!(parse_crash_spec("independent").is_err(), "missing budget");
        assert!(parse_crash_spec("independent:x").is_err());
        assert!(parse_crash_spec("sometimes:2").is_err());
        assert!(parse_crash_spec("independent:2:late").is_err());
        assert!(parse_crash_spec("independent:2:after-decide:more").is_err());
    }

    #[test]
    fn required_arguments_are_enforced() {
        assert!(parse_args(Vec::<&str>::new()).is_err(), "no subcommand");
        assert!(parse_args(["frobnicate"]).is_err(), "unknown subcommand");
        let err = parse_args(["run"]).expect_err("run needs --system");
        assert!(err.contains("--system"), "{err}");
        let err = parse_args(["replay", "--system", "x"]).expect_err("replay needs --seed");
        assert!(err.contains("--seed"), "{err}");
        let err = parse_args(["shrink", "--system", "x"]).expect_err("shrink needs --seed");
        assert!(err.contains("--seed"), "{err}");
        assert!(parse_args(["list"]).is_ok());
        assert!(parse_args(["smoke"]).is_ok());
        assert!(parse_args(["smoke", "--seeds", "500"]).is_ok());
    }

    /// `--help`, `-h` and `help` ask for the usage text (the binary
    /// prints it and exits 0), alone or after a subcommand, where they
    /// lift the subcommand's required arguments; unknown arguments are
    /// still errors beside them.
    #[test]
    fn help_parses_alone_and_after_a_subcommand() {
        for help in ["--help", "-h", "help"] {
            assert_eq!(parse_args([help]).expect("valid").cmd, SwarmCmd::Help);
        }
        for flag in ["--help", "-h"] {
            assert_eq!(
                parse_args(["run", flag]).expect("valid").cmd,
                SwarmCmd::Help
            );
            assert_eq!(
                parse_args(["shrink", "--system", "x", flag])
                    .expect("valid")
                    .cmd,
                SwarmCmd::Help
            );
            assert!(parse_args(["run", flag, "--frobnicate"]).is_err());
        }
        assert!(parse_args(["--frobnicate"]).is_err());
        assert!(USAGE.contains("swarm smoke") && USAGE.contains("--crash"));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse_args(["run", "--system", "x", "--seeds", "lots"]).is_err());
        assert!(parse_args(["run", "--system", "x", "--crash-prob", "1.5"]).is_err());
        assert!(parse_args(["run", "--system", "x", "--crash-prob", "-0.1"]).is_err());
        assert!(parse_args(["run", "--system", "x", "--crash", "maybe:1"]).is_err());
        assert!(parse_args(["run", "--system"]).is_err(), "dangling flag");
        assert!(parse_args(["run", "--system", "x", "--frobnicate"]).is_err());
    }
}
