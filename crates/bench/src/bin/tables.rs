//! Prints every experiment table (E1–E18); pass experiment ids to select
//! a subset, `--fast` for smaller sample counts, `--snapshot` (with every
//! id of `rc_bench::cli::SNAPSHOT_IDS` selected) to refresh
//! `BENCH_explore.json`, `--list` to print the experiment ids one per
//! line (CI diffs that against EXPERIMENTS.md), and `lint` to run the
//! E14 catalog audit — access declarations plus the POR ample-set
//! soundness lint — as a gate (exit non-zero if any system fails):
//!
//! ```sh
//! cargo run -p rc-bench --release --bin tables           # everything
//! cargo run -p rc-bench --release --bin tables -- e4 e5  # a subset
//! cargo run -p rc-bench --release --bin tables -- --fast --snapshot
//! cargo run -p rc-bench --release --bin tables -- --list
//! cargo run -p rc-bench --release --bin tables -- lint
//! ```
//!
//! `--help` prints the usage and exits 0. Unknown experiment ids and
//! flags exit non-zero with the list of valid ids.

use rc_bench::snapshot::{snapshot_json, RowSet};
use rc_bench::{cli, exp};
use std::path::Path;

fn main() {
    let args = match cli::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tables: {message}");
            std::process::exit(2);
        }
    };
    let fast = args.fast;

    if args.help {
        println!("{}", cli::usage());
        return;
    }
    if args.list {
        for id in cli::EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }

    if args.lint {
        lint();
        return;
    }

    let (samples, seeds) = if fast { (50, 50) } else { (400, 300) };

    println!("════════════════════════════════════════════════════════════════");
    println!(" When Is Recoverable Consensus Harder Than Consensus? (PODC 2022)");
    println!(" experiment tables — see EXPERIMENTS.md for the paper-vs-measured log");
    println!("════════════════════════════════════════════════════════════════\n");

    let mut row_sets = Vec::new();
    for &id in cli::EXPERIMENT_IDS.iter().filter(|id| args.wants(id)) {
        let report = match id {
            "e1" => exp::e1_figure1(samples),
            "e2" => exp::e2_team_rc(seeds),
            "e3" => exp::e3_simultaneous(seeds),
            "e4" => exp::e4_tn(if fast { 7 } else { 10 }),
            "e5" => exp::e5_sn(if fast { 6 } else { 9 }),
            "e6" => exp::e6_universal(seeds),
            "e7" => exp::e7_stack(),
            "e8" => exp::e8_catalog(),
            "e9" => exp::e9_sets(),
            "e10" => exp::e10_headline(seeds.min(100)),
            "e14" => {
                lint();
                continue;
            }
            "e18" => {
                let (report, rows) = exp::e18_swarm(fast);
                row_sets.push(RowSet::new(id, &rows));
                report
            }
            sweep => {
                let (report, rows) = match sweep {
                    "e11" => exp::e11_explore_scaling(fast),
                    "e12" => exp::e12_symmetry_reduction(fast),
                    "e13" => exp::e13_full_state_symmetry(fast),
                    "e15" => exp::e15_por_reduction(fast),
                    "e16" => exp::e16_storage_scaling(fast),
                    "e17" => exp::e17_scalarset_symmetry(fast),
                    other => unreachable!("no experiment runs for id {other}"),
                };
                row_sets.push(RowSet::new(id, &rows));
                report
            }
        };
        println!("{report}");
    }
    if args.snapshot {
        // The CLI guarantees every snapshot id ran, so `row_sets` holds
        // them in `SNAPSHOT_IDS` order. The path is the workspace root,
        // resolved from this crate's manifest so the snapshot lands in
        // the same place regardless of cwd.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_explore.json");
        match std::fs::write(&path, snapshot_json(&row_sets)) {
            Ok(()) => println!("snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("tables: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Prints the E14 catalog audit; exits 1 if any system fails it.
fn lint() {
    let (report, clean) = exp::e14_catalog_lint();
    println!("{report}");
    if !clean {
        eprintln!("tables: catalog lint failed (see errors above)");
        std::process::exit(1);
    }
}
