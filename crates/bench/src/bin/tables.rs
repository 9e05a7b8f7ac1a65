//! Prints every experiment table (E1–E18); pass experiment ids to select
//! a subset, `--fast` for smaller sample counts, `--snapshot` (with e11,
//! e12, e13, e15, e16, e17 and e18) to refresh `BENCH_explore.json`, `--list` to print
//! the experiment ids one per line (CI diffs that against
//! EXPERIMENTS.md), and `lint` to run the E14 catalog audit — access
//! declarations plus the POR ample-set soundness lint — as a gate (exit
//! non-zero if any system fails):
//!
//! ```sh
//! cargo run -p rc-bench --release --bin tables           # everything
//! cargo run -p rc-bench --release --bin tables -- e4 e5  # a subset
//! cargo run -p rc-bench --release --bin tables -- e11 e12 e13 e15 e16 e17 e18 --fast --snapshot
//! cargo run -p rc-bench --release --bin tables -- --list
//! cargo run -p rc-bench --release --bin tables -- lint
//! ```
//!
//! `--help` prints the usage and exits 0. Unknown experiment ids and
//! flags exit non-zero with the list of valid ids.

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
        println!("{}", cli::USAGE);
        return;
    }
    if args.list {
        for id in cli::EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }

    if args.lint {
        let (report, clean) = exp::e14_catalog_lint();
        println!("{report}");
        if !clean {
            eprintln!("tables: catalog lint failed (see errors above)");
            std::process::exit(1);
        }
        return;
    }

    let (samples, seeds) = if fast { (50, 50) } else { (400, 300) };

    println!("════════════════════════════════════════════════════════════════");
    println!(" When Is Recoverable Consensus Harder Than Consensus? (PODC 2022)");
    println!(" experiment tables — see EXPERIMENTS.md for the paper-vs-measured log");
    println!("════════════════════════════════════════════════════════════════\n");

    if args.wants("e1") {
        println!("{}", exp::e1_figure1(samples));
    }
    if args.wants("e2") {
        println!("{}", exp::e2_team_rc(seeds));
    }
    if args.wants("e3") {
        println!("{}", exp::e3_simultaneous(seeds));
    }
    if args.wants("e4") {
        println!("{}", exp::e4_tn(if fast { 7 } else { 10 }));
    }
    if args.wants("e5") {
        println!("{}", exp::e5_sn(if fast { 6 } else { 9 }));
    }
    if args.wants("e6") {
        println!("{}", exp::e6_universal(seeds));
    }
    if args.wants("e7") {
        println!("{}", exp::e7_stack());
    }
    if args.wants("e8") {
        println!("{}", exp::e8_catalog());
    }
    if args.wants("e9") {
        println!("{}", exp::e9_sets());
    }
    if args.wants("e10") {
        println!("{}", exp::e10_headline(seeds.min(100)));
    }
    let mut e11_rows = Vec::new();
    if args.wants("e11") {
        let (report, rows) = exp::e11_explore_scaling(fast);
        println!("{report}");
        e11_rows = rows;
    }
    let mut e12_rows = Vec::new();
    if args.wants("e12") {
        let (report, rows) = exp::e12_symmetry_reduction(fast);
        println!("{report}");
        e12_rows = rows;
    }
    let mut e13_rows = Vec::new();
    if args.wants("e13") {
        let (report, rows) = exp::e13_full_state_symmetry(fast);
        println!("{report}");
        e13_rows = rows;
    }
    if args.wants("e14") {
        let (report, clean) = exp::e14_catalog_lint();
        println!("{report}");
        if !clean {
            eprintln!("tables: catalog lint failed (see errors above)");
            std::process::exit(1);
        }
    }
    let mut e15_rows = Vec::new();
    if args.wants("e15") {
        let (report, rows) = exp::e15_por_reduction(fast);
        println!("{report}");
        e15_rows = rows;
    }
    let mut e16_rows = Vec::new();
    if args.wants("e16") {
        let (report, rows) = exp::e16_storage_scaling(fast);
        println!("{report}");
        e16_rows = rows;
    }
    let mut e17_rows = Vec::new();
    if args.wants("e17") {
        let (report, rows) = exp::e17_scalarset_symmetry(fast);
        println!("{report}");
        e17_rows = rows;
    }
    let mut e18_rows = Vec::new();
    if args.wants("e18") {
        let (report, rows) = exp::e18_swarm(fast);
        println!("{report}");
        e18_rows = rows;
    }
    if args.snapshot {
        // The CLI guarantees e11, e12, e13, e15, e16, e17 and e18 are
        // all selected. The path is the workspace root, resolved from
        // this crate's manifest so the snapshot lands in the same place
        // regardless of cwd.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_explore.json");
        let json = exp::snapshot_json(
            &e11_rows, &e12_rows, &e13_rows, &e15_rows, &e16_rows, &e17_rows, &e18_rows,
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("tables: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
