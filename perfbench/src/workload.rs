//! The benchmark's workloads, built from the repository's public APIs.
//!
//! Each instance splits into *setup* (witness search, system build,
//! footprint analysis where it applies) and *samples* (one exhaustive
//! search, or one swarm sweep), so setup cost never lands in a timed
//! sample.

use crate::trace::traced_system;
use rc_bench::swarm_catalog::{find_system, swarm_catalog, SwarmSystem};
use rc_core::algorithms::{build_masked_team_rc_system_sym, build_team_rc_system};
use rc_core::{check_recording, Assignment, RecordingWitness, Team};
use rc_runtime::swarm::swarm;
use rc_runtime::{
    explore_symmetric_with_stats, explore_with_stats, replay_seed, system_analysis_cached,
    AnalysisBudget, CrashModel, ExploreConfig, ExploreOutcome, ExploreStats, SeedRun, SwarmConfig,
    SwarmReport,
};
use rc_spec::types::Sn;
use rc_spec::{TypeHandle, Value};
use std::sync::Arc;
use std::time::Instant;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 team RC over `S_6`, independent budget 1 with post-decide
    /// crashes, default (unreduced, serial) search.
    ExploreS6B1,
    /// Input-masked team RC over `S_8`, simultaneous budget 1 with
    /// post-decide crashes, rebind symmetry plus POR.
    ExploreMaskedS8Reduced,
    /// Swarm sweep over the catalog's `team-rc-s4` under its default
    /// adversary.
    SwarmTeamRcS4,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ExploreS6B1,
        Workload::ExploreMaskedS8Reduced,
        Workload::SwarmTeamRcS4,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreS6B1 => "explore-s6-b1",
            Workload::ExploreMaskedS8Reduced => "explore-masked-s8-reduced",
            Workload::SwarmTeamRcS4 => "swarm-team-rc-s4",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `S_n` recording witness of the paper's Fig. 6 (one team-A row,
/// `n − 1` team-B rows) and the team inputs (0 for A, 1 for B).
fn sn_witness(n: usize) -> (TypeHandle, RecordingWitness, Vec<Value>) {
    let sn = Sn::new(n);
    let assignment = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let witness = check_recording(&sn, &assignment).expect("S_n is n-recording");
    let inputs = witness
        .assignment
        .teams
        .iter()
        .map(|t| Value::Int(i64::from(*t == Team::B)))
        .collect();
    (Arc::new(sn), witness, inputs)
}

/// An exhaustive-search workload after setup.
pub struct ExploreInstance {
    ty: TypeHandle,
    witness: RecordingWitness,
    inputs: Vec<Value>,
    /// Input-masked system with its symmetry declaration, searched by
    /// `explore_symmetric_with_stats`; otherwise the plain Fig. 2 system
    /// searched by `explore_with_stats`.
    masked: bool,
    /// The search configuration every sample uses.
    pub config: ExploreConfig,
    /// Seconds the setup spent in `system_analysis_cached` (0 when the
    /// search needs no footprint analysis).
    pub analysis_s: f64,
}

impl ExploreInstance {
    /// Setup of Fig. 2 team RC over `S_n` with declared inputs and the
    /// default (unreduced, serial) search.
    pub fn team_rc(n: usize, crash: CrashModel) -> ExploreInstance {
        let (ty, witness, inputs) = sn_witness(n);
        let (_, programs) = build_team_rc_system(ty.clone(), &witness, &inputs);
        assert_eq!(programs.len(), n, "one process per witness row");
        let config = ExploreConfig {
            crash,
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        ExploreInstance {
            ty,
            witness,
            inputs,
            masked: false,
            config,
            analysis_s: 0.0,
        }
    }

    /// Setup of input-masked team RC over `S_n` with rebind symmetry and
    /// POR. Runs the footprint analysis POR consumes into the cache under
    /// `analysis_id`, so samples only look it up.
    pub fn masked_reduced(n: usize, crash: CrashModel, analysis_id: &str) -> ExploreInstance {
        let (ty, witness, inputs) = sn_witness(n);
        let (mem, programs, _) = build_masked_team_rc_system_sym(ty.clone(), &witness, &inputs);
        let start = Instant::now();
        system_analysis_cached(analysis_id, &mem, &programs, AnalysisBudget::default())
            .expect("the masked team-RC system is analyzable");
        let analysis_s = start.elapsed().as_secs_f64();
        let config = ExploreConfig {
            crash,
            inputs: Some(inputs.clone()),
            por: true,
            analysis_id: Some(analysis_id.to_string()),
            ..ExploreConfig::default()
        };
        ExploreInstance {
            ty,
            witness,
            inputs,
            masked: true,
            config,
            analysis_s,
        }
    }

    /// One exhaustive search; with `traced`, every program the factory
    /// returns is wrapped in [`Traced`](crate::trace::Traced).
    pub fn search(&self, traced: bool) -> (ExploreOutcome, ExploreStats) {
        let (ty, witness, inputs) = (&self.ty, &self.witness, &self.inputs[..]);
        if self.masked {
            explore_symmetric_with_stats(
                &|| {
                    let (mem, programs, spec) =
                        build_masked_team_rc_system_sym(ty.clone(), witness, inputs);
                    let (mem, programs) = if traced {
                        traced_system((mem, programs))
                    } else {
                        (mem, programs)
                    };
                    (mem, programs, spec)
                },
                &self.config,
            )
        } else {
            explore_with_stats(
                &|| {
                    let system = build_team_rc_system(ty.clone(), witness, inputs);
                    if traced {
                        traced_system(system)
                    } else {
                        system
                    }
                },
                &self.config,
            )
        }
    }
}

/// A swarm workload after setup: one catalog system and its sweep
/// configuration.
pub struct SwarmInstance {
    system: SwarmSystem,
    /// The sweep configuration (its `threads` is overridden per sweep).
    pub config: SwarmConfig,
}

impl SwarmInstance {
    /// Setup of a catalog system's sweep under its default adversary:
    /// builds the catalog (witness searches included), looks `id` up and
    /// builds the system once.
    pub fn from_catalog(id: &str, seed_start: u64, seeds: u64) -> SwarmInstance {
        let mut catalog = swarm_catalog();
        let at = find_system(&catalog, id).expect("catalog system id");
        let system = catalog.swap_remove(at);
        let (_, programs) = (system.factory())();
        assert_eq!(programs.len(), system.inputs.len(), "one input per process");
        let config = system.config(seed_start, seeds, 0);
        SwarmInstance { system, config }
    }

    /// One sweep over the configured seed range on `threads` workers;
    /// with `traced`, every program is wrapped in
    /// [`Traced`](crate::trace::Traced).
    pub fn sweep(&self, threads: usize, traced: bool) -> SwarmReport {
        let config = SwarmConfig {
            threads,
            ..self.config.clone()
        };
        let factory = self.system.factory();
        if traced {
            swarm(&|| traced_system(factory()), &config)
        } else {
            swarm(factory, &config)
        }
    }

    /// Replays one seed exactly as a sweep runs it.
    pub fn replay(&self, seed: u64) -> SeedRun {
        replay_seed(self.system.factory(), &self.config, seed)
    }
}
