//! Seeded workload generators.
//!
//! A run is a number of *rounds*; each round starts a fresh engine, warms
//! it up, and pushes a fixed amount of work through it. Job `i` of round
//! `r` is a deterministic function of `(seed, r, i)`, so the engine
//! receives only generated jobs and the same seed always yields the same
//! job list. Parameters that change a job's cost (system size, band
//! count, iteration caps) follow a fixed, seed-independent order; the seed
//! moves only parameters the numerics cost does not depend on (mixing
//! factors, MD velocity seeds), so every round of every run does the same
//! amount of work.

use ndft::serve::{DftJob, ServeConfig};

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One cold solve in flight, every fingerprint of a round distinct.
    ColdSolves,
    /// A deep window of distinct-seed Si_256 MD segments.
    MdFlood,
}

impl Kind {
    /// Parses a workload name as the command line gives it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold_solves" => Some(Kind::ColdSolves),
            "md_flood" => Some(Kind::MdFlood),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdSolves => "cold_solves",
            Kind::MdFlood => "md_flood",
        }
    }

    /// Jobs per second on a quiet 2-core host; sizes rounds so a run
    /// takes about the requested seconds.
    fn nominal_rate(self) -> f64 {
        match self {
            Kind::ColdSolves => 4.5,
            Kind::MdFlood => 7_000.0,
        }
    }
}

/// One `cold_solves` round: a researcher's campaign of cold solves.
#[derive(Debug, Clone, Copy)]
enum Solve {
    /// Si_8 self-consistent SCF, 2 inner iterations, 2 mixing cycles.
    Sc8,
    /// Si_16 self-consistent SCF, 2 inner iterations, 1 mixing cycle.
    Sc16,
    /// Si_8 ground state with this many bands, 2 iterations.
    Gs(usize),
    /// Spectrum: atoms, full Casida.
    Spec(usize, bool),
}

/// The campaign: one job per kind of solve the workload names, namely
/// one seeded self-consistent SCF on Si_8 and one on Si_16, ground states
/// at three band counts, and one TDA and one Casida spectrum per
/// supercell Si_16…Si_48. The Si_8 spectra run in the warm-up: a spectrum
/// job has no free parameter, so a timed copy would be a cache hit. With
/// 15 jobs, the p50 and p90 ranks of the pooled latencies (7.5 and 13.5
/// campaigns' worth) fall inside one job's block of samples, not on the
/// edge between two.
const CAMPAIGN: [Solve; 15] = {
    use Solve::*;
    [
        Spec(16, false),
        Sc8,
        Spec(16, true),
        Gs(4),
        Spec(24, false),
        Sc16,
        Spec(24, true),
        Gs(5),
        Spec(32, false),
        Spec(32, true),
        Gs(6),
        Spec(40, false),
        Spec(40, true),
        Spec(48, false),
        Spec(48, true),
    ]
};

/// Fewest `cold_solves` rounds: the pooled latencies must hold the 100
/// completions a p90 needs.
const COLD_MIN_ROUNDS: usize = 7;

/// Jobs in flight at once for `md_flood`.
const MD_WINDOW: usize = 64;
/// Atoms and steps of one `md_flood` segment.
const MD_ATOMS: usize = 256;
const MD_STEPS: usize = 2;
/// Fresh `md_flood` jobs a traced round submits twice back to back.
const DUPLICATE_PAIRS: usize = 8;

/// Rounds of an `md_flood` run.
const ROUNDS: usize = 16;

/// One seeded workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    seed: u64,
    /// Base of the seeded MD velocity-seed range; distinct jobs get
    /// distinct offsets from it.
    md_base: u64,
    rounds: usize,
    round_jobs: usize,
}

/// SplitMix64: a tiny, well-mixed hash for seeded choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Builds the workload for `seed`, sized to take about `seconds` on a
    /// quiet host.
    pub fn new(kind: Kind, seed: u64, seconds: f64) -> Workload {
        let jobs = (seconds * kind.nominal_rate()).max(1.0);
        let (rounds, round_jobs) = match kind {
            Kind::ColdSolves => (
                ((jobs / CAMPAIGN.len() as f64).ceil() as usize).max(COLD_MIN_ROUNDS),
                CAMPAIGN.len(),
            ),
            Kind::MdFlood => (ROUNDS, (jobs / ROUNDS as f64).ceil() as usize),
        };
        Workload {
            kind,
            seed,
            md_base: mix(seed) >> 8,
            rounds,
            round_jobs,
        }
    }

    /// Rounds in a run.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Jobs submitted per round.
    pub fn round_jobs(&self) -> usize {
        self.round_jobs
    }

    /// Jobs kept in flight by the closed loop.
    pub fn window(&self) -> usize {
        match self.kind {
            Kind::ColdSolves => 1,
            Kind::MdFlood => MD_WINDOW,
        }
    }

    /// Engine configuration: the default engine with two workers (one
    /// for `cold_solves`, which never has a second job to run) and a
    /// queue deep enough that the window is never refused. The
    /// `cold_solves` cache holds every result of a round, so nothing a
    /// round submits is ever evicted.
    pub fn config(&self) -> ServeConfig {
        let base = ServeConfig::default();
        let cache_capacity = match self.kind {
            Kind::ColdSolves => CAMPAIGN.len() + self.warmup().len(),
            Kind::MdFlood => base.cache_capacity,
        };
        ServeConfig {
            workers: self.window().min(2),
            queue_capacity: base.queue_capacity.max(4 * self.window()),
            cache_capacity,
            ..base
        }
    }

    /// The serial warm-up of a round's engine: one job of every kind the
    /// workload submits, none of which a timed round submits again.
    pub fn warmup(&self) -> Vec<DftJob> {
        match self.kind {
            Kind::ColdSolves => vec![
                scf_sc(8, 2, 2, 0.45),
                scf_sc(16, 2, 1, 0.45),
                DftJob::GroundState {
                    atoms: 8,
                    bands: 4,
                    max_iterations: 1,
                },
                DftJob::Spectrum {
                    atoms: 8,
                    full_casida: false,
                },
                DftJob::Spectrum {
                    atoms: 8,
                    full_casida: true,
                },
            ],
            Kind::MdFlood => vec![md(MD_ATOMS, MD_STEPS, self.md_base.wrapping_sub(1))],
        }
    }

    /// Job `i` of round `round`.
    pub fn job(&self, round: usize, i: usize) -> DftJob {
        let n = (round * self.round_jobs + i) as u64;
        match self.kind {
            Kind::ColdSolves => {
                // Mixing factors in narrow bands where the solve's cost
                // does not depend on them; distinct bit patterns keep the
                // fingerprints unique.
                let u = (mix(self.seed ^ mix(n)) >> 11) as f64 / (1u64 << 53) as f64;
                match CAMPAIGN[i] {
                    Solve::Sc8 => scf_sc(8, 2, 2, 0.50 + 0.10 * u),
                    Solve::Sc16 => scf_sc(16, 2, 1, 0.50 + 0.05 * u),
                    Solve::Gs(bands) => DftJob::GroundState {
                        atoms: 8,
                        bands,
                        max_iterations: 2,
                    },
                    Solve::Spec(atoms, full_casida) => DftJob::Spectrum { atoms, full_casida },
                }
            }
            Kind::MdFlood => md(MD_ATOMS, MD_STEPS, self.md_base.wrapping_add(n)),
        }
    }

    /// Fresh jobs that a traced round, after its closed loop, submits
    /// twice each while the first copy is in flight. None for
    /// `cold_solves`, whose fresh jobs are 0.1–0.5 s solves.
    pub fn duplicate_probe(&self, round: usize) -> Vec<DftJob> {
        match self.kind {
            Kind::ColdSolves => Vec::new(),
            Kind::MdFlood => (0..DUPLICATE_PAIRS)
                .map(|k| {
                    let offset = 2 + (round * DUPLICATE_PAIRS + k) as u64;
                    md(MD_ATOMS, MD_STEPS, self.md_base.wrapping_sub(offset))
                })
                .collect(),
        }
    }
}

fn scf_sc(atoms: usize, max_iterations: usize, cycles: usize, alpha: f64) -> DftJob {
    DftJob::ScfSelfConsistent {
        atoms,
        bands: 4,
        max_iterations,
        occupied: 2,
        cycles,
        alpha,
    }
}

fn md(atoms: usize, steps: usize, seed: u64) -> DftJob {
    DftJob::MdSegment {
        atoms,
        steps,
        temperature_k: 300.0,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndft::serve::Fingerprint;
    use std::collections::HashSet;

    const KINDS: [Kind; 2] = [Kind::ColdSolves, Kind::MdFlood];

    /// Every job of a run, capped at 64 Ki per round.
    fn jobs(w: &Workload) -> Vec<DftJob> {
        let per_round = w.round_jobs().min(1 << 16);
        (0..w.rounds())
            .flat_map(|r| (0..per_round).map(move |i| (r, i)))
            .map(|(r, i)| w.job(r, i))
            .collect()
    }

    fn prints(jobs: &[DftJob]) -> Vec<Fingerprint> {
        jobs.iter().map(DftJob::fingerprint).collect()
    }

    #[test]
    fn same_seed_gives_identical_job_list() {
        for kind in KINDS {
            let (a, b) = (Workload::new(kind, 7, 30.0), Workload::new(kind, 7, 30.0));
            assert_eq!(jobs(&a), jobs(&b), "{}", kind.name());
            assert_eq!(a.warmup(), b.warmup());
            assert_eq!(a.duplicate_probe(3), b.duplicate_probe(3));
        }
    }

    #[test]
    fn new_seed_gives_different_fingerprints() {
        for kind in KINDS {
            let a = prints(&jobs(&Workload::new(kind, 1, 30.0)));
            let b = prints(&jobs(&Workload::new(kind, 2, 30.0)));
            let seen: HashSet<_> = a.iter().collect();
            assert!(b.iter().any(|p| !seen.contains(p)), "{}", kind.name());
        }
    }

    #[test]
    fn cold_solves_never_repeats_a_fingerprint_within_an_engine() {
        for seed in [0, 1, 99] {
            let w = Workload::new(Kind::ColdSolves, seed, 30.0);
            assert!(w.rounds() >= COLD_MIN_ROUNDS);
            for r in 0..w.rounds() {
                let mut seen: HashSet<_> = w.warmup().iter().map(DftJob::fingerprint).collect();
                for i in 0..w.round_jobs() {
                    assert!(seen.insert(w.job(r, i).fingerprint()), "round {r} job {i}");
                }
                assert!(seen.len() <= w.config().cache_capacity);
            }
        }
    }

    #[test]
    fn md_flood_never_repeats_a_fingerprint() {
        let w = Workload::new(Kind::MdFlood, 3, 30.0);
        let mut seen: HashSet<_> = w.warmup().iter().map(DftJob::fingerprint).collect();
        let probes = (0..w.rounds()).flat_map(|r| w.duplicate_probe(r));
        for job in jobs(&w).into_iter().chain(probes) {
            assert!(seen.insert(job.fingerprint()), "{job:?} repeats");
        }
    }

    #[test]
    fn rounds_scale_with_the_requested_seconds() {
        for kind in KINDS {
            let (short, long) = (Workload::new(kind, 0, 30.0), Workload::new(kind, 0, 150.0));
            let total = |w: &Workload| w.rounds() * w.round_jobs();
            assert!(total(&long) > 2 * total(&short), "{}", kind.name());
        }
    }

    #[test]
    fn every_job_is_valid() {
        for kind in KINDS {
            let w = Workload::new(kind, 11, 1.0);
            let probe = w.duplicate_probe(0);
            for job in w.warmup().iter().chain(&jobs(&w)).chain(&probe) {
                job.validate().unwrap_or_else(|e| panic!("{job}: {e}"));
            }
        }
    }
}
