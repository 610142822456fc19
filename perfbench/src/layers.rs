//! Serial replay of a workload's jobs through each layer's public
//! functions, timed from outside the program.
//!
//! The replay runs one job per (kind, size) the workload submits, plus
//! the probe-set shapes (Si_8 SCF, Si_16 spectra, Si_64 MD) for kinds the
//! workload never submits, so every layer metric exists on every
//! workload. Kernel rates use the flops and bytes `KernelCost` computes
//! for the shapes the drivers run, not measured traffic.

use crate::host::Roofline;
use crate::trace::{SpanId, Tracer};
use crate::workload::Workload;
use ndft::core::{calib, run_ndft_with, NdftOptions};
use ndft::dft::{
    apply_nonlocal, atom_block_bytes, bond_list, build_pseudos, build_response_hamiltonian,
    model_orbitals, run_casida, run_lr_tddft, run_md, run_scf, run_scf_selfconsistent,
    KsHamiltonian, SiliconSystem,
};
use ndft::numerics::{
    face_splitting, face_splitting_cost_for, gemm_adjoint_c64, gemm_cost_c64, heevd, syevd_cost,
    CMat, Complex64, Fft3Plan, KernelCost,
};
use ndft::serve::{plan_placement, DftJob, PlacementPolicy};
use ndft::shmem::{simulate_block_gather, CommScheme};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Accumulated calls and seconds (and computed work) of one layer call.
#[derive(Default, Clone, Copy)]
struct Acc {
    calls: u64,
    seconds: f64,
    cost: KernelCost,
}

impl Acc {
    fn mean_s(&self) -> f64 {
        self.seconds / self.calls as f64
    }
    fn gflops(&self) -> f64 {
        self.cost.flops as f64 / self.seconds / 1e9
    }
    fn gbps(&self) -> f64 {
        self.cost.bytes_total() as f64 / self.seconds / 1e9
    }
    fn intensity(&self) -> f64 {
        self.cost.arithmetic_intensity()
    }
}

/// The replay's timing accumulators, keyed by layer call.
struct Replay<'a> {
    tracer: &'a mut Tracer,
    acc: BTreeMap<&'static str, Acc>,
}

impl Replay<'_> {
    /// Times `reps` calls of `f` as spans under `parent`, charging each
    /// call `cost` of computed work.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        reps: u32,
        cost: KernelCost,
        mut f: impl FnMut() -> T,
    ) {
        for _ in 0..reps {
            let (out, s) = self.tracer.time(name, parent, job, &mut f);
            black_box(out);
            let a = self.acc.entry(name).or_default();
            a.calls += 1;
            a.seconds += s;
            a.cost += cost;
        }
    }

    fn get(&self, name: &str) -> Acc {
        *self
            .acc
            .get(name)
            .unwrap_or_else(|| panic!("replay never called {name}"))
    }
}

/// The replayed jobs: one per (kind, atoms) among the workload's warm-up
/// and first jobs, then probe-set shapes for kinds still missing.
fn replay_jobs(workload: &Workload) -> Vec<DftJob> {
    let probes = [
        DftJob::GroundState {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
        },
        DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 2,
            occupied: 2,
            cycles: 2,
            alpha: 0.5,
        },
        DftJob::Spectrum {
            atoms: 16,
            full_casida: false,
        },
        DftJob::Spectrum {
            atoms: 16,
            full_casida: true,
        },
        DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k: 300.0,
            seed: 1,
        },
    ];
    let own = (0..workload.round_jobs().min(256)).map(|i| workload.job(0, i));
    let mut jobs: Vec<DftJob> = Vec::new();
    for job in own.chain(workload.warmup()) {
        if !jobs
            .iter()
            .any(|j| j.kind() == job.kind() && j.atoms() == job.atoms())
        {
            jobs.push(job);
        }
    }
    for probe in probes {
        if !jobs.iter().any(|j| j.kind() == probe.kind()) {
            jobs.push(probe);
        }
    }
    jobs
}

/// Deterministic pseudo-random complex matrix of a given shape.
fn cmat(rows: usize, cols: usize) -> CMat {
    CMat::from_fn(rows, cols, |i, j| {
        let x = (i * 31 + j * 17) as f64;
        Complex64::new((x * 0.37).sin(), (x * 0.11).cos())
    })
}

/// Replays `workload`'s jobs through the layers and returns the
/// per-layer metrics (name, value, unit).
pub fn replay(
    workload: &Workload,
    roofline: &Roofline,
    tracer: &mut Tracer,
) -> Vec<(String, f64, &'static str)> {
    let mut r = Replay {
        tracer,
        acc: BTreeMap::new(),
    };
    let none = KernelCost::ZERO;
    for (n, job) in replay_jobs(workload).iter().enumerate() {
        let id = n as u64;
        let root = r.tracer.open("replay", Instant::now(), SpanId::ROOT, id);
        let system = job.system().expect("workload jobs are valid");
        let graph = job.task_graph().expect("workload jobs are valid");
        r.time("sched.plan_placement", root, id, 200, none, || {
            plan_placement(&graph, PlacementPolicy::CostAware)
        });
        r.time("core.run_ndft_with", root, id, 10, none, || {
            run_ndft_with(&graph, NdftOptions::default())
        });
        r.time("shmem.block_gather", root, id, 10, none, || {
            simulate_block_gather(
                calib::system_config(),
                system.atoms(),
                atom_block_bytes(),
                CommScheme::Hierarchical,
            )
        });
        match job {
            DftJob::GroundState { .. } | DftJob::ScfSelfConsistent { .. } => {
                let opts = job.scf_options().expect("SCF job");
                grid_kernels(&mut r, &system, root, id);
                r.time("dft.ks_hamiltonian", root, id, 3, none, || {
                    KsHamiltonian::new(&system, &opts)
                });
                if let DftJob::ScfSelfConsistent {
                    occupied,
                    cycles,
                    alpha,
                    ..
                } = *job
                {
                    r.time("dft.scf_sc", root, id, 1, none, || {
                        run_scf_selfconsistent(&system, &opts, occupied, cycles, alpha)
                    });
                } else {
                    r.time("dft.scf", root, id, 1, none, || run_scf(&system, &opts));
                }
            }
            DftJob::Spectrum { full_casida, .. } => {
                grid_kernels(&mut r, &system, root, id);
                response_kernels(&mut r, &system, root, id);
                if *full_casida {
                    r.time("dft.casida", root, id, 1, none, || run_casida(&system));
                } else {
                    r.time("dft.tda", root, id, 1, none, || run_lr_tddft(&system));
                }
            }
            DftJob::MdSegment { .. } => {
                let opts = job.md_options().expect("MD job");
                r.time("dft.bond_list", root, id, 20, none, || bond_list(&system));
                r.time("dft.md", root, id, 3, none, || run_md(&system, &opts));
            }
            DftJob::BandStructure { .. } => {}
        }
        r.tracer.close(root, Instant::now());
    }

    let us = |a: Acc| a.mean_s() * 1e6;
    let ms = |a: Acc| a.mean_s() * 1e3;
    let fft = r.get("numerics.fft3d");
    let gemm = r.get("numerics.gemm_c64");
    let heev = r.get("numerics.heevd");
    let face = r.get("numerics.face_splitting");
    let roof = |a: Acc| roofline.fraction(a.gflops(), a.intensity());
    vec![
        ("numerics.fft3d_us".into(), us(fft) / 2.0, "us"),
        ("numerics.fft3d_gflops".into(), fft.gflops(), "GFLOP/s"),
        ("numerics.fft3d_roofline_frac".into(), roof(fft), "ratio"),
        ("numerics.gemm_c64_gflops".into(), gemm.gflops(), "GFLOP/s"),
        (
            "numerics.gemm_c64_roofline_frac".into(),
            roof(gemm),
            "ratio",
        ),
        ("numerics.heevd_ms".into(), ms(heev), "ms"),
        ("numerics.heevd_roofline_frac".into(), roof(heev), "ratio"),
        ("numerics.face_splitting_gbps".into(), face.gbps(), "GB/s"),
        (
            "numerics.face_splitting_roofline_frac".into(),
            roof(face),
            "ratio",
        ),
        (
            "dft.ks_hamiltonian_ms".into(),
            ms(r.get("dft.ks_hamiltonian")),
            "ms",
        ),
        (
            "dft.apply_nonlocal_us".into(),
            us(r.get("dft.apply_nonlocal")),
            "us",
        ),
        ("dft.scf_ms".into(), ms(r.get("dft.scf")), "ms"),
        ("dft.scf_sc_ms".into(), ms(r.get("dft.scf_sc")), "ms"),
        ("dft.tda_ms".into(), ms(r.get("dft.tda")), "ms"),
        ("dft.casida_ms".into(), ms(r.get("dft.casida")), "ms"),
        ("dft.md_ms".into(), ms(r.get("dft.md")), "ms"),
        ("dft.bond_list_us".into(), us(r.get("dft.bond_list")), "us"),
        (
            "core.run_ndft_with_us".into(),
            us(r.get("core.run_ndft_with")),
            "us",
        ),
        (
            "shmem.block_gather_us".into(),
            us(r.get("shmem.block_gather")),
            "us",
        ),
        (
            "sched.plan_placement_us".into(),
            us(r.get("sched.plan_placement")),
            "us",
        ),
    ]
}

/// FFT and nonlocal-projector calls on the system's real-space grid.
fn grid_kernels(r: &mut Replay<'_>, system: &SiliconSystem, root: SpanId, id: u64) {
    let grid = system.grid();
    let plan = Fft3Plan::new(grid);
    let mut data = cmat(1, grid.len()).as_slice().to_vec();
    // One call is a forward and an inverse transform.
    r.time("numerics.fft3d", root, id, 10, plan.cost() * 2, || {
        plan.forward(&mut data);
        plan.inverse(&mut data);
    });
    let pseudos = build_pseudos(system, 1.8);
    let dv = system.volume() / grid.len() as f64;
    r.time("dft.apply_nonlocal", root, id, 20, KernelCost::ZERO, || {
        apply_nonlocal(&mut data, &pseudos, dv)
    });
}

/// The response-build kernels at the shapes a spectrum solve runs.
fn response_kernels(r: &mut Replay<'_>, system: &SiliconSystem, root: SpanId, id: u64) {
    let (valence, conduction, eps_v, eps_c) = model_orbitals(system);
    let face_cost = face_splitting_cost_for(&valence, &conduction);
    r.time("numerics.face_splitting", root, id, 5, face_cost, || {
        face_splitting(&valence, &conduction)
    });
    // The coupling matrix K = A†A of the weighted pair amplitudes
    // A (G-sphere × pairs), as the response build forms it.
    let npair = valence.rows() * conduction.rows();
    let ng = system.gsphere_len().min(system.grid().len() - 1);
    let weighted = cmat(ng, npair);
    r.time(
        "numerics.gemm_c64",
        root,
        id,
        5,
        gemm_cost_c64(npair, npair, ng),
        || gemm_adjoint_c64(&weighted, &weighted),
    );
    let h = build_response_hamiltonian(system, &valence, &conduction, &eps_v, &eps_c);
    r.time("numerics.heevd", root, id, 5, syevd_cost(h.rows()), || {
        heevd(&h)
    });
}
