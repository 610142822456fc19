//! Golden placement decisions.
//!
//! Pins the exact bits of every [`PlacementDecision`] the serving planner
//! produces over a fixed grid: Si_{16,64,256,1024} × all five policies ×
//! four cluster loads × fused widths {1, 2, 8}, under both the measured
//! machine and the static code analyzer (under the measured machine the
//! greedy placement equals the DP's everywhere; the analyzer tells them
//! apart on Si_16). A width above 1 plans the fused per-member graph under
//! a [`FusedTimer`], as a worker does for a fused batch. Each
//! (atoms, policy) cell folds its 24 decisions into
//! one FNV-1a digest of the placement, the `f64::to_bits` of every time
//! and the `shifted` flag, so a refactor of the planner that changes any
//! decision, or any reported cost by one ulp, fails here.
//!
//! The machine model is IEEE arithmetic on fixed constants plus `f64::ln`
//! in the roofline interpolation, so the digests are pinned for glibc's
//! `ln`: a libm that rounds `ln` differently moves them with no planner
//! change.

use ndft_dft::{build_task_graph_fused, SiliconSystem, TaskGraph};
use ndft_sched::{FusedTimer, StageTimer, StaticCodeAnalyzer, Target};
use ndft_serve::{
    measured_timer, plan_placement_with, ClusterSnapshot, PlacementDecision, PlacementPolicy,
};

const POLICIES: [PlacementPolicy; 5] = [
    PlacementPolicy::CostAware,
    PlacementPolicy::Greedy,
    PlacementPolicy::Exhaustive,
    PlacementPolicy::CpuPinned,
    PlacementPolicy::NdpPinned,
];

/// Digest per (atoms, policy label).
const GOLDEN: [(usize, &str, u64); 20] = [
    (16, "cost-aware", 0xeb332a09cb263b19),
    (16, "greedy", 0xb2efd1d77a19e984),
    (16, "exhaustive", 0xeb332a09cb263b19),
    (16, "cpu-pinned", 0xbe661656190d4ab1),
    (16, "ndp-pinned", 0xcb24baebf627d629),
    (64, "cost-aware", 0x6c4b7c21026c28c4),
    (64, "greedy", 0x6c4b7c21026c28c4),
    (64, "exhaustive", 0x6c4b7c21026c28c4),
    (64, "cpu-pinned", 0x40c5b72ee5c3f9c6),
    (64, "ndp-pinned", 0x1604a8d08d49b436),
    (256, "cost-aware", 0xfe1dabea0ca3479c),
    (256, "greedy", 0xfe1dabea0ca3479c),
    (256, "exhaustive", 0xfe1dabea0ca3479c),
    (256, "cpu-pinned", 0xec70710a9412e5d1),
    (256, "ndp-pinned", 0x95683c6fdc5d2329),
    (1024, "cost-aware", 0xf0f4b7d82a2158b8),
    (1024, "greedy", 0xf0f4b7d82a2158b8),
    (1024, "exhaustive", 0xf0f4b7d82a2158b8),
    (1024, "cpu-pinned", 0xfccea0e24650bf84),
    (1024, "ndp-pinned", 0x8947622ed29ad92c),
];

/// The one call under test: plan `graph` under `policy` against `timer`
/// with `cluster` reserved.
fn decide(
    graph: &TaskGraph,
    policy: PlacementPolicy,
    timer: &dyn StageTimer,
    cluster: &ClusterSnapshot,
) -> PlacementDecision {
    plan_placement_with(graph, policy, timer, cluster)
}

fn snapshot(cpu_reserved_s: f64, ndp_reserved_s: f64) -> ClusterSnapshot {
    ClusterSnapshot {
        cpu_reserved_s,
        ndp_reserved_s,
        shard_inflight: vec![1],
    }
}

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fold(h: &mut Fnv, d: &PlacementDecision) {
    for t in &d.plan.placement {
        h.write(&[match t {
            Target::Cpu => 0,
            Target::Ndp => 1,
        }]);
    }
    for x in [
        d.plan.compute_time,
        d.plan.sched_overhead,
        d.cpu_pinned_time,
        d.ndp_pinned_time,
        d.cpu_busy,
        d.ndp_busy,
        d.cpu_load_s,
        d.ndp_load_s,
    ] {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.write(&[d.shifted as u8]);
}

#[test]
fn placement_decisions_are_bit_identical_to_golden() {
    let measured = measured_timer();
    let sca = StaticCodeAnalyzer::paper_default();
    let mut actual = Vec::new();
    let mut shifted = 0usize;
    let timers: [&dyn StageTimer; 2] = [&measured, &sca];
    for atoms in [16usize, 64, 256, 1024] {
        let sys = SiliconSystem::new(atoms).unwrap();
        for policy in POLICIES {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for (timer, members) in timers.iter().flat_map(|t| [1usize, 2, 8].map(|m| (*t, m))) {
                let graph = build_task_graph_fused(&sys, 1, members);
                let fused = FusedTimer::new(timer, members);
                let t: &dyn StageTimer = if members > 1 { &fused } else { timer };
                let idle = decide(&graph, policy, t, &ClusterSnapshot::idle());
                // One unit of load is one batch-equivalent of this graph.
                let r = idle.cpu_pinned_time.min(idle.ndp_pinned_time);
                for cluster in [
                    ClusterSnapshot::idle(),
                    snapshot(6.0 * r, 0.0),
                    snapshot(0.0, 6.0 * r),
                    snapshot(1.5 * r, 2.5 * r),
                ] {
                    let d = decide(&graph, policy, t, &cluster);
                    assert_eq!(d.policy, policy);
                    shifted += d.shifted as usize;
                    fold(&mut h, &d);
                }
            }
            actual.push((atoms, policy.label(), h.0));
        }
    }
    assert!(shifted > 0, "the loaded clusters must move some decisions");
    let table: String = actual
        .iter()
        .map(|(a, p, d)| format!("    ({a}, \"{p}\", {d:#018x}),\n"))
        .collect();
    for (got, want) in actual.iter().zip(GOLDEN.iter()) {
        assert_eq!(got, want, "decision digests moved; current table:\n{table}");
    }
}
