//! Cost-aware offload planning (§IV-A).
//!
//! Given a chain of kernel stages, per-target time estimates, and the
//! Eq. 1 boundary-cost model, choose a CPU/NDP placement per stage
//! minimizing end-to-end time. There is one entry point, [`plan`], and
//! a [`PlacementPolicy`] picks the algorithm:
//!
//! * [`PlacementPolicy::CostAware`] — dynamic programming, optimal for
//!   chain graphs (which the LR-TDDFT pipeline is). This is NDFT's
//!   planner.
//! * [`PlacementPolicy::Exhaustive`] — brute force over all `2^n`
//!   placements, used to validate the DP. Chains longer than
//!   [`EXHAUSTIVE_MAX_STAGES`] fall back to the DP.
//! * [`PlacementPolicy::Greedy`] — per-stage argmin ignoring boundaries,
//!   the naive baseline an ablation compares against.
//! * [`PlacementPolicy::CpuPinned`] / [`PlacementPolicy::NdpPinned`] —
//!   every stage on one side (the single-target baselines).
//!
//! ## The chain DP
//!
//! The LR-TDDFT pipeline is a *chain*: stage `k` consumes only what
//! stage `k−1` produced, so the only coupling between placement choices
//! is the boundary between adjacent stages. That makes the optimal
//! placement a textbook dynamic program over `(stage, last target)`
//! states: let `dp[k][t]` be the cheapest way to finish stages `0..=k`
//! with stage `k` on target `t`. The transition adds stage `k`'s
//! execution time on `t` plus, when the previous stage sat on the other
//! unit, one Eq. 1 boundary cost for the tensor crossing between them:
//!
//! ```text
//! dp[k][t] = time(k, t) + min over p in {Cpu, Ndp} of
//!            dp[k-1][p] + (p != t ? boundary(bytes[k-1]) : 0)
//! ```
//!
//! Two states per stage, two predecessors per state: `O(n)` time,
//! provably optimal for chains (validated against the exhaustive search
//! in `tests/planner_coverage.rs` up to [`EXHAUSTIVE_MAX_STAGES`]).
//! The back-pointers are traced to recover the placement.
//!
//! ## Timer decorators: load and fusion
//!
//! [`plan`] knows nothing about contention or batching; both are
//! [`StageTimer`] adapters the caller wraps around its timer.
//!
//! * [`LoadBiasedTimer`] dilates per-target stage times by a cross-job
//!   [`TargetLoad`]'s processor-sharing factor
//!   ([`TargetLoad::dilation`]: a target already claimed by `k`
//!   concurrent batch-equivalents runs new work `1 + k` times slower).
//!   A caller *decides* under the biased timer and *reports* the chosen
//!   placement with [`Plan::evaluate`] under the unbiased one, so
//!   reported costs always describe an idle machine and stay comparable
//!   across load levels and against the pinned baselines. The serving
//!   layer's `plan_placement_with` is where that rule lives.
//! * [`FusedTimer`] prices every boundary at its `k`-way fused
//!   per-member share. When a serving layer fuses `k` same-class jobs
//!   into one batch, the coalesced transfer pays one wire latency and
//!   one context switch for all `k` tensors
//!   ([`CostModel::fused_boundary`]); the adapter swaps the cost model
//!   for its amortized view ([`CostModel::amortized`]) and leaves stage
//!   times untouched, so placement can prefer larger NDP spans when
//!   amortization beats the boundary tax. At `k = 1` it is an exact
//!   identity, and the fused optimum's total time is non-increasing in
//!   `k` (boundaries only get cheaper). Unlike the load bias, the
//!   amortization is a real property of the placement and stays in the
//!   reported costs.
//!
//! The two compose: `LoadBiasedTimer::new(&FusedTimer::new(&t, k), load)`.

use crate::cost::{CostModel, TargetLoad};
use crate::sca::{StaticCodeAnalyzer, Target};
use ndft_dft::KernelDescriptor;
use serde::{Deserialize, Serialize};

/// Per-stage time estimates a planner consumes.
pub trait StageTimer {
    /// Execution time of `stage` on `target`, seconds.
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64;
    /// The boundary-cost model (Eq. 1 constants).
    fn cost_model(&self) -> &CostModel;
}

impl StageTimer for StaticCodeAnalyzer {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.estimate_time(stage, target)
    }
    fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

/// A placement decision for every stage, with its predicted cost split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Target per stage, same order as the input.
    pub placement: Vec<Target>,
    /// Σ stage execution times under the placement, seconds.
    pub compute_time: f64,
    /// Σ boundary costs (Eq. 1), seconds.
    pub sched_overhead: f64,
}

impl Plan {
    /// Total predicted time.
    pub fn total_time(&self) -> f64 {
        self.compute_time + self.sched_overhead
    }

    /// Fraction of total time spent on scheduling overhead.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_time() == 0.0 {
            0.0
        } else {
            self.sched_overhead / self.total_time()
        }
    }

    /// Number of CPU↔NDP crossings.
    pub fn crossings(&self) -> usize {
        self.placement.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Prices a given `placement` of `stages` under `timer`: stage times
    /// plus Eq. 1 boundary costs at every crossing.
    pub fn evaluate(
        stages: &[KernelDescriptor],
        placement: Vec<Target>,
        timer: &dyn StageTimer,
    ) -> Plan {
        let (compute_time, sched_overhead) = evaluate(stages, &placement, timer);
        Plan {
            placement,
            compute_time,
            sched_overhead,
        }
    }
}

/// Bytes flowing across the boundary from stage `k` to `k+1`: the tensor
/// stage `k` produced.
pub(crate) fn boundary_bytes(stages: &[KernelDescriptor]) -> Vec<u64> {
    stages
        .windows(2)
        .map(|w| w[0].cost.bytes_written.min(w[1].cost.bytes_read))
        .collect()
}

pub(crate) fn evaluate(
    stages: &[KernelDescriptor],
    placement: &[Target],
    timer: &dyn StageTimer,
) -> (f64, f64) {
    let compute: f64 = stages
        .iter()
        .zip(placement)
        .map(|(s, &t)| timer.stage_time(s, t))
        .sum();
    let bounds = boundary_bytes(stages);
    let crossings: Vec<bool> = placement.windows(2).map(|w| w[0] != w[1]).collect();
    let overhead = timer.cost_model().scheduling_overhead(&bounds, &crossings);
    (compute, overhead)
}

/// [`StageTimer`] adapter that dilates per-target stage times by a
/// [`TargetLoad`]'s processor-sharing factor. This is how [`plan`] sees
/// a contended machine without any change to the DP itself;
/// boundary costs pass through unchanged (the host link is modeled
/// uncontended — transfers are short relative to compute and the link is
/// not the shared resource the load view tracks).
///
/// # Examples
///
/// ```
/// use ndft_sched::{
///     plan, LoadBiasedTimer, PlacementPolicy, Plan, StaticCodeAnalyzer, Target, TargetLoad,
/// };
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
/// let idle = plan(&stages, PlacementPolicy::CostAware, &sca);
/// // Concurrent batches hold 4 batch-equivalents of NDP busy time:
/// // deciding under the bias backs the plan off the NDP side.
/// let load = TargetLoad::new(0.0, 4.0 * idle.total_time(), idle.total_time());
/// let biased = LoadBiasedTimer::new(&sca, load);
/// let decided = plan(&stages, PlacementPolicy::CostAware, &biased);
/// // Report the decision on the idle machine.
/// let loaded = Plan::evaluate(&stages, decided.placement, &sca);
/// let ndp = |p: &Plan| p.placement.iter().filter(|t| **t == Target::Ndp).count();
/// assert!(ndp(&loaded) <= ndp(&idle));
/// assert!(loaded.total_time() >= idle.total_time());
/// ```
pub struct LoadBiasedTimer<'a> {
    inner: &'a dyn StageTimer,
    load: TargetLoad,
}

impl<'a> LoadBiasedTimer<'a> {
    /// Wraps `inner` so every estimate on a target is multiplied by
    /// `load.dilation(target)`.
    pub fn new(inner: &'a dyn StageTimer, load: TargetLoad) -> Self {
        LoadBiasedTimer { inner, load }
    }
}

impl StageTimer for LoadBiasedTimer<'_> {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.inner.stage_time(stage, target) * self.load.dilation(target)
    }
    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }
}

/// [`StageTimer`] adapter pricing boundaries at their `k`-way-fused
/// per-member share: stage times pass through unchanged, the cost model
/// is replaced by [`CostModel::amortized`]`(members)`. See the
/// [module docs](self) on fusion-aware planning.
pub struct FusedTimer<'a> {
    inner: &'a dyn StageTimer,
    amortized: CostModel,
}

impl<'a> FusedTimer<'a> {
    /// Wraps `inner` for a fused batch of `members` jobs (`members` is
    /// clamped to at least 1; at 1 the adapter is an exact identity).
    pub fn new(inner: &'a dyn StageTimer, members: usize) -> Self {
        FusedTimer {
            amortized: inner.cost_model().amortized(members),
            inner,
        }
    }
}

impl StageTimer for FusedTimer<'_> {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.inner.stage_time(stage, target)
    }
    fn cost_model(&self) -> &CostModel {
        &self.amortized
    }
}

/// Which planner [`plan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The NDFT mechanism: the optimal chain DP.
    CostAware,
    /// Per-stage argmin ignoring boundary costs.
    Greedy,
    /// Brute force over all placements; falls back to the chain DP
    /// beyond [`EXHAUSTIVE_MAX_STAGES`].
    Exhaustive,
    /// Everything on the host CPU (baseline).
    CpuPinned,
    /// Everything on the NDP side (baseline).
    NdpPinned,
}

impl PlacementPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::CostAware => "cost-aware",
            PlacementPolicy::Greedy => "greedy",
            PlacementPolicy::Exhaustive => "exhaustive",
            PlacementPolicy::CpuPinned => "cpu-pinned",
            PlacementPolicy::NdpPinned => "ndp-pinned",
        }
    }
}

/// Longest chain [`PlacementPolicy::Exhaustive`] enumerates (`2^24`
/// candidates); longer chains are planned by the chain DP, which is
/// optimal for chains anyway.
pub const EXHAUSTIVE_MAX_STAGES: usize = 24;

/// Places every stage of `stages` under `policy`, with costs reported
/// under `timer`. Wrap `timer` in a [`LoadBiasedTimer`] or a
/// [`FusedTimer`] to plan for a contended machine or a fused batch (see
/// the [module docs](self)).
///
/// # Examples
///
/// ```
/// use ndft_sched::{plan, PlacementPolicy, StaticCodeAnalyzer, Target};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let graph = build_task_graph(&SiliconSystem::large(), 1);
/// let dp = plan(&graph.stages, PlacementPolicy::CostAware, &sca);
/// // Memory-bound majority ⇒ most stages land on the NDP side.
/// let ndp = dp.placement.iter().filter(|t| **t == Target::Ndp).count();
/// assert!(ndp >= dp.placement.len() / 2);
/// ```
pub fn plan(stages: &[KernelDescriptor], policy: PlacementPolicy, timer: &dyn StageTimer) -> Plan {
    if stages.is_empty() {
        return Plan {
            placement: Vec::new(),
            compute_time: 0.0,
            sched_overhead: 0.0,
        };
    }
    match policy {
        PlacementPolicy::CostAware => chain_dp(stages, timer),
        PlacementPolicy::Greedy => greedy(stages, timer),
        PlacementPolicy::Exhaustive if stages.len() <= EXHAUSTIVE_MAX_STAGES => {
            exhaustive_search(stages, timer)
        }
        PlacementPolicy::Exhaustive => chain_dp(stages, timer),
        PlacementPolicy::CpuPinned => {
            Plan::evaluate(stages, vec![Target::Cpu; stages.len()], timer)
        }
        PlacementPolicy::NdpPinned => {
            Plan::evaluate(stages, vec![Target::Ndp; stages.len()], timer)
        }
    }
}

/// The chain DP over (stage, last-target) states; `stages` is nonempty.
fn chain_dp(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Plan {
    let bounds = boundary_bytes(stages);
    let targets = [Target::Cpu, Target::Ndp];
    // dp[t] = (best cost so far ending on target t, predecessor chain)
    let mut cost = [f64::INFINITY; 2];
    let mut back: Vec<[usize; 2]> = Vec::with_capacity(stages.len());
    for (ti, &t) in targets.iter().enumerate() {
        cost[ti] = timer.stage_time(&stages[0], t);
    }
    back.push([0, 1]); // unused sentinel for stage 0
    for (k, stage) in stages.iter().enumerate().skip(1) {
        let mut next = [f64::INFINITY; 2];
        let mut choice = [0usize; 2];
        for (ti, &t) in targets.iter().enumerate() {
            let exec = timer.stage_time(stage, t);
            for (pi, _) in targets.iter().enumerate() {
                let cross = if pi != ti {
                    timer.cost_model().boundary(bounds[k - 1])
                } else {
                    0.0
                };
                let total = cost[pi] + cross + exec;
                if total < next[ti] {
                    next[ti] = total;
                    choice[ti] = pi;
                }
            }
        }
        cost = next;
        back.push(choice);
    }
    // Trace back.
    let mut ti = if cost[0] <= cost[1] { 0 } else { 1 };
    let mut placement = vec![Target::Cpu; stages.len()];
    for k in (0..stages.len()).rev() {
        placement[k] = targets[ti];
        if k > 0 {
            ti = back[k][ti];
        }
    }
    Plan::evaluate(stages, placement, timer)
}

/// Brute-force optimal placement over all `2^n` candidates, `n` in
/// `1..=EXHAUSTIVE_MAX_STAGES`.
fn exhaustive_search(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Plan {
    let n = stages.len();
    let mut best: Option<Plan> = None;
    for mask in 0u32..(1 << n) {
        let placement: Vec<Target> = (0..n)
            .map(|k| {
                if mask >> k & 1 == 1 {
                    Target::Ndp
                } else {
                    Target::Cpu
                }
            })
            .collect();
        let candidate = Plan::evaluate(stages, placement, timer);
        if best
            .as_ref()
            .is_none_or(|b| candidate.total_time() < b.total_time())
        {
            best = Some(candidate);
        }
    }
    best.expect("at least one placement")
}

/// Greedy per-stage placement: each stage goes wherever it runs faster,
/// ignoring boundary costs (the ablation baseline).
fn greedy(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Plan {
    let placement: Vec<Target> = stages
        .iter()
        .map(|s| {
            if timer.stage_time(s, Target::Ndp) < timer.stage_time(s, Target::Cpu) {
                Target::Ndp
            } else {
                Target::Cpu
            }
        })
        .collect();
    Plan::evaluate(stages, placement, timer)
}

#[cfg(test)]
mod tests {
    use super::PlacementPolicy::{CostAware, CpuPinned, Exhaustive, Greedy, NdpPinned};
    use super::*;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn sca() -> StaticCodeAnalyzer {
        StaticCodeAnalyzer::paper_default()
    }

    fn stages(atoms: usize) -> Vec<KernelDescriptor> {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages
    }

    /// The brute-force search itself: a longer chain would be planned by
    /// the DP fallback and turn a DP-vs-exhaustive check into DP-vs-DP.
    fn exhaustive(s: &[KernelDescriptor], t: &dyn StageTimer) -> Plan {
        assert!(s.len() <= EXHAUSTIVE_MAX_STAGES, "{} stages", s.len());
        plan(s, Exhaustive, t)
    }

    #[test]
    fn dp_matches_exhaustive() {
        for atoms in [16usize, 64, 256, 1024] {
            let s = stages(atoms);
            let t = sca();
            let dp = plan(&s, CostAware, &t);
            let ex = exhaustive(&s, &t);
            assert!(
                (dp.total_time() - ex.total_time()).abs() <= 1e-9 * ex.total_time().max(1e-12),
                "Si_{atoms}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }

    #[test]
    fn dp_beats_or_matches_greedy_and_pinned() {
        let s = stages(1024);
        let t = sca();
        let dp = plan(&s, CostAware, &t).total_time();
        for baseline in [Greedy, CpuPinned, NdpPinned] {
            assert!(
                dp <= plan(&s, baseline, &t).total_time() + 1e-12,
                "{baseline:?}"
            );
        }
    }

    #[test]
    fn hybrid_placement_beats_single_target_on_large_system() {
        let s = stages(1024);
        let t = sca();
        let dp = plan(&s, CostAware, &t);
        let cpu_only = plan(&s, CpuPinned, &t);
        assert!(
            dp.total_time() < 0.8 * cpu_only.total_time(),
            "hybrid {} vs CPU-only {}",
            dp.total_time(),
            cpu_only.total_time()
        );
        assert!(dp.crossings() > 0, "plan should actually use both units");
    }

    #[test]
    fn overhead_fraction_is_small() {
        // Paper §VI-A: scheduling overhead is 3.8 % (small) and 4.9 %
        // (large). Our plan-level estimate must stay in single digits.
        for atoms in [64usize, 1024] {
            let s = stages(atoms);
            let p = plan(&s, CostAware, &sca());
            assert!(
                p.overhead_fraction() < 0.12,
                "Si_{atoms} overhead {}",
                p.overhead_fraction()
            );
        }
    }

    #[test]
    fn pinned_plans_have_no_crossings() {
        let s = stages(64);
        let t = sca();
        assert_eq!(plan(&s, CpuPinned, &t).crossings(), 0);
        assert_eq!(plan(&s, NdpPinned, &t).sched_overhead, 0.0);
    }

    #[test]
    fn empty_chain_is_trivial() {
        let t = sca();
        for policy in [CostAware, Greedy, Exhaustive, CpuPinned, NdpPinned] {
            let p = plan(&[], policy, &t);
            assert!(p.placement.is_empty());
            assert_eq!(p.total_time(), 0.0);
        }
    }

    #[test]
    fn exhaustive_falls_back_to_the_dp_beyond_its_guard() {
        let s: Vec<KernelDescriptor> = stages(64)
            .iter()
            .cycle()
            .take(EXHAUSTIVE_MAX_STAGES + 1)
            .cloned()
            .collect();
        let t = sca();
        assert_eq!(plan(&s, Exhaustive, &t), plan(&s, CostAware, &t));
    }

    #[test]
    fn idle_load_reproduces_the_unloaded_plan() {
        let s = stages(256);
        let t = sca();
        for load in [
            TargetLoad::NONE,
            TargetLoad::new(0.0, 0.0, 1.0),
            TargetLoad::new(3.0, 5.0, 0.0), // no reference scale ⇒ inert
        ] {
            let biased = LoadBiasedTimer::new(&t, load);
            for policy in [CostAware, Greedy] {
                assert_eq!(
                    plan(&s, policy, &biased),
                    plan(&s, policy, &t),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn ndp_pressure_pushes_placement_toward_cpu() {
        let s = stages(1024);
        let t = sca();
        let idle = plan(&s, CostAware, &t);
        let scale = idle.total_time();
        let under = |load: TargetLoad| plan(&s, CostAware, &LoadBiasedTimer::new(&t, load));
        let ndp_stages = |p: &Plan| {
            p.placement
                .iter()
                .filter(|target| **target == Target::Ndp)
                .count()
        };
        // Monotone back-off: growing NDP pressure never adds NDP stages.
        let mut last = ndp_stages(&idle);
        for pressure in [1.0, 4.0, 16.0, 256.0] {
            let n = ndp_stages(&under(TargetLoad::new(0.0, pressure * scale, scale)));
            assert!(n <= last, "pressure {pressure}: {n} > {last}");
            last = n;
        }
        // Crushing pressure on one side pins the plan to the other.
        let crushed = under(TargetLoad::new(0.0, 1e6 * scale, scale));
        assert_eq!(ndp_stages(&crushed), 0, "NDP fully evacuated");
        let crushed_cpu = under(TargetLoad::new(1e6 * scale, 0.0, scale));
        assert_eq!(ndp_stages(&crushed_cpu), crushed_cpu.placement.len());
    }

    #[test]
    fn loaded_plan_costs_are_reported_unbiased() {
        // Decide under dilation, report with the raw timer: the reported
        // plan describes the idle machine, so it cannot beat the idle
        // optimum, and the dilated view never looks cheaper than it.
        let s = stages(1024);
        let t = sca();
        let idle = plan(&s, CostAware, &t);
        let scale = idle.total_time();
        let load = TargetLoad::new(0.0, 8.0 * scale, scale);
        let decided = plan(&s, CostAware, &LoadBiasedTimer::new(&t, load));
        let reported = Plan::evaluate(&s, decided.placement.clone(), &t);
        assert_eq!(reported.placement, decided.placement);
        assert!(reported.total_time() >= idle.total_time() - 1e-12 * idle.total_time());
        assert!(decided.total_time() >= reported.total_time());
    }

    #[test]
    fn loaded_exhaustive_matches_loaded_dp_on_chains() {
        let s = stages(64);
        let t = sca();
        let biased = LoadBiasedTimer::new(&t, TargetLoad::new(0.0, 5.0, 1.0));
        let dp = plan(&s, CostAware, &biased).total_time();
        let ex = exhaustive(&s, &biased).total_time();
        assert!(
            (dp - ex).abs() <= 1e-9 * ex.max(1e-12),
            "dp {dp} vs exhaustive {ex}"
        );
    }

    #[test]
    fn load_biased_timer_dilates_stage_times_only() {
        let s = stages(64);
        let t = sca();
        let load = TargetLoad::new(2.0, 6.0, 2.0); // dilations 2× and 4×
        let biased = LoadBiasedTimer::new(&t, load);
        let raw_cpu = t.stage_time(&s[0], Target::Cpu);
        let raw_ndp = t.stage_time(&s[0], Target::Ndp);
        assert!((biased.stage_time(&s[0], Target::Cpu) - 2.0 * raw_cpu).abs() < 1e-12 * raw_cpu);
        assert!((biased.stage_time(&s[0], Target::Ndp) - 4.0 * raw_ndp).abs() < 1e-12 * raw_ndp);
        assert_eq!(biased.cost_model(), t.cost_model());
    }

    #[test]
    fn fused_plan_of_one_is_the_plain_plan() {
        for atoms in [16usize, 256] {
            let s = stages(atoms);
            let t = sca();
            let solo = plan(&s, CostAware, &t);
            assert_eq!(plan(&s, CostAware, &FusedTimer::new(&t, 1)), solo);
            assert_eq!(plan(&s, CostAware, &FusedTimer::new(&t, 0)), solo); // clamped
            let load = TargetLoad::new(0.0, 3.0, 1.0);
            let fused = FusedTimer::new(&t, 1);
            assert_eq!(
                plan(&s, CostAware, &LoadBiasedTimer::new(&fused, load)),
                plan(&s, CostAware, &LoadBiasedTimer::new(&t, load))
            );
        }
    }

    #[test]
    fn fused_total_time_is_nonincreasing_in_members() {
        let s = stages(256);
        let t = sca();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 32] {
            let total = plan(&s, CostAware, &FusedTimer::new(&t, k)).total_time();
            assert!(
                total <= last + 1e-12 * last.abs().max(1e-12),
                "k={k}: {total} > {last}"
            );
            last = total;
        }
    }

    #[test]
    fn fused_dp_matches_fused_exhaustive() {
        let s = stages(64);
        let t = sca();
        for k in [2usize, 8] {
            let fused = FusedTimer::new(&t, k);
            let dp = plan(&s, CostAware, &fused);
            let ex = exhaustive(&s, &fused);
            assert!(
                (dp.total_time() - ex.total_time()).abs() <= 1e-9 * ex.total_time().max(1e-12),
                "k={k}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }

    #[test]
    fn fused_timer_amortizes_boundaries_not_stage_times() {
        let s = stages(64);
        let t = sca();
        let fused = FusedTimer::new(&t, 8);
        assert_eq!(
            fused.stage_time(&s[0], Target::Ndp),
            t.stage_time(&s[0], Target::Ndp)
        );
        assert!(fused.cost_model().boundary(4096) < t.cost_model().boundary(4096));
        assert_eq!(
            fused.cost_model().transfer_bandwidth,
            t.cost_model().transfer_bandwidth
        );
    }

    #[test]
    fn heavy_fusion_never_adds_crossing_cost_per_member() {
        // With boundaries nearly free, the fused plan's per-member overhead
        // must shrink toward zero while compute stays optimal.
        let s = stages(1024);
        let t = sca();
        let solo = plan(&s, CostAware, &t);
        let fused = plan(&s, CostAware, &FusedTimer::new(&t, 1024));
        assert!(fused.sched_overhead <= solo.sched_overhead + 1e-15);
        assert!(fused.total_time() <= solo.total_time() + 1e-15);
    }

    #[test]
    fn greedy_ignores_boundaries_dp_does_not() {
        let s = stages(64);
        let t = sca();
        let greedy = plan(&s, Greedy, &t);
        let dp = plan(&s, CostAware, &t);
        // Greedy may cross more often than the DP.
        assert!(dp.crossings() <= greedy.crossings() + 1);
    }
}
