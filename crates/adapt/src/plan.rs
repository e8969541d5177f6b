//! Profiling pass and policy engine: run once at the finest configuration,
//! aggregate per-region sharing statistics, and pin a protocol ×
//! granularity combination per region.

use std::sync::Arc;

use dsm_core::runner::planned_regions;
use dsm_core::{run_parallel, Program, Protocol, RegionPolicy, RunConfig, GRANULARITIES};
use dsm_json::Value;
use dsm_obs::SharingProfile;

use crate::model::{predict_region_ns, summarize_region, RegionProfile};

/// Alignment at which the policy engine carves regions — the coarsest
/// candidate granularity, matching the runner's own mixed-mode carving.
pub const PLAN_ALIGN: usize = 4096;

/// Output of the profiling pass.
#[derive(Debug)]
pub struct ProfileData {
    /// Exact per-64-byte-unit sharing profile of the run.
    pub profile: SharingProfile,
    /// The region spans the mixed-mode run will use: `(name, start, len)`.
    pub spans: Vec<(String, usize, usize)>,
    /// Virtual parallel time of the profiling run itself, ns.
    pub profile_run_ns: u64,
}

/// Run `program` once at the profiling configuration (SC @ 64 bytes — the
/// finest-grain, strongest-consistency combination, which exposes sharing
/// at unit resolution) and collect the sharing profile.
pub fn profile_run(program: &Program) -> ProfileData {
    let cfg = RunConfig::new(Protocol::Sc, 64).with_profile();
    let out = run_parallel(&cfg, Arc::clone(program));
    ProfileData {
        profile: out
            .profile
            .expect("profiling run must produce a sharing profile"),
        spans: planned_regions(program.as_ref(), PLAN_ALIGN),
        profile_run_ns: out.stats.parallel_time_ns,
    }
}

/// The policy engine's verdict for one region.
#[derive(Debug, Clone)]
pub struct RegionDecision {
    /// Chosen protocol.
    pub protocol: Protocol,
    /// Chosen granularity in bytes.
    pub block: usize,
    /// Predicted coherence cost of the chosen combination, ns.
    pub predicted_ns: f64,
    /// Predicted cost of every candidate, indexed `[protocol][block]` in
    /// [`Protocol::ALL`] × [`GRANULARITIES`] order.
    pub candidates_ns: Vec<Vec<f64>>,
    /// Aggregated sharing statistics the decision was based on.
    pub profile: RegionProfile,
}

impl RegionDecision {
    /// JSON object for the diagnostic stream.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("region", self.profile.name.as_str());
        v.set("start", self.profile.start);
        v.set("len", self.profile.len);
        v.set("protocol", self.protocol.name());
        v.set("block", self.block);
        v.set("predicted_ns", self.predicted_ns);
        v.set("touched_units", self.profile.touched_units);
        v.set("multi_writer_units", self.profile.multi_writer_units);
        v.set("read_faults", self.profile.read_faults);
        v.set("write_faults", self.profile.write_faults);
        v.set("writer_nodes", self.profile.writer_nodes);
        v.set("reader_nodes", self.profile.reader_nodes);
        v
    }
}

/// A pinned per-region plan, plus the uniform fallback it was judged
/// against.
#[derive(Debug)]
pub struct AdaptPlan {
    /// One decision per region span, in address order.
    pub decisions: Vec<RegionDecision>,
    /// Best *uniform* combination (also the run's default policy).
    pub uniform: (Protocol, usize),
    /// Predicted total cost of the best uniform combination, ns.
    pub uniform_ns: f64,
    /// Predicted total cost of the per-region plan, ns.
    pub per_region_ns: f64,
    /// Whether the plan actually mixes policies (false = the engine kept
    /// the uniform combination everywhere).
    pub mixed: bool,
}

impl AdaptPlan {
    /// The plan as runner policies (one per region).
    pub fn policies(&self) -> Vec<RegionPolicy> {
        self.decisions
            .iter()
            .map(|d| RegionPolicy::new(&d.profile.name, d.protocol, d.block))
            .collect()
    }
}

/// Keep the per-region plan only when it predicts at least this much
/// improvement over the best uniform combination; otherwise fall back to
/// uniform. Mixed-mode interactions (shared sync intervals, LRC release
/// work on every lock) are not individually modeled, so small predicted
/// wins are noise.
const MIX_HYSTERESIS: f64 = 0.6;

/// Choose a protocol × granularity combination for every region of
/// `program` from its sharing profile.
pub fn choose_policies(program: &Program, data: &ProfileData, cfg: &RunConfig) -> AdaptPlan {
    // Programs whose relaxed-consistency variant needs extra synchronization
    // (the paper's Barnes: per-cell locking on every tree descent) declare
    // it; the engine prices that as prohibitive and stays with SC.
    let protocols: &[Protocol] = if program.uses_lrc_extra_sync() {
        &[Protocol::Sc]
    } else {
        &Protocol::ALL
    };

    // Score every region under every candidate.
    let mut decisions: Vec<RegionDecision> = Vec::new();
    for (name, start, len) in &data.spans {
        let candidates: Vec<Vec<f64>> = Protocol::ALL
            .iter()
            .map(|&p| {
                GRANULARITIES
                    .iter()
                    .map(|&g| {
                        if protocols.contains(&p) {
                            predict_region_ns(
                                &data.profile,
                                *start,
                                *len,
                                p,
                                g,
                                cfg.nodes,
                                &cfg.cost,
                            )
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        let (mut best, mut best_ns) = ((Protocol::Sc, GRANULARITIES[0]), f64::INFINITY);
        for (pi, p) in Protocol::ALL.iter().enumerate() {
            for (gi, g) in GRANULARITIES.iter().enumerate() {
                if candidates[pi][gi] < best_ns {
                    best_ns = candidates[pi][gi];
                    best = (*p, *g);
                }
            }
        }
        decisions.push(RegionDecision {
            protocol: best.0,
            block: best.1,
            predicted_ns: best_ns,
            candidates_ns: candidates,
            profile: summarize_region(&data.profile, name, *start, *len),
        });
    }

    // Best uniform combination: the same candidate summed over all regions.
    let (mut uniform, mut uniform_ns) = ((Protocol::Sc, GRANULARITIES[0]), f64::INFINITY);
    for (pi, p) in Protocol::ALL.iter().enumerate() {
        for (gi, g) in GRANULARITIES.iter().enumerate() {
            let total: f64 = decisions.iter().map(|d| d.candidates_ns[pi][gi]).sum();
            if total < uniform_ns {
                uniform_ns = total;
                uniform = (*p, *g);
            }
        }
    }

    let per_region_ns: f64 = decisions.iter().map(|d| d.predicted_ns).sum();
    let mixed = per_region_ns < MIX_HYSTERESIS * uniform_ns
        && decisions.iter().any(|d| (d.protocol, d.block) != uniform);
    if !mixed {
        // Pin the uniform winner everywhere (regions still carry their own
        // policy entries so reporting stays per-region).
        let (pi, gi) = (
            Protocol::ALL.iter().position(|&p| p == uniform.0).unwrap(),
            GRANULARITIES.iter().position(|&g| g == uniform.1).unwrap(),
        );
        for d in &mut decisions {
            d.protocol = uniform.0;
            d.block = uniform.1;
            d.predicted_ns = d.candidates_ns[pi][gi];
        }
    }
    AdaptPlan {
        decisions,
        uniform,
        uniform_ns,
        per_region_ns,
        mixed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_apps::registry::{app_sized, AppSize};

    #[test]
    fn plan_covers_every_region_and_respects_lrc_restriction() {
        let program = app_sized("barnes-original", AppSize::Small).unwrap();
        let data = profile_run(&program);
        let cfg = RunConfig::new(Protocol::Sc, 64);
        let plan = choose_policies(&program, &data, &cfg);
        assert_eq!(plan.decisions.len(), data.spans.len());
        for d in &plan.decisions {
            // Barnes-Original declares extra LRC synchronization: SC only.
            assert_eq!(d.protocol, Protocol::Sc);
            assert!(GRANULARITIES.contains(&d.block));
            assert!(d.predicted_ns.is_finite() && d.predicted_ns > 0.0);
        }
        // The free per-region choice can only improve on any uniform pick.
        assert!(plan.per_region_ns <= plan.uniform_ns + 1e-6);
        assert!(data.profile_run_ns > 0 && data.profile.num_units() > 0);
    }

    #[test]
    fn uniform_fallback_pins_the_uniform_winner_everywhere() {
        let program = app_sized("fft", AppSize::Small).unwrap();
        let data = profile_run(&program);
        let cfg = RunConfig::new(Protocol::Sc, 64);
        let plan = choose_policies(&program, &data, &cfg);
        if !plan.mixed {
            for d in &plan.decisions {
                assert_eq!((d.protocol, d.block), plan.uniform);
            }
        }
        let policies = plan.policies();
        assert_eq!(policies.len(), data.spans.len());
        for (pol, (name, _, _)) in policies.iter().zip(&data.spans) {
            assert_eq!(&pol.name, name);
        }
    }
}
