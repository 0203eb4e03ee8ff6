//! Kernel-stage counters in the process-global metric registry.
//!
//! Every [`crate::tm_align_with`] call bumps these, wherever it runs —
//! inside a serve worker, the simulator's farm, or a bench harness — so
//! a Prometheus dump or `rck-report` can show where the kernel spends
//! its work: how many Needleman–Wunsch DP rounds, Kabsch superpositions
//! and TM-score rotation searches one alignment costs on average
//! (the per-stage breakdown behind the paper's Table 2 kernel-runtime
//! numbers).
//!
//! The counters are plain relaxed atomics: one `fetch_add` per *stage*,
//! not per residue, so the kernel's inner loops are untouched.

use rck_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// Handles to the kernel-stage counter family.
#[derive(Debug)]
pub struct StageCounters {
    /// Completed `tm_align` invocations.
    pub alignments: Arc<Counter>,
    /// Initial alignments generated (gapless / secondary-structure / hybrid).
    pub initial_alignments: Arc<Counter>,
    /// Needleman–Wunsch DP rounds (initials + refinement re-alignments).
    pub dp_rounds: Arc<Counter>,
    /// Kabsch superpositions solved.
    pub kabsch_iterations: Arc<Counter>,
    /// TM-score rotation searches (refinement + final scoring).
    pub tmscore_refinements: Arc<Counter>,
    /// Abstract kernel operations (the [`crate::meter::WorkMeter`] total).
    pub ops: Arc<Counter>,
    /// Pairs rejected outright by the sound length-ratio TM bound.
    pub pruned_pairs: Arc<Counter>,
    /// Pairs demoted to the reduced refinement schedule by the
    /// secondary-structure composition screen.
    pub pruned_demotions: Arc<Counter>,
    /// Refinement iterations abandoned by score-bound early termination.
    pub pruned_rounds: Arc<Counter>,
    /// Refinement searches and DP rounds answered from the pair's round
    /// table instead of being executed again.
    pub rounds_reused: Arc<Counter>,
    /// Pinned, with the two below: unregistered and never incremented,
    /// read only by the frozen `tmalign.fast_*` probes under
    /// `benchmark/`. Delete when `benchmark/` is next re-cut.
    pub fastpath_dp_rounds: Arc<Counter>,
    /// See [`StageCounters::fastpath_dp_rounds`].
    pub fastpath_band_widenings: Arc<Counter>,
    /// See [`StageCounters::fastpath_dp_rounds`].
    pub fastpath_fallbacks: Arc<Counter>,
}

static STAGES: OnceLock<StageCounters> = OnceLock::new();

/// The process-wide kernel-stage counters (registered in
/// [`Registry::global`] on first use).
pub fn stage_counters() -> &'static StageCounters {
    STAGES.get_or_init(|| {
        let reg = Registry::global();
        StageCounters {
            alignments: reg.counter(
                "rck_kernel_alignments_total",
                "completed tm_align invocations",
            ),
            initial_alignments: reg.counter(
                "rck_kernel_initial_alignments_total",
                "initial alignments generated (gapless, secondary-structure, hybrid)",
            ),
            dp_rounds: reg.counter(
                "rck_kernel_dp_rounds_total",
                "Needleman-Wunsch DP rounds executed",
            ),
            kabsch_iterations: reg.counter(
                "rck_kernel_kabsch_iterations_total",
                "Kabsch superpositions solved",
            ),
            tmscore_refinements: reg.counter(
                "rck_kernel_tmscore_refinements_total",
                "TM-score rotation searches run",
            ),
            ops: reg.counter(
                "rck_kernel_ops_total",
                "abstract kernel operations (WorkMeter units)",
            ),
            pruned_pairs: reg.counter(
                "rck_kernel_pruned_pairs_total",
                "pairs rejected outright by the length-ratio TM bound",
            ),
            pruned_demotions: reg.counter(
                "rck_kernel_pruned_demotions_total",
                "pairs demoted to the reduced refinement schedule by the SS composition screen",
            ),
            pruned_rounds: reg.counter(
                "rck_kernel_pruned_rounds_total",
                "refinement iterations abandoned by score-bound early termination",
            ),
            rounds_reused: reg.counter(
                "rck_kernel_rounds_reused_total",
                "refinement searches and DP rounds answered from the pair's round table",
            ),
            fastpath_dp_rounds: Arc::default(),
            fastpath_band_widenings: Arc::default(),
            fastpath_fallbacks: Arc::default(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_appear_in_the_global_dump() {
        stage_counters().alignments.add(0);
        let text = Registry::global().render();
        assert!(text.contains("rck_kernel_alignments_total"));
        assert!(text.contains("rck_kernel_dp_rounds_total"));
    }

    #[test]
    fn an_alignment_bumps_every_stage() {
        use rck_pdb::datasets::tiny_profile;
        let before = (
            stage_counters().alignments.get(),
            stage_counters().initial_alignments.get(),
            stage_counters().dp_rounds.get(),
            stage_counters().kabsch_iterations.get(),
            stage_counters().tmscore_refinements.get(),
            stage_counters().ops.get(),
        );
        let chains = tiny_profile().generate(5);
        let r = crate::tm_align(&chains[0], &chains[1]);
        let s = stage_counters();
        assert!(s.alignments.get() > before.0);
        assert!(s.initial_alignments.get() >= before.1 + 3);
        assert!(s.dp_rounds.get() > before.2);
        assert!(s.kabsch_iterations.get() > before.3);
        assert!(s.tmscore_refinements.get() > before.4);
        assert!(s.ops.get() >= before.5 + r.ops);
    }
}
