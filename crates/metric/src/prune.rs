//! Triangle-inequality pruning: the policy knob and the work counters
//! shared by every solver in the workspace.
//!
//! The paper states every complexity bound in units of `t_dis`; the
//! cheapest distance evaluation is the one never performed. All the
//! pruning in this workspace derives from one fact recorded by the
//! Algorithm-1 net: each point `p` knows `dis(p, c_p)` to its center.
//! For a query `q` whose distance `dis(q, c_p)` to that center is known
//! (an *anchor* evaluation), the triangle inequality sandwiches the
//! pair distance without evaluating it:
//!
//! ```text
//! |dis(q, c_p) − dis(p, c_p)|  ≤  dis(q, p)  ≤  dis(q, c_p) + dis(p, c_p)
//! ```
//!
//! When the lower bound already exceeds the threshold the pair is
//! rejected for free ([`PruneStats::bound_rejects`]); when the upper
//! bound is already inside it the pair is accepted for free
//! ([`PruneStats::bound_accepts`]) — the distance-free counterpart of
//! the paper's dense-ball shortcut. Both decisions agree with what the
//! evaluated predicate would have returned, so cluster labels are
//! **bit-identical** with pruning on or off; only the number of
//! evaluations changes.
//!
//! # Floating-point caveat
//!
//! The soundness argument holds for the metric's *computed* values
//! whenever they satisfy the triangle inequality. Integer-valued
//! metrics (edit distance, Hamming) satisfy it exactly. Floating-point
//! metrics carry rounding of a few ulps, so a pair whose distance lands
//! **within an ulp of the query threshold** could in principle be
//! decided differently by the bound than by the evaluation. No such
//! flip has been observed (the equivalence property tests sweep four
//! solvers × thread counts × metric families), but workloads engineered
//! to place pair distances exactly on thresholds should disable pruning
//! for certainty.

/// Policy knob for the net-anchored triangle-inequality pruning layer.
///
/// Defaults to enabled — pruning never changes results, only the number
/// of distance evaluations. Disable it (e.g. via [`PruningConfig::off`])
/// for ablation runs that want the textbook evaluation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Master switch. When false, every candidate pair is evaluated
    /// exactly as the unpruned pipeline would.
    pub enabled: bool,
    /// Minimum candidate-group size (cover set, fragment, summary row)
    /// for which an anchor distance is worth paying: anchoring a group
    /// of one trades one evaluation for at most one, so tiny groups are
    /// scanned directly. Affects evaluation counts only, never labels.
    pub min_anchor_group: usize,
}

impl PruningConfig {
    /// Pruning disabled: the pipeline evaluates every candidate pair.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            min_anchor_group: 4,
        }
    }
}

/// Counters for the pruning layer, in units of `t_dis` (one distance
/// evaluation each). Cheap to maintain (plain integers, reduced
/// per-worker) and always on when pruning is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate pairs accepted without evaluation: the triangle upper
    /// bound was already within the threshold.
    pub bound_accepts: u64,
    /// Candidate pairs rejected without evaluation: the triangle lower
    /// bound already exceeded the threshold.
    pub bound_rejects: u64,
    /// Step-2 probe points skipped without scanning the host fragment:
    /// the probe's recorded `dis(p, c_p)` anchored against the host
    /// fragment's center-pair lower bound proved no host member can be
    /// within the threshold. Entirely free — both ingredients were already on
    /// record, so no anchor evaluation is charged for these.
    pub probe_rejects: u64,
    /// Anchor distances evaluated to obtain the bounds (the overhead
    /// side of the ledger).
    pub anchor_evals: u64,
}

impl PruneStats {
    /// Net distance evaluations avoided: pairs decided for free (each
    /// skipped probe saves at least one evaluation of its host scan) minus the anchors paid for the bounds
    /// (saturating at zero — a run where anchoring did not pay off
    /// reports 0, not a negative).
    pub fn distance_evals_saved(&self) -> u64 {
        (self.bound_accepts + self.bound_rejects + self.probe_rejects)
            .saturating_sub(self.anchor_evals)
    }

    /// Folds another counter set into this one (per-worker reduction).
    pub fn merge(&mut self, other: &PruneStats) {
        self.bound_accepts += other.bound_accepts;
        self.bound_rejects += other.bound_rejects;
        self.probe_rejects += other.probe_rejects;
        self.anchor_evals += other.anchor_evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_off() {
        let on = PruningConfig::default();
        assert!(on.enabled);
        assert!(on.min_anchor_group >= 1);
        let off = PruningConfig::off();
        assert!(!off.enabled);
        assert_eq!(off.min_anchor_group, on.min_anchor_group);
    }

    #[test]
    fn saved_saturates() {
        let mut s = PruneStats {
            bound_accepts: 3,
            bound_rejects: 4,
            anchor_evals: 10,
            ..PruneStats::default()
        };
        assert_eq!(s.distance_evals_saved(), 0);
        s.merge(&PruneStats {
            bound_accepts: 10,
            bound_rejects: 0,
            probe_rejects: 2,
            anchor_evals: 1,
        });
        assert_eq!(s.bound_accepts, 13);
        assert_eq!(s.anchor_evals, 11);
        assert_eq!(s.probe_rejects, 2);
        assert_eq!(s.distance_evals_saved(), 8);
    }
}
