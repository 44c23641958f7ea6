//! Tunable parameters of the EMS similarity.

/// Which neighbor direction a similarity run walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Propagate from predecessors (pre-sets) — the *forward similarity* of
    /// Definition 2.
    Forward,
    /// Propagate from successors (post-sets) — the *backward similarity* of
    /// Section 3.6.
    Backward,
}

/// How the forward and backward similarities are combined into the final
/// EMS similarity. The paper prescribes aggregation "e.g., by average"
/// (Section 3.6); the alternatives are exposed for ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// Arithmetic mean of forward and backward (the paper's choice).
    Average,
    /// Elementwise minimum: a pair must look similar from *both* ends.
    Min,
    /// Elementwise maximum: either end suffices.
    Max,
    /// Weighted mean: `w · forward + (1-w) · backward`.
    Weighted(f64),
    /// Forward similarity only (BHV-style single direction).
    ForwardOnly,
    /// Backward similarity only.
    BackwardOnly,
}

impl Aggregation {
    /// Combines one forward/backward value pair.
    pub fn combine(&self, fwd: f64, bwd: f64) -> f64 {
        match *self {
            Aggregation::Average => (fwd + bwd) / 2.0,
            Aggregation::Min => fwd.min(bwd),
            Aggregation::Max => fwd.max(bwd),
            Aggregation::Weighted(w) => w * fwd + (1.0 - w) * bwd,
            Aggregation::ForwardOnly => fwd,
            Aggregation::BackwardOnly => bwd,
        }
    }

    /// Validates parameters (the weight must be a probability).
    pub fn validate(&self) -> Result<(), String> {
        if let Aggregation::Weighted(w) = self {
            if !(0.0..=1.0).contains(w) {
                return Err(format!("aggregation weight must be in [0,1], got {w}"));
            }
        }
        Ok(())
    }
}

/// Which string measure fills the label matrix `S^L` when `alpha < 1`
/// (Section 3.4). Irrelevant at `alpha = 1` — the label term has weight 0
/// and the matrix is all zeros regardless of the measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelMeasure {
    /// Cosine similarity over q-gram multisets — the paper's choice for
    /// the Figure 4 experiments, and the default here.
    #[default]
    QgramCosine,
    /// Strict string equality: `1` iff the names are byte-identical. The
    /// only measure under which the catalog's sketch-level label bound is
    /// sound (name-set overlap caps the label term; see
    /// `ems_depgraph::sketch`).
    ExactName,
}

/// The effective label configuration a parameter set induces — what the
/// persistence layer keys label matrices by. Two parameter sets that map
/// to the same `LabelSpace` produce bit-identical label matrices for any
/// input pair, so they may share cached/persisted matrices; any change
/// that breaks that invariant must add a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSpace {
    /// `alpha = 1`: the matrix is all zeros.
    Structural,
    /// `alpha < 1` with [`LabelMeasure::QgramCosine`].
    QgramCosine,
    /// `alpha < 1` with [`LabelMeasure::ExactName`].
    ExactName,
}

impl LabelSpace {
    /// A stable one-byte tag for persistence keys. `Structural = 0` and
    /// `QgramCosine = 1` deliberately coincide with the former boolean
    /// `labeled` byte, so stores written before the measure knob existed
    /// keep their keys.
    pub fn tag(self) -> u8 {
        match self {
            LabelSpace::Structural => 0,
            LabelSpace::QgramCosine => 1,
            LabelSpace::ExactName => 2,
        }
    }
}

/// Parameters of the EMS similarity function (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct EmsParams {
    /// Weight `α ∈ [0, 1]` of the structural part; `1 - α` weighs the label
    /// similarity. `α = 1` matches on structure alone (opaque names).
    pub alpha: f64,
    /// Similarity decay `c ∈ (0, 1)` across edges — the upper bound of the
    /// edge-compatibility factor `C`. The paper's examples use `c = 0.8`.
    pub c: f64,
    /// Convergence threshold: iteration stops when no pair changes by more
    /// than `epsilon`.
    pub epsilon: f64,
    /// Hard cap on iterations (safety net for cyclic graphs where the
    /// `l(v)`-based bound is infinite).
    pub max_iterations: usize,
    /// Whether early-convergence pruning (Proposition 2) is applied.
    pub pruning: bool,
    /// `Some(I)`: run `I` exact iterations then extrapolate with the
    /// closed-form estimation of Section 3.5 (Algorithm 1). `None`: exact.
    pub estimate_after: Option<usize>,
    /// How forward and backward similarities are aggregated (Section 3.6).
    pub aggregation: Aggregation,
    /// String measure for the label matrix when `alpha < 1` (Section 3.4).
    pub label_measure: LabelMeasure,
    /// Worker threads for the fixpoint iteration: `0` uses all available
    /// parallelism, `1` forces the exact serial path. Results are
    /// bit-identical for every value — the knob trades wall-clock time
    /// only. Overridable per run via `RunOptions::threads`.
    pub threads: usize,
}

impl EmsParams {
    /// Structure-only matching (`α = 1`), the configuration of Figure 3.
    pub fn structural() -> Self {
        EmsParams {
            alpha: 1.0,
            ..Self::default()
        }
    }

    /// Structure combined with typographic similarity at the given weight
    /// `alpha` for structure (Figure 4 uses labels with `α = 0.5`).
    pub fn with_labels(alpha: f64) -> Self {
        EmsParams {
            alpha,
            ..Self::default()
        }
    }

    /// Structure combined with *exact-equality* label similarity — the
    /// configuration the catalog's sketch-level label bound requires.
    pub fn with_exact_labels(alpha: f64) -> Self {
        EmsParams {
            alpha,
            label_measure: LabelMeasure::ExactName,
            ..Self::default()
        }
    }

    /// The label space these parameters match in — the cache/persistence
    /// identity of the label matrices they produce.
    pub fn label_space(&self) -> LabelSpace {
        if self.alpha >= 1.0 {
            LabelSpace::Structural
        } else {
            match self.label_measure {
                LabelMeasure::QgramCosine => LabelSpace::QgramCosine,
                LabelMeasure::ExactName => LabelSpace::ExactName,
            }
        }
    }

    /// Switches on estimation after `i` exact iterations (`EMS+es`).
    pub fn estimated(mut self, i: usize) -> Self {
        self.estimate_after = Some(i);
        self
    }

    /// Disables early-convergence pruning (for the Figure 6 ablation).
    pub fn without_pruning(mut self) -> Self {
        self.pruning = false;
        self
    }

    /// Sets the worker-thread knob (`0` = all available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the parameter ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(format!("c must be in (0,1), got {}", self.c));
        }
        if self.epsilon.is_nan() || self.epsilon <= 0.0 {
            return Err(format!("epsilon must be positive, got {}", self.epsilon));
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        self.aggregation.validate()?;
        Ok(())
    }
}

impl Default for EmsParams {
    fn default() -> Self {
        EmsParams {
            alpha: 1.0,
            c: 0.8,
            epsilon: 1e-4,
            max_iterations: 100,
            pruning: true,
            estimate_after: None,
            aggregation: Aggregation::Average,
            label_measure: LabelMeasure::default(),
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_examples() {
        let p = EmsParams::default();
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.c, 0.8);
        assert!(p.pruning);
        assert!(p.estimate_after.is_none());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let p = EmsParams::with_labels(0.5)
            .estimated(5)
            .without_pruning()
            .with_threads(2);
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.estimate_after, Some(5));
        assert!(!p.pruning);
        assert_eq!(p.threads, 2);
        assert_eq!(EmsParams::default().threads, 0);
    }

    #[test]
    fn aggregation_combines_as_documented() {
        assert_eq!(Aggregation::Average.combine(0.2, 0.6), 0.4);
        assert_eq!(Aggregation::Min.combine(0.2, 0.6), 0.2);
        assert_eq!(Aggregation::Max.combine(0.2, 0.6), 0.6);
        assert!((Aggregation::Weighted(0.75).combine(0.2, 0.6) - 0.3).abs() < 1e-12);
        assert_eq!(Aggregation::ForwardOnly.combine(0.2, 0.6), 0.2);
        assert_eq!(Aggregation::BackwardOnly.combine(0.2, 0.6), 0.6);
        assert!(Aggregation::Weighted(2.0).validate().is_err());
        assert!(Aggregation::Weighted(0.5).validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let base = EmsParams::default();
        for p in [
            EmsParams {
                alpha: 1.5,
                ..base.clone()
            },
            EmsParams {
                c: 1.0,
                ..base.clone()
            },
            EmsParams {
                epsilon: 0.0,
                ..base.clone()
            },
            EmsParams {
                max_iterations: 0,
                ..base
            },
        ] {
            assert!(p.validate().is_err());
        }
    }
}
