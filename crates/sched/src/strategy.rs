//! Mapping strategies and their tunable parameters (paper, section III).
//!
//! [`MappingStrategy`] is the closed, `Copy` enumeration of the shipped
//! policies — handy for sweeps, tables and serialized experiment specs. It
//! implements the open [`crate::MappingPolicy`] extension point itself (see
//! [`crate::policy`]). Parameter validation lives in `Result`
//! constructors ([`DeltaParams::new`] and friends) returning
//! [`StrategyError`]; the enum's short-hand constructors panic on invalid
//! input for ergonomic literals in examples and tests.

use std::fmt;

/// A rejected strategy parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyError {
    /// `mindelta` magnitude outside `[0, 1]` (or NaN).
    Mindelta(f64),
    /// `maxdelta` negative, infinite or NaN.
    Maxdelta(f64),
    /// `minrho` outside `(0, 1]` (or NaN).
    Minrho(f64),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::Mindelta(v) => {
                write!(f, "mindelta magnitude must be in [0, 1], got {v}")
            }
            StrategyError::Maxdelta(v) => {
                write!(
                    f,
                    "maxdelta must be a finite non-negative fraction, got {v}"
                )
            }
            StrategyError::Minrho(v) => write!(f, "minrho must be in (0, 1], got {v}"),
        }
    }
}

impl std::error::Error for StrategyError {}

/// Parameters of the **delta** strategy: purely structural bounds on how far
/// an allocation may move to adopt a predecessor's processor set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaParams {
    /// Fraction of the original allocation that may be *removed* when
    /// packing (the paper's `mindelta`, given here as a magnitude: `0.5`
    /// means the packed allocation has at least `⌈0.5·Np(t)⌉` processors;
    /// `0` disables packing).
    pub mindelta: f64,
    /// Fraction of the original allocation that may be *added* when
    /// stretching (`maxdelta`; `0` disables stretching beyond equal-size
    /// predecessors).
    pub maxdelta: f64,
}

impl DeltaParams {
    /// Validated constructor; `mindelta` may be given as the paper's
    /// negative value or as a magnitude — the sign is dropped.
    pub fn new(mindelta: f64, maxdelta: f64) -> Result<Self, StrategyError> {
        let mindelta = mindelta.abs();
        if !(0.0..=1.0).contains(&mindelta) {
            return Err(StrategyError::Mindelta(mindelta));
        }
        if !(maxdelta >= 0.0 && maxdelta.is_finite()) {
            return Err(StrategyError::Maxdelta(maxdelta));
        }
        Ok(Self { mindelta, maxdelta })
    }

    /// The paper's naive starting point: `mindelta = maxdelta = 0.5`.
    pub fn naive() -> Self {
        Self {
            mindelta: 0.5,
            maxdelta: 0.5,
        }
    }

    /// Largest allowed stretch in processors for a task currently allocated
    /// `np` processors: `δmax = ⌊maxdelta · np⌋`.
    pub fn delta_max(&self, np: u32) -> u32 {
        (self.maxdelta * f64::from(np)).floor() as u32
    }

    /// Largest allowed shrink in processors: `|δmin| = ⌊mindelta · np⌋`
    /// (the paper writes `δmin` as a negative number; we keep magnitudes).
    pub fn delta_min_magnitude(&self, np: u32) -> u32 {
        let m = (self.mindelta * f64::from(np)).floor() as u32;
        // Packing may never remove *all* processors.
        m.min(np.saturating_sub(1))
    }
}

/// Parameters of the **time-cost** strategy: work-efficiency driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeCostParams {
    /// Minimal acceptable work ratio `ρ = (T(t,n)·n)/(T(t,n')·n') ∈ (0, 1]`
    /// for stretching onto a larger predecessor allocation. The closer to
    /// 1, the stricter the efficiency requirement.
    pub minrho: f64,
    /// Whether packing (shrinking onto a smaller predecessor allocation) is
    /// allowed; a packed mapping is only taken when it does not worsen the
    /// task's estimated finish time.
    pub allow_packing: bool,
}

impl TimeCostParams {
    /// Validated constructor.
    pub fn new(minrho: f64, allow_packing: bool) -> Result<Self, StrategyError> {
        if !(minrho > 0.0 && minrho <= 1.0) {
            return Err(StrategyError::Minrho(minrho));
        }
        Ok(Self {
            minrho,
            allow_packing,
        })
    }

    /// The paper's naive starting point: packing on, `minrho = 0.5`.
    pub fn naive() -> Self {
        Self {
            minrho: 0.5,
            allow_packing: true,
        }
    }
}

/// The secondary, *stable* sort applied to ready tasks of equal bottom-level
/// priority (paper, section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondarySort {
    /// No secondary criterion (plain HCPA).
    None,
    /// Increasing `δ(t) = min(δ⁺, −δ⁻)`: tasks needing the smallest
    /// allocation modification first.
    DeltaAscending,
    /// Decreasing `gain(t) = maxᵢ (T(t, Np(t)) − T(t, Np(predᵢ)))`: tasks
    /// with the most to gain from a parent's allocation first.
    GainDescending,
}

/// How the default (non-adopting) mapping chooses candidate processor
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// Map onto the `k` earliest-available processors only — the CPA/HCPA
    /// list-scheduling placement of the paper's era. Redistribution costs
    /// are *accounted for* in the finish-time estimate, but the placement
    /// does not search for redistribution-avoiding alternatives: that gap
    /// is precisely what RATS closes.
    #[default]
    EarliestK,
    /// Additionally evaluate one candidate derived from each predecessor's
    /// processor set (its prefix, or the set padded with the earliest free
    /// processors) and keep the best estimated finish. A *stronger*
    /// baseline than the paper's HCPA, provided for ablation studies.
    ParentAware,
}

/// Parameters of the **combined** strategy (an extension beyond the paper,
/// in the direction of its future-work "automatic tuning"): candidate
/// predecessors are gated structurally like *delta*, but the adoption is
/// validated with finish-time estimates like *time-cost*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedParams {
    /// Structural bounds (pack/stretch fractions), as in the delta strategy.
    pub delta: DeltaParams,
    /// Minimal acceptable work ratio for stretching, as in time-cost.
    pub minrho: f64,
}

impl CombinedParams {
    /// Validated constructor.
    pub fn new(delta: DeltaParams, minrho: f64) -> Result<Self, StrategyError> {
        if !(minrho > 0.0 && minrho <= 1.0) {
            return Err(StrategyError::Minrho(minrho));
        }
        Ok(Self { delta, minrho })
    }
}

/// Which mapping procedure step two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MappingStrategy {
    /// Baseline list scheduling with untouched allocations (HCPA's mapping,
    /// redistribution costs included in the finish-time estimates).
    Hcpa,
    /// RATS with the delta strategy.
    RatsDelta(DeltaParams),
    /// RATS with the time-cost strategy.
    RatsTimeCost(TimeCostParams),
    /// RATS with the combined strategy (extension; see [`CombinedParams`]).
    RatsCombined(CombinedParams),
}

impl MappingStrategy {
    /// Delta strategy; `mindelta` may be given as the paper's negative value
    /// or as a magnitude — the sign is dropped. See [`Self::try_rats_delta`]
    /// for the non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_delta(mindelta: f64, maxdelta: f64) -> Self {
        Self::try_rats_delta(mindelta, maxdelta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Delta strategy with validated parameters.
    pub fn try_rats_delta(mindelta: f64, maxdelta: f64) -> Result<Self, StrategyError> {
        Ok(Self::RatsDelta(DeltaParams::new(mindelta, maxdelta)?))
    }

    /// Time-cost strategy. See [`Self::try_rats_time_cost`] for the
    /// non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_time_cost(minrho: f64, allow_packing: bool) -> Self {
        Self::try_rats_time_cost(minrho, allow_packing).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Time-cost strategy with validated parameters.
    pub fn try_rats_time_cost(minrho: f64, allow_packing: bool) -> Result<Self, StrategyError> {
        Ok(Self::RatsTimeCost(TimeCostParams::new(
            minrho,
            allow_packing,
        )?))
    }

    /// Combined strategy: delta bounds + time-cost estimate validation
    /// (`mindelta` sign is dropped, as in [`Self::rats_delta`]). See
    /// [`Self::try_rats_combined`] for the non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_combined(mindelta: f64, maxdelta: f64, minrho: f64) -> Self {
        Self::try_rats_combined(mindelta, maxdelta, minrho).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Combined strategy with validated parameters.
    pub fn try_rats_combined(
        mindelta: f64,
        maxdelta: f64,
        minrho: f64,
    ) -> Result<Self, StrategyError> {
        Ok(Self::RatsCombined(CombinedParams::new(
            DeltaParams::new(mindelta, maxdelta)?,
            minrho,
        )?))
    }

    /// The ready-list secondary sort this strategy uses.
    pub fn secondary_sort(&self) -> SecondarySort {
        match self {
            MappingStrategy::Hcpa => SecondarySort::None,
            MappingStrategy::RatsDelta(_) => SecondarySort::DeltaAscending,
            MappingStrategy::RatsTimeCost(_) => SecondarySort::GainDescending,
            MappingStrategy::RatsCombined(_) => SecondarySort::DeltaAscending,
        }
    }

    /// Short display name used by the experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            MappingStrategy::Hcpa => "HCPA",
            MappingStrategy::RatsDelta(_) => "delta",
            MappingStrategy::RatsTimeCost(_) => "time-cost",
            MappingStrategy::RatsCombined(_) => "combined",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_bounds_follow_paper_example() {
        // Np(t) = 6, maxdelta = 0.5 → at most 9 processors, δmax = 3.
        let p = DeltaParams::new(0.5, 0.5).unwrap();
        assert_eq!(p.delta_max(6), 3);
        // mindelta = 0.5 → at least 3 processors, |δmin| = 3.
        assert_eq!(p.delta_min_magnitude(6), 3);
    }

    #[test]
    fn packing_never_empties_an_allocation() {
        let p = DeltaParams::new(1.0, 0.0).unwrap();
        assert_eq!(p.delta_min_magnitude(1), 0);
        assert_eq!(p.delta_min_magnitude(4), 3);
    }

    #[test]
    fn negative_mindelta_is_normalized() {
        let s = MappingStrategy::rats_delta(-0.75, 1.0);
        match s {
            MappingStrategy::RatsDelta(p) => assert_eq!(p.mindelta, 0.75),
            _ => unreachable!(),
        }
    }

    #[test]
    fn constructors_reject_bad_parameters_with_typed_errors() {
        assert_eq!(
            DeltaParams::new(1.5, 0.5),
            Err(StrategyError::Mindelta(1.5))
        );
        assert!(matches!(
            DeltaParams::new(0.5, f64::NAN).unwrap_err(),
            StrategyError::Maxdelta(v) if v.is_nan()
        ));
        assert_eq!(
            TimeCostParams::new(0.0, true),
            Err(StrategyError::Minrho(0.0))
        );
        assert_eq!(
            CombinedParams::new(DeltaParams::naive(), 1.5),
            Err(StrategyError::Minrho(1.5))
        );
        assert!(MappingStrategy::try_rats_delta(0.5, 0.5).is_ok());
        assert!(MappingStrategy::try_rats_time_cost(2.0, true).is_err());
        assert!(MappingStrategy::try_rats_combined(0.5, 1.0, 0.0).is_err());
    }

    #[test]
    fn errors_render_the_offending_parameter() {
        assert!(StrategyError::Minrho(0.0).to_string().contains("minrho"));
        assert!(StrategyError::Mindelta(2.0)
            .to_string()
            .contains("mindelta"));
        assert!(StrategyError::Maxdelta(-1.0)
            .to_string()
            .contains("maxdelta"));
    }

    #[test]
    fn secondary_sorts_match_strategies() {
        assert_eq!(MappingStrategy::Hcpa.secondary_sort(), SecondarySort::None);
        assert_eq!(
            MappingStrategy::rats_delta(0.5, 0.5).secondary_sort(),
            SecondarySort::DeltaAscending
        );
        assert_eq!(
            MappingStrategy::rats_time_cost(0.5, true).secondary_sort(),
            SecondarySort::GainDescending
        );
    }

    #[test]
    fn combined_strategy_construction() {
        let s = MappingStrategy::rats_combined(-0.5, 1.0, 0.4);
        assert_eq!(s.name(), "combined");
        assert_eq!(s.secondary_sort(), SecondarySort::DeltaAscending);
        match s {
            MappingStrategy::RatsCombined(p) => {
                assert_eq!(p.delta.mindelta, 0.5);
                assert_eq!(p.delta.maxdelta, 1.0);
                assert_eq!(p.minrho, 0.4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "minrho")]
    fn combined_rejects_bad_rho() {
        MappingStrategy::rats_combined(0.5, 1.0, 0.0);
    }

    #[test]
    fn names() {
        assert_eq!(MappingStrategy::Hcpa.name(), "HCPA");
        assert_eq!(MappingStrategy::rats_delta(0.5, 0.5).name(), "delta");
        assert_eq!(
            MappingStrategy::rats_time_cost(0.2, false).name(),
            "time-cost"
        );
    }

    #[test]
    #[should_panic(expected = "minrho")]
    fn rejects_zero_rho() {
        MappingStrategy::rats_time_cost(0.0, true);
    }
}
