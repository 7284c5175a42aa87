//! Trace-driven workload cost profiles.
//!
//! The paper's error model abstracts data-dependent execution times into a
//! ratio distribution; its conclusion (§6) plans to "use traces from real
//! applications" instead. A [`CostProfile`] is exactly that: the per-unit
//! computation costs of a concrete workload (e.g. the pixel-block costs of
//! an image, the sequence lengths of a dictionary), normalized to mean 1.
//!
//! The simulation engine carves the workload into chunks *in dispatch
//! order*; a chunk covering units `[a, b)` takes
//! `predicted · relative_cost(a, b)` to compute (optionally still perturbed
//! by a ratio distribution on top, modelling platform noise over and above
//! the data-dependence). Prefix sums make range queries O(1) with linear
//! interpolation at fractional unit boundaries — the workload is
//! continuously divisible, per the divisible-load model.

/// Per-unit cost profile with O(1) range-cost queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// `prefix[i]` = total normalized cost of units `[0, i)`;
    /// `prefix.len() == units + 1`.
    prefix: Vec<f64>,
}

impl CostProfile {
    /// Build a profile from raw per-unit costs (any positive scale); the
    /// costs are normalized so the mean unit cost is exactly 1, which keeps
    /// the platform's `S` (units/second) calibration meaningful.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty or contains a non-finite or negative
    /// value, or if all costs are zero.
    pub fn from_unit_costs(costs: &[f64]) -> Self {
        assert!(!costs.is_empty(), "profile needs at least one unit");
        let total: f64 = costs
            .iter()
            .map(|&c| {
                assert!(c.is_finite() && c >= 0.0, "invalid unit cost {c}");
                c
            })
            .sum();
        assert!(total > 0.0, "all unit costs are zero");
        let scale = costs.len() as f64 / total;
        let mut prefix = Vec::with_capacity(costs.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &c in costs {
            acc += c * scale;
            prefix.push(acc);
        }
        CostProfile { prefix }
    }

    /// The normalized prefix sums: entry `i` is the total cost of units
    /// `[0, i)`, so the slice has one entry more than the profile's units.
    pub fn prefix_costs(&self) -> &[f64] {
        &self.prefix
    }

    /// Number of workload units covered by the profile.
    pub fn total_units(&self) -> f64 {
        (self.prefix.len() - 1) as f64
    }

    /// Total normalized cost of the continuous unit range `[start, end)`,
    /// linearly interpolating inside units. Ranges beyond the profile's end
    /// are costed at the mean rate (1 per unit).
    pub fn range_cost(&self, start: f64, end: f64) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.cumulative(end) - self.cumulative(start)
    }

    /// Mean cost per unit over `[start, end)` — the factor by which this
    /// range is more (> 1) or less (< 1) expensive than the workload
    /// average.
    pub fn relative_cost(&self, start: f64, end: f64) -> f64 {
        if end <= start {
            return 1.0;
        }
        self.range_cost(start, end) / (end - start)
    }

    /// Interpolated prefix cost of `[0, x)`.
    fn cumulative(&self, x: f64) -> f64 {
        let units = self.total_units();
        if x <= 0.0 {
            return 0.0;
        }
        if x >= units {
            // Extrapolate past the end at the mean rate.
            return self.prefix[self.prefix.len() - 1] + (x - units);
        }
        let i = x.floor() as usize;
        let frac = x - i as f64;
        self.prefix[i] + (self.prefix[i + 1] - self.prefix[i]) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_is_identity() {
        let p = CostProfile::from_unit_costs(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(p.total_units(), 4.0);
        assert!((p.range_cost(0.0, 4.0) - 4.0).abs() < 1e-12);
        assert!((p.relative_cost(1.0, 3.0) - 1.0).abs() < 1e-12);
        assert!((p.relative_cost(0.5, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_to_mean_one() {
        let p = CostProfile::from_unit_costs(&[1.0, 2.0, 3.0]);
        assert!((p.range_cost(0.0, 3.0) - 3.0).abs() < 1e-12);
        // Unit 2 costs 3 of the raw total 6 → normalized 1.5 per unit.
        assert!((p.relative_cost(2.0, 3.0) - 1.5).abs() < 1e-12);
        assert!((p.relative_cost(0.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractional_interpolation() {
        let p = CostProfile::from_unit_costs(&[1.0, 3.0]);
        // Normalized costs: 0.5 and 1.5 per unit.
        assert!((p.range_cost(0.0, 0.5) - 0.25).abs() < 1e-12);
        assert!((p.range_cost(0.5, 1.5) - (0.25 + 0.75)).abs() < 1e-12);
        assert!((p.range_cost(1.5, 2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn extrapolates_past_end_at_mean_rate() {
        let p = CostProfile::from_unit_costs(&[2.0, 2.0]);
        assert!((p.range_cost(1.0, 3.0) - 2.0).abs() < 1e-12);
        assert!((p.relative_cost(2.0, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_ranges() {
        let p = CostProfile::from_unit_costs(&[1.0, 2.0]);
        assert_eq!(p.range_cost(1.0, 1.0), 0.0);
        assert_eq!(p.range_cost(2.0, 1.0), 0.0);
        assert_eq!(p.relative_cost(1.0, 1.0), 1.0);
    }

    #[test]
    fn zero_cost_units_allowed() {
        let p = CostProfile::from_unit_costs(&[0.0, 2.0]);
        assert!((p.range_cost(0.0, 1.0) - 0.0).abs() < 1e-12);
        assert!((p.range_cost(1.0, 2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn rejects_empty() {
        let _ = CostProfile::from_unit_costs(&[]);
    }

    #[test]
    #[should_panic(expected = "invalid unit cost")]
    fn rejects_negative() {
        let _ = CostProfile::from_unit_costs(&[1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "all unit costs are zero")]
    fn rejects_all_zero() {
        let _ = CostProfile::from_unit_costs(&[0.0, 0.0]);
    }
}
