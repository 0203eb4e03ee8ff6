//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks (NumPy's default, "type 7"). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median shorthand.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// min / p25 / p50 / p75 / max of a sample set, for the printed summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// `None` when `samples` is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            min: quantile(samples, 0.0)?,
            p25: quantile(samples, 0.25)?,
            p50: quantile(samples, 0.5)?,
            p75: quantile(samples, 0.75)?,
            max: quantile(samples, 1.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.25, 0.99, 1.0] {
            assert_eq!(quantile(&[7.5], q), Some(7.5));
        }
    }

    #[test]
    fn interpolates_between_ranks_regardless_of_input_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn out_of_range_q_is_clamped() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, -1.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(3.0));
    }

    #[test]
    fn p99_of_a_thousand_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }
}
