//! Smooth weighted round-robin selection.
//!
//! Produces a deterministic sequence of indices in which every window of
//! length `W` contains approximately `W * w_i / sum(w)` occurrences of
//! index `i` (within one item). This is the classic "smooth WRR" algorithm
//! (as used by nginx): each step adds every weight to its accumulator and
//! emits the largest accumulator, subtracting the total from it.
//!
//! The workloads use it to interleave object accesses so that miss shares
//! are exact over any measurement window — which is what makes short
//! simulation runs faithful to the paper's long ones.

/// Deterministic smooth weighted round-robin over `weights.len()` indices.
#[derive(Debug, Clone)]
pub struct SmoothWrr {
    weights: Vec<i64>,
    current: Vec<i64>,
    total: i64,
}

impl SmoothWrr {
    /// Build from non-negative integer weights; at least one must be
    /// positive. (Scale fractional weights up, e.g. by 1000.)
    pub fn new(weights: Vec<i64>) -> Self {
        // check:allow(weights come from PatternGen, which normalises constant workload weights)
        assert!(!weights.is_empty(), "need at least one weight");
        // check:allow(weights come from PatternGen, which normalises constant workload weights)
        assert!(
            weights.iter().all(|&w| w >= 0),
            "weights must be non-negative"
        );
        let total: i64 = weights.iter().sum();
        // check:allow(weights come from PatternGen, which normalises constant workload weights)
        assert!(total > 0, "at least one weight must be positive");
        SmoothWrr {
            current: vec![0; weights.len()],
            weights,
            total,
        }
    }

    /// Number of selectable indices.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always false (construction requires a positive weight).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Emit the next index.
    pub fn next_index(&mut self) -> usize {
        let mut best = 0usize;
        let mut best_val = i64::MIN;
        for (i, (c, &w)) in self.current.iter_mut().zip(&self.weights).enumerate() {
            *c += w;
            if *c > best_val {
                best_val = *c;
                best = i;
            }
        }
        self.current[best] -= self.total;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(wrr: &mut SmoothWrr, n: usize) -> Vec<usize> {
        let mut h = vec![0; wrr.len()];
        for _ in 0..n {
            h[wrr.next_index()] += 1;
        }
        h
    }

    #[test]
    fn exact_proportions_over_full_period() {
        let mut w = SmoothWrr::new(vec![5, 3, 2]);
        let h = histogram(&mut w, 10);
        assert_eq!(h, vec![5, 3, 2]);
        // And again for the next period.
        let h = histogram(&mut w, 10);
        assert_eq!(h, vec![5, 3, 2]);
    }

    #[test]
    fn proportions_hold_in_any_window() {
        let mut w = SmoothWrr::new(vec![225, 225, 150, 100, 100, 100, 100]);
        // Windows of 100: each index within +-2 of its expected share.
        for _ in 0..20 {
            let h = histogram(&mut w, 100);
            let expect = [22.5, 22.5, 15.0, 10.0, 10.0, 10.0, 10.0];
            for (i, &count) in h.iter().enumerate() {
                assert!(
                    (count as f64 - expect[i]).abs() <= 2.0,
                    "index {i}: {count} vs {}",
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn smoothness_no_long_runs() {
        let mut w = SmoothWrr::new(vec![1, 1]);
        let seq: Vec<usize> = (0..10).map(|_| w.next_index()).collect();
        // Equal weights alternate.
        for pair in seq.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn zero_weight_index_never_selected() {
        let mut w = SmoothWrr::new(vec![0, 1, 0, 2]);
        let h = histogram(&mut w, 30);
        assert_eq!(h[0], 0);
        assert_eq!(h[2], 0);
        assert_eq!(h[1], 10);
        assert_eq!(h[3], 20);
    }

    #[test]
    fn single_index_degenerate_case() {
        let mut w = SmoothWrr::new(vec![7]);
        assert_eq!(w.next_index(), 0);
        assert_eq!(w.next_index(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_rejected() {
        SmoothWrr::new(vec![0, 0]);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmoothWrr::new(vec![3, 1, 4]);
        let mut b = SmoothWrr::new(vec![3, 1, 4]);
        for _ in 0..100 {
            assert_eq!(a.next_index(), b.next_index());
        }
    }
}
