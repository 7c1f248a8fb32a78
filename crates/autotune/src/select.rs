//! Scan-group selection: the cheapest group whose score (gradient cosine,
//! Appendix A.6, or MSSIM, section 4.4) clears a threshold.

/// Default gradient-similarity acceptance threshold used by the paper
/// ("the gradient similarity is set to be at least 90%").
pub const DEFAULT_COSINE_THRESHOLD: f64 = 0.90;

/// MSSIM above which scan groups "consistently perform well" (section 4.4:
/// "scan groups of 5 or higher have an MSSIM of 95%+").
pub const DEFAULT_MSSIM_THRESHOLD: f64 = 0.95;

/// Picks the *lowest* scan group whose score meets `threshold`; falls back
/// to the highest group when none qualify. `scores` is `(group, score)`
/// with higher scores better (cosine similarity or MSSIM).
pub fn select_lowest_qualifying(scores: &[(usize, f64)], threshold: f64) -> usize {
    let mut sorted: Vec<(usize, f64)> = scores.to_vec();
    sorted.sort_by_key(|&(g, _)| g);
    for &(g, s) in &sorted {
        if s >= threshold {
            return g;
        }
    }
    sorted.last().map(|&(g, _)| g).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_qualifying_picked() {
        let scores = [(1, 0.6), (2, 0.85), (5, 0.93), (10, 1.0)];
        assert_eq!(select_lowest_qualifying(&scores, 0.9), 5);
        assert_eq!(select_lowest_qualifying(&scores, 0.5), 1);
    }

    #[test]
    fn fallback_to_highest_when_none_qualify() {
        let scores = [(1, 0.2), (2, 0.3), (10, 0.8)];
        assert_eq!(select_lowest_qualifying(&scores, 0.99), 10);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let scores = [(10, 1.0), (1, 0.6), (5, 0.95), (2, 0.9)];
        assert_eq!(select_lowest_qualifying(&scores, 0.9), 2);
    }
}
