//! Process-local core detection for the load generators and the `--ignored`
//! multi-core acceptance tests. The sample math (medians, percentiles) lives
//! in `vtm-obs`.

/// Logical cores available to this process (1 when detection fails) — the
/// gate every multi-core acceptance test keys its ≥ 4-core requirement on.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_detects_at_least_one() {
        assert!(available_cores() >= 1);
    }
}
