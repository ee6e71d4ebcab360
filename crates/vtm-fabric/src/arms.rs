//! Named policy arms with hash-stable percentage assignment.
//!
//! An A/B experiment splits sessions between two or more named policy
//! arms. The assignment must be *sticky*: a session must see the same arm
//! on every request, across restarts, with no assignment table to persist.
//! The fabric therefore derives the arm from the session id alone:
//! `splitmix64(session ^ ARM_SALT) % 100` picks a percentage bucket, and
//! the arm owning that bucket (arms own contiguous bucket ranges in
//! declaration order) serves the session. The salt decorrelates arm
//! assignment from shard routing, so every arm sees an unbiased slice of
//! every shard's sessions.

use std::fmt;

use vtm_core::routing::splitmix64;

/// Salt folded into the session id before arm hashing so arm assignment is
/// statistically independent of `session_shard` routing.
const ARM_SALT: u64 = 0xA1B2_5EED_0FAB_41C5;

/// One named policy arm and its share of sessions, in percent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmSpec {
    /// The arm's name (unique within a fabric, e.g. `"control"`).
    pub name: String,
    /// Percentage of sessions routed to this arm; a fabric's arm
    /// percentages must sum to exactly 100.
    pub percent: u32,
}

impl ArmSpec {
    /// A named arm owning `percent` percent of sessions.
    pub fn new(name: impl Into<String>, percent: u32) -> Self {
        Self {
            name: name.into(),
            percent,
        }
    }
}

/// Why an arm specification was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmSpecError {
    /// No arms were given.
    Empty,
    /// An arm name is empty, repeated, or has a character outside ASCII
    /// letters, digits, `-` and `_`.
    BadName(String),
    /// The percentages do not sum to 100 (carries their true sum, which
    /// may exceed `u32::MAX`).
    BadSplit(u64),
    /// A `name=percent` token failed to parse.
    BadToken(String),
}

impl fmt::Display for ArmSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmSpecError::Empty => write!(f, "at least one arm is required"),
            ArmSpecError::BadName(name) => {
                write!(
                    f,
                    "arm names must be unique, non-empty and use only ASCII letters, \
                     digits, '-' and '_' (got {name:?})"
                )
            }
            ArmSpecError::BadSplit(sum) => {
                write!(f, "arm percentages must sum to 100 (got {sum})")
            }
            ArmSpecError::BadToken(token) => {
                write!(f, "expected name=percent, got {token:?}")
            }
        }
    }
}

impl std::error::Error for ArmSpecError {}

/// Parses a CLI-style arm list `"a=90,b=10"` into specs (declaration order
/// preserved — it determines bucket ownership).
///
/// # Errors
///
/// [`ArmSpecError::BadToken`] for malformed tokens; the split itself is
/// validated later by [`ArmTable::new`].
pub fn parse_arms(spec: &str) -> Result<Vec<ArmSpec>, ArmSpecError> {
    spec.split(',')
        .map(|token| {
            let token = token.trim();
            let (name, percent) = token
                .split_once('=')
                .ok_or_else(|| ArmSpecError::BadToken(token.to_string()))?;
            let percent: u32 = percent
                .trim()
                .parse()
                .map_err(|_| ArmSpecError::BadToken(token.to_string()))?;
            Ok(ArmSpec::new(name.trim(), percent))
        })
        .collect()
}

/// A validated arm list with the pure session→arm assignment function.
#[derive(Debug, Clone)]
pub struct ArmTable {
    arms: Vec<ArmSpec>,
    /// `cumulative[i]` = first bucket *not* owned by arm `i`; arm `i` owns
    /// buckets `cumulative[i-1]..cumulative[i]` of `0..100`.
    cumulative: Vec<u32>,
}

impl ArmTable {
    /// Validates the specs: non-empty, unique non-empty names made of
    /// ASCII letters, digits, `-` and `_`, percentages summing to exactly
    /// 100. Names reach JSON reports and journal file names verbatim, so
    /// this check is what keeps both well formed.
    ///
    /// # Errors
    ///
    /// A typed [`ArmSpecError`] naming the violated rule.
    pub fn new(arms: Vec<ArmSpec>) -> Result<Self, ArmSpecError> {
        if arms.is_empty() {
            return Err(ArmSpecError::Empty);
        }
        for (i, arm) in arms.iter().enumerate() {
            let well_formed = !arm.name.is_empty()
                && arm
                    .name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if !well_formed || arms[..i].iter().any(|a| a.name == arm.name) {
                return Err(ArmSpecError::BadName(arm.name.clone()));
            }
        }
        let sum: u64 = arms.iter().map(|a| u64::from(a.percent)).sum();
        if sum != 100 {
            return Err(ArmSpecError::BadSplit(sum));
        }
        let mut cumulative = Vec::with_capacity(arms.len());
        let mut acc = 0;
        for arm in &arms {
            acc += arm.percent;
            cumulative.push(acc);
        }
        Ok(Self { arms, cumulative })
    }

    /// The validated specs, in declaration order.
    pub fn arms(&self) -> &[ArmSpec] {
        &self.arms
    }

    /// Number of arms.
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// Whether the table is empty (never true for a validated table).
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The index of the arm serving `session` — a pure function of
    /// `(session, ordered percentages)`: sticky across requests, threads
    /// and restarts, and unchanged by promotions (which replace an arm's
    /// policy, not the split).
    pub fn arm_of(&self, session: u64) -> usize {
        let bucket = (splitmix64(session ^ ARM_SALT) % 100) as u32;
        self.cumulative
            .iter()
            .position(|&end| bucket < end)
            .unwrap_or(self.arms.len() - 1)
    }

    /// Looks an arm index up by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.arms.iter().position(|a| a.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_lists_and_rejects_garbage() {
        assert_eq!(
            parse_arms("a=90, b=10").unwrap(),
            vec![ArmSpec::new("a", 90), ArmSpec::new("b", 10)]
        );
        assert!(matches!(parse_arms("a="), Err(ArmSpecError::BadToken(_))));
        assert!(matches!(parse_arms("a"), Err(ArmSpecError::BadToken(_))));
        assert!(matches!(parse_arms("a=x"), Err(ArmSpecError::BadToken(_))));
    }

    #[test]
    fn table_validates_names_and_split() {
        assert!(matches!(ArmTable::new(vec![]), Err(ArmSpecError::Empty)));
        assert!(matches!(
            ArmTable::new(vec![ArmSpec::new("a", 50), ArmSpec::new("a", 50)]),
            Err(ArmSpecError::BadName(_))
        ));
        for name in ["", "x\"y", "a/b", "a.b", "a b", "caf\u{e9}"] {
            assert_eq!(
                ArmTable::new(vec![ArmSpec::new(name, 100)]).unwrap_err(),
                ArmSpecError::BadName(name.to_string())
            );
        }
        assert!(ArmTable::new(vec![ArmSpec::new("A-1_z", 100)]).is_ok());
        assert!(matches!(
            ArmTable::new(vec![ArmSpec::new("a", 50), ArmSpec::new("b", 49)]),
            Err(ArmSpecError::BadSplit(99))
        ));
        // Sums past u32::MAX are rejected with their true value, not
        // wrapped (to 100 or 0).
        for (spec, sum) in [
            ("a=4294967196,b=200", 4_294_967_396),
            ("a=4294967295,b=1", 4_294_967_296),
        ] {
            assert_eq!(
                ArmTable::new(parse_arms(spec).unwrap()).unwrap_err(),
                ArmSpecError::BadSplit(sum),
                "{spec}"
            );
        }
        let table = ArmTable::new(vec![ArmSpec::new("a", 100)]).unwrap();
        for session in 0..256 {
            assert_eq!(table.arm_of(session), 0);
        }
    }

    /// Arm assignment is decorrelated from shard routing: within each
    /// shard of a 2-shard fabric, the 50/50 arm split still holds.
    #[test]
    fn assignment_is_independent_of_shard_routing() {
        let table = ArmTable::new(vec![ArmSpec::new("a", 50), ArmSpec::new("b", 50)]).unwrap();
        let mut per_shard = [[0u32; 2]; 2];
        for session in 0..10_000u64 {
            let shard = vtm_core::routing::session_shard(session, 2);
            per_shard[shard][table.arm_of(session)] += 1;
        }
        for (shard, counts) in per_shard.iter().enumerate() {
            let total = counts[0] + counts[1];
            let frac = f64::from(counts[0]) / f64::from(total);
            assert!(
                (0.45..=0.55).contains(&frac),
                "shard {shard}: arm-a fraction {frac:.3} not ~0.5 ({counts:?})"
            );
        }
    }
}
