//! Action sets for the RL environment.

use posetrl_odg::ActionSpace;
use serde::{Deserialize, Serialize};

/// An indexed set of pass sub-sequences the agent chooses from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionSet {
    /// Display name used in reports ("manual", "ODG", ...).
    pub name: String,
    /// The sub-sequences; action `i` applies `sequences[i]` in order.
    pub sequences: Vec<Vec<String>>,
}

impl ActionSet {
    /// Table II: the 15 manual sub-sequences.
    pub fn manual() -> ActionSet {
        ActionSet::from_space(&ActionSpace::manual())
    }

    /// Table III: the 34 ODG sub-sequences.
    pub fn odg() -> ActionSet {
        ActionSet::from_space(&ActionSpace::odg())
    }

    /// Converts one of the paper's action spaces.
    pub fn from_space(space: &ActionSpace) -> ActionSet {
        ActionSet {
            name: space.kind().name().to_string(),
            sequences: space
                .subsequences()
                .iter()
                .map(|s| s.iter().map(|p| p.to_string()).collect())
                .collect(),
        }
    }

    /// Ablation: each unique Oz pass as its own action (the naive space the
    /// paper argues against in Section IV).
    pub fn single_passes() -> ActionSet {
        let mut seen = std::collections::BTreeSet::new();
        let mut sequences = Vec::new();
        for p in posetrl_opt::pipelines::oz() {
            if seen.insert(p) {
                sequences.push(vec![p.to_string()]);
            }
        }
        ActionSet {
            name: "single-pass".into(),
            sequences,
        }
    }

    /// A custom set (for experiments).
    pub fn custom(name: impl Into<String>, sequences: Vec<Vec<String>>) -> ActionSet {
        ActionSet {
            name: name.into(),
            sequences,
        }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True when the set has no actions.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// The pass names of action `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn passes(&self, i: usize) -> Vec<&str> {
        self.sequences[i].iter().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sets_have_expected_sizes() {
        assert_eq!(ActionSet::manual().len(), 15);
        assert_eq!(ActionSet::odg().len(), 34);
        assert_eq!(ActionSet::single_passes().len(), 54);
    }

    #[test]
    fn all_actions_resolve_in_the_pass_manager() {
        let pm = posetrl_opt::manager::PassManager::new();
        for set in [
            ActionSet::manual(),
            ActionSet::odg(),
            ActionSet::single_passes(),
        ] {
            for i in 0..set.len() {
                for p in set.passes(i) {
                    assert!(pm.has_pass(p), "{}: '{p}'", set.name);
                }
            }
        }
    }

    #[test]
    fn serializes() {
        let set = ActionSet::manual();
        let json = serde_json::to_string(&set).unwrap();
        let back: ActionSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 15);
        assert_eq!(back.name, "manual");
    }
}
