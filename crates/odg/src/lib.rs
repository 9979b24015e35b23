//! The Oz Dependence Graph (ODG) and the POSET-RL action spaces.
//!
//! The paper defines two ways to build the RL action space out of LLVM's
//! `-Oz` pass sequence:
//!
//! 1. **Manual grouping** (Table II): 15 sub-sequences grouped by pass
//!    functionality — [`manual::MANUAL_SUBSEQUENCES`].
//! 2. **ODG walks** (Table III): build a directed graph whose nodes are the
//!    Oz passes with an edge for every consecutive pair, pick *critical
//!    nodes* of degree ≥ 8, and collect the walks between critical nodes —
//!    [`graph::OzDependenceGraph`] and [`walks::derive_subsequences`]. The
//!    paper's resulting 34 sub-sequences are kept verbatim in
//!    [`walks::ODG_SUBSEQUENCES`].
//!
//! [`ActionSpace`] packages either set for the RL environment.
//!
//! # Example
//!
//! ```
//! use posetrl_odg::{graph::OzDependenceGraph, ActionSpace};
//!
//! let g = OzDependenceGraph::from_oz();
//! let critical = g.critical_nodes(8);
//! assert!(critical.iter().any(|(n, _)| *n == "simplifycfg"));
//!
//! let space = ActionSpace::odg();
//! assert_eq!(space.len(), 34);
//! ```

pub mod graph;
pub mod manual;
pub mod walks;

use serde::{Deserialize, Serialize};

/// Which action space a model was trained with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionSpaceKind {
    /// Table II: 15 manually grouped sub-sequences.
    Manual,
    /// Table III: 34 ODG-derived sub-sequences.
    Odg,
}

impl ActionSpaceKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ActionSpaceKind::Manual => "manual",
            ActionSpaceKind::Odg => "ODG",
        }
    }
}

/// An RL action space: an indexed set of pass sub-sequences.
#[derive(Debug, Clone, Serialize)]
pub struct ActionSpace {
    kind: ActionSpaceKind,
    subsequences: Vec<Vec<&'static str>>,
}

impl ActionSpace {
    /// The manual (Table II) action space.
    pub fn manual() -> ActionSpace {
        ActionSpace {
            kind: ActionSpaceKind::Manual,
            subsequences: manual::MANUAL_SUBSEQUENCES
                .iter()
                .map(|s| s.to_vec())
                .collect(),
        }
    }

    /// The ODG (Table III) action space.
    pub fn odg() -> ActionSpace {
        ActionSpace {
            kind: ActionSpaceKind::Odg,
            subsequences: walks::ODG_SUBSEQUENCES.iter().map(|s| s.to_vec()).collect(),
        }
    }

    /// The kind of this space.
    pub fn kind(&self) -> ActionSpaceKind {
        self.kind
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.subsequences.len()
    }

    /// Returns `true` if the space has no actions (never for the built-ins).
    pub fn is_empty(&self) -> bool {
        self.subsequences.is_empty()
    }

    /// The sub-sequence for action index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn subsequence(&self, i: usize) -> &[&'static str] {
        &self.subsequences[i]
    }

    /// All sub-sequences.
    pub fn subsequences(&self) -> &[Vec<&'static str>] {
        &self.subsequences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_opt::manager::PassManager;
    use std::collections::BTreeSet;

    #[test]
    fn action_spaces_have_paper_sizes() {
        assert_eq!(
            ActionSpace::manual().len(),
            15,
            "Table II has 15 sub-sequences"
        );
        assert_eq!(
            ActionSpace::odg().len(),
            34,
            "Table III has 34 sub-sequences"
        );
    }

    #[test]
    fn every_action_resolves_to_registered_passes() {
        let pm = PassManager::new();
        for space in [ActionSpace::manual(), ActionSpace::odg()] {
            for (i, seq) in space.subsequences().iter().enumerate() {
                for pass in seq {
                    assert!(
                        pm.has_pass(pass),
                        "{} action {i}: pass '{pass}' not registered",
                        space.kind().name()
                    );
                }
            }
        }
    }

    /// The converse guard: a pass that no named pipeline, paper table or
    /// analysis consumer list reaches is dead weight in the roster.
    #[test]
    fn every_registered_pass_is_reached() {
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        for level in ["O0", "O1", "O2", "O3", "Os", "Oz"] {
            reached.extend(posetrl_opt::pipelines::by_name(level).unwrap());
        }
        for space in [ActionSpace::manual(), ActionSpace::odg()] {
            reached.extend(space.subsequences().iter().flatten());
        }
        for a in &posetrl_analyze::suite::ANALYSES {
            reached.extend(a.consumers);
        }
        let registered = PassManager::new().pass_names();
        let orphans: Vec<&str> = registered
            .iter()
            .copied()
            .filter(|p| !reached.contains(p))
            .collect();
        assert!(orphans.is_empty(), "passes nothing reaches: {orphans:?}");
    }

    #[test]
    fn subsequence_indexing_matches_tables() {
        let odg = ActionSpace::odg();
        assert_eq!(odg.subsequence(5), ["instcombine"]);
        assert_eq!(odg.subsequence(22), ["simplifycfg"]);
        let manual = ActionSpace::manual();
        assert_eq!(
            manual.subsequence(1),
            [
                "ipsccp",
                "called-value-propagation",
                "attributor",
                "globalopt"
            ]
        );
    }
}
