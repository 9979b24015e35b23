//! Standard control-flow and data-flow analyses over [`crate::Function`].

pub mod cfg;
pub mod dom;
pub mod loops;

pub use cfg::Cfg;
pub use dom::DomTree;
pub use loops::{Loop, LoopForest};
