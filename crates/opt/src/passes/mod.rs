//! The pass roster.
//!
//! One module per pass family; [`all_passes`] returns a boxed instance of
//! every pass, which the [`crate::manager::PassManager`] indexes by name.

pub mod dce;
pub mod dse;
pub mod early_cse;
pub mod gvn;
pub mod inline;
pub mod instcombine;
pub mod ipo;
pub mod licm;
pub mod loop_misc;
pub mod loop_rotate;
pub mod loop_simplify;
pub mod loop_unroll;
pub mod mem2reg;
pub mod scalar_misc;
pub mod sccp;
pub mod simplifycfg;

use crate::Pass;

/// Instantiates every registered pass.
pub fn all_passes() -> Vec<Box<dyn Pass + Send + Sync>> {
    vec![
        // CFG cleanup
        Box::new(simplifycfg::SimplifyCfg),
        // memory promotion
        Box::new(mem2reg::Mem2Reg),
        Box::new(mem2reg::Sroa),
        // peepholes
        Box::new(instcombine::InstCombine),
        Box::new(instcombine::InstSimplify),
        // dead code
        Box::new(dce::Adce),
        Box::new(dce::Bdce),
        Box::new(dse::Dse),
        // subexpression elimination
        Box::new(early_cse::EarlyCse::basic()),
        Box::new(early_cse::EarlyCse::memssa()),
        Box::new(gvn::Gvn),
        // constant propagation
        Box::new(sccp::Sccp),
        Box::new(sccp::IpSccp),
        // loops
        Box::new(loop_simplify::LoopSimplify),
        Box::new(loop_simplify::Lcssa),
        Box::new(loop_rotate::LoopRotate),
        Box::new(licm::Licm),
        Box::new(licm::LoopSink),
        Box::new(loop_unroll::LoopUnroll::oz()),
        Box::new(loop_unroll::LoopUnroll::aggressive()),
        Box::new(loop_unroll::LoopVectorize::oz()),
        Box::new(loop_unroll::LoopVectorize::aggressive()),
        Box::new(loop_misc::LoopDeletion),
        Box::new(loop_misc::LoopIdiom),
        Box::new(loop_misc::IndVarSimplify),
        Box::new(loop_misc::LoopLoadElim),
        Box::new(loop_misc::LoopUnswitch::oz()),
        Box::new(loop_misc::LoopUnswitch::aggressive()),
        Box::new(loop_misc::LoopDistribute),
        // interprocedural
        Box::new(inline::Inline::default()),
        Box::new(inline::Inline::aggressive()),
        Box::new(inline::PruneEh),
        Box::new(ipo::GlobalOpt),
        Box::new(ipo::GlobalDce),
        Box::new(ipo::DeadArgElim),
        Box::new(ipo::ConstMerge),
        Box::new(ipo::StripDeadPrototypes),
        Box::new(ipo::FunctionAttrs::forward()),
        Box::new(ipo::FunctionAttrs::rpo()),
        Box::new(ipo::Attributor),
        Box::new(ipo::InferAttrs),
        Box::new(ipo::ForceAttrs),
        Box::new(ipo::CalledValuePropagation),
        Box::new(ipo::ElimAvailExtern),
        // scalar misc
        Box::new(scalar_misc::Reassociate),
        Box::new(scalar_misc::TailCallElim),
        Box::new(scalar_misc::JumpThreading),
        Box::new(scalar_misc::CorrelatedPropagation),
        Box::new(scalar_misc::SpeculativeExecution),
        Box::new(scalar_misc::DivRemPairs),
        Box::new(scalar_misc::Float2Int),
        Box::new(scalar_misc::MergedLoadStoreMotion),
        Box::new(scalar_misc::MemCpyOpt),
        Box::new(scalar_misc::LowerExpect),
        Box::new(scalar_misc::LowerConstantIntrinsics),
        Box::new(scalar_misc::AlignmentFromAssumptions),
        Box::new(scalar_misc::EeInstrument),
        Box::new(scalar_misc::Barrier),
    ]
}
