//! The compilation artifact.
//!
//! [`CompiledPipeline`] bundles the verified [`Program`] with its
//! shape, the verifier's analytic [`CostBound`], and the column
//! allocator's footprint accounting. It is a *specification*, not a
//! production executor: the stream engine's assign stage runs the one
//! kernel `dual_hdc::search::assign_sharded`, and the program's two
//! reference executors — the literal-window [`Vm`] here and
//! `dual_isa::Runtime::run_program` on the functional simulator — are
//! what the differential suite compares that kernel against.

use dual_isa::Program;
use dual_isa_verify::CostBound;
use serde::Serialize;

use crate::alloc::AllocStats;
use crate::shape::PipelineShape;
use crate::vm::Vm;

/// A verified lowering of one pipeline shape.
#[derive(Debug, Clone, Serialize)]
pub struct CompiledPipeline {
    shape: PipelineShape,
    program: Program,
    cost: CostBound,
    alloc: AllocStats,
}

impl CompiledPipeline {
    pub(crate) fn new(
        shape: PipelineShape,
        program: Program,
        cost: CostBound,
        alloc: AllocStats,
    ) -> Self {
        Self {
            shape,
            program,
            cost,
            alloc,
        }
    }

    /// The shape this program was specialized for.
    #[must_use]
    pub fn shape(&self) -> PipelineShape {
        self.shape
    }

    /// The verified instruction stream.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The verifier's analytic time/energy bound for one unrolled
    /// batch.
    #[must_use]
    pub fn cost(&self) -> CostBound {
        self.cost
    }

    /// Column-allocation footprint of the compilation.
    #[must_use]
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc
    }

    /// A literal reference VM over this program.
    #[must_use]
    pub fn vm(&self) -> Vm<'_> {
        Vm::new(&self.program)
    }
}
