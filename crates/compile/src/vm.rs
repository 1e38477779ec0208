//! The reference bytecode VM.
//!
//! [`Vm`] executes a compiled [`Program`] *literally*: every `hamm_7`
//! window compares its ≤ 7 bit-columns one bit at a time and
//! accumulates into a software model of the §V-B distance memory,
//! and every `near_search` takes a tie-low argmin over that memory —
//! exactly what [`dual_isa::Runtime::run_program`] does against the
//! functional simulator, minus the cost ledger. It is deliberately the
//! *slow* executor, kept as an oracle: the differential suite pins the
//! production word-level kernel `dual_hdc::search::assign_sharded`
//! bit-identical to this one.
//!
//! Arithmetic, update and writeback instructions carry cost but no
//! assignment-visible state, so the VM skips them; the stream engine's
//! energy accounting prices those stages through the shared charge
//! grid instead.

use dual_hdc::Hypervector;
use dual_isa::{Instruction, Program};

use crate::error::CompileError;
use crate::shape::DATA_COLS;

/// A compact interpreter over one compiled program's instruction
/// stream.
#[derive(Debug, Clone)]
pub struct Vm<'p> {
    program: &'p Program,
}

impl<'p> Vm<'p> {
    /// A VM over `program`.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Self { program }
    }

    /// Execute the program's search stages: each `set_qinput` loads the
    /// next query, the window sweep rebuilds its Hamming distances
    /// bit-by-bit, and each `near_search` emits one `(slot, distance)`
    /// assignment. Queries beyond the program's unrolled batch are an
    /// error; a short batch simply stops at the first starved
    /// `set_qinput`.
    ///
    /// # Errors
    ///
    /// [`CompileError::Malformed`] when queries/centroids disagree with
    /// the program (dimension mismatch, more queries than unrolled
    /// points, a search before any query is loaded).
    pub fn assign(
        &self,
        queries: &[Hypervector],
        centroids: &[Hypervector],
    ) -> Result<Vec<(usize, usize)>, CompileError> {
        if centroids.is_empty() {
            return Err(CompileError::Malformed {
                what: "no centroids to search",
            });
        }
        let dim = centroids[0].dim();
        if centroids.iter().any(|c| c.dim() != dim) {
            return Err(CompileError::Malformed {
                what: "centroid dimensionalities disagree",
            });
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut next_query = 0usize;
        let mut current: Option<&Hypervector> = None;
        let mut consumed = 0usize;
        let mut dist = vec![0usize; centroids.len()];
        for inst in self.program.instructions() {
            match *inst {
                Instruction::SetQInput { size, .. } => {
                    let Some(q) = queries.get(next_query) else {
                        // Short batch: the rest of the unrolled program
                        // has no queries to serve.
                        break;
                    };
                    if q.dim() != size || q.dim() != dim {
                        return Err(CompileError::Malformed {
                            what: "query dimensionality disagrees with program",
                        });
                    }
                    next_query += 1;
                    current = Some(q);
                    consumed = 0;
                    dist.iter_mut().for_each(|d| *d = 0);
                }
                Instruction::Hamm7 { b, c1, c2 } => {
                    let Some(q) = current else {
                        return Err(CompileError::Malformed {
                            what: "window sweep before any query load",
                        });
                    };
                    let width = c2.saturating_sub(c1);
                    let base = b * DATA_COLS + c1;
                    if consumed + width > q.dim() || base + width > dim {
                        return Err(CompileError::Malformed {
                            what: "window exceeds query or centroid span",
                        });
                    }
                    for (row, centroid) in centroids.iter().enumerate() {
                        let mut mismatches = 0usize;
                        for j in 0..width {
                            let qb = q.bits().get(consumed + j);
                            let cb = centroid.bits().get(base + j);
                            mismatches += usize::from(qb != cb);
                        }
                        dist[row] += mismatches;
                    }
                    consumed += width;
                }
                Instruction::NearSearch { .. } => {
                    if current.is_none() {
                        return Err(CompileError::Malformed {
                            what: "nearest search before any query load",
                        });
                    }
                    let mut best = (0usize, usize::MAX);
                    for (row, &d) in dist.iter().enumerate() {
                        // Strict improvement only: ties latch the
                        // lowest row, the CAM's staged-match order.
                        if d < best.1 {
                            best = (row, d);
                        }
                    }
                    out.push(best);
                    current = None;
                }
                // Arithmetic, row moves, writes and selects model cost
                // and update state, not assignments.
                _ => {}
            }
        }
        if next_query < queries.len() {
            return Err(CompileError::Malformed {
                what: "more queries than unrolled set_qinput points",
            });
        }
        if out.len() != queries.len() {
            return Err(CompileError::Malformed {
                what: "program emitted fewer searches than loaded queries",
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::shape::PipelineShape;
    use dual_hdc::ops::random_hypervector;

    fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        (0..n)
            .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn vm_matches_flat_nearest_scan_and_sharded_kernel() {
        let shape = PipelineShape {
            dim: 150,
            n_features: 4,
            slots: 7,
            shards: 3,
            batch: 9,
        };
        let compiled = Compiler::compile(shape).expect("compiles");
        let centroids = pool(7, 150, 11);
        let queries = pool(9, 150, 77);
        let got = Vm::new(compiled.program())
            .assign(&queries, &centroids)
            .expect("executes");
        for (q, &(idx, d)) in queries.iter().zip(&got) {
            let want = dual_hdc::search::nearest(q, &centroids).expect("non-empty");
            assert_eq!((idx, d), want);
        }
        assert_eq!(
            got,
            dual_hdc::search::assign_sharded(&queries, &centroids, shape.shards, 1)
        );
    }

    #[test]
    fn vm_handles_short_batches_and_rejects_overlong_ones() {
        let shape = PipelineShape {
            dim: 64,
            n_features: 2,
            slots: 3,
            shards: 1,
            batch: 4,
        };
        let compiled = Compiler::compile(shape).expect("compiles");
        let centroids = pool(3, 64, 5);
        let vm = Vm::new(compiled.program());
        let short = pool(2, 64, 9);
        assert_eq!(vm.assign(&short, &centroids).expect("short ok").len(), 2);
        let long = pool(5, 64, 9);
        assert!(matches!(
            vm.assign(&long, &centroids),
            Err(CompileError::Malformed { .. })
        ));
    }
}
