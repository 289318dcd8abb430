//! Experiment library behind the regeneration binaries and benches.
//!
//! Every table and figure of the paper, plus the E1–E8 extension
//! experiments from DESIGN.md, is a pure function of a configuration
//! here, so the `cargo run -p presto-bench --bin <id>` binaries, the
//! Criterion benches, and the integration tests all execute identical
//! code. Results serialize to JSON through the crate's one JSON path,
//! [`json`], next to the human-readable tables.

pub mod diff;
pub mod experiments;
pub mod failure;
pub mod figure2;
pub mod fleet;
pub mod json;
pub mod partition;
pub mod query_pipeline;
pub mod report;
pub mod slice_scenario;
pub mod table1;

#[doc(hidden)]
pub use presto_telemetry::alloc::CountingAlloc as __CountingAlloc;

/// Installs the counting allocator
/// ([`presto_telemetry::alloc::CountingAlloc`]) as the invoking binary's
/// global allocator. Every scenario binary that writes a `BENCH_*.json`
/// invokes it once at the crate root, so the profiler's
/// `profiler.<phase>.allocs` rows count real allocations instead of
/// reading 0. A macro rather than a library item: a global allocator is
/// one per program, and test binaries that link this crate install
/// their own.
///
/// ```ignore
/// presto_bench::install_counting_alloc!();
/// ```
#[macro_export]
macro_rules! install_counting_alloc {
    () => {
        #[global_allocator]
        static ALLOC: $crate::__CountingAlloc = $crate::__CountingAlloc;
    };
}
