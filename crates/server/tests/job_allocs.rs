//! A server job's heap traffic must not grow with its length: harvesting
//! the commit stream costs no allocation per committed instruction. Only
//! the core's commit-event buffer may grow (it doubles), so quadrupling a
//! job's instruction budget may add a handful of allocations, not
//! thousands.

use orinoco_server::{run_one_shot, ConfigSpec, SimSpec};
use orinoco_util::alloc_counter::{thread_alloc_count, CountingAlloc};
use orinoco_workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the job makes beyond those of the same job at a quarter
/// of the budget.
const MAX_EXTRA_ALLOCS: u64 = 16;

fn allocs_of(workload: Workload, max_instrs: u64) -> u64 {
    let spec = SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload,
        scale: 1,
        seed: 1,
        max_instrs,
        max_cycles: 0,
        progress_cycles: 0,
    };
    let before = thread_alloc_count();
    let result = run_one_shot(&spec).expect("job completes");
    let allocs = thread_alloc_count() - before;
    assert_eq!(result.committed, max_instrs, "{workload} halted before its budget");
    allocs
}

#[test]
fn job_allocations_do_not_grow_with_committed_instructions() {
    for workload in [Workload::GemmLike, Workload::HashjoinLike, Workload::MemlatLike] {
        // First-use allocations (lazy statics, thread-locals) stay out of
        // the measured windows.
        allocs_of(workload, 2_500);
        let short = allocs_of(workload, 2_500);
        let long = allocs_of(workload, 10_000);
        assert!(
            long <= short + MAX_EXTRA_ALLOCS,
            "{workload}: {long} allocations at 10k instructions vs {short} at 2.5k"
        );
    }
}
