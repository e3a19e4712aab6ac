//! Traced benchmark runs (`--trace 1`): per-layer spans, work counters
//! and exact allocation counts.

#[global_allocator]
static ALLOC: tamp_perfbench::trace::CountingAlloc = tamp_perfbench::trace::CountingAlloc;

fn main() {
    tamp_perfbench::main(true);
}
