pub mod alloc;
pub mod compile;
pub mod fabric;
pub mod inputs;
pub mod stats;
pub mod trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
pub mod compare;
pub mod gate;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod udp;
