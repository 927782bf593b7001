//! `fleetbench-alloc --workload W --seed N`: the alloc-count
//! companion build. Counts allocations by phase over a single-threaded
//! run of the workload's cells and prints them as one JSON line. The
//! counting allocator costs wall time, so nothing here is timed.

use fleetbench::traced::count_allocs;
use fleetbench::workload::{Workload, DEFAULT_SEED, USERS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed) = (None, DEFAULT_SEED);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            fail("every flag needs a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| fail("--seed needs a u64")),
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload needs a known workload"));
    let counts = count_allocs(&workload.config(USERS, seed))
        .unwrap_or_else(|| fail("built without the counting allocator"));
    println!("{}", counts.to_json());
}

fn fail(err: &str) -> ! {
    eprintln!("fleetbench-alloc: {err}");
    std::process::exit(2)
}
