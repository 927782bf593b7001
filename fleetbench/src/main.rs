//! `fleetbench --workload W --seed N --seconds S --trace 0|1
//!            [--alloc-bin PATH] [--spans-out PATH]`
//! runs one workload and prints its metrics; the last stdout line is the
//! JSON result, and the exit code is 0 only when every correctness
//! check passed.
//!
//! `fleetbench --write-manifest PATH` writes `BENCHMARK.json` from the
//! metric catalog. Started as `fleetbench --connect HOST:PORT
//! --worker-id N` (which is how the distributed coordinator spawns its
//! workers), it runs one fleet-wire worker.

use fleetbench::timed::{self, RunOptions};
use fleetbench::traced::{self, TraceOptions};
use fleetbench::workload::{Workload, DEFAULT_SEED, USERS};
use fleetbench::{catalog, Outcome};
use std::path::PathBuf;

fn usage(err: &str) -> ! {
    eprintln!("fleetbench: {err}");
    eprintln!(
        "usage: fleetbench --workload poll-100k|live-dag-100k|dist-100k --seed N --seconds S \
         --trace 0|1 [--alloc-bin PATH] [--spans-out PATH]\n       \
         fleetbench --write-manifest PATH"
    );
    std::process::exit(2)
}

fn worker(args: &[String]) -> ! {
    let (connect, id) = match args {
        [c, addr, w, id] if c == "--connect" && w == "--worker-id" => (addr, id),
        _ => usage("a worker takes exactly --connect HOST:PORT --worker-id N"),
    };
    let id: u32 = id
        .parse()
        .unwrap_or_else(|_| usage("--worker-id needs a u32"));
    let opts = fleet_wire::worker::WorkerOptions::new(connect.clone(), id);
    match fleet_wire::worker::run_worker(&opts) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("fleetbench worker {id}: {e}");
            std::process::exit(1)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--connect") {
        worker(&args);
    }
    if let [flag, path] = args.as_slice() {
        if flag == "--write-manifest" {
            std::fs::write(path, catalog::manifest())
                .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
            return;
        }
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, None);
    let (mut alloc_bin, mut spans_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a u64"))
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--alloc-bin" => alloc_bin = Some(PathBuf::from(value())),
            "--spans-out" => spans_out = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or_else(|| usage("--trace is required"));
    let shard_bin =
        std::env::current_exe().unwrap_or_else(|e| usage(&format!("no current exe: {e}")));
    let run = RunOptions {
        workload,
        users: USERS,
        seed,
        seconds,
        shard_bin,
    };

    let outcome: Outcome = if trace {
        traced::run(&TraceOptions {
            run,
            alloc_bin,
            spans_out,
        })
    } else {
        timed::run(&run)
    };
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
