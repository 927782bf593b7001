//! Host diagnostics: a fixed memory-bound probe, CPU steal, and peak
//! resident set (this process plus its worker processes).
//!
//! They move nothing; they sit next to the numbers they may distort, so
//! a slow phase of the shared host is visible in the output.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// 2M `u32` slots: an 8 MB working set, larger than the caches the
/// simulation's hot state fits in.
const PROBE_SLOTS: usize = 2 << 20;
const PROBE_STEPS: usize = 1 << 17;

/// A fixed pointer-chasing loop over 8 MB: every step is a dependent
/// random load, so its time tracks the memory system, not the ALU.
pub struct MemProbe {
    next: Vec<u32>,
}

impl MemProbe {
    /// The table's resident size, in MB: part of this process's peak
    /// resident set, but not of the program's.
    pub const RESIDENT_MB: f64 = (PROBE_SLOTS * std::mem::size_of::<u32>()) as f64 / 1048576.0;

    pub fn new() -> MemProbe {
        // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
        let mut next: Vec<u32> = (0..PROBE_SLOTS as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..PROBE_SLOTS).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((x >> 33) as usize) % i;
            next.swap(i, j);
        }
        MemProbe { next }
    }

    /// Milliseconds for one pass.
    pub fn run_ms(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..PROBE_STEPS {
            at = self.next[black_box(at) as usize];
        }
        black_box(at);
        started.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for MemProbe {
    fn default() -> Self {
        MemProbe::new()
    }
}

/// A fixed integer loop: its time tracks the core's clock speed.
pub fn alu_probe_ms() -> f64 {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..15_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 13);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The probes' times on a quiet 2-vCPU Intel Xeon guest: the reference
/// speed that timings are scaled to. They fix only the scale: every
/// scaled timing is divided by the same constant.
const ALU_REF_MS: f64 = 28.0;
const MEM_REF_MS: f64 = 15.0;

/// Passes per probe reading. The median is kept: a reading is the
/// host's speed at that moment, not a preemption that hit one pass.
const PROBE_PASSES: usize = 3;

/// How much more the simulation slows than the probes do when the host
/// drifts: a run's wall is divided by the probed slowdown to this power.
/// Fitted to four sets of ten-seed runs of each workload, then checked
/// on later sets taken in a slow host phase (raw walls up to 83% above
/// the first set): there the scaled set medians stayed within 23% of
/// every earlier set's, where the power 1 let them move up to 35%.
pub const SLOWDOWN_SENSITIVITY: f64 = 1.5;

/// How slow the host runs right now relative to its quiet reference:
/// the geometric mean of the clock-bound and the memory-bound probe,
/// each over its reference time. 1.0 is a quiet host; 1.2 means work
/// takes about 20% longer than it would there.
pub struct HostSpeed {
    mem: MemProbe,
}

/// One reading of [`HostSpeed`].
#[derive(Debug, Clone, Copy)]
pub struct SpeedSample {
    pub alu_ms: f64,
    pub mem_ms: f64,
}

impl SpeedSample {
    pub fn slowdown(self) -> f64 {
        ((self.alu_ms / ALU_REF_MS) * (self.mem_ms / MEM_REF_MS)).sqrt()
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            mem: MemProbe::new(),
        }
    }

    pub fn sample(&self) -> SpeedSample {
        let passes = |probe: &dyn Fn() -> f64| {
            median(&(0..PROBE_PASSES).map(|_| probe()).collect::<Vec<_>>())
        };
        SpeedSample {
            alu_ms: passes(&alu_probe_ms),
            mem_ms: passes(&|| self.mem.run_ms()),
        }
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time the hypervisor stole between `start` and now.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter {
            start: cpu_jiffies(),
        }
    }

    pub fn share(&self) -> f64 {
        match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// A `/proc/<pid>/status` field in kB.
fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's peak resident set, in MB.
pub fn self_peak_rss_mb() -> f64 {
    status_kb("self", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// How often [`ChildRssSampler`] reads its children's resident sets.
pub const CHILD_RSS_PERIOD: Duration = Duration::from_millis(2);

/// Process ids whose parent is this process.
fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // `pid (comm) state ppid ...`; comm may hold spaces, so split
            // after its closing parenthesis.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    let rest = &s[s.rfind(')')? + 1..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(me)
        })
        .collect()
}

/// Samples the peak resident set of this process's children while it
/// lives: a worker's high-water mark is read every [`CHILD_RSS_PERIOD`]
/// until the worker exits, and the sum over workers is what a
/// distributed run costs in memory. Growth in a worker's last period
/// before it exits is missed. The sampler scans /proc on a thread of its
/// own, so it belongs in untimed runs only.
pub struct ChildRssSampler {
    stop: Arc<AtomicBool>,
    peaks: Arc<Mutex<Vec<(u32, u64)>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChildRssSampler {
    pub fn start() -> ChildRssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peaks: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        // Workers of an earlier run may still be exiting; only children
        // born after this point belong to the run being measured.
        let earlier = child_pids();
        // A child that has not yet exec'd its own program shares or copies
        // this process's memory, so its resident set is ours: it still
        // has our command line.
        let own_cmdline = std::fs::read("/proc/self/cmdline").ok();
        let handle = {
            let (stop, peaks) = (stop.clone(), peaks.clone());
            std::thread::spawn(move || loop {
                let done = stop.load(Ordering::SeqCst);
                let started = |pid: &u32| {
                    !earlier.contains(pid)
                        && std::fs::read(format!("/proc/{pid}/cmdline")).ok() != own_cmdline
                };
                for pid in child_pids().into_iter().filter(started) {
                    if let Some(kb) = status_kb(&pid.to_string(), "VmHWM:") {
                        let mut p = peaks.lock().expect("rss sampler lock");
                        match p.iter_mut().find(|(q, _)| *q == pid) {
                            Some(entry) => entry.1 = entry.1.max(kb),
                            None => p.push((pid, kb)),
                        }
                    }
                }
                if done {
                    return;
                }
                std::thread::sleep(CHILD_RSS_PERIOD);
            })
        };
        ChildRssSampler {
            stop,
            peaks,
            handle: Some(handle),
        }
    }

    /// Stop sampling; returns the summed peak of every child seen, in MB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("rss sampler thread");
        }
        let peaks = self.peaks.lock().expect("rss sampler lock");
        peaks.iter().map(|(_, kb)| *kb).sum::<u64>() as f64 / 1024.0
    }
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
