//! Host metadata and `/proc` readings of the server child.

use std::fs;
use std::process::Command;

use ref_serve::Value;

/// Kernel clock ticks per second that `/proc/<pid>/stat` counts CPU time in.
/// Linux has fixed `USER_HZ` at 100 on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a reader needs to judge whether two result files are comparable.
pub fn metadata() -> Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let text = |s: Option<String>| s.map_or(Value::Null, Value::str);
    Value::obj(vec![
        ("nproc", Value::from_u64(nproc as u64)),
        ("cpu_model", Value::str(cpu_model)),
        ("kernel", Value::str(kernel)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(first), Ok(last)) = (first.trim().parse::<usize>(), last.trim().parse()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// The two CPUs a run is laid out on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus {
    /// Where the server child confines itself, on the workloads that run it
    /// as a one-CPU server (`Workload::server_confined`).
    pub server: usize,
    /// Where the load threads stay, so that what the generator costs never
    /// lands on the server's CPU.
    pub load: usize,
}

/// The first two CPUs this process may use; `None` on a host with fewer,
/// where the load generator and the server would time-slice one CPU.
pub fn cpus() -> Option<Cpus> {
    match allowed_cpus().as_slice() {
        [server, load, ..] => Some(Cpus {
            server: *server,
            load: *load,
        }),
        _ => None,
    }
}

/// Words in the CPU mask handed to the kernel: room for CPUs 0..1024.
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread or process it starts from
/// now on — to `cpu`. Returns whether the kernel accepted.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes for the whole call, which only reads it; pid 0 names the calling
    // thread, so no other process is affected.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPU time the hypervisor gave to other guests while this one wanted to
/// run ("steal"), and all CPU time, in ticks since boot over every CPU:
/// fields 8 and 1..=8 of the first line of `/proc/stat`. The share of steal
/// over a run says how far its timings can be trusted; nothing the program
/// under test does can move it.
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map_while(|field| field.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// CPU time and memory of one process, read from `/proc`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcReading {
    /// User + system CPU seconds consumed so far, all threads.
    pub cpu_s: f64,
    /// Peak resident set size (`VmHWM`), in MiB.
    pub peak_rss_mb: f64,
    /// Voluntary context switches so far, summed over live threads.
    pub voluntary_ctx_switches: u64,
}

/// Reads `pid`'s CPU time, peak RSS and context switches.
pub fn read_proc(pid: u32) -> std::io::Result<ProcReading> {
    let bad = |what: &str| std::io::Error::other(format!("/proc/{pid}: {what}"));
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, at field 3.
    let after = stat
        .rsplit_once(')')
        .ok_or_else(|| bad("malformed stat"))?
        .1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |field: usize| -> std::io::Result<f64> {
        fields
            .get(field - 3)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| bad("stat lacks the cpu fields"))
    };
    let cpu_s = (ticks(14)? + ticks(15)?) / USER_HZ;

    let status_field = |text: &str, key: &str| -> Option<u64> {
        text.lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let hwm_kb = status_field(&status, "VmHWM:").ok_or_else(|| bad("status lacks VmHWM"))?;
    let mut voluntary_ctx_switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(task?.path().join("status")) {
            voluntary_ctx_switches += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(ProcReading {
        cpu_s,
        peak_rss_mb: hwm_kb as f64 / 1024.0,
        voluntary_ctx_switches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let reading = read_proc(std::process::id()).unwrap();
        assert!(reading.peak_rss_mb > 0.1);
        assert!(reading.cpu_s >= 0.0);
    }

    #[test]
    fn steal_is_part_of_the_total() {
        let (steal, total) = steal_and_total_ticks().unwrap();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert!(!allowed_cpus().is_empty());
        assert!(!pin_to_cpu(64 * CPU_MASK_WORDS));
    }

    #[test]
    fn metadata_names_the_host() {
        let meta = metadata();
        assert!(meta.get("nproc").unwrap().as_u64().unwrap() >= 1);
        assert!(meta.get("profile").unwrap().as_str().is_some());
    }
}
