//! Host and provenance facts printed in every record.

use std::fs;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache as the kernel reports it for CPU 0.
pub fn llc() -> String {
    let mut best: Option<(u32, String)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read =
            |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok().map(|s| s.trim().to_string());
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("L{level} {size}")));
        }
    }
    best.map(|(_, s)| s).unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit being measured: `GIT_SHA` from the environment, else read
/// from `.git` in the working directory, else `unknown` (an exported
/// checkout carries no history).
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GIT_SHA") {
        return sha;
    }
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(reference)).map(|l| l[..l.len().min(40)].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
