//! The machine block every result carries: what the numbers were measured on.

use std::fmt::Write as _;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Cache sizes by level as reported for cpu0 (`"L2": "1024K"`, …).
fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size), Some(kind)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/size")),
            read(&format!("{base}/type")),
        ) else {
            continue;
        };
        if kind != "Instruction" {
            out.push((format!("L{level}"), size));
        }
    }
    out
}

/// The machine block as a JSON object: nproc, CPU model, L2/L3 sizes,
/// rustc version (passed in by `run.py`), whether `.cargo/config.toml`
/// builds with `target-cpu=native`, and the transparent-huge-page mode.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let native = read(".cargo/config.toml").is_some_and(|s| {
        s.lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .any(|l| l.contains("target-cpu=native"))
    });
    let thp = read("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|s| {
            s.split_whitespace()
                .find(|w| w.starts_with('['))
                .map(|w| w.trim_matches(|c| c == '[' || c == ']').to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let mut out = format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"target_cpu_native\": {native}, \"thp\": {}",
        quoted(&cpu),
        quoted(&rustc),
        quoted(&thp)
    );
    for (level, size) in caches() {
        let _ = write!(out, ", \"{level}\": {}", quoted(&size));
    }
    out.push('}');
    out
}
