//! `svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one provenance row per metric, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! 1 when any check failed and 2 on a usage error.

use hypersafe_svcbench::bench::{self, Config, Metric};
use hypersafe_svcbench::timed::{Span, NONE};
use hypersafe_svcbench::workload::{self, WORKLOADS};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("svcbench: {msg}");
    eprintln!(
        "usage: svcbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 30.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::shape(value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        shape: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// The source revision: `BENCH_REV` if set, else the checkout's git
/// HEAD, else "unknown".
fn revision() -> String {
    if let Ok(rev) = std::env::var("BENCH_REV") {
        return rev;
    }
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the traced round's spans as CSV under the package's `out/`.
fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}.csv"));
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "id,name,start_ns,end_ns,parent,src,dst,epoch,req,aux")?;
    let opt = |v: u64| {
        if v == NONE {
            String::new()
        } else {
            v.to_string()
        }
    };
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{i},{},{},{},{},{},{},{},{},{}",
            s.name.as_str(),
            s.start,
            s.end,
            s.parent,
            opt(s.src),
            opt(s.dst),
            opt(s.epoch),
            opt(s.req),
            s.aux
        )?;
    }
    w.flush()?;
    Ok(path)
}

/// Fixes glibc's allocator thresholds. By default glibc adapts its
/// mmap and trim thresholds to the sizes freed so far, so whether a
/// round's set-up reuses the previous round's memory or faults in fresh
/// pages differs from process to process, and `setup_s` read 4 ms in
/// some runs and 13 ms in others. Fixed thresholds keep large blocks on
/// the heap and the heap untrimmed, so every set-up after the first
/// reuses memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's allocator-tuning entry point; it takes
    // two ints by value, touches no memory of ours, and is called before
    // any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator_thresholds() {}

fn main() -> ExitCode {
    fix_allocator_thresholds();
    // One program thread: the vendored rayon reads this once, on first use.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => return usage(&e),
    };
    let out = bench::run(cfg);

    let correct = out.failed == 0;
    let provenance = format!(
        "\"workload\": {}, \"n\": {}, \"seed\": {}, \"threads\": {}, \"nproc\": {}, \
         \"rev\": {}, \"traced\": {}",
        json_str(cfg.shape.name),
        cfg.shape.n,
        cfg.seed,
        rayon::num_threads(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        json_str(&revision()),
        cfg.traced,
    );
    let failed_frac = Metric {
        name: "failed_frac",
        unit: "ratio",
        value: out.failed as f64 / out.attempted.max(1) as f64,
    };
    for m in out.metrics.iter().chain([&failed_frac]) {
        println!(
            "{{\"id\": {}, \"unit\": {}, \"value\": {}, {provenance}}}",
            json_str(m.name),
            json_str(m.unit),
            m.value
        );
    }
    for f in &out.failures {
        eprintln!("svcbench: check failed: {f}");
    }
    if !out.spans.is_empty() {
        match write_spans(cfg.shape.name, &out.spans) {
            Ok(path) => eprintln!("svcbench: spans written to {}", path.display()),
            Err(e) => eprintln!("svcbench: could not write spans: {e}"),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let cfg = parse(&args("--workload fan_n12 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cfg.shape.name, "fan_n12");
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (7, 3.0, true));
        let cfg = parse(&args("--workload churn_n18")).unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (1, 30.0, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload route_n12 --trace 2",
            "--workload route_n12 --seconds -1",
            "--workload route_n12 --seed",
            "--workload route_n12 --verbose 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
