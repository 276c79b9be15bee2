//! Host-time benchmark of record for the SOVIA reproduction.
//!
//! Three workloads built from the paper's experiments (`latency`,
//! `stream_small`, `bulk`) run as passes of independent simulations
//! through `bench::runner`. Untraced runs report end-to-end host metrics;
//! traced runs report a per-layer split. Every run checks the simulated
//! output: seeded payloads verified at the receiver, anchor points equal
//! to the committed `results/*.txt` digits, and identical digests across
//! passes (and across traced and untraced passes). See `README.md`.
//!
//! Each pass runs in a child process of its own: the simulated platforms
//! do not free all their memory when a `Simulation` is dropped, so
//! passes in one process would grow without bound, and the peak-memory
//! metric would depend on how many passes fit in the run.

pub mod calib;
pub mod drivers;
pub mod golden;
pub mod metrics;
pub mod os;
pub mod pass;
pub mod pattern;
pub mod point;
pub mod probe;
pub mod traces;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::golden::Goldens;
use crate::pass::{ring_capacity, run_pass, Pass};
use crate::point::PointSpec;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed (payload bytes, fault schedules).
    pub seed: u64,
    /// Measure for at least this long (whole passes).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Options {
    /// The command-line flags that reproduce these options.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ]
    }
}

/// What one pass (untraced, or an untraced/traced pair when tracing)
/// found, as reported by its child process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    /// Digest of every point.
    pub digest: u64,
    /// Digest of the points whose inputs do not depend on the seed's
    /// fault schedule.
    pub lossfree: u64,
    /// Point executions attempted.
    pub attempted: usize,
    /// Point executions that failed.
    pub failed: usize,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Per-point table and notes.
    pub notes: Vec<String>,
}

impl PassReport {
    /// Line-oriented encoding for the parent process.
    pub fn encode(&self) -> String {
        let mut s = format!(
            "digest {:016x} {:016x}\ncount {} {}\n",
            self.digest, self.lossfree, self.attempted, self.failed
        );
        for (k, v) in &self.metrics {
            s.push_str(&format!("metric {k} {:016x}\n", v.to_bits()));
        }
        for p in &self.problems {
            s.push_str(&format!("problem {p}\n"));
        }
        for n in &self.notes {
            s.push_str(&format!("note {n}\n"));
        }
        s
    }

    /// Inverse of [`PassReport::encode`].
    pub fn decode(text: &str) -> Result<PassReport, String> {
        let mut r = PassReport::default();
        let hex = |w: Option<&str>| -> Result<u64, String> {
            u64::from_str_radix(w.ok_or("missing field")?, 16).map_err(|e| e.to_string())
        };
        let num = |w: Option<&str>| -> Result<usize, String> {
            w.ok_or("missing field")?
                .parse()
                .map_err(|e| format!("{e}"))
        };
        let mut seen_digest = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut w = rest.split(' ');
            match tag {
                "digest" => {
                    r.digest = hex(w.next())?;
                    r.lossfree = hex(w.next())?;
                    seen_digest = true;
                }
                "count" => {
                    r.attempted = num(w.next())?;
                    r.failed = num(w.next())?;
                }
                "metric" => {
                    let name = w.next().ok_or("missing metric name")?.to_string();
                    r.metrics.insert(name, f64::from_bits(hex(w.next())?));
                }
                "problem" => r.problems.push(rest.to_string()),
                "note" => r.notes.push(rest.to_string()),
                _ => return Err(format!("unexpected line {line:?}")),
            }
        }
        if !seen_digest {
            return Err("no digest line".into());
        }
        Ok(r)
    }
}

/// Run one pass of `opts.workload` in this process (with `opts.trace`,
/// an untraced pass, a traced pass and the dsim calibration), with as
/// many simulations in flight as the host has CPUs.
pub fn run_one(opts: &Options, root: &Path) -> Result<PassReport, String> {
    let points = workloads::points(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let goldens = Goldens::load(root)?;
    let cap = os::host_cpus();
    let plain = run_pass(&points, opts.seed, cap, None);
    let peak_rss_mb = os::Usage::now().max_rss_kib as f64 / 1024.0;
    let mut problems = check_goldens(&points, &goldens, &plain);
    let mut notes = point_table(&points, &plain);
    let digest = plain.digest(&points, |_| true);
    let mut passes = vec![&plain];
    let traced;
    let metrics: BTreeMap<String, f64> = if opts.trace {
        let rings: Vec<usize> = plain
            .runs
            .iter()
            .map(|r| ring_capacity(r.sched.events_processed))
            .collect();
        traced = run_pass(&points, opts.seed, cap, Some(&rings));
        passes.push(&traced);
        let got = traced.digest(&points, |_| true);
        if got != digest {
            problems.push(format!(
                "traced digest {got:016x} differs from untraced {digest:016x}"
            ));
        }
        let dropped: u64 = traced
            .runs
            .iter()
            .filter_map(|r| r.trace.map(|c| c.dropped))
            .sum();
        if dropped > 0 {
            problems.push(format!("trace ring dropped {dropped} events"));
        }
        let fill = traced
            .runs
            .iter()
            .filter_map(|r| {
                r.trace
                    .map(|c| c.recorded as f64 / r.sched.events_processed.max(1) as f64)
            })
            .fold(0.0, f64::max);
        notes.push(format!(
            "trace ring: at most {fill:.2} recorded events per dsim event"
        ));
        let cal = calib::calibrate();
        metrics::per_layer(&points, &plain, &traced, &cal, cap)
    } else {
        let mut m = metrics::end_to_end(&plain);
        m.insert(
            "paper_err_pct",
            metrics::paper_err_pct(&points, &plain, &goldens),
        );
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("points", points.len() as f64);
        m
    }
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .chain([(STEAL_PCT.to_string(), plain.steal_pct)])
    .collect();
    let failed: usize = passes.iter().map(|p| p.failed()).sum();
    if failed > 0 {
        problems.push(format!("{failed} point run(s) failed"));
    }
    Ok(PassReport {
        digest,
        lossfree: plain.digest(&points, |p| !p.seeded_faults()),
        attempted: passes.iter().map(|p| p.runs.len()).sum(),
        failed,
        metrics,
        problems,
        notes,
    })
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// All checks passed.
    pub correct: bool,
    /// Point executions attempted.
    pub attempted: usize,
    /// Point executions that failed.
    pub failed: usize,
    /// Median of each metric over the passes.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines (per-point table, digests, failed checks).
    pub log: Vec<String>,
}

/// Hypervisor steal during the untraced pass: logged, not a metric.
const STEAL_PCT: &str = "steal_pct";

/// Metrics logged for every pass, so within-run spread is visible.
const PASS_LOG: [&str; 7] = [
    STEAL_PCT,
    "wall_s",
    "cpu_s",
    "point_wall_max_s",
    "setup_s",
    "dsim.ns_per_event",
    "trace.overhead_pct",
];

/// Run passes of `opts.workload`, each in a child process running `exe`,
/// until `opts.seconds` have passed (at least one pass), and aggregate.
pub fn run(opts: &Options, root: &Path, exe: &Path) -> Result<Report, String> {
    let points = workloads::points(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    let mut reports = Vec::new();
    let mut problems = Vec::new();
    loop {
        let out = Command::new(exe)
            .args(opts.to_args())
            .arg("--root")
            .arg(root)
            .arg("--one-pass")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start pass process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match PassReport::decode(&text) {
            Ok(r) if out.status.success() => reports.push(r),
            Ok(_) | Err(_) => {
                // A pass process that died counts every point as failed.
                problems.push(format!("pass process exited with {}", out.status));
                reports.push(PassReport {
                    attempted: points.len(),
                    failed: points.len(),
                    ..PassReport::default()
                });
            }
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    let first = &reports[0];
    let mut log = vec![format!(
        "workload={} seed={} trace={} host_cpus={} job_cap={} points={} passes={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        os::host_cpus(),
        os::host_cpus(),
        points.len(),
        reports.len()
    )];
    log.extend(first.notes.iter().cloned());
    log.push(format!(
        "digest {} {:016x} loss-free {:016x}",
        opts.workload, first.digest, first.lossfree
    ));
    for (i, r) in reports.iter().enumerate() {
        let shown: Vec<String> = PASS_LOG
            .iter()
            .filter_map(|k| r.metrics.get(*k).map(|v| format!("{k}={v:.4}")))
            .collect();
        log.push(format!("pass {i}: {}", shown.join(" ")));
        problems.extend(r.problems.iter().map(|p| format!("pass {i}: {p}")));
        if r.digest != first.digest {
            problems.push(format!(
                "pass {i}: digest {:016x} differs from pass 0 {:016x}",
                r.digest, first.digest
            ));
        }
    }
    let mut metrics = BTreeMap::new();
    for name in first.metrics.keys() {
        let mut v: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        metrics.insert(name.clone(), metrics::median(&mut v));
    }
    if let Some(steal) = metrics.get(STEAL_PCT) {
        log.push(format!(
            "hypervisor steal: median {steal:.1}% of machine CPU time per pass"
        ));
    }
    log.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Ok(Report {
        correct: problems.is_empty(),
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        metrics,
        log,
    })
}

/// Every point's simulated value and event count.
fn point_table(points: &[PointSpec], pass: &Pass) -> Vec<String> {
    points
        .iter()
        .zip(&pass.runs)
        .map(|(p, r)| match &r.outcome {
            Ok(m) => format!(
                "point {:<40} value {:>12.4} aux {:>12.4} events {:>9} wall_ms {:>9.2}",
                p.label,
                m.value,
                m.aux,
                r.sched.events_processed,
                r.wall.as_secs_f64() * 1e3
            ),
            Err(e) => format!("point {:<40} FAILED: {e}", p.label),
        })
        .collect()
}

/// Anchor points must print exactly the committed golden digits.
fn check_goldens(points: &[PointSpec], goldens: &Goldens, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    for (p, r) in points.iter().zip(&pass.runs) {
        let (Some(cell), Ok(m)) = (&p.golden, &r.outcome) else {
            continue;
        };
        let got = golden::render(cell, m);
        match goldens.get(cell) {
            Some(want) if want == got => {}
            want => problems.push(format!(
                "{}: printed {got:?}, results/{} has {want:?}",
                p.label, cell.file
            )),
        }
    }
    problems
}
