//! Work-stealing parallel execution for independent experiment tasks.
//!
//! Every experiment (and every cell of the workload × machine sweeps) is
//! an independent simulation that owns its seed, so tasks can run on any
//! worker in any order without changing a single output byte: results are
//! returned in input order and each task's RNG state is self-contained.
//! The scheduler is the simplest correct one — a shared atomic index that
//! idle workers bump to claim the next unstarted task — which is exactly
//! work stealing for identical queues.
//!
//! Determinism argument: parallelism affects only *when* a task runs and
//! on which thread, never what it computes (no shared mutable state, no
//! time- or thread-dependent inputs), and assembly order is the input
//! order, so `run_all --jobs N` must produce byte-identical
//! `results/*.json` for every N. An integration test enforces this.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker count used by sweep experiments (fig. 5, fig. 8,
/// the fault sweep) when fanning out their cells.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Process-wide trace output directory (`--trace <dir>`); `None`
/// disables tracing everywhere.
static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Process-wide observability-plane switch (`--obs`): when set, every
/// cluster experiment runs with the always-on [`cluster::ObsConfig`],
/// feeding the run_all p99-energy and alert columns.
static OBS: AtomicBool = AtomicBool::new(false);

/// Process-wide kernel scheduling policy (`--sched rr|priority|cfs`):
/// every workload- and cluster-level experiment boots its kernels with
/// this policy. Calibration runs always stay round-robin so the shared
/// calibration cache is scheduler-independent. Default: round-robin
/// (byte-identical to the pre-trait kernels).
static SCHED: Mutex<Option<ossim::SchedulerKind>> = Mutex::new(None);

/// Sets the process-wide scheduling policy (`None` → round-robin).
pub fn set_sched(kind: Option<ossim::SchedulerKind>) {
    *SCHED.lock().unwrap_or_else(|e| e.into_inner()) = kind;
}

/// The process-wide scheduling policy experiments boot kernels with.
pub fn sched_kind() -> ossim::SchedulerKind {
    SCHED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or(ossim::SchedulerKind::RoundRobin)
}

/// Parses `--sched NAME` / `--sched=NAME` from process args. Returns
/// `None` (round-robin) when absent; exits with an error on an unknown
/// policy name so a typo cannot silently run the default.
pub fn sched_from_args() -> Option<ossim::SchedulerKind> {
    let args: Vec<String> = std::env::args().collect();
    let mut kind = None;
    let mut parse = |v: &str| match ossim::SchedulerKind::parse(v) {
        Some(k) => kind = Some(k),
        None => {
            eprintln!(
                "error: unknown --sched policy `{v}` (expected one of: {})",
                ossim::SchedulerKind::ALL_NAMES.join(", ")
            );
            std::process::exit(2);
        }
    };
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--sched=") {
            parse(v);
        } else if a == "--sched" {
            if let Some(v) = args.get(i + 1) {
                parse(v);
            }
        }
    }
    kind
}

/// Turns the process-wide observability plane on or off.
pub fn set_obs(on: bool) {
    OBS.store(on, Ordering::SeqCst);
}

/// Whether `--obs` is active for this process.
pub fn obs() -> bool {
    OBS.load(Ordering::SeqCst)
}

/// Parses `--obs` from process args.
pub fn obs_from_args() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// The observability config cluster experiments should install:
/// standard always-on settings when `--obs` is active, else `None`.
/// Experiments that *are about* the obs plane (obs_sweep) build their
/// own per-rung configs instead.
pub fn obs_config() -> Option<cluster::ObsConfig> {
    obs().then(cluster::ObsConfig::standard)
}

/// Sets the process-wide trace output directory.
pub fn set_trace_dir(dir: Option<PathBuf>) {
    *TRACE_DIR.lock().unwrap_or_else(|e| e.into_inner()) = dir;
}

/// The trace output directory, if tracing is enabled.
pub fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Parses `--trace DIR` / `--trace=DIR` from process args.
pub fn trace_dir_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let mut dir = None;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--trace=") {
            dir = Some(PathBuf::from(v));
        } else if a == "--trace" {
            if let Some(v) = args.get(i + 1) {
                dir = Some(PathBuf::from(v));
            }
        }
    }
    dir
}

/// A recording telemetry handle when `--trace` is active, else a
/// disabled one — experiments clone this into their [`workloads::RunConfig`]
/// (or [`cluster::ClusterConfig`]) without caring whether tracing is on.
pub fn trace_handle() -> telemetry::Telemetry {
    if trace_dir().is_some() {
        telemetry::Telemetry::recording()
    } else {
        telemetry::Telemetry::disabled()
    }
}

/// Lowercases `s` and maps every non-alphanumeric run to a single `-`
/// (file-name-safe slugs for trace cell names).
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Writes one traced cell under `<trace dir>/<experiment>/<stem>.jsonl`
/// plus the Perfetto-loadable `<stem>.trace.json`; a no-op when tracing
/// is disabled or the handle recorded nothing. Failures warn but never
/// sink the experiment.
pub fn write_trace(experiment: &str, stem: &str, tele: &telemetry::Telemetry) {
    if !tele.enabled() {
        return;
    }
    // Span-hygiene hard check: a recorded cell with dangling span ends
    // means some code path closed a span it never opened (or the track
    // bookkeeping broke). That must fail the experiment loudly, naming
    // the offender, not ship a silently malformed trace.
    let unmatched = tele.unmatched_ends_by_track();
    if !unmatched.is_empty() {
        let detail: Vec<String> =
            unmatched.iter().map(|(track, n)| format!("track {track}: {n}")).collect();
        panic!(
            "experiment `{experiment}` cell `{stem}`: unmatched span end(s) — {}",
            detail.join(", ")
        );
    }
    let Some(root) = trace_dir() else { return };
    let dir = root.join(experiment);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let write = |path: &Path, res: std::io::Result<()>| {
        if let Err(e) = res {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    };
    let jsonl = dir.join(format!("{stem}.jsonl"));
    write(&jsonl, tele.write_jsonl(&jsonl));
    let chrome = dir.join(format!("{stem}.trace.json"));
    write(&chrome, tele.write_chrome_trace(&chrome));
}

/// Sets the process-wide worker count (clamped to at least 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The process-wide worker count (default 1: serial).
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// Parses `--jobs N` / `--jobs=N` from process args (default 1).
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut jobs = 1usize;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = v.parse().unwrap_or(1);
        } else if a == "--jobs" {
            if let Some(v) = args.get(i + 1) {
                jobs = v.parse().unwrap_or(1);
            }
        }
    }
    jobs.max(1)
}

/// Runs `tasks` on up to `jobs` scoped worker threads and returns each
/// task's output **in input order**. A panicking task yields
/// `Err(panic message)` in its slot; the other tasks keep running. With
/// `jobs <= 1` the tasks run inline on the caller's thread, in order.
pub fn run_parallel<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let slots: Vec<Mutex<Option<F>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Worker threads inherit the caller's degrade-ledger scope, so a
    // sweep experiment's cells report under the experiment's name no
    // matter which thread runs them.
    let scope = workloads::current_degrade_scope();
    let work = || {
        let _guard = scope.as_deref().map(workloads::DegradeScope::enter);
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            let task = slots[i]
                .lock()
                .expect("task slot unpoisoned")
                .take()
                .expect("each index is claimed exactly once");
            // `&*e`, not `&e`: coercing `&Box<dyn Any>` would wrap the
            // box itself as the `dyn Any` and every payload downcast
            // would miss.
            let out = catch_unwind(AssertUnwindSafe(task)).map_err(|e| panic_message(&*e));
            *results[i].lock().expect("result slot unpoisoned") = Some(out);
        }
    };
    let workers = jobs.min(n).max(1);
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot unpoisoned")
                .expect("every task ran to completion")
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let tasks: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        for jobs in [1, 2, 7] {
            let out = run_parallel(jobs, tasks.clone());
            let values: Vec<i32> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_task_does_not_sink_the_rest() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task two exploded")),
            Box::new(|| 3),
        ];
        let out = run_parallel(2, tasks);
        assert_eq!(out[0], Ok(1));
        assert!(out[1].as_ref().unwrap_err().contains("exploded"));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn zero_jobs_behaves_like_one() {
        let out = run_parallel(0, vec![|| 7]);
        assert_eq!(out, vec![Ok(7)]);
    }

    #[test]
    fn slugs_are_file_name_safe() {
        assert_eq!(slug("GAE-Vosao"), "gae-vosao");
        assert_eq!(slug("peak load"), "peak-load");
        assert_eq!(slug("dropout + glitches + tag faults"), "dropout-glitches-tag-faults");
        assert_eq!(slug("5%"), "5");
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<Result<(), String>> = run_parallel(4, Vec::<fn()>::new());
        assert!(out.is_empty());
    }
}
