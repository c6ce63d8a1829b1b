//! The harness context, trace export and work-stealing parallel
//! execution.
//!
//! [`RunCtx`] carries every setting one harness run is configured with —
//! scale, worker count, trace directory, observability switch, scheduling
//! policy and results directory — and every experiment receives it
//! explicitly. No harness setting is process-wide: two contexts (two
//! tests in one process, say) run side by side without seeing each
//! other's settings or files. Only binary `main`s build a context from
//! the command line and `PC_RESULTS_DIR`; tests and examples build theirs
//! through [`Sandbox`].
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
//! `results/*.json` for every N. The conformance test enforces this for
//! every registered experiment.

use crate::Scale;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use workloads::tally;

/// Everything one harness run is configured with.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Experiment fidelity (`--quick`).
    pub scale: Scale,
    /// Workers sweep experiments fan their cells out across (`--jobs`;
    /// 1 runs serially).
    pub jobs: usize,
    /// Where traced cells export their telemetry (`--trace`); `None`
    /// disables tracing everywhere.
    pub trace_dir: Option<PathBuf>,
    /// Run every cluster experiment with the always-on observability
    /// plane (`--obs`), feeding the run_all p99-energy and alert columns.
    pub obs: bool,
    /// Kernel scheduling policy experiments boot with (`--sched`).
    /// Calibration always runs round-robin so the shared calibration
    /// cache is scheduler-independent.
    pub sched: ossim::SchedulerKind,
    /// Where JSON records and calibration caches are read and written.
    pub results_dir: PathBuf,
}

impl RunCtx {
    /// A serial, untraced, round-robin context without the obs plane.
    pub fn new(scale: Scale, results_dir: impl Into<PathBuf>) -> RunCtx {
        RunCtx {
            scale,
            jobs: 1,
            trace_dir: None,
            obs: false,
            sched: ossim::SchedulerKind::RoundRobin,
            results_dir: results_dir.into(),
        }
    }

    /// The observability config cluster experiments should install:
    /// standard always-on settings under `--obs`, else `None`.
    /// Experiments that *are about* the obs plane (obs_sweep) build their
    /// own per-rung configs instead.
    pub fn obs_config(&self) -> Option<cluster::ObsConfig> {
        self.obs.then(cluster::ObsConfig::standard)
    }

    /// A recording telemetry handle when tracing is on, else a disabled
    /// one — experiments clone this into their [`workloads::RunConfig`]
    /// (or [`cluster::ClusterConfig`]) without caring whether tracing is
    /// on.
    pub fn trace_handle(&self) -> telemetry::Telemetry {
        if self.trace_dir.is_some() {
            telemetry::Telemetry::recording()
        } else {
            telemetry::Telemetry::disabled()
        }
    }

    /// Writes one traced cell under `<trace dir>/<experiment>/<stem>.jsonl`
    /// plus the Perfetto-loadable `<stem>.trace.json`; a no-op when
    /// tracing is disabled or the handle recorded nothing. Failures warn
    /// but never sink the experiment.
    pub fn write_trace(&self, experiment: &str, stem: &str, tele: &telemetry::Telemetry) {
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
        let Some(dir) = self.trace_subdir(experiment) else { return };
        let jsonl = dir.join(format!("{stem}.jsonl"));
        warn_on_err(&jsonl, tele.write_jsonl(&jsonl));
        let chrome = dir.join(format!("{stem}.trace.json"));
        warn_on_err(&chrome, tele.write_chrome_trace(&chrome));
    }

    /// Creates and returns `<trace dir>/<experiment>`; `None` when
    /// tracing is off or the directory cannot be created (with a warning).
    pub(crate) fn trace_subdir(&self, experiment: &str) -> Option<PathBuf> {
        let dir = self.trace_dir.as_ref()?.join(experiment);
        match std::fs::create_dir_all(&dir) {
            Ok(()) => Some(dir),
            Err(e) => {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                None
            }
        }
    }
}

/// Reports a failed artifact write without sinking the experiment.
pub(crate) fn warn_on_err(path: &Path, res: std::io::Result<()>) {
    if let Err(e) = res {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// A [`RunCtx`] over a fresh temp directory seeded with the committed
/// calibration caches, removed again on drop. Tests and examples run
/// experiments through it, so nothing they write lands in the checkout
/// and no two runs share a directory.
pub struct Sandbox {
    /// The context; its `results_dir` is the sandbox root. Set
    /// `trace_dir` (e.g. to [`Sandbox::traces`]) or `jobs` as needed.
    pub ctx: RunCtx,
    /// The directory drop removes, kept apart from the public `ctx` so
    /// redirecting the context can never point drop elsewhere.
    root: PathBuf,
}

impl Sandbox {
    /// Creates `<temp>/pc-run-<pid>-<n>` for the first free `n` and
    /// copies the committed `calibration-*-<SEED>.json` caches into it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or seeded.
    pub fn new(scale: Scale) -> Sandbox {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        let root = (0..)
            .map(|n| base.join(format!("pc-run-{pid}-{n}")))
            .find(|dir| match std::fs::create_dir(dir) {
                Ok(()) => true,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
                Err(e) => panic!("cannot create sandbox {}: {e}", dir.display()),
            })
            .expect("an unused sandbox name");
        let suffix = format!("-{}.json", crate::SEED);
        let committed = Path::new(crate::output::DEFAULT_RESULTS_DIR);
        for entry in std::fs::read_dir(committed).expect("committed results dir") {
            let name = entry.expect("dir entry").file_name().to_string_lossy().to_string();
            if name.starts_with("calibration-") && name.ends_with(&suffix) {
                std::fs::copy(committed.join(&name), root.join(&name))
                    .expect("copy calibration cache");
            }
        }
        Sandbox { ctx: RunCtx::new(scale, &root), root }
    }

    /// `<sandbox>/traces`, the conventional trace directory.
    pub fn traces(&self) -> PathBuf {
        self.root.join("traces")
    }

    /// Every file written into the sandbox except the seeded calibration
    /// caches, as sorted paths relative to the sandbox root.
    pub fn outputs(&self) -> BTreeSet<String> {
        let root = &self.root;
        let mut out = BTreeSet::new();
        let mut stack = vec![root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable sandbox") {
                let path = entry.expect("dir entry").path();
                let rel = path.strip_prefix(root).expect("under root").to_string_lossy().to_string();
                if path.is_dir() {
                    stack.push(path);
                } else if !rel.starts_with("calibration-") {
                    out.insert(rel);
                }
            }
        }
        out
    }

    /// The bytes of one of [`Sandbox::outputs`].
    pub fn read(&self, output: &str) -> Vec<u8> {
        std::fs::read(self.root.join(output)).expect("readable output")
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
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

/// Runs `tasks` on up to `jobs` (normally [`RunCtx::jobs`]) scoped worker
/// threads and returns each task's output **in input order**. A
/// panicking task yields `Err(panic message)` in its slot; the other
/// tasks keep running. With `jobs <= 1` the tasks run inline on the
/// caller's thread, in order. Either way the runs the tasks note in
/// their thread's [`workloads::tally`] end up in the caller's: each
/// worker adds its tally to the caller's when it ends.
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
    let work = || {
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
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        work();
                        tally::take()
                    })
                })
                .collect();
            for w in workers {
                tally::note(w.join().expect("a worker catches its tasks' panics"));
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
    fn the_tasks_notes_reach_the_callers_tally() {
        for jobs in [1, 2, 7] {
            tally::take();
            // Task `i` notes 2^i requests, so the sum shows each note
            // arrived exactly once; task 5 panics after its note.
            let tasks: Vec<_> = (0..12)
                .map(|i| {
                    move || {
                        tally::note(tally::Tally { requests: 1 << i, ..Default::default() });
                        assert_ne!(i, 5, "task five exploded after its note");
                    }
                })
                .collect();
            let out = run_parallel(jobs, tasks);
            assert!(out[5].as_ref().unwrap_err().contains("exploded"));
            assert_eq!(tally::take().requests, (1 << 12) - 1, "jobs {jobs}");
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

    #[test]
    fn sandboxes_are_distinct_seeded_and_removed_on_drop() {
        let a = Sandbox::new(Scale::Quick);
        let b = Sandbox::new(Scale::Quick);
        assert_ne!(a.ctx.results_dir, b.ctx.results_dir);
        let cache = format!("calibration-sandybridge-{}.json", crate::SEED);
        assert!(a.ctx.results_dir.join(&cache).exists(), "caches are seeded");
        let root = a.ctx.results_dir.clone();
        drop(a);
        assert!(!root.exists(), "the sandbox is removed on drop");
    }
}
