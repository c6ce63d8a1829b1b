//! Interactive exploration tool: run any workload/machine/approach
//! combination and print the full accounting summary.
//!
//! ```sh
//! cargo run --release -p experiments --bin explore -- \
//!     --machine sandybridge --workload solr --load half \
//!     --approach recalibrated --secs 10 --seed 7
//! ```

use experiments::output::DEFAULT_RESULTS_DIR;
use experiments::cache;
use power_containers::Approach;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

struct Args {
    machine: String,
    workload: WorkloadKind,
    load: LoadLevel,
    approach: Approach,
    secs: u64,
    seed: u64,
    conditioning: Option<f64>,
    sched: ossim::SchedulerKind,
}

fn usage() -> ! {
    eprintln!(
        "usage: explore [--machine woodcrest|westmere|sandybridge] \
         [--workload rsa|solr|webwork|stress|gae|hybrid] \
         [--load peak|half|<fraction>] \
         [--approach core|chipshare|recalibrated] \
         [--secs N] [--seed N] [--cap WATTS] [--sched rr|priority|cfs]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        machine: "sandybridge".to_string(),
        workload: WorkloadKind::Solr,
        load: LoadLevel::Peak,
        approach: Approach::ChipShare,
        secs: 10,
        seed: 42,
        conditioning: None,
        sched: ossim::SchedulerKind::RoundRobin,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--machine" => args.machine = value,
            "--workload" => {
                args.workload = match value.as_str() {
                    "rsa" => WorkloadKind::RsaCrypto,
                    "solr" => WorkloadKind::Solr,
                    "webwork" => WorkloadKind::WeBWorK,
                    "stress" => WorkloadKind::Stress,
                    "gae" => WorkloadKind::GaeVosao,
                    "hybrid" => WorkloadKind::GaeHybrid,
                    _ => usage(),
                }
            }
            "--load" => {
                args.load = match value.as_str() {
                    "peak" => LoadLevel::Peak,
                    "half" => LoadLevel::Half,
                    other => LoadLevel::Fraction(other.parse().unwrap_or_else(|_| usage())),
                }
            }
            "--approach" => {
                args.approach = match value.as_str() {
                    "core" => Approach::CoreEventsOnly,
                    "chipshare" => Approach::ChipShare,
                    "recalibrated" => Approach::Recalibrated,
                    _ => usage(),
                }
            }
            "--secs" => args.secs = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--cap" => args.conditioning = Some(value.parse().unwrap_or_else(|_| usage())),
            "--sched" => {
                args.sched = ossim::SchedulerKind::parse(&value).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let results_dir = std::env::var_os("PC_RESULTS_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| DEFAULT_RESULTS_DIR.into(), std::path::PathBuf::from);
    let spec = hwsim::MachineSpec::all_machines()
        .into_iter()
        .find(|m| m.name == args.machine)
        .unwrap_or_else(|| usage());
    eprintln!("[calibrating {} ...]", spec.name);
    let cal = cache::calibration_for(&results_dir, &spec, experiments::SEED);

    let mut cfg = RunConfig::new(spec);
    cfg.seed = args.seed;
    cfg.approach = args.approach;
    cfg.load = args.load;
    cfg.duration = SimDuration::from_secs(args.secs);
    cfg.conditioning = args.conditioning.map(power_containers::ConditioningPolicy::new);
    cfg.sched = args.sched;
    let outcome = run_app(args.workload, &cfg, &cal);

    let secs = outcome.end.as_secs_f64();
    let stats = outcome.stats.borrow();
    let f = outcome.facility.borrow();
    let c = f.containers();
    println!("workload          : {} on {} ({:?})", args.workload, args.machine, args.approach);
    println!("offered / done    : {:.0}/s offered, {:.0}/s completed",
        outcome.offered_rate,
        stats.completions().len() as f64 / secs);
    println!("utilization       : {:.1}%", outcome.mean_utilization() * 100.0);
    println!("measured active   : {:.1} W", outcome.measured_active_power_w());
    println!("attributed        : {:.1} W (validation error {:.1}%)",
        outcome.attributed_energy_j() / secs,
        outcome.validation_error() * 100.0);
    println!("background share  : {:.1}%",
        100.0 * c.background().energy_j()
            / (c.background().energy_j() + c.total_request_energy_j()).max(1e-9));
    let resp = stats.response_summary(None);
    println!("response time     : mean {:.1} ms, max {:.1} ms over {} requests",
        resp.mean() * 1e3, resp.max() * 1e3, resp.count());
    let energies: Vec<f64> = c.records().iter().map(|r| r.energy_j + r.io_energy_j).collect();
    if !energies.is_empty() {
        let mean = energies.iter().sum::<f64>() / energies.len() as f64;
        let p95 = analysis::stats::quantile(&energies, 0.95).unwrap_or(0.0);
        println!("request energy    : mean {:.1} mJ, p95 {:.1} mJ", mean * 1e3, p95 * 1e3);
    }
    println!("maintenance ops   : {} ({} refits)", f.maintenance_ops(), f.refits());
    if let Some(d) = f.aligned_delay() {
        println!("meter alignment   : {d} estimated delay");
    }
}
