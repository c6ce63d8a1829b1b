//! Trace one multi-stage WeBWorK request through the server (paper
//! Fig. 4): Apache/PHP → MySQL → shell → latex → dvipng, with power and
//! energy attributed to each stage while the request context rides
//! socket messages and forks.
//!
//! ```sh
//! cargo run --example webwork_trace
//! ```

fn main() {
    // The experiment writes its record into a throwaway sandbox, so the
    // example never touches the committed `results/`.
    let sandbox = experiments::runner::Sandbox::new(experiments::Scale::Quick);
    let record = experiments::fig04::run(&sandbox.ctx);
    println!("\nstage summary (as in the paper's Fig. 4 annotations):");
    for s in &record.stages {
        println!(
            "  {:<20} {:>5.1} W  {:>7.2} mJ  {:>6.2} ms",
            s.stage,
            s.power_w,
            s.energy_j * 1e3,
            s.busy_ms
        );
    }
    println!(
        "\nrequest total {:.1} mJ, response time {:.1} ms — every stage was \
         attributed to one container without touching application code.",
        record.total_energy_j * 1e3,
        record.response_ms
    );
}
