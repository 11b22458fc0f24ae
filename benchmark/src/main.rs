//! The repository benchmark: socket-to-response serving and
//! observe-to-publish training, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <small_net|scatter_net|train_publish> --seed <n> \
//!     --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero on any correctness miss or invalid measurement.

mod catalog;
mod layers;
mod load;
mod stats;
mod workloads;
mod world;

use workloads::{Args, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: --workload <small_net|scatter_net|train_publish> --seed <n> --seconds <s> \
--trace <0|1> [--scale tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .map_or_else(|| usage(&format!("{flag} needs a value")), String::as_str)
        })
    };
    let workload = value("--workload").unwrap_or_else(|| usage("missing --workload"));
    let workload = Workload::parse(workload).unwrap_or_else(|| usage("unknown workload"));
    let number = |flag: &str, default: Option<f64>| -> f64 {
        match value(flag) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a number"))),
            None => default.unwrap_or_else(|| usage(&format!("missing {flag}"))),
        }
    };
    let seed = number("--seed", None);
    let seconds = number("--seconds", None);
    if !(seconds > 0.0 && seed >= 0.0 && seed.fract() == 0.0) {
        usage("--seconds must be positive and --seed a whole number");
    }
    let scale = match value("--scale") {
        None | Some("full") => world::Scale::full(),
        Some("tiny") => world::Scale::tiny(),
        Some(_) => usage("--scale is full or tiny"),
    };
    Args {
        workload,
        seed: seed as u64,
        seconds,
        trace: number("--trace", Some(0.0)) != 0.0,
        scale,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "benchmark: workload {:?}, seed {}, {} s, trace {}, {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = workloads::run(&args);
    for note in &report.notes {
        println!("{note}");
    }
    let catalog = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let mut problems = report.misses.clone();
    let mut json = Vec::new();
    for &(name, unit, better) in catalog {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {
                println!("metric {name} = {v} {unit} (better: {better})");
                json.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            Some(v) => problems.push(format!("metric {name} is not finite ({v})")),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    if let Some(why) = &report.invalid {
        problems.push(format!("invalid run: {why}"));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("benchmark: FAILED: {p}");
        }
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
}
