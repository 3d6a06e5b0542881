//! The end-to-end runner (`--trace 0`): sets the workload up, runs the
//! timed window with no spans, checks every output, and prints the four
//! end-to-end metrics. Uses only the library, i.e. only the product's
//! stable entry points.

use dronet_benchmark::args::{self, Args};
use dronet_benchmark::report;
use dronet_benchmark::stats;
use dronet_benchmark::workload::{self, Runner, Serve, Stream, Tiled, Workload, SETUPS};
use std::collections::BTreeMap;
use std::time::Instant;

fn timed_setup<R: Runner>(args: &Args, setup_s: &mut Vec<f64>) -> R {
    let started = Instant::now();
    let runner = R::setup(args.workload, args.seed);
    setup_s.push(started.elapsed().as_secs_f64());
    runner
}

fn drive<R: Runner>(args: &Args) {
    let mut setup_s = Vec::new();
    let mut runner: R = timed_setup(args, &mut setup_s);
    let window = runner.run(args.seconds, None);
    // Read here, so that the peak is one set-up plus the window: the
    // checks below build reference detectors, and the further set-ups
    // would add whatever their predecessors left in the allocator.
    let peak_rss_mb = report::peak_rss_mib();

    let verdicts = runner.check(&window);
    runner.finish();
    let (golden_frames, golden_failed) = workload::check_golden(args.workload);
    for _ in 1..if args.smoke { 1 } else { SETUPS } {
        timed_setup::<R>(args, &mut setup_s).finish();
    }

    let latencies_ms = workload::latencies_ms(&window, &verdicts);
    let passed = latencies_ms.len();
    let failed = (window.len() - passed) as u64 + golden_failed;
    let attempted = window.len() as u64 + golden_frames;
    for (op, _) in window.iter().zip(&verdicts).filter(|(_, ok)| !**ok).take(5) {
        let why = op
            .output
            .as_ref()
            .err()
            .map_or("wrong output", String::as_str);
        eprintln!("failed: frame {} at {:.3} s: {why}", op.frame, op.start_s);
    }

    let callers = workload::completions(&window, &verdicts);

    let values: BTreeMap<String, f64> = [
        (
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("images_per_s", stats::quiet_rate(&callers, callers.len())),
        (
            "latency_ms_p5",
            stats::percentile(&latencies_ms, stats::QUIET_PERCENTILE),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    println!(
        "workload {} seed {}: {} frames in the window, {passed} checked correct, \
         {golden_frames} golden frames ({golden_failed} failed), set-ups {setup_s:.3?} s",
        args.workload.name(),
        args.seed,
        window.len(),
    );
    report::print_result(&report::end_to_end(), &values, attempted, failed);
}

fn main() {
    // The program under test runs its default thread policy.
    std::env::remove_var("DRONET_THREADS");
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            std::process::exit(2);
        }
    };
    if args.write_golden {
        return workload::write_golden(args.workload);
    }
    if args.trace {
        eprintln!("bench-e2e: --trace 1 is the bench-trace binary's job (see run.sh)");
        std::process::exit(2);
    }
    match args.workload {
        Workload::Stream352 => drive::<Stream>(&args),
        Workload::Tile1408 => drive::<Tiled>(&args),
        Workload::Serve352 | Workload::Serve64 => drive::<Serve>(&args),
    }
}
