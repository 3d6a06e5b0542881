//! End-to-end chaos tests of the fault-tolerant pipeline: every injected
//! fault class, in a real supervised run over real (micro) networks, must
//! end in a typed report — never a process abort — and the degradation
//! controller must demonstrably walk the paper's resolution ladder down
//! under overload and back up once it clears.

use dronet::core::zoo;
use dronet::detect::supervisor::{Health, Supervisor, SupervisorConfig};
use dronet::detect::{
    DegradeConfig, DegradeController, DetectStage, Detection, DetectorBuilder, FaultConfig,
    FaultKind, FaultPlan, FaultyDetector, FaultyFrameSource, IterSource, Result as DetectResult,
};
use dronet::obs::{Clock, Registry, TraceKind, Tracer};
use dronet::tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A real (micro-DroNet) detection stage, kept at a fixed tiny input so a
/// chaos run costs milliseconds per frame; without a degradation
/// controller the supervisor resizes incoming frames to what the stage
/// reports via `input_chw`.
fn micro_stage() -> Box<dyn DetectStage> {
    let net = zoo::micro_dronet(32, vec![(1.5, 1.5)]).unwrap();
    Box::new(DetectorBuilder::new(net).build().unwrap())
}

/// A stage that computes nothing and records the `h × w` of every frame it
/// is given: with a controller, frames arrive at the current rung.
struct SizeProbe(Arc<Mutex<Vec<(usize, usize)>>>);

impl DetectStage for SizeProbe {
    fn detect_frame(&mut self, frame: &Tensor) -> DetectResult<Vec<Detection>> {
        let s = frame.shape();
        self.0.lock().unwrap().push((s.height(), s.width()));
        Ok(Vec::new())
    }

    fn input_chw(&self) -> (usize, usize, usize) {
        (3, 32, 32)
    }
}

fn frames(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let mut t = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
            // Distinct, finite content per frame.
            for (j, v) in t.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 31 + j) % 255) as f32 / 255.0;
            }
            t
        })
        .collect()
}

fn patient_config() -> SupervisorConfig {
    SupervisorConfig {
        source_timeout: Duration::from_secs(2),
        stage_timeout: Duration::from_secs(5),
        recovery_frames: 3,
        ..SupervisorConfig::default()
    }
}

/// Corrupt and NaN-poisoned frames: skipped with typed faults, bounded
/// losses, and a Healthy end state.
#[test]
fn chaos_corrupt_and_nan_frames_are_survived() {
    let plan = FaultPlan::from_schedule(vec![
        None,
        Some(FaultKind::CorruptFrame),
        None,
        Some(FaultKind::NanFrame),
        None,
        Some(FaultKind::NanFrame),
        None,
    ]);
    let injected = plan.injected();
    let sup = Supervisor::new(patient_config());
    let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> =
        Box::new(|| Ok(micro_stage()));
    let source = FaultyFrameSource::new(IterSource::new(frames(12)), plan);
    let report = sup.run_sync(source, &mut factory, None).unwrap();
    assert_eq!(
        report.skipped(),
        injected,
        "every faulted frame skipped once"
    );
    assert_eq!(report.processed(), 12 - injected);
    assert_eq!(report.faults.len(), injected);
    for fault in &report.faults {
        assert_eq!(fault.stage, "source");
        assert!(
            fault.description.contains("corrupt frame"),
            "typed CorruptFrame error expected, got: {}",
            fault.description
        );
    }
    assert_eq!(report.final_health, Health::Healthy);
}

/// Detector panics: isolated by `catch_unwind`, converted to typed
/// StageFailed faults, stage restarted, stream continues.
#[test]
fn chaos_detector_panics_are_isolated_and_recovered() {
    let plan = FaultPlan::from_schedule(vec![
        None,
        None,
        Some(FaultKind::DetectorPanic),
        None,
        None,
        None,
        None,
        Some(FaultKind::TransientDetect),
        None,
        None,
    ]);
    let tracer = Tracer::new();
    let sup = Supervisor::new(patient_config()).tracing(&tracer);
    let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> =
        Box::new(move || Ok(Box::new(FaultyDetector::new(micro_stage(), plan.clone()))));
    let report = sup
        .run_sync(IterSource::new(frames(10)), &mut factory, None)
        .unwrap();
    assert_eq!(report.restarts, 1, "one panic, one restart");
    assert!(
        report
            .faults
            .iter()
            .any(|f| f.stage == "detect" && f.description.contains("stage failed")),
        "panic surfaced as a typed StageFailed fault: {:?}",
        report.faults
    );
    assert!(report.retries >= 1, "panicked + transient frames retried");
    assert_eq!(
        report.processed(),
        10,
        "no frame lost: retries recovered all"
    );
    assert_eq!(report.final_health, Health::Healthy);

    // The crash black box recorded what the flight recorder saw: a
    // non-empty event dump attributed to the panicking frame (index 2),
    // ending at that frame's still-open span.
    let bb = report
        .black_box
        .as_ref()
        .expect("panic triggered a black-box dump");
    assert_eq!(bb.frame_ids, [2], "dump attributed to the failing frame");
    assert!(!bb.tail.events.is_empty(), "dump holds the recorder tail");
    let last = bb.tail.events.last().unwrap();
    assert_eq!(last.frame_id, 2, "dump ends at the failing frame's events");
    assert_eq!(
        (last.kind, last.name),
        (TraceKind::Begin, "frame"),
        "the failing frame's span was left open mid-crash"
    );
    assert!(bb.to_text().contains("B frame"));
}

/// Camera stalls past the source deadline: each is recorded as a stall
/// fault against the frame it delayed, without halting, and the run still
/// drains the stream. On a manual clock the stalls are the only time that
/// passes, so the ledger is exact.
#[test]
fn chaos_camera_stalls_trip_the_watchdog_but_not_the_run() {
    let clock = Clock::manual();
    let plan = FaultPlan::from_schedule(vec![
        None,
        Some(FaultKind::SourceStall(Duration::from_millis(80))),
        None,
        None,
        Some(FaultKind::SourceStall(Duration::from_millis(80))),
        None,
    ])
    .clock(&clock);
    let obs = Registry::new();
    let sup = Supervisor::new(SupervisorConfig {
        source_timeout: Duration::from_millis(20),
        ..patient_config()
    })
    .clock(&clock)
    .observability(&obs);
    let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> =
        Box::new(|| Ok(micro_stage()));
    let source = FaultyFrameSource::new(IterSource::new(frames(10)), plan);
    let report = sup.run_sync(source, &mut factory, None).unwrap();
    assert_eq!(report.stalls, 2, "two 80ms stalls vs a 20ms deadline");
    let stall = "source stage exceeded its 20ms deadline (ran 80ms)".to_string();
    assert_eq!(
        report.fault_signature(),
        [
            (Some(1), "source", stall.clone()),
            (Some(4), "source", stall)
        ],
        "each stall names the frame it delayed"
    );
    assert_eq!(report.processed(), 10);
    assert_ne!(report.final_health, Health::Halted);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("supervisor.stalls"), Some(2));
    assert!(snap.gauge("supervisor.health").unwrap() < Health::Halted.as_metric());
}

/// A slow detector stage: a pass that returns after its deadline is a
/// `detect` fault against its frame, whose detections are kept. Nothing
/// is abandoned or rebuilt, so the stage is built once and every frame is
/// processed.
#[test]
fn chaos_slow_stage_is_a_deadline_fault_not_a_restart() {
    let clock = Clock::manual();
    let plan = FaultPlan::from_schedule(vec![
        Some(FaultKind::SlowDetect(Duration::from_millis(400))),
        None,
        None,
        None,
    ])
    .clock(&clock);
    let sup = Supervisor::new(SupervisorConfig {
        stage_timeout: Duration::from_millis(60),
        ..patient_config()
    })
    .clock(&clock);
    let mut builds = 0;
    let mut factory = || -> DetectResult<Box<dyn DetectStage>> {
        builds += 1;
        Ok(Box::new(FaultyDetector::new(micro_stage(), plan.clone())))
    };
    let report = sup
        .run_sync(IterSource::new(frames(6)), &mut factory, None)
        .unwrap();
    assert_eq!(
        report.fault_signature(),
        [(
            Some(0),
            "detect",
            "detect stage exceeded its 60ms deadline (ran 400ms)".to_string()
        )]
    );
    assert_eq!(report.restarts, 0, "a slow stage is not restarted");
    assert_eq!(builds, 1);
    assert_eq!(report.processed(), 6);
    assert_eq!(report.frames[0].latency, Duration::from_millis(400));
}

/// The headline acceptance scenario: sustained overload walks the detector
/// down the paper's full 608 → 352 ladder (asserted through the obs
/// gauges), and the controller upshifts again once the load clears —
/// ending Healthy. On a manual clock the spikes are the only latency, so
/// the walk is exact: one rung per 2-frame window.
#[test]
fn chaos_overload_degrades_to_352_and_recovers() {
    // 20 latency-spiked detector calls, then a clean tail.
    let mut schedule = vec![Some(FaultKind::SlowDetect(Duration::from_millis(40))); 20];
    schedule.extend(std::iter::repeat_n(None, 30));
    let clock = Clock::manual();
    let plan = FaultPlan::from_schedule(schedule).clock(&clock);

    let ladder = zoo::resolution_ladder();
    assert_eq!(ladder.first(), Some(&352));
    assert_eq!(ladder.last(), Some(&608));
    let controller = DegradeController::new(DegradeConfig {
        overload_windows: 1,
        calm_windows: 1,
        cooldown_windows: 0,
        window_frames: 2,
        ..DegradeConfig::over_ladder(ladder.clone())
    })
    .unwrap();
    assert_eq!(controller.current(), 608);

    let sup = Supervisor::new(SupervisorConfig {
        // 40ms latency at a 60 FPS camera is 2 estimated drops per frame;
        // clean frames take no time on the manual clock.
        camera_fps: Some(60.0),
        recovery_frames: 2,
        ..patient_config()
    })
    .clock(&clock);
    let obs = Registry::new();
    let sup = sup.observability(&obs);

    // The stage records the size of every frame it is given and computes
    // nothing, so the ladder walk costs no forward at 608²; the frame
    // sizes are what the ladder contract is about.
    let received = Arc::new(Mutex::new(Vec::new()));
    let received_in = Arc::clone(&received);
    let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> = Box::new(move || {
        Ok(Box::new(FaultyDetector::new(
            SizeProbe(Arc::clone(&received_in)),
            plan.clone(),
        )))
    });

    let report = sup
        .run_sync(IterSource::new(frames(50)), &mut factory, Some(controller))
        .unwrap();

    assert_eq!(
        report.resolution_history,
        [608, 576, 544, 512, 480, 448, 416, 384, 352, 384, 416, 448, 480, 512, 544, 576, 608],
        "ten hot windows walk down to the floor, fifteen calm ones back up"
    );
    assert_eq!(clock.now(), Duration::from_millis(20 * 40));
    assert!(
        report.resolution_history.contains(&352),
        "overload reached the bottom of the ladder: {:?}",
        report.resolution_history
    );
    assert_eq!(
        report.downshifts(),
        (ladder.len() - 1) as u32,
        "walked every rung down: {:?}",
        report.resolution_history
    );
    assert!(
        report.upshifts() >= 1,
        "recovered at least one rung after the load cleared: {:?}",
        report.resolution_history
    );
    // The stage really ran at the shifted resolutions.
    let received = received.lock().unwrap();
    assert!(received.contains(&(352, 352)) && received.contains(&(608, 608)));
    assert_eq!(report.processed(), 50, "overload degraded, never dropped");
    assert_eq!(report.final_health, Health::Healthy);

    // And the whole story is visible through the obs registry.
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("degrade.downshifts"),
        Some(report.downshifts() as u64)
    );
    assert_eq!(
        snap.counter("degrade.upshifts"),
        Some(report.upshifts() as u64)
    );
    let final_input = snap.gauge("detect.input_size").unwrap();
    assert_eq!(
        final_input as usize,
        *report.resolution_history.last().unwrap()
    );
    assert!(final_input as usize > 352, "upshifted off the floor");
    assert_eq!(snap.gauge("supervisor.health"), Some(0.0));
}

/// Determinism: the same seed yields the same fault schedule and the
/// same fault ledger, frame for frame.
#[test]
fn chaos_same_seed_same_report() {
    // Timing-free fault classes only, so the ledger is exactly comparable.
    let config = FaultConfig {
        stall_prob: 0.0,
        slow_prob: 0.0,
        corrupt_prob: 0.10,
        nan_prob: 0.10,
        transient_prob: 0.10,
        panic_prob: 0.05,
        ..FaultConfig::default()
    };
    let run = |seed: u64| {
        let plan = FaultPlan::generate(seed, 40, &config);
        let sup = Supervisor::new(patient_config());
        let source_plan = plan.clone();
        let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> =
            Box::new(move || Ok(Box::new(FaultyDetector::new(micro_stage(), plan.clone()))));
        let source = FaultyFrameSource::new(IterSource::new(frames(40)), source_plan);
        sup.run_sync(source, &mut factory, None).unwrap()
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a.fault_signature(), b.fault_signature());
    assert_eq!(a.processed(), b.processed());
    assert_eq!(a.skipped(), b.skipped());
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.final_health, b.final_health);
    // And it genuinely injected something, or the test proves nothing.
    assert!(!a.faults.is_empty() || a.retries > 0);
}

/// Soak: a seeded mixed-fault storm across every class; the supervisor
/// must account for every frame and never abort the process.
#[test]
fn chaos_soak_every_fault_class_accounted() {
    let config = FaultConfig {
        stall_prob: 0.03,
        corrupt_prob: 0.06,
        nan_prob: 0.06,
        transient_prob: 0.06,
        slow_prob: 0.03,
        panic_prob: 0.03,
        stall: Duration::from_millis(5),
        slow: Duration::from_millis(5),
    };
    let n = 60;
    let plan = FaultPlan::generate(99, n, &config);
    let injected = plan.injected();
    let sup = Supervisor::new(patient_config());
    let source_plan = plan.clone();
    let mut factory: Box<dyn FnMut() -> DetectResult<Box<dyn DetectStage>>> =
        Box::new(move || Ok(Box::new(FaultyDetector::new(micro_stage(), plan.clone()))));
    let source = FaultyFrameSource::new(IterSource::new(frames(n)), source_plan);
    let report = sup.run_sync(source, &mut factory, None).unwrap();
    // The loop is lossless: every frame either processed or typed-skipped.
    assert_eq!(report.processed() + report.skipped(), n);
    assert!(
        report.skipped() <= injected,
        "skips bounded by injected faults"
    );
    assert_ne!(report.final_health, Health::Halted);
}
