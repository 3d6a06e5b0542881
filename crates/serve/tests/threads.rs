//! A running server has one supervisory thread whatever its replica
//! count. This file holds one test so that the process holds one server:
//! thread names are read from `/proc/self/task/*/comm`.

#![cfg(target_os = "linux")]

use dronet_core::{zoo, ModelId};
use dronet_detect::DetectorBuilder;
use dronet_obs::{Registry, Tracer};
use dronet_serve::{DetectorFactory, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[test]
fn three_replicas_run_under_one_supervisory_thread() {
    let factory: DetectorFactory =
        Arc::new(|| DetectorBuilder::new(zoo::build(ModelId::DroNet, 32)?).build());
    let config = ServeConfig {
        replicas: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(factory, config, &Registry::new(), &Tracer::noop()).expect("start");
    // A thread names itself once it runs; until then it reads as its parent.
    let named = || ["serve-replicas", "serve-worker-0", "serve-accept"].map(threads_named);
    let deadline = Instant::now() + Duration::from_secs(10);
    while named() != [1, 3, 1] && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(named(), [1, 3, 1], "one supervisor, a worker per replica");
    assert_eq!(threads_named("serve-watchdog"), 0, "no per-replica thread");
    assert!(server.shutdown().drained);
    assert_eq!(threads_named("serve-replicas"), 0, "joined at shutdown");
}
