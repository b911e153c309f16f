//! The traced run: serial, one connection, the workload's seeded
//! inputs. Each layer is timed from outside by calling its public
//! functions; a layer's self time is its call's median minus the
//! medians of the layer calls nested inside it.

use crate::load::TIMEOUT;
use crate::stats::median;
use crate::wire::{self, Conn};
use crate::workload::{serving_encoder, training_encoder, Inputs, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uhd_core::{BitSliceAccumulator, HdcModel};
use uhd_serve::{HttpServer, HttpServerConfig, ModelRegistry};

/// Wall time spent sampling one layer.
const BUDGET: Duration = Duration::from_millis(400);
/// Fewest samples per layer, whatever the budget.
const MIN_SAMPLES: usize = 16;
/// Associative-memory searches per timed sample (one search is well
/// under a microsecond, near the clock's own overhead).
const AM_BATCH: usize = 64;

/// The figures [`run`] reports, in order: `…_s` in seconds, the rest
/// in microseconds.
pub const FIGURES: [&str; 12] = [
    "setup.encoder_build_s",
    "setup.encoder_rebuild_s",
    "setup.train_s",
    "setup.register_s",
    "encode.us",
    "am.us",
    "registry.classify_us",
    "registry.self_us",
    "http.rtt_us",
    "http.self_us",
    "learn.us",
    "learn.publish_us",
];

/// Median µs of `f`, sampled until the budget is spent.
fn sample_us(mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || started.elapsed() < BUDGET {
        let i = samples.len();
        let at = Instant::now();
        f(i);
        samples.push(at.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples).expect("at least MIN_SAMPLES")
}

fn seconds(f: impl FnOnce()) -> f64 {
    let at = Instant::now();
    f();
    at.elapsed().as_secs_f64()
}

/// Time every layer for tenant 0 of `inputs`; returns `(name, value)`
/// pairs. Must run first in a fresh process, so the first encoder build
/// pays the process-wide caches a real start pays.
pub fn run(inputs: &Inputs, work_dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = inputs.workload;
    let tenant = &inputs.tenants[0];
    let queries: Vec<&[u8]> = inputs
        .queries
        .iter()
        .filter(|q| q.tenant == 0)
        .map(|q| q.input.as_slice())
        .collect();
    let pick = |i: usize| queries[i % queries.len()];

    let mut encoder = None;
    let build_s = seconds(|| encoder = Some(serving_encoder(workload, tenant.index)));
    let encoder = encoder.expect("built");
    let rebuild_s = seconds(|| drop(serving_encoder(workload, tenant.index)));

    let trainer = training_encoder(workload, tenant.index);
    let mut model = None;
    let train_s = seconds(|| {
        model = Some(HdcModel::train(
            trainer.as_ref(),
            tenant.samples(),
            tenant.classes,
        ));
    });
    let model = model.expect("trained").map_err(|e| format!("train: {e}"))?;

    let registry =
        Arc::new(ModelRegistry::start(workload.serve_config()).map_err(|e| format!("start: {e}"))?);
    let name = tenant.name.as_str();
    let mut registered = Ok(());
    let register_s = if workload == Workload::RematBurst {
        let path = work_dir.join(format!("layers-{}.uhd", std::process::id()));
        uhd_core::snapshot::save_atomic(&model, &path).map_err(|e| format!("snapshot: {e}"))?;
        let s = seconds(|| {
            registered = registry.register_from_snapshot(name, Arc::clone(&encoder), &path);
        });
        let _ = std::fs::remove_file(&path);
        s
    } else {
        seconds(|| registered = registry.register(name, Arc::clone(&encoder), model.clone()))
    };
    registered.map_err(|e| format!("register: {e}"))?;

    let mut acc = BitSliceAccumulator::new(encoder.dim());
    let encode_us = sample_us(|i| {
        std::hint::black_box(encoder.encode_into(pick(i), &mut acc).expect("encodes"));
    });
    let hvs: Vec<_> = queries
        .iter()
        .map(|q| encoder.encode(q).expect("encodes"))
        .collect();
    let am = model.associative_memory();
    let mut dists = Vec::new();
    let am_us = sample_us(|i| {
        for k in 0..AM_BATCH {
            let hv = &hvs[(i * AM_BATCH + k) % hvs.len()];
            std::hint::black_box(am.nearest_with(hv, &mut dists).expect("searches"));
        }
    }) / AM_BATCH as f64;

    let classify_us = sample_us(|i| {
        std::hint::black_box(registry.classify(name, pick(i)).expect("classifies"));
    });

    let server = HttpServer::start(Arc::clone(&registry), HttpServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn =
        Conn::connect(server.local_addr(), TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| wire::post(&format!("/v1/{name}/classify"), q))
        .collect();
    let mut body = Vec::new();
    let rtt_us = sample_us(|i| {
        let status = conn
            .round_trip(&requests[i % requests.len()], &mut body)
            .expect("round trip");
        assert_eq!(status, 200, "traced classify failed");
    });
    drop(conn);
    drop(server);

    // Learning last: it moves the served model.
    let learns: Vec<(&[u8], usize)> = if inputs.learns.is_empty() {
        tenant
            .train
            .iter()
            .map(Vec::as_slice)
            .zip(tenant.labels.iter().copied())
            .collect()
    } else {
        inputs
            .learns
            .iter()
            .map(|(x, l)| (x.as_slice(), *l))
            .collect()
    };
    let learn_us = sample_us(|i| {
        let (x, label) = learns[i % learns.len()];
        std::hint::black_box(registry.learn(name, x, label).expect("learns"));
    });
    let publish_us = sample_us(|_| {
        std::hint::black_box(registry.publish(name).expect("publishes"));
    });
    registry.shutdown();

    let values = [
        build_s,
        rebuild_s,
        train_s,
        register_s,
        encode_us,
        am_us,
        classify_us,
        classify_us - encode_us - am_us,
        rtt_us,
        rtt_us - classify_us,
        learn_us,
        publish_us,
    ];
    Ok(FIGURES.into_iter().zip(values).collect())
}
