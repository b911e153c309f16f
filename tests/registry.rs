//! Integration suite for the multi-tenant model registry: heterogeneous
//! tenants behind one shard pool, disk snapshot persistence, hot swap
//! under concurrent traffic, and load-shedding admission control.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::{BitSliceAccumulator, Encoder, HdcError, NgramTextConfig, NgramTextEncoder};
use uhd::serve::registry::ModelRegistry;
use uhd::serve::{ServeConfig, ServeError};
use uhd_testutil::data::{tiny_labelled, tiny_labelled_features, tiny_language_id, tiny_mnist};

fn image_tenant(dim: u32) -> (Arc<dyn Encoder>, HdcModel, Vec<Vec<u8>>, Vec<usize>) {
    let (train, test) = tiny_mnist(200, 60);
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    (
        Arc::new(encoder),
        model,
        test.images().to_vec(),
        test.labels().to_vec(),
    )
}

fn text_tenant(dim: u32) -> (Arc<dyn Encoder>, HdcModel, Vec<Vec<u8>>) {
    let (train, test) = tiny_language_id(120, 40);
    let encoder = NgramTextEncoder::new(NgramTextConfig::new(dim)).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled_features(&train), train.classes()).unwrap();
    (Arc::new(encoder), model, test.samples().to_vec())
}

/// Acceptance: two tenants of *different workloads and dimensions*
/// (image + n-gram text) served through one pool answer bit-identically
/// to their serial single-model paths, and the scrape carries both
/// tenants' labelled series.
#[test]
fn heterogeneous_tenants_match_their_serial_paths() {
    let (img_enc, img_model, images, _) = image_tenant(1024);
    let (txt_enc, txt_model, texts) = text_tenant(512);
    let registry = ModelRegistry::start(ServeConfig::new(3, 8)).unwrap();
    registry
        .register("digits", Arc::clone(&img_enc), img_model.clone())
        .unwrap();
    registry
        .register("langid", Arc::clone(&txt_enc), txt_model.clone())
        .unwrap();
    // Interleave the two tenants' traffic so batches mix them.
    let img_tickets: Vec<_> = images
        .iter()
        .map(|s| registry.submit("digits", s.clone()).unwrap())
        .collect();
    let txt_tickets: Vec<_> = texts
        .iter()
        .map(|s| registry.submit("langid", s.clone()).unwrap())
        .collect();
    for (ticket, sample) in img_tickets.into_iter().zip(&images) {
        let serial = img_model
            .classify_with(img_enc.as_ref(), sample, InferenceMode::BinarizedQuery)
            .unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!((got.class, got.score), serial);
        assert_eq!(got.generation, 0);
    }
    for (ticket, sample) in txt_tickets.into_iter().zip(&texts) {
        let serial = txt_model
            .classify_with(txt_enc.as_ref(), sample, InferenceMode::BinarizedQuery)
            .unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!((got.class, got.score), serial);
    }
    let metrics = registry.render_metrics();
    assert!(metrics.contains("uhd_tenant_completed_total{tenant=\"digits\"}"));
    assert!(metrics.contains("uhd_tenant_completed_total{tenant=\"langid\"}"));
}

/// Acceptance: a persisted tenant snapshot reloads bit-identically and
/// serves the same classifications — across registries, i.e. across
/// "process restarts".
#[test]
fn disk_snapshots_reload_and_serve_identically() {
    let dir = std::env::temp_dir().join(format!("uhd-registry-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("digits.uhdm");
    let (encoder, model, images, _) = image_tenant(512);
    let before: Vec<_> = {
        let registry = ModelRegistry::start(ServeConfig::new(2, 4)).unwrap();
        registry
            .register("digits", Arc::clone(&encoder), model.clone())
            .unwrap();
        registry.save_snapshot("digits", &path).unwrap();
        images
            .iter()
            .map(|s| registry.classify("digits", s).unwrap())
            .collect()
    };
    // The on-disk bytes decode to a bit-identical model…
    let reloaded = uhd::core::snapshot::load(&path).unwrap();
    assert_eq!(reloaded.to_bytes(), model.to_bytes());
    // …and a fresh registry booted from the file answers identically.
    let registry = ModelRegistry::start(ServeConfig::new(2, 4)).unwrap();
    registry
        .register_from_snapshot("digits", encoder, &path)
        .unwrap();
    for (sample, expected) in images.iter().zip(&before) {
        let got = registry.classify("digits", sample).unwrap();
        assert_eq!((got.class, got.score), (expected.class, expected.score));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// N tenants keep classifying while another thread hot-swaps one of
/// them and persists snapshots mid-traffic: every answer is coherent
/// (a valid class from generation 0 or the swapped one — never torn),
/// and the persisted file always decodes.
#[test]
fn concurrent_classifies_survive_hotswap_and_persist() {
    let dir = std::env::temp_dir().join(format!("uhd-registry-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (encoder, model, images, _) = image_tenant(512);
    // A second generation trained on cyclically shifted labels, so the
    // two generations are distinguishable but equally well-formed.
    let (train, _) = tiny_mnist(200, 20);
    let flipped_labels: Vec<usize> = train.labels().iter().map(|&l| (l + 1) % 10).collect();
    let flipped_data = LabelledSamples::new(train.images(), &flipped_labels).unwrap();
    let flipped = HdcModel::train(encoder.as_ref(), flipped_data, 10).unwrap();
    let registry = Arc::new(ModelRegistry::start(ServeConfig::new(3, 8)).unwrap());
    for tenant in ["a", "b", "c"] {
        registry
            .register(tenant, Arc::clone(&encoder), model.clone())
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for tenant in ["a", "b", "c"] {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let images = &images;
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let sample = &images[i % images.len()];
                    let response = registry.classify(tenant, sample).unwrap();
                    assert!(response.class < 10, "classes stay in range mid-swap");
                    i += 1;
                }
            });
        }
        // Meanwhile: hot-swap tenant "b" back and forth and persist
        // its current model each time.
        let path = dir.join("b.uhdm");
        for round in 0u64..8 {
            let next = if round % 2 == 0 {
                flipped.clone()
            } else {
                model.clone()
            };
            let generation = registry.update_model("b", next).unwrap();
            assert_eq!(generation, round + 1);
            registry.save_snapshot("b", &path).unwrap();
            let decoded = uhd::core::snapshot::load(&path).unwrap();
            assert_eq!(decoded.dim(), 512, "every persisted file decodes");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // After the dust settles, "b" serves the last swapped model.
    assert_eq!(registry.generation("b").unwrap(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// Delegates to a real encoder but parks `accumulate` until released,
/// so the test can freeze the pool and fill the queue deterministically.
struct GateEncoder {
    inner: UhdEncoder,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Encoder for GateEncoder {
    fn dim(&self) -> u32 {
        self.inner.dim()
    }
    fn features(&self) -> usize {
        self.inner.features()
    }
    fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        let (open, released) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = released.wait(open).unwrap();
        }
        drop(open);
        self.inner.accumulate(input, acc)
    }
    fn profile(&self) -> uhd::core::EncoderProfile {
        self.inner.profile()
    }
}

/// Acceptance: past the configured admission threshold, submits return
/// `Overloaded` (and the shed counters say so), while everything
/// admitted still completes.
#[test]
fn admission_control_sheds_past_the_threshold() {
    let (train, test) = tiny_mnist(120, 10);
    let encoder = UhdEncoder::new(UhdConfig::new(256, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let gated: Arc<dyn Encoder> = Arc::new(GateEncoder {
        inner: encoder,
        gate: Arc::clone(&gate),
    });
    let registry = ModelRegistry::start(ServeConfig::new(1, 1).with_shed_above(2)).unwrap();
    registry.register("t", gated, model).unwrap();
    let images = test.images();
    // The lone worker claims the first request and parks in the gated
    // encoder, leaving the queue empty.
    let parked = registry.submit("t", images[0].clone()).unwrap();
    while registry.queue_depth() != 0 {
        std::thread::yield_now();
    }
    let queued = [
        registry.submit("t", images[1].clone()).unwrap(),
        registry.submit("t", images[2].clone()).unwrap(),
    ];
    match registry.submit("t", images[3].clone()) {
        Err(ServeError::Overloaded { depth, shed_above }) => {
            assert_eq!((depth, shed_above), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Waves are shed whole against the same threshold.
    assert!(matches!(
        registry.submit_many("t", &images[3..4]),
        Err(ServeError::Overloaded { depth: 2, .. })
    ));
    let metrics = registry.render_metrics();
    assert!(metrics.contains("uhd_requests_shed_total 2\n"));
    assert!(metrics.contains("uhd_tenant_shed_total{tenant=\"t\"} 2\n"));
    assert_eq!(registry.stats().submitted, 3);
    // Open the gate: everything admitted completes.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    assert!(parked.wait().is_ok());
    for ticket in queued {
        assert!(ticket.wait().is_ok());
    }
}
