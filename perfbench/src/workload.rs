//! The four workloads: their seeded inputs, the serving set-up they
//! time, and the serial reference answers every served answer must
//! match.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use uhd_core::{
    derive_seed, BitSliceAccumulator, Encoder, HdcModel, Hypervector, InferenceMode,
    LabelledSamples, OnlineLearner, TabularConfig, TabularEncoder, UhdConfig, UhdEncoder,
};
use uhd_datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd_datasets::{generate_sensor_rows, SensorSpec};
use uhd_serve::{HttpServer, HttpServerConfig, ModelRegistry, ServeConfig};

/// Registry worker shards (one per hardware thread of the reference box).
pub const SHARDS: usize = 2;
/// Largest micro-batch a shard claims.
pub const MAX_BATCH: usize = 32;
/// Learner updates per published generation (`learn-mix`).
pub const SNAPSHOT_EVERY: usize = 64;
/// Every `LEARN_EVERY`-th request on a `learn-mix` connection learns.
pub const LEARN_EVERY: u64 = 4;
/// Tickets per `remat-burst` wave.
pub const WAVE: usize = 64;

const IMAGE_DIM: u32 = 1024;
const PIXELS: usize = 784;
const TRAIN_IMAGES: usize = 600;
const IMAGE_QUERIES: usize = 512;
const LEARN_SAMPLES: usize = 512;
const REMAT_QUERIES: usize = 128;
const SENSOR_TENANTS: usize = 32;
const SENSOR_DIM: u32 = 512;
const SENSOR_COLUMNS: usize = 16;
const SENSOR_TRAIN_ROWS: usize = 120;
const SENSOR_QUERY_ROWS: usize = 24;

/// Which traffic the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Digits,
    SensorTenants,
    LearnMix,
    RematBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Digits,
        Workload::SensorTenants,
        Workload::LearnMix,
        Workload::RematBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Digits => "digits",
            Workload::SensorTenants => "sensor-tenants",
            Workload::LearnMix => "learn-mix",
            Workload::RematBurst => "remat-burst",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether traffic arrives over the HTTP front end.
    pub fn http(self) -> bool {
        self != Workload::RematBurst
    }

    /// The registry configuration every process of this workload uses.
    pub fn serve_config(self) -> ServeConfig {
        ServeConfig::new(SHARDS, MAX_BATCH).with_snapshot_every(SNAPSHOT_EVERY)
    }
}

/// One tenant's model inputs.
pub struct TenantData {
    pub name: String,
    /// Index into the workload's encoder family (the sensor tenants'
    /// encoder seeds); 0 elsewhere.
    pub index: usize,
    pub train: Vec<Vec<u8>>,
    pub labels: Vec<usize>,
    pub classes: usize,
}

impl TenantData {
    pub fn samples(&self) -> LabelledSamples<'_> {
        LabelledSamples::new(&self.train, &self.labels).expect("generated data is well formed")
    }
}

/// A classify input and the tenant it goes to.
pub struct Query {
    pub tenant: usize,
    pub input: Vec<u8>,
}

/// Everything a workload sends, generated from the seed alone.
pub struct Inputs {
    pub workload: Workload,
    pub tenants: Vec<TenantData>,
    pub queries: Vec<Query>,
    /// `learn-mix` only: labelled samples learned in sequence order.
    pub learns: Vec<(Vec<u8>, usize)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::SensorTenants => sensor_inputs(seed),
            _ => image_inputs(workload, seed),
        }
    }
}

fn image_inputs(workload: Workload, seed: u64) -> Inputs {
    let kind = SyntheticKind::Mnist;
    let queries = if workload == Workload::RematBurst {
        REMAT_QUERIES
    } else {
        IMAGE_QUERIES
    };
    let (train, test) = generate(SynthSpec::new(
        kind,
        TRAIN_IMAGES,
        queries + LEARN_SAMPLES,
        seed,
    ))
    .expect("synthetic digits generate");
    let (query_part, learn_part) = test.images().split_at(queries);
    let learns = if workload == Workload::LearnMix {
        learn_part
            .iter()
            .cloned()
            .zip(test.labels()[queries..].iter().copied())
            .collect()
    } else {
        Vec::new()
    };
    Inputs {
        workload,
        tenants: vec![TenantData {
            name: "digits".to_string(),
            index: 0,
            train: train.images().to_vec(),
            labels: train.labels().to_vec(),
            classes: kind.classes(),
        }],
        queries: query_part
            .iter()
            .map(|input| Query {
                tenant: 0,
                input: input.clone(),
            })
            .collect(),
        learns,
    }
}

fn sensor_inputs(seed: u64) -> Inputs {
    let mut tenants = Vec::with_capacity(SENSOR_TENANTS);
    let mut per_tenant = Vec::with_capacity(SENSOR_TENANTS);
    for t in 0..SENSOR_TENANTS {
        let mut spec = SensorSpec::new(
            SENSOR_TRAIN_ROWS,
            SENSOR_QUERY_ROWS,
            derive_seed(seed, t as u64),
        );
        spec.columns = SENSOR_COLUMNS;
        let (train, test) = generate_sensor_rows(spec).expect("sensor rows generate");
        tenants.push(TenantData {
            name: format!("sensor-{t:02}"),
            index: t,
            train: train.samples().to_vec(),
            labels: train.labels().to_vec(),
            classes: train.classes(),
        });
        per_tenant.push(test.samples().to_vec());
    }
    // Round-robin across tenants: consecutive queries hit consecutive
    // tenants, so every micro-batch mixes them.
    let mut queries = Vec::with_capacity(SENSOR_TENANTS * SENSOR_QUERY_ROWS);
    for row in 0..SENSOR_QUERY_ROWS {
        for (t, rows) in per_tenant.iter().enumerate() {
            queries.push(Query {
                tenant: t,
                input: rows[row].clone(),
            });
        }
    }
    Inputs {
        workload: Workload::SensorTenants,
        tenants,
        queries,
        learns: Vec::new(),
    }
}

/// The encoder the registry serves tenant `index` through.
pub fn serving_encoder(workload: Workload, index: usize) -> Arc<dyn Encoder> {
    match workload {
        Workload::Digits | Workload::LearnMix => Arc::new(
            UhdEncoder::new(UhdConfig::new(IMAGE_DIM, PIXELS)).expect("uHD encoder builds"),
        ),
        Workload::RematBurst => Arc::new(
            UhdEncoder::new(UhdConfig::new(IMAGE_DIM, PIXELS).rematerialized())
                .expect("rematerialized uHD encoder builds"),
        ),
        Workload::SensorTenants => {
            let mut config = TabularConfig::new(SENSOR_DIM, SENSOR_COLUMNS);
            config.seed = derive_seed(0x5E_4501, index as u64);
            Arc::new(TabularEncoder::new(config).expect("tabular encoder builds"))
        }
    }
}

/// The encoder the workload's models are trained with: the serving
/// encoder, except that `remat-burst`'s model is trained on the
/// (bit-identical, much faster) resident tables and booted from disk.
pub fn training_encoder(workload: Workload, index: usize) -> Arc<dyn Encoder> {
    match workload {
        Workload::RematBurst => serving_encoder(Workload::Digits, index),
        _ => serving_encoder(workload, index),
    }
}

/// A running serving stack and what standing it up cost.
pub struct Stack {
    pub registry: Arc<ModelRegistry>,
    pub server: Option<HttpServer>,
    pub setup_s: f64,
}

/// Stand the workload up: from `ModelRegistry::start` until every tenant
/// is registered and (for HTTP workloads) the listener is bound. Input
/// generation happened before and is not timed.
pub fn setup(inputs: &Inputs, snapshot: Option<&Path>) -> Result<Stack, String> {
    let workload = inputs.workload;
    let started = Instant::now();
    let registry =
        Arc::new(ModelRegistry::start(workload.serve_config()).map_err(|e| format!("start: {e}"))?);
    for tenant in &inputs.tenants {
        let encoder = serving_encoder(workload, tenant.index);
        if let Some(path) = snapshot {
            registry
                .register_from_snapshot(&tenant.name, encoder, path)
                .map_err(|e| format!("register_from_snapshot: {e}"))?;
        } else {
            let model = HdcModel::train(encoder.as_ref(), tenant.samples(), tenant.classes)
                .map_err(|e| format!("train: {e}"))?;
            registry
                .register(&tenant.name, encoder, model)
                .map_err(|e| format!("register: {e}"))?;
        }
    }
    let server = if workload.http() {
        Some(
            HttpServer::start(Arc::clone(&registry), HttpServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?,
        )
    } else {
        None
    };
    Ok(Stack {
        registry,
        server,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The serial answers served answers are checked against, computed
/// before any serving process starts.
pub struct Reference {
    /// One trained model per tenant (generation 0).
    pub models: Vec<HdcModel>,
    /// Binarized query hypervector of every query.
    pub query_hvs: Vec<Hypervector>,
    /// `HdcModel::classify_with` at generation 0, per query.
    pub expected: Vec<(usize, f64)>,
    /// `learn-mix`: the bipolar sums the server's learner observes per
    /// learn sample.
    pub learn_sums: Vec<Vec<i64>>,
}

impl Reference {
    pub fn build(inputs: &Inputs) -> Self {
        let workload = inputs.workload;
        let encoders: Vec<Arc<dyn Encoder>> = inputs
            .tenants
            .iter()
            .map(|t| training_encoder(workload, t.index))
            .collect();
        let models: Vec<HdcModel> = inputs
            .tenants
            .iter()
            .zip(&encoders)
            .map(|(t, e)| {
                HdcModel::train(e.as_ref(), t.samples(), t.classes).expect("reference trains")
            })
            .collect();
        let mut query_hvs = Vec::with_capacity(inputs.queries.len());
        let mut expected = Vec::with_capacity(inputs.queries.len());
        for q in &inputs.queries {
            let encoder = encoders[q.tenant].as_ref();
            query_hvs.push(encoder.encode(&q.input).expect("query encodes"));
            expected.push(
                models[q.tenant]
                    .classify_with(encoder, &q.input, InferenceMode::BinarizedQuery)
                    .expect("reference classifies"),
            );
        }
        let learn_sums = inputs
            .learns
            .iter()
            .map(|(input, _)| {
                let mut acc = BitSliceAccumulator::new(encoders[0].dim());
                encoders[0]
                    .accumulate(input, &mut acc)
                    .expect("learn sample encodes");
                acc.bipolar_sums()
            })
            .collect();
        Reference {
            models,
            query_hvs,
            expected,
            learn_sums,
        }
    }

    /// Replay the server's learner: the model served at each generation
    /// `0..=generations`, given that learns were applied in sequence
    /// order (the load generator serializes them).
    pub fn learned_models(&self, inputs: &Inputs, generations: u64) -> Vec<HdcModel> {
        let config = inputs.workload.serve_config();
        let mut learner =
            OnlineLearner::from_model(&self.models[0]).with_max_classes(config.max_classes);
        let mut models = vec![self.models[0].clone()];
        let mut applied = 0usize;
        while (models.len() as u64) <= generations {
            let j = applied % inputs.learns.len();
            learner
                .observe_sums(&self.learn_sums[j], inputs.learns[j].1)
                .expect("replayed learn applies");
            applied += 1;
            if applied.is_multiple_of(SNAPSHOT_EVERY) {
                models.push(learner.snapshot().expect("replayed snapshot"));
            }
        }
        models
    }
}
