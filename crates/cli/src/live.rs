//! Shared live-workload harness for `swag events` and `swag replay`.
//!
//! Both commands need a fully instrumented stack (client segmentation →
//! descriptor upload → observable server) that a workload can advance
//! deterministically tick by tick. [`LiveStack::build`] wires the stack;
//! [`LiveStack::drive`] advances the workload one tick (shifted ingest +
//! a probe query batch, so publishes, retention, and shard churn all
//! happen over time).

use swag_client::{ClientPipeline, Uploader};
use swag_core::{CameraProfile, RepFov, UploadBatch};
use swag_exec::{ExecConfig, Executor};
use swag_net::{observe_plan, plan_uploads, Connectivity, DataPlan, NetworkLink, UploadPolicy};
use swag_obs::Registry;
use swag_sensors::{scenarios, SensorNoise};
use swag_server::{CacheConfig, CloudServer, EventLogConfig, Query, QueryOptions, ServerConfig};

use crate::args::{ArgParser, Spec};

/// Knobs shared by `swag events` and `swag replay`.
pub struct LiveConfig {
    pub seed: u64,
    pub threads: usize,
    /// The wide-event log's slow-query threshold, milliseconds: queries
    /// at or over it are always kept. The option and capture-header key
    /// keep their historical `slo` name so older captures still replay.
    pub slo_millis: u64,
    /// Tail-sampling keep rate for ordinary (fast) events, out of 1000.
    /// Slow queries are always kept.
    pub keep_per_mille: u64,
    /// Data directory for durable serving (`None` = memory-only). With
    /// a directory, ingests are WAL-logged, publishes snapshot
    /// incrementally, and retention demotes expired shards to the cold
    /// tier instead of dropping them.
    pub data_dir: Option<String>,
}

/// What [`LiveConfig::from_args`] reads.
pub const LIVE_ARGS: Spec = Spec {
    options: &[
        "seed",
        "threads",
        "slo-millis",
        "keep-per-mille",
        "data-dir",
    ],
    flags: &[],
};

impl LiveConfig {
    /// Parses the shared `--seed/--threads/--slo-millis/--keep-per-mille/
    /// --data-dir` arguments.
    pub fn from_args(args: &ArgParser) -> Result<LiveConfig, String> {
        let cfg = LiveConfig {
            seed: args.get_u64("seed", 42)?,
            threads: args.get_u64("threads", 2)? as usize,
            slo_millis: args.get_u64("slo-millis", 5)?,
            keep_per_mille: args.get_u64("keep-per-mille", 1_000)?,
            data_dir: args.get("data-dir").map(str::to_string),
        };
        if cfg.slo_millis == 0 {
            return Err("--slo-millis must be positive".into());
        }
        if cfg.keep_per_mille > 1_000 {
            return Err("--keep-per-mille is out of 1000".into());
        }
        Ok(cfg)
    }
}

/// The instrumented stack `swag events` and `swag replay` drive.
pub struct LiveStack {
    pub server: CloudServer,
    /// Representative FoVs of the base recording; re-ingested
    /// time-shifted every few ticks to keep publishes/retention moving.
    reps: Vec<RepFov>,
    probes: Vec<Query>,
    threads: usize,
}

/// Seconds of paper time each drive tick advances the workload.
const TICK_SHIFT_S: f64 = 60.0;

impl LiveStack {
    /// Builds the instrumented probe stack.
    pub fn build(cfg: &LiveConfig) -> Result<LiveStack, String> {
        let cam = CameraProfile::smartphone();
        let registry = Registry::new();

        // Client layer: segment a simulated city recording.
        let trace = scenarios::city_walk(cfg.seed, 3, &SensorNoise::smartphone());
        let mut pipeline = ClientPipeline::new(cam, 0.5)
            .with_smoothing(0.15)
            .with_observability(&registry);
        for &frame in &trace {
            pipeline.push(frame);
        }
        let recording = pipeline.finish();
        if recording.reps.is_empty() {
            return Err("probe workload produced no segments".into());
        }

        // Upload layer: encode descriptors and plan their transmission.
        let mut uploader = Uploader::new(0);
        uploader.attach_observability(&registry);
        let (wire, batch) = uploader
            .upload(recording.reps.clone())
            .map_err(|e| e.to_string())?;
        let uploads = [(30.0, wire.len()), (400.0, wire.len())];
        let plan = plan_uploads(
            UploadPolicy::WifiPreferred { max_delay_s: 300.0 },
            &Connectivity::new(vec![(0.0, 60.0), (900.0, 1800.0)]),
            &uploads,
            &NetworkLink::cellular_4g(),
            &NetworkLink::wifi(),
            &DataPlan::metered(),
        );
        observe_plan(&plan, &uploads, &registry);

        // Server layer: small publish threshold and a retention horizon,
        // so the shifted re-ingest keeps the snapshot lifecycle active.
        // The result cache runs here, so captured events carry real cache
        // decisions.
        let server_config = ServerConfig {
            publish_threshold: 64,
            retention_horizon_s: Some(1_800.0),
            cache: CacheConfig::enabled(2_048),
            // The forensic wide-event log `swag events`/`swag replay` read.
            events: EventLogConfig {
                enabled: true,
                kept_capacity: 512,
                keep_per_mille: cfg.keep_per_mille as u32,
                slow_micros: cfg.slo_millis * 1_000,
                seed: cfg.seed,
            },
            ..ServerConfig::default()
        };
        // With `--data-dir` the live server is durable: it recovers
        // whatever a previous run left behind, WAL-logs every ingest,
        // and retention demotes expired shards to the cold tier.
        let mut server = match &cfg.data_dir {
            Some(dir) => CloudServer::open(dir, cam, server_config)
                .map_err(|e| format!("cannot open data dir '{dir}': {e}"))?,
            None => CloudServer::with_config(cam, server_config),
        };
        server.set_executor(Executor::new(ExecConfig::with_threads(cfg.threads)));
        server.attach_observability(&registry);
        server.ingest_batch(&batch);

        let probes: Vec<Query> = recording
            .reps
            .iter()
            .map(|rep| Query::new(rep.t_start - 5.0, rep.t_end + 5.0, rep.fov.p, 150.0))
            .collect();

        Ok(LiveStack {
            server,
            reps: recording.reps,
            probes,
            threads: cfg.threads,
        })
    }

    /// Advances the workload one tick: every few ticks a time-shifted
    /// copy of the recording is ingested as a new provider (advancing
    /// paper time so publishes fire and retention eventually expires old
    /// shards), then the probe queries run as one batch, time-shifted
    /// the same way so they chase the freshest shards.
    pub fn drive(&self, tick: u64) {
        let shift = (tick / 4) as f64 * TICK_SHIFT_S;
        if tick.is_multiple_of(4) {
            let reps: Vec<RepFov> = self
                .reps
                .iter()
                .map(|r| RepFov::new(r.t_start + shift, r.t_end + shift, r.fov))
                .collect();
            self.server.ingest_batch(&UploadBatch {
                provider_id: 1_000 + tick / 4,
                video_id: 0,
                reps,
            });
        }
        let probes: Vec<Query> = self
            .probes
            .iter()
            .map(|q| Query::new(q.t_start + shift, q.t_end + shift, q.center, q.radius_m))
            .collect();
        self.server
            .query_batch(&probes, &QueryOptions::default(), self.threads);
    }

    /// The query-only half of [`Self::drive`]: runs every probe once at
    /// `tick`'s time shift, ingesting nothing. A capture pass over a
    /// warmed stack is exactly this, so `swag replay` can rebuild the
    /// same store state by re-driving the warm ticks and skipping the
    /// probes.
    pub fn probe(&self, tick: u64) {
        let shift = (tick / 4) as f64 * TICK_SHIFT_S;
        for q in &self.probes {
            let probe = Query::new(q.t_start + shift, q.t_end + shift, q.center, q.radius_m);
            self.server.query(&probe, &QueryOptions::default());
        }
    }
}
