//! Investigation watch: detectives watch a scene *before* all the
//! footage has arrived; as bystanders upload over the following hours,
//! the team re-runs the scene query after each upload wave and is
//! alerted to segments it has not seen before — no content transfer.
//!
//! Run with: `cargo run --release --example investigation_watch`

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swag::prelude::*;
use swag_sensors::{generate_trace, scenarios, Mobility};

fn main() {
    let cam = CameraProfile::smartphone();
    let origin = scenarios::default_origin();
    let frame = LocalFrame::new(origin);
    let noise = SensorNoise::smartphone();
    let server = CloudServer::new(cam);

    // The incident scene and window.
    let scene = origin.offset(45.0, 150.0);
    let (t0, t1) = (120.0, 300.0);

    // The watch is set up immediately after the incident...
    let watch = Query::new(t0, t1, scene, 60.0);
    let every_hit = QueryOptions {
        top_n: usize::MAX,
        ..QueryOptions::default()
    };
    let mut seen = HashSet::new();
    println!("watching the scene; waiting for uploads...\n");

    // ...and bystander uploads trickle in afterwards.
    let mut alerts = 0;
    for provider in 0..40u64 {
        let mobility = Mobility::random_waypoint(provider, 400.0, 6, 1.4);
        let duration = mobility.natural_duration_s().unwrap().min(400.0);
        let mut rng = StdRng::seed_from_u64(provider);
        let trace = generate_trace(
            &mobility,
            &frame,
            &TraceConfig::new(25.0, duration),
            &noise,
            &DeviceClock::PERFECT,
            &mut rng,
        );
        let result = ClientPipeline::process_trace(cam, 0.5, &trace);
        let mut uploader = Uploader::new(provider);
        let (_, batch) = uploader
            .upload(result.reps)
            .expect("reps fit the codec range");
        server.ingest_batch(&batch);

        // The investigation team re-queries after each upload wave and
        // is alerted only to footage it has not seen yet.
        for hit in server.query(&watch, &every_hit) {
            if !seen.insert(hit.source) {
                continue;
            }
            alerts += 1;
            println!(
                "ALERT: provider {:>2} segment {:>2} covers the scene — t [{:>5.1}, {:>5.1}] s, {:>3.0} m away, quality {:.3}",
                hit.source.provider_id,
                hit.source.segment_idx,
                hit.rep.t_start,
                hit.rep.t_end,
                hit.distance_m,
                hit.quality
            );
        }
    }

    let stats = server.stats();
    println!(
        "\n{} segments ingested from 40 providers; the watch fired {alerts} alerts",
        stats.segments
    );
    println!("only those {alerts} video segments ever need to be fetched.");
    assert!(alerts > 0, "the crowd should have covered the scene");
}
