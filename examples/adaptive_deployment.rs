//! Adaptive deployment (paper §VII): a city operator rolls SWAG out
//! across districts with very different sight lines, using **site
//! surveys** to pick each district's radius of view, **sensor smoothing**
//! to tame cheap phone sensors, and a **durable data directory** to
//! survive restarts.
//!
//! Run with: `cargo run --release --example adaptive_deployment`

use rand::rngs::StdRng;
use rand::SeedableRng;
use swag::prelude::*;
use swag::server::ServerConfig;
use swag_sensors::{generate_trace, scenarios, Look, Mobility};

fn main() {
    let origin = scenarios::default_origin();
    let frame = LocalFrame::new(origin);
    let noise = SensorNoise {
        gps_sigma_m: 5.0,
        compass_sigma_deg: 8.0,
        dropout_prob: 0.01,
    };

    // --- 1. Site surveys pick per-district camera profiles --------------
    println!("district surveys:");
    let districts = [
        ("riverside promenade", World::new(vec![])),
        ("residential blocks", World::random_city(2, 200.0, 600)),
        ("old town alleys", World::random_city(3, 80.0, 600)),
    ];
    let mut profiles = Vec::new();
    for (name, world) in &districts {
        let r = suggest_view_radius(world, Vec2::ZERO);
        let survey = site_survey(world, Vec2::ZERO, 144, 300.0);
        println!(
            "  {name:<22} median sight {:>4.0} m, open {:>3.0} % -> R = {r:.0} m",
            survey.median_visible_m,
            100.0 * survey.open_fraction
        );
        profiles.push(CameraProfile::new(25.0, r));
    }

    // --- 2. Providers record with noisy sensors + smoothing -------------
    let cam = profiles[1]; // deploy in the residential district
    let data_dir = std::env::temp_dir().join(format!("swag-deployment-{}", std::process::id()));
    let server = CloudServer::open(&data_dir, cam, ServerConfig::default()).expect("data dir");
    let mut raw_segments = 0usize;
    let mut smooth_segments = 0usize;
    for provider in 0..12u64 {
        let mobility = Mobility::StraightLine {
            start: Vec2::new(provider as f64 * 15.0 - 90.0, -200.0),
            heading_deg: 0.0,
            speed_mps: 1.4,
            look: Look::Heading,
        };
        let cfg = TraceConfig::new(25.0, 180.0).starting_at(provider as f64 * 20.0);
        let mut rng = StdRng::seed_from_u64(provider);
        let trace = generate_trace(
            &mobility,
            &frame,
            &cfg,
            &noise,
            &DeviceClock::ntp_synced(40.0),
            &mut rng,
        );

        raw_segments += ClientPipeline::process_trace(cam, 0.5, &trace).segment_count();
        let result = ClientPipeline::process_trace_smoothed(cam, 0.5, 0.15, &trace);
        smooth_segments += result.segment_count();
        let mut uploader = Uploader::new(provider);
        let (_wire, batch) = uploader
            .upload(result.reps)
            .expect("reps fit the codec range");
        server.ingest_batch(&batch);
    }
    println!(
        "\nsmoothing: {raw_segments} raw segments -> {smooth_segments} smoothed \
         ({}x fewer uploads at identical coverage)",
        raw_segments / smooth_segments.max(1)
    );

    // --- 3. Restart on the data directory, keep answering ---------------
    println!("data dir: {} segments", server.stats().segments);
    drop(server);
    let restored = CloudServer::open(&data_dir, cam, ServerConfig::default()).expect("recovery");

    let spot = origin.offset(0.0, -100.0);
    let q = Query::new(0.0, 500.0, spot, cam.view_radius_m);
    let hits = restored.query(&q, &QueryOptions::default());
    println!(
        "\nafter restart, query at the promenade spot returns {} segments:",
        hits.len()
    );
    for hit in hits.iter().take(5) {
        println!(
            "  provider {:>2} seg {:>2}: {:>4.0} m away, t [{:>5.1}, {:>5.1}] s",
            hit.source.provider_id,
            hit.source.segment_idx,
            hit.distance_m,
            hit.rep.t_start,
            hit.rep.t_end
        );
    }
    assert!(!hits.is_empty());

    // --- 4. No-radius queries via k-nearest ------------------------------
    let nearest = restored.query_nearest(0.0, 500.0, spot, 3, &QueryOptions::default(), 10_000.0);
    println!(
        "\nk-nearest (k=3, no radius): distances {:?} m",
        nearest
            .iter()
            .map(|h| h.distance_m.round())
            .collect::<Vec<_>>()
    );
    drop(restored);
    std::fs::remove_dir_all(&data_dir).ok();
}
