//! The one seeded workload generator: sensor traces, connectivity,
//! background corpus, query pool, draw sequence and the live writer's
//! stream all derive from `--seed`. The server only ever sees what this
//! module generated (as wire bytes where the real system has a wire).

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swag_core::{DescriptorCodec, Fov, RepFov, TimedFov, UploadBatch};
use swag_geo::{LatLon, LocalFrame, Vec2};
use swag_net::Connectivity;
use swag_sensors::scenarios::{citywide_rep_fovs, default_origin, CitywideConfig};
use swag_sensors::{generate_trace, DeviceClock, Look, Mobility, SensorNoise, TraceConfig};
use swag_server::{Query, QueryOptions, SegmentRef};

use crate::spec::{Era, QueryClass, Spec, CITY_EXTENT_M, FPS, PASS_SPAN_S, SYNTH_BATCH};

/// Provider ids at or above this belong to synthetic (background or
/// live-writer) batches, below it to the sensor fleet.
const SYNTH_PROVIDER_BASE: u64 = 1_000_000;
/// Length of the pre-drawn query order (walked cyclically).
const DRAW_LEN: usize = 1 << 16;

/// One provider's recording, replayed once per pass.
pub struct FleetTrace {
    /// Frames with `t` relative to the recording's start.
    pub frames: Vec<TimedFov>,
    /// Offset of the recording inside its pass, seconds.
    pub start_in_pass_s: f64,
    /// This provider's WiFi windows over the whole virtual timeline.
    pub connectivity: Connectivity,
}

/// How a pass displaces the fleet: providers move on between videos.
#[derive(Debug, Clone, Copy)]
pub struct PassShift {
    pub dt_s: f64,
    pub dlat: f64,
    pub dlng: f64,
}

/// One wire message and when the server gets it.
#[derive(Clone)]
pub struct Arrival {
    pub at_s: f64,
    pub wire: Bytes,
}

/// One query of the pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolQuery {
    pub query: Query,
    pub heavy: bool,
}

/// Everything a run feeds the system, generated from the seed.
pub struct Inputs {
    pub fleet: Vec<FleetTrace>,
    pub passes: Vec<PassShift>,
    /// Background corpus as time-ordered wire batches.
    pub background: Vec<Arrival>,
    pub pool: Vec<PoolQuery>,
    /// Pool indices in issue order.
    pub draws: Vec<u32>,
    /// The open-loop writer's batches, in send order.
    pub live: Vec<Bytes>,
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Quantises a representative FoV exactly as one trip over the wire does,
/// so WAL/snapshot round-trips are bit-exact and result sets comparable.
fn canonical(rep: &RepFov) -> RepFov {
    let mut buf = bytes::BytesMut::with_capacity(DescriptorCodec::RECORD_SIZE);
    DescriptorCodec::encode_rep(rep, &mut buf).expect("generated rep fits the wire format");
    DescriptorCodec::decode_rep(&mut buf.freeze()).expect("codec round-trip")
}

fn fleet_trace(seed: u64, i: usize, horizon_s: f64) -> FleetTrace {
    let mut rng = rng_for(seed, 1_000 + i as u64);
    let duration_s = rng.random_range(60.0..180.0);
    // 70 % walkers on random waypoints, 15 % drivers, 15 % cyclists who
    // turn: the paper's three recording scenarios.
    let mobility = match i % 20 {
        0..=13 => Mobility::random_waypoint(rng.random(), 1_500.0, 6, rng.random_range(1.0..2.0)),
        14..=16 => Mobility::StraightLine {
            start: Vec2::new(
                rng.random_range(-1_500.0..1_500.0),
                rng.random_range(-1_500.0..1_500.0),
            ),
            heading_deg: rng.random_range(0.0..360.0),
            speed_mps: rng.random_range(8.0..16.0),
            look: Look::Heading,
        },
        _ => Mobility::bike_turn(
            Vec2::new(
                rng.random_range(-1_500.0..1_500.0),
                rng.random_range(-1_500.0..1_500.0),
            ),
            rng.random_range(0.0..360.0),
            duration_s * 2.0,
            90.0,
            4.0,
        ),
    };
    let frames = generate_trace(
        &mobility,
        &LocalFrame::new(default_origin()),
        &TraceConfig::new(FPS, duration_s),
        &SensorNoise::smartphone(),
        &DeviceClock::PERFECT,
        &mut rng,
    );
    // WiFi for 10–30 min out of every 1–2 h, phase per provider.
    let period = rng.random_range(3_600.0..7_200.0);
    let on = rng.random_range(600.0..1_800.0);
    let mut windows = Vec::new();
    let mut t = rng.random_range(0.0..period);
    while t < horizon_s + period {
        windows.push((t, t + on));
        t += period;
    }
    FleetTrace {
        frames,
        start_in_pass_s: rng.random_range(0.0..PASS_SPAN_S - 200.0),
        connectivity: Connectivity::new(windows),
    }
}

fn background(spec: &Spec, seed: u64) -> (Vec<RepFov>, Vec<Arrival>) {
    let cfg = CitywideConfig {
        extent_m: CITY_EXTENT_M,
        time_window_s: spec.background_span_s,
        ..CitywideConfig::default()
    };
    let mut reps = citywide_rep_fovs(spec.background, &cfg, seed ^ 0xB6);
    reps.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    let reps: Vec<RepFov> = reps.iter().map(canonical).collect();
    let arrivals = reps
        .chunks(SYNTH_BATCH)
        .enumerate()
        .map(|(i, chunk)| synth_arrival(SYNTH_PROVIDER_BASE + i as u64, chunk))
        .collect();
    (reps, arrivals)
}

fn synth_arrival(provider_id: u64, reps: &[RepFov]) -> Arrival {
    let batch = UploadBatch {
        provider_id,
        video_id: 0,
        reps: reps.to_vec(),
    };
    Arrival {
        at_s: reps.last().map_or(0.0, |r| r.t_end),
        wire: DescriptorCodec::encode_batch(&batch).expect("generated batch fits the wire format"),
    }
}

/// The writer's stream: fresh segments continuing the background's
/// density past the preloaded horizon, so "now" advances as it sends.
fn live_stream(spec: &Spec, seed: u64, batches: usize) -> Vec<Bytes> {
    let mut rng = rng_for(seed, 7);
    let frame = LocalFrame::new(default_origin());
    let per_virtual_s = spec.background as f64 / spec.background_span_s.max(1.0);
    let step = 1.0 / per_virtual_s.max(1e-3);
    let mut t = spec.horizon_s();
    (0..batches)
        .map(|b| {
            let reps: Vec<RepFov> = (0..SYNTH_BATCH)
                .map(|_| {
                    t += step;
                    let pos = Vec2::new(
                        rng.random_range(-CITY_EXTENT_M..CITY_EXTENT_M),
                        rng.random_range(-CITY_EXTENT_M..CITY_EXTENT_M),
                    );
                    canonical(&RepFov::new(
                        t,
                        t + rng.random_range(2.0..60.0),
                        Fov::new(frame.from_local(pos), rng.random_range(0.0..360.0)),
                    ))
                })
                .collect();
            synth_arrival(SYNTH_PROVIDER_BASE * 2 + b as u64, &reps).wire
        })
        .collect()
}

/// A place and time at which data exists, to centre a query on.
struct Anchors<'a> {
    spec: &'a Spec,
    background: &'a [RepFov],
    fleet: &'a [FleetTrace],
    passes: &'a [PassShift],
}

impl Anchors<'_> {
    fn draw(&self, era: Era, rng: &mut StdRng) -> (LatLon, f64) {
        let horizon = self.spec.horizon_s();
        let (lo, hi) = match era {
            Era::Any => (0.0, horizon),
            Era::Recent(s) => ((horizon - s).max(0.0), horizon),
            Era::Older(s) => (0.0, (horizon - s).max(1.0)),
            Era::Live { back_s, ahead_s } => {
                // The writer fills this range while the run goes on, and
                // its segments are uniform over the city: any place will do.
                let pos = Vec2::new(
                    rng.random_range(-CITY_EXTENT_M..CITY_EXTENT_M),
                    rng.random_range(-CITY_EXTENT_M..CITY_EXTENT_M),
                );
                let t = rng.random_range((horizon - back_s).max(0.0)..horizon + ahead_s);
                return (LocalFrame::new(default_origin()).from_local(pos), t);
            }
        };
        // Background reps are time-sorted, so an era is an index range.
        let from = self.background.partition_point(|r| r.t_start < lo);
        let to = self.background.partition_point(|r| r.t_start < hi);
        // Fleet frames exist only in the newest passes; one anchor in
        // eight sits on them where the era reaches that far.
        let fleet_in_era = hi > self.spec.fleet_t0();
        if to <= from || (fleet_in_era && rng.random_range(0..8) == 0) {
            let tr = &self.fleet[rng.random_range(0..self.fleet.len())];
            let pass = &self.passes[rng.random_range(0..self.passes.len())];
            let f = &tr.frames[rng.random_range(0..tr.frames.len())];
            return (
                LatLon::new(f.fov.p.lat + pass.dlat, f.fov.p.lng + pass.dlng),
                f.t + tr.start_in_pass_s + pass.dt_s,
            );
        }
        let r = &self.background[rng.random_range(from..to)];
        (r.fov.p, r.t_start)
    }

    fn query(&self, class: &QueryClass, era: Era, rng: &mut StdRng) -> Query {
        let (p, t) = self.draw(era, rng);
        let center = p.offset(
            rng.random_range(0.0..360.0),
            rng.random_range(0.0..class.radius_m * 0.5),
        );
        // The anchor's instant falls inside the window, not at its edge;
        // a window longer than the data starts where the data does.
        let data_end = match era {
            Era::Live { ahead_s, .. } => self.spec.horizon_s() + ahead_s,
            _ => self.spec.horizon_s(),
        };
        let t0 = (t - rng.random_range(0.0..class.window_s))
            .min(data_end - class.window_s)
            .max(0.0);
        Query::new(t0, t0 + class.window_s, center, class.radius_m)
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF on a precomputed table.
fn zipf_draws(n: usize, s: f64, len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let u = rng.random_range(0.0..acc);
            cdf.partition_point(|&c| c < u).min(n - 1) as u32
        })
        .collect()
}

impl Inputs {
    /// Generates a run's inputs. `live_batches` sizes the writer's stream
    /// (rate × seconds; 0 for workloads without a writer).
    pub fn generate(spec: &Spec, seed: u64, live_batches: usize) -> Inputs {
        let horizon = spec.horizon_s() + 2.0 * PASS_SPAN_S;
        let fleet: Vec<FleetTrace> = (0..spec.fleet_traces)
            .map(|i| fleet_trace(seed, i, horizon))
            .collect();
        let mut rng = rng_for(seed, 2);
        let frame = LocalFrame::new(default_origin());
        // Between passes the fleet moves to another cell of a 3 x 3 grid
        // over the city (seeded order, jittered), so passes rarely pile up
        // on one spot and density varies little from seed to seed.
        let cells = permutation(9, &mut rng);
        let passes: Vec<PassShift> = (0..spec.fleet_passes)
            .map(|p| {
                let cell = cells[p % 9] as f64;
                let shift = Vec2::new(
                    ((cell % 3.0) - 1.0) * 2_500.0 + rng.random_range(-500.0..500.0),
                    ((cell / 3.0).floor() - 1.0) * 2_500.0 + rng.random_range(-500.0..500.0),
                );
                let moved = frame.from_local(shift);
                PassShift {
                    dt_s: spec.fleet_t0() + p as f64 * PASS_SPAN_S,
                    dlat: moved.lat - frame.origin().lat,
                    dlng: moved.lng - frame.origin().lng,
                }
            })
            .collect();
        let (bg_reps, background) = background(spec, seed);

        let anchors = Anchors {
            spec,
            background: &bg_reps,
            fleet: &fleet,
            passes: &passes,
        };
        let mut rng = rng_for(seed, 3);
        let pool: Vec<PoolQuery> = (0..spec.pool)
            .map(|i| {
                // In pool order every `heavy_every`-th entry is heavy, so
                // a permutation walk and a zipf draw both see the mix.
                let heavy = i % spec.heavy_every == spec.heavy_every - 1;
                let query = if heavy {
                    anchors.query(&spec.heavy, spec.heavy_era, &mut rng)
                } else {
                    anchors.query(&spec.light, spec.light_era, &mut rng)
                };
                PoolQuery { query, heavy }
            })
            .collect();

        let mut rng = rng_for(seed, 4);
        let draws = match spec.zipf_s {
            Some(s) => {
                // Rank → pool index through seeded per-class permutations,
                // so the hot set is not simply the first pool entries, yet
                // every `heavy_every`-th rank is heavy whatever the seed.
                // Heavy draws then walk their permutation instead of
                // following the rank: under zipf a fifth of them would hit
                // one query, and the class median would be that query's
                // cost (it swung 13 % from seed to seed).
                let (heavy, light) = class_permutations(spec, &mut rng);
                let every = spec.heavy_every;
                let mut next_heavy = 0usize;
                zipf_draws(spec.pool, s, DRAW_LEN, &mut rng)
                    .into_iter()
                    .map(|rank| {
                        let rank = rank as usize;
                        if rank % every == every - 1 {
                            next_heavy += 1;
                            heavy[next_heavy % heavy.len()]
                        } else {
                            light[(rank - rank / every) % light.len()]
                        }
                    })
                    .collect()
            }
            None => interleaved(spec, &mut rng),
        };
        let live = live_stream(spec, seed, live_batches);
        Inputs {
            fleet,
            passes,
            background,
            pool,
            draws,
            live,
        }
    }

    /// The options a pool entry is issued with.
    pub fn options(spec: &Spec, q: &PoolQuery) -> QueryOptions {
        QueryOptions {
            top_n: if q.heavy {
                spec.heavy.top_n
            } else {
                spec.light.top_n
            },
            ..QueryOptions::default()
        }
    }

    /// FNV-1a over every generated input byte: same seed ⇒ same digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for tr in &self.fleet {
            h.f64(tr.start_in_pass_s);
            for f in &tr.frames {
                h.f64(f.t);
                h.f64(f.fov.p.lat);
                h.f64(f.fov.p.lng);
                h.f64(f.fov.theta);
            }
            h.u64(tr.connectivity.wifi_at(PASS_SPAN_S) as u64);
            h.f64(tr.connectivity.next_wifi_at(0.0).unwrap_or(-1.0));
        }
        for p in &self.passes {
            h.f64(p.dt_s);
            h.f64(p.dlat);
            h.f64(p.dlng);
        }
        for a in &self.background {
            h.f64(a.at_s);
            h.bytes(&a.wire);
        }
        for q in &self.pool {
            h.f64(q.query.t_start);
            h.f64(q.query.t_end);
            h.f64(q.query.center.lat);
            h.f64(q.query.center.lng);
            h.f64(q.query.radius_m);
            h.u64(q.heavy as u64);
        }
        for d in &self.draws {
            h.u64(u64::from(*d));
        }
        for w in &self.live {
            h.bytes(w);
        }
        h.0
    }
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    perm
}

/// The pool's heavy and light indices, each in a seeded order (never
/// empty: a degenerate pool repeats entry 0).
fn class_permutations(spec: &Spec, rng: &mut StdRng) -> (Vec<u32>, Vec<u32>) {
    let every = spec.heavy_every;
    let (mut heavy, mut light): (Vec<u32>, Vec<u32>) = permutation(spec.pool, rng)
        .into_iter()
        .partition(|&i| i as usize % every == every - 1);
    if heavy.is_empty() {
        heavy.push(0);
    }
    if light.is_empty() {
        light.push(0);
    }
    (heavy, light)
}

/// A closed-loop issue order with exactly one heavy query in every
/// `heavy_every` (at a seeded slot), each class walking its own seeded
/// permutation of the pool, so every block of [`crate::spec::QUERY_BLOCK`]
/// queries holds the same class mix.
fn interleaved(spec: &Spec, rng: &mut StdRng) -> Vec<u32> {
    let every = spec.heavy_every;
    let (heavy, light) = class_permutations(spec, rng);
    let (mut h, mut l) = (0usize, 0usize);
    let mut out = Vec::with_capacity(DRAW_LEN);
    while out.len() < DRAW_LEN {
        let slot = rng.random_range(0..every);
        for k in 0..every {
            if k == slot {
                out.push(heavy[h % heavy.len()]);
                h += 1;
            } else {
                out.push(light[l % light.len()]);
                l += 1;
            }
        }
    }
    out.truncate(DRAW_LEN - DRAW_LEN % every);
    out
}

/// The stable identity of a stored segment: who filmed it and what the
/// server was told about it — never the arrival-assigned `SegmentId`.
pub type RecordKey = (u64, u64, u32, u64, u64, u64, u64, u64);

pub fn record_key(source: &SegmentRef, rep: &RepFov) -> RecordKey {
    (
        source.provider_id,
        source.video_id,
        source.segment_idx,
        rep.t_start.to_bits(),
        rep.t_end.to_bits(),
        rep.fov.p.lat.to_bits(),
        rep.fov.p.lng.to_bits(),
        rep.fov.theta.to_bits(),
    )
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for spec in WORKLOADS {
            let spec = spec.smoke();
            let a = Inputs::generate(&spec, 7, 16).digest();
            let b = Inputs::generate(&spec, 7, 16).digest();
            let c = Inputs::generate(&spec, 8, 16).digest();
            assert_eq!(a, b, "{}: same seed must repeat", spec.name);
            assert_ne!(a, c, "{}: seeds must differ", spec.name);
        }
    }

    #[test]
    fn every_block_holds_the_same_class_mix() {
        for spec in WORKLOADS {
            let spec = spec.smoke();
            let inputs = Inputs::generate(&spec, 3, 0);
            if spec.zipf_s.is_some() {
                continue;
            }
            for block in inputs.draws.chunks_exact(crate::spec::QUERY_BLOCK) {
                let heavy = block
                    .iter()
                    .filter(|&&i| inputs.pool[i as usize].heavy)
                    .count();
                assert_eq!(heavy, crate::spec::QUERY_BLOCK / spec.heavy_every);
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = rng_for(1, 1);
        let draws = zipf_draws(1_000, 1.1, 20_000, &mut rng);
        let head = draws.iter().filter(|&&d| d < 10).count();
        let tail = draws.iter().filter(|&&d| d >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }
}
