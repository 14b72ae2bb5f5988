//! Seeded synthetic traffic generator.
//!
//! Substitutes for the paper's Hong Kong feed (see DESIGN.md). The
//! generator produces exactly the statistical structure the CrowdRTSE
//! algorithms exploit:
//!
//! * **periodicity** — every road follows its [`RoadProfile`] daily curve,
//!   with heterogeneous noise levels (a configurable fraction of roads is
//!   strongly volatile, i.e. weakly periodic);
//! * **correlation** — day-to-day deviations are spatially smoothed over
//!   the road graph (diffusion), so adjacent roads co-vary and the RTF edge
//!   weights `ρ_ij` have real signal to find;
//! * **accidental variance** — random [`Incident`]s depress speeds in a
//!   local neighborhood for a bounded window, which periodicity-only
//!   estimators cannot predict.

use crate::incident::Incident;
use crate::profile::RoadProfile;
use crate::slot::{SlotOfDay, SLOTS_PER_DAY};
use crate::store::HistoryStore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtse_graph::{Graph, RoadId};

/// Standard normal sample via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
pub fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Configuration of the synthetic traffic process.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Days of history to generate (the paper collected 30).
    pub days: usize,
    /// Expected incidents per day across the whole network.
    pub incidents_per_day: f64,
    /// Incident severity range (peak fractional speed drop).
    pub severity_range: (f64, f64),
    /// Incident duration range in slots.
    pub duration_range: (usize, usize),
    /// Incident neighborhood radius in hops.
    pub incident_radius: usize,
    /// AR(1) coefficient of the within-day deviation process.
    pub temporal_persistence: f64,
    /// Diffusion rounds used to spatially correlate deviations.
    pub diffusion_rounds: usize,
    /// Neighbor mixing weight per diffusion round, in `[0, 1)`.
    pub diffusion_weight: f64,
    /// Fraction of roads made strongly volatile (weakly periodic).
    pub weak_periodicity_fraction: f64,
    /// Volatility multiplier applied to those weakly periodic roads.
    pub weak_periodicity_scale: f64,
    /// Floor applied to generated speeds, km/h. Real 5-minute average
    /// feeds bottom out well above zero even in jams; a floor near zero
    /// makes APE-based metrics explode on incident roads.
    pub min_speed_kmh: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            days: 30,
            incidents_per_day: 4.0,
            severity_range: (0.3, 0.7),
            duration_range: (6, 24),
            incident_radius: 2,
            temporal_persistence: 0.85,
            diffusion_rounds: 3,
            diffusion_weight: 0.5,
            weak_periodicity_fraction: 0.2,
            weak_periodicity_scale: 4.0,
            min_speed_kmh: 5.0,
            seed: 0xC0FFEE,
        }
    }
}

impl SynthConfig {
    /// A small, fast configuration for unit tests.
    pub fn small_test() -> Self {
        Self { days: 6, incidents_per_day: 1.0, ..Self::default() }
    }
}

/// Output of one generation run.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// The historical record (training data for RTF).
    pub history: HistoryStore,
    /// One extra held-out day: the "today" the online pipeline estimates.
    pub today: HistoryStore,
    /// Per-road profiles (ground-truth periodic means).
    pub profiles: Vec<RoadProfile>,
    /// Incidents injected into `today` (day index 0 within `today`).
    pub today_incidents: Vec<Incident>,
}

impl SynthDataset {
    /// Ground-truth speed of a road at a slot of the held-out day.
    pub fn ground_truth(&self, slot: SlotOfDay, road: RoadId) -> f64 {
        // `today` is fully observed by construction; the snapshot row
        // indexes directly without an Option round-trip.
        self.today.snapshot(0, slot)[road.index()]
    }

    /// Ground-truth snapshot of the whole network at a slot of today.
    pub fn ground_truth_snapshot(&self, slot: SlotOfDay) -> &[f64] {
        self.today.snapshot(0, slot)
    }
}

/// The generator: owns the graph reference, profiles and RNG state.
pub struct TrafficGenerator<'g> {
    graph: &'g Graph,
    config: SynthConfig,
    profiles: Vec<RoadProfile>,
    rng: StdRng,
}

impl<'g> TrafficGenerator<'g> {
    /// Creates a generator; road profiles (including which roads are weakly
    /// periodic) are drawn immediately from the seed.
    pub fn new(graph: &'g Graph, config: SynthConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let profiles = graph
            .roads()
            .iter()
            .map(|road| {
                let weak = rng.random_range(0.0..1.0) < config.weak_periodicity_fraction;
                let scale = if weak {
                    config.weak_periodicity_scale * rng.random_range(0.8..1.2)
                } else {
                    rng.random_range(0.6..1.4)
                };
                RoadProfile::for_class(road.class, scale)
            })
            .collect();
        Self { graph, config, profiles, rng }
    }

    /// Per-road profiles (exposed for evaluation and tests).
    pub fn profiles(&self) -> &[RoadProfile] {
        &self.profiles
    }

    /// Generates the full dataset: `config.days` of history plus one
    /// held-out day.
    pub fn generate(mut self) -> SynthDataset {
        let n = self.graph.num_roads();
        let days = self.config.days;
        let mut history = HistoryStore::new(n, days);
        for day in 0..days {
            let incidents = self.draw_incidents(day);
            self.fill_day(&mut history, day, &incidents);
        }
        let mut today = HistoryStore::new(n, 1);
        let today_incidents = self.draw_incidents(0);
        self.fill_day(&mut today, 0, &today_incidents);
        let today_incidents = today_incidents.into_iter().map(|(inc, _)| inc).collect();
        SynthDataset { history, today, profiles: self.profiles, today_incidents }
    }

    fn draw_incidents(&mut self, day: usize) -> Vec<(Incident, Vec<usize>)> {
        let n = self.graph.num_roads();
        // Deterministic count close to the configured rate: floor + Bernoulli
        // remainder.
        let base = self.config.incidents_per_day.floor() as usize;
        let extra = usize::from(
            self.rng.random_range(0.0..1.0) < self.config.incidents_per_day - base as f64,
        );
        (0..base + extra)
            .map(|_| {
                let (slo, shi) = self.config.severity_range;
                let (dlo, dhi) = self.config.duration_range;
                let inc = Incident {
                    road: RoadId::from(self.rng.random_range(0..n)),
                    day,
                    start: SlotOfDay(self.rng.random_range(0..SLOTS_PER_DAY as u16)),
                    duration_slots: self.rng.random_range(dlo..=dhi),
                    severity: self.rng.random_range(slo..shi),
                    radius_hops: self.config.incident_radius,
                };
                let hops = inc.hop_field(self.graph);
                (inc, hops)
            })
            .collect()
    }

    /// Fills one day of a store with the AR(1) + diffusion + incident
    /// process.
    fn fill_day(
        &mut self,
        store: &mut HistoryStore,
        day: usize,
        incidents: &[(Incident, Vec<usize>)],
    ) {
        let n = self.graph.num_roads();
        let mut z = vec![0.0_f64; n]; // standardized deviation state
        let mut eta = vec![0.0_f64; n];
        let mut smoothed = vec![0.0_f64; n];
        let ar = self.config.temporal_persistence;
        let innov = (1.0 - ar * ar).sqrt();
        for slot in SlotOfDay::all() {
            // Fresh spatially-correlated innovations.
            for e in eta.iter_mut() {
                *e = gaussian(&mut self.rng);
            }
            for _ in 0..self.config.diffusion_rounds {
                for r in 0..n {
                    let nbrs = self.graph.neighbors(RoadId::from(r));
                    if nbrs.is_empty() {
                        smoothed[r] = eta[r];
                        continue;
                    }
                    let nbr_mean: f64 =
                        nbrs.iter().map(|(j, _)| eta[j.index()]).sum::<f64>() / nbrs.len() as f64;
                    let w = self.config.diffusion_weight;
                    smoothed[r] = (1.0 - w) * eta[r] + w * nbr_mean;
                }
                std::mem::swap(&mut eta, &mut smoothed);
            }
            let row = store.snapshot_mut(day, slot);
            for r in 0..n {
                z[r] = ar * z[r] + innov * eta[r];
                let profile = &self.profiles[r];
                let mut speed = profile.expected_speed(slot) + profile.noise_std(slot) * z[r];
                for (inc, hops) in incidents {
                    speed *= inc.speed_multiplier(day, slot, hops[r]);
                }
                row[r] = speed.max(self.config.min_speed_kmh);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_graph::generators::{grid, path};
    use rtse_math::stats::{mean, pearson};

    fn dataset(days: usize, seed: u64) -> (rtse_graph::Graph, SynthDataset) {
        let g = grid(4, 5);
        let cfg = SynthConfig { days, seed, ..SynthConfig::small_test() };
        let ds = TrafficGenerator::new(&g, cfg).generate();
        (g, ds)
    }

    #[test]
    fn fully_populated_history() {
        let (g, ds) = dataset(3, 1);
        assert_eq!(ds.history.num_records(), g.num_roads() * 3 * SLOTS_PER_DAY);
        assert_eq!(ds.today.num_records(), g.num_roads() * SLOTS_PER_DAY);
    }

    #[test]
    fn deterministic_in_seed() {
        let (_, a) = dataset(2, 7);
        let (_, b) = dataset(2, 7);
        assert_eq!(a.history.snapshot(1, SlotOfDay(100)), b.history.snapshot(1, SlotOfDay(100)));
        let (_, c) = dataset(2, 8);
        assert_ne!(a.history.snapshot(1, SlotOfDay(100)), c.history.snapshot(1, SlotOfDay(100)));
    }

    #[test]
    fn speeds_positive_and_bounded() {
        let (_, ds) = dataset(2, 3);
        for rec in ds.history.records() {
            assert!(rec.speed_kmh >= 1.0);
            assert!(rec.speed_kmh < 200.0, "unreasonable speed {}", rec.speed_kmh);
        }
    }

    #[test]
    fn daily_mean_tracks_profile() {
        // With enough days, the per-slot mean approaches the profile curve.
        let g = path(6);
        let cfg =
            SynthConfig { days: 40, incidents_per_day: 0.0, seed: 5, ..SynthConfig::default() };
        let gen = TrafficGenerator::new(&g, cfg);
        let profiles = gen.profiles().to_vec();
        let ds = gen.generate();
        let slot = SlotOfDay::from_hm(12, 0);
        for r in 0..6 {
            let samples = ds.history.samples(RoadId::from(r), slot);
            let m = mean(&samples);
            let expect = profiles[r].expected_speed(slot);
            let tol = 4.0 * profiles[r].noise_std(slot) / (40.0_f64).sqrt() + 0.5;
            assert!(
                (m - expect).abs() < tol,
                "road {r}: sample mean {m} vs profile {expect} (tol {tol})"
            );
        }
    }

    #[test]
    fn adjacent_roads_positively_correlated() {
        let g = path(4);
        let cfg =
            SynthConfig { days: 60, incidents_per_day: 0.0, seed: 11, ..SynthConfig::default() };
        let ds = TrafficGenerator::new(&g, cfg).generate();
        let slot = SlotOfDay::from_hm(9, 0);
        let (xs, ys) = ds.history.paired_samples(RoadId(1), RoadId(2), slot);
        let r_adj = pearson(&xs, &ys);
        let (xs, ys) = ds.history.paired_samples(RoadId(0), RoadId(3), slot);
        let r_far = pearson(&xs, &ys);
        assert!(r_adj > 0.2, "adjacent correlation too weak: {r_adj}");
        assert!(r_adj > r_far, "adjacent {r_adj} should exceed 3-hop {r_far}");
    }

    #[test]
    fn incidents_depress_today_speeds() {
        let g = grid(3, 3);
        let cfg = SynthConfig {
            days: 2,
            incidents_per_day: 1.0,
            severity_range: (0.69, 0.7),
            duration_range: (20, 24),
            seed: 13,
            ..SynthConfig::default()
        };
        let ds = TrafficGenerator::new(&g, cfg).generate();
        assert!(!ds.today_incidents.is_empty());
        let inc = &ds.today_incidents[0];
        let mid = SlotOfDay((inc.start.index() + inc.duration_slots / 2).min(287) as u16);
        if mid.index() >= inc.start.index() + inc.duration_slots {
            return; // incident truncated by end of day; nothing to assert
        }
        let affected = ds.ground_truth(mid, inc.road);
        // Compare against the same road one hour before the incident.
        let before_idx = inc.start.index().saturating_sub(12);
        let before = ds.ground_truth(SlotOfDay(before_idx as u16), inc.road);
        assert!(
            affected < before,
            "incident speed {affected} should be below pre-incident {before}"
        );
    }

    #[test]
    fn weak_periodicity_fraction_increases_variance() {
        let g = grid(5, 5);
        let strong_cfg = SynthConfig {
            days: 1,
            weak_periodicity_fraction: 0.0,
            seed: 21,
            ..SynthConfig::default()
        };
        let weak_cfg = SynthConfig {
            days: 1,
            weak_periodicity_fraction: 1.0,
            seed: 21,
            ..SynthConfig::default()
        };
        let strong = TrafficGenerator::new(&g, strong_cfg);
        let weak = TrafficGenerator::new(&g, weak_cfg);
        let avg = |gen: &TrafficGenerator| {
            let stds: Vec<f64> = gen.profiles().iter().map(|p| p.noise_std_kmh).collect();
            mean(&stds)
        };
        assert!(avg(&weak) > 2.0 * avg(&strong));
    }
}
