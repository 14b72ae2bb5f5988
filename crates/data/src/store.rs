//! Dense historical speed store.
//!
//! Layout is `[day][slot][road]` in one flat `Vec<f64>`: the generator
//! writes whole network snapshots slot by slot, and the RTF trainer reads
//! per-`(road, slot-of-day)` samples across days with a constant stride.
//! Missing observations are `NaN` and skipped by the samplers.

use crate::record::SpeedRecord;
use crate::slot::{SlotOfDay, TimeSlot, SLOTS_PER_DAY};
use rtse_graph::RoadId;

/// Dense store of `days x SLOTS_PER_DAY x roads` speed values.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    num_roads: usize,
    num_days: usize,
    /// `((day * SLOTS_PER_DAY) + slot) * num_roads + road`
    values: Vec<f64>,
}

impl HistoryStore {
    /// Creates an empty (all-missing) store.
    pub fn new(num_roads: usize, num_days: usize) -> Self {
        Self { num_roads, num_days, values: vec![f64::NAN; num_roads * num_days * SLOTS_PER_DAY] }
    }

    /// Number of roads.
    pub fn num_roads(&self) -> usize {
        self.num_roads
    }

    /// Number of days of history.
    pub fn num_days(&self) -> usize {
        self.num_days
    }

    /// Total number of present (non-missing) records.
    pub fn num_records(&self) -> usize {
        self.values.iter().filter(|v| !v.is_nan()).count()
    }

    #[inline]
    fn offset(&self, day: usize, slot: SlotOfDay, road: RoadId) -> usize {
        debug_assert!(day < self.num_days, "day {day} out of range");
        debug_assert!(road.index() < self.num_roads, "road out of range");
        (day * SLOTS_PER_DAY + slot.index()) * self.num_roads + road.index()
    }

    /// Sets one observation.
    pub fn set(&mut self, day: usize, slot: SlotOfDay, road: RoadId, speed: f64) {
        let off = self.offset(day, slot, road);
        self.values[off] = speed;
    }

    /// Reads one observation; `None` when missing.
    pub fn get(&self, day: usize, slot: SlotOfDay, road: RoadId) -> Option<f64> {
        let v = self.values[self.offset(day, slot, road)];
        (!v.is_nan()).then_some(v)
    }

    /// Inserts a [`SpeedRecord`].
    ///
    /// # Panics
    /// Panics when the record's day exceeds the store capacity.
    pub fn insert(&mut self, record: &SpeedRecord) {
        let day = record.slot.day();
        assert!(day < self.num_days, "record day {day} beyond store capacity");
        self.set(day, record.slot.slot_of_day(), record.road, record.speed_kmh);
    }

    /// Full network snapshot (one value per road) for a day/slot; missing
    /// entries are `NaN`.
    pub fn snapshot(&self, day: usize, slot: SlotOfDay) -> &[f64] {
        let base = (day * SLOTS_PER_DAY + slot.index()) * self.num_roads;
        &self.values[base..base + self.num_roads]
    }

    /// Mutable snapshot row (generator use).
    pub fn snapshot_mut(&mut self, day: usize, slot: SlotOfDay) -> &mut [f64] {
        let base = (day * SLOTS_PER_DAY + slot.index()) * self.num_roads;
        &mut self.values[base..base + self.num_roads]
    }

    /// All present samples of one `(road, slot-of-day)` across days — the
    /// per-parameter sample the RTF moment estimator consumes.
    pub fn samples(&self, road: RoadId, slot: SlotOfDay) -> Vec<f64> {
        (0..self.num_days).filter_map(|day| self.get(day, slot, road)).collect()
    }

    /// Paired present samples of two roads in one slot across days (for
    /// correlation estimation): only days where both are present.
    pub fn paired_samples(&self, a: RoadId, b: RoadId, slot: SlotOfDay) -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::with_capacity(self.num_days);
        let mut ys = Vec::with_capacity(self.num_days);
        for day in 0..self.num_days {
            if let (Some(x), Some(y)) = (self.get(day, slot, a), self.get(day, slot, b)) {
                xs.push(x);
                ys.push(y);
            }
        }
        (xs, ys)
    }

    /// Iterates over all present records.
    pub fn records(&self) -> impl Iterator<Item = SpeedRecord> + '_ {
        (0..self.num_days).flat_map(move |day| {
            SlotOfDay::all().flat_map(move |slot| {
                let row = self.snapshot(day, slot);
                row.iter().enumerate().filter(|(_, v)| !v.is_nan()).map(move |(r, &v)| {
                    SpeedRecord {
                        road: RoadId::from(r),
                        slot: TimeSlot::new(day, slot),
                        speed_kmh: v,
                    }
                })
            })
        })
    }

    /// Merges another store into this one: present cells in `other`
    /// overwrite (or fill) the corresponding cells here. Used to combine
    /// data sources — e.g. fixed-station records with floating-car probes.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn merge_from(&mut self, other: &HistoryStore) {
        assert_eq!(self.num_roads, other.num_roads, "merge: road count mismatch");
        assert_eq!(self.num_days, other.num_days, "merge: day count mismatch");
        for (dst, &src) in self.values.iter_mut().zip(other.values.iter()) {
            if !src.is_nan() {
                *dst = src;
            }
        }
    }

    /// Restricts the store to a subset of roads (remapped densely in the
    /// order given); used when training on induced sub-networks (Fig. 5).
    pub fn project_roads(&self, keep: &[RoadId]) -> HistoryStore {
        let mut out = HistoryStore::new(keep.len(), self.num_days);
        for day in 0..self.num_days {
            for slot in SlotOfDay::all() {
                let src = self.snapshot(day, slot);
                let dst = out.snapshot_mut(day, slot);
                for (new, old) in keep.iter().enumerate() {
                    dst[new] = src[old.index()];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut s = HistoryStore::new(3, 2);
        assert_eq!(s.get(0, SlotOfDay(5), RoadId(1)), None);
        s.set(0, SlotOfDay(5), RoadId(1), 33.0);
        assert_eq!(s.get(0, SlotOfDay(5), RoadId(1)), Some(33.0));
        assert_eq!(s.num_records(), 1);
    }

    #[test]
    fn snapshot_layout() {
        let mut s = HistoryStore::new(2, 1);
        s.set(0, SlotOfDay(0), RoadId(0), 10.0);
        s.set(0, SlotOfDay(0), RoadId(1), 20.0);
        assert_eq!(s.snapshot(0, SlotOfDay(0)), &[10.0, 20.0]);
        assert!(s.snapshot(0, SlotOfDay(1))[0].is_nan());
    }

    #[test]
    fn samples_skip_missing_days() {
        let mut s = HistoryStore::new(1, 3);
        s.set(0, SlotOfDay(7), RoadId(0), 1.0);
        s.set(2, SlotOfDay(7), RoadId(0), 3.0);
        assert_eq!(s.samples(RoadId(0), SlotOfDay(7)), vec![1.0, 3.0]);
    }

    #[test]
    fn paired_samples_require_both_present() {
        let mut s = HistoryStore::new(2, 3);
        s.set(0, SlotOfDay(0), RoadId(0), 1.0);
        s.set(0, SlotOfDay(0), RoadId(1), 2.0);
        s.set(1, SlotOfDay(0), RoadId(0), 5.0); // road 1 missing on day 1
        s.set(2, SlotOfDay(0), RoadId(1), 6.0); // road 0 missing on day 2
        let (xs, ys) = s.paired_samples(RoadId(0), RoadId(1), SlotOfDay(0));
        assert_eq!(xs, vec![1.0]);
        assert_eq!(ys, vec![2.0]);
    }

    #[test]
    fn records_iterates_all_present() {
        let mut s = HistoryStore::new(2, 1);
        s.set(0, SlotOfDay(0), RoadId(0), 1.0);
        s.set(0, SlotOfDay(100), RoadId(1), 2.0);
        let recs: Vec<SpeedRecord> = s.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].road, RoadId(0));
        assert_eq!(recs[1].slot.slot_of_day(), SlotOfDay(100));
    }

    #[test]
    fn insert_record_round_trip() {
        let mut s = HistoryStore::new(1, 2);
        let rec = SpeedRecord::new(RoadId(0), TimeSlot::new(1, SlotOfDay(3)), 55.0);
        s.insert(&rec);
        assert_eq!(s.get(1, SlotOfDay(3), RoadId(0)), Some(55.0));
    }

    #[test]
    fn project_roads_remaps() {
        let mut s = HistoryStore::new(3, 1);
        s.set(0, SlotOfDay(0), RoadId(2), 9.0);
        let p = s.project_roads(&[RoadId(2), RoadId(0)]);
        assert_eq!(p.num_roads(), 2);
        assert_eq!(p.get(0, SlotOfDay(0), RoadId(0)), Some(9.0));
        assert_eq!(p.get(0, SlotOfDay(0), RoadId(1)), None);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn merge_fills_and_overwrites() {
        let mut a = HistoryStore::new(2, 1);
        a.set(0, SlotOfDay(0), RoadId(0), 10.0);
        a.set(0, SlotOfDay(1), RoadId(0), 11.0);
        let mut b = HistoryStore::new(2, 1);
        b.set(0, SlotOfDay(1), RoadId(0), 99.0); // overwrites
        b.set(0, SlotOfDay(2), RoadId(1), 20.0); // fills
        a.merge_from(&b);
        assert_eq!(a.get(0, SlotOfDay(0), RoadId(0)), Some(10.0));
        assert_eq!(a.get(0, SlotOfDay(1), RoadId(0)), Some(99.0));
        assert_eq!(a.get(0, SlotOfDay(2), RoadId(1)), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "road count mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = HistoryStore::new(2, 1);
        let b = HistoryStore::new(3, 1);
        a.merge_from(&b);
    }
}
