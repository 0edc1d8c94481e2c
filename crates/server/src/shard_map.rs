//! The time-shard map: bucket → value, in two levels of `Arc`s.
//!
//! Every publish clones the sharded index (and the cache stamp's bucket
//! versions) for a new snapshot and then changes a handful of buckets.
//! A flat map would copy one entry per live bucket on every publish; this
//! one groups [`GROUP`] consecutive buckets behind one `Arc`, so a clone
//! copies one pointer per group and a write copies only the group it
//! lands in ([`Arc::make_mut`]). Every other group stays shared with the
//! snapshots before it. The layout is private: callers see an ordered
//! map with `get`/`get_mut`/`extend`/`remove`/`split_off`/`range`/`iter`.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Consecutive buckets per shared group.
const GROUP: i64 = 16;

/// One group's slots, `bucket.rem_euclid(GROUP)` indexed.
#[derive(Debug, Clone)]
struct Group<V> {
    slots: [Option<V>; GROUP as usize],
    len: usize,
}

impl<V> Group<V> {
    fn empty() -> Self {
        Group {
            slots: std::array::from_fn(|_| None),
            len: 0,
        }
    }
}

/// The group key and slot of `bucket`.
fn split(bucket: i64) -> (i64, usize) {
    (bucket.div_euclid(GROUP), bucket.rem_euclid(GROUP) as usize)
}

/// An ordered `i64 → V` map whose clones share every group neither side
/// has written since.
#[derive(Debug, Clone)]
pub(crate) struct ShardMap<V> {
    groups: BTreeMap<i64, Arc<Group<V>>>,
    len: usize,
}

impl<V> Default for ShardMap<V> {
    fn default() -> Self {
        ShardMap {
            groups: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<V: Clone> ShardMap<V> {
    /// Number of buckets holding a value.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, bucket: i64) -> Option<&V> {
        let (g, s) = split(bucket);
        self.groups.get(&g)?.slots[s].as_ref()
    }

    /// The value at `bucket`, copying its group first if a clone shares
    /// it. A missing bucket copies nothing.
    pub(crate) fn get_mut(&mut self, bucket: i64) -> Option<&mut V> {
        let (g, s) = split(bucket);
        let group = self.groups.get_mut(&g)?;
        group.slots[s].as_ref()?;
        Arc::make_mut(group).slots[s].as_mut()
    }

    /// The value at `bucket`, inserting `V::default()` first if absent.
    pub(crate) fn entry_or_default(&mut self, bucket: i64) -> &mut V
    where
        V: Default,
    {
        let (g, s) = split(bucket);
        let group = Arc::make_mut(
            self.groups
                .entry(g)
                .or_insert_with(|| Arc::new(Group::empty())),
        );
        let slot = &mut group.slots[s];
        if slot.is_none() {
            group.len += 1;
            self.len += 1;
        }
        slot.get_or_insert_with(V::default)
    }

    /// Inserts or replaces every `(bucket, value)`.
    pub(crate) fn extend(&mut self, entries: impl IntoIterator<Item = (i64, V)>) {
        for (bucket, value) in entries {
            let (g, s) = split(bucket);
            let group = Arc::make_mut(
                self.groups
                    .entry(g)
                    .or_insert_with(|| Arc::new(Group::empty())),
            );
            if group.slots[s].replace(value).is_none() {
                group.len += 1;
                self.len += 1;
            }
        }
    }

    /// Removes and returns the value at `bucket`; a group left empty goes.
    pub(crate) fn remove(&mut self, bucket: i64) -> Option<V> {
        let (g, s) = split(bucket);
        let group = self.groups.get_mut(&g)?;
        group.slots[s].as_ref()?;
        let inner = Arc::make_mut(group);
        let value = inner.slots[s].take();
        inner.len -= 1;
        self.len -= 1;
        if inner.len == 0 {
            self.groups.remove(&g);
        }
        value
    }

    /// Splits off every bucket `>= at`: `self` keeps the buckets below.
    /// Whole groups move without copying; only a group holding buckets
    /// on both sides of `at` is split into two copies.
    pub(crate) fn split_off(&mut self, at: i64) -> Self {
        let (g, s) = split(at);
        let mut upper = ShardMap {
            groups: self.groups.split_off(&g),
            len: 0,
        };
        let (below, above) = upper.groups.get(&g).map_or((false, false), |group| {
            let (lo, hi) = group.slots.split_at(s);
            (
                lo.iter().any(Option::is_some),
                hi.iter().any(Option::is_some),
            )
        });
        match (below, above) {
            (true, false) => {
                let group = upper.groups.remove(&g).expect("group just read");
                self.groups.insert(g, group);
            }
            (true, true) => {
                let mut low =
                    Arc::unwrap_or_clone(upper.groups.remove(&g).expect("group just read"));
                let mut high = Group::empty();
                for (i, slot) in low.slots.iter_mut().enumerate().skip(s) {
                    high.slots[i] = slot.take();
                }
                high.len = high.slots.iter().flatten().count();
                low.len -= high.len;
                self.groups.insert(g, Arc::new(low));
                upper.groups.insert(g, Arc::new(high));
            }
            _ => {}
        }
        upper.len = upper.groups.values().map(|group| group.len).sum();
        self.len -= upper.len;
        upper
    }

    /// `(bucket, value)` for every bucket in `buckets`, ascending.
    pub(crate) fn range(&self, buckets: RangeInclusive<i64>) -> impl Iterator<Item = (i64, &V)> {
        let (lo, hi) = (*buckets.start(), *buckets.end());
        // An empty range (`lo > hi`) visits at most one group, whose
        // slots the bounds check below then rejects.
        let groups = self.groups.range(split(lo).0..=split(hi.max(lo)).0);
        groups.flat_map(move |(g, group)| {
            (0..GROUP).filter_map(move |s| {
                let bucket = g * GROUP + s;
                let value = group.slots[s as usize].as_ref()?;
                (lo..=hi).contains(&bucket).then_some((bucket, value))
            })
        })
    }

    /// Every `(bucket, value)`, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, &V)> {
        self.range(i64::MIN..=i64::MAX)
    }

    /// Every bucket, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter().map(|(bucket, _)| bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map_of(buckets: impl IntoIterator<Item = i64>) -> ShardMap<Arc<u32>> {
        let mut m = ShardMap::default();
        m.extend(buckets.into_iter().map(|b| (b, Arc::new(b as u32))));
        m
    }

    #[test]
    fn a_write_copies_only_its_group() {
        let before = map_of(0..(4 * GROUP));
        let mut after = before.clone();
        after.extend([(GROUP + 3, Arc::new(7))]);
        *after.get_mut(GROUP + 5).expect("present") = Arc::new(8);
        for (g, group) in &after.groups {
            assert_eq!(Arc::ptr_eq(group, &before.groups[g]), *g != 1, "group {g}");
        }
        // Inside the copied group, untouched values are still shared.
        let (old, new) = (before.get(GROUP).unwrap(), after.get(GROUP).unwrap());
        assert!(Arc::ptr_eq(old, new));
        assert_eq!(**before.get(GROUP + 3).unwrap(), (GROUP + 3) as u32);
        assert_eq!(**after.get(GROUP + 3).unwrap(), 7);
        // A miss copies nothing.
        let mut probe = before.clone();
        assert!(probe.get_mut(10 * GROUP).is_none());
        assert!(probe.remove(10 * GROUP).is_none());
        for (g, group) in &probe.groups {
            assert!(Arc::ptr_eq(group, &before.groups[g]));
        }
    }

    #[test]
    fn split_off_inside_a_group_keeps_both_halves_exact() {
        let all: Vec<i64> = (-GROUP - 3..2 * GROUP + 2).filter(|b| b % 3 != 0).collect();
        for at in [
            -GROUP - 5,
            -GROUP,
            -1,
            0,
            1,
            5,
            GROUP - 1,
            GROUP,
            GROUP + 7,
            3 * GROUP,
        ] {
            let mut low = map_of(all.iter().copied());
            let shared = low.clone();
            let high = low.split_off(at);
            let want_low: Vec<i64> = all.iter().copied().filter(|b| *b < at).collect();
            let want_high: Vec<i64> = all.iter().copied().filter(|b| *b >= at).collect();
            assert_eq!(low.keys().collect::<Vec<_>>(), want_low, "at {at}");
            assert_eq!(high.keys().collect::<Vec<_>>(), want_high, "at {at}");
            assert_eq!((low.len(), high.len()), (want_low.len(), want_high.len()));
            // Groups wholly on one side move; the clone still sees it all.
            assert_eq!(shared.keys().collect::<Vec<_>>(), all);
            let (ga, gb) = (split(at).0, split(at).1 == 0);
            for (g, group) in low.groups.iter().chain(&high.groups) {
                if *g != ga || gb {
                    assert!(Arc::ptr_eq(group, &shared.groups[g]), "at {at}, group {g}");
                }
            }
        }
    }

    #[test]
    fn range_clips_to_bounds_and_handles_empty_and_extreme_ranges() {
        let m = map_of([-40, -17, -16, -1, 0, 15, 16, 31, 100]);
        let got = |r: RangeInclusive<i64>| m.range(r).map(|(b, _)| b).collect::<Vec<_>>();
        assert_eq!(got(-16..=15), vec![-16, -1, 0, 15]);
        assert_eq!(got(1..=15), vec![15]);
        assert_eq!(got(16..=16), vec![16]);
        assert_eq!(got(RangeInclusive::new(5, 4)), Vec::<i64>::new());
        assert_eq!(got(i64::MIN..=i64::MAX).len(), 9);
        assert_eq!(got(i64::MIN..=-17), vec![-40, -17]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any sequence of inserts, removes, entry writes and
        /// splits, the map reads exactly like a `BTreeMap`, and a clone
        /// taken along the way keeps reading like the `BTreeMap` did then.
        #[test]
        fn behaves_like_a_btreemap(
            ops in prop::collection::vec((0u8..4, -80i64..80, any::<u16>()), 1..120),
            ranges in prop::collection::vec((-100i64..100, 0i64..90), 1..8),
        ) {
            let mut m: ShardMap<u16> = ShardMap::default();
            let mut model: BTreeMap<i64, u16> = BTreeMap::new();
            let mut frozen: Option<(ShardMap<u16>, BTreeMap<i64, u16>)> = None;
            for (i, &(op, bucket, value)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        m.extend([(bucket, value)]);
                        model.insert(bucket, value);
                    }
                    1 => prop_assert_eq!(m.remove(bucket), model.remove(&bucket)),
                    2 => {
                        *m.entry_or_default(bucket) ^= value;
                        *model.entry(bucket).or_default() ^= value;
                    }
                    _ => {
                        let (a, b) = (m.split_off(bucket), model.split_off(&bucket));
                        prop_assert!(a.iter().map(|(k, v)| (k, *v)).eq(b.into_iter()));
                    }
                }
                if i == ops.len() / 2 {
                    frozen = Some((m.clone(), model.clone()));
                }
                prop_assert_eq!(m.len(), model.len());
            }
            for (map, model) in [(m, model)].into_iter().chain(frozen) {
                let all = map.iter().map(|(k, v)| (k, *v));
                prop_assert!(all.eq(model.iter().map(|(k, v)| (*k, *v))));
                for &(lo, len) in &ranges {
                    let got = map.range(lo..=lo + len).map(|(k, v)| (k, *v));
                    let want = model.range(lo..=lo + len).map(|(k, v)| (*k, *v));
                    prop_assert_eq!(got.collect::<Vec<_>>(), want.collect::<Vec<_>>());
                }
                for b in -85..85 {
                    prop_assert_eq!(map.get(b), model.get(&b));
                }
            }
        }
    }
}
