//! Property tests for the telemetry time-series store (`obs::tsdb`):
//! delta encoding must be bit-exact, ring wraparound must keep a
//! contiguous suffix with correct tick indices, downsampling must
//! preserve true bucket extremes, and a concurrent scraper must only
//! ever observe consistent, monotone history.
//!
//! The property tests drive *owned* [`Tsdb`] instances, so they run in
//! parallel freely; only the concurrent-scrape test touches the
//! process-global store (and nothing else in this binary does).

use std::time::Duration;

use proptest::prelude::*;
use webpuzzle_obs as obs;

use obs::metrics::SampleKind;
use obs::tsdb::{Tsdb, TsdbConfig};

/// An owned store with a test-sized cadence and no global budget
/// pressure (the budget path is exercised separately in unit tests).
fn store(dense_bytes: usize, coarse_every: u64, coarse_points: usize) -> Tsdb {
    Tsdb::new(TsdbConfig {
        interval: Duration::from_millis(100),
        dense_bytes,
        coarse_every,
        coarse_points,
        memory_budget_bytes: usize::MAX,
    })
}

/// Push one raw sample per tick for a single metric.
fn drive(st: &mut Tsdb, kind: SampleKind, raws: &[u64]) {
    for &raw in raws {
        st.ingest(&[("m".to_string(), kind, raw)]);
    }
}

fn kind_of(is_gauge: bool) -> SampleKind {
    if is_gauge {
        SampleKind::Gauge
    } else {
        SampleKind::Counter
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // With a ring far larger than the input, decode must reproduce
    // every pushed raw value verbatim — arbitrary bit patterns, so for
    // gauges this covers NaNs, infinities, and negative zero going
    // through the XOR delta path.
    #[test]
    fn dense_history_is_bit_exact(
        raws in collection::vec(any::<u64>(), 1..200),
        is_gauge in any::<bool>(),
    ) {
        let kind = kind_of(is_gauge);
        let mut st = store(1 << 20, 1 << 20, 8);
        drive(&mut st, kind, &raws);
        let got = st.dense_raw("m", 0).expect("series exists");
        prop_assert_eq!(got.len(), raws.len());
        for (i, ((tick, raw), want)) in got.iter().zip(&raws).enumerate() {
            prop_assert_eq!(*tick, i as u64 + 1, "ticks start at 1 and are contiguous");
            prop_assert_eq!(*raw, *want, "decode must be bit-exact at tick {}", tick);
        }
    }

    // A small ring forces wraparound: what remains must be a contiguous
    // *suffix* of the input, bit-exact, with tick indices that still
    // name the original positions, and the `since` cursor must slice
    // that suffix exactly. Eviction accounting must add up.
    #[test]
    fn wraparound_keeps_a_contiguous_bit_exact_suffix(
        raws in collection::vec(any::<u64>(), 50..300),
        is_gauge in any::<bool>(),
        dense_bytes in 64usize..512,
        cursor in 0u64..400,
    ) {
        let kind = kind_of(is_gauge);
        let mut st = store(dense_bytes, 1 << 20, 8);
        drive(&mut st, kind, &raws);
        let n = raws.len() as u64;
        let got = st.dense_raw("m", 0).expect("series exists");
        prop_assert!(!got.is_empty(), "the newest sample is always retained");
        prop_assert_eq!(got.last().expect("non-empty").0, n);
        let first = got[0].0;
        for (j, (tick, raw)) in got.iter().enumerate() {
            prop_assert_eq!(*tick, first + j as u64, "retained ticks are contiguous");
            prop_assert_eq!(*raw, raws[(*tick - 1) as usize], "suffix must stay bit-exact");
        }
        let after = st.dense_raw("m", cursor).expect("series exists");
        let want: Vec<(u64, u64)> = got.iter().copied().filter(|(t, _)| *t > cursor).collect();
        prop_assert_eq!(after, want, "cursor slicing must match post-hoc filtering");
        prop_assert_eq!(st.stats().evicted_samples, n - got.len() as u64);
    }

    // Every closed coarse bucket covers exactly `coarse_every` ticks;
    // its `last` is the final raw of that span and min/max are the true
    // extremes (numeric for counters, float-ordered for gauges).
    #[test]
    fn coarse_buckets_carry_true_extremes(
        raws in collection::vec(any::<u64>(), 1..200),
        is_counter in any::<bool>(),
        every in 1u64..13,
    ) {
        // Gauge raws are drawn as finite floats (not arbitrary bits):
        // the reference min/max below compares float values, which NaN
        // would derail (the store itself tolerates NaN — covered by the
        // bit-exactness properties above).
        let kind = kind_of(!is_counter);
        let raws: Vec<u64> = if is_counter {
            raws
        } else {
            raws.iter().map(|&r| (((r as f64) - (u64::MAX / 2) as f64) * 1e-3).to_bits()).collect()
        };
        let mut st = store(1 << 20, every, 1 << 16);
        drive(&mut st, kind, &raws);
        let buckets = st.coarse_raw("m", 0).expect("series exists");
        prop_assert_eq!(buckets.len(), raws.len() / every as usize);
        for (b_i, b) in buckets.iter().enumerate() {
            let end = (b_i as u64 + 1) * every;
            prop_assert_eq!(b.end_index, end, "buckets close on coarse_every boundaries");
            let span = &raws[(end - every) as usize..end as usize];
            prop_assert_eq!(b.last, span[span.len() - 1]);
            if is_counter {
                prop_assert_eq!(b.min, *span.iter().min().expect("non-empty"));
                prop_assert_eq!(b.max, *span.iter().max().expect("non-empty"));
            } else {
                let vals: Vec<f64> = span.iter().map(|&r| f64::from_bits(r)).collect();
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(f64::from_bits(b.min), min);
                prop_assert_eq!(f64::from_bits(b.max), max);
            }
        }
    }

    // The SLO engine's window-edge lookup: with full dense retention,
    // the value at-or-before tick i is exactly the i-th input (clamped
    // to the newest), and tick 0 — before any sample — is a miss.
    #[test]
    fn at_or_before_matches_the_input(
        raws in collection::vec(any::<u64>(), 1..150),
        is_gauge in any::<bool>(),
        probe in 0u64..200,
    ) {
        let kind = kind_of(is_gauge);
        let mut st = store(1 << 20, 5, 1 << 16);
        drive(&mut st, kind, &raws);
        let n = raws.len() as u64;
        prop_assert_eq!(st.raw_at_or_before("m", 0), None);
        if probe >= 1 {
            let want = raws[(probe.min(n) - 1) as usize];
            prop_assert_eq!(st.raw_at_or_before("m", probe), Some(want));
        }
    }
}

/// Scrape the global store from one thread while another samples a
/// live counter as fast as it can. Every query answer must be
/// internally consistent (contiguous ticks, all past the cursor) and
/// consecutive answers must be monotone — in cursor and, because a
/// counter only goes up, in decoded value.
#[test]
fn concurrent_scrape_while_sampling_is_consistent() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    obs::tsdb::install(TsdbConfig {
        interval: Duration::from_millis(1),
        dense_bytes: 512, // small ring: wrap under the reader's feet
        ..TsdbConfig::default()
    });
    let counter = obs::metrics::counter("props/live");
    let stop = Arc::new(AtomicBool::new(false));
    // Handshake: the writer announces its first landed sample, so the
    // reader's 500 queries overlap the sampling instead of racing the
    // writer thread's start-up.
    let (first_sample, landed) = std::sync::mpsc::channel();
    let writer = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut first_sample = Some(first_sample);
            while !stop.load(Ordering::Relaxed) {
                counter.add(3);
                if obs::tsdb::sample_now().is_some() {
                    if let Some(tx) = first_sample.take() {
                        let _ = tx.send(());
                    }
                }
            }
        }
    });
    landed
        .recv_timeout(Duration::from_secs(30))
        .expect("the writer took no sample within 30 s");

    let mut since = 0u64;
    let mut last_value = 0.0f64;
    let mut nonempty_answers = 0u32;
    for _ in 0..500 {
        let Some(r) = obs::tsdb::query("props/live", since, 0) else {
            continue; // first tick may not have landed yet
        };
        assert!(
            r.next >= since,
            "cursor went backwards: {} < {since}",
            r.next
        );
        let mut prev_index = since;
        let mut prev_value = last_value;
        for (i, p) in r.points.iter().enumerate() {
            assert!(p.index > since, "point at or before the cursor");
            if i > 0 {
                assert_eq!(p.index, prev_index + 1, "dense answer must be contiguous");
            }
            assert!(
                p.value >= prev_value,
                "counter went down: {} after {prev_value}",
                p.value
            );
            prev_index = p.index;
            prev_value = p.value;
        }
        if let Some(p) = r.points.last() {
            nonempty_answers += 1;
            since = r.next;
            last_value = p.value;
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    assert!(
        nonempty_answers > 0,
        "the reader never saw a sample despite a busy writer"
    );
    obs::tsdb::uninstall();
}
