//! Integration tests for egi-obs: histogram bucket boundaries,
//! concurrent recording from rayon workers, and a golden test pinning
//! the Prometheus exposition byte for byte.

use egi_obs::{
    bucket_index, bucket_upper_bound, Counter, Histogram, ObsRegistry, HISTOGRAM_BUCKETS,
};

#[test]
fn bucket_boundaries_zero_one_and_max() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_upper_bound(1), 1);
    assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
}

#[test]
fn exact_powers_of_two_open_a_new_bucket() {
    for i in 1..64u32 {
        let p = 1u64 << i;
        // 2^i is the first value of bucket i+1; 2^i − 1 is the last of
        // bucket i.
        assert_eq!(bucket_index(p), i as usize + 1, "2^{i}");
        assert_eq!(bucket_index(p - 1), i as usize, "2^{i} - 1");
        assert_eq!(bucket_upper_bound(i as usize), p - 1);
    }
}

#[test]
fn every_value_lands_in_exactly_one_bucket_with_matching_bound() {
    let h = Histogram::new();
    let probes = [
        0u64,
        1,
        2,
        3,
        4,
        7,
        8,
        255,
        256,
        1 << 32,
        (1 << 40) - 1,
        u64::MAX / 2,
        u64::MAX,
    ];
    for &v in &probes {
        h.record(v);
        let i = bucket_index(v);
        assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            assert!(v > bucket_upper_bound(i - 1));
        }
    }
    let s = h.snapshot();
    assert_eq!(s.count, probes.len() as u64);
    assert_eq!(s.buckets.iter().sum::<u64>(), probes.len() as u64);
    assert_eq!(s.max_upper_bound(), u64::MAX);
}

#[test]
fn concurrent_increments_from_rayon_workers_lose_nothing() {
    use rayon::prelude::*;

    let counter = Counter::new();
    let histogram = Histogram::new();
    const WORKERS: u64 = 64;
    const PER_WORKER: u64 = 1000;
    (0..WORKERS as usize).into_par_iter().for_each(|w| {
        for i in 0..PER_WORKER {
            counter.inc();
            histogram.record(w as u64 * PER_WORKER + i);
        }
    });
    assert_eq!(counter.get(), WORKERS * PER_WORKER);
    let s = histogram.snapshot();
    assert_eq!(s.count, WORKERS * PER_WORKER);
    // Sum of 0..64000 = 64000·63999/2.
    assert_eq!(s.sum, WORKERS * PER_WORKER * (WORKERS * PER_WORKER - 1) / 2);
    assert_eq!(s.buckets.iter().sum::<u64>(), WORKERS * PER_WORKER);
}

#[test]
fn golden_prometheus_exposition_byte_for_byte() {
    // A local registry keeps this test independent of whatever other
    // tests record into the global one.
    let reg = ObsRegistry::new();
    reg.counter("egi_fft_plan_cache_hits_total").add(3);
    reg.counter("egi_fft_plan_cache_misses_total").add(1);
    reg.gauge("egi_fleet_dirty_streams").set(2);
    let h = reg.histogram("egi_session_step_nanos");
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(1000);
    let expected = "\
# TYPE egi_fft_plan_cache_hits_total counter
egi_fft_plan_cache_hits_total 3
# TYPE egi_fft_plan_cache_misses_total counter
egi_fft_plan_cache_misses_total 1
# TYPE egi_fleet_dirty_streams gauge
egi_fleet_dirty_streams 2
# TYPE egi_session_step_nanos histogram
egi_session_step_nanos_bucket{le=\"0\"} 1
egi_session_step_nanos_bucket{le=\"1\"} 2
egi_session_step_nanos_bucket{le=\"3\"} 3
egi_session_step_nanos_bucket{le=\"1023\"} 4
egi_session_step_nanos_bucket{le=\"+Inf\"} 4
egi_session_step_nanos_sum 1003
egi_session_step_nanos_count 4
";
    assert_eq!(reg.render_prometheus(), expected);
    // Rendering twice is byte-identical (sorted, no hash-map order).
    assert_eq!(reg.render_prometheus(), expected);
}

#[test]
fn golden_json_dump() {
    let reg = ObsRegistry::new();
    reg.counter("egi_mass_exact_queries_total").add(10);
    reg.gauge("egi_fleet_pending_units").set(4);
    reg.histogram("egi_checkpoint_save_bytes").record(4096);
    assert_eq!(
        reg.render_json(),
        "{\"counters\":{\"egi_mass_exact_queries_total\":10},\
         \"gauges\":{\"egi_fleet_pending_units\":4},\
         \"histograms\":{\"egi_checkpoint_save_bytes\":\
         {\"count\":1,\"sum\":4096,\"buckets\":[[8191,1]]}}}"
    );
}

#[test]
fn quantile_bounds_are_monotone() {
    let h = Histogram::new();
    for v in 0..1024u64 {
        h.record(v);
    }
    let s = h.snapshot();
    let p50 = s.quantile_upper_bound(1, 2);
    let p90 = s.quantile_upper_bound(9, 10);
    let p99 = s.quantile_upper_bound(99, 100);
    assert!(p50 <= p90 && p90 <= p99);
    assert_eq!(p99, s.max_upper_bound());
    assert_eq!(s.quantile_upper_bound(0, 1), 0);
}
