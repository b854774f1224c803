//! Engine-build accounting of the streaming discord monitor.
//!
//! The monitor's MASS engine is derived state: it is rebuilt from the
//! live series after each append and each eviction, and every build is
//! counted in `egi_mass_exact_retransforms_total` (perfbench reports it
//! per tick as `discord.retransforms`). The counters are process-wide,
//! so this file holds a single test: nothing else in this binary builds
//! an engine or looks up an FFT plan while it reads them.

use egi_discord::streaming::{Checkpoint, StreamingDiscordMonitor};
use egi_testkit::PointGen;

/// The engine builds and the FFT plan lookups that `op` makes.
fn work(op: impl FnOnce()) -> (u64, u64) {
    let builds = egi_obs::counter!("egi_mass_exact_retransforms_total");
    let hits = egi_obs::counter!("egi_fft_plan_cache_hits_total");
    let misses = egi_obs::counter!("egi_fft_plan_cache_misses_total");
    let (builds_before, plans_before) = (builds.get(), hits.get() + misses.get());
    op();
    (
        builds.get() - builds_before,
        hits.get() + misses.get() - plans_before,
    )
}

#[test]
fn each_ingest_event_builds_the_engine_once() {
    let series: Vec<f64> = (0..1_400).map(|i| PointGen::discord().at(i)).collect();
    let mut monitor = StreamingDiscordMonitor::new(16);
    // Warm-up builds nothing; the append that completes a window
    // builds the first engine.
    assert_eq!(work(|| monitor.append(&series[..10])), (0, 0));
    assert_eq!(work(|| monitor.append(&series[10..100])), (1, 1));
    // Queries run on the engine they find.
    assert_eq!(work(|| assert_eq!(monitor.run_for(40), 40)), (0, 0));
    // One build per append and per eviction; empty ones build nothing.
    assert_eq!(work(|| monitor.append(&series[100..300])), (1, 1));
    assert_eq!(work(|| monitor.evict(50).unwrap()), (1, 1));
    assert_eq!(work(|| monitor.append(&[])), (0, 0));
    assert_eq!(work(|| monitor.evict(0).unwrap()), (0, 0));
    // Under a retention policy an overflowing append trims first and
    // builds once, at the retained size: no transform at 2,048 points.
    assert_eq!(
        work(|| assert_eq!(monitor.retain_last(1_024), Ok(0))),
        (0, 0)
    );
    assert_eq!(work(|| monitor.append(&series[300..1_324])), (1, 1));
    assert_eq!(monitor.series_len(), 1_024);
    for tick in series[1_324..].chunks(32) {
        assert_eq!(work(|| monitor.append(tick)), (1, 1));
        assert_eq!(monitor.padded_size(), 1_024);
    }
    assert_eq!(work(|| drop(monitor.finish())), (0, 0));
    // A restore builds the saved series' engine once.
    let bytes = monitor.checkpoint_bytes().unwrap();
    let restored = work(|| drop(StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap()));
    assert_eq!(restored, (1, 1));
    // Evicting everything drops the engine without building one.
    assert_eq!(work(|| monitor.evict(1_024).unwrap()), (0, 0));
    assert_eq!(monitor.padded_size(), 0);
}
