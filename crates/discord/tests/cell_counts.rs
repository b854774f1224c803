//! Cell accounting of the matrix-profile kernel.
//!
//! Every cell the kernel computes — in batch STOMP, in the streaming
//! monitor's units and finish, and when a restore replays a checkpoint
//! — is counted in `egi_discord_cells_total`. The count pins the cost
//! model: a batch profile and a re-seed walk every cell once, and an
//! append walks only the cells its points created. The counter is
//! process-wide, so this file holds a single test: nothing else in this
//! binary runs the kernel while it reads the count.

use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{Checkpoint, StreamingDiscordMonitor};
use egi_testkit::PointGen;

/// The cells `op` makes the kernel compute.
fn cells(op: impl FnOnce()) -> u64 {
    let counter = egi_obs::counter!("egi_discord_cells_total");
    let before = counter.get();
    op();
    counter.get() - before
}

/// Cells of every admissible diagonal over `windows` windows.
fn all_cells(windows: usize, exclusion: usize) -> u64 {
    let diagonals = windows.saturating_sub(exclusion + 1) as u64;
    diagonals * (diagonals + 1) / 2
}

#[test]
fn the_kernel_computes_each_cell_once() {
    let series = PointGen::discord().slice(0..400);
    let (m, exc) = (12, 6);
    // Batch: every admissible cell once, at any worker count.
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let walked = cells(|| drop(pool.install(|| stomp_with_exclusion(&series, m, exc))));
        assert_eq!(walked, all_cells(400 - m + 1, exc), "{threads} workers");
    }

    let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
    // Warm-up computes nothing; the first full batch walks every cell.
    assert_eq!(cells(|| monitor.append(&series[..8])), 0);
    monitor.append(&series[8..200]);
    assert_eq!(cells(|| drop(monitor.finish())), all_cells(189, exc));
    // An append of 30 points walks 30 new cells on each of the 182 old
    // diagonals, plus the 30 new diagonals' cells.
    monitor.append(&series[200..230]);
    let appended = 30 * 182 + (1..=30u64).sum::<u64>();
    assert_eq!(cells(|| drop(monitor.finish())), appended);
    // An eviction re-seeds every diagonal of what is left.
    monitor.evict(50).unwrap();
    let units = monitor.pending();
    let stepped = cells(|| assert_eq!(monitor.run_for(units / 2), units / 2));
    let rest = cells(|| drop(monitor.finish()));
    assert_eq!(stepped + rest, all_cells(169, exc));
    // A restore replays exactly the cells computed before the save.
    monitor.append(&series[230..260]);
    monitor.run_for(3);
    let bytes = monitor.checkpoint_bytes().unwrap();
    let left = cells(|| drop(monitor.clone().finish()));
    let total = all_cells(199, exc);
    let replayed = cells(|| drop(StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap()));
    assert_eq!(replayed, total - left);
}
