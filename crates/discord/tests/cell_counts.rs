//! Cell accounting of the matrix-profile kernel.
//!
//! Every cell the kernel walks — in batch STOMP, in the streaming
//! monitor's units and finish, and when a restore replays a checkpoint
//! — is counted in `egi_discord_cells_total`, and each walked cell whose
//! correlation reaches its ends' limits, so that it pays the distance
//! and the fold, also in `egi_discord_cells_admitted_total`. The counts
//! pin the cost model: a batch profile and a re-seed walk every cell
//! once, an append walks only the cells its points created, no
//! operation admits more cells than it walks, and a series whose
//! windows are all flat admits every cell. The counters are
//! process-wide, so this file holds a single test: nothing else in this
//! binary runs the kernel while it reads the counts.

use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{Checkpoint, StreamingDiscordMonitor};
use egi_testkit::PointGen;

/// The cells `op` makes the kernel walk, after checking that it
/// admitted no more of them than that.
fn cells(op: impl FnOnce()) -> u64 {
    let (walked, admitted) = walked_and_admitted(op);
    assert!(admitted <= walked, "{admitted} admitted of {walked} walked");
    walked
}

/// The cells `op` makes the kernel walk and admit.
fn walked_and_admitted(op: impl FnOnce()) -> (u64, u64) {
    let walked = egi_obs::counter!("egi_discord_cells_total");
    let admitted = egi_obs::counter!("egi_discord_cells_admitted_total");
    let before = (walked.get(), admitted.get());
    op();
    (walked.get() - before.0, admitted.get() - before.1)
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

    // Every window of a constant series is flat, so every cell is
    // admitted, in batch and in the monitor.
    let constant = vec![2.5; 120];
    let (walked, admitted) = walked_and_admitted(|| drop(stomp_with_exclusion(&constant, m, exc)));
    assert_eq!(
        (walked, admitted),
        (all_cells(109, exc), all_cells(109, exc))
    );
    let mut flat = StreamingDiscordMonitor::with_exclusion(m, exc);
    flat.append(&constant);
    let (walked, admitted) = walked_and_admitted(|| drop(flat.finish()));
    assert_eq!(
        (walked, admitted),
        (all_cells(109, exc), all_cells(109, exc))
    );
}
