//! The single renderer for human-facing progress output.
//!
//! Core and dist emit structured [`Event`]s; this module owns the one
//! mutex under which they are formatted and written to stderr. That
//! serialization is what keeps concurrently logging pool threads, the
//! dist acceptor and connection threads from interleaving partial lines,
//! and [`emit_tick`] extends the same lock over the done-counter
//! increment so the printed `done/total` sequence is monotonic.
//!
//! This is the only place in core/dist allowed to call `eprintln!`
//! (enforced by the `bare-eprintln` nvfi-lint rule).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

static RENDER: Mutex<()> = Mutex::new(());

fn render_lock() -> MutexGuard<'static, ()> {
    RENDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// A structured progress event. Rendering is centralized in this module;
/// emit sites describe *what happened*, not how it prints.
#[derive(Clone, Debug)]
pub enum Event {
    /// An in-process campaign work item finished.
    ItemDone {
        done: usize,
        total: usize,
        worker: usize,
        detail: String,
    },
    /// A distributed shard landed and merged into its campaign.
    ShardLanded {
        client: u64,
        done: usize,
        total: usize,
        worker: usize,
        item: u32,
        start: u32,
        end: u32,
    },
    /// A worker was lost mid-shard; the shard went back on the queue.
    ShardRequeued {
        worker: usize,
        client: u64,
        item: u32,
        start: u32,
        end: u32,
        why: String,
    },
    /// A worker joined an already-running campaign.
    WorkerAdmitted { worker: usize },
    /// A campaign resumed from a checkpoint file.
    Resumed {
        path: String,
        done: usize,
        total: usize,
    },
    /// The whole fleet was lost; falling back to the in-process pool.
    FleetDegraded { incomplete: usize },
    /// One `nvfi-top` line summarizing the fleet (periodic, `NVFI_METRICS=top`).
    FleetSummary {
        workers: usize,
        clients: usize,
        dispatched: u64,
        shipped: u64,
        audits: u64,
        mismatches: u64,
        quarantined: u64,
        cache_hits: u64,
    },
    /// Anything without dedicated structure (warnings, one-shot notes).
    Note { text: String },
}

fn render(e: &Event) -> String {
    match e {
        Event::ItemDone {
            done,
            total,
            worker,
            detail,
        } => {
            format!("  fi {done}/{total} [worker {worker}]: {detail}")
        }
        Event::ShardLanded {
            client,
            done,
            total,
            worker,
            item,
            start,
            end,
        } => {
            format!(
                "  fi client {client} {done}/{total} [worker {worker}]: item {item} images {start}..{end}"
            )
        }
        Event::ShardRequeued {
            worker,
            client,
            item,
            start,
            end,
            why,
        } => {
            format!(
                "  worker {worker} lost mid-shard (client {client} item {item} images {start}..{end}): {why}; requeued"
            )
        }
        Event::WorkerAdmitted { worker } => {
            format!("  worker {worker} admitted mid-campaign")
        }
        Event::Resumed { path, done, total } => {
            format!("  resuming from {path}: {done}/{total} shards already done")
        }
        Event::FleetDegraded { incomplete } => {
            format!(
                "  fleet lost with {incomplete} task(s) outstanding; degrading to the in-process campaign"
            )
        }
        Event::FleetSummary {
            workers,
            clients,
            dispatched,
            shipped,
            audits,
            mismatches,
            quarantined,
            cache_hits,
        } => {
            format!(
                "nvfi-top: {workers} worker(s) {clients} client(s) | dispatched {dispatched} shipped {shipped} cache-hits {cache_hits} | audits {audits} mismatches {mismatches} quarantined {quarantined}"
            )
        }
        Event::Note { text } => text.clone(),
    }
}

/// Format and print one event under the renderer lock.
pub fn emit(e: &Event) {
    let line = render(e);
    let _g = render_lock();
    eprintln!("{line}");
}

/// Convenience: emit a free-form [`Event::Note`].
pub fn note(text: impl Into<String>) {
    emit(&Event::Note { text: text.into() });
}

/// Atomically advance `done` and print the event built from the new
/// count. The counter increment happens *under* the renderer lock, so
/// printed `done/total` lines are strictly monotonic even when many pool
/// threads finish simultaneously. Returns the new count.
pub fn emit_tick(done: &AtomicUsize, mk: impl FnOnce(usize) -> Event) -> usize {
    let _g = render_lock();
    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
    let line = render(&mk(finished));
    eprintln!("{line}");
    finished
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_counter_is_monotonic_under_contention() {
        let done = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _g = render_lock();
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        seen.lock().unwrap().push(n);
                    }
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        // Under the render lock every observed count is strictly increasing.
        assert!(seen.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(done.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn renders_preserve_worker_attribution() {
        let line = render(&Event::ShardLanded {
            client: 3,
            done: 5,
            total: 9,
            worker: 2,
            item: 4,
            start: 0,
            end: 16,
        });
        assert_eq!(line, "  fi client 3 5/9 [worker 2]: item 4 images 0..16");
        let line = render(&Event::ItemDone {
            done: 1,
            total: 2,
            worker: 0,
            detail: "StuckAt0 on 1 mult(s) -> 93.8% (sdc 0%)".into(),
        });
        assert!(line.starts_with("  fi 1/2 [worker 0]: "));
    }
}
