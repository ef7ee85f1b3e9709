//! The batch inference session.
//!
//! * **one cursor**: workers pull frame indices from a shared atomic
//!   counter and run each frame straight from the caller's slice, so no
//!   frame is copied or queued; a batch of `n` frames holds `n` borrows and
//!   nothing else in flight;
//! * **worker-side preparation**: quantisation (or any other per-frame input
//!   transform) happens on the worker thread that will execute the frame,
//!   not on the submitting thread;
//! * **per-worker state** ([`InferenceEngine::Worker`]): each worker owns
//!   its scratch arena (the liveness-planned activation offsets), reused for
//!   every frame that worker runs within one call.
//!
//! Each [`InferenceSession::run`] builds `threads` fresh workers (capped at
//! the batch size), so a call allocates its arenas once and a one-frame batch
//! — the serving loop's common case — pays one arena per frame: for the 1M
//! INT8 model at 256x256, a liveness plan and 6.2 MB allocated and zeroed
//! (0.5–0.8 ms on a 2-core x86 host). They are not pooled across calls on
//! purpose: keeping the arenas, or keeping the worker threads alive, saved
//! 0.3–0.8 ms per frame but was measured at +4.3 MB of peak RSS (+11 %) on
//! the streaming 1M workload. With one worker the frames run inline on the
//! calling thread and no thread is spawned.
//!
//! Results are returned in input order regardless of completion order.
//! A panic inside [`InferenceEngine::infer`] is captured on the worker,
//! which retires, and re-raised on the calling thread with the failing
//! frame index attached — the earliest one when several frames fail.

use crate::prediction::Prediction;
use seneca_tensor::Tensor;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resolves the number of worker threads for a job batch: never more threads
/// than jobs, never fewer than one. The single source of truth used by both
/// the functional runner and the throughput model.
pub fn resolve_worker_threads(requested: usize, jobs: usize) -> usize {
    requested.max(1).min(jobs.max(1))
}

/// Per-frame execution engine: how one worker turns an FP32 image into a
/// [`Prediction`]. Implementations own the backend-specific preparation
/// (e.g. INT8 quantisation) and reuse `Worker` scratch state across frames.
pub trait InferenceEngine: Sync {
    /// Per-worker mutable state (scratch buffers, core handle, ...).
    type Worker: Send;

    /// Creates one worker's state.
    fn new_worker(&self) -> Self::Worker;

    /// Runs one frame on a worker.
    fn infer(&self, worker: &mut Self::Worker, image: &Tensor) -> Prediction;
}

/// A streaming inference session over some [`InferenceEngine`].
pub struct InferenceSession<'e, E: InferenceEngine> {
    engine: &'e E,
    /// Worker threads (capped to the job count at run time).
    threads: usize,
}

/// Re-raises a worker panic on the calling thread, annotated with the frame
/// that caused it. String payloads are embedded in the new message; opaque
/// payloads are re-propagated as-is after reporting the index.
fn rethrow(frame: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    match msg {
        Some(m) => panic!("inference worker panicked on frame {frame}: {m}"),
        None => {
            eprintln!("inference worker panicked on frame {frame} (non-string payload)");
            std::panic::resume_unwind(payload)
        }
    }
}

impl<'e, E: InferenceEngine> InferenceSession<'e, E> {
    /// Creates a session of `threads` workers.
    pub fn new(engine: &'e E, threads: usize) -> Self {
        Self { engine, threads }
    }

    /// Runs a batch; outputs are in input order.
    pub fn run(&self, images: &[Tensor]) -> Vec<Prediction> {
        self.run_map(images, |engine, worker, img| engine.infer(worker, img))
    }

    /// Runs a batch and reports each frame's wall-clock execution time as
    /// observed on its worker (queueing excluded). This is the per-frame
    /// timing hook the serving layer's latency accounting builds on.
    pub fn run_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, Vec<Duration>) {
        self.run_map(images, |engine, worker, img| {
            let t0 = Instant::now();
            let pred = engine.infer(worker, img);
            (pred, t0.elapsed())
        })
        .into_iter()
        .unzip()
    }

    /// The shared batch executor: applies `work` to every frame, preserving
    /// input order and frame-indexed panics.
    fn run_map<T, F>(&self, images: &[Tensor], work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&E, &mut E::Worker, &Tensor) -> T + Sync,
    {
        type Outcome<T> = Result<T, Box<dyn std::any::Any + Send>>;
        if images.is_empty() {
            return Vec::new();
        }
        let threads = resolve_worker_threads(self.threads, images.len());
        // Each worker's state (its scratch arena) is built here, on the
        // calling thread, so it lives in the caller's heap, which the next
        // batch reuses. A worker thread allocates from a malloc arena of its
        // own that stays resident after the thread exits, and a batch whose
        // threads start before the last batch's have released theirs takes
        // a fresh one.
        let mut workers: Vec<E::Worker> = (0..threads).map(|_| self.engine.new_worker()).collect();
        let cursor = AtomicUsize::new(0);
        // One worker's loop: take the next frame index until the batch is
        // exhausted. A panic may have poisoned the worker state, so the
        // worker reports it and retires.
        let drain = |worker: &mut E::Worker| {
            let mut done: Vec<(usize, Outcome<T>)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(img) = images.get(i) else { break };
                let _sp = seneca_trace::span("session", "infer");
                let out =
                    std::panic::catch_unwind(AssertUnwindSafe(|| work(self.engine, worker, img)));
                let dead = out.is_err();
                done.push((i, out));
                if dead {
                    break;
                }
            }
            done
        };
        let mut done = if threads == 1 {
            drain(&mut workers[0])
        } else {
            std::thread::scope(|scope| {
                let drain = &drain;
                let handles: Vec<_> =
                    workers.iter_mut().map(|w| scope.spawn(move || drain(w))).collect();
                handles.into_iter().flat_map(|h| h.join().expect("worker loop")).collect()
            })
        };
        // Indices are taken in order, so every frame before the earliest
        // failing one ran to completion: in index order, the first error
        // met is the one to re-raise.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(i, out)| out.unwrap_or_else(|payload| rethrow(i, payload))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_tensor::Shape4;

    /// Toy engine: label = round(first pixel), logits echo the input.
    struct Echo;
    impl InferenceEngine for Echo {
        type Worker = usize; // counts frames this worker has seen
        fn new_worker(&self) -> usize {
            0
        }
        fn infer(&self, worker: &mut usize, image: &Tensor) -> Prediction {
            *worker += 1;
            Prediction {
                labels: vec![image.data()[0] as u8],
                logits: crate::Logits::F32(image.clone()),
            }
        }
    }

    /// Engine that panics on frames whose first pixel is negative.
    struct Fussy;
    impl InferenceEngine for Fussy {
        type Worker = ();
        fn new_worker(&self) {}
        fn infer(&self, _w: &mut (), image: &Tensor) -> Prediction {
            assert!(image.data()[0] >= 0.0, "negative frame rejected");
            Echo.infer(&mut 0, image)
        }
    }

    fn images(n: usize) -> Vec<Tensor> {
        (0..n).map(|i| Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![i as f32])).collect()
    }

    #[test]
    fn preserves_submission_order() {
        let imgs = images(17);
        for threads in [1, 2, 4, 8] {
            let out = InferenceSession::new(&Echo, threads).run(&imgs);
            let labels: Vec<u8> = out.iter().map(|p| p.labels[0]).collect();
            assert_eq!(labels, (0..17).map(|i| i as u8).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(InferenceSession::new(&Echo, 4).run(&[]).is_empty());
    }

    #[test]
    fn run_timed_returns_one_duration_per_frame() {
        let imgs = images(9);
        for threads in [1, 3] {
            let (preds, times) = InferenceSession::new(&Echo, threads).run_timed(&imgs);
            assert_eq!(preds.len(), 9);
            assert_eq!(times.len(), 9);
            assert_eq!(preds[4].labels[0], 4, "timed path preserves order");
        }
    }

    #[test]
    fn worker_panic_reports_failing_frame() {
        // Two failing frames: the earlier one is the one reported.
        let mut imgs = images(12);
        imgs[7] = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0]);
        imgs[9] = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0]);
        for threads in [1, 4] {
            let session_panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
                InferenceSession::new(&Fussy, threads).run(&imgs)
            }))
            .expect_err("worker panic must propagate");
            let msg =
                session_panic.downcast_ref::<String>().cloned().expect("panic message is a string");
            assert!(msg.contains("frame 7:"), "threads={threads}: {msg}");
            assert!(msg.contains("negative frame rejected"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn all_workers_panicking_still_reports_first_frame() {
        let imgs: Vec<Tensor> =
            (0..20).map(|_| Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0])).collect();
        let session_panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            InferenceSession::new(&Fussy, 4).run(&imgs)
        }))
        .expect_err("must propagate");
        let msg = session_panic.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("panicked on frame 0:"), "{msg}");
    }

    /// Worker state is built on the calling thread, so its buffers live in
    /// the caller's heap, not in the malloc arenas of the worker threads.
    #[test]
    fn workers_are_built_on_the_calling_thread() {
        struct Where(std::thread::ThreadId);
        impl InferenceEngine for Where {
            type Worker = ();
            fn new_worker(&self) {
                assert_eq!(std::thread::current().id(), self.0, "worker built off the caller");
            }
            fn infer(&self, _w: &mut (), image: &Tensor) -> Prediction {
                assert_ne!(std::thread::current().id(), self.0, "frame ran on the caller");
                Echo.infer(&mut 0, image)
            }
        }
        let engine = Where(std::thread::current().id());
        assert_eq!(InferenceSession::new(&engine, 3).run(&images(7)).len(), 7);
    }

    #[test]
    fn resolve_worker_threads_clamps_both_ends() {
        assert_eq!(resolve_worker_threads(4, 2), 2);
        assert_eq!(resolve_worker_threads(4, 100), 4);
        assert_eq!(resolve_worker_threads(0, 3), 1);
        assert_eq!(resolve_worker_threads(2, 0), 1);
    }
}
