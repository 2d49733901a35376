//! The admission queue: all admission and batching state behind one
//! `Mutex`, plus the one `Condvar` workers park on.
//!
//! Accepted requests sit in per-model FIFOs. `submit` normalizes every
//! input to the model's exact `[1, C, H, W]` shape, so two requests for one
//! model are always batch-compatible: a worker that takes a seed from a
//! model's FIFO takes its riders from the *same FIFO's front* — no scan for
//! compatible requests over a mixed queue.
//!
//! Batch formation is work-conserving: a worker dispatches its seed with
//! whatever riders the seed's FIFO holds at that moment, up to
//! `max_batch`, and never holds a batch open for more. Batches still grow
//! under backlog, because riders pile up in the FIFOs while the workers
//! compute.
//!
//! The closed flag, the capacity and quota checks, and the live batching
//! policy are all read under the lock the FIFOs change under. An admission
//! racing `close` is therefore either queued (and drained) or refused, and
//! a worker that checks its wake condition under the lock cannot miss the
//! notify that changes it, so idle workers wait untimed.

use crate::engine::BatchPolicy;
use crate::request::QueuedRequest;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Why an admission was refused, in precedence order: closed, then
/// capacity, then the model's quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    Closed,
    Full,
    /// The model already has `quota` requests queued.
    Throttled {
        quota: usize,
    },
}

/// One coalesced batch, as handed to a worker.
pub(crate) struct Batch {
    /// The seed, then its riders in submit order; all for one model.
    pub(crate) requests: Vec<QueuedRequest>,
    /// When the seed was taken (batch formation).
    pub(crate) formed: Instant,
    /// Requests still queued once the batch was taken (queue-depth gauge).
    pub(crate) depth: usize,
}

struct State {
    closed: bool,
    /// Accepted-but-undispatched requests, one FIFO per model.
    per_model: Vec<VecDeque<QueuedRequest>>,
    /// Per-model admission quotas (`usize::MAX` = unlimited).
    quotas: Vec<usize>,
    /// The live batching policy, read once per batch at its seed.
    policy: BatchPolicy,
}

impl State {
    fn depth(&self) -> usize {
        self.per_model.iter().map(VecDeque::len).sum()
    }

    /// Pops the front of the first non-empty model FIFO, scanning
    /// round-robin from `start` so no model starves behind a busy one.
    fn pop_seed(&mut self, start: usize) -> Option<QueuedRequest> {
        let models = self.per_model.len();
        (0..models).find_map(|k| self.per_model[(start + k) % models].pop_front())
    }
}

/// `max_batch` floored at 1.
fn sanitized(policy: BatchPolicy) -> BatchPolicy {
    BatchPolicy {
        max_batch: policy.max_batch.max(1),
        ..policy
    }
}

/// The bounded admission queue and batcher shared by `submit` and the
/// serving workers.
pub(crate) struct AdmissionQueue {
    capacity: usize,
    state: Mutex<State>,
    available: Condvar,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize, models: usize, policy: BatchPolicy) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            state: Mutex::new(State {
                closed: false,
                // Each FIFO is sized for the whole capacity up front, so
                // `admit` never reallocates while holding the lock.
                per_model: (0..models)
                    .map(|_| VecDeque::with_capacity(capacity))
                    .collect(),
                quotas: vec![usize::MAX; models],
                policy: sanitized(policy),
            }),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("queue lock")
    }

    /// Queues `request` unless the queue is closed, full, or the request's
    /// model is at its quota (checked in that order), then wakes the
    /// workers. Returns the queue depth including the new request.
    pub(crate) fn admit(&self, request: QueuedRequest) -> Result<usize, AdmitError> {
        let depth = {
            let mut state = self.lock();
            if state.closed {
                return Err(AdmitError::Closed);
            }
            let depth = state.depth();
            if depth >= self.capacity {
                return Err(AdmitError::Full);
            }
            let model = request.model.index();
            let quota = state.quotas[model];
            if state.per_model[model].len() >= quota {
                return Err(AdmitError::Throttled { quota });
            }
            state.per_model[model].push_back(request);
            depth + 1
        };
        self.available.notify_all();
        Ok(depth)
    }

    /// Takes the next batch for `worker`, waiting while the queue is open
    /// and empty; `None` once it is closed and drained.
    ///
    /// The seed comes from the first non-empty model FIFO, scanning
    /// round-robin from the worker index so concurrent workers start on
    /// different models. Riders are the requests queued behind it in the
    /// seed's FIFO, from its front, up to `max_batch`. The batch is
    /// returned at once: it is never held open for later arrivals.
    pub(crate) fn next_batch(&self, worker: usize) -> Option<Batch> {
        let mut state = self.lock();
        let seed = loop {
            if let Some(seed) = state.pop_seed(worker) {
                break seed;
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        };
        let formed = Instant::now();
        let max_batch = state.policy.max_batch;
        let fifo = &mut state.per_model[seed.model.index()];
        let take = (max_batch - 1).min(fifo.len());
        let mut requests = Vec::with_capacity(1 + take);
        requests.push(seed);
        requests.extend(fifo.drain(..take));
        Some(Batch {
            requests,
            formed,
            depth: state.depth(),
        })
    }

    /// Stops all future admissions and wakes every worker. Requests
    /// admitted before the close stay queued and are drained.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    pub(crate) fn closed(&self) -> bool {
        self.lock().closed
    }

    /// Accepted-but-undispatched request count.
    pub(crate) fn depth(&self) -> usize {
        self.lock().depth()
    }

    /// Queued requests per model, in registration order.
    pub(crate) fn per_model(&self) -> Vec<usize> {
        self.lock().per_model.iter().map(VecDeque::len).collect()
    }

    pub(crate) fn policy(&self) -> BatchPolicy {
        self.lock().policy
    }

    /// Replaces the batching policy. Each worker reads it when it forms
    /// its next batch.
    pub(crate) fn set_policy(&self, policy: BatchPolicy) {
        self.lock().policy = sanitized(policy);
    }

    /// Sets one model's quota; `false` if `model` is out of range.
    pub(crate) fn set_quota(&self, model: usize, quota: usize) -> bool {
        match self.lock().quotas.get_mut(model) {
            Some(cell) => {
                *cell = quota;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelId;
    use pim_nn::tensor::Tensor;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    fn req(model: usize, id: u64) -> (QueuedRequest, mpsc::Receiver<crate::InferResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            QueuedRequest {
                id,
                model: ModelId::from_index(model),
                input: Tensor::ones(&[1, 1, 2, 2]),
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    fn policy(max_batch: usize, max_wait: Duration) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_wait,
        }
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.requests.iter().map(|r| r.id).collect()
    }

    const HOUR: Duration = Duration::from_secs(3600);

    /// Takes one batch on a fresh thread and returns its riders, failing
    /// if that takes a minute: a batch held for `max_wait` fails the test
    /// instead of hanging it for an hour.
    fn next_batch_in_time(q: &Arc<AdmissionQueue>, worker: usize) -> Vec<u64> {
        let (tx, rx) = mpsc::channel();
        let q = Arc::clone(q);
        thread::spawn(move || {
            let batch = q.next_batch(worker).unwrap();
            let _ = tx.send(ids(&batch));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a non-full batch was held open")
    }

    #[test]
    fn a_lone_request_is_dispatched_at_once() {
        let q = Arc::new(AdmissionQueue::new(8, 1, policy(8, HOUR)));
        q.admit(req(0, 0).0).unwrap();
        assert_eq!(next_batch_in_time(&q, 0), vec![0]);
    }

    #[test]
    fn a_batch_is_not_held_while_a_peer_is_busy() {
        let q = Arc::new(AdmissionQueue::new(8, 1, policy(3, HOUR)));
        for id in 0..3 {
            q.admit(req(0, id).0).unwrap();
        }
        let peer = q.next_batch(0).unwrap();
        assert_eq!(ids(&peer), vec![0, 1, 2]);
        // Riders queued when the seed is taken join it, up to `max_batch`;
        // the rest leave in the next batch, without waiting for the peer
        // or for more.
        for id in 3..7 {
            q.admit(req(0, id).0).unwrap();
        }
        assert_eq!(next_batch_in_time(&q, 1), vec![3, 4, 5]);
        assert_eq!(next_batch_in_time(&q, 1), vec![6]);
        drop(peer);
        q.close();
        assert!(q.next_batch(1).is_none());
    }

    #[test]
    fn admission_enforces_capacity_then_quota_then_close() {
        let q = AdmissionQueue::new(2, 2, policy(8, Duration::ZERO));
        assert_eq!(q.admit(req(0, 0).0), Ok(1));
        assert_eq!(q.admit(req(1, 1).0), Ok(2));
        assert!(q.set_quota(0, 0));
        // Capacity outranks the model's quota.
        assert_eq!(q.admit(req(0, 2).0), Err(AdmitError::Full));
        // Closed outranks capacity.
        q.close();
        assert_eq!(q.admit(req(1, 3).0), Err(AdmitError::Closed));
        assert_eq!(q.depth(), 2);

        // Quota refusals leave the depth untouched.
        let q2 = AdmissionQueue::new(8, 1, policy(8, Duration::ZERO));
        assert!(q2.set_quota(0, 0));
        assert!(!q2.set_quota(1, 0), "no model 1");
        assert_eq!(
            q2.admit(req(0, 0).0),
            Err(AdmitError::Throttled { quota: 0 })
        );
        assert_eq!(q2.depth(), 0);
        q2.close();
        assert_eq!(q2.admit(req(0, 1).0), Err(AdmitError::Closed));
    }

    #[test]
    fn fifos_are_per_model_and_rotation_is_fair() {
        let q = AdmissionQueue::new(8, 2, policy(8, Duration::ZERO));
        for (model, id) in [(0, 0), (0, 1), (1, 2)] {
            q.admit(req(model, id).0).unwrap();
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.per_model(), vec![2, 1]);
        // Worker 1 seeds from model 1 first; model 1 has no riders.
        let b = q.next_batch(1).unwrap();
        assert_eq!((ids(&b), b.depth), (vec![2], 2));
        // Model-0 riders come out in submit order.
        let b = q.next_batch(1).unwrap();
        assert_eq!((ids(&b), b.depth), (vec![0, 1], 0));
        assert_eq!(q.per_model(), vec![0, 0]);
        // `max_batch` caps riders; the rest stay queued in order.
        q.set_policy(policy(1, Duration::ZERO));
        for id in [3, 4] {
            q.admit(req(0, id).0).unwrap();
        }
        assert_eq!(ids(&q.next_batch(0).unwrap()), vec![3]);
        assert_eq!(ids(&q.next_batch(0).unwrap()), vec![4]);
        q.close();
        assert!(q.next_batch(0).is_none());
    }

    #[test]
    fn dropping_the_queue_disconnects_undelivered_tickets() {
        let q = AdmissionQueue::new(4, 1, policy(8, Duration::ZERO));
        let (r, rx) = req(0, 9);
        q.admit(r).unwrap();
        drop(q);
        assert!(rx.recv().is_err(), "sender dropped with the queue");
    }

    #[test]
    fn concurrent_floods_conserve_depth_exactly() {
        // N submitters × M drainers against one tiny queue: accepted ==
        // drained, depth returns to zero.
        let q = Arc::new(AdmissionQueue::new(
            16,
            3,
            policy(4, Duration::from_micros(50)),
        ));
        let accepted = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..4)
            .map(|s| {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                thread::spawn(move || {
                    for i in 0..200u64 {
                        let model = ((s + i) % 3) as usize;
                        if q.admit(req(model, i).0).is_ok() {
                            accepted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        let drainers: Vec<_> = (0..2)
            .map(|d| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut drained = 0;
                    while let Some(batch) = q.next_batch(d) {
                        drained += batch.requests.len();
                    }
                    drained
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        q.close();
        let drained: usize = drainers.into_iter().map(|d| d.join().unwrap()).sum();
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            drained,
            "every admitted request drained exactly once"
        );
        assert_eq!(q.depth(), 0);
        assert_eq!(q.per_model(), vec![0, 0, 0]);
    }

    #[test]
    fn close_racing_admission_drains_every_accepted_request_once() {
        // Submitters keep admitting while the queue closes under them and
        // drainers pop batches: the accepted set is drained exactly once,
        // and nothing is admitted once `close` has returned.
        let q = Arc::new(AdmissionQueue::new(
            16,
            3,
            policy(4, Duration::from_micros(50)),
        ));
        let closed = Arc::new(AtomicBool::new(false));
        let admitted = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..4u64)
            .map(|s| {
                let q = Arc::clone(&q);
                let closed = Arc::clone(&closed);
                let admitted = Arc::clone(&admitted);
                thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0u64.. {
                        let after_close = closed.load(Ordering::SeqCst);
                        let id = (s << 32) | i;
                        let result = q.admit(req(((s + i) % 3) as usize, id).0);
                        if after_close {
                            assert_eq!(result, Err(AdmitError::Closed));
                        }
                        match result {
                            Ok(_) => {
                                accepted.push(id);
                                admitted.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(AdmitError::Closed) => break,
                            Err(_) => thread::yield_now(),
                        }
                    }
                    for _ in 0..8 {
                        assert_eq!(q.admit(req(0, u64::MAX).0), Err(AdmitError::Closed));
                    }
                    accepted
                })
            })
            .collect();
        let drainers: Vec<_> = (0..2)
            .map(|d| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut drained = Vec::new();
                    while let Some(batch) = q.next_batch(d) {
                        drained.extend(batch.requests.iter().map(|r| r.id));
                    }
                    drained
                })
            })
            .collect();
        while admitted.load(Ordering::SeqCst) < 500 {
            thread::yield_now();
        }
        q.close();
        closed.store(true, Ordering::SeqCst);
        let mut accepted: Vec<u64> = submitters
            .into_iter()
            .flat_map(|s| s.join().unwrap())
            .collect();
        let mut drained: Vec<u64> = drainers
            .into_iter()
            .flat_map(|d| d.join().unwrap())
            .collect();
        accepted.sort_unstable();
        drained.sort_unstable();
        assert!(accepted.len() >= 500);
        assert_eq!(drained, accepted, "every accepted request drained once");
        assert_eq!(q.depth(), 0);
        assert_eq!(q.per_model(), vec![0, 0, 0]);
    }
}
