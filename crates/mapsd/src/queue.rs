//! Admission control: a bounded work queue with per-client in-flight
//! quotas and load shedding.
//!
//! The daemon's overload philosophy is *shed, don't stretch*: once the
//! queue holds `MAPS_D_QUEUE` jobs (or one client holds
//! `MAPS_D_CLIENT_QUOTA` slots), new work is answered immediately with a
//! 429-style shed response instead of being buffered into unbounded
//! latency. Queue depth is therefore also the backpressure signal
//! `/readyz` reports, letting load balancers steer around a saturated
//! instance before it sheds.
//!
//! Shapes:
//! - [`WorkQueue::submit_job`] admits or sheds in O(clients) under one lock;
//!   admission returns the response channel and an RAII [`ClientPermit`]
//!   that releases the client's slot when the connection handler finishes.
//! - [`WorkQueue::pop`] blocks workers on a condvar; it returns `None`
//!   once the queue is draining *and* empty, which is how workers learn
//!   to exit.
//! - [`WorkQueue::drain`] + [`WorkQueue::wait_idle`] implement
//!   drain-on-stop: no new admissions, existing jobs run to completion.

use crate::protocol::{Envelope, JobResult};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Queue sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued (not yet started) jobs before shedding.
    pub depth: usize,
    /// Maximum in-flight jobs per client (by peer IP) before shedding.
    pub client_quota: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            depth: 64,
            client_quota: 16,
        }
    }
}

impl QueueConfig {
    /// Reads `MAPS_D_QUEUE` and `MAPS_D_CLIENT_QUOTA`, warning once on
    /// malformed values; both are clamped to at least 1.
    pub fn from_env() -> Self {
        let d = QueueConfig::default();
        QueueConfig {
            depth: maps_obs::parse_env_or("MAPS_D_QUEUE", d.depth).max(1),
            client_quota: maps_obs::parse_env_or("MAPS_D_CLIENT_QUOTA", d.client_quota).max(1),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The bounded queue is full.
    QueueFull,
    /// This client already holds its full in-flight quota.
    Quota,
    /// The daemon is draining for shutdown.
    Draining,
}

impl Shed {
    /// Wire name of the shed reason.
    pub fn reason(&self) -> &'static str {
        match self {
            Shed::QueueFull => "queue_full",
            Shed::Quota => "client_quota",
            Shed::Draining => "draining",
        }
    }

    /// HTTP status for this shed: overload sheds are 429, drain is 503.
    pub fn http_status(&self) -> u16 {
        match self {
            Shed::QueueFull | Shed::Quota => 429,
            Shed::Draining => 503,
        }
    }
}

/// One admitted job waiting for a worker.
pub struct Job {
    /// The parsed request.
    pub envelope: Envelope,
    /// When admission happened (queue-latency accounting).
    pub accepted: Instant,
    /// Absolute deadline derived from the envelope's `deadline_ms`.
    pub deadline: Option<Instant>,
    /// Client key (peer IP) for attribution in spans.
    pub client: String,
    /// Trace context captured at admission (inside the root
    /// `mapsd.request` span); workers adopt it so their spans — and
    /// everything rayon fans out below them — stitch into the request's
    /// flow.
    pub ctx: maps_obs::TaskContext,
    /// Channel the worker answers on; the connection handler holds the
    /// receiving end.
    pub respond: SyncSender<JobResult>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// In-flight count per client key. Linear scan: the client set is
    /// small (quota * distinct IPs actually connected).
    clients: Vec<(String, usize)>,
    /// Jobs popped by a worker and not yet finished.
    active: usize,
    draining: bool,
}

/// The bounded, shedding work queue shared by the accept loop and workers.
pub struct WorkQueue {
    config: QueueConfig,
    state: Mutex<QueueState>,
    /// Signaled on push and drain: wakes workers.
    ready: Condvar,
    /// Signaled on job completion and drain: wakes `wait_idle`.
    idle: Condvar,
}

/// RAII client-quota slot: held by the connection handler from admission
/// until its response is written, so a client's concurrent requests are
/// bounded end to end (queued + solving + responding).
pub struct ClientPermit {
    queue: Arc<WorkQueue>,
    client: String,
}

impl Drop for ClientPermit {
    fn drop(&mut self) {
        let mut st = self.queue.state.lock().expect("queue state");
        if let Some(entry) = st.clients.iter_mut().find(|(c, _)| *c == self.client) {
            entry.1 = entry.1.saturating_sub(1);
        }
        st.clients.retain(|(_, n)| *n > 0);
        self.queue.idle.notify_all();
    }
}

/// A job a worker has taken ownership of; dropping it marks the job
/// finished (for drain accounting) even if the worker panicked mid-solve.
pub struct ActiveJob {
    /// The job being worked.
    pub job: Job,
    queue: Arc<WorkQueue>,
}

impl Drop for ActiveJob {
    fn drop(&mut self) {
        let mut st = self.queue.state.lock().expect("queue state");
        st.active = st.active.saturating_sub(1);
        self.queue.idle.notify_all();
    }
}

impl WorkQueue {
    /// Creates a queue with the given sizing.
    pub fn new(config: QueueConfig) -> Arc<Self> {
        Arc::new(WorkQueue {
            config,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                clients: Vec::new(),
                active: 0,
                draining: false,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
        })
    }

    /// The sizing this queue was built with.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Jobs currently queued (excluding active ones).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue state").jobs.len()
    }

    /// True when the queue cannot admit another job right now.
    pub fn is_saturated(&self) -> bool {
        let st = self.state.lock().expect("queue state");
        st.draining || st.jobs.len() >= self.config.depth
    }

    /// True once [`WorkQueue::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.state.lock().expect("queue state").draining
    }

    /// Admits a job or sheds it, accounting either way.
    ///
    /// On admission the job is queued, a worker is woken, and the caller
    /// receives the response channel plus the client's quota permit.
    ///
    /// # Errors
    ///
    /// Returns the [`Shed`] reason when the queue is draining, the client
    /// is over quota, or the queue is full.
    pub fn submit_job(
        self: &Arc<Self>,
        client: &str,
        envelope: Envelope,
        deadline: Option<Instant>,
        ctx: maps_obs::TaskContext,
    ) -> Result<(Receiver<JobResult>, ClientPermit), Shed> {
        let mut st = self.state.lock().expect("queue state");
        if st.draining {
            shed_counters(Shed::Draining);
            return Err(Shed::Draining);
        }
        let held = st
            .clients
            .iter()
            .find(|(c, _)| c == client)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if held >= self.config.client_quota {
            shed_counters(Shed::Quota);
            return Err(Shed::Quota);
        }
        if st.jobs.len() >= self.config.depth {
            shed_counters(Shed::QueueFull);
            return Err(Shed::QueueFull);
        }
        match st.clients.iter_mut().find(|(c, _)| c == client) {
            Some(entry) => entry.1 += 1,
            None => st.clients.push((client.to_string(), 1)),
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.jobs.push_back(Job {
            envelope,
            accepted: Instant::now(),
            deadline,
            client: client.to_string(),
            ctx,
            respond: tx,
        });
        maps_obs::gauge("mapsd.queue.depth").set(st.jobs.len() as f64);
        drop(st);
        self.ready.notify_one();
        Ok((
            rx,
            ClientPermit {
                queue: Arc::clone(self),
                client: client.to_string(),
            },
        ))
    }

    /// Blocks until a job is available (returning it) or the queue has
    /// drained dry (returning `None`, telling the worker to exit).
    pub fn pop(self: &Arc<Self>) -> Option<ActiveJob> {
        let mut st = self.state.lock().expect("queue state");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                st.active += 1;
                maps_obs::gauge("mapsd.queue.depth").set(st.jobs.len() as f64);
                return Some(ActiveJob {
                    job,
                    queue: Arc::clone(self),
                });
            }
            if st.draining {
                return None;
            }
            st = self.ready.wait(st).expect("queue state");
        }
    }

    /// Stops admissions (future submissions shed with [`Shed::Draining`])
    /// and wakes every blocked worker so they can run the queue dry.
    pub fn drain(&self) {
        let mut st = self.state.lock().expect("queue state");
        st.draining = true;
        drop(st);
        self.ready.notify_all();
        self.idle.notify_all();
    }

    /// Waits until no job is queued or being worked, up to `timeout`.
    /// Returns true when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("queue state");
        while !(st.jobs.is_empty() && st.active == 0) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .idle
                .wait_timeout(st, deadline - now)
                .expect("queue state");
            st = next;
        }
        true
    }
}

fn shed_counters(shed: Shed) {
    maps_obs::counter("mapsd.shed").inc();
    match shed {
        Shed::QueueFull => maps_obs::counter("mapsd.shed.queue_full").inc(),
        Shed::Quota => maps_obs::counter("mapsd.shed.client_quota").inc(),
        Shed::Draining => maps_obs::counter("mapsd.shed.draining").inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_envelope, JobKind};

    fn shed_of(r: Result<(Receiver<JobResult>, ClientPermit), Shed>) -> Shed {
        match r {
            Err(s) => s,
            Ok(_) => panic!("expected the submission to shed"),
        }
    }

    fn tiny_envelope() -> Envelope {
        parse_envelope(
            JobKind::Solve,
            r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0}"#,
        )
        .expect("envelope")
    }

    #[test]
    fn full_queue_sheds_and_drains_dry() {
        let q = WorkQueue::new(QueueConfig {
            depth: 2,
            client_quota: 10,
        });
        let (_rx1, _p1) = q
            .submit_job("a", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("first");
        let (_rx2, _p2) = q
            .submit_job("a", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("second");
        assert_eq!(
            shed_of(q.submit_job("a", tiny_envelope(), None, maps_obs::TaskContext::NONE)),
            Shed::QueueFull
        );
        assert_eq!(q.depth(), 2);
        assert!(q.is_saturated());

        q.drain();
        assert_eq!(
            shed_of(q.submit_job("b", tiny_envelope(), None, maps_obs::TaskContext::NONE)),
            Shed::Draining
        );
        // Workers can still run the queue dry after drain.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "drained queue returns None");
        assert!(q.wait_idle(Duration::from_secs(1)));
    }

    #[test]
    fn client_quota_is_per_client_and_released_by_permit_drop() {
        let q = WorkQueue::new(QueueConfig {
            depth: 100,
            client_quota: 2,
        });
        let (_r1, p1) = q
            .submit_job("alice", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("1");
        let (_r2, _p2) = q
            .submit_job("alice", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("2");
        assert_eq!(
            shed_of(q.submit_job("alice", tiny_envelope(), None, maps_obs::TaskContext::NONE)),
            Shed::Quota,
            "third concurrent job from one client sheds"
        );
        // A different client is unaffected.
        let (_r3, _p3) = q
            .submit_job("bob", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("bob");
        // Releasing one of alice's permits re-admits her.
        drop(p1);
        assert!(q
            .submit_job("alice", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .is_ok());
    }

    #[test]
    fn pop_blocks_until_submit() {
        let q = WorkQueue::new(QueueConfig::default());
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop().map(|a| a.job.client.clone()));
        std::thread::sleep(Duration::from_millis(30));
        let (_rx, _permit) = q
            .submit_job("carol", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("admit");
        assert_eq!(popper.join().expect("join").as_deref(), Some("carol"));
    }

    #[test]
    fn wait_idle_waits_for_active_jobs() {
        let q = WorkQueue::new(QueueConfig::default());
        let (_rx, _permit) = q
            .submit_job("d", tiny_envelope(), None, maps_obs::TaskContext::NONE)
            .expect("admit");
        let active = q.pop().expect("pop");
        q.drain();
        assert!(
            !q.wait_idle(Duration::from_millis(50)),
            "an active job holds idle off"
        );
        drop(active);
        assert!(q.wait_idle(Duration::from_secs(1)));
    }

    #[test]
    fn env_config_clamps_to_one() {
        // Defaults only (env not set in tests): sane non-zero sizing.
        let c = QueueConfig::from_env();
        assert!(c.depth >= 1);
        assert!(c.client_quota >= 1);
    }
}
