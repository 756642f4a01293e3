//! The `RETRAIN` action (A3): rate limiting and asynchronous execution.
//!
//! "We envision offline training, so this is an asynchronous process that
//! must be protected to prevent abuse from malicious processes by
//! intentionally triggering frequent retraining" (§3.2). The protection is
//! the [`RetrainLimiter`]: a per-model minimum interval plus a budget over a
//! rolling window. The [`AsyncRetrainer`] executes accepted jobs on a
//! background thread, modelling the offline trainer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use parking_lot::Mutex;
use simkernel::Nanos;

/// Why a retrain request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrainRejection {
    /// The per-model minimum interval has not elapsed.
    TooSoon,
    /// The rolling-window budget is exhausted.
    BudgetExhausted,
}

/// A per-model retraining rate limiter.
///
/// # Examples
///
/// ```
/// use guardrails::action::retrain::RetrainLimiter;
/// use simkernel::Nanos;
///
/// let mut lim = RetrainLimiter::new(Nanos::from_secs(10), 2, Nanos::from_secs(60));
/// assert!(lim.request("m", Nanos::from_secs(0)).is_ok());
/// assert!(lim.request("m", Nanos::from_secs(1)).is_err()); // Too soon.
/// assert!(lim.request("m", Nanos::from_secs(15)).is_ok());
/// assert!(lim.request("m", Nanos::from_secs(30)).is_err()); // Budget of 2/60s spent.
/// ```
#[derive(Debug)]
pub struct RetrainLimiter {
    min_interval: Nanos,
    budget: usize,
    budget_window: Nanos,
    history: HashMap<String, Vec<Nanos>>,
    accepted: u64,
    rejected: u64,
}

impl RetrainLimiter {
    /// Creates a limiter: at most one retrain per `min_interval`, and at most
    /// `budget` retrains per `budget_window`, per model.
    pub fn new(min_interval: Nanos, budget: usize, budget_window: Nanos) -> Self {
        RetrainLimiter {
            min_interval,
            budget: budget.max(1),
            budget_window,
            history: HashMap::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// A permissive default: once per 5 seconds, 10 per 5 minutes.
    pub fn default_policy() -> Self {
        Self::new(Nanos::from_secs(5), 10, Nanos::from_secs(300))
    }

    /// Requests a retrain of `model` at time `now`.
    pub fn request(&mut self, model: &str, now: Nanos) -> Result<(), RetrainRejection> {
        let history = self.history.entry(model.to_string()).or_default();
        let horizon = now.saturating_sub(self.budget_window);
        history.retain(|&t| t >= horizon);
        if let Some(&last) = history.last() {
            if now.saturating_sub(last) < self.min_interval {
                self.rejected += 1;
                return Err(RetrainRejection::TooSoon);
            }
        }
        if history.len() >= self.budget {
            self.rejected += 1;
            return Err(RetrainRejection::BudgetExhausted);
        }
        history.push(now);
        self.accepted += 1;
        Ok(())
    }

    /// Total accepted requests.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total rejected requests (the abuse the limiter absorbed).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// A retraining job: the model name plus the work to run.
type Job = (String, Box<dyn FnOnce() + Send>);

/// A background retraining executor.
///
/// Jobs run on a dedicated thread in submission order, modelling the
/// asynchronous offline trainer; the kernel-side caller never blocks.
///
/// By default the worker is *panic-isolated*: a job that panics is counted
/// and discarded, and the worker keeps serving subsequent jobs. Without
/// isolation (see [`AsyncRetrainer::with_protection`]) a single bad job
/// unwinds the worker thread and every later retrain is silently lost —
/// the unhardened behaviour the fault experiments contrast against.
pub struct AsyncRetrainer {
    tx: Option<Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
    completed: Arc<Mutex<Vec<String>>>,
    panicked: Arc<AtomicU64>,
    protected: bool,
}

impl Default for AsyncRetrainer {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncRetrainer {
    /// Spawns the background trainer thread with panic isolation.
    pub fn new() -> Self {
        Self::with_protection(true)
    }

    /// Spawns the trainer thread, optionally without panic isolation
    /// (`protected = false` models the unhardened runtime).
    pub fn with_protection(protected: bool) -> Self {
        let (tx, rx) = channel::<Job>();
        let completed = Arc::new(Mutex::new(Vec::new()));
        let completed_worker = Arc::clone(&completed);
        let panicked = Arc::new(AtomicU64::new(0));
        let panicked_worker = Arc::clone(&panicked);
        let handle = std::thread::spawn(move || {
            while let Ok((model, job)) = rx.recv() {
                if protected {
                    match catch_unwind(AssertUnwindSafe(job)) {
                        Ok(()) => completed_worker.lock().push(model),
                        Err(_) => {
                            // The job died; the worker must not. Count it —
                            // a guardrail can watch the counter and REPORT.
                            panicked_worker.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                } else {
                    job();
                    completed_worker.lock().push(model);
                }
            }
        });
        AsyncRetrainer {
            tx: Some(tx),
            handle: Some(handle),
            completed,
            panicked,
            protected,
        }
    }

    /// How many jobs have panicked (always 0 without protection: the first
    /// panic kills the worker before it can be counted).
    pub fn panicked(&self) -> u64 {
        self.panicked.load(Ordering::SeqCst)
    }

    /// Whether the worker isolates job panics.
    pub fn is_protected(&self) -> bool {
        self.protected
    }

    /// Whether the worker thread is still running (`false` after an
    /// unprotected job panic or after shutdown).
    pub fn worker_alive(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Submits a retraining job for `model`; returns immediately.
    pub fn submit(&self, model: &str, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // A send failure means the worker exited; losing the retrain is
            // acceptable (the guardrail will fire again), so ignore it.
            let _ = tx.send((model.to_string(), Box::new(job)));
        }
    }

    /// Model names whose jobs have completed, in completion order.
    pub fn completed(&self) -> Vec<String> {
        self.completed.lock().clone()
    }

    /// Shuts the worker down, waiting for queued jobs to finish.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Dropping the sender lets the worker's recv loop end.
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AsyncRetrainer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn limiter_enforces_min_interval_per_model() {
        let mut lim = RetrainLimiter::new(Nanos::from_secs(10), 100, Nanos::from_secs(1000));
        assert!(lim.request("a", Nanos::from_secs(0)).is_ok());
        assert_eq!(
            lim.request("a", Nanos::from_secs(5)),
            Err(RetrainRejection::TooSoon)
        );
        // A different model has its own clock.
        assert!(lim.request("b", Nanos::from_secs(5)).is_ok());
        assert!(lim.request("a", Nanos::from_secs(10)).is_ok());
        assert_eq!(lim.accepted(), 3);
        assert_eq!(lim.rejected(), 1);
    }

    #[test]
    fn limiter_budget_recovers_after_window() {
        let mut lim = RetrainLimiter::new(Nanos::from_secs(1), 2, Nanos::from_secs(100));
        assert!(lim.request("m", Nanos::from_secs(0)).is_ok());
        assert!(lim.request("m", Nanos::from_secs(10)).is_ok());
        assert_eq!(
            lim.request("m", Nanos::from_secs(20)),
            Err(RetrainRejection::BudgetExhausted)
        );
        // After the window slides past the first request, budget frees up.
        assert!(lim.request("m", Nanos::from_secs(101)).is_ok());
    }

    #[test]
    fn async_retrainer_runs_jobs_in_order() {
        let retrainer = AsyncRetrainer::new();
        let counter = Arc::new(AtomicU32::new(0));
        for i in 0..3 {
            let c = Arc::clone(&counter);
            retrainer.submit(&format!("model{i}"), move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        retrainer.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    /// Silences the default panic hook for the duration of a test that
    /// provokes intentional job panics (keeps `cargo test` output clean).
    fn with_quiet_panics(f: impl FnOnce()) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        f();
        std::panic::set_hook(prev);
    }

    #[test]
    fn panicking_job_does_not_poison_the_worker() {
        with_quiet_panics(|| {
            let retrainer = AsyncRetrainer::new();
            assert!(retrainer.is_protected());
            retrainer.submit("good1", || {});
            retrainer.submit("bad", || panic!("boom"));
            retrainer.submit("good2", || {});
            // Drain by polling: all three jobs get consumed.
            while retrainer.completed().len() + (retrainer.panicked() as usize) < 3 {
                std::thread::yield_now();
            }
            assert_eq!(
                retrainer.completed(),
                vec!["good1".to_string(), "good2".to_string()]
            );
            assert_eq!(retrainer.panicked(), 1);
            assert!(retrainer.worker_alive(), "worker survives the panic");
            retrainer.shutdown();
        });
    }

    #[test]
    fn unprotected_worker_dies_on_panic() {
        with_quiet_panics(|| {
            let retrainer = AsyncRetrainer::with_protection(false);
            assert!(!retrainer.is_protected());
            retrainer.submit("bad", || panic!("boom"));
            // The panic unwinds the worker; wait for the thread to finish.
            while retrainer.worker_alive() {
                std::thread::yield_now();
            }
            retrainer.submit("after", || {});
            assert_eq!(retrainer.panicked(), 0, "nobody left to count it");
            assert!(retrainer.completed().is_empty(), "later jobs are lost");
        });
    }

    #[test]
    fn shutdown_drains_in_flight_jobs() {
        let retrainer = AsyncRetrainer::new();
        let counter = Arc::new(AtomicU32::new(0));
        for i in 0..16 {
            let c = Arc::clone(&counter);
            retrainer.submit(&format!("m{i}"), move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Shutdown must wait for every queued job, not just the running one.
        retrainer.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn completed_lists_models() {
        let retrainer = AsyncRetrainer::new();
        retrainer.submit("m1", || {});
        retrainer.submit("m2", || {});
        retrainer.shutdown_blocking_for_test();
    }

    impl AsyncRetrainer {
        fn shutdown_blocking_for_test(mut self) {
            self.shutdown_inner();
            assert_eq!(self.completed(), vec!["m1".to_string(), "m2".to_string()]);
        }
    }
}
