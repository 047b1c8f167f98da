//! Retrying storage writes: exponential backoff with a deadline.
//!
//! The paper's remote data server is a single contended ~100 MB/s link;
//! at production scale such links drop and stall. Every pipeline write
//! (local disk, remote link) therefore goes through
//! [`write_with_retry`]: a transient failure is retried with exponentially
//! growing backoff, a persistent failure exhausts the attempt budget, and
//! a cumulative-delay deadline bounds how long one write may stall the
//! pipeline. Backoff is *modeled* time (seconds added to the pipeline
//! clock), so retries are deterministic and cost nothing on the host.

use crate::error::IbisError;
use crate::fault::{FaultInjector, WriteFault};
use crate::io::Storage;
use ibis_obs::LazyCounter;

static OBS_WRITE_ATTEMPTS: LazyCounter = LazyCounter::new("store.write.attempts");
static OBS_WRITE_RETRIES: LazyCounter = LazyCounter::new("store.write.retries");
static OBS_WRITE_FAILURES: LazyCounter = LazyCounter::new("store.write.failures");

/// Retry schedule for storage operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in modeled seconds.
    pub base_backoff: f64,
    /// Multiplier applied per further retry (exponential backoff).
    pub multiplier: f64,
    /// Cap on a single backoff interval, in modeled seconds.
    pub max_backoff: f64,
    /// Cap on the *cumulative* delay (backoff + delayed acks) one write
    /// may accumulate; exceeding it fails the write with
    /// [`IbisError::DeadlineExceeded`]. `None` = unbounded.
    pub deadline: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 0.05,
            multiplier: 2.0,
            max_backoff: 2.0,
            deadline: Some(30.0),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (1-based), in modeled seconds.
    pub fn backoff(&self, retry: u32) -> f64 {
        let exp = self.multiplier.powi(retry.saturating_sub(1) as i32);
        (self.base_backoff * exp).min(self.max_backoff)
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), IbisError> {
        if self.max_attempts == 0 {
            return Err(IbisError::Config("retry policy needs >= 1 attempt".into()));
        }
        if !(self.base_backoff >= 0.0 && self.multiplier >= 1.0 && self.max_backoff >= 0.0) {
            return Err(IbisError::Config(
                "retry backoff must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of a (possibly retried) storage write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReceipt {
    /// Seconds until the write (including queueing, retries, backoff and
    /// delayed acks) completed, relative to `now`.
    pub seconds: f64,
    /// Attempts performed (1 = clean first try).
    pub attempts: u32,
}

/// Writes `bytes` to `storage` at modeled time `now`, consulting the fault
/// `injector` and retrying transient failures per `policy`.
///
/// Injected faults are charged as follows: an I/O error or torn write
/// costs one backoff interval and a retry; a delayed ack adds its latency
/// to the completion time. Real storage failures (from the [`Storage`]
/// impl itself) are retried the same way.
pub fn write_with_retry(
    storage: &dyn Storage,
    injector: &FaultInjector,
    policy: &RetryPolicy,
    now: f64,
    bytes: u64,
) -> Result<WriteReceipt, IbisError> {
    let receipt = write_with_retry_impl(storage, injector, policy, now, bytes);
    match &receipt {
        Ok(r) => {
            OBS_WRITE_ATTEMPTS.add(r.attempts as u64);
            OBS_WRITE_RETRIES.add(r.attempts.saturating_sub(1) as u64);
        }
        Err(_) => OBS_WRITE_FAILURES.inc(),
    }
    receipt
}

fn write_with_retry_impl(
    storage: &dyn Storage,
    injector: &FaultInjector,
    policy: &RetryPolicy,
    now: f64,
    bytes: u64,
) -> Result<WriteReceipt, IbisError> {
    let op = injector.begin_write();
    let mut delay = 0.0f64; // cumulative backoff + ack delay
    let mut extra_ack = 0.0f64;
    let mut last_error = String::new();
    for attempt in 0..policy.max_attempts {
        if let Some(deadline) = policy.deadline {
            if delay > deadline {
                return Err(IbisError::DeadlineExceeded {
                    site: storage.describe(),
                    deadline,
                });
            }
        }
        let fault = injector.write_fault_for(op, attempt);
        match fault {
            Some(WriteFault::IoError) => {
                last_error = format!("injected I/O error (op {op})");
            }
            Some(WriteFault::Torn) => {
                last_error = format!("injected torn write (op {op})");
            }
            Some(WriteFault::DelayedAck(ack)) => {
                // the transfer itself succeeds; only the ack is late
                extra_ack += ack;
                match storage.write(now + delay, bytes) {
                    Ok(secs) => {
                        return Ok(WriteReceipt {
                            seconds: delay + secs + extra_ack,
                            attempts: attempt + 1,
                        })
                    }
                    Err(e) => last_error = e.to_string(),
                }
            }
            None => match storage.write(now + delay, bytes) {
                Ok(secs) => {
                    return Ok(WriteReceipt {
                        seconds: delay + secs + extra_ack,
                        attempts: attempt + 1,
                    })
                }
                Err(e) => last_error = e.to_string(),
            },
        }
        delay += policy.backoff(attempt + 1);
    }
    Err(IbisError::StorageExhausted {
        site: storage.describe(),
        attempts: policy.max_attempts,
        last_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::io::LocalDisk;

    #[test]
    fn clean_write_is_one_attempt() {
        let disk = LocalDisk::new(100.0);
        let inj = FaultInjector::inert();
        let r = write_with_retry(&disk, &inj, &RetryPolicy::default(), 0.0, 500).unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(r.seconds, 5.0);
    }

    #[test]
    fn transient_error_costs_one_backoff() {
        let disk = LocalDisk::new(100.0);
        let inj = FaultInjector::new(FaultPlan::none().with_io_error_at(0));
        let policy = RetryPolicy::default();
        let r = write_with_retry(&disk, &inj, &policy, 0.0, 500).unwrap();
        assert_eq!(r.attempts, 2);
        assert!((r.seconds - (policy.backoff(1) + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn persistent_error_exhausts_attempts() {
        let disk = LocalDisk::new(100.0);
        let inj = FaultInjector::new(
            FaultPlan::none()
                .with_io_error_at(0)
                .with_persistent_write_faults(),
        );
        let err = write_with_retry(&disk, &inj, &RetryPolicy::default(), 0.0, 500).unwrap_err();
        match err {
            IbisError::StorageExhausted { attempts, .. } => assert_eq!(attempts, 4),
            other => panic!("expected exhaustion, got {other}"),
        }
        assert_eq!(disk.bytes_written(), 0, "no attempt actually landed");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: 0.1,
            multiplier: 2.0,
            max_backoff: 0.5,
            deadline: None,
        };
        assert!((p.backoff(1) - 0.1).abs() < 1e-12);
        assert!((p.backoff(2) - 0.2).abs() < 1e-12);
        assert!((p.backoff(3) - 0.4).abs() < 1e-12);
        assert!((p.backoff(4) - 0.5).abs() < 1e-12, "capped");
    }

    #[test]
    fn deadline_stops_retrying() {
        let disk = LocalDisk::new(100.0);
        let inj = FaultInjector::new(
            FaultPlan::none()
                .with_io_error_at(0)
                .with_persistent_write_faults(),
        );
        let policy = RetryPolicy {
            max_attempts: 1000,
            base_backoff: 1.0,
            multiplier: 2.0,
            max_backoff: 64.0,
            deadline: Some(10.0),
        };
        let err = write_with_retry(&disk, &inj, &policy, 0.0, 500).unwrap_err();
        assert!(matches!(err, IbisError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn delayed_ack_adds_latency() {
        let disk = LocalDisk::new(100.0);
        let inj = FaultInjector::new(FaultPlan::none().with_delayed_ack_at(0, 0.5));
        let r = write_with_retry(&disk, &inj, &RetryPolicy::default(), 0.0, 500).unwrap();
        assert_eq!(r.attempts, 1);
        assert!((r.seconds - 5.5).abs() < 1e-9);
    }
}
