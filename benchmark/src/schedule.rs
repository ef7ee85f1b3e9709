//! The open-loop arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in ns from the start of the phase.
    pub due_ns: u64,
    /// Index into the tenant mix.
    pub tenant: usize,
    /// Patient (affinity) key.
    pub patient: u64,
    /// Index into the frame pool.
    pub frame: usize,
}

/// An open-loop schedule: its arrivals in due order, and its nominal length.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub seconds: f64,
    pub arrivals: Vec<Arrival>,
}

/// Poisson arrivals at `rate_per_s` over `seconds`, conditioned on their
/// count: exactly `round(rate * seconds)` requests at independent uniform
/// instants (which is what a Poisson process looks like once its count is
/// known), and tenants in exactly the proportions of `tenant_weights`, in
/// shuffled order. Gaps stay exponential-like and bursts stay, but the
/// offered load no longer differs by several percent from seed to seed.
/// Patient key and frame are drawn per request. The same seed gives the
/// same schedule.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
    tenant_weights: &[f64],
    patients: u64,
    frames: usize,
) -> Schedule {
    assert!(rate_per_s > 0.0 && seconds > 0.0 && patients > 0 && frames > 0);
    let total: f64 = tenant_weights.iter().sum();
    assert!(total > 0.0, "tenant mix needs a positive weight");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (rate_per_s * seconds).round().max(1.0) as usize;

    let mut due: Vec<u64> = (0..n).map(|_| (rng.gen_range(0.0..seconds) * 1e9) as u64).collect();
    due.sort_unstable();

    // Request i of n belongs to the tenant whose cumulative share covers
    // (i + 0.5) / n; shuffling then spreads the tenants over the schedule.
    let mut tenants: Vec<usize> = (0..n)
        .map(|i| {
            let mut at = (i as f64 + 0.5) / n as f64 * total;
            tenant_weights
                .iter()
                .position(|w| {
                    at -= w;
                    at < 0.0
                })
                .unwrap_or(tenant_weights.len() - 1)
        })
        .collect();
    for i in (1..n).rev() {
        tenants.swap(i, rng.gen_range(0..i + 1));
    }

    let arrivals = due
        .into_iter()
        .zip(tenants)
        .map(|(due_ns, tenant)| Arrival {
            due_ns,
            tenant,
            patient: rng.gen_range(0..patients),
            frame: rng.gen_range(0..frames),
        })
        .collect();
    Schedule { seconds, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_another() {
        let a = poisson_schedule(7, 40.0, 10.0, &[0.5, 0.25, 0.25], 64, 32);
        let b = poisson_schedule(7, 40.0, 10.0, &[0.5, 0.25, 0.25], 64, 32);
        let c = poisson_schedule(8, 40.0, 10.0, &[0.5, 0.25, 0.25], 64, 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ordered_bounded_and_near_its_rate() {
        let s = poisson_schedule(1, 200.0, 20.0, &[0.5, 0.25, 0.25], 64, 32).arrivals;
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 20_000_000_000));
        assert!(s.iter().all(|a| a.tenant < 3 && a.patient < 64 && a.frame < 32));
        // The count and the tenant mix are exact, whatever the seed.
        assert_eq!(s.len(), 4000);
        let of = |t: usize| s.iter().filter(|a| a.tenant == t).count();
        assert_eq!((of(0), of(1), of(2)), (2000, 1000, 1000));
        // Tenants are spread over the schedule, not sent in blocks.
        assert!(s[..400].iter().any(|a| a.tenant == 2) && s[3600..].iter().any(|a| a.tenant == 0));
        // Gaps look exponential: their standard deviation is near their mean.
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1].due_ns - w[0].due_ns) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((sd / mean - 1.0).abs() < 0.1, "{}", sd / mean);
    }

    #[test]
    fn zero_weight_tenants_are_never_drawn() {
        let s = poisson_schedule(3, 100.0, 5.0, &[0.0, 1.0], 4, 4).arrivals;
        assert!(!s.is_empty() && s.iter().all(|a| a.tenant == 1));
    }
}
