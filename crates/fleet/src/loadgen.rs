//! Multi-tenant load generation against a [`FleetHandle`].
//!
//! The arrival loops are `seneca-serve`'s ([`seneca_serve::drive`]); this
//! module adds the fleet dimensions: each spec drives one tenant, and every
//! request draws an affinity key (a patient id) from the tenant's patient
//! population, so the consistent-hash router sees realistic per-patient key
//! reuse. [`run_mixed_load`] drives several tenants *concurrently* — the
//! shape of every isolation experiment: an interactive tenant measured
//! while a batch tenant floods the fleet.

use crate::fleet::FleetHandle;
use crate::tenant::TenantId;
use rand::Rng;
use seneca_serve::{drive, ArrivalProcess, LoadReport};
use seneca_tensor::Tensor;

/// One tenant's load-generation spec.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// The tenant to drive.
    pub tenant: TenantId,
    /// Total requests to submit.
    pub requests: usize,
    /// Arrival discipline (closed loop or open loop).
    pub arrival: ArrivalProcess,
    /// Patient population: affinity keys are drawn from `0..patients`.
    pub patients: u64,
    /// Seed for key draws and Poisson inter-arrivals.
    pub seed: u64,
}

impl TenantLoad {
    /// A full-throttle closed loop of `clients` workers.
    pub fn closed(tenant: TenantId, requests: usize, clients: usize, seed: u64) -> Self {
        let arrival = ArrivalProcess::ClosedLoop { clients };
        Self { tenant, requests, arrival, patients: 64, seed }
    }

    /// An open loop of Poisson arrivals at `rate_fps`.
    pub fn open(tenant: TenantId, requests: usize, rate_fps: f64, seed: u64) -> Self {
        let arrival = ArrivalProcess::OpenLoop { rate_fps };
        Self { tenant, requests, arrival, patients: 64, seed }
    }
}

/// Drives several tenant loads concurrently (one driver per spec); every
/// request submits a clone of `frame`. Client-side reports come back in
/// spec order; server-side truth lives in `FleetStats`.
pub fn run_mixed_load(
    handle: &FleetHandle,
    frame: &Tensor,
    loads: &[TenantLoad],
) -> Vec<LoadReport> {
    std::thread::scope(|scope| {
        let drivers: Vec<_> = loads
            .iter()
            .map(|load| {
                scope.spawn(move || {
                    drive(
                        load.arrival,
                        load.requests,
                        load.seed,
                        |rng| {
                            let key = rng.gen_range(0..load.patients.max(1));
                            handle.submit(load.tenant, key, frame.clone()).ok()
                        },
                        |ticket| ticket.wait().result.is_ok(),
                    )
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().expect("load driver panicked")).collect()
    })
}
