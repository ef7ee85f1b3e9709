//! The routing core: every fleet decision, as plain state.
//!
//! [`Router`] owns the hash ring, each tenant's routing chain, each
//! `(shard, model)` cell's batch in-flight count and every tenant's
//! counters, all plain integers. It is sans-IO: it reads no clock, never
//! blocks or sends, and shares nothing. The threaded shell in `fleet.rs`
//! keeps it behind one lock and supplies each cell's answer. The
//! decisions:
//!
//! * **shard** — the affinity key (the patient id) picks the shard on the
//!   consistent-hash ring, so a patient's frames share one shard;
//! * **model** — the tenant's chain ([`ModelRegistry::route_chain`]: the
//!   cheapest model meeting its Dice target, then, with downgrade, the
//!   others down to its floor) is walked in order; the first cell that
//!   admits wins, `QueueFull` moves on to the next hop, and any other
//!   refusal ends the walk;
//! * **tier admission** — a batch request skips every cell already holding
//!   `batch_inflight_cap` batch admissions, and an admitted one holds its
//!   slot until it is resolved; when every chain cell was at its cap and
//!   none answered `QueueFull`, the refusal is [`FleetError::BatchShed`];
//! * **accounting** — [`Router::resolve`] consumes the [`Admission`], so
//!   each admission counts exactly once; a ticket dropped unwaited
//!   resolves as failed.

use crate::registry::{ModelId, ModelRegistry};
use crate::ring::HashRing;
use crate::tenant::{TenantId, TenantSpec};
use seneca_serve::{Priority, ServeError};

/// Why the fleet turned a submission away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// No such tenant id.
    UnknownTenant,
    /// Every model in the tenant's routing chain refused admission; the
    /// payload is the last refusal (queue full, shutting down, …).
    Overloaded(ServeError),
    /// Batch-tier shed: every candidate cell was already at its batch
    /// in-flight cap (interactive traffic is never shed this way).
    BatchShed,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownTenant => f.write_str("unknown tenant"),
            FleetError::Overloaded(e) => write!(f, "all routed models refused admission: {e}"),
            FleetError::BatchShed => f.write_str("batch tier at its in-flight cap"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One tenant's fleet-level counters. Once every admission is resolved,
/// `submitted = served + shed + rejected + failed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Submission attempts.
    pub submitted: u64,
    /// Admissions answered with a prediction.
    pub served: u64,
    /// Tier sheds at admission + deadline-expired resolutions.
    pub shed: u64,
    /// Refusals after the routing chain was tried.
    pub rejected: u64,
    /// Backend or shutdown failures, and tickets dropped unwaited.
    pub failed: u64,
    /// Admissions below the first hop of the chain.
    pub downgraded: u64,
    /// Served admissions that arrived after the tenant's deadline.
    pub deadline_misses: u64,
    /// Admissions per model id.
    pub routed: Vec<u64>,
}

/// How an admitted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Answered with a prediction; `late` when past the tenant's deadline.
    Served {
        /// The answer arrived after the tenant's deadline.
        late: bool,
    },
    /// Shed at dispatch: its deadline passed while it was queued.
    Shed,
    /// The backend failed or the cell shut down.
    Failed,
    /// The ticket was dropped unwaited; counted as failed.
    Abandoned,
}

/// Where one admitted request went. [`Router::resolve`] consumes it.
#[derive(Debug)]
pub struct Admission {
    /// The tenant that submitted.
    pub tenant: TenantId,
    /// The shard the affinity key hashed to.
    pub shard: usize,
    /// The model that admitted it.
    pub model: ModelId,
    /// True when it landed below the first hop of the tenant's chain.
    pub downgraded: bool,
    /// Whether it holds a batch in-flight slot of its cell.
    slot: bool,
}

struct Route {
    tier: Priority,
    chain: Vec<ModelId>,
    counts: TenantCounts,
}

/// The fleet's routing state and decisions.
pub struct Router {
    ring: HashRing,
    tenants: Vec<Route>,
    /// Batch admissions holding a slot, `[shard][model]`.
    batch_inflight: Vec<Vec<usize>>,
    batch_inflight_cap: usize,
}

impl Router {
    /// A router over `shards` shards of every registered model. Panics if
    /// a tenant's Dice target is met by no registered model: that tenant
    /// could never be routed.
    pub fn new(
        registry: &ModelRegistry,
        tenants: &[TenantSpec],
        shards: usize,
        batch_inflight_cap: usize,
    ) -> Self {
        let tenants = tenants
            .iter()
            .map(|spec| {
                let chain = registry.route_chain(spec);
                assert!(
                    !chain.is_empty(),
                    "tenant '{}' wants dice >= {:.2} but no registered model reaches it",
                    spec.name,
                    spec.dice_target
                );
                let counts = TenantCounts { routed: vec![0; registry.len()], ..Default::default() };
                Route { tier: spec.tier, chain, counts }
            })
            .collect();
        Self {
            ring: HashRing::new(shards),
            tenants,
            batch_inflight: vec![vec![0; registry.len()]; shards],
            batch_inflight_cap,
        }
    }

    /// Routes one submission of `tenant` keyed by `affinity`. `submit`
    /// is asked, hop by hop, for a cell's answer: it gets the shard, the
    /// model and whether this is the chain's last hop, and returns what
    /// the cell returned. Yields the admission with the admitting cell's
    /// value, or why the fleet refused.
    pub fn route<T>(
        &mut self,
        tenant: TenantId,
        affinity: u64,
        mut submit: impl FnMut(usize, ModelId, bool) -> Result<T, ServeError>,
    ) -> Result<(Admission, T), FleetError> {
        let route = self.tenants.get_mut(tenant).ok_or(FleetError::UnknownTenant)?;
        route.counts.submitted += 1;
        let shard = self.ring.shard_for(affinity) as usize;
        let slot = route.tier == Priority::Batch;
        let mut saw_full = false;
        for (hop, &model) in route.chain.iter().enumerate() {
            let inflight = &mut self.batch_inflight[shard][model];
            if slot && *inflight >= self.batch_inflight_cap {
                continue;
            }
            match submit(shard, model, hop + 1 == route.chain.len()) {
                Ok(value) => {
                    *inflight += usize::from(slot);
                    route.counts.routed[model] += 1;
                    route.counts.downgraded += u64::from(hop > 0);
                    let downgraded = hop > 0;
                    return Ok((Admission { tenant, shard, model, downgraded, slot }, value));
                }
                Err(ServeError::QueueFull) => saw_full = true,
                Err(e) => {
                    route.counts.rejected += 1;
                    return Err(FleetError::Overloaded(e));
                }
            }
        }
        if slot && !saw_full {
            // Every chain cell was at its cap: a pure tier shed; the
            // queues themselves may well have room.
            route.counts.shed += 1;
            Err(FleetError::BatchShed)
        } else {
            route.counts.rejected += 1;
            Err(FleetError::Overloaded(ServeError::QueueFull))
        }
    }

    /// Records how an admission ended and frees its batch slot.
    pub fn resolve(&mut self, admission: Admission, resolution: Resolution) {
        let counts = &mut self.tenants[admission.tenant].counts;
        match resolution {
            Resolution::Served { late } => {
                counts.served += 1;
                counts.deadline_misses += u64::from(late);
            }
            Resolution::Shed => counts.shed += 1,
            Resolution::Failed | Resolution::Abandoned => counts.failed += 1,
        }
        if admission.slot {
            self.batch_inflight[admission.shard][admission.model] -= 1;
        }
    }

    /// One tenant's counters.
    pub fn counts(&self, tenant: TenantId) -> &TenantCounts {
        &self.tenants[tenant].counts
    }

    /// Batch admissions currently holding a slot of one cell.
    pub fn batch_inflight(&self, shard: usize, model: ModelId) -> usize {
        self.batch_inflight[shard][model]
    }

    /// The shard an affinity key routes to.
    pub fn shard_for(&self, affinity: u64) -> usize {
        self.ring.shard_for(affinity) as usize
    }
}
