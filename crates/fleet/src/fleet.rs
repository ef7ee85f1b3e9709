//! The fleet: shards × models × replica pools, one admin surface.
//!
//! A [`Fleet`] instantiates every registered model on every shard: each
//! `(shard, model)` cell is a full `seneca-serve` [`Server`] (bounded
//! intake queue, dynamic micro-batching, replica pool). This is the
//! threaded shell around the [`Router`] core, which makes every routing
//! decision: one mutex over the core, the cells' [`ServeHandle`]s and the
//! latency histograms. [`FleetTicket`] hands the core each resolution, on
//! `wait` or, unwaited, on drop. The router lock is held only around core
//! calls and the cells' admissions, never around backend code (a backend
//! panic fails its batch inside the cell), so a poisoned lock can only
//! mean a bug in the core: that is why `expect` stays.

use crate::registry::{ModelId, ModelRegistry, ModelSpec};
use crate::router::{Admission, FleetError, Resolution, Router};
use crate::tenant::{TenantId, TenantSpec};
use seneca_serve::{
    LatencyHistogram, LatencySummary, ServeConfig, ServeError, ServeHandle, ServeResponse,
    ServeStats, Server, Ticket,
};
use seneca_tensor::Tensor;
use seneca_trace::TraceReport;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Horizontal shards. Every model gets a replica pool on every shard.
    pub shards: usize,
    /// Per-cell serving configuration (queue, batching window, replicas).
    pub serve: ServeConfig,
    /// Largest number of batch-tier requests simultaneously admitted to
    /// one `(shard, model)` cell. Keep it below the cell's queue capacity
    /// so interactive traffic always has admission headroom.
    pub batch_inflight_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        // Half the queue: batch work can fill at most half of any cell.
        let batch_inflight_cap = serve.queue_capacity / 2;
        Self { shards: 2, serve, batch_inflight_cap }
    }
}

struct FleetInner {
    registry: ModelRegistry,
    tenants: Vec<TenantSpec>,
    /// End-to-end latency of each tenant's served, waited-on requests.
    latency: Vec<LatencyHistogram>,
    router: Mutex<Router>,
    /// `cells[shard][model]`.
    cells: Vec<Vec<ServeHandle>>,
}

/// Builds a [`Fleet`]: register models and tenants, then start.
pub struct FleetBuilder {
    config: FleetConfig,
    models: Vec<ModelSpec>,
    tenants: Vec<TenantSpec>,
}

impl FleetBuilder {
    /// A builder over the given fleet configuration.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.shards >= 1, "the fleet needs at least one shard");
        assert!(
            config.batch_inflight_cap >= 1,
            "batch tier needs at least one in-flight slot per cell"
        );
        Self { config, models: Vec::new(), tenants: Vec::new() }
    }

    /// Registers one model; returns its [`ModelId`].
    pub fn model(&mut self, spec: ModelSpec) -> ModelId {
        self.models.push(spec);
        self.models.len() - 1
    }

    /// Registers one tenant; returns its [`TenantId`].
    pub fn tenant(&mut self, spec: TenantSpec) -> TenantId {
        self.tenants.push(spec);
        self.tenants.len() - 1
    }

    /// Starts every `(shard, model)` replica pool and wires the router.
    /// Panics if a tenant's Dice target is not met by any registered model
    /// — that tenant could never be routed.
    pub fn start(self) -> Fleet {
        let FleetConfig { shards, serve, batch_inflight_cap } = self.config;
        let registry = ModelRegistry::new(self.models);
        let router = Router::new(&registry, &self.tenants, shards, batch_inflight_cap);
        let servers: Vec<Vec<Server>> = (0..shards)
            .map(|_| {
                let start =
                    |spec: &ModelSpec| Server::start(Arc::clone(&spec.backend), serve.clone());
                registry.models().iter().map(start).collect()
            })
            .collect();
        let cells =
            servers.iter().map(|shard| shard.iter().map(Server::handle).collect()).collect();
        let inner = Arc::new(FleetInner {
            registry,
            latency: self.tenants.iter().map(|_| LatencyHistogram::new()).collect(),
            tenants: self.tenants,
            router: Mutex::new(router),
            cells,
        });
        Fleet { inner, servers }
    }
}

/// A running fleet; dropping it shuts every cell down after draining.
pub struct Fleet {
    inner: Arc<FleetInner>,
    /// `servers[shard][model]`, kept for shutdown.
    servers: Vec<Vec<Server>>,
}

impl Fleet {
    /// A cloneable submission/admin handle.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle { inner: Arc::clone(&self.inner) }
    }

    /// Graceful shutdown: drains every cell and returns final statistics.
    pub fn shutdown(self) -> FleetStats {
        let Fleet { inner, servers } = self;
        // Collect final per-cell stats as each server drains and joins.
        let final_cells: Vec<Vec<ServeStats>> = servers
            .into_iter()
            .map(|shard| shard.into_iter().map(Server::shutdown).collect())
            .collect();
        inner.stats_from_cells(final_cells)
    }
}

/// Claim on a fleet submission, annotated with the routing decision.
pub struct FleetTicket {
    /// The tenant that submitted.
    pub tenant: TenantId,
    /// The model the router assigned (always ≥ the tenant's Dice floor).
    pub model: ModelId,
    /// The shard the affinity key hashed to.
    pub shard: usize,
    /// True when overload pushed the tenant below its Dice target (but
    /// never below its floor).
    pub downgraded: bool,
    /// The cell's ticket and the admission it resolves; taken on `wait`
    /// or drop.
    pending: Option<(Ticket, Admission)>,
    inner: Arc<FleetInner>,
}

impl std::fmt::Debug for FleetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTicket")
            .field("tenant", &self.tenant)
            .field("model", &self.model)
            .field("shard", &self.shard)
            .field("downgraded", &self.downgraded)
            .finish_non_exhaustive()
    }
}

impl FleetTicket {
    /// Blocks until the response arrives, recording the outcome in the
    /// tenant's fleet-level statistics.
    pub fn wait(mut self) -> ServeResponse {
        let (ticket, admission) = self.pending.take().expect("pending until waited or dropped");
        let resp = ticket.wait();
        let resolution = match &resp.result {
            Ok(_) => {
                self.inner.latency[self.tenant].record(resp.timing.total);
                let deadline = self.inner.tenants[self.tenant].deadline;
                Resolution::Served { late: deadline.is_some_and(|d| resp.timing.total > d) }
            }
            Err(ServeError::DeadlineExpired) => Resolution::Shed,
            Err(_) => Resolution::Failed,
        };
        self.inner.router().resolve(admission, resolution);
        resp
    }
}

impl Drop for FleetTicket {
    /// A ticket dropped unwaited resolves as failed and frees its slot.
    fn drop(&mut self) {
        if let Some((_, admission)) = self.pending.take() {
            // Drop must not panic: a poisoned router already panicked once.
            if let Ok(mut router) = self.inner.router.lock() {
                router.resolve(admission, Resolution::Abandoned);
            }
        }
    }
}

/// Cloneable submission + admin surface of a running [`Fleet`].
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<FleetInner>,
}

impl FleetHandle {
    /// Submits one frame for `tenant`, keyed by `affinity` (the patient
    /// id). Routing: affinity → shard, tenant chain → model, tier →
    /// admission. Returns the annotated ticket or why the fleet refused.
    pub fn submit(
        &self,
        tenant: TenantId,
        affinity: u64,
        image: Tensor,
    ) -> Result<FleetTicket, FleetError> {
        let mut image = Some(image);
        let (admission, ticket) =
            self.inner.router().route(tenant, affinity, |shard, model, last| {
                // The router asks only for a tenant it knows.
                let spec = &self.inner.tenants[tenant];
                // Clone only when another chain hop could still need the frame.
                let frame = if last { image.take() } else { image.clone() };
                let frame = frame.expect("frame present until submitted");
                self.inner.cells[shard][model].submit(frame, spec.tier, spec.deadline)
            })?;
        Ok(FleetTicket {
            tenant,
            model: admission.model,
            shard: admission.shard,
            downgraded: admission.downgraded,
            pending: Some((ticket, admission)),
            inner: Arc::clone(&self.inner),
        })
    }

    /// Submit + block until the prediction (or failure) comes back.
    pub fn submit_wait(
        &self,
        tenant: TenantId,
        affinity: u64,
        image: Tensor,
    ) -> Result<ServeResponse, FleetError> {
        Ok(self.submit(tenant, affinity, image)?.wait())
    }

    /// The shard an affinity key routes to (for tests and placement
    /// introspection).
    pub fn shard_for(&self, affinity: u64) -> usize {
        self.inner.router().shard_for(affinity)
    }

    /// Live fleet statistics aggregated per tenant, model, and shard.
    pub fn stats(&self) -> FleetStats {
        let cells = self
            .inner
            .cells
            .iter()
            .map(|shard| shard.iter().map(ServeHandle::stats).collect())
            .collect();
        self.inner.stats_from_cells(cells)
    }

    /// Drains and aggregates the live `seneca-trace` recorders — the
    /// profiler view of the running fleet, no restart required.
    pub fn trace_report(&self) -> TraceReport {
        seneca_trace::report()
    }
}

impl FleetInner {
    fn router(&self) -> MutexGuard<'_, Router> {
        self.router.lock().expect("router lock")
    }

    fn stats_from_cells(&self, cells: Vec<Vec<ServeStats>>) -> FleetStats {
        let models = (0..self.registry.len())
            .map(|m| {
                let spec = self.registry.get(m);
                let per_shard: Vec<ServeStats> =
                    cells.iter().map(|shard| shard[m].clone()).collect();
                ModelStats {
                    name: spec.name.clone(),
                    dice: spec.dice,
                    cost_ms: spec.cost_ms,
                    submitted: per_shard.iter().map(|s| s.submitted).sum(),
                    served: per_shard.iter().map(|s| s.served).sum(),
                    rejected: per_shard.iter().map(|s| s.rejected).sum(),
                    shed_expired: per_shard.iter().map(|s| s.shed_expired).sum(),
                    served_fps: per_shard.iter().map(|s| s.served_fps).sum(),
                    per_shard,
                }
            })
            .collect();
        let router = self.router();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let c = router.counts(t);
                TenantStats {
                    name: spec.name.clone(),
                    tier: spec.tier.label().to_string(),
                    deadline_ms: spec.deadline.map(|d| d.as_secs_f64() * 1000.0),
                    dice_target: spec.dice_target,
                    dice_floor: spec.dice_floor,
                    submitted: c.submitted,
                    served: c.served,
                    shed: c.shed,
                    rejected: c.rejected,
                    failed: c.failed,
                    downgraded: c.downgraded,
                    deadline_misses: c.deadline_misses,
                    routed: (c.routed.iter().zip(self.registry.models()))
                        .map(|(&count, m)| RoutedCount {
                            model: m.name.clone(),
                            dice: m.dice,
                            count,
                        })
                        .collect(),
                    latency: self.latency[t].summary(),
                }
            })
            .collect();
        FleetStats { shards: self.cells.len(), tenants, models }
    }
}

/// Routing admissions of one tenant to one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedCount {
    /// Model name.
    pub model: String,
    /// That model's expected Dice (%) — lets floor audits read one row.
    pub dice: f64,
    /// Requests admitted to it.
    pub count: u64,
}

/// Fleet-level view of one tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// `interactive` or `batch`.
    pub tier: String,
    /// SLO deadline in milliseconds, if any.
    pub deadline_ms: Option<f64>,
    /// Preferred Dice (%).
    pub dice_target: f64,
    /// Hard Dice minimum (%).
    pub dice_floor: f64,
    /// Submission attempts.
    pub submitted: u64,
    /// Requests answered with a prediction (and waited on).
    pub served: u64,
    /// Tier sheds at fleet admission + deadline-expired resolutions.
    pub shed: u64,
    /// Refusals after the whole routing chain was tried.
    pub rejected: u64,
    /// Backend/shutdown failures, or abandoned unwaited (a dropped ticket).
    pub failed: u64,
    /// Admissions that landed below the Dice target (but ≥ the floor).
    pub downgraded: u64,
    /// Served responses that arrived after the tenant deadline.
    pub deadline_misses: u64,
    /// Admissions per model — the audit trail for the floor invariant.
    pub routed: Vec<RoutedCount>,
    /// End-to-end latency of served (and waited-on) requests.
    pub latency: LatencySummary,
}

impl TenantStats {
    /// The lowest model Dice this tenant was ever routed to (`None` when
    /// nothing was admitted). An isolation audit asserts this never dips
    /// below [`TenantStats::dice_floor`].
    pub fn min_routed_dice(&self) -> Option<f64> {
        self.routed.iter().filter(|r| r.count > 0).map(|r| r.dice).min_by(f64::total_cmp)
    }
}

/// Fleet-level view of one model across all shards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Expected global Dice (%).
    pub dice: f64,
    /// Modeled per-frame cost (ms).
    pub cost_ms: f64,
    /// Submissions across shards.
    pub submitted: u64,
    /// Served across shards.
    pub served: u64,
    /// Admission rejections across shards.
    pub rejected: u64,
    /// Deadline sheds across shards.
    pub shed_expired: u64,
    /// Summed served FPS across shards.
    pub served_fps: f64,
    /// Full per-shard serving statistics.
    pub per_shard: Vec<ServeStats>,
}

/// One aggregated snapshot of the whole fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetStats {
    /// Shard count.
    pub shards: usize,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantStats>,
    /// Per-model accounting (with per-shard detail).
    pub models: Vec<ModelStats>,
}

impl FleetStats {
    /// The tenant row by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// The model row by name.
    pub fn model(&self, name: &str) -> Option<&ModelStats> {
        self.models.iter().find(|m| m.name == name)
    }
}
