//! The fleet: shards × models × replica pools, one admin surface.
//!
//! A [`Fleet`] instantiates every registered model on every shard — each
//! `(shard, model)` cell is a full `seneca-serve` [`Server`] (bounded
//! intake queue, dynamic micro-batching, replica pool) — and routes each
//! submission in three steps:
//!
//! 1. **shard** by consistent-hashing the request's affinity key (the
//!    patient id), so per-patient traffic has shard affinity and capacity
//!    scales by adding shards;
//! 2. **model** by the tenant's routing chain (cheapest model meeting its
//!    Dice target, with optional overload downgrade down to its floor);
//! 3. **tier admission**: batch-tier requests take a per-cell in-flight
//!    slot first, so bulk traffic can never occupy more than
//!    [`FleetConfig::batch_inflight_cap`] slots of any cell — interactive
//!    work always finds queue room, which is what keeps its p99 flat under
//!    batch overload.

use crate::registry::{ModelId, ModelRegistry, ModelSpec};
use crate::ring::HashRing;
use crate::tenant::{TenantId, TenantSpec};
use seneca_serve::{
    LatencyHistogram, LatencySummary, Priority, ServeConfig, ServeError, ServeHandle,
    ServeResponse, ServeStats, Server, Ticket,
};
use seneca_tensor::Tensor;
use seneca_trace::TraceReport;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// RAII batch-tier in-flight slot; freed when the request resolves (or
/// its ticket is dropped).
struct BatchSlot {
    counter: Arc<AtomicUsize>,
}

impl BatchSlot {
    fn acquire(counter: &Arc<AtomicUsize>, cap: usize) -> Option<Self> {
        let mut cur = counter.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return None;
            }
            match counter.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(Self { counter: Arc::clone(counter) }),
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Drop for BatchSlot {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One `(shard, model)` cell's submission side.
struct Cell {
    handle: ServeHandle,
    batch_inflight: Arc<AtomicUsize>,
}

/// Fleet-level accounting for one tenant.
struct TenantMetrics {
    submitted: AtomicU64,
    served: AtomicU64,
    /// Tier sheds + deadline-expired resolutions.
    shed: AtomicU64,
    /// Admission refusals after the whole routing chain was tried.
    rejected: AtomicU64,
    /// Resolutions that failed for other reasons (backend panic, shutdown).
    failed: AtomicU64,
    downgraded: AtomicU64,
    deadline_misses: AtomicU64,
    /// Admissions per model id — the routing table the Dice-floor
    /// invariant is asserted against.
    routed: Vec<AtomicU64>,
    latency: LatencyHistogram,
}

impl TenantMetrics {
    fn new(n_models: usize) -> Self {
        Self {
            submitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            downgraded: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            routed: (0..n_models).map(|_| AtomicU64::new(0)).collect(),
            latency: LatencyHistogram::new(),
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    /// Precomputed model routing chain (validated non-empty at start).
    chain: Vec<ModelId>,
    metrics: TenantMetrics,
}

struct FleetInner {
    registry: ModelRegistry,
    tenants: Vec<TenantState>,
    ring: HashRing,
    /// `cells[shard][model]`.
    cells: Vec<Vec<Cell>>,
    batch_inflight_cap: usize,
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
        let registry = ModelRegistry::new(self.models);
        let tenants: Vec<TenantState> = self
            .tenants
            .into_iter()
            .map(|spec| {
                let chain = registry.route_chain(&spec);
                assert!(
                    !chain.is_empty(),
                    "tenant '{}' wants dice >= {:.2} but no registered model reaches it",
                    spec.name,
                    spec.dice_target
                );
                let metrics = TenantMetrics::new(registry.len());
                TenantState { spec, chain, metrics }
            })
            .collect();

        let mut servers = Vec::with_capacity(self.config.shards);
        let mut cells = Vec::with_capacity(self.config.shards);
        for _ in 0..self.config.shards {
            let mut shard_servers = Vec::with_capacity(registry.len());
            let mut shard_cells = Vec::with_capacity(registry.len());
            for spec in registry.models() {
                let server = Server::start(Arc::clone(&spec.backend), self.config.serve.clone());
                shard_cells.push(Cell {
                    handle: server.handle(),
                    batch_inflight: Arc::new(AtomicUsize::new(0)),
                });
                shard_servers.push(server);
            }
            servers.push(shard_servers);
            cells.push(shard_cells);
        }

        let inner = Arc::new(FleetInner {
            registry,
            tenants,
            ring: HashRing::new(self.config.shards),
            cells,
            batch_inflight_cap: self.config.batch_inflight_cap,
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

    /// Live fleet statistics.
    pub fn stats(&self) -> FleetStats {
        self.handle().stats()
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
    ticket: Ticket,
    inner: Arc<FleetInner>,
    /// Holds the batch-tier in-flight slot until resolution.
    _slot: Option<BatchSlot>,
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
    pub fn wait(self) -> ServeResponse {
        let resp = self.ticket.wait();
        let m = &self.inner.tenants[self.tenant].metrics;
        match &resp.result {
            Ok(_) => {
                m.served.fetch_add(1, Ordering::Relaxed);
                m.latency.record(resp.timing.total);
                let missed = self.inner.tenants[self.tenant]
                    .spec
                    .deadline
                    .is_some_and(|d| resp.timing.total > d);
                if missed {
                    m.deadline_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(ServeError::DeadlineExpired) => {
                m.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                m.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        resp
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
        let state = self.inner.tenants.get(tenant).ok_or(FleetError::UnknownTenant)?;
        state.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = self.inner.ring.shard_for(affinity) as usize;
        let cells = &self.inner.cells[shard];

        let mut image = Some(image);
        let mut saw_full = false;
        let mut last_err = ServeError::QueueFull;
        for (hop, &model) in state.chain.iter().enumerate() {
            let cell = &cells[model];
            // Tiered shedding: batch work must take an in-flight slot
            // before it may touch the cell's queue.
            let slot = match state.spec.tier {
                Priority::Batch => {
                    match BatchSlot::acquire(&cell.batch_inflight, self.inner.batch_inflight_cap) {
                        Some(s) => Some(s),
                        None => continue,
                    }
                }
                Priority::Interactive => None,
            };
            // Clone only when another chain hop could still need the frame.
            let frame = if hop + 1 < state.chain.len() {
                image.clone().expect("frame present until submitted")
            } else {
                image.take().expect("frame present until submitted")
            };
            match cell.handle.submit(frame, state.spec.tier, state.spec.deadline) {
                Ok(ticket) => {
                    state.metrics.routed[model].fetch_add(1, Ordering::Relaxed);
                    if hop > 0 {
                        state.metrics.downgraded.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(FleetTicket {
                        tenant,
                        model,
                        shard,
                        downgraded: hop > 0,
                        ticket,
                        inner: Arc::clone(&self.inner),
                        _slot: slot,
                    });
                }
                Err(e @ ServeError::QueueFull) => {
                    // Overload on this cell; the next hop may still admit.
                    saw_full = true;
                    last_err = e;
                }
                Err(e) => {
                    state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(FleetError::Overloaded(e));
                }
            }
        }
        if state.spec.tier == Priority::Batch && !saw_full {
            // Every candidate was at its batch in-flight cap: a pure
            // tier shed — the queues themselves may well have room.
            state.metrics.shed.fetch_add(1, Ordering::Relaxed);
            Err(FleetError::BatchShed)
        } else {
            state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            Err(FleetError::Overloaded(last_err))
        }
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
        self.inner.ring.shard_for(affinity) as usize
    }

    /// Live fleet statistics aggregated per tenant, model, and shard.
    pub fn stats(&self) -> FleetStats {
        let cells = self
            .inner
            .cells
            .iter()
            .map(|shard| shard.iter().map(|c| c.handle.stats()).collect())
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
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let m = &t.metrics;
                TenantStats {
                    name: t.spec.name.clone(),
                    tier: t.spec.tier.label().to_string(),
                    deadline_ms: t.spec.deadline.map(|d| d.as_secs_f64() * 1000.0),
                    dice_target: t.spec.dice_target,
                    dice_floor: t.spec.dice_floor,
                    submitted: m.submitted.load(Ordering::Relaxed),
                    served: m.served.load(Ordering::Relaxed),
                    shed: m.shed.load(Ordering::Relaxed),
                    rejected: m.rejected.load(Ordering::Relaxed),
                    failed: m.failed.load(Ordering::Relaxed),
                    downgraded: m.downgraded.load(Ordering::Relaxed),
                    deadline_misses: m.deadline_misses.load(Ordering::Relaxed),
                    routed: m
                        .routed
                        .iter()
                        .enumerate()
                        .map(|(i, c)| RoutedCount {
                            model: self.registry.get(i).name.clone(),
                            dice: self.registry.get(i).dice,
                            count: c.load(Ordering::Relaxed),
                        })
                        .collect(),
                    latency: m.latency.summary(),
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
    /// Backend/shutdown failures.
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
