//! A seeded explorer for the fleet's routing core, `seneca_fleet::Router`.
//!
//! Each schedule builds a router over 1 to 3 shards, 2 to 5 models and 2 to
//! 4 tenants of both tiers, with and without downgrade, and steps it
//! against fake cells: a cell admits, answers `QueueFull` or answers
//! `ShuttingDown`, and schedules toggle cells between those. Events are
//! submissions (now and then for a tenant that does not exist), cell
//! toggles, and the end of one outstanding admission, picked at random:
//! served (on time or late), shed, failed, or its ticket dropped unwaited.
//! After every event the explorer checks:
//!
//! 1. no admission lands below its tenant's Dice floor, and a tenant
//!    without downgrade lands only on its primary model;
//! 2. every admission's shard, and every cell asked, is the ring's shard
//!    for the affinity key;
//! 3. no cell's batch in-flight count exceeds `batch_inflight_cap` (it
//!    equals the batch admissions outstanding there), and an interactive
//!    request is never `BatchShed`;
//! 4. `BatchShed` comes back only when every chain cell was at its cap and
//!    none answered `QueueFull`;
//! 5. every admission resolves exactly once, waited or dropped: each
//!    tenant's counters equal the tally of what the router returned and
//!    how each admission ended;
//! 6. once drained, `submitted = served + shed + rejected + failed` per
//!    tenant, and the routed counts sum to the admissions;
//!
//! and that the walk asks exactly the cells the chain rule names: chain
//! order, a batch request skipping cells at their cap, stopping at the
//! first answer other than `QueueFull`. A failing schedule panics with its
//! seed and the shortest failing prefix of its event list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_fleet::{
    Admission, FleetError, HashRing, ModelRegistry, ModelSpec, Resolution, Router, TenantCounts,
    TenantSpec,
};
use seneca_serve::{Priority, ServeError, SyntheticBackend};
use std::sync::Arc;
use std::time::Duration;

/// Schedules explored per run: a fixed budget, so the run is repeatable.
const SCHEDULES: u64 = 300;

/// How a fake cell answers an admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Open,
    Full,
    Closed,
}

impl Cell {
    fn answer(self) -> Result<(), ServeError> {
        match self {
            Cell::Open => Ok(()),
            Cell::Full => Err(ServeError::QueueFull),
            Cell::Closed => Err(ServeError::ShuttingDown),
        }
    }
}

/// How an outstanding admission ends.
#[derive(Clone, Copy, Debug)]
enum End {
    Served { late: bool },
    Shed,
    Failed,
    Dropped,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A submission; `tenant` may be one past the last tenant.
    Submit { tenant: usize, affinity: u64 },
    /// A cell starts answering as `cell`.
    Set { shard: usize, model: usize, cell: Cell },
    /// Outstanding admission number `pick` (modulo their count) ends.
    End { pick: usize, end: End },
}

#[derive(Clone, Debug)]
struct Config {
    shards: usize,
    cap: usize,
    /// `(dice %, cost ms)` per model.
    models: Vec<(f64, f64)>,
    tenants: Vec<TenantSpec>,
}

/// The cheapest model (ties by id) meeting `target`, from the config alone.
fn primary(models: &[(f64, f64)], target: f64) -> usize {
    (0..models.len())
        .filter(|&m| models[m].0 >= target)
        .min_by(|&a, &b| models[a].1.total_cmp(&models[b].1).then(a.cmp(&b)))
        .expect("targets are drawn from the models' dice")
}

struct Sim {
    config: Config,
    registry: ModelRegistry,
    ring: HashRing,
    router: Router,
    cells: Vec<Vec<Cell>>,
    open: Vec<Admission>,
    /// What each tenant's counters must read, tallied from what the router
    /// returned and how each admission ended.
    expect: Vec<TenantCounts>,
    /// Batch admissions outstanding per cell, `[shard][model]`.
    batch_open: Vec<Vec<usize>>,
    admitted: u64,
}

macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

impl Sim {
    fn new(config: Config) -> Self {
        let backend = Arc::new(SyntheticBackend::new(Duration::ZERO));
        let specs = config.models.iter().enumerate().map(|(i, &(dice, cost_ms))| ModelSpec {
            name: format!("m{i}"),
            dice,
            cost_ms,
            backend: backend.clone(),
        });
        let registry = ModelRegistry::new(specs.collect());
        let (shards, models) = (config.shards, config.models.len());
        let router = Router::new(&registry, &config.tenants, shards, config.cap);
        let counts = TenantCounts { routed: vec![0; models], ..TenantCounts::default() };
        Self {
            expect: vec![counts; config.tenants.len()],
            ring: HashRing::new(shards),
            cells: vec![vec![Cell::Open; models]; shards],
            batch_open: vec![vec![0; models]; shards],
            open: Vec::new(),
            admitted: 0,
            config,
            registry,
            router,
        }
    }

    fn submit(&mut self, tenant: usize, affinity: u64) -> Result<(), String> {
        let shard = self.ring.shard_for(affinity) as usize;
        let before: Vec<usize> =
            (0..self.config.models.len()).map(|m| self.router.batch_inflight(shard, m)).collect();
        let cells = &self.cells;
        let mut asked = Vec::new();
        let result = self.router.route(tenant, affinity, |s, m, last| {
            let answer = cells[s][m].answer();
            asked.push((s, m, last, answer));
            answer
        });
        let Some(spec) = self.config.tenants.get(tenant) else {
            check!(
                matches!(result, Err(FleetError::UnknownTenant)) && asked.is_empty(),
                "tenant {tenant} does not exist, yet the router answered {result:?}"
            );
            return Ok(());
        };
        let batch = spec.tier == Priority::Batch;
        let cap = self.config.cap;
        let chain = self.registry.route_chain(spec);
        let mut walk = Vec::new();
        for &m in &chain {
            if batch && before[m] >= cap {
                continue;
            }
            let answer = self.cells[shard][m].answer();
            walk.push((shard, m, Some(&m) == chain.last(), answer));
            if answer != Err(ServeError::QueueFull) {
                break;
            }
        }
        check!(
            asked.iter().all(|a| a.0 == shard),
            "(ii) asked {asked:?}, off shard {shard} of key {affinity}"
        );
        check!(
            asked == walk,
            "tenant {tenant} asked cells {asked:?}, the chain rule names {walk:?}"
        );

        let expect = &mut self.expect[tenant];
        expect.submitted += 1;
        match result {
            Ok((admission, ())) => {
                let m = admission.model;
                check!(
                    admission.tenant == tenant && admission.shard == shard,
                    "(ii) {admission:?} for tenant {tenant} on shard {shard}"
                );
                check!(
                    asked.last().is_some_and(|a| a.1 == m && a.3.is_ok()),
                    "{admission:?}, yet the last cell asked was {:?}",
                    asked.last()
                );
                let dice = self.config.models[m].0;
                check!(
                    dice.total_cmp(&spec.dice_floor).is_ge(),
                    "(i) tenant {tenant} routed to model {m} (dice {dice}) below its floor {}",
                    spec.dice_floor
                );
                let primary = primary(&self.config.models, spec.dice_target);
                check!(
                    spec.allow_downgrade || m == primary,
                    "(i) tenant {tenant} without downgrade landed on model {m}, primary {primary}"
                );
                check!(admission.downgraded == (m != primary), "{admission:?}, primary {primary}");
                expect.routed[m] += 1;
                expect.downgraded += u64::from(admission.downgraded);
                self.batch_open[shard][m] += usize::from(batch);
                self.admitted += 1;
                self.open.push(admission);
            }
            Err(FleetError::BatchShed) => {
                check!(batch, "(iii) interactive tenant {tenant} was BatchShed");
                check!(
                    chain.iter().all(|&m| before[m] >= cap),
                    "(iv) BatchShed while a chain cell had room: in flight {before:?}, cap {cap}"
                );
                check!(
                    asked.iter().all(|a| a.3 != Err(ServeError::QueueFull)),
                    "(iv) BatchShed after a QueueFull: {asked:?}"
                );
                expect.shed += 1;
            }
            Err(FleetError::Overloaded(e)) => {
                check!(
                    asked.last().is_some_and(|a| a.3 == Err(e)),
                    "refused with {e:?}, yet the last cell asked was {:?}",
                    asked.last()
                );
                expect.rejected += 1;
            }
            Err(FleetError::UnknownTenant) => return Err(format!("tenant {tenant} unknown")),
        }
        Ok(())
    }

    fn end(&mut self, pick: usize, end: End) {
        if self.open.is_empty() {
            return;
        }
        let admission = self.open.swap_remove(pick % self.open.len());
        let (t, s, m) = (admission.tenant, admission.shard, admission.model);
        let expect = &mut self.expect[t];
        let resolution = match end {
            End::Served { late } => {
                expect.served += 1;
                expect.deadline_misses += u64::from(late);
                Resolution::Served { late }
            }
            End::Shed => {
                expect.shed += 1;
                Resolution::Shed
            }
            End::Failed => {
                expect.failed += 1;
                Resolution::Failed
            }
            End::Dropped => {
                expect.failed += 1;
                Resolution::Abandoned
            }
        };
        self.router.resolve(admission, resolution);
        if self.config.tenants[t].tier == Priority::Batch {
            self.batch_open[s][m] -= 1;
        }
    }

    fn input(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Submit { tenant, affinity } => self.submit(tenant, affinity)?,
            Event::Set { shard, model, cell } => self.cells[shard][model] = cell,
            Event::End { pick, end } => self.end(pick, end),
        }
        self.check()
    }

    /// The invariants that hold between events.
    fn check(&self) -> Result<(), String> {
        for (t, expect) in self.expect.iter().enumerate() {
            let got = self.router.counts(t);
            check!(got == expect, "(v) tenant {t} counts {got:?}, tallied {expect:?}");
        }
        for (s, row) in self.batch_open.iter().enumerate() {
            for (m, &open) in row.iter().enumerate() {
                let inflight = self.router.batch_inflight(s, m);
                check!(
                    inflight == open && inflight <= self.config.cap,
                    "(iii) cell ({s}, {m}) holds {inflight} batch slots, {open} outstanding, cap {}",
                    self.config.cap
                );
            }
        }
        Ok(())
    }
}

/// Runs `events`, then serves every outstanding admission and checks the
/// drained counters.
fn run(config: &Config, events: &[Event]) -> Result<(), String> {
    let mut sim = Sim::new(config.clone());
    for &event in events {
        sim.input(event)?;
    }
    while !sim.open.is_empty() {
        sim.input(Event::End { pick: 0, end: End::Served { late: false } })?;
    }
    let mut routed = 0;
    for t in 0..config.tenants.len() {
        let c = sim.router.counts(t);
        check!(
            c.submitted == c.served + c.shed + c.rejected + c.failed,
            "(vi) tenant {t} unbalanced once drained: {c:?}"
        );
        routed += c.routed.iter().sum::<u64>();
    }
    check!(routed == sim.admitted, "(vi) routed counts sum to {routed}, {} admitted", sim.admitted);
    Ok(())
}

fn run_caught(config: &Config, events: &[Event]) -> Result<(), String> {
    std::panic::catch_unwind(|| run(config, events))
        .unwrap_or_else(|_| Err("the core panicked".into()))
}

fn schedule(seed: u64) -> (Config, Vec<Event>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = rng.gen_range(1..=3);
    let models: Vec<(f64, f64)> = (0..rng.gen_range(2..=5))
        .map(|_| (f64::from(rng.gen_range(9200..=9400)) / 100.0, f64::from(rng.gen_range(1..=20))))
        .collect();
    let tenants: Vec<TenantSpec> = (0..rng.gen_range(2..=4))
        .map(|t| {
            let target = models[rng.gen_range(0..models.len())].0;
            let name = format!("t{t}");
            // Tenants 0 and 1 cover both tiers; the rest draw one.
            let spec = if t == 0 || (t > 1 && rng.gen_bool(0.5)) {
                TenantSpec::interactive(&name, Duration::from_millis(100), target)
            } else {
                TenantSpec::batch(&name, target)
            };
            if rng.gen_bool(0.5) {
                spec.with_floor(target - f64::from(rng.gen_range(1..=150)) / 100.0)
            } else {
                spec
            }
        })
        .collect();
    let config = Config { shards, cap: rng.gen_range(1..=3), models, tenants };
    let events = (0..rng.gen_range(4..=60))
        .map(|_| match rng.gen_range(0..100) {
            0..=49 => Event::Submit {
                tenant: if rng.gen_bool(0.03) {
                    config.tenants.len()
                } else {
                    rng.gen_range(0..config.tenants.len())
                },
                affinity: rng.gen_range(0..32),
            },
            50..=69 => Event::Set {
                shard: rng.gen_range(0..config.shards),
                model: rng.gen_range(0..config.models.len()),
                cell: match rng.gen_range(0..100) {
                    0..=49 => Cell::Open,
                    50..=84 => Cell::Full,
                    _ => Cell::Closed,
                },
            },
            _ => Event::End {
                pick: rng.gen_range(0..64),
                end: match rng.gen_range(0..4) {
                    0 => End::Served { late: rng.gen_bool(0.3) },
                    1 => End::Shed,
                    2 => End::Failed,
                    _ => End::Dropped,
                },
            },
        })
        .collect();
    (config, events)
}

#[test]
fn routing_core_invariants_hold_on_explored_schedules() {
    for seed in 0..SCHEDULES {
        let (config, events) = schedule(seed);
        let Err(full) = run_caught(&config, &events) else {
            continue;
        };
        let (len, why) = (1..=events.len())
            .find_map(|n| run_caught(&config, &events[..n]).err().map(|e| (n, e)))
            .unwrap_or((events.len(), full));
        panic!(
            "seed {seed} fails: {why}\n{config:#?}\nshortest failing prefix ({len} of {} events):\n{:#?}",
            events.len(),
            &events[..len]
        );
    }
}
