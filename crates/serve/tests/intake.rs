//! The intake core's decisions, stepped on explicit instants: admission,
//! the batch window, the idle-replica cut, shedding at dispatch, and how a
//! batch's answer settles its requests. No test here sleeps.

use seneca_serve::{settle, Collector, Intake, Priority, Queued, ServeError, Step};
use std::time::{Duration, Instant};

/// A request reduced to what the core reads.
#[derive(Debug)]
struct Req {
    id: u64,
    priority: Priority,
    deadline: Option<Instant>,
}

impl Queued for Req {
    fn priority(&self) -> Priority {
        self.priority
    }
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

fn req(id: u64, priority: Priority) -> Req {
    Req { id, priority, deadline: None }
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn ids(step: Step<Req>) -> Vec<u64> {
    match step {
        Step::Dispatch(b) => b.iter().map(|r| r.id).collect(),
        other => panic!("expected a dispatch, got {other:?}"),
    }
}

#[test]
fn interactive_dequeues_before_batch() {
    let mut q = Intake::new(8, 2, Duration::ZERO);
    q.push(req(0, Priority::Batch)).unwrap();
    q.push(req(1, Priority::Interactive)).unwrap();
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    assert_eq!(ids(q.poll(&mut c, Instant::now(), &mut shed)), [1, 0]);
}

#[test]
fn full_or_closed_intake_refuses() {
    let mut q = Intake::new(1, 1, Duration::ZERO);
    q.push(req(0, Priority::Interactive)).unwrap();
    assert_eq!(q.push(req(1, Priority::Interactive)), Err(ServeError::QueueFull));
    q.close();
    assert_eq!(q.push(req(2, Priority::Batch)), Err(ServeError::ShuttingDown));
}

#[test]
fn expired_requests_are_shed_at_dispatch() {
    let t0 = Instant::now();
    let mut q = Intake::new(8, 4, Duration::ZERO);
    q.push(Req { deadline: Some(t0 + ms(1)), ..req(0, Priority::Interactive) }).unwrap();
    q.push(req(1, Priority::Interactive)).unwrap();
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    assert_eq!(ids(q.poll(&mut c, t0 + ms(1), &mut shed)), [1]);
    assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), [0]);
}

/// A held request whose deadline passes inside the window is shed, not
/// dispatched.
#[test]
fn a_held_request_expiring_in_the_window_is_shed() {
    let t0 = Instant::now();
    let mut q = Intake::new(8, 2, ms(10));
    q.push(Req { deadline: Some(t0 + ms(3)), ..req(0, Priority::Batch) }).unwrap();
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    assert!(matches!(q.poll(&mut c, t0, &mut shed), Step::WaitUntil(t) if t == t0 + ms(10)));
    assert!(matches!(q.poll(&mut c, t0 + ms(3), &mut shed), Step::WaitForWork));
    assert_eq!(shed.len(), 1);
    assert!(c.held().is_empty());
}

#[test]
fn batch_window_coalesces_a_late_arrival() {
    let t0 = Instant::now();
    let mut q = Intake::new(8, 2, ms(100));
    q.push(req(0, Priority::Batch)).unwrap();
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    assert!(matches!(q.poll(&mut c, t0, &mut shed), Step::WaitUntil(t) if t == t0 + ms(100)));
    q.push(req(1, Priority::Batch)).unwrap();
    assert_eq!(ids(q.poll(&mut c, t0 + ms(5), &mut shed)), [0, 1]);
}

/// A lone collector holds its partial batch for the whole window, takes
/// what arrives inside it, and dispatches when it ends.
#[test]
fn a_lone_collector_honours_the_window() {
    let t0 = Instant::now();
    let mut q = Intake::new(8, 4, ms(300));
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    q.push(req(0, Priority::Interactive)).unwrap();
    assert!(matches!(q.poll(&mut c, t0, &mut shed), Step::WaitUntil(_)));
    q.push(req(1, Priority::Interactive)).unwrap();
    let end = t0 + ms(300);
    assert!(matches!(q.poll(&mut c, t0 + ms(20), &mut shed), Step::WaitUntil(t) if t == end));
    assert_eq!(ids(q.poll(&mut c, end, &mut shed)), [0, 1]);
}

/// While a peer waits for work, a collector dispatches its first
/// request at once and leaves the rest of the queue to the peer.
#[test]
fn an_idle_peer_cuts_the_window_short() {
    let t0 = Instant::now();
    let mut q = Intake::new(8, 4, ms(500));
    let (mut a, mut b, mut shed) = (Collector::default(), Collector::default(), Vec::new());
    assert!(matches!(q.poll(&mut a, t0, &mut shed), Step::WaitForWork));
    assert!(matches!(q.poll(&mut b, t0, &mut shed), Step::WaitForWork));
    q.push(req(0, Priority::Interactive)).unwrap();
    q.push(req(1, Priority::Interactive)).unwrap();
    assert_eq!(ids(q.poll(&mut a, t0, &mut shed)), [0]);
    // `a` is busy, so `b` is a lone collector and holds for the window...
    assert!(matches!(q.poll(&mut b, t0, &mut shed), Step::WaitUntil(_)));
    // ...until `a` finishes and goes idle.
    assert!(matches!(q.poll(&mut a, t0 + ms(1), &mut shed), Step::WaitForWork));
    assert_eq!(ids(q.poll(&mut b, t0 + ms(1), &mut shed)), [1]);
}

#[test]
fn closed_and_drained_returns_closed() {
    let t0 = Instant::now();
    let mut q = Intake::new(2, 4, ms(100));
    q.push(req(0, Priority::Batch)).unwrap();
    let (mut c, mut shed) = (Collector::default(), Vec::new());
    assert!(matches!(q.poll(&mut c, t0, &mut shed), Step::WaitUntil(_)));
    q.close();
    // Closing ends the window: the backlog drains, then the replica exits.
    assert_eq!(ids(q.poll(&mut c, t0, &mut shed)), [0]);
    assert!(matches!(q.poll(&mut c, t0, &mut shed), Step::Closed));
}

#[test]
fn a_wrong_length_answer_fails_the_whole_batch() {
    let ok = settle(vec![0, 1], Some(vec!['a', 'b']));
    assert_eq!(ok, [(0, Ok('a')), (1, Ok('b'))]);
    for preds in [Some(vec!['a']), Some(vec!['a', 'b', 'c']), None] {
        let failed = settle(vec![0, 1], preds);
        assert_eq!(
            failed,
            [(0, Err(ServeError::BackendFailed)), (1, Err(ServeError::BackendFailed))]
        );
    }
}
