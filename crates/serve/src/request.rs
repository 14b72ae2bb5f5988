//! Request, ticket, and answer types of the serving API.

use crate::error::ServeError;
use rtse_check::InvariantViolation;
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use rtse_sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

/// One client request: "what is the speed of these roads in this slot?"
/// plus the client's latency and freshness budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The queried roads (deduplicated at admission).
    pub roads: Vec<RoadId>,
    /// The queried slot of the day.
    pub slot: SlotOfDay,
    /// Latency budget from submission; past it the request is shed with
    /// [`ServeError::DeadlineExceeded`]. `None` defers to the server's
    /// configured default.
    pub deadline: Option<Duration>,
    /// Oldest cached answer the client accepts. `None` defers to the
    /// server's TTL; `Some(Duration::ZERO)` forces a fresh round.
    pub max_staleness: Option<Duration>,
}

impl ServeRequest {
    /// A request with no deadline and default freshness.
    pub fn new(roads: Vec<RoadId>, slot: SlotOfDay) -> Self {
        Self { roads, slot, deadline: None, max_staleness: None }
    }

    /// Sets the latency budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the freshness bound.
    pub fn with_max_staleness(mut self, max_staleness: Duration) -> Self {
        self.max_staleness = Some(max_staleness);
        self
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedAnswer {
    /// The canonical (sorted, deduplicated) roads that were asked.
    pub roads: Vec<RoadId>,
    /// Estimated speed per road, parallel to `roads`.
    pub estimates: Vec<f64>,
    /// The answered slot.
    pub slot: SlotOfDay,
    /// Cache generation of the slot round that produced the estimates.
    pub generation: u64,
    /// Age of that round when the answer was fanned out (staleness).
    pub age: Duration,
    /// How many requests shared the round this answer came from.
    pub batch_size: usize,
    /// Whether the round was served from the slot cache.
    pub cache_hit: bool,
    /// Time from submission to fan-out (queueing + batching + compute).
    pub wait: Duration,
}

impl ServedAnswer {
    /// The estimate for one queried road (`None` if it was not asked).
    pub fn estimate_for(&self, road: RoadId) -> Option<f64> {
        self.roads.iter().position(|&r| r == road).map(|i| self.estimates[i])
    }
}

impl rtse_check::Validate for ServedAnswer {
    fn validate(&self) -> Result<(), InvariantViolation> {
        rtse_check::ensure(
            self.estimates.len() == self.roads.len(),
            "serve.answer_parallel_arrays",
            || format!("{} roads but {} estimates", self.roads.len(), self.estimates.len()),
        )?;
        rtse_check::ensure(!self.roads.is_empty(), "serve.answer_nonempty", || {
            "answer covers no roads".into()
        })?;
        rtse_check::ensure(
            self.roads.windows(2).all(|w| w[0] < w[1]),
            "serve.answer_roads_canonical",
            || "answered roads are not sorted/deduplicated".into(),
        )?;
        rtse_check::ensure_finite(&self.estimates, "serve.answer_finite")?;
        rtse_check::ensure(
            self.estimates.iter().all(|&v| v >= 0.0),
            "serve.answer_nonnegative",
            || "an estimated speed is negative".into(),
        )?;
        rtse_check::ensure(self.generation >= 1, "serve.answer_generation_positive", || {
            "answer carries generation 0 (never computed)".into()
        })?;
        rtse_check::ensure(self.batch_size >= 1, "serve.answer_batch_positive", || {
            "answer claims an empty batch".into()
        })?;
        Ok(())
    }
}

/// A pending answer: blocks on [`Ticket::wait`] until the serving workers
/// resolve the request one way or the other.
///
/// Tickets own their reply channel and may outlive the server scope —
/// answers sent before shutdown remain readable afterwards. Dropping a
/// ticket abandons the request (the server computes and discards the
/// reply).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: Receiver<Result<ServedAnswer, ServeError>>,
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<ServedAnswer, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ChannelClosed))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    /// A reply channel whose sender is gone without an answer (a serve
    /// worker died mid-batch) resolves as [`ServeError::ChannelClosed`],
    /// as [`Self::wait`] does, so a poller never waits on it forever.
    pub fn poll(&self) -> Option<Result<ServedAnswer, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::ChannelClosed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_check::Validate;
    use std::sync::mpsc::channel;

    fn answer() -> ServedAnswer {
        ServedAnswer {
            roads: vec![RoadId(1), RoadId(4)],
            estimates: vec![31.5, 48.0],
            slot: SlotOfDay(100),
            generation: 1,
            age: Duration::ZERO,
            batch_size: 1,
            cache_hit: false,
            wait: Duration::from_millis(2),
        }
    }

    #[test]
    fn builder_sets_budgets() {
        let r = ServeRequest::new(vec![RoadId(0)], SlotOfDay(3))
            .with_deadline(Duration::from_millis(50))
            .with_max_staleness(Duration::ZERO);
        assert_eq!(r.deadline, Some(Duration::from_millis(50)));
        assert_eq!(r.max_staleness, Some(Duration::ZERO));
    }

    #[test]
    fn estimate_lookup() {
        let a = answer();
        assert_eq!(a.estimate_for(RoadId(4)), Some(48.0));
        assert_eq!(a.estimate_for(RoadId(2)), None);
    }

    #[test]
    fn answer_contract_accepts_good_and_rejects_bad() {
        assert!(answer().validate().is_ok());

        let mut skewed = answer();
        skewed.estimates.pop();
        assert_eq!(
            skewed.validate().expect_err("must fail").invariant,
            "serve.answer_parallel_arrays"
        );

        let mut unsorted = answer();
        unsorted.roads.swap(0, 1);
        assert_eq!(
            unsorted.validate().expect_err("must fail").invariant,
            "serve.answer_roads_canonical"
        );

        let mut nan = answer();
        nan.estimates[0] = f64::NAN;
        assert_eq!(nan.validate().expect_err("must fail").invariant, "serve.answer_finite");

        let mut negative = answer();
        negative.estimates[1] = -1.0;
        assert_eq!(
            negative.validate().expect_err("must fail").invariant,
            "serve.answer_nonnegative"
        );

        let mut stillborn = answer();
        stillborn.generation = 0;
        assert_eq!(
            stillborn.validate().expect_err("must fail").invariant,
            "serve.answer_generation_positive"
        );
    }

    #[test]
    fn ticket_resolves_and_poll_is_nonblocking() {
        let (tx, rx) = channel();
        let ticket = Ticket { rx };
        assert!(ticket.poll().is_none());
        tx.send(Ok(answer())).expect("receiver alive");
        let got = ticket.wait().expect("answer sent");
        assert_eq!(got.estimates, vec![31.5, 48.0]);
    }

    #[test]
    fn dropped_sender_yields_typed_error() {
        let (tx, rx) = channel::<Result<ServedAnswer, ServeError>>();
        drop(tx);
        assert_eq!(Ticket { rx }.wait(), Err(ServeError::ChannelClosed));
    }

    #[test]
    fn poll_resolves_an_orphaned_ticket_as_channel_closed() {
        let (tx, rx) = channel::<Result<ServedAnswer, ServeError>>();
        let ticket = Ticket { rx };
        assert!(ticket.poll().is_none(), "in flight while the sender lives");
        drop(tx);
        assert_eq!(ticket.poll(), Some(Err(ServeError::ChannelClosed)));
        assert_eq!(ticket.poll(), Some(Err(ServeError::ChannelClosed)), "and stays resolved");
    }

    #[test]
    fn poll_returns_an_answer_sent_before_the_sender_dropped() {
        let (tx, rx) = channel::<Result<ServedAnswer, ServeError>>();
        tx.send(Ok(answer())).expect("receiver alive");
        drop(tx);
        let ticket = Ticket { rx };
        assert_eq!(ticket.poll(), Some(Ok(answer())));
    }
}
