//! The discrete-event engine: event queue, node scheduling, and the one
//! loop that runs node programs on it.
//!
//! [`run_nodes`] is the only event loop: it pops events in `(time, seq)`
//! order on the caller's thread, delivers messages to the [`World`], and
//! resumes a node in place when its resume event commits. No threads, no
//! locks, no unwinding: nodes need be neither `Send` nor `'static`, an
//! abandoned execution is a dropped `Vec`, a deadlock is a value
//! ([`RunError::Deadlock`]), and a panicking node body simply unwinds
//! through the loop to the caller.
//!
//! A node program has one shape, a [`NodeFuture`]: ordinary `async` code
//! against a [`NodeHandle`], whose continuation at a yield is a call stack
//! the compiler turns into a state machine. The body suspends only inside
//! [`NodeHandle::advance`] and [`NodeHandle::block`]; the loop polls it with
//! a no-op waker, because the engine — not a waker — decides who runs next.
//! [`NodeHandle::world`] is closure-shaped on purpose: the borrow of the
//! world ends with the closure, so it can never be held across an `.await`.
//!
//! A model-checker hook ([`McHook`]) sits on the loop and controls every
//! commit point.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::queue::BucketQueue;
use crate::rng::fold64;
use crate::time::Time;
use crate::NodeId;

/// One co-enabled event offered to a model-checker hook at a commit point:
/// an item of [`McChoices`], built when the hook asks for it.
pub struct McChoice<'a, M> {
    /// Stable event identity: the global queue sequence number assigned at
    /// push time. Identical across replays of the same decision prefix
    /// (the engine is deterministic), so hooks can use it to recognize an
    /// event across sibling executions.
    pub key: u64,
    /// The event itself.
    pub event: McEvent<'a, M>,
}

/// The two kinds of schedulable event, as seen by a model-checker hook.
pub enum McEvent<'a, M> {
    /// A node resumes from its compute segment or a wake.
    Resume {
        /// The resuming node.
        node: NodeId,
    },
    /// A message delivery.
    Msg {
        /// The destination node.
        to: NodeId,
        /// The message (borrowed; it is still queued).
        msg: &'a M,
    },
}

/// The events co-enabled at a commit point, in queue order: a view over the
/// scheduler's tie buffer and message slab, so offering a choice allocates
/// nothing and a hook that only re-commits a recorded key
/// ([`McChoices::position`]) never touches a payload.
pub struct McChoices<'a, M> {
    tied: &'a [(Time, u64, Slot)],
    msgs: &'a [Option<M>],
}

impl<'a, M> McChoices<'a, M> {
    /// Number of co-enabled events (at least one).
    #[allow(clippy::len_without_is_empty)] // a commit point is never empty
    pub fn len(&self) -> usize {
        self.tied.len()
    }

    /// The `i`-th event.
    pub fn get(&self, i: usize) -> McChoice<'a, M> {
        let (_, key, slot) = self.tied[i];
        let event = match slot {
            Slot::Resume { node, .. } => McEvent::Resume {
                node: node as NodeId,
            },
            Slot::Msg { to, idx } => McEvent::Msg {
                to: to as NodeId,
                msg: self.msgs[idx as usize]
                    .as_ref()
                    .expect("a queued message has a payload"),
            },
        };
        McChoice { key, event }
    }

    /// Index of the event whose [`McChoice::key`] is `key`.
    pub fn position(&self, key: u64) -> Option<usize> {
        self.tied.iter().position(|&(_, k, _)| k == key)
    }

    /// Every event, in the order [`McChoices::get`] indexes them.
    pub fn iter(&self) -> impl Iterator<Item = McChoice<'a, M>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// A controlled scheduler plugged into the event loop by [`run_nodes`]: every
/// commit point where more than zero events are co-enabled at the head
/// virtual time becomes an explicit choice.
///
/// The hook is called at *every* commit point, singletons included, so it
/// can maintain replay position, sleep sets, and step bounds uniformly.
/// Returning `None` abandons the execution: [`run_nodes`] drops the
/// suspended bodies and returns [`RunError::Pruned`].
pub trait McHook<W: World> {
    /// Pick which of `choices` (all tied at virtual time `at`) commits.
    ///
    /// `engine_hash()` folds the scheduler-visible state (head time, node
    /// statuses and generations, and the queue multiset including the
    /// offered choices); combined with a world fingerprint it identifies
    /// the global state at this commit point. It is computed when called,
    /// and an execution starts keeping the queue multiset's hash only at its
    /// first call: a hook replaying a recorded prefix has no use for it and
    /// pays nothing, not even at the posts and pushes of the prefix.
    fn choose(
        &mut self,
        world: &W,
        engine_hash: &mut dyn FnMut() -> u64,
        at: Time,
        choices: &McChoices<'_, W::Msg>,
    ) -> Option<usize>;
}

/// Content hash of a queued message addressed at a node, used to fingerprint
/// the pending-event multiset in model-checked runs. Must be a pure function
/// of the message so replays fingerprint identically. Called once per
/// message: for each message queued when the hook first asks for the engine
/// hash, and from then on when a message is posted.
pub type McMsgHash<M> = Box<dyn Fn(NodeId, &M) -> u64>;

/// Everything [`run_nodes`] installs on the engine: the controlling
/// hook plus a content hash for queued messages (feeding the queue-multiset
/// part of `engine_hash`).
pub struct McInstall<W: World> {
    /// The controlled scheduler.
    pub hook: Box<dyn McHook<W>>,
    /// Content hash of a queued message addressed at a node.
    pub msg_hash: McMsgHash<W::Msg>,
}

/// Shared mutable state plugged into the engine: the protocol world.
///
/// The engine is generic over the world so that the protocol layer can define
/// its own message type and delivery semantics. `deliver` is invoked exactly
/// once per posted message, at the message's scheduled arrival time, with a
/// [`Sched`] handle for posting follow-up messages, waking blocked nodes, or
/// charging occupancy delays to busy nodes.
pub trait World {
    /// Message type routed through the event queue.
    type Msg;

    /// Handle a message arriving at node `to` at the current virtual time.
    fn deliver(&mut self, sched: &mut Sched<Self::Msg>, to: NodeId, msg: Self::Msg);

    /// Observe a node advancing its local clock over `[from, to)` (compute
    /// or local protocol work). Called when the node yields
    /// ([`NodeHandle::advance`]), before the segment is scheduled; occupancy
    /// charged into the segment later via [`Sched::delay`] is not included.
    /// Default: no-op.
    fn on_advance(&mut self, _node: NodeId, _from: Time, _to: Time) {}
}

/// Scheduling status of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Currently executing (at most one node at a time).
    Running,
    /// Will resume at the given virtual time (it is computing until then).
    Ready {
        /// The scheduled resume time.
        at: Time,
    },
    /// Parked until a handler calls [`Sched::wake`].
    Blocked,
    /// Node body returned.
    Done,
}

/// Why [`run_nodes`] did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The model-checker hook abandoned the execution
    /// ([`McHook::choose`] returned `None`).
    Pruned,
    /// The event queue ran dry with unfinished nodes.
    Deadlock {
        /// Every node's status at that point, by node id.
        nodes: Vec<NodeStatus>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Pruned => write!(f, "schedule pruned by the model-checker hook"),
            RunError::Deadlock { nodes } => write!(
                f,
                "simulation deadlock: event queue empty, node states {nodes:?}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// What the queue holds for one event: 16 bytes and `Copy`, because the
/// queue moves its entries on every push, binary insert, sort and pop, and
/// most events are resumes. A message's payload waits in the scheduler's
/// slab ([`Sched::msgs`]) until the slot commits.
#[derive(Clone, Copy)]
enum Slot {
    /// Hand control back to a node. `gen` guards against stale entries left
    /// in the queue after the node's resume time was pushed back.
    Resume { node: u32, gen: u64 },
    /// Deliver the message at `msgs[idx]` to the world, addressed at a node.
    Msg { to: u32, idx: u32 },
}

/// A popped slot and its time; `None` when the queue is empty.
type Popped = Option<(Time, Slot)>;

struct NodeSlot {
    status: NodeStatus,
    /// Generation of the valid Resume event for this node.
    gen: u64,
    /// A wake that arrived before the node blocked (its completion message
    /// is "sitting in the receive queue"); consumed by the next block().
    pending_wake: Option<Time>,
}

/// Event queue plus node scheduling state: the handle given to
/// [`World::deliver`] and [`NodeHandle::world`] closures for interacting
/// with the event queue.
pub struct Sched<M> {
    now: Time,
    queue: BucketQueue<Slot>,
    /// Payloads of the queued messages, by [`Slot::Msg`] index; `None` is a
    /// free entry, listed in `free_msgs`.
    msgs: Vec<Option<M>>,
    free_msgs: Vec<u32>,
    nodes: Vec<NodeSlot>,
    done_count: usize,
    /// Events popped and processed (resumes, stale resumes, deliveries) —
    /// the simulator's native unit of work, deterministic per run.
    events: u64,
    /// Model-checked runs only: the delivery target of the message handler
    /// now executing, to assert handler footprints (a handler may only
    /// wake/delay its own delivery target).
    exec: Option<NodeId>,
    /// Model-checked runs only: the pending-event hash. Doubles as the "mc
    /// mode" flag on the scheduler side.
    mc: Option<QueueHash<M>>,
    /// Model-checked runs only: the events tied at the head time, gathered
    /// afresh at each commit point into this one buffer.
    tied: Vec<(Time, u64, Slot)>,
}

/// A model-checked run's fingerprint of the pending-event multiset: the XOR
/// of [`event_hash`] over every queued event, which is order-independent and
/// kept incrementally. It is started by the hook's first call for the engine
/// hash ([`QueueHash::kept`]), so the commit points of a replayed prefix —
/// most of an execution's — post, push and commit without hashing anything.
struct QueueHash<M> {
    /// Content hash of a queued message.
    msg_hash: McMsgHash<M>,
    /// Once started: the content hash of the message at `msgs[idx]`.
    msgs: Vec<u64>,
    /// Once started: the XOR over the queue, brought up to date by every
    /// push, commit and stale skip.
    sum: Option<u64>,
}

impl<M> QueueHash<M> {
    /// Fold one event pushed or removed into the sum, if it is kept.
    #[inline]
    fn toggle(&mut self, at: Time, slot: Slot) {
        if let Some(sum) = &mut self.sum {
            *sum ^= event_hash(&self.msgs, at, slot);
        }
    }

    /// The sum for `queue` plus the commit point's tie, which stays
    /// logically queued until one event commits. The first call hashes each
    /// queued message and scans the queue once; later calls read what was
    /// kept. Every debug-build call re-derives the sum from a scan and
    /// asserts that the kept one matches.
    fn kept(
        &mut self,
        queue: &BucketQueue<Slot>,
        tied: &[(Time, u64, Slot)],
        slab: &[Option<M>],
    ) -> u64 {
        let sum = match self.sum {
            Some(sum) => sum,
            None => {
                self.msgs.resize(slab.len(), 0);
                for (_, slot) in queued(queue, tied) {
                    if let Slot::Msg { to, idx } = slot {
                        let msg = slab[idx as usize]
                            .as_ref()
                            .expect("a queued message has a payload");
                        self.msgs[idx as usize] = (self.msg_hash)(to as NodeId, msg);
                    }
                }
                *self.sum.insert(self.scan(queue, tied))
            }
        };
        debug_assert_eq!(
            sum,
            self.scan(queue, tied),
            "the kept pending-event hash drifted from the queue"
        );
        sum
    }

    /// The sum from scratch, over the message hashes taken.
    fn scan(&self, queue: &BucketQueue<Slot>, tied: &[(Time, u64, Slot)]) -> u64 {
        queued(queue, tied).fold(0, |sum, (at, slot)| sum ^ event_hash(&self.msgs, at, slot))
    }
}

/// Every event logically queued at a commit point: the queue's and the tie's.
fn queued<'a>(
    queue: &'a BucketQueue<Slot>,
    tied: &'a [(Time, u64, Slot)],
) -> impl Iterator<Item = (Time, Slot)> + 'a {
    let tied = tied.iter().map(|&(at, _, slot)| (at, slot));
    queue.entries().map(|(at, &slot)| (at, slot)).chain(tied)
}

/// Seq-independent fingerprint of one queued event (model-checked runs):
/// replays push the same events in potentially different seq order, so
/// the multiset hash must not depend on insertion order. A message's content
/// hash is read from `msgs`, by slab index.
fn event_hash(msgs: &[u64], at: Time, slot: Slot) -> u64 {
    match slot {
        Slot::Resume { node, gen } => fold64(fold64(fold64(1, node as u64), gen), at),
        Slot::Msg { to, idx } => fold64(fold64(fold64(2, to as u64), msgs[idx as usize]), at),
    }
}

/// Scheduler-visible fingerprint at a commit point: head time, node slots,
/// and the pending-event multiset.
fn engine_hash<M>(
    mc: &mut QueueHash<M>,
    queue: &BucketQueue<Slot>,
    slab: &[Option<M>],
    nodes: &[NodeSlot],
    head: Time,
    tied: &[(Time, u64, Slot)],
) -> u64 {
    let sum = mc.kept(queue, tied, slab);
    let mut eh = fold64(0, head);
    for s in nodes {
        let (tag, t) = match s.status {
            NodeStatus::Running => (0u64, 0),
            NodeStatus::Ready { at } => (1, at),
            NodeStatus::Blocked => (2, 0),
            NodeStatus::Done => (3, 0),
        };
        eh = fold64(eh, tag);
        eh = fold64(eh, t);
        eh = fold64(eh, s.gen);
        eh = fold64(eh, s.pending_wake.map_or(u64::MAX, |w| w));
    }
    fold64(eh, sum)
}

impl<M> Sched<M> {
    /// Standalone scheduler for unit-testing message handlers outside the
    /// engine: events accumulate in the queue and can be drained with
    /// [`Sched::take_events`]; nodes start `Blocked`, so a wake on one
    /// queues its resume event.
    pub fn for_testing(n: usize) -> Self {
        let mut s = Self::new(n);
        for node in 0..n {
            s.nodes[node].status = NodeStatus::Blocked;
        }
        s
    }

    /// Test helper: pop every queued event, returning `(time, to, msg)` for
    /// messages and `None` payloads for resumes.
    pub fn take_events(&mut self) -> Vec<(Time, NodeId, Option<M>)> {
        let mut out = Vec::new();
        while let Some((at, slot)) = self.queue.pop() {
            match slot {
                Slot::Msg { to, idx } => out.push((at, to as NodeId, Some(self.take_msg(idx)))),
                Slot::Resume { node, .. } => out.push((at, node as NodeId, None)),
            }
        }
        out
    }

    /// Test helper: advance the notion of "now" directly.
    pub fn set_now_for_testing(&mut self, t: Time) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "node ids are queued as u32");
        Sched {
            now: 0,
            queue: BucketQueue::new(),
            msgs: Vec::new(),
            free_msgs: Vec::new(),
            nodes: (0..n)
                .map(|_| NodeSlot {
                    status: NodeStatus::Blocked, // set properly at start
                    gen: 0,
                    pending_wake: None,
                })
                .collect(),
            done_count: 0,
            events: 0,
            exec: None,
            mc: None,
            tied: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of simulated nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Fold one event pushed or removed into the pending-event hash, if it
    /// is kept.
    #[inline]
    fn toggle_hash(&mut self, at: Time, slot: Slot) {
        if let Some(mc) = &mut self.mc {
            mc.toggle(at, slot);
        }
    }

    /// Take a committed message's payload out of the slab and free its entry.
    fn take_msg(&mut self, idx: u32) -> M {
        let msg = self.msgs[idx as usize].take();
        self.free_msgs.push(idx);
        msg.expect("a queued message has a payload")
    }

    fn push(&mut self, at: Time, slot: Slot) {
        self.toggle_hash(at, slot);
        self.queue.push(at, slot);
    }

    /// Pop the next event, counting it as processed simulator work.
    fn next_event(&mut self) -> Popped {
        let ev = self.queue.pop();
        if ev.is_some() {
            self.events += 1;
        }
        ev
    }

    /// Start-up: every node is Ready at t=0, and node 0's Resume is pushed
    /// first so it runs first (deterministic start-up order by node id).
    fn start(&mut self) {
        for node in 0..self.nodes.len() {
            self.nodes[node].status = NodeStatus::Ready { at: 0 };
            self.nodes[node].gen = 1;
            let node = node as u32;
            self.push(0, Slot::Resume { node, gen: 1 });
        }
    }

    /// Commit a popped `Resume` event: false if a later delay/wake
    /// superseded it, otherwise the clock moves to `at` and the node runs.
    fn begin_resume(&mut self, node: NodeId, gen: u64, at: Time) -> bool {
        let slot = &mut self.nodes[node];
        if slot.gen != gen {
            return false;
        }
        match slot.status {
            NodeStatus::Ready { at: r } => debug_assert_eq!(r, at),
            other => panic!("resume for node {node} in state {other:?}"),
        }
        slot.status = NodeStatus::Running;
        self.now = at;
        true
    }

    /// The running node yields to compute for `dt` ns
    /// ([`NodeHandle::advance`]). `dt == 0` still yields: events tied at the
    /// current time may commit first.
    fn yield_advance<W: World<Msg = M>>(&mut self, world: &mut W, node: NodeId, dt: Time) {
        let at = self.now + dt;
        if dt > 0 {
            world.on_advance(node, self.now, at);
        }
        debug_assert_eq!(self.nodes[node].status, NodeStatus::Running);
        self.schedule_resume(node, at);
    }

    /// The running node yields until woken ([`NodeHandle::block`]); a wake
    /// that already arrived releases it at once.
    fn yield_block(&mut self, node: NodeId) {
        debug_assert_eq!(self.nodes[node].status, NodeStatus::Running);
        match self.nodes[node].pending_wake.take() {
            // The completion we were about to wait for already arrived.
            Some(at) => self.schedule_resume(node, at.max(self.now)),
            None => self.nodes[node].status = NodeStatus::Blocked,
        }
    }

    /// The running node's program returned.
    fn yield_done(&mut self, node: NodeId) {
        debug_assert_eq!(self.nodes[node].status, NodeStatus::Running);
        self.nodes[node].status = NodeStatus::Done;
        self.done_count += 1;
    }

    /// Make `node` Ready at `at` under a fresh generation (invalidating any
    /// Resume still queued for it) and queue the new Resume.
    fn schedule_resume(&mut self, node: NodeId, at: Time) {
        let slot = &mut self.nodes[node];
        slot.status = NodeStatus::Ready { at };
        slot.gen += 1;
        let gen = slot.gen;
        let node = node as u32;
        self.push(at, Slot::Resume { node, gen });
    }

    /// Deliver a popped message to the world at its arrival time.
    fn deliver<W: World<Msg = M>>(&mut self, world: &mut W, at: Time, to: NodeId, msg: M) {
        self.now = at;
        world.deliver(self, to, msg);
    }

    fn deadlock(&self) -> RunError {
        RunError::Deadlock {
            nodes: self.nodes.iter().map(|s| s.status).collect(),
        }
    }

    /// Post a message for delivery to node `to` at virtual time `at`.
    ///
    /// `at` is clamped to the current time (messages cannot arrive in the
    /// past).
    pub fn post(&mut self, to: NodeId, at: Time, msg: M) {
        debug_assert!(
            to < self.nodes.len(),
            "post to node {to} of {}",
            self.nodes.len()
        );
        let at = at.max(self.now);
        // A message is hashed at its post only once hashing has started.
        let hash = match &self.mc {
            Some(mc) if mc.sum.is_some() => Some((mc.msg_hash)(to, &msg)),
            _ => None,
        };
        let idx = match self.free_msgs.pop() {
            Some(idx) => {
                self.msgs[idx as usize] = Some(msg);
                idx
            }
            None => {
                self.msgs.push(Some(msg));
                u32::try_from(self.msgs.len() - 1).expect("fewer than 2^32 messages in flight")
            }
        };
        if let (Some(h), Some(mc)) = (hash, &mut self.mc) {
            if mc.msgs.len() <= idx as usize {
                mc.msgs.resize(idx as usize + 1, 0);
            }
            mc.msgs[idx as usize] = h;
        }
        let to = to as u32;
        self.push(at, Slot::Msg { to, idx });
    }

    /// Wake a blocked node so that it resumes at time `at`.
    ///
    /// Panics if the node is not blocked: waking a computing or finished node
    /// indicates a protocol bug.
    pub fn wake(&mut self, node: NodeId, at: Time) {
        // Model-checked runs assert the footprint the DPOR layer relies on:
        // a message handler only ever wakes its own delivery target.
        debug_assert!(
            self.mc.is_none() || self.exec.is_none() || self.exec == Some(node),
            "mc: handler at {:?} woke node {node}",
            self.exec
        );
        let at = at.max(self.now);
        match self.nodes[node].status {
            NodeStatus::Blocked => self.schedule_resume(node, at),
            NodeStatus::Ready { .. } | NodeStatus::Running => {
                // The node has not blocked yet (e.g. it is still charging
                // local time before parking): remember the wake, consumed by
                // its next block().
                let w = self.nodes[node].pending_wake.get_or_insert(at);
                *w = (*w).max(at);
            }
            NodeStatus::Done => panic!("wake({node}) called on a finished node"),
        }
    }

    /// Push back the resume time of a computing node to at least `until`,
    /// modeling occupancy stolen from it (e.g. servicing a remote protocol
    /// request). No-op for blocked or finished nodes, or if the node already
    /// resumes later than `until`.
    pub fn delay(&mut self, node: NodeId, until: Time) {
        debug_assert!(
            self.mc.is_none() || self.exec.is_none() || self.exec == Some(node),
            "mc: handler at {:?} delayed node {node}",
            self.exec
        );
        let until = until.max(self.now);
        if let NodeStatus::Ready { at } = self.nodes[node].status {
            if at < until {
                self.schedule_resume(node, until);
            }
        }
    }

    /// True if the node is parked waiting for a wake (so it can service an
    /// incoming request immediately: it is spinning on message arrival).
    pub fn is_blocked(&self, node: NodeId) -> bool {
        self.nodes[node].status == NodeStatus::Blocked
    }

    /// The time at which the node becomes available to service an
    /// asynchronous request: now if it is blocked (it polls while waiting) or
    /// done, otherwise the end of its current compute segment is irrelevant —
    /// with polling it services at the next backedge, so availability is also
    /// ~now. This helper returns the node's scheduled resume time for models
    /// that want it.
    pub fn resume_at(&self, node: NodeId) -> Option<Time> {
        match self.nodes[node].status {
            NodeStatus::Ready { at } => Some(at),
            _ => None,
        }
    }
}

/// Pop the next event of a model-checked run, routing the choice through
/// the hook: gather every event tied at the head virtual time, drop stale
/// resumes (they are not real choices — the plain pop skips them
/// identically), and let the hook pick which one commits. Unchosen events
/// are restored with their original `(time, seq)` keys, so the order among
/// them is untouched. `Ok(None)` means the queue is empty.
fn mc_next_event<W: World>(
    sched: &mut Sched<W::Msg>,
    world: &W,
    hook: &mut dyn McHook<W>,
) -> Result<Popped, RunError> {
    let mut tied = std::mem::take(&mut sched.tied);
    let head = loop {
        let Some((head, _)) = sched.queue.peek_key() else {
            sched.tied = tied;
            return Ok(None);
        };
        tied.clear();
        while sched.queue.peek_key().is_some_and(|(t, _)| t == head) {
            let (at, key, slot) = sched.queue.pop_entry().expect("head implies an event");
            if let Slot::Resume { node, gen } = slot {
                if sched.nodes[node as usize].gen != gen {
                    // Superseded by a later delay/wake: skip it, counting it
                    // exactly as the plain loop would.
                    sched.events += 1;
                    sched.toggle_hash(at, slot);
                    continue;
                }
            }
            tied.push((at, key, slot));
        }
        if !tied.is_empty() {
            break head;
        }
        // The whole tie was stale; move to the next head time.
    };
    // The offered messages are lent out of the slab, where they stay until
    // one commits.
    let choices = McChoices {
        tied: &tied,
        msgs: &sched.msgs,
    };
    let mc = sched
        .mc
        .as_mut()
        .expect("a model-checked run hashes its queue");
    let (queue, slab, nodes) = (&sched.queue, &sched.msgs, &sched.nodes);
    let mut engine_hash = || engine_hash(mc, queue, slab, nodes, head, &tied);
    let Some(pick) = hook.choose(world, &mut engine_hash, head, &choices) else {
        return Err(RunError::Pruned);
    };
    assert!(pick < tied.len(), "mc hook chose {pick} of {}", tied.len());
    for (i, &(at, key, slot)) in tied.iter().enumerate() {
        if i != pick {
            sched.queue.unpop(at, key, slot);
        }
    }
    let (at, _, slot) = tied[pick];
    sched.toggle_hash(at, slot);
    sched.events += 1;
    sched.tied = tied;
    Ok(Some((at, slot)))
}

/// A node program as `async` code: one boxed future per node per run,
/// built around the node's [`NodeHandle`]. It suspends only inside
/// [`NodeHandle::advance`] and [`NodeHandle::block`] and is finished when
/// it returns.
pub type NodeFuture<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// The world and the scheduler of one run, shared between the loop and the
/// node handles. Only ever borrowed for the extent of one event or one
/// [`NodeHandle::world`] closure, never across a suspension.
type Engine<W> = RefCell<(W, Sched<<W as World>::Msg>)>;

/// An `async` node body's handle onto the engine: the clock, the world, and
/// the two ways to yield.
pub struct NodeHandle<W: World> {
    engine: Rc<Engine<W>>,
    node: NodeId,
}

impl<W: World> NodeHandle<W> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.engine.borrow().1.num_nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.engine.borrow().1.now
    }

    /// Run `f` with exclusive access to the world and the scheduler.
    ///
    /// This is how node-side protocol code mutates shared protocol state and
    /// posts messages. The closure runs at the node's current virtual time.
    /// The borrow lasts exactly as long as the closure — which cannot
    /// `.await` — so the world is never held across a yield.
    pub fn world<R>(&mut self, f: impl FnOnce(&mut W, &mut Sched<W::Msg>) -> R) -> R {
        let (world, sched) = &mut *self.engine.borrow_mut();
        f(world, sched)
    }

    /// Advance this node's virtual clock by `dt` nanoseconds of computation.
    ///
    /// Events that fall inside the interval are processed; message handlers
    /// may charge extra occupancy to this node via [`Sched::delay`], pushing
    /// the effective resume time further out.
    pub async fn advance(&mut self, dt: Time) {
        let node = self.node;
        self.world(|w, s| s.yield_advance(w, node, dt));
        Yielded(false).await
    }

    /// Park this node until a message handler calls [`Sched::wake`] for it.
    pub async fn block(&mut self) {
        let node = self.node;
        self.world(|_, s| s.yield_block(node));
        Yielded(false).await
    }
}

/// The leaf future under every yield: `Pending` once — control returns to
/// the loop, which has already been told what the node waits for — and
/// `Ready` when the loop polls the node again at its resume event.
struct Yielded(bool);

impl Future for Yielded {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.0, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Run an `n`-node cluster on the event loop, on the caller's thread, and
/// return the final world, the final virtual time and the number of events
/// processed — or why the run stopped short.
///
/// `program` builds each node's body from its [`NodeHandle`]. Events commit
/// in `(time, seq)` order; a message is delivered to the world; a valid
/// resume polls the node's body, with the world released, to its next yield
/// — which the body has applied itself by the time it returns `Pending`;
/// after the last node finishes the queue is drained so in-flight messages
/// still take effect.
///
/// With `mc` installed every commit point — the post-`Done` drain
/// included — is the hook's choice ([`McHook::choose`]). A panic in a node
/// program unwinds through this function to the caller.
pub fn run_nodes<'t, W: World>(
    world: W,
    n: usize,
    program: impl FnMut(NodeHandle<W>) -> NodeFuture<'t>,
    mc: Option<McInstall<W>>,
) -> Result<(W, Time, u64), RunError> {
    assert!(n > 0, "cluster needs at least one node");
    let mut sched = Sched::new(n);
    let mut hook = mc.map(|m| {
        sched.mc = Some(QueueHash {
            msg_hash: m.msg_hash,
            msgs: Vec::new(),
            sum: None,
        });
        m.hook
    });
    sched.start();
    let engine = Rc::new(RefCell::new((world, sched)));
    let mut nodes: Vec<NodeFuture<'t>> = (0..n)
        .map(|node| NodeHandle {
            engine: Rc::clone(&engine),
            node,
        })
        .map(program)
        .collect();
    // The engine decides who runs next; nothing ever wakes a node.
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let mut borrow = engine.borrow_mut();
        let (world, sched) = &mut *borrow;
        let next = match hook.as_deref_mut() {
            Some(h) => mc_next_event(sched, world, h)?,
            None => sched.next_event(),
        };
        let Some((at, slot)) = next else {
            break;
        };
        debug_assert!(at >= sched.now);
        match slot {
            Slot::Msg { to, idx } => {
                let to = to as NodeId;
                let msg = sched.take_msg(idx);
                // Model-checked runs assert handler footprints in
                // wake/delay: a handler touches only its delivery target.
                sched.exec = hook.is_some().then_some(to);
                sched.deliver(world, at, to, msg);
                sched.exec = None;
            }
            Slot::Resume { node, gen } => {
                let node = node as NodeId;
                if !sched.begin_resume(node, gen, at) {
                    continue; // superseded by a later delay/wake
                }
                drop(borrow);
                let done = nodes[node].as_mut().poll(&mut cx).is_ready();
                let sched = &mut engine.borrow_mut().1;
                if done {
                    sched.yield_done(node);
                }
                assert_ne!(
                    sched.nodes[node].status,
                    NodeStatus::Running,
                    "node {node} suspended on something other than advance/block"
                );
            }
        }
    }
    // Finished or not, the bodies go before the world comes back out: each
    // holds a handle on the engine.
    drop(nodes);
    let Ok(engine) = Rc::try_unwrap(engine) else {
        panic!("a node handle outlived its node program");
    };
    let (world, sched) = engine.into_inner();
    if sched.done_count < n {
        return Err(sched.deadlock());
    }
    Ok((world, sched.now, sched.events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A world that records message deliveries and can wake nodes.
    struct TestWorld {
        log: Vec<(Time, NodeId, u32)>,
        wake_on: Vec<Option<u32>>, // node -> tag that wakes it
    }

    impl World for TestWorld {
        type Msg = u32;
        fn deliver(&mut self, sched: &mut Sched<u32>, to: NodeId, msg: u32) {
            self.log.push((sched.now(), to, msg));
            if self.wake_on.get(to).copied().flatten() == Some(msg) && sched.is_blocked(to) {
                let now = sched.now();
                sched.wake(to, now);
            }
        }
    }

    /// An `async` node body, from its handle.
    type Body<W> = Box<dyn FnOnce(NodeHandle<W>) -> NodeFuture<'static>>;

    /// Box an `async` node body (the closure's signature is fixed here, so
    /// call sites need not annotate theirs).
    fn body<W: World, F: Future<Output = ()> + 'static>(
        f: impl FnOnce(NodeHandle<W>) -> F + 'static,
    ) -> Body<W> {
        Box::new(move |ctx| Box::pin(f(ctx)))
    }

    /// Run one body per node, with or without a hook.
    fn run_with<W: World>(
        world: W,
        bodies: Vec<Body<W>>,
        mc: Option<McInstall<W>>,
    ) -> Result<(W, Time, u64), RunError> {
        let n = bodies.len();
        let mut bodies = bodies.into_iter();
        run_nodes(
            world,
            n,
            |ctx| (bodies.next().expect("one body per node"))(ctx),
            mc,
        )
    }

    /// Run bodies to completion, no hook.
    fn run_bodies<W: World>(world: W, bodies: Vec<Body<W>>) -> (W, Time, u64) {
        run_with(world, bodies, None).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn advances_virtual_time_per_node() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (_, t, _) = run_bodies(
            world,
            vec![
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.advance(100).await;
                    assert_eq!(ctx.now(), 100);
                    ctx.advance(50).await;
                    assert_eq!(ctx.now(), 150);
                }),
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.advance(500).await;
                    assert_eq!(ctx.now(), 500);
                }),
            ],
        );
        assert_eq!(t, 500);
    }

    #[test]
    fn messages_deliver_at_posted_time() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, Some(7)],
        };
        let (w, _, _) = run_bodies(
            world,
            vec![
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.world(|_, s| s.post(1, 250, 7));
                    ctx.advance(10).await;
                }),
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.block().await; // until msg 7 arrives at t=250
                    assert_eq!(ctx.now(), 250);
                }),
            ],
        );
        assert_eq!(w.log, vec![(250, 1, 7)]);
    }

    #[test]
    fn post_done_drain_follows_event_chains() {
        // After every node body has returned, in-flight messages are still
        // delivered — including messages that deliveries themselves post
        // (retransmission-timer chains in the fabric depend on this).
        struct ChainWorld {
            log: Vec<(Time, u32)>,
        }
        impl World for ChainWorld {
            type Msg = u32;
            fn deliver(&mut self, sched: &mut Sched<u32>, _to: NodeId, msg: u32) {
                self.log.push((sched.now(), msg));
                if msg < 3 {
                    let at = sched.now() + 100;
                    sched.post(0, at, msg + 1);
                }
            }
        }
        let (w, t, _) = run_bodies(
            ChainWorld { log: vec![] },
            vec![body(|mut ctx: NodeHandle<ChainWorld>| async move {
                // Post the chain's head and return immediately: the whole
                // chain runs in the post-Done drain.
                ctx.world(|_, s| s.post(0, 1_000, 0));
            })],
        );
        assert_eq!(w.log, vec![(1_000, 0), (1_100, 1), (1_200, 2), (1_300, 3)]);
        assert_eq!(t, 1_300, "drain must advance the clock through the chain");
    }

    #[test]
    fn delay_pushes_back_compute_segment() {
        struct DelayWorld;
        impl World for DelayWorld {
            type Msg = ();
            fn deliver(&mut self, sched: &mut Sched<()>, to: NodeId, _msg: ()) {
                // Charge 100ns of occupancy beyond the target's scheduled
                // resume time.
                let until = sched.resume_at(to).unwrap_or(sched.now()) + 100;
                sched.delay(to, until);
            }
        }
        let (_, t, _) = run_bodies(
            DelayWorld,
            vec![
                body(|mut ctx: NodeHandle<DelayWorld>| async move {
                    ctx.world(|_, s| s.post(1, 50, ()));
                    ctx.advance(1).await;
                }),
                body(|mut ctx: NodeHandle<DelayWorld>| async move {
                    // Computing until 200; the message at t=50 charges 100ns
                    // beyond our scheduled resume, so we resume at 300.
                    ctx.advance(200).await;
                    assert_eq!(ctx.now(), 300);
                }),
            ],
        );
        assert_eq!(t, 300);
    }

    #[test]
    fn deterministic_event_order_across_runs() {
        fn run_once() -> Vec<(Time, NodeId, u32)> {
            let world = TestWorld {
                log: vec![],
                wake_on: vec![None; 4],
            };
            let bodies = (0..4u32)
                .map(|i| {
                    body(move |mut ctx: NodeHandle<TestWorld>| async move {
                        for k in 0..10u32 {
                            let target = ((i + 1) % 4) as NodeId;
                            ctx.world(|_, s| {
                                let at = s.now() + 37;
                                s.post(target, at, k * 10 + i)
                            });
                            ctx.advance(13 + u64::from(i)).await;
                        }
                    })
                })
                .collect();
            run_bodies(world, bodies).0.log
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn blocked_forever_panics() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None],
        };
        run_bodies(
            world,
            vec![body(|mut ctx: NodeHandle<TestWorld>| async move {
                ctx.block().await;
            })],
        );
    }

    #[test]
    #[should_panic(expected = "the body's own message")]
    fn a_panicking_body_unwinds_through_the_loop() {
        run_bodies(
            tie_world(),
            vec![
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.advance(10).await;
                    panic!("the body's own message");
                }),
                body(|mut ctx: NodeHandle<TestWorld>| async move {
                    ctx.block().await;
                }),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "suspended on something other than advance/block")]
    fn a_foreign_suspension_is_caught() {
        run_bodies(
            tie_world(),
            vec![body(|_ctx: NodeHandle<TestWorld>| Yielded(false))],
        );
    }

    #[test]
    fn pending_wake_is_consumed_by_next_block() {
        // A wake that lands while the node is still computing must not be
        // lost: the node's next block() returns immediately at (or after)
        // the wake time.
        struct WakeEarly;
        impl World for WakeEarly {
            type Msg = ();
            fn deliver(&mut self, sched: &mut Sched<()>, to: NodeId, _msg: ()) {
                let now = sched.now();
                sched.wake(to, now + 5);
            }
        }
        let (_, t, _) = run_bodies(
            WakeEarly,
            vec![
                body(|mut ctx: NodeHandle<WakeEarly>| async move {
                    ctx.world(|_, s| s.post(1, 10, ()));
                    ctx.advance(1).await;
                }),
                body(|mut ctx: NodeHandle<WakeEarly>| async move {
                    // Compute past the wake at t=15, then block: the stored
                    // wake releases us instantly instead of deadlocking.
                    ctx.advance(100).await;
                    ctx.block().await;
                    assert_eq!(ctx.now(), 100);
                }),
            ],
        );
        assert_eq!(t, 100);
    }

    #[test]
    fn delay_ignores_blocked_nodes() {
        struct DelayBlocked;
        impl World for DelayBlocked {
            type Msg = u8;
            fn deliver(&mut self, sched: &mut Sched<u8>, to: NodeId, msg: u8) {
                match msg {
                    0 => {
                        // Try to delay a blocked node: must be a no-op.
                        let until = sched.now() + 1_000_000;
                        sched.delay(to, until);
                        let now = sched.now();
                        sched.wake(to, now + 1);
                    }
                    _ => unreachable!(),
                }
            }
        }
        let (_, t, _) = run_bodies(
            DelayBlocked,
            vec![
                body(|mut ctx: NodeHandle<DelayBlocked>| async move {
                    ctx.world(|_, s| s.post(1, 50, 0));
                    ctx.advance(1).await;
                }),
                body(|mut ctx: NodeHandle<DelayBlocked>| async move {
                    ctx.block().await;
                    // Woken at 51, not delayed to 1ms.
                    assert_eq!(ctx.now(), 51);
                }),
            ],
        );
        assert_eq!(t, 51);
    }

    #[test]
    fn post_in_the_past_clamps_to_now() {
        struct PastPost {
            got: Vec<Time>,
        }
        impl World for PastPost {
            type Msg = bool;
            fn deliver(&mut self, sched: &mut Sched<bool>, _to: NodeId, msg: bool) {
                if msg {
                    // Attempt to post 100ns in the past.
                    let target = sched.now().saturating_sub(100);
                    sched.post(0, target, false);
                } else {
                    self.got.push(sched.now());
                }
            }
        }
        let (w, _, _) = run_bodies(
            PastPost { got: vec![] },
            vec![body(|mut ctx: NodeHandle<PastPost>| async move {
                ctx.world(|_, s| s.post(0, 500, true));
                ctx.advance(1_000).await;
            })],
        );
        assert_eq!(w.got, vec![500]);
    }

    #[test]
    fn a_queue_entry_is_a_key_and_a_sixteen_byte_slot() {
        assert_eq!(size_of::<Slot>(), 16);
        assert_eq!(size_of::<(Time, u64, Slot)>(), 32);
    }

    #[test]
    fn slab_entries_are_reused_under_messages_still_in_flight() {
        let mut s = Sched::<String>::for_testing(2);
        let deliver_next = |s: &mut Sched<String>| {
            let Some((at, Slot::Msg { to, idx })) = s.next_event() else {
                panic!("a message is due");
            };
            (at, to, s.take_msg(idx))
        };
        for (at, tag) in [(10, "a"), (30, "b"), (20, "c")] {
            s.post(1, at, tag.to_string());
        }
        assert_eq!(deliver_next(&mut s), (10, 1, "a".to_string()));
        // "a"'s entry is free and the next post takes it, with "b" and "c"
        // still queued around it.
        s.post(0, 25, "d".to_string());
        assert_eq!(deliver_next(&mut s), (20, 1, "c".to_string()));
        s.post(0, 40, "e".to_string());
        s.post(1, 35, "f".to_string());
        assert_eq!(s.msgs.len(), 4, "two of the six posts reused an entry");
        let rest: Vec<_> = s
            .take_events()
            .into_iter()
            .map(|(at, to, msg)| (at, to, msg.expect("only messages are queued")))
            .collect();
        let want = [(25, 0, "d"), (30, 1, "b"), (35, 1, "f"), (40, 0, "e")];
        assert_eq!(rest, want.map(|(at, to, m)| (at, to, m.to_string())));
        assert!(s.msgs.iter().all(Option::is_none));
    }

    #[test]
    fn ties_break_by_post_order() {
        let (w, _, _) = run_bodies(tie_world(), tie_bodies());
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    /// Test hook: delegates every choice to a closure over
    /// `(number of choices, engine hash)`, which asks for the hash or not.
    struct PickHook<F: FnMut(usize, &mut dyn FnMut() -> u64) -> Option<usize>>(F);
    impl<W: World, F: FnMut(usize, &mut dyn FnMut() -> u64) -> Option<usize>> McHook<W>
        for PickHook<F>
    {
        fn choose(
            &mut self,
            _world: &W,
            engine_hash: &mut dyn FnMut() -> u64,
            _at: Time,
            choices: &McChoices<'_, W::Msg>,
        ) -> Option<usize> {
            (self.0)(choices.len(), engine_hash)
        }
    }

    fn tie_bodies() -> Vec<Body<TestWorld>> {
        vec![
            body(|mut ctx: NodeHandle<TestWorld>| async move {
                ctx.world(|_, s| {
                    s.post(1, 100, 1);
                    s.post(1, 100, 2);
                    s.post(1, 100, 3);
                });
                ctx.advance(1).await;
            }),
            body(|mut ctx: NodeHandle<TestWorld>| async move {
                ctx.advance(200).await;
            }),
        ]
    }

    fn tie_world() -> TestWorld {
        TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        }
    }

    /// A hook that delegates to `pick`, with the engine hash asked for at
    /// every commit point, hashing messages by their tag.
    fn install(
        mut pick: impl FnMut(usize, u64) -> Option<usize> + 'static,
    ) -> Option<McInstall<TestWorld>> {
        Some(McInstall {
            hook: Box::new(PickHook(move |n: usize, ask: &mut dyn FnMut() -> u64| {
                pick(n, ask())
            })),
            msg_hash: Box::new(|to, m: &u32| fold64(u64::from(*m), to as u64)),
        })
    }

    #[test]
    fn deadlock_is_a_value() {
        let bodies = vec![
            body(|mut ctx: NodeHandle<TestWorld>| async move {
                ctx.block().await;
            }),
            body(|mut ctx: NodeHandle<TestWorld>| async move {
                ctx.advance(10).await;
            }),
        ];
        let err = run_with(tie_world(), bodies, None)
            .err()
            .expect("deadlocks");
        assert_eq!(
            err,
            RunError::Deadlock {
                nodes: vec![NodeStatus::Blocked, NodeStatus::Done]
            }
        );
        assert_eq!(
            err.to_string(),
            "simulation deadlock: event queue empty, node states [Blocked, Done]"
        );
    }

    #[test]
    fn mc_hook_reverses_tie_order() {
        let (w, _, _) = run_with(tie_world(), tie_bodies(), install(|n, _| Some(n - 1)))
            .expect("runs to completion");
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![3, 2, 1], "picking last reverses the tie");
    }

    #[test]
    fn mc_first_choice_matches_queue_order_and_hashes_replay() {
        fn mc_run() -> (Vec<(Time, NodeId, u32)>, Vec<u64>, u64) {
            let hashes = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&hashes);
            let hook = install(move |_, eh| {
                sink.borrow_mut().push(eh);
                Some(0)
            });
            let (w, _, ev) = run_with(tie_world(), tie_bodies(), hook).expect("runs to completion");
            let hs = hashes.borrow().clone();
            (w.log, hs, ev)
        }
        let (plain, _, plain_ev) = run_bodies(tie_world(), tie_bodies());
        let (log_a, hashes_a, ev_a) = mc_run();
        let (log_b, hashes_b, ev_b) = mc_run();
        assert_eq!(log_a, plain.log, "always-first replays the queue order");
        assert_eq!(ev_a, plain_ev, "and counts the same events");
        assert_eq!(log_a, log_b);
        assert_eq!(ev_a, ev_b);
        assert_eq!(hashes_a, hashes_b, "engine hashes are replay-stable");
        // The values the engine computed at every commit point, asked for or
        // not, before the hash became a closure: the closure returns them.
        let eager: [u64; 7] = [
            0xc5bf_9d46_0a48_8ff6,
            0xbbc9_1434_8ddc_2d0b,
            0x8779_f050_aedb_ddcc,
            0xff27_3c90_8488_8de4,
            0x6758_f08c_85bf_7e05,
            0xf466_936f_e610_650f,
            0x981e_f046_4e08_e998,
        ];
        assert_eq!(hashes_a, eager);
    }

    /// A world whose every delivery pushes its target's resume back — the
    /// resume already queued goes stale — and, once, posts a message on.
    struct Busy;
    impl World for Busy {
        type Msg = u32;
        fn deliver(&mut self, sched: &mut Sched<u32>, to: NodeId, msg: u32) {
            let until = sched.resume_at(to).unwrap_or(sched.now()) + 7;
            sched.delay(to, until);
            if msg < 10 {
                let at = sched.now() + 50;
                sched.post(1 - to, at, msg + 10);
            }
        }
    }

    /// Two nodes that post `k / 2` tied messages each, then compute past
    /// every arrival; deliveries post the other `k / 2`.
    fn busy_bodies() -> Vec<Body<Busy>> {
        let poster = |first: u32| {
            body(move |mut ctx: NodeHandle<Busy>| async move {
                let peer = 1 - ctx.node();
                ctx.world(|_, s| (first..first + 3).for_each(|m| s.post(peer, 100, m)));
                ctx.advance(120).await;
                ctx.advance(200).await;
            })
        };
        vec![poster(0), poster(3)]
    }

    /// What a hook was offered at one commit point: how many events, and
    /// their keys.
    type Offered = (usize, Vec<u64>);

    /// A hook that picks by `pick(len)`, logs what it was offered, and asks
    /// for the engine hash at every commit point or at none.
    struct LoggingHook<F: FnMut(usize) -> usize> {
        pick: F,
        asks: bool,
        offered: Rc<RefCell<Vec<Offered>>>,
    }
    impl<W: World, F: FnMut(usize) -> usize> McHook<W> for LoggingHook<F> {
        fn choose(
            &mut self,
            _world: &W,
            engine_hash: &mut dyn FnMut() -> u64,
            _at: Time,
            choices: &McChoices<'_, W::Msg>,
        ) -> Option<usize> {
            if self.asks {
                engine_hash();
            }
            let keys: Vec<u64> = choices.iter().map(|c| c.key).collect();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(choices.position(k), Some(i));
                assert_eq!(choices.get(i).key, k);
            }
            self.offered.borrow_mut().push((choices.len(), keys));
            Some((self.pick)(choices.len()))
        }
    }

    /// Run `busy_bodies` under a [`LoggingHook`]; returns what the hook was
    /// offered, the events processed, and how often `msg_hash` was called.
    fn busy_run(pick: fn(usize) -> usize, asks: bool) -> (Vec<Offered>, u64, u32) {
        let offered = Rc::new(RefCell::new(Vec::new()));
        let calls = Rc::new(Cell::new(0u32));
        let counted = Rc::clone(&calls);
        let mc = McInstall {
            hook: Box::new(LoggingHook {
                pick,
                asks,
                offered: Rc::clone(&offered),
            }),
            msg_hash: Box::new(move |to, m: &u32| {
                counted.set(counted.get() + 1);
                fold64(u64::from(*m), to as u64)
            }),
        };
        let (_, _, events) = run_with(Busy, busy_bodies(), Some(mc)).expect("runs to completion");
        let offered = offered.borrow().clone();
        (offered, events, calls.get())
    }

    #[test]
    fn a_message_is_hashed_once_at_post() {
        // Twelve messages: six posted by the bodies in two three-way ties,
        // six by their deliveries. Picking last unpops the rest of each tie
        // again and again; every delivery strands a stale resume. A hook
        // that asks asks at the first commit point, before any post; one
        // that never asks starts no hashing at all.
        for pick in [|_| 0, |n| n - 1, |n| n / 2] {
            let (offered, events, calls) = busy_run(pick, true);
            assert_eq!(calls, 12, "one call per post");
            assert!(offered.iter().any(|(n, _)| *n >= 3), "ties were offered");
            let commits = offered.len() as u64;
            assert!(events > commits, "stale resumes were skipped");
            let (_, _, unasked) = busy_run(pick, false);
            assert_eq!(unasked, 0, "hashing starts at the first ask");
        }
    }

    #[test]
    fn hashing_started_mid_run_hashes_each_message_once_and_agrees() {
        // A hook that first asks at its `k`-th commit point: the messages
        // queued then are hashed once at the start, those posted later once
        // at their post, and the delivered ones never. The engine hashes
        // it reads from there on are those of a hook that asked throughout.
        let run = |first_ask: usize| {
            let hashes = Rc::new(RefCell::new(Vec::new()));
            let calls = Rc::new(Cell::new(0u32));
            let (sink, counted) = (Rc::clone(&hashes), Rc::clone(&calls));
            let mut step = 0;
            let mc = McInstall {
                hook: Box::new(PickHook(move |n: usize, ask: &mut dyn FnMut() -> u64| {
                    step += 1;
                    if step >= first_ask {
                        sink.borrow_mut().push(ask());
                    }
                    Some(n - 1)
                })),
                msg_hash: Box::new(move |to, m: &u32| {
                    counted.set(counted.get() + 1);
                    fold64(u64::from(*m), to as u64)
                }),
            };
            run_with(Busy, busy_bodies(), Some(mc)).expect("runs to completion");
            let hs = hashes.borrow().clone();
            (hs, calls.get())
        };
        let (all, calls) = run(1);
        assert_eq!(calls, 12);
        // Asked from the 4th commit on, one message has been delivered
        // unhashed; from the 10th, six have.
        for (first_ask, want_calls) in [(2, 12), (4, 11), (7, 8), (10, 6)] {
            let (late, late_calls) = run(first_ask);
            assert_eq!(
                late[..],
                all[first_ask - 1..],
                "asked from commit {first_ask}"
            );
            assert_eq!(late_calls, want_calls, "asked from commit {first_ask}");
        }
    }

    #[test]
    fn asking_for_the_engine_hash_changes_nothing() {
        for pick in [|_| 0, |n| n - 1] {
            let (asked, events_asked, _) = busy_run(pick, true);
            let (unasked, events_unasked, _) = busy_run(pick, false);
            assert_eq!(asked, unasked, "the same (len, keys) at every commit");
            assert_eq!(events_asked, events_unasked);
        }
    }

    #[test]
    fn mc_prune_is_an_error_value_and_drops_the_suspended_bodies() {
        struct CountDrop(Rc<Cell<u32>>);
        impl Drop for CountDrop {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops: [Rc<Cell<u32>>; 2] = Default::default();
        // `tie_bodies`, each holding a guard across every suspension.
        let guarded = || -> Vec<Body<TestWorld>> {
            let with_guard = |(inner, drops): (Body<TestWorld>, &Rc<Cell<u32>>)| {
                let guard = CountDrop(Rc::clone(drops));
                body(move |ctx: NodeHandle<TestWorld>| async move {
                    let _held = guard;
                    inner(ctx).await;
                })
            };
            tie_bodies()
                .into_iter()
                .zip(&drops)
                .map(with_guard)
                .collect()
        };
        // The third commit point is node 0's resume from `advance(1)`, with
        // node 1 inside `advance(200)`: both bodies are suspended.
        let mut steps = 0u32;
        let pruned = run_with(
            tie_world(),
            guarded(),
            install(move |_, _| {
                steps += 1;
                (steps <= 2).then_some(0)
            }),
        );
        assert_eq!(pruned.err(), Some(RunError::Pruned));
        assert_eq!([drops[0].get(), drops[1].get()], [1, 1]);
        // The run after a prune is unaffected.
        let (w, t, _) =
            run_with(tie_world(), guarded(), install(|_, _| Some(0))).expect("runs to completion");
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!((tags, t), (vec![1, 2, 3], 200));
        assert_eq!([drops[0].get(), drops[1].get()], [2, 2]);
    }
}
