//! The discrete-event engine: event queue, node scheduling, and the two
//! substrates that run node programs on it.
//!
//! One [`SchedInner`] — virtual clock, event queue, per-node scheduling
//! slots — is shared by both substrates, so a yield means the same thing on
//! either:
//!
//! * **Tasks** ([`run_tasks`]): node programs are poll-shaped
//!   [`NodeTask`]s resumed in place by one loop on the caller's thread. No
//!   threads, no locks, no unwinding; the world is a plain `&mut` borrow,
//!   tasks need be neither `Send` nor `'static`, an abandoned execution is
//!   a dropped `Vec`, and a deadlock is a value ([`RunError::Deadlock`]).
//!   This is the only substrate a model-checker hook ([`McHook`]) can
//!   control. Its first tenant is `dsm-mc`'s straight-line micro-programs.
//! * **Threads** ([`run_cluster`] and friends): one OS thread per node
//!   running an ordinary closure against a [`NodeCtx`], for programs
//!   written as plain blocking code (the paper's applications). Two modes
//!   share the queue and the node threads:
//!   * *Serial* ([`SimPar::serial`], the default): exactly one logical
//!     entity runs at any instant; whichever node thread is active drives
//!     the event loop and hands control over via condvars.
//!   * *Windowed / conservative PDES* ([`SimPar::windowed`], `threads > 1`):
//!     the caller's thread becomes a *committer* that pops and executes every
//!     event in exact global `(time, seq)` order — so all world mutations
//!     happen in the same order as serial execution and results are
//!     bit-identical by construction — while up to `threads - 1` node threads
//!     run their *leading compute* (thread-local application work between DSM
//!     operations) speculatively ahead of their committed resume. The
//!     conservative lookahead window (derived from the fabric's minimum
//!     inter-node latency) bounds which parked nodes are woken early, and
//!     cross-node events produced inside a window are staged on a separate
//!     wheel and merged back at window edges in `(time, seq)` order.
//!
//! Tasks are poll-shaped rather than `async` because the engine needs
//! nothing a future adds: a node yields for exactly three reasons
//! ([`Step`]), the engine — not a waker — decides who runs next, and a
//! straight-line program's whole continuation is a program counter.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::queue::SplitQueue;
use crate::rng::fold64;
use crate::time::Time;
use crate::NodeId;

/// One co-enabled event offered to a model-checker hook at a commit point.
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

/// A controlled scheduler plugged into the task loop by [`run_tasks`]: every
/// commit point where more than zero events are co-enabled at the head
/// virtual time becomes an explicit choice.
///
/// The hook is called at *every* commit point, singletons included, so it
/// can maintain replay position, sleep sets, and step bounds uniformly.
/// Returning `None` abandons the execution: [`run_tasks`] drops the tasks
/// and returns [`RunError::Pruned`].
pub trait McHook<W: World>: Send {
    /// Pick which of `choices` (all tied at virtual time `at`) commits.
    ///
    /// `engine_hash` folds the scheduler-visible state (head time, node
    /// statuses and generations, and the queue multiset including the
    /// offered choices); combined with a world fingerprint it identifies
    /// the global state at this commit point.
    fn choose(
        &mut self,
        world: &W,
        engine_hash: u64,
        at: Time,
        choices: &[McChoice<'_, W::Msg>],
    ) -> Option<usize>;
}

/// Content hash of a queued message addressed at a node, used to fingerprint
/// the pending-event multiset in model-checked runs. Must be a pure function
/// of the message so replays fingerprint identically.
pub type McMsgHash<M> = Box<dyn Fn(NodeId, &M) -> u64 + Send>;

/// Everything [`run_tasks`] installs on the engine: the controlling
/// hook plus a content hash for queued messages (feeding the queue-multiset
/// part of `engine_hash`).
pub struct McInstall<W: World> {
    /// The controlled scheduler.
    pub hook: Box<dyn McHook<W>>,
    /// Content hash of a queued message addressed at a node.
    pub msg_hash: McMsgHash<W::Msg>,
}

/// Execution mode for [`run_cluster_with`]: worker-thread cap plus the
/// conservative lookahead bound for windowed execution.
#[derive(Debug, Clone, Copy)]
pub struct SimPar {
    /// Concurrency cap. 1 = fully serialized (the classic engine); n > 1
    /// lets up to n-1 node threads run speculative leading compute while the
    /// committer thread executes world phases in global order.
    pub threads: usize,
    /// Conservative lookahead L in ns: an event produced for *another* node
    /// at time t never takes effect before t + L. Derived from the minimum
    /// one-way network latency (the Table-1 Myrinet floor, ~20 µs one-way);
    /// ignored in serial mode.
    pub lookahead_ns: Time,
}

impl SimPar {
    /// Fully serialized execution (the default).
    pub fn serial() -> Self {
        SimPar {
            threads: 1,
            lookahead_ns: 0,
        }
    }

    /// Windowed execution with up to `threads` concurrent threads and the
    /// given lookahead. `threads <= 1` degrades to the serial engine.
    pub fn windowed(threads: usize, lookahead_ns: Time) -> Self {
        SimPar {
            threads: threads.max(1),
            lookahead_ns,
        }
    }

    /// Resolve the `DSM_SIM_PAR` environment knob into a thread count:
    /// unset or empty → 1 (serial); `auto` or `0` → one thread per available
    /// core; an integer N → N.
    pub fn threads_from_env() -> usize {
        match std::env::var("DSM_SIM_PAR") {
            Err(_) => 1,
            Ok(v) => {
                let v = v.trim();
                if v.is_empty() {
                    1
                } else if v.eq_ignore_ascii_case("auto") || v == "0" {
                    std::thread::available_parallelism().map_or(1, |p| p.get())
                } else {
                    v.parse().unwrap_or_else(|_| {
                        panic!("DSM_SIM_PAR must be a thread count, `auto`, or unset (got {v:?})")
                    })
                }
            }
        }
    }
}

/// Shared mutable state plugged into the engine: the protocol world.
///
/// The engine is generic over the world so that the protocol layer can define
/// its own message type and delivery semantics. `deliver` is invoked exactly
/// once per posted message, at the message's scheduled arrival time, with a
/// [`Sched`] handle for posting follow-up messages, waking blocked nodes, or
/// charging occupancy delays to busy nodes.
pub trait World: Send + 'static {
    /// Message type routed through the event queue.
    type Msg: Send + 'static;

    /// Handle a message arriving at node `to` at the current virtual time.
    fn deliver(&mut self, sched: &mut Sched<Self::Msg>, to: NodeId, msg: Self::Msg);

    /// Observe a node advancing its local clock over `[from, to)` (compute
    /// or local protocol work). Called from [`NodeCtx::advance`] before the
    /// segment is scheduled; occupancy charged into the segment later via
    /// [`Sched::delay`] is not included. Default: no-op.
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

/// What a [`NodeTask`] asks of the engine when it yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Compute for this many virtual nanoseconds, then resume (what
    /// [`NodeCtx::advance`] is to a threaded body). `Advance(0)` still
    /// yields: events tied at the current time may commit first.
    Advance(Time),
    /// Park until a message handler calls [`Sched::wake`] for this node
    /// ([`NodeCtx::block`]).
    Block,
    /// The node program has finished; the task is not resumed again.
    Done,
}

/// A node program in resumable form: the engine calls [`NodeTask::resume`]
/// each time the node's resume event commits, with the world and scheduler
/// borrowed for the duration of the call, and the task runs until its next
/// yield. Everything a task must remember across a yield lives in `self`.
pub trait NodeTask<W: World> {
    /// Run from the current virtual time ([`Sched::now`]) to the next yield.
    fn resume(&mut self, world: &mut W, sched: &mut Sched<W::Msg>) -> Step;
}

/// Why [`run_tasks`] did not run to completion.
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

enum EventKind<M> {
    /// Hand control back to a node. `gen` guards against stale entries left
    /// in the queue after the node's resume time was pushed back.
    Resume { node: NodeId, gen: u64 },
    /// Deliver a message to the world, addressed at a node.
    Msg { to: NodeId, msg: M },
}

/// A popped event and its time; `None` when the queue is empty.
type Popped<M> = Option<(Time, EventKind<M>)>;

struct NodeSlot {
    status: NodeStatus,
    /// Generation of the valid Resume event for this node.
    gen: u64,
    /// A wake that arrived before the node blocked (its completion message
    /// is "sitting in the receive queue"); consumed by the next block().
    pending_wake: Option<Time>,
}

/// Event queue plus node scheduling state. Exposed to message handlers and
/// node contexts as [`Sched`].
pub struct SchedInner<M> {
    now: Time,
    queue: SplitQueue<EventKind<M>>,
    nodes: Vec<NodeSlot>,
    done_count: usize,
    /// Events popped and processed (resumes, stale resumes, deliveries) —
    /// the simulator's native unit of work, deterministic per run.
    events: u64,
    /// Windowed mode only: the node at which the currently executing unit
    /// (message handler or node segment) runs. Pushes addressed at a
    /// *different* node are cross-node traffic and get staged until the next
    /// window edge; `None` (startup, between units) stages everything.
    /// Model-checked runs reuse it to assert handler footprints (a handler
    /// may only wake/delay its own delivery target).
    exec: Option<NodeId>,
    /// True when running under the windowed (PDES) committer.
    windowed: bool,
    /// Model-checked runs only: content hash for queued messages. Doubles as
    /// the "mc mode" flag on the scheduler side.
    mc_msg_hash: Option<McMsgHash<M>>,
    /// Model-checked runs only: XOR of [`SchedInner::mc_event_hash`] over
    /// every event currently in the queue — an incremental, order-independent
    /// fingerprint of the pending-event multiset.
    queue_hash: u64,
}

/// Handle given to [`World::deliver`] and [`NodeCtx::world`] closures for
/// interacting with the event queue.
pub type Sched<M> = SchedInner<M>;

impl<M> SchedInner<M> {
    /// Standalone scheduler for unit-testing message handlers outside the
    /// engine: events accumulate in the heap and can be drained with
    /// [`SchedInner::take_events`]; nodes start `Ready` so wakes on them
    /// are recorded as pending.
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
        while let Some((at, _, kind)) = self.queue.pop() {
            match kind {
                EventKind::Msg { to, msg } => out.push((at, to, Some(msg))),
                EventKind::Resume { node, .. } => out.push((at, node, None)),
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
        SchedInner {
            now: 0,
            queue: SplitQueue::new(n),
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
            windowed: false,
            mc_msg_hash: None,
            queue_hash: 0,
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

    /// Total events processed so far (deterministic for a given program).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Seq-independent fingerprint of one queued event (model-checked runs):
    /// replays push the same events in potentially different seq order, so
    /// the multiset hash must not depend on insertion order.
    fn mc_event_hash(&self, at: Time, kind: &EventKind<M>) -> u64 {
        match kind {
            EventKind::Resume { node, gen } => fold64(fold64(fold64(1, *node as u64), *gen), at),
            EventKind::Msg { to, msg } => {
                let h = (self.mc_msg_hash.as_ref().expect("mc msg hasher"))(*to, msg);
                fold64(fold64(fold64(2, *to as u64), h), at)
            }
        }
    }

    fn push(&mut self, at: Time, kind: EventKind<M>) {
        if self.mc_msg_hash.is_some() {
            let h = self.mc_event_hash(at, &kind);
            self.queue_hash ^= h;
        }
        let target = match &kind {
            EventKind::Msg { to, .. } => *to,
            EventKind::Resume { node, .. } => *node,
        };
        // In windowed mode, events addressed at a node other than the one
        // currently executing are cross-node traffic: the lookahead bound
        // guarantees they land at or past the window edge, so they are
        // staged and merged at the edge. Self-posts (deferred services,
        // retransmission timers, wakes) can land inside the window and go
        // straight into the target's wheel.
        let cross = self.windowed && self.exec != Some(target);
        self.queue.push(target, at, kind, cross);
    }

    /// Pop the next event, counting it as processed simulator work.
    fn next_event(&mut self) -> Popped<M> {
        let ev = self.queue.pop().map(|(at, _, kind)| (at, kind));
        if ev.is_some() {
            self.events += 1;
        }
        ev
    }

    /// Start-up: every node is Ready at t=0, and node 0's Resume is pushed
    /// first so it runs first (deterministic start-up order by node id). In
    /// model-checked runs the message hasher must already be installed, so
    /// the initial n-way resume tie is fingerprinted too.
    fn start(&mut self) {
        for node in 0..self.nodes.len() {
            self.nodes[node].status = NodeStatus::Ready { at: 0 };
            self.nodes[node].gen = 1;
            self.push(0, EventKind::Resume { node, gen: 1 });
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
    /// ([`NodeCtx::advance`], [`Step::Advance`]).
    fn yield_advance<W: World<Msg = M>>(&mut self, world: &mut W, node: NodeId, dt: Time) {
        let at = self.now + dt;
        if dt > 0 {
            world.on_advance(node, self.now, at);
        }
        debug_assert_eq!(self.nodes[node].status, NodeStatus::Running);
        self.schedule_resume(node, at);
    }

    /// The running node yields until woken ([`NodeCtx::block`],
    /// [`Step::Block`]); a wake that already arrived releases it at once.
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
        self.push(at, EventKind::Resume { node, gen });
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
        let at = at.max(self.now);
        self.push(at, EventKind::Msg { to, msg });
    }

    /// Wake a blocked node so that it resumes at time `at`.
    ///
    /// Panics if the node is not blocked: waking a computing or finished node
    /// indicates a protocol bug.
    pub fn wake(&mut self, node: NodeId, at: Time) {
        // Model-checked runs assert the footprint the DPOR layer relies on:
        // a message handler only ever wakes its own delivery target.
        debug_assert!(
            self.mc_msg_hash.is_none() || self.exec.is_none() || self.exec == Some(node),
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
            self.mc_msg_hash.is_none() || self.exec.is_none() || self.exec == Some(node),
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

/// What a node thread is doing, from the committer's point of view
/// (windowed mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TMode {
    /// Not yet started (waiting for its first resume).
    Fresh,
    /// Parked between segments, waiting for a grant.
    Parked,
    /// Running leading compute speculatively ahead of its committed resume;
    /// it will synchronize at its next world interaction.
    Spec,
    /// Holds the turn: its segment is the one being committed, and it has
    /// exclusive access to the world until the segment ends.
    Turn,
}

/// Committer-side scheduling state for windowed execution.
struct ParDriver {
    tmode: Vec<TMode>,
    /// Node threads currently running speculatively.
    spec_active: usize,
    /// Cap on concurrent speculative threads (`threads - 1`).
    spec_slots: usize,
    /// Set by a node when the committed segment ends (advance/block/finish);
    /// the committer waits on `commit_cv` for it.
    seg_done: bool,
}

struct SimState<W: World> {
    sched: SchedInner<W::Msg>,
    /// Taken out while a handler runs so `deliver` can borrow world and
    /// scheduler simultaneously.
    world: Option<W>,
    /// Set if a node thread panicked; everyone else bails out.
    poisoned: bool,
    /// Windowed-mode driver state (unused in serial mode).
    par: ParDriver,
}

struct Shared<W: World> {
    state: Mutex<SimState<W>>,
    /// One condvar per node for hand-off, plus one for run completion.
    node_cvs: Vec<Condvar>,
    done_cv: Condvar,
    /// Windowed mode: the committer waits here for segment completion.
    commit_cv: Condvar,
}

/// A node's program: one closure per simulated node.
pub type NodeBody<W> = Box<dyn FnOnce(&mut NodeCtx<W>) + Send>;

/// Per-node handle passed to each node body closure.
///
/// All methods lock the engine internally; node bodies hold no lock between
/// DSM operations.
pub struct NodeCtx<W: World> {
    shared: Arc<Shared<W>>,
    node: NodeId,
    /// True when running under the windowed committer.
    par: bool,
    /// True while this thread runs speculative leading compute: it must
    /// synchronize with its committed resume before touching the world.
    /// (A `Cell` because it changes under methods that return borrows of
    /// `shared`; the context is only ever used by its own thread.)
    spec: std::cell::Cell<bool>,
}

impl<W: World> NodeCtx<W> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.shared.node_cvs.len()
    }

    /// Current virtual time.
    ///
    /// Under windowed execution this synchronizes a speculative thread with
    /// its committed resume first, so the observed time is exactly the one
    /// serial execution would see.
    pub fn now(&self) -> Time {
        self.lock_synced().sched.now
    }

    fn lock(&self) -> MutexGuard<'_, SimState<W>> {
        match self.shared.state.lock() {
            Ok(g) => {
                if g.poisoned {
                    panic!("simulation aborted: another node panicked");
                }
                g
            }
            Err(_) => panic!("simulation poisoned by a panicking node"),
        }
    }

    /// Lock the engine, first waiting out any speculation: if this thread
    /// ran ahead of its committed resume, park until the committer grants
    /// the turn. On return the node holds the turn (windowed mode) and the
    /// world is at exactly the state serial execution would present.
    fn lock_synced(&self) -> MutexGuard<'_, SimState<W>> {
        let mut g = self.lock();
        if self.spec.get() {
            g.par.spec_active -= 1;
            self.spec.set(false);
            while g.par.tmode[self.node] != TMode::Turn {
                g = self.shared.node_cvs[self.node]
                    .wait(g)
                    .unwrap_or_else(|_| panic!("simulation poisoned"));
                if g.poisoned {
                    panic!("simulation aborted: another node panicked");
                }
            }
        } else if self.par {
            debug_assert_eq!(g.par.tmode[self.node], TMode::Turn);
        }
        g
    }

    /// End the committed segment (windowed mode): release the turn, signal
    /// the committer, and either continue speculatively (when allowed and a
    /// slot is free) or park until the next grant.
    fn end_segment(&self, mut g: MutexGuard<'_, SimState<W>>, can_spec: bool) {
        let me = self.node;
        debug_assert_eq!(g.par.tmode[me], TMode::Turn);
        g.par.tmode[me] = TMode::Parked;
        g.par.seg_done = true;
        g.sched.exec = None;
        self.shared.commit_cv.notify_all();
        if can_spec && g.par.spec_active < g.par.spec_slots {
            // Keep computing past the yield point: leading compute up to
            // the next world interaction is thread-local, so running it
            // early cannot change any observable outcome.
            g.par.spec_active += 1;
            g.par.tmode[me] = TMode::Spec;
            self.spec.set(true);
            return;
        }
        loop {
            g = self.shared.node_cvs[me]
                .wait(g)
                .unwrap_or_else(|_| panic!("simulation poisoned"));
            if g.poisoned {
                panic!("simulation aborted: another node panicked");
            }
            match g.par.tmode[me] {
                TMode::Turn => return,
                TMode::Spec => {
                    self.spec.set(true);
                    return;
                }
                _ => {}
            }
        }
    }

    /// Advance this node's virtual clock by `dt` nanoseconds of computation.
    ///
    /// Events that fall inside the interval are processed; message handlers
    /// may charge extra occupancy to this node via [`Sched::delay`], pushing
    /// the effective resume time further out.
    pub fn advance(&mut self, dt: Time) {
        let mut g = self.lock_synced();
        let st = &mut *g;
        let world = st.world.as_mut().expect("world re-entrancy");
        st.sched.yield_advance(world, self.node, dt);
        if self.par {
            // The compute up to the next world interaction is speculation-
            // safe: continue if a slot is free, else park for a grant.
            self.end_segment(g, true);
        } else {
            drive_serial(&self.shared, g, Some(self.node));
        }
    }

    /// Park this node until a message handler calls [`Sched::wake`] for it.
    pub fn block(&mut self) {
        let mut g = self.lock_synced();
        g.sched.yield_block(self.node);
        if self.par {
            // No speculation past a block: until the wake commits there is
            // nothing useful to run ahead (the continuation immediately
            // reads the clock), and the committer's pre-dispatch will wake
            // us early once our resume is in the window.
            self.end_segment(g, false);
        } else {
            drive_serial(&self.shared, g, Some(self.node));
        }
    }

    /// Run `f` with exclusive access to the world and the scheduler.
    ///
    /// This is how node-side protocol code mutates shared protocol state and
    /// posts messages. The closure runs at the node's current virtual time.
    pub fn world<R>(&mut self, f: impl FnOnce(&mut W, &mut Sched<W::Msg>) -> R) -> R {
        let mut g = self.lock_synced();
        let mut world = g.world.take().expect("world re-entrancy");
        let r = f(&mut world, &mut g.sched);
        g.world = Some(world);
        r
    }

    /// Mark this node finished and keep the event loop alive for others
    /// (serial mode).
    fn finish(&self) {
        let mut g = self.lock();
        g.sched.yield_done(self.node);
        if g.sched.done_count == g.sched.nodes.len() {
            // Drain in-flight messages so their effects (stats, traffic) are
            // accounted for even when every node body has returned.
            let st = &mut *g;
            let world = st.world.as_mut().expect("world re-entrancy");
            while let Some((at, kind)) = st.sched.next_event() {
                if let EventKind::Msg { to, msg } = kind {
                    st.sched.deliver(world, at, to, msg);
                }
            }
            self.shared.done_cv.notify_all();
            return;
        }
        // Drive until control is handed to another node (or everything is
        // drained because the remaining nodes are all done).
        drive_serial(&self.shared, g, None);
    }

    /// Mark this node finished (windowed mode): the final segment ends here;
    /// the committer keeps the event loop alive.
    fn finish_par(&self) {
        let mut g = self.lock_synced();
        g.sched.yield_done(self.node);
        debug_assert_eq!(g.par.tmode[self.node], TMode::Turn);
        g.par.tmode[self.node] = TMode::Parked;
        g.par.seg_done = true;
        g.sched.exec = None;
        self.shared.commit_cv.notify_all();
    }
}

/// Pop the next event of a model-checked run, routing the choice through
/// the hook: gather every event tied at the head virtual time, drop stale
/// resumes (they are not real choices — the plain pop skips them
/// identically), and let the hook pick which one commits. Unchosen events
/// are restored with their original `(time, seq)` keys, so the order among
/// them is untouched. `Ok(None)` means the queue is empty.
fn mc_next_event<W: World>(
    sched: &mut SchedInner<W::Msg>,
    world: &W,
    hook: &mut dyn McHook<W>,
) -> Result<Popped<W::Msg>, RunError> {
    loop {
        let Some((head, _)) = sched.queue.next_key() else {
            return Ok(None);
        };
        let mut tied: Vec<(Time, u64, NodeId, EventKind<W::Msg>)> = Vec::new();
        while sched.queue.next_key().is_some_and(|(t, _)| t == head) {
            let (at, key, node, kind) = sched.queue.pop_keyed().expect("head implies an event");
            if let EventKind::Resume { node: rn, gen } = &kind {
                if sched.nodes[*rn].gen != *gen {
                    // Superseded by a later delay/wake: skip it, counting it
                    // exactly as the plain loop would.
                    sched.events += 1;
                    let h = sched.mc_event_hash(at, &kind);
                    sched.queue_hash ^= h;
                    continue;
                }
            }
            tied.push((at, key, node, kind));
        }
        if tied.is_empty() {
            continue; // the whole tie was stale; move to the next head time
        }
        // Scheduler-visible fingerprint: head time, node slots, and the
        // pending-event multiset (the tied events above are still counted
        // in `queue_hash` — they are logically queued until one commits).
        let mut eh = fold64(0, head);
        for s in &sched.nodes {
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
        eh = fold64(eh, sched.queue_hash);
        let choices: Vec<McChoice<'_, W::Msg>> = tied
            .iter()
            .map(|&(_, key, _, ref kind)| McChoice {
                key,
                event: match kind {
                    EventKind::Resume { node, .. } => McEvent::Resume { node: *node },
                    EventKind::Msg { to, msg } => McEvent::Msg { to: *to, msg },
                },
            })
            .collect();
        let pick = hook.choose(world, eh, head, &choices);
        drop(choices);
        let Some(pick) = pick else {
            return Err(RunError::Pruned);
        };
        assert!(pick < tied.len(), "mc hook chose {pick} of {}", tied.len());
        let mut chosen = None;
        for (i, (at, key, node, kind)) in tied.into_iter().enumerate() {
            if i == pick {
                chosen = Some((at, kind));
            } else {
                sched.queue.unpop(node, at, key, kind);
            }
        }
        let (at, kind) = chosen.expect("pick is in range");
        let h = sched.mc_event_hash(at, &kind);
        sched.queue_hash ^= h;
        sched.events += 1;
        return Ok(Some((at, kind)));
    }
}

/// Run node programs as resumable tasks on one event loop, on the caller's
/// thread, and return the final world, the final virtual time and the
/// number of events processed — or why the run stopped short.
///
/// The loop is the serial engine's, minus the threads: events commit in
/// `(time, seq)` order; a message is delivered to the world; a valid resume
/// runs `tasks[node]` to its next yield and the [`Step`] it returns is
/// applied exactly as [`NodeCtx::advance`], [`NodeCtx::block`] and a
/// returning node body are; after the last `Done` the queue is drained so
/// in-flight messages still take effect. The same program therefore
/// produces the same world, time and event count on either substrate.
///
/// With `mc` installed every commit point — the post-`Done` drain
/// included — is the hook's choice ([`McHook::choose`]).
pub fn run_tasks<'t, W: World>(
    mut world: W,
    mut tasks: Vec<Box<dyn NodeTask<W> + 't>>,
    mc: Option<McInstall<W>>,
) -> Result<(W, Time, u64), RunError> {
    let n = tasks.len();
    assert!(n > 0, "cluster needs at least one node");
    let mut sched = SchedInner::new(n);
    let mut hook = mc.map(|m| {
        sched.mc_msg_hash = Some(m.msg_hash);
        m.hook
    });
    sched.start();
    loop {
        let next = match hook.as_deref_mut() {
            Some(h) => mc_next_event(&mut sched, &world, h)?,
            None => sched.next_event(),
        };
        let Some((at, kind)) = next else {
            break;
        };
        debug_assert!(at >= sched.now);
        match kind {
            EventKind::Msg { to, msg } => {
                // Model-checked runs assert handler footprints in
                // wake/delay: a handler touches only its delivery target.
                sched.exec = hook.is_some().then_some(to);
                sched.deliver(&mut world, at, to, msg);
                sched.exec = None;
            }
            EventKind::Resume { node, gen } => {
                if !sched.begin_resume(node, gen, at) {
                    continue; // superseded by a later delay/wake
                }
                match tasks[node].resume(&mut world, &mut sched) {
                    Step::Advance(dt) => sched.yield_advance(&mut world, node, dt),
                    Step::Block => sched.yield_block(node),
                    Step::Done => sched.yield_done(node),
                }
            }
        }
    }
    if sched.done_count < n {
        return Err(sched.deadlock());
    }
    Ok((world, sched.now, sched.events))
}

/// Serial event loop: pop and execute events in global `(time, seq)` order
/// until `me`'s own resume commits (`Some`), or until control is handed to
/// another node's thread (`None` — the startup kick-off and finishing nodes
/// hand off and return).
fn drive_serial<W: World>(
    shared: &Shared<W>,
    mut g: MutexGuard<'_, SimState<W>>,
    me: Option<NodeId>,
) {
    loop {
        let Some((at, kind)) = g.sched.next_event() else {
            // Nothing left to do. A driving node is itself blocked or
            // ready, so an empty queue is a deadlock; a finishing node
            // (`me == None`) returns cleanly when every other node is
            // done too.
            let any_blocked = g
                .sched
                .nodes
                .iter()
                .any(|s| s.status == NodeStatus::Blocked);
            if me.is_none() && !any_blocked {
                return;
            }
            let deadlock = g.sched.deadlock();
            g.poisoned = true;
            for cv in &shared.node_cvs {
                cv.notify_all();
            }
            shared.done_cv.notify_all();
            panic!("{deadlock}");
        };
        debug_assert!(at >= g.sched.now);
        match kind {
            EventKind::Msg { to, msg } => {
                let st = &mut *g;
                let world = st.world.as_mut().expect("world re-entrancy");
                st.sched.deliver(world, at, to, msg);
            }
            EventKind::Resume { node, gen } => {
                if !g.sched.begin_resume(node, gen, at) {
                    continue; // superseded by a later delay/wake
                }
                if me == Some(node) {
                    return;
                }
                // Hand off to the resumed node's thread.
                shared.node_cvs[node].notify_one();
                let Some(me) = me else {
                    return;
                };
                // Park until a future driver resumes us.
                loop {
                    g = shared.node_cvs[me]
                        .wait(g)
                        .unwrap_or_else(|_| panic!("simulation poisoned"));
                    if g.poisoned {
                        panic!("simulation aborted: another node panicked");
                    }
                    if g.sched.nodes[me].status == NodeStatus::Running {
                        return;
                    }
                }
            }
        }
    }
}

/// The windowed-mode committer loop: runs on the caller's thread, executing
/// every event in exact global `(time, seq)` order. Message handlers run
/// inline; node segments are granted to their threads one at a time (the
/// "turn"), so every world phase happens in exactly the serial order —
/// results are bit-identical to serial execution by construction. Ahead of
/// the commit point, parked nodes whose resume falls inside the lookahead
/// window are woken to run leading compute speculatively.
fn drive_windowed<W: World>(shared: &Arc<Shared<W>>, n: usize, lookahead: Time) {
    let lookahead = lookahead.max(1);
    let mut g = match shared.state.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    loop {
        if g.poisoned {
            panic!("simulation aborted: a node panicked");
        }
        // Window maintenance: once the head reaches the window edge, merge
        // staged cross-node events back (in (time, seq) order) and open the
        // next window.
        let Some((t, _)) = g.sched.queue.next_key() else {
            if g.sched.done_count == n {
                return;
            }
            let deadlock = g.sched.deadlock();
            g.poisoned = true;
            for cv in &shared.node_cvs {
                cv.notify_all();
            }
            shared.done_cv.notify_all();
            panic!("{deadlock}");
        };
        if t >= g.sched.queue.window_end() {
            g.sched.queue.advance_window(t + lookahead);
        }
        predispatch(shared, &mut g);
        let (at, kind) = g.sched.next_event().expect("head key implies an event");
        debug_assert!(at >= g.sched.now);
        match kind {
            EventKind::Msg { to, msg } => {
                let st = &mut *g;
                let world = st.world.as_mut().expect("world re-entrancy");
                st.sched.exec = Some(to);
                st.sched.deliver(world, at, to, msg);
                st.sched.exec = None;
            }
            EventKind::Resume { node, gen } => {
                if !g.sched.begin_resume(node, gen, at) {
                    continue; // superseded by a later delay/wake
                }
                g.sched.exec = Some(node);
                // Grant the turn. If the thread is parked it wakes here; if
                // it is running speculatively it picks the turn up at its
                // next world interaction; if it is fresh it starts its body.
                g.par.seg_done = false;
                g.par.tmode[node] = TMode::Turn;
                shared.node_cvs[node].notify_one();
                while !g.par.seg_done {
                    g = shared
                        .commit_cv
                        .wait(g)
                        .unwrap_or_else(|_| panic!("simulation poisoned"));
                    if g.poisoned {
                        panic!("simulation aborted: a node panicked");
                    }
                }
            }
        }
    }
}

/// Wake parked nodes whose next event is their own (valid) resume inside
/// the open window: their leading compute is independent of anything still
/// to commit before it, so they can run speculatively now.
fn predispatch<W: World>(shared: &Arc<Shared<W>>, g: &mut SimState<W>) {
    if g.par.spec_active >= g.par.spec_slots {
        return;
    }
    let end = g.sched.queue.window_end();
    for node in 0..g.sched.nodes.len() {
        if g.par.spec_active >= g.par.spec_slots {
            return;
        }
        if g.par.tmode[node] != TMode::Parked {
            continue;
        }
        if !matches!(g.sched.nodes[node].status, NodeStatus::Ready { .. }) {
            continue;
        }
        let slot_gen = g.sched.nodes[node].gen;
        let Some((t, _, kind)) = g.sched.queue.peek_node(node) else {
            continue;
        };
        if t >= end {
            continue;
        }
        let EventKind::Resume { gen, .. } = kind else {
            continue;
        };
        if *gen != slot_gen {
            continue;
        }
        g.par.spec_active += 1;
        g.par.tmode[node] = TMode::Spec;
        shared.node_cvs[node].notify_one();
    }
}

/// Run a simulated cluster to completion and return the final world.
///
/// `bodies` supplies one closure per node; all nodes start at virtual time 0.
/// Returns the world and the final virtual time (the maximum over all node
/// completion times and message deliveries).
pub fn run_cluster<W: World>(world: W, bodies: Vec<NodeBody<W>>) -> (W, Time) {
    let (w, t, _) = run_cluster_with(world, bodies, SimPar::serial());
    (w, t)
}

/// [`run_cluster`] plus the number of simulator events processed — the
/// denominator of the events/sec throughput metric.
pub fn run_cluster_counted<W: World>(world: W, bodies: Vec<NodeBody<W>>) -> (W, Time, u64) {
    run_cluster_with(world, bodies, SimPar::serial())
}

/// [`run_cluster_counted`] with an explicit execution mode: the shared entry
/// point behind every counted/uncounted variant. `par.threads <= 1` runs the
/// classic fully-serialized engine; anything larger runs the windowed
/// committer, which produces bit-identical results (see [`SimPar`]).
pub fn run_cluster_with<W: World>(
    world: W,
    bodies: Vec<NodeBody<W>>,
    par: SimPar,
) -> (W, Time, u64) {
    let n = bodies.len();
    assert!(n > 0, "cluster needs at least one node");
    let threads = par.threads.max(1);
    let windowed = threads > 1;
    let mut sched = SchedInner::new(n);
    sched.windowed = windowed;
    sched.start();
    let shared = Arc::new(Shared::<W> {
        state: Mutex::new(SimState {
            sched,
            world: Some(world),
            poisoned: false,
            par: ParDriver {
                tmode: vec![TMode::Fresh; n],
                spec_active: 0,
                spec_slots: threads - 1,
                seg_done: true,
            },
        }),
        node_cvs: (0..n).map(|_| Condvar::new()).collect(),
        done_cv: Condvar::new(),
        commit_cv: Condvar::new(),
    });

    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(node, body)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dsm-node-{node}"))
                .spawn(move || {
                    let mut ctx = NodeCtx {
                        shared,
                        node,
                        par: windowed,
                        spec: std::cell::Cell::new(false),
                    };
                    // Wait for our first Resume.
                    {
                        let mut g = ctx.lock();
                        while g.sched.nodes[node].status != NodeStatus::Running {
                            if g.poisoned {
                                panic!("simulation aborted before start");
                            }
                            g = ctx.shared.node_cvs[node]
                                .wait(g)
                                .unwrap_or_else(|_| panic!("simulation poisoned"));
                        }
                    }
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                    match result {
                        Ok(()) => {
                            if ctx.par {
                                ctx.finish_par()
                            } else {
                                ctx.finish()
                            }
                        }
                        Err(e) => {
                            // Poison the simulation so every parked thread
                            // and the main thread bail out promptly. The
                            // mutex itself may already be poisoned if the
                            // panic happened under the lock.
                            match ctx.shared.state.lock() {
                                Ok(mut g) => g.poisoned = true,
                                Err(e) => e.into_inner().poisoned = true,
                            }
                            for cv in &ctx.shared.node_cvs {
                                cv.notify_all();
                            }
                            ctx.shared.done_cv.notify_all();
                            ctx.shared.commit_cv.notify_all();
                            std::panic::resume_unwind(e);
                        }
                    }
                })
                .expect("spawn node thread")
        })
        .collect();

    if windowed {
        // The caller's thread is the committer: it executes every event in
        // global order and grants node segments one turn at a time.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive_windowed(&shared, n, par.lookahead_ns)
        }));
        if let Err(e) = r {
            match shared.state.lock() {
                Ok(mut g) => g.poisoned = true,
                Err(p) => p.into_inner().poisoned = true,
            }
            for cv in &shared.node_cvs {
                cv.notify_all();
            }
            shared.done_cv.notify_all();
            shared.commit_cv.notify_all();
            for h in handles {
                let _ = h.join();
            }
            std::panic::resume_unwind(e);
        }
    } else {
        // Kick off node 0: it is Ready at t=0 at the head of the queue, but
        // no thread is driving yet. Drive until the first hand-off, then
        // wait for completion.
        let mut g = match shared.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        drive_serial(&shared, g, None);
        g = match shared.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        loop {
            if g.sched.done_count == n || g.poisoned {
                break;
            }
            g = match shared.done_cv.wait(g) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
        }
        drop(g);
    }

    // Re-raise the root-cause panic, not one of the cascade panics other
    // threads raise when they notice the poisoned state.
    fn is_cascade(e: &(dyn std::any::Any + Send)) -> bool {
        let msg = e
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| e.downcast_ref::<String>().map(|s| s.as_str()));
        msg.is_some_and(|m| {
            m.starts_with("simulation aborted") || m.starts_with("simulation poisoned")
        })
    }
    let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
    for h in handles {
        if let Err(e) = h.join() {
            let keep = match &panicked {
                None => true,
                Some(p) => is_cascade(p.as_ref()) && !is_cascade(e.as_ref()),
            };
            if keep {
                panicked = Some(e);
            }
        }
    }
    if let Some(e) = panicked {
        std::panic::resume_unwind(e);
    }

    let mut g = match shared.state.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    let t = g.sched.now;
    let events = g.sched.events;
    (g.world.take().expect("world"), t, events)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn advances_virtual_time_per_node() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (_, t) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(100);
                    assert_eq!(ctx.now(), 100);
                    ctx.advance(50);
                    assert_eq!(ctx.now(), 150);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(500);
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
        let (w, _) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.world(|_, s| s.post(1, 250, 7));
                    ctx.advance(10);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.block(); // until msg 7 arrives at t=250
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
        let (w, t) = run_cluster(
            ChainWorld { log: vec![] },
            vec![Box::new(|ctx: &mut NodeCtx<ChainWorld>| {
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
        let (_, t) = run_cluster(
            DelayWorld,
            vec![
                Box::new(|ctx: &mut NodeCtx<DelayWorld>| {
                    ctx.world(|_, s| s.post(1, 50, ()));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<DelayWorld>| {
                    // Computing until 200; the message at t=50 charges 100ns
                    // beyond our scheduled resume, so we resume at 300.
                    ctx.advance(200);
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
            type TestBody = Box<dyn FnOnce(&mut NodeCtx<TestWorld>) + Send>;
            let bodies: Vec<TestBody> = (0..4)
                .map(|i| {
                    Box::new(move |ctx: &mut NodeCtx<TestWorld>| {
                        for k in 0..10u32 {
                            let target = ((i + 1) % 4) as NodeId;
                            ctx.world(|_, s| {
                                let at = s.now() + 37;
                                s.post(target, at, k * 10 + i as u32)
                            });
                            ctx.advance(13 + i as u64);
                        }
                    }) as TestBody
                })
                .collect();
            run_cluster(world, bodies).0.log
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
        run_cluster(
            world,
            vec![Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.block();
            })],
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
        let (_, t) = run_cluster(
            WakeEarly,
            vec![
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    ctx.world(|_, s| s.post(1, 10, ()));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    // Compute past the wake at t=15, then block: the stored
                    // wake releases us instantly instead of deadlocking.
                    ctx.advance(100);
                    ctx.block();
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
        let (_, t) = run_cluster(
            DelayBlocked,
            vec![
                Box::new(|ctx: &mut NodeCtx<DelayBlocked>| {
                    ctx.world(|_, s| s.post(1, 50, 0));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<DelayBlocked>| {
                    ctx.block();
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
        let (w, _) = run_cluster(
            PastPost { got: vec![] },
            vec![Box::new(|ctx: &mut NodeCtx<PastPost>| {
                ctx.world(|_, s| s.post(0, 500, true));
                ctx.advance(1_000);
            })],
        );
        assert_eq!(w.got, vec![500]);
    }

    /// Windowed runs of the cross-posting workload must reproduce the
    /// serial event log, final time, and event count bit-for-bit, for any
    /// thread count (including more threads than nodes).
    #[test]
    fn windowed_matches_serial() {
        fn run_once(par: SimPar) -> (Vec<(Time, NodeId, u32)>, Time, u64) {
            let world = TestWorld {
                log: vec![],
                wake_on: vec![None; 4],
            };
            type TestBody = Box<dyn FnOnce(&mut NodeCtx<TestWorld>) + Send>;
            let bodies: Vec<TestBody> = (0..4)
                .map(|i| {
                    Box::new(move |ctx: &mut NodeCtx<TestWorld>| {
                        for k in 0..10u32 {
                            let target = ((i + 1) % 4) as NodeId;
                            ctx.world(|_, s| {
                                let at = s.now() + 37;
                                s.post(target, at, k * 10 + i as u32)
                            });
                            ctx.advance(13 + i as u64);
                        }
                    }) as TestBody
                })
                .collect();
            let (w, t, ev) = run_cluster_with(world, bodies, par);
            (w.log, t, ev)
        }
        // Cross-node posts land 37ns out: any lookahead <= 37 is valid.
        let serial = run_once(SimPar::serial());
        for threads in [2, 3, 8] {
            assert_eq!(run_once(SimPar::windowed(threads, 37)), serial);
        }
    }

    #[test]
    fn windowed_block_and_wake() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, Some(7)],
        };
        let (w, t, _) = run_cluster_with(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.world(|_, s| s.post(1, 250, 7));
                    ctx.advance(10);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.block(); // until msg 7 arrives at t=250
                    assert_eq!(ctx.now(), 250);
                }),
            ],
            SimPar::windowed(2, 100),
        );
        assert_eq!(w.log, vec![(250, 1, 7)]);
        assert_eq!(t, 250);
    }

    #[test]
    fn windowed_post_done_drain_follows_event_chains() {
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
        let (w, t, _) = run_cluster_with(
            ChainWorld { log: vec![] },
            vec![Box::new(|ctx: &mut NodeCtx<ChainWorld>| {
                ctx.world(|_, s| s.post(0, 1_000, 0));
            })],
            SimPar::windowed(4, 50),
        );
        assert_eq!(w.log, vec![(1_000, 0), (1_100, 1), (1_200, 2), (1_300, 3)]);
        assert_eq!(t, 1_300);
    }

    #[test]
    fn windowed_pending_wake_is_consumed_by_next_block() {
        struct WakeEarly;
        impl World for WakeEarly {
            type Msg = ();
            fn deliver(&mut self, sched: &mut Sched<()>, to: NodeId, _msg: ()) {
                let now = sched.now();
                sched.wake(to, now + 5);
            }
        }
        let (_, t, _) = run_cluster_with(
            WakeEarly,
            vec![
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    ctx.world(|_, s| s.post(1, 10, ()));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    ctx.advance(100);
                    ctx.block();
                    assert_eq!(ctx.now(), 100);
                }),
            ],
            SimPar::windowed(2, 5),
        );
        assert_eq!(t, 100);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn windowed_blocked_forever_panics() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        run_cluster_with(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.block();
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(10);
                }),
            ],
            SimPar::windowed(2, 20),
        );
    }

    #[test]
    fn ties_break_by_post_order() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (w, _) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.world(|_, s| {
                        s.post(1, 100, 1);
                        s.post(1, 100, 2);
                        s.post(1, 100, 3);
                    });
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(200);
                }),
            ],
        );
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    /// Test hook: delegates every choice to a closure over
    /// `(number of choices, engine hash)`.
    struct PickHook<F: FnMut(usize, u64) -> Option<usize> + Send>(F);
    impl<W: World, F: FnMut(usize, u64) -> Option<usize> + Send> McHook<W> for PickHook<F> {
        fn choose(
            &mut self,
            _world: &W,
            engine_hash: u64,
            _at: Time,
            choices: &[McChoice<'_, W::Msg>],
        ) -> Option<usize> {
            (self.0)(choices.len(), engine_hash)
        }
    }

    fn tie_bodies() -> Vec<NodeBody<TestWorld>> {
        vec![
            Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.world(|_, s| {
                    s.post(1, 100, 1);
                    s.post(1, 100, 2);
                    s.post(1, 100, 3);
                });
                ctx.advance(1);
            }),
            Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.advance(200);
            }),
        ]
    }

    /// A task that replays a fixed list of steps, running `first` against
    /// the scheduler on its first resume: [`tie_bodies`] in resumable form.
    struct Script {
        first: Option<fn(&mut Sched<u32>)>,
        steps: std::vec::IntoIter<Step>,
    }
    impl NodeTask<TestWorld> for Script {
        fn resume(&mut self, _world: &mut TestWorld, sched: &mut Sched<u32>) -> Step {
            if let Some(f) = self.first.take() {
                f(sched);
            }
            self.steps.next().unwrap_or(Step::Done)
        }
    }

    fn script(
        first: Option<fn(&mut Sched<u32>)>,
        steps: Vec<Step>,
    ) -> Box<dyn NodeTask<TestWorld>> {
        Box::new(Script {
            first,
            steps: steps.into_iter(),
        })
    }

    fn tie_tasks() -> Vec<Box<dyn NodeTask<TestWorld>>> {
        vec![
            script(
                Some(|s| {
                    s.post(1, 100, 1);
                    s.post(1, 100, 2);
                    s.post(1, 100, 3);
                }),
                vec![Step::Advance(1)],
            ),
            script(None, vec![Step::Advance(200)]),
        ]
    }

    fn tie_world() -> TestWorld {
        TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        }
    }

    #[test]
    fn tasks_match_threads_without_a_hook() {
        let (tw, tt, te) = run_cluster_counted(tie_world(), tie_bodies());
        let (kw, kt, ke) = run_tasks(tie_world(), tie_tasks(), None).expect("runs to completion");
        assert_eq!(kw.log, tw.log);
        assert_eq!((kt, ke), (tt, te), "same final time and event count");
    }

    #[test]
    fn tasks_block_wake_and_consume_pending_wakes() {
        // Node 1 blocks until message 7 arrives at t=250, computes past a
        // second wake (message 7 again at t=300, stored as pending), and
        // its next block returns at once.
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, Some(7)],
        };
        struct Waiter(u32, Vec<Time>);
        impl NodeTask<TestWorld> for Waiter {
            fn resume(&mut self, _w: &mut TestWorld, s: &mut Sched<u32>) -> Step {
                self.1.push(s.now());
                self.0 += 1;
                match self.0 {
                    1 => Step::Block,
                    2 => {
                        assert!(!s.is_blocked(1));
                        s.wake(1, 300); // arrives while computing: pending
                        Step::Advance(100)
                    }
                    3 => Step::Block,
                    _ => {
                        assert_eq!(self.1, [0, 250, 350, 350]);
                        Step::Done
                    }
                }
            }
        }
        let tasks: Vec<Box<dyn NodeTask<TestWorld>>> = vec![
            script(Some(|s| s.post(1, 250, 7)), vec![Step::Advance(10)]),
            Box::new(Waiter(0, Vec::new())),
        ];
        let (w, t, _) = run_tasks(world, tasks, None).expect("runs to completion");
        assert_eq!(w.log, vec![(250, 1, 7)]);
        assert_eq!(t, 350);
    }

    #[test]
    fn tasks_deadlock_is_a_value() {
        let tasks = vec![
            script(None, vec![Step::Block]),
            script(None, vec![Step::Advance(10)]),
        ];
        let err = run_tasks(tie_world(), tasks, None)
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
        let (w, _, _) = run_tasks(
            tie_world(),
            tie_tasks(),
            Some(McInstall {
                hook: Box::new(PickHook(|n: usize, _| Some(n - 1))),
                msg_hash: Box::new(|_, m: &u32| u64::from(*m)),
            }),
        )
        .expect("runs to completion");
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![3, 2, 1], "picking last reverses the tie");
    }

    #[test]
    fn mc_first_choice_matches_serial_and_hashes_replay() {
        fn mc_run() -> (Vec<(Time, NodeId, u32)>, Vec<u64>, u64) {
            let hashes = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&hashes);
            let (w, _, ev) = run_tasks(
                tie_world(),
                tie_tasks(),
                Some(McInstall {
                    hook: Box::new(PickHook(move |_, eh| {
                        sink.lock().unwrap().push(eh);
                        Some(0)
                    })),
                    msg_hash: Box::new(|to, m: &u32| fold64(u64::from(*m), to as u64)),
                }),
            )
            .expect("runs to completion");
            let hs = hashes.lock().unwrap().clone();
            (w.log, hs, ev)
        }
        let (serial, _, serial_ev) = run_cluster_counted(tie_world(), tie_bodies());
        let (log_a, hashes_a, ev_a) = mc_run();
        let (log_b, hashes_b, ev_b) = mc_run();
        assert_eq!(
            log_a, serial.log,
            "always-first replays the serial schedule"
        );
        assert_eq!(ev_a, serial_ev, "and counts the same events");
        assert_eq!(log_a, log_b);
        assert_eq!(ev_a, ev_b);
        assert!(!hashes_a.is_empty());
        assert_eq!(hashes_a, hashes_b, "engine hashes are replay-stable");
    }

    #[test]
    fn mc_prune_is_an_error_value() {
        let mut steps = 0u32;
        let r = run_tasks(
            tie_world(),
            tie_tasks(),
            Some(McInstall {
                hook: Box::new(PickHook(move |_, _| {
                    steps += 1;
                    (steps <= 2).then_some(0)
                })),
                msg_hash: Box::new(|_, m: &u32| u64::from(*m)),
            }),
        );
        assert_eq!(r.err(), Some(RunError::Pruned));
    }
}
