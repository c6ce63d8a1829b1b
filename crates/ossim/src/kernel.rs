//! The simulated operating system kernel.
//!
//! [`Kernel`] owns a [`Machine`] and drives it with a discrete-event loop:
//! per-core run queues managed by a pluggable [`Scheduler`] policy
//! (round-robin quanta by default), Linux-like spreading placement of
//! woken tasks (idle cores on the least-busy chip first — the behaviour
//! behind Fig. 1's Woodcrest measurements), sockets with per-segment
//! request-context tags, fork/wait, blocking I/O and sleeps, and
//! PMU-overflow interrupts delivered to the installed
//! [`KernelHooks`](crate::KernelHooks) facility.

use crate::hooks::{KernelApi, KernelHooks};
use crate::ids::{ContextId, SocketId, TaskId};
use crate::program::{Op, ProcCtx, Program, Resume};
use crate::sched::{SchedStats, Scheduler, SchedulerKind};
use crate::socket::{Segment, SocketTable};
use hwsim::{ActivityProfile, CoreId, DeviceKind, Machine, TagFault};
use simkern::work::{self, Work};
use simkern::{EventQueue, SimDuration, SimRng, SimTime};

/// Work below this many remaining cycles counts as complete (absorbs
/// nanosecond rounding of completion deadlines).
const CYCLE_EPS: f64 = 0.5;

/// Cap on zero-time operations one task may issue back-to-back; exceeding
/// it indicates a program spinning without ever computing or blocking.
const MAX_INSTANT_OPS: usize = 100_000;

/// Scheduling quantum.
const QUANTUM: SimDuration = SimDuration::from_millis(2);
/// One-way local socket delivery latency.
const SOCKET_LATENCY: SimDuration = SimDuration::from_micros(10);
/// Disk throughput in bytes/second.
const DISK_BANDWIDTH: f64 = 150e6;
/// Fixed per-operation disk latency.
const DISK_LATENCY: SimDuration = SimDuration::from_micros(400);
/// Network throughput in bytes/second.
const NET_BANDWIDTH: f64 = 1e9;
/// Fixed per-operation network latency.
const NET_LATENCY: SimDuration = SimDuration::from_micros(50);

/// Tunable kernel parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Ablation: emulate the naive context-propagation design the paper
    /// rejects in §3.3 — the receiving *socket* inherits the most recent
    /// message's tag instead of each segment carrying its own, which
    /// misattributes requests on persistent connections.
    pub naive_socket_tagging: bool,
    /// Trace recorder for kernel events (context switches, PMU
    /// interrupts). Disabled by default; every emission site is guarded
    /// so the disabled path costs one branch.
    pub telemetry: telemetry::Telemetry,
    /// Scheduling policy for the per-core run queues. Round-robin (the
    /// pre-trait behaviour, byte-identical) by default.
    pub sched: SchedulerKind,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            naive_socket_tagging: false,
            telemetry: telemetry::Telemetry::disabled(),
            sched: SchedulerKind::RoundRobin,
        }
    }
}

/// Observable lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting in a run queue.
    Runnable,
    /// Executing on the given core.
    Running(CoreId),
    /// Blocked in `read()` on a socket.
    BlockedRecv(SocketId),
    /// Blocked in `wait()` for a child.
    BlockedWait,
    /// Blocked on disk or network I/O.
    BlockedIo,
    /// Blocked in a timer sleep.
    BlockedSleep,
    /// Exited, waiting to be reaped by its parent.
    Zombie,
    /// Exited and reaped.
    Dead,
}

#[derive(Debug)]
enum Pending {
    Compute { remaining: f64, profile: ActivityProfile },
    Recv { socket: SocketId },
    Wait,
    Io { device: DeviceKind, bytes: u64, started: SimTime },
    Sleep,
}

struct Task {
    parent: Option<TaskId>,
    program: Option<Box<dyn Program>>,
    state: TaskState,
    pending: Option<Pending>,
    resume: Resume,
    last_msg: Option<Segment>,
    children_live: u32,
    zombies: Vec<TaskId>,
    detached: bool,
}

/// Aggregate kernel activity counters, used by the overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Context switches performed (including switches to/from idle).
    pub context_switches: u64,
    /// PMU overflow interrupts delivered to hooks.
    pub pmu_interrupts: u64,
    /// Socket messages delivered.
    pub messages: u64,
    /// Tasks created (spawn + fork).
    pub tasks_created: u64,
    /// Tasks exited.
    pub tasks_exited: u64,
    /// Context tags stripped in transit by fault injection.
    pub tags_lost: u64,
    /// Context tags replaced in transit by fault injection.
    pub tags_corrupted: u64,
}

/// A pending kernel event. Kept to 16 bytes so queue entries stay small:
/// a delivery carries only the slot of its in-transit segment.
#[derive(Debug, Clone, Copy)]
enum KEvent {
    CoreTick { core: u32, gen: u64 },
    Deliver { dst: SocketId, slot: u32 },
    Wake { task: TaskId },
}

const _: () = assert!(std::mem::size_of::<KEvent>() == 16);

/// The simulated OS kernel for one machine.
///
/// # Example
///
/// ```
/// use hwsim::{ActivityProfile, Machine, MachineSpec};
/// use ossim::{Kernel, Op, ScriptProgram};
/// use simkern::SimTime;
///
/// let machine = Machine::new(MachineSpec::sandybridge(), 1);
/// let mut kernel = Kernel::new(machine, Default::default());
/// kernel.spawn(
///     Box::new(ScriptProgram::new(vec![Op::Compute {
///         cycles: 3.1e6,
///         profile: ActivityProfile::cpu_spin(),
///     }])),
///     None,
/// );
/// kernel.run_until(SimTime::from_millis(5));
/// assert_eq!(kernel.stats().tasks_exited, 1);
/// ```
pub struct Kernel {
    machine: Machine,
    config: KernelConfig,
    tasks: Vec<Task>,
    contexts: Vec<Option<ContextId>>,
    running: Vec<Option<TaskId>>,
    sched: Box<dyn Scheduler>,
    quantum_end: Vec<SimTime>,
    core_gen: Vec<u64>,
    progress_base: Vec<f64>,
    sockets: SocketTable,
    events: EventQueue<KEvent>,
    /// Segments sent but not yet delivered, indexed by the slot their
    /// `Deliver` event carries; delivered slots are reused LIFO.
    in_transit: Vec<Segment>,
    free_slots: Vec<u32>,
    hooks: Option<Box<dyn KernelHooks>>,
    prog_rng: SimRng,
    device_users: [u32; 2],
    next_ctx: u64,
    stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel owning `machine`.
    pub fn new(machine: Machine, config: KernelConfig) -> Kernel {
        let n = machine.spec().total_cores();
        let sched = config.sched.build(n, config.telemetry.clone());
        Kernel {
            config,
            tasks: Vec::new(),
            contexts: Vec::new(),
            running: vec![None; n],
            sched,
            quantum_end: vec![SimTime::MAX; n],
            core_gen: vec![0; n],
            progress_base: vec![0.0; n],
            sockets: SocketTable::default(),
            events: EventQueue::new(),
            in_transit: Vec::new(),
            free_slots: Vec::new(),
            hooks: None,
            prog_rng: SimRng::new(0xB5EF_0C7A).split(machine.spec().total_cores() as u64),
            device_users: [0, 0],
            next_ctx: 1,
            stats: KernelStats::default(),
            machine,
        }
    }

    /// Installs the instrumentation facility and delivers its
    /// [`KernelHooks::on_boot`] callback.
    pub fn install_hooks(&mut self, hooks: Box<dyn KernelHooks>) {
        self.hooks = Some(hooks);
        self.with_hooks(|h, api| h.on_boot(api));
    }

    /// Removes and returns the installed facility.
    pub fn take_hooks(&mut self) -> Option<Box<dyn KernelHooks>> {
        self.hooks.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Immutable access to the machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (meter reads, manual overrides).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Scheduler decision counters for the installed policy.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Canonical short name of the installed scheduling policy.
    pub fn sched_kind(&self) -> &'static str {
        self.sched.kind()
    }

    /// Pins request context `ctx` to priority/weight level `priority`
    /// (0 = most urgent). Ignored by policies without priorities.
    pub fn set_context_priority(&mut self, ctx: ContextId, priority: u8) {
        self.sched.set_context_priority(ctx, priority);
    }

    /// Allocates a fresh request-context identifier.
    pub fn alloc_context(&mut self) -> ContextId {
        let id = ContextId(self.next_ctx);
        self.next_ctx += 1;
        id
    }

    /// Creates a connected socket pair.
    pub fn new_socket_pair(&mut self) -> (SocketId, SocketId) {
        self.sockets.new_pair()
    }

    /// Number of buffered, unread segments on `socket`.
    pub fn buffered_segments(&self, socket: SocketId) -> usize {
        self.sockets.get(socket).buffer.len()
    }

    /// Drains every buffered, unread segment from `socket`, in delivery
    /// order — the read side of a cross-node connection held by an
    /// external party (a remote dispatcher, a peer machine). Each
    /// returned [`Segment`] carries the context tag it *arrived* with:
    /// tag faults strike at delivery, so a segment observed here may
    /// already have lost or corrupted its tag (§3.3). Draining does not
    /// wake any in-kernel reader; external and in-kernel readers are not
    /// meant to share an endpoint.
    pub fn drain_messages(&mut self, socket: SocketId) -> Vec<Segment> {
        self.sockets.get_mut(socket).buffer.drain(..).collect()
    }

    /// Like [`Kernel::drain_messages`], but appends into a caller-owned
    /// buffer instead of allocating a fresh `Vec` — the hot-loop form
    /// for dispatchers that drain every node's completion channel each
    /// tick. Segments arrive in the same delivery order.
    pub fn drain_messages_into(&mut self, socket: SocketId, out: &mut Vec<Segment>) {
        out.extend(self.sockets.get_mut(socket).buffer.drain(..));
    }

    /// The tag of the most recently *delivered* tagged message on
    /// `socket` — the per-endpoint state the naive §3.3 tagging ablation
    /// reads. A tag becomes visible here only once its segment's
    /// delivery latency has elapsed, never at send time.
    pub fn socket_last_tag(&self, socket: SocketId) -> Option<ContextId> {
        self.sockets.get(socket).last_tag
    }

    /// The request context `task` is bound to.
    pub fn context_of(&self, task: TaskId) -> Option<ContextId> {
        self.contexts.get(task.0 as usize).copied().flatten()
    }

    /// The lifecycle state of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` was never created.
    pub fn task_state(&self, task: TaskId) -> TaskState {
        self.tasks[task.0 as usize].state
    }

    /// `true` when `task` has not yet exited.
    pub fn is_alive(&self, task: TaskId) -> bool {
        !matches!(self.task_state(task), TaskState::Zombie | TaskState::Dead)
    }

    /// `true` when no task is running or runnable (all blocked or exited).
    pub fn is_quiescent(&self) -> bool {
        self.running.iter().all(Option::is_none) && self.sched.total_queued() == 0
    }

    /// Spawns a top-level task. The task is placed immediately (on an idle
    /// core if one exists).
    pub fn spawn(&mut self, program: Box<dyn Program>, ctx: Option<ContextId>) -> TaskId {
        self.create_task(program, None, ctx, true)
    }

    /// Sends a message on `socket` from outside the machine (e.g. a
    /// remote dispatcher holding the client end of a connection): the
    /// segment appears at `socket`'s peer after the socket latency, just
    /// as [`Op::Send`] would deliver it.
    pub fn inject_message(
        &mut self,
        socket: SocketId,
        bytes: u32,
        ctx: Option<ContextId>,
        payload: u64,
    ) {
        self.send_segment(socket, bytes, payload, ctx);
    }

    /// Runs the event loop until simulated time `t_end`; hardware state is
    /// integrated exactly up to `t_end` on return.
    ///
    /// # Panics
    ///
    /// Panics if the simulation livelocks (an unbounded number of events
    /// fire without simulated time advancing), which indicates a bug in a
    /// program or facility rather than a recoverable condition.
    pub fn run_until(&mut self, t_end: SimTime) {
        let mut last_t = SimTime::MAX;
        let mut same_t: u64 = 0;
        while let Some((t, ev)) = self.events.pop_if_at_or_before(t_end) {
            if t == last_t {
                same_t += 1;
                assert!(
                    same_t < 5_000_000,
                    "simulation livelock at {t}: {same_t} events without time advancing \
                     (stats: {:?})",
                    self.stats
                );
            } else {
                last_t = t;
                same_t = 0;
            }
            self.machine.advance_to(t);
            self.handle(ev);
        }
        self.machine.advance_to(t_end);
    }

    /// Runs until either no events remain or `t_limit` is reached.
    /// Returns the time at which the loop stopped.
    pub fn run_until_quiescent(&mut self, t_limit: SimTime) -> SimTime {
        while let Some((t, ev)) = self.events.pop_if_at_or_before(t_limit) {
            self.machine.advance_to(t);
            self.handle(ev);
        }
        let end = self.now().min(t_limit);
        self.machine.advance_to(end);
        end
    }

    // ---- internal machinery -------------------------------------------

    fn with_hooks<F: FnOnce(&mut dyn KernelHooks, &mut KernelApi<'_>)>(&mut self, f: F) {
        if let Some(mut h) = self.hooks.take() {
            let mut api = KernelApi {
                now: self.machine.now(),
                machine: &mut self.machine,
                running: &self.running,
                contexts: &self.contexts,
                stats: self.stats,
            };
            f(h.as_mut(), &mut api);
            self.hooks = Some(h);
        }
    }

    fn handle(&mut self, ev: KEvent) {
        match ev {
            KEvent::CoreTick { core, gen } => {
                work::count(Work::CoreTick);
                let core = core as usize;
                if self.core_gen[core] == gen {
                    self.core_tick(CoreId(core));
                }
            }
            KEvent::Deliver { dst, slot } => {
                work::count(Work::Deliver);
                let seg = self.in_transit[slot as usize];
                self.free_slots.push(slot);
                self.deliver(dst, seg);
            }
            KEvent::Wake { task } => {
                work::count(Work::Wake);
                self.wake(task);
            }
        }
    }

    fn deliver(&mut self, dst: SocketId, seg: Segment) {
        self.stats.messages += 1;
        let mut seg = seg;
        // Tag faults strike the transport: the segment that *arrives* may
        // have lost or corrupted its context tag, whatever was sent.
        if let Some(ctx) = seg.ctx {
            let now = self.machine.now();
            match self.machine.faults_mut().tag_fault(dst.0 as u64, now) {
                TagFault::Keep => {}
                TagFault::Lose => {
                    seg.ctx = None;
                    self.stats.tags_lost += 1;
                }
                TagFault::Corrupt(salt) => {
                    seg.ctx = Some(ContextId(ctx.0 ^ (1 + salt % 0xFFFF)));
                    self.stats.tags_corrupted += 1;
                }
            }
        }
        let ep = self.sockets.get_mut(dst);
        ep.buffer.push_back(seg);
        if seg.ctx.is_some() {
            // Naive-tagging state tracks *delivery*, not send: the
            // endpoint remembers the most recently delivered tag.
            ep.last_tag = seg.ctx;
        }
        if let Some(reader) = ep.waiting_reader.take() {
            self.tasks[reader.0 as usize].state = TaskState::Runnable;
            self.place_runnable(reader);
        }
    }

    fn wake(&mut self, task: TaskId) {
        let t = &mut self.tasks[task.0 as usize];
        match t.pending.take() {
            Some(Pending::Sleep) => {
                t.resume = Resume::Done;
            }
            Some(Pending::Io { device, bytes, started }) => {
                t.resume = Resume::Done;
                self.device_users[device.index()] -= 1;
                if self.device_users[device.index()] == 0 {
                    self.machine.set_device_active(device, false);
                }
                let seconds = self.now().duration_since(started).as_secs_f64();
                let ctx = self.context_of(task);
                self.with_hooks(|h, api| h.on_io_complete(api, device, task, ctx, bytes, seconds));
            }
            other => {
                // Spurious wake (task already handled); restore and ignore.
                self.tasks[task.0 as usize].pending = other;
                return;
            }
        }
        self.tasks[task.0 as usize].state = TaskState::Runnable;
        self.place_runnable(task);
    }

    fn place_runnable(&mut self, task: TaskId) {
        // Wake placement is delegated to the scheduler; the default is
        // the Fig. 1 spreading policy (idle core on the least-busy chip,
        // else shortest queue).
        let core = CoreId(self.sched.select_core(self.machine.spec(), &self.running));
        if self.running[core.0].is_none() && self.sched.queue_len(core.0) == 0 {
            self.install(core, Some(task));
            self.step_task(core);
        } else {
            let ctx = self.context_of(task);
            self.sched.enqueue(core.0, task, ctx, self.now());
        }
    }

    /// Accounts the running task's compute progress up to the machine's
    /// present instant.
    fn account(&mut self, core: CoreId) {
        let Some(tid) = self.running[core.0] else { return };
        let nonhalt = self.machine.counters(core).nonhalt_cycles;
        let used = nonhalt - self.progress_base[core.0];
        self.progress_base[core.0] = nonhalt;
        if let Some(Pending::Compute { remaining, .. }) =
            &mut self.tasks[tid.0 as usize].pending
        {
            *remaining = (*remaining - used).max(0.0);
        }
    }

    /// Switches `core` to `next` (possibly idle), firing the context-switch
    /// hook. The caller must already have moved the previous task out of
    /// the `Running` state (blocked/queued/exited).
    fn install(&mut self, core: CoreId, next: Option<TaskId>) {
        let prev = self.running[core.0];
        self.account(core);
        if let Some(p) = prev {
            self.sched.on_stop(core.0, p, self.machine.now());
        }
        self.stats.context_switches += 1;
        if self.config.telemetry.enabled() {
            let as_id = |t: Option<TaskId>| t.map_or(-1, |t| i64::from(t.0));
            self.config.telemetry.instant_on(
                self.machine.now(),
                "kernel",
                "ctx_switch",
                1,
                &[
                    ("core", telemetry::FieldValue::U64(core.0 as u64)),
                    ("prev", telemetry::FieldValue::I64(as_id(prev))),
                    ("next", telemetry::FieldValue::I64(as_id(next))),
                ],
            );
            self.config.telemetry.add_count("kernel.ctx_switches", 1);
        }
        self.with_hooks(|h, api| h.on_context_switch(api, core, prev, next));
        self.running[core.0] = next;
        match next {
            Some(tid) => {
                self.tasks[tid.0 as usize].state = TaskState::Running(core);
                self.quantum_end[core.0] = self.now() + QUANTUM;
                self.progress_base[core.0] = self.machine.counters(core).nonhalt_cycles;
                let ctx = self.contexts[tid.0 as usize];
                self.sched.on_run(core.0, tid, ctx, self.machine.now());
            }
            None => {
                self.machine.set_running(core, None);
                self.quantum_end[core.0] = SimTime::MAX;
                self.schedule_tick(core);
            }
        }
    }

    /// Advances the task on `core` through zero-time operations until it
    /// settles into computing, blocks, or exits (possibly dispatching a
    /// successor, which is then stepped too).
    fn step_task(&mut self, core: CoreId) {
        let mut budget = MAX_INSTANT_OPS;
        loop {
            let Some(tid) = self.running[core.0] else {
                self.schedule_tick(core);
                return;
            };
            budget -= 1;
            assert!(budget > 0, "task {tid} issued too many zero-time ops; missing Compute/block");
            let idx = tid.0 as usize;
            match self.tasks[idx].pending.take() {
                Some(Pending::Compute { remaining, profile }) if remaining > CYCLE_EPS => {
                    self.tasks[idx].pending = Some(Pending::Compute { remaining, profile });
                    self.machine.set_running(core, Some(profile));
                    self.schedule_tick(core);
                    return;
                }
                Some(Pending::Compute { .. }) => {
                    self.tasks[idx].resume = Resume::Done;
                }
                Some(Pending::Recv { socket }) => {
                    let ep = self.sockets.get_mut(socket);
                    if let Some(seg) = ep.buffer.pop_front() {
                        // Per-segment tagging is the paper's safe design;
                        // the naive ablation inherits the socket's most
                        // recent tag instead, which misattributes when a
                        // new request's message arrives before an old one
                        // is read (persistent connections, §3.3).
                        let inherited = if self.config.naive_socket_tagging {
                            ep.last_tag
                        } else {
                            seg.ctx
                        };
                        self.tasks[idx].last_msg = Some(seg);
                        self.tasks[idx].resume = Resume::Received;
                        if let Some(ctx) = inherited {
                            self.bind_context(tid, Some(ctx), Some(core));
                        }
                    } else {
                        // Block in read().
                        let prev_reader =
                            self.sockets.get_mut(socket).waiting_reader.replace(tid);
                        assert!(
                            prev_reader.is_none(),
                            "two tasks blocked reading {socket}"
                        );
                        self.tasks[idx].pending = Some(Pending::Recv { socket });
                        self.tasks[idx].state = TaskState::BlockedRecv(socket);
                        let next = self.sched.pick_next(core.0, self.machine.now());
                        self.install(core, next);
                        continue;
                    }
                }
                Some(Pending::Wait) => {
                    if let Some(z) = self.tasks[idx].zombies.pop() {
                        self.tasks[z.0 as usize].state = TaskState::Dead;
                        self.tasks[idx].resume = Resume::ChildExited(z);
                    } else if self.tasks[idx].children_live > 0 {
                        self.tasks[idx].pending = Some(Pending::Wait);
                        self.tasks[idx].state = TaskState::BlockedWait;
                        let next = self.sched.pick_next(core.0, self.machine.now());
                        self.install(core, next);
                        continue;
                    } else {
                        self.tasks[idx].resume = Resume::Done;
                    }
                }
                Some(other @ (Pending::Io { .. } | Pending::Sleep)) => {
                    unreachable!("blocking op {other:?} pending at dispatch")
                }
                None => {
                    let op = self.fetch_op(core, tid);
                    if self.execute_op(core, tid, op) {
                        continue;
                    }
                }
            }
        }
    }

    fn fetch_op(&mut self, _core: CoreId, tid: TaskId) -> Op {
        let idx = tid.0 as usize;
        let mut program = self.tasks[idx].program.take().expect("running task has a program");
        let mut ctx = ProcCtx {
            now: self.machine.now(),
            task: tid,
            context: self.contexts[idx],
            resume: self.tasks[idx].resume,
            last_msg: self.tasks[idx].last_msg,
            rng: &mut self.prog_rng,
            sockets: &mut self.sockets,
        };
        let op = program.next_op(&mut ctx);
        self.tasks[idx].program = Some(program);
        self.tasks[idx].resume = Resume::Done;
        op
    }

    /// Executes one op for the running task on `core`. Returns `true` when
    /// the step loop should continue (op was instantaneous or changed the
    /// dispatched task), which is the case for every op.
    fn execute_op(&mut self, core: CoreId, tid: TaskId, op: Op) -> bool {
        let idx = tid.0 as usize;
        match op {
            Op::Compute { cycles, profile } => {
                self.tasks[idx].pending = Some(Pending::Compute { remaining: cycles, profile });
            }
            Op::Send { socket, bytes, payload } => {
                let ctx = self.contexts[idx];
                self.send_segment(socket, bytes, payload, ctx);
            }
            Op::SendTagged { socket, bytes, payload, ctx } => {
                self.send_segment(socket, bytes, payload, ctx);
            }
            Op::Recv { socket } => {
                self.tasks[idx].pending = Some(Pending::Recv { socket });
            }
            Op::Fork { child, ctx, detached } => {
                let child_ctx = ctx.or(self.contexts[idx]);
                let child_id = self.create_task(child, Some(tid), child_ctx, detached);
                if !detached {
                    self.tasks[idx].children_live += 1;
                }
                let _ = child_id;
            }
            Op::WaitChild => {
                self.tasks[idx].pending = Some(Pending::Wait);
            }
            Op::DiskIo { bytes } => self.start_io(core, tid, DeviceKind::Disk, bytes),
            Op::NetIo { bytes } => self.start_io(core, tid, DeviceKind::Net, bytes),
            Op::Sleep { duration } => {
                self.tasks[idx].pending = Some(Pending::Sleep);
                self.tasks[idx].state = TaskState::BlockedSleep;
                self.events.push(self.now() + duration, KEvent::Wake { task: tid });
                let next = self.sched.pick_next(core.0, self.machine.now());
                self.install(core, next);
            }
            Op::BindContext(ctx) => {
                self.bind_context(tid, ctx, Some(core));
            }
            Op::Exit => self.exit_task(core, tid),
        }
        true
    }

    fn send_segment(&mut self, socket: SocketId, bytes: u32, payload: u64, ctx: Option<ContextId>) {
        let dst = self.sockets.get(socket).peer;
        let seg = Segment { bytes, ctx, payload, sent_at: self.now() };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.in_transit[slot as usize] = seg;
                slot
            }
            None => {
                self.in_transit.push(seg);
                (self.in_transit.len() - 1) as u32
            }
        };
        self.events
            .push(self.now() + SOCKET_LATENCY, KEvent::Deliver { dst, slot });
    }

    fn start_io(&mut self, core: CoreId, tid: TaskId, device: DeviceKind, bytes: u64) {
        let (bw, lat) = match device {
            DeviceKind::Disk => (DISK_BANDWIDTH, DISK_LATENCY),
            DeviceKind::Net => (NET_BANDWIDTH, NET_LATENCY),
        };
        let ctx = self.contexts[tid.0 as usize];
        self.with_hooks(|h, api| h.on_io_start(api, device, tid, ctx, bytes));
        self.device_users[device.index()] += 1;
        if self.device_users[device.index()] == 1 {
            self.machine.set_device_active(device, true);
        }
        let dur = lat + SimDuration::from_secs_f64(bytes as f64 / bw);
        self.tasks[tid.0 as usize].pending =
            Some(Pending::Io { device, bytes, started: self.now() });
        self.tasks[tid.0 as usize].state = TaskState::BlockedIo;
        self.events.push(self.now() + dur, KEvent::Wake { task: tid });
        let next = self.sched.pick_next(core.0, self.machine.now());
        self.install(core, next);
    }

    fn exit_task(&mut self, core: CoreId, tid: TaskId) {
        let ctx = self.contexts[tid.0 as usize];
        self.with_hooks(|h, api| h.on_task_exit(api, tid, ctx));
        self.stats.tasks_exited += 1;
        let idx = tid.0 as usize;
        self.tasks[idx].program = None;
        // Notify or park under the parent.
        let parent = self.tasks[idx].parent;
        let detached = self.tasks[idx].detached;
        let mut new_state = TaskState::Dead;
        if let Some(p) = parent {
            let pidx = p.0 as usize;
            if !matches!(self.tasks[pidx].state, TaskState::Zombie | TaskState::Dead)
                && !detached
            {
                self.tasks[pidx].children_live -= 1;
                if matches!(self.tasks[pidx].pending, Some(Pending::Wait))
                    && matches!(self.tasks[pidx].state, TaskState::BlockedWait)
                {
                    self.tasks[pidx].pending = None;
                    self.tasks[pidx].resume = Resume::ChildExited(tid);
                    self.tasks[pidx].state = TaskState::Runnable;
                    self.place_runnable(p);
                } else {
                    new_state = TaskState::Zombie;
                    self.tasks[pidx].zombies.push(tid);
                }
            }
        }
        self.tasks[idx].state = new_state;
        let next = self.sched.pick_next(core.0, self.machine.now());
        // The final context switch still sees the exiting task's context so
        // its last CPU slice is attributed correctly; unbind afterwards.
        self.install(core, next);
        self.contexts[idx] = None;
    }

    fn bind_context(&mut self, tid: TaskId, new: Option<ContextId>, core: Option<CoreId>) {
        let idx = tid.0 as usize;
        let old = self.contexts[idx];
        if old == new {
            return;
        }
        self.contexts[idx] = new;
        self.with_hooks(|h, api| h.on_context_bound(api, tid, old, new, core));
    }

    fn create_task(
        &mut self,
        program: Box<dyn Program>,
        parent: Option<TaskId>,
        ctx: Option<ContextId>,
        detached: bool,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            parent,
            program: Some(program),
            state: TaskState::Runnable,
            pending: None,
            resume: Resume::Start,
            last_msg: None,
            children_live: 0,
            zombies: Vec::new(),
            detached,
        });
        self.contexts.push(ctx);
        self.stats.tasks_created += 1;
        self.with_hooks(|h, api| h.on_task_created(api, id, parent, ctx));
        self.place_runnable(id);
        id
    }

    fn core_tick(&mut self, core: CoreId) {
        self.account(core);
        let Some(tid) = self.running[core.0] else {
            return;
        };
        // 1. PMU overflow?
        if self.machine.pmu_expired(core) {
            self.machine.set_pmu_threshold(core, None);
            self.stats.pmu_interrupts += 1;
            if self.config.telemetry.enabled() {
                self.config.telemetry.instant_on(
                    self.machine.now(),
                    "kernel",
                    "pmu_irq",
                    1,
                    &[
                        ("core", telemetry::FieldValue::U64(core.0 as u64)),
                        ("task", telemetry::FieldValue::U64(u64::from(tid.0))),
                    ],
                );
                self.config.telemetry.add_count("kernel.pmu_irqs", 1);
            }
            self.with_hooks(|h, api| h.on_pmu_interrupt(api, core, tid));
            // The hook may have injected observer-effect cycles.
            self.account(core);
        }
        // 2. Quantum expiry → ask the policy whether to preempt. The
        //    policy re-queues `tid` itself when it yields a replacement.
        let still_computing = matches!(
            self.tasks[tid.0 as usize].pending,
            Some(Pending::Compute { remaining, .. }) if remaining > CYCLE_EPS
        );
        if self.now() >= self.quantum_end[core.0] {
            let ctx = self.contexts[tid.0 as usize];
            let now = self.machine.now();
            if let Some(next) = self.sched.on_quantum_expired(core.0, tid, ctx, now) {
                self.tasks[tid.0 as usize].state = TaskState::Runnable;
                self.install(core, Some(next));
                self.step_task(core);
                return;
            }
            self.quantum_end[core.0] = self.now() + QUANTUM;
        }
        if still_computing {
            self.schedule_tick(core);
        } else {
            // Compute op finished (or task had an instantaneous op queued).
            self.step_task(core);
        }
    }

    fn schedule_tick(&mut self, core: CoreId) {
        self.core_gen[core.0] += 1;
        let gen = self.core_gen[core.0];
        let Some(tid) = self.running[core.0] else {
            return; // idle cores need no tick
        };
        let mut t = self.quantum_end[core.0];
        // The nearer of compute completion and PMU overflow.
        let remaining = match self.tasks[tid.0 as usize].pending {
            Some(Pending::Compute { remaining, .. }) => Some(remaining),
            _ => None,
        };
        if let Some(d) = self.machine.time_until_cycles_or_pmu(core, remaining) {
            let due = self.now() + d;
            if due < t {
                t = due;
            }
        }
        if t != SimTime::MAX {
            self.events.push(t, KEvent::CoreTick { core: core.0 as u32, gen });
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now())
            .field("tasks", &self.tasks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

