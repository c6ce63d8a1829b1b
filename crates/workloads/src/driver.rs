//! Open-loop load generation and the pooled-worker server pattern.
//!
//! Each application is served by a pool of persistent worker tasks (the
//! paper's Apache worker processes / Tomcat servlet threads). A driver
//! task issues requests as a Poisson process: it picks a worker
//! round-robin, allocates a fresh request context, and sends a tagged
//! message — the worker inherits the request context when it reads the
//! message, exactly the §3.3 propagation mechanism.

use crate::stats::RunStats;
use hwsim::ActivityProfile;
use hwsim::MachineSpec;
use ossim::{ContextId, FnProgram, Kernel, Op, ProcCtx, Program, Resume, SocketId};
use power_containers::FacilityState;
use simkern::{SimDuration, SimRng};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Allocates request-context identifiers shared between drivers and the
/// harness (distinct ranges per machine keep cluster runs unambiguous).
#[derive(Debug, Clone)]
pub struct CtxAlloc {
    next: Rc<Cell<u64>>,
}

impl CtxAlloc {
    /// Creates an allocator starting at `start`.
    pub fn new(start: u64) -> CtxAlloc {
        CtxAlloc { next: Rc::new(Cell::new(start)) }
    }

    /// Returns a fresh context id.
    pub fn alloc(&self) -> ContextId {
        let id = self.next.get();
        self.next.set(id + 1);
        ContextId(id)
    }
}

/// Everything a request driver needs.
pub struct DriverEnv {
    /// Driver-side endpoints of the worker inbox sockets.
    pub inboxes: Vec<SocketId>,
    /// Mean request inter-arrival gap.
    pub mean_gap: SimDuration,
    /// Picks a request-type label for each arrival.
    pub pick_label: Box<dyn FnMut(&mut SimRng) -> u32>,
    /// Shared run statistics.
    pub stats: Rc<RefCell<RunStats>>,
    /// The facility, for labeling containers at dispatch.
    pub facility: Option<Rc<RefCell<FacilityState>>>,
    /// Context allocator.
    pub ctxs: CtxAlloc,
    /// Stop issuing requests after this many (None = unbounded).
    pub max_requests: Option<u64>,
    /// Hold the first request until this long into the run (e.g. the
    /// Fig. 11 power viruses arriving mid-experiment).
    pub start_after: SimDuration,
}

/// Spawns the Poisson request driver into `kernel`.
pub fn spawn_driver(kernel: &mut Kernel, mut env: DriverEnv) {
    assert!(!env.inboxes.is_empty(), "driver needs at least one worker inbox");
    let mut rr = 0usize;
    let mut issued: u64 = 0;
    let mut sleeping = false;
    let mut started = env.start_after.is_zero();
    kernel.spawn(
        Box::new(FnProgram::new(move |pc: &mut ProcCtx<'_>| {
            if !started {
                started = true;
                return Op::Sleep { duration: env.start_after };
            }
            if env.max_requests.is_some_and(|m| issued >= m) {
                return Op::Exit;
            }
            if !sleeping {
                sleeping = true;
                let gap = pc.rng.exponential(env.mean_gap.as_secs_f64());
                return Op::Sleep { duration: SimDuration::from_secs_f64(gap) };
            }
            sleeping = false;
            issued += 1;
            let label = (env.pick_label)(pc.rng);
            let ctx = env.ctxs.alloc();
            env.stats.borrow_mut().record_arrival(ctx, label, pc.now);
            if let Some(f) = &env.facility {
                f.borrow_mut().containers_mut().set_label(ctx, label, pc.now);
            }
            let inbox = env.inboxes[rr % env.inboxes.len()];
            rr += 1;
            Op::SendTagged { socket: inbox, bytes: 512, payload: label as u64, ctx: Some(ctx) }
        })),
        None,
    );
}

/// The per-request behaviour of a pool worker: given the request label
/// and a [`ProcCtx`], push the op sequence that serves the request, in
/// order, onto the worker's op queue (empty when called). The queue keeps
/// its room from one request to the next, so serving a request allocates
/// nothing for it.
pub type RequestOps = Box<dyn FnMut(u32, &mut ProcCtx<'_>, &mut VecDeque<Op>)>;

enum WorkerPhase {
    AwaitRequest,
    Working,
}

/// A persistent server worker: blocks on its inbox, inherits each
/// message's request context, executes the app-specific op sequence, then
/// records completion (optionally notifying a closed-loop client) and
/// unbinds.
pub struct PoolWorker {
    rx: SocketId,
    make_ops: RequestOps,
    queue: VecDeque<Op>,
    phase: WorkerPhase,
    stats: Rc<RefCell<RunStats>>,
    notify: Option<SocketId>,
    /// Payload of the request being served, echoed verbatim in the
    /// completion message. The low 32 bits are the app-local label; a
    /// cluster dispatcher packs a request serial into the high 32 bits
    /// so responses stay identifiable even when the context tag is lost
    /// or corrupted in transit.
    req_payload: u64,
}

impl PoolWorker {
    /// Creates a worker reading requests from `rx`. When `notify` is set,
    /// a completion message (the HTTP response, in effect) is sent on it
    /// after each request — closed-loop clients block on the peer end.
    pub fn new(
        rx: SocketId,
        stats: Rc<RefCell<RunStats>>,
        notify: Option<SocketId>,
        make_ops: RequestOps,
    ) -> PoolWorker {
        PoolWorker {
            rx,
            make_ops,
            queue: VecDeque::new(),
            phase: WorkerPhase::AwaitRequest,
            stats,
            notify,
            req_payload: 0,
        }
    }
}

impl Program for PoolWorker {
    fn next_op(&mut self, pc: &mut ProcCtx<'_>) -> Op {
        if let Some(op) = self.queue.pop_front() {
            return op;
        }
        match self.phase {
            WorkerPhase::AwaitRequest => {
                if pc.resume == Resume::Received {
                    // A request arrived; build and start its op sequence.
                    self.req_payload = pc.last_msg.map(|m| m.payload).unwrap_or(0);
                    let label = self.req_payload as u32;
                    (self.make_ops)(label, pc, &mut self.queue);
                    self.phase = WorkerPhase::Working;
                    self.queue.pop_front().unwrap_or(Op::Exit)
                } else {
                    Op::Recv { socket: self.rx }
                }
            }
            WorkerPhase::Working => {
                // Op sequence exhausted: the request is complete.
                if let Some(ctx) = pc.context {
                    self.stats.borrow_mut().record_completion(ctx, pc.now);
                }
                self.phase = WorkerPhase::AwaitRequest;
                if let Some(notify) = self.notify {
                    // Respond *while still bound* so the message carries
                    // the request context back to the client (§3.4's
                    // response tagging); the payload is the request's own
                    // payload echoed back, which keeps the response
                    // routable (via the serial in its high bits) even if
                    // the tag was lost in transit. Unbind only afterwards.
                    self.queue.push_back(Op::BindContext(None));
                    self.queue.push_back(Op::Recv { socket: self.rx });
                    Op::Send { socket: notify, bytes: 256, payload: self.req_payload }
                } else {
                    self.queue.push_back(Op::Recv { socket: self.rx });
                    Op::BindContext(None)
                }
            }
        }
    }
}

/// Creates a pool of `workers` [`PoolWorker`] tasks; returns the
/// driver-side inbox endpoints. `notify` is the worker-side endpoint of
/// the completion channel for closed-loop clients, if any.
pub fn spawn_pool(
    kernel: &mut Kernel,
    workers: usize,
    stats: &Rc<RefCell<RunStats>>,
    notify: Option<SocketId>,
    mut make_ops: impl FnMut(usize) -> RequestOps,
) -> Vec<SocketId> {
    let mut inboxes = Vec::with_capacity(workers);
    for w in 0..workers {
        let (tx, rx) = kernel.new_socket_pair();
        inboxes.push(tx);
        kernel.spawn(
            Box::new(PoolWorker::new(rx, Rc::clone(stats), notify, make_ops(w))),
            None,
        );
    }
    inboxes
}

/// A closed-loop client: keeps exactly `concurrency` requests in flight,
/// issuing the next one the moment a completion message arrives — the
/// paper's "test client that can send concurrent requests to the server
/// at a desired load level".
pub struct ClosedLoopDriver {
    /// Worker inbox endpoints (round-robin).
    pub inboxes: Vec<SocketId>,
    /// The driver-side end of the completion channel.
    pub completions_rx: SocketId,
    /// In-flight request count to maintain.
    pub concurrency: usize,
    /// Label picker.
    pub pick_label: Box<dyn FnMut(&mut SimRng) -> u32>,
    /// Shared statistics.
    pub stats: Rc<RefCell<RunStats>>,
    /// Facility for container labeling.
    pub facility: Option<Rc<RefCell<FacilityState>>>,
    /// Context allocator.
    pub ctxs: CtxAlloc,
    /// Slots issued so far during priming (start at 0).
    pub primed: usize,
    /// Round-robin cursor over the inboxes (start at 0).
    pub rr: usize,
}

impl ClosedLoopDriver {
    /// Spawns a closed-loop client into `kernel`; returns the worker-side
    /// completion endpoint that must be passed to [`spawn_pool`].
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        kernel: &mut Kernel,
        inboxes: Vec<SocketId>,
        concurrency: usize,
        pick_label: Box<dyn FnMut(&mut SimRng) -> u32>,
        stats: Rc<RefCell<RunStats>>,
        facility: Option<Rc<RefCell<FacilityState>>>,
        ctxs: CtxAlloc,
    ) -> SocketId {
        assert!(concurrency > 0, "closed loop needs at least one slot");
        let (notify_tx, completions_rx) = kernel.new_socket_pair();
        kernel.spawn(
            Box::new(ClosedLoopDriver {
                inboxes,
                completions_rx,
                concurrency,
                pick_label,
                stats,
                facility,
                ctxs,
                primed: 0,
                rr: 0,
            }),
            None,
        );
        notify_tx
    }

    fn issue(&mut self, pc: &mut ProcCtx<'_>) -> Op {
        let label = (self.pick_label)(pc.rng);
        let ctx = self.ctxs.alloc();
        self.stats.borrow_mut().record_arrival(ctx, label, pc.now);
        if let Some(f) = &self.facility {
            f.borrow_mut().containers_mut().set_label(ctx, label, pc.now);
        }
        let inbox = self.inboxes[self.rr % self.inboxes.len()];
        self.rr += 1;
        Op::SendTagged { socket: inbox, bytes: 512, payload: label as u64, ctx: Some(ctx) }
    }
}

impl Program for ClosedLoopDriver {
    fn next_op(&mut self, pc: &mut ProcCtx<'_>) -> Op {
        if self.primed < self.concurrency {
            self.primed += 1;
            return self.issue(pc);
        }
        if pc.resume == Resume::Received {
            // One slot freed; refill it, then go back to waiting.
            return self.issue(pc);
        }
        // The driver itself must never hold a request context.
        if pc.context.is_some() {
            return Op::BindContext(None);
        }
        Op::Recv { socket: self.completions_rx }
    }
}

/// A compute op with the machine's workload-dependent speed scaling
/// applied (older machines need more cycles for the same request).
pub fn scaled_compute(spec: &MachineSpec, cycles: f64, profile: ActivityProfile) -> Op {
    Op::Compute { cycles: cycles * spec.work_scale(&profile), profile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{Machine, MachineSpec};
    use ossim::KernelConfig;
    use simkern::SimTime;

    fn kernel() -> Kernel {
        Kernel::new(Machine::new(MachineSpec::sandybridge(), 5), KernelConfig::default())
    }

    #[test]
    fn ctx_alloc_is_monotonic() {
        let a = CtxAlloc::new(100);
        assert_eq!(a.alloc(), ContextId(100));
        assert_eq!(a.alloc(), ContextId(101));
        let b = a.clone();
        assert_eq!(b.alloc(), ContextId(102));
        assert_eq!(a.alloc(), ContextId(103), "clones share the counter");
    }

    #[test]
    fn pool_serves_requests_and_records_completions() {
        let mut k = kernel();
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let spec = Rc::new(k.machine().spec().clone());
        let inboxes = spawn_pool(&mut k, 2, &stats, None, |_w| {
            let spec = Rc::clone(&spec);
            Box::new(move |_label, _pc, ops| {
                ops.push_back(scaled_compute(&spec, 3.1e6, ActivityProfile::high_ipc()));
            })
        });
        spawn_driver(
            &mut k,
            DriverEnv {
                inboxes,
                mean_gap: SimDuration::from_millis(5),
                pick_label: Box::new(|_| 3),
                stats: Rc::clone(&stats),
                facility: None,
                ctxs: CtxAlloc::new(1),
                max_requests: Some(20),
                start_after: SimDuration::ZERO,
            },
        );
        k.run_until(SimTime::from_millis(400));
        let s = stats.borrow();
        assert_eq!(s.issued(), 20);
        assert_eq!(s.completions().len(), 20);
        assert!(s.completions().iter().all(|c| c.label == 3));
        // ~1 ms service at light load.
        let mean = s.response_summary(None).mean();
        assert!(mean > 0.0005 && mean < 0.01, "mean response {mean}s");
    }

    #[test]
    fn worker_inherits_request_context() {
        let mut k = kernel();
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let inboxes = spawn_pool(&mut k, 1, &stats, None, |_w| {
            Box::new(move |_label, _pc, ops| {
                ops.push_back(Op::Compute {
                    cycles: 1e6,
                    profile: ActivityProfile::cpu_spin(),
                });
            })
        });
        spawn_driver(
            &mut k,
            DriverEnv {
                inboxes,
                mean_gap: SimDuration::from_millis(2),
                pick_label: Box::new(|_| 0),
                stats: Rc::clone(&stats),
                facility: None,
                ctxs: CtxAlloc::new(500),
                max_requests: Some(5),
                start_after: SimDuration::ZERO,
            },
        );
        k.run_until(SimTime::from_millis(100));
        let s = stats.borrow();
        assert_eq!(s.completions().len(), 5);
        // Completions carry the driver-allocated contexts.
        for c in s.completions() {
            assert!(c.ctx.0 >= 500 && c.ctx.0 < 505);
        }
    }

    #[test]
    fn scaled_compute_applies_machine_factor() {
        let wc = MachineSpec::woodcrest();
        let op = scaled_compute(&wc, 1e6, ActivityProfile::high_ipc());
        match op {
            Op::Compute { cycles, .. } => {
                assert!(cycles > 2e6, "Woodcrest compute-heavy scale ≈2.3×, got {cycles}");
            }
            other => panic!("unexpected op {other:?}"),
        }
    }
}
