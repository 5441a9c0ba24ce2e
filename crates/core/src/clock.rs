//! Real and virtual time sources for the in-process deployment.
//!
//! Every timing decision in `legostore-core` — the modeled network delays an
//! [`Endpoint`](crate::Endpoint) holds its replies for, operation timeouts, reconfiguration
//! deadlines and the linearizability timestamps — goes through a [`Clock`]. Two
//! implementations exist:
//!
//! * [`Clock::real`] (the default): wall-clock time. `now_ns` reads a monotonic
//!   [`Instant`] and sleeping really sleeps, so a deployment built with
//!   `latency_scale: 1.0` paces operations exactly like the paper's geo-distributed
//!   testbed.
//! * [`Clock::virtual_time`]: a shared logical-time source. Nobody sleeps; instead, the
//!   clock tracks every participant (clients inside an operation, the reconfiguration
//!   controller; in-process servers serve on their callers' threads) plus every reply
//!   still in flight to them, and when *all* participants are quiescent it jumps
//!   straight to the next scheduled wake-up instant. Modeled multi-second RTT waits
//!   collapse to microseconds of real time while preserving the arrival *order* and the
//!   relative timestamps of every event, so latency accounting and linearizability
//!   histories come out the same — and scheduler jitter no longer leaks into `now_ns`,
//!   which makes sequential workloads byte-for-byte reproducible (concurrent client
//!   threads can still race for the order in which servers see their requests).
//!
//! # How a participant waits on a virtual clock
//!
//! Wake-ups are targeted: every waiter has a wake-up of its own (a channel's receiver
//! the channel's, a sleeper a fresh one), so a send wakes only its receiver and a jump
//! wakes only the threads whose deadline is the new instant. A notification bumps the
//! wake-up's epoch, an atomic counter; it reaches the kernel (a futex wake of a condvar)
//! only if the waiter is actually parked. A waiter whose own deadline is the earliest
//! pending wake-up after `now_ns` is *next in line*: the next jump is its. It releases
//! the clock lock and spins on its epoch for up to 50 µs before it parks, so when two
//! participants hand the clock back and forth, no futex wake-up is needed. The spinner
//! yields its core between checks, so on an oversubscribed machine the threads it waits
//! for still run. At most `available_parallelism() - 1` threads spin at once across the
//! process, and a notification frees its spinner's slot on the spot, so the thread that
//! just woke it can spin next.
//!
//! `now_ns` reads an atomic mirror of logical time, stored under the clock lock wherever
//! time advances, so it never waits for that lock. A running participant cannot see time
//! move, so it reads what it would have read under the lock.
//!
//! # Example: a virtual-time cluster in a few lines
//!
//! ```
//! use legostore_core::{Clock, Cluster, ClusterOptions};
//! use legostore_cloud::GcpLocation;
//! use legostore_types::{Key, Value};
//!
//! // Identical to a real-time deployment, except nothing ever sleeps.
//! let cluster = Cluster::gcp9(ClusterOptions {
//!     clock: Clock::virtual_time(),
//!     ..Default::default()
//! });
//! let mut client = cluster.client(GcpLocation::Tokyo.dc());
//! client.create(&Key::from("greeting"), Value::from("hello")).unwrap();
//! assert_eq!(client.get(&Key::from("greeting")).unwrap(), Value::from("hello"));
//! // Virtual time advanced by the modeled RTTs even though no wall-clock time passed.
//! assert!(cluster.options().clock.now_ns() > 0);
//! cluster.shutdown();
//! ```

use crossbeam::channel::{Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Floor applied to real-clock channel waits so a deadline in the past still yields to the
/// scheduler instead of busy-spinning.
const MIN_REAL_WAIT: Duration = Duration::from_micros(50);

/// How long a next-in-line waiter spins before it parks (see [`Wake::wait`]).
const SPIN: Duration = Duration::from_micros(50);

/// Threads spinning in [`Wake::wait`] right now, over every virtual clock of the process.
static SPINNERS: AtomicUsize = AtomicUsize::new(0);

/// How many threads may spin at once: one core is always left to the thread that will
/// wake them.
fn max_spinners() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) - 1)
}

/// Takes a spinner slot if one is free.
fn take_spinner_slot() -> bool {
    SPINNERS
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < max_spinners()).then_some(n + 1))
        .is_ok()
}

thread_local! {
    /// How many [`ClockGuard`]s the current thread holds, *per virtual clock* (keyed by the
    /// clock's address; a guard keeps its clock alive, so keys cannot dangle or be reused
    /// while an entry exists). A thread that holds a guard is a *participant*: the clock
    /// counts it as busy and must be told (by the sleep / recv primitives) when it blocks,
    /// or time would never advance past its waits. Tracking the depth per clock keeps the
    /// accounting correct for nested guards and for threads that touch several clocks.
    static PARTICIPANT_DEPTH: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's participant depth for `clock`.
fn thread_depth(clock: &VirtualClock) -> usize {
    let key = clock as *const VirtualClock as usize;
    PARTICIPANT_DEPTH.with(|d| {
        d.borrow()
            .iter()
            .find_map(|(k, n)| (*k == key).then_some(*n))
            .unwrap_or(0)
    })
}

/// Adjusts the current thread's participant depth for `clock` by `delta`.
fn change_thread_depth(clock: &VirtualClock, delta: isize) {
    let key = clock as *const VirtualClock as usize;
    PARTICIPANT_DEPTH.with(|d| {
        let mut depths = d.borrow_mut();
        if let Some(entry) = depths.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = entry
                .1
                .checked_add_signed(delta)
                .expect("participant depth balanced");
            if entry.1 == 0 {
                depths.retain(|(k, _)| *k != key);
            }
        } else {
            let initial = usize::try_from(delta).expect("participant depth balanced");
            depths.push((key, initial));
        }
    })
}

/// A time source for the deployment: either the machine's monotonic clock or a shared
/// virtual clock (see the [module docs](self) for the semantics of each).
///
/// Cloning a `Clock` yields a handle to the *same* time source; all components of one
/// [`Cluster`](crate::Cluster) must share clones of one clock, which
/// [`ClusterOptions::clock`](crate::ClusterOptions) arranges automatically.
#[derive(Clone, Debug)]
pub struct Clock {
    kind: ClockKind,
}

#[derive(Clone)]
enum ClockKind {
    Real { epoch: Instant },
    Virtual(Arc<VirtualClock>),
}

impl std::fmt::Debug for ClockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockKind::Real { .. } => write!(f, "RealClock"),
            ClockKind::Virtual(v) => write!(f, "VirtualClock(now={}ns)", v.now_ns()),
        }
    }
}

impl Default for Clock {
    /// The default clock is real time, matching the paper's testbed behaviour.
    fn default() -> Self {
        Clock::real()
    }
}

impl Clock {
    /// A wall-clock time source: `now_ns` is nanoseconds since this call, and sleeping
    /// blocks the calling thread for real.
    pub fn real() -> Clock {
        Clock {
            kind: ClockKind::Real { epoch: Instant::now() },
        }
    }

    /// A virtual time source starting at `now_ns == 0`. Sleeps return as soon as every
    /// other participant of the same clock is quiescent, advancing logical time to the
    /// earliest pending wake-up instead of waiting.
    pub fn virtual_time() -> Clock {
        Clock {
            kind: ClockKind::Virtual(Arc::new(VirtualClock::default())),
        }
    }

    /// True if this is a virtual (logical-time) clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self.kind, ClockKind::Virtual(_))
    }

    /// Nanoseconds elapsed since the clock's epoch (creation for real clocks, 0 for
    /// virtual clocks). Monotonic; used as linearizability-history timestamps. Never waits
    /// for a virtual clock's lock.
    pub fn now_ns(&self) -> u64 {
        match &self.kind {
            ClockKind::Real { epoch } => epoch.elapsed().as_nanos() as u64,
            ClockKind::Virtual(v) => v.now_ns(),
        }
    }

    /// Blocks until the clock reads at least `deadline_ns`. On a virtual clock this
    /// registers the deadline as a pending wake-up and lets logical time jump to it once
    /// all participants are quiescent.
    ///
    /// A thread that paces further clock-visible work after the sleep returns (sending
    /// operations, sleeping again) should hold a [`Clock::enter`] guard across the whole
    /// sequence, or a virtual clock may advance past it between the wake-up and that work.
    pub fn sleep_until_ns(&self, deadline_ns: u64) {
        match &self.kind {
            ClockKind::Real { epoch } => {
                let now = epoch.elapsed().as_nanos() as u64;
                if deadline_ns > now {
                    std::thread::sleep(Duration::from_nanos(deadline_ns - now));
                }
            }
            ClockKind::Virtual(v) => v.sleep_until(deadline_ns),
        }
    }

    /// Blocks for `duration` of clock time (see [`Clock::sleep_until_ns`]).
    pub fn sleep(&self, duration: Duration) {
        match &self.kind {
            ClockKind::Real { .. } => std::thread::sleep(duration),
            ClockKind::Virtual(v) => {
                let deadline = v.now_ns().saturating_add(duration.as_nanos() as u64);
                v.sleep_until(deadline);
            }
        }
    }

    /// Registers the calling thread as a participant until the returned guard drops.
    ///
    /// While any participant is running (not blocked inside one of the clock's wait
    /// primitives), a virtual clock will not advance: the thread might be about to send a
    /// message or schedule a wake-up, and jumping ahead of it would deliver futures out of
    /// order. Clients hold one per operation and the reconfiguration controller one per
    /// transfer; in-process servers run on the sending thread, inside its guard.
    ///
    /// External drivers that pace their own work against a virtual clock (e.g. a bench
    /// loop interleaving [`Clock::sleep`] with operations on a cluster) must hold a guard
    /// for the duration of that loop: an unregistered thread is invisible to the clock
    /// between returning from a sleep and issuing its next operation, so logical time
    /// could jump ahead of work it is about to do.
    pub fn enter(&self) -> ClockGuard {
        if let ClockKind::Virtual(v) = &self.kind {
            v.lock().busy += 1;
            change_thread_depth(v, 1);
        }
        ClockGuard {
            clock: self.clone(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Creates a channel whose sends and receives are visible to this clock: a virtual
    /// clock counts every undelivered message as in-flight and refuses to advance past it.
    pub(crate) fn channel<T>(&self) -> (ClockedSender<T>, ClockedReceiver<T>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let wake = self.is_virtual().then(|| Arc::new(Wake::default()));
        (
            ClockedSender { tx, clock: self.clone(), wake: wake.clone() },
            ClockedReceiver { rx: Some(rx), clock: self.clone(), wake },
        )
    }

    fn virtual_clock(&self) -> Option<&Arc<VirtualClock>> {
        match &self.kind {
            ClockKind::Real { .. } => None,
            ClockKind::Virtual(v) => Some(v),
        }
    }
}

/// Participant registration handle; see [`Clock::enter`].
///
/// `!Send` on purpose: the guard registers the *creating* thread's depth in a thread-local,
/// so dropping it from another thread would unbalance the busy accounting.
pub struct ClockGuard {
    clock: Clock,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        if let Some(v) = self.clock.virtual_clock() {
            let mut s = v.lock();
            s.busy -= 1;
            change_thread_depth(v, -1);
            v.advance_if_quiescent(&mut s);
        }
    }
}

/// The sending half of a clock-aware channel ([`Clock::channel`]).
pub(crate) struct ClockedSender<T> {
    tx: Sender<T>,
    clock: Clock,
    /// The receiver's wake-up, shared by the whole channel; `None` on a real clock.
    wake: Option<Arc<Wake>>,
}

impl<T> Clone for ClockedSender<T> {
    fn clone(&self) -> Self {
        ClockedSender {
            tx: self.tx.clone(),
            clock: self.clock.clone(),
            wake: self.wake.clone(),
        }
    }
}

impl<T> ClockedSender<T> {
    /// Sends `msg`, marking it in-flight on a virtual clock until the receiver picks it up
    /// (or drains it on drop), and wakes that receiver only. The send, the in-flight
    /// accounting and the notification happen under the clock lock so a waiting receiver
    /// can never observe the notification without the message.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        match (self.clock.virtual_clock(), &self.wake) {
            (Some(v), Some(wake)) => {
                let mut s = v.lock();
                self.tx.send(msg)?;
                s.in_flight += 1;
                wake.notify();
                Ok(())
            }
            _ => self.tx.send(msg),
        }
    }
}

/// The receiving half of a clock-aware channel ([`Clock::channel`]).
///
/// Dropping the receiver drains and un-counts any messages still queued, so replies that
/// arrive after a client loses interest (e.g. a timed-out attempt) cannot wedge the
/// virtual clock.
pub(crate) struct ClockedReceiver<T> {
    /// `Some` until dropped; the receiver is destroyed *inside* the clock lock so no send
    /// can slip between the final drain and the disconnect.
    rx: Option<Receiver<T>>,
    clock: Clock,
    /// The wake-up this receiver waits on; `None` on a real clock.
    wake: Option<Arc<Wake>>,
}

impl<T> ClockedReceiver<T> {
    fn rx(&self) -> &Receiver<T> {
        self.rx.as_ref().expect("receiver present until drop")
    }

    /// The virtual clock and this channel's wake-up, or `None` on a real clock.
    fn virtual_wake(&self) -> Option<(&Arc<VirtualClock>, &Arc<Wake>)> {
        Some((self.clock.virtual_clock()?, self.wake.as_ref()?))
    }

    /// Blocking receive that gives up once the clock reaches `deadline_ns`. On a virtual
    /// clock the deadline is registered as a pending wake-up, so an unreachable quorum
    /// times out at the modeled instant without any wall-clock wait.
    pub(crate) fn recv_deadline_ns(&self, deadline_ns: u64) -> Result<T, RecvTimeoutError> {
        match self.virtual_wake() {
            None => {
                let timeout = Duration::from_nanos(deadline_ns.saturating_sub(self.clock.now_ns()))
                    .max(MIN_REAL_WAIT);
                self.rx().recv_timeout(timeout)
            }
            Some((v, wake)) => {
                let depth = thread_depth(v);
                let mut s = v.lock();
                loop {
                    match self.rx().try_recv() {
                        Ok(msg) => {
                            s.in_flight -= 1;
                            return Ok(msg);
                        }
                        Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                        Err(TryRecvError::Empty) => {}
                    }
                    if s.now_ns >= deadline_ns {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    s.busy -= depth;
                    s.add_sleeper(deadline_ns, wake);
                    v.advance_if_quiescent(&mut s);
                    // Re-check after the advance: it may have jumped to *our own*
                    // deadline, in which case its notification already fired and waiting
                    // would sleep forever.
                    if s.now_ns < deadline_ns {
                        s = wake.wait(v, s, Some(deadline_ns));
                    }
                    s.remove_sleeper(deadline_ns, wake);
                    s.busy += depth;
                }
            }
        }
    }
}

impl<T> Drop for ClockedReceiver<T> {
    fn drop(&mut self) {
        if let Some(v) = self.clock.virtual_clock().cloned() {
            let mut s = v.lock();
            if let Some(rx) = self.rx.take() {
                while rx.try_recv().is_ok() {
                    s.in_flight -= 1;
                }
                // Disconnect inside the lock: a concurrent ClockedSender::send either ran
                // before us (its message was just drained) or will observe the disconnect.
                drop(rx);
            }
            v.advance_if_quiescent(&mut s);
        }
    }
}

/// The wake-up of one waiter: a channel's receiver, or one sleeper. Every field changes
/// under the clock lock, but a spinning waiter watches `epoch` without it.
#[derive(Default)]
struct Wake {
    /// Bumped by every notification.
    epoch: AtomicU64,
    /// The waiter spins on `epoch` and holds a spinner slot, which the notification frees.
    spinning: AtomicBool,
    /// Waiters parked on `cv`; a notification calls the condvar only if there is one.
    parked: AtomicUsize,
    cv: Condvar,
}

impl Wake {
    /// Wakes the waiter. Called under the clock lock, like every wait's final check, so a
    /// waiter never misses a notification between that check and parking.
    fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        if self.spinning.swap(false, Ordering::Relaxed) {
            SPINNERS.fetch_sub(1, Ordering::Relaxed);
        }
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Waits, with the clock lock `s` held on entry and on return, until a notification
    /// (or a spurious wake-up: callers re-check their condition).
    ///
    /// A waiter with a `deadline_ns` that is the earliest pending wake-up after `now_ns`
    /// is next in line: if a spinner slot is free, it releases the lock and spins on the
    /// epoch for up to [`SPIN`] before it parks. While it spins it stays registered as a
    /// quiescent sleeper, exactly as if it were parked.
    fn wait<'a>(
        &self,
        clock: &'a VirtualClock,
        mut s: MutexGuard<'a, VirtualState>,
        deadline_ns: Option<u64>,
    ) -> MutexGuard<'a, VirtualState> {
        let seen = self.epoch.load(Ordering::Relaxed);
        let next_in_line = deadline_ns.is_some_and(|d| s.next_wake_up() == Some(d));
        if next_in_line && !self.spinning.load(Ordering::Relaxed) && take_spinner_slot() {
            self.spinning.store(true, Ordering::Relaxed);
            drop(s);
            let woken = self.spin(seen);
            s = clock.lock();
            if woken || self.epoch.load(Ordering::Relaxed) != seen {
                return s;
            }
            // Nobody notified since `seen`, so the slot is still this waiter's.
            self.spinning.store(false, Ordering::Relaxed);
            SPINNERS.fetch_sub(1, Ordering::Relaxed);
        }
        self.parked.fetch_add(1, Ordering::Relaxed);
        s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        self.parked.fetch_sub(1, Ordering::Relaxed);
        s
    }

    /// Spins until the epoch moves past `seen` (true) or [`SPIN`] runs out (false). The
    /// spinner yields its core between checks, so it never holds a core from a thread that
    /// could run instead (when no other thread is runnable, the yield returns at once).
    fn spin(&self, seen: u64) -> bool {
        let started = Instant::now();
        loop {
            for _ in 0..16 {
                if self.epoch.load(Ordering::Acquire) != seen {
                    return true;
                }
                std::hint::spin_loop();
            }
            if started.elapsed() >= SPIN {
                return false;
            }
            std::thread::yield_now();
        }
    }
}

/// Shared state of a virtual clock. Waiters wait on wake-ups of their own (see
/// [`VirtualState::sleepers`]), all paired with this one mutex.
#[derive(Default)]
struct VirtualClock {
    state: Mutex<VirtualState>,
    /// A mirror of [`VirtualState::now_ns`], stored under the lock wherever time advances,
    /// so reading the time takes no lock.
    now_ns: AtomicU64,
}

#[derive(Default)]
struct VirtualState {
    /// Current logical time.
    now_ns: u64,
    /// Participants currently running (holding a [`ClockGuard`] and not blocked in a
    /// clock wait primitive).
    busy: usize,
    /// Messages sent through a [`ClockedSender`] and not yet received.
    in_flight: usize,
    /// Pending wake-ups of blocked threads, one entry per waiter, keyed by (deadline,
    /// address of the wake-up it waits on). A notified sleeper keeps its entry until it
    /// runs again, so the smallest deadline is then `<= now_ns` and blocks the next jump
    /// until the sleeper is back.
    sleepers: BTreeMap<(u64, usize), Arc<Wake>>,
}

impl VirtualState {
    fn add_sleeper(&mut self, deadline_ns: u64, wake: &Arc<Wake>) {
        self.sleepers.insert((deadline_ns, Arc::as_ptr(wake) as usize), wake.clone());
    }

    /// The earliest pending wake-up after `now_ns`: the instant of the next jump, unless
    /// an earlier deadline is registered first.
    fn next_wake_up(&self) -> Option<u64> {
        let after_now = (Bound::Excluded((self.now_ns, usize::MAX)), Bound::Unbounded);
        self.sleepers.range(after_now).next().map(|(&(at, _), _)| at)
    }

    /// The wake-ups of the waiters whose deadline is `at_ns`.
    fn sleepers_at(&self, at_ns: u64) -> impl Iterator<Item = &Arc<Wake>> {
        self.sleepers.range((at_ns, 0)..=(at_ns, usize::MAX)).map(|(_, wake)| wake)
    }

    fn remove_sleeper(&mut self, deadline_ns: u64, wake: &Arc<Wake>) {
        self.sleepers.remove(&(deadline_ns, Arc::as_ptr(wake) as usize));
    }
}

impl VirtualClock {
    fn lock(&self) -> MutexGuard<'_, VirtualState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// The advance rule: once no participant is running and no message is undelivered,
    /// jump logical time to the earliest pending wake-up and wake exactly the waiters
    /// registered at that instant.
    fn advance_if_quiescent(&self, s: &mut VirtualState) {
        if s.busy == 0 && s.in_flight == 0 {
            if let Some((&(at, _), _)) = s.sleepers.first_key_value() {
                if at > s.now_ns {
                    s.now_ns = at;
                    self.now_ns.store(at, Ordering::Release);
                    s.sleepers_at(at).for_each(|w| w.notify());
                }
            }
        }
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let depth = thread_depth(self);
        let mut s = self.lock();
        if s.now_ns >= deadline_ns {
            return;
        }
        let wake = Arc::new(Wake::default());
        s.busy -= depth;
        s.add_sleeper(deadline_ns, &wake);
        self.advance_if_quiescent(&mut s);
        while s.now_ns < deadline_ns {
            s = wake.wait(self, s, Some(deadline_ns));
        }
        s.remove_sleeper(deadline_ns, &wake);
        s.busy += depth;
    }
}

/// The calling thread's voluntary context switches so far (the wake-up tests' meter).
#[cfg(test)]
#[cfg(target_os = "linux")]
pub(crate) fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches line")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvError;

    impl<T> ClockedReceiver<T> {
        /// Blocking receive with no deadline (tests only: the deployment always waits with a
        /// deadline). On a virtual clock the calling participant is counted as quiescent
        /// while it waits but registers no wake-up: only a message can resume it.
        ///
        /// On a virtual clock a disconnect does not wake the waiter either, so a sender that
        /// drops while the receiver is parked leaves it parked.
        fn recv(&self) -> Result<T, RecvError> {
            match self.virtual_wake() {
                None => self.rx().recv(),
                Some((v, wake)) => {
                    // This thread contributed `depth` busy increments to *this* clock; while it
                    // is parked here, all of them must be released or time could never advance.
                    let depth = thread_depth(v);
                    let mut s = v.lock();
                    loop {
                        match self.rx().try_recv() {
                            Ok(msg) => {
                                s.in_flight -= 1;
                                return Ok(msg);
                            }
                            Err(TryRecvError::Disconnected) => return Err(RecvError),
                            Err(TryRecvError::Empty) => {}
                        }
                        s.busy -= depth;
                        v.advance_if_quiescent(&mut s);
                        s = wake.wait(v, s, None);
                        s.busy += depth;
                    }
                }
            }
        }
    }

    #[test]
    fn real_clock_is_monotonic_and_sleeps() {
        let clock = Clock::real();
        assert!(!clock.is_virtual());
        let t0 = clock.now_ns();
        clock.sleep(Duration::from_millis(2));
        let t1 = clock.now_ns();
        assert!(t1 - t0 >= 2_000_000, "slept {}ns", t1 - t0);
    }

    #[test]
    fn virtual_clock_jumps_instead_of_sleeping() {
        let clock = Clock::virtual_time();
        assert!(clock.is_virtual());
        assert_eq!(clock.now_ns(), 0);
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600)); // an hour of virtual time
        assert_eq!(clock.now_ns(), 3_600_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5), "must not really sleep");
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let a = Clock::virtual_time();
        let b = a.clone();
        a.sleep_until_ns(500);
        assert_eq!(b.now_ns(), 500);
        b.sleep_until_ns(200); // already past: no-op
        assert_eq!(a.now_ns(), 500);
    }

    #[test]
    fn clocked_channel_round_trip() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(rx.recv_deadline_ns(0).unwrap(), 7);
        assert!(matches!(rx.recv_deadline_ns(0), Err(RecvTimeoutError::Timeout)));
        clock.sleep_until_ns(1_000);
        assert_eq!(clock.now_ns(), 1_000);
    }

    #[test]
    fn recv_deadline_times_out_at_virtual_deadline() {
        let clock = Clock::virtual_time();
        let (_tx, rx) = clock.channel::<u32>();
        let wall = Instant::now();
        // Nothing will ever arrive: the deadline (a modeled 30 s timeout) must fire
        // immediately in wall-clock terms.
        let got = rx.recv_deadline_ns(30_000_000_000);
        assert!(matches!(got, Err(RecvTimeoutError::Timeout)));
        assert_eq!(clock.now_ns(), 30_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cross_thread_send_wakes_virtual_receiver() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<&'static str>();
        let sender_clock = clock.clone();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _guard = sender_clock.enter();
            // Only signal readiness once this thread is a registered participant, so the
            // receiver below cannot reach its 1 s deadline before we block.
            ready_tx.send(()).unwrap();
            sender_clock.sleep(Duration::from_millis(250)); // virtual
            tx.send("late").unwrap();
        });
        ready_rx.recv().unwrap();
        let got = rx.recv_deadline_ns(1_000_000_000).unwrap();
        assert_eq!(got, "late");
        assert!(clock.now_ns() >= 250_000_000);
        handle.join().unwrap();
    }

    #[test]
    fn nested_guards_do_not_wedge_the_clock() {
        // Both registrations must be released while the thread is parked, or the clock
        // would count the sleeper as busy forever.
        let clock = Clock::virtual_time();
        let _outer = clock.enter();
        let _inner = clock.enter();
        clock.sleep(Duration::from_secs(5));
        assert_eq!(clock.now_ns(), 5_000_000_000);
    }

    #[test]
    fn guards_on_different_clocks_are_independent() {
        // A guard on clock `a` must not leak into clock `b`'s busy accounting (the depth
        // bookkeeping is per clock, not per thread).
        let a = Clock::virtual_time();
        let b = Clock::virtual_time();
        let _ga = a.enter();
        let _gb = b.enter();
        b.sleep(Duration::from_millis(10));
        a.sleep(Duration::from_millis(20));
        assert_eq!(a.now_ns(), 20_000_000);
        assert_eq!(b.now_ns(), 10_000_000);
    }

    #[test]
    fn dropping_receiver_drains_in_flight_messages() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let sleeper = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                clock.sleep_until_ns(99);
                clock.now_ns()
            })
        };
        wait_for_state(&clock, |s| s.sleepers_at(99).count() == 1);
        assert_eq!(clock.now_ns(), 0, "in-flight messages hold time still");
        // Must un-count both and make the jump, or the parked sleeper would wedge.
        drop(rx);
        assert_eq!(sleeper.join().unwrap(), 99);
        assert!(tx.send(3).is_err(), "channel is disconnected");
    }

    /// Spins until `done` holds for `clock`'s state (another thread's transition that has
    /// no observable signal of its own, e.g. parking inside a wait primitive).
    fn wait_for_state(clock: &Clock, done: impl Fn(&VirtualState) -> bool) {
        let v = clock.virtual_clock().expect("virtual clock");
        while !done(&v.lock()) {
            std::thread::yield_now();
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_send_wakes_only_its_receiver() {
        const BYSTANDERS: usize = 8;
        const ROUND_TRIPS: u32 = 1_000;
        let clock = Clock::virtual_time();
        let entered = Arc::new(std::sync::Barrier::new(BYSTANDERS + 1));
        let mut releases = Vec::new();
        let mut bystanders = Vec::new();
        for _ in 0..BYSTANDERS {
            let (tx, rx) = clock.channel::<()>();
            releases.push(tx);
            let (clock, entered) = (clock.clone(), entered.clone());
            bystanders.push(std::thread::spawn(move || {
                let _participant = clock.enter();
                entered.wait();
                let before = voluntary_switches();
                rx.recv().unwrap();
                voluntary_switches() - before
            }));
        }
        // Every bystander has entered; once none is busy, all of them are parked.
        entered.wait();
        wait_for_state(&clock, |s| s.busy == 0);

        let (ping_tx, ping_rx) = clock.channel::<u32>();
        let (pong_tx, pong_rx) = clock.channel::<u32>();
        let ponger = std::thread::spawn(move || {
            for _ in 0..ROUND_TRIPS {
                pong_tx.send(ping_rx.recv().unwrap()).unwrap();
            }
        });
        for i in 0..ROUND_TRIPS {
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv().unwrap(), i);
        }
        ponger.join().unwrap();

        for tx in &releases {
            tx.send(()).unwrap();
        }
        let switches: Vec<u64> = bystanders.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            switches.iter().all(|&n| n < 20),
            "bystanders woke during {ROUND_TRIPS} unrelated round trips: {switches:?} switches"
        );
    }

    /// The same bystander pin on the deployment's own wait: bystanders park in
    /// `recv_deadline_ns` with a deadline no jump reaches, and the ping-pong pair (entered
    /// participants, like clients) waits the same way.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_send_wakes_only_its_deadline_receiver() {
        const BYSTANDERS: usize = 8;
        const ROUND_TRIPS: u32 = 1_000;
        const FAR: u64 = u64::MAX;
        let clock = Clock::virtual_time();
        // This thread stays a participant until the bystanders are released, so no jump
        // to `FAR` can time them out.
        let _participant = clock.enter();
        let entered = Arc::new(std::sync::Barrier::new(BYSTANDERS + 1));
        let mut releases = Vec::new();
        let mut bystanders = Vec::new();
        for _ in 0..BYSTANDERS {
            let (tx, rx) = clock.channel::<()>();
            releases.push(tx);
            let (clock, entered) = (clock.clone(), entered.clone());
            bystanders.push(std::thread::spawn(move || {
                let _participant = clock.enter();
                entered.wait();
                let before = voluntary_switches();
                rx.recv_deadline_ns(FAR).unwrap();
                voluntary_switches() - before
            }));
        }
        // Every bystander has entered; once all of them sleep on `FAR`, all are parked.
        entered.wait();
        wait_for_state(&clock, |s| s.sleepers_at(FAR).count() == BYSTANDERS);

        let (ping_tx, ping_rx) = clock.channel::<u32>();
        let (pong_tx, pong_rx) = clock.channel::<u32>();
        let ponger = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let _participant = clock.enter();
                for _ in 0..ROUND_TRIPS {
                    pong_tx.send(ping_rx.recv_deadline_ns(FAR).unwrap()).unwrap();
                }
            })
        };
        for i in 0..ROUND_TRIPS {
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv_deadline_ns(FAR).unwrap(), i);
        }
        ponger.join().unwrap();

        for tx in &releases {
            tx.send(()).unwrap();
        }
        let switches: Vec<u64> = bystanders.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            switches.iter().all(|&n| n < 20),
            "bystanders woke during {ROUND_TRIPS} unrelated round trips: {switches:?} switches"
        );
        assert_eq!(clock.now_ns(), 0, "no deadline was reached");
    }

    /// Parks per participant while two participants hand a fresh clock back and forth
    /// `turns` times each: each sleeps to the instant after the other's.
    #[cfg(target_os = "linux")]
    fn hand_off_parks(turns: u64) -> Vec<u64> {
        let clock = Clock::virtual_time();
        let entered = Arc::new(std::sync::Barrier::new(2));
        let players: Vec<_> = (0..2)
            .map(|me| {
                let (clock, entered) = (clock.clone(), entered.clone());
                std::thread::spawn(move || {
                    let _participant = clock.enter();
                    entered.wait();
                    let before = voluntary_switches();
                    for turn in 0..turns {
                        clock.sleep_until_ns(2 * turn + me + 1);
                    }
                    voluntary_switches() - before
                })
            })
            .collect();
        let parks = players.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(clock.now_ns(), 2 * turns);
        parks
    }

    /// The waiter that is next in line spins, so a hand-off rarely parks; without the spin
    /// every hand-off costs one park. Spinner slots are process-wide, and other tests of
    /// this binary may hold them for a while, so the pair gets a few tries.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_hand_off_between_two_participants_rarely_parks() {
        const TURNS: u64 = 2_000;
        const TRIES: usize = 10;
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // nowhere to spin while the other participant runs
        }
        let mut tries = Vec::new();
        let rare = (0..TRIES).any(|_| {
            let parks = hand_off_parks(TURNS);
            let rare = parks.iter().all(|&n| n < TURNS / 2);
            tries.push(parks);
            rare
        });
        println!("hand-off: parks per participant over {TURNS} turns, per try: {tries:?}");
        assert!(rare, "hand-offs parked in every try: {tries:?} parks over {TURNS} turns each");
    }

    #[test]
    fn now_ns_does_not_wait_for_the_clock_lock() {
        let clock = Clock::virtual_time();
        clock.sleep_until_ns(42);
        let v = clock.virtual_clock().unwrap().clone();
        let held = v.lock();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let reader = {
            let clock = clock.clone();
            std::thread::spawn(move || done_tx.send(clock.now_ns()).unwrap())
        };
        let read = done_rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        reader.join().unwrap();
        assert_eq!(read.expect("now_ns waited for the clock lock"), 42);
    }

    #[test]
    fn sleepers_at_one_instant_all_wake_there() {
        let clock = Clock::virtual_time();
        let participant = clock.enter(); // holds time still until both are parked
        let sleepers: Vec<_> = (0..2)
            .map(|_| {
                let clock = clock.clone();
                std::thread::spawn(move || {
                    clock.sleep_until_ns(1_000);
                    clock.now_ns()
                })
            })
            .collect();
        wait_for_state(&clock, |s| s.sleepers_at(1_000).count() == 2);
        drop(participant); // the last participant's guard drop makes the jump
        for sleeper in sleepers {
            assert_eq!(sleeper.join().unwrap(), 1_000);
        }
        assert_eq!(clock.now_ns(), 1_000);
        assert!(clock.virtual_clock().unwrap().lock().sleepers.is_empty());
    }

    #[test]
    fn deadline_fires_while_a_bystander_stays_parked() {
        let clock = Clock::virtual_time();
        let (release, parked_rx) = clock.channel::<u32>();
        let bystander = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let _participant = clock.enter();
                parked_rx.recv().unwrap()
            })
        };
        let (_tx, rx) = clock.channel::<u32>();
        assert!(matches!(rx.recv_deadline_ns(1_000), Err(RecvTimeoutError::Timeout)));
        assert_eq!(clock.now_ns(), 1_000);
        // The jump to 1 000 did not resume the bystander: it is still parked in `recv`.
        wait_for_state(&clock, |s| s.busy == 0);
        assert!(!bystander.is_finished());
        release.send(7).unwrap();
        assert_eq!(bystander.join().unwrap(), 7);
    }

    /// SplitMix64: a seeded, dependency-free stream for the stress schedule.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Seeded send / `recv_deadline_ns` / sleep rounds over shared channels. A thread
    /// publishes its channel's sender only while it is receiving, so nothing is ever
    /// queued to a thread that sleeps (a parked sleeper would never drain it). Returns how
    /// many messages were delivered.
    fn stress(clock: &Clock, threads: usize, rounds: u32, seed: u64) -> usize {
        type Slots = Mutex<Vec<Option<ClockedSender<u64>>>>;
        let slots: Arc<Slots> = Arc::new(Mutex::new((0..threads).map(|_| None).collect()));
        let entered = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let (clock, slots, entered) = (clock.clone(), slots.clone(), entered.clone());
                std::thread::spawn(move || {
                    let _participant = clock.enter();
                    // Start together: a thread that ran its rounds before the next one
                    // was scheduled would never meet a receiver.
                    entered.wait();
                    let mut rng = seed ^ (me as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let mut last = clock.now_ns();
                    let mut delivered = 0;
                    for _ in 0..rounds {
                        let (op, arg) = (splitmix(&mut rng) % 3, splitmix(&mut rng));
                        match op {
                            0 => {
                                let peer = arg as usize % threads;
                                if let Some(tx) = &slots.lock().unwrap()[peer] {
                                    let _ = tx.send(arg);
                                }
                            }
                            1 => {
                                let (tx, rx) = clock.channel();
                                slots.lock().unwrap()[me] = Some(tx);
                                let deadline = clock.now_ns() + 1 + arg % 1_000;
                                while rx.recv_deadline_ns(deadline).is_ok() {
                                    delivered += 1;
                                }
                                slots.lock().unwrap()[me] = None;
                            }
                            _ => clock.sleep(Duration::from_nanos(1 + arg % 1_000)),
                        }
                        let now = clock.now_ns();
                        assert!(now >= last, "thread {me}: time went back {last} -> {now}");
                        last = now;
                    }
                    delivered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    }

    #[test]
    fn seeded_stress_loses_no_wake_up() {
        let clock = Clock::virtual_time();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| stress(&clock, 8, 2_000, 0x5EED));
                let _ = done_tx.send(outcome.ok());
            });
        }
        // A lost wake-up parks a thread forever; fail on a watchdog instead of hanging.
        let delivered = match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(delivered) => delivered.expect("a stress thread panicked (see above)"),
            Err(_) => panic!("stress did not finish within 60 s: a wake-up was lost"),
        };
        assert!(delivered > 0 && clock.now_ns() > 0);
        let s = clock.virtual_clock().unwrap().lock();
        assert!(s.busy == 0 && s.in_flight == 0 && s.sleepers.is_empty());
    }
}
