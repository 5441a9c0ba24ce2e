//! The sans-IO operation driver: every decision a client takes while one GET or PUT runs.
//!
//! An [`OpDriver`] owns the protocol machine, the value, the configuration and the whole
//! retry policy of one operation. Its host — the threaded client, the simulator, a test —
//! owns time and bytes only: it opens and closes per-attempt reply routes, arms one timer
//! per attempt, moves [`Outbound`] messages and feeds replies and timeouts back in. Each
//! input returns one [`Step`] saying what the host does next, so resume-not-restart on
//! timeout (§4.5), tag-pinned re-entry into a new epoch (§4.6), stale-epoch discard and
//! the attempt budget exist once, here, for every runtime.

use crate::msg::{OpOutcome, OpProgress, Outbound, ProtoReply};
use crate::quorum::OpCore;
use crate::{AbdGet, AbdPut, CasGet, CasPut};
use legostore_obs::{OpSpan, SpanEventKind};
use legostore_types::{
    ClientId, ConfigEpoch, Configuration, DcId, Key, OpKind, ProtocolKind, StoreError,
    StoreResult, Tag, Value,
};

/// The four protocol machines behind the one dispatch.
#[derive(Debug, Clone)]
enum Machine {
    AbdPut(AbdPut),
    AbdGet(AbdGet),
    CasPut(CasPut),
    CasGet(CasGet),
}

macro_rules! each_machine {
    ($machine:expr, $m:ident => $body:expr) => {
        match $machine {
            Machine::AbdPut($m) => $body,
            Machine::AbdGet($m) => $body,
            Machine::CasPut($m) => $body,
            Machine::CasGet($m) => $body,
        }
    };
}

impl Machine {
    fn start(&self) -> Vec<Outbound> {
        each_machine!(self, m => m.start())
    }

    fn resend_widened(&mut self) -> Vec<Outbound> {
        each_machine!(self, m => m.resend_widened())
    }

    fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        each_machine!(self, m => m.on_reply(from, phase, reply))
    }

    fn core(&self) -> &OpCore {
        each_machine!(self, m => &m.core)
    }

    /// The tag a PUT has committed to (`None` for GETs and PUTs still querying).
    fn chosen_tag(&self) -> Option<Tag> {
        match self {
            Machine::AbdPut(m) => m.chosen_tag(),
            Machine::CasPut(m) => m.chosen_tag(),
            Machine::AbdGet(_) | Machine::CasGet(_) => None,
        }
    }
}

/// Who runs an operation, on which key, under which policy.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Key operated on.
    pub key: Key,
    /// Data center of the client (selects the preferred quorums).
    pub client_dc: DcId,
    /// Tie-breaker of the tags this operation mints; one per operation, kept across
    /// every rebuild.
    pub client_id: ClientId,
    /// Attempts, the first included, before the operation gives up with
    /// [`StoreError::QuorumUnreachable`]. Every new attempt counts, whatever caused it.
    pub max_attempts: u32,
}

/// What a driver may ask of its host while deciding, each read lazily.
pub struct Host<'a> {
    /// The host's clock, read only while a span is being recorded.
    pub now_ns: &'a dyn Fn() -> u64,
    /// The metadata service's current configuration of the key (`None`: not listed),
    /// read when an attempt times out or a post-redirect `KeyNotFound` arrives.
    pub metadata: &'a dyn Fn() -> Option<Configuration>,
    /// The client's last decoded `(tag, value)` of the key, read whenever a CAS GET
    /// machine is (re)built (GETs always take the paper's one-phase fast paths).
    pub cache: &'a dyn Fn() -> Option<(Tag, Value)>,
}

/// Why the driver asked for a new attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The attempt timed out: the same machine resumes, its current phase re-sent to
    /// the full placement (§4.5).
    Timeout,
    /// A server redirected the operation into a newer epoch. The host owes one metadata
    /// round trip before it opens the next attempt.
    Redirect,
    /// The attempt timed out and the metadata service already lists a newer epoch.
    EpochMoved,
    /// A retryable in-protocol failure: a shard-starved CAS GET, or a post-redirect
    /// `KeyNotFound` that raced the controller's write-new round.
    Failure,
}

/// A successfully finished operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// Tag of the version written or read.
    pub tag: Tag,
    /// The value written (PUT) or read (GET).
    pub value: Value,
    /// True if a GET finished in one phase.
    pub one_phase: bool,
}

/// What the host does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Keep waiting on the current attempt.
    Wait,
    /// Send these on the current attempt and keep waiting.
    Send(Vec<Outbound>),
    /// Close the current attempt's reply route (stragglers are discarded), pay one
    /// metadata round trip if the cause is [`RetryCause::Redirect`], then open a new
    /// route, arm a new timer and send [`OpDriver::open_attempt`].
    Reopen(RetryCause),
    /// The operation is over.
    Done(StoreResult<Completed>),
}

/// One GET or PUT, from its first message to its result.
#[derive(Debug, Clone)]
pub struct OpDriver {
    spec: OpSpec,
    config: Configuration,
    /// `Some` for a PUT.
    value: Option<Value>,
    machine: Machine,
    attempts: u32,
    /// Why the attempt about to open was asked for (`None`: it is the first).
    reopening: Option<RetryCause>,
    /// True once a reconfiguration moved this operation into a newer epoch. From then
    /// on a `KeyNotFound` quorum may be the controller's write-new round not having
    /// reached the new placement yet, so it is retried while the metadata lists the key.
    crossed_epochs: bool,
    span: Option<OpSpan>,
    /// When the running phase's requests went out (a reply's network share is measured
    /// from here).
    phase_started_ns: u64,
}

fn build(
    spec: &OpSpec,
    config: &Configuration,
    value: Option<&Value>,
    pinned: Option<Tag>,
    host: &Host,
) -> Machine {
    let (key, config, dc, id) = (spec.key.clone(), config.clone(), spec.client_dc, spec.client_id);
    match (config.protocol, value.cloned(), pinned) {
        (ProtocolKind::Abd, Some(v), Some(tag)) => {
            Machine::AbdPut(AbdPut::resume_write(key, config, dc, id, tag, v))
        }
        (ProtocolKind::Abd, Some(v), None) => Machine::AbdPut(AbdPut::new(key, config, dc, id, v)),
        (ProtocolKind::Abd, None, _) => {
            Machine::AbdGet(AbdGet::new(key, config, dc, true))
        }
        (ProtocolKind::Cas, Some(v), Some(tag)) => {
            Machine::CasPut(CasPut::resume_write(key, config, dc, id, tag, v))
        }
        (ProtocolKind::Cas, Some(v), None) => Machine::CasPut(CasPut::new(key, config, dc, id, v)),
        (ProtocolKind::Cas, None, _) => {
            Machine::CasGet(CasGet::new(key, config, dc, (host.cache)()))
        }
    }
}

impl OpDriver {
    /// A PUT of `value`, or a GET if it is `None`, against `config`. `span`, if given,
    /// collects the operation's protocol events and is handed back by
    /// [`OpDriver::take_span`].
    pub fn new(
        mut spec: OpSpec,
        config: Configuration,
        value: Option<Value>,
        span: Option<OpSpan>,
        host: &Host,
    ) -> Self {
        spec.max_attempts = spec.max_attempts.max(1);
        OpDriver {
            machine: build(&spec, &config, value.as_ref(), None, host),
            spec,
            config,
            value,
            attempts: 1,
            reopening: None,
            crossed_epochs: false,
            span,
            phase_started_ns: 0,
        }
    }

    /// The key operated on.
    pub fn key(&self) -> &Key {
        &self.spec.key
    }

    /// GET or PUT.
    pub fn kind(&self) -> OpKind {
        if self.value.is_some() { OpKind::Put } else { OpKind::Get }
    }

    /// The client's data center.
    pub fn client_dc(&self) -> DcId {
        self.spec.client_dc
    }

    /// The configuration the operation currently runs against (hosts refresh their
    /// view from it after a [`RetryCause::Redirect`] or [`RetryCause::EpochMoved`]).
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The protocol phase currently collecting replies.
    pub fn phase(&self) -> u8 {
        self.machine.core().phase
    }

    /// Hands the span back to the host (which adds the terminal event).
    pub fn take_span(&mut self) -> Option<OpSpan> {
        self.span.take()
    }

    /// The host's clock, read only while a span is recorded.
    fn now(&self, host: &Host) -> Option<u64> {
        self.span.as_ref().map(|_| (host.now_ns)())
    }

    fn push(&mut self, at_ns: u64, kind: SpanEventKind) {
        if let Some(span) = &mut self.span {
            span.push(at_ns, kind);
        }
    }

    fn phase_started(&mut self, now_ns: u64) {
        self.phase_started_ns = now_ns;
        self.push(now_ns, SpanEventKind::PhaseStart { phase: self.phase() });
    }

    /// The messages of the attempt the host just opened — the first one, or the one a
    /// [`Step::Reopen`] asked for.
    ///
    /// After a timeout the machine *resumes*, its current phase re-sent to the full
    /// placement. After anything else it is rebuilt for the (possibly new) configuration
    /// with the tag a PUT already chose pinned: its writes may have landed — and been
    /// transferred into the new placement — so a fresh machine would install the same
    /// value again under a higher tag, one logical write with two linearization points.
    /// GETs and PUTs still querying restart fresh.
    pub fn open_attempt(&mut self, host: &Host) -> Vec<Outbound> {
        let msgs = match self.reopening.take() {
            None => self.machine.start(),
            Some(RetryCause::Timeout) => self.machine.resend_widened(),
            Some(_) => {
                let pinned = self.machine.chosen_tag();
                let started = self.now(host);
                self.machine = build(&self.spec, &self.config, self.value.as_ref(), pinned, host);
                // A pinned CAS PUT re-encodes under the new configuration's code.
                if let (Some(t0), Some(_), ProtocolKind::Cas) = (started, pinned, self.config.protocol) {
                    let now = (host.now_ns)();
                    self.push(now, SpanEventKind::Encode { dur_ns: now.saturating_sub(t0) });
                }
                self.machine.start()
            }
        };
        if let Some(now) = self.now(host) {
            self.phase_started(now);
        }
        msgs
    }

    /// Feeds in one reply that arrived on the current attempt's route: `phase` and
    /// `epoch` are the echoes the server stamped it with, `service_ns` its reported
    /// processing time.
    pub fn on_reply(
        &mut self,
        from: DcId,
        phase: u8,
        epoch: ConfigEpoch,
        service_ns: u64,
        reply: ProtoReply,
        host: &Host,
    ) -> Step {
        // Servers echo the epoch of the request they answer, so any other epoch marks a
        // straggler solicited before a reconfiguration moved this operation.
        if epoch != self.config.epoch {
            return Step::Wait;
        }
        // A redirect to a configuration that does not validate (garbled, or from a faulty
        // server) is discarded the same way: crossing into it would build a machine that
        // cannot exist, so the attempt times out as if the reply were lost.
        if let ProtoReply::OperationFail { new_config } = &reply {
            if new_config.validate().is_err() {
                return Step::Wait;
            }
        }
        let seen_ns = self.now(host);
        if let Some(now) = seen_ns {
            let network_ns = now.saturating_sub(self.phase_started_ns).saturating_sub(service_ns);
            self.push(now, SpanEventKind::Reply { from, phase, service_ns, network_ns });
        }
        let was_phase = self.phase();
        let cas = self.config.protocol == ProtocolKind::Cas;
        // Time the step just taken, for the two steps that run the erasure codec.
        let since_seen = move |now: u64| now.saturating_sub(seen_ns.unwrap_or(now));
        match self.machine.on_reply(from, phase, reply) {
            OpProgress::Pending => Step::Wait,
            OpProgress::Send(msgs) => {
                if let Some(now) = self.now(host) {
                    // A CAS PUT builds its codeword on leaving phase 1.
                    if cas && was_phase == 1 && self.value.is_some() {
                        self.push(now, SpanEventKind::Encode { dur_ns: since_seen(now) });
                    }
                    self.phase_started(now);
                }
                Step::Send(msgs)
            }
            OpProgress::Done(OpOutcome::PutOk { tag }) => {
                let value = self.value.clone().unwrap_or_else(Value::empty);
                Step::Done(Ok(Completed { tag, value, one_phase: false }))
            }
            OpProgress::Done(OpOutcome::GetOk { tag, value, one_phase }) => {
                // The completing step of a two-phase CAS GET decodes the value.
                if let Some(now) = self.now(host).filter(|_| cas) {
                    self.push(now, SpanEventKind::Decode { dur_ns: since_seen(now) });
                }
                Step::Done(Ok(Completed { tag, value, one_phase }))
            }
            OpProgress::Done(OpOutcome::Reconfigured { new_config }) => {
                if let Some(now) = self.now(host) {
                    self.push(now, SpanEventKind::ReconfigRestart);
                }
                let last = StoreError::OperationFailedByReconfig { new_epoch: new_config.epoch };
                self.cross_into(*new_config);
                self.reopen(RetryCause::Redirect, last)
            }
            OpProgress::Done(OpOutcome::Failed(err)) => {
                let racing_transfer = self.crossed_epochs
                    && matches!(err, StoreError::KeyNotFound(_))
                    && (host.metadata)().is_some();
                if err.is_retryable() || racing_transfer {
                    self.reopen(RetryCause::Failure, err)
                } else {
                    Step::Done(Err(err))
                }
            }
        }
    }

    /// The current attempt's timer fired with the operation still pending.
    pub fn on_timeout(&mut self, host: &Host) -> Step {
        let (needed, received) = self.machine.core().pending_quorum();
        let last = StoreError::QuorumTimeout { needed, received };
        if let Some(fresh) = (host.metadata)().filter(|c| c.epoch > self.config.epoch) {
            self.cross_into(fresh);
            return self.reopen(RetryCause::EpochMoved, last);
        }
        let phase = self.phase();
        let step = self.reopen(RetryCause::Timeout, last);
        if let (Step::Reopen(_), Some(now)) = (&step, self.now(host)) {
            self.push(now, SpanEventKind::TimeoutWiden { phase });
        }
        step
    }

    fn cross_into(&mut self, config: Configuration) {
        self.config = config;
        self.crossed_epochs = true;
    }

    /// Ends the current attempt after `last` went wrong: the next attempt (see
    /// [`OpDriver::open_attempt`]), or the terminal verdict once the budget is spent — a
    /// typed, non-retryable answer to a beyond-`f` fault instead of the last symptom.
    fn reopen(&mut self, cause: RetryCause, last: StoreError) -> Step {
        if self.attempts >= self.spec.max_attempts {
            return Step::Done(Err(StoreError::QuorumUnreachable {
                attempts: self.spec.max_attempts,
                last: Box::new(last),
            }));
        }
        self.attempts += 1;
        self.reopening = Some(cause);
        Step::Reopen(cause)
    }
}
