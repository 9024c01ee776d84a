#include "sim/domains.hh"

#include <algorithm>
#include <optional>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace lazygpu
{

DomainScheduler::DomainScheduler(Options opts, unsigned num_sa,
                                 unsigned num_banks)
    : opts_(opts), num_sa_(num_sa), num_banks_(num_banks)
{
    panic_if(opts_.lookahead == 0, "domain lookahead must be >= 1");
    panic_if(num_sa_ == 0 || num_banks_ == 0,
             "domain scheduler needs at least one SA and one bank domain");
    sa_.reserve(num_sa_);
    for (unsigned s = 0; s < num_sa_; ++s)
        sa_.push_back(std::make_unique<SaDomain>());
    banks_.reserve(num_banks_);
    for (unsigned b = 0; b < num_banks_; ++b)
        banks_.push_back(std::make_unique<BankDomain>());
    cursor_.assign(std::max(num_sa_, num_banks_), nullptr);
    phase_errors_.resize(std::max(num_sa_, num_banks_));
    if (opts_.profile)
        profile_.domainSec.assign(num_sa_ + num_banks_, 0.0);

    // The coordinator executes domains too, so N requested threads mean
    // N-1 pool workers. More threads than domains in the wider phase
    // could never all be busy.
    const unsigned requested = opts_.threads == 0 ? 1 : opts_.threads;
    const unsigned nthreads =
        std::min(requested, std::max(num_sa_, num_banks_));
    // Workers arm a RecoverableScope iff the coordinator had one when
    // the scheduler was built (i.e. we are inside a sweep worker), so a
    // panic on a domain thread throws a SimError that the barrier
    // rethrows instead of aborting the whole sweep. Note a worker-thrown
    // SimError carries an invalid snapshot: the thread-local snapshot
    // source lives on the coordinator (DESIGN.md §13).
    const bool arm = recoverableErrorsArmed();
    for (unsigned i = 0; i + 1 < nthreads; ++i)
        workers_.emplace_back([this, arm] { workerLoop(arm); });
}

DomainScheduler::~DomainScheduler()
{
    {
        std::lock_guard lk(pool_mutex_);
        pool_exit_ = true;
    }
    pool_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

unsigned
DomainScheduler::addRouter(RouteFn fn)
{
    routers_.push_back(std::move(fn));
    return static_cast<unsigned>(routers_.size() - 1);
}

MemDevice &
DomainScheduler::port(unsigned sa, unsigned router)
{
    auto &ports = sa_[sa]->ports;
    while (ports.size() <= router)
        ports.push_back(nullptr);
    if (!ports[router])
        ports[router] = std::make_unique<BoundaryPort>(*this, sa, router);
    return *ports[router];
}

DomainScheduler::Crossing *
DomainScheduler::CrossingPool::take()
{
    if (!free_) {
        auto chunk = std::make_unique<Chunk>();
        for (Crossing &c : chunk->slots)
            give(&c);
        chunk->next = std::move(chunks_);
        chunks_ = std::move(chunk);
    }
    Crossing *c = free_;
    free_ = c->next;
    return c;
}

void
DomainScheduler::CrossingPool::give(Crossing *c)
{
    c->done = nullptr;
    c->next = free_;
    free_ = c;
}

void
DomainScheduler::enqueueRequest(unsigned sa, unsigned router,
                                const MemAccess &acc, Completion done)
{
    SaDomain &d = *sa_[sa];
    Crossing *c = d.pool.take();
    c->when = d.engine.now();
    c->sa = sa;
    c->router = router;
    c->acc = acc;
    c->done = done;
    d.outbox.push(c);
}

void
DomainScheduler::routeRequests()
{
    // Fixed merge order: (when, SA index, per-SA enqueue order). The
    // key is unique, independent of the thread count, and preserves
    // each SA's own FIFO — so shared-port arbitration (inside the
    // router) sees a deterministic request sequence. Each outbox is
    // already in (when, enqueue) order (an SA's clock never runs
    // backwards), so a k-way merge of the outbox heads produces it
    // without a scratch buffer.
    for (unsigned s = 0; s < num_sa_; ++s) {
        cursor_[s] = sa_[s]->outbox.head;
        sa_[s]->outbox = CrossingList{};
    }
    while (true) {
        unsigned pick = num_sa_;
        for (unsigned s = 0; s < num_sa_; ++s) {
            if (cursor_[s] && (pick == num_sa_ ||
                               cursor_[s]->when < cursor_[pick]->when))
                pick = s;
        }
        if (pick == num_sa_)
            return;
        Crossing *c = cursor_[pick];
        cursor_[pick] = c->next;
        const Route r = routers_[c->router](pick, c->when, c->acc);
        // A bank may be locally ahead of the request tick: when an SA
        // went idle mid-window and the barrier refill re-activated it
        // behind the other domains, its next window starts before banks
        // that already ran further. Clamping to the bank's own clock
        // keeps the event out of the domain's past; it happens at the
        // barrier, on coordinator state only, so it is as deterministic
        // as the merge order itself.
        Engine &be = banks_[r.bank]->engine;
        const Tick when = std::max(r.start, be.now());
        MemDevice *target = r.target;
        if (!c->done) {
            // Fire-and-forget write: no response crosses back.
            be.schedule(when, [target, acc = c->acc]() {
                target->access(acc, nullptr);
            });
            sa_[pick]->pool.give(c);
            continue;
        }
        c->bank = r.bank;
        be.schedule(when, [this, target, c]() {
            target->access(c->acc, [this, c]() { respond(c); });
        });
    }
}

void
DomainScheduler::respond(Crossing *c)
{
    BankDomain &d = *banks_[c->bank];
    // Delivery tick: the crossing back to the SA pays the same fixed
    // hop latency that defines the lookahead, which is exactly what
    // guarantees the delivery lands in the *next* window (>= any SA
    // domain's current time).
    c->when = d.engine.now() + opts_.lookahead;
    d.responses.push(c);
}

void
DomainScheduler::deliverResponses()
{
    // Each receiving SA must see its responses in (when, bank domain,
    // per-bank enqueue order): that order assigns the SA engine's
    // FIFO-within-tick sequence numbers deterministically. A k-way
    // merge of the (when, enqueue)-ordered bank lists on (when, bank)
    // yields exactly that order for every SA at once; how different
    // SAs' deliveries interleave does not matter, as they land in
    // different wheels.
    for (unsigned b = 0; b < num_banks_; ++b) {
        cursor_[b] = banks_[b]->responses.head;
        banks_[b]->responses = CrossingList{};
    }
    while (true) {
        unsigned pick = num_banks_;
        for (unsigned b = 0; b < num_banks_; ++b) {
            if (cursor_[b] && (pick == num_banks_ ||
                               cursor_[b]->when < cursor_[pick]->when))
                pick = b;
        }
        if (pick == num_banks_)
            return;
        Crossing *c = cursor_[pick];
        cursor_[pick] = c->next;
        // The +lookahead crossing latency puts c->when at or past every
        // SA's window end, but clamp anyway (see routeRequests) so the
        // maxTick-saturated window edge can never schedule in the past.
        SaDomain &sd = *sa_[c->sa];
        sd.engine.schedule(std::max(c->when, sd.engine.now()), c->done);
        sd.pool.give(c);
    }
}

namespace
{

using ProfClock = std::chrono::steady_clock;

double
secondsSince(ProfClock::time_point t0)
{
    return std::chrono::duration<double>(ProfClock::now() - t0).count();
}

} // namespace

void
DomainScheduler::runDomain(unsigned item)
{
    try {
        Engine &e =
            phase_is_sa_ ? sa_[item]->engine : banks_[item]->engine;
        if (opts_.profile) {
            const auto t0 = ProfClock::now();
            e.runWindow(phase_end_, phase_limit_);
            const double sec = secondsSince(t0);
            const unsigned slot = phase_is_sa_ ? item : num_sa_ + item;
            std::lock_guard lk(profile_mutex_);
            profile_.domainSec[slot] += sec;
        } else {
            e.runWindow(phase_end_, phase_limit_);
        }
    } catch (...) {
        phase_errors_[item] = std::current_exception();
    }
}

int
DomainScheduler::claimDomain(std::uint64_t gen)
{
    // The generation check under the phase-publishing mutex is what
    // keeps a straggler worker (still draining a previous phase's empty
    // claim loop) from picking up an item of a phase whose parameters
    // it has not yet observed.
    std::lock_guard lk(pool_mutex_);
    if (pool_gen_ != gen || phase_claimed_ >= phase_total_)
        return -1;
    return static_cast<int>(phase_claimed_++);
}

void
DomainScheduler::drainClaims(std::uint64_t gen)
{
    while (true) {
        const int i = claimDomain(gen);
        if (i < 0)
            return;
        runDomain(static_cast<unsigned>(i));
        std::lock_guard lk(pool_mutex_);
        if (++phase_done_ == phase_total_)
            pool_done_.notify_all();
    }
}

void
DomainScheduler::workerLoop(bool arm_recoverable)
{
    std::optional<RecoverableScope> scope;
    if (arm_recoverable)
        scope.emplace();
    std::uint64_t last_gen = 0;
    while (true) {
        {
            std::unique_lock lk(pool_mutex_);
            pool_work_.wait(lk, [&] {
                return pool_exit_ || pool_gen_ != last_gen;
            });
            if (pool_exit_)
                return;
            last_gen = pool_gen_;
        }
        drainClaims(last_gen);
    }
}

void
DomainScheduler::runPhase(bool sa_phase, Tick end, Tick limit)
{
    const auto phase_t0 = ProfClock::now();
    const unsigned total = sa_phase ? num_sa_ : num_banks_;
    if (workers_.empty()) {
        phase_is_sa_ = sa_phase;
        phase_end_ = end;
        phase_limit_ = limit;
        phase_total_ = total;
        std::fill_n(phase_errors_.begin(), total, nullptr);
        for (unsigned i = 0; i < total; ++i)
            runDomain(i);
    } else {
        std::uint64_t gen;
        {
            std::lock_guard lk(pool_mutex_);
            phase_is_sa_ = sa_phase;
            phase_end_ = end;
            phase_limit_ = limit;
            phase_total_ = total;
            phase_claimed_ = 0;
            phase_done_ = 0;
            std::fill_n(phase_errors_.begin(), total, nullptr);
            gen = ++pool_gen_;
        }
        pool_work_.notify_all();
        drainClaims(gen);
        const auto wait_t0 = ProfClock::now();
        {
            std::unique_lock lk(pool_mutex_);
            pool_done_.wait(lk, [&] { return phase_done_ == total; });
        }
        if (opts_.profile)
            profile_.barrierWaitSec += secondsSince(wait_t0);
    }
    if (opts_.profile) {
        (sa_phase ? profile_.saPhaseSec : profile_.bankPhaseSec) +=
            secondsSince(phase_t0);
    }
    // Rethrow the first failure in fixed domain order so error
    // reporting is as deterministic as the simulation itself.
    for (unsigned i = 0; i < total; ++i)
        if (phase_errors_[i])
            std::rethrow_exception(phase_errors_[i]);
}

void
DomainScheduler::publishBeat(std::uint64_t progress)
{
    const Tick t = now();
    const std::uint64_t events = eventsExecuted();
    ctl_->heartbeat.store(t + events + progress,
                          std::memory_order_relaxed);
    trace_[trace_count_++ % recentTraceSize] = {t,
                                                        events + progress};
    const std::uint32_t cancel =
        ctl_->cancel.load(std::memory_order_relaxed);
    if (cancel) {
        throwSimError(
            SimError::Kind::Timeout, __FILE__, __LINE__,
            detail::formatString(
                "watchdog cancelled the run at cycle %llu (%s)",
                static_cast<unsigned long long>(t),
                cancel == ExecControl::cancelStalled
                    ? "no forward progress"
                    : "wall-clock timeout exceeded"));
    }
}

void
DomainScheduler::externalHeartbeat(std::uint64_t progress)
{
    if (ctl_)
        publishBeat(progress);
}

void
DomainScheduler::attachTrace(TraceSink *trace)
{
    std::uint16_t track = 0;
    for (auto &d : sa_)
        d->engine.attachTrace(trace, track++);
    for (auto &d : banks_)
        d->engine.attachTrace(trace, track++);
}

void
DomainScheduler::checkpointTo(ByteWriter &w) const
{
    w.tag("DOMS");
    w.u64(num_sa_);
    w.u64(num_banks_);
    const auto domain = [&w](const Engine &e) {
        const Engine::CheckpointState s = e.checkpointState();
        w.u64(s.now);
        w.u64(s.nextSeq);
        w.u64(s.eventsExecuted);
        w.u64(s.oversizedEvents);
        w.u64(s.poolChunks);
    };
    for (const auto &d : sa_) {
        panic_if(!d->outbox.empty(), "checkpointing with queued requests");
        domain(d->engine);
    }
    for (const auto &d : banks_) {
        panic_if(!d->responses.empty(),
                 "checkpointing with responses in flight");
        domain(d->engine);
    }
}

void
DomainScheduler::restoreFrom(ByteReader &r)
{
    fatal_if(!r.tag("DOMS"), "checkpoint has no domain section");
    const std::uint64_t num_sa = r.u64();
    const std::uint64_t num_banks = r.u64();
    fatal_if(num_sa != num_sa_ || num_banks != num_banks_,
             "checkpoint domain geometry (%llu SAs, %llu banks) does not "
             "match this configuration",
             static_cast<unsigned long long>(num_sa),
             static_cast<unsigned long long>(num_banks));
    const auto domain = [&r](Engine &e) {
        Engine::CheckpointState s;
        s.now = r.u64();
        s.nextSeq = r.u64();
        s.eventsExecuted = r.u64();
        s.oversizedEvents = r.u64();
        s.poolChunks = r.u64();
        e.restoreCheckpoint(s);
    };
    for (auto &d : sa_)
        domain(d->engine);
    for (auto &d : banks_)
        domain(d->engine);
}

Tick
DomainScheduler::run(Tick limit)
{
    while (true) {
        // Next window start: the earliest tick at which any domain has
        // work — an active clocked component ticks at its domain's
        // current time; otherwise the earliest pending event. This is a
        // global fast-forward: when every domain is stalled on
        // long-latency events, whole windows are skipped at once.
        Tick start = maxTick;
        bool any_active = false;
        auto consider = [&](const Engine &e) {
            if (e.activeClocked()) {
                any_active = true;
                if (e.now() < start)
                    start = e.now();
            }
            const Tick next = e.nextPendingTick();
            if (next < start)
                start = next;
        };
        for (const auto &d : sa_)
            consider(d->engine);
        for (const auto &d : banks_)
            consider(d->engine);

        if (!any_active && start == maxTick)
            return now(); // fully idle, all channels drained

        if (!any_active && start > limit) {
            warn("cycle limit %llu reached while idle until the next "
                 "event at %llu; returning early",
                 static_cast<unsigned long long>(limit),
                 static_cast<unsigned long long>(start));
            return now();
        }

        const Tick end = start > maxTick - opts_.lookahead
                             ? maxTick
                             : start + opts_.lookahead;
        runPhase(true, end, limit);
        if (opts_.profile) {
            const auto t0 = ProfClock::now();
            routeRequests();
            const auto t1 = ProfClock::now();
            runPhase(false, end, limit);
            const auto t2 = ProfClock::now();
            deliverResponses();
            if (barrier_hook_)
                barrier_hook_();
            if (ctl_)
                publishBeat(0);
            profile_.coordSerialSec +=
                std::chrono::duration<double>(t1 - t0).count() +
                secondsSince(t2);
            ++profile_.windows;
        } else {
            routeRequests();
            runPhase(false, end, limit);
            deliverResponses();
            if (barrier_hook_)
                barrier_hook_();
            if (ctl_)
                publishBeat(0);
        }
    }
}

void
DomainScheduler::reset()
{
    // Engines first: their discarded events may point at crossings.
    for (auto &d : banks_) {
        d->engine.reset();
        d->responses = CrossingList{};
    }
    for (auto &d : sa_) {
        d->engine.reset();
        d->outbox = CrossingList{};
        d->pool.clear();
        d->ports.clear();
    }
    routers_.clear();
    barrier_hook_ = nullptr;
    trace_count_ = 0;
}

Tick
DomainScheduler::now() const
{
    Tick t = 0;
    for (const auto &d : sa_)
        t = std::max(t, d->engine.now());
    for (const auto &d : banks_)
        t = std::max(t, d->engine.now());
    return t;
}

std::uint64_t
DomainScheduler::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.eventsExecuted();
    for (const auto &d : banks_)
        n += d->engine.eventsExecuted();
    return n;
}

std::uint64_t
DomainScheduler::poolChunks() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.poolChunks();
    for (const auto &d : banks_)
        n += d->engine.poolChunks();
    return n;
}

std::uint64_t
DomainScheduler::oversizedEvents() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.oversizedEvents();
    for (const auto &d : banks_)
        n += d->engine.oversizedEvents();
    return n;
}

std::size_t
DomainScheduler::numPendingEvents() const
{
    std::size_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.numPendingEvents();
    for (const auto &d : banks_)
        n += d->engine.numPendingEvents();
    return n;
}

unsigned
DomainScheduler::activeClocked() const
{
    unsigned n = 0;
    for (const auto &d : sa_)
        n += d->engine.activeClocked();
    for (const auto &d : banks_)
        n += d->engine.activeClocked();
    return n;
}

std::vector<std::pair<Tick, std::uint64_t>>
DomainScheduler::recentActivity() const
{
    std::vector<std::pair<Tick, std::uint64_t>> out;
    const std::uint64_t n = trace_count_ < recentTraceSize
                                ? trace_count_
                                : recentTraceSize;
    out.reserve(n);
    for (std::uint64_t i = trace_count_ - n; i < trace_count_; ++i)
        out.push_back(trace_[i % recentTraceSize]);
    return out;
}

} // namespace lazygpu
