/**
 * @file
 * Unit tests for the simulation engine: event ordering, tick semantics,
 * fast-forward, and clocked-component interaction.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "mem/device.hh"
#include "sim/domains.hh"
#include "sim/engine.hh"

namespace lazygpu
{
namespace
{

TEST(Engine, RunsEventsInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&]() { order.push_back(3); });
    e.schedule(10, [&]() { order.push_back(1); });
    e.schedule(20, [&]() { order.push_back(2); });
    e.run();
    EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
}

TEST(Engine, SameTickEventsRunInSchedulingOrder)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        e.schedule(5, [&order, i]() { order.push_back(i); });
    e.run();
    ASSERT_EQ(8u, order.size());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(i, order[i]);
}

TEST(Engine, EventsMayScheduleFurtherEvents)
{
    Engine e;
    int fired = 0;
    e.schedule(1, [&]() {
        ++fired;
        e.schedule(2, [&]() {
            ++fired;
            e.scheduleIn(5, [&]() { ++fired; });
        });
    });
    Tick end = e.run();
    EXPECT_EQ(3, fired);
    EXPECT_EQ(7u, end);
}

TEST(Engine, SameTickChainingRunsImmediately)
{
    Engine e;
    int fired = 0;
    e.schedule(4, [&]() {
        e.schedule(4, [&]() { ++fired; }); // now == 4, allowed
    });
    e.run();
    EXPECT_EQ(1, fired);
}

TEST(Engine, FastForwardsAcrossIdleGaps)
{
    Engine e;
    Tick seen = 0;
    e.schedule(1'000'000, [&]() { seen = e.now(); });
    Tick end = e.run();
    EXPECT_EQ(1'000'000u, seen);
    EXPECT_EQ(1'000'000u, end);
}

TEST(Engine, ResetDiscardsPendingEvents)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() { ++fired; });
    e.reset();
    e.run();
    EXPECT_EQ(0, fired);
    EXPECT_EQ(0u, e.now());
}

TEST(EngineDeath, SchedulingInThePastPanics)
{
    Engine e;
    e.schedule(10, []() {});
    e.run();
    ASSERT_EQ(10u, e.now());
    EXPECT_DEATH(e.schedule(5, []() {}), "past");
}

/**
 * A clocked component that counts down and then goes quiescent,
 * reporting its transitions per the engine's quiescence protocol.
 */
class Countdown : public Clocked
{
  public:
    Countdown(Engine &e, int n) : engine_(e), remaining_(n) {}

    void
    tick() override
    {
        if (remaining_ > 0 && --remaining_ == 0)
            engine_.noteDeactivated();
    }

    bool quiescent() const override { return remaining_ == 0; }

    /** Refill work, reporting a quiescent -> active transition. */
    void
    setRemaining(int n)
    {
        if (remaining_ == 0 && n > 0)
            engine_.noteActivated();
        remaining_ = n;
    }

    Engine &engine_;
    int remaining_;
};

TEST(Engine, TicksClockedComponentsUntilQuiescent)
{
    Engine e;
    Countdown c(e, 17);
    e.addClocked(&c);
    Tick end = e.run();
    EXPECT_EQ(0, c.remaining_);
    EXPECT_EQ(17u, end);
}

TEST(Engine, MixesTickingWithEvents)
{
    // A quiescent component woken by an event must resume ticking.
    Engine e;
    Countdown c(e, 0);
    e.addClocked(&c);
    e.schedule(50, [&]() { c.setRemaining(3); });
    Tick end = e.run();
    EXPECT_EQ(0, c.remaining_);
    EXPECT_EQ(53u, end);
}

TEST(EngineDeath, LivelockGuardFires)
{
    Engine e;
    Countdown c(e, 1 << 30);
    e.addClocked(&c);
    EXPECT_DEATH(e.run(1000), "livelock");
}

TEST(Engine, ResetDeregistersClockedComponents)
{
    // Reusing one Engine across simulations: reset() must drop the
    // previous simulation's clocked components, or they would keep
    // being ticked (and their stale activity corrupt the count).
    Engine e;
    Countdown stale(e, 5);
    e.addClocked(&stale);
    e.reset();
    EXPECT_EQ(0u, e.activeClocked());

    // The stale component must no longer be ticked.
    Countdown fresh(e, 3);
    e.addClocked(&fresh);
    Tick end = e.run();
    EXPECT_EQ(3u, end);
    EXPECT_EQ(5, stale.remaining_);
    EXPECT_EQ(0, fresh.remaining_);
}

TEST(Engine, FarFutureEventsPreserveFifoWithinTick)
{
    // Events parked in the overflow heap (beyond the timing wheel's
    // near-future ring) must still interleave with directly-scheduled
    // ring events in global scheduling order within their tick.
    Engine e;
    std::vector<int> order;
    const Tick far = 1 << 20;
    e.schedule(far, [&]() { order.push_back(0); });     // overflow
    e.schedule(far + 1, [&]() { order.push_back(3); }); // overflow
    e.schedule(1, [&]() {
        // By now `far` is still beyond the horizon: also overflow.
        e.schedule(far, [&]() { order.push_back(1); });
    });
    e.schedule(far - 2, [&]() {
        // Within the ring horizon of `far` by the time it runs.
        e.schedule(far, [&]() { order.push_back(2); });
        e.schedule(far + 1, [&]() { order.push_back(4); });
    });
    e.run();
    EXPECT_EQ((std::vector<int>{0, 1, 2, 3, 4}), order);
}

TEST(Engine, SteadyStateSchedulingDoesNotGrowThePool)
{
    // The allocation-free claim: after warm-up, scheduling and running
    // events must not grow the record pool, and small callables must
    // never take the boxed heap fallback.
    Engine e;
    int fired = 0;
    auto wave = [&](Tick base) {
        for (int i = 0; i < 100; ++i)
            e.schedule(base + i % 7, [&fired]() { ++fired; });
        e.run();
    };
    wave(e.now());
    const std::uint64_t warm_chunks = e.poolChunks();
    for (int round = 0; round < 50; ++round)
        wave(e.now() + 1);
    EXPECT_EQ(warm_chunks, e.poolChunks());
    EXPECT_EQ(0u, e.oversizedEvents());
    EXPECT_EQ(51 * 100, fired);
}

TEST(Engine, OversizedCallablesStillRun)
{
    // Payloads beyond the inline capacity fall back to a boxed heap
    // copy; they must execute correctly and be counted.
    Engine e;
    std::array<std::uint64_t, 32> big{};
    big.fill(7);
    std::uint64_t sum = 0;
    e.schedule(5, [big, &sum]() {
        for (std::uint64_t v : big)
            sum += v;
    });
    e.run();
    EXPECT_EQ(7u * 32, sum);
    EXPECT_EQ(1u, e.oversizedEvents());
}

TEST(Engine, ReturnsAtLimitWithFarFutureEventQueued)
{
    // A quiescent system whose next event lies beyond the limit is a
    // cycle-limit stop, not a livelock: run() must return, leaving the
    // far event queued so callers can tell the two apart.
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() { ++fired; });
    e.schedule(1'000'000, [&]() { ++fired; });
    Tick end = e.run(1000);
    EXPECT_EQ(1, fired);
    EXPECT_EQ(10u, end);
    EXPECT_TRUE(e.hasPendingEvents());
}

TEST(Engine, EventExactlyAtLimitStillRuns)
{
    Engine e;
    int fired = 0;
    e.schedule(1000, [&]() { ++fired; });
    Tick end = e.run(1000);
    EXPECT_EQ(1, fired);
    EXPECT_EQ(1000u, end);
    EXPECT_FALSE(e.hasPendingEvents());
}

TEST(Engine, RunWindowStopsBeforeWindowEnd)
{
    // runWindow(end) executes strictly below `end`: the event at the
    // window edge belongs to the *next* window (its tick is the next
    // window's start), so barrier-injected same-tick work still lands
    // ahead of it in FIFO order.
    Engine e;
    std::vector<Tick> fired;
    for (Tick t : {3u, 7u, 10u, 12u})
        e.schedule(t, [&fired, &e]() { fired.push_back(e.now()); });
    e.runWindow(10);
    EXPECT_EQ((std::vector<Tick>{3, 7}), fired);
    EXPECT_EQ(10u, e.nextPendingTick());
    EXPECT_FALSE(e.idle());
    e.runWindow(13);
    EXPECT_EQ((std::vector<Tick>{3, 7, 10, 12}), fired);
    EXPECT_EQ(maxTick, e.nextPendingTick());
    EXPECT_TRUE(e.idle());
}

TEST(Engine, RunWindowTicksClockedComponents)
{
    Engine e;
    Countdown c(e, 7);
    e.addClocked(&c);
    Tick t = e.runWindow(4);
    EXPECT_EQ(4u, t);
    EXPECT_EQ(3, c.remaining_);
    t = e.runWindow(100);
    EXPECT_EQ(7u, t);
    EXPECT_EQ(0, c.remaining_);
    EXPECT_TRUE(e.idle());
}

/** A bank-side device answering after a fixed local delay. */
class DelayDevice : public MemDevice
{
  public:
    DelayDevice(Engine &e, Tick delay) : engine_(e), delay_(delay) {}

    void
    access(const MemAccess &, Completion done) override
    {
        ++accesses_;
        if (done)
            engine_.scheduleIn(delay_,
                               [cb = std::move(done)]() mutable { cb(); });
    }

    Engine &engine_;
    Tick delay_;
    int accesses_ = 0;
};

TEST(DomainScheduler, RoutesRequestsAndDeliversResponsesAcrossWindows)
{
    DomainScheduler::Options o;
    o.lookahead = 4;
    o.threads = 2;
    DomainScheduler sched(o, 2, 2);
    DelayDevice bank0(sched.bankEngine(0), 3);
    const unsigned r =
        sched.addRouter([&](unsigned, Tick when, const MemAccess &) {
            return DomainScheduler::Route{0, when, &bank0};
        });

    Tick delivered_at = maxTick;
    Engine &sa0 = sched.saEngine(0);
    sa0.schedule(2, [&]() {
        sched.port(0, r).access(MemAccess{0x1000, 32, false},
                                [&]() { delivered_at = sa0.now(); });
    });
    const Tick end = sched.run();
    // Request at 2, bank access at 2, bank completion at 5, response
    // crossing +lookahead delivers at 9.
    EXPECT_EQ(1, bank0.accesses_);
    EXPECT_EQ(9u, delivered_at);
    EXPECT_EQ(9u, end);
    EXPECT_FALSE(sched.anyPendingEvents());
}

TEST(DomainScheduler, ResetTearsDownAndRearmsDomains)
{
    // Reusing one scheduler across simulations: reset() must drop every
    // domain wheel's events, deregister clocked components, clear the
    // cross-domain channels, and leave the domains re-armable from
    // tick zero (the clocked_ reset regression, sharded edition).
    DomainScheduler::Options o;
    o.lookahead = 4;
    o.threads = 2;
    DomainScheduler sched(o, 2, 2);

    Countdown stale(sched.saEngine(1), 5);
    sched.saEngine(1).addClocked(&stale);

    DelayDevice bank0(sched.bankEngine(0), 3);
    unsigned r =
        sched.addRouter([&](unsigned, Tick when, const MemAccess &) {
            return DomainScheduler::Route{0, when, &bank0};
        });
    int stale_deliveries = 0;
    sched.saEngine(0).schedule(2, [&]() {
        sched.port(0, r).access(MemAccess{0x1000, 32, false},
                                [&]() { ++stale_deliveries; });
    });
    // A never-drained pending event far in the future.
    sched.bankEngine(1).schedule(1'000'000, []() {});
    EXPECT_TRUE(sched.anyPendingEvents());

    sched.reset();
    EXPECT_EQ(0u, sched.now());
    EXPECT_EQ(0u, sched.activeClocked());
    EXPECT_FALSE(sched.anyPendingEvents());

    // Re-arm: fresh router, fresh component, fresh request — the old
    // ones must stay gone.
    DelayDevice fresh_bank(sched.bankEngine(0), 3);
    r = sched.addRouter([&](unsigned, Tick when, const MemAccess &) {
        return DomainScheduler::Route{0, when, &fresh_bank};
    });
    Countdown fresh(sched.saEngine(1), 3);
    sched.saEngine(1).addClocked(&fresh);
    Tick delivered_at = maxTick;
    Engine &sa0 = sched.saEngine(0);
    sa0.schedule(2, [&]() {
        sched.port(0, r).access(MemAccess{0x1000, 32, false},
                                [&]() { delivered_at = sa0.now(); });
    });
    const Tick end = sched.run();
    EXPECT_EQ(0, stale_deliveries);
    EXPECT_EQ(5, stale.remaining_);
    EXPECT_EQ(0, fresh.remaining_);
    EXPECT_EQ(0, bank0.accesses_);
    EXPECT_EQ(1, fresh_bank.accesses_);
    EXPECT_EQ(9u, delivered_at);
    EXPECT_EQ(9u, end);
}

} // namespace
} // namespace lazygpu
